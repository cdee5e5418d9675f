"""Finite-difference oracles kept in the tests: no command of the package
reads them.  `third_tensor_fd` is checked in `test_fd.py` against one-point
references, and `test_hessian.py` rebuilds the former curvature recipe from
it; `indicatrix_operators_fd` is an independent check, at FD accuracy, of
the exact indicatrix operators."""

import math
from itertools import combinations, permutations, product

import numpy as np

from isonorm.fd import _lattice
from isonorm.foliation import t_coord, unit_w
from isonorm.hessian import closed_fundamental_tensor

# the flux difference's step, in units of |x| on S_F: its truncation error
# ~step^4 and its rounding ~eps / step balance near 1e-4
INDICATRIX_FD_STEP = 1e-4


def third_tensor_fd(fun, x, step: float = 1e-3) -> np.ndarray:
    """Fully symmetric third-derivative tensor by central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    e = np.eye(n, dtype=int)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # triu_indices(n, 1)
    a, b, c = np.array(list(combinations(range(n), 3)), dtype=int).reshape(-1, 3).T
    two, three = list(product((1, -1), repeat=2)), list(product((1, -1), repeat=3))
    groups = (2 * e, e, -e, -2 * e, *(s * e[i] + t * e[j] for s, t in two),
              *(s * e[a] + t * e[b] + u * e[c] for s, t, u in three))
    up2, up, down, down2, *v = _lattice(
        fun, x, step, np.concatenate(groups),
        tuple(np.cumsum([len(g) for g in groups]).tolist()))
    h3 = step ** 3
    T = np.empty((n, n, n))
    k = np.arange(n)
    T[k, k, k] = (up2 - 2.0 * up + 2.0 * down - down2) / (2.0 * h3)
    # second difference along p, first along q != p: pair[s, t][p, q] is
    # the value at s e_p + t e_q, with index 0 for the sign + and 1 for -
    pair = np.zeros((2, 2, n, n))
    for (s, t), vals in zip(product((0, 1), repeat=2), v[:4]):
        pair[s, t, i, j] = pair[t, s, j, i] = vals
    D = (pair[0, 0] - 2.0 * up + pair[1, 0] - pair[0, 1] + 2.0 * down
         - pair[1, 1]) / (2.0 * h3)
    p, q = np.nonzero(1 - e)
    T[p, p, q] = T[p, q, p] = T[q, p, p] = D[p, q]
    # three distinct axes: product of three central first differences
    total = 0.0
    for (s, t, u), vals in zip(three, v[4:]):
        total = total + s * t * u * vals
    for perm in permutations((a, b, c)):
        T[perm] = total / (8.0 * h3)
    return T


def indicatrix_operators_fd(nm, u0, step: float = INDICATRIX_FD_STEP):
    """(|grad t|^2, Delta t) of the Hessian metric g at the point x of the
    indicatrix S_F over the direction u0, one point and one stencil row per
    call: dt = unit_w / r, the closed G, and the Laplacian
    (1/sqrt det G) d_i(sqrt det G G^ij d_j t) by a fourth-order central
    difference of the flux, of step `step` |x|, along each axis."""
    m = nm.foliation
    u0 = np.asarray(u0, dtype=float)
    r, t = t_coord(m, u0)
    rho = 1.0 / math.sqrt(2.0 * nm.profile.evaluate(t, 0))
    x, h = rho * (u0 / r), step * rho

    def flux(y):
        G = closed_fundamental_tensor(nm, y)
        dt = unit_w(m, y) / t_coord(m, y).r
        return dt, math.sqrt(float(np.linalg.det(G))), np.linalg.solve(G, dt)

    dt, sdet0, sol = flux(x)
    div = []
    for a in range(m.n):
        f = {}
        for mult in (2.0, 1.0, -1.0, -2.0):
            y = x.copy()
            y[a] += mult * h
            _, sdet, sol_y = flux(y)
            f[mult] = sdet * sol_y[a]
        div.append((8.0 * (f[1.0] - f[-1.0]) - (f[2.0] - f[-2.0])) / (12.0 * h))
    return float(dt @ sol), float(np.sum(div) / sdet0)
