"""Central finite-difference stencils, each evaluated in one call.

All derivative estimates of a scalar field are assembled from values at
x + step * (integer offset).  `fun` maps an (m, n) array of points to its
m values.  A stencil lists the distinct offsets it reads, calls `fun` once
on all of them, and forms every entry with the same floating-point
operations, in the same order, as evaluating one point at a time.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np


def _lattice(fun, x, step, *groups) -> list[np.ndarray]:
    """fun at x + step * offset for every row of the (k, n) groups of
    distinct integer offsets, from one call; one array of values per group.
    Base points x (..., n) with steps (...) give values (..., k)."""
    pts = x[..., None, :] + np.multiply.outer(step, np.concatenate(groups))
    values = np.asarray(fun(pts.reshape(-1, x.shape[-1])),
                        dtype=float).reshape(pts.shape[:-1])
    ends = np.cumsum([len(g) for g in groups])
    return [values[..., end - len(g):end] for g, end in zip(groups, ends)]


def hessian_fd(fun, x, step: float = 1e-4) -> np.ndarray:
    """Symmetric central-difference Hessian at x, or one per row of a (k, n)
    array x with a step per row (shape (k,)): then (k, n, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e = np.eye(n, dtype=int)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # triu_indices(n, 1)
    f0, up, down, pp, pm, mp, mm = _lattice(
        fun, x, step, 0 * e[:1], e, -e,
        e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j])
    h2 = np.square(step)[..., None]
    H = np.empty(x.shape + (n,))
    H[..., np.arange(n), np.arange(n)] = (up - 2.0 * f0 + down) / h2
    H[..., i, j] = H[..., j, i] = (pp - pm - mp + mm) / (4.0 * h2)
    return H


def third_tensor_fd(fun, x, step: float = 1e-3) -> np.ndarray:
    """Fully symmetric third-derivative tensor by central differences."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    e = np.eye(n, dtype=int)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # triu_indices(n, 1)
    a, b, c = np.array(list(combinations(range(n), 3)), dtype=int).reshape(-1, 3).T
    two, three = list(product((1, -1), repeat=2)), list(product((1, -1), repeat=3))
    up2, up, down, down2, *v = _lattice(
        fun, x, step, 2 * e, e, -e, -2 * e,
        *(s * e[i] + t * e[j] for s, t in two),
        *(s * e[a] + t * e[b] + u * e[c] for s, t, u in three))
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
