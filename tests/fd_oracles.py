"""The third-derivative FD stencil, kept as a test oracle: no command of
the package reads a third derivative by finite differences any more, but
`test_fd.py` checks it against one-point references and `test_hessian.py`
rebuilds the former curvature recipe from it."""

from itertools import combinations, permutations, product

import numpy as np

from isonorm.fd import _lattice


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
