"""Central finite-difference stencils, each evaluated in one call.

All derivative estimates of a scalar field are assembled from values at
x + step * (integer offset).  `fun` maps an (m, n) array of points to its
m values.  A stencil lists the distinct offsets it reads, calls `fun` once
on all of them, and forms every entry with the same floating-point
operations, in the same order, as evaluating one point at a time.
"""

from __future__ import annotations

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
