"""Central finite-difference stencils, each evaluated in one call.

All derivative estimates of a scalar field are assembled from values at
x + step * (integer offset).  `fun` maps an (m, n) array of points to its
m values.  A stencil lists the distinct offsets it reads, calls `fun` once
on all of them, and forms every entry with the same floating-point
operations, in the same order, as evaluating one point at a time.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _arrays(n: int) -> dict:
    """Read-only arrays of dimension n, built once: I_n and hessian_fd's
    lattice."""
    e = np.eye(n, dtype=int)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))  # triu_indices(n, 1)
    groups = (0 * e[:1], e, -e, e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j])
    out = {"eye": np.eye(n), "pairs": np.array([i, j]), "lattice": np.concatenate(groups)}
    for a in out.values():
        a.flags.writeable = False
    return dict(out, ends=tuple(np.cumsum([len(g) for g in groups]).tolist()))


def _lattice(fun, x, step, offsets, ends) -> list[np.ndarray]:
    """fun at x + step * offset for every row of the (k, n) offsets, from one
    call; one array of values per group of rows, each ending at its entry of
    ends.  Base points x (..., n) with steps (...) give values (..., k)."""
    pts = x[..., None, :] + np.multiply.outer(step, offsets)
    values = np.asarray(fun(pts.reshape(-1, x.shape[-1])),
                        dtype=float).reshape(pts.shape[:-1])
    return [values[..., start:end] for start, end in zip((0,) + ends, ends)]


def hessian_fd(fun, x, step: float = 1e-4) -> np.ndarray:
    """Symmetric central-difference Hessian at x, or one per row of a (k, n)
    array x with a step per row (shape (k,)): then (k, n, n)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = _arrays(n)
    i, j = c["pairs"]
    f0, up, down, pp, pm, mp, mm = _lattice(fun, x, step, c["lattice"], c["ends"])
    h2 = np.square(step)[..., None]
    H = np.empty(x.shape + (n,))
    H[..., np.arange(n), np.arange(n)] = (up - 2.0 * f0 + down) / h2
    H[..., i, j] = H[..., j, i] = (pp - pm - mp + mm) / (4.0 * h2)
    return H
