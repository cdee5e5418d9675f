"""Concrete isoparametric foliation models of the round sphere.

Three families, identified by the number d of distinct principal curvatures:

  d=1  p(u) = u_1                          (parallel distance spheres)
  d=2  p(u) = |x'|^2 - |x''|^2             (Clifford tori, split k | n-k)
  d=3  the real Cartan cubic on S^4 in coordinates (a, b, x, y, z)

In all cases p = cos(d t) on the unit sphere, where t in [0, pi/d] is the
leaf parameter (spherical distance to the focal set M_0), and the leaf M_t
has shape-operator eigenvalues cot(t + k pi/d), k = 0..d-1.

The spherical coordinates of a point all come from p at u = x/|x| (Muenzner,
Math. Ann. 251, 1980): t = arccos(p)/d, the unit normal
w = -grad_S p / (d sin dt) and the shape operator from Hess p.  `_frame` is
the one entry to a leaf point's frame: one polar pass per row set (`_polar`
evaluates p), the focal guard, then w with the one focal test, on sin(d t);
other modules read a point otherwise only by t_coord and `_radius`.  A model
keeps its last point's and rows' pass and w, and rows' S (`profile._Keeps`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fd import _arrays
from .profile import DEFAULT_FOCAL_GUARD, _Keeps, _pow

SQ3 = math.sqrt(3.0)
# random_leaf_points gives up after this many sphere draws per point wanted
LEAF_DRAWS_PER_POINT = 1000


class FocalProximityError(ValueError):
    """Raised when an operation needs t bounded away from the focal sets."""


@dataclass(frozen=True)
class FoliationModel(_Keeps):
    d: int
    n: int
    k: int | None = None  # block split, d=2 only

    def __post_init__(self):
        if self.d == 1:
            if self.n < 3:
                raise ValueError("d=1 needs ambient dimension n >= 3")
            if self.k is not None:
                raise ValueError("d=1 has no split parameter")
        elif self.d == 2:
            if self.k is None or self.n < 4 or self.k < 1 or self.n - self.k < 1:
                raise ValueError("d=2 needs n >= 4 and a split 1 <= k <= n-1")
        elif self.d == 3:
            if self.n != 5:
                raise ValueError("d=3 is the real Cartan case, n = 5")
            if self.k is not None:
                raise ValueError("d=3 has no split parameter")
        else:
            raise ValueError("d must be 1, 2 or 3")

    def describe(self) -> str:
        if self.d == 1:
            return f"d1:{self.n}"
        if self.d == 2:
            return f"d2:{self.n}:{self.k}"
        return "cartan3"


def d1(n: int) -> FoliationModel:
    return FoliationModel(1, n)


def d2(n: int, k: int) -> FoliationModel:
    return FoliationModel(2, n, k)


def cartan3() -> FoliationModel:
    return FoliationModel(3, 5)


def parse_model(spec: str) -> FoliationModel:
    """Parse 'd1:n', 'd2:n:k' or 'cartan3'."""
    if spec == "cartan3":
        return cartan3()
    parts = spec.split(":")
    try:
        if parts[0] == "d1" and len(parts) == 2:
            return d1(int(parts[1]))
        if parts[0] == "d2" and len(parts) == 3:
            return d2(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad model spec {spec!r}: {exc}") from None
    raise ValueError(f"bad model spec {spec!r} (want d1:n, d2:n:k or cartan3)")


def _sqnorm(x: np.ndarray):
    """|x|^2 of a point (a numpy scalar), or of each row of an (m, n)
    array, by one dot product per point (a matrix product of the rows would
    round otherwise).  A point takes np.vdot, matmul's dot product without its
    floating-point checks (a third of its cost), so an overflow reads as inf,
    unwarned; rows warn, so _radius and hessian.energy take them under an errstate."""
    if x.ndim == 1:
        return np.vdot(x, x)
    return (x[..., None, :] @ x[..., :, None]).T[0, 0]


def _poly(m: FoliationModel, u: np.ndarray):
    """p at a point, or at each row with the bits of its one-point call.

    Columns are taken with u.T, so a point yields numpy scalars, whose
    arithmetic is much cheaper than that of 0-d arrays."""
    if m.d == 1:
        return u.T[0]
    if m.d == 2:
        return _sqnorm(u[..., :m.k]) - _sqnorm(u[..., m.k:])
    a, b, x, y, z = u.T
    return (_pow(a, 3) - 3.0 * a * b * b
            + 1.5 * a * (x * x + y * y - 2.0 * z * z)
            + 1.5 * SQ3 * b * (x * x - y * y)
            + 3.0 * SQ3 * x * y * z)


def _grad_poly(m: FoliationModel, u) -> np.ndarray:
    """grad p at a point, or at the rows of an (m, n) array as the columns
    of an (n, m) one."""
    if m.d == 1:
        g = np.zeros(u.T.shape)
        g[0] = 1.0
        return g
    if m.d == 2:
        g = 2.0 * u.T
        g[m.k:] *= -1.0
        return g
    a, b, x, y, z = u.T
    return np.array([
        3.0 * a * a - 3.0 * b * b + 1.5 * (x * x + y * y - 2.0 * z * z),
        -6.0 * a * b + 1.5 * SQ3 * (x * x - y * y),
        3.0 * a * x + 3.0 * SQ3 * b * x + 3.0 * SQ3 * y * z,
        3.0 * a * y - 3.0 * SQ3 * b * y + 3.0 * SQ3 * x * z,
        -6.0 * a * z + 3.0 * SQ3 * x * y,
    ])


def _hess_poly(m: FoliationModel, u) -> np.ndarray:
    """Hess p at a point, (n, n), or at each row of a (k, n) array: constant
    for d <= 2 (_fixed_derivative) and linear in u for the Cartan cubic."""
    if m.d < 3:
        H = _fixed_derivative(m)
        return H if u.ndim == 1 else np.broadcast_to(H, u.shape + u.shape[-1:])
    a, b, x, y, z = 3.0 * u.T
    s, o = SQ3, 0.0 * a
    # symmetric, so .T only moves the row axis first
    return np.array([
        [2.0 * a, -2.0 * b, x, y, -2.0 * z],
        [-2.0 * b, -2.0 * a, s * x, -s * y, o],
        [x, s * x, a + s * b, s * z, s * y],
        [y, -s * y, s * z, a - s * b, s * x],
        [-2.0 * z, o, s * y, s * x, -2.0 * a],
    ]).T


@functools.cache
def _fixed_derivative(m: FoliationModel) -> np.ndarray:
    """Hess p for d <= 2, D^3 p for the Cartan cubic (Hess p at each axis, as
    Hess p is linear): the derivative of p no point changes, read-only."""
    D = (_hess_poly(m, np.eye(m.n)) if m.d == 3 else _arrays(m.n)["eye"]
         * (np.where(np.arange(m.n) < m.k, 2.0, -2.0) if m.d == 2 else 0.0))
    D.flags.writeable = False
    return D


def _check_shape(m: FoliationModel, x: np.ndarray) -> None:
    """ValueError unless x is a point or rows of the model's n."""
    if x.ndim not in (1, 2) or x.shape[-1] != m.n:
        raise ValueError(f"x has shape {x.shape}, not ({m.n},) or (m, {m.n})")


def _radius(m: FoliationModel, x: np.ndarray):
    """|x| as t_coord takes it; ValueError unless x is a point or rows of
    the model's n, each with a finite, nonzero |x|."""
    _check_shape(m, x)
    if x.ndim == 1:  # a point's np.vdot does not warn; an errstate costs it ~1 us
        r = np.sqrt(_sqnorm(x))
    else:
        with np.errstate(over="ignore"):
            r = np.sqrt(_sqnorm(x))
    # a point's r is a numpy scalar, whose Python comparison is the cheapest
    if not (0.0 < r < math.inf if x.ndim == 1
            else ((0.0 < r) & (r < math.inf)).all()):
        if not r.all():
            raise ValueError("t undefined at the origin")
        raise ValueError("t undefined: x is not finite or |x|^2 overflows")
    return r


class RT(NamedTuple):
    r: float
    t: float


def _polar(m: FoliationModel, x, what=None):
    """The polar pass of t_coord: (r, u, p, t) with u = x / r and p = p(u)
    unclipped, which _unit_w and _shape_operator take from their caller, so
    that p is evaluated once per row set.  r and t as t_coord gives them; a
    ValueError for any shape but a point's if `what` names a one-point caller."""
    if what is not None and np.shape(x) != (m.n,):
        raise ValueError(f"{what} takes one point of shape ({m.n},), not {np.shape(x)}")
    x = np.asarray(x, dtype=float)
    return m._kept("_point", x, lambda: _polar_pass(m, x))


def _polar_pass(m: FoliationModel, x: np.ndarray):
    r = _radius(m, x)
    u = x / r[..., None]
    p = _poly(m, u)
    # math.acos: numpy's arccos differs from it in the last bit on some points
    if x.ndim == 1:  # a point's t on floats
        return float(r), u, p, math.acos(min(max(float(p), -1.0), 1.0)) / m.d
    return r, u, p, np.array([math.acos(v) for v in np.minimum(
        np.maximum(p, -1.0), 1.0).tolist()]) / m.d


def t_coord(m: FoliationModel, x) -> RT:
    """Polar data (r, t) of x: r = |x|, t = arccos(p(x/r)) / d in [0, pi/d].

    x is one point (r and t are floats) or an (m, n) array of rows (r and t
    are arrays); each row gets the bits of its one-point call.  ValueError
    for any other shape, at the origin and for a non-finite |x|.  One polar
    pass (_polar) evaluates p; a frame (_frame) takes it from there.
    """
    r, _, _, t = _polar(m, x)
    return RT(r, t)


class NormalPlane(NamedTuple):
    v1: np.ndarray  # the focal point gamma(0) of the normal geodesic
    v2: np.ndarray  # gamma(pi/2); the plane is span(v1, v2)
    w: np.ndarray   # unit direction of increasing t at x


def unit_w(m: FoliationModel, x) -> np.ndarray:
    """Unit sphere-tangent vector in the direction of increasing t.

    The spherical gradient of t at u is -grad_S p / (d sin(d t)), which is
    exactly unit because t is an arc-length (isoparametric) parameter.  x is
    one point or an (m, n) array of rows, as in t_coord.
    """
    return _frame(m, x)[4]


def _unit_w(m: FoliationModel, u: np.ndarray, t, p) -> np.ndarray:
    """unit_w at the unit point or rows u, with their t and p = p(u), after
    the one focal test: FocalProximityError where sin(d t) < 1e-12."""
    s = np.sin(m.d * t)
    if (s < 1e-12).any():
        raise FocalProximityError("t direction degenerates on the focal set")
    # one column per point, so that a point's s and p stay numpy scalars
    grad_sphere = _grad_poly(m, u) - (m.d * p) * u.T
    return np.ascontiguousarray((-grad_sphere / (m.d * s)).T)


def _check_guard(m: FoliationModel, delta: float) -> None:
    """FocalProximityError unless the focal guard delta is in [0, pi/(2d))."""
    if not 0.0 <= delta < math.pi / (2 * m.d):  # a NaN fails it too
        raise FocalProximityError(
            f"delta={delta} must be in [0, pi/(2d)) = [0, {math.pi / (2 * m.d):.4f})")


def _frame(m: FoliationModel, x, delta=None, what=None):
    """(r, u, p, t, w = unit_w) of a point or rows from one polar pass
    (_polar, which takes `what`): the one entry to a leaf point's frame.  A
    delta (_check_guard's) raises FocalProximityError unless each t is in
    (delta, pi/d - delta), a NaN t outside too, before w's focal test."""
    r, u, p, t = _polar(m, x, what)
    if delta is not None:
        _check_guard(m, delta)
        hi = math.pi / m.d - delta
        near = [v for v in np.atleast_1d(t).tolist() if not delta < v < hi]
        if near:
            raise FocalProximityError(f"t={near[0]:.4f} inside the focal guard band"
                                      f" (delta={delta}, pi/d={math.pi / m.d:.4f})")
    return r, u, p, t, m._kept("_w", u, lambda: _unit_w(m, u, t, p))


def normal_plane_basis(m: FoliationModel, x,
                       delta: float = DEFAULT_FOCAL_GUARD) -> NormalPlane:
    """Orthonormal (v1, v2) spanning the normal plane through x, plus w.

    The normal geodesic through u = x/|x| is gamma(s) = cos(s) v1 + sin(s) v2
    with gamma(t) = u; v1 sits on the focal set M_0.  x is one point or an
    (m, n) array of rows (v1, v2 and w are then rows too).
    """
    _, u, _, t, w = _frame(m, x, delta)
    c, s = np.cos(t)[..., None], np.sin(t)[..., None]
    return NormalPlane(v1=c * u - s * w, v2=s * u + c * w, w=w)


def multiplicities(m: FoliationModel) -> tuple[tuple[int, int], ...]:
    """Pairs (k, m_k) with m_k > 0: multiplicity of eigenvalue cot(t + k pi/d)."""
    if m.d == 1:
        return ((0, m.n - 2),)
    if m.d == 2:
        pairs = [(0, m.n - m.k - 1), (1, m.k - 1)]
        return tuple((k, mk) for k, mk in pairs if mk > 0)
    return ((0, 1), (1, 1), (2, 1))


def focal_dimensions(m: FoliationModel) -> tuple[int, int]:
    """(dim M_0, dim M_{pi/d}) = (n - 2 - m_0, n - 2 - m_{d-1}): as t -> 0
    the leaf collapses its k = 0 eigenspace (cot t blows up) onto M_0, as
    t -> pi/d its k = d - 1 one (Muenzner, Math. Ann. 251, 1980); a k
    missing from multiplicities(m) has m_k = 0."""
    mult = dict(multiplicities(m))
    return m.n - 2 - mult.get(0, 0), m.n - 2 - mult.get(m.d - 1, 0)


class ShapeEigen(NamedTuple):
    k: int                 # eigenvalue index: kappa ~ cot(t + k pi/d)
    kappa: float           # measured eigenvalue
    multiplicity: int
    basis: np.ndarray      # orthonormal eigenvectors, shape (mult, n)


def _shape_operator(m: FoliationModel, u: np.ndarray, t, w: np.ndarray, p):
    """S = -P (Hess p - d p I) P / (d sin dt), P = I - u u^T - w w^T, at the
    unit (k, n) rows u, with p = p(u): the leaf's shape operator (the
    spherical Hessian of t on the leaf), eigenvalues cot(t + k pi/d): kept on u."""
    return m._kept("_shape", u, lambda: _shape_pass(m, u, t, w, p))


def _shape_pass(m: FoliationModel, u: np.ndarray, t, w: np.ndarray, p):
    eye = _arrays(m.n)["eye"]
    P = eye - u[..., :, None] * u[..., None, :] - w[..., :, None] * w[..., None, :]
    H = _hess_poly(m, u) - (m.d * p)[..., None, None] * eye
    return -(P @ H @ P) / (m.d * np.sin(m.d * t))[..., None, None]


def shape_spectrum(m: FoliationModel, x, delta: float = DEFAULT_FOCAL_GUARD):
    """The leaf's shape spectrum from one frame of x: -leaf (Hess p - d p I)
    leaf^T / (d sin dt), leaf S leaf^T as leaf spans P's range (_shape_operator).
    Sorted, its eigenvalues cot(t + k pi/d) fall to the k of multiplicities(m)
    in turn (they decrease in k); RuntimeError if one is not its cot."""
    _, u, p, t, w = _frame(m, x, delta, "shape_spectrum")
    eye = _arrays(m.n)["eye"]
    # the eigenvalue-1 eigenvectors of P, after eigh's two zero eigenvalues
    leaf = np.linalg.eigh(eye - u[:, None] * u - w[:, None] * w)[1][:, 2:].T
    evals, evecs = np.linalg.eigh(-(leaf @ (_hess_poly(m, u) - m.d * p * eye) @ leaf.T)
                                  / (m.d * math.sin(m.d * t)))
    out, i = [], len(evals)  # eigh sorts ascending: walk from the top
    for k, mk in multiplicities(m):
        kappa = evals[i - mk:i]
        target = 1.0 / math.tan(t + k * math.pi / m.d)
        # np.allclose's test, |kappa - target| <= 1e-8 + 1e-5 |target|, at a
        # fraction of its cost; a NaN fails it
        tol = 1e-8 + 1e-5 * abs(target)
        if not all(abs(v - target) <= tol for v in kappa.tolist()):
            raise RuntimeError(f"shape eigenvalues {kappa} for k={k} are not "
                               f"cot(t + k pi/d) = {target:.6f}")
        out.append(ShapeEigen(k=k, kappa=float(kappa.sum() / mk), multiplicity=mk,
                              basis=evecs[:, i - mk:i].T @ leaf))
        i -= mk
    return out


def random_leaf_points(m: FoliationModel, t, count: int,
                       seed: int = 0, delta: float = DEFAULT_FOCAL_GUARD):
    """Deterministic sample of `count` unit points on the leaves M_t.

    t is one leaf parameter for every point or a 1-D array of `count`, one
    per point.  Draws random normal planes (via random sphere points with
    leaf parameter more than delta from both focal values) and walks each
    point's normal geodesic to its own t.  Raises FocalProximityError, before
    t is checked, for a delta negative, NaN or >= pi/(2d), and when
    LEAF_DRAWS_PER_POINT * count draws do not yield count points.
    """
    if count < 0:
        raise ValueError(f"count must be at least 0, got {count}")
    _check_guard(m, delta)
    t = np.asarray(t, dtype=float)
    if t.ndim and t.shape != (count,):
        raise ValueError(f"t must be one leaf parameter or {count}, "
                         f"got an array of shape {t.shape}")
    t = np.full(count, t)
    if not ((0.0 < t) & (t < math.pi / m.d)).all():
        raise ValueError("t must be an interior leaf parameter")
    rng = np.random.default_rng(seed)
    limit = LEAF_DRAWS_PER_POINT * count
    y, drawn = np.empty((0, m.n)), 0
    # draws come in growing blocks, each tested as one array; a block of k
    # draws is the same as k single draws, so the points keep their bits
    while len(y) < count and drawn < limit:
        block = rng.standard_normal((min(limit - drawn, max(2 * count, drawn)),
                                     m.n))
        drawn += len(block)
        block /= np.sqrt(_sqnorm(block))[:, None]
        tb = t_coord(m, block).t
        y = np.concatenate([y, block[(delta < tb) & (tb < math.pi / m.d - delta)]])
    if len(y) < count:
        raise FocalProximityError(
            f"found {len(y)} of {count} leaf points in {limit} draws: "
            f"delta={delta} leaves too little room between the focal values")
    basis = normal_plane_basis(m, y[:count], delta)
    return np.cos(t)[:, None] * basis.v1 + np.sin(t)[:, None] * basis.v2
