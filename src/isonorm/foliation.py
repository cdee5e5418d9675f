"""Concrete isoparametric foliation models of the round sphere.

Three families, identified by the number d of distinct principal curvatures:

  d=1  p(u) = u_1                          (parallel distance spheres)
  d=2  p(u) = |x'|^2 - |x''|^2             (Clifford tori, split k | n-k)
  d=3  the real Cartan cubic on S^4 in coordinates (a, b, x, y, z)

In all cases p = cos(d t) on the unit sphere, where t in [0, pi/d] is the
leaf parameter (spherical distance to the focal set M_0), and the leaf M_t
has shape-operator eigenvalues cot(t + k pi/d), k = 0..d-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .profile import _pow

SQ3 = math.sqrt(3.0)
DEFAULT_FOCAL_GUARD = 0.05
# random_leaf_points gives up after this many sphere draws per point wanted
LEAF_DRAWS_PER_POINT = 1000


class FocalProximityError(ValueError):
    """Raised when an operation needs t bounded away from the focal sets."""


@dataclass(frozen=True)
class FoliationModel:
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


def eval_poly(m: FoliationModel, u) -> float:
    """The defining degree-d polynomial at a unit vector; p = cos(d t)."""
    u = np.asarray(u, dtype=float)
    if abs(np.dot(u, u) - 1.0) > 1e-10:
        raise ValueError("eval_poly expects a unit vector")
    return float(_poly(m, u))


def _sqnorm(x: np.ndarray):
    """|x|^2 of a point (a numpy scalar), or of each row of an (m, n)
    array, by one dot product per point (a matrix product of the rows would
    round otherwise)."""
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
    if m.d == 1:
        g = np.zeros(m.n)
        g[0] = 1.0
        return g
    if m.d == 2:
        g = 2.0 * np.asarray(u, dtype=float).copy()
        g[m.k:] *= -1.0
        return g
    a, b, x, y, z = u
    return np.array([
        3.0 * a * a - 3.0 * b * b + 1.5 * (x * x + y * y - 2.0 * z * z),
        -6.0 * a * b + 1.5 * SQ3 * (x * x - y * y),
        3.0 * a * x + 3.0 * SQ3 * b * x + 3.0 * SQ3 * y * z,
        3.0 * a * y - 3.0 * SQ3 * b * y + 3.0 * SQ3 * x * z,
        -6.0 * a * z + 3.0 * SQ3 * x * y,
    ])


class RT(NamedTuple):
    r: float
    t: float


def t_coord(m: FoliationModel, x) -> RT:
    """Polar data (r, t) of x: r = |x|, t = arccos(p(x/r)) / d in [0, pi/d].

    x is one point (r and t are floats) or an (m, n) array of rows (r and t
    are arrays); each row gets the bits of its one-point call.
    """
    x = np.asarray(x, dtype=float)
    r = np.sqrt(_sqnorm(x))
    if not r.all():
        raise ValueError("t undefined at the origin")
    p = np.minimum(np.maximum(_poly(m, x / r[..., None]), -1.0), 1.0)
    # math.acos: numpy's arccos differs from it in the last bit on some points
    t = np.array([math.acos(v) for v in np.atleast_1d(p).tolist()]) / m.d
    return RT(float(r), float(t[0])) if x.ndim == 1 else RT(r, t)


class NormalPlane(NamedTuple):
    v1: np.ndarray  # the focal point gamma(0) of the normal geodesic
    v2: np.ndarray  # gamma(pi/2); the plane is span(v1, v2)
    w: np.ndarray   # unit direction of increasing t at x


def unit_w(m: FoliationModel, x) -> np.ndarray:
    """Unit sphere-tangent vector in the direction of increasing t.

    The spherical gradient of t at u is -grad_S p / (d sin(d t)), which is
    exactly unit because t is an arc-length (isoparametric) parameter.
    """
    x = np.asarray(x, dtype=float)
    r, t = t_coord(m, x)
    s = math.sin(m.d * t)
    if s < 1e-12:
        raise FocalProximityError("t direction degenerates on the focal set")
    u = x / r
    grad = _grad_poly(m, u)
    grad_sphere = grad - (m.d * _poly(m, u)) * u
    return -grad_sphere / (m.d * s)


def normal_plane_basis(m: FoliationModel, x,
                       delta: float = DEFAULT_FOCAL_GUARD) -> NormalPlane:
    """Orthonormal (v1, v2) spanning the normal plane through x, plus w.

    The normal geodesic through u = x/|x| is gamma(s) = cos(s) v1 + sin(s) v2
    with gamma(t) = u; v1 sits on the focal set M_0.
    """
    x = np.asarray(x, dtype=float)
    r, t = t_coord(m, x)
    if not (delta < t < math.pi / m.d - delta):
        raise FocalProximityError(
            f"t={t:.4f} is within {delta} of a focal value (0 or {math.pi / m.d:.4f})")
    u = x / r
    w = unit_w(m, x)
    v1 = math.cos(t) * u - math.sin(t) * w
    v2 = math.sin(t) * u + math.cos(t) * w
    return NormalPlane(v1=v1, v2=v2, w=w)


def normal_geodesic(m: FoliationModel, x, delta: float = DEFAULT_FOCAL_GUARD):
    """Arc-length parametrization gamma(s) of the normal geodesic through x,
    with t(gamma(s)) following the dihedral fold of s and gamma(t(x)) = x/|x|."""
    basis = normal_plane_basis(m, x, delta)

    def gamma(s):
        return math.cos(s) * basis.v1 + math.sin(s) * basis.v2

    return gamma


def multiplicities(m: FoliationModel) -> tuple[tuple[int, int], ...]:
    """Pairs (k, m_k) with m_k > 0: multiplicity of eigenvalue cot(t + k pi/d)."""
    if m.d == 1:
        return ((0, m.n - 2),)
    if m.d == 2:
        pairs = [(0, m.n - m.k - 1), (1, m.k - 1)]
        return tuple((k, mk) for k, mk in pairs if mk > 0)
    return ((0, 1), (1, 1), (2, 1))


def focal_dimensions(m: FoliationModel) -> tuple[int, int]:
    """(dim M_0, dim M_{pi/d})."""
    if m.d == 1:
        return (0, 0)
    if m.d == 2:
        return (m.k - 1, m.n - m.k - 1)
    return (2, 2)


class ShapeEigen(NamedTuple):
    k: int                 # eigenvalue index: kappa ~ cot(t + k pi/d)
    kappa: float           # measured eigenvalue
    multiplicity: int
    basis: np.ndarray      # orthonormal eigenvectors, shape (mult, n)


def _sphere_tangent_basis(u: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the tangent space u^perp."""
    n = len(u)
    basis = []
    for i in range(n):
        v = np.zeros(n)
        v[i] = 1.0
        v = v - np.dot(v, u) * u
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == n - 1:
            break
    return np.array(basis)


def shape_spectrum(m: FoliationModel, x, delta: float = DEFAULT_FOCAL_GUARD,
                   step: float = 1e-4, cluster_tol: float = 1e-3):
    """Shape-operator spectrum of the leaf through x (unit), by central FD.

    The operator is the spherical Hessian of the leaf parameter t restricted
    to the leaf tangent space (t is the arc-length isoparametric function,
    so its Hessian in leaf directions is the second fundamental form w.r.t.
    the unit normal w).  Eigenvalues are clustered against cot(t + k pi/d).
    """
    x = np.asarray(x, dtype=float)
    u = x / np.linalg.norm(x)
    r, t = t_coord(m, u)
    if not (delta < t < math.pi / m.d - delta):
        raise FocalProximityError(f"t={t:.4f} inside the focal guard band")
    w = unit_w(m, u)

    # leaf tangent directions: orthogonal to both u and w
    tang = _sphere_tangent_basis(u)
    leaf = []
    for v in tang:
        v = v - np.dot(v, w) * w
        for b in leaf:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            leaf.append(v / norm)
    leaf = np.array(leaf)
    if len(leaf) != m.n - 2:
        raise RuntimeError("failed to build a leaf tangent basis")

    # second differences of t along great circles through u (they stay on
    # the sphere), in the leaf directions and their normalised sums and
    # differences, from one t_coord call
    nl = len(leaf)
    i, j = np.triu_indices(nl, 1)
    dirs = np.concatenate([leaf, (leaf[i] + leaf[j]) / math.sqrt(2.0),
                           (leaf[i] - leaf[j]) / math.sqrt(2.0)])
    ends = t_coord(m, np.concatenate([math.cos(h) * u + math.sin(h) * dirs
                                      for h in (step, -step)])).t
    q = (ends[:len(dirs)] - 2.0 * t + ends[len(dirs):]) / step ** 2
    hess = np.empty((nl, nl))
    hess[np.diag_indices(nl)] = q[:nl]
    hess[i, j] = hess[j, i] = 0.5 * (q[nl:nl + len(i)] - q[nl + len(i):])

    evals, evecs = np.linalg.eigh(hess)
    targets = {k: 1.0 / math.tan(t + k * math.pi / m.d) for k, _ in multiplicities(m)}
    buckets: dict[int, list[int]] = {k: [] for k in targets}
    for idx, lam in enumerate(evals):
        k_best = min(targets, key=lambda k: abs(lam - targets[k]))
        if abs(lam - targets[k_best]) > cluster_tol:
            raise RuntimeError(
                f"eigenvalue {lam:.6f} does not cluster near any cot(t + k pi/d) "
                f"(closest target {targets[k_best]:.6f})")
        buckets[k_best].append(idx)

    expected = dict(multiplicities(m))
    out = []
    for k in sorted(buckets):
        idxs = buckets[k]
        if len(idxs) != expected[k]:
            raise RuntimeError(
                f"eigenvalue cluster k={k} has multiplicity {len(idxs)}, "
                f"expected {expected[k]}")
        vecs = np.array([evecs[:, i] for i in idxs]) @ leaf
        out.append(ShapeEigen(k=k, kappa=float(np.mean([evals[i] for i in idxs])),
                              multiplicity=len(idxs), basis=vecs))
    return out


def random_leaf_points(m: FoliationModel, t: float, count: int,
                       seed: int = 0, delta: float = DEFAULT_FOCAL_GUARD):
    """Deterministic sample of `count` unit points on the leaf M_t.

    Draws random normal planes (via random sphere points with leaf
    parameter more than delta from both focal values) and walks their normal
    geodesics to parameter t.  Raises FocalProximityError when delta leaves
    no such parameter (delta >= pi/(2d)) or when LEAF_DRAWS_PER_POINT * count
    draws do not yield count points.
    """
    if not (0.0 < t < math.pi / m.d):
        raise ValueError("t must be an interior leaf parameter")
    if delta >= math.pi / (2 * m.d):
        raise FocalProximityError(
            f"delta={delta} leaves no leaf parameter away from both focal "
            f"values: it must be below pi/(2d) = {math.pi / (2 * m.d):.4f}")
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(LEAF_DRAWS_PER_POINT * count):
        if len(pts) == count:
            break
        y = rng.standard_normal(m.n)
        y /= np.linalg.norm(y)
        ty = t_coord(m, y).t
        if not (delta < ty < math.pi / m.d - delta):
            continue
        basis = normal_plane_basis(m, y, delta)
        pts.append(math.cos(t) * basis.v1 + math.sin(t) * basis.v2)
    if len(pts) < count:
        raise FocalProximityError(
            f"found {len(pts)} of {count} leaf points in "
            f"{LEAF_DRAWS_PER_POINT * count} draws: delta={delta} leaves too "
            f"little room between the focal values")
    return np.array(pts)
