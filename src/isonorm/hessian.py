"""Norms on R^n induced by an isoparametric foliation: F = r*sqrt(2 f(t)).

The Hessian metric g = Hess(E), E = F^2/2, is evaluated in closed form
(`closed_fundamental_tensor`) wherever g itself is needed, the indicatrix
operators included; each row set takes one frame of the foliation
(`foliation._frame`: one polar pass and w), whose p(u) the shape operator
shares.  `fd_fundamental_tensor` differences E instead and stays the
independent oracle of G; `energy` maps an (m, n) array of points to their m
values, so its stencil evaluates the whole lattice in one call (see fd.py).
On the indicatrix S_F the Laplacian of t is the ambient one of g, so the
only FD left there is the outer divergence difference of that Laplacian.

Curvature note: for a Hessian metric the Riemann tensor depends only on g
and T = dg, the third derivatives of the potential (Shima, The Geometry of
Hessian Structures, 2007):

    R^l_{kij} = (1/4) g^{la} (T_{jab} g^{bm} T_{mik} - T_{iab} g^{bm} T_{mjk}),

with T one central difference of the exact g, and g^{-1} T_i formed first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fd import hessian_fd
from .foliation import (DEFAULT_FOCAL_GUARD, FoliationModel, _check_shape, _frame,
                        _polar, _radius, _require_interior, _shape_operator,
                        _sqnorm, multiplicities, t_coord)
from .profile import Profile, gap_from_jet, require_minkowski

TENSOR_STEP_SCALE = 1e-4
INDICATRIX_STEP = 1e-4


@dataclass(frozen=True)
class InducedNorm:
    """F = r sqrt(2 f(t)) on a foliation.  Only a plain `Profile` is checked:
    a glued h (new scaled copies of its base and dual) takes ~6 ms to check
    on the 96-term cartan3 base, over twice its glue and lift check (2.5 ms)."""
    foliation: FoliationModel
    profile: Profile

    def __post_init__(self):
        if self.profile.d != self.foliation.d:
            raise ValueError(
                f"profile symmetry order d={self.profile.d} does not match the "
                f"foliation (d={self.foliation.d})")
        if isinstance(self.profile, Profile):
            require_minkowski(self.profile, "profile is not a Minkowski norm profile")


def value(nm: InducedNorm, x):
    """F(x) = sqrt(2 E(x)) at a point, or at each row of an (m, n) array."""
    return np.sqrt(2.0 * energy(nm, x))


def energy(nm: InducedNorm, x):
    """E(x) = F(x)^2 / 2 = r^2 f(t) at a point, or at each row of an (m, n)
    array; every row gets the bits of its one-point call."""
    x = np.asarray(x, dtype=float)
    _check_shape(nm.foliation, x)  # t_coord's, which origin rows skip
    rows = np.atleast_2d(x)
    with np.errstate(over="ignore"):  # an overflow gets t_coord's error
        r2 = np.atleast_1d(_sqnorm(x))
    E = np.zeros(len(rows))
    live = r2 != 0.0
    if live.any():
        t = t_coord(nm.foliation, rows[live]).t
        E[live] = r2[live] * nm.profile.evaluate(t, 0)
    return float(E[0]) if x.ndim == 1 else E


class TensorResult(NamedTuple):
    matrix: np.ndarray
    eigenvalues: np.ndarray
    positive_definite: bool


def fd_fundamental_tensor(nm: InducedNorm, x) -> TensorResult:
    """Hessian of E at x by central differences, step = TENSOR_STEP_SCALE * |x|.

    x is one point, or a (k, n) array of points whose k stencils take one
    energy call (positive_definite is then an array of k flags).  Works on
    focal cones too: the stencil only needs E values, and E is smooth
    across the cones for admissible profiles.
    """
    x = np.asarray(x, dtype=float)
    r = _radius(nm.foliation, x)  # t_coord's errors, before the stencil can warn
    G = hessian_fd(lambda p: energy(nm, p), x, step=TENSOR_STEP_SCALE * r)
    evals = np.linalg.eigvalsh(G)
    pd = evals[..., 0] > 0.0
    return TensorResult(matrix=G, eigenvalues=evals,
                        positive_definite=bool(pd) if x.ndim == 1 else pd)


def closed_fundamental_tensor(nm: InducedNorm, x) -> np.ndarray:
    """Hessian of E at x in closed form, from jet(t, 2) alone:
    G = 2f I + f' (u w^T + w u^T + S) + f'' w w^T, with u = x/|x|, w = unit_w
    and S the leaf's shape operator.  x is one point or a (k, n) array of
    rows, each with the bits of its one-row call; one frame (_frame) gives
    u, t, w and the p that S takes, so p is evaluated once per row set.
    FocalProximityError on a focal cone, where w degenerates."""
    x = np.asarray(x, dtype=float)
    _, u, p, t, w = _frame(nm.foliation, np.atleast_2d(x))
    f0, f1, f2 = (f[:, None, None] for f in nm.profile.jet(t, 2))
    uw = u[:, :, None] * w[:, None, :]
    G = (2.0 * f0 * np.eye(nm.foliation.n) + f2 * (w[:, :, None] * w[:, None, :])
         + f1 * (uw + np.swapaxes(uw, 1, 2)
                 + _shape_operator(nm.foliation, u, t, w, p)))
    return G if x.ndim == 2 else G[0]


def frame_basis(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """Columns: radial u, t-direction w, then shape eigenvectors."""
    _, u, _, _, w = _frame(nm.foliation, x, what="frame_basis")
    return np.array([u, w, *(vec for entry in spectrum for vec in entry.basis)]).T


def closed_frame_matrix(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """The closed Hessian metric in the frame_basis (unit vectors), the one
    copy of the frame formulas: 2f on u, f'' + 2f on w, f' between them,
    and 2f + kappa f' on each shape eigenspace of the spectrum, in its order.
    On the coordinate fields, g(d_r, d_t) = r f' and g(d_t, d_t) =
    r^2 (f'' + 2f); FocalProximityError on a focal cone, which has no frame."""
    t = _frame(nm.foliation, x, what="closed_frame_matrix")[3]
    f0, f1, f2 = nm.profile.jet(t, 2)
    M = np.diag([2.0 * f0, f2 + 2.0 * f0, *np.repeat(
        [2.0 * f0 + entry.kappa * f1 for entry in spectrum],
        [entry.multiplicity for entry in spectrum])])
    M[0, 1] = M[1, 0] = f1
    return M


class CurvatureResult(NamedTuple):
    max_abs_component: float
    noise_floor: float
    flat: bool


def riemann_fd(nm: InducedNorm, x,
               delta: float = DEFAULT_FOCAL_GUARD) -> CurvatureResult:
    """Max |R^l_kij| of the Hessian metric at x/|x|, its roundoff floor, and
    the verdict: flat iff max |R| <= floor.

    G is the closed form, and T_i = d_i G a central difference of it over
    x +- h e_i, h = TENSOR_STEP_SCALE.  x is one point (floats and a bool) or
    a (k, n) array of rows (three (k,) arrays); the k(2n+1) stencil rows take
    one closed_fundamental_tensor call, and each row has the bits of its
    one-point call.  The floor bounds what rounding alone puts into R, so a
    flat norm (a quadratic E, by the paper's Laugwitz theorem) reads below
    it, and no other bound decides.
    """
    x = np.asarray(x, dtype=float)
    _, u, _, t = _polar(nm.foliation, x)  # u = x / |x| and t, from one pass
    _require_interior(nm.foliation, t, delta)
    u = np.atleast_2d(u)

    k, n, h = len(u), nm.foliation.n, TENSOR_STEP_SCALE
    E = h * np.eye(n)
    stencil = u[:, None] + np.concatenate([np.zeros((1, n)), E, -E])
    Gs = closed_fundamental_tensor(nm, stencil.reshape(-1, n))
    Gs = Gs.reshape(k, 2 * n + 1, n, n)
    G, T = Gs[:, 0], (Gs[:, 1:n + 1] - Gs[:, n + 1:]) / (2.0 * h)
    Gi = np.linalg.inv(G)
    C = Gi[:, None] @ T
    A = C[:, :, None] @ C[:, None]  # A[:, i, j] = g^-1 T_i g^-1 T_j, R = (A^T - A)/4
    max_abs = 0.25 * np.abs(np.swapaxes(A, 1, 2) - A).max(axis=(1, 2, 3, 4))

    # roundoff floor: a difference of G sees ~eps*|G|/h of noise, and R is
    # quadratic in T, so the floor is linear in |T| plus a square term.  It
    # is formed per row in Python floats, whose ** (libm's pow) numpy's
    # square need not match in the last bit; the 2-norm of Gi is its
    # largest singular value
    g_max = np.abs(G).max(axis=(1, 2)).tolist()
    t_max = np.abs(T).max(axis=(1, 2, 3)).tolist()
    gi_norm = np.linalg.svd(Gi, compute_uv=False).max(axis=1).tolist()
    floor = []
    for g, tm, gi in zip(g_max, t_max, gi_norm):
        eps_t = 8.0 * np.finfo(float).eps * max(1.0, g) / h
        floor.append(0.5 * gi ** 2 * (2.0 * tm * eps_t + eps_t ** 2))
    floor = np.array(floor)
    flat = max_abs <= floor
    if x.ndim == 1:
        return CurvatureResult(float(max_abs[0]), float(floor[0]), bool(flat[0]))
    return CurvatureResult(max_abs, floor, flat)


def indicatrix_grad_t_norm(nm: InducedNorm, t: float) -> float:
    """Closed-form squared g-norm of grad t on the indicatrix:
    4 f^2 / gap, gap = 4 f^2 - (f')^2 + 2 f f''."""
    f0, f1, f2 = nm.profile.jet(t, 2)
    return 4.0 * f0 * f0 / gap_from_jet(f0, f1, f2)


def indicatrix_laplacian_t(nm: InducedNorm, t: float) -> float:
    """Closed-form Laplacian of t on the indicatrix (S_F, g).

    Assembled in divergence form from the frame volume element: with
    S(t) = sqrt(gap) * prod_k [(2f + kappa_k f')^(1/2) sin(t + k pi/d)]^(m_k),

        Delta t |_{S_F} = 2f * [ -(n-2) f'/gap + d/dt(2f/gap)
                                 + (2f/gap) * d/dt log S ].

    Depends on t only: kappa_k is the closed form cot(t + k pi/d).
    """
    m = nm.foliation
    f0, f1, f2, f3 = nm.profile.jet(t, 3)
    gap = gap_from_jet(f0, f1, f2)
    gap_p = 2.0 * f0 * (f3 + 4.0 * f1)

    dlogS = 0.5 * gap_p / gap
    for k, mk in multiplicities(m):
        tau = t + k * math.pi / m.d
        kap = math.cos(tau) / math.sin(tau)
        kap_p = -1.0 - kap * kap
        factor = 2.0 * f0 + kap * f1
        factor_p = 2.0 * f1 + kap_p * f1 + kap * f2
        dlogS += mk * (0.5 * factor_p / factor + kap)

    d_2f_over_gap = 2.0 * f1 / gap - 2.0 * f0 * gap_p / (gap * gap)
    n = m.n
    return 2.0 * f0 * (-(n - 2) * f1 / gap + d_2f_over_gap
                       + (2.0 * f0 / gap) * dlogS)


# --- FD counterparts on the indicatrix -------------------------------------
#
# E is 2-homogeneous, so g_x(x, .) = dE_x and T(x, ., .) = 0 (Shima, 2007):
# the g-normal of S_F is x/F, and grad_x x = x since Gamma(x, x) = 0.  t is
# constant along x/F, so on S_F its Laplacian and squared gradient norm are
# the ambient ones of g in the coordinates of R^n, with dt = w/r.  The only
# finite difference is the outer divergence difference of the Laplacian, so
# this stays an independent check of indicatrix_laplacian_t.


def fd_indicatrix_operators(nm: InducedNorm, u0):
    """FD squared norm of grad t and FD Laplacian of t on the indicatrix at
    direction u0, or at each row of a (k, n) array (then two (k,) arrays).

    At the point x = u / sqrt(2 f(t)) of S_F over u0, the grad norm is
    dt . G^-1 dt, and the Laplacian (1/sqrt det G) d_i(sqrt det G G^ij d_j t)
    differences the flux with a fourth-order stencil of step
    INDICATRIX_STEP |x| along each axis.  The base points and their 4n
    stencil points, k(4n+1) rows, take one closed_fundamental_tensor call and
    one polar pass for dt, after one polar pass of the input rows; each row
    has the bits of its one-point call.  A (0, n) array gives two empty
    arrays.
    """
    u0 = np.asarray(u0, dtype=float)
    _, u, _, t = _polar(nm.foliation, np.atleast_2d(u0))
    k, n = u.shape
    rho = 1.0 / np.sqrt(2.0 * nm.profile.evaluate(t, 0))  # |x| on S_F
    h = INDICATRIX_STEP * rho
    # the base, then steps 2, 1, -1, -2 along each axis in turn
    offsets = np.vstack([np.zeros(n),
                         np.kron(np.eye(n), [[2.0], [1.0], [-1.0], [-2.0]])])
    X = ((rho[:, None] * u)[:, None] + h[:, None, None] * offsets).reshape(-1, n)
    r, _, _, _, w = _frame(nm.foliation, X)
    dt = w / r[:, None]
    G = closed_fundamental_tensor(nm, X)
    sol = np.linalg.solve(G, dt[..., None])[..., 0]  # G^ij d_j t
    sdet = np.sqrt(np.linalg.det(G))
    dt, sol, sdet = (a.reshape((k, 1 + 4 * n) + a.shape[1:])
                     for a in (dt, sol, sdet))
    grad = (dt[:, 0, None, :] @ sol[:, 0, :, None])[:, 0, 0]
    # flux component i at the four rows along axis i, (k, 4, n)
    flux = np.diagonal((sdet[..., None] * sol)[:, 1:].reshape(k, n, 4, n),
                       axis1=1, axis2=3)
    div = ((8.0 * (flux[:, 1] - flux[:, 2]) - (flux[:, 0] - flux[:, 3]))
           / (12.0 * h[:, None]))
    lap = div.sum(axis=1) / sdet[:, 0]
    return (float(grad[0]), float(lap[0])) if u0.ndim == 1 else (grad, lap)


def fd_indicatrix_laplacian_t(nm: InducedNorm, u0) -> float:
    """FD Laplacian of t on the indicatrix at direction u0 (see
    fd_indicatrix_operators)."""
    return fd_indicatrix_operators(nm, u0)[1]
