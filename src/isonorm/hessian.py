"""Norms on R^n induced by an isoparametric foliation: F = r*sqrt(2 f(t)).

The Hessian metric g = Hess(E), E = F^2/2, is evaluated in closed form
(`closed_fundamental_tensor`) wherever g itself is needed; the FD functions
difference E instead and stay the independent oracle of the closed forms.
`energy` maps an (m, n) array of points to their m values, so each FD
stencil evaluates its whole lattice in one call (see fd.py).

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
from .foliation import (DEFAULT_FOCAL_GUARD, FocalProximityError, FoliationModel,
                        _shape_operator, _sphere_tangent_basis, _sqnorm,
                        _unit_w, multiplicities, t_coord, unit_w)
from .profile import Profile, gap_from_jet, require_minkowski

TENSOR_STEP_SCALE = 1e-4
CURVATURE_TENSOR_STEP = 2e-4
FLATNESS_THRESHOLD = 1e-3


@dataclass(frozen=True)
class InducedNorm:
    foliation: FoliationModel
    profile: Profile

    def __init__(self, foliation: FoliationModel, profile, validate: bool = True):
        if profile.d != foliation.d:
            raise ValueError(
                f"profile symmetry order d={profile.d} does not match the "
                f"foliation (d={foliation.d})")
        if validate and isinstance(profile, Profile):
            require_minkowski(profile, "profile is not a Minkowski norm profile")
        object.__setattr__(self, "foliation", foliation)
        object.__setattr__(self, "profile", profile)


def value(nm: InducedNorm, x) -> float:
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 0.0
    t = t_coord(nm.foliation, x).t
    return r * math.sqrt(2.0 * nm.profile.evaluate(t, 0))


def energy(nm: InducedNorm, x):
    """E(x) = F(x)^2 / 2 = r^2 f(t) at a point, or at each row of an (m, n)
    array.  f is evaluated one angle per row, so every row gets the bits of
    its one-point call."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    r2 = _sqnorm(rows)
    E = np.zeros(len(rows))
    live = r2 != 0.0
    if live.any():
        t = t_coord(nm.foliation, rows[live]).t
        E[live] = r2[live] * nm.profile.evaluate(t[:, None], 0)[:, 0]
    return float(E[0]) if x.ndim == 1 else E


def grad_energy(nm: InducedNorm, x) -> np.ndarray:
    """Closed-form gradient of E: 2f * x + r f' * w."""
    x = np.asarray(x, dtype=float)
    r, t = t_coord(nm.foliation, x)
    f0, f1 = nm.profile.jet(t, 1)
    if abs(f1) < 1e-15:
        return 2.0 * f0 * x
    w = unit_w(nm.foliation, x)
    return 2.0 * f0 * x + r * f1 * w


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
    r = np.sqrt(_sqnorm(x))
    if not r.all():
        raise ValueError("fundamental tensor undefined at the origin")
    G = hessian_fd(lambda p: energy(nm, p), x, step=TENSOR_STEP_SCALE * r)
    G = 0.5 * (G + np.swapaxes(G, -1, -2))
    evals = np.linalg.eigvalsh(G)
    pd = evals[..., 0] > 0.0
    return TensorResult(matrix=G, eigenvalues=evals,
                        positive_definite=bool(pd) if x.ndim == 1 else pd)


def closed_fundamental_tensor(nm: InducedNorm, x) -> np.ndarray:
    """Hessian of E at x in closed form, from jet(t, 2) alone:
    G = 2f I + f' (u w^T + w u^T + S) + f'' w w^T, with u = x/|x|, w = unit_w
    and S the leaf's shape operator.  x is one point or a (k, n) array of
    rows, each with the bits of its one-row call; FocalProximityError on a
    focal cone, where w degenerates."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    r, t = t_coord(nm.foliation, rows)
    u = rows / r[:, None]
    w = _unit_w(nm.foliation, u, t)
    f0, f1, f2 = (f[:, :, None] for f in nm.profile.jet(t[:, None], 2))
    uw = u[:, :, None] * w[:, None, :]
    G = (2.0 * f0 * np.eye(nm.foliation.n) + f2 * (w[:, :, None] * w[:, None, :])
         + f1 * (uw + np.swapaxes(uw, 1, 2) + _shape_operator(nm.foliation, u, t, w)))
    return G if x.ndim == 2 else G[0]


class FrameComponents(NamedTuple):
    g_rr: float
    g_rt: float
    g_tt: float
    tangential_factors: tuple[float, ...]


def frame_components(nm: InducedNorm, x, spectrum) -> FrameComponents:
    """Closed-form metric components in the adapted frame at x.

    g(d_r, d_r) = 2f,  g(d_r, d_t) = r f',  g(d_t, d_t) = r^2 (f'' + 2f);
    for each shape eigenvalue kappa, the leaf direction carries the ratio
    g(v, v) / g_euclid(v, v) = 2f + kappa f'.  Factors are aligned with the
    given spectrum entries.
    """
    x = np.asarray(x, dtype=float)
    r, t = t_coord(nm.foliation, x)
    f0, f1, f2 = nm.profile.jet(t, 2)
    factors = tuple(2.0 * f0 + entry.kappa * f1 for entry in spectrum)
    return FrameComponents(g_rr=2.0 * f0, g_rt=r * f1,
                           g_tt=r * r * (f2 + 2.0 * f0),
                           tangential_factors=factors)


def frame_basis(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """Columns: radial u, t-direction w, then shape eigenvectors."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    u = x / r
    w = unit_w(nm.foliation, x)
    cols = [u, w]
    for entry in spectrum:
        for vec in entry.basis:
            cols.append(vec)
    return np.array(cols).T


def closed_frame_matrix(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """Expected projected metric matrix in the frame_basis (unit vectors)."""
    comps = frame_components(nm, x, spectrum)
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    n = nm.foliation.n
    M = np.zeros((n, n))
    M[0, 0] = comps.g_rr
    M[0, 1] = M[1, 0] = comps.g_rt / r
    M[1, 1] = comps.g_tt / (r * r)
    M[2:, 2:] = np.diag(np.repeat(comps.tangential_factors,
                                  [entry.multiplicity for entry in spectrum]))
    return M


class CurvatureResult(NamedTuple):
    max_abs_component: float
    noise_floor: float
    flat: bool


def riemann_fd(nm: InducedNorm, x, delta: float = DEFAULT_FOCAL_GUARD,
               flat_threshold: float = FLATNESS_THRESHOLD) -> CurvatureResult:
    """Max |R^l_kij| of the Hessian metric at x/|x|: G in closed form, and
    T_i = d_i G as a central difference of it over x +- h e_i, with
    h = TENSOR_STEP_SCALE, from one closed_fundamental_tensor call."""
    x = np.asarray(x, dtype=float)
    x = x / np.linalg.norm(x)
    r, t = t_coord(nm.foliation, x)
    if not (delta < t < math.pi / nm.foliation.d - delta):
        raise FocalProximityError(f"t={t:.4f} inside the focal guard band")

    n, h = len(x), TENSOR_STEP_SCALE
    E = h * np.eye(n)
    Gs = closed_fundamental_tensor(nm, np.concatenate([x[None], x + E, x - E]))
    G, T = Gs[0], (Gs[1:n + 1] - Gs[n + 1:]) / (2.0 * h)
    Gi = np.linalg.inv(G)
    C = Gi @ T
    A = C[:, None] @ C[None]  # A[i, j] = g^-1 T_i g^-1 T_j, R = (A^T - A)/4
    max_abs = 0.25 * float(np.max(np.abs(np.swapaxes(A, 0, 1) - A)))

    # roundoff floor: a difference of G sees ~eps*|G|/h of noise, and R is
    # quadratic in T, so the floor is linear in |T| plus a square term
    eps_t = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(G)))) / h
    t_max = float(np.max(np.abs(T)))
    gi_norm = float(np.linalg.norm(Gi, 2))
    floor = 0.5 * gi_norm ** 2 * (2.0 * t_max * eps_t + eps_t ** 2)
    return CurvatureResult(max_abs_component=max_abs, noise_floor=floor,
                           flat=bool(max_abs < flat_threshold))


def indicatrix_grad_t_norm(nm: InducedNorm, t: float) -> float:
    """Closed-form squared g-norm of grad t on the indicatrix:
    4 f^2 / gap, gap = 4 f^2 - (f')^2 + 2 f f''."""
    f0, f1, f2 = nm.profile.jet(t, 2)
    return 4.0 * f0 * f0 / gap_from_jet(f0, f1, f2)


def indicatrix_laplacian_t(nm: InducedNorm, t: float, spectrum=None) -> float:
    """Closed-form Laplacian of t on the indicatrix (S_F, g).

    Assembled in divergence form from the frame volume element: with
    S(t) = sqrt(gap) * prod_k [(2f + kappa_k f')^(1/2) sin(t + k pi/d)]^(m_k),

        Delta t |_{S_F} = 2f * [ -(n-2) f'/gap + d/dt(2f/gap)
                                 + (2f/gap) * d/dt log S ].

    Depends on t only; the optional spectrum argument fixes the (k, m_k)
    bookkeeping from a measured spectrum, while the kappa values themselves
    always use the closed form cot(t + k pi/d).
    """
    m = nm.foliation
    f0, f1, f2, f3 = nm.profile.jet(t, 3)
    gap = gap_from_jet(f0, f1, f2)
    gap_p = 2.0 * f0 * (f3 + 4.0 * f1)
    if spectrum is not None:
        mults = tuple((entry.k, entry.multiplicity) for entry in spectrum)
    else:
        mults = multiplicities(m)

    dlogS = 0.5 * gap_p / gap
    for k, mk in mults:
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
# The indicatrix is parametrized over the unit sphere through a normal-
# coordinate chart z -> u(z) around a base direction; the only FD ingredient
# is the ambient fundamental tensor, everything else (chart Jacobian, dt) is
# closed-form, which keeps the noise of the outer divergence difference low.


def _chart_point(u0: np.ndarray, V: np.ndarray, z: np.ndarray):
    """u(z) = cos|z| u0 + sin|z| V^T z / |z| and its partials du/dz_a."""
    zeta = float(np.linalg.norm(z))
    if zeta < 1e-14:
        return u0.copy(), V.T.copy()
    vz = V.T @ z
    u = math.cos(zeta) * u0 + (math.sin(zeta) / zeta) * vz
    coeff = (math.cos(zeta) / zeta - math.sin(zeta) / zeta ** 2)
    za = z / zeta
    du = (np.outer(u0, -math.sin(zeta) * za) + np.outer(vz, coeff * za)
          + (math.sin(zeta) / zeta) * V.T)
    return u, du


def _indicatrix_chart_data(nm: InducedNorm, u0: np.ndarray, V: np.ndarray,
                           Z: np.ndarray, tensor_step: float):
    """(metric, dt-components, sqrt(det)) of the induced chart metric at the
    k rows of the chart offsets Z, stacked; one t_coord, jet, unit_w and
    hessian_fd call serve all rows, and each keeps its one-point bits."""
    u, du = (np.array(a) for a in zip(*(_chart_point(u0, V, z) for z in Z)))
    t = t_coord(nm.foliation, u).t
    f0, f1 = (f[:, 0] for f in nm.profile.jet(t[:, None], 1))
    w = unit_w(nm.foliation, u)
    dt = (np.swapaxes(du, 1, 2) @ w[..., None])[..., 0]  # chart components of grad t
    rho = 1.0 / np.sqrt(2.0 * f0)
    drho = (-f1 * rho / (2.0 * f0))[:, None] * dt
    X = rho[:, None] * u
    J = rho[:, None, None] * du + u[:, :, None] * drho[:, None, :]
    G = hessian_fd(lambda p: energy(nm, p), X, step=tensor_step * rho)
    G = 0.5 * (G + np.swapaxes(G, 1, 2))
    ghat = np.swapaxes(J, 1, 2) @ G @ J
    return ghat, dt, np.sqrt(np.linalg.det(ghat))


def fd_indicatrix_grad_t_norm(nm: InducedNorm, u0,
                              tensor_step: float = CURVATURE_TENSOR_STEP) -> float:
    """FD squared norm of grad t on the indicatrix at direction u0."""
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.linalg.norm(u0)
    V = _sphere_tangent_basis(u0)
    ghat, dt, _ = _indicatrix_chart_data(nm, u0, V, np.zeros((1, len(V))),
                                         tensor_step)
    return float(dt[0] @ np.linalg.solve(ghat[0], dt[0]))


def fd_indicatrix_laplacian_t(nm: InducedNorm, u0,
                              outer_step: float = 1e-2,
                              tensor_step: float = 3e-4) -> float:
    """FD Laplacian of t on the indicatrix at direction u0 (divergence form).

    The divergence of the flux sqrt(det g) g^{ab} dt/dz^b is differenced with
    a fourth-order stencil: the chart (and hence the truncation error of a
    low-order difference) depends on the base point, which would otherwise
    show up as spurious position dependence of an isoparametric invariant.
    The base point and the 4(n-1) stencil points are evaluated in one pass.
    """
    u0 = np.asarray(u0, dtype=float)
    u0 = u0 / np.linalg.norm(u0)
    V = _sphere_tangent_basis(u0)
    na = len(V)
    axis = np.repeat(np.arange(na), 4)  # axis a outer, the stencil inner
    coef = np.tile([-1.0, 8.0, -8.0, 1.0], na)
    Z = np.zeros((1 + 4 * na, na))
    Z[1 + np.arange(4 * na), axis] = np.tile([2.0, 1.0, -1.0, -2.0], na) * outer_step
    ghat, dt, sdet = _indicatrix_chart_data(nm, u0, V, Z, tensor_step)

    total = 0.0
    for i, a in enumerate(axis, 1):
        flux = sdet[i] * np.linalg.solve(ghat[i], dt[i])
        total += coef[i - 1] * flux[a] / (12.0 * outer_step)
    return float(total / sdet[0])


class FlatCandidateReport(NamedTuple):
    candidate: bool
    fprime_at_pi3: float


def cartan_flat_candidate(profile, tol: float = 1e-8) -> FlatCandidateReport:
    """Gate for profiles that could make the Cartan-foliation norm flat.

    A flat Hessian metric forces the restriction of the profile to every
    normal plane to look Euclidean there; the first nontrivial obstruction
    is f'(pi/3) = 0 (the second focal angle of the d=3 geodesic).  Profiles
    failing it are rejected as flat candidates outright.
    """
    fp = float(profile.evaluate(math.pi / 3.0, 1))
    return FlatCandidateReport(candidate=bool(abs(fp) <= tol), fprime_at_pi3=fp)
