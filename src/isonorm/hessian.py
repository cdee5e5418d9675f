"""Norms on R^n induced by an isoparametric foliation: F = r*sqrt(2 f(t)).

The Hessian metric g = Hess(E), E = F^2/2, is evaluated in closed form
wherever g itself is needed.  Every function here that reads a leaf point
takes it from one frame of the foliation per row set (`foliation._frame`:
one polar pass, the focal guard and w), whose p(u) the shape operator and
the q-form pass share; only `energy` (t_coord) and the FD
`fd_fundamental_tensor` (its radius) do not.  That FD tensor differences E
and stays the independent oracle of G.  On the indicatrix S_F the Laplacian
of t and |grad t|^2 are the ambient ones of g, formed at the point from one
q-form pass (`_qform_tensors`), as curvature is; a norm keeps its last
point's (`profile._Keeps`, keyed by the point's bytes).

Curvature note: for a Hessian metric the Riemann tensor depends only on g
and T = dg, the third derivatives of the potential (Shima, The Geometry of
Hessian Structures, 2007):

    R^l_{kij} = (1/4) g^{la} (T_{jab} g^{bm} T_{mik} - T_{iab} g^{bm} T_{mjk}),

with g and T exact, from one pass of E = s phi(q) at the point's unit row
(`_qform_tensors`), and g^{-1} T_i formed first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fd import _arrays, hessian_fd
from .foliation import (FoliationModel, _check_shape, _fixed_derivative, _frame,
                        _grad_poly, _hess_poly, _radius, _shape_operator, _sqnorm,
                        multiplicities, t_coord)
from .profile import DEFAULT_FOCAL_GUARD, Profile, _Keeps, gap_from_jet, require_minkowski

TENSOR_STEP_SCALE = 1e-4
# riemann_fd's floor over its rounding bound, measured: flat profiles over
# (delta, pi/d - delta) read up to 1.4 bounds, the exact dual of a base
# within 0.999 of its validity bound (a jet above rounding) up to 750
RIEMANN_FLOOR_SCALE = 1024.0


@dataclass(frozen=True)
class InducedNorm(_Keeps):
    """F = r sqrt(2 f(t)) on a foliation.  Only a plain `Profile` is checked,
    by `require_minkowski`: one of at most 3 terms by its exact report on
    floats, ~25 us, a long one by its sampled gate, ~0.1 ms at 96 terms."""
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
    if x.ndim == 1:  # t_coord's point path and the float jet
        r2 = _sqnorm(x)  # np.vdot: an overflow reads inf, unwarned
        return 0.0 if r2 == 0.0 else float(
            r2 * nm.profile.evaluate(t_coord(nm.foliation, x).t, 0))
    with np.errstate(over="ignore"):  # an overflow gets t_coord's error
        r2 = _sqnorm(x)
    live = r2 != 0.0
    if live.all():  # no origin row: no mask and no copies
        return r2 * nm.profile.evaluate(t_coord(nm.foliation, x).t, 0)
    E = np.zeros(len(x))
    if live.any():
        E[live] = r2[live] * nm.profile.evaluate(t_coord(nm.foliation, x[live]).t, 0)
    return E


class TensorResult(NamedTuple):
    matrix: np.ndarray


def fd_fundamental_tensor(nm: InducedNorm, x) -> TensorResult:
    """Hessian of E at x by central differences, step = TENSOR_STEP_SCALE * |x|.

    x is one point, or a (k, n) array of points whose k stencils take one
    energy call.  Works on focal cones too: the stencil only needs E values,
    and E is smooth across the cones for admissible profiles.
    """
    x = np.asarray(x, dtype=float)
    r = _radius(nm.foliation, x)  # t_coord's errors, before the stencil can warn
    return TensorResult(hessian_fd(lambda p: energy(nm, p), x, TENSOR_STEP_SCALE * r))


def closed_fundamental_tensor(nm: InducedNorm, x) -> np.ndarray:
    """Hessian of E at x in closed form, from jet(t, 2) alone:
    G = 2f I + f' (u w^T + w u^T + S) + f'' w w^T, with u = x/|x|, w = unit_w
    and S the leaf's shape operator.  x is one point or a (k, n) array of
    rows, each with the bits of its one-row call; one frame (_frame) gives
    u, t, w and the p that S takes, so p is evaluated once per row set.
    FocalProximityError on a focal cone, where w degenerates."""
    x, m = np.asarray(x, dtype=float), nm.foliation
    _, u, p, t, w = _frame(m, np.atleast_2d(x))
    f0, f1, f2 = (f[:, None, None] for f in nm.profile.jet(t, 2))
    uw = u[:, :, None] * w[:, None, :]
    G = (2.0 * f0 * _arrays(m.n)["eye"] + f2 * (w[:, :, None] * w[:, None, :])
         + f1 * (uw + np.swapaxes(uw, 1, 2) + _shape_operator(m, u, t, w, p)))
    return G if x.ndim == 2 else G[0]


def _pairs(m: FoliationModel, spectrum) -> tuple:
    """A spectrum's (k, m_k); ValueError unless they are multiplicities(m)."""
    if (pairs := tuple((e.k, e.multiplicity) for e in spectrum)) != multiplicities(m):
        raise ValueError(f"spectrum pairs {pairs} are not {m.describe()}'s {multiplicities(m)}")
    return pairs


def frame_basis(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """Columns: radial u, t-direction w, then shape eigenvectors."""
    _, u, _, _, w = _frame(nm.foliation, x, what="frame_basis")
    _pairs(nm.foliation, spectrum)
    return np.array([u, w, *(vec for entry in spectrum for vec in entry.basis)]).T


def closed_frame_matrix(nm: InducedNorm, x, spectrum) -> np.ndarray:
    """The closed Hessian metric in the frame_basis (unit vectors), the one
    copy of the frame formulas: 2f on u, f'' + 2f on w, f' between them and
    2f + kappa f' on each shape eigenspace, kappa = cot(t + k pi/d) in closed
    form (the spectrum gives k and m_k); FocalProximityError on a focal cone."""
    m = nm.foliation
    t = _frame(m, x, what="closed_frame_matrix")[3]
    f0, f1, f2 = nm.profile.jet(t, 2)
    M = np.diag([2.0 * f0, f2 + 2.0 * f0, *(2.0 * f0 + f1 / math.tan(t + k * math.pi / m.d)
                                            for k, mk in _pairs(m, spectrum) for _ in range(mk))])
    M[0, 1] = M[1, 0] = f1
    return M


class CurvatureResult(NamedTuple):
    max_abs_component: float
    noise_floor: float
    flat: bool


def riemann_fd(nm: InducedNorm, x,
               delta: float = DEFAULT_FOCAL_GUARD) -> CurvatureResult:
    """Max |R^l_kij| of the Hessian metric at x/|x|, its rounding floor, and
    the verdict: flat iff max |R| <= floor.

    G and T = dG are exact (_qform_tensors, from the point's frame after its
    focal guard of delta), so a flat norm (a quadratic E, by the paper's
    Laugwitz theorem) reads R at rounding, ~1e-32, below the floor
    RIEMANN_FLOOR_SCALE |G^-1|^2 dT (dT + 2|T|) (max-abs norms), and no other
    bound decides.  x is one point (floats and a bool) or a (k, n) array of
    rows (three (k,) arrays), each with its one-point call's bits.  The
    former FD name stays, as perfbench's field-sweep calls H.riemann_fd.
    """
    x = np.asarray(x, dtype=float)
    _, u, p, t, _ = _frame(nm.foliation, x, delta)  # u = x / |x|, p(u) and t
    G, T, dT = _qform_tensors(nm, u, p, t)[:3]
    Gi = np.linalg.inv(G)
    C = Gi[..., None, :, :] @ T  # C[..., i, :, :] = g^-1 T_i
    # A[..., i, j, :, :] = g^-1 T_i g^-1 T_j, R = (A^T - A)/4
    A = C[..., :, None, :, :] @ C[..., None, :, :, :]
    max_abs = 0.25 * np.abs(np.swapaxes(A, -3, -4) - A).max(axis=(-4, -3, -2, -1))
    gi = np.abs(Gi).max(axis=(-2, -1))
    floor = (RIEMANN_FLOOR_SCALE * gi * gi * dT
             * (dT + 2.0 * np.abs(T).max(axis=(-3, -2, -1))))
    flat = max_abs <= floor
    if x.ndim == 1:
        return CurvatureResult(float(max_abs), float(floor), bool(flat))
    return CurvatureResult(max_abs, floor, flat)


def _qform_tensors(nm: InducedNorm, u, p, t):
    """_qform_pass at the unit point or (k, n) rows u; a norm keeps a point's."""
    return nm._kept("_qform", u, lambda: _qform_pass(nm, u, p, t))


def _qform_pass(nm: InducedNorm, u, p, t):
    """(G, T, dT, dt, Hess t): G = Hess E, T = dG, T's rounding scale and
    the derivatives of t at the unit point or (k, n) rows u, with p = p(u)
    and t.  E = s phi(q), s = |x|^2, q = p(x) s^(-d/2); at s = 1, with
    q1 = grad q, G = 2 phi I + 2 phi' (u q1^T + q1 u^T) + phi'' q1 q1^T +
    phi' Hess q and T = sym(M (x) u + N (x) q1) + phi' D^3 p (sym: over the
    3 places of the vector's index), G, M, N and Hess t in the basis I,
    Hess p, u q1^T + q1 u^T, q1 q1^T, u u^T.  phi^(m) is the t-jet's (any
    profile kind) by the chain rule through q = cos dt, a division by
    (d sin dt)^m: dT = eps J / (d sin dt)^3, J = sum |f^(m)|.  t = arccos(q)/d
    gives dt = -q1 / (d sin dt) and Hess t = -Hess q / (d sin dt) -
    d^2 p q1 q1^T / (d sin dt)^3, with Hess q = Hess p - d (u q1^T + q1 u^T)
    - d p I + d (2 - d) p u u^T."""
    m = nm.foliation
    d, n = m.d, m.n
    f0, f1, f2, f3 = nm.profile.jet(t, 3)
    ds = d * np.sin(d * t)  # -dq/dt
    phi1 = -f1 / ds
    phi2 = (f2 + d * p * d * phi1) / (ds * ds)
    phi3 = (d * d * ds * (3.0 * p * phi2 + phi1) - f3) / (ds * ds * ds)
    dp, e, z = d * p, 2 - d, 0.0 * phi1
    V = np.empty(u.shape[:-1] + (2, n))  # the rows u and q1
    V[..., 0, :] = u
    q1 = np.subtract(_grad_poly(m, u).T, dp[..., None] * u, out=V[..., 1, :])
    basis = np.empty(u.shape + (n, 5))
    basis[..., 0], basis[..., 1] = _arrays(n)["eye"], _hess_poly(m, u)
    uq = u[..., :, None] * q1[..., None, :]
    np.add(uq, np.swapaxes(uq, -1, -2), out=basis[..., 2])
    np.multiply(q1[..., :, None], q1[..., None, :], out=basis[..., 3])
    np.multiply(u[..., :, None], u[..., None, :], out=basis[..., 4])
    coef = np.array([  # rows G, M, N, Hess t
        [2.0 * f0 - dp * phi1, phi1, e * phi1, phi2, e * dp * phi1],
        [z, e * phi1, -2.0 * d * phi1, 2.0 * phi2, (d - 1) * (d - 2) * dp * phi1 * (2.0 / 3.0)],
        [e * phi1 - dp * phi2, phi2, -d * phi2, phi3 / 3.0, e * dp * phi2 + d * (d + 2) * phi1],
        [dp / ds, -1.0 / ds, d / ds, -d * dp / (ds * ds * ds), -e * dp / ds]])
    GMN = basis.reshape(u.shape[:-1] + (n * n, 5)) @ coef.T
    X = (GMN[..., 1:3] @ V).reshape(u.shape + (n, n))  # M (x) u + N (x) q1
    if d == 3:  # D^3 p is zero for d <= 2
        X += np.multiply.outer(phi1 / 3.0, _fixed_derivative(m))
    dT = np.finfo(float).eps * (abs(f0) + abs(f1) + abs(f2) + abs(f3)) / (ds * ds * ds)
    return (GMN[..., 0].reshape(u.shape + (n,)),
            X + np.swapaxes(X, -1, -2) + np.swapaxes(X, -1, -3), dT,
            -q1 / ds[..., None], GMN[..., 3].reshape(u.shape + (n,)))


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


# --- The operators on the indicatrix at a point ---------------------------
#
# E is 2-homogeneous, so g_x(x, .) = dE_x and T(x, ., .) = 0 (Shima, 2007):
# the g-normal of S_F is x/F, and grad_x x = x since Gamma(x, x) = 0.  t is
# constant along x/F, so on S_F its Laplacian and squared gradient norm are
# the ambient ones of g in the coordinates of R^n.  Gamma_ij^k =
# (1/2) G^kl T_lij for a Hessian metric, so the Laplacian is
# G^ij d_ij t - (1/2) G^ij d_i t G^kl T_klj, from the q-form pass alone.


def fd_indicatrix_operators(nm: InducedNorm, u0):
    """Squared norm of grad t and Laplacian of t on the indicatrix (S_F, g)
    at direction u0, or at each row of a (k, n) array (then two (k,) arrays).

    v = G^-1 dt (a solve) gives |grad t|^2 = dt . v and Delta t =
    tr G^-1 (Hess t - (1/2) T v), with G, T, dt and Hess t exact at the unit
    row u (_qform_tensors) from one frame (_frame).  G and t are 0-homogeneous,
    so at x = u / sqrt(2 f(t)) on S_F both are those at u times 2f.  Each row
    has the bits of its one-point call; a (0, n) array gives two empty
    arrays.  The former FD name stays, as perfbench's field-sweep calls
    H.fd_indicatrix_laplacian_t and isoparametric-check this function.
    """
    u0 = np.asarray(u0, dtype=float)
    _, u, p, t, _ = _frame(nm.foliation, u0)  # a point's t on floats
    G, T, _, dt, Ht = _qform_tensors(nm, u, p, t)
    v = np.linalg.solve(G, dt[..., None])
    A = Ht - 0.5 * (T @ v[..., None, :, :])[..., 0]
    two_f = 2.0 * nm.profile.evaluate(t, 0)
    grad = two_f * (dt[..., None, :] @ v)[..., 0, 0]
    lap = two_f * np.trace(np.linalg.solve(G, A), axis1=-2, axis2=-1)
    return (float(grad), float(lap)) if u0.ndim == 1 else (grad, lap)


def fd_indicatrix_laplacian_t(nm: InducedNorm, u0) -> float:
    """Laplacian of t on the indicatrix at direction u0 (see
    fd_indicatrix_operators)."""
    return fd_indicatrix_operators(nm, u0)[1]
