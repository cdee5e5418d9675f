"""Planar Minkowski norms F = r*sqrt(2 f(t)) and their Legendre geometry.

Everything here is closed-form in (f, f', f''): the fundamental tensor in a
rotating frame, the gradient (Legendre) map, the angle it induces on the
indicatrix, and the exact dual profile `DualProfile`, which inverts that
angle; `dual_profile` fits it to a cosine series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .profile import (FIT_MAX_TERMS, Profile, _pow, dihedral_fold,
                      gap_from_jet, is_minkowski, require_minkowski,
                      sampled_profile)

# the exact dual's Legendre-angle solve (see DualProfile)
NEWTON_TOL = 1e-14
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class PlanarNorm:
    profile: Profile

    def __post_init__(self):
        require_minkowski(self.profile, "profile is not a Minkowski norm profile")

    @property
    def d(self) -> int:
        return self.profile.d


def value(nm: PlanarNorm, x) -> float:
    """F(x) = r*sqrt(2 f(t)); 0 at the origin."""
    x = np.asarray(x, dtype=float)
    r = math.hypot(x[0], x[1])
    if r == 0.0:
        return 0.0
    t = math.atan2(x[1], x[0])
    return r * math.sqrt(2.0 * nm.profile.evaluate(t, 0))


def fundamental_tensor(nm: PlanarNorm, x) -> np.ndarray:
    """Hessian of E = F^2/2 at x != 0, in Cartesian coordinates, at one
    point or at each row of an (m, 2) array, shape (m, 2, 2).

    In the orthonormal frame (e_r, e_t) the matrix is
    [[2f, f'], [f', f'' + 2f]]; rotate back by the polar angle (math.atan2
    per row, as legendre_map).
    """
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x).tolist()
    if not all(math.hypot(a, b) for a, b in rows):
        raise ValueError("fundamental tensor undefined at the origin")
    t = np.array([math.atan2(b, a) for a, b in rows])[:, None, None]
    f0, f1, f2 = nm.profile.jet(t, 2)
    frame = np.block([[2.0 * f0, f1], [f1, f2 + 2.0 * f0]])
    c, s = np.cos(t), np.sin(t)
    rot = np.block([[c, -s], [s, c]])
    g = rot @ frame @ np.swapaxes(rot, 1, 2)
    return g[0] if x.ndim == 1 else g


def legendre_map(nm: PlanarNorm, x) -> np.ndarray:
    """Gradient of E at x: 2f * x + f' * r * e_t, at one point or at each
    row of an (m, 2) array (math.atan2: numpy's can differ in the last bit)."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    r = np.array([math.hypot(a, b) for a, b in rows.tolist()])
    if not r.all():
        raise ValueError("gradient map undefined at the origin")
    t = np.array([math.atan2(b, a) for a, b in rows.tolist()])[:, None]
    f0, f1 = nm.profile.jet(t, 1)
    y = 2.0 * f0 * rows + f1 * r[:, None] * np.hstack([-np.sin(t), np.cos(t)])
    return y[0] if x.ndim == 1 else y


def legendre_num_den(f0, f1, sin, cos):
    """(N, D) with tan(theta) = N / D for the gradient direction at angle t:
    N = 2 f sin t + f' cos t, D = 2 f cos t - f' sin t."""
    return 2.0 * f0 * sin + f1 * cos, 2.0 * f0 * cos - f1 * sin


def _unwrap_to(t, raw):
    """Shift raw angles by multiples of 2*pi to land within pi of t.

    The gradient of a strongly convex E never turns more than pi/2 away
    from x (their inner product is 2E > 0), so this fixes the branch,
    keeps continuity, and preserves the dihedral equivariance.
    """
    return raw + 2.0 * math.pi * np.rint((t - raw) / (2.0 * math.pi))


def theta_legendre(p: Profile, t):
    """Polar angle of legendre_map at polar angle t (branch-corrected)."""
    return theta_scaled(p, t, 1.0, 1.0, 0)[0]


def theta_scaled(p: Profile, t, a: float, b: float, k: int):
    """(theta,) for k = 0 or (theta, theta') for k = 1, theta the angle of
    x -> (a * dE/dx1, b * dE/dx2), from one jet of p; a = b is theta_legendre."""
    if a <= 0 or b <= 0:
        raise ValueError("axis weights must be positive")
    if k not in (0, 1):
        raise ValueError("theta maps support k = 0 and 1 only")
    jet = p.jet(t, k + 1)
    num, den = legendre_num_den(jet[0], jet[1], np.sin(t), np.cos(t))
    theta = _unwrap_to(np.asarray(t, dtype=float), np.arctan2(b * num, a * den))
    if k == 0:
        return (theta,)
    return theta, a * b * gap_from_jet(*jet) / (a * a * den * den + b * b * num * num)


def legendre_ode_rhs(p: Profile, t, theta):
    """Right side of the first-order ODE solved by theta_legendre:

        theta' = gap(t) * cos(theta) sin(theta) / (num(t) * den(t)).

    Also the second root of the reduction quadratic (the "Legendre branch").
    """
    f0, f1, f2 = p.jet(t, 2)
    num, den = legendre_num_den(f0, f1, np.sin(t), np.cos(t))
    return gap_from_jet(f0, f1, f2) * np.cos(theta) * np.sin(theta) / (num * den)


def indicatrix_point(nm: PlanarNorm, t):
    """The point of S_F at polar angle t: (2f)^(-1/2) (cos t, sin t); a
    ValueError where f <= 0, since S_F is unbounded there."""
    f0 = np.asarray(nm.profile.evaluate(t, 0))
    if np.any(f0 <= 0.0):
        at = np.broadcast_to(t, f0.shape)[f0 <= 0.0][0]
        raise ValueError(f"f <= 0 at t = {at:.17g}: S_F is unbounded there")
    rho = 1.0 / np.sqrt(2.0 * f0)
    return np.stack([rho * np.cos(t), rho * np.sin(t)], axis=-1)


def dual_profile(nm: PlanarNorm, grid_size: int = 512,
                 max_terms: int | None = None) -> Profile:
    """The exact `DualProfile` fit to a cosine series, its portable form: the
    dual on the 2 grid_size - 1 points of a uniform grid on [0, pi/d] is fit
    at the even-indexed ones, and `fit_residual` also covers the odd ones."""
    if grid_size < 128:
        raise ValueError("grid_size must be >= 128")
    ts = np.linspace(0.0, math.pi / nm.d, 2 * grid_size - 1)
    indicatrix_point(nm, ts)  # names the angle where f <= 0
    h = DualProfile(nm.profile).evaluate(ts)
    fit = sampled_profile(nm.d, ts[::2], h[::2], FIT_MAX_TERMS if max_terms is None
                          else max_terms)
    mid_err = float(np.max(np.abs(fit.evaluate(ts[1::2]) - h[1::2])))
    return replace(fit, fit_residual=max(fit.fit_residual, mid_err))


@dataclass(frozen=True)
class DualProfile:
    """Exact dual profile h with h(theta_legendre(t)) = f/(4f^2 + f'^2).

    Evaluation folds the angles into [0, pi/d] and inverts the Legendre
    angle map there for the whole array at once: Newton's method inside a
    bracket that each step tightens, with bisection in place of any step
    that would leave it.  theta_legendre' = gap/(N^2 + D^2) > 0 for a valid
    base and theta_legendre fixes 0 and pi/d, so the bracket always holds
    the root.  A point stops once its Newton step is below NEWTON_TOL, or
    once the step only returns to a bracket end (the residual is down to
    rounding); a point still moving after NEWTON_MAX_STEPS raises
    ValueError rather than return a wrong number.  `jet(t, k)` then applies
    the chain rule to h, h' and h'' from that one solve, so no spectral
    truncation enters (`dual_profile` fits this to a cosine series).
    Orders go up to 2 (order 3 would need the fourth derivative of the base
    profile).  The base must be a valid Minkowski profile (`is_minkowski`):
    a marginal one may pinch theta_legendre' to zero, where h blows up.
    """

    base: Profile
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        rep = is_minkowski(self.base)
        if not rep.valid:
            raise ValueError(f"dual needs a valid profile ({rep.status}: "
                             f"min_f={rep.min_f:.3g}, min_gap={rep.min_gap:.3g})")

    @property
    def d(self) -> int:
        return self.base.d

    @property
    def kind(self) -> str:
        return "dual"

    @property
    def fit_residual(self) -> float:
        return 0.0

    def stationary_angles(self) -> np.ndarray:
        """theta_legendre of the base's angles, as (h o theta)' =
        -s f' gap_f / (4f^2 + f'^2)^2 and gap_h(theta(t)) = s^2 / gap_f(t)."""
        return theta_legendre(self.base, self.base.stationary_angles())

    def _jet(self, t, k: int):
        # A scalar stays a scalar; an array goes in one point per row, where
        # matmul sums each point's series with its own dot product, so the
        # values carry the bits of scalar evaluation whatever the length.
        if np.ndim(t) == 0:
            return self.base.jet(t, k)
        return [v[:, 0] for v in self.base.jet(t[:, None], k)]

    def _invert_theta(self, theta: np.ndarray | float) -> np.ndarray | float:
        """Solve theta_legendre(t) = theta for theta in [0, pi/d], theta an
        array or a scalar (`[()]` keeps a scalar a numpy scalar)."""
        t = theta
        lo = np.zeros_like(theta)[()]
        hi = np.full_like(theta, math.pi / self.d)[()]
        active = np.ones(np.shape(theta), dtype=bool)
        for _ in range(NEWTON_MAX_STEPS):
            f0, f1, f2 = self._jet(t, 2)
            N, D = legendre_num_den(f0, f1, np.sin(t), np.cos(t))
            resid = _unwrap_to(t, np.arctan2(N, D)) - theta
            step = resid * (N * N + D * D) / gap_from_jet(f0, f1, f2)
            newton = t - step
            lo = np.where(resid < 0, t, lo)[()]
            hi = np.where(resid > 0, t, hi)[()]
            tiny = np.abs(step) < NEWTON_TOL
            # a NaN or infinite step fails both tests: bisection
            nxt = np.where(tiny | ((lo <= newton) & (newton <= hi)), newton,
                           0.5 * (lo + hi))[()]
            # a step back onto a bracket end means the residual no longer
            # tells the points apart: where theta_legendre' is small, its
            # last bit of rounding moves t by more than NEWTON_TOL
            done = tiny | (nxt == lo) | (nxt == hi)
            t = np.where(active, nxt, t)[()]
            active &= ~done
            if not active.any():
                return t
        at = np.extract(active, theta)[0]
        raise ValueError(
            f"exact dual: Legendre angle inversion did not converge in "
            f"{NEWTON_MAX_STEPS} steps at theta={float(at):.17g}")

    def evaluate(self, t, order: int = 0):
        return self.jet(t, order)[order]

    def jet(self, t, k: int):
        """(h, ..., h^(k)) at t, k <= 2: one fold and one inversion."""
        if k not in (0, 1, 2):
            raise ValueError("dual profiles support derivative orders 0..2")
        t = np.asarray(t, dtype=float)
        tau, sign = dihedral_fold(t if t.ndim == 0 else t.reshape(-1), self.d)
        out = self._chain(self._invert_theta(tau), k)
        out = [v * sign ** m for m, v in enumerate(out)]
        return tuple(float(v) if t.ndim == 0 else v.reshape(t.shape)
                     for v in out)

    def _chain(self, t, k: int) -> list:
        """h, h', ... up to h^(k) at theta_legendre(t), by the chain rule."""
        jet = self._jet(t, k + 1)
        f0, f1 = jet[:2]
        G = 4 * f0 * f0 + f1 * f1
        out = [self.scale * f0 / G]
        if k == 0:
            return out
        f2 = jet[2]
        Gp = 2 * f1 * (4 * f0 + f2)
        qp = f1 / G - f0 * Gp / _pow(G, 2)
        gap = gap_from_jet(f0, f1, f2)
        sin, cos = np.sin(t), np.cos(t)
        N, D = legendre_num_den(f0, f1, sin, cos)
        tp = gap / (N * N + D * D)
        out.append(self.scale * qp / tp)
        if k == 1:
            return out
        f3 = jet[3]
        Gpp = 8 * (f1 * f1 + f0 * f2) + 2 * (f2 * f2 + f1 * f3)
        qpp = f2 / G - 2 * f1 * Gp / _pow(G, 2) - f0 * Gpp / _pow(G, 2) \
            + 2 * f0 * _pow(Gp, 2) / _pow(G, 3)
        gap_p = 2 * f0 * (f3 + 4 * f1)
        Np = f1 * sin + (2 * f0 + f2) * cos
        Dp = f1 * cos - (2 * f0 + f2) * sin
        tpp = gap_p / (N * N + D * D) \
            - gap * 2 * (N * Np + D * Dp) / _pow(N * N + D * D, 2)
        out.append(self.scale * (qpp * tp - qp * tpp) / _pow(tp, 3))
        return out

    def scaled(self, factor: float) -> "DualProfile":
        return DualProfile(base=self.base, scale=self.scale * factor)

    def to_json_dict(self) -> dict:
        return {"kind": "dual", "d": self.d, "base": self.base.to_json_dict(),
                "scale": self.scale}
