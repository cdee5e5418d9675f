"""Planar Minkowski norms F = r*sqrt(2 f(t)) and their Legendre geometry.

Everything here is closed-form in (f, f', f''): the fundamental tensor in a
rotating frame, the gradient (Legendre) map, the angle it induces on the
indicatrix (`theta_legendre`; with weighted axes, the scaled-Legendre theta
map that `isometry.theta_jet` reads, by the same `_theta_from_jet`), and the
exact dual profile `DualProfile`, which inverts that angle; `dual_profile`
fits it to a cosine series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .profile import (FIT_MAX_TERMS, Profile, _candidates, _certified, _Keeps,
                      as_angle, dihedral_fold, gap_from_jet, is_minkowski,
                      lobatto_fit, require_minkowski)

# the exact dual's Legendre-angle solve (see DualProfile)
NEWTON_TOL = 1e-14
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class PlanarNorm:
    profile: Profile

    def __post_init__(self):
        require_minkowski(self.profile, "profile is not a Minkowski norm profile")


def _plane_polar(x):
    """(rows, r, t) of a point or an (m, 2) array x: its (m, 2) rows, and
    each row's radius and polar angle by math.hypot and math.atan2 (numpy's
    can differ in the last bit); a ValueError if any row is not finite."""
    rows = np.atleast_2d(x)
    if not np.isfinite(rows).all():
        raise ValueError("t undefined: x is not finite")
    pts = rows.tolist()
    return (rows, np.array([math.hypot(a, b) for a, b in pts]),
            np.array([math.atan2(b, a) for a, b in pts]))


def value(nm: PlanarNorm, x):
    """F(x) = r*sqrt(2 f(t)) at a point (a float) or at each row of an
    (m, 2) array; 0 at the origin, where f is not evaluated."""
    x = np.asarray(x, dtype=float)
    _, r, t = _plane_polar(x)
    F, live = np.zeros_like(r), r != 0.0
    if live.any():
        F[live] = r[live] * np.sqrt(2.0 * nm.profile.evaluate(t[live], 0))
    return float(F[0]) if x.ndim == 1 else F


def fundamental_tensor(nm: PlanarNorm, x) -> np.ndarray:
    """Hessian of E = F^2/2 at x != 0, in Cartesian coordinates, at one
    point or at each row of an (m, 2) array, shape (m, 2, 2).

    In the orthonormal frame (e_r, e_t) the matrix is
    [[2f, f'], [f', f'' + 2f]]; rotate back by the polar angle.
    """
    x = np.asarray(x, dtype=float)
    _, r, t = _plane_polar(x)
    if not r.all():
        raise ValueError("fundamental tensor undefined at the origin")
    t = t[:, None, None]
    f0, f1, f2 = nm.profile.jet(t, 2)
    frame = np.block([[2.0 * f0, f1], [f1, f2 + 2.0 * f0]])
    c, s = np.cos(t), np.sin(t)
    rot = np.block([[c, -s], [s, c]])
    g = rot @ frame @ np.swapaxes(rot, 1, 2)
    return g[0] if x.ndim == 1 else g


def legendre_map(nm: PlanarNorm, x) -> np.ndarray:
    """Gradient of E at x: 2f * x + f' * r * e_t, at one point or at each
    row of an (m, 2) array."""
    x = np.asarray(x, dtype=float)
    rows, r, t = _plane_polar(x)
    if not r.all():
        raise ValueError("gradient map undefined at the origin")
    t = t[:, None]
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
    keeps continuity, and preserves the dihedral equivariance.  A float t
    gives a float: `round` halves to even, as np.rint does, and a NaN or
    infinite turn count passes through, as np.rint passes it.
    """
    if isinstance(t, float):
        raw = float(raw)
        turns = (t - raw) / (2.0 * math.pi)
        return raw + 2.0 * math.pi * (round(turns) if math.isfinite(turns) else turns)
    return raw + 2.0 * math.pi * np.rint((t - raw) / (2.0 * math.pi))


def _sin_cos(t):
    """(sin t, cos t) by numpy's ufuncs; floats for a float t."""
    sin, cos = np.sin(t), np.cos(t)
    return (float(sin), float(cos)) if isinstance(t, float) else (sin, cos)


def theta_legendre(p: Profile, t):
    """Polar angle of legendre_map at polar angle t (branch-corrected)."""
    t = as_angle(t)
    return _theta_from_jet(p.jet(t, 1), *_sin_cos(t), t, 1.0, 1.0, 0)[0]


def _theta_from_jet(jet, sin, cos, t, a: float, b: float, k: int):
    """(theta,) for k = 0 or (theta, theta') for k = 1, theta the angle of
    x -> (a * dE/dx1, b * dE/dx2) at t, from f's jet to order k + 1 and
    (sin t, cos t) at t: the scaled-Legendre theta map (`isometry.theta_jet`),
    and theta_legendre at a = b = 1."""
    num, den = legendre_num_den(jet[0], jet[1], sin, cos)
    theta = _unwrap_to(t, np.arctan2(b * num, a * den))
    if k == 0:
        return (theta,)
    return theta, a * b * gap_from_jet(*jet) / (a * a * den * den + b * b * num * num)


def legendre_ode_rhs(p: Profile, t, theta):
    """Right side of the first-order ODE solved by theta_legendre:

        theta' = gap(t) * cos(theta) sin(theta) / (num(t) * den(t)).

    Also the second root of the reduction quadratic (the "Legendre branch").
    """
    f0, f1, f2 = p.jet(t, 2)
    num, den = legendre_num_den(f0, f1, *_sin_cos(t))
    sin, cos = _sin_cos(theta)
    return gap_from_jet(f0, f1, f2) * cos * sin / (num * den)


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
    dual on 2 grid_size - 1 uniform points of [0, pi/d] is fit by one DCT
    (`lobatto_fit`) at the even-indexed ones; `fit_residual` covers all."""
    return _dual_fit(nm, grid_size, max_terms)[0]


def _dual_fit(nm: PlanarNorm, grid_size: int, max_terms: int | None):
    """(dual_profile, all grid_size coefficients of the interpolant)."""
    if grid_size < 128:
        raise ValueError("grid_size must be >= 128")
    ts = np.linspace(0.0, math.pi / nm.profile.d, 2 * grid_size - 1)
    indicatrix_point(nm, ts)  # names the angle where f <= 0
    h = DualProfile(nm.profile).evaluate(ts)
    fit, coeffs = lobatto_fit(nm.profile.d, h[::2], FIT_MAX_TERMS if max_terms is None
                              else max_terms)
    mid_err = float(np.max(np.abs(fit.evaluate(ts[1::2]) - h[1::2])))
    return replace(fit, fit_residual=max(fit.fit_residual, mid_err)), coeffs


def legendre_dual_jet(f: Profile, t, k: int, s: float) -> list:
    """h, h', ... up to h^(k), k <= 3, of the dual s f^* at theta_legendre(t),
    from one jet of f at t (`_dual_from_jet`); floats and arrays take the
    same steps.  `DualProfile.jet` reads it at its Newton solve."""
    return _dual_from_jet(f.jet(t, max(k, 1)), k, s)


def _dual_from_jet(jet, k: int, s: float) -> list:
    """h, ..., h^(k) of s f^* at theta_legendre(t) from f's jet to order
    max(k, 1) at t, each order by the same steps whatever k is.  G = 4f^2 +
    f'^2 = N^2 + D^2 and theta_legendre' = gap/G give h = s f/G, h' = -s f'/G,
    h'' = s P/(G gap), P = 8 f f'^2 - (4f^2 - f'^2) f'', and h''' =
    s (P' G gap - P (G' gap + G gap'))/(G gap^3), P' = 8 f'^3 + 8 f f' f'' +
    2 f' f''^2 - (4f^2 - f'^2) f''', G' = 8 f f' + 2 f' f'', gap' = 2 f f''' + 8 f f'."""
    f0, f1 = jet[0], jet[1]
    G = 4 * f0 * f0 + f1 * f1
    out = [s * f0 / G, -s * f1 / G]
    if k >= 2:
        f2, c = jet[2], 4 * f0 * f0 - f1 * f1
        P, gap = 8 * f0 * f1 * f1 - c * f2, gap_from_jet(f0, f1, f2)
        out.append(s * P / (G * gap))
        if k == 3:
            f3 = jet[3]
            dP = 8 * f1 * f1 * f1 + 8 * f0 * f1 * f2 + 2 * f1 * f2 * f2 - c * f3
            dG, dgap = 8 * f0 * f1 + 2 * f1 * f2, 2 * f0 * f3 + 8 * f0 * f1
            out.append(s * (dP * G * gap - P * (dG * gap + G * dgap))
                       / (G * gap * gap * gap))
    return out[:k + 1]


@dataclass(frozen=True)
class DualProfile(_Keeps):
    """Exact dual profile h with h(theta_legendre(t)) = f/(4f^2 + f'^2).

    Evaluation folds the angles into [0, pi/d] and inverts the Legendre
    angle map there for the whole array at once: Newton's method inside a
    bracket that each step tightens, with bisection in place of any step
    that would leave it.  theta_legendre' = gap/(N^2 + D^2) > 0 for a valid
    base and theta_legendre fixes 0 and pi/d, so the bracket always holds
    the root.  A point stops, and leaves the later steps, once its Newton
    step is below NEWTON_TOL or only returns to a bracket end (the residual
    is down to rounding); a point still moving after NEWTON_MAX_STEPS raises
    ValueError rather than return a wrong number.  `jet(t, k)`, k <= 3, then
    reads `legendre_dual_jet` at that solve, so no spectral truncation
    enters (`dual_profile` fits this to a cosine series).  The last solve is
    kept (`_Keeps`), keyed by the bytes of its folded angles, and a call
    whose folded angles have them reuses it.  A scalar angle is solved as a
    one-element array and returns floats.  A caller that holds t with
    theta = theta_legendre(t) reads the closed form at t, with no solve
    (`isometry._h_at_theta`).  The base must be a valid Minkowski profile
    (`is_minkowski`): a marginal one may pinch theta_legendre' to zero,
    where h blows up.
    """

    base: Profile
    scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:  # a NaN fails too
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        rep = None if _certified(self.base) else is_minkowski(self.base)
        if rep and not rep.valid:  # a certified base needs no report
            raise ValueError(f"dual needs a valid profile ({rep.status}: "
                             f"min_f={rep.min_f:.3g}, min_gap={rep.min_gap:.3g})")

    @property
    def d(self) -> int:
        return self.base.d

    def stationary_angles(self) -> np.ndarray:
        """theta_legendre of the base's candidate angles, as (h o theta)' =
        -s f' gap_f / (4f^2 + f'^2)^2 and gap_h(theta(t)) = s^2 / gap_f(t):
        a valid base has f > 0, so `_candidates` gives the angles its own
        check used, without phi's roots, for any kind of base."""
        return theta_legendre(self.base, _candidates(self.base, 0.0, math.pi / self.d)[0])

    def _invert_theta(self, theta):
        """Solve theta_legendre(t) = theta for a 1-D array theta in [0, pi/d];
        only the rows idx still move, and ta, lo and hi are theirs."""
        jet = self.base.jet
        out, idx, ta = theta.copy(), np.arange(theta.size), theta
        lo = np.zeros_like(theta)
        hi = np.full_like(theta, math.pi / self.d)
        for _ in range(NEWTON_MAX_STEPS):
            f0, f1, f2 = jet(ta, 2)
            N, D = legendre_num_den(f0, f1, *_sin_cos(ta))
            resid = _unwrap_to(ta, np.arctan2(N, D)) - theta[idx]
            step = resid * (N * N + D * D) / gap_from_jet(f0, f1, f2)
            newton = ta - step
            lo = np.where(resid < 0, ta, lo)
            hi = np.where(resid > 0, ta, hi)
            tiny = np.abs(step) < NEWTON_TOL
            # a NaN or infinite step fails both tests: bisection
            nxt = np.where(tiny | ((lo <= newton) & (newton <= hi)), newton,
                           0.5 * (lo + hi))
            # a step back onto a bracket end means the residual no longer
            # tells the points apart: where theta_legendre' is small, its
            # last bit of rounding moves t by more than NEWTON_TOL
            moving = ~(tiny | (nxt == lo) | (nxt == hi))
            out[idx] = nxt
            idx, ta, lo, hi = idx[moving], nxt[moving], lo[moving], hi[moving]
            if not idx.size:
                return out
        raise ValueError(
            f"exact dual: Legendre angle inversion did not converge in "
            f"{NEWTON_MAX_STEPS} steps at theta={float(theta[idx[0]]):.17g}")

    def evaluate(self, t, order: int = 0):
        return self.jet(t, order)[order]

    def jet(self, t, k: int):
        """(h, ..., h^(k)) at t, k <= 3: one fold and one inversion, or
        the last call's where the folded angles are the same."""
        if k not in (0, 1, 2, 3):
            raise ValueError("dual profiles support derivative orders 0..3")
        t = as_angle(t)
        tau, sign = dihedral_fold(np.reshape(t, -1), self.d)  # a float: one row
        # tau is finite with no -0.0: equal bytes are equal angles
        solve = self._kept("_solve", tau, lambda: self._invert_theta(tau))
        out = [v * sign ** m for m, v in enumerate(
            legendre_dual_jet(self.base, solve, k, self.scale))]
        if isinstance(t, float):
            return tuple(float(v[0]) for v in out)
        return tuple(v.reshape(t.shape) for v in out)

    def scaled(self, factor: float) -> "DualProfile":
        return DualProfile(base=self.base, scale=self.scale * factor)

    def to_json_dict(self) -> dict:
        return {"kind": "dual", "d": self.d, "base": self.base.to_json_dict(),
                "scale": self.scale}
