"""Dihedrally symmetric profile functions f(t) on the circle.

A profile of order d is a smooth function f(t) = c0 + sum_j c_j cos(j*d*t),
even and 2*pi/d periodic by construction.  Profiles are the angular part of
norms F = r*sqrt(2 f(t)); the strong-convexity criterion for such a norm is

    gap(t) = 2 f f'' - (f')^2 + 4 f^2 > 0   and   f > 0.

Numerically produced profiles (phi-constructions, fitted duals, solved
targets, bump bases) are fit to the same cosine basis: such a profile is its
series plus the fit's `fit_residual`, which JSON stores next to
`cos_coeffs`.  All three profile kinds
(`Profile`, `SectorProfile` and planar's exact `DualProfile`) answer
`jet(t, k)`: (f, f', ..., f^(k)) at t from one evaluation, of which
`evaluate(t, order)` is one entry, bit for bit.  `is_minkowski` is exact:
it reads f and the gap from `jet` at the piece ends and at each kind's
`stationary_angles()`, the only other places their minima can lie.  Both
the report and a `Profile`'s angles are computed once per object and reused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Chebyshev

ALLOWED_D = (1, 2, 3, 4, 6)
FIT_MAX_TERMS = 32
VALIDITY_MARGIN = 1e-9
MAX_DERIV_ORDER = 3
EPS = np.finfo(float).eps
PHI_GRID = 512  # from_phi's sample grid


@dataclass(frozen=True)
class Profile:
    """Truncated cosine series c0 + sum_j c_j cos(j*d*t); a fitted one
    carries the fit's max abs error as `fit_residual` (0 for an exact one)."""

    d: int
    cos_coeffs: tuple[float, ...]
    fit_residual: float = 0.0

    def __post_init__(self):
        if self.d not in ALLOWED_D:
            raise ValueError(f"d must be one of {ALLOWED_D}, got {self.d}")
        try:  # JSON can hold any type here, and a caller a numpy array
            object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
            object.__setattr__(self, "fit_residual", float(self.fit_residual))
        except TypeError as exc:
            raise ValueError(f"profile coefficients and fit_residual must be "
                             f"numbers ({exc})") from None
        if not self.cos_coeffs:
            raise ValueError("profile needs at least one coefficient")
        coeffs = np.asarray(self.cos_coeffs)
        if not np.isfinite(coeffs).all():
            raise ValueError("profile coefficients must be finite")
        if not (math.isfinite(self.fit_residual) and self.fit_residual >= 0):
            raise ValueError(f"fit_residual must be finite and >= 0, "
                             f"got {self.fit_residual}")
        freq = np.arange(len(coeffs)) * self.d
        # d^m/dt^m cos(w t) = w^m cos(w t + m pi/2); 0**0 == 1 keeps the c0 term
        object.__setattr__(self, "_freq", freq)
        object.__setattr__(self, "_weights", tuple(
            coeffs * freq.astype(float) ** m for m in range(MAX_DERIV_ORDER + 1)))

    def evaluate(self, t, order: int = 0):
        """d^order f / dt^order at t (scalar or array), order 0..3."""
        if order not in range(MAX_DERIV_ORDER + 1):
            raise ValueError(f"order must be in 0..{MAX_DERIV_ORDER}, got {order}")
        return self._series(t, (order,))[0]

    def jet(self, t, k: int):
        """(f, f', ..., f^(k)) at t (scalar or array), k in 0..3.

        Each entry has the bits `evaluate(t, order)` gives for the same t.
        """
        if k not in range(MAX_DERIV_ORDER + 1):
            raise ValueError(f"k must be in 0..{MAX_DERIV_ORDER}, got {k}")
        return self._series(t, range(k + 1))

    def _series(self, t, orders) -> tuple:
        t = np.asarray(t, dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("non-finite angle")
        wt = np.multiply.outer(t, self._freq)
        out = []
        for m in orders:
            s = np.cos(wt + 0.5 * math.pi * m) @ self._weights[m]
            out.append(float(s) if s.ndim == 0 else s)
        return tuple(out)

    def stationary_angles(self) -> np.ndarray:
        """Angles in [0, pi/d] where f, f' or f''' + 4 f' may vanish: in
        q = cos(d t), f is the Chebyshev series phi(q) with coefficients c_j,
        f' = -d sin(d t) phi'(q), and f''' + 4 f' is the f' of the series with
        coefficients c_j ((j d)^2 - 4); t = arccos(q)/d over the real parts,
        clipped to [-1, 1], of the roots of phi, phi' and that derivative.
        Computed once per profile object; the array is read-only."""
        if "_angles" not in self.__dict__:
            c = np.asarray(self.cos_coeffs)
            phi = Chebyshev(c)
            # trailing c_j below eps * max|c| overflow the companion matrix
            q = [s.trim(EPS * np.max(np.abs(s.coef))).roots().real for s in
                 (phi, phi.deriv(), Chebyshev(c * (self._freq ** 2 - 4.0)).deriv())]
            angles = np.arccos(np.clip(np.concatenate(q), -1.0, 1.0)) / self.d
            angles.flags.writeable = False
            object.__setattr__(self, "_angles", angles)
        return self._angles

    @property
    def kind(self) -> str:
        return "cosine"

    def scaled(self, factor: float) -> "Profile":
        """The profile factor*f (coefficient-wise, exact)."""
        return replace(self, cos_coeffs=tuple(factor * c for c in self.cos_coeffs),
                       fit_residual=abs(factor) * self.fit_residual)

    def to_json_dict(self) -> dict:
        out = {"d": self.d, "kind": "cosine", "cos_coeffs": list(self.cos_coeffs)}
        if self.fit_residual:
            out["fit_residual"] = self.fit_residual
        return out


def round_profile(d: int = 1) -> Profile:
    """f = 1/2: the Euclidean norm for any foliation order."""
    return Profile(d, (0.5,))


def _pow(x, n: int):
    """x**n (a scalar or element by element) with the C library's pow, as
    Python floats and numpy scalars do.

    numpy's vectorised pow can differ from it in the last bit, so arrays
    computed with this keep the bits of one-point evaluation.
    """
    if np.ndim(x) == 0:
        return x ** n
    return np.array([v ** n for v in x.tolist()])


def gap_from_jet(f0, f1, f2):
    """The convexity gap 2 f f'' - (f')^2 + 4 f^2 from the jet (f, f', f'')."""
    return 2.0 * f0 * f2 - f1 * f1 + 4.0 * f0 * f0


@dataclass(frozen=True)
class ValidityReport:
    valid: bool
    status: str  # "valid" | "marginal" | "invalid"
    min_f: float
    min_gap: float
    argmin: float  # location of the gap minimum


def _candidates(p, lo: float, hi: float) -> np.ndarray:
    """Rows (t, f, gap) from each smooth piece's own jet at its ends and
    stationary angles in [lo, hi]; sectors split at their breaks."""
    if isinstance(p, SectorProfile):
        ends = (0.0, *p.breaks, math.pi / p.d)
        return np.hstack([_candidates(piece, max(a, lo), min(b, hi))
                          for piece, a, b in zip(p.pieces, ends, ends[1:])
                          if max(a, lo) < min(b, hi)])
    t = np.unique(np.clip(np.append(p.stationary_angles(), (lo, hi)), lo, hi))
    f0, f1, f2 = p.jet(t, 2)
    return np.array([t, f0, gap_from_jet(f0, f1, f2)])


def is_minkowski(p) -> ValidityReport:
    """Check f > 0 and gap > 0 on [0, pi/d], exactly: on a smooth piece both
    reach their minima at a piece end or where f' or gap' = 2 f (f''' + 4 f')
    vanishes, and there the values come from `jet`.  "valid" needs both
    minima above 1e-9; a sign flip below -1e-9 is "invalid"; anything
    pinched in between is reported as "marginal" rather than guessed.
    Profiles are frozen, so the report is computed once per profile object
    and kept on it; `replace` and `scaled` build objects checked afresh.
    """
    if "_validity" in p.__dict__:
        return p._validity
    ts, fs, gaps = _candidates(p, 0.0, math.pi / p.d)
    i = int(np.argmin(gaps))
    min_f, min_gap, arg_gap = float(np.min(fs)), float(gaps[i]), ts[i]

    if min_f > VALIDITY_MARGIN and min_gap > VALIDITY_MARGIN:
        status = "valid"
    elif min_f < -VALIDITY_MARGIN or min_gap < -VALIDITY_MARGIN:
        status = "invalid"
    else:
        status = "marginal"
    report = ValidityReport(valid=(status == "valid"), status=status,
                            min_f=min_f, min_gap=min_gap, argmin=float(arg_gap))
    object.__setattr__(p, "_validity", report)
    return report


def require_minkowski(p, what: str) -> None:
    """Raise ValueError, starting with `what`, if is_minkowski calls p invalid."""
    report = is_minkowski(p)
    if report.status == "invalid":
        raise ValueError(f"{what} (min_f={report.min_f:.3g}, "
                         f"min_gap={report.min_gap:.3g})")


def fit_cosine_series(d: int, ts, values, max_terms: int = FIT_MAX_TERMS):
    """Least-squares fit of values(ts) in the basis cos(j*d*t), j < max_terms.

    Returns (coefficients, max_abs_residual).  ts need not be uniform.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    n_terms = min(max_terms, max(1, len(ts) // 2))
    design = np.cos(np.multiply.outer(ts, np.arange(n_terms) * d))
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = float(np.max(np.abs(design @ coeffs - values)))
    return coeffs, resid


def sampled_profile(d: int, ts, values, max_terms: int = FIT_MAX_TERMS) -> Profile:
    """The cosine series fit to (ts, values), with the fit's max abs error
    at the samples as its `fit_residual`; the samples are not kept."""
    coeffs, resid = fit_cosine_series(d, ts, values, max_terms)
    return Profile(d, tuple(coeffs), fit_residual=resid)


def from_phi(phi, b: float = 1.0, mode: str = "alpha-beta") -> Profile:
    """Profiles from a one-variable generating function phi.

    mode "alpha-beta"    : d=1, f(t) = phi(b cos t)^2 / 2
    mode "alpha1-alpha2" : d=2, f(t) = phi(cos t)^2 / 2

    The squared form keeps f >= 0 even when phi dips negative; such profiles
    simply fail is_minkowski (f touches zero), which is the caller's gate.
    """
    if mode == "alpha-beta":
        if b <= 0:
            raise ValueError("b must be positive")
        d, scale = 1, b
    elif mode == "alpha1-alpha2":
        d, scale = 2, 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ts = np.linspace(0.0, math.pi / d, PHI_GRID)
    raw = np.array([phi(scale * math.cos(t)) for t in ts], dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("phi produced non-finite values on the sampling grid")
    return sampled_profile(d, ts, 0.5 * raw * raw)


def dihedral_fold(t, d: int):
    """Map t (scalar or array) to (tau, sign) with tau in [0, pi/d] and, for
    any profile of order d, f(t) = f(tau) and f'(t) = sign * f'(tau)."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite angle")
    period = 2.0 * math.pi / d
    tau = np.abs(t) % period
    sign = np.where(t >= 0, 1.0, -1.0)
    upper = tau > period / 2.0
    tau = np.where(upper, period - tau, tau)
    sign = np.where(upper, -sign, sign)
    if t.ndim == 0:
        return float(tau), float(sign)
    return tau, sign


@dataclass(frozen=True)
class SectorProfile:
    """Profile assembled from per-sector pieces on the fundamental interval.

    `breaks` are the switch angles inside (0, pi/d); piece i is used on
    [breaks[i-1], breaks[i]].  Evaluation folds t into [0, pi/d] by dihedral
    symmetry first, so the assembled function is automatically even and
    2*pi/d periodic.  Pieces are full Profiles (globally defined); continuity
    across switch angles is the constructor's responsibility and is checked
    numerically by the glue code, not here.
    """

    d: int
    breaks: tuple[float, ...]
    pieces: tuple[Profile, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 pieces")
        if any(p.d != self.d for p in self.pieces):
            raise ValueError("piece symmetry order mismatch")
        if list(self.breaks) != sorted(self.breaks):
            raise ValueError("breaks must be increasing")

    @property
    def kind(self) -> str:
        return "sector"

    @property
    def fit_residual(self) -> float:
        return max(p.fit_residual for p in self.pieces)

    def evaluate(self, t, order: int = 0):
        return self.jet(t, order)[order]

    def jet(self, t, k: int):
        """(f, ..., f^(k)) at t: one fold, then each piece's jet on its points."""
        if k not in range(MAX_DERIV_ORDER + 1):
            raise ValueError(f"k must be in 0..{MAX_DERIV_ORDER}, got {k}")
        t = np.asarray(t, dtype=float)
        tau, sign = dihedral_fold(t.reshape(-1), self.d)
        # side="right" so that a break angle belongs to the piece on its
        # right, matching the convention of piecewise theta maps
        idx = np.searchsorted(self.breaks, tau, side="right")
        out = np.empty((k + 1, tau.size))
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():  # one point per row: each value has scalar bits
                out[:, mask] = np.array(piece.jet(tau[mask][:, None], k))[..., 0]
        out *= sign ** np.arange(k + 1)[:, None]
        return tuple(float(v[0]) if t.ndim == 0 else v.reshape(t.shape)
                     for v in out)

    def stationary_angles(self) -> np.ndarray:
        """The breaks and every piece's angles (for an exact dual's base)."""
        return np.hstack([self.breaks, *(p.stationary_angles() for p in self.pieces)])

    def to_json_dict(self) -> dict:
        return {"d": self.d, "kind": "sector", "breaks": list(self.breaks),
                "pieces": [p.to_json_dict() for p in self.pieces]}


_JSON_TYPES = {"integer": int, "number": (int, float), "numbers": (int, float),
               "string": str, "array": list, "object": dict}


def json_field(data, key: str, what: str, want: str | None = None, default=None):
    """data[key] of a loaded JSON object, or `default`, where given, if the
    key is absent; a ValueError when data is not an object, or naming the
    field when it is missing or not of the JSON type `want`, a key of
    _JSON_TYPES ("numbers": an array of numbers; a bool is no number)."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    if key not in data:
        if default is not None:
            return default
        raise ValueError(f"{what} is missing the field {key!r}")
    value, types = data[key], _JSON_TYPES.get(want)
    items = value if want == "numbers" else [value]
    if types and not (isinstance(items, list) and all(
            isinstance(v, types) and not isinstance(v, bool) for v in items)):
        raise ValueError(f"{what} field {key!r} has the wrong type: {value!r}")
    return value


def profile_from_json_dict(data: dict):
    kind = json_field(data, "kind", "profile", "string", default="cosine")
    field = lambda key, want=None, default=None: json_field(
        data, key, f"{kind} profile", want, default)
    if kind == "cosine":
        return Profile(field("d", "integer"), field("cos_coeffs", "numbers"),
                       fit_residual=field("fit_residual", "number", 0.0))
    if kind == "sampled":  # the older format, kept readable: refit the samples
        p = sampled_profile(field("d", "integer"), field("grid", "numbers"),
                            field("values", "numbers"))
        stored = field("fit_residual", "number", 0.0)
        stored = replace(p, fit_residual=stored).fit_residual
        return replace(p, fit_residual=max(stored, p.fit_residual))
    if kind == "sector":
        pieces = tuple(profile_from_json_dict(p) for p in field("pieces", "array"))
        return SectorProfile(field("d", "integer"),
                             tuple(field("breaks", "numbers")), pieces)
    if kind == "dual":
        from .planar import DualProfile
        base = profile_from_json_dict(field("base", "object"))
        if field("d", "integer", base.d) != base.d:
            raise ValueError(f"dual profile field 'd' is {data['d']}, but its "
                             f"base has d = {base.d}")
        return DualProfile(base=base, scale=float(field("scale", "number", 1.0)))
    raise ValueError(f"unknown profile kind {kind!r}")


def load_profile(path) -> Profile:
    with open(path) as fh:
        return profile_from_json_dict(json.load(fh))


def save_profile(p, path) -> None:
    with open(path, "w") as fh:
        json.dump(p.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
