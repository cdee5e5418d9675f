"""Dihedrally symmetric profile functions f(t) on the circle.

A profile of order d is a smooth function f(t) = c0 + sum_j c_j cos(j*d*t),
even and 2*pi/d periodic by construction.  Profiles are the angular part of
norms F = r*sqrt(2 f(t)); the strong-convexity criterion for such a norm is

    gap(t) = 2 f f'' - (f')^2 + 4 f^2 > 0   and   f > 0.

Numerically produced profiles (phi-constructions, fitted duals, solved
targets, bump bases) are fit to the same cosine basis by one DCT of their
values on the Lobatto grid of q = cos(d t) (`lobatto_fit`); `lstsq`
(`sampled_profile`) serves only the legacy "sampled" JSON kind.  Such a
profile is its series plus the fit's `fit_residual`, which JSON stores next
to `cos_coeffs`.  All three profile kinds
(`Profile`, `SectorProfile` and planar's exact `DualProfile`) answer
`jet(t, k)`: (f, f', ..., f^(k)) at t from one evaluation, of which
`evaluate(t, order)` is one entry, bit for bit; each row of an array of
angles, flat or a column, has the bits of its one-angle call.  A
`Profile`'s jet is the kernel it binds (Clenshaw's sum or, for a long
series, a rotation table), so every caller goes the same way in.
`is_minkowski`'s report is exact: it reads f and the gap from `jet` at the piece ends
and at each smooth piece's `stationary_angles()`, the only other places their minima
can lie; a series solves for the roots of f only where f may vanish, and a short
one (`_short_candidates`) does all of it on floats with the arrays' bits.  A pass/fail
question (`require_minkowski`, `DualProfile`) asks a long series' sampled `_gate`
first, which solves for nothing.  Every kept result of a frozen object, here
the reports, verdicts and root sets, goes through `_Keeps._kept`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

ALLOWED_D = (1, 2, 3, 4, 6)
FIT_MAX_TERMS = 32
VALIDITY_MARGIN = 1e-9
MAX_DERIV_ORDER = 3
EPS = np.finfo(float).eps
PHI_GRID = 512  # from_phi's sample grid
DEFAULT_FOCAL_GUARD = 0.05  # the leaf layers' focal guard and --delta's default
# Series of up to this many terms are summed by Clenshaw's recurrence in
# q = cos(d t), longer ones by a rotation table: Clenshaw takes a few array
# operations per term and order, the table one complex product per term and
# one dot product per row and order.  jet(t, 2) on 20 rows, best of 40
# interleaved runs on a 2-vCPU Xeon: Clenshaw 12.9 us against 29.0 at 2
# terms, 17.5 against 30.3 at 3, then (its loop of old) 24.7 against 29.9
# at 4 and 283 against 37 at 32.  `_clenshaw_kernel` writes out 3 terms.
CLENSHAW_MAX_TERMS = 3
_ORDERS = range(MAX_DERIV_ORDER + 1)


class _Keeps:
    """The one way a frozen object keeps a result: `_kept(name, key,
    compute)` returns compute(), kept with its arrays read-only for the next
    call with the same key, None (once per object) or a 1-D array compared
    by its bytes; a key of rows is never kept.  Not in ==, hash, copy or pickle."""

    def _kept(self, name: str, key, compute):
        if key is not None:
            if key.ndim != 1:
                return compute()
            key = key.tobytes()
        slot = self.__dict__.get(name)
        if slot is None or slot[0] != key:
            slot = key, compute()
            for v in slot[1] if isinstance(slot[1], tuple) else (slot[1],):
                if isinstance(v, np.ndarray):
                    v.setflags(write=False)
            object.__setattr__(self, name, slot)
        return slot[1]

    def __getstate__(self):  # pickle and copy leave what is kept behind
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


@dataclass(frozen=True)
class Profile(_Keeps):
    """Truncated cosine series c0 + sum_j c_j cos(j*d*t); a fitted one
    carries the fit's max abs error as `fit_residual` (0 for an exact one).

    `jet(t, k)` is a closure bound at construction, the one way in to the
    series: `_clenshaw_kernel` for at most CLENSHAW_MAX_TERMS terms, over
    the series of (-d)^m phi^(m)(q), m = 0..3, as Python floats, where
    phi(q) = sum_j c_j T_j(q), q = cos(d t), is f; `_cosine_kernel` for a
    longer series, a rotation table of e^(i j d t) weighted by (j d)^m c_j
    for each f^(m).  `replace`, `scaled`, pickle and copy bind their own.
    """

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
        kernel = _clenshaw_kernel if len(coeffs) <= CLENSHAW_MAX_TERMS else _cosine_kernel
        object.__setattr__(self, "jet", kernel(self.d, self.cos_coeffs))

    def __reduce__(self):  # a closure does not pickle: bind the jet anew
        return Profile, (self.d, self.cos_coeffs, self.fit_residual)

    def evaluate(self, t, order: int = 0):
        """d^order f / dt^order at t (scalar or array), order 0..3."""
        return self.jet(t, order)[order]

    def stationary_angles(self) -> np.ndarray:
        """Angles in [0, pi/d] where f, f' or f''' + 4 f' may vanish: in
        q = cos(d t), f is the Chebyshev series phi(q) with coefficients c_j,
        f' = -d sin(d t) phi'(q), and f''' + 4 f' is the f' of psi(q) with
        coefficients c_j ((j d)^2 - 4): `_root_angles`' sets for phi, phi'
        and psi', in that order.  Computed once per object; read-only."""
        return self._kept("_angles", None, lambda: np.concatenate(
            [self._root_angles(i) for i in range(3)]))

    def _root_angles(self, i: int):
        """t = arccos(q)/d over the real parts q, clipped to [-1, 1], of the
        roots of phi, phi' or psi' (i = 0, 1, 2), once per object: for at
        most CLENSHAW_MAX_TERMS terms a tuple of floats by numpy's steps
        written out and numpy's scalar arccos (math.acos differs in the last
        bit), else an array by numpy's functions, one companion solve each."""
        return self._kept(f"_roots{i}", None, lambda: self._solve_roots(i))

    def _solve_roots(self, i: int):
        c = self.cos_coeffs
        if i == 2:
            c = tuple(v * ((j * self.d) ** 2 - 4.0) for j, v in enumerate(c))
        if len(c) <= CLENSHAW_MAX_TERMS:
            return tuple(float(np.arccos(min(max(q, -1.0), 1.0))) / self.d
                         for q in _short_roots(_short_chebder(c) if i else c))
        from numpy.polynomial.chebyshev import chebder, chebroots
        from numpy.polynomial.polyutils import trimcoef
        s = chebder(c) if i else np.asarray(c)
        # trailing c_j below eps * max|c| overflow the companion matrix
        q = chebroots(trimcoef(s, EPS * np.max(np.abs(s)))).real
        return np.arccos(np.clip(q, -1.0, 1.0)) / self.d

    def scaled(self, factor: float) -> "Profile":
        """The profile factor*f (coefficient-wise, exact)."""
        return replace(self, cos_coeffs=tuple(factor * c for c in self.cos_coeffs),
                       fit_residual=abs(factor) * self.fit_residual)

    def to_json_dict(self) -> dict:
        out = {"d": self.d, "kind": "cosine", "cos_coeffs": list(self.cos_coeffs)}
        if self.fit_residual:
            out["fit_residual"] = self.fit_residual
        return out


def _check_order(k) -> None:
    if k not in _ORDERS:
        raise ValueError(f"k must be in 0..{MAX_DERIV_ORDER}, got {k}")


def _short_chebder(c: tuple) -> tuple:
    """numpy's `chebder(c)` of a series of at most three floats, by its
    steps, as floats: (c1, 4 c2), (c1), or (0 c0) for a constant."""
    if len(c) == 1:
        return (c[0] * 0.0,)
    return (c[1],) if len(c) == 2 else (c[1], 4.0 * c[2])


def _short_roots(s: tuple) -> list:
    """numpy's `chebroots(trimcoef(s, eps max|s|)).real` of a series of at
    most three floats, as floats: trailing terms not above eps max|s| go,
    then a line's root is its one division and a quadratic's `chebroots`."""
    tol = EPS * max(abs(v) for v in s)
    while len(s) > 1 and not abs(s[-1]) > tol:
        s = s[:-1]
    if len(s) == 3:
        from numpy.polynomial.chebyshev import chebroots
        return chebroots(s).real.tolist()
    return [-s[0] / s[1]] if len(s) == 2 else []


def _short_series(d: int, c: tuple) -> list:
    """The series e_m of (-d)^m phi^(m), m = 0..3, of a series c of at most
    three terms, as tuples of floats, by numpy's `chebder` steps."""
    e = [c]
    for _ in range(MAX_DERIV_ORDER):
        e.append(tuple(-d * v for v in _short_chebder(e[-1])))
    return e


def _clenshaw_kernel(d: int, c: tuple):
    """jet(t, k) of the profile of order d whose series c has at most three
    terms, from the series e_m of (-d)^m phi^(m), m = 1..3 (`_short_series`):
    f = phi, f' = -d s phi', f'' = d^2 (s^2 phi'' - q phi') and
    f''' = d^3 s (phi' + 3 q phi'' - s^2 phi'''), with q = cos(d t) and
    s = sin(d t) from numpy's ufuncs and each series summed by Clenshaw's
    recurrence (MTAC 9, 1955), written out for up to three terms.  A float
    runs on Python floats and any other angle, after `as_angle`, elementwise,
    by the same steps, so a float has the bits of its array row."""
    e = _short_series(d, c)
    n, (c0, c1, c2), (a0, a1) = len(c), (*c, 0.0, 0.0)[:3], (*e[1], 0.0)[:2]
    (b0,), (g0,), d3, dd = e[2], e[3], 3 * d, d * d
    cos, sin, isfinite = np.cos, np.sin, math.isfinite

    def jet(t, k: int) -> tuple:
        scalar = type(t) is float
        if not scalar:
            t = as_angle(t)
            scalar = type(t) is float
        if not (isfinite(t) if scalar else np.isfinite(t).all()):
            raise ValueError("non-finite angle")
        if n == 1:  # f = c0 holds no q
            _check_order(k)
            out = (c0,) + (0.0,) * k
            return out if scalar else tuple(np.full(t.shape, v) for v in out)
        u = d * t
        q = float(cos(u)) if scalar else cos(u)
        # three terms: Clenshaw's b1 = c1 + 2 q c2 and b2 = c2
        f0 = c0 + q * c1 if n == 2 else c0 + q * (c1 + 2.0 * q * c2) - c2
        if k == 0:
            return (f0,)
        s = float(sin(u)) if scalar else sin(u)
        e = a0 if n == 2 else a0 + q * a1
        f1 = s * e
        if k == 1:
            return f0, f1
        s2 = s * s
        f2 = s2 * b0 + d * q * e
        if k == 2:
            return f0, f1, f2
        _check_order(k)
        return f0, f1, f2, s * (s2 * g0 + d3 * q * b0 - dd * e)
    return jet


def _times_d(d: int, t):
    """(hi, lo), hi + lo = d t exactly: 3 t is Knuth's TwoSum of 2 t + t."""
    if d % 3:
        return d * t, 0.0
    hi = 2.0 * t + t
    b = hi - 2.0 * t
    lo = (2.0 * t - (hi - b)) + (t - b)
    return (hi, lo) if d == 3 else (2.0 * hi, 2.0 * lo)


def _cosine_kernel(d: int, c: tuple):
    """jet(t, k) of the profile of order d with the long series c, from one
    rotation table per angle: z = e^(i d t) from one cos and one sin of hi,
    corrected by lo (`_times_d`), then z^j, 0 < j < n, by `np.cumprod`.
    With C and S its real and imaginary parts and w_m = (j d)^m c_j,
    f = c_0 + C w_0, f' = -S w_1, f'' = -C w_2 and f''' = S w_3, one dot
    product per order, c_0 added last.  A float takes the same steps on
    one row, so each row of an array has the bits of its one-angle call."""
    n, freq = len(c), np.arange(1, len(c)) * d
    # order m's signed weights on the real (even m) or imaginary parts of z^j
    weights = np.zeros((MAX_DERIV_ORDER + 1, 2 * n - 2))
    for m, sign in zip(_ORDERS, (1.0, -1.0, -1.0, 1.0)):
        weights[m, m % 2::2] = sign * np.asarray(c[1:]) * freq.astype(float) ** m

    def jet(t, k: int) -> tuple:
        t = as_angle(t)
        scalar = type(t) is float
        if not (math.isfinite(t) if scalar else np.isfinite(t).all()):
            raise ValueError("non-finite angle")
        _check_order(k)
        hi, lo = _times_d(d, t if scalar else t.reshape(-1, 1, 1))
        cos, sin = np.cos(hi), np.sin(hi)
        # a (1, n - 1) row per angle: matmul takes one dot product per row
        z = np.empty((n - 1,) if scalar else (t.size, 1, n - 1), dtype=complex)
        z.real, z.imag = cos - sin * lo, sin + cos * lo
        rows = np.multiply.accumulate(z, axis=-1, out=z).view(float)  # cumprod
        out = [float(rows.dot(w)) if scalar else rows @ w for w in weights[:k + 1]]
        out[0] = c[0] + out[0]
        return tuple(out) if scalar else tuple(v.reshape(t.shape) for v in out)
    return jet


def _pow(x, n: int):
    """x**n (a scalar or element by element) with the C library's pow, as
    Python floats and numpy scalars do.

    numpy's vectorised pow can differ from it in the last bit, so arrays
    computed with this keep the bits of one-point evaluation.
    """
    if not isinstance(x, np.ndarray):
        return x ** n
    return np.array([v ** n for v in x.tolist()])


def as_angle(t):
    """t as a Python float if it is a scalar (a number, a numpy scalar or a
    0-d array), else as a float array: the two paths of every function that
    takes an angle, a float path with the bits of the array path's rows."""
    if isinstance(t, float):
        return float(t)
    t = np.asarray(t, dtype=float)
    return float(t) if t.ndim == 0 else t


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
    stationary angles in [lo, hi]; sectors split at their breaks.  A series
    leaves out phi's roots if f > VALIDITY_MARGIN at the rest: no zero."""
    if isinstance(p, SectorProfile):
        ends = (0.0, *p.breaks, math.pi / p.d)
        return np.hstack([_candidates(piece, max(a, lo), min(b, hi))
                          for piece, a, b in zip(p.pieces, ends, ends[1:])
                          if max(a, lo) < min(b, hi)])
    sets = [p.stationary_angles]
    if isinstance(p, Profile):
        B0 = B1 = B2 = 0.0  # _gate's B_m = sum (j d)^m |c_j|
        for k, a in zip(range(0, len(p.cos_coeffs) * p.d, p.d), map(abs, p.cos_coeffs)):
            B0, B1, B2 = B0 + a, B1 + a * k, B2 + a * k * k
        if not math.isfinite(2.0 * B0 * B2 + B1 * B1 + 4.0 * B0 * B0):  # _gate's G
            raise ValueError("profile coefficients too large: the gap bound 2 B0 B2 + "
                             "B1^2 + 4 B0^2, B_m = sum (j d)^m |c_j|, overflows")
        if len(p.cos_coeffs) <= CLENSHAW_MAX_TERMS:
            return _short_candidates(p, lo, hi)
        sets.insert(0, lambda: np.append(p._root_angles(1), p._root_angles(2)))
    for angles in sets:
        # np.unique's values, by its steps, without the numpy.ma import it makes
        t = np.sort(np.clip(np.append(angles(), (lo, hi)), lo, hi))
        t = t[np.append(True, t[1:] != t[:-1])]
        f0, f1, f2 = p.jet(t, 2)
        if np.min(f0) > VALIDITY_MARGIN:
            break
    return np.array([t, f0, gap_from_jet(f0, f1, f2)])


def _short_candidates(p, lo: float, hi: float) -> np.ndarray:
    """`_candidates` of a series of at most CLENSHAW_MAX_TERMS terms by the
    array path's steps on floats: the root angles' tuples, a sorted set and
    the float jet, which has its array row's bits."""
    angles = p._root_angles(1) + p._root_angles(2)
    for phi in (False, True):  # phi's roots only where f may vanish
        t = sorted({lo, hi, *(min(max(v, lo), hi)
                              for v in angles + (p._root_angles(0) if phi else ()))})
        f0, f1, f2 = zip(*(p.jet(v, 2) for v in t))
        if min(f0) > VALIDITY_MARGIN:
            break
    return np.array([t, f0, list(map(gap_from_jet, f0, f1, f2))])


def is_minkowski(p) -> ValidityReport:
    """Check f > 0 and gap > 0 on [0, pi/d], exactly: on a smooth piece both
    reach their minima at a piece end or where f' or gap' = 2 f (f''' + 4 f')
    vanishes, and there the values come from `jet`; a series solves for
    phi's roots only if f is at most 1e-9 at the ends and the other roots; a
    short one runs on floats (`_short_candidates`), with the arrays' bits.
    A ValueError if a series' gap bound 2 B0 B2 + B1^2 + 4 B0^2 overflows.
    "valid" needs both minima above 1e-9; a sign flip below -1e-9 is
    "invalid"; anything pinched in between is reported as "marginal" rather
    than guessed.  Profiles are frozen, so the report is computed once per
    profile object and kept on it; `replace` and `scaled` build objects
    checked afresh."""
    return p._kept("_validity", None, lambda: _report(p))


def _report(p) -> ValidityReport:
    ts, fs, gaps = _candidates(p, 0.0, math.pi / p.d)
    i = int(gaps.argmin())
    min_f, min_gap, arg_gap = float(fs.min()), float(gaps[i]), ts[i]

    if min_f > VALIDITY_MARGIN and min_gap > VALIDITY_MARGIN:
        status = "valid"
    elif min_f < -VALIDITY_MARGIN or min_gap < -VALIDITY_MARGIN:
        status = "invalid"
    else:
        status = "marginal"
    return ValidityReport(valid=(status == "valid"), status=status,
                          min_f=min_f, min_gap=min_gap, argmin=float(arg_gap))


def _gate(p) -> bool:
    """Whether samples certify a series of n terms valid, with no roots:
    f, f', f'' at t_i = i pi/(d N), N = max(256, 8n), by one irfft; between
    samples g >= min(g_i, g_i+1) - h^2/8 max|g''|, h = pi/(d N), |f''| <= B2,
    |gap''| <= 2B0B4 + 2B1B3 + 8B0B2 + 8B1^2, B_m = sum (j d)^m |c_j|.  Less
    2r B0 and 6r G (r = 16 N eps covers the irfft's and the exact jet's
    rounding; README), True means `is_minkowski` can only say "valid"."""
    c, d = np.asarray(p.cos_coeffs), p.d
    N, k = max(256, 8 * len(c)), np.arange(len(c)) * float(d)
    # f^(m) = Re sum (i k)^m c_k e^(i k t); irfft pads the spectrum to N + 1
    spec = np.where(k, N, 2 * N) * c * (1j * k) ** np.arange(3)[:, None]
    f0, f1, f2 = np.fft.irfft(spec, 2 * N)[:, :N + 1]
    B0, B1, B2, B3, B4 = (float(abs(c) @ k ** m) for m in range(5))
    r, G = 16 * N * EPS, 2.0 * B0 * B2 + B1 * B1 + 4.0 * B0 * B0
    h2 = (1.0 + r) * (math.pi / (d * N)) ** 2 / 8.0  # 1 + r: the B_m's rounding
    return bool(f0.min() - h2 * B2 - 2.0 * r * B0 > VALIDITY_MARGIN and
                gap_from_jet(f0, f1, f2).min() - 6.0 * r * G - h2 * (
                    2.0 * B0 * B4 + 2.0 * B1 * B3 + 8.0 * (B0 * B2 + B1 * B1))
                > VALIDITY_MARGIN)


def _certified(p) -> bool:
    """`_gate`'s verdict on a long plain series, kept on p; False if p keeps a report."""
    return (isinstance(p, Profile) and len(p.cos_coeffs) > CLENSHAW_MAX_TERMS
            and p._kept("_gate", None, lambda: not hasattr(p, "_validity") and _gate(p)))


def require_minkowski(p, what: str) -> None:
    """Raise ValueError, starting with `what`, if is_minkowski calls p invalid."""
    report = None if _certified(p) else is_minkowski(p)
    if report and report.status == "invalid":
        raise ValueError(f"{what} (min_f={report.min_f:.3g}, "
                         f"min_gap={report.min_gap:.3g})")


def lobatto_fit(d: int, values, max_terms: int = FIT_MAX_TERMS):
    """(profile, coeffs) of values at np.linspace(0, pi/d, N + 1), the Lobatto
    points of q = cos(d t): all N + 1 coeffs of the interpolant are one DCT-I
    (Trefethen, ATAP, ch. 3), and the profile keeps `sampled_profile`'s term
    count and its error at the samples, by one irfft, as `fit_residual`;
    a ValueError if max_terms is below 1."""
    if max_terms < 1:
        raise ValueError(f"max_terms must be at least 1, got {max_terms}")
    v = np.asarray(values, dtype=float)
    n, n_terms = len(v) - 1, min(max_terms, max(1, len(v) // 2))
    spec = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real  # even extension
    err = np.fft.irfft(spec * (np.arange(n + 1) < n_terms), 2 * n)[:n + 1] - v
    coeffs = spec / n
    coeffs[[0, -1]] /= 2.0
    return Profile(d, coeffs[:n_terms], float(np.max(np.abs(err)))), coeffs


def chop_count(coeffs) -> int:
    """How many leading coefficients resolve a series to eps: Aurentz and
    Trefethen's standardChop (ACM TOMS 43, 2017); all if none plateau."""
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    n, floor = len(env), EPS ** (7 / 6)
    if n < 17 or not env[0]:
        return n if n < 17 else 1
    env = (env / env[0]).tolist()
    for j in range(2, n + 1):  # 1-based; a plateau follows point j - 1
        j2, e1 = int(1.25 * j + 5.5), env[j - 1]
        if j2 > n:
            return n
        if not e1 or env[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(EPS)):
            break
    j2 = min(j2, sum(e >= floor for e in env) + 1)
    env[j2 - 1] = max(env[j2 - 1], floor)
    tilt = np.log10(env[:j2]) - np.linspace(0.0, math.log10(EPS) / 3.0, j2)
    return max(int(np.argmin(tilt)), 1)


def sampled_profile(d: int, ts, values, max_terms: int = FIT_MAX_TERMS) -> Profile:
    """Least-squares fit of values(ts) in the basis cos(j*d*t), j < max_terms,
    its max abs error at the samples as `fit_residual`; ts need not be uniform
    (the legacy "sampled" JSON kind's need: every other fit is `lobatto_fit`)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    n_terms = min(max_terms, max(1, len(ts) // 2))
    design = np.cos(np.multiply.outer(ts, np.arange(n_terms) * d))
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = float(np.max(np.abs(design @ coeffs - values)))
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
    return lobatto_fit(d, 0.5 * raw * raw)[0]


def dihedral_fold(t, d: int):
    """Map t (scalar or array) to (tau, sign) with tau in [0, pi/d] and, for
    any profile of order d, f(t) = f(tau) and f'(t) = sign * f'(tau)."""
    t = as_angle(t)
    period = 2.0 * math.pi / d
    if isinstance(t, float):
        if not math.isfinite(t):
            raise ValueError("non-finite angle")
        tau, sign = abs(t) % period, 1.0 if t >= 0 else -1.0
        return (period - tau, -sign) if tau > period / 2.0 else (tau, sign)
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite angle")
    tau = np.abs(t) % period
    sign = np.where(t >= 0, 1.0, -1.0)
    upper = tau > period / 2.0
    return np.where(upper, period - tau, tau), np.where(upper, -sign, sign)


def _piece_jets(breaks, jets, t: np.ndarray, k: int) -> np.ndarray:
    """(k + 1, *t.shape) array of jets[i](t[piece i], k), piece i from
    breaks[i - 1] to breaks[i]: the piece lookup of sector profiles and
    piecewise theta maps, where a break belongs to the piece on its right."""
    idx = np.searchsorted(breaks, t, side="right")
    out = np.empty((k + 1,) + t.shape)
    for i, jet in enumerate(jets):
        mask = idx == i
        if mask.any():
            out[:, mask] = jet(t[mask], k)
    return out


@dataclass(frozen=True)
class SectorProfile(_Keeps):
    """Profile assembled from per-sector pieces on the fundamental interval.

    `breaks` are the switch angles inside (0, pi/d); piece i is used on
    [breaks[i-1], breaks[i]) (`_piece_jets`).  Evaluation folds t into
    [0, pi/d] by dihedral symmetry first, so the assembled function is
    automatically even and 2*pi/d periodic.  Pieces are full Profiles
    (globally defined); continuity across switch angles is the constructor's
    responsibility and is checked numerically by the glue code, not here.
    """

    d: int
    breaks: tuple[float, ...]
    pieces: tuple[Profile, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 pieces")
        if any(p.d != self.d for p in self.pieces):
            raise ValueError("piece symmetry order mismatch")
        ends = (0.0, *self.breaks, math.pi / self.d)
        for i, b in enumerate(self.breaks):  # a NaN fails both tests
            if not ends[i] < b < ends[-1]:
                raise ValueError(f"sector profile break {i} is {b!r}: breaks must be "
                                 f"finite, strictly increasing and inside (0, pi/{self.d})")

    def evaluate(self, t, order: int = 0):
        return self.jet(t, order)[order]

    def jet(self, t, k: int):
        """(f, ..., f^(k)) at t: one fold, then each piece's jet on its points."""
        _check_order(k)
        t = np.asarray(t, dtype=float)
        tau, sign = dihedral_fold(t.reshape(-1), self.d)
        out = _piece_jets(self.breaks, [p.jet for p in self.pieces], tau, k)
        out *= sign ** np.arange(k + 1)[:, None]
        return tuple(float(v[0]) if t.ndim == 0 else v.reshape(t.shape)
                     for v in out)

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
