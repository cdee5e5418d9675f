"""Hessian isometries between norms induced by the same foliation.

A triple (f, theta, h) encodes the candidate isometry
Phi(r, t, xi) = (r sqrt(f(t)/h(theta(t))), theta(t), xi) in the adapted
spherical presentation.  The triple is an actual isometry of the Hessian
metrics iff the coupled ODE system vanishes: one second-order equation
tying the radial curvature data of f and h through theta', plus one
first-order equation per dihedral direction k = 0..d-1.

The second family admits a quadratic reduction in theta' whose two roots
are the "identity-like" and "Legendre-like" branches; gluing the two
branch maps across bands where the base profile is round produces the
piecewise constructions checked by classify_sectors.

A map `phi` handed to the metric checks takes rows, like `fun` in fd.py: an
(m, n) array of points in, their (m, n) images out.  lift_to_nd's map,
planar_lift_map's (Phi on a normal plane, theta extended past [0, pi/d] by
the profiles' fold, `dihedral_fold`), project_out, planar `fundamental_tensor`
and `ode_residuals` on m angles (a (d+1, m) array) keep one-row bits per row.
lift_to_nd's map also carries its exact differential, `phi.jacobian`, which
check_hessian_isometry takes where it differences any other map.
A theta map has one reader, `_read_theta`: one dispatch on its kind and one
loop over a piecewise map's pieces (`profile._piece_rows`).  `theta_jet` hands
it nothing, so f is jetted only on a Legendre piece's rows; `ode_residuals`,
the lifts, `classify_sectors` and `build_h_from_theta` hand it one jet of f
and one sin/cos of t for all rows (`_h_at_theta`), and the exact and glued
Legendre triples' h is closed-form at t: no angle is solved.
`ode_residuals` of one angle is one pass on floats
(`_one_angle_residuals`) through the array path's entry functions.
check_d_property splits R^n = V' + V'' by one orthonormal basis of V'
(`Decomposition`): a unit vector, (cos a, sin a) in the plane, or k columns.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .planar import (DualProfile, PlanarNorm, _dual_from_jet, _plane_polar, _sin_cos,
                     _theta_from_jet, _unwrap_to, fundamental_tensor, legendre_num_den,
                     legendre_ode_rhs)
from .profile import (Profile, SectorProfile, _piece_rows, as_angle, dihedral_fold,
                      gap_from_jet, json_field, lobatto_fit, profile_from_json_dict,
                      require_minkowski)

if TYPE_CHECKING:  # the foliation layer loads where a lift or check runs
    from .foliation import FoliationModel

THETA_KINDS = ("identity", "linear", "legendre", "scaled-legendre",
               "sampled", "piecewise")
INTERIOR_GUARD = 1e-3
CLASSIFY_TOL = 1e-6
DEFAULT_BAND_WIDTH = 0.02
ROUND_BAND_TOL = 1e-6
BRANCH_STEPS = 4096          # integrate_branch's RK4 steps
JACOBIAN_STEP = 1e-5         # check_hessian_isometry's FD step, times |x|
LIFT_FOCAL_GUARD = 0.02      # lift_to_nd's normal-geodesic focal guard
BUMP_GRID, BUMP_TERMS = 8192, 96  # bump_profile's sample grid and series

IDENTITY_TYPE = "identity"
LEGENDRE_TYPE = "legendre"
TRANSITION = "transition"


@dataclass(frozen=True)
class ThetaMap:
    """Monotone equivariant angle map on the principal sector (0, pi/d).

    kinds: identity; linear(a,b) = atan2(b sin t, a cos t); legendre
    (angle of the gradient of E); scaled-legendre(a,b); sampled (monotone
    cubic through grid/values); piecewise (list of (lo, hi, sub-map)).
    """

    kind: str
    params: tuple[float, ...] = ()
    grid: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None
    pieces: tuple = ()

    def __post_init__(self):
        if self.kind not in THETA_KINDS:
            raise ValueError(f"unknown theta kind {self.kind!r}")
        if self.kind in ("linear", "scaled-legendre"):
            if len(self.params) != 2 or not all(0 < v < math.inf for v in self.params):
                raise ValueError(f"{self.kind} theta needs two positive finite "
                                 f"parameters, got {self.params!r}")
        elif self.params:  # legendre would read them as scaled-legendre's
            raise ValueError(f"{self.kind} theta takes no parameters, got {self.params!r}")
        if self.kind != "sampled" and (self.grid is not None or self.values is not None):
            raise ValueError(f"{self.kind} theta takes no grid or values, "
                             f"got {self.grid!r} and {self.values!r}")
        if self.kind != "piecewise" and self.pieces:  # the JSON would drop them
            raise ValueError(f"{self.kind} theta takes no pieces, got {self.pieces!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind == "sampled":
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.shape != v.shape or len(g) < 4:
                raise ValueError("sampled theta needs matching grid/values, >= 4 nodes")
            if np.any(np.diff(g) <= 0) or np.any(np.diff(v) <= 0):
                raise ValueError("sampled theta must be strictly increasing")
            object.__setattr__(self, "grid", tuple(float(x) for x in g))
            object.__setattr__(self, "values", tuple(float(x) for x in v))
        if self.kind == "piecewise":
            if not self.pieces:
                raise ValueError("piecewise theta needs at least one piece")
            lo_prev = None
            for i, (lo, hi, sub) in enumerate(self.pieces):
                if not isinstance(sub, ThetaMap) or sub.kind == "piecewise":
                    raise ValueError("pieces must be non-piecewise ThetaMaps")
                # a NaN fails every comparison, an infinite end the outer ones
                if not -math.inf < lo < hi < math.inf or (
                        lo_prev is not None and abs(lo - lo_prev) > 1e-9):
                    raise ValueError(f"piecewise theta piece {i} is [{lo!r}, {hi!r}]: "
                                     f"pieces must be finite, contiguous and ordered")
                lo_prev = hi


def identity_map() -> ThetaMap:
    return ThetaMap(kind="identity")


def legendre_map_tag() -> ThetaMap:
    return ThetaMap(kind="legendre")


def theta_jet(tm: ThetaMap, f: Profile, t, k: int):
    """(theta,) for k = 0 or (theta, theta') for k = 1 at t, like
    `Profile.jet`: floats for a scalar t, arrays of t's shape otherwise; by
    the one reader of theta maps (`_read_theta`), which jets f only on the
    rows of a Legendre piece."""
    if k not in (0, 1):
        raise ValueError("theta maps support k = 0 and 1 only")
    return _read_theta(tm, f, as_angle(t), k)[0]


def _read_theta(tm: ThetaMap, f: Profile, t, k: int, fj=None, sc=None, h=None,
                hk: int = 0):
    """(theta's jet to order k, h's jet to order hk at theta(t), or None for
    no h) at t: the one reader of a theta map, by its kind.  f's jet to order
    k + 1 (fj) and (sin t, cos t) (sc) at t are taken where a kind reads them
    and they are not handed in.  A piecewise map reads each piece on its rows
    (`_piece_rows`: a break is its right piece's), with their slices of fj
    and sc.  h is closed-form (`_dual_from_jet`) on a Legendre piece whose h,
    or the same piece of a `SectorProfile` with theta's breaks, is a
    `DualProfile` of f, so the exact and glued Legendre triples solve no
    angle; the other rows read h at theta(t) in one call.  A float stays on
    floats, but the sampled and piecewise kinds read it as a one-row array;
    either way it has its row's bits."""
    if isinstance(t, float) and tm.kind in ("sampled", "piecewise"):
        row = lambda vs: vs and [np.array([v]) for v in vs]  # None stays None
        return tuple(vs and tuple(float(v[0]) for v in vs) for vs in _read_theta(
            tm, f, np.array([t]), k, row(fj), row(sc), h, hk))
    if tm.kind == "piecewise":
        breaks = tuple(hi for _, hi, _ in tm.pieces[:-1])
        hs = (h.pieces if isinstance(h, SectorProfile) and h.breaks == breaks
              else [h] * len(tm.pieces))
        th, hj = np.empty((k + 1,) + t.shape), np.empty((hk + 1,) + t.shape)
        rest = np.full(t.shape, h is not None)  # the rows that read h at theta
        for i, rows in _piece_rows(breaks, t):
            sub, cut = tm.pieces[i][2], lambda vs: vs and [v[rows] for v in vs]
            exact = sub.kind == "legendre" and _dual_of(f, hs[i])
            th[:, rows], closed = _read_theta(sub, f, t[rows], k, cut(fj), cut(sc),
                                              hs[i] if exact else None, hk)
            if closed is not None:
                hj[:, rows], rest[rows] = closed, False
        if rest.any():
            hj[:, rest] = h.jet(th[0][rest], hk)
        return tuple(th), None if h is None else tuple(hj)
    if tm.kind == "identity":
        th = ((t, 1.0) if isinstance(t, float) else (t.copy(), np.ones_like(t)))[:k + 1]
    elif tm.kind == "linear":
        th = _linear_theta(t, *(sc or _sin_cos(t)), *tm.params)[:k + 1]
    elif tm.kind == "sampled":
        th = tuple(_pchip(np.asarray(tm.grid), np.asarray(tm.values), t, order)
                   for order in range(k + 1))
    else:  # legendre and scaled-legendre
        fj = fj or f.jet(t, k + 1)
        th = _theta_from_jet(fj, *(sc or _sin_cos(t)), t, *(tm.params or (1.0, 1.0)), k)
        if tm.kind == "legendre" and _dual_of(f, h):
            return th, _dual_from_jet(fj, hk, h.scale)
    return th, None if h is None else h.jet(th[0], hk)


def _dual_of(f: Profile, h) -> bool:  # field equality: JSON too
    return isinstance(h, DualProfile) and (h.base is f or h.base == f)


def _linear_theta(t, sin, cos, a: float, b: float):
    """(theta, theta') of linear(a, b) at t from (sin t, cos t):
    atan2(b sin t, a cos t), branch-corrected, and ab / (a^2 cos^2 t + b^2 sin^2 t)."""
    return (_unwrap_to(t, np.arctan2(b * sin, a * cos)),
            a * b / (a * a * (cos * cos) + b * b * (sin * sin)))


def _pchip(x, y, t, order: int):
    """Monotone cubic Hermite interpolant through (x, y) (Fritsch & Carlson,
    SIAM J. Numer. Anal. 17, 1980), or its derivative (order 1), at t; the end
    cubics extrapolate.  Each step is scipy's PchipInterpolator's, bit for bit,
    for x and y strictly increasing with >= 4 nodes, as `ThetaMap` requires:
    every secant is then positive, so scipy's zero slope at a flat run or a
    sign change, and its cap on the end slopes, never apply."""
    h = np.diff(x)
    m = np.diff(y) / h
    # inside: weighted harmonic mean of the secants
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    dk = np.empty_like(y)
    dk[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))

    def edge(h0, h1, m0, m1):  # one-sided three-point slope, 0 if not positive
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        return e if e > 0 else 0.0
    dk[0] = edge(h[0], h[1], m[0], m[1])
    dk[-1] = edge(h[-1], h[-2], m[-1], m[-2])
    tt = (dk[:-1] + dk[1:] - 2 * m) / h
    c = [tt / h, (m - dk[:-1]) / h - tt, dk[:-1], y[:-1]]
    if order == 1:
        c = [3 * c[0], 2 * c[1], c[2]]
    i = np.clip(np.searchsorted(x, t, "right") - 1, 0, len(x) - 2)
    s = t - x[i]
    out, z = c[-1][i], 1.0  # ascending powers, as scipy sums (not Horner)
    for ck in c[-2::-1]:
        z = z * s
        out = out + ck[i] * z
    return out


def theta_to_json_dict(tm: ThetaMap) -> dict:
    d: dict = {"kind": tm.kind}
    if tm.kind in ("linear", "scaled-legendre"):
        d["a"], d["b"] = tm.params
    elif tm.kind == "sampled":
        d["grid"] = list(tm.grid)
        d["values"] = list(tm.values)
    elif tm.kind == "piecewise":
        d["pieces"] = [{"lo": lo, "hi": hi, "map": theta_to_json_dict(sub)}
                       for lo, hi, sub in tm.pieces]
    return d


def theta_from_json_dict(d: dict) -> ThetaMap:
    field = lambda key, want, data=d: json_field(data, key, "theta map", want)
    kind = field("kind", "string")
    if kind in ("linear", "scaled-legendre"):
        return ThetaMap(kind=kind, params=(field("a", "number"), field("b", "number")))
    if kind == "sampled":
        return ThetaMap(kind=kind, grid=tuple(field("grid", "numbers")),
                        values=tuple(field("values", "numbers")))
    if kind == "piecewise":
        pieces = tuple((field("lo", "number", p), field("hi", "number", p),
                        theta_from_json_dict(field("map", "object", p)))
                       for p in field("pieces", "array"))
        return ThetaMap(kind=kind, pieces=pieces)
    return ThetaMap(kind=kind)


@dataclass(frozen=True)
class IsometryTriple:
    f: Profile
    h: Profile
    theta: ThetaMap

    def __post_init__(self):
        if self.f.d != self.h.d:
            raise ValueError("f and h must share the dihedral order d")
        pieces = self.theta.pieces  # _read_theta would extend the end ones
        for i, at, want in ((0, 0, 0.0), (len(pieces) - 1, 1, math.pi / self.f.d)):
            if pieces and abs(pieces[i][at] - want) > 1e-9:
                raise ValueError(f"piecewise theta piece {i} is [{pieces[i][0]!r}, "
                                 f"{pieces[i][1]!r}]: pieces must cover [0, pi/{self.f.d}]")


def triple_to_json_dict(tr: IsometryTriple) -> dict:
    return {"f": tr.f.to_json_dict(),
            "h": tr.h.to_json_dict(),
            "theta": theta_to_json_dict(tr.theta)}


def triple_from_json_dict(d: dict) -> IsometryTriple:
    field = lambda key: json_field(d, key, "triple", "object")
    return IsometryTriple(f=profile_from_json_dict(field("f")),
                          h=profile_from_json_dict(field("h")),
                          theta=theta_from_json_dict(field("theta")))


def load_triple(path) -> IsometryTriple:
    with open(path) as fh:
        return triple_from_json_dict(json.load(fh))


def save_triple(tr: IsometryTriple, path) -> None:
    with open(path, "w") as fh:
        json.dump(triple_to_json_dict(tr), fh, indent=2, sort_keys=True)


# --- the ODE system ---------------------------------------------------------


def _h_at_theta(f: Profile, theta: ThetaMap, t, k: int, h=None, hk: int = 0):
    """(theta's jet to order k, f's jet to k + 1, h's jet to hk at theta(t)
    or None for no h, (sin t, cos t)) at t, from one jet of f and one sin/cos
    of t, which `_read_theta` reads by t-piece."""
    fj, sc = f.jet(t, k + 1), _sin_cos(t)
    th, hj = _read_theta(theta, f, t, k, fj, sc, h, hk)
    return th, fj, hj, sc


def _second_entry(fj, hj, thp):
    """Entry 0 from f's jet at t, h's at theta(t) and theta'(t)."""
    (f0, f1, f2), (h0, h1, h2) = fj, hj
    lhs2 = f2 / (2 * f0) - f1 * f1 / (4 * f0 * f0) + 1.0
    return lhs2 - thp * thp * (h2 / (2 * h0) - h1 * h1 / (4 * h0 * h0) + 1.0)


def _dihedral_entry(sf, cf, f0, f1, sh, ch, h0, h1):
    """Entry 1 + k from sin, cos of t + k pi/d (sf, cf) and theta + k pi/d (sh, ch)."""
    return (sf * sf + sf * cf * f1 / (2 * f0)) - (sh * sh + sh * ch * h1 / (2 * h0))


def ode_residuals(tr: IsometryTriple, t) -> np.ndarray:
    """Left-minus-right of the isometry ODE system at t: length d+1 for a
    scalar t (`_one_angle_residuals`), shape (d+1, m) for a 1-D array of m
    angles.  theta, f and h at t are `_h_at_theta`'s, by t-piece, so the exact
    and glued Legendre triples solve no angle, any other dual h one array.

    Entry 0 is the second-order equation linking the curvature data of f
    and h through theta'; entries 1..d are the dihedral first-order
    equations (one per k).  All vanish iff the triple is a Hessian isometry.
    """
    t = as_angle(t)
    if isinstance(t, float):
        return _one_angle_residuals(tr, t)
    tc = t.reshape(-1, 1)  # m angles as a column, against the row of k pi/d
    (th, thp), fj, hj, _ = _h_at_theta(tr.f, tr.theta, tc, 1, tr.h, 2)
    tau = np.arange(tr.f.d) * math.pi / tr.f.d
    return np.hstack([_second_entry(fj, hj, thp), _dihedral_entry(
        *_sin_cos(tc + tau), fj[0], fj[1], *_sin_cos(th + tau), hj[0], hj[1])]).T


def _one_angle_residuals(tr: IsometryTriple, t: float) -> np.ndarray:
    """ode_residuals at one angle on floats, with its row's bits: `_h_at_theta`,
    then the entry functions at t + k pi/d and theta + k pi/d (t, theta at k = 0)
    with `_sin_cos` written out, whose 2d - 1 calls would add 4-14 % at d <= 3."""
    (th, thp), fj, hj, (sf, cf) = _h_at_theta(tr.f, tr.theta, t, 1, tr.h, 2)
    d, (f0, f1, _), (h0, h1, _), sin, cos = tr.f.d, fj, hj, np.sin, np.cos
    out = [_second_entry(fj, hj, thp),
           _dihedral_entry(sf, cf, f0, f1, float(sin(th)), float(cos(th)), h0, h1)]
    for k in range(1, d):
        a, b = t + k * math.pi / d, th + k * math.pi / d
        out.append(_dihedral_entry(float(sin(a)), float(cos(a)), f0, f1,
                                   float(sin(b)), float(cos(b)), h0, h1))
    return np.array(out)


# quadratic_and_roots warns about d <= 2 once per process
_low_d_warned = False


class QuadraticReduction(NamedTuple):
    A: float
    B: float
    C: float
    roots: tuple[float, float]


def quadratic_and_roots(f: Profile, t: float, theta: float) -> QuadraticReduction:
    """Coefficients of the quadratic in theta' obtained by eliminating h,
    plus its two closed-form roots (identity-like and Legendre-like).

    Raises when the leading coefficient degenerates; outside d > 2 the
    nonvanishing of A is not guaranteed, which is reported as a warning
    (once per process).
    """
    f0, f1, f2 = f.jet(t, 2)
    ct, st = math.cos(t), math.sin(t)
    cth, sth = math.cos(theta), math.sin(theta)
    cs = ct * st
    N, D = legendre_num_den(f0, f1, st, ct)

    A = -cs * N * D / (2 * f0 * f0 * cth * cth * sth * sth)
    B = (cs * f2 / f0 - cs * f1 * f1 / (f0 * f0)
         + (ct * ct - st * st) * f1 / f0 + 4 * cs) / (cth * sth)
    C = -f2 / f0 + f1 * f1 / (2 * f0 * f0) - 2.0

    global _low_d_warned
    if f.d <= 2 and not _low_d_warned:
        _low_d_warned = True
        warnings.warn("nonvanishing of the leading coefficient is only "
                      "guaranteed for d > 2", stacklevel=2)
    if abs(A) < 1e-12:
        raise ValueError(f"degenerate quadratic: |A| = {abs(A):.3e} < 1e-12")

    r1 = cth * sth / cs
    r2 = gap_from_jet(f0, f1, f2) * cth * sth / (N * D)
    return QuadraticReduction(A=A, B=B, C=C, roots=(r1, r2))


class BranchSolution(NamedTuple):
    ts: np.ndarray
    thetas: np.ndarray


def integrate_branch(f: Profile, branch: str, t0: float, theta0: float,
                     t1: float) -> BranchSolution:
    """Fixed-step RK4 for theta(t) along branch "one"
    (theta' = cos sin theta / cos sin t) or "two" (the Legendre-root ODE)."""
    branch = branch.lower()
    if branch not in ("one", "two"):
        raise ValueError("branch must be 'one' or 'two'")
    d = f.d
    hi = math.pi / d

    if branch == "one":
        rhs = lambda t, th: math.cos(th) * math.sin(th) / (math.cos(t) * math.sin(t))
    else:
        rhs = lambda t, th: legendre_ode_rhs(f, t, th)

    ts = np.linspace(t0, t1, BRANCH_STEPS + 1)
    dt = (t1 - t0) / BRANCH_STEPS
    thetas = np.empty(BRANCH_STEPS + 1)
    th = float(theta0)
    thetas[0] = th
    for i, t in enumerate(ts[:-1].tolist()):  # Python floats: the float path
        k1 = rhs(t, th)
        k2 = rhs(t + dt / 2, th + dt * k1 / 2)
        k3 = rhs(t + dt / 2, th + dt * k2 / 2)
        k4 = rhs(t + dt, th + dt * k3)
        th = th + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        if not (0.0 < th < hi):
            raise ValueError(f"theta left the sector (0, pi/{d}) at t={ts[i+1]:.4f}")
        thetas[i + 1] = th
    return BranchSolution(ts=ts, thetas=thetas)


def _cumulative_simpson(y, x):
    """Integral of the samples y(x) from x[0] to each x[i], starting at 0, by
    scipy's cumulative_simpson rule for unequal intervals, bit for bit, for
    at least 3 samples: `build_h_from_theta`'s grid_size >= 4 gives each of
    its two halves that many."""
    dx = np.diff(x)

    def pieces(y, dx):  # each interval by the parabola through it and the next
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        q = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + q + x21_x31) * y[1:-1]
                          - q * y[2:])
    # odd intervals and the last one take the parabola to their left
    bwd = pieces(y[::-1], dx[::-1])[::-1]
    sub = np.empty(len(dx))
    sub[:-1:2] = pieces(y, dx)[::2]
    sub[1::2] = bwd[::2]
    sub[-1] = bwd[-1]
    return np.concatenate([[0.0], np.cumsum(sub)])


def build_h_from_theta(f: Profile, theta: ThetaMap, theta0: float, h0: float,
                       grid_size: int = 2048) -> Profile:
    """Integrate the k=0 dihedral equation for log h along theta(t).

    Anchored by h(theta(theta0)) = h0.  log h is read at the Lobatto nodes
    np.linspace(0, pi/d, grid_size + 1) (`_lobatto_log_h`) and h there takes
    one DCT (`lobatto_fit`), whose `fit_residual` is its error at the nodes.
    """
    if not 0.0 < h0 < math.inf:  # NaN and inf fail too
        raise ValueError(f"h0 must be a positive finite number, got {h0!r}")
    if grid_size < 4:  # each half-grid needs 3 points for Simpson's rule
        raise ValueError(f"grid_size must be >= 4, got {grid_size}")
    d = f.d
    lo, hi = INTERIOR_GUARD, math.pi / d - INTERIOR_GUARD
    if not (lo < theta0 < hi):
        raise ValueError("theta0 must be interior to the sector")

    def integrand(ts):  # the integrand on ts, and theta and theta' there
        (th, thp), (f0, f1, _), _, (sin, cos) = _h_at_theta(f, theta, ts, 1)
        sth, cth = _sin_cos(th)
        with np.errstate(divide="ignore", invalid="ignore"):
            rhs = (2 * sin ** 2 + sin * cos * f1 / f0) / (sth * cth) - 2 * np.tan(th)
            vals = rhs * thp
        # theta = pi/2 (reachable only inside d=1 sectors) is a removable
        # 0/0 of the quotient; rebuild isolated hits from a local quadratic
        # through healthy neighbours (the hit may sit at an array edge, so
        # plain interpolation would clamp).
        sick = np.flatnonzero(np.abs(cth) < 1e-6)
        if sick.size and sick.size < ts.size - 4:
            healthy = np.flatnonzero(np.abs(cth) >= 1e-6)
            for i in sick:
                near = healthy[np.argsort(np.abs(ts[healthy] - ts[i]))[:5]]
                vals[i] = np.polyfit(ts[near] - ts[i], vals[near], 2)[-1]
        return vals, th, thp

    half = grid_size // 2
    t_fwd = np.linspace(theta0, hi, half + 1)
    t_bwd = np.linspace(lo, theta0, half + 1)
    (v_fwd, th_fwd, p_fwd), (v_bwd, th_bwd, p_bwd) = integrand(t_fwd), integrand(t_bwd)
    log_fwd = _cumulative_simpson(v_fwd, t_fwd)
    log_bwd = _cumulative_simpson(v_bwd, t_bwd)
    log_bwd -= log_bwd[-1]          # re-anchor at theta0
    logs = np.concatenate([log_bwd, log_fwd[1:]]) + math.log(h0)
    if not np.all(np.isfinite(logs)) or np.max(np.abs(logs)) > 50:
        raise ValueError("log h blew up along the integration: invalid theta map")
    th = np.concatenate([th_bwd, th_fwd[1:]])
    if not np.all(np.diff(th) > 0):  # the Lobatto nodes are read by searchsorted
        raise ValueError("theta does not increase along the integration: invalid "
                         "theta map, or a Legendre map of an invalid profile")
    slope = np.concatenate([v_bwd / p_bwd, (v_fwd / p_fwd)[1:]])  # d log h / d theta
    return lobatto_fit(d, np.exp(_lobatto_log_h(d, grid_size, th, logs, slope)))[0]


def _lobatto_log_h(d: int, n: int, th, logs, slope) -> np.ndarray:
    """log h at np.linspace(0, pi/d, n + 1) from its values and slopes at the
    increasing th: the cubic Hermite interpolant inside, and past each end
    sample, as h is even about 0 and pi/d, the quadratic in (theta - end)^2
    through the two end samples with the end slope."""
    nodes = np.linspace(0.0, math.pi / d, n + 1)
    i = np.clip(np.searchsorted(th, nodes) - 1, 0, len(th) - 2)
    w = th[i + 1] - th[i]
    s = (nodes - th[i]) / w
    out = (logs[i] + s * (w * slope[i] + s * (
        3 * (logs[i + 1] - logs[i]) - w * (2 * slope[i] + slope[i + 1])
        + s * (2 * (logs[i] - logs[i + 1]) + w * (slope[i] + slope[i + 1])))))
    for end, at, edge in ((nodes < th[0], [0, 1], 0.0),
                          (nodes > th[-1], [-1, -2], math.pi / d)):
        (u0, u1), (l0, l1) = (th[at] - edge) ** 2, logs[at]
        b0 = slope[at[0]] / (2 * (th[at[0]] - edge))  # d log h / du at u0
        c = ((l1 - l0) / (u1 - u0) - b0) / (u1 - u0)
        u = (nodes[end] - edge) ** 2
        out[end] = l0 + (u - u0) * (b0 + c * (u - u0))
    return out


# --- pointwise metric checks -------------------------------------------------


def _tensor_at(norm, x) -> np.ndarray:
    """The closed-form fundamental tensor at each row of x, shape (m, n, n)."""
    if isinstance(norm, PlanarNorm):
        return fundamental_tensor(norm, x)
    from .hessian import closed_fundamental_tensor
    return closed_fundamental_tensor(norm, x)


def _sample_points(norm, samples: int, seed: int) -> np.ndarray:
    """Rows r u: (t, r) of every sample from one draw, u at angle t in the
    plane, or on the leaf M_t from one random_leaf_points call."""
    if samples < 1:
        raise ValueError(f"a metric check needs samples >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    planar = isinstance(norm, PlanarNorm)
    guard = 0.05 if planar else 0.1
    t, r = rng.uniform([guard, 0.6], [math.pi / norm.profile.d - guard, 1.4],
                       (samples, 2)).T
    if planar:
        return r[:, None] * np.column_stack([np.cos(t), np.sin(t)])
    from .foliation import random_leaf_points
    return r[:, None] * random_leaf_points(norm.foliation, t, samples,
                                           seed=int(rng.integers(2 ** 31)))


class IsometryCheck(NamedTuple):
    max_metric_residual: float


def check_hessian_isometry(norm1, norm2, phi: Callable,
                           samples: int = 20, seed: int = 0) -> IsometryCheck:
    """Max over samples and basis pairs of |g1(u,v) - g2(dPhi u, dPhi v)|.

    phi maps an (m, n) array of points to their (m, n) images.  A map with
    a `jacobian` (lift_to_nd's) gives the images and their exact dPhi in one
    call; any other map is called once, on the samples x and their
    neighbours x +- step e_i (step = JACOBIAN_STEP |x|), and differenced.
    g1 and g2 are closed forms, one call each; g2's from the images alone.
    """
    X = _sample_points(norm1, samples, seed)
    if hasattr(phi, "jacobian"):
        Y, J = phi.jacobian(X)
    else:
        from .foliation import _sqnorm
        k, n = X.shape
        step = JACOBIAN_STEP * np.sqrt(_sqnorm(X))[:, None, None]
        E = step * np.eye(n)
        Y = np.asarray(phi(np.concatenate([X, (X[:, None] + E).reshape(-1, n),
                                           (X[:, None] - E).reshape(-1, n)])),
                       dtype=float)
        up, down = Y[k:].reshape(2, k, n, n)  # J[s][:, i]: d phi / dx_i
        Y, J = Y[:k], np.swapaxes((up - down) / (2 * step), 1, 2)
    G1, G2 = _tensor_at(norm1, X), _tensor_at(norm2, Y)
    resid = np.abs(G1 - np.swapaxes(J, 1, 2) @ G2 @ J)
    return IsometryCheck(max_metric_residual=float(np.max(resid)))


@dataclass(frozen=True)
class Decomposition:
    """Orthogonal splitting R^n = V' + V'' by one orthonormal basis Q of V':
    a unit vector ((cos a, sin a) for the plane's V' at angle a) or n x k
    orthonormal columns, 1 <= k <= n - 1, kept as the tuple of Q's n rows.
    A ValueError names a Q that is not finite, has k out of that range or is
    not orthonormal to within 1e-12."""

    vprime: tuple

    def __post_init__(self):
        try:
            Q = np.asarray(self.vprime, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"vprime must be a vector or an (n, k) array of "
                             f"numbers, got {self.vprime!r}") from None
        if Q.ndim == 1:  # a single vector is one column
            Q = Q[:, None]
        if Q.ndim != 2 or not 1 <= Q.shape[1] < Q.shape[0]:
            raise ValueError(f"vprime of shape {np.shape(self.vprime)} is not "
                             f"an (n, k) basis with 1 <= k <= n - 1")
        if not np.isfinite(Q).all():
            raise ValueError(f"vprime has a non-finite entry: {Q.tolist()}")
        if np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() > 1e-12:
            raise ValueError(f"vprime's columns are not orthonormal: {Q.tolist()}")
        object.__setattr__(self, "vprime", tuple(map(tuple, Q.tolist())))

    def project_out(self, x: np.ndarray) -> np.ndarray:
        """Component of each row of x orthogonal to V' (that is, x''), by
        one product per row, as for a single point."""
        Q = np.array(self.vprime)
        return x - (Q @ (Q.T @ x[..., None]))[..., 0]


def d_residuals(norm1, norm2, phi: Callable, dec: Decomposition, X) -> np.ndarray:
    """The signed (d)-property residual g1_x(x'', x) - g2_y(y'', y),
    y = Phi x, at each row x of the (m, n) array X, from one phi call and
    stacked products (as _sqnorm forms |x|^2); a ValueError where V' and
    the points lie in spaces of different dimension n."""
    if len(dec.vprime) != np.shape(X)[-1]:
        raise ValueError(f"vprime lies in R^{len(dec.vprime)}, the points "
                         f"in R^{np.shape(X)[-1]}")
    form = lambda norm, x: (dec.project_out(x)[:, None] @ _tensor_at(norm, x)
                            @ x[:, :, None])[:, 0, 0]
    return form(norm1, X) - form(norm2, np.asarray(phi(X), dtype=float))


class DPropertyCheck(NamedTuple):
    max_residual: float


def check_d_property(norm1, norm2, phi: Callable, dec: Decomposition,
                     samples: int = 20, seed: int = 0) -> DPropertyCheck:
    """Max over samples of |d_residuals|, from one phi call."""
    res = d_residuals(norm1, norm2, phi, dec, _sample_points(norm1, samples, seed))
    return DPropertyCheck(max_residual=float(np.max(np.abs(res))))


# --- gluing and classification ----------------------------------------------


@dataclass(frozen=True)
class Sector:
    lo: float
    hi: float
    mode: str           # "scale" | "legendre-scale"
    scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("scale", "legendre-scale"):
            raise ValueError(f"unknown sector mode {self.mode!r}")
        if not 0 < self.scale < math.inf:  # a NaN fails both tests
            raise ValueError(f"sector scale must be positive and finite, got {self.scale}")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"sector [{self.lo}, {self.hi}] must be finite and non-empty")


def _sector(i: int, s) -> Sector:
    """s as a Sector; a ValueError naming entry i unless s is a Sector or a
    JSON object with the number fields lo, hi, optional scale and a mode."""
    if isinstance(s, Sector):
        return s
    what = f"sectors entry {i}"
    if not isinstance(s, dict) or not set(s) <= {"lo", "hi", "mode", "scale"}:
        raise ValueError(f"{what} must be an object with the fields lo, hi, "
                         f"mode and an optional scale, got {s!r}")
    fields = {key: json_field(s, key, what, "number") for key in ("lo", "hi")}
    fields["mode"] = json_field(s, "mode", what, "string")
    fields["scale"] = json_field(s, "scale", what, "number", default=1.0)
    try:
        return Sector(**fields)
    except ValueError as exc:
        raise ValueError(f"{what} is invalid: {exc}") from None


@dataclass(frozen=True)
class GlueResult:
    triple: IsometryTriple
    max_band_residual: float
    scale: float


def glue_construct(f_base: Profile, sectors, band_width: float = DEFAULT_BAND_WIDTH) -> GlueResult:
    """Assemble the piecewise isometry that applies each sector's map.

    Sector modes: "scale" (x -> lam x) and "legendre-scale" (x -> lam grad E).
    The two agree wherever the profile is round with value 1/2, so the base
    profile must be round on a band of the given width around every interior
    sector boundary; the assembled theta and h switch pieces at the band
    centers and stay smooth because both pieces coincide on the whole band.
    """
    if not (band_width > 0 and math.isfinite(band_width)):
        raise ValueError(f"band_width must be positive and finite, got {band_width}")
    if not isinstance(sectors, (list, tuple)):
        raise ValueError(f"sectors must be a list, got {sectors!r}")
    sectors = tuple(_sector(i, s) for i, s in enumerate(sectors))
    if not sectors:
        raise ValueError("need at least one sector")
    d = f_base.d
    hi_end = math.pi / d
    if abs(sectors[0].lo) > 1e-9 or abs(sectors[-1].hi - hi_end) > 1e-9:
        raise ValueError("sectors must cover [0, pi/d] to respect the symmetry")
    for a, b in zip(sectors, sectors[1:]):
        if abs(a.hi - b.lo) > 1e-9:
            raise ValueError("sector intervals must be contiguous")
    scales = {s.scale for s in sectors}
    if max(scales) - min(scales) > 1e-12:
        raise ValueError("all sector scales must agree for the pieces to glue")
    lam = sectors[0].scale

    breaks = tuple(s.hi for s in sectors[:-1])
    for b in breaks:
        band = np.linspace(b - band_width / 2, b + band_width / 2, 65)
        if np.max(np.abs(f_base.evaluate(band, 0) - 0.5)) > ROUND_BAND_TOL:
            raise ValueError(
                f"profile is not round (f = 1/2) on the band around t={b:.4f}")

    # exact dual evaluator (a fitted dual's spectral tail, amplified by freq^2
    # in the h'' of the residual system, would swamp the band check); it checks
    # f_base, and every piece of h is a positive multiple of f_base or of it
    if any(s.mode == "legendre-scale" for s in sectors):
        dual = DualProfile(f_base, 1.0 / lam ** 2)
    else:
        require_minkowski(f_base, "profile is not a Minkowski norm profile")
    piece_profiles = []
    piece_maps = []
    for s in sectors:
        if s.mode == "scale":
            piece_profiles.append(f_base.scaled(1.0 / lam ** 2))
            piece_maps.append((s.lo, s.hi, identity_map()))
        else:
            piece_profiles.append(dual)
            piece_maps.append((s.lo, s.hi, legendre_map_tag()))

    if len(sectors) == 1:
        h_prof = piece_profiles[0]
        theta = piece_maps[0][2]
    else:
        h_prof = SectorProfile(d=d, breaks=breaks, pieces=tuple(piece_profiles))
        theta = ThetaMap(kind="piecewise", pieces=tuple(piece_maps))

    ts = np.linspace(INTERIOR_GUARD, hi_end - INTERIOR_GUARD, 1024)
    th = theta_jet(theta, f_base, ts, 0)[0]
    if np.any(np.diff(th) <= 0):
        raise ValueError("assembled theta map is not strictly increasing")

    triple = IsometryTriple(f=f_base, h=h_prof, theta=theta)
    band = np.array([np.linspace(b - band_width / 2, b + band_width / 2, 33)
                     for b in breaks]).reshape(-1)
    band_res = float(np.max(np.abs(ode_residuals(triple, band)), initial=0.0))
    return GlueResult(triple=triple, max_band_residual=band_res, scale=lam)


def bump_profile(d: int, humps, amplitude: float = 5e-4) -> Profile:
    """Round profile 1/2 plus compactly supported C^7 humps, one per
    (center, width) pair, fitted to the symmetric cosine basis.

    Useful as a glue base: the humps vanish identically outside their
    supports, so the profile is round on any band that avoids them.  The
    generous term count keeps the second derivative of the fit quiet on the
    round stretches, which limits the in-band residuals of a glued triple.
    The fit is one DCT of Lobatto samples (`lobatto_fit`), with its error at
    them as the `fit_residual`.
    """
    ts = np.linspace(0.0, math.pi / d, BUMP_GRID + 1)
    vals = np.full_like(ts, 0.5)
    for center, width in humps:
        s = (ts - center) / (width / 2.0)
        mask = np.abs(s) < 1.0
        vals[mask] += amplitude * np.cos(0.5 * math.pi * s[mask]) ** 8
    return lobatto_fit(d, vals, BUMP_TERMS)[0]


class SectorLabel(NamedTuple):
    lo: float
    hi: float
    label: str


def classify_sectors(tr: IsometryTriple, grid: int = 512,
                     tol: float = CLASSIFY_TOL) -> list[SectorLabel]:
    """Label maximal runs of t where theta matches the identity, the Legendre
    closed form, or neither (Transition), both from one jet of f on the grid."""
    if not (tol > 0 and math.isfinite(tol)):  # else no t, or every t, would match
        raise ValueError(f"classify tol must be positive and finite, got {tol}")
    d = tr.f.d
    ts = np.linspace(INTERIOR_GUARD, math.pi / d - INTERIOR_GUARD, grid)
    (th,), fj, _, sc = _h_at_theta(tr.f, tr.theta, ts, 0)
    th_leg = _theta_from_jet(fj, *sc, ts, 1.0, 1.0, 0)[0]
    is_id = np.abs(th - ts) < tol
    is_leg = np.abs(th - th_leg) < tol

    # pointwise labels; points matching both are resolved to a neighboring
    # definite label so that round stretches don't split the runs
    raw = np.where(is_id & ~is_leg, 0, np.where(is_leg & ~is_id, 1,
                   np.where(is_id & is_leg, 2, 3)))
    labels = raw.copy()
    definite, both = np.flatnonzero(raw < 2), np.flatnonzero(raw == 2)
    if len(definite) == 0:
        labels[:] = np.where(raw == 2, 0, 3)
    else:  # the nearest definite point, the lower one on a tie
        near = np.argmin(np.abs(definite[None, :] - both[:, None]), axis=1)
        labels[both] = raw[definite[near]]

    names = {0: IDENTITY_TYPE, 1: LEGENDRE_TYPE, 3: TRANSITION}
    starts = np.flatnonzero(np.diff(labels, prepend=-1))  # each run's first index
    return [SectorLabel(lo=float(ts[a]), hi=float(ts[b - 1]),
                        label=names[int(labels[a])])
            for a, b in zip(starts, np.r_[starts[1:], grid])]


# --- lifting to n dimensions --------------------------------------------------


def lift_to_nd(tr: IsometryTriple, m: FoliationModel) -> Callable:
    """Phi(x) = r rho gamma_x(theta) = r rho (c u + s w) on an (m, n) array of
    points: gamma_x is the normal geodesic through u = x/|x|, w = unit_w,
    rho = sqrt(f(t)/h(theta)), c = cos(theta - t) and s = sin(theta - t).
    Phi.jacobian(X) gives (Phi(X), the (m, n, n) dPhi) from one polar pass:
    dPhi = rho c I + rho s (w u^T + S) + (alpha u + beta w) w^T, S the shape
    operator, alpha = rho' c - rho theta' s, beta = rho' s + rho (theta' - 1) c,
    rho' = (rho/2)(f'/f - theta' h'(theta)/h(theta)), all by `_h_at_theta`.
    So dPhi x = Phi(x), and dPhi scales E_k, the eigenspace of S at
    cot(t + k pi/d), by rho sin(theta + k pi/d) / sin(t + k pi/d)."""
    from .foliation import _frame, _shape_operator
    if tr.f.d != m.d:
        raise ValueError("triple and foliation disagree on d")

    def lift(x, k):  # the images, and their differentials for k = 1
        if np.ndim(x) != 2:  # _frame would give a 1-D point floats
            raise ValueError(f"the lifted map takes (m, {m.n}) rows, not {np.shape(x)}")
        r, u, p, t, w = _frame(m, x, LIFT_FOCAL_GUARD)
        th, fj, hj, _ = _h_at_theta(tr.f, tr.theta, t, k, tr.h, k)
        rho = np.sqrt(fj[0] / hj[0])
        c, s = np.cos(th[0] - t), np.sin(th[0] - t)
        Y = (r * rho)[:, None] * (c[:, None] * u + s[:, None] * w)
        if k == 0:
            return Y
        drho = 0.5 * rho * (fj[1] / fj[0] - th[1] * hj[1] / hj[0])
        ab = ((drho * c - rho * th[1] * s)[:, None] * u           # alpha u
              + (drho * s + rho * (th[1] - 1.0) * c)[:, None] * w)  # + beta w
        wu_S = w[:, :, None] * u[:, None, :] + _shape_operator(m, u, t, w, p)
        col = lambda v: v[:, None, None]
        return Y, (col(rho * c) * np.eye(m.n) + col(rho * s) * wu_S
                   + ab[:, :, None] * w[:, None, :])

    phi = lambda x: lift(x, 0)
    phi.jacobian = lambda x: lift(x, 1)
    return phi


def planar_lift_map(tr: IsometryTriple) -> Callable:
    """Phi on a normal plane, x -> r sqrt(f/h(theta)) (cos theta, sin theta),
    on an (m, 2) array of points.  theta commutes with the dihedral group:
    with (tau, s) = dihedral_fold(t, d), theta(t) = t + s (theta(tau) - tau),
    and theta(t) = t at the sector ends (a sampled map's end cubic may not);
    f and h(theta) are `_h_at_theta`'s at tau."""

    def phi(x):
        _, r, t = _plane_polar(np.asarray(x, dtype=float))
        tau, s = dihedral_fold(t, tr.f.d)
        (th,), (f0, _), (h0,), _ = _h_at_theta(tr.f, tr.theta, tau, 0, tr.h, 0)
        inner = (tau >= 1e-12) & (math.pi / tr.f.d - tau >= 1e-12)
        th = t + s * np.where(inner, th - tau, 0.0)
        scale = r * np.sqrt(f0 / h0)
        return scale[:, None] * np.column_stack([np.cos(th), np.sin(th)])

    return phi
