"""Output checks for the benchmark's operations.

Each check returns None when the output is right and a short reason string
when it is not.  Where a quantity has a closed form, the check computes it
here from the formula, not through isonorm's own code paths, so that a change
to the library cannot move the oracle with it.

Tolerances were set from cases known to be correct (the observed error is
given beside each); none is widened to let a known defect pass.
"""

from __future__ import annotations

import math

import numpy as np

# Largest |b| for which c0 (1 + b cos(d t)) is a Minkowski profile.
VALIDITY_BOUND = {1: 1.0, 2: 1.0, 3: 2.0 / 7.0}

# Share of the validity bound from which the seed commit's exact dual
# diverges (see exact_dual_diverges).
DUAL_DIVERGES_FROM = {1: 0.88, 2: 0.59, 3: 0.92}

GAP_TOL = 1e-9          # |min_gap - closed form| / c0^2; observed <= 1e-14
EXACT_DUAL_RTOL = 1e-9  # exact dual vs bisection reference; observed <= 2e-15
# fitted h vs reference: within FIT_FACTOR * fit_residual + FIT_FLOOR;
# the observed ratio is <= 1.0 wherever the exact dual is right
FIT_FACTOR = 10.0
FIT_FLOOR = 1e-12
ODE_TOL = 1e-10         # Legendre-triple ODE residual; observed <= 1e-13
KAPPA_TOL = 1e-5        # shape eigenvalue vs cot(t + k pi/d); observed <= 1e-7
LEAF_TOL = 1e-9         # t(u) of a generated leaf point vs the requested t
# The CLI's "ok" bounds (cli.TOLERANCES) for the same residuals:
FRAME_TOL = 1e-5
LAPLACIAN_TOL = 1e-4
GRAD_TOL = 1e-4
BAND_TOL = 1e-6
NORM_TOL = 1e-12
ODE_OK_TOL = 1e-6
# xi_spread is 0 in exact arithmetic and FD noise in the CLI's estimate; on
# curved cartan3 profiles that noise reaches 1.1e-5, above the CLI's "ok"
# bound of 1e-5, so the bound here is the CLI's "marginal" one.
XI_SPREAD_TOL = 1e-4
# The report contract: exit code by report status.
EXIT_BY_STATUS = {"ok": 0, "marginal": 2, "failed": 1}
# The CLI has no bound for a lifted-map metric residual; this is the one the
# acceptance suite applies to lifted maps.  Observed <= 1.3e-5 when correct,
# ~1e16 where the exact dual diverges.
METRIC_TOL = 1e-4
FLAT_THRESHOLD = 1e-3   # hessian.FLATNESS_THRESHOLD
CLASSIFY_TOL = 1e-6     # isometry.CLASSIFY_TOL
SQ3 = math.sqrt(3.0)


# ------------------------------------------------------------ closed forms

def cosine_jet(d: int, coeffs, t, order: int):
    """d^order/dt^order of sum_j c_j cos(j d t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for j, c in enumerate(coeffs):
        w = j * d
        out = out + c * w ** order * np.cos(w * t + 0.5 * math.pi * order)
    return out


def min_gap_closed(d: int, c0: float, b: float) -> float:
    """Minimum of 2 f f'' - f'^2 + 4 f^2 for f = c0 (1 + b cos(d t))."""
    b = abs(b)
    gap = {1: 2.0 * (1.0 - b) * (2.0 - b), 2: 4.0 * (1.0 - b * b),
           3: 4.0 - 10.0 * b - 14.0 * b * b}[d]
    return gap * c0 * c0


def legendre_angle(d: int, coeffs, t):
    """Polar angle of grad E at polar angle t, on the branch within pi of t."""
    t = np.asarray(t, dtype=float)
    f0 = cosine_jet(d, coeffs, t, 0)
    f1 = cosine_jet(d, coeffs, t, 1)
    raw = np.arctan2(2 * f0 * np.sin(t) + f1 * np.cos(t),
                     2 * f0 * np.cos(t) - f1 * np.sin(t))
    return raw + 2 * math.pi * np.round((t - raw) / (2 * math.pi))


def reference_dual(d: int, coeffs, thetas) -> np.ndarray:
    """h(theta) = f / (4 f^2 + f'^2) at the t with legendre_angle(t) = theta.

    theta in [0, pi/d]; the angle map is increasing there, so bisection
    always converges (60 halvings reach the spacing of doubles).
    """
    thetas = np.asarray(thetas, dtype=float)
    lo = np.zeros_like(thetas)
    hi = np.full_like(thetas, math.pi / d)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = legendre_angle(d, coeffs, mid) < thetas
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t = 0.5 * (lo + hi)
    f0 = cosine_jet(d, coeffs, t, 0)
    f1 = cosine_jet(d, coeffs, t, 1)
    return f0 / (4 * f0 * f0 + f1 * f1)


def leaf_parameter(model: str, u) -> float:
    """t(u) = arccos(p(u)) / d for the model's isoparametric polynomial."""
    u = np.asarray(u, dtype=float)
    parts = model.split(":")
    if parts[0] == "d1":
        d, p = 1, u[0]
    elif parts[0] == "d2":
        k = int(parts[2])
        d, p = 2, u[:k] @ u[:k] - u[k:] @ u[k:]
    else:
        a, b, x, y, z = u
        d = 3
        p = (a ** 3 - 3 * a * b * b + 1.5 * a * (x * x + y * y - 2 * z * z)
             + 1.5 * SQ3 * b * (x * x - y * y) + 3 * SQ3 * x * y * z)
    return math.acos(min(1.0, max(-1.0, float(p)))) / d


def model_multiplicities(model: str) -> list[tuple[int, int]]:
    """(k, m_k): multiplicity of the shape eigenvalue cot(t + k pi/d)."""
    parts = model.split(":")
    if parts[0] == "d1":
        return [(0, int(parts[1]) - 2)]
    if parts[0] == "d2":
        n, k = int(parts[1]), int(parts[2])
        return [(i, m) for i, m in ((0, n - k - 1), (1, k - 1)) if m > 0]
    return [(0, 1), (1, 1), (2, 1)]


def model_order(model: str) -> int:
    return {"d1": 1, "d2": 2}.get(model.split(":")[0], 3)


def frame_matrix(model: str, coeffs, t: float) -> np.ndarray:
    """Hess E in the unit frame (radial, leaf normal, shape eigenvectors).

    [[2f, f'], [f', f'' + 2f]] on the normal plane, and 2f + kappa_k f'
    on the eigenvectors of cot(t + k pi/d); r-independent by homogeneity.
    """
    d = model_order(model)
    f0, f1, f2 = (float(cosine_jet(d, coeffs, t, k)) for k in range(3))
    diag = [2 * f0 + f1 / math.tan(t + k * math.pi / d)
            for k, m in model_multiplicities(model) for _ in range(m)]
    M = np.diag([2 * f0, f2 + 2 * f0] + diag)
    M[0, 1] = M[1, 0] = f1
    return M


# ------------------------------------------------------------ planar-sweep

def exact_dual_diverges(d: int, b: float) -> bool:
    """Is c0 (1 + b cos(d t)) where the seed commit's exact dual diverges?

    Measured there on a 1024-point grid: no point is off the reference up to
    these shares of the validity bound, and 22 to 106 points are a hundredth
    beyond them.
    """
    return abs(b) >= DUAL_DIVERGES_FROM[d] * VALIDITY_BOUND[d]


def check_validity(status: str, min_gap: float, d: int, c0: float,
                   b: float) -> str | None:
    if status != "valid":
        return f"is_minkowski says {status!r} for a valid profile"
    err = abs(min_gap - min_gap_closed(d, c0, b)) / (c0 * c0)
    if not err <= GAP_TOL:
        return f"min_gap off the closed form by {err:.3g} c0^2"
    return None


def dual_points_ok(exact, ref) -> np.ndarray:
    """Per point: does the exact dual match the bisection reference?"""
    exact = np.asarray(exact, dtype=float)
    scale = float(np.max(np.abs(ref)))
    return np.abs(exact - ref) <= EXACT_DUAL_RTOL * scale


def check_fit(values, ref, fit_residual: float, what: str) -> str | None:
    err = float(np.max(np.abs(np.asarray(values) - ref)))
    if not err <= FIT_FACTOR * fit_residual + FIT_FLOOR:
        return (f"{what} off the reference dual by {err:.3g} "
                f"(fit_residual {fit_residual:.3g})")
    return None


def check_ode(residual: float) -> str | None:
    if not residual <= ODE_TOL:
        return f"Legendre-triple ODE residual {residual:.3g} > {ODE_TOL:g}"
    return None


def expected_classify(d: int, coeffs, grid: np.ndarray) -> str:
    """The single label classify_sectors should give a Legendre triple."""
    moved = np.max(np.abs(legendre_angle(d, coeffs, grid) - grid))
    return "legendre" if moved >= CLASSIFY_TOL else "identity"


# ------------------------------------------------------------- field-sweep

def check_leaf(model: str, u, t: float) -> str | None:
    if abs(float(np.linalg.norm(u)) - 1.0) > LEAF_TOL:
        return "leaf point is not a unit vector"
    err = abs(leaf_parameter(model, u) - t)
    if not err <= LEAF_TOL:
        return f"leaf point has t off by {err:.3g}"
    return None


def check_spectrum(model: str, spectrum, t: float) -> str | None:
    got = [(int(e.k), int(e.multiplicity)) for e in spectrum]
    if got != model_multiplicities(model):
        return f"shape spectrum multiplicities {got}"
    d = model_order(model)
    err = max(abs(e.kappa - 1.0 / math.tan(t + e.k * math.pi / d))
              for e in spectrum)
    if not err <= KAPPA_TOL:
        return f"shape eigenvalue off cot(t + k pi/d) by {err:.3g}"
    return None


def check_frame(projected, model: str, coeffs, t: float) -> str | None:
    err = float(np.max(np.abs(projected - frame_matrix(model, coeffs, t))))
    if not err <= FRAME_TOL:
        return f"frame error {err:.3g} > {FRAME_TOL:g}"
    return None


def check_flat(max_abs_component: float, flat: bool) -> str | None:
    if not (flat and max_abs_component < FLAT_THRESHOLD):
        return f"flat profile reads curved ({max_abs_component:.3g})"
    return None


def check_laplacian(closed: float, fd: float) -> str | None:
    err = abs(closed - fd)
    if not err <= LAPLACIAN_TOL:
        return f"laplacian error {err:.3g} > {LAPLACIAN_TOL:g}"
    return None


# ----------------------------------------------------------- isometry-lift

def check_metric(residual: float) -> str | None:
    if not residual <= METRIC_TOL:
        return f"lifted metric residual {residual:.3g} > {METRIC_TOL:g}"
    return None


def check_band(residual: float) -> str | None:
    if not residual <= BAND_TOL:
        return f"band residual {residual:.3g} > {BAND_TOL:g}"
    return None


# ----------------------------------------------------------------- cli-mix

def check_report(report, schema, validator) -> str | None:
    """Schema conformance of one CLI report; validator is jsonschema's."""
    errors = sorted(validator(schema).iter_errors(report), key=str)
    if errors:
        return f"report violates the schema: {errors[0].message}"
    return None
