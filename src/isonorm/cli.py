"""Command-line front end: validation, duality, curvature, isometries.

Every subcommand prints a single JSON report (the tabular `sample`
subcommand can print CSV instead) and exits 0 when the checked quantities
are within tolerance, 2 when something is marginal, 1 when a check failed
or an input was unusable, and 64 on a usage error.  Reports are
deterministic: the same argv and input files give byte-identical output,
with any randomized sampling driven by --seed (default 0).

Angles are radians everywhere; --degrees only adds display fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .foliation import (DEFAULT_FOCAL_GUARD, focal_dimensions, multiplicities,
                        parse_model, random_leaf_points, shape_spectrum,
                        t_coord)
from .hessian import (FLATNESS_THRESHOLD, InducedNorm, closed_frame_matrix,
                      fd_fundamental_tensor, fd_indicatrix_grad_t_norm,
                      fd_indicatrix_laplacian_t, frame_basis,
                      frame_components, indicatrix_grad_t_norm,
                      indicatrix_laplacian_t, riemann_fd,
                      value as induced_value)
from .isometry import (DEFAULT_BAND_WIDTH, IsometryTriple, ThetaMap,
                       classify_sectors, glue_construct, build_h_from_theta,
                       identity_map, legendre_map_tag, load_triple,
                       ode_residuals, save_triple, theta_value,
                       triple_to_json_dict)
from .planar import (PlanarNorm, dual_profile, indicatrix_point,
                     value as planar_value)
from .profile import Profile, is_minkowski, json_field, load_profile

EXIT_BY_STATUS = {"ok": 0, "marginal": 2, "failed": 1}
USAGE_EXIT = 64
STATUS_BY_VALIDITY = {"valid": "ok", "marginal": "marginal", "invalid": "failed"}

# Per-residual thresholds (within -> ok, within 'marginal' bound -> marginal,
# beyond -> failed).  Keyed by residual name as it appears in the report, so
# that every emitted residual takes part in the exit-status decision.
TOLERANCES = {
    "frame_error": (1e-5, 1e-3),
    "grad_error": (1e-4, 1e-3),
    "laplacian_error": (1e-4, 1e-3),
    "xi_spread": (1e-5, 1e-4),
    "ode_max": (1e-6, 1e-3),
    "band_residual": (1e-6, 1e-4),
    "norm_error": (1e-12, 1e-9),
    "fit_residual": (1e-8, 1e-2),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the report contract reserves 2 for
    "marginal", so usage errors are remapped to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _report(command: str, inputs: dict, results: dict, residuals: dict,
            status: str) -> dict:
    return {
        "tool": "isonorm",
        "version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "residuals": {k: float(v) for k, v in residuals.items()},
        "status": status,
    }


def _status_from(residuals: dict) -> str:
    status = "ok"
    for name, val in residuals.items():
        if name not in TOLERANCES:  # a program fault, not a bad input
            raise RuntimeError(f"no status rule for residual {name!r}")
        ok_max, marginal_max = TOLERANCES[name]
        if not math.isfinite(val) or abs(val) > marginal_max:
            return "failed"
        if abs(val) > ok_max:
            status = "marginal"
    return status


def _interior_grid(d: int, count: int, guard: float = 1e-3) -> np.ndarray:
    return np.linspace(guard, math.pi / d - guard, count)


# ---------------------------------------------------------------- validate

def cmd_validate(args):
    p = load_profile(args.profile)
    rep = is_minkowski(p)
    results = {
        "d": int(p.d),
        "valid": bool(rep.valid),
        "validity": rep.status,
        "min_f": float(rep.min_f),
        "min_gap": float(rep.min_gap),
        "argmin": float(rep.argmin),
    }
    if args.degrees:
        results["argmin_degrees"] = math.degrees(rep.argmin)
    return _report("validate", {"profile": args.profile}, results,
                   {"min_f": rep.min_f, "min_gap": rep.min_gap},
                   STATUS_BY_VALIDITY[rep.status])


# -------------------------------------------------------------------- dual

def cmd_dual(args):
    p = load_profile(args.profile)
    nm = PlanarNorm(p)
    dp = dual_profile(nm, grid_size=args.grid, max_terms=args.terms)
    rep = is_minkowski(dp)
    # emit the fitted series, not the sample table: compact and reloadable
    dual_dict = Profile(dp.d, dp.cos_coeffs, kind="cosine",
                        fit_residual=dp.fit_residual).to_json_dict()
    residuals = {"fit_residual": dp.fit_residual}
    status = STATUS_BY_VALIDITY[rep.status]
    if status == "ok":  # a valid dual still needs an accurate fit
        status = _status_from(residuals)
    results = {
        "dual": dual_dict,
        "cos_coeffs": [float(c) for c in dp.cos_coeffs],
        "dual_valid": bool(rep.valid),
        "dual_min_gap": float(rep.min_gap),
    }
    return _report("dual",
                   {"profile": args.profile, "grid": args.grid,
                    "terms": args.terms},
                   results, residuals, status)


# ------------------------------------------------------------------ tensor

def cmd_tensor(args):
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    if args.t is None:
        rng = np.random.default_rng(args.seed)
        lo = args.delta + 0.02
        args.t = float(rng.uniform(lo, math.pi / m.d - lo))
    u = random_leaf_points(m, args.t, 1, seed=args.seed, delta=args.delta)[0]
    x = args.r * u
    spec = shape_spectrum(m, u, delta=args.delta)
    fd = fd_fundamental_tensor(nm, x)
    frame = frame_components(nm, x, spec)
    basis = frame_basis(nm, x, spec)
    closed = closed_frame_matrix(nm, x, spec)
    projected = basis.T @ fd.matrix @ basis
    frame_error = float(np.max(np.abs(projected - closed)))
    residuals = {"frame_error": frame_error}
    status = _status_from(residuals)
    if not fd.positive_definite:
        status = "failed"
    results = {
        "eigenvalues": [float(e) for e in fd.eigenvalues],
        "positive_definite": bool(fd.positive_definite),
        "g_rr": float(frame.g_rr),
        "g_rt": float(frame.g_rt),
        "g_tt": float(frame.g_tt),
        "tangential_factors": [float(c) for c in frame.tangential_factors],
    }
    return _report("tensor",
                   {"profile": args.profile, "model": args.model,
                    "t": args.t, "r": args.r, "seed": args.seed,
                    "delta": args.delta},
                   results, residuals, status)


# --------------------------------------------------------------- curvature

def cmd_curvature(args):
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    if args.t is not None:
        ts = [args.t] * args.samples
    else:
        rng = np.random.default_rng(args.seed)
        lo = args.delta + 0.02
        ts = rng.uniform(lo, math.pi / m.d - lo, args.samples)
    rows = []
    for i, t in enumerate(ts):
        u = random_leaf_points(m, float(t), 1, seed=args.seed + i,
                               delta=args.delta)[0]
        riemann = riemann_fd(nm, u, delta=args.delta,
                             flat_threshold=args.flat_threshold)
        rows.append({
            "t": float(t),
            "max_abs_component": float(riemann.max_abs_component),
            "noise_floor": float(riemann.noise_floor),
            "flat": bool(riemann.flat),
        })
    worst = max(r["max_abs_component"] for r in rows)
    floor = max(r["noise_floor"] for r in rows)
    # ok means "definitive": each point is either flat or curved well above
    # both the threshold and its own noise floor; anything in the gray zone
    # between is reported as marginal rather than decided.
    definitive = all(
        r["flat"] or r["max_abs_component"] > max(10.0 * r["noise_floor"],
                                                  args.flat_threshold)
        for r in rows)
    status = "ok" if definitive else "marginal"
    results = {
        "points": rows,
        "flat": bool(all(r["flat"] for r in rows)),
        "flat_threshold": float(args.flat_threshold),
    }
    residuals = {"max_abs_component": worst, "noise_floor": floor}
    return _report("curvature",
                   {"profile": args.profile, "model": args.model,
                    "t": args.t, "samples": args.samples, "seed": args.seed,
                    "delta": args.delta},
                   results, residuals, status)


# ----------------------------------------------------- isoparametric-check

def cmd_isoparametric_check(args):
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    # stay well inside the sector: the outer finite difference inherits the
    # cot(t)-type growth of the integrand near the focal ends
    guard = args.delta + 0.25
    ts = np.linspace(guard, math.pi / m.d - guard, args.t_count)
    rows = []
    grad_err = lap_err = spread = 0.0
    for i, t in enumerate(ts):
        t = float(t)
        g_closed = indicatrix_grad_t_norm(nm, t)
        l_closed = indicatrix_laplacian_t(nm, t)
        us = random_leaf_points(m, t, args.xi_count, seed=args.seed + i,
                                delta=args.delta)
        g_fd = [fd_indicatrix_grad_t_norm(nm, u) for u in us]
        l_fd = [fd_indicatrix_laplacian_t(nm, u) for u in us]
        grad_err = max(grad_err, max(abs(v - g_closed) for v in g_fd))
        lap_err = max(lap_err, max(abs(v - l_closed) for v in l_fd))
        spread = max(spread, np.ptp(g_fd), np.ptp(l_fd))
        rows.append({
            "t": t,
            "grad_norm": float(g_closed),
            "laplacian": float(l_closed),
            "grad_norm_fd": float(np.mean(g_fd)),
            "laplacian_fd": float(np.mean(l_fd)),
        })
    residuals = {"grad_error": grad_err, "laplacian_error": lap_err,
                 "xi_spread": spread}
    results = {"points": rows, "isoparametric": _status_from(residuals) != "failed"}
    return _report("isoparametric-check",
                   {"profile": args.profile, "model": args.model,
                    "t_count": args.t_count, "xi_count": args.xi_count,
                    "seed": args.seed, "delta": args.delta},
                   results, residuals, _status_from(residuals))


# --------------------------------------------------------------- isometry

def _parse_theta(spec: str) -> ThetaMap:
    if spec == "identity":
        return identity_map()
    if spec == "legendre":
        return legendre_map_tag()
    head, _, rest = spec.partition(":")
    if head in ("linear", "scaled-legendre") and rest:
        try:
            a, b = (float(s) for s in rest.split(":"))
        except ValueError:
            raise ValueError(f"bad theta spec {spec!r}: want {head}:a:b")
        return ThetaMap(kind=head, params=(a, b))
    raise ValueError(f"bad theta spec {spec!r} (want identity, legendre, "
                     f"linear:a:b or scaled-legendre:a:b)")


def _default_anchor(f: Profile, theta: ThetaMap, t0: float) -> float:
    # pick the anchor that reproduces the canonical triple for the two
    # closed-form kinds; otherwise pin h = f at the mapped anchor angle
    if theta.kind in ("legendre", "scaled-legendre"):
        f0, f1 = f.jet(t0, 1)
        h0 = f0 / (4.0 * f0 * f0 + f1 * f1)
        if theta.kind == "scaled-legendre":
            h0 /= theta.params[0] * theta.params[1]
        return h0
    th0 = float(theta_value(theta, f, t0, 0))
    return float(f.evaluate(th0, 0))


def _triple_residual(tr: IsometryTriple, grid: int) -> dict:
    ts = _interior_grid(tr.f.d, grid)
    res = np.array([ode_residuals(tr, float(t)) for t in ts])
    worst = np.max(np.abs(res), axis=0)
    out = {f"ode_eq{i}": float(w) for i, w in enumerate(worst)}
    out["ode_max"] = float(np.max(worst))
    return out


def _eq_status(per_eq: dict) -> str:
    # all equations share the ode_max thresholds
    return _status_from({"ode_max": v for v in per_eq.values()})


def cmd_isometry_solve(args):
    f = load_profile(args.profile)
    theta = _parse_theta(args.theta)
    t0 = args.theta0 if args.theta0 is not None else math.pi / (2 * f.d)
    h0 = args.h0 if args.h0 is not None else _default_anchor(f, theta, t0)
    h = build_h_from_theta(f, theta, t0, h0, grid_size=args.grid)
    tr = IsometryTriple(f=f, h=h, theta=theta)
    per_eq = _triple_residual(tr, 256)
    if args.out:
        save_triple(tr, args.out)
    results = {
        "triple": triple_to_json_dict(tr),
        "theta0": float(t0),
        "h0": float(h0),
        "written": args.out or None,
    }
    return _report("isometry solve",
                   {"profile": args.profile, "theta": args.theta,
                    "theta0": args.theta0, "h0": args.h0, "grid": args.grid},
                   results, {"ode_max": per_eq["ode_max"]},
                   _eq_status(per_eq))


def cmd_isometry_check(args):
    tr = load_triple(args.triple)
    per_eq = _triple_residual(tr, args.grid)
    results = {"d": int(tr.f.d), "equations": len(per_eq) - 1}
    return _report("isometry check",
                   {"triple": args.triple, "grid": args.grid},
                   results, per_eq, _eq_status(per_eq))


def cmd_isometry_classify(args):
    tr = load_triple(args.triple)
    labels = classify_sectors(tr, grid=args.grid, tol=args.tol)
    sectors = [{"lo": float(s.lo), "hi": float(s.hi), "label": s.label}
               for s in labels]
    if args.degrees:
        for s in sectors:
            s["lo_degrees"] = math.degrees(s["lo"])
            s["hi_degrees"] = math.degrees(s["hi"])
    return _report("isometry classify",
                   {"triple": args.triple, "grid": args.grid, "tol": args.tol},
                   {"sectors": sectors}, {}, "ok")


def cmd_isometry_glue(args):
    f_base = load_profile(args.profile)
    with open(args.sectors) as fh:
        spec = json.load(fh)
    band = args.band_width
    if isinstance(spec, dict):
        if band is None and "band_width" in spec:
            band = float(spec["band_width"])
        spec = json_field(spec, "sectors", "sectors file")
    if band is None:
        band = DEFAULT_BAND_WIDTH
    res = glue_construct(f_base, spec, band_width=band)
    if args.out:
        save_triple(res.triple, args.out)
    results = {
        "triple": triple_to_json_dict(res.triple),
        "scale": float(res.scale),
        "band_width": float(band),
        "written": args.out or None,
    }
    residuals = {"band_residual": res.max_band_residual}
    return _report("isometry glue",
                   {"profile": args.profile, "sectors": args.sectors,
                    "band_width": args.band_width},
                   results, residuals, _status_from(residuals))


# ------------------------------------------------------------------ sample

def cmd_sample(args):
    p = load_profile(args.profile)
    rng = np.random.default_rng(args.seed)
    rows = []
    if args.model:
        m = parse_model(args.model)
        nm = InducedNorm(m, p)
        lo = args.delta + 0.05
        ts = rng.uniform(lo, math.pi / m.d - lo, args.count)
        for i, t in enumerate(ts):
            t = float(t)
            u = random_leaf_points(m, t, 1, seed=args.seed + i,
                                   delta=args.delta)[0]
            r = 1.0 / math.sqrt(2.0 * p.evaluate(t, 0))
            x = r * u
            rows.append([t, r] + [float(c) for c in x])
        norm_err = max(abs(induced_value(nm, np.array(row[2:])) - 1.0)
                       for row in rows)
        dim = m.n
    else:
        nm = PlanarNorm(p)
        ts = rng.uniform(0.0, 2.0 * math.pi, args.count)
        for t in ts:
            t = float(t)
            x = indicatrix_point(nm, t)
            r = float(np.hypot(*x))
            rows.append([t, r, float(x[0]), float(x[1])])
        norm_err = max(abs(planar_value(nm, np.array(row[2:])) - 1.0)
                       for row in rows)
        dim = 2
    columns = ["t", "r"] + [f"x{i}" for i in range(dim)]
    residuals = {"norm_error": norm_err}
    report = _report("sample",
                     {"profile": args.profile, "model": args.model,
                      "count": args.count, "seed": args.seed,
                      "delta": args.delta, "format": args.format},
                     {"columns": columns, "dimension": dim,
                      "points": [[float(v) for v in row] for row in rows]},
                     residuals, _status_from(residuals))
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        return report, "\n".join(lines)
    return report


# --------------------------------------------------------------- foliation

def cmd_foliation_info(args):
    m = parse_model(args.model)
    mult = multiplicities(m)
    results = {
        "model": m.describe(),
        "d": int(m.d),
        "n": int(m.n),
        "k": int(m.k) if m.k is not None else None,
        "multiplicities": [{"k": int(k), "m": int(mk)} for k, mk in mult],
        "indicatrix_dimension": int(m.n - 1),
        "sector_width": math.pi / m.d,
        "focal_dimensions": [int(v) for v in focal_dimensions(m)],
    }
    if args.degrees:
        results["sector_width_degrees"] = math.degrees(math.pi / m.d)
    return _report("foliation info", {"model": args.model}, results, {}, "ok")


# ------------------------------------------------------------------ parser

def _add(parser, *names, **kw):
    parser.add_argument(*names, **kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="isonorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sp = sub.add_parser("validate", help="Minkowski validity of a profile")
    _add(sp, "--profile", required=True)
    _add(sp, "--degrees", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("dual", help="planar dual profile via the gradient map")
    _add(sp, "--profile", required=True)
    _add(sp, "--grid", type=int, default=512)
    _add(sp, "--terms", type=int, default=None)
    sp.set_defaults(func=cmd_dual)

    sp = sub.add_parser("tensor",
                        help="fundamental tensor vs frame closed forms")
    _add(sp, "--profile", required=True)
    _add(sp, "--model", required=True)
    _add(sp, "--t", type=float, default=None)
    _add(sp, "--r", type=float, default=1.0)
    _add(sp, "--seed", type=int, default=0)
    _add(sp, "--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.set_defaults(func=cmd_tensor)

    sp = sub.add_parser("curvature",
                        help="finite-difference Riemann tensor of the "
                             "Hessian metric")
    _add(sp, "--profile", required=True)
    _add(sp, "--model", required=True)
    _add(sp, "--t", type=float, default=None)
    _add(sp, "--samples", type=int, default=4)
    _add(sp, "--seed", type=int, default=0)
    _add(sp, "--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    _add(sp, "--flat-threshold", type=float, default=FLATNESS_THRESHOLD)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("isoparametric-check",
                        help="leaf parameter has xi-independent gradient "
                             "norm and Laplacian on the indicatrix")
    _add(sp, "--profile", required=True)
    _add(sp, "--model", required=True)
    _add(sp, "--t-count", type=int, default=5)
    _add(sp, "--xi-count", type=int, default=3)
    _add(sp, "--seed", type=int, default=0)
    _add(sp, "--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.set_defaults(func=cmd_isoparametric_check)

    iso = sub.add_parser("isometry", help="isometry triple tool chain")
    isosub = iso.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    sp = isosub.add_parser("solve", help="build h from a profile and theta")
    _add(sp, "--profile", required=True)
    _add(sp, "--theta", required=True,
         help="identity | legendre | linear:a:b | scaled-legendre:a:b")
    _add(sp, "--theta0", type=float, default=None)
    _add(sp, "--h0", type=float, default=None)
    _add(sp, "--grid", type=int, default=2048)
    _add(sp, "--out", default=None)
    sp.set_defaults(func=cmd_isometry_solve)

    sp = isosub.add_parser("check", help="ODE residuals of a stored triple")
    _add(sp, "--triple", required=True)
    _add(sp, "--grid", type=int, default=512)
    sp.set_defaults(func=cmd_isometry_check)

    sp = isosub.add_parser("classify",
                           help="label identity / legendre / transition runs")
    _add(sp, "--triple", required=True)
    _add(sp, "--grid", type=int, default=512)
    _add(sp, "--tol", type=float, default=1e-6)
    _add(sp, "--degrees", action="store_true")
    sp.set_defaults(func=cmd_isometry_classify)

    sp = isosub.add_parser("glue",
                           help="assemble a triple from sector directives")
    _add(sp, "--profile", required=True,
         help="base profile; must be round on the blend bands")
    _add(sp, "--sectors", required=True,
         help="JSON file: list of {lo, hi, mode, scale}")
    _add(sp, "--band-width", type=float, default=None)
    _add(sp, "--out", default=None)
    sp.set_defaults(func=cmd_isometry_glue)

    sp = sub.add_parser("sample", help="points on the unit sphere of the norm")
    _add(sp, "--profile", required=True)
    _add(sp, "--model", default=None,
         help="omit for the planar norm of the profile")
    _add(sp, "--count", type=int, default=16)
    _add(sp, "--seed", type=int, default=0)
    _add(sp, "--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    _add(sp, "--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_sample)

    fol = sub.add_parser("foliation", help="foliation model metadata")
    folsub = fol.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    sp = folsub.add_parser("info")
    _add(sp, "--model", required=True)
    _add(sp, "--degrees", action="store_true")
    sp.set_defaults(func=cmd_foliation_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"isonorm: error: {exc}", file=sys.stderr)
        return 1
    if isinstance(out, tuple):
        report, rendered = out
    else:
        report, rendered = out, None
    if rendered is None:
        rendered = json.dumps(report, indent=2, sort_keys=True,
                              allow_nan=False)
    print(rendered)
    return EXIT_BY_STATUS[report["status"]]


if __name__ == "__main__":
    sys.exit(main())
