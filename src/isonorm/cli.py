"""Command-line front end: validation, duality, curvature, isometries.

Every subcommand prints a single JSON report (the tabular `sample`
subcommand can print CSV instead) and exits 0 when the checked quantities
are within tolerance, 2 when something is marginal, 1 when a check failed
or an input was unusable, and 64 on a usage error.  Reports are
deterministic: the same argv and input files give byte-identical output,
with any randomized sampling driven by --seed (default 0).

Angles are radians everywhere; --degrees only adds display fields.

A process (`isonorm`, `python -m isonorm.cli`) enters through `run`, which
calls `main` with the cyclic garbage collector off (under -m, from before
numpy loads) and freezes what is left at exit, usage errors too, so the
interpreter's final collection has nothing to scan.  A process runs one
command, whose cycles its exit frees anyway, and no report depends on when
the collector runs.  `main(argv)` leaves the collector alone, as in-process
callers run many commands.  Either way only the named command's parser is
built.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # one process, one command: see run()
    gc.disable()

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .profile import (DEFAULT_FOCAL_GUARD, VALIDITY_MARGIN, chop_count,
                      is_minkowski, json_field, load_profile)

EXIT_BY_STATUS = {"ok": 0, "marginal": 2, "failed": 1}
USAGE_EXIT = 64
STATUS_BY_VALIDITY = {"valid": "ok", "marginal": "marginal", "invalid": "failed"}
# parsed arguments that a report does not echo as inputs: the command and
# options that only shape the output
NOT_INPUTS = ("func", "command", "subcommand", "degrees", "out")

# Per-residual thresholds (within -> ok, within 'marginal' bound -> marginal,
# beyond -> failed), by the report's name of each residual `_status_from` reads.
# `validate` (min_f, min_gap) takes its status from the validity verdict and
# `curvature` (max_abs_component, noise_floor) from its noise-floor rule.
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


def _leaf_range(m, delta: float, margin: float):
    """(delta + margin, pi/d - delta - margin), the leaf parameters a command
    draws from; FocalProximityError for a delta that foliation's guard rule
    rejects, or that is in its range but leaves none past the margin."""
    from .foliation import FocalProximityError, _check_guard
    _check_guard(m, delta)
    lo = delta + margin
    hi = math.pi / m.d - lo
    if lo > hi:
        raise FocalProximityError(
            f"delta={delta} leaves no leaf parameter more than delta + "
            f"{margin:g} from both focal values: it must be at most "
            f"pi/(2d) - {margin:g} = {math.pi / (2 * m.d) - margin:.4f}")
    return lo, hi


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
    return (results, {"min_f": rep.min_f, "min_gap": rep.min_gap},
            STATUS_BY_VALIDITY[rep.status])


# -------------------------------------------------------------------- dual

def cmd_dual(args):
    from .planar import PlanarNorm, _dual_fit
    p = load_profile(args.profile)
    nm = PlanarNorm(p)
    dp, coeffs = _dual_fit(nm, args.grid, args.terms)
    rep = is_minkowski(dp)
    residuals = {"fit_residual": dp.fit_residual}
    status = STATUS_BY_VALIDITY[rep.status]
    if status == "ok":  # a valid dual still needs an accurate fit
        status = _status_from(residuals)
    results = {
        "dual": dp.to_json_dict(),
        "cos_coeffs": [float(c) for c in dp.cos_coeffs],
        "dual_valid": bool(rep.valid),
        "dual_min_gap": float(rep.min_gap),
        "terms_needed": chop_count(coeffs),  # a result only: no status rule
    }
    return results, residuals, status


# ------------------------------------------------------------------ tensor

def cmd_tensor(args):
    from .foliation import (parse_model, random_leaf_points, shape_spectrum,
                            t_coord)
    from .hessian import (InducedNorm, closed_frame_matrix,
                          fd_fundamental_tensor, frame_basis)
    # p(-u) = -p(u) for odd d: a point -|r| u lies on the leaf pi/d - t
    if not (args.r > 0 and math.isfinite(args.r)):
        raise ValueError(f"--r must be positive and finite, got {args.r}")
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    if args.t is None:
        rng = np.random.default_rng(args.seed)
        args.t = float(rng.uniform(*_leaf_range(m, args.delta, 0.02)))
    u = random_leaf_points(m, args.t, 1, seed=args.seed, delta=args.delta)[0]
    x = args.r * u
    spec = shape_spectrum(m, x, delta=args.delta)  # at x, like the rest: one polar pass
    fd = fd_fundamental_tensor(nm, x)
    basis = frame_basis(nm, x, spec)
    closed = closed_frame_matrix(nm, x, spec)
    r = t_coord(m, x).r
    # each entry's eigenspace starts at this frame index
    starts = np.cumsum([2] + [entry.multiplicity for entry in spec])[:-1]
    projected = basis.T @ fd.matrix @ basis
    frame_error = float(np.max(np.abs(projected - closed)))
    residuals = {"frame_error": frame_error}
    status = _status_from(residuals)
    # validate's margin on the closed G, not the FD sign (noise where G is singular)
    low = float(np.linalg.eigvalsh(closed)[0])
    if low <= VALIDITY_MARGIN and status != "failed":
        status = "marginal" if low >= -VALIDITY_MARGIN else "failed"
    results = {
        "eigenvalues": [float(e) for e in np.linalg.eigvalsh(fd.matrix)],
        "positive_definite": low > VALIDITY_MARGIN,
        "g_rr": float(closed[0, 0]),
        "g_rt": float(r * closed[0, 1]),
        "g_tt": float(r * r * closed[1, 1]),
        "tangential_factors": [float(closed[i, i]) for i in starts],
    }
    return results, residuals, status


# --------------------------------------------------------------- curvature

def cmd_curvature(args):
    from .foliation import parse_model, random_leaf_points
    from .hessian import InducedNorm, riemann_fd
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    if args.t is not None:
        ts = np.full(args.samples, args.t)
    else:
        rng = np.random.default_rng(args.seed)
        ts = rng.uniform(*_leaf_range(m, args.delta, 0.02), args.samples)
    us = random_leaf_points(m, ts, args.samples, seed=args.seed, delta=args.delta)
    res = riemann_fd(nm, us, delta=args.delta)
    rows = [{"t": t, "max_abs_component": a, "noise_floor": b, "flat": c}
            for t, a, b, c in zip(ts.tolist(), *(v.tolist() for v in res))]
    # ok means "definitive": each point is either flat or curved well above
    # its own noise floor; anything in the gray zone between is reported as
    # marginal rather than decided.
    definitive = (res.flat | (res.max_abs_component > 10.0 * res.noise_floor)).all()
    status = "ok" if definitive else "marginal"
    residuals = {"max_abs_component": float(res.max_abs_component.max()),
                 "noise_floor": float(res.noise_floor.max())}
    return {"points": rows, "flat": bool(res.flat.all())}, residuals, status


# ----------------------------------------------------- isoparametric-check

def cmd_isoparametric_check(args):
    from .foliation import parse_model, random_leaf_points
    from .hessian import (InducedNorm, fd_indicatrix_operators,
                          indicatrix_grad_t_norm, indicatrix_laplacian_t)
    p = load_profile(args.profile)
    m = parse_model(args.model)
    nm = InducedNorm(m, p)
    ts = np.linspace(*_leaf_range(m, args.delta, 0.02), args.t_count)
    leaves = random_leaf_points(m, np.repeat(ts, args.xi_count),
                                args.t_count * args.xi_count, seed=args.seed,
                                delta=args.delta)
    g_fd, l_fd = (v.reshape(args.t_count, args.xi_count)
                  for v in fd_indicatrix_operators(nm, leaves))
    g_closed = np.array([indicatrix_grad_t_norm(nm, t) for t in ts.tolist()])
    l_closed = np.array([indicatrix_laplacian_t(nm, t) for t in ts.tolist()])
    rows = [{"t": t, "grad_norm": float(g), "laplacian": float(lap),
             "grad_norm_fd": float(gf), "laplacian_fd": float(lf)}
            for t, g, lap, gf, lf in zip(ts.tolist(), g_closed, l_closed,
                                         g_fd.mean(axis=1), l_fd.mean(axis=1))]
    grad_err = np.max(np.abs(g_fd - g_closed[:, None]))
    lap_err = np.max(np.abs(l_fd - l_closed[:, None]))
    spread = max(np.ptp(g_fd, axis=1).max(), np.ptp(l_fd, axis=1).max())
    residuals = {"grad_error": grad_err, "laplacian_error": lap_err,
                 "xi_spread": spread}
    status = _status_from(residuals)
    return {"points": rows, "isoparametric": status != "failed"}, residuals, status


# --------------------------------------------------------------- isometry

def _parse_theta(spec: str):
    from .isometry import ThetaMap, identity_map, legendre_map_tag
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


def _default_anchor(f, theta, t0: float) -> float:
    from .isometry import theta_jet
    # the two closed-form kinds: the anchor of their canonical triple, the
    # dual over a b; otherwise pin h = f at the mapped anchor angle
    if theta.kind in ("legendre", "scaled-legendre"):
        from .planar import legendre_dual_jet
        return legendre_dual_jet(f, t0, 0, 1.0)[0] / math.prod(theta.params)
    th0 = theta_jet(theta, f, t0, 0)[0]
    return float(f.evaluate(th0, 0))


def _triple_residual(tr, grid: int) -> dict:
    from .isometry import INTERIOR_GUARD, ode_residuals
    ts = np.linspace(INTERIOR_GUARD, math.pi / tr.f.d - INTERIOR_GUARD, grid)
    res = ode_residuals(tr, ts)
    worst = np.max(np.abs(res), axis=1)
    out = {f"ode_eq{i}": float(w) for i, w in enumerate(worst)}
    out["ode_max"] = float(np.max(worst))
    return out


def cmd_isometry_solve(args):
    from .isometry import (IsometryTriple, build_h_from_theta, save_triple,
                           triple_to_json_dict)
    f = load_profile(args.profile)
    theta = _parse_theta(args.theta)
    t0 = args.theta0 if args.theta0 is not None else math.pi / (2 * f.d)
    h0 = args.h0 if args.h0 is not None else _default_anchor(f, theta, t0)
    h = build_h_from_theta(f, theta, t0, h0, grid_size=args.grid)
    tr = IsometryTriple(f=f, h=h, theta=theta)
    worst = {"ode_max": _triple_residual(tr, 256)["ode_max"]}
    if args.out:
        save_triple(tr, args.out)
    results = {
        "triple": triple_to_json_dict(tr),
        "theta0": float(t0),
        "h0": float(h0),
        "written": args.out or None,
    }
    return results, worst, _status_from(worst)


def cmd_isometry_check(args):
    from .isometry import load_triple
    tr = load_triple(args.triple)
    per_eq = _triple_residual(tr, args.grid)
    results = {"d": int(tr.f.d), "equations": len(per_eq) - 1}
    # every equation shares the ode_max thresholds, so the worst decides
    return results, per_eq, _status_from({"ode_max": per_eq["ode_max"]})


def cmd_isometry_classify(args):
    from .isometry import classify_sectors, load_triple
    tr = load_triple(args.triple)
    labels = classify_sectors(tr, grid=args.grid, tol=args.tol)
    sectors = [{"lo": float(s.lo), "hi": float(s.hi), "label": s.label}
               for s in labels]
    if args.degrees:
        for s in sectors:
            s["lo_degrees"] = math.degrees(s["lo"])
            s["hi_degrees"] = math.degrees(s["hi"])
    return {"sectors": sectors}, {}, "ok"


def cmd_isometry_glue(args):
    from .isometry import (DEFAULT_BAND_WIDTH, glue_construct, save_triple,
                           triple_to_json_dict)
    f_base = load_profile(args.profile)
    with open(args.sectors) as fh:
        spec = json.load(fh)
    if isinstance(spec, dict):
        if extra := sorted(set(spec) - {"sectors"}):
            raise ValueError(f"sectors file may hold only 'sectors', not {extra}: "
                             f"the band width comes from --band-width")
        spec = json_field(spec, "sectors", "sectors file")
    band = DEFAULT_BAND_WIDTH if args.band_width is None else args.band_width
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
    return results, residuals, _status_from(residuals)


# ------------------------------------------------------------------ sample

def cmd_sample(args):
    p = load_profile(args.profile)
    rng = np.random.default_rng(args.seed)
    if args.model:
        from .foliation import parse_model, random_leaf_points
        from .hessian import InducedNorm, value as induced_value
        m = parse_model(args.model)
        nm = InducedNorm(m, p)
        ts = rng.uniform(*_leaf_range(m, args.delta, 0.05), args.count)
        r = 1.0 / np.sqrt(2.0 * p.evaluate(ts, 0))
        X = r[:, None] * random_leaf_points(m, ts, args.count, seed=args.seed,
                                            delta=args.delta)
        F = induced_value(nm, X)
    else:
        from .planar import PlanarNorm, indicatrix_point, value as planar_value
        nm = PlanarNorm(p)
        ts = rng.uniform(0.0, 2.0 * math.pi, args.count)
        X = indicatrix_point(nm, ts)
        r = np.hypot(X[:, 0], X[:, 1])
        F = planar_value(nm, X)
    rows = np.column_stack([ts, r, X]).tolist()
    norm_err = np.max(np.abs(np.subtract(F, 1.0)))
    dim = X.shape[1]
    columns = ["t", "r"] + [f"x{i}" for i in range(dim)]
    residuals = {"norm_error": norm_err}
    out = ({"columns": columns, "dimension": dim,
            "points": [[float(v) for v in row] for row in rows]},
           residuals, _status_from(residuals))
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(format(v, ".17g") for v in row))
        return out + ("\n".join(lines),)
    return out


# --------------------------------------------------------------- foliation

def cmd_foliation_info(args):
    from .foliation import focal_dimensions, multiplicities, parse_model
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
    return results, {}, "ok"


# ------------------------------------------------------------------ parser

def _count(text: str, least: int = 1) -> int:
    """type= of the count options: an int of at least 1, and of `least`."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    for bound in (1, least):
        if n < bound:
            raise argparse.ArgumentTypeError(f"must be at least {bound}, got {n}")
    return n


class _Unbuilt:
    """The stand-in for a command's parser that is not built: drops calls."""
    __getattr__ = lambda self, name: lambda *args, **kwargs: self


@functools.cache
def build_parser(command: str | None = None) -> _Parser:
    """The tree of one command (all, for None or a word naming none), built
    once per command and reused by `main`: no option has a mutable default."""
    parser = _Parser(prog="isonorm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_parser(name, **kwargs):  # others keep their name for usage lines
        if command in (None, name):
            return sub.add_parser(name, **kwargs)
        return sub.choices.setdefault(name, _Unbuilt())

    sp = add_parser("validate", help="Minkowski validity of a profile")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--degrees", action="store_true")
    sp.set_defaults(func=cmd_validate)

    sp = add_parser("dual", help="planar dual profile via the gradient map")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--grid", type=int, default=512)
    sp.add_argument("--terms", type=_count, default=None)
    sp.set_defaults(func=cmd_dual)

    sp = add_parser("tensor", help="fundamental tensor vs frame closed forms")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.set_defaults(func=cmd_tensor)

    sp = add_parser("curvature",
                    help="finite-difference Riemann tensor of the "
                         "Hessian metric")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--t", type=float, default=None)
    sp.add_argument("--samples", type=_count, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.set_defaults(func=cmd_curvature)

    sp = add_parser("isoparametric-check",
                    help="leaf parameter has xi-independent gradient "
                         "norm and Laplacian on the indicatrix")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--t-count", type=_count, default=5)
    # xi_spread compares the points of a leaf: one point compares nothing
    sp.add_argument("--xi-count", type=lambda text: _count(text, 2), default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.set_defaults(func=cmd_isoparametric_check)

    iso = add_parser("isometry", help="isometry triple tool chain")
    isosub = iso.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    sp = isosub.add_parser("solve", help="build h from a profile and theta")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--theta", required=True,
                    help="identity | legendre | linear:a:b | scaled-legendre:a:b")
    sp.add_argument("--theta0", type=float, default=None)
    sp.add_argument("--h0", type=float, default=None)
    sp.add_argument("--grid", type=int, default=2048)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_isometry_solve)

    sp = isosub.add_parser("check", help="ODE residuals of a stored triple")
    sp.add_argument("--triple", required=True)
    sp.add_argument("--grid", type=_count, default=512)
    sp.set_defaults(func=cmd_isometry_check)

    sp = isosub.add_parser("classify",
                           help="label identity / legendre / transition runs")
    sp.add_argument("--triple", required=True)
    sp.add_argument("--grid", type=_count, default=512)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--degrees", action="store_true")
    sp.set_defaults(func=cmd_isometry_classify)

    sp = isosub.add_parser("glue",
                           help="assemble a triple from sector directives")
    sp.add_argument("--profile", required=True,
                    help="base profile; must be round on the blend bands")
    sp.add_argument("--sectors", required=True,
                    help="JSON file: list of {lo, hi, mode, scale}")
    sp.add_argument("--band-width", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_isometry_glue)

    sp = add_parser("sample", help="points on the unit sphere of the norm")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--model", default=None,
                    help="omit for the planar norm of the profile")
    sp.add_argument("--count", type=_count, default=16)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--delta", type=float, default=DEFAULT_FOCAL_GUARD)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_sample)

    fol = add_parser("foliation", help="foliation model metadata")
    folsub = fol.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)
    sp = folsub.add_parser("info")
    sp.add_argument("--model", required=True)
    sp.add_argument("--degrees", action="store_true")
    sp.set_defaults(func=cmd_foliation_info)

    return parser if command in (None, *sub.choices) else build_parser()


def main(argv=None) -> int:
    """Run one command: its cmd_* returns (results, residuals, status), plus
    the text to print in place of the JSON report (`sample --format csv`)."""
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(*argv[:1]).parse_args(argv)
    try:
        results, residuals, status, *rendered = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"isonorm: error: {exc}", file=sys.stderr)
        return 1
    report = {
        "tool": "isonorm",
        "version": __version__,
        "command": args.command + (f" {args.subcommand}" if "subcommand" in args
                                   else ""),
        "inputs": {k: v for k, v in vars(args).items() if k not in NOT_INPUTS},
        "results": results,
        "residuals": {k: float(v) for k, v in residuals.items()},
        "status": status,
    }
    print(rendered[0] if rendered else
          json.dumps(report, indent=2, sort_keys=True, allow_nan=False))
    return EXIT_BY_STATUS[status]


def run() -> int:
    """The process entry: `main` with no cyclic GC (see the module docstring)."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
