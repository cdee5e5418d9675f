"""The benchmark's four workloads: inputs made from the seed, ops, checks.

Every workload is a closed loop with one client: op i+1 starts when op i has
returned.  A run is a fixed number of ops, n, so that two commits run the
same ops and the tail percentile sits at the same place for both; `op(i)` is
a pure function of (seed, n, i).

Continuous inputs (the profile's |b|, a leaf value t, a glue break) come
from `strata`: the m ops of one kind in a run get m evenly spaced points of
its range, both ends included, in a seed-shuffled order.  Cost and the known
defect depend steeply on |b|, so every seed sweeps the same |b| values, up
to the largest, where the defect is; the seed draws the order, the signs, c0
and the sample points.  The share of ops that hit the defect and a run's
total work are then the same from seed to seed.

Sizes and mixes are the callers': library and CLI defaults,
scripts/isometry_gallery.py (one row per triple kind per d, its ODE grid and
its glue) and scripts/curvature_sweep.py (its profile families and two leaf
points per t).  README.md names the source of each value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

import oracles as O
from isonorm import foliation as F
from isonorm import hessian as H
from isonorm import isometry as I
from isonorm import planar as PL
from isonorm import profile as P

# share of the validity bound that b is drawn over
RANGE = 0.95
LIFT_MODELS = {1: "d1:3", 2: "d2:4:2", 3: "cartan3"}
# (coefficients, flat?) per model, from scripts/curvature_sweep.py: the round
# profile, the end of each family ray and its gate-table Randers profile,
# plus isometry_gallery's cartan3 base.  Flat ones have a quadratic energy.
FIELD_PROFILES = {
    "d1:3": [((0.5,), True), ((0.5, 0.0, 0.175), True),
             ((0.5225, 0.3, 0.0225), False)],
    "d2:4:2": [((1.0,), True), ((1.0, 0.4), True),
               ((1.0, 0.15, 0.06), False)],
    "d2:8:3": [((1.0,), True), ((1.0, 0.4), True),
               ((1.0, 0.15, 0.06), False)],
    "cartan3": [((0.5,), True), ((0.5, 0.05), False),
                ((0.5, 0.02, 0.005), False)],
}
# curvature_sweep.py samples two leaf points per leaf value
LEAF_POINTS = 2
# keeps leaf values where the FD Laplacian is within tolerance; the same
# margin curvature_sweep.py keeps from pi/d
FIELD_GUARD = 0.3
# isometry_gallery.py: its linear map and its glued cartan3 demo (base
# humps, band width, sectors); the break moves over the round gap
# [0.44, 0.60] between the humps, a band's half-width inside it
GALLERY_LINEAR = (1.3, 0.8)
GLUE_HUMPS = [(0.24, 0.4), (0.78, 0.36)]
GLUE_BAND = 0.02
GLUE_BREAKS = (0.47, 0.57)
# check_hessian_isometry's default sample count
LIFT_SAMPLES = 20


class Op(NamedTuple):
    kind: str
    inputs: str         # what the seed chose, for failure messages
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # inputs where the seed commit's exact dual is known to diverge: a
    # failure here counts in `failed`, a failure anywhere else also makes
    # the run incorrect
    known_defect: bool = False


def strata(seed: int, stream: int, count: int) -> np.ndarray:
    """`count` evenly spaced points of [0, 1], ends included (the middle for
    one point), in an order the seed shuffles."""
    rng = np.random.default_rng([seed, stream])
    points = np.linspace(0.0, 1.0, count) if count > 1 else np.array([0.5])
    return rng.permutation(points)


def draw_b(d: int, u: float, rng: np.random.Generator) -> float:
    """b in +-RANGE of the validity bound: |b| from u in [0, 1], since cost
    and the known defect depend on |b| only, and a random sign."""
    return RANGE * O.VALIDITY_BOUND[d] * u * rng.choice((-1.0, 1.0))


def op_rng(seed: int, stream: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, i])


def slot_draws(seed: int, n: int, period: int) -> list[np.ndarray]:
    """strata for each of the `period` op slots of a run of n ops."""
    return [strata(seed, 10 + pos, len(range(pos, n, period)))
            for pos in range(period)]


# ------------------------------------------------------------ planar-sweep

class PlanarSweep:
    """One op per profile c0 (1 + b cos(d t)), d cycling 1, 2, 3."""

    name = "planar-sweep"
    OPS_PER_S = 0.8         # at the seed commit; sizes a run of --seconds
    PERIOD = 3              # ops in one cycle of the mix: d = 1, 2, 3
    DUAL_GRID = 256         # the grid the exact dual was profiled on
    BUILD_GRID = 2048       # build_h_from_theta's default
    CLASSIFY_GRID = 512     # classify_sectors' default

    def __init__(self, seed: int, workdir: str, n: int):
        self.seed = seed
        self.u = slot_draws(seed, n, self.PERIOD)
        self.counters = {"dual_points": 0, "dual_points_ok": 0}

    def warmup(self) -> list[Op]:
        # the same mid-range profile for every seed, so that set-up does the
        # same work whatever the seed
        return [self._op(1, 0.5, op_rng(0, 1, 0))]

    def op(self, i: int) -> Op:
        pos, j = i % self.PERIOD, i // self.PERIOD
        return self._op(1 + pos, self.u[pos][j], op_rng(self.seed, 1, i))

    def _op(self, d: int, u: float, rng: np.random.Generator) -> Op:
        b = draw_b(d, u, rng)
        c0 = float(rng.uniform(0.5, 2.0))
        coeffs = (c0, c0 * b)
        grid = np.linspace(0.0, math.pi / d, self.DUAL_GRID)
        # isometry_gallery.py's ODE grid
        ode_ts = np.linspace(0.0, math.pi / d, 258)[1:-1]

        def run():
            f = P.Profile(d, coeffs)
            validity = P.is_minkowski(f)
            fit = PL.dual_profile(PL.PlanarNorm(f))
            dual = PL.DualProfile(f)
            h = [dual.evaluate(grid, k) for k in range(3)]
            tr = I.IsometryTriple(f=f, h=dual, theta=I.legendre_map_tag())
            ode = max(float(np.max(np.abs(I.ode_residuals(tr, float(t)))))
                      for t in ode_ts)
            t0 = math.pi / (2 * d)
            f0, f1 = f.evaluate(t0, 0), f.evaluate(t0, 1)
            built = I.build_h_from_theta(f, I.legendre_map_tag(), t0,
                                         f0 / (4 * f0 * f0 + f1 * f1),
                                         grid_size=self.BUILD_GRID)
            labels = I.classify_sectors(tr, grid=self.CLASSIFY_GRID)
            return validity, fit, h, ode, built, labels

        def check(out):
            validity, fit, h, ode, built, labels = out
            ref = O.reference_dual(d, coeffs, grid)
            ok = O.dual_points_ok(h[0], ref)
            self.counters["dual_points"] += ok.size
            self.counters["dual_points_ok"] += int(ok.sum())
            fails = [
                O.check_validity(validity.status, validity.min_gap, d, c0, b),
                None if ok.all() else
                f"exact dual off the reference at {ok.size - ok.sum()} of "
                f"{ok.size} points",
                O.check_fit(O.cosine_jet(d, fit.cos_coeffs, grid, 0), ref,
                            fit.fit_residual, "fitted dual"),
                O.check_ode(ode),
                O.check_fit(O.cosine_jet(d, built.cos_coeffs, grid, 0), ref,
                            built.fit_residual, "built h"),
            ]
            cgrid = np.linspace(I.INTERIOR_GUARD,
                                math.pi / d - I.INTERIOR_GUARD,
                                self.CLASSIFY_GRID)
            want = O.expected_classify(d, coeffs, cgrid)
            got = [s.label for s in labels]
            if got != [want]:
                fails.append(f"classify gave {got}, want [{want!r}]")
            return _join(fails)

        return Op(f"planar d={d}", f"c0={c0:.6f} b={b:+.6f}", run, check,
                  O.exact_dual_diverges(d, b))


# ------------------------------------------------------------- field-sweep

class FieldSweep:
    """One op per (model, profile, t); the models take turns, from a
    seed-chosen first one."""

    name = "field-sweep"
    OPS_PER_S = 8.5         # at the seed commit; sizes a run of --seconds
    MODELS = ("d1:3", "d2:4:2", "d2:8:3", "cartan3")
    PERIOD = len(MODELS)

    def __init__(self, seed: int, workdir: str, n: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.first = int(rng.integers(self.PERIOD))
        self.offset = rng.integers(0, 3, self.PERIOD)
        self.u = slot_draws(seed, n, self.PERIOD)
        self.counters = {}

    def warmup(self) -> list[Op]:
        return [self.op(i) for i in range(self.PERIOD)]

    def op(self, i: int) -> Op:
        pos, j = i % self.PERIOD, i // self.PERIOD
        mi = (self.first + pos) % self.PERIOD
        model = self.MODELS[mi]
        choices = FIELD_PROFILES[model]
        coeffs, flat = choices[(j + self.offset[mi]) % len(choices)]
        d = O.model_order(model)
        t = FIELD_GUARD + (math.pi / d - 2 * FIELD_GUARD) * self.u[pos][j]
        leaf_seed = int(op_rng(self.seed, 3, i).integers(2 ** 31))

        def run():
            m = F.parse_model(model)
            nm = H.InducedNorm(m, P.Profile(m.d, coeffs))
            out = []
            for u in F.random_leaf_points(m, t, LEAF_POINTS, seed=leaf_seed):
                spec = F.shape_spectrum(m, u)
                G = H.fd_fundamental_tensor(nm, u).matrix
                basis = H.frame_basis(nm, u, spec)
                closed = H.closed_frame_matrix(nm, u, spec)
                out.append((u, spec, basis.T @ G @ basis, closed,
                            H.riemann_fd(nm, u),
                            H.fd_indicatrix_laplacian_t(nm, u)))
            return H.indicatrix_laplacian_t(nm, t), out

        def check(result):
            lap, points = result
            fails = []
            for u, spec, projected, closed, curv, fd_lap in points:
                fails += [O.check_leaf(model, u, t),
                          O.check_spectrum(model, spec, t),
                          O.check_frame(projected, model, coeffs, t),
                          O.check_frame(closed, model, coeffs, t),
                          O.check_laplacian(lap, fd_lap)]
                if flat:
                    fails.append(O.check_flat(curv.max_abs_component,
                                              curv.flat))
            return _join(fails)

        return Op(f"field {model}", f"{coeffs} t={t:.6f} "
                  f"leaf_seed={leaf_seed}", run, check)


# ----------------------------------------------------------- isometry-lift

class IsometryLift:
    """isometry_gallery.py's rows of the three op kinds, in its order: per
    d, the identity, the Legendre (exact dual) and, for d = 1, 2, the linear
    triple, lifted and checked; then its glued cartan3 triple."""

    name = "isometry-lift"
    OPS_PER_S = 2.3         # at the seed commit; sizes a run of --seconds
    CYCLE = (("identity", 1), ("legendre", 1), ("linear", 1),
             ("identity", 2), ("legendre", 2), ("linear", 2),
             ("identity", 3), ("legendre", 3), ("glue", 3))
    PERIOD = len(CYCLE)

    def __init__(self, seed: int, workdir: str, n: int):
        self.seed = seed
        self.u = slot_draws(seed, n, self.PERIOD)
        self.glue_base = I.bump_profile(3, GLUE_HUMPS)
        self.counters = {}

    def warmup(self) -> list[Op]:
        # each lift kind once, on the same mid-range d = 1 base for every seed
        return [self._lift(kind, 1, 0.5, op_rng(0, 4, 0))
                for kind in ("identity", "legendre", "linear")]

    def op(self, i: int) -> Op:
        pos, j = i % self.PERIOD, i // self.PERIOD
        kind, d = self.CYCLE[pos]
        u = self.u[pos][j]
        if kind == "glue":
            return self._glue(GLUE_BREAKS[0]
                              + (GLUE_BREAKS[1] - GLUE_BREAKS[0]) * u, i)
        return self._lift(kind, d, u, op_rng(self.seed, 4, i))

    def _lift(self, kind: str, d: int, u: float,
              rng: np.random.Generator) -> Op:
        b = draw_b(d, u, rng)
        c0 = float(rng.uniform(0.5, 2.0))
        f_coeffs = (c0, c0 * b)
        model = LIFT_MODELS[d]
        sample_seed = int(rng.integers(2 ** 31))

        def run():
            m = F.parse_model(model)
            f = P.Profile(d, f_coeffs)
            if kind == "legendre":
                tr = I.IsometryTriple(f=f, h=PL.DualProfile(f),
                                      theta=I.legendre_map_tag())
            elif kind == "identity":
                tr = I.IsometryTriple(f=f, h=f, theta=I.identity_map())
            else:
                a, c = GALLERY_LINEAR
                lin = I.ThetaMap(kind="linear", params=GALLERY_LINEAR)
                t0 = math.pi / (2 * d)
                h0 = f.evaluate(t0, 0) / (a * a * math.cos(t0) ** 2
                                          + c * c * math.sin(t0) ** 2)
                tr = I.IsometryTriple(
                    f=f, h=I.build_h_from_theta(f, lin, t0, h0), theta=lin)
            return _lift_check(tr, m, sample_seed)

        return Op(f"lift-{kind}", f"{model} c0={c0:.6f} b={b:+.6f} "
                  f"sample_seed={sample_seed}", run, O.check_metric,
                  kind == "legendre" and O.exact_dual_diverges(d, b))

    def _glue(self, brk: float, i: int) -> Op:
        sectors = [I.Sector(0.0, brk, "scale"),
                   I.Sector(brk, math.pi / 3, "legendre-scale")]
        sample_seed = int(op_rng(self.seed, 4, i).integers(2 ** 31))

        def run():
            res = I.glue_construct(self.glue_base, sectors,
                                   band_width=GLUE_BAND)
            labels = [s.label for s in I.classify_sectors(res.triple)]
            return (res.max_band_residual, labels,
                    _lift_check(res.triple, F.cartan3(), sample_seed))

        def check(out):
            band, labels, metric = out
            want = ["identity", "legendre"]
            return _join([O.check_band(band), O.check_metric(metric),
                          None if labels == want else
                          f"glued triple classified {labels}, want {want}"])

        return Op("glue", f"cartan3 break={brk:.6f} sample_seed={sample_seed}",
                  run, check)


def _lift_check(tr, m, seed: int) -> float:
    return I.check_hessian_isometry(
        H.InducedNorm(m, tr.f), H.InducedNorm(m, tr.h), I.lift_to_nd(tr, m),
        samples=LIFT_SAMPLES, seed=seed).max_metric_residual


# ----------------------------------------------------------------- cli-mix

class CliMix:
    """Sequential `python -m isonorm.cli` runs over a fixed mix of 12 argvs
    covering all 11 subcommands, each with the CLI's default options.  An
    argv that runs again must print the same bytes as its first run."""

    name = "cli-mix"
    OPS_PER_S = 1.15        # at the seed commit; sizes a run of --seconds
    PERIOD = 12             # the mix's argvs
    MIN_OPS = 2 * PERIOD    # so that every argv runs twice

    def __init__(self, seed: int, workdir: str, in_process: bool = False):
        import jsonschema   # the test extra; imported only by this workload

        self.in_process = in_process
        root = os.getcwd()
        schema_path = os.path.join(root, "src", "isonorm", "schemas",
                                   "report.schema.json")
        with open(schema_path) as fh:
            self.schema = json.load(fh)
        self.validator = jsonschema.validators.validator_for(self.schema)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.outputs: dict[tuple, bytes] = {}
        self.counters = {}
        self.mix = self._make_inputs(seed, os.path.relpath(workdir, root))

    def _make_inputs(self, seed: int, wd: str) -> list:
        rng = np.random.default_rng([seed, 0])

        def write(name, obj):
            path = os.path.join(wd, name)
            with open(path, "w") as fh:
                json.dump(obj, fh)
            return path

        def cosine(d, coeffs):
            return {"d": d, "kind": "cosine", "cos_coeffs": list(coeffs)}

        dv, di, dm = (int(v) for v in rng.integers(1, 4, 3))
        c0 = float(rng.uniform(0.5, 2.0))
        b_valid = draw_b(dv, float(rng.random()), rng)
        b_bad = O.VALIDITY_BOUND[di] * float(rng.uniform(1.05, 1.5))
        # dual and solve take |b| <= half the bound, where the fitted dual
        # resolves to its ok bound, so exit 0 is the known answer; the full
        # range is swept by planar-sweep
        b_mod = 0.5 * draw_b(dm, float(rng.random()), rng)
        valid = write("valid.json", cosine(dv, (c0, c0 * b_valid)))
        invalid = write("invalid.json", cosine(di, (c0, c0 * b_bad)))
        moderate = write("moderate.json", cosine(dm, (c0, c0 * b_mod)))
        model = ("d1:3", "d2:4:2", "cartan3")[int(rng.integers(3))]
        choices = FIELD_PROFILES[model]
        m_coeffs = choices[int(rng.integers(len(choices)))][0]
        flat_coeffs = next(c for c, flat in choices if flat)
        md = O.model_order(model)
        field = write("field.json", cosine(md, m_coeffs))
        flat = write("flat.json", cosine(md, flat_coeffs))
        center = float(rng.uniform(0.4, 0.6))
        brk = float(rng.uniform(center + 0.25, math.pi / 2 - 0.15))
        base = write("bump.json",
                     I.bump_profile(2, [(center, 0.4)]).to_json_dict())
        sectors = write("sectors.json", {"sectors": [
            {"lo": 0.0, "hi": brk, "mode": "scale"},
            {"lo": brk, "hi": math.pi / 2, "mode": "legendre-scale"}]})
        triple = os.path.join(wd, "triple.json")
        t = FIELD_GUARD + (math.pi / md - 2 * FIELD_GUARD) \
            * float(rng.random())
        s = str(int(rng.integers(1000)))
        mod_coeffs = (c0, c0 * b_mod)
        cgrid = np.linspace(I.INTERIOR_GUARD, math.pi / dm - I.INTERIOR_GUARD,
                            512)

        def res(name, bound):
            return lambda r: None if r["residuals"][name] <= bound else \
                f"{name} {r['residuals'][name]:.3g} > {bound:g}"

        def dual_ok(r):
            coeffs = r["results"]["dual"]["cos_coeffs"]
            grid = np.linspace(0.0, math.pi / dm, 256)
            return O.check_fit(O.cosine_jet(dm, coeffs, grid, 0),
                               O.reference_dual(dm, mod_coeffs, grid),
                               r["residuals"]["fit_residual"], "dual")

        def info_ok(r):
            got = [(e["k"], e["m"]) for e in r["results"]["multiplicities"]]
            if got != O.model_multiplicities(model) or \
                    abs(r["results"]["sector_width"] - math.pi / md) > 1e-15:
                return f"foliation info for {model} is wrong"
            return None

        def field_is(key, want):
            return lambda r: None if r["results"][key] == want else \
                f"{key} is {r['results'][key]!r}, want {want!r}"

        def valid_ok(r):
            return O.check_validity(r["results"]["validity"],
                                    r["results"]["min_gap"], dv, c0, b_valid)

        want_labels = [O.expected_classify(dm, mod_coeffs, cgrid)]
        return [
            (["validate", "--profile", valid], 0, valid_ok),
            (["validate", "--profile", invalid], 1,
             field_is("validity", "invalid")),
            (["dual", "--profile", moderate], 0, dual_ok),
            (["tensor", "--model", model, "--profile", field, "--t", repr(t),
              "--seed", s], 0, res("frame_error", O.FRAME_TOL)),
            (["curvature", "--model", model, "--profile", flat,
              "--seed", s], 0, field_is("flat", True)),
            # ok, or marginal when FD noise in xi_spread passes the CLI's
            # ok bound (see oracles.XI_SPREAD_TOL)
            (["isoparametric-check", "--model", model, "--profile", field,
              "--seed", s], (0, 2), lambda r: _join([
                  res("laplacian_error", O.LAPLACIAN_TOL)(r),
                  res("grad_error", O.GRAD_TOL)(r),
                  res("xi_spread", O.XI_SPREAD_TOL)(r)])),
            (["isometry", "solve", "--profile", moderate, "--theta",
              "legendre", "--out", triple], 0, res("ode_max", O.ODE_OK_TOL)),
            (["isometry", "check", "--triple", triple], 0,
             res("ode_max", O.ODE_OK_TOL)),
            (["isometry", "classify", "--triple", triple], 0,
             lambda r: None if [x["label"] for x in r["results"]["sectors"]]
             == want_labels else f"classify gave {r['results']['sectors']}"),
            (["isometry", "glue", "--profile", base, "--sectors", sectors], 0,
             res("band_residual", O.BAND_TOL)),
            (["sample", "--model", model, "--profile", field, "--seed", s],
             0, res("norm_error", O.NORM_TOL)),
            (["foliation", "info", "--model", model], 0, info_ok),
        ]

    def warmup(self) -> list[Op]:
        return [self.op(len(self.mix) - 1)]

    def op(self, i: int) -> Op:
        argv, want_code, content_ok = self.mix[i % len(self.mix)]

        def run():
            if self.in_process:
                return _main_in_process(argv)
            proc = subprocess.run(
                [sys.executable, "-m", "isonorm.cli", *argv],
                capture_output=True, env=self.env, timeout=120)
            return proc.returncode, proc.stdout

        def check(out):
            code, stdout = out
            if code not in np.atleast_1d(want_code):
                return f"{argv[0]}: exit {code}, want {want_code}"
            if self.outputs.setdefault(tuple(argv), stdout) != stdout:
                return f"{' '.join(argv)}: output differs from an earlier run"
            try:
                report = json.loads(stdout)
            except ValueError:
                return f"{argv[0]}: output is not JSON"
            if O.EXIT_BY_STATUS.get(report.get("status")) != code:
                return f"{argv[0]}: exit {code} for status " \
                    f"{report.get('status')!r}"
            return O.check_report(report, self.schema, self.validator) \
                or content_ok(report)

        name = " ".join(a for a in argv[:2] if not a.startswith("-"))
        return Op("cli " + name, " ".join(argv), run, check)


def _main_in_process(argv) -> tuple[int, bytes]:
    from isonorm import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def _join(fails) -> "str | None":
    return "; ".join(f for f in fails if f) or None


WORKLOADS = {w.name: w for w in (CliMix, PlanarSweep, FieldSweep,
                                 IsometryLift)}
