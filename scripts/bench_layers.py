#!/usr/bin/env python3
"""Time a few layers of isonorm on fixed inputs and write BENCH_<label>.json.

Each row is the best of --repeat timed calls (the ~15 ms 96-term rows of
`is_minkowski` and `DualProfile` take LONG_ROW_REPEAT times as many),
rescaled to a fixed host speed with perfbench's probe kernel
(perfbench/hostspeed.py), which runs right before and right after the row's
calls.  A row whose two probe readings differ by more than PROBE_SPREAD
times is timed again, at most RETIMES times, as one slow probe would
rescale the whole row; `tries` records how often it ran.  The
fresh-process rows are not rescaled: the probe times the interpreter's own
compute, not process start and file reads, and has flipped the sign of a
change there, so they record their best and median wall time as measured,
and `scaled_ms` is null.  The rows:

- `is_minkowski` on Profile(2, (1, 0.5)) and on the 96-term cartan3 glue
  base of scripts/isometry_gallery.py, cold (a new, equal profile object per
  call) and warm (the same object again, after one untimed call), and cold
  on Profile(3, (0.5, 0.02, 0.005)), a three-term check on floats;
- `require_minkowski` on that glue base, cold: the pass/fail check of the
  first glue op of every run (a long series' sampled gate, or the exact
  report where the gate is absent or undecided);
- `DualProfile(f).scaled(k)` for three k, f a new copy of that base per call;
- a glued cartan3 triple on that base and its lift check:
  `glue_construct`, two `InducedNorm`s and `check_hessian_isometry` with 20
  samples, once with a new copy of the base per call and once reusing one
  base object, as a caller gluing many sector layouts on one base does;
- the JSON round trip of `isometry solve --out` and `isometry check`:
  `triple_from_json_dict(json.loads(json.dumps(triple_to_json_dict(tr))))`
  for the Legendre triple on Profile(2, (1, 0.2)) whose h comes from
  `build_h_from_theta`, anchored as the CLI anchors it;
- `dual_profile(PlanarNorm(Profile(2, (1, 0.5))))` at grid 512, with a new
  norm per call;
- `bump_profile(3, GLUE_HUMPS)`, the fit of that glue base: 8193 samples to
  96 terms;
- `build_h_from_theta` of the linear map (1.3, 0.8) on Profile(2, (1, 0.2)),
  anchored as perfbench's isometry-lift anchors it (h = f / (a^2 cos^2 t0 +
  b^2 sin^2 t0) at t0 = pi/4), at its default grid: the build of every
  `isometry solve` and lift-linear op;
- `is_minkowski` on that solved h, 32 terms, cold, and `require_minkowski`
  on it, cold: the report, and the check of every lift-linear op's
  `InducedNorm` of h;
- in-process `isonorm.cli.main(["isometry", "check", "--triple", path])`,
  its report discarded, where path holds that solved Legendre triple;
- `glue_construct` alone on the reused 96-term base (the glue row above
  without its lift check);
- `classify_sectors` (grid 512) of that glued cartan3 triple, built once:
  theta and the Legendre angle from one jet of the base on the grid;
- `theta_jet` (k = 0) of that triple's piecewise theta on `glue_construct`'s
  1024-angle monotonicity grid: the base is jetted on the Legendre piece's
  rows only;
- planar `check_d_property` (20 samples, V' the x1 axis) of the exact-dual
  Legendre triple on Profile(2, (1, 0.2)): the norms of f and of its
  `DualProfile`, and `planar_lift_map` of the triple;
- `check_hessian_isometry` (20 samples) of the cartan3 Legendre lift of
  Profile(3, (0.5, 0.05)): the induced norms of f and of its `DualProfile`,
  and `lift_to_nd` of the triple, built anew for each call, untimed (the
  dual keeps its last solve, and each call reads h at the same images);
- `check_hessian_isometry` (20 samples) of the d1:3 identity lift of
  Profile(1, (1, 0.5)), the norm and the lift built once: the check whose
  time went to differencing the map before the lift carried its exact
  differential;
- in-process `isonorm.cli.main(["sample", "--profile", path, "--model",
  "cartan3", "--count", "16"])`, its report discarded, where path holds
  Profile(3, (0.5, 0.05));
- 256 one-angle `ode_residuals` calls of the exact-dual Legendre triple on
  Profile(2, (1, 0.5)), at the interior angles of a 258-point grid on
  [0, pi/2] (the loop of perfbench's planar-sweep), whose h is read in
  closed form at t;
- 256 one-angle `ode_residuals` calls at those angles of the
  linear:1.3:0.8 triple on Profile(2, (1, 0.2)) whose h is its solved
  32-term series (`build_h_from_theta`, as in the rows above): the path of
  a triple that is not the exact dual's, whose h reads its own jet;
- one `ode_residuals` call on those 256 angles in one array, of the triple
  with h = `DualProfile(Profile(2, (1, 0.5)))` under scaled-legendre:1.2:0.9:
  a triple whose h is still read by one array Newton solve of the dual (a
  new dual per call, as a dual keeps its last solve);
- `DualProfile(Profile(2, (1, 0.5))).evaluate` on 256 angles of [0, pi/2]
  in one array, a new dual per call (a dual keeps its last solve);
- `evaluate` at orders 0, 1 and 2 on those 256 angles, one after the
  other, of a new `DualProfile(Profile(2, (1, 0.5)))` per call: the orders
  of one grid, which share one Newton solve;
- in-process `isonorm.cli.main(["isoparametric-check", "--profile", path,
  "--model", "d2:8:3"])` with its defaults, its report discarded, where path
  holds Profile(2, (1, 0.2));
- 15 one-point `fd_indicatrix_laplacian_t` calls on cartan3 with
  Profile(3, (0.5, 0.02)), 3 points on each of 5 leaves in
  [0.3, pi/3 - 0.3] (the path of perfbench's field-sweep);
- 20 one-point `shape_spectrum`, `riemann_fd`, `t_coord`,
  `closed_fundamental_tensor`, `fd_fundamental_tensor`, `frame_basis`,
  `closed_frame_matrix` and `fd_indicatrix_operators` calls, one row each:
  one point on each of 5 leaves in [0.3, pi/d - 0.3] of each of
  field-sweep's models d1:3, d2:4:2, d2:8:3 and cartan3, with a curved
  profile of field-sweep's for the norm's rows (the frame functions take
  the point's shape spectrum, computed untimed);
- one one-point `fd_indicatrix_operators` call on d2:8:3 with
  Profile(2, (1, 0.4)) at the middle one of those leaves, t = pi/4, on a
  new model and norm per call (they keep their last point's passes): a
  point's polar pass on floats, then one q-form pass for G, T, dt and
  Hess t and two solves with G;
- field-sweep's six calls at one point, `shape_spectrum`,
  `fd_fundamental_tensor`, `frame_basis`, `closed_frame_matrix`,
  `riemann_fd` and `fd_indicatrix_laplacian_t`, on d2:8:3 with
  Profile(2, (1, 0.4)) and on cartan3 with Profile(3, (0.5, 0.05)), at a
  point of the leaf t = pi/(2d): once on a new model and norm per call,
  whose six calls share one polar pass, w and q-form pass, and once on one
  model and norm whose last point it is, where they read all three kept;
- a cold `InducedNorm(cartan3(), Profile(3, (0.5, 0.02, 0.005)))`: a new
  three-term profile per call, its kernel built and its validity checked,
  as each field-sweep op builds its norm;
- one 20-point `riemann_fd` call on cartan3 with that profile,
  Profile(3, (0.5, 0.05)): 4 points on each of 5 leaves in
  [0.3, pi/3 - 0.3], whose 20 rows take one pass of the exact G and T (a
  former checkout's 220 finite-difference stencil rows, one closed-form
  tensor call);
- `integrate_branch(f, "two", 0.3, theta_legendre(f, 0.3), 0.7)` for
  f = Profile(3, (0.5, 0.05)): 4096 RK4 steps of the Legendre branch, each
  four one-angle jets of f (the paper's two-branch reduction);
- 1000 one-angle `jet(t, 2)` calls of Profile(2, (1, 0.5)), at the angles
  of a 1000-point grid on [0, pi], and `jet(t, 2)` on 4096 angles of
  [0, pi] in one array, of that profile, of the 96-term glue base (the
  Clenshaw sum of a short series and the rotation table of a long one) and
  of `DualProfile(Profile(2, (1, 0.5)))` (a new one per call: one array
  Newton solve, then h, h' and h'' in closed form);
- 1000 one-angle `jet(t, 3)` calls of Profile(3, (0.5, 0.02, 0.005)) at
  those angles: a three-term kernel to order 3;
- 1000 one-angle `jet(t, 2)` calls of Profile(3, (0.5, 0.03, 0.01, 0.004))
  at those angles: the float path of a long series' rotation table;
- `jet(t, 1)` of the 96-term glue base on 512 angles of [0, pi/3] in one
  array, the shape of `classify_sectors`' `theta_legendre`;
- 1000 one-angle `jet(t, 2)` calls of `DualProfile(Profile(2, (1, 0.5)))`
  at the same angles: the exact dual's Newton solve of a one-element array
  and closed-form h, h' and h'', without the rest of `ode_residuals`;
- a fresh `python -m isonorm.cli validate --profile path` process, where
  path holds Profile(2, (1, 0.5)), a fresh `python -m isonorm.cli
  foliation info --model cartan3` process and a fresh `python -m
  isonorm.cli isometry check --triple path` process on the solved Legendre
  triple above, each its report discarded: interpreter start, the imports
  the command makes, the command and the exit.  `isometry check` computes
  least of all the commands, so start-up and exit set its time.  The
  process finds isonorm where this script imported it, and writes bytecode
  only where the environment lets it.

Only public names are used, so the script also times another checkout:

    python3 scripts/bench_layers.py --label mine
    PYTHONPATH=../other/src python3 scripts/bench_layers.py --label other

The file records the git commit of the isonorm package that was imported,
whether its source differs from that commit, the Python and numpy versions
and the three BLAS thread variables the script pins before numpy loads
(`blas_threads`).
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one BLAS thread, as perfbench sets it, before numpy loads
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import isonorm  # noqa: E402
from isonorm import (Decomposition, DualProfile, InducedNorm,  # noqa: E402
                     IsometryTriple, PlanarNorm, Profile, Sector, ThetaMap,
                     build_h_from_theta, bump_profile, cartan3,
                     check_d_property, check_hessian_isometry,
                     classify_sectors, dual_profile,
                     fd_fundamental_tensor, fd_indicatrix_laplacian_t,
                     glue_construct, identity_map,
                     integrate_branch, is_minkowski, legendre_map_tag,
                     lift_to_nd, ode_residuals, parse_model, planar_lift_map,
                     random_leaf_points, riemann_fd, save_profile, save_triple,
                     shape_spectrum, t_coord, theta_jet, theta_legendre,
                     triple_from_json_dict, triple_to_json_dict)
from isonorm.cli import main as cli_main  # noqa: E402
from isonorm.hessian import (closed_frame_matrix,  # noqa: E402
                             closed_fundamental_tensor, fd_indicatrix_operators,
                             frame_basis)
from isonorm.isometry import INTERIOR_GUARD  # noqa: E402
from isonorm.planar import legendre_dual_jet  # noqa: E402
from isonorm.profile import require_minkowski  # noqa: E402

GLUE_HUMPS = [(0.24, 0.4), (0.78, 0.36)]  # isometry_gallery.py's glue base
GLUE_BREAK = 0.52
GLUE_BAND = 0.02
LIFT_SAMPLES = 20
DUAL_SCALES = (0.5, 2.0, 3.0)
LINEAR = (1.3, 0.8)  # isometry_gallery.py's linear theta map
# field-sweep's models, each with one of its curved profiles
FIELD_MODELS = {"d1:3": (0.5225, 0.3, 0.0225), "d2:4:2": (1.0, 0.4),
                "d2:8:3": (1.0, 0.4), "cartan3": (0.5, 0.05)}
ODE_ANGLES = np.linspace(0.0, math.pi / 2, 258)[1:-1]  # planar-sweep's, d = 2
DUAL_GRID = np.linspace(0.0, math.pi / 2, 256)
JET_ANGLES = np.linspace(0.0, math.pi, 1000).tolist()
JET_GRID = np.linspace(0.0, math.pi, 4096)
CLASSIFY_GRID = np.linspace(0.0, math.pi / 3, 512)
GLUE_GRID = np.linspace(INTERIOR_GUARD, math.pi / 3 - INTERIOR_GUARD, 1024)
# the ~15 ms 96-term rows take this many times --repeat calls; even at best
# of 60 they spread by ~50 % between runs of one commit, as the host has
# slow stretches longer than a row, so compare them only across many runs
LONG_ROW_REPEAT = 4
PROBE_SPREAD = 1.5
RETIMES = 3


def _times(call, setup, repeat: int) -> list:
    """Wall times of `repeat` calls of call(setup()); setup untimed."""
    times = []
    for _ in range(repeat):
        arg = setup()
        t0 = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - t0)
    return times


def _require(p):
    return require_minkowski(p, "profile is not a Minkowski norm profile")


def _glue(base):
    return glue_construct(base, [Sector(0.0, GLUE_BREAK, "scale"),
                                 Sector(GLUE_BREAK, math.pi / 3, "legendre-scale")],
                          band_width=GLUE_BAND)


def _glue_check(base):
    m = cartan3()
    tr = _glue(base).triple
    return check_hessian_isometry(InducedNorm(m, tr.f), InducedNorm(m, tr.h),
                                  lift_to_nd(tr, m), samples=LIFT_SAMPLES, seed=0)


def _solved_triple() -> IsometryTriple:
    """`isometry solve --theta legendre` on Profile(2, (1, 0.2))."""
    f = Profile(2, (1.0, 0.2))
    t0 = math.pi / 4
    h = build_h_from_theta(f, legendre_map_tag(), t0,
                           legendre_dual_jet(f, t0, 0, 1.0)[0])
    return IsometryTriple(f=f, h=h, theta=legendre_map_tag())


def _linear_build(f):
    """h of the linear map LINEAR on f, anchored as isometry-lift does."""
    (a, b), t0 = LINEAR, math.pi / (2 * f.d)
    tm = ThetaMap(kind="linear", params=LINEAR)
    h0 = f.evaluate(t0, 0) / (a * a * math.cos(t0) ** 2 + b * b * math.sin(t0) ** 2)
    return build_h_from_theta(f, tm, t0, h0)


def _triple_json_round_trip(tr):
    return triple_from_json_dict(json.loads(json.dumps(triple_to_json_dict(tr))))


def _cli(argv):
    """In-process `isonorm.cli.main(argv)`, its report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(argv)


def _planar_d_property(f):
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    return check_d_property(PlanarNorm(f), PlanarNorm(tr.h), planar_lift_map(tr),
                            Decomposition(vprime=(1.0, 0.0)), samples=LIFT_SAMPLES)


def _cartan_lift():
    """Norms of f = Profile(3, (0.5, 0.05)) and of its exact dual, and their
    Legendre lift on cartan3."""
    m, f = cartan3(), Profile(3, (0.5, 0.05))
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    return InducedNorm(m, f), InducedNorm(m, tr.h), lift_to_nd(tr, m)


def _d1_identity_lift():
    """The norm of f = Profile(1, (1, 0.5)) on d1:3, twice, and its identity
    lift."""
    m, f = parse_model("d1:3"), Profile(1, (1.0, 0.5))
    nm = InducedNorm(m, f)
    return nm, nm, lift_to_nd(IsometryTriple(f=f, h=f, theta=identity_map()), m)


def _one_angle_residuals(tr):
    return [ode_residuals(tr, float(t)) for t in ODE_ANGLES]


def _one_angle_jets(p, k: int = 2):
    return [p.jet(t, k) for t in JET_ANGLES]


def _fresh_cli(argv):
    src = os.path.dirname(os.path.dirname(isonorm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "isonorm.cli", *argv],
                          env=env, capture_output=True, check=True)


def _legendre_branch(f):
    return integrate_branch(f, "two", 0.3, theta_legendre(f, 0.3), 0.7)


def _field_points():
    """(norm, point, shape spectrum) triples: one point on each of 5 leaves
    per field model."""
    out = []
    for spec, coeffs in FIELD_MODELS.items():
        m = parse_model(spec)
        nm = InducedNorm(m, Profile(m.d, coeffs))
        leaves = np.linspace(0.3, math.pi / m.d - 0.3, 5)
        out += [(nm, u, shape_spectrum(m, u))
                for u in random_leaf_points(m, leaves, 5, seed=0)]
    return out


def _new_norm(spec):
    """A new model of a field model and its norm of FIELD_MODELS' profile."""
    m = parse_model(spec)
    return m, InducedNorm(m, Profile(m.d, FIELD_MODELS[spec]))


def _six_calls(a):
    """field-sweep's six calls at the point u of model m and norm nm."""
    m, nm, u = a
    spec = shape_spectrum(m, u)
    return (fd_fundamental_tensor(nm, u), frame_basis(nm, u, spec),
            closed_frame_matrix(nm, u, spec), riemann_fd(nm, u),
            fd_indicatrix_laplacian_t(nm, u))


def rows(tmp: str):
    """(name, call, setup, repeat factor) of every row; setup() builds the
    call's input.  Files a row reads are written under the directory tmp."""
    small = Profile(2, (1.0, 0.5))
    base = bump_profile(3, GLUE_HUMPS)

    def copy(p):  # an equal profile, as a new object per call
        return lambda: Profile(p.d, p.cos_coeffs)

    out = [("is_minkowski cold, Profile(2, (1, 0.5))", is_minkowski, copy(small)),
           ("is_minkowski warm, Profile(2, (1, 0.5))", is_minkowski, lambda: small),
           ("is_minkowski cold, Profile(3, (0.5, 0.02, 0.005))", is_minkowski,
            copy(Profile(3, (0.5, 0.02, 0.005)))),
           ("is_minkowski cold, 96-term glue base", is_minkowski, copy(base)),
           ("is_minkowski warm, 96-term glue base", is_minkowski, lambda: base),
           ("require_minkowski cold, 96-term glue base", _require, copy(base))]
    for k in DUAL_SCALES:
        out.append((f"DualProfile(f).scaled({k:g}), 96-term glue base",
                    lambda f, k=k: DualProfile(f).scaled(k), copy(base)))
    out.append(("glue_construct + InducedNorm + check_hessian_isometry, "
                "new base object", _glue_check, copy(base)))
    out.append(("glue_construct + InducedNorm + check_hessian_isometry, "
                "reused base object", _glue_check, lambda: base))
    triple = _solved_triple()
    out.append(("triple JSON round trip, solved Legendre triple on "
                "Profile(2, (1, 0.2))", _triple_json_round_trip, lambda: triple))
    out.append(("dual_profile(PlanarNorm(Profile(2, (1, 0.5)))), grid 512",
                dual_profile, lambda: PlanarNorm(Profile(2, (1.0, 0.5)))))
    out.append(("bump_profile(3, GLUE_HUMPS), the 96-term glue base's fit",
                lambda humps: bump_profile(3, humps), lambda: GLUE_HUMPS))
    out.append(("build_h_from_theta, linear:1.3:0.8 on Profile(2, (1, 0.2))",
                _linear_build, lambda: Profile(2, (1.0, 0.2))))
    solved_h = _linear_build(Profile(2, (1.0, 0.2)))
    out.append(("is_minkowski cold, 32-term solved h, linear:1.3:0.8 on "
                "Profile(2, (1, 0.2))", is_minkowski, copy(solved_h)))
    out.append(("require_minkowski cold, 32-term solved h, linear:1.3:0.8 on "
                "Profile(2, (1, 0.2))", _require, copy(solved_h)))
    triple_path = os.path.join(tmp, "triple.json")
    save_triple(triple, triple_path)
    out.append(("cli.main isometry check in-process, solved Legendre triple on "
                "Profile(2, (1, 0.2))", _cli,
                lambda: ["isometry", "check", "--triple", triple_path]))
    out.append(("glue_construct, reused 96-term glue base", _glue, lambda: base))
    glued = _glue(base).triple
    out.append(("classify_sectors, glued cartan3 triple on the 96-term glue base",
                classify_sectors, lambda: glued))
    out.append(("theta_jet, glued cartan3 map on glue_construct's 1024 angles, "
                "96-term glue base",
                lambda tr: theta_jet(tr.theta, tr.f, GLUE_GRID, 0), lambda: glued))
    out.append(("check_d_property, planar exact-dual Legendre triple on "
                "Profile(2, (1, 0.2))", _planar_d_property,
                lambda: Profile(2, (1.0, 0.2))))
    out.append(("check_hessian_isometry, cartan3 Legendre lift of "
                "Profile(3, (0.5, 0.05))",
                lambda a: check_hessian_isometry(*a, samples=LIFT_SAMPLES, seed=0),
                _cartan_lift))
    identity_lift = _d1_identity_lift()
    out.append(("check_hessian_isometry, d1:3 identity lift of Profile(1, (1, 0.5))",
                lambda a: check_hessian_isometry(*a, samples=LIFT_SAMPLES, seed=0),
                lambda: identity_lift))
    profile_path = os.path.join(tmp, "profile.json")
    save_profile(Profile(3, (0.5, 0.05)), profile_path)
    out.append(("cli.main sample --model cartan3 --count 16 in-process, "
                "Profile(3, (0.5, 0.05))", _cli,
                lambda: ["sample", "--profile", profile_path, "--model",
                         "cartan3", "--count", "16"]))
    dual_triple = IsometryTriple(f=small, h=DualProfile(small),
                                 theta=legendre_map_tag())
    out.append(("256 one-angle ode_residuals calls, exact-dual Legendre triple "
                "on Profile(2, (1, 0.5))", _one_angle_residuals,
                lambda: dual_triple))
    linear_triple = IsometryTriple(f=Profile(2, (1.0, 0.2)),
                                   h=_linear_build(Profile(2, (1.0, 0.2))),
                                   theta=ThetaMap(kind="linear", params=LINEAR))
    out.append(("256 one-angle ode_residuals calls, linear:1.3:0.8 triple with "
                "its solved 32-term h on Profile(2, (1, 0.2))", _one_angle_residuals,
                lambda: linear_triple))
    scaled = ThetaMap(kind="scaled-legendre", params=(1.2, 0.9))
    out.append(("ode_residuals, 256 angles in one array, DualProfile h under "
                "scaled-legendre:1.2:0.9 on Profile(2, (1, 0.5))",
                lambda tr: ode_residuals(tr, ODE_ANGLES),
                lambda: IsometryTriple(f=small, h=DualProfile(small), theta=scaled)))
    out.append(("DualProfile(Profile(2, (1, 0.5))).evaluate, 256 angles in one "
                "array", lambda h: h.evaluate(DUAL_GRID), lambda: DualProfile(small)))
    out.append(("DualProfile(Profile(2, (1, 0.5))).evaluate at orders 0, 1 and 2, "
                "one 256-angle array", lambda h: [h.evaluate(DUAL_GRID, k)
                                                  for k in range(3)],
                lambda: DualProfile(small)))
    ellipse_path = os.path.join(tmp, "ellipse.json")
    save_profile(Profile(2, (1.0, 0.2)), ellipse_path)
    out.append(("cli.main isoparametric-check --model d2:8:3 in-process, "
                "Profile(2, (1, 0.2))", _cli,
                lambda: ["isoparametric-check", "--profile", ellipse_path,
                         "--model", "d2:8:3"]))
    indicatrix_norm = InducedNorm(cartan3(), Profile(3, (0.5, 0.02)))
    leaves = np.repeat(np.linspace(0.3, math.pi / 3 - 0.3, 5), 3)
    indicatrix_points = random_leaf_points(cartan3(), leaves, len(leaves), seed=0)
    out.append(("15 one-point fd_indicatrix_laplacian_t calls, cartan3, "
                "Profile(3, (0.5, 0.02))",
                lambda us: [fd_indicatrix_laplacian_t(indicatrix_norm, u)
                            for u in us],
                lambda: indicatrix_points))
    field = _field_points()
    calls = {"shape_spectrum": lambda nm, u, _: shape_spectrum(nm.foliation, u),
             "riemann_fd": lambda nm, u, _: riemann_fd(nm, u),
             "t_coord": lambda nm, u, _: t_coord(nm.foliation, u),
             "closed_fundamental_tensor":
                 lambda nm, u, _: closed_fundamental_tensor(nm, u),
             "fd_fundamental_tensor": lambda nm, u, _: fd_fundamental_tensor(nm, u),
             "frame_basis": frame_basis, "closed_frame_matrix": closed_frame_matrix,
             "fd_indicatrix_operators":
                 lambda nm, u, _: fd_indicatrix_operators(nm, u)}
    for name, call in calls.items():
        out.append((f"20 one-point {name} calls, 5 leaves of each of d1:3, "
                    "d2:4:2, d2:8:3, cartan3",
                    lambda pts, call=call: [call(*pt) for pt in pts],
                    lambda: field))
    _, u, _ = field[12]  # d2:8:3, the middle leaf t = pi/4
    out.append(("one one-point fd_indicatrix_operators call, d2:8:3, "
                "Profile(2, (1, 0.4)), t = pi/4",
                lambda a: fd_indicatrix_operators(a[1], u),
                lambda: _new_norm("d2:8:3")))
    for spec in ("d2:8:3", "cartan3"):
        m, nm = _new_norm(spec)
        point = random_leaf_points(m, math.pi / (2 * m.d), 1, seed=0)[0]
        out.append((f"field-sweep's six calls at one point, {spec}, a new "
                    "model and norm per call", _six_calls,
                    lambda spec=spec, point=point: (*_new_norm(spec), point)))
        out.append((f"field-sweep's six calls at one point, {spec}, the "
                    "same model and norm", _six_calls,
                    lambda kept=(m, nm, point): kept))
    out.append(("InducedNorm(cartan3(), Profile(3, (0.5, 0.02, 0.005))) cold, "
                "a new profile per call",
                lambda c: InducedNorm(cartan3(), Profile(3, c)),
                lambda: (0.5, 0.02, 0.005)))
    cartan_norm = InducedNorm(cartan3(), Profile(3, FIELD_MODELS["cartan3"]))
    leaves = np.repeat(np.linspace(0.3, math.pi / 3 - 0.3, 5), 4)
    cartan_points = random_leaf_points(cartan3(), leaves, len(leaves), seed=0)
    out.append(("one 20-point riemann_fd call, 4 points on each of 5 leaves of "
                "cartan3, Profile(3, (0.5, 0.05))",
                lambda us: riemann_fd(cartan_norm, us), lambda: cartan_points))
    out.append(("integrate_branch two, Profile(3, (0.5, 0.05)), t 0.3 -> 0.7, "
                "4096 RK4 steps", _legendre_branch, lambda: Profile(3, (0.5, 0.05))))
    out.append(("1000 one-angle jet(t, 2) calls, Profile(2, (1, 0.5))",
                _one_angle_jets, lambda: small))
    out.append(("1000 one-angle jet(t, 2) calls, DualProfile(Profile(2, (1, 0.5)))",
                _one_angle_jets, lambda: dual_triple.h))
    out.append(("1000 one-angle jet(t, 3) calls, Profile(3, (0.5, 0.02, 0.005))",
                lambda p: _one_angle_jets(p, 3),
                lambda: Profile(3, (0.5, 0.02, 0.005))))
    out.append(("1000 one-angle jet(t, 2) calls, Profile(3, (0.5, 0.03, 0.01, 0.004))",
                _one_angle_jets, lambda: Profile(3, (0.5, 0.03, 0.01, 0.004))))
    out.append(("jet(t, 1), 512 angles in one array, 96-term glue base",
                lambda p: p.jet(CLASSIFY_GRID, 1), lambda: base))
    for what, new in (("Profile(2, (1, 0.5))", lambda: small),
                      ("96-term glue base", lambda: base),
                      ("DualProfile(Profile(2, (1, 0.5)))", lambda: DualProfile(small))):
        out.append((f"jet(t, 2), 4096 angles in one array, {what}",
                    lambda p: p.jet(JET_GRID, 2), new))
    small_path = os.path.join(tmp, "small.json")
    save_profile(small, small_path)
    out.append(("fresh process python -m isonorm.cli validate, "
                "Profile(2, (1, 0.5))", _fresh_cli,
                lambda: ["validate", "--profile", small_path]))
    out.append(("fresh process python -m isonorm.cli foliation info --model "
                "cartan3", _fresh_cli,
                lambda: ["foliation", "info", "--model", "cartan3"]))
    out.append(("fresh process python -m isonorm.cli isometry check, solved "
                "Legendre triple on Profile(2, (1, 0.2))", _fresh_cli,
                lambda: ["isometry", "check", "--triple", triple_path]))
    long_rows = {"is_minkowski cold, 96-term glue base",
                 "require_minkowski cold, 96-term glue base",
                 *(f"DualProfile(f).scaled({k:g}), 96-term glue base"
                   for k in DUAL_SCALES)}
    return [(*row, LONG_ROW_REPEAT if row[0] in long_rows else 1) for row in out]


def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], capture_output=True, text=True,
                              check=True,
                              cwd=Path(isonorm.__file__).parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names BENCH_<label>.json")
    ap.add_argument("--repeat", type=int, default=15, help="timed calls per row")
    ap.add_argument("--out-dir", default=str(ROOT),
                    help="directory of the output file (default: repo root)")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    table = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, call, setup, factor in rows(tmp):
            call(setup())  # untimed: first-call set-up, and warms the warm rows
            if call is _fresh_cli:
                times = _times(call, setup, factor * args.repeat)
                table.append({"name": name, "repeat": factor * args.repeat,
                              "best_ms": 1e3 * min(times),
                              "median_ms": 1e3 * statistics.median(times),
                              "scaled_ms": None})
                print(f"{table[-1]['best_ms']:10.4f} ms  {name} (best, unscaled)")
                continue
            for tries in range(1, RETIMES + 2):
                before = hostspeed.probe_s()
                best = min(_times(call, setup, factor * args.repeat))
                after = hostspeed.probe_s()
                if max(before, after) <= PROBE_SPREAD * min(before, after):
                    break
            table.append({"name": name, "repeat": factor * args.repeat,
                          "best_ms": 1e3 * best,
                          "scaled_ms": 1e3 * hostspeed.scaled(best, before, after),
                          "probe_ms": [1e3 * before, 1e3 * after],
                          "tries": tries})
            print(f"{table[-1]['scaled_ms']:10.4f} ms  {name}")

    status = _git("status", "--porcelain", "--", ".")
    report = {
        "label": args.label,
        "git_sha": _git("rev-parse", "HEAD"),
        "src_modified": status != "" if status != "unknown" else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "repeat": args.repeat,
        "timing": "best of a row's repeat calls; scaled_ms = best_ms * "
                  f"{hostspeed.REF_S * 1e3:g} ms / mean(probe_ms), from the "
                  f"last of `tries` timings, which stop once the probes are "
                  f"within {PROBE_SPREAD:g}x or after {RETIMES + 1}; "
                  "fresh-process rows: best_ms and median_ms as measured, "
                  "scaled_ms null",
        "rows": table,
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
