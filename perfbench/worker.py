"""One workload in one process; spawned by run.py, which times its set-up.

Prints READY when set-up (import, input generation, warm-up) is done and the
first timed op is next, then PROBE and the time of a host-speed probe
(`hostspeed.py`), then, unless --setup-only, runs the timed loop and prints
RESULT followed by one JSON object.

A run is a fixed number of ops (`op_count`).  The probe runs again after
every op, and each op's time is rescaled by the probes on either side of
it; the raw wall times go on the detail line.  With --trace 1 the loop runs
twice over the same ops: untraced, then with every isonorm module wrapped by
the tracer.  Per-layer numbers come from the traced pass; the ratio of the
two passes' total op time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed as HS
import tracer as T

ROOT = Path.cwd().resolve()
# the tail needs ten samples beyond it
MIN_OPS = 11
PROBES = 5            # fresh interpreters for the start-up and import probe
# run in a fresh interpreter with the launch time as argv[1]: prints the
# time from launch to its first statement, then the time `import isonorm`
# takes
PROBE = ("import sys, time; t0 = time.time(); import isonorm; "
         "print(t0 - float(sys.argv[1]), time.time() - t0)")


def op_count(cls, seconds: float) -> int:
    """A run's fixed op count: about `seconds` of ops at the seed commit, in
    whole cycles of the workload's mix, so that every seed runs the same
    number of ops of each kind."""
    cycles = max(math.ceil(getattr(cls, "MIN_OPS", MIN_OPS) / cls.PERIOD),
                 round(seconds * cls.OPS_PER_S / cls.PERIOD))
    return cycles * cls.PERIOD


def run_loop(workload, n: int, probe: float, tracer=None) -> dict:
    """Run ops 0 .. n-1, one after another; `probe` is a host-speed probe
    taken just before op 0."""
    lat, wall, probes, kinds, failures = [], [], [probe], [], []
    failed = unexpected = 0
    for i in range(n):
        op = workload.op(i)
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:   # an op that raises is a failed op
            err = f"raised {exc!r}"
        wall.append(time.perf_counter() - t0)
        probes.append(HS.probe_s())
        lat.append(HS.scaled(wall[-1], probes[-2], probes[-1]))
        kinds.append(op.kind)
        if tracer is not None:
            tracer.op_id = -1
        excused = op.known_defect
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:   # the oracle itself broke: no verdict
                err = f"check raised {exc!r}"
                excused = False
        if err:
            failed += 1
            if not excused:
                unexpected += 1
            if len(failures) < 20:
                where = "known defect" if excused else "UNEXPECTED"
                failures.append(f"op {i} {op.kind} [{op.inputs}] ({where}): "
                                f"{err}")
    return {"lat": lat, "wall": wall, "probes": probes, "kinds": kinds,
            "failed": failed, "unexpected": unexpected, "failures": failures}


def by_kind(loop: dict) -> dict:
    """Op count and median latency per op kind."""
    groups: dict[str, list] = {}
    for kind, t in zip(loop["kinds"], loop["lat"]):
        groups.setdefault(kind, []).append(t)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v),
                "max_ms": 1e3 * max(v)} for k, v in sorted(groups.items())}


def end_to_end(loop: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    lat, wall = sorted(loop["lat"]), sorted(loop["wall"])
    n = len(lat)
    fail_frac = loop["failed"] / n
    metrics = {
        "ops_per_s": (n / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * lat[n - 11], "ms"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {"ops": n, "tail_percentile": 100.0 * (n - 10) / n,
              "tail_samples_beyond": 10, "fail_frac": fail_frac,
              "wall_ops_per_s": n / sum(wall),
              "wall_p50_ms": 1e3 * statistics.median(wall),
              "wall_tail_ms": 1e3 * wall[n - 11],
              "probe_ms": {"ref": 1e3 * HS.REF_S,
                           "p50": 1e3 * statistics.median(loop["probes"]),
                           "min": 1e3 * min(loop["probes"]),
                           "max": 1e3 * max(loop["probes"])},
              "kinds": by_kind(loop)}
    return metrics, detail


def start_and_import_s() -> tuple[float, float]:
    """Median interpreter start-up and `import isonorm` time over PROBES
    fresh processes."""
    starts, imports = [], []
    for _ in range(PROBES):
        out = subprocess.run([sys.executable, "-c", PROBE, repr(time.time())],
                             check=True, capture_output=True,
                             text=True).stdout.split()
        starts.append(float(out[0]))
        imports.append(float(out[1]))
    return statistics.median(starts), statistics.median(imports)


def per_layer(tracer, loop: dict, counters: dict, main_s: float,
              overhead: float) -> dict:
    n = len(loop["lat"])
    calls, points = tracer.calls, tracer.points
    own, incl = tracer.self_time, tracer.incl

    def c(name):
        return (calls.get(name, 0) / n, "count/op")

    def s(table, *names):
        return (sum(table.get(name, 0.0) for name in names) / n, "s/op")

    checked = counters.get("dual_points", 0)
    start_s, import_s = start_and_import_s()
    metrics = {
        "profile.evaluate_calls": c("profile.Profile.evaluate"),
        "profile.evaluate_points": (points.get("profile.Profile.evaluate", 0)
                                    / n, "count/op"),
        "profile.evaluate_self_s": s(own, "profile.Profile.evaluate"),
        "profile.is_minkowski_s": s(incl, "profile.is_minkowski"),
        "profile.fit_calls": c("profile.fit_cosine_series"),
        "profile.fit_self_s": s(own, "profile.fit_cosine_series"),
        "planar.dual_fit_s": s(incl, "planar.dual_profile"),
        "planar.exact_dual_calls": c("planar.DualProfile.evaluate"),
        "planar.exact_dual_points": (
            points.get("planar.DualProfile.evaluate", 0) / n, "count/op"),
        "planar.exact_dual_self_s": s(own, "planar.DualProfile.evaluate"),
        "planar.exact_dual_ok_ratio": (
            counters.get("dual_points_ok", 0) / checked if checked else 0.0,
            "ratio"),
        "foliation.t_coord_calls": c("foliation.t_coord"),
        "foliation.t_coord_self_s": s(own, "foliation.t_coord"),
        "foliation.unit_w_calls": c("foliation.unit_w"),
        "foliation.shape_spectrum_s": s(incl, "foliation.shape_spectrum"),
        "foliation.leaf_points_s": s(incl, "foliation.random_leaf_points"),
        "fd.hessian_calls": c("fd.hessian_fd"),
        "fd.hessian_self_s": s(own, "fd.hessian_fd"),
        "fd.third_tensor_calls": c("fd.third_tensor_fd"),
        "fd.third_tensor_self_s": s(own, "fd.third_tensor_fd"),
        "hessian.energy_calls": c("hessian.energy"),
        "hessian.energy_self_s": s(own, "hessian.energy"),
        "hessian.tensor_s": s(incl, "hessian.fd_fundamental_tensor"),
        "hessian.riemann_s": s(incl, "hessian.riemann_fd"),
        "hessian.indicatrix_fd_s": s(incl, "hessian.fd_indicatrix_laplacian_t",
                                     "hessian.fd_indicatrix_grad_t_norm"),
        "isometry.ode_residuals_calls": c("isometry.ode_residuals"),
        "isometry.ode_residuals_self_s": s(own, "isometry.ode_residuals"),
        "isometry.build_h_s": s(incl, "isometry.build_h_from_theta"),
        "isometry.classify_s": s(incl, "isometry.classify_sectors"),
        "isometry.lift_check_s": s(incl, "isometry.lift_to_nd",
                                   "isometry.check_hessian_isometry"),
        "isometry.glue_s": s(incl, "isometry.glue_construct"),
        "cli.interp_start_s": (start_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (main_s, "s"),
    }
    for module in T.MODULES:
        metrics[f"{module}.self_s"] = s(tracer.module_self, module)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import isonorm
    if Path(isonorm.__file__).resolve().parent != ROOT / "src" / "isonorm":
        print(f"isonorm imported from {isonorm.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 3
    import numpy
    import scipy

    from workloads import WORKLOADS, CliMix

    cls = WORKLOADS[args.workload]
    n = op_count(cls, args.seconds)
    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if cls is CliMix:
            workload = CliMix(args.seed, str(workdir),
                              in_process=bool(args.trace))
        else:
            workload = cls(args.seed, str(workdir), n)
        for op in workload.warmup():
            try:
                op.run()
            except Exception:   # warm-up output is discarded either way
                pass
        print("READY", flush=True)
        probe = HS.probe_s()
        print(f"PROBE {probe!r}", flush=True)
        if args.setup_only:
            return 0

        result = {"env": {"numpy": numpy.__version__,
                          "scipy": scipy.__version__}}
        loop = run_loop(workload, n, probe)
        if not args.trace:
            who = resource.RUSAGE_CHILDREN if cls is CliMix \
                else resource.RUSAGE_SELF
            peak = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, detail = end_to_end(loop, peak)
        else:
            plain = loop
            for key in workload.counters:
                workload.counters[key] = 0
            tr = T.Tracer()
            tr.install()
            loop = run_loop(workload, n, HS.probe_s(), tracer=tr)
            overhead = sum(loop["lat"]) / sum(plain["lat"]) - 1.0
            main_s = statistics.median(plain["lat"]) if cls is CliMix else 0.0
            metrics = per_layer(tr, loop, workload.counters, main_s, overhead)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}.jsonl"
            tr.write(spans)
            detail = {"ops": n, "spans": len(tr.spans),
                      "spans_dropped": tr.dropped,
                      "span_file": str(spans.relative_to(ROOT))}
            for key in ("failed", "unexpected"):
                loop[key] += plain[key]
            loop["failures"] = plain["failures"] + loop["failures"]
            loop["lat"] = plain["lat"] + loop["lat"]
        result.update(
            attempted=len(loop["lat"]), failed=loop["failed"],
            unexpected=loop["unexpected"], failures=loop["failures"],
            detail=detail,
            metrics={k: {"value": v, "unit": u}
                     for k, (v, u) in metrics.items()})
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
