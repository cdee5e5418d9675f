"""isonorm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload planar-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program under test is the checkout's
src/isonorm, imported from source.  Set-up is timed by starting the worker
process SETUPS times and taking the median time until it reports ready, each
rescaled to a fixed host speed by a probe run just before the start and one
the worker runs just after it is ready (hostspeed.py); the last of them goes
on to the timed ops, a fixed number sized to --seconds.
The last line printed is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1.  `correct` is false when an op fails outside the
seed commit's known exact-dual defect.  The line before it records the
environment and the run's details.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("cli-mix", "planar-sweep", "field-sweep", "isometry-lift")
SETUPS = 3
# the whole run, set-ups and the traced run's second pass included
DEADLINE_S = 170
# one BLAS thread: a thread pool adds latency outliers to small lstsq calls
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# before numpy loads: the probe run here needs the workers' BLAS setting
os.environ.update(THREAD_ENV)

import hostspeed as HS  # noqa: E402


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "isonorm" / "__init__.py").is_file():
        print(f"no src/isonorm under {root}: nothing to benchmark",
              file=sys.stderr)
        return 2
    src = str(root / "src")
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    worker = [sys.executable, str(root / "perfbench" / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = time.monotonic() + DEADLINE_S

    setups, raw_setups, lines = [], [], []
    n_setups = 1 if args.trace else SETUPS
    for k in range(n_setups):
        last = k == n_setups - 1
        cmd = worker + ([] if last else ["--setup-only"])
        before = HS.probe_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                text=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            raw_setups.append(time.perf_counter() - t0)
            lines = proc.stdout.read().splitlines()
        finally:
            timer.cancel()
            proc.stdout.close()
            code = proc.wait()
        after = next((float(line.split()[1]) for line in lines
                      if line.startswith("PROBE ")), None)
        if ready.strip() != "READY" or code != 0 or after is None:
            print(f"worker failed (exit {code})", file=sys.stderr)
            return 1
        setups.append(HS.scaled(raw_setups[-1], before, after))

    result = next((json.loads(line[len("RESULT "):]) for line in lines
                   if line.startswith("RESULT ")), None)
    if result is None:
        print("worker printed no result", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    env_info = dict(result["env"], python=platform.python_version(),
                    nproc=len(os.sched_getaffinity(0)), git_sha=git_sha(root),
                    **THREAD_ENV)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "env": env_info,
                      "setup_runs_s": setups, "setup_runs_wall_s": raw_setups,
                      "detail": result["detail"],
                      "unexpected": result["unexpected"],
                      "failures": result["failures"]}))
    print(json.dumps({"correct": result["unexpected"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": dict(sorted(metrics.items()))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
