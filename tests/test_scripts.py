"""Smoke tests of scripts/: each runs in-process, as from the command line."""

import hashlib
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# sha256 of report_digest.py's 92 lines (its whole output)
REPORT_DIGEST_SHA256 = "d15e4d6ef73e38ffce45e60ed56d1cef53742ad361469fa9c6f0e27d4207a679"


def test_isometry_gallery_separates_isometries_from_broken_rows(
        capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["isometry_gallery.py"])
    runpy.run_path(str(SCRIPTS / "isometry_gallery.py"), run_name="__main__")
    rows = []
    for line in capsys.readouterr().out.splitlines():
        try:
            ode_max, lift_res, d_res = (float(v) for v in line.split()[-3:])
        except ValueError:
            continue  # titles, headers and the glued demo's lines
        rows.append((line.split()[0], lift_res))
    # identity and Legendre rows for d = 1, 2, 3, linear and scaled-Legendre
    # rows for d = 1, 2, and one broken control row per d
    assert len(rows) == 13
    assert sum(kind == "BROKEN" for kind, _ in rows) == 3
    # exact isometries read at rounding: the lift's differential is exact
    for kind, lift_res in rows:
        if kind == "BROKEN":
            assert lift_res > 1e-3
        elif kind in ("identity", "legendre"):
            assert lift_res < 1e-13, kind
        else:
            assert lift_res < 1e-4, kind


def test_curvature_sweep_tells_quadratic_energies_from_curved_ones(
        capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["curvature_sweep.py"])
    runpy.run_path(str(SCRIPTS / "curvature_sweep.py"), run_name="__main__")
    rows = []
    for line in capsys.readouterr().out.splitlines():
        m = re.match(r"(.{38}) +\S+ +\S+ +\S+  (flat|curved)$", line)
        if m:  # the sweep tables' rows
            label = m.group(1).strip()
            param = re.search(r"[+=] (\d\.\d{3}|\de-\d\d) ", label + " ")
            rows.append((label, float(param.group(1)) if param else 0.0,
                         m.group(2)))
    # five steps of the three d1:3, the two d2:4:2 and the two cartan3 families
    assert len(rows) == 35
    for label, param, verdict in rows:
        quadratic = label.startswith(("ellipse", "clifford ellipse")) \
            or param == 0.0
        assert verdict == ("flat" if quadratic else "curved"), label
    # the near-round rays, 1e-6 to 1e-2 off round, all read curved
    assert sum(v == "curved" for _, _, v in rows) == 4 + 5 + 4 + 4 + 5
    assert sum(label.startswith("near-round") for label, _, _ in rows) == 10


def test_bench_layers_writes_every_row(capsys, monkeypatch, tmp_path):
    # the script puts perfbench/ on sys.path and pins BLAS threads: undo both
    monkeypatch.setattr(sys, "path", sys.path[:])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "argv", ["bench_layers.py", "--label", "smoke",
                                      "--repeat", "1", "--out-dir", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "bench_layers.py"), run_name="__main__")
    assert exc.value.code == 0
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert bench["label"] == "smoke" and bench["repeat"] == 1
    assert {"git_sha", "python", "numpy"} <= set(bench)
    assert bench["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                     "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    names = [row["name"] for row in bench["rows"]]
    assert len(names) == 59 and len(set(names)) == 59
    assert {"DualProfile(Profile(2, (1, 0.5))).evaluate at orders 0, 1 and 2, "
            "one 256-angle array",
            "check_hessian_isometry, d1:3 identity lift of Profile(1, (1, 0.5))",
            "ode_residuals, 256 angles in one array, DualProfile h under "
            "scaled-legendre:1.2:0.9 on Profile(2, (1, 0.5))",
            "build_h_from_theta, linear:1.3:0.8 on Profile(2, (1, 0.2))",
            "is_minkowski cold, 32-term solved h, linear:1.3:0.8 on "
            "Profile(2, (1, 0.2))",
            "require_minkowski cold, 96-term glue base",
            "classify_sectors, glued cartan3 triple on the 96-term glue base",
            "theta_jet, glued cartan3 map on glue_construct's 1024 angles, "
            "96-term glue base",
            "is_minkowski cold, Profile(3, (0.5, 0.02, 0.005))",
            "one one-point fd_indicatrix_operators call, d2:8:3, "
            "Profile(2, (1, 0.4)), t = pi/4",
            "require_minkowski cold, 32-term solved h, linear:1.3:0.8 on "
            "Profile(2, (1, 0.2))",
            "one 20-point riemann_fd call, 4 points on each of 5 leaves of "
            "cartan3, Profile(3, (0.5, 0.05))",
            "1000 one-angle jet(t, 2) calls, Profile(2, (1, 0.5))",
            "1000 one-angle jet(t, 2) calls, DualProfile(Profile(2, (1, 0.5)))",
            "1000 one-angle jet(t, 3) calls, Profile(3, (0.5, 0.02, 0.005))",
            "1000 one-angle jet(t, 2) calls, Profile(3, (0.5, 0.03, 0.01, 0.004))",
            "jet(t, 1), 512 angles in one array, 96-term glue base",
            "jet(t, 2), 4096 angles in one array, Profile(2, (1, 0.5))",
            "jet(t, 2), 4096 angles in one array, 96-term glue base",
            "jet(t, 2), 4096 angles in one array, "
            "DualProfile(Profile(2, (1, 0.5)))",
            "fresh process python -m isonorm.cli validate, Profile(2, (1, 0.5))",
            "fresh process python -m isonorm.cli foliation info --model cartan3",
            "fresh process python -m isonorm.cli isometry check, solved "
            "Legendre triple on Profile(2, (1, 0.2))",
            "20 one-point closed_fundamental_tensor calls, 5 leaves of each of "
            "d1:3, d2:4:2, d2:8:3, cartan3",
            "20 one-point fd_fundamental_tensor calls, 5 leaves of each of "
            "d1:3, d2:4:2, d2:8:3, cartan3",
            "InducedNorm(cartan3(), Profile(3, (0.5, 0.02, 0.005))) cold, "
            "a new profile per call",
            "field-sweep's six calls at one point, d2:8:3, a new model and "
            "norm per call",
            "field-sweep's six calls at one point, cartan3, the same model "
            "and norm"} <= set(names)
    # the fresh-process rows keep their wall times as measured, unscaled
    fresh = [row for row in bench["rows"] if row["name"].startswith("fresh")]
    assert len(fresh) == 3 and all(
        row["scaled_ms"] is None and 0 < row["best_ms"] <= row["median_ms"]
        for row in fresh)
    # a row is timed again while its probes differ by more than 1.5x, at
    # most 3 times more
    assert all(row["best_ms"] > 0 and row["scaled_ms"] > 0
               and 1 <= row["tries"] <= 4 and (row["tries"] == 4 or max(
                   row["probe_ms"]) <= 1.5 * min(row["probe_ms"]))
               for row in bench["rows"] if row not in fresh)
    repeats = {row["name"]: row["repeat"] for row in bench["rows"]}
    assert repeats["is_minkowski cold, 96-term glue base"] > repeats[names[0]] == 1


def test_report_digest_prints_the_same_line_per_argv_twice(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["report_digest.py"])
    home = Path.cwd()
    runs = []
    for _ in range(2):
        scope = runpy.run_path(str(SCRIPTS / "report_digest.py"),
                               run_name="__main__")
        runs.append(capsys.readouterr().out.splitlines())
    assert Path.cwd() == home
    assert runs[0] == runs[1]
    assert [line.split(" ", 2)[2] for line in runs[0]] == [
        " ".join(argv) for argv in scope["argvs"]()]
    assert all(re.fullmatch(r"[0-9a-f]{64} \d+ \S.*", line) for line in runs[0])
    # recorded when the FD Laplacian of t on the indicatrix became the
    # ambient one of the Hessian metric, a called-out change of FD values:
    # the eight `isoparametric-check` lines moved, no exit code; the line
    # of `tensor --r 0.37` pins the r scaling of the frame.  Re-recorded
    # when shape_spectrum's leaf basis came from eigh of the leaf projector:
    # 7 of the 9 `tensor` lines moved in their last bits, no exit code.
    # Re-pinned when three `validate` lines (a marginal and an invalid
    # three-term profile, an exact dual) were appended; the first 85 kept
    # their sha256, 1714df03...  Re-pinned when three focal-guard lines
    # (planar `sample --delta 0.2`, two error exits) were appended; the
    # first 88 kept their sha256, 9b7027ea...  Re-pinned when the exact
    # dual's third derivative came in and `isoparametric-check` of an exact
    # dual on cartan3 (which exited 1 before) was appended; the first 91
    # kept their sha256, e54413d2...  Re-pinned when `curvature` took T
    # exact instead of a central difference of G: its 8 lines moved (R and
    # the rounding floor), no exit code; the other 84 kept their bytes.
    # Re-pinned when `isoparametric-check` took Delta t and |grad t|^2 exact
    # from the q-form pass instead of a difference of the flux: its 9 lines
    # moved, no exit code; the other 83 kept their bytes.  Re-pinned when a
    # glued triple's h came in closed form on its Legendre piece: the
    # `isometry glue` line moved (its band_residual read the gap between two
    # pieces at t = brk, 1.0e-7, now 4.4e-16), no exit code; the other 91
    # kept their bytes.  Re-pinned when `tensor` took its shape spectrum at
    # x = r u, the point its frame and t_coord read, and not at u: the line
    # of `tensor --r 0.37` moved at rounding (a tangential factor 2.4 ->
    # 2.4000000000000004, frame_error 2.6131501851e-08 -> 2.6131502295e-08),
    # no exit code; the other 91 kept their bytes.  Re-pinned when
    # shape_spectrum diagonalised its leaf block in place of leaf S leaf^T
    # and closed_frame_matrix took the closed kappa = cot(t + k pi/d): 6
    # `tensor` lines moved at rounding (d2:4:2 and d2:8:3 seeds 0 and 1 and
    # `--r 0.37` in a tangential factor, d2:8:3 seed 0, cartan3 seed 0 and
    # `--r 0.37` in frame_error, by at most 9e-16), no exit code; the other
    # 86 kept their bytes.
    assert len(runs[0]) == 92
    assert hashlib.sha256("".join(line + "\n" for line in runs[0]).encode()
                          ).hexdigest() == REPORT_DIGEST_SHA256
