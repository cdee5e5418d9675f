"""CLI: exit codes, report envelope, schema conformance, determinism."""

import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import isonorm
from isonorm import cli
from isonorm.cli import main
from isonorm.isometry import Sector, bump_profile, glue_construct
from isonorm.profile import Profile, save_profile

SCHEMA = json.loads(resources.files("isonorm")
                    .joinpath("schemas/report.schema.json").read_text())


@pytest.fixture
def profiles(tmp_path):
    paths = {}
    for name, p in {
        "euclid": Profile(1, (0.5,)),
        "ellipse": Profile(2, (1.0, 0.2)),
        "bad": Profile(2, (1.0, 1.1)),
        "pinched": Profile(1, (0.75, 1.0, 0.25)),  # (1 + cos t)^2 / 2
        "wobble3": Profile(3, (0.5, 0.02)),
        # a gap dip at t = pi/2 narrower than a 1024-point grid's spacing
        "exhibit": Profile(1, (1.0, 0.0, -0.01) + (0.0,) * 61 + (4.837e-4,)),
    }.items():
        path = tmp_path / f"{name}.json"
        save_profile(p, path)
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


# -------------------------------------------------------------- exit codes

def test_validate_ok(capsys, profiles):
    code, rep = run_json(capsys, "validate", "--profile", profiles["euclid"])
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["results"]["min_gap"] == pytest.approx(1.0, abs=1e-8)


def test_validate_invalid_exits_1(capsys, profiles):
    code, rep = run_json(capsys, "validate", "--profile", profiles["bad"])
    assert code == 1
    assert rep["status"] == "failed"
    assert rep["results"]["min_gap"] == pytest.approx(-0.84, abs=1e-8)


def test_validate_exits_1_on_a_dip_between_grid_points(capsys, profiles):
    code, rep = run_json(capsys, "validate", "--profile", profiles["exhibit"])
    assert code == 1
    assert rep["results"]["validity"] == "invalid"
    assert rep["results"]["min_gap"] == pytest.approx(-5.4121507e-4, abs=1e-9)
    assert rep["results"]["argmin"] == pytest.approx(math.pi / 2, abs=1e-12)


@pytest.mark.parametrize("b, scale", [(0.2, 1.0), (-0.6, 0.5), (0.9, 3.0)])
def test_validate_exact_dual_of_an_ellipse(capsys, tmp_path, b, scale):
    # h has the constant gap s^2 / gap_f = s^2 / (4 (1 - b^2)), and its least
    # value s / (4 (1 + |b|)) where f is largest
    path = tmp_path / "dual.json"
    path.write_text(json.dumps({"kind": "dual", "scale": scale,
                                "base": {"d": 2, "cos_coeffs": [1.0, b]}}))
    code, rep = run_json(capsys, "validate", "--profile", str(path))
    assert code == 0 and rep["results"]["validity"] == "valid"
    assert rep["results"]["min_gap"] == pytest.approx(
        scale ** 2 / (4.0 * (1.0 - b * b)), rel=1e-13)
    assert rep["results"]["min_f"] == pytest.approx(
        scale / (4.0 * (1.0 + abs(b))), rel=1e-13)


def test_validate_marginal_exits_2(capsys, profiles):
    # profile pinches to zero at the antipode: reported, not guessed
    code, rep = run_json(capsys, "validate", "--profile", profiles["pinched"])
    assert code == 2
    assert rep["status"] == "marginal"


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "--model", "d1:3"])  # missing --profile
    assert exc.value.code == 64


def test_missing_file_exits_1(capsys):
    code = main(["validate", "--profile", "/does/not/exist.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


# ------------------------------------------------------------------- dual

def test_dual_ellipse_oracle(capsys, profiles):
    code, rep = run_json(capsys, "dual", "--profile", profiles["ellipse"],
                         "--grid", "512")
    assert code == 0
    c = rep["results"]["cos_coeffs"]
    assert c[0] == pytest.approx(0.2604166666666667, abs=1e-6)
    assert c[1] == pytest.approx(-0.05208333333333333, abs=1e-6)


def test_dual_fails_on_unresolved_fit(capsys, tmp_path):
    # the fit misses the dual by 0.14 between its samples
    path = tmp_path / "strong.json"
    save_profile(Profile(2, (1.0, 0.95)), path)
    code, rep = run_json(capsys, "dual", "--profile", str(path))
    assert code == 1
    assert rep["residuals"]["fit_residual"] > 0.1


def test_dual_of_vanishing_profile_is_a_clean_error(capfd, profiles):
    code = main(["dual", "--profile", profiles["pinched"]])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("isonorm: error:")


@pytest.mark.parametrize("command,data,field", [
    (["validate", "--profile"], {"kind": "cosine", "cos_coeffs": [1.0]}, "'d'"),
    (["isometry", "check", "--triple"],
     {"f": {"d": 2, "cos_coeffs": [1.0]}, "h": {"d": 2, "cos_coeffs": [1.0]}},
     "'theta'"),
], ids=["profile", "triple"])
def test_missing_field_is_named(capfd, tmp_path, command, data, field):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(command + [str(path)])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("isonorm: error: ") and err.count("\n") == 1
    assert f"missing the field {field}" in err


def test_internal_key_error_is_not_a_user_error(monkeypatch):
    def broken(args):
        return {}["status"]
    monkeypatch.setattr(cli, "cmd_foliation_info", broken)
    with pytest.raises(KeyError):
        main(["foliation", "info", "--model", "cartan3"])


def test_missing_status_rule_is_not_a_user_error(capsys, monkeypatch,
                                                 profiles):
    # a residual without a status rule is a program fault: it must not be
    # reported as a bad input with exit 1
    monkeypatch.delitem(cli.TOLERANCES, "norm_error")
    with pytest.raises(RuntimeError,
                       match="no status rule for residual 'norm_error'"):
        main(["sample", "--profile", profiles["ellipse"], "--count", "4"])
    assert "isonorm: error:" not in capsys.readouterr().err


def test_import_loads_no_scipy():
    # scipy is a test extra; every CLI call would pay for importing it
    src = os.path.dirname(os.path.dirname(isonorm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, isonorm, isonorm.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------- reports

def test_reports_validate_against_schema(capsys, profiles):
    invocations = [
        ["validate", "--profile", profiles["ellipse"], "--degrees"],
        ["dual", "--profile", profiles["ellipse"]],
        ["foliation", "info", "--model", "cartan3"],
        ["tensor", "--profile", profiles["ellipse"], "--model", "d2:4:2",
         "--t", "0.6"],
        ["sample", "--profile", profiles["ellipse"], "--count", "4"],
    ]
    for argv in invocations:
        _, rep = run_json(capsys, *argv)
        assert rep["tool"] == "isonorm"


def test_determinism(capsys, profiles):
    argv = ["sample", "--profile", profiles["ellipse"], "--model", "d2:4:2",
            "--count", "6", "--seed", "3"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_degrees_is_display_only(capsys, profiles):
    _, plain = run_json(capsys, "validate", "--profile", profiles["ellipse"])
    _, deg = run_json(capsys, "validate", "--profile", profiles["ellipse"],
                      "--degrees")
    assert deg["results"]["argmin"] == plain["results"]["argmin"]
    assert deg["results"]["argmin_degrees"] == pytest.approx(
        math.degrees(plain["results"]["argmin"]))


# ------------------------------------------------------------------ tensor

def test_tensor_ok(capsys, profiles):
    code, rep = run_json(capsys, "tensor", "--profile", profiles["ellipse"],
                         "--model", "d2:4:2", "--t", str(math.pi / 4))
    assert code == 0
    assert rep["results"]["positive_definite"] is True
    assert rep["residuals"]["frame_error"] < 1e-5
    assert rep["results"]["g_rr"] == pytest.approx(2.0, abs=1e-9)


def test_tensor_focal_guard_too_wide_exits_1(capsys, profiles):
    # delta >= pi/(2d) leaves no leaf to sample from; this used to hang
    code = main(["tensor", "--profile", profiles["wobble3"], "--model",
                 "cartan3", "--delta", "0.6", "--t", "0.5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "delta=0.6" in captured.err


# --------------------------------------------------------------- curvature

def test_curvature_flat_round(capsys, profiles):
    code, rep = run_json(capsys, "curvature", "--profile", profiles["euclid"],
                         "--model", "d1:3", "--samples", "2")
    assert code == 0
    assert rep["results"]["flat"] is True


# ---------------------------------------------------------------- foliation

def test_foliation_info(capsys):
    code, rep = run_json(capsys, "foliation", "info", "--model", "d2:5:2")
    assert code == 0
    res = rep["results"]
    assert res["d"] == 2 and res["n"] == 5 and res["k"] == 2
    assert res["multiplicities"] == [{"k": 0, "m": 2}, {"k": 1, "m": 1}]


# ------------------------------------------------------------------ sample

def test_sample_csv(capsys, profiles):
    code, out = run(capsys, "sample", "--profile", profiles["ellipse"],
                    "--model", "d2:4:2", "--count", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,r,x0,x1,x2,x3"
    assert len(lines) == 6


def test_sample_planar_json(capsys, profiles):
    code, rep = run_json(capsys, "sample", "--profile", profiles["ellipse"],
                         "--count", "3")
    assert code == 0
    assert rep["results"]["columns"] == ["t", "r", "x0", "x1"]
    assert rep["residuals"]["norm_error"] < 1e-12


# ---------------------------------------------------------------- isometry

def test_isometry_solve_check_classify_flow(capsys, profiles, tmp_path):
    triple_path = str(tmp_path / "triple.json")
    code, rep = run_json(capsys, "isometry", "solve",
                         "--profile", profiles["ellipse"],
                         "--theta", "legendre", "--out", triple_path)
    assert code == 0
    assert rep["residuals"]["ode_max"] < 1e-6

    code, rep = run_json(capsys, "isometry", "check", "--triple", triple_path)
    assert code == 0
    assert rep["residuals"]["ode_max"] < 1e-6

    code, rep = run_json(capsys, "isometry", "classify",
                         "--triple", triple_path)
    assert code == 0
    sectors = rep["results"]["sectors"]
    assert len(sectors) == 1 and sectors[0]["label"] == "legendre"


@pytest.mark.parametrize("grid", ("0", "1", "2", "3"))
def test_isometry_solve_short_grid_fails_cleanly(capfd, profiles, grid):
    # half-grids of 1 or 2 points are a bad input, not a solver failure
    code = main(["isometry", "solve", "--profile", profiles["ellipse"],
                 "--theta", "legendre", "--grid", grid])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"isonorm: error: grid_size must be >= 4, got {grid}\n"


def test_isometry_solve_smallest_grid_runs(capsys, profiles):
    code, rep = run_json(capsys, "isometry", "solve",
                         "--profile", profiles["ellipse"],
                         "--theta", "legendre", "--grid", "4")
    assert code == 1  # too coarse to fit h, but a report
    assert rep["status"] == "failed"


def test_isometry_check_flags_broken_triple(capsys, profiles, tmp_path):
    # h is not the profile the theta map calls for
    bad = {"f": {"d": 2, "kind": "cosine", "cos_coeffs": [1.0, 0.2]},
           "h": {"d": 2, "kind": "cosine", "cos_coeffs": [1.0, 0.3]},
           "theta": {"kind": "identity"}}
    path = tmp_path / "bad_triple.json"
    path.write_text(json.dumps(bad))
    code, rep = run_json(capsys, "isometry", "check", "--triple", str(path))
    assert code == 1
    assert rep["status"] == "failed"


def test_isometry_glue_cli(capsys, tmp_path):
    base = bump_profile(2, humps=[(0.5, 0.4)])
    base_path = tmp_path / "base.json"
    save_profile(base, base_path)
    sectors_path = tmp_path / "sectors.json"
    sectors_path.write_text(json.dumps({"sectors": [
        {"lo": 0.0, "hi": 0.9, "mode": "scale"},
        {"lo": 0.9, "hi": math.pi / 2, "mode": "legendre-scale"},
    ]}))
    out_path = str(tmp_path / "glued.json")
    code, rep = run_json(capsys, "isometry", "glue",
                         "--profile", str(base_path),
                         "--sectors", str(sectors_path), "--out", out_path)
    assert code == 0
    assert rep["residuals"]["band_residual"] < 1e-6

    code, rep = run_json(capsys, "isometry", "check", "--triple", out_path)
    assert code == 0


GOOD_SECTOR = {"lo": 0.0, "hi": 0.9, "mode": "scale"}


@pytest.mark.parametrize("sectors,named", [
    ([GOOD_SECTOR, {"lo": 0.9, "hi": math.pi / 2}], "sectors entry 1 "),
    ([GOOD_SECTOR, {"lo": 0.9, "hi": math.pi / 2, "mode": "scale",
                    "colour": "red"}], "sectors entry 1 "),
    ([GOOD_SECTOR, [0.9, math.pi / 2, "scale"]], "sectors entry 1 "),
    ([GOOD_SECTOR, {"lo": "a", "hi": math.pi / 2, "mode": "scale"}],
     "sectors entry 1 field 'lo' "),
    ([{"lo": 0.0, "hi": 0.9, "mode": "scale", "scale": "x"}, GOOD_SECTOR],
     "sectors entry 0 field 'scale' "),
    ([GOOD_SECTOR, {"lo": 0.9, "hi": math.pi / 2, "mode": True}],
     "sectors entry 1 field 'mode' "),
    (3, "sectors must be a list,"),
    ([GOOD_SECTOR, {"lo": 0.9, "hi": math.pi / 2, "mode": "foo"}],
     "sectors entry 1 is invalid: unknown sector mode 'foo'"),
], ids=["missing-mode", "unknown-key", "not-an-object", "lo-not-a-number",
        "scale-not-a-number", "mode-not-a-string", "sectors-not-a-list",
        "unknown-mode"])
def test_isometry_glue_bad_sector_is_named(capfd, tmp_path, sectors, named):
    base_path = tmp_path / "base.json"
    save_profile(bump_profile(2, humps=[(0.5, 0.4)]), base_path)
    sectors_path = tmp_path / "sectors.json"
    sectors_path.write_text(json.dumps({"sectors": sectors}))
    code = main(["isometry", "glue", "--profile", str(base_path),
                 "--sectors", str(sectors_path)])
    out, err = capfd.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("isonorm: error: " + named)
    assert err.count("\n") == 1


# ------------------------------------------------------------ status rules

# residuals whose exit status comes from a rule of their command instead of
# a TOLERANCES entry of their own
OTHER_STATUS_RULES = {
    "validate": {"min_f", "min_gap"},                   # is_minkowski's verdict
    "curvature": {"max_abs_component", "noise_floor"},  # flat or clearly not
}


def test_every_emitted_residual_has_a_status_rule(capsys, profiles,
                                                  tmp_path):
    base = tmp_path / "base.json"
    save_profile(bump_profile(2, humps=[(0.5, 0.4)]), base)
    sectors = tmp_path / "sectors.json"
    sectors.write_text(json.dumps({"sectors": [
        {"lo": 0.0, "hi": 0.9, "mode": "scale"},
        {"lo": 0.9, "hi": math.pi / 2, "mode": "legendre-scale"}]}))
    paths = dict(profiles, base=base, sectors=sectors,
                 triple=tmp_path / "triple.json")
    argvs = [
        ["validate", "--profile", "{ellipse}", "--degrees"],
        ["validate", "--profile", "{bad}"],
        ["dual", "--profile", "{ellipse}"],
        ["tensor", "--profile", "{ellipse}", "--model", "d2:4:2", "--t", "0.6"],
        ["curvature", "--profile", "{euclid}", "--model", "d1:3",
         "--samples", "2"],
        ["isoparametric-check", "--profile", "{wobble3}", "--model",
         "cartan3", "--t-count", "2", "--xi-count", "2"],
        ["isometry", "solve", "--profile", "{ellipse}", "--theta",
         "legendre", "--out", "{triple}"],
        ["isometry", "check", "--triple", "{triple}"],
        ["isometry", "classify", "--triple", "{triple}"],
        ["isometry", "glue", "--profile", "{base}", "--sectors", "{sectors}"],
        ["sample", "--profile", "{ellipse}", "--count", "4"],
        ["sample", "--profile", "{ellipse}", "--model", "d2:4:2",
         "--count", "5"],
        ["foliation", "info", "--model", "cartan3"],
    ]
    commands = set()
    for argv in argvs:
        _, rep = run_json(capsys, *(a.format(**paths) for a in argv))
        command = rep["command"]
        commands.add(command)
        for name in rep["residuals"]:
            if name in OTHER_STATUS_RULES.get(command, ()):
                continue
            # every ODE equation shares the thresholds of ode_max
            rule = "ode_max" if name.startswith("ode_eq") else name
            assert rule in cli.TOLERANCES, (command, name)
    assert len(commands) == 11  # every subcommand
