#!/usr/bin/env python3
"""Print one digest line per CLI run over a fixed list of argvs.

Each line is `sha256(stdout) exit argv`: the SHA-256 of what
`isonorm.cli.main(argv)` printed and the exit code it returned (argparse's
for `--help`).  The runs go in-process, in that order, in a new temporary
working directory that holds the input files under relative names, so the
paths a report echoes in its `inputs` are the same on every run.  The list
covers `--help` of every command and subcommand, every subcommand on the
four foliation models with seeds 0 and 1, `tensor` off the unit sphere,
planar and model `sample`, a stored triple whose f is not a Minkowski
profile, stored triples with a sampled and a piecewise theta map (so every
theta kind is checked and classified), profile JSON whose `cos_coeffs`
or `fit_residual` is not a number, `validate` of a marginal and an invalid
three-term profile and of an exact dual, the focal guard: planar `sample`
with a `--delta` its report echoes, and a `--delta` too wide for
`curvature` and one negative for `tensor`, both error exits, and, last,
`isoparametric-check` of an exact dual on cartan3, which reads the dual's
third derivative.

Whether a change moves a report byte is then a diff of two runs:

    PYTHONPATH=src python3 scripts/report_digest.py > mine.txt
    PYTHONPATH=../other/src python3 scripts/report_digest.py > other.txt
    diff other.txt mine.txt

Only names that older checkouts also have are used.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import tempfile

from isonorm.cli import main as cli_main
from isonorm.isometry import bump_profile
from isonorm.profile import Profile, save_profile

PROFILES = {
    "d1.json": Profile(1, (0.52, 0.015, 0.008)),
    "ellipse.json": Profile(2, (1.0, 0.2)),
    "wobble3.json": Profile(3, (0.5, 0.02)),
    "not_minkowski.json": Profile(2, (1.0, 1.5)),
    "glue_base.json": bump_profile(2, humps=[(0.5, 0.4)]),
    "pinched.json": Profile(1, (0.75, 1.0, 0.25)),  # (1 + cos t)^2 / 2
    "negative3.json": Profile(2, (0.2, 0.5, 0.1)),
}
MODELS = (("d1:3", "d1.json"), ("d2:4:2", "ellipse.json"),
          ("d2:8:3", "ellipse.json"), ("cartan3", "wobble3.json"))
# profile JSON that loaded as a coerced series or residual before the
# loader type-checked these fields
MALFORMED = {
    "coeffs_string.json": {"d": 2, "cos_coeffs": "12"},
    "coeffs_string_item.json": {"d": 2, "cos_coeffs": ["1.0", 0.2]},
    "coeffs_bool_item.json": {"d": 2, "cos_coeffs": [True, 0.2]},
    "residual_string.json": {"d": 2, "cos_coeffs": [1.0, 0.2],
                             "fit_residual": "1e-3"},
    "residual_bool.json": {"d": 2, "cos_coeffs": [1.0, 0.2],
                           "fit_residual": True},
}
SAMPLED_GRID = [i * math.pi / 16 for i in range(9)]
ELLIPSE_JSON = PROFILES["ellipse.json"].to_json_dict()
OTHER_INPUTS = {
    "sectors.json": {"sectors": [
        {"lo": 0.0, "hi": 0.9, "mode": "scale"},
        {"lo": 0.9, "hi": math.pi / 2, "mode": "legendre-scale"}]},
    "not_minkowski_triple.json": {
        "f": PROFILES["not_minkowski.json"].to_json_dict(),
        "h": PROFILES["ellipse.json"].to_json_dict(),
        "theta": {"kind": "legendre"}},
    "sampled_theta_triple.json": {
        "f": ELLIPSE_JSON, "h": ELLIPSE_JSON,
        "theta": {"kind": "sampled", "grid": SAMPLED_GRID,
                  "values": [t + 0.01 * math.sin(2 * t) for t in SAMPLED_GRID]}},
    "piecewise_theta_triple.json": {
        "f": ELLIPSE_JSON, "h": ELLIPSE_JSON,
        "theta": {"kind": "piecewise", "pieces": [
            {"lo": 0.0, "hi": 0.8, "map": {"kind": "identity"}},
            {"lo": 0.8, "hi": math.pi / 2,
             "map": {"kind": "linear", "a": 1.0, "b": 1.2}}]}},
    "dual.json": {"kind": "dual", "base": PROFILES["d1.json"].to_json_dict(),
                  "scale": 0.5},
    "wobble3_dual.json": {"kind": "dual", "scale": 0.5,
                          "base": PROFILES["wobble3.json"].to_json_dict()},
    **MALFORMED,
}


def argvs() -> list[list[str]]:
    out = [["--help"]]
    for cmd in ("validate", "dual", "tensor", "curvature",
                "isoparametric-check", "isometry", "isometry solve",
                "isometry check", "isometry classify", "isometry glue",
                "sample", "foliation", "foliation info"):
        out.append(cmd.split() + ["--help"])
    for name in ("ellipse.json", "not_minkowski.json", *MALFORMED):
        out.append(["validate", "--profile", name])
    out.append(["validate", "--profile", "d1.json", "--degrees"])
    out.append(["dual", "--profile", "ellipse.json"])
    out.append(["dual", "--profile", "d1.json", "--grid", "256", "--terms", "48"])
    for model, profile in MODELS:
        out.append(["foliation", "info", "--model", model, "--degrees"])
        for seed in ("0", "1"):
            for cmd in ("tensor", "curvature", "isoparametric-check"):
                out.append([cmd, "--profile", profile, "--model", model,
                            "--seed", seed])
            out.append(["sample", "--profile", profile, "--model", model,
                        "--seed", seed])
    out.append(["tensor", "--profile", "ellipse.json", "--model", "d2:4:2",
                "--seed", "0", "--r", "0.37"])
    for seed in ("0", "1"):
        out.append(["sample", "--profile", "ellipse.json", "--seed", seed])
    out.append(["sample", "--profile", "wobble3.json", "--format", "csv"])
    for theta in ("identity", "legendre", "linear:1:1.2",
                  "scaled-legendre:1:1.2"):
        triple = theta.replace(":", "_") + "_triple.json"
        out.append(["isometry", "solve", "--profile", "ellipse.json",
                    "--theta", theta, "--out", triple])
        out.append(["isometry", "check", "--triple", triple])
        out.append(["isometry", "classify", "--triple", triple, "--degrees"])
    out.append(["isometry", "glue", "--profile", "glue_base.json",
                "--sectors", "sectors.json", "--out", "glued_triple.json"])
    for triple in ("glued_triple.json", "not_minkowski_triple.json",
                   "sampled_theta_triple.json", "piecewise_theta_triple.json"):
        out.append(["isometry", "check", "--triple", triple])
        out.append(["isometry", "classify", "--triple", triple])
    for name in ("pinched.json", "negative3.json", "dual.json"):
        out.append(["validate", "--profile", name])
    out.append(["sample", "--profile", "ellipse.json", "--delta", "0.2"])
    out.append(["curvature", "--profile", "ellipse.json", "--model", "d2:4:2",
                "--delta", "0.9"])
    out.append(["tensor", "--profile", "ellipse.json", "--model", "d2:4:2",
                "--t", "0.5", "--delta", "-1"])
    out.append(["isoparametric-check", "--profile", "wobble3_dual.json",
                "--model", "cartan3"])
    return out


def _run(argv: list[str]) -> tuple[str, int]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return hashlib.sha256(stdout.getvalue().encode()).hexdigest(), code


def digest_lines() -> list[str]:
    """The digest lines, one per argv; the working directory is restored."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, p in PROFILES.items():
                save_profile(p, name)
            for name, data in OTHER_INPUTS.items():
                with open(name, "w") as fh:
                    json.dump(data, fh)
            lines = []
            for argv in argvs():
                digest, code = _run(argv)
                lines.append(f"{digest} {code} {' '.join(argv)}")
            return lines
        finally:
            os.chdir(home)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    print("\n".join(digest_lines()))
