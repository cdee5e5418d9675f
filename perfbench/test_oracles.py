"""Self-checks of the benchmark: each oracle accepts a known-good answer and
rejects a known-bad one, and the tracer's self-time bookkeeping adds up.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed as HS  # noqa: E402
import oracles as O  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
from isonorm.foliation import (d2, random_leaf_points,  # noqa: E402
                               shape_spectrum)
from isonorm.hessian import (InducedNorm, fd_fundamental_tensor,  # noqa: E402
                             frame_basis)
from isonorm.isometry import (IsometryTriple, legendre_map_tag,  # noqa: E402
                              ode_residuals)
from isonorm.planar import DualProfile  # noqa: E402
from isonorm.profile import Profile, is_minkowski  # noqa: E402
from workloads import (CliMix, FieldSweep, IsometryLift, Op,  # noqa: E402
                       PlanarSweep, _main_in_process, strata)


def test_reference_dual_matches_dense_parametrisation():
    # h at theta = theta_L(t) read off a dense t grid, for a profile where
    # isonorm's exact dual diverges
    coeffs = (1.0, 0.9)
    ts = np.linspace(0.0, math.pi / 2, 200001)
    f0 = O.cosine_jet(2, coeffs, ts, 0)
    f1 = O.cosine_jet(2, coeffs, ts, 1)
    thetas = np.linspace(0.0, math.pi / 2, 9)
    dense = np.interp(thetas, O.legendre_angle(2, coeffs, ts),
                      f0 / (4 * f0 * f0 + f1 * f1))
    assert np.max(np.abs(O.reference_dual(2, coeffs, thetas) - dense)) < 1e-7


@pytest.mark.parametrize("b, good", [(0.2, True), (0.7, False)])
def test_dual_oracles(b, good):
    f = Profile(2, (1.0, b))
    grid = np.linspace(0.0, math.pi / 2, 16)
    ok = O.dual_points_ok(DualProfile(f).evaluate(grid),
                          O.reference_dual(2, f.cos_coeffs, grid))
    assert ok.all() is np.bool_(good)
    assert O.exact_dual_diverges(2, b) is not good
    tr = IsometryTriple(f=f, h=DualProfile(f), theta=legendre_map_tag())
    ode = max(float(np.max(np.abs(ode_residuals(tr, float(t)))))
              for t in np.linspace(1e-3, math.pi / 2 - 1e-3, 9))
    assert (O.check_ode(ode) is None) is good


def test_validity_oracle():
    rep = is_minkowski(Profile(3, (2.0, 0.4)))
    assert O.check_validity(rep.status, rep.min_gap, 3, 2.0, 0.2) is None
    assert O.check_validity(rep.status, rep.min_gap * (1 + 1e-6), 3, 2.0,
                            0.2) is not None
    assert O.check_validity("marginal", rep.min_gap, 3, 2.0, 0.2) is not None


def test_schema_oracle_rejects_a_violation():
    import jsonschema

    schema = json.loads((ROOT / "src" / "isonorm" / "schemas"
                         / "report.schema.json").read_text())
    validator = jsonschema.validators.validator_for(schema)
    code, out = _main_in_process(["foliation", "info", "--model", "d2:4:2"])
    report = json.loads(out)
    assert code == 0 and O.check_report(report, schema, validator) is None
    for bad in (dict(report, status="fine"), dict(report, extra=1),
                {k: v for k, v in report.items() if k != "residuals"}):
        assert O.check_report(bad, schema, validator) is not None


def test_frame_oracle_rejects_a_perturbed_metric():
    model, coeffs, t = "d2:4:2", (1.0, 0.1, 0.01), 0.6
    m = d2(4, 2)
    nm = InducedNorm(m, Profile(2, coeffs))
    u = random_leaf_points(m, t, 1, seed=4)[0]
    spec = shape_spectrum(m, u)
    G = fd_fundamental_tensor(nm, 1.3 * u).matrix
    B = frame_basis(nm, 1.3 * u, spec)
    assert O.check_frame(B.T @ G @ B, model, coeffs, t) is None
    G[0, 1] += 1e-3
    G[1, 0] += 1e-3
    assert O.check_frame(B.T @ G @ B, model, coeffs, t) is not None


def test_metric_and_band_oracles():
    assert O.check_metric(3e-7) is None and O.check_metric(2e-4) is not None
    assert O.check_band(1e-7) is None and O.check_band(1e-5) is not None
    assert O.check_metric(float("nan")) is not None


@pytest.mark.parametrize("cls", [PlanarSweep, FieldSweep, IsometryLift])
def test_inputs_depend_only_on_seed(cls, tmp_path):
    a, b, c = ([w.op(i).inputs for i in range(20)]
               for w in (cls(seed, str(tmp_path), 20) for seed in (5, 5, 6)))
    assert a == b != c


def test_strata_are_one_grid_in_a_seeded_order():
    a, b = strata(1, 0, 7), strata(2, 0, 7)
    assert np.array_equal(np.sort(a), np.linspace(0.0, 1.0, 7))
    assert np.array_equal(np.sort(a), np.sort(b)) and list(a) != list(b)
    assert list(strata(1, 0, 1)) == [0.5]


class _Ops:
    """A stand-in workload: op i passes, fails or breaks its oracle (bad =
    False, True, None), inside the known defect or not, as listed."""

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def op(self, i):
        bad, known = self.outcomes[i]

        def check(out):
            if bad is None:
                raise ValueError("oracle broke")
            return "wrong" if bad else None

        return Op("k", str(i), lambda: None, check, known)


def test_only_failures_outside_the_known_defect_are_unexpected():
    loop = worker.run_loop(_Ops([(False, False), (True, True),
                                 (True, False)]), 3, HS.REF_S)
    assert (loop["failed"], loop["unexpected"]) == (2, 1)
    # an oracle that raises gives no verdict, known defect or not
    loop = worker.run_loop(_Ops([(None, True)]), 1, HS.REF_S)
    assert (loop["failed"], loop["unexpected"]) == (1, 1)


def test_times_are_rescaled_by_the_probes_around_them():
    assert HS.scaled(0.5, HS.REF_S, HS.REF_S) == pytest.approx(0.5)
    # a host at half speed doubles the probe and the measured time alike
    assert HS.scaled(1.0, HS.REF_S, 3 * HS.REF_S) == pytest.approx(0.5)
    loop = worker.run_loop(_Ops([(False, False)] * 3), 3, HS.probe_s())
    assert len(loop["probes"]) == 4
    assert loop["lat"] == pytest.approx(
        [HS.scaled(w, a, b) for w, a, b in
         zip(loop["wall"], loop["probes"], loop["probes"][1:])])


def test_cli_mix_covers_every_subcommand(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    mix = CliMix(3, str(tmp_path))
    assert len(mix.mix) == CliMix.PERIOD
    kinds = {mix.op(i).kind for i in range(len(mix.mix))}
    assert kinds == {"cli " + c for c in (
        "validate", "dual", "tensor", "curvature", "isoparametric-check",
        "isometry solve", "isometry check", "isometry classify",
        "isometry glue", "sample", "foliation info")}


def test_tracer_self_time_adds_up():
    tr = T.Tracer()
    inner = tr._wrap("m.inner", "m", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        return inner()

    outer = tr._wrap("m.outer", "m", outer_fn)
    outer()
    assert tr.calls == {"m.outer": 1, "m.inner": 2}
    assert tr.incl["m.outer"] >= tr.incl["m.inner"] > 0
    assert tr.self_time["m.outer"] == pytest.approx(
        tr.incl["m.outer"] - tr.incl["m.inner"], abs=1e-9)
    # spans are stored as they end: both inner calls, then the outer one
    assert [(s[0], s[4]) for s in tr.spans] == [(1, 0), (2, 0), (0, -1)]
