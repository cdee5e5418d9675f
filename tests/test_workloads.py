"""One cycle of each benchmark workload, in process, with the benchmark's
verdict on every op: Tier-1 does not collect perfbench/, so a change that
breaks an op (a renamed field, a wrong answer) would first show up as a
failed benchmark run."""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 11


@pytest.mark.parametrize("name", ["planar-sweep", "field-sweep", "isometry-lift",
                                  "cli-mix"])
def test_one_cycle_of_each_workload_passes_its_checks(monkeypatch, tmp_path, name):
    # the seed's warm-up and then PERIOD ops; as perfbench counts them, an
    # op that raises or fails its check is excused only on a known-defect
    # input, and a check that raises never is
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    monkeypatch.chdir(ROOT)  # cli-mix finds the report schema from here
    from workloads import WORKLOADS, CliMix

    cls = WORKLOADS[name]
    workload = (CliMix(SEED, str(tmp_path), in_process=True) if cls is CliMix
                else cls(SEED, str(tmp_path), cls.PERIOD))
    ops = [*workload.warmup(), *(workload.op(i) for i in range(cls.PERIOD))]
    unexpected = []
    for op in ops:
        excused = op.known_defect
        try:
            out = op.run()
        except Exception as exc:
            err = f"raised {exc!r}"
        else:
            try:
                err = op.check(out)
            except Exception as exc:
                err, excused = f"check raised {exc!r}", False
        if err and not excused:
            unexpected.append(f"{op.kind} [{op.inputs}]: {err}")
    assert not unexpected, "\n".join(unexpected)
