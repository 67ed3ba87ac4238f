"""Self-test of the benchmark harness on reduced grids.

    python3 -m pytest -q perfbench

Every workload must emit every metric BENCHMARK.json names, traced counts
must repeat exactly between two runs, and a traced run must put back every
name it patched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Outcome, Scale  # noqa: E402

SMALL = Scale(meas=(21, 60), fine=(81, 240), rate_fine=(81, 240), hats=6)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == harness.E2E_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    result = harness.measure(WORKLOADS[name](0, tmp_path, SMALL), 0.0, False, 0.0)
    assert {k: m["unit"] for k, m in result.metrics.items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result.metrics.values())
    assert result.attempted == WORKLOADS[name].attempted
    assert "fail_frac" in result.report
    if name in ("stiff-forward", "fine-io"):
        # the quality bars of the other two hold only on the paper's grids
        assert result.failed == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_counts_and_restore_names(name, tmp_path):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in layers.patched_names()]
    runs = [
        harness.measure(WORKLOADS[name](0, tmp_path, SMALL), 0.0, True, 0.0)
        for _ in range(2)
    ]
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr} left patched"
    for result in runs:
        assert {k: m["unit"] for k, m in result.metrics.items()} == _units("per_layer")
    counts = [
        {k: m["value"] for k, m in r.metrics.items() if m["unit"] not in layers.TIMED_UNITS}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["pde.solve_forward.calls"] > 0
    assert counts[0]["pde.imex_steps"] >= SMALL.meas[1]


def test_a_repeat_with_other_outputs_counts_as_failed():
    tally = harness.Tally()
    tally.add(Outcome(2, 0, {}, ("a", "b")))
    tally.add(Outcome(2, 0, {}, ("a", "b")))
    tally.add(Outcome(2, 0, {}, ("a", "c")))
    assert (tally.attempted, tally.failed) == (6, 2)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "stiff-forward",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
