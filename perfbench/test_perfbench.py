"""Smoke test of the benchmark harness at tiny sizes.

Each case runs the benchmark command in a subprocess at ``--tiny`` sizes.
Run it with:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def run_bench(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
    ]
    return subprocess.run(
        command + (["--tiny"] if tiny else []),
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


_results: dict = {}


def result(workload: str, trace: int, repeat: int = 0) -> dict:
    """The parsed last line of one tiny run, cached per (workload, trace, repeat)."""
    key = (workload, trace, repeat)
    if key not in _results:
        done = run_bench(workload, trace)
        assert done.returncode == 0, done.stderr + done.stdout
        _results[key] = json.loads(done.stdout.splitlines()[-1])
    return _results[key]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert run.WORKLOADS == workloads.NAMES
    for section, table in (("end_to_end", measure.END_TO_END), ("per_layer", measure.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == table
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    table = measure.PER_LAYER if trace else measure.END_TO_END
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == set(table)
    for name, (unit, _better) in table.items():
        value = out["metrics"][name]["value"]
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if not trace:
        assert all(out["metrics"][name]["value"] > 0 for name in table)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_exact_counters_repeat(workload):
    first, second = result(workload, 1), result(workload, 1, repeat=1)
    for name in measure.EXACT_COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_split_between_workloads():
    desk, field_plan, fleet = (result(w, 1)["metrics"] for w in workloads.NAMES)
    assert desk["sdp_solver.solve.calls"]["value"] > 0
    assert field_plan["learner.train.calls"]["value"] == 0
    assert fleet["sdp_solver.solve.calls"]["value"] == 0
    assert fleet["transceiver.orthogonal_receive.busy_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("desk", 0, cwd=tmp_path, tiny=False)
    assert done.returncode != 0
    assert done.stdout == ""
