"""Smoke test of the benchmark itself, on a 20-camera scene.

    python3 -m pytest -q bench/test_bench.py

Checks that an untraced and a traced run emit exactly the metrics that
BENCHMARK.json declares, each with its declared unit, that the traced run
reproduces the untraced outputs bit for bit, and that the benchmark
refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))
from worker import TRACE_EQUAL, check  # noqa: E402

TINY = run.Workload(scene_seed=3, n_cameras=20, n_landmarks=900, layout="room", subset_size=10, overlap=3)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """trace flag -> (run record, parsed result line) of one tiny run each."""
    work = tmp_path_factory.mktemp("work")
    out = {}
    for trace in (False, True):
        record = run.run_benchmark("tiny-20", TINY, 0, 1.0, trace, work)
        out[trace] = record, json.loads(run.report(record, trace).splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_result_line_has_the_contract_keys(runs, trace):
    _, result = runs[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_emits_every_declared_metric_with_its_unit(runs, trace):
    _, result = runs[trace]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(d["name"] for d in declared)
    for d in declared:
        got = result["metrics"][d["name"]]
        assert got["unit"] == d["unit"], d["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), d["name"]


def test_traced_call_reproduces_untraced_outputs(runs):
    record, _ = runs[True]
    untraced = record["calls"][0]["summary"]
    for key in TRACE_EQUAL:
        assert record["traced"]["summary"][key] == untraced[key], key
    assert record["traced"]["problems"] == []
    assert record["per_layer"]["ba.loss_best"][0] == untraced["loss_best"]


def test_check_flags_each_gate():
    good = {
        "ate": 0.005, "rre_deg": 0.2, "auc30": 98.0, "pc_accuracy": 0.03, "pc_completion": 0.01,
        "loss_best": 1.0, "failed_edges": 0, "tracks": 10,
    }
    assert check(good) == []
    for bad in ({"ate": 0.1}, {"auc30": 89.9}, {"failed_edges": 1}, {"tracks": 0},
                {"rre_deg": float("nan")}, {"pc_accuracy": None}):
        assert check({**good, **bad}), bad


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "room-200", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
