"""Self-test of the benchmark: run with ``python3 -m pytest perfbench/tests``.

A tiny-size pass of every workload must print every metric that
``BENCHMARK.json`` declares, with its unit, and a deliberately wrong
engine must fail every op.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_pass_prints_every_metric(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert name in out.split("\n{")[0]


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for f in HERE.iterdir():
        if f.is_file():
            (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mixed512", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def _shift_one_threshold(run_labt):
    """A wrong engine: block (0, 0) applies a threshold one past its range."""

    def wrong(img, cfg=None):
        res = run_labt(img) if cfg is None else run_labt(img, cfg)
        thresholds = res.thresholds.copy()
        thresholds[0, 0] = res.range_hi[0, 0] + 1
        return dataclasses.replace(res, thresholds=thresholds)

    return wrong


def _flip_one_label(niblack):
    def wrong(img, params=None):
        binary = niblack(img) if params is None else niblack(img, params)
        binary = binary.copy()
        binary[0, 0] = ~binary[0, 0]
        return binary

    return wrong


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrong_engine_fails_every_op(workload, tmp_path, monkeypatch):
    import labt.engine
    import labt.multiscan
    import labt.thresholders

    monkeypatch.setattr(labt.engine, "run_labt", _shift_one_threshold(labt.engine.run_labt))
    monkeypatch.setattr(labt.multiscan, "run_labt", _shift_one_threshold(labt.multiscan.run_labt))
    monkeypatch.setattr(labt.thresholders, "niblack_binarize", _flip_one_label(labt.thresholders.niblack_binarize))
    wl = workloads.WORKLOADS[workload](5, True, inputs.InputCache(tmp_path), ROOT)
    if hasattr(wl, "prepare"):
        wl.prepare()
    result = worker.measure(wl, 0.2, False)
    assert result["attempted"] >= len(wl.ops)
    assert result["failed"] == result["attempted"], result["failures"]


def test_same_seed_same_inputs(tmp_path):
    first = workloads.Mixed512(11, True, inputs.InputCache(tmp_path / "a"), ROOT)
    second = workloads.Mixed512(11, True, inputs.InputCache(tmp_path / "b"), ROOT)
    other = workloads.Mixed512(12, True, inputs.InputCache(tmp_path / "c"), ROOT)
    assert first.data == second.data
    assert all(np.array_equal(a, b) for a, b in zip(first.pages, second.pages))
    assert first.data != other.data


def test_golden_gaps_fail_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "GOLDEN", tmp_path / "golden.json")
    assert worker.load_golden("mixed512", 1, False) is None
    assert worker.load_golden("mixed512", worker.DEFAULT_SEED, True) is None
    assert worker.load_golden("mixed512", worker.DEFAULT_SEED, False) == {}
    op = workloads.Op("e00", 0.25)
    recorded = {"e00": {"input": "a", "output": "b"}}
    assert worker.compare_golden({}, op, {"input": "a", "output": "b"})
    assert worker.compare_golden(recorded, op, {"input": "other", "output": "b"})
    assert worker.compare_golden(recorded, op, {"input": "a", "output": "c"})
    assert worker.compare_golden(recorded, op, {"input": "a", "output": "b"}) == []
