"""Tiny-size runs of every benchmark workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "bistable3d": dict(n_trajectories=30, horizon=0.5, steps=10, grid_resolution=11),
    "gl50": dict(n_trajectories=20, horizon=0.05, steps=10),
    "bistable3d_many": dict(n_trajectories=60, horizon=0.3, steps=5, grid_resolution=11),
}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], **TINY[name])


def assert_metrics(result, declared):
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        got = metrics[m["name"]]
        assert math.isfinite(got["value"]), m["name"]
        assert got["unit"] == m["unit"], m["name"]


def test_workloads_match_declaration():
    assert set(bench.WORKLOADS) == {w["name"] for w in SPEC["workloads"]} == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric_and_tracing_keeps_results(name):
    wl = tiny(name)
    plain, _ = bench.run(wl, seed=3, seconds=0, trace=False)
    assert_metrics(plain, SPEC["end_to_end"])

    traced, traced_info = bench.run(wl, seed=3, seconds=0, trace=True)
    assert_metrics(traced, SPEC["per_layer"])
    assert traced_info["traced_passes"] >= 1
    # tracing must not change what the pipeline computes, to the bit
    val_loss = plain["metrics"]["val_loss"]["value"]
    assert traced_info["traced_val_loss_by_pass"][0] == val_loss
    assert traced_info["val_loss_by_pass"][0] == val_loss
    for fn in tracing.NAMES:
        assert traced["metrics"][f"{fn}.calls"]["value"] >= 1, fn


def test_failing_pass_fails_the_run():
    broken = dataclasses.replace(tiny("bistable3d"), system="no_such_system")
    result, info = bench.run(broken, seed=3, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == 1 and result["metrics"] == {}
    assert "ConfigError" in info["failures"][0]
