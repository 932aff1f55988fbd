"""A tiny configuration of each workload emits every metric BENCHMARK.json names."""

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.Ladder, "SHAPES", (((4, 3, 3, 3), 1), ((3, 4, 3, 3), 2)))
    monkeypatch.setattr(workloads.Ladder, "DDIM", (3, 2, 3, 3, 3))
    monkeypatch.setattr(workloads.Train, "SHAPE", (4, 4, 3, 3))
    monkeypatch.setattr(workloads.Train, "STEPS", 2)
    monkeypatch.setattr(workloads.Verify, "ROWS", (((4, 4, 3, 3), 1), ((4, 4, 3, 3), 2)))
    monkeypatch.setattr(workloads.Verify, "ORACLE_N", 8)
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(run, "WORKLOAD_ENV", {})  # keep this process's environment


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
