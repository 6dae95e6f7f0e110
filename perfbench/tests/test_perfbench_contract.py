"""BENCHMARK.json names exactly what the workloads report."""

import json
from pathlib import Path

import workload

SPEC = json.loads((Path(workload.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)


def test_metrics_match_names_and_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workload.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workload.PER_LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_slo_limits_are_stated_in_the_workload_reasons():
    for entry in SPEC["workloads"]:
        limit = workload.WORKLOADS[entry["name"]].slo_ms
        assert f"SLO p99 {limit:g} ms" in entry["why"]
