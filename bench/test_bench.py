"""Tests of the benchmark itself: generator, oracle and span arithmetic.

Run from the repository root with: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multimax import report  # noqa: E402
from oracle import check_fair_model, check_report, check_stability_sidecar, expected_results  # noqa: E402
from run import end_to_end, per_layer_unit, tail  # noqa: E402
from tracing import Span, Tracer, per_layer_metrics, self_times, useful_time  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, generate, write_inputs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_reproducible_from_its_seed(name, tmp_path):
    workload = WORKLOADS[name]
    first, again, other = generate(workload, 7), generate(workload, 7), generate(workload, 8)
    assert np.array_equal(first.validation, again.validation)
    assert np.array_equal(first.fairness, again.fairness)
    assert first.groups == again.groups
    assert not np.array_equal(first.validation, other.validation)
    write_inputs(workload, 7, first, tmp_path / "a")
    write_inputs(workload, 7, again, tmp_path / "b")
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def _hand_built() -> tuple[Workload, Inputs]:
    """Ten instances, five runs: bands 1.0 = {r0}, 0.9 = {r1, r2, r4}, 0.8 = {r3}."""
    labels = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)
    flips = {0: [], 1: [0], 2: [1], 3: [0, 1], 4: [2]}
    validation = np.repeat(labels[np.newaxis, :], 5, axis=0)
    for run, positions in flips.items():
        validation[run, positions] ^= 1
    workload = Workload(
        "hand", runs=5, instances=10, policy="round:1", discrepancy_cap=2, commands=("audit",)
    )
    ids = [f"v{j}" for j in range(10)]
    inputs = Inputs([f"r{r}" for r in range(5)], ids, labels, validation, ids, validation, None)
    return workload, inputs


def test_oracle_on_a_hand_built_case():
    workload, inputs = _hand_built()
    expected = expected_results(workload, inputs)
    assert [b["label"] for b in expected["bands"]] == ["1.0", "0.9", "0.8"]
    middle = expected["bands"][1]
    assert middle["run_ids"] == ["r1", "r2", "r4"]
    assert middle["disputable"] == 3
    assert middle["pair_count"] == 1  # C(min(3, cap=2), 2)
    # max-ensemble of r1, r2, r4 is right everywhere except instance 1
    assert middle["ensemble_accuracy"] == "9/10"
    assert expected["comparison"][0]["top_band_run_count"] == 1


def test_oracle_agrees_with_run_audit(tmp_path):
    workload, inputs = _hand_built()
    expected = expected_results(workload, inputs)
    manifest = write_inputs(workload, 0, inputs, tmp_path / "in")
    report.audit(manifest, tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    sidecar = json.loads((tmp_path / "out" / "stability_profile.sidecar.json").read_text())
    assert check_report(payload, expected) == []
    assert check_stability_sidecar(sidecar, expected) == []


def test_oracle_notices_a_wrong_report(tmp_path):
    workload, inputs = _hand_built()
    expected = expected_results(workload, inputs)
    manifest = write_inputs(workload, 0, inputs, tmp_path / "in")
    outcome, _ = report.audit(manifest, tmp_path / "out")
    payload = json.loads(report.emit_json(outcome.payload))
    payload["bands"][1]["disputable"]["count"] += 1
    payload["bands"][1]["discrepancy"]["pair_count"] = 3
    assert len(check_report(payload, expected)) == 2
    fair_model = {"band": "1.0", "run_count": 1, "resolved_disputes": 0, "accuracy": {"ratio": "1/2"}}
    assert check_fair_model(fair_model, expected) == ["fair-model accuracy differs"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_agrees_with_run_audit_on_each_workload_shape(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = generate(workload, 3)
    manifest = write_inputs(workload, 3, inputs, tmp_path / "in")
    outcome, _ = report.audit(manifest, tmp_path / "out")
    payload = json.loads(report.emit_json(outcome.payload))
    assert check_report(payload, expected_results(workload, inputs)) == []


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
        Span("next", 11.0, 12.0, None, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    # useful spans count once, with everything under them
    spans[1].name = "ingest.read_labels"
    assert useful_time(spans, self_times(spans), 0, "compare", top_band="x") == 5.0 + 3.0
    assert useful_time(spans, self_times(spans), 0, "audit", top_band="x") == 10.0


def test_traced_audit_self_times_add_up_to_op_time(tmp_path):
    workload, inputs = _hand_built()
    manifest = write_inputs(workload, 0, inputs, tmp_path / "in")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        report.audit(manifest, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert report.audit.__name__ == "audit" and not hasattr(report.audit, "__wrapped__")
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["report.audit"]
    assert sum(self_times(tracer.spans)) == pytest.approx(roots[0].duration)
    metrics = per_layer_metrics(tracer.spans, {0: "audit"}, top_band="1.0")
    assert metrics["ingest.rows"] == 10 + 5 * 10
    assert metrics["fairness.discrepancy_pairs"] == 0 + 1 + 0
    assert metrics["cli.useful_ratio"] == pytest.approx(1.0)


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    value, percentile = tail(times)
    assert value == 29.0 and sum(t > value for t in times) == 10
    assert percentile == 75.0


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    workload, inputs = _hand_built()
    result = {"op_s": [1.0, 2.0], "peak_rss_mb": 1.0, "artefact_bytes": {"audit": 10}}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in end_to_end(result, 1.0, workload.cells).items()
    ]
    spans = [Span("report.audit", 0.0, 1.0, None, 0)]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, per_layer_unit(name)) for name in per_layer_metrics(spans, {0: "audit"}, top_band="x")
    ]
