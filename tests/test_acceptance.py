"""Release gate: twelve executable criteria, one test per criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line each.  The
tolerances and time bounds inside the tests are part of the contract: exact
rational equality wherever the quantity is exact, grid-resolution bounds for
region estimates, and wall-clock ceilings for the constructive fixtures.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    band_matrices,
    cell_fills,
    make_index,
    oracle_individually_fair,
    pyramid_runs,
    run_from_bits,
    two_band_runs,
    whole_band,
    write_labels_csv,
    write_manifest,
    write_predictions_csv,
)
from multimax.banding import BandingPolicy, PerformanceBand, partition, refine_lexicographic
from multimax.cli import main
from multimax.core import ExactRatio, LabelVector, confusion_matrix, metric, round_scaled
from multimax.fairness import (
    ambiguity,
    band_matrix,
    discrepancy,
    fair_ensemble,
    unique_vector_counts,
)
from multimax.ingest import load_manifest
from multimax.profiles import fairness_profile, stability_profile
from multimax.report import run_audit
from multimax.zoo import build_scenario
from multimax.zoo.classifiers import AxisAlignedTreeClassifier
from multimax.zoo.regions import estimate_disputable_region

STRICT = BandingPolicy(mode="strict")
DATA_DIR = Path(__file__).parent / "data"


def random_band_case(rng: np.random.Generator, identical: bool = False):
    """A random strict-mode band over 2-20 runs on 10-200 instances."""
    n_runs = int(rng.integers(2, 21))
    n_inst = int(rng.integers(10, 201))
    bits = rng.integers(0, 2, size=n_inst, dtype=np.uint8)
    bits[0], bits[-1] = 1, 0  # both classes present, so recall/specificity exist
    labels = LabelVector(make_index(n_inst), tuple(int(b) for b in bits))
    if identical:
        matrix = np.tile(rng.integers(0, 2, size=n_inst, dtype=np.uint8), (n_runs, 1))
    else:
        matrix = rng.integers(0, 2, size=(n_runs, n_inst), dtype=np.uint8)
    runs = [run_from_bits(f"r{j:03d}", labels, matrix[j]) for j in range(n_runs)]
    return labels, runs, whole_band(runs)


def test_c01_borderline_band_refines_into_error_profiles():
    start = time.perf_counter()
    scenario = build_scenario("borderline-linear", seed=0)
    banding = partition(scenario.runs, STRICT)
    (band,) = [b for b in banding if b.epsilon == ExactRatio(98, 100)]
    assert band.run_count == 3

    labels = scenario.validation.labels
    lookup = {run.run_id: run for run in scenario.runs}
    matrices = {
        (cm.tp, cm.fn, cm.fp, cm.tn)
        for cm in (
            confusion_matrix(lookup[rid].preds_validation, labels) for rid in band.run_ids
        )
    }
    assert matrices == {(48, 2, 0, 50), (49, 1, 1, 49), (50, 0, 2, 48)}

    sub_bands = refine_lexicographic(
        band_matrix(band, scenario.runs), labels, ("specificity", "recall")
    )
    assert len(sub_bands) == 3
    assert all(sub.run_count == 1 for sub in sub_bands)
    assert time.perf_counter() - start < 1.0


def test_c02_ensemble_never_trails_members_on_recall():
    rng = np.random.default_rng(20260814)
    start = time.perf_counter()
    for _ in range(1000):
        labels, runs, band = random_band_case(rng)
        report = fair_ensemble(band_matrix(band, runs), labels)
        ens_recall = report.recall.as_fraction()
        ens_specificity = report.specificity.as_fraction()
        for run in runs:
            cm = confusion_matrix(run.preds_validation, labels)
            assert metric(cm, "recall").as_fraction() <= ens_recall
            assert metric(cm, "specificity").as_fraction() >= ens_specificity
    assert time.perf_counter() - start < 10.0


def test_c03_fully_expressive_band_saturates_the_ensemble():
    start = time.perf_counter()
    scenario = build_scenario("paired-knn", seed=0)
    banding = partition(scenario.runs, STRICT)
    (band,) = [b for b in banding if b.run_count == 100]
    assert band.epsilon == ExactRatio(99, 100)

    report = fair_ensemble(band_matrix(band, scenario.runs), scenario.validation.labels)
    assert (report.recall.num, report.recall.den) == (50, 50)
    assert (report.specificity.num, report.specificity.den) == (0, 50)
    assert time.perf_counter() - start < 1.0


def test_c04_ensemble_pays_one_accuracy_point():
    start = time.perf_counter()
    scenario = build_scenario("ensemble-cost", seed=0)
    banding = partition(scenario.runs, STRICT)
    (band,) = [b for b in banding if b.epsilon == ExactRatio(99, 100)]
    assert band.run_count == 3

    labels = scenario.validation.labels
    report = fair_ensemble(band_matrix(band, scenario.runs), labels)
    wrong = [
        iid
        for iid, pred, label in zip(labels.index.ids, report.preds.values, labels.values)
        if pred != label
    ]
    assert wrong == ["u048", "u049"]
    assert set(report.member_deltas) == set(band.run_ids)
    assert all(d.accuracy == Fraction(-1, 100) for d in report.member_deltas.values())
    assert time.perf_counter() - start < 1.0


def test_c05_discrepancy_ambiguity_and_fairness_relations():
    rng = np.random.default_rng(8086)
    for case in range(1000):
        labels, runs, band = random_band_case(rng, identical=case % 5 == 0)
        amb = ambiguity(band_matrix(band, runs)).as_fraction()
        stats = discrepancy(band_matrix(band, runs))
        assert stats.max_fraction.as_fraction() <= amb
        vectors = {run.run_id: tuple(run.preds_fairness.values.tolist()) for run in runs}
        all_fair = all(oracle_individually_fair(rid, vectors) for rid in band.run_ids)
        one_vector = len(unique_vector_counts(band_matrix(band, runs))) == 1
        assert (amb == 0) == all_fair == one_vector


def _numerators_rounding_to(q3: int) -> list[int]:
    approx = q3 * 4885 // 1000
    return [n for n in range(approx - 6, approx + 7) if round_scaled(n, 4885, 3) == q3]


def test_c06_relaxation_collapses_band_counts():
    # 57 three-digit keys spread over 9 two-digit keys, then 185 exact
    # utilities spread over those: strict/round:3/round:2 banding must land
    # on 185/57/9 bands with nothing merged or dropped along the way.
    sizes3 = (7, 7, 7, 6, 6, 6, 6, 6, 6)
    three_digit_keys: list[int] = []
    for q2, size in zip(range(10, 100, 10), sizes3):
        window = range(10 * q2 - 4, 10 * q2 + 5)  # everything here rounds back to q2
        three_digit_keys.extend(list(window)[:size])
    assert len(three_digit_keys) == 57

    numerators: list[int] = []
    for pos, q3 in enumerate(three_digit_keys):
        want = 4 if pos < 14 else 3  # 14*4 + 43*3 = 185
        candidates = _numerators_rounding_to(q3)
        assert len(candidates) >= want
        numerators.extend(candidates[:want])
    assert len(numerators) == 185
    assert len(set(numerators)) == 185

    labels = LabelVector(make_index(4885), (1,) * 4885)
    runs = [
        run_from_bits(f"n{num:04d}", labels, (0,) * (4885 - num) + (1,) * num)
        for num in numerators
    ]
    assert len(partition(runs, STRICT).bands) == 185
    assert len(partition(runs, BandingPolicy.parse("round:3")).bands) == 57
    assert len(partition(runs, BandingPolicy.parse("round:2")).bands) == 9

    # merging can only grow the disputable set: check on a band whose
    # strict constituents really disagree
    labels_k = LabelVector(make_index(1000), (1,) * 1000)
    wrong = {"m931a": range(0, 69), "m931b": range(1, 70), "m929x": range(0, 71)}
    runs_k = [
        run_from_bits(rid, labels_k, [0 if i in bad else 1 for i in range(1000)])
        for rid, bad in wrong.items()
    ]
    strict_bands = partition(runs_k, STRICT).bands
    assert [b.run_count for b in strict_bands] == [2, 1]
    (merged,) = partition(runs_k, BandingPolicy.parse("round:2")).bands
    assert merged.run_count == 3
    merged_amb = ambiguity(band_matrix(merged, runs_k)).as_fraction()
    assert merged_amb >= max(ambiguity(band_matrix(b, runs_k)).as_fraction() for b in strict_bands)


def test_c07_stability_profile_reports_exact_segments():
    _, runs, multiplicities = pyramid_runs()
    banding = partition(runs, STRICT)
    rendered = stability_profile(band_matrices(banding.bands, runs))
    (entry,) = rendered.sidecar["bands"]
    assert entry["label"] == "93/100"
    assert entry["run_count"] == 36
    assert len(entry["segments"]) == 12
    assert sum(entry["segments"]) == 36
    assert sorted(entry["segments"], reverse=True) == sorted(multiplicities, reverse=True)

    again = stability_profile(band_matrices(banding.bands, runs))
    assert again.svg == rendered.svg
    assert again.sidecar == rendered.sidecar


def test_c08_summary_profile_conserves_prediction_multisets():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n_runs = int(rng.integers(3, 9))
        n_inst = int(rng.integers(6, 21))
        bits = rng.integers(0, 2, size=n_inst, dtype=np.uint8)
        bits[0], bits[-1] = 1, 0
        labels = LabelVector(make_index(n_inst), tuple(int(b) for b in bits))
        runs = [
            run_from_bits(f"r{j:02d}", labels, rng.integers(0, 2, size=n_inst, dtype=np.uint8))
            for j in range(n_runs)
        ]
        bands = partition(runs, STRICT).bands
        faithful = fairness_profile(band_matrices(bands, runs), variant="faithful")
        summary = fairness_profile(band_matrices(bands, runs), variant="summary")

        # same favourable count per (column, band), same block heights
        for f_band, s_band in zip(faithful.sidecar["bands"], summary.sidecar["bands"]):
            assert f_band["column_counts"] == s_band["column_counts"]
            assert len(f_band["rows"]) == len(s_band["rows"])

        # and the rendered cells agree column by column
        def fills_by_column(rendered):
            columns = rendered.sidecar["columns"]
            cells = cell_fills(rendered.svg)
            xs = sorted({x for x, _, _ in cells})
            assert len(xs) == len(columns)
            x_to_col = dict(zip(xs, columns))
            out = {c: Counter() for c in columns}
            for x, _, fill in cells:
                out[x_to_col[x]][fill] += 1
            return out

        assert fills_by_column(faithful) == fills_by_column(summary)

    # pinned render: the summary variant under a fixed seed must not drift
    _, runs = two_band_runs()
    bands = partition(runs, STRICT).bands
    rendered = fairness_profile(band_matrices(bands, runs), variant="summary", seed=0)
    assert rendered.svg == (DATA_DIR / "fairness_profile_golden.svg").read_text()


def test_c09_region_estimate_converges_at_grid_rate():
    a, b, width = 5.0, 6.0, 12.0
    classifiers = {
        "sa": AxisAlignedTreeClassifier.stump(0, a, above=1),
        "sb": AxisAlignedTreeClassifier.stump(0, b, above=1),
    }
    band = PerformanceBand(
        label="1/1",
        run_ids=("sa", "sb"),
        epsilon=ExactRatio(1, 1),
        policy=BandingPolicy("strict"),
    )
    box = ((0.0, width), (0.0, 2.0))
    expected = Fraction(1, 12)  # (b - a) / width
    for resolution in (128, 256, 512):
        estimate = estimate_disputable_region(band, classifiers, box, resolution=resolution)
        got = estimate.disputable_fraction.as_fraction()
        assert abs(got - expected) <= Fraction(2, resolution)


def test_c10_always_favourable_baseline_is_exact(tmp_path):
    labels = LabelVector(make_index(100), (1,) * 70 + (0,) * 30)
    runs = [
        run_from_bits("r0", labels, (1,) * 100),
        run_from_bits("r1", labels, (1,) * 69 + (0,) * 31),
    ]
    write_labels_csv(tmp_path / "labels.csv", labels)
    write_predictions_csv(tmp_path / "predictions.csv", runs)
    write_manifest(
        tmp_path / "manifest.txt",
        {
            "labels": "labels.csv",
            "predictions": "predictions.csv",
            "favourable_label": "1",
            "band": "strict",
        },
    )
    payload = run_audit(load_manifest(tmp_path / "manifest.txt")).payload
    assert payload["baseline_accuracy"] == {"ratio": "70/100", "decimal": "0.7000"}


def test_c11_audit_is_deterministic_and_seed_reproducible(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert main(["zoo", "--scenario", "separable-linear", "--out", str(data)]) == 0
    manifest_path = data / "manifest.txt"

    assert main(["audit", "--manifest", str(manifest_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["audit", "--manifest", str(manifest_path), "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # seeded pair sampling: 30 equal-utility runs against a cap of 10 forces
    # a draw, and the env seed must reproduce it exactly
    capped = tmp_path / "capped"
    capped.mkdir()
    labels = LabelVector(make_index(20), (1,) * 19 + (0,))
    subsets = itertools.islice(itertools.combinations(range(19), 10), 30)
    runs = [
        run_from_bits(f"v{j:03d}", labels, [1 if i in keep else 0 for i in range(20)])
        for j, keep in enumerate(subsets)
    ]
    write_labels_csv(capped / "labels.csv", labels)
    write_predictions_csv(capped / "predictions.csv", runs)
    write_manifest(
        capped / "manifest.txt",
        {
            "labels": "labels.csv",
            "predictions": "predictions.csv",
            "favourable_label": "1",
            "band": "strict",
            "discrepancy_cap": "10",
        },
    )
    monkeypatch.setenv("MULTIMAX_SEED", "31337")
    assert main(["audit", "--manifest", str(capped / "manifest.txt"), "--out", str(capped / "c")]) == 0
    monkeypatch.delenv("MULTIMAX_SEED")
    assert main(["audit", "--manifest", str(capped / "manifest.txt"), "--out", str(capped / "d")]) == 0
    outcome = run_audit(load_manifest(capped / "manifest.txt"), seed_override=31337)
    report_c = json.loads((capped / "c" / "report.json").read_text())
    report_d = json.loads((capped / "d" / "report.json").read_text())
    assert report_c["seed"] == 31337
    assert report_c == outcome.payload
    disc_c = report_c["bands"][0]["discrepancy"]
    disc_d = report_d["bands"][0]["discrepancy"]
    assert disc_c["sampled_runs"] == disc_d["sampled_runs"] == 10
    assert disc_c["retained_run_ids"] != disc_d["retained_run_ids"]
    assert report_c["bands"][0]["run_ids"] == report_d["bands"][0]["run_ids"]


def test_c12_file_round_trip_matches_in_memory_audit(tmp_path, monkeypatch):
    monkeypatch.delenv("MULTIMAX_SEED", raising=False)
    scenario = build_scenario("separable-linear", seed=3)
    banding_mem = partition(scenario.runs, STRICT)

    assert main(["zoo", "--scenario", "separable-linear", "--seed", "3", "--out", str(tmp_path)]) == 0
    outcome = run_audit(load_manifest(tmp_path / "manifest.txt"))

    assert [b.label for b in outcome.banding] == [b.label for b in banding_mem]
    for mem_band, file_band, analysis in zip(banding_mem, outcome.banding, outcome.analyses):
        assert file_band.run_ids == mem_band.run_ids
        mem_amb = ambiguity(band_matrix(mem_band, scenario.runs))
        assert (analysis.ambiguity.num, analysis.ambiguity.den) == (mem_amb.num, mem_amb.den)
        mem_ens = fair_ensemble(band_matrix(mem_band, scenario.runs), scenario.validation.labels)
        for kind in ("accuracy", "recall", "specificity"):
            mem_value = getattr(mem_ens, kind)
            file_value = getattr(analysis.ensemble, kind)
            assert (file_value.num, file_value.den) == (mem_value.num, mem_value.den)
