from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    make_index,
    oracle_disputable,
    oracle_band_payload,
    oracle_fair_ensemble,
    oracle_individually_fair,
    oracle_max_ensemble,
    oracle_pair_fractions,
    oracle_vector_groups,
    run_from_bits,
    whole_band,
)
from multimax.banding import BandingPolicy, partition
from multimax.core import ExactRatio, InstanceIndex, LabelVector, PredictionVector
from multimax.errors import AlignmentError, AnalysisError
from multimax.fairness import (
    ambiguity,
    ambiguity_by_group,
    analyse_band,
    band_matrix,
    discrepancy,
    disputable_instances,
    ensemble_predictions,
    fair_ensemble,
    member_matrix,
    prediction_vector_groups,
    unique_vector_counts,
)
from multimax.report import _band_payload, emit_json


@st.composite
def band_fixture(draw, min_runs=2, max_runs=8, min_n=2, max_n=30):
    """Labels plus runs over one index, all collected into a single band."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_runs, max_runs))
    idx = make_index(n)
    label_bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # both classes present so recall and specificity stay defined
    label_bits[0] = 1
    label_bits[-1] = 0
    labels = LabelVector(idx, tuple(label_bits))
    runs = []
    for k in range(m):
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        runs.append(run_from_bits(f"r{k:03d}", labels, bits))
    return labels, runs, whole_band(runs)


def vectors_of(runs):
    return {run.run_id: tuple(run.preds_fairness.values.tolist()) for run in runs}


class TestHandExample:
    @staticmethod
    def _fixture():
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        a = run_from_bits("a", labels, (1, 1, 0, 0))
        b = run_from_bits("b", labels, (1, 0, 0, 0))
        c = run_from_bits("c", labels, (1, 1, 1, 0))
        return labels, [a, b, c], whole_band([a, b, c])

    def test_disputable(self):
        labels, runs, band = self._fixture()
        disputed = disputable_instances(band_matrix(band, runs))
        assert disputed.instance_ids == ("i0001", "i0002")
        votes = _band_payload(analyse_band(band, runs, labels))["disputable"]["votes"]
        assert votes == {"i0001": [2, 1], "i0002": [1, 2]}
        assert "i0001" in disputed and "i0000" not in disputed
        assert disputed.size == 2

    def test_ambiguity(self):
        _, runs, band = self._fixture()
        assert ambiguity(band_matrix(band, runs)) == ExactRatio(2, 4)

    def test_discrepancy_pairs(self):
        _, runs, band = self._fixture()
        stats = discrepancy(band_matrix(band, runs))
        assert stats.run_ids == ("a", "b", "c")
        assert stats.instance_count == 4
        # a vs b and a vs c disagree on one instance, b vs c on two
        assert stats.pair_counts == {1: 2, 2: 1}
        assert stats.fraction_counts() == {"1/4": 2, "2/4": 1}
        assert stats.pair_count == 3
        assert stats.min_fraction == ExactRatio(1, 4)
        assert stats.max_fraction == ExactRatio(2, 4)
        assert stats.mean_fraction == Fraction(1, 3)
        assert not stats.single_run

    def test_ensemble(self):
        labels, runs, band = self._fixture()
        report = fair_ensemble(band_matrix(band, runs), labels)
        assert report.preds.values.tolist() == [1, 1, 1, 0]
        assert report.accuracy == ExactRatio(3, 4)
        assert report.recall == ExactRatio(2, 2)
        assert report.specificity == ExactRatio(1, 2)
        assert set(report.member_deltas) == {"a", "b", "c"}
        assert report.member_deltas["b"].recall == Fraction(1, 2)

    def test_vector_groups(self):
        _, runs, band = self._fixture()
        groups = prediction_vector_groups(band_matrix(band, runs))
        assert groups == (("a",), ("b",), ("c",))
        assert unique_vector_counts(band_matrix(band, runs)) == (1, 1, 1)

    def test_group_ambiguity(self):
        _, runs, band = self._fixture()
        grouping = {"i0000": "g1", "i0001": "g1", "i0002": "g2", "i0003": "g2"}
        per_group = ambiguity_by_group(band_matrix(band, runs), grouping)
        assert per_group == {"g1": ExactRatio(1, 2), "g2": ExactRatio(1, 2)}


class TestOracles:
    @given(band_fixture())
    def test_disputable_matches_loop_oracle(self, fixture):
        _, runs, band = fixture
        disputed = disputable_instances(band_matrix(band, runs))
        expected = oracle_disputable(vectors_of(runs), runs[0].preds_fairness.index.ids)
        assert list(disputed.instance_ids) == expected
        assert ambiguity(band_matrix(band, runs)) == ExactRatio(
            len(expected), len(runs[0].preds_fairness.index)
        )

    @given(band_fixture())
    def test_votes_sum_to_member_count(self, fixture):
        labels, runs, band = fixture
        votes = _band_payload(analyse_band(band, runs, labels))["disputable"]["votes"]
        assert list(votes) == list(disputable_instances(band_matrix(band, runs)).instance_ids)
        for fav, unf in votes.values():
            assert fav + unf == len(runs)
            assert fav >= 1 and unf >= 1

    @given(band_fixture(), st.integers(2, 9), st.integers(0, 3))
    def test_discrepancy_matches_combinations_oracle(self, fixture, cap, seed):
        _, runs, band = fixture
        stats = discrepancy(band_matrix(band, runs), cap=cap, seed=seed)
        ranked = sorted(band.run_ids, key=lambda r: hashlib.sha256(f"{seed}:{r}".encode()).hexdigest())
        assert stats.run_ids == tuple(sorted(ranked[:cap]))
        vectors = vectors_of(runs)
        expected = oracle_pair_fractions({run_id: vectors[run_id] for run_id in stats.run_ids})
        n = stats.instance_count
        assert list(stats.pair_counts) == sorted(stats.pair_counts)
        assert {Fraction(k, n): c for k, c in stats.pair_counts.items()} == Counter(expected)
        assert stats.mean_fraction == sum(expected) / len(expected)

    @given(band_fixture())
    def test_max_pair_discrepancy_bounded_by_ambiguity(self, fixture):
        _, runs, band = fixture
        stats = discrepancy(band_matrix(band, runs))
        assert stats.max_fraction is not None
        assert stats.max_fraction <= ambiguity(band_matrix(band, runs))

    @given(band_fixture())
    def test_ensemble_is_pointwise_maximum(self, fixture):
        _, runs, band = fixture
        bm = band_matrix(band, runs)
        ens = ensemble_predictions(bm.fairness, bm.fairness_index)
        assert tuple(ens.values.tolist()) == oracle_max_ensemble(vectors_of(runs))
        matrix = np.vstack([run.preds_fairness.values for run in runs])
        assert (ens.values >= matrix).all()

    @given(band_fixture())
    def test_ambiguity_zero_iff_all_fair_iff_one_vector(self, fixture):
        _, runs, band = fixture
        zero = ambiguity(band_matrix(band, runs)).num == 0
        vectors = vectors_of(runs)
        all_fair = all(oracle_individually_fair(r.run_id, vectors) for r in runs)
        one_group = len(unique_vector_counts(band_matrix(band, runs))) == 1
        assert zero == all_fair == one_group

    @given(band_fixture())
    def test_group_counts_partition_members(self, fixture):
        _, runs, band = fixture
        counts = unique_vector_counts(band_matrix(band, runs))
        assert sum(counts) == len(runs)
        assert list(counts) == sorted(counts, reverse=True)
        groups = prediction_vector_groups(band_matrix(band, runs))
        flat = sorted(rid for g in groups for rid in g)
        assert flat == sorted(r.run_id for r in runs)

    @given(st.data())
    def test_groups_match_the_quadratic_oracle(self, data):
        """Members drawn from a few vectors under unsorted ids, so group sizes tie and draw order is not id order."""
        n = data.draw(st.integers(1, 4))
        idx = make_index(n)
        labels = LabelVector(idx, tuple(k % 2 for k in range(n)))
        pool = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
        run_ids = data.draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=1, max_size=10, unique=True))
        runs = [run_from_bits(run_id, labels, data.draw(st.sampled_from(pool))) for run_id in run_ids]
        bm = band_matrix(whole_band(runs), runs)
        assert prediction_vector_groups(bm) == oracle_vector_groups(bm)
        assert prediction_vector_groups(bm) is prediction_vector_groups(bm)  # found once per matrix


class TestDiscrepancySampling:
    @staticmethod
    def _many_runs(m=12, n=6):
        idx = make_index(n)
        labels = LabelVector(idx, (1,) * (n - 1) + (0,))
        rng = np.random.default_rng(7)
        runs = []
        for k in range(m):
            bits = rng.integers(0, 2, size=n)
            runs.append(run_from_bits(f"r{k:03d}", labels, bits))
        return runs, whole_band(runs)

    def test_cap_limits_pairs(self):
        runs, band = self._many_runs()
        stats = discrepancy(band_matrix(band, runs), cap=5, seed=0)
        assert stats.total_runs == 12
        assert stats.sampled_runs == 5
        assert stats.pair_count == 10
        assert set(stats.run_ids) <= {r.run_id for r in runs}
        assert list(stats.run_ids) == sorted(stats.run_ids)

    def test_sampling_is_deterministic(self):
        runs, band = self._many_runs()
        first = discrepancy(band_matrix(band, runs), cap=5, seed=3)
        again = discrepancy(band_matrix(band, runs), cap=5, seed=3)
        assert first == again

    def test_seed_feeds_the_selection(self):
        runs, band = self._many_runs(m=40)
        picks = {discrepancy(band_matrix(band, runs), cap=3, seed=s).run_ids for s in range(6)}
        assert len(picks) > 1

    def test_no_cap_when_under(self):
        runs, band = self._many_runs(m=4)
        stats = discrepancy(band_matrix(band, runs), cap=500)
        assert stats.run_ids == tuple(sorted(r.run_id for r in runs))
        assert stats.pair_count == 6

    def test_cap_validation(self):
        runs, band = self._many_runs(m=3)
        with pytest.raises(AnalysisError):
            discrepancy(band_matrix(band, runs), cap=1)

    def test_single_run_band(self):
        runs, _ = self._many_runs(m=1)
        band = whole_band(runs)
        stats = discrepancy(band_matrix(band, runs))
        assert stats.single_run
        assert stats.pair_counts == {}
        assert stats.pair_count == 0
        assert stats.fraction_counts() == {}
        assert stats.min_fraction is None
        assert stats.max_fraction is None
        assert stats.mean_fraction is None


class TestEnsembleReport:
    @given(band_fixture())
    def test_matches_per_member_oracle(self, fixture):
        labels, runs, band = fixture
        report = fair_ensemble(band_matrix(band, runs), labels)
        metrics, deltas = oracle_fair_ensemble(band, runs, labels)
        assert (report.accuracy, report.recall, report.specificity) == metrics
        assert report.member_deltas == deltas
        assert list(report.member_deltas) == list(band.run_ids)

    @given(band_fixture())
    def test_monotone_deltas(self, fixture):
        labels, runs, band = fixture
        report = fair_ensemble(band_matrix(band, runs), labels)
        for delta in report.member_deltas.values():
            assert delta.recall >= 0
            assert delta.specificity <= 0

    def test_label_alignment_checked(self):
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        runs = [run_from_bits("a", labels, (1, 1, 0, 0))]
        other = LabelVector(make_index(4, prefix="j"), (1, 1, 0, 0))
        with pytest.raises(AlignmentError):
            fair_ensemble(band_matrix(whole_band(runs), runs), other)


@st.composite
def gain_band_fixture(draw):
    """A band_fixture of 1 to 8 runs; sometimes every member has one gain pair.

    Members that only permute one vector's bits within the positive and
    within the negative labels share their TP and FP, so the ensemble gains
    the same (g_tp, g_fp) over each of them.
    """
    labels, runs, band = draw(band_fixture(min_runs=1))
    if draw(st.booleans()):
        base = runs[0].preds_validation.values.tolist()
        y = labels.values.tolist()
        classes = [[pos for pos, label in enumerate(y) if label == c] for c in (0, 1)]
        runs = [runs[0]]
        for k in range(1, draw(st.integers(1, 8))):
            bits = list(base)
            for positions in classes:
                order = draw(st.permutations(positions))
                for src, dst in zip(positions, order):
                    bits[dst] = base[src]
            runs.append(run_from_bits(f"r{k:03d}", labels, bits))
        band = whole_band(runs)
    return labels, runs, band


class TestBandPayload:
    @given(gain_band_fixture())
    def test_matches_member_by_member_oracle(self, fixture):
        labels, runs, band = fixture
        analysis = analyse_band(band, runs, labels)
        payload = _band_payload(analysis)
        assert emit_json(payload) == emit_json(oracle_band_payload(analysis))
        assert analysis.ensemble.member_deltas == oracle_fair_ensemble(band, runs, labels)[1]
        # one deltas dict per distinct gain pair, one vote list per distinct count
        ensemble = analysis.ensemble
        gains = set(zip(ensemble.g_tp.tolist(), ensemble.g_fp.tolist()))
        assert len({id(d) for d in payload["fair_ensemble"]["member_deltas"].values()}) == len(gains)
        votes = payload["disputable"]["votes"].values()
        assert len({id(v) for v in votes}) == len({v[0] for v in votes})


class TestMemberMatrix:
    def test_missing_member(self):
        idx = make_index(3)
        labels = LabelVector(idx, (1, 0, 0))
        runs = [run_from_bits("a", labels, (1, 0, 0)), run_from_bits("b", labels, (1, 1, 0))]
        band = whole_band(runs)
        with pytest.raises(AnalysisError, match="'b'"):
            member_matrix(band, runs[:1])

    def test_mixed_fairness_indices(self):
        idx = make_index(3)
        labels = LabelVector(idx, (1, 0, 0))
        grid = InstanceIndex(("g0", "g1", "g2"))
        a = run_from_bits("a", labels, (1, 0, 0), fairness_bits=(1, 1, 0), fairness_index=grid)
        b = run_from_bits("b", labels, (1, 1, 0))
        with pytest.raises(AlignmentError, match="'b'"):
            member_matrix(whole_band([a, b]), [a, b])

    def test_mixed_validation_indices(self):
        labels = LabelVector(make_index(3), (1, 0, 0))
        other = LabelVector(make_index(3, prefix="j"), (1, 0, 0))
        grid = InstanceIndex(("g0", "g1"))
        a = run_from_bits("a", labels, (1, 0, 0), fairness_bits=(1, 0), fairness_index=grid)
        b = run_from_bits("b", other, (1, 0, 0), fairness_bits=(0, 1), fairness_index=grid)
        with pytest.raises(AlignmentError, match="run 'b' uses a different validation index"):
            band_matrix(whole_band([a, b]), [a, b])

    def test_duplicate_run_ids(self):
        labels = LabelVector(make_index(2), (1, 0))
        a = run_from_bits("a", labels, (1, 0))
        b = run_from_bits("b", labels, (0, 0))
        with pytest.raises(ValueError, match="duplicate run id 'a'"):
            band_matrix(whole_band([a, b]), [a, b, a])

    def test_separate_fairness_index(self):
        idx = make_index(3)
        grid = InstanceIndex(("g0", "g1", "g2", "g3"))
        labels = LabelVector(idx, (1, 0, 0))
        a = run_from_bits("a", labels, (1, 0, 0), fairness_bits=(1, 1, 0, 0), fairness_index=grid)
        b = run_from_bits("b", labels, (1, 0, 0), fairness_bits=(1, 0, 1, 0), fairness_index=grid)
        band = whole_band([a, b])
        fairness_index, fairness, validation_index, validation = member_matrix(band, [a, b])
        assert fairness_index == grid and validation_index == idx
        assert fairness.tolist() == [[1, 1, 0, 0], [1, 0, 1, 0]]
        assert validation.tolist() == [[1, 0, 0], [1, 0, 0]]
        disputed = disputable_instances(band_matrix(band, [a, b]))
        assert disputed.instance_ids == ("g1", "g2")
        assert ambiguity(band_matrix(band, [a, b])) == ExactRatio(2, 4)


class TestGroupAmbiguity:
    def test_missing_coverage_detected(self):
        idx = make_index(3)
        labels = LabelVector(idx, (1, 0, 0))
        runs = [run_from_bits("a", labels, (1, 0, 0)), run_from_bits("b", labels, (0, 0, 0))]
        with pytest.raises(AnalysisError, match="i0002"):
            ambiguity_by_group(band_matrix(whole_band(runs), runs), {"i0000": "g", "i0001": "g"})

    def test_extra_ids_ignored(self):
        idx = make_index(2)
        labels = LabelVector(idx, (1, 0))
        runs = [run_from_bits("a", labels, (1, 0)), run_from_bits("b", labels, (0, 0))]
        grouping = {"i0000": "g", "i0001": "g", "ghost": "h"}
        per_group = ambiguity_by_group(band_matrix(whole_band(runs), runs), grouping)
        assert per_group == {"g": ExactRatio(1, 2)}


def test_partitioned_bands_keep_their_own_ambiguity():
    # two strict bands with different internal disagreement
    idx = make_index(4)
    labels = LabelVector(idx, (1, 1, 0, 0))
    top_a = run_from_bits("ta", labels, (1, 1, 0, 0))
    top_b = run_from_bits("tb", labels, (1, 1, 0, 0))
    low_a = run_from_bits("la", labels, (1, 0, 0, 0))
    low_b = run_from_bits("lb", labels, (1, 1, 1, 0))
    runs = [top_a, top_b, low_a, low_b]
    banding = partition(runs, BandingPolicy(mode="strict"))
    assert len(banding) == 2
    assert ambiguity(band_matrix(banding.top, runs)) == ExactRatio(0, 4)
    assert ambiguity(band_matrix(banding.bands[1], runs)) == ExactRatio(2, 4)
