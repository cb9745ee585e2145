from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import make_index, oracle_partition, oracle_refine_lexicographic, run_from_bits, whole_band
from multimax.banding import Banding, BandingPolicy, PerformanceBand, partition, refine_lexicographic
from multimax.core import METRIC_KINDS, ExactRatio, LabelVector, ModelRun, PredictionVector
from multimax.errors import AlignmentError, AnalysisError, MultimaxError, UndefinedMetricError
from multimax.fairness import band_matrix


def runs_with_accuracies(numerators, den, prefix="r"):
    """One run per numerator, accuracy num/den on an all-favourable label set."""
    idx = make_index(den)
    labels = LabelVector(idx, (1,) * den)
    runs = []
    for pos, num in enumerate(numerators):
        bits = [0] * (den - num) + [1] * num
        runs.append(run_from_bits(f"{prefix}{pos:04d}", labels, bits))
    return runs, labels


class TestPolicy:
    def test_parse_round_trip(self):
        for text in ("strict", "round:2", "round:3", "tol:1/100", "tol:0"):
            assert BandingPolicy.parse(text).describe() == text

    def test_parse_rejects_garbage(self):
        for text in ("", "round:", "round:0", "round:x", "tol:", "tol:abc", "exact", "tol:1/0"):
            with pytest.raises(ValueError):
                BandingPolicy.parse(text)
        # str.isdigit admits superscripts and other scripts' digits; int() then
        # fails on one and silently reads the other
        for text in ("round:\u00b3", "round:\u0661"):
            with pytest.raises(ValueError, match="cannot parse rounding digits"):
                BandingPolicy.parse(text)
        # Fraction() reads the first as 1/20 and the second as 10/200
        for text in ("tol:\u0661/\u0662\u0660", "tol:1_0/200"):
            with pytest.raises(ValueError, match="cannot parse tolerance delta"):
                BandingPolicy.parse(text)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            BandingPolicy(mode="tolerance", delta=Fraction(-1, 100))

    def test_mode_field_consistency(self):
        with pytest.raises(ValueError):
            BandingPolicy(mode="strict", delta=Fraction(1, 100))
        with pytest.raises(ValueError):
            BandingPolicy(mode="strict", digits=2)
        with pytest.raises(ValueError):
            BandingPolicy(mode="rounded")

    def test_tie_break_validation(self):
        with pytest.raises(ValueError, match="repeat"):
            BandingPolicy(mode="strict", tie_break=("recall", "recall"))
        with pytest.raises(ValueError, match="differ from the banding utility"):
            BandingPolicy(mode="strict", tie_break=("accuracy", "recall"))
        with pytest.raises(ValueError, match="unknown tie-break"):
            BandingPolicy(mode="strict", tie_break=("f1",))
        # accuracy is fine as a later entry
        BandingPolicy(mode="strict", tie_break=("specificity", "accuracy"))


class TestStrict:
    def test_groups_equal_utilities(self):
        runs, _ = runs_with_accuracies([98, 98, 97], 100)
        banding = partition(runs, BandingPolicy(mode="strict"))
        assert [b.label for b in banding] == ["49/50", "97/100"]
        assert banding.top.run_ids == ("r0000", "r0001")
        assert banding.is_partition

    def test_band_lookup(self):
        runs, _ = runs_with_accuracies([98, 97], 100)
        banding = partition(runs, BandingPolicy(mode="strict"))
        assert banding.band("97/100").run_count == 1
        with pytest.raises(KeyError):
            banding.band("nope")

    def test_mixed_validation_indices_rejected(self):
        runs_a, _ = runs_with_accuracies([98], 100, prefix="a")
        runs_b, _ = runs_with_accuracies([49], 50, prefix="b")
        with pytest.raises(AlignmentError):
            partition(runs_a + runs_b, BandingPolicy(mode="strict"))

    def test_empty_collection(self):
        with pytest.raises(AnalysisError):
            partition([], BandingPolicy(mode="strict"))

    def test_duplicate_run_ids(self):
        idx = make_index(2)
        labels = LabelVector(idx, (1, 0))
        runs = [run_from_bits("same", labels, (1, 0)), run_from_bits("same", labels, (0, 0))]
        with pytest.raises(ValueError, match="duplicate run id 'same'"):
            partition(runs, BandingPolicy(mode="strict"))


class TestRounded:
    def test_shared_two_digit_band(self):
        runs, _ = runs_with_accuracies([931, 929, 925], 1000)
        banding = partition(runs, BandingPolicy.parse("round:2"))
        assert len(banding) == 1
        assert banding.top.label == "0.93"
        assert banding.top.epsilon == ExactRatio(93, 100)
        assert banding.top.run_count == 3

    def test_midpoint_rounds_away_from_zero(self):
        runs, _ = runs_with_accuracies([925, 935], 1000)
        banding = partition(runs, BandingPolicy.parse("round:2"))
        assert [b.label for b in banding] == ["0.94", "0.93"]

    def test_finer_digits_do_not_always_nest(self):
        # Pinned counterexample: 0.9348 and 0.9352 share the 3-digit key
        # 0.935 but land on different 2-digit keys (0.93 vs 0.94), so
        # round:3 bands are not always refined by round:2 bands.
        runs, _ = runs_with_accuracies([9348, 9352], 10_000)
        at_three = partition(runs, BandingPolicy.parse("round:3"))
        at_two = partition(runs, BandingPolicy.parse("round:2"))
        assert [b.label for b in at_three] == ["0.935"]
        assert [b.label for b in at_two] == ["0.94", "0.93"]

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=8, unique=True))
    def test_nesting_away_from_straddle_keys(self, numerators):
        # When no 3-digit key ends in 5, its half-open value range sits
        # strictly inside one 2-digit bucket and nesting does hold.
        runs, _ = runs_with_accuracies(sorted(numerators), 10_000)
        at_three = partition(runs, BandingPolicy.parse("round:3"))
        assume(all(band.epsilon.num % 10 != 5 for band in at_three))
        at_two = partition(runs, BandingPolicy.parse("round:2"))
        for fine in at_three:
            holders = [
                coarse for coarse in at_two if set(fine.run_ids) <= set(coarse.run_ids)
            ]
            assert len(holders) == 1

    @given(
        st.lists(st.integers(0, 500), min_size=1, max_size=8, unique=True),
        st.integers(1, 3),
    )
    def test_strict_refines_every_rounding(self, numerators, digits):
        runs, _ = runs_with_accuracies(sorted(numerators), 500)
        strict = partition(runs, BandingPolicy(mode="strict"))
        rounded = partition(runs, BandingPolicy(mode="rounded", digits=digits))
        assert rounded.is_partition
        for fine in strict:
            holders = [b for b in rounded if set(fine.run_ids) <= set(b.run_ids)]
            assert len(holders) == 1
            assert holders[0].policy.admits(holders[0].epsilon, fine.epsilon)


class TestTolerance:
    def test_zero_delta_matches_strict_structure(self):
        runs, _ = runs_with_accuracies([98, 98, 97, 95], 100)
        strict = partition(runs, BandingPolicy(mode="strict"))
        tol = partition(runs, BandingPolicy.parse("tol:0"))
        assert tol.is_partition
        assert [b.run_ids for b in tol] == [b.run_ids for b in strict]

    def test_overlap_is_reported_honestly(self):
        runs, _ = runs_with_accuracies([50, 52], 100)
        banding = partition(runs, BandingPolicy.parse("tol:3/100"))
        assert len(banding) == 2
        assert all(b.run_count == 2 for b in banding)
        assert not banding.is_partition

    def test_interval_bounds_inclusive_and_clamped(self):
        runs, _ = runs_with_accuracies([100, 97], 100)
        banding = partition(runs, BandingPolicy.parse("tol:3/100"))
        top = banding.top
        assert top.label == "[97/100, 1]"
        assert top.policy.admits(top.epsilon, ExactRatio(97, 100))
        assert top.policy.admits(top.epsilon, ExactRatio(1, 1))
        assert not top.policy.admits(top.epsilon, ExactRatio(9699, 10_000))

    def test_duplicate_intervals_collapse(self):
        # every anchor's interval clips to [0, 1]: one band, anchored at the best utility
        runs, _ = runs_with_accuracies([90, 80, 60], 100)
        banding = partition(runs, BandingPolicy.parse("tol:1"))
        assert len(banding) == 1
        assert banding.top.label == "[0, 1]"
        assert banding.top.epsilon == ExactRatio(90, 100)
        assert banding.top.run_ids == ("r0000", "r0001", "r0002")
        assert banding.is_partition


@st.composite
def utility_collections(draw):
    """(num, den) utilities with repeats; scaling writes equal values differently."""

    @st.composite
    def utility(draw):
        den = draw(st.sampled_from((1, 8, 40, 100, 1000, 10_000, 100_000)))
        scale = draw(st.sampled_from((1, 1, 2, 7)))
        return draw(st.integers(0, den)) * scale, den * scale

    pool = draw(st.lists(utility(), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))


POLICIES = st.one_of(
    st.just(BandingPolicy("strict")),
    st.integers(1, 4).map(lambda digits: BandingPolicy("rounded", digits=digits)),
    st.one_of(
        st.sampled_from((Fraction(0), Fraction(1), Fraction(3, 2))),
        st.fractions(0, Fraction(5, 4), max_denominator=200),
    ).map(lambda delta: BandingPolicy("tolerance", delta=delta)),
)


class TestMatchesOracle:
    @given(utility_collections(), POLICIES)
    @example([(925, 1000), (935, 1000), (93, 100), (9249, 10_000)], BandingPolicy.parse("round:2"))
    @example([(49, 50), (98, 100), (97, 100), (98, 100)], BandingPolicy("strict"))
    @example([(54, 100), (52, 100), (50, 100), (60, 100)], BandingPolicy.parse("tol:3/100"))
    @example([(90, 100), (80, 100), (0, 1), (1, 1)], BandingPolicy.parse("tol:1"))
    @example([(1, 2), (2, 4), (1, 1), (0, 5)], BandingPolicy.parse("tol:0"))
    def test_partition_matches_per_run_oracle(self, utilities, policy):
        # hand-built runs: utilities no prediction vector of one length could give
        index = make_index(1)
        preds = PredictionVector(index, (0,))
        runs = [
            ModelRun(f"r{k:02d}", preds, preds, ExactRatio(num, den))
            for k, (num, den) in enumerate(utilities)
        ]
        banding = partition(runs, policy)
        got = tuple(
            (b.label, b.run_ids, (b.epsilon.num, b.epsilon.den), b.policy.mode) for b in banding
        )
        assert (got, banding.is_partition) == oracle_partition(runs, policy)


class TestBandObject:
    def test_descending_order(self):
        runs, _ = runs_with_accuracies([50, 90, 70], 100)
        banding = partition(runs, BandingPolicy(mode="strict"))
        values = [b.epsilon.as_fraction() for b in banding]
        assert values == sorted(values, reverse=True)

    def test_member_ids_sorted_unique(self):
        with pytest.raises(ValueError, match="sorted"):
            PerformanceBand(
                label="x",
                run_ids=("b", "a"),
                epsilon=ExactRatio(1, 2),
                policy=BandingPolicy("strict"),
            )


class TestRefinement:
    @staticmethod
    def _mixed_band():
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        high_recall = run_from_bits("hr", labels, (1, 1, 1, 0))
        high_spec = run_from_bits("hs", labels, (1, 0, 0, 0))
        banding = partition([high_recall, high_spec], BandingPolicy(mode="strict"))
        assert banding.top.run_count == 2
        return banding.top, [high_recall, high_spec], labels

    def test_splits_by_secondary_metric(self):
        band, runs, labels = self._mixed_band()
        subs = refine_lexicographic(band_matrix(band, runs), labels, ("specificity",))
        assert [s.run_ids for s in subs] == [("hs",), ("hr",)]
        assert subs[0].label == "3/4 [specificity=1.0000]"
        subs = refine_lexicographic(band_matrix(band, runs), labels, ("recall",))
        assert [s.run_ids for s in subs] == [("hr",), ("hs",)]

    def test_union_is_preserved(self):
        band, runs, labels = self._mixed_band()
        subs = refine_lexicographic(band_matrix(band, runs), labels, ("specificity", "recall"))
        returned = sorted(rid for s in subs for rid in s.run_ids)
        assert returned == sorted(band.run_ids)

    def test_identical_metrics_stay_together(self):
        runs, labels = runs_with_accuracies([98, 98], 100)
        band = partition(runs, BandingPolicy(mode="strict")).top
        subs = refine_lexicographic(band_matrix(band, runs), labels, ("recall",))
        assert len(subs) == 1
        assert subs[0].run_ids == band.run_ids

    def test_undefined_metric_names_the_run(self):
        runs, labels = runs_with_accuracies([98], 100)
        band = partition(runs, BandingPolicy(mode="strict")).top
        with pytest.raises(UndefinedMetricError, match="r0000"):
            refine_lexicographic(band_matrix(band, runs), labels, ("specificity",))

    def test_order_validation(self):
        band, runs, labels = self._mixed_band()
        with pytest.raises(AnalysisError):
            refine_lexicographic(band_matrix(band, runs), labels, ())
        with pytest.raises(AnalysisError):
            refine_lexicographic(band_matrix(band, runs), labels, ("recall", "recall"))
        with pytest.raises(AnalysisError):
            refine_lexicographic(band_matrix(band, runs), labels, ("nope",))

    def test_missing_member_detected(self):
        band, runs, labels = self._mixed_band()
        with pytest.raises(AnalysisError, match="hs"):
            band_matrix(band, runs[:1])

    @given(st.data())
    def test_matches_per_run_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        labels = LabelVector(make_index(n), data.draw(bits))
        runs = []
        for k in range(data.draw(st.integers(1, 6))):
            # a member with no favourable prediction leaves precision undefined
            silent = data.draw(st.booleans())
            runs.append(run_from_bits(f"r{k}", labels, [0] * n if silent else data.draw(bits)))
        members = data.draw(
            st.lists(st.sampled_from(runs), min_size=1, unique_by=lambda r: r.run_id)
        )
        band = whole_band(members)
        order = tuple(data.draw(st.lists(st.sampled_from(METRIC_KINDS), min_size=1, unique=True)))

        def outcome(refine, *args):
            try:
                return refine(*args)
            except MultimaxError as exc:
                return type(exc), str(exc)

        assert outcome(refine_lexicographic, band_matrix(band, runs), labels, order) == outcome(
            oracle_refine_lexicographic, band, runs, labels, order
        )


def test_banding_is_iterable_container():
    runs, _ = runs_with_accuracies([90, 80], 100)
    banding = partition(runs, BandingPolicy(mode="strict"))
    assert isinstance(banding, Banding)
    assert len(list(banding)) == len(banding) == 2
