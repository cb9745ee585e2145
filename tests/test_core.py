from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_index, oracle_confusion, oracle_round_key, oracle_vector_rows, run_from_bits
from multimax.core import (
    ConfusionMatrix,
    ExactRatio,
    InstanceIndex,
    LabelVector,
    PredictionVector,
    confusion_matrix,
    decimal_display,
    metric,
    round_scaled,
)
from multimax.errors import AlignmentError, UndefinedMetricError

ratios = st.integers(1, 10_000).flatmap(
    lambda den: st.tuples(st.integers(0, den), st.just(den))
)


class TestExactRatio:
    def test_unreduced_display(self):
        r = ExactRatio(98, 100)
        assert str(r) == "98/100"
        assert r.display() == "0.9800"

    def test_equality_ignores_reduction(self):
        assert ExactRatio(98, 100) == ExactRatio(49, 50)
        assert ExactRatio(0, 7) == ExactRatio(0, 3)
        assert ExactRatio(1, 3) != ExactRatio(2, 7)

    def test_ordering(self):
        assert ExactRatio(1, 3) < ExactRatio(1, 2)
        assert ExactRatio(50, 100) <= ExactRatio(1, 2)
        assert ExactRatio(3, 4) > ExactRatio(2, 3)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            ExactRatio(1, 0)

    @given(ratios, ratios)
    def test_comparisons_match_fractions(self, a, b):
        ra, rb = ExactRatio(*a), ExactRatio(*b)
        fa, fb = Fraction(*a), Fraction(*b)
        assert (ra == rb) == (fa == fb)
        assert (ra < rb) == (fa < fb)
        assert (ra <= rb) == (fa <= fb)

    @given(ratios, ratios)
    def test_hash_consistent_with_equality(self, a, b):
        ra, rb = ExactRatio(*a), ExactRatio(*b)
        if ra == rb:
            assert hash(ra) == hash(rb)

    @given(ratios)
    def test_fraction_round_trip(self, a):
        r = ExactRatio(*a)
        assert ExactRatio.from_fraction(r.as_fraction()) == r


class TestRounding:
    def test_half_away_from_zero(self):
        # 0.925 is a midpoint and must round up, not to even.
        assert round_scaled(925, 1000, 2) == 93
        assert round_scaled(935, 1000, 2) == 94

    def test_shared_two_digit_key(self):
        keys = {round_scaled(n, 1000, 2) for n in (931, 929, 925)}
        assert keys == {93}

    def test_plain_cases(self):
        assert round_scaled(9249, 10_000, 2) == 92
        assert round_scaled(1, 1, 3) == 1000
        assert round_scaled(0, 5, 4) == 0

    @given(ratios, st.integers(1, 6))
    def test_matches_fraction_oracle(self, a, digits):
        num, den = a
        assert round_scaled(num, den, digits) == oracle_round_key(num, den, digits)

    def test_decimal_display(self):
        assert decimal_display(49, 50) == "0.9800"
        assert decimal_display(1, 1) == "1.0000"


class TestInstanceIndex:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="x1"):
            InstanceIndex(("x0", "x1", "x1"))

    def test_position_and_membership(self):
        idx = make_index(4)
        assert idx.position("i0002") == 2
        assert "i0003" in idx
        assert "other" not in idx
        assert len(idx) == 4
        with pytest.raises(KeyError):
            idx.position("missing")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            InstanceIndex(())


class TestVectors:
    def test_length_mismatch(self):
        idx = make_index(3)
        with pytest.raises(AlignmentError):
            PredictionVector(idx, (1, 0))

    def test_non_binary_rejected(self):
        idx = make_index(2)
        with pytest.raises(ValueError):
            LabelVector(idx, (1, 2))

    def test_label_counts(self):
        idx = make_index(5)
        labels = LabelVector(idx, (1, 1, 0, 1, 0))
        assert labels.positives == 3
        assert labels.negatives == 2

    def test_array_is_readonly(self):
        idx = make_index(3)
        vec = PredictionVector(idx, (1, 0, 1))
        arr = vec.values
        assert arr.dtype == np.uint8
        assert arr.shape == (3,)
        assert arr.tolist() == [1, 0, 1]
        with pytest.raises(ValueError):
            arr[0] = 0

    def test_writeable_input_is_copied_readonly_input_shared(self):
        idx = make_index(3)
        source = np.array([1, 0, 1], dtype=np.uint8)
        vec = PredictionVector(idx, source)
        source[0] = 0
        assert vec.values.tolist() == [1, 0, 1]
        source.flags.writeable = False
        assert PredictionVector(idx, source).values is source

    @pytest.mark.parametrize(
        "values",
        [
            (1, 0, 1),
            [True, False, True],
            np.array([1, 0, 1], dtype=np.int64),
            np.array([True, False, True]),
        ],
    )
    def test_integer_and_bool_input_accepted(self, values):
        vec = LabelVector(make_index(3), values)
        assert vec.values.dtype == np.uint8
        assert vec.values.tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "values, match",
        [
            ((1.0, 0.0, 1.0), "float64"),
            (np.array([1, 0, 1], dtype=np.float32), "float32"),
            (("1", "0", "1"), "<U1"),
            (np.array([1, 0, 1], dtype=object), "object"),
            (np.array([[1, 0, 1]]), "one-dimensional"),
            (np.array([[1], [0], [1]], dtype=np.uint8), "one-dimensional"),
            ((1, -1, 0), "got -1"),
        ],
    )
    def test_non_integer_or_non_flat_rejected(self, values, match):
        with pytest.raises(ValueError, match=match):
            PredictionVector(make_index(3), values)

    def test_equality_by_type_index_and_values(self):
        idx = make_index(3)
        vec = PredictionVector(idx, (1, 0, 1))
        assert vec == PredictionVector(idx, np.array([1, 0, 1]))
        assert vec != PredictionVector(idx, (1, 1, 1))
        assert vec != PredictionVector(make_index(3, prefix="j"), (1, 0, 1))
        assert vec != LabelVector(idx, (1, 0, 1))


@st.composite
def bit_matrices(draw):
    """A 0/1 matrix of one or more rows as uint8, bool or int64, read-only or writeable."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=width, max_size=width), min_size=rows, max_size=rows))
    matrix = np.array(bits, dtype=draw(st.sampled_from((np.uint8, np.bool_, np.int64))))
    matrix.flags.writeable = draw(st.booleans())
    return matrix


def _raised(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


class TestVectorRows:
    """PredictionVector.rows against one PredictionVector per row."""

    @given(bit_matrices())
    def test_rows_match_one_vector_per_row(self, matrix):
        index = make_index(matrix.shape[1])
        got = PredictionVector.rows(index, matrix)
        assert got == oracle_vector_rows(index, matrix)
        assert all(type(v) is PredictionVector and v.index is index for v in got)
        assert all(v.values.dtype == np.uint8 and not v.values.flags.writeable for v in got)
        assert all(v.values.base is got[0].values.base for v in got)  # rows of one array
        shared = matrix.dtype == np.uint8 and not matrix.flags.writeable
        assert np.shares_memory(got[0].values, matrix) == shared

    @settings(max_examples=300)  # a fault in a later row that only the check order reveals
    @given(bit_matrices(), st.data())
    def test_faults_raise_as_the_row_oracle(self, matrix, data):
        """A 2 or a -1, a float matrix, 1-D or 3-D input and a width mismatch, alone or together."""
        value = data.draw(st.sampled_from((None, 2, -1)))
        dtype = data.draw(st.sampled_from((None, np.float64)))
        shape = data.draw(st.sampled_from((None, "1-D", "3-D", "width")))
        assume(value or dtype or shape)
        width = matrix.shape[1]
        if value:
            matrix = matrix.astype(np.int64)
            matrix[data.draw(st.integers(0, matrix.shape[0] - 1)), data.draw(st.integers(0, width - 1))] = value
        if dtype:
            matrix = matrix.astype(dtype)
        if shape == "1-D":
            matrix = matrix[0]
        elif shape == "3-D":
            matrix = matrix[:, None, :]
        elif shape == "width":
            width += data.draw(st.sampled_from((-1, 1))) if width > 1 else 1
        index = make_index(width)
        got = _raised(PredictionVector.rows, index, matrix)
        assert got[0] in (ValueError, AlignmentError)
        assert got == _raised(oracle_vector_rows, index, matrix)


class TestConfusion:
    def test_known_matrix(self):
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        preds = PredictionVector(idx, (1, 0, 1, 0))
        cm = confusion_matrix(preds, labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_index_mismatch(self):
        labels = LabelVector(make_index(3), (1, 0, 1))
        preds = PredictionVector(make_index(3, prefix="j"), (1, 0, 1))
        with pytest.raises(AlignmentError):
            confusion_matrix(preds, labels)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_matches_loop_oracle(self, pairs):
        idx = make_index(len(pairs))
        preds = PredictionVector(idx, tuple(p for p, _ in pairs))
        labels = LabelVector(idx, tuple(y for _, y in pairs))
        cm = confusion_matrix(preds, labels)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == oracle_confusion(
            [p for p, _ in pairs], [y for _, y in pairs]
        )
        assert cm.total == len(pairs)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60))
    def test_class_swap_transposes(self, pairs):
        # Relabelling the favourable class swaps tp<->tn and fp<->fn.
        idx = make_index(len(pairs))
        preds = PredictionVector(idx, tuple(p for p, _ in pairs))
        labels = LabelVector(idx, tuple(y for _, y in pairs))
        flipped_p = PredictionVector(idx, tuple(1 - p for p, _ in pairs))
        flipped_y = LabelVector(idx, tuple(1 - y for _, y in pairs))
        cm = confusion_matrix(preds, labels)
        sw = confusion_matrix(flipped_p, flipped_y)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (sw.tn, sw.fp, sw.fn, sw.tp)


class TestMetrics:
    CM = ConfusionMatrix(tp=48, fn=2, fp=0, tn=50)

    def test_values(self):
        assert metric(self.CM, "accuracy") == ExactRatio(98, 100)
        assert metric(self.CM, "recall") == ExactRatio(48, 50)
        assert metric(self.CM, "specificity") == ExactRatio(50, 50)
        assert metric(self.CM, "precision") == ExactRatio(48, 48)

    def test_denominators_not_reduced(self):
        acc = metric(self.CM, "accuracy")
        assert (acc.num, acc.den) == (98, 100)

    def test_undefined_metrics(self):
        no_positives = ConfusionMatrix(tp=0, fn=0, fp=3, tn=7)
        with pytest.raises(UndefinedMetricError):
            metric(no_positives, "recall")
        never_favourable = ConfusionMatrix(tp=0, fn=5, fp=0, tn=5)
        with pytest.raises(UndefinedMetricError):
            metric(never_favourable, "precision")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metric(self.CM, "f1")


class TestModelRun:
    def test_utility_recomputed(self):
        idx = make_index(4)
        labels = LabelVector(idx, (1, 1, 0, 0))
        run = run_from_bits("r0", labels, (1, 0, 0, 0))
        assert run.utility == ExactRatio(3, 4)
        assert run.utility == metric(confusion_matrix(run.preds_validation, labels), "accuracy")

