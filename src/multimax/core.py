"""Exact primitives for crisp binary prediction audits.

Everything downstream (banding, disputability, reports) is built on the types
here: an ordered instance index, 0/1 label and prediction vectors aligned to
it, confusion counts, and ExactRatio, a rational number that remembers how it
was written.  No floats are involved in any comparison; 98/100 and 49/50 are
equal as values but keep their own display forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from typing import Iterator

import numpy as np

from .errors import AlignmentError, UndefinedMetricError

FAVOURABLE = 1
UNFAVOURABLE = 0

METRIC_KINDS = ("accuracy", "recall", "specificity", "precision")

# decimal places of every rounded number in reports and CLI output
DISPLAY_DIGITS = 4


def round_scaled(num: int, den: int, digits: int) -> int:
    """Round the non-negative ratio num/den to `digits` decimal places.

    Returns the scaled integer q such that q / 10**digits is the rounded
    value.  Pure integer arithmetic; exact midpoints round away from zero,
    so 925/1000 at two digits gives 93, not 92.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if num < 0:
        raise ValueError(f"numerator must be non-negative, got {num}")
    if digits < 0:
        raise ValueError(f"digits must be non-negative, got {digits}")
    scale = 10**digits
    q = (num * scale) // den
    # round up iff the remainder is at least half a unit: num/den >= (2q+1)/2s
    if 2 * num * scale >= den * (2 * q + 1):
        q += 1
    return q


def decimal_display(num: int, den: int, digits: int = DISPLAY_DIGITS) -> str:
    """Exact decimal rendering of num/den with `digits` places."""
    q = round_scaled(num, den, digits)
    scale = 10**digits
    return f"{q // scale}.{q % scale:0{digits}d}"


@total_ordering
@dataclass(frozen=True, eq=False)
class ExactRatio:
    """A ratio in [0, 1] compared by value but displayed as written.

    Equality and ordering use cross multiplication, so ExactRatio(49, 50) ==
    ExactRatio(98, 100), while str() keeps the original numerator and
    denominator.  Hash goes through the reduced fraction so equal ratios
    collide as dict keys.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if not isinstance(self.num, int) or not isinstance(self.den, int):
            raise TypeError("ExactRatio takes integer numerator and denominator")
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        if not 0 <= self.num <= self.den:
            raise ValueError(f"ratio {self.num}/{self.den} is outside [0, 1]")

    @classmethod
    def from_fraction(cls, value: Fraction) -> "ExactRatio":
        return cls(value.numerator, value.denominator)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def display(self) -> str:
        return decimal_display(self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactRatio):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __lt__(self, other: "ExactRatio") -> bool:
        if not isinstance(other, ExactRatio):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __hash__(self) -> int:
        return hash(Fraction(self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class InstanceIndex:
    """Ordered, duplicate-free instance identifiers.

    Labels and predictions are aligned by position against one shared index;
    two vectors are comparable only when their indices are equal (same ids in
    the same order).
    """

    ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        if not self.ids:
            raise ValueError("instance index must not be empty")
        if len(set(self.ids)) != len(self.ids):
            seen: set[str] = set()
            dup = next(i for i in self.ids if i in seen or seen.add(i))
            raise ValueError(f"duplicate instance id {dup!r} in index")

    def __eq__(self, other: object) -> bool:  # one file's vectors share one index: identity settles most compares
        return self is other or (other.__class__ is self.__class__ and self.ids == other.ids)

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {instance_id: pos for pos, instance_id in enumerate(self.ids)}

    def position(self, instance_id: str) -> int:
        try:
            return self._positions[instance_id]
        except KeyError:
            raise KeyError(f"instance id {instance_id!r} not in index") from None

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _read_only_bits(values, index: InstanceIndex, ndim: int) -> np.ndarray:
    """values as a read-only uint8 array of ndim dimensions, each of its rows one vector's values over index."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise ValueError(f"binary vector values must be integer or bool, not {values.dtype}")
    if values.ndim != ndim:
        raise ValueError(f"binary vector values must be one-dimensional, not {values.ndim + 1 - ndim}-D")
    if values.shape[-1] != index.size:
        raise AlignmentError(f"{values.shape[-1]} values for an index of size {index.size}")
    outside = (values != UNFAVOURABLE) & (values != FAVOURABLE)
    if outside.any():
        raise ValueError(f"binary vector values must be 0 or 1, got {values[outside][0]}")
    if values.dtype != np.uint8 or values.flags.writeable:
        values = values.astype(np.uint8)
        values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class _BinaryVector:
    """0/1 values over an index, held as a read-only 1-D uint8 array.

    Integer or boolean input is validated in bulk and copied unless it is
    already a read-only uint8 array, which is shared as is.  Float, string
    and object input is refused rather than coerced.  Two vectors are equal
    when they have the same type and index and equal values.
    """

    index: InstanceIndex
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only_bits(self.values, self.index, 1))

    @classmethod
    def rows(cls, index: InstanceIndex, matrix) -> list:
        """One vector per row of a 2-D matrix, checked once as each row would be, sharing one read-only uint8 array."""
        vectors = []
        for row in _read_only_bits(matrix, index, 2):
            vectors.append(object.__new__(cls))
            vectors[-1].__dict__.update(index=index, values=row)  # a frozen dataclass's fields, set unchecked
        return vectors

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.index == other.index and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class LabelVector(_BinaryVector):
    """Ground-truth labels over an index; 1 is the favourable class."""

    @property
    def positives(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def negatives(self) -> int:
        return self.index.size - self.positives


@dataclass(frozen=True, eq=False)
class PredictionVector(_BinaryVector):
    """Crisp 0/1 predictions of one model run over an index."""


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of a prediction vector against labels; favourable class is 1."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "fp", "tn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.total == 0:
            raise ValueError("confusion matrix must count at least one instance")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion_matrix(preds: PredictionVector, labels: LabelVector) -> ConfusionMatrix:
    """Tally predictions against labels sharing the same index."""
    if preds.index != labels.index:
        raise AlignmentError(
            "predictions and labels use different instance indices "
            f"({preds.index.size} vs {labels.index.size} ids)"
        )
    p = preds.values
    y = labels.values
    tp = int(np.count_nonzero(p & y))
    fp = int(np.count_nonzero(p > y))
    fn = int(np.count_nonzero(y > p))
    tn = len(y) - tp - fp - fn
    return ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)


def metric(cm: ConfusionMatrix, kind: str) -> ExactRatio:
    """One of accuracy / recall / specificity / precision, as an exact ratio.

    Raises UndefinedMetricError when the metric's denominator is zero, rather
    than inventing a value.
    """
    if kind == "accuracy":
        return ExactRatio(cm.tp + cm.tn, cm.total)
    if kind == "recall":
        den = cm.tp + cm.fn
        if den == 0:
            raise UndefinedMetricError("recall is undefined: no favourable-labelled instances")
        return ExactRatio(cm.tp, den)
    if kind == "specificity":
        den = cm.tn + cm.fp
        if den == 0:
            raise UndefinedMetricError(
                "specificity is undefined: no unfavourable-labelled instances"
            )
        return ExactRatio(cm.tn, den)
    if kind == "precision":
        den = cm.tp + cm.fp
        if den == 0:
            raise UndefinedMetricError("precision is undefined: no favourable predictions")
        return ExactRatio(cm.tp, den)
    raise ValueError(f"unknown metric kind {kind!r}; expected one of {METRIC_KINDS}")


@dataclass(frozen=True)
class ModelRun:
    """One classifier execution: predictions plus its recomputed utility.

    The utility (validation accuracy) is always derived from the stored
    predictions, never trusted from an external source; use from_predictions
    to construct runs so the two cannot drift apart.  ingest.load_predictions
    builds a file's runs in bulk instead, every utility from one row
    reduction of the file's matrix against the labels.
    """

    run_id: str
    preds_validation: PredictionVector
    preds_fairness: PredictionVector
    utility: ExactRatio

    def __post_init__(self) -> None:
        if not self.run_id:
            raise ValueError("run_id must be non-empty")

    @classmethod
    def from_predictions(
        cls,
        run_id: str,
        preds_validation: PredictionVector,
        labels: LabelVector,
        preds_fairness: PredictionVector | None = None,
    ) -> "ModelRun":
        utility = metric(confusion_matrix(preds_validation, labels), "accuracy")
        return cls(
            run_id=run_id,
            preds_validation=preds_validation,
            preds_fairness=preds_fairness if preds_fairness is not None else preds_validation,
            utility=utility,
        )

