"""Grouping model runs into performance bands.

A band collects runs whose validation utility is "the same" under one of
three notions: exactly equal (strict), equal after rounding to a fixed number
of decimal digits, or within a symmetric tolerance around an anchor value.
Strict and rounded banding partition the run collection; tolerance bands may
overlap, and the result carries an honest is_partition flag instead of a
promise.

All comparisons are exact.  Rounding uses integer arithmetic with midpoints
going away from zero, so a band labelled "0.93" contains 925/1000 but not
9249/10000.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .core import (
    METRIC_KINDS,
    ConfusionMatrix,
    ExactRatio,
    LabelVector,
    ModelRun,
    common_validation_index,
    decimal_display,
    metric,
    round_scaled,
    runs_by_id,
)
from .errors import AnalysisError, InvariantViolation, UndefinedMetricError

if TYPE_CHECKING:
    from .fairness import BandMatrix

BAND_MODES = ("strict", "rounded", "tolerance")


@dataclass(frozen=True)
class BandingPolicy:
    """How runs are grouped: strict equality, round:<digits>, or tol:<delta>.

    tie_break lists secondary metrics for refining bands whose members share
    utility; the first entry must not itself be the banding utility
    (accuracy), which cannot separate members of a strict band.
    """

    mode: str
    delta: Fraction | None = None
    digits: int | None = None
    tie_break: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in BAND_MODES:
            raise ValueError(f"unknown banding mode {self.mode!r}; expected one of {BAND_MODES}")
        if self.mode == "tolerance":
            if self.delta is None or self.delta < 0:
                raise ValueError("tolerance banding needs a non-negative delta")
        elif self.delta is not None:
            raise ValueError(f"delta is only meaningful for tolerance mode, not {self.mode}")
        if self.mode == "rounded":
            if self.digits is None or self.digits < 1:
                raise ValueError("rounded banding needs digits >= 1")
        elif self.digits is not None:
            raise ValueError(f"digits is only meaningful for rounded mode, not {self.mode}")
        object.__setattr__(self, "tie_break", tuple(self.tie_break))
        for kind in self.tie_break:
            if kind not in METRIC_KINDS:
                raise ValueError(f"unknown tie-break metric {kind!r}")
        if len(set(self.tie_break)) != len(self.tie_break):
            raise ValueError("tie-break metrics must not repeat")
        if self.tie_break and self.tie_break[0] == "accuracy":
            raise ValueError("the first tie-break metric must differ from the banding utility")

    @classmethod
    def parse(cls, text: str, tie_break: Sequence[str] = ()) -> "BandingPolicy":
        """Parse 'strict', 'tol:<delta>' or 'round:<digits>'."""
        text = text.strip()
        if text == "strict":
            return cls(mode="strict", tie_break=tuple(tie_break))
        if text.startswith("tol:"):
            raw = text[len("tol:"):]
            try:
                delta = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse tolerance delta {raw!r}") from None
            return cls(mode="tolerance", delta=delta, tie_break=tuple(tie_break))
        if text.startswith("round:"):
            raw = text[len("round:"):]
            if not raw.isdigit():
                raise ValueError(f"cannot parse rounding digits {raw!r}")
            return cls(mode="rounded", digits=int(raw), tie_break=tuple(tie_break))
        raise ValueError(f"unknown banding policy {text!r}; expected strict, tol:<delta> or round:<digits>")

    def describe(self) -> str:
        if self.mode == "strict":
            return "strict"
        if self.mode == "rounded":
            return f"round:{self.digits}"
        return f"tol:{self.delta}"


@dataclass(frozen=True)
class PerformanceBand:
    """A labelled group of run ids at one utility level.

    epsilon is the band's representative utility: the shared exact value for
    strict bands, the rounded value q/10^digits for rounded bands, and the
    anchor for tolerance bands (whose closed interval is [lo, hi]).
    """

    label: str
    run_ids: tuple[str, ...]
    epsilon: ExactRatio
    mode: str
    lo: Fraction | None = None
    hi: Fraction | None = None
    digits: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in BAND_MODES:
            raise ValueError(f"unknown band mode {self.mode!r}")
        if not self.run_ids:
            raise ValueError(f"band {self.label!r} has no members")
        object.__setattr__(self, "run_ids", tuple(self.run_ids))
        if list(self.run_ids) != sorted(set(self.run_ids)):
            raise ValueError(f"band {self.label!r} member ids must be sorted and unique")
        if self.mode == "tolerance" and (self.lo is None or self.hi is None):
            raise ValueError("tolerance bands need interval bounds")
        if self.mode == "rounded" and self.digits is None:
            raise ValueError("rounded bands need their digit count")

    @property
    def run_count(self) -> int:
        return len(self.run_ids)

    def contains_utility(self, utility: ExactRatio) -> bool:
        """Would a run with this utility fall into the band?"""
        if self.mode == "strict":
            return utility == self.epsilon
        if self.mode == "rounded":
            assert self.digits is not None
            return round_scaled(utility.num, utility.den, self.digits) == self.epsilon.num
        assert self.lo is not None and self.hi is not None
        return self.lo <= utility.as_fraction() <= self.hi


@dataclass(frozen=True)
class Banding:
    """Result of banding a run collection: bands in descending utility order."""

    policy: BandingPolicy
    bands: tuple[PerformanceBand, ...]
    is_partition: bool

    def __iter__(self) -> Iterator[PerformanceBand]:
        return iter(self.bands)

    def __len__(self) -> int:
        return len(self.bands)

    def band(self, label: str) -> PerformanceBand:
        for band in self.bands:
            if band.label == label:
                return band
        raise KeyError(f"no band labelled {label!r}")

    @property
    def top(self) -> PerformanceBand:
        return self.bands[0]


def _strict_bands(runs: Sequence[ModelRun]) -> list[PerformanceBand]:
    groups: dict[Fraction, list[str]] = {}
    for run in runs:
        groups.setdefault(run.utility.as_fraction(), []).append(run.run_id)
    bands = []
    for value, members in groups.items():
        bands.append(
            PerformanceBand(
                label=f"{value.numerator}/{value.denominator}",
                run_ids=tuple(sorted(members)),
                epsilon=ExactRatio.from_fraction(value),
                mode="strict",
            )
        )
    return bands


def _rounded_bands(runs: Sequence[ModelRun], digits: int) -> list[PerformanceBand]:
    scale = 10**digits
    groups: dict[int, list[str]] = {}
    for run in runs:
        key = round_scaled(run.utility.num, run.utility.den, digits)
        groups.setdefault(key, []).append(run.run_id)
    bands = []
    for key, members in groups.items():
        bands.append(
            PerformanceBand(
                label=f"{key // scale}.{key % scale:0{digits}d}",
                run_ids=tuple(sorted(members)),
                epsilon=ExactRatio(key, scale),
                mode="rounded",
                digits=digits,
            )
        )
    return bands


def _tolerance_bands(runs: Sequence[ModelRun], delta: Fraction) -> list[PerformanceBand]:
    # one band per distinct utility, except that anchors whose intervals clip
    # to the same [lo, hi] at 0 or 1 share one band
    anchor_values = sorted({run.utility.as_fraction() for run in runs}, reverse=True)
    bands = []
    seen_intervals: set[tuple[Fraction, Fraction]] = set()
    for anchor in anchor_values:
        lo = max(Fraction(0), anchor - delta)
        hi = min(Fraction(1), anchor + delta)
        if (lo, hi) in seen_intervals:
            continue
        seen_intervals.add((lo, hi))
        members = [run.run_id for run in runs if lo <= run.utility.as_fraction() <= hi]
        bands.append(
            PerformanceBand(
                label=f"[{lo}, {hi}]",
                run_ids=tuple(sorted(members)),
                epsilon=ExactRatio.from_fraction(anchor),
                mode="tolerance",
                lo=lo,
                hi=hi,
            )
        )
    return bands


def partition(runs: Iterable[ModelRun], policy: BandingPolicy) -> Banding:
    """Group runs into performance bands under the given policy.

    Tolerance bands are anchored at the distinct utilities present in the
    collection.  Bands come back in descending epsilon order.
    """
    run_list = sorted(runs_by_id(runs).values(), key=lambda r: r.run_id)
    if not run_list:
        raise AnalysisError("cannot band an empty run collection")
    common_validation_index(run_list)
    if policy.mode == "strict":
        bands = _strict_bands(run_list)
    elif policy.mode == "rounded":
        assert policy.digits is not None
        bands = _rounded_bands(run_list, policy.digits)
    else:
        assert policy.delta is not None
        bands = _tolerance_bands(run_list, policy.delta)
    bands.sort(key=lambda b: b.epsilon.as_fraction(), reverse=True)
    memberships = [rid for band in bands for rid in band.run_ids]
    is_partition = len(memberships) == len(run_list) and len(set(memberships)) == len(run_list)
    return Banding(policy=policy, bands=tuple(bands), is_partition=is_partition)


def refine_lexicographic(
    bm: BandMatrix, labels: LabelVector, order: Sequence[str]
) -> tuple[PerformanceBand, ...]:
    """Split a band into sub-bands by secondary metrics.

    Members are grouped by their tuple of metric values in the given order,
    each computed from the member's validation counts in bm, and sub-bands
    come back lexicographically descending (best first).  The union of the
    sub-bands is exactly the input band.
    """
    order = tuple(order)
    if not order:
        raise AnalysisError("refinement needs at least one metric")
    for kind in order:
        if kind not in METRIC_KINDS:
            raise AnalysisError(f"unknown refinement metric {kind!r}")
    if len(set(order)) != len(order):
        raise AnalysisError("refinement metrics must not repeat")
    tps, fps = bm.member_counts(labels)
    positives, negatives = labels.positives, labels.negatives
    groups: dict[tuple[Fraction, ...], list[str]] = {}
    for run_id, tp, fp in zip(bm.member_ids, tps.tolist(), fps.tolist()):
        cm = ConfusionMatrix(tp=tp, fn=positives - tp, fp=fp, tn=negatives - fp)
        values = []
        for kind in order:
            try:
                values.append(metric(cm, kind).as_fraction())
            except UndefinedMetricError as exc:
                raise UndefinedMetricError(f"run {run_id!r}: {exc}") from None
        groups.setdefault(tuple(values), []).append(run_id)
    sub_bands = []
    for key in sorted(groups, reverse=True):
        detail = ", ".join(
            f"{kind}={decimal_display(value.numerator, value.denominator)}"
            for kind, value in zip(order, key)
        )
        sub_bands.append(
            replace(bm.band, label=f"{bm.label} [{detail}]", run_ids=tuple(sorted(groups[key])))
        )
    returned = sorted(rid for sub in sub_bands for rid in sub.run_ids)
    if returned != sorted(bm.band.run_ids):
        raise InvariantViolation("refinement lost or duplicated band members")
    return tuple(sub_bands)
