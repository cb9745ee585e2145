"""Grouping model runs into performance bands.

A band collects runs whose validation utility is "the same" under one of
three notions: exactly equal (strict), equal after rounding to a fixed number
of decimal digits, or within a symmetric tolerance around an anchor value.
BandingPolicy decides both which band a utility anchors and which utilities
a band holds, so a band is its policy plus its anchor.  Strict and rounded
banding partition the run collection; tolerance bands may overlap, and the
result carries an honest is_partition flag instead of a promise.

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
    decimal_display,
    metric,
    round_scaled,
)
from .errors import AlignmentError, AnalysisError, InvariantViolation, UndefinedMetricError

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
    def parse(cls, text: str, tie_break: str = "") -> "BandingPolicy":
        """Parse 'strict', 'tol:<delta>' or 'round:<digits>'; tie_break is comma-separated."""
        text = text.strip()
        order = tuple(part.strip() for part in tie_break.split(",") if part.strip())
        if text == "strict":
            return cls(mode="strict", tie_break=order)
        if text.startswith("tol:"):
            raw = text[len("tol:"):]
            try:
                if not raw.isascii() or "_" in raw:  # Fraction() reads other scripts' digits and "_"
                    raise ValueError
                delta = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse tolerance delta {raw!r}") from None
            return cls(mode="tolerance", delta=delta, tie_break=order)
        if text.startswith("round:"):
            raw = text[len("round:"):]
            if not (raw.isascii() and raw.isdigit()):
                raise ValueError(f"cannot parse rounding digits {raw!r}")
            return cls(mode="rounded", digits=int(raw), tie_break=order)
        raise ValueError(f"unknown banding policy {text!r}; expected strict, tol:<delta> or round:<digits>")

    def describe(self) -> str:
        if self.mode == "strict":
            return "strict"
        if self.mode == "rounded":
            return f"round:{self.digits}"
        return f"tol:{self.delta}"

    def band_at(self, utility: ExactRatio) -> tuple[str, ExactRatio]:
        """The label and epsilon of the band that a run with this utility anchors.

        epsilon is the utility itself, reduced, for strict and tolerance
        bands, and the rounded value q/10^digits for rounded bands.
        """
        if self.mode == "rounded":
            assert self.digits is not None
            scale = 10**self.digits
            key = round_scaled(utility.num, utility.den, self.digits)
            return decimal_display(key, scale, self.digits), ExactRatio(key, scale)
        value = utility.as_fraction()
        if self.mode == "strict":
            label = f"{value.numerator}/{value.denominator}"
        else:
            assert self.delta is not None
            label = f"[{max(Fraction(0), value - self.delta)}, {min(Fraction(1), value + self.delta)}]"
        return label, ExactRatio.from_fraction(value)

    def admits(self, epsilon: ExactRatio, utility: ExactRatio) -> bool:
        """Does the band at epsilon hold a run with this utility?"""
        if self.mode == "strict":
            return utility == epsilon
        if self.mode == "rounded":
            assert self.digits is not None
            key = round_scaled(epsilon.num, epsilon.den, self.digits)
            return round_scaled(utility.num, utility.den, self.digits) == key
        # |utility - epsilon| <= delta, cross-multiplied over positive denominators
        assert self.delta is not None
        gap = abs(utility.num * epsilon.den - epsilon.num * utility.den)
        return gap * self.delta.denominator <= self.delta.numerator * utility.den * epsilon.den


@dataclass(frozen=True)
class PerformanceBand:
    """A labelled group of run ids: a banding policy plus the band's anchor.

    epsilon is the band's representative utility (see BandingPolicy.band_at)
    and policy.admits(epsilon, u) decides whether utility u belongs.
    """

    label: str
    run_ids: tuple[str, ...]
    epsilon: ExactRatio
    policy: BandingPolicy

    def __post_init__(self) -> None:
        if not self.run_ids:
            raise ValueError(f"band {self.label!r} has no members")
        object.__setattr__(self, "run_ids", tuple(self.run_ids))
        if list(self.run_ids) != sorted(set(self.run_ids)):
            raise ValueError(f"band {self.label!r} member ids must be sorted and unique")

    @property
    def run_count(self) -> int:
        return len(self.run_ids)


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


def partition(runs: Iterable[ModelRun], policy: BandingPolicy) -> Banding:
    """Group runs into performance bands under the given policy.

    Each distinct utility, best first, anchors a band unless an earlier band
    already has its label; tolerance bands may overlap.  Bands come back in
    descending epsilon order.  A duplicate run id or a run on another
    validation index is refused.
    """
    run_list = sorted(runs, key=lambda r: r.run_id)
    if not run_list:
        raise AnalysisError("cannot band an empty run collection")
    first = run_list[0]
    for prev, run in zip(run_list, run_list[1:]):
        if run.run_id == prev.run_id:
            raise ValueError(f"duplicate run id {run.run_id!r}")
        if run.preds_validation.index != first.preds_validation.index:
            raise AlignmentError(f"run {run.run_id!r} uses a different validation index than run {first.run_id!r}")
    # keyed by (num, den): hashing an ExactRatio builds a Fraction
    groups: dict[tuple[int, int], list[str]] = {}
    for run in run_list:
        groups.setdefault((run.utility.num, run.utility.den), []).append(run.run_id)
    levels = sorted((ExactRatio(num, den) for num, den in groups), reverse=True)
    bands = []
    labels: set[str] = set()
    for at, anchor in enumerate(levels):
        label, epsilon = policy.band_at(anchor)
        if label in labels:
            continue
        labels.add(label)
        # every rule admits one contiguous stretch of the sorted utilities
        # around the anchor, so each scan stops at its first refusal
        lo, hi = at, at + 1
        while lo > 0 and policy.admits(epsilon, levels[lo - 1]):
            lo -= 1
        while hi < len(levels) and policy.admits(epsilon, levels[hi]):
            hi += 1
        run_ids = sorted(rid for level in levels[lo:hi] for rid in groups[level.num, level.den])
        bands.append(PerformanceBand(label, tuple(run_ids), epsilon, policy))
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
