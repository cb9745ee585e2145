"""Individual-fairness analysis of a performance band.

A band's members all perform equally well, yet they may still disagree on
individual instances.  Those instances are disputable: the model actually
deployed decides their outcome even though every candidate was equally
justified.  This module measures that disagreement (ambiguity, pairwise
discrepancy), finds the disputable instances, and builds the fair ensemble
that grants the favourable outcome whenever any band member would.

Every analysis reads a BandMatrix: the band's members stacked as one 0/1
row each, built once per band by band_matrix, which gathers the fairness and
the validation matrix in one pass over the members.  Ambiguity and the
disputed instances are column reductions of it; discrepancy and each
member's validation counts (BandMatrix.member_counts, which the ensemble's
deltas and the tie-break refinement read) are row reductions.  The
max-ensemble of either matrix is ensemble_predictions(matrix, index).

All rates are exact ratios over the fairness index; nothing is estimated
except where run pairs are explicitly capped (and then the retained runs are
chosen by a deterministic seeded hash, recorded in the result).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .banding import PerformanceBand, refine_lexicographic
from .core import (
    ExactRatio,
    InstanceIndex,
    LabelVector,
    ModelRun,
    PredictionVector,
    confusion_matrix,
    metric,
)
from .errors import AlignmentError, AnalysisError, InvariantViolation


def member_matrix(
    band: PerformanceBand, runs: Sequence[ModelRun]
) -> tuple[InstanceIndex, np.ndarray, InstanceIndex, np.ndarray]:
    """The band's fairness index and matrix, then its validation index and matrix.

    One pass over the members stacks their uint8 rows in band.run_ids order;
    a duplicate run id, a missing member or a member on another index is refused.
    """
    lookup: dict[str, ModelRun] = {}
    for run in runs:
        if run.run_id in lookup:
            raise ValueError(f"duplicate run id {run.run_id!r}")
        lookup[run.run_id] = run
    members: list[ModelRun] = []
    for run_id in band.run_ids:
        run = lookup.get(run_id)
        if run is None:
            raise AnalysisError(f"band member {run_id!r} missing from the run collection")
        first = members[0] if members else run
        if run.preds_fairness.index != first.preds_fairness.index:
            raise AlignmentError(f"run {run_id!r} uses a different fairness index")
        if run.preds_validation.index != first.preds_validation.index:
            raise AlignmentError(f"run {run_id!r} uses a different validation index")
        members.append(run)
    fairness = np.concatenate([run.preds_fairness.values for run in members]).reshape(len(members), -1)
    validation = np.concatenate([run.preds_validation.values for run in members]).reshape(len(members), -1)
    return members[0].preds_fairness.index, fairness, members[0].preds_validation.index, validation


@dataclass(frozen=True, eq=False)
class BandMatrix:
    """One band's run x instance 0/1 matrices, on the fairness and validation sets.

    Row r of either matrix holds the predictions of member_ids[r], the band's
    sorted run ids.
    """

    band: PerformanceBand
    fairness_index: InstanceIndex
    fairness: np.ndarray
    validation_index: InstanceIndex
    validation: np.ndarray

    @property
    def label(self) -> str:
        return self.band.label

    @property
    def member_ids(self) -> tuple[str, ...]:
        return self.band.run_ids

    @cached_property
    def disputed(self) -> np.ndarray:
        """Fairness columns on which at least two members disagree."""
        return (self.fairness != self.fairness[0]).any(axis=0)

    @cached_property
    def vector_groups(self) -> tuple[tuple[str, ...], ...]:
        """See prediction_vector_groups; members come sorted, so each group does too."""
        groups: dict[bytes, list[str]] = {}
        for run_id, row in zip(self.member_ids, self.fairness):
            groups.setdefault(row.tobytes(), []).append(run_id)
        return tuple(map(tuple, sorted(groups.values(), key=len, reverse=True)))  # a stable sort

    def member_counts(self, labels: LabelVector) -> tuple[np.ndarray, np.ndarray]:
        """Each member's validation true and false positives, as int64 row sums."""
        if labels.index != self.validation_index:
            raise AlignmentError("labels do not use the band's validation index")
        y = labels.values
        tp = (self.validation & y).sum(axis=1, dtype=np.int64)
        fp = (self.validation > y).sum(axis=1, dtype=np.int64)
        return tp, fp


def band_matrix(band: PerformanceBand, runs: Sequence[ModelRun]) -> BandMatrix:
    """Stack the band's members once for every analysis of the band."""
    return BandMatrix(band, *member_matrix(band, runs))


@dataclass(frozen=True)
class DisputableSet:
    """Instances on which the band's members disagree, with the vote split."""

    instance_ids: tuple[str, ...]
    per_instance_vote: dict[str, tuple[int, int]]  # id -> (favourable, unfavourable)

    @property
    def size(self) -> int:
        return len(self.instance_ids)

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self.per_instance_vote


def disputable_instances(bm: BandMatrix) -> DisputableSet:
    """Fairness instances where at least two band members disagree, in index order."""
    ones = bm.fairness.sum(axis=0, dtype=np.int64)
    ids = []
    votes: dict[str, tuple[int, int]] = {}
    for pos in np.flatnonzero(bm.disputed).tolist():
        instance_id = bm.fairness_index.ids[pos]
        ids.append(instance_id)
        votes[instance_id] = (int(ones[pos]), len(bm.member_ids) - int(ones[pos]))
    return DisputableSet(instance_ids=tuple(ids), per_instance_vote=votes)


def ambiguity(bm: BandMatrix) -> ExactRatio:
    """Disputable fraction of the fairness index, as an exact ratio."""
    return ExactRatio(int(np.count_nonzero(bm.disputed)), bm.fairness_index.size)


@dataclass(frozen=True)
class DiscrepancyStats:
    """Pairwise disagreement between (up to cap) runs of one band, as a histogram.

    Every pair's disagreement fraction has the same denominator,
    instance_count, so the distribution is pair_counts: each disagreement
    count k that occurs -> the number of pairs that disagree on exactly k
    instances, in ascending k.  run_ids are the retained members, sorted.
    When the band exceeds the cap, the retained members are the ones with the
    smallest sha256("{seed}:{run_id}") digests, so the draw is reproducible
    from the recorded seed alone.
    """

    total_runs: int
    cap: int
    seed: int
    run_ids: tuple[str, ...]
    instance_count: int
    pair_counts: dict[int, int]

    @property
    def single_run(self) -> bool:
        return self.total_runs == 1

    @property
    def sampled_runs(self) -> int:
        return len(self.run_ids)

    @property
    def pair_count(self) -> int:
        return sum(self.pair_counts.values())

    @property
    def min_fraction(self) -> ExactRatio | None:
        return ExactRatio(min(self.pair_counts), self.instance_count) if self.pair_counts else None

    @property
    def max_fraction(self) -> ExactRatio | None:
        return ExactRatio(max(self.pair_counts), self.instance_count) if self.pair_counts else None

    @property
    def mean_fraction(self) -> Fraction | None:
        if not self.pair_counts:
            return None
        disagreements = sum(k * c for k, c in self.pair_counts.items())
        return Fraction(disagreements, self.pair_count * self.instance_count)

    def fraction_counts(self) -> dict[str, int]:
        """Pairs per disagreement fraction, keyed "k/n" with n the instance count (unreduced)."""
        return {f"{k}/{self.instance_count}": c for k, c in self.pair_counts.items()}


def _hash_rank(seed: int, item: str) -> tuple[str, str]:
    return (hashlib.sha256(f"{seed}:{item}".encode()).hexdigest(), item)


def discrepancy(bm: BandMatrix, cap: int = 500, seed: int = 0) -> DiscrepancyStats:
    """Disagreement counts over every pair among up to cap retained runs."""
    if cap < 2:
        raise AnalysisError(f"discrepancy cap must be at least 2, got {cap}")
    member_ids = bm.member_ids
    kept = set(member_ids)
    if len(member_ids) > cap:
        kept = set(sorted(member_ids, key=lambda rid: _hash_rank(seed, rid))[:cap])
    rows = [pos for pos, run_id in enumerate(member_ids) if run_id in kept]
    x = bm.fairness[rows]
    per_pair = np.concatenate([(x[i + 1 :] != x[i]).sum(axis=1) for i in range(len(rows))])
    histogram = np.bincount(per_pair).tolist()
    return DiscrepancyStats(
        total_runs=len(member_ids),
        cap=cap,
        seed=seed,
        run_ids=tuple(member_ids[pos] for pos in rows),
        instance_count=bm.fairness_index.size,
        pair_counts={k: c for k, c in enumerate(histogram) if c},
    )


def ensemble_predictions(matrix: np.ndarray, index: InstanceIndex) -> PredictionVector:
    """Pointwise maximum of a band's matrix: favourable wherever any member says so."""
    return PredictionVector(index=index, values=matrix.max(axis=0))


@dataclass(frozen=True)
class MetricDeltas:
    """Exact metric changes of the ensemble relative to one member."""

    accuracy: Fraction
    recall: Fraction
    specificity: Fraction


@dataclass(frozen=True)
class FairEnsembleReport:
    """The band's max-ensemble on the validation set, with member-wise deltas."""

    preds: PredictionVector
    accuracy: ExactRatio
    recall: ExactRatio
    specificity: ExactRatio
    member_deltas: dict[str, MetricDeltas]


def fair_ensemble(bm: BandMatrix, labels: LabelVector) -> FairEnsembleReport:
    """Build the band's max-ensemble and measure it on the validation labels.

    The ensemble predicts the favourable class for an instance exactly when
    some band member does, which removes every within-band dispute.  Its
    recall can only rise and its specificity can only fall relative to each
    member; that is enforced as a postcondition, not assumed.  A member's
    deltas follow from the ensemble's gains in true and false positives over
    it, g_tp and g_fp: accuracy (g_tp - g_fp)/n, recall g_tp/P and
    specificity -g_fp/N.
    """
    preds = ensemble_predictions(bm.validation, bm.validation_index)
    tp, fp = bm.member_counts(labels)
    star = confusion_matrix(preds, labels)
    star_metrics = {kind: metric(star, kind) for kind in ("accuracy", "recall", "specificity")}
    g_tp = star.tp - tp
    g_fp = star.fp - fp
    losing = (g_tp < 0) | (g_fp < 0)
    if losing.any():
        raise InvariantViolation(
            "ensemble must not lose recall or gain specificity against member "
            f"{bm.member_ids[int(np.argmax(losing))]!r}"
        )
    n, positives, negatives = labels.index.size, labels.positives, labels.negatives
    deltas = {
        run_id: MetricDeltas(
            accuracy=Fraction(gain_tp - gain_fp, n),
            recall=Fraction(gain_tp, positives),
            specificity=Fraction(-gain_fp, negatives),
        )
        for run_id, gain_tp, gain_fp in zip(bm.member_ids, g_tp.tolist(), g_fp.tolist())
    }
    return FairEnsembleReport(
        preds=preds,
        accuracy=star_metrics["accuracy"],
        recall=star_metrics["recall"],
        specificity=star_metrics["specificity"],
        member_deltas=deltas,
    )


def prediction_vector_groups(bm: BandMatrix) -> tuple[tuple[str, ...], ...]:
    """Band members grouped by identical fairness prediction vectors.

    Groups come back largest first (ties by first appearance among the sorted
    member ids); each group lists its member run ids sorted.  They are found
    once per band matrix and shared by every caller.
    """
    return bm.vector_groups


def unique_vector_counts(bm: BandMatrix) -> tuple[int, ...]:
    """Sizes of the identical-prediction groups, largest first."""
    return tuple(len(g) for g in prediction_vector_groups(bm))


def ambiguity_by_group(bm: BandMatrix, grouping: Mapping[str, str]) -> dict[str, ExactRatio]:
    """Disputable fraction within each instance group, keyed by group name.

    grouping must cover every fairness instance (extra ids are ignored, a
    missing one is an error).  Group names come back sorted.
    """
    ids = bm.fairness_index.ids
    missing = [instance_id for instance_id in ids if instance_id not in grouping]
    if missing:
        raise AnalysisError(
            f"group map does not cover instance {missing[0]!r} "
            f"({len(missing)} uncovered in total)"
        )
    totals: dict[str, int] = {}
    hits: dict[str, int] = {}
    for instance_id, disputed in zip(ids, bm.disputed.tolist()):
        group = grouping[instance_id]
        totals[group] = totals.get(group, 0) + 1
        if disputed:
            hits[group] = hits.get(group, 0) + 1
    return {
        group: ExactRatio(hits.get(group, 0), totals[group]) for group in sorted(totals)
    }


@dataclass(frozen=True)
class BandAnalysis:
    """Everything computed about one band, in native types."""

    matrix: BandMatrix
    unique_counts: tuple[int, ...]
    disputable: DisputableSet
    ambiguity: ExactRatio
    discrepancy: DiscrepancyStats
    ensemble: FairEnsembleReport
    group_ambiguity: dict[str, ExactRatio] | None
    refinement: tuple[PerformanceBand, ...] | None

    @property
    def band(self) -> PerformanceBand:
        return self.matrix.band


def analyse_band(
    band: PerformanceBand,
    runs: Sequence[ModelRun],
    labels: LabelVector,
    tie_break: Sequence[str] = (),
    cap: int = 500,
    seed: int = 0,
    grouping: Mapping[str, str] | None = None,
) -> BandAnalysis:
    """Every analysis of one band, from one matrix; tie_break refines it first."""
    bm = band_matrix(band, runs)
    refinement = refine_lexicographic(bm, labels, tie_break) if tie_break else None
    return BandAnalysis(
        matrix=bm,
        unique_counts=unique_vector_counts(bm),
        disputable=disputable_instances(bm),
        ambiguity=ambiguity(bm),
        discrepancy=discrepancy(bm, cap=cap, seed=seed),
        ensemble=fair_ensemble(bm, labels),
        group_ambiguity=ambiguity_by_group(bm, grouping) if grouping else None,
        refinement=refinement,
    )
