"""Enumerating classifier families over a shared dataset.

A family spec describes a finite candidate pool (explicit halfplanes,
perturbed polynomial fits, leave-one-out neighbour variants, fixed stumps).
Enumeration fits the pool on one labelled dataset, evaluates every candidate
on it (and on a separate fairness point set when given), wraps each into a
ModelRun with its recomputed utility, and optionally deduplicates candidates
that are indistinguishable on a dense behaviour grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..core import ModelRun, PredictionVector
from ..errors import AnalysisError
from .classifiers import (
    AxisAlignedTreeClassifier,
    HalfplaneClassifier,
    NearestNeighborsClassifier,
    PolynomialBoundaryClassifier,
)
from .datasets import Dataset2D, PointSet
from .regions import grid_centres

FAMILY_KINDS = ("linear", "polynomial", "knn", "tree")
# deduplication compares candidates on this many cell centres per side
GRID_RESOLUTION = 64


@dataclass(frozen=True)
class FamilySpec:
    """A finite, reproducible pool of same-kind classifiers.

    kind selects the classifier and which knobs matter:
      linear      lines, a tuple of (angle, offset) pairs
      polynomial  degree, n_variants perturbed refits at noise scale
      knn         k, the full fit plus one leave-one-out variant per point
      tree        thresholds, one stump on feature 0 (favourable above) each
    """

    kind: str
    lines: tuple[tuple[float, float], ...] = ()
    degree: int = 1
    n_variants: int = 0
    scale: float = 0.25
    k: int = 1
    thresholds: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")
        if self.kind == "linear" and not self.lines:
            raise ValueError("a linear family needs at least one (angle, offset) line")
        if self.kind == "polynomial":
            if self.degree < 1:
                raise ValueError("degree must be at least 1")
            if self.n_variants < 0 or self.scale < 0:
                raise ValueError("n_variants and scale must be non-negative")
        if self.kind == "knn" and self.k < 1:
            raise ValueError("k must be at least 1")
        if self.kind == "tree" and not self.thresholds:
            raise ValueError("a tree family needs at least one stump threshold")


def _candidates(spec: FamilySpec, data: Dataset2D) -> list[object]:
    if spec.kind == "linear":
        return [HalfplaneClassifier(angle, offset) for angle, offset in spec.lines]
    if spec.kind == "tree":
        return [AxisAlignedTreeClassifier.stump(0, t, above=1) for t in spec.thresholds]
    X = data.points.as_array()
    y = data.labels.values
    if spec.kind == "polynomial":
        base = PolynomialBoundaryClassifier(degree=spec.degree).fit(X, y)
        rng = np.random.default_rng(spec.seed)
        return [base] + [base.perturbed(rng, spec.scale) for _ in range(spec.n_variants)]
    base = NearestNeighborsClassifier(k=spec.k).fit(X, y)
    if len(X) - 1 < spec.k:
        raise AnalysisError(
            f"cannot drop a training point: k={spec.k} needs {spec.k} of {len(X)} points"
        )
    return [base] + [base.without_point(row) for row in range(len(X))]


def enumerate_family(
    spec: FamilySpec,
    data: Dataset2D,
    fairness: PointSet | None = None,
    dedupe: bool = True,
) -> tuple[ModelRun, ...]:
    """Fit the family's candidate pool on data and evaluate it into ModelRuns.

    data is both the training and the validation set.  Run ids are assigned
    in candidate order before deduplication, so a run keeps its id whether
    or not dedupe removes its behavioural twins.  Deduplication compares
    predictions on a GRID_RESOLUTION^2 cell-centre grid over the data's
    domain, keeping each signature's first candidate.
    """
    pool = _candidates(spec, data)
    val_X = data.points.as_array()
    fair_points = fairness if fairness is not None else data.points
    fair_X = fair_points.as_array()
    grid = grid_centres(data.domain_box, GRID_RESOLUTION) if dedupe else None
    runs: list[ModelRun] = []
    seen: set[bytes] = set()
    width = max(3, len(str(max(0, len(pool) - 1))))
    for i, classifier in enumerate(pool):
        if grid is not None:
            signature = classifier.predict(grid).tobytes()
            if signature in seen:
                continue
            seen.add(signature)
        preds_val = PredictionVector(data.index, classifier.predict(val_X))
        preds_fair = (
            preds_val
            if fairness is None
            else PredictionVector(fair_points.index, classifier.predict(fair_X))
        )
        run = ModelRun.from_predictions(
            run_id=f"{spec.kind}-{i:0{width}d}",
            preds_validation=preds_val,
            labels=data.labels,
            preds_fairness=preds_fair,
        )
        runs.append(run)
    return tuple(runs)

