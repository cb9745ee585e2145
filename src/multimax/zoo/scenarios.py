"""Ready-made zoo scenarios with behaviour that is known by construction.

Each builder returns a Scenario: datasets, the family spec, and the already
enumerated runs.  The geometries are engineered so the interesting
quantities (band sizes, disputable counts, ensemble costs) are exact
integers, which makes the scenarios equally useful as CLI demos and as test
fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..core import InstanceIndex, LabelVector, ModelRun
from ..errors import AnalysisError
from .classifiers import line_params
from .datasets import Box, Dataset2D, DatasetSpec, PointSet, generate_dataset, grid_point_set
from .families import FamilySpec, enumerate_family

# opposite-label pairs in the paired-knn lattice, ten to a row
PAIRS = 50
# neighbours voting in constrained-knn
KNN_K = 42


@dataclass(frozen=True)
class Scenario:
    """Datasets plus an enumerated family, ready for banding and audits."""

    name: str
    validation: Dataset2D
    fairness: PointSet | None
    family: FamilySpec
    runs: tuple[ModelRun, ...]
    notes: str = ""


def separable_linear(seed: int = 0) -> Scenario:
    """Nine perfect vertical separators on margin-separated data.

    Every line threads the empty margin strip, so all runs share utility 1
    and the only disagreement lives between the outermost lines.  The
    fairness set is an unlabelled 20x20 grid, denser than the labelled data.
    """
    spec = DatasetSpec(mode="halfplanes", margin=1.0)
    data = generate_dataset(spec, n_per_class=60, seed=seed)
    offsets = [-0.8 + 0.2 * i for i in range(9)]
    family = FamilySpec(kind="linear", lines=tuple((0.0, o) for o in offsets))
    fairness = grid_point_set(data.domain_box, per_side=20)
    runs = enumerate_family(family, data, fairness=fairness)
    return Scenario(
        name="separable-linear",
        validation=data,
        fairness=fairness,
        family=family,
        runs=runs,
        notes="perfect-utility band whose members disagree on a vertical strip",
    )


def borderline_linear(seed: int = 0) -> Scenario:
    """Three vertical separators splitting four borderline points 2+2.

    The blobs are far from the thresholds, so each of the three interesting
    lines misclassifies exactly two of the four hand-placed borderline
    points, landing all three in one 98/100 band with distinct error
    profiles.  Two far-out verticals and a horizontal line tag along in
    lower bands.
    """
    spec = DatasetSpec(
        mode="blobs",
        favourable_center=(4.0, 0.0),
        unfavourable_center=(-4.0, 0.0),
        std=0.5,
        borderline_favourable=((0.6, 2.0), (0.0, -2.0)),
        borderline_unfavourable=((0.0, 2.0), (0.6, -2.0)),
    )
    data = generate_dataset(spec, n_per_class=50, seed=seed)
    family = FamilySpec(
        kind="linear",
        lines=(
            (0.0, 1.5),
            (0.0, 0.3),
            (0.0, -1.5),
            (0.0, 4.8),
            (0.0, -4.8),
            (math.pi / 2, 0.0),
        ),
    )
    runs = enumerate_family(family, data)
    return Scenario(
        name="borderline-linear",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes="one top band, three members, four disputable borderline points",
    )


def ensemble_cost(seed: int = 0) -> Scenario:
    """Three one-mistake halfplanes whose max-ensemble makes two mistakes.

    Each member errs on a different single borderline point (two false
    positives and one false negative available in total), so the ensemble
    collects both false positives: favourable outcomes are never withdrawn,
    and the accuracy cost is exactly one instance.
    """
    spec = DatasetSpec(
        mode="blobs",
        favourable_center=(4.5, 0.0),
        unfavourable_center=(-4.5, 0.0),
        std=0.4,
        borderline_favourable=((0.0, 0.0),),
        borderline_unfavourable=((1.0, 3.0), (1.0, -3.0)),
    )
    data = generate_dataset(spec, n_per_class=50, seed=seed)
    family = FamilySpec(
        kind="linear",
        lines=(
            line_params(1.0, 0.6, 0.3),
            line_params(1.0, -0.6, 0.3),
            line_params(1.0, 0.0, -2.0),
        ),
    )
    runs = enumerate_family(family, data)
    return Scenario(
        name="ensemble-cost",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes="99/100 band of three; the fair ensemble pays one accuracy point",
    )


def paired_knn(seed: int = 0) -> Scenario:
    """Leave-one-out 1-NN on PAIRS isolated opposite-label pairs.

    Every left-out point is claimed by its partner, so each of the 2*PAIRS
    leave-one-out runs makes exactly one mistake and together they can flip
    any instance either way: the loo band is fully expressive.  The lattice
    is fixed, so seed changes nothing.
    """
    cols = 10
    fav = []
    unf = []
    for p in range(PAIRS):
        cx = -18.0 + 4.0 * (p % cols)
        cy = -8.0 + 4.0 * (p // cols)
        fav.append((cx, cy + 0.3))
        unf.append((cx, cy - 0.3))
    box: Box = ((-20.0, 20.0), (-10.0, 10.0))
    ids = [f"f{i:03d}" for i in range(PAIRS)] + [f"u{i:03d}" for i in range(PAIRS)]
    index = InstanceIndex(tuple(ids))
    data = Dataset2D(
        points=PointSet(index=index, points=tuple(fav + unf)),
        labels=LabelVector(index, tuple([1] * PAIRS + [0] * PAIRS)),
        domain_box=box,
    )
    family = FamilySpec(kind="knn", k=1)
    runs = enumerate_family(family, data, dedupe=False)
    return Scenario(
        name="paired-knn",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes=f"{PAIRS // cols}x{cols} pair lattice; the leave-one-out band is fully expressive",
    )


def constrained_knn(seed: int = 0) -> Scenario:
    """Heavily smoothed k-NN (k = KNN_K) on two tight blobs: nothing can be flipped.

    With k comparable to the class sizes (50 each) every candidate predicts
    the local majority, so all runs agree everywhere and the band has no
    disputable instance.
    """
    spec = DatasetSpec(mode="blobs", std=0.5)
    data = generate_dataset(spec, n_per_class=50, seed=seed)
    family = FamilySpec(kind="knn", k=KNN_K)
    runs = enumerate_family(family, data, dedupe=False)
    return Scenario(
        name="constrained-knn",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes="strongly constrained family; individual outcomes are undisputed",
    )


def stump(seed: int = 0) -> Scenario:
    """Two perfect decision stumps bracketing the margin strip.

    Both stumps classify the halfplane data perfectly; their disputable
    region is the exact vertical strip between the two thresholds, which
    makes grid estimates easy to check against closed-form areas.
    """
    spec = DatasetSpec(mode="halfplanes", margin=1.0)
    data = generate_dataset(spec, n_per_class=60, seed=seed)
    family = FamilySpec(kind="tree", thresholds=(-0.5, 0.5))
    runs = enumerate_family(family, data)
    return Scenario(
        name="stump",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes="perfect stump pair; disputable region is one rectangular strip",
    )


def polynomial(seed: int = 0) -> Scenario:
    """A fitted quadratic boundary and eleven noisy coefficient variants."""
    spec = DatasetSpec(mode="halfplanes", margin=1.0)
    data = generate_dataset(spec, n_per_class=60, seed=seed)
    family = FamilySpec(kind="polynomial", degree=2, n_variants=11, scale=0.08, seed=seed)
    runs = enumerate_family(family, data)
    return Scenario(
        name="polynomial",
        validation=data,
        fairness=None,
        family=family,
        runs=runs,
        notes="perturbed polynomial fits spread across nearby utility levels",
    )


SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "separable-linear": separable_linear,
    "borderline-linear": borderline_linear,
    "ensemble-cost": ensemble_cost,
    "paired-knn": paired_knn,
    "constrained-knn": constrained_knn,
    "stump": stump,
    "polynomial": polynomial,
}


def build_scenario(name: str, seed: int = 0) -> Scenario:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise AnalysisError(f"unknown scenario {name!r}; known scenarios: {known}")
    return SCENARIOS[name](seed)
