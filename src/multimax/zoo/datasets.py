"""Synthetic 2-D point sets with binary labels.

Two generation modes: gaussian blobs (one per class, optionally with
hand-placed borderline points near the boundary) and margin-separated
halfplane data where class is decided by the sign of x with a guaranteed gap
around zero.  All sampling is rejection-bounded to the domain box so every
point is plottable and every grid cell comparison is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import InstanceIndex, LabelVector

Box = tuple[tuple[float, float], tuple[float, float]]

DEFAULT_BOX: Box = ((-6.0, 6.0), (-6.0, 6.0))


def _inside(point: Sequence[float], box: Box) -> bool:
    (x_lo, x_hi), (y_lo, y_hi) = box
    return x_lo <= point[0] <= x_hi and y_lo <= point[1] <= y_hi


@dataclass(frozen=True)
class PointSet:
    """Named 2-D points; the unlabelled half of a dataset."""

    index: InstanceIndex
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "points", tuple((float(x), float(y)) for x, y in self.points)
        )
        if len(self.points) != self.index.size:
            raise ValueError(
                f"{len(self.points)} points for an index of size {self.index.size}"
            )

    @property
    def size(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points, dtype=np.float64)


@dataclass(frozen=True)
class Dataset2D:
    """A labelled point set inside a rectangular domain."""

    points: PointSet
    labels: LabelVector
    domain_box: Box

    def __post_init__(self) -> None:
        if self.points.index != self.labels.index:
            raise ValueError("points and labels must share one instance index")
        (x_lo, x_hi), (y_lo, y_hi) = self.domain_box
        if not (x_lo < x_hi and y_lo < y_hi):
            raise ValueError(f"degenerate domain box {self.domain_box}")
        for point in self.points.points:
            if not _inside(point, self.domain_box):
                raise ValueError(f"point {point} lies outside the domain box")

    @property
    def index(self) -> InstanceIndex:
        return self.points.index

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for generate_dataset.

    mode "blobs" draws each class from an isotropic gaussian; mode
    "halfplanes" draws favourable points uniformly from x > margin and
    unfavourable ones from x < -margin.  Borderline points are placed
    verbatim and count towards n_per_class, so the interesting instances sit
    at known coordinates with known ids.  Every point lies in DEFAULT_BOX.
    """

    mode: str = "blobs"
    favourable_center: tuple[float, float] = (4.0, 0.0)
    unfavourable_center: tuple[float, float] = (-4.0, 0.0)
    std: float = 0.5
    margin: float = 1.0
    borderline_favourable: tuple[tuple[float, float], ...] = ()
    borderline_unfavourable: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("blobs", "halfplanes"):
            raise ValueError(f"unknown dataset mode {self.mode!r}")
        if self.mode == "blobs":
            if self.std == 0 and self.favourable_center == self.unfavourable_center:
                raise ValueError("degenerate blobs: zero spread around a shared center")
            # the sampler keeps only draws inside the box, and a spread far wider
            # than the box, one that is not finite (NaN fails every comparison)
            # or a centre outside it can leave it drawing forever
            (x_lo, x_hi), _ = DEFAULT_BOX
            if not 0 <= self.std <= x_hi - x_lo:
                raise ValueError(f"std must be between 0 and the box width {x_hi - x_lo}, got {self.std}")
            for center in (self.favourable_center, self.unfavourable_center):
                if not _inside(center, DEFAULT_BOX):
                    raise ValueError(f"blob center {center} lies outside the domain box")
        if self.mode == "halfplanes":
            (x_lo, x_hi), _ = DEFAULT_BOX
            if self.margin < 0:
                raise ValueError(f"margin must be non-negative, got {self.margin}")
            if not (x_lo < -self.margin and self.margin < x_hi):
                raise ValueError("margin leaves no room for either class inside the box")
        for point in self.borderline_favourable + self.borderline_unfavourable:
            if not _inside(point, DEFAULT_BOX):
                raise ValueError(f"borderline point {point} lies outside the domain box")


def _sample_blob(
    rng: np.random.Generator, center: tuple[float, float], std: float, count: int
) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    while len(out) < count:
        draws = rng.normal(loc=center, scale=std, size=(2 * (count - len(out)) + 8, 2))
        for point in draws:
            if _inside(point, DEFAULT_BOX):
                out.append((float(point[0]), float(point[1])))
                if len(out) == count:
                    break
    return out


def _sample_halfplane(
    rng: np.random.Generator, x_range: tuple[float, float], count: int
) -> list[tuple[float, float]]:
    _, (y_lo, y_hi) = DEFAULT_BOX
    xs = rng.uniform(x_range[0], x_range[1], size=count)
    ys = rng.uniform(y_lo, y_hi, size=count)
    return [(float(x), float(y)) for x, y in zip(xs, ys)]


def generate_dataset(spec: DatasetSpec, n_per_class: int, seed: int) -> Dataset2D:
    """Draw a balanced dataset per the spec; favourable ids f###, others u###.

    Within each class the randomly drawn points come first and the
    borderline points last, so the hand-placed instances have predictable
    ids.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be at least 1")
    if n_per_class > 999:
        raise ValueError("n_per_class above 999 breaks the fixed-width id scheme")
    for side, extras in (
        ("favourable", spec.borderline_favourable),
        ("unfavourable", spec.borderline_unfavourable),
    ):
        if len(extras) > n_per_class:
            raise ValueError(f"more {side} borderline points than n_per_class")
    rng = np.random.default_rng(seed)
    n_fav = n_per_class - len(spec.borderline_favourable)
    n_unf = n_per_class - len(spec.borderline_unfavourable)
    if spec.mode == "blobs":
        fav = _sample_blob(rng, spec.favourable_center, spec.std, n_fav)
        unf = _sample_blob(rng, spec.unfavourable_center, spec.std, n_unf)
    else:
        (x_lo, x_hi), _ = DEFAULT_BOX
        fav = _sample_halfplane(rng, (spec.margin, x_hi), n_fav)
        unf = _sample_halfplane(rng, (x_lo, -spec.margin), n_unf)
    fav += [(float(x), float(y)) for x, y in spec.borderline_favourable]
    unf += [(float(x), float(y)) for x, y in spec.borderline_unfavourable]
    ids = [f"f{i:03d}" for i in range(len(fav))] + [f"u{i:03d}" for i in range(len(unf))]
    index = InstanceIndex(tuple(ids))
    labels = LabelVector(index, tuple([1] * len(fav) + [0] * len(unf)))
    return Dataset2D(
        points=PointSet(index=index, points=tuple(fav + unf)),
        labels=labels,
        domain_box=DEFAULT_BOX,
    )


def grid_point_set(box: Box, per_side: int) -> PointSet:
    """Cell-centre grid over the box as an unlabelled point set, ids g000...

    Useful as a fairness set: dense, regular, and label-free.
    """
    if per_side < 1:
        raise ValueError("per_side must be at least 1")
    (x_lo, x_hi), (y_lo, y_hi) = box
    w = (x_hi - x_lo) / per_side
    h = (y_hi - y_lo) / per_side
    ids = []
    points = []
    digits = max(3, len(str(per_side * per_side - 1)))
    for i in range(per_side):
        for j in range(per_side):
            ids.append(f"g{i * per_side + j:0{digits}d}")
            points.append((x_lo + (i + 0.5) * w, y_lo + (j + 0.5) * h))
    return PointSet(index=InstanceIndex(tuple(ids)), points=tuple(points))
