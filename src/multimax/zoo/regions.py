"""Where in the plane does a band disagree with itself?

The disputable region of a band is the set of points its member classifiers
do not unanimously classify.  It is estimated on a cell-centre grid over the
domain box: each cell contributes its centre point, and the estimate is the
exact fraction of cells whose centres are disputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..banding import PerformanceBand
from ..core import ExactRatio
from ..errors import AnalysisError
from .datasets import Box


def grid_centres(box: Box, resolution: int) -> np.ndarray:
    """Cell-centre coordinates of a resolution x resolution grid, row-major.

    Row i runs over x, column j over y: point i*resolution + j is the centre
    of cell (i, j).
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    (x_lo, x_hi), (y_lo, y_hi) = box
    xs = x_lo + (np.arange(resolution) + 0.5) * (x_hi - x_lo) / resolution
    ys = y_lo + (np.arange(resolution) + 0.5) * (y_hi - y_lo) / resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(eq=False)
class RegionEstimate:
    """Grid estimate of a band's disputable region.

    mask[i, j] is True when the centre of cell (i, j) is disputed; i indexes
    x and j indexes y, both ascending.
    """

    disputable_fraction: ExactRatio
    mask: np.ndarray


def estimate_disputable_region(
    band: PerformanceBand,
    classifiers: dict[str, object],
    domain_box: Box,
    resolution: int = 512,
) -> RegionEstimate:
    """Compare every band member on the grid and mark disagreement cells.

    classifiers maps run ids to objects with predict; every band member must
    be present.  The fraction is exact over resolution^2 cells.
    """
    if resolution < 2:
        raise AnalysisError("resolution must be at least 2")
    for run_id in band.run_ids:
        if run_id not in classifiers:
            raise AnalysisError(f"no classifier supplied for band member {run_id!r}")
    grid = grid_centres(domain_box, resolution)
    first = np.asarray(classifiers[band.run_ids[0]].predict(grid), dtype=np.uint8)
    disputed = np.zeros(len(grid), dtype=bool)
    for run_id in band.run_ids[1:]:
        preds = np.asarray(classifiers[run_id].predict(grid), dtype=np.uint8)
        disputed |= preds != first
    return RegionEstimate(
        disputable_fraction=ExactRatio(int(disputed.sum()), resolution * resolution),
        mask=disputed.reshape(resolution, resolution),
    )

