"""Synthetic 2-D playground: datasets, small classifier families, scenarios.

The zoo exists to manufacture run collections whose banding and fairness
behaviour is known by construction, both for tests and for end-to-end CLI
demos.  Classifiers here expose predict (and fit where they learn) and know
nothing about the audit types; enumeration wraps their outputs into ModelRuns.
"""

from .classifiers import (
    AxisAlignedTreeClassifier,
    HalfplaneClassifier,
    NearestNeighborsClassifier,
    PolynomialBoundaryClassifier,
    line_params,
)
from .datasets import Box, Dataset2D, DatasetSpec, PointSet, generate_dataset, grid_point_set
from .families import FamilySpec, enumerate_family
from .regions import RegionEstimate, estimate_disputable_region
from .scenarios import SCENARIOS, Scenario, build_scenario

__all__ = [
    "AxisAlignedTreeClassifier",
    "Box",
    "Dataset2D",
    "DatasetSpec",
    "FamilySpec",
    "HalfplaneClassifier",
    "NearestNeighborsClassifier",
    "PointSet",
    "PolynomialBoundaryClassifier",
    "RegionEstimate",
    "SCENARIOS",
    "Scenario",
    "build_scenario",
    "enumerate_family",
    "estimate_disputable_region",
    "generate_dataset",
    "grid_point_set",
    "line_params",
]
