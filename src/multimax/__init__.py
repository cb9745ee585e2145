"""Audit individual fairness across equally-performing model runs.

Models with identical aggregate performance can still disagree about
individuals.  This package ingests the crisp predictions of many runs,
groups them into performance bands, finds the instances whose outcome is
disputed within a band, quantifies the disagreement exactly, and builds the
fair ensemble that resolves every dispute in the individual's favour.
"""

from .banding import Banding, BandingPolicy, PerformanceBand, partition, refine_lexicographic
from .core import (
    ConfusionMatrix,
    ExactRatio,
    InstanceIndex,
    LabelVector,
    ModelRun,
    PredictionVector,
    confusion_matrix,
    metric,
)
from .errors import (
    AlignmentError,
    AnalysisError,
    InvariantViolation,
    MultimaxError,
    UndefinedMetricError,
    ValidationError,
)
from .fairness import (
    BandAnalysis,
    BandMatrix,
    DiscrepancyStats,
    DisputableSet,
    FairEnsembleReport,
    ambiguity,
    ambiguity_by_group,
    analyse_band,
    band_matrix,
    discrepancy,
    disputable_instances,
    ensemble_predictions,
    fair_ensemble,
    unique_vector_counts,
)
from .ingest import AuditManifest, load_manifest, load_predictions, read_labels
from .profiles import RenderedSvg, fairness_profile, multiplicity_panel, stability_profile
from .report import AuditOutcome, audit, compare_policies, emit_json, load_inputs, run_audit

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AnalysisError",
    "AuditManifest",
    "AuditOutcome",
    "BandAnalysis",
    "BandMatrix",
    "Banding",
    "BandingPolicy",
    "ConfusionMatrix",
    "DiscrepancyStats",
    "DisputableSet",
    "ExactRatio",
    "FairEnsembleReport",
    "InstanceIndex",
    "InvariantViolation",
    "LabelVector",
    "ModelRun",
    "MultimaxError",
    "PerformanceBand",
    "PredictionVector",
    "RenderedSvg",
    "UndefinedMetricError",
    "ValidationError",
    "ambiguity",
    "ambiguity_by_group",
    "analyse_band",
    "audit",
    "band_matrix",
    "compare_policies",
    "confusion_matrix",
    "discrepancy",
    "disputable_instances",
    "emit_json",
    "ensemble_predictions",
    "fair_ensemble",
    "fairness_profile",
    "load_inputs",
    "load_manifest",
    "load_predictions",
    "metric",
    "multiplicity_panel",
    "partition",
    "read_labels",
    "refine_lexicographic",
    "run_audit",
    "stability_profile",
    "unique_vector_counts",
]
