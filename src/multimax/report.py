"""Audit stages and the versioned JSON report.

An audit runs in stages: load_inputs reads and validates every input file,
partition bands the runs, analyse_bands analyses each band from one matrix,
compare_policies re-bands under other policies, and the renderers draw from
the analyses.  run_audit composes all of them into one JSON-ready payload
in which every number appears both as an exact ratio string and as a rounded
decimal; the other CLI subcommands run only the stages they print.
Emission is canonical (sorted keys, fixed indentation, trailing newline), so
the same audit produces byte-identical reports and artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Mapping, Sequence

from .banding import Banding, BandingPolicy, partition
from .core import ExactRatio, LabelVector, ModelRun, decimal_display
from .errors import InvariantViolation
from .fairness import (
    BandAnalysis,
    BandMatrix,
    DiscrepancyStats,
    ambiguity,
    analyse_band,
    band_matrix,
)
from .ingest import (
    AuditManifest,
    attach_fairness,
    load_fairness_predictions,
    load_manifest,
    load_predictions,
    read_group_map,
    read_labels,
    write_text_atomic,
)
from .profiles import RenderedSvg, fairness_profile, multiplicity_panel, stability_profile

FORMAT_VERSION = "1"

REPORT_BASENAME = "report.json"
PROFILE_BASENAMES = ("stability_profile", "fairness_profile", "multiplicity_panel")


def ratio_payload(value: ExactRatio) -> dict:
    """A ratio as both exact text and fixed-precision decimal."""
    return {"ratio": str(value), "decimal": value.display()}


def signed_payload(value: Fraction) -> dict:
    """Like ratio_payload but for signed exact deltas."""
    sign = "-" if value.numerator < 0 else ""
    return {
        "ratio": f"{value.numerator}/{value.denominator}",
        "decimal": sign + decimal_display(abs(value.numerator), value.denominator),
    }


@dataclass(frozen=True)
class PolicyComparison:
    """One row of the policy comparison table."""

    policy: str
    band_count: int
    top_band_label: str
    top_band_run_count: int
    top_band_ambiguity: ExactRatio


@dataclass(frozen=True)
class AuditOutcome:
    """In-memory result of one audit: runs, bands, analyses, payload, renders."""

    runs: tuple[ModelRun, ...]
    banding: Banding
    analyses: tuple[BandAnalysis, ...]
    payload: dict
    renders: dict[str, RenderedSvg]


def load_inputs(
    manifest: AuditManifest,
) -> tuple[LabelVector, tuple[ModelRun, ...], dict[str, str] | None]:
    """Read and validate every input file the manifest names.

    Returns the labels, the runs with their fairness predictions attached,
    and the group map (None when the manifest names none).
    """
    labels, value_map = read_labels(manifest.labels_path, manifest.favourable_label)
    runs = load_predictions(manifest.predictions_path, labels, value_map)
    if manifest.fairness_predictions_path is not None:
        _, fairness_vectors = load_fairness_predictions(
            manifest.fairness_predictions_path, value_map
        )
        runs = attach_fairness(runs, fairness_vectors)
    grouping = read_group_map(manifest.group_map_path) if manifest.group_map_path else None
    return labels, runs, grouping


def analyse_bands(
    manifest: AuditManifest,
    banding: Banding,
    labels: LabelVector,
    runs: Sequence[ModelRun],
    grouping: Mapping[str, str] | None,
) -> tuple[BandAnalysis, ...]:
    """Every band's analysis under the manifest's tie-break, discrepancy cap and seed."""
    tie_break, cap, seed = manifest.policy.tie_break, manifest.discrepancy_cap, manifest.seed
    return tuple(analyse_band(band, runs, labels, tie_break, cap, seed, grouping) for band in banding)


def top_band_profile(kind: str, manifest: AuditManifest, top: Sequence[BandMatrix]) -> RenderedSvg:
    """The stability or fairness profile of the manifest's top bands."""
    if kind == "stability_profile":
        return stability_profile(top)
    return fairness_profile(
        top, manifest.profile_variant, manifest.profile_max_instances, manifest.seed
    )


def compare_policies(
    runs: Sequence[ModelRun], policies: Sequence[BandingPolicy]
) -> tuple[PolicyComparison, ...]:
    """Band counts and top-band ambiguity under each candidate policy."""
    rows = []
    for policy in policies:
        banding = partition(runs, policy)
        top = banding.top
        rows.append(
            PolicyComparison(
                policy=policy.describe(),
                band_count=len(banding.bands),
                top_band_label=top.label,
                top_band_run_count=top.run_count,
                top_band_ambiguity=ambiguity(band_matrix(top, runs)),
            )
        )
    return tuple(rows)


def comparison_payload(rows: Sequence[PolicyComparison]) -> list[dict]:
    """The policy comparison rows as they appear in the report and in compare --out."""
    return [
        {
            "policy": row.policy,
            "band_count": row.band_count,
            "top_band_label": row.top_band_label,
            "top_band_run_count": row.top_band_run_count,
            "top_band_ambiguity": ratio_payload(row.top_band_ambiguity),
        }
        for row in rows
    ]


def default_comparison_policies(policy: BandingPolicy) -> tuple[BandingPolicy, ...]:
    """The audited policy next to the standard strict/round:3/round:2 ladder."""
    candidates = [
        policy,
        BandingPolicy.parse("strict"),
        BandingPolicy.parse("round:3"),
        BandingPolicy.parse("round:2"),
    ]
    out: list[BandingPolicy] = []
    seen: set[str] = set()
    for candidate in candidates:
        text = candidate.describe()
        if text not in seen:
            seen.add(text)
            out.append(candidate)
    return tuple(out)


def _discrepancy_payload(stats: DiscrepancyStats) -> dict:
    mean = stats.mean_fraction
    return {
        "total_runs": stats.total_runs,
        "sampled_runs": stats.sampled_runs,
        "cap": stats.cap,
        "seed": stats.seed,
        "single_run": stats.single_run,
        "pair_count": stats.pair_count,
        "retained_run_ids": list(stats.run_ids),
        "fraction_counts": stats.fraction_counts(),
        "min": ratio_payload(stats.min_fraction) if stats.min_fraction is not None else None,
        "max": ratio_payload(stats.max_fraction) if stats.max_fraction is not None else None,
        "mean": signed_payload(mean) if mean is not None else None,
    }


def _band_payload(analysis: BandAnalysis) -> dict:
    band = analysis.band
    ensemble = analysis.ensemble
    return {
        "label": band.label,
        "mode": band.policy.mode,
        "epsilon": ratio_payload(band.epsilon),
        "run_ids": list(band.run_ids),
        "run_count": band.run_count,
        "unique_vector_counts": list(analysis.unique_counts),
        "ambiguity": ratio_payload(analysis.ambiguity),
        "disputable": {
            "count": analysis.disputable.size,
            "instance_ids": list(analysis.disputable.instance_ids),
            "votes": {
                instance_id: list(vote)
                for instance_id, vote in analysis.disputable.per_instance_vote.items()
            },
        },
        "discrepancy": _discrepancy_payload(analysis.discrepancy),
        "fair_ensemble": {
            "accuracy": ratio_payload(ensemble.accuracy),
            "recall": ratio_payload(ensemble.recall),
            "specificity": ratio_payload(ensemble.specificity),
            "member_deltas": {
                run_id: {
                    "accuracy": signed_payload(delta.accuracy),
                    "recall": signed_payload(delta.recall),
                    "specificity": signed_payload(delta.specificity),
                }
                for run_id, delta in ensemble.member_deltas.items()
            },
        },
        "group_ambiguity": {
            group: ratio_payload(value) for group, value in analysis.group_ambiguity.items()
        }
        if analysis.group_ambiguity is not None
        else None,
        "refinement": [
            {"label": sub.label, "run_ids": list(sub.run_ids)} for sub in analysis.refinement
        ]
        if analysis.refinement is not None
        else None,
    }


def validate_payload(payload: dict) -> None:
    """Cheap structural sanity check before anything is written to disk."""
    required = (
        "format_version",
        "kind",
        "seed",
        "policy",
        "counts",
        "baseline_accuracy",
        "bands",
        "policy_comparison",
        "is_partition",
    )
    for key in required:
        if key not in payload:
            raise InvariantViolation(f"report payload lacks required key {key!r}")
    if payload["format_version"] != FORMAT_VERSION:
        raise InvariantViolation(f"unexpected format_version {payload['format_version']!r}")
    if not payload["bands"]:
        raise InvariantViolation("report payload has no bands")


def emit_json(payload: dict) -> str:
    """Canonical serialisation: sorted keys, two-space indent, one newline.

    The bytes of json.dumps(payload, indent=2, sort_keys=True,
    ensure_ascii=False) + "\n", built without its pure-Python indenting
    encoder, which chains one generator per nesting level.  Strings, ints,
    floats, bools and None are leaves; lists, tuples and dicts with str keys
    nest.  Anything else, a non-str key or a subclass of a leaf type
    included, raises TypeError.
    """
    return _json_value(payload, "\n") + "\n"


def _json_float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


# the leaf types, by exact type: a subclass, such as numpy.float64, is refused
_JSON_LEAVES = {
    str: encode_basestring,
    int: int.__repr__,
    float: _json_float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_value(value, newline: str) -> str:
    """value as indented JSON; newline is a line break and the current indent.

    Plain loops: on Python 3.11 they beat a comprehension or map here.
    """
    inner = newline + "  "
    parts = []
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in sorted(value):
            item = value[key]
            leaf = _JSON_LEAVES.get(type(item))
            # encode_basestring raises TypeError for a key that is not a str
            parts.append(encode_basestring(key) + ": " + (leaf(item) if leaf else _json_value(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        for item in value:
            leaf = _JSON_LEAVES.get(type(item))
            parts.append(leaf(item) if leaf else _json_value(item, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    leaf = _JSON_LEAVES.get(type(value))
    if leaf is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return leaf(value)


def run_audit(manifest: AuditManifest, seed_override: int | None = None) -> AuditOutcome:
    """Execute the full audit described by the manifest, in memory.

    seed_override (the CLI wires MULTIMAX_SEED into it) replaces the
    manifest seed for every seeded choice; the effective seed is recorded in
    the report either way.
    """
    if seed_override is not None:
        manifest = replace(manifest, seed=seed_override)
    labels, runs, grouping = load_inputs(manifest)
    banding = partition(runs, manifest.policy)
    analyses = analyse_bands(manifest, banding, labels, runs, grouping)
    comparison = compare_policies(runs, default_comparison_policies(manifest.policy))
    top = [a.matrix for a in analyses[: manifest.profile_top_n]]
    renders = {
        kind: top_band_profile(kind, manifest, top)
        for kind in ("stability_profile", "fairness_profile")
    }
    renders["multiplicity_panel"] = multiplicity_panel(analyses)

    fairness_size = runs[0].preds_fairness.index.size
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "audit_report",
        "seed": manifest.seed,
        "policy": manifest.policy.describe(),
        "tie_break": list(manifest.policy.tie_break),
        "favourable_label": manifest.favourable_label,
        "provenance": dict(sorted(manifest.provenance.items())),
        "counts": {
            "runs": len(runs),
            "validation_instances": labels.index.size,
            "fairness_instances": fairness_size,
        },
        "baseline_accuracy": ratio_payload(ExactRatio(labels.positives, labels.index.size)),
        "is_partition": banding.is_partition,
        "bands": [_band_payload(analysis) for analysis in analyses],
        "policy_comparison": comparison_payload(comparison),
    }
    validate_payload(payload)
    return AuditOutcome(
        runs=runs, banding=banding, analyses=analyses, payload=payload, renders=renders
    )


def audit(
    manifest_path: Path, out_dir: Path, seed_override: int | None = None
) -> tuple[AuditOutcome, dict[str, Path]]:
    """File-level audit: load the manifest, run it, write every artefact.

    Writes report.json plus each profile as .svg with a .sidecar.json, all
    seven replaced together (see write_text_atomic), and returns the outcome
    together with the written paths.  An output that cannot be written
    raises OSError.
    """
    manifest = load_manifest(Path(manifest_path))
    outcome = run_audit(manifest, seed_override=seed_override)
    out_dir = Path(out_dir)
    written = {"report": out_dir / REPORT_BASENAME}
    texts = {written["report"]: emit_json(outcome.payload)}
    for name in PROFILE_BASENAMES:
        render = outcome.renders[name]
        written[name] = out_dir / f"{name}.svg"
        written[f"{name}.sidecar"] = out_dir / f"{name}.sidecar.json"
        texts[written[name]] = render.svg
        texts[written[f"{name}.sidecar"]] = emit_json(render.sidecar)
    write_text_atomic(texts)
    return outcome, written
