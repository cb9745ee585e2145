"""Command-line interface.

Subcommands: audit, profile, fair-model, zoo, compare.  Exit codes are part
of the contract: 0 on success, 2 when inputs fail validation (files,
manifest, arguments) or an output cannot be written, 3 when an analysis
cannot be computed.  Every subcommand that reads a manifest validates all of
its input files, but runs only the stages whose results it prints, so it
exits 3 only for those.  Only the zoo subcommand imports multimax.zoo, so
the others load none of its generators.  The MULTIMAX_SEED environment
variable overrides the manifest seed everywhere, so a recorded report can be
reproduced without editing files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .banding import BandingPolicy, partition
from .errors import MultimaxError, ValidationError
from .fairness import band_matrix, disputable_instances, ensemble_predictions, fair_ensemble
from .ingest import (
    AuditManifest,
    ensemble_csv,
    integer,
    labels_csv,
    load_manifest,
    manifest_text,
    predictions_csv,
    write_text_atomic,
)
from .profiles import multiplicity_panel
from .report import (
    analyse_bands,
    audit,
    compare_policies,
    comparison_payload,
    default_comparison_policies,
    emit_json,
    load_inputs,
    ratio_payload,
    top_band_profile,
)

SEED_ENV = "MULTIMAX_SEED"
# sorted(zoo.SCENARIOS), spelled out so that no other command imports the zoo
ZOO_SCENARIOS = (
    "borderline-linear",
    "constrained-knn",
    "ensemble-cost",
    "paired-knn",
    "polynomial",
    "separable-linear",
    "stump",
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTE = 3


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return None
    try:
        return integer(raw)
    except ValueError:
        raise ValidationError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _load(args: argparse.Namespace) -> AuditManifest:
    """The manifest with the effective seed; a bad MULTIMAX_SEED fails here."""
    manifest = load_manifest(Path(args.manifest))
    seed = _env_seed()
    return manifest if seed is None else replace(manifest, seed=seed)


def _cmd_audit(args: argparse.Namespace) -> int:
    outcome, written = audit(args.manifest, args.out, seed_override=_env_seed())
    top = outcome.analyses[0]
    print(f"policy: {outcome.payload['policy']}  runs: {outcome.payload['counts']['runs']}")
    print(f"bands: {len(outcome.banding.bands)}  (partition: {outcome.banding.is_partition})")
    print(
        f"top band {top.band.label}: {top.band.run_count} runs, "
        f"ambiguity {top.ambiguity} ({top.ambiguity.display()})"
    )
    for name in sorted(written):
        print(f"wrote {written[name]}")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> int:
    manifest = _load(args)
    labels, runs, grouping = load_inputs(manifest)
    banding = partition(runs, manifest.policy)
    if args.kind == "multiplicity_panel":
        render = multiplicity_panel(analyse_bands(manifest, banding, labels, runs, grouping))
    else:
        top = [band_matrix(band, runs) for band in banding.bands[: manifest.profile_top_n]]
        render = top_band_profile(args.kind, manifest, top)
    out = Path(args.out)
    sidecar = out.parent / (out.stem + ".sidecar.json")
    write_text_atomic({out: render.svg, sidecar: emit_json(render.sidecar)})
    print(f"wrote {out}")
    print(f"wrote {sidecar}")
    return EXIT_OK


def _cmd_fair_model(args: argparse.Namespace) -> int:
    manifest = _load(args)
    labels, runs, _ = load_inputs(manifest)
    banding = partition(runs, manifest.policy)
    try:
        band = banding.band(args.band)
    except KeyError:
        known = ", ".join(b.label for b in banding)
        raise ValidationError(f"no band labelled {args.band!r}; bands: {known}") from None
    bm = band_matrix(band, runs)
    ensemble = fair_ensemble(bm, labels)
    payload = {
        "kind": "fair_model",
        "band": band.label,
        "run_count": band.run_count,
        "accuracy": ratio_payload(ensemble.accuracy),
        "recall": ratio_payload(ensemble.recall),
        "specificity": ratio_payload(ensemble.specificity),
        "resolved_disputes": disputable_instances(bm).size,
    }
    out_dir = Path(args.out)
    files = {
        out_dir / "fair_model.json": emit_json(payload),
        out_dir / "fair_model_validation.csv": ensemble_csv(ensemble.preds),
    }
    if manifest.fairness_predictions_path is not None:
        files[out_dir / "fair_model_fairness.csv"] = ensemble_csv(ensemble_predictions(bm.fairness, bm.fairness_index))
    write_text_atomic(files)
    print(f"band {band.label}: accuracy {ensemble.accuracy}, recall {ensemble.recall}, specificity {ensemble.specificity}")
    print(f"wrote {out_dir / 'fair_model.json'}")
    return EXIT_OK


def _cmd_zoo(args: argparse.Namespace) -> int:
    from .zoo import build_scenario

    seed = _env_seed()
    if seed is None:
        seed = args.seed
    if seed < 0:
        raise ValidationError(f"zoo seed must be non-negative, got {seed}")
    try:
        BandingPolicy.parse(args.banding, args.tie_break)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    scenario = build_scenario(args.scenario, seed=seed)
    entries = {
        "labels": "labels.csv",
        "predictions": "predictions.csv",
        "favourable_label": "1",
        "band": args.banding,
        "seed": str(seed),
        "provenance.family": scenario.family.kind,
        "provenance.scenario": scenario.name,
    }
    if args.tie_break:
        entries["tie_break"] = args.tie_break
    if scenario.fairness is not None:
        entries["fairness_predictions"] = "fairness_predictions.csv"
    # the refusals (policy, manifest) come first and every file is built before
    # any is written, so a refusal or a failure before the renames changes nothing
    manifest = manifest_text(entries)
    out_dir = Path(args.out)
    files = {
        out_dir / "labels.csv": labels_csv(scenario.validation.labels),
        out_dir / "predictions.csv": predictions_csv((r.run_id, r.preds_validation) for r in scenario.runs),
        out_dir / "manifest.txt": manifest,
    }
    if scenario.fairness is not None:
        files[out_dir / "fairness_predictions.csv"] = predictions_csv((r.run_id, r.preds_fairness) for r in scenario.runs)
    write_text_atomic(files)
    print(f"scenario {scenario.name}: {scenario.notes}")
    print(f"{len(scenario.runs)} runs over {scenario.validation.size} validation instances")
    for path in files:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    manifest = _load(args)
    _, runs, _ = load_inputs(manifest)
    if args.policies:
        try:
            policies = tuple(BandingPolicy.parse(text) for text in args.policies)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
    else:
        policies = default_comparison_policies(manifest.policy)
    rows = compare_policies(runs, policies)
    header = ("policy", "bands", "top_band", "top_runs", "top_ambiguity")
    table = [header]
    for row in rows:
        table.append(
            (
                row.policy,
                str(row.band_count),
                row.top_band_label,
                str(row.top_band_run_count),
                f"{row.top_band_ambiguity} ({row.top_band_ambiguity.display()})",
            )
        )
    widths = [max(len(line[col]) for line in table) for col in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    if args.out:
        payload = {"kind": "policy_comparison", "rows": comparison_payload(rows)}
        out = Path(args.out)
        write_text_atomic({out: emit_json(payload)})
        print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimax",
        description="Audit individual fairness across equally-performing model runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="run a full audit from a manifest")
    p_audit.add_argument("--manifest", required=True, help="path to the audit manifest")
    p_audit.add_argument("--out", required=True, help="output directory for report and profiles")
    p_audit.set_defaults(func=_cmd_audit)

    p_profile = sub.add_parser("profile", help="render one profile from a manifest")
    p_profile.add_argument("--manifest", required=True)
    p_profile.add_argument(
        "--kind",
        choices=("stability_profile", "fairness_profile", "multiplicity_panel"),
        default="stability_profile",
    )
    p_profile.add_argument("--out", required=True, help="output SVG path")
    p_profile.set_defaults(func=_cmd_profile)

    p_fair = sub.add_parser("fair-model", help="materialise a band's fair ensemble")
    p_fair.add_argument("--manifest", required=True)
    p_fair.add_argument("--band", required=True, help="band label, as shown by audit")
    p_fair.add_argument("--out", required=True, help="output directory")
    p_fair.set_defaults(func=_cmd_fair_model)

    p_zoo = sub.add_parser("zoo", help="generate a synthetic scenario as audit inputs")
    p_zoo.add_argument("--scenario", required=True, choices=ZOO_SCENARIOS)
    p_zoo.add_argument("--seed", type=integer, default=0)
    p_zoo.add_argument("--out", required=True, help="output directory")
    p_zoo.add_argument("--banding", default="strict", help="band policy to write into the manifest")
    p_zoo.add_argument(
        "--tie-break",
        dest="tie_break",
        default="",
        help="comma-separated tie-break metrics for the manifest",
    )
    p_zoo.set_defaults(func=_cmd_zoo)

    p_compare = sub.add_parser("compare", help="band counts under alternative policies")
    p_compare.add_argument("--manifest", required=True)
    p_compare.add_argument(
        "--policies",
        nargs="*",
        default=None,
        help="policies to compare (default: manifest policy, strict, round:3, round:2)",
    )
    p_compare.add_argument("--out", default=None, help="optional JSON output path")
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        # inputs turn read failures into ValidationError, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MultimaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
