"""Span tracing of multimax's public functions, from outside the package.

Tracer.install() swaps each public function listed in TRACED for a wrapper
in every loaded multimax module that refers to it, so calls made inside the
package are seen too; uninstall() puts the originals back.  A span records
its name, start, end, parent span and op id, plus counts taken from the
call's arguments and result.  Spans stay in memory until the run ends.
per_layer_metrics() turns the spans of the traced ops into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name).  An attribute "Class.method" wraps a
# method; "Class.__init__" counts object construction.
TRACED = (
    ("ingest", "load_manifest", "ingest.load_manifest"),
    ("ingest", "read_labels", "ingest.read_labels"),
    ("ingest", "load_predictions", "ingest.load_predictions"),
    ("ingest", "load_fairness_predictions", "ingest.load_fairness_predictions"),
    ("ingest", "attach_fairness", "ingest.attach_fairness"),
    ("ingest", "read_group_map", "ingest.read_group_map"),
    ("core", "PredictionVector.__init__", "core.vector"),
    ("core", "LabelVector.__init__", "core.vector"),
    ("core", "ModelRun.from_predictions", "core.from_predictions"),
    ("banding", "partition", "banding.partition"),
    ("banding", "refine_lexicographic", "banding.refine_lexicographic"),
    ("fairness", "member_matrix", "fairness.member_matrix"),
    ("fairness", "disputable_instances", "fairness.disputable_instances"),
    ("fairness", "ambiguity", "fairness.ambiguity"),
    ("fairness", "discrepancy", "fairness.discrepancy"),
    ("fairness", "fair_ensemble", "fairness.fair_ensemble"),
    ("fairness", "ensemble_predictions", "fairness.ensemble_predictions"),
    ("fairness", "prediction_vector_groups", "fairness.prediction_vector_groups"),
    ("fairness", "unique_vector_counts", "fairness.unique_vector_counts"),
    ("fairness", "ambiguity_by_group", "fairness.ambiguity_by_group"),
    ("report", "audit", "report.audit"),
    ("report", "run_audit", "report.run_audit"),
    ("report", "compare_policies", "report.compare_policies"),
    ("report", "emit_json", "report.emit_json"),
    ("profiles", "stability_profile", "profiles.stability_profile"),
    ("profiles", "fairness_profile", "profiles.fairness_profile"),
    ("profiles", "multiplicity_panel", "profiles.multiplicity_panel"),
    ("cli", "main", "cli.main"),
)

_START_TAG = re.compile(r"<[A-Za-z]")


PACKAGE = "multimax"


def _counts(name: str, result) -> dict:
    """Counts a span records, taken from the call's result."""
    if name == "ingest.read_labels":
        return {"rows": result[0].index.size}
    if name == "ingest.load_predictions":
        return {"rows": sum(run.preds_validation.index.size for run in result)}
    if name == "ingest.load_fairness_predictions":
        return {"rows": result[0].size * len(result[1])}
    if name == "ingest.read_group_map":
        return {"rows": len(result)}
    if name == "banding.partition":
        return {"bands": len(result.bands)}
    if name == "fairness.member_matrix":
        return {"bytes": int(result[1].nbytes)}
    if name == "fairness.discrepancy":
        return {"pairs": result.pair_count, "retained": result.sampled_runs, "total": result.total_runs}
    if name == "report.emit_json":
        return {"bytes": len(result.encode("utf-8"))}
    if name.startswith("profiles."):
        return {"svg_bytes": len(result.svg.encode("utf-8")), "elements": len(_START_TAG.findall(result.svg))}
    return {}


def _band_label(args: tuple) -> str | None:
    label = getattr(args[0], "label", None) if args else None
    return label if isinstance(label, str) else None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    band: str | None = None
    counts: dict = field(default_factory=dict)
    result: object = None  # held until the op ends, then reduced to counts

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans are recorded in one thread, so children never overlap and the
    part of the parent's interval they cover is the sum of their durations.
    """
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._counted = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op, _band_label(args))
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.result = result
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a multimax module names it."""
        for module_name, _, _ in TRACED:
            importlib.import_module(f"{PACKAGE}.{module_name}")
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, attribute, span_name in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, span_name))
                else:
                    replacement = self._wrap(original, span_name)
                self._patches.append((owner, method, original))
                setattr(owner, method, replacement)
                continue
            original = getattr(module, attribute)
            replacement = self._wrap(original, span_name)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, replacement)

    def uninstall(self) -> None:
        """Put the originals back and turn the held results into counts.

        Counting happens here, after the op, so it adds to no span's time.
        """
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()
        for span in self.spans[self._counted:]:
            if span.result is not None:
                span.counts = _counts(span.name, span.result)
                span.result = None
        self._counted = len(self.spans)

    def to_json(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                "self_s": selfs[i],
                **({"band": s.band} if s.band is not None else {}),
                **s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


# Spans whose results reach each CLI subcommand's output.  Everything else
# the command runs (the rest of the full audit) is thrown away.  The
# command's own self time (formatting, printing, writing) counts as useful.
def _useful(kind: str, span: Span, parent: Span | None, top_band: str) -> bool:
    if kind == "audit" or span.name.startswith("ingest."):
        return True
    if span.name == "report.emit_json":
        return parent is not None and parent.name == "cli.main"
    under_audit = parent is not None and parent.name == "report.run_audit"
    if kind == "compare":
        return span.name == "report.compare_policies"
    if kind == "fair-model":
        if span.name == "banding.partition":
            return under_audit
        if span.name in ("fairness.fair_ensemble", "fairness.disputable_instances"):
            return span.band == top_band
        return span.name == "fairness.ensemble_predictions"
    if kind == "profile":
        return (span.name == "banding.partition" and under_audit) or span.name == "profiles.stability_profile"
    raise ValueError(f"unknown op kind {kind!r}")


def useful_time(spans: list[Span], selfs: list[float], root: int, kind: str, top_band: str) -> float:
    """Time of one op whose results reach its output.

    Sums the durations of useful spans that have no useful ancestor, plus
    the root span's self time.  Spans must be in start order.
    """
    covered = {root: False}
    total = selfs[root]
    for i in range(root + 1, len(spans)):
        span = spans[i]
        if span.parent is None or span.parent not in covered:
            break
        parent = spans[span.parent]
        useful = not covered[span.parent] and _useful(kind, span, parent, top_band)
        covered[i] = covered[span.parent] or useful
        if useful:
            total += span.duration
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _totals(spans: list[Span]) -> tuple[Counter, Counter, Counter]:
    """Self time, counts and calls summed per span name and per layer ("<layer>.*")."""
    self_by, count_by, calls = Counter(), Counter(), Counter()
    for span, self_s in zip(spans, self_times(spans)):
        for key in (span.name, _layer(span.name) + ".*"):
            self_by[key] += self_s
            calls[key] += 1
            for count, value in span.counts.items():
                count_by[f"{key}:{count}"] += value
    return self_by, count_by, calls


def per_layer_metrics(spans: list[Span], op_kinds: dict[int, str], top_band: str) -> dict[str, float]:
    """Per-op means of the per-layer metrics over the traced ops.

    Times ending in _s are self times, except cli.<command>_s, which are the
    command's whole duration.  Counts are per op; ratios and shares are
    ratios of sums over all traced ops.
    """
    ops = len(op_kinds)
    self_by, count_by, calls = _totals(spans)
    selfs = self_times(spans)
    roots = [i for i, span in enumerate(spans) if span.parent is None and span.op in op_kinds]
    op_time = sum(spans[i].duration for i in roots)
    useful = sum(useful_time(spans, selfs, i, op_kinds[spans[i].op], top_band) for i in roots)
    commands = defaultdict(list)
    for i in roots:
        commands[op_kinds[spans[i].op]].append(spans[i].duration)
    ingest_time = sum(span.duration for span in spans if _layer(span.name) == "ingest")
    retained, total_runs = count_by["fairness.discrepancy:retained"], count_by["fairness.discrepancy:total"]

    def s(*names: str) -> float:
        return sum(self_by[n] for n in names) / ops

    def per_op(counter: Counter, key: str) -> float:
        return counter[key] / ops

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "ingest.self_s": s("ingest.*"),
        "ingest.rows": per_op(count_by, "ingest.*:rows"),
        "ingest.rows_per_s": count_by["ingest.*:rows"] / ingest_time if ingest_time else 0.0,
        "ingest.share": self_by["ingest.*"] / op_time,
        "core.vector_build_s": s("core.*"),
        "core.vectors_built": per_op(calls, "core.vector"),
        "banding.partition_s": s("banding.partition"),
        "banding.partition_calls": per_op(calls, "banding.partition"),
        "banding.bands": per_op(count_by, "banding.partition:bands"),
        "banding.refine_s": s("banding.refine_lexicographic"),
        "fairness.member_matrix_s": s("fairness.member_matrix"),
        "fairness.member_matrix_calls": per_op(calls, "fairness.member_matrix"),
        "fairness.member_matrix_bytes": per_op(count_by, "fairness.member_matrix:bytes"),
        "fairness.discrepancy_s": s("fairness.discrepancy"),
        "fairness.discrepancy_pairs": per_op(count_by, "fairness.discrepancy:pairs"),
        "fairness.discrepancy_retained_ratio": retained / total_runs if total_runs else 0.0,
        "fairness.disputable_s": s("fairness.disputable_instances"),
        "fairness.ambiguity_s": s("fairness.ambiguity"),
        "fairness.ensemble_s": s("fairness.fair_ensemble", "fairness.ensemble_predictions"),
        "fairness.unique_vectors_s": s("fairness.unique_vector_counts", "fairness.prediction_vector_groups"),
        "fairness.group_ambiguity_s": s("fairness.ambiguity_by_group"),
        "report.run_audit_self_s": s("report.run_audit"),
        "report.compare_policies_s": s("report.compare_policies"),
        "report.emit_json_s": s("report.emit_json"),
        "report.write_s": s("report.audit"),
        "report.report_bytes": per_op(count_by, "report.emit_json:bytes"),
        "profiles.stability_s": s("profiles.stability_profile"),
        "profiles.fairness_profile_s": s("profiles.fairness_profile"),
        "profiles.fairness_profile_bytes": per_op(count_by, "profiles.fairness_profile:svg_bytes"),
        "profiles.fairness_profile_elements": per_op(count_by, "profiles.fairness_profile:elements"),
        "profiles.multiplicity_panel_s": s("profiles.multiplicity_panel"),
        "profiles.svg_bytes": per_op(count_by, "profiles.*:svg_bytes"),
        "profiles.share": self_by["profiles.*"] / op_time,
        "cli.compare_s": mean(commands["compare"]),
        "cli.fair_model_s": mean(commands["fair-model"]),
        "cli.profile_s": mean(commands["profile"]),
        "cli.useful_ratio": useful / op_time,
    }


def layer_self_times(spans: list[Span], ops: int) -> dict[str, float]:
    """Self time per layer per op, for the run's summary."""
    self_by = _totals(spans)[0]
    return {key[:-2]: value / ops for key, value in sorted(self_by.items()) if key.endswith(".*")}
