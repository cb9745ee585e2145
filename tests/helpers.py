"""Shared fixtures builders and independent oracles.

The oracles deliberately use different algorithms than the package (pure
python loops, Fraction remainders) so a bug in the implementation cannot
hide in a test that re-derives values the same way.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import replace
from fractions import Fraction

from multimax.banding import BandingPolicy, PerformanceBand
from multimax.core import (
    ExactRatio,
    InstanceIndex,
    LabelVector,
    ModelRun,
    PredictionVector,
    confusion_matrix,
    decimal_display,
    metric,
)
from multimax.errors import UndefinedMetricError, ValidationError
from multimax.fairness import MetricDeltas, band_matrix
from multimax.ingest import (
    GROUP_HEADER,
    LABEL_HEADER,
    PREDICTION_HEADER,
    labels_csv,
    manifest_text,
    predictions_csv,
    write_text_atomic,
)
from multimax.profiles import CELL_PX, prediction_fill
from multimax.report import _discrepancy_payload, ratio_payload, signed_payload


def make_index(n: int, prefix: str = "i") -> InstanceIndex:
    return InstanceIndex(tuple(f"{prefix}{k:04d}" for k in range(n)))


def run_from_bits(
    run_id: str,
    labels: LabelVector,
    bits,
    fairness_bits=None,
    fairness_index: InstanceIndex | None = None,
) -> ModelRun:
    preds = PredictionVector(labels.index, tuple(int(b) for b in bits))
    fair = None
    if fairness_bits is not None:
        fair = PredictionVector(
            fairness_index if fairness_index is not None else labels.index,
            tuple(int(b) for b in fairness_bits),
        )
    return ModelRun.from_predictions(
        run_id=run_id,
        preds_validation=preds,
        labels=labels,
        preds_fairness=fair,
    )


def whole_band(runs, label: str = "band") -> PerformanceBand:
    """All given runs as one band; epsilon is the first run's utility."""
    run_list = sorted(runs, key=lambda r: r.run_id)
    return PerformanceBand(
        label=label,
        run_ids=tuple(r.run_id for r in run_list),
        epsilon=run_list[0].utility,
        policy=BandingPolicy("strict"),
    )


def write_labels_csv(path, labels: LabelVector) -> None:
    write_text_atomic({path: labels_csv(labels)})


def write_predictions_csv(path, runs, fairness: bool = False) -> None:
    pairs = [(run.run_id, run.preds_fairness if fairness else run.preds_validation) for run in runs]
    write_text_atomic({path: predictions_csv(pairs)})


def write_manifest(path, entries) -> None:
    write_text_atomic({path: manifest_text(entries)})


def band_matrices(bands, runs):
    """One BandMatrix per band, in order."""
    return [band_matrix(band, runs) for band in bands]


def pyramid_runs():
    """36 runs over 12 distinct prediction vectors, all at accuracy 93/100.

    Vector j flips the 7 labels in window [7j, 7j+7), so the vectors are
    pairwise distinct and the group sizes are exactly the multiplicities.
    """
    idx = make_index(100)
    labels = LabelVector(idx, (1,) * 50 + (0,) * 50)
    multiplicities = (10, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1)
    runs = []
    serial = 0
    for j, mult in enumerate(multiplicities):
        bits = list(labels.values)
        for p in range(7 * j, 7 * j + 7):
            bits[p] ^= 1
        for _ in range(mult):
            runs.append(run_from_bits(f"r{serial:03d}", labels, bits))
            serial += 1
    return labels, runs, multiplicities


def two_band_runs():
    """Two 2-member bands plus a singleton and an identical pair.

    Utilities: 5/6 (disagreeing pair), 4/6 (disagreeing pair), 3/6 (single
    run), 1/6 (identical pair); disputable union {i0001, i0002, i0003}.
    """
    idx = make_index(6)
    labels = LabelVector(idx, (1, 1, 1, 0, 0, 0))
    runs = [
        run_from_bits("a1", labels, (1, 1, 0, 0, 0, 0)),
        run_from_bits("a2", labels, (1, 1, 1, 1, 0, 0)),
        run_from_bits("b1", labels, (1, 0, 0, 0, 0, 0)),
        run_from_bits("b2", labels, (1, 1, 0, 1, 0, 0)),
        run_from_bits("c1", labels, (0, 0, 0, 0, 0, 0)),
        run_from_bits("d1", labels, (1, 0, 0, 1, 1, 1)),
        run_from_bits("d2", labels, (1, 0, 0, 1, 1, 1)),
    ]
    return labels, runs


# ---------------------------------------------------------------- oracles

def oracle_round_key(num: int, den: int, digits: int) -> int:
    """Half-away-from-zero rounding via Fraction remainder comparison."""
    scaled = Fraction(num, den) * 10**digits
    floor = scaled.numerator // scaled.denominator
    return floor + 1 if scaled - floor >= Fraction(1, 2) else floor


def oracle_partition(runs, policy: BandingPolicy):
    """The bands partition should return, grouped run by run for each mode.

    Returns ((label, run_ids, (epsilon.num, epsilon.den), mode), ...) best
    first, and the is_partition flag.  Rounding goes through
    oracle_round_key, not round_scaled.
    """
    run_list = sorted(runs, key=lambda r: r.run_id)
    groups: dict = {}
    if policy.mode == "strict":
        for run in run_list:
            value = run.utility.as_fraction()
            groups.setdefault((f"{value.numerator}/{value.denominator}", value), []).append(run.run_id)
    elif policy.mode == "rounded":
        scale = 10**policy.digits
        for run in run_list:
            key = oracle_round_key(run.utility.num, run.utility.den, policy.digits)
            label = f"{key // scale}.{str(key % scale).rjust(policy.digits, '0')}"
            groups.setdefault((label, Fraction(key, scale)), []).append(run.run_id)
    else:
        # one band per distinct utility; anchors whose intervals clip to the
        # same [lo, hi] share the band of the best of them
        anchors = sorted({run.utility.as_fraction() for run in run_list}, reverse=True)
        seen = set()
        for anchor in anchors:
            lo, hi = max(Fraction(0), anchor - policy.delta), min(Fraction(1), anchor + policy.delta)
            if (lo, hi) not in seen:
                seen.add((lo, hi))
                members = [r.run_id for r in run_list if lo <= r.utility.as_fraction() <= hi]
                groups[(f"[{lo}, {hi}]", anchor)] = members
    bands = []
    for (label, epsilon), members in sorted(groups.items(), key=lambda item: item[0][1], reverse=True):
        if policy.mode == "rounded":
            written = (int(epsilon * scale), scale)
        else:
            written = (epsilon.numerator, epsilon.denominator)
        bands.append((label, tuple(sorted(members)), written, policy.mode))
    memberships = [rid for band in bands for rid in band[1]]
    is_partition = sorted(memberships) == [r.run_id for r in run_list]
    return tuple(bands), is_partition


def oracle_confusion(preds, labels) -> tuple[int, int, int, int]:
    """(tp, fn, fp, tn) by item-by-item comparison."""
    tp = fn = fp = tn = 0
    for p, y in zip(preds, labels):
        if y == 1 and p == 1:
            tp += 1
        elif y == 1:
            fn += 1
        elif p == 1:
            fp += 1
        else:
            tn += 1
    return tp, fn, fp, tn


def oracle_disputable(vectors: dict[str, tuple[int, ...]], ids) -> list[str]:
    """Instance ids where any two prediction vectors differ."""
    rows = list(vectors.values())
    out = []
    for pos, instance_id in enumerate(ids):
        column = {row[pos] for row in rows}
        if len(column) > 1:
            out.append(instance_id)
    return out


def oracle_individually_fair(run_id: str, vectors: dict[str, tuple[int, ...]]) -> bool:
    """True when no other member's vector differs from run_id's on any instance."""
    mine = vectors[run_id]
    return all(theirs == mine for theirs in vectors.values())


def oracle_pair_fractions(vectors: dict[str, tuple[int, ...]]) -> list[Fraction]:
    """Disagreement fractions over all pairs in sorted-id order."""
    out = []
    for a, b in itertools.combinations(sorted(vectors), 2):
        va, vb = vectors[a], vectors[b]
        disagreements = sum(1 for x, y in zip(va, vb) if x != y)
        out.append(Fraction(disagreements, len(va)))
    return out


def oracle_max_ensemble(vectors: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    rows = list(vectors.values())
    return tuple(max(row[pos] for row in rows) for pos in range(len(rows[0])))


def oracle_fair_ensemble(band, runs, labels):
    """Ensemble (accuracy, recall, specificity) and member deltas, one confusion matrix per run."""
    lookup = {run.run_id: run for run in runs}
    vectors = {run_id: tuple(lookup[run_id].preds_validation.values.tolist()) for run_id in band.run_ids}
    star = PredictionVector(labels.index, oracle_max_ensemble(vectors))
    kinds = ("accuracy", "recall", "specificity")
    star_metrics = {kind: metric(confusion_matrix(star, labels), kind) for kind in kinds}
    deltas = {}
    for run_id in band.run_ids:
        cm = confusion_matrix(lookup[run_id].preds_validation, labels)
        deltas[run_id] = MetricDeltas(
            *(star_metrics[kind].as_fraction() - metric(cm, kind).as_fraction() for kind in kinds)
        )
    return tuple(star_metrics[kind] for kind in kinds), deltas


def oracle_band_payload(analysis):
    """A band's report entry built member by member and instance by instance.

    Every member gets its own three Fractions (from member_deltas) and its
    own signed_payload dicts, and every disputed instance its own vote list,
    counted cell by cell.  _band_payload shares equal sub-objects instead;
    the emitted bytes must not differ.
    """
    band, bm, ensemble = analysis.band, analysis.matrix, analysis.ensemble
    votes = {}
    for instance_id in analysis.disputable.instance_ids:
        column = bm.fairness[:, bm.fairness_index.position(instance_id)].tolist()
        favourable = sum(1 for value in column if value == 1)
        votes[instance_id] = (favourable, len(column) - favourable)
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
            "votes": {instance_id: list(vote) for instance_id, vote in votes.items()},
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


def oracle_refine_lexicographic(band, runs, labels, order):
    """Sub-bands by secondary metrics, from one run lookup and confusion matrix per member."""
    lookup = {run.run_id: run for run in runs}
    groups = {}
    for run_id in band.run_ids:
        cm = confusion_matrix(lookup[run_id].preds_validation, labels)
        values = []
        for kind in order:
            try:
                values.append(metric(cm, kind).as_fraction())
            except UndefinedMetricError as exc:
                raise UndefinedMetricError(f"run {run_id!r}: {exc}") from None
        groups.setdefault(tuple(values), []).append(run_id)
    sub_bands = []
    for key in sorted(groups, reverse=True):
        detail = ", ".join(
            f"{kind}={decimal_display(value.numerator, value.denominator)}"
            for kind, value in zip(order, key)
        )
        sub_bands.append(
            replace(band, label=f"{band.label} [{detail}]", run_ids=tuple(sorted(groups[key])))
        )
    return tuple(sub_bands)


# ------------------------------------------------------ fairness profile cells
# A prediction rect is CELL_PX - 1 wide and k * CELL_PX - 1 high: k equal
# cells of one column, stacked.  The legend's swatches are FONT_PX wide and
# the stability profile's segments carry a stroke, so neither matches.

CELL_RECT = re.compile(
    rf'<rect x="([-\d.]+)" y="([-\d.]+)" width="{CELL_PX - 1}\.00" '
    r'height="(\d+)\.00" fill="(#[0-9a-f]{6})"/>'
)


def cell_rects(svg: str) -> list[tuple[float, float, int, str]]:
    """(x, y, k, fill) of every prediction rect in document order; k counts its cells."""
    out = []
    for x, y, height, fill in CELL_RECT.findall(svg):
        k, rest = divmod(int(height) + 1, CELL_PX)
        if k and not rest:
            out.append((float(x), float(y), k, fill))
    return out


def cell_fills(svg: str) -> list[tuple[float, float, str]]:
    """(x, y, fill) of every prediction cell, each rect expanded into its k cells."""
    return [
        (x, y + j * CELL_PX, fill) for x, y, k, fill in cell_rects(svg) for j in range(k)
    ]


def oracle_fairness_cells(matrices, variant: str, columns) -> list[tuple[float, float, str]]:
    """(x, y, fill) of every cell of the fairness profile, one member and column at a time.

    The reference for the run-merging renderer: every member's prediction in
    every drawn column is its own cell, and the summary variant sorts each
    column in Python, favourable on top.  The layout is the profile's own:
    cells from x = 140 and y = 48, and 8 px between band blocks.
    """
    cells = []
    y = 48
    for pos, bm in enumerate(matrices):
        block = [
            [int(bm.fairness[r, bm.fairness_index.position(c)]) for c in columns]
            for r in range(len(bm.member_ids))
        ]
        if variant == "summary":
            by_column = [sorted(column, reverse=True) for column in zip(*block)]
            block = [list(row) for row in zip(*by_column)]
        fills = (prediction_fill(pos, False), prediction_fill(pos, True))
        for r, row in enumerate(block):
            for c, value in enumerate(row):
                cells.append((float(140 + c * CELL_PX), float(y + r * CELL_PX), fills[value]))
        y += len(block) * CELL_PX + 8
    return cells


# ------------------------------------------------------ bulk construction oracle
# One vector per row, built the way a single vector is, and a band's
# identical-vector groups ordered by a search for each group's first member:
# the package builds a prediction file's vectors from its matrix in one
# pass, and the groups with one stable sort.  (oracle_load_predictions
# below builds each run with ModelRun.from_predictions.)


def oracle_vector_rows(index, matrix):
    return [PredictionVector(index, row) for row in matrix]


def oracle_vector_groups(bm):
    member_ids = bm.member_ids
    groups: dict[bytes, list[str]] = {}
    for run_id, row in zip(member_ids, bm.fairness):
        groups.setdefault(row.tobytes(), []).append(run_id)
    ordered = sorted(groups.values(), key=lambda g: (-len(g), member_ids.index(g[0])))
    return tuple(tuple(sorted(g)) for g in ordered)


# ------------------------------------------------------------ ingest oracle
# Row-by-row CSV ingest: every row is validated in file order, one at a
# time.  The package validates in bulk and must agree with this on every
# file: the same runs and vectors, or the same message and line.  Rows are
# numbered by the physical line they start on.


def oracle_read_rows(path, header):
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", path=str(path)) from None
    with handle:
        reader = csv.reader(handle)
        rows = []
        start = 1
        for row in reader:
            rows.append((start, row))
            start = reader.line_num + 1
    if not rows:
        raise ValidationError("file is empty", path=str(path))
    got = [cell.strip() for cell in rows[0][1]]
    if got != header:
        raise ValidationError(
            f"expected header {','.join(header)!r}, got {','.join(got)!r}",
            path=str(path),
            line=1,
        )
    out = []
    for lineno, row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"expected {len(header)} fields, got {len(row)}", path=str(path), line=lineno
            )
        cells = [cell.strip() for cell in row]
        if any(not cell for cell in cells):
            raise ValidationError("empty field", path=str(path), line=lineno)
        out.append((lineno, cells))
    if not out:
        raise ValidationError("no data rows", path=str(path))
    return out


def oracle_read_labels(path, favourable_label):
    rows = oracle_read_rows(path, LABEL_HEADER)
    ids, raw, seen = [], [], set()
    for lineno, (instance_id, value) in rows:
        if instance_id in seen:
            raise ValidationError(
                f"duplicate instance id {instance_id!r}", path=str(path), line=lineno
            )
        seen.add(instance_id)
        ids.append(instance_id)
        raw.append(value)
    values = sorted(set(raw))
    if favourable_label not in values:
        raise ValidationError(
            f"favourable label {favourable_label!r} never occurs (values: {values})",
            path=str(path),
        )
    if len(values) > 2:
        raise ValidationError(
            f"labels must be binary; found {len(values)} distinct values {values}",
            path=str(path),
        )
    if len(values) == 1:
        raise ValidationError(
            f"labels must be binary; only {values[0]!r} occurs", path=str(path)
        )
    value_map = {value: 1 if value == favourable_label else 0 for value in values}
    index = InstanceIndex(tuple(ids))
    return LabelVector(index, tuple(value_map[v] for v in raw)), value_map


def oracle_read_prediction_table(path, value_map):
    rows = oracle_read_rows(path, PREDICTION_HEADER)
    run_order, per_run, instance_first_seen = [], {}, {}
    for lineno, (run_id, instance_id, value) in rows:
        if value not in value_map:
            raise ValidationError(
                f"prediction value {value!r} is not a label value "
                f"(expected one of {sorted(value_map)})",
                path=str(path),
                line=lineno,
            )
        bucket = per_run.get(run_id)
        if bucket is None:
            bucket = per_run[run_id] = {}
            run_order.append(run_id)
        if instance_id in bucket:
            raise ValidationError(
                f"duplicate prediction for run {run_id!r}, instance {instance_id!r}",
                path=str(path),
                line=lineno,
            )
        bucket[instance_id] = value_map[value]
        instance_first_seen.setdefault(instance_id, lineno)
    return run_order, per_run, instance_first_seen


def oracle_load_predictions(path, labels, value_map):
    run_order, per_run, _ = oracle_read_prediction_table(path, value_map)
    index = labels.index
    runs = []
    for run_id in run_order:
        bucket = per_run[run_id]
        unknown = [i for i in bucket if i not in index]
        if unknown:
            raise ValidationError(
                f"run {run_id!r} predicts unknown instance {unknown[0]!r}", path=str(path)
            )
        missing = [i for i in index.ids if i not in bucket]
        if missing:
            raise ValidationError(
                f"run {run_id!r} misses {len(missing)} instances "
                f"(first missing: {missing[0]!r})",
                path=str(path),
            )
        preds = PredictionVector(index, tuple(bucket[i] for i in index.ids))
        runs.append(
            ModelRun.from_predictions(run_id=run_id, preds_validation=preds, labels=labels)
        )
    return tuple(runs)


def oracle_load_fairness_predictions(path, value_map):
    run_order, per_run, first_seen = oracle_read_prediction_table(path, value_map)
    first_run = run_order[0]
    index = InstanceIndex(tuple(per_run[first_run].keys()))
    vectors = {}
    for run_id in run_order:
        bucket = per_run[run_id]
        extra = [i for i in bucket if i not in index]
        if extra:
            raise ValidationError(
                f"run {run_id!r} predicts instance {extra[0]!r} outside the fairness index "
                f"defined by run {first_run!r}",
                path=str(path),
                line=first_seen[extra[0]],
            )
        missing = [i for i in index.ids if i not in bucket]
        if missing:
            raise ValidationError(
                f"run {run_id!r} misses fairness instance {missing[0]!r} "
                f"({len(missing)} missing in total)",
                path=str(path),
            )
        vectors[run_id] = PredictionVector(index, tuple(bucket[i] for i in index.ids))
    return index, vectors


def oracle_read_group_map(path):
    rows = oracle_read_rows(path, GROUP_HEADER)
    out = {}
    for lineno, (instance_id, group) in rows:
        if instance_id in out:
            raise ValidationError(
                f"duplicate group assignment for {instance_id!r}", path=str(path), line=lineno
            )
        out[instance_id] = group
    return out
