"""File formats: label/prediction CSVs and the flat audit manifest.

Each CSV file is read once and validated in bulk.  A plain file (see plain: printable ASCII fields
without quotes, one line end throughout) is parsed with numpy one row-aligned chunk at a time, so its
working memory is bounded by one chunk; any other file is streamed once by the csv module, and an
undecodable byte or a csv fault anywhere in it is reported before any faulty row.  A plain prediction
file that is run-major, each run one block of the same instances, is reshaped into its matrix without a
sort; any other leaves the reshape at its first row out of that layout.  The bytes read are rescanned
row by row only to drop rows of blank cells or to reject the file at the physical line where its first
faulty row starts, so errors do not depend on the parser; an audit either ingests a file completely or
refuses it, with no partial acceptance.  Quoted fields are kept verbatim, embedded line breaks included.
Predictions arrive in long form (run_id, instance_id, prediction) using the same value vocabulary as the
label file, so the files stay greppable and diffable.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from . import plain
from .banding import BandingPolicy
from .core import ExactRatio, InstanceIndex, LabelVector, ModelRun, PredictionVector
from .errors import InvariantViolation, ValidationError

LABEL_HEADER = ["instance_id", "label"]
PREDICTION_HEADER = ["run_id", "instance_id", "prediction"]
GROUP_HEADER = ["instance_id", "group"]

MANIFEST_REQUIRED = ("labels", "predictions", "favourable_label", "band")
MANIFEST_OPTIONAL = (
    "fairness_predictions",
    "group_map",
    "tie_break",
    "discrepancy_cap",
    "seed",
    "profile_top_n",
    "profile_variant",
    "profile_max_instances",
)
PROVENANCE_PREFIX = "provenance."

_Column = tuple[list[str], np.ndarray]
"""A data column: its distinct cells in first-appearance order, and each row's position among them."""


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read file: {exc}", path=str(path)) from None


def _csv_reader(data: bytes) -> Iterator[list[str]]:
    """A csv reader over a file's bytes, decoded as they are parsed.

    With newline="" only LF, CR and CRLF end a line, as the csv module
    expects, so quoted fields keep every other separator, U+2028 included.
    """
    return csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))


def _not_utf8(path: Path, data: bytes) -> ValidationError:
    """The error for a file's bytes that do not decode as UTF-8, naming the first bad byte's line."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        return ValidationError(
            f"not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}",
            path=str(path),
            line=line,
        )
    raise InvariantViolation(f"{path}: a UTF-8 decode failed but the file decodes")


def _read_columns(path: Path, data: bytes, header: list[str], run_major: bool = False) -> list[_Column]:
    """A CSV file's data columns, cells stripped; a run-major plain file in plain._blocks' form if run_major."""
    return plain.columns(data, header, run_major) or [_encode(cells) for cells in _reader_columns(path, data, header)]


def _encode(cells: list[str]) -> _Column:
    """A column of cells as its distinct cells and each row's position among them."""
    positions = dict(zip(dict.fromkeys(cells), count()))  # in first-appearance order
    return list(positions), np.fromiter(map(positions.__getitem__, cells), dtype=np.intp, count=len(cells))


def _reader_columns(path: Path, data: bytes, header: list[str]) -> list[list[str]]:
    """Parse a CSV file's bytes with the csv module and return its data columns, cells stripped.

    One pass keeps the cells of rows with the header's field count and
    skips empty lines; any other row marks the file, and the pass reads on,
    so an undecodable byte or a csv fault anywhere is raised first.  Only a
    marked file, or one with an empty stripped cell, goes to _scan_rows.
    """
    width = len(header)
    reader = _csv_reader(data)
    flat: list[str] = []
    marked = False
    try:
        first = next(reader, None)
        if first is None:
            raise ValidationError("file is empty", path=str(path))
        got = [cell.strip() for cell in first]
        if got != header:
            message = f"expected header {','.join(header)!r}, got {','.join(got)!r}"
            raise ValidationError(message, path=str(path), line=1)
        for row in reader:
            if len(row) == width:
                flat += row
            elif row:
                marked = True
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    except csv.Error as exc:
        raise ValidationError(f"cannot parse CSV: {exc}", path=str(path), line=reader.line_num) from None
    columns = [list(map(str.strip, flat[k::width])) for k in range(width)]
    if marked or any("" in column for column in columns):
        rows = [cells for _, cells in _scan_rows(path, data, header)]
        columns = [[cells[k] for cells in rows] for k in range(width)]
    if not columns[0]:
        raise ValidationError("no data rows", path=str(path))
    return columns


def _scan_rows(path: Path, data: bytes, header: list[str]) -> list[tuple[int, list[str]]]:
    """Rescan a file's bytes row by row: each data row's start line and stripped cells.

    The only row-wise validator, run after a bulk check failed, to raise the
    first row with the wrong field count or an empty field; rows of blank
    cells are dropped.  A row is named by the physical line it starts on,
    also when quoted line breaks make it span several.
    """
    out = []
    reader = _csv_reader(data)
    next(reader)
    start = reader.line_num + 1
    for row in reader:
        line, start = start, reader.line_num + 1
        if not any(map(str.strip, row)):
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"expected {len(header)} fields, got {len(row)}", path=str(path), line=line
            )
        cells = [cell.strip() for cell in row]
        if not all(cells):
            raise ValidationError("empty field", path=str(path), line=line)
        out.append((line, cells))
    return out


def _no_fault_found(path: Path) -> InvariantViolation:
    return InvariantViolation(f"{path}: a bulk ingest check failed but the row scan found no fault")


def _raise_first_duplicate(path: Path, data: bytes, header: list[str], message: str) -> NoReturn:
    """Raise `message` (formatted with the id) at the first repeated id in column one."""
    seen: set[str] = set()
    for line, cells in _scan_rows(path, data, header):
        if cells[0] in seen:
            raise ValidationError(message.format(cells[0]), path=str(path), line=line)
        seen.add(cells[0])
    raise _no_fault_found(path)


def read_labels(path: Path, favourable_label: str) -> tuple[LabelVector, dict[str, int]]:
    """Load the label file; returns the labels and the value vocabulary.

    The file must use exactly two distinct label values, one of them the
    favourable label; instance order in the file defines the validation
    index.  The returned mapping sends each raw value to 0 or 1 and is the
    vocabulary prediction files must use.
    """
    data = _read_bytes(path)
    (ids, id_rows), (raw, raw_rows) = _read_columns(path, data, LABEL_HEADER)
    if len(ids) != len(id_rows):
        _raise_first_duplicate(path, data, LABEL_HEADER, "duplicate instance id {!r}")
    values = sorted(raw)
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
    bits = np.array([value_map[value] for value in raw], dtype=np.uint8)
    return LabelVector(InstanceIndex(tuple(ids)), bits[raw_rows]), value_map


def _prediction_matrix(
    path: Path, value_map: Mapping[str, int], index: InstanceIndex | None
) -> tuple[tuple[str, ...], InstanceIndex, np.ndarray]:
    """Parse a long-form prediction file into a runs x instances 0/1 matrix.

    Returns run ids in first-appearance order, the instance index and the
    read-only uint8 matrix whose rows follow the run ids, so the vectors
    built from its rows share it without a copy.  `index` is the validation
    index; None means a fairness file, whose index is the first run's
    instances in file order.  Every run must predict every index instance
    exactly once and nothing else: one bincount over the flat cell index
    finds duplicates, missing cells and unknown instances, which all send
    the file to _raise_prediction_fault.  A run-major file (see plain._blocks)
    needs no cell index: its value codes are the matrix, and it counts block 1.
    """
    data = _read_bytes(path)
    columns = _read_columns(path, data, PREDICTION_HEADER, run_major=True)
    (run_ids, rows), (instance_ids, instance_rows), (values, value_rows) = columns
    blocks = isinstance(rows, slice)  # plain._blocks' form
    if not all(value in value_map for value in values):
        _raise_prediction_fault(path, data, value_map, index)
    bits = np.array([value_map[value] for value in values], dtype=np.uint8)
    target = index
    if index is None:
        first_run = range(len(instance_ids)) if blocks else dict.fromkeys(instance_rows[rows == 0].tolist())
        target = InstanceIndex(tuple(map(instance_ids.__getitem__, first_run)))
    width = target.size + 1  # the last column collects instances outside the index
    positions = {instance_id: pos for pos, instance_id in enumerate(target.ids)}
    cols = np.array([positions.get(i, width - 1) for i in instance_ids], dtype=np.intp)[instance_rows]
    cells = cols if blocks else rows * width + cols  # each run of a run-major file repeats block 1
    counts = np.bincount(cells, minlength=width if blocks else len(run_ids) * width).reshape(-1, width)
    if counts[:, -1].any() or (counts[:, :-1] != 1).any():
        _raise_prediction_fault(path, data, value_map, index)
    matrix = np.empty((len(run_ids), target.size), dtype=np.uint8)
    matrix[rows, cols] = bits[value_rows]
    matrix.flags.writeable = False
    return tuple(run_ids), target, matrix


def _raise_prediction_fault(
    path: Path, data: bytes, value_map: Mapping[str, int], index: InstanceIndex | None
) -> NoReturn:
    """Rescan a prediction file that failed a bulk check and raise its first fault.

    Precedence is that of a row-by-row read: field errors anywhere in the
    file, then unknown values and duplicate cells in row order, then per
    run, in first-appearance order, an instance outside the index before
    missing instances.  `index` is as for _prediction_matrix.
    """
    per_run: dict[str, dict[str, None]] = {}
    first_seen: dict[str, int] = {}
    for line, (run_id, instance_id, value) in _scan_rows(path, data, PREDICTION_HEADER):
        if value not in value_map:
            raise ValidationError(
                f"prediction value {value!r} is not a label value "
                f"(expected one of {sorted(value_map)})",
                path=str(path),
                line=line,
            )
        bucket = per_run.setdefault(run_id, {})
        if instance_id in bucket:
            raise ValidationError(
                f"duplicate prediction for run {run_id!r}, instance {instance_id!r}",
                path=str(path),
                line=line,
            )
        bucket[instance_id] = None
        first_seen.setdefault(instance_id, line)
    first_run = next(iter(per_run))
    expected = per_run[first_run] if index is None else index
    for run_id, bucket in per_run.items():
        outside = [i for i in bucket if i not in expected]
        if outside and index is None:
            raise ValidationError(
                f"run {run_id!r} predicts instance {outside[0]!r} outside the fairness index "
                f"defined by run {first_run!r}",
                path=str(path),
                line=first_seen[outside[0]],
            )
        if outside:
            raise ValidationError(
                f"run {run_id!r} predicts unknown instance {outside[0]!r}", path=str(path)
            )
        missing = [i for i in expected if i not in bucket]
        if missing and index is None:
            raise ValidationError(
                f"run {run_id!r} misses fairness instance {missing[0]!r} "
                f"({len(missing)} missing in total)",
                path=str(path),
            )
        if missing:
            raise ValidationError(
                f"run {run_id!r} misses {len(missing)} instances "
                f"(first missing: {missing[0]!r})",
                path=str(path),
            )
    raise _no_fault_found(path)


def load_predictions(
    path: Path,
    labels: LabelVector,
    value_map: Mapping[str, int],
) -> tuple[ModelRun, ...]:
    """Load validation predictions as ModelRuns with recomputed utilities.

    Every run must predict every instance of the label index and nothing
    else.  Runs come back in first-appearance order.
    """
    run_ids, index, matrix = _prediction_matrix(path, value_map, labels.index)
    correct = (matrix == labels.values).sum(axis=1).tolist()  # each run's tp + tn
    return tuple(
        ModelRun(run_id, preds, preds, ExactRatio(right, index.size))
        for run_id, preds, right in zip(run_ids, PredictionVector.rows(index, matrix), correct)
    )


def load_fairness_predictions(
    path: Path, value_map: Mapping[str, int]
) -> tuple[InstanceIndex, dict[str, PredictionVector]]:
    """Load fairness-set predictions; the set needs no labels.

    The fairness index is the first run's instance order; every other run
    must cover exactly the same instances.
    """
    run_ids, index, matrix = _prediction_matrix(path, value_map, None)
    return index, dict(zip(run_ids, PredictionVector.rows(index, matrix)))


def attach_fairness(
    runs: Sequence[ModelRun], fairness: Mapping[str, PredictionVector]
) -> tuple[ModelRun, ...]:
    """Swap each run's fairness vector for the one loaded from file.

    The two run sets must match exactly; a fairness file for different runs
    is a wiring mistake, not something to heal silently.
    """
    run_ids = {run.run_id for run in runs}
    missing = sorted(run_ids - set(fairness))
    if missing:
        raise ValidationError(f"fairness predictions missing for run {missing[0]!r}")
    extra = sorted(set(fairness) - run_ids)
    if extra:
        raise ValidationError(f"fairness predictions for unknown run {extra[0]!r}")
    return tuple(
        ModelRun(
            run_id=run.run_id,
            preds_validation=run.preds_validation,
            preds_fairness=fairness[run.run_id],
            utility=run.utility,
        )
        for run in runs
    )


def read_group_map(path: Path) -> dict[str, str]:
    """instance_id -> group name; duplicates rejected."""
    data = _read_bytes(path)
    (ids, id_rows), (groups, group_rows) = _read_columns(path, data, GROUP_HEADER)
    if len(ids) != len(id_rows):
        _raise_first_duplicate(path, data, GROUP_HEADER, "duplicate group assignment for {!r}")
    return dict(zip(ids, map(groups.__getitem__, group_rows.tolist())))


@dataclass(frozen=True)
class AuditManifest:
    """Everything one audit needs, resolved from a flat key=value file."""

    labels_path: Path
    predictions_path: Path
    favourable_label: str
    policy: BandingPolicy
    fairness_predictions_path: Path | None = None
    group_map_path: Path | None = None
    discrepancy_cap: int = 500
    seed: int = 0
    profile_top_n: int = 8
    profile_variant: str = "summary"
    profile_max_instances: int = 250
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.discrepancy_cap < 2:
            raise ValidationError("discrepancy_cap must be at least 2")
        if self.profile_top_n < 1:
            raise ValidationError("profile_top_n must be at least 1")
        if self.profile_variant not in ("summary", "faithful"):
            raise ValidationError(f"unknown profile_variant {self.profile_variant!r}")
        if self.profile_max_instances < 1:
            raise ValidationError("profile_max_instances must be at least 1")


def integer(raw: str) -> int:
    """`raw` as an int if it is [+-]?[0-9]+: int() alone also reads other scripts' digits, "_" and padding."""
    if not re.fullmatch(r"[+-]?[0-9]+", raw):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _parse_int(raw: str, key: str, path: Path, line: int) -> int:
    try:
        return integer(raw)
    except ValueError:
        raise ValidationError(f"{key} must be an integer, got {raw!r}", path=str(path), line=line) from None


def load_manifest(path: Path) -> AuditManifest:
    """Parse the audit manifest: key=value lines, # comments, relative paths.

    Unknown and repeated keys are rejected (typos must not silently change
    an audit); provenance.* keys are free-form and echoed into the report.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
        # \r\n, \r and \n end a line, as for read_text; splitlines() would also
        # split on \u2028, \x0c, \x85 and the like, which a value may hold.
        lines = re.split(r"\r\n?|\n", data.decode("utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read manifest: {exc}", path=str(path)) from None
    except UnicodeDecodeError:
        raise _not_utf8(path, data) from None
    values: dict[str, str] = {}
    value_lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError("expected key=value", path=str(path), line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValidationError("empty key or value", path=str(path), line=lineno)
        known = key in MANIFEST_REQUIRED or key in MANIFEST_OPTIONAL
        if not known and not key.startswith(PROVENANCE_PREFIX):
            raise ValidationError(f"unknown manifest key {key!r}", path=str(path), line=lineno)
        if key in values:
            raise ValidationError(f"duplicate manifest key {key!r}", path=str(path), line=lineno)
        values[key] = value
        value_lines[key] = lineno
    for key in MANIFEST_REQUIRED:
        if key not in values:
            raise ValidationError(f"missing required manifest key {key!r}", path=str(path))
    cut = len(PROVENANCE_PREFIX)
    provenance = {key[cut:]: value for key, value in values.items() if key.startswith(PROVENANCE_PREFIX)}
    base = path.parent

    def resolve(key: str) -> Path:
        return (base / values[key]).resolve() if not Path(values[key]).is_absolute() else Path(values[key])

    try:
        policy = BandingPolicy.parse(values["band"], values.get("tie_break", ""))
    except ValueError as exc:
        raise ValidationError(str(exc), path=str(path), line=value_lines["band"]) from None
    # only the keys present are passed, so AuditManifest holds every default
    options: dict = {}
    for key in ("discrepancy_cap", "seed", "profile_top_n", "profile_max_instances"):
        if key in values:
            options[key] = _parse_int(values[key], key, path, value_lines[key])
    if "profile_variant" in values:
        options["profile_variant"] = values["profile_variant"]
    return AuditManifest(
        labels_path=resolve("labels"),
        predictions_path=resolve("predictions"),
        favourable_label=values["favourable_label"],
        policy=policy,
        fairness_predictions_path=resolve("fairness_predictions")
        if "fairness_predictions" in values
        else None,
        group_map_path=resolve("group_map") if "group_map" in values else None,
        provenance=provenance,
        **options,
    )


def _check_written_ids(kind: str, ids: Iterable[str]) -> None:
    """Reject ids that the readers, which strip every cell, would read back changed."""
    for item in ids:
        if item != item.strip():
            raise ValidationError(f"{kind} id {item!r} has surrounding whitespace")


def csv_text(header: Sequence[str], rows: Iterable[Sequence], lineterminator: str = "\r\n") -> str:
    """A header and rows as CSV text, quoted as csv.writer quotes."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=lineterminator)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def labels_csv(labels: LabelVector) -> str:
    """Labels with the canonical 0/1 vocabulary, as CSV text."""
    _check_written_ids("instance", labels.index.ids)
    return csv_text(LABEL_HEADER, zip(labels.index.ids, labels.values.tolist()))


def predictions_csv(pairs: Iterable[tuple[str, PredictionVector]]) -> str:
    """(run id, predictions) pairs in long form, grouped by run in the given order, as CSV text."""
    vectors = list(pairs)
    _check_written_ids("run", (run_id for run_id, _ in vectors))
    for index in {vector.index for _, vector in vectors}:
        _check_written_ids("instance", index.ids)
    rows = (zip(repeat(run_id), vector.index.ids, vector.values.tolist()) for run_id, vector in vectors)
    return csv_text(PREDICTION_HEADER, chain.from_iterable(rows))


def ensemble_csv(preds: PredictionVector) -> str:
    """A fair ensemble's predictions in long form, as run "fair-ensemble" of a prediction file."""
    _check_written_ids("instance", preds.index.ids)
    rows = zip(repeat("fair-ensemble"), preds.index.ids, preds.values.tolist())
    return csv_text(PREDICTION_HEADER, rows, lineterminator="\n")


def manifest_text(entries: Mapping[str, str]) -> str:
    """A flat manifest; an entry load_manifest would read back changed is refused.

    load_manifest splits lines on line breaks, skips # comments, splits each
    line at its first '=' and strips both sides, so a key must not hold '='
    or start with '#', and neither side may be empty, padded or hold a line
    break.
    """
    for key, value in entries.items():
        if "=" in key or key.startswith("#"):
            raise ValidationError(f"manifest key {key!r} must not hold '=' or start with '#'")
        if any(not t or t != t.strip() or "\n" in t or "\r" in t for t in (key, value)):
            raise ValidationError(
                f"manifest entry {key!r}={value!r} is empty, padded or holds a line break"
            )
    return "\n".join(f"{key}={value}" for key, value in entries.items()) + "\n"


def write_text_atomic(files: Mapping[Path, str]) -> None:
    """Write each {path: text} entry as UTF-8 through a temporary file beside it.

    Missing parent directories are created first.  Every temporary file is
    complete before the first is renamed over its path, and any failure
    before the renames removes them all, so either no path changes or every
    one is renamed into place.  A failure between two renames (a refused
    rename, a crash) leaves the earlier paths new and the later ones old;
    the temporary files left are removed.
    """
    temps: list[tuple[Path, Path]] = []
    try:
        for path, text in files.items():
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
            handle = open(tmp, "x", encoding="utf-8", newline="")
            temps.append((tmp, path))
            with handle:
                handle.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        raise
