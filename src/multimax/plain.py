"""Plain CSV files (see fields), parsed with numpy over their bytes."""

from __future__ import annotations

import numpy as np

# fields() scans CHUNK bytes, and _keys() keys CHUNK rows, at a time; _MASKS[w, n] keeps
# the bytes of an n-byte field that its uint64 word w holds
CHUNK = 1 << 18
FIELD_MAX = 64
_MASKS = np.array(
    [[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(FIELD_MAX + 1)] for w in range(FIELD_MAX // 8)], np.uint64
)


def fields(data: bytes, header: list[str]) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """A plain file's fields, as each column's (starts, lengths) in bytes; None for any other file.

    A file is plain when its first line is exactly the header, every other
    byte is LF, a comma or printable ASCII other than '"', and either no
    byte is CR or every line ends in CRLF; the last line ends with its line
    end, and every data row has len(header) fields of 1 to FIELD_MAX
    bytes.  The csv module reads such a file as exactly these rows, and
    stripping changes no cell, so both parsers give the same columns.  The
    length cap bounds the keys' size (see _keys) and keeps every field
    under the csv module's field limit, whose error only the reader raises.
    """
    head = ",".join(header).encode("ascii")
    eol = next((len(end) for end in (b"\n", b"\r\n") if data.startswith(head + end)), 0)
    start = len(head) + eol
    if not eol or len(data) == start:
        return None
    offset_type = np.int32 if len(data) < 2**31 else np.int64
    body = np.frombuffer(data, dtype=np.uint8)
    pieces, unprintable = [], 0
    for at in range(start, len(data), CHUNK):
        chunk = body[at : at + CHUNK]
        if (chunk == ord('"')).any():
            return None
        is_lf = chunk == ord("\n")
        lfs = np.count_nonzero(is_lf)
        found = np.count_nonzero((chunk - np.uint8(0x21)) > np.uint8(0x7E - 0x21))
        # besides its LFs, a plain chunk holds no unprintable byte (LF file) or
        # only CRs: at most one per LF, and one more if it ends in a CR (CRLF file)
        if found - lfs > (eol - 1) * (lfs + int(chunk[-1] == ord("\r"))):
            return None
        unprintable += found
        pieces.append(np.flatnonzero((chunk == ord(",")) | is_lf).astype(offset_type) + at)
    ends = np.concatenate(pieces)
    del pieces  # one copy of the offsets from here on
    rows = ends.size // len(header)
    if ends.size % len(header) or unprintable != rows * eol:
        return None  # a control or non-ASCII byte, a lone CR, or a row with the wrong field count
    if not rows or ends[-1] != len(data) - 1:
        return None  # bytes after the last line end, which no delimiter closes
    ends = ends.reshape(rows, len(header))
    # the unprintable count allows one LF per row: with each row ending in one, every other delimiter is a comma
    if not (np.take(body, ends[:, -1]) == ord("\n")).all():
        return None
    row_starts = np.concatenate(([start], ends[:-1, -1] + 1)).astype(offset_type)
    if eol == 2:
        ends[:, -1] -= 1
        if not (body[ends[:, -1]] == ord("\r")).all():
            return None
    starts = [row_starts] + [ends[:, k] + 1 for k in range(len(header) - 1)]
    bounds = [(column_starts, ends[:, k] - column_starts) for k, column_starts in enumerate(starts)]
    return None if any(lengths.min() < 1 or lengths.max() > FIELD_MAX for _, lengths in bounds) else bounds


def _keys(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Fields data[start:start + length] as rows of zero-padded little-endian uint64 words; no plain field holds NUL.

    Starts ascend, as a column's do, so the few words read past the last whole one come last.
    """
    last = len(data) - 8  # the last whole word's start
    words = np.ndarray((last + 1,), dtype="<u8", buffer=data, strides=(1,))  # words[i] starts at byte i
    keys = np.empty((starts.size, (int(lengths.max()) + 7) // 8), dtype=np.uint64)
    for at in range(0, starts.size, CHUNK):
        field_starts, field_lengths = starts[at : at + CHUNK], lengths[at : at + CHUNK]
        for word in range(keys.shape[1]):
            at_word = field_starts + 8 * word
            near = int(np.searchsorted(at_word, last, side="right"))  # starts ascend: the rest start past last
            masks = np.take(_MASKS[word], field_lengths)
            # fancy indexing gathers only the words read; np.take would copy the whole unaligned view
            keys[at : at + near, word] = words[at_word[:near]] & masks[:near]
            shift = (8 * (at_word[near:] - last)).astype(np.uint64)  # a word read past last is shifted into place
            keys[at + near : at + field_starts.size, word] = (words[last] >> shift) & masks[near:]
    return keys


def _decode(data: bytes, starts: np.ndarray, lengths: np.ndarray, rows) -> list[str]:
    return [data[a : a + n].decode("ascii") for a, n in zip(starts[rows].tolist(), lengths[rows].tolist())]


def column(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Fields data[start:start + length] as their distinct cells, first seen first, and each row's position in them.

    numpy finds each CHUNK rows' distinct keys; only those are decoded, and
    a cell seen for the first time gets the next position.
    """
    positions: dict[str, int] = {}
    codes = np.empty(starts.size, dtype=np.intp)
    keys = _keys(data, starts, lengths)
    if keys.shape[1] > 1:  # one structured key per field, compared word by word
        keys = keys.view([(f"w{word}", np.uint64) for word in range(keys.shape[1])])
    for at in range(0, starts.size, CHUNK):
        _, first, inverse = np.unique(keys[at : at + CHUNK].reshape(-1), return_index=True, return_inverse=True)
        order = np.argsort(first)  # the chunk's distinct fields in first-appearance order
        cells = _decode(data, starts, lengths, first[order] + at)
        lookup = np.empty(order.size, dtype=np.intp)
        lookup[order] = [positions.setdefault(cell, len(positions)) for cell in cells]
        codes[at : at + CHUNK] = lookup[inverse.reshape(-1)]
    return list(positions), codes


def run_blocks(data: bytes, bounds: list) -> list | None:
    """A run-major prediction file's columns, as column() gives them; None for any other file.

    Run-major: one block of rows per run, each listing the same distinct
    instances in the same order, and at most two values; key compares check
    this, with no sort.  The value positions form a runs x instances array,
    so the run and instance positions are slice(None), the whole axis.
    """
    keys = _keys(data, *bounds[0])
    n = int((keys != keys[0]).any(axis=1).argmax()) or len(keys)  # the rows before the run key first changes
    runs = len(keys) // n
    if len(keys) % n or (keys.reshape(runs, n, -1) != keys[::n, None]).any():
        return None  # ragged blocks, or a run key that changes inside a block
    keys = _keys(data, *bounds[1]).reshape(runs, n, -1)
    if (keys != keys[0]).any():
        return None
    keys = _keys(data, *bounds[2])
    codes = (keys != keys[0]).any(axis=1)
    second = int(codes.argmax())  # 0 when every value is the first
    if (codes & (keys != keys[second]).any(axis=1)).any():
        return None  # a third value
    picked = (slice(None, None, n), slice(n), [0, second] if second else [0])  # block starts, block 1, values
    run_ids, instance_ids, values = (_decode(data, *pair, rows) for pair, rows in zip(bounds, picked))
    if len(set(run_ids)) < runs or len(set(instance_ids)) < n:
        return None  # a run in two blocks, or an instance twice in a block
    return [(run_ids, slice(None)), (instance_ids, slice(None)), (values, codes.reshape(runs, n).view(np.uint8))]
