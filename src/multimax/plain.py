"""Plain CSV files, parsed with numpy in one pass over row-aligned byte chunks.

A file is plain when its first line is exactly the header, every other byte is LF, a comma or printable
ASCII other than '"', and either no byte is CR or every line ends in CRLF; the last line ends with its
line end, and every data row has len(header) fields of 1 to FIELD_MAX bytes.  The csv module reads such a
file as exactly these rows, and stripping changes no cell, so both parsers give the same columns.  The
length cap bounds the keys' size and keeps every field under the csv module's field limit, whose error
only the reader raises.  Each chunk is checked, split and keyed before the next is read, so working memory
is bounded by one chunk; a file that is not run-major leaves the run-major pass at its first row out of layout.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# a chunk holds at most CHUNK bytes unless its one row is longer; _MASKS[w, n] keeps an n-byte field's bytes in word w
CHUNK = 1 << 18
FIELD_MAX = 64
_MASKS = np.array(
    [[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(FIELD_MAX + 1)] for w in range(FIELD_MAX // 8)], np.uint64
)


class _NotPlain(Exception):
    """Raised at the first chunk that shows a file is not plain."""


def columns(data: bytes, header: list[str], run_major: bool = False) -> list | None:
    """A plain file's columns, each its distinct cells, first seen first, and each row's position in them; None
    for any other file.  With run_major, a run-major prediction file comes in _blocks' form."""
    try:
        return _blocks(data, header) if run_major else _coded(data, header)
    except _NotPlain:
        return None


def _chunks(data: bytes, header: list[str]) -> Iterator[list[np.ndarray]]:
    """Each chunk's column keys (see _keys); a chunk ends at the last LF within CHUNK bytes, or the first past them."""
    head = ",".join(header).encode("ascii")
    eol = next((len(end) for end in (b"\n", b"\r\n") if data.startswith(head + end)), 0)
    at = len(head) + eol
    if not eol or at == len(data):
        raise _NotPlain
    while at < len(data):
        end = data.rfind(b"\n", at, at + CHUNK) + 1 or data.find(b"\n", at + CHUNK) + 1
        if not end:
            raise _NotPlain  # bytes after the last line end
        yield _keys(np.frombuffer(data, dtype=np.uint8, count=end - at, offset=at), len(header), eol)
        at = end


def _keys(chunk: np.ndarray, width: int, eol: int) -> list[np.ndarray]:
    """Each column's fields as rows of zero-padded little-endian uint64 words, read from a copy of the chunk with
    FIELD_MAX zero bytes after it; _NotPlain unless each line is a plain row, whose fields hold no NUL."""
    is_lf = chunk == ord("\n")
    lfs = np.count_nonzero(is_lf)
    # besides its LFs, a plain chunk holds no '"' and no byte outside 0x21-0x7E but one CR per LF in a CRLF file
    unprintable = np.count_nonzero((chunk - np.uint8(0x21)) > np.uint8(0x7E - 0x21))
    if unprintable + np.count_nonzero(chunk == ord('"')) != eol * lfs:
        raise _NotPlain
    ends = np.flatnonzero((chunk == ord(",")) | is_lf)
    if ends.size != lfs * width or not is_lf[ends[width - 1 :: width]].all():
        raise _NotPlain  # a row with another field count; with each row ending in an LF, the rest are commas
    starts = np.concatenate(([-1], ends[:-1])) + 1
    ends[width - 1 :: width] -= eol - 1
    if eol == 2 and not (chunk[ends[width - 1 :: width]] == ord("\r")).all():
        raise _NotPlain  # an LF without its CR, so a CR elsewhere
    ends -= starts  # the fields' lengths
    if ends.min() < 1 or ends.max() > FIELD_MAX:
        raise _NotPlain
    lengths = ends.astype(np.uint8)
    del is_lf, ends
    padded = np.concatenate((chunk, np.zeros(FIELD_MAX, dtype=np.uint8)))
    words = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))  # words[i] starts at byte i
    # per column, its fields' starts `at` and lengths `n`; fancy indexing gathers only the words read, where
    # np.take would copy the whole unaligned view
    return [
        np.stack([words[at + 8 * word] & np.take(_MASKS[word], n) for word in range((int(n.max()) + 7) // 8)], 1)
        for at, n in zip(starts.reshape(-1, width).T, lengths.reshape(-1, width).T)
    ]


def _cells(keys: np.ndarray) -> list[str]:
    """The fields that keys (rows x words) key: a key's bytes are its field's, then NULs, which bytes strings drop."""
    return keys.astype("<u8", copy=False).view(f"S{8 * keys.shape[1]}").reshape(-1).astype(str).tolist()


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether keys a and b, broadcast over all but their words, key different fields; either may have more words."""
    words = min(a.shape[-1], b.shape[-1])
    differ = (a[..., :words] != b[..., :words]).any(-1)
    return differ if a.shape[-1] == b.shape[-1] else differ | a[..., words:].any(-1) | b[..., words:].any(-1)


def _coded(data: bytes, header: list[str]) -> list[tuple[list[str], np.ndarray]]:
    """A plain file's columns, as columns() gives them: numpy finds each chunk's distinct keys, only those are
    decoded, unless the last chunk had the same, and a cell seen for the first time gets the next position."""
    positions, codes, last = [{} for _ in header], [[] for _ in header], [(None, None)] * len(header)  # per column
    for keys in _chunks(data, header):
        for column, (found, parts, column_keys) in enumerate(zip(positions, codes, keys)):
            fields = column_keys
            if fields.shape[1] > 1:  # one structured key per field, compared word by word
                fields = fields.view([(f"w{word}", np.uint64) for word in range(fields.shape[1])])
            distinct, first, inverse = np.unique(fields.reshape(-1), return_index=True, return_inverse=True)
            if (fields.dtype, distinct.tobytes()) != last[column][0]:  # not the last chunk's distinct keys
                order = np.argsort(first)  # the chunk's distinct fields in first-appearance order
                found_at = [found.setdefault(cell, len(found)) for cell in _cells(column_keys[first[order]])]
                last[column] = (fields.dtype, distinct.tobytes()), np.array(found_at, dtype=np.intp)[np.argsort(order)]
            parts.append(last[column][1][inverse.reshape(-1)])
    return [(list(found), np.concatenate(parts)) for found, parts in zip(positions, codes)]


def _blocks(data: bytes, header: list[str]) -> list:
    """A run-major prediction file's columns: run and instance positions slice(None), the whole axis, and value
    positions the runs x instances matrix; _coded's from the first row out of the layout.  Run-major: a block of n
    rows per run, each listing block 1's distinct instances in its order, and at most two values, checked on each
    chunk's keys with no sort: a run key changes only where a block starts, an instance key is the one n rows up."""
    n = rows = 0  # block 1's length, once the run key first changes, and the rows read
    run_ids, instance_ids, block, codes = [], [], [], []  # block: block 1's instance keys, by chunk
    for run_keys, instance_keys, value_keys in _chunks(data, header):
        if not rows:
            run, value = run_keys[0], value_keys[:1].copy()
            run_ids, values, second = _cells(run_keys[:1]), _cells(value), value
        changed = np.concatenate((_differ(run_keys[:1], run), _differ(run_keys[1:], run_keys[:-1])))
        n = n or (rows + int(changed.argmax()) if changed.any() else 0)  # where the run key first changes
        if not n or n >= rows:  # block 1 goes on in this chunk, or has just ended
            block.append(instance_keys[: n - rows if n else None])
            instance_ids += _cells(block[-1])
            if n:  # block 1 twice over, in one array, its parts widened to one word count
                words = max(keys.shape[1] for keys in block)
                block = [np.concatenate((k, np.zeros((len(k), words - k.shape[1]), np.uint64)), 1) for k in block]
                block = np.concatenate(block * 2)
        code = _differ(value_keys, value)
        if len(values) == 1 and code.any():
            second = value_keys[[code.argmax()]]
            values += _cells(second)
        if n:
            changed[-rows % n :: n] = False  # where blocks start
            changed[:n] |= _differ(instance_keys[:n], block[rows % n :][: min(len(changed), n)])
            changed[n:] |= _differ(instance_keys[n:], instance_keys[:-n])
            run_ids += _cells(run_keys[-rows % n if rows else n :: n])
        if (changed | code & _differ(value_keys, second)).any():
            return _coded(data, header)  # a row out of the layout, or a third value
        codes.append(code.view(np.uint8))
        run, rows = run_keys[-1].copy(), rows + len(changed)
    n = n or rows
    if rows % n or len(set(run_ids)) < len(run_ids) or len(set(instance_ids)) < n:
        return _coded(data, header)  # a short last block, a run in two blocks, or an instance twice in a block
    return [(run_ids, slice(None)), (instance_ids, slice(None)), (values, np.concatenate(codes).reshape(-1, n))]
