"""Cayley table files: JSON {"order": n, "mul": [[...], ...]} read into a group.

load_cayley reads the rows from the text straight into one index array, with
no Python object per entry, through a JSON array hook; the rest of the file
follows the standard JSON rules. The rows are counted once, in a serial pass
that cuts them into pieces of about 256 KB, and each piece in turn is
parsed by elementwise digit arithmetic on its bytes (_digit_runs). The table
is then built and fully validated by groups.make_from_cayley. The groups
functions are called through the module attribute, so that a wrapper or
patch on groups is seen.
"""

from __future__ import annotations

import json
import os
import re
from json.decoder import JSONArray
from json.scanner import py_make_scanner
from typing import NamedTuple

from . import groups, limits
from ._lazy import np
from .errors import ParseError

# characters of a table's rows read at a time, rounded up to the end of a row:
# reading a piece holds about 3 MB of temporaries, 12 bytes per byte of text,
# so a large table is read in pieces rather than all at once
_PIECE_CHARS = 1 << 18
_WHITESPACE = b" \t\n\r"
_MINUS_SPACE = tuple(b"-" + bytes([w]) for w in _WHITESPACE)
# with whitespace removed, the only byte pairs a table of integers can hold; a
# pair with any other character, an empty entry such as "[," or ",]", "[[" or
# "]]", and a "-" before anything but a digit are all missing here ("d" is any
# digit)
_ALLOWED_PAIRS = ("dd", "d,", "d]", "-d", ",d", ",-", ",[", "[d", "[-", "],")
# a '[', whitespace and the '[' of a first row; the ']' of a row, whitespace and a ']'
_ROWS_START = re.compile(r"[ \t\n\r]*\[")
_ROWS_END = re.compile(r"\][ \t\n\r]*\]")


def _pair_codes() -> bytes:
    """A bytes.translate table for _ALLOWED_PAIRS: bits 0-2 of a byte's code
    are its class c, its index in "d-,[]" or 5 for any other byte, and bit
    3 + c' is set when a byte of class c' may follow it."""
    classes = "d-,[]"

    def members(name: str) -> bytes:
        return b"0123456789" if name == "d" else name.encode()

    codes = bytearray([5] * 256)
    for c, name in enumerate(classes):
        for byte in members(name):
            codes[byte] = c
    for a, b in _ALLOWED_PAIRS:
        for byte in members(a):
            codes[byte] |= 1 << (3 + classes.index(b))
    return bytes(codes)


_PAIR_CODES = _pair_codes()


def _first_bad_pair(text: bytes) -> int | None:
    """The index of the first byte of text that may not follow the byte before
    it under _ALLOWED_PAIRS, or None."""
    codes = np.frombuffer(text.translate(_PAIR_CODES), dtype=np.uint8)
    ok = np.bitwise_and(codes[1:], 7)
    ok += 3
    np.right_shift(codes[:-1], ok, out=ok)
    ok &= 1
    return None if ok.all() else int(np.argmin(ok)) + 1


def _bad_rows(n: int, detail: str) -> ParseError:
    return ParseError(f"rows must be {n} lists of {n} integers in 0..{n - 1}: {detail}")


class _Runs(NamedTuple):
    """The maximal runs of digits of a text that starts and ends with a non-digit."""

    ends: np.ndarray  # the index in the text of each run's last digit
    values: np.ndarray  # the value of each run's last `width` digits
    big: np.ndarray  # the indices of the runs with a nonzero digit before their last `width`
    leading_zero: bool  # whether some run of two or more digits starts with a 0


def _digit_runs(text: bytes, width: int) -> _Runs:
    """The digit runs of text, read elementwise: each run's value is the sum
    of its last width digits times their powers of ten, each term masked by
    whether the bytes from its digit to the run's end are all digits."""
    u = np.frombuffer(text, np.uint8)
    d = u - 48
    dig = d < 10
    ends = np.flatnonzero(dig[:-1] > dig[1:])
    dtype = np.min_scalar_type(10**width - 1).type
    acc = d.astype(dtype)
    scratch = np.empty_like(acc)
    run = dig.copy()  # after step j, run[i] says that text[i - j:i + 1] is all digits
    for j in range(1, width + 1):
        run[j:] &= dig[:-j]
        if j < width:
            np.multiply(d[:-j], dtype(10**j), out=scratch[j:])
            scratch[j:] *= run[j:]
            acc[j:] += scratch[j:]
    big = np.empty(0, dtype=np.intp)
    if run.any():  # a run of more than width digits: out of range unless it has leading zeros
        big = np.searchsorted(ends, np.flatnonzero(run[width:] & (u[:-width] > 48)))
    zero = u[1:-1] == 48
    zero &= dig[2:]
    return _Runs(ends, np.take(acc, ends), big, bool(np.greater(zero, dig[:-2]).any()))


def _read_whole_rows(raw: bytes, n: int, rows: np.ndarray, before: int) -> None:
    """Read the rows that raw lists, the text between the '[' of a row and the
    ']' of the same or a later row, into rows, which has one row for each of
    them and as many as raw has '[' and one more. In messages, rows are
    numbered from before + 1.

    Raises ParseError unless the text is len(rows) rows of n JSON integers in
    0..n-1. It must be ASCII, keep "-" directly before a digit, and hold only
    the byte pairs of _ALLOWED_PAIRS once whitespace is removed. Its entries
    are read by _digit_runs; under those pairs, its commas and brackets spell
    rows of n - 1 commas joined by "],[" exactly when it has n entries a row,
    a ']' after each row's last entry and "],[" after each row but the last,
    and no other ']'. The whitespace must split no entry, and no entry may
    have a leading zero.
    """
    k = len(rows)
    if not raw.isascii():
        raise _bad_rows(n, "found a character outside ASCII")
    text = raw
    stripped = any(w in raw for w in _WHITESPACE)
    if stripped:
        text = raw.translate(None, _WHITESPACE)
        if b"-" in raw and any(p in raw for p in _MINUS_SPACE):
            raise _bad_rows(n, "found '-' before whitespace")
    text = b"[" + text + b"]"
    bad = _first_bad_pair(text)
    if bad is not None:
        raise _bad_rows(n, f"unexpected text at {text[max(bad - 9, 0):bad + 9].decode()!r}")
    runs = _digit_runs(text, len(str(n - 1)))
    u = np.frombuffer(text, np.uint8)
    row_ends = runs.ends[n - 1::n]
    if not (len(runs.ends) == k * n and np.count_nonzero(u == ord("]")) == k
            and (u[row_ends + 1] == ord("]")).all() and (u[row_ends[:-1] + 3] == ord("[")).all()):
        marks = text.translate(None, b"0123456789-")
        spelled = b"[" + b"],[".join([b"," * (n - 1)] * k) + b"]"
        size = min(len(marks), len(spelled))
        differ = np.frombuffer(marks, np.uint8, size) != np.frombuffer(spelled, np.uint8, size)
        at = int(np.argmax(differ)) if differ.any() else size
        raise _bad_rows(n, f"row {before + marks.count(b'[', 0, at)} does not hold {n} entries")
    if stripped:
        dig = np.frombuffer(raw, np.uint8) - 48 < 10
        if np.count_nonzero(dig[1:] > dig[:-1]) + dig[0] != k * n:
            raise _bad_rows(n, "whitespace splits an entry")
    bad = runs.values >= n
    bad[runs.big] = True
    if b"-" in text:
        negative = np.searchsorted(runs.ends, np.flatnonzero(u == ord("-")))
        bad[negative] |= runs.values[negative] != 0
    if bad.any():
        end = int(runs.ends[np.argmax(bad)]) + 1
        start = len(text[:end].rstrip(b"0123456789"))
        digits = text[start:end].lstrip(b"0").decode()
        if len(digits) > 30:
            digits = f"{digits[:20]}... ({len(digits)} digits)"
        raise _bad_rows(n, f"found {'-' if text[start - 1] == ord('-') else ''}{digits}")
    if runs.leading_zero:
        raise _bad_rows(n, "an entry has a leading zero")
    rows.reshape(-1)[:] = runs.values


def _read_rows(s: str, start: int, stop: int) -> np.ndarray:
    """The n x n index array whose rows s[start:stop] lists: the text between
    the '[' of the first row and the ']' of the last.

    The text is read in pieces of whole rows, each ending at the first ']'
    from _PIECE_CHARS on; the text between two pieces must be "],[" and
    whitespace. One serial pass finds the pieces, checks the text between
    them and counts each piece's rows, its '[' and one more; as each text
    between pieces holds one '[', the pieces hold n rows in all. After a bad
    text between pieces the rest of the text is counted too, so that n
    counts every '[' of s[start:stop] either way.

    Raises TooLarge from n before any entry is read. The pieces are then read
    in text order by _read_whole_rows, each into its own rows of the one index
    array. The refusal is the first fault in the text: that of the first piece
    that has one, raised before any later piece is read, else a bad text
    between pieces, named by the row before it.
    """
    pieces = []  # (start, end, rows before the piece, rows in it)
    filled = 0
    while True:
        end = s.find("]", min(start + _PIECE_CHARS, stop), stop)
        end = stop if end < 0 else end
        rows = s.count("[", start, end) + 1
        pieces.append((start, end, filled, rows))
        filled += rows
        if end == stop:
            n, bad_after = filled, None
            break
        start = s.find("[", end, stop) + 1
        if not start or s[end:start].encode().translate(None, _WHITESPACE) != b"],[":
            n, bad_after = filled + s.count("[", end, stop), filled
            break
    limits.check_table_size(n)
    out = np.empty((n, n), dtype=groups._index_dtype(n))
    for start, end, before, rows in pieces:
        _read_whole_rows(s[start:end].encode(), n, out[before:before + rows], before)
    if bad_after is not None:
        raise _bad_rows(n, f"unexpected text after row {bad_after}")
    return out


def _parse_array(s_and_end: tuple[str, int], scan_once):
    """json's array hook: an array whose first element is an array is read by
    _read_rows into an index array, any other array the standard way."""
    s, end = s_and_end
    first = _ROWS_START.match(s, end)
    if first is None:
        return JSONArray(s_and_end, scan_once)
    close = _ROWS_END.search(s, first.end())
    if close is None:
        raise ParseError("an array of rows is not closed")
    return _read_rows(s, first.end(), close.start()), close.end()


class _RowsDecoder(json.JSONDecoder):
    """Standard JSON, but an array of arrays is one index array (_parse_array)."""

    def __init__(self):
        super().__init__()
        self.parse_array = _parse_array
        self.scan_once = py_make_scanner(self)  # the C scanner ignores parse_array


def load_cayley(path: str | os.PathLike) -> groups.GroupTable:
    """Read and fully validate a Cayley table file, JSON {"order": n, "mul":
    [[...], ...]} whose n rows each hold n integers in 0..n-1.

    The file is read by limits.read_input, which refuses anything but a
    regular file of at most limits.cayley_file_limit() bytes before reading
    and names the file in every refusal. The rows are read as text by
    _read_rows, with no Python object per entry; the rest of the file follows
    the standard JSON rules. Any other array of arrays in the file must be
    such rows too.
    """
    return limits.read_input(path, "Cayley table", _decode, groups.make_from_cayley)


def _decode(text: str) -> np.ndarray:
    """The 'mul' rows of a Cayley file's text, their count checked against 'order'."""
    raw = _RowsDecoder().decode(text)
    if not isinstance(raw, dict):
        # an array of rows decodes to an index array, but the file holds a list
        kind = "list" if isinstance(raw, np.ndarray) else type(raw).__name__
        raise ParseError(f"expected a JSON object, got {kind}")
    order, mul = limits._json_int(raw["order"], "'order'"), raw["mul"]
    if not isinstance(mul, np.ndarray):
        raise ParseError(f"'mul' must be a list of rows, got {mul!r:.40}")
    if len(mul) != order:
        raise ParseError(f"'mul' has {len(mul)} rows, 'order' says {order}")
    return mul
