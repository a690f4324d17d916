"""Cayley table files: JSON {"order": n, "mul": [[...], ...]} read into a group.

load_cayley reads the rows from the text straight into one index array, with
no Python object per entry, through a JSON array hook; the rest of the file
follows the standard JSON rules. The table is then built and fully validated
by groups.make_from_cayley. The groups functions are called through the
module attribute, so that a wrapper or patch on groups is seen.
"""

from __future__ import annotations

import json
import os
import re
from json.decoder import JSONArray
from json.scanner import py_make_scanner

from . import groups, limits
from ._lazy import np
from .errors import ParseError

# characters of a table's rows read at a time, rounded up to the end of a row
_PIECE_CHARS = 1 << 20
_WHITESPACE = b" \t\n\r"
_MINUS_SPACE = tuple(b"-" + bytes([w]) for w in _WHITESPACE)
_MARKS_TO_SPACES = bytes.maketrans(b"[],", b"   ")
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


def _read_whole_rows(raw: bytes, n: int, first: int, out: np.ndarray) -> int:
    """Read the rows that raw lists, the text between the '[' of a row and the
    ']' of the same or a later row, into out; returns how many there are. Rows
    are numbered from first in messages.

    Raises ParseError unless the text is rows of n JSON integers in 0..n-1.
    It must be ASCII, keep "-" directly before a digit, and hold only the byte
    pairs of _ALLOWED_PAIRS once whitespace is removed; its commas and
    brackets must spell rows of n - 1 commas joined by "],["; np.fromstring
    must read n integers a row from it with all marks as spaces, which
    refuses whitespace inside a number; and the digits must number exactly
    the decimal widths of the entries, which refuses leading zeros.
    """
    k = raw.count(b"[") + 1
    if not raw.isascii():
        raise _bad_rows(n, "found a character outside ASCII")
    text = raw
    if any(w in raw for w in _WHITESPACE):
        text = raw.translate(None, _WHITESPACE)
        if b"-" in raw and any(p in raw for p in _MINUS_SPACE):
            raise _bad_rows(n, "found '-' before whitespace")
    text = b"[" + text + b"]"
    bad = _first_bad_pair(text)
    if bad is not None:
        raise _bad_rows(n, f"unexpected text at {text[max(bad - 9, 0):bad + 9].decode()!r}")
    marks = text.translate(None, b"0123456789")
    digits = len(text) - len(marks)
    del text
    marks = marks.replace(b"-", b"")
    rows = b"[" + b"],[".join([b"," * (n - 1)] * k) + b"]"
    if marks != rows:
        size = min(len(marks), len(rows))
        differ = np.frombuffer(marks, np.uint8, size) != np.frombuffer(rows, np.uint8, size)
        at = int(np.argmax(differ)) if differ.any() else size
        raise _bad_rows(n, f"row {first + marks.count(b'[', 0, at)} does not hold {n} entries")
    del marks, rows
    values = np.fromstring(raw.translate(_MARKS_TO_SPACES), dtype=np.int64, sep=" ")
    if len(values) != k * n:
        raise _bad_rows(n, "whitespace splits an entry")
    if values.min() < 0 or values.max() >= n:
        raise _bad_rows(n, f"found {int(values[(values < 0) | (values >= n)][0])}")
    entries = out[:k].reshape(-1)
    entries[:] = values
    del values
    widths = entries.size + sum(
        int(np.count_nonzero(entries >= 10**e)) for e in range(1, len(str(n - 1)))
    )
    if digits != widths:
        raise _bad_rows(n, "an entry has a leading zero")
    return k


def _read_rows(s: str, start: int, stop: int) -> np.ndarray:
    """The n x n index array whose rows s[start:stop] lists: the text between
    the '[' of the first row and the ']' of the last.

    Raises TooLarge from the row count before any entry is read. The text is
    read by _read_whole_rows in pieces of whole rows, each ending at the
    first ']' from _PIECE_CHARS on; the text between two pieces must be "],["
    and whitespace. As each such text holds one of the n - 1 '[' counted in
    n, the pieces hold n rows in all.
    """
    n = s.count("[", start, stop) + 1
    limits.check_table_size(n)
    out = np.empty((n, n), dtype=groups._index_dtype(n))
    filled = 0
    while True:
        end = s.find("]", min(start + _PIECE_CHARS, stop), stop)
        end = stop if end < 0 else end
        filled += _read_whole_rows(s[start:end].encode(), n, filled + 1, out[filled:])
        if end == stop:
            return out
        start = s.find("[", end, stop) + 1
        if not start or s[end:start].encode().translate(None, _WHITESPACE) != b"],[":
            raise _bad_rows(n, f"unexpected text after row {filled}")


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
