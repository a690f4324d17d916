"""How much input the package admits: every size bound, and read_input, the
one reader of input files, which bounds a file before it reads it and names
the file in every refusal.

Each bound is read through this module's attribute (limits.X), so that a
patched bound is seen everywhere. A refusal raises TooLarge or ParseError,
exit 2 on the command line, before the work the bound guards. The order guard
of orbit and reynolds, oracle.check_order_guard, counts orbit's graph nodes
and reynolds's orbit sums and so lives in oracle; it reads its two bounds
here.
"""

from __future__ import annotations

import math
import os
import stat
from collections.abc import Callable

from .errors import InputError, ParseError, TooLarge

# cap on n*n for the tables built here; 1 << 28 entries is 512 MiB at uint16
TABLE_ENTRY_LIMIT = 1 << 28
# the largest matrix dimension reynolds builds, counted as oracle.check_order_guard
# bounds the orbit sums of a cube, (n^2 + 5n + 2)/6: every group of order <= 122
# is admitted. The worst admitted is cyclic:122, whose odd cube has d = 2542;
# one process (2 cores, numpy 2.4 with OpenBLAS, three runs each) of it takes
# 0.60-0.73 s wall, 0.89-1.11 s CPU and 194 MB max RSS, either module (dense
# d x d int64 and float64 copies; the idempotence product, on both cores,
# takes most of the time); sl2:5 odd, d = 2467, 0.54-0.69 s wall, 0.80-1.00 s
# CPU and 185 MB
REYNOLDS_DIM_LIMIT = 2600
# the most graph nodes orbit builds, n^2 odd and 2n^2 even: orders up to 3162
# odd and 2236 even, sl2:13 in both. Each move (3 plus at most log2 n
# generators) and each of 5 label arrays takes 4 bytes a node. One process
# (2 cores, numpy 2.4): sl2:13 odd 3.8-4.4 s and 220 MB max RSS, even 8.3-9.2 s
# and 411 MB; the worst admitted, Z2^10 x Z3 odd (11 generators), 3.0-3.3 s and 739 MB
ORBIT_NODE_LIMIT = 10_000_000
# largest lens-table: on a 2-core box 10^5 rows take 2-3 s and 75-105 MB max RSS,
# 10^6 rows 22 s and 750 MB
LENS_TABLE_MAX_N = 100_000
# the longest character table file read: a table of some 450 classes in the
# layout of dump_char_table. Its validation is one BLAS product per Gram part;
# reading the file takes most of a query. The largest product of the test
# tables under the cap, 2I x 2I x Z2^2 (324 classes over Q(sqrt(5)), 7.5 MiB),
# takes 0.75-0.82 s and 78 MB max RSS to read and validate in one process on a
# 2-core box, of which validate is 0.13 s; Z2^9 (512 classes) is 18.6 MiB
CHAR_TABLE_FILE_LIMIT = 1 << 24
# the longest element fixture file read: about four times a fixture of
# SL2(F_13), the largest group make_sl2 builds, in the packaged layout
FIXTURE_FILE_LIMIT = 1 << 20


def check_table_size(n: int) -> None:
    if n * n > TABLE_ENTRY_LIMIT:
        raise TooLarge(f"a table of order {n} has {n * n} entries, over {TABLE_ENTRY_LIMIT}")


def cayley_file_limit() -> int:
    """The longest Cayley file read: the most text the largest table under
    TABLE_ENTRY_LIMIT can need, n*n entries of the width of n - 1, each with a
    separator and one byte of whitespace, as json.dumps writes them, 4 bytes
    a row for its brackets and the ", " between rows, and 64 KiB for the rest
    of the object."""
    n = math.isqrt(TABLE_ENTRY_LIMIT)
    return n * n * (len(str(n - 1)) + 2) + 4 * n + (1 << 16)


def _json_int(value, what: str) -> int:
    """value if it is a JSON integer, which excludes booleans; else ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """value if it is a JSON array; else ParseError."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r:.40}")
    return value


def _read_text(path: str | os.PathLike, limit: int, room: str) -> str:
    """The text of the UTF-8 file at path. The file is opened once, and fstat
    of that descriptor refuses it before any byte is read unless it is a
    regular file of at most limit bytes, the most that room: a device such as
    /dev/zero reports no size to trust. At most limit + 1 bytes are read."""
    # a FIFO opens without waiting for a writer, and is then refused
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode):
            raise ParseError("not a regular file")
        size = info.st_size
        if size > limit:
            raise TooLarge(f"the file has {size} bytes, over the {limit} that {room}")
        with open(fd, "rb", closefd=False) as file:
            data = file.read(size + 1)
    finally:
        os.close(fd)
    if len(data) > size:
        raise ParseError(f"it holds more than its size of {size} bytes")
    return data.decode("utf-8")


# each kind of input file: the most bytes read of it, and what they are the most of
_FILE_BOUNDS = {
    "Cayley table": (cayley_file_limit, "a table can need"),
    "character table": (lambda: CHAR_TABLE_FILE_LIMIT, "a table may take"),
    "element fixture": (lambda: FIXTURE_FILE_LIMIT, "a fixture may take"),
}


def read_input(path: str | os.PathLike, kind: str, decode: Callable, build: Callable):
    """build(decode(text)), text being the file at path read by _read_text
    under the bound of its kind in _FILE_BOUNDS; the text is freed before build.

    Every refusal names the file by one rule. An error of opening or decoding
    (OSError, ValueError, TypeError, RecursionError, and KeyError as "missing
    key 'k'") and any ParseError raise ParseError("cannot read <kind> '<path>':
    ..."); any other InputError keeps its type under "<kind> '<path>': "."""
    limit, room = _FILE_BOUNDS[kind]
    where = f"{kind} {str(path)!r}"
    try:
        try:
            raw = decode(_read_text(path, limit(), room))
        except KeyError as exc:
            raise ParseError(f"missing key {exc}") from None
        except (OSError, RecursionError, TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from None
        return build(raw)
    except ParseError as exc:
        raise ParseError(f"cannot read {where}: {exc}") from None
    except InputError as exc:
        raise type(exc)(f"{where}: {exc}") from None
