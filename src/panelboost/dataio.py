"""Panel CSV, prediction CSV, report CSV and model JSON persistence.

Panel CSV: UTF-8, comma-separated, '.' decimal, one header row. Column 1
must be named "t" and hold uniformly spaced time coordinates (the grid is
inferred from it); every other column is one member series with its header
as the id. A column named "__target__" is the explicit aggregate target. A
member may not be named "t" (DuplicateId) or take a dunder name (ReservedId),
and a file needs a member or a target (EmptyFamily). The reader checks a
header by ``_check_header`` and ``_check_panel_columns``, and the writer
checks a family by both before it opens a file, so it refuses what the
reader would reject or misread, with the reader's error. Values render with
17 significant digits, so a write/read round trip gives every value back
exactly. The grid is inferred from the times: its step is the first of the
first difference and the mean step, each within 4 ulps, whose grid gives
the times back bit for bit, so ``TimeGrid(0.1, 0.1, 3)`` reads back as
written. Where no such step is near, far from 0 (``TimeGrid(1e6, 0.1, n)``),
the step is the mean, which comes back only as closely as the times resolve
it. Errors name the file line of the bad row, the header being line 1.

Reading parses the header with the csv module and reads the data rows as
bytes, a block of whole lines at a time, straight into the one ``(columns,
rows)`` matrix whose member rows the family then takes over; the file's
line count bounds its rows, so that matrix is allocated once. A block whose
cells are all plain decimals (``-?digits[.digits]``, 18 digits at most after
the leading zeros and 21 after the dot, on "\n"-ended lines of the header's
width), or of such cells each wholly quoted, is converted in one call
(``_plain_values``): the writer's cells are plain where each |value| is 0
or from 1e-4 to 1e17. Any other block, with an exponent, padding, a "+", a
"\r" or another quote in it, say, is decoded and read cell by cell by
``_read_rows``, the loop with which ``_read_cells`` reads a whole file. A
block that fails there sends the whole file to ``_read_cells``, the one
place that builds an error with its file line, so the two parsers read
every file alike. Cells, CLI numbers and model JSON floats share one
grammar, ``series._numeral``, which refuses nonzero digits that round to 0
or to inf.
Writing formats the rows from a block of time steps of the matrix at a
time, and writes what "%.17g" writes. The header goes through the csv
module, which quotes ids. So a command holds about one copy of its panel.
An explicit "__target__" column in the last place, where the writer puts
it, costs nothing more; anywhere else it costs one more copy, as the
members are copied out from around it.

The array reader and writer run on x87's 64-bit long double (``_X87``):
a plain cell is read exactly, as an integer over a power of ten, and a
cell from 1e-4 to 1e17 in magnitude is written from its 17 digits, an
integer rounded once from a long-double product (``_plain_text``), with
"%.17g" left the 1.6 % whose product is too near a half-integer to round.
Everywhere else, IEEE quad included, a plain block is converted by
numpy's text reader (``np.fromstring``), which rounds as float() does,
and each row is one "%.17g" format string.

Model JSON: format_version 1 with grid, config, terms, and provenance
objects, whose fields are the tables below. Other versions, and unknown
fields anywhere, are rejected with UnsupportedVersion. The type of each
field is checked by the object it loads into, and nothing is coerced.

Reports: the metric columns are the fields of ``Metrics``, in order.

Every file is written through one temp file plus rename, so readers never
see a partial file; it gets the mode a plain open() would give it.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from .boost import BoostConfig, PanelModel, PanelTerm
from .errors import (
    DuplicateId,
    EmptyFamily,
    IrregularGrid,
    MissingValue,
    NumericOverflow,
    ParseError,
    ReservedId,
    ShapeError,
    UnsupportedVersion,
)
from .functional import TransformKind
from .modelsel import Metrics, SweepResult
from .series import (
    CUMULATIVE_ID,
    PREDICTION_ID,
    TARGET_ID,
    TIME_ROUNDING_ULPS,
    Family,
    Series,
    TimeGrid,
    _numeral,
    aggregate_target,
)

FORMAT_VERSION = 1
STEP_TOLERANCE = 1e-9
# A panel file is read in blocks of about this many bytes of text, and written
# in blocks of rows whose text takes at most about this many bytes; a block
# adds a small part of the panel's bytes to the one copy a file is read into
# or written from.
CSV_BLOCK_BYTES = 64 * 1024
# The one platform switch: where the long double is x87's, of 64 significant
# bits, plain cells are read and written in array code, whose long-double
# quotients and products round once and were timed faster than np.fromstring
# and "%.17g". A double or a double-double does not round them once, and an
# IEEE quad computes in software and was never timed, so every other long
# double takes np.fromstring and "%.17g".
# 10**k is exact in a long double of 64 bits up to k = 27.
_X87 = np.finfo(np.longdouble).nmant == 63
_POWERS_OF_TEN = np.array([float(10**k) for k in range(22)], dtype=np.longdouble)
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
# A product at least this far from its nearest integer, within 2**-7 of a
# half-integer, may lie on the other side of it from the exact product: its
# error is at most half a long double's ulp, 2**-8 below 2**57 > 10**17.
_HALF_BAND = 0.5 - 2.0**-7
# The most text a cell takes, "-1.2345678901234567e-308,", and the bytes of
# the slot a plain cell's text is cut from.
_CELL_BYTES = 25
_SLOT = 41


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``words``, ``zeros`` and ``keep``, the tables ``_plain_text`` writes with.

    ``words[w]`` is the text of the 4-digit word w, 0000 to 9999, as one
    uint32 of 4 ASCII digits, and ``zeros[w]`` its trailing zeros (4 of
    0000). A cell's slot holds its sign, its integer digits ("0" and then
    the 17 digits of D), the dot, its fraction digits ("000" and D again)
    and the separator after it. Row ``((x + 4) * 17 + last) * 2 + minus``
    of ``keep`` marks the bytes of the slot that the text keeps of a cell
    of decimal exponent x in [-4, 16], whose last nonzero digit is digit
    ``last`` of D (from 0), and whose sign is "-" if ``minus``: the first
    x + 1 digits of D before the dot (or "0" where x < 0), the dot if a
    digit after it is not 0, then the zeros and digits after the dot (-x -
    1 zeros where x < 0) up to the last that is not 0.

    They are built on the first call, as a command that writes no panel or
    prediction file would hold them for nothing: building them at import
    added about 0.5 MB to every command's resident memory.
    """
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
    zeros = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1).sum(axis=1)

    x = np.arange(-4, 17)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    minus = np.arange(2)[None, None, :, None]
    at = np.arange(_SLOT)
    whole, fraction = at - 1, at - 20  # the place in the integer and the fraction digits
    keep = ((at == 0) & (minus == 1)
            | (whole >= 0) & (whole <= 17) & np.where(whole == 0, x < 0, whole <= x + 1)
            | (at == 19) & (last > x)
            | (fraction >= x + 4) & (fraction <= last + 3)
            | (at == _SLOT - 1))
    return text.view(np.uint32).ravel(), zeros, keep.reshape(-1, _SLOT)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _atomic_open(path):
    """Text file that replaces ``path`` only when the block completes.

    The temp file is created with mode 0o666, which the umask narrows just
    as it does for a plain open(); os.replace keeps that mode.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _csv_file(path, header: list[str]):
    """Atomically written text file that starts with ``header`` as a CSV row."""
    # csv leaves a bare "\r" unquoted unless told to quote every cell; only an id has one
    quoting = csv.QUOTE_ALL if any("\r" in name for name in header) else csv.QUOTE_MINIMAL
    with _atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n", quoting=quoting).writerow(header)
        yield fh


def _write_table(path, header: list[str], rows) -> None:
    """Write a header row and then each row as CSV, atomically."""
    with _csv_file(path, header) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def file_digest(path) -> str:
    """sha256 digest of a file, prefixed with the algorithm name."""
    # imported here, as only fit needs it: hashlib loads OpenSSL, which costs
    # every other command a few MB and milliseconds at start-up
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------- panel CSV


def read_panel_csv(path) -> tuple[Family, Series]:
    """Load a panel file; returns the family and its target.

    The target is the "__target__" column when present, otherwise the
    pointwise sum of all members.
    """
    path = Path(path)
    header, columns = _read_csv(path)
    ids = [name for name in header[1:] if name != TARGET_ID]
    _check_panel_columns(path, ids, TARGET_ID in header)
    grid = _infer_grid(columns[0], path)

    # both readers reject a value that is not finite, so the family takes
    # the matrix's member rows over as they are
    if TARGET_ID in header:
        if header[-1] == TARGET_ID:  # where write_panel_csv puts it: a view
            members = columns[1:-1]
        else:
            members = columns[1:][[name != TARGET_ID for name in header[1:]]]
        target = Series(TARGET_ID, columns[header.index(TARGET_ID)])
        return Family._from_matrix(grid, ids, members), target
    family = Family._from_matrix(grid, ids, columns[1:])
    try:
        return family, aggregate_target(family)
    except NumericOverflow as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_prediction_csv(path) -> tuple[TimeGrid, Series]:
    """Load a prediction file (as written by the predict command)."""
    path = Path(path)
    header, columns = _read_csv(path)
    grid = _infer_grid(columns[0], path)
    if PREDICTION_ID not in header:
        raise ParseError(f"{path}: no {PREDICTION_ID!r} column")
    return grid, Series(PREDICTION_ID, columns[header.index(PREDICTION_ID)])


def check_prediction_grid(grid: TimeGrid, data_grid: TimeGrid) -> None:
    """Raise ShapeError unless a prediction's grid is that of the data it is scored on.

    The counts must be equal, and the starts and the steps agree within the
    tolerance of a grid read from CSV (``_grid_tolerance``) at the data's grid.
    """
    end = data_grid.start + data_grid.step * (data_grid.count - 1)
    tolerance = _grid_tolerance(data_grid.step, max(abs(data_grid.start), abs(end)))
    if (
        grid.count != data_grid.count
        or abs(grid.start - data_grid.start) > tolerance
        or abs(grid.step - data_grid.step) > tolerance
    ):
        raise ShapeError(f"prediction grid {grid} does not match data grid {data_grid}")


def write_panel_csv(family: Family, path, target: Series | None = None) -> None:
    """Write a family (and optionally an explicit target column, last) to CSV.

    Before it opens a file, it raises the reader's error for a family the
    file cannot hold, and ShapeError for a target of another length.
    """
    ids, parts = list(family.ids), [family.values]
    if target is not None:
        ids.append(TARGET_ID)
        parts.append(target.values)
    path = Path(path)
    _check_header(path, ["t", *ids])
    _check_panel_columns(path, family.ids, target is not None)
    _write_series(path, family.grid, ids, parts)


def write_prediction_csv(
    grid: TimeGrid, prediction: Series, cumulative: Series | None, path
) -> None:
    ids, parts = [PREDICTION_ID], [prediction.values]
    if cumulative is not None:
        ids.append(CUMULATIVE_ID)
        parts.append(cumulative.values)
    _write_series(path, grid, ids, parts)


def _write_series(path, grid: TimeGrid, ids: list[str], parts: list[np.ndarray]) -> None:
    """Write the series of ``parts``, each ``(T,)`` or ``(N, T)``, as the columns after t.

    The rows are formatted from one block of time steps at a time, a small
    ``(rows, 1+N)`` table cut from the parts, so no full-size table, and
    the text of only one block, exists at once. ``_plain_text`` writes a
    block's text in array code; where ``_X87`` is false, each row is one
    "%.17g" format string. Either renders each cell as ``_fmt`` does, and a
    number never needs quoting. A part whose rows are not ``grid.count``
    long raises ShapeError before a file is opened.
    """
    first = 0  # the column of each part's first row
    for part in parts:
        if part.shape[-1] != grid.count:
            raise ShapeError(
                f"{path}: column {ids[first]!r} has {part.shape[-1]} values, "
                f"grid expects {grid.count}"
            )
        first += len(part) if part.ndim == 2 else 1
    times = grid.times()
    row_format = ",".join(["%.17g"] * (1 + len(ids))) + "\n"
    block = max(1, CSV_BLOCK_BYTES // (_CELL_BYTES * (1 + len(ids))))
    with _csv_file(path, ["t", *ids]) as fh:
        fh.flush()  # the header, before the rows' bytes go below it
        for lo in range(0, len(times), block):
            cut = slice(lo, lo + block)
            table = np.column_stack([times[cut], *(np.transpose(p[..., cut]) for p in parts)])
            if _X87:
                fh.buffer.write(_plain_text(table))
                continue
            for row in table:
                fh.write(row_format % tuple(row.tolist()))


def _plain_text(table: np.ndarray) -> bytes:
    """The rows of a ``(rows, columns)`` table as "%.17g" cells and separators, in ASCII.

    A cell v with 1e-4 <= |v| < 1e17 is written in array code. Its decimal
    exponent x (from -4 to 16) comes from log10, and its 17 significant
    digits D = rint(|v| * 10**(16 - x)) from one long-double product, within
    2**-8 of the exact one, and so rounded as "%.17g" rounds them unless
    that product is near a half-integer. Each cell gets a slot that holds
    every byte its text might have; D's digits go in through the table of
    4-digit words, and one compress keeps the bytes of the text
    (``_text_tables``). Any other cell is written by ``_fmt``: 0 and -0,
    tiny and huge values, inf and nan, about 1.6 % of the rest, whose
    products lie within 2**-7 of a half-integer, exact ties included, and
    any whose D is not 17 digits: log10 rounded it across a power of ten,
    or D rounded up to 10**17.
    """
    words_text, word_zeros, kept = _text_tables()
    cells = table.ravel()
    size = np.abs(cells)
    with np.errstate(invalid="ignore"):  # nan
        plain = (size >= 1e-4) & (size < 1e17)
    size[~plain] = 1.0  # its digits are computed, and thrown away
    exponents = np.clip(np.floor(np.log10(size)), -4, 16).astype(np.intp)
    product = size.astype(np.longdouble)
    product *= _POWERS_OF_TEN[16 - exponents]
    digits = np.rint(product)
    near_half = np.abs((product - digits).astype(np.float64)) >= _HALF_BAND
    digits = digits.astype(np.int64)
    del product
    # where log10 rounds a value near a power of ten across it, or D rounds up
    # to 10**17, D is out of range, and "%.17g" writes the cell
    plain &= ~near_half & (digits >= 10**16) & (digits < 10**17)

    words = np.empty((len(cells), 5), np.intp)  # D's first digit, then four words of 4
    high, low = np.divmod(digits, 10**8)
    words[:, 0], high = np.divmod(high, 10**8)
    words[:, 1], words[:, 2] = np.divmod(high, 10**4)
    words[:, 3], words[:, 4] = np.divmod(low, 10**4)
    zeros = np.zeros(len(cells), np.intp)  # D's trailing zeros
    for k in (4, 3, 2, 1):
        zeros += (zeros == 4 * (4 - k)) * word_zeros[words[:, k]]
    kind = ((exponents + 4) * 17 + 16 - zeros) * 2 + np.signbit(cells)
    text = words_text[words].view(np.uint8)  # "000", then D's 17 digits
    del words, digits, zeros, exponents  # a block's temporaries, freed as it goes

    slots = np.empty((len(cells), _SLOT), np.uint8)
    slots[:, 0] = ord("-")
    slots[:, 1:19] = text[:, 2:]
    slots[:, 19] = ord(".")
    slots[:, 20:40] = text
    slots[:, 40] = ord(",")
    slots.reshape(*table.shape, _SLOT)[:, -1, 40] = ord("\n")
    del text
    keep = np.take(kept, kind, axis=0)
    other = np.flatnonzero(~plain)
    if len(other):
        texts = np.array([_fmt(v) for v in cells[other].tolist()], "S40")
        slots[other, :40] = texts.view(np.uint8).reshape(-1, 40)
        keep[other] = slots[other] != 0
    return slots[keep].tobytes()


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and values of a CSV file; row j of the matrix is column j.

    ``_read_numeric`` reads a file a block at a time, each exactly or cell
    by cell; a file it declines, and every file with an error, goes through
    ``_read_cells``, which accepts the same files and raises every error.
    """
    parsed = _read_numeric(path)
    if parsed is None:
        return _read_cells(path)
    _check_header(path, parsed[0])
    return parsed


def _read_numeric(path: Path) -> tuple[list[str], np.ndarray] | None:
    """The header and ``(cells, rows)`` values of a file, read a block at a time.

    The header is parsed by the csv module, and the data rows are read as
    bytes, in blocks of whole lines. A block of plain cells, or of cells
    each wholly quoted, is read exactly (``_plain_values``); any other is
    decoded and read cell by cell by ``_read_rows``, as ``_read_cells``
    reads it. The file's line count bounds its rows, so the C-contiguous
    matrix is allocated once and each block is read straight into it; only
    a file with blank lines (or a header over several lines, or a quoted
    line break) is cut to its rows by a copy.

    None, for ``_read_cells`` to read again and build the error with its
    file line, when the file is not UTF-8 or has no header, has fewer than
    2 rows, or a block read cell by cell fails: a row whose cell count is
    not the header's, a cell that is not a finite number or is beyond the
    csv module's field limit, or a quoted cell that a block's end cuts in
    two, which the strict csv dialect refuses where it would end the cell.
    """
    bound = _count_lines(path) - 1  # the header takes a line at least
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            lines: list[str] = []  # the header's lines, to find where the data starts
            header = next(csv.reader(lines.append(line) or line for line in fh))
        if not header:  # a blank first line; no width to parse to
            return None
        columns = np.empty((len(header), bound))
        count = 0
        with path.open("rb") as fh:
            fh.seek(len("".join(lines).encode("utf-8")))
            for block in _line_blocks(fh):
                part = _plain_values(block, len(header))
                if part is None:
                    # its lines are counted from the block's start: an error
                    # here is raised again by _read_cells, at its file line
                    reader = csv.reader(io.StringIO(block.decode(), newline=""), strict=True)
                    rows = [(reader.line_num, row) for row in reader if row]
                    part = _read_rows(path, header, rows).T
                columns[:, count : count + len(part)] = part.T
                count += len(part)
    except (ValueError, csv.Error, StopIteration, ParseError, MissingValue):
        return None  # ValueError covers UnicodeDecodeError
    if count < 2:
        return None
    return header, columns if count == bound else columns[:, :count].copy()


def _line_blocks(fh):
    """The rest of a binary file in blocks of whole lines of about ``CSV_BLOCK_BYTES``.

    A block ends after a "\\n" or "\\r", so a "\\r\\n" cut in two leaves a
    blank line, which every reader skips.
    """
    rest = b""
    while chunk := fh.read(CSV_BLOCK_BYTES):
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if cut:
            block, rest = rest + memoryview(chunk)[:cut], chunk[cut:]
            del chunk  # a block holds the one copy of its bytes
            yield block
        else:
            rest += chunk
    if rest:
        yield rest


def _plain_values(block: bytes, width: int) -> np.ndarray | None:
    """The ``(rows, width)`` values of a block of plain lines, or None for any other block.

    A plain line has ``width`` cells and ends in "\\n" (or the file), and a
    plain cell is ``-?digits[.digits]`` with at least 1 digit, at most 18
    of them after its leading zeros, and at most 21 after the dot: "%.17g"
    writes a value from 1e-4 to 0.1 with up to 4 zeros before its 17
    digits. A block in which every cell is wholly quoted, one '"' at its
    first byte and one at its last, is read as the same block without its
    quotes. Where ``_X87`` is false, the checked block is converted by
    numpy's text reader, which rounds as float() does. On x87, a plain
    cell's digits without the dot are an integer m below 10**18, which like
    10**k for k <= 21 the long double holds exactly, so m / 10**k, the
    cell's value, is rounded once to a long double. Its rounding to a double
    is then the correct one unless it lands exactly halfway between two
    doubles, where its 11 bits below a double's 53 are 0b10000000000 and
    the two roundings may differ: such a cell is read again with float().
    So every plain cell reads as float() reads it, "-0" as -0.0 too.
    """
    if not block.endswith(b"\n"):  # the file's last line
        block += b"\n"
    if b'"' in block:  # '"1","2"\n' reads as "1,2\n", and any other quote is not plain
        block, quoted = block.replace(b'"', b""), block
        if b'"' + block[:-1].replace(b",", b'","').replace(b"\n", b'"\n"') + b'"\n' != quoted:
            return None
    text = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(text <= ord(","))  # the separator after each cell, or another byte
    dots = np.flatnonzero(text == ord("."))
    # most blocks have no "-", which "in" finds faster than numpy
    minus = np.flatnonzero(text == ord("-")) if b"-" in block else dots[:0]
    if (len(ends) % width or text.max() > ord("9")
            or np.count_nonzero(text < ord("0")) != len(ends) + len(dots) + len(minus)):
        return None  # a byte that is not a digit, "-", "." or a separator, or one too few
    separators = text[ends].reshape(-1, width)
    if not ((separators[:, :-1] == ord(",")).all() and (separators[:, -1] == ord("\n")).all()):
        return None  # a line that does not have width cells, or another byte below ","
    dot_cells, minus_cells = np.searchsorted(ends, dots), np.searchsorted(ends, minus)
    digits = np.diff(ends, prepend=-1) - 1  # a cell's bytes, less its dot and sign below
    if digits.max() > csv.field_size_limit() or (np.diff(dot_cells) == 0).any():
        return None  # a cell beyond the csv module's limit, or one with two dots
    digits[dot_cells] -= 1
    digits[minus_cells] -= 1
    # a "-" follows a separator; text[-1] is the "\n" before one at the block's start
    if (text[minus - 1] > ord(",")).any() or digits.min() < 1:
        return None
    after = ends[dot_cells] - dots - 1  # the digits after the dot, before they fit an int8
    long = np.flatnonzero(digits > 18)
    if len(long) and (after.max(initial=0) > 21
                      or (digits[long] - _leading_zeros(text, ends, dots, long)).max() > 18):
        return None
    if not _X87:
        return np.fromstring(block.translate(_NEWLINE_TO_COMMA), float, sep=",").reshape(-1, width)
    scale = np.zeros(len(ends), np.int8)
    scale[dot_cells] = after

    mantissas = np.fromstring(block.translate(_NEWLINE_TO_COMMA, b"."), np.int64, sep=",")
    quotients = mantissas.astype(np.longdouble)
    quotients /= _POWERS_OF_TEN[scale]
    values = quotients.astype(np.float64)
    # halfway between two doubles; a little-endian x87 value's low 16-bit word
    # holds its lowest significand bits, in 16 bytes of storage or in 12
    low = quotients.view(np.uint16)[:: quotients.itemsize // 2]
    for cell in np.flatnonzero((low & 0x7FF) == 0x400):
        start = ends[cell - 1] + 1 if cell else 0
        values[cell] = float(block[start : ends[cell]])
    values[minus_cells[mantissas[minus_cells] == 0]] = -0.0
    return values.reshape(-1, width)


def _leading_zeros(text: np.ndarray, ends: np.ndarray, dots: np.ndarray,
                   cells: np.ndarray) -> np.ndarray:
    """The zeros before the first nonzero digit of each of ``cells``; all its digits if none.

    ``text`` is a block's bytes, ``ends`` the place of the separator after
    each cell and ``dots`` that of each ".", in a block ``_plain_values``
    has checked: a cell's bytes before its first nonzero digit are a "-"
    at its start, zeros and a dot.
    """
    starts = np.where(cells > 0, ends[cells - 1] + 1, 0)
    nonzero = np.flatnonzero((text > ord("0")) & (text <= ord("9")))
    first = np.minimum(np.append(nonzero, len(text))[np.searchsorted(nonzero, starts)],
                       ends[cells])
    dots_before = np.searchsorted(dots, first) - np.searchsorted(dots, starts)
    return first - starts - (text[starts] == ord("-")) - dots_before


def _count_lines(path: Path) -> int:
    """Lines in a file, each ended by "\n", "\r" or "\r\n" or by the end of the file.

    They are the lines that reading with ``newline=""`` yields, so the data
    rows are fewer than this count. numpy counts a chunk's "\n" bytes
    faster than ``bytes.count`` does.
    """
    lines, last = 0, b""
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lines += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == 10))
            if b"\r" in chunk:  # rare, and a tenth of the cost of counting
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":  # a "\r\n" split across chunks
                lines -= 1
            last = chunk[-1:]
    return lines + (last not in (b"", b"\r", b"\n"))


def _check_header(path: Path, header: list[str]) -> None:
    if not header or header[0] != "t":
        got = header[0] if header else "<nothing>"
        raise ParseError(f"{path}: first column must be 't', got {got!r}")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DuplicateId(f"{path}: duplicate column {name!r}")
        seen.add(name)


def _check_panel_columns(path: Path, ids, target: bool) -> None:
    """The panel file's column rule, for its member ids and whether "__target__" follows.

    The reader and the writer call it after ``_check_header``, to which a
    member named "t" is a duplicate. No member may take a dunder name,
    "__target__" included, nor hold a lone surrogate, which UTF-8 cannot
    encode, and a file needs a member or the target.
    """
    for name in ids:
        if name.startswith("__") and name.endswith("__"):
            raise ReservedId(f"{path}: {name!r} is reserved and cannot be a member")
    try:
        "".join(ids).encode("utf-8")  # one encode for all the ids
    except UnicodeEncodeError as exc:
        name = next(name for name in ids if exc.object[exc.start] in name)
        raise ParseError(f"{path}: {name!r} is not valid UTF-8") from None
    if not ids and not target:
        raise EmptyFamily(f"{path}: no member columns and no explicit target")


def _read_cells(path: Path) -> tuple[list[str], np.ndarray]:
    """``_read_csv`` one cell at a time; the errors and file lines are built here."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            rows = [(reader.line_num, row) for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a cell longer than the csv module's field limit
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from exc

    _check_header(path, header)
    if len(rows) < 2:
        raise IrregularGrid(f"{path}: need at least 2 data rows to infer a grid")
    return header, _read_rows(path, header, rows)


def _read_rows(path: Path, header: list[str], rows) -> np.ndarray:
    """The ``(cells, rows)`` values of ``rows``, pairs of a file line and its cells.

    Each cell is read by ``series._numeral``; a row of another width, a
    cell that is not a number, and a blank, inf or nan cell raise the typed
    error at the line.
    """
    columns = np.empty((len(header), len(rows)))
    for i, (line, row) in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {line} has {len(row)} cells, expected {len(header)}")
        for j, cell in enumerate(row):
            try:
                value = _numeral(cell, float) if cell.strip() else math.nan
            except ValueError as exc:
                raise ParseError(f"{path}: row {line}, column {header[j]!r}: {exc}") from None
            if not math.isfinite(value):  # a blank cell, or an inf or nan word
                raise MissingValue(line, header[j])
            columns[j, i] = value
    return columns


def _infer_grid(tcol: np.ndarray, path: Path) -> TimeGrid:
    n = len(tcol)
    step = (float(tcol[-1]) - float(tcol[0])) / (n - 1)
    if not 0 < step < math.inf:
        raise IrregularGrid(f"{path}: time column must increase by a finite step")
    tolerance = _grid_tolerance(step, max(abs(float(tcol[0])), abs(float(tcol[-1]))))
    with np.errstate(over="ignore"):  # an overflowing difference is irregular too
        diffs = np.diff(tcol)
        irregular = np.any(np.abs(diffs - step) > tolerance)
    if irregular:
        raise IrregularGrid(f"{path}: time column is not uniformly spaced")
    try:
        return TimeGrid(float(tcol[0]), _exact_step(tcol, step), n)
    except ValueError as exc:  # a step the times cannot resolve
        raise IrregularGrid(f"{path}: {exc}") from None


def _exact_step(tcol: np.ndarray, step: float) -> float:
    """A step whose grid gives the times back bit for bit, or else ``step``, their mean.

    The candidates are the first difference and the mean step, each from 4
    ulps below to 4 above, nearest first; the first whose ``times()`` are
    the column is kept. So a step such as 0.1 reads back as written, where
    the mean of its times is 0.10000000000000002.
    """
    start, last, n = float(tcol[0]), float(tcol[-1]), len(tcol)
    near = np.array([float(tcol[1]) - start, step]).view(np.int64)[:, None]
    candidates = (near + [0, 1, -1, 2, -2, 3, -3, 4, -4]).view(np.float64).ravel().tolist()
    for candidate in candidates:  # the last time first, in Python floats, which do not warn
        if start + candidate * (n - 1) == last and np.array_equal(
            (start + candidate * np.arange(n)).view(np.int64), tcol.view(np.int64)
        ):
            return candidate
    return step


def _grid_tolerance(step: float, largest: float) -> float:
    """How far a time spacing may stray from ``step`` where the largest |t| is ``largest``."""
    return STEP_TOLERANCE * step + TIME_ROUNDING_ULPS * float(np.finfo(float).eps) * largest


# ---------------------------------------------------------------- model JSON

# The fields of each v1 model object, in the order write_model writes them;
# read_model checks a file against the same tables, and the objects built
# from them check the values. An enum field is stored as its value string.
_GRID = ("start", "step", "count")
_CONFIG = ("panel_size", "lbound", "alpha", "transform", "with_replacement")
_TERM = ("member_id", "weight", "raw_rho", "score", "iteration")


def write_model(model: PanelModel, path, input_digest: str | None = None) -> None:
    """Serialize a fitted model to versioned JSON (lossless for reload)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "grid": _object_doc(model.grid, _GRID),
        "config": _object_doc(model.config, _CONFIG),
        "terms": [_object_doc(t, _TERM) for t in model.terms],
        "provenance": {
            "input_digest": input_digest,
            "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _object_doc(obj, names: tuple[str, ...]) -> dict:
    doc = {field: getattr(obj, field) for field in names}
    return {k: v.value if isinstance(v, Enum) else v for k, v in doc.items()}


def read_model(path) -> PanelModel:
    """Load a model file written by write_model.

    Its JSON floats take the one grammar of numbers (``series._numeral``), so
    nonzero digits that round to 0 or to inf ("1e-400", "1e400") are a
    ParseError "out of range", named as written.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"),
                         parse_float=functools.partial(_numeral, parse=float))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # a float out of range, or an integer too long for int()
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")

    version = doc.get("format_version")
    if version is None:
        raise ParseError(f"{path}: missing field 'format_version'")
    if type(version) is not int or version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"{path}: format_version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})"
        )
    # provenance is for people and never read back, so any value (or none) will do
    doc = _fields({k: v for k, v in doc.items() if k != "provenance"},
                  ("format_version", "grid", "config", "terms"), path, "model")
    if type(doc["terms"]) is not list:
        raise ParseError(f"{path}: terms must be a list")

    try:
        grid = TimeGrid(**_fields(doc["grid"], _GRID, path, "grid"))
        config = _fields(doc["config"], _CONFIG, path, "config")
        config["transform"] = TransformKind(config["transform"])
        terms = tuple(
            PanelTerm(**_fields(term, _TERM, path, f"terms[{k}]"))
            for k, term in enumerate(doc["terms"])
        )
        return PanelModel(terms, BoostConfig(**config), grid)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid model content: {exc}") from exc


def _fields(doc, names: tuple[str, ...], path: Path, where: str) -> dict:
    """``doc`` once it is a JSON object with exactly the named fields.

    Unknown fields are UnsupportedVersion; a missing field, or a ``doc`` that
    is not an object, is a ParseError. The values are left to the objects
    built from them to check.
    """
    if type(doc) is not dict:
        raise ParseError(f"{path}: {where} must be an object")
    unknown = set(doc) - set(names)
    if unknown:
        raise UnsupportedVersion(
            f"{path}: unknown fields in {where}: {sorted(unknown)}"
        )
    for field in names:
        if field not in doc:
            raise ParseError(f"{path}: missing field {field!r} in {where}")
    return doc


# ------------------------------------------------------------------ reports

EVAL_REPORT_HEADER = list(Metrics._fields)

SWEEP_REPORT_HEADER = [
    "panel_size",
    "lbound",
    "alpha",
    "transform",
    "error",
    "stopped_early",
    *(f"train_{name}" for name in EVAL_REPORT_HEADER),
    *(f"val_{name}" for name in EVAL_REPORT_HEADER),
    "best",
]


def _metric_cells(metrics: Metrics | None) -> list[str]:
    """One cell per Metrics field; a missing value is an empty cell."""
    if metrics is None:
        return [""] * len(EVAL_REPORT_HEADER)
    return ["" if v is None else _fmt(v) for v in metrics]


def write_sweep_report(result: SweepResult, path) -> None:
    rows = (
        [
            str(row.config.panel_size),
            _fmt(row.config.lbound),
            _fmt(row.config.alpha),
            row.config.transform.value,
            row.error or "",
            "1" if row.stopped_early else "0",
            *_metric_cells(row.train),
            *_metric_cells(row.validation),
            "1" if i == result.best else "0",
        ]
        for i, row in enumerate(result.rows)
    )
    _write_table(path, SWEEP_REPORT_HEADER, rows)


def write_eval_report(metrics: Metrics, path) -> None:
    _write_table(path, EVAL_REPORT_HEADER, [_metric_cells(metrics)])
