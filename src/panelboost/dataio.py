"""Panel CSV, prediction CSV, report CSV and model JSON persistence.

Panel CSV: UTF-8, comma-separated, '.' decimal, one header row. Column 1
must be named "t" and hold uniformly spaced time coordinates (the grid is
inferred from it); every other column is one member series with its header
as the id. A column named "__target__" is the explicit aggregate target;
other dunder names are reserved and rejected as members. Values render with
17 significant digits, so a write/read round trip is exact. Errors name the
file line of the bad row, the header being line 1.

Model JSON: format_version 1 with grid, config, terms, and provenance
objects, whose fields and JSON types are the tables below. Other versions,
and unknown fields anywhere, are rejected with UnsupportedVersion.

Reports: the metric columns are the fields of ``Metrics``, in order.

Every file is written through one temp file plus rename, so readers never
see a partial file; it gets the mode a plain open() would give it.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
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
    UnsupportedVersion,
)
from .functional import TransformKind
from .modelsel import Metrics, SweepResult
from .series import (
    CUMULATIVE_ID,
    PREDICTION_ID,
    TARGET_ID,
    Family,
    Series,
    TimeGrid,
    aggregate_target,
)

FORMAT_VERSION = 1
STEP_TOLERANCE = 1e-9


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


def _write_table(path, header: list[str], rows) -> None:
    """Write a header row and then each row as CSV, atomically."""
    # csv leaves a bare "\r" unquoted unless told to quote every cell; only an id has one
    quoting = csv.QUOTE_ALL if any("\r" in name for name in header) else csv.QUOTE_MINIMAL
    with _atomic_open(path) as fh:
        csv.writer(fh, lineterminator="\n", quoting=quoting).writerow(header)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def file_digest(path) -> str:
    """sha256 digest of a file, prefixed with the algorithm name."""
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
    for name in header[1:]:
        if name.startswith("__") and name.endswith("__") and name != TARGET_ID:
            raise ReservedId(f"{path}: {name!r} is reserved and cannot be a member")
    grid = _infer_grid(columns[0], path)

    ids = [name for name in header[1:] if name != TARGET_ID]
    if TARGET_ID in header:
        members = columns[1:][[name != TARGET_ID for name in header[1:]]]
        target = Series(TARGET_ID, columns[header.index(TARGET_ID)])
        return Family._from_matrix(grid, ids, members), target
    if not ids:
        raise EmptyFamily(f"{path}: no member columns and no explicit target")
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


def write_panel_csv(family: Family, path, target: Series | None = None) -> None:
    """Write a family (and optionally an explicit target column) to CSV."""
    ids, values = list(family.ids), family.values
    if target is not None:
        ids.append(TARGET_ID)
        values = np.vstack([values, target.values])
    _write_series(path, family.grid, ids, values)


def write_prediction_csv(
    grid: TimeGrid, prediction: Series, cumulative: Series | None, path
) -> None:
    ids, values = [PREDICTION_ID], [prediction.values]
    if cumulative is not None:
        ids.append(CUMULATIVE_ID)
        values.append(cumulative.values)
    _write_series(path, grid, ids, values)


def _write_series(path, grid: TimeGrid, ids: list[str], values) -> None:
    """Write the ``(N, T)`` values as the columns after t.

    The ``(T, 1+N)`` table is formatted one row at a time, so the cells of
    only one row exist as strings at once.
    """
    table = np.column_stack([grid.times(), np.transpose(values)])
    _write_table(path, ["t", *ids], (map(_fmt, row.tolist()) for row in table))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and values of a CSV file; row j of the matrix is column j."""
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

    if not header or header[0] != "t":
        got = header[0] if header else "<nothing>"
        raise ParseError(f"{path}: first column must be 't', got {got!r}")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DuplicateId(f"{path}: duplicate column {name!r}")
        seen.add(name)
    if len(rows) < 2:
        raise IrregularGrid(f"{path}: need at least 2 data rows to infer a grid")

    n_cols = len(header)
    columns = np.empty((n_cols, len(rows)))
    for i, (line, row) in enumerate(rows):
        if len(row) != n_cols:
            raise ParseError(
                f"{path}: row {line} has {len(row)} cells, expected {n_cols}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                raise MissingValue(line, header[j])
            try:
                if "_" in text:  # float() would accept 1_000; the format does not
                    raise ValueError(text)
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: row {line}, column {header[j]!r}: "
                    f"not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise MissingValue(line, header[j])
            columns[j, i] = value
    return header, columns


def _infer_grid(tcol: np.ndarray, path: Path) -> TimeGrid:
    n = len(tcol)
    step = (float(tcol[-1]) - float(tcol[0])) / (n - 1)
    if not 0 < step < math.inf:
        raise IrregularGrid(f"{path}: time column must increase by a finite step")
    with np.errstate(over="ignore"):  # an overflowing difference is irregular too
        diffs = np.diff(tcol)
        irregular = np.any(np.abs(diffs - step) > STEP_TOLERANCE * abs(step))
    if irregular:
        raise IrregularGrid(f"{path}: time column is not uniformly spaced")
    return TimeGrid(float(tcol[0]), step, n)


# ---------------------------------------------------------------- model JSON

# The fields of each v1 model object with their JSON types, in the order
# write_model writes them; read_model checks a file against the same tables.
# An enum field is stored as its value string.
_MODEL = {"format_version": int, "grid": dict, "config": dict, "terms": list}
_GRID = {"start": float, "step": float, "count": int}
_CONFIG = {
    "panel_size": int,
    "lbound": float,
    "alpha": float,
    "transform": TransformKind,
    "with_replacement": bool,
}
_TERM = {"member_id": str, "weight": float, "raw_rho": float, "score": float,
         "iteration": int}


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


def _object_doc(obj, table: dict) -> dict:
    doc = {field: getattr(obj, field) for field in table}
    return {k: v.value if isinstance(v, Enum) else v for k, v in doc.items()}


def read_model(path) -> PanelModel:
    """Load a model file written by write_model."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None
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
    doc = {k: v for k, v in doc.items() if k != "provenance"}
    doc = _fields(doc, _MODEL, path, "model")

    try:
        grid = TimeGrid(**_fields(doc["grid"], _GRID, path, "grid"))
        config = BoostConfig(**_fields(doc["config"], _CONFIG, path, "config"))
        terms = tuple(
            PanelTerm(**_fields(term, _TERM, path, f"terms[{k}]"))
            for k, term in enumerate(doc["terms"])
        )
        return PanelModel(terms, config, grid)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid model content: {exc}") from exc


_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a finite number",
    str: "a string",
    dict: "an object",
    list: "a list",
}


def _fields(doc, table: dict, path: Path, where: str) -> dict:
    """Fields of a JSON object, each of exactly its table type; nothing is coerced.

    Unknown fields are UnsupportedVersion; a missing or mistyped field is a
    ParseError. Booleans are not integers here, a float field takes a JSON
    integer or a finite JSON number, and an enum field takes a string, which
    becomes its member (an unknown value is a ValueError).
    """
    if type(doc) is not dict:
        raise ParseError(f"{path}: {where} must be an object")
    unknown = set(doc) - set(table)
    if unknown:
        raise UnsupportedVersion(
            f"{path}: unknown fields in {where}: {sorted(unknown)}"
        )
    fields = {}
    for field, kind in table.items():
        if field not in doc:
            raise ParseError(f"{path}: missing field {field!r} in {where}")
        value = doc[field]
        stored = str if issubclass(kind, Enum) else kind  # the JSON value's type
        if stored is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                pass  # stays an int, which the check below rejects
        if type(value) is not stored or (stored is float and not math.isfinite(value)):
            raise ParseError(
                f"{path}: field {field!r} in {where} must be {_TYPE_NAMES[stored]}, "
                f"got {value!r}"
            )
        fields[field] = value if kind is stored else kind(value)
    return fields


# ------------------------------------------------------------------ reports

EVAL_REPORT_HEADER = [f.name for f in dataclasses.fields(Metrics)]

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
    return ["" if v is None else _fmt(v) for v in dataclasses.astuple(metrics)]


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
