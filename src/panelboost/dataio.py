"""Panel CSV and model JSON persistence.

Panel CSV: UTF-8, comma-separated, '.' decimal, one header row. Column 1
must be named "t" and hold uniformly spaced time coordinates (the grid is
inferred from it); every other column is one member series with its header
as the id. A column named "__target__" is the explicit aggregate target;
other dunder names are reserved and rejected as members. Values render with
17 significant digits, so a write/read round trip is exact.

Model JSON: format_version 1 with grid, config, terms, and provenance
objects. Other versions, and unknown fields anywhere, are rejected with
UnsupportedVersion. All writes go through a temp-file-plus-rename so
readers never see a partial file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .boost import BoostConfig, PanelModel, PanelTerm
from .errors import (
    DuplicateId,
    EmptyFamily,
    IrregularGrid,
    MissingValue,
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

_MODEL_FIELDS = {"format_version", "grid", "config", "terms", "provenance"}
_GRID_FIELDS = {"start", "step", "count"}
_CONFIG_FIELDS = {"panel_size", "lbound", "alpha", "transform", "with_replacement"}
_TERM_FIELDS = {"member_id", "weight", "raw_rho", "score", "iteration"}


def _is_reserved(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    grid = _infer_grid(columns[0], path)

    is_member = [name != TARGET_ID for name in header[1:]]
    if all(is_member):
        target_values = None
        values = columns[1:]
    else:
        target_values = columns[header.index(TARGET_ID)]
        values = columns[1:][is_member]
    if target_values is None and not len(values):
        raise EmptyFamily(f"{path}: no member columns and no explicit target")

    ids = [name for name, member in zip(header[1:], is_member) if member]
    family = Family._from_matrix(grid, ids, values)
    if target_values is not None:
        target = Series(TARGET_ID, target_values)
    else:
        target = aggregate_target(family)
    return family, target


def read_prediction_csv(path) -> tuple[TimeGrid, Series]:
    """Load a prediction file (as written by the predict command)."""
    path = Path(path)
    header, columns = _read_csv(path, allow_reserved=True)
    grid = _infer_grid(columns[0], path)
    for j, name in enumerate(header[1:], start=1):
        if name == PREDICTION_ID:
            return grid, Series(PREDICTION_ID, columns[j])
    raise ParseError(f"{path}: no {PREDICTION_ID!r} column")


def write_panel_csv(family: Family, path, target: Series | None = None) -> None:
    """Write a family (and optionally an explicit target column) to CSV."""
    columns = list(family.members)
    if target is not None:
        columns.append(Series(TARGET_ID, target.values))
    _write_csv(family.grid, columns, path)


def write_prediction_csv(
    grid: TimeGrid, prediction: Series, cumulative: Series | None, path
) -> None:
    columns = [Series(PREDICTION_ID, prediction.values)]
    if cumulative is not None:
        columns.append(Series(CUMULATIVE_ID, cumulative.values))
    _write_csv(grid, columns, path)


def _read_csv(path: Path, allow_reserved: bool = False) -> tuple[list[str], np.ndarray]:
    """Header and values of a CSV file; row j of the matrix is column j."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc

    if not header or header[0] != "t":
        got = header[0] if header else "<nothing>"
        raise ParseError(f"{path}: first column must be 't', got {got!r}")
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DuplicateId(f"{path}: duplicate column {name!r}")
        seen.add(name)
    if not allow_reserved:
        for name in header[1:]:
            if _is_reserved(name) and name != TARGET_ID:
                raise ReservedId(f"{path}: {name!r} is reserved and cannot be a member")
    if len(rows) < 2:
        raise IrregularGrid(f"{path}: need at least 2 data rows to infer a grid")

    n_cols = len(header)
    columns = np.empty((n_cols, len(rows)))
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise ParseError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {n_cols}"
            )
        for j, cell in enumerate(row):
            text = cell.strip()
            if text == "":
                raise MissingValue(i + 2, header[j])
            try:
                if "_" in text:  # float() would accept 1_000; the format does not
                    raise ValueError(text)
                value = float(text)
            except ValueError:
                raise ParseError(
                    f"{path}: row {i + 2}, column {header[j]!r}: "
                    f"not a number: {text!r}"
                ) from None
            if not math.isfinite(value):
                raise MissingValue(i + 2, header[j])
            columns[j, i] = value
    return header, columns


def _infer_grid(tcol: np.ndarray, path: Path) -> TimeGrid:
    n = len(tcol)
    step = (float(tcol[-1]) - float(tcol[0])) / (n - 1)
    if step <= 0:
        raise IrregularGrid(f"{path}: time column must be strictly increasing")
    diffs = np.diff(tcol)
    if np.any(np.abs(diffs - step) > STEP_TOLERANCE * abs(step)):
        raise IrregularGrid(f"{path}: time column is not uniformly spaced")
    return TimeGrid(float(tcol[0]), step, n)


def _write_csv(grid: TimeGrid, columns: list[Series], path) -> None:
    times = grid.times()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t"] + [s.id for s in columns])
    for i in range(grid.count):
        writer.writerow([_fmt(times[i])] + [_fmt(s.values[i]) for s in columns])
    _atomic_write_text(Path(path), buf.getvalue())


# ---------------------------------------------------------------- model JSON


def write_model(model: PanelModel, path, input_digest: str | None = None) -> None:
    """Serialize a fitted model to versioned JSON (lossless for reload)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "grid": {
            "start": model.grid.start,
            "step": model.grid.step,
            "count": model.grid.count,
        },
        "config": {
            "panel_size": model.config.panel_size,
            "lbound": model.config.lbound,
            "alpha": model.config.alpha,
            "transform": model.config.transform.value,
            "with_replacement": model.config.with_replacement,
        },
        "terms": [
            {
                "member_id": t.member_id,
                "weight": t.weight,
                "raw_rho": t.raw_rho,
                "score": t.score,
                "iteration": t.iteration,
            }
            for t in model.terms
        ],
        "provenance": {
            "input_digest": input_digest,
            "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    _atomic_write_text(Path(path), json.dumps(doc, indent=2) + "\n")


def read_model(path) -> PanelModel:
    """Load a model file written by write_model.

    stopped_early is not stored: it is exactly "fewer terms than the
    configured panel size", so it is reconstructed from the counts.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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
    _reject_unknown(doc, _MODEL_FIELDS, path, "model")

    grid_doc = _require_object(doc, "grid", path)
    _reject_unknown(grid_doc, _GRID_FIELDS, path, "grid")
    config_doc = _require_object(doc, "config", path)
    _reject_unknown(config_doc, _CONFIG_FIELDS, path, "config")
    terms_doc = doc.get("terms")
    if not isinstance(terms_doc, list):
        raise ParseError(f"{path}: field 'terms' must be a list")

    try:
        grid = TimeGrid(
            start=_typed(grid_doc, "start", float, path, "grid"),
            step=_typed(grid_doc, "step", float, path, "grid"),
            count=_typed(grid_doc, "count", int, path, "grid"),
        )
        kind = TransformKind(_typed(config_doc, "transform", str, path, "config"))
        config = BoostConfig(
            panel_size=_typed(config_doc, "panel_size", int, path, "config"),
            transform=kind,
            lbound=_typed(config_doc, "lbound", float, path, "config"),
            alpha=_typed(config_doc, "alpha", float, path, "config"),
            with_replacement=_typed(config_doc, "with_replacement", bool, path, "config"),
        )
        terms = []
        for k, term_doc in enumerate(terms_doc):
            where = f"terms[{k}]"
            if not isinstance(term_doc, dict):
                raise ParseError(f"{path}: {where} must be an object")
            _reject_unknown(term_doc, _TERM_FIELDS, path, where)
            terms.append(
                PanelTerm(
                    member_id=_typed(term_doc, "member_id", str, path, where),
                    weight=_typed(term_doc, "weight", float, path, where),
                    raw_rho=_typed(term_doc, "raw_rho", float, path, where),
                    score=_typed(term_doc, "score", float, path, where),
                    iteration=_typed(term_doc, "iteration", int, path, where),
                )
            )
        stopped_early = len(terms) < config.panel_size
        return PanelModel(tuple(terms), config, grid, stopped_early)
    except ValueError as exc:
        raise ParseError(f"{path}: invalid model content: {exc}") from exc


_TYPE_NAMES = {
    bool: "a boolean",
    int: "an integer",
    float: "a finite number",
    str: "a string",
}


def _typed(doc: dict, field: str, kind: type, path: Path, where: str):
    """A field whose JSON value has exactly the given type; nothing is coerced.

    Booleans are not integers here, and a float field takes a JSON integer
    or a finite JSON number.
    """
    if field not in doc:
        raise ParseError(f"{path}: missing field {field!r} in {where}")
    value = doc[field]
    if kind is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass  # stays an int, which the check below rejects
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ParseError(
            f"{path}: field {field!r} in {where} must be {_TYPE_NAMES[kind]}, "
            f"got {value!r}"
        )
    return value


def _require_object(doc: dict, field: str, path: Path) -> dict:
    value = doc.get(field)
    if not isinstance(value, dict):
        raise ParseError(f"{path}: field {field!r} must be an object")
    return value


def _reject_unknown(doc: dict, known: set[str], path: Path, where: str) -> None:
    unknown = set(doc) - known
    if unknown:
        raise UnsupportedVersion(
            f"{path}: unknown fields in {where}: {sorted(unknown)}"
        )


# ------------------------------------------------------------------ reports

SWEEP_REPORT_HEADER = [
    "panel_size",
    "lbound",
    "alpha",
    "transform",
    "error",
    "stopped_early",
    "train_rmse",
    "train_mae",
    "train_pearson",
    "train_psi",
    "train_cumulative_abs_error",
    "val_rmse",
    "val_mae",
    "val_pearson",
    "val_psi",
    "val_cumulative_abs_error",
    "best",
]

EVAL_REPORT_HEADER = ["rmse", "mae", "pearson", "psi", "cumulative_abs_error"]


def _metric_cells(metrics: Metrics | None) -> list[str]:
    if metrics is None:
        return [""] * 5
    return [
        _fmt(metrics.rmse),
        _fmt(metrics.mae),
        "" if metrics.pearson is None else _fmt(metrics.pearson),
        _fmt(metrics.psi),
        _fmt(metrics.cumulative_abs_error),
    ]


def write_sweep_report(result: SweepResult, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_REPORT_HEADER)
    for i, row in enumerate(result.rows):
        writer.writerow(
            [
                str(row.config.panel_size),
                _fmt(row.config.lbound),
                _fmt(row.config.alpha),
                row.config.transform.value,
                row.error or "",
                "1" if row.stopped_early else "0",
            ]
            + _metric_cells(row.train)
            + _metric_cells(row.validation)
            + ["1" if i == result.best else "0"]
        )
    _atomic_write_text(Path(path), buf.getvalue())


def write_eval_report(metrics: Metrics, path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EVAL_REPORT_HEADER)
    writer.writerow(_metric_cells(metrics))
    _atomic_write_text(Path(path), buf.getvalue())
