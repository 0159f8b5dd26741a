"""Metaparameter selection on a validation segment, metrics, and integrals."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boost import BoostConfig, _accepted, _path, _running_sums, _start
from .errors import (
    DegenerateCorrelation,
    EmptyInput,
    InvalidParameter,
    NumericOverflow,
    ShapeError,
    SweepFailed,
)
from .functional import TransformKind, _centred, _check_kind, _correlation, transform
from .series import (
    Family,
    Series,
    SplitSpec,
    restrict,
    restrict_family,
    split,
)


@dataclass(frozen=True)
class Metrics:
    """Pointwise and integral agreement between a prediction and a target.

    ``pearson`` is None when either side is constant; ``psi`` is NaN in that
    case. ``cumulative_abs_error`` is the absolute gap between the two
    running integrals at the horizon end, in value-units times days.
    """

    rmse: float
    mae: float
    pearson: float | None
    psi: float
    cumulative_abs_error: float


def evaluate(
    prediction: Series, target: Series, kind: TransformKind, grid_step: float
) -> Metrics:
    """Compute all metrics of a prediction against a target.

    A ``kind`` that is not a ``TransformKind`` is an InvalidParameter, even
    where ``psi`` is NaN.
    """
    _check_kind(kind)
    return _scored(_agreement(prediction.values, _reference(target.values), grid_step), kind)


class _Reference(NamedTuple):
    """A target and its ``_centred`` form, None when the target is degenerate."""

    values: np.ndarray
    centred: tuple[np.ndarray, float] | None


def _reference(y: np.ndarray) -> _Reference:
    """``y`` with its centring, computed once for every prediction scored against it."""
    try:
        return _Reference(y, _centred(y, "right"))
    except DegenerateCorrelation:
        return _Reference(y, None)


class _Agreement(NamedTuple):
    """The metrics of a prediction that do not depend on the transform."""

    sse: float
    rmse: float
    mae: float
    pearson: float | None
    cumulative_abs_error: float


def _agreement(p: np.ndarray, ref: _Reference, grid_step: float) -> _Agreement:
    """Squared error, rmse, mae, correlation and cumulative gap of ``p`` against a target.

    The correlation is ``pearson(p, y)`` from the target's centring in
    ``ref``, None when either side is constant. ``p`` is centred before the
    two sums of squares are checked, so a constant ``p`` against an
    overflowing target is degenerate, as in ``pearson``.
    """
    y = ref.values
    if len(p) != len(y):
        raise ShapeError(f"length mismatch: {len(p)} vs {len(y)}")
    if len(p) < 2:
        raise ShapeError("need at least 2 samples to evaluate")
    # ndarray.sum is np.sum bit for bit at less cost, and np.mean is that sum
    # divided by the count
    with np.errstate(over="ignore", invalid="ignore"):
        diff = p - y
        sse = float((diff**2).sum())
    if not math.isfinite(sse):
        raise NumericOverflow("the squared error overflows")
    rmse = math.sqrt(sse / len(p))
    mae = float(np.abs(diff).sum()) / len(p)
    corr = None
    if ref.centred is not None:
        try:
            corr = _correlation(*_centred(p, "left"), *ref.centred)
        except DegenerateCorrelation:
            pass
    cumulative_gap = abs(float(diff.sum())) * grid_step
    if not math.isfinite(cumulative_gap):  # a Python float product overflows silently
        raise NumericOverflow("the cumulative absolute error overflows")
    return _Agreement(sse, rmse, mae, corr, cumulative_gap)


def _scored(agreement: _Agreement, kind: TransformKind) -> Metrics:
    """``Metrics`` of an agreement, with ``psi`` for the transform ``kind``."""
    sse, rmse, mae, corr, cumulative_gap = agreement
    # psi(kind, y, p), from the correlation above: pearson is symmetric bit
    # for bit, and so is the squared difference
    cost = float("nan") if corr is None else 0.5 * sse + transform(kind, corr)
    return Metrics(rmse, mae, corr, cost, cumulative_gap)


def cumulative(series: Series, grid_step: float) -> Series:
    """Running left-endpoint integral: out[k] = sum(values[:k+1]) * grid_step."""
    if len(series.values) == 0:
        raise EmptyInput("cumulative of an empty series")
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.cumsum(series.values) * grid_step
    if not np.isfinite(running).all():
        raise NumericOverflow("the running integral overflows")
    return Series(series.id, running)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian metaparameter grid; the declared order fixes the row order.

    ``cells`` holds one ``BoostConfig`` per grid point, in row order: the
    product of the fields in declaration order (panel_sizes, lbounds,
    alphas, transforms). Building them checks every value, so the valid
    ranges are ``BoostConfig``'s.
    """

    panel_sizes: tuple[int, ...]
    lbounds: tuple[float, ...]
    alphas: tuple[float, ...]
    transforms: tuple[TransformKind, ...]
    cells: tuple[BoostConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("panel_sizes", "lbounds", "alphas", "transforms"):
            values = tuple(getattr(self, name))
            if not values:
                raise InvalidParameter(f"{name} must not be empty")
            object.__setattr__(self, name, values)
        cells = tuple(
            BoostConfig(panel_size=size, transform=kind, lbound=lbound, alpha=alpha)
            for size, lbound, alpha, kind in itertools.product(
                self.panel_sizes, self.lbounds, self.alphas, self.transforms
            )
        )
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell: a config plus its train/validation metrics.

    ``error`` carries the error code when fitting failed; the metric fields
    are then None.
    """

    config: BoostConfig
    train: Metrics | None
    validation: Metrics | None
    stopped_early: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    best: int


def sweep(
    family: Family, target: Series, split_spec: SplitSpec, grid: SweepGrid
) -> SweepResult:
    """Fit every grid cell on the train segment; rank by validation RMSE.

    Rows follow ``grid.cells``. Configurations that accept no member stay in
    the result as error rows. Ties on validation RMSE prefer the smaller
    panel, then the smaller alpha, then the earlier row.

    Each row is ``_accepted`` of the path ``fit`` uses. That path is walked
    once per distinct alpha, as far as the largest panel size with lbound -1;
    no term, model or trace is built. The paths share what does not depend
    on alpha: the screen constants of the train family, the rows it has
    centred for the rescore, and the first step, taken against the target.
    Each distinct (alpha, panel size, lbound) takes its accepted prefix of
    the path once, and the rows that differ only in their transform share
    it. A prefix predicts train with its last step's prediction, and
    validation with one running sum per alpha in ``predict``'s order. Each
    (alpha, prefix, transform) is measured once, on train and validation,
    against targets centred once per segment.
    """
    train_range, val_range, _ = split(family.grid, split_spec)
    fam_train = restrict_family(family, train_range)
    tgt_train = restrict(target, train_range)
    fam_val = restrict_family(family, val_range)
    tgt_val = restrict(target, val_range)
    step = family.grid.step

    longest = max(config.panel_size for config in grid.cells)
    start = _start(fam_train, tgt_train)
    paths = {
        alpha: _accepted(_path(fam_train, tgt_train, alpha, False, start), longest, -1.0)
        for alpha in dict.fromkeys(config.alpha for config in grid.cells)
    }
    keys = dict.fromkeys((c.alpha, c.panel_size, c.lbound) for c in grid.cells)
    lengths = {(a, size, lb): len(_accepted(paths[a], size, lb)) for a, size, lb in keys}
    # validation prefixes are summed only as far as some cell reads them, so
    # a longer prefix that no cell uses cannot overflow the sweep
    val_sums = {}
    for alpha, path in paths.items():
        prefix = path[: max(n for (a, _, _), n in lengths.items() if a == alpha)]
        val_sums[alpha] = _running_sums(prefix, fam_val)

    refs = (_reference(tgt_train.values), _reference(tgt_val.values))
    # every (alpha, prefix) a row reads is read with each of the grid's
    # transforms, by the rows that differ from it only there
    metrics = {}
    rows: list[SweepRow] = []
    for config in grid.cells:
        n = lengths[(config.alpha, config.panel_size, config.lbound)]
        if n == 0:
            rows.append(SweepRow(config, None, None, False, error="NoAdmissibleMember"))
            continue
        if (config.alpha, n) not in metrics:
            predictions = (paths[config.alpha][n - 1].prediction, val_sums[config.alpha][n])
            agreements = [_agreement(p, ref, step) for p, ref in zip(predictions, refs)]
            metrics[config.alpha, n] = {
                kind: tuple(_scored(a, kind) for a in agreements)
                for kind in dict.fromkeys(grid.transforms)
            }
        train, val = metrics[config.alpha, n][config.transform]
        rows.append(SweepRow(config, train, val, n < config.panel_size))

    ranked = [
        (row.validation.rmse, row.config.panel_size, row.config.alpha, i)
        for i, row in enumerate(rows)
        if row.error is None
    ]
    if not ranked:
        raise SweepFailed("every configuration failed to accept a member")
    best = min(ranked)[3]
    return SweepResult(tuple(rows), best)
