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
from .functional import (
    TransformKind,
    _centred,
    _check_kind,
    _constant,
    _correlation,
    _penalty,
)
from .series import (
    Family,
    Series,
    SplitSpec,
    _real,
    restrict,
    restrict_family,
    split,
)


class Metrics(NamedTuple):
    """Pointwise and integral agreement between a prediction and a target.

    ``pearson`` is None when either side is constant; ``psi`` is NaN in that
    case. ``cumulative_abs_error`` is the absolute gap between the two
    running integrals at the horizon end, in value-units times days. A
    named tuple, so it is immutable and compares and hashes as the tuple of
    its fields.
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

    A ``kind`` that is not a ``TransformKind``, and a ``grid_step`` that is
    not a positive, finite real number, are an InvalidParameter, even where
    ``psi`` is NaN.
    """
    _check_kind(kind)
    (agreement,) = _agreements(prediction.values[None], target.values,
                               _checked_step(grid_step))
    if isinstance(agreement, NumericOverflow):
        raise agreement
    return _scored(agreement, kind)


def _checked_step(grid_step) -> float:
    """``grid_step`` as a float; anything but a positive, finite real is an InvalidParameter."""
    step = _real("grid_step", grid_step, InvalidParameter)
    if not 0.0 < step < math.inf:
        raise InvalidParameter(f"grid_step must be positive and finite, got {step}")
    return step


class _Agreement(NamedTuple):
    """The metrics of a prediction that do not depend on the transform."""

    sse: float
    rmse: float
    mae: float
    pearson: float | None
    cumulative_abs_error: float


def _agreements(
    predictions: np.ndarray, y: np.ndarray, grid_step: float
) -> list[_Agreement | NumericOverflow]:
    """Squared error, rmse, mae, correlation and cumulative gap of each row against a target.

    ``predictions`` is a C-contiguous ``(K, T)`` matrix. Each row's result is
    what measuring that row alone gives, bit for bit: numpy sums each row of
    a C-contiguous matrix pairwise, as it sums the row alone, and each sum
    of squares and correlation dot of a centred row is a BLAS dot of its
    own. A row whose squared error, centred sum of squares or cumulative gap
    overflows holds the NumericOverflow that measuring it alone raises
    first, so that each caller raises the first failure in its own order.

    The correlation of a row ``p`` is ``pearson(p, y)``, None when either
    side is constant. The target ``y`` is centred once, for every row. ``p``
    is centred before the two sums of squares are checked, so a constant
    ``p`` against an overflowing target is degenerate, as in ``pearson``.
    """
    k, count = predictions.shape
    if count != len(y):
        raise ShapeError(f"length mismatch: {count} vs {len(y)}")
    if count < 2:
        raise ShapeError("need at least 2 samples to evaluate")
    try:
        reference = _centred(y, "right")
    except DegenerateCorrelation:
        reference = None
    # ndarray.sum is np.sum bit for bit at less cost, and np.mean is that
    # sum over the count
    with np.errstate(over="ignore", invalid="ignore"):
        # the squared, absolute and plain differences as the rows of one
        # C-contiguous array, so one reduction sums each row pairwise, as
        # summing it alone does
        parts = np.empty((3, k, count))
        diff = np.subtract(predictions, y, out=parts[2])
        np.square(diff, out=parts[0])
        np.abs(diff, out=parts[1])
        sse, abs_sums, gaps = np.add.reduce(parts, axis=2).tolist()
        if reference is not None:
            # _centred of each row, each row starting 16-byte aligned as a
            # fresh array does: OpenBLAS's Prescott ddot sums a misaligned
            # vector in another order, so an odd row length would move the
            # last bit of every other row's dots
            centred = np.empty((k, count + count % 2))[:, :count]
            row_means = predictions.sum(axis=1, keepdims=True) / count
            np.subtract(predictions, row_means, out=centred)
            spp = [float(pc.dot(pc)) for pc in centred]
            means = row_means[:, 0].tolist()
    results: list[_Agreement | NumericOverflow] = []
    for i in range(k):
        if not math.isfinite(sse[i]):
            results.append(NumericOverflow("the squared error overflows"))
            continue
        corr = None
        if (reference is not None and spp[i] != 0.0
                and not _constant(predictions[i], spp[i], spp[i] + count * means[i] * means[i])):
            try:
                corr = _correlation(centred[i], spp[i], *reference)
            except NumericOverflow as error:
                results.append(error)
                continue
        cumulative_gap = abs(gaps[i]) * grid_step
        if not math.isfinite(cumulative_gap):  # a Python float product overflows silently
            results.append(NumericOverflow("the cumulative absolute error overflows"))
            continue
        rmse = math.sqrt(sse[i] / count)
        results.append(_Agreement(sse[i], rmse, abs_sums[i] / count, corr, cumulative_gap))
    return results


def _scored(agreement: _Agreement, kind: TransformKind) -> Metrics:
    """``Metrics`` of an agreement, with ``psi`` for the transform ``kind``."""
    sse, rmse, mae, corr, cumulative_gap = agreement
    # psi(kind, y, p), from the correlation above: pearson is symmetric bit
    # for bit, and so is the squared difference. _correlation has clamped
    # it, and every caller has checked kind, so transform's checks are left
    cost = float("nan") if corr is None else 0.5 * sse + _penalty(kind, corr)
    return Metrics(rmse, mae, corr, cost, cumulative_gap)


def cumulative(series: Series, grid_step: float) -> Series:
    """Running left-endpoint integral: out[k] = sum(values[:k+1]) * grid_step.

    A ``grid_step`` that is not a positive, finite real number is an
    InvalidParameter.
    """
    if len(series.values) == 0:
        raise EmptyInput("cumulative of an empty series")
    step = _checked_step(grid_step)
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.cumsum(series.values) * step
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


class SweepRow(NamedTuple):
    """One sweep cell: a config plus its train/validation metrics.

    ``error`` carries the error code when fitting failed; the metric fields
    are then None. A named tuple, like ``Metrics``.
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
    the result as error rows. The best row has the smallest (validation
    RMSE, panel size, alpha, row). A target whose length is not the grid's
    is a ShapeError.

    Each row is ``_accepted`` of the path ``fit`` uses. That path is walked
    once per distinct alpha, as far as the largest panel size with lbound -1;
    no term, model or trace is built. The paths share what does not depend
    on alpha: the screen constants of the train family and the first step,
    taken against the target. Each row reads its own prefix: the path's
    ``_accepted`` prefix for its lbound, taken once per distinct (alpha,
    lbound) and cut at its panel size. A prefix predicts train with its last
    step's prediction, and validation with one cumulative sum per alpha in
    ``predict``'s order, over the validation columns of the family's matrix
    (no other segment is read), taken only as far as some row reads it. The
    distinct (alpha, prefix) pairs are measured as the rows of one matrix per
    segment, against targets centred once per segment, and each (alpha,
    prefix, transform) gets its ``Metrics`` once. If several prefixes fail
    to measure, the error raised is the one of the first row that reads a
    failing prefix, train before validation.
    """
    count = family.grid.count
    if len(target.values) != count:
        raise ShapeError(f"target has {len(target.values)} samples, grid expects {count}")
    train_range, val_range, _ = split(family.grid, split_spec)
    fam_train = restrict_family(family, train_range)
    tgt_train = restrict(target, train_range)
    tgt_val = restrict(target, val_range)

    cells = grid.cells
    longest = max(c.panel_size for c in cells)
    start = _start(fam_train, tgt_train)
    paths = {
        alpha: _accepted(_path(fam_train, tgt_train, alpha, False, start), longest, -1.0)
        for alpha in dict.fromkeys(c.alpha for c in cells)
    }
    # the accepted prefix within panel_size is the one within the longest
    # size, cut at panel_size
    reach = {
        (alpha, lbound): len(_accepted(paths[alpha], longest, lbound))
        for alpha, lbound in dict.fromkeys((c.alpha, c.lbound) for c in cells)
    }
    # each cell's (alpha, prefix length) read key, a length of 0 when it
    # accepts nothing, and the keys some cell reads, in order
    keys = [(c.alpha, min(c.panel_size, reach[c.alpha, c.lbound])) for c in cells]
    read = [key for key in dict.fromkeys(keys) if key[1]]
    if not read:
        raise SweepFailed("every configuration failed to accept a member")
    # validation is summed only as far as some row reads it, so a longer
    # prefix that no row uses cannot overflow the sweep
    depth: dict[float, int] = {}
    for alpha, n in read:
        depth[alpha] = max(depth.get(alpha, 0), n)
    columns = slice(val_range.start, val_range.stop)
    val_sums = {}
    for alpha, n in depth.items():
        steps = paths[alpha][:n]
        val_sums[alpha] = _running_sums(
            [s.weight for s in steps], family.values[[s.row for s in steps], columns]
        )

    step = family.grid.step
    train = _agreements(
        np.array([paths[alpha][n - 1].prediction for alpha, n in read]), tgt_train.values, step
    )
    val = _agreements(np.array([val_sums[alpha][n] for alpha, n in read]), tgt_val.values, step)
    agreements = dict(zip(read, zip(train, val)))
    for agreement in itertools.chain.from_iterable(agreements.values()):
        if isinstance(agreement, NumericOverflow):
            raise agreement
    # rows that share alpha, prefix and transform share their Metrics
    metrics: dict[tuple, tuple[Metrics, Metrics]] = {}
    rows: list[SweepRow] = []
    for c, key in zip(cells, keys):
        if not key[1]:
            rows.append(SweepRow(c, None, None, False, "NoAdmissibleMember"))
            continue
        pair = metrics.get((key, c.transform))
        if pair is None:
            pair = tuple(_scored(a, c.transform) for a in agreements[key])
            metrics[key, c.transform] = pair
        rows.append(SweepRow(c, *pair, key[1] < c.panel_size))
    best = min(
        (row.validation.rmse, row.config.panel_size, row.config.alpha, i)
        for i, row in enumerate(rows) if row.error is None
    )
    return SweepResult(tuple(rows), best[3])
