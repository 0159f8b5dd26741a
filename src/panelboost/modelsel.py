"""Metaparameter selection on a validation segment, metrics, and integrals."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boost import BoostConfig, fit, predict
from .errors import (
    DegenerateCorrelation,
    EmptyInput,
    NoAdmissibleMember,
    ShapeError,
    SweepFailed,
)
from .functional import TransformKind, pearson, psi
from .series import Family, Series, SplitSpec, restrict, restrict_family, split


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
    """Compute all metrics of a prediction against a target."""
    p = prediction.values
    y = target.values
    if len(p) != len(y):
        raise ShapeError(f"length mismatch: {len(p)} vs {len(y)}")
    if len(p) < 2:
        raise ShapeError("need at least 2 samples to evaluate")
    diff = p - y
    rmse = math.sqrt(float(np.mean(diff**2)))
    mae = float(np.mean(np.abs(diff)))
    try:
        corr = pearson(p, y)
    except DegenerateCorrelation:
        corr = None
    try:
        cost = psi(kind, y, p)
    except DegenerateCorrelation:
        cost = float("nan")
    cumulative_gap = abs(float(np.sum(diff))) * grid_step
    return Metrics(rmse, mae, corr, cost, cumulative_gap)


def cumulative(series: Series, grid_step: float) -> Series:
    """Running left-endpoint integral: out[k] = sum(values[:k+1]) * grid_step."""
    if len(series.values) == 0:
        raise EmptyInput("cumulative of an empty series")
    return Series(series.id, np.cumsum(series.values) * grid_step)


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
                raise ValueError(f"{name} must not be empty")
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
    panel, then the smaller alpha, then the earlier row. Every cell is
    fitted from scratch, although not everything differs between cells: the
    transform never enters fitting (only the metrics), so cells that differ
    only in it repeat the same fit, and the per-member sums that selection
    needs are computed once on the train family and shared by every cell.
    """
    train_range, val_range, _ = split(family.grid, split_spec)
    fam_train = restrict_family(family, train_range)
    tgt_train = restrict(target, train_range)
    fam_val = restrict_family(family, val_range)
    tgt_val = restrict(target, val_range)
    step = family.grid.step

    rows: list[SweepRow] = []
    for config in grid.cells:
        try:
            model, _ = fit(fam_train, tgt_train, config)
        except NoAdmissibleMember:
            rows.append(SweepRow(config, None, None, False, error="NoAdmissibleMember"))
            continue
        kind = config.transform
        train_metrics = evaluate(predict(model, fam_train), tgt_train, kind, step)
        val_metrics = evaluate(predict(model, fam_val), tgt_val, kind, step)
        rows.append(SweepRow(config, train_metrics, val_metrics, model.stopped_early))

    ranked = [
        (row.validation.rmse, row.config.panel_size, row.config.alpha, i)
        for i, row in enumerate(rows)
        if row.error is None
    ]
    if not ranked:
        raise SweepFailed("every configuration failed to accept a member")
    best = min(ranked)[3]
    return SweepResult(tuple(rows), best)
