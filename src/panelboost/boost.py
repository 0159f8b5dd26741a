"""Greedy panel extraction: stagewise least squares with a correlation screen.

``fit`` grows a weighted panel one member at a time. Every iteration scores
each remaining candidate by the correlation of its least-squares scaling
with the current residual, accepts the best candidate at or above the
configured lower bound, and advances the prediction by the shrunk weight.
Without replacement, accepted members leave the candidate pool, so a panel
never contains the same member twice.

Candidates are the rows of the family's ``(N, T)`` matrix. Each iteration
scores all of them with one matrix-vector product against the residual and
rescores only the rows that product cannot separate from the best with the
scalar ``argmin_rho`` and ``pearson``, so selections, weights, scores and
tie-breaks (earliest family position wins) are exactly those of scoring
every candidate with the scalar functionals. The per-row sums this needs are
computed once per family. The outer loop is inherently sequential because
each iteration consumes the previous residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DegenerateResidual,
    EmptyFamily,
    MissingPanelMember,
    NoAdmissibleMember,
    NumericOverflow,
    ShapeError,
    ZeroCandidate,
)
from .functional import TransformKind, argmin_rho, pearson
from .series import PREDICTION_ID, RESIDUAL_ID, Family, Series, TimeGrid

WEIGHT_TOLERANCE = 1e-12

EPS = float(np.finfo(float).eps)
# Bound, in units of T * eps, on the rounding error of the length-T sums and
# dot products that screen candidates (relative to the scale each use in
# ``_checked_rows`` and ``_best`` states); rounding analyses of those uses
# give at most about 4, so this leaves at least a factor of 4 to spare.
ROUNDING_MARGIN = 16.0
# Below this, underflow in those sums breaks the relative bound.
RESOLVED_FLOOR = float(np.finfo(float).tiny) / EPS


@dataclass(frozen=True)
class BoostConfig:
    """Fitting metaparameters.

    ``panel_size`` bounds the total number of accepted terms, the first one
    included. ``lbound`` is the minimum selection score: -1 accepts every
    candidate, 0 demands positive correlation with the residual. ``alpha``
    multiplies every stagewise least-squares weight; 1 disables shrinkage.
    ``transform`` does not enter fitting: it labels the model and picks the
    correlation penalty of the ``psi`` metric when the model is evaluated.
    """

    panel_size: int
    transform: TransformKind
    lbound: float = -1.0
    alpha: float = 1.0
    with_replacement: bool = False

    def __post_init__(self):
        if self.panel_size < 1:
            raise ValueError(f"panel_size must be at least 1, got {self.panel_size}")
        if not -1.0 <= self.lbound <= 1.0:
            raise ValueError(f"lbound must lie in [-1, 1], got {self.lbound}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class PanelTerm:
    """One accepted panel member."""

    member_id: str
    weight: float  # stored coefficient, alpha * raw_rho
    raw_rho: float  # least-squares weight before shrinkage
    score: float  # selection correlation in [-1, 1]
    iteration: int

    def __post_init__(self):
        for name in ("weight", "raw_rho", "score"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"term {self.member_id!r}: {name} must be finite, got {value}"
                )


class Selection(NamedTuple):
    member_id: str
    raw_rho: float
    score: float


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    member_id: str
    raw_rho: float
    score: float
    squared_error_after: float


@dataclass(frozen=True)
class FitTrace:
    """Per-iteration diagnostics of a fit."""

    records: tuple[TraceRecord, ...]

    def squared_errors(self) -> list[float]:
        return [r.squared_error_after for r in self.records]


@dataclass(frozen=True)
class PanelModel:
    """Ordered weighted panel plus the configuration that produced it."""

    terms: tuple[PanelTerm, ...]
    config: BoostConfig
    grid: TimeGrid

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not 1 <= len(self.terms) <= self.config.panel_size:
            raise ValueError(
                f"model must hold between 1 and {self.config.panel_size} terms, "
                f"got {len(self.terms)}"
            )
        if not self.config.with_replacement:
            ids = [t.member_id for t in self.terms]
            if len(set(ids)) != len(ids):
                raise ValueError("duplicate member ids in a without-replacement panel")
        for t in self.terms:
            if t.score < self.config.lbound:
                raise ValueError(
                    f"term {t.member_id!r} has score {t.score} below lbound "
                    f"{self.config.lbound}"
                )
            if abs(t.weight - self.config.alpha * t.raw_rho) > WEIGHT_TOLERANCE * max(
                1.0, abs(t.weight)
            ):
                raise ValueError(
                    f"term {t.member_id!r}: weight {t.weight} is not alpha * raw_rho"
                )

    @property
    def stopped_early(self) -> bool:
        """Whether fitting ended before the panel was full."""
        return len(self.terms) < self.config.panel_size

    def member_ids(self) -> list[str]:
        return [t.member_id for t in self.terms]


def select_step(
    candidates: Family, residual: Series, config: BoostConfig
) -> Selection | None:
    """Score every candidate against the residual; return the best admissible one.

    ``raw_rho`` is the least-squares weight of the candidate on the residual,
    and the score is the correlation of the weighted candidate with the
    residual, i.e. sign(raw_rho) * pearson(residual, candidate). Identically
    zero or constant candidates are skipped. Returns None when no candidate
    scores at or above ``config.lbound`` (the early-stop signal); ties break
    toward the earliest family position.
    """
    rows = _checked_rows(candidates, residual.values, "residual")
    if np.ptp(residual.values) == 0:
        raise DegenerateResidual("residual has zero variance")
    found = _best(candidates, rows, residual.values, config.lbound, rows.usable)
    return None if found is None else found[1]


class _Rows(NamedTuple):
    """Per-row quantities of a family that the selection screen reuses.

    ``centred_sq`` is sq_norm - total**2 / T, the sum of squares about the
    row mean. That difference is cheap but cancels when the mean dominates
    the spread: its error is at most ``ROUNDING_MARGIN * T * eps * sq_norm``,
    and ``unresolved`` marks the rows where that bound reaches centred_sq
    itself, or where centred_sq is small enough to underflow. ``usable``
    marks the rows that are neither zero nor constant; it is exact (only
    unresolved rows can be constant, and those are checked value by value).
    The other rows can never be selected, but their screen interval is the
    whole range, so without the mask they would be rescored every iteration.
    """

    sq_norm: np.ndarray
    total: np.ndarray
    centred_sq: np.ndarray
    unresolved: np.ndarray
    usable: np.ndarray


def _checked_rows(family: Family, y: np.ndarray, name: str) -> _Rows:
    """Per-row quantities of the candidates, checked against each other and ``y``.

    A sum of squares that is not finite, of ``y`` or of a candidate, is a
    NumericOverflow: every score computed from it would be meaningless.
    """
    count = family.grid.count
    if not len(family):
        raise EmptyFamily("no candidates to select from")
    if len(y) != count:
        raise ShapeError(f"{name} has {len(y)} samples, grid expects {count}")
    with np.errstate(over="ignore"):
        if not math.isfinite(y @ y):
            raise NumericOverflow(f"the {name}'s sum of squares overflows")
    sq_norm, total = family.row_sums
    with np.errstate(over="ignore", invalid="ignore"):
        centred_sq = sq_norm - total * total / count
    overflowed = [family.ids[i] for i in np.flatnonzero(~np.isfinite(centred_sq))]
    if overflowed:
        raise NumericOverflow(f"member {overflowed[0]!r}: its sum of squares overflows")
    unresolved = (centred_sq <= ROUNDING_MARGIN * count * EPS * sq_norm) | (
        centred_sq < RESOLVED_FLOOR
    )
    usable = sq_norm > 0.0
    suspects = np.flatnonzero(unresolved)
    usable[suspects] &= np.ptp(family.values[suspects], axis=1) != 0
    return _Rows(sq_norm, total, centred_sq, unresolved, usable)


def _best(
    family: Family, rows: _Rows, r: np.ndarray, lbound: float, pool: np.ndarray
) -> tuple[int, Selection] | None:
    """Row and selection of the best admissible candidate among the pool rows.

    ``pool`` marks the rows to consider, a subset of ``rows.usable``.

    One matrix-vector product scores every row at once: the centred inner
    product is <h, r> - mean(r) * sum(h). Those scores carry rounding error,
    so they only screen. Each row gets an interval that provably holds the
    score the scalar ``argmin_rho``/``pearson`` pair gives it; the rows whose
    interval reaches the highest lower end are rescored with that pair, in
    family order. The result is exactly what scoring every row with the
    scalar functionals gives, ties included. Usually one row is rescored.
    """
    if not pool.any():
        return None
    r_mean = r.mean()
    rc = r - r_mean
    srr = float(rc @ rc)
    if srr == 0.0:  # pearson(r, h) is degenerate for every h
        return None

    X = family.values
    hr = X @ r
    unit = ROUNDING_MARGIN * len(r) * EPS
    r_norm, r_spread = math.sqrt(float(r @ r)), math.sqrt(srr)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_norm, h_spread = np.sqrt(rows.sq_norm), np.sqrt(rows.centred_sq)
        corr = np.clip((hr - r_mean * rows.total) / (h_spread * r_spread), -1.0, 1.0)
        ratio = h_norm / h_spread
    # score error: about unit/4 * (1 + ratio)**2 * r_norm / r_spread
    slack = np.where(
        rows.unresolved | (srr < RESOLVED_FLOOR),
        np.inf,
        unit * (1.0 + ratio) ** 2 * (r_norm / r_spread),
    )
    # the sign of raw_rho is only certain where <h, r> clears its rounding bound
    signed = np.abs(hr) > unit * h_norm * r_norm
    centre = np.where(signed, np.sign(hr) * corr, 0.0)
    spread = np.where(signed, 0.0, np.abs(corr)) + slack
    # fmax skips NaN, and a NaN bound never excludes a row
    floor = np.fmax.reduce((centre - spread)[pool])
    near = np.flatnonzero(pool & ~(centre + spread < floor))

    best: tuple[int, Selection] | None = None
    for i in near:
        h = X[i]
        try:
            raw_rho = argmin_rho(h, r)
            corr_i = pearson(r, h)
        except (ZeroCandidate, DegenerateCorrelation):
            continue
        sign = 1.0 if raw_rho > 0 else (-1.0 if raw_rho < 0 else 0.0)
        score = sign * corr_i
        # strict improvement keeps the earliest row on ties
        if best is None or score > best[1].score:
            best = (int(i), Selection(family.ids[i], raw_rho, score))
    if best is None or not best[1].score >= lbound:
        return None
    return best


def fit(
    family: Family, target: Series, config: BoostConfig
) -> tuple[PanelModel, FitTrace]:
    """Grow a panel of up to ``config.panel_size`` terms approximating the target.

    Iteration 0 selects against the target itself; every later iteration
    selects against target minus the current prediction. Fitting stops early
    when the candidate pool empties, no candidate clears ``lbound``, or the
    residual has zero variance, so the panel is shorter than ``panel_size``
    (``stopped_early``). The trace records the squared error after every
    accepted term; ``config.transform`` is not read.
    """
    rows = _checked_rows(family, target.values, "target")
    # zero and constant members can never be selected, so they start outside
    pool = rows.usable.copy()
    prediction = np.zeros(family.grid.count)
    residual_now = target.values
    terms: list[PanelTerm] = []
    records: list[TraceRecord] = []

    for iteration in range(config.panel_size):
        found = None
        if np.ptp(residual_now) != 0:
            found = _best(family, rows, residual_now, config.lbound, pool)
        if found is None:
            break
        index, chosen = found
        weight = config.alpha * chosen.raw_rho
        prediction = prediction + weight * family.values[index]
        residual_now = target.values - prediction
        terms.append(
            PanelTerm(chosen.member_id, weight, chosen.raw_rho, chosen.score, iteration)
        )
        if not config.with_replacement:
            pool[index] = False
        records.append(TraceRecord(iteration, *chosen, float(np.sum(residual_now**2))))

    if not terms:
        raise NoAdmissibleMember(
            "no candidate was accepted (threshold too high or degenerate target)"
        )
    model = PanelModel(tuple(terms), config, family.grid)
    return model, FitTrace(tuple(records))


def predict(model: PanelModel, family: Family) -> Series:
    """Weighted sum of the model's members over the family's observations.

    The family may live on any grid: forecasting a new horizon means handing
    in the same members observed over that horizon. Terms are added in model
    order, the order in which ``fit`` accumulated them.
    """
    values = np.zeros(family.grid.count)
    for term in model.terms:
        row = family.index_of(term.member_id)
        if row is None:
            raise MissingPanelMember(term.member_id)
        values = values + term.weight * family.values[row]
    return Series(PREDICTION_ID, values)


def residual(target: Series, prediction: Series) -> Series:
    """Pointwise difference target - prediction."""
    if len(target.values) != len(prediction.values):
        raise ShapeError(
            f"length mismatch: {len(target.values)} vs {len(prediction.values)}"
        )
    return Series(RESIDUAL_ID, target.values - prediction.values)
