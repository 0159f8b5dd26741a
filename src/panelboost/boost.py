"""Greedy panel extraction: stagewise least squares with a correlation screen.

``fit`` grows a weighted panel along one greedy path. Each step scores every
remaining candidate by the correlation of its least-squares scaling with the
current residual, selects the best, and advances the prediction by its shrunk
weight. The panel is the longest prefix of the path within the panel size
whose every score clears the lower bound. Without replacement, selected
members leave the pool, so a panel never contains the same member twice.

Candidates are the rows of the family's ``(N, T)`` matrix. Each iteration
scores all of them with one matrix-vector product against the residual and
rescores only the rows that product cannot separate from the best with the
scalar ``argmin_rho`` and ``pearson``, so selections, weights, scores and
tie-breaks (earliest family position wins) are exactly those of scoring
every candidate with the scalar functionals. Every screen quantity that
depends on the family alone is computed once per fit (``_checked_rows``):
each row's sum, the square root of its centred sum of squares, its
sign-of-``raw_rho`` bound and its score-slack factor. Each step then only
scales those by scalars of its residual. The outer loop is inherently
sequential because each iteration consumes the previous residual. Each step
carries its weight and its prediction, from which ``fit`` takes its terms
and trace and the sweep its train predictions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DegenerateResidual,
    EmptyFamily,
    InvalidParameter,
    MissingPanelMember,
    NoAdmissibleMember,
    NumericOverflow,
    ShapeError,
    ZeroCandidate,
)
from .functional import TransformKind, _centred, _check_kind, _correlation, argmin_rho
from .series import PREDICTION_ID, RESIDUAL_ID, Family, Series, TimeGrid, _integer, _real

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

    ``panel_size`` is stored as a plain ``int``, ``lbound`` and ``alpha`` as
    plain ``float``s and ``with_replacement`` as a ``bool``. A field of the
    wrong type (a bool is neither an integer nor a real number here) and a
    value outside its range are an InvalidParameter.
    """

    panel_size: int
    transform: TransformKind
    lbound: float = -1.0
    alpha: float = 1.0
    with_replacement: bool = False

    def __post_init__(self):
        size = _integer("panel_size", self.panel_size, InvalidParameter)
        object.__setattr__(self, "panel_size", size)
        if self.panel_size < 1:
            raise InvalidParameter(f"panel_size must be at least 1, got {self.panel_size}")
        _check_kind(self.transform)
        for name in ("lbound", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name), InvalidParameter))
        if not -1.0 <= self.lbound <= 1.0:
            raise InvalidParameter(f"lbound must lie in [-1, 1], got {self.lbound}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParameter(f"alpha must lie in (0, 1], got {self.alpha}")
        replace = self.with_replacement
        if not isinstance(replace, (bool, np.bool_)):
            raise InvalidParameter(f"with_replacement must be a bool, got {replace!r}")
        object.__setattr__(self, "with_replacement", bool(replace))


@dataclass(frozen=True)
class PanelTerm:
    """One accepted panel member, its numbers stored as a plain ``float`` or ``int``.

    A field of the wrong type, or a number that is not finite, is a ValueError.
    """

    member_id: str
    weight: float  # stored coefficient, alpha * raw_rho
    raw_rho: float  # least-squares weight before shrinkage
    score: float  # selection correlation in [-1, 1]
    iteration: int

    def __post_init__(self):
        if not isinstance(self.member_id, str):
            raise ValueError(f"member_id must be a string, got {self.member_id!r}")
        object.__setattr__(self, "iteration", _integer("iteration", self.iteration, ValueError))
        for name in ("weight", "raw_rho", "score"):
            value = _real(name, getattr(self, name), ValueError)
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValueError(
                    f"term {self.member_id!r}: {name} must be finite, got {value}"
                )


class Selection(NamedTuple):
    member_id: str
    raw_rho: float
    score: float


class _Step(NamedTuple):
    member_id: str
    weight: float  # alpha * raw_rho
    raw_rho: float
    score: float
    prediction: np.ndarray  # the path's, once this step's term is added


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
    found = _best(candidates, rows, residual.values, rows.usable)
    accepted = _accepted(() if found is None else (found[1],), config.panel_size,
                         config.lbound)
    return accepted[0] if accepted else None


class _Rows(NamedTuple):
    """Per-row quantities of a family that the selection screen reuses.

    Everything here depends on the family alone, so ``_checked_rows``
    computes it once per fit and ``_best`` only scales it by its residual's
    scalars. With ``unit = ROUNDING_MARGIN * T * eps``:

    ``total`` is the row sum and ``h_spread`` the square root of
    ``centred_sq = sq_norm - total**2 / T``, the sum of squares about the row
    mean. That difference is cheap but cancels when the mean dominates the
    spread: its error is at most ``unit * sq_norm``, and a row is
    unresolved where that bound reaches centred_sq itself, or where
    centred_sq is small enough to underflow. ``sign_bound`` is
    ``unit * sqrt(sq_norm)``, the rounding bound on <h, r> per unit of
    ``|r|``. ``slack_factor`` is ``unit * (1 + sqrt(sq_norm) / h_spread)**2``,
    the score's rounding bound per unit of ``|r| / spread(r)``, and infinite
    on unresolved rows, whose score the screen cannot bound. ``usable``
    marks the rows that are neither zero nor constant; it is exact (only
    unresolved rows can be constant, and those are checked value by value).
    The other rows can never be selected, but their screen interval is the
    whole range, so without the mask they would be rescored every iteration.
    """

    total: np.ndarray
    h_spread: np.ndarray
    sign_bound: np.ndarray
    slack_factor: np.ndarray
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
    unit = ROUNDING_MARGIN * count * EPS
    unresolved = (centred_sq <= unit * sq_norm) | (centred_sq < RESOLVED_FLOOR)
    usable = sq_norm > 0.0
    suspects = np.flatnonzero(unresolved)
    usable[suspects] &= np.ptp(family.values[suspects], axis=1) != 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h_norm, h_spread = np.sqrt(sq_norm), np.sqrt(centred_sq)
        slack_factor = np.where(unresolved, np.inf, unit * (1.0 + h_norm / h_spread) ** 2)
    return _Rows(total, h_spread, unit * h_norm, slack_factor, usable)


def _best(
    family: Family, rows: _Rows, r: np.ndarray, pool: np.ndarray
) -> tuple[int, Selection] | None:
    """Row and selection of the best candidate among the pool rows, whatever its score.

    ``pool`` marks the rows to consider, a subset of ``rows.usable``. None when
    the pool is empty or the residual ``r`` is degenerate: constant, or srr == 0.

    One matrix-vector product scores every row at once: the centred inner
    product is <h, r> - mean(r) * sum(h). Those scores carry rounding error,
    so they only screen. Each row gets an interval that provably holds the
    score the scalar ``argmin_rho``/``pearson`` pair gives it; the rows whose
    interval reaches the highest lower end are rescored with that pair, in
    family order. The result is exactly what scoring every row with the
    scalar functionals gives, ties included. Usually one row is rescored.
    """
    # max - min is np.ptp, and the sum over the count is r.mean(), bit for
    # bit, each at less cost
    if not pool.any() or r.max() - r.min() == 0:
        return None
    r_mean = r.sum() / len(r)
    rc = r - r_mean
    srr = float(rc @ rc)
    if srr == 0.0:  # pearson(r, h) is degenerate for every h
        return None

    X = family.values
    hr = X @ r
    r_norm, r_spread = math.sqrt(float(r @ r)), math.sqrt(srr)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (hr - r_mean * rows.total) / (rows.h_spread * r_spread)
    corr = np.minimum(np.maximum(corr, -1.0), 1.0)
    # score error: about slack_factor / 4 * r_norm / r_spread
    slack = math.inf if srr < RESOLVED_FLOOR else rows.slack_factor * (r_norm / r_spread)
    # the sign of raw_rho is only certain where <h, r> clears its rounding bound
    signed = np.abs(hr) > rows.sign_bound * r_norm
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
            # pearson(r, h), on the residual centred above
            corr_i = _correlation(rc, srr, *_centred(h, "right"))
        except (ZeroCandidate, DegenerateCorrelation):
            continue
        sign = 1.0 if raw_rho > 0 else (-1.0 if raw_rho < 0 else 0.0)
        score = sign * corr_i
        # strict improvement keeps the earliest row on ties
        if best is None or score > best[1].score:
            best = (int(i), Selection(family.ids[i], raw_rho, score))
    return best


def _path(
    family: Family, target: Series, alpha: float, with_replacement: bool
) -> Iterator[_Step]:
    """The greedy path: the best candidate against each successive residual.

    A step's weight is ``alpha * raw_rho`` and its prediction the last one plus
    ``weight * row``, as in ``_running_sums``; the next step selects against
    the target minus it. Without replacement a step leaves the pool when the
    next is pulled. The path ends when ``_best`` finds no candidate: the pool
    is empty or the residual is degenerate. No prediction overflows: a step
    removes at most the residual's projection on its row, so the prediction
    stays within twice the target's norm, which ``_checked_rows`` checked.
    """
    rows = _checked_rows(family, target.values, "target")
    # zero and constant members can never be selected, so they start outside
    pool = rows.usable.copy()
    prediction = np.zeros(family.grid.count)
    while (found := _best(family, rows, target.values - prediction, pool)) is not None:
        index, chosen = found
        weight = alpha * chosen.raw_rho
        prediction = prediction + weight * family.values[index]
        yield _Step(chosen.member_id, weight, chosen.raw_rho, chosen.score, prediction)
        if not with_replacement:
            pool[index] = False


def _accepted(path: Iterable, panel_size: int, lbound: float) -> list:
    """Longest prefix of ``path`` within ``panel_size`` scoring at least ``lbound``.

    It pulls at most ``panel_size`` items, and none after the first rejected one.
    """
    head = itertools.islice(path, panel_size)
    return list(itertools.takewhile(lambda s: s.score >= lbound, head))


def fit(
    family: Family, target: Series, config: BoostConfig
) -> tuple[PanelModel, FitTrace]:
    """Grow a panel of up to ``config.panel_size`` terms approximating the target.

    The terms are the ``_accepted`` prefix of the greedy ``_path``: fewer than
    ``panel_size`` (``stopped_early``) when a selection scores below ``lbound``
    or the path ends, for the causes ``_path`` names. The trace holds the
    squared error after every accepted term. ``config.transform`` is not read.
    """
    path = _path(family, target, config.alpha, config.with_replacement)
    steps = _accepted(path, config.panel_size, config.lbound)
    if not steps:
        raise NoAdmissibleMember(
            "no candidate was accepted (threshold too high or degenerate target)"
        )
    terms = [PanelTerm(s.member_id, s.weight, s.raw_rho, s.score, k) for k, s in enumerate(steps)]
    records = tuple(
        TraceRecord(k, s.member_id, s.raw_rho, s.score,
                    float(np.sum((target.values - s.prediction) ** 2)))
        for k, s in enumerate(steps)
    )
    return PanelModel(terms, config, family.grid), FitTrace(records)


def predict(model: PanelModel, family: Family) -> Series:
    """Weighted sum of the model's members over the family's observations.

    The family may live on any grid: forecasting a new horizon means handing
    in the same members observed over that horizon. Terms are added in model
    order, the order in which ``fit`` accumulated them. A prediction beyond
    the float range is a NumericOverflow.
    """
    return Series(PREDICTION_ID, _running_sums(model.terms, family)[-1])


def _running_sums(terms: Iterable, family: Family) -> list[np.ndarray]:
    """Prediction of every prefix of ``terms``: element k sums the first k terms.

    The sum starts from zeros and adds ``weight * row`` term by term, as
    ``_path`` does, on a family the path did not walk: ``predict`` takes the
    last prefix, the sweep every prefix on validation. Once a prefix is not
    finite, every longer one is not either, so checking the last covers all.
    """
    sums = [np.zeros(family.grid.count)]
    with np.errstate(over="ignore", invalid="ignore"):
        for term in terms:
            row = family.index_of(term.member_id)
            if row is None:
                raise MissingPanelMember(term.member_id)
            sums.append(sums[-1] + term.weight * family.values[row])
    if not np.isfinite(sums[-1]).all():
        raise NumericOverflow("the prediction overflows")
    return sums


def residual(target: Series, prediction: Series) -> Series:
    """Pointwise difference target - prediction."""
    if len(target.values) != len(prediction.values):
        raise ShapeError(
            f"length mismatch: {len(target.values)} vs {len(prediction.values)}"
        )
    return Series(RESIDUAL_ID, target.values - prediction.values)
