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
depends on the family alone is computed once per fit (``_checked_rows``),
and each step only scales those by scalars of its residual, in units of
``1 / spread(r)`` so that it never divides. A row whose sign of ``raw_rho``
the screen cannot tell gets an infinite interval, so it is always rescored.
The rescore centres a row with its cached sum, once per fit. The outer loop
is inherently sequential because each iteration consumes the previous
residual, and it ends when a count of the pool's rows reaches 0 or the
residual is degenerate. Each step carries its weight and its prediction,
from which ``fit`` takes its terms and trace and the sweep its train
predictions. The sweep's paths, one per distinct alpha, share the screen
quantities, the rows centred for the rescore and the first step
(``_start``): none of them depends on alpha.

The screen has two operands, chosen by the size of the family's matrix and
by how often it has been screened. Below ``SCREEN32_MIN_BYTES`` (2 MiB, the
L2 cache per core of the machine the benchmark was defined on) the product
is a float64 gemv over the matrix itself. From that size on, the float64
gemv is bound by memory, and once a family has been screened
``SCREEN32_AFTER_SCREENS`` times, the product is a float32 gemv over the
family's centred copy (``Family._centred32``, built once per family and
shared by every later fit on it), against the residual centred and scaled
the same way. The copy takes as long to build as the float32 gemv saves in
12-23 screens (600x438 to 4000x438 floats, measured on that machine), so a
family fit once, by one CLI fit or one ``select_step``, never builds it,
and a family screened more often builds it after 16 screens, by when its
float64 screens have cost about one build more than float32 ones would
have. On select-wide (2000x438, 7 MB) the float32 operand makes a fit of 10
steps take 0.67x the time; a first fit that built the copy took 1.24x.
Applied to the 175 KB families of sweep-grid, it made a sweep 1.10-1.24x
slower, because its extra numpy calls cost more there than the smaller gemv
saves.

Both operands screen with one formula. The product is taken against the
centred residual ``r_c``, which sums to 0, so ``<h, r_c> = <h_c, r_c>``
whether the rows are centred (the float32 copy) or not (the matrix). Over
the row's spread that is the estimate of the score times ``spread(r)``, and
``<h, r> = <h_c, r_c> + mean(r) * sum(h)`` over the same spread gives the
sign of ``raw_rho``. On float64 the estimate errs by at most about
``(T + 2) * eps * |h| * |r|`` over the row's spread: the gemv on ``r_c``,
in any order of summation, plus ``delta * sum(h)``, where ``delta`` is the
rounding of ``mean(r)``. That is the form each row's score slack covers.
Adding ``mean(r) * sum(h)`` back errs by a few eps of ``|h| * |r|`` more,
which the sign's bound ``ROUNDING_MARGIN * T * eps * |h| * |r|`` covers.
The float32 operand adds only its own rounding: at most about
``(T + 2) * 2**-24 * |h_c| * |r_c|``, one rounding of each operand to
float32 and the length-T sum. Values that fall to float32's subnormals add
at most ``T * 2**-149`` in the same units, because each scaled operand's
largest value is at least 0.5. So on that operand each row's interval, and
the sign's bound, widens by ``ROUNDING_MARGIN * T * 2**-24`` per unit of
``|h_c| * |r_c|``. That is at least 8 times the error, and more than 5
times once a barely resolved row's ``h_spread``, which may be low by up to
a factor of sqrt(2), is allowed for. The rescore is the same for both
operands, so the operand changes only how many rows are rescored.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateResidual,
    EmptyFamily,
    InvalidParameter,
    MissingPanelMember,
    NoAdmissibleMember,
    NumericOverflow,
    ShapeError,
    ZeroCandidate,
)
from .functional import TransformKind, _check_kind, _correlation, argmin_rho
from .series import PREDICTION_ID, RESIDUAL_ID, Family, Series, TimeGrid, _integer, _real

WEIGHT_TOLERANCE = 1e-12

EPS = float(np.finfo(float).eps)
# Bound, in units of T * eps, on the rounding error of the length-T sums and
# dot products that screen candidates (relative to the scales the module
# docstring and ``_Rows`` state); rounding analyses of those uses give at
# most about 4, so this leaves at least a factor of 4 to spare.
ROUNDING_MARGIN = 16.0
# Below this, underflow in those sums breaks the relative bound.
RESOLVED_FLOOR = float(np.finfo(float).tiny) / EPS
# float32's unit roundoff, for the rounding bound of the float32 screen.
UNIT_ROUNDOFF32 = 2.0**-24
# A family whose matrix takes at least this many bytes (the L2 cache per core
# of the machine the benchmark was defined on) is screened against its
# float32 centred copy once it has been screened SCREEN32_AFTER_SCREENS times
# on the matrix itself; the module docstring gives the measurements.
SCREEN32_MIN_BYTES = 2 * 2**20
SCREEN32_AFTER_SCREENS = 16


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
    _, found = _start(candidates, residual, "residual")
    if np.ptp(residual.values) == 0:
        raise DegenerateResidual("residual has zero variance")
    accepted = _accepted(() if found is None else (found[1],), config.panel_size,
                         config.lbound)
    return accepted[0] if accepted else None


class _Rows(NamedTuple):
    """Per-row quantities of a family that the selection screen reuses.

    Everything here depends on the family alone, so ``_checked_rows``
    computes it once per fit (once per sweep, for all of its paths) and
    ``_best`` only scales it by its residual's scalars. With
    ``unit = ROUNDING_MARGIN * T * eps``:

    ``total`` is the row sum. ``centred_sq = sq_norm - total * (total / T)``
    is the sum of squares about the row mean, cheap but cancelling when the
    mean dominates the spread. Its error is at most ``unit * sq_norm``: the
    subtracted term is at most ``sq_norm`` (Cauchy-Schwarz), and dividing
    before multiplying, which keeps ``total * total`` from overflowing, adds
    only one rounding of it. A row is unresolved where that bound reaches
    centred_sq itself, or where centred_sq is small enough to underflow.
    ``inv_spread`` below is ``1 / sqrt(centred_sq)`` on resolved rows and 0
    on unresolved ones, so that ``_best`` multiplies where it would divide
    and no estimate is ever infinite or NaN.

    ``operand`` is the matrix the screen's product reads: ``family.values``,
    or the family's float32 centred copy (``Family._centred32``) once its
    matrix takes at least ``SCREEN32_MIN_BYTES`` and it has been screened
    ``SCREEN32_AFTER_SCREENS`` times. ``gain`` turns a row of that product
    into units of the row's spread: ``inv_spread``, or ``scale *
    inv_spread`` on the copy. ``offset`` is ``total * inv_spread`` and
    ``sign_gain`` is ``unit * sqrt(sq_norm) * inv_spread``, the bound on
    <h, r> per unit of ``|r|`` in the same units. ``slack_factor`` is
    ``unit * (1 + sqrt(sq_norm / centred_sq))**2``, the score's rounding
    bound per unit of ``|r| / spread(r)``, and infinite on unresolved rows,
    whose score the screen cannot bound. ``usable`` marks the rows that are
    neither zero nor constant; it is exact (only unresolved rows can be
    constant, and those are checked value by value). The other rows can
    never be selected, but their screen interval is the whole range, so
    without the mask they would be rescored every iteration.

    ``rescore`` maps a row already rescored to its ``_centred`` pair
    ``(hc, shh)``, which depends on the family alone; ``_best`` fills it.
    ``screens`` is the family's count of screens on its matrix
    (``Family._float64_screens``), which ``_best`` counts up. The module
    docstring gives the reasons for the operand's rules and derives the
    screen's rounding bound.
    """

    total: np.ndarray
    operand: np.ndarray
    gain: np.ndarray
    offset: np.ndarray
    sign_gain: np.ndarray
    slack_factor: np.ndarray
    usable: np.ndarray
    rescore: dict[int, tuple[np.ndarray, float]]
    screens: list[int]


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
        centred_sq = sq_norm - total * (total / count)
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
        inv_spread = np.where(unresolved, 0.0, 1.0 / h_spread)
    operand, gain = family.values, inv_spread
    screens = family._float64_screens
    if family.values.nbytes >= SCREEN32_MIN_BYTES and screens[0] >= SCREEN32_AFTER_SCREENS:
        operand, scale = family._centred32
        gain = scale * inv_spread
    return _Rows(total, operand, gain, total * inv_spread, unit * h_norm * inv_spread,
                 slack_factor, usable, {}, screens)


def _best(
    family: Family, rows: _Rows, r: np.ndarray, pool: np.ndarray
) -> tuple[int, Selection] | None:
    """Row and selection of the best candidate among the pool rows, whatever its score.

    ``pool`` marks the rows to consider: a nonempty subset of
    ``rows.usable``. None only when the residual ``r`` is degenerate:
    constant, or srr == 0.

    One matrix-vector product of ``rows.operand`` with the centred residual
    ``rc`` (scaled by a power of two into [0.5, 1) on the float32 copy)
    gives every row's <h_c, r_c>, and ``rows.gain`` puts it in units of the
    row's spread and of ``1 / spread(r)``: a score times ``spread(r)``, so
    the screen never divides. One line adds ``mean(r) * sum(h)`` back for
    <h, r>, whose sign is raw_rho's. Those estimates carry rounding error,
    so they only screen. Each row gets an interval that provably holds the
    score the scalar ``argmin_rho``/``pearson`` pair gives it, with the
    bounds the module docstring derives. A row whose sign of raw_rho the
    product cannot tell gets an infinite interval, and so does every row
    when ``srr`` is near underflow, where the bounds fail and the product is
    skipped. The rows whose interval reaches the highest lower end are
    rescored with that pair, in family order; a NaN bound never excludes a
    row. The result is exactly what scoring every row with the scalar
    functionals gives, ties included, on either operand. Usually one row is
    rescored, a few on the float32 one.

    The rescore centres a row as ``h - total / T``, once per fit (in
    ``rows.rescore``). That is ``_centred(h)`` bit for bit: numpy sums each
    row of the C-contiguous matrix pairwise, as it sums the row alone. Usable
    rows are never constant, so of ``_centred``'s checks only ``shh == 0``
    is left.
    """
    # max - min is np.ptp, and the sum over the count is r.mean(), bit for
    # bit, each at less cost
    r_max, r_min = r.max(), r.min()
    if r_max - r_min == 0:
        return None
    count = len(r)
    r_mean = r.sum() / count
    rc = r - r_mean
    srr = float(rc @ rc)
    if srr == 0.0:  # pearson(r, h) is degenerate for every h
        return None

    X = family.values
    if srr < RESOLVED_FLOOR:  # the screen's rounding bounds fail: rescore every row
        near = pool.nonzero()[0]
    else:
        r_norm, r_spread = math.sqrt(float(r @ r)), math.sqrt(srr)
        # est, slack and the bounds below are in units of 1 / r_spread: a
        # score times r_spread. The score's error is about slack / 4.
        slack = rows.slack_factor * r_norm
        sign_bound = rows.sign_gain * r_norm
        if rows.operand is X:
            rows.screens[0] += 1
            est = (X @ rc) * rows.gain
        else:
            # rc scaled as the rows are: its largest |value| is r_max's or
            # r_min's distance from r_mean
            _, exponent = math.frexp(max(r_max - r_mean, r_mean - r_min))
            r32 = np.ldexp(rc, -exponent).astype(np.float32)
            rounding = ROUNDING_MARGIN * count * UNIT_ROUNDOFF32 * r_spread
            est = (rows.operand @ r32) * rows.gain * math.ldexp(1.0, exponent)
            sign_bound = sign_bound + rounding
            slack = slack + rounding
        # <h, r> = <h_c, r_c> + mean(r) * sum(h), here over the row's spread
        hr = est + rows.offset * r_mean
        # the sign of raw_rho is only certain where <h, r> clears its bound
        wide = np.where(np.abs(hr) > sign_bound, slack, np.inf)
        est = np.sign(hr) * est
        # fmax skips NaN, and a NaN bound never excludes a row
        floor = np.fmax.reduce((est - wide)[pool])
        near = (pool & ~(est + wide < floor)).nonzero()[0]

    best: tuple[int, Selection] | None = None
    for i in near:
        h = X[i]
        centred = rows.rescore.get(i)
        if centred is None:
            # as in _centred, a sum of squares that overflows is left for
            # _correlation to reject
            with np.errstate(over="ignore", invalid="ignore"):
                hc = h - rows.total[i] / count
                centred = rows.rescore[i] = (hc, float(hc @ hc))
        hc, shh = centred
        if shh == 0.0:  # _centred's DegenerateCorrelation
            continue
        try:
            raw_rho = argmin_rho(h, r)
        except ZeroCandidate:
            continue
        # pearson(r, h), on the residual centred above
        corr_i = _correlation(rc, srr, hc, shh)
        sign = 1.0 if raw_rho > 0 else (-1.0 if raw_rho < 0 else 0.0)
        score = sign * corr_i
        # strict improvement keeps the earliest row on ties
        if best is None or score > best[1].score:
            best = (int(i), Selection(family.ids[i], raw_rho, score))
    return best


class _Start(NamedTuple):
    """What every path on one family and target shares, whatever its alpha.

    The screen constants with their rescore cache, and the first step:
    its residual is the target and its pool every usable row.
    """

    rows: _Rows
    first: tuple[int, Selection] | None


def _start(family: Family, target: Series, name: str = "target") -> _Start:
    """The checked screen constants of ``family`` and the best row against ``target``.

    ``name`` names ``target`` in the errors of ``_checked_rows``.
    """
    rows = _checked_rows(family, target.values, name)
    if not rows.usable.any():
        return _Start(rows, None)
    return _Start(rows, _best(family, rows, target.values, rows.usable))


def _path(
    family: Family, target: Series, alpha: float, with_replacement: bool,
    start: _Start | None = None,
) -> Iterator[_Step]:
    """The greedy path: the best candidate against each successive residual.

    A step's weight is ``alpha * raw_rho`` and its prediction the last one plus
    ``weight * row``, as in ``_running_sums``; the next step selects against
    the target minus it. Without replacement a step leaves the pool when the
    next is pulled. The path ends when the pool is empty, which a count of
    its rows tells without a scan, or when ``_best`` finds the residual
    degenerate. No prediction overflows: a step removes at most the
    residual's projection on its row, so the prediction stays within twice
    the target's norm, which ``_checked_rows`` checked. ``start`` is
    ``_start(family, target)``, computed once for every alpha of a sweep.
    """
    rows, found = _start(family, target) if start is None else start
    # zero and constant members can never be selected, so they start outside
    pool = rows.usable.copy()
    left = int(np.count_nonzero(pool))
    prediction = np.zeros(family.grid.count)
    while found is not None:
        index, chosen = found
        weight = alpha * chosen.raw_rho
        prediction = prediction + weight * family.values[index]
        yield _Step(chosen.member_id, weight, chosen.raw_rho, chosen.score, prediction)
        if not with_replacement:
            pool[index] = False
            left -= 1
            if not left:
                return
        found = _best(family, rows, target.values - prediction, pool)


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
