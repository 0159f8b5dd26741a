"""Greedy panel extraction: stagewise least squares with a correlation screen.

``fit`` grows a weighted panel along one greedy path. Each step scores every
remaining candidate by the correlation of its least-squares scaling with the
current residual, selects the best, and advances the prediction by its shrunk
weight. The panel is the longest prefix of the path within the panel size
whose every score clears the lower bound. Without replacement, selected
members leave the pool, so a panel never contains the same member twice.

Candidates are the rows of the family's ``(N, T)`` matrix. Each iteration
scores all of them from the product of the matrix with the residual, which
moves forward from step to step (below), and rescores only the rows that
product cannot separate from the best with the
scalar ``argmin_rho`` and ``pearson``, so selections, weights, scores and
tie-breaks (earliest family position wins) are exactly those of scoring
every candidate with the scalar functionals. Every screen quantity that
depends on the family alone is computed on its first fit and kept
(``_checked_rows``), and each step only scales those by scalars of its
residual, in units of ``1 / spread(r)`` so that it never divides. A row
whose sign of ``raw_rho`` the screen cannot tell gets an infinite
interval, so it is always rescored.
The rescore copies each row it reads, so the copy starts on a 16-byte
boundary wherever the row sits in the matrix, and centres the copy with
the row's sum (see ``_best``). A residual is compared value by value for
constancy only where its centred sum of squares is small enough for a
constant one to give it (``functional._constant``), and a path's pool is
two arrays: ``mask`` marks its rows, and ``slack`` gives each row outside
it a NaN slack, so that the floor of the rows' intervals is one plain
reduction (``_best``).
Dots of two vectors are ``ndarray.dot``, the BLAS call of ``@`` bit for
bit, without the dispatch of the matmul ufunc (about 0.4 us a call at the
benchmark's shapes). The screen's matrix-vector products stay ``@``:
``ndarray.dot`` takes another OpenBLAS gemv path there, which raised a CLI
fit's peak RSS by about 0.25 MB. The outer loop is inherently sequential
because each iteration consumes the previous residual, and it ends when a
count of the pool's rows reaches 0 or the residual is degenerate. Each
step carries its weight and its prediction, from which ``fit`` takes its
terms and trace and the sweep its train predictions. The sweep's paths,
one per distinct alpha, share the screen quantities, the first step and
the product of the matrix with the target (``_start``): none depends on
alpha.

The screen's product moves with the residual. A step subtracts ``w_k *
h_k`` from the residual, so it subtracts ``w_k * <h, h_k>`` from every
row's ``<h, r>``: ``_start`` takes one gemv of the matrix with the target
``y``, and each later step updates that N-vector by the Gram column of its
row, ``values @ values[row]``, in place of a gemv over the matrix. The
columns are a pure function of the family, so its screen constants keep
them for every later path on it (``_Rows.gram``), in units of each row's
spread: at most T of them, the bytes of the matrix, emptied when full.
Threads sharing a family may at worst build its constants or a column
twice, or each add a column past the bound. A column costs one gemv when
first used, so a family fit once pays one gemv per step, as screening
against each residual would; a family fit again along the members it has
seen pays none. On select-wide (2000x438), where every fit steps by the
members of the last one, a fit of 10 steps takes about 0.4x the time of a
fit with a gemv per step.

``_best`` estimates ``<h_c, r_c>`` as ``<h, r> - mean(r) * sum(h)``:
``r_c`` sums to 0, so ``<h, r_c> = <h_c, r_c>``. Over the row's spread
that is the estimate of the score times ``spread(r)``, and ``<h, r>``
itself gives the sign of ``raw_rho``. Each row's score slack is sized per
unit of ``|r|`` for an estimate that errs by at most about ``(T + 2) *
eps * |h| * |r|`` over the row's spread, with ``ROUNDING_MARGIN`` to
spare, and the sign's bound is ``ROUNDING_MARGIN * T * eps * |h| * |r|``.

With ``u = eps / 2``, weights ``w_j`` of rows ``h_j`` and ``mass = |y| +
sum(|w_j| * |h_j|)``, which bounds ``|r|`` and every partial prediction,
after k steps each entry of the estimate differs from what the rescore's
centred dot gives on the computed residual ``r`` by at most about these
multiples of ``u * |h| * mass``:

- ``T`` for the gemvs: the first one, on ``y``, and one per column, on
  ``h_j``, which enters weighted by ``|w_j|``; a length-T dot errs by at
  most ``T * u`` times the product of its operands' norms, in any order
  of summation;
- ``3 * k`` for the updates: a column's scaling by the spread, its
  weighting and the subtraction round once each, and every partial result
  is at most ``|h| * mass``;
- ``k + 1`` for the prediction, whose k additions each round by at most
  ``u`` of a partial prediction, and 1 for the residual ``y - prediction``;
- ``2 * T`` for the centring: the row sum and the sum of ``r``, which the
  rescore centres ``r`` on, each err by at most ``T * u`` times the sum of
  absolute values, and enter multiplied by a mean of the other side;
- a few more for the first scaling and ``mean(r) * sum(h)``.

That is about ``(3T + 4k + 6) * u``, at most ``(T + 2) * eps`` per unit
of ``bound = 2 * max(|r|, mass * (1 + k / T))``, and the sign's error,
which lacks the centring, is smaller. So each slack and the sign's bound
scale by ``bound`` in place of ``|r|``. ``_start``'s gemv on the target is
the case k = 0, ``mass = |r|``, where ``bound`` is ``2 * |r|``. Where the
residual has collapsed far below ``mass``, the intervals widen until every
row is rescored. The rescore is unchanged, so the product's error changes
only how many rows are rescored, never a result.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
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
from .functional import (
    EPS,
    RESOLVED_FLOOR,
    ROUNDING_MARGIN,
    TransformKind,
    _check_kind,
    _constant,
    _correlation,
    _weight,
)
from .series import PREDICTION_ID, RESIDUAL_ID, Family, Series, TimeGrid, _integer, _real

WEIGHT_TOLERANCE = 1e-12

FLOAT_MAX = float(np.finfo(float).max)


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
    value outside its range are an InvalidParameter. ``panel_size`` lies in
    [1, sys.maxsize], the largest count a path can be cut at.
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
        if self.panel_size > sys.maxsize:
            raise InvalidParameter(
                f"panel_size must be at most {sys.maxsize}, got {self.panel_size}"
            )
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
    row: int  # the member's row in the family's matrix
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
    found = _start(candidates, residual, "residual").first
    values = residual.values
    if values.max() == values.min():
        raise DegenerateResidual("residual has zero variance")
    if found is None or found[1].score < config.lbound:
        return None
    return found[1]


class _Rows(NamedTuple):
    """Per-row quantities of a family that the selection screen reuses.

    All of it depends on the matrix alone: ``_checked_rows`` builds it once
    per family, and ``_best`` only scales it by its residual's scalars.
    With ``unit = ROUNDING_MARGIN * T * eps``:

    ``total`` is the row sum and ``norm`` the square root of the row's sum
    of squares ``sq_norm``. ``centred_sq = sq_norm - total * (total / T)``
    is the sum of squares about the row mean, cheap but cancelling when the
    mean dominates the spread. Its error is at most ``unit * sq_norm``: the
    subtracted term is at most ``sq_norm`` (Cauchy-Schwarz), and dividing
    before multiplying, which keeps ``total * total`` from overflowing, adds
    only one rounding of it. A row is unresolved where that bound reaches
    centred_sq itself, or where centred_sq is small enough to underflow.
    ``inv_spread``, which puts a row's ``<h, r>`` in units of its spread,
    is ``1 / sqrt(centred_sq)`` on resolved rows and 0 on unresolved ones,
    so that ``_best`` multiplies where it would divide and no estimate is
    ever infinite or NaN. ``offset`` is ``total * inv_spread`` and
    ``sign_gain`` is ``unit * norm * inv_spread``, the bound on <h, r> per
    unit of ``|r|`` in the same units. ``usable`` marks the rows that are
    neither zero nor constant; it is exact (only unresolved rows can be
    constant, and those are checked value by value). The other rows can
    never be selected, but their screen interval is the whole range, so
    without the mask they would be rescored every iteration.
    ``slack_factor`` is ``unit * (1 + sqrt(sq_norm / centred_sq))**2``, the
    score's rounding bound per unit of ``|r| / spread(r)``: infinite on
    unresolved rows, whose score the screen cannot bound, and NaN on rows
    that are not usable, as a path's fresh ``slack`` holds it. ``gram`` holds
    ``_column``'s Gram columns. The module docstring derives the screen's
    rounding bound.
    """

    total: np.ndarray
    norm: np.ndarray
    inv_spread: np.ndarray
    offset: np.ndarray
    sign_gain: np.ndarray
    slack_factor: np.ndarray
    usable: np.ndarray
    gram: dict[int, np.ndarray]


def _checked_rows(family: Family, y: np.ndarray, name: str) -> _Rows:
    """The family's screen constants, once the family and ``y`` pass their checks.

    In order: an empty family, a ``y`` off the grid, a sum of squares of
    ``y`` that is not finite, and a candidate's sum of squares ``s`` that is
    not below ``FLOAT_MAX / (1 + (T + 3) * eps)`` raise, the last two a
    NumericOverflow: every score computed from such an ``s`` would be
    meaningless, or the rescore's dots could overflow. Below that bound,
    ``centred_sq`` is finite too, since its subtracted term is at most ``s``
    but for one rounding. The first call past every check keeps the
    constants in ``family._derived``, so a family with such a candidate
    keeps nothing, and every call on it raises.

    The bound keeps the rescore's two sums of squares in ``_best`` finite.
    With the unit roundoff ``u = eps / 2``, a sum of T nonnegative rounded
    products lies within a factor ``(1 +- u)**T`` of its exact value in any
    order of summation: ``s >= S * (1 - u)**T`` for ``S = sum(h**2)``, and
    ``h @ h <= S * (1 + u)**T``. For the centred copy, with ``m`` the
    computed mean, ``sum((h - m)**2) = S - T * mean(h)**2 + T * (mean(h) -
    m)**2``, and the sum's rounding puts ``|mean(h) - m|`` within about ``u
    * sum(|h|)``, so the last term is at most ``(T * u)**2 * S``
    (Cauchy-Schwarz). Each ``hc`` value rounds once more, so ``hc @ hc <= S
    * (1 + (T * u)**2) * (1 + u)**(T + 2)``. Both dots are then at most ``s
    * (1 + (T + 1) * eps)`` to first order, which leaves ``2 * eps`` for the
    higher orders. No ``hc`` value overflows: ``|h|`` and ``|m|`` are at
    most ``sqrt(s)`` but for rounding, far below the maximum.
    """
    count = family.grid.count
    if not len(family):
        raise EmptyFamily("no candidates to select from")
    if len(y) != count:
        raise ShapeError(f"{name} has {len(y)} samples, grid expects {count}")
    with np.errstate(over="ignore"):
        if not math.isfinite(y.dot(y)):
            raise NumericOverflow(f"the {name}'s sum of squares overflows")
    rows = family._derived.get(_Rows)
    if rows is not None:
        return rows
    values = family.values
    unit = ROUNDING_MARGIN * count * EPS
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sq_norm, total = np.einsum("ij,ij->i", values, values), values.sum(axis=1)
        bounded = sq_norm < FLOAT_MAX / (1.0 + (count + 3) * EPS)
        if not bounded.all():
            member = family.ids[np.flatnonzero(~bounded)[0]]
            raise NumericOverflow(f"member {member!r}: its sum of squares overflows")
        centred_sq = sq_norm - total * (total / count)
        unresolved = (centred_sq <= unit * sq_norm) | (centred_sq < RESOLVED_FLOOR)
        usable = sq_norm > 0.0
        if unresolved.any():
            suspects = np.flatnonzero(unresolved)
            usable[suspects] &= np.ptp(values[suspects], axis=1) != 0
        h_norm, h_spread = np.sqrt(sq_norm), np.sqrt(centred_sq)
        slack_factor = np.where(unresolved, np.inf, unit * (1.0 + h_norm / h_spread) ** 2)
        slack_factor[~usable] = np.nan
        inv_spread = np.where(unresolved, 0.0, 1.0 / h_spread)
    rows = family._derived[_Rows] = _Rows(
        total, h_norm, inv_spread, total * inv_spread, unit * h_norm * inv_spread,
        slack_factor, usable, {})
    return rows


def _intervals(
    rows: _Rows, hr: np.ndarray, slack: np.ndarray, r_mean: float, bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's screen interval ``[est - wide, est + wide]``, as ``_best`` reads it.

    ``hr`` less ``r_mean * sum(h)`` is <h_c, r_c> over the row's spread, so
    ``est``, signed as raw_rho is, estimates the score times ``spread(r)``,
    and the screen never divides. ``wide`` is ``slack * bound`` (NaN outside
    the pool) where ``|hr|`` clears the sign's bound, and infinite where it
    does not. Where ``wide`` is finite, the interval holds the scalar
    ``argmin_rho``/``pearson`` score times ``spread(r)``, by the bound the
    module docstring derives.
    """
    width = slack * bound
    # the sign of raw_rho is only certain where <h, r> clears its bound
    wide = np.where(np.abs(hr) > rows.sign_gain * bound, width, np.inf)
    # <h_c, r_c> = <h, r> - mean(r) * sum(h), here over the row's spread
    est = np.sign(hr) * (hr - rows.offset * r_mean)
    return est, wide


def _best(
    family: Family, rows: _Rows, r: np.ndarray, mask: np.ndarray, slack: np.ndarray,
    hr: np.ndarray, drift: float,
) -> tuple[int, Selection] | None:
    """Row and selection of the best candidate among the pool rows, whatever its score.

    The pool is two arrays: ``mask`` marks the rows to consider, a nonempty
    subset of ``rows.usable``, and ``slack`` is ``rows.slack_factor`` on
    them and NaN on every other row. None only when the residual ``r`` is
    degenerate: constant, or srr == 0. ``r`` is a fresh array, so it starts
    on a 16-byte boundary, as ``argmin_rho``'s copies do.

    ``hr`` is every row's <h, r> over the row's spread: ``_start``'s product
    with the target, moved forward by k Gram columns along a path, and
    ``drift`` is ``mass * (1 + k / T)`` for the path's ``mass``, 0 at k = 0
    (see the module docstring). It only screens: ``_intervals`` gives each
    row an interval that provably holds its scalar score, and every row
    gets an infinite one when ``srr`` is near underflow, where the bounds
    fail and the product is not read. The floor is the highest lower end
    over the pool: one ``np.fmax`` reduction over every row, since a row
    outside the pool has a NaN lower end, which fmax skips, or -inf where
    its sign is uncertain (if no pool row has a lower end that is not NaN,
    the floor is NaN or -inf, and every pool row is rescored). The pool
    rows whose upper end is not below the floor are rescored with the
    scalar ``argmin_rho``/``pearson`` pair, in family order; a NaN bound
    never excludes a pool row, and never admits a row outside the pool.
    The result is exactly what scoring every row with the scalar
    functionals gives, ties included. Usually one row is rescored.

    ``mean(r)`` is ``sum(r) / T``, ``r.mean()`` bit for bit, and ``|r|**2``
    is taken as ``srr + T * mean(r)**2``. That is ``sum((r - mean(r))**2) +
    T * mean(r)**2`` but for rounding, within a relative ``3 * T * eps`` of
    ``|r|**2``, as a computed ``r @ r`` is within ``T * eps``: the slack's
    margin covers either. Whether ``r`` is constant is asked of
    ``functional._constant``, which compares its values only where ``srr``
    is small enough for a constant ``r`` to give it (the bound is derived
    there).

    The rescore reads a fresh copy ``h`` of each row, which starts on a
    16-byte boundary wherever the row sits in the matrix, and its centred
    copy ``hc = h - total / T``. ``raw_rho`` is ``_weight(h @ r, h @ h)``,
    which is ``argmin_rho(h, r)`` bit for bit, and ``hc`` is ``_centred(h)``
    bit for bit: each row of the matrix is contiguous, and numpy sums it
    pairwise as it sums the row alone, wherever the row starts. Usable rows
    are never zero or constant, so of ``_centred``'s checks only ``hc @ hc
    == 0`` is left. Neither sum of squares overflows, by the bound
    ``_checked_rows`` puts on the rows.
    """
    count = len(r)
    # the sum over the count is r.mean(), bit for bit, at less cost;
    # np.add.reduce is ndarray.sum without its Python wrapper
    r_mean = float(np.add.reduce(r)) / count
    rc = r - r_mean
    srr = float(rc.dot(rc))
    if srr == 0.0:  # pearson(r, h) is degenerate for every h
        return None
    # |r|**2, but for rounding, without a pass over r
    rr = srr + count * r_mean * r_mean
    if _constant(r, srr, rr):
        return None
    X = family.values

    if srr < RESOLVED_FLOOR:  # the screen's rounding bounds fail: rescore every row
        near = mask.nonzero()[0]
    else:
        # the module docstring derives the bound
        bound = 2.0 * max(math.sqrt(rr), drift)
        est, wide = _intervals(rows, hr, slack, r_mean, bound)
        # fmax skips NaN, and a NaN bound never excludes a row
        floor = np.fmax.reduce(est - wide)
        # pool rows whose upper end is not below the floor (True > False)
        near = (mask > (est + wide < floor)).nonzero()[0]

    best: tuple[int, Selection] | None = None
    for i in near.tolist():
        h = X[i].copy()
        hc = h - rows.total[i] / count
        shh = float(hc.dot(hc))
        if shh == 0.0:  # _centred's DegenerateCorrelation
            continue
        try:
            raw_rho = _weight(float(h.dot(r)), float(h.dot(h)))
        except ZeroCandidate:
            continue
        # pearson(r, h), on the residual centred above
        corr_i = _correlation(rc, srr, hc, shh)
        sign = 1.0 if raw_rho > 0 else (-1.0 if raw_rho < 0 else 0.0)
        score = sign * corr_i
        # strict improvement keeps the earliest row on ties
        if best is None or score > best[1].score:
            best = (i, Selection(family.ids[i], raw_rho, score))
    return best


class _Start(NamedTuple):
    """What every path on one family and target shares, whatever its alpha.

    The screen constants, the product of the matrix with the target over
    each row's spread (None when no row is usable), and the first step: its
    residual is the target and its pool every usable row.
    """

    rows: _Rows
    hr: np.ndarray | None
    first: tuple[int, Selection] | None


def _start(family: Family, target: Series, name: str = "target") -> _Start:
    """The checked screen constants of ``family`` and the best row against ``target``.

    ``name`` names ``target`` in the errors of ``_checked_rows``.
    """
    rows = _checked_rows(family, target.values, name)
    if not rows.usable.any():
        return _Start(rows, None, None)
    # a copy, as _best asks: the target may be a row view of a family
    y = target.values.copy()
    hr = (family.values @ y) * rows.inv_spread
    # the pool of every usable row, read and never written
    return _Start(rows, hr, _best(family, rows, y, rows.usable, rows.slack_factor, hr, 0.0))


def _column(family: Family, rows: _Rows, row: int) -> np.ndarray:
    """``values @ values[row]`` over each row's spread, from ``rows.gram``.

    A missing column is computed, once the cache has been emptied if it
    already holds T columns.
    """
    gram = rows.gram
    column = gram.get(row)
    if column is None:
        if len(gram) >= family.grid.count:
            gram.clear()
        column = gram[row] = (family.values @ family.values[row]) * rows.inv_spread
    return column


def _path(
    family: Family, target: Series, alpha: float, with_replacement: bool,
    start: _Start | None = None,
) -> Iterator[_Step]:
    """The greedy path: the best candidate against each successive residual.

    A step's weight is ``alpha * raw_rho`` and its prediction the last one plus
    ``weight * row``, as in ``_running_sums``; the next step selects against
    the target minus it. The screen's product moves by the step's Gram
    column (``_column``) and ``mass``, which bounds its rounding, by
    ``|weight| * |row|`` (see the module docstring). Without replacement a
    step leaves the pool when the next is pulled. The path ends when the
    pool is empty, which a count of its rows tells without a scan, or when
    ``_best`` finds the residual degenerate. No prediction overflows: a
    step removes at most the residual's projection on its row, so the
    prediction stays within twice the target's norm, which
    ``_checked_rows`` checked. ``start`` is ``_start(family, target)``,
    computed once for every alpha of a sweep.
    """
    rows, hr, found = _start(family, target) if start is None else start
    # zero and constant members can never be selected, so they start outside;
    # a row leaves the pool by being cleared in both arrays
    mask, slack = rows.usable.copy(), rows.slack_factor.copy()
    left = int(np.count_nonzero(mask))
    y = target.values
    count = family.grid.count
    prediction = np.zeros(count)
    mass = math.sqrt(float(y.dot(y)))
    steps = 0
    while found is not None:
        index, chosen = found
        weight = alpha * chosen.raw_rho
        prediction = prediction + weight * family.values[index]
        yield _Step(chosen.member_id, index, weight, chosen.raw_rho, chosen.score, prediction)
        if not with_replacement:
            mask[index] = False
            slack[index] = np.nan
            left -= 1
            if not left:
                return
        hr = hr - weight * _column(family, rows, index)
        mass += abs(weight) * float(rows.norm[index])
        steps += 1
        drift = mass * (1.0 + steps / count)
        found = _best(family, rows, y - prediction, mask, slack, hr, drift)


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
    rows = [family.index_of(term.member_id) for term in model.terms]
    if None in rows:
        raise MissingPanelMember(model.terms[rows.index(None)].member_id)
    weights = [term.weight for term in model.terms]
    return Series(PREDICTION_ID, _running_sums(weights, family.values[rows])[-1])


def _running_sums(weights: Sequence[float], values: np.ndarray) -> np.ndarray:
    """Prediction of every prefix of a panel: row k sums its first k terms.

    Term k is ``weights[k]`` times row k of ``values``, the ``(K, T)``
    matrix of the members' observations. The cumulative sum down the rows
    of ``[zeros; weight_k * row_k]`` adds the terms one after another, from
    zeros, as ``_path`` does, on observations the path did not walk:
    ``predict`` takes the last row, the sweep every row it reads on
    validation. Once a prefix is not finite, every longer one is not
    either, so checking the last covers all.
    """
    sums = np.zeros((len(weights) + 1, values.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(np.array(weights)[:, None], values, out=sums[1:])
        sums = sums.cumsum(axis=0)
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
