"""Grids, series, families, target construction, and interval partitioning.

All types are immutable after construction and all operations are pure
functions. A ``Family`` fills three caches on first use: its ``members``,
the rows of its ids, and ``_derived``, a memo of values other modules
derive from its ``values``. None of them changes a value any function
returns, so every type is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSplit,
    EmptyFamily,
    InvalidParameter,
    NumericOverflow,
    RangeError,
)

TARGET_ID = "__target__"
PREDICTION_ID = "__prediction__"
RESIDUAL_ID = "__residual__"
CUMULATIVE_ID = "__cumulative__"

# Times written from a TimeGrid are start + k*step in floats, so a grid far
# from 0 (start 1e9, step 0.1) has spacings that differ by whole ulps. The
# product (at most twice the largest |t|) rounds by up to one ulp of the
# largest |t|, the sum by half of one: a time strays 1.5 ulps, a spacing 3,
# and a step inferred from the end points about 2 more.
SPACING_ROUNDING_ULPS = 3.0
TIME_ROUNDING_ULPS = 8.0


def _readonly_values(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series values must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series values must be finite (no NaN/inf)")
    arr.setflags(write=False)
    return arr


def _check_id(series_id) -> None:
    if not isinstance(series_id, str):
        raise ValueError(f"series id must be a str, got {series_id!r}")


def _integer(name: str, value, error: type[Exception]) -> int:
    """``value`` as a plain ``int``, so that a numpy integer writes to JSON.

    Anything that is not an integer, a bool included, raises ``error``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
    return number


def _real(name: str, value, error: type[Exception]) -> float:
    """``value`` as a plain ``float``, so that any real number writes to JSON.

    A bool, anything that is not a real number, and a number too large for a
    float (``10**400``) raise ``error``.
    """
    if isinstance(value, float):  # np.float64 too, and no float overflows
        return float(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{name} must be a real number, got {value!r}")


def _numeral(text: str, parse: type[int] | type[float]) -> int | float:
    """``text`` read by ``parse`` (``int`` or ``float``): the one grammar of numbers as text.

    Whitespace around it, Unicode spaces too, is dropped; the rest must be ASCII with no
    "_". Nonzero digits that round to inf or to 0 ("1e400", "1e-400") are "out of range",
    named as given; the words inf and nan pass, for value checks, as does every zero.
    """
    text = text.strip()
    try:
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = parse(text)
    except ValueError:
        raise ValueError(f"not {'an integer' if parse is int else 'a number'}: {text!r}") from None
    digits = text.lower().partition("e")[0]
    if abs(value) in (0, math.inf) and digits.strip("+-.0") and any(map(str.isdigit, digits)):
        raise ValueError(f"out of range: {text!r}")
    return value


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling: sample k sits at start + k*step for k in [0, count).

    ``start`` and ``step`` are stored as plain ``float``s and ``count`` as a
    plain ``int``; a value that is not a real number, or not an integer, is a
    ValueError, like every other check here.
    """

    start: float
    step: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "start", _real("grid start", self.start, ValueError))
        object.__setattr__(self, "step", _real("grid step", self.step, ValueError))
        object.__setattr__(self, "count", _integer("grid count", self.count, ValueError))
        if not (math.isfinite(self.start) and math.isfinite(self.step)):
            raise ValueError(
                f"grid start and step must be finite, got {self.start}, {self.step}"
            )
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        if self.count < 2:
            raise ValueError(f"grid count must be at least 2, got {self.count}")
        # A spacing between two of the grid's times strays from the step by
        # up to SPACING_ROUNDING_ULPS ulps of the largest |t|. So a larger
        # step keeps the times increasing, and a smaller one may not: far
        # from 0 they collapse into one value (start 1e15, step 1e-3), from
        # which no reader recovers the grid. The bound is the real spacing,
        # not eps * |t|, which can be twice it: epoch times in whole
        # microseconds (near 1.7e15) are exact and 4 ulps apart.
        try:
            largest = max(abs(self.start), abs(self.start + self.step * (self.count - 1)))
        except OverflowError:  # a count beyond the float range
            largest = math.inf
        if self.step <= SPACING_ROUNDING_ULPS * math.ulp(largest):
            raise ValueError(
                f"grid step {self.step} does not resolve times as large as {largest:g}"
            )

    def times(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True, eq=False)
class Series:
    """One component series: a stable ``str`` id plus finite real values."""

    id: str
    values: np.ndarray

    def __post_init__(self):
        _check_id(self.id)
        object.__setattr__(self, "values", _readonly_values(self.values))

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.values, other.values)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ does not tell apart
        return hash((self.id, (self.values + 0.0).tobytes()))

    @classmethod
    def _view(cls, id: str, values: np.ndarray) -> Series:
        """Series over an array that is already read-only, finite and 1-D, uncopied."""
        series = object.__new__(cls)
        object.__setattr__(series, "id", id)
        object.__setattr__(series, "values", values)
        return series


class Family:
    """Ordered candidate series sharing one grid, held as one ``(N, T)`` matrix.

    Row ``i`` of the read-only float ``values`` matrix is member ``ids[i]``;
    each row is contiguous (the inner stride is the item size), and the rows
    may sit apart, as in a column slice of a wider matrix. Member order is
    stable and acts as the tie-breaking order during selection. Ids must be
    pairwise distinct ``str``s. ``Family(grid, members)`` copies the members'
    values into a new matrix, which the family owns; ``members`` hands the
    rows back as ``Series`` views without copying, and ``restrict_family`` a
    window of the columns as a family over a view.
    """

    def __init__(self, grid: TimeGrid, members=()):
        members = tuple(members)
        for m in members:
            if len(m.values) != grid.count:
                raise ValueError(
                    f"member {m.id!r} has {len(m.values)} samples, "
                    f"grid expects {grid.count}"
                )
        values = np.array([m.values for m in members], dtype=float)
        values = values.reshape(len(members), grid.count)
        self._init(grid, tuple(m.id for m in members), values)

    @classmethod
    def _from_matrix(cls, grid: TimeGrid, ids, values) -> Family:
        """Family over the rows of an ``(N, T)`` float array, taken over uncopied.

        For the package's own builders, which hand over an array whose
        values they have checked finite and whose rows are contiguous, and
        which nothing else writes to: it is made read-only, not copied or
        scanned again.
        """
        family = cls.__new__(cls)
        family._init(grid, tuple(ids), values)
        return family

    def _init(self, grid: TimeGrid, ids: tuple[str, ...], values: np.ndarray) -> None:
        if values.shape != (len(ids), grid.count):
            raise ValueError(
                f"values have shape {values.shape}, expected ({len(ids)}, {grid.count})"
            )
        seen = set()
        for member_id in ids:
            _check_id(member_id)
            if member_id in seen:
                raise ValueError(f"duplicate member id {member_id!r}")
            seen.add(member_id)
        self._hold(grid, ids, values)

    def _hold(self, grid: TimeGrid, ids: tuple[str, ...], values: np.ndarray) -> None:
        """Take ``values`` over read-only; its shape and the ids are already checked."""
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"Family is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Family):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.ids == other.ids
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.grid, self.ids))

    def __repr__(self) -> str:
        return f"Family(grid={self.grid!r}, members={len(self.ids)})"

    def __len__(self) -> int:
        return len(self.ids)

    @functools.cached_property
    def members(self) -> tuple[Series, ...]:
        return tuple(Series._view(i, row) for i, row in zip(self.ids, self.values))

    @functools.cached_property
    def _rows(self) -> dict[str, int]:
        return {member_id: i for i, member_id in enumerate(self.ids)}

    def index_of(self, member_id: str) -> int | None:
        """Row of a member in ``values``, or None when it is not in the family."""
        return self._rows.get(member_id)

    def member(self, member_id: str) -> Series | None:
        i = self.index_of(member_id)
        return None if i is None else Series._view(member_id, self.values[i])

    @functools.cached_property
    def _derived(self) -> dict:
        """Memo of values derived from ``values``, filled by the modules that use them."""
        return {}


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train/validation/test partition, given as head fractions.

    Whatever the two fractions leave over becomes an internal test segment.
    The fractions are stored as plain ``float``s. One that is not a real
    number, or lies outside its range, is an InvalidParameter.
    """

    train_fraction: float
    validation_fraction: float

    def __post_init__(self):
        for name in ("train_fraction", "validation_fraction"):
            frac = _real(name, getattr(self, name), InvalidParameter)
            object.__setattr__(self, name, frac)
            if not 0.0 < frac < 1.0:
                raise InvalidParameter(f"{name} must lie in (0, 1), got {frac}")
        if self.train_fraction + self.validation_fraction > 1.0:
            raise InvalidParameter(
                "train_fraction + validation_fraction must not exceed 1"
            )


def aggregate_target(family: Family) -> Series:
    """Pointwise sum of all members, under the reserved id "__target__"."""
    if not len(family):
        raise EmptyFamily("cannot aggregate an empty family")
    # reducing over axis 0 adds the rows one after another, in member order
    with np.errstate(over="ignore"):
        total = family.values.sum(axis=0)
    if not np.isfinite(total).all():
        raise NumericOverflow("the sum of the members overflows")
    return Series(TARGET_ID, total)


def split(grid: TimeGrid, spec: SplitSpec) -> tuple[range, range, range]:
    """Partition [0, count) into contiguous train, validation, test ranges.

    Train takes floor(train_fraction * count) samples from the front,
    validation the next floor(validation_fraction * count), test the rest.
    Every segment must keep at least 2 samples.
    """
    n = grid.count
    n_train = math.floor(spec.train_fraction * n)
    n_val = math.floor(spec.validation_fraction * n)
    n_test = n - n_train - n_val
    for name, length in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if length < 2:
            raise DegenerateSplit(f"{name} segment has {length} samples, need at least 2")
    return (
        range(0, n_train),
        range(n_train, n_train + n_val),
        range(n_train + n_val, n),
    )


def restrict(series: Series, index_range: range) -> Series:
    """Slice a series to an index range, keeping its id."""
    _check_range(index_range, len(series.values))
    return Series(series.id, series.values[index_range.start : index_range.stop])


def restrict_family(family: Family, index_range: range) -> Family:
    """Restrict every member to an index range; the grid shifts accordingly.

    The result shares the family's ids and reads its values through a
    read-only view of the matrix's columns in the range: nothing is copied,
    and the values are not checked again. So holding a window keeps the
    whole parent matrix alive.
    """
    _check_range(index_range, family.grid.count)
    grid = TimeGrid(
        start=family.grid.start + index_range.start * family.grid.step,
        step=family.grid.step,
        count=len(index_range),
    )
    window = Family.__new__(Family)
    # the parent's ids are distinct and its values finite, so neither is
    # checked again
    window._hold(grid, family.ids, family.values[:, index_range.start : index_range.stop])
    return window


def _check_range(index_range: range, n: int) -> None:
    if index_range.step != 1:
        raise RangeError("index ranges must have step 1")
    if len(index_range) == 0:
        raise RangeError("empty index range")
    if index_range.start < 0 or index_range.stop > n:
        raise RangeError(
            f"range [{index_range.start}, {index_range.stop}) outside [0, {n})"
        )
