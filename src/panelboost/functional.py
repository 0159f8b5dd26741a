"""Scalar functionals: inner product, correlation, transforms, and costs.

Everything here is a pure function of plain real sequences; the boosting
loop feeds in raw value arrays. The inner product is the unweighted sum of
products: correlation and the least-squares weight are invariant to a common
positive grid factor, so no step weighting is applied anywhere.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import (
    DegenerateCorrelation,
    DomainError,
    EmptyInput,
    InvalidParameter,
    NumericOverflow,
    ShapeError,
    ZeroCandidate,
)
from .series import _real

DOMAIN_TOLERANCE = 1e-9

EPS = float(np.finfo(float).eps)
# Bound, in units of T * eps, on the rounding error of the length-T sums and
# dot products that ``_constant`` and the selection screen in ``boost`` rely
# on (relative to the scales stated where they are used); rounding analyses
# of those uses give at most about 4, so this leaves at least a factor of 4
# to spare.
ROUNDING_MARGIN = 16.0
# Below this, underflow in those sums breaks the relative bound.
RESOLVED_FLOOR = float(np.finfo(float).tiny) / EPS


class TransformKind(enum.Enum):
    """Correlation-to-penalty transforms; both vanish at +1 on [-1, 1].

    RECIPROCAL is convex and strictly decreasing: 1/(2+x) - 1/3.
    WITCH is even, decreasing on [0, 1]: 1/(1+x^2) - 1/2.
    """

    RECIPROCAL = "reciprocal"
    WITCH = "witch"


def _as_array(values, name: str = "values") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_pair(f, g) -> tuple[np.ndarray, np.ndarray]:
    fa = _as_array(f, "f")
    ga = _as_array(g, "g")
    if len(fa) != len(ga):
        raise ShapeError(f"length mismatch: {len(fa)} vs {len(ga)}")
    return fa, ga


def _finite(value: float, message: str) -> float:
    """``value`` when it is finite; otherwise a NumericOverflow with ``message``."""
    if not math.isfinite(value):
        raise NumericOverflow(message)
    return value


def mean(values) -> float:
    """Arithmetic mean; a sum that overflows is a NumericOverflow, with no warning."""
    arr = _as_array(values)
    if len(arr) == 0:
        raise EmptyInput("mean of an empty sequence")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(arr.mean()), "the sum overflows")


def inner(f, g) -> float:
    """Discrete inner product: sum of f[i] * g[i].

    Like ``argmin_rho``, it reads fresh copies of its operands, so the
    result does not depend on where they sit in memory. A dot that
    overflows is a NumericOverflow, with no warning.
    """
    fa, ga = _as_pair(f, g)
    if len(fa) == 0:
        raise EmptyInput("inner product of empty sequences")
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(float(fa.copy() @ ga.copy()), "the inner product overflows")


def pearson(f, g) -> float:
    """Pearson correlation, clamped to [-1, 1] against rounding overshoot.

    Raises DegenerateCorrelation (carrying the side) when either sequence
    has zero variance, and NumericOverflow when a centred sum of squares
    (or the mean it is centred on) overflows the float range.
    """
    fa, ga = _as_pair(f, g)
    return _correlation(*_centred(fa, "left"), *_centred(ga, "right"))


def _centred(x: np.ndarray, side: str) -> tuple[np.ndarray, float]:
    """``x`` less its mean, and the sum of squares of that difference.

    A constant ``x``, or one shorter than 2, raises DegenerateCorrelation
    naming ``side``. A sum of squares that overflows is returned as it is,
    for ``_correlation`` to reject.
    """
    count = len(x)
    if count < 2:
        raise DegenerateCorrelation(side)
    with np.errstate(over="ignore", invalid="ignore"):
        # the sum over the count is ndarray.mean bit for bit, at less cost
        x_mean = float(x.sum()) / count
        xc = x - x_mean
        sxx = float(xc @ xc)
    # an exact-constant x whose float mean leaves residues has a small but
    # nonzero sxx, which _constant tells from a spread one
    if sxx == 0.0 or _constant(x, sxx, sxx + count * x_mean * x_mean):
        raise DegenerateCorrelation(side)
    return xc, sxx


def _constant(x: np.ndarray, ss: float, sq: float) -> bool:
    """Whether ``x`` is constant, given ``ss``, its centred sum of squares.

    ``ss`` is computed as ``_centred`` does, and ``sq`` is ``x``'s sum of
    squares, or the estimate ``ss + T * mean**2``, which is within a
    relative ``3 * T * eps`` of it. Only where ``ss <= (ROUNDING_MARGIN * T
    * eps)**2 * sq``, or where ``ss`` is below ``RESOLVED_FLOOR``, can ``x``
    be constant, so only there are its largest and smallest values compared.
    They are compared for equality, which for finite values is ``np.ptp(x)
    == 0`` and, unlike that difference, cannot overflow.

    For a constant ``x = c`` of length ``T``, the mean is within ``(T + 1)
    * eps * |c|`` of ``c`` (the sum's rounding and the division's), so
    every centred value is the same ``d``, with ``|d| <= (T + 2) * eps *
    |c|``: once the mean is within a factor 2 of ``c``, the subtraction is
    exact. Then ``ss`` is ``T * d**2`` and ``sq`` is ``T * c**2``, each
    within a relative ``3 * T * eps``, so ``ss <= ((T + 2) * eps)**2 * (1 +
    7 * T * eps) * sq``: under the bound by a factor of more than 60 for
    any ``T >= 2`` whose rounding bounds hold at all. Above
    ``RESOLVED_FLOOR`` each ``d**2`` and ``c**2`` is a normal float, so no
    underflow breaks that relative bound, and an ``sq`` that overflows makes
    the bound infinite. A constant ``x`` whose sum overflows has an
    infinite ``ss`` and ``sq``, so it is compared too. An ``ss`` that is NaN
    (``x`` holds NaN or an infinity) never is, and ``x`` is not constant,
    as ``np.ptp(x)``, then NaN, is not 0.
    """
    unit = ROUNDING_MARGIN * len(x) * EPS
    if ss < RESOLVED_FLOOR or ss <= unit * unit * sq:
        return x.max() == x.min()
    return False


def _correlation(fc: np.ndarray, sff: float, gc: np.ndarray, sgg: float) -> float:
    """Correlation of two centred sequences given their sums of squares.

    The sums come from ``_centred``; one that is not finite is a
    NumericOverflow.
    """
    if not (math.isfinite(sff) and math.isfinite(sgg)):
        raise NumericOverflow("a centred sum of squares overflows")
    denom = math.sqrt(sff * sgg)
    if denom == 0.0 or denom == math.inf:
        # the product of two finite, nonzero sums left the float range; the
        # split form is only a fallback because it moves the last bit of
        # ordinary scores
        denom = math.sqrt(sff) * math.sqrt(sgg)
    # ndarray.dot is @ bit for bit, without the dispatch of the matmul ufunc
    r = float(fc.dot(gc)) / denom
    return max(-1.0, min(1.0, r))


def _check_kind(kind) -> None:
    """Anything but a ``TransformKind`` is an InvalidParameter."""
    if not isinstance(kind, TransformKind):
        raise InvalidParameter(f"transform must be a TransformKind, got {kind!r}")


def transform(kind: TransformKind, x: float) -> float:
    """Evaluate a transform at a correlation value in [-1, 1].

    Arguments outside the interval by more than 1e-9, and NaN, raise
    DomainError; smaller overshoots are clamped to the endpoint. A ``kind``
    that is not a ``TransformKind`` (its string value, say) is an
    InvalidParameter, and so is an ``x`` that is not a real number (a bool
    or a string, say).
    """
    x = _real("transform argument", x, InvalidParameter)
    if not abs(x) <= 1.0 + DOMAIN_TOLERANCE:  # NaN included
        raise DomainError(f"transform argument {x} outside [-1, 1]")
    x = max(-1.0, min(1.0, x))
    _check_kind(kind)
    return _penalty(kind, x)


def _penalty(kind: TransformKind, x: float) -> float:
    """``transform``'s formula, unchecked.

    ``kind`` must be a ``TransformKind`` and ``x`` a float in [-1, 1].
    """
    if kind is TransformKind.RECIPROCAL:
        return 1.0 / (2.0 + x) - 1.0 / 3.0
    return 1.0 / (1.0 + x * x) - 0.5


def phi(kind: TransformKind, f, g) -> float:
    """Correlation penalty: the transform applied to pearson(f, g)."""
    return transform(kind, pearson(f, g))


def psi(kind: TransformKind, f, g) -> float:
    """Composite cost: half the squared distance between f and g, plus phi.

    A squared distance beyond the float range is a NumericOverflow.
    """
    fa, ga = _as_pair(f, g)
    with np.errstate(over="ignore", invalid="ignore"):
        distance = _finite(0.5 * float(np.sum((fa - ga) ** 2)), "the squared error overflows")
    return distance + phi(kind, fa, ga)


def lambda_err(rho: float, h, y) -> float:
    """Squared error of the one-candidate model rho * h against y.

    Its one dot is of a fresh array, so, as for ``argmin_rho``, the result
    does not depend on where ``h`` and ``y`` sit in memory. A difference or
    a dot that overflows, or a difference that is ``inf - inf``, is a
    NumericOverflow, with no warning.
    """
    ha, ya = _as_pair(h, y)
    with np.errstate(over="ignore", invalid="ignore"):
        d = ya - rho * ha
        return _finite(float(d @ d), "the squared error overflows")


def argmin_rho(h, y) -> float:
    """Least-squares weight <h, y> / <h, h>; minimizes lambda_err over rho.

    The result depends on the values alone, not on where they sit in
    memory: both operands are copied to fresh arrays, which start on a
    16-byte boundary, before the two dots. OpenBLAS's Katmai (Prescott)
    ddot sums a vector that starts elsewhere in another order, so on those
    kernels the dots of a row view into a matrix, misaligned when the row
    length and the row index are both odd, could differ in their last bit
    from the dots of a copy. Copying a row of 219 floats costs less than
    reading its address (about 0.3 us against 1.4 us through ``ctypes``).
    The formula after the checks is ``_weight``, which the selection
    rescore in ``boost`` calls on its own fresh copies. A dot or a weight
    that overflows is a NumericOverflow, with no warning, as in ``pearson``.
    """
    ha, ya = _as_pair(h, y)
    ha, ya = ha.copy(), ya.copy()
    with np.errstate(over="ignore"):
        hy, hh = float(ha @ ya), float(ha @ ha)
    return _weight(hy, hh)


def _weight(hy: float, hh: float) -> float:
    """``argmin_rho``'s formula: the weight from <h, y> and <h, h>.

    A zero ``hh`` raises ZeroCandidate, and an infinite ``hh`` (a dot that
    overflowed) or a weight that is not finite (an overflow, or a NaN in
    either operand) NumericOverflow.
    """
    if hh == 0.0:
        raise ZeroCandidate("candidate is identically zero")
    if hh == math.inf:
        raise NumericOverflow("the candidate's sum of squares overflows")
    weight = hy / hh
    if not math.isfinite(weight):
        raise NumericOverflow("the candidate's least-squares weight overflows")
    return weight
