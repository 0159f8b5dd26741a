import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import direct_squared_error, golden_section_min, reference_pearson
from panelboost import (
    DegenerateCorrelation,
    DomainError,
    EmptyInput,
    InvalidParameter,
    NumericOverflow,
    ShapeError,
    TransformKind,
    ZeroCandidate,
    argmin_rho,
    inner,
    lambda_err,
    mean,
    pearson,
    phi,
    psi,
    transform,
)

KINDS = [TransformKind.RECIPROCAL, TransformKind.WITCH]

FLOAT_MAX = float(np.finfo(float).max)
# values at the edges of the float range: zeros of both signs, subnormals,
# values whose squares underflow (1e-160) or whose sums of squares overflow
# (1e154, 1e200), and values whose sum of two overflows (1e308 and the
# largest float)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e154, 1e200, 1e308, -1e308,
         FLOAT_MAX, -FLOAT_MAX, 1.0, -2.5)


def _outcome(correlation, f, g):
    try:
        return repr(correlation(f, g))
    except DegenerateCorrelation as err:
        return "DegenerateCorrelation", err.side
    except NumericOverflow as err:
        return "NumericOverflow", str(err)


@st.composite
def _pearson_side(draw, count):
    """A side for pearson: plain, constant, offset far beyond its spread,
    scaled so that its sum of squares nears overflow (values near 1e154) or
    underflow (values near 1e-160), or drawn from ``EDGES``. A constant side
    may be an edge value too: the sum of 1e308s overflows, 5e-324 is the
    smallest subnormal, and -0.0 equals 0.0.
    """
    values = draw(arrays(float, count, elements=st.floats(-10.0, 10.0)))
    kind = draw(st.sampled_from(("plain", "constant", "offset", "huge", "tiny", "edge")))
    if kind == "constant":
        return np.full(count, draw(st.floats(-1e6, 1e6) | st.sampled_from((1e308, 5e-324, -0.0))))
    if kind == "edge":
        return np.array(draw(st.lists(st.sampled_from(EDGES), min_size=count, max_size=count)))
    if kind == "offset":
        return draw(st.floats(-1e17, 1e17)) + values
    if kind == "huge":
        return values * draw(st.sampled_from((1e152, 1e153, 3e153)))
    if kind == "tiny":
        return values * draw(st.sampled_from((1e-158, 1e-160, 1e-162)))
    return values


@st.composite
def _pearson_pairs(draw):
    count = draw(st.sampled_from((1, 2, 2, 3, 5, 17)))
    return draw(_pearson_side(count)), draw(_pearson_side(count))


class TestMean:
    def test_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_constant(self):
        assert mean([4.5] * 7) == 4.5

    def test_symmetric(self):
        assert mean([-1, 1]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInput):
            mean([])

    def test_two_dimensional_input(self):
        with pytest.raises(ShapeError, match="one-dimensional"):
            mean([[1.0, 2.0], [3.0, 4.0]])

    def test_an_overflowing_sum_is_a_typed_error_without_a_warning(self):
        # warnings are errors here
        with pytest.raises(NumericOverflow, match="sum overflows"):
            mean([1e308, 1e308])


class TestInner:
    def test_orthogonal(self):
        assert inner([1, 0], [0, 1]) == 0.0

    def test_arithmetic(self):
        assert inner([1, 2], [3, 4]) == 11.0

    def test_self_inner_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.standard_normal(int(rng.integers(1, 50)))
            assert inner(f, f) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            inner([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            inner([], [])

    def test_an_overflowing_dot_is_a_typed_error_without_a_warning(self):
        with pytest.raises(NumericOverflow, match="inner product overflows"):
            inner([1e200], [1e200])


class TestPearson:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = rng.standard_normal(int(rng.integers(2, 100)))
            assert pearson(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip(self):
        f = np.array([1.0, 3.0, -2.0, 0.5])
        assert pearson(f, -f) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal(40)
        g = rng.standard_normal(40)
        base = pearson(f, g)
        for a, b in [(3.0, 2.0), (-1.0, 0.5), (0.0, 7.0), (4.2, -1.5)]:
            expected = math.copysign(1.0, b) * base
            assert pearson(f, a + b * g) == pytest.approx(expected, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = rng.standard_normal(30)
            g = rng.standard_normal(30)
            assert abs(pearson(f, g) - pearson(g, f)) <= 1e-12

    @pytest.mark.parametrize("f, g", [([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0]),
                                      ([1.0, 2.0], [[1.0, 2.0], [3.0, 4.0]])],
                             ids=["left", "right"])
    def test_two_dimensional_input(self, f, g):
        with pytest.raises(ShapeError, match="one-dimensional"):
            pearson(f, g)

    def test_bounds_after_clamping(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            f = rng.standard_normal(10)
            g = rng.standard_normal(10)
            assert -1.0 <= pearson(f, g) <= 1.0

    @pytest.mark.parametrize("power", [-500, 500], ids=["underflow", "overflow"])
    def test_sums_of_squares_whose_product_leaves_the_float_range(self, power):
        # the centred sums of squares, about 2**(2 * power) each, are finite and
        # nonzero, but their product is not representable
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.standard_normal(30)
            g = rng.standard_normal(30)
            scaled = pearson(f * 2.0**power, g * 2.0**power)
            assert scaled == pytest.approx(pearson(f, g), abs=1e-15)
            assert scaled == pearson(g * 2.0**power, f * 2.0**power)

    def test_degenerate_sides(self):
        with pytest.raises(DegenerateCorrelation) as err:
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert err.value.side == "left"
        with pytest.raises(DegenerateCorrelation) as err:
            pearson([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])
        assert err.value.side == "right"

    def test_too_short(self):
        with pytest.raises(DegenerateCorrelation):
            pearson([1.0], [2.0])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_pearson_pairs())
    def test_matches_the_reference_formula_bit_for_bit(self, pair):
        f, g = pair
        # repr tells every float apart, -0.0 included
        assert _outcome(pearson, f, g) == _outcome(reference_pearson, f, g)


class TestTransform:
    def test_vanishes_at_one_exactly(self):
        assert transform(TransformKind.RECIPROCAL, 1.0) == 0.0
        assert transform(TransformKind.WITCH, 1.0) == 0.0

    def test_frozen_values(self):
        assert transform(TransformKind.RECIPROCAL, -1.0) == pytest.approx(2 / 3, abs=1e-15)
        assert transform(TransformKind.WITCH, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert transform(TransformKind.WITCH, -1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain_tolerance(self):
        # within 1e-9 of the endpoints: clamped, not an error
        assert transform(TransformKind.RECIPROCAL, 1.0 + 5e-10) == 0.0
        assert transform(TransformKind.WITCH, -1.0 - 5e-10) == 0.0
        with pytest.raises(DomainError):
            transform(TransformKind.RECIPROCAL, 1.0 + 1e-8)
        with pytest.raises(DomainError):
            transform(TransformKind.WITCH, -1.1)

    @pytest.mark.parametrize("kind", list(TransformKind))
    def test_nan_is_outside_the_domain(self, kind):
        # clamping NaN gave 0.0, the penalty of a perfect correlation
        with pytest.raises(DomainError):
            transform(kind, float("nan"))

    def test_reciprocal_strictly_decreasing(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        vals = [transform(TransformKind.RECIPROCAL, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("kind", ["reciprocal", "witch", None, 0])
    def test_anything_but_a_kind_is_an_invalid_parameter(self, kind):
        # a string value once fell through to the witch penalty
        with pytest.raises(InvalidParameter, match="transform must be a TransformKind"):
            transform(kind, 0.5)

    def test_witch_even_and_decreasing_on_positive_half(self):
        xs = np.linspace(0.0, 1.0, 1001)
        vals = [transform(TransformKind.WITCH, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for x in np.linspace(0.0, 1.0, 101):
            assert transform(TransformKind.WITCH, x) == transform(TransformKind.WITCH, -x)


class TestPhi:
    def test_self_penalty_is_zero(self):
        f = np.array([1.0, 2.0, 5.0, -1.0])
        for kind in KINDS:
            assert phi(kind, f, f) == 0.0

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal(25)
        g = rng.standard_normal(25)
        for kind in KINDS:
            base = phi(kind, f, g)
            for gamma in (0.001, 0.5, 3.0, 1e6):
                assert phi(kind, f, gamma * g) == pytest.approx(base, abs=1e-9)

    def test_witch_is_even_in_negation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.standard_normal(15)
            g = rng.standard_normal(15)
            assert phi(TransformKind.WITCH, f, -g) == pytest.approx(
                phi(TransformKind.WITCH, f, g), abs=1e-12
            )


class TestPsi:
    def test_minimum_at_target(self):
        rng = np.random.default_rng(8)
        for kind in KINDS:
            for _ in range(20):
                f = rng.standard_normal(int(rng.integers(2, 60)))
                assert abs(psi(kind, f, f)) <= 1e-12

    def test_lower_bound_from_transform_minimum(self):
        # min of each transform over [-1, 1], found by dense evaluation
        xs = np.linspace(-1.0, 1.0, 20001)
        rng = np.random.default_rng(9)
        for kind in KINDS:
            t_min = min(transform(kind, x) for x in xs)
            for _ in range(50):
                f = rng.standard_normal(20)
                g = rng.standard_normal(20)
                assert psi(kind, f, g) >= t_min - 1e-12

    def test_decomposition(self):
        rng = np.random.default_rng(10)
        for kind in KINDS:
            f = rng.standard_normal(30)
            g = rng.standard_normal(30)
            recomputed = 0.5 * lambda_err(1.0, g, f) + phi(kind, f, g)
            assert psi(kind, f, g) == pytest.approx(recomputed, rel=1e-12)

    def test_degenerate_side(self):
        with pytest.raises(DegenerateCorrelation):
            psi(TransformKind.RECIPROCAL, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0])


class TestLambdaErr:
    def test_zero_weight(self):
        y = np.array([1.0, -2.0, 3.0])
        assert lambda_err(0.0, [5.0, 5.0, 5.0], y) == float(np.sum(y**2))

    def test_exact_fit(self):
        h = np.array([1.0, 2.0, -3.0])
        assert lambda_err(2.0, h, 2 * h) == 0.0

    def test_arithmetic(self):
        assert lambda_err(1.0, [1.0, 1.0], [2.0, 0.0]) == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            lambda_err(1.0, [1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "rho, h, y",
        [(1.0, [1e200, 0.0], [0.0, 1.0]),  # the dot overflows
         (2.0, [1e308], [math.inf])],  # rho * h overflows, and y - rho * h is inf - inf
        ids=["dot", "inf-minus-inf"],
    )
    def test_an_overflow_is_a_typed_error_without_a_warning(self, rho, h, y):
        with pytest.raises(NumericOverflow, match="squared error overflows"):
            lambda_err(rho, h, y)


class TestArgminRho:
    def test_frozen_example_against_golden_section(self):
        h = np.array([1.0, 1.0, 1.0, 1.0])
        y = np.array([2.0, 4.0, 6.0, 8.0])
        rho = argmin_rho(h, y)
        assert rho == 5.0
        oracle = golden_section_min(lambda r: direct_squared_error(r, h, y), -20.0, 20.0)
        assert rho == pytest.approx(oracle, rel=1e-9)

    def test_colinear_exact(self):
        h = np.array([1.0, -2.0, 4.0])
        for c in (3.0, -0.5, 0.25):
            assert argmin_rho(h, c * h) == c

    def test_orthogonal_gives_zero(self):
        assert argmin_rho([1.0, 1.0], [1.0, -1.0]) == 0.0

    def test_zero_candidate(self):
        with pytest.raises(ZeroCandidate):
            argmin_rho([0.0, 0.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "h, y, message",
        [
            ([1e200, 1.0], [1.0, 2.0], "sum of squares overflows"),
            ([1e150, 0.0], [1e200, 0.0], "weight overflows"),  # <h, y> overflows
            ([1e-160, 0.0], [1e200, 1.0], "weight overflows"),  # only the quotient does
            # a NaN weight was returned, where inner and pearson raise
            ([1.0, 2.0], [math.nan, 1.0], "weight overflows"),
            ([math.nan, 1.0], [1.0, 2.0], "weight overflows"),
        ],
        ids=["sum-of-squares", "dot", "quotient", "nan-y", "nan-h"],
    )
    def test_an_overflow_is_a_typed_error_without_a_warning(self, h, y, message):
        # warnings are errors here
        with pytest.raises(NumericOverflow, match=message):
            argmin_rho(h, y)

    def test_beats_random_weights_and_zeroes_the_normal_equation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            h = rng.standard_normal(n)
            y = rng.standard_normal(n)
            rho = argmin_rho(h, y)
            best = lambda_err(rho, h, y)
            for r in rng.uniform(-5.0, 5.0, 30):
                assert best <= lambda_err(float(r), h, y) + 1e-9
            resid_inner = inner(h, y - rho * h)
            bound = 1e-8 * float(np.linalg.norm(h)) * float(np.linalg.norm(y))
            assert abs(resid_inner) <= bound


@pytest.mark.parametrize("count", [37, 53, 219])
def test_results_do_not_depend_on_where_a_row_sits(count):
    # a row of a matrix with an odd row length starts off a 16-byte boundary
    # when its index is odd; OpenBLAS's Katmai (Prescott) ddot sums such a
    # vector in another order, so a dot of the view could differ from a dot
    # of a fresh copy in its last bit
    rng = np.random.default_rng(count)
    matrix = rng.standard_normal((16, count))
    y = rng.standard_normal(count)
    assert any(row.ctypes.data % 16 for row in matrix)
    for row in matrix:
        copy = row.copy()
        assert argmin_rho(row, y) == argmin_rho(copy, y)
        assert argmin_rho(y, row) == argmin_rho(y, copy)
        assert inner(row, row) == inner(copy, copy)
        assert inner(row, y) == inner(copy, y)
        assert lambda_err(0.7, row, y) == lambda_err(0.7, copy, y)
        assert lambda_err(0.7, y, row) == lambda_err(0.7, y, copy)
