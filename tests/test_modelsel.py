import numpy as np
import pytest

from helpers import scratch_sweep, walsh_members
from panelboost import (
    EmptyInput,
    Family,
    GenSpec,
    Series,
    ShapeError,
    SplitSpec,
    SweepFailed,
    SweepGrid,
    TimeGrid,
    TransformKind,
    cumulative,
    evaluate,
    generate,
    sweep,
)

RECIP = TransformKind.RECIPROCAL
WITCH = TransformKind.WITCH


def _series(values, name="s"):
    return Series(name, values)


class TestEvaluate:
    def test_identical_prediction(self):
        y = _series([1.0, 2.0, 3.0], "__target__")
        p = _series([1.0, 2.0, 3.0], "__prediction__")
        m = evaluate(p, y, RECIP, 1.0)
        assert m.rmse == 0.0
        assert m.mae == 0.0
        assert m.cumulative_abs_error == 0.0
        assert abs(m.psi) <= 1e-12
        assert m.pearson == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset(self):
        y = _series([1.0, 2.0, 3.0, 4.0])
        p = _series([1.5, 2.5, 3.5, 4.5])
        m = evaluate(p, y, WITCH, 2.0)
        assert m.mae == 0.5
        assert m.rmse == 0.5
        assert m.cumulative_abs_error == pytest.approx(4 * 0.5 * 2.0, abs=1e-12)

    def test_integral_cancellation(self):
        # pointwise errors of +-1 cancel in the integral
        m = evaluate(_series([1.0, 3.0]), _series([2.0, 2.0]), RECIP, 1.0)
        assert m.rmse == 1.0
        assert m.mae == 1.0
        assert m.cumulative_abs_error == 0.0

    def test_degenerate_pearson_marker(self):
        m = evaluate(_series([2.0, 2.0, 2.0]), _series([1.0, 2.0, 3.0]), RECIP, 1.0)
        assert m.pearson is None
        assert np.isnan(m.psi)
        assert m.rmse > 0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            evaluate(_series([1.0, 2.0]), _series([1.0]), RECIP, 1.0)

    def test_zero_rmse_iff_identical(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            y = rng.standard_normal(15)
            p = y.copy()
            assert evaluate(_series(p), _series(y), RECIP, 1.0).rmse <= 1e-12
            p2 = y + 1e-6
            assert evaluate(_series(p2), _series(y), RECIP, 1.0).rmse > 1e-12


class TestCumulative:
    def test_unit_accumulation(self):
        out = cumulative(_series([1.0, 1.0, 1.0]), 1.0)
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_zeros(self):
        out = cumulative(_series([0.0, 0.0, 0.0]), 2.5)
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])

    def test_fractional_step(self):
        out = cumulative(_series([2.0, -2.0]), 0.5)
        np.testing.assert_array_equal(out.values, [1.0, 0.0])

    def test_linearity(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        lhs = cumulative(_series(a + b), 1.0).values
        rhs = cumulative(_series(a), 1.0).values + cumulative(_series(b), 1.0).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_empty_series(self):
        with pytest.raises(EmptyInput):
            cumulative(Series("s", []), 1.0)


def _rank2_fixture(count=40):
    """Exact-arithmetic rank-2 panel: target = 2*s1 + 3*s2, s3 irrelevant."""
    w = walsh_members(count)
    fam = Family(
        TimeGrid(0.0, 1.0, count),
        (Series("s1", w["s1"]), Series("s2", w["s2"]), Series("s3", w["s3"])),
    )
    target = Series("__target__", 2 * w["s1"] + 3 * w["s2"])
    return fam, target


class TestSweep:
    def test_singleton_grid(self):
        fam, target = _rank2_fixture()
        grid = SweepGrid((2,), (-1.0,), (1.0,), (RECIP,))
        result = sweep(fam, target, SplitSpec(0.5, 0.3), grid)
        assert len(result.rows) == 1
        assert result.best == 0
        assert result.rows[0].error is None

    def test_rank2_panel_selects_size_two(self):
        fam, target = _rank2_fixture()
        grid = SweepGrid((1, 2, 3), (-1.0,), (1.0,), (RECIP,))
        result = sweep(fam, target, SplitSpec(0.5, 0.3), grid)
        best = result.rows[result.best]
        assert best.config.panel_size == 2
        assert best.validation.rmse == 0.0
        # the size-3 row ties at zero but loses the tie-break
        by_size = {row.config.panel_size: row for row in result.rows}
        assert by_size[3].validation.rmse == 0.0
        assert by_size[3].stopped_early
        assert by_size[1].validation.rmse > 0.0

    def test_unreachable_threshold_fails_whole_sweep(self):
        rng = np.random.default_rng(33)
        members = tuple(Series(f"n{i}", rng.standard_normal(40)) for i in range(20))
        fam = Family(TimeGrid(0.0, 1.0, 40), members)
        target = Series("__target__", sum(m.values for m in members))
        grid = SweepGrid((1, 2), (0.99,), (1.0,), (RECIP,))
        with pytest.raises(SweepFailed):
            sweep(fam, target, SplitSpec(0.5, 0.3), grid)

    def test_failed_rows_are_recorded_not_omitted(self):
        rng = np.random.default_rng(34)
        members = tuple(Series(f"n{i}", rng.standard_normal(40)) for i in range(10))
        fam = Family(TimeGrid(0.0, 1.0, 40), members)
        target = Series("__target__", sum(m.values for m in members))
        grid = SweepGrid((2,), (0.999, -1.0), (1.0, 0.5), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.5, 0.3), grid)
        assert len(result.rows) == 2 * 2 * 2  # full Cartesian product retained
        failed = [r for r in result.rows if r.error is not None]
        assert failed and all(r.error == "NoAdmissibleMember" for r in failed)
        assert all(r.train is None and r.validation is None for r in failed)
        assert result.rows[result.best].error is None

    def test_determinism_and_best_row_optimality(self):
        rng = np.random.default_rng(35)
        members = tuple(
            Series(f"m{i}", rng.standard_normal(60) + rng.uniform(1, 3))
            for i in range(8)
        )
        fam = Family(TimeGrid(0.0, 1.0, 60), members)
        target = Series("__target__", sum(m.values for m in members))
        grid = SweepGrid((1, 2, 4), (-1.0, 0.0), (1.0, 0.7), (RECIP, WITCH))
        first = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        second = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert first == second
        assert len(first.rows) == 3 * 2 * 2 * 2
        best_rmse = first.rows[first.best].validation.rmse
        for row in first.rows:
            if row.error is None:
                assert row.validation.rmse >= best_rmse

    def test_tiebreak_falls_through_to_row_order(self):
        fam, target = _rank2_fixture()
        # the transform never enters selection, so both rows tie at exactly
        # zero validation rmse with equal size and alpha: earlier row wins
        grid = SweepGrid((2,), (-1.0,), (1.0,), (WITCH, RECIP))
        result = sweep(fam, target, SplitSpec(0.5, 0.3), grid)
        assert result.best == 0
        assert result.rows[result.best].config.transform is WITCH

    def test_matches_the_from_scratch_oracle(self):
        # lbound 0.95 admits no first term (error rows), 0.28 stops the alpha-1
        # path after two terms, and size 10 outruns the eight members, so the
        # grid holds error rows, both kinds of early stop and full panels
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((1, 3, 10), (-1.0, 0.28, 0.95), (1.0, 0.6), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        want = scratch_sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert len(result.rows) == len(want.rows) == 36
        for got_row, want_row in zip(result.rows, want.rows):
            # repr compares every float bit for bit, NaN included
            assert repr(got_row) == repr(want_row)
        assert result.best == want.best
        assert any(row.error for row in result.rows)
        stops = [row.config.panel_size for row in result.rows if row.stopped_early]
        assert 3 in stops and 10 in stops
        assert any(row.error is None and not row.stopped_early for row in result.rows)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid((), (-1.0,), (1.0,), (RECIP,))
        with pytest.raises(ValueError):
            SweepGrid((1,), (-2.0,), (1.0,), (RECIP,))
        with pytest.raises(ValueError):
            SweepGrid((1,), (-1.0,), (0.0,), (RECIP,))
