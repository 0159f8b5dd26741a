from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import scratch_sweep, walsh_members
from panelboost import (
    BoostConfig,
    EmptyInput,
    Family,
    GenSpec,
    Metrics,
    NoAdmissibleMember,
    NumericOverflow,
    Series,
    ShapeError,
    SplitSpec,
    SweepFailed,
    SweepGrid,
    SweepRow,
    TimeGrid,
    TransformKind,
    boost,
    cumulative,
    evaluate,
    fit,
    generate,
    modelsel,
    pearson,
    psi,
    restrict,
    restrict_family,
    split,
    sweep,
)
from panelboost.dataio import EVAL_REPORT_HEADER, SWEEP_REPORT_HEADER

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

    def test_a_prediction_spanning_the_float_range_overflows_without_a_warning(self):
        # the constant test on a prediction whose centred sum of squares
        # overflows compares its largest and smallest values; their
        # difference, 2e308, would overflow (the suite runs warnings as errors)
        values = [1e308, -1e308, 0.0]
        with pytest.raises(NumericOverflow, match="a centred sum of squares overflows"):
            evaluate(_series(values), _series(values), RECIP, 1.0)

    def test_a_constant_prediction_whose_sum_overflows_is_degenerate(self):
        # the sums of 1e308s overflow, so only the value-by-value comparison
        # tells the prediction is constant
        values = [1e308] * 4
        m = evaluate(_series(values), _series(values), RECIP, 1.0)
        assert m.pearson is None
        assert np.isnan(m.psi)
        assert m.rmse == 0.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            evaluate(_series([1.0, 2.0]), _series([1.0]), RECIP, 1.0)
        with pytest.raises(ShapeError, match="need at least 2 samples"):
            evaluate(_series([1.0]), _series([1.0]), RECIP, 1.0)

    def test_psi_is_the_composite_cost_bit_for_bit(self):
        rng = np.random.default_rng(36)
        for kind in (RECIP, WITCH):
            for _ in range(50):
                y = rng.standard_normal(20) * rng.uniform(0.1, 100.0)
                p = y + rng.standard_normal(20) * rng.uniform(0.01, 10.0)
                assert evaluate(_series(p), _series(y), kind, 1.0).psi == psi(kind, y, p)

    @pytest.mark.parametrize("count", [2, 7, 8, 73, 219, 300])
    def test_each_metric_is_its_one_dimensional_formula_bit_for_bit(self, count):
        # odd and even lengths, and lengths on both sides of numpy's
        # unrolled and pairwise summation blocks
        rng = np.random.default_rng(count)
        for _ in range(20):
            y = rng.standard_normal(count) * rng.uniform(0.1, 1e3) + rng.uniform(-1e3, 1e3)
            p = y + rng.standard_normal(count) * rng.uniform(1e-3, 10.0)
            m = evaluate(_series(p), _series(y), WITCH, 0.25)
            assert m.rmse == np.sqrt(np.sum((p - y) ** 2) / count)
            assert m.mae == np.sum(np.abs(p - y)) / count
            assert m.pearson == pearson(p, y)
            assert m.cumulative_abs_error == abs(np.sum(p - y)) * 0.25

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

    def test_matches_the_from_scratch_oracle_at_the_benchmark_shape(self):
        # the sweep-grid benchmark's first panel and grid: 100 x 365, sizes
        # 1-16, five lbounds, two alphas and two transforms, 100 cells
        fam, target = generate(GenSpec(n_series=100, days=365, archetypes=5,
                                       noise_sd=0.05, seed=4001))
        grid = SweepGrid((1, 2, 4, 8, 16), (-1.0, 0.0, 0.5, 0.9, 0.99), (1.0, 0.5),
                         (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        want = scratch_sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert [repr(row) for row in result.rows] == [repr(row) for row in want.rows]
        assert result.best == want.best
        assert sum(row.error is not None for row in result.rows) == 20
        assert sum(row.stopped_early for row in result.rows) == 34

    def test_axes_that_repeat_a_value_in_other_types(self):
        # each cell coerces its values, so np.int64(3) and 3, 1 and 1.0,
        # Fraction(3, 5) and np.float64(0.6), and -1 and -1.0 are one value
        # each, and the rows that read one (alpha, prefix, transform) share
        # its Metrics
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((np.int64(3), 3, 1), (-1, 0.28),
                         (1, Fraction(3, 5), np.float64(0.6), 1.0), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        want = scratch_sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert len(result.rows) == 48
        assert [repr(row) for row in result.rows] == [repr(row) for row in want.rows]
        assert result.best == want.best
        train, _, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        f_train, t_train = restrict_family(fam, train), restrict(target, train)
        keys = {}
        for row in result.rows:
            model, _ = fit(f_train, t_train, row.config)
            key = (row.config.alpha, len(model.terms), row.config.transform)
            first = keys.setdefault(key, row)
            assert row.train is first.train and row.validation is first.validation
        assert {alpha for alpha, _, _ in keys} == {1.0, 0.6}
        assert len(keys) <= 16

    def test_the_first_failure_in_row_order_is_raised(self):
        # Members orthogonal on train, in exact arithmetic: the first step
        # leaves a residual whose sum, times the grid step of 1e306,
        # overflows the cumulative gap; the second fits train exactly. On
        # validation, member a reaches 1e160, so the squared error of the
        # second prefix overflows. The first row's prefix decides.
        days = np.arange(1.0, 11.0)
        a = np.r_[2.0**20 * days, 1e160 * np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0]), np.ones(4)]
        b = np.r_[2.0**20 * np.r_[2.0, -1.0, np.zeros(8)], np.ones(10)]
        fam = Family(TimeGrid(0.0, 1e306, 20), (Series("a", a), Series("b", b)))
        target = Series("__target__", np.r_[a[:10] + 3.0 * b[:10], np.ones(10)])

        def raised(sizes):
            grid = SweepGrid(sizes, (-1.0,), (1.0,), (RECIP,))
            with pytest.raises(NumericOverflow) as info:
                sweep(fam, target, SplitSpec(0.5, 0.3), grid)
            return str(info.value)

        assert raised((1,)) == raised((1, 2)) == "the cumulative absolute error overflows"
        assert raised((2,)) == raised((2, 1)) == "the squared error overflows"

    def test_an_unread_validation_prefix_may_overflow(self):
        # the second step's weight, about 1.74, takes member b's 1.5e308 on
        # validation past the float range; an lbound between the two steps'
        # scores keeps every row on the first, which the sweep walks past
        rng = np.random.default_rng(3)
        days = np.arange(1.0, 11.0)
        a = np.r_[days, np.arange(1.0, 7.0), np.ones(4)]
        b = np.r_[0.5 * np.tile([1.0, -1.0], 5), np.full(6, 1.5e308), np.ones(4)]
        fam = Family(TimeGrid(0.0, 1.0, 20), (Series("a", a), Series("b", b)))
        target = Series("__target__", np.r_[a[:10] + 2.0 * b[:10] + 2.0 * rng.standard_normal(10),
                                            np.arange(1.0, 7.0), np.ones(4)])
        split_spec = SplitSpec(0.5, 0.3)
        model, _ = fit(restrict_family(fam, range(10)), restrict(target, range(10)),
                       BoostConfig(2, RECIP))
        first, second = model.terms
        assert second.score < first.score
        with pytest.raises(NumericOverflow, match="the prediction overflows"):
            sweep(fam, target, split_spec, SweepGrid((2,), (-1.0,), (1.0,), (RECIP,)))
        grid = SweepGrid((1, 2), (first.score,), (1.0,), (RECIP,))
        result = sweep(fam, target, split_spec, grid)
        assert [row.stopped_early for row in result.rows] == [False, True]
        assert result.rows[0].validation == result.rows[1].validation

    def test_a_member_past_the_float_range_on_the_test_segment_only(self):
        # the second step's weight, about 1.74, would take member b's 1.5e308
        # past the float range, but only on the test segment, which the
        # sweep never reads
        rng = np.random.default_rng(3)
        days = np.arange(1.0, 11.0)
        a = np.r_[days, np.arange(1.0, 7.0), np.ones(4)]
        b = np.r_[0.5 * np.tile([1.0, -1.0], 5), np.ones(6), np.full(4, 1.5e308)]
        fam = Family(TimeGrid(0.0, 1.0, 20), (Series("a", a), Series("b", b)))
        target = Series("__target__", np.r_[a[:10] + 2.0 * b[:10] + 2.0 * rng.standard_normal(10),
                                            np.arange(1.0, 7.0), np.ones(4)])
        split_spec = SplitSpec(0.5, 0.3)
        model, _ = fit(restrict_family(fam, range(10)), restrict(target, range(10)),
                       BoostConfig(2, RECIP))
        assert [t.member_id for t in model.terms] == ["a", "b"]
        assert abs(model.terms[1].weight) * 1.5e308 > np.finfo(float).max
        grid = SweepGrid((1, 2), (-1.0,), (1.0, 0.5), (RECIP, WITCH))
        result = sweep(fam, target, split_spec, grid)
        want = scratch_sweep(fam, target, split_spec, grid)
        assert [repr(row) for row in result.rows] == [repr(row) for row in want.rows]
        assert result.best == want.best

    @pytest.mark.parametrize("constant_target", [False, True])
    def test_a_grid_that_reads_no_prefix_fails(self, constant_target):
        # every alpha's path starts with the same step, so either every
        # alpha reads a prefix or none does: here none, and nothing is
        # measured, so no empty matrix reaches the metrics
        rng = np.random.default_rng(33)
        members = tuple(Series(f"n{i}", rng.standard_normal(40)) for i in range(20))
        fam = Family(TimeGrid(0.0, 1.0, 40), members)
        values = np.full(40, 2.0) if constant_target else sum(m.values for m in members)
        lbound = -1.0 if constant_target else 0.99
        grid = SweepGrid((1, 2), (lbound,), (1.0, 0.5), (RECIP, WITCH))
        with pytest.raises(SweepFailed):
            sweep(fam, Series("__target__", values), SplitSpec(0.5, 0.3), grid)

    @pytest.mark.parametrize("length", [40, 55, 65])
    def test_a_target_of_another_length_is_a_shape_error(self, length):
        # as in fit and evaluate: a longer target is not cut to the grid, and
        # a shorter one is not a range error of its segments
        fam, target = generate(GenSpec(n_series=8, days=60, archetypes=3,
                                       noise_sd=0.3, seed=41))
        target = Series("__target__", np.resize(target.values, length))
        grid = SweepGrid((1, 3), (-1.0,), (1.0,), (RECIP,))
        with pytest.raises(ShapeError, match=f"^target has {length} samples, grid expects 60$"):
            sweep(fam, target, SplitSpec(0.6, 0.2), grid)

    def test_one_fit_per_distinct_alpha(self, monkeypatch):
        # the sweep fits by walking the greedy path, once per distinct alpha
        calls = []

        def counting_path(*args):
            calls.append(args[2])
            return path(*args)

        path = modelsel._path
        monkeypatch.setattr(modelsel, "_path", counting_path)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((3, 1, 10), (0.95, -1.0, 0.28), (1.0, 0.6, 1.0), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert len(result.rows) == 54
        assert len(calls) == len(set(grid.alphas))

    def test_paths_share_the_screen_and_the_first_step(self, monkeypatch):
        # the screen constants, and the first step against the target, do
        # not depend on alpha: one sweep computes them once for all paths
        checked, first_steps, walked = [], [], []

        def counting_rows(family, y, name):
            checked.append(name)
            return checked_rows(family, y, name)

        def counting_best(family, rows, r, mask, slack, hr, drift):
            if np.array_equal(r, t_train.values) and mask.all():
                first_steps.append(len(mask))
            return best(family, rows, r, mask, slack, hr, drift)

        def counting_path(*args):
            walked.append(args[2])
            return path(*args)

        checked_rows, best, path = boost._checked_rows, boost._best, modelsel._path
        monkeypatch.setattr(boost, "_checked_rows", counting_rows)
        monkeypatch.setattr(boost, "_best", counting_best)
        monkeypatch.setattr(modelsel, "_path", counting_path)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        train, _, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        t_train = restrict(target, train)
        grid = SweepGrid((1, 3), (-1.0, 0.28), (1.0, 0.6, 0.3), (RECIP,))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert sum(row.error is None for row in result.rows) > 3
        assert checked == ["target"]
        assert first_steps == [len(fam)]
        assert walked == [1.0, 0.6, 0.3]

    def test_metrics_once_per_alpha_and_prefix(self, monkeypatch):
        # the transforms differ only in psi's penalty, so each distinct
        # (alpha, accepted prefix) is one row of one matrix per segment
        calls = []

        def counting_agreements(predictions, ref, grid_step):
            calls.append(predictions.shape)
            return agreements(predictions, ref, grid_step)

        agreements = modelsel._agreements
        monkeypatch.setattr(modelsel, "_agreements", counting_agreements)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((3, 1, 10), (0.95, -1.0, 0.28), (1.0, 0.6, 1.0), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        train, val, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        f_train, t_train = restrict_family(fam, train), restrict(target, train)
        prefixes = set()
        for row in result.rows:
            if row.error is None:
                model, _ = fit(f_train, t_train, row.config)
                prefixes.add((row.config.alpha, len(model.terms)))
        assert len(prefixes) > 2
        assert calls == [(len(prefixes), len(train)), (len(prefixes), len(val))]

    def test_scored_once_per_alpha_prefix_and_transform(self, monkeypatch):
        # rows that share alpha, accepted prefix and transform share Metrics
        calls = []

        def counting_scored(agreement, kind):
            calls.append(kind)
            return scored(agreement, kind)

        scored = modelsel._scored
        monkeypatch.setattr(modelsel, "_scored", counting_scored)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((3, 1, 10), (0.95, -1.0, 0.28), (1.0, 0.6, 1.0), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        train, _, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        f_train, t_train = restrict_family(fam, train), restrict(target, train)
        keys = {}
        for row in result.rows:
            if row.error is None:
                model, _ = fit(f_train, t_train, row.config)
                key = (row.config.alpha, len(model.terms), row.config.transform)
                first = keys.setdefault(key, row)
                assert row.train is first.train and row.validation is first.validation
        assert len(keys) < sum(row.error is None for row in result.rows)
        assert len(calls) == 2 * len(keys)

    def test_target_centred_once_per_segment(self, monkeypatch):
        calls = []

        def counting_centred(x, side):
            calls.append((side, x))
            return centred(x, side)

        centred = modelsel._centred
        monkeypatch.setattr(modelsel, "_centred", counting_centred)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((1, 3, 10), (-1.0, 0.28), (1.0, 0.6), (RECIP, WITCH))
        sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        train, val, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        # the predictions are centred as the rows of one matrix per segment
        assert [side for side, _ in calls] == ["right", "right"]
        np.testing.assert_array_equal(calls[0][1], restrict(target, train).values)
        np.testing.assert_array_equal(calls[1][1], restrict(target, val).values)

    def test_sweep_builds_no_model_or_trace(self, monkeypatch):
        built = []
        for name in ("PanelModel", "FitTrace", "TraceRecord", "PanelTerm"):
            monkeypatch.setattr(boost, name, lambda *args, name=name: built.append(name))
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((1, 3, 10), (-1.0, 0.28, 0.95), (1.0, 0.6), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert len(result.rows) == 36 and built == []

    def test_sweep_sums_only_validation_prefixes_once_per_alpha(self, monkeypatch):
        calls = []

        def counting_sums(weights, values):
            calls.append((len(weights), values))
            return running_sums(weights, values)

        running_sums = modelsel._running_sums
        monkeypatch.setattr(modelsel, "_running_sums", counting_sums)
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        # alpha 1 twice: the sums follow the distinct alphas, not the grid's.
        # Both paths are walked 8 steps, the panel size 10 outrunning the 8
        # members, but lbound 0.28 lets the rows read only 2 and 5 of them.
        grid = SweepGrid((1, 3, 10), (0.28, 0.95), (1.0, 0.6, 1.0), (RECIP, WITCH))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        train, val, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        f_train, t_train = restrict_family(fam, train), restrict(target, train)
        read = {1.0: 0, 0.6: 0}
        for row in result.rows:
            if row.error is None:
                model, _ = fit(f_train, t_train, row.config)
                read[row.config.alpha] = max(read[row.config.alpha], len(model.terms))
        assert read == {1.0: 2, 0.6: 5}
        assert [depth for depth, _ in calls] == [2, 5]
        # the validation columns of the family's own rows, no validation family
        for (depth, values), alpha in zip(calls, (1.0, 0.6)):
            model, _ = fit(f_train, t_train, BoostConfig(depth, RECIP, -1.0, alpha))
            rows = [fam.index_of(t.member_id) for t in model.terms]
            np.testing.assert_array_equal(values, fam.values[rows, val.start:val.stop])

    def test_a_validation_prediction_beyond_the_float_range_overflows(self):
        # fitted on tiny train values, the weight is about 1e10; on validation
        # the member reaches 1e301
        days = np.arange(1.0, 11.0)
        fam = Family(TimeGrid(0.0, 1.0, 20), (Series("a", np.r_[1e-10 * days, 1e300 * days]),))
        target = Series("__target__", np.r_[days, np.ones(10)])
        grid = SweepGrid((1,), (-1.0,), (1.0,), (RECIP,))
        with pytest.raises(NumericOverflow, match="the prediction overflows"):
            sweep(fam, target, SplitSpec(0.5, 0.3), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid((), (-1.0,), (1.0,), (RECIP,))
        with pytest.raises(ValueError):
            SweepGrid((1,), (-2.0,), (1.0,), (RECIP,))
        with pytest.raises(ValueError):
            SweepGrid((1,), (-1.0,), (0.0,), (RECIP,))


class TestRecords:
    """``Metrics`` and ``SweepRow`` are named tuples with the fields, repr and
    value semantics the frozen records they replaced had."""

    def test_fields_defaults_and_repr(self):
        metrics = Metrics(0.5, 0.25, None, float("nan"), 2.0)
        assert Metrics._fields == ("rmse", "mae", "pearson", "psi", "cumulative_abs_error")
        assert repr(metrics) == ("Metrics(rmse=0.5, mae=0.25, pearson=None, psi=nan, "
                                 "cumulative_abs_error=2.0)")
        config = BoostConfig(3, RECIP, 0.5, 0.25)
        row = SweepRow(config, metrics, None, True)
        assert SweepRow._fields == ("config", "train", "validation", "stopped_early", "error")
        assert row.error is None
        assert repr(row) == (
            "SweepRow(config=BoostConfig(panel_size=3, transform=<TransformKind.RECIPROCAL: "
            "'reciprocal'>, lbound=0.5, alpha=0.25, with_replacement=False), "
            "train=Metrics(rmse=0.5, mae=0.25, pearson=None, psi=nan, "
            "cumulative_abs_error=2.0), validation=None, stopped_early=True, error=None)"
        )
        failed = SweepRow(config, None, None, False, "NoAdmissibleMember")
        assert failed.error == "NoAdmissibleMember"

    def test_equal_values_compare_and_hash_equal(self):
        one, two = Metrics(0.5, 0.25, -0.125, 3.0, 2.0), Metrics(0.5, 0.25, -0.125, 3.0, 2.0)
        assert one == two and hash(one) == hash(two)
        assert one != Metrics(0.5, 0.25, -0.125, 3.0, 2.5)
        config = BoostConfig(3, RECIP, 0.5, 0.25)
        row, same = SweepRow(config, one, two, False), SweepRow(config, two, one, False)
        assert row == same and hash(row) == hash(same)
        assert row != SweepRow(config, one, two, True)

    def test_fields_cannot_be_assigned(self):
        metrics = Metrics(0.5, 0.25, None, float("nan"), 2.0)
        row = SweepRow(BoostConfig(3, RECIP), metrics, metrics, False)
        with pytest.raises(AttributeError):
            metrics.rmse = 1.0
        with pytest.raises(AttributeError):
            row.error = "NoAdmissibleMember"

    def test_report_headers(self):
        assert EVAL_REPORT_HEADER == ["rmse", "mae", "pearson", "psi", "cumulative_abs_error"]
        assert SWEEP_REPORT_HEADER == [
            "panel_size", "lbound", "alpha", "transform", "error", "stopped_early",
            "train_rmse", "train_mae", "train_pearson", "train_psi",
            "train_cumulative_abs_error",
            "val_rmse", "val_mae", "val_pearson", "val_psi", "val_cumulative_abs_error",
            "best",
        ]

    def test_rows_that_share_alpha_prefix_and_transform_share_metrics(self):
        # a transform listed twice reads the metrics of its first listing
        fam, target = generate(GenSpec(n_series=8, days=90, archetypes=3,
                                       noise_sd=0.3, seed=41))
        grid = SweepGrid((3, 10), (-1.0, 0.28), (1.0, 0.6), (RECIP, WITCH, RECIP))
        result = sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        for group in zip(*[iter(result.rows)] * 3):
            first, witch, again = group
            assert again.train is first.train and again.validation is first.validation
            assert witch.train is not first.train
        want = scratch_sweep(fam, target, SplitSpec(0.6, 0.2), grid)
        assert [repr(row) for row in result.rows] == [repr(row) for row in want.rows]


# Sweeps on random families (zero, constant and duplicate rows next to plain
# ones) with grids whose lbounds come from the fitted paths' own scores, so
# that the >= comparison is hit exactly on both sides of a score.
_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_SPLIT = SplitSpec(0.5, 0.3)


@st.composite
def _sweep_families(draw):
    count = draw(st.integers(10, 24))
    plain = arrays(float, count, elements=_VALUES, unique=True)
    rows = [draw(plain)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("plain", "zero", "constant", "duplicate")))
        if kind == "zero":
            rows.append(np.zeros(count))
        elif kind == "constant":
            rows.append(np.full(count, draw(_VALUES)))
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)).copy())
        else:
            rows.append(draw(plain))
    constant_target = draw(st.integers(0, 4)) == 4
    if constant_target:
        target = np.full(count, draw(_VALUES))
    else:
        mix = draw(arrays(float, len(rows), elements=st.floats(-3.0, 3.0)))
        target = mix @ np.array(rows) + draw(plain)
    fam = Family(TimeGrid(0.0, 1.0, count),
                 tuple(Series(f"c{i}", v) for i, v in enumerate(rows)))
    return fam, Series("__target__", target), constant_target


class TestPathSweepProperty:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_sweep_families(), st.data())
    def test_matches_the_from_scratch_oracle(self, case, data):
        fam, target, constant_target = case
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        alphas = data.draw(st.lists(st.sampled_from((1.0, 0.7, 0.5)), min_size=1,
                                    max_size=3))
        kinds = data.draw(st.lists(st.sampled_from((RECIP, WITCH)), min_size=1,
                                   max_size=2))
        train, _, _ = split(fam.grid, _SPLIT)
        f_train, t_train = restrict_family(fam, train), restrict(target, train)
        bounds = [-1.0, 0.0, 0.5]
        for alpha in alphas:
            try:
                model, _ = fit(f_train, t_train, BoostConfig(max(sizes), RECIP, -1.0, alpha))
            except NoAdmissibleMember:
                continue
            # each score, and the next float above it, which rejects that term
            bounds += [b for t in model.terms
                       for b in (t.score, min(1.0, float(np.nextafter(t.score, 2.0))))]
        lbounds = data.draw(st.lists(st.sampled_from(bounds), min_size=1, max_size=3))
        grid = SweepGrid(tuple(sizes), tuple(lbounds), tuple(alphas), tuple(kinds))
        try:
            got = sweep(fam, target, _SPLIT, grid)
        except SweepFailed:
            # the oracle has no best row to pick: every cell fails from scratch
            for config in grid.cells:
                with pytest.raises(NoAdmissibleMember):
                    fit(f_train, t_train, config)
            return
        assert not constant_target
        want = scratch_sweep(fam, target, _SPLIT, grid)
        assert len(got.rows) == len(want.rows)
        for got_row, want_row in zip(got.rows, want.rows):
            assert repr(got_row) == repr(want_row)
        assert got.best == want.best
