import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelboost import (
    BoostConfig,
    DegenerateSplit,
    EmptyFamily,
    Family,
    NumericOverflow,
    PanelBoostError,
    RangeError,
    Series,
    SplitSpec,
    SweepGrid,
    TimeGrid,
    TransformKind,
    aggregate_target,
    boost,
    fit,
    predict,
    restrict,
    restrict_family,
    select_step,
    split,
    sweep,
)


def _family(*value_lists, start=0.0, step=1.0):
    members = tuple(Series(f"m{i}", vals) for i, vals in enumerate(value_lists))
    return Family(TimeGrid(start, step, len(value_lists[0])), members)


class TestTimeGrid:
    def test_times(self):
        grid = TimeGrid(10.0, 0.5, 4)
        np.testing.assert_array_equal(grid.times(), [10.0, 10.5, 11.0, 11.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 0.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, -1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(float("nan"), 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, float("inf"), 5)

    def test_a_step_its_times_cannot_resolve(self):
        # every time of this grid is the same float, so a file written from
        # it could never be read back
        assert len(set((1e15 + 1e-3 * np.arange(50)).tolist())) == 1
        with pytest.raises(ValueError, match="does not resolve times as large as 1e"):
            TimeGrid(1e15, 1e-3, 50)
        with pytest.raises(ValueError, match="does not resolve times as large as inf"):
            TimeGrid(0.0, 1e308, 5)
        with pytest.raises(ValueError, match="does not resolve times as large as inf"):
            TimeGrid(0.0, 1.0, 10**400)  # a count no float holds
        # a step of three ulps of the largest |t| may round to no spacing at all
        with pytest.raises(ValueError, match="does not resolve times"):
            TimeGrid(1e15, 0.375, 50)
        # far from 0, but a step of more ulps: some are exact, 4 ulps apart
        TimeGrid(1e6, 1 / 24, 50)
        TimeGrid(1e9, 0.1, 50)
        TimeGrid(-1e15, 1.0, 50)
        TimeGrid(1e15, 0.5, 50)
        TimeGrid(1.7e15, 1.0, 50)


class TestSeries:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            Series("a", [1.0, float("nan")])
        with pytest.raises(ValueError):
            Series("a", [1.0, float("inf")])

    def test_rejects_two_dimensional_values(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            Series("a", [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("bad", [1, None, b"a", ("a",)], ids=repr)
    def test_rejects_an_id_that_is_not_a_str(self, bad):
        # fit would carry it to PanelTerm's check, and the writer to its quoting test
        with pytest.raises(ValueError, match=re.escape(f"series id must be a str, got {bad!r}")):
            Series(bad, [1.0, 2.0])

    def test_values_are_readonly(self):
        s = Series("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_equality(self):
        assert Series("a", [1, 2]) == Series("a", [1.0, 2.0])
        assert Series("a", [1, 2]) != Series("b", [1, 2])
        assert Series("a", [1, 2]) != Series("a", [1, 3])

    def test_equal_series_hash_alike(self):
        a, b = Series("a", [0.0, 1.0]), Series("a", [-0.0, 1.0])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_length_and_comparison_with_another_type(self):
        s = Series("a", [1.0, 2.0, 3.0])
        assert len(s) == 3
        # another type is left to compare itself, and so is never equal
        assert s.__eq__("a") is NotImplemented
        assert s != "a" and s != [1.0, 2.0, 3.0]


class TestFamily:
    def test_duplicate_ids_rejected(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            Family(grid, (Series("a", [1, 2]), Series("a", [3, 4])))

    def test_a_matrix_id_that_is_not_a_str_is_rejected(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="series id must be a str, got 1"):
            Family._from_matrix(grid, ("a", 1), np.zeros((2, 2)))

    def test_length_mismatch_rejected(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            Family(grid, (Series("a", [1, 2]),))

    def test_member_lookup(self):
        fam = _family([1, 2], [3, 4])
        assert fam.member("m1") == Series("m1", [3, 4])
        assert fam.member("nope") is None
        assert fam.index_of("m1") == 1
        assert fam.index_of("nope") is None

    def test_one_readonly_matrix_with_row_views(self):
        fam = _family([1, 2, 3], [4, 5, 6])
        assert fam.ids == ("m0", "m1")
        assert fam.values.shape == (2, 3)
        assert fam.values.flags.c_contiguous
        with pytest.raises(ValueError):
            fam.values[0, 0] = 9.0
        for i, member in enumerate(fam.members):
            assert np.shares_memory(member.values, fam.values)
            np.testing.assert_array_equal(member.values, fam.values[i])
            with pytest.raises(ValueError):
                member.values[0] = 9.0
        assert fam.members is fam.members  # built once

    def test_construction_copies_member_values(self):
        source = Series("a", [1.0, 2.0])
        fam = Family(TimeGrid(0.0, 1.0, 2), (source,))
        assert not np.shares_memory(fam.values, source.values)
        assert fam.members == (source,)

    def test_writes_to_the_source_array_cannot_reach_the_family(self):
        big = np.arange(12.0).reshape(4, 3)
        fam = Family(TimeGrid(0.0, 1.0, 3), (Series("a", big[0]), Series("b", big[1])))
        rows = boost._checked_rows(fam, np.zeros(3), "target")
        big[:2] = -1.0
        assert big.flags.writeable  # the caller's array is left as it was
        np.testing.assert_array_equal(fam.values, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(rows.norm, np.sqrt([5.0, 50.0]))
        np.testing.assert_array_equal(rows.total, [3.0, 12.0])
        assert boost._checked_rows(fam, np.zeros(3), "target") is rows  # computed once

    def test_internal_matrix_constructor(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 2), ["a", "b"], values)
        assert np.shares_memory(fam.values, values)  # taken over, not copied
        assert not values.flags.writeable
        assert fam == Family(
            TimeGrid(0.0, 1.0, 2), (Series("a", [1, 2]), Series("b", [3, 4]))
        )
        assert fam.member("b") == Series("b", [3.0, 4.0])
        with pytest.raises(ValueError):
            Family._from_matrix(TimeGrid(0.0, 1.0, 2), ["a"], values)
        with pytest.raises(ValueError):
            Family._from_matrix(TimeGrid(0.0, 1.0, 2), ["a", "a"], values.copy())
        # the builders hand over values they have checked finite, and a
        # matrix whose rows are contiguous is taken over as it is, even a
        # column slice of a wider one
        wide = np.array([[0.0, 1.0, 2.0, 9.0], [0.0, 3.0, 4.0, 9.0]])
        view = Family._from_matrix(TimeGrid(0.0, 1.0, 2), ["a", "b"], wide[:, 1:3])
        assert np.shares_memory(view.values, wide) and view == fam
        assert wide.flags.writeable and not view.values.flags.writeable

    def test_equality_and_immutability(self):
        assert _family([1, 2], [3, 4]) == _family([1, 2], [3, 4])
        assert _family([1, 2], [3, 4]) != _family([1, 2], [3, 5])
        with pytest.raises(AttributeError):
            _family([1, 2]).grid = TimeGrid(0.0, 2.0, 2)

    def test_hash_repr_and_comparison_with_another_type(self):
        fam = _family([1, 2], [3, 4])
        assert hash(fam) == hash(_family([1, 2], [3, 4]))
        assert len({fam, _family([1, 2], [3, 4])}) == 1
        assert repr(fam) == "Family(grid=TimeGrid(start=0.0, step=1.0, count=2), members=2)"
        assert fam.__eq__(fam.members[0]) is NotImplemented
        assert fam != fam.members[0] and fam != "m0"


class TestAggregateTarget:
    def test_two_members(self):
        fam = _family([1, 2, 3], [4, 5, 6])
        target = aggregate_target(fam)
        assert target.id == "__target__"
        np.testing.assert_array_equal(target.values, [5, 7, 9])

    def test_single_member_identity(self):
        fam = _family([1.5, -2.0, 0.25])
        np.testing.assert_array_equal(aggregate_target(fam).values, [1.5, -2.0, 0.25])

    def test_all_zero(self):
        fam = _family([0, 0], [0, 0], [0, 0])
        np.testing.assert_array_equal(aggregate_target(fam).values, [0, 0])

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            aggregate_target(Family(TimeGrid(0.0, 1.0, 2), ()))

    def test_overflowing_sum_is_a_typed_error(self):
        # each member is finite, but their sum at t=0 is not; no warning either
        fam = _family([1e308, 1.0], [1e308, 2.0])
        with pytest.raises(NumericOverflow, match="sum of the members overflows"):
            aggregate_target(fam)

    def test_sums_members_in_order(self):
        rng = np.random.default_rng(12)
        values = [rng.standard_normal(30) * 10.0 ** rng.integers(-8, 9) for _ in range(40)]
        total = np.zeros(30)
        for v in values:
            total = total + v
        np.testing.assert_array_equal(aggregate_target(_family(*values)).values, total)

    def test_linearity_over_disjoint_families(self):
        rng = np.random.default_rng(11)
        values = [rng.standard_normal(20) for _ in range(6)]
        whole = _family(*values)
        first = _family(*values[:3])
        second = Family(
            whole.grid, tuple(Series(f"m{i+3}", v) for i, v in enumerate(values[3:]))
        )
        np.testing.assert_allclose(
            aggregate_target(whole).values,
            aggregate_target(first).values + aggregate_target(second).values,
            rtol=1e-12,
            atol=1e-12,
        )


class TestSplit:
    def test_basic_arithmetic(self):
        grid = TimeGrid(0.0, 1.0, 10)
        train, val, test = split(grid, SplitSpec(0.6, 0.2))
        assert (train, val, test) == (range(0, 6), range(6, 8), range(8, 10))

    def test_empty_test_segment_rejected(self):
        grid = TimeGrid(0.0, 1.0, 100)
        with pytest.raises(DegenerateSplit):
            split(grid, SplitSpec(0.5, 0.5))

    def test_floor_arithmetic(self):
        grid = TimeGrid(0.0, 1.0, 12)
        train, val, test = split(grid, SplitSpec(0.5, 0.25))
        assert (train, val, test) == (range(0, 6), range(6, 9), range(9, 12))

    def test_short_segment_rejected(self):
        grid = TimeGrid(0.0, 1.0, 20)
        with pytest.raises(DegenerateSplit):
            split(grid, SplitSpec(0.9, 0.05))  # validation would get 1 sample

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(0.5, 1.0)
        with pytest.raises(ValueError):
            SplitSpec(0.7, 0.4)

    def test_ranges_partition_the_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            count = int(rng.integers(10, 400))
            tf = float(rng.uniform(0.2, 0.6))
            vf = float(rng.uniform(0.15, 0.35))
            grid = TimeGrid(0.0, 1.0, count)
            try:
                train, val, test = split(grid, SplitSpec(tf, vf))
            except DegenerateSplit:
                continue
            joined = list(train) + list(val) + list(test)
            assert joined == list(range(count))
            assert train.stop == val.start and val.stop == test.start


class TestRestrict:
    def test_slice(self):
        s = Series("a", [1, 2, 3, 4])
        out = restrict(s, range(1, 3))
        assert out.id == "a"
        np.testing.assert_array_equal(out.values, [2, 3])

    def test_full_range_identity(self):
        s = Series("a", [1, 2, 3, 4])
        assert restrict(s, range(0, 4)) == s

    def test_empty_range_rejected(self):
        with pytest.raises(RangeError):
            restrict(Series("a", [1, 2, 3]), range(2, 2))

    def test_strided_range_rejected(self):
        with pytest.raises(RangeError, match="step 1"):
            restrict(Series("a", [1, 2, 3, 4]), range(0, 4, 2))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(RangeError):
            restrict(Series("a", [1, 2, 3]), range(1, 5))
        with pytest.raises(RangeError):
            restrict(Series("a", [1, 2, 3]), range(-1, 2))

    def test_commutes_with_aggregation(self):
        rng = np.random.default_rng(5)
        fam = _family(*(rng.standard_normal(30) for _ in range(4)))
        window = range(7, 19)
        direct = restrict(aggregate_target(fam), window)
        via_members = aggregate_target(restrict_family(fam, window))
        np.testing.assert_array_equal(direct.values, via_members.values)

    def test_restrict_family_shifts_grid(self):
        fam = _family([1, 2, 3, 4, 5, 6], start=10.0, step=0.5)
        sub = restrict_family(fam, range(2, 6))
        assert sub.grid == TimeGrid(11.0, 0.5, 4)
        np.testing.assert_array_equal(sub.members[0].values, [3, 4, 5, 6])
        _assert_window_view(sub, fam)

    @pytest.mark.parametrize("window", [range(2, 6), range(0, 6), range(4, 6)])
    def test_restrict_family_is_the_family_of_its_rows(self, window):
        fam = _family([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [0, 0, 1, 1, 0, 0])
        sub = restrict_family(fam, window)
        rebuilt = Family(sub.grid, (restrict(m, window) for m in fam.members))
        assert sub == rebuilt and sub.ids == rebuilt.ids == ("m0", "m1", "m2")
        assert sub.index_of("m2") == 2
        _assert_window_view(sub, fam)


def _assert_window_view(sub, parent):
    """``sub`` reads the parent's matrix through a read-only view of contiguous rows."""
    assert np.shares_memory(sub.values, parent.values)
    assert sub.ids is parent.ids
    assert not sub.values.flags.writeable
    assert sub.values.strides[1] == sub.values.itemsize


def _outcome(call):
    """repr of what ``call()`` returns, or the type and message of its PanelBoostError."""
    try:
        return repr(call())
    except PanelBoostError as exc:
        return type(exc).__name__, str(exc)


def _bits(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


_CONFIG = BoostConfig(panel_size=4, transform=TransformKind.RECIPROCAL, lbound=-1.0,
                      alpha=0.7)
_GRID = SweepGrid(panel_sizes=(1, 3), lbounds=(-1.0, 0.0), alphas=(1.0, 0.5),
                  transforms=(TransformKind.RECIPROCAL, TransformKind.WITCH))


def _same_results(sub, rebuilt, target):
    """Everything the library computes from the two families is the same, bit for bit."""
    assert sub.grid == rebuilt.grid and sub.ids == rebuilt.ids
    assert _bits(sub.values) == _bits(rebuilt.values)
    assert _outcome(lambda: select_step(sub, target, _CONFIG)) == _outcome(
        lambda: select_step(rebuilt, target, _CONFIG))
    fitted = [_outcome(lambda: fit(family, target, _CONFIG)) for family in (sub, rebuilt)]
    assert fitted[0] == fitted[1]
    _same_screen(sub, rebuilt)
    try:
        model, _ = fit(sub, target, _CONFIG)
    except PanelBoostError:
        pass
    else:
        assert _bits(predict(model, sub).values) == _bits(predict(model, rebuilt).values)
    swept = [_outcome(lambda: sweep(family, target, SplitSpec(0.6, 0.2), _GRID))
             for family in (sub, rebuilt)]
    assert swept[0] == swept[1]


def _screen(family):
    """The screen constants ``family`` holds, or None before its first fit."""
    return family._derived.get(boost._Rows)


def _same_screen(sub, rebuilt):
    """The two families hold the same screen constants and Gram columns, bit for bit."""
    ours, theirs = _screen(sub), _screen(rebuilt)
    assert (ours is None) == (theirs is None)
    if ours is None:
        return
    # every field but the last, the Gram columns
    assert _bits(*ours[:-1]) == _bits(*theirs[:-1])
    assert list(ours.gram) == list(theirs.gram)
    assert all(_bits(ours.gram[row]) == _bits(theirs.gram[row]) for row in ours.gram)


class TestWindowView:
    """A window of a family is a view of its matrix that computes as a copy would."""

    @pytest.mark.parametrize("odd", [0, 1])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_window_is_the_family_of_its_restricted_members(self, odd, data):
        # an odd start puts every row of a window off a 16-byte boundary
        count = data.draw(st.integers(11, 40), label="count")
        length = data.draw(st.integers(10, count - 1), label="length")
        start = 2 * data.draw(st.integers(0, (count - length - odd) // 2), label="half") + odd
        kinds = data.draw(st.lists(st.sampled_from(["noise", "offset", "constant", "zero"]),
                                   min_size=1, max_size=6), label="kinds")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.standard_normal((len(kinds), count)) * 10.0 ** rng.integers(
            -3, 4, (len(kinds), 1))
        for row, kind in zip(values, kinds):
            if kind == "offset":
                row += 1e4
            elif kind != "noise":
                row[:] = 0.0 if kind == "zero" else rng.standard_normal()
        fam = Family._from_matrix(TimeGrid(2.5, 0.5, count), [f"m{i}" for i in range(len(kinds))],
                                  values)
        window = range(start, start + length)
        target = restrict(Series("__target__", values[:3].sum(axis=0)
                                 + rng.standard_normal(count)), window)
        sub = restrict_family(fam, window)
        _assert_window_view(sub, fam)
        rebuilt = Family(sub.grid, (restrict(m, window) for m in fam.members))
        _same_results(sub, rebuilt, target)

    def test_a_window_fills_its_own_gram_cache(self):
        # the window starts at an odd column, so none of its rows starts on a
        # 16-byte boundary, and its parent's columns are dots over other columns
        rng = np.random.default_rng(11)
        values = rng.standard_normal((600, 877))
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 877), [f"m{i}" for i in range(600)],
                                  values)
        config = BoostConfig(panel_size=10, transform=TransformKind.RECIPROCAL, lbound=-1.0,
                             alpha=0.8)
        fit(fam, Series("__target__", values[:5].sum(axis=0)), config)
        parent = {row: _bits(column) for row, column in _screen(fam).gram.items()}
        assert len(parent) == 9
        window = range(1, 439)
        sub = restrict_family(fam, window)
        assert sub._derived == {}  # no constants and no columns yet
        rebuilt = Family(sub.grid, (restrict(m, window) for m in fam.members))
        target = restrict(Series("__target__", values[:5].sum(axis=0)), window)
        fits = [[repr(fit(family, target, config)) for _ in range(3)]
                for family in (sub, rebuilt)]
        assert fits[0] == fits[1]
        assert len(_screen(sub).gram) == 9
        _same_screen(sub, rebuilt)
        assert {row: _bits(column) for row, column in _screen(fam).gram.items()} == parent

    def test_restricting_copies_nothing(self):
        values = np.random.default_rng(0).standard_normal((2000, 730))
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 730), [f"m{i}" for i in range(2000)],
                                  values)
        tracemalloc.start()
        try:
            sub = restrict_family(fam, range(1, 439))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _assert_window_view(sub, fam)
        assert peak < 64 * 1024
