import tracemalloc

import numpy as np
import pytest

from panelboost import (
    DegenerateSplit,
    EmptyFamily,
    Family,
    NumericOverflow,
    RangeError,
    Series,
    SplitSpec,
    TimeGrid,
    aggregate_target,
    restrict,
    restrict_family,
    split,
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


class TestFamily:
    def test_the_float32_copy_has_no_full_size_float64_temporary(self):
        # the copy itself takes half the matrix's bytes; a full-size float64
        # temporary would take all of them again
        values = np.random.default_rng(0).standard_normal((2000, 438))
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 438), [f"m{i}" for i in range(2000)],
                                  values)
        tracemalloc.start()
        try:
            copy, _ = fam._centred32
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert copy.nbytes == fam.values.nbytes // 2
        assert peak < 0.6 * fam.values.nbytes

    def test_duplicate_ids_rejected(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            Family(grid, (Series("a", [1, 2]), Series("a", [3, 4])))

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
        sums = fam.row_sums
        big[:2] = -1.0
        assert big.flags.writeable  # the caller's array is left as it was
        np.testing.assert_array_equal(fam.values, [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(fam.row_sums[0], [5.0, 50.0])
        np.testing.assert_array_equal(fam.row_sums[1], [3.0, 12.0])
        assert fam.row_sums is sums  # computed once

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
        with pytest.raises(ValueError):
            Family._from_matrix(
                TimeGrid(0.0, 1.0, 2), ["a", "b"], [[1.0, np.nan], [0, 1]]
            )

    def test_equality_and_immutability(self):
        assert _family([1, 2], [3, 4]) == _family([1, 2], [3, 4])
        assert _family([1, 2], [3, 4]) != _family([1, 2], [3, 5])
        with pytest.raises(AttributeError):
            _family([1, 2]).grid = TimeGrid(0.0, 2.0, 2)


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
        assert sub.values.flags.c_contiguous
        assert not sub.values.flags.writeable
