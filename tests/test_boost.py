import contextlib
import math
import sys
import threading
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    enumerate_panels,
    orthogonal_vectors,
    scalar_fit,
    scalar_select,
    walsh_members,
)
from panelboost import (
    BoostConfig,
    DegenerateCorrelation,
    DegenerateResidual,
    EmptyFamily,
    Family,
    GenSpec,
    MissingPanelMember,
    NoAdmissibleMember,
    NumericOverflow,
    PanelBoostError,
    PanelModel,
    PanelTerm,
    Series,
    ShapeError,
    SplitSpec,
    SweepGrid,
    TimeGrid,
    TransformKind,
    ZeroCandidate,
    boost,
    fit,
    generate,
    pearson,
    predict,
    residual,
    restrict,
    restrict_family,
    select_step,
    split,
    sweep,
)
from panelboost.functional import _centred, _weight, argmin_rho

RECIP = TransformKind.RECIPROCAL


def _family(named_values, start=0.0, step=1.0):
    items = list(named_values.items())
    count = len(items[0][1])
    return Family(
        TimeGrid(start, step, count),
        tuple(Series(name, vals) for name, vals in items),
    )


def _config(panel_size, **kwargs):
    kwargs.setdefault("transform", RECIP)
    return BoostConfig(panel_size=panel_size, **kwargs)


def _cold(fam):
    """A fresh copy of ``fam``: it holds no screen constants and no Gram columns."""
    return Family._from_matrix(fam.grid, fam.ids, fam.values.copy())


def _warm(fam):
    """A fresh copy of ``fam`` after fits to two other targets, which fill its caches.

    Each fit runs until its pool is empty or its residual degenerate, so it
    steps by every usable row it can, and the family holds its screen
    constants and their columns.
    """
    fam = _cold(fam)
    count = fam.grid.count
    for values in (np.linspace(-1.0, 1.0, count), np.cos(np.arange(count))):
        try:
            fit(fam, Series("__target__", values), _config(max(1, len(fam))))
        except PanelBoostError:
            pass
    return fam


# The family's two states. Its Gram columns change only which rows are
# rescored, so every result must be the same on both, and the scalar oracle's.
CACHES = {"cold": _cold, "warm": _warm}


def _screen(fam):
    """The screen constants ``fam`` holds, or None before its first fit."""
    return fam._derived.get(boost._Rows)


def _sums_of_squares(fam):
    """Each row's sum of squares, summed as the screen sums it."""
    return np.einsum("ij,ij->i", fam.values, fam.values)


class TestBoostConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            _config(0)
        with pytest.raises(ValueError):
            _config(1, lbound=2.0)
        with pytest.raises(ValueError):
            _config(1, alpha=0.0)
        with pytest.raises(ValueError):
            _config(1, alpha=1.5)


class TestSelectStep:
    def test_colinear_candidate(self):
        g = np.array([1.0, -1.0, 2.0, -2.0])
        fam = _family({"g": g})
        chosen = select_step(fam, Series("__residual__", 3 * g), _config(1))
        assert chosen is not None
        assert chosen.member_id == "g"
        assert chosen.raw_rho == 3.0
        assert chosen.score == pytest.approx(1.0, abs=1e-12)

    def test_nothing_clears_threshold(self):
        w = walsh_members(20)
        fam = _family({"s2": w["s2"], "s3": w["s3"]})
        resid = Series("__residual__", w["s1"])  # orthogonal and uncorrelated
        assert select_step(fam, resid, _config(1, lbound=0.5)) is None

    def test_higher_correlation_wins(self):
        w = walsh_members(20)
        fam = _family({"s1": w["s1"], "s2": w["s2"]})
        resid = Series("__residual__", w["s1"] + 0.3 * w["s2"])
        chosen = select_step(fam, resid, _config(1))
        assert chosen.member_id == "s1"
        assert chosen.raw_rho == pytest.approx(1.0, rel=1e-12)

    def test_matches_independent_scoring_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(8, 60))
            values = {f"c{i}": rng.standard_normal(n) for i in range(5)}
            resid_values = rng.standard_normal(n)
            fam = _family(values)
            chosen = select_step(fam, Series("__residual__", resid_values), _config(1))
            # oracle: score each candidate with plain numpy, pick the max
            scores = {}
            for name, g in values.items():
                rho = float(g @ resid_values) / float(g @ g)
                corr = float(np.corrcoef(resid_values, g)[0, 1])
                scores[name] = float(np.sign(rho)) * corr
            best = max(scores, key=lambda name: scores[name])
            assert chosen.member_id == best
            assert chosen.score == pytest.approx(scores[best], abs=1e-9)

    def test_zero_score_accepted_at_zero_lbound(self):
        w = walsh_members(16)
        fam = _family({"s2": w["s2"]})
        chosen = select_step(fam, Series("__residual__", w["s1"]), _config(1, lbound=0.0))
        assert chosen == ("s2", 0.0, 0.0)

    def test_skips_zero_and_constant_candidates(self):
        g = np.array([1.0, 3.0, -2.0, 0.0])
        fam = _family({"zero": np.zeros(4), "flat": np.full(4, 7.0), "g": g})
        chosen = select_step(fam, Series("__residual__", 2 * g), _config(1))
        assert chosen.member_id == "g"

    def test_ties_break_by_family_order(self):
        g = np.array([2.0, -2.0, 4.0, -4.0])
        fam = _family({"a": g, "b": g.copy()})  # identical scores
        chosen = select_step(fam, Series("__residual__", g), _config(1))
        assert chosen.member_id == "a"

    def test_empty_family(self):
        fam = Family(TimeGrid(0.0, 1.0, 4), ())
        with pytest.raises(EmptyFamily):
            select_step(fam, Series("__residual__", [1.0, 2.0, 3.0, 4.0]), _config(1))

    def test_degenerate_residual(self):
        fam = _family({"g": [1.0, 2.0, 3.0]})
        with pytest.raises(DegenerateResidual):
            select_step(fam, Series("__residual__", [5.0, 5.0, 5.0]), _config(1))

    def test_far_apart_duplicates_pick_the_earliest(self):
        rng = np.random.default_rng(28)
        n, count = 37, 53  # odd sizes put the last row in a matrix kernel's tail
        values = rng.standard_normal((n, count))
        resid = rng.standard_normal(count)
        values[1] = values[n - 1] = resid + 0.01 * rng.standard_normal(count)
        fam = _family({f"c{i}": v for i, v in enumerate(values)})
        chosen = select_step(fam, Series("__residual__", resid), _config(1))
        assert chosen.member_id == "c1"


# Small families mixing the rows that stress the matrix screen: zero and
# constant rows, rows whose mean dwarfs their spread, and a duplicate of row 1
# at the far end. Magnitudes stay far from overflow.
_VALUES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _selection_cases(draw):
    count = draw(st.integers(2, 12))
    plain = arrays(float, count, elements=_VALUES)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("plain", "zero", "constant", "offset")))
        if kind == "plain":
            rows.append(draw(plain))
        elif kind == "zero":
            rows.append(np.zeros(count))
        elif kind == "constant":
            rows.append(np.full(count, draw(_VALUES)))
        else:
            mean = draw(st.floats(1e3, 1e6)) * draw(st.sampled_from((-1.0, 1.0)))
            rows.append(mean + draw(arrays(float, count, elements=st.floats(-1.0, 1.0))))
    if len(rows) >= 3 and draw(st.booleans()):
        rows[-1] = rows[1].copy()
    if draw(st.booleans()):
        resid = draw(st.floats(-10.0, 10.0)) * draw(st.sampled_from(rows)) + draw(plain)
    else:
        resid = draw(plain)
    assume(np.ptp(resid) > 0)
    lbound = draw(st.sampled_from((-1.0, 0.0, 0.5)))
    return rows, resid, lbound


# Rows at the edges of the per-family screen constants: zero and constant rows,
# unresolved rows (a mean so far beyond the spread that the centred sum of
# squares is lost to cancellation) and subnormal rows, whose squares fall
# near or below the smallest normal float, and flat rows, whose sum of
# squares stays above 0 while their centred one underflows to it, so that
# the rescore must skip them. The residual follows one row's fluctuation
# about its mean, so any row can be the winner, plus noise; a scale of
# 1e-150 puts its own centred sum of squares below the screen's bound as
# well.
@st.composite
def _screen_edge_cases(draw):
    count = draw(st.integers(2, 12))
    unit = arrays(float, count, elements=st.floats(-1.0, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("plain", "zero", "constant", "unresolved",
                                     "subnormal", "flat")))
        if kind == "plain":
            rows.append(draw(arrays(float, count, elements=_VALUES)))
        elif kind == "zero":
            rows.append(np.zeros(count))
        elif kind == "constant":
            rows.append(np.full(count, draw(_VALUES)))
        elif kind == "unresolved":
            mean = draw(st.floats(1e8, 1e12)) * draw(st.sampled_from((-1.0, 1.0)))
            rows.append(mean + draw(unit))
        elif kind == "subnormal":
            rows.append(draw(unit) * draw(st.sampled_from((1e-150, 1e-158, 1e-162))))
        else:
            rows.append(1e-160 + draw(unit) * 1e-170)
    resid = _following_residual(draw, rows, unit, (1.0, 1e-150))
    lbound = draw(st.sampled_from((-1.0, 0.0, 0.5)))
    return rows, resid, lbound


# Rows far from unit scale, where the float64 screen's sums are at their
# edges (the scales once bracketed float32's range, hence the name): tiny
# rows (1e-42, and 1e-300, whose squares underflow to 0), large ones (1e39,
# and 1e150, whose sums of squares near 1e300), a row holding both 1e30 and
# 1e-30, whose small values vanish from its sums, and near-duplicate rows,
# whose scores tie within a relative 1e-9, far outside the screen's rounding
# bound, which must still tell them apart. The residual is built as in
# _screen_edge_cases, at scales that put it beside those rows.
@st.composite
def _float32_edge_cases(draw):
    count = draw(st.integers(2, 12))
    unit = arrays(float, count, elements=st.floats(-1.0, 1.0))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("plain", "scaled", "mixed", "near duplicate")))
        if kind == "plain" or (kind == "near duplicate" and not rows):
            rows.append(draw(arrays(float, count, elements=_VALUES)))
        elif kind == "scaled":
            rows.append(draw(unit) * draw(st.sampled_from((1e-300, 1e-42, 1e39, 1e150))))
        elif kind == "mixed":
            big = draw(arrays(bool, count))
            big[0], big[-1] = True, False
            rows.append(np.where(big, 1e30, 1e-30) * draw(unit))
        else:
            rows.append(draw(st.sampled_from(rows)) * (1 + 1e-9))
    resid = _following_residual(draw, rows, unit, (1.0, 1e-300, 1e-42, 1e39, 1e150))
    lbound = draw(st.sampled_from((-1.0, 0.0, 0.5)))
    return rows, resid, lbound


def _following_residual(draw, rows, unit, scales):
    """One row's fluctuation about its mean, times a factor, plus noise, at one of ``scales``."""
    shape = draw(st.sampled_from(rows))
    shape = shape - shape.mean()
    if np.abs(shape).max() > 0:
        shape = shape / np.abs(shape).max()
    noise = draw(st.sampled_from((0.0, 1e-3, 1.0)))
    resid = draw(st.floats(-10.0, 10.0)) * shape + noise * draw(unit)
    resid = resid * draw(st.sampled_from(scales))
    assume(np.ptp(resid) > 0)
    return resid


class TestMatchesScalarOracle:
    """The matrix-backed selection reproduces the per-candidate loop exactly."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_selection_cases())
    def test_select_step(self, case):
        rows, resid, lbound = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, lbound)
        for state, prepare in CACHES.items():
            got = select_step(prepare(fam), Series("__residual__", resid),
                              _config(1, lbound=lbound))
            if want is None:
                assert got is None, state
            else:
                # same member (earliest duplicate), and raw_rho and score bit for bit
                assert got == want[1], state

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_screen_edge_cases())
    def test_select_step_on_rows_at_the_screen_edges(self, case):
        rows, resid, lbound = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, lbound)
        for state, prepare in CACHES.items():
            got = select_step(prepare(fam), Series("__residual__", resid),
                              _config(1, lbound=lbound))
            assert got == (None if want is None else want[1]), state

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_float32_edge_cases())
    def test_select_step_on_rows_at_the_float32_edges(self, case):
        rows, resid, lbound = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, lbound)
        for state, prepare in CACHES.items():
            got = select_step(prepare(fam), Series("__residual__", resid),
                              _config(1, lbound=lbound))
            assert got == (None if want is None else want[1]), state

    def test_sign_of_a_vanishing_inner_product(self):
        # <h, r> is zero up to rounding while pearson(r, h) is near 1, so the
        # sign of raw_rho, and with it the winner, is decided by rounding
        for seed in range(30):
            rng = np.random.default_rng(seed)
            r0 = rng.standard_normal(40)
            h = 1e6 + r0 + 0.1 * rng.standard_normal(40)
            resid = r0 - (h @ r0) / (h @ h) * h
            rows = [rng.standard_normal(40) + resid for _ in range(3)] + [h]
            fam = _family({f"c{i}": v for i, v in enumerate(rows)})
            want = scalar_select([(m.id, m.values) for m in fam.members], resid, -1.0)
            for state, prepare in CACHES.items():
                got = select_step(prepare(fam), Series("__residual__", resid), _config(1))
                assert got == want[1], (seed, state)

    def test_a_residual_near_underflow_rescores_every_row(self, monkeypatch):
        # srr is about 3.5e-299, below RESOLVED_FLOOR, where the screen's
        # rounding bound no longer holds: every usable row must be rescored
        fam, _ = generate(GenSpec(12, 40, 3, 0.3, 5))
        resid = np.random.default_rng(1).standard_normal(40) * 1e-150
        rescored = []

        def counting_weight(hy, hh):
            rescored.append(hh)
            return _weight(hy, hh)

        monkeypatch.setattr(boost, "_weight", counting_weight)
        got = select_step(fam, Series("__residual__", resid), _config(1))
        assert len(rescored) == len(fam) == 12
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, -1.0)
        assert got == want[1]

    def test_a_residual_of_uncertain_sign_on_every_row_rescores_every_row(
            self, monkeypatch):
        # the residual is orthogonal to every row up to rounding, so no
        # <h, r> clears its sign bound: every interval is infinite, the floor
        # is -inf, and every pool row is rescored, whatever the cache holds
        rescored = []

        def counting_weight(hy, hh):
            rescored.append(hh)
            return _weight(hy, hh)

        monkeypatch.setattr(boost, "_weight", counting_weight)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((6, 40)) + rng.uniform(-3.0, 3.0, (6, 1))
            r0 = rng.standard_normal(40)
            resid = r0 - rows.T @ np.linalg.lstsq(rows.T, r0, rcond=None)[0]
            sign_bound = boost.ROUNDING_MARGIN * 40 * boost.EPS
            norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(resid)
            assert (np.abs(rows @ resid) < sign_bound * norms).all()
            fam = _family({f"c{i}": v for i, v in enumerate(rows)})
            want = scalar_select([(m.id, m.values) for m in fam.members], resid, -1.0)
            for state, prepare in CACHES.items():
                prepared = prepare(fam)
                rescored.clear()
                got = select_step(prepared, Series("__residual__", resid), _config(1))
                assert len(rescored) == len(fam), (seed, state)
                assert got == want[1], (seed, state)

    @pytest.mark.parametrize("count", [2, 3, 219])
    @pytest.mark.parametrize("value", [1e150, -3.7, 1e-140, 1e-150, 5e-324])
    def test_a_constant_residual_is_degenerate(self, count, value):
        # the mean of a constant residual may round, so its centred sum of
        # squares may be tiny rather than 0: above RESOLVED_FLOOR at T = 3
        # and -3.7, and at T = 219 and 1e150 or -3.7, below it at T = 3 and
        # 1e-140; only the comparison of its values tells
        rng = np.random.default_rng(count)
        fam = _family({f"c{i}": rng.standard_normal(count) for i in range(3)})
        resid = np.full(count, value)
        for state, prepare in CACHES.items():
            prepared = prepare(fam)
            first = boost._start(prepared, Series("__residual__", resid), "residual").first
            assert first is None, state
            with pytest.raises(DegenerateResidual):
                select_step(prepared, Series("__residual__", resid), _config(1))
            with pytest.raises(NoAdmissibleMember):
                fit(prepared, Series("__target__", resid), _config(2))

    @pytest.mark.parametrize("field", ["spread", "slack_factor"])
    def test_a_nan_bound_rescores_a_pool_row_and_no_other(self, field, monkeypatch):
        # a NaN estimate (through the spread) or a NaN slack gives row 3 a
        # NaN interval: it is rescored, as the row whose interval sets the
        # floor is, while row 5, outside the pool, never is, NaN or not
        rescored = []

        def counting_weight(hy, hh):
            rescored.append(hh)
            return _weight(hy, hh)

        monkeypatch.setattr(boost, "_weight", counting_weight)
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 40))
        resid = values[0] + 0.1 * rng.standard_normal(40)
        fam = _family({f"c{i}": v for i, v in enumerate(values)})
        rows = boost._checked_rows(fam, resid, "residual")
        usable, inv_spread, slack_factor = (
            rows.usable.copy(), rows.inv_spread.copy(), rows.slack_factor.copy())
        # row 5 starts outside the pool, as a row that is not usable does
        usable[5] = False
        slack_factor[5] = np.nan
        if field == "spread":
            inv_spread[[3, 5]] = np.nan
        else:
            slack_factor[3] = np.nan
        rows = rows._replace(usable=usable, inv_spread=inv_spread, slack_factor=slack_factor)
        monkeypatch.setattr(boost, "_checked_rows", lambda *args: rows)
        found = boost._start(fam, Series("__residual__", resid), "residual").first
        # each rescored row is told by its sum of squares, all distinct here
        sums_of_squares = [float(h.copy() @ h.copy()) for h in fam.values]
        assert [sums_of_squares.index(hh) for hh in rescored] == [0, 3]
        members = [(m.id, m.values) for m in fam.members]
        want = scalar_select(members[:5], resid, -1.0)
        assert found == (want[0], want[1])

    @pytest.mark.parametrize("count", [40, 64])
    def test_rows_and_target_near_the_top_of_the_float_range(self, count):
        # sums of squares up to about 2e307: every product of two of them,
        # h_spread * r_spread among them, leaves the float range, and the
        # screen must neither warn (warnings are errors here) nor misjudge
        # a row, whatever the cache holds
        rng = np.random.default_rng(count)
        scale = 1e153 * np.sqrt(64 / count)
        rows = rng.uniform(-1.0, 1.0, (6, count)) * scale
        rows[5] = rows[0] * 1e-150  # a small row with the same shape as row 0
        # rows whose means dominate their spread, near 1e153 and -1.2e153:
        # every sum of squares is finite, but a row sum squared is not
        shifted = rng.uniform(-0.1, 0.1, (4, count)) * scale
        shifted[:2] += scale
        shifted[2] *= 1e-2
        shifted[3] -= 1.2 * scale
        assert (np.abs(shifted.sum(axis=1)[[0, 1, 3]]) > math.sqrt(np.finfo(float).max)).all()
        families = [(rows, 0.6 * rows[0] - 0.3 * rows[2] + 0.1 * rows[4]),
                    (shifted, 0.6 * shifted[0] + 0.4 * shifted[1] + shifted[3])]
        for rows, target in families:
            assert np.isfinite(target @ target) and np.isfinite(rows @ rows.T).all()
            fam = _family({f"c{i}": v for i, v in enumerate(rows)})
            members = [(m.id, m.values) for m in fam.members]
            want_step = scalar_select(members, target, -1.0)
            want_path, want_stopped = scalar_fit(members, target, 5)
            for state, prepare in CACHES.items():
                prepared = prepare(fam)
                got = select_step(prepared, Series("__residual__", target), _config(1))
                model, _ = fit(prepared, Series("__target__", target), _config(5))
                assert got == want_step[1], state
                got_path = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
                assert got_path == want_path, state
                assert model.stopped_early == want_stopped, state
            # a target whose sum of squares leaves the range is a typed error
            with pytest.raises(NumericOverflow, match="target"):
                fit(fam, Series("__target__", target * 1e2), _config(5))

    # a row whose sum of squares, as the screen sums it, is finite but within a
    # relative (T + 3) * eps of the float maximum, and on the default kernels
    # BLAS's dot of the row with itself, summed in another order, overflows
    NEAR_MAX_ROW = [-7.08931656633448e153, -6.714810202786941e153, -2.0894799564845383e153,
                    -8.18647823236241e153, -2.5311907926738426e153, -2.499277741186979e153,
                    6.2012874072384725e152]
    SMALL_ROW = [1.0, 2.0, 3.0, 1.0, 2.0, 5.0, 1.0]
    TARGETS = ([1.0, -2.0, 3.0, 4.0, 1.0, 0.0, 2.0], [3.0, 1.0, -1.0, 2.0, 0.5, 1.0, 4.0])

    def test_a_row_whose_sum_of_squares_nears_the_float_maximum(self):
        # such a row is a NumericOverflow naming it on every call, whatever
        # the family holds, and argmin_rho raises one wherever its dot with
        # itself overflows, with no warning escaping (warnings are errors here)
        big = self.NEAR_MAX_ROW
        fam = _family({"big": big, "small": self.SMALL_ROW})
        sq_norm = _sums_of_squares(fam)[0]
        assert math.isfinite(sq_norm)
        assert sq_norm >= np.finfo(float).max / (1.0 + 10 * np.finfo(float).eps)
        h = np.array(big)
        with np.errstate(over="ignore"):
            overflows = math.isinf(h.copy() @ h.copy())
        for target in self.TARGETS:
            for prepare in CACHES.values():
                prepared = prepare(fam)
                with pytest.raises(NumericOverflow, match="'big'"):
                    select_step(prepared, Series("__residual__", target), _config(1))
                with pytest.raises(NumericOverflow, match="'big'"):
                    fit(prepared, Series("__target__", target), _config(2))
                assert _screen(prepared) is None
            if overflows:
                with pytest.raises(NumericOverflow, match="sum of squares overflows"):
                    argmin_rho(big, target)
            else:
                assert math.isfinite(argmin_rho(big, target))

    def test_a_row_near_half_the_float_maximum(self, monkeypatch):
        # every dot of the row stays finite: it is rescored and matches the
        # scalar oracle, with no warning escaping
        half = np.array(self.NEAR_MAX_ROW) / math.sqrt(2.0)
        fam = _family({"half": half, "small": self.SMALL_ROW})
        sq_norm = _sums_of_squares(fam)[0]
        assert 0.4 * np.finfo(float).max < sq_norm < 0.6 * np.finfo(float).max
        members = [(m.id, m.values) for m in fam.members]
        rescored = []

        def counting_weight(hy, hh):
            rescored.append(hh)
            return _weight(hy, hh)

        monkeypatch.setattr(boost, "_weight", counting_weight)
        for target in self.TARGETS:
            want_step = scalar_select(members, target, -1.0)
            want_path, want_stopped = scalar_fit(members, target, 2)
            for state, prepare in CACHES.items():
                prepared = prepare(fam)
                got = select_step(prepared, Series("__residual__", target), _config(1))
                model, _ = fit(prepared, Series("__target__", target), _config(2))
                assert got == want_step[1], state
                got_path = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
                assert got_path == want_path, state
                assert model.stopped_early == want_stopped, state
        assert any(hh > 0.4 * np.finfo(float).max for hh in rescored)

    @pytest.mark.parametrize("seed", range(5))
    def test_fit_path_on_generated_panels(self, seed):
        # noise-free panels hold exact multiples, whose scores tie in exact arithmetic
        spec = GenSpec(n_series=60, days=90, archetypes=3,
                       noise_sd=0.0 if seed % 2 else 0.05, seed=seed)
        fam, target = generate(spec)
        options = [
            {},
            {"alpha": 0.5},
            {"lbound": 0.0},
            {"with_replacement": True, "alpha": 0.7},
            {"lbound": 0.3, "alpha": 0.9},
        ][seed]
        path, stopped = scalar_fit(
            [(m.id, m.values) for m in fam.members], target.values, 8, **options
        )
        for state, prepare in CACHES.items():
            try:
                model, _ = fit(prepare(fam), target, _config(8, **options))
            except NoAdmissibleMember:
                model = None
            if model is None:
                assert path == [], state
            else:
                got = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
                assert got == path, state
                assert model.stopped_early == stopped, state

    def test_a_residual_that_collapses_while_the_mass_stays_large(self, monkeypatch):
        # the target 2a + 3b on disjoint supports: after a and b, the residual
        # is only the rounding of 3b, far below the mass the screen's product
        # carries, so its bound widens until every pool row is rescored, and
        # each later step must still be the oracle's
        rng = np.random.default_rng(12)
        a, b = np.zeros(40), np.zeros(40)
        a[:20], b[20:] = rng.standard_normal(20), rng.standard_normal(20)
        fam = _family({"a": a, "b": b, **{f"n{i}": v
                                          for i, v in enumerate(rng.standard_normal((6, 40)))}})
        target = 2 * a + 3 * b
        want_path, want_stopped = scalar_fit([(m.id, m.values) for m in fam.members], target, 6)
        assert len(want_path) == 6 and {want_path[0][0], want_path[1][0]} == {"a", "b"}
        rescored = []

        def counting_weight(hy, hh):
            rescored.append(hh)
            return _weight(hy, hh)

        monkeypatch.setattr(boost, "_weight", counting_weight)
        for state, prepare in CACHES.items():
            prepared = prepare(fam)
            rescored.clear()
            model, trace = fit(prepared, Series("__target__", target), _config(6))
            got = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
            assert got == want_path, state
            assert model.stopped_early == want_stopped, state
            assert trace.records[1].squared_error_after < 1e-25 * float(target @ target)
            # steps 3 to 6 rescore their whole pools: 6, 5, 4 and 3 rows
            assert len(rescored) >= 18, state

    def test_a_long_path_with_replacement_at_a_small_alpha(self):
        # 200 steps of weight 0.05 move the product by 199 columns
        fam, target = generate(GenSpec(20, 60, 3, 0.05, 7))
        want_path, want_stopped = scalar_fit([(m.id, m.values) for m in fam.members],
                                             target.values, 200, alpha=0.05,
                                             with_replacement=True)
        assert len(want_path) == 200
        for state, prepare in CACHES.items():
            model, _ = fit(prepare(fam), target,
                           _config(200, alpha=0.05, with_replacement=True))
            got = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
            assert got == want_path, state
            assert model.stopped_early == want_stopped, state


class _Screened(NamedTuple):
    """One ``_best`` call: what it was given, its intervals and its result."""

    family: Family
    r: np.ndarray
    mask: np.ndarray
    intervals: tuple[np.ndarray, np.ndarray] | None  # (est, wide); None if not taken
    found: tuple | None


@contextlib.contextmanager
def _screening(calls):
    """A context in which every ``_best`` call appends a ``_Screened`` to ``calls``."""
    best, intervals = boost._best, boost._intervals
    taken = []

    def recording_intervals(*args):
        est, wide = intervals(*args)
        taken.append((est.copy(), wide.copy()))
        return est, wide

    def recording_best(family, rows, r, mask, slack, hr, drift):
        taken.clear()
        r_given, mask_given = r.copy(), mask.copy()
        found = best(family, rows, r, mask, slack, hr, drift)
        assert len(taken) <= 1
        calls.append(_Screened(family, r_given, mask_given, taken[0] if taken else None, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boost, "_intervals", recording_intervals)
        patch.setattr(boost, "_best", recording_best)
        yield


def _check_containment(calls):
    """Every pool row's scalar score lies in its finite interval, and the winner was rescored.

    The score is ``sign(argmin_rho) * pearson`` times ``spread(r)``, as
    ``_intervals`` bounds it; a pool row whose centred values vanish has
    none. Returns the number of scores checked.
    """
    checked = 0
    for family, r, mask, intervals, found in calls:
        if intervals is None:  # a degenerate residual, or srr near underflow
            continue
        est, wide = intervals
        rc = r - r.mean()
        spread = math.sqrt(rc @ rc)
        scores = {}
        for i in np.flatnonzero(mask).tolist():
            try:
                raw_rho = argmin_rho(family.values[i], r)
                corr = pearson(r, family.values[i])
            except (ZeroCandidate, DegenerateCorrelation):
                continue
            scores[i] = float(np.sign(raw_rho)) * corr
            if math.isfinite(wide[i]):
                assert est[i] - wide[i] <= scores[i] * spread <= est[i] + wide[i], (
                    i, scores[i] * spread, est[i], wide[i])
                checked += 1
        if not scores:
            assert found is None
            continue
        # the rows _best rescores: pool rows whose upper end is not below the floor
        floor = np.fmax.reduce(est - wide)
        rescored = np.flatnonzero(mask > (est + wide < floor)).tolist()
        best = max(scores.values())
        assert found is not None and found[0] in rescored
        assert found[0] == min(i for i, score in scores.items() if score == best)
        assert found[1].score == best
    return checked


class TestScreenContainment:
    """The screen's intervals hold every pool row's exact score, not only the winner's.

    Each ``_intervals`` call on a fit's path is recorded with the residual and
    pool ``_best`` was given, and every finite interval is checked against the
    scalar ``argmin_rho``/``pearson`` score of its row.
    """

    @staticmethod
    def _fit_and_check(rows, resid, with_replacement):
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        config = _config(2 * len(rows), with_replacement=with_replacement)
        for prepare in CACHES.values():
            prepared, calls = prepare(fam), []
            with _screening(calls):
                try:
                    fit(prepared, Series("__target__", resid), config)
                except PanelBoostError:
                    pass
            _check_containment(calls)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_selection_cases(), st.booleans())
    def test_on_selection_cases(self, case, with_replacement):
        rows, resid, _ = case
        self._fit_and_check(rows, resid, with_replacement)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_screen_edge_cases(), st.booleans())
    def test_on_rows_at_the_screen_edges(self, case, with_replacement):
        rows, resid, _ = case
        self._fit_and_check(rows, resid, with_replacement)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_float32_edge_cases(), st.booleans())
    def test_on_rows_far_from_unit_scale(self, case, with_replacement):
        rows, resid, _ = case
        self._fit_and_check(rows, resid, with_replacement)

    def test_on_a_long_path_with_replacement(self):
        # 200 steps of weight 0.05 move the product by 199 columns, and the
        # mass grows while the residual shrinks
        fam, target = generate(GenSpec(20, 60, 3, 0.05, 7))
        for state, prepare in CACHES.items():
            prepared, calls = prepare(fam), []
            with _screening(calls):
                model, _ = fit(prepared, target, _config(200, alpha=0.05, with_replacement=True))
            assert len(model.terms) == len(calls) == 200, state
            assert sum(c.intervals is not None for c in calls) == 200, state
            assert _check_containment(calls) > 100 * 20, state


# Families for the fit invariants: plain rows next to zero, constant and
# duplicate rows, with a target that mixes the rows plus noise.
@st.composite
def _fit_cases(draw):
    count = draw(st.integers(3, 12))
    # distinct elements keep plain rows, and mostly the target, from being constant
    plain = arrays(float, count, elements=_VALUES, unique=True)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("plain", "zero", "constant", "duplicate")))
        if kind == "zero":
            rows.append(np.zeros(count))
        elif kind == "constant":
            rows.append(np.full(count, draw(_VALUES)))
        elif kind == "duplicate" and rows:
            rows.append(draw(st.sampled_from(rows)).copy())
        else:
            rows.append(draw(plain))
    mix = draw(arrays(float, len(rows), elements=st.floats(-3.0, 3.0)))
    target = mix @ np.array(rows) + draw(plain)
    config = _config(
        draw(st.integers(1, 10)),
        lbound=draw(st.sampled_from((-1.0, 0.0, 0.5))),
        alpha=draw(st.sampled_from((1.0, 0.5))),
        with_replacement=draw(st.booleans()),
    )
    return rows, target, config


class TestFitInvariants:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_fit_cases())
    def test_invariants_hold_on_random_families(self, case):
        rows, target_values, config = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        target = Series("__target__", target_values)
        for prepare in CACHES.values():
            try:
                model, trace = fit(prepare(fam), target, config)
            except NoAdmissibleMember:
                continue
            self._check_invariants(fam, target_values, config, model, trace)

    @staticmethod
    def _check_invariants(fam, target_values, config, model, trace):
        errors = trace.squared_errors()
        if config.alpha == 1.0:
            assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(errors, errors[1:]))
        assert all(t.score >= config.lbound for t in model.terms)
        ids = model.member_ids()
        if not config.with_replacement:
            assert len(set(ids)) == len(ids)
        assert model.stopped_early == (len(model.terms) < config.panel_size)
        _, stopped = scalar_fit(
            [(m.id, m.values) for m in fam.members], target_values, config.panel_size,
            config.lbound, config.alpha, config.with_replacement,
        )
        assert model.stopped_early == stopped
        for k, error in enumerate(errors):
            prefix = PanelModel(model.terms[: k + 1], config, model.grid)
            prediction = predict(prefix, fam).values
            assert error == float(np.sum((target_values - prediction) ** 2))


FLOAT_MAX = float(np.finfo(float).max)
# values at the edges of the float range: zeros of both signs, subnormals,
# values whose squares underflow (1e-160) or whose sums of squares overflow
# (1e154, 1e200), and values whose sum of two overflows (1e308 and the
# largest float)
EDGES = (0.0, -0.0, 5e-324, -5e-324, 2e-310, 1e-160, 1e154, 1e200, 1e308, -1e308,
         FLOAT_MAX, -FLOAT_MAX, 1.0, -2.5)


@st.composite
def _edge_cases(draw, counts=st.integers(2, 7)):
    """Rows and a target of plain values at one scale, or of values drawn
    from ``EDGES`` one by one; the target may mix two rows,
    which a path can then bring near zero. The weights are for a model of
    its own."""
    count = draw(counts)
    # half the cases at a scale whose fits can run for several steps
    scale = draw(st.sampled_from(EDGES) | st.sampled_from((1e-150, 1e100, 1e150, 3e153)))

    def vector():
        if draw(st.integers(0, 5)) == 0:
            return np.array(draw(st.lists(st.sampled_from(EDGES), min_size=count,
                                          max_size=count)))
        return draw(arrays(float, count, elements=st.floats(-1.0, 1.0))) * scale

    rows = [vector() for _ in range(draw(st.integers(1, 5)))]
    with np.errstate(all="ignore"):
        target = (draw(st.sampled_from((0.0, 1.0, -0.5))) * rows[0]
                  + draw(st.sampled_from((0.0, 3.0))) * rows[-1] + vector())
    assume(np.isfinite(target).all())
    config = _config(
        draw(st.integers(1, 6)),
        lbound=draw(st.sampled_from((-1.0, 0.0))),
        alpha=draw(st.sampled_from((1.0, 0.5, 0.05))),
        with_replacement=draw(st.booleans()),
    )
    weights = draw(st.lists(st.sampled_from(EDGES), min_size=1, max_size=4))
    return rows, target, config, weights


class TestEdgeAlphabet:
    """Under warnings-as-errors, ``fit``, ``predict``, ``select_step`` and
    ``sweep`` on values from the edges of the float range return finite
    results or raise a PanelBoostError, whatever the family holds."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_edge_cases())
    def test_fit_and_predict_are_finite_or_typed_errors(self, case):
        rows, target_values, config, weights = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        target = Series("__target__", target_values)
        outcomes = []
        for prepare in CACHES.values():
            try:
                model, trace = fit(prepare(fam), target, config)
            except PanelBoostError as err:
                outcomes.append((type(err), str(err)))
                continue
            outcomes.append(repr((model, trace)))
            assert all(math.isfinite(e) for e in trace.squared_errors())
            try:
                prediction = predict(model, fam)
            except PanelBoostError:
                continue
            assert np.isfinite(prediction.values).all()
        assert outcomes[0] == outcomes[1]
        # weights from the alphabet on the same rows
        terms = tuple(PanelTerm(f"c{k % len(rows)}", w, w, 0.0, k)
                      for k, w in enumerate(weights))
        model = PanelModel(terms, _config(len(terms), with_replacement=True), fam.grid)
        try:
            prediction = predict(model, fam)
        except PanelBoostError:
            return
        assert np.isfinite(prediction.values).all()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_edge_cases())
    def test_select_step_is_finite_or_a_typed_error(self, case):
        rows, residual_values, config, _ = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        residual = Series("__residual__", residual_values)
        outcomes = []
        for prepare in CACHES.values():
            try:
                chosen = select_step(prepare(fam), residual, config)
            except PanelBoostError as err:
                outcomes.append((type(err), str(err)))
                continue
            outcomes.append(chosen)
            if chosen is not None:
                assert math.isfinite(chosen.raw_rho) and math.isfinite(chosen.score)
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_edge_cases(counts=st.integers(10, 14)))
    def test_sweep_is_finite_or_a_typed_error(self, case):
        # a sweep fits its own train window, which starts without the
        # family's constants and columns, warm or not
        rows, target_values, _, _ = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        target = Series("__target__", target_values)
        grid = SweepGrid((1, 3), (-1.0, 0.0), (1.0, 0.05), (RECIP, TransformKind.WITCH))
        outcomes = []
        for prepare in CACHES.values():
            try:
                result = sweep(prepare(fam), target, SplitSpec(0.6, 0.2), grid)
            except PanelBoostError as err:
                outcomes.append((type(err), str(err)))
                continue
            outcomes.append(repr(result))
            for row in result.rows:
                for m in (row.train, row.validation):
                    if m is None:
                        continue
                    assert all(map(math.isfinite, (m.rmse, m.mae, m.cumulative_abs_error)))
                    # psi is NaN exactly where pearson is undefined, as documented
                    if m.pearson is None:
                        assert math.isnan(m.psi)
                    else:
                        assert math.isfinite(m.pearson) and math.isfinite(m.psi)
        assert outcomes[0] == outcomes[1]


# Row lengths from 2 to 1025 (one past a power of two, where numpy's pairwise
# summation splits its blocks), at scales from 1e-300 to 1e150.
@st.composite
def _rows_to_centre(draw):
    count = draw(st.integers(2, 1025))
    scale = draw(st.sampled_from((1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from((0.0, 1.0, 1e6)))
    return (rng.standard_normal((3, count)) + offset) * scale


class TestRescoreCentring:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_rows_to_centre())
    def test_a_row_less_its_total_over_t_is_its_centring(self, values):
        # the rescore centres a row of the matrix with the cached row sum:
        # that must be _centred's centring bit for bit
        count = values.shape[1]
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, count), ["a", "b", "c"], values)
        try:
            total = boost._checked_rows(fam, np.zeros(count), "target").total
        except NumericOverflow:  # no fit reads these rows; their centring still must hold
            total = fam.values.sum(axis=1)
        for i, h in enumerate(fam.values):
            assert total[i] == h.sum()
            hc = h - total[i] / count
            try:
                want, want_sq = _centred(h, "right")
            except DegenerateCorrelation:  # its sum of squares underflows to 0
                assert float(hc @ hc) == 0.0
                want = h - h.sum() / count
            else:
                assert float(hc @ hc) == want_sq
            assert hc.tobytes() == want.tobytes()  # -0.0 included


class TestScreenConstants:
    def test_built_once_per_family_and_shared_by_later_fits_and_a_sweeps_paths(
            self, monkeypatch):
        fam, target = generate(GenSpec(30, 60, 3, 0.05, 1))
        assert _screen(fam) is None
        fit(fam, target, _config(4))
        rows = _screen(fam)
        assert rows is not None
        constants = [array.tobytes() for array in rows[:-1]]  # every field but the columns
        other = Series("__target__", fam.values[:3].sum(axis=0))
        fit(fam, other, _config(6, alpha=0.5, with_replacement=True))
        select_step(fam, Series("__residual__", other.values), _config(1))
        fit(fam, target, _config(8))
        assert _screen(fam) is rows
        # a path takes rows out of its own pool, never out of the constants
        assert [array.tobytes() for array in rows[:-1]] == constants
        # every score of a sweep, on each of its alpha paths, reads the one
        # set of constants of its train window
        read = []
        best = boost._best

        def recording(family, rows, *args):
            read.append((family, rows))
            return best(family, rows, *args)

        monkeypatch.setattr(boost, "_best", recording)
        sweep(fam, target, SplitSpec(0.6, 0.2),
              SweepGrid((1, 4), (-1.0, 0.0), (1.0, 0.5), (RECIP,)))
        window = read[0][0]
        assert window is not fam and window.values.shape == (30, 36)
        assert len(read) > 4  # the first step, then at least 3 more per alpha
        assert all(family is window and r is _screen(window) for family, r in read)

    def test_a_family_with_an_overflowing_member_keeps_nothing_and_raises_every_fit(self):
        # the checks run in order on every call: an empty family, a target
        # off the grid, a target whose sum of squares overflows, then a
        # member whose sum of squares does
        grid = TimeGrid(0.0, 1.0, 3)
        short, huge = Series("__target__", [1e300, 1e300]), Series("__target__", [1e300] * 3)
        with pytest.raises(EmptyFamily):
            fit(Family(grid, ()), short, _config(1))
        target = Series("__target__", [1.0, 2.0, 3.0])
        bad = _family({"a": [1.0, 2.0, 4.0], "b": [1e300, -1e300, 1e300]})
        good = _family({"a": [1.0, 2.0, 4.0], "b": [0.5, -1.0, 2.0]})
        fit(good, target, _config(2))
        rows = _screen(good)
        for _ in range(3):
            for fam in (bad, good):
                with pytest.raises(ShapeError):
                    fit(fam, short, _config(2))
                with pytest.raises(NumericOverflow, match="target"):
                    fit(fam, huge, _config(2))
            with pytest.raises(NumericOverflow, match="member 'b'"):
                fit(bad, target, _config(2))
            with pytest.raises(NumericOverflow, match="member 'b'"):
                select_step(bad, Series("__residual__", target.values), _config(1))
            assert bad._derived == {}
        assert _screen(good) is rows


class TestGramCache:
    @pytest.fixture
    def columns(self, monkeypatch):
        """Every Gram column read, as (matrix shape, row, whether it was computed)."""
        read = []
        column = boost._column

        def counting(family, rows, row):
            read.append((family.values.shape, row, row not in rows.gram))
            return column(family, rows, row)

        monkeypatch.setattr(boost, "_column", counting)
        return read

    def test_never_built_by_select_step(self, columns):
        fam, target = generate(GenSpec(30, 60, 3, 0.05, 1))
        for _ in range(3):
            select_step(fam, target, _config(1))
        assert columns == [] and _screen(fam).gram == {}

    def test_built_once_per_family_and_shared_by_a_sweeps_paths(self, columns):
        fam, target = generate(GenSpec(30, 60, 3, 0.05, 1))
        model, _ = fit(fam, target, _config(4))
        # a column for each step another step follows
        stepped = [fam.index_of(member) for member in model.member_ids()[:-1]]
        assert columns == [((30, 60), row, True) for row in stepped]
        fit(fam, target, _config(4))
        assert columns[3:] == [((30, 60), row, False) for row in stepped]
        # the train family's columns serve the paths of both alphas, which
        # share the first step
        columns.clear()
        sweep(fam, target, SplitSpec(0.6, 0.2),
              SweepGrid((1, 4), (-1.0, 0.0), (1.0, 0.5), (RECIP,)))
        built = [row for shape, row, new in columns if new]
        assert {shape for shape, _, _ in columns} == {(30, 36)}
        assert len(built) == len(set(built)) < len(columns)

    def test_holds_at_most_t_columns_and_is_emptied_when_full(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((12, 5))
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 5), [f"m{i}" for i in range(12)], values)
        rows = boost._checked_rows(fam, values[0], "target")
        for i in range(12):
            column = boost._column(fam, rows, i)
            assert list(rows.gram) == list(range(i - i % 5, i + 1))
            assert column is rows.gram[i]
            assert column.tobytes() == ((values @ values[i]) * rows.inv_spread).tobytes()
        fam = _cold(fam)
        fit(fam, Series("__target__", rng.standard_normal(5)),
            _config(40, alpha=0.3, with_replacement=True))
        assert 0 < len(_screen(fam).gram) <= 5

    def test_a_select_wide_fit_is_the_same_cold_warm_and_on_a_fresh_copy(self):
        # the shape of the benchmark's select-wide train split, a window of
        # a 2000x730 family
        fam, target = generate(GenSpec(2000, 730, 5, 0.05, 901))
        train, _, _ = split(fam.grid, SplitSpec(0.6, 0.2))
        sub, t_train = restrict_family(fam, train), restrict(target, train)
        config = _config(10)
        cold = repr(fit(sub, t_train, config))
        assert len(_screen(sub).gram) == 9
        for members in (slice(0, 100), slice(1000, 1003)):
            other = Series("__target__", sub.values[members].sum(axis=0))
            fit(sub, other, _config(10, alpha=0.5))
        assert len(_screen(sub).gram) > 9
        warm = repr(fit(sub, t_train, config))
        assert cold == warm == repr(fit(_cold(sub), t_train, config))


class TestThreads:
    def test_threads_sharing_a_family_fit_as_a_serial_fit_on_a_fresh_family(self):
        # four threads fit at once on one cold family, so that they may build
        # its constants and Gram columns side by side; a thread fits with
        # replacement, 40 terms, to targets that mix three members
        fam, _ = generate(GenSpec(300, 200, 5, 0.05, 17))
        rng = np.random.default_rng(17)
        targets = [Series("__target__", fam.values[rng.choice(300, 3, replace=False)].sum(axis=0)
                          + 0.1 * rng.standard_normal(200)) for _ in range(64)]
        config = _config(40, alpha=0.5, with_replacement=True)
        want = [repr(fit(_cold(fam), target, config)) for target in targets]
        shared, got = _cold(fam), [None] * len(targets)
        start, failures = threading.Barrier(4, timeout=60), []

        def work(first):
            try:
                start.wait()
                for k in range(first, len(targets), 4):
                    got[k] = repr(fit(shared, targets[k], config))
            except Exception as err:  # reported by the main thread
                failures.append(err)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        # switch threads often, so that they interleave inside a fit
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert got == want
        assert 0 < len(_screen(shared).gram) <= shared.grid.count


class TestOverflow:
    """Sums of squares beyond the float range are a typed error, not a bogus fit."""

    def test_overflowing_candidates(self):
        fam = _family({"a": [1e300, -1e300, 1e300], "b": [2e300, 1e300, -1e300]})
        target = Series("__target__", [1.0, 2.0, 3.0])
        with pytest.raises(NumericOverflow, match="member 'a'"):
            fit(fam, target, _config(2, transform=TransformKind.WITCH))
        with pytest.raises(NumericOverflow, match="member 'a'"):
            select_step(fam, Series("__residual__", target.values), _config(1))

    def test_overflowing_target(self):
        fam = _family({"a": [1.0, 2.0, 3.0]})
        values = [1e300, -1e300, 2e300]
        with pytest.raises(NumericOverflow, match="target"):
            fit(fam, Series("__target__", values), _config(1))
        with pytest.raises(NumericOverflow, match="residual"):
            select_step(fam, Series("__residual__", values), _config(1))


class TestFit:
    def test_exact_recovery_on_orthogonal_family(self):
        rng = np.random.default_rng(22)
        s1, s2, s3 = orthogonal_vectors(rng, 3, 50)
        fam = _family({"s1": s1, "s2": s2, "s3": s3})
        target = Series("__target__", 2 * s1 + 3 * s2)
        model, trace = fit(fam, target, _config(2))

        assert sorted(model.member_ids()) == ["s1", "s2"]
        weights = {t.member_id: t.weight for t in model.terms}
        assert weights["s1"] == pytest.approx(2.0, abs=1e-9)
        assert weights["s2"] == pytest.approx(3.0, abs=1e-9)
        target_norm = float(np.linalg.norm(target.values))
        final_rmse = np.sqrt(trace.records[-1].squared_error_after / 50)
        assert final_rmse <= 1e-9 * target_norm
        assert trace.records[-1].squared_error_after <= 1e-18 * target_norm**2

        # every ordered 2-panel, replayed stagewise: greedy attains the best
        errors = enumerate_panels([s1, s2, s3], target.values, 2)
        assert trace.records[-1].squared_error_after <= min(errors.values()) + 1e-18

    def test_target_inside_family(self):
        rng = np.random.default_rng(23)
        f = rng.standard_normal(40)
        fam = _family({"noise_a": rng.standard_normal(40), "the_target": f,
                       "noise_b": rng.standard_normal(40)})
        model, trace = fit(fam, Series("__target__", f), _config(1))
        assert model.member_ids() == ["the_target"]
        assert abs(model.terms[0].weight - 1.0) <= 1e-12
        assert trace.records[-1].squared_error_after <= 1e-20

    def test_shrinkage_halves_the_colinear_step(self):
        g = np.array([1.0, -1.0, 2.0, -2.0])
        fam = _family({"g": g})
        target = Series("__target__", 2 * g)
        model, trace = fit(fam, target, _config(1, alpha=0.5))
        term = model.terms[0]
        assert term.raw_rho == 2.0
        assert term.weight == 1.0
        # residual after the shrunk step is half the target
        assert trace.records[0].squared_error_after == float(np.sum(g**2))

    def test_with_replacement_repeats_geometrically(self):
        g = np.array([1.0, -1.0, 2.0, -2.0])
        fam = _family({"g": g})
        target = Series("__target__", 2 * g)
        model, _ = fit(fam, target, _config(3, alpha=0.5, with_replacement=True))
        assert model.member_ids() == ["g", "g", "g"]
        assert [t.weight for t in model.terms] == [1.0, 0.5, 0.25]

    def test_pool_exhaustion_stops_early(self):
        rng = np.random.default_rng(24)
        fam = _family({"a": rng.standard_normal(20), "b": rng.standard_normal(20)})
        target = Series("__target__", rng.standard_normal(20))
        model, _ = fit(fam, target, _config(5))
        assert len(model.terms) == 2
        assert model.stopped_early

    def test_exact_model_stops_on_degenerate_residual(self):
        w = walsh_members(16)
        fam = _family({"s1": w["s1"], "s2": w["s2"]})
        target = Series("__target__", 2 * w["s1"])
        model, trace = fit(fam, target, _config(3))
        assert model.member_ids() == ["s1"]
        assert model.stopped_early
        assert trace.records[-1].squared_error_after == 0.0

    def test_unreachable_threshold(self):
        w = walsh_members(16)
        fam = _family({"s2": w["s2"], "s3": w["s3"]})
        target = Series("__target__", w["s1"])
        with pytest.raises(NoAdmissibleMember):
            fit(fam, target, _config(2, lbound=0.99))

    def test_constant_target_rejected(self):
        fam = _family({"g": [1.0, 2.0, 3.0]})
        with pytest.raises(NoAdmissibleMember):
            fit(fam, Series("__target__", [4.0, 4.0, 4.0]), _config(1))

    def test_target_length_mismatch(self):
        fam = _family({"g": [1.0, 2.0, 3.0]})
        with pytest.raises(ShapeError):
            fit(fam, Series("__target__", [1.0, 2.0]), _config(1))

    def test_empty_family(self):
        fam = Family(TimeGrid(0.0, 1.0, 3), ())
        with pytest.raises(EmptyFamily):
            fit(fam, Series("__target__", [1.0, 2.0, 3.0]), _config(1))

    def test_monotone_error_and_thresholds_on_random_fits(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(15, 80))
            n_members = int(rng.integers(3, 12))
            values = {f"c{i}": rng.standard_normal(n) for i in range(n_members)}
            mix = rng.standard_normal(n_members)
            target_values = sum(w * v for w, v in zip(mix, values.values()))
            target_values = target_values + 0.1 * rng.standard_normal(n)
            fam = _family(values)
            config = _config(int(rng.integers(1, 7)), lbound=-1.0)
            model, trace = fit(fam, Series("__target__", target_values), config)
            errors = trace.squared_errors()
            assert all(a >= b - 1e-9 * max(1.0, a) for a, b in zip(errors, errors[1:]))
            assert all(t.score >= config.lbound for t in model.terms)
            ids = model.member_ids()
            assert len(set(ids)) == len(ids)

    def test_determinism(self):
        rng = np.random.default_rng(26)
        values = {f"c{i}": rng.standard_normal(30) for i in range(8)}
        target = Series("__target__", rng.standard_normal(30))
        fam = _family(values)
        config = _config(4)
        first, trace_a = fit(fam, target, config)
        second, trace_b = fit(fam, target, config)
        assert first == second
        assert trace_a == trace_b

    def test_positive_scaling_leaves_selection_invariant(self):
        rng = np.random.default_rng(27)
        values = {f"c{i}": rng.standard_normal(40) for i in range(6)}
        target = Series("__target__", rng.standard_normal(40))
        base_model, _ = fit(_family(values), target, _config(3))

        gamma = 7.5
        scaled = dict(values)
        scaled_id = base_model.terms[0].member_id
        scaled[scaled_id] = gamma * values[scaled_id]
        scaled_model, _ = fit(_family(scaled), target, _config(3))

        assert scaled_model.member_ids() == base_model.member_ids()
        for a, b in zip(base_model.terms, scaled_model.terms):
            assert b.score == pytest.approx(a.score, abs=1e-12)
            expected_rho = a.raw_rho / gamma if a.member_id == scaled_id else a.raw_rho
            assert b.raw_rho == pytest.approx(expected_rho, rel=1e-12)

        pred_a = predict(base_model, _family(values))
        pred_b = predict(scaled_model, _family(scaled))
        np.testing.assert_allclose(pred_a.values, pred_b.values, atol=1e-9)


class TestPanelModelInvariants:
    def test_zero_terms_unconstructible(self):
        with pytest.raises(ValueError):
            PanelModel((), _config(1), TimeGrid(0.0, 1.0, 2))

    def test_duplicate_members_rejected_without_replacement(self):
        t = PanelTerm("a", 1.0, 1.0, 0.5, 0)
        u = PanelTerm("a", 1.0, 1.0, 0.5, 1)
        with pytest.raises(ValueError):
            PanelModel((t, u), _config(2), TimeGrid(0.0, 1.0, 2))

    def test_score_below_lbound_rejected(self):
        t = PanelTerm("a", 1.0, 1.0, -0.5, 0)
        with pytest.raises(ValueError):
            PanelModel((t,), _config(1, lbound=0.0), TimeGrid(0.0, 1.0, 2))

    def test_inconsistent_weight_rejected(self):
        t = PanelTerm("a", 2.0, 1.0, 0.5, 0)  # weight != alpha * raw_rho
        with pytest.raises(ValueError):
            PanelModel((t,), _config(1), TimeGrid(0.0, 1.0, 2))

    @pytest.mark.parametrize("field", ["weight", "raw_rho", "score"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_term_values_rejected(self, field, bad):
        # NaN would otherwise slip past the weight check: NaN comparisons are false
        values = {"member_id": "a", "weight": 1.0, "raw_rho": 1.0, "score": 0.5,
                  "iteration": 0}
        values[field] = bad
        with pytest.raises(ValueError):
            PanelTerm(**values)


class TestPredict:
    def test_single_term_scaling(self):
        model = PanelModel(
            (PanelTerm("a", 2.0, 2.0, 1.0, 0),), _config(1), TimeGrid(0.0, 1.0, 2)
        )
        fam = _family({"a": [1.0, 2.0]})
        out = predict(model, fam)
        assert out.id == "__prediction__"
        np.testing.assert_array_equal(out.values, [2.0, 4.0])

    def test_additivity(self):
        model = PanelModel(
            (PanelTerm("a", 1.0, 1.0, 0.5, 0), PanelTerm("b", 1.0, 1.0, 0.5, 1)),
            _config(2),
            TimeGrid(0.0, 1.0, 2),
        )
        fam = _family({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        np.testing.assert_array_equal(predict(model, fam).values, [1.0, 1.0])

    def test_missing_member_is_named(self):
        model = PanelModel(
            (PanelTerm("ghost", 1.0, 1.0, 0.5, 0),), _config(1), TimeGrid(0.0, 1.0, 2)
        )
        fam = _family({"a": [1.0, 2.0]})
        with pytest.raises(MissingPanelMember) as err:
            predict(model, fam)
        assert err.value.member_id == "ghost"

    def test_predicts_on_a_different_grid(self):
        g = np.array([1.0, -1.0, 2.0, -2.0])
        fam = _family({"g": g})
        model, _ = fit(fam, Series("__target__", 2 * g), _config(1))
        horizon = Family(TimeGrid(100.0, 1.0, 3), (Series("g", [5.0, 6.0, 7.0]),))
        np.testing.assert_array_equal(predict(model, horizon).values, [10.0, 12.0, 14.0])


class TestResidual:
    def test_exact_match_gives_zero(self):
        t = Series("__target__", [1.0, 2.0])
        assert residual(t, Series("p", [1.0, 2.0])).values.sum() == 0.0

    def test_zero_prediction_returns_target(self):
        t = Series("__target__", [1.0, 2.0])
        np.testing.assert_array_equal(residual(t, Series("p", [0.0, 0.0])).values, [1.0, 2.0])

    def test_arithmetic(self):
        out = residual(Series("t", [3.0, 3.0]), Series("p", [1.0, 2.0]))
        np.testing.assert_array_equal(out.values, [2.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            residual(Series("t", [1.0, 2.0]), Series("p", [1.0]))
