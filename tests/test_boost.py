import contextlib
import math

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
    PanelModel,
    PanelTerm,
    Series,
    ShapeError,
    SplitSpec,
    SweepGrid,
    TimeGrid,
    TransformKind,
    argmin_rho,
    boost,
    fit,
    generate,
    predict,
    residual,
    select_step,
    series,
    sweep,
)
from panelboost.functional import _centred

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


@contextlib.contextmanager
def _float32_screen():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boost, "SCREEN32_MIN_BYTES", 0)
        patch.setattr(boost, "SCREEN32_AFTER_SCREENS", 0)
        yield


# The screen's two operands. The oracle tests' families are far below
# SCREEN32_MIN_BYTES and screened once, so they run on the float64 matrix as
# they are, and on the float32 centred copy with both rules set to 0.
SCREENS = {"float64": contextlib.nullcontext, "float32": _float32_screen}


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


# Rows at the edges of the float32 screen: below float32's normal range
# (1e-42, and 1e-300, whose squares vanish) and beyond its range (1e39,
# 1e150), a row holding both 1e30 and 1e-30, and near-duplicate rows, whose
# scores tie well inside the float32 rounding bound. The residual is built as
# in _screen_edge_cases, at scales that put it beside those rows.
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
        for operand, screen in SCREENS.items():
            with screen():
                got = select_step(fam, Series("__residual__", resid), _config(1, lbound=lbound))
            if want is None:
                assert got is None, operand
            else:
                # same member (earliest duplicate), and raw_rho and score bit for bit
                assert got == want[1], operand

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_screen_edge_cases())
    def test_select_step_on_rows_at_the_screen_edges(self, case):
        rows, resid, lbound = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, lbound)
        for operand, screen in SCREENS.items():
            with screen():
                got = select_step(fam, Series("__residual__", resid), _config(1, lbound=lbound))
            assert got == (None if want is None else want[1]), operand

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_float32_edge_cases())
    def test_select_step_on_rows_at_the_float32_edges(self, case):
        rows, resid, lbound = case
        fam = _family({f"c{i}": v for i, v in enumerate(rows)})
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, lbound)
        for operand, screen in SCREENS.items():
            with screen():
                got = select_step(fam, Series("__residual__", resid), _config(1, lbound=lbound))
            assert got == (None if want is None else want[1]), operand

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
            for operand, screen in SCREENS.items():
                with screen():
                    got = select_step(fam, Series("__residual__", resid), _config(1))
                assert got == want[1], (seed, operand)

    def test_a_residual_near_underflow_rescores_every_row(self, monkeypatch):
        # srr is about 3.5e-299, below RESOLVED_FLOOR, where the screen's
        # rounding bound no longer holds: every usable row must be rescored
        fam, _ = generate(GenSpec(12, 40, 3, 0.3, 5))
        resid = np.random.default_rng(1).standard_normal(40) * 1e-150
        rescored = []

        def counting_argmin_rho(h, y):
            rescored.append(len(h))
            return argmin_rho(h, y)

        monkeypatch.setattr(boost, "argmin_rho", counting_argmin_rho)
        got = select_step(fam, Series("__residual__", resid), _config(1))
        assert len(rescored) == len(fam) == 12
        want = scalar_select([(m.id, m.values) for m in fam.members], resid, -1.0)
        assert got == want[1]

    def test_a_residual_of_uncertain_sign_on_every_row_rescores_every_row(
            self, monkeypatch):
        # the residual is orthogonal to every row up to rounding, so no
        # <h, r> clears its sign bound: every interval is infinite, the floor
        # is -inf, and every pool row is rescored, on either operand
        rescored = []

        def counting_argmin_rho(h, y):
            rescored.append(len(h))
            return argmin_rho(h, y)

        monkeypatch.setattr(boost, "argmin_rho", counting_argmin_rho)
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
            for operand, screen in SCREENS.items():
                rescored.clear()
                with screen():
                    got = select_step(fam, Series("__residual__", resid), _config(1))
                assert len(rescored) == len(fam), (seed, operand)
                assert got == want[1], (seed, operand)

    @pytest.mark.parametrize("count", [40, 64])
    def test_rows_and_target_near_the_top_of_the_float_range(self, count):
        # sums of squares up to about 2e307: every product of two of them,
        # h_spread * r_spread among them, leaves the float range, and the
        # screen must neither warn (warnings are errors here) nor misjudge
        # a row, on either operand
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
            for operand, screen in SCREENS.items():
                with screen():
                    got = select_step(fam, Series("__residual__", target), _config(1))
                    model, _ = fit(fam, Series("__target__", target), _config(5))
                assert got == want_step[1], operand
                got_path = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
                assert got_path == want_path, operand
                assert model.stopped_early == want_stopped, operand
            # a target whose sum of squares leaves the range is a typed error
            with pytest.raises(NumericOverflow, match="target"):
                fit(fam, Series("__target__", target * 1e2), _config(5))

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
        for operand, screen in SCREENS.items():
            try:
                with screen():
                    model, _ = fit(fam, target, _config(8, **options))
            except NoAdmissibleMember:
                model = None
            if model is None:
                assert path == [], operand
            else:
                got = [(t.member_id, t.weight, t.raw_rho, t.score) for t in model.terms]
                assert got == path, operand
                assert model.stopped_early == stopped, operand


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
        for screen in SCREENS.values():
            try:
                with screen():
                    model, trace = fit(fam, target, config)
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
        total = fam.row_sums[1]
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


class TestFloat32Copy:
    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = series._scaled_centred_copy

        def counting(values, totals):
            built.append(values.shape)
            return build(values, totals)

        monkeypatch.setattr(series, "_scaled_centred_copy", counting)
        return built

    def test_not_built_for_a_family_screened_a_few_times(self, builds):
        # 600x438 floats take just over SCREEN32_MIN_BYTES
        values = np.random.default_rng(0).standard_normal((600, 438))
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 438), [f"m{i}" for i in range(600)],
                                  values)
        assert fam.values.nbytes >= boost.SCREEN32_MIN_BYTES
        target = Series("__target__", values[:3].sum(axis=0))
        fit(fam, target, _config(10, lbound=-1.0))
        for _ in range(boost.SCREEN32_AFTER_SCREENS - 11):
            select_step(fam, target, _config(1))
        assert builds == []
        # the last screen on the matrix, then the first on the copy
        select_step(fam, target, _config(1))
        assert builds == []
        select_step(fam, target, _config(1))
        assert builds == [(600, 438)]
        fit(fam, target, _config(10, lbound=-1.0))
        assert builds == [(600, 438)]

    def test_built_once_per_family_and_shared_by_a_sweeps_paths(self, builds, monkeypatch):
        fam, target = generate(GenSpec(30, 60, 3, 0.05, 1))
        monkeypatch.setattr(boost, "SCREEN32_AFTER_SCREENS", 0)
        fit(fam, target, _config(4))
        assert builds == []  # far below SCREEN32_MIN_BYTES
        monkeypatch.setattr(boost, "SCREEN32_MIN_BYTES", 0)
        fit(fam, target, _config(4))
        fit(fam, target, _config(6, alpha=0.5, with_replacement=True))
        select_step(fam, target, _config(1))
        assert builds == [(30, 60)]
        # the train family's copy serves the paths of both alphas
        sweep(fam, target, SplitSpec(0.6, 0.2),
              SweepGrid((1, 4), (-1.0, 0.0), (1.0, 0.5), (RECIP,)))
        assert builds == [(30, 60), (30, 36)]

    def test_rows_centred_and_scaled_by_powers_of_two(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((5, 20)) * np.array([[1e-42], [1.0], [1e39], [1e150], [0.0]])
        values[1] += 1e6
        fam = Family._from_matrix(TimeGrid(0.0, 1.0, 20), list("abcde"), values)
        copy, scale = fam._centred32
        assert copy.dtype == np.float32 and copy.flags.c_contiguous
        np.testing.assert_array_equal(np.frexp(scale[:4])[0], 0.5)
        top = np.abs(copy[:4]).max(axis=1)
        assert ((0.5 <= top) & (top < 1.0)).all()
        centred = values[:4] - values[:4].mean(axis=1, keepdims=True)
        error = np.abs(copy[:4] * scale[:4, None] - centred)
        assert (error <= 1e-7 * np.abs(centred).max(axis=1, keepdims=True)).all()
        np.testing.assert_array_equal(copy[4], 0.0)


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
