"""Strict inputs: overflowing metrics, the eval grid check, typed parameter errors.

Overflow and grid mismatches are data errors (exit 1); every parameter check
raises ``InvalidParameter``, which the CLI maps to exit 2. Each case also
pins the one stderr line the CLI prints.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from panelboost import (
    BoostConfig,
    Family,
    GenSpec,
    InvalidParameter,
    NumericOverflow,
    PanelBoostError,
    PanelTerm,
    Series,
    SplitSpec,
    SweepGrid,
    TimeGrid,
    TransformKind,
    evaluate,
    fit,
    generate,
    pearson,
    psi,
    read_model,
    transform,
    write_model,
)
from panelboost import cli
from panelboost.cli import main

RECIP = TransformKind.RECIPROCAL
WITCH = TransformKind.WITCH

# the true correlation of these is 0.529..., but their sums of squares overflow
BIG_Y = np.array([1.0, 2.0, 4.0, 3.0]) * 1e160
BIG_P = np.array([2.0, 1.0, 3.0, 5.0]) * 1e160


class TestOverflow:
    def test_pearson_raises_on_an_overflowing_sum_of_squares(self):
        with pytest.raises(NumericOverflow, match="centred sum of squares overflows"):
            pearson(BIG_Y, BIG_P)

    def test_pearson_raises_on_an_overflowing_mean(self):
        with pytest.raises(NumericOverflow):
            pearson([1e308, 1e308, -1e308], [1.0, 2.0, 3.0])

    def test_pearson_keeps_a_constant_side_degenerate(self):
        # the mean of this constant overflows, yet it is still constant
        with pytest.raises(PanelBoostError, match="zero variance in left"):
            pearson([1e308, 1e308, 1e308], [1.0, 2.0, 3.0])

    def test_pearson_of_empty_input_is_degenerate_without_a_warning(self):
        # the suite turns warnings into errors, so a numpy warning fails here
        with pytest.raises(PanelBoostError, match="zero variance in left"):
            pearson([], [])

    def test_pearson_of_the_scaled_down_pair_is_finite(self):
        assert pearson(BIG_Y / 1e10, BIG_P / 1e10) == pytest.approx(0.5291502622)

    @pytest.mark.parametrize("kind", [RECIP, WITCH])
    def test_psi_raises_on_an_overflowing_squared_error(self, kind):
        with pytest.raises(NumericOverflow, match="squared error overflows"):
            psi(kind, BIG_Y, BIG_P)

    def test_evaluate_raises_rather_than_returning_inf(self):
        with pytest.raises(NumericOverflow, match="squared error overflows"):
            evaluate(Series("p", BIG_P), Series("y", BIG_Y), RECIP, 1.0)

    def test_evaluate_raises_when_only_the_correlation_overflows(self):
        # the difference is small, the spread of each side is not
        y = np.array([1.0, -1.0, 1.0, -1.0]) * 1e160
        p = y + np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(NumericOverflow, match="centred sum of squares"):
            evaluate(Series("p", p), Series("y", y), RECIP, 1.0)

    def test_evaluate_raises_when_the_cumulative_error_overflows(self):
        # every other metric is finite; the gap times the step is not
        p, y = Series("p", [3.0, 4.0]), Series("y", [1.0, 2.0])
        with pytest.raises(NumericOverflow, match="cumulative absolute error overflows"):
            evaluate(p, y, RECIP, 1e308)

    def test_evaluate_keeps_a_finite_cumulative_error(self):
        p, y = Series("p", [3.0, 4.0]), Series("y", [1.0, 2.0])
        assert evaluate(p, y, RECIP, 4e307).cumulative_abs_error == 4.0 * 4e307

    def test_eval_command_with_an_overflowing_cumulative_error_exits_1(self, tmp_path,
                                                                       capsys):
        data = tmp_path / "data.csv"
        data.write_text("t,a,__target__\n0,1,1\n1e308,1,2\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("t,__prediction__\n0,3\n1e308,4\n")
        report = tmp_path / "eval.csv"
        code = main(["eval", "--pred", str(pred), "--data", str(data),
                     "--report", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: NumericOverflow: the cumulative absolute error overflows"
        ]
        assert not report.exists()

    def test_eval_command_reports_one_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("t,a,__target__\n" + "".join(
            f"{t},1,{y!r}\n" for t, y in enumerate(BIG_Y.tolist())))
        pred = tmp_path / "pred.csv"
        pred.write_text("t,__prediction__\n" + "".join(
            f"{t},{p!r}\n" for t, p in enumerate(BIG_P.tolist())))
        report = tmp_path / "eval.csv"
        code = main(["eval", "--pred", str(pred), "--data", str(data),
                     "--report", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: NumericOverflow: the squared error overflows"
        ]
        assert not report.exists()


def _gen(tmp_path, days=40):
    data = tmp_path / "panel.csv"
    assert main(["gen", "--out", str(data), "--n", "6", "--days", str(days),
                 "--seed", "11"]) == 0
    return data


def _predict(tmp_path, data):
    model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
    assert main(["fit", "--data", str(data), "--model-out", str(model),
                 "--panel-size", "3", "--lbound=-1", "--alpha", "1",
                 "--transform", "reciprocal"]) == 0
    assert main(["predict", "--data", str(data), "--model", str(model),
                 "--out", str(pred)]) == 0
    return pred


class TestEvalGrid:
    @pytest.mark.parametrize(
        "move, grid",
        [
            (lambda t: t + 1000.5, "start=1000.5, step=1.0, count=40"),
            (lambda t: 2 * t, "start=0.0, step=2.0, count=40"),
            (lambda t: t[:-1], "start=0.0, step=1.0, count=39"),
        ],
        ids=["shifted", "stretched", "shorter"],
    )
    def test_a_prediction_on_another_grid_is_a_shape_error(self, tmp_path, capsys,
                                                           move, grid):
        data = _gen(tmp_path)
        pred = _predict(tmp_path, data)
        rows = np.loadtxt(pred, delimiter=",", skiprows=1)
        t = move(rows[:, 0])
        pred.write_text("t,__prediction__\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), rows[: len(t), 1].tolist())))
        capsys.readouterr()
        report = tmp_path / "eval.csv"
        code = main(["eval", "--pred", str(pred), "--data", str(data),
                     "--report", str(report)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: ShapeError: prediction grid TimeGrid({grid}) does not match "
            "data grid TimeGrid(start=0.0, step=1.0, count=40)"
        ]
        assert not report.exists()

    def test_a_grid_within_the_step_tolerance_matches(self, tmp_path):
        data = _gen(tmp_path)
        pred = _predict(tmp_path, data)
        rows = np.loadtxt(pred, delimiter=",", skiprows=1)
        pred.write_text("t,__prediction__\n" + "".join(
            f"{a + 1e-12!r},{b!r}\n" for a, b in rows.tolist()))
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--report", str(tmp_path / "eval.csv")]) == 0


LIBRARY_CHECKS = [
    (lambda: BoostConfig(0, RECIP), "panel_size must be at least 1, got 0"),
    (lambda: BoostConfig(1, RECIP, lbound=1.5), "lbound must lie in [-1, 1], got 1.5"),
    (lambda: BoostConfig(1, RECIP, alpha=0.0), "alpha must lie in (0, 1], got 0.0"),
    (lambda: SplitSpec(0.0, 0.5), "train_fraction must lie in (0, 1), got 0.0"),
    (lambda: SplitSpec(0.5, 1.0), "validation_fraction must lie in (0, 1), got 1.0"),
    (lambda: SplitSpec(0.6, 0.5), "train_fraction + validation_fraction must not exceed 1"),
    (lambda: GenSpec(0, 30, 1), "n_series must be at least 1, got 0"),
    (lambda: GenSpec(2, 13, 1), "days must be at least 14, got 13"),
    (lambda: GenSpec(2, 30, 3), "archetypes must lie in [1, n_series], got 3"),
    (lambda: GenSpec(2, 30, 1, -0.1), "noise_sd must be non-negative, got -0.1"),
    (lambda: GenSpec(2, 30, 1, math.nan), "noise_sd must be non-negative, got nan"),
    (lambda: GenSpec(2, 30, 1, math.inf), "noise_sd must be finite, got inf"),
    (lambda: GenSpec(2, 30, 1, seed=-1), "seed must be an unsigned 64-bit integer"),
    (lambda: SweepGrid((), (-1.0,), (1.0,), (RECIP,)), "panel_sizes must not be empty"),
    (lambda: SweepGrid((1,), (-1.0,), (), (RECIP,)), "alphas must not be empty"),
]


@pytest.mark.parametrize("build, message", LIBRARY_CHECKS,
                         ids=[m for _, m in LIBRARY_CHECKS])
def test_library_parameter_checks_are_typed(build, message):
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$") as info:
        build()
    assert isinstance(info.value, ValueError)  # callers catching ValueError keep working


_PAIR = (Series("p", [1.0, 2.0, 4.0]), Series("y", [1.0, 3.0, 2.0]))
_FLAT = (Series("p", [2.0, 2.0, 2.0]), Series("y", [1.0, 3.0, 2.0]))

# Values of the wrong type: each once fitted, swept or evaluated on with a
# wrong result, or failed later with a raw TypeError or ValueError.
TYPE_CHECKS = [
    (lambda: BoostConfig(2.5, RECIP), "panel_size must be an integer, got 2.5"),
    (lambda: BoostConfig(True, RECIP), "panel_size must be an integer, got True"),
    (lambda: BoostConfig("3", RECIP), "panel_size must be an integer, got '3'"),
    (lambda: BoostConfig(1, RECIP, lbound="0"), "lbound must be a real number, got '0'"),
    (lambda: BoostConfig(1, RECIP, alpha="1"), "alpha must be a real number, got '1'"),
    (lambda: BoostConfig(1, "reciprocal"),
     "transform must be a TransformKind, got 'reciprocal'"),
    (lambda: SweepGrid((2.5,), (-1.0,), (1.0,), (RECIP,)),
     "panel_size must be an integer, got 2.5"),
    (lambda: SweepGrid((1,), (-1.0,), (1.0,), ("reciprocal",)),
     "transform must be a TransformKind, got 'reciprocal'"),
    (lambda: transform("reciprocal", 0.5),
     "transform must be a TransformKind, got 'reciprocal'"),
    (lambda: evaluate(*_PAIR, "witch", 1.0), "transform must be a TransformKind, got 'witch'"),
    (lambda: evaluate(*_FLAT, "witch", 1.0), "transform must be a TransformKind, got 'witch'"),
    # each of these fitted, and wrote a model that read_model rejected
    (lambda: BoostConfig(1, RECIP, lbound=False), "lbound must be a real number, got False"),
    (lambda: BoostConfig(1, RECIP, alpha=True), "alpha must be a real number, got True"),
    # this one fitted with replacement
    (lambda: BoostConfig(1, RECIP, with_replacement="no"),
     "with_replacement must be a bool, got 'no'"),
]


@pytest.mark.parametrize("build, message", TYPE_CHECKS, ids=[
    "size-float", "size-bool", "size-str", "lbound-str", "alpha-str", "config-transform-str",
    "grid-size-float", "grid-transform-str", "transform-str", "evaluate-str",
    "evaluate-str-flat", "lbound-bool", "alpha-bool", "with-replacement-str"])
def test_parameters_of_the_wrong_type_are_typed_errors(build, message):
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        build()


def test_a_numpy_integer_panel_size_is_stored_as_an_int(tmp_path):
    family, target = generate(GenSpec(6, 30, 2, seed=1))
    config = BoostConfig(np.int64(3), RECIP, np.float64(-1.0), np.float64(1.0))
    assert type(config.panel_size) is int
    assert config == BoostConfig(3, RECIP)
    model, _ = fit(family, target, config)
    write_model(model, tmp_path / "m.json")
    assert read_model(tmp_path / "m.json") == model


def test_other_real_and_bool_types_are_stored_as_plain_ones(tmp_path):
    # each of these made write_model fail with "... is not JSON serializable"
    family, target = generate(GenSpec(6, 30, 2, seed=1))
    config = BoostConfig(3, RECIP, np.float32(-1.0), Fraction(1, 2), np.bool_(False))
    grid = TimeGrid(np.float32(0.5), 1.0, 30)
    assert [type(v) for v in (config.lbound, config.alpha, config.with_replacement)] == [
        float, float, bool]
    assert type(grid.start) is float
    assert config == BoostConfig(3, RECIP, -1.0, 0.5, False)
    model, _ = fit(Family(grid, family.members), target, config)
    assert model.grid.start == 0.5
    write_model(model, tmp_path / "m.json")
    assert read_model(tmp_path / "m.json") == model


# Spec fields of the wrong type: each once failed with a raw TypeError inside
# the library, or, a fractional grid count, was accepted.
SPEC_TYPE_CHECKS = [
    (lambda: GenSpec(2.5, 30, 1), "n_series must be an integer, got 2.5"),
    (lambda: GenSpec(True, 30, 1), "n_series must be an integer, got True"),
    (lambda: GenSpec(3, 30.0, 1), "days must be an integer, got 30.0"),
    (lambda: GenSpec(3, 30, 2.0), "archetypes must be an integer, got 2.0"),
    (lambda: GenSpec(3, 30, 1, seed=1.5), "seed must be an integer, got 1.5"),
    (lambda: GenSpec(3, 30, 1, "x"), "noise_sd must be a real number, got 'x'"),
    (lambda: SplitSpec("0.6", 0.2), "train_fraction must be a real number, got '0.6'"),
    (lambda: SplitSpec(0.6, None), "validation_fraction must be a real number, got None"),
    # this one generated with noise 1.0
    (lambda: GenSpec(3, 30, 1, True), "noise_sd must be a real number, got True"),
    (lambda: SplitSpec(0.6, 10**400), "validation_fraction must be a real number, got "
     + repr(10**400)),
]


@pytest.mark.parametrize("build, message", SPEC_TYPE_CHECKS, ids=[
    "gen-n-float", "gen-n-bool", "gen-days-float", "gen-archetypes-float", "gen-seed-float",
    "gen-noise-str", "split-train-str", "split-val-none", "gen-noise-bool",
    "split-val-huge"])
def test_spec_fields_of_the_wrong_type_are_typed_errors(build, message):
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("count", [2.5, True, "3", None])
def test_a_grid_count_that_is_not_an_integer_is_a_value_error(count):
    # the class of TimeGrid's other checks, which read_model reports as ParseError
    message = f"grid count must be an integer, got {count!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TimeGrid(0.0, 1.0, count)


@pytest.mark.parametrize("field", ["start", "step"])
@pytest.mark.parametrize("value", ["0", None, True, 10**400], ids=["str", "none", "bool", "huge"])
def test_a_grid_start_or_step_that_is_not_a_real_number_is_a_value_error(field, value):
    # a string or None was a raw TypeError, and True was taken as 1
    message = f"grid {field} must be a real number, got {value!r}"
    fields = {"start": 0.0, "step": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TimeGrid(fields["start"], fields["step"], 3)


# Term fields of the wrong type: each made write_model write a file that
# read_model rejected. A term's checks are ValueErrors, like TimeGrid's.
TERM_TYPE_CHECKS = [
    (lambda: PanelTerm(7, 1.0, 1.0, 0.5, 0), "member_id must be a string, got 7"),
    (lambda: PanelTerm("m", 1.0, 1.0, 0.5, True), "iteration must be an integer, got True"),
    (lambda: PanelTerm("m", 1.0, 1.0, 0.5, 0.0), "iteration must be an integer, got 0.0"),
    (lambda: PanelTerm("m", "1", 1.0, 0.5, 0), "weight must be a real number, got '1'"),
    (lambda: PanelTerm("m", 1.0, True, 0.5, 0), "raw_rho must be a real number, got True"),
    (lambda: PanelTerm("m", 1.0, 1.0, None, 0), "score must be a real number, got None"),
]


@pytest.mark.parametrize("build, message", TERM_TYPE_CHECKS, ids=[
    "member-int", "iteration-bool", "iteration-float", "weight-str", "raw-rho-bool",
    "score-none"])
def test_term_fields_of_the_wrong_type_are_value_errors(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_spec_fields_are_stored_as_ints(tmp_path):
    spec = GenSpec(np.int64(6), np.int64(30), np.int64(2), np.float64(0.05), np.uint64(1))
    assert all(type(getattr(spec, name)) is int
               for name in ("n_series", "days", "archetypes", "seed"))
    family, target = generate(spec)
    assert family == generate(GenSpec(6, 30, 2, 0.05, 1))[0]
    grid = TimeGrid(0.0, 1.0, np.int64(30))
    assert type(grid.count) is int and grid == family.grid
    model, _ = fit(Family(grid, family.members), target, BoostConfig(3, RECIP))
    write_model(model, tmp_path / "m.json")
    assert read_model(tmp_path / "m.json") == model


FIT = ["fit", "--model-out", "m.json", "--panel-size", "2", "--lbound=-1",
       "--alpha", "1", "--transform", "witch"]
SWEEP = {"--train": "0.6", "--val": "0.2", "--panel-sizes": "1,2", "--lbounds": "-1",
         "--alphas": "1", "--transforms": "witch"}
GEN = ["gen", "--n", "3", "--days", "20"]


def _sweep(**changes):
    flags = {**SWEEP, **{f"--{k.replace('_', '-')}": v for k, v in changes.items()}}
    return ["sweep", "--report", "r.csv", *(f"{k}={v}" for k, v in flags.items())]


CLI_CHECKS = [
    ([*FIT, "--lbound", "2.0"], "lbound must lie in [-1, 1], got 2.0"),
    ([*FIT, "--train", "0.6"], "--train and --val must be given together"),
    ([*FIT, "--train", "0.9", "--val", "0.2"],
     "train_fraction + validation_fraction must not exceed 1"),
    ([*GEN, "--archetypes", "5"], "archetypes must lie in [1, n_series], got 5"),
    ([*GEN, "--noise", "nan"], "noise_sd must be non-negative, got nan"),
    (_sweep(panel_sizes="1.5"), "invalid literal for int() with base 10: '1.5'"),
    (_sweep(lbounds="x"), "could not convert string to float: 'x'"),
    (_sweep(transforms="parabola"), "'parabola' is not a valid TransformKind"),
    (_sweep(alphas=","), "empty list argument: ','"),
    (_sweep(panel_sizes="2,,4"), "empty item in list argument: '2,,4'"),
    (_sweep(panel_sizes="2,4,"), "empty item in list argument: '2,4,'"),
    (_sweep(panel_sizes="0"), "panel_size must be at least 1, got 0"),
    (_sweep(val="1.5"), "validation_fraction must lie in (0, 1), got 1.5"),
]


@pytest.mark.parametrize("argv, message", CLI_CHECKS, ids=[m for _, m in CLI_CHECKS])
def test_cli_parameter_errors_exit_2_with_one_line(tmp_path, monkeypatch, capsys,
                                                   argv, message):
    data = _gen(tmp_path, days=30)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    where = ["--out", "x.csv"] if argv[0] == "gen" else ["--data", str(data)]
    assert main([argv[0], *where, *argv[1:]]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: InvalidParameter: {message}"]


def test_cli_list_items_may_be_padded_with_whitespace(tmp_path, monkeypatch):
    data = _gen(tmp_path, days=30)
    monkeypatch.chdir(tmp_path)
    reports = []
    for sizes, transforms in ((" 1 , 2 ", " witch "), ("1,2", "witch")):
        argv = _sweep(panel_sizes=sizes, transforms=transforms)
        assert main([argv[0], "--data", str(data), *argv[1:]]) == 0
        reports.append((tmp_path / "r.csv").read_bytes())
    assert reports[0] == reports[1]


def test_gen_whose_noise_overflows_is_a_runtime_error(tmp_path, capsys):
    assert main([*GEN, "--out", str(tmp_path / "x.csv"), "--noise", "1e306"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: NumericOverflow: noise_sd 1e+306 overflows the generated values"
    ]


def test_generate_with_large_finite_noise_stays_finite():
    family, _ = generate(GenSpec(3, 20, 1, 1e300, 0))
    assert np.isfinite(family.values).all()


def test_a_stray_value_error_is_a_bug_not_an_exit_code(tmp_path, monkeypatch):
    def broken(path):
        raise ValueError("not a parameter problem")

    data = _gen(tmp_path)
    monkeypatch.setattr(cli.dataio, "read_panel_csv", broken)
    with pytest.raises(ValueError, match="not a parameter problem"):
        main(["fit", "--data", str(data), *FIT[1:]])
