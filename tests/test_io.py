import csv
import functools
import io
import json
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from panelboost import (
    BoostConfig,
    DuplicateId,
    Family,
    GenSpec,
    IrregularGrid,
    MissingValue,
    Metrics,
    PanelBoostError,
    PanelModel,
    PanelTerm,
    ParseError,
    ReservedId,
    Series,
    SweepResult,
    SweepRow,
    TimeGrid,
    TransformKind,
    UnsupportedVersion,
    fit,
    generate,
    read_model,
    read_panel_csv,
    read_prediction_csv,
    write_model,
    write_panel_csv,
    write_prediction_csv,
    write_sweep_report,
)
from panelboost.dataio import (
    _fmt,
    _read_cells,
    _read_csv,
    _read_numeric,
    check_prediction_grid,
)

RECIP = TransformKind.RECIPROCAL


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadPanelCsv:
    def test_two_members_with_derived_target(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,b\n0,1,4\n1,2,5\n")
        family, target = read_panel_csv(path)
        assert [m.id for m in family.members] == ["a", "b"]
        np.testing.assert_array_equal(family.members[0].values, [1, 2])
        np.testing.assert_array_equal(family.members[1].values, [4, 5])
        np.testing.assert_array_equal(target.values, [5, 7])
        assert family.grid == TimeGrid(0.0, 1.0, 2)

    def test_explicit_target_column(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,__target__\n0,1,100\n1,2,200\n")
        family, target = read_panel_csv(path)
        assert [m.id for m in family.members] == ["a"]
        np.testing.assert_array_equal(target.values, [100, 200])

    def test_irregular_grid(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n0,1\n1,2\n2.5,3\n")
        with pytest.raises(IrregularGrid):
            read_panel_csv(path)

    def test_times_too_close_for_their_magnitude(self, tmp_path):
        # 1e15 + k/8 increase by one ulp of 1e15 per row: no grid resolves them
        rows = "".join(f"{1e15 + k / 8!r},{k}\n" for k in range(10))
        path = _write(tmp_path / "p.csv", "t,a\n" + rows)
        with pytest.raises(IrregularGrid, match="does not resolve times"):
            read_panel_csv(path)

    def test_duplicate_headers(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,a\n0,1,2\n1,3,4\n")
        with pytest.raises(DuplicateId):
            read_panel_csv(path)

    def test_blank_cell(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,b\n0,1,4\n1,,5\n")
        with pytest.raises(MissingValue) as err:
            read_panel_csv(path)
        assert err.value.row == 3
        assert err.value.column == "a"

    def test_nan_cell(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n0,NaN\n1,2\n")
        with pytest.raises(MissingValue):
            read_panel_csv(path)

    def test_reserved_member_name(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,__prediction__\n0,1\n1,2\n")
        with pytest.raises(ReservedId):
            read_panel_csv(path)

    def test_garbage_cell(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n0,abc\n1,2\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_separator_underscores_rejected(self, tmp_path):
        # float() would happily parse 1_000; the format forbids separators
        path = _write(tmp_path / "p.csv", "t,a\n0,1_000\n1,2\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_missing_time_column(self, tmp_path):
        path = _write(tmp_path / "p.csv", "x,a\n0,1\n1,2\n")
        with pytest.raises(ParseError):
            read_panel_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n0,1\n")
        with pytest.raises(IrregularGrid):
            read_panel_csv(path)

    def test_nonzero_start_and_fractional_step(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n10.0,1\n10.5,2\n11.0,3\n")
        family, _ = read_panel_csv(path)
        assert family.grid.start == 10.0
        assert family.grid.step == 0.5

    def test_bad_cell_is_reported_at_its_file_line(self, tmp_path):
        # the blank line 3 is skipped but still counted: x sits on line 5
        path = _write(tmp_path / "p.csv", "t,a,b\n0,1,2\n\n1,3,4\n2,x,5\n")
        with pytest.raises(ParseError, match="row 5, column 'a'"):
            read_panel_csv(path)

    def test_missing_cell_is_reported_at_its_file_line(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,b\n0,1,2\n\n1,3,4\n2,,5\n")
        with pytest.raises(MissingValue) as err:
            read_panel_csv(path)
        assert err.value.row == 5
        assert err.value.column == "a"

    @pytest.mark.parametrize(
        "times",
        [
            ["-1e308", "0", "1e308"],  # the step itself overflows to inf
            ["0", "-1e308", "1e308", "1"],  # a finite step, an overflowing difference
        ],
        ids=["step-overflows", "difference-overflows"],
    )
    def test_overflowing_time_column_is_irregular(self, tmp_path, times):
        text = "t,a\n" + "".join(f"{t},{k}\n" for k, t in enumerate(times))
        with pytest.raises(IrregularGrid):
            read_panel_csv(_write(tmp_path / "p.csv", text))

    def test_overflowing_derived_target_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a,b\n0,1e308,1e308\n1,1,2\n")
        with pytest.raises(ParseError, match="overflows"):
            read_panel_csv(path)

    def test_cell_beyond_the_csv_field_limit_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t,a\n0," + "1" * 200_000 + "\n1,2\n")
        with pytest.raises(ParseError, match="row 2"):
            read_panel_csv(path)

    def test_long_cell_of_a_small_number_is_a_parse_error(self, tmp_path):
        # numpy's parser has no field limit and would read this as 1.0
        path = _write(tmp_path / "p.csv", "t,a\n0," + "0" * 199_999 + "1\n1,2\n")
        with pytest.raises(ParseError, match="row 2: field larger than field limit"):
            read_panel_csv(path)

    @pytest.mark.parametrize("text", ["t,a\n", "t,a\n\n\r\n\r"], ids=["bare", "blank-lines"])
    def test_header_only_file_is_irregular_without_a_warning(self, tmp_path, text):
        # the suite turns warnings into errors, so numpy's "no data" warning fails here
        with pytest.raises(IrregularGrid, match="need at least 2 data rows"):
            read_panel_csv(_write(tmp_path / "p.csv", text))

    def test_whitespace_line_of_a_one_column_file_is_a_missing_value(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t\n0\n \t\n1\n")
        with pytest.raises(MissingValue) as err:
            read_panel_csv(path)
        assert (err.value.row, err.value.column) == (3, "t")


# Values a float-formatting bug would trip over, mixed into random finite ones.
_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, 1 / 3]
# Ids the CSV writer must quote or keep: commas, quotes, line breaks, padding.
_SPECIAL_IDS = ["a,b", 'say "hi"', '"', "line\nbreak", "cr\ronly", "\r", " padded ",
                "\x00"]


@st.composite
def _panels(draw):
    """A random finite family on an exactly representable grid, maybe with a target."""
    count = draw(st.integers(2, 7))
    grid = TimeGrid(draw(st.sampled_from([0.0, -3.5, 1e6])),
                    draw(st.sampled_from([1.0, 0.125, 7.0])), count)
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    ident = st.one_of(st.sampled_from(_SPECIAL_IDS), st.text(min_size=1, max_size=5)).filter(
        lambda s: s != "t" and not (s.startswith("__") and s.endswith("__")))
    ids = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    members = tuple(Series(i, draw(st.lists(value, min_size=count, max_size=count)))
                    for i in ids)
    target = None
    if draw(st.booleans()):
        target = Series("__target__", draw(st.lists(value, min_size=count, max_size=count)))
    return Family(grid, members), target


class TestCsvRoundTrip:
    def test_family_round_trips_exactly(self, tmp_path):
        rng = np.random.default_rng(41)
        values = [
            rng.standard_normal(9) * 10.0**rng.integers(-6, 6),
            np.array([0.1, 1 / 3, 2 / 7, np.pi, -0.0, 1e-300, 123456.789, 1.0, -5.5]),
        ]
        family = Family(
            TimeGrid(3.25, 0.125, 9),
            tuple(Series(f"m{i}", v) for i, v in enumerate(values)),
        )
        path = tmp_path / "round.csv"
        write_panel_csv(family, path)
        again, _ = read_panel_csv(path)
        assert again.grid == family.grid
        for orig, new in zip(family.members, again.members):
            assert orig.id == new.id
            np.testing.assert_array_equal(orig.values, new.values)

    def test_explicit_target_round_trips(self, tmp_path):
        family = Family(TimeGrid(0.0, 1.0, 3), (Series("a", [1.0, 2.0, 3.0]),))
        target = Series("__target__", [9.0, 8.0, 7.0])
        path = tmp_path / "round.csv"
        write_panel_csv(family, path, target=target)
        _, again = read_panel_csv(path)
        np.testing.assert_array_equal(again.values, target.values)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_panels())
    def test_random_panels_round_trip_bit_exact(self, tmp_path, case):
        family, target = case
        path = tmp_path / "random.csv"
        write_panel_csv(family, path, target=target)
        with np.errstate(over="ignore"):
            derived = family.values.sum(axis=0)
        if target is None and not np.isfinite(derived).all():
            with pytest.raises(ParseError, match="overflows"):
                read_panel_csv(path)
            return
        again, again_target = read_panel_csv(path)
        assert again.grid == family.grid
        assert again.ids == family.ids
        assert again.values.tobytes() == family.values.tobytes()
        if target is not None:
            assert again_target.values.tobytes() == target.values.tobytes()

    def test_prediction_file_round_trips(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 4)
        pred = Series("__prediction__", [1.5, 2.5, 3.5, 4.5])
        path = tmp_path / "pred.csv"
        write_prediction_csv(grid, pred, None, path)
        got_grid, got = read_prediction_csv(path)
        assert got_grid == grid
        np.testing.assert_array_equal(got.values, pred.values)

    @pytest.mark.parametrize("grid", [TimeGrid(1e6, 1 / 24, 50), TimeGrid(1e9, 0.1, 50),
                                      TimeGrid(1e15, 0.5, 50), TimeGrid(1.7e15, 1.0, 50)],
                             ids=["hours-from-1e6", "tenths-from-1e9", "halves-from-1e15",
                                  "microseconds-from-1.7e15"])
    def test_a_grid_far_from_zero_reads_back(self, tmp_path, grid):
        # its times are start + k*step rounded to whole ulps of the start;
        # the last two grids are exact, 4 ulps apart
        family = Family(grid, (Series("a", np.arange(50.0)),))
        write_panel_csv(family, tmp_path / "panel.csv")
        data, _ = read_panel_csv(tmp_path / "panel.csv")
        assert (data.grid.start, data.grid.count) == (grid.start, grid.count)
        assert data.grid.step == pytest.approx(grid.step, rel=1e-7)
        np.testing.assert_array_equal(data.values, family.values)
        # predict writes its file on the grid it read, and eval checks it against the data's
        write_prediction_csv(data.grid, Series("__prediction__", np.ones(50)), None,
                             tmp_path / "pred.csv")
        pred_grid, _ = read_prediction_csv(tmp_path / "pred.csv")
        check_prediction_grid(pred_grid, data.grid)


def _csv_text(header, rows=()) -> str:
    """Header and rows as the panel writer's csv.writer calls render them."""
    out = io.StringIO()
    quoting = csv.QUOTE_ALL if any("\r" in name for name in header) else csv.QUOTE_MINIMAL
    csv.writer(out, lineterminator="\n", quoting=quoting).writerow(header)
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _reference_csv(header, table) -> str:
    """Panel text as csv.writer renders rows of ``_fmt`` cells, the format the writer keeps."""
    return _csv_text(header, ([_fmt(x) for x in row] for row in table))


def _written(path) -> str:
    return path.read_bytes().decode("utf-8")


class TestRowWriter:
    """Each data row is one "%.17g" format string; the text is that of _fmt cells."""

    @pytest.mark.parametrize("ident", [*_SPECIAL_IDS, "plain"])
    def test_special_values_and_ids(self, tmp_path, ident):
        tiny = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072009e-308]
        values = [*_SPECIAL_VALUES, *tiny, 0.0, -0.0, 1.7976931348623157e308, 123456.789]
        grid = TimeGrid(-3.5, 0.125, len(values))
        family = Family(grid, (Series(ident, values), Series("x", values[::-1])))
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        table = np.column_stack([grid.times(), family.values.T]).tolist()
        assert _written(path) == _reference_csv(["t", ident, "x"], table)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_panels())
    def test_random_panels(self, tmp_path, case):
        family, target = case
        path = tmp_path / "p.csv"
        write_panel_csv(family, path, target=target)
        rows = [family.grid.times(), *family.values]
        header = ["t", *family.ids]
        if target is not None:
            rows.append(target.values)
            header.append("__target__")
        assert _written(path) == _reference_csv(header, np.array(rows).T.tolist())

    def test_prediction_file(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 3)
        pred = Series("__prediction__", [0.1, -0.0, 5e-324])
        cum = Series("__cumulative__", [1 / 3, 2.0, 1e300])
        path = tmp_path / "pred.csv"
        write_prediction_csv(grid, pred, cum, path)
        table = np.column_stack([grid.times(), pred.values, cum.values]).tolist()
        assert _written(path) == _reference_csv(["t", "__prediction__", "__cumulative__"],
                                                table)


# Spellings float() and numpy's parser both take, beyond what the writer writes.
_ODD_NUMBERS = ["+1", ".5", "5.", "1E3", "-0", "0e0", "00012", "1e-400", "-2.5e+07"]
_PADDING = ["", " ", "\t", "  \t", "\x0b", "\x0c", "\u3000", "\x85"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
_CORRUPTIONS = ["underscore", "nan", "inf", "1e400", "quote", "extra cell", "missing cell",
                "empty cell", "whitespace line", "nul", "non-utf-8", "extra column",
                "missing column"]


@st.composite
def _csv_files(draw, corrupt):
    """Bytes of a random panel-like CSV file, valid or with one drawn corruption."""
    ident = st.one_of(st.sampled_from(_SPECIAL_IDS), st.text(min_size=1, max_size=5))
    ids = draw(st.lists(ident.filter(lambda s: s != "t"), max_size=3, unique=True))
    header = _csv_text(["t", *ids])
    number = st.one_of(
        st.sampled_from(_SPECIAL_VALUES).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map(_fmt),
        st.sampled_from(_ODD_NUMBERS),
    )
    pad = st.sampled_from(_PADDING)
    rows = draw(st.lists(
        st.lists(st.tuples(pad, number, pad).map("".join),
                 min_size=1 + len(ids), max_size=1 + len(ids)),
        min_size=2, max_size=6))
    if corrupt:
        kind = draw(st.sampled_from(_CORRUPTIONS))
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, len(rows[row]) - 1))
        cell = rows[row][col]
        at = draw(st.integers(0, len(cell)))
        if kind in ("underscore", "quote", "nul", "non-utf-8"):
            mark = {"underscore": "_", "quote": '"', "nul": "\x00", "non-utf-8": "\udcff"}
            rows[row][col] = cell[:at] + mark[kind] + cell[at:]
        elif kind in ("nan", "inf", "1e400"):
            rows[row][col] = draw(pad) + kind + draw(pad)
        elif kind == "extra cell":
            rows[row].insert(col, draw(number))
        elif kind == "missing cell":
            del rows[row][col]
        elif kind == "empty cell":
            rows[row][col] = draw(pad)
        elif kind == "extra column":  # every row disagrees with the header
            for cells in rows:
                cells.append(draw(number))
        elif kind == "missing column":
            for cells in rows:
                cells.pop()
        else:
            rows.insert(row, [draw(pad.filter(bool))])
    lines = [",".join(row) for row in rows]
    text = header + "".join(
        "".join(draw(st.sampled_from(_LINE_ENDS)) for _ in range(draw(st.integers(0, 2))))
        + line + draw(st.sampled_from(_LINE_ENDS))
        for line in lines
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    # a lone surrogate stands for a byte that is not UTF-8
    return text.encode("utf-8", "surrogateescape")


def _outcome(read, path):
    """What a reader makes of a file: header and matrix bits, or the error and its message."""
    try:
        header, columns = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return header, columns.shape, columns.tobytes()


class TestAtomicWrites:
    def test_a_write_that_fails_midway_leaves_the_old_file(self, tmp_path):
        # the second row's cells are formatted after the header and the first
        # row are written, and "x" is no number
        good = Metrics(1.0, 1.0, None, float("nan"), 2.0)
        config = BoostConfig(1, RECIP)
        rows = (SweepRow(config, good, good, False),
                SweepRow(config, good, Metrics("x", 1.0, None, 0.0, 2.0), False))
        path = _write(tmp_path / "report.csv", "old report\n")
        with pytest.raises(ValueError, match="'x'"):
            write_sweep_report(SweepResult(rows, 0), path)
        assert path.read_bytes() == b"old report\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp file is left behind


class TestReaderEquivalence:
    """numpy's parser with its fallback reads every file as the per-cell loop does."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_csv_files(corrupt=False))
    def test_valid_files_read_bit_identically(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        expected = _outcome(_read_cells, path)
        assert _outcome(_read_csv, path) == expected
        if isinstance(expected[0], list):  # read by numpy, not by the fallback
            assert _read_numeric(path) is not None

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_csv_files(corrupt=True))
    def test_corrupted_files_raise_the_same_error(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        assert _outcome(_read_csv, path) == _outcome(_read_cells, path)


def _fitted_model():
    rng = np.random.default_rng(42)
    members = tuple(Series(f"m{i}", rng.standard_normal(30)) for i in range(5))
    family = Family(TimeGrid(0.0, 1.0, 30), members)
    target = Series("__target__", sum(m.values for m in members))
    config = BoostConfig(panel_size=3, transform=TransformKind.WITCH, lbound=-0.5, alpha=0.9)
    model, _ = fit(family, target, config)
    return model


class TestModelRoundTrip:
    def test_field_by_field_equality(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path, input_digest="sha256:abc")
        again = read_model(path)
        assert again == model

    def test_provenance_is_stored(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path, input_digest="sha256:abc")
        doc = json.loads(path.read_text())
        assert doc["provenance"]["input_digest"] == "sha256:abc"
        assert "created_at" in doc["provenance"]

    def test_future_version_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            read_model(path)

    def test_unknown_field_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["surprise"] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            read_model(path)

    def test_unknown_term_field_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["terms"][0]["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            read_model(path)

    def test_truncated_file(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            read_model(path)

    def test_missing_field(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        del doc["config"]["alpha"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_model(path)

    def test_stopped_early_is_reconstructed(self, tmp_path):
        g = np.array([1.0, -1.0, 2.0, -2.0])
        family = Family(TimeGrid(0.0, 1.0, 4), (Series("g", g),))
        config = BoostConfig(panel_size=3, transform=RECIP)
        model, _ = fit(family, Series("__target__", 2 * g), config)
        assert model.stopped_early
        path = tmp_path / "model.json"
        write_model(model, path)
        assert read_model(path).stopped_early


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = GenSpec(n_series=6, days=40, archetypes=2, noise_sd=0.1, seed=99)
        fam_a, tgt_a = generate(spec)
        fam_b, tgt_b = generate(spec)
        assert fam_a == fam_b
        assert tgt_a == tgt_b

    def test_seed_changes_output(self):
        base = GenSpec(n_series=6, days=40, archetypes=2, noise_sd=0.1, seed=1)
        other = GenSpec(n_series=6, days=40, archetypes=2, noise_sd=0.1, seed=2)
        fam_a, _ = generate(base)
        fam_b, _ = generate(other)
        assert fam_a != fam_b

    def test_nonnegative_without_noise(self):
        fam, _ = generate(GenSpec(n_series=10, days=60, archetypes=3, noise_sd=0.0, seed=5))
        for m in fam.members:
            assert np.all(m.values >= 0.0)

    def test_rank_one_panel_is_recovered_by_a_single_member(self):
        fam, target = generate(GenSpec(n_series=5, days=30, archetypes=1, noise_sd=0.0, seed=3))
        model, trace = fit(fam, target, BoostConfig(panel_size=1, transform=RECIP))
        scale = float(np.linalg.norm(target.values))
        rmse = np.sqrt(trace.records[-1].squared_error_after / fam.grid.count)
        assert rmse <= 1e-9 * scale

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(n_series=2, days=30, archetypes=3)
        with pytest.raises(ValueError):
            GenSpec(n_series=2, days=7, archetypes=1)
        with pytest.raises(ValueError):
            GenSpec(n_series=0, days=30, archetypes=1)
        with pytest.raises(ValueError):
            GenSpec(n_series=2, days=30, archetypes=1, noise_sd=-0.1)

    def test_grid_is_daily_from_zero(self):
        fam, _ = generate(GenSpec(n_series=2, days=21, archetypes=1, seed=0))
        assert fam.grid == TimeGrid(0.0, 1.0, 21)


class TestStrictModelTypes:
    """Every field must already have its JSON type; nothing is coerced."""

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("config", "with_replacement", "false"),  # bool("false") is True
            ("config", "with_replacement", 0),
            ("config", "panel_size", 3.9),  # int(3.9) is 3
            ("config", "panel_size", True),
            ("config", "lbound", "-1"),
            ("config", "alpha", float("nan")),
            ("config", "transform", 1),
            ("grid", "count", 30.0),
            ("grid", "start", float("inf")),
            ("grid", "start", 10**400),  # a JSON integer too large for a float
            ("grid", "step", None),
            ("term", "iteration", True),
            ("term", "weight", float("nan")),
            ("term", "raw_rho", float("-inf")),
            ("term", "score", "0.5"),
            ("term", "member_id", 7),
        ],
    )
    def test_mistyped_field_rejected(self, tmp_path, section, field, value):
        path = tmp_path / "model.json"
        write_model(_fitted_model(), path)
        doc = json.loads(path.read_text())
        target = doc["terms"][0] if section == "term" else doc[section]
        target[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_model(path)

    def test_boolean_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        write_model(_fitted_model(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = True  # equals 1 in Python
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            read_model(path)

    def test_integer_valued_floats_load(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["grid"]["start"] = 0  # a JSON integer is a valid number
        path.write_text(json.dumps(doc))
        assert read_model(path) == model

    def test_a_grid_of_epoch_microseconds_loads(self, tmp_path):
        # whole microseconds since 1970 are exact floats, 4 ulps apart
        model = _fitted_model()
        model = PanelModel(model.terms, model.config, TimeGrid(1.7e15, 1.0, 30))
        path = tmp_path / "model.json"
        write_model(model, path)
        assert read_model(path) == model


def _places(doc, prefix=()):
    """Every key of every object and every item of every list, as key paths."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, prefix + (key,))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([10**400, -0.0, 1e308, 0.5, 1, "reciprocal", "witch", "m0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5,
)


def _same_json(a, b) -> bool:
    """JSON equality in which true is not 1, though 1 and 1.0 are one number."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            _same_json(a[k], b[k]) for k in a
        )
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same_json, a, b))
    return (type(a) is bool) == (type(b) is bool) and a == b


class TestModelMutations:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_single_mutation_loads_what_it_says_or_raises_typed(self, tmp_path, data):
        """Set, delete or add one field: the file loads as written, or a PanelBoostError."""
        path = tmp_path / "model.json"
        write_model(_fitted_model(), path)
        doc = json.loads(path.read_text())
        place = data.draw(st.sampled_from(list(_places(doc))))
        parent = functools.reduce(operator.getitem, place[:-1], doc)
        action = data.draw(st.sampled_from(["set", "delete", "add"]))
        if action == "set":
            parent[place[-1]] = data.draw(_JSON_VALUES)
        elif action == "delete":
            del parent[place[-1]]
        else:
            host = parent[place[-1]] if isinstance(parent[place[-1]], dict) else parent
            if not isinstance(host, dict):
                host = doc
            host[data.draw(st.text(min_size=1, max_size=4))] = data.draw(_JSON_VALUES)
        path.write_text(json.dumps(doc))

        try:
            model = read_model(path)
        except PanelBoostError:
            return
        again = tmp_path / "again.json"
        write_model(model, again)
        written = json.loads(again.read_text())
        del written["provenance"]
        doc.pop("provenance", None)
        assert _same_json(written, doc)


class TestModelInvariantsOnRead:
    def test_tampered_weight_rejected(self, tmp_path):
        model = _fitted_model()
        path = tmp_path / "model.json"
        write_model(model, path)
        doc = json.loads(path.read_text())
        doc["terms"][0]["weight"] = doc["terms"][0]["weight"] * 2 + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_model(path)
