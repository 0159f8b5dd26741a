import contextlib
import csv
import functools
import io
import json
import math
import operator
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from panelboost import (
    BoostConfig,
    DuplicateId,
    EmptyFamily,
    Family,
    GenSpec,
    InvalidParameter,
    IrregularGrid,
    MissingValue,
    Metrics,
    PanelBoostError,
    PanelModel,
    PanelTerm,
    ParseError,
    ReservedId,
    Series,
    ShapeError,
    SweepResult,
    SweepRow,
    TimeGrid,
    TransformKind,
    UnsupportedVersion,
    aggregate_target,
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
from panelboost import dataio
from panelboost.cli import _parse_list, build_parser, main, real
from panelboost.dataio import (
    _fmt,
    _read_cells,
    _read_csv,
    _read_numeric,
    check_prediction_grid,
)

RECIP = TransformKind.RECIPROCAL


@contextlib.contextmanager
def _small_blocks():
    # the writer's blocks of at most about 48 bytes of text are 1 row each,
    # and the reader's are the whole lines of about 48 bytes of text, so the
    # files drawn here span several blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "CSV_BLOCK_BYTES", 48)
        yield


# The block sizes a panel file is read and written in: the drawn files fit in
# one block of the default size.
BLOCKS = {"default": contextlib.nullcontext, "small": _small_blocks}


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

    @pytest.mark.parametrize("header", ["t,__target__,a,b", "t,a,__target__,b",
                                        "t,a,b,__target__"])
    def test_target_column_in_any_place(self, tmp_path, header):
        cells = {"a": ["1", "2"], "b": ["3", "5"], "__target__": ["100", "200"]}
        names = header.split(",")[1:]
        lines = [",".join([str(k), *(cells[name][k] for name in names)]) for k in range(2)]
        family, target = read_panel_csv(_write(tmp_path / "p.csv", "\n".join([header, *lines])))
        assert family.ids == ("a", "b")
        np.testing.assert_array_equal(family.values, [[1, 2], [3, 5]])
        np.testing.assert_array_equal(target.values, [100, 200])
        assert not family.values.flags.writeable
        assert family.values.strides[1] == family.values.itemsize

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

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_a_blank_first_line_is_a_header_without_its_t_column(self, tmp_path, end):
        # the fast reader has no width to parse a blank header to, and declines
        # the file; the cell reader names the missing column
        path = _write(tmp_path / "p.csv", end + "t,a\n0,1\n1,2\n")
        with pytest.raises(ParseError, match="first column must be 't', got '<nothing>'"):
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

    @pytest.mark.parametrize("digit", ["\u0663", "\uff13", '"\u0663"'],
                             ids=["arabic-indic", "fullwidth", "quoted"])
    def test_non_ascii_digits_rejected(self, tmp_path, digit):
        # float() reads both as 3; the format's numerals are ASCII
        path = _write(tmp_path / "p.csv", f"t,a,b\n0,1,2\n1,{digit},4\n2,5,6\n")
        with pytest.raises(ParseError, match=r"row 3, column 'a': not a number"):
            read_panel_csv(path)

    @pytest.mark.parametrize("read, column", [(read_panel_csv, "a"),
                                              (read_prediction_csv, "__prediction__")],
                             ids=["panel", "prediction"])
    @pytest.mark.parametrize("cell", ["1e400", "-1e400"])
    def test_an_overflowing_cell_is_out_of_range(self, tmp_path, read, column, cell):
        # float() reads it as inf, but only the words inf and nan are missing values
        path = _write(tmp_path / "p.csv", f"t,{column}\n0,1\n\n1,{cell}\n2,3\n")
        with pytest.raises(ParseError, match=f"row 4, column '{column}': out of range: '{cell}'"):
            read(path)

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

    @pytest.mark.parametrize("read", [read_panel_csv, read_prediction_csv],
                             ids=["panel", "prediction"])
    def test_empty_file_is_a_parse_error(self, tmp_path, read):
        with pytest.raises(ParseError, match="empty file"):
            read(_write(tmp_path / "p.csv", ""))

    def test_whitespace_line_of_a_one_column_file_is_a_missing_value(self, tmp_path):
        path = _write(tmp_path / "p.csv", "t\n0\n \t\n1\n")
        with pytest.raises(MissingValue) as err:
            read_panel_csv(path)
        assert (err.value.row, err.value.column) == (3, "t")


# Values a float-formatting bug would trip over, mixed into random finite ones.
_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, 1 / 3]
# Ids the CSV writer must quote or keep: commas, quotes, line breaks, padding.
_QUOTED_IDS = ["a,b", 'say "hi"', '"', "line\nbreak", "cr\ronly", "\r", " padded ",
               "\x00"]
# ... and ids no member of a panel file may have: the time column's and dunders.
_SPECIAL_IDS = [*_QUOTED_IDS, "t", "__target__", "__x__", "__"]


@st.composite
def _panels(draw):
    """A random finite family on an exactly representable grid, maybe with a target.

    Its ids may be ones a panel file cannot hold, and it may have no member.
    """
    count = draw(st.integers(2, 7))
    grid = TimeGrid(draw(st.sampled_from([0.0, -3.5, 1e6])),
                    draw(st.sampled_from([1.0, 0.125, 7.0])), count)
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    ident = st.one_of(st.sampled_from(_SPECIAL_IDS), st.text(min_size=1, max_size=5))
    ids = draw(st.lists(ident, max_size=4, unique=True))
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

    def test_a_copy_with_every_cell_quoted_reads_through_numpy(self, tmp_path):
        family, _ = generate(GenSpec(n_series=30, days=40, archetypes=3, seed=3))
        path, quoted = tmp_path / "p.csv", tmp_path / "quoted.csv"
        write_panel_csv(family, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        with quoted.open("w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
        assert _read_numeric(quoted) is not None
        assert read_panel_csv(quoted) == read_panel_csv(path)

    # about a third of the families drawn are refused, so 320 examples write 200-odd files
    @settings(max_examples=320, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_panels())
    def test_random_panels_round_trip_bit_exact(self, tmp_path, case):
        family, target = case
        path = _write_or_refuse(tmp_path, family, target)
        if path is None:
            return
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


def _panel_text(family, target) -> str:
    """``_reference_csv`` of a family and its explicit target, if any, in the last column."""
    header, rows = ["t", *family.ids], [family.grid.times(), *family.values]
    if target is not None:
        header.append("__target__")
        rows.append(target.values)
    return _reference_csv(header, np.array(rows).T.tolist())


def _write_or_refuse(directory, family, target):
    """The path of a panel file written to a new directory, or None if the writer refuses.

    A refusal leaves the directory empty, and is the error class that the
    reader raises on the text the writer would have written (the reader may
    name another id, as it takes a "__target__" member for the target); or
    that text reads back as another family or target.
    """
    path = Path(tempfile.mkdtemp(dir=directory)) / "p.csv"
    try:
        write_panel_csv(family, path, target=target)
    except PanelBoostError as exc:
        refusal = exc
    else:
        return path
    assert list(path.parent.iterdir()) == []  # no file, and no temp file
    _write(path, _panel_text(family, target))
    try:
        again, again_target = read_panel_csv(path)
    except PanelBoostError as exc:
        assert type(exc) is type(refusal)
    else:
        assert again.ids != family.ids or (
            target is not None and again_target.values.tobytes() != target.values.tobytes())
    return None


class TestRowWriter:
    """Each data row is written as "%.17g" cells, in array code or by the format string.

    The text is that of _fmt cells, whichever way it is written.
    """

    @pytest.mark.parametrize("ident", [*_QUOTED_IDS, "plain"])
    def test_special_values_and_ids(self, tmp_path, ident):
        tiny = [5e-324, -5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072009e-308]
        values = [*_SPECIAL_VALUES, *tiny, 0.0, -0.0, 1.7976931348623157e308, 123456.789]
        grid = TimeGrid(-3.5, 0.125, len(values))
        family = Family(grid, (Series(ident, values), Series("x", values[::-1])))
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        table = np.column_stack([grid.times(), family.values.T]).tolist()
        assert _written(path) == _reference_csv(["t", ident, "x"], table)

    # about a third of the families drawn are refused, so 160 examples write 100-odd files
    @settings(max_examples=160, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_panels())
    def test_random_panels(self, tmp_path, case):
        family, target = case
        path = _write_or_refuse(tmp_path, family, target)
        if path is None:
            return
        for size, blocks in BLOCKS.items():
            with blocks():
                write_panel_csv(family, path, target=target)
            assert _written(path) == _panel_text(family, target), size

    def test_prediction_file(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 3)
        pred = Series("__prediction__", [0.1, -0.0, 5e-324])
        cum = Series("__cumulative__", [1 / 3, 2.0, 1e300])
        path = tmp_path / "pred.csv"
        write_prediction_csv(grid, pred, cum, path)
        table = np.column_stack([grid.times(), pred.values, cum.values]).tolist()
        assert _written(path) == _reference_csv(["t", "__prediction__", "__cumulative__"],
                                                table)


def _percent_rows(table) -> bytes:
    """The rows of a table as the "%.17g" format string writes them."""
    row_format = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return "".join(row_format % tuple(row) for row in table.tolist()).encode()


@contextlib.contextmanager
def _formatted_cells():
    """The values written by ``_fmt`` while the block runs, not in array code."""
    cells = []
    fmt = dataio._fmt

    def spy(x):
        cells.append(x)
        return fmt(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_fmt", spy)
        yield cells


def _near_half(part: int) -> float:
    """A value from 1e10 to 1e11 whose exact product with 10**6 is an integer plus part/128.

    It is m / 8192, so the product is m * 15625 / 128, which a long double
    of 64 significant bits holds exactly: D's product for exponent 10.
    """
    low = 10**10 * 8192
    return (low + (part * pow(15625, -1, 128) - low) % 128) / 8192


# float64 bit patterns: any, and ones whose exponent is near the range written in array code
_FLOAT_BITS = st.builds(
    lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
    st.integers(0, 1), st.one_of(st.integers(0, 2047), st.integers(1005, 1085)),
    st.integers(0, 2**52 - 1))


class TestExactWriter:
    """A cell from 1e-4 to 1e17 is written in array code, byte for byte as "%.17g" writes it."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bits=st.lists(_FLOAT_BITS, min_size=1, max_size=40), width=st.integers(1, 4))
    def test_any_float64_at_any_magnitude(self, bits, width):
        cells = np.array(bits, np.uint64).view(np.float64)
        table = np.resize(cells, (-(-len(cells) // width), width))
        assert dataio._plain_text(table) == _percent_rows(table)

    @pytest.mark.parametrize("value, text", [
        # exact ties in the 17th digit, to the even one
        (1234567890123456.25, "1234567890123456.2"),
        (1234567890123456.75, "1234567890123456.8"),
        # below 1e17, and rounded up to it, out of fixed notation
        (99999999999999984.0, "99999999999999984"),
        (9.9999999999999999e16, "1e+17"),
        (1e-4, "0.0001"),
        (float(np.nextafter(1e-4, 0)), "9.9999999999999991e-05"),
        (float(np.nextafter(1e-4, 1)), "0.00010000000000000002"),
        (1e9, "1000000000"), (10.0, "10"), (100.0, "100"), (1e16, "10000000000000000"),
        (0.1, "0.10000000000000001"), (0.5, "0.5"), (123.456, "123.456"),
        (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
    ])
    def test_edge_values(self, value, text):
        table = np.array([[value, -value], [1.0, value]])
        assert dataio._plain_text(table) == _percent_rows(table)
        assert dataio._plain_text(table).split(b",")[0] == text.encode()

    # 63/128 and 65/128 lie 2**-7 from 1/2, at the band's edge, and 64/128 is a tie
    @pytest.mark.parametrize("part, formatted", [(61, False), (62, False), (63, True),
                                                 (64, True), (65, True), (66, False)])
    def test_products_near_a_half_integer_go_to_the_format_string(self, part, formatted):
        value = _near_half(part)
        table = np.array([[value, 2.5]])
        with _formatted_cells() as cells:
            assert dataio._plain_text(table) == _percent_rows(table)
        assert cells == ([value] if formatted else [])


class TestWriterRefusals:
    """A writer refuses what its reader would reject or misread, before it opens a file."""

    @pytest.mark.parametrize(
        ("ids", "with_target", "error", "message"),
        [
            (("a", "t"), False, DuplicateId, "duplicate column 't'"),
            (("__x__",), False, ReservedId, "'__x__' is reserved and cannot be a member"),
            (("a", "__target__"), False, ReservedId,
             "'__target__' is reserved and cannot be a member"),
            (("__target__",), True, DuplicateId, "duplicate column '__target__'"),
            ((), False, EmptyFamily, "no member columns and no explicit target"),
            (("a", "b\udcff"), False, ParseError, "'b\\udcff' is not valid UTF-8"),
        ],
        ids=["t", "dunder", "target-as-member", "target-twice", "empty", "lone-surrogate"],
    )
    def test_a_family_the_file_cannot_hold(self, tmp_path, ids, with_target, error, message):
        # read back, "__target__" as a member would be the target, one member short
        grid = TimeGrid(0.0, 1.0, 3)
        family = Family(grid, tuple(Series(i, [1.0, 2.0, 3.0]) for i in ids))
        target = Series("__target__", [6.0, 5.0, 4.0]) if with_target else None
        path = _write(tmp_path / "p.csv", "old\n")
        with pytest.raises(error) as err:
            write_panel_csv(family, path, target=target)
        assert str(err.value) == f"{path}: {message}"
        assert _written(path) == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("length", [12, 20], ids=["too-few", "too-many"])
    @pytest.mark.parametrize("column", ["__target__", "__prediction__", "__cumulative__"])
    def test_a_series_that_is_not_one_value_per_step(self, tmp_path, column, length):
        # under small blocks a block is 2 rows and 16 steps are 8 whole blocks,
        # so a series with more values would be cut to 16
        grid = TimeGrid(0.0, 1.0, 16)
        series = {name: Series(name, np.arange(16.0))
                  for name in ("__target__", "__prediction__", "__cumulative__")}
        series[column] = Series(column, np.arange(float(length)))
        path = _write(tmp_path / "p.csv", "old\n")
        with _small_blocks(), pytest.raises(ShapeError) as err:
            if column == "__target__":
                family = Family(grid, (Series("a", np.ones(16)),))
                write_panel_csv(family, path, target=series[column])
            else:
                write_prediction_csv(grid, series["__prediction__"], series["__cumulative__"],
                                     path)
        assert str(err.value) == f"{path}: column {column!r} has {length} values, grid expects 16"
        assert _written(path) == "old\n"
        assert list(tmp_path.iterdir()) == [path]


# Spellings float() and numpy's parser both take, beyond what the writer writes.
_ODD_NUMBERS = ["+1", ".5", "5.", "1E3", "-0", "0e0", "00012", "1e-400", "-2.5e+07"]
_PADDING = ["", " ", "\t", "  \t", "\x0b", "\x0c", "\u3000", "\x85"]
_LINE_ENDS = ["\n", "\r\n", "\r"]
# Digits float() reads as 3, 0 and 9: Arabic-Indic, fullwidth and mathematical bold.
_NON_ASCII_DIGITS = ["\u0663", "\uff10", "\U0001d7d7"]
_CORRUPTIONS = ["underscore", "nan", "inf", "1e400", "quote", "extra cell", "missing cell",
                "empty cell", "whitespace line", "nul", "non-utf-8", "extra column",
                "missing column", "non-ASCII digit"]


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
    padded = st.tuples(pad, number, pad).map("".join)
    field = st.one_of(padded, padded.map('"{}"'.format))  # a quoted cell keeps its padding
    rows = draw(st.lists(
        st.lists(field, min_size=1 + len(ids), max_size=1 + len(ids)),
        min_size=2, max_size=6))
    if corrupt:
        kind = draw(st.sampled_from(_CORRUPTIONS))
        row = draw(st.integers(0, len(rows) - 1))
        col = draw(st.integers(0, len(rows[row]) - 1))
        cell = rows[row][col]
        at = draw(st.integers(0, len(cell)))
        if kind in ("underscore", "quote", "nul", "non-utf-8", "non-ASCII digit"):
            mark = {"underscore": "_", "quote": '"', "nul": "\x00", "non-utf-8": "\udcff",
                    "non-ASCII digit": draw(st.sampled_from(_NON_ASCII_DIGITS))}
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
        for size, blocks in BLOCKS.items():
            with blocks():
                assert _outcome(_read_csv, path) == expected, size
                if isinstance(expected[0], list):  # read by numpy, not by the fallback
                    assert _read_numeric(path) is not None, size

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(content=_csv_files(corrupt=True))
    def test_corrupted_files_raise_the_same_error(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_bytes(content)
        expected = _outcome(_read_cells, path)
        for size, blocks in BLOCKS.items():
            with blocks():
                assert _outcome(_read_csv, path) == expected, size

    @pytest.mark.parametrize("end", _LINE_ENDS, ids=repr)
    @pytest.mark.parametrize(("after", "first"), [('"\n3,3', ["t", "a"]),
                                                  ('3,"3"\n4,4', ParseError)],
                             ids=["closed", "row-like"])
    def test_a_quoted_line_break_is_read_by_the_cell_reader(self, tmp_path, end, after, first):
        # the break ends the third data line, where numpy would end the quoted
        # cell; the next line closes the cell, or would read as a row of its own
        path = _write(tmp_path / "p.csv", f't,a\n0,0\n1,1\n2,"1.5{end}{after}\n')
        expected = _outcome(_read_cells, path)
        assert expected[0] == first
        for size, blocks in BLOCKS.items():
            with blocks():
                assert _read_numeric(path) is None, size
                assert _outcome(_read_csv, path) == expected, size


# Strings near numerals: random pieces, numeral-shaped ones (some overflow, or hold a
# "_" or a non-ASCII digit, which float() reads), and the words and edge values
_NUMERAL_PIECES = [*"0123456789+-.eE_", " ", "\u3000", "\u0663", "\uff10", "inf", "nan", "x"]
_NUMERALS = st.one_of(
    st.lists(st.sampled_from(_NUMERAL_PIECES), max_size=8).map("".join),
    st.from_regex(r"[ \u3000]?[+-]?[0-9_\u0663\uff10]{0,4}\.?[0-9]{0,3}([eE][+-]?[0-9]{1,3})?"
                  r"[ \u3000]?", fullmatch=True),
    st.sampled_from(["inf", "-inf", " nan ", "+Infinity", "-nan", "1e400", "-1e400", "1e-400"]),
)


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


def _float_flag(text):
    """The value argparse gives a float flag set to ``text``, or None when it refuses it.

    argparse before Python 3.13 drops a value that is "--" itself before its
    type sees it, and stores [], which ``cli.main`` refuses as a usage error.
    """
    argv = ["gen", "--out", "x.csv", "--n", "1", "--days", "2", f"--noise={text}"]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            value = build_parser().parse_args(argv).noise
    except SystemExit:
        return None
    return None if value == [] else value


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_NUMERALS)
def test_a_cell_a_flag_and_a_list_item_take_the_same_numerals(tmp_path, text):
    flag = _float_flag(text)
    try:
        (item,) = _parse_list(text, real)
    except InvalidParameter:
        item = None
    assert _bits(item) == _bits(flag)

    path = _write(tmp_path / "p.csv", f"t,a\n0,1\n1,{text}\n2,3\n")
    try:
        cell = _bits(read_panel_csv(path)[0].values[0, 1])
    except ParseError:
        cell = None
    except MissingValue:
        cell = "missing"
    if not text.strip() or flag is not None and not math.isfinite(flag):
        assert cell == "missing"  # a blank cell, or an inf or nan word
    else:
        assert cell == _bits(flag)
    numeric = _read_numeric(path)
    assert numeric is None or _bits(numeric[1][1, 1]) == cell


class _NumpysParserCalled(Exception):
    """Raised in place of np.loadtxt, which the reader does not catch."""


@contextlib.contextmanager
def _without_numpys_parser():
    # a block that declines the exact path then fails the read, where it
    # would otherwise go to numpy's parser and cost only speed
    def refuse(*args, **kwargs):
        raise _NumpysParserCalled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "loadtxt", refuse)
        yield


@contextlib.contextmanager
def _without_exact_path():
    # as on a platform whose long double is a double: every block goes to numpy's
    # parser, and every row to "%.17g"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_EXACT_QUOTIENT", False)
        patch.setattr(dataio, "_EXACT_PRODUCT", False)
        yield


def _exact_outcome(path):
    """``_outcome`` of ``_read_numeric`` with numpy's parser refused."""
    with _without_numpys_parser():
        return _outcome(_read_numeric, path)


# Cells of 1 significant digit whose digits after the dot an int8 does not hold.
_AFTER_128, _AFTER_257 = ("0." + "0" * zeros + "1" for zeros in (127, 256))


class TestExactReader:
    """Plain cells are read as integers over a power of ten, bit for bit as float() reads them."""

    @pytest.mark.parametrize("cell, value", [
        # ties between two doubles, which round to the even one: 2**53 + 1 and
        # + 3, 2**52 + 0.5, and 2**54 - 1, halfway to 2**54 from the double below
        ("9007199254740993", 9007199254740992.0),
        ("9007199254740995", 9007199254740996.0),
        ("4503599627370496.5", 4503599627370496.0),
        ("18014398509481983", 18014398509481984.0),
        # near a tie, on which a long double rounds them: the double below or
        # above it is the nearest, which the tie's even double is not
        ("1.04859335012007715", 1.048593350120077),
        ("1.17822665003013205", 1.1782266500301322),
        ("-0", -0.0), ("-0.0", -0.0), ("-00", -0.0), ("0.", 0.0), (".5", 0.5), ("-.25", -0.25),
        ("123456789012345678", 123456789012345678.0),  # 18 digits, the most
        # leading zeros do not count: 18 significant digits and up to 21 after the dot
        ("0.012345678901234567", 0.012345678901234567),
        ("-0.00012345678901234567", -0.00012345678901234567),
        ("0.000012345678901234567", 1.2345678901234567e-05),
        ("0.000000000000000001", 1e-18), ("000000000000000000000012.5", 12.5),
        ("0.12345678901234567", 0.12345678901234567),
        ("0.30000000000000004", 0.30000000000000004),
        ("007.50", 7.5),
    ])
    def test_a_plain_cell_reads_as_float_reads_it(self, tmp_path, cell, value):
        path = _write(tmp_path / "p.csv", f"t,a\n0,{cell}\n1,2")
        expected = _outcome(_read_cells, path)
        assert _exact_outcome(path) == expected
        assert expected[2][16:24] == np.float64(value).tobytes()  # the first cell of a

    @pytest.mark.parametrize("cell", ["1234567890123456789", "0.1234567890123456789",
                                      "0.0000000000000000000001", "1e5",
                                      "+1", " 1", "1.2.3", "--1", "1-", "-", ".", "-.",
                                      '"1"', "0x1",
                                      pytest.param(_AFTER_128, id="128-after-the-dot"),
                                      pytest.param(_AFTER_257, id="257-after-the-dot")])
    def test_any_other_cell_goes_to_numpys_parser(self, tmp_path, cell):
        # 19 significant digits, 22, 128 and 257 after the dot, an exponent, a sign or
        # padding numpy reads, and cells no reader takes
        path = _write(tmp_path / "p.csv", f"t,a\n0,{cell}\n1,2\n")
        with _without_numpys_parser(), pytest.raises(_NumpysParserCalled):
            _read_numeric(path)
        assert _outcome(_read_csv, path) == _outcome(_read_cells, path)

    @pytest.mark.parametrize("cell, value", [(_AFTER_128, 1e-128), (_AFTER_257, 1e-257)],
                             ids=["128-after-the-dot", "257-after-the-dot"])
    def test_more_digits_after_the_dot_than_an_int8_holds(self, tmp_path, cell, value):
        # 1 significant digit: counted in an int8, 128 and 257 digits wrap to -128 and 1
        path = _write(tmp_path / "p.csv", f"t,a\n0,{cell}\n1,2\n")
        expected = _outcome(_read_cells, path)
        assert _outcome(_read_numeric, path) == expected
        assert expected[2][16:24] == np.float64(value).tobytes()  # the first cell of a

    def test_random_17_digit_values_read_bit_identically(self, tmp_path):
        # from 0.1 the writer's 17 significant digits are at most 18 digits
        rng = np.random.default_rng(34)
        values = 10 ** rng.uniform(-1, 17, (500, 40)) * rng.choice([-1.0, 1.0], (500, 40))
        family = Family(TimeGrid(0.0, 1.0, 500), tuple(Series(f"m{j}", values[:, j])
                                                       for j in range(40)))
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        expected = _outcome(_read_cells, path)
        assert expected[2][500 * 8 :] == values.T.tobytes()
        for size, blocks in BLOCKS.items():
            with blocks():
                assert _exact_outcome(path) == expected, size

    @pytest.mark.parametrize("size, blocks", BLOCKS.items())
    def test_values_from_1e_4_to_0_1_read_bit_identically(self, tmp_path, size, blocks):
        # "%.17g" writes them with 1 to 4 zeros before their 17 significant digits
        rng = np.random.default_rng(36)
        values = 10 ** rng.uniform(-4, -1, (300, 8)) * rng.choice([-1.0, 1.0], (300, 8))
        family = Family(TimeGrid(0.0, 1.0, 300), tuple(Series(f"m{j}", values[:, j])
                                                       for j in range(8)))
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        expected = _outcome(_read_cells, path)
        assert expected[2][300 * 8 :] == values.T.tobytes()
        with blocks():
            assert _exact_outcome(path) == expected, size

    @pytest.mark.parametrize("size, blocks", BLOCKS.items())
    def test_values_down_to_1e_5_read_bit_identically(self, tmp_path, size, blocks):
        # below 1e-4 a cell takes an exponent, and goes to numpy's parser
        rng = np.random.default_rng(35)
        values = 10 ** rng.uniform(-5, 17, (300, 8)) * rng.choice([-1.0, 1.0], (300, 8))
        family = Family(TimeGrid(0.0, 1.0, 300), tuple(Series(f"m{j}", values[:, j])
                                                       for j in range(8)))
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        with blocks():
            assert _outcome(_read_csv, path) == _outcome(_read_cells, path)

    def test_plain_blocks_mix_with_blocks_for_numpys_parser(self, tmp_path):
        lines = [f"{k},{k / 7!r},{-k / 3!r}\n" for k in range(40)]
        odd = {5: "5,1e-3,-2\n", 12: '12,"1.5",2\n', 20: "20,1,2\r\n", 30: "\n30,1,2\n"}
        for k, line in odd.items():
            lines[k] = line
        path = tmp_path / "p.csv"
        path.write_bytes(("t,a,b\n" + "".join(lines)).encode())
        handed = []
        loadtxt = np.loadtxt

        def spy(lines, *args, **kwargs):
            handed.extend(lines)
            return loadtxt(lines, *args, **kwargs)

        with _small_blocks(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "loadtxt", spy)
            assert _outcome(_read_csv, path) == _outcome(_read_cells, path)
        # the blank line is skipped; every other odd line went to numpy, and most plain ones not
        assert {odd[5], odd[12], odd[20], "30,1,2\n"} <= set(handed)
        assert len(handed) < len(lines) / 2


class TestExactPathGuards:
    """The CLI's own files take the exact paths; numpy's parser and "%.17g" read and write alike."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("chain")
        panel, model, pred = (directory / name for name in ("panel.csv", "model.json",
                                                            "pred.csv"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--out", str(panel), "--n", "30", "--days", "60",
                         "--seed", "1"]) == 0
            assert main(["fit", "--data", str(panel), "--model-out", str(model),
                         "--panel-size", "5", "--lbound=-1", "--alpha", "1",
                         "--transform", "reciprocal", "--train", "0.6", "--val", "0.2"]) == 0
            assert main(["predict", "--data", str(panel), "--model", str(model),
                         "--out", str(pred), "--cumulative"]) == 0
        return panel, pred

    def test_gen_and_predict_files_need_no_numpy_parser(self, files):
        for path in files:
            assert _exact_outcome(path) == _outcome(_read_cells, path), path.name

    def test_numpys_parser_reads_them_alike(self, files):
        for path in files:
            expected = _exact_outcome(path)
            with _without_exact_path():
                assert _outcome(_read_numeric, path) == expected, path.name

    def test_the_format_string_writes_them_alike(self, files, tmp_path):
        for path in files:
            header, columns = _read_csv(path)
            again = tmp_path / path.name
            with _without_exact_path():
                dataio._write_series(again, dataio._infer_grid(columns[0], path), header[1:],
                                     [columns[1:]])
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_few_of_a_gen_panels_cells_reach_the_format_string(self, files, tmp_path):
        # a silent fall back to "%.17g" would still write the same bytes, only slower
        family, _ = read_panel_csv(files[0])
        with _formatted_cells() as cells:
            write_panel_csv(family, tmp_path / "p.csv")
        assert (tmp_path / "p.csv").read_bytes() == files[0].read_bytes()
        assert len(cells) < 0.05 * (family.values.size + family.grid.count)


class TestExactGridStep:
    """A grid step reads back as one whose times are the file's, where one is near."""

    @pytest.mark.parametrize("step", [0.1, 1 / 3, 1e-3], ids=["0.1", "1/3", "1e-3"])
    @pytest.mark.parametrize("start", [0.0, 0.1, -7.3])
    def test_near_zero_a_step_reads_back_as_written(self, tmp_path, start, step):
        grid = TimeGrid(start, step, 365)
        write_panel_csv(Family(grid, (Series("a", np.arange(365.0)),)), tmp_path / "p.csv")
        data, _ = read_panel_csv(tmp_path / "p.csv")
        assert data.grid == grid

    @pytest.mark.parametrize("step", [0.1, 1 / 3, 1e-3], ids=["0.1", "1/3", "1e-3"])
    @pytest.mark.parametrize("start", [1e3, 1e6, 1e9])
    def test_far_from_zero_a_step_gives_the_times_back_or_is_their_mean(self, tmp_path,
                                                                        start, step):
        grid = TimeGrid(start, step, 365)
        write_panel_csv(Family(grid, (Series("a", np.arange(365.0)),)), tmp_path / "p.csv")
        data, _ = read_panel_csv(tmp_path / "p.csv")
        times = grid.times()
        assert (data.grid.start, data.grid.count) == (start, 365)
        assert (data.grid.times().tobytes() == times.tobytes()
                or data.grid.step == (times[-1] - times[0]) / 364)

    @pytest.mark.parametrize("grid, step", [(TimeGrid(-1e308, 1e307, 3), 1e307),
                                            (TimeGrid(1e300, 1e290, 5), 9.999999114857262e+289)],
                             ids=["-1e308", "1e300"])
    def test_at_the_ends_of_the_float_range(self, tmp_path, grid, step):
        # the second grid's times are those of a step 8.9e-8 off its own, which
        # is not near: a step near their mean gives them back
        write_panel_csv(Family(grid, (Series("a", np.arange(grid.count + 0.0)),)),
                        tmp_path / "p.csv")
        data, _ = read_panel_csv(tmp_path / "p.csv")
        assert data.grid.step == step
        assert data.grid.times().tobytes() == grid.times().tobytes()

    def test_an_integer_step_is_the_mean_as_before(self, tmp_path):
        # and so is every step of gen's files, 1
        path = _write(tmp_path / "p.csv", "t,a\n3,1\n5,2\n7,3\n")
        assert read_panel_csv(path)[0].grid == TimeGrid(3.0, 2.0, 3)


def test_the_line_count_is_that_of_the_text_reader(tmp_path):
    # a "\r\n" across the count's 1 MiB chunks ends one line, and a last
    # line needs no line end
    path = tmp_path / "p.csv"
    path.write_bytes(b"t" * ((1 << 20) - 1) + b"\r\n0\r\r\n\n1")
    with path.open(newline="") as fh:
        assert dataio._count_lines(path) == len(fh.readlines()) == 5


def _peak_bytes(call) -> int:
    """The most memory that ``call()`` holds at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPanelFileMemory:
    """A panel file is parsed straight into its member matrix and written from it."""

    @pytest.fixture(scope="class")
    def family(self):
        spec = GenSpec(n_series=1000, days=365, archetypes=2, noise_sd=0.05, seed=3)
        family, _ = generate(spec)
        return family

    def test_reading_holds_about_one_copy_of_the_panel(self, tmp_path, family):
        # the matrix is the file's one copy; a full-size table of parsed rows
        # beside it would take all of its bytes again
        path = tmp_path / "p.csv"
        write_panel_csv(family, path)
        assert _peak_bytes(lambda: read_panel_csv(path)) < 1.5 * family.values.nbytes

    def test_a_trailing_target_column_costs_no_copy_of_the_members(self, tmp_path, family):
        # the writer puts the target last, where the members are a view of
        # the parsed matrix; copying them out would take all of its bytes again
        plain, with_target = tmp_path / "p.csv", tmp_path / "t.csv"
        write_panel_csv(family, plain)
        write_panel_csv(family, with_target, target=aggregate_target(family))
        without = _peak_bytes(lambda: read_panel_csv(plain))
        assert _peak_bytes(lambda: read_panel_csv(with_target)) < 1.1 * without

    def test_writing_holds_no_full_size_table(self, tmp_path, family):
        peak = _peak_bytes(lambda: write_panel_csv(family, tmp_path / "p.csv"))
        assert peak < 0.5 * family.values.nbytes


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
            ("config", "panel_size", 2**63),  # past sys.maxsize
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
