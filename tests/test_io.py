import functools
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
    PanelBoostError,
    PanelModel,
    PanelTerm,
    ParseError,
    ReservedId,
    Series,
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
