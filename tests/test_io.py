import json

import numpy as np
import pytest

from panelboost import (
    BoostConfig,
    DuplicateId,
    Family,
    GenSpec,
    IrregularGrid,
    MissingValue,
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
