import csv
import json
import os

import numpy as np
import pytest

from panelboost.cli import main


def _gen(tmp_path, name="panel.csv", n=6, days=40, archetypes=2, noise=0.05, seed=11):
    data = tmp_path / name
    code = main(
        [
            "gen",
            "--out", str(data),
            "--n", str(n),
            "--days", str(days),
            "--archetypes", str(archetypes),
            "--noise", str(noise),
            "--seed", str(seed),
        ]
    )
    assert code == 0
    return data


def _fit(tmp_path, data, name="model.json", panel_size=3, lbound=-1.0, alpha=1.0,
         transform="reciprocal", extra=()):
    model = tmp_path / name
    code = main(
        [
            "fit",
            "--data", str(data),
            "--model-out", str(model),
            "--panel-size", str(panel_size),
            "--lbound", str(lbound),
            "--alpha", str(alpha),
            "--transform", transform,
            *extra,
        ]
    )
    return code, model


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestPipeline:
    def test_gen_fit_predict_eval(self, tmp_path):
        data = _gen(tmp_path)
        code, model = _fit(tmp_path, data)
        assert code == 0
        assert model.exists()

        pred = tmp_path / "pred.csv"
        assert main(["predict", "--data", str(data), "--model", str(model),
                     "--out", str(pred)]) == 0
        rows = _rows(pred)
        assert rows[0] == ["t", "__prediction__"]
        assert len(rows) - 1 == 40  # one data row per input sample

        report = tmp_path / "eval.csv"
        assert main(["eval", "--pred", str(pred), "--data", str(data),
                     "--report", str(report)]) == 0
        header, values = _rows(report)
        assert header == ["rmse", "mae", "pearson", "psi", "cumulative_abs_error"]
        assert float(values[0]) >= 0.0

    def test_predict_with_cumulative(self, tmp_path):
        data = _gen(tmp_path)
        _, model = _fit(tmp_path, data)
        pred = tmp_path / "pred.csv"
        assert main(["predict", "--data", str(data), "--model", str(model),
                     "--out", str(pred), "--cumulative"]) == 0
        rows = _rows(pred)
        assert rows[0] == ["t", "__prediction__", "__cumulative__"]
        # the cumulative column is the running sum of the prediction column
        preds = [float(r[1]) for r in rows[1:]]
        cums = [float(r[2]) for r in rows[1:]]
        np.testing.assert_allclose(cums, np.cumsum(preds), rtol=1e-12)

    def test_pipeline_is_reproducible(self, tmp_path):
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            data = _gen(base)
            _, model = _fit(base, data)
            pred = base / "pred.csv"
            main(["predict", "--data", str(data), "--model", str(model), "--out", str(pred)])
            report = base / "eval.csv"
            main(["eval", "--pred", str(pred), "--data", str(data), "--report", str(report)])
            doc = json.loads(model.read_text())
            del doc["provenance"]  # timestamps differ between runs
            outputs.append((data.read_bytes(), pred.read_bytes(), report.read_bytes(), doc))
        assert outputs[0] == outputs[1]


class TestFitCommand:
    def test_invalid_lbound_is_a_usage_error(self, tmp_path):
        data = _gen(tmp_path)
        code, _ = _fit(tmp_path, data, lbound=2.0)
        assert code == 2

    def test_split_flags_must_come_together(self, tmp_path):
        data = _gen(tmp_path)
        code, _ = _fit(tmp_path, data, extra=("--train", "0.6"))
        assert code == 2

    def test_fit_on_train_segment_stores_the_segment_grid(self, tmp_path):
        data = _gen(tmp_path, days=50)
        code, model = _fit(tmp_path, data, extra=("--train", "0.6", "--val", "0.2"))
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["grid"]["count"] == 30

    def test_unreachable_threshold_is_a_runtime_error(self, tmp_path, capsys):
        data = _gen(tmp_path, n=10, noise=2.0, seed=77)
        code, _ = _fit(tmp_path, data, lbound=0.9999999)
        # deterministic data: nothing correlates that strongly after noise
        assert code == 1
        assert "NoAdmissibleMember" in capsys.readouterr().err

    def test_overflowing_members_are_a_runtime_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text(
            "t,a,b,__target__\n0,1e300,2e300,1\n1,-1e300,1e300,2\n2,1e300,-1e300,3\n"
        )
        code, model = _fit(tmp_path, data, panel_size=2, transform="witch")
        assert code == 1
        assert not model.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: NumericOverflow: member 'a': its sum of squares overflows"
        ]

    def test_tiny_values_fit_like_their_scaled_copy(self, tmp_path):
        # centred sums of squares near 1e-200, whose product underflows to 0
        values = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 5.0], [4.0, 2.0, 1.0],
                           [1.0, 5.0, 7.0]]) * 1e-100
        fits = []
        for name, scale in (("tiny", 1.0), ("scaled", 2.0**340)):
            data = tmp_path / f"{name}.csv"
            data.write_text("t,a,b,__target__\n" + "".join(
                f"{t},{','.join(repr(v) for v in (row * scale).tolist())}\n"
                for t, row in enumerate(values)
            ))
            code, model = _fit(tmp_path, data, name=f"{name}.json", panel_size=2,
                               transform="witch")
            assert code == 0
            fits.append(json.loads(model.read_text())["terms"])
        tiny, scaled = fits
        assert [t["member_id"] for t in tiny] == [t["member_id"] for t in scaled]
        assert len(tiny) == 2
        for got, want in zip(tiny, scaled):
            assert got["score"] == pytest.approx(want["score"], abs=1e-12)

    def test_with_replacement_flag(self, tmp_path):
        data = _gen(tmp_path)
        code, model = _fit(tmp_path, data, panel_size=2, alpha=0.3,
                           extra=("--with-replacement",))
        assert code == 0
        assert json.loads(model.read_text())["config"]["with_replacement"] is True


class TestPredictCommand:
    def test_missing_member_fails_with_code(self, tmp_path, capsys):
        data = _gen(tmp_path, n=5, name="full.csv")
        code, model = _fit(tmp_path, data, panel_size=5)
        assert code == 0
        smaller = _gen(tmp_path, n=2, name="small.csv")
        pred = tmp_path / "pred.csv"
        code = main(["predict", "--data", str(smaller), "--model", str(model),
                     "--out", str(pred)])
        assert code == 1
        assert "MissingPanelMember" in capsys.readouterr().err

    def test_nan_weight_model_is_a_data_error(self, tmp_path, capsys):
        data = _gen(tmp_path)
        code, model = _fit(tmp_path, data)
        assert code == 0
        doc = json.loads(model.read_text())
        doc["terms"][0]["weight"] = float("nan")
        model.write_text(json.dumps(doc))
        code = main(["predict", "--data", str(data), "--model", str(model),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight, flags, message",
        [
            (1e307, (), "the prediction overflows"),
            (1e306, ("--cumulative",), "the running integral overflows"),
        ],
        ids=["prediction", "running-integral"],
    )
    def test_overflow_is_a_runtime_error(self, tmp_path, capsys, weight, flags,
                                         message):
        # members between 60 and 150: a weight of 1e307 overflows the
        # prediction, one of 1e306 only its running sum
        data = tmp_path / "panel.csv"
        data.write_text("t,a,b,__target__\n0,60,150,70\n1,150,60,140\n"
                        "2,90,120,100\n3,120,90,110\n")
        code, model = _fit(tmp_path, data, panel_size=1)
        assert code == 0
        doc = json.loads(model.read_text())
        doc["terms"][0]["weight"] = doc["terms"][0]["raw_rho"] = weight
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        pred = tmp_path / "p.csv"
        code = main(["predict", "--data", str(data), "--model", str(model),
                     "--out", str(pred), *flags])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: NumericOverflow: {message}"
        ]
        assert not pred.exists()

    def test_model_file_errors_surface(self, tmp_path, capsys):
        data = _gen(tmp_path)
        bogus = tmp_path / "model.json"
        bogus.write_text("{not json")
        code = main(["predict", "--data", str(data), "--model", str(bogus),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe{}",  # not UTF-8; UnicodeDecodeError is a ValueError
            b"[" * 200_000,  # nested past the parser's recursion limit
            # past int()'s digit limit, which json.loads raises as a plain ValueError
            b'{"format_version": 1, "grid": {"start": ' + b"9" * 5000 + b"}}",
            b"[]",  # valid JSON, but not an object
        ],
        ids=["not-utf8", "deeply-nested", "integer-past-digit-limit", "top-level-array"],
    )
    def test_unreadable_model_file_is_a_parse_error(self, tmp_path, capsys, content):
        data = _gen(tmp_path)
        capsys.readouterr()
        bogus = tmp_path / "model.json"
        bogus.write_bytes(content)
        code = main(["predict", "--data", str(data), "--model", str(bogus),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ")
        assert err.count("\n") == 1


class TestOutputFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
    def test_outputs_get_the_mode_open_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            data = _gen(tmp_path)
            code, model = _fit(tmp_path, data)
            assert code == 0
            pred, report, sweep_report = (tmp_path / n for n in ("p.csv", "e.csv", "s.csv"))
            assert main(["predict", "--data", str(data), "--model", str(model),
                         "--out", str(pred)]) == 0
            assert main(["eval", "--pred", str(pred), "--data", str(data),
                         "--report", str(report)]) == 0
            assert main(["sweep", "--data", str(data), "--train", "0.6", "--val", "0.2",
                         "--panel-sizes", "1", "--lbounds=-1", "--alphas", "1",
                         "--transforms", "reciprocal", "--report", str(sweep_report)]) == 0
        finally:
            os.umask(old)
        for path in (data, model, pred, report, sweep_report):
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            p.name for p in (data, model, pred, report, sweep_report)
        )  # no temp file is left behind


class TestSweepCommand:
    def test_report_layout(self, tmp_path):
        data = _gen(tmp_path, days=60)
        report = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--data", str(data),
                "--train", "0.6",
                "--val", "0.2",
                "--panel-sizes", "1,2,3",
                "--lbounds=-1,0",  # '=' form: a bare '-1,0' parses as a flag
                "--alphas", "1.0",
                "--transforms", "reciprocal,witch",
                "--report", str(report),
            ]
        )
        assert code == 0
        rows = _rows(report)
        assert rows[0][:6] == ["panel_size", "lbound", "alpha", "transform", "error",
                               "stopped_early"]
        assert rows[0][-1] == "best"
        assert len(rows) - 1 == 3 * 2 * 1 * 2
        assert sum(1 for r in rows[1:] if r[-1] == "1") == 1

    def test_bad_transform_name_is_usage_error(self, tmp_path):
        data = _gen(tmp_path)
        code = main(
            [
                "sweep",
                "--data", str(data),
                "--train", "0.6",
                "--val", "0.2",
                "--panel-sizes", "1",
                "--lbounds", "-1",
                "--alphas", "1.0",
                "--transforms", "parabola",
                "--report", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2


class TestUsageErrors:
    def test_unknown_flag(self, tmp_path):
        assert main(["gen", "--out", "x.csv", "--n", "3", "--days", "20",
                     "--frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["gen", "--n", "3"]) == 2

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2

    def test_gen_validation_error(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "x.csv"), "--n", "2",
                     "--days", "20", "--archetypes", "5"]) == 2

    def test_missing_data_file(self, tmp_path, capsys):
        code, _ = _fit(tmp_path, tmp_path / "absent.csv")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestDataErrors:
    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("eval", "t,x\n0,1\n1,2\n", "ParseError: {path}: no '__prediction__' column"),
            ("fit", "t\n0\n1\n2\n",
             "EmptyFamily: {path}: no member columns and no explicit target"),
        ],
        ids=["prediction-without-its-column", "panel-without-members"],
    )
    def test_a_file_without_the_columns_it_needs_exits_1(self, tmp_path, capsys, command,
                                                         text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        if command == "eval":
            data = _gen(tmp_path)
            capsys.readouterr()
            code = main(["eval", "--pred", str(bad), "--data", str(data),
                         "--report", str(tmp_path / "e.csv")])
        else:
            code, _ = _fit(tmp_path, bad)
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message.format(path=bad)}"]
