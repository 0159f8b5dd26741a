"""Byte-for-byte text of every file the CLI writes, for one tiny fixed input.

The input is chosen so that every number written is exact or one correctly
rounded division or square root of exact values: members "a" and "b" are
0/1 indicators with disjoint support, the target is 2a + 3b plus a bump
orthogonal to both, and "c" (never selected) holds values that need all 17
significant digits. So the texts below do not depend on summation order.
"""

import numpy as np

from panelboost import Family, Series, TimeGrid, write_panel_csv
from panelboost.cli import main

PANEL = """\
t,a,"b ""x"", y",c,__target__
10,1,0,0.10000000000000001,2.5
10.5,1,0,0.33333333333333331,1.5
11,0,1,0.2857142857142857,3
11.5,0,1,3.1415926535897931,3
12,1,0,-0,2
12.5,1,0,1e-300,2
13,0,1,123456.789,3.5
13.5,0,1,-5.5,2.5
"""

PREDICTION = """\
t,__prediction__,__cumulative__
10,2,1
10.5,2,2
11,3,3.5
11.5,3,5
12,2,6
12.5,2,7
13,3,8.5
13.5,3,10
"""

EVAL_REPORT = """\
rmse,mae,pearson,psi,cumulative_abs_error
0.35355339059327379,0.25,0.81649658092772615,0.52171769238834886,0
"""

SWEEP_REPORT = """\
panel_size,lbound,alpha,transform,error,stopped_early,\
train_rmse,train_mae,train_pearson,train_psi,train_cumulative_abs_error,\
val_rmse,val_mae,val_pearson,val_psi,val_cumulative_abs_error,best
1,-1,1,reciprocal,,0,1.4577379737113252,1,0.81649658092772603,4.2717176923883491,2,2,2,,nan,2,0
1,-1,1,witch,,0,1.4577379737113252,1,0.81649658092772603,4.3499999999999996,2,2,2,,nan,2,0
1,-1,0.5,reciprocal,,0,1.8027756377319946,1.75,0.81649658092772603,6.5217176923883491,3.5,2,2,,nan,2,0
1,-1,0.5,witch,,0,1.8027756377319946,1.75,0.81649658092772603,6.5999999999999996,3.5,2,2,,nan,2,0
1,1,1,reciprocal,NoAdmissibleMember,0,,,,,,,,,,,0
1,1,1,witch,NoAdmissibleMember,0,,,,,,,,,,,0
1,1,0.5,reciprocal,NoAdmissibleMember,0,,,,,,,,,,,0
1,1,0.5,witch,NoAdmissibleMember,0,,,,,,,,,,,0
2,-1,1,reciprocal,,0,0.35355339059327379,0.25,0.81649658092772615,0.27171769238834886,0,0,0,,nan,0,1
2,-1,1,witch,,0,0.35355339059327379,0.25,0.81649658092772615,0.34999999999999987,0,0,0,,nan,0,0
2,-1,0.5,reciprocal,,0,1.3228756555322954,1.25,0.81649658092772615,3.5217176923883491,2.5,1,1,,nan,1,0
2,-1,0.5,witch,,0,1.3228756555322954,1.25,0.81649658092772615,3.5999999999999996,2.5,1,1,,nan,1,0
2,1,1,reciprocal,NoAdmissibleMember,0,,,,,,,,,,,0
2,1,1,witch,NoAdmissibleMember,0,,,,,,,,,,,0
2,1,0.5,reciprocal,NoAdmissibleMember,0,,,,,,,,,,,0
2,1,0.5,witch,NoAdmissibleMember,0,,,,,,,,,,,0
"""

# created_at records the time of writing, so its line is left out
MODEL = """\
{
  "format_version": 1,
  "grid": {
    "start": 10.0,
    "step": 0.5,
    "count": 8
  },
  "config": {
    "panel_size": 2,
    "lbound": -1.0,
    "alpha": 1.0,
    "transform": "reciprocal",
    "with_replacement": false
  },
  "terms": [
    {
      "member_id": "b \\"x\\", y",
      "weight": 3.0,
      "raw_rho": 3.0,
      "score": 0.8164965809277261,
      "iteration": 0
    },
    {
      "member_id": "a",
      "weight": 2.0,
      "raw_rho": 2.0,
      "score": 0.9428090415820635,
      "iteration": 1
    }
  ],
  "provenance": {
    "input_digest": "sha256:435f92781947130372d0f3c83856672343193a2be677c18f0e4da4096967f137",
  }
}
"""


def _write_input(path):
    a = np.array([1.0, 1, 0, 0, 1, 1, 0, 0])
    b = 1 - a
    c = np.array([0.1, 1 / 3, 2 / 7, np.pi, -0.0, 1e-300, 123456.789, -5.5])
    bump = np.array([0.5, -0.5, 0, 0, 0, 0, 0.5, -0.5])
    members = (Series("a", a), Series('b "x", y', b), Series("c", c))
    family = Family(TimeGrid(10.0, 0.5, 8), members)
    write_panel_csv(family, path, target=Series("__target__", 2 * a + 3 * b + bump))


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_every_output_file_is_pinned(tmp_path):
    panel, model, pred = tmp_path / "panel.csv", tmp_path / "model.json", tmp_path / "pred.csv"
    evaluation, sweep = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    _write_input(panel)
    commands = [
        ["fit", "--data", str(panel), "--model-out", str(model), "--panel-size", "2",
         "--lbound=-1", "--alpha", "1", "--transform", "reciprocal"],
        ["predict", "--data", str(panel), "--model", str(model), "--out", str(pred),
         "--cumulative"],
        ["eval", "--pred", str(pred), "--data", str(panel), "--report", str(evaluation)],
        ["sweep", "--data", str(panel), "--train", "0.5", "--val", "0.25",
         "--panel-sizes", "1,2", "--lbounds=-1,1", "--alphas", "1,0.5",
         "--transforms", "reciprocal,witch", "--report", str(sweep)],
    ]
    for argv in commands:
        assert main(argv) == 0, argv

    assert _read(panel) == PANEL
    assert _read(pred) == PREDICTION
    assert _read(evaluation) == EVAL_REPORT
    assert _read(sweep) == SWEEP_REPORT
    lines = _read(model).splitlines(keepends=True)
    assert sum('"created_at": "' in line for line in lines) == 1
    assert "".join(line for line in lines if '"created_at"' not in line) == MODEL
