"""Smoke test of the benchmark at the smallest sizes (a minute or less).

Runs every workload of BENCHMARK.json untraced and traced on tiny panels and
checks that every named metric is emitted with its unit and that no op
failed. It is kept out of the default pytest collection because it starts many processes;
run it with either of

    python3 bench/smoke.py
    python -m pytest -q bench/smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_emitted_and_no_op_fails():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload["name"], trace)
            assert proc.returncode == 0, proc.stderr
            *_, report_line, result_line = proc.stdout.splitlines()
            result = json.loads(result_line)
            report = json.loads(report_line)["report"]
            where = f"{workload['name']} trace {trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, where
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (where, name)
                assert math.isfinite(m["value"]), (where, name)
            assert result["correct"] and result["failed"] == 0, (where, report["failures"])
            assert result["attempted"] >= 1, where
            assert report["failed_ops_frac"] == 0, where
            assert report["seed"] == 3, where


if __name__ == "__main__":
    test_every_metric_emitted_and_no_op_fails()
    print("smoke: ok")
