"""The panelboost benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 bench/run.py --workload select-wide --seed 3 --seconds 10 --trace 0

Workloads are ``select-wide``, ``sweep-grid`` and ``cli-pipeline`` (see
workloads.py and README.md). The load is a closed loop: one client, one op at
a time, back to back, in a single worker process with one BLAS thread.

run.py starts the worker three times. The first two stop after set-up;
the third also runs the ops. ``setup_s`` is the median of the three set-up
times, each measured from the moment the worker process is started to the
end of its untimed warm-up op. All correctness checks run here, after the
worker has exited: library results are compared with the independent numpy
reference in oracle.py, CLI outputs with the same calls made in process.

Output: one report line (JSON with ``"report"``: seeds, environment, op
counts, the tail percentile, per-module self time) and, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, taken from the spans of a traced run. The report and spans
are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread here too, set before numpy is first imported
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402
from speed import REFERENCE_S, calibrate, normalize
from worker import metrics_doc, sweep_doc, terms_doc
from workloads import (
    CLI_COMMANDS,
    CLI_SWEEP_GRID,
    FIT_CONFIG,
    NOISE_SD,
    SWEEP_GRID,
    TRAIN_FRACTION,
    VAL_FRACTION,
    WORKLOADS,
    cli_pass_workload,
    workload,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170  # the whole run, all workers included
TAIL_BEYOND = 10
TAIL_MIN_PERCENTILE = 90.0  # quantiles(n=10) below gives this rank

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB",
    **{f"cli_{c}_s": "s" for c in CLI_COMMANDS},
}

PER_LAYER_UNITS = {
    "synth.generate_s": "s",
    "series.restrict_family_s": "s",
    "series.family_build_s": "s",
    "series.aggregate_target_s": "s",
    "functional.pearson_us": "us",
    "functional.argmin_rho_us": "us",
    "functional.psi_us": "us",
    "boost.fit_s": "s",
    "boost.iterations": "count",
    "boost.candidates_scored": "count",
    "boost.select_step_s": "s",
    "boost.select_step_cand_us": "us",
    "boost.fit_self_s": "s",
    "boost.accept_frac": "ratio",
    "boost.panel_bytes": "B",
    "boost.bytes_per_fit": "B",
    "boost.predict_us": "us",
    "modelsel.sweep_s": "s",
    "modelsel.cells_per_s": "1/s",
    "modelsel.error_rows": "count",
    "modelsel.early_stop_rows": "count",
    "modelsel.evaluate_us": "us",
    "modelsel.cumulative_us": "us",
    "dataio.read_panel_csv_s": "s",
    "dataio.read_panel_mb_per_s": "MB/s",
    "dataio.write_panel_csv_s": "s",
    "dataio.write_panel_mb_per_s": "MB/s",
    "dataio.read_prediction_csv_s": "s",
    "dataio.write_prediction_csv_s": "s",
    "dataio.read_model_s": "s",
    "dataio.write_model_s": "s",
    "dataio.file_digest_s": "s",
    "dataio.write_sweep_report_s": "s",
    "dataio.write_eval_report_s": "s",
    "dataio.bytes_read": "B",
    "dataio.bytes_written": "B",
    "cli.startup_s": "s",
    **{f"cli.{c}.overhead_s": "s" for c in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def start_worker(args, work: Path, index: int, setup_only: bool,
                 deadline: float) -> tuple[float, list, dict]:
    """Run one worker process; returns its raw set-up time, the calibration
    kernel times around it, and the worker's record.

    The worker runs in its own process group, so that on timeout the CLI
    processes it started are killed with it.
    """
    out = work / f"worker{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--work-dir", str(work / f"w{index}"), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    kernel = calibrate()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{stderr}")
    record = json.loads(out.read_text())
    return record["setup_end"] - spawned, [kernel, record["setup_kernel"]], record


# ------------------------------------------------------------- statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND ops beyond it, but never
    below TAIL_MIN_PERCENTILE.

    Returns (value, percentile, ops beyond). A run of fewer than 100 ops
    has no such rank, so there the 90th percentile is interpolated between
    neighbouring ops. Either way the rank compared between two versions of
    the program does not move with how many ops they complete.
    """
    ordered = sorted(values)
    if len(ordered) == 1:  # every other op failed
        return ordered[0], 100.0, 0
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank from the fastest
    percentile = 100.0 * rank / len(ordered)
    if percentile >= TAIL_MIN_PERCENTILE:
        return ordered[rank - 1], percentile, TAIL_BEYOND
    value = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    return value, TAIL_MIN_PERCENTILE, sum(v > value for v in ordered)


# ---------------------------------------------------------------- checks


class Checker:
    """Compares every op's output with references computed here, untimed.

    Library ops are compared with the oracle. CLI chains are compared with
    the same library calls made in this process, and those in-process
    results are compared with the oracle once per run.
    """

    def __init__(self, pb, oracle, wl, cli_wl, gen_seeds):
        self.pb, self.o, self.wl = pb, oracle, wl
        self.inputs = [self.load(wl, s) for s in gen_seeds]
        # the panel every CLI chain of the run generates
        self.cli_input = self.inputs[0] if cli_wl == wl else self.load(cli_wl, gen_seeds[0])
        self.verified_digests: set[str] = set()
        self.sweep_refs: dict[int, dict] = {}

    def load(self, wl, gen_seed: int) -> dict:
        pb = self.pb
        family, target = pb.generate(pb.GenSpec(wl.members, wl.days, wl.archetypes,
                                                NOISE_SD, gen_seed))
        return {"family": family, "target": target,
                "X": np.array([m.values for m in family.members]),
                "y": np.array(target.values), "ids": [m.id for m in family.members],
                "step": family.grid.step}

    def oracle_fit(self, inp: dict, rows: range) -> tuple:
        f = self.o.fit(inp["X"][:, rows.start:rows.stop], inp["y"][rows.start:rows.stop],
                       FIT_CONFIG["panel_size"], FIT_CONFIG["lbound"], FIT_CONFIG["alpha"])
        return f, [{"member_id": inp["ids"][t.member], "weight": t.weight,
                    "raw_rho": t.raw_rho, "score": t.score} for t in f.terms]

    def sweep_scales(self, inp: dict) -> dict:
        tr, va, _ = self.o.split_ranges(len(inp["y"]), TRAIN_FRACTION, VAL_FRACTION)
        return {"train": self.o.metric_scales(inp["y"][tr.start:tr.stop], inp["step"]),
                "val": self.o.metric_scales(inp["y"][va.start:va.stop], inp["step"])}

    # library ops --------------------------------------------------------

    @functools.cached_property
    def select_wide_ref(self) -> dict:
        o, inp = self.o, self.inputs[0]
        tr, _, te = o.split_ranges(len(inp["y"]), TRAIN_FRACTION, VAL_FRACTION)
        f, terms = self.oracle_fit(inp, tr)
        y_test = inp["y"][te.start:te.stop]
        return {
            "terms": terms,
            "stopped_early": f.stopped_early,
            "test": o.metrics(o.predict(inp["X"][:, te.start:te.stop], f.terms), y_test,
                              FIT_CONFIG["transform"], inp["step"]),
            "scales": o.metric_scales(y_test, inp["step"]),
        }

    def sweep_ref(self, panel: int) -> dict:
        if panel not in self.sweep_refs:
            inp = self.inputs[panel]
            rows, best = self.o.sweep(inp["X"], inp["y"], inp["step"], TRAIN_FRACTION,
                                      VAL_FRACTION, SWEEP_GRID)
            self.sweep_refs[panel] = {"rows": rows, "best": best,
                                      "scales": self.sweep_scales(inp)}
        return self.sweep_refs[panel]

    def check_op(self, op: dict) -> list[str]:
        o, out = self.o, op["output"]
        if self.wl.name == "select-wide":
            ref = self.select_wide_ref
            errors = o.compare_terms(out["terms"], ref["terms"], "fit")
            if out["stopped_early"] != ref["stopped_early"]:
                errors.append(f"fit.stopped_early: {out['stopped_early']}")
            return errors + o.compare_metrics(out["test"], ref["test"], ref["scales"], "test")
        if self.wl.name == "sweep-grid":
            ref = self.sweep_ref(op["panel"])
            return o.compare_sweep(out["rows"], out["best"], ref["rows"], ref["best"],
                                   ref["scales"], "sweep")
        return self.check_chain(out)

    # CLI chains ---------------------------------------------------------

    @functools.cached_property
    def chain_ref(self) -> dict:
        """In-process results of the chain's library calls, checked against the oracle."""
        pb, o, inp = self.pb, self.o, self.cli_input
        family, target, step = inp["family"], inp["target"], inp["step"]
        split = pb.SplitSpec(TRAIN_FRACTION, VAL_FRACTION)
        train, _, _ = pb.split(family.grid, split)
        config = pb.BoostConfig(FIT_CONFIG["panel_size"],
                                pb.TransformKind(FIT_CONFIG["transform"]),
                                FIT_CONFIG["lbound"], FIT_CONFIG["alpha"])
        model, _ = pb.fit(pb.restrict_family(family, train), pb.restrict(target, train), config)
        prediction = pb.predict(model, family)
        metrics = pb.evaluate(prediction, target, pb.TransformKind.RECIPROCAL, step)
        grid = pb.SweepGrid(CLI_SWEEP_GRID["panel_sizes"], CLI_SWEEP_GRID["lbounds"],
                            CLI_SWEEP_GRID["alphas"],
                            tuple(pb.TransformKind(k) for k in CLI_SWEEP_GRID["transforms"]))
        result = pb.sweep(family, target, split, grid)
        ref = {
            "terms": terms_doc(model),
            "n_train": len(train),
            "prediction": np.array(prediction.values),
            "cumulative": np.array(pb.cumulative(prediction, step).values),
            "eval": metrics_doc(metrics),
            "eval_scales": o.metric_scales(inp["y"], step),
            **sweep_doc(result),
            "sweep_scales": self.sweep_scales(inp),
        }
        f, want_terms = self.oracle_fit(inp, train)
        want_pred = o.predict(inp["X"], f.terms)
        o_rows, o_best = o.sweep(inp["X"], inp["y"], step, TRAIN_FRACTION, VAL_FRACTION,
                                 CLI_SWEEP_GRID)
        ref["errors"] = (
            o.compare_terms(ref["terms"], want_terms, "in-process fit")
            + self.compare_vector(ref["prediction"], want_pred, "in-process predict")
            + self.compare_vector(ref["cumulative"], np.cumsum(want_pred) * step,
                                  "in-process cumulative")
            + o.compare_metrics(ref["eval"], o.metrics(want_pred, inp["y"], "reciprocal", step),
                                ref["eval_scales"], "in-process evaluate")
            + o.compare_sweep(ref["rows"], ref["best"], o_rows, o_best,
                              ref["sweep_scales"], "in-process sweep")
        )
        return ref

    def compare_vector(self, got, want, where: str) -> list[str]:
        got, want = np.asarray(got), np.asarray(want)
        if got.shape != want.shape:
            return [f"{where}: shape {got.shape} != {want.shape}"]
        scale = np.abs(want).max(axis=0)
        bad = np.abs(got - want) > self.o.RTOL * np.maximum(
            np.maximum(np.abs(got), np.abs(want)), scale)
        return [f"{where}: {int(bad.sum())} values differ"] if bad.any() else []

    def check_panel_csv(self, path: Path, inp: dict) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest in self.verified_digests:
            return []
        ids, data = self.o.read_panel(path)
        if ids != inp["ids"]:
            return ["gen: member ids differ from generate()"]
        errors = (self.compare_vector(data[:, 0], inp["family"].grid.times(), "gen: t column")
                  + self.compare_vector(data[:, 1:], inp["X"].T, "gen: values"))
        if not errors:
            self.verified_digests.add(digest)
        return errors

    def check_chain(self, out: dict) -> list[str]:
        o = self.o
        errors = [f"cli {cmd}: exit {out['codes'][cmd]}: {out['stderr'][cmd].strip()[:200]}"
                  for cmd in CLI_COMMANDS
                  if out["codes"][cmd] != 0 or "error:" in out["stderr"][cmd]]
        if errors:
            return errors
        d = Path(out["dir"])
        ref = self.chain_ref
        errors = list(ref["errors"])
        errors += self.check_panel_csv(d / "panel.csv", self.cli_input)
        doc = json.loads((d / "model.json").read_text(encoding="utf-8"))
        errors += o.compare_terms(doc["terms"], ref["terms"], "cli fit")
        if doc["grid"]["count"] != ref["n_train"]:
            errors.append(f"cli fit: grid count {doc['grid']['count']} != {ref['n_train']}")
        _, pred = o.read_panel(d / "pred.csv")
        errors += self.compare_vector(pred[:, 1], ref["prediction"], "cli predict")
        errors += self.compare_vector(pred[:, 2], ref["cumulative"], "cli predict cumulative")
        errors += o.compare_metrics(o.read_eval_report(d / "eval.csv"), ref["eval"],
                                    ref["eval_scales"], "cli eval")
        rows, best = o.read_sweep_report(d / "sweep.csv")
        errors += o.compare_sweep(rows, best, ref["rows"], ref["best"],
                                  ref["sweep_scales"], "cli sweep")
        return errors


# ------------------------------------------------------------- metrics


def end_to_end(wl, setups: list[tuple[float, list]], record: dict) -> tuple[dict, dict]:
    """End-to-end metrics, every time normalized to the reference speed.

    The same metrics from raw wall times, and the host's speed factor, go
    into the report.
    """
    ops = record["ops"]
    if wl.name == "cli-pipeline":
        chains = [op["output"] for op in ops]
        rss_kb = record["rss_children_kb"]
    else:
        chains = record["cli_pass"]
        rss_kb = record["rss_self_kb"]
    # (raw, normalized) pairs
    samples = {
        "setup_s": [(raw, normalize(raw, k)) for raw, k in setups],
        **{f"cli_{cmd}_s": [(c["walls"][cmd], normalize(c["walls"][cmd], c["kernels"][cmd]))
                            for c in chains]
           for cmd in CLI_COMMANDS},
    }
    if wl.name == "cli-pipeline":
        # a chain is normalized command by command; calibration between
        # commands is not part of the op
        samples["op"] = [
            (sum(c["walls"].values()),
             sum(normalize(c["walls"][cmd], c["kernels"][cmd]) for cmd in CLI_COMMANDS))
            for c in chains]
    else:
        samples["op"] = [(op["wall"], normalize(op["wall"], op["kernel"])) for op in ops]

    def summarize(scaled: bool) -> dict:
        values = {name: [pair[scaled] for pair in pairs] for name, pairs in samples.items()}
        out = {"setup_s": statistics.median(values["setup_s"]),
               "op_p50_s": statistics.median(values["op"]),
               "op_tail_s": tail(values["op"])[0],
               "peak_rss_mb": rss_kb * 1024 / 1e6}
        out.update({f"cli_{cmd}_s": statistics.median(values[f"cli_{cmd}_s"])
                    for cmd in CLI_COMMANDS})
        return out

    _, percentile, beyond = tail([op["wall"] for op in ops])
    kernels = ([k for _, pair in setups for k in pair]
               + [k for op in ops for k in op["kernel"]]
               + [k for c in chains for pair in c["kernels"].values() for k in pair])
    extra = {"ops": len(ops), "op_s": [pair[1] for pair in samples["op"]],
             "op_tail_percentile": percentile,
             "op_tail_ops_beyond": beyond, "cli_chains": len(chains),
             "speed_factor": statistics.median(REFERENCE_S / k for k in kernels),
             "raw": summarize(scaled=False)}
    return summarize(scaled=True), extra


def per_layer(wl, record: dict) -> tuple[dict, dict]:
    from tracing import module_self_times

    spans = record["spans"]
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def pick(name):
        own = [s for s in spans
               if s["name"] == name and not str(s["op"]).startswith("cli-pass")]
        chosen = own or [s for s in spans if s["name"] == name]
        if not chosen:
            raise RuntimeError(f"traced run recorded no {name!r} span")
        return chosen

    def med(name, scale=1.0):
        return statistics.median(dur(s) for s in pick(name)) * scale

    def per_call_us(name):
        return statistics.median(dur(s) / s["calls"] for s in pick(name)) * 1e6

    m = {
        "synth.generate_s": med("synth.generate"),
        "series.restrict_family_s": med("series.restrict_family"),
        "series.family_build_s": med("series.family_build"),
        "series.aggregate_target_s": med("series.aggregate_target"),
        "functional.pearson_us": per_call_us("functional.pearson"),
        "functional.argmin_rho_us": per_call_us("functional.argmin_rho"),
        "functional.psi_us": per_call_us("functional.psi"),
    }

    # boost: each fit span with the select_step replay that walked its path
    replays = {s["ref"]: s for s in spans if s["name"] == "bench.replay.fit"}
    steps: dict[int, list] = {}
    for s in spans:
        if s["name"] == "boost.select_step":
            steps.setdefault(s["parent"], []).append(s)
    fits = []
    for f in pick("boost.fit"):
        root = replays[f["id"]]
        mine = steps.get(root["id"], [])
        fits.append({"fit": dur(f), "select": sum(dur(s) for s in mine),
                     "candidates": sum(s["candidates"] for s in mine),
                     "iterations": len(mine), "accepted": root["accepted"]})
    n_train = math.floor(TRAIN_FRACTION * wl.days)
    candidates = sum(f["candidates"] for f in fits)
    mean_candidates = candidates / len(fits)
    m.update({
        "boost.fit_s": statistics.median(f["fit"] for f in fits),
        "boost.iterations": statistics.mean(f["iterations"] for f in fits),
        "boost.candidates_scored": mean_candidates,
        "boost.select_step_s": statistics.median(f["select"] for f in fits),
        "boost.select_step_cand_us": sum(f["select"] for f in fits) / candidates * 1e6,
        "boost.fit_self_s": statistics.median(f["fit"] - f["select"] for f in fits),
        "boost.accept_frac": sum(f["accepted"] for f in fits) / candidates,
        "boost.panel_bytes": wl.members * n_train * 8,
        "boost.bytes_per_fit": mean_candidates * n_train * 8,
        "boost.predict_us": med("boost.predict", 1e6),
    })

    # modelsel: sweep rows come from the op output or from the CLI replay
    ops = {op["index"]: op for op in record["ops"]}
    sweeps = pick("modelsel.sweep")
    rows = []
    for s in sweeps:
        parent = by_id[s["parent"]]
        rows.append(parent["sweep"]["rows"] if "sweep" in parent
                    else ops[s["op"]]["output"]["rows"])
    m.update({
        "modelsel.sweep_s": med("modelsel.sweep"),
        "modelsel.cells_per_s": sum(len(r) for r in rows) / sum(dur(s) for s in sweeps),
        "modelsel.error_rows": statistics.mean(
            sum(1 for row in r if row["error"]) for r in rows),
        "modelsel.early_stop_rows": statistics.mean(
            sum(1 for row in r if row["stopped_early"]) for r in rows),
        "modelsel.evaluate_us": med("modelsel.evaluate", 1e6),
        "modelsel.cumulative_us": med("modelsel.cumulative", 1e6),
    })

    # dataio
    reads, writes = pick("dataio.read_panel_csv"), pick("dataio.write_panel_csv")
    chains = pick("bench.replay.cli")
    m.update({
        "dataio.read_panel_csv_s": med("dataio.read_panel_csv"),
        "dataio.read_panel_mb_per_s": sum(s["bytes"] for s in reads)
        / sum(dur(s) for s in reads) / 1e6,
        "dataio.write_panel_csv_s": med("dataio.write_panel_csv"),
        "dataio.write_panel_mb_per_s": sum(s["bytes"] for s in writes)
        / sum(dur(s) for s in writes) / 1e6,
    })
    for name in ("read_prediction_csv", "write_prediction_csv", "read_model", "write_model",
                 "file_digest", "write_sweep_report", "write_eval_report"):
        m[f"dataio.{name}_s"] = med(f"dataio.{name}")
    m["dataio.bytes_read"] = statistics.mean(s["bytes_read"] for s in chains)
    m["dataio.bytes_written"] = statistics.mean(s["bytes_written"] for s in chains)

    # cli: command wall time minus the in-process replay of its library calls
    m["cli.startup_s"] = med("cli.startup")
    for cmd in CLI_COMMANDS:
        replayed = {s["op"]: dur(s) for s in spans if s["name"] == f"bench.replay.cli.{cmd}"}
        m[f"cli.{cmd}.overhead_s"] = statistics.median(
            dur(s) - replayed[s["op"]] for s in pick(f"cli.{cmd}") if s["op"] in replayed)

    traced = [normalize(op["wall"], op["kernel"]) for op in record["ops"] if op["traced"]]
    untraced = [normalize(op["wall"], op["kernel"]) for op in record["ops"] if not op["traced"]]
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    kernels = [k for op in record["ops"] for k in op["kernel"]]
    extra = {"module_self_s": module_self_times(spans), "fits_traced": len(fits),
             "speed_factor": statistics.median(REFERENCE_S / k for k in kernels),
             "ops": len(record["ops"])}
    return m, extra


# ----------------------------------------------------------- environment


def environment(blas_threads, cpu: int, scale: str) -> dict:
    cpu_model = None
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = {
                "size": (index / "size").read_text().strip(),
                "shared_cpu_list": (index / "shared_cpu_list").read_text().strip(),
            }
    l2 = caches.get("L2", {}).get("size", "")
    l2_bytes = int(l2[:-1]) * 1024 if l2.endswith("K") else None
    regimes = {}
    for name in WORKLOADS:
        wl = workload(name, scale)
        panel_bytes = wl.members * math.floor(TRAIN_FRACTION * wl.days) * 8
        regimes[name] = {
            "boost.panel_bytes (computed)": panel_bytes,
            "vs_L2": None if l2_bytes is None else
            ("exceeds L2" if panel_bytes > l2_bytes else "fits in L2"),
        }
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "cache_regime": regimes,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# ------------------------------------------------------------------ main


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny panels, used by smoke.py")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "panelboost" / "__init__.py").is_file():
        print(f"error: {SRC / 'panelboost'} not found; run from a panelboost checkout",
              file=sys.stderr)
        return 2

    # The workers and their CLI children share one CPU with the calibration
    # kernel, so each interval is scaled by the speed of the CPU it ran on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import oracle
    import panelboost

    wl = workload(args.workload, args.scale)
    work = HERE / "work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            seconds, kernels, record = start_worker(args, work, i, i < SETUP_SAMPLES - 1,
                                                    started + RUN_DEADLINE_S)
            setups.append((seconds, kernels))

        checker = Checker(panelboost, oracle, wl, cli_pass_workload(wl.name, args.scale),
                          record["gen_seeds"])
        failed: dict = {}
        for op in record["ops"]:
            errors = [op["error"]] if "error" in op else checker.check_op(op)
            if errors:
                failed[op["index"]] = errors
        units = [op["index"] for op in record["ops"]]
        # timings come from the ops that completed
        record["ops"] = [op for op in record["ops"] if "error" not in op]
        if not record["ops"]:
            raise RuntimeError(f"every op failed: {failed}")
        for k, chain in enumerate(record["cli_pass"]):
            units.append(f"cli-pass{k}")
            errors = checker.check_chain(chain)
            if errors:
                failed[f"cli-pass{k}"] = errors
        for index, message in record["errors"]:
            failed.setdefault(index, []).append(message)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, extra = per_layer(wl, record)
        units_of = PER_LAYER_UNITS
    else:
        metrics, extra = end_to_end(wl, setups, record)
        units_of = END_TO_END
    report = {
        "workload": wl.name, "seed": args.seed, "gen_seeds": record["gen_seeds"],
        "trace": args.trace, "seconds": args.seconds, "scale": args.scale,
        "shape": {"members": wl.members, "days": wl.days, "archetypes": wl.archetypes,
                  "panels": wl.panels},
        "op": wl.op,
        "attempted": len(units), "failed": len(failed),
        "failed_ops_frac": len(failed) / len(units),
        "failures": {str(k): v[:5] for k, v in list(failed.items())[:10]},
        **extra,
        "env": environment(record["blas_threads"], cpu, args.scale),
    }
    result = {
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    saved = {"report": report, "result": result}
    if args.trace:
        saved["spans"] = record["spans"]
    (out_dir / f"{stem}.json").write_text(json.dumps(saved))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
