"""One workload run of the benchmark, in a fresh process.

run.py starts this script once per set-up sample. The process imports
panelboost, builds the workload's inputs from the generator seeds, runs one
untimed warm-up op and reports when set-up ended; with ``--setup-only`` it
stops there. Otherwise it runs ops back to back (one client, closed loop)
until ``--seconds`` have passed, the current round of panels is complete and
every panel was timed at least twice. The library workloads then run the
CLI chain on their own panel, or on one of cli-pipeline's shape where theirs
is larger. Results, op outputs and spans go to the
``--out`` JSON file; every correctness check happens later in run.py.

With ``--trace 1`` each loop slot runs the op twice, untraced then traced,
so run.py can report the tracing overhead. After each traced op, and
outside its timed interval, the worker replays what the op did below the
public calls it made:

* every fit is replayed one ``select_step`` at a time along its path (the
  pool minus the accepted members, the residual after each term); the
  replay must pick the same member at every step;
* every sweep is replayed cell by cell through ``fit``, ``predict`` and
  ``evaluate``;
* every CLI command is replayed in process on the same files.

Probes at the end time the scalar functionals at the workload's train
length, ``aggregate_target`` and CLI start-up.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import calibrate
from tracing import Tracer
from workloads import (
    CLI_SWEEP_GRID,
    FIT_CONFIG,
    NOISE_SD,
    SWEEP_GRID,
    TRAIN_FRACTION,
    VAL_FRACTION,
    cli_chain,
    cli_pass_workload,
    workload,
)

MIN_ROUNDS = 2  # every panel is timed at least twice
CLI_PASS_SECONDS = 20.0
CLI_PASS_MAX_CHAINS = 5
PROBE_CALLS = 2000
PROBE_REPEATS = 3
STARTUP_RUNS = 5


class Worker:
    def __init__(self, args, pb):
        self.pb = pb
        self.wl = workload(args.workload, args.scale)
        self.cli_wl = cli_pass_workload(args.workload, args.scale)
        self.seeds = self.wl.gen_seeds(args.seed)
        self.work = Path(args.work_dir)
        self.tr = Tracer(False)
        self.errors: list[list] = []  # [op index, message]
        self.config = pb.BoostConfig(
            panel_size=FIT_CONFIG["panel_size"],
            transform=pb.TransformKind(FIT_CONFIG["transform"]),
            lbound=FIT_CONFIG["lbound"],
            alpha=FIT_CONFIG["alpha"],
        )
        self.split_spec = pb.SplitSpec(TRAIN_FRACTION, VAL_FRACTION)

    def spec(self, gen_seed: int, wl=None):
        wl = wl or self.wl
        return self.pb.GenSpec(wl.members, wl.days, wl.archetypes, NOISE_SD, gen_seed)

    # ------------------------------------------------------------- the ops

    def setup(self) -> None:
        pb, tr = self.pb, self.tr
        name = self.wl.name
        if name == "select-wide":
            with tr.span("synth.generate", "setup"):
                family, target = pb.generate(self.spec(self.seeds[0]))
            train, _, test = pb.split(family.grid, self.split_spec)
            with tr.span("series.restrict_family", "setup"):
                self.f_train = pb.restrict_family(family, train)
            with tr.span("series.restrict_family", "setup"):
                self.f_test = pb.restrict_family(family, test)
            self.t_train = pb.restrict(target, train)
            self.t_test = pb.restrict(target, test)
            self.family = family
        elif name == "sweep-grid":
            self.panels = []
            for gen_seed in self.seeds:
                with tr.span("synth.generate", "setup"):
                    self.panels.append(pb.generate(self.spec(gen_seed)))
            self.grid = self.sweep_grid(SWEEP_GRID)
            self.family = self.panels[0][0]
        self.work.mkdir(parents=True, exist_ok=True)

    def sweep_grid(self, grid: dict):
        pb = self.pb
        return pb.SweepGrid(grid["panel_sizes"], grid["lbounds"], grid["alphas"],
                            tuple(pb.TransformKind(k) for k in grid["transforms"]))

    def op(self, index, panel: int):
        """Run one op; returns what the replay and the output record need."""
        pb, tr = self.pb, self.tr
        name = self.wl.name
        if name == "select-wide":
            with tr.span("boost.fit", index):
                model, _ = pb.fit(self.f_train, self.t_train, self.config)
            with tr.span("boost.predict", index):
                prediction = pb.predict(model, self.f_test)
            with tr.span("modelsel.evaluate", index):
                metrics = pb.evaluate(prediction, self.t_test, self.config.transform,
                                      self.f_test.grid.step)
            return model, metrics
        if name == "sweep-grid":
            family, target = self.panels[panel]
            with tr.span("modelsel.sweep", index):
                return pb.sweep(family, target, self.split_spec, self.grid)
        return self.chain(index, self.work / f"op{index}", self.seeds[0])

    def chain(self, index, directory: Path, gen_seed: int) -> dict:
        """One CLI chain; each command is timed between two calibration runs."""
        directory.mkdir(parents=True, exist_ok=True)
        walls, kernels, codes, stderr = {}, {}, {}, {}
        kernel = calibrate()
        for cmd, argv in cli_chain(self.cli_wl, gen_seed):
            with self.tr.span(f"cli.{cmd}", index):
                start = time.perf_counter()
                proc = subprocess.run([sys.executable, "-m", "panelboost.cli", *argv],
                                      cwd=directory, capture_output=True, text=True)
                walls[cmd] = time.perf_counter() - start
            kernels[cmd] = [kernel, calibrate()]
            kernel = kernels[cmd][1]
            codes[cmd] = proc.returncode
            stderr[cmd] = proc.stderr
        return {"dir": str(directory), "walls": walls, "kernels": kernels, "codes": codes,
                "stderr": stderr}

    def output(self, result) -> dict:
        """Plain-data form of an op's result, for the checks in run.py."""
        name = self.wl.name
        if name == "select-wide":
            model, metrics = result
            return {"terms": terms_doc(model), "stopped_early": model.stopped_early,
                    "test": metrics_doc(metrics)}
        if name == "sweep-grid":
            return sweep_doc(result)
        return result

    # ------------------------------------------------------------ replays

    def replay(self, index, panel: int, result) -> None:
        name = self.wl.name
        if name == "select-wide":
            fit_span = self.last_span("boost.fit")
            self.replay_fit(index, fit_span, self.f_train, self.t_train, self.config, result[0])
        elif name == "sweep-grid":
            family, target = self.panels[panel]
            self.replay_sweep(index, family, target, result)
        else:
            self.replay_chain(index, Path(result["dir"]), self.seeds[0])

    def last_span(self, name: str) -> int:
        return next(s["id"] for s in reversed(self.tr.spans) if s["name"] == name)

    def replay_fit(self, index, fit_span: int, family, target, config, model) -> None:
        """Walk the fitted path one select_step at a time, outside the fit span.

        ``model`` is None for a fit that raised NoAdmissibleMember: its one
        step must then find nothing.
        """
        pb, tr = self.pb, self.tr
        terms = () if model is None else model.terms
        stopped_early = model is None or model.stopped_early
        pool = list(family.members)
        prediction = np.zeros(family.grid.count)
        with tr.span("bench.replay.fit", index) as root:
            root.update(ref=fit_span, accepted=len(terms))
            for k in range(len(terms) + 1):
                if k == len(terms) and not (stopped_early and pool):
                    break
                with tr.span("series.family_build", index):
                    candidates = pb.Family(family.grid, tuple(pool))
                residual = pb.Series(pb.RESIDUAL_ID, target.values - prediction)
                with tr.span("boost.select_step", index) as step:
                    step["candidates"] = len(pool)
                    try:
                        chosen = pb.select_step(candidates, residual, config)
                    except pb.DegenerateResidual:
                        step["candidates"] = 0
                        chosen = None
                want = terms[k].member_id if k < len(terms) else None
                got = None if chosen is None else chosen.member_id
                if got != want:
                    self.errors.append([index, f"select_step replay picked {got!r} at "
                                               f"step {k}, fit accepted {want!r}"])
                    return
                if want is None:
                    return
                at = next(i for i, m in enumerate(pool) if m.id == want)
                prediction = prediction + terms[k].weight * pool[at].values
                if not config.with_replacement:
                    del pool[at]

    def replay_sweep(self, index, family, target, result) -> None:
        """Re-run the sweep's cells through the public calls the sweep makes."""
        pb, tr = self.pb, self.tr
        with tr.span("bench.replay.sweep", index):
            train, val, _ = pb.split(family.grid, self.split_spec)
            with tr.span("series.restrict_family", index):
                f_train = pb.restrict_family(family, train)
            with tr.span("series.restrict_family", index):
                f_val = pb.restrict_family(family, val)
            t_train, t_val = pb.restrict(target, train), pb.restrict(target, val)
            step = family.grid.step
            fits = []
            for row in result.rows:
                config = row.config
                try:
                    with tr.span("boost.fit", index):
                        model, _ = pb.fit(f_train, t_train, config)
                except pb.NoAdmissibleMember:
                    model = None
                fits.append((self.last_span("boost.fit"), config, model))
                if model is None:
                    if row.error != "NoAdmissibleMember":
                        self.errors.append([index, f"replayed cell {config} failed"])
                    continue
                with tr.span("boost.predict", index):
                    p_train = pb.predict(model, f_train)
                with tr.span("boost.predict", index):
                    p_val = pb.predict(model, f_val)
                with tr.span("modelsel.evaluate", index):
                    m_train = pb.evaluate(p_train, t_train, config.transform, step)
                with tr.span("modelsel.evaluate", index):
                    m_val = pb.evaluate(p_val, t_val, config.transform, step)
                replayed = sweep_row_doc(config, None, model.stopped_early, m_train, m_val)
                if repr(replayed) != repr(sweep_row_doc(config, row.error, row.stopped_early,
                                                        row.train, row.validation)):
                    self.errors.append([index, f"replayed cell {config} differs from "
                                               "its sweep row"])
        for fit_span, config, model in fits:
            self.replay_fit(index, fit_span, f_train, t_train, config, model)

    def replay_chain(self, index, d: Path, gen_seed: int) -> None:
        """Replay each CLI command's library calls in process, on the same files."""
        pb, tr = self.pb, self.tr
        io = {"read": 0, "written": 0}

        def read(name, span=None):
            size = (d / name).stat().st_size
            io["read"] += size
            if span is not None:
                span["bytes"] = size
            return d / name

        def wrote(name, span=None):
            size = (d / name).stat().st_size
            io["written"] += size
            if span is not None:
                span["bytes"] = size

        def read_panel():
            with tr.span("dataio.read_panel_csv", index) as s:
                return pb.read_panel_csv(read("panel.csv", s))

        with tr.span("bench.replay.cli", index) as chain:
            with tr.span("bench.replay.cli.gen", index):
                with tr.span("synth.generate", index):
                    family, _ = pb.generate(self.spec(gen_seed, self.cli_wl))
                with tr.span("dataio.write_panel_csv", index) as s:
                    pb.write_panel_csv(family, d / "replay_panel.csv")
                wrote("replay_panel.csv", s)
            if not hasattr(self, "family"):  # cli-pipeline: the probes use this panel
                self.family = family

            with tr.span("bench.replay.cli.fit", index):
                family, target = read_panel()
                train, _, _ = pb.split(family.grid, self.split_spec)
                with tr.span("series.restrict_family", index):
                    f_train = pb.restrict_family(family, train)
                t_train = pb.restrict(target, train)
                with tr.span("boost.fit", index) as s:
                    fitted, _ = pb.fit(f_train, t_train, self.config)
                fit_span = s["id"]
                with tr.span("dataio.file_digest", index):
                    digest = pb.file_digest(read("panel.csv"))
                with tr.span("dataio.write_model", index):
                    pb.write_model(fitted, d / "replay_model.json", input_digest=digest)
                wrote("replay_model.json")

            with tr.span("bench.replay.cli.predict", index):
                family, _ = read_panel()
                with tr.span("dataio.read_model", index):
                    model = pb.read_model(read("model.json"))
                with tr.span("boost.predict", index):
                    prediction = pb.predict(model, family)
                with tr.span("modelsel.cumulative", index):
                    running = pb.cumulative(prediction, family.grid.step)
                with tr.span("dataio.write_prediction_csv", index):
                    pb.write_prediction_csv(family.grid, prediction,
                                            pb.Series(pb.CUMULATIVE_ID, running.values),
                                            d / "replay_pred.csv")
                wrote("replay_pred.csv")

            with tr.span("bench.replay.cli.eval", index):
                with tr.span("dataio.read_prediction_csv", index):
                    _, prediction = pb.read_prediction_csv(read("pred.csv"))
                family, target = read_panel()
                with tr.span("modelsel.evaluate", index):
                    metrics = pb.evaluate(prediction, target, pb.TransformKind.RECIPROCAL,
                                          family.grid.step)
                with tr.span("dataio.write_eval_report", index):
                    pb.write_eval_report(metrics, d / "replay_eval.csv")
                wrote("replay_eval.csv")

            with tr.span("bench.replay.cli.sweep", index) as root:
                family, target = read_panel()
                with tr.span("modelsel.sweep", index):
                    result = pb.sweep(family, target, self.split_spec,
                                      self.sweep_grid(CLI_SWEEP_GRID))
                root["sweep"] = sweep_doc(result)
                with tr.span("dataio.write_sweep_report", index):
                    pb.write_sweep_report(result, d / "replay_sweep.csv")
                wrote("replay_sweep.csv")
            chain.update(bytes_read=io["read"], bytes_written=io["written"])
        self.replay_fit(index, fit_span, f_train, t_train, self.config, fitted)

    # ------------------------------------------------------------- probes

    def probes(self) -> None:
        pb, tr = self.pb, self.tr
        family = self.family
        train, _, _ = pb.split(family.grid, self.split_spec)
        h = family.members[0].values[train.start:train.stop]
        target = pb.aggregate_target(family)
        y = target.values[train.start:train.stop]
        kind = pb.TransformKind.RECIPROCAL
        calls = (("functional.pearson", lambda: pb.pearson(y, h)),
                 ("functional.argmin_rho", lambda: pb.argmin_rho(h, y)),
                 ("functional.psi", lambda: pb.psi(kind, y, h)))
        for _ in range(PROBE_REPEATS):
            for name, call in calls:
                with tr.span(name, "probe") as s:
                    for _ in range(PROBE_CALLS):
                        call()
                s["calls"] = PROBE_CALLS
            with tr.span("series.aggregate_target", "probe"):
                pb.aggregate_target(family)
        for _ in range(STARTUP_RUNS):
            with tr.span("cli.startup", "probe"):
                subprocess.run([sys.executable, "-m", "panelboost.cli", "--help"],
                               capture_output=True, check=True)


def terms_doc(model) -> list[dict]:
    return [{"member_id": t.member_id, "weight": t.weight, "raw_rho": t.raw_rho,
             "score": t.score} for t in model.terms]


def metrics_doc(m) -> list | None:
    if m is None:
        return None
    return [m.rmse, m.mae, m.pearson, m.psi, m.cumulative_abs_error]


def sweep_row_doc(config, error, stopped_early, train, val) -> dict:
    return {"config": [config.panel_size, config.lbound, config.alpha, config.transform.value],
            "error": error, "stopped_early": stopped_early,
            "train": metrics_doc(train), "val": metrics_doc(val)}


def sweep_doc(result) -> dict:
    rows = [sweep_row_doc(r.config, r.error, r.stopped_early, r.train, r.validation)
            for r in result.rows]
    return {"rows": rows, "best": result.best}


def blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import panelboost

    w = Worker(args, panelboost)
    w.tr.enabled = bool(args.trace) and not args.setup_only
    w.setup()
    w.tr.enabled = False
    w.op("warmup", 0)
    setup_end = time.monotonic()
    record = {"setup_end": setup_end, "setup_kernel": calibrate(), "gen_seeds": w.seeds}
    if not args.setup_only:
        record.update(loop(w, args))
    Path(args.out).write_text(json.dumps(record))
    return 0


def loop(w: Worker, args) -> dict:
    traced = bool(args.trace)
    panels = w.wl.panels
    ops = []
    start = time.perf_counter()
    slot = 0
    while True:
        panel = slot % panels
        for tracing in ((False, True) if traced else (False,)):
            index = len(ops)
            w.tr.enabled = tracing
            before = calibrate()
            try:
                with w.tr.span("bench.op", index):
                    t0 = time.perf_counter()
                    result = w.op(index, panel)
                    wall = time.perf_counter() - t0
            except Exception as exc:  # a failed op, counted by run.py
                ops.append({"index": index, "panel": panel, "traced": tracing,
                            "error": f"{type(exc).__name__}: {exc}"})
                continue
            ops.append({"index": index, "panel": panel, "traced": tracing, "wall": wall,
                        "kernel": [before, calibrate()], "output": w.output(result)})
            if tracing:
                w.replay(index, panel, result)
        slot += 1
        if (slot % panels == 0 and slot >= MIN_ROUNDS * panels
                and time.perf_counter() - start >= args.seconds):
            break
    w.tr.enabled = traced
    cli_pass = []
    if w.wl.name != "cli-pipeline":
        # at least one chain; short chains repeat so their medians are steady
        start = time.perf_counter()
        while not cli_pass or (len(cli_pass) < CLI_PASS_MAX_CHAINS
                               and time.perf_counter() - start < CLI_PASS_SECONDS):
            index = f"cli-pass{len(cli_pass)}"
            cli_pass.append(w.chain(index, w.work / index, w.seeds[0]))
        if traced:
            w.replay_chain("cli-pass0", Path(cli_pass[0]["dir"]), w.seeds[0])
    if traced:
        w.probes()
    return {
        "ops": ops,
        "cli_pass": cli_pass,
        "errors": w.errors,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "blas_threads": blas_threads(),
        "spans": w.tr.spans,
    }


if __name__ == "__main__":
    sys.exit(main())
