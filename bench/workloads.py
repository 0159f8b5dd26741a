"""Workload definitions shared by run.py and worker.py.

A workload fixes the panel shape, the op (the timed unit) and how the
generator seeds follow from the benchmark's ``--seed``; why each workload
was chosen is recorded in BENCHMARK.json and README.md. The ``smoke`` scale
keeps every workload's structure but shrinks the panels so the whole
benchmark runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

# Panels of one sweep-grid run are spaced this far apart in generator-seed
# space, so two workload seeds never share a panel in practice.
SEED_STRIDE = 1_000_003

# The CLI chain of cli-pipeline; the library workloads also run it after their
# op loop (see cli_pass_workload), so that every end-to-end metric exists on
# every workload.
CLI_SWEEP_ARGS = (
    "--panel-sizes", "2,4,8", "--lbounds=-1,0", "--alphas", "1",
    "--transforms", "reciprocal",
)
CLI_SWEEP_GRID = dict(panel_sizes=(2, 4, 8), lbounds=(-1.0, 0.0), alphas=(1.0,),
                      transforms=("reciprocal",))
CLI_COMMANDS = ("gen", "fit", "predict", "eval", "sweep")

FIT_CONFIG = dict(panel_size=10, lbound=-1.0, alpha=1.0, transform="reciprocal")
TRAIN_FRACTION = 0.6
VAL_FRACTION = 0.2
NOISE_SD = 0.05

SWEEP_GRID = dict(
    panel_sizes=(1, 2, 4, 8, 16),
    lbounds=(-1.0, 0.0, 0.5, 0.9, 0.99),
    alphas=(1.0, 0.5),
    transforms=("reciprocal", "witch"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    members: int
    days: int
    archetypes: int
    panels: int  # distinct panels per run, visited round robin
    op: str

    def gen_seeds(self, seed: int) -> list[int]:
        return [(seed + i * SEED_STRIDE) % 2**64 for i in range(self.panels)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-wide", 2000, 730, 5, 1,
            "fit on the 0.6 train split (panel 10, lbound -1, alpha 1, reciprocal), "
            "then predict and evaluate on the test split",
        ),
        Workload(
            "sweep-grid", 100, 365, 5, 8,
            "one sweep over 5 panel sizes x 5 lbounds x 2 alphas x 2 transforms "
            "(100 cells), split 0.6/0.2",
        ),
        Workload(
            "cli-pipeline", 1000, 365, 5, 1,
            "one chain of python -m panelboost.cli gen, fit, predict --cumulative, "
            "eval, sweep (2,4,8 x -1,0 x 1 x reciprocal)",
        ),
    )
}

# Tiny shapes with the same structure, for the smoke test only.
SMOKE_SHAPES = {
    "select-wide": (40, 60, 3),
    "sweep-grid": (20, 60, 3),
    "cli-pipeline": (30, 60, 3),
}


def workload(name: str, scale: str) -> Workload:
    base = WORKLOADS[name]
    if scale == "full":
        return base
    members, days, archetypes = SMOKE_SHAPES[name]
    return Workload(base.name, members, days, archetypes, min(base.panels, 2), base.op)


def cli_pass_workload(name: str, scale: str) -> Workload:
    """The shape at which a workload runs the CLI chain.

    That is its own panel, or cli-pipeline's where its own is larger: a chain
    on the 2000x730 select-wide panel takes about 10 s, so only two fit in
    the CLI pass and their median spread by up to a third between seeds.
    """
    own, cli = workload(name, scale), workload("cli-pipeline", scale)
    return own if own.members * own.days <= cli.members * cli.days else cli


def cli_chain(wl: Workload, gen_seed: int) -> list[tuple[str, list[str]]]:
    """The five CLI commands of one chain, with file names relative to its directory."""
    return [
        ("gen", ["gen", "--out", "panel.csv", "--n", str(wl.members), "--days", str(wl.days),
                 "--archetypes", str(wl.archetypes), "--noise", str(NOISE_SD),
                 "--seed", str(gen_seed)]),
        ("fit", ["fit", "--data", "panel.csv", "--model-out", "model.json",
                 "--panel-size", str(FIT_CONFIG["panel_size"]), "--lbound=-1", "--alpha", "1",
                 "--transform", FIT_CONFIG["transform"],
                 "--train", str(TRAIN_FRACTION), "--val", str(VAL_FRACTION)]),
        ("predict", ["predict", "--data", "panel.csv", "--model", "model.json",
                     "--out", "pred.csv", "--cumulative"]),
        ("eval", ["eval", "--pred", "pred.csv", "--data", "panel.csv", "--report", "eval.csv"]),
        ("sweep", ["sweep", "--data", "panel.csv", "--train", str(TRAIN_FRACTION),
                   "--val", str(VAL_FRACTION), *CLI_SWEEP_ARGS, "--report", "sweep.csv"]),
    ]
