"""Command-line surface: gen, fit, predict, sweep, eval.

Exit codes: 0 success, 1 runtime error (any other ``PanelBoostError``, an
``OSError`` or a ``MemoryError``), 2 usage error or an ``InvalidParameter``.
Errors print one machine-parsable line to stderr: "error: <Code>: <message>".
Any other exception is a bug and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import sys

from . import dataio
from .boost import BoostConfig, fit, predict
from .errors import InvalidParameter, PanelBoostError
from .functional import TransformKind
from .modelsel import SweepGrid, cumulative, evaluate, sweep
from .series import SplitSpec, _numeral, restrict, restrict_family, split
from .synth import GenSpec, generate

# psi in eval reports uses this transform (the eval command exposes no flag)
EVAL_TRANSFORM = TransformKind.RECIPROCAL


# argparse names a flag's type by these names: "invalid integer value: '1_0'"
def integer(text: str) -> int:
    return _numeral(text, int)


def real(text: str) -> float:
    return _numeral(text, float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelboost",
        description="Sparse weighted panel models for additive time series.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic hotel panel CSV",
                         allow_abbrev=False)
    gen.add_argument("--out", required=True, help="output panel CSV")
    gen.add_argument("--n", type=integer, required=True, help="number of hotels")
    gen.add_argument("--days", type=integer, required=True, help="number of daily samples")
    gen.add_argument("--archetypes", type=integer, default=2, help="latent seasonal shapes")
    gen.add_argument("--noise", type=real, default=0.05, help="relative noise level")
    gen.add_argument("--seed", type=integer, default=0)

    fit_p = sub.add_parser("fit", help="fit a panel model to a data file",
                           allow_abbrev=False)
    fit_p.add_argument("--data", required=True, help="input panel CSV")
    fit_p.add_argument("--model-out", required=True, help="output model JSON")
    fit_p.add_argument("--panel-size", type=integer, required=True)
    fit_p.add_argument("--lbound", type=real, required=True)
    fit_p.add_argument("--alpha", type=real, required=True)
    fit_p.add_argument(
        "--transform", required=True, choices=[k.value for k in TransformKind]
    )
    fit_p.add_argument("--with-replacement", action="store_true")
    fit_p.add_argument("--train", type=real, help="train fraction (with --val)")
    fit_p.add_argument("--val", type=real, help="validation fraction (with --train)")

    pred = sub.add_parser("predict", help="predict the aggregate from a model",
                          allow_abbrev=False)
    pred.add_argument("--data", required=True, help="panel CSV with the members")
    pred.add_argument("--model", required=True, help="model JSON")
    pred.add_argument("--out", required=True, help="output prediction CSV")
    pred.add_argument(
        "--cumulative", action="store_true", help="also emit the running integral"
    )

    sweep_p = sub.add_parser("sweep", help="grid-search metaparameters on a split",
                             allow_abbrev=False)
    sweep_p.add_argument("--data", required=True)
    sweep_p.add_argument("--train", type=real, required=True)
    sweep_p.add_argument("--val", type=real, required=True)
    sweep_p.add_argument("--panel-sizes", required=True, help="comma-separated ints")
    sweep_p.add_argument("--lbounds", required=True, help="comma-separated floats")
    sweep_p.add_argument("--alphas", required=True, help="comma-separated floats")
    sweep_p.add_argument(
        "--transforms", required=True, help="comma-separated transform names"
    )
    sweep_p.add_argument("--report", required=True, help="output report CSV")

    eval_p = sub.add_parser("eval", help="score a prediction against a data file",
                            allow_abbrev=False)
    eval_p.add_argument("--pred", required=True, help="prediction CSV")
    eval_p.add_argument("--data", required=True, help="panel CSV with the target")
    eval_p.add_argument("--report", required=True, help="output report CSV")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # before Python 3.13, argparse stores [] for a value written --flag=--;
        # no flag takes a list, so the flag alone makes argparse report it
        for name, value in vars(args).items():
            if isinstance(value, list):
                parser.parse_args([args.command, "--" + name.replace("_", "-")])
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    command = {
        "gen": _cmd_gen,
        "fit": _cmd_fit,
        "predict": _cmd_predict,
        "sweep": _cmd_sweep,
        "eval": _cmd_eval,
    }[args.command]
    try:
        return command(args)
    except PanelBoostError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidParameter) else 1
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a subclass; the line names the builtin
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n_series=args.n,
        days=args.days,
        archetypes=args.archetypes,
        noise_sd=args.noise,
        seed=args.seed,
    )
    family, _ = generate(spec)
    dataio.write_panel_csv(family, args.out)
    print(f"wrote {args.out}: {len(family)} series x {family.grid.count} days")
    return 0


def _cmd_fit(args) -> int:
    if (args.train is None) != (args.val is None):
        raise InvalidParameter("--train and --val must be given together")
    family, target = dataio.read_panel_csv(args.data)
    if args.train is not None:
        train_range, _, _ = split(family.grid, SplitSpec(args.train, args.val))
        family = restrict_family(family, train_range)
        target = restrict(target, train_range)
    config = BoostConfig(
        panel_size=args.panel_size,
        transform=TransformKind(args.transform),
        lbound=args.lbound,
        alpha=args.alpha,
        with_replacement=args.with_replacement,
    )
    model, trace = fit(family, target, config)
    dataio.write_model(model, args.model_out, input_digest=dataio.file_digest(args.data))
    final = trace.records[-1]
    print(
        f"wrote {args.model_out}: {len(model.terms)} terms, "
        f"stopped_early={model.stopped_early}, "
        f"final_squared_error={final.squared_error_after:.6g}"
    )
    return 0


def _cmd_predict(args) -> int:
    family, _ = dataio.read_panel_csv(args.data)
    model = dataio.read_model(args.model)
    prediction = predict(model, family)
    cum = cumulative(prediction, family.grid.step) if args.cumulative else None
    dataio.write_prediction_csv(family.grid, prediction, cum, args.out)
    print(f"wrote {args.out}: {family.grid.count} rows")
    return 0


def _cmd_sweep(args) -> int:
    family, target = dataio.read_panel_csv(args.data)
    grid = SweepGrid(
        panel_sizes=_parse_list(args.panel_sizes, integer, "--panel-sizes"),
        lbounds=_parse_list(args.lbounds, real, "--lbounds"),
        alphas=_parse_list(args.alphas, real, "--alphas"),
        transforms=_parse_list(args.transforms, TransformKind, "--transforms"),
    )
    result = sweep(family, target, SplitSpec(args.train, args.val), grid)
    dataio.write_sweep_report(result, args.report)
    best = result.rows[result.best].config
    print(
        f"wrote {args.report}: {len(result.rows)} rows, best panel_size={best.panel_size} "
        f"lbound={best.lbound} alpha={best.alpha} transform={best.transform.value}"
    )
    return 0


def _cmd_eval(args) -> int:
    pred_grid, prediction = dataio.read_prediction_csv(args.pred)
    family, target = dataio.read_panel_csv(args.data)
    dataio.check_prediction_grid(pred_grid, family.grid)
    metrics = evaluate(prediction, target, EVAL_TRANSFORM, family.grid.step)
    dataio.write_eval_report(metrics, args.report)
    print(f"wrote {args.report}: rmse={metrics.rmse:.6g} mae={metrics.mae:.6g}")
    return 0


def _parse_list(text: str, parse, flag: str) -> tuple:
    """The comma-separated items of ``text``, the value of ``flag``, each converted by ``parse``.

    Whitespace around an item is dropped; an empty list or item, or one that
    ``parse`` refuses, is an InvalidParameter whose message names ``flag``.
    """
    items = [item.strip() for item in text.split(",")]
    if not any(items):
        raise InvalidParameter(f"{flag}: empty list argument: {text!r}")
    if not all(items):
        raise InvalidParameter(f"{flag}: empty item in list argument: {text!r}")
    try:
        return tuple(parse(item) for item in items)
    except ValueError as exc:  # the numeral grammar and TransformKind() raise it
        raise InvalidParameter(f"{flag}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
