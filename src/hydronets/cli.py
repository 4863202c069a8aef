"""Command-line entry point.

Subcommands cover the full workflow: region validation, synthetic data
generation, single-model training and evaluation, and the three
experiment runners. Exit codes: 0 success, 1 validation failure,
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

from .codec import from_doc, parse_json, read_input, to_doc
from .data import SynthConfig, dump_series, generate_synthetic, load_series, prepare_datasets
from .errors import HydroNetsError
from .experiments import (
    ExperimentConfig,
    _reject_unread,
    load_inputs,
    run_all_basins,
    run_depth_experiment,
    run_scarcity,
)
from .metrics import evaluate
from .model import init_flat, init_hydronet, load_checkpoint, save_checkpoint
from .region import drain_of, dump_region, parse_region, validate
from .training import LossWeights, train, train_flat


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        g = parse_region(read_input(args.region, "syntax-error"))
    except HydroNetsError as e:
        print(e)
        return 1
    report = validate(g)
    if report.ok:
        print(f"ok: {len(g.basins)} basins, {len(g.edges)} edges")
        return 0
    for code, msg in report.errors:
        print(f"{code}: {msg}")
    return 1


def cmd_gen_synth(args: argparse.Namespace) -> int:
    if args.config:
        text = read_input(args.config, "invalid-config")
        cfg = from_doc(SynthConfig, parse_json(text, "invalid-config"))
    else:
        cfg = SynthConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    g, store = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "region.json").write_text(dump_region(g))
    (out / "series.csv").write_text(dump_series(store))
    (out / "synth.json").write_text(json.dumps(to_doc(cfg), indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'region.json'} and {out / 'series.csv'} ({store.n_steps} steps)")
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ``--config`` file with the command's flags put in place of the
    fields they override: ``--seed`` replaces ``seeds``, and ``--basins``
    and ``--sizes`` replace the config lists."""
    cfg = ExperimentConfig.from_json(read_input(args.config, "invalid-config"))
    flags = vars(args)
    overrides = {
        "seeds": None if args.seed is None else (args.seed,),
        "metric": args.metric,
        "out_dir": args.out,
        "workers": args.workers,
        "basins": flags.get("basins") and tuple(flags["basins"]),
        "sizes": flags.get("sizes") and tuple(flags["sizes"]),
    }
    cfg = replace(cfg, **{name: v for name, v in overrides.items() if v is not None})
    cfg.check()
    return cfg


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _reject_unread(cfg, "train", "basins", "sizes")
    g, store, _ = load_inputs(cfg)
    train_set, _, _ = prepare_datasets(
        store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac
    )
    seed = cfg.seeds[0]
    tc = replace(cfg.train, seed=seed)
    target = args.target or drain_of(g)

    if args.model == "linear":
        params = init_flat(g, target, cfg.flat_depth, cfg.dims, seed)
        result = train_flat(params, train_set, tc)
    else:
        params = init_hydronet(g, cfg.dims, seed)
        weights = (
            LossWeights.focused(g.basin_ids, target, cfg.alpha) if args.target else None
        )
        result = train(params, train_set, tc, weights)

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "checkpoint.json").write_text(save_checkpoint(result.params))
    history = "epoch,loss\n" + "".join(
        f"{i},{loss!r}\n" for i, loss in enumerate(result.history)
    )
    (out / "history.csv").write_text(history)
    print(f"trained {args.model} for {tc.epochs} epochs, final loss {result.history[-1]:.6g}")
    print(f"wrote {out / 'checkpoint.json'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _reject_unread(cfg, "evaluate", "basins", "sizes")
    # The checkpoint, and its dims against the config's, are checked before
    # the series, the largest input, is read, so a bad checkpoint fails fast.
    if cfg.synth is not None:
        g, store = generate_synthetic(cfg.synth)
    else:
        g, store = parse_region(read_input(cfg.region, "syntax-error")), None
    params = load_checkpoint(read_input(args.checkpoint, "bad-checkpoint"), g)
    if params.dims != cfg.dims:
        raise HydroNetsError("shape-mismatch", f"checkpoint {params.dims} differ from the config's {cfg.dims}")
    if store is None:
        store = load_series(read_input(cfg.series, "syntax-error"), g)
    _, test_set, stats = prepare_datasets(
        store, g, cfg.dims.window, cfg.dims.horizon, cfg.train_frac
    )
    report = evaluate(params, test_set, stats)
    text = report.to_csv()
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.csv").write_text(text)
    return 0


def cmd_exp_depth(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    run_depth_experiment(cfg)
    print(f"wrote {Path(cfg.out_dir) / 'report.csv'}")
    return 0


def cmd_exp_basins(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    run_all_basins(cfg)
    print(f"wrote {Path(cfg.out_dir) / 'report.csv'} and comparison.csv")
    return 0


def cmd_exp_scarcity(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    run_scarcity(cfg)
    print(f"wrote {Path(cfg.out_dir) / 'report.csv'}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, help="replace the seed list with this one seed")
    p.add_argument("--metric", choices=("r2", "r2_persist"))
    p.add_argument("--out", help="output directory override")
    p.add_argument("--workers", type=int, help="concurrent training jobs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydronets",
        description="river-network linear forecasting: data, training, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a region file")
    p.add_argument("region", help="region JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen-synth", help="generate a synthetic region and series")
    p.add_argument("--config", help="synth config JSON (defaults otherwise)")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train one model and write a checkpoint")
    _add_config_flags(p)
    p.add_argument("--model", choices=("hydronets", "linear"), default="hydronets")
    p.add_argument("--target", help="target basin (drain if omitted)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    _add_config_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("exp-depth", help="drain skill vs upstream depth")
    _add_config_flags(p)
    p.set_defaults(func=cmd_exp_depth)

    p = sub.add_parser("exp-basins", help="tree model vs flat baseline per basin")
    _add_config_flags(p)
    p.add_argument("--basins", nargs="+", help="target basins (all if omitted)")
    p.set_defaults(func=cmd_exp_basins)

    p = sub.add_parser("exp-scarcity", help="skill vs training set size")
    _add_config_flags(p)
    p.add_argument("--sizes", nargs="+", type=int, help="training example counts")
    p.add_argument("--basins", nargs="+", help="basins to report (all if omitted)")
    p.set_defaults(func=cmd_exp_scarcity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HydroNetsError as e:
        print(e, file=sys.stderr)
        return 2
    except OSError as e:  # input files fail with their kind's code, so this is an output
        print(f"output-error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"internal-error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
