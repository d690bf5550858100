"""Batch command-line entry point.

Subcommands: gen-data, train, eval, simmat, ablate. All are non-interactive
and deterministic given config + seed; each output directory receives the
effective config echo. Exit codes: 0 success, 1 validation/runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config, write_config_echo
from .data import DatasetError, generate_dataset, load_dataset, save_dataset
from .training import (
    DEFAULT_ABLATION_GRID,
    MODES,
    evaluate,
    fit,
    load_checkpoint,
    run_ablation,
    similarity_matrix,
    write_similarity_csv,
)


def build_parser():
    parser = argparse.ArgumentParser(prog="modalflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", default=None, help="JSON config file (defaults used if omitted)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override a config value")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    add_config(p)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the full model on a dataset directory")
    add_config(p)
    p.add_argument("--data", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", required=True, help="run output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; prints 'MAE=<float> ACC=<float>'")
    p.add_argument("--checkpoint", required=True, help="run or checkpoint directory")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=MODES, default="complete")
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simmat", help="export the label-sorted cross-flow similarity matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_simmat)

    p = sub.add_parser("ablate", help="run the component-toggle ablation grid")
    add_config(p)
    p.add_argument("--data", default=None, help="dataset directory (generated from config if omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_ablate)

    return parser


def cmd_gen_data(args):
    cfg = load_config(args.config, args.overrides)
    datasets = generate_dataset(cfg.synth)
    save_dataset(datasets, args.out)
    write_config_echo(cfg, args.out)
    print(f"wrote {sum(d.n for d in datasets.values())} samples to {args.out}")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, args.overrides)
    datasets = load_dataset(args.data)
    out = Path(args.out)
    checkpoint, history = fit(datasets, cfg.model, cfg.train, out_dir=out)
    write_config_echo(cfg, out)
    print(f"best val MAE {checkpoint.best_val_mae:.6f} at epoch {checkpoint.epoch} "
          f"({len(history)} epochs run); outputs in {out}")
    return 0


def cmd_eval(args):
    checkpoint = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data, split=args.split)
    mae, acc = evaluate(dataset, checkpoint, args.mode)
    print(f"MAE={mae:.6f} ACC={acc:.4f}")
    return 0


def cmd_simmat(args):
    checkpoint = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data, split=args.split)
    matrix, labels = similarity_matrix(checkpoint, dataset)
    write_similarity_csv(args.out, matrix, labels)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} similarity matrix to {args.out}")
    return 0


def cmd_ablate(args):
    cfg = load_config(args.config, args.overrides)
    datasets = load_dataset(args.data) if args.data is not None else generate_dataset(cfg.synth)
    rows = run_ablation(
        datasets, cfg.model, cfg.train,
        specs=DEFAULT_ABLATION_GRID, n_seeds=args.seeds, out_dir=args.out, jobs=args.jobs,
    )
    write_config_echo(cfg, args.out)
    print(f"ran {len(rows)} ablation specs x {args.seeds} seeds; results in {args.out}/ablation.csv")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (ConfigError, DatasetError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
