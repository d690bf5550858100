#!/usr/bin/env python3
"""End-to-end demo: generate data, train the full model, evaluate both modes.

Writes the dataset, run outputs (history, checkpoint, config echo), the
label-sorted cross-flow similarity matrix, and a metrics summary under one
output directory. Everything is deterministic given the config and seed.
"""

import argparse
import json
import sys
from pathlib import Path

from modalflow.config import load_config
from modalflow.data import generate_dataset, save_dataset
from modalflow.training import evaluate, fit, performance_gap, similarity_matrix, write_similarity_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file; defaults if omitted")
    parser.add_argument("--out", default="outputs/experiment", help="output directory")
    args = parser.parse_args()

    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("generating dataset ...")
    datasets = generate_dataset(cfg.synth)
    save_dataset(datasets, out / "data")

    print("training full model ...")
    checkpoint, history = fit(datasets, cfg.model, cfg.train, out_dir=out / "run")
    print(f"  best val MAE {checkpoint.best_val_mae:.4f} at epoch {checkpoint.epoch} "
          f"({len(history)} epochs run)")

    metrics = {}
    for mode in ("complete", "missing"):
        mae, acc = evaluate(datasets["test"], checkpoint, mode)
        metrics[mode] = {"mae": mae, "acc": acc}
        print(f"  test {mode:8s}  MAE={mae:.4f}  ACC={acc:.2f}")
    gap = performance_gap(
        (metrics["complete"]["mae"], metrics["complete"]["acc"]),
        (metrics["missing"]["mae"], metrics["missing"]["acc"]),
    )
    metrics["gap"] = {"mae": gap[0], "acc": gap[1]}
    print(f"  gap  dMAE={gap[0]:.4f}  dACC={gap[1]:.2f}")

    matrix, labels = similarity_matrix(checkpoint, datasets["test"])
    write_similarity_csv(out / "similarity.csv", matrix, labels)
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(f"outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
