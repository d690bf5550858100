"""Smoke test of the end-to-end demo script, run as a user runs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "synth": {
        "n_train": 48, "n_val": 16, "n_test": 16, "seq_len": 2,
        "raw_dim_a": 5, "raw_dim_v": 4, "raw_dim_t": 6, "latent_dim": 4, "seed": 1,
    },
    "model": {"dim": 4, "mia_hidden": 2},
    "train": {"epochs": 2, "patience": 2, "batch_size": 16},
}


def test_run_experiment_writes_its_outputs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "exp"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiment.py"), "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for rel in ("metrics.json", "similarity.csv", "run/checkpoint/manifest.json"):
        assert (out / rel).is_file(), rel
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"complete", "missing", "gap"}
    assert len((out / "similarity.csv").read_text().splitlines()) == TINY["synth"]["n_test"] + 1
