import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modalflow.cli import main
from modalflow.data import load_dataset, save_dataset, write_tensor
from modalflow.training import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "synth": {
        "n_train": 48, "n_val": 16, "n_test": 16, "seq_len": 2,
        "raw_dim_a": 5, "raw_dim_v": 4, "raw_dim_t": 6, "latent_dim": 4, "seed": 1,
    },
    "model": {"dim": 4, "mia_hidden": 2},
    "train": {"epochs": 2, "patience": 2, "batch_size": 16},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """gen-data + train once; downstream commands reuse the outputs."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    data = root / "data"
    run = root / "run"
    assert main(["gen-data", "--config", str(config), "--out", str(data)]) == 0
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(run)]) == 0
    return {"config": config, "data": data, "run": run, "root": root}


def test_gen_data_outputs(workdir):
    assert (workdir["data"] / "manifest.json").exists()
    assert (workdir["data"] / "config.json").exists()
    assert (workdir["data"] / "train_labels.bin").exists()


def test_train_outputs(workdir):
    assert (workdir["run"] / "history.csv").exists()
    assert (workdir["run"] / "checkpoint" / "manifest.json").exists()
    assert (workdir["run"] / "config.json").exists()


def test_eval_output_format(workdir, capsys):
    code = main([
        "eval", "--checkpoint", str(workdir["run"]), "--data", str(workdir["data"]),
        "--mode", "missing", "--split", "test",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert re.fullmatch(r"MAE=\d+\.\d{6} ACC=\d+\.\d{4}", out), out


def test_eval_complete_mode_default(workdir, capsys):
    assert main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(workdir["data"])]) == 0
    assert capsys.readouterr().out.startswith("MAE=")


def test_simmat_csv(workdir):
    out = workdir["root"] / "sim.csv"
    code = main([
        "simmat", "--checkpoint", str(workdir["run"]), "--data", str(workdir["data"]),
        "--split", "val", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 17  # 16 val samples + label header row
    assert lines[0].startswith("label,")


def test_ablate_writes_summary(workdir):
    out = workdir["root"] / "ablation"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([
            "ablate", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
            "--out", str(out), "--seeds", "1",
        ])
    assert code == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "llm_g,mia,l_mkd,l_rs,l_rnc,missing_mae,missing_acc,complete_mae,complete_acc,n_seeds"
    assert len(lines) == 8  # 7 grid rows + header
    assert (out / "runs.csv").exists()
    assert (out / "config.json").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_ablate_rejects_jobs_below_one(workdir, capsys, jobs):
    out = workdir["root"] / f"ablation-jobs{jobs}"
    code = main([
        "ablate", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
        "--out", str(out), "--seeds", "1", "--jobs", jobs,
    ])
    assert code == 1
    assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_set_override_changes_run(workdir, tmp_path, capsys):
    out = tmp_path / "run2"
    code = main([
        "train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
        "--out", str(out), "--set", "train.epochs=1", "--set", "train.patience=1",
    ])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == 2  # header + single epoch
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["train"]["epochs"] == 1


def test_train_on_features_near_1e200_fails_with_a_named_error(workdir, tmp_path, capsys):
    # the representations' squared distances overflow: rank_contrast refuses
    # them by name instead of returning NaN or blaming an underflow
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(workdir["config"]), "--out", str(data), "--set", "synth.noise_t=1e200"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the task loss overflows first, with a RuntimeWarning
        code = main(["train", "--config", str(workdir["config"]), "--data", str(data), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "distance is not finite" in err and "Traceback" not in err


def test_train_is_bit_exact_across_blas_threads(tmp_path):
    """`train` in subprocesses with OpenBLAS on 1 and on 2 threads writes the
    same bytes. Batch 128 gives rank_contrast a [256, 32] x [32, 256] GEMM."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {**TINY["synth"], "n_train": 256},
        "model": {"dim": 32, "mia_hidden": 16},
        "train": {"epochs": 2, "patience": 2, "batch_size": 128},
    }))
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "data")]) == 0
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"run{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "modalflow", "train", "--config", str(config), "--data", str(tmp_path / "data"),
             "--out", str(run)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        runs[threads] = [(run / rel).read_bytes() for rel in ("history.csv", "checkpoint/params.bin")]
    assert runs["1"] == runs["2"]


def test_model_shape_keys_are_unknown(workdir, tmp_path, capsys):
    code = main([
        "train", "--config", str(workdir["config"]), "--data", str(workdir["data"]),
        "--out", str(tmp_path / "x"), "--set", "model.raw_dim_a=9",
    ])
    assert code == 1
    assert "unknown key 'model.raw_dim_a'" in capsys.readouterr().err


def test_eval_on_data_of_other_raw_dims_fails_cleanly(workdir, tmp_path, capsys):
    other = tmp_path / "other"
    assert main(["gen-data", "--config", str(workdir["config"]), "--out", str(other),
                 "--set", "synth.raw_dim_a=9"]) == 0
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(other)])
    assert code == 1
    assert "modality 'a' raw dim 9" in capsys.readouterr().err


def _edited_copy(src, dst, edit):
    """Copy a dataset or checkpoint directory and apply `edit` to its manifest."""
    shutil.copytree(src, dst)
    manifest = json.loads((dst / "manifest.json").read_text())
    edit(manifest)
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


def _dataset_with(workdir, dst, splits):
    """A copy of the shared dataset that holds only `splits`."""
    datasets = load_dataset(workdir["data"])
    save_dataset({split: datasets[split] for split in splits}, dst)
    return dst


def test_ablate_without_test_split_fails_before_training(workdir, tmp_path, capsys):
    data = _dataset_with(workdir, tmp_path / "data", ("train", "val"))
    out = tmp_path / "ablation"
    code = main(["ablate", "--config", str(workdir["config"]), "--data", str(data), "--out", str(out), "--seeds", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'test'" in err and "Traceback" not in err
    assert not out.exists()  # no runs.csv: not one grid cell trained


def test_train_without_val_split_fails_cleanly(workdir, tmp_path, capsys):
    data = _dataset_with(workdir, tmp_path / "data", ("train", "test"))
    out = tmp_path / "run"
    code = main(["train", "--config", str(workdir["config"]), "--data", str(data), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'val'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("epoch", None), ("epoch", [1]), ("epoch", 1.5), ("epoch", True), ("epoch", 0),
     ("best_val_mae", {}), ("best_val_mae", "0.5"), ("best_val_mae", True)],
)
def test_eval_checkpoint_epoch_and_best_val_mae_are_type_checked(workdir, tmp_path, capsys, key, value):
    ckpt = _edited_copy(workdir["run"] / "checkpoint", tmp_path / "ckpt", lambda m: m.update({key: value}))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["false", 0, None])
def test_eval_checkpoint_ablation_flag_must_be_a_bool(workdir, tmp_path, capsys, value):
    ckpt = _edited_copy(workdir["run"] / "checkpoint", tmp_path / "ckpt", lambda m: m["ablation"].update(use_mia=value))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"]), "--mode", "missing"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'ablation'" in err and "use_mia must be a bool" in err


@pytest.mark.parametrize("key", ["file", "shape", "bytes"])
def test_eval_manifest_entry_without_key_fails_cleanly(workdir, tmp_path, capsys, key):
    data = _edited_copy(workdir["data"], tmp_path / "data",
                        lambda m: m["splits"]["test"]["tensors"]["labels"].pop(key))
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(data)])
    assert code == 1
    assert f"tensor 'test/labels' manifest entry lacks '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [[2**62, 4], [2**32, 2**32], [0, 2**70]], ids=["2^62x4", "2^32x2^32", "0x2^70"])
def test_eval_tensor_shape_whose_count_overflows_fails_cleanly(workdir, tmp_path, capsys, shape):
    data = _edited_copy(workdir["data"], tmp_path / "data",
                        lambda m: m["splits"]["test"]["tensors"]["labels"].update(shape=shape, bytes=0))
    (data / "test_labels.bin").write_bytes(b"")
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: load: tensor 'test/labels' manifest shape"), err


@pytest.mark.parametrize("target", ["data", "checkpoint"])
def test_eval_rejects_manifest_dtype_other_than_f8(workdir, tmp_path, capsys, target):
    paths = {"data": workdir["data"], "checkpoint": workdir["run"] / "checkpoint"}
    paths[target] = _edited_copy(paths[target], tmp_path / target, lambda m: m.update(dtype="<f4"))
    code = main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["data"])])
    assert code == 1
    assert "declares dtype '<f4', expected '<f8'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["epoch", "best_val_mae", "model_config", "train_config", "ablation", "raw_dims", "tensors"]
)
def test_eval_checkpoint_manifest_without_key_fails_cleanly(workdir, tmp_path, capsys, key):
    ckpt = _edited_copy(workdir["run"] / "checkpoint", tmp_path / "ckpt", lambda m: m.pop(key))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])])
    assert code == 1
    assert f"lacks '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["model_config", "train_config", "ablation"])
def test_eval_checkpoint_config_with_unknown_key_fails_cleanly(workdir, tmp_path, capsys, key):
    ckpt = _edited_copy(workdir["run"] / "checkpoint", tmp_path / "ckpt", lambda m: m[key].update(colour=1))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err and "'colour'" in err


@pytest.mark.parametrize("key", ["config", "splits"])
def test_eval_dataset_manifest_without_key_fails_cleanly(workdir, tmp_path, capsys, key):
    data = _edited_copy(workdir["data"], tmp_path / "data", lambda m: m.pop(key))
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(data)])
    assert code == 1
    assert f"lacks '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["data", "checkpoint"])
def test_eval_manifest_that_is_not_an_object_fails_cleanly(workdir, tmp_path, capsys, target):
    paths = {"data": workdir["data"], "checkpoint": workdir["run"] / "checkpoint"}
    shutil.copytree(paths[target], tmp_path / target)
    (tmp_path / target / "manifest.json").write_text("[]")
    paths[target] = tmp_path / target
    code = main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.json must be a JSON object, got list" in err


@pytest.mark.parametrize("target", ["data", "checkpoint"])
def test_eval_manifest_that_is_not_json_fails_with_a_dataset_error(workdir, tmp_path, capsys, target):
    paths = {"data": workdir["data"], "checkpoint": workdir["run"] / "checkpoint"}
    shutil.copytree(paths[target], tmp_path / target)
    (tmp_path / target / "manifest.json").write_text("{not json")
    paths[target] = tmp_path / target
    code = main(["eval", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["data"])])
    assert code == 1
    assert "manifest.json is not JSON" in capsys.readouterr().err


def test_eval_dataset_splits_that_are_not_an_object_fail_cleanly(workdir, tmp_path, capsys):
    data = _edited_copy(workdir["data"], tmp_path / "data", lambda m: m.update(splits=[]))
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(data)])
    assert code == 1
    assert "'splits' must be a JSON object, got list" in capsys.readouterr().err


def test_eval_checkpoint_without_parameter_fails_cleanly(workdir, tmp_path, capsys):
    ckpt = _edited_copy(workdir["run"] / "checkpoint", tmp_path / "ckpt", lambda m: m["tensors"].pop("params"))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])])
    assert code == 1
    assert "'tensors' must hold exactly one entry, 'params', got []" in capsys.readouterr().err


def test_eval_checkpoint_with_a_wrong_parameter_shape_fails_cleanly(workdir, tmp_path, capsys):
    """The parameters laid out with query rows of [2, dim]: a model that
    training cannot produce, refused at load by the tensor's length."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workdir["run"] / "checkpoint", ckpt)
    dim = TINY["model"]["dim"]
    params = load_checkpoint(ckpt).params
    arrays = [np.ones((2, dim)) if name.startswith("query.") else a for name, a in params.items()]
    flat = np.concatenate(arrays, axis=None)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["tensors"]["params"] = write_tensor(ckpt, "params.bin", flat)
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(workdir["data"])])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    n = flat.size
    assert f"'params' has shape ({n},), {n} values; the stored model config and raw_dims give {n - 3 * dim} " in err


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("train", ["train.batch_size=2.5"], "batch_size must be an int, got 2.5"),
        ("train", ["train.seed=1.5"], "seed must be an int, got 1.5"),
        ("train", ["model.dim=4.0"], "dim must be an int, got 4.0"),
        ("gen-data", ["synth.n_train=2.5"], "n_train must be an int, got 2.5"),
        ("train", ["train.epochs=true", "train.patience=0"], "epochs must be an int, got True"),
        ("train", ["loss.alpha=true"], "alpha must be a number, got True"),
        ("gen-data", ["synth.seed=-1"], "synth config: seed must be >= 0, got -1"),
        ("train", ["train.seed=-1"], "train config: seed must be >= 0, got -1"),
    ],
    ids=["batch_size_float", "seed_float", "dim_float", "n_train_float", "epochs_bool", "alpha_bool",
         "synth_seed_negative", "train_seed_negative"],
)
def test_ill_typed_config_value_fails_cleanly(workdir, tmp_path, capsys, command, overrides, message):
    """An int field takes an int and a float field a number; a bool is
    neither. Each case once crashed with a traceback or ran as if valid."""
    args = [command, "--config", str(workdir["config"]), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--data", str(workdir["data"])]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_config_section_that_is_not_an_object_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"train": 5}')
    code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "section 'train' is not an object" in err and "Traceback" not in err


def test_bad_config_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": {}}')
    code = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "d")])
    assert code == 1
    assert "unknown section" in capsys.readouterr().err


def test_missing_dataset_exit_code(tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path), "--data", str(tmp_path)])
    assert code == 1


def test_eval_empty_split_exit_code(workdir, tmp_path, capsys):
    test = load_dataset(workdir["data"], split="test")
    save_dataset(replace(test, **{f: a[:0] for f, a in test.tensors().items()}), tmp_path / "empty")
    code = main(["eval", "--checkpoint", str(workdir["run"]), "--data", str(tmp_path / "empty")])
    assert code == 1
    assert "split 'test' has no samples" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_gen_data_without_config_uses_defaults_overridden(tmp_path, capsys):
    out = tmp_path / "d"
    code = main([
        "gen-data", "--out", str(out),
        "--set", "synth.n_train=10", "--set", "synth.n_val=5", "--set", "synth.n_test=5",
        "--set", "synth.seq_len=2",
    ])
    assert code == 0
    assert "wrote 20 samples" in capsys.readouterr().out
