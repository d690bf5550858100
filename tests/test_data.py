import json

import numpy as np
import pytest

from modalflow.data import (
    Batch,
    Dataset,
    DatasetError,
    SynthConfig,
    batch_iter,
    degrade_text,
    generate_dataset,
    load_dataset,
    save_dataset,
)

SMALL = dict(n_train=80, n_val=20, n_test=20, seq_len=3, raw_dim_a=6, raw_dim_v=5, raw_dim_t=7, seed=3)


@pytest.fixture(scope="module")
def small_data():
    return generate_dataset(SynthConfig(**SMALL))


# -- configuration ------------------------------------------------------------------


@pytest.mark.parametrize("kw", [{"n_train": 0}, {"seq_len": 0}, {"noise_a": -1.0}, {"text_degradation": 1.5}])
def test_config_validation(kw):
    with pytest.raises(DatasetError):
        SynthConfig(**{**SMALL, **kw})


# -- generation ---------------------------------------------------------------------


def test_shapes_and_split_sizes(small_data):
    for split, n in (("train", 80), ("val", 20), ("test", 20)):
        ds = small_data[split]
        assert ds.n == n
        assert ds.audio.shape == (n, 3, 6)
        assert ds.vision.shape == (n, 3, 5)
        assert ds.text.shape == (n, 3, 7)
        assert ds.sim_text.shape == ds.text.shape
        assert ds.labels.shape == (n,)


def test_labels_bounded(small_data):
    for ds in small_data.values():
        assert np.all(ds.labels >= -3.0)
        assert np.all(ds.labels <= 3.0)


def test_generation_bit_deterministic():
    a = generate_dataset(SynthConfig(**SMALL))
    b = generate_dataset(SynthConfig(**SMALL))
    assert all(a[s].equal(b[s]) for s in a)


def test_different_seeds_differ():
    a = generate_dataset(SynthConfig(**SMALL))
    b = generate_dataset(SynthConfig(**{**SMALL, "seed": 4}))
    assert not a["train"].equal(b["train"])


def test_splits_are_distinct(small_data):
    assert not np.array_equal(small_data["train"].labels[:20], small_data["val"].labels)
    assert not np.array_equal(small_data["val"].labels, small_data["test"].labels)


def test_noiseless_features_linear_in_label_signal():
    # sigma = 0, S = 1: a least-squares fit of tanh^-1(y/3) on text features is near-exact
    cfg = SynthConfig(**{**SMALL, "n_train": 300, "seq_len": 1,
                         "noise_a": 0.0, "noise_v": 0.0, "noise_t": 0.0})
    ds = generate_dataset(cfg)["train"]
    X = ds.text[:, 0, :]
    target = np.arctanh(np.clip(ds.labels / 3.0, -0.999999, 0.999999))
    coef, *_ = np.linalg.lstsq(np.c_[X, np.ones(len(X))], target, rcond=None)
    pred = np.c_[X, np.ones(len(X))] @ coef
    ss_res = np.sum((target - pred) ** 2)
    ss_tot = np.sum((target - target.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.95


def _ridge_mae(X, y, lam=1.0):
    n = len(y)
    k = int(0.8 * n)
    Xtr, ytr, Xte, yte = X[:k], y[:k], X[k:], y[k:]
    A = Xtr.T @ Xtr + lam * np.eye(X.shape[1])
    w = np.linalg.solve(A, Xtr.T @ ytr)
    return float(np.mean(np.abs(Xte @ w - yte)))


def test_text_most_predictive_modality():
    """Linear ridge probes order the channels: text < audio <= vision MAE."""
    cfg = SynthConfig(n_train=600, n_val=20, n_test=20, seed=0)
    ds = generate_dataset(cfg)["train"]
    maes = {
        m: _ridge_mae(getattr(ds, m).mean(axis=1), ds.labels)
        for m in ("audio", "vision", "text")
    }
    assert maes["text"] < maes["audio"] <= maes["vision"]


# -- degradation -----------------------------------------------------------------------


def test_degrade_rho_zero_is_exact_copy(rng):
    text = rng.normal(size=(3, 7))
    audio = rng.normal(size=(3, 6))
    mix = rng.normal(size=(6, 7))
    out = degrade_text(text, audio, 0.0, mix, 0.3, seed=1)
    assert np.array_equal(out, text)
    assert out is not text


def test_degrade_seed_deterministic(rng):
    text = rng.normal(size=(3, 7))
    audio = rng.normal(size=(3, 6))
    mix = rng.normal(size=(6, 7))
    a = degrade_text(text, audio, 0.5, mix, 0.3, seed=9)
    b = degrade_text(text, audio, 0.5, mix, 0.3, seed=9)
    c = degrade_text(text, audio, 0.5, mix, 0.3, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_degrade_rho_validation(rng):
    x = rng.normal(size=(2, 3))
    with pytest.raises(DatasetError):
        degrade_text(x, x, -0.1, np.eye(3), 0.3, seed=0)
    with pytest.raises(DatasetError):
        degrade_text(x, x, 1.01, np.eye(3), 0.3, seed=0)


def _mean_corr(a, b):
    """Mean per-feature Pearson correlation across samples."""
    a = a.reshape(len(a), -1)
    b = b.reshape(len(b), -1)
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    num = (ac * bc).sum(axis=0)
    den = np.sqrt((ac**2).sum(axis=0) * (bc**2).sum(axis=0))
    return float(np.mean(num / den))


def test_degradation_monotonically_decorrelates():
    """Correlation with real text decreases over the rho grid 0, .25, .5, .75, 1."""
    corrs = []
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = SynthConfig(**{**SMALL, "n_train": 300, "text_degradation": rho})
        ds = generate_dataset(cfg)["train"]
        corrs.append(_mean_corr(ds.sim_text, ds.text))
    assert corrs[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a > b for a, b in zip(corrs, corrs[1:]))
    # even at full degradation the audio contamination keeps some shared signal
    assert 0.0 < corrs[-1] < 0.9


# -- persistence --------------------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert set(loaded) == set(small_data)
    for split in small_data:
        assert loaded[split].equal(small_data[split])
        assert loaded[split].config == small_data[split].config


def test_load_single_split(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    val = load_dataset(tmp_path / "ds", split="val")
    assert isinstance(val, Dataset)
    assert val.equal(small_data["val"])
    with pytest.raises(DatasetError, match="'nope'"):
        load_dataset(tmp_path / "ds", split="nope")


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="manifest"):
        load_dataset(tmp_path)


def test_load_truncated_file_names_tensor(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    f = tmp_path / "ds" / "val_labels.bin"
    f.write_bytes(f.read_bytes()[:-8])
    with pytest.raises(DatasetError, match="val/labels"):
        load_dataset(tmp_path / "ds")


def test_load_manifest_shape_mismatch(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    mpath = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["splits"]["test"]["tensors"]["audio"]["shape"] = [20, 3, 7]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="test/audio"):
        load_dataset(tmp_path / "ds")


def test_load_rejects_unknown_format(small_data, tmp_path):
    save_dataset(small_data["train"], tmp_path / "ds")
    mpath = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["format"] = "other-v9"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="format"):
        load_dataset(tmp_path / "ds")


# -- batching --------------------------------------------------------------------------------


def test_batch_iter_partitions_every_sample(small_data):
    ds = small_data["val"]
    batches = list(batch_iter(ds, 7, shuffle_seed=11))
    seen = np.concatenate([b.indices for b in batches])
    assert sorted(seen) == list(range(ds.n))
    assert [b.n for b in batches] == [7, 7, 6]
    assert isinstance(batches[0], Batch)


def test_batch_iter_no_shuffle_preserves_order(small_data):
    ds = small_data["val"]
    batches = list(batch_iter(ds, 8))
    assert np.array_equal(np.concatenate([b.indices for b in batches]), np.arange(ds.n))
    assert np.array_equal(batches[0].labels, ds.labels[:8])


def test_batch_iter_seeded_shuffle(small_data):
    ds = small_data["val"]
    a = np.concatenate([b.indices for b in batch_iter(ds, 8, shuffle_seed=1)])
    b = np.concatenate([b.indices for b in batch_iter(ds, 8, shuffle_seed=1)])
    c = np.concatenate([b.indices for b in batch_iter(ds, 8, shuffle_seed=2)])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_batch_iter_rejects_bad_size(small_data):
    with pytest.raises(ValueError):
        list(batch_iter(small_data["val"], 0))
