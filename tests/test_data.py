import json
from dataclasses import replace

import numpy as np
import pytest

import modalflow.data as data
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
    write_tensor,
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


def test_load_single_split_reads_only_that_split(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    f = tmp_path / "ds" / "train_labels.bin"
    f.write_bytes(f.read_bytes()[:-8])
    assert load_dataset(tmp_path / "ds", split="test").equal(small_data["test"])
    with pytest.raises(DatasetError, match="train/labels"):
        load_dataset(tmp_path / "ds")
    # the requested split keeps every check
    with pytest.raises(DatasetError, match="train/labels"):
        load_dataset(tmp_path / "ds", split="train")


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DatasetError, match="manifest"):
        load_dataset(tmp_path)


def test_load_truncated_file_names_tensor(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    f = tmp_path / "ds" / "val_labels.bin"
    full = f.read_bytes()
    f.write_bytes(full[:-8])
    with pytest.raises(DatasetError, match="val/labels"):
        load_dataset(tmp_path / "ds")
    f.write_bytes(full + bytes(8))
    with pytest.raises(DatasetError, match=f"'val/labels' file holds {len(full) + 8} bytes"):
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


def test_interrupted_resave_leaves_no_loadable_dataset(small_data, tmp_path, monkeypatch):
    save_dataset(small_data, tmp_path / "ds")
    shifted = {split: replace(ds, labels=ds.labels + 1.0) for split, ds in small_data.items()}
    written = []

    def failing_write(directory, fname, arr):
        if len(written) == 10:
            raise OSError("disk full")
        written.append(fname)
        return write_tensor(directory, fname, arr)

    monkeypatch.setattr(data, "write_tensor", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(shifted, tmp_path / "ds")
    assert len(written) == 10
    with pytest.raises(DatasetError, match="no manifest.json"):
        load_dataset(tmp_path / "ds")
    with pytest.raises(DatasetError, match="no manifest.json"):
        load_dataset(tmp_path / "ds", split="train")


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda m: m.pop("splits"), r"lacks 'splits'"),
        (lambda m: m.pop("config"), r"lacks 'config'"),
        (lambda m: m["config"].update(colour=1), r"'config': .*'colour'"),
        (lambda m: m["splits"]["val"].pop("tensors"), r"split 'val' lacks 'tensors'"),
    ],
    ids=["splits", "config", "config_unknown_key", "split_tensors"],
)
def test_load_names_a_missing_or_unknown_manifest_key(small_data, tmp_path, edit, match):
    save_dataset(small_data, tmp_path / "ds")
    mpath = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match=match):
        load_dataset(tmp_path / "ds")


def _edit_manifest(root, edit):
    mpath = root / "manifest.json"
    manifest = json.loads(mpath.read_text())
    replaced = edit(manifest)  # None: edited in place
    mpath.write_text(json.dumps(manifest if replaced is None else replaced))


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda m: [], "manifest.json"),
        (lambda m: m.update(splits=[]), "'splits'"),
        (lambda m: m["splits"].update(val=[1]), "split 'val'"),
        (lambda m: m["splits"]["val"].update(tensors="x"), "split 'val' 'tensors'"),
        (lambda m: m["splits"]["val"]["tensors"].update(labels=None), "tensor 'val/labels' manifest entry"),
    ],
    ids=["manifest", "splits", "split", "tensors", "tensor_entry"],
)
def test_load_rejects_a_manifest_part_that_is_not_an_object(small_data, tmp_path, edit, where):
    save_dataset(small_data, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", edit)
    with pytest.raises(DatasetError, match=f"{where} must be a JSON object"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "fname",
    ["../outside/test_labels.bin", "{root}/outside/test_labels.bin", "sub/test_labels.bin", ".", "..", ""],
    ids=["parent", "absolute", "subdir", "dot", "dotdot", "empty"],
)
def test_load_rejects_a_tensor_file_that_is_not_a_plain_name(small_data, tmp_path, fname):
    save_dataset(small_data, tmp_path / "outside")
    save_dataset(small_data, tmp_path / "ds")
    (tmp_path / "ds" / "sub").mkdir()
    (tmp_path / "ds" / "sub" / "test_labels.bin").write_bytes((tmp_path / "ds" / "test_labels.bin").read_bytes())
    labels = fname.format(root=tmp_path)
    _edit_manifest(tmp_path / "ds", lambda m: m["splits"]["test"]["tensors"]["labels"].update(file=labels))
    with pytest.raises(DatasetError, match="'test/labels' file .* is not a plain file name"):
        load_dataset(tmp_path / "ds", split="test")


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: m["tensors"]["labels"].update(shape=20),
        lambda m: m["tensors"]["labels"].update(shape=[20.0]),
        lambda m: m["tensors"]["labels"].update(shape=[-20]),
        lambda m: m["tensors"]["labels"].update(bytes="160"),
    ],
    ids=["shape_not_list", "shape_float", "shape_negative", "bytes_string"],
)
def test_load_rejects_an_ill_typed_shape_or_byte_count(small_data, tmp_path, edit):
    save_dataset(small_data, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", lambda m: edit(m["splits"]["test"]))
    with pytest.raises(DatasetError, match="'test/labels' needs a shape list"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "change",
    [
        lambda ds: replace(ds, audio=ds.audio[:-1]),
        lambda ds: replace(ds, vision=ds.vision[:, :-1]),
        lambda ds: replace(ds, text=ds.text[:, :, 0]),
        lambda ds: replace(ds, sim_text=ds.sim_text[..., :-1]),
        lambda ds: replace(ds, labels=ds.labels[:, None]),
    ],
    ids=["rows", "seq_len", "text_2d", "sim_text_width", "labels_2d"],
)
def test_load_checks_tensor_shapes_across_a_split(small_data, tmp_path, change):
    save_dataset(change(small_data["test"]), tmp_path / "ds")
    with pytest.raises(DatasetError, match="split 'test' declares n=20 but has tensor shapes"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "edit, n",
    [
        (lambda split: split.update(n=7), 7),
        # the same byte count as the 20 labels, beside 20-row features
        (lambda split: split["tensors"]["labels"].update(shape=[10, 2]), 20),
    ],
    ids=["n", "labels_redeclared"],
)
def test_load_checks_the_declared_split_size_and_label_shape(small_data, tmp_path, edit, n):
    save_dataset(small_data, tmp_path / "ds")
    _edit_manifest(tmp_path / "ds", lambda m: edit(m["splits"]["test"]))
    with pytest.raises(DatasetError, match=f"split 'test' declares n={n} but"):
        load_dataset(tmp_path / "ds", split="test")


def test_smaller_resave_leaves_only_the_new_files(small_data, tmp_path):
    save_dataset(small_data, tmp_path / "ds")
    save_dataset(small_data["val"], tmp_path / "ds")
    names = json.loads((tmp_path / "ds" / "manifest.json").read_text())["splits"]["val"]["tensors"]
    files = sorted(p.name for p in (tmp_path / "ds").iterdir())
    assert files == sorted([e["file"] for e in names.values()] + ["manifest.json"])
    assert load_dataset(tmp_path / "ds", split="val").equal(small_data["val"])


def test_resave_removes_only_plain_named_files(small_data, tmp_path):
    """An old manifest naming a file outside the directory, or one that is
    not JSON at all, costs the re-save nothing but its own removal."""
    save_dataset(small_data["val"], tmp_path / "ds")
    outside = tmp_path / "keep.bin"
    outside.write_bytes(b"x")
    _edit_manifest(tmp_path / "ds", lambda m: m["splits"]["val"]["tensors"]["labels"].update(file="../keep.bin"))
    save_dataset(small_data["test"], tmp_path / "ds")
    assert outside.exists()
    assert (tmp_path / "ds" / "val_labels.bin").exists()  # named only by the edited-away entry
    assert not (tmp_path / "ds" / "val_audio.bin").exists()
    (tmp_path / "ds" / "manifest.json").write_text("{not json")
    save_dataset(small_data["val"], tmp_path / "ds")
    assert load_dataset(tmp_path / "ds", split="val").equal(small_data["val"])


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


@pytest.mark.parametrize("shuffle_seed, shared", [(None, True), (3, False)])
def test_batch_iter_views_only_in_dataset_order(small_data, shuffle_seed, shared):
    """Unshuffled batches are views into the dataset (no copy per predict
    call); shuffled training batches are copies."""
    ds = small_data["val"]
    for batch in batch_iter(ds, 8, shuffle_seed=shuffle_seed):
        for name, arr in ds.tensors().items():
            assert np.shares_memory(getattr(batch, name), arr) == shared, name
            assert np.array_equal(getattr(batch, name), arr[batch.indices])


def test_batch_iter_rejects_bad_size(small_data):
    with pytest.raises(ValueError):
        list(batch_iter(small_data["val"], 0))
