"""Seeded synthetic multimodal dataset: generation, degradation stub, persistence.

A latent-factor generator stands in for the real feature-extraction pipeline:
a shared latent drives the valence label and all three modality feature
sequences, with per-modality noise chosen so text is the most predictive
channel. The simulated text representation is a controlled corruption of the
real one, contaminated with audio-derived content, exposed via a degradation
knob rho in [0, 1].

On-disk format: one directory holding `manifest.json` plus one raw `.bin`
file per tensor field per split (little-endian float64, row-major, samples
concatenated along the leading axis). `write_tensor`/`read_tensor` are the
one codec for these files; checkpoints (`training.save_checkpoint`) use it
too and choose only their own file names and manifest keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "val", "test")
TENSOR_FIELDS = ("audio", "vision", "text", "sim_text", "labels")

# Text carries the strongest signal; noise levels keep audio ahead of vision.
TEXT_SIGNAL_GAIN = 1.2

# the codec's one element type, declared as "dtype" in every manifest
TENSOR_DTYPE = "<f8"


class DatasetError(ValueError):
    """Invalid dataset configuration or on-disk tensor state."""


@dataclass
class SynthConfig:
    n_train: int = 2000
    n_val: int = 500
    n_test: int = 500
    seq_len: int = 8
    raw_dim_a: int = 20
    raw_dim_v: int = 16
    raw_dim_t: int = 24
    latent_dim: int = 8
    noise_a: float = 1.5
    noise_v: float = 1.8
    noise_t: float = 0.3
    # rho = 1 mirrors the target scenario: the simulated text representation
    # carries no real-text content, only audio-derived signal plus noise
    text_degradation: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_train", "n_val", "n_test", "seq_len", "raw_dim_a", "raw_dim_v", "raw_dim_t", "latent_dim"):
            if getattr(self, name) < 1:
                raise DatasetError(f"synth config: {name} must be >= 1")
        for name in ("noise_a", "noise_v", "noise_t"):
            if getattr(self, name) < 0:
                raise DatasetError(f"synth config: {name} must be >= 0")
        if not 0.0 <= self.text_degradation <= 1.0:
            raise DatasetError(f"synth config: text_degradation must be in [0, 1], got {self.text_degradation}")

    def raw_dim(self, m):
        return {"a": self.raw_dim_a, "v": self.raw_dim_v, "t": self.raw_dim_t}[m]

    def n_split(self, split):
        return {"train": self.n_train, "val": self.n_val, "test": self.n_test}[split]


@dataclass
class Dataset:
    split: str
    audio: np.ndarray  # [n, S, raw_dim_a]
    vision: np.ndarray  # [n, S, raw_dim_v]
    text: np.ndarray  # [n, S, raw_dim_t], real text features
    sim_text: np.ndarray  # [n, S, raw_dim_t], degraded stand-in
    labels: np.ndarray  # [n], in [-3, 3]
    config: SynthConfig

    @property
    def n(self):
        return len(self.labels)

    def tensors(self):
        return {name: getattr(self, name) for name in TENSOR_FIELDS}

    def equal(self, other):
        return self.split == other.split and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in TENSOR_FIELDS
        )


def _latent_maps(config):
    """Fixed per-config random maps, independent of sample count."""
    rng = np.random.default_rng([config.seed, 0xD1CE])
    scale = 1.0 / np.sqrt(config.latent_dim)
    w_y = rng.normal(0.0, scale, size=config.latent_dim)
    maps = {
        "a": rng.normal(0.0, scale, size=(config.latent_dim, config.raw_dim_a)),
        "v": rng.normal(0.0, scale, size=(config.latent_dim, config.raw_dim_v)),
        "t": rng.normal(0.0, scale, size=(config.latent_dim, config.raw_dim_t)) * TEXT_SIGNAL_GAIN,
    }
    mix = rng.normal(0.0, 1.0 / np.sqrt(config.raw_dim_a), size=(config.raw_dim_a, config.raw_dim_t))
    return w_y, maps, mix


def degrade_text(text_raw, audio_raw, rho, mix, noise_std, seed):
    """Simulated text features: a noisy, audio-contaminated blend of the real ones.

    out = (1 - rho) * text + rho * (noise + audio-row-mean @ mix), per sample.
    rho = 0 reproduces the real text bit-exactly.
    """
    if not 0.0 <= rho <= 1.0:
        raise DatasetError(f"degrade_text: rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return text_raw.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_std, size=text_raw.shape)
    audio_mean = audio_raw.mean(axis=0)  # [raw_dim_a]
    contaminant = noise + audio_mean @ mix  # broadcast over rows
    return (1.0 - rho) * text_raw + rho * contaminant


def _generate_split(config, split, split_idx, w_y, maps, mix):
    n = config.n_split(split)
    rng = np.random.default_rng([config.seed, split_idx, 0xDA7A])
    z = rng.normal(0.0, 1.0, size=(n, config.latent_dim))
    labels = np.clip(3.0 * np.tanh(z @ w_y), -3.0, 3.0)

    noise = {"a": config.noise_a, "v": config.noise_v, "t": config.noise_t}
    feats = {}
    for m in ("a", "v", "t"):
        base = z @ maps[m]  # [n, raw_dim]
        tiled = np.repeat(base[:, None, :], config.seq_len, axis=1)
        feats[m] = tiled + rng.normal(0.0, noise[m], size=tiled.shape)

    sim_text = np.empty_like(feats["t"])
    for i in range(n):
        sim_text[i] = degrade_text(
            feats["t"][i],
            feats["a"][i],
            config.text_degradation,
            mix,
            config.noise_t,
            seed=[config.seed, split_idx, i, 0x51B],
        )
    return Dataset(
        split=split,
        audio=feats["a"],
        vision=feats["v"],
        text=feats["t"],
        sim_text=sim_text,
        labels=labels,
        config=config,
    )


def generate_dataset(config):
    """Deterministic (config, seed) -> dict of train/val/test Datasets."""
    w_y, maps, mix = _latent_maps(config)
    return {
        split: _generate_split(config, split, idx, w_y, maps, mix)
        for idx, split in enumerate(SPLITS)
    }


# -- persistence ----------------------------------------------------------------


def write_tensor(directory, fname, arr):
    """Write one array as a `<f8` file under `directory`; returns its manifest
    entry {file, shape, bytes}."""
    raw = np.ascontiguousarray(arr, dtype=TENSOR_DTYPE).tobytes()
    (Path(directory) / fname).write_bytes(raw)
    return {"file": fname, "shape": list(np.shape(arr)), "bytes": len(raw)}


def read_tensor(directory, entry, name):
    """Read back the array of a `write_tensor` manifest entry.

    Checks that the entry has every key and that the shape, the declared byte
    count and the file length agree; a failure raises DatasetError naming the
    tensor as `name`.
    """
    missing = [key for key in ("file", "shape", "bytes") if key not in entry]
    if missing:
        raise DatasetError(f"load: tensor '{name}' manifest entry lacks {', '.join(map(repr, missing))}")
    shape = tuple(int(s) for s in entry["shape"])
    expected = int(np.prod(shape, dtype=np.int64)) * 8
    if expected != int(entry["bytes"]):
        raise DatasetError(
            f"load: tensor '{name}' manifest shape {shape} "
            f"inconsistent with declared {entry['bytes']} bytes"
        )
    # read straight into the array's own (writable) buffer: one allocation per tensor, no copy
    raw = bytearray(expected)
    with (Path(directory) / entry["file"]).open("rb") as fh:
        size = fh.readinto(raw) + len(fh.read())
    if size != expected:
        raise DatasetError(f"load: tensor '{name}' file holds {size} bytes, expected {expected}")
    return np.frombuffer(raw, dtype=TENSOR_DTYPE).reshape(shape)


def check_dtype(manifest, where):
    """Reject a manifest that declares an element type other than the codec's."""
    if manifest.get("dtype") != TENSOR_DTYPE:
        raise DatasetError(f"load: {where} declares dtype {manifest.get('dtype')!r}, expected {TENSOR_DTYPE!r}")


def save_dataset(datasets, path):
    """Write one or more splits into a directory (manifest + per-tensor .bin)."""
    if isinstance(datasets, Dataset):
        datasets = {datasets.split: datasets}
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": "modalflow-dataset-v1",
        "dtype": TENSOR_DTYPE,
        "config": asdict(next(iter(datasets.values())).config),
        "splits": {},
    }
    for split, ds in datasets.items():
        manifest["splits"][split] = {
            "n": int(ds.n),
            "tensors": {name: write_tensor(path, f"{split}_{name}.bin", arr) for name, arr in ds.tensors().items()},
        }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_dataset(path, split=None):
    """Load a directory written by save_dataset; validates shapes and byte counts.

    Returns the dict of splits, or a single Dataset when `split` is given.
    """
    path = Path(path)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise DatasetError(f"load: no manifest.json under {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != "modalflow-dataset-v1":
        raise DatasetError(f"load: unrecognized format {manifest.get('format')!r}")
    check_dtype(manifest, manifest_path)
    config = SynthConfig(**manifest["config"])

    out = {}
    for split_name, entry in manifest["splits"].items():
        arrays = {}
        for name in TENSOR_FIELDS:
            if name not in entry["tensors"]:
                raise DatasetError(f"load: split '{split_name}' missing tensor '{name}'")
            arrays[name] = read_tensor(path, entry["tensors"][name], f"{split_name}/{name}")
        out[split_name] = Dataset(split=split_name, config=config, **arrays)
    if split is not None:
        if split not in out:
            raise DatasetError(f"load: split '{split}' not present (has {sorted(out)})")
        return out[split]
    return out


# -- batching ---------------------------------------------------------------------


@dataclass
class Batch:
    indices: np.ndarray
    audio: np.ndarray
    vision: np.ndarray
    text: np.ndarray
    sim_text: np.ndarray
    labels: np.ndarray

    @property
    def n(self):
        return len(self.labels)


def batch_iter(dataset, batch_size, shuffle_seed=None):
    """Yield every sample exactly once per epoch; short final batch kept.

    shuffle_seed=None preserves dataset order; any integer (or seed sequence)
    gives a deterministic permutation.
    """
    if batch_size < 1:
        raise ValueError(f"batch_iter: batch_size must be >= 1, got {batch_size}")
    order = np.arange(dataset.n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start : start + batch_size]
        yield Batch(
            indices=idx,
            audio=dataset.audio[idx],
            vision=dataset.vision[idx],
            text=dataset.text[idx],
            sim_text=dataset.sim_text[idx],
            labels=dataset.labels[idx],
        )
