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
one codec for these files, and `save_record`/`open_record` the one envelope
around them: datasets and checkpoints (`training.save_checkpoint`) both use
them and choose only their format tag, fields, file names and tensor table. A
save first removes the tensor files the directory's old manifest names, then
that manifest, and writes the new one last, atomically, so a save that stops
partway leaves a directory that fails to load, and a smaller re-save leaves no
stale tensor files. A load checks the manifest's structure (objects where
objects belong, plain file names inside the directory) and, for a dataset, the
tensors' shapes against each other and the split's declared size; every
failure raises DatasetError.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .nn import check_field_types

SPLITS = ("train", "val", "test")
TENSOR_FIELDS = ("audio", "vision", "text", "sim_text", "labels")

# Text carries the strongest signal; noise levels keep audio ahead of vision.
TEXT_SIGNAL_GAIN = 1.2

# the codec's one element type, declared as "dtype" in every manifest
TENSOR_DTYPE = "<f8"
DATASET_FORMAT = "modalflow-dataset-v1"


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
        check_field_types(self, "synth config")
        for name in ("n_train", "n_val", "n_test", "seq_len", "raw_dim_a", "raw_dim_v", "raw_dim_t", "latent_dim"):
            if getattr(self, name) < 1:
                raise DatasetError(f"synth config: {name} must be >= 1")
        for name in ("noise_a", "noise_v", "noise_t"):
            if getattr(self, name) < 0:
                raise DatasetError(f"synth config: {name} must be >= 0")
        if not 0.0 <= self.text_degradation <= 1.0:
            raise DatasetError(f"synth config: text_degradation must be in [0, 1], got {self.text_degradation}")
        if self.seed < 0:
            raise DatasetError(f"synth config: seed must be >= 0, got {self.seed}")

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


def _seed_words(parts):
    """The uint32 entropy words `np.random.SeedSequence` derives from a list
    of non-negative ints: each int's 32-bit words, least significant first,
    one word for 0. Seeding from these words gives the list's stream."""
    return np.array(
        [(p >> shift) & 0xFFFFFFFF for p in parts for shift in range(0, max(p.bit_length(), 1), 32)],
        dtype=np.uint32,
    )


def degrade_text(text, audio, rho, mix, noise_std, seed):
    """Simulated text features: a noisy, audio-contaminated blend of the real ones.

    For samples text [n, S, raw_t] and audio [n, S, raw_a],
    out[i] = (1 - rho) * text[i] + rho * (noise_i + audio[i].mean(axis=0) @ mix),
    where noise_i ~ N(0, noise_std^2) of shape [S, raw_t] comes from sample
    i's own stream, `default_rng([*seed, i, 0x51B])`. rho = 0 reproduces the
    real text bit-exactly.
    """
    if not 0.0 <= rho <= 1.0:
        raise DatasetError(f"degrade_text: rho must be in [0, 1], got {rho}")
    if rho == 0.0:
        return text.copy()
    out = np.empty(text.shape)
    # one entropy array for every stream; only sample i's word, second to last, changes (n < 2**32)
    entropy = _seed_words([*seed, 0, 0x51B])
    for i in range(len(out)):
        entropy[-2] = i
        out[i] = np.random.default_rng(entropy).normal(0.0, noise_std, size=out.shape[1:])
    # a stack of [1, raw_a] @ [raw_a, raw_t] products: the vector-matrix kernel, as per sample
    out += np.matmul(audio.mean(axis=1)[:, None, :], mix)
    out *= rho
    out += (1.0 - rho) * text
    return out


def _generate_split(config, split, split_idx, w_y, maps, mix):
    n = config.n_split(split)
    rng = np.random.default_rng([config.seed, split_idx, 0xDA7A])
    z = rng.normal(0.0, 1.0, size=(n, config.latent_dim))
    labels = np.clip(3.0 * np.tanh(z @ w_y), -3.0, 3.0)

    noise = {"a": config.noise_a, "v": config.noise_v, "t": config.noise_t}
    feats = {}
    for m in ("a", "v", "t"):
        feats[m] = rng.normal(0.0, noise[m], size=(n, config.seq_len, config.raw_dim(m)))
        feats[m] += (z @ maps[m])[:, None, :]  # the latent signal, broadcast over the sequence

    sim_text = degrade_text(
        feats["t"], feats["a"], config.text_degradation, mix, config.noise_t, seed=(config.seed, split_idx)
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
    values = np.ascontiguousarray(arr, dtype=TENSOR_DTYPE)
    (Path(directory) / fname).write_bytes(values)  # the array's own buffer, not a bytes copy of it
    return {"file": fname, "shape": list(np.shape(arr)), "bytes": values.nbytes}


def _is_plain_name(fname):
    """True for a file name that stays inside its directory: no path
    separator, not absolute, not `.` or `..`."""
    if not isinstance(fname, str) or fname in ("", ".", ".."):
        return False
    return not any(sep in fname for sep in ("/", "\\", os.sep))


def read_tensor(directory, entry, name):
    """Read back the array of a `write_tensor` manifest entry.

    Checks that the entry is an object with every key, that its file is a
    plain name inside `directory`, that its shape is a list of non-negative
    ints that numpy can make an array of, and that the shape, the declared
    byte count and the file length agree; a failure raises DatasetError
    naming the tensor as `name`.
    """
    require_object(entry, f"tensor '{name}' manifest entry")
    missing = [key for key in ("file", "shape", "bytes") if key not in entry]
    if missing:
        raise DatasetError(f"load: tensor '{name}' manifest entry lacks {', '.join(map(repr, missing))}")
    if not _is_plain_name(entry["file"]):
        raise DatasetError(f"load: tensor '{name}' file {entry['file']!r} is not a plain file name inside {directory}")
    shape, size = entry["shape"], entry["bytes"]
    if not isinstance(shape, list) or not all(_is_count(s) for s in shape) or not _is_count(size):
        raise DatasetError(f"load: tensor '{name}' needs a shape list and a byte count of non-negative ints")
    shape = tuple(shape)
    expected = math.prod(shape) * 8  # Python ints: a shape's count cannot wrap
    if expected != size:
        raise DatasetError(f"load: tensor '{name}' manifest shape {shape} inconsistent with declared {size} bytes")
    with (Path(directory) / entry["file"]).open("rb") as fh:
        # checked before the array is allocated, so a manifest cannot ask for more memory than its file holds
        held = os.fstat(fh.fileno()).st_size
        if held != expected:
            raise DatasetError(f"load: tensor '{name}' file holds {held} bytes, expected {expected}")
        try:
            values = np.empty(shape, TENSOR_DTYPE)
        except ValueError as exc:  # an empty shape with a dimension or axis count past numpy's limits
            raise DatasetError(
                f"load: tensor '{name}' manifest shape {shape} is past numpy's array limits: {exc}"
            ) from None
        # read straight into the array's own buffer: one allocation per tensor, no copy
        read = fh.readinto(values)
    if read != expected:  # a file cut short since its length was read: the rest of the array is unset
        raise DatasetError(f"load: tensor '{name}' file holds {read} bytes, expected {expected}")
    return values


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def require_object(value, where):
    """`value` if it is a JSON object (a dict), else DatasetError naming `where`."""
    if not isinstance(value, dict):
        raise DatasetError(f"load: {where} must be a JSON object, got {type(value).__name__}")
    return value


def _named_files(manifest_path):
    """The plain tensor file names an old manifest names, in a dataset's
    splits or a checkpoint's tensors; none if it cannot be read as one."""
    try:
        manifest = json.loads(manifest_path.read_text())
        groups = [manifest.get("tensors", {})] + [s.get("tensors", {}) for s in manifest.get("splits", {}).values()]
        return {e.get("file") for g in groups for e in g.values()}
    except (OSError, ValueError, AttributeError, TypeError):
        return set()


@contextmanager
def save_record(path, fmt, **fields):
    """Save one record into the directory `path`; yields (path, manifest), the
    manifest holding `format`, `dtype` and `fields`, for the body to add its
    table of `write_tensor` entries. The tensor files the old manifest names
    (plain names only) go first, then that manifest; the new one is written
    last, through a temp file renamed over, and only if the body returned."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest_path = path / "manifest.json"
    for fname in _named_files(manifest_path):
        if _is_plain_name(fname):
            (path / fname).unlink(missing_ok=True)
    manifest_path.unlink(missing_ok=True)
    manifest = {"format": fmt, "dtype": TENSOR_DTYPE, **fields}
    yield path, manifest
    tmp = path / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, manifest_path)


def open_record(path, fmt, keys):
    """The manifest of a record `save_record(path, fmt, ...)` wrote, once it is
    known to exist, to be a JSON object, to declare `fmt` and the codec's
    dtype, and to hold every key in `keys`; else DatasetError naming the fault."""
    manifest_path = Path(path) / "manifest.json"
    if not manifest_path.exists():
        raise DatasetError(f"load: no manifest.json under {path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise DatasetError(f"load: {manifest_path} is not JSON: {exc}") from None
    require_object(manifest, manifest_path)
    if manifest.get("format") != fmt:
        raise DatasetError(f"load: {manifest_path} has unrecognized format {manifest.get('format')!r}, expected {fmt!r}")
    if manifest.get("dtype") != TENSOR_DTYPE:
        raise DatasetError(f"load: {manifest_path} declares dtype {manifest.get('dtype')!r}, expected {TENSOR_DTYPE!r}")
    require_keys(manifest, keys, manifest_path)
    return manifest


def require_keys(manifest, keys, where):
    """Raise DatasetError naming each of `keys` that `manifest` lacks."""
    missing = [key for key in keys if key not in manifest]
    if missing:
        raise DatasetError(f"load: {where} lacks {', '.join(map(repr, missing))}")


def config_from(cls, manifest, key, where):
    """`cls(**manifest[key])`; an unknown, ill-typed or out-of-range field raises DatasetError."""
    try:
        return cls(**manifest[key])
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"load: {where} '{key}': {exc}") from None


def require_splits(datasets, names):
    """Raise DatasetError naming the first of `names` that the mapping of
    splits `datasets` lacks, and the splits it has."""
    for name in names:
        if name not in datasets:
            raise DatasetError(f"split '{name}' not present (has {sorted(datasets)})")


def save_dataset(datasets, path):
    """Write one or more splits into a directory (manifest + per-tensor .bin)."""
    if isinstance(datasets, Dataset):
        datasets = {datasets.split: datasets}
    config = asdict(next(iter(datasets.values())).config)
    with save_record(path, DATASET_FORMAT, config=config) as (path, manifest):
        manifest["splits"] = {
            split: {
                "n": int(ds.n),
                "tensors": {name: write_tensor(path, f"{split}_{name}.bin", arr) for name, arr in ds.tensors().items()},
            }
            for split, ds in datasets.items()
        }


def load_dataset(path, split=None):
    """Load a directory written by save_dataset; validates shapes and byte counts.

    Returns the dict of splits, or a single Dataset when `split` is given; then
    only that split's tensor files are read and checked.
    """
    manifest = open_record(path, DATASET_FORMAT, ("config", "splits"))
    config = config_from(SynthConfig, manifest, "config", f"dataset at {path}")
    splits = require_object(manifest["splits"], f"dataset at {path} 'splits'")
    if split is not None:
        require_splits(splits, (split,))
        return _load_split(path, config, split, splits[split])
    return {name: _load_split(path, config, name, entry) for name, entry in splits.items()}


def _load_split(path, config, split, entry):
    """One split's Dataset. Its tensors must share the leading axis `n` the
    manifest declares; labels are 1-D, the four feature tensors 3-D with one
    sequence length, and text and sim_text have one shape."""
    where = f"split '{split}'"
    require_keys(require_object(entry, where), ("n", "tensors"), where)
    tensors = require_object(entry["tensors"], f"{where} 'tensors'")
    arrays = {}
    for name in TENSOR_FIELDS:
        if name not in tensors:
            raise DatasetError(f"load: split '{split}' missing tensor '{name}'")
        arrays[name] = read_tensor(path, tensors[name], f"{split}/{name}")
    shapes = {name: arr.shape for name, arr in arrays.items()}
    features = [shapes[name] for name in TENSOR_FIELDS if name != "labels"]
    if (
        any(s[:1] != (entry["n"],) for s in shapes.values())
        or len(shapes["labels"]) != 1
        or any(len(s) != 3 or s[1] != features[0][1] for s in features)
        or shapes["text"] != shapes["sim_text"]
    ):
        raise DatasetError(
            f"load: {where} declares n={entry['n']!r} but has tensor shapes {shapes}; "
            "need [n] labels and [n, S, raw] audio, vision, text and sim_text with one S, text and sim_text alike"
        )
    return Dataset(split=split, config=config, **arrays)


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

    shuffle_seed=None preserves dataset order and yields views into the
    dataset's arrays, which must be treated as read-only; any integer (or seed
    sequence) gives a deterministic permutation and batches of copies.
    """
    if batch_size < 1:
        raise ValueError(f"batch_iter: batch_size must be >= 1, got {batch_size}")
    order = np.arange(dataset.n)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        idx = order[start : start + batch_size]
        # in dataset order a basic slice, which views the arrays; shuffled, a fancy index, which copies
        rows = slice(start, start + batch_size) if shuffle_seed is None else idx
        yield Batch(
            indices=idx,
            audio=dataset.audio[rows],
            vision=dataset.vision[rows],
            text=dataset.text[rows],
            sim_text=dataset.sim_text[rows],
            labels=dataset.labels[rows],
        )
