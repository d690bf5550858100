"""Small parameter sets and configs shared by the test modules, the
composed graphs that the engine's fused ops replace, and the per-sample
dataset generator that the batched one replaces."""

import numpy as np

from modalflow.data import SPLITS, _latent_maps
from modalflow.fusion import ModelConfig, param_shapes
from modalflow.tensor import Tensor, affine, attend, backward, concat


def make_params(rng, config, raw_dims, grad=False, **overrides):
    """Name -> Tensor over every parameter of `param_shapes`, each drawn from
    N(0, 0.3^2) in table order, except the named overrides (arrays of the
    table's shape), e.g. `**{"s1.a.val.W": np.eye(dim)}`."""
    shapes = param_shapes(config, raw_dims)
    unknown = overrides.keys() - shapes.keys()
    assert not unknown, f"not model parameters: {sorted(unknown)}"
    params = {}
    for name, shape in shapes.items():
        values = overrides[name] if name in overrides else rng.normal(0, 0.3, shape)
        assert np.shape(values) == shape, f"{name}: {np.shape(values)} != {shape}"
        params[name] = Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)
    return params


# raw feature size per modality of the tiny test data
TINY_RAW_DIMS = {"a": 3, "v": 2, "t": 4}


# make_params overrides for tiny_model_config(): zero second imagination
# layers, so each imagination rewrite adds a zero residual
TINY_ZERO_RESIDUAL = {f"{tag}.{name}": np.zeros(shape)
                      for tag in ("mia1", "mia2") for name, shape in (("W2", (2, 3)), ("b2", (3,)))}


def tiny_model_config(**kw):
    defaults = dict(dim=3, mia_hidden=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


# -- composed references of the fused ops ------------------------------------------
#
# Each builds, from primitives, the graph that one fused op of `tensor` makes
# as one node, with the same arguments.


def composed_cross_attention(Q, E, Wv, bv, Wk, bk, tau):
    V = affine(E, Wv, bv)
    return attend(Q, affine(V, Wk, bk).tanh(), V, tau)


def composed_subset_sum(w, R, subsets, mean=False):
    terms = [w.narrow(-1, i, i + 1) * t for i, t in enumerate(R)]
    rows = []
    for subset in subsets:
        row = terms[subset[0]]
        for i in subset[1:]:
            row = row + terms[i]
        rows.append(row)
    out = rows[0] if len(rows) == 1 else concat(rows, axis=-2)
    return out.mean(axis=-2) if mean else out


def composed_imagine(R_v, R_a, R_t, W1, b1, W2, b2, gate_from=0):
    """Context of fewer rows than R_t is repeated to R_t's rows first, as the
    stacked flows once shared it."""
    rows = R_t.shape[0]
    ctx = [c if c.shape[0] == rows else concat([c] * (rows // c.shape[0]), axis=0) for c in (R_v, R_a)]

    def rewrite(v, a, t):
        h = affine(concat([v, a, t], axis=-1), W1, b1).tanh()
        return t + affine(h, W2, b2).tanh()

    if gate_from == 0:
        return rewrite(*ctx, R_t)
    gated = [x.narrow(0, gate_from, rows) for x in (*ctx, R_t)]
    return concat([R_t.narrow(0, 0, gate_from), rewrite(*gated)], axis=0)


def composed_rmse_halves(x, detach_first=False):
    n = x.shape[0] // 2
    a, b = x.narrow(0, 0, n), x.narrow(0, n, 2 * n)
    diff = (a.detach() if detach_first else a) - b
    return (diff.square().sum() * (1.0 / diff.size)).sqrt()


def composed_mse(y, y_hat):
    return (y - y_hat).square().mean()


def composed_weighted_sum(terms, weights):
    total = None
    for t, w in zip(terms, weights):
        total = t * w if total is None else total + t * w
    return total


def assert_fused_matches_composed(fused, composed, point, rng):
    """Run a fused op and the composed graph it replaces on the same inputs.

    `fused` and `composed` map a list of Tensors (fresh requires_grad copies of
    `point`) to an output Tensor. The outputs must be bitwise equal, and the
    gradient of each input, under one random cotangent of the output, must
    agree within 1e-12 of the composed gradient's largest entry: the two
    graphs may sum fanned-in gradients in another order.
    """
    outs, grads = [], []
    cotangent = None
    for f in (fused, composed):
        leaves = [Tensor(p.values.copy(), requires_grad=True) for p in point]
        out = f(leaves)
        if cotangent is None:
            cotangent = Tensor(rng.normal(size=out.shape))
        g = backward((out * cotangent).sum())
        outs.append(out.values)
        grads.append([g.get(leaf) for leaf in leaves])
    assert outs[0].shape == outs[1].shape and np.array_equal(outs[0], outs[1]), "forward differs"
    for i, (got, want) in enumerate(zip(*grads)):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0), f"input {i}"


# -- the per-sample dataset generator ----------------------------------------------
#
# The split generator as one Python loop over samples, each sample's simulated
# text built on its own; `data.generate_dataset` must equal it bit for bit.


def per_sample_degrade_text(text_raw, audio_raw, rho, mix, noise_std, seed):
    """One sample's simulated text: text_raw [S, raw_t], audio_raw [S, raw_a]."""
    if rho == 0.0:
        return text_raw.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_std, size=text_raw.shape)
    contaminant = noise + audio_raw.mean(axis=0) @ mix
    return (1.0 - rho) * text_raw + rho * contaminant


def per_sample_generate_dataset(config):
    """Split name -> {tensor field: array}, as `data.generate_dataset` makes them."""
    w_y, maps, mix = _latent_maps(config)
    noise = {"a": config.noise_a, "v": config.noise_v, "t": config.noise_t}
    out = {}
    for split_idx, split in enumerate(SPLITS):
        n = config.n_split(split)
        rng = np.random.default_rng([config.seed, split_idx, 0xDA7A])
        z = rng.normal(0.0, 1.0, size=(n, config.latent_dim))
        feats = {}
        for m in ("a", "v", "t"):
            tiled = np.repeat((z @ maps[m])[:, None, :], config.seq_len, axis=1)
            feats[m] = tiled + rng.normal(0.0, noise[m], size=tiled.shape)
        sim_text = np.empty_like(feats["t"])
        for i in range(n):
            sim_text[i] = per_sample_degrade_text(
                feats["t"][i], feats["a"][i], config.text_degradation, mix, config.noise_t,
                seed=[config.seed, split_idx, i, 0x51B],
            )
        out[split] = {
            "audio": feats["a"], "vision": feats["v"], "text": feats["t"], "sim_text": sim_text,
            "labels": np.clip(3.0 * np.tanh(z @ w_y), -3.0, 3.0),
        }
    return out
