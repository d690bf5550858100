"""Two-stage cross-attention fusion network with gated text imagination.

Stage 1: a learnable 1-row query per modality attends over that modality's
projected sequence. An attention-gathering MLP over the concatenated modality
representations yields softmax weights, which build seven multi-view queries
(3 unimodal, 3 bimodal, 1 trimodal weighted sums). Stage 2: the 7-row query
attends over each modality sequence again; a second gathering MLP fuses the
three results per row, the 7 rows are averaged into the final representation,
and an affine head regresses the valence. On the text-missing flow, two
residual imagination autoencoders (`mia_forward`) rewrite the simulated text
at stage 1 and stage 2. Every forward function reads the parameters by their
`param_shapes` names from the name -> Tensor mapping it is given.

Each block is one graph node: a cross-attention call is one
`tensor.cross_attention`, the multi-view queries and the stage-2 pooling are
each one `tensor.subset_sum`, and each imagination rewrite is one
`tensor.imagine`.

All forward functions accept an optional leading batch axis: per-sample
shapes are [q, D]/[S, D], batched shapes [B, q, D]/[B, S, D]. In
`umca_forward`, audio and vision may carry n batch rows against F·n text rows
(F flows stacked on the batch axis that share one audio and vision input):
their projection, stage-1 attention and stage-2 keys and values then run once
over n rows. Stage-1 imagination reads the n audio and vision rows as the
context of the gated text rows, and the stage-1 outputs are repeated F times
where they next meet text; in stage 2, `tensor.cross_attention` views the F·n
query rows as [F, n, 7, D], so that the shared keys and values broadcast over
the flow axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import ParamStore, check_field_types, require_positive
from .tensor import ShapeError, Tensor, affine, concat, cross_attention, imagine, softmax, subset_sum

MODALITIES = ("a", "v", "t")  # audio, vision, text; order fixed

INIT_STD = 0.02  # of the Gaussian weights

# Multi-view query rows, in fixed order.
SUBSETS = (("a",), ("v",), ("t",), ("a", "v"), ("a", "t"), ("v", "t"), ("a", "v", "t"))
_SUBSET_INDICES = tuple(tuple(MODALITIES.index(m) for m in subset) for subset in SUBSETS)


@dataclass
class ModelConfig:
    dim: int = 32
    mia_hidden: int = 16
    tau_attn: float | None = None  # None -> sqrt(dim)

    def __post_init__(self):
        if self.tau_attn is not None:  # first, so a non-number names the whole rule
            require_positive("model config: tau_attn", self.tau_attn)
        check_field_types(self, "model config")
        for name in ("dim", "mia_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"model config: {name} must be positive")
        if self.mia_hidden >= 3 * self.dim:
            raise ValueError("model config: mia_hidden must be smaller than 3*dim")
        if self.tau_attn is None:
            self.tau_attn = math.sqrt(self.dim)


@dataclass
class FlowOutputs:
    stage1: dict  # modality -> Tensor [..., 1, D], text post-imagination when gated
    afg1_w: Tensor  # [..., 1, 3]
    q_multv: Tensor  # [..., 7, D]
    seq: dict  # modality -> Tensor [..., 7, D], text post-imagination when gated
    r: Tensor  # [..., D]
    y_hat: Tensor  # [...]


def param_shapes(config, raw_dims):
    """Name -> shape of every model parameter, in store order, which is the
    order `init_model` draws them in. `raw_dims` maps each modality to its
    raw feature size (the data's last axis), the input size of that
    modality's projection."""
    d, hidden = config.dim, config.mia_hidden
    shapes = {}

    def affine(prefix, in_dim, out_dim):
        shapes[f"{prefix}.W"] = (in_dim, out_dim)
        shapes[f"{prefix}.b"] = (out_dim,)

    for m in MODALITIES:
        affine(f"proj.{m}", raw_dims[m], d)
    for m in MODALITIES:
        shapes[f"query.{m}"] = (1, d)
    for stage in ("s1", "s2"):
        for m in MODALITIES:
            affine(f"{stage}.{m}.val", d, d)
            affine(f"{stage}.{m}.key", d, d)
    affine("afg1", 3 * d, 3)
    affine("afg2", 3 * d, 3)
    affine("head", d, 1)
    for tag in ("mia1", "mia2"):
        shapes.update({f"{tag}.W1": (3 * d, hidden), f"{tag}.b1": (hidden,)})
        shapes.update({f"{tag}.W2": (hidden, d), f"{tag}.b2": (d,)})
    return shapes


def init_model(config, raw_dims, seed):
    """A `ParamStore` of every parameter of `param_shapes`: weights drawn
    from N(0, INIT_STD^2) in store order, and zero biases (the 1-D
    parameters); deterministic per seed. A non-positive dimension, such as a
    raw feature size of 0, raises ValueError naming the shape."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(config, raw_dims).items():
        if min(shape) <= 0:
            raise ValueError(f"init: non-positive dimension in {shape} for parameter '{name}'")
        arrays[name] = np.zeros(shape) if len(shape) == 1 else rng.normal(0.0, INIT_STD, size=shape)
    return ParamStore(arrays)


def project_modality(raw, m, p):
    """Map raw per-modality features [..., S, raw_dim] into the shared
    dimension with `proj.{m}.W` and `proj.{m}.b`."""
    W = p[f"proj.{m}.W"]
    if raw.shape[-1] != W.shape[0]:
        raise ValueError(
            f"project: modality '{m}' raw dim {raw.shape[-1]} != the model's input dim {W.shape[0]}"
        )
    return affine(raw, W, p[f"proj.{m}.b"])


def cross_attend(Q, E, p, prefix, tau):
    """R = softmax(Q K^T / tau) V with K = tanh(affine(V)), V = affine(E), as
    one `tensor.cross_attention` node; the value map is `{prefix}.val` and the
    key map `{prefix}.key`.

    K and V are computed over E's rows. A batched Q may carry F times E's
    batch rows (F flows sharing E); K and V then broadcast over the flow
    axis, and R comes back as [F·n, q, D].
    """
    val, key = f"{prefix}.val", f"{prefix}.key"
    return cross_attention(Q, E, p[f"{val}.W"], p[f"{val}.b"], p[f"{key}.W"], p[f"{key}.b"], tau)


def afg_weights(R_a, R_v, R_t, p, prefix):
    """Softmax fusion weights over the three modalities, per leading position,
    from the gathering map `{prefix}.W`, `{prefix}.b`. The representations
    must share one shape (`concat` and `affine` would pass last axes that
    differ but sum to the gate's input size); else ShapeError."""
    if not R_a.shape == R_v.shape == R_t.shape:
        raise ShapeError(f"afg: representations must share one shape, got {R_a.shape}, {R_v.shape}, {R_t.shape}")
    x = concat([R_a, R_v, R_t], axis=-1)
    return softmax(affine(x, p[f"{prefix}.W"], p[f"{prefix}.b"]))


def multiview_queries(R, w):
    """Seven weighted-sum query rows over modality subsets.

    R[m] is [..., 1, D]; w is [..., 1, 3] ordered (a, v, t). Subset rows use
    the retained modalities' weights unchanged (no renormalization). One
    `tensor.subset_sum` node.
    """
    return subset_sum(w, [R[m] for m in MODALITIES], _SUBSET_INDICES)


def mia_forward(R_v, R_a, R_t_hat, p, tag, gate_from=0):
    """Residual imagination (`{tag}.W1`, `.b1`, `.W2`, `.b2`) of the simulated
    text rows [gate_from:], as one `tensor.imagine` node.

    H = tanh(cat(R_v, R_a, R_t_hat) @ W1 + b1); out = R_t_hat + tanh(H @ W2 + b2)
    on those rows; the rows before gate_from pass through. The residual is
    tanh-bounded, so |out - R_t_hat| <= 1 elementwise. R_v and R_a hold either
    R_t_hat's rows or only the gated ones (audio and vision shared by the
    flows stacked in R_t_hat).
    """
    W1, b1, W2, b2 = (p[f"{tag}.{name}"] for name in ("W1", "b1", "W2", "b2"))
    return imagine(R_v, R_a, R_t_hat, W1, b1, W2, b2, gate_from)


def stage2_fuse(q_multv, E, p, gate_from, tau):
    """Second attention stage plus pooling into the final representation r:
    per-row fusion weights, then the modality-weighted sum and its mean over
    rows as one `tensor.subset_sum` node.

    With `gate_from` an int, the stage-2 imagination (`mia2`) rewrites the
    text rows [gate_from:] before pooling; None leaves them untouched. Audio
    and vision may carry 1/F of q_multv's batch rows (see `umca_forward`).
    """
    R_seq = {m: cross_attend(q_multv, E[m], p, f"s2.{m}", tau) for m in MODALITIES}
    if gate_from is not None:
        R_seq["t"] = mia_forward(R_seq["v"], R_seq["a"], R_seq["t"], p, "mia2", gate_from)
    w = afg_weights(R_seq["a"], R_seq["v"], R_seq["t"], p, "afg2")  # [..., 7, 3]
    r = subset_sum(w, [R_seq[m] for m in MODALITIES], (_SUBSET_INDICES[-1],), mean=True)
    return R_seq, r


def regress(r, p):
    """Affine valence head (`head.W`, `head.b`); output is unbounded (no
    clamping to the label range)."""
    out = affine(r, p["head.W"], p["head.b"])  # [..., 1]
    return out.reshape(r.shape[:-1])


def umca_forward(E, p, gate_from, tau):
    """Full two-stage pipeline; an int `gate_from` gates imagination.

    With gate_from=None (complete flow) the text representations pass
    through untouched; with an int, both text representations of the batch
    rows [gate_from:] are rewritten from audio+vision context before fusion,
    so one call can run both flows stacked on the batch axis (complete rows
    first); 0 gates every row. Those flows share one audio and vision input:
    E["a"] and E["v"] may carry n batch rows against E["t"]'s F·n, and F is
    read from those row counts; the gate then covers the last flow's rows,
    gate_from = (F - 1)·n.
    """
    flows = E["t"].shape[0] // E["a"].shape[0] if E["t"].ndim == 3 else 1
    R = {m: cross_attend(p[f"query.{m}"], E[m], p, f"s1.{m}", tau) for m in MODALITIES}
    if gate_from is not None:  # the n audio/vision rows are the gated rows' context
        R["t"] = mia_forward(R["v"], R["a"], R["t"], p, "mia1", gate_from)
    if flows > 1:  # the stage-1 audio/vision outputs meet text from here on
        R["a"], R["v"] = (concat([R[m]] * flows, axis=0) for m in ("a", "v"))
    w1 = afg_weights(R["a"], R["v"], R["t"], p, "afg1")
    q_multv = multiview_queries(R, w1)
    R_seq, r = stage2_fuse(q_multv, E, p, gate_from, tau)
    y_hat = regress(r, p)
    return FlowOutputs(stage1=R, afg1_w=w1, q_multv=q_multv, seq=R_seq, r=r, y_hat=y_hat)
