"""Two-stage cross-attention fusion network with gated text imagination.

Stage 1: a learnable 1-row query per modality attends over that modality's
projected sequence. An attention-gathering MLP over the concatenated modality
representations yields softmax weights, which build seven multi-view queries
(3 unimodal, 3 bimodal, 1 trimodal weighted sums). Stage 2: the 7-row query
attends over each modality sequence again; a second gathering MLP fuses the
three results per row, the 7 rows are averaged into the final representation,
and an affine head regresses the valence.

Each block is one graph node: a cross-attention call is one
`tensor.cross_attention`, the multi-view queries and the stage-2 pooling are
each one `tensor.subset_sum`, and each imagination rewrite is one
`tensor.imagine` (see `imagination.mia_forward`).

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

from .imagination import MIAParams, mia_forward
from .nn import AffineLayer, ParamStore, require_positive
from .tensor import Tensor, concat, cross_attention, softmax, subset_sum

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
        for name in ("dim", "mia_hidden"):
            if getattr(self, name) <= 0:
                raise ValueError(f"model config: {name} must be positive")
        if self.mia_hidden >= 3 * self.dim:
            raise ValueError("model config: mia_hidden must be smaller than 3*dim")
        if self.tau_attn is None:
            self.tau_attn = math.sqrt(self.dim)
        require_positive("model config: tau_attn", self.tau_attn)


@dataclass
class AttentionMaps:
    key: AffineLayer
    value: AffineLayer


@dataclass
class UMCAParams:
    proj: dict  # modality -> AffineLayer raw_dim -> D
    query: dict  # modality -> Tensor [1, D]
    stage1: dict  # modality -> AttentionMaps
    stage2: dict  # modality -> AttentionMaps
    afg1: AffineLayer  # 3D -> 3
    afg2: AffineLayer  # 3D -> 3
    head: AffineLayer  # D -> 1
    tau: float


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


def param_views(params, config):
    """Build typed views over a name->Tensor mapping (store or detached copy)."""

    def affine(prefix):
        return AffineLayer(params[f"{prefix}.W"], params[f"{prefix}.b"])

    umca = UMCAParams(
        proj={m: affine(f"proj.{m}") for m in MODALITIES},
        query={m: params[f"query.{m}"] for m in MODALITIES},
        stage1={m: AttentionMaps(affine(f"s1.{m}.key"), affine(f"s1.{m}.val")) for m in MODALITIES},
        stage2={m: AttentionMaps(affine(f"s2.{m}.key"), affine(f"s2.{m}.val")) for m in MODALITIES},
        afg1=affine("afg1"),
        afg2=affine("afg2"),
        head=affine("head"),
        tau=config.tau_attn,
    )
    mia1 = MIAParams(params["mia1.W1"], params["mia1.b1"], params["mia1.W2"], params["mia1.b2"])
    mia2 = MIAParams(params["mia2.W1"], params["mia2.b1"], params["mia2.W2"], params["mia2.b2"])
    return umca, mia1, mia2


def project_modality(raw, m, umca):
    """Map raw per-modality features [..., S, raw_dim] into the shared dimension."""
    layer = umca.proj[m]
    if raw.shape[-1] != layer.in_dim:
        raise ValueError(
            f"project: modality '{m}' raw dim {raw.shape[-1]} != the model's input dim {layer.in_dim}"
        )
    return layer(raw)


def cross_attend(Q, E, maps, tau):
    """R = softmax(Q K^T / tau) V with K = tanh(affine(V)), V = affine(E), as
    one `tensor.cross_attention` node.

    K and V are computed over E's rows. A batched Q may carry F times E's
    batch rows (F flows sharing E); K and V then broadcast over the flow
    axis, and R comes back as [F·n, q, D].
    """
    return cross_attention(Q, E, maps.value.W, maps.value.b, maps.key.W, maps.key.b, tau)


def afg_weights(R_a, R_v, R_t, afg):
    """Softmax fusion weights over the three modalities, per leading position."""
    if R_a.shape != R_v.shape or R_a.shape != R_t.shape:
        raise ValueError(f"afg: representations must share shape, got {R_a.shape}, {R_v.shape}, {R_t.shape}")
    x = concat([R_a, R_v, R_t], axis=-1)
    return softmax(afg(x))


def multiview_queries(R, w):
    """Seven weighted-sum query rows over modality subsets.

    R[m] is [..., 1, D]; w is [..., 1, 3] ordered (a, v, t). Subset rows use
    the retained modalities' weights unchanged (no renormalization). One
    `tensor.subset_sum` node.
    """
    return subset_sum(w, [R[m] for m in MODALITIES], _SUBSET_INDICES)


def _pool_seq(R_seq, afg2):
    """Per-row fusion weights, then the modality-weighted sum and its mean over
    rows as one `tensor.subset_sum` node."""
    w = afg_weights(R_seq["a"], R_seq["v"], R_seq["t"], afg2)  # [..., 7, 3]
    return subset_sum(w, [R_seq[m] for m in MODALITIES], (_SUBSET_INDICES[-1],), mean=True)


def stage2_fuse(q_multv, E, umca, mia=None, gate_from=0):
    """Second attention stage plus pooling into the final representation r.

    With `mia` (the stage-2 MIA parameters) the text rows [gate_from:] are
    rewritten by imagination before pooling. Audio and vision may carry 1/F
    of q_multv's batch rows (see `umca_forward`).
    """
    R_seq = {m: cross_attend(q_multv, E[m], umca.stage2[m], umca.tau) for m in MODALITIES}
    if mia is not None:
        R_seq["t"] = mia_forward(R_seq["v"], R_seq["a"], R_seq["t"], mia, gate_from)
    r = _pool_seq(R_seq, umca.afg2)
    return R_seq, r


def regress(r, head):
    """Affine valence head; output is unbounded (no clamping to the label range)."""
    out = head(r)  # [..., 1]
    return out.reshape(r.shape[:-1])


def umca_forward(E, umca, mia=None, gate_from=0):
    """Full two-stage pipeline; `mia` = (stage1 params, stage2 params) gates imagination.

    With mia=None (complete flow) the text representations pass through
    untouched; with the gate on, both text representations are rewritten from
    audio+vision context before fusion. `gate_from` restricts the gate to the
    batch rows [gate_from:], so one call can run both flows stacked on the
    batch axis (complete rows first); 0 gates every row. Those flows share
    one audio and vision input: E["a"] and E["v"] may carry n batch rows
    against E["t"]'s F·n, and F is read from those row counts; the gate then
    covers the last flow's rows, gate_from = (F - 1)·n.
    """
    mia1, mia2 = mia if mia is not None else (None, None)
    flows = E["t"].shape[0] // E["a"].shape[0] if E["t"].ndim == 3 else 1
    R = {m: cross_attend(umca.query[m], E[m], umca.stage1[m], umca.tau) for m in MODALITIES}
    if mia1 is not None:  # the n audio/vision rows are the gated rows' context
        R["t"] = mia_forward(R["v"], R["a"], R["t"], mia1, gate_from)
    if flows > 1:  # the stage-1 audio/vision outputs meet text from here on
        R["a"], R["v"] = (concat([R[m]] * flows, axis=0) for m in ("a", "v"))
    w1 = afg_weights(R["a"], R["v"], R["t"], umca.afg1)
    q_multv = multiview_queries(R, w1)
    R_seq, r = stage2_fuse(q_multv, E, umca, mia2, gate_from)
    y_hat = regress(r, umca.head)
    return FlowOutputs(stage1=R, afg1_w=w1, q_multv=q_multv, seq=R_seq, r=r, y_hat=y_hat)
