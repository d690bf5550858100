"""Small parameter sets and configs shared by the test modules."""

import numpy as np

from modalflow.fusion import MODALITIES, AttentionMaps, ModelConfig, UMCAParams
from modalflow.imagination import MIAParams
from modalflow.nn import AffineLayer
from modalflow.tensor import Tensor


def identity_affine(dim):
    return AffineLayer(Tensor(np.eye(dim)), Tensor(np.zeros(dim)))


def random_affine(rng, din, dout, std=0.3, grad=False):
    return AffineLayer(
        Tensor(rng.normal(0, std, (din, dout)), requires_grad=grad),
        Tensor(rng.normal(0, std, (dout,)), requires_grad=grad),
    )


def make_umca(rng, dim=3, raw_dims=(4, 4, 4), tau=1.0, identity_values=False, grad=False):
    """Small fusion parameter set for fixtures; optionally identity value maps."""

    def attn():
        value = identity_affine(dim) if identity_values else random_affine(rng, dim, dim, grad=grad)
        return AttentionMaps(key=random_affine(rng, dim, dim, grad=grad), value=value)

    return UMCAParams(
        proj={m: random_affine(rng, rd, dim, grad=grad) for m, rd in zip(MODALITIES, raw_dims)},
        query={m: Tensor(rng.normal(0, 1, (1, dim)), requires_grad=grad) for m in MODALITIES},
        stage1={m: attn() for m in MODALITIES},
        stage2={m: attn() for m in MODALITIES},
        afg1=random_affine(rng, 3 * dim, 3, grad=grad),
        afg2=random_affine(rng, 3 * dim, 3, grad=grad),
        head=random_affine(rng, dim, 1, grad=grad),
        tau=tau,
    )


def make_mia(rng, dim=3, hidden=2, zero_residual=False, grad=False):
    w2 = np.zeros((hidden, dim)) if zero_residual else rng.normal(0, 0.4, (hidden, dim))
    b2 = np.zeros(dim) if zero_residual else rng.normal(0, 0.4, dim)
    return MIAParams(
        W1=Tensor(rng.normal(0, 0.4, (3 * dim, hidden)), requires_grad=grad),
        b1=Tensor(rng.normal(0, 0.4, hidden), requires_grad=grad),
        W2=Tensor(w2, requires_grad=grad),
        b2=Tensor(b2, requires_grad=grad),
    )


# raw feature size per modality of the tiny test data
TINY_RAW_DIMS = {"a": 3, "v": 2, "t": 4}


def tiny_model_config(**kw):
    defaults = dict(dim=3, mia_hidden=2)
    defaults.update(kw)
    return ModelConfig(**defaults)
