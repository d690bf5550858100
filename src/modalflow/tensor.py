"""Reverse-mode autodiff over dense float64 arrays.

A Tensor wraps a numpy array. Results of primitives remember their parents
and a backward closure; ``backward`` replays the tape in reverse topological
order and accumulates gradients into the ``requires_grad`` leaves. Graphs are
rebuilt on every forward pass (dynamic tape), so the same parameters can run
through several different graphs per training step.

Gradient accumulation follows the multivariate chain rule: a leaf used in
several places receives the sum of the per-use gradients. A computation graph
is confined to one thread; tensors themselves are plain value holders and may
be shared read-only. ``profile`` times every op, forward and backward, on the
thread that turns it on.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform to a primitive's shape rule."""


class DomainError(ValueError):
    """Operand values are outside a primitive's documented domain."""


class Tensor:
    __slots__ = ("values", "requires_grad", "op", "parents", "_backward_fn")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.op = None
        self.parents = ()
        self._backward_fn = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    @property
    def size(self):
        return self.values.size

    @property
    def attached(self):
        """True if this tensor participates in a gradient graph."""
        return self.requires_grad or bool(self.parents)

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.values.reshape(()))

    def __repr__(self):
        tag = self.op or ("leaf" if self.requires_grad else "const")
        return f"Tensor(shape={self.shape}, {tag})"

    # -- graph plumbing -------------------------------------------------------

    def detach(self):
        """Value-identical tensor cut loose from the graph.

        Gradients never flow through the result; used for stop-gradient
        (distillation teacher targets).
        """
        return Tensor(self.values)

    # -- operator sugar -------------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    # -- elementwise / reduction methods --------------------------------------

    def tanh(self):
        return tanh(self)

    def sqrt(self):
        return sqrt(self)

    def square(self):
        return mul(self, self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        total = reduce_sum(self, axis=axis, keepdims=keepdims)
        return total * (total.size / self.size)  # 1 / (entries per sum), correctly rounded

    def reshape(self, shape):
        return reshape(self, shape)

    def narrow(self, axis, start, stop):
        return narrow(self, axis, start, stop)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(op, values, parents, backward_fn):
    out = Tensor(values)
    if _profile is not None:
        backward_fn = _profile.charge_forward(op, backward_fn)
    if any(p.attached for p in parents):
        out.op = op
        out.parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    shape = tuple(shape)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(op, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- primitives ---------------------------------------------------------------


def add(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("add", a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result("add", a.values + b.values, (a, b), bwd)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("sub", a, b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result("sub", a.values - b.values, (a, b), bwd)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    _check_broadcast("mul", a, b)
    av, bv = a.values, b.values

    def bwd(g):
        ga = _unbroadcast(g * bv, a.shape) if a.attached else None
        gb = _unbroadcast(g * av, b.shape) if b.attached else None
        return ga, gb

    return _result("mul", av * bv, (a, b), bwd)


def _affine_values(xv, Wv, bv):
    # per-sample np.matmul: a folded-row GEMM differed bitwise at 15 of 168 shapes, breaking train/eval per-half identity
    out = np.matmul(xv, Wv)
    out += bv  # in place: the same sum as matmul + b, without a second [..., out] array
    return out


def _affine_grads(g, xv, Wv, need_x, need_W):
    """Gradients of x, W and b from the gradient g of x @ W + b."""
    # W is shared by every leading row of x, so both gradients are one GEMM
    # over the folded rows; a GEMM against a contiguous copy of W^T measured
    # faster than against the view, and b's, the sum of the rows, is a GEMV,
    # 2-5x faster than rows.sum(0) at 256-896 rows
    rows = g.reshape(-1, g.shape[-1])
    gx = (rows @ np.ascontiguousarray(Wv.T)).reshape(xv.shape) if need_x else None
    gW = xv.reshape(-1, xv.shape[-1]).T @ rows if need_W else None
    return gx, gW, np.ones(len(rows)) @ rows


def _check_affine(op, x_shape, W, b):
    if not x_shape or W.ndim != 2 or x_shape[-1] != W.shape[0] or b.shape != (W.shape[1],):
        raise ShapeError(f"{op}: need [..., in] @ [in, out] + [out], got {x_shape}, {W.shape}, {b.shape}")


def affine(x, W, b):
    """x @ W + b on the last axis of x; W is [in, out], b is [out]."""
    x, W, b = _lift(x), _lift(W), _lift(b)
    _check_affine("affine", x.shape, W, b)
    xv, Wv = x.values, W.values

    def bwd(g):
        return _affine_grads(g, xv, Wv, x.attached, W.attached)

    return _result("affine", _affine_values(xv, Wv, b.values), (x, W, b), bwd)


def reshape(a, shape):
    a = _lift(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape

    def bwd(g):
        return (g.reshape(old),)

    return _result("reshape", a.values.reshape(shape), (a,), bwd)


def concat(tensors, axis):
    tensors = [_lift(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty operand list")
    axis = int(axis)
    nd = tensors[0].ndim
    ax = axis % nd
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if t.ndim != nd or ref[:ax] != other[:ax] or ref[ax + 1 :] != other[ax + 1 :]:
            raise ShapeError(f"concat: shape {t.shape} incompatible with {tensors[0].shape} on axis {axis}")
    sizes = [t.shape[ax] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=ax))

    return _result("concat", np.concatenate([t.values for t in tensors], axis=ax), tensors, bwd)


def narrow(a, axis, start, stop):
    """Contiguous slice [start:stop) along one axis."""
    a = _lift(a)
    ax = int(axis) % a.ndim
    start, stop = int(start), int(stop)
    if not (0 <= start < stop <= a.shape[ax]):
        raise ShapeError(f"slice: [{start}:{stop}) out of range for axis {ax} of {a.shape}")
    index = tuple(slice(None) if i != ax else slice(start, stop) for i in range(a.ndim))
    src_shape = a.shape

    def bwd(g):
        full = np.zeros(src_shape)
        full[index] = g
        return (full,)

    return _result("slice", a.values[index].copy(), (a,), bwd)


def _tanh_slope(y):
    """1 - y**2, the derivative of tanh at its output y, as a new array."""
    slope = y * y
    np.subtract(1.0, slope, out=slope)
    return slope


def tanh(a):
    a = _lift(a)
    y = np.tanh(a.values)

    def bwd(g):
        return (g * _tanh_slope(y),)

    return _result("tanh", y, (a,), bwd)


def sqrt(a):
    a = _lift(a)
    if np.any(a.values < 0.0):
        raise DomainError("sqrt: operand has negative entries")
    y = np.sqrt(a.values)

    def bwd(g):
        # derivative is undefined at 0; use subgradient 0 there (a cusp minimum)
        # so RMSE-style losses stay finite when the two flows coincide exactly
        return (g * (0.5 / np.maximum(y, 1e-100)),)

    return _result("sqrt", y, (a,), bwd)


def _row_max(z):
    """z.max(axis=-1, keepdims=True) as np.maximum over halves of the last
    axis: exact, and faster than a reduction over a short last axis."""
    while z.shape[-1] > 1:
        half = z.shape[-1] // 2
        top = np.maximum(z[..., :half], z[..., half : 2 * half])
        if z.shape[-1] % 2:
            np.maximum(top[..., :1], z[..., -1:], out=top[..., :1])
        z = top
    return z


def _softmax_rows(z, out=None):
    """Softmax along the last axis of a numpy array, with max-subtraction,
    written into `out` (z itself when z is a buffer the caller owns)."""
    y = np.subtract(z, _row_max(z), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_rows_grad(g, y, out=None):
    """Gradient of the scores from the gradient g of softmax output y,
    written into `out` (g itself when g is a buffer the caller owns)."""
    gz = np.subtract(g, np.einsum("...i,...i->...", g, y)[..., None], out=out)
    gz *= y
    return gz


def softmax(a):
    """Softmax along the last axis."""
    a = _lift(a)
    y = _softmax_rows(a.values)

    def bwd(g):
        return (_softmax_rows_grad(g, y),)

    return _result("softmax", y, (a,), bwd)


def _check_tau(op, tau):
    tau = float(tau)
    if not tau > 0.0:
        raise DomainError(f"{op}: temperature must be positive, got {tau}")
    return tau


def _query_view(op, Q, k_shape, v_shape):
    """Q's values as attention reads them against keys and values of the given
    shapes: [F, n, q, D] when Q and K are 3-D and Q has F times K's batch rows."""
    if min(Q.ndim, len(k_shape), len(v_shape)) < 2 or Q.shape[-1] != k_shape[-1] or k_shape[-2] != v_shape[-2]:
        raise ShapeError(f"{op}: need [..., q, D], [..., S, D], [..., S, Dv], got {Q.shape}, {k_shape}, {v_shape}")
    qv = Q.values
    rows = Q.shape[0]
    if Q.ndim == len(k_shape) == 3 and rows != k_shape[0]:
        if rows % k_shape[0]:
            raise ShapeError(f"{op}: {rows} query rows are not a multiple of {k_shape[0]} key rows")
        qv = qv.reshape((rows // k_shape[0], k_shape[0]) + Q.shape[1:])
    try:
        np.broadcast_shapes(qv.shape[:-2], k_shape[:-2], v_shape[:-2])
    except ValueError:
        raise ShapeError(f"{op}: batch dims of {Q.shape}, {k_shape}, {v_shape} do not broadcast") from None
    return qv


def _unview(out, Q, qv):
    """An attention output on Q's rows: [F, n, q, Dv] -> [F·n, q, Dv] when
    `_query_view` added the flow axis."""
    return out.reshape(Q.shape[:1] + out.shape[2:]) if qv.ndim > Q.ndim else out


def _attention_values(qv, kv, vv, tau):
    """(softmax(q k^T / tau) v, the softmax weights)."""
    scores = np.matmul(qv, kv.mT)
    scores /= tau
    y = _softmax_rows(scores, out=scores)
    return np.matmul(y, vv), y


def _attention_grads(g, qv, kv, vv, y, tau, need_q, need_k, need_v):
    """Gradients of q, k and v from the gradient g of the attention output.

    With one query row, the products of y or the score gradient with that
    row are outer products, taken as broadcast products. A 2-D q shared by a
    batch of keys gets its gradient, a sum over the batch, as one GEMM over
    the folded batch rows."""
    one_row = y.shape[-2] == 1
    gv = None
    if need_v:
        gv = _unbroadcast(y.mT * g if one_row else np.matmul(y.mT, g), vv.shape)
    gz = np.matmul(g, vv.mT)
    _softmax_rows_grad(gz, y, out=gz)
    gz /= tau
    gq = gk = None
    if need_q:
        if qv.ndim == 2 and kv.ndim == gz.ndim == 3:
            gq = np.swapaxes(gz, 0, 1).reshape(len(qv), -1) @ kv.reshape(-1, kv.shape[-1])
        else:
            gq = _unbroadcast(np.matmul(gz, kv), qv.shape)
    if need_k:
        gk = _unbroadcast(gz.mT * qv if one_row else np.matmul(gz.mT, qv), kv.shape)
    return gq, gk, gv


def attend(Q, K, V, tau):
    """Scaled dot-product attention softmax(Q K^T / tau) V as one node.

    Q is [..., q, D], K is [..., S, D] and V is [..., S, Dv]; the leading axes
    broadcast. When Q and K are both 3-D and Q has F times K's batch rows (F
    flows sharing one K and V), Q is viewed as [F, n, q, D], so that K and V
    broadcast over the flow axis, and the result comes back as [F·n, q, Dv].
    """
    Q, K, V = _lift(Q), _lift(K), _lift(V)
    tau = _check_tau("attend", tau)
    qv = _query_view("attend", Q, K.shape, V.shape)
    kv, vv = K.values, V.values
    out, y = _attention_values(qv, kv, vv, tau)

    def bwd(g):
        gq, gk, gv = _attention_grads(g.reshape(out.shape), qv, kv, vv, y, tau, Q.attached, K.attached, V.attached)
        return (None if gq is None else gq.reshape(Q.shape)), gk, gv

    return _result("attend", _unview(out, Q, qv), (Q, K, V), bwd)


_RNC_NEAR = 1e-3  # kappa: pairs with d^2 <= kappa (|c_i|^2 + |c_j|^2) take direct differences


def _row_distances(av):
    """Euclidean distances between the rows of av [n, D], as an [n, n] array.

    The rows are centred on their mean, c = a - mean, and d^2 = |c_i|^2 +
    |c_j|^2 - 2 c_i.c_j comes from one c @ c.T, which numpy runs as one SYRK
    and mirrors, so d is exactly symmetric. The Gram form cancels where d^2 is
    small beside |c_i|^2 + |c_j|^2: every pair with d^2 <= kappa (|c_i|^2 +
    |c_j|^2), kappa = _RNC_NEAR, the diagonal among them, is recomputed from
    the direct difference a_i - a_j, in chunks of 8n pairs, so the diagonal is
    exactly 0 and no d^2 is left negative. Every distance then has a relative
    error of at most (D + 2) * 2^-53 / kappa, about (D + 2) * 1.1e-13, so
    close rows stay accurate at any norm. Raises DomainError if a distance is
    not finite: a row holds inf or NaN, or d^2 overflows.
    """
    n = len(av)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d2 is refused by name below
        c = av - av.mean(axis=0)
        sq = np.einsum("ij,ij->i", c, c)
        d2 = c @ c.T
        norms = np.add.outer(sq, sq)
        d2 *= -2.0
        d2 += norms
        norms *= _RNC_NEAR
        # every d2 <= 0 is near, and a recomputed d2 is a sum of squares, so
        # none stays negative
        near = np.flatnonzero(d2 <= norms)
        for s in range(0, len(near), 8 * n):
            pairs = near[s : s + 8 * n]
            diff = av[pairs // n] - av[pairs % n]
            d2.flat[pairs] = np.einsum("ij,ij->i", diff, diff)
    if not np.isfinite(d2.max()):
        raise DomainError("rank_contrast: a pairwise distance is not finite (a row holds inf or NaN, or d^2 overflows)")
    return np.sqrt(d2, out=d2)


def _block_sums(x, counts):
    """Sums of the rows of x within consecutive blocks of counts[b] rows, one
    row per block: pairwise, each pass adding every block's odd-offset rows
    into the rows before them, ceil(log2(max(counts))) passes."""
    while counts.max() > 1:
        offset = np.arange(len(x)) - np.repeat(np.cumsum(counts) - counts, counts)
        even = offset % 2 == 0
        y = x[even]
        y[np.cumsum(even)[~even] - 1] += x[~even]
        x, counts = y, (counts + 1) // 2
    return x


def rank_contrast(a, labels, tau):
    """Rank-N-Contrast loss (Zha et al., 2023) over the n rows of a [n, D]
    with per-row labels y [n].

    With d_ij = ||a_i - a_j||_2 and e_ij = exp(-d_ij / tau), the output is
    -1/(n(n-1)) * sum over i != j of log(e_ij / sum of e_ik over the k != i
    with |y_i - y_k| >= |y_i - y_j|). The labels are a finite constant array.

    Cost: one [n, D] x [D, n] GEMM for the distances (`_row_distances` states
    their error bound), O(n^2) elementwise work, and a sort plan in
    O(m^2 log m) over the m distinct labels. The rows are taken in label
    order, so each label's rows are one block. Every row of label a shares
    one plan: the distinct labels sorted by the key |u_a - u_c|, its own label
    first; tied keys are contiguous in it. Each anchor's e_ik are summed by
    the label of k into P [n, m] (e_ii is set to 0, so the anchor is in none
    of its candidate sets), and its denominators are the suffix sums of P in
    its plan, read at the first position of each tie group: every positive of
    one label shares a denominator, so the loss takes m, not n, logs of
    denominators per row. The backward mirrors this: the gradient of each
    [n, m] denominator, prefix sums in plan order read at each tie group's
    last position, broadcast back to [n, n] by column label. Where a distance
    is 0 (the diagonal, coincident rows) the gradient uses subgradient 0, as
    ``sqrt`` does.
    """
    a = _lift(a)
    labels = np.asarray(labels, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2 or labels.shape != a.shape[:1]:
        raise ShapeError(f"rank_contrast: need [n, D] with n >= 2 and [n] labels, got {a.shape} and {labels.shape}")
    if not np.isfinite(labels).all():
        raise DomainError("rank_contrast: labels must be finite")
    tau = _check_tau("rank_contrast", tau)
    n = a.shape[0]
    perm = np.argsort(labels, kind="stable")
    u, counts = np.unique(labels[perm], return_counts=True)
    m = len(u)
    group = np.repeat(np.arange(m), counts)  # each row's label index, in label order
    rows = np.arange(n)[:, None]

    # the plan of label a: order[a] lists the labels by key |u_a - u_c|, and
    # first / last give each sorted position the bounds of its tie group
    keys = np.abs(u[:, None] - u)
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    q = np.arange(m)
    starts = np.ones((m, m), dtype=bool)
    starts[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    ends = np.ones((m, m), dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, q, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, q, m - 1)[:, ::-1], axis=1)[:, ::-1]
    # positives per sorted position: its label's rows, less the anchor at position 0
    count = counts[order][group].astype(np.float64)
    count[:, 0] -= 1.0

    av = a.values[perm]
    d = _row_distances(av)
    e = np.multiply(d, -1.0 / tau)
    np.exp(e, out=e)
    if not e.all():
        raise DomainError(f"rank_contrast: exp(-d/tau) underflows to 0 at distance {d.max():.6g} > ~745 * tau ({tau})")
    log_e = np.log(e).sum()  # the diagonal's log(1) is 0
    np.fill_diagonal(e, 0.0)
    # e is symmetric, so summing its rows by label gives P transposed, [m, n]
    p_sorted = np.take(_block_sums(e, counts), order[group] * n + rows)
    denom = np.take(np.cumsum(p_sorted[:, ::-1], axis=1)[:, ::-1], first[group] + rows * m)
    mean = -1.0 / (n * (n - 1))

    def bwd(g):
        g_mean = g * mean
        # each denominator sums P from its group's first position on, so P at
        # sorted position p gets every gradient up to the end of p's group
        g_p = np.take(np.cumsum(g_mean * -count / denom, axis=1), last[group] + rows * m)
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, q, axis=1)
        g_p = np.take(g_p * (-1.0 / tau), rank[group] + rows * m)  # back to label order
        # d log(e_ij) / d d_ij is -1/tau, and d e_ik / d d_ik is -e_ik / tau
        w = e * np.take(g_p, group, axis=1)
        w += g_mean * (-1.0 / tau)
        w = np.divide(w, d, out=np.zeros_like(d), where=d > 0)
        w = w + w.T
        grad = np.empty_like(av)
        grad[perm] = w.sum(axis=1)[:, None] * av - w @ av
        return (grad,)

    return _result("rank_contrast", (log_e - (count * np.log(denom)).sum()) * mean, (a,), bwd)


def reduce_sum(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axes(a, axis)
    out = a.values.sum(axis=axes, keepdims=keepdims)
    src_shape = a.shape

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, src_shape).copy(),)

    return _result("sum", out, (a,), bwd)


def _normalize_axes(a, axis):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(int(ax) % a.ndim for ax in axis)


# -- fused blocks -----------------------------------------------------------------
#
# Each op below is one graph node for a block of the model that would otherwise
# be a chain of the primitives above. Its forward runs the same arithmetic as
# that chain, in the same order, so its output keeps their bits; it may work in
# place on arrays it made itself. Its backward replays the chain's backward steps in
# reverse, in place where it owns the array, and may take a product in another
# form (a broadcast product for an outer product, one GEMM for a sum of
# products), so the gradients keep their values up to rounding. The incoming
# gradient and every forward value stay untouched: other closures read them.


def cross_attention(Q, E, Wv, bv, Wk, bk, tau):
    """softmax(Q K^T / tau) V with V = E @ Wv + bv and K = tanh(V @ Wk + bk).

    The chain affine, affine, tanh, `attend` as one node; Q meets K and V as
    in `attend`, so a 3-D Q may carry F times E's batch rows.
    """
    Q, E, Wv, bv, Wk, bk = (_lift(t) for t in (Q, E, Wv, bv, Wk, bk))
    _check_affine("cross_attention", E.shape, Wv, bv)
    _check_affine("cross_attention", bv.shape, Wk, bk)
    tau = _check_tau("cross_attention", tau)
    ev, Wvv, Wkv = E.values, Wv.values, Wk.values
    vv = _affine_values(ev, Wvv, bv.values)
    kv = _affine_values(vv, Wkv, bk.values)
    np.tanh(kv, out=kv)
    qv = _query_view("cross_attention", Q, kv.shape, vv.shape)
    out, y = _attention_values(qv, kv, vv, tau)
    need_kv = any(t.attached for t in (E, Wv, bv, Wk, bk))

    def bwd(g):
        gq, gk, gv = _attention_grads(g.reshape(out.shape), qv, kv, vv, y, tau, Q.attached, need_kv, need_kv)
        gq = None if gq is None else gq.reshape(Q.shape)
        if not need_kv:
            return gq, None, None, None, None, None
        gk *= _tanh_slope(kv)
        gv_key, gWk, gbk = _affine_grads(gk, vv, Wkv, True, Wk.attached)
        gv += gv_key
        gE, gWv, gbv = _affine_grads(gv, ev, Wvv, E.attached, Wv.attached)
        return gq, gE, gWv, gbv, gWk, gbk

    return _result("cross_attention", _unview(out, Q, qv), (Q, E, Wv, bv, Wk, bk), bwd)


def subset_sum(w, R, subsets, mean=False):
    """Weighted sums over subsets of the tensors R, on rows of axis -2.

    w is [..., q, M] and each R[i] is [..., q, D]. Subset s gives the rows
    sum of w[..., i:i+1] * R[i] over i in s, added in s's order; the subsets,
    which cover every index of R, give rows concatenated on axis -2, or, with
    `mean`, averaged over it. The chain of `narrow`, `mul`, `add` and
    `concat` (or `sum` and a `mul` by 1/q) nodes as one node.
    """
    w = _lift(w)
    R = [_lift(t) for t in R]
    if w.ndim < 2 or w.shape[-1] != len(R) or any(t.shape[:-1] != w.shape[:-1] for t in R):
        shapes = [t.shape for t in R]
        raise ShapeError(f"subset_sum: need w [..., q, {len(R)}] and R [..., q, D], got {w.shape}, {shapes}")
    if any(not s for s in subsets) or {i for s in subsets for i in s} != set(range(len(R))):
        raise ShapeError(f"subset_sum: subsets {subsets} must be non-empty and cover the indices below {len(R)}")
    wv = w.values
    terms = [wv[..., i : i + 1] * t.values for i, t in enumerate(R)]
    rows = []
    for s in subsets:
        row = terms[s[0]]
        for i in s[1:]:
            row = row + terms[i]
        rows.append(row)
    out = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=-2)
    pre_shape = out.shape
    if mean:
        factor = 1.0 / pre_shape[-2]
        out = out.sum(axis=out.ndim - 2) * factor

    def bwd(g):
        if mean:
            g = np.broadcast_to(np.expand_dims(g * factor, -2), pre_shape)
        pieces = np.split(g, len(subsets), axis=-2)
        g_terms = [None] * len(R)
        for s, piece in zip(subsets, pieces):
            for i in s:
                g_terms[i] = piece if g_terms[i] is None else g_terms[i] + piece
        gw = np.stack([np.einsum("...d,...d->...", gt, t.values) for t, gt in zip(R, g_terms)], axis=-1)
        return (gw, *(gt * wv[..., i : i + 1] for i, gt in enumerate(g_terms)))

    return _result("subset_sum", out, (w, *R), bwd)


def imagine(R_v, R_a, R_t, W1, b1, W2, b2, gate_from=0):
    """R_t with its rows [gate_from:] rewritten by a residual autoencoder.

    A rewritten row is x + tanh(tanh(cat(v, a, x) @ W1 + b1) @ W2 + b2) for
    the row x of R_t and its context rows v of R_v and a of R_a; rows before
    gate_from pass through. R_v and R_a hold either R_t's rows or only the
    rewritten ones. The chain of `narrow`, `concat`, affine, tanh, affine,
    tanh, `add` and `concat` nodes as one node.
    """
    R_v, R_a, R_t, W1, b1, W2, b2 = (_lift(t) for t in (R_v, R_a, R_t, W1, b1, W2, b2))
    rows = R_t.shape[0] if R_t.ndim else 0
    gate_from = int(gate_from)
    if not 0 <= gate_from < rows:
        raise ShapeError(f"imagine: gate_from {gate_from} out of range for {rows} rows")
    for c in (R_v, R_a):
        if c.shape[1:] != R_t.shape[1:] or c.shape[0] not in (rows, rows - gate_from):
            raise ShapeError(
                f"imagine: context {c.shape} and text {R_t.shape} must share shape, "
                f"or the context hold only the rows from {gate_from}"
            )
    d = R_t.shape[-1]
    _check_affine("imagine", (3 * d,), W1, b1)
    _check_affine("imagine", b1.shape, W2, b2)
    if W2.shape[1] != d:
        raise ShapeError(f"imagine: W2 {W2.shape} does not map back to {d}")
    tv = R_t.values
    gated = tv[gate_from:]
    ctx = [c.values[gate_from:] if c.shape[0] == rows else c.values for c in (R_v, R_a)]
    x = np.concatenate(ctx + [gated], axis=-1)
    W1v, W2v = W1.values, W2.values
    h = _affine_values(x, W1v, b1.values)
    np.tanh(h, out=h)
    res = _affine_values(h, W2v, b2.values)
    np.tanh(res, out=res)
    new = gated + res
    out = np.concatenate([tv[:gate_from], new], axis=0) if gate_from else new

    def bwd(g):
        g_new = g[gate_from:]
        gh, gW2, gb2 = _affine_grads(g_new * _tanh_slope(res), h, W2v, True, W2.attached)
        gh *= _tanh_slope(h)
        gx, gW1, gb1 = _affine_grads(gh, x, W1v, True, W1.attached)
        g_ctx_v, g_ctx_a, g_x = np.split(gx, [d, 2 * d], axis=-1)
        gR_t = np.empty(R_t.shape)
        gR_t[:gate_from] = g[:gate_from]
        gR_t[gate_from:] = g_new + g_x
        g_ctx = []
        for c, gc in zip((R_v, R_a), (g_ctx_v, g_ctx_a)):
            if c.shape[0] == rows and gate_from:
                full = np.zeros(c.shape)
                full[gate_from:] = gc
                gc = full
            g_ctx.append(gc)
        return (*g_ctx, gR_t, gW1, gb1, gW2, gb2)

    return _result("imagine", out, (R_v, R_a, R_t, W1, b1, W2, b2), bwd)


def _mean_square(diff):
    """(mean of diff**2, its backward from the gradient of the mean to diff's)."""
    factor = 1.0 / diff.size

    def grad(g):
        return np.broadcast_to(g * factor, diff.shape) * (2.0 * diff)

    return (diff * diff).sum() * factor, grad


def mse(y, y_hat):
    """Mean of (y - y_hat)**2 over all entries: the chain `sub`, `mul`,
    `sum`, `mul` as one node."""
    y, y_hat = _lift(y), _lift(y_hat)
    if y.shape != y_hat.shape or y.size == 0:
        raise ShapeError(f"mse: need two equal non-empty shapes, got {y.shape} and {y_hat.shape}")
    value, grad = _mean_square(y.values - y_hat.values)

    def bwd(g):
        gd = grad(g)
        return gd, -gd

    return _result("mse", value, (y, y_hat), bwd)


def rmse_halves(x, detach_first=False):
    """sqrt(mean((a - b)**2)) between the halves a = x[:n] and b = x[n:] of
    x's 2n leading rows: the chain `narrow` x2, `sub`, `mul`, `sum`, `mul`,
    `sqrt` as one node. With `detach_first` no gradient reaches a,
    as if it were detached. The gradient at a distance of 0 is 0, as in `sqrt`.
    """
    x = _lift(x)
    if x.ndim < 1 or x.shape[0] < 2 or x.shape[0] % 2:
        raise ShapeError(f"rmse_halves: need an even number of at least 2 leading rows, got {x.shape}")
    n = x.shape[0] // 2
    xv = x.values
    mean, grad = _mean_square(xv[:n] - xv[n:])
    y = np.sqrt(mean)

    def bwd(g):
        gd = grad(g * (0.5 / np.maximum(y, 1e-100)))
        gx = np.zeros(x.shape)
        if not detach_first:
            gx[:n] = gd
        gx[n:] = -gd
        return (gx,)

    return _result("rmse_halves", y, (x,), bwd)


def weighted_sum(terms, weights):
    """terms[0] * weights[0] + terms[1] * weights[1] + ... in that order, over
    same-shape tensors: the chain of `mul` and `add` nodes as one node. A
    weight of 1.0 keeps its term's bits."""
    terms = [_lift(t) for t in terms]
    weights = [float(w) for w in weights]
    if not terms or len(weights) != len(terms) or any(t.shape != terms[0].shape for t in terms):
        shapes = [t.shape for t in terms]
        raise ShapeError(f"weighted_sum: need one weight per same-shape term, got {shapes} and {len(weights)} weights")
    out = None
    for t, w in zip(terms, weights):
        term = t.values * w
        out = term if out is None else out + term

    def bwd(g):
        return tuple(g * w for w in weights)

    return _result("weighted_sum", out, terms, bwd)


# -- backward pass --------------------------------------------------------------


class GradMap:
    """Gradients of one scalar loss w.r.t. every reachable requires_grad leaf.

    Leaves that never reached the loss (e.g. behind a detach) read as zero.
    """

    def __init__(self, leaf_grads):
        self._grads = leaf_grads  # leaf tensor -> gradient

    def get(self, tensor):
        g = self._grads.get(tensor)
        return np.zeros(tensor.shape) if g is None else g

    def __contains__(self, tensor):
        return tensor in self._grads


def backward(loss):
    """Reverse-mode sweep from a scalar loss; returns a GradMap over leaves."""
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.parents:
        raise ValueError("backward: loss is detached from any graph")
    if _profile is not None:
        return _profile.time_sweep(_sweep, loss)
    return _sweep(loss)


def _sweep(loss):
    # tensors hash by identity, so they key the dicts themselves; `attached`
    # is spelled out, as this loop runs it once per graph edge
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in visited and (p.requires_grad or p.parents):
                stack.append((p, False))

    grads = {loss: np.ones_like(loss.values)}
    leaves = {}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._backward_fn is not None:
            for p, pg in zip(node.parents, node._backward_fn(g)):
                if pg is None or not (p.requires_grad or p.parents):
                    continue
                if p in grads:
                    grads[p] = grads[p] + pg
                else:
                    grads[p] = pg
        elif node.requires_grad:
            leaves[node] = g
    return GradMap(leaves)


# -- op profiler ----------------------------------------------------------------

_profile = None  # the OpProfile that `profile` has turned on, or None


class OpProfile:
    """Seconds per op name, forward and backward, and the sweeps' own time.

    An op's forward time is charged when `_result` makes its output: the time
    since the previous output, the end of the previous sweep or the start of
    the profile, whichever came last. It so includes its caller's Python work
    since then, and work done after a sweep (an optimizer update, say) lands
    on the next op; a profile per training step leaves that work out. An
    op's backward time is the run time of its closures.
    `sweep` is the rest of each `backward`: the topological sort and the
    fan-in sums. Only the thread that turned the profile on is timed.
    """

    def __init__(self):
        self.forward = {}  # op -> seconds
        self.backward = {}  # op -> seconds
        self.calls = {}  # op -> outputs made
        self.sweep = 0.0
        self._thread = threading.get_ident()
        self._mark = perf_counter()
        self._in_closures = 0.0

    def charge_forward(self, op, backward_fn):
        """Charge op's forward time; returns its closure, timed."""
        if threading.get_ident() != self._thread:
            return backward_fn
        now = perf_counter()
        self.forward[op] = self.forward.get(op, 0.0) + (now - self._mark)
        self.calls[op] = self.calls.get(op, 0) + 1
        self._mark = now

        def timed(g):
            start = perf_counter()
            grads = backward_fn(g)
            spent = perf_counter() - start
            self.backward[op] = self.backward.get(op, 0.0) + spent
            self._in_closures += spent
            return grads

        return timed

    def time_sweep(self, sweep, loss):
        if threading.get_ident() != self._thread:
            return sweep(loss)
        start, in_closures = perf_counter(), self._in_closures
        grads = sweep(loss)
        self._mark = perf_counter()
        self.sweep += self._mark - start - (self._in_closures - in_closures)
        return grads

    def rows(self):
        """(op, outputs made, forward s, backward s), by total time, most first."""
        ops = sorted(self.forward, key=lambda op: -(self.forward[op] + self.backward.get(op, 0.0)))
        return [(op, self.calls[op], self.forward[op], self.backward.get(op, 0.0)) for op in ops]

    def total(self):
        """Every second charged: forward, backward and sweep."""
        return sum(self.forward.values()) + sum(self.backward.values()) + self.sweep


@contextmanager
def profile():
    """Time every op, forward and backward, for the `with` block; yields the
    OpProfile it fills. Off, it costs one check in `_result` and one in
    `backward`."""
    global _profile
    if _profile is not None:
        raise RuntimeError("profile: a profile is already on")
    _profile = OpProfile()
    try:
        yield _profile
    finally:
        _profile = None


def ancestors(tensor):
    """All graph nodes reachable upward from a tensor (tensor excluded)."""
    seen = set()
    out = []
    stack = list(tensor.parents)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.parents)
    return out


def grad_check(f, point, h=1e-5):
    """Compare autodiff gradients of f against central finite differences.

    f maps a list of Tensors to a scalar Tensor. Returns the max over all
    coordinates of |ad - fd| / max(1, |ad|, |fd|). Does not mutate `point`.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    leaves = [Tensor(p.values.copy(), requires_grad=True) for p in point]
    out = f(leaves)
    grads = backward(out)

    max_err = 0.0
    base = [l.values for l in leaves]
    for i, leaf in enumerate(leaves):
        ad = grads.get(leaf).ravel()
        flat = base[i].ravel()
        for j in range(flat.size):
            def value_at(delta):
                pts = []
                for k, arr in enumerate(base):
                    if k == i:
                        arr = arr.copy()
                        arr.ravel()[j] += delta
                    pts.append(Tensor(arr))
                return f(pts).item()

            fd = (value_at(h) - value_at(-h)) / (2.0 * h)
            err = abs(ad[j] - fd) / max(1.0, abs(ad[j]), abs(fd))
            if err > max_err:
                max_err = err
    return max_err
