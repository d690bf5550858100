"""Reverse-mode autodiff over dense float64 arrays.

A Tensor wraps a numpy array. Results of primitives remember their parents
and a backward closure; ``backward`` replays the tape in reverse topological
order and accumulates gradients into the ``requires_grad`` leaves. Graphs are
rebuilt on every forward pass (dynamic tape), so the same parameters can run
through several different graphs per training step.

Gradient accumulation follows the multivariate chain rule: a leaf used in
several places receives the sum of the per-use gradients. A computation graph
is confined to one thread; tensors themselves are plain value holders and may
be shared read-only.
"""

from __future__ import annotations

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

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        return scale(self, 1.0 / float(other))

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    # -- elementwise / reduction methods --------------------------------------

    def tanh(self):
        return tanh(self)

    def sqrt(self):
        return sqrt(self)

    def square(self):
        return square(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def transpose(self, axes=None):
        return transpose(self, axes=axes)

    def reshape(self, shape):
        return reshape(self, shape)

    def narrow(self, axis, start, stop):
        return narrow(self, axis, start, stop)


def _lift(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(op, values, parents, backward_fn):
    out = Tensor(values)
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


def scale(a, factor):
    a = _lift(a)
    factor = float(factor)

    def bwd(g):
        return (g * factor,)

    return _result("scale", a.values * factor, (a,), bwd)


def matmul(a, b):
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        raise ShapeError(f"matmul: batch dims of {a.shape} and {b.shape} do not broadcast") from None
    av, bv = a.values, b.values

    def bwd(g):
        if bv.ndim == 2:
            # a 2-D right operand is shared by every leading row of a, so both
            # gradients are one GEMM over the folded rows; a GEMM against a
            # contiguous copy of b^T measured faster than against the view
            rows = g.reshape(-1, g.shape[-1])
            ga = (rows @ np.ascontiguousarray(bv.T)).reshape(a.shape) if a.attached else None
            gb = av.reshape(-1, av.shape[-1]).T @ rows if b.attached else None
            return ga, gb
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), a.shape) if a.attached else None
        gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), b.shape) if b.attached else None
        return ga, gb

    return _result("matmul", np.matmul(av, bv), (a, b), bwd)


def transpose(a, axes=None):
    """Permute axes; default swaps the last two (matrix transpose)."""
    a = _lift(a)
    if axes is None:
        if a.ndim < 2:
            raise ShapeError(f"transpose: need at least 2-D, got {a.shape}")
        axes = tuple(range(a.ndim - 2)) + (a.ndim - 1, a.ndim - 2)
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of {a.ndim} axes")
    inv = tuple(int(i) for i in np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _result("transpose", np.transpose(a.values, axes), (a,), bwd)


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


def tanh(a):
    a = _lift(a)
    y = np.tanh(a.values)

    def bwd(g):
        return (g * (1.0 - y * y),)

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


def square(a):
    a = _lift(a)
    av = a.values

    def bwd(g):
        return (g * (2.0 * av),)

    return _result("square", av * av, (a,), bwd)


def softmax(a, axis=-1, tau=1.0):
    """Temperature softmax along one axis, computed with max-subtraction."""
    a = _lift(a)
    tau = float(tau)
    if tau <= 0.0:
        raise DomainError(f"softmax: temperature must be positive, got {tau}")
    ax = int(axis) % a.ndim if a.ndim else 0
    z = a.values / tau
    z = z - z.max(axis=ax, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=ax, keepdims=True)

    def bwd(g):
        inner = g - (g * y).sum(axis=ax, keepdims=True)
        return (inner * y / tau,)

    return _result("softmax", y, (a,), bwd)


def rank_contrast(a, keys, tau):
    """Rank-N-Contrast loss (Zha et al., 2023) over the n rows of a [n, D].

    With d_ij = ||a_i - a_j||_2 and e_ij = exp(-d_ij / tau), the output is
    -1/(n(n-1)) * sum over i != j of log(e_ij / sum of e_ik over the k with
    keys[i, k] >= keys[i, j]). `keys` is a constant [n, n] array; -inf is
    allowed, NaN is not, and a -inf key at [i, i] keeps the anchor out of
    every denominator.

    Each row of keys is sorted once and the denominators are reverse cumulative
    sums over that order: O(n^2 (D + log n)) time, O(n^2 D) memory. Tied keys
    share one tie group, and every member reads the sum from the group's first
    sorted index. Distances come from direct differences, so close rows stay
    accurate at any norm; where a distance is 0 (the diagonal, coincident rows)
    the gradient uses subgradient 0, as ``sqrt`` does.
    """
    a = _lift(a)
    keys = np.asarray(keys, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 2 or keys.shape != (a.shape[0], a.shape[0]):
        raise ShapeError(f"rank_contrast: need [n, D] with n >= 2 and [n, n] keys, got {a.shape} and {keys.shape}")
    if np.isnan(keys).any():
        raise DomainError("rank_contrast: keys contain NaN")
    tau = float(tau)
    if not tau > 0.0:
        raise DomainError(f"rank_contrast: temperature must be positive, got {tau}")
    n = a.shape[0]
    av = a.values
    diff = av[:, None, :] - av[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    e = np.exp(d * (-1.0 / tau))
    if not e.all():
        raise DomainError(f"rank_contrast: exp(-d/tau) underflows to 0 at distance {d.max():.6g} > ~745 * tau ({tau})")

    # tie groups are contiguous in any sorted order, so the sort need not be stable
    order = np.argsort(keys, axis=1)
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    pos = np.broadcast_to(np.arange(n), keys.shape)
    starts = np.ones(keys.shape, dtype=bool)
    starts[:, 1:] = sorted_keys[:, 1:] != sorted_keys[:, :-1]
    ends = np.ones(keys.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    # first / last sorted index of each position's tie group
    first = np.maximum.accumulate(np.where(starts, pos, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, pos, n)[:, ::-1], axis=1)[:, ::-1]

    def unsort(v, group_index):
        out = np.empty_like(v)
        np.put_along_axis(out, order, np.take_along_axis(v, group_index, axis=1), axis=1)
        return out

    denom = unsort(np.cumsum(np.take_along_axis(e, order, axis=1)[:, ::-1], axis=1)[:, ::-1], first)
    ratio = e / denom
    off_diag = 1.0 - np.eye(n)
    mean = -1.0 / (n * (n - 1))

    def bwd(g):
        g_log = np.broadcast_to(g * mean, d.shape) * off_diag / ratio
        g_denom = -g_log * e / (denom * denom)
        # e_ik at sorted index q enters every denominator whose tie group starts
        # at or before q: all positions up to the end of q's own group
        g_e = g_log / denom + unsort(np.cumsum(np.take_along_axis(g_denom, order, axis=1), axis=1), last)
        w = np.divide(g_e * e * (-1.0 / tau), d, out=np.zeros_like(d), where=d > 0)
        w = w + w.T
        return (w.sum(axis=1)[:, None] * av - w @ av,)

    return _result("rank_contrast", (np.log(ratio) * off_diag).sum() * mean, (a,), bwd)


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


def reduce_mean(a, axis=None, keepdims=False):
    a = _lift(a)
    axes = _normalize_axes(a, axis)
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[ax] for ax in axes]))
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def _normalize_axes(a, axis):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(int(ax) % a.ndim for ax in axis)


# -- backward pass --------------------------------------------------------------


class GradMap:
    """Gradients of one scalar loss w.r.t. every reachable requires_grad leaf.

    Leaves that never reached the loss (e.g. behind a detach) read as zero.
    """

    def __init__(self, leaf_grads):
        # id -> (tensor, grad); tensors kept alive so ids stay unique
        self._grads = leaf_grads

    def get(self, tensor):
        entry = self._grads.get(id(tensor))
        if entry is None:
            return np.zeros(tensor.shape)
        return entry[1]

    def __contains__(self, tensor):
        return id(tensor) in self._grads


def backward(loss):
    """Reverse-mode sweep from a scalar loss; returns a GradMap over leaves."""
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.parents:
        raise ValueError("backward: loss is detached from any graph")

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited and p.attached:
                stack.append((p, False))

    grads = {id(loss): np.ones_like(loss.values)}
    leaves = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is not None:
            parent_grads = node._backward_fn(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not p.attached:
                    continue
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg
        elif node.requires_grad:
            prev = leaves.get(id(node))
            leaves[id(node)] = (node, g if prev is None else prev[1] + g)
    return GradMap(leaves)


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
