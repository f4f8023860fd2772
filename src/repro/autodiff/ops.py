"""Differentiable functions operating on :class:`~repro.autodiff.Tensor`.

These complement the operator overloads on ``Tensor`` with the
nonlinearities, normalizations, and structural operations the paper's
models need (sigmoid/tanh gates, per-cell softmax recovery, concatenation
of graph-convolution slices, dropout regularization, ...).

Like the ``Tensor`` operators, every op here wraps its forward math in a
local ``run()`` thunk and hands it to ``Tensor._op``, which records it so
the capture/replay engine can re-execute a recorded step without
rebuilding the graph (docs/EXECUTION.md).  Thunks rebind — via
``nonlocal`` — every intermediate their backward closure reads, and
re-read parameter arrays (``p.data``) on each run so weight updates and
checkpoint restores are always picked up.  Data-dependent *validation*
(zero divisors, non-positive log inputs) stays outside the thunks: it
runs when the op is built (eager and capture), not on replay.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .tensor import Tensor, _ensure_tensor, _unbroadcast


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid on a raw array.

    The piecewise form ``1/(1+e^-x)`` for ``x >= 0`` and
    ``e^x/(1+e^x)`` for ``x < 0`` only ever exponentiates non-positive
    values, so it cannot overflow — no ``RuntimeWarning`` leaks even
    when the test suite promotes warnings to errors.  ``exp`` of a very
    negative value flushing to 0.0 is exact, and the errstate guard
    keeps any platform that signals that underflow quiet.
    """
    with np.errstate(under="ignore"):
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, z) / (1.0 + z)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.exp(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data)

    return Tensor._op(run, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm.

    Rejects zero/negative inputs up front: ``np.log`` would silently
    turn them into ``-inf``/``nan`` that only surface many ops later,
    with no trace of where they were born.
    """
    x = _ensure_tensor(x)
    if (x.data <= 0).any():
        n_bad = int((x.data <= 0).sum())
        raise ValueError(
            f"log: input contains {n_bad} zero/negative value(s) "
            f"(min {x.data.min():.6g}, shape {x.shape}); this would "
            f"silently propagate -inf/nan through the tape — clamp with "
            f"ops.clip_min(x, eps) or add a positive offset first")

    def run() -> np.ndarray:
        return np.log(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad / x.data)

    return Tensor._op(run, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.sqrt(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * 0.5 / out_data)

    return Tensor._op(run, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic sigmoid."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = _stable_sigmoid(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._op(run, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        out_data = np.tanh(x.data)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data ** 2))

    return Tensor._op(run, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    x = _ensure_tensor(x)
    mask = None

    def run() -> np.ndarray:
        nonlocal mask
        mask = x.data > 0
        return x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._op(run, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with the max-subtraction stabilizer.

    This is the paper's recovery operator (Eq. 3): each OD cell's K raw
    scores are normalized into a probability histogram.
    """
    x = _ensure_tensor(x)
    out_data = None

    def run() -> np.ndarray:
        nonlocal out_data
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)
        return out_data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            # d softmax: s * (grad - sum(grad * s))
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._op(run, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (gradient splits back)."""
    tensors = [_ensure_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def run() -> np.ndarray:
        return np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for tensor_i, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor_i.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor_i._accumulate(grad[tuple(index)])

    return Tensor._op(run, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    tensors = [_ensure_tensor(t) for t in tensors]

    def run() -> np.ndarray:
        return np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.moveaxis(grad, axis, 0)
        for tensor_i, slab in zip(tensors, slabs):
            if tensor_i.requires_grad:
                tensor_i._accumulate(slab)

    return Tensor._op(run, tuple(tensors), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum (ties route gradient to the first input)."""
    a, b = _ensure_tensor(a, b), _ensure_tensor(b, a)
    a_wins = None

    def run() -> np.ndarray:
        nonlocal a_wins
        a_wins = a.data >= b.data
        return np.maximum(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * a_wins, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~a_wins), b.shape))

    return Tensor._op(run, (a, b), backward)


def abs_(x: Tensor) -> Tensor:
    """Elementwise absolute value (sign subgradient at 0)."""
    x = _ensure_tensor(x)
    sign = None

    def run() -> np.ndarray:
        nonlocal sign
        sign = np.sign(x.data)
        return np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * sign)

    return Tensor._op(run, (x,), backward)


def clip_min(x: Tensor, minimum: float) -> Tensor:
    """Lower-clip; gradient passes only where ``x > minimum``."""
    x = _ensure_tensor(x)
    mask = None

    def run() -> np.ndarray:
        nonlocal mask
        mask = x.data > minimum
        return np.where(mask, x.data, minimum)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._op(run, (x,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``rate``.

    At evaluation time (``training=False``) this is the identity, matching
    the usual inference-time semantics.  The thunk draws from ``rng`` on
    every execution, so a replayed step consumes the generator exactly
    like the eager step it recorded — bit-for-bit RNG parity.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _ensure_tensor(x)
    if not training or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = None

    def run() -> np.ndarray:
        nonlocal mask
        # Mask in the input dtype: a float64 mask would silently upcast
        # activations and gradients under float32 training.
        mask = (rng.random(x.shape) < keep).astype(x.data.dtype)
        mask /= keep
        return x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._op(run, (x,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition is data)."""
    a, b = _ensure_tensor(a, b), _ensure_tensor(b, a)
    condition = np.asarray(condition, dtype=bool)

    def run() -> np.ndarray:
        return np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    return Tensor._op(run, (a, b), backward)


def pad_axis(x: Tensor, axis: int, before: int, after: int,
             value: float = 0.0) -> Tensor:
    """Pad ``x`` along a single axis with a constant.

    Used by the graph-pooling stage, which appends "fake" nodes so the
    coarsened graph size is divisible by the pooling stride.
    """
    x = _ensure_tensor(x)
    widths = [(0, 0)] * x.ndim
    widths[axis] = (before, after)
    n = x.shape[axis]

    def run() -> np.ndarray:
        return np.pad(x.data, widths, constant_values=value)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            index = [slice(None)] * grad.ndim
            index[axis] = slice(before, before + n)
            x._accumulate(grad[tuple(index)])

    return Tensor._op(run, (x,), backward)


def take_axis(x: Tensor, indices: np.ndarray, axis: int) -> Tensor:
    """Gather slices of ``x`` at ``indices`` along ``axis``.

    Used to permute graph nodes into cluster order before pooling.
    """
    x = _ensure_tensor(x)
    indices = np.asarray(indices, dtype=np.intp)
    # Distinct indices (e.g. the coarsening permutation) scatter to
    # disjoint slots, so the gradient is a plain fancy assignment;
    # only duplicated indices need the far slower accumulating add.at.
    unique = np.unique(indices).size == indices.size

    def run() -> np.ndarray:
        return np.take(x.data, indices, axis=axis)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            index = [slice(None)] * x.ndim
            index[axis] = indices
            if unique:
                full[tuple(index)] = grad
            else:
                np.add.at(full, tuple(index), grad)
            x._accumulate(full)

    return Tensor._op(run, (x,), backward)


def mean_pool_axis(x: Tensor, axis: int, stride: int) -> Tensor:
    """Average-pool ``x`` along ``axis`` with non-overlapping windows."""
    return _pool_axis(x, axis, stride, how="mean")


def max_pool_axis(x: Tensor, axis: int, stride: int) -> Tensor:
    """Max-pool ``x`` along ``axis`` with non-overlapping windows."""
    return _pool_axis(x, axis, stride, how="max")


def _pool_axis(x: Tensor, axis: int, stride: int, how: str) -> Tensor:
    x = _ensure_tensor(x)
    n = x.shape[axis]
    if n % stride != 0:
        raise ValueError(
            f"axis length {n} not divisible by pool stride {stride}; "
            "pad with fake nodes first")
    moved_shape = None
    grouped = None
    pooled = None

    def run() -> np.ndarray:
        nonlocal moved_shape, grouped, pooled
        moved = np.moveaxis(x.data, axis, 0)
        moved_shape = moved.shape
        grouped = moved.reshape(n // stride, stride, *moved.shape[1:])
        if how == "mean":
            pooled = grouped.mean(axis=1)
        else:
            pooled = grouped.max(axis=1)
        return np.moveaxis(pooled, 0, axis)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gmoved = np.moveaxis(grad, axis, 0)
        if how == "mean":
            expanded = np.repeat(gmoved, stride, axis=0) / stride
        else:
            winners = (grouped == pooled[:, None])
            counts = winners.sum(axis=1, keepdims=True)
            expanded = (winners * (gmoved[:, None] / counts)).reshape(
                n, *gmoved.shape[1:])
        x._accumulate(np.moveaxis(expanded.reshape(moved_shape), 0, axis))

    return Tensor._op(run, (x,), backward)


# ======================================================================
# Fused kernels
# ======================================================================
# Composite ops covering the models' hot paths: each one evaluates a
# whole sub-expression (Chebyshev recursion, GRU cell, recovery softmax,
# masked loss) in raw numpy and records a SINGLE graph node whose
# backward closure is the hand-written adjoint.  This removes the
# per-primitive Python closure overhead and the numpy temporaries that
# otherwise dominate training wall-clock (see docs/AUTODIFF.md, "Fused
# kernels").
#
# Each kernel has exactly one implementation here.  Their primitive-op
# compositions, the ground truth of the gradcheck parity tests, live
# with the tests (tests/oracles.py).
#
# Replay note: fused thunks re-read parameter arrays (and rebuild the
# stacked/concatenated weight blocks of stacked sides) on every run,
# so optimizer updates and load_state_dict are always reflected.  Graph
# Laplacians are structural constants — captured once, never rebuilt.


def _constant_array(value: Union[Tensor, np.ndarray]) -> np.ndarray:
    """View a graph constant (Tensor or array) as a raw array."""
    if isinstance(value, Tensor):
        if value.requires_grad:
            raise ValueError(
                "fused kernels treat this operand as a constant; it must "
                "not require grad")
        return value.data
    return np.asarray(value)


# ----------------------------------------------------------------------
# Whole Cheby-Net convolution (paper Eq. 5)
# ----------------------------------------------------------------------
def _cheb_terms(lap: np.ndarray, signal: np.ndarray,
                order: int) -> list:
    """Chebyshev terms of a batched graph signal (raw numpy).

    ``signal (B, N, C)`` → list of ``order`` arrays, each ``(B, N, C)``.
    The batch layout is kept as-is: ``np.matmul`` broadcasts the
    ``(N, N)`` Laplacian over the batch axis, so no transposes or
    relayout copies are needed anywhere in the recursion.
    """
    terms = [signal]
    if order > 1:
        terms.append(np.matmul(lap, signal))
    for _ in range(2, order):
        t = np.matmul(lap, terms[-1])
        t *= 2.0
        t -= terms[-2]
        terms.append(t)
    return terms


def _cheb_feats(terms: list, order: int) -> np.ndarray:
    """Interleave Chebyshev terms into the feature matrix ``(B·N, C·S)``.

    Feature column ``c*order + s`` matches ChebConv's weight-row layout,
    so the forward mix, the weight gradient, and the adjoint seed are
    each one full-weight GEMM against this matrix.  Terms may carry
    leading stack axes: ``(..., B, N, C)`` → ``(..., B·N, C·S)``
    (batched GEMMs against stacked weights).
    """
    shape = terms[0].shape
    c = shape[-1]
    rows = shape[:-3] + (shape[-3] * shape[-2],)
    if order == 1:
        return terms[0].reshape(rows + (c,))
    out = np.empty(shape + (order,), dtype=terms[0].dtype)
    for s, term in enumerate(terms):
        out[..., s] = term
    return out.reshape(rows + (c * order,))


def _cheb_adjoint(lap_t: np.ndarray, dmixed: np.ndarray,
                  weight: np.ndarray, shape: tuple,
                  order: int) -> np.ndarray:
    """Signal adjoint of mix∘terms: ``dmixed (B·N, Q)`` → ``shape``
    (the forward signal's shape, e.g. ``(B, N, C)``).

    Seeds every term's adjoint with one GEMM ``dmixed · Wᵀ`` (splitting
    the interleaved columns per term), then runs the Chebyshev
    recursion's adjoint (sweeping the term index down,
    ``a_{s-1} += 2 Lᵀ a_s``, ``a_{s-2} -= a_s``).  Leading stack axes on
    ``dmixed``/``weight``/``lap_t``/``shape`` broadcast through.
    """
    dfull = np.matmul(dmixed, np.swapaxes(weight, -1, -2)).reshape(
        shape + (order,))
    if order == 1:
        return dfull[..., 0]
    if order == 2:
        out = np.matmul(lap_t, np.ascontiguousarray(dfull[..., 1]))
        out += dfull[..., 0]
        return out
    adj = [np.ascontiguousarray(dfull[..., s]) for s in range(order)]
    for s in range(order - 1, 1, -1):
        adj[s - 1] += 2.0 * np.matmul(lap_t, adj[s])
        adj[s - 2] -= adj[s]
    adj[0] += np.matmul(lap_t, adj[1])
    return adj[0]


def _stacked_sides(lap: Union[Tensor, np.ndarray], params: Sequence):
    """Resolve a stage-2 kernel's optional leading side axis.

    A 2-D ``lap (N, N)`` is one side and every entry of ``params`` one
    Tensor.  A ``(P, N, N)`` Laplacian stacks P sides: every entry of
    ``params`` is then a length-P sequence, side ``p`` running on
    ``lap[p]`` with the ``p``-th Tensor of each entry.  Returns the
    Laplacian broadcastable against ``(*lead, B, N, C)`` signals, the
    leading shape ``lead`` (``()`` or ``(P,)``), and ``params`` as
    per-side tuples.
    """
    lap_data = _constant_array(lap)
    if lap_data.ndim == 2:
        return lap_data, (), [(p,) for p in params]
    per_side = [tuple(p) for p in params]
    sides = lap_data.shape[0]
    if lap_data.ndim != 3 or any(len(p) != sides for p in per_side):
        raise ValueError(
            f"a ({sides}, N, N) Laplacian stacks {sides} sides; every "
            f"parameter must be a sequence of {sides} per-side tensors")
    return lap_data[:, None], (sides,), per_side


def _join(arrays: Sequence[np.ndarray], lead: tuple) -> np.ndarray:
    """Per-side arrays stacked on the side axis (one side: as is)."""
    return np.stack(arrays) if lead else arrays[0]


def _bias_rows(bias: np.ndarray) -> np.ndarray:
    """``(*lead, Q)`` biases broadcastable against ``(*lead, B, N, Q)``."""
    return bias.reshape(bias.shape[:-1] + (1, 1, bias.shape[-1]))


def _accumulate_sides(params: Sequence[Tensor], grad: np.ndarray,
                      lead: tuple) -> None:
    """Hand each side's slab of a stacked gradient to its parameter."""
    for param, g in zip(params, grad if lead else (grad,)):
        if param.requires_grad:
            param._accumulate(g)


def cheb_conv(lap: Union[Tensor, np.ndarray], x: Tensor, weight: Tensor,
              bias: Tensor, order: int) -> Tensor:
    """A whole Cheby-Net graph convolution (Eq. 5) as one node.

    Layout juggling, Chebyshev recursion, channel mixing, and bias — the
    ~8 primitive nodes of the unfused composition — collapse into a
    single node: ``x (B, N, C)`` → ``(B, N, Q)`` with
    ``weight (C·order, Q)`` and ``bias (Q,)``.

    A ``(P, N, N)`` Laplacian stacks P independent sides (the AF's R
    and C decoder projections): ``x`` is then ``(P, B, N, C)`` and
    ``weight``/``bias`` are length-P sequences, side ``p`` convolved
    with ``(weight[p], bias[p])`` on ``lap[p]``; the mix, the weight
    gradients and the adjoint seed are one batched GEMM each.
    """
    if order < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {order}")
    x = _ensure_tensor(x)
    lap_b, lead, (weights, biases) = _stacked_sides(lap, (weight, bias))
    if x.ndim != len(lead) + 3 or x.shape[:len(lead)] != lead:
        raise ValueError(f"cheb_conv expects {lead + ('B', 'N', 'C')} "
                         f"input, got shape {x.shape}")
    batch, n, channels = x.shape[-3:]
    if lap_b.shape[-2:] != (n, n):
        raise ValueError(
            f"Laplacian shape {lap_b.shape[-2:]} does not match signal "
            f"with {n} nodes")
    q = weights[0].shape[-1]
    if any(w.shape != (channels * order, q) for w in weights):
        raise ValueError(
            f"weight shape {weights[0].shape} does not match "
            f"{channels} channels x order {order}")
    lap_t = np.swapaxes(lap_b, -1, -2)
    feats = w = None

    def run() -> np.ndarray:
        nonlocal feats, w
        feats = _cheb_feats(_cheb_terms(lap_b, x.data, order), order)
        w = _join([wt.data for wt in weights], lead)
        out = np.matmul(feats, w).reshape(lead + (batch, n, q))
        out += _bias_rows(_join([bt.data for bt in biases], lead))
        return out

    def backward(grad: np.ndarray) -> None:
        gm = grad.reshape(lead + (batch * n, q))
        if any(wt.requires_grad for wt in weights):
            _accumulate_sides(
                weights, np.matmul(np.swapaxes(feats, -1, -2), gm), lead)
        if any(bt.requires_grad for bt in biases):
            _accumulate_sides(biases, gm.sum(axis=-2), lead)
        if x.requires_grad:
            x._accumulate(_cheb_adjoint(
                lap_t, gm, w, lead + (batch, n, channels), order))

    params = tuple(p for side in zip(weights, biases) for p in side)
    return Tensor._op(run, (x,) + params, backward)


# ----------------------------------------------------------------------
# Stage-1 GCNN encoder (paper §V-A: Cheby-Net + ReLU + geometrical
# pooling per stage, then the latent head), node-last layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EncoderStage:
    """Constants and parameters of one conv+ReLU+pool encoder stage.

    ``lap`` is the stage graph's ``(n, n)`` scaled Laplacian.  ``pool``
    is the ``(n, P)`` mean-pooling matrix: ``1/count`` where node ``j``
    is a *real* member of cluster ``p`` (fake padding nodes belong to no
    cluster), else 0; ``None`` means no pooling.  ``weight (C·order, Q)``
    keeps ChebConv's ``c·order + s`` row order.
    """

    lap: np.ndarray
    pool: Optional[np.ndarray]
    weight: Tensor
    bias: Tensor
    order: int


class GCNNEncoder:
    """One side's stage-1 encoder as a raw-array ``op``/``adj_op`` pair.

    Signals are node-last, ``(channels, slices, nodes)``, so every step
    of the stage is a GEMM over all slices at once and no step needs a
    relayout:

    * Chebyshev terms, straight into a ``(C, S, M, n)`` buffer:
      ``F[c, s] = 2·F[c, s-1] @ Lᵀ − F[c, s-2]``;
    * channel mix ``Wᵀ (Q, C·S) @ F (C·S, M·n)``, bias and ReLU in place;
    * pooling ``act (Q, M, n) @ pool (n, P)``, written straight into the
      next stage's term buffer;
    * latent head ``W_bᵀ @ x`` then ``(K·M, P) @ W_l``.

    The adjoint runs the same GEMMs transposed — right-multiplied by
    ``L`` and ``poolᵀ``.  :func:`gcnn_encoder` wraps the pair as one
    autodiff node; the sharded executor calls it on slice-row chunks.
    Stride-2 mean pooling weighs each node by 1 or 1/2, both exact, so
    its GEMM equals the primitive composition's add-then-halve bit for
    bit.
    """

    def __init__(self, stages: Sequence[EncoderStage], w_buckets: Tensor,
                 b_buckets: Tensor, w_latent: Tensor, b_latent: Tensor):
        self.stages = tuple(stages)
        self.w_buckets, self.b_buckets = w_buckets, b_buckets
        self.w_latent, self.b_latent = w_latent, b_latent
        self.params = tuple(p for st in self.stages
                            for p in (st.weight, st.bias)) \
            + (w_buckets, b_buckets, w_latent, b_latent)
        first = self.stages[0]
        self.in_channels = first.weight.shape[0] // first.order
        self.n_nodes = first.lap.shape[0]
        # The adjoint's un-pooling GEMM reads poolᵀ row-major.
        self._pool_t = [None if st.pool is None
                        else np.ascontiguousarray(st.pool.T)
                        for st in self.stages]

    def op(self, x: np.ndarray):
        """``x (C, *rows, n)`` → ``(out (K, *rows, R), cache)``.

        ``cache`` is the flat list of arrays :meth:`adj_op` reads — per
        stage the term buffer and the post-ReLU activations, then the
        head's input and its bucket projection.  Every one keeps the
        slices on axis -2, so the sharded executor can scatter chunk
        caches into dense ones row by row.
        """
        rows = x.shape[1:-1]
        m = int(np.prod(rows, dtype=np.int64))
        dtype = np.result_type(x.dtype, *(p.data.dtype for p in self.params))
        feats = np.empty((self.in_channels, self.stages[0].order)
                         + x.shape[1:], dtype=dtype)
        feats[:, 0] = x
        feats = feats.reshape(feats.shape[:2] + (m, self.n_nodes))
        cache = []
        for index, st in enumerate(self.stages):
            channels, order, _, n = feats.shape
            lap_t = st.lap.astype(dtype, copy=False).T
            # Each product writes straight into its term slot (one GEMM
            # per channel, looped inside numpy).  Scaling by 2 is exact,
            # so (2Lᵀ) folds the recursion's doubling into the GEMM.
            if order > 1:
                np.matmul(feats[:, 0], lap_t, out=feats[:, 1])
            for s in range(2, order):
                np.matmul(feats[:, s - 1], 2.0 * lap_t, out=feats[:, s])
                feats[:, s] -= feats[:, s - 2]
            q = st.weight.shape[1]
            act = st.weight.data.T @ feats.reshape(channels * order, m * n)
            act += st.bias.data[:, None]
            np.maximum(act, 0.0, out=act)
            act = act.reshape(q, m, n)
            cache += [feats, act]
            if index + 1 == len(self.stages):
                pooled = act if st.pool is None \
                    else act @ st.pool.astype(dtype, copy=False)
                break
            width = n if st.pool is None else st.pool.shape[1]
            feats = np.empty((q, self.stages[index + 1].order, m, width),
                             dtype=dtype)
            if st.pool is None:
                feats[:, 0] = act
            else:
                np.matmul(act, st.pool.astype(dtype, copy=False),
                          out=feats[:, 0])
        t = self.w_buckets.data.T @ pooled.reshape(pooled.shape[0], -1)
        t += self.b_buckets.data[:, None]
        z = t.reshape(t.shape[0] * m, -1) @ self.w_latent.data
        z += self.b_latent.data
        out = z.reshape((t.shape[0],) + rows + (z.shape[-1],))
        cache += [pooled, t.reshape(t.shape[0], m, -1)]
        return out, cache

    def adj_op(self, grad: np.ndarray, cache, input_grad: bool = False):
        """Adjoint of :meth:`op`: ``grad (K, *rows, R)`` → ``(grads,
        dx)`` with ``grads`` aligned to :attr:`params` and ``dx`` shaped
        like ``op``'s input (``None`` unless ``input_grad``)."""
        pooled, t = cache[-2:]
        dtype = pooled.dtype
        k, rank = grad.shape[0], grad.shape[-1]
        channels, m, width = pooled.shape
        gz = grad.reshape(k * m, rank)
        d_latent = t.reshape(k * m, width).T @ gz
        db_latent = np.add.reduce(gz, axis=0)
        dt = (gz @ self.w_latent.data.T).reshape(k, m * width)
        d_buckets = pooled.reshape(channels, m * width) @ dt.T
        db_buckets = np.add.reduce(dt, axis=1)
        g = (self.w_buckets.data @ dt).reshape(channels, m, width)
        grads = [d_buckets, db_buckets, d_latent, db_latent]
        for index in range(len(self.stages) - 1, -1, -1):
            st = self.stages[index]
            feats, act = cache[2 * index:2 * index + 2]
            c_in, order, _, n = feats.shape
            q = act.shape[0]
            pool_t = self._pool_t[index]
            if pool_t is None:
                dact = g * (act > 0)
            else:
                dact = np.matmul(g, pool_t.astype(dtype, copy=False))
                dact *= act > 0
            dact = dact.reshape(q, m * n)
            grads[:0] = [feats.reshape(c_in * order, m * n) @ dact.T,
                         np.add.reduce(dact, axis=1)]
            if index == 0 and not input_grad:
                return grads, None
            dfeats = (st.weight.data @ dact).reshape(c_in, order, m, n)
            lap = st.lap.astype(dtype, copy=False)
            for s in range(order - 1, 1, -1):
                dfeats[:, s - 1] += np.matmul(dfeats[:, s], 2.0 * lap)
                dfeats[:, s - 2] -= dfeats[:, s]
            if order > 1:
                dfeats[:, 0] += np.matmul(dfeats[:, 1], lap)
            g = dfeats[:, 0]
        return grads, np.ascontiguousarray(g).reshape(
            (c_in,) + grad.shape[1:-1] + (n,))


class SliceGroups(NamedTuple):
    """The distinct slices of a node-last input ``x (C, *rows, n)``.

    Slices are numbered by their flat index into ``rows``.  ``first``
    holds each group's first slice, ascending; ``inverse`` maps every
    slice to its group, so ``first[inverse]`` is each slice's
    representative.  ``distinct`` holds the representatives themselves,
    ``(C, D, n)`` in ``first`` order.
    """

    first: np.ndarray
    inverse: np.ndarray
    rows: tuple
    distinct: Optional[np.ndarray] = None

    def gather(self, out: np.ndarray) -> np.ndarray:
        """Per-group rows ``(K, D, R)`` back to ``(K, *rows, R)``."""
        return np.take(out, self.inverse, axis=1).reshape(
            out.shape[:1] + self.rows + out.shape[2:])

    def sum_repeats(self, grad: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`gather`: ``(K, *rows, R)`` → ``(K, D, R)``,
        each group's cotangents summed in slice order — the
        representative's first, then its repeats ascending (``add.at``
        is unbuffered and applies its indices in order)."""
        grad = grad.reshape(grad.shape[:1] + (-1,) + grad.shape[-1:])
        summed = np.take(grad, self.first, axis=1)
        repeats = np.flatnonzero(
            self.first[self.inverse] != np.arange(len(self.inverse)))
        np.add.at(summed, (slice(None), self.inverse[repeats]),
                  grad[:, repeats])
        return summed


def _zero_slices(bits: np.ndarray) -> np.ndarray:
    """Which slices of ``bits (*rows, n, C)`` hold only zero bits, as a
    flat mask (``-0.0`` is not zero here)."""
    if bits.strides[-2] == bits.strides[-1] * bits.shape[-1]:
        # Each slice is one run of memory: reduce it in one pass.
        nonzero = np.bitwise_or.reduce(bits, axis=(-2, -1)) != 0
    else:
        # The node axis is the outer one: OR whole rows first.
        nonzero = np.bitwise_or.reduce(bits, axis=-2).any(axis=-1)
    return ~nonzero.ravel()


@functools.lru_cache(maxsize=32)
def _key_weights(n: int, channels: int, dtype: np.dtype) -> np.ndarray:
    """Fixed random weights for :func:`_slice_keys`, made once per
    shape and dtype (read-only: every caller shares them)."""
    weights = np.random.default_rng(0).uniform(1.0, 2.0, (n, channels))
    weights = weights.astype(dtype)
    weights.flags.writeable = False
    return weights


def _slice_keys(slices: np.ndarray) -> np.ndarray:
    """One key per slice of a contiguous ``slices (L, n, C)``: its dot
    product with fixed random weights.  Every slice runs through the
    same loop, so byte-identical slices get equal keys."""
    _, n, channels = slices.shape
    with np.errstate(all="ignore"):
        return np.einsum("lnc,nc->l", slices,
                         _key_weights(n, channels, slices.dtype))


def _first_equal(slices: np.ndarray) -> np.ndarray:
    """For each slice of a contiguous ``slices (L, n, C)``, the first
    byte-identical one.

    Each slice's key (:func:`_slice_keys`) proposes the first slice with
    the same key, and the bytes decide.  A slice whose bytes differ from
    its proposal (a key collision: every ``-0.0``-only slice has key 0)
    goes round again among the unmatched ones, so every slice ends at
    its first equal one and no two different slices merge.
    """
    count = len(slices)
    if count < 2:
        return np.arange(count)
    keys = _slice_keys(slices)
    bits = slices.view(f"u{slices.itemsize}").reshape(count, -1)
    first = np.arange(count)
    todo = np.arange(count)
    while todo.size > 1:
        _, head, key = np.unique(keys[todo], return_index=True,
                                 return_inverse=True)
        proposed = todo[head[key]]
        repeat = proposed != todo
        todo, proposed = todo[repeat], proposed[repeat]
        same = (bits[todo] == bits[proposed]).all(axis=1)
        first[todo[same]] = proposed[same]
        todo = todo[~same]
    return first


def group_slices(x: np.ndarray) -> Optional[SliceGroups]:
    """Group the byte-identical slices of ``x (C, *rows, n)``.

    Every all-zero slice — the bulk of sparse demand — joins the first
    one, found with one bitwise pass (a ``-0.0`` slice is not zero).
    The remaining slices are gathered and grouped by content
    (:func:`_first_equal`), which covers the slices of the tensors that
    overlapping windows share.  Returns ``None`` when no slice repeats.
    """
    rows = x.shape[1:-1]
    count = int(np.prod(rows, dtype=np.int64))
    if count < 2:
        return None
    # Channels last: for a transpose of a contiguous (B, N, N', K) batch
    # this is the memory order, so each slice gathers as whole runs.
    slab = np.moveaxis(x, 0, -1)                    # (*rows, n, C)
    zero = _zero_slices(slab.view(f"u{x.itemsize}"))
    live = np.flatnonzero(~zero)
    # One gather serves both the grouping and the distinct slices: the
    # live slices, then the first zero slice, if any.
    picks = np.append(live, np.argmax(zero)) if zero.any() else live
    slices = slab[np.unravel_index(picks, rows)]    # (L, n, C)
    # Zero slices point at the first zero slice; live ones at their
    # first equal live slice.
    rep = np.full(count, picks[-1])
    rep[live] = live[_first_equal(slices[:live.size])]
    first = np.flatnonzero(rep == np.arange(count))
    if first.size == count:
        return None
    group = np.empty(count, dtype=np.intp)
    group[first] = np.arange(first.size)
    position = np.searchsorted(live, first)
    position[zero[first]] = live.size
    distinct = np.moveaxis(np.take(slices, position, axis=0), -1, 0)
    return SliceGroups(first, group[rep], rows, distinct)


def gcnn_encoder(x: Tensor, encoder: GCNNEncoder) -> Tensor:
    """A whole stage-1 encoder side as one autodiff node.

    ``x (C, *rows, n)`` is node-last (channels, slices, graph nodes);
    the output is ``(K, *rows, R)``.  Forward and backward are
    :meth:`GCNNEncoder.op` / :meth:`GCNNEncoder.adj_op`.

    Repeated slices — those of the tensors that overlapping windows
    share, and the all-zero ones of sparse demand — are encoded once
    (:func:`group_slices`, recomputed on every run so a replay follows
    its batch): ``op`` runs on the distinct slices, its output is
    gathered back, and the backward sums each group's cotangents before
    ``adj_op``.  An input that needs its own gradient is not grouped.
    """
    x = _ensure_tensor(x)
    if x.ndim < 3 or x.shape[0] != encoder.in_channels \
            or x.shape[-1] != encoder.n_nodes:
        raise ValueError(
            f"gcnn_encoder expects ({encoder.in_channels}, ..., "
            f"{encoder.n_nodes}) node-last input, got shape {x.shape}")
    params = encoder.params
    cache = groups = None

    def run() -> np.ndarray:
        nonlocal cache, groups
        groups = None if x.requires_grad else group_slices(x.data)
        if groups is None:
            out_data, cache = encoder.op(x.data)
            return out_data
        out_data, cache = encoder.op(groups.distinct)
        # The backward needs only the grouping, not the input's copy.
        groups = groups._replace(distinct=None)
        return groups.gather(out_data)

    def backward(grad: np.ndarray) -> None:
        if groups is not None:
            grad = groups.sum_repeats(grad)
        grads, dx = encoder.adj_op(grad, cache,
                                   input_grad=x.requires_grad)
        for param, g in zip(params, grads):
            if param.requires_grad:
                param._accumulate(g)
        if dx is not None:
            x._accumulate(dx)

    return Tensor._op(run, (x,) + params, backward)


# ----------------------------------------------------------------------
# Fused GRU cell (gates of paper §IV-C / Eqs. 7-10 gate structure)
# ----------------------------------------------------------------------
def fused_gru_gates(x: Tensor, h: Tensor,
                    w_reset: Tensor, b_reset: Tensor,
                    w_update: Tensor, b_update: Tensor,
                    w_cand: Tensor, b_cand: Tensor) -> Tensor:
    """Whole dense GRU cell update as one graph node.

    Computes ``r = σ([h,x] W_r + b_r)``, ``u = σ([h,x] W_u + b_u)``,
    ``c = tanh([r·h, x] W_c + b_c)``, ``h' = u·h + (1-u)·c`` — the
    concatenations, three matmuls, biases, nonlinearities and the state
    blend — with a single hand-written backward.  ``x`` is
    ``(..., input)``, ``h`` is ``(..., hidden)``.
    """
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    params = (w_reset, b_reset, w_update, b_update, w_cand, b_cand)
    hidden = h.shape[-1]
    wr = wu = wc = None
    hx = r = u = rhx = c = None

    def run() -> np.ndarray:
        nonlocal wr, wu, wc, hx, r, u, rhx, c
        wr, br, wu, bu, wc, bc = (p.data for p in params)
        hx = np.concatenate([h.data, x.data], axis=-1)
        r = _stable_sigmoid(hx @ wr + br)
        u = _stable_sigmoid(hx @ wu + bu)
        rhx = np.concatenate([r * h.data, x.data], axis=-1)
        c = np.tanh(rhx @ wc + bc)
        return u * h.data + (1.0 - u) * c

    def backward(grad: np.ndarray) -> None:
        joint = hx.shape[-1]
        # Blend: h' = u*h + (1-u)*c.
        dpre_c = (grad * (1.0 - u)) * (1.0 - c * c)         # tanh'
        dh = grad * u
        dpre_u = (grad * (h.data - c)) * u * (1.0 - u)      # sigmoid'
        # Candidate branch through rhx = [r*h, x].
        drhx = dpre_c @ wc.T
        drh = drhx[..., :hidden]
        dpre_r = (drh * h.data) * r * (1.0 - r)
        dh += drh * r
        # Gate branch through hx = [h, x].
        dhx = dpre_r @ wr.T
        dhx += dpre_u @ wu.T
        if h.requires_grad:
            h._accumulate(dh + dhx[..., :hidden])
        if x.requires_grad:
            x._accumulate(drhx[..., hidden:] + dhx[..., hidden:])
        if any(p.requires_grad for p in params):
            # Weight gradients flatten leading dims into one GEMM each.
            hx2 = hx.reshape(-1, joint)
            rhx2 = rhx.reshape(-1, joint)
            lead = tuple(range(grad.ndim - 1))
            if w_reset.requires_grad:
                w_reset._accumulate(hx2.T @ dpre_r.reshape(-1, hidden))
            if b_reset.requires_grad:
                b_reset._accumulate(dpre_r.sum(axis=lead))
            if w_update.requires_grad:
                w_update._accumulate(hx2.T @ dpre_u.reshape(-1, hidden))
            if b_update.requires_grad:
                b_update._accumulate(dpre_u.sum(axis=lead))
            if w_cand.requires_grad:
                w_cand._accumulate(rhx2.T @ dpre_c.reshape(-1, hidden))
            if b_cand.requires_grad:
                b_cand._accumulate(dpre_c.sum(axis=lead))

    return Tensor._op(run, (x, h) + params, backward)


# ----------------------------------------------------------------------
# Whole CNRNN cell (paper Eqs. 7-10)
# ----------------------------------------------------------------------
def fused_cnrnn_cell(lap: Union[Tensor, np.ndarray], x: Tensor, h: Tensor,
                     w_reset: Tensor, b_reset: Tensor,
                     w_update: Tensor, b_update: Tensor,
                     w_cand: Tensor, b_cand: Tensor, order: int) -> Tensor:
    """One graph-convolutional GRU step (Eqs. 7-10) as a single node.

    The graph analog of :func:`fused_gru_gates`: the concatenations, the
    three gate *graph convolutions* (all on the same Laplacian, so the
    reset/update mixes share one GEMM against the horizontally stacked
    weights), the nonlinearities, and the Eq. 10 state blend all run in
    raw numpy with one hand-written backward.  ``x (B, N, C_in)``,
    ``h (B, N, H)`` → ``(B, N, H)``.

    A ``(P, N, N)`` Laplacian stacks P architecture-identical cells (the
    AF's R and C recurrences): ``x``/``h`` gain a leading side axis and
    every weight/bias argument is a length-P sequence, so each gate GEMM
    runs batched over the sides (see :func:`cheb_conv`).
    """
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    lap_b, lead, per_side = _stacked_sides(
        lap, (w_reset, b_reset, w_update, b_update, w_cand, b_cand))
    w_rs, b_rs, w_us, b_us, w_cs, b_cs = per_side
    batch, n, cx = x.shape[-3:]
    hidden = h.shape[-1]
    joint = hidden + cx
    lap_t = np.swapaxes(lap_b, -1, -2)
    hx = f_hx = w_ru = ru = r = u = rhx = f_rhx = w_c = c = hmc = None

    def run() -> np.ndarray:
        nonlocal hx, f_hx, w_ru, ru, r, u, rhx, f_rhx, w_c, c, hmc
        hx = np.concatenate([h.data, x.data], axis=-1)
        f_hx = _cheb_feats(_cheb_terms(lap_b, hx, order), order)
        w_ru = _join([np.concatenate([wr.data, wu.data], axis=1)
                      for wr, wu in zip(w_rs, w_us)], lead)
        b_ru = _join([np.concatenate([br.data, bu.data])
                      for br, bu in zip(b_rs, b_us)], lead)
        pre_ru = np.matmul(f_hx, w_ru)                  # (*, B·N, 2H)
        ru = _stable_sigmoid(
            pre_ru.reshape(lead + (batch, n, 2 * hidden))
            + _bias_rows(b_ru))
        r, u = ru[..., :hidden], ru[..., hidden:]
        rhx = np.concatenate([r * h.data, x.data], axis=-1)
        f_rhx = _cheb_feats(_cheb_terms(lap_b, rhx, order), order)
        w_c = _join([wc.data for wc in w_cs], lead)
        c = np.tanh(np.matmul(f_rhx, w_c).reshape(lead + (batch, n, hidden))
                    + _bias_rows(_join([bc.data for bc in b_cs], lead)))
        hmc = h.data - c
        return c + u * hmc                              # Eq. 10 blend

    def backward(grad: np.ndarray) -> None:
        # Eq. 10 blend and the two nonlinearities (σ' for both gates in
        # one pass over the joined r|u block).
        dh = grad * u
        dpre_c = (grad - dh) * (1.0 - c * c)
        dru = ru * (1.0 - ru)
        dpre_u = (grad * hmc) * dru[..., hidden:]
        # Candidate convolution adjoint (through rhx = [r·h, x]).
        dpre_c_flat = dpre_c.reshape(lead + (batch * n, hidden))
        if any(w.requires_grad for w in w_cs):
            _accumulate_sides(w_cs, np.matmul(np.swapaxes(f_rhx, -1, -2),
                                              dpre_c_flat), lead)
        if any(b.requires_grad for b in b_cs):
            _accumulate_sides(b_cs, dpre_c_flat.sum(axis=-2), lead)
        drhx = _cheb_adjoint(lap_t, dpre_c_flat, w_c,
                             lead + (batch, n, joint), order)
        drh = drhx[..., :hidden]
        dpre_r = (drh * h.data) * dru[..., :hidden]
        dh += drh * r
        # Gate convolutions' adjoint (shared GEMMs through hx = [h, x]).
        dpre_ru_flat = np.concatenate(
            [dpre_r.reshape(lead + (batch * n, hidden)),
             dpre_u.reshape(lead + (batch * n, hidden))], axis=-1)
        if any(w.requires_grad for w in w_rs + w_us):
            dw_ru = np.matmul(np.swapaxes(f_hx, -1, -2), dpre_ru_flat)
            _accumulate_sides(w_rs, dw_ru[..., :hidden], lead)
            _accumulate_sides(w_us, dw_ru[..., hidden:], lead)
        if any(b.requires_grad for b in b_rs + b_us):
            db_ru = dpre_ru_flat.sum(axis=-2)
            _accumulate_sides(b_rs, db_ru[..., :hidden], lead)
            _accumulate_sides(b_us, db_ru[..., hidden:], lead)
        dhx = _cheb_adjoint(lap_t, dpre_ru_flat, w_ru,
                            lead + (batch, n, joint), order)
        if h.requires_grad:
            h._accumulate(dh + dhx[..., :hidden])
        if x.requires_grad:
            x._accumulate(drhx[..., hidden:] + dhx[..., hidden:])

    params = tuple(p for side in zip(*per_side) for p in side)
    return Tensor._op(run, (x, h) + params, backward)


# ----------------------------------------------------------------------
# Recovery (paper §IV-D: per-bucket R @ C + bucket-axis softmax)
# ----------------------------------------------------------------------
def fused_softmax_recovery(r_factors: Tensor, c_factors: Tensor) -> Tensor:
    """Per-bucket factor product + bucket softmax as one node.

    ``r_factors (..., N, β, K)`` and ``c_factors (..., β, N', K)`` →
    ``(..., N, N', K)`` where cell ``(i, j)`` holds the softmax over the
    ``K`` scores ``R[i, :, k] · C[:, j, k]``.  Backward applies the
    closed-form softmax VJP ``s·(g - Σ g·s)`` followed by the two
    batched matmul adjoints.
    """
    r, c = _ensure_tensor(r_factors), _ensure_tensor(c_factors)
    if r.ndim < 3 or c.ndim < 3:
        raise ValueError("factor tensors must have >= 3 dims")
    rb = cb = out_data = None

    def run() -> np.ndarray:
        nonlocal rb, cb, out_data
        # Buckets become the batch axis of one batched GEMM:
        # (..., K, N, β) @ (..., K, β, N') -> (..., K, N, N').
        rb = np.moveaxis(r.data, -1, -3)
        cb = np.moveaxis(c.data, -1, -3)
        raw = rb @ cb
        scores = np.moveaxis(raw, -3, -1)
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        out_data = np.ascontiguousarray(scores)
        return out_data

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=-1, keepdims=True)
        draw = out_data * (grad - dot)               # softmax VJP
        draw_k = np.moveaxis(draw, -1, -3)           # (..., K, N, N')
        if r.requires_grad:
            dr = draw_k @ cb.swapaxes(-1, -2)        # (..., K, N, β)
            r._accumulate(
                _unbroadcast(np.moveaxis(dr, -3, -1), r.shape))
        if c.requires_grad:
            dc = rb.swapaxes(-1, -2) @ draw_k        # (..., K, β, N')
            c._accumulate(
                _unbroadcast(np.moveaxis(dc, -3, -1), c.shape))

    return Tensor._op(run, (r, c), backward)


# ----------------------------------------------------------------------
# Masked Frobenius loss (paper Eq. 4's data term)
# ----------------------------------------------------------------------
def fused_masked_frobenius(prediction: Tensor, truth: np.ndarray,
                           mask: np.ndarray) -> Tensor:
    """``Σ ((pred - truth)·Ω)² / |Ω|`` as one node.

    ``truth`` matches ``prediction (..., N, N', K)``; ``mask`` is the
    indication tensor ``(..., N, N')``, broadcast over buckets.  The
    normalizer is the observed-cell count (≥ 1), keeping the loss scale
    independent of sparsity.

    Replay note: when ``truth``/``mask`` already have the prediction's
    dtype the arrays are captured by reference (no copy), so the replay
    engine can refresh a recorded step by writing new batches into the
    same buffers.
    """
    prediction = _ensure_tensor(prediction)
    dtype = prediction.data.dtype
    mask_arr = np.asarray(mask, dtype=dtype)
    truth_arr = np.asarray(truth, dtype=dtype)
    weights = mask_arr[..., None]
    diff = None
    observed = None

    def run() -> np.ndarray:
        nonlocal diff, observed
        diff = (prediction.data - truth_arr) * weights
        observed = max(float(mask_arr.sum()), 1.0)
        return np.asarray((diff * diff).sum() / observed, dtype=dtype)

    def backward(grad: np.ndarray) -> None:
        if prediction.requires_grad:
            # d/dpred of (w·(pred-truth))² is 2 w²(pred-truth) = 2 w·diff.
            # _unbroadcast folds the gradient back onto prediction's
            # shape when truth/mask broadcast against it.
            prediction._accumulate(_unbroadcast(
                (float(grad) * 2.0 / observed) * diff * weights,
                prediction.shape))

    return Tensor._op(run, (prediction,), backward)
