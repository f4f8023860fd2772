"""Primitive-op oracles for the fused kernels.

Every fused kernel in :mod:`repro.autodiff.ops` (and the fused Dirichlet
energy and stage-1 encoder) has exactly one production implementation.
The compositions here rebuild the same math from primitive autodiff ops
— one graph node per matmul, nonlinearity and relayout — and are the
ground truth the parity tests compare the kernels against.

:func:`reference_kernels` swaps the oracles in for the kernels at their
call sites, so a whole model can run on primitive ops for end-to-end
parity checks.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np

from repro.autodiff import ops
from repro.autodiff.ops import concat, sigmoid, softmax, stack, tanh
from repro.autodiff.tensor import Tensor, _ensure_tensor
from repro.core import losses
from repro.core.spatial import SpatialFactorizer
from repro.graph.laplacian import laplacian


def _per_side(lap, signals, params):
    """``None`` for a 2-D Laplacian; for a ``(P, N, N)`` one, the
    per-side ``(lap, signals, params)`` of a stacked kernel call."""
    lap = lap.data if isinstance(lap, Tensor) else np.asarray(lap)
    if lap.ndim == 2:
        return None
    return [(lap[p], [signal[p] for signal in signals],
             [param[p] for param in params])
            for p in range(lap.shape[0])]


def cheb_propagate_reference(lap, x: Tensor, order: int) -> Tensor:
    """Chebyshev recursion ``T_s(L)·x`` stacked on a trailing axis."""
    if order < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {order}")
    lap = lap if isinstance(lap, Tensor) else Tensor(np.asarray(lap))
    x = _ensure_tensor(x)
    terms = [x]
    if order > 1:
        terms.append(lap.matmul(x))
    for _ in range(2, order):
        terms.append(2.0 * lap.matmul(terms[-1]) - terms[-2])
    return stack(terms, axis=-1)


def cheb_conv_reference(lap, x: Tensor, weight, bias, order: int) -> Tensor:
    """Oracle of :func:`repro.autodiff.ops.cheb_conv`."""
    x = _ensure_tensor(x)
    sides = _per_side(lap, [x], [weight, bias])
    if sides is not None:
        return stack([cheb_conv_reference(lap_p, x_p, *params, order)
                      for lap_p, (x_p,), params in sides], axis=0)
    batch, n, channels = x.shape
    flat = x.transpose((1, 0, 2)).reshape(n, batch * channels)
    stacked = cheb_propagate_reference(lap, flat, order)
    features = stacked.reshape(n * batch, channels * order)
    mixed = features.matmul(weight)
    out = mixed.reshape(n, batch, weight.shape[-1])
    return out.transpose((1, 0, 2)) + bias


def fused_gru_gates_reference(x: Tensor, h: Tensor,
                              w_reset: Tensor, b_reset: Tensor,
                              w_update: Tensor, b_update: Tensor,
                              w_cand: Tensor, b_cand: Tensor) -> Tensor:
    """Oracle of :func:`repro.autodiff.ops.fused_gru_gates`."""
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    hx = concat([h, x], axis=-1)
    reset = sigmoid(hx.matmul(w_reset) + b_reset)
    update = sigmoid(hx.matmul(w_update) + b_update)
    rhx = concat([reset * h, x], axis=-1)
    candidate = tanh(rhx.matmul(w_cand) + b_cand)
    return update * h + (1.0 - update) * candidate


def fused_cnrnn_cell_reference(lap, x: Tensor, h: Tensor,
                               w_reset, b_reset, w_update, b_update,
                               w_cand, b_cand, order: int) -> Tensor:
    """Oracle of :func:`repro.autodiff.ops.fused_cnrnn_cell`."""
    x, h = _ensure_tensor(x), _ensure_tensor(h)
    sides = _per_side(lap, [x, h], [w_reset, b_reset, w_update, b_update,
                                    w_cand, b_cand])
    if sides is not None:
        return stack([fused_cnrnn_cell_reference(lap_p, x_p, h_p, *params,
                                                 order)
                      for lap_p, (x_p, h_p), params in sides], axis=0)
    hx = concat([h, x], axis=-1)
    reset = sigmoid(cheb_conv_reference(lap, hx, w_reset, b_reset, order))
    update = sigmoid(cheb_conv_reference(lap, hx, w_update, b_update,
                                         order))
    rhx = concat([reset * h, x], axis=-1)
    candidate = tanh(cheb_conv_reference(lap, rhx, w_cand, b_cand, order))
    return update * h + (1.0 - update) * candidate


def fused_softmax_recovery_reference(r_factors: Tensor,
                                     c_factors: Tensor) -> Tensor:
    """Oracle of :func:`repro.autodiff.ops.fused_softmax_recovery`."""
    r, c = _ensure_tensor(r_factors), _ensure_tensor(c_factors)
    ndim_r = r.ndim
    r_bucket_first = r.transpose(
        list(range(ndim_r - 3)) + [ndim_r - 1, ndim_r - 3, ndim_r - 2])
    ndim_c = c.ndim
    c_bucket_first = c.transpose(
        list(range(ndim_c - 3)) + [ndim_c - 1, ndim_c - 3, ndim_c - 2])
    raw = r_bucket_first.matmul(c_bucket_first)
    ndim = raw.ndim
    scores = raw.transpose(
        list(range(ndim - 3)) + [ndim - 2, ndim - 1, ndim - 3])
    return softmax(scores, axis=-1)


def fused_masked_frobenius_reference(prediction: Tensor, truth: np.ndarray,
                                     mask: np.ndarray) -> Tensor:
    """Oracle of :func:`repro.autodiff.ops.fused_masked_frobenius`."""
    prediction = _ensure_tensor(prediction)
    mask = np.asarray(mask, dtype=np.float64)
    weights = Tensor(mask[..., None])
    diff = (prediction - Tensor(np.asarray(truth))) * weights
    observed = max(float(mask.sum()), 1.0)
    return (diff * diff).sum() * (1.0 / observed)


def dirichlet_energy_reference(x: Tensor, weights: np.ndarray,
                               node_axis: int = 0) -> Tensor:
    """Oracle of :func:`repro.graph.energy.dirichlet_energy`."""
    lap = Tensor(laplacian(weights))
    axis = node_axis % x.ndim
    if x.shape[axis] != lap.shape[0]:
        raise ValueError(
            f"signal has {x.shape[axis]} nodes on axis {axis}, graph has "
            f"{lap.shape[0]}")
    if axis != 0:
        order = [axis] + [i for i in range(x.ndim) if i != axis]
        x = x.transpose(order)
    flat = x.reshape(x.shape[0], -1)
    return (flat * lap.matmul(flat)).sum()


def encode_reference(factorizer: SpatialFactorizer, x: Tensor) -> Tensor:
    """Oracle of :meth:`repro.core.spatial.SpatialFactorizer.encode`:
    the factorizer's own conv/pool/linear layers, slice-major."""
    k, rows, nodes = x.shape[0], x.shape[1:-1], x.shape[-1]
    ndim = x.ndim
    h = x.transpose(tuple(range(1, ndim)) + (0,)).reshape(-1, nodes, k)
    for conv, pool in zip(factorizer.convs, factorizer.pools):
        h = ops.relu(conv(h))
        if pool is not None:
            h = pool(h)
    h = factorizer.to_buckets(h)                # (B*, beta', K)
    h = h.transpose((0, 2, 1))                  # (B*, K, beta')
    h = factorizer.latent_proj(h)               # (B*, K, rank)
    h = h.reshape(rows + (k, factorizer.rank))
    return h.transpose((ndim - 2,) + tuple(range(ndim - 2)) + (ndim - 1,))


#: (owner, attribute, oracle): each kernel at the call site the models
#: reach it through.
ORACLES = (
    (ops, "cheb_conv", cheb_conv_reference),
    (ops, "fused_gru_gates", fused_gru_gates_reference),
    (ops, "fused_cnrnn_cell", fused_cnrnn_cell_reference),
    (ops, "fused_softmax_recovery", fused_softmax_recovery_reference),
    (ops, "fused_masked_frobenius", fused_masked_frobenius_reference),
    (losses, "dirichlet_energy", dirichlet_energy_reference),
    (SpatialFactorizer, "encode", encode_reference),
)


@contextlib.contextmanager
def reference_kernels():
    """Run every fused kernel as its primitive-op oracle while active."""
    with contextlib.ExitStack() as patches:
        for owner, name, oracle in ORACLES:
            patches.enter_context(mock.patch.object(owner, name, oracle))
        yield
