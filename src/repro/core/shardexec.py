"""Sharded execution of the AF's stage-1 factor computation.

The stage-1 bottleneck scales with ``N²``: every origin (and every
destination) contributes one GCNN slice encoding, so a batch of ``B``
tensors over ``N`` regions runs ``2·B·N`` slice encodings whose
activations alone dwarf memory at metro scale.  The slice axis is
embarrassingly partitionable — each origin slice is an independent
signal over the *destination* graph — so a :class:`~repro.graph.sharding.ShardPlan`
splits the R side along origin clusters and the C side along
destination clusters, and this module runs one shard's slices at a
time, with a strict per-shard memory budget measured by tracemalloc.

Because the graph convolutions propagate along the *other* side's
graph, slicing the shard axis never crosses a convolution: per-shard
forwards are bit-identical rows of the dense forward: every shard runs
the same node-last kernel as dense (``GCNNEncoder.op`` on its slice
rows), and row- or column-partitioned GEMMs are exact on this BLAS.  The
plan's halos therefore stay empty-handed here — they document what a
graph-axis sharding *would* exchange — and the only parity hazard is
the backward weight reduction, which motivates the two modes:

``exact``
    Per-shard forward, but the per-stage caches are scattered into
    full dense-order buffers and the backward runs the dense math
    (single full-size GEMMs per parameter).  Like the dense encoder
    (``ops.gcnn_encoder``), it groups the batch's byte-identical
    tensors first and shards only the distinct ones, summing repeats'
    output gradients the same way.  Bit-identical losses, gradients,
    weights and RNG versus the dense path — the parity mode the
    benchmark gate verifies — at the price of dense-sized caches (one
    row per distinct tensor).

``blocked``
    Per-shard backward accumulating into per-parameter buffers in
    fixed shard order, plus **zero-slice collapse**: at metro scale
    most OD slices are entirely empty, all empty slices share one
    forward state (the bias response), so they are computed once
    forward and their output gradients are summed into a single
    pseudo-shard backward — exact by linearity.  Deterministic
    run-to-run, memory bounded by the occupied slices of one shard,
    and the source of the wall-clock win on sparse cities; weight
    gradients match dense to float round-off (not bitwise) because
    the reduction is chunked.

:func:`repro.core.spatial.sharded_factorize_tensor_batch` is the entry
point the model uses.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import ops
from ..autodiff.tensor import Tensor
from ..graph.sharding import Shard, ShardPlan

__all__ = ["ShardedExecution", "ShardMemoryBudgetError",
           "DataParallelUnit"]


class ShardMemoryBudgetError(RuntimeError):
    """One shard's working set exceeded the configured memory budget."""

    def __init__(self, side: str, shard_index: int, used: int,
                 budget: int):
        super().__init__(
            f"shard {shard_index} ({side} side) used {used} bytes, over "
            f"the per-shard budget of {budget} bytes; use more shards or "
            f"raise memory_budget_bytes")
        self.side = side
        self.shard_index = shard_index
        self.used = used
        self.budget = budget


@dataclass(frozen=True)
class DataParallelUnit:
    """One schedulable unit of sharded stage-1 work.

    A unit is (side, shard): the slices of one origin shard encoded
    over the destination graph (side ``"r"``), or one destination
    shard's slices over the origin graph (side ``"c"``).  Units share
    parameters and reduce gradients into them; they own disjoint slice
    rows, so any subset can run on any worker in any order (the
    ``exact`` mode reduction is order-free, ``blocked`` fixes the
    order for determinism).
    """

    side: str
    shard: Shard
    slices_per_sample: int
    graph_nodes: int

    @property
    def index(self) -> int:
        return self.shard.index

    def slice_rows(self, batch: int) -> np.ndarray:
        """Rows of this unit in the flattened ``(B·N, nodes, K)`` slice
        batch (slice ``b·N + region`` for each owned region)."""
        n = self.slices_per_sample_total
        return (np.arange(batch)[:, None] * n
                + self.shard.owned[None, :]).ravel()

    # Total slices per sample on this side (the shard axis length);
    # set post-construction by the execution that builds the unit.
    slices_per_sample_total: int = 0


def _backward_into(encoder, grad: np.ndarray, cache, sink: "_GradSink",
                   need_input_grad: bool = False) -> Optional[np.ndarray]:
    grads, dx = encoder.adj_op(grad, cache, input_grad=need_input_grad)
    for param, g in zip(encoder.params, grads):
        sink.add(param, g)
    return dx


class _GradSink:
    """Accumulates gradient contributions per parameter.

    ``direct=True`` forwards each contribution straight to the
    parameter (exact mode touches every parameter exactly once, with
    the full-size dense GEMM); ``direct=False`` sums contributions
    locally in call order and flushes once, so the blocked mode's
    reduction order is the fixed shard order regardless of how shards
    were scheduled.
    """

    def __init__(self, direct: bool):
        self.direct = direct
        self._params: Dict[int, Tensor] = {}
        self._totals: Dict[int, np.ndarray] = {}

    def add(self, param: Tensor, value: np.ndarray) -> None:
        if not param.requires_grad:
            return
        if self.direct:
            param._accumulate(value)
            return
        key = id(param)
        if key in self._totals:
            self._totals[key] += value
        else:
            self._params[key] = param
            self._totals[key] = value

    def flush(self) -> None:
        for key, total in self._totals.items():
            self._params[key]._accumulate(total)
        self._totals.clear()
        self._params.clear()


# ----------------------------------------------------------------------
class ShardedExecution:
    """Executes stage-1 factorization shard by shard under a plan.

    Parameters
    ----------
    plan:
        Validated :class:`~repro.graph.sharding.ShardPlan`; origin
        shards drive the R side, destination shards the C side.
    mode:
        ``"exact"`` (bit-identical to dense; dense-sized backward
        caches) or ``"blocked"`` (zero-slice collapse + per-shard
        reduction; memory bounded, deterministic, float-level parity).
    memory_budget_bytes:
        Optional hard cap on one shard's incremental working set,
        enforced with tracemalloc on profiled forwards (the first
        forward after construction or :meth:`arm_profile`).
    """

    MODES = ("exact", "blocked")

    def __init__(self, plan: ShardPlan, mode: str = "blocked",
                 memory_budget_bytes: Optional[int] = None):
        if mode not in self.MODES:
            raise ValueError(
                f"mode must be one of {self.MODES}, got {mode!r}")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        plan.validate()
        self.plan = plan
        self.mode = mode
        self.memory_budget_bytes = memory_budget_bytes
        self.shard_peaks: Dict[str, List[int]] = {"r": [], "c": []}
        self.last_occupancy: Dict[str, dict] = {}
        #: Tensors ``exact`` mode found repeated (and encoded once) per
        #: side, summed over every forward so far.
        self.repeated_tensors: Dict[str, int] = {"r": 0, "c": 0}
        self._profile_pending = True
        self._profiling = False
        self._started_tracing = False

    # ------------------------------------------------------------------
    def supports(self, model) -> Tuple[bool, str]:
        """Whether this execution can run ``model``'s stage 1."""
        for name in ("factor_r", "factor_c"):
            factorizer = getattr(model, name, None)
            if factorizer is None:
                return False, f"model has no {name} factorizer"
        if self.plan.n_origins != model.n_origins \
                or self.plan.n_destinations != model.n_destinations:
            return False, (
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations} regions but the model has "
                f"{model.n_origins}x{model.n_destinations}")
        return True, "ok"

    def data_parallel_units(self) -> List[DataParallelUnit]:
        """The schedulable (side, shard) units this plan defines."""
        units = []
        for shard in self.plan.origin_shards:
            units.append(DataParallelUnit(
                side="r", shard=shard,
                slices_per_sample=shard.size,
                graph_nodes=self.plan.n_destinations,
                slices_per_sample_total=self.plan.n_origins))
        for shard in self.plan.dest_shards:
            units.append(DataParallelUnit(
                side="c", shard=shard,
                slices_per_sample=shard.size,
                graph_nodes=self.plan.n_origins,
                slices_per_sample_total=self.plan.n_destinations))
        return units

    def arm_profile(self) -> None:
        """Profile (and budget-check) the next forward's shards."""
        self._profile_pending = True

    @property
    def max_shard_peak_bytes(self) -> int:
        peaks = self.shard_peaks["r"] + self.shard_peaks["c"]
        return max(peaks) if peaks else 0

    def describe(self) -> dict:
        """Summary for telemetry and benchmark reports."""
        return {"mode": self.mode,
                "memory_budget_bytes": self.memory_budget_bytes,
                "max_shard_peak_bytes": self.max_shard_peak_bytes,
                "occupancy": self.last_occupancy,
                "plan": self.plan.describe()}

    # ------------------------------------------------------------------
    def factorize(self, factorizer_r, factorizer_c,
                  tensors: Tensor) -> Tuple[Tensor, Tensor]:
        """Sharded twin of
        :func:`repro.core.spatial.factorize_tensor_batch`:
        ``(B, N, N', K)`` → ``R (B, N, β, K)``, ``C (B, β, N', K)``."""
        batch, n_origins, n_dests, k = tensors.shape
        if n_origins != self.plan.n_origins \
                or n_dests != self.plan.n_destinations:
            raise ValueError(
                f"tensor batch is {n_origins}x{n_dests} regions but the "
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations}")
        # Node-last slices, (K, slices, nodes): shards own slice rows.
        r_slices = tensors.transpose((3, 0, 1, 2)).reshape(
            k, batch * n_origins, n_dests)
        c_slices = tensors.transpose((3, 0, 2, 1)).reshape(
            k, batch * n_dests, n_origins)
        profiled = self._profile_pending
        if profiled:
            self._profile_pending = False
            self.shard_peaks = {"r": [], "c": []}
            self._profiling = True
            self._started_tracing = not tracemalloc.is_tracing()
            if self._started_tracing:
                tracemalloc.start()
        try:
            r = self._side_node(r_slices, factorizer_r, "r", batch,
                                self.plan.origin_shards)
            c = self._side_node(c_slices, factorizer_c, "c", batch,
                                self.plan.dest_shards)
        finally:
            if profiled:
                self._profiling = False
                if self._started_tracing:
                    tracemalloc.stop()
                    self._started_tracing = False
        r = r.reshape(k, batch, n_origins, factorizer_r.rank)
        c = c.reshape(k, batch, n_dests, factorizer_c.rank)
        return r.transpose((1, 2, 3, 0)), c.transpose((1, 3, 2, 0))

    # ------------------------------------------------------------------
    def _shard_rows(self, shard: Shard, batch: int,
                    n_side: int) -> np.ndarray:
        return (np.arange(batch)[:, None] * n_side
                + shard.owned[None, :]).ravel()

    def _measure(self, side: str, shard_index: int, fn):
        """Run ``fn`` under a per-shard tracemalloc measurement."""
        if not self._profiling:
            return fn()
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        used = max(int(peak - baseline), 0)
        self.shard_peaks[side].append(used)
        budget = self.memory_budget_bytes
        if budget is not None and used > budget:
            raise ShardMemoryBudgetError(side, shard_index, used, budget)
        return result

    def _side_node(self, x: Tensor, factorizer, side: str, batch: int,
                   shards: Tuple[Shard, ...]) -> Tensor:
        encoder = factorizer.encoder
        if self.mode == "blocked" and x.requires_grad:
            raise NotImplementedError(
                "blocked mode does not propagate gradients into the "
                "history input (zero-slice collapse shares forward "
                "state); use mode='exact' or detach the input")
        n_side = self.plan.n_origins if side == "r" \
            else self.plan.n_destinations
        state: dict = {}
        if self.mode == "exact":
            run = self._exact_run(x, encoder, side, batch, shards, n_side,
                                  state)
            backward = self._exact_backward(x, encoder, n_side, state)
        else:
            run = self._blocked_run(x, encoder, side, batch, shards,
                                    n_side, state)
            backward = self._blocked_backward(encoder, state)
        return Tensor._op(run, (x,) + encoder.params, backward)

    # ------------------------------------------------------------------
    # exact mode: per-shard forward over the distinct tensors,
    # dense-order caches, dense backward
    # ------------------------------------------------------------------
    def _exact_run(self, x, encoder, side, batch, shards, n_side, state):
        def run() -> np.ndarray:
            # The dense path's grouping, over whole tensors: only the
            # distinct ones are sharded, so caches are distinct-sized.
            x4 = x.data.reshape(x.shape[0], batch, n_side, -1)
            groups = None if x.requires_grad else ops.group_slices(x4)
            if groups is not None:
                x4 = np.take(x4, groups.first, axis=1)
            distinct = x4.shape[1]
            self.repeated_tensors[side] += batch - distinct
            x3 = x4.reshape(x4.shape[0], distinct * n_side, -1)
            total = x3.shape[1]
            cache_full = out_full = None
            for shard in shards:
                rows = self._shard_rows(shard, distinct, n_side)
                out, cache = self._measure(
                    side, shard.index,
                    lambda rows=rows: encoder.op(x3[:, rows]))
                if out_full is None:
                    # Every cache array keeps its slices on axis -2.
                    cache_full = [
                        np.empty(a.shape[:-2] + (total, a.shape[-1]),
                                 dtype=a.dtype) for a in cache]
                    out_full = np.empty(
                        (out.shape[0], total, out.shape[-1]),
                        dtype=out.dtype)
                for full, chunk in zip(cache_full, cache):
                    full[..., rows, :] = chunk
                out_full[:, rows] = out
            state["cache"] = cache_full
            state["groups"] = groups
            if groups is None:
                return out_full
            k, _, rank = out_full.shape
            return groups.gather(out_full.reshape(k, distinct, n_side, rank)
                                 ).reshape(k, batch * n_side, rank)
        return run

    def _exact_backward(self, x, encoder, n_side, state):
        def backward(grad: np.ndarray) -> None:
            groups = state.pop("groups")
            if groups is not None:
                k, _, rank = grad.shape
                grad = groups.sum_repeats(
                    grad.reshape(k, -1, n_side, rank)).reshape(k, -1, rank)
            # The dense backward on the reassembled caches.
            dx = _backward_into(encoder, grad, state.pop("cache"),
                                _GradSink(direct=True),
                                need_input_grad=x.requires_grad)
            if dx is not None:
                x._accumulate(dx)
        return backward

    # ------------------------------------------------------------------
    # blocked mode: zero-slice collapse + per-shard backward reduction
    # ------------------------------------------------------------------
    def _blocked_run(self, x, encoder, side, batch, shards, n_side,
                     state):
        def run() -> np.ndarray:
            x3 = x.data
            total = x3.shape[1]
            occupied = x3.any(axis=(0, 2))
            # All-empty slices share one forward state: the network's
            # bias response.  Compute it once from a single zero slice.
            zero = np.zeros((x3.shape[0], 1, x3.shape[2]), dtype=x3.dtype)
            out_zero, cache_zero = encoder.op(zero)
            out_full = np.empty((out_zero.shape[0], total,
                                 out_zero.shape[-1]), dtype=out_zero.dtype)
            empty = ~occupied
            out_full[:, empty] = out_zero
            shard_caches = []
            for shard in shards:
                rows = self._shard_rows(shard, batch, n_side)
                rows = rows[occupied[rows]]
                if rows.size == 0:
                    if self._profiling:
                        self.shard_peaks[side].append(0)
                    continue
                out, cache = self._measure(
                    side, shard.index,
                    lambda rows=rows: encoder.op(x3[:, rows]))
                out_full[:, rows] = out
                shard_caches.append((rows, cache))
            state["shards"] = shard_caches
            state["empty"] = empty
            state["cache_zero"] = cache_zero
            self.last_occupancy[side] = {
                "slices": int(total),
                "occupied": int(occupied.sum()),
                "occupancy": float(occupied.mean())}
            return out_full
        return run

    def _blocked_backward(self, encoder, state):
        def backward(grad: np.ndarray) -> None:
            sink = _GradSink(direct=False)
            for rows, cache in state.pop("shards"):
                _backward_into(encoder, grad[:, rows], cache, sink)
            empty = state.pop("empty")
            cache_zero = state.pop("cache_zero")
            if empty.any():
                # The collapse pseudo-shard: every empty slice has the
                # same forward caches, and the backward is linear in the
                # output gradient given those caches, so one backward of
                # the summed gradient equals the sum of backwards.
                grad_empty = grad[:, empty].sum(axis=1, keepdims=True)
                _backward_into(encoder, grad_empty, cache_zero, sink)
            sink.flush()
        return backward
