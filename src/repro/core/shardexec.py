"""Stage-1 factor computation under a shard plan and a memory budget.

The stage-1 bottleneck scales with ``N²``: every origin (and every
destination) contributes one GCNN slice encoding, so a batch of ``B``
tensors over ``N`` regions holds ``2·B·N`` slices.  At metro scale
almost all of them are empty, and the dense encoder node
(``ops.gcnn_encoder``) already encodes each distinct slice once — every
all-zero slice and every slice of a repeated tensor shares one
encoding.  That collapse is the metro lever: its caches are
distinct-slice sized.

This module therefore runs each side through that same node, so its
losses, gradients, weights and RNG are bit-identical to the dense path
at every graph size, and adds what metro runs need around it: a
validated :class:`~repro.graph.sharding.ShardPlan` that must match the
model (the plan also partitions block-sparse storage), and a strict
memory budget on each side's stage-1 working set, measured with
tracemalloc.  Stage-1 work is not split per shard: once the slices are
grouped, a shard's share is a handful of rows, and OpenBLAS rounds such
small GEMMs differently from the full one, so per-shard forwards would
give up bit parity for no memory gain (the caches are distinct-slice
sized either way).

:func:`repro.core.spatial.sharded_factorize_tensor_batch` is the entry
point the model uses.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, Optional, Tuple

from ..autodiff.tensor import Tensor
from ..graph.sharding import ShardPlan

__all__ = ["ShardedExecution", "ShardMemoryBudgetError"]


class ShardMemoryBudgetError(RuntimeError):
    """One side's stage-1 working set exceeded the memory budget."""

    def __init__(self, side: str, used: int, budget: int):
        super().__init__(
            f"stage 1's {side} side used {used} bytes, over the budget of "
            f"{budget} bytes; raise memory_budget_bytes")
        self.side = side
        self.used = used
        self.budget = budget


# ----------------------------------------------------------------------
class ShardedExecution:
    """Runs stage-1 factorization under a plan and a memory budget.

    Parameters
    ----------
    plan:
        Validated :class:`~repro.graph.sharding.ShardPlan`; it must
        cover the model's origins and destinations.
    memory_budget_bytes:
        Optional hard cap on one side's incremental stage-1 working set,
        enforced with tracemalloc on profiled forwards (the first
        forward after construction or :meth:`arm_profile`).
    """

    def __init__(self, plan: ShardPlan,
                 memory_budget_bytes: Optional[int] = None):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        plan.validate()
        self.plan = plan
        self.memory_budget_bytes = memory_budget_bytes
        #: Each side's stage-1 working set on the last profiled forward.
        self.peaks: Dict[str, int] = {}
        self._profile_pending = True
        self._profiling = False

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

    def arm_profile(self) -> None:
        """Profile (and budget-check) the next forward."""
        self._profile_pending = True

    @property
    def max_shard_peak_bytes(self) -> int:
        return max(self.peaks.values(), default=0)

    def describe(self) -> dict:
        """Summary for telemetry and benchmark reports."""
        return {"memory_budget_bytes": self.memory_budget_bytes,
                "max_shard_peak_bytes": self.max_shard_peak_bytes,
                "plan": self.plan.describe()}

    # ------------------------------------------------------------------
    def factorize(self, factorizer_r, factorizer_c,
                  tensors: Tensor) -> Tuple[Tensor, Tensor]:
        """Budgeted twin of
        :func:`repro.core.spatial.factorize_tensor_batch`:
        ``(B, N, N', K)`` → ``R (B, N, β, K)``, ``C (B, β, N', K)``."""
        _, n_origins, n_dests, _ = tensors.shape
        if n_origins != self.plan.n_origins \
                or n_dests != self.plan.n_destinations:
            raise ValueError(
                f"tensor batch is {n_origins}x{n_dests} regions but the "
                f"plan covers {self.plan.n_origins}x"
                f"{self.plan.n_destinations}")
        profiled = self._profile_pending
        started = False
        if profiled:
            self._profile_pending = False
            self.peaks = {}
            self._profiling = True
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
        try:
            r = self._measure("r", lambda: factorizer_r.encode(
                tensors.transpose((3, 0, 1, 2))))
            c = self._measure("c", lambda: factorizer_c.encode(
                tensors.transpose((3, 0, 2, 1))))
        finally:
            if profiled:
                self._profiling = False
                if started:
                    tracemalloc.stop()
        return r.transpose((1, 2, 3, 0)), c.transpose((1, 3, 2, 0))

    # ------------------------------------------------------------------
    def _measure(self, side: str, fn):
        """Run ``fn`` under a tracemalloc measurement when profiling."""
        if not self._profiling:
            return fn()
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
        used = max(int(peak - baseline), 0)
        self.peaks[side] = used
        budget = self.memory_budget_bytes
        if budget is not None and used > budget:
            raise ShardMemoryBudgetError(side, used, budget)
        return result
