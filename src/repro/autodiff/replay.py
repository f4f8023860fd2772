"""Capture/replay execution engine: run a recorded step directly.

Every step of a fixed (model, input-shape, horizon) signature builds the
*same* autodiff graph: the op sequence, all shapes, and the parameter
tensors never change between iterations — only the batch contents and
the weights' values do.  Eager execution nevertheless pays the full
Python graph-construction tax each step: a ``Tensor`` and two closures
per op, a topological sort per backward, and fresh output arrays
everywhere.

The engines here remove that tax.  On the first step for a given
signature the model runs **eagerly under a tape**: ``Tensor._op``
appends every op's ``(output Tensor, forward thunk)`` pair (see
:mod:`repro.autodiff.tensor`), so the tape covers every graph node by
construction.  Subsequent steps with the same signature *replay* the
tape: new inputs are copied into the persistent buffers the capture was
built on, each recorded thunk is re-executed in original order
(rebinding, via its closure cells, everything the matching backward
needs), and the memoized backward pass reuses the captured graph.  No
Tensors, closures, or topo sorts are rebuilt — the recorded step *is*
the program, and the captured output arrays form the reusable buffer
arena.

One core (:class:`_TapeEngine`) owns capture, replay, the LRU of tapes,
invalidation and stats.  :class:`ReplayEngine` runs it on training
steps (loss root, retained backward); :class:`InferenceEngine` runs it
on serving forwards (prediction root, eval mode).

Because the thunks re-run the exact arithmetic of the eager step — in
the same order, against the same RNG generators — replay is bit-for-bit
identical to eager execution (tests/test_replay.py), so checkpointing
and kill-and-resume determinism are unaffected.

Fallback rules (see docs/EXECUTION.md):

* anomaly mode (:func:`repro.autodiff.detect_anomaly`) needs per-op
  introspection at graph-build time → the engine declines, counts an
  ``eager_steps``, and the step runs eagerly;
* a signature change (new input shape, horizon, dtype, training mode)
  simply captures a new tape; :meth:`_TapeEngine.invalidate` drops all
  tapes (the trainer calls it after checkpoint restore, serving after a
  hot reload).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tensor import Tensor, _active_profiler, _set_tape, anomaly_enabled

__all__ = ["InferenceEngine", "ReplayEngine"]


class _Tape:
    """One recorded step: input buffers, op thunks, and the root."""

    __slots__ = ("inputs", "entries", "root")

    def __init__(self, inputs: List[np.ndarray]):
        #: Persistent input buffers the captured closures read.
        self.inputs = inputs
        #: ``(output Tensor, forward thunk)`` per recorded op, in
        #: creation order — which is execution order, so replay repeats
        #: eager's RNG draws exactly.
        self.entries: List[Tuple[Tensor, Callable[[], np.ndarray]]] = []
        self.root: Optional[Tensor] = None

    def replay(self) -> None:
        """Re-run every recorded thunk in order on the current buffers.

        Each output is coerced to its captured dtype: ``Tensor._op``
        casts op results to their operands' dtype on the eager path,
        and a thunk whose internal math runs wider (e.g. a float64
        structural matrix under a float32 model) must round identically
        here or every downstream op drifts off the eager bit pattern.
        ``np.asarray`` is a no-op when the dtype already matches.
        """
        profiler = _active_profiler()
        for out, run in self.entries:
            data = run() if profiler is None else profiler.forward(run)
            out.data = np.asarray(data, dtype=out.data.dtype)

    def arena_nbytes(self) -> int:
        """Bytes held live by this tape's buffers and op outputs."""
        return (sum(buf.nbytes for buf in self.inputs)
                + sum(out.data.nbytes for out, _ in self.entries))


class _TapeEngine:
    """Capture-once, replay-many core shared by both engines.

    Tapes are keyed by the input shapes, horizon, the model's dtype and
    its training flag, and kept least-recently-used up to
    ``max_tapes`` (a ragged final batch per epoch needs 2; more only
    helps when shapes genuinely alternate).
    """

    def __init__(self, model, max_tapes: int = 4):
        self.model = model
        self.max_tapes = int(max_tapes)
        self.captures = 0
        self.replays = 0
        self.eager_steps = 0
        self._tapes: "OrderedDict[Tuple, _Tape]" = OrderedDict()

    def _run(self, inputs: Sequence, horizon: int,
             build: Callable[..., Tensor]) -> Optional[Tensor]:
        """Root of ``build(*buffers)`` for ``inputs``, captured or replayed.

        Returns ``None`` when the engine declines (anomaly mode); the
        caller then runs the step eagerly.
        """
        if anomaly_enabled():
            self.eager_steps += 1
            return None
        signature = (tuple(np.shape(x) for x in inputs), int(horizon),
                     self.model.dtype.name, bool(self.model.training))
        tape = self._tapes.get(signature)
        if tape is None:
            tape = self._capture(inputs, build, self.model.dtype)
            if len(self._tapes) >= self.max_tapes:
                self._tapes.popitem(last=False)  # evict least recently used
            self._tapes[signature] = tape
            self.captures += 1
        else:
            self._tapes.move_to_end(signature)
            for buf, value in zip(tape.inputs, inputs):
                np.copyto(buf, value)
            tape.replay()
            self.replays += 1
        return tape.root

    @staticmethod
    def _capture(inputs: Sequence, build: Callable[..., Tensor],
                 dtype: np.dtype) -> _Tape:
        """Record one eager run of ``build`` into a fresh tape."""
        # Persistent input buffers in the model's dtype: the model and
        # loss wrap/alias arrays of that dtype without copying, so every
        # captured closure sees these exact buffers and a replay only
        # has to np.copyto new contents into them.
        tape = _Tape([np.array(x, dtype=dtype) for x in inputs])
        previous = _set_tape(tape)
        try:
            tape.root = build(*tape.inputs)
        finally:
            _set_tape(previous)
        return tape

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every recorded tape (after a checkpoint restore or a
        hot reload).

        Cheap insurance: thunks re-read parameter arrays and
        ``load_state_dict`` writes weights in place, so tapes actually
        survive restores — but a stale tape after *any* structural
        change would be silently wrong, so state-rewriting call sites
        invalidate anyway and pay one re-capture.
        """
        self._tapes.clear()

    def arena_nbytes(self) -> int:
        """Total bytes held live across all recorded tapes' arenas."""
        return sum(t.arena_nbytes() for t in self._tapes.values())

    def stats(self) -> Dict[str, int]:
        """Counters for telemetry: how the engine actually executed."""
        return {"captures": self.captures, "replays": self.replays,
                "eager_steps": self.eager_steps,
                "tapes": len(self._tapes),
                "arena_nbytes": self.arena_nbytes()}


class ReplayEngine(_TapeEngine):
    """Capture-once, replay-many executor for training steps.

    Parameters
    ----------
    model:
        The module to train; called as ``model(history, horizon)``.
    loss_fn:
        ``loss_fn(prediction, targets, masks, r, c) -> scalar Tensor``
        (the :class:`repro.core.Trainer` contract).
    max_tapes:
        Tapes kept per engine; the least-recently-used is evicted beyond
        this.

    Usage (what ``Trainer.fit`` does per batch)::

        loss = engine.forward(histories, targets, masks, horizon)
        if loss is None:          # engine declined -> eager step
            ...
        else:
            optimizer.zero_grad()
            engine.backward(loss)
    """

    def __init__(self, model, loss_fn, max_tapes: int = 4):
        super().__init__(model, max_tapes)
        self.loss_fn = loss_fn

    def forward(self, histories, targets, masks,
                horizon: int) -> Optional[Tensor]:
        """Loss for one batch via capture or replay.

        Returns ``None`` when the engine declines (anomaly mode active)
        — the caller must then run its own eager step.  Otherwise the
        returned loss is ready for :meth:`backward`.  Raises
        ``ValueError`` at capture if the loss is not a scalar.
        """
        def build(hist, truth, mask) -> Tensor:
            prediction, r, c = self.model(hist, horizon)
            loss = self.loss_fn(prediction, truth, mask, r, c)
            if loss.ndim != 0:
                raise ValueError(
                    f"replay needs a scalar loss, got shape {loss.shape}")
            return loss

        return self._run((histories, targets, masks), horizon, build)

    def backward(self, loss: Tensor) -> None:
        """Backward pass for a loss returned by :meth:`forward`.

        The graph is retained (and its topological order memoized on
        the loss Tensor) so the next replay can reuse it.
        """
        loss.backward(retain_graph=True)


class InferenceEngine(_TapeEngine):
    """Capture-once, replay-many executor for *inference* forwards.

    The serving hot path (``repro.serve``) runs the same model forward
    for every request of a given (batch shape, horizon, dtype)
    signature.  Tapes are captured with the model in eval mode and
    rooted at the prediction — no loss, regularizer terms or backward —
    so warm steps re-execute just the prediction thunks.

    :meth:`predict` always returns a fresh ndarray copy — the arena
    buffers it reads from are overwritten by the next request.
    """

    def predict(self, histories, horizon: int) -> np.ndarray:
        """One inference forward: ``(B, h, N, N', K)`` prediction array.

        The model is forced into eval mode for the call (and restored
        afterwards) so a capture is never polluted by dropout draws.
        """
        was_training = bool(self.model.training)
        if was_training:
            self.model.eval()
        try:
            def build(hist) -> Tensor:
                return self.model(hist, horizon)[0]

            prediction = self._run((histories,), horizon, build)
            if prediction is None:
                prediction = build(histories)
            return np.array(prediction.data, copy=True)
        finally:
            if was_training:
                self.model.train()
