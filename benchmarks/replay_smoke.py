#!/usr/bin/env python3
"""Tape-replay engine regression gate for run_benchmarks.sh.

Two checks, both on float32 models at smoke scale (see
docs/EXECUTION.md):

1. **Parity** — 5 training steps of BF and AF (dropout on) through the
   replay engine must produce bit-for-bit the same losses and final
   weights as the eager engine.  Replay re-executes the recorded op
   thunks in eager order, so any divergence means the tape no longer
   matches what eager execution does — the exact failure mode that would
   silently corrupt checkpoints and kill-and-resume determinism.  The
   engine must also prove it replayed: one capture, then ``STEPS - 1``
   replays and no eager step, so an engine quietly running eager fails.
2. **Speedup** — the replayed AF train step must be at least 1.2x faster
   than the eager step (interleaved best-of-N, same seed), the margin
   BENCH_AUTODIFF.json records.  A regression here means the engine
   stopped paying for its complexity.

Exits non-zero on any failure so the benchmark sweep fails loudly.

Usage: PYTHONPATH=src python3 benchmarks/replay_smoke.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.autodiff import ReplayEngine
from repro.autodiff.optim import Adam
from repro.core import (AdvancedFramework, BasicFramework, af_loss, bf_loss)

STEPS = 5
REPEATS = 20
MIN_AF_SPEEDUP = 1.2


def _proximity(n, rng):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def _bf_parts(seed=0):
    rng = np.random.default_rng(seed)
    model = BasicFramework(8, 8, 7, np.random.default_rng(7), rank=3,
                           encoder_dim=8, hidden_dim=16,
                           dropout=0.2).astype(np.float32)
    batch = (rng.uniform(size=(8, 4, 8, 8, 7)),
             rng.uniform(size=(8, 2, 8, 8, 7)),
             (rng.uniform(size=(8, 2, 8, 8)) < 0.4).astype(float))
    return model, bf_loss, batch, 2


def _af_parts(seed=0):
    rng = np.random.default_rng(seed)
    w = _proximity(8, rng)
    model = AdvancedFramework(w, w, 7, np.random.default_rng(7), rank=4,
                              rnn_hidden=8, rnn_order=2,
                              dropout=0.2).astype(np.float32)

    def loss_fn(prediction, truth, mask, r, c):
        return af_loss(prediction, truth, mask, r, c, w, w)

    batch = (rng.uniform(size=(8, 4, 8, 8, 7)),
             rng.uniform(size=(8, 2, 8, 8, 7)),
             (rng.uniform(size=(8, 2, 8, 8)) < 0.4).astype(float))
    return model, loss_fn, batch, 2


def _run_steps(parts_fn, engine_mode, steps=STEPS):
    """Losses, final weights and engine stats of ``steps`` training
    steps (stats are ``None`` for the eager engine)."""
    model, loss_fn, (history, truth, mask), horizon = parts_fn()
    if engine_mode == "replay":
        optimizer = Adam(model.parameters(), flat=True)
        engine = ReplayEngine(model, loss_fn)
    else:
        optimizer = Adam(model.parameters())
        engine = None
    losses = []
    for _ in range(steps):
        if engine is not None:
            loss = engine.forward(history, truth, mask, horizon)
            optimizer.zero_grad()
            engine.backward(loss)
        else:
            prediction, r, c = model(history, horizon)
            loss = loss_fn(prediction, truth, mask, r, c)
            optimizer.zero_grad()
            loss.backward()
        optimizer.step()
        losses.append(float(loss.data))
    weights = {k: v.copy() for k, v in model.state_dict().items()}
    return losses, weights, engine and engine.stats()


def check_parity(name, parts_fn):
    eager_losses, eager_weights, _ = _run_steps(parts_fn, "eager")
    replay_losses, replay_weights, stats = _run_steps(parts_fn, "replay")
    failures = []
    expected = {"captures": 1, "replays": STEPS - 1, "eager_steps": 0}
    executed = {key: stats[key] for key in expected}
    if executed != expected:
        failures.append(f"{name} engine did not replay: {executed}, "
                        f"expected {expected}")
    if eager_losses != replay_losses:
        failures.append(f"{name} losses diverge: "
                        f"{eager_losses} vs {replay_losses}")
    bad = [k for k in eager_weights
           if not np.array_equal(eager_weights[k], replay_weights[k])]
    if bad:
        failures.append(f"{name} weights diverge after {STEPS} steps: "
                        f"{bad[:4]}")
    return failures


def check_af_speedup():
    """Interleaved best-of-REPEATS eager vs replay AF step times."""
    model_e, loss_fn_e, (history, truth, mask), horizon = _af_parts()
    optimizer_e = Adam(model_e.parameters())
    model_r, loss_fn_r, _, _ = _af_parts()
    optimizer_r = Adam(model_r.parameters(), flat=True)
    engine = ReplayEngine(model_r, loss_fn_r)

    def eager_step():
        prediction, r, c = model_e(history, horizon)
        loss = loss_fn_e(prediction, truth, mask, r, c)
        optimizer_e.zero_grad()
        loss.backward()
        optimizer_e.step()

    def replay_step():
        loss = engine.forward(history, truth, mask, horizon)
        optimizer_r.zero_grad()
        engine.backward(loss)
        optimizer_r.step()

    eager_step()
    replay_step()                                   # capture
    replay_step()                                   # first true replay
    eager_s = replay_s = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        eager_step()
        eager_s = min(eager_s, time.perf_counter() - start)
        start = time.perf_counter()
        replay_step()
        replay_s = min(replay_s, time.perf_counter() - start)
    return eager_s / replay_s, eager_s, replay_s


def main() -> int:
    failures = []
    failures += check_parity("bf", _bf_parts)
    failures += check_parity("af", _af_parts)
    speedup, eager_s, replay_s = check_af_speedup()
    if speedup < MIN_AF_SPEEDUP:
        failures.append(
            f"af replay step only {speedup:.2f}x vs eager "
            f"({replay_s * 1e3:.2f} vs {eager_s * 1e3:.2f} ms), "
            f"need >= {MIN_AF_SPEEDUP}x")
    if failures:
        print(f"replay smoke: FAIL ({'; '.join(failures)})")
        return 1
    print(f"replay smoke: OK (bf+af bit-for-bit over {STEPS} steps, "
          f"af replay {speedup:.2f}x vs eager, "
          f"{replay_s * 1e3:.2f} vs {eager_s * 1e3:.2f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
