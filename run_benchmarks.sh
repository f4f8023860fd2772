#!/usr/bin/env bash
# Full benchmark sweep: regenerates every table and figure of the paper
# and records the output.  Takes ~1 hour on one CPU core.
#
#   ./run_benchmarks.sh            # full scale
#   REPRO_BENCH_SCALE=smoke ./run_benchmarks.sh   # 2-minute plumbing check
set -uo pipefail
cd "$(dirname "$0")"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Fast checkpoint/resume regression gate: train 2 epochs, kill the
# process, resume the third, assert bit-identical weights and curves.
# Fails the sweep loudly if checkpointing regresses (~30s).
python3 benchmarks/resume_smoke.py || exit 1

# Chaos gate: inject drifted/dropped/NaN data, NaN gradients, corrupted
# checkpoints, and killed workers; every fault must be repaired,
# quarantined, or cleanly reported, and the data contracts must cost
# <5% of a training epoch (see docs/ROBUSTNESS.md).
python3 benchmarks/chaos_smoke.py || exit 1

# Replay-engine gate: tape replay must stay bit-for-bit identical to
# eager execution (BF and AF, dropout on) and the replayed AF train
# step must hold its >= 1.2x speedup (see docs/EXECUTION.md).
python3 benchmarks/replay_smoke.py || exit 1

# Serving gate: forecasts served through the registry/cache/inference
# tapes must stay bit-identical to forecast_latest, the response cache
# must stay >= 5x faster than a cold forward, and the request stream
# must hold its throughput floor.  Also gates the data plane: a worker
# round trip over the zero-copy shm ring must stay >= 2x faster than
# the pickled pipe at a 500-region payload (bit-identical answers, no
# leaked /dev/shm segments), and a synthetic overload burst must shed
# fast with ShedError while still serving.  Writes BENCH_SERVE.json at
# the repo root (see docs/SERVING.md).
python3 benchmarks/serve_smoke.py || exit 1

# Sharding gate: a short AF fit under sharded execution must be
# bit-identical to dense (losses, weights, RNG), and a 500-region metro
# city must run a sharded forward bit-identical to dense and train a
# smoke epoch through the block-sparse batches to the dense epoch's
# train loss, with each side's stage-1 working set under the memory
# budget.  Stage 1 collapses empty and repeated OD slices in the dense
# encoder itself, so both paths run the same code.  Writes
# BENCH_SHARD.json at the repo root (see docs/SHARDING.md).
python3 benchmarks/shard_smoke.py || exit 1

# The paper-scale benchmark's own tests (percentile rule, span self
# time, schedule determinism, BENCHMARK.json <-> run.py); they live
# outside tier-1's testpaths (see perfbench/README.md).
python3 -m pytest perfbench -q -p no:cacheprovider || exit 1

# Engine microbenchmark: eager vs. replay on one AF/BF training step,
# a smoke fit per engine, and a per-op profile.  Writes
# BENCH_AUTODIFF.json at the repo root.
python3 benchmarks/microbench.py \
    --scale "${REPRO_BENCH_SCALE:-full}" \
    2>&1 | tee bench_autodiff_output.txt || exit 1

python3 -m pytest benchmarks/ --benchmark-only -p no:cacheprovider -s -q \
    2>&1 | tee bench_output.txt
