#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-nyc67 --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice from fresh set-ups, untraced and
then traced, and reports the per-layer metrics from the traced pass plus
the tracing overhead (traced minus untraced).  The last line of standard
output is the result object; the line before it carries the details
(environment, request counts per phase, every check, workload notes).
Spans and the detail record are also written to ``.perfbench_out/``.

Exit status is 0 when every correctness check passed, 1 when one failed
(the result line still prints, with ``"correct": false``), and 2, with
no result, when there is no program (``src/repro``) to measure.
"""

import os

# Pin BLAS/OpenMP before numpy loads: OpenBLAS here is built for up to
# 64 threads, and unpinned threads would contend with the pool worker.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: (name, unit, better) of every end-to-end metric, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("loss", "mse", "lower"),
)

#: (name, unit, better) of every per-layer metric, on every workload
#: (0 where the workload does not exercise the layer).
PER_LAYER = (
    ("core.spatial.stage1_ms", "ms", "lower"),
    ("core.spatial.stage1_share", "ratio", "lower"),
    ("autodiff.backward_ms", "ms", "lower"),
    ("core.cnrnn.stage2_ms", "ms", "lower"),
    ("core.recovery.recover_ms", "ms", "lower"),
    ("core.losses.loss_ms", "ms", "lower"),
    ("autodiff.optim.step_ms", "ms", "lower"),
    ("histograms.windows.batch_ms", "ms", "lower"),
    ("core.trainer.eval_ms", "ms", "lower"),
    ("autodiff.replay.predict_ms", "ms", "lower"),
    ("autodiff.replay.captures", "count", "lower"),
    ("autodiff.replay.replays", "count", "higher"),
    ("forecast.latest_history_ms", "ms", "lower"),
    ("contracts.check_ms", "ms", "lower"),
    ("serve.signature_ms", "ms", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.registry_get_ms", "ms", "lower"),
    ("serve_shm.write_ms", "ms", "lower"),
    ("serve_shm.read_ms", "ms", "lower"),
    ("serve_shm.admit_ms", "ms", "lower"),
    ("serve_shm.shed", "count", "lower"),
    ("serve_shm.queue_depth_max", "count", "lower"),
    ("serve_shm.fallbacks", "count", "lower"),
    ("serve.pool.worker_wait_ms", "ms", "lower"),
    ("serve.pool.gen_lag_ms", "ms", "lower"),
    ("trips.generate_s", "s", "lower"),
    ("histograms.build_s", "s", "lower"),
    ("persistence.load_ms", "ms", "lower"),
    ("serve.warm_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Per-request (or per-step) layer times: metric -> span name.
SPAN_LAYERS = {
    "core.spatial.stage1_ms": "core.spatial.stage1",
    "autodiff.backward_ms": "autodiff.backward",
    "core.cnrnn.stage2_ms": "core.cnrnn.stage2",
    "core.recovery.recover_ms": "core.recovery.recover",
    "core.losses.loss_ms": "core.losses.loss",
    "autodiff.optim.step_ms": "autodiff.optim",
    "histograms.windows.batch_ms": "histograms.windows.batch",
    "autodiff.replay.predict_ms": "autodiff.replay.predict",
    "forecast.latest_history_ms": "forecast.latest_history",
    "contracts.check_ms": "contracts.check",
    "serve.signature_ms": "serve.signature",
    "serve.registry_get_ms": "serve.registry_get",
    "serve_shm.write_ms": "serve_shm.write",
    "serve_shm.read_ms": "serve_shm.read",
    "serve_shm.admit_ms": "serve_shm.admit",
}
#: Set-up layer times: metric -> (span name, scale to the metric's unit).
SETUP_LAYERS = {
    "trips.generate_s": ("trips.generate", 1.0),
    "histograms.build_s": ("histograms.build", 1.0),
    "persistence.load_ms": ("persistence.load", 1e3),
    "serve.warm_ms": ("autodiff.replay.predict", 1e3),
}
#: Root span of one measured operation, per workload.
ROOTS = {"train-nyc67": "train.step", "serve-nyc67-miss": "request",
         "pool-cd79-mixed": "request"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def environment():
    import numpy as np
    config = np.show_config(mode="dicts")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config["Build Dependencies"]["blas"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def cpu_seconds():
    """User and system CPU seconds of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"user": own.ru_utime, "system": own.ru_stime,
            "children_user": children.ru_utime,
            "children_system": children.ru_stime}


def end_to_end(outcome, setup_seconds):
    from stats import tail
    _, tail_value = tail(outcome.latencies)
    return {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "p50_ms": statistics.median(outcome.latencies) * 1e3,
        "tail_ms": tail_value * 1e3,
        "throughput_per_s": outcome.throughput,
        "loss": outcome.loss,
    }


def _join_worker_spans(spans):
    """Give worker spans the request id of the parent request they
    served: the parent's shared-memory write notes the pool's internal
    request id, which the worker's spans carry."""
    links = {s.note: s.rid for s in spans
             if s.name == "serve_shm.write" and s.note and s.rid
             and not s.rid.startswith("pool-")}
    for span in spans:
        if span.rid and span.rid.startswith("pool-"):
            span.rid = links.get(span.rid, span.rid)


def layer_metrics(workload, spans, counters, untraced, traced):
    from tracing import children_of, covered, layer_seconds, self_time
    _join_worker_spans(spans)
    by_parent = children_of(spans)
    roots = [s for s in spans if s.name == ROOTS[workload]]
    groups = {}
    for span in spans:
        groups.setdefault(span.rid, []).append(span)
    per_root = [groups.get(root.rid, []) for root in roots]
    n = max(len(roots), 1)
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, span_name in SPAN_LAYERS.items():
        metrics[metric] = sum(layer_seconds(g, span_name)
                              for g in per_root) / n * 1e3
    if workload == "train-nyc67":
        stage1 = metrics["core.spatial.stage1_ms"] * n / 1e3
        metrics["core.spatial.stage1_share"] = \
            stage1 / sum(r.seconds for r in roots)
        metrics["core.trainer.eval_ms"] = 1e3 * covered(
            [(s.start, s.end) for s in spans
             if s.name == "core.trainer.eval"])
    lookups = [s for g in per_root for s in g if s.name == "serve.cache.get"]
    if lookups:
        metrics["serve.cache_hit_ratio"] = \
            sum(s.note == "hit" for s in lookups) / len(lookups)
    waits = [self_time(s, by_parent.get(s.id, ()))
             for g in per_root for s in g if s.name == "serve.pool.forecast"]
    metrics["serve.pool.worker_wait_ms"] = sum(waits) / n * 1e3
    setup = groups.get("setup", [])
    for metric, (span_name, scale) in SETUP_LAYERS.items():
        metrics[metric] = layer_seconds(setup, span_name) * scale
    metrics["trace.coverage"] = statistics.fmean(
        1.0 - self_time(r, by_parent.get(r.id, ())) / r.seconds
        for r in roots) if roots else 0.0
    metrics["trace.overhead_share"] = \
        (traced["p50_ms"] - untraced["p50_ms"]) / untraced["p50_ms"]
    metrics.update(counters)
    return metrics


class LossLedger:
    """Losses by (workload, seed, seconds) across runs in one checkout:
    the same seed must give the bit-identical loss every time."""

    def __init__(self, path: Path):
        self.path = path

    def check(self, key: str, loss: float) -> bool:
        try:
            ledger = json.loads(self.path.read_text())
        except (FileNotFoundError, ValueError):
            ledger = {}
        seen = ledger.get(key)
        if seen is None:
            ledger[key] = loss.hex()
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
            tmp.replace(self.path)
            return True
        return seen == loss.hex()


def _setup(workload, tracer=None):
    start = time.perf_counter()
    if tracer is None:
        ctx = workload.setup(None)
    else:
        with tracer.span("setup", rid="setup"):
            ctx = workload.setup(tracer)
    return ctx, time.perf_counter() - start


def measure(workload, trace: bool):
    """Run one workload; returns (metrics, outcome, checks, report)."""
    from tracing import Tracer
    from workloads import instrument
    checks, report = {}, {}
    if not trace:
        setup_seconds, ctx = [], None
        for _ in range(SETUPS):
            if ctx is not None:
                checks.update(workload.close(ctx))
                ctx = None
                gc.collect()
            ctx, seconds = _setup(workload)
            setup_seconds.append(seconds)
        try:
            outcome = workload.run(ctx, None)
        finally:
            checks.update(workload.close(ctx))
        metrics = end_to_end(outcome, setup_seconds)
        report["setup_seconds"] = setup_seconds
        return metrics, outcome, checks, report

    ctx, untraced_setup = _setup(workload)
    try:
        plain = workload.run(ctx, None)
    finally:
        checks.update(workload.close(ctx))
    ctx = None
    gc.collect()
    untraced = end_to_end(plain, [untraced_setup])
    tracer = Tracer()
    patches = instrument(tracer)
    try:
        ctx, traced_setup = _setup(workload, tracer)
        try:
            outcome = workload.run(ctx, tracer)
        finally:
            patches.undo()
    finally:
        if ctx is not None:
            checks.update(workload.close(ctx))
    traced = end_to_end(outcome, [traced_setup])
    checks["tracing_changes_no_result"] = \
        plain.loss.hex() == outcome.loss.hex()
    checks.update({f"untraced_{k}": v for k, v in plain.checks.items()})
    metrics = layer_metrics(workload.name, tracer.spans, outcome.counters,
                            untraced, traced)
    report["untraced"] = untraced
    report["traced"] = traced
    report["tracing_overhead"] = {k: traced[k] - untraced[k]
                                  for k in untraced}
    report["spans"] = len(tracer.spans)
    report["spans_file"] = f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.dump(OUT / report["spans_file"])
    return metrics, outcome, checks, report


def stop_children() -> None:
    """Stop and reap every process this run started.

    The pool's workers are joined by ``ForecastWorkerPool.close``; any
    still alive (a failed set-up, say) are killed here.  Creating a
    shared-memory segment also starts multiprocessing's resource
    tracker, a separate process that otherwise ends only after this one
    has exited, unreaped.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from stats import tail
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
    try:
        metrics, outcome, checks, report = measure(workload,
                                                   bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.update(outcome.checks)
    checks["loss_finite"] = math.isfinite(outcome.loss)
    checks["loss_repeats_for_seed"] = LossLedger(OUT / "loss-ledger.json") \
        .check(f"{args.workload}/seed{args.seed}/seconds{args.seconds}",
               outcome.loss)
    percentile, _ = tail(outcome.latencies)
    if args.workload != "train-nyc67":
        checks["tail_is_p95"] = percentile == 95.0
    units = {name: unit for name, unit, _ in
             (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": all(checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "cpu_seconds": cpu_seconds(),
        "samples": len(outcome.latencies),
        "tail_percentile": percentile,
        "phases": {k: v.as_dict() for k, v in outcome.phases.items()},
        "checks": checks,
        "details": outcome.details,
        **report,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps({"detail": detail, "result": result},
                               indent=1, default=str))
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
