"""The benchmark's three workloads, at the paper's s=6, h=3, batch 16.

Each workload is built from the seed alone (dataset, model weights,
request order, arrival schedule), runs against the program's public
API, and checks the program's answers.  ``setup`` builds everything a
user would have before the first timed operation; ``run`` measures,
then re-derives sampled answers independently; ``close`` releases what
``setup`` made.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import chengdu_like_dataset, nyc_like_dataset, prepare
from repro.autodiff.optim import Adam
from repro.autodiff.replay import InferenceEngine
from repro.autodiff.tensor import Tensor
from repro.core.losses import masked_frobenius
from repro.experiments.methods import MethodBudget, make_af
from repro.forecast import forecast_latest
from repro.persistence import load_checkpoint, save_checkpoint
from repro.serve import (ForecastRequest, ForecastResponse, ForecastService,
                         ForecastWorkerPool, ModelKey, ServeConfig, ShedError)
from repro.serve_shm import AdmissionController, ShmRing, leaked_segments
from repro.trips.generator import TripGenerator

from stats import open_loop_schedule, tail
from tracing import Patches, Tracer

S, H, BATCH = 6, 3, 16
INTERVALS_PER_DAY = 96          # 15-minute OD tensor intervals
MIN_DAYS = 4

#: Training steps per measured second (~2 s per AF step at 67 regions).
TRAIN_STEPS_PER_SECOND = 0.5
MIN_TRAIN_STEPS = 3
#: Validation batches in the fit's one validation pass.
VAL_BATCHES = 2

#: Closed-loop requests per measured second, and the floor that puts
#: ten samples beyond p95.
SERVE_REQUESTS_PER_SECOND = 20
MIN_SERVE_REQUESTS = 200
#: Served answers re-derived with ``forecast_latest`` after the run.
SERVE_SAMPLES = 3

#: Closed-loop requests per measured second (the first phase sends
#: this many times ``seconds``; it takes about 40% of the run).
POOL_CLOSED_PER_SECOND = 30
#: Open-loop offered rate, over half the run.  One worker at 79 regions
#: on a 2-core x86 host answers a hit in ~6.5 ms and a miss in ~65 ms,
#: so the 9:1 mix has a capacity near 80 req/s; 20 req/s loads it to
#: about 25%.  Near half capacity the admission controller's deadline
#: projection (its latency average includes queueing) sheds a few
#: requests per run, and a 3:1 mix puts the median on the edge between
#: unqueued hits and hits queued behind a miss (8-33 ms across seeds).
POOL_RATE = 20.0
#: Share of arrivals that re-ask one of the ``POOL_RECENT`` newest "now"s.
POOL_REPEAT_SHARE = 0.9
POOL_RECENT = 8
#: Latency limit; every request carries it as its deadline.  At 1 s a
#: host stall on a shared 2-core VM occasionally left a request past its
#: deadline before admission, and it was shed.
POOL_LIMIT_S = 2.0
POOL_MAX_INFLIGHT = 32
POOL_SENDERS = 32
#: Pool answers compared bitwise with the in-process service after the run.
POOL_SAMPLES = 4

HISTOGRAM_ATOL = 1e-9


def _budget(seed: int, steps: int = 1) -> MethodBudget:
    return MethodBudget(epochs=1, batch_size=BATCH, max_train_batches=steps,
                        max_val_batches=VAL_BATCHES, seed=seed,
                        engine="eager")


def _days(intervals_needed: int, min_days: int = MIN_DAYS) -> int:
    return max(min_days, math.ceil(intervals_needed / INTERVALS_PER_DAY))


def train_steps(seconds: int) -> int:
    return max(MIN_TRAIN_STEPS, int(seconds * TRAIN_STEPS_PER_SECOND))


def serve_requests(seconds: int) -> int:
    return max(MIN_SERVE_REQUESTS, SERVE_REQUESTS_PER_SECOND * seconds)


class Phase:
    """Requests sent, succeeded and failed in one phase of a run."""

    def __init__(self):
        self.sent = self.succeeded = self.failed = 0
        self._lock = threading.Lock()

    def count(self, ok: bool) -> None:
        with self._lock:
            self.sent += 1
            if ok:
                self.succeeded += 1
            else:
                self.failed += 1

    def as_dict(self) -> Dict[str, int]:
        return {"sent": self.sent, "succeeded": self.succeeded,
                "failed": self.failed}


@dataclasses.dataclass
class Outcome:
    """What one measured pass produced."""

    latencies: List[float]              # seconds per operation
    throughput: float                   # operations per second
    loss: float
    attempted: int
    failed: int
    phases: Dict[str, Phase]
    checks: Dict[str, bool]
    details: Dict[str, object]
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)


def histogram_ok(prediction: Optional[np.ndarray]) -> bool:
    """Finite, and every cell a histogram summing to 1."""
    return (prediction is not None
            and bool(np.isfinite(prediction).all())
            and bool(np.abs(prediction.sum(axis=-1) - 1.0).max()
                     <= HISTOGRAM_ATOL))


def forecast_loss(sequence, now: int, prediction: np.ndarray) -> float:
    """The paper's masked data term of a forecast against what happened."""
    truth = sequence.tensors[now:now + H][None]
    mask = sequence.mask[now:now + H][None]
    return masked_frobenius(Tensor(prediction[None]), truth, mask).item()


# ----------------------------------------------------------------------
# tracing hooks
# ----------------------------------------------------------------------
def _cache_note(result) -> str:
    return "miss" if result is None else "hit"


def instrument(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the per-layer metrics need in a span.

    Functions are patched where their caller looks them up, so a module
    that imported a name gets the wrapper.  Forked pool workers inherit
    the patches.
    """
    p = Patches()
    # By module path: some package __init__ files re-export a function
    # under a submodule's name.
    af, trainer, serve, forecast, methods, runner = (
        importlib.import_module(f"repro.{name}") for name in (
            "core.af", "core.trainer", "serve", "forecast",
            "experiments.methods", "experiments.runner"))
    p.wrap(tracer, TripGenerator, "generate", "trips.generate")
    p.wrap(tracer, runner, "build_od_tensors", "histograms.build")
    p.wrap(tracer, serve, "load_checkpoint", "persistence.load")
    # training
    p.wrap(tracer, af, "factorize_tensor_batch", "core.spatial.stage1")
    p.wrap(tracer, af, "twin_forecast", "core.cnrnn.stage2")
    p.wrap(tracer, af, "recover", "core.recovery.recover")
    p.wrap(tracer, methods, "af_loss", "core.losses.loss")
    p.wrap(tracer, Tensor, "backward", "autodiff.backward")
    p.wrap(tracer, Adam, "step", "autodiff.optim")
    p.wrap(tracer, Adam, "zero_grad", "autodiff.optim")
    p.wrap(tracer, trainer, "clip_grad_norm", "autodiff.optim")
    p.wrap(tracer, trainer.Trainer, "evaluate", "core.trainer.eval")
    for module in (af, trainer):
        p.wrap(tracer, module, "check_finite", "contracts.check")
    p.wrap(tracer, af, "check_shape_dtype", "contracts.check")
    # serving
    p.wrap(tracer, serve, "latest_history", "forecast.latest_history")
    p.wrap(tracer, forecast, "validate_sequence", "contracts.check")
    p.wrap(tracer, serve, "check_finite", "contracts.check")
    p.wrap(tracer, serve, "window_signature", "serve.signature")
    p.wrap(tracer, serve.ResponseCache, "get", "serve.cache.get",
           note=_cache_note)
    p.wrap(tracer, serve.ResponseCache, "put", "serve.cache.put")
    p.wrap(tracer, serve.ModelRegistry, "get", "serve.registry_get")
    p.wrap(tracer, InferenceEngine, "predict", "autodiff.replay.predict")
    p.wrap(tracer, ForecastWorkerPool, "forecast", "serve.pool.forecast")
    p.wrap(tracer, AdmissionController, "admit", "serve_shm.admit")
    write, read = ShmRing.write, ShmRing.read

    def traced_write(ring, slot, arrays, request_id, *args, **kwargs):
        with tracer.span("serve_shm.write", note=f"pool-{request_id}"):
            return write(ring, slot, arrays, request_id, *args, **kwargs)

    def traced_read(ring, slot, request_id=None, *args, **kwargs):
        if tracer.in_worker:
            # A new request starts in the worker: its spans go into a
            # fresh list, shipped back on the response.
            tracer.spans = []
            tracer.worker_rid = f"pool-{request_id}"
        with tracer.span("serve_shm.read"):
            return read(ring, slot, request_id, *args, **kwargs)

    p.set(ShmRing, "write", traced_write)
    p.set(ShmRing, "read", traced_read)
    return p


@dataclasses.dataclass
class TracedResponse(ForecastResponse):
    """A worker's answer carrying the spans it recorded for it."""

    spans: list = dataclasses.field(default_factory=list)


class TracedService:
    """Worker-side wrapper: hands the request's spans back with the
    answer (the pool pickles the response after the worker's
    shared-memory write, so that span rides along too)."""

    def __init__(self, service: ForecastService, tracer: Tracer):
        self.service = service
        self.tracer = tracer

    def forecast_one(self, request: ForecastRequest) -> ForecastResponse:
        with self.tracer.span("worker.forecast_one"):
            response = self.service.forecast_one(request)
        fields = {f.name: getattr(response, f.name)
                  for f in dataclasses.fields(ForecastResponse)}
        return TracedResponse(**fields, spans=self.tracer.spans)


class TimedWindows:
    """A ``WindowDataset`` whose ``batches`` stream is timed.

    Call ``i`` of ``batches`` yields at most ``limits[i]`` batches.  A
    training step runs from one batch request to the next, so its time
    includes building its batch.  With a tracer, each step is a root
    span (``train.step``) and batch building a child span.
    """

    def __init__(self, windows, limits, tracer: Optional[Tracer] = None):
        self.windows = windows
        self.limits = list(limits)
        self.tracer = tracer
        self.step_seconds: List[float] = []
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self.windows, name)

    def batches(self, *args, **kwargs):
        call, self._calls = self._calls, self._calls + 1
        training = call == 0            # the fit's one epoch, then eval
        stream = self.windows.batches(*args, **kwargs)
        tracer = self.tracer
        for index in range(self.limits[call]):
            step = None
            if tracer is not None and training:
                step = tracer.open("train.step", rid=f"step{index}")
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span("histograms.windows.batch"):
                    batch = next(stream, None)
            else:
                batch = next(stream, None)
            if batch is not None:
                yield batch             # the trainer runs the step here
                if training:
                    self.step_seconds.append(time.perf_counter() - start)
            if step is not None:
                tracer.close(step)
            if batch is None:
                return


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""

    def __init__(self, seed: int, seconds: int, workdir: Path):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir

    def setup(self, tracer: Optional[Tracer]):
        raise NotImplementedError

    def run(self, ctx, tracer: Optional[Tracer]) -> Outcome:
        raise NotImplementedError

    def close(self, ctx) -> Dict[str, bool]:
        """Release what ``setup`` made; returns any checks it makes."""
        return {}


class TrainWorkload(Workload):
    name = "train-nyc67"

    def setup(self, tracer):
        steps = train_steps(self.seconds)
        days = _days(math.ceil(steps * BATCH / 0.7) + S + H)
        data = prepare(nyc_like_dataset(n_days=days, seed=self.seed),
                       s=S, h=H)
        forecaster = make_af(data, _budget(self.seed, steps))
        return {"data": data, "forecaster": forecaster, "steps": steps}

    def run(self, ctx, tracer):
        data, trainer, steps = ctx["data"], ctx["forecaster"].trainer, \
            ctx["steps"]
        windows = TimedWindows(data.windows, (steps, VAL_BATCHES), tracer)
        start = time.perf_counter()
        result = trainer.fit(windows, data.split, horizon=H)
        wall = time.perf_counter() - start
        loss = result.train_losses[-1]
        phase = Phase()
        for _ in windows.step_seconds:
            phase.count(True)
        checks = {
            "train_loss_finite": bool(np.isfinite(loss)),
            "val_loss_finite": bool(np.isfinite(result.val_losses[-1])),
            "all_steps_ran": len(windows.step_seconds) == steps,
        }
        return Outcome(
            latencies=windows.step_seconds,
            throughput=steps * BATCH / wall, loss=loss,
            attempted=steps, failed=steps - len(windows.step_seconds),
            phases={"measure": phase}, checks=checks,
            details={"steps": steps, "batch": BATCH,
                     "val_batches": VAL_BATCHES,
                     "regions": data.sequence.n_origins,
                     "dtype": str(data.sequence.tensors.dtype),
                     "fit_seconds": wall,
                     "val_loss": result.val_losses[-1]})


def _serve_builder(data, seed):
    return make_af(data, _budget(seed)).model


class ServeWorkload(Workload):
    name = "serve-nyc67-miss"

    def setup(self, tracer):
        n = serve_requests(self.seconds)
        data = prepare(nyc_like_dataset(n_days=_days(n + S + H),
                                        seed=self.seed), s=S, h=H)
        path = self.workdir / "serve-af.npz"
        save_checkpoint(path, make_af(data, _budget(self.seed)).model,
                        epoch=0)
        key = ModelKey("nyc67", "af")
        service = ForecastService(ServeConfig(engine="replay"))
        service.register(key, path,
                         functools.partial(_serve_builder, data, self.seed),
                         warm=(S, H))
        service.registry.get(key)       # load + capture the tape now
        return {"data": data, "path": path, "key": key,
                "service": service, "n": n}

    def run(self, ctx, tracer):
        data, key, service, n = ctx["data"], ctx["key"], ctx["service"], \
            ctx["n"]
        sequence = data.sequence
        rng = np.random.default_rng(self.seed)
        nows = rng.permutation(np.arange(S, sequence.n_intervals - H + 1))
        nows = [int(t) for t in nows[:n]]
        sampled = set(nows[int(i)] for i in
                      rng.choice(n, SERVE_SAMPLES, replace=False))
        before = service.stats()["engines"][str(key)]
        phase = Phase()
        latencies, losses, kept = [], [], {}
        histograms_ok = all_miss = True
        for i, now in enumerate(nows):
            request = ForecastRequest(key, sequence.slice(0, now), S, H)
            start = time.perf_counter()
            if tracer is not None:
                with tracer.span("request", rid=f"r{i}"):
                    response = service.forecast_one(request)
            else:
                response = service.forecast_one(request)
            latencies.append(time.perf_counter() - start)
            ok = response.ok and not response.degraded
            phase.count(ok)
            if not ok:
                continue
            all_miss &= response.cache == "miss"
            histograms_ok &= histogram_ok(response.prediction)
            losses.append(forecast_loss(sequence, now, response.prediction))
            if now in sampled:
                kept[now] = response.prediction
        after = service.stats()["engines"][str(key)]
        verify = Phase()
        reference = make_af(data, _budget(self.seed))
        load_checkpoint(ctx["path"], model=reference.model)
        identical = True
        for now, served in sorted(kept.items()):
            direct = forecast_latest(reference, sequence.slice(0, now), S, H)
            same = np.array_equal(direct, served)
            verify.count(same)
            identical &= same
        checks = {
            "served_histograms_finite_and_normalised": histograms_ok,
            "served_equals_forecast_latest": identical and bool(kept),
            "no_cache_hits": all_miss,
        }
        return Outcome(
            latencies=latencies, throughput=len(latencies) / sum(latencies),
            loss=float(np.mean(losses)) if losses else float("nan"),
            attempted=phase.sent, failed=phase.failed,
            phases={"measure": phase, "verify": verify}, checks=checks,
            details={"requests": n, "closed_loop_clients": 1,
                     "engine": "replay",
                     "regions": sequence.n_origins,
                     "sampled_nows": sorted(kept)},
            counters={"autodiff.replay.captures":
                      after["captures"] - before["captures"],
                      "autodiff.replay.replays":
                      after["replays"] - before["replays"]})

    def close(self, ctx):
        ctx["service"].close()
        return {}


def _pool_service(data, seed, path, key, tracer):
    """Runs in the forked worker: one replay service, tape warmed."""
    if tracer is not None:
        tracer.become_worker()
    service = ForecastService(ServeConfig(engine="replay"))
    service.register(key, path, functools.partial(_serve_builder, data, seed),
                     warm=(S, H))
    service.registry.get(key)
    if tracer is not None:
        return TracedService(service, tracer)
    return service


class PoolWorkload(Workload):
    """Two phases against one pool, in this order.

    The closed-loop phase gives the end-to-end metrics: one client sends
    ``POOL_CLOSED_PER_SECOND * seconds`` requests, each after the
    previous answer.  The open-loop phase then replays a seeded Poisson
    schedule at ``POOL_RATE`` for half the run, timing each request from
    its due time.  Its latencies, goodput, hit share, fail share and
    generator lateness go to the detail record, and its queueing feeds
    the per-layer metrics.  Open-loop latencies are not end-to-end
    metrics because on a shared 2-core VM their median and p95 spread
    ~45% across runs: with both cores idling between arrivals, every
    request pays for waking them, and the median sits where hits start
    to queue behind misses.
    """

    name = "pool-cd79-mixed"

    def _schedules(self, sequence):
        # New windows must differ in content: every all-empty night
        # window hashes alike, so asking for one would be a repeat.
        candidates = [t for t in range(S, sequence.n_intervals - H + 1)
                      if sequence.mask[t - S:t].any()]
        closed = open_loop_schedule(
            self.seed, POOL_CLOSED_PER_SECOND, self.seconds,
            POOL_REPEAT_SHARE, POOL_RECENT, candidates)
        used = {now for _, now, repeat in closed if not repeat}
        opened = open_loop_schedule(
            self.seed + 1, POOL_RATE, self.seconds / 2, POOL_REPEAT_SHARE,
            POOL_RECENT, [t for t in candidates if t not in used])
        return closed, opened

    def setup(self, tracer):
        # Room for every new window in daytime histories (the night gap
        # is a quarter of the day).
        requests = (POOL_CLOSED_PER_SECOND + POOL_RATE / 2) * self.seconds
        new = (1.0 - POOL_REPEAT_SHARE) * requests
        days = _days(math.ceil(new * 4 / 3) + 2 * (S + H), min_days=2)
        data = prepare(chengdu_like_dataset(n_days=days, seed=self.seed),
                       s=S, h=H)
        path = self.workdir / "pool-af.npz"
        save_checkpoint(path, make_af(data, _budget(self.seed)).model,
                        epoch=0)
        key = ModelKey("cd79", "af")
        reference = ForecastService(ServeConfig(engine="replay"))
        reference.register(key, path,
                           functools.partial(_serve_builder, data,
                                             self.seed), warm=(S, H))
        reference.registry.get(key)
        pool = ForecastWorkerPool(
            functools.partial(_pool_service, data, self.seed, path, key,
                              tracer),
            n_workers=1, transport="shm", max_inflight=POOL_MAX_INFLIGHT)
        segments = pool.segment_names()
        # The full history's "now" is never scheduled (the schedule's
        # windows all leave room for a truth horizon).
        warm = pool.forecast(ForecastRequest(key, data.sequence, S, H))
        setup_phase = Phase()
        setup_phase.count(warm.ok)
        return {"data": data, "key": key, "pool": pool,
                "reference": reference, "segments": segments,
                "setup_phase": setup_phase}

    def run(self, ctx, tracer):
        data, key, pool = ctx["data"], ctx["key"], ctx["pool"]
        sequence = data.sequence
        closed, opened = self._schedules(sequence)
        rng = np.random.default_rng(self.seed + 2)
        sampled = set()
        for schedule in (closed, opened):
            new_nows = [now for _, now, repeat in schedule if not repeat]
            sampled.update(int(t) for t in rng.choice(
                new_nows, min(POOL_SAMPLES // 2, len(new_nows)),
                replace=False))
        losses: Dict[int, float] = {}
        kept: Dict[int, np.ndarray] = {}
        bad_histograms: List[str] = []
        lock = threading.Lock()
        phases = {"setup": ctx["setup_phase"], "closed": Phase(),
                  "open": Phase()}

        def send(phase, i, now, due):
            """One request; returns (seconds since due, status, cache)."""
            request = ForecastRequest(key, sequence.slice(0, now), S, H,
                                      deadline=due + POOL_LIMIT_S)
            status, response = "ok", None
            try:
                if tracer is not None:
                    with tracer.span("request", rid=f"{phase}{i}"):
                        response = pool.forecast(request)
                else:
                    response = pool.forecast(request)
            except ShedError:
                status = "shed"
            done = time.monotonic()
            if response is not None:
                if not response.ok:
                    status = "error"
                elif response.degraded:
                    status = "degraded"
                if isinstance(response, TracedResponse):
                    tracer.adopt(response.spans)
            phases[phase].count(status == "ok")
            record = (done - due, status,
                      response.cache if response is not None else None)
            if status != "ok":
                return record
            prediction = response.prediction
            if not histogram_ok(prediction):
                with lock:
                    bad_histograms.append(f"{phase}{i}")
            with lock:
                first = now not in losses
                if first:
                    losses[now] = None
            if first:
                value = forecast_loss(sequence, now, prediction)
                with lock:
                    losses[now] = value
                    if now in sampled:
                        kept[now] = prediction
            return record

        closed_records = [send("closed", i, now, time.monotonic())
                          for i, (_, now, _) in enumerate(closed)]

        lags = []
        with ThreadPoolExecutor(max_workers=POOL_SENDERS) as executor:
            futures = []
            origin = time.monotonic() + 0.05
            for i, (offset, now, _) in enumerate(opened):
                due = origin + offset
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                lags.append(max(0.0, time.monotonic() - due))
                futures.append(executor.submit(send, "open", i, now, due))
            open_records = [future.result() for future in futures]
        stats = pool.stats()

        verify = Phase()
        identical = True
        for now, answered in sorted(kept.items()):
            direct = ctx["reference"].forecast(key, sequence.slice(0, now),
                                               S, H)
            same = np.array_equal(direct, answered)
            verify.count(same)
            identical &= same
        phases["verify"] = verify

        latencies = [r[0] for r in closed_records if r[1] == "ok"]
        records = closed_records + open_records
        failed = sum(1 for r in records if r[1] != "ok")
        checks = {
            "pool_warm_request_ok": ctx["setup_phase"].failed == 0,
            "pool_histograms_finite_and_normalised": not bad_histograms,
            "pool_equals_in_process": identical and bool(kept),
        }
        return Outcome(
            latencies=latencies, throughput=len(latencies) / sum(latencies),
            loss=float(np.mean([losses[t] for t in sorted(losses)])),
            attempted=len(records), failed=failed,
            phases=phases, checks=checks,
            details={"workers": 1, "transport": stats["transport"],
                     "regions": sequence.n_origins,
                     "repeat_share": POOL_REPEAT_SHARE,
                     "latency_limit_ms": POOL_LIMIT_S * 1e3,
                     "distinct_windows": len(losses),
                     "closed": _phase_summary(closed, closed_records),
                     "open": {"rate_per_s": POOL_RATE,
                              "seconds": self.seconds / 2,
                              **_phase_summary(opened, open_records),
                              "goodput_per_s": sum(
                                  1 for r in open_records if r[1] == "ok"
                                  and r[0] <= POOL_LIMIT_S)
                              / (self.seconds / 2),
                              "gen_lag_ms_max": max(lags) * 1e3},
                     "pool_stats": stats},
            counters={"serve_shm.shed": stats["sheds"],
                      "serve_shm.fallbacks": stats["transport_fallbacks"],
                      "serve_shm.queue_depth_max":
                          max(stats["queue"]["high_water"]),
                      "serve.pool.gen_lag_ms": tail(lags)[1] * 1e3})

    def close(self, ctx):
        ctx["pool"].close()
        ctx["reference"].close()
        return {"no_leaked_shm_segments":
                not leaked_segments(ctx["segments"])}


def _phase_summary(schedule, records):
    """Latency, hit share and fail share of one pool phase."""
    ok = [r for r in records if r[1] == "ok"]
    summary = {
        "requests": len(records),
        "repeat_share_measured":
            sum(1 for _, _, repeat in schedule if repeat) / len(schedule),
        "hit_share_measured":
            sum(1 for r in records if r[2] == "hit") / len(records),
        "fail_share": (len(records) - len(ok)) / len(records),
        "statuses": {s: sum(1 for r in records if r[1] == s)
                     for s in ("ok", "shed", "error", "degraded")},
    }
    if ok:
        summary["p50_ms"] = float(np.median([r[0] for r in ok])) * 1e3
        summary["tail_ms"] = tail([r[0] for r in ok])[1] * 1e3
    for cache in ("hit", "miss"):
        series = [r[0] * 1e3 for r in ok if r[2] == cache]
        if series:
            summary[f"{cache}_p50_ms"] = float(np.median(series))
    return summary


WORKLOADS = {w.name: w for w in (TrainWorkload, ServeWorkload, PoolWorkload)}
