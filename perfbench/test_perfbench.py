"""Tests of the benchmark's own logic (no workload is run).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import re
import statistics
import sys
import types
from pathlib import Path

import pytest

import run
from stats import (nearest_rank, open_loop_schedule, quartile_spread,
                   supported_percentile, tail)
from tracing import (Patches, Span, Tracer, children_of, covered,
                     layer_seconds, self_time)

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def span(id, start, end, parent=None, name="x", rid=None, note=None):
    return Span(id, name, start, end, parent, rid, 1, note)


# ----------------------------------------------------------------------
# percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (1000, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0),
    (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1, None)])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert supported_percentile(n) == expected
    if expected is not None:
        ordered = list(range(n))
        value = nearest_rank(ordered, expected)
        assert sum(1 for x in ordered if x > value) >= 10


def test_p95_of_200_leaves_exactly_ten_beyond():
    samples = list(range(1, 201))
    assert tail(samples) == (95.0, 190)


def test_tail_of_a_small_sample_is_its_maximum():
    assert tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    root, child, grandchild = span(1, 0, 10), span(2, 2, 5, 1), \
        span(3, 3, 4, 2)
    by_parent = children_of([root, child, grandchild])
    assert self_time(root, by_parent[1]) == 7
    assert self_time(child, by_parent[2]) == 2
    assert self_time(grandchild, by_parent.get(3, [])) == 1


def test_overlapping_children_are_counted_once():
    root = span(1, 0, 10)
    children = [span(2, 1, 4, 1), span(3, 3, 6, 1), span(4, 5, 5.5, 1)]
    assert self_time(root, children) == pytest.approx(5)


def test_children_outside_the_parent_are_clipped():
    root = span(1, 0, 10)
    assert self_time(root, [span(2, 8, 12, 1), span(3, -3, 1, 1)]) == 7
    assert self_time(root, [span(4, 11, 12, 1)]) == 10


def test_covered_merges_touching_and_disjoint_intervals():
    assert covered([(0, 1), (1, 2), (5, 6)]) == 3
    assert covered([(0, 4), (1, 2)], lo=1, hi=3) == 2
    assert covered([]) == 0


def test_layer_seconds_counts_nested_calls_of_one_layer_once():
    spans = [span(1, 0, 4, name="a"), span(2, 1, 2, 1, name="a"),
             span(3, 6, 7, name="a"), span(4, 0, 9, name="b")]
    assert layer_seconds(spans, "a") == 5


def test_tracer_records_parents_and_inherits_request_ids():
    tracer = Tracer()
    with tracer.span("request", rid="r1") as root:
        with tracer.span("inner") as inner:
            pass
        tracer.wrap("wrapped", lambda: None)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == root.id
    assert by_name["wrapped"].parent == root.id
    assert {s.rid for s in tracer.spans} == {"r1"}
    assert root.start <= inner.start <= inner.end <= root.end
    assert by_name["request"].parent is None


def test_worker_spans_join_the_request_that_wrote_their_frame():
    spans = [span(1, 0, 10, name="request", rid="r7"),
             span(2, 1, 2, 1, name="serve_shm.write", rid="r7",
                  note="pool-42"),
             span(3, 2, 3, name="serve_shm.read", rid="pool-42"),
             span(4, 3, 4, name="serve.signature", rid="pool-42"),
             span(5, 4, 5, name="serve_shm.read", rid="pool-43")]
    run._join_worker_spans(spans)
    assert [s.rid for s in spans] == ["r7"] * 4 + ["pool-43"]


# ----------------------------------------------------------------------
# the open-loop schedule
# ----------------------------------------------------------------------
def _schedule(seed):
    return open_loop_schedule(seed, rate=25.0, seconds=15.0,
                              repeat_share=0.9, recent=8,
                              candidates=range(6, 400))


def test_schedule_is_determined_by_the_seed():
    assert _schedule(3) == _schedule(3)
    assert _schedule(3) != _schedule(4)


def test_schedule_shape():
    schedule = _schedule(5)
    due = [d for d, _, _ in schedule]
    assert len(schedule) == 375
    assert due == sorted(due) and 0 <= due[0] and due[-1] < 15.0
    assert schedule[0][2] is False
    asked = []
    for _, now, repeat in schedule:
        if repeat:
            assert now in asked[-8:]
        else:
            assert now not in asked
            asked.append(now)
    assert sum(not r for _, _, r in schedule) == int(round((1 - 0.9) * 375))


def test_schedule_refuses_to_run_out_of_windows():
    with pytest.raises(ValueError):
        open_loop_schedule(0, 25.0, 15.0, 0.0, 8, range(10))


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def test_patches_restore_module_class_and_instance_attributes():
    module = types.SimpleNamespace(fn=lambda: 1)

    class Base:
        def inherited(self):
            return 2

    class Thing(Base):
        def own(self):
            return 3

    thing = Thing()
    originals = (module.fn, Thing.__dict__["own"])
    tracer, patches = Tracer(), Patches()
    patches.wrap(tracer, module, "fn", "m")
    patches.wrap(tracer, Thing, "own", "c")
    patches.wrap(tracer, Thing, "inherited", "i")
    patches.wrap(tracer, thing, "own", "o")
    assert (module.fn(), thing.own(), thing.inherited()) == (1, 3, 2)
    assert sorted(s.name for s in tracer.spans) == ["c", "i", "m", "o"]
    patches.undo()
    assert (module.fn, Thing.__dict__["own"]) == originals
    assert "inherited" not in vars(Thing) and "own" not in vars(thing)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_lists_what_run_py_prints():
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(run.ROOTS) == set(WORKLOADS)


def test_benchmark_json_keeps_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# process clean-up
# ----------------------------------------------------------------------
def test_stop_children_reaps_the_shared_memory_resource_tracker():
    import os
    from multiprocessing import resource_tracker, shared_memory
    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    run.stop_children()
    assert resource_tracker._resource_tracker._pid is None
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
