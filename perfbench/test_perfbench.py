"""Tests of the benchmark's own arithmetic, inputs and wrapper hygiene."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import tracing
import workloads
from hgchat import corpus, diffcore
from hgchat.corpus import records_equal
from tracing import Span, Tracer, has_ancestor, self_times

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", -1, 0.0, 10.0, 0, 0.0),
        Span("b", 0, 1.0, 4.0, 0, 0.0),
        Span("c", 0, 5.0, 9.0, 0, 0.0),
        Span("d", 2, 6.0, 7.0, 0, 0.0),
    ]
    own = self_times(spans)
    assert own == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert sum(own.values()) == 10.0
    assert has_ancestor(spans, 3, "a") and not has_ancestor(spans, 1, "c")


def test_self_time_sums_nested_spans_of_one_name():
    spans = [Span("m", -1, 0.0, 4.0, 0, 0.0), Span("m", 0, 1.0, 2.0, 0, 0.0),
             Span("x", -1, 5.0, 6.0, 0, 0.0)]
    assert self_times(spans) == {"m": 4.0, "x": 1.0}


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert workloads.percentile(values, 50) == 50.0
    assert workloads.percentile(values, 90) == 90.0


@pytest.mark.parametrize("n, q, ok", [(100, 90, True), (99, 90, False),
                                      (20, 50, True), (19, 50, False)])
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    values = list(range(n))
    if ok:
        workloads.percentile(values, q)
    else:
        with pytest.raises(ValueError, match="ten are needed"):
            workloads.percentile(values, q)


def test_min_greedy_samples_allow_p90():
    n = workloads.MIN_SAMPLES["greedy"]
    workloads.percentile(list(range(n)), 90)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    workload = workloads.WORKLOADS["decode_desk"]
    a = workloads.make_records(workload, 5)
    b = workloads.make_records(workload, 5)
    c = workloads.make_records(workload, 6)
    assert len(a) == len(b) and all(records_equal(x, y) for x, y in zip(a, b))
    assert not all(records_equal(x, y) for x, y in zip(a, c))
    # a seed changes the content, never the amount of work
    assert [r.n_turns for r in a] == [r.n_turns for r in c]
    lo, hi = workload.turns
    assert sorted(r.n_turns for r in a[:hi - lo + 1]) == list(range(lo, hi + 1))


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    tiny = workloads.Workload("tiny", "short dialogues", (1, 2), workloads.DECODE_HEAVY)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(workloads.TRACE_COUNTS, "greedy", 3)
    return workloads.setup("tiny", 0, tmp_path)


def test_traced_run_restores_every_wrapper(tiny_bench):
    points = Tracer().points()
    before = [getattr(owner, attr) for owner, attr in points]
    layer = workloads.trace(tiny_bench)
    assert [getattr(owner, attr) for owner, attr in points] == before
    assert tiny_bench.checks["wrappers_restored"]
    assert all(tiny_bench.checks.values())
    assert layer["model.encode.calls_per_record"][0] == 3.0
    assert layer["graph.build.calls"][0] > 0


def test_wrappers_restored_when_the_traced_call_raises():
    points = Tracer().points()
    before = [getattr(owner, attr) for owner, attr in points]
    tracer = Tracer()
    with pytest.raises(TypeError):
        with tracer.installed():
            corpus.build_vocab(None)  # raises inside the wrapper
    assert [getattr(owner, attr) for owner, attr in points] == before
    assert tracer.spans[0].name == "corpus.vocab"


def test_benchmark_declares_every_layer_metric_the_trace_reports():
    declared = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    reported = {name: unit for name, (_, unit) in Tracer().layer_metrics(1.0, 1.0).items()}
    assert declared == reported
    assert set(tracing.PRIM_KINDS) == set(diffcore._PRIMS)
