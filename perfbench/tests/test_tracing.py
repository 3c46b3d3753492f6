"""Span arithmetic on synthetic call trees, and the tracer on the real library."""

import importlib
from collections import Counter

import numpy as np
import pytest

import povmsim
import tracing
from povmsim import core, fixtures, simulation
from tracing import Span

# A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]; E [11, 12] is
# a second top-level span.
TREE = [
    Span("simulation.postselection_scheme", 0.0, 10.0, -1, 0, False),  # A
    Span("simulation.rank_one_refinement", 1.0, 4.0, 0, 0, False),  # B
    Span("core.Povm", 2.0, 3.0, 1, 0, False),  # C
    Span("core.Povm", 5.0, 9.0, 0, 0, True),  # D
    Span("cli.main", 11.0, 12.0, -1, 1, False),  # E
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(TREE) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [Span("cli.main", 0.0, 10.0, -1, 0, False),
             Span("core.Povm", 1.0, 5.0, 0, 0, False),
             Span("core.Povm", 3.0, 7.0, 0, 0, False),
             Span("core.Povm", 8.0, 12.0, 0, 0, False)]
    # children cover [1, 7] and [8, 10]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_self_times_add_up_to_top_level_durations():
    total = sum(s.end - s.start for s in TREE if s.parent == -1)
    assert sum(tracing.self_times(TREE)) == pytest.approx(total)


def test_layer_metrics_are_per_cycle():
    counts = Counter({"core.eigensolves": 6, "simulation.shots": 40, "simulation.kept": 10})
    m = tracing.layer_metrics(TREE, counts, cycles=2)
    assert m["core.self_s"] == pytest.approx(2.5)
    assert m["simulation.self_s"] == pytest.approx(2.5)
    assert m["cli.self_s"] == pytest.approx(0.5)
    assert m["core.Povm.calls"] == 1.0
    assert m["core.eigensolves"] == 3.0
    assert m["core.errors"] == 0.5
    assert m["simulation.postselection_scheme.busy_s"] == pytest.approx(5.0)
    assert m["simulation.postselection_scheme.self_s"] == pytest.approx(1.5)
    assert m["simulation.shots"] == 20.0
    assert m["simulation.kept_ratio"] == pytest.approx(0.25)
    assert m["noisy_device.kept_ratio"] == 0.0


def test_layer_metrics_cover_the_spec():
    names = {m["name"] for m in tracing.per_layer_spec()}
    reported = set(tracing.layer_metrics(TREE, Counter(), 1))
    assert names - reported == {tracing.SETUP_METRIC, tracing.OVERHEAD_METRIC}
    assert reported <= names


def _bindings():
    modules = [povmsim] + [importlib.import_module(f"povmsim.{layer}")
                           for layer in tracing.LAYERS]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot.update({("Povm", "__init__"): core.Povm.__init__,
                     ("QuantumState", "__init__"): core.QuantumState.__init__,
                     ("linalg", "eigh"): np.linalg.eigh,
                     ("linalg", "eigvalsh"): np.linalg.eigvalsh})
    return snapshot


def test_tracer_records_nested_spans_and_restores_every_name():
    before = _bindings()
    povm = fixtures.ideal_povm("tetrahedral")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert simulation.rank_one_refinement is not before[("povmsim.simulation",
                                                             "rank_one_refinement")]
        simulation.postselection_scheme(povm)  # not recording: no spans
        assert tracer.spans == []
        with tracer.recording(7):
            simulation.postselection_scheme(povm)
    after = _bindings()
    assert tracer.unrestored == []
    assert all(after[k] is v for k, v in before.items())

    top = [s for s in tracer.spans if s.parent == -1]
    assert [s.name for s in top] == ["simulation.postselection_scheme"]
    children = {s.name for s in tracer.spans if s.parent == tracer.spans.index(top[0])}
    assert "simulation.rank_one_refinement" in children
    assert all(s.op == 7 and not s.failed for s in tracer.spans)
    assert all(s.start <= s.end for s in tracer.spans)
    assert tracer.counts["core.eigensolves"] > 0
    assert tracer.counts["simulation.eigensolves"] > 0


def test_tracer_counts_a_failed_span_and_still_restores():
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(), tracer.recording(0):
            core.random_povm(2, 1, seed=0)  # fewer outcomes than the dimension
    assert tracer.unrestored == []
    assert not hasattr(core.random_povm, "__wrapped__")
    assert [(s.name, s.failed) for s in tracer.spans] == [
        ("core.random_povm", True), ("core.random_rank_one_povm", True)]
