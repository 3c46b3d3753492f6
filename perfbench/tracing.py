"""Spans around povmsim's layer boundaries, installed from outside the library.

``Tracer.installed()`` replaces each name listed in ``FUNCTIONS`` in every
povmsim module that binds it (where callers look it up), wraps ``__init__``
of the classes in ``CLASSES`` on the class, and wraps ``numpy.linalg.eigh``
and ``eigvalsh`` to count eigensolves.  Everything is put back on exit.

While ``Tracer.op`` is set, each wrapped call records a ``Span``; spans stay
in memory until ``write_spans``.  A span's self time is its duration minus
the part of it that its child spans cover.  The library is single-threaded
and has no queues, so there is no waiting to record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("core", "simulation", "naimark", "noisy_device", "tomography", "usd", "cli", "fixtures")

#: public functions wrapped, by the module that defines them
FUNCTIONS = {
    "core": ("born_probabilities", "haar_random_pure_state", "haar_random_unitary",
             "random_povm", "random_rank_one_povm", "min_eigenvalue", "operator_norm",
             "povm_from_document", "state_from_document"),
    "simulation": ("rank_one_refinement", "postselection_scheme", "sample_postselection",
                   "build_mq", "apply_postprocessing", "convex_combination"),
    "naimark": ("naimark_dilation", "dilated_statistics", "check_against_born"),
    "noisy_device": ("compare_schemes", "postselection_tomography", "naimark_tomography",
                     "run_shots", "exact_output_distribution", "compile_postselection_circuit",
                     "compile_naimark_circuit", "two_qubit_gate_sequence",
                     "load_experiment_plan"),
    "tomography": ("operational_distance", "reconstruct_povm", "bias_mitigated_statistics"),
    "usd": ("random_ensemble_experiment", "usd_advantage_bound", "symmetric_ensemble",
            "symmetric_ensemble_from_gap", "ensemble_from_document",
            "projective_simulable_optimum"),
    "cli": ("main",),
    "fixtures": ("ideal_povm", "reconstruction"),
}
#: classes whose ``__init__`` is wrapped on the class itself
CLASSES = {"core": ("Povm", "QuantumState")}
EIGENSOLVERS = ("eigh", "eigvalsh")

#: span name -> aggregates reported for it, per cycle
SPAN_METRICS = {
    "core.Povm": ("calls", "self_s"),
    "core.QuantumState": ("calls", "self_s"),
    "core.born_probabilities": ("calls", "self_s"),
    "simulation.rank_one_refinement": ("self_s",),
    "simulation.postselection_scheme": ("calls", "busy_s", "self_s"),
    "simulation.sample_postselection": ("self_s",),
    "naimark.naimark_dilation": ("calls", "self_s"),
    "naimark.dilated_statistics": ("self_s",),
    "noisy_device.compare_schemes": ("busy_s", "self_s"),
    "noisy_device.run_shots": ("calls", "self_s"),
    "noisy_device.exact_output_distribution": ("self_s",),
    "noisy_device.compile_naimark_circuit": ("self_s",),
    "tomography.operational_distance": ("calls", "self_s"),
    "tomography.reconstruct_povm": ("self_s",),
    "usd.random_ensemble_experiment": ("self_s",),
    "usd.usd_advantage_bound": ("self_s",),
    "cli.main": ("calls", "self_s"),
}
#: counters reported per cycle: name -> (unit, better)
COUNTERS = {
    "simulation.shots": ("shots/cycle", "higher"),
    "noisy_device.shots": ("shots/cycle", "higher"),
    "noisy_device.cnots": ("gates/cycle", "lower"),
    "usd.trials": ("trials/cycle", "higher"),
    "cli.payload_bytes": ("bytes/cycle", "lower"),
}
#: ratios: name -> (numerator counter, denominator counter, better)
RATIOS = {
    "simulation.kept_ratio": ("simulation.kept", "simulation.shots", "higher"),
    "noisy_device.kept_ratio": ("noisy_device.kept_shots", "noisy_device.postselection_shots",
                                "higher"),
    "tomography.unphysical_ratio": ("tomography.unphysical", "tomography.outcomes", "lower"),
}
SETUP_METRIC = "fixtures.ideal_povm.self_s"
OVERHEAD_METRIC = "trace.overhead_ratio"
_UNITS = {"calls": ("calls/cycle", "lower"), "self_s": ("s/cycle", "lower"),
          "busy_s": ("s/cycle", "lower"), "eigensolves": ("calls/cycle", "lower"),
          "errors": ("count/cycle", "lower")}


def per_layer_spec() -> list[dict]:
    """Every per-layer metric a traced run reports, with unit and direction."""
    spec = []
    for layer in LAYERS:
        for agg in ("self_s", "eigensolves", "errors"):
            spec.append((f"{layer}.{agg}", *_UNITS[agg]))
    for name, aggs in SPAN_METRICS.items():
        spec += [(f"{name}.{agg}", *_UNITS[agg]) for agg in aggs]
    spec += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    spec += [(name, "ratio", better) for name, (_, _, better) in RATIOS.items()]
    spec += [(SETUP_METRIC, "s/setup", "lower"), (OVERHEAD_METRIC, "ratio", "lower")]
    return [{"name": n, "unit": u, "better": b} for n, u, b in spec]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 at top level
    op: int
    failed: bool


def _hook_sampled(counts, args, kwargs, record):
    counts["simulation.shots"] += record.shots
    counts["simulation.kept"] += record.success_count


def _hook_run_shots(counts, args, kwargs, record):
    circuit = args[0] if args else kwargs["circuit"]
    counts["noisy_device.shots"] += record.shots
    counts["noisy_device.cnots"] += circuit.cnot_count


def _hook_compared(counts, args, kwargs, comparison):
    post = comparison.postselection
    counts["noisy_device.postselection_shots"] += post.shots_total
    counts["noisy_device.kept_shots"] += post.shots_total * (1 - post.postselection_fraction)


def _hook_reconstructed(counts, args, kwargs, reconstruction):
    counts["tomography.outcomes"] += reconstruction.n_outcomes
    counts["tomography.unphysical"] += len(reconstruction.unphysical_outcomes)


def _hook_experiment(counts, args, kwargs, experiment):
    counts["usd.trials"] += len(experiment.rows)


HOOKS = {
    "simulation.sample_postselection": _hook_sampled,
    "noisy_device.run_shots": _hook_run_shots,
    "noisy_device.compare_schemes": _hook_compared,
    "tomography.reconstruct_povm": _hook_reconstructed,
    "usd.random_ensemble_experiment": _hook_experiment,
}


class Tracer:
    """Collects spans and counters while ``op`` is not None."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._open: list[tuple[int, str]] = []  # (span index, layer) innermost last
        self._patches: list[tuple[object, str, object]] = []
        self.unrestored: list[str] = []

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries; restore every wrapped name on exit."""
        try:
            self._install()
            yield self
        finally:
            self._restore()

    @contextlib.contextmanager
    def recording(self, op: int):
        self.op = op
        try:
            yield
        finally:
            self.op = None

    def _install(self) -> None:
        modules = {layer: importlib.import_module(f"povmsim.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("povmsim"), *modules.values()]
        for layer, names in FUNCTIONS.items():
            home = modules[layer]
            for name in names:
                original = getattr(home, name)
                span = f"{layer}.{name}"
                wrapped = self._wrap(span, original, HOOKS.get(span))
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        for layer, names in CLASSES.items():
            for name in names:
                cls = getattr(modules[layer], name)
                self._patch(cls, "__init__", self._wrap(f"{layer}.{name}", cls.__init__))
        for name in EIGENSOLVERS:
            self._patch(np.linalg, name, self._count_eigensolves(getattr(np.linalg, name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self.unrestored = [f"{getattr(owner, '__name__', owner)}.{attr}"
                           for owner, attr, original in self._patches
                           if getattr(owner, attr) is not original]
        self._patches.clear()

    def _wrap(self, name: str, fn, hook=None):
        layer = name.split(".", 1)[0]
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1][0] if open_spans else -1
            open_spans.append((index, layer))
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index] = Span(name, start, end, parent, op, failed)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result
        return traced

    def _count_eigensolves(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                layer = self._open[-1][1] if self._open else "bench"
                self.counts[f"{layer}.eigensolves"] += 1
            return fn(*args, **kwargs)
        return counted

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_times(spans)):
        totals[s.name.split(".", 1)[0]] += t
    return totals


def layer_metrics(spans: list[Span], counts: Counter, cycles: int) -> dict[str, float]:
    """Per-cycle aggregates of a traced run, keyed as in ``per_layer_spec``
    (without the set-up and overhead entries, which the caller adds)."""
    selfs = self_times(spans)
    calls, busy, own = Counter(), Counter(), Counter()
    errors = Counter()
    for s, t in zip(spans, selfs):
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
        own[s.name] += t
        errors[s.name.split(".", 1)[0]] += s.failed
    by_layer = layer_self_times(spans)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer] / cycles
        m[f"{layer}.eigensolves"] = counts[f"{layer}.eigensolves"] / cycles
        m[f"{layer}.errors"] = errors[layer] / cycles
    table = {"calls": calls, "busy_s": busy, "self_s": own}
    for name, aggs in SPAN_METRICS.items():
        for agg in aggs:
            m[f"{name}.{agg}"] = table[agg][name] / cycles
    for name in COUNTERS:
        m[name] = counts[name] / cycles
    for name, (num, den, _) in RATIOS.items():
        m[name] = counts[num] / counts[den] if counts[den] else 0.0
    return m


def count_signature(spans: list[Span], counts: Counter) -> dict[str, int]:
    """The integer counts of a traced stretch: span calls by name plus the
    integer counters.  Equal signatures mean the counts repeated exactly."""
    sig = Counter(s.name + ".calls" for s in spans)
    sig.update({k: v for k, v in counts.items() if isinstance(v, int)})
    return dict(sorted(sig.items()))
