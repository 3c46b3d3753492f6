"""One workload process: set up, warm up, then a closed loop of ops with one
client, each op starting when the previous one returns.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Prints one JSON object on its last stdout line.  The loop runs whole cycles
until ``--seconds`` have passed; traced, untraced and traced cycles
alternate, and every op's output must equal that of its untraced warm-up.
An untraced run times a host-speed probe (``hostspeed.py``) between ops and
reports each op's speed factor beside its latency.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
MAX_REPORTED_FAILURES = 5


def digest(obj, h=None) -> str:
    """Hash of an op's output: arrays by dtype, shape and bytes, floats by repr."""
    import numpy as np
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(str(key).encode())
            digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            digest(item, h)
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Loop:
    """Runs ops, checks each against its oracle and against the first output
    recorded for the same op, and keeps per-op latencies."""

    def __init__(self, ops, probe=None):
        self.ops = ops
        self.probe = probe
        self.reference = [None] * len(ops)
        self.latencies: list[float] = []
        #: per latency, the mean speed factor of the probes before and after it
        self.factors: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.failures: list[str] = []

    def cycle(self, tracer=None, first_op_id: int = 0, count: bool = True) -> None:
        factor = self.probe() if self.probe else 1.0
        for i, op in enumerate(self.ops):
            ok = True
            try:
                start = time.perf_counter()
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.recording(first_op_id + i):
                        out = op.run()
                        if isinstance(out, str):  # a CLI op's captured stdout
                            tracer.counts["cli.payload_bytes"] += len(out.encode())
                elapsed = time.perf_counter() - start
                before, factor = factor, self.probe() if self.probe else 1.0
                op.check(out)
                key = digest(out)
                if self.reference[i] is None:
                    self.reference[i] = key
                elif key != self.reference[i]:
                    self.mismatched += 1
                    raise AssertionError("output differs from the first run of this op")
            except Exception as err:  # an op that raises counts as failed; the loop goes on
                ok = False
                self._fail(op.name, err)
            if count:
                self.attempted += 1
                if ok:
                    self.latencies.append(elapsed)
                    self.factors.append((before + factor) / 2)
                else:
                    self.failed += 1

    def _fail(self, name: str, err: Exception) -> None:
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{name}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)

    def run_for(self, seconds: float) -> dict:
        """Whole cycles until ``seconds`` have passed (at least one)."""
        cycles, start = 0, time.perf_counter()
        while cycles == 0 or time.perf_counter() - start < seconds:
            self.cycle()
            cycles += 1
        return {"cycles": cycles, "wall_s": time.perf_counter() - start}


def blas_info() -> dict:
    """The BLAS numpy was built against, and its thread count as the loaded
    library reports it (no threadpoolctl here, so asked through ctypes)."""
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads}


def setup(workload: str, seed: int, workdir: str):
    """Import povmsim from the checkout and build the workload's inputs."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import povmsim
    if not os.path.abspath(povmsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"povmsim was imported from {povmsim.__file__}, not {SRC}")
    import workloads
    return workloads.WORKLOADS[workload](seed, workdir)


def measure(args, workdir: str) -> dict:
    start = time.perf_counter()
    ops = setup(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - start
    import hostspeed
    result = {"setup_s": setup_s, "setup_factor": hostspeed.setup_factor()}
    if args.setup_only:
        return result
    probe = None if args.trace else hostspeed.Probe(hostspeed.INTERPRETER_SHARE[args.workload])
    loop = Loop(ops, probe)
    loop.cycle(count=False)  # warm-up: fills the oracles' caches
    result["ops_per_cycle"] = len(ops)
    result.update(traced(loop, args, workdir) if args.trace else loop.run_for(args.seconds))
    import numpy as np
    result.update({
        "latencies_s": loop.latencies, "speed_factors": loop.factors,
        "attempted": loop.attempted, "failed": loop.failed, "failures": loop.failures,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "meta": {"numpy": np.__version__, **blas_info(),
                 "python": sys.version.split()[0]},
    })
    return result


def traced(loop: Loop, args, workdir: str) -> dict:
    """Alternate untraced and traced cycles until ``--seconds`` have passed,
    so that both see the same machine; their times give the overhead.  The
    tracer is installed for each traced cycle and removed after it."""
    import tracing
    import workloads
    tracer = tracing.Tracer()
    signatures, unrestored, traced_latencies = [], [], []
    plain_s = traced_s = 0.0
    cycles, start = 0, time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < args.seconds:
        t = time.perf_counter()
        loop.cycle()
        plain_s += time.perf_counter() - t
        first_span, first_latency = len(tracer.spans), len(loop.latencies)
        before = Counter(tracer.counts)
        with tracer.installed():
            t = time.perf_counter()
            loop.cycle(tracer, first_op_id=cycles * len(loop.ops))
            traced_s += time.perf_counter() - t
        unrestored += tracer.unrestored
        traced_latencies += loop.latencies[first_latency:]
        delta = Counter(tracer.counts)
        delta.subtract(before)
        signatures.append(tracing.count_signature(tracer.spans[first_span:], delta))
        cycles += 1
    wall = time.perf_counter() - start
    setup_tracer = tracing.Tracer()
    with setup_tracer.installed(), setup_tracer.recording(-1):
        workloads.WORKLOADS[args.workload](args.seed, workdir)
    unrestored += setup_tracer.unrestored
    ideal = [own for s, own in zip(setup_tracer.spans, tracing.self_times(setup_tracer.spans))
             if s.name == "fixtures.ideal_povm"]

    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, cycles)
    metrics[tracing.SETUP_METRIC] = sum(ideal)
    metrics[tracing.OVERHEAD_METRIC] = traced_s / plain_s - 1
    spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
    tracer.write_spans(spans_path)
    return {
        "cycles": cycles,
        "wall_s": wall,
        "per_layer": metrics,
        "layer_seconds": tracing.layer_self_times(tracer.spans),
        "traced_op_s": sum(traced_latencies),
        "outputs_equal": loop.mismatched == 0,
        "counts_repeat": all(s == signatures[0] for s in signatures),
        "count_signature": signatures[0],
        "unrestored": unrestored,
        "spans_file": spans_path,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as workdir:
        result = measure(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
