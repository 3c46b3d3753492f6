"""Run one povmsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_scale --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: the workload runs untraced in a
fresh worker process, and set-up is timed in further fresh processes.  Times
are reported at the reference host speed: each is divided by the speed
factor that ``hostspeed.py`` probed beside it; the raw wall-clock figures are
printed beside them.
``--trace 1`` prints the per-layer metrics of a traced run, the layers'
shares of op time and the tracing overhead.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the full
result with its run metadata is written to ``perfbench/out/``.  Exits 2,
without a result, when the checkout holds no povmsim sources or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from worker import OUT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("exact_scale", "device_compare", "usd_sweep", "distance_scan")
#: fresh processes that only set up; the measuring worker adds one more sample
SETUP_PROBES = 6
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_TAIL_SAMPLES = 10
#: povmsim's matrices are at most 100 x 100, where a second OpenBLAS thread
#: costs more than it saves and makes timings spread more
BLAS_THREADS = "1"
#: glibc adapts its mmap and trim thresholds to the allocation history, which
#: makes the cost of 100 x 100 temporaries differ from run to run; fixed
#: thresholds keep freed memory in the heap and runs repeatable
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 28)}
#: the whole run must end within 180 s
BUDGET_S = 170.0
END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    env = {**os.environ, **MALLOC_ENV, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
           "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0), text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker did not finish within the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode} with no result")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile of TAIL_PERCENTILES with at least MIN_TAIL_SAMPLES
    samples beyond it (nearest rank), its value, and that sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(math.ceil(round(p * n / 100, 9)), 1)
        if n - rank >= MIN_TAIL_SAMPLES or p == TAIL_PERCENTILES[-1]:
            return p, ordered[rank - 1], n - rank


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # half the set-up probes run before the measuring worker and half after
    # it, so that one burst of host load cannot reach most of them
    setups = [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_PROBES // 2)]
    result = run_worker(args, deadline)
    setups += [result] + [run_worker(args, deadline, setup_only=True)
                          for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    raw = result["latencies_s"]
    latencies = [t / f for t, f in zip(raw, result["speed_factors"])]
    p, tail_s, beyond = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(s["setup_s"] / s["setup_factor"] for s in setups),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    notes = {
        "ops_per_s": f"{len(latencies)} ops in {result['cycles']} cycles; "
                     f"raw {len(raw) / result['wall_s']:.4g} ops per wall second",
        "op_p50_ms": f"raw {statistics.median(raw) * 1e3:.4g} ms",
        "op_tail_ms": f"p{p:g}, {beyond} of {len(latencies)} ops beyond it; "
                      f"raw {tail(raw)[1] * 1e3:.4g} ms",
        "setup_s": f"median of {len(setups)} fresh processes; "
                   f"raw {statistics.median(s['setup_s'] for s in setups):.4g} s",
    }
    for name, unit in END_TO_END:
        print(f"{name} {values[name]:.6g} {unit}  {notes.get(name, '')}".rstrip())
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate {error_rate:.6g} ratio  {result['failed']} of {result['attempted']} ops")
    print(f"host speed factor {statistics.median(result['speed_factors']):.3g} "
          f"(median over ops; 1 is the reference speed)")
    result.update(setup_samples=[{k: s[k] for k in ("setup_s", "setup_factor")} for s in setups],
                  end_to_end=values, error_rate=error_rate)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return result, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, HERE)
    import tracing
    result = run_worker(args, deadline)
    values = result["per_layer"]
    spec = tracing.per_layer_spec()
    for m in spec:
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(f"layer shares of traced op time ({result['traced_op_s']:.3f} s, "
          f"{result['cycles']} cycles):")
    for layer, seconds in sorted(result["layer_seconds"].items(), key=lambda kv: -kv[1]):
        print(f"  {layer:13s} {seconds / result['traced_op_s']:7.1%}")
    outside = result["traced_op_s"] - sum(result["layer_seconds"].values())
    print(f"  {'outside':13s} {outside / result['traced_op_s']:7.1%}")
    print(f"tracing overhead {values[tracing.OVERHEAD_METRIC]:.1%} of untraced wall time; "
          f"outputs equal: {result['outputs_equal']}; counts repeat: {result['counts_repeat']}; "
          f"names restored: {not result['unrestored']}; spans: {result['spans_file']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "povmsim", "__init__.py")):
        print(f"error: no povmsim sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    try:
        result, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    meta = {**result.pop("meta"), "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": git_commit()}
    print("meta " + json.dumps(meta))
    for failure in result["failures"]:
        print(f"failed: {failure}")
    correct = result["failed"] == 0
    if args.trace:
        correct = (correct and result["outputs_equal"] and result["counts_repeat"]
                   and not result["unrestored"])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"meta": meta, "metrics": metrics, "correct": correct, **result}, f)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
