"""The four benchmark workloads: inputs generated from a seed, the ops of
one cycle, and an independent oracle for every op.

An op is one composite call into povmsim's public functions or one
in-process ``povmsim.cli.main([...])`` call with its stdout captured.  Every
library name is looked up on its module at call time, so the tracer's
wrappers see the benchmark's own calls too.  Oracles raise ``OracleError``;
they run outside the op's timer and outside the trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from povmsim import cli, core, fixtures, naimark, simulation, tomography, usd

EXACT_SIZES = ((4, 16, 1), (8, 16, 2), (8, 48, 1), (16, 32, 2), (16, 64, 1), (32, 64, 1))
EXACT_SHOTS = 100_000
SIMULATE_SHOTS = 1_000_000
COMPARE_RUNS = (("tetrahedral", "ibmx4-like", 8192), ("trine", "ibmx4-like", 1024),
                ("random4", "ibmx4-like", 65536), ("tetrahedral", "noiseless", 8192))
PLAN = {"povm_fixture": "trine", "scheme": "both", "noise.cnot": 0.1,
        "noise.su2": 0.002, "noise.readout_bias": 0.05, "shots": 8192}
#: (30, 100, 20) makes the cycle seven ops long, so the median op falls in
#: the middle of one op type instead of between two
USD_RANDOM = ((50, 100, 20), (10, 100, 20), (90, 100, 10), (30, 100, 20))
USD_SYMMETRIC = ((8, 0.05), (32, 0.05))
USD_ENSEMBLE = (20, 40)
DISTANCE_OUTCOMES = (10, 12, 13)
INCOMPLETE_SCALE = 1 - 1e-3
#: the README's Table 1, three decimals: (naimark, postselection)
TABLE1 = {"Tetrahedral": (0.118, 0.022), "Trine": (0.142, 0.023),
          "Random 4-effect": (0.169, 0.031)}

SIGMAS = 5.0
EXACT_ATOL = 1e-9
TABLE1_ATOL = 5e-4

_S = 1 / np.sqrt(2)
#: CLI state names as plain vectors, written out independently of the library
NAMED_STATES = {"zero": (1, 0), "one": (0, 1), "x+": (_S, _S), "x-": (_S, -_S),
                "y+": (_S, 1j * _S), "y-": (_S, -1j * _S)}


class OracleError(AssertionError):
    """An op's output disagrees with its oracle."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"povmsim {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _born(effects: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.einsum("i,kij,j->k", psi.conj(), effects, psi).real


def _check_counts(counts, probs, shots: int, success: float) -> None:
    """Kept shots ~ Binomial(shots, success); kept outcomes ~ Multinomial(kept,
    probs).  Each count must lie within 5 sigma (half-count continuity
    correction) of its mean."""
    counts = np.asarray(counts, dtype=float)
    kept = counts[:-1].sum()
    _within_sigmas(kept, shots * success, shots * success * (1 - success), "kept shots")
    for i, (c, p) in enumerate(zip(counts[:-1], probs)):
        _within_sigmas(c, kept * p, kept * p * (1 - p), f"outcome {i}")


def _within_sigmas(value, mean, variance, what: str) -> None:
    excess = max(abs(value - mean) - 0.5, 0.0)
    _require(excess <= SIGMAS * np.sqrt(max(variance, 0.0)),
             f"{what}: {value:g} vs expected {mean:g} (variance {variance:g})")


def _seeds(seed: int):
    rng = np.random.default_rng(seed)
    return lambda: int(rng.integers(2**31))


def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """Memoize an oracle value; it is computed during the warm-up cycle."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


# ---------------------------------------------------------------------------
# exact_scale

def _exact_op(d: int, n: int, rank: int, fresh) -> Op:
    povm = core.random_povm(d, n, fresh(), rank=rank)
    states = [core.haar_random_pure_state(d, fresh()) for _ in range(2)]
    seeds = [fresh() for _ in states]
    effects = np.array(povm.effects)
    vectors = [np.array(s.vector) for s in states]

    def run():
        refined, merge = simulation.rank_one_refinement(povm)
        scheme = simulation.postselection_scheme(povm)
        dilation = naimark.naimark_dilation(refined)
        deviations = [naimark.check_against_born(dilation, s) for s in states]
        counts = [simulation.sample_postselection(scheme, s, EXACT_SHOTS, seed).counts()
                  for s, seed in zip(states, seeds)]
        return {"unitary": np.array(dilation.unitary), "merge": np.array(merge.matrix),
                "weights": np.array(scheme.weights), "deviations": deviations,
                "counts": counts}

    def check(out):
        _require(max(out["deviations"]) <= EXACT_ATOL,
                 f"check_against_born deviation {max(out['deviations']):.3e}")
        _require(abs(out["weights"].sum() - 1) <= EXACT_ATOL, "scheme weights do not sum to 1")
        for psi, counts in zip(vectors, out["counts"]):
            born = _born(effects, psi)
            # abstract mode embeds the system at register indices 0..d-1
            dilated = out["merge"] @ (np.abs(out["unitary"][:, :d] @ psi) ** 2)
            deviation = float(np.max(np.abs(dilated - born)))
            _require(deviation <= EXACT_ATOL, f"dilated statistics off by {deviation:.3e}")
            _check_counts(counts, born, EXACT_SHOTS, 1 / d)

    return Op(f"exact d{d} n{n} r{rank}", run, check)


def _simulate_op(tetrahedral: core.Povm, fresh) -> Op:
    names = sorted(NAMED_STATES)
    state = names[fresh() % len(names)]
    seed = fresh()
    argv = ["simulate", "--povm", "tetrahedral", "--state", state,
            "--shots", str(SIMULATE_SHOTS), "--seed", str(seed)]
    born = _born(np.array(tetrahedral.effects), np.array(NAMED_STATES[state], dtype=complex))

    def check(out):
        payload = json.loads(out)
        kept = round(payload["success_rate"] * SIMULATE_SHOTS)
        counts = [round(r["frequency"] * kept) for r in payload["rows"]]
        _check_counts(counts + [SIMULATE_SHOTS - kept], born, SIMULATE_SHOTS, 0.5)

    return Op(f"simulate tetrahedral {state}", lambda: _cli(argv), check)


def exact_scale(seed: int, workdir: str) -> list[Op]:
    fresh = _seeds(seed)
    tetrahedral = fixtures.ideal_povm("tetrahedral")
    ops = [_exact_op(d, n, rank, fresh) for d, n, rank in EXACT_SIZES]
    return ops + [_simulate_op(tetrahedral, fresh)]


# ---------------------------------------------------------------------------
# device_compare

def _compare_op(name: str, argv: list[str], noiseless: core.Povm | None, shots: int) -> Op:
    if noiseless is not None:
        # shots per component are rint(shots * a_k / max a); each probe row
        # pools both x-gate variants, so the fail fraction has variance at
        # most 1/4 / (2 * total) per probe, averaged over 4 probes
        weights = np.array([np.trace(m).real for m in noiseless.effects])
        total = np.rint(shots * weights / weights.max()).sum()

    def check(out):
        row = json.loads(out)["rows"][0]
        for key in ("naimark", "our_scheme"):
            _require(0.0 <= row[key] <= 2.0, f"{key} distance {row[key]} outside [0, 2]")
        _require(row["naimark_residual_mass"] >= 0.0, "negative Naimark residual mass")
        if noiseless is not None:
            _within_sigmas(row["postselection_fraction"], 1 - 1 / noiseless.dim,
                           0.25 / (8 * total), "postselection fraction")
    return Op(name, lambda: _cli(argv), check)


def device_compare(seed: int, workdir: str) -> list[Op]:
    fresh = _seeds(seed)
    ops = []
    for povm_name, noise, shots in COMPARE_RUNS:
        noiseless = fixtures.ideal_povm(povm_name) if noise == "noiseless" else None
        argv = ["compare", "--povm", povm_name, "--noise", noise,
                "--shots", str(shots), "--seed", str(fresh())]
        ops.append(_compare_op(f"compare {povm_name} {noise} {shots}", argv, noiseless, shots))
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w") as f:
        json.dump({**PLAN, "seed": fresh()}, f)
    ops.append(_compare_op(f"compare plan {PLAN['povm_fixture']}",
                           ["compare", "--plan", plan_path], None, PLAN["shots"]))
    return ops


# ---------------------------------------------------------------------------
# usd_sweep

def _usd_random_op(d: int, space_dim: int, trials: int, seed: int) -> Op:
    argv = ["usd", "--random", str(d), str(space_dim), "--trials", str(trials),
            "--seed", str(seed)]

    def check(out):
        payload = json.loads(out)
        _require(payload["band_ok"] is True, "band_ok is not true")
        lams = [r["lambda_min"] for r in payload["rows"]]
        _require(len(lams) == trials, f"{len(lams)} rows for {trials} trials")
        _require(all(0.0 < lam <= 1.0 + EXACT_ATOL for lam in lams), "lambda_min outside (0, 1]")
    return Op(f"usd random {d} {space_dim} {trials}", lambda: _cli(argv), check)


def _symmetric_states(d: int, epsilon: float) -> np.ndarray:
    mags = np.full(d, (d - 1 + epsilon) / (d - 1))
    mags[0] = 1 - epsilon
    k = np.arange(d)
    return np.sqrt(mags) * np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def _usd_symmetric_op(d: int, epsilon: float) -> Op:
    argv = ["usd", "--symmetric", str(d), str(epsilon)]
    p_sp = _once(lambda: usd.projective_simulable_optimum_by_search(
        usd.Ensemble(_symmetric_states(d, epsilon))))

    def check(out):
        row = json.loads(out)["rows"][0]
        _require(row["bound_ok"] is True, "bound_ok is not true")
        _require(abs(row["p_povm"] - (1 - epsilon)) <= EXACT_ATOL, f"p_povm {row['p_povm']}")
        _require(abs(row["p_sp"] - p_sp()) <= EXACT_ATOL,
                 f"p_sp {row['p_sp']} vs search {p_sp()}")
    return Op(f"usd symmetric {d} {epsilon}", lambda: _cli(argv), check)


def _usd_ensemble_op(fresh, workdir: str) -> Op:
    n, space_dim = USD_ENSEMBLE
    rng = np.random.default_rng(fresh())
    states = rng.standard_normal((n, space_dim)) + 1j * rng.standard_normal((n, space_dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    ensemble = usd.Ensemble(states)
    path = os.path.join(workdir, "ensemble.json")
    with open(path, "w") as f:
        json.dump(usd.ensemble_to_document(ensemble), f)
    argv = ["usd", "--ensemble", path]
    p_sp = _once(lambda: usd.projective_simulable_optimum_by_search(ensemble))
    lam = _once(lambda: float(np.linalg.eigvalsh(states.conj() @ states.T)[0]))

    def check(out):
        row = json.loads(out)["rows"][0]
        _require(row["bound_ok"] is True, "bound_ok is not true")
        _require(abs(row["p_sp"] - p_sp()) <= EXACT_ATOL, f"p_sp {row['p_sp']} vs search {p_sp()}")
        _require(abs(row["p_povm_lower"] - lam()) <= EXACT_ATOL,
                 f"p_povm_lower {row['p_povm_lower']} vs lambda_min {lam()}")
    return Op(f"usd ensemble {n}x{space_dim}", lambda: _cli(argv), check)


def usd_sweep(seed: int, workdir: str) -> list[Op]:
    fresh = _seeds(seed)
    ops = [_usd_random_op(d, space_dim, trials, fresh()) for d, space_dim, trials in USD_RANDOM]
    ops += [_usd_symmetric_op(d, epsilon) for d, epsilon in USD_SYMMETRIC]
    return ops + [_usd_ensemble_op(fresh, workdir)]


# ---------------------------------------------------------------------------
# distance_scan

def qubit_distance_closed_form(ms, ns) -> float:
    """max over all outcome subsets x of |c0(x)| + |c(x)|, where the subset
    sum of M_i - N_i is c0 1 + c.sigma: the norm of a Hermitian qubit
    operator in closed form, over every subset at once."""
    diff = np.array(ms, dtype=complex) - np.array(ns, dtype=complex)
    c0 = (diff[:, 0, 0] + diff[:, 1, 1]).real / 2
    c = np.stack([(diff[:, 0, 1] + diff[:, 1, 0]).real / 2,
                  (diff[:, 1, 0] - diff[:, 0, 1]).imag / 2,
                  (diff[:, 0, 0] - diff[:, 1, 1]).real / 2], axis=1)
    k = len(c0)
    subsets = ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(float)
    return float(np.max(np.abs(subsets @ c0) + np.linalg.norm(subsets @ c, axis=1)))


def _distance_op(k: int, complete: bool, fresh) -> Op:
    m = core.random_povm(2, k, fresh())
    n = core.random_povm(2, k, fresh())
    other = n if complete else [INCOMPLETE_SCALE * e for e in n.effects]
    expected = _once(lambda: qubit_distance_closed_form(m.effects, list(other)))

    def check(out):
        _require(abs(out - expected()) <= EXACT_ATOL,
                 f"distance {out!r} vs closed form {expected()!r}")
    kind = "complete" if complete else "incomplete"
    return Op(f"distance k{k} {kind}", lambda: tomography.operational_distance(m, other), check)


def _table1_op() -> Op:
    def check(out):
        rows = {r["povm"]: r for r in json.loads(out)["rows"]}
        _require(set(rows) == set(TABLE1), f"table1 rows {sorted(rows)}")
        for name, (nai, ours) in TABLE1.items():
            got = (rows[name]["naimark"], rows[name]["our_scheme"])
            _require(abs(got[0] - nai) <= TABLE1_ATOL and abs(got[1] - ours) <= TABLE1_ATOL,
                     f"table1 {name}: {got} vs README {(nai, ours)}")
    return Op("table1", lambda: _cli(["table1"]), check)


def distance_scan(seed: int, workdir: str) -> list[Op]:
    fresh = _seeds(seed)
    ops = [_distance_op(k, complete, fresh)
           for k in DISTANCE_OUTCOMES for complete in (True, False)]
    return ops + [_table1_op()]


WORKLOADS = {"exact_scale": exact_scale, "device_compare": device_compare,
             "usd_sweep": usd_sweep, "distance_scan": distance_scan}
