"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing an explicit pass line on success."""

import time

import numpy as np
import pytest

from povmsim import fixtures
from povmsim.cli import table1_rows
from povmsim.core import (
    InvariantViolation,
    Povm,
    QuantumState,
    born_probabilities,
    pauli_eigenstates,
    random_povm,
)
from povmsim.naimark import dilated_statistics, naimark_dilation
from povmsim.noisy_device import (
    NOISE_PRESETS,
    NoiseModel,
    compare_schemes,
    compile_naimark_circuit,
    exact_output_distribution,
)
from povmsim.simulation import (
    PostProcessingMap,
    apply_postprocessing,
    build_mq,
    postselection_scheme,
    sample_postselection,
)
from povmsim.tomography import (
    TomographyRecord,
    bias_mitigated_statistics,
    operational_distance,
    probe_states,
    reconstruct_povm,
)
from povmsim.usd import (
    equal_probability_measurement,
    projective_simulable_optimum,
    random_ensemble_experiment,
    symmetric_ensemble_from_gap,
    usd_success,
)

TABLE1 = {
    "Tetrahedral": (0.117, 0.023),
    "Trine": (0.141, 0.022),
    "Random 4-effect": (0.168, 0.031),
}


def _report(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_table1_recomputation():
    start = time.perf_counter()
    rows = {r["povm"]: r for r in table1_rows()}
    elapsed = time.perf_counter() - start
    for name, (naimark, ours) in TABLE1.items():
        assert rows[name]["naimark"] == pytest.approx(naimark, abs=0.003), name
        assert rows[name]["our_scheme"] == pytest.approx(ours, abs=0.003), name
    assert elapsed < 1.0, f"table recomputation took {elapsed:.2f}s"
    _report(1, "Table 1 recomputation")


def test_criterion_2_postselection_sampler_fidelity(all_fixture_povms):
    start = time.perf_counter()
    shots = 1_000_000
    for name, povm in all_fixture_povms.items():
        scheme = postselection_scheme(povm)
        for p_idx, state in enumerate(pauli_eigenstates()):
            record = sample_postselection(scheme, state, shots, seed=1000 + p_idx)
            oracle = born_probabilities(state, povm)
            kept = record.success_count
            freqs = record.conditional_frequencies()
            for i, p in enumerate(oracle):
                if p < 1e-15:
                    assert freqs[i] == 0.0, (name, p_idx, i)
                    continue
                sigma = np.sqrt(p * (1 - p) / kept)
                assert abs(freqs[i] - p) <= 5 * max(sigma, 1e-12), (name, p_idx, i)
            q = scheme.success_probability
            sigma_q = np.sqrt(q * (1 - q) / shots)
            assert abs(record.success_rate - q) <= 5 * sigma_q, (name, p_idx)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sampler fidelity took {elapsed:.1f}s"
    _report(2, "postselection sampler fidelity")


def test_criterion_3_exact_decomposition(all_fixture_povms):
    def check(povm):
        scheme = postselection_scheme(povm)
        # the single-map view: one mixture, one deterministic relabelling
        merge = PostProcessingMap([*scheme.parents, scheme.fail_index])
        simulated = apply_postprocessing(scheme.mixture(), merge)
        target = build_mq(povm, 1 / povm.dim)
        for got, want in zip(simulated.effects, target.effects):
            assert np.max(np.abs(got - want)) < 1e-9

    for povm in all_fixture_povms.values():
        check(povm)
    rng = np.random.default_rng(314)
    for dim in (2, 3, 4):
        for _ in range(50):
            n = int(rng.integers(dim, dim + 4))
            rank = int(rng.integers(1, 3))
            check(random_povm(dim, n, rng, rank=rank))
    _report(3, "exact postselection decomposition")


def test_criterion_4_naimark_correctness(all_fixture_povms):
    probes = pauli_eigenstates()
    for name, povm in all_fixture_povms.items():
        dilation = naimark_dilation(povm)
        assert dilation.isometry_defect < 1e-9, name
        assert dilation.unitarity_defect < 1e-9, name
        # the two-qubit register: ancilla = qubit 0 in |0>, system = qubit 1
        circuit = compile_naimark_circuit(dilation)
        n = povm.n_outcomes
        for state in probes:
            oracle = born_probabilities(state, povm)
            stats = dilated_statistics(dilation, state)
            assert np.max(np.abs(stats - oracle)) < 1e-9, name
            register = exact_output_distribution(
                circuit, QuantumState.pure(np.kron([1, 0], state.vector)), NoiseModel())
            assert np.max(np.abs(register[:n] - oracle)) < 1e-9, (name, "register")
            assert np.max(register[n:], initial=0.0) < 1e-9, (name, "register")
    _report(4, "Naimark dilation correctness")


def test_criterion_5_symmetric_ensemble_bands():
    start = time.perf_counter()
    for d in (2, 4, 8, 16):
        for eps in (0.01, 0.05, 0.2):
            ensemble = symmetric_ensemble_from_gap(d, eps)
            measurement = equal_probability_measurement(ensemble)
            result = usd_success(ensemble, measurement)
            assert result.unambiguous, (d, eps)
            assert abs(result.success - (1 - eps)) < 1e-8, (d, eps)
            p_sp = projective_simulable_optimum(ensemble)
            assert p_sp <= 1 / d + 1e-12, (d, eps)
            ratio = result.success / p_sp
            assert d * (1 - eps) - 1e-9 <= ratio <= d + 1e-9, (d, eps, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"symmetric bands took {elapsed:.1f}s"
    _report(5, "symmetric-ensemble advantage bands")


def test_criterion_6_random_ensemble_bands():
    start = time.perf_counter()
    experiment = random_ensemble_experiment(50, 100, trials=200, seed=2718)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"random-ensemble experiment took {elapsed:.1f}s"
    d, dim = 50, 100
    assert (experiment.d, experiment.space_dim) == (d, dim)
    assert len(experiment.rows) == 200
    # Per trial only the provable band d * lambda_min <= ratio <= d holds;
    # Tracy-Widom fluctuations take some trials below the spectral edge.
    for row in experiment.rows:
        ratio_lower = row["ratio_lower"]
        assert row["ratio_upper"] == d, row
        assert ratio_lower == pytest.approx(d * row["lambda_min"], rel=1e-12), row
        assert 0 < ratio_lower <= row["ratio_upper"] + 1e-9, row
    assert experiment.band_ok
    # Mean lambda_min: Marchenko-Pastur lower edge (1 - sqrt(gamma))^2 plus
    # the finite-size Tracy-Widom shift of the smallest eigenvalue
    # (Feldheim & Sodin 2010); 1.7711 = -E[TW_2].
    gamma = d / dim
    edge = (1 - np.sqrt(gamma)) ** 2
    shift = (1.7711 * (np.sqrt(dim) - np.sqrt(d))
             * (1 / np.sqrt(d) - 1 / np.sqrt(dim)) ** (1 / 3) / dim)
    target = edge + shift
    assert abs(experiment.mean_lambda_min - target) <= 0.15 * target, (
        f"mean lambda_min {experiment.mean_lambda_min:.4f} vs target {target:.4f}")
    _report(6, "random-ensemble advantage bands")


def test_criterion_7_tomography_round_trip(all_fixture_povms):
    probes = probe_states()
    for name, povm in all_fixture_povms.items():
        # exact statistics
        recon = reconstruct_povm(TomographyRecord.from_born(povm))
        for got, want in zip(recon.effects, povm.effects):
            assert np.max(np.abs(got - want)) < 1e-10, name
        # finite statistics: every reconstructed entry within its 5-sigma
        # band propagated through the (linear) inversion
        shots = 100_000
        rng = np.random.default_rng(hash(name) % 2**32)
        table = []
        for state in probes:
            p = born_probabilities(state, povm)
            table.append(rng.multinomial(shots, p) / shots)
        table = np.array(table)
        recon = reconstruct_povm(TomographyRecord(table))
        for i, want in enumerate(povm.effects):
            p = np.array([np.vdot(s.vector, want @ s.vector).real for s in probes])
            v = p * (1 - p) / shots  # per-probe frequency variances
            got = recon.effects[i]
            checks = [
                (got[0, 0].real - want[0, 0].real, v[0]),
                (got[1, 1].real - want[1, 1].real, v[1]),
                (got[0, 1].real - want[0, 1].real, v[2] + (v[0] + v[1]) / 4),
                (got[0, 1].imag - want[0, 1].imag, v[3] + (v[0] + v[1]) / 4),
            ]
            for delta, variance in checks:
                assert abs(delta) <= 5 * max(np.sqrt(variance), 1e-12), (name, i)
    _report(7, "tomography round trip")


def test_criterion_8_qualitative_table1_ordering(all_fixture_povms):
    start = time.perf_counter()
    noise = NOISE_PRESETS["ibmx4-like"]
    for name, povm in all_fixture_povms.items():
        for seed in range(5):
            result = compare_schemes(povm, noise, shots=50_000, seed=seed)
            assert result.postselection.distance < result.naimark.distance, (name, seed)
            if name == "trine":
                assert result.naimark.reconstruction.n_outcomes == 4
                residual = result.naimark.reconstruction.effects[3]
                assert np.trace(residual).real > 1e-3, seed
                assert result.postselection.reconstruction.n_outcomes == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"scheme comparison took {elapsed:.1f}s"
    _report(8, "qualitative noisy-device ordering")


def test_criterion_9_metric_and_invariant_suite(all_fixture_povms, trine):
    # POVM validity rejection
    with pytest.raises(InvariantViolation):
        Povm([np.eye(2) * 0.45, np.eye(2) * 0.45])
    with pytest.raises(InvariantViolation):
        Povm([np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])])

    # operational-distance metric axioms on the fixture triple
    ideal = all_fixture_povms["tetrahedral"]
    b = fixtures.reconstruction("tetrahedral", "postselection")
    c = fixtures.reconstruction("tetrahedral", "naimark")
    assert operational_distance(ideal, ideal) < 1e-12
    assert operational_distance(ideal, b) == pytest.approx(
        operational_distance(b, ideal), abs=1e-12)
    assert operational_distance(ideal, c) <= (operational_distance(ideal, b)
                                              + operational_distance(b, c) + 1e-12)

    # subset/complement symmetry for complete pairs
    from povmsim.core import operator_norm
    rng = np.random.default_rng(55)
    m = random_povm(2, 4, rng)
    n = random_povm(2, 4, rng)
    diffs = [x - y for x, y in zip(m.effects, n.effects)]
    for subset in ((0,), (1, 2), (0, 3)):
        comp = tuple(i for i in range(4) if i not in subset)
        assert operator_norm(sum(diffs[i] for i in subset)) == pytest.approx(
            operator_norm(sum(diffs[i] for i in comp)), abs=1e-12)

    # bias mitigation is neutral on unbiased data
    record = TomographyRecord.from_born(trine)
    table = np.hstack([record.frequencies, np.zeros((4, 1))])
    variants = {mask: TomographyRecord(table[:, [i ^ mask for i in range(4)]])
                for mask in range(4)}
    mitigated = bias_mitigated_statistics(variants)
    assert np.max(np.abs(mitigated.frequencies - table)) < 1e-12

    # determinism under fixed seeds
    state = QuantumState.maximally_mixed(2)
    scheme = postselection_scheme(trine)
    r1 = sample_postselection(scheme, state, 20_000, seed=77)
    r2 = sample_postselection(scheme, state, 20_000, seed=77)
    assert np.array_equal(r1.counts(), r2.counts())
    c1 = compare_schemes(trine, NOISE_PRESETS["ibmx4-like"], shots=5_000, seed=4)
    c2 = compare_schemes(trine, NOISE_PRESETS["ibmx4-like"], shots=5_000, seed=4)
    assert c1.naimark.distance == c2.naimark.distance
    assert c1.postselection.distance == c2.postselection.distance
    _report(9, "metric and invariant suite")
