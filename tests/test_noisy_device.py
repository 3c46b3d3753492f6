import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim.core import (
    PAULI_X,
    InvariantViolation,
    QuantumState,
    born_probabilities,
    haar_random_unitary,
    pauli_eigenstates,
    random_rank_one_povm,
)
from povmsim.naimark import dilated_statistics, naimark_dilation
from povmsim.noisy_device import (
    DECOMPOSITION_ATOL,
    MAX_SHOTS,
    Circuit,
    NoiseModel,
    _evolve,
    _mitigated_record,
    _phase_distance,
    _readout,
    _sequence_unitary,
    compare_schemes,
    compile_naimark_circuit,
    compile_postselection_circuit,
    depolarize,
    exact_output_distribution,
    naimark_tomography,
    postselection_tomography,
    proportional_shot_allocation,
    run_shots,
    two_qubit_gate_sequence,
)
from povmsim.simulation import postselection_scheme
from povmsim.tomography import operational_distance, probe_states

_CNOTS = {(0, 1): np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
          (1, 0): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])}
_HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
# (kind, qubits) of each decomposition's gates by CNOT count: SU(2) layers on
# both qubits open and close every form, and the noise model charges each gate
_SU2_LAYER = [("su2", (0,)), ("su2", (1,))]
_GATE_LAYOUTS = {
    0: _SU2_LAYER,
    1: [*_SU2_LAYER, ("cnot", (0, 1)), *_SU2_LAYER],
    2: [*_SU2_LAYER, ("cnot", (1, 0)), *_SU2_LAYER, ("cnot", (1, 0)), *_SU2_LAYER],
    3: [*_SU2_LAYER, ("cnot", (1, 0)), *_SU2_LAYER, ("cnot", (0, 1)), ("su2", (1,)),
        ("cnot", (1, 0)), *_SU2_LAYER],
}


def _reference_depolarize(rho, p, qubits, n_qubits):
    """The channel on one density matrix, with np.kron re-tensoring."""
    if len(qubits) == n_qubits:
        return (1 - p) * rho + p * np.trace(rho) * np.eye(2 ** n_qubits) / 2 ** n_qubits
    t = rho.reshape(2, 2, 2, 2)
    if qubits == (0,):
        mixed = np.kron(np.eye(2) / 2, np.trace(t, axis1=0, axis2=2))
    else:
        mixed = np.kron(np.trace(t, axis1=1, axis2=3), np.eye(2) / 2)
    return (1 - p) * rho + p * mixed


def _reference_distribution(circuit, rho, noise):
    """The former simulator: one probe, one full-register gate at a time,
    and the readout confusion built one qubit at a time."""
    n = circuit.n_qubits
    for gate in circuit.gates:
        if gate.kind == "cnot":
            u, p = _CNOTS[gate.qubits], noise.cnot_depolarizing
        else:
            ops = [np.eye(2)] * n
            ops[gate.qubits[0]] = gate.matrix
            u, p = (ops[0] if n == 1 else np.kron(*ops)), noise.su2_depolarizing
        rho = _reference_depolarize(u @ rho @ u.conj().T, p, gate.qubits, n)
    diag = np.clip(np.diag(rho).real, 0.0, None)
    probs = diag / diag.sum()
    b = noise.readout_bias
    confusion = np.array([[1.0]])
    for _ in range(n):
        confusion = np.kron(confusion, [[1.0, b], [0.0, 1.0 - b]])
    return confusion @ probs


def _flipped(circuit, mask):
    """The variant with x gates on the qubits whose outcome bit is set in mask."""
    n = circuit.n_qubits
    flipped = Circuit(n, list(circuit.gates))
    for q in range(n):
        if mask >> (n - 1 - q) & 1:
            flipped.x(q)
    return flipped


def _exact_mitigated(circuit, rhos, noise):
    """Average over flip masks of the relabelled exact distributions."""
    k = 2 ** circuit.n_qubits
    table = np.zeros((len(rhos), k))
    for mask in range(k):
        flipped = _flipped(circuit, mask)
        for p, rho in enumerate(rhos):
            table[p, np.arange(k) ^ mask] += _reference_distribution(flipped, rho, noise)
    return table / k


@st.composite
def _noisy_circuits(draw):
    n = draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = Circuit(n)
    for kind in draw(st.lists(st.sampled_from(("su2", "h", "cnot")), max_size=8)):
        q = int(rng.integers(n))
        if kind == "su2":
            circuit.su2(q, haar_random_unitary(2, rng))
        elif kind == "h":
            circuit.su2(q, _HADAMARD)
        elif n == 2:
            circuit.cnot(q, 1 - q)
    probability = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    noise = NoiseModel(draw(probability), draw(probability), draw(probability))
    a = rng.standard_normal((3, 2 ** n, 2 ** n)) + 1j * rng.standard_normal((3, 2 ** n, 2 ** n))
    rhos = a @ a.conj().swapaxes(1, 2)
    return circuit, noise, rhos / np.trace(rhos, axis1=1, axis2=2)[:, None, None]


class TestNoiseModel:
    def test_parameter_range(self):
        with pytest.raises(ValueError):
            NoiseModel(cnot_depolarizing=1.2)
        with pytest.raises(ValueError):
            NoiseModel(readout_bias=-0.1)

    def test_presets(self):
        preset = NoiseModel.preset("ibmx4-like")
        assert preset.cnot_depolarizing == 0.05
        assert NoiseModel.preset("noiseless") == NoiseModel()
        with pytest.raises(KeyError):
            NoiseModel.preset("bogus")


class TestDepolarizingChannel:
    def test_full_register_formula(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        p = 0.3
        out = depolarize(rho, p, (0, 1), 2)
        want = (1 - p) * rho + p * np.eye(4) / 4
        assert np.max(np.abs(out - want)) < 1e-12
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_single_qubit_marginal(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.25, 0.75])).astype(complex)
        out = depolarize(rho, 1.0, (0,), 2)
        want = np.kron(np.eye(2) / 2, np.diag([0.25, 0.75]))
        assert np.max(np.abs(out - want)) < 1e-12

    def test_trace_preserved(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        for qubits in ((0,), (1,), (0, 1)):
            out = depolarize(rho, 0.7, qubits, 2)
            assert abs(np.trace(out) - 1.0) < 1e-12


class TestPostselectionCircuit:
    def test_zero_state_gives_identity(self):
        circuit = compile_postselection_circuit([1, 0])
        assert np.max(np.abs(circuit.unitary() - np.eye(2))) < 1e-12

    def test_x_plus_reads_zero(self):
        s = 1 / np.sqrt(2)
        circuit = compile_postselection_circuit([s, s])
        probs = exact_output_distribution(circuit, QuantumState.pure([s, s]),
                                          NoiseModel())
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_component_statistics_match_born(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        probe = pauli_eigenstates()[4]  # |y+>
        for k in range(scheme.n_components):
            circuit = compile_postselection_circuit(scheme.states[k])
            probs = exact_output_distribution(circuit, probe, NoiseModel())
            proj = np.outer(scheme.states[k], scheme.states[k].conj())
            want = np.vdot(probe.vector, proj @ probe.vector).real
            assert probs[0] == pytest.approx(want, abs=1e-12)

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError):
            compile_postselection_circuit([1, 0, 0])


class TestTwoQubitDecomposition:
    def test_identity_needs_no_cnots(self):
        gates = two_qubit_gate_sequence(np.eye(4))
        assert sum(1 for g in gates if g.kind == "cnot") == 0

    def test_swap_needs_three_cnots(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=complex)
        gates = two_qubit_gate_sequence(swap)
        assert sum(1 for g in gates if g.kind == "cnot") == 3
        assert _phase_distance(_sequence_unitary(gates), swap) < 1e-8

    def test_random_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            u = haar_random_unitary(4, rng)
            gates = two_qubit_gate_sequence(u)
            assert sum(1 for g in gates if g.kind == "cnot") <= 3
            assert _phase_distance(_sequence_unitary(gates), u) < 1e-8

    def test_local_unitaries(self):
        rng = np.random.default_rng(8)
        u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        gates = two_qubit_gate_sequence(u)
        assert sum(1 for g in gates if g.kind == "cnot") == 0
        assert _phase_distance(_sequence_unitary(gates), u) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            two_qubit_gate_sequence(np.ones((4, 4)))

    @pytest.mark.parametrize("cnots", [0, 1, 2, 3], ids=["local", "one_cnot", "two_cnots", "haar"])
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_minimal_cnot_count_up_to_phase(self, cnots, seed):
        # local unitaries around `cnots` CNOTs; a Haar unitary needs three
        rng = np.random.default_rng(seed)
        if cnots == 3:
            u = haar_random_unitary(4, rng)
        else:
            circuit = Circuit(2)
            for k in range(cnots + 1):
                if k:
                    circuit.cnot(0, 1)
                circuit.su2(0, haar_random_unitary(2, rng)).su2(1, haar_random_unitary(2, rng))
            u = circuit.unitary()
        gates = two_qubit_gate_sequence(u)
        assert [(g.kind, g.qubits) for g in gates] == _GATE_LAYOUTS[cnots]
        assert _phase_distance(_sequence_unitary(gates), u) <= DECOMPOSITION_ATOL


class TestNaimarkCircuit:
    def test_trine_circuit_matches_dilated_statistics(self, trine):
        dilation = naimark_dilation(trine)
        circuit = compile_naimark_circuit(dilation)
        for probe in pauli_eigenstates():
            want = dilated_statistics(dilation, probe)
            # ancilla = qubit 0 in |0>, system = qubit 1
            state = QuantumState.pure(np.kron([1, 0], probe.vector))
            got = exact_output_distribution(circuit, state, NoiseModel())
            assert np.max(np.abs(got[:3] - want)) < 1e-9
            assert got[3] < 1e-9  # the padding outcome

    def test_fixture_circuits_keep_their_cnot_counts(self, all_fixture_povms):
        circuits = {name: compile_naimark_circuit(naimark_dilation(povm))
                    for name, povm in all_fixture_povms.items()}
        counts = {name: circuit.cnot_count for name, circuit in circuits.items()}
        assert counts == {"tetrahedral": 3, "trine": 2, "random4": 3}
        for name, circuit in circuits.items():
            assert [(g.kind, g.qubits) for g in circuit.gates] == _GATE_LAYOUTS[counts[name]]

    def test_identity_dilation_keeps_ancilla(self):
        circuit = Circuit(2)  # empty gate list
        probs = exact_output_distribution(circuit, QuantumState.pure([0, 0, 1, 0]),
                                          NoiseModel())
        assert probs[2] == pytest.approx(1.0)

    def test_two_outcome_povm_compiles_and_matches_born(self):
        povm = random_rank_one_povm(2, 2, 0)
        dilation = naimark_dilation(povm)
        assert dilation.unitary.shape == (2, 2)
        circuit = compile_naimark_circuit(dilation)  # pads the 2x2 into the 4x4 register
        assert circuit.n_qubits == 2
        for probe in pauli_eigenstates():
            state = QuantumState.pure(np.kron([1, 0], probe.vector))
            got = exact_output_distribution(circuit, state, NoiseModel())
            assert np.max(np.abs(got[:2] - born_probabilities(probe, povm))) < 1e-9
            assert np.max(got[2:]) < 1e-9

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_compiled_register_matches_born(self, n, seed):
        # the register layout in one place: ancilla = qubit 0 in |0>, system
        # = qubit 1, register outcome i = logical outcome i, the rest padding
        povm = random_rank_one_povm(2, n, seed)
        circuit = compile_naimark_circuit(naimark_dilation(povm))
        for probe in probe_states():
            state = QuantumState.pure(np.kron([1, 0], probe.vector))
            got = exact_output_distribution(circuit, state, NoiseModel())
            assert np.max(np.abs(got[:n] - born_probabilities(probe, povm))) <= 1e-9
            assert np.max(got[n:], initial=0.0) <= 1e-9


class TestRunShots:
    def test_noiseless_five_sigma(self, trine):
        circuit = compile_naimark_circuit(naimark_dilation(trine))
        vec = np.zeros(4, dtype=complex)
        vec[0] = 1.0
        state = QuantumState.pure(vec)
        shots = 1_000_000
        record = run_shots(circuit, state, NoiseModel(), shots, seed=3)
        p = exact_output_distribution(circuit, state, NoiseModel())
        freqs = record.counts()[:4] / shots
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(freqs - p) <= 5 * np.maximum(sigma, 1e-9))

    def test_full_bias_reads_zero(self):
        circuit = Circuit(1).x(0)  # ends in |1>
        record = run_shots(circuit, QuantumState.basis_state(2, 0),
                           NoiseModel(readout_bias=1.0), 1000, seed=0)
        assert np.array_equal(record.counts(), [1000, 0, 0])

    def test_full_depolarization_is_uniform(self):
        circuit = Circuit(2).cnot(0, 1)
        record = run_shots(circuit, QuantumState.pure([1, 0, 0, 0]),
                           NoiseModel(cnot_depolarizing=1.0), 400_000, seed=5)
        freqs = record.counts()[:4] / record.shots
        sigma = np.sqrt(0.25 * 0.75 / record.shots)
        assert np.all(np.abs(freqs - 0.25) <= 5 * sigma)

    def test_determinism(self):
        circuit = Circuit(1).su2(0, PAULI_X)
        a = run_shots(circuit, QuantumState.basis_state(2, 0),
                      NoiseModel(readout_bias=0.3), 2000, seed=11)
        b = run_shots(circuit, QuantumState.basis_state(2, 0),
                      NoiseModel(readout_bias=0.3), 2000, seed=11)
        assert np.array_equal(a.counts(), b.counts())


class TestExperimentPlan:
    def test_round_trip_keys(self):
        from povmsim.noisy_device import load_experiment_plan
        plan = load_experiment_plan({"povm_fixture": "trine", "scheme": "both",
                                     "noise.cnot": 0.05, "noise.su2": 0.001,
                                     "noise.readout_bias": 0.02,
                                     "shots": 1000, "seed": 3})
        assert plan.noise == NoiseModel(0.05, 0.001, 0.02)
        assert plan.shots == 1000

    def test_unknown_key_rejected(self):
        from povmsim.noisy_device import load_experiment_plan
        with pytest.raises(ValueError, match="unknown plan keys"):
            load_experiment_plan({"noise.cx": 0.1})

    def test_shots_bounded_by_the_int64_samplers(self):
        from povmsim.noisy_device import load_experiment_plan
        assert load_experiment_plan({"shots": MAX_SHOTS}).shots == MAX_SHOTS
        with pytest.raises(ValueError, match="plan key 'shots'"):
            load_experiment_plan({"shots": MAX_SHOTS + 1})


class TestShotAllocation:
    def test_uniform_weights_hit_cap(self):
        assert np.array_equal(proportional_shot_allocation([0.5] * 4, 8192),
                              [8192] * 4)

    def test_linear_rule(self):
        assert np.array_equal(proportional_shot_allocation([1.0, 0.5], 8192),
                              [8192, 4096])

    def test_published_formula(self):
        got = proportional_shot_allocation([0.7, 0.2, 0.3, 0.8], 8192)
        assert np.array_equal(got, [7168, 2048, 3072, 8192])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            proportional_shot_allocation([], 10)

    def test_small_weight_may_round_to_zero(self):
        # the floor of one run is applied by postselection_tomography, not here
        assert np.array_equal(proportional_shot_allocation([1.0, 0.01], 10), [10, 0])

    @pytest.mark.parametrize("cap", [MAX_SHOTS, MAX_SHOTS - 511])
    def test_rounding_stays_inside_int64(self, cap):
        # float(cap) is 2**63: without a stop the largest weight's count
        # would wrap around to -2**63
        got = proportional_shot_allocation([1.0, 1.0 - 1e-16, 0.5, 1e-300], cap)
        assert got.dtype == np.int64
        assert np.all(got >= 0) and np.all(got <= MAX_SHOTS)
        assert got[0] == MAX_SHOTS - 1023  # the largest float below 2**63
        assert got[2] == 2 ** 62 and got[3] == 0


class TestPipelines:
    def test_noiseless_tomography_recovers_povm(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        result = postselection_tomography(scheme, NoiseModel(),
                                          cap=200_000, seed=2)
        assert operational_distance(tetrahedral, result.reconstruction) < 0.01
        assert abs(result.postselection_fraction - 0.5) < 0.01

    def test_noiseless_naimark_recovers_povm(self, trine):
        result = naimark_tomography(trine, NoiseModel(), cap=200_000, seed=2)
        assert operational_distance(trine, result.reconstruction) < 0.01
        assert result.residual_mass < 1e-6  # padding outcome silent without noise

    def test_noisy_trine_residual_effect(self, trine):
        result = naimark_tomography(trine, NoiseModel.preset("ibmx4-like"),
                                    cap=100_000, seed=4)
        assert result.reconstruction.n_outcomes == 4
        assert result.residual_mass > 0.01

    def test_postselection_keeps_three_outcomes(self, trine):
        scheme = postselection_scheme(trine)
        result = postselection_tomography(scheme, NoiseModel.preset("ibmx4-like"),
                                          cap=100_000, seed=4)
        assert result.reconstruction.n_outcomes == 3

    def test_low_cap_run_counts(self, random4):
        # at cap 1 the random4 weights round to [0, 0, 1, 1]: every
        # component still runs once
        scheme = postselection_scheme(random4)
        noise = NoiseModel.preset("noiseless")
        per_run = 2 * len(probe_states())
        block = postselection_tomography(scheme, noise, cap=1, seed=5)
        assert block.shots_total == per_run * 4

    def test_bias_mitigation_restores_half_postselection(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        noise = NoiseModel(readout_bias=0.1)
        result = postselection_tomography(scheme, noise, cap=200_000, seed=3)
        assert abs(result.postselection_fraction - 0.5) < 0.01


class TestCompareSchemes:
    def test_noiseless_distances_shrink_with_shots(self, tetrahedral):
        noise = NoiseModel()
        small = compare_schemes(tetrahedral, noise, shots=4_000, seed=1)
        large = compare_schemes(tetrahedral, noise, shots=400_000, seed=1)
        expected = np.sqrt(4_000 / 400_000)
        for lo, hi in ((large.d_op_postselection, small.d_op_postselection),
                       (large.d_op_naimark, small.d_op_naimark)):
            assert lo < hi
            assert lo / hi < expected * 3  # ~ 1/sqrt(shots) within a factor 3

    def test_deterministic_outputs(self, trine):
        noise = NoiseModel.preset("ibmx4-like")
        a = compare_schemes(trine, noise, shots=20_000, seed=21)
        b = compare_schemes(trine, noise, shots=20_000, seed=21)
        assert a.d_op_postselection == b.d_op_postselection
        assert a.d_op_naimark == b.d_op_naimark

    def test_ordering_under_preset_noise(self, random4):
        result = compare_schemes(random4, NoiseModel.preset("ibmx4-like"),
                                 shots=50_000, seed=2)
        assert result.d_op_postselection < result.d_op_naimark


class TestBatchedEvolution:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=_noisy_circuits())
    def test_matches_per_probe_reference(self, case):
        circuit, noise, rhos = case
        n = circuit.n_qubits
        evolved = _evolve(circuit.gates, n, rhos, noise)
        for mask in range(2 ** n):
            flipped = _flipped(circuit, mask)
            flips = flipped.gates[len(circuit.gates):]
            got = _readout(_evolve(flips, n, evolved, noise), n, noise.readout_bias)
            assert got.shape == (len(rhos), 2 ** n)
            for p, rho in enumerate(rhos):
                want = _reference_distribution(flipped, rho, noise)
                assert np.max(np.abs(got[p] - want)) <= 1e-12

    def test_exact_distribution_is_a_row_of_the_batched_pass(self, trine):
        circuit = compile_naimark_circuit(naimark_dilation(trine))
        noise = NoiseModel.preset("ibmx4-like")
        states = [QuantumState.pure(np.kron([1, 0], p.vector)) for p in pauli_eigenstates()]
        rhos = np.stack([s.rho for s in states])
        batched = _readout(_evolve(circuit.gates, 2, rhos, noise), 2, noise.readout_bias)
        # a stack of one and a stack of six may take different matmul kernels
        for state, row in zip(states, batched):
            assert np.max(np.abs(exact_output_distribution(circuit, state, noise) - row)) <= 1e-15

    @pytest.mark.parametrize("diagonal", ([1 + 1e-3, -1e-3], [np.nan, 1.0]))
    def test_readout_rejects_a_diagonal_that_is_no_distribution(self, diagonal):
        rhos = np.stack([np.eye(2) / 2, np.diag(diagonal)]).astype(complex)
        with pytest.raises(InvariantViolation, match="probability positivity"):
            _readout(rhos, 1, 0.02)

    @pytest.mark.parametrize("two_qubit", (False, True))
    def test_mitigated_counts_five_sigma(self, trine, two_qubit):
        noise = NoiseModel(cnot_depolarizing=0.05, su2_depolarizing=0.01, readout_bias=0.1)
        if two_qubit:
            circuit = compile_naimark_circuit(naimark_dilation(trine))
            rhos = np.stack([np.kron(np.diag([1, 0]), p.rho) for p in probe_states()])
        else:
            circuit = compile_postselection_circuit([np.cos(0.4), np.exp(0.3j) * np.sin(0.4)])
            rhos = np.stack([p.rho for p in probe_states()])
        shots = 200_000
        got = _mitigated_record(circuit, rhos, noise, shots, np.random.default_rng(12))
        want = _exact_mitigated(circuit, rhos, noise)
        # an average of one multinomial frequency per flip variant: by
        # concavity its variance is at most p(1-p) / (variants * shots)
        sigma = np.sqrt(want * (1 - want) / (want.shape[1] * shots))
        assert np.all(np.abs(got.frequencies - want) <= 5 * np.maximum(sigma, 1e-9))

    def test_naimark_pipeline_five_sigma(self, trine):
        noise = NoiseModel.preset("ibmx4-like")
        circuit = compile_naimark_circuit(naimark_dilation(trine))
        shots = 100_000
        result = naimark_tomography(trine, noise, cap=shots, seed=5)
        # the ancilla is qubit 0, in |0>; register outcome i is logical outcome i
        rhos = np.stack([np.kron(np.diag([1, 0]), p.rho) for p in probe_states()])
        want = _exact_mitigated(circuit, rhos, noise)
        sigma = np.sqrt(want * (1 - want) / (4 * shots))  # as above, four variants
        got = result.record.frequencies
        assert np.all(np.abs(got - want) <= 5 * np.maximum(sigma, 1e-9))
