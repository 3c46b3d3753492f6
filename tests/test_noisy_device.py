import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim import noisy_device
from povmsim.core import (
    PAULI_X,
    InvariantViolation,
    QuantumState,
    born_probabilities,
    default_atol,
    haar_random_unitary,
    pauli_eigenstates,
    random_rank_one_povm,
)
from povmsim.naimark import dilated_statistics, naimark_dilation
from povmsim.noisy_device import (
    DECOMPOSITION_ATOL,
    MAX_SHOTS,
    NOISE_PRESETS,
    Circuit,
    NoiseModel,
    _evolve,
    _flip_variants,
    _kron,
    _mitigated,
    _phase_distance,
    _readout,
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
from povmsim.tomography import (
    PROBE_RHOS,
    TomographyRecord,
    bias_mitigated_statistics,
    operational_distance,
    probe_states,
    reconstruct_povm,
)

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


def _einsum_depolarize(rho, p, qubit):
    """The single-qubit channel on a two-qubit stack as np.trace and np.einsum
    with the maximally mixed qubit formed it."""
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    half_eye = np.eye(2) / 2
    if qubit == 0:
        mixed = np.einsum("ac,...bd->...abcd", half_eye, np.trace(t, axis1=-4, axis2=-2))
    else:
        mixed = np.einsum("...ac,bd->...abcd", np.trace(t, axis1=-3, axis2=-1), half_eye)
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


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
            flipped.su2(q, PAULI_X)
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


def _per_mask_record(circuit, rhos, noise, shots, rng):
    """The former mitigated record: each flip variant evolved, read out and
    drawn on its own, in mask order, then relabelled and averaged."""
    n = circuit.n_qubits
    evolved = _evolve(circuit.gates, n, rhos, noise)
    variants = {}
    for mask in range(2 ** n):
        flips = _flipped(circuit, mask).gates[len(circuit.gates):]
        probs = _readout(_evolve(flips, n, evolved, noise), n, noise.readout_bias)
        variants[mask] = TomographyRecord(rng.multinomial(shots, probs) / shots)
    return bias_mitigated_statistics(variants)


def _per_component_postselection(scheme, noise, cap, seed):
    """The former postselection route: one circuit and one mitigated record
    per component, in component order.  Returns the (probe, n + 1) table
    before postselection and the shot total."""
    n = scheme.target.n_outcomes
    alloc = np.maximum(proportional_shot_allocation(scheme.weights * scheme.target.dim, cap), 1)
    rng = np.random.default_rng(seed)
    table = np.zeros((len(PROBE_RHOS), n + 1))
    shots_total = 0
    for k, state in enumerate(scheme.states):
        shots_k = int(alloc[k])
        circuit = compile_postselection_circuit(state)
        mitigated = _per_mask_record(circuit, PROBE_RHOS, noise, shots_k, rng)
        table[:, scheme.parents[k]] += shots_k * mitigated.frequencies[:, 0]
        table[:, n] += shots_k * mitigated.frequencies[:, 1]
        shots_total += 2 * shots_k * len(PROBE_RHOS)
    table /= table.sum(axis=1, keepdims=True)
    return table, shots_total


def _unscreened_eigenbasis(s, mixing):
    """A mixing's real eigenbasis of the symmetric form s, kept whatever it
    leaves off the diagonal."""
    sym = s.real + mixing * s.imag if mixing != 0.0 else s.real
    _, p = np.linalg.eigh((sym + sym.T) / 2)
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    return p


def _unscreened_candidates(u, count, spectrum):
    """Every mixing's gate list, built from the decomposition's private helpers."""
    nd = noisy_device
    if count == 0:
        yield [nd.Gate("su2", (q,), f) for q, f in enumerate(nd._kron_factor(u))]
        return
    swapped = count != 2
    target = np.exp(1j * np.pi / 4) * nd._SWAP @ u if swapped else u
    interior = nd._interior(target, count, None if swapped else spectrum)
    v_inner = Circuit(2, interior).unitary()
    t = nd._MAGIC_DAG @ target @ nd._MAGIC
    v = nd._MAGIC_DAG @ (nd._SWAP @ v_inner if swapped else v_inner) @ nd._MAGIC
    for mixing in nd._MIXINGS:
        p, q = (_unscreened_eigenbasis(m @ m.T, mixing) for m in (t, v))
        g = p @ q.T
        a, b = nd._kron_factor(nd._MAGIC @ g @ nd._MAGIC_DAG)
        c, d = nd._kron_factor(nd._MAGIC @ (v.conj().T @ g.T @ t) @ nd._MAGIC_DAG)
        if swapped:
            a, b = b, a
        yield [nd.Gate("su2", (0,), c), nd.Gate("su2", (1,), d), *interior,
               nd.Gate("su2", (0,), a), nd.Gate("su2", (1,), b)]


def _unscreened_gate_sequence(unitary):
    """The first candidate whose full circuit unitary is the input, and how
    many candidates were built to find it."""
    u_in = np.asarray(unitary, dtype=complex)
    u = noisy_device._to_su4(u_in)
    canonical, spectrum = noisy_device._num_cnots(u)
    built = 0
    for count in dict.fromkeys((canonical, 3)):
        for gates in _unscreened_candidates(u, count, spectrum):
            built += 1
            if _phase_distance(Circuit(2, gates).unitary(), u_in) < DECOMPOSITION_ATOL:
                return gates, built
    raise AssertionError("no unscreened candidate verified")


def _register(povm):
    """The 4x4 register unitary compile_naimark_circuit decomposes."""
    dilation = naimark_dilation(povm)
    register = np.eye(4, dtype=complex)
    register[:dilation.n_outcomes, :dilation.n_outcomes] = dilation.unitary
    return register


def _assert_same_gates(got, want):
    """Gate lists equal bit for bit: kinds, qubits and matrix bytes."""
    assert [(g.kind, g.qubits) for g in got] == [(g.kind, g.qubits) for g in want]
    for g, w in zip(got, want):
        assert (g.matrix is None and w.matrix is None
                or g.matrix.dtype == w.matrix.dtype and g.matrix.tobytes() == w.matrix.tobytes())


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


_NOISE_MODELS = st.one_of(
    st.sampled_from((NoiseModel(), NoiseModel(readout_bias=0.1), NoiseModel(readout_bias=0.5),
                     NOISE_PRESETS["ibmx4-like"])),
    st.builds(NoiseModel, st.floats(0.0, 0.3), st.floats(0.0, 0.3), st.floats(0.0, 0.3)),
)
_CAPS = st.one_of(st.just(1), st.integers(1, 50), st.integers(1, 10 ** 6))
_ENTRIES = st.sampled_from((0.0, -0.0, 1.0, -1.0)) | st.floats(-1e100, 1e100)
# real and complex 2x2 factors, signed zeros included
_FACTORS = (st.lists(_ENTRIES, min_size=4, max_size=4)
            | st.lists(st.builds(complex, _ENTRIES, _ENTRIES), min_size=4, max_size=4)
            ).map(lambda v: np.array(v).reshape(2, 2))


class TestNoiseModel:
    def test_parameter_range(self):
        with pytest.raises(ValueError):
            NoiseModel(cnot_depolarizing=1.2)
        with pytest.raises(ValueError):
            NoiseModel(readout_bias=-0.1)

    def test_presets(self):
        assert NOISE_PRESETS["ibmx4-like"].cnot_depolarizing == 0.05
        assert NOISE_PRESETS["noiseless"] == NoiseModel()


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

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(lead=st.sampled_from(((), (3,), (2, 5))), qubit=st.sampled_from((0, 1)),
           p=st.sampled_from((1e-3, 0.05, 0.5, 1.0)) | st.floats(0.0, 1.0),
           dtype=st.sampled_from((complex, float)), share=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_single_qubit_kernel_is_the_einsum_form_bit_for_bit(self, lead, qubit, p, dtype,
                                                                share, seed):
        # exact zeros of both signs and the smallest subnormals in a share of
        # the entries: the signs of the zeros the kernel leaves must match too
        rng = np.random.default_rng(seed)
        parts = rng.standard_normal((2, *lead, 4, 4))
        hit = rng.random(parts.shape) < share
        parts[hit] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0], hit.sum())
        rho = np.empty((*lead, 4, 4), dtype=dtype)
        if dtype is complex:
            rho.real, rho.imag = parts
        else:
            rho[...] = parts[0]
        got, want = depolarize(rho, p, (qubit,), 2), _einsum_depolarize(rho, p, qubit)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("direction", [[0, 0], [1e-200, 0], [1e-160, 0], [1e200, 1e200]],
                             ids=["zero", "underflow", "subnormal", "overflow"])
    def test_norm_out_of_range_is_rejected_without_a_warning(self, direction):
        # warnings are errors here, so a divide or overflow warning would fail first
        with pytest.raises(ValueError, match="non-zero norm in float range") as info:
            compile_postselection_circuit(direction)
        assert not isinstance(info.value, InvariantViolation)


class TestTwoQubitDecomposition:
    def test_identity_needs_no_cnots(self):
        gates = two_qubit_gate_sequence(np.eye(4))
        assert sum(1 for g in gates if g.kind == "cnot") == 0

    def test_swap_needs_three_cnots(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=complex)
        gates = two_qubit_gate_sequence(swap)
        assert sum(1 for g in gates if g.kind == "cnot") == 3
        assert _phase_distance(Circuit(2, gates).unitary(), swap) < 1e-8

    def test_random_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            u = haar_random_unitary(4, rng)
            gates = two_qubit_gate_sequence(u)
            assert sum(1 for g in gates if g.kind == "cnot") <= 3
            assert _phase_distance(Circuit(2, gates).unitary(), u) < 1e-8

    def test_local_unitaries(self):
        rng = np.random.default_rng(8)
        u = np.kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
        gates = two_qubit_gate_sequence(u)
        assert sum(1 for g in gates if g.kind == "cnot") == 0
        assert _phase_distance(Circuit(2, gates).unitary(), u) < 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            two_qubit_gate_sequence(np.ones((4, 4)))

    def test_each_cnot_count_is_tried_once(self, monkeypatch):
        attempts = []

        def no_candidates(u, count, spectrum):
            attempts.append(count)
            return iter(())

        monkeypatch.setattr(noisy_device, "_candidates", no_candidates)
        u = haar_random_unitary(4, np.random.default_rng(3))  # canonical count 3
        with pytest.raises(RuntimeError, match="two-qubit decomposition failed"):
            two_qubit_gate_sequence(u)
        assert attempts == [3]

    def test_two_cnot_spectrum_is_computed_once(self, monkeypatch):
        rng = np.random.default_rng(2)
        circuit = Circuit(2).su2(0, haar_random_unitary(2, rng)).su2(1, haar_random_unitary(2, rng))
        for _ in range(2):
            circuit.cnot(0, 1).su2(0, haar_random_unitary(2, rng))
            circuit.su2(1, haar_random_unitary(2, rng))
        calls, eigvals = [], np.linalg.eigvals

        def counting(a):
            calls.append(a)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        gates = two_qubit_gate_sequence(circuit.unitary())
        assert sum(1 for g in gates if g.kind == "cnot") == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["fixtures", "registers", "haar", "cnot_groups"])
    def test_gate_lists_are_the_unscreened_loop_bit_for_bit(self, case, all_fixture_povms):
        # the screen skips only candidates that cannot verify, and the one
        # check of each product accepts what the full circuit unitary accepts
        rng = np.random.default_rng(37)
        if case == "fixtures":
            unitaries = [_register(povm) for povm in all_fixture_povms.values()]
        elif case == "registers":
            unitaries = [_register(random_rank_one_povm(2, 2 + seed % 3, seed))
                         for seed in range(400)]
        elif case == "haar":
            unitaries = [haar_random_unitary(4, rng) for _ in range(200)]
        else:
            unitaries = [np.eye(4), _CNOTS[(0, 1)] @ _CNOTS[(1, 0)]]
            for k in range(100):
                circuit = Circuit(2)
                for _ in range(k % 4):
                    circuit.su2(0, haar_random_unitary(2, rng)).su2(1, haar_random_unitary(2, rng))
                    circuit.cnot(k % 2, 1 - k % 2)
                unitaries.append(circuit.su2(0, haar_random_unitary(2, rng)).unitary())
        for u in unitaries:
            want, _ = _unscreened_gate_sequence(u)
            _assert_same_gates(two_qubit_gate_sequence(u), want)

    def test_trine_builds_one_candidate(self, trine, monkeypatch):
        # at mixing 1.0 the real mixture of trine's form repeats an eigenvalue
        # the form does not, so the unscreened loop builds and fails that
        # candidate first; the screen skips it before it is built
        dilation = naimark_dilation(trine)
        want, built = _unscreened_gate_sequence(_register(trine))
        assert built == 2
        yielded, candidates = [], noisy_device._candidates

        def counting(u, count, spectrum):
            for candidate in candidates(u, count, spectrum):
                yielded.append(count)
                yield candidate

        monkeypatch.setattr(noisy_device, "_candidates", counting)
        _assert_same_gates(compile_naimark_circuit(dilation).gates, want)
        assert yielded == [2]

    def test_a_wrong_candidate_is_skipped_for_a_right_one(self, monkeypatch):
        u = haar_random_unitary(4, np.random.default_rng(4))
        right = two_qubit_gate_sequence(u)
        candidates = noisy_device._candidates

        def wrong_first(u, count, spectrum):
            wrong = [noisy_device.Gate("su2", (0,), PAULI_X), *right]
            yield wrong, Circuit(2, wrong).unitary()
            yield from candidates(u, count, spectrum)

        monkeypatch.setattr(noisy_device, "_candidates", wrong_first)
        gates = two_qubit_gate_sequence(u)
        assert [(g.kind, g.qubits) for g in gates] == [(g.kind, g.qubits) for g in right]
        assert all(g.kind == "cnot" or np.array_equal(g.matrix, r.matrix)
                   for g, r in zip(gates, right))

    def test_only_wrong_candidates_fail(self, monkeypatch):
        attempts = []

        def wrong(u, count, spectrum):
            attempts.append(count)
            for qubit in (0, 1):
                gates = [noisy_device.Gate("su2", (qubit,), PAULI_X)]
                yield gates, Circuit(2, gates).unitary()

        monkeypatch.setattr(noisy_device, "_candidates", wrong)
        with pytest.raises(RuntimeError, match="two-qubit decomposition failed"):
            two_qubit_gate_sequence(np.eye(4))  # canonical count 0
        assert attempts == [0, 3]

    @pytest.mark.parametrize("groups", [[], [[(0, 1)]], [[(0, 1)], [(0, 1)]], None,
                                        [[(0, 1), (1, 0)]]],
                             ids=["local", "one_cnot", "two_cnots", "haar", "adjacent_cnots"])
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_minimal_cnot_count_up_to_phase(self, groups, seed):
        # local unitaries around each group of adjacent CNOTs; a Haar unitary
        # needs three.  CNOT(0, 1) CNOT(1, 0) takes the S (x) sqrt(X) interior.
        rng = np.random.default_rng(seed)
        if groups is None:
            u, cnots = haar_random_unitary(4, rng), 3
        else:
            def local(c):
                return c.su2(0, haar_random_unitary(2, rng)).su2(1, haar_random_unitary(2, rng))

            circuit = local(Circuit(2))
            for group in groups:
                for control, target in group:
                    circuit.cnot(control, target)
                local(circuit)
            u, cnots = circuit.unitary(), sum(map(len, groups))
        gates = two_qubit_gate_sequence(u)
        assert [(g.kind, g.qubits) for g in gates] == _GATE_LAYOUTS[cnots]
        assert _phase_distance(Circuit(2, gates).unitary(), u) <= DECOMPOSITION_ATOL


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
    @pytest.mark.parametrize("qubit", [0.5, 1.5, True, 2, -1])
    def test_qubit_index_must_be_an_integer_in_range(self, qubit):
        with pytest.raises(ValueError, match=f"qubit {qubit!r} is not in 0..1"):
            Circuit(2).su2(qubit, PAULI_X)
        with pytest.raises(ValueError, match=f"qubit {qubit!r} is not in 0..1"):
            Circuit(2).cnot(0, qubit)

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
        circuit = Circuit(1).su2(0, PAULI_X)  # ends in |1>
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

    def test_unknown_fixture_rejected(self):
        from povmsim.noisy_device import load_experiment_plan
        with pytest.raises(ValueError, match="unknown povm_fixture 'nope'; available: tetrahedral"):
            load_experiment_plan({"povm_fixture": "nope"})

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

    @pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.inf], [np.inf, np.inf],
                                         [0.5, -np.inf]])
    def test_non_finite_weights_rejected(self, weights):
        # rint of a NaN or infinite ratio casts to the count -2**63
        with pytest.raises(ValueError, match="weights must be positive"):
            proportional_shot_allocation(weights, 10)

    def test_largest_float_weights_do_not_overflow(self):
        # cap * w overflowed to inf here, which rint and the int64 stop
        # turned into 2**63 - 1024 per entry, with a RuntimeWarning
        assert np.array_equal(proportional_shot_allocation([1e308, 1e308], 10), [10, 10])

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
        result = naimark_tomography(trine, NOISE_PRESETS["ibmx4-like"],
                                    cap=100_000, seed=4)
        assert result.reconstruction.n_outcomes == 4
        assert result.residual_mass > 0.01

    def test_postselection_keeps_three_outcomes(self, trine):
        scheme = postselection_scheme(trine)
        result = postselection_tomography(scheme, NOISE_PRESETS["ibmx4-like"],
                                          cap=100_000, seed=4)
        assert result.reconstruction.n_outcomes == 3

    def test_low_cap_run_counts(self, random4):
        # at cap 1 the random4 weights round to [0, 0, 1, 1]: every
        # component still runs once
        scheme = postselection_scheme(random4)
        noise = NOISE_PRESETS["noiseless"]
        per_run = 2 * len(probe_states())
        block = postselection_tomography(scheme, noise, cap=1, seed=5)
        assert block.shots_total == per_run * 4

    def test_bias_mitigation_restores_half_postselection(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        noise = NoiseModel(readout_bias=0.1)
        result = postselection_tomography(scheme, noise, cap=200_000, seed=3)
        assert abs(result.postselection_fraction - 0.5) < 0.01

    def test_shot_total_is_the_exact_sum_at_max_shots(self, tetrahedral):
        # each of the four run counts is near 2**63, so an int64 sum would wrap
        scheme = postselection_scheme(tetrahedral)
        alloc = proportional_shot_allocation(scheme.weights * scheme.target.dim, MAX_SHOTS)
        result = postselection_tomography(scheme, NoiseModel(), cap=MAX_SHOTS, seed=4)
        assert result.shots_total == 2 * len(probe_states()) * sum(int(a) for a in alloc)
        assert result.shots_total > 2 * MAX_SHOTS

    @pytest.mark.parametrize("cap", (0, -3))
    def test_naimark_cap_below_one_rejected(self, trine, cap):
        with pytest.raises(ValueError, match="shots must be an integer of at least 1"):
            naimark_tomography(trine, NoiseModel(), cap, seed=1)

    @pytest.mark.parametrize("cap", (1, 1000))
    def test_full_readout_bias_reads_every_variant_as_zero(self, cap):
        # each variant reads all-0, so the relabelled average is uniform;
        # unclipped, the two-qubit confusion rounded this POVM's rows above 1
        povm = random_rank_one_povm(2, 4, 1)
        noise = NoiseModel(readout_bias=1.0)
        naimark = naimark_tomography(povm, noise, cap, seed=0)
        assert np.all(naimark.record.frequencies == 0.25)
        post = postselection_tomography(postselection_scheme(povm), noise, cap, seed=0)
        assert post.postselection_fraction == 0.5


class TestCompareSchemes:
    def test_noiseless_distances_shrink_with_shots(self, tetrahedral):
        noise = NoiseModel()
        small = compare_schemes(tetrahedral, noise, shots=4_000, seed=1)
        large = compare_schemes(tetrahedral, noise, shots=400_000, seed=1)
        expected = np.sqrt(4_000 / 400_000)
        for lo, hi in ((large.postselection.distance, small.postselection.distance),
                       (large.naimark.distance, small.naimark.distance)):
            assert lo < hi
            assert lo / hi < expected * 3  # ~ 1/sqrt(shots) within a factor 3

    def test_deterministic_outputs(self, trine):
        noise = NOISE_PRESETS["ibmx4-like"]
        a = compare_schemes(trine, noise, shots=20_000, seed=21)
        b = compare_schemes(trine, noise, shots=20_000, seed=21)
        assert a.postselection.distance == b.postselection.distance
        assert a.naimark.distance == b.naimark.distance

    def test_ordering_under_preset_noise(self, random4):
        result = compare_schemes(random4, NOISE_PRESETS["ibmx4-like"],
                                 shots=50_000, seed=2)
        assert result.postselection.distance < result.naimark.distance


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

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(case=_noisy_circuits())
    def test_flip_variants_equal_the_per_mask_pass(self, case):
        # variant `mask` of the doubled stack is bit for bit the variant
        # evolved and read out on its own
        circuit, noise, rhos = case
        n = circuit.n_qubits
        evolved = _evolve(circuit.gates, n, rhos, noise)
        variants = _flip_variants(evolved, n, noise)
        assert variants.shape == (2 ** n, len(rhos), 2 ** n)
        for mask in range(2 ** n):
            flips = _flipped(circuit, mask).gates[len(circuit.gates):]
            want = _readout(_evolve(flips, n, evolved, noise), n, noise.readout_bias)
            assert variants[mask].tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(a=_FACTORS, b=_FACTORS)
    def test_kron_is_np_kron_bit_for_bit(self, a, b):
        got, want = _kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == (4, 4)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))

    def test_exact_distribution_is_a_row_of_the_batched_pass(self, trine):
        circuit = compile_naimark_circuit(naimark_dilation(trine))
        noise = NOISE_PRESETS["ibmx4-like"]
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

    @pytest.mark.parametrize("n_qubits", (1, 2))
    def test_full_readout_bias_rows_are_distributions(self, n_qubits):
        # every register outcome reads all-0: the confused row is the row sum
        # in slot 0, which core.probability_rows divides back to exactly 1
        dim = 2 ** n_qubits
        rng = np.random.default_rng(n_qubits)
        a = rng.standard_normal((50, dim, dim)) + 1j * rng.standard_normal((50, dim, dim))
        rhos = a @ a.conj().swapaxes(-1, -2)
        rhos /= np.trace(rhos, axis1=-2, axis2=-1)[:, None, None]
        rows = _readout(rhos, n_qubits, 1.0)
        assert np.all((rows >= 0) & (rows <= 1))
        assert np.max(np.abs(rows.sum(axis=1) - 1)) <= default_atol(dim)
        assert np.array_equal(rows, np.eye(dim)[[0] * len(rhos)])

    @pytest.mark.parametrize("two_qubit", (False, True))
    def test_mitigated_counts_five_sigma(self, trine, two_qubit):
        noise = NoiseModel(cnot_depolarizing=0.05, su2_depolarizing=0.01, readout_bias=0.1)
        if two_qubit:
            circuit = compile_naimark_circuit(naimark_dilation(trine))
            rhos = np.stack([np.kron(np.diag([1, 0]), p.rho) for p in probe_states()])
        else:
            circuit = compile_postselection_circuit([np.cos(0.4), np.exp(0.3j) * np.sin(0.4)])
            rhos = np.stack([p.rho for p in probe_states()])
        shots, n = 200_000, circuit.n_qubits
        evolved = _evolve(circuit.gates, n, rhos, noise)
        got, total = _mitigated(evolved[None], n, noise, [shots], np.random.default_rng(12))
        want = _exact_mitigated(circuit, rhos, noise)
        # an average of one multinomial frequency per flip variant: by
        # concavity its variance is at most p(1-p) / (variants * shots)
        sigma = np.sqrt(want * (1 - want) / (want.shape[1] * shots))
        assert np.all(np.abs(got[0] - want) <= 5 * np.maximum(sigma, 1e-9))
        assert total == 2 ** n * len(rhos) * shots

    def test_naimark_pipeline_five_sigma(self, trine):
        noise = NOISE_PRESETS["ibmx4-like"]
        circuit = compile_naimark_circuit(naimark_dilation(trine))
        shots = 100_000
        result = naimark_tomography(trine, noise, cap=shots, seed=5)
        # the ancilla is qubit 0, in |0>; register outcome i is logical outcome i
        rhos = np.stack([np.kron(np.diag([1, 0]), p.rho) for p in probe_states()])
        want = _exact_mitigated(circuit, rhos, noise)
        sigma = np.sqrt(want * (1 - want) / (4 * shots))  # as above, four variants
        got = result.record.frequencies
        assert np.all(np.abs(got - want) <= 5 * np.maximum(sigma, 1e-9))


class TestBatchedPipelines:
    """The batched routes draw every count in the order of the per-component,
    per-mask loops they replaced, so a fixed seed gives equal numbers."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(n=st.integers(2, 4), povm_seed=st.integers(0, 2**32 - 1), noise=_NOISE_MODELS,
           cap=_CAPS, seed=st.integers(0, 2**32 - 1))
    def test_postselection_route_equals_the_per_component_loop(self, n, povm_seed, noise,
                                                               cap, seed):
        scheme = postselection_scheme(random_rank_one_povm(2, n, povm_seed))
        table, shots_total = _per_component_postselection(scheme, noise, cap, seed)
        if np.min(np.delete(table, n, axis=1).sum(axis=1)) <= 0:
            # at a small cap every run of a probe can fail: both raise
            with pytest.raises(ValueError, match="no surviving outcomes"):
                postselection_tomography(scheme, noise, cap, seed)
            return
        result = postselection_tomography(scheme, noise, cap, seed)
        kept = TomographyRecord(table).postselected()
        assert np.array_equal(result.record.frequencies, kept.frequencies)
        assert result.postselection_fraction == float(np.mean(table[:, n]))
        assert result.shots_total == shots_total

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(n=st.integers(2, 4), povm_seed=st.integers(0, 2**32 - 1), noise=_NOISE_MODELS,
           cap=_CAPS, seed=st.integers(0, 2**32 - 1))
    def test_naimark_route_equals_the_per_mask_loop(self, n, povm_seed, noise, cap, seed):
        povm = random_rank_one_povm(2, n, povm_seed)
        result = naimark_tomography(povm, noise, cap, seed)
        circuit = compile_naimark_circuit(naimark_dilation(povm))
        rhos = np.stack([np.kron(np.diag([1, 0]), rho) for rho in PROBE_RHOS])
        record = _per_mask_record(circuit, rhos, noise, cap, np.random.default_rng(seed))
        assert np.array_equal(result.record.frequencies, record.frequencies)
        padding = np.stack(reconstruct_povm(record).effects)[n:]
        assert result.residual_mass == float(np.trace(padding, axis1=1, axis2=2).real.sum())
        assert result.shots_total == 4 * cap * len(rhos)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(m=st.integers(1, 5), masks=st.sampled_from((2, 4)), outcomes=st.sampled_from((2, 4)),
           shots=st.lists(st.integers(1, 50) | st.integers(1, 2**62), min_size=5, max_size=5),
           zeros=st.floats(0.0, 0.9), data=st.integers(0, 2**32 - 1),
           seed=st.integers(0, 2**32 - 1))
    def test_one_broadcast_multinomial_is_the_loop_draw_for_draw(self, m, masks, outcomes,
                                                                 shots, zeros, data, seed):
        # what _mitigated relies on: numpy draws a broadcast multinomial in
        # C order, one (component, mask) probe block after another, and
        # leaves the generator where the loop leaves it
        rng = np.random.default_rng(data)
        probs = rng.random((m, masks, len(PROBE_RHOS), outcomes))
        probs[(rng.random(probs.shape) < zeros) & (probs < probs.max(axis=-1, keepdims=True))] = 0
        probs /= probs.sum(axis=-1, keepdims=True)
        runs = np.array(shots[:m])
        loop, broadcast = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [[loop.multinomial(int(runs[k]), probs[k, mask]) for mask in range(masks)]
                for k in range(m)]
        got = broadcast.multinomial(runs[:, None, None], probs)
        assert np.array_equal(got, want)
        assert broadcast.random() == loop.random()
