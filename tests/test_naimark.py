import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim.core import (
    InvariantViolation,
    Povm,
    QuantumState,
    born_probabilities,
    haar_random_pure_state,
    pauli_eigenstates,
    random_rank_one_povm,
)
from povmsim.core import random_povm
from povmsim.naimark import (
    NaimarkDilation,
    check_against_born,
    dilated_statistics,
    naimark_dilation,
)
from povmsim.noisy_device import NoiseModel, compile_naimark_circuit, exact_output_distribution
from povmsim.simulation import rank_one_refinement

#: the (d, n, rank) shapes of the exact_scale benchmark workload
EXACT_SHAPES = ((4, 16, 1), (8, 16, 2), (8, 48, 1), (16, 32, 2), (16, 64, 1), (32, 64, 1))


def _register_statistics(circuit, state):
    """Noiseless readout of a compiled dilation circuit: the ancilla is
    qubit 0 in |0>, the qubit system is qubit 1."""
    return exact_output_distribution(circuit, QuantumState.pure(np.kron([1, 0], state.vector)),
                                     NoiseModel())


def _assert_dilation_matches_born(povm, seed):
    """Unitary to 1e-12, and Born statistics to 1e-9 on Haar states."""
    dilation = naimark_dilation(povm)
    assert dilation.unitarity_defect <= 1e-12
    assert dilation.isometry_defect <= 1e-12
    for k in range(3):
        assert check_against_born(dilation, haar_random_pure_state(povm.dim, seed + k)) <= 1e-9


class TestConstruction:
    def test_projective_input_gives_identity_statistics(self):
        pm = Povm([np.diag(e) for e in np.eye(2)])
        dilation = naimark_dilation(pm)
        assert dilation.unitary.shape == (2, 2)
        for k in range(2):
            probs = dilated_statistics(dilation, QuantumState.basis_state(2, k))
            want = np.zeros(2)
            want[k] = 1.0
            assert np.max(np.abs(probs - want)) < 1e-12

    def test_trine_qubit_register(self, trine):
        dilation = naimark_dilation(trine)
        assert dilation.unitary.shape == (3, 3)
        circuit = compile_naimark_circuit(dilation)  # pads the 3x3 into the 4x4 register
        for state in pauli_eigenstates():
            probs = _register_statistics(circuit, state)
            assert probs[3] < 1e-12  # padding outcome never fires noiselessly

    def test_tetrahedral_matches_born(self, tetrahedral):
        dilation = naimark_dilation(tetrahedral)
        for state in pauli_eigenstates():
            assert check_against_born(dilation, state) < 1e-9

    def test_isometry_and_unitarity(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            dilation = naimark_dilation(povm)
            assert dilation.unitary.shape == (povm.n_outcomes,) * 2
            assert dilation.isometry_defect < 1e-9
            assert dilation.unitarity_defect < 1e-9

    def test_rejects_full_rank_effects(self):
        # a glued POVM's kept pieces are not its own
        for povm in (Povm([np.eye(2) * 0.4, np.eye(2) * 0.6]), random_povm(4, 6, 8, rank=2)):
            with pytest.raises(ValueError, match="rank-one"):
                naimark_dilation(povm)

    def test_rejects_qubit_register_beyond_two_qubits(self):
        # the dilation exists at any size; only the two-qubit register is bounded
        dilation = naimark_dilation(random_rank_one_povm(2, 5, 3))
        assert dilation.unitary.shape == (5, 5)
        with pytest.raises(ValueError, match="at most 4"):
            compile_naimark_circuit(dilation)

    def test_rejects_non_qubit_register(self):
        dilation = naimark_dilation(random_rank_one_povm(3, 4, 3))
        assert dilation.unitary.shape == (4, 4)
        with pytest.raises(ValueError, match="qubit"):
            compile_naimark_circuit(dilation)


class TestCompletion:
    # any orthonormal completion is valid, so these compare statistics with
    # the Born rule, not matrices with a reference completion
    @pytest.mark.parametrize("d, n, rank", EXACT_SHAPES)
    def test_dilation_matches_born_at_exact_scale_shapes(self, d, n, rank):
        refined, _ = rank_one_refinement(random_povm(d, n, 1000 * d + n, rank=rank))
        _assert_dilation_matches_born(refined, d + n)

    @pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (3, 7), (4, 16), (16, 64), (32, 64),
                                      (32, 1024)])
    def test_unrefined_dilation_matches_born(self, d, n):
        _assert_dilation_matches_born(random_rank_one_povm(d, n, d + n), n)

    def test_fixture_dilations_match_born(self, all_fixture_povms):
        for seed, povm in enumerate(all_fixture_povms.values()):
            _assert_dilation_matches_born(povm, seed)

    def test_refined_dilation_uses_kept_pieces(self, monkeypatch):
        refined, _ = rank_one_refinement(random_povm(8, 48, 5))

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("naimark_dilation eigensolved a refined POVM")
        monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        dilation = naimark_dilation(refined)
        assert dilation.isometry_defect < 1e-12
        assert dilation.unitarity_defect < 1e-12


class TestStatistics:
    def test_random_rank_one_povms_match_born(self):
        rng = np.random.default_rng(51)
        for dim in (2, 3):
            for trial in range(20):
                n = int(rng.integers(dim, dim + 4))
                povm = random_rank_one_povm(dim, n, rng)
                dilation = naimark_dilation(povm)
                rho = np.zeros((dim, dim), dtype=complex)
                v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                state = QuantumState.pure(v / np.linalg.norm(v))
                probs = dilated_statistics(dilation, state)
                oracle = born_probabilities(state, povm)
                assert np.max(np.abs(probs[:n] - oracle)) < 1e-9

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(2, 5), st.integers(0, 4), st.integers(1, 2), st.integers(0, 2**31))
    def test_refined_random_povms_match_born(self, d, extra, rank, seed):
        povm = random_povm(d, d + extra, seed, rank=rank)
        refined, merge = rank_one_refinement(povm)
        dilation = naimark_dilation(refined)
        for state in (haar_random_pure_state(d, seed + k) for k in range(3)):
            merged = merge.matrix @ dilated_statistics(dilation, state)
            assert np.max(np.abs(merged - born_probabilities(state, povm))) <= 1e-9

    def test_unnormalized_statistics_raise(self, trine):
        dilation = naimark_dilation(trine)
        scaled = NaimarkDilation(trine, 2 * dilation.unitary)
        with pytest.raises(InvariantViolation, match="probability normalization"):
            dilated_statistics(scaled, QuantumState.basis_state(2, 0))

    def test_mixed_state_input(self, trine):
        dilation = naimark_dilation(trine)
        state = QuantumState.maximally_mixed(2)
        probs = dilated_statistics(dilation, state)
        assert np.allclose(probs[:3], [1 / 3, 1 / 3, 1 / 3], atol=1e-9)

    def test_system_enters_at_the_first_register_indices(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            dilation = naimark_dilation(povm)
            assert np.array_equal(dilation.isometry, dilation.unitary[:, :2])
            for state in pauli_eigenstates():
                embedded = np.zeros(povm.n_outcomes, dtype=complex)
                embedded[:2] = state.vector
                out = dilation.unitary @ embedded
                assert np.max(np.abs(np.abs(out) ** 2 - dilated_statistics(dilation, state))) < 1e-12

    def test_completion_is_basis_agnostic_in_tests(self, trine):
        # compare statistics, not matrices: any orthonormal completion is
        # valid, and the compiled circuit is one more completion of the isometry
        dilation = naimark_dilation(trine)
        circuit = compile_naimark_circuit(dilation)
        for state in pauli_eigenstates():
            p1 = dilated_statistics(dilation, state)
            p2 = _register_statistics(circuit, state)
            assert np.max(np.abs(p1 - p2[:3])) < 1e-12
