import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim import core
from povmsim.core import (
    NORM_ATOL,
    InvariantViolation,
    Povm,
    QuantumState,
    as_operator,
    born_probabilities,
    default_atol,
    haar_random_pure_state,
    haar_random_unitary,
    haar_random_vectors,
    min_eigenvalue,
    operator_norm,
    pauli_eigenstates,
    povm_from_document,
    povm_to_document,
    random_povm,
    random_rank_one_povm,
    require_hermitian,
    state_from_document,
    state_to_document,
    validate_effects,
)
from povmsim.tomography import TomographyRecord, probe_states, reconstruct_povm


class TestBornProbabilities:
    def test_tetrahedral_on_zero(self, tetrahedral):
        p = born_probabilities(QuantumState.basis_state(2, 0), tetrahedral)
        assert np.allclose(p, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-12)

    def test_trivial_povm(self):
        trivial = Povm([np.eye(3)])
        rho = QuantumState.maximally_mixed(3)
        assert np.allclose(born_probabilities(rho, trivial), [1.0])

    def test_trine_on_maximally_mixed(self, trine):
        p = born_probabilities(QuantumState.maximally_mixed(2), trine)
        assert np.allclose(p, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_dimension_mismatch(self, tetrahedral):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_probabilities(QuantumState.maximally_mixed(3), tetrahedral)

    def test_normalized_and_in_range(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            povm = random_povm(3, 5, rng, rank=2)
            state = haar_random_pure_state(3, rng)
            p = born_probabilities(state, povm)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.min(p) >= 0 and np.max(p) <= 1 + 1e-12


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0)

    def test_zero(self):
        assert operator_norm(np.zeros((2, 2))) == pytest.approx(0.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([0.3, -0.7])) == pytest.approx(0.7)
        # a stack: the largest norm over its matrices, Hermitian or not
        assert operator_norm(np.stack([np.diag([0.3, -0.7]), np.diag([0.9, 0.1])])) == 0.9
        assert operator_norm(np.stack([np.diag([0.3, -0.7]), [[0, 2], [0, 0]]])) == 2.0

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        assert operator_norm(h) == pytest.approx(operator_norm(-h))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvariantViolation):
            operator_norm(np.array([[np.inf, 0], [0, 1]]))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([2.0, 0.5, 1.0])) == pytest.approx(0.5)

    def test_orthonormal_gram(self):
        u = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))[0]
        gram = u.T @ u
        assert min_eigenvalue(gram) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation, match="herm"):
            min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))


class TestHaarStates:
    def test_dim_one_is_a_phase(self):
        psi = haar_random_pure_state(1, 5)
        assert abs(abs(psi.vector[0]) - 1.0) < 1e-12

    def test_vectors_use_the_stream_like_successive_states(self):
        block = haar_random_vectors(5, 7, np.random.default_rng(31))
        twin = np.random.default_rng(31)
        singles = np.array([haar_random_pure_state(7, twin).vector for _ in range(5)])
        assert block.shape == (5, 7)
        assert np.max(np.abs(block - singles)) <= 1e-15

    @pytest.mark.parametrize("count, dim", [(50, 100), (90, 100), (10, 100)])
    def test_vector_rows_are_finite_unit_vectors(self, count, dim):
        # usd.random_ensemble_experiment uses these blocks without a re-check
        for rng in np.random.default_rng(count).spawn(20):
            block = haar_random_vectors(count, dim, rng)
            assert np.all(np.isfinite(block))
            assert np.max(np.abs(np.linalg.norm(block, axis=1) - 1.0)) <= NORM_ATOL

    @pytest.mark.parametrize("count, dim", [(0, 3), (2, 0)])
    def test_vectors_need_positive_sizes(self, count, dim):
        with pytest.raises(ValueError):
            haar_random_vectors(count, dim, 0)

    def test_seeded_reproducibility(self):
        a = haar_random_pure_state(4, 42).vector
        b = haar_random_pure_state(4, 42).vector
        assert np.array_equal(a, b)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_first_component_moment(self):
        # |<e_1|psi>|^2 ~ Beta(1, D-1): mean 1/D, var (D-1)/(D^2 (D+1))
        draws = 100_000
        dim = 4
        rng = np.random.default_rng(2024)
        z = rng.standard_normal((draws, dim)) + 1j * rng.standard_normal((draws, dim))
        weights = np.abs(z[:, 0]) ** 2 / np.sum(np.abs(z) ** 2, axis=1)
        sigma = np.sqrt((dim - 1) / (dim**2 * (dim + 1)) / draws)
        assert abs(weights.mean() - 1 / dim) < 3 * sigma

    def test_sampler_is_complex_haar(self):
        # complex Haar: E sum_i |v_i|^4 = 2/(D+1) and E v_0^2 = 0; a real
        # Gaussian sampler gives 3/(D+2) and a real, positive E v_0^2 = 1/D
        dim, draws = 4, 4000
        rng = np.random.default_rng(4000)
        v = np.array([haar_random_pure_state(dim, rng).vector for _ in range(draws)])
        purity = np.sum(np.abs(v) ** 4, axis=1)
        square = v[:, 0] ** 2
        for sample, mean in ((purity, 2 / (dim + 1)), (square.real, 0.0), (square.imag, 0.0)):
            stderr = sample.std(ddof=1) / np.sqrt(draws)
            assert abs(sample.mean() - mean) < 5 * stderr


class TestPovmValidation:
    def test_incomplete_rejected(self):
        effects = [0.9 * np.eye(2) / 2, 0.9 * np.eye(2) / 2]
        with pytest.raises(InvariantViolation, match="completeness"):
            Povm(effects)

    def test_negative_effect_rejected(self):
        effects = [np.diag([1.01, 1.0]), np.diag([-0.01, 0.0])]
        with pytest.raises(InvariantViolation):
            Povm(effects)

    def test_eigenvalue_above_one_rejected(self):
        with pytest.raises(InvariantViolation, match="effect bound"):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvariantViolation, match="herm"):
            Povm([m, np.eye(2) - m])

    def test_effects_readonly(self, tetrahedral):
        with pytest.raises(ValueError):
            tetrahedral.effects[0][0, 0] = 9.0


def _reference_validate_effect(matrix, atol, name):
    """The former per-effect check, kept as the oracle for the batched one."""
    m = require_hermitian(as_operator(matrix, name), atol, name)
    evs = np.linalg.eigvalsh(m)
    if evs[0] < -atol:
        raise InvariantViolation("positivity", -evs[0], f"{name} has eigenvalue {evs[0]:.3e} < 0")
    if evs[-1] > 1 + atol:
        raise InvariantViolation("effect bound", evs[-1] - 1, f"{name} has eigenvalue {evs[-1]:.6f} > 1")
    return m


def _reference_povm_effects(effects, atol=None):
    """The former Povm.__init__ loop: coerce, validate one effect at a time
    in order, then check completeness."""
    mats = [as_operator(e, f"effect {i}") for i, e in enumerate(effects)]
    if not mats:
        raise ValueError("a POVM needs at least one effect")
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValueError("all effects must share one dimension")
    atol = default_atol(dim) if atol is None else atol
    mats = [_reference_validate_effect(m, atol, f"effect {i}") for i, m in enumerate(mats)]
    defect = float(np.max(np.abs(sum(mats) - np.eye(dim))))
    if defect > atol:
        raise InvariantViolation("completeness", defect,
                                 f"effects sum to identity only within {defect:.3e}")
    return mats


def _outcome(build, effects):
    try:
        return "ok", build(effects)
    except (InvariantViolation, ValueError) as err:
        return type(err).__name__, getattr(err, "invariant", None), str(err)


def _assert_same_outcome(effects):
    want = _outcome(_reference_povm_effects, effects)
    got = _outcome(lambda e: Povm(e).effects, effects)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    else:
        assert got == want


#: a change to one effect: (kind, effect, row, column, size); "hermiticity",
#: "negative" and "above_one" move one entry, "incomplete" scales the effect
_PERTURBATION = st.tuples(
    st.sampled_from(["hermiticity", "negative", "above_one", "incomplete", "none"]),
    st.integers(0, 9), st.integers(0, 4), st.integers(0, 4),
    st.sampled_from([1e-12, 1e-8, 1e-3, 0.3, 2.0]))


class TestBatchedValidation:
    """Povm validates all effects with one batched eigvalsh; it must raise
    what the former per-effect loop raised, for the same first effect."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(2, 4), st.integers(1, 6), st.integers(1, 2), st.integers(0, 2**31),
           st.lists(_PERTURBATION, min_size=1, max_size=2))
    def test_matches_per_effect_loop(self, d, n, rank, seed, perturbations):
        n = max(n, -(-d // rank))
        effects = np.array(random_povm(d, n, seed, rank=rank).effects)
        for kind, k, i, j, size in perturbations:
            k, i, j = k % n, i % d, j % d
            if kind == "hermiticity":
                j = (i + 1 + j % (d - 1)) % d  # an off-diagonal entry, its mirror untouched
                effects[k, i, j] += size * (1 + 1j)
            elif kind == "negative":
                effects[k, i, i] -= size + effects[k, i, i].real
            elif kind == "above_one":
                effects[k, i, i] += size + 1 - effects[k, i, i].real
            elif kind == "incomplete":
                effects[k] *= 1 - size / 4
        _assert_same_outcome(effects)
        _assert_same_outcome(list(effects))

    @pytest.mark.parametrize("effects", [
        [],
        [np.eye(2), np.eye(3)],
        [np.eye(2) / 2, np.ones((2, 3))],
        [np.eye(2) / 2, np.full((2, 2), np.nan)],
        [np.eye(2) / 2, np.eye(2) / 2, np.full((2, 2), np.inf), np.eye(3)],
        [np.zeros((0, 0))],
        [1.0],
        [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]],
        [np.diag([-0.5, 1.5]), np.diag([1.5, -0.5])],  # positivity is checked first
    ])
    def test_malformed_input_reported_as_before(self, effects):
        _assert_same_outcome(effects)

    def test_generator_input(self, tetrahedral):
        assert Povm(m for m in tetrahedral.effects).allclose(tetrahedral, atol=0.0)


def _bloch_effect(alpha, n) -> np.ndarray:
    """The qubit matrix (alpha / 2)(1 + n.sigma) of weight alpha and Bloch vector n."""
    nx, ny, nz = n
    return alpha / 2 * np.array([[1 + nz, nx - 1j * ny], [nx + 1j * ny, 1 - nz]])


def _inverted(m):
    """Effect 0 and whether it is flagged unphysical, reconstructed from the
    two-outcome record [p, 1 - p] of the probe frequencies p of ``m``."""
    p = np.array([np.vdot(s.vector, m @ s.vector).real for s in probe_states()])
    recon = reconstruct_povm(TomographyRecord(np.column_stack([p, 1 - p])))
    return recon.effects[0], 0 in recon.unphysical_outcomes


class TestBlochVector:
    """Effects in weight / Bloch-vector form through the four-probe inversion."""

    def test_round_trip_fixture_effects(self, tetrahedral, trine):
        for povm in (tetrahedral, trine):
            for m in povm.effects:
                back, unphysical = _inverted(m)
                assert np.max(np.abs(back - m)) < 1e-12
                assert not unphysical

    def test_round_trip_random_effects(self):
        # the linear inversion covers every effect, whatever its trace
        rng = np.random.default_rng(9)
        for _ in range(25):
            povm = random_povm(2, 3, rng, rank=2)
            for m in povm.effects:
                back, unphysical = _inverted(m)
                assert np.max(np.abs(back - m)) < 1e-12
                assert not unphysical

    def test_unit_ball_flag(self):
        assert not _inverted(_bloch_effect(0.5, [0, 0, 1]))[1]
        # |n| = 1.1; along z its probe frequency p(z1) would be negative
        assert _inverted(_bloch_effect(0.5, [0.6, 0.6, 0.7]))[1]

    @pytest.mark.parametrize("alpha, n, physical", [
        (1.5, [0, 0, 0], True),       # 0.75 * 1
        (1.5, [0, 0, 1 / 3], True),   # eigenvalues 1 and 0.5
        # largest eigenvalue 1.125; |n| = 1/2 turned off the z axis, where
        # p(z0) = 1.125 is no frequency
        (1.5, [1 / 3, 1 / 3, -1 / 6], False),
        (2.0, [0, 0, 0], True),       # the identity
        (1.0, [0, 0.6, 0.8], True),   # a rank-one projector
        (1.0, [0, 0.6, 0.81], False),
    ])
    def test_physical_means_valid_effect(self, alpha, n, physical):
        m = _bloch_effect(alpha, n)
        back, unphysical = _inverted(m)
        assert np.max(np.abs(back - m)) < 1e-12
        assert unphysical != physical
        evs = np.linalg.eigvalsh(back)
        assert (evs[0] >= -1e-12 and evs[-1] <= 1 + 1e-12) == physical


class TestRandomPovms:
    def test_rank_one_construction(self):
        rng = np.random.default_rng(4)
        povm = random_rank_one_povm(3, 5, rng)
        for m in povm.effects:
            evs = np.linalg.eigvalsh(m)
            assert np.all(evs[:-1] < 1e-12)

    def test_needs_enough_outcomes(self):
        with pytest.raises(ValueError):
            random_rank_one_povm(3, 2, 0)

    def test_stack_is_the_outer_products_validated_once(self, monkeypatch):
        rows = haar_random_unitary(5, 4)[:3]
        want = Povm([np.outer(rows[:, i], rows[:, i].conj()) for i in range(5)]).stack
        calls = []
        monkeypatch.setattr(core, "validate_effects",
                            lambda *a: calls.append(1) or validate_effects(*a))
        povm = random_povm(3, 5, 4)
        assert np.array_equal(povm.stack, want)  # bit for bit
        assert len(calls) == 1


class TestSerialization:
    def test_povm_round_trip(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            doc = povm_to_document(povm)
            text = json.dumps(doc)
            back = povm_from_document(json.loads(text))
            assert back.labels == povm.labels
            for a, b in zip(back.effects, povm.effects):
                assert np.max(np.abs(a - b)) < 1e-12

    def test_state_round_trip(self):
        for state in pauli_eigenstates():
            back = state_from_document(json.loads(json.dumps(state_to_document(state))))
            assert np.max(np.abs(back.vector - state.vector)) < 1e-12
        mixed = QuantumState.maximally_mixed(3)
        back = state_from_document(state_to_document(mixed))
        assert np.max(np.abs(back.rho - mixed.rho)) < 1e-12

    def test_load_error_names_completeness(self, tetrahedral):
        doc = povm_to_document(tetrahedral)
        doc["effects"] = [[[[0.9 * re, 0.9 * im] for re, im in row] for row in eff]
                          for eff in doc["effects"]]
        with pytest.raises(InvariantViolation, match="completeness"):
            povm_from_document(doc)

    def test_load_error_on_negative_effect(self):
        doc = {
            "dim": 2,
            "effects": [
                [[[0.51, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
                [[[0.50, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.51, 0.0]]],
                [[[-0.01, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.01, 0.0]]],
            ],
            "labels": ["1", "2", "3"],
        }
        with pytest.raises(InvariantViolation, match="positivity"):
            povm_from_document(doc)
