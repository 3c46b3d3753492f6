import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povmsim import core
from povmsim.core import (
    MAX_COUNT,
    NORM_ATOL,
    ORTHOGONALITY_ATOL,
    InvariantViolation,
    Povm,
    QuantumState,
    as_operator,
    born_probabilities,
    default_atol,
    haar_random_pure_state,
    haar_random_unitary,
    haar_random_vectors,
    hermitian_part,
    isometry_defect,
    min_eigenvalue,
    operator_norm,
    orthogonality_graph,
    pauli_eigenstates,
    povm_from_document,
    povm_to_document,
    probability_rows,
    random_povm,
    random_rank_one_povm,
    rank_one_parts,
    rebalance,
    require_distribution,
    require_hermitian,
    state_from_document,
    state_to_document,
    validate_effects,
)
from povmsim.tomography import (TomographyRecord, operational_distance, probe_states,
                                reconstruct_povm)
from povmsim.usd import symmetric_ensemble


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

    def test_density_stack_matches_single_states(self):
        rng = np.random.default_rng(5)
        povm = random_povm(3, 5, rng, rank=2)
        states = [haar_random_pure_state(3, rng) for _ in range(4)]
        states.append(QuantumState.density(np.diag([0.5, 0.3, 0.2])))
        table = born_probabilities(np.stack([s.rho for s in states]), povm)
        assert table.shape == (5, 5)
        for state, row in zip(states, table):
            assert np.max(np.abs(born_probabilities(state, povm) - row)) <= 1e-15

    def test_stack_dimension_mismatch(self, tetrahedral):
        with pytest.raises(ValueError, match="dimension mismatch"):
            born_probabilities(np.stack([np.eye(3) / 3] * 2), tetrahedral)


class TestProbabilityRows:
    def test_round_off_clipped_and_renormalized(self):
        rows = probability_rows([[-1e-12, 0.5, 0.5 + 2e-12], [0.25, 0.25, 0.5]], 1e-9)
        assert np.min(rows) == 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-15
        assert np.array_equal(rows[1], [0.25, 0.25, 0.5])

    @pytest.mark.parametrize("row, invariant", [([-1e-3, 1.0 + 1e-3], "probability positivity"),
                                                ([np.nan, 1.0], "probability positivity"),
                                                ([0.5, 0.6], "probability normalization"),
                                                ([0.5, np.inf], "probability normalization")])
    def test_violation_raises(self, row, invariant):
        with pytest.raises(InvariantViolation, match=invariant):
            probability_rows([[0.5, 0.5], row], 1e-9)


@st.composite
def _planted_distributions(draw):
    """A vector or (rows, n) table of distributions, the first row's sum moved
    by k atol, with up to two entries replaced by NaN, +-inf or a negative
    entry of -0.5 or -2 atol (its mass moved on, so the clipped sum keeps)."""
    atol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    shape = draw(st.sampled_from([(), (1,), (3,)])) + (draw(st.integers(1, 6)),)
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(-1, shape[-1])
    p /= np.array([[math.fsum(row)] for row in p])
    p[0, 0] += draw(st.sampled_from([0, 0, 0, 0, -4, -2, -0.5, 0.5, 2, 4])) * atol
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        r, i = draw(st.integers(0, len(p) - 1)), draw(st.integers(0, shape[-1] - 1))
        planted = draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.5, -0.5, -0.5, -2.0]))
        if abs(planted) < 3:
            p[r, (i + 1) % shape[-1]] += p[r, i] if shape[-1] > 1 else 0.0
            planted *= atol
        p[r, i] = planted
    return p.reshape(shape), atol


def _distribution_oracle(rows, atol, name):
    """The invariant a plain-Python check names first, or the clipped rows."""
    if any(not x >= -atol for row in rows for x in row):
        return f"{name} positivity"
    clipped = [[x if x > 0 else 0.0 for x in row] for row in rows]
    if any(not abs(math.fsum(row) - 1.0) <= atol for row in clipped):
        return f"{name} normalization"
    return clipped


class TestRequireDistribution:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_planted_distributions(), st.sampled_from(["probability", "weight", "frequency"]))
    @example((np.array([[0.5, -5e-10, 0.5], [0.25, 0.25, 0.5]]), 1e-9), "weight")
    @example((np.array([0.5, -2e-9, 0.5]), 1e-9), "frequency")
    def test_matches_a_plain_python_oracle(self, planted, name):
        p, atol = planted
        want = _distribution_oracle(p.reshape(-1, p.shape[-1]).tolist(), atol, name)
        try:
            got = require_distribution(p, atol, name)
        except InvariantViolation as err:
            assert err.invariant == want
            return
        assert not isinstance(want, str), want
        assert got.shape == p.shape
        assert got.tobytes() == np.array(want).reshape(p.shape).tobytes()
        # probability_rows is the check and then the division, bit for bit
        clipped = np.maximum(p, 0.0)
        assert probability_rows(p, atol).tobytes() == (
            clipped / clipped.sum(axis=-1, keepdims=True)).tobytes()

    def test_no_renormalisation_and_input_kept(self):
        p = np.array([-1e-10, 0.5, 0.5 + 5e-10])
        got = require_distribution(p, 1e-9, "weight")
        assert got.tolist() == [0.0, 0.5, 0.5 + 5e-10]
        assert p[0] == -1e-10

    @pytest.mark.parametrize("check, name", [
        (lambda p: require_distribution(p, 1e-9), "probability"),
        (lambda p: probability_rows(p, 1e-9), "probability"),
        (lambda p: symmetric_ensemble(p), "coefficient"),
    ], ids=["require_distribution", "probability_rows", "symmetric_ensemble"])
    @pytest.mark.parametrize("p", [[], np.zeros((2, 0)), np.zeros((0, 3))])
    def test_an_empty_input_is_named(self, check, name, p):
        # not numpy's zero-size reduction error
        with pytest.raises(ValueError, match=f"{name} distribution must be non-empty, got shape"):
            check(p)


class TestRankOneHelpers:
    def test_rebalance_matches_conjugating_each_effect(self, random4):
        parts = rank_one_parts(random4.stack * 1.01, 1e-9, dominant=True)
        total = parts.effects().sum(axis=0)
        w, v = np.linalg.eigh(total)
        inv_sqrt = (v * w ** -0.5) @ v.conj().T
        want = np.stack([inv_sqrt @ p @ inv_sqrt for p in parts.effects()])
        balanced = rebalance(parts, total)
        assert np.max(np.abs(balanced.effects() - want)) <= 1e-15
        assert np.max(np.abs(balanced.effects().sum(axis=0) - np.eye(2))) <= 1e-15
        assert np.array_equal(balanced.parents, parts.parents)

    def test_rebalance_needs_a_spanning_sum(self):
        parts = rank_one_parts(np.array([np.diag([1.0, 0.0])]), 1e-9)
        with pytest.raises(ValueError, match="do not span"):
            rebalance(parts, parts.effects().sum(axis=0))

    def test_orthogonality_graph_in_row_major_order(self):
        rng = np.random.default_rng(2)
        vectors = haar_random_vectors(6, 4, rng)
        vectors[3] = [1, 0, 0, 0]
        vectors[[0, 5]] = [0, 1, 0, 0]
        vectors[1] = [0, 0, 1j, 0]
        overlaps = np.abs(vectors.conj() @ vectors.T)
        want = [(i, j) for i in range(6) for j in range(i + 1, 6)
                if overlaps[i, j] <= ORTHOGONALITY_ATOL]
        assert want == [(0, 1), (0, 3), (1, 3), (1, 5), (3, 5)]
        graph = orthogonality_graph(vectors.conj() @ vectors.T)
        assert [tuple(p) for p in np.argwhere(np.triu(graph)).tolist()] == want


class TestInvariantDefects:
    """The one Hermiticity and the one isometry checker, against the
    expressions every module used to compute on its own."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(0, 3), st.integers(1, 6), st.integers(0, 2**31),
           st.sampled_from([0.0, 1e-12, 1e-6, 1.0]), st.booleans())
    def test_hermitian_part_is_the_symmetrised_stack_and_the_defect(self, k, d, seed, skew,
                                                                     transposed):
        rng = np.random.default_rng(seed)
        shape = (d, d) if k == 0 else (k, d, d)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m = (a + a.conj().swapaxes(-1, -2)) / 2 + skew * a
        if transposed:
            m = m.swapaxes(-1, -2)  # a strided view, as the adjoint of a caller's stack
        adjoint = m.conj().swapaxes(-1, -2)
        sym, defect = hermitian_part(m)
        # equal in value: only the sign of a zero may differ, as / 2 divides complex
        assert np.array_equal(sym, (m + adjoint) / 2)
        assert sym.flags.c_contiguous and not np.shares_memory(sym, m)
        assert np.array_equal(defect, np.abs(m - adjoint).max(axis=(-2, -1)))
        assert defect.shape == shape[:-2]

    def test_hermitian_defect_of_a_nan_entry_is_nan(self):
        m = np.zeros((2, 3, 3), dtype=complex)
        m[1, 0, 2] = np.nan
        defect = hermitian_part(m)[1]
        assert defect[0] == 0 and np.isnan(defect[1])
        with pytest.raises(InvariantViolation, match="hermiticity"):
            require_hermitian(m[1], 1e-9)

    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 2), (7, 3)])
    def test_isometry_defect_is_the_gram_deviation(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        v = haar_random_unitary(rows, rng)[:, :cols] + 1e-7 * rng.standard_normal((rows, cols))
        want = float(np.max(np.abs(v.conj().T @ v - np.eye(cols))))
        assert isometry_defect(v) == want
        v[0, 0] = np.nan
        assert np.isnan(isometry_defect(v))


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

    @pytest.mark.parametrize("matrix", [np.eye(4), np.diag([2.0, 0.5, 1.0]), [[1.0]]])
    def test_matrix_gives_a_python_float(self, matrix):
        assert type(min_eigenvalue(matrix)) is float

    @staticmethod
    def gram_stack(shape, d, space_dim, seed):
        states = haar_random_vectors(int(np.prod(shape)) * d, space_dim, seed)
        states = states.reshape(*shape, d, space_dim)
        return states.conj() @ states.swapaxes(-1, -2)

    @pytest.mark.parametrize("shape, d, space_dim", [((5,), 1, 3), ((5,), 3, 4), ((5,), 10, 100),
                                                     ((2, 3), 4, 6)])
    def test_stack_matches_each_matrix(self, shape, d, space_dim):
        grams = self.gram_stack(shape, d, space_dim, 17)
        lams = min_eigenvalue(grams)
        assert isinstance(lams, np.ndarray) and lams.shape == shape
        for index in np.ndindex(*shape):
            assert lams[index] == min_eigenvalue(grams[index])

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_stack_rejects_one_non_hermitian_matrix(self, k):
        grams = self.gram_stack((5,), 3, 4, 5)
        grams[k, 0, 1] += 1e-3
        with pytest.raises(InvariantViolation) as err:
            min_eigenvalue(grams)
        assert err.value.invariant == "hermiticity"
        assert err.value.deviation == pytest.approx(1e-3)

    @pytest.mark.parametrize("k", [0, 4])
    def test_stack_rejects_a_nan(self, k):
        grams = self.gram_stack((5,), 3, 4, 5)
        grams[k, 1, 1] = np.nan
        with pytest.raises(InvariantViolation) as err:
            min_eigenvalue(grams)
        assert err.value.invariant == "finite entries"


@pytest.mark.parametrize("call", [min_eigenvalue, operator_norm,
                                  lambda m: operational_distance(m, m)],
                         ids=["min_eigenvalue", "operator_norm", "operational_distance"])
def test_stack_of_no_matrices_rejected(call):
    # named by the one shape check, not left to numpy's zero-size reduction error
    with pytest.raises(ValueError, match=r"non-empty stack of square matrices, got shape \(0,"):
        call(np.zeros((0, 2, 2)))


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

    @pytest.mark.parametrize("build, name, value", [
        (lambda n: haar_random_vectors(n, 3, 0), "count", True),
        (lambda n: haar_random_vectors(2, n, 0), "dim", 2.5),
        (lambda n: haar_random_pure_state(n, 0), "dim", np.True_),
        (lambda n: haar_random_unitary(n, 0), "dim", 0),  # an empty array before
        (lambda n: haar_random_unitary(n, 0), "dim", 1.0),
    ])
    def test_sizes_are_counts(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            build(value)

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


class TestNamedStates:
    def test_basis_state(self):
        assert np.array_equal(QuantumState.basis_state(3, np.int64(2)).vector, [0, 0, 1])

    @pytest.mark.parametrize("index", [-1, 3, True, 1.0, np.int64(-1)])
    def test_basis_state_index_is_in_range(self, index):
        # -1 gave the last basis state and 3 numpy's bare IndexError
        with pytest.raises(ValueError, match=r"index must be an integer in 0\.\.2, got"):
            QuantumState.basis_state(3, index)

    @pytest.mark.parametrize("build", [lambda dim: QuantumState.basis_state(dim, 0),
                                       QuantumState.maximally_mixed])
    @pytest.mark.parametrize("dim", [0, -2, 2.0, True])
    def test_dimension_is_a_count(self, build, dim):
        with pytest.raises(ValueError, match="dim must be an integer of at least 1"):
            build(dim)


class TestPureState:
    @pytest.mark.parametrize("vector, shape", [([[1, 0], [0, 0]], r"\(2, 2\)"),
                                               ([[1, 0]], r"\(1, 2\)"), (1.0, r"\(\)"),
                                               ([], r"\(0,\)")])
    def test_needs_a_non_empty_1d_vector(self, vector, shape):
        with pytest.raises(ValueError, match=f"must be non-empty and 1-d, got shape {shape}"):
            QuantumState.pure(vector)


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


class TestStackStorage:
    """Povm coerces its input once and keeps one symmetrized copy of it:
    C-ordered, read-only and never a view of the caller's array."""

    def test_every_input_form_stores_the_same_stack(self):
        povm = random_povm(4, 7, 11, rank=2)
        parts = rank_one_parts(povm.stack, povm.atol)
        effects = parts.effects()
        built = [Povm(effects), Povm(list(effects)), Povm.from_rank_one(parts),
                 Povm(effects.conj().swapaxes(1, 2))]  # a strided view of the adjoints
        want = built[0].stack.tobytes()
        for p in built:
            assert p.stack.tobytes() == want  # bit for bit
            assert p.stack.flags.c_contiguous
            assert not p.stack.flags.writeable
            with pytest.raises(ValueError):
                p.stack[0, 0, 0] = 0.0
        assert not np.shares_memory(built[0].stack, effects)
        effects[:] = 0.0
        parts.vectors[:] = 0.0
        assert all(p.stack.tobytes() == want for p in built)


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

    @pytest.mark.parametrize("rank", [0, 1.5, True, "2"])
    def test_rank_is_a_count(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer of at least 1"):
            random_povm(2, 3, 0, rank=rank)

    @pytest.mark.parametrize("build, name", [
        (lambda: random_povm(-1, 2, 0), "dim"),  # a 1-dimensional POVM before
        (lambda: random_rank_one_povm(True, 2, 0), "dim"),  # likewise
        (lambda: random_rank_one_povm(2, 2.5, 0), "n_outcomes"),
        (lambda: random_povm(2, True, 0, rank=2), "n_outcomes"),  # a bare TypeError before
    ])
    def test_sizes_are_counts(self, build, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            build()

    def test_outcomes_times_rank_stay_within_the_count_ceiling(self):
        # the product is checked, and named, before any rank-one POVM of that size is asked for
        for n_outcomes, rank in ((2 ** 62, 2), (np.int64(2 ** 62), np.int64(2)), (2, 2 ** 62)):
            message = rf"n_outcomes \* rank must be at most {MAX_COUNT}, got {n_outcomes} \* {rank}"
            with pytest.raises(ValueError, match=message + "$"):
                random_povm(2, n_outcomes, 0, rank=rank)

    def test_stack_is_the_outer_products_validated_once(self, monkeypatch):
        rows = haar_random_unitary(5, 4)[:3]
        want = Povm([np.outer(rows[:, i], rows[:, i].conj()) for i in range(5)]).stack
        # rank 2 reference: ten validated rank-one pieces, glued in pairs, validated again
        rows = haar_random_unitary(10, 4)[:3]
        fine = Povm([np.outer(rows[:, i], rows[:, i].conj()) for i in range(10)]).stack
        want_rank_two = Povm(fine.reshape(5, 2, 3, 3).sum(axis=1)).stack
        calls = []
        monkeypatch.setattr(core, "validate_effects",
                            lambda *a: calls.append(1) or validate_effects(*a))
        povm = random_povm(3, 5, 4)
        assert np.array_equal(povm.stack, want)  # bit for bit
        assert len(calls) == 1
        assert np.array_equal(random_povm(3, 5, 4, rank=2).stack, want_rank_two)
        assert len(calls) == 3  # the kept pieces once, the glued effects once

    def test_keeps_its_haar_pieces(self, tetrahedral):
        columns = haar_random_unitary(5, 4)[:3].T
        parts = random_povm(3, 5, 4).rank_one
        norms = np.linalg.norm(columns, axis=1)
        assert np.array_equal(parts.weights, norms ** 2)
        assert np.array_equal(parts.vectors, columns / norms[:, None])
        assert np.array_equal(parts.parents, np.arange(5))
        assert np.max(np.abs(parts.effects() - random_povm(3, 5, 4).stack)) <= 1e-15
        # glued pieces and loaded documents carry none
        assert random_povm(3, 5, 4, rank=2).rank_one is None
        assert tetrahedral.rank_one is None


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
