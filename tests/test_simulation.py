import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from povmsim.core import (
    InvariantViolation,
    Povm,
    QuantumState,
    born_probabilities,
    haar_random_pure_state,
    pauli_eigenstates,
    random_povm,
)
from povmsim.simulation import (
    PostProcessingMap,
    PostselectionScheme,
    ProjectiveSimulation,
    apply_postprocessing,
    build_mq,
    convex_combination,
    hw_covariant_povm,
    max_success_bound_rank_one,
    postselection_scheme,
    rank_one_refinement,
    sample_postselection,
)


def computational_basis(dim: int = 2) -> Povm:
    return Povm([np.diag(e) for e in np.eye(dim)])


def povm_equal(a: Povm, b: Povm, atol=1e-9) -> bool:
    return a.n_outcomes == b.n_outcomes and all(
        np.max(np.abs(x - y)) < atol for x, y in zip(a.effects, b.effects))


class TestRankOneRefinement:
    def test_rank_one_input_unchanged(self, tetrahedral):
        refined, merge = rank_one_refinement(tetrahedral)
        assert povm_equal(refined, tetrahedral, atol=1e-12)
        assert np.allclose(merge.matrix, np.eye(4))

    def test_trivial_povm(self):
        trivial = Povm([np.eye(2)])
        refined, merge = rank_one_refinement(trivial)
        assert refined.n_outcomes == 2
        for m in refined.effects:
            assert np.linalg.matrix_rank(m, tol=1e-10) == 1
        # both pieces merge back into the single outcome
        assert np.allclose(merge.matrix, [[1.0, 1.0]])

    def test_diagonal_example(self):
        povm = Povm([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])])
        refined, merge = rank_one_refinement(povm)
        expected = [np.diag([0.7, 0.0]), np.diag([0.0, 0.2]),
                    np.diag([0.0, 0.8]), np.diag([0.3, 0.0])]
        assert refined.n_outcomes == 4
        for got, want in zip(refined.effects, expected):
            assert np.max(np.abs(got - want)) < 1e-12
        assert povm_equal(apply_postprocessing(refined, merge), povm, atol=1e-12)

    def test_merge_reproduces_input(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3):
            povm = random_povm(dim, dim + 1, rng, rank=2)
            refined, merge = rank_one_refinement(povm)
            assert povm_equal(apply_postprocessing(refined, merge), povm)


    def test_rebalance_keeps_rank_one_unit_pieces(self):
        # eigenvalue 1e-9 is below the tolerance: dropping it leaves a
        # completeness defect that v -> B^{-1/2} v must redistribute
        small = 1e-9
        povm = Povm([np.diag([0.6, small]), np.diag([0.4, 1 - small])])
        refined, merge = rank_one_refinement(povm)
        parts = refined.rank_one
        assert refined.n_outcomes == 3
        assert np.max(np.abs(np.linalg.norm(parts.vectors, axis=1) - 1)) < 1e-15
        assert refined.completeness_defect < 1e-15
        assert np.max(np.abs(refined.stack - parts.effects())) < 1e-15
        assert povm_equal(apply_postprocessing(refined, merge), povm, atol=2 * small)

    def test_pieces_kept_on_refined_povm(self):
        povm = random_povm(4, 6, 8, rank=2)
        refined, merge = rank_one_refinement(povm)
        parts = refined.rank_one
        # the stored effects are the symmetrized pieces
        assert np.max(np.abs(refined.stack - parts.effects())) < 1e-15
        assert np.array_equal(merge.matrix.argmax(axis=0), parts.parents)
        assert povm.rank_one is None
        with pytest.raises(ValueError):
            parts.vectors[0, 0] = 1.0


def _count_eigensolves(monkeypatch):
    counts = {"calls": 0}
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, solver=solver, **kwargs):
            counts["calls"] += 1
            return solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestEigensolveCount:
    """Each eigendecomposition runs once over the whole effect stack, so the
    number of solves does not grow with the number of outcomes."""

    @pytest.mark.parametrize("d, n, rank", [(2, 3, 1), (8, 48, 1), (16, 32, 2)])
    def test_scheme_build_is_a_few_batched_solves(self, monkeypatch, d, n, rank):
        povm = random_povm(d, n, 3, rank=rank)
        counts = _count_eigensolves(monkeypatch)
        postselection_scheme(povm)
        # refinement eigh (+ rebalance) and the refined POVM's validation; the
        # realized effects are compared with M_{1/d} as stacks, not solved
        assert counts["calls"] <= 3


class TestPostProcessing:
    def test_identity_map(self, trine):
        assert povm_equal(apply_postprocessing(trine, PostProcessingMap.identity(3)), trine)

    def test_glue_all_gives_trivial(self, tetrahedral):
        glued = apply_postprocessing(tetrahedral,
                                     PostProcessingMap.deterministic([0, 0, 0, 0], 1))
        assert glued.n_outcomes == 1
        assert np.max(np.abs(glued.effects[0] - np.eye(2))) < 1e-12

    def test_glue_last_two_outcomes(self, tetrahedral):
        # merging the failure and inconclusive slots of a (d+2)-outcome POVM
        d = 2
        mq = build_mq(tetrahedral, 1 / d)  # 5 outcomes
        extended = Povm(list(mq.effects[:4]) + [mq.effects[4] / 2, mq.effects[4] / 2])
        glued = apply_postprocessing(extended, PostProcessingMap.glue(6, (4, 5)))
        assert glued.n_outcomes == 5
        assert povm_equal(glued, mq, atol=1e-12)

    def test_rejects_non_stochastic(self):
        with pytest.raises(InvariantViolation, match="stochastic"):
            PostProcessingMap([[0.5, 0.2], [0.4, 0.2]])

    def test_linearity_with_convex_combination(self):
        rng = np.random.default_rng(23)
        a = random_povm(2, 3, rng)
        b = random_povm(2, 3, rng)
        pmap = PostProcessingMap([[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        lhs = apply_postprocessing(convex_combination([(0.3, a), (0.7, b)]), pmap)
        rhs = convex_combination([(0.3, apply_postprocessing(a, pmap)),
                                  (0.7, apply_postprocessing(b, pmap))])
        assert povm_equal(lhs, rhs, atol=1e-12)


class TestConvexCombination:
    def test_single_term(self, trine):
        assert povm_equal(convex_combination([(1.0, trine)]), trine)

    def test_z_and_x_basis_mixture(self):
        z = computational_basis()
        x_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        x = Povm([x_plus, np.eye(2) - x_plus])
        mix = convex_combination([(0.5, z), (0.5, x)])
        want = (np.diag([1.0, 0.0]) + x_plus) / 2
        assert np.max(np.abs(mix.effects[0] - want)) < 1e-12

    def test_unnormalized_weights_rejected(self, trine):
        with pytest.raises(InvariantViolation, match="weight"):
            convex_combination([(0.6, trine), (0.6, trine)])


class TestBuildMq:
    def test_tetrahedral_half(self, tetrahedral):
        mq = build_mq(tetrahedral, 0.5)
        assert mq.n_outcomes == 5
        for i in range(4):
            assert np.max(np.abs(mq.effects[i] - tetrahedral.effects[i] / 2)) < 1e-12
        assert np.max(np.abs(mq.effects[4] - np.eye(2) / 2)) < 1e-12

    def test_q_one_appends_zero(self, trine):
        mq = build_mq(trine, 1.0)
        assert np.max(np.abs(mq.effects[3])) == 0.0

    def test_trivial(self):
        mq = build_mq(Povm([np.eye(2)]), 0.3)
        assert np.max(np.abs(mq.effects[0] - 0.3 * np.eye(2))) < 1e-12
        assert np.max(np.abs(mq.effects[1] - 0.7 * np.eye(2))) < 1e-12

    def test_q_out_of_range(self, trine):
        with pytest.raises(ValueError):
            build_mq(trine, 0.0)
        with pytest.raises(ValueError):
            build_mq(trine, 1.2)


class TestPostselectionScheme:
    def test_tetrahedral_example(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        assert scheme.n_components == 4
        assert np.allclose(scheme.weights, 0.25, atol=1e-12)
        assert scheme.success_probability == pytest.approx(0.5)
        assert list(scheme.parents) == [0, 1, 2, 3]

    def test_trivial_dimension_three(self):
        scheme = postselection_scheme(Povm([np.eye(3)]))
        assert scheme.success_probability == pytest.approx(1 / 3)
        assert all(p == 0 for p in scheme.parents)

    def test_random4_weights_are_traces_over_d(self, random4):
        scheme = postselection_scheme(random4)
        traces = np.array([np.trace(m).real for m in random4.effects])
        assert np.allclose(np.sort(scheme.weights), np.sort(traces / 2), atol=1e-9)
        assert povm_equal(scheme.simulated_povm(), build_mq(random4, 0.5), atol=1e-9)

    def test_exact_decomposition_all_fixtures(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            scheme = postselection_scheme(povm)
            sim = scheme.as_projective_simulation()
            target = build_mq(povm, 1 / povm.dim)
            assert povm_equal(sim.simulated_povm(), target, atol=1e-9)
            # example 1 mixture shape: the raw mixture already equals M_q for
            # rank-one targets because each component owns one slot
            assert povm_equal(sim.mixture(), Povm(list(target.effects)), atol=1e-9)

    @pytest.mark.parametrize("d, n, rank", [(2, 4, 1), (3, 5, 2), (8, 16, 2), (16, 64, 1)])
    def test_states_and_weights_match_per_piece_eigh(self, d, n, rank):
        povm = random_povm(d, n, 40 + d, rank=rank)
        refined, _ = rank_one_refinement(povm)
        scheme = postselection_scheme(povm)
        for k, piece in enumerate(refined.effects):
            w, v = np.linalg.eigh(piece)
            assert abs(scheme.weights[k] * d - w[-1]) < 1e-12
            assert abs(abs(np.vdot(v[:, -1], scheme.states[k])) - 1) < 1e-12

    def test_cancelling_negative_weights_rejected(self):
        # the weights sum to 1 and the effects match M_{1/2}, but component
        # 1 cannot be drawn with probability -0.25
        zero, one = np.eye(2, dtype=complex)
        with pytest.raises(InvariantViolation) as err:
            PostselectionScheme(computational_basis(),
                                [zero, zero, one], [0.75, -0.25, 0.5], [0, 0, 1])
        assert err.value.invariant == "weight positivity"

    def test_non_unit_states_rejected(self):
        # w_k |v_k|^2 matches M_{1/2}, but the success rate would be 1/4
        zero, one = np.eye(2, dtype=complex)
        with pytest.raises(InvariantViolation) as err:
            PostselectionScheme(computational_basis(),
                                [np.sqrt(2) * zero, np.sqrt(2 / 3) * one], [0.25, 0.75], [0, 1])
        assert err.value.invariant == "unit norm"

    @pytest.mark.parametrize("parents", [[0, 2], [-1, 1]])
    def test_out_of_range_parent_rejected(self, parents):
        zero, one = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="parents"):
            PostselectionScheme(computational_basis(),
                                [zero, one], [0.5, 0.5], parents)

    def test_state_dimension_checked(self, trine):
        with pytest.raises(ValueError, match=r"states must be an \(m, 2\) array"):
            PostselectionScheme(trine, np.eye(3), [1 / 3] * 3, [0, 1, 2])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(2, 5), st.integers(0, 4), st.integers(1, 2), st.integers(0, 2**31))
    def test_view_reproduces_mq_and_document_round_trips(self, d, extra, rank, seed):
        povm = random_povm(d, d + extra, seed, rank=rank)
        scheme = postselection_scheme(povm)
        simulated = scheme.as_projective_simulation().simulated_povm()
        assert np.max(np.abs(simulated.stack - build_mq(povm, 1 / d).stack)) <= 1e-9
        back = PostselectionScheme.from_document(scheme.to_document())
        assert np.array_equal(back.weights, scheme.weights)
        assert np.array_equal(back.parents, scheme.parents)
        assert np.array_equal(back.states, scheme.states)
        assert np.array_equal(back.target.stack, povm.stack)

    def test_projective_simulation_checks_its_parts(self, trine):
        scheme = postselection_scheme(trine)
        sim = scheme.as_projective_simulation()
        with pytest.raises(InvariantViolation, match="unit norm"):
            ProjectiveSimulation(sim.weights, 2 * sim.directions, sim.postprocessing, sim.target)
        with pytest.raises(InvariantViolation, match="simulation fidelity"):
            ProjectiveSimulation(sim.weights, sim.directions, sim.postprocessing,
                                 build_mq(trine, 0.25))

    def test_serialization_round_trip(self, trine):
        scheme = postselection_scheme(trine)
        back = PostselectionScheme.from_document(scheme.to_document())
        assert np.allclose(back.weights, scheme.weights)
        assert list(back.parents) == list(scheme.parents)
        assert povm_equal(back.simulated_povm(), scheme.simulated_povm(), atol=1e-12)


class TestSampler:
    def test_tetrahedral_statistics(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        record = sample_postselection(scheme, QuantumState.basis_state(2, 0),
                                      1_000_000, seed=7)
        freqs = record.conditional_frequencies()
        oracle = np.array([0.5, 1 / 6, 1 / 6, 1 / 6])
        assert 0.5 * np.sum(np.abs(freqs - oracle)) < 0.005
        assert abs(record.success_rate - 0.5) < 0.002

    def test_trivial_povm_never_mislabels(self):
        scheme = postselection_scheme(Povm([np.eye(2)]))
        record = sample_postselection(scheme, QuantumState.maximally_mixed(2),
                                      10_000, seed=1)
        counts = record.counts()
        assert counts.shape == (2,)  # outcome 0 and the fail count, nothing else
        assert counts[0] + counts[-1] == 10_000
        assert counts[0] == record.success_count > 0

    def test_determinism(self, trine):
        scheme = postselection_scheme(trine)
        state = QuantumState.maximally_mixed(2)
        a = sample_postselection(scheme, state, 5000, seed=99)
        b = sample_postselection(scheme, state, 5000, seed=99)
        assert np.array_equal(a.counts(), b.counts())

    def test_records_compare_and_hash_by_identity(self, trine):
        # array-valued fields: dataclass field equality and hashing would raise
        scheme = postselection_scheme(trine)
        state = QuantumState.maximally_mixed(2)
        a = sample_postselection(scheme, state, 5000, seed=99)
        b = sample_postselection(scheme, state, 5000, seed=99)
        assert a == a and a != b
        assert hash(a) != hash(b)
        assert len({a, b}) == 2

    def test_fast_path_distribution_matches(self, tetrahedral):
        scheme = postselection_scheme(tetrahedral)
        state = pauli_eigenstates()[2]
        shots = 400_000
        record = sample_postselection(scheme, state, shots, seed=5)
        p = born_probabilities(state, scheme.simulated_povm())
        freqs = record.counts() / shots
        sigma = np.sqrt(p * (1 - p) / shots)
        assert np.all(np.abs(freqs[:5] - p) <= 5 * np.maximum(sigma, 1e-9))

    def test_success_probability_is_state_independent(self, all_fixture_povms):
        # the defining property of a postselection simulation: the kept
        # fraction cannot depend on the input state
        for povm in all_fixture_povms.values():
            scheme = postselection_scheme(povm)
            n = povm.n_outcomes
            rates = []
            for state in pauli_eigenstates():
                p = born_probabilities(state, scheme.simulated_povm())
                rates.append(p[:n].sum())
            assert np.max(np.abs(np.array(rates) - 1 / povm.dim)) < 1e-9

    @pytest.mark.parametrize("name", ["tetrahedral", "trine", "random4"])
    def test_counts_follow_the_closed_form_law(self, name, all_fixture_povms):
        # outcome i with probability tr(M_i rho)/d, failure with 1 - 1/d
        povm = all_fixture_povms[name]
        scheme = postselection_scheme(povm)
        shots = 200_000
        for seed, state in enumerate(pauli_eigenstates()):
            counts = sample_postselection(scheme, state, shots, seed).counts()
            law = np.append(born_probabilities(state, povm) / povm.dim, 1 - 1 / povm.dim)
            assert counts.sum() == shots
            possible = law > 1e-12
            assert np.all(counts[~possible] == 0)
            result = chisquare(counts[possible], shots * law[possible] / law[possible].sum())
            assert result.pvalue > 1e-6, (name, seed, counts, law)

    def test_huge_shot_count_allocates_nothing_per_shot(self, trine):
        shots = 10 ** 12
        record = sample_postselection(postselection_scheme(trine),
                                      QuantumState.basis_state(2, 0), shots, seed=4)
        assert record.shots == shots and int(record.counts().sum()) == shots
        q = 1 / 2
        assert abs(record.success_count - shots * q) <= 5 * np.sqrt(shots * q * (1 - q))

    def test_one_shot(self, tetrahedral):
        record = sample_postselection(postselection_scheme(tetrahedral),
                                      QuantumState.basis_state(2, 1), 1, seed=0)
        assert record.counts().shape == (5,)
        assert record.shots == record.counts().sum() == 1

    def test_orthogonal_state_never_yields_that_component(self, trine):
        scheme = postselection_scheme(trine)
        e = scheme.states[0]
        state = QuantumState.pure([-np.conj(e[1]), np.conj(e[0])])  # <e|state> = 0
        assert list(scheme.parents).count(scheme.parents[0]) == 1
        counts = sample_postselection(scheme, state, 1_000_000, seed=8).counts()
        assert counts[scheme.parents[0]] == 0
        assert np.all(np.delete(counts, scheme.parents[0]) > 0)


class TestHwCovariant:
    def test_completeness_many_fiducials(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4, 5):
            for _ in range(100):
                fiducial = haar_random_pure_state(d, rng)
                povm, _ = hw_covariant_povm(d, fiducial)  # constructor checks sum
                assert povm.n_outcomes == d * d

    def test_zero_fiducial_is_degenerate(self):
        povm, noncommuting = hw_covariant_povm(2, QuantumState.basis_state(2, 0))
        assert not noncommuting
        half_zero = np.diag([0.5, 0.0])
        hits = sum(1 for m in povm.effects if np.max(np.abs(m - half_zero)) < 1e-12)
        assert hits == 2

    def test_generic_fiducial_noncommuting(self):
        povm, noncommuting = hw_covariant_povm(3, haar_random_pure_state(3, 123))
        assert povm.n_outcomes == 9
        assert noncommuting

    def test_d16_smoke(self):
        # every pair is checked for a generic fiducial; a basis fiducial stops early
        povm, noncommuting = hw_covariant_povm(16, haar_random_pure_state(16, 5))
        assert povm.n_outcomes == 256 and noncommuting
        assert not hw_covariant_povm(16, QuantumState.basis_state(16, 0))[1]

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            hw_covariant_povm(3, QuantumState.basis_state(2, 0))


class TestMaxSuccessBound:
    def test_tetrahedral(self, tetrahedral):
        assert max_success_bound_rank_one(tetrahedral) == pytest.approx(0.5)

    def test_hw_covariant_d3(self):
        povm, noncommuting = hw_covariant_povm(3, haar_random_pure_state(3, 7))
        assert noncommuting
        assert max_success_bound_rank_one(povm) == pytest.approx(1 / 3)

    def test_projective_input_rejected(self):
        pm = computational_basis()
        with pytest.raises(ValueError, match="orthogonal"):
            max_success_bound_rank_one(pm)

    def test_full_rank_input_rejected(self):
        povm = Povm([np.eye(2) * 0.4, np.eye(2) * 0.6])
        with pytest.raises(ValueError, match="rank-one"):
            max_success_bound_rank_one(povm)
