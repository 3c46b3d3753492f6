import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from povmsim import simulation
from povmsim.core import (
    MAX_COUNT,
    InvariantViolation,
    Povm,
    QuantumState,
    RankOneParts,
    born_probabilities,
    default_atol,
    haar_random_pure_state,
    pauli_eigenstates,
    random_povm,
    require_distribution,
    require_unit_rows,
)
from povmsim.naimark import dilated_statistics, naimark_dilation
from povmsim.noisy_device import (Circuit, NoiseModel, compare_schemes, naimark_tomography,
                                  postselection_tomography, run_shots)
from povmsim.simulation import (
    PostProcessingMap,
    PostselectionScheme,
    apply_postprocessing,
    build_mq,
    convex_combination,
    hw_covariant_povm,
    max_success_bound_rank_one,
    postselection_scheme,
    rank_one_refinement,
    sample_postselection,
)
from povmsim.usd import random_ensemble_experiment


def computational_basis(dim: int = 2) -> Povm:
    return Povm([np.diag(e) for e in np.eye(dim)])


def single_map_view(scheme: PostselectionScheme) -> Povm:
    """The scheme as one mixture and one deterministic relabelling."""
    merge = PostProcessingMap([*scheme.parents, scheme.fail_index])
    return apply_postprocessing(scheme.mixture(), merge)


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
        # the stored effects are the symmetrized pieces, each piece its own effect
        assert np.max(np.abs(refined.stack - parts.effects())) < 1e-15
        assert np.array_equal(parts.parents, np.arange(12))
        # the merge map sends piece k to the effect k // 2 it was glued into
        assert np.array_equal(merge.matrix.argmax(axis=0), np.arange(12) // 2)
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
        bare = Povm(povm.stack)
        counts = _count_eigensolves(monkeypatch)
        postselection_scheme(povm)
        assert counts["calls"] == 0  # built from its pieces: they are the refinement
        postselection_scheme(bare)
        # refinement eigh (+ rebalance) and the refined POVM's validation; the
        # realized effects are compared with M_{1/d} as stacks, not solved
        assert counts["calls"] <= 3

    def test_d32_scheme_build_is_at_most_three_solves(self, monkeypatch):
        povm = random_povm(32, 64, 5)
        counts = _count_eigensolves(monkeypatch)
        postselection_scheme(povm)
        assert counts["calls"] <= 3

    @pytest.mark.parametrize("d, n, rank, bound",
                             [(32, 64, 1, 0.8 * 2**20), (32, 256, 1, 1.25 * 2**20),
                              (16, 32, 2, 300 * 2**10)])
    def test_scheme_build_traced_peak(self, d, n, rank, bound):
        # a (64, 32, 32) complex stack is 1 MiB, and the check's residual is
        # built for core.BLOCK_ELEMENTS entries (16 parents at d = 32) at a
        # time: the peak stays below one (n, d, d) stack and does not grow
        # fourfold with n, as a whole residual would (1.6 and 6.3 MiB)
        povm = random_povm(d, n, 5, rank=rank)
        tracemalloc.start()
        try:
            postselection_scheme(povm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestSelfRefinement:
    """A POVM that carries its rank-one pieces, or was glued from them, keeps
    them as its refinement; the eigh refinement of its bare stack is the oracle."""

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.integers(1, 8), st.integers(0, 16), st.integers(0, 2**31), st.integers(1, 3))
    @example(1, 0, 0, 1)  # d = 1, one outcome
    @example(8, 16, 1, 1)
    @example(8, 16, 1, 3)
    def test_matches_the_eigh_refinement(self, d, extra, seed, rank):
        povm = random_povm(d, d + extra % (2 * d + 1), seed, rank=rank)
        bare = Povm(povm.stack)
        refined, merge = rank_one_refinement(povm)
        solved, solved_merge = rank_one_refinement(bare)
        assert refined is (povm.glued_from or (povm,))[0]
        if rank == 1:  # the same pieces
            mine, theirs = refined.rank_one, solved.rank_one
            assert np.array_equal(mine.parents, theirs.parents)
            assert np.array_equal(merge.matrix, solved_merge.matrix)
            assert np.max(np.abs(mine.weights - theirs.weights)) <= 1e-12
            projectors = [p.vectors[:, :, None] * p.vectors.conj()[:, None, :]
                          for p in (mine, theirs)]
            assert np.max(np.abs(projectors[0] - projectors[1])) <= 1e-12
            assert postselection_scheme(povm).mixture().allclose(
                postselection_scheme(bare).mixture())
        state = haar_random_pure_state(d, seed)
        born = born_probabilities(state, povm)
        mq = build_mq(povm, 1 / d)
        for target, (pieces, pmap) in ((povm, (refined, merge)), (bare, (solved, solved_merge))):
            # glued back by its merge map, each refinement is the POVM
            assert apply_postprocessing(pieces, pmap).allclose(povm)
            # each scheme's mixture, merged, is M_{1/d}
            assert single_map_view(postselection_scheme(target)).allclose(mq)
            # the dilation of each refinement, merged, reproduces the Born rule
            dilated = pmap.matrix @ dilated_statistics(naimark_dilation(pieces), state)
            assert np.max(np.abs(dilated - born)) <= 1e-9

    @pytest.mark.parametrize("d, n, rank", [(32, 64, 1), (16, 32, 2)])
    def test_rank_one_build_solves_nothing(self, monkeypatch, d, n, rank):
        povm = random_povm(d, n, 5, rank=rank)
        counts = _count_eigensolves(monkeypatch)
        refined, merge = rank_one_refinement(povm)
        postselection_scheme(povm)
        naimark_dilation(refined)
        assert counts["calls"] == 0
        assert refined is (povm if rank == 1 else povm.glued_from[0])
        assert np.array_equal(merge.matrix, np.kron(np.eye(n), np.ones(rank)))

    def test_hw_covariant_pieces_need_no_solve(self, monkeypatch):
        povm = hw_covariant_povm(haar_random_pure_state(3, 7))
        counts = _count_eigensolves(monkeypatch)
        assert rank_one_refinement(povm)[0] is povm
        assert max_success_bound_rank_one(povm) == pytest.approx(1 / 3)
        assert counts["calls"] == 0
        assert np.max(np.abs(povm.stack - povm.rank_one.effects())) <= 1e-15

    def test_a_refinement_refines_to_itself(self, monkeypatch, tetrahedral):
        refined = rank_one_refinement(Povm(random_povm(3, 4, 8, rank=2).stack))[0]
        assert np.array_equal(refined.rank_one.parents, np.arange(refined.n_outcomes))
        counts = _count_eigensolves(monkeypatch)
        again, merge = rank_one_refinement(refined)
        assert counts["calls"] == 0 and again is refined
        assert np.array_equal(merge.matrix, np.eye(refined.n_outcomes))
        # a loaded document carries no pieces: it takes the eigh path
        rank_one_refinement(tetrahedral)
        assert counts["calls"] > 0

    def test_a_piece_at_the_tolerance_takes_the_eigh_path(self, monkeypatch):
        small = default_atol(2) / 2
        basis = np.eye(2, dtype=complex)
        povm = Povm.from_rank_one(RankOneParts(np.array([1.0, 1 - small, small]),
                                               basis[[0, 1, 1]], np.arange(3)))
        counts = _count_eigensolves(monkeypatch)
        refined, merge = rank_one_refinement(povm)
        assert counts["calls"] > 0 and refined is not povm
        assert refined.n_outcomes == 2  # the small piece is dropped and rebalanced away
        assert povm_equal(apply_postprocessing(refined, merge), povm, atol=2 * small)


class TestPostProcessing:
    def test_identity_map(self, trine):
        assert povm_equal(apply_postprocessing(trine, PostProcessingMap(np.arange(3))), trine)

    def test_glue_all_gives_trivial(self, tetrahedral):
        glued = apply_postprocessing(tetrahedral, PostProcessingMap([0, 0, 0, 0], 1))
        assert glued.n_outcomes == 1
        assert np.max(np.abs(glued.effects[0] - np.eye(2))) < 1e-12

    def test_glue_last_two_outcomes(self, tetrahedral):
        # merging the failure and inconclusive slots of a (d+2)-outcome POVM
        d = 2
        mq = build_mq(tetrahedral, 1 / d)  # 5 outcomes
        extended = Povm(list(mq.effects[:4]) + [mq.effects[4] / 2, mq.effects[4] / 2])
        glued = apply_postprocessing(extended, PostProcessingMap([0, 1, 2, 3, 4, 4], 5))
        assert glued.n_outcomes == 5
        assert povm_equal(glued, mq, atol=1e-12)

    def test_linearity_with_convex_combination(self):
        rng = np.random.default_rng(23)
        a = random_povm(2, 3, rng)
        b = random_povm(2, 3, rng)

        def stochastic(povm):  # q(j|k) with columns (1/2, 1/2), (1, 0), (0, 1)
            return convex_combination([(0.5, apply_postprocessing(povm, PostProcessingMap(parents)))
                                       for parents in ([0, 0, 1], [1, 0, 1])])
        lhs = stochastic(convex_combination([(0.3, a), (0.7, b)]))
        rhs = convex_combination([(0.3, stochastic(a)), (0.7, stochastic(b))])
        assert povm_equal(lhs, rhs, atol=1e-12)
        assert povm_equal(lhs, Povm(np.einsum("jk,kab->jab", [[0.5, 1.0, 0.0], [0.5, 0.0, 1.0]],
                                              0.3 * a.stack + 0.7 * b.stack)), atol=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(0, 4), st.integers(1, 4), st.integers(0, 2**31))
    def test_matches_the_dense_matrix_product(self, d, extra, n_out, seed):
        povm = random_povm(d, d + extra, seed)
        pmap = PostProcessingMap(np.random.default_rng(seed).integers(0, n_out, d + extra), n_out)
        dense = np.einsum("jk,kab->jab", pmap.matrix, povm.stack)
        assert np.max(np.abs(apply_postprocessing(povm, pmap).stack - dense)) <= 1e-15

    @pytest.mark.parametrize("assignment, n_out, bad", [([0, -1], None, -1), ([0, 3], 2, 3),
                                                        ([1, -2, 0], 2, -2),
                                                        ([0.5, 1.7], None, 0.5),
                                                        ([True, False], 2, True),
                                                        ([0, True], None, True),
                                                        (np.array([False, True]), 2, False),
                                                        (np.array([0.0, 1.0]), 2, 0.0),
                                                        ([0, 2**70], None, 2**70)])
    def test_deterministic_rejects_an_index_out_of_range(self, assignment, n_out, bad):
        with pytest.raises(ValueError, match=f"assignment index {bad} is not"):
            PostProcessingMap(assignment, n_out)

    @pytest.mark.parametrize("n_out", [2.5, True, np.True_, 0, -1, "3"])
    def test_rejects_an_outcome_count_that_is_not_a_positive_integer(self, n_out):
        with pytest.raises(ValueError, match="n_out must be an integer"):
            PostProcessingMap([0, 1], n_out)

    def test_accepts_a_numpy_outcome_count(self):
        pmap = PostProcessingMap([0, 1], np.int64(3))
        assert pmap.n_out == 3 and pmap.relabel(np.array([1, 2])).tolist() == [1, 2, 0]

    @pytest.mark.parametrize("n_out", [None, 2])
    def test_deterministic_rejects_an_empty_assignment(self, n_out):
        with pytest.raises(ValueError, match="non-empty"):
            PostProcessingMap([], n_out)


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

    @pytest.mark.parametrize("weights, bad", [(["0.5", "0.5"], 0), ([0.0, True], 1),
                                              ([np.True_], 0)])
    def test_bool_and_str_weights_rejected(self, trine, weights, bad):
        # float() parses "0.5" and True, so these would pass as numbers
        with pytest.raises(ValueError, match=f"term {bad} has weight"):
            convex_combination([(w, trine) for w in weights])


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
        assert povm_equal(single_map_view(scheme), build_mq(random4, 0.5), atol=1e-9)

    def test_exact_decomposition_all_fixtures(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            scheme = postselection_scheme(povm)
            target = build_mq(povm, 1 / povm.dim)
            assert povm_equal(single_map_view(scheme), target, atol=1e-9)
            # example 1 mixture shape: the raw mixture already equals M_q for
            # rank-one targets because each component owns one slot
            assert povm_equal(scheme.mixture(), Povm(list(target.effects)), atol=1e-9)

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

    @pytest.mark.parametrize("parents, bad", [([0, 2], 2), ([-1, 1], -1), ([0.2, 1.9], 0.2),
                                              ([False, True], False), ([0.4, 1.6], 0.4)])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_out_of_range_parent_rejected(self, parents, bad, as_array):
        # a list is checked entry by entry, an array by its dtype
        zero, one = np.eye(2, dtype=complex)
        if as_array:
            parents = np.array(parents)
        with pytest.raises(ValueError, match=f"assignment index {bad} is not"):
            PostselectionScheme(computational_basis(), [zero, one], [0.5, 0.5], parents)

    @pytest.mark.parametrize("shape", [(3, 1), ()])
    def test_weights_must_be_a_vector(self, trine, shape):
        scheme = postselection_scheme(trine)
        weights = np.full(shape, 1 / 3)
        with pytest.raises(ValueError, match="weights must be a 1-d vector"):
            PostselectionScheme(trine, scheme.states, weights, scheme.parents)

    @pytest.mark.parametrize("states", [np.eye(3), 1.0])  # a scalar has no length to compare
    def test_state_dimension_checked(self, trine, states):
        with pytest.raises(ValueError, match=r"states must be an \(m, 2\) array"):
            PostselectionScheme(trine, states, [1 / 3] * 3, [0, 1, 2])

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(2, 5), st.integers(0, 4), st.integers(1, 2), st.integers(0, 2**31))
    def test_view_reproduces_mq(self, d, extra, rank, seed):
        povm = random_povm(d, d + extra, seed, rank=rank)
        simulated = single_map_view(postselection_scheme(povm))
        assert np.max(np.abs(simulated.stack - build_mq(povm, 1 / d).stack)) <= 1e-9

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(1, 2), st.integers(0, 2**31),
           st.booleans(), st.sampled_from(["none", "weight", "state"]), st.integers(0, 99),
           st.sampled_from([1e-13, 1e-10, 1e-7, 1e-3, 0.2]))
    def test_blockwise_check_matches_the_stacked_construction(self, d, extra, rank, seed,
                                                              split, kind, k, size):
        povm = random_povm(d, d + extra, seed, rank=rank)
        scheme = postselection_scheme(povm)
        states, weights, parents = map(np.array, (scheme.states, scheme.weights, scheme.parents))
        if split:  # component 0 drawn as two halves: a repeated parent
            states, parents = np.vstack([states, states[:1]]), np.append(parents, parents[0])
            weights = np.append(weights, weights[0] / 2)
            weights[0] /= 2
        order = np.random.default_rng(seed).permutation(len(weights))
        states, weights, parents = states[order], weights[order], parents[order]
        i, j = k % len(weights), (k + 1) % len(weights)
        if kind == "weight":  # moves mass from one component to another
            weights[i] += size
            weights[j] -= size
        elif kind == "state":
            states[i] += size * np.exp(1j * np.arange(d))
            states[i] /= np.linalg.norm(states[i])
        want, stacked = _stacked_outcome(povm, states, weights, parents)
        projectors = states[:, :, None] * states.conj()[:, None, :]
        weighted_projectors = weights[:, None, None] * projectors
        try:  # lists, as the per-entry parents check reads them
            got = PostselectionScheme(povm, states, weights.tolist(), parents.tolist())
        except InvariantViolation as err:
            assert err.invariant == want
        else:
            assert want == "ok"
            assert np.array_equal(got.merge.relabel(weighted_projectors), stacked[:-1])
            assert np.max(np.abs(single_map_view(got).stack - stacked)) <= 1e-15

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(1, 2), st.integers(0, 2**31),
           st.booleans(), st.sampled_from(["none", "weight", "state", "split"]),
           st.sampled_from(["first", "middle", "last"]), st.sampled_from([0.5, 0.9, 1.1, 2.0]),
           st.integers(0, 99), st.integers(0, 35))
    def test_blocked_check_matches_the_unblocked_one(self, d, extra, rank, seed, halves, kind,
                                                     where, factor, pick, spare):
        # the bound patched down to a few d x d blocks: n >= 5 parents span two
        # or more groups and the last group is ragged, with two or more parents.
        # One component of the first, a middle or the last parent is perturbed
        # by factor times the tolerance at first order: "weight" moves mass to
        # another component, "state" turns it, and "split" hands part of its
        # weight to a copy at a neighbouring parent, which moves two "+"
        # blocks and leaves the fail block alone; the last parent's neighbour
        # is the one before it, in the same ragged group
        n = max(d + extra, 5)
        povm = random_povm(d, n, seed, rank=rank)
        scheme = postselection_scheme(povm)
        states, weights, parents = map(np.array, (scheme.states, scheme.weights, scheme.parents))
        if halves:  # component 0 drawn as two halves: a repeated parent
            states, parents = np.vstack([states, states[:1]]), np.append(parents, parents[0])
            weights = np.append(weights, weights[0] / 2)
            weights[0] /= 2
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(weights))
        states, weights, parents = states[order], weights[order], parents[order]
        groups = [g for g in range(2, n) if n % g >= 2]
        group = groups[pick % len(groups)]
        parent = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        i = int(np.flatnonzero(parents == parent)[0])
        e = states[i].copy()
        if kind == "weight":
            j = (i + 1) % len(weights)
            pi, pj = (np.outer(v, v.conj()) for v in (e, states[j]))
            changes = [pi - pj] + ([pi, pj] if parents[j] != parent else [])
            size = max(np.max(np.abs(c)) for c in changes)
            if size > 1e-12:  # not the other half of a halved component
                weights[i] += factor * povm.atol / size
                weights[j] -= factor * povm.atol / size
        elif kind == "state":
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u -= np.vdot(e, u) * e
            u /= np.linalg.norm(u)
            tangent = weights[i] * (np.outer(u, e.conj()) + np.outer(e, u.conj()))
            turned = e + factor * povm.atol / np.max(np.abs(tangent)) * u
            states[i] = turned / np.linalg.norm(turned)
        elif kind == "split":
            part = factor * povm.atol / np.max(np.abs(np.outer(e, e.conj())))
            states, weights = np.vstack([states, e]), np.append(weights, part)
            weights[i] -= part
            parents = np.append(parents, parent - 1 if where == "last" else parent + 1)
        want = _unblocked_deviation(povm, states, weights, parents)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "BLOCK_ELEMENTS", group * d * d + spare % (d * d))
            try:
                PostselectionScheme(povm, states, weights, parents)
            except InvariantViolation as err:
                assert err.invariant == "postselection construction"
                assert err.deviation == want
            else:
                assert want <= povm.atol
        if kind == "split":  # the two moved "+" blocks alone see it
            assert (want > povm.atol) == (factor > 1)

    @pytest.mark.parametrize("d, n, rank", [(16, 32, 2), (32, 64, 1)])
    @pytest.mark.parametrize("kind", ["turn", "weight", "split"])
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("permuted", [False, True])
    def test_check_at_benchmark_sizes_matches_the_stacked_construction(self, d, n, rank, kind,
                                                                       factor, permuted):
        # one component perturbed by factor * atol: "turn" rotates its state
        # towards a unit u orthogonal to it, moving its "+" block and the fail
        # block by that much at first order; "weight" raises its weight, moving
        # the fail block by that much and its "+" block by less; "split" hands
        # part of its weight to a copy with the next parent, moving two "+"
        # blocks by that much and the fail block not at all
        povm = random_povm(d, n, 90 + d, rank=rank)
        scheme = postselection_scheme(povm)
        states, weights, parents = map(np.array, (scheme.states, scheme.weights, scheme.parents))
        rng = np.random.default_rng(d)
        if permuted:  # unsorted parents
            order = rng.permutation(len(weights))
            states, weights, parents = states[order], weights[order], parents[order]
            assert np.any(np.diff(parents) < 0)
        i = len(weights) // 2
        e = states[i].copy()
        if kind == "turn":
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u -= np.vdot(e, u) * e
            u /= np.linalg.norm(u)
            tangent = weights[i] * (np.outer(u, e.conj()) + np.outer(e, u.conj()))
            turned = e + factor * povm.atol / np.max(np.abs(tangent)) * u
            states[i] = turned / np.linalg.norm(turned)
        elif kind == "weight":
            weights[i] += factor * povm.atol / np.max(np.abs(np.eye(d) - np.outer(e, e.conj())))
        else:
            part = factor * povm.atol / np.max(np.abs(np.outer(e, e.conj())))
            states, weights = np.vstack([states, e]), np.append(weights, part)
            weights[i] -= part
            parents = np.append(parents, (parents[i] + 1) % povm.n_outcomes)
        want, stacked = _stacked_outcome(povm, states, weights, parents)
        assert (want == "ok") == (factor < 1)
        args = povm, states, weights.tolist(), parents.tolist()
        if want == "ok":
            got = PostselectionScheme(*args)
            assert np.array_equal(got.parents, parents) and np.array_equal(got.states, states)
            return
        with pytest.raises(InvariantViolation) as err:
            PostselectionScheme(*args)
        assert err.value.invariant == want
        if stacked is not None:  # the weights passed: the deviation is the construction's
            expected = np.concatenate([povm.stack / d, [(1 - 1 / d) * np.eye(d)]])
            assert abs(err.value.deviation - np.max(np.abs(stacked - expected))) <= 1e-15

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2),
           st.integers(0, 2**31), st.lists(st.integers(1, 4), max_size=4),
           st.sampled_from(["none", "weight", "total", "state", "misroute"]),
           st.sampled_from([0.5, 0.9, 1.1, 2.0]))
    @example(1, 0, 1, 1, 0, [2], "weight", 0.9)
    @example(2, 1, 2, 2, 1, [3, 1, 2], "misroute", 1.0)
    def test_small_dimension_check_matches_the_stacked_construction(
            self, d, extra, rank, zeros, seed, splits, kind, factor):
        # the target's inserted zero effects are parents no component names;
        # splitting component k into splits[k] equal parts makes the groups
        # uneven, and a permutation leaves them unsorted.  "weight" moves
        # mass between two components, "total" adds mass to one, which moves
        # the weights' sum and the fail block, and "state" turns one, each by
        # factor times the tolerance at first order; "misroute" hands one
        # parent's components to the next parent, which leaves a nonzero
        # effect with no component
        rng = np.random.default_rng(seed)
        stack = random_povm(d, d + extra, seed, rank=rank).stack
        target = Povm(np.insert(stack, rng.integers(0, len(stack) + 1, zeros), 0, axis=0))
        scheme = postselection_scheme(target)
        parts = np.ones(scheme.n_components, dtype=int)
        parts[:len(splits)] = splits[:len(parts)]
        order = rng.permutation(parts.sum())
        states = np.repeat(scheme.states, parts, axis=0)[order]
        weights = np.repeat(scheme.weights / parts, parts)[order]
        parents = np.repeat(scheme.parents, parts)[order]
        i, j = rng.integers(len(weights), size=2)
        projector = [np.outer(states[k], states[k].conj()) for k in (i, j)]
        expect = "ok"
        if kind == "weight":
            change = [projector[0] - projector[1]]
            if parents[i] != parents[j]:
                change += projector
            size = max(np.max(np.abs(c)) for c in change)
            if size > 1e-12:
                weights[i] += factor * target.atol / size
                weights[j] -= factor * target.atol / size
                expect = "ok" if factor < 1 else "postselection construction"
        elif kind == "total" and d > 1:
            size = factor * target.atol / max(np.max(np.abs(projector[0])),
                                               np.max(np.abs(np.eye(d) - projector[0])))
            weights[i] += size
            expect = ("weight normalization" if size > default_atol(len(weights))
                      else "ok" if factor < 1 else "postselection construction")
        elif kind == "state" and d > 1:
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u -= np.vdot(states[i], u) * states[i]
            u /= np.linalg.norm(u)
            tangent = weights[i] * (np.outer(u, states[i].conj()) + np.outer(states[i], u.conj()))
            states[i] += factor * target.atol / np.max(np.abs(tangent)) * u
            states[i] /= np.linalg.norm(states[i])
            expect = "ok" if factor < 1 else "postselection construction"
        elif kind == "misroute" and target.n_outcomes > 1:
            parents[parents == parents[i]] = (parents[i] + 1) % target.n_outcomes
            expect = "postselection construction"
        want, stacked = _stacked_outcome(target, states, weights, parents)
        assert want == expect
        try:
            PostselectionScheme(target, states, weights, parents)
        except InvariantViolation as err:
            assert err.invariant == want
            if stacked is not None:  # the weights passed: the deviation is the construction's
                expected = np.concatenate([target.stack / d, [(1 - 1 / d) * np.eye(d)]])
                assert abs(err.deviation - np.max(np.abs(stacked - expected))) <= 1e-15
        else:
            assert want == "ok"

    def test_parts_of_another_target_rejected(self, trine, tetrahedral):
        # the trine's valid mixture, declared to realize the tetrahedral POVM
        scheme = postselection_scheme(trine)
        with pytest.raises(InvariantViolation) as err:
            PostselectionScheme(tetrahedral, scheme.states, scheme.weights, scheme.parents)
        assert err.value.invariant == "postselection construction"


class TestRelabel:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(1, 4), st.integers(0, 3), st.integers(1, 3), st.integers(0, 3),
           st.integers(0, 2**31), st.sampled_from(["effects", "counts", "table"]),
           st.booleans())
    @example(1, 0, 1, 0, 0, "effects", False)  # d = 1, one outcome: one component
    @example(1, 0, 1, 0, 1, "counts", False)
    @example(1, 0, 1, 2, 2, "table", False)
    @example(1, 0, 1, 2, 3, "counts", True)
    def test_matches_a_loop_bit_for_bit(self, d, extra, rank, zeros, seed, kind, strided):
        # rank > 1 repeats parents; the zero effects are parents no component names;
        # a strided call relabels a read-only view of every other row of a larger
        # draw into a new array
        rng = np.random.default_rng(seed)
        stack = random_povm(d, d + extra, seed, rank=rank).stack
        target = Povm(np.insert(stack, rng.integers(0, len(stack) + 1, zeros), 0, axis=0))
        scheme = postselection_scheme(target)

        def draw(rows):
            if kind == "effects":
                return rng.normal(size=(rows, d, d)) + 1j * rng.normal(size=(rows, d, d))
            return rng.integers(0, 2**40, rows) if kind == "counts" else rng.normal(size=(rows, 6))

        if strided:
            plus = draw(2 * scheme.n_components)[::2]
            plus.setflags(write=False)
        else:
            plus = draw(scheme.n_components)
        want = np.zeros((target.n_outcomes, *plus.shape[1:]), dtype=plus.dtype)
        for k in range(scheme.n_components):
            want[scheme.parents[k]] += plus[k]
        got = scheme.merge.relabel(plus)
        assert got.dtype == plus.dtype
        assert np.array_equal(got, want)
        assert got.flags.writeable and not np.shares_memory(got, plus)

    def test_wrong_length_raises(self, trine):
        scheme = postselection_scheme(trine)
        for m in (scheme.n_components - 1, scheme.n_components + 1):
            with pytest.raises(ValueError):
                scheme.merge.relabel(np.ones(m, dtype=np.int64))


def _unblocked_deviation(target, states, weights, parents):
    """The construction check's deviation with every parent's block in one
    batched product, as the check computed it before it was blocked."""
    d = target.dim
    order = np.argsort(parents, kind="stable")
    grouped = parents[order]
    slots = np.arange(len(order)) - np.searchsorted(grouped, grouped)
    rows = np.zeros((target.n_outcomes, slots.max() + 1, d), dtype=complex)
    scaled = np.zeros(rows.shape[:2])
    rows[grouped, slots] = states[order]
    scaled[grouped, slots] = d * weights[order]
    blocks = (rows.transpose(0, 2, 1) * scaled[:, None, :]) @ rows.conj()
    blocks -= target.stack
    fail = (states.T * -weights) @ states.conj()
    fail.flat[::d + 1] += weights.sum() - 1 + 1 / d
    return max(float(abs(blocks).max()) / d, float(abs(fail).max()))


def _stacked_outcome(target, states, weights, parents):
    """The construction check as it stood before the blockwise one: the
    binary mixture as one stack, its "+" pieces added into their parents'
    slots, against M_{1/d} concatenated into one stack.  The invariant it
    raised ("ok" if none) and the realized stack."""
    try:
        weights = require_distribution(weights, default_atol(len(weights)), "weight")
        require_unit_rows(states, "direction")
    except InvariantViolation as err:
        return err.invariant, None
    q = 1.0 / target.dim
    projs = states[:, :, None] * states.conj()[:, None, :]
    w = weights[:, None, None]
    complements = (w * (np.eye(target.dim) - projs)).sum(axis=0)
    mixture = np.concatenate([w * projs, [complements]])
    realized = np.zeros((target.n_outcomes + 1, target.dim, target.dim), dtype=complex)
    np.add.at(realized, parents, mixture[:-1])
    realized[-1] = mixture[-1]
    expected = np.concatenate([q * target.stack, [(1 - q) * np.eye(target.dim)]])
    dev = float(np.max(np.abs(realized - expected)))
    return ("ok" if dev <= target.atol else "postselection construction"), realized


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
        p = born_probabilities(state, single_map_view(scheme))
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
                p = born_probabilities(state, single_map_view(scheme))
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

    def test_mixed_state_counts_follow_the_closed_form_law(self):
        # a rank-2 density matrix at d = 8 against a rank-2 POVM
        d = 8
        povm = random_povm(d, 16, 28, rank=2)
        scheme = postselection_scheme(povm)
        a, b = haar_random_pure_state(d, 1), haar_random_pure_state(d, 2)
        state = QuantumState.density(0.7 * a.rho + 0.3 * b.rho)
        assert state.vector is None and np.linalg.matrix_rank(state.rho, tol=1e-9) == 2
        shots = 200_000
        law = np.append(born_probabilities(state, povm) / d, 1 - 1 / d)
        for seed in range(3):
            counts = sample_postselection(scheme, state, shots, seed).counts()
            assert counts.sum() == shots
            result = chisquare(counts, shots * law / law.sum())
            assert result.pvalue > 1e-6, (seed, counts, law)

    @pytest.mark.parametrize("shots", [10.5, 10.0, True, np.True_, "10", 0, -3, np.int64(0)])
    @pytest.mark.parametrize("sample", [
        lambda povm, n: sample_postselection(postselection_scheme(povm),
                                             QuantumState.basis_state(2, 0), n, seed=4),
        lambda povm, n: run_shots(Circuit(1), QuantumState.basis_state(2, 0), NoiseModel(),
                                  n, seed=4),
        lambda povm, n: postselection_tomography(postselection_scheme(povm), NoiseModel(), n,
                                                 seed=4),
        lambda povm, n: naimark_tomography(povm, NoiseModel(), n, seed=4),
        lambda povm, n: random_ensemble_experiment(2, 3, n, seed=4),
    ], ids=["sample_postselection", "run_shots", "postselection_tomography",
            "naimark_tomography", "random_ensemble_experiment"])
    def test_rejects_a_shot_count_that_is_not_a_positive_integer(self, trine, sample, shots):
        with pytest.raises(ValueError, match="(shots|trials) must be an integer of at least 1"):
            sample(trine, shots)

    @pytest.mark.parametrize("shots", [2 ** 63, np.uint64(2 ** 63), 10 ** 30])
    @pytest.mark.parametrize("sample", [
        lambda povm, n: sample_postselection(postselection_scheme(povm),
                                             QuantumState.basis_state(2, 0), n, seed=4),
        lambda povm, n: run_shots(Circuit(1), QuantumState.basis_state(2, 0), NoiseModel(),
                                  n, seed=4),
        lambda povm, n: postselection_tomography(postselection_scheme(povm), NoiseModel(), n,
                                                 seed=4),
        lambda povm, n: naimark_tomography(povm, NoiseModel(), n, seed=4),
        # the postselection route ran on a clamped allocation before the Naimark route failed
        lambda povm, n: compare_schemes(povm, NoiseModel(), n, seed=4),
    ], ids=["sample_postselection", "run_shots", "postselection_tomography",
            "naimark_tomography", "compare_schemes"])
    def test_rejects_a_shot_count_past_the_int64_samplers(self, trine, sample, shots):
        with pytest.raises(ValueError, match=f"shots must be at most {MAX_COUNT}, got"):
            sample(trine, shots)

    @pytest.mark.parametrize("shots", [7, np.int64(7), np.uint16(7)])
    def test_accepts_python_and_numpy_integers(self, trine, shots):
        record = sample_postselection(postselection_scheme(trine),
                                      QuantumState.basis_state(2, 0), shots, seed=4)
        assert record.shots == 7 and record.counts().dtype.kind == "i"

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


def commutator_scan(effects, d):
    """Whether no two of ``effects`` commute, scanning their commutators row
    by row against default_atol(d): an oracle that builds no Gram matrix."""
    for i in range(len(effects) - 1):
        rest = effects[i + 1:]
        if np.any(np.abs(effects[i] @ rest - rest @ effects[i]).max(axis=(1, 2))
                  <= default_atol(d)):
            return False
    return True


def weyl_eigenvectors(d):
    """The computational basis and the eigenvectors of every X^a Z^b != 1."""
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    shift = np.roll(np.eye(d), 1, axis=0)
    ops = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
           for a in range(d) for b in range(d) if a or b]
    return [*np.eye(d), *(v for w in ops for v in np.linalg.eig(w)[1].T)]


def bound_applies(povm) -> bool:
    """Whether the 1/d witness accepts ``povm``: it raises on an orthogonal pair."""
    try:
        max_success_bound_rank_one(povm)
    except ValueError as err:
        assert "orthogonal" in str(err)
        return False
    return True


class TestHwCovariant:
    def test_completeness_many_fiducials(self):
        rng = np.random.default_rng(31)
        for d in (2, 3, 4, 5):
            for _ in range(100):
                fiducial = haar_random_pure_state(d, rng)
                povm = hw_covariant_povm(fiducial)  # constructor checks sum
                assert povm.n_outcomes == d * d

    def test_zero_fiducial_is_degenerate(self):
        povm = hw_covariant_povm(QuantumState.basis_state(2, 0))
        assert not bound_applies(povm)
        half_zero = np.diag([0.5, 0.0])
        hits = sum(1 for m in povm.effects if np.max(np.abs(m - half_zero)) < 1e-12)
        assert hits == 2

    def test_generic_fiducial_noncommuting(self):
        povm = hw_covariant_povm(haar_random_pure_state(3, 123))
        assert povm.n_outcomes == 9
        assert bound_applies(povm)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_flag_matches_the_commutator_scan(self, d):
        # Haar fiducials make every pair non-commuting; a Weyl eigenvector makes
        # parallel and orthogonal pairs, which commute.  Rank-one projectors commute
        # iff orthogonal or parallel, and a parallel pair in an orbit makes the
        # fiducial a Weyl eigenvector, hence gives an orthogonal pair too: so the
        # witness raises exactly when the scan finds a commuting pair
        rng = np.random.default_rng(60 + d)
        haar = [haar_random_pure_state(d, rng) for _ in range(20)]
        eigen = [QuantumState.pure(v / np.linalg.norm(v)) for v in weyl_eigenvectors(d)]
        for fiducials, want in ((haar, True), (eigen, False)):
            for fiducial in fiducials:
                povm = hw_covariant_povm(fiducial)
                assert bound_applies(povm) == commutator_scan(povm.stack, d) == want

    def test_d16_smoke(self):
        # one 256 x 256 Gram matrix of the kept pieces decides either fiducial
        povm = hw_covariant_povm(haar_random_pure_state(16, 5))
        assert povm.n_outcomes == 256 and bound_applies(povm)
        assert not bound_applies(hw_covariant_povm(QuantumState.basis_state(16, 0)))


class TestMaxSuccessBound:
    def test_tetrahedral(self, tetrahedral):
        assert max_success_bound_rank_one(tetrahedral) == pytest.approx(0.5)

    def test_hw_covariant_d3(self):
        povm = hw_covariant_povm(haar_random_pure_state(3, 7))
        assert max_success_bound_rank_one(povm) == pytest.approx(1 / 3)

    def test_projective_input_rejected(self):
        pm = computational_basis()
        with pytest.raises(ValueError, match="orthogonal"):
            max_success_bound_rank_one(pm)

    def test_full_rank_input_rejected(self):
        # a glued POVM's kept pieces are not its own
        for povm in (Povm([np.eye(2) * 0.4, np.eye(2) * 0.6]), random_povm(4, 6, 8, rank=2)):
            with pytest.raises(ValueError, match="rank-one"):
                max_success_bound_rank_one(povm)
