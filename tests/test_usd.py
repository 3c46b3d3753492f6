import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim import usd
from povmsim.core import (
    ORTHOGONALITY_ATOL,
    InvariantViolation,
    Povm,
    QuantumState,
    default_atol,
    haar_random_pure_state,
    haar_random_unitary,
    haar_random_vectors,
    min_eigenvalue,
    orthogonality_graph,
    random_povm,
)
from povmsim.simulation import PostProcessingMap, apply_postprocessing, build_mq
from povmsim.usd import (
    UNAMBIGUITY_ATOL,
    Ensemble,
    RandomEnsembleExperiment,
    dual_states,
    ensemble_from_document,
    ensemble_to_document,
    equal_probability_measurement,
    usd_advantage_bound,
    projective_simulable_optimum,
    projective_simulable_optimum_by_search,
    random_ensemble_experiment,
    symmetric_ensemble,
    symmetric_ensemble_from_gap,
    usd_success,
)


def haar_ensemble(n, dim, seed):
    rng = np.random.default_rng(seed)
    states = np.array([haar_random_pure_state(dim, rng).vector for _ in range(n)])
    return Ensemble(states)


#: states whose overlaps .25, .5 and .5 are all non-zero, yet (C^{-1})_01 = 0
CHOLESKY_STATES = np.linalg.cholesky([[1, .25, .5], [.25, 1, .5], [.5, .5, 1]])


def exhaustive_projective_optimum(ensemble):
    """The projective-simulable optimum by brute force over subsets of the
    states: each dual is the null space of the other states' overlaps within
    the span (QR + SVD, no Gram inversion), a subset counts when its unit
    duals are mutually orthogonal, and it scores sum p_i |<phi_i|psi_i>|^2.
    Returns the best score, its subset and the unit duals."""
    span, _ = np.linalg.qr(ensemble.states.T)
    duals = []
    for i in range(ensemble.n_states):
        constraints = np.delete(ensemble.states, i, axis=0).conj() @ span
        direction = span @ np.linalg.svd(constraints)[2][-1].conj()
        duals.append(direction / np.linalg.norm(direction))
    duals = np.array(duals)
    scores = ensemble.probs * np.abs(np.sum(duals.conj() * ensemble.states, axis=1)) ** 2
    overlaps = np.abs(duals.conj() @ duals.T)
    best = (0.0, ())
    for size in range(1, ensemble.n_states + 1):
        for subset in itertools.combinations(range(ensemble.n_states), size):
            if all(overlaps[i, j] <= ORTHOGONALITY_ATOL
                   for i, j in itertools.combinations(subset, 2)):
                best = max(best, (float(scores[list(subset)].sum()), subset))
    return (*best, duals)


def planted_ensemble(n, extra, density, seed):
    """n states in dimension n + extra whose C^{-1} has zeros planted with the
    given density: a diagonally dominant B, normalised to unit states, with
    Dirichlet priors."""
    rng = np.random.default_rng(seed)
    b = np.triu(rng.uniform(-1, 1, (n, n)) * (rng.random((n, n)) < density), k=1)
    b = b + b.T
    b += np.diag(1 + np.abs(b).sum(axis=1))
    c = np.linalg.inv(b)
    c /= np.sqrt(np.outer(np.diag(c), np.diag(c)))
    states = np.hstack([np.linalg.cholesky(c), np.zeros((n, extra))])
    states = states @ haar_random_unitary(n + extra, rng).T
    return Ensemble(states, probs=rng.dirichlet(np.ones(n)))


def clique_measurement(ensemble, subset, duals):
    """The projective measurement detecting the states of ``subset`` along
    their duals, every other outcome empty and the rest inconclusive."""
    effects = np.zeros((ensemble.n_states + 1, ensemble.space_dim, ensemble.space_dim),
                       dtype=complex)
    for i in subset:
        effects[i] = np.outer(duals[i], duals[i].conj())
    effects[-1] = np.eye(ensemble.space_dim) - effects.sum(axis=0)
    return Povm(effects)


class TestUsdSuccess:
    def test_orthonormal_with_basis_measurement(self):
        ensemble = Ensemble(np.eye(3, dtype=complex))
        effects = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0]),
                   np.zeros((3, 3))]
        result = usd_success(ensemble, Povm(effects))
        assert result.success == pytest.approx(1.0)
        assert result.unambiguous

    def test_always_inconclusive(self):
        ensemble = haar_ensemble(3, 3, 0)
        z = np.zeros((3, 3))
        result = usd_success(ensemble, Povm([z, z, z, np.eye(3)]))
        assert result.success == 0.0
        assert result.unambiguous

    def test_violation_reporting(self):
        ensemble = Ensemble(np.eye(2, dtype=complex))
        # detect state 0 with the wrong projector: cross terms fire
        effects = [np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((2, 2))]
        result = usd_success(ensemble, Povm(effects))
        assert not result.unambiguous
        assert result.violations == ((0, 1, 1.0), (1, 0, 1.0))

    def test_matches_a_double_loop(self):
        rng = np.random.default_rng(17)
        cases = []
        for n, dim in ((3, 3), (4, 6)):
            states = haar_random_vectors(n, dim, rng)
            cases.append((Ensemble(states, rng.dirichlet(np.ones(n))),
                          random_povm(dim, n + 1, rng, rank=2)))
        # rotated diagonal effects with zeros: some cross terms vanish, some do not
        n = 4
        table = rng.dirichlet(np.ones(n + 1), size=n) * (rng.random((n, n + 1)) < 0.6)
        table[:, n] += 1 - table.sum(axis=1)
        u = haar_random_unitary(n, rng)
        cases.append((Ensemble(u.T), Povm([u @ np.diag(col) @ u.conj().T for col in table.T])))
        for ensemble, povm in cases:
            success, violations = 0.0, []
            for i, psi in enumerate(ensemble.states):
                for j in range(ensemble.n_states):
                    value = np.vdot(psi, povm[j] @ psi).real
                    if i == j:
                        success += ensemble.probs[i] * value
                    elif value > UNAMBIGUITY_ATOL:
                        violations.append((i, j, value))
            result = usd_success(ensemble, povm)
            assert result.success == pytest.approx(success, abs=1e-12)
            assert [v[:2] for v in result.violations] == [v[:2] for v in violations]
            assert np.allclose([v[2] for v in result.violations], [v[2] for v in violations],
                               rtol=0, atol=1e-12)
        assert 0 < len(violations) < n * (n - 1)

    def test_outcome_count_mismatch(self):
        ensemble = Ensemble(np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="outcomes"):
            usd_success(ensemble, Povm([np.eye(2)]))


class TestEqualProbabilityMeasurement:
    def test_orthonormal_states(self):
        ensemble = Ensemble(np.eye(4, dtype=complex))
        povm = equal_probability_measurement(ensemble)
        for i in range(4):
            want = np.zeros((4, 4))
            want[i, i] = 1.0
            assert np.max(np.abs(povm.effects[i] - want)) < 1e-12
        assert np.max(np.abs(povm.effects[4])) < 1e-12
        assert usd_success(ensemble, povm).success == pytest.approx(1.0)

    def test_success_equals_min_gram_eigenvalue(self):
        for seed, (n, dim) in enumerate([(3, 3), (4, 4), (4, 7), (2, 2)]):
            ensemble = haar_ensemble(n, dim, seed)
            povm = equal_probability_measurement(ensemble)
            result = usd_success(ensemble, povm)
            assert result.unambiguous
            assert result.success == pytest.approx(min_eigenvalue(ensemble.gram()), abs=1e-10)

    def test_detection_probabilities_equal(self):
        ensemble = haar_ensemble(4, 5, 12)
        povm = equal_probability_measurement(ensemble)
        detections = [np.vdot(s, povm.effects[i] @ s).real
                      for i, s in enumerate(ensemble.states)]
        assert np.max(detections) - np.min(detections) < 1e-10

    def test_rejects_dependent_states(self):
        v = haar_random_pure_state(3, 1).vector
        states = np.array([v, v, haar_random_pure_state(3, 2).vector])
        ensemble = Ensemble(states)
        with pytest.raises(InvariantViolation, match="independence"):
            equal_probability_measurement(ensemble)

    def test_rejects_non_uniform_priors(self):
        ensemble = Ensemble(np.eye(2, dtype=complex), probs=[0.7, 0.3])
        with pytest.raises(ValueError, match="uniform"):
            equal_probability_measurement(ensemble)

    def test_dual_states_condition_number(self):
        ensemble = haar_ensemble(3, 3, 5)
        duals, cond = dual_states(ensemble)
        assert cond >= 1.0
        overlap = duals.conj() @ ensemble.states.T
        assert np.max(np.abs(overlap - np.eye(3))) < 1e-10


class TestProjectiveSimulableOptimum:
    def test_two_state_closed_form(self):
        for s in (0.2, 0.5, 0.9):
            states = np.array([[1, 0], [s, np.sqrt(1 - s**2)]], dtype=complex)
            value = projective_simulable_optimum(Ensemble(states))
            assert value == pytest.approx(0.5 * (1 - s**2), abs=1e-12)

    def test_uniform_caps_at_one_over_d(self):
        for seed in range(5):
            ensemble = haar_ensemble(4, 6, seed + 40)
            value = projective_simulable_optimum(ensemble)
            assert value <= 1 / 4 + 1e-9

    def test_bounded_by_max_prior(self):
        states = haar_ensemble(3, 4, 77).states
        ensemble = Ensemble(states, probs=[0.5, 0.3, 0.2])
        assert projective_simulable_optimum(ensemble) <= 0.5 + 1e-12

    def test_near_orthogonal_pair_matches_the_exhaustive_search(self):
        eps = 1e-12
        ensemble = Ensemble(np.array([[1, 0, 0], [eps, np.sqrt(1 - eps**2), 0],
                                      [0.5, 0.5, np.sqrt(0.5)]], dtype=complex))
        best, subset, _ = exhaustive_projective_optimum(ensemble)
        assert len(subset) == 1
        assert projective_simulable_optimum(ensemble) == pytest.approx(best, abs=1e-12)

    def test_orthogonal_duals_are_detected_together(self):
        # the bug this rule mends: max_i p_i / (C^{-1})_ii gave 0.25 here
        ensemble = Ensemble(CHOLESKY_STATES)
        best, subset, duals = exhaustive_projective_optimum(ensemble)
        assert subset == (0, 1) and best == pytest.approx(0.5, abs=1e-15)
        assert projective_simulable_optimum(ensemble) == pytest.approx(0.5, abs=1e-15)
        result = usd_success(ensemble, clique_measurement(ensemble, subset, duals))
        assert result.unambiguous and result.success == pytest.approx(0.5, abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.integers(2, 7), st.integers(0, 2), st.floats(0.0, 1.0), st.integers(0, 2**31))
    def test_planted_orthogonal_duals_match_the_exhaustive_search(self, n, extra, density,
                                                                   seed):
        ensemble = planted_ensemble(n, extra, density, seed)
        best, subset, duals = exhaustive_projective_optimum(ensemble)
        p_sp = projective_simulable_optimum(ensemble)
        assert p_sp == pytest.approx(best, abs=1e-12)
        singles = ensemble.probs * np.abs(np.sum(duals.conj() * ensemble.states, axis=1)) ** 2
        assert singles.max() - 1e-12 <= p_sp <= 1 + 1e-12
        result = usd_success(ensemble, clique_measurement(ensemble, subset, duals))
        assert result.unambiguous and result.success == pytest.approx(p_sp, abs=1e-12)

    def test_clique_search_cap_is_named(self, monkeypatch):
        # the empty clique is the one extended when no two duals are orthogonal
        monkeypatch.setattr(usd, "MAX_CLIQUE_BRANCHES", 1)
        ensemble = haar_ensemble(4, 6, 40)
        assert projective_simulable_optimum(ensemble) == pytest.approx(
            projective_simulable_optimum_by_search(ensemble), abs=1e-12)
        with pytest.raises(ValueError, match="MAX_CLIQUE_BRANCHES = 1"):
            projective_simulable_optimum(Ensemble(CHOLESKY_STATES))

    def test_orthonormal_states_are_measured_directly(self):
        assert projective_simulable_optimum(Ensemble(np.eye(4))) == 1.0

    def test_agreement_with_structural_search(self):
        for seed in range(8):
            n = 2 + seed % 3
            ensemble = haar_ensemble(n, n + seed % 2, seed + 60)
            a = projective_simulable_optimum(ensemble)
            b = projective_simulable_optimum_by_search(ensemble)
            assert a == pytest.approx(b, abs=1e-10)


class TestOrthogonalityGraph:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(2, 7), st.integers(0, 2), st.floats(0.0, 1.0), st.integers(0, 2**31))
    def test_matches_overlaps_and_null_space_duals(self, n, extra, density, seed):
        # unit vectors with coordinates zeroed at random: disjoint supports are orthogonal
        rng = np.random.default_rng(seed)
        vectors = haar_random_vectors(n, n + extra, rng) * (rng.random((n, n + extra)) < 0.5)
        vectors[:, 0] += np.all(vectors == 0, axis=1)
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        ensemble = planted_ensemble(n, extra, density, seed)
        duals = exhaustive_projective_optimum(ensemble)[2]
        for gram, unit_rows in ((vectors.conj() @ vectors.T, vectors),
                                (np.linalg.inv(ensemble.gram()), duals)):
            graph = orthogonality_graph(gram)
            assert np.array_equal(graph, graph.T)
            assert np.array_equal(graph, np.abs(unit_rows.conj() @ unit_rows.T)
                                  <= ORTHOGONALITY_ATOL)


class TestSymmetricEnsembles:
    def test_fourier_case_is_orthonormal(self):
        ens = symmetric_ensemble(np.ones(3))
        assert np.max(np.abs(ens.gram() - np.eye(3))) < 1e-12
        assert ens.exact_optimum == pytest.approx(1.0)

    def test_explicit_magnitudes(self):
        ens = symmetric_ensemble(np.sqrt([0.9, 0.9, 1.2]))
        assert ens.exact_optimum == pytest.approx(0.9)
        assert usd_success(ens, equal_probability_measurement(ens)).success == \
            pytest.approx(0.9, abs=1e-10)

    def test_gap_parametrization(self):
        ens = symmetric_ensemble_from_gap(4, 0.1)
        assert ens.exact_optimum == pytest.approx(0.9)

    def test_gram_eigenvalues_are_coefficient_magnitudes(self):
        rng = np.random.default_rng(8)
        mags = rng.random(5) + 0.2
        mags *= 5 / mags.sum()
        ens = symmetric_ensemble(np.sqrt(mags))
        evs = np.sort(np.linalg.eigvalsh(ens.gram()))
        assert np.allclose(evs, np.sort(mags), atol=1e-10)

    def test_normalization_enforced(self):
        with pytest.raises(InvariantViolation, match="normalization"):
            symmetric_ensemble(np.ones(3) * 0.9)

    def test_nan_coefficient_breaks_normalization(self):
        # named as the coefficient invariant, not later as a non-finite state
        with pytest.raises(InvariantViolation) as err:
            symmetric_ensemble([np.nan, 1.0])
        assert err.value.invariant == "coefficient positivity"

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            symmetric_ensemble([np.sqrt(2), 0.0])

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            symmetric_ensemble_from_gap(3, 0.0)


class TestAdvantageBound:
    def test_symmetric_band(self):
        d, eps = 8, 0.05
        ens = symmetric_ensemble_from_gap(d, eps)
        bound = usd_advantage_bound(ens)
        assert bound.bound_ok
        assert d * (1 - eps) - 1e-9 <= bound.ratio <= d + 1e-9

    def test_orthonormal_ratio_one(self):
        bound = usd_advantage_bound(Ensemble(np.eye(4, dtype=complex)))
        assert bound.p_povm_lower == pytest.approx(1.0)
        assert bound.p_sp == pytest.approx(1.0)
        assert bound.ratio == pytest.approx(1.0)
        assert bound.bound_ok

    @pytest.mark.parametrize("third, p_sp", [([np.sqrt(0.5), 0, np.sqrt(0.5)], 0.5),
                                             (np.ones(3) / np.sqrt(3), 1 / 6)])
    def test_partly_orthogonal_ensemble_has_a_value(self, third, p_sp):
        # e0 and e1 are orthogonal; their duals are orthogonal only in the first case
        ensemble = Ensemble([[1, 0, 0], [0, 1, 0], third])
        bound = usd_advantage_bound(ensemble)
        assert bound.p_sp == pytest.approx(p_sp, abs=1e-15) and bound.bound_ok
        assert bound.p_sp == pytest.approx(exhaustive_projective_optimum(ensemble)[0],
                                           abs=1e-12)

    def test_dependent_ensemble_is_an_invariant_violation(self):
        with pytest.raises(InvariantViolation) as err:
            usd_advantage_bound(Ensemble([[1, 0], [1, 0]]))
        assert str(err.value) == "invariant 'linear independence': violated by 0.000e+00"

    def test_haar_random_case(self):
        bound = usd_advantage_bound(haar_ensemble(10, 25, 3))
        assert bound.bound_ok
        assert 0 < bound.ratio <= 10 + 1e-9


class TestGluedPostselectionInvariant:
    def test_success_scales_by_one_over_d(self):
        # running the discrimination POVM through the postselection protocol
        # and merging failure with inconclusive costs exactly a factor 1/d
        for seed in range(4):
            n = 3
            ensemble = haar_ensemble(n, n, seed + 90)
            m_star = equal_probability_measurement(ensemble)
            d = m_star.dim
            mq = build_mq(m_star, 1 / d)  # n + 2 outcomes
            glued = apply_postprocessing(mq, PostProcessingMap([*range(n + 1), n], n + 1))
            direct = usd_success(ensemble, m_star)
            scaled = usd_success(ensemble, glued)
            assert scaled.success == pytest.approx(direct.success / d, abs=1e-10)
            assert scaled.unambiguous


def reference_rows(d, space_dim, trials, seed):
    """The per-trial rows built one dict per draw, as the experiment once held them."""
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(trials):
        states = haar_random_vectors(d, space_dim, rng)
        lam = min_eigenvalue(states.conj() @ states.T)
        p_sp_upper = 1.0 / d
        rows.append({"trial": t, "lambda_min": float(lam), "p_sp_upper": p_sp_upper,
                     "ratio_lower": float(lam / p_sp_upper), "ratio_upper": float(d)})
    return rows


def reference_band_ok(d, rows):
    return all(r["ratio_lower"] <= r["ratio_upper"] + default_atol(d) for r in rows)


class TestRandomEnsembleExperiment:
    @pytest.mark.parametrize("d, space_dim, trials, seed",
                             [(1, 1, 3, 0), (1, 5, 4, 9), (3, 4, 20, 1), (6, 9, 15, 123),
                              (10, 10, 5, 1), (50, 100, 20, 7),
                              # around the blocks of 8 trials at (10, 100)
                              (10, 100, 8, 2), (10, 100, 9, 2), (10, 100, 15, 2),
                              (10, 100, 16, 2), (10, 100, 17, 2), (10, 100, 33, 2),
                              # d * D above BLOCK_ELEMENTS: one trial per block
                              (130, 130, 3, 4),
                              # 81 trials: exactly one full block
                              (5, 20, 81, 6)])
    def test_rows_match_the_per_trial_build(self, d, space_dim, trials, seed):
        exp = random_ensemble_experiment(d, space_dim, trials, seed)
        reference = reference_rows(d, space_dim, trials, seed)
        assert exp.rows == reference
        assert exp.band_ok == reference_band_ok(d, reference)

    def test_lambda_values_are_read_only(self):
        exp = random_ensemble_experiment(3, 4, trials=5, seed=2)
        assert exp.lambda_values.shape == (5,)
        with pytest.raises(ValueError):
            exp.lambda_values[0] = 0.5

    @pytest.mark.parametrize("lams", [[1.0, 0.2], [1.0 + 1e-13, 0.5], [1.5, 0.2], [np.nan, 0.1]])
    def test_band_ok_matches_the_trial_wise_check(self, lams):
        # d = 1 puts ratio_lower = lambda_min against ratio_upper = 1
        exp = RandomEnsembleExperiment(1, 2, np.array(lams))
        assert exp.band_ok == reference_band_ok(1, exp.rows)

    def test_single_state_always_one(self):
        exp = random_ensemble_experiment(1, 5, trials=10, seed=0)
        assert np.allclose(exp.lambda_values, 1.0, atol=1e-10)

    def test_square_case_nearly_dependent(self):
        exp = random_ensemble_experiment(10, 10, trials=5, seed=1)
        assert exp.mean_lambda_min < 0.1
        assert exp.band_ok

    def test_rejects_too_many_states(self):
        with pytest.raises(ValueError):
            random_ensemble_experiment(6, 5, trials=1, seed=0)

    def test_generator_seed_matches_int_seed(self):
        a = random_ensemble_experiment(4, 8, trials=6, seed=11)
        b = random_ensemble_experiment(4, 8, trials=6, seed=np.random.default_rng(11))
        assert a.rows == b.rows

    @pytest.mark.parametrize("d, space_dim, trials, seed",
                             [(50, 100, 20, 7), (6, 9, 15, 123), (3, 4, 133, 2)])
    def test_matches_independent_build(self, d, space_dim, trials, seed):
        # each trial's states drawn in trial order from one generator, and
        # lambda_min(C) taken as sigma_min(S)^2 from an SVD, not an eigensolve
        expected = []
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            rows = [rng.standard_normal(space_dim) + 1j * rng.standard_normal(space_dim)
                    for _ in range(d)]
            states = np.array([v / np.linalg.norm(v) for v in rows])
            expected.append(np.linalg.svd(states, compute_uv=False)[-1] ** 2)
        exp = random_ensemble_experiment(d, space_dim, trials, seed)
        assert [r["trial"] for r in exp.rows] == list(range(trials))
        assert np.max(np.abs(exp.lambda_values - np.array(expected))) <= 1e-12

    def test_trial_generators_are_not_held_at_once(self):
        # trials draw one block at a time from one generator, so memory does
        # not grow with the trial count beyond the kept lambda_min values
        # (8 bytes each): both counts span several blocks of 1365 trials, and
        # their traced peaks differ by the extra trials' values alone
        random_ensemble_experiment(2, 3, trials=10_000, seed=1)  # numpy warm
        peaks = []
        for trials in (10_000, 100_000):
            tracemalloc.start()
            try:
                random_ensemble_experiment(2, 3, trials=trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * 90_000 + 2**14

    def test_determinism_and_csv(self):
        a = random_ensemble_experiment(4, 8, trials=6, seed=11)
        b = random_ensemble_experiment(4, 8, trials=6, seed=11)
        assert np.array_equal(a.lambda_values, b.lambda_values)


class TestEnsembleSerialization:
    def test_round_trip(self):
        ensemble = haar_ensemble(3, 4, 21)
        doc = json.loads(json.dumps(ensemble_to_document(ensemble)))
        back = ensemble_from_document(doc)
        assert np.max(np.abs(back.states - ensemble.states)) < 1e-12
        assert np.allclose(back.probs, ensemble.probs)

    # six and seven uniform probs do not sum to exactly 1 in floating point,
    # so dividing them by their sum on load would move them
    @pytest.mark.parametrize("ensemble", [symmetric_ensemble_from_gap(6, 0.1),
                                          haar_ensemble(7, 9, 5)],
                             ids=["symmetric", "haar"])
    def test_round_trip_is_exact(self, ensemble):
        doc = json.loads(json.dumps(ensemble_to_document(ensemble)))
        back = ensemble_from_document(doc)
        assert np.array_equal(back.states, ensemble.states)
        assert np.array_equal(back.probs, ensemble.probs)

    @pytest.mark.parametrize("build", [
        lambda: Ensemble(np.eye(2) * (1 + 1e-10)),
        lambda: symmetric_ensemble([1.0, np.sqrt(1 + 1e-10)]),
    ], ids=["ensemble", "symmetric_coefficients"])
    def test_norm_checked_as_documents_check_it(self, build):
        with pytest.raises(InvariantViolation) as err:
            build()
        assert err.value.invariant == "unit norm"


class TestEnsembleProbs:
    STATES = [[1, 0], [0.6, 0.8]]

    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_nan_probs_rejected(self, probs):
        # NaN compares false both ways, so a `< 0` check lets it through to p_sp = nan
        with pytest.raises(InvariantViolation) as err:
            Ensemble(self.STATES, probs=probs)
        assert err.value.invariant == "probability positivity"
