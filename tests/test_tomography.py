import tracemalloc
from itertools import combinations, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmsim import fixtures
from povmsim.core import (
    BLOCK_ELEMENTS,
    InvariantViolation,
    QuantumState,
    born_probabilities,
    haar_random_unitary,
    hermitian_part,
    operator_norm,
    random_povm,
    random_rank_one_povm,
)
from povmsim.simulation import PostProcessingMap, apply_postprocessing
from povmsim.tomography import (
    MAX_SUBSET_OUTCOMES,
    TomographyRecord,
    _subset_sums,
    bias_mitigated_statistics,
    operational_distance,
    probe_states,
    reconstruct_povm,
)


def _reference_distance(ms, ns) -> float:
    """The operational distance by one eigensolve per outcome subset."""
    ms, ns = [np.asarray(m) for m in ms], [np.asarray(n) for n in ns]
    k = max(len(ms), len(ns))
    zero = np.zeros_like(ms[0], dtype=complex)
    diffs = [a - b for a, b in zip(ms + [zero] * (k - len(ms)), ns + [zero] * (k - len(ns)))]
    if float(np.max(np.abs(sum(diffs)))) <= 1e-12:
        subsets = ((0, *tail) for r in range(k) for tail in combinations(range(1, k), r))
    else:
        subsets = (sub for r in range(1, k + 1) for sub in combinations(range(k), r))
    return max(operator_norm(sum((diffs[i] for i in sub), zero)) for sub in subsets)


def _qubit_closed_form(ms, ns) -> float:
    """max over all subsets of |c0| + |c| for the subset sum c0 1 + c.sigma."""
    paulis = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    diffs = np.array(ms, dtype=complex) - np.array(ns, dtype=complex)
    coeffs = np.einsum("kij,pji->kp", diffs, paulis).real / 2
    k = len(diffs)
    subsets = (np.arange(2**k)[:, None] >> np.arange(k)) & 1
    sums = subsets @ coeffs
    return float(np.max(np.abs(sums[:, 0]) + np.linalg.norm(sums[:, 1:], axis=1)))


def _every_block_eigensolved(ms, ns) -> float:
    """The Hermitian qubit scan with eigvalsh on every block: the block and
    offset sums of operational_distance, added in its order."""
    k = max(len(ms), len(ns))
    zero = np.zeros((2, 2), dtype=complex)
    padded = [[np.asarray(e, dtype=complex) for e in es] + [zero] * (k - len(es))
              for es in (ms, ns)]
    diffs = np.stack([a - b for a, b in zip(*padded)])
    hermitian = hermitian_part(diffs)[0]
    if float(np.max(np.abs(diffs.sum(axis=0)))) <= 1e-12:
        base, free = hermitian[0], hermitian[1:]
    else:
        base, free = zero, hermitian
    bits = (BLOCK_ELEMENTS // 4).bit_length() - 1
    block, offsets = _subset_sums(free[:bits]), _subset_sums(free[bits:]) + base
    return float(max(np.abs(np.linalg.eigvalsh(block + offset)).max() for offset in offsets))


def _assert_within_rounding_of_eigvalsh(ms, ns) -> tuple[float, float]:
    """Assert that operational_distance(ms, ns) is within 1e-14 (1 + size) of
    :func:`_every_block_eigensolved`, size the summed |entries| of the
    differences: about 100 times the worst closed-form error measured.
    Return both values."""
    size = sum(float(np.abs(np.subtract(a, b)).sum()) for a, b in zip_longest(ms, ns, fillvalue=0))
    distance, reference = operational_distance(ms, ns), _every_block_eigensolved(ms, ns)
    assert abs(distance - reference) <= 1e-14 * (1 + size)
    return distance, reference


def _count_eigensolved(monkeypatch) -> list[int]:
    """Patch eigvalsh to record how many matrices each call solves."""
    counts, eigvalsh = [], np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return counts


def _any_povm(dim, n_outcomes, seed):
    return random_povm(dim, n_outcomes, seed, rank=-(-dim // n_outcomes))


def _probe_frequencies(m) -> np.ndarray:
    """p(z0), p(z1), p(x+), p(y+): the Born values of ``m`` on the probes."""
    return np.array([np.vdot(p.vector, m @ p.vector).real for p in probe_states()])


def _reconstructed_effect(freqs) -> np.ndarray:
    """Effect 0 reconstructed from the two-outcome record [p, 1 - p]."""
    p = np.asarray(freqs, dtype=float)
    return reconstruct_povm(TomographyRecord(np.column_stack([p, 1 - p]))).effects[0]


def _reference_inversion(record: TomographyRecord):
    """Effects and unphysical outcomes by the (alpha, n) parametrization,
    one outcome at a time: alpha = p(z0) + p(z1), n_z = (p(z0) - p(z1)) /
    alpha, n_x = 2 p(x+) / alpha - 1, n_y = 2 p(y+) / alpha - 1, and the
    effect (alpha / 2)(1 + n.sigma) is valid when |n| <= 1 and its largest
    eigenvalue alpha (1 + |n|) / 2 <= 1.  An outcome that never fired is the
    zero effect; one with alpha = 0 is p(x+) X + p(y+) Y and unphysical."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    effects, unphysical = [], []
    for i, p in enumerate(record.frequencies.T):
        if np.max(p) <= 1e-12:
            effects.append(np.zeros((2, 2), dtype=complex))
            continue
        alpha = p[0] + p[1]
        if alpha <= 0:
            effects.append(p[2] * x + p[3] * y)
            unphysical.append(i)
            continue
        n = np.array([2 * p[2] / alpha - 1, 2 * p[3] / alpha - 1, (p[0] - p[1]) / alpha])
        effects.append((alpha / 2) * (np.eye(2) + n[0] * x + n[1] * y + n[2] * z))
        length = np.linalg.norm(n)
        if not (length <= 1 + 1e-9 and alpha * (1 + length) / 2 <= 1 + 1e-9):
            unphysical.append(i)
    return np.array(effects), tuple(unphysical)


def _reference_records(rng, count):
    """``count`` records of 2-5 outcomes: Dirichlet rows, low-shot
    multinomial rows and sparse rows in turn, and every tenth record the
    exact statistics of a random POVM of rank 1 or 2."""
    for i in range(count):
        n = int(rng.integers(2, 6))
        if i % 10 == 9:
            yield TomographyRecord.from_born(random_povm(2, n, rng, rank=int(rng.integers(1, 3))))
        elif i % 3 == 0:
            yield TomographyRecord(rng.dirichlet(np.ones(n), size=4))
        elif i % 3 == 1:
            shots = int(rng.integers(1, 9))
            yield TomographyRecord(rng.multinomial(shots, rng.dirichlet(np.ones(n), size=4))
                                   / shots)
        else:
            rows = rng.dirichlet(np.ones(n), size=4) * (rng.random((4, n)) < 0.5)
            rows[np.arange(4), rng.integers(0, n, 4)] += 0.1  # no row left empty
            yield TomographyRecord(rows / rows.sum(axis=1, keepdims=True))


class TestReconstructEffect:
    def test_tetrahedral_second_effect(self, tetrahedral):
        got = _reconstructed_effect(_probe_frequencies(tetrahedral.effects[1]))
        # weight 1/2 and Bloch vector (2 sqrt 2 / 3, 0, -1/3)
        want = np.array([[1 / 3, np.sqrt(2) / 3], [np.sqrt(2) / 3, 2 / 3]]) / 2
        assert np.trace(got).real == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_isotropic_effect(self):
        got = _reconstructed_effect([0.5, 0.5, 0.5, 0.5])
        assert np.max(np.abs(got - np.eye(2) / 2)) < 1e-12

    def test_zero_projector(self):
        got = _reconstructed_effect([1.0, 0.0, 0.5, 0.5])
        assert np.max(np.abs(got - np.diag([1.0, 0.0]))) < 1e-12


class TestReconstructPovm:
    def test_trine_noiseless_round_trip(self, trine):
        record = TomographyRecord.from_born(trine)
        recon = reconstruct_povm(record)
        for got, want in zip(recon.effects, trine.effects):
            assert np.max(np.abs(got - want)) < 1e-12
        assert recon.completeness_defect < 1e-12
        assert recon.physical

    def test_round_trip_random_povms(self):
        rng = np.random.default_rng(13)
        for rank in (1, 2):
            for _ in range(50):
                povm = random_povm(2, int(rng.integers(2, 6)), rng, rank=rank)
                record = TomographyRecord.from_born(povm)
                recon = reconstruct_povm(record)
                for got, want in zip(recon.effects, povm.effects):
                    assert np.max(np.abs(got - want)) < 1e-10

    def test_fixture_reconstruction_identity(self):
        # feeding the bundled reconstruction's own statistics back through
        # the inversion must return those matrices exactly
        raw = fixtures.reconstruction("tetrahedral", "postselection")
        for want in raw:
            got = _reconstructed_effect(_probe_frequencies(want))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_the_bloch_vector_inversion(self):
        rng = np.random.default_rng(12)
        silent = weightless = flagged = 0
        for record in _reference_records(rng, 10_000):
            recon = reconstruct_povm(record)
            effects, unphysical = _reference_inversion(record)
            assert np.max(np.abs(np.stack(recon.effects) - effects)) <= 1e-15
            assert recon.unphysical_outcomes == unphysical
            f = record.frequencies
            silent += int(np.any(f.max(axis=0) == 0))
            weightless += int(np.any((f[0] + f[1] == 0) & (f.max(axis=0) > 0)))
            flagged += bool(unphysical)
        # both special cases of the reference and its flag ran many times
        assert min(silent, weightless, flagged) > 100

    def test_unphysical_is_warned_not_raised(self):
        table = np.array([
            [0.70, 0.15, 0.15],
            [0.20, 0.40, 0.40],
            [0.90, 0.05, 0.05],
            [0.55, 0.225, 0.225],
        ])  # first outcome reconstructs with |n| > 1
        recon = reconstruct_povm(TomographyRecord(table))
        assert recon.unphysical_outcomes == (0,)
        assert not recon.physical


    def test_weight_above_one_is_flagged_not_raised(self):
        # outcome 0 has alpha = p(z0) + p(z1) = 1.2 and largest eigenvalue
        # 1.2 (1 + |n|) / 2 = 1.05: low-shot noise can give that
        table = np.array([
            [0.80, 0.20],
            [0.40, 0.60],
            [1.00, 0.00],
            [0.60, 0.40],
        ])
        recon = reconstruct_povm(TomographyRecord(table))
        assert np.trace(recon.effects[0]).real == pytest.approx(1.2)
        assert np.linalg.eigvalsh(recon.effects[0])[-1] > 1
        assert 0 in recon.unphysical_outcomes

    def test_zero_weight_outcome_is_flagged_not_raised(self):
        # outcome 1 fired only on the x+ probe: its trace alpha is 0
        table = np.array([
            [1.0, 0.0],
            [1.0, 0.0],
            [0.5, 0.5],
            [1.0, 0.0],
        ])
        recon = reconstruct_povm(TomographyRecord(table))
        assert np.trace(recon.effects[1]).real == 0
        assert 1 in recon.unphysical_outcomes
        probes = probe_states()
        born = [np.vdot(p.vector, recon.effects[1] @ p.vector).real for p in probes]
        assert np.allclose(born, table[:, 1], atol=1e-15)


class TestOperationalDistance:
    def test_self_distance_zero(self, all_fixture_povms):
        for povm in all_fixture_povms.values():
            assert operational_distance(povm, povm) == pytest.approx(0.0, abs=1e-12)

    def test_table1_values(self, tetrahedral, trine):
        d = operational_distance(tetrahedral,
                                 fixtures.reconstruction("tetrahedral", "postselection"))
        assert d == pytest.approx(0.023, abs=0.003)
        d = operational_distance(trine, fixtures.reconstruction("trine", "naimark"))
        assert d == pytest.approx(0.141, abs=0.003)

    def test_symmetry(self, tetrahedral):
        other = fixtures.reconstruction("tetrahedral", "naimark")
        assert operational_distance(tetrahedral, other) == \
            pytest.approx(operational_distance(other, tetrahedral), abs=1e-12)

    def test_triangle_inequality_on_fixtures(self, tetrahedral):
        a = tetrahedral
        b = fixtures.reconstruction("tetrahedral", "postselection")
        c = fixtures.reconstruction("tetrahedral", "naimark")
        ab = operational_distance(a, b)
        bc = operational_distance(b, c)
        ac = operational_distance(a, c)
        assert ac <= ab + bc + 1e-12

    def test_zero_iff_equal(self, trine):
        perturbed = [m.copy() for m in trine.effects]
        perturbed[0] = perturbed[0] + np.diag([1e-3, -1e-3])
        assert operational_distance(trine, perturbed) > 1e-4

    def test_subset_complement_symmetry(self):
        rng = np.random.default_rng(2)
        m = random_rank_one_povm(2, 4, rng)
        n = random_rank_one_povm(2, 4, rng)
        diffs = [a - b for a, b in zip(m.effects, n.effects)]
        for subset in ((0,), (0, 1), (1, 3), (2,)):
            comp = tuple(i for i in range(4) if i not in subset)
            a = operator_norm(sum(diffs[i] for i in subset))
            b = operator_norm(sum(diffs[i] for i in comp))
            assert a == pytest.approx(b, abs=1e-12)

    def test_padding_against_fewer_outcomes(self, trine):
        rec4 = fixtures.reconstruction("trine", "naimark")
        assert len(rec4) == 4
        d = operational_distance(trine, rec4)  # ideal padded with a zero effect
        assert d > 0.1

    def test_gluing_monotonicity(self, tetrahedral):
        rec = fixtures.reconstruction("tetrahedral", "naimark")
        base = operational_distance(tetrahedral, rec)
        glue = PostProcessingMap([0, 1, 2, 2], 3)
        glued_ideal = apply_postprocessing(tetrahedral, glue)
        glued_rec = [rec[0], rec[1], rec[2] + rec[3]]
        assert operational_distance(glued_ideal, glued_rec) <= base + 1e-12

    @pytest.mark.parametrize("m, n, error, match", [
        ([np.eye(2)], [np.eye(3)], ValueError, "dimension"),
        ([np.eye(2)], [], ValueError, r"second measurement .* got shape \(0,\)"),
        ([], [np.eye(2)], ValueError, r"first measurement .* got shape \(0,\)"),
        ([np.eye(2)], np.zeros((0, 2, 2)), ValueError, r"non-empty .* got shape \(0, 2, 2\)"),
        (np.eye(2), [np.eye(2)], ValueError, r"\(n, d, d\) stack, got shape \(2, 2\)"),
        # each effect is finite, but their difference overflows
        ([1e308 * np.eye(2)], [-1e308 * np.eye(2)], InvariantViolation,
         "effect differences has non-finite entries"),
    ], ids=["dimension", "empty", "empty_first", "empty_stack", "one_matrix", "overflow"])
    def test_malformed_pair_rejected(self, m, n, error, match):
        with pytest.raises(error, match=match):
            operational_distance(m, n)

    @settings(derandomize=True, deadline=None)
    @given(dim=st.sampled_from((2, 3)), k=st.integers(1, 8),
           kind=st.sampled_from(("complete", "incomplete", "padded")),
           form=st.sampled_from(("povm", "stack", "list")),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_scan_matches_reference(self, dim, k, kind, form, seed):
        rng = np.random.default_rng(seed)
        m = _any_povm(dim, k, rng)
        if kind == "padded":
            n = _any_povm(dim, int(rng.integers(1, k + 1)), rng)
        else:
            n = _any_povm(dim, k, rng)
            if kind == "incomplete":  # no longer a Povm
                n = [(1 - 1e-3) * e for e in n.effects]
        # a Povm as itself, as its stack or as a list of arrays gives the identical float
        given_as = {"povm": lambda p: p, "stack": lambda p: np.array(list(p)), "list": list}[form]
        m, n = given_as(m), given_as(n)
        for a, b in ((m, n), (n, m)):
            distance = operational_distance(a, b)
            assert distance == operational_distance(list(a), list(b))
            assert abs(distance - _reference_distance(a, b)) <= 1e-12

    @settings(derandomize=True, deadline=None)
    @given(k=st.integers(1, 14),
           kind=st.sampled_from(("complete", "incomplete", "padded", "self", "duplicated",
                                 "polygon")),
           seed=st.integers(0, 2**32 - 1))
    def test_qubit_closed_form_is_within_rounding_of_the_eigensolved_maximum(self, k, kind, seed):
        rng = np.random.default_rng(seed)
        m = _any_povm(2, k, rng).effects
        if kind == "self":  # every sum is zero
            n = m
        elif kind == "padded":
            n = _any_povm(2, int(rng.integers(1, k + 1)), rng).effects
        elif kind == "duplicated":  # each difference twice: subset sums tie exactly
            half = -(-k // 2)
            m = [e / 2 for e in _any_povm(2, half, rng).effects] * 2
            n = [e / 2 for e in _any_povm(2, half, rng).effects] * 2
        elif kind == "polygon":  # many subset sums tie in exact arithmetic, not in floats
            u = haar_random_unitary(2, rng)
            m = [u @ np.array([[0, p.conjugate()], [p, 0]]) @ u.conj().T / 2
                 for p in np.exp(2j * np.pi * np.arange(k) / k)]
            n = [np.zeros((2, 2))] * k
        else:
            n = _any_povm(2, k, rng).effects
            if kind == "incomplete":
                n = [(1 - 1e-3) * e for e in n]
        for a, b in ((m, n), (n, m)):
            _assert_within_rounding_of_eigvalsh(a, b)

    @settings(derandomize=True, deadline=None)
    @given(k=st.integers(2, 14), scale=st.floats(1, 1e6),
           residue=st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-3)),
           seed=st.integers(0, 2**32 - 1))
    def test_large_cancelling_qubit_differences_stay_within_rounding_of_eigvalsh(
            self, k, scale, residue, seed):
        # differences up to 1e6 in size that cancel in pairs up to a residue, so that the
        # subset sums add far larger parts than they end at: polygon parts, whose signed sums
        # tie in exact arithmetic, each followed by its negative plus the residue
        rng = np.random.default_rng(seed)
        u = haar_random_unitary(2, rng)
        half = -(-k // 2)
        polygon = [scale * u @ np.array([[0, p.conjugate()], [p, 0]]) @ u.conj().T / 2
                   for p in np.exp(1j * np.pi * np.arange(half) / half)]
        h = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        diffs = [polygon[i // 2] if i % 2 == 0 else residue * (h[i] + h[i].conj().T) / 2
                 - polygon[i // 2] for i in range(k)]
        zeros = [np.zeros((2, 2))] * k
        for a, b in ((diffs, zeros), (zeros, diffs)):
            _assert_within_rounding_of_eigvalsh(a, b)

    @pytest.mark.parametrize("k, kind", [(14, "near_ties"), (15, "complete"), (16, "incomplete"),
                                         (17, "padded"), (18, "duplicated"), (19, "complete"),
                                         (20, "incomplete")])
    def test_nested_qubit_offsets_stay_within_rounding_of_eigvalsh(self, k, kind):
        # past 12 free parts, each subset of the rest is one offset to the scanned block
        rng = np.random.default_rng(k)
        if kind == "near_ties":  # one unit difference and 13 near 1e-14: half the sums tie
            h = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
            h = (h + h.conj().transpose(0, 2, 1)) / 2
            m, n = [h[0]] + [1e-14 * e for e in h[1:]], [np.zeros((2, 2))] * k
        else:
            m = _any_povm(2, k, rng).effects
        if kind == "padded":
            n = _any_povm(2, int(rng.integers(1, k)), rng).effects
        elif kind == "duplicated":  # each difference twice: sums tie across offsets
            m = [e / 2 for e in _any_povm(2, k // 2, rng).effects] * 2
            n = [e / 2 for e in _any_povm(2, k // 2, rng).effects] * 2
        elif kind != "near_ties":
            n = _any_povm(2, k, rng).effects
            if kind == "incomplete":
                n = [(1 - 1e-3) * e for e in n]
        _assert_within_rounding_of_eigvalsh(m, n)

    @pytest.mark.parametrize("scale", (1e-320, 1e-300, 1e150, 1e160, 1e200, 1e307))
    @pytest.mark.parametrize("k, kind", [(3, "incomplete"), (6, "complete"), (14, "complete"),
                                         (14, "incomplete")])
    def test_extreme_scales_stay_within_rounding_of_eigvalsh(self, scale, k, kind):
        # squares of the Bloch coordinates underflow below about 1e-154 and overflow above
        # 1e154 unless the rows are rescaled first
        rng = np.random.default_rng(k)
        h = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        h = (h + h.conj().transpose(0, 2, 1)) / 2
        if kind == "complete":  # each difference and its negative: they sum to exactly zero
            h = np.concatenate([h[:k // 2], -h[:k // 2]])
        diffs = scale * (h / np.abs(h).sum())  # summed |entries| about scale: no sum overflows
        zeros = np.zeros_like(diffs)
        for a, b in ((diffs, zeros), (zeros, diffs)):
            d, ref = _assert_within_rounding_of_eigvalsh(a, b)
            assert abs(d - ref) <= 32 * np.spacing(ref)  # also among subnormals

    @pytest.mark.parametrize("k, kind", [(13, "incomplete"), (20, "self")])
    def test_qubit_scan_eigensolves_no_sum(self, monkeypatch, k, kind):
        rng = np.random.default_rng(k)
        m = random_povm(2, k, rng).effects
        n = m if kind == "self" else [(1 - 1e-3) * e for e in random_povm(2, k, rng).effects]
        counts = _count_eigensolved(monkeypatch)
        operational_distance(m, n)  # 2**k subset sums, all tied when "self"
        assert sum(counts) == 0

    def test_qutrit_scan_eigensolves_every_sum(self, monkeypatch):
        rng = np.random.default_rng(3)
        m = random_povm(3, 6, rng).effects
        n = [(1 - 1e-3) * e for e in random_povm(3, 6, rng).effects]
        counts = _count_eigensolved(monkeypatch)
        operational_distance(m, n)
        assert sum(counts) == 2**6

    @pytest.mark.parametrize("scale", (1.0, 1 - 1e-3))
    def test_sixteen_outcome_qubit_pair_matches_closed_form(self, scale):
        rng = np.random.default_rng(16)
        m = random_povm(2, 16, rng).effects
        n = [scale * e for e in random_povm(2, 16, rng).effects]
        assert abs(operational_distance(m, n) - _qubit_closed_form(m, n)) <= 1e-12

    @pytest.mark.parametrize("kind", ("complete", "incomplete"))
    def test_nested_blocks_match_reference(self, kind):
        # at d = 64 a block holds 2**2 sums, so seven outcomes nest four deep
        rng = np.random.default_rng(64)
        m = random_povm(64, 7, rng, rank=10).effects
        n = random_povm(64, 7, rng, rank=10).effects
        if kind == "incomplete":
            n = [(1 - 1e-3) * e for e in n]
        assert abs(operational_distance(m, n) - _reference_distance(m, n)) <= 1e-12

    def test_block_memory_bounded_in_dimension(self):
        rng = np.random.default_rng(14)
        m = random_povm(16, 14, rng, rank=2).effects
        n = random_povm(16, 14, rng, rank=2).effects
        tracemalloc.start()
        try:
            operational_distance(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks of 2**12 sums whatever d is peaked at 64 MiB here
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("kind", ("incomplete", "self"))
    def test_qubit_scan_memory_flat_at_twenty_outcomes(self, kind):
        rng = np.random.default_rng(20)
        m = random_povm(2, 20, rng).effects
        n = m if kind == "self" else [(1 - 1e-3) * e for e in random_povm(2, 20, rng).effects]
        tracemalloc.start()
        try:
            operational_distance(m, n)  # "self": every sum ties at zero
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 2**20 Bloch rows at once would take 32 MiB, and their 2x2 sums 64 MiB
        assert peak < 2 * 2**20

    def test_non_hermitian_difference_rejected(self):
        # eigenvalues 0, 0 and singular values 1, 0: no measurement has this difference
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(InvariantViolation, match="effect difference is not Hermitian") as err:
            operational_distance([a], [np.zeros((2, 2))])
        assert err.value.invariant == "hermiticity" and err.value.deviation == 1.0

    def test_outcome_limit(self):
        effects = [np.eye(2) / (MAX_SUBSET_OUTCOMES + 1)] * (MAX_SUBSET_OUTCOMES + 1)
        with pytest.raises(ValueError, match=f"at most {MAX_SUBSET_OUTCOMES} outcomes"):
            operational_distance(effects, effects)


class TestBiasMitigation:
    def test_unbiased_inputs_unchanged(self, trine):
        record = TomographyRecord.from_born(trine)
        # pad trine record to a 4-outcome register table
        table = np.hstack([record.frequencies, np.zeros((4, 1))])
        base = TomographyRecord(table)
        flipped = {mask: TomographyRecord(table[:, [i ^ mask for i in range(4)]])
                   for mask in range(4)}
        mitigated = bias_mitigated_statistics(flipped)
        assert np.max(np.abs(mitigated.frequencies - base.frequencies)) < 1e-12

    def test_asymmetric_bias_becomes_symmetric_confusion(self):
        # averaging the relabelled x-variant turns the one-sided readout bias
        # into the symmetric confusion (K + XKX)/2, removing the 0/1 skew
        truth = np.array([[0.3, 0.7], [0.7, 0.3], [0.5, 0.5], [0.2, 0.8]])
        b = 0.1

        def readout(p):
            return np.column_stack([p[:, 0] + b * p[:, 1], (1 - b) * p[:, 1]])

        mitigated = bias_mitigated_statistics({
            0: TomographyRecord(readout(truth)),
            1: TomographyRecord(readout(truth[:, ::-1])),
        })
        symmetric = np.array([[1 - b / 2, b / 2], [b / 2, 1 - b / 2]])
        want = truth @ symmetric.T
        assert np.max(np.abs(mitigated.frequencies - want)) < 1e-12
        # balanced rows are fixed points: no residual there at all
        assert np.max(np.abs(mitigated.frequencies[2] - truth[2])) < 1e-12

    def test_no_variants_rejected(self):
        with pytest.raises(ValueError, match="one record per flip mask: 0..1 for one qubit"):
            bias_mitigated_statistics({})

    def test_missing_variant_rejected(self):
        table = np.full((4, 4), 0.25)
        with pytest.raises(ValueError, match="mask"):
            bias_mitigated_statistics({0: TomographyRecord(table),
                                       1: TomographyRecord(table)})


class TestRecords:
    def test_row_sums_enforced(self):
        with pytest.raises(InvariantViolation, match="frequency normalization"):
            TomographyRecord(np.full((4, 3), 0.2))

    def test_nan_rejected(self):
        table = [[np.nan, 0.5], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]
        with pytest.raises(InvariantViolation, match="frequency positivity"):
            TomographyRecord(table)

    def test_four_probes_required(self):
        with pytest.raises(ValueError, match="4 probes"):
            TomographyRecord(np.full((3, 2), 0.5))

    def test_an_outcome_required(self):
        with pytest.raises(ValueError, match="4 probes"):
            TomographyRecord(np.zeros((4, 0)))

    def test_from_born_rows_are_the_probe_born_rows(self, all_fixture_povms):
        povms = [*all_fixture_povms.values(), random_povm(2, 5, 8, rank=2)]
        for povm in povms:
            record = TomographyRecord.from_born(povm)
            for probe, row in zip(probe_states(), record.frequencies):
                assert np.max(np.abs(born_probabilities(probe, povm) - row)) <= 1e-15

    def test_postselection_renormalizes(self, tetrahedral):
        from povmsim.simulation import build_mq
        mq = build_mq(tetrahedral, 0.5)
        record = TomographyRecord.from_born(mq)
        kept = record.postselected()
        oracle = TomographyRecord.from_born(tetrahedral)
        assert np.max(np.abs(kept.frequencies - oracle.frequencies)) < 1e-12

