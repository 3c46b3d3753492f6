"""Unambiguous state discrimination: success functionals, the
equal-probability measurement built from dual vectors, the exact optimum
over projective-simulable strategies, and the bound experiments comparing
the two families on symmetric and Haar-random ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_ELEMENTS,
    DocumentError,
    InvariantViolation,
    Povm,
    _freeze,
    _rng,
    array_from_lists,
    born_probabilities,
    complex_to_lists,
    default_atol,
    haar_random_vectors,
    min_eigenvalue,
    orthogonality_graph,
    require_count,
    require_distribution,
    require_unit_rows,
    vector_from_document,
)

UNAMBIGUITY_ATOL = 1e-9
#: relative threshold on singular values for declaring linear independence
LINEAR_INDEPENDENCE_RTOL = 1e-10
#: the most cliques projective_simulable_optimum extends before it gives up
MAX_CLIQUE_BRANCHES = 2**16


class Ensemble:
    """A weighted collection of pure states {p_i, |psi_i>}."""

    def __init__(self, states, probs=None):
        mat = np.asarray(states, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("states must be a (n_states, dim) array")
        require_unit_rows(mat, "ensemble state")
        n = mat.shape[0]
        if probs is None:
            probs = np.full(n, 1.0 / n)
            probs = probs / probs.sum()
        if np.shape(probs) != (n,):
            raise ValueError("probs must be a vector matching the states")
        self.states = _freeze(mat)
        # not divided by their sum: that is not idempotent in floating point,
        # so a saved ensemble would load back with other probs
        self.probs = _freeze(require_distribution(probs, default_atol(n)))
        sv = np.linalg.svd(mat, compute_uv=False)
        self.smallest_singular_value = float(sv[-1])
        self.linearly_independent = bool(sv[-1] > LINEAR_INDEPENDENCE_RTOL * sv[0])

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def space_dim(self) -> int:
        return self.states.shape[1]

    @property
    def uniform(self) -> bool:
        return bool(np.allclose(self.probs, 1.0 / self.n_states, atol=1e-12))

    def gram(self) -> np.ndarray:
        """Correlation matrix C_ij = <psi_i|psi_j>."""
        return self.states.conj() @ self.states.T

    def __repr__(self) -> str:
        return f"Ensemble(n_states={self.n_states}, dim={self.space_dim})"


class SymmetricEnsemble(Ensemble):
    """Fourier-symmetric ensemble with a known discrimination optimum."""

    def __init__(self, states, exact_optimum: float):
        super().__init__(states)
        self.exact_optimum = float(exact_optimum)


def ensemble_to_document(ensemble: Ensemble) -> dict:
    return {
        "states": [{"dim": ensemble.space_dim, "vector": v}
                   for v in complex_to_lists(ensemble.states)],
        "probs": [float(p) for p in ensemble.probs],
    }


def ensemble_from_document(doc: dict) -> Ensemble:
    entries = doc["states"]
    if not (isinstance(entries, list) and entries and all(isinstance(e, dict) for e in entries)):
        raise DocumentError("states", "must be a non-empty list of state objects")
    vectors = [vector_from_document(e, f"states[{i}].") for i, e in enumerate(entries)]
    if len({v.size for v in vectors}) > 1:
        raise DocumentError("states", "must all have the same dim")
    probs = doc.get("probs")
    if probs is not None:
        probs = array_from_lists(probs, "probs", (len(vectors),))
    return Ensemble(np.array(vectors), probs)


@dataclass(frozen=True)
class UsdResult:
    """Success probability plus the unambiguity audit of a measurement."""

    success: float
    violations: tuple[tuple[int, int, float], ...]

    @property
    def unambiguous(self) -> bool:
        return not self.violations


def usd_success(ensemble: Ensemble, povm: Povm) -> UsdResult:
    """sum_i p_i tr(rho_i M_i) with M_{n+1} the inconclusive effect.

    Reports every cross term tr(rho_i M_j), i != j, above the unambiguity
    tolerance, in row-major order; a genuinely unambiguous measurement has
    none.  Both are read off one (n, n+1) Born table.
    """
    n = ensemble.n_states
    if povm.n_outcomes != n + 1:
        raise ValueError(f"need {n + 1} outcomes (detections plus inconclusive), "
                         f"got {povm.n_outcomes}")
    if povm.dim != ensemble.space_dim:
        raise ValueError("POVM dimension does not match the ensemble space")
    table = born_probabilities(ensemble.states[:, :, None] * ensemble.states.conj()[:, None, :],
                               povm)
    cross = table[:, :n] > UNAMBIGUITY_ATOL
    np.fill_diagonal(cross, False)
    violations = tuple((i, j, float(table[i, j])) for i, j in np.argwhere(cross).tolist())
    return UsdResult(float(ensemble.probs @ np.diagonal(table)), violations)


def dual_states(ensemble: Ensemble) -> tuple[np.ndarray, float]:
    """Reciprocal vectors |psi~_i> with <psi~_i|psi_j> = delta_ij.

    Solved against the Gram matrix (no explicit inverse); also returns the
    Gram condition number, the relevant diagnostic for nearly dependent
    ensembles.
    """
    if not ensemble.linearly_independent:
        raise InvariantViolation("linear independence", ensemble.smallest_singular_value,
                                 "states are linearly dependent; no dual basis exists")
    c = ensemble.gram()
    # with states as rows S, the duals are rows of (C^T)^{-1} S: then
    # duals.conj() @ S.T = (C^{-1})^* C^* = identity
    x = np.linalg.solve(c.T, ensemble.states)
    return x, float(np.linalg.cond(c))


def equal_probability_measurement(ensemble: Ensemble) -> Povm:
    """The USD measurement detecting every state with probability lambda_min(C).

    Effects are lambda_min(C) |psi~_i><psi~_i| over the dual vectors, plus
    the inconclusive remainder, which this scaling makes positive.
    """
    if not ensemble.uniform:
        raise ValueError("the equal-probability construction assumes uniform priors")
    duals, _ = dual_states(ensemble)
    lam = min_eigenvalue(ensemble.gram())
    effects = [lam * np.outer(v, v.conj()) for v in duals]
    effects.append(np.eye(ensemble.space_dim) - sum(effects))
    labels = [str(i + 1) for i in range(ensemble.n_states)] + ["inconclusive"]
    return Povm(effects, labels=labels)


def projective_simulable_optimum(ensemble: Ensemble) -> float:
    """Exact USD optimum over projective measurements on the span of the n
    states, mixed and post-processed (ratio <= n is for these; with D > n,
    one on all of C^D can do better).  An unambiguous projector for state i
    lies along its dual phi_i and detects it with probability 1 /
    (C^{-1})_ii, so one measurement detects a clique of states whose duals
    are orthogonal: adjacent in ``orthogonality_graph`` of C^{-1}, their Gram
    matrix.  The optimum is the largest sum of p_i / (C^{-1})_ii over a
    clique, found by branch and bound over the vertices with an edge.
    """
    if not ensemble.linearly_independent:
        raise InvariantViolation("linear independence", ensemble.smallest_singular_value)
    n = ensemble.n_states
    inverse = np.linalg.solve(ensemble.gram(), np.eye(n))
    inv_diag = np.diag(inverse).real
    adjacent = orthogonality_graph(inverse)
    if adjacent.sum() == n * (n - 1):  # orthonormal states (no loop: (C^{-1})_ii >= 1)
        return 1.0
    values = ensemble.probs / inv_diag
    best, stack, extended = float(values.max()), [(0.0, np.flatnonzero(adjacent.any(axis=1)))], 0
    while stack:
        extended += 1
        if extended > MAX_CLIQUE_BRANCHES:
            raise ValueError(f"clique search passed MAX_CLIQUE_BRANCHES = {MAX_CLIQUE_BRANCHES}")
        weight, candidates = stack.pop()
        best = max(best, weight)
        for i, v in enumerate(candidates):
            if weight + values[candidates[i:]].sum() <= best:  # no extension can win
                break
            rest = candidates[i + 1:]
            stack.append((weight + values[v], rest[adjacent[v, rest]]))
    return best


def projective_simulable_optimum_by_search(ensemble: Ensemble) -> float:
    """Independent evaluation of the projective-simulable optimum, for
    pairwise non-orthogonal states with pairwise non-orthogonal duals only.

    Enumerates the structural family directly: for each outcome i, the
    unambiguous direction within the span is found as the null space of the
    other states' overlap constraints (QR + SVD, no Gram inversion).
    """
    edges = np.argwhere(np.triu(orthogonality_graph(ensemble.gram())))
    if edges.size:
        raise ValueError(f"states {tuple(edges[0].tolist())} are orthogonal")
    span, _ = np.linalg.qr(ensemble.states.T)  # (D, n) orthonormal basis
    n = ensemble.n_states
    best = 0.0
    for i in range(n):
        others = np.delete(ensemble.states, i, axis=0)
        constraints = others.conj() @ span  # (n-1, n)
        _, sv, vh = np.linalg.svd(constraints)
        null = vh[-1].conj()
        direction = span @ null
        direction = direction / np.linalg.norm(direction)
        value = ensemble.probs[i] * abs(np.vdot(direction, ensemble.states[i])) ** 2
        best = max(best, float(value))
    return best


@dataclass(frozen=True)
class AdvantageBound:
    """Computable two-sided data for the d-fold advantage bound."""

    p_povm_lower: float
    p_sp: float
    ratio: float
    bound_ok: bool


def usd_advantage_bound(ensemble: Ensemble) -> AdvantageBound:
    """Check that POVMs beat projective-simulable strategies by at most d.

    The POVM side is lower-bounded by the dual-vector measurement's success
    lambda_min(C); the projective-simulable side is the exact structural
    optimum.  For fully orthogonal ensembles both optima are 1.
    """
    d = ensemble.n_states
    lam = min_eigenvalue(ensemble.gram())
    p_sp = projective_simulable_optimum(ensemble)
    ratio = lam / p_sp
    bound_ok = lam <= d * p_sp + default_atol(d)
    return AdvantageBound(float(lam), float(p_sp), float(ratio), bool(bound_ok))


def symmetric_ensemble(coefficients) -> SymmetricEnsemble:
    """``symmetric_ensemble(coefficients)``: the uniform ensemble of d =
    ``len(coefficients)`` Fourier-symmetric states with known USD optimum.

    |phi_i> = (1/sqrt(d)) sum_k c_k w^{ik} |k> with w = exp(2 pi i / d);
    normalization requires sum |c_k|^2 = d, every c_k must be non-zero, and
    the optimum over all measurements is min_k |c_k|^2 (the smallest Gram
    eigenvalue; the ensemble Gram is circulant with eigenvalues |c_k|^2).
    """
    c = np.asarray(coefficients, dtype=complex).reshape(-1)
    d = c.size
    require_distribution(np.abs(c) ** 2 / d, 1e-9, "coefficient")
    if np.min(np.abs(c)) == 0:
        raise ValueError("all coefficients must be non-zero for linear independence")
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    states = c * omega ** np.outer(k, k) / np.sqrt(d)
    return SymmetricEnsemble(states, float(np.min(np.abs(c) ** 2)))


def symmetric_ensemble_from_gap(d: int, epsilon: float) -> SymmetricEnsemble:
    """Symmetric ensemble whose all-measurement optimum is exactly 1 - epsilon.

    One coefficient carries weight |c|^2 = 1 - epsilon and the rest share
    the remainder equally; epsilon in (0, 1) keeps all pairwise overlaps
    non-zero, the regime where projective simulation caps at 1/d.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1) for non-orthogonal symmetric states")
    require_count(d, "d")
    if d < 2:
        raise ValueError("need d >= 2")
    mags = np.full(d, (d - 1 + epsilon) / (d - 1))
    mags[0] = 1 - epsilon
    return symmetric_ensemble(np.sqrt(mags))


@dataclass(frozen=True, eq=False)
class RandomEnsembleExperiment:
    """Per-trial smallest Gram eigenvalues of Haar-random ensembles, as one
    read-only array, with the resulting two-sided advantage-ratio band."""

    d: int
    space_dim: int
    lambda_values: np.ndarray

    @property
    def rows(self) -> list[dict]:
        """One dict per trial, built on each read."""
        p_sp_upper = 1.0 / self.d
        return [{"trial": t, "lambda_min": float(lam), "p_sp_upper": p_sp_upper,
                 "ratio_lower": float(lam / p_sp_upper), "ratio_upper": float(self.d)}
                for t, lam in enumerate(self.lambda_values)]

    @property
    def mean_lambda_min(self) -> float:
        return float(np.mean(self.lambda_values))

    @property
    def std_lambda_min(self) -> float:
        return float(np.std(self.lambda_values))

    @property
    def band_ok(self) -> bool:
        """Trial-wise check that ratio_lower never exceeds ratio_upper."""
        return bool(np.all(self.lambda_values / (1.0 / self.d) <= self.d + default_atol(self.d)))


def random_ensemble_experiment(d: int, space_dim: int, trials: int, seed,
                               ) -> RandomEnsembleExperiment:
    """Sample uniform ensembles of d Haar states in dimension D >= d.

    Each trial records lambda_min of the Gram matrix (the POVM-side success
    lower bound) and the band it implies for the POVM/projective advantage
    ratio: d * lambda_min <= ratio <= d, from the 1/d cap on projective-
    simulable success, which holds when no two duals are orthogonal: for
    Haar states, with probability one.

    For gamma = d / D < 1, lambda_min concentrates just above the
    Marchenko-Pastur lower edge (1 - sqrt(gamma))^2, with an O(D^(-2/3))
    upward shift at finite D from the Tracy-Widom fluctuations of the
    smallest eigenvalue; single trials may fall below the edge.

    Each trial draws its states as one (d, D) array of Haar rows, in trial
    order, from the generator of ``seed``.  Trials run in blocks whose
    Gaussian draw, 2 d D floats per trial, holds at most
    :data:`core.BLOCK_ELEMENTS` floats (at least one trial each): one draw,
    one batched Gram product and one :func:`core.min_eigenvalue` (one
    Hermitian check, one eigvalsh) per block, so memory holds one block.
    """
    require_count(d, "d")
    require_count(space_dim, "space_dim")
    if d > space_dim:
        raise ValueError("need d <= D for linearly independent Haar states")
    require_count(trials, "trials")
    rng = _rng(seed)
    lams = np.empty(trials)
    # a block's largest temporaries (its draw and its states) stay within
    # 128 KiB, glibc's default mmap threshold: with blocks of twice as many
    # trials, d = 50, D = 100 ran 4% slower than one trial at a time
    block = max(1, BLOCK_ELEMENTS // (2 * d * space_dim))
    for start in range(0, trials, block):
        b = min(block, trials - start)
        states = haar_random_vectors(b * d, space_dim, rng).reshape(b, d, space_dim)
        lams[start:start + b] = min_eigenvalue(states.conj() @ states.swapaxes(-1, -2))
    lams.setflags(write=False)  # frozen in place: a copy would double the kept values
    return RandomEnsembleExperiment(d, space_dim, lams)
