"""Simulating generalized measurements with projective measurements,
classical randomness/post-processing, and postselection.

The central construction: any POVM M on dimension d, refined to rank-one
effects a_k|e_k><e_k|, is realized by drawing a binary measurement
(|e_k><e_k|, 1-|e_k><e_k|) with probability a_k/d, relabelling "+" to the
parent outcome of k and "-" to a failure outcome.  Conditioned on not
failing, this samples exactly from M; the success probability is 1/d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InvariantViolation,
    Povm,
    QuantumState,
    RankOneParts,
    _freeze,
    _rng,
    complex_from_lists,
    complex_to_lists,
    default_atol,
    inverse_sqrt,
    povm_from_document,
    povm_to_document,
    rank_one_parts,
    require_unit_rows,
)

ORTHOGONALITY_ATOL = 1e-9
FAIL_LABEL = "fail"


class PostProcessingMap:
    """Conditional probabilities q(j|k) mapping measurement outcomes k to
    relabelled outcomes j.  Stored as a (n_out, n_in) matrix whose columns
    are probability vectors."""

    def __init__(self, matrix):
        q = np.asarray(matrix, dtype=float)
        if q.ndim != 2:
            raise ValueError("post-processing map must be a 2-d matrix")
        if np.min(q) < -1e-12:
            raise InvariantViolation("stochasticity", -float(np.min(q)),
                                     "post-processing probabilities must be non-negative")
        col_sums = q.sum(axis=0)
        defect = float(np.max(np.abs(col_sums - 1.0)))
        if defect > default_atol(q.shape[1]):
            raise InvariantViolation("stochasticity", defect,
                                     f"columns must sum to 1 (defect {defect:.3e})")
        self.matrix = _freeze(np.clip(q, 0.0, None))

    @property
    def n_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_out(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "PostProcessingMap":
        return cls(np.eye(n))

    @classmethod
    def deterministic(cls, assignment, n_out: int | None = None) -> "PostProcessingMap":
        """Map outcome k to outcome assignment[k] with probability one."""
        assignment = [int(a) for a in assignment]
        if n_out is None:
            n_out = max(assignment) + 1
        q = np.zeros((n_out, len(assignment)))
        for k, j in enumerate(assignment):
            q[j, k] = 1.0
        return cls(q)

    @classmethod
    def glue(cls, n_in: int, merged: tuple[int, ...]) -> "PostProcessingMap":
        """Merge the listed outcomes into a single one, keeping the others.

        The merged group takes the slot of its smallest member; remaining
        outcomes keep their relative order.
        """
        merged_set = sorted(set(int(m) for m in merged))
        target = {}
        out = 0
        for k in range(n_in):
            if k in merged_set and k != merged_set[0]:
                continue
            target[k] = out
            out += 1
        assignment = [target[merged_set[0]] if k in merged_set else target[k]
                      for k in range(n_in)]
        return cls.deterministic(assignment, n_out=out)

    def __repr__(self) -> str:
        return f"PostProcessingMap({self.n_in} -> {self.n_out})"


def apply_postprocessing(povm: Povm, pmap: PostProcessingMap) -> Povm:
    """N_j = sum_k q(j|k) M_k."""
    if pmap.n_in != povm.n_outcomes:
        raise ValueError(f"map expects {pmap.n_in} outcomes, POVM has {povm.n_outcomes}")
    return Povm(np.einsum("jk,kab->jab", pmap.matrix, povm.stack))


def convex_combination(terms) -> Povm:
    """Effect-wise weighted sum of POVMs with matching shapes."""
    terms = [(float(w), p) for w, p in terms]
    if not terms:
        raise ValueError("need at least one term")
    weights = np.array([w for w, _ in terms])
    if np.min(weights) < 0:
        raise ValueError("weights must be non-negative")
    n = terms[0][1].n_outcomes
    dim = terms[0][1].dim
    if any(p.n_outcomes != n or p.dim != dim for _, p in terms):
        raise ValueError("all POVMs must share outcome count and dimension")
    defect = abs(weights.sum() - 1.0)
    if defect > default_atol(n):
        raise InvariantViolation("weight normalization", defect)
    return Povm([sum(w * p[i] for w, p in terms) for i in range(n)])


def build_mq(povm: Povm, q: float) -> Povm:
    """The (n+1)-outcome POVM (q M_1, ..., q M_n, (1-q) 1)."""
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return Povm(_mq_stack(povm.stack, q), labels=list(povm.labels) + [FAIL_LABEL])


def _mq_stack(effects: np.ndarray, q: float) -> np.ndarray:
    return np.concatenate([q * effects, [(1 - q) * np.eye(effects.shape[1])]])


def rank_one_refinement(povm: Povm) -> tuple[Povm, PostProcessingMap]:
    """Split every effect into rank-one pieces plus the merge map undoing it.

    All effects are eigendecomposed in one batched eigh; eigenvalues below
    the POVM tolerance are dropped.  Pieces are ordered by (parent outcome,
    descending eigenvalue).  The tiny completeness defect introduced by
    dropping is redistributed symmetrically (v -> B^{-1/2} v for every piece
    a|v><v|, B the sum of the pieces), which preserves rank-one-ness; a
    defect beyond the tolerance is an error.  The refined POVM keeps its
    pieces (:attr:`Povm.rank_one`).
    """
    parts = rank_one_parts(povm.stack, povm.atol)
    if not parts.parents.size:
        raise InvariantViolation("positivity", 0.0, "POVM has no non-null effects")
    total = parts.effects().sum(axis=0)
    defect = float(np.max(np.abs(total - np.eye(povm.dim))))
    if defect > povm.atol:
        raise InvariantViolation("completeness", defect,
                                 f"refinement leaves completeness defect {defect:.3e}")
    if defect > 1e-14:
        u = parts.vectors @ inverse_sqrt(total).T
        norms = np.linalg.norm(u, axis=1)
        parts = RankOneParts(parts.weights * norms ** 2, u / norms[:, None], parts.parents)
    refined = Povm.from_rank_one(parts)
    merge = PostProcessingMap.deterministic(parts.parents, n_out=povm.n_outcomes)
    return refined, merge


def _check_mixture(weights: np.ndarray, directions: np.ndarray) -> None:
    """Weights form a distribution and directions are unit vectors: the mixture is a POVM."""
    defect = abs(weights.sum() - 1.0)
    if not defect <= default_atol(len(weights)):
        raise InvariantViolation("weight normalization", defect)
    if np.min(weights) < 0:
        raise InvariantViolation("weight positivity", -float(np.min(weights)),
                                 "weights must be non-negative")
    require_unit_rows(directions, "direction")


def _binary_mixture(weights: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(w_1 P_1, ..., w_m P_m, sum_k w_k (1 - P_k)) for P_k = |v_k><v_k|: the
    measurements (P_k, 1 - P_k) mixed with weights w_k as one stack."""
    projs = directions[:, :, None] * directions.conj()[:, None, :]
    w = weights[:, None, None]
    complements = (w * (np.eye(directions.shape[1]) - projs)).sum(axis=0)
    return np.concatenate([w * projs, [complements]])


class ProjectiveSimulation:
    """Binary measurements (|v_k><v_k|, 1 - |v_k><v_k|) drawn with probability
    ``weights[k]``, plus a post-processing map over the m+1 outcomes of
    :meth:`mixture`, declared to reproduce a target POVM."""

    def __init__(self, weights, directions, postprocessing: PostProcessingMap, target: Povm):
        self.weights = _freeze(np.asarray(weights, dtype=float))
        self.directions = _freeze(np.asarray(directions, dtype=complex))
        _check_mixture(self.weights, self.directions)
        self.postprocessing = postprocessing
        self.target = target
        simulated = self.simulated_povm()
        if not simulated.allclose(target):
            dev = max(np.max(np.abs(a - b)) for a, b in zip(simulated, target))
            raise InvariantViolation("simulation fidelity", dev,
                                     "mixture + post-processing does not reproduce the target")

    def mixture(self) -> Povm:
        return Povm(_binary_mixture(self.weights, self.directions))

    def simulated_povm(self) -> Povm:
        return apply_postprocessing(self.mixture(), self.postprocessing)


class PostselectionScheme:
    """The protocol realizing a POVM with binary projective measurements
    and postselection at success probability 1/d.

    ``states[k]`` is the projector direction of component k, drawn with
    probability ``weights[k]``; outcome "+" is relabelled to
    ``parents[k]`` and "-" to the failure outcome (index n).  Checked inputs
    make the effects valid by construction; they are compared with M_{1/d}.
    """

    def __init__(self, target: Povm, states, weights, parents):
        self.target = target
        self.states = _freeze(np.asarray(states, dtype=complex))
        self.weights = _freeze(np.asarray(weights, dtype=float))
        self.parents = _freeze(np.asarray(parents, dtype=int))
        if not (len(self.states) == len(self.weights) == len(self.parents)):
            raise ValueError("states, weights and parents must have equal length")
        if np.any((self.parents < 0) | (self.parents >= target.n_outcomes)):
            raise ValueError(f"parents must lie in 0..{target.n_outcomes - 1}")
        if self.states.ndim != 2 or self.states.shape[1] != target.dim:
            raise ValueError(f"states must be an (m, {target.dim}) array for the target's "
                             f"dimension, got shape {self.states.shape}")
        _check_mixture(self.weights, self.states)
        self.success_probability = 1.0 / target.dim
        expected = _mq_stack(target.stack, self.success_probability)
        dev = float(np.max(np.abs(self._realized_stack() - expected)))
        if not dev <= target.atol:
            raise InvariantViolation("postselection construction", dev)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def fail_index(self) -> int:
        return self.target.n_outcomes

    def as_projective_simulation(self) -> ProjectiveSimulation:
        """Single-map view: component k's projector in slot k of the
        mixture, every complement in slot m, one merge map over both."""
        merge = PostProcessingMap.deterministic([*self.parents, self.fail_index])
        return ProjectiveSimulation(self.weights, self.states, merge,
                                    build_mq(self.target, self.success_probability))

    def _realized_stack(self) -> np.ndarray:
        """The mixture with "+" of component k added into slot ``parents[k]``."""
        mixture = _binary_mixture(self.weights, self.states)
        effects = np.zeros((self.fail_index + 1, *mixture.shape[1:]), dtype=complex)
        np.add.at(effects, self.parents, mixture[:-1])
        effects[-1] = mixture[-1]
        return effects

    def simulated_povm(self) -> Povm:
        """Assemble the mixture and relabelling into the realized POVM."""
        return Povm(self._realized_stack(), labels=list(self.target.labels) + [FAIL_LABEL])

    def to_document(self) -> dict:
        return {
            "success_probability": self.success_probability,
            "weights": [float(w) for w in self.weights],
            "parents": [int(p) for p in self.parents],
            "states": complex_to_lists(self.states),
            "target": povm_to_document(self.target),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "PostselectionScheme":
        target = povm_from_document(doc["target"])
        states = complex_from_lists(doc["states"], "states", (None, None))
        return cls(target, states, doc["weights"], doc["parents"])

    def __repr__(self) -> str:
        return (f"PostselectionScheme(outcomes={self.target.n_outcomes}, "
                f"components={self.n_components}, q={self.success_probability:g})")


def postselection_scheme(povm: Povm) -> PostselectionScheme:
    """Build the 1/d-success postselection protocol for an arbitrary POVM."""
    parts = rank_one_refinement(povm)[0].rank_one
    return PostselectionScheme(povm, parts.vectors, parts.weights / povm.dim, parts.parents)


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Outcome counts of a sampler run: ``outcome_counts[i]`` shots gave
    target outcome i, and the last entry counts the postselected-away shots."""

    outcome_counts: np.ndarray

    @property
    def shots(self) -> int:
        return int(self.outcome_counts.sum())

    def counts(self) -> np.ndarray:
        """Counts over the target outcomes followed by the fail count."""
        return np.array(self.outcome_counts)

    @property
    def success_count(self) -> int:
        return self.shots - int(self.outcome_counts[-1])

    @property
    def success_rate(self) -> float:
        return self.success_count / self.shots

    def conditional_frequencies(self) -> np.ndarray:
        """Frequencies over target outcomes, conditioned on non-failure."""
        c = self.outcome_counts[:-1]
        total = c.sum()
        if total == 0:
            raise ValueError("no successful shots to condition on")
        return c / total


def sample_postselection(scheme: PostselectionScheme, state: QuantumState,
                         shots: int, seed) -> ShotRecord:
    """Sample the protocol on a state: each shot draws a component and then
    its binary outcome.  The same law is drawn as counts, the runs of each
    component from one multinomial and its "+" count from one binomial, so
    time and memory grow with the components, not with ``shots``."""
    if state.dim != scheme.target.dim:
        raise ValueError("state dimension does not match the scheme")
    if shots < 1:
        raise ValueError("shots must be at least 1")
    rng = _rng(seed)
    n = scheme.target.n_outcomes
    runs = rng.multinomial(shots, scheme.weights / scheme.weights.sum())
    # success probability of component k on this state: <e_k|rho|e_k>
    succ = np.einsum("ki,ij,kj->k", scheme.states.conj(), state.rho,
                     scheme.states).real
    plus = rng.binomial(runs, np.clip(succ, 0.0, 1.0))
    counts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(counts, scheme.parents, plus)
    counts[n] = shots - counts.sum()
    return ShotRecord(counts)


def hw_covariant_povm(d: int, fiducial: QuantumState) -> tuple[Povm, bool]:
    """The d^2-outcome rank-one POVM covariant under clock-and-shift orbits.

    Effects are (1/d)|psi_ab><psi_ab| with |psi_ab> = X^a Z^b |fiducial>;
    group averaging makes the collection complete for any fiducial.  Returns
    the POVM and a flag telling whether all effect pairs are non-commuting
    (true for a generic fiducial, the regime where the 1/d bound is tight).
    """
    if not fiducial.is_pure:
        raise ValueError("fiducial state must be pure")
    if fiducial.dim != d:
        raise ValueError(f"fiducial dimension {fiducial.dim} does not match d={d}")
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    # row a*d + b is X^a Z^b |fiducial>: the cyclic shift X^a is a roll
    phased = np.stack([np.linalg.matrix_power(clock, b) @ fiducial.vector for b in range(d)])
    vectors = np.stack([np.roll(phased, a, axis=1) for a in range(d)]).reshape(d * d, d)
    effects = vectors[:, :, None] * vectors.conj()[:, None, :] / d
    # one row of pairs (i, j > i) at a time: O(d^4) memory, first commuting pair ends it
    noncommuting = True
    for i in range(len(effects) - 1):
        rest = effects[i + 1:]
        comm = np.abs(effects[i] @ rest - rest @ effects[i]).max(axis=(1, 2))
        if np.any(comm <= default_atol(d)):
            noncommuting = False
            break
    return Povm(effects), noncommuting


def max_success_bound_rank_one(povm: Povm) -> float:
    """Upper bound 1/d on the postselection success probability.

    Valid for rank-one POVMs with pairwise non-orthogonal states: any
    projective-simulable realization of M_q then decomposes over only n+1
    distinct projective measurements, forcing q <= 1/d.
    """
    directions = rank_one_parts(povm.stack, povm.atol, dominant=True).vectors
    overlaps = np.abs(directions.conj() @ directions.T)
    orthogonal = np.argwhere(np.triu(overlaps <= ORTHOGONALITY_ATOL, k=1))
    if orthogonal.size:
        i, j = orthogonal[0]
        raise ValueError(
            f"effects {i} and {j} have orthogonal states; the bound does not apply")
    return 1.0 / povm.dim
