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
    BLOCK_ELEMENTS,
    InvariantViolation,
    Povm,
    QuantumState,
    _freeze,
    _keep_pieces,
    _outer_products,
    _rng,
    default_atol,
    orthogonality_graph,
    rank_one_parts,
    rebalance,
    require_count,
    require_distribution,
    require_unit_rows,
)

FAIL_LABEL = "fail"


class PostProcessingMap:
    """Outcome k relabelled to outcome ``parents[k]`` of ``n_out`` (by
    default the largest parent plus one; a given ``n_out`` is an integer,
    not a bool, of at least 1).  The one check on outcome indices:
    ``parents`` is a read-only, non-empty 1-d vector of integer type, no bool
    among them, with every entry in 0..n_out-1.  A stochastic map q(j|k) is
    a convex combination of such maps (:func:`convex_combination`).
    """

    def __init__(self, assignment, n_out: int | None = None):
        parents = np.asarray(assignment)
        if parents.ndim != 1 or not parents.size:
            raise ValueError("assignment must be a non-empty list of outcome indices")
        if isinstance(assignment, np.ndarray):  # its dtype speaks for every entry
            wrong = [] if parents.dtype.kind in "iu" else [parents[0]]
        else:  # entry by entry: np.asarray makes [0, True] int64 and [0, 2**70] object
            wrong = [a for a in assignment if isinstance(a, (bool, np.bool_))
                     or not isinstance(a, (int, np.integer)) or not -2**63 <= a < 2**63]
        if wrong:
            raise ValueError(f"assignment index {wrong[0]} is not an integer index")
        if n_out is not None:
            require_count(n_out, "n_out")
        self.n_out = int(parents.max()) + 1 if n_out is None else int(n_out)
        bad = parents[(parents < 0) | (parents >= self.n_out)]
        if bad.size:
            raise ValueError(f"assignment index {bad[0]} is not in 0..{self.n_out - 1}")
        self.parents = _freeze(parents)

    @property
    def n_in(self) -> int:
        return len(self.parents)

    @property
    def matrix(self) -> np.ndarray:
        """The (n_out, n_in) 0/1 matrix q(j|k), built on each read."""
        q = np.zeros((self.n_out, self.n_in))
        q[self.parents, np.arange(self.n_in)] = 1.0
        return q

    def relabel(self, values: np.ndarray) -> np.ndarray:
        """Per-outcome values (effects, counts or frequency columns), outcome
        k's added into outcome ``parents[k]`` in outcome order, as a new
        (n_out, ...) array of ``values``'s dtype."""
        if len(values) != self.n_in:
            raise ValueError(f"map expects {self.n_in} outcome values, got {len(values)}")
        out = np.zeros((self.n_out, *values.shape[1:]), dtype=values.dtype)
        np.add.at(out, self.parents, values)  # unbuffered, in outcome order
        return out

    def __repr__(self) -> str:
        return f"PostProcessingMap({self.n_in} -> {self.n_out})"


def apply_postprocessing(povm: Povm, pmap: PostProcessingMap) -> Povm:
    """N_j = sum_k q(j|k) M_k: each effect added into its parent's slot."""
    return Povm(pmap.relabel(povm.stack))


def convex_combination(terms) -> Povm:
    """Effect-wise weighted sum of POVMs with matching shapes."""
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one term")
    for i, (w, _) in enumerate(terms):
        if isinstance(w, (bool, np.bool_, str)):  # float() would take True and "0.5"
            raise ValueError(f"term {i} has weight {w!r}, not a number")
    weights = require_distribution([float(w) for w, _ in terms], default_atol(len(terms)), "weight")
    if len({p.stack.shape for _, p in terms}) > 1:
        raise ValueError("all POVMs must share outcome count and dimension")
    return Povm(np.einsum("t,tkij->kij", weights, np.stack([p.stack for _, p in terms])))


def build_mq(povm: Povm, q: float) -> Povm:
    """The (n+1)-outcome POVM (q M_1, ..., q M_n, (1-q) 1)."""
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    return Povm(np.concatenate([q * povm.stack, [(1 - q) * np.eye(povm.dim)]]),
                labels=list(povm.labels) + [FAIL_LABEL])


def rank_one_refinement(povm: Povm) -> tuple[Povm, PostProcessingMap]:
    """Split every effect into rank-one pieces plus the merge map undoing it.

    The refinement is kept when every piece weight is above the POVM
    tolerance: a POVM carrying its pieces (:attr:`Povm.rank_one`) comes back
    as it is, with the identity map, and a glued one
    (:attr:`Povm.glued_from`) as the rank-one POVM it was glued from, with
    the gluing as merge map; nothing is solved or validated again.
    Otherwise all effects are eigendecomposed in one batched eigh;
    eigenvalues below the POVM tolerance are dropped.  Pieces are ordered by
    (parent outcome, descending eigenvalue).  The tiny completeness defect
    introduced by dropping is redistributed symmetrically (v -> B^{-1/2} v
    for every piece a|v><v|, B the sum of the pieces), which preserves
    rank-one-ness; a defect beyond the tolerance is an error.  The refined
    POVM keeps its pieces, so it is its own refinement.
    """
    refined, parents = povm.glued_from or (povm, np.arange(povm.n_outcomes))
    if refined.rank_one is not None and refined.rank_one.weights.min() > povm.atol:
        return refined, PostProcessingMap(parents, povm.n_outcomes)
    parts = rank_one_parts(povm.stack, povm.atol)
    total = (parts.vectors.T * parts.weights) @ parts.vectors.conj()  # sum_k a_k v_k v_k^dagger
    defect = float(np.max(np.abs(total - np.eye(povm.dim))))
    if defect > povm.atol:
        raise InvariantViolation("completeness", defect,
                                 f"refinement leaves completeness defect {defect:.3e}")
    if defect > 1e-14:
        parts = rebalance(parts, total)
    return Povm.from_rank_one(parts), PostProcessingMap(parts.parents, povm.n_outcomes)


class PostselectionScheme:
    """The protocol realizing a POVM with binary projective measurements
    and postselection at success probability 1/d.

    ``states[k]`` is the projector direction v_k of component k, drawn with
    probability ``weights[k]``; outcome "+" is relabelled to ``parents[k]``
    (``merge.parents``) by ``merge`` and "-" to the failure outcome (index
    n).  Checked inputs make the effects valid by construction; they are
    compared with M_{1/d} block by block, with no per-component stack: the
    states go into zero-padded (n, r, d) blocks of rows, r the most
    components one parent has, and one batched product per group of
    parents, in parent order, gives each parent's d sum_k w_k |v_k><v_k|
    minus M_i.  A group holds max(1, :data:`core.BLOCK_ELEMENTS` // d**2)
    parents, so the residual's memory does not grow with n.  One d x d
    product gives the fail block minus (1 - 1/d) 1.  The deviation is the
    largest |entry| of the parents' blocks over d and of the fail block.
    """

    def __init__(self, target: Povm, states, weights, parents):
        self.target = target
        self.states = _freeze(np.asarray(states, dtype=complex))
        if self.states.ndim != 2 or self.states.shape[1] != target.dim:
            raise ValueError(f"states must be an (m, {target.dim}) array for the target's "
                             f"dimension, got shape {self.states.shape}")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a 1-d vector, got shape {weights.shape}")
        self.merge = PostProcessingMap(parents, target.n_outcomes)
        self.parents = self.merge.parents
        if not (len(self.states) == len(weights) == len(self.parents)):
            raise ValueError("states, weights and parents must have equal length")
        self.weights = _freeze(require_distribution(weights, default_atol(len(weights)), "weight"))
        require_unit_rows(self.states, "direction")
        d = target.dim
        q = self.success_probability = 1.0 / d
        # component k goes to row slot j of its parent's block, j the number of
        # components before it with the same parent
        order = np.argsort(self.parents, kind="stable")
        grouped = self.parents[order]
        slots = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        rows = np.zeros((target.n_outcomes, slots.max() + 1, d), dtype=complex)
        scaled = np.zeros(rows.shape[:2])
        rows[grouped, slots] = self.states[order]
        scaled[grouped, slots] = d * self.weights[order]
        # the parents' blocks minus their M_i, a group of parents of at most
        # BLOCK_ELEMENTS entries at a time; np.maximum keeps a NaN
        group, worst = max(1, BLOCK_ELEMENTS // d ** 2), 0.0
        for start in range(0, target.n_outcomes, group):
            part = slice(start, start + group)
            block = (rows[part].transpose(0, 2, 1) * scaled[part, None, :]) @ rows[part].conj()
            block -= target.stack[part]
            worst = np.maximum(worst, abs(block).max())
        # the fail block sum_k w_k (1 - P_k) minus (1 - q) 1
        fail = (self.states.T * -self.weights) @ self.states.conj()
        fail.flat[::d + 1] += self.weights.sum() - 1 + q
        dev = max(float(worst) / d, float(abs(fail).max()))
        if not dev <= target.atol:
            raise InvariantViolation("postselection construction", dev)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def fail_index(self) -> int:
        return self.target.n_outcomes

    def mixture(self) -> Povm:
        """The mixture before relabelling: component k's "+" effect w_k P_k,
        P_k = |v_k><v_k|, in slot k and the one "-" effect sum_k w_k (1 - P_k),
        taken as (sum_k w_k) 1 - sum_k w_k P_k, in slot m;
        ``PostProcessingMap([*parents, fail_index])`` merges it."""
        plus = _outer_products(self.states) * self.weights[:, None, None]
        minus = self.weights.sum() * np.eye(self.target.dim) - plus.sum(axis=0)
        return Povm(np.concatenate([plus, minus[None]]))

    def __repr__(self) -> str:
        return (f"PostselectionScheme(outcomes={self.target.n_outcomes}, "
                f"components={self.n_components}, q={self.success_probability:g})")


def postselection_scheme(povm: Povm) -> PostselectionScheme:
    """Build the 1/d-success postselection protocol for an arbitrary POVM."""
    refined, merge = rank_one_refinement(povm)
    parts = refined.rank_one
    return PostselectionScheme(povm, parts.vectors, parts.weights / povm.dim, merge.parents)


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
    time and memory grow with the components, not with ``shots``.  Every
    component's success probability <e_k|rho|e_k> comes from one matrix
    product of the states with rho, for pure and mixed states alike."""
    if state.dim != scheme.target.dim:
        raise ValueError("state dimension does not match the scheme")
    require_count(shots, "shots")
    rng = _rng(seed)
    runs = rng.multinomial(shots, scheme.weights / scheme.weights.sum())
    succ = ((scheme.states.conj() @ state.rho) * scheme.states).sum(axis=1).real
    plus = rng.binomial(runs, np.clip(succ, 0.0, 1.0))
    kept = scheme.merge.relabel(plus)
    return ShotRecord(np.append(kept, shots - kept.sum()))


def hw_covariant_povm(fiducial: QuantumState) -> Povm:
    """``hw_covariant_povm(fiducial)``: the d^2-outcome rank-one POVM covariant
    under clock-and-shift orbits, d the dimension of the pure ``fiducial``.

    Effects are (1/d)|psi_ab><psi_ab| with |psi_ab> = X^a Z^b |fiducial>,
    kept as the POVM's pieces (:attr:`Povm.rank_one`); group averaging makes
    the collection complete for any fiducial.  For a generic one no two
    pieces are orthogonal, as :func:`max_success_bound_rank_one` checks.
    """
    if not fiducial.is_pure:
        raise ValueError("fiducial state must be pure")
    d = fiducial.dim
    clock = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    # row a*d + b is X^a Z^b |fiducial>: the cyclic shift X^a is a roll
    phased = np.stack([np.linalg.matrix_power(clock, b) @ fiducial.vector for b in range(d)])
    vectors = np.stack([np.roll(phased, a, axis=1) for a in range(d)]).reshape(d * d, d)
    effects = _outer_products(vectors) / d
    return _keep_pieces(Povm(effects), np.full(d * d, 1 / d), vectors)


def max_success_bound_rank_one(povm: Povm) -> float:
    """Upper bound 1/d on the postselection success probability.

    Valid for rank-one POVMs with pairwise non-orthogonal states: any
    projective-simulable realization of M_q then decomposes over only n+1
    distinct projective measurements, forcing q <= 1/d.  The one check of
    that condition: ValueError names the first orthogonal pair of the kept
    pieces (:attr:`Povm.rank_one`) or else of the effects' rank-one parts.
    """
    parts = povm.rank_one or rank_one_parts(povm.stack, povm.atol, dominant=True)
    edges = np.argwhere(np.triu(orthogonality_graph(parts.vectors.conj() @ parts.vectors.T)))
    if edges.size:
        i, j = edges[0]
        raise ValueError(
            f"effects {i} and {j} have orthogonal states; the bound does not apply")
    return 1.0 / povm.dim
