"""Quantum states, effects and measurements as validated numpy objects.

Everything downstream (simulation schemes, dilations, discrimination,
tomography) is built on the types and primitives defined here.  All objects
are immutable after construction: the wrapped numpy arrays are marked
read-only, so concurrent reads are safe.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Hermiticity / positivity / idempotence / completeness checks use an
# absolute tolerance proportional to the dimension; double-precision
# eigensolves at d <= 64 stay well inside this.
TOLERANCE_SCALE = 1e-9
NORM_ATOL = 1e-12
ORTHOGONALITY_ATOL = 1e-9
# matrix entries in one batched temporary: the scheme check's residual and
# operational_distance's subset sums are built in blocks of at most this many,
# and the random USD experiment's Gaussian draws in blocks of as many floats; at
# d = 2 the subset sums are Bloch rows of 4 floats, 2**12 subsets to a block
BLOCK_ELEMENTS = 2 ** 14
#: the largest count require_count takes: the largest numpy's int64 samplers take
MAX_COUNT = int(np.iinfo(np.int64).max)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def default_atol(dim: int) -> float:
    return TOLERANCE_SCALE * dim


class InvariantViolation(ValueError):
    """A quantum object failed one of its defining invariants.

    Carries the name of the violated invariant and the size of the
    violation so that loaders and tests can report both.
    """

    def __init__(self, invariant: str, deviation: float, message: str | None = None):
        self.invariant = invariant
        self.deviation = float(deviation)
        if message is None:
            message = f"violated by {deviation:.3e}"
        super().__init__(f"invariant '{invariant}': {message}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def _rng(seed) -> np.random.Generator:
    """Accept an int seed or an existing Generator.  Every seeded function draws
    from its generator in call order, except the two that spawn one child per
    independent stream: compare_schemes, one per route, and
    random_ensemble_experiment, one for its factors' normals and one for their
    chi-square diagonals.  Their children come from a Generator's SeedSequence
    and spawn count, not from its state, and each call spawns fresh ones."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _outer_products(vectors: np.ndarray) -> np.ndarray:
    """|c_k><c_k| for the rows c_k of ``vectors``, as an (n, d, d) stack."""
    return vectors[:, :, None] * vectors.conj()[:, None, :]


def require_unit_rows(vectors: np.ndarray, name: str = "state vector") -> np.ndarray:
    """Check that the rows of ``vectors`` (or the one vector) are finite
    with unit norm to within NORM_ATOL."""
    if not np.all(np.isfinite(vectors)):
        raise InvariantViolation("finite entries", np.inf, f"{name} has non-finite entries")
    defect = float(np.max(np.abs(np.linalg.norm(vectors, axis=-1) - 1.0)))
    if not defect <= NORM_ATOL:
        raise InvariantViolation("unit norm", defect, f"{name} must have unit norm "
                                 f"(defect {defect:.3e})")
    return vectors


def require_count(value, name: str):
    """Check that a count (shots, trials, outcomes, dimension) is a Python or
    numpy integer, not a bool, in 1..MAX_COUNT."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value!r}")


def as_operator(matrix, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a square complex matrix (with ``stack``, an (..., d, d)
    stack of them holding at least one) with finite entries."""
    m = np.asarray(matrix, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-2] != m.shape[-1] or 0 in m.shape:
        kind = "non-empty stack of square matrices" if stack else "square matrix"
        raise ValueError(f"{name} must be a {kind}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("finite entries", np.inf, f"{name} has non-finite entries")
    return m


def hermitian_part(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m + m^dagger) / 2 of an (..., d, d) stack as a fresh C-ordered array, and
    each matrix's defect max|m - m^dagger|: NaN for a NaN entry, so test ``not defect <= atol``."""
    adjoint = m.conj().swapaxes(-1, -2)
    sym = np.subtract(m, adjoint, out=np.empty(m.shape, dtype=complex))
    defect = np.abs(sym).max(axis=(-2, -1))
    np.add(m, adjoint, out=sym)
    sym *= 0.5  # (m + adjoint) / 2 bit for bit, but a zero keeps its sign
    return sym, defect


def require_hermitian(m: np.ndarray, atol: float, name: str = "matrix") -> np.ndarray:
    """The Hermitian part of a matrix or (..., d, d) stack, checked on its largest defect."""
    hermitian, defect = hermitian_part(m)
    worst = defect.max()
    if not worst <= atol:
        raise InvariantViolation("hermiticity", worst, f"{name} is not Hermitian (defect {worst:.3e})")
    return hermitian


def isometry_defect(v: np.ndarray) -> float:
    """max|v^dagger v - 1| for orthonormal columns v; NaN for a NaN entry, like hermitian_part's."""
    gram = v.conj().T @ v
    gram.reshape(-1)[::gram.shape[0] + 1] -= 1.0  # the diagonal of the fresh product
    return float(np.abs(gram).max())


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue for Hermitian input (:func:`_hermitian_norm`), else
    largest singular value; for an (..., d, d) stack, the largest over all its matrices."""
    m = as_operator(matrix, stack=True)
    hermitian, defect = hermitian_part(m)
    if not np.max(defect) <= default_atol(m.shape[-1]):
        return float(np.max(np.linalg.svd(m, compute_uv=False)))
    return float(_hermitian_norm(hermitian.reshape(-1, *m.shape[-2:])))


def _hermitian_norm(blocks) -> float:
    """The largest |eigenvalue| that eigvalsh gives over a (b, d, d) stack of
    Hermitian matrices.  It eigensolves every block; the qubit subset scan of
    :func:`tomography.operational_distance` takes its norms in closed form
    and never calls it."""
    return np.abs(np.linalg.eigvalsh(blocks)).max()


def min_eigenvalue(matrix) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, as a float; of an (..., d, d)
    stack, each matrix's as an (...) array, with one Hermiticity check and one
    eigvalsh for the whole stack."""
    m = as_operator(matrix, stack=True)
    lams = np.linalg.eigvalsh(require_hermitian(m, default_atol(m.shape[-1])))[..., 0]
    return float(lams) if m.ndim == 2 else lams


def validate_effects(stack: np.ndarray, atol: float) -> np.ndarray:
    """Check all effects at once (Hermitian, spectrum in [-atol, 1 + atol])
    and return the symmetrized stack.  The error names the first failing
    effect and its first failing check, in that order."""
    sym, herm = hermitian_part(stack)
    evs = np.linalg.eigvalsh(sym)
    failing = np.flatnonzero(~(herm <= atol) | (evs[:, 0] < -atol) | (evs[:, -1] > 1 + atol))
    if failing.size:
        i = failing[0]
        require_hermitian(stack[i], atol, f"effect {i}")  # raises if that check fails first
        low, high = evs[i, 0], evs[i, -1]
        if low < -atol:
            raise InvariantViolation("positivity", -low, f"effect {i} has eigenvalue {low:.3e} < 0")
        raise InvariantViolation("effect bound", high - 1,
                                 f"effect {i} has eigenvalue {high:.6f} > 1")
    return sym


@dataclass(frozen=True)
class RankOneParts:
    """Pieces a_k|v_k><v_k| (unit ``vectors[k]``) split from effect ``parents[k]``."""

    weights: np.ndarray
    vectors: np.ndarray
    parents: np.ndarray

    def effects(self) -> np.ndarray:
        """The pieces as an (m, d, d) stack, each entry formed as np.outer forms it."""
        pieces = _outer_products(self.vectors)
        pieces *= self.weights[:, None, None]
        return pieces


def rank_one_parts(effects: np.ndarray, atol: float, dominant: bool = False) -> RankOneParts:
    """Eigenpairs of a Hermitian (n, d, d) stack from one batched eigh,
    ordered by (parent, descending a): every pair with a > atol, or with
    ``dominant`` only the largest of each matrix, raising if another
    eigenvalue exceeds atol in size."""
    w, v = np.linalg.eigh(effects)
    keep = w[:, ::-1] > atol
    if dominant:
        failing = np.flatnonzero(np.abs(w[:, :-1]).max(axis=1, initial=0.0) > atol)
        if failing.size:
            raise ValueError(f"effect {failing[0]} is not rank-one within {atol:.1e}")
        keep = np.zeros_like(keep)
        keep[:, 0] = True
    parents, k = np.nonzero(keep)
    k = w.shape[1] - 1 - k
    return RankOneParts(w[parents, k], v[parents, :, k], parents)


def rebalance(parts: RankOneParts, total: np.ndarray) -> RankOneParts:
    """The pieces B^{-1/2} a|v><v| B^{-1/2} of ``parts``, with B = ``total``
    their sum: a complete POVM, each piece kept rank one as weight a|u|^2
    and direction u/|u| for u = B^{-1/2} v."""
    w, v = np.linalg.eigh(total)
    if w[0] <= 0:
        raise ValueError("effects do not span the space; cannot rebalance")
    u = parts.vectors @ ((v * w ** -0.5) @ v.conj().T).T
    norms = np.linalg.norm(u, axis=1)
    return RankOneParts(parts.weights * norms ** 2, u / norms[:, None], parts.parents)


def orthogonality_graph(gram: np.ndarray) -> np.ndarray:
    """i ~ j iff |G_ij| <= ORTHOGONALITY_ATOL sqrt(G_ii G_jj): orthogonality of the
    vectors with Gram matrix G, their V* V^T (or C^{-1} for the duals of states)."""
    diag = np.diag(gram).real
    return np.abs(gram) <= ORTHOGONALITY_ATOL * np.sqrt(np.outer(diag, diag))


class QuantumState:
    """A quantum state, stored as a density operator with an optional pure vector.

    Use :meth:`pure` / :meth:`density` to construct.  ``rho`` is always
    available; ``vector`` is ``None`` for genuinely mixed states.
    """

    def __init__(self, matrix=None, vector=None):
        if (matrix is None) == (vector is None):
            raise ValueError("provide exactly one of matrix or vector")
        if vector is not None:
            v = np.asarray(vector, dtype=complex)
            if v.ndim != 1 or not v.size:
                raise ValueError(f"state vector must be non-empty and 1-d, got shape {v.shape}")
            self._vector = _freeze(require_unit_rows(v))
            self._rho = _freeze(np.outer(v, v.conj()))
        else:
            m = as_operator(matrix, "density matrix")
            atol = default_atol(m.shape[0])
            m = require_hermitian(m, atol, "density matrix")
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > atol:
                raise InvariantViolation("unit trace", abs(tr - 1.0))
            evs = np.linalg.eigvalsh(m)
            if evs[0] < -atol:
                raise InvariantViolation("positivity", -evs[0])
            self._vector = None
            self._rho = _freeze(m)

    @classmethod
    def pure(cls, vector) -> "QuantumState":
        return cls(vector=vector)

    @classmethod
    def density(cls, matrix) -> "QuantumState":
        return cls(matrix=matrix)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "QuantumState":
        require_count(dim, "dim")
        if (isinstance(index, bool) or not isinstance(index, (int, np.integer))
                or not 0 <= index < dim):
            raise ValueError(f"index must be an integer in 0..{dim - 1}, got {index!r}")
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(vector=v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        require_count(dim, "dim")
        return cls(matrix=np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self._rho.shape[0]

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def vector(self) -> np.ndarray | None:
        return self._vector

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    def __repr__(self) -> str:
        kind = "pure" if self.is_pure else "density"
        return f"QuantumState(dim={self.dim}, {kind})"


class Povm:
    """An ordered list of effects summing to the identity.

    Each effect is validated (Hermitian, spectrum in [0, 1]) and the
    completeness defect is checked against :attr:`atol`.
    """

    def __init__(self, effects: Iterable, labels: Sequence[str] | None = None):
        effects = effects if isinstance(effects, np.ndarray) else list(effects)
        try:
            stack = np.asarray(effects, dtype=complex)
        except (TypeError, ValueError):  # ragged or non-numeric: the loop below names it
            stack = np.empty(0)
        if not (stack.ndim == 3 and min(stack.shape) >= 1 and stack.shape[1] == stack.shape[2]
                and np.isfinite(stack).all()):
            mats = [as_operator(e, f"effect {i}") for i, e in enumerate(effects)]
            if not mats:
                raise ValueError("a POVM needs at least one effect")
            raise ValueError("all effects must share one dimension")
        n, dim = stack.shape[:2]
        # validate_effects returns a fresh array, so the caller's is never aliased
        self._stack = validate_effects(stack, default_atol(dim))
        self._stack.setflags(write=False)
        defect = self.completeness_defect
        if defect > self.atol:
            raise InvariantViolation("completeness", defect,
                                     f"effects sum to identity only within {defect:.3e}")
        self._labels = tuple(map(str, range(1, n + 1) if labels is None else labels))
        if len(self._labels) != n:
            raise ValueError("labels must match the number of effects")
        self._rank_one = self._glued_from = None

    @classmethod
    def from_rank_one(cls, parts: RankOneParts) -> "Povm":
        """The POVM of the pieces, one effect each; it keeps them as :attr:`rank_one`."""
        return _keep_pieces(cls(parts.effects()), parts.weights, parts.vectors)

    @property
    def dim(self) -> int:
        return self._stack.shape[1]

    @property
    def n_outcomes(self) -> int:
        return len(self._stack)

    @property
    def effects(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    @property
    def stack(self) -> np.ndarray:
        """All effects as one read-only (n, d, d) array."""
        return self._stack

    @property
    def rank_one(self) -> RankOneParts | None:
        """The rank-one pieces the POVM was built from, one per effect
        (``parents`` 0..n-1), so no step eigensolves again: set by
        :meth:`from_rank_one`, :func:`random_rank_one_povm` and
        ``simulation.hw_covariant_povm``.  ``None`` for a POVM given as
        effects, a loaded document or a glued POVM (:attr:`glued_from`) included."""
        return self._rank_one

    @property
    def glued_from(self) -> tuple["Povm", np.ndarray] | None:
        """The validated rank-one POVM whose pieces were summed into this
        one, and each piece's effect here; set by :func:`random_povm` at rank > 1."""
        return self._glued_from

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def atol(self) -> float:
        """The validation tolerance, ``default_atol(dim)``."""
        return default_atol(self.dim)

    @property
    def completeness_defect(self) -> float:
        return float(np.max(np.abs(self._stack.sum(axis=0) - np.eye(self.dim))))

    def __len__(self) -> int:
        return len(self._stack)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._stack)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._stack[i]

    def allclose(self, other: "Povm", atol: float | None = None) -> bool:
        if atol is None:
            atol = self.atol
        if self.dim != other.dim or self.n_outcomes != other.n_outcomes:
            return False
        return np.allclose(self._stack, other._stack, atol=atol, rtol=0.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim}, outcomes={self.n_outcomes})"


def _keep_pieces(povm: Povm, weights, vectors) -> Povm:
    """``povm``, keeping its effects k as the pieces weights[k]|vectors[k]><vectors[k]|
    (unit vectors) in its read-only :attr:`Povm.rank_one`."""
    povm._rank_one = RankOneParts(*map(_freeze, (weights, vectors, np.arange(len(weights)))))
    return povm


def require_distribution(p, atol: float, name: str = "probability") -> np.ndarray:
    """``p`` clipped at 0, not renormalised, once each row along its last axis is a
    distribution: an entry below -atol is ``<name> positivity``, a clipped sum off 1
    by more than atol (NaN and inf included) is ``<name> normalization``."""
    return _clipped_rows_and_sums(p, atol, name)[0]


def _clipped_rows_and_sums(p, atol: float, name: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`require_distribution`'s check, returning the clipped rows and their sums."""
    p = np.asarray(p, dtype=float)
    if not p.size:
        raise ValueError(f"{name} distribution must be non-empty, got shape {p.shape}")
    low = -float(p.min())
    if not low <= atol:
        raise InvariantViolation(f"{name} positivity", low)
    p = np.maximum(p, 0.0)  # equals np.clip(p, 0, None) at a third of its cost on small rows
    with np.errstate(over="ignore"):  # a sum past the largest float is inf, reported below
        sums = p.sum(axis=-1)
    defect = float(abs(sums - 1.0).max())
    if not defect <= atol:
        raise InvariantViolation(f"{name} normalization", defect)
    return p, sums


def probability_rows(p, atol: float) -> np.ndarray:
    """:func:`require_distribution`'s rows, each divided by the sum it checked."""
    p, sums = _clipped_rows_and_sums(p, atol, "probability")
    return p / sums[..., None]


def born_probabilities(state: QuantumState | np.ndarray, povm: Povm) -> np.ndarray:
    """Outcome distribution tr(M_k rho) through :func:`probability_rows` at
    the POVM tolerance.  ``state`` is a QuantumState, or a (P, d, d) stack
    of density matrices for a (P, n) table with one row per state."""
    rho = state.rho if isinstance(state, QuantumState) else np.asarray(state)
    if rho.shape[-1] != povm.dim:
        raise ValueError(f"dimension mismatch: state {rho.shape[-1]}, POVM {povm.dim}")
    return probability_rows(np.einsum("kij,...ji->...k", povm.stack, rho).real, povm.atol)


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    require_count(dim, "dim")
    rng = _rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity of QR so the distribution is exactly Haar
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_random_vectors(count: int, dim: int, seed) -> np.ndarray:
    """``count`` independent Haar-random unit vectors as the rows of a
    (count, dim) array.  Row k takes the real then the imaginary parts of
    one complex Gaussian vector, so the stream is used exactly as ``count``
    calls to :func:`haar_random_pure_state` use it."""
    require_count(count, "count")
    require_count(dim, "dim")
    g = _rng(seed).standard_normal((count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def haar_random_pure_state(dim: int, seed) -> QuantumState:
    """Unit vector distributed as the first column of a Haar unitary."""
    return QuantumState.pure(haar_random_vectors(1, dim, seed)[0])


def random_rank_one_povm(dim: int, n_outcomes: int, seed) -> Povm:
    """Random rank-one POVM from truncated columns c_k of a Haar unitary:
    effects |c_k><c_k|, kept as pieces (:attr:`Povm.rank_one`) of weight
    |c_k|^2 and direction c_k/|c_k|, so its refinement is itself."""
    require_count(dim, "dim")
    require_count(n_outcomes, "n_outcomes")
    if n_outcomes < dim:
        raise ValueError("need at least dim outcomes for a rank-one POVM")
    columns = haar_random_unitary(n_outcomes, seed)[:dim, :].T
    norms = np.linalg.norm(columns, axis=1)
    return _keep_pieces(Povm(_outer_products(columns)), norms ** 2, columns / norms[:, None])


def random_povm(dim: int, n_outcomes: int, seed, rank: int = 1) -> Povm:
    """Random POVM with effects of rank up to ``rank``: the pieces of
    ``random_rank_one_povm(dim, n_outcomes * rank, seed)`` glued k -> k // rank,
    kept as :attr:`Povm.glued_from` so the refinement solves nothing."""
    require_count(rank, "rank")
    require_count(n_outcomes, "n_outcomes")
    if int(n_outcomes) * int(rank) > MAX_COUNT:
        raise ValueError(f"n_outcomes * rank must be at most {MAX_COUNT}, "
                         f"got {n_outcomes} * {rank}")
    pieces = random_rank_one_povm(dim, n_outcomes * rank, seed)
    if rank == 1:
        return pieces
    povm = Povm(pieces.stack.reshape(n_outcomes, rank, dim, dim).sum(axis=1))
    povm._glued_from = (pieces, _freeze(np.arange(n_outcomes * rank) // rank))
    return povm


@functools.cache
def pauli_eigenstates() -> tuple[QuantumState, ...]:
    """The six eigenstates of X, Y, Z (|0>, |1>, |x+>, |x->, |y+>, |y->): a
    standard probe set for qubit checks, built once per process and shared."""
    s = 1 / np.sqrt(2)
    vectors = [(1, 0), (0, 1), (s, s), (s, -s), (s, 1j * s), (s, -1j * s)]
    return tuple(QuantumState.pure(np.array(v, dtype=complex)) for v in vectors)


# ---------------------------------------------------------------------------
# JSON measurement-exchange format.  Complex numbers are two-element
# [re, im] arrays; matrices are row-major nested lists.

class DocumentError(ValueError):
    """A document value of the wrong type, shape or size; names its key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"key {key!r} {message}")


def array_from_lists(value, key: str, shape: tuple) -> np.ndarray:
    """Nested lists of JSON numbers, read from ``key``, as a finite float
    array of ``shape`` (``None`` for an axis of any non-zero length)."""
    a = np.array(value, dtype=object)
    if (a.ndim != len(shape)
            or any(n == 0 or want not in (None, n) for n, want in zip(a.shape, shape))
            or not set(map(type, a.flat)) <= {int, float}):
        dims = ", ".join("n" if want is None else str(want) for want in shape)
        raise DocumentError(key, f"must be nested lists of numbers of shape [{dims}]")
    try:
        a = a.astype(float)
        finite = bool(np.all(np.isfinite(a)))
    except OverflowError:
        finite = False
    if not finite:
        raise DocumentError(key, "has non-finite entries")
    return a


def complex_from_lists(value, key: str, shape: tuple) -> np.ndarray:
    """[re, im] pairs nested to ``shape`` under ``key``, as a complex array."""
    return array_from_lists(value, key, (*shape, 2)).view(complex)[..., 0]


def complex_to_lists(a) -> list:
    """A complex array as nested lists with [re, im] pairs innermost: the
    inverse of :func:`complex_from_lists`."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _positive_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DocumentError(key, f"must be a positive integer, got {value!r}")
    return value


def povm_to_document(povm: Povm) -> dict:
    return {
        "dim": povm.dim,
        "effects": complex_to_lists(povm.stack),
        "labels": list(povm.labels),
    }


def povm_from_document(doc: dict) -> Povm:
    dim = _positive_int(doc["dim"], "dim")
    effects = complex_from_lists(doc["effects"], "effects", (None, dim, dim))
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == len(effects)
                                   and all(isinstance(label, str) for label in labels)):
        raise DocumentError("labels", f"must be a list of {len(effects)} strings")
    return Povm(effects, labels=labels)


def state_to_document(state: QuantumState) -> dict:
    if state.is_pure:
        return {"dim": state.dim, "vector": complex_to_lists(state.vector)}
    return {"dim": state.dim, "matrix": complex_to_lists(state.rho)}


def vector_from_document(doc: dict, prefix: str = "") -> np.ndarray:
    """The ``vector`` of a pure-state document, of length ``dim`` (its norm
    unchecked); ``prefix`` is put before the keys named in errors."""
    dim = _positive_int(doc["dim"], prefix + "dim")
    return complex_from_lists(doc["vector"], prefix + "vector", (dim,))


def state_from_document(doc: dict) -> QuantumState:
    if "vector" in doc:
        return QuantumState.pure(vector_from_document(doc))
    dim = _positive_int(doc["dim"], "dim")
    return QuantumState.density(complex_from_lists(doc["matrix"], "matrix", (dim, dim)))
