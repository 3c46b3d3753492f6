"""Quantum states, effects and measurements as validated numpy objects.

Everything downstream (simulation schemes, dilations, discrimination,
tomography) is built on the types and primitives defined here.  All objects
are immutable after construction: the wrapped numpy arrays are marked
read-only, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Hermiticity / positivity / idempotence / completeness checks use an
# absolute tolerance proportional to the dimension; double-precision
# eigensolves at d <= 64 stay well inside this.
TOLERANCE_SCALE = 1e-9
NORM_ATOL = 1e-12

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
    """Accept an int seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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


def as_operator(matrix, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a square complex matrix (with ``stack``, an (..., d, d)
    stack of them) with finite entries."""
    m = np.asarray(matrix, dtype=complex)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-2] != m.shape[-1] or m.shape[-1] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvariantViolation("finite entries", np.inf, f"{name} has non-finite entries")
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray, atol: float, name: str = "matrix") -> np.ndarray:
    defect = hermiticity_defect(m)
    if defect > atol:
        raise InvariantViolation("hermiticity", defect, f"{name} is not Hermitian (defect {defect:.3e})")
    return (m + m.conj().T) / 2


def hermitian_part(m: np.ndarray) -> np.ndarray | None:
    """(m + m^dagger) / 2 of an (..., d, d) stack when m is Hermitian within
    default_atol(d), else None."""
    hermitian = (m + m.conj().swapaxes(-1, -2)) / 2
    return hermitian if 2 * np.max(np.abs(m - hermitian)) <= default_atol(m.shape[-1]) else None


def operator_norm(matrix) -> float:
    """Largest absolute eigenvalue for Hermitian input, else largest singular
    value; for an (..., d, d) stack, the largest over all its matrices."""
    m = as_operator(matrix, stack=True)
    hermitian = hermitian_part(m)
    if hermitian is None:
        return float(np.max(np.linalg.svd(m, compute_uv=False)))
    return float(np.max(np.abs(np.linalg.eigvalsh(hermitian))))


def min_eigenvalue(matrix) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    m = as_operator(matrix)
    m = require_hermitian(m, default_atol(m.shape[0]))
    return float(np.linalg.eigvalsh(m)[0])


def validate_effects(stack: np.ndarray, atol: float) -> np.ndarray:
    """Check all effects at once (Hermitian, spectrum in [-atol, 1 + atol])
    and return the symmetrized stack.  The error names the first failing
    effect and its first failing check, in that order."""
    adjoint = stack.conj().swapaxes(1, 2)
    herm = np.max(np.abs(stack - adjoint), axis=(1, 2))
    sym = (stack + adjoint) / 2
    evs = np.linalg.eigvalsh(sym)
    failing = np.flatnonzero((herm > atol) | (evs[:, 0] < -atol) | (evs[:, -1] > 1 + atol))
    if failing.size:
        i = failing[0]
        low, high = evs[i, 0], evs[i, -1]
        if herm[i] > atol:
            raise InvariantViolation("hermiticity", herm[i],
                                     f"effect {i} is not Hermitian (defect {herm[i]:.3e})")
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
        v = self.vectors
        return self.weights[:, None, None] * (v[:, :, None] * v.conj()[:, None, :])


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


def inverse_sqrt(total: np.ndarray) -> np.ndarray:
    """B^{-1/2}, which rebalances pieces summing to B into a complete POVM."""
    w, v = np.linalg.eigh(total)
    if w[0] <= 0:
        raise ValueError("effects do not span the space; cannot rebalance")
    return (v * w ** -0.5) @ v.conj().T


class QuantumState:
    """A quantum state, stored as a density operator with an optional pure vector.

    Use :meth:`pure` / :meth:`density` to construct.  ``rho`` is always
    available; ``vector`` is ``None`` for genuinely mixed states.
    """

    def __init__(self, matrix=None, vector=None):
        if (matrix is None) == (vector is None):
            raise ValueError("provide exactly one of matrix or vector")
        if vector is not None:
            v = np.asarray(vector, dtype=complex).reshape(-1)
            if v.size < 1:
                raise ValueError("state vector must not be empty")
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
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(vector=v)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
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
        mats = [as_operator(e, f"effect {i}") for i, e in enumerate(effects)]
        if not mats:
            raise ValueError("a POVM needs at least one effect")
        n, dim = len(mats), mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValueError("all effects must share one dimension")
        self._stack = _freeze(validate_effects(np.stack(mats), default_atol(dim)))
        defect = self.completeness_defect
        if defect > self.atol:
            raise InvariantViolation("completeness", defect,
                                     f"effects sum to identity only within {defect:.3e}")
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        else:
            labels = tuple(str(l) for l in labels)
            if len(labels) != n:
                raise ValueError("labels must match the number of effects")
        self._labels = labels
        self._rank_one = None

    @classmethod
    def from_rank_one(cls, parts: RankOneParts) -> "Povm":
        """The POVM of the pieces; it keeps them as :attr:`rank_one`."""
        povm = cls(parts.effects())
        povm._rank_one = RankOneParts(*map(_freeze, (parts.weights, parts.vectors, parts.parents)))
        return povm

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
        """The pieces of :meth:`from_rank_one`, so no step eigensolves again."""
        return self._rank_one

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


def born_probabilities(state: QuantumState, povm: Povm) -> np.ndarray:
    """Outcome distribution tr(M_i rho) with round-off clamping.

    Negative entries of magnitude up to the POVM tolerance are clamped to
    zero and the vector renormalized; anything more negative is an error.
    """
    if state.dim != povm.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, POVM {povm.dim}")
    if state.is_pure:
        v = state.vector
        p = np.array([np.vdot(v, m @ v).real for m in povm.effects])
    else:
        p = np.array([np.trace(m @ state.rho).real for m in povm.effects])
    if np.min(p) < -povm.atol:
        raise InvariantViolation("probability positivity", -float(np.min(p)))
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > povm.atol:
        raise InvariantViolation("probability normalization", abs(total - 1.0))
    return p / total


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
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
    if count < 1 or dim < 1:
        raise ValueError("count and dimension must be at least 1")
    g = _rng(seed).standard_normal((count, 2, dim))
    v = g[:, 0] + 1j * g[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def haar_random_pure_state(dim: int, seed) -> QuantumState:
    """Unit vector distributed as the first column of a Haar unitary."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return QuantumState.pure(haar_random_vectors(1, dim, seed)[0])


def random_rank_one_povm(dim: int, n_outcomes: int, seed) -> Povm:
    """Random rank-one POVM from truncated columns of a Haar unitary.

    The first ``dim`` entries of each column of an n x n Haar unitary give
    sub-normalized vectors whose projectors sum to the identity.
    """
    if n_outcomes < dim:
        raise ValueError("need at least dim outcomes for a rank-one POVM")
    columns = haar_random_unitary(n_outcomes, seed)[:dim, :].T
    return Povm(columns[:, :, None] * columns.conj()[:, None, :])


def random_povm(dim: int, n_outcomes: int, seed, rank: int = 1) -> Povm:
    """Random POVM with effects of rank up to ``rank`` (rank-one pieces glued)."""
    if rank < 1:
        raise ValueError("rank must be positive")
    fine = random_rank_one_povm(dim, n_outcomes * rank, seed)
    if rank == 1:
        return fine
    return Povm(fine.stack.reshape(n_outcomes, rank, dim, dim).sum(axis=1))


def pauli_eigenstates() -> tuple[QuantumState, ...]:
    """The six eigenstates of X, Y, Z: a standard probe set for qubit checks."""
    s = 1 / np.sqrt(2)
    vectors = [(1, 0), (0, 1), (s, s), (s, -s), (s, 1j * s), (s, -1j * s)]
    return tuple(QuantumState.pure(np.array(v, dtype=complex)) for v in vectors)


# ---------------------------------------------------------------------------
# JSON measurement-exchange format.  Complex numbers are two-element
# [re, im] arrays; matrices are row-major nested lists.

class DocumentError(ValueError):
    """A document value of the wrong type, shape or size; names its key."""

    def __init__(self, key: str, message: str):
        self.key = key
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
