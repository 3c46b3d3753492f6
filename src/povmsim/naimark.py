"""Ancilla-based realization of rank-one POVMs: isometric dilation,
unitary completion, and computational-basis statistics on the larger space.

The comparison baseline for the postselection scheme: outcome i of the POVM
becomes basis outcome i after applying the dilation unitary to the system
joined with an ancilla prepared in |0>.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Povm,
    QuantumState,
    _freeze,
    born_probabilities,
    complex_from_lists,
    complex_to_lists,
    povm_from_document,
    povm_to_document,
    rank_one_parts,
)

MODES = ("abstract", "qubit_register")


class NaimarkDilation:
    """A unitary on an enlarged space implementing a rank-one POVM.

    ``unitary`` acts on the register space (dimension ``ext_dim``);
    ``permutation[i]`` is the register index carrying logical outcome i, and
    its first ``dim`` entries are also the register indices at which the
    system is embedded (ancilla in |0>).  In ``abstract`` mode the
    permutation is the identity; in ``qubit_register`` mode the register is
    system (x) ancilla, so basis state j of the system sits at index 2j.
    """

    def __init__(self, source: Povm, unitary: np.ndarray, permutation, mode: str):
        self.source = source
        self.unitary = _freeze(np.asarray(unitary, dtype=complex))
        self.permutation = tuple(int(p) for p in permutation)
        self.mode = mode
        d_ext = self.unitary.shape[0]
        if sorted(self.permutation) != list(range(d_ext)):
            raise ValueError("permutation must be a bijection on register indices")

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def ext_dim(self) -> int:
        return self.unitary.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.source.n_outcomes

    @property
    def embedding(self) -> tuple[int, ...]:
        """Register index of each system basis state (ancilla in |0>)."""
        return self.permutation[: self.dim]

    def outcome_of_register(self, register_index: int) -> int:
        """Logical outcome for a register result (>= n_outcomes: padding)."""
        return self.permutation.index(register_index)

    @property
    def isometry(self) -> np.ndarray:
        """The ext_dim x dim block actually fixed by the POVM."""
        return self.unitary[:, list(self.embedding)]

    @property
    def isometry_defect(self) -> float:
        v = self.isometry
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))

    @property
    def unitarity_defect(self) -> float:
        u = self.unitary
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.ext_dim))))

    def to_document(self) -> dict:
        """JSON form of the dilation for downstream circuit construction."""
        return {
            "mode": self.mode,
            "dim": self.dim,
            "ext_dim": self.ext_dim,
            "permutation": list(self.permutation),
            "unitary": complex_to_lists(self.unitary),
            "source": povm_to_document(self.source),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "NaimarkDilation":
        return cls(povm_from_document(doc["source"]),
                   complex_from_lists(doc["unitary"], "unitary", (None, None)),
                   doc["permutation"], doc["mode"])

    def __repr__(self) -> str:
        return (f"NaimarkDilation(dim={self.dim}, outcomes={self.n_outcomes}, "
                f"ext_dim={self.ext_dim}, mode={self.mode!r})")


def _complete_columns(partial: np.ndarray, filled: list[int]) -> np.ndarray:
    """Fill the unspecified columns by pivoted orthogonalization of the
    standard basis against the existing column span.

    Deterministic: each new column is the remainder of the standard basis
    vector with the largest component outside the current span (lowest index
    on ties), so the completion is stable under tiny input perturbations.
    The remainders of all basis vectors are kept between columns and only
    the newest column's projection is taken off them, so the whole
    completion costs O(n^3).
    """
    d_ext = partial.shape[0]
    u = partial.copy()
    basis_cols = [u[:, j] for j in filled]
    residuals = np.eye(d_ext, dtype=complex)
    for b in basis_cols:
        residuals -= np.outer(b, b.conj() @ residuals)
    for j in (j for j in range(d_ext) if j not in filled):
        norms = np.linalg.norm(residuals, axis=0)
        pick = int(np.argmax(np.round(norms, 12)))
        if norms[pick] < 1e-6:
            raise RuntimeError("ran out of basis vectors during completion")
        v = residuals[:, pick] / norms[pick]
        # second orthogonalization pass for numerical hygiene
        for b in basis_cols:
            v = v - np.vdot(b, v) * b
        v = v / np.linalg.norm(v)
        u[:, j] = v
        basis_cols.append(v)
        residuals -= np.outer(v, v.conj() @ residuals)
    return u


def naimark_dilation(povm: Povm, mode: str = "abstract") -> NaimarkDilation:
    """Dilate a rank-one POVM to a unitary plus basis measurement.

    The isometry rows are sqrt(a_i) <psi_i|, so <i|V|phi> = sqrt(a_i)
    <psi_i|phi> and reading outcome i reproduces tr(M_i rho).  The remaining
    columns are any orthonormal completion; in ``qubit_register`` mode the
    extension is padded to the next power of two by a direct sum with the
    identity, and rows/columns are permuted into system (x) ancilla order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    d = povm.dim
    n = povm.n_outcomes
    if n < d:
        raise ValueError("a rank-one POVM needs at least dim outcomes")
    parts = povm.rank_one or rank_one_parts(povm.stack, povm.atol, dominant=True)

    # n x n core: columns j < d carry the isometry, the rest are completed
    core = np.zeros((n, n), dtype=complex)
    core[:, :d] = np.sqrt(np.maximum(parts.weights, 0.0))[:, None] * parts.vectors.conj()
    core = _complete_columns(core, filled=list(range(d)))

    if mode == "abstract":
        return NaimarkDilation(povm, core, range(n), mode)

    if d != 2:
        raise ValueError("qubit_register mode is defined for qubit POVMs")
    d_ext = 2
    while d_ext < n:
        d_ext *= 2
    if d_ext > 4:
        raise ValueError("qubit_register mode supports at most 4 outcomes")
    padded = np.eye(d_ext, dtype=complex)
    padded[:n, :n] = core
    if d_ext == 2:
        # projective case: the register is the bare system qubit
        perm = [0, 1]
    else:
        # system basis j sits at register index 2j (ancilla is the
        # least-significant bit, prepared in |0>); remaining logical
        # outcomes fill the leftover register indices in order
        perm = [0, 2]
        perm += [j for j in range(d_ext) if j not in perm]
    p = np.eye(d_ext)[:, perm]  # logical outcome j -> register index perm[j]
    return NaimarkDilation(povm, p @ padded @ p.T, perm, mode)


def dilated_statistics(dilation: NaimarkDilation, state: QuantumState) -> np.ndarray:
    """Exact outcome distribution of the dilated measurement, in logical
    outcome order (entries beyond n_outcomes are padding outcomes)."""
    if state.dim != dilation.dim:
        raise ValueError("state dimension does not match the dilation")
    emb = list(dilation.embedding)
    rho_ext = np.zeros((dilation.ext_dim, dilation.ext_dim), dtype=complex)
    rho_ext[np.ix_(emb, emb)] = state.rho
    sigma = dilation.unitary @ rho_ext @ dilation.unitary.conj().T
    register_probs = np.clip(np.diag(sigma).real, 0.0, None)
    probs = register_probs[list(dilation.permutation)]
    return probs / probs.sum()


def check_against_born(dilation: NaimarkDilation, state: QuantumState) -> float:
    """Max deviation between dilated statistics and the Born rule."""
    probs = dilated_statistics(dilation, state)
    oracle = born_probabilities(state, dilation.source)
    n = dilation.n_outcomes
    return float(max(np.max(np.abs(probs[:n] - oracle)), np.max(probs[n:], initial=0.0)))
