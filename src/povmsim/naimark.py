"""Ancilla-based realization of rank-one POVMs: isometric dilation,
unitary completion, and computational-basis statistics on the larger space.

The comparison baseline for the postselection scheme: outcome i of the POVM
becomes basis outcome i after applying the dilation unitary to the system
joined with an ancilla prepared in |0>.  The system sits at register
indices 0..dim-1 in both modes; in ``qubit_register`` mode that makes the
ancilla qubit 0 (the leading tensor factor, in |0>) and the system qubit 1.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Povm,
    QuantumState,
    _freeze,
    born_probabilities,
    probability_rows,
    rank_one_parts,
)

MODES = ("abstract", "qubit_register")


class NaimarkDilation:
    """A unitary on an enlarged space implementing a rank-one POVM.

    ``unitary`` acts on the register space (dimension ``ext_dim``); its
    first ``dim`` columns are the isometry, so system basis state j enters
    at register index j, and register outcome i is logical outcome i
    (indices from ``n_outcomes`` on are padding outcomes).
    """

    def __init__(self, source: Povm, unitary: np.ndarray, mode: str):
        self.source = source
        self.unitary = _freeze(np.asarray(unitary, dtype=complex))
        self.mode = mode

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
    def isometry(self) -> np.ndarray:
        """The ext_dim x dim block actually fixed by the POVM."""
        return self.unitary[:, :self.dim]

    @property
    def isometry_defect(self) -> float:
        v = self.isometry
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))

    @property
    def unitarity_defect(self) -> float:
        u = self.unitary
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.ext_dim))))

    def __repr__(self) -> str:
        return (f"NaimarkDilation(dim={self.dim}, outcomes={self.n_outcomes}, "
                f"ext_dim={self.ext_dim}, mode={self.mode!r})")


def naimark_dilation(povm: Povm, mode: str = "abstract") -> NaimarkDilation:
    """Dilate a rank-one POVM to a unitary plus basis measurement.

    The isometry rows are sqrt(a_i) <psi_i|, so <i|V|phi> = sqrt(a_i)
    <psi_i|phi> and reading outcome i reproduces tr(M_i rho).  The remaining
    columns come from a complete QR of V: the first dim columns of Q span
    V's columns, so putting V back in their place leaves a unitary.  In
    ``qubit_register`` mode the unitary is padded to the next power of two
    by a direct sum with the identity.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    d = povm.dim
    n = povm.n_outcomes
    if n < d:
        raise ValueError("a rank-one POVM needs at least dim outcomes")
    parts = povm.rank_one or rank_one_parts(povm.stack, povm.atol, dominant=True)

    v = np.sqrt(np.maximum(parts.weights, 0.0))[:, None] * parts.vectors.conj()
    core = np.linalg.qr(v, mode="complete")[0]
    core[:, :d] = v

    if mode == "abstract":
        return NaimarkDilation(povm, core, mode)

    if d != 2:
        raise ValueError("qubit_register mode is defined for qubit POVMs")
    d_ext = 2
    while d_ext < n:
        d_ext *= 2
    if d_ext > 4:
        raise ValueError("qubit_register mode supports at most 4 outcomes")
    padded = np.eye(d_ext, dtype=complex)
    padded[:n, :n] = core
    return NaimarkDilation(povm, padded, mode)


def dilated_statistics(dilation: NaimarkDilation, state: QuantumState) -> np.ndarray:
    """Exact outcome distribution of the dilated measurement, the diagonal
    of V rho V^dagger through :func:`core.probability_rows` at the POVM
    tolerance (entries beyond n_outcomes are padding outcomes)."""
    if state.dim != dilation.dim:
        raise ValueError("state dimension does not match the dilation")
    v = dilation.isometry
    return probability_rows(((v @ state.rho) * v.conj()).sum(axis=1).real, dilation.source.atol)


def check_against_born(dilation: NaimarkDilation, state: QuantumState) -> float:
    """Max deviation between dilated statistics and the Born rule."""
    probs = dilated_statistics(dilation, state)
    oracle = born_probabilities(state, dilation.source)
    n = dilation.n_outcomes
    return float(max(np.max(np.abs(probs[:n] - oracle)), np.max(probs[n:], initial=0.0)))
