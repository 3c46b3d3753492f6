"""Ancilla-based realization of rank-one POVMs: isometric dilation,
unitary completion, and computational-basis statistics on the larger space.

The comparison baseline for the postselection scheme: outcome i of the POVM
becomes basis outcome i after applying the dilation unitary to the system
joined with an ancilla prepared in |0>.  The dilation is the n x n unitary
on the outcome space, and the system enters at its indices 0..dim-1; how it
sits in a qubit register is the circuit compiler's business
(:func:`noisy_device.compile_naimark_circuit`).
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


class NaimarkDilation:
    """A unitary on an enlarged space implementing a rank-one POVM.

    ``unitary`` is n_outcomes x n_outcomes; its first ``dim`` columns are
    the isometry, so system basis state j enters at index j, and basis
    outcome i is logical outcome i.
    """

    def __init__(self, source: Povm, unitary: np.ndarray):
        self.source = source
        self.unitary = _freeze(np.asarray(unitary, dtype=complex))

    @property
    def dim(self) -> int:
        return self.source.dim

    @property
    def n_outcomes(self) -> int:
        return self.source.n_outcomes

    @property
    def isometry(self) -> np.ndarray:
        """The n_outcomes x dim block actually fixed by the POVM."""
        return self.unitary[:, :self.dim]

    @property
    def isometry_defect(self) -> float:
        v = self.isometry
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.dim))))

    @property
    def unitarity_defect(self) -> float:
        u = self.unitary
        return float(np.max(np.abs(u.conj().T @ u - np.eye(self.n_outcomes))))

    def __repr__(self) -> str:
        return f"NaimarkDilation(dim={self.dim}, outcomes={self.n_outcomes})"


def naimark_dilation(povm: Povm) -> NaimarkDilation:
    """Dilate a rank-one POVM to a unitary plus basis measurement.

    The isometry rows are sqrt(a_i) <psi_i|, so <i|V|phi> = sqrt(a_i)
    <psi_i|phi> and reading outcome i reproduces tr(M_i rho).  The remaining
    columns come from a complete QR of V: the first dim columns of Q span
    V's columns, so putting V back in their place leaves a unitary.
    """
    d = povm.dim
    if povm.n_outcomes < d:
        raise ValueError("a rank-one POVM needs at least dim outcomes")
    parts = povm.rank_one or rank_one_parts(povm.stack, povm.atol, dominant=True)

    v = np.sqrt(np.maximum(parts.weights, 0.0))[:, None] * parts.vectors.conj()
    unitary = np.linalg.qr(v, "complete")[0]
    unitary[:, :d] = v
    return NaimarkDilation(povm, unitary)


def dilated_statistics(dilation: NaimarkDilation, state: QuantumState) -> np.ndarray:
    """Exact outcome distribution of the dilated measurement, the diagonal
    of V rho V^dagger through :func:`core.probability_rows` at the POVM
    tolerance."""
    if state.dim != dilation.dim:
        raise ValueError("state dimension does not match the dilation")
    v = dilation.isometry
    return probability_rows(((v @ state.rho) * v.conj()).sum(axis=1).real, dilation.source.atol)


def check_against_born(dilation: NaimarkDilation, state: QuantumState) -> float:
    """Max deviation between dilated statistics and the Born rule."""
    probs = dilated_statistics(dilation, state)
    return float(np.max(np.abs(probs - born_probabilities(state, dilation.source))))
