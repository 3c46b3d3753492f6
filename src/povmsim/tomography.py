"""Qubit measurement tomography by linear inversion, and the operational
distance used to score implementations against their targets.

The probe set is the four Pauli eigenstates |0>, |1>, |x+>, |y+>:
informationally complete for qubit effects, so the four probe frequencies
of each outcome fix its 2x2 effect by one linear map, applied to all
outcomes at once.  Inversion is deliberately unconstrained; effects with an
eigenvalue outside [0, 1] are reported, never projected away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Povm,
    QuantumState,
    _freeze,
    as_operator,
    hermitian_part,
    operator_norm,
    pauli_eigenstates,
)

MAX_SUBSET_OUTCOMES = 20
SUBSET_BLOCK_ELEMENTS = 2 ** 14  # matrix entries per batch of subset sums: 2**12 at d = 2


def probe_states() -> tuple[QuantumState, ...]:
    """|0>, |1>, |x+>, |y+>: the four probes, in the row order of a record."""
    states = pauli_eigenstates()
    return tuple(states[i] for i in (0, 1, 2, 4))


# the probes as a read-only (4, 2, 2) density stack, built once
PROBE_RHOS = _freeze(np.stack([p.rho for p in probe_states()]))


class TomographyRecord:
    """Per-probe outcome frequencies, the raw material of reconstruction.

    ``frequencies[p, i]`` is the relative frequency of outcome i on probe p,
    one row for each of the four probes of :func:`probe_states`; every row
    sums to one.
    """

    def __init__(self, frequencies):
        f = np.asarray(frequencies, dtype=float)
        if f.ndim != 2 or f.shape[0] != 4:
            raise ValueError("frequencies must be a (4 probes, n_outcomes) table")
        if np.min(f) < -1e-12:
            raise ValueError("frequencies must be non-negative")
        row_defect = float(np.max(np.abs(f.sum(axis=1) - 1.0)))
        if not row_defect <= 1e-9:  # also catches NaN
            raise ValueError(f"each probe's frequencies must sum to 1 (defect {row_defect:.3e})")
        self.frequencies = _freeze(np.clip(f, 0.0, None))

    @property
    def n_outcomes(self) -> int:
        return self.frequencies.shape[1]

    @classmethod
    def from_born(cls, povm: Povm) -> "TomographyRecord":
        """Exact statistics: the infinite-shot record of a known POVM."""
        from .core import born_probabilities
        return cls([born_probabilities(state, povm) for state in probe_states()])

    def postselected(self, fail_index: int) -> "TomographyRecord":
        """Drop one outcome column and renormalize each probe row,
        keeping only non-rejected outcomes."""
        keep = [i for i in range(self.n_outcomes) if i != fail_index]
        table = self.frequencies[:, keep]
        totals = table.sum(axis=1, keepdims=True)
        if np.min(totals) <= 0:
            raise ValueError("a probe has no surviving outcomes after postselection")
        return TomographyRecord(table / totals)

    def __repr__(self) -> str:
        return f"TomographyRecord(outcomes={self.n_outcomes})"


@dataclass(frozen=True)
class Reconstruction:
    """Linear-inversion output: effects plus physicality diagnostics."""

    effects: tuple[np.ndarray, ...]
    completeness_defect: float
    unphysical_outcomes: tuple[int, ...]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def physical(self) -> bool:
        return not self.unphysical_outcomes


def reconstruct_povm(record: TomographyRecord) -> Reconstruction:
    """Reconstruct every effect of a qubit measurement from a record.

    With t = (p(z0) + p(z1)) / 2, effect i has diagonal p(z0), p(z1) and
    off-diagonal entry p(x+) - t - i (p(y+) - t); an outcome that never
    fired (no frequency above 1e-12) is the zero effect.  The eigenvalues of
    an effect are t -+ r with r = hypot(|M_01|, (p(z0) - p(z1)) / 2); an
    outcome with one outside [0, 1] is flagged as unphysical but kept as-is.
    The completeness defect ||sum M_i - 1|| is reported rather than corrected.
    """
    f = record.frequencies
    z0, z1, x, y = np.where(f.max(axis=0) > 1e-12, f, 0.0)
    t = (z0 + z1) / 2
    off = x - t - 1j * (y - t)
    effects = np.empty((record.n_outcomes, 2, 2), dtype=complex)
    effects[:, 0, 0], effects[:, 1, 1] = z0, z1
    effects[:, 0, 1], effects[:, 1, 0] = off, off.conj()
    r = np.hypot(np.abs(off), (z0 - z1) / 2)
    unphysical = (r > t * (1 + 1e-9)) | (t + r > 1 + 1e-9)
    defect = operator_norm(effects.sum(axis=0) - np.eye(2))
    return Reconstruction(tuple(_freeze(effects)), defect,
                          tuple(np.flatnonzero(unphysical).tolist()))


def _effect_list(povm):
    if isinstance(povm, (Povm, Reconstruction)):
        return [np.asarray(m) for m in povm.effects]
    return [as_operator(m, f"effect {i}") for i, m in enumerate(povm)]


def operational_distance(m, n) -> float:
    """Worst-case distinguishability distance between two measurements.

    max over outcome subsets x of || sum_{i in x} (M_i - N_i) ||; equals
    2 p_dist - 1 for the optimal entanglement-free discrimination
    probability.  Outcome lists of unequal length are padded with zero
    effects.  When both measurements are complete the subset and its
    complement give the same norm, so only subsets containing outcome 0 are
    scanned; otherwise all subsets are.  The subset sums are stacked and
    solved by one batched eigvalsh per block of at most
    SUBSET_BLOCK_ELEMENTS matrix entries, so memory does not grow with d.
    """
    ms = _effect_list(m)
    ns = _effect_list(n)
    dim = ms[0].shape[0]
    if ns[0].shape[0] != dim:
        raise ValueError("measurements act on different dimensions")
    k = max(len(ms), len(ns))
    if k > MAX_SUBSET_OUTCOMES:
        raise ValueError(f"subset enumeration supports at most {MAX_SUBSET_OUTCOMES} outcomes")
    zero = np.zeros((dim, dim), dtype=complex)
    ms = ms + [zero] * (k - len(ms))
    ns = ns + [zero] * (k - len(ns))
    diffs = as_operator(np.stack([a - b for a, b in zip(ms, ns)]), "effect differences",
                        stack=True)
    complete_pair = float(np.max(np.abs(diffs.sum(axis=0)))) <= 1e-12
    hermitian = hermitian_part(diffs)
    if hermitian is None:  # each block takes operator_norm's singular-value path
        norm = operator_norm
    else:  # sums of the symmetrised differences are exactly Hermitian
        diffs, norm = hermitian, lambda block: np.abs(np.linalg.eigvalsh(block)).max()
    base, free = (diffs[0], diffs[1:]) if complete_pair else (zero, diffs)
    bits = max(1, (SUBSET_BLOCK_ELEMENTS // dim ** 2).bit_length() - 1)
    return float(max(norm(block) for block in _subset_sum_blocks(free, base, bits)))


def _subset_sum_blocks(parts, base, bits):
    """``base`` plus every subset sum of ``parts``, 2**bits sums at a time:
    the sums over the first ``bits`` parts form one stack, and the sums over
    the rest, built the same way, are added to it as offsets."""
    if len(parts) <= bits:
        yield _subset_sums(parts) + base
        return
    block = _subset_sums(parts[:bits])
    for offsets in _subset_sum_blocks(parts[bits:], base, bits):
        for offset in offsets:
            yield block + offset


def _subset_sums(parts):
    """The sums of every subset of ``parts``, stacked, built by doubling."""
    sums = np.zeros((1, *parts.shape[1:]), dtype=parts.dtype)
    for part in parts:
        sums = np.concatenate([sums, sums + part])
    return sums


def bias_mitigated_statistics(records: dict) -> TomographyRecord:
    """Average bit-flip relabelled records from x-gate circuit variants.

    ``records`` maps flip masks to TomographyRecords whose outcome axis is
    indexed by register bitstrings; a variant measured with x gates on the
    masked qubits is relabelled by XOR-ing its outcome index with the mask.
    The full mask set is required: 2 variants for one qubit, 4 for two.
    """
    masks = sorted(int(m) for m in records)
    n_outcomes = next(iter(records.values())).n_outcomes
    n_qubits = max(1, (n_outcomes - 1).bit_length())
    if n_outcomes != 2 ** n_qubits:
        raise ValueError("outcome count must be a power of two (register outcomes)")
    if masks != list(range(2 ** n_qubits)):
        raise ValueError(f"need one record per flip mask 0..{2 ** n_qubits - 1}, got {masks}")
    table = np.zeros((4, n_outcomes))
    for mask, rec in records.items():
        if rec.n_outcomes != n_outcomes:
            raise ValueError("variant records do not match")
        table[:, np.arange(n_outcomes) ^ int(mask)] += rec.frequencies
    table /= len(records)
    return TomographyRecord(table)
