"""Qubit measurement tomography by linear inversion, and the operational
distance used to score implementations against their targets.

The probe set is the four Pauli eigenstates |0>, |1>, |x+>, |y+>:
informationally complete for qubit effects, so the four probe frequencies
of each outcome fix its 2x2 effect by one linear map, applied to all
outcomes at once.  Inversion is deliberately unconstrained; effects with an
eigenvalue outside [0, 1] are reported, never projected away.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    BLOCK_ELEMENTS,
    Povm,
    QuantumState,
    _freeze,
    _hermitian_norm,
    as_operator,
    born_probabilities,
    default_atol,
    pauli_eigenstates,
    require_distribution,
    require_hermitian,
)

MAX_SUBSET_OUTCOMES = 20


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
        if f.ndim != 2 or f.shape[0] != 4 or f.shape[1] < 1:
            raise ValueError("frequencies must be a (4 probes, n_outcomes) table")
        self.frequencies = _freeze(require_distribution(f, 1e-9, "frequency"))

    @property
    def n_outcomes(self) -> int:
        return self.frequencies.shape[1]

    @classmethod
    def from_born(cls, povm: Povm) -> "TomographyRecord":
        """Exact statistics: the infinite-shot record of a known POVM."""
        return cls(born_probabilities(PROBE_RHOS, povm))

    def postselected(self) -> "TomographyRecord":
        """``record.postselected()``: drop the last outcome column, the fail
        outcome, and renormalize each probe row over the kept outcomes."""
        table = self.frequencies[:, :-1]
        totals = table.sum(axis=1, keepdims=True)
        if np.min(totals) <= 0:
            raise ValueError("a probe has no surviving outcomes after postselection")
        return TomographyRecord(table / totals)

    def __repr__(self) -> str:
        return f"TomographyRecord(outcomes={self.n_outcomes})"


@dataclass(frozen=True, eq=False)
class Reconstruction:
    """Linear-inversion output: a read-only (n, 2, 2) effect stack and physicality diagnostics."""

    effects: np.ndarray
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
    # exactly Hermitian: entry (1, 0) is summed from the conjugates of entry (0, 1)
    defect = float(_hermitian_norm((effects.sum(axis=0) - np.eye(2))[None]))
    return Reconstruction(_freeze(effects), defect, tuple(np.flatnonzero(unphysical).tolist()))


def _effect_stack(povm, name: str) -> np.ndarray:
    if isinstance(povm, (Povm, Reconstruction)):
        return povm.stack if isinstance(povm, Povm) else povm.effects
    effects = as_operator(povm, name, stack=True)
    if effects.ndim != 3:
        raise ValueError(f"{name} must be an (n, d, d) stack, got shape {effects.shape}")
    return effects


def operational_distance(m, n) -> float:
    """Worst-case distinguishability distance between two measurements.

    max over outcome subsets x of || sum_{i in x} (M_i - N_i) ||; equals
    2 p_dist - 1 for the optimal entanglement-free discrimination probability.
    Each is a Povm, a Reconstruction or an (n, d, d) effect stack; the shorter
    is padded with zero effects.  For a complete pair the subset and its
    complement give the same norm, so only subsets containing outcome 0 are
    scanned.  The subset sums over the first parts form one block of at most
    :data:`core.BLOCK_ELEMENTS` matrix entries (2**12 subsets at d = 2), and
    each subset of the remaining parts adds its sum to the block as one
    offset, so memory stays bounded in d.  The differences are checked for
    Hermiticity once.  At d > 2 every block's norm is :func:`_hermitian_norm`;
    at d = 2 the block is scanned in Bloch coordinates
    (:func:`_qubit_distance`), and the value is still eigvalsh's, bit for bit.
    """
    ms, ns = _effect_stack(m, "first measurement"), _effect_stack(n, "second measurement")
    dim = ms.shape[-1]
    if ns.shape[-1] != dim:
        raise ValueError("measurements act on different dimensions")
    k = max(len(ms), len(ns))
    if k > MAX_SUBSET_OUTCOMES:
        raise ValueError(f"subset enumeration supports at most {MAX_SUBSET_OUTCOMES} outcomes")
    diffs = np.zeros((k, dim, dim), dtype=complex)
    diffs[:len(ms)] = ms
    with np.errstate(over="ignore"):  # an overflow fails the finiteness check below
        diffs[:len(ns)] -= ns
    diffs = as_operator(diffs, "effect differences", stack=True)
    complete_pair = float(np.max(np.abs(diffs.sum(axis=0)))) <= 1e-12
    # the Hermitian parts' subset sums are exactly Hermitian
    diffs = require_hermitian(diffs, default_atol(dim), "effect difference")
    base, free = (diffs[0], diffs[1:]) if complete_pair else (np.zeros_like(diffs[0]), diffs)
    bits = max(1, (BLOCK_ELEMENTS // dim ** 2).bit_length() - 1)
    parts, rest = free[:bits], free[bits:]
    offsets = (base + sum(part for i, part in enumerate(rest) if mask >> i & 1)
               for mask in range(2 ** len(rest)))
    if dim == 2:
        return _qubit_distance(parts, offsets)
    block = _subset_sums(parts)
    return float(max(_hermitian_norm(block + offset) for offset in offsets))


# (c0, cx, cy, cz) of a Hermitian h = c0 1 + c.sigma from the real view of its entries
# (re h00, im h00, re h01, im h01, re h10, im h10, re h11, im h11): one rounding each
_BLOCH_MAP = _freeze(np.array([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                               [0, 1, 0, 0], [0, 0, 1, 0], [0.5, 0, 0, -0.5], [0, 0, 0, 0]]))


def _bloch(stack) -> np.ndarray:
    """The (b, 4) Bloch rows (c0, cx, cy, cz) of a C-ordered (b, 2, 2) Hermitian stack."""
    return stack.reshape(-1, 4).view(float) @ _BLOCH_MAP


@functools.cache
def _members(count: int) -> np.ndarray:
    """A read-only (count + 1, 2**count) table whose column j is subset j of ``count``
    parts: row 0 is 1, for the offset's row (a rebuilt sum's +0.0 start), and row
    i + 1 is bit i of j."""
    table = np.ones((count + 1, 2 ** count))
    bits = np.arange(count, dtype=np.int32)[:, None]
    table[1:] = np.arange(2 ** count, dtype=np.int32) >> bits & 1
    table.setflags(write=False)
    return table


def _qubit_distance(parts, offsets) -> float:
    """max over the offsets and the subsets x of ``parts`` of the largest
    |eigenvalue| that eigvalsh gives for ``_subset_sums(parts)[x] + offset``.

    Each subset sum is first formed as its Bloch row s = (s0, s1, s2, s3):
    one product of the offset's and the parts' rows with :func:`_members`
    gives the block, 4 floats per subset and at most
    :data:`core.BLOCK_ELEMENTS` floats in all.  A sum's norm is
    |s0| + |(s1, s2, s3)|, the latter the square root of the sum of
    squares.  Only the sums within 20e-12 (1 + top) of the largest so far,
    top, are rebuilt as matrices and eigensolved, in groups whose terms
    take at most a block of floats.  A rebuilt sum is the running sum of
    +0.0 (the offset's row holds zeros there) and the parts' real entries
    times 1 or 0.  np.add.accumulate adds them in that order by definition;
    a sum that starts at +0.0 is never -0.0, and a zero of either sign
    leaves it as it is, so each part adds the float that the doubling of
    :func:`_subset_sums` adds, and each rebuilt matrix is its
    ``block + offset``, bit for bit.  Every float on the way to a norm (the
    Bloch rows, their sums in another order, the matrix sums and eigvalsh's
    own error) is within a few hundred ulps of the parts' summed size, which
    is at most 2 k times the largest part's norm, and top reaches that norm
    by the block of the maximising sum.  20e-12 (1 + top), k = 20 times the
    margin of a single sum, covers them with room to spare, so that sum is
    always rebuilt and the value returned is eigvalsh's.  A coordinate whose
    square overflows makes top infinite and a NaN survives the screen, so
    neither screens a sum out.
    """
    members = _members(len(parts))
    entries = np.zeros((len(parts) + 1, 1, 8))  # the start, then each part's real entries
    entries[1:, 0] = parts.reshape(-1, 4).view(float)
    group = BLOCK_ELEMENTS // entries.size  # sums rebuilt at once
    top = best = 0.0
    for offset in offsets:
        s = _bloch(np.concatenate([offset[None], parts])).T @ members
        norms = np.sqrt(np.einsum("ij,ij->j", s[1:], s[1:]))
        norms += np.abs(s[0])
        top = max(top, float(norms.max()))
        kept = (~(norms < top - MAX_SUBSET_OUTCOMES * 1e-12 * (1 + top))).nonzero()[0]
        for start in range(0, kept.size, group):
            chunk = kept[start:start + group]
            rebuilt = np.add.accumulate(members[:, chunk, None] * entries, axis=0)[-1]
            best = max(best, _hermitian_norm(rebuilt.view(complex).reshape(-1, 2, 2) + offset))
    return float(best)


def _subset_sums(parts):
    """The sums of every subset of ``parts``, stacked, built by doubling."""
    sums = np.zeros((1, *parts.shape[1:]), dtype=parts.dtype)
    for part in parts:
        sums = np.concatenate([sums, sums + part])
    return sums


def flip_average(variants) -> np.ndarray:
    """The bias-mitigated table of x-gate flip variants: ``variants[mask]``
    is a (..., n_outcomes) table indexed by register bitstrings, measured
    with x gates on the masked qubits.  Each is relabelled by XOR-ing its
    outcome index with its mask, added in mask order and divided once."""
    outcomes = np.arange(variants.shape[-1])
    table = np.zeros(variants.shape[1:])
    for mask, variant in enumerate(variants):
        table[..., outcomes ^ mask] += variant
    return table / len(variants)


def bias_mitigated_statistics(records: dict) -> TomographyRecord:
    """Average bit-flip relabelled records from x-gate circuit variants.

    ``records`` maps flip masks to TomographyRecords whose outcome axis is
    indexed by register bitstrings; a variant measured with x gates on the
    masked qubits is relabelled by XOR-ing its outcome index with the mask
    (:func:`flip_average`).  The full mask set is required: 2 variants for
    one qubit, 4 for two.
    """
    if not records:
        raise ValueError("need one record per flip mask: 0..1 for one qubit, 0..3 for two")
    variants = sorted(records.items(), key=lambda item: int(item[0]))
    masks = [int(m) for m, _ in variants]
    n_outcomes = variants[0][1].n_outcomes
    n_qubits = max(1, (n_outcomes - 1).bit_length())
    if n_outcomes != 2 ** n_qubits:
        raise ValueError("outcome count must be a power of two (register outcomes)")
    if masks != list(range(2 ** n_qubits)):
        raise ValueError(f"need one record per flip mask 0..{2 ** n_qubits - 1}, got {masks}")
    if any(rec.n_outcomes != n_outcomes for _, rec in variants):
        raise ValueError("variant records do not match")
    return TomographyRecord(flip_average(np.stack([rec.frequencies for _, rec in variants])))
