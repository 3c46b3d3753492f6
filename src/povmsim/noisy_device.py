"""Small-register noisy circuit simulation: an in-silico testbed comparing
the postselection scheme against the Naimark construction on noisy
superconducting-style hardware.

Circuits use CNOT and arbitrary single-qubit unitaries; noise is a
depolarizing channel after every gate (two-qubit after CNOT, much weaker
single-qubit after SU(2) gates) plus an asymmetric readout bias towards 0,
mitigated by duplicating circuits with x gates before measurement and
averaging the relabelled statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .core import PAULI_X, Povm, QuantumState, _freeze, _rng, default_atol, probability_rows
from .naimark import NaimarkDilation, naimark_dilation
from .simulation import (
    PostselectionScheme,
    ShotRecord,
    postselection_scheme,
)
from .tomography import (
    PROBE_RHOS,
    Reconstruction,
    TomographyRecord,
    bias_mitigated_statistics,
    operational_distance,
    reconstruct_povm,
)

DECOMPOSITION_ATOL = 1e-8
SCHEMES = ("postselection", "naimark", "both")
#: the largest shot count numpy's int64 samplers (multinomial, binomial) take
MAX_SHOTS = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing-plus-readout noise parameters, all probabilities."""

    cnot_depolarizing: float = 0.0
    su2_depolarizing: float = 0.0
    readout_bias: float = 0.0

    def __post_init__(self):
        for name in ("cnot_depolarizing", "su2_depolarizing", "readout_bias"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def preset(cls, name: str) -> "NoiseModel":
        if name == "noiseless":
            return cls()
        if name == "ibmx4-like":
            # synthetic two-qubit-gate-dominated error budget; tunable
            # config values, not a hardware calibration
            return cls(cnot_depolarizing=0.05, su2_depolarizing=0.001,
                       readout_bias=0.02)
        raise KeyError(f"unknown noise preset {name!r}; "
                       "available: noiseless, ibmx4-like")


@dataclass(frozen=True)
class ExperimentPlan:
    """A declarative comparison run: fixture, scheme, noise, shots, seed."""

    povm_fixture: str
    scheme: str
    noise: NoiseModel
    shots: int
    seed: int


def load_experiment_plan(doc) -> ExperimentPlan:
    """Parse a plan mapping with flat dotted noise keys.

    Recognized keys: noise.cnot, noise.su2, noise.readout_bias, shots, seed,
    scheme, povm_fixture.  A value of the wrong type or range raises
    ValueError naming its key; shots must be in [1, MAX_SHOTS].
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a plan must be a JSON object, got {type(doc).__name__}")
    known = {"noise.cnot", "noise.su2", "noise.readout_bias",
             "shots", "seed", "scheme", "povm_fixture"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown plan keys: {sorted(unknown)}")

    def typed(key, default, kinds, what, low=None, high=None):
        v = doc.get(key, default)
        if (isinstance(v, bool) or not isinstance(v, kinds) or not (low is None or v >= low)
                or not (high is None or v <= high)):
            raise ValueError(f"plan key {key!r} must be {what}, got {v!r}")
        return v

    noise = NoiseModel(*(float(typed(key, 0.0, (int, float), "a number"))
                         for key in ("noise.cnot", "noise.su2", "noise.readout_bias")))
    scheme = doc.get("scheme", "both")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    return ExperimentPlan(povm_fixture=typed("povm_fixture", "tetrahedral", str, "a string"),
                          scheme=scheme, noise=noise,
                          shots=typed("shots", 8192, int,
                                      f"an integer in [1, {MAX_SHOTS}]", 1, MAX_SHOTS),
                          seed=typed("seed", 0, int, "a non-negative integer", 0))


@dataclass(frozen=True)
class Gate:
    kind: str  # "su2" | "cnot"
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None


@dataclass
class Circuit:
    """A 1- or 2-qubit gate list followed by computational-basis readout
    of every qubit."""

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.n_qubits not in (1, 2):
            raise ValueError("only 1- and 2-qubit circuits are supported")

    def _check_qubit(self, q: int):
        if not 0 <= q < self.n_qubits:
            raise ValueError(f"qubit {q} out of range")

    def su2(self, qubit: int, matrix) -> "Circuit":
        self._check_qubit(qubit)
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (2, 2) or np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-9:
            raise ValueError("su2 payload must be a 2x2 unitary")
        self.gates.append(Gate("su2", (qubit,), m))
        return self

    def x(self, qubit: int) -> "Circuit":
        return self.su2(qubit, PAULI_X)

    def cnot(self, control: int, target: int) -> "Circuit":
        self._check_qubit(control)
        self._check_qubit(target)
        if control == target:
            raise ValueError("control and target must differ")
        self.gates.append(Gate("cnot", (control, target)))
        return self

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cnot")

    def unitary(self) -> np.ndarray:
        u = np.eye(2 ** self.n_qubits, dtype=complex)
        for gate in self.gates:
            u = _gate_matrix(gate, self.n_qubits) @ u
        return u


_CNOTS = {(0, 1): _freeze(np.eye(4, dtype=complex)[[0, 1, 3, 2]]),
          (1, 0): _freeze(np.eye(4, dtype=complex)[[0, 3, 2, 1]])}


def _gate_matrix(gate: Gate, n_qubits: int) -> np.ndarray:
    """Full-register matrix of one gate (qubit 0 is the leading factor)."""
    if gate.kind == "cnot":
        return _CNOTS[gate.qubits]  # a CNOT needs both qubits of a 2-qubit register
    if n_qubits == 1:
        return gate.matrix
    if gate.qubits[0] == 0:
        return np.kron(gate.matrix, np.eye(2))
    return np.kron(np.eye(2), gate.matrix)


def depolarize(rho: np.ndarray, p: float, qubits, n_qubits: int) -> np.ndarray:
    """Depolarizing channel on a qubit subset: rho -> (1-p) rho + p 1/2^k (x) tr_k rho.

    ``rho`` may carry leading stack axes; the channel acts on the last two.
    """
    if p == 0.0:
        return rho
    qubits = tuple(qubits)
    if len(qubits) == n_qubits:
        dim = 2 ** n_qubits
        trace = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
        return (1 - p) * rho + p * trace * np.eye(dim) / dim
    # single qubit of a two-qubit register: trace it out and re-tensor
    (q,) = qubits
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    if q == 0:
        reduced = np.trace(t, axis1=-4, axis2=-2)  # keeps qubit 1
        mixed = np.einsum("ac,...bd->...abcd", np.eye(2) / 2, reduced)
    else:
        reduced = np.trace(t, axis1=-3, axis2=-1)  # keeps qubit 0
        mixed = np.einsum("...ac,bd->...abcd", reduced, np.eye(2) / 2)
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


def _evolve(gates, n_qubits: int, rhos: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Push a (P, dim, dim) stack of density matrices through ``gates``,
    each gate followed by its depolarizing channel."""
    for gate in gates:
        u = _gate_matrix(gate, n_qubits)
        rhos = u @ rhos @ u.conj().T
        p = noise.cnot_depolarizing if gate.kind == "cnot" else noise.su2_depolarizing
        rhos = depolarize(rhos, p, gate.qubits, n_qubits)
    return rhos


def _readout(rhos: np.ndarray, n_qubits: int, bias: float) -> np.ndarray:
    """(P, 2**n_qubits) readout distributions of a (P, dim, dim) stack: the
    diagonals through :func:`core.probability_rows`, then the readout
    confusion."""
    probs = probability_rows(np.diagonal(rhos, axis1=-2, axis2=-1).real,
                             default_atol(rhos.shape[-1]))
    flip = np.array([[1.0, bias], [0.0, 1.0 - bias]])  # a true '1' reads '0' with probability bias
    return probs @ reduce(np.kron, [flip] * n_qubits).T


def exact_output_distribution(circuit: Circuit, state: QuantumState,
                              noise: NoiseModel) -> np.ndarray:
    """Readout distribution after density-matrix evolution under the noise model."""
    dim = 2 ** circuit.n_qubits
    if state.dim != dim:
        raise ValueError(f"state dimension {state.dim} does not match the "
                         f"{circuit.n_qubits}-qubit register")
    rho = _evolve(circuit.gates, circuit.n_qubits,
                  np.asarray(state.rho, dtype=complex)[None], noise)
    return _readout(rho, circuit.n_qubits, noise.readout_bias)[0]


def run_shots(circuit: Circuit, state: QuantumState, noise: NoiseModel,
              shots: int, seed) -> ShotRecord:
    """Sample readout counts over the register indices, from one multinomial
    draw; the record's fail count is always 0."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = exact_output_distribution(circuit, state, noise)
    return ShotRecord(np.append(_rng(seed).multinomial(shots, probs), 0))


def proportional_shot_allocation(weights, cap: int) -> np.ndarray:
    """Per-measurement run counts N_j = round(cap * a_j / max a_j).

    Block-allocation stand-in for per-run randomization: downstream
    frequency normalization divides by sum N_j, which reproduces the
    weights exactly in expectation.  Counts round through float, so they
    stop at the largest float below 2**63: a cap of MAX_SHOTS stays in int64.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if np.min(w) <= 0:
        raise ValueError("weights must be positive")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return np.minimum(np.rint(cap * w / np.max(w)), np.nextafter(2.0 ** 63, 0)).astype(int)


# ---------------------------------------------------------------------------
# Two-qubit unitary -> (SU(2) layers, <= 3 CNOTs), following the magic-basis
# double-coset method of Shende, Markov & Bullock: one interior of CNOTs and
# fixed SU(2) gates per CNOT count, read off the spectrum of gamma, between two
# SU(2) layers from one prefactor extraction.  Every form is verified against
# the input; the extraction retries the simultaneous diagonalization with
# different real/imaginary mixings before giving up.

_MAGIC = np.array([[1, 1j, 0, 0],
                   [0, 0, 1j, 1],
                   [0, 0, 1j, -1],
                   [1, -1j, 0, 0]], dtype=complex) / np.sqrt(2)
_MAGIC_DAG = _MAGIC.conj().T
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
_S_GATE = np.diag([1.0, 1j])
_SX_GATE = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])

_MIXINGS = (1.0, 0.618033988749895, 2.23606797749979, 3.302775637731995, 0.0)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _to_su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4)


def _gamma(u: np.ndarray) -> np.ndarray:
    m = _MAGIC_DAG @ u @ _MAGIC
    return m @ m.T


def _num_cnots(u: np.ndarray) -> int:
    gamma = _gamma(u)
    trace = np.trace(gamma)
    if abs(trace - 4) < 1e-7 or abs(trace + 4) < 1e-7:
        return 0
    evs = np.sort(np.linalg.eigvals(gamma).imag)
    if abs(trace) < 1e-7 and np.allclose(evs, [-1, -1, 1, 1], atol=1e-7):
        return 1
    if abs(trace.imag) < 1e-7:
        return 2
    return 3


def _kron_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an (assumed) tensor product of one-qubit unitaries via the
    rank-one structure of its rearrangement."""
    w = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(w)
    a = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    # balance the phase/scale freedom so both factors are unitary
    da = np.linalg.det(a)
    scale = 1 / np.sqrt(np.abs(da))
    a = a * scale
    b = b / scale
    return a, b


def _diagonalize_symmetric_unitary(s: np.ndarray, mixing: float):
    """Real orthogonal p with p^T s p diagonal, for unitary symmetric s.

    Real and imaginary parts of s are commuting real symmetric matrices, so
    a common eigenbasis exists; it is found from a generic real mixture."""
    sym = s.real + mixing * s.imag if mixing != 0.0 else s.real
    _, p = np.linalg.eigh((sym + sym.T) / 2)
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    d = p.T @ s @ p
    return p, d


def _extract_prefactors(u_target: np.ndarray, v_inner: np.ndarray):
    """Find one-qubit a, b, c, d with (a (x) b) v_inner (c (x) d) = u_target.

    Works in the magic basis, where the two double-coset representatives are
    connected by real orthogonal G, H obtained from simultaneous
    diagonalization of u u^T and v v^T."""
    u = _MAGIC_DAG @ u_target @ _MAGIC
    v = _MAGIC_DAG @ v_inner @ _MAGIC
    uut = u @ u.T
    vvt = v @ v.T
    last_error = None
    for mixing in _MIXINGS:
        p, du = _diagonalize_symmetric_unitary(uut, mixing)
        q, dv = _diagonalize_symmetric_unitary(vvt, mixing)
        if (np.max(np.abs(du - np.diag(np.diag(du)))) > 1e-9
                or np.max(np.abs(dv - np.diag(np.diag(dv)))) > 1e-9
                or np.max(np.abs(np.diag(du) - np.diag(dv))) > 1e-7):
            last_error = "diagonalization mismatch"
            continue
        g = p @ q.T
        h = v.conj().T @ g.T @ u
        ab = _MAGIC @ g @ _MAGIC_DAG
        cd = _MAGIC @ h @ _MAGIC_DAG
        a, b = _kron_factor(ab)
        c, d = _kron_factor(cd)
        check = np.kron(a, b) @ v_inner @ np.kron(c, d)
        if _phase_distance(check, u_target) < DECOMPOSITION_ATOL:
            return a, b, c, d
        last_error = "residual too large"
    raise RuntimeError(f"prefactor extraction failed: {last_error}")


def _phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max entrywise distance between u and v after removing a global phase."""
    idx = np.unravel_index(np.argmax(np.abs(v)), v.shape)
    if abs(u[idx]) < 1e-12:
        return float(np.max(np.abs(u - v)))
    phase = v[idx] / u[idx]
    phase = phase / abs(phase)
    return float(np.max(np.abs(phase * u - v)))


def two_qubit_gate_sequence(unitary: np.ndarray) -> list[Gate]:
    """Decompose a 4x4 unitary into SU(2) gates and at most 3 CNOTs.

    Tries the canonical CNOT count first and the generic 3-CNOT form after
    it; the first form that verifies to DECOMPOSITION_ATOL is returned.
    """
    u_in = np.asarray(unitary, dtype=complex)
    if u_in.shape != (4, 4):
        raise ValueError("expected a 4x4 unitary")
    if np.max(np.abs(u_in.conj().T @ u_in - np.eye(4))) > 1e-9:
        raise ValueError("matrix is not unitary")
    u = _to_su4(u_in)
    last = None
    for count in (_num_cnots(u), 3):
        try:
            gates = _gates(u, count)
        except RuntimeError as err:
            last = err
            continue
        if _phase_distance(_sequence_unitary(gates), u_in) < DECOMPOSITION_ATOL:
            return gates
        last = RuntimeError("branch residual too large")
    raise RuntimeError(f"two-qubit decomposition failed: {last}")


def _sequence_unitary(gates: list[Gate]) -> np.ndarray:
    return Circuit(2, gates).unitary()


def _gates(u: np.ndarray, count: int) -> list[Gate]:
    """An SU(2) layer, the interior for ``count`` CNOTs, an SU(2) layer.

    For 1 and 3 CNOTs the interior is matched against SWAP u (scaled back
    into SU(4)); moving that SWAP through the output layer exchanges its
    two factors, and the SWAPs cancel."""
    if count == 0:
        a, b = _kron_factor(u)
        return [Gate("su2", (0,), a), Gate("su2", (1,), b)]
    swapped = count != 2
    target = np.exp(1j * np.pi / 4) * _SWAP @ u if swapped else u
    interior = _interior(target, count)
    v_inner = _sequence_unitary(interior)
    a, b, c, d = _extract_prefactors(target, _SWAP @ v_inner if swapped else v_inner)
    if swapped:
        a, b = b, a
    return [Gate("su2", (0,), c), Gate("su2", (1,), d), *interior,
            Gate("su2", (0,), a), Gate("su2", (1,), b)]


def _interior(target: np.ndarray, count: int) -> list[Gate]:
    """The CNOTs and fixed SU(2) gates between the two prefactor layers,
    read off the spectrum of gamma(target)."""
    if count == 1:
        return [Gate("cnot", (0, 1))]
    evs = np.linalg.eigvals(_gamma(target))
    if count == 3:
        x, y, z = np.sort(np.angle(evs))[:3]
        return [Gate("cnot", (1, 0)),
                Gate("su2", (0,), _rz((z + y) / 2)), Gate("su2", (1,), _ry((x + z) / 2)),
                Gate("cnot", (0, 1)),
                Gate("su2", (1,), _ry((x + y) / 2)),
                Gate("cnot", (1, 0))]
    if np.allclose(np.sort(evs.real), [-1, -1, 1, 1], atol=1e-7) and \
            np.max(np.abs(evs.imag)) < 1e-7:
        middle = (_S_GATE, _SX_GATE)  # adjacent-CNOT special case: S (x) sqrt(X)
    else:
        x = np.angle(evs[0])
        y = np.angle(evs[1])
        if abs(x + y) < 1e-9:
            y = np.angle(evs[2])
        middle = (_rz((x + y) / 2), _rx((x - y) / 2))
    return [Gate("cnot", (1, 0)), Gate("su2", (0,), middle[0]), Gate("su2", (1,), middle[1]),
            Gate("cnot", (1, 0))]


# ---------------------------------------------------------------------------
# Circuit compilation for the two implementation routes.

def compile_postselection_circuit(projector_direction) -> Circuit:
    """One SU(2) rotating the component state to |0>, then readout.

    Reading 0 is the "+" (kept) outcome, reading 1 the postselected one.
    """
    psi = np.asarray(projector_direction, dtype=complex).reshape(-1)
    if psi.size != 2:
        raise ValueError("postselection components are qubit projectors")
    psi = psi / np.linalg.norm(psi)
    perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
    u = np.array([psi.conj(), perp.conj()])
    circuit = Circuit(1)
    circuit.su2(0, u)
    return circuit


def compile_naimark_circuit(dilation: NaimarkDilation) -> Circuit:
    """Two-qubit circuit for the dilation of a qubit POVM with at most 4
    outcomes, the one owner of the register layout: the dilation unitary
    fills the top-left block of a 4x4 identity (ancilla = qubit 0 in |0>,
    system = qubit 1; outcomes from n_outcomes on are padding), whose gates
    :func:`two_qubit_gate_sequence` has checked."""
    if dilation.dim != 2:
        raise ValueError("circuit compilation needs the dilation of a qubit POVM")
    n = dilation.n_outcomes
    if n > 4:
        raise ValueError(f"a two-qubit register holds at most 4 outcomes, got {n}")
    register = np.eye(4, dtype=complex)
    register[:n, :n] = dilation.unitary
    return Circuit(2, two_qubit_gate_sequence(register))


# ---------------------------------------------------------------------------
# Tomography pipelines and the head-to-head comparison.

@dataclass
class PipelineResult:
    """Bias-mitigated tomography of one implementation route."""

    record: TomographyRecord
    reconstruction: Reconstruction
    postselection_fraction: float | None = None
    residual_mass: float | None = None
    shots_total: int = 0


def _mitigated_record(circuit: Circuit, rhos: np.ndarray, noise: NoiseModel,
                      shots: int, rng: np.random.Generator) -> TomographyRecord:
    """Bias-mitigated frequencies of ``circuit`` on a (P, dim, dim) probe stack.

    The circuit's gates run once on the whole stack; only the trailing x
    gates of each flip variant are applied per variant, and each variant's
    counts for every probe come from one multinomial draw.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    n = circuit.n_qubits
    evolved = _evolve(circuit.gates, n, rhos, noise)
    variants = {}
    for mask in range(2 ** n):
        flips = [Gate("su2", (q,), PAULI_X) for q in range(n) if mask >> (n - 1 - q) & 1]
        probs = _readout(_evolve(flips, n, evolved, noise), n, noise.readout_bias)
        variants[mask] = TomographyRecord(rng.multinomial(shots, probs) / shots)
    return bias_mitigated_statistics(variants)


def postselection_tomography(scheme: PostselectionScheme, noise: NoiseModel,
                             cap: int, seed) -> PipelineResult:
    """Run every component circuit over the probe set with x-gate bias
    mitigation, aggregate into target-outcome statistics, postselect, and
    reconstruct.

    Shots are allocated to the components in proportion to their weights
    (job-level randomization), with at least one run each, so a small cap
    leaves no component unmeasured.
    """
    n = scheme.target.n_outcomes
    m = scheme.n_components
    alloc = np.maximum(proportional_shot_allocation(scheme.weights * scheme.target.dim, cap), 1)
    rng = _rng(seed)

    table = np.zeros((len(PROBE_RHOS), n + 1))
    shots_total = 0
    for k in range(m):
        shots_k = int(alloc[k])
        circuit = compile_postselection_circuit(scheme.states[k])
        mitigated = _mitigated_record(circuit, PROBE_RHOS, noise, shots_k, rng)
        # register outcome 0 is "+" -> parent outcome; 1 is the failure slot
        table[:, scheme.parents[k]] += shots_k * mitigated.frequencies[:, 0]
        table[:, n] += shots_k * mitigated.frequencies[:, 1]
        shots_total += 2 ** circuit.n_qubits * shots_k * len(PROBE_RHOS)
    table /= table.sum(axis=1, keepdims=True)
    record = TomographyRecord(table)
    fraction = float(np.mean(table[:, n]))
    kept = record.postselected(n)
    return PipelineResult(kept, reconstruct_povm(kept),
                          postselection_fraction=fraction,
                          shots_total=shots_total)


def naimark_tomography(povm: Povm, noise: NoiseModel, cap: int, seed) -> PipelineResult:
    """Run the compiled dilation circuit over the probe set with every x-gate
    configuration, average, and reconstruct all register outcomes."""
    circuit = compile_naimark_circuit(naimark_dilation(povm))
    dim = 2 ** circuit.n_qubits
    # each system probe on the last qubit, joined with the |0> ancilla
    rhos = np.zeros((len(PROBE_RHOS), dim, dim), dtype=complex)
    rhos[:, :2, :2] = PROBE_RHOS
    record = _mitigated_record(circuit, rhos, noise, cap, _rng(seed))
    reconstruction = reconstruct_povm(record)
    padding = np.stack(reconstruction.effects)[povm.n_outcomes:]
    residual = float(np.trace(padding, axis1=1, axis2=2).real.sum())
    return PipelineResult(record, reconstruction, residual_mass=residual,
                          shots_total=2 ** circuit.n_qubits * cap * len(rhos))


@dataclass
class SchemeComparison:
    """Scores of the routes that ran; the fields of a route not run are None."""

    d_op_postselection: float | None = None
    d_op_naimark: float | None = None
    postselection_fraction: float | None = None
    naimark_residual_mass: float | None = None
    postselection: PipelineResult | None = None
    naimark: PipelineResult | None = None


def compare_schemes(povm: Povm, noise: NoiseModel, shots: int, seed,
                    scheme: str = "both") -> SchemeComparison:
    """Full pipeline for the routes ``scheme`` names ("postselection",
    "naimark" or "both"): compile, run bias-mitigated probes, tomograph, and
    score against the ideal POVM.  Each route draws from its own stream
    spawned from ``seed``, so it gives the same numbers whether or not the
    other route runs."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    post_seed, naimark_seed = _rng(seed).spawn(2)
    result = SchemeComparison()
    if scheme != "naimark":
        post = postselection_tomography(postselection_scheme(povm), noise, shots, post_seed)
        result.postselection = post
        result.d_op_postselection = operational_distance(povm, post.reconstruction)
        result.postselection_fraction = post.postselection_fraction
    if scheme != "postselection":
        nai = naimark_tomography(povm, noise, shots, naimark_seed)
        result.naimark = nai
        result.d_op_naimark = operational_distance(povm, nai.reconstruction)
        result.naimark_residual_mass = nai.residual_mass
    return result
