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

import numpy as np

from .core import (MAX_COUNT, PAULI_X, InvariantViolation, Povm, QuantumState, _freeze, _rng,
                   as_operator, default_atol, isometry_defect, probability_rows, require_count)
from .fixtures import IDEAL_NAMES
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
    flip_average,
    operational_distance,
    reconstruct_povm,
)

DECOMPOSITION_ATOL = 1e-8
SCHEMES = ("postselection", "naimark", "both")


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


#: the named noise models; ibmx4-like is a synthetic two-qubit-gate-dominated
#: error budget of tunable config values, not a hardware calibration
NOISE_PRESETS = {
    "noiseless": NoiseModel(),
    "ibmx4-like": NoiseModel(cnot_depolarizing=0.05, su2_depolarizing=0.001,
                             readout_bias=0.02),
}


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
    ValueError naming its key; shots must be in [1, core.MAX_COUNT], and
    povm_fixture must name a bundled fixture.
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
    plan = ExperimentPlan(povm_fixture=typed("povm_fixture", "tetrahedral", str, "a string"),
                          scheme=scheme, noise=noise,
                          shots=typed("shots", 8192, int,
                                      f"an integer in [1, {MAX_COUNT}]", 1, MAX_COUNT),
                          seed=typed("seed", 0, int, "a non-negative integer", 0))
    if plan.povm_fixture not in IDEAL_NAMES:
        raise ValueError(f"unknown povm_fixture {plan.povm_fixture!r}; "
                         f"available: {', '.join(IDEAL_NAMES)}")
    return plan


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
        if (isinstance(q, bool) or not isinstance(q, (int, np.integer))
                or not 0 <= q < self.n_qubits):
            raise ValueError(f"qubit {q!r} is not in 0..{self.n_qubits - 1}")

    def su2(self, qubit: int, matrix) -> "Circuit":
        self._check_qubit(qubit)
        m = as_operator(matrix, "su2 payload")
        if m.shape != (2, 2) or not isometry_defect(m) <= 1e-9:
            raise ValueError("su2 payload must be a 2x2 unitary")
        self.gates.append(Gate("su2", (qubit,), m))
        return self

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
_EYES = {dim: _freeze(np.eye(dim)) for dim in (2, 4)}


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 2x2 factors by broadcasting: the same products, so the
    same bits, at a tenth of the cost."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _gate_matrix(gate: Gate, n_qubits: int) -> np.ndarray:
    """Full-register matrix of one gate (qubit 0 is the leading factor)."""
    if gate.kind == "cnot":
        return _CNOTS[gate.qubits]  # a CNOT needs both qubits of a 2-qubit register
    if n_qubits == 1:
        return gate.matrix
    if gate.qubits[0] == 0:
        return _kron(gate.matrix, _EYES[2])
    return _kron(_EYES[2], gate.matrix)


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
        return (1 - p) * rho + p * trace * _EYES[dim] / dim
    # single qubit of a two-qubit register: trace it out and re-tensor with
    # 1/2, by slices.  Half the reduced state is added onto zeros, not assigned,
    # so that no entry is -0, as in np.trace and np.einsum's accumulated sums
    (q,) = qubits
    t = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    mixed = np.zeros_like(t)
    if q == 0:
        block = mixed[..., 0, :, 0, :]  # keeps qubit 1
        block += 0.5 * (t[..., 0, :, 0, :] + t[..., 1, :, 1, :])
        mixed[..., 1, :, 1, :] = block
    else:
        block = mixed[..., :, 0, :, 0]  # keeps qubit 0
        block += 0.5 * (t[..., :, 0, :, 0] + t[..., :, 1, :, 1])
        mixed[..., :, 1, :, 1] = block
    return (1 - p) * rho + p * mixed.reshape(rho.shape)


def _evolve(gates, n_qubits: int, rhos: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """Push a (..., dim, dim) stack of density matrices through ``gates``,
    each gate followed by its depolarizing channel.  A gate's matrix may
    itself be a stack that broadcasts against ``rhos``."""
    for gate in gates:
        u = _gate_matrix(gate, n_qubits)
        rhos = u @ rhos @ u.conj().swapaxes(-1, -2)
        p = noise.cnot_depolarizing if gate.kind == "cnot" else noise.su2_depolarizing
        rhos = depolarize(rhos, p, gate.qubits, n_qubits)
    return rhos


def _readout(rhos: np.ndarray, n_qubits: int, bias: float) -> np.ndarray:
    """(..., 2**n_qubits) readout distributions of a (..., dim, dim) stack: its diagonals,
    and the rows after the readout confusion, each through :func:`core.probability_rows`."""
    atol = default_atol(rhos.shape[-1])
    probs = probability_rows(np.diagonal(rhos, axis1=-2, axis2=-1).real, atol)
    flip = np.array([[1.0, bias], [0.0, 1.0 - bias]])  # a true '1' reads '0' with probability bias
    return probability_rows(probs @ (flip if n_qubits == 1 else _kron(flip, flip)).T, atol)


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
    require_count(shots, "shots")
    probs = exact_output_distribution(circuit, state, noise)
    return ShotRecord(np.append(_rng(seed).multinomial(shots, probs), 0))


def proportional_shot_allocation(weights, cap: int) -> np.ndarray:
    """Per-measurement run counts N_j = round(cap * a_j / max a_j).

    Block-allocation stand-in for per-run randomization: downstream
    frequency normalization divides by sum N_j, which reproduces the
    weights exactly in expectation.  Counts round through float, so they
    stop at the largest float below 2**63: a cap of core.MAX_COUNT stays in int64;
    weights up to the largest float do not overflow.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    if not (np.min(w) > 0 and np.isfinite(np.max(w))):  # NaN fails both
        raise ValueError("weights must be positive")
    require_count(cap, "cap")
    # an exact power-of-two rescale into [1/2, 1), so that cap * w cannot overflow
    w = np.ldexp(w, -np.frexp(np.max(w))[1])
    return np.minimum(np.rint(cap * w / np.max(w)), np.nextafter(2.0 ** 63, 0)).astype(int)


# ---------------------------------------------------------------------------
# Two-qubit unitary -> (SU(2) layers, <= 3 CNOTs), following the magic-basis
# double-coset method of Shende, Markov & Bullock: one interior of CNOTs and
# fixed SU(2) gates per CNOT count, read off the spectrum of gamma, between two
# SU(2) layers.  Each real/imaginary mixing of the simultaneous diagonalization
# gives one candidate gate list, in this order; a mixing whose eigenbasis leaves
# a form off-diagonal (a repeated eigenvalue of the mixture, as trine's at 1.0)
# is skipped before anything is built.  Each candidate is checked once, by its
# product against the input; the canonical CNOT count goes first, the 3-CNOT
# form last.

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
_OFF_DIAGONAL = _freeze(~np.eye(4, dtype=bool))


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


def _num_cnots(u: np.ndarray) -> tuple[int, np.ndarray | None]:
    """The canonical CNOT count of u, and the spectrum of gamma(u); None
    when the trace alone says 0."""
    gamma = _gamma(u)
    trace = np.trace(gamma)
    if abs(trace - 4) < 1e-7 or abs(trace + 4) < 1e-7:
        return 0, None
    spectrum = np.linalg.eigvals(gamma)
    if abs(trace) < 1e-7 and np.allclose(np.sort(spectrum.imag), [-1, -1, 1, 1], atol=1e-7):
        return 1, spectrum
    if abs(trace.imag) < 1e-7:
        return 2, spectrum
    return 3, spectrum


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


def _diagonalize_symmetric_unitary(s: np.ndarray, mixing: float) -> np.ndarray | None:
    """Real orthogonal p with p^T s p diagonal, for unitary symmetric s; None
    when this mixing's p leaves an off-diagonal entry above 1e-6.

    Real and imaginary parts of s are commuting real symmetric matrices, so
    a common eigenbasis exists; it is found from a generic real mixture.  A
    mixture with a repeated eigenvalue that s does not repeat gives a basis
    that misses it by order one, and a basis that diagonalizes leaves about
    1e-12, so the threshold sits far from both."""
    sym = s.real + mixing * s.imag if mixing != 0.0 else s.real
    _, p = np.linalg.eigh((sym + sym.T) / 2)
    if np.max(np.abs((p.T @ s @ p)[_OFF_DIAGONAL])) > 1e-6:
        return None
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    return p


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

    Tries the candidates of the canonical CNOT count, then those of the
    3-CNOT form, and returns the first whose product, as
    :func:`_candidates` yields it, is the input to within DECOMPOSITION_ATOL
    up to a global phase: one check per candidate.
    """
    u_in = as_operator(unitary, "two-qubit gate")
    if u_in.shape != (4, 4) or not isometry_defect(u_in) <= 1e-9:
        raise ValueError("two-qubit gate must be a 4x4 unitary")
    u = _to_su4(u_in)
    canonical, spectrum = _num_cnots(u)
    for count in dict.fromkeys((canonical, 3)):
        for gates, product in _candidates(u, count, spectrum):
            if _phase_distance(product, u_in) < DECOMPOSITION_ATOL:
                return gates
    raise RuntimeError("two-qubit decomposition failed: no candidate verified to "
                       f"{DECOMPOSITION_ATOL:g}")


def _candidates(u: np.ndarray, count: int, spectrum: np.ndarray | None):
    """(gates, product) for ``count`` CNOTs, at most one per mixing: SU(2)
    layers around the interior v, read off the magic-basis forms t of the
    target and of v, which real orthogonal G from the simultaneous
    diagonalizations of t t^T and v v^T connect, and the unitary the gates
    make, kron(a, b) v kron(c, d).  A mixing whose eigenbasis leaves either
    form off-diagonal yields nothing.  For 1 and 3 CNOTs the interior is
    matched against SWAP u (scaled back into SU(4)); moving that SWAP through
    the output layer exchanges its two factors, and the SWAPs cancel.
    ``spectrum`` is that of gamma(u), from :func:`_num_cnots`."""
    if count == 0:
        a, b = _kron_factor(u)
        yield [Gate("su2", (0,), a), Gate("su2", (1,), b)], _kron(a, b)
        return
    swapped = count != 2
    target = np.exp(1j * np.pi / 4) * _SWAP @ u if swapped else u
    interior = _interior(target, count, None if swapped else spectrum)
    v_inner = Circuit(2, interior).unitary()
    t = _MAGIC_DAG @ target @ _MAGIC
    v = _MAGIC_DAG @ (_SWAP @ v_inner if swapped else v_inner) @ _MAGIC
    t_form, v_form = t @ t.T, v @ v.T
    for mixing in _MIXINGS:
        p = _diagonalize_symmetric_unitary(t_form, mixing)
        q = None if p is None else _diagonalize_symmetric_unitary(v_form, mixing)
        if q is None:
            continue
        g = p @ q.T
        a, b = _kron_factor(_MAGIC @ g @ _MAGIC_DAG)
        c, d = _kron_factor(_MAGIC @ (v.conj().T @ g.T @ t) @ _MAGIC_DAG)
        if swapped:
            a, b = b, a
        yield ([Gate("su2", (0,), c), Gate("su2", (1,), d), *interior,
                Gate("su2", (0,), a), Gate("su2", (1,), b)],
               _kron(a, b) @ v_inner @ _kron(c, d))


def _interior(target: np.ndarray, count: int, evs: np.ndarray | None) -> list[Gate]:
    """The CNOTs and fixed SU(2) gates between the two prefactor layers,
    read off the spectrum ``evs`` of gamma(target), computed here if None."""
    if count == 1:
        return [Gate("cnot", (0, 1))]
    if evs is None:
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

def _rotations(states: np.ndarray) -> np.ndarray:
    """(m, 2, 2) SU(2) rotations taking each row |psi> of an (m, 2) stack,
    normalized, to |0>: their rows are <psi| and <psi_perp|."""
    if states.shape[-1] != 2:
        raise ValueError("postselection components are qubit projectors")
    # each norm bit for bit as np.linalg.norm(row) takes it: two dot products per row
    re, im = states.real[:, None], states.imag[:, None]
    psi = states / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    return np.stack([psi.conj(), np.stack([-psi[:, 1], psi[:, 0]], axis=-1)], axis=1)


def compile_postselection_circuit(projector_direction) -> Circuit:
    """One SU(2) rotating the normalized direction to |0>, then readout.

    Reading 0 is the "+" (kept) outcome, reading 1 the postselected one.
    """
    psi = np.asarray(projector_direction, dtype=complex).reshape(1, -1)
    if not np.all(np.isfinite(psi)):
        raise InvariantViolation("finite entries", np.inf,
                                 "postselection direction has non-finite entries")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(psi)
    if not np.sqrt(np.finfo(float).tiny) <= norm < np.inf:  # its square must be a normal float
        raise ValueError("postselection direction must have a non-zero norm in float range")
    return Circuit(1).su2(0, _rotations(psi)[0])


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
    """Bias-mitigated tomography of one route, scored against the route's target POVM."""

    record: TomographyRecord
    reconstruction: Reconstruction
    distance: float
    postselection_fraction: float | None = None
    residual_mass: float | None = None
    shots_total: int = 0


def _flip_variants(evolved: np.ndarray, n_qubits: int, noise: NoiseModel) -> np.ndarray:
    """Readout distributions of every x-gate flip variant of an evolved
    (..., dim, dim) stack, as one (2**n_qubits, ..., dim) array: the stack
    doubles once per qubit q, by the X on q and then its depolarizing
    channel, so variant ``mask`` has an X on each q whose bit n_qubits-1-q is set."""
    variants = evolved
    for q in range(n_qubits):
        flipped = _evolve([Gate("su2", (q,), PAULI_X)], n_qubits, variants, noise)
        variants = np.stack([variants, flipped], axis=q)
    return _readout(variants.reshape(-1, *evolved.shape), n_qubits, noise.readout_bias)


def _mitigated(evolved: np.ndarray, n_qubits: int, noise: NoiseModel, shots,
               rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Bias-mitigated (m, P, dim) frequencies of an evolved (m, P, dim, dim)
    stack whose component k runs ``shots[k]`` times per flip variant and
    probe, and the total run count.  All counts come from one broadcast
    multinomial, drawn component, then mask, then probe in C order: the
    order, and so the draws, of a per-component, per-mask loop."""
    probs = _flip_variants(evolved, n_qubits, noise).swapaxes(0, 1)  # (m, mask, P, dim)
    runs = np.asarray(shots)[:, None, None]
    freqs = rng.multinomial(runs, probs) / runs[..., None]
    total = probs.shape[1] * probs.shape[2] * sum(int(s) for s in shots)
    return flip_average(freqs.swapaxes(0, 1)), total


def postselection_tomography(scheme: PostselectionScheme, noise: NoiseModel,
                             cap: int, seed) -> PipelineResult:
    """Run every component circuit over the probe set with x-gate bias
    mitigation, aggregate into target-outcome statistics, postselect, and
    reconstruct.

    Shots are allocated to the components in proportion to their weights
    (job-level randomization), with at least one run each, so a small cap
    leaves no component unmeasured.  All component rotations evolve as one
    (m, P, 2, 2) stack, and :func:`_mitigated` draws all their counts at once.
    """
    require_count(cap, "shots")
    shots = np.maximum(proportional_shot_allocation(scheme.weights * scheme.target.dim, cap), 1)

    rotations = _rotations(scheme.states)[:, None]
    evolved = _evolve([Gate("su2", (0,), rotations)], 1, PROBE_RHOS, noise)
    mitigated, shots_total = _mitigated(evolved, 1, noise, shots, _rng(seed))

    # register outcome 0 is "+" -> parent outcome; 1 is the failure slot
    runs = shots[:, None, None] * mitigated
    table = np.column_stack([scheme.merge.relabel(runs[:, :, 0]).T, runs[:, :, 1].sum(axis=0)])
    table /= table.sum(axis=1, keepdims=True)
    fraction = float(np.mean(table[:, -1]))
    kept = TomographyRecord(table).postselected()
    reconstruction = reconstruct_povm(kept)
    return PipelineResult(kept, reconstruction, operational_distance(scheme.target, reconstruction),
                          postselection_fraction=fraction, shots_total=shots_total)


def naimark_tomography(povm: Povm, noise: NoiseModel, cap: int, seed) -> PipelineResult:
    """Run the compiled dilation circuit over the probe set with every x-gate
    configuration, average, and reconstruct all register outcomes."""
    require_count(cap, "shots")
    circuit = compile_naimark_circuit(naimark_dilation(povm))
    n, dim = circuit.n_qubits, 2 ** circuit.n_qubits
    # each system probe on the last qubit, joined with the |0> ancilla
    rhos = np.zeros((len(PROBE_RHOS), dim, dim), dtype=complex)
    rhos[:, :2, :2] = PROBE_RHOS
    evolved = _evolve(circuit.gates, n, rhos, noise)
    mitigated, shots_total = _mitigated(evolved[None], n, noise, [cap], _rng(seed))
    record = TomographyRecord(mitigated[0])
    reconstruction = reconstruct_povm(record)
    padding = reconstruction.effects[povm.n_outcomes:]
    residual = float(np.trace(padding, axis1=1, axis2=2).real.sum())
    return PipelineResult(record, reconstruction, operational_distance(povm, reconstruction),
                          residual_mass=residual, shots_total=shots_total)


@dataclass
class SchemeComparison:
    """The scored routes that ran; a route not run is None."""

    postselection: PipelineResult | None
    naimark: PipelineResult | None


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
    return SchemeComparison(
        postselection_tomography(postselection_scheme(povm), noise, shots, post_seed)
        if scheme != "naimark" else None,
        naimark_tomography(povm, noise, shots, naimark_seed) if scheme != "postselection" else None)
