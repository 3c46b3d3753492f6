"""povmsim: simulating generalized quantum measurements with projective
measurements, classical randomness, and postselection, plus the Naimark
baseline, state-discrimination bounds, and noisy-device tomography."""

from .core import (
    InvariantViolation,
    Povm,
    QuantumState,
    born_probabilities,
    haar_random_pure_state,
    haar_random_vectors,
    haar_random_unitary,
    min_eigenvalue,
    operator_norm,
    pauli_eigenstates,
    povm_from_document,
    povm_to_document,
    random_povm,
    random_rank_one_povm,
    state_from_document,
    state_to_document,
)
from .naimark import NaimarkDilation, dilated_statistics, naimark_dilation
from .noisy_device import (
    Circuit,
    NoiseModel,
    compare_schemes,
    compile_naimark_circuit,
    compile_postselection_circuit,
    proportional_shot_allocation,
    run_shots,
    two_qubit_gate_sequence,
)
from .simulation import (
    PostProcessingMap,
    PostselectionScheme,
    ProjectiveSimulation,
    ShotRecord,
    apply_postprocessing,
    build_mq,
    convex_combination,
    hw_covariant_povm,
    max_success_bound_rank_one,
    postselection_scheme,
    rank_one_refinement,
    sample_postselection,
)
from .tomography import (
    Reconstruction,
    TomographyRecord,
    bias_mitigated_statistics,
    operational_distance,
    probe_states,
    reconstruct_povm,
)
from .usd import (
    Ensemble,
    equal_probability_measurement,
    usd_advantage_bound,
    projective_simulable_optimum,
    random_ensemble_experiment,
    symmetric_ensemble,
    symmetric_ensemble_from_gap,
    usd_success,
)

__version__ = "0.1.0"
