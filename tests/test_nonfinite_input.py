"""NaN and infinite input at every public boundary: each raises a ValueError,
an InvariantViolation where the input breaks a named invariant, and none
returns or fails later inside numpy."""

import numpy as np
import pytest

from povmsim.core import (InvariantViolation, Povm, QuantumState, born_probabilities,
                          operator_norm, random_povm)
from povmsim.noisy_device import (Circuit, compile_postselection_circuit,
                                  proportional_shot_allocation, two_qubit_gate_sequence)
from povmsim.simulation import PostProcessingMap, PostselectionScheme, convex_combination
from povmsim.tomography import TomographyRecord, operational_distance
from povmsim.usd import Ensemble, symmetric_ensemble

#: boundary -> (the error it must raise, a call feeding it one bad value x)
BOUNDARIES = {
    "Povm": (InvariantViolation, lambda x: Povm([[[x, 0], [0, 1]], np.zeros((2, 2))])),
    "QuantumState.density": (InvariantViolation,
                             lambda x: QuantumState.density([[x, 0], [0, 0.5]])),
    "PostProcessingMap": (ValueError, lambda x: PostProcessingMap([x, 0])),
    "TomographyRecord": (InvariantViolation,
                         lambda x: TomographyRecord([[x, 0.5]] + [[0.5, 0.5]] * 3)),
    "Ensemble.probs": (InvariantViolation,
                       lambda x: Ensemble([[1, 0], [0.6, 0.8]], probs=[x, 0.5])),
    "Circuit.su2": (InvariantViolation, lambda x: Circuit(1).su2(0, [[x, 0], [0, 1]])),
    "two_qubit_gate_sequence": (InvariantViolation,
                                lambda x: two_qubit_gate_sequence(np.diag([1, x, 1, 1]))),
    "proportional_shot_allocation": (ValueError,
                                     lambda x: proportional_shot_allocation([x, 1.0], 10)),
    "convex_combination": (InvariantViolation,
                           lambda x: convex_combination([(x, random_povm(2, 3, 1)),
                                                         (0.5, random_povm(2, 3, 2))])),
    "operator_norm": (InvariantViolation, lambda x: operator_norm([[x, 0], [0, 1]])),
    "compile_postselection_circuit": (InvariantViolation,
                                      lambda x: compile_postselection_circuit([x, 1])),
    "operational_distance": (InvariantViolation,
                             lambda x: operational_distance([[[x, 0], [0, 1]]], [np.eye(2)])),
}


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("boundary", list(BOUNDARIES))
def test_non_finite_input_is_rejected(boundary, value):
    error, call = BOUNDARIES[boundary]
    with pytest.raises(error):
        call(value)


BASIS = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

#: site of the one distribution check -> (its invariant name, its tolerance,
#: a call feeding it the two-outcome distribution p)
DISTRIBUTIONS = {
    "Born rows": ("probability", BASIS.atol, lambda p: born_probabilities(np.diag(p), BASIS)),
    "scheme weights": ("weight", 2e-9, lambda p: PostselectionScheme(BASIS, np.eye(2), p, [0, 1])),
    "mixture weights": ("weight", 2e-9,
                        lambda p: convex_combination([(p[0], BASIS), (p[1], BASIS)])),
    "ensemble priors": ("probability", 2e-9,
                        lambda p: Ensemble([[1, 0], [0.6, 0.8]], probs=p)),
    "record frequencies": ("frequency", 1e-9, lambda p: TomographyRecord([p] * 4)),
    "symmetric coefficients": ("coefficient", 1e-9,
                               lambda p: symmetric_ensemble(np.sqrt(2 * np.asarray(p)))),
}


@pytest.mark.parametrize("site", list(DISTRIBUTIONS))
def test_each_distribution_site_names_its_invariant(site):
    name, atol, call = DISTRIBUTIONS[site]
    call([0.5, 0.5])  # a distribution passes
    with pytest.raises(InvariantViolation, match=f"'{name} positivity'"):
        call([np.nan, 0.5])
    with pytest.raises(InvariantViolation, match=f"'{name} normalization'"):
        call([0.5, 0.5 + 2 * atol])
