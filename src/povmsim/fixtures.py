"""Bundled measurement fixtures: ideal qubit POVMs and their tomographic
reconstructions, shipped as JSON documents in the exchange format.

The ideal tetrahedral and trine measurements are stored at full double
precision.  The "random4" measurement and all reconstructions are known only
to three decimal digits; the ideal random4 is therefore repaired on load to
the nearest exact rank-one POVM (see :func:`repair_rank_one_povm`), which
moves its entries by less than 1e-3.

Each fixture is read, validated (and repaired) once per process; later calls
return the same read-only object.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

import numpy as np

from .core import (Povm, _freeze, complex_from_lists, hermitian_part, povm_from_document,
                   rank_one_parts, rebalance)

IDEAL_NAMES = ("tetrahedral", "trine", "random4", "trivial")
RECONSTRUCTION_METHODS = ("postselection", "naimark")
RECONSTRUCTED_NAMES = ("tetrahedral", "trine", "random4")
REPAIR_ATOL = 2e-3  # largest discarded eigenvalue of a three-digit rank-one effect


def _load_document(stem: str) -> dict:
    path = resources.files("povmsim").joinpath("fixtures", f"{stem}.json")
    return json.loads(path.read_text())


def repair_rank_one_povm(effects) -> Povm:
    """Nearest exact rank-one POVM to a list of rounded rank-one effects.

    Each effect's Hermitian part is replaced by its dominant rank-one part a|v><v| (the
    discarded eigenvalue must be below REPAIR_ATOL), and the collection is then
    rebalanced as B^{-1/2} M_i B^{-1/2} with B the sum of the parts
    (:func:`core.rebalance`), which restores exact completeness while
    keeping every effect rank one; the POVM keeps the rebalanced pieces.
    """
    stack = np.asarray(effects, dtype=complex)
    parts = rank_one_parts(hermitian_part(stack)[0], REPAIR_ATOL, dominant=True)
    return Povm.from_rank_one(rebalance(parts, parts.effects().sum(axis=0)))


@functools.cache  # one object per name; a lookup that raises stores nothing
def ideal_povm(name: str) -> Povm:
    """One of the bundled ideal POVMs, exactly valid at default tolerance: loaded
    once per process and shared.  An unhashable ``name`` raises ``TypeError``."""
    if name not in IDEAL_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(IDEAL_NAMES)}")
    doc = _load_document(name)
    if name == "random4":
        return repair_rank_one_povm(complex_from_lists(doc["effects"], "effects", (None, 2, 2)))
    return povm_from_document(doc)


@functools.cache
def reconstruction(name: str, method: str) -> np.ndarray:
    """Reconstructed effects for a fixture, as one read-only, unvalidated
    (n, 2, 2) stack loaded once per process and shared.

    These are three-digit roundings of experimental reconstructions and are
    not exactly complete or positive, so they are returned unvalidated.
    """
    if method not in RECONSTRUCTION_METHODS:
        raise KeyError(f"unknown method {method!r}; available: {', '.join(RECONSTRUCTION_METHODS)}")
    if name not in RECONSTRUCTED_NAMES:
        raise KeyError(f"no reconstruction fixture for {name!r}")
    doc = _load_document(f"{name}_{method}")
    return _freeze(complex_from_lists(doc["effects"], "effects", (None, 2, 2)))

