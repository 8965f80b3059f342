"""ccrlab: finite-dimensional operator families that approximate the
canonical commutation relation [Q, P] = i, with exact identities checked at
every size and defect sweeps that measure convergence toward the relation
as the dimension grows.

Subpackages
-----------
pauli      the exact Pauli algebra and the resource budget; imports no numpy
linalg     state vectors, support windows, operator realizations, commutators, norms
weyl       clock/shift pairs whose powers are Heisenberg group elements, plateaus
spin       so(3) ladder representation, rotation covariance, coherent states
clifford   anticommuting generator families and the so(n) they span
parafermi  order-p oscillators from commuting fermion families
sweeps     experiment runner emitting defect records and reports

Submodules and the names below (PauliTerms from pauli, the rest from linalg)
load on first access, so `from ccrlab import PauliTerms` loads no numpy; a
sweep loads the layers its experiments use.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BandedOperator",
    "DenseOperator",
    "LinCombOperator",
    "LinearOperator",
    "PauliString",
    "PauliSumOperator",
    "PauliTerms",
    "PermutationPhaseOperator",
    "StateVector",
    "Window",
    "anticommutator_apply",
    "clifford",
    "commutator_apply",
    "hs_norm",
    "kron",
    "linalg",
    "normalized_trace",
    "operator_norm",
    "parafermi",
    "spin",
    "sweeps",
    "weyl",
]

_SUBMODULES = {"clifford", "linalg", "parafermi", "pauli", "spin", "sweeps", "weyl"}


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in __all__:
        home = importlib.import_module(".pauli" if name == "PauliTerms" else ".linalg", __name__)
        value = globals()[name] = getattr(home, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
