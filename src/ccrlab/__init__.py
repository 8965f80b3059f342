"""ccrlab: finite-dimensional operator families that approximate the
canonical commutation relation [Q, P] = i, with exact identities checked at
every size and defect sweeps that measure convergence toward the relation
as the dimension grows.

Subpackages
-----------
linalg     state vectors and their support windows, operator realizations,
           the exact Pauli algebra, commutators, norms
weyl       clock/shift pairs whose powers are Heisenberg group elements, plateaus
spin       so(3) ladder representation, rotation covariance, coherent states
clifford   anticommuting generator families and the so(n) they span
parafermi  order-p oscillators from commuting fermion families
sweeps     experiment runner emitting defect records and reports
"""

from . import clifford, linalg, parafermi, spin, sweeps, weyl
from .linalg import (
    BandedOperator,
    DenseOperator,
    LinCombOperator,
    LinearOperator,
    PauliString,
    PauliSumOperator,
    PauliTerms,
    PermutationPhaseOperator,
    StateVector,
    Window,
    anticommutator_apply,
    commutator_apply,
    hs_norm,
    kron,
    normalized_trace,
    operator_norm,
)

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
