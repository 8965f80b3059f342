"""Matrix-free paths of every generator family against dense oracles.

Each operator built by the domain modules is densified (below the cap) and
compared against its matrix-free application on a batch of random vectors.
The dense forms of Pauli strings come from independent Kronecker products,
so the two routes share no code.
"""

import numpy as np
import pytest

from ccrlab import clifford, parafermi, spin, weyl
from ccrlab.linalg import (
    DenseOperator,
    PauliSumOperator,
    commutator_apply,
    normalized_trace,
    random_state,
)

N_VECTORS = 20
TOL = 1e-10


def assert_matches_dense(op, rng, n_vectors=N_VECTORS, tol=TOL):
    dense = DenseOperator(op.dense())
    for _ in range(n_vectors):
        xi = random_state(op.dim, rng)
        diff = op.apply(xi) - dense.apply(xi)
        assert np.max(np.abs(diff.components)) <= tol


@pytest.mark.parametrize("nu", [4, 16, 64])
def test_weyl_operators_cross_validate(nu):
    pair = weyl.make_canonical_pair(nu)
    rng = np.random.default_rng(nu)
    assert_matches_dense(pair.U, rng)
    assert_matches_dense(pair.V, rng)
    assert_matches_dense(pair.power_op(k=3, l=2, m=1), rng)
    p_op, q_op = weyl.quadrature_ops(pair, 2, 1)
    assert_matches_dense(p_op, rng)
    assert_matches_dense(q_op, rng)


@pytest.mark.parametrize("p", [1, 2, 10, 100])
def test_spin_operators_cross_validate(p):
    rep = spin.make_spin_rep(p)
    rng = np.random.default_rng(p)
    for op in (rep.J1, rep.J2, rep.J3, rep.Jminus):
        assert_matches_dense(op, rng)
    q, pp = spin.qp_from_spin(rep)
    assert_matches_dense(q, rng)
    assert_matches_dense(pp, rng)
    assert_matches_dense(spin.rotation_about_axis3(rep, 0.7), rng)


@pytest.mark.parametrize("nu", [2, 5, 10])
def test_gamma_family_cross_validates(nu):
    fam = clifford.make_gammas(nu)
    rng = np.random.default_rng(nu)
    for g in fam.gammas:
        assert_matches_dense(PauliSumOperator.from_terms(g, nu), rng)
    basis = clifford.so_n_basis(fam)
    for key in ((1, 2), (2, 3), (1, 2 * nu + 1)):
        assert_matches_dense(basis[key], rng)


@pytest.mark.parametrize("p,nu", [(2, 2), (3, 2), (2, 5), (5, 2)])
def test_green_system_cross_validates(p, nu):
    sys = parafermi.make_green_system(p, nu)
    rng = np.random.default_rng(p * 10 + nu)
    for comp in sys.components.values():
        assert_matches_dense(PauliSumOperator.from_terms(comp, sys.total_sites), rng)
    for k in range(1, nu + 1):
        assert_matches_dense(parafermi.parafermi_op(sys, k), rng)
        assert_matches_dense(parafermi.normalized_op(sys, k).adjoint(), rng)
    every, per_mode, per_block = parafermi.number_ops(sys)
    assert_matches_dense(every, rng)
    assert_matches_dense(per_mode[0], rng)
    assert_matches_dense(per_block[0], rng)


def test_tensor_sum_cross_validates():
    fam = clifford.make_gammas(2)
    rng = np.random.default_rng(0)
    assert_matches_dense(clifford.tensor_sum_rep(fam, 3, (1, 4)), rng)


def test_commutator_trace_vanishes_for_spin_pair():
    # the normalized trace of the Q/P commutator is zero, which is exactly
    # why no finite size can satisfy the relation on the whole space
    rep = spin.make_spin_rep(10)
    q, p = spin.qp_from_spin(rep)
    comm = DenseOperator(q.dense() @ p.dense() - p.dense() @ q.dense())
    assert abs(normalized_trace(comm)) <= 1e-12
    # matrix-free evaluation of the same trace
    total = 0j
    for i in range(11):
        basis = np.zeros(11, dtype=complex)
        basis[i] = 1.0
        from ccrlab.linalg import StateVector

        vec = StateVector(11, basis)
        total += vec.inner(commutator_apply(q, p, vec))
    assert abs(total / 11) <= 1e-12
