"""Clock/shift pair tests: exact relations, eigenbases, plateaus, defects."""

import math

import numpy as np
import pytest

from ccrlab import weyl
from ccrlab.linalg import (
    DenseOperator,
    PermutationPhaseOperator,
    StateVector,
    commutator_apply,
    random_state,
)


def weyl_relation_residual(pair, rng, samples=5):
    omega = np.exp(2j * np.pi / pair.nu)
    worst = 0.0
    for _ in range(samples):
        xi = random_state(pair.nu, rng)
        lhs = pair.U.apply(pair.V.apply(xi))
        rhs = omega * pair.V.apply(pair.U.apply(xi))
        worst = max(worst, (lhs - rhs).norm())
    return worst


def test_trivial_dimension_one():
    pair = weyl.make_canonical_pair(1)
    np.testing.assert_allclose(pair.U.dense(), [[1.0]])
    np.testing.assert_allclose(pair.V.dense(), [[1.0]])


def test_dimension_two_matrices():
    pair = weyl.make_canonical_pair(2)
    np.testing.assert_allclose(pair.U.dense(), np.diag([1.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(pair.V.dense(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    anti = pair.U.dense() @ pair.V.dense() + pair.V.dense() @ pair.U.dense()
    np.testing.assert_allclose(anti, np.zeros((2, 2)), atol=1e-15)


def test_clock_eigenvalues_are_roots_of_unity():
    pair = weyl.make_canonical_pair(16)
    eigs = np.sort_complex(np.linalg.eigvals(pair.U.dense()))
    expected = np.sort_complex(np.exp(2j * np.pi * np.arange(16) / 16))
    np.testing.assert_allclose(eigs, expected, atol=1e-12)


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        weyl.make_canonical_pair(0)


@pytest.mark.parametrize("nu", [2, 3, 16])
def test_no_smaller_power_is_identity(nu):
    pair = weyl.make_canonical_pair(nu)
    eye = np.eye(nu)
    for k in range(1, nu):
        assert np.max(np.abs(pair.power_op(k=k).dense() - eye)) > 0.5
        assert np.max(np.abs(pair.power_op(l=k).dense() - eye)) > 0.5
    np.testing.assert_allclose(pair.power_op(k=nu).dense(), eye, atol=1e-14)
    np.testing.assert_allclose(pair.power_op(l=nu).dense(), eye, atol=1e-14)


@pytest.mark.parametrize("nu", [2, 16, 256, 4096])
def test_weyl_relation_exact(nu):
    rng = np.random.default_rng(nu)
    assert weyl_relation_residual(weyl.make_canonical_pair(nu), rng) <= 1e-12


def test_shift_permutes_clock_eigenvectors():
    pair = weyl.make_canonical_pair(8)
    for k in range(8):
        shifted = pair.V.apply(weyl.clock_basis_vector(pair, k))
        target = weyl.clock_basis_vector(pair, (k + 1) % 8)
        assert (shifted - target).norm() < 1e-15


@pytest.mark.parametrize("nu", [4, 16, 64, 256])
def test_clock_eigenrelation_on_shift_orbit(nu):
    # U (V^n |u_0>) = exp(2 pi i n / nu) V^n |u_0> for every n
    pair = weyl.make_canonical_pair(nu)
    u0 = weyl.clock_basis_vector(pair, 0)
    for n in range(nu):
        orbit = pair.power_op(l=n).apply(u0)
        expected = np.exp(2j * np.pi * n / nu) * orbit
        assert (pair.U.apply(orbit) - expected).norm() <= 1e-12


def test_fourier_vector_trivial():
    pair = weyl.make_canonical_pair(1)
    np.testing.assert_allclose(weyl.fourier_basis_vector(pair, 0).components, [1.0])


def test_fourier_vector_values_and_eigenrelation():
    pair = weyl.make_canonical_pair(4)
    v0 = weyl.fourier_basis_vector(pair, 0)
    np.testing.assert_allclose(v0.components, 0.5 * np.ones(4))
    assert (pair.V.apply(v0) - v0).norm() <= 1e-12
    v1 = weyl.fourier_basis_vector(pair, 1)
    assert (pair.V.apply(v1) - (-1j) * v1).norm() <= 1e-12
    with pytest.raises(ValueError):
        weyl.fourier_basis_vector(pair, 4)


@pytest.mark.parametrize("nu", [4, 64, 256])
def test_eigenbases_orthonormal(nu):
    pair = weyl.make_canonical_pair(nu)
    fourier = np.stack(
        [weyl.fourier_basis_vector(pair, n).components for n in range(nu)], axis=1
    )
    gram = fourier.conj().T @ fourier
    assert np.max(np.abs(gram - np.eye(nu))) <= 1e-10


def test_clock_shifts_the_fourier_basis():
    # duality: V shifts clock eigenvectors, U shifts shift eigenvectors
    pair = weyl.make_canonical_pair(12)
    for n in range(12):
        shifted = pair.U.apply(weyl.fourier_basis_vector(pair, n))
        target = weyl.fourier_basis_vector(pair, (n + 1) % 12)
        assert (shifted - target).norm() <= 1e-12


def test_eigenbasis_orthonormal_sampled_large():
    nu = 4096
    pair = weyl.make_canonical_pair(nu)
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, n = rng.integers(0, nu, 2)
        vm = weyl.fourier_basis_vector(pair, int(m))
        vn = weyl.fourier_basis_vector(pair, int(n))
        expected = 1.0 if m == n else 0.0
        assert abs(vm.inner(vn) - expected) <= 1e-10


# ---------------------------------------------------------------------------
# Heisenberg group


def test_heisenberg_identity_element():
    pair = weyl.make_canonical_pair(5)
    g = pair.power_op(0, 0, 0)
    assert g == PermutationPhaseOperator(5)
    np.testing.assert_allclose(g.dense(), np.eye(5), atol=1e-15)


def test_heisenberg_multiplication_noncommutative():
    pair = weyl.make_canonical_pair(4)
    a, b = pair.U, pair.V
    assert a.compose(b) == PermutationPhaseOperator(4, 1, 1, 1)
    assert b.compose(a) == PermutationPhaseOperator(4, 1, 1, 0)


def test_heisenberg_rep_of_product_on_basis_vector():
    pair = weyl.make_canonical_pair(4)
    a = pair.power_op(k=1)
    b = pair.power_op(l=1)
    e0 = StateVector.basis(4, 0)
    lhs = a.apply(b.apply(e0))
    rhs = a.compose(b).apply(e0)
    assert (lhs - rhs).norm() <= 1e-12


@pytest.mark.parametrize("nu", [4, 16, 64])
def test_heisenberg_rep_is_homomorphism(nu):
    pair = weyl.make_canonical_pair(nu)
    rng = np.random.default_rng(nu + 1)
    for _ in range(100):
        g = pair.power_op(*rng.integers(0, nu, 3))
        h = pair.power_op(*rng.integers(0, nu, 3))
        xi = random_state(nu, rng)
        lhs = g.apply(h.apply(xi))
        rhs = g.compose(h).apply(xi)
        assert (lhs - rhs).norm() <= 1e-12


def test_heisenberg_rep_unitary():
    pair = weyl.make_canonical_pair(8)
    mat = pair.power_op(3, 5, 2).dense()
    np.testing.assert_allclose(mat.conj().T @ mat, np.eye(8), atol=1e-13)


def test_heisenberg_dimension_mismatch():
    pair = weyl.make_canonical_pair(8)
    with pytest.raises(ValueError):
        pair.U.compose(PermutationPhaseOperator(4))
    with pytest.raises(ValueError):
        PermutationPhaseOperator(4).compose(pair.V)
    with pytest.raises(ValueError):
        pair.U.apply(StateVector.basis(4, 0))


# ---------------------------------------------------------------------------
# plateau vectors


def test_plateau_single_point_window():
    pair = weyl.make_canonical_pair(4)
    assert (weyl.plateau_vector(pair, 2, 1) - StateVector.basis(4, 2)).norm() == 0.0


def test_plateau_window_values_and_shift_defect():
    pair = weyl.make_canonical_pair(16)
    window = weyl.plateau_vector(pair, 0, 4)
    expected = np.zeros(16)
    expected[:4] = 0.5
    np.testing.assert_allclose(window.components, expected)
    defect = (pair.V.apply(window) - window).norm()
    assert abs(defect - math.sqrt(0.5)) <= 1e-12


def test_plateau_clock_defect_large_dimension():
    nu, mu = 10**6, 10**3
    pair = weyl.make_canonical_pair(nu)
    window = weyl.plateau_vector(pair, 0, mu)
    defect = (pair.U.apply(window) - window).norm()
    assert defect <= 2.0 * np.pi * mu / nu
    # direct scalar summation oracle for the same quantity
    k = np.arange(mu)
    oracle = math.sqrt(np.sum(np.abs(np.exp(2j * np.pi * k / nu) - 1.0) ** 2) / mu)
    assert abs(defect - oracle) <= 1e-12


def test_plateau_window_overflow():
    pair = weyl.make_canonical_pair(16)
    with pytest.raises(ValueError):
        weyl.plateau_vector(pair, 3, 5)


def test_plateau_family_orthonormal():
    pair = weyl.make_canonical_pair(64)
    mu = 8
    vecs = [weyl.plateau_vector(pair, l, mu) for l in range(8)]
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            assert abs(vi.inner(vj) - (1.0 if i == j else 0.0)) <= 1e-13


@pytest.mark.parametrize("nu,mu,l", [(256, 16, 0), (256, 16, 2), (1024, 32, 1), (4096, 64, 0)])
def test_plateau_defect_formulas(nu, mu, l):
    pair = weyl.make_canonical_pair(nu)
    window = weyl.plateau_vector(pair, l, mu)
    shift_defect = (pair.V.apply(window) - window).norm()
    assert abs(shift_defect - math.sqrt(2.0 / mu)) <= 1e-12
    clock_defect = (pair.U.apply(window) - window).norm()
    assert clock_defect <= 2.0 * np.pi * (l + 1) * mu / nu


# ---------------------------------------------------------------------------
# quadratures and CCR defects


def test_quadrature_degenerate_small_dimension():
    pair = weyl.make_canonical_pair(2)
    p_op, _ = weyl.quadrature_ops(pair, 1, 1)
    np.testing.assert_allclose(p_op.dense(), np.zeros((2, 2)), atol=1e-15)


def test_quadratures_hermitian():
    pair = weyl.make_canonical_pair(64)
    p_op, q_op = weyl.quadrature_ops(pair, 1, 1)
    rng = np.random.default_rng(2)
    for op in (p_op, q_op):
        adj = op.adjoint()
        for _ in range(10):
            xi = random_state(64, rng)
            assert (op.apply(xi) - adj.apply(xi)).norm() <= 1e-12


def test_quadrature_shift_matrix_structure():
    # in the clock eigenbasis the shift quadrature is imaginary and
    # antisymmetric, with wraparound corner entries
    pair = weyl.make_canonical_pair(64)
    _, q_op = weyl.quadrature_ops(pair, 1, 1)
    mat = q_op.dense()
    np.testing.assert_allclose(mat.real, np.zeros((64, 64)), atol=1e-13)
    np.testing.assert_allclose(mat.T, -mat, atol=1e-13)
    assert abs(mat[0, 63]) > 0.1 and abs(mat[63, 0]) > 0.1


def test_quadrature_orders_validated():
    pair = weyl.make_canonical_pair(8)
    with pytest.raises(ValueError):
        weyl.quadrature_ops(pair, 0, 1)


def test_ccr_defect_on_plateau_improves_with_dimension():
    small = weyl.make_canonical_pair(256)
    large = weyl.make_canonical_pair(4096)
    defect_small = weyl.ccr_defect(small, 1, 1, weyl.plateau_vector(small, 0, 16))
    defect_large = weyl.ccr_defect(large, 1, 1, weyl.plateau_vector(large, 0, 64))
    assert defect_large.group <= 0.2
    assert defect_large.group < defect_small.group
    assert defect_large.quadrature < defect_small.quadrature


def test_ccr_defect_sharp_vector_is_order_one():
    # a single clock eigenvector is far from invariant under U: the defect
    # is sqrt(1 + |c|^2) with c = (nu/2pi)(e^{2 pi i/nu} - 1), about sqrt(2)
    nu = 64
    pair = weyl.make_canonical_pair(nu)
    defect = weyl.ccr_defect(pair, 1, 1, StateVector.basis(nu, 0))
    c = (nu / (2 * np.pi)) * (np.exp(2j * np.pi / nu) - 1.0)
    expected = math.sqrt(1.0 + abs(c) ** 2)
    assert abs(defect.group - expected) <= 1e-12
    assert defect.group > 1.0


def test_ccr_defect_rejects_zero_vector():
    pair = weyl.make_canonical_pair(4)
    with pytest.raises(ValueError):
        weyl.ccr_defect(pair, 1, 1, StateVector(4, np.zeros(4)))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (3, 3)])
def test_commutator_factorization_exact(m, n):
    pair = weyl.make_canonical_pair(4096)
    rng = np.random.default_rng(m * 10 + n)
    xi = random_state(4096, rng)
    assert weyl.commutator_factorization_residual(pair, m, n, xi) <= 1e-12
    window = weyl.plateau_vector(pair, 0, 64)
    assert weyl.commutator_factorization_residual(pair, m, n, window) <= 1e-12


def test_conjugated_pair_still_canonical():
    # unitary conjugation preserves the defining relations (uniqueness
    # up to unitaries makes the diagonal-clock choice loss-free)
    nu = 8
    pair = weyl.make_canonical_pair(nu)
    rng = np.random.default_rng(99)
    w, _ = np.linalg.qr(rng.standard_normal((nu, nu)) + 1j * rng.standard_normal((nu, nu)))
    u2 = DenseOperator(w @ pair.U.dense() @ w.conj().T)
    v2 = DenseOperator(w @ pair.V.dense() @ w.conj().T)
    omega = np.exp(2j * np.pi / nu)
    for _ in range(5):
        xi = random_state(nu, rng)
        lhs = u2.apply(v2.apply(xi))
        rhs = omega * v2.apply(u2.apply(xi))
        assert (lhs - rhs).norm() <= 1e-12
    powu = np.linalg.matrix_power(u2.dense(), nu)
    powv = np.linalg.matrix_power(v2.dense(), nu)
    np.testing.assert_allclose(powu, np.eye(nu), atol=1e-10)
    np.testing.assert_allclose(powv, np.eye(nu), atol=1e-10)


def test_default_window_balances_defects():
    assert weyl.default_window(4096) == 64
    assert weyl.default_window(2) == 1


def test_clock_and_shift_unitary():
    pair = weyl.make_canonical_pair(64)
    rng = np.random.default_rng(7)
    for op in (pair.U, pair.V, pair.power_op(k=3, l=5, m=2)):
        adj = op.adjoint()
        for _ in range(3):
            xi = random_state(64, rng)
            assert (adj.apply(op.apply(xi)) - xi).norm() <= 1e-13
            assert abs(op.apply(xi).norm() - 1.0) <= 1e-13


def test_shift_operator_norm_is_one():
    from ccrlab.linalg import operator_norm

    pair = weyl.make_canonical_pair(16)
    assert abs(operator_norm(pair.V) - 1.0) <= 1e-12
    # the matrix-free path agrees (unitarity forces every singular value to 1)
    assert abs(operator_norm(pair.V, cap=4) - 1.0) <= 1e-10
