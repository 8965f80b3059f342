"""Ladder-representation tests: exact CCR defects, covariance, coherent states."""

import math

import numpy as np
import pytest

from ccrlab import spin
from ccrlab.linalg import BandedOperator, StateVector, commutator_apply, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_spin_half_is_half_pauli():
    rep = spin.make_spin_rep(1)
    np.testing.assert_allclose(rep.J1.dense(), SX / 2, atol=1e-15)
    np.testing.assert_allclose(rep.J2.dense(), SY / 2, atol=1e-15)
    np.testing.assert_allclose(rep.J3.dense(), SZ / 2, atol=1e-15)


def test_lowering_matrix_element_spin_one():
    # <m=0| lower |m=1> = sqrt((1+1)(1-1+1)) = sqrt(2) at j = 1
    rep = spin.make_spin_rep(2)
    assert abs(rep.Jminus.dense()[1, 0] - math.sqrt(2.0)) < 1e-15


def test_j3_spectrum():
    rep = spin.make_spin_rep(4)
    np.testing.assert_allclose(np.diag(rep.J3.dense()).real, [2, 1, 0, -1, -2])


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        spin.make_spin_rep(0)


@pytest.mark.parametrize("p", [1, 2, 10, 100, 500])
def test_so3_commutation_relations(p):
    rep = spin.make_spin_rep(p)
    rng = np.random.default_rng(p)
    ops = (rep.J1, rep.J2, rep.J3)
    for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for _ in range(3):
            xi = random_state(p + 1, rng)
            res = commutator_apply(ops[a], ops[b], xi) - 1j * ops[c].apply(xi)
            assert res.norm() <= 1e-10


def test_qp_spin_half():
    rep = spin.make_spin_rep(1)
    q, p = spin.qp_from_spin(rep)
    np.testing.assert_allclose(q.dense(), SX / math.sqrt(2.0), atol=1e-15)
    np.testing.assert_allclose(p.dense(), SY / math.sqrt(2.0), atol=1e-15)


def test_qp_commutator_spin_one():
    rep = spin.make_spin_rep(2)
    q, p = spin.qp_from_spin(rep)
    comm = q.dense() @ p.dense() - p.dense() @ q.dense()
    np.testing.assert_allclose(comm, 1j * np.diag([1.0, 0.0, -1.0]), atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 7, 40])
def test_top_state_expectation_is_i(p):
    rep = spin.make_spin_rep(p)
    q, pp = spin.qp_from_spin(rep)
    top = spin.weight_state(rep, 0)
    value = top.inner(commutator_apply(q, pp, top))
    assert abs(value - 1j) <= 1e-13


def test_ccr_defect_is_exactly_k_over_j():
    for p in (10, 100, 500):
        rep = spin.make_spin_rep(p)
        for k in range(0, min(p, 6)):
            measured = spin.weight_state_ccr_defect(rep, k)
            assert abs(measured - k / rep.j) <= 1e-12
    # the identity holds across the whole weight ladder, not just the top
    rep = spin.make_spin_rep(40)
    for k in range(41):
        assert abs(spin.weight_state_ccr_defect(rep, k) - k / 20.0) <= 1e-12
    rep = spin.make_spin_rep(500)
    for k in (100, 250, 499, 500):
        assert abs(spin.weight_state_ccr_defect(rep, k) - k / 250.0) <= 1e-12


def test_ccr_defect_examples():
    rep = spin.make_spin_rep(1000)
    assert abs(spin.weight_state_ccr_defect(rep, 3) - 0.006) <= 1e-12
    rep = spin.make_spin_rep(10)
    # bottom state: the defect is maximal, not small
    assert abs(spin.weight_state_ccr_defect(rep, 10) - 2.0) <= 1e-12
    assert spin.weight_state_ccr_defect(rep, 0) <= 1e-13
    with pytest.raises(ValueError):
        spin.weight_state_ccr_defect(rep, 11)


def test_qp_support_and_coefficients():
    # Q|k> and P|k> only touch neighbors k-1 and k+1, with the closed-form
    # ladder coefficients
    p = 9
    rep = spin.make_spin_rep(p)
    j = rep.j
    q, pp = spin.qp_from_spin(rep)
    for k in range(p + 1):
        state = spin.weight_state(rep, k)
        down = 0.5 * math.sqrt((2.0 - k / j) * (k + 1)) if k < p else 0.0
        up = 0.5 * math.sqrt(k * (2.0 - k / j + 1.0 / j))
        q_out = q.apply(state).components
        p_out = pp.apply(state).components
        expected_q = np.zeros(p + 1, dtype=complex)
        expected_p = np.zeros(p + 1, dtype=complex)
        if k < p:
            expected_q[k + 1] = down
            expected_p[k + 1] = 1j * down
        if k > 0:
            expected_q[k - 1] = up
            expected_p[k - 1] = -1j * up
        np.testing.assert_allclose(q_out, expected_q, atol=1e-12)
        np.testing.assert_allclose(p_out, expected_p, atol=1e-12)


def test_rep_holds_the_generators_only():
    # make_spin_rep forms no array; the first read of a generator forms the
    # four on the full space, five arrays with J1's two diagonals sharing
    # one, and Q and P are scaled from J1 and J2 when a check needs them
    rep = spin.make_spin_rep(10**5)
    assert vars(rep) == {"p": 10**5, "j": 5e4}
    assert not hasattr(rep, "Q") and not hasattr(rep, "P")
    assert rep.J1 is rep.J1
    ops = [op for v in vars(rep).values() if isinstance(v, tuple) for op in v]
    assert len(ops) == 4 and all(isinstance(op, BandedOperator) for op in ops)
    assert len({id(values) for op in ops for _, values in op.diags}) == 5


# ---------------------------------------------------------------------------
# rotation covariance


def test_covariance_zero_angle():
    rep = spin.make_spin_rep(4)
    assert spin.covariance_defect(rep, 0.0) <= 1e-14


def test_quarter_turn_sends_q_to_p():
    rep = spin.make_spin_rep(2)
    q, p = spin.qp_from_spin(rep)
    fwd = spin.rotation_about_axis3(rep, math.pi / 2)
    bwd = spin.rotation_about_axis3(rep, -math.pi / 2)
    conj = bwd.dense() @ q.dense() @ fwd.dense()
    np.testing.assert_allclose(conj, p.dense(), atol=1e-10)


def test_half_turn_negates_q():
    rep = spin.make_spin_rep(2)
    q, _ = spin.qp_from_spin(rep)
    fwd = spin.rotation_about_axis3(rep, math.pi)
    bwd = spin.rotation_about_axis3(rep, -math.pi)
    conj = bwd.dense() @ q.dense() @ fwd.dense()
    np.testing.assert_allclose(conj, -q.dense(), atol=1e-10)


@pytest.mark.parametrize("p", [1, 2, 10, 100, 200])
def test_covariance_exact_on_angle_grid(p):
    rep = spin.make_spin_rep(p)
    for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        assert spin.covariance_defect(rep, float(theta)) <= 1e-10


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_zero_angle_is_top_state():
    rep = spin.make_spin_rep(12)
    state = spin.spin_coherent(rep, 0.0, 0.3)
    assert (state - spin.weight_state(rep, 0)).norm() == 0.0


def test_coherent_amplitudes_spin_one():
    rep = spin.make_spin_rep(2)
    state = spin.spin_coherent(rep, math.pi / 2, 0.0)
    np.testing.assert_allclose(
        state.components, 0.5 * np.array([1.0, math.sqrt(2.0), 1.0]), atol=1e-14
    )


def test_coherent_matches_rotation_operator():
    rep = spin.make_spin_rep(6)
    rng = np.random.default_rng(4)
    top = spin.weight_state(rep, 0)
    for _ in range(5):
        theta = float(rng.uniform(0.0, math.pi - 0.2))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        direct = spin.spin_coherent(rep, theta, phi)
        rotated = spin.rotation_operator(rep, theta, phi).apply(top)
        assert (direct - rotated).norm() <= 1e-9


@pytest.mark.parametrize("p", [1, 2, 5, 12])
def test_product_form_equals_rotation_operator(p):
    rep = spin.make_spin_rep(p)
    rng = np.random.default_rng(p + 17)
    theta = float(rng.uniform(0.1, math.pi - 0.2))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    a = spin.rotation_operator(rep, theta, phi).dense()
    b = spin.rotation_product_form(rep, theta, phi).dense()
    assert np.max(np.abs(a - b)) <= 1e-9


def test_coherent_unit_norm_at_large_p():
    rep = spin.make_spin_rep(10**4)
    state = spin.spin_coherent(rep, 2.0, 1.0)
    assert abs(state.norm() - 1.0) <= 1e-11


def test_theta_pi_rejected():
    rep = spin.make_spin_rep(4)
    with pytest.raises(ValueError):
        spin.spin_coherent(rep, math.pi, 0.0)


def test_coherent_limit_zero_z():
    rep = spin.make_spin_rep(10)
    errors = spin.coherent_limit_error(rep, 0.0, 4)
    np.testing.assert_allclose(errors, np.zeros(5), atol=1e-15)


def test_coherent_limit_k0_scalar_value():
    # |(1 + 1/(2j))^{-j} - e^{-1/2}| at p = 1000
    rep = spin.make_spin_rep(1000)
    errors = spin.coherent_limit_error(rep, 1.0, 0)
    expected = abs((1.0 + 1.0 / 1000.0) ** (-500.0) - math.exp(-0.5))
    assert abs(errors[0] - expected) <= 1e-12
    assert errors[0] <= 3e-4


def test_coherent_limit_improves_with_p():
    small = spin.coherent_limit_error(spin.make_spin_rep(100), 1.0, 5)
    large = spin.coherent_limit_error(spin.make_spin_rep(1000), 1.0, 5)
    assert np.all(large < small)


def test_coherent_limit_monotone_along_grid():
    grid = [100, 300, 1000, 3000]
    errors = np.stack(
        [spin.coherent_limit_error(spin.make_spin_rep(p), 1.0, 5) for p in grid]
    )
    for k in range(6):
        column = errors[:, k]
        assert np.all(np.diff(column) < 1e-12)


def _coherent_oracle(p, z, k):
    """|spin - Bose| amplitude of weight k in 60-digit arithmetic; the phases agree."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        r = mpmath.mpf(abs(z))
        x = r**2 / p
        spin_amp = (1 + x) ** (-mpmath.mpf(p) / 2) * mpmath.sqrt(mpmath.binomial(p, k) * x**k)
        bose_amp = mpmath.exp(-(r**2) / 2) * r**k / mpmath.sqrt(mpmath.factorial(k))
        return abs(spin_amp - bose_amp)


@pytest.mark.parametrize("z", [1.0, 0.5, 2.0, 0.3 - 0.4j])
def test_coherent_limit_error_matches_a_60_digit_oracle(z):
    # a difference of log-gammas at p cancels (5.6e-4 relative at p = 1e6,
    # k = 2); the head is formed from log1p terms and a series for
    # x - log1p(x), so it stays within a few ulps up to p = 1e12
    for p in [10**e for e in range(1, 7)]:
        got = spin.coherent_limit_error(spin.make_spin_rep(p), z, 3)
        for k in range(4):
            want = _coherent_oracle(p, z, k)
            assert abs(got[k] - want) <= 1e-13 * want, (p, k, got[k], want)
    for p in (10**9, 10**12):
        got = spin.coherent_head_error(p, z, 3)
        for k in range(4):
            want = _coherent_oracle(p, z, k)
            assert abs(got[k] - want) <= 1e-13 * want, (p, k, got[k], want)


def test_coherent_head_error_stays_finite_at_any_z_and_k():
    # neither factor of |b_k| |expm1(delta)| overflows, not even where the
    # spin and Bose amplitudes underflow; k may run up to p
    for p, z in ((10, 1e14), (10, 30.0), (10**6, 1e3), (7, 2.0)):
        errors = spin.coherent_head_error(p, z, min(p, 5))
        assert np.all(np.isfinite(errors)) and np.all((errors >= 0) & (errors <= 1)), errors
    # at small p the full amplitude vector is accurate and agrees
    rep = spin.make_spin_rep(7)
    params = spin.SpinCoherentParams.from_z(2.0, rep.j)
    amps = spin.coherent_amplitudes(rep, params.theta, params.phi)
    want = [abs(amps[k] - spin.bose_coherent_amplitude(2.0, k)) for k in range(8)]
    np.testing.assert_allclose(spin.coherent_head_error(7, 2.0, 7), want, rtol=1e-12, atol=0)


def test_coherent_limit_kmax_validated():
    rep = spin.make_spin_rep(4)
    with pytest.raises(ValueError):
        spin.coherent_limit_error(rep, 1.0, 5)


def test_coherent_params_roundtrip():
    params = spin.SpinCoherentParams.from_angles(1.2, 0.7, 50.0)
    back = spin.SpinCoherentParams.from_z(params.z, 50.0)
    assert abs(back.theta - params.theta) < 1e-12
    assert abs(back.phi - params.phi) < 1e-12
    assert abs(params.mu_c) - math.tan(0.6) < 1e-12
