"""Substrate tests: realizations agree with dense oracles, norms behave."""

import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccrlab import clifford, linalg, parafermi, pauli, spin, weyl
from ccrlab.linalg import (
    BandedOperator,
    ConvergenceError,
    DenseOperator,
    DimensionMismatchError,
    LinCombOperator,
    PauliString,
    PauliSumOperator,
    PermutationPhaseOperator,
    StateVector,
    anticommutator_apply,
    commutator_apply,
    hs_norm,
    identity,
    kron,
    normalized_trace,
    operator_norm,
    random_state,
)
from ccrlab.pauli import ResourceLimitError

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def sigma_op(mat):
    return DenseOperator(mat)


def pauli_decompose_2site(mat):
    """Expand a 4x4 matrix over two-site Pauli strings via trace inner products.

    Oracle-side decomposition: matches the little-endian site order used by
    PauliString (site 1 fastest), so np.kron(B_site2, A_site1).
    """
    labels = ["I", "X", "Y", "Z"]
    strings = []
    for l1 in labels:
        for l2 in labels:
            basis_mat = np.kron(linalg.SINGLE_SITE[l2], linalg.SINGLE_SITE[l1])
            coeff = np.trace(basis_mat.conj().T @ mat) / 4.0
            if abs(coeff) < 1e-15:
                continue
            sites = [(1, l1)] if l1 != "I" else []
            if l2 != "I":
                sites.append((2, l2))
            strings.append(PauliString(coeff, sites, 2))
    return PauliSumOperator(strings, 2)


# ---------------------------------------------------------------------------
# StateVector


def test_state_vector_invariants():
    v = StateVector(3, np.array([1.0, 2.0, 2.0]))
    assert v.norm() == 3.0
    with pytest.raises(ValueError):
        StateVector(3, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StateVector(2, np.array([np.inf, 0.0]))
    with pytest.raises(ValueError):
        StateVector.basis(4, 4)


def test_state_vector_inner_and_tensor():
    rng = np.random.default_rng(3)
    a, b = random_state(4, rng), random_state(4, rng)
    assert abs(a.inner(b) - np.vdot(a.components, b.components)) < 1e-15
    with pytest.raises(DimensionMismatchError):
        a.inner(random_state(5, rng))
    tensored = a.tensor(b)
    assert tensored.dim == 16
    np.testing.assert_allclose(
        tensored.components, np.kron(a.components, b.components)
    )


def test_state_vector_takes_a_strided_array():
    # the finiteness check reads a float view, which a strided complex array
    # cannot give before it is made contiguous
    comps = np.arange(8, dtype=np.complex128)[::2]
    v = StateVector(4, comps)
    assert v.components.flags.c_contiguous and np.array_equal(v.components, [0, 2, 4, 6])
    with pytest.raises(ValueError, match="finite"):
        StateVector(2, np.array([1.0, 0.0, np.inf, 0.0], dtype=np.complex128)[::2])


def test_state_vector_is_immutable():
    v = StateVector.basis(4, 0)
    with pytest.raises(ValueError):
        v.components[0] = 2.0


_TILE = linalg._tile()


@pytest.mark.parametrize("dim", [1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 5])
def test_a_draw_into_a_buffer_is_bitwise_a_fresh_draw(dim):
    # into a NaN-filled buffer, so a slot the draw skipped would show; the
    # generator ends where the fresh draw leaves it
    rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
    out = np.full(dim, np.nan, dtype=np.complex128)
    got = random_state(dim, rng, out=out).components
    want = random_state(dim, ref).components
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def test_draws_into_one_buffer_are_the_fresh_draws_in_turn():
    dim = _TILE + 7
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    out = np.empty(dim, dtype=np.complex128)
    for _ in range(2):
        got = random_state(dim, rng, out=out).components
        assert got.tobytes() == random_state(dim, ref).components.tobytes()


def test_a_buffer_draw_is_a_read_only_view_of_the_buffer():
    out = np.empty(16, dtype=np.complex128)
    comps = random_state(16, np.random.default_rng(1), out=out).components
    assert np.shares_memory(comps, out)
    assert not comps.flags.writeable and out.flags.writeable
    with pytest.raises(ValueError):
        comps[0] = 2.0


def _read_only(n):
    out = np.empty(n, dtype=np.complex128)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize(
    "out",
    [
        np.empty(15, dtype=np.complex128),
        np.empty((16, 1), dtype=np.complex128),
        np.empty(16, dtype=np.complex64),
        np.empty(16, dtype=np.float64),
        np.empty(32, dtype=np.complex128)[::2],
        _read_only(16),
    ],
    ids=["short", "2-d", "complex64", "float64", "strided", "read-only"],
)
def test_a_draw_refuses_a_buffer_it_would_have_to_copy(out):
    before = out.copy()
    with pytest.raises(ValueError, match="out must be"):
        random_state(16, np.random.default_rng(1), out=out)
    assert np.array_equal(out, before, equal_nan=True)


def test_a_buffer_draw_still_refuses_non_finite_amplitudes():
    class NaNs:
        def standard_normal(self, n, out):
            out[:] = np.nan
            return out

    dim = _TILE + 3
    with pytest.raises(ValueError, match="components must be finite"), np.errstate(all="ignore"):
        random_state(dim, NaNs(), out=np.empty(dim, dtype=np.complex128))


# ---------------------------------------------------------------------------
# apply across realizations


def test_identity_applies_as_identity():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 7, 64):
        xi = random_state(dim, rng)
        assert (identity(dim).apply(xi) - xi).norm() == 0.0


def test_pauli_z_on_site_one():
    xi = StateVector(2, np.array([2.0, 3.0]))
    z = PauliSumOperator([PauliString(1.0, [(1, "Z")], 1)])
    np.testing.assert_allclose(z.apply(xi).components, [2.0, -3.0])


def test_dense_vs_pauli_decomposition_on_random_vectors():
    rng = np.random.default_rng(42)
    mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    dense = DenseOperator(mat)
    pauli = pauli_decompose_2site(mat)
    for _ in range(10):
        xi = random_state(4, rng)
        diff = dense.apply(xi) - pauli.apply(xi)
        assert np.max(np.abs(diff.components)) <= 1e-12


@pytest.mark.parametrize("label", linalg.PAULI_LABELS)
def test_single_site_strings_match_their_dense_matrices(label):
    rng = np.random.default_rng(7)
    op = PauliString(1.3 - 0.2j, [(2, label)], 3)
    xi = random_state(8, rng)
    np.testing.assert_allclose(
        op.apply_to(xi.components), op.dense_matrix() @ xi.components, atol=1e-14
    )


def test_random_pauli_strings_match_dense_kron_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n_factors = int(rng.integers(0, m + 1))
        ks = rng.choice(np.arange(1, m + 1), size=n_factors, replace=False)
        sites = [
            (int(k), linalg.PAULI_LABELS[int(i)])
            for k, i in zip(ks, rng.integers(0, 6, size=n_factors))
        ]
        s = PauliString(complex(rng.standard_normal(), rng.standard_normal()), sites, m)
        x = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
        np.testing.assert_allclose(s.apply_to(x), s.dense_matrix() @ x, atol=1e-12)


def _reference_apply_into(s, x, acc):
    """The former gather kernel: masks over all 2**M basis indices.

    acc[n] += base * sign(m) * keep(m) * x[m] with m = n ^ flip, where
    sign is the Y/Z bit parity of the input index and keep its ladder and
    projector requirements, in the same order of floating-point steps.
    """
    flip = sign_mask = req_one = req_zero = n_y = 0
    for k, lab in s.sites:
        bit = 1 << (k - 1)
        if lab in "XY+-":
            flip |= bit
        if lab in "YZ":
            sign_mask |= bit
        if lab == "Y":
            n_y += 1
        if lab == "+":
            req_one |= bit
        if lab in "-N":
            req_zero |= bit
    n = np.arange(s.dim, dtype=np.int64)
    work = x * (s.coefficient * (1j ** n_y))
    if sign_mask:
        parity = np.bitwise_count(n & sign_mask) & 1
        work = work * (1.0 - 2.0 * parity)
    if req_one or req_zero:
        keep = ((n & req_one) == req_one) & ((n & req_zero) == 0)
        work = work * keep
    np.add(acc, work[n ^ flip], out=acc)


def _assert_kernel_matches_reference(s, rng):
    x = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    x_before = x.copy()
    acc0 = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
    want = acc0.copy()
    _reference_apply_into(s, x, want)
    got = acc0.copy()
    s.apply_into(x, got)
    assert np.array_equal(got, want), s
    assert np.array_equal(x, x_before), s


_KERNEL_LABELS = ("I",) + linalg.PAULI_LABELS


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_equals_gather_reference_on_every_label_assignment(m):
    rng = np.random.default_rng(100 + m)
    for labels in itertools.product(_KERNEL_LABELS, repeat=m):
        sites = [(k, lab) for k, lab in enumerate(labels, start=1) if lab != "I"]
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        _assert_kernel_matches_reference(PauliString(coeff, sites, m), rng)


def test_kernel_equals_gather_reference_on_family_strings():
    rng = np.random.default_rng(101)
    strings = []
    for nu in range(1, 11):
        for g in clifford.make_gammas(nu).gammas:
            strings.extend(PauliSumOperator.from_terms(g, nu).strings)
    for p in range(1, 11):
        for nu in range(1, 10 // p + 1):
            green = parafermi.make_green_system(p, nu)
            for k in range(1, nu + 1):
                strings.extend(parafermi.parafermi_op(green, k).strings)
    for s in strings:
        _assert_kernel_matches_reference(s, rng)
        _assert_kernel_matches_reference(s.adjoint(), rng)


@st.composite
def _pauli_strings(draw, m=None):
    if m is None:
        m = draw(st.integers(1, 8))
    labels = draw(st.lists(st.sampled_from(_KERNEL_LABELS), min_size=m, max_size=m))
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    coeff = complex(draw(finite), draw(finite))
    sites = [(k, lab) for k, lab in enumerate(labels, start=1) if lab != "I"]
    return PauliString(coeff, sites, m)


@given(_pauli_strings(), st.integers(0, 2**32 - 1))
def test_kernel_equals_gather_reference_on_random_strings(s, seed):
    _assert_kernel_matches_reference(s, np.random.default_rng(seed))


@st.composite
def _pauli_sums(draw):
    m = draw(st.integers(1, 6))
    return PauliSumOperator(draw(st.lists(_pauli_strings(m), max_size=4)), m)


@given(_pauli_sums(), st.integers(0, 2**32 - 1))
def test_sum_apply_into_overwrites_stale_buffers(op, seed):
    # the sum's output starts as np.empty: every entry, reached by a string
    # or not, must come out as the reference sum
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    want = np.zeros(op.dim, dtype=complex)
    for s in op.strings:
        _reference_apply_into(s, x, want)
    assert np.array_equal(op._apply_array(x), want)


def test_pauli_string_validation():
    with pytest.raises(ValueError):
        PauliString(1.0, [(1, "Q")], 2)
    with pytest.raises(ValueError):
        PauliString(1.0, [(3, "X")], 2)
    with pytest.raises(ValueError):
        PauliString(1.0, [(1, "X"), (1, "Z")], 2)


def test_apply_is_linear_for_every_realization():
    rng = np.random.default_rng(5)
    dim = 8
    ops = [
        DenseOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        BandedOperator(dim, [(0, rng.standard_normal(dim)), (2, rng.standard_normal(dim - 2))]),
        PauliSumOperator(
            [PauliString(0.7j, [(1, "X"), (3, "Z")], 3), PauliString(1.1, [(2, "-")], 3)]
        ),
        PermutationPhaseOperator(dim, k=5, l=3, m=2),
    ]
    for op in ops:
        a, b = random_state(dim, rng), random_state(dim, rng)
        alpha, beta = 0.3 - 1j, 2.2 + 0.1j
        combined = op.apply(StateVector(dim, alpha * a.components + beta * b.components))
        separate = alpha * op.apply(a) + beta * op.apply(b)
        assert (combined - separate).norm() < 1e-12


def test_dimension_mismatch_raises():
    op = identity(4)
    with pytest.raises(DimensionMismatchError):
        op.apply(StateVector.basis(5, 0))


def test_adjoint_pairing_identity():
    # <eta | A xi> == <A^dag eta | xi> for every realization
    rng = np.random.default_rng(29)
    dim = 8
    ops = [
        DenseOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        BandedOperator(dim, [(1, rng.standard_normal(7) + 1j * rng.standard_normal(7))]),
        PauliSumOperator(
            [PauliString(1.7 - 0.4j, [(1, "+"), (2, "Y"), (3, "N")], 3),
             PauliString(0.9j, [(2, "-")], 3)]
        ),
        PermutationPhaseOperator(dim, k=3, l=2, m=5),
        LinCombOperator([(0.5j, identity(dim)), (2.0, BandedOperator(dim, [(0, rng.standard_normal(dim))]))]),
    ]
    for op in ops:
        adj = op.adjoint()
        for _ in range(3):
            xi, eta = random_state(dim, rng), random_state(dim, rng)
            lhs = eta.inner(op.apply(xi))
            rhs = adj.apply(eta).inner(xi)
            assert abs(lhs - rhs) <= 1e-12


def test_adjoint_matches_dense_conjugate_transpose():
    rng = np.random.default_rng(9)
    dim = 8
    ops = [
        DenseOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        BandedOperator(
            dim,
            [(1, rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)),
             (-2, rng.standard_normal(dim - 2))],
        ),
        PauliSumOperator(
            [PauliString(0.3 + 1j, [(1, "+"), (2, "Y")], 3), PauliString(-2.0, [(3, "N")], 3)]
        ),
        PermutationPhaseOperator(dim, k=6, l=5, m=1),
        LinCombOperator([(1.5j, identity(dim)), (1.0, BandedOperator(dim, [(3, np.ones(dim - 3))]))]),
    ]
    for op in ops:
        np.testing.assert_allclose(
            op.adjoint().dense(), op.dense().conj().T, atol=1e-14
        )


# ---------------------------------------------------------------------------
# commutator / anticommutator


def test_self_commutator_vanishes():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 6))
    op = DenseOperator(mat)
    xi = random_state(6, rng)
    assert commutator_apply(op, op, xi).norm() == 0.0


def test_pauli_commutator_value():
    xi = StateVector(2, np.array([1.0, 0.0]))
    out = commutator_apply(sigma_op(SX), sigma_op(SY), xi)
    np.testing.assert_allclose(out.components, [2j, 0.0])


def test_commutator_matches_dense_product_oracle():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    xi = random_state(8, rng)
    out = commutator_apply(DenseOperator(a), DenseOperator(b), xi)
    oracle = (a @ b - b @ a) @ xi.components
    assert np.max(np.abs(out.components - oracle)) <= 1e-12


def test_anticommutator_cases():
    rng = np.random.default_rng(13)
    xi = random_state(2, rng)
    doubled = anticommutator_apply(sigma_op(SX), sigma_op(SX), xi)
    assert (doubled - 2.0 * xi).norm() < 1e-14
    assert anticommutator_apply(sigma_op(SX), sigma_op(SY), xi).norm() < 1e-14
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    xi = random_state(8, rng)
    out = anticommutator_apply(DenseOperator(a), DenseOperator(b), xi)
    oracle = (a @ b + b @ a) @ xi.components
    assert np.max(np.abs(out.components - oracle)) <= 1e-12


# ---------------------------------------------------------------------------
# kron


def test_kron_identity():
    out = kron(DenseOperator(np.eye(2)), DenseOperator(np.eye(2)))
    np.testing.assert_allclose(out.dense(), np.eye(4))


def test_kron_sigma3_with_identity():
    out = kron(DenseOperator(SZ), DenseOperator(np.eye(2)))
    np.testing.assert_allclose(out.dense(), np.diag([1.0, 1.0, -1.0, -1.0]))
    # same operator through the string route: slow factor acts on site 2
    string_route = kron(
        PauliSumOperator([PauliString(1.0, [(1, "Z")], 1)]),
        PauliSumOperator([PauliString(1.0, [], 1)]),
    )
    np.testing.assert_allclose(string_route.dense(), np.diag([1.0, 1.0, -1.0, -1.0]))


def test_kron_sigma1_pair_maps_first_to_last():
    out = kron(DenseOperator(SX), DenseOperator(SX))
    e0 = StateVector.basis(4, 0)
    np.testing.assert_allclose(out.apply(e0).components, StateVector.basis(4, 3).components)


def test_kron_respects_product_states():
    rng = np.random.default_rng(21)
    a = DenseOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = DenseOperator(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    xi, eta = random_state(2, rng), random_state(4, rng)
    lhs = kron(a, b).apply(xi.tensor(eta))
    rhs = a.apply(xi).tensor(b.apply(eta))
    assert (lhs - rhs).norm() < 1e-12


def test_kron_associativity():
    rng = np.random.default_rng(22)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    a, b, c = (DenseOperator(m) for m in mats)
    xi = random_state(8, rng)
    left = kron(kron(a, b), c).apply(xi)
    right = kron(a, kron(b, c)).apply(xi)
    assert (left - right).norm() <= 1e-12


def test_kron_string_route_matches_dense_route():
    s1 = PauliSumOperator(
        [PauliString(0.5, [(1, "X")], 2), PauliString(1j, [(2, "Y")], 2)]
    )
    s2 = PauliSumOperator([PauliString(1.0, [(1, "Z")], 1)])
    np.testing.assert_allclose(
        kron(s1, s2).dense(), np.kron(s1.dense(), s2.dense()), atol=1e-14
    )


def test_kron_rejects_mixed_realizations():
    with pytest.raises(TypeError):
        kron(DenseOperator(np.eye(2)), identity(2))


# ---------------------------------------------------------------------------
# exact Pauli algebra, against Kronecker-built dense matrices


def _labeled_strings(m, coeff):
    for labels in itertools.product(_KERNEL_LABELS, repeat=m):
        sites = [(k, lab) for k, lab in enumerate(labels, start=1) if lab != "I"]
        yield PauliString(coeff, sites, m)


def _dyadic(rng):
    # (a + ib) / 8 with small integers: every product and sum below is exact
    return complex(*rng.integers(-8, 9, size=2)) / 8


def _dense_of(terms, m):
    return PauliSumOperator.from_terms(terms, m).dense()


def _random_sum(rng, m, n_strings, coeff):
    strings = []
    for _ in range(n_strings):
        picks = rng.integers(0, len(_KERNEL_LABELS), m)
        sites = [(k, _KERNEL_LABELS[i]) for k, i in enumerate(picks, start=1) if i]
        strings.append(PauliString(coeff(rng), sites, m))
    return PauliSumOperator(strings, m)


@pytest.mark.parametrize("m", [1, 2])
def test_terms_product_equals_dense_product_on_every_label_pair(m):
    strings = list(_labeled_strings(m, 0.5 - 1j))
    for s in strings:
        for t in strings:
            got = _dense_of(s.terms() * t.terms(), m)
            assert np.array_equal(got, s.dense_matrix() @ t.dense_matrix()), (s, t)


def test_terms_product_equals_dense_product_on_random_dyadic_sums():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b = (_random_sum(rng, 3, int(rng.integers(1, 4)), _dyadic) for _ in range(2))
        want = a.dense() @ b.dense()
        assert np.array_equal(_dense_of(a.terms() * b.terms(), 3), want)
        assert np.array_equal(_dense_of(a.terms() + b.terms(), 3), a.dense() + b.dense())
        assert np.array_equal(_dense_of(a.terms() - b.terms(), 3), a.dense() - b.dense())
        assert np.array_equal(_dense_of(0.25j * a.terms(), 3), 0.25j * a.dense())
        comm = _dense_of(pauli.bracket(a.terms(), b.terms(), -1), 3)
        assert np.array_equal(comm, want - b.dense() @ a.dense())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_from_terms_rebuilds_every_labeled_string(m):
    for s in _labeled_strings(m, 0.75 + 0.5j):
        assert np.array_equal(_dense_of(s.terms(), m), s.dense_matrix()), s


def test_terms_drop_cancelled_terms_and_keep_the_identity_key():
    x1 = PauliString(1.0, [(1, "X")], 1).terms()
    assert x1 == {(1, 0): 1.0}
    assert x1 * x1 == {(0, 0): 1.0}
    assert x1 - x1 == {}
    assert PauliString(2.0, [(1, "+")], 1).terms() == {(1, 0): 1.0, (1, 1): 1j}
    n2 = PauliString(1.0, [(1, "N"), (2, "N")], 2).terms()
    assert n2 == {(0, 0): 0.25, (0, 1): 0.25, (0, 2): 0.25, (0, 3): 0.25}


def test_terms_norm_refuses_non_finite_coefficients():
    assert pauli.PauliTerms({(1, 0): 3.0, (0, 1): 4j}).norm() == 5.0
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="not finite"):
            pauli.PauliTerms({(0, 0): complex(bad)}).norm()


_DYADIC_PARTS = st.integers(-8, 8)


@st.composite
def _dyadic_terms(draw, m):
    # (a + ib) / 4 coefficients: every product, sum and doubling is exact
    keys = st.tuples(st.integers(0, (1 << m) - 1), st.integers(0, (1 << m) - 1))
    items = draw(st.dictionaries(keys, st.tuples(_DYADIC_PARTS, _DYADIC_PARTS), max_size=5))
    return pauli.PauliTerms._nonzero((key, complex(a, b) / 4) for key, (a, b) in items.items())


@st.composite
def _terms_and_sparse_state(draw):
    m = draw(st.integers(1, 10))
    entries = st.tuples(_DYADIC_PARTS, _DYADIC_PARTS)
    state = draw(st.dictionaries(st.integers(0, (1 << m) - 1), entries, min_size=1, max_size=3))
    return m, draw(_dyadic_terms(m)), {n: complex(a, b) / 4 for n, (a, b) in state.items()}


@given(_terms_and_sparse_state())
def test_sparse_action_equals_the_vector_route(case):
    m, terms, state = case
    x = np.zeros(1 << m, dtype=complex)
    for n, a in state.items():
        x[n] = a
    want = PauliSumOperator.from_terms(terms, m)._apply_array(x)
    got = np.zeros(1 << m, dtype=complex)
    out = terms.act(state)
    for n, a in out.items():
        got[n] = a
    assert np.array_equal(got, want)
    assert 0 not in out.values()


@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_equals_the_sparse_action_on_every_basis_vector(m):
    # an oracle independent of the gather: the exact expansion over the
    # Hermitian basis acting on |n>, for +, - and N sites as well as X/Y/Z
    for s in _labeled_strings(m, 0.375 - 0.625j):
        for t in (s, s.adjoint()):
            terms = t.terms()
            for n in range(t.dim):
                want = np.zeros(t.dim, dtype=complex)
                for out, a in terms.act({n: 1}).items():
                    want[out] = a
                got = t.apply_to(StateVector.basis(t.dim, n).components)
                assert np.array_equal(got, want), (t, n)


def test_terms_adjoint_equals_the_adjoint_strings_expansion():
    ops = []
    for nu in range(1, 9):
        ops.extend(PauliSumOperator.from_terms(g, nu) for g in clifford.make_gammas(nu).gammas)
    for p in range(1, 9):
        for modes in (1, 2):
            sys = parafermi.make_green_system(p, modes)
            ops.extend(
                PauliSumOperator.from_terms(c, sys.total_sites) for c in sys.components.values()
            )
            for k, (b, b_dag) in enumerate(sys.modes, start=1):
                op = parafermi.parafermi_op(sys, k)
                assert b == op.terms()
                assert b_dag == op.adjoint().terms()
                ops.append(op)
    for op in ops:
        assert op.terms().adjoint() == op.adjoint().terms(), op


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), _dyadic_terms(m))))
def test_terms_adjoint_is_the_dense_conjugate_transpose(case):
    m, terms = case
    assert np.array_equal(_dense_of(terms.adjoint(), m), _dense_of(terms, m).conj().T)


@given(st.integers(1, 6).flatmap(lambda m: st.tuples(_dyadic_terms(m), _dyadic_terms(m))))
def test_one_pass_bracket_is_the_two_product_dict(pair):
    a, b = pair
    for sign in (+1, -1):
        assert pauli.bracket(a, b, sign) == a * b + sign * (b * a)


@st.composite
def _wide_terms(draw, m):
    # masks over up to 130 sites, past one machine word: dense draws, and
    # masks of at most three sites, so that disjoint supports come up
    sites = st.sets(st.integers(0, m - 1), max_size=3)
    mask = st.integers(0, (1 << m) - 1) | sites.map(lambda s: sum(1 << i for i in s))
    coeffs = st.tuples(_DYADIC_PARTS, _DYADIC_PARTS)
    items = draw(st.dictionaries(st.tuples(mask, mask), coeffs, max_size=5))
    return pauli.PauliTerms._nonzero((key, complex(a, b) / 4) for key, (a, b) in items.items())


@given(st.integers(1, 130).flatmap(lambda m: st.tuples(_wide_terms(m), _wide_terms(m))))
def test_bracket_is_the_two_product_dict_on_masks_past_a_machine_word(pair):
    a, b = pair
    assert a * b == _parent_product(a, b)
    for sign in (+1, -1):
        assert pauli.bracket(a, b, sign) == a * b + sign * (b * a)


def test_a_commutator_skips_disjoint_supports_before_any_popcount():
    # X on site 1 and Y on site 130: the pair commutes, so the commutator
    # never reaches the parity test, and the anticommutator doubles it
    x1, y130 = {(1, 0): 1.0}, {(1 << 129, 1 << 129): 0.5j}
    left, right = pauli._split(x1), pauli._split(y130)
    assert left == [(1, 0, 1, 0, 1.0)] and right == [(1 << 129, 1 << 129, 1 << 129, 1, 0.5j)]
    assert pauli._pairs_into({}, left, right, pauli._TWICE_I_POWERS, 0) == {}
    anti = pauli._pairs_into({}, left, right, pauli._TWICE_I_POWERS, 1)
    assert anti == {(1 | 1 << 129, 1 << 129): 1j}


def _from_split(terms):
    assert all(s == x | z and y == (x & z).bit_count() for x, z, s, y, _ in terms)
    return pauli.PauliTerms({(x, z): c for x, z, _, _, c in terms})


def test_one_pass_bracket_is_the_two_product_dict_on_every_family_bracket(monkeypatch):
    # every exact product and bracket runs through pauli._pairs_into: each
    # call must add the oracle's product, or its bracket's two-product dict.
    # PauliTerms.__mul__ and bracket call it as a global of pauli, so that
    # is the binding patched there
    core = pauli._pairs_into
    seen = []
    callers = set()

    def checked(out, left, right, phases, skip):
        a, b = _from_split(left), _from_split(right)
        got = core({}, left, right, phases, skip)
        if skip is None:
            assert phases == pauli._I_POWERS
            assert pauli.PauliTerms._nonzero(got.items()) == _parent_product(a, b)
        else:
            sign = +1 if skip == 1 else -1
            assert phases == pauli._TWICE_I_POWERS
            want = _parent_product(a, b) + sign * _parent_product(b, a)
            assert pauli.PauliTerms._nonzero(got.items()) == want
        seen.append(skip)
        callers.add(inspect.currentframe().f_back.f_code)
        return core(out, left, right, phases, skip)

    for module in (pauli, clifford, parafermi):
        monkeypatch.setattr(module, "_pairs_into", checked)
    for p in (1, 2, 3):
        for nu in (1, 2):
            sys = parafermi.make_green_system(p, nu)
            parafermi.green_relation_residual(sys)
            parafermi.number_identity_residual(sys)
            parafermi.trilinear_defect(sys)
            parafermi.unit_defect(sys, (1,) * nu)
    for nu in (1, 2, 3):
        family = clifford.make_gammas(nu)
        basis = clifford.so_n_basis(family)
        pairs = list(itertools.product(sorted(basis), repeat=2))
        clifford.relation_residuals(family, pairs)
    assert {None, 0, 1} <= set(seen)
    assert pauli.bracket.__code__ in callers  # unit_defect's bracket


# ---------------------------------------------------------------------------
# the parent's exact checks, composed from a copy of its product loop; each
# rewritten check must return the same float on mutants that fail it


def _parent_product(a, b):
    """The product loop PauliTerms.__mul__ ran before the term-pair core."""
    out = {}
    for (x1, z1), c1 in a.items():
        y1 = (x1 & z1).bit_count()
        for (x2, z2), c2 in b.items():
            x3, z3 = x1 ^ x2, z1 ^ z2
            e = y1 + (x2 & z2).bit_count() + 2 * (z1 & x2).bit_count() - (x3 & z3).bit_count()
            out[x3, z3] = out.get((x3, z3), 0) + (1, 1j, -1, -1j)[e & 3] * c1 * c2
    return pauli.PauliTerms._nonzero(out.items())


def _parent_bracket(a, b, sign):
    return _parent_product(a, b) + sign * _parent_product(b, a)


def _parent_norm(terms):
    return math.sqrt(sum(abs(c) ** 2 for c in terms.values()))


def _parent_relation_residuals(family, samples):
    gammas = family.gammas
    one = pauli.PauliTerms({(0, 0): 1.0})

    def pair(i, j):
        return -_parent_product(gammas[i - 1], gammas[j - 1])

    square = max(_parent_norm(_parent_product(g, g) - one) for g in gammas)
    anti = max(
        (
            _parent_norm(_parent_bracket(gi, gj, +1))
            for i, gi in enumerate(gammas)
            for gj in gammas[i + 1:]
        ),
        default=0.0,
    )
    closure = 0.0
    for (i, j), (k, l) in samples:
        res = _parent_bracket(pair(i, j), pair(k, l), -1)
        for a, b, coeff in clifford.bracket_expansion(i, j, k, l):
            res = res - coeff * pair(a, b)
        closure = max(closure, _parent_norm(res))
    return square, anti, closure


def _parent_green(sys):
    comps = list(sys.components.items())
    one = pauli.PauliTerms({(0, 0): 1.0})
    worst = 0.0
    for index, ((k, a), ck) in enumerate(comps):
        for (l, b), cl in comps[index:]:
            sign = +1 if a == b else -1
            res = _parent_bracket(ck, cl.adjoint(), sign)
            if a == b and k == l:
                res = res - one
            worst = max(worst, _parent_norm(res), _parent_norm(_parent_bracket(ck, cl, sign)))
    return worst


def _parent_number_identity(sys):
    worst = 0.0
    for k, (b_k, b_k_dag) in enumerate(sys.modes, start=1):
        n_k = pauli.PauliTerms({(0, 0): sys.p / 2})
        n_k.update(((0, 1 << (sys.site(k, a) - 1)), 0.5) for a in range(1, sys.p + 1))
        lhs = 0.5 * (_parent_bracket(b_k_dag, b_k, -1) + pauli.PauliTerms({(0, 0): float(sys.p)}))
        worst = max(worst, _parent_norm(lhs - n_k))
    return worst


def _parent_trilinear(sys, coefficient=2.0):
    modes = range(1, sys.nu + 1)
    ann, cre = (dict(zip(modes, terms)) for terms in zip(*sys.modes))
    worst = 0.0
    for l, m in itertools.product(modes, repeat=2):
        cre_ann = _parent_bracket(cre[l], ann[m], -1)
        cre_cre = _parent_bracket(cre[l], cre[m], -1)
        ann_ann = _parent_bracket(ann[l], ann[m], -1)
        for k in modes:
            res = _parent_bracket(ann[k], cre_ann, -1)
            if k == l:
                res = res - coefficient * ann[m]
            worst = max(worst, _parent_norm(res))
            res = _parent_bracket(ann[k], cre_cre, -1)
            if k == l:
                res = res - coefficient * cre[m]
            if k == m:
                res = res + coefficient * cre[l]
            worst = max(worst, _parent_norm(res))
            worst = max(worst, _parent_norm(_parent_bracket(ann[k], ann_ann, -1)))
    return worst


def _with_tail(sys, tail_of):
    """The system with component (1, 1)'s Z tail replaced by tail_of(tail)."""
    ((bit, tail), _), _ = sys.components[1, 1].items()
    tail = tail_of(tail)
    mutant = pauli.PauliTerms({(bit, tail): 0.5j, (bit, bit | tail): 0.5})
    return dataclasses.replace(sys, components={**sys.components, (1, 1): mutant})


def test_parafermi_checks_equal_the_parent_composition_on_mutants(monkeypatch):
    for p, modes in ((2, 2), (3, 2), (2, 3), (4, 1), (3, 1)):
        sys = parafermi.make_green_system(p, modes)
        assert parafermi.green_relation_residual(sys) == _parent_green(sys) == 0.0
        mutants = [_with_tail(sys, lambda tail: tail | 1 << sys.nu)]  # one site into block 2
        if modes > 1:
            mutants.append(_with_tail(sys, lambda tail: tail << sys.nu))  # shifted a block on
        for mutant in mutants:
            worst = parafermi.green_relation_residual(mutant)
            assert worst == _parent_green(mutant) and worst > 0.0  # checked, not skipped
            assert parafermi.trilinear_defect(mutant) == _parent_trilinear(mutant)
            assert parafermi.number_identity_residual(mutant) == _parent_number_identity(mutant)
    add = parafermi._add_into
    # the trilinear coefficient 2 read as 2.5: only the trilinear check scales by 2
    monkeypatch.setattr(
        parafermi, "_add_into",
        lambda out, terms, scale: add(out, terms, 1.25 * scale if abs(scale) == 2 else scale),
    )
    for p, modes in ((1, 1), (2, 2), (3, 2), (5, 1)):
        sys = parafermi.make_green_system(p, modes)
        worst = parafermi.trilinear_defect(sys)
        assert worst == _parent_trilinear(sys, 2.5) and worst > 0.0
        assert parafermi.number_identity_residual(sys) == _parent_number_identity(sys) == 0.0


_ZERO_OR_DYADIC = st.just(0j) | st.builds(
    lambda a, b: complex(a, b) / 4, _DYADIC_PARTS, _DYADIC_PARTS
)


@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _ZERO_OR_DYADIC, max_size=8),
    _dyadic_terms(2),
    st.sampled_from([1, -1, 2.0, -2.0, 0.5j]),
)
def test_in_place_addition_keeps_the_order_of_the_terms_arithmetic(out, terms, scale):
    # a zero in a residual's dict stands for a dropped term: adding to it
    # must put the key last, where PauliTerms.total puts a new key, so the
    # norm sums the same values in the same order
    want = pauli.PauliTerms._nonzero(out.items()) + scale * terms
    got = pauli._add_into(dict(out), terms, scale)
    assert [(k, c) for k, c in got.items() if c != 0] == list(want.items())
    assert pauli._terms_norm(got) == want.norm()


def test_clifford_checks_equal_the_parent_composition_on_mutants():
    for nu in (1, 2, 3):
        family = clifford.make_gammas(nu)
        keys = list(itertools.combinations(range(1, 2 * nu + 2), 2))
        samples = list(itertools.product(keys, repeat=2))
        want = _parent_relation_residuals(family, samples)
        assert clifford.relation_residuals(family, samples) == want
        for g in range(len(family.gammas)):
            # one generator's support flipped on site 1: x ^= 1
            gammas = list(family.gammas)
            ((x, z), c), = gammas[g].items()
            gammas[g] = pauli.PauliTerms({(x ^ 1, z): c})
            mutant = dataclasses.replace(family, gammas=tuple(gammas))
            got = clifford.relation_residuals(mutant, samples)
            assert got == _parent_relation_residuals(mutant, samples)
            assert max(got) > 0.0


def test_hs_norm_and_trace_are_coefficient_reads_up_to_ten_sites():
    rng = np.random.default_rng(24)
    for m in range(1, 11):
        op = _random_sum(rng, m, 3, lambda r: complex(*r.standard_normal(2)))
        mat = op.dense()
        dim = 1 << m
        assert abs(op.normalized_trace() - np.trace(mat) / dim) <= 1e-12
        assert abs(op.hs_norm() - np.linalg.norm(mat) / np.sqrt(dim)) <= 1e-12


# ---------------------------------------------------------------------------
# norms and traces


def test_operator_norm_trivial_cases():
    assert abs(operator_norm(identity(5)) - 1.0) < 1e-12
    diag = BandedOperator(3, [(0, np.array([1.0, 2.0, 3.0]))])
    assert abs(operator_norm(diag) - 3.0) < 1e-12


def test_operator_norm_power_iteration_path():
    # force the iterative path with a small cap; clear spectral gap
    values = np.ones(64)
    values[10] = 3.0
    diag = BandedOperator(64, [(0, values)])
    est = operator_norm(diag, cap=8)
    assert abs(est - 3.0) < 1e-8
    assert abs(operator_norm(identity(64), cap=8) - 1.0) < 1e-10


def test_operator_norm_nonconvergence_raises():
    values = np.array([1.0, 1.0 - 1e-9, 0.5, 0.1])
    diag = BandedOperator(4, [(0, values)])
    with pytest.raises(ConvergenceError):
        operator_norm(diag, cap=2, max_iter=3)


def test_apply_norm_bounded_by_operator_norm():
    rng = np.random.default_rng(31)
    ops = [
        DenseOperator(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))),
        BandedOperator(8, [(1, rng.standard_normal(7)), (0, rng.standard_normal(8))]),
        PauliSumOperator([PauliString(2.0, [(1, "X")], 3), PauliString(1j, [(2, "N")], 3)]),
    ]
    for op in ops:
        bound = operator_norm(op)
        for _ in range(5):
            xi = random_state(8, rng)
            assert op.apply(xi).norm() <= bound * xi.norm() + 1e-10


def test_normalized_trace_values():
    assert normalized_trace(identity(7)) == 1.0
    z = PauliSumOperator([PauliString(1.0, [(1, "Z")], 1)])
    assert abs(normalized_trace(z)) < 1e-15
    assert abs(hs_norm(z) - 1.0) < 1e-12
    assert abs(hs_norm(identity(9)) - 1.0) < 1e-12
    n_proj = PauliSumOperator([PauliString(2.0, [(1, "N"), (3, "N")], 3)])
    assert abs(normalized_trace(n_proj) - 2.0 * 0.25) < 1e-15


def test_normalized_trace_matches_dense_for_all_realizations():
    rng = np.random.default_rng(17)
    dim = 8
    ops = [
        DenseOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        BandedOperator(dim, [(0, rng.standard_normal(dim)), (-1, rng.standard_normal(dim - 1))]),
        PauliSumOperator(
            [PauliString(1.2, [(1, "N")], 3), PauliString(0.5j, [(2, "Z"), (3, "N")], 3),
             PauliString(0.25, [], 3)]
        ),
        PermutationPhaseOperator(dim, m=3),
        PermutationPhaseOperator(dim, k=2, m=1),
        PermutationPhaseOperator(dim, l=1, m=1),
    ]
    for op in ops:
        assert abs(op.normalized_trace() - np.trace(op.dense()) / dim) < 1e-12


def test_hs_norm_matches_definition():
    rng = np.random.default_rng(18)
    dim = 8
    ops = [
        DenseOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        BandedOperator(dim, [(2, rng.standard_normal(dim - 2) + 1j * rng.standard_normal(dim - 2))]),
        PauliSumOperator(
            [PauliString(1.2, [(1, "+")], 3), PauliString(0.5j, [(2, "Z")], 3),
             PauliString(-0.3, [(1, "+"), (2, "X")], 3)]
        ),
        PermutationPhaseOperator(dim, k=1, l=1, m=7),
    ]
    for op in ops:
        mat = op.dense()
        expected = np.sqrt(np.trace(mat.conj().T @ mat).real / dim)
        assert abs(op.hs_norm() - expected) < 1e-12


def test_normalized_trace_of_commutator_vanishes():
    rng = np.random.default_rng(19)
    for _ in range(5):
        a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        comm = DenseOperator(a @ b - b @ a)
        assert abs(normalized_trace(comm)) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)


def test_site_budget_refusal():
    with pytest.raises(ResourceLimitError, match="bytes"):
        pauli.require_sites(23)


def test_dimension_budget_refusal_counts_bytes():
    pauli.require_dim(16, site_cap=4)
    with pytest.raises(ResourceLimitError, match="272 bytes .*cap 256 bytes"):
        pauli.require_dim(17, site_cap=4)
    # the Weyl and spin constructors refuse before building any array
    with pytest.raises(ResourceLimitError):
        weyl.make_canonical_pair(2**40)
    with pytest.raises(ResourceLimitError):
        spin.make_spin_rep(2**40)


def test_permutation_phase_compose_matches_dense():
    rng = np.random.default_rng(23)
    dim = 6
    a = PermutationPhaseOperator(dim, *rng.integers(0, dim, 3))
    b = PermutationPhaseOperator(dim, *rng.integers(0, dim, 3))
    np.testing.assert_allclose(a.compose(b).dense(), a.dense() @ b.dense(), atol=1e-14)


TILE = linalg.TILE_CHUNKS * (np.getbufsize() // 2)  # amplitudes per tile of a full apply
GROUP_DIMS = (1, 2, 3, 5, 16, 64, 100, 4096, 2**16, 2 * TILE + 3)


@pytest.mark.parametrize("nu", GROUP_DIMS)
def test_group_element_apply_is_bitwise_the_index_formula(nu):
    # oracle: explicit phase and index arrays, with exp evaluated per entry
    # rather than gathered from the shared clock table
    rng = np.random.default_rng(nu)
    x = rng.standard_normal(nu) + 1j * rng.standard_normal(nu)
    idx = np.arange(nu)
    triples = [
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -3, 0),
        (2, 5, 7), (nu, 0, 0), (0, 0, nu - 1), (3, nu + 2, -4), (nu - 1, nu - 1, nu - 1),
    ]
    if nu == 2**16:
        # random elements, and the clock powers around nu/2 where the signed
        # step of the phase index changes sign
        triples += [tuple(int(v) for v in rng.integers(0, nu, 3)) for _ in range(20)]
        triples += [(nu // 2 + d, 7, 11) for d in (-1, 0, 1)]
    if nu == 2 * TILE + 3:
        # a last tile of three amplitudes, and shifts whose j + l passes nu
        # in the middle of the second tile and of the first
        ks = (1, 3, nu - 1, nu // 2, nu // 2 + 1, nu // 3, 12345, int(rng.integers(0, nu)))
        triples += [(k, l, 5) for k in ks for l in (TILE // 2, nu - TILE // 2 - 1)]
    for k, l, m in triples:
        expected = np.empty(nu, dtype=complex)
        k_, l_, m_ = k % nu, l % nu, m % nu
        expected[(idx + l_) % nu] = np.exp(2j * np.pi * ((k_ * idx + m_) % nu) / nu) * x
        g = PermutationPhaseOperator(nu, k, l, m)
        assert np.array_equal(g._apply_array(x), expected), (k, l, m)
        # into a caller-owned buffer, every stale entry overwritten
        stale = np.full(nu, np.nan, dtype=complex)
        assert g._apply_array(x, stale) is stale and np.array_equal(stale, expected), (k, l, m)


def test_group_element_apply_allocates_only_its_output():
    # the phases are strided views of the clock table: an apply with k != 0
    # builds no index or phase array of length nu besides the output
    nu = 2**16
    x = np.ones(nu, dtype=complex)
    for k, l, m in ((1, 0, 0), (-1, 3, 0), (3, 5, 7)):
        g = PermutationPhaseOperator(nu, k, l, m)
        g._apply_array(x)  # the clock table is built once per dim
        tracemalloc.start()
        try:
            g._apply_array(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * nu, (k, l, m, peak)


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5])
def test_group_law_matches_dense_exhaustively(nu):
    # every (g, h): compose is the dense product, adjoint the conjugate
    # transpose, normalized_trace the dense trace over nu
    elements = [
        PermutationPhaseOperator(nu, k, l, m)
        for k, l, m in itertools.product(range(nu), repeat=3)
    ]
    dense = {g: g.dense() for g in elements}
    for g in elements:
        np.testing.assert_allclose(dense[g.adjoint()], dense[g].conj().T, atol=1e-14)
        assert abs(g.normalized_trace() - np.trace(dense[g]) / nu) <= 1e-14
        assert g.hs_norm() == 1.0
        for h in elements:
            np.testing.assert_allclose(dense[g.compose(h)], dense[g] @ dense[h], atol=1e-14)


def test_group_exponents_are_exact_integers_at_any_dimension(monkeypatch):
    # no index or phase array may be built on the way: either would need
    # terabytes at nu = 2**40; the clock table is the one place on the way
    # that would build an index array
    def refuse(dim):
        raise AssertionError(f"built an array of dimension {dim}")

    monkeypatch.setattr(linalg, "_clock_table", refuse)
    nu = 2**40
    one = PermutationPhaseOperator(nu)
    assert PermutationPhaseOperator(nu, k=nu) == one
    assert PermutationPhaseOperator(nu, k=2 * nu, l=-nu, m=3 * nu) == one
    u, v = PermutationPhaseOperator(nu, k=1), PermutationPhaseOperator(nu, l=1)
    assert PermutationPhaseOperator(nu, k=nu - 1).compose(u) == one
    assert u.compose(v) == PermutationPhaseOperator(nu, k=1, l=1, m=1)
    assert u.adjoint() == PermutationPhaseOperator(nu, k=nu - 1)
    assert one.normalized_trace() == 1.0 and u.normalized_trace() == 0.0
    assert u.hs_norm() == 1.0
    # the pair builder and power_op hold exponents only
    pair = weyl.make_canonical_pair(2**22)
    assert pair.U == PermutationPhaseOperator(2**22, k=1)
    assert pair.power_op(k=3, l=2**22 + 5, m=-1) == PermutationPhaseOperator(2**22, 3, 5, 2**22 - 1)


def test_densification_cap_enforced():
    op = identity(8)
    with pytest.raises(ValueError):
        op.dense(cap=4)
