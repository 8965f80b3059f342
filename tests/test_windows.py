"""Windowed checks: a check run on its vector's support equals the full vector's, bitwise.

The oracles are the full-vector routes: the buffer-form residuals applied to
the embedded vector, and the StateVector formulas of test_buffer_form
(_old_ccr_defect, _old_bracket), which predate windows.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccrlab import linalg, spin, weyl
from ccrlab.linalg import (
    BandedOperator,
    LinCombOperator,
    PermutationPhaseOperator,
    Window,
    _bracket_into,
    residual_norm,
    vector_norm,
)
from test_buffer_form import _old_bracket, _old_ccr_defect, _old_vec

CHUNK = np.getbufsize() // 2  # amplitudes per einsum chunk
PLATEAU_NUS = (2**16, 2**18, 2**20, 1000003)


def _embedded(dim, start, x):
    full = np.zeros(dim, dtype=complex)
    full[(start + np.arange(x.shape[0])) % dim] = x
    return full


@st.composite
def _windows(draw):
    dim = draw(
        st.integers(1, 5 * CHUNK + 37)
        | st.sampled_from([CHUNK, CHUNK + 1, 2 * CHUNK, 3**9, 1000003 % (4 * CHUNK)])
    )
    n = draw(st.integers(1, min(dim, 2 * CHUNK + 100)))
    # starts just below a chunk boundary straddle it; near dim they wrap
    start = draw(
        st.integers(0, dim - 1)
        | st.sampled_from([dim - 1, (CHUNK - 3) % dim, (2 * CHUNK - 1) % dim, (dim - n // 2) % dim])
    )
    return dim, start, n, draw(st.integers(0, 2**32 - 1))


@given(_windows())
def test_window_norm_is_bitwise_the_embedded_vector_norm(window):
    dim, start, n = window[:3]
    rng = np.random.default_rng(window[3])
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x[: rng.integers(0, n + 1)] = 0  # leading zeros, as a padded window has
    assert vector_norm(x, dim, start) == vector_norm(_embedded(dim, start, x))


def test_window_norm_sums_chunks_not_one_concatenated_slice():
    # a window across a chunk boundary, summed as one array, differs in the
    # last bits for some draws; summed chunk by chunk it never does
    rng = np.random.default_rng(5)
    dim, start, n = 4 * CHUNK, CHUNK - 101, 700
    concatenated = 0
    for _ in range(40):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        full = vector_norm(_embedded(dim, start, x))
        assert vector_norm(x, dim, start) == full
        concatenated += vector_norm(x) != full
    assert concatenated > 0


def test_windowed_clock_phases_are_bitwise_the_clock_table():
    rng = np.random.default_rng(2)
    for nu in PLATEAU_NUS:
        table = linalg._clock_table(nu)
        for k in (0, 1, -1, 3, int(rng.integers(0, nu))):
            for start in (0, nu - 1, nu - 300, int(rng.integers(0, nu))):
                n, m = 1000, int(rng.integers(0, nu))
                (o, phases), = PermutationPhaseOperator(nu, k, 0, m).compressed(start, n).diags
                idx = (k * ((start + np.arange(n)) % nu) + m) % nu
                assert o == 0 and np.array_equal(phases, table[idx])
    # where k i could pass int64, the phase indices are formed in Python
    # ints: a clock power near nu/2 on an odd cycle near 2**58, against the same expression
    nu, k, m, start, n = 2**58 - 27, 2**57 - 7, 12345, 2**58 - 30, 100
    (_, phases), = PermutationPhaseOperator(nu, k, 0, m).compressed(start, n).diags
    w = np.array([(k * ((start + i) % nu) + m) % nu for i in range(n)], dtype=np.int64)
    assert np.array_equal(phases, np.exp(2j * np.pi * w / nu))


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 13])
def test_compressed_operator_is_the_dense_compression(dim):
    # every group element, window and banded operator: P A P is read off
    # the dense matrix; a window as long as dim from start 0 is A itself
    rng = np.random.default_rng(dim)
    banded = BandedOperator(dim, [(o, rng.standard_normal(dim - abs(o)) + 0j) for o in {-1, 0, dim // 2} if abs(o) < dim])
    for n in range(1, dim):
        for start in range(dim):
            idx = (start + np.arange(n)) % dim
            for k in range(dim):
                for l in range(dim):
                    op = PermutationPhaseOperator(dim, k, l, 1)
                    assert np.array_equal(op.compressed(start, n).dense(), op.dense()[np.ix_(idx, idx)])
            if start + n <= dim:
                assert np.array_equal(banded.compressed(start, n).dense(), banded.dense()[np.ix_(idx, idx)])
            else:
                with pytest.raises(ValueError, match="wraps"):
                    banded.compressed(start, n)
    comb = LinCombOperator([(2j, banded), (0.5, PermutationPhaseOperator(dim, 1, 1))])
    assert comb.compressed(0, dim) is comb
    if dim > 1:
        with pytest.raises(ValueError, match="does not tile"):
            banded.compressed(1, dim)


@pytest.mark.parametrize("nu", PLATEAU_NUS)
def test_plateau_checks_on_the_window_are_bitwise_the_full_vector(nu):
    pair = weyl.make_canonical_pair(nu)
    mu = weyl.default_window(nu)
    for l in range(3):
        win = weyl.plateau_window(pair, l, mu)
        assert (win.start, win.components.shape[0]) == ((l * mu - 1) % nu, mu + 2)
        vec = weyl.plateau_vector(pair, l, mu)
        assert np.array_equal(_embedded(nu, win.start, win.components), vec.components)
        assert win.norm() == vec.norm()
        got = weyl.ccr_defect(pair, 1, 1, win)
        assert got == weyl.ccr_defect(pair, 1, 1, vec)
        assert (got.quadrature, got.group) == _old_ccr_defect(pair, 1, 1, vec)
        for op in (pair.U, pair.V):
            moved = weyl._moved(op, win)
            assert moved == weyl._moved(op, Window.of(vec)) == (_old_vec(op, vec) - vec).norm()


def test_a_plateau_window_that_covers_the_cycle_is_the_vector():
    for nu in (1, 2, 3, 4):
        pair = weyl.make_canonical_pair(nu)
        win = weyl.plateau_window(pair, 0, weyl.default_window(nu))
        assert win.start == 0 and win.components.shape[0] == nu


def test_ccr_defect_refuses_a_window_without_room_for_the_shift():
    pair = weyl.make_canonical_pair(64)
    win = weyl.plateau_window(pair, 1, 8)
    weyl.ccr_defect(pair, 1, 1, win)
    with pytest.raises(ValueError, match="zero amplitudes"):
        weyl.ccr_defect(pair, 1, 2, win)  # V^2 moves an index by two
    with pytest.raises(ValueError, match="zero amplitudes"):
        weyl.ccr_defect(pair, 1, 1, Window(64, 8, np.ones(8, dtype=complex)))


def _full_weight_state_defect(rep, k):
    # the buffer-form route on the whole vector, as the sweep ran it before windows
    x = spin.weight_state(rep, k).components
    out, w1, w2 = np.empty((3, rep.p + 1), dtype=np.complex128)
    _bracket_into(*spin.qp_from_spin(rep), x, -1, out, w1, w2)
    return residual_norm(np.subtract(out, np.multiply(1j, x, out=w1), out=out))


@pytest.mark.parametrize("p", [1, 2, 4, 10**3, 10**6])
def test_weight_state_check_on_the_window_is_bitwise_the_full_vector(p):
    rep = spin.make_spin_rep(p)
    for k in sorted({0, 1, 2, 3, p // 2, p - 1, p} & set(range(p + 1))):
        got = spin.weight_state_ccr_defect(rep, k)
        assert got == _full_weight_state_defect(rep, k)
        if p <= 10**3 or k <= 3:
            xi = spin.weight_state(rep, k)
            assert got == (_old_bracket(*spin.qp_from_spin(rep), xi, -1) - 1j * xi).norm()


def test_group_ccr_defect_reaches_nu_two_to_the_forty():
    # the window holds mu + 2 = 2**20 + 2 amplitudes of a 2**40 cycle; the
    # group defect's leading term is sqrt 2 nu^(-1/4)
    nu = 2**40
    pair = weyl.make_canonical_pair(nu, site_cap=58)
    begin = time.perf_counter()
    got = weyl.ccr_defect(pair, 1, 1, weyl.plateau_window(pair, 0, weyl.default_window(nu)))
    elapsed = time.perf_counter() - begin
    assert abs(got.group * nu**0.25 - math.sqrt(2.0)) < 1e-4, got
    assert elapsed < 1.0, elapsed


def test_ccr_defect_compresses_each_group_element_once(monkeypatch):
    # the group pair reuses the quadratures' compressed U^m and V^n: at
    # nu = 2**40 each compression evaluates 2**20 clock phases
    compressed = []
    inner = PermutationPhaseOperator._compressed

    def counting(self, start, n):
        compressed.append((self.k, self.l, self.m))
        return inner(self, start, n)

    monkeypatch.setattr(PermutationPhaseOperator, "_compressed", counting)
    nu = 2**16
    pair = weyl.make_canonical_pair(nu)
    weyl.ccr_defect(pair, 1, 1, weyl.plateau_window(pair, 1, weyl.default_window(nu)))
    assert sorted(compressed) == sorted([(1, 0, 0), (nu - 1, 0, 0), (0, 1, 0), (0, nu - 1, 0)])
