"""Full-vector checks run tile by tile: each figure equals the full-vector route's, bitwise.

The oracles are the full-vector routes the tiles replaced, written out here:
every operator applied to the whole drawn vector through three work vectors
of its length, and one residual_norm of the whole residual.  The inputs the
checks read are formed a tile at a time too (the random draw, the clock
table, the spin generators' diagonals) and are held bit for bit, through
int64 views, to the one-shot expressions they replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrlab import linalg, spin, weyl
from ccrlab.linalg import (
    BandedOperator,
    PermutationPhaseOperator,
    StateVector,
    Window,
    _bracket_into,
    random_state,
    residual_norm,
)

CHUNK = np.getbufsize() // 2  # amplitudes per einsum chunk
T = linalg.TILE_CHUNKS * CHUNK  # amplitudes per tile
# below one chunk, around one tile and two tiles past it
EDGE_DIMS = (T - 1, T, T + 1, T + 2, T + 3, T + 5, 2 * T + 3)


def _full_weyl_relation(pair, rng):
    worst = 0.0
    omega = np.exp(2j * np.pi / pair.nu)
    lhs, w, rhs = np.empty((3, pair.nu), dtype=np.complex128)
    for _ in range(3):
        x = random_state(pair.nu, rng).components
        pair.U._apply_array(pair.V._apply_array(x, w), lhs)
        pair.V._apply_array(pair.U._apply_array(x, w), rhs)
        worst = max(worst, residual_norm(np.subtract(lhs, np.multiply(omega, rhs, out=w), out=lhs)))
    return worst


def _full_moved(op, x):
    out = op._apply_array(x)
    return residual_norm(np.subtract(out, x, out=out))


def _full_factorization(pair, m, n, x):
    out, w1, w2 = np.empty((3, pair.nu), dtype=np.complex128)
    u_m, v_n = pair.power_op(k=m), pair.power_op(l=n)
    _bracket_into(u_m, v_n, x, -1, out, w1, w2)
    factor = np.exp(2j * np.pi * ((m * n) % pair.nu) / pair.nu) - 1.0
    rhs = np.multiply(factor, v_n.compose(u_m)._apply_array(x, w1), out=w2)
    return residual_norm(np.subtract(out, rhs, out=out))


def _full_generators(p):
    # J1, J2, J3 as make_spin_rep built them before the tiles, whole
    k = np.arange(p, dtype=np.float64)
    lowering = np.sqrt((p - k) * (k + 1.0)).astype(np.complex128)
    half = lowering / 2.0
    j1 = BandedOperator(p + 1, [(1, half), (-1, half)])
    j2 = BandedOperator(p + 1, [(1, 1j * lowering / 2.0), (-1, -1j * lowering / 2.0)])
    j3 = BandedOperator(p + 1, [(0, (p / 2.0 - np.arange(p + 1)).astype(np.complex128))])
    return j1, j2, j3


def _full_so3_closure(rep, rng):
    worst = 0.0
    ops = _full_generators(rep.p)
    out, w1, w2 = np.empty((3, rep.p + 1), dtype=np.complex128)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        x = random_state(rep.p + 1, rng).components
        _bracket_into(ops[a], ops[b], x, -1, out, w1, w2)
        rhs = np.multiply(1j, ops[c]._apply_array(x, w1), out=w2)
        worst = max(worst, residual_norm(np.subtract(out, rhs, out=out)))
    return worst


_DIMS = st.integers(1, CHUNK - 1) | st.sampled_from(EDGE_DIMS)
_SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40)
@given(_DIMS, _SEEDS)
def test_weyl_relation_tiles_are_bitwise_the_full_vector(nu, seed):
    pair = weyl.make_canonical_pair(nu)
    got = weyl._weyl_relation(pair, np.random.default_rng(seed), np.empty(nu, dtype=complex))
    assert got == _full_weyl_relation(pair, np.random.default_rng(seed))


@settings(max_examples=40)
@given(_DIMS, _SEEDS, st.data())
def test_moved_tiles_are_bitwise_the_full_vector(nu, seed, data):
    # the period check's identity elements, and elements whose shift wraps
    # either way past the cycle's ends and whose clock power steps the
    # table by one, two (strided), backwards or by about nu/2
    pair = weyl.make_canonical_pair(nu)
    x = random_state(nu, np.random.default_rng(seed)).components
    k = data.draw(st.sampled_from([0, 1, 2, nu - 1, nu // 2 + 1]) | st.integers(0, nu - 1))
    l = data.draw(st.sampled_from([0, 1, 2, nu - 1, nu - 3]))
    ops = [pair.power_op(k=nu), pair.power_op(l=nu), pair.power_op(k, l, data.draw(st.integers(0, nu)))]
    for op in ops:
        assert weyl._moved(op, Window.of(StateVector(nu, x))) == _full_moved(op, x)


@settings(max_examples=40)
@given(_DIMS, _SEEDS, st.sampled_from([(1, 1), (2, 3), (3, 1), (-1, 2), (2, -3), (5000, 1)]))
def test_commutator_factorization_tiles_are_bitwise_the_full_vector(nu, seed, mn):
    # m = 2 reads strided clock-table runs, m = -1 a backward one and
    # m = 5000 a gather of the table; n = -3 is a shift whose halo reaches
    # past the last index
    m, n = mn
    pair = weyl.make_canonical_pair(nu)
    xi = random_state(nu, np.random.default_rng(seed))
    got = weyl.commutator_factorization_residual(pair, m, n, xi)
    assert got == _full_factorization(pair, m, n, xi.components)


@settings(max_examples=40)
@given(_DIMS | st.sampled_from([T + 1, 2 * T + 1, 3 * T + 1]), _SEEDS)
def test_so3_closure_tiles_are_bitwise_the_full_vector(dim, seed):
    # p + 1 = k T + 1 leaves a last tile of one amplitude
    rep = spin.make_spin_rep(max(dim - 1, 1))
    got = spin._so3_closure(rep, np.random.default_rng(seed))
    assert got == _full_so3_closure(rep, np.random.default_rng(seed))


@pytest.mark.parametrize("nu", [T + 3, 2 * T + 3])
def test_a_shift_across_index_zero_reaches_the_wrapped_tile(nu):
    # V moves the last amplitude to index 0 and V^-1 the first to the last
    # index: without the wrapped halo either would read 1, not sqrt 2
    pair = weyl.make_canonical_pair(nu)
    for op, index in ((pair.V, nu - 1), (pair.power_op(l=-1), 0)):
        xi = Window.of(StateVector.basis(nu, index))
        assert weyl._moved(op, xi) == _full_moved(op, xi.components) == math.sqrt(2.0)


def test_both_phase_routes_of_a_compressed_element_are_the_same_numbers(monkeypatch):
    # a window reads clock-table runs while the table of its dimension is
    # held, and evaluates _clock_phases at its own indices otherwise
    nu = 2 * T + 3
    rng = np.random.default_rng(4)
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", {})
    for k in (0, 1, 2, nu - 1, nu // 2 + 1, int(rng.integers(0, nu))):
        for l in (0, 1, nu - 2):
            op = PermutationPhaseOperator(nu, k, l, int(rng.integers(0, nu)))
            for start, n in ((0, T), (nu - 3, T + 6), (T - 1, T + 4), (int(rng.integers(0, nu)), 300)):
                linalg._CLOCK_TABLES.clear()
                evaluated = op.compressed(start, n).diags
                linalg._clock_table(nu)
                read = op.compressed(start, n).diags
                assert [o for o, _ in read] == [o for o, _ in evaluated]
                assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(read, evaluated))


def test_a_library_factorization_check_holds_its_clock_table(monkeypatch):
    # called with no table held, the check builds nu's table as a full
    # apply does, so a second call reads every tile's phases from it
    nu = 2**16
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", {})
    pair = weyl.make_canonical_pair(nu)
    xi = random_state(nu, np.random.default_rng(5))
    first = weyl.commutator_factorization_residual(pair, 2, 3, xi)
    calls, clock_phases = [], linalg._clock_phases
    monkeypatch.setattr(linalg, "_clock_phases", lambda w, dim: calls.append(dim) or clock_phases(w, dim))
    assert weyl.commutator_factorization_residual(pair, 2, 3, xi) == first
    assert calls == []


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("dim", [1, T - 1, T, T + 1, 2 * T + 3])
def test_random_state_is_bitwise_the_one_call_draw(dim):
    # the old draw: all real parts in one call, then all imaginary parts,
    # a + 1j * b divided by its norm; the generator ends in the same state
    rng, ref = np.random.default_rng(dim), np.random.default_rng(dim)
    got = random_state(dim, rng).components
    a = ref.standard_normal(dim)
    b = ref.standard_normal(dim)
    v = a + 1j * b
    assert np.array_equal(_bits(got), _bits(v / linalg.vector_norm(v)))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("dim", [1, 7, CHUNK + 1, T - 1, T + 1, 3 * T + 5])
def test_clock_table_is_bitwise_the_one_shot_phases(monkeypatch, dim):
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", {})
    table = linalg._clock_table(dim)
    assert not table.flags.writeable
    assert np.array_equal(_bits(table), _bits(linalg._clock_phases(np.arange(dim, dtype=np.int64), dim)))


@pytest.mark.parametrize("p, lo, hi", [(1, 0, 2), (12, 0, 13), (12, 3, 9), (2 * T + 2, T - 2, 2 * T + 3)])
def test_generators_are_bitwise_the_complex_quotients(p, lo, hi):
    # the old diagonals divided complex arrays by 2.0; the signed zeros of
    # their real parts must survive too, so the bits are compared
    k = np.arange(lo, hi - 1, dtype=np.float64)
    lowering = np.sqrt((p - k) * (k + 1.0)).astype(np.complex128)
    old = {
        "J1": {1: lowering / 2.0, -1: lowering / 2.0},
        "J2": {1: 1j * lowering / 2.0, -1: -1j * lowering / 2.0},
        "J3": {0: (p / 2.0 - np.arange(lo, hi)).astype(np.complex128)},
        "J-": {1: lowering},
    }
    for name, op in zip(old, spin._generators(p, lo, hi)):
        got = dict(op.diags)
        assert sorted(got) == sorted(old[name]), name
        for offset, values in old[name].items():
            assert np.array_equal(_bits(got[offset]), _bits(values)), (name, offset)


@pytest.mark.parametrize("index", [0, T - 1, T, 2 * T + 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_a_non_finite_amplitude_in_any_tile_is_refused(index, value):
    # the finiteness check runs a tile of the float view at a time, over
    # real and imaginary parts alike
    comps = np.ones(2 * T + 3, dtype=np.complex128)
    comps[index] = value
    with pytest.raises(ValueError, match="finite"):
        StateVector(2 * T + 3, comps)
