"""Buffer form: operators apply into caller-owned vectors, residuals run on arrays.

The oracles are the formulas the buffer form replaced, written out here:
zero-filled applies with one temporary per term, and residuals in StateVector
arithmetic.  Every new path must equal them bitwise (== on values,
np.array_equal on vectors), not merely to rounding.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccrlab import linalg, spin, weyl
from ccrlab.linalg import (
    BandedOperator,
    DenseOperator,
    LinCombOperator,
    PermutationPhaseOperator,
    StateVector,
    anticommutator_apply,
    commutator_apply,
    random_state,
)
from ccrlab.sweeps import SweepConfig

DIMS = (1, 2, 7, 64, 2**16)


def _old_apply(op, x):
    """A x as the realizations computed it before the buffer form."""
    if isinstance(op, BandedOperator):
        out = np.zeros(op.dim, dtype=complex)
        for offset, values in op.diags:
            if offset >= 0:
                out[offset:] += values * x[: op.dim - offset]
            else:
                out[: op.dim + offset] += values * x[-offset:]
        return out
    if isinstance(op, LinCombOperator):
        # y is bound to a name: out += c * _old_apply(...) would let numpy
        # elide the temporary above 256 KiB and compute y * c in its place
        out = np.zeros(op.dim, dtype=complex)
        for c, term in op.terms:
            y = _old_apply(term, x)
            out += c * y
        return out
    if isinstance(op, PermutationPhaseOperator):
        idx = np.arange(op.dim)
        out = np.empty(op.dim, dtype=complex)
        out[(idx + op.l) % op.dim] = np.exp(2j * np.pi * ((op.k * idx + op.m) % op.dim) / op.dim) * x
        return out
    return op.matrix @ x


def _old_bracket(a, b, xi, sign):
    x = xi.components
    ab, ba = _old_apply(a, _old_apply(b, x)), _old_apply(b, _old_apply(a, x))
    return StateVector(xi.dim, ab - ba if sign < 0 else ab + ba)


def _old_vec(op, xi):
    return StateVector(xi.dim, _old_apply(op, xi.components))


def _complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _offset_sets(dim):
    top = dim - 1
    sets = [(0,), (top,), (-top,), (-top, top), (-1, 1), (-top, 0, top), (-1, 0, 2), (-2, 1, top)]
    return sorted({s for s in sets if len(set(s)) == len(s) and all(abs(o) < dim for o in s)})


def _assert_applies_like_the_old_formula(op, x, same=np.array_equal):
    want = _old_apply(op, x)
    before = x.copy()
    assert same(op._apply_array(x), want)
    stale = np.full(op.dim, np.nan, dtype=complex)
    assert op._apply_array(x, stale) is stale
    assert same(stale, want)
    assert np.array_equal(x, before)


@pytest.mark.parametrize("dim", DIMS)
def test_banded_apply_is_bitwise_the_zero_filled_formula(dim):
    # 1 to 3 diagonals, among them the corner offsets +-(dim - 1), written
    # into a fresh vector and into a stale NaN-filled one
    rng = np.random.default_rng(dim)
    x = _complex(rng, dim)
    for offsets in _offset_sets(dim):
        op = BandedOperator(dim, [(o, _complex(rng, dim - abs(o))) for o in offsets])
        _assert_applies_like_the_old_formula(op, x)


@pytest.mark.parametrize("dim", DIMS)
def test_lincomb_apply_is_bitwise_the_zero_filled_formula(dim):
    # a combination scales its terms in place; numpy multiplies a length-1
    # vector in place through its scalar loop, whose last bit can differ
    # from c * y for a general complex c, so dimension 1 agrees to rounding
    same = np.array_equal if dim > 1 else lambda a, b: np.allclose(a, b, rtol=1e-15, atol=0)
    rng = np.random.default_rng(dim + 1)
    x = _complex(rng, dim)
    banded = BandedOperator(dim, [(o, _complex(rng, dim - abs(o))) for o in _offset_sets(dim)[-1]])
    group = PermutationPhaseOperator(dim, 3, 1, 2)
    terms = [(0.3 + 0.7j, banded), (-1.1 + 0.2j, group), (2.5, PermutationPhaseOperator(dim, -1))]
    if dim <= 64:
        terms.append((1j, DenseOperator(_complex(rng, dim * dim).reshape(dim, dim))))
    for n_terms in range(1, len(terms) + 1):
        _assert_applies_like_the_old_formula(LinCombOperator(terms[:n_terms]), x, same)
    nested = LinCombOperator([(0.5 - 0.25j, LinCombOperator(terms)), (-2j, banded)])
    _assert_applies_like_the_old_formula(nested, x, same)


def test_scaling_keeps_the_scalar_on_the_left():
    # numpy's SIMD complex multiply is not bitwise symmetric in its operands,
    # so y * c can differ from c * y in the last bit; the records were written
    # with c * y, and an in-place y *= c would compute y * c
    rng = np.random.default_rng(11)
    dim = 4096
    x = _complex(rng, dim)
    one = PermutationPhaseOperator(dim)  # multiplies by table[0] = 1 exactly
    for c in (0.3 + 0.7j, -1.7 + 0.1j, complex(math.pi, -math.e)):
        assert np.array_equal(LinCombOperator([(c, one)])._apply_array(x), np.multiply(c, x))


@pytest.mark.parametrize("dim", DIMS)
def test_commutator_and_anticommutator_are_bitwise_the_old_formula(dim):
    rng = np.random.default_rng(dim + 3)
    xi = random_state(dim, rng)
    banded = BandedOperator(dim, [(o, _complex(rng, dim - abs(o))) for o in _offset_sets(dim)[-1]])
    lincomb = LinCombOperator([(0.5j, banded), (1.5, PermutationPhaseOperator(dim, 1, 1))])
    ops = [banded, lincomb, PermutationPhaseOperator(dim, 2, 3, 1)]
    for a in ops:
        for b in ops:
            got_c = commutator_apply(a, b, xi).components
            got_a = anticommutator_apply(a, b, xi).components
            assert np.array_equal(got_c, _old_bracket(a, b, xi, -1).components)
            assert np.array_equal(got_a, _old_bracket(a, b, xi, +1).components)


def test_random_state_is_bitwise_the_old_draw():
    for dim in DIMS:
        a, b = np.random.default_rng(dim), np.random.default_rng(dim)
        comps = a.standard_normal(dim) + 1j * a.standard_normal(dim)
        comps /= linalg.vector_norm(comps)
        assert np.array_equal(random_state(dim, b).components, comps)
        assert a.standard_normal() == b.standard_normal()  # same draws consumed


def _old_ccr_defect(pair, m, n, xi):
    p_op, q_op = weyl.quadrature_ops(pair, m, n)
    quad = _old_bracket(q_op, p_op, xi, -1) - 1j * xi
    scale = pair.nu / (2.0 * math.pi * m * n)
    group = scale * _old_bracket(pair.power_op(k=m), pair.power_op(l=n), xi, -1) - 1j * xi
    return quad.norm() / xi.norm(), group.norm() / xi.norm()


def _old_factorization(pair, m, n, xi):
    u_m, v_n = pair.power_op(k=m), pair.power_op(l=n)
    factor = np.exp(2j * np.pi * ((m * n) % pair.nu) / pair.nu) - 1.0
    return (_old_bracket(u_m, v_n, xi, -1) - factor * _old_vec(v_n.compose(u_m), xi)).norm()


def _old_weyl_checks(cfg, rng, pair, nu):
    mu = weyl.default_window(nu)
    worst = 0.0
    omega = np.exp(2j * np.pi / nu)
    for _ in range(3):
        xi = random_state(nu, rng)
        lhs = _old_vec(pair.U, _old_vec(pair.V, xi))
        rhs = omega * _old_vec(pair.V, _old_vec(pair.U, xi))
        worst = max(worst, (lhs - rhs).norm())
    yield {}, "weyl-relation", worst, cfg.tol_exact
    xi = random_state(nu, rng)
    period = max((_old_vec(pair.power_op(k=nu), xi) - xi).norm(), (_old_vec(pair.power_op(l=nu), xi) - xi).norm())
    yield {}, "clock-shift-period", period, cfg.tol_exact
    for m, n in ((1, 1), (2, 3)):
        xi = random_state(nu, rng)
        yield {"m": m, "n": n}, "commutator-factorization", _old_factorization(pair, m, n, xi), cfg.tol_exact
    for l in range(3):
        if (l + 1) * mu > nu:
            continue
        params = {"mu": mu, "l": l}
        window = weyl.plateau_vector(pair, l, mu)
        exact = math.sqrt(2.0 / mu) if mu < nu else 0.0
        shift = (_old_vec(pair.V, window) - window).norm()
        yield params, "plateau-shift-exact", abs(shift - exact), cfg.tol_exact
        clock = (_old_vec(pair.U, window) - window).norm()
        yield params, "plateau-clock-bound", clock, 2.0 * math.pi * (l + 1) * mu / nu
        quad, group = _old_ccr_defect(pair, 1, 1, window)
        yield params, "group-ccr-defect", group, None
        if l == 0:
            yield params, "quadrature-ccr-defect", quad, None
    if nu <= 64:
        worst = 0.0
        for _ in range(100):
            g = pair.power_op(*rng.integers(0, nu, 3))
            h = pair.power_op(*rng.integers(0, nu, 3))
            xi = random_state(nu, rng)
            worst = max(worst, (_old_vec(g, _old_vec(h, xi)) - _old_vec(g.compose(h), xi)).norm())
        yield {}, "heisenberg-homomorphism", worst, cfg.tol_exact


@pytest.mark.parametrize("nu", DIMS)
def test_weyl_residuals_are_bitwise_the_state_vector_formulas(nu):
    pair = weyl.make_canonical_pair(nu)
    rng = np.random.default_rng(nu + 4)
    for m, n in ((1, 1), (2, 3), (5, 1)):
        for xi in (random_state(nu, rng), weyl.plateau_vector(pair, 0, weyl.default_window(nu))):
            got = weyl.ccr_defect(pair, m, n, xi)
            assert (got.quadrature, got.group) == _old_ccr_defect(pair, m, n, xi)
            assert weyl.commutator_factorization_residual(pair, m, n, xi) == _old_factorization(pair, m, n, xi)
    cfg = SweepConfig()
    got = list(weyl._weyl_checks(cfg, np.random.default_rng(nu), pair, nu))
    assert got == list(_old_weyl_checks(cfg, np.random.default_rng(nu), pair, nu))


def _old_qp(rep):
    s = 1.0 / math.sqrt(rep.j)
    q = BandedOperator(rep.p + 1, [(o, s * v) for o, v in rep.J1.diags])
    p = BandedOperator(rep.p + 1, [(o, s * v) for o, v in rep.J2.diags])
    return q, p


@pytest.mark.parametrize("dim", [d for d in DIMS if d > 1])
def test_spin_residuals_are_bitwise_the_state_vector_formulas(dim):
    p = dim - 1
    rep = spin.make_spin_rep(p)
    q, pp = _old_qp(rep)
    for built, old in zip(spin.qp_from_spin(rep), (q, pp)):
        assert [o for o, _ in built.diags] == [o for o, _ in old.diags]
        assert all(np.array_equal(v, w) for (_, v), (_, w) in zip(built.diags, old.diags))

    for k in sorted({0, 1, p // 2, p}):
        xi = spin.weight_state(rep, k)
        assert spin.weight_state_ccr_defect(rep, k) == (_old_bracket(q, pp, xi, -1) - 1j * xi).norm()

    theta = 0.7
    fwd, bwd = spin.rotation_about_axis3(rep, theta), spin.rotation_about_axis3(rep, -theta)
    rotated = LinCombOperator([(math.cos(theta), q), (math.sin(theta), pp)])
    rng = np.random.default_rng(dim)
    worst = 0.0
    for _ in range(3):
        xi = random_state(dim, rng)
        worst = max(worst, (_old_vec(bwd, _old_vec(q, _old_vec(fwd, xi))) - _old_vec(rotated, xi)).norm())
    assert spin.covariance_defect(rep, theta, n_vectors=3, rng=np.random.default_rng(dim)) == worst

    ops = (rep.J1, rep.J2, rep.J3)
    rng = np.random.default_rng(dim + 5)
    worst = 0.0
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        xi = random_state(dim, rng)
        worst = max(worst, (_old_bracket(ops[a], ops[b], xi, -1) - 1j * _old_vec(ops[c], xi)).norm())
    assert spin._so3_closure(rep, np.random.default_rng(dim + 5)) == worst


def _peak_vectors(fn, dim):
    fn()  # clock tables and imports are built on the first call
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (16 * dim)
    finally:
        tracemalloc.stop()


# the commutator-factorization checks as weyl._weyl_checks runs them: both
# draws go into one buffer, each consumed before the next is drawn over it
def _factorizations(pair, rng):
    buf = np.empty(pair.nu, dtype=complex)
    for m, n in ((1, 1), (2, 3)):
        weyl.commutator_factorization_residual(pair, m, n, random_state(pair.nu, rng, buf))


def test_residuals_allocate_only_their_work_vectors():
    dim = 2**16
    rep = spin.make_spin_rep(dim - 1)
    pair = weyl.make_canonical_pair(dim)
    # the four full-vector checks run tile by tile on nu's clock table, held
    # as the sweep holds it: the random state and O(tile) work, a tile being
    # an eighth of this vector: three work vectors, the wrapped windows'
    # copies and, for so3-closure, the generators' five diagonals.  The draw
    # and the finiteness check take a tile at a time, and every draw of a
    # check goes into one buffer, allocated in the measurement as the grid
    # point allocates it.  Measured: 2.131 for so3-closure, 1.630 for
    # weyl-relation, 1.631 for commutator-factorization and 1.380 for
    # clock-shift-period, each bound 0.02 above (2.134, 1.630, 1.631 and
    # 1.502 with the float draw buffer, which at this dim stays under the
    # tile work except in clock-shift-period; 5.63, 5.63, 4.00 and 2.00 on
    # full vectors)
    linalg._clock_table(dim)
    checks = [
        (lambda: spin._so3_closure(rep, np.random.default_rng(0)), 2.15),
        (lambda: weyl._weyl_relation(pair, np.random.default_rng(0), np.empty(dim, complex)), 1.65),
        (lambda: _factorizations(pair, np.random.default_rng(0)), 1.65),
        (lambda: weyl._clock_shift_period(pair, np.random.default_rng(0), np.empty(dim, complex)), 1.40),
    ]
    for check, bound in checks:
        peak = _peak_vectors(check, dim)
        assert peak < bound, peak
    window = weyl.plateau_vector(pair, 0, weyl.default_window(dim))
    # out, w1, w2 and the quadrature combination's scratch vector
    peak = _peak_vectors(lambda: weyl.ccr_defect(pair, 1, 1, window), dim)
    assert peak < 4.1, peak
    # on the plateau window of mu + 2 = 258 amplitudes: its work vectors,
    # compressed phases and the norm's one einsum chunk of 4096 amplitudes,
    # and no vector of length dim
    window = weyl.plateau_window(pair, 0, weyl.default_window(dim))
    peak = _peak_vectors(lambda: weyl.ccr_defect(pair, 1, 1, window), dim)
    assert peak < 0.1, peak


def test_a_grid_point_holds_its_vector_its_table_and_tile_work():
    # every check of one grid point at dim 2**18: a weyl point holds nu's
    # table, built in the measurement, one drawn vector and about 0.63 MiB
    # of tile work, a spin point one drawn vector and at most 1.13 MiB.  At
    # 2**16 that work is 0.63 and 1.13 vectors and would hide a transient of
    # half a vector.  Measured 2.158 and 1.284; 2.501 and 1.501 with the
    # float draw buffer
    dim = 2**18
    pair = weyl.make_canonical_pair(dim)
    rep = spin.make_spin_rep(dim - 1)

    def weyl_point():
        linalg._CLOCK_TABLES.clear()
        list(weyl._weyl_checks(SweepConfig(), np.random.default_rng(0), pair, dim))

    try:
        peak = _peak_vectors(weyl_point, dim)
    finally:
        linalg._CLOCK_TABLES.clear()
    assert peak < 2.2, peak  # table + x + 0.2
    peak = _peak_vectors(lambda: list(spin._spin_checks(SweepConfig(), np.random.default_rng(0), rep, dim - 1)), dim)
    assert peak < 1.3, peak  # x + 0.3


@pytest.mark.parametrize(
    "family, dim", [("weyl", 16), ("weyl", 2 * linalg._tile() + 3), ("spin", 2 * linalg._tile() + 3)]
)
def test_a_grid_point_draws_every_vector_into_one_buffer(monkeypatch, family, dim):
    # weyl at nu = 16 also runs the homomorphism loop's 100 draws; spin past
    # p = 200 draws its three so3-closure vectors and no covariance ones
    draws = []
    real = linalg.random_state

    def spy(n, rng, out=None):
        xi = real(n, rng, out)
        draws.append((n, out, xi.components))
        return xi

    monkeypatch.setattr(weyl, "random_state", spy)
    monkeypatch.setattr(spin, "random_state", spy)
    rng = np.random.default_rng(dim)
    if family == "weyl":
        list(weyl._weyl_checks(SweepConfig(), rng, weyl.make_canonical_pair(dim), dim))
        assert len(draws) == 6 + (100 if dim <= 64 else 0)
    else:
        list(spin._spin_checks(SweepConfig(), rng, spin.make_spin_rep(dim - 1), dim - 1))
        assert len(draws) == 3
    buf = draws[0][1]
    assert isinstance(buf, np.ndarray)
    for n, out, comps in draws:
        assert n == dim and out is buf and np.shares_memory(comps, buf)


_POINTS_RSS = """
import numpy as np
from ccrlab import weyl
from ccrlab.sweeps import SweepConfig


def checks(nu):
    list(weyl._weyl_checks(SweepConfig(), rng, weyl.make_canonical_pair(nu), nu))


def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


rng = np.random.default_rng(1)
checks(64)  # the lazily built state of a grid point
before = peak_kib()
for nu in (2**18, 2**20):
    checks(nu)
print(peak_kib() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak RSS from /proc")
def test_a_large_weyl_point_keeps_nothing_from_the_one_before():
    # 2**18 and then 2**20, as the sweep runs them: the peak grows by the
    # larger point's clock table and draw buffer, 32 MiB, and its tile work.
    # With a fresh vector per draw, glibc served the draws after the first
    # from its brk heap and kept that heap: 36.1-36.2 MiB of growth against
    # 31.9-32.2 MiB with one buffer per grid point.  The peak is the child's
    # VmHWM, its own address space's: its ru_maxrss starts at this process's
    # resident size, which an exec keeps
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _POINTS_RSS], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    growth_kib = int(proc.stdout)
    assert growth_kib < (2 * 16 * 2**20 + 3 * 2**20) // 1024, growth_kib / 1024


def _poisoned(op, value):
    return BandedOperator(op.dim, [(o, np.full(v.shape, value, dtype=complex)) for o, v in op.diags])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_coefficient_raises_in_every_residual(monkeypatch, value):
    # max(0.0, nan) is 0.0: a NaN that reached the running max would read
    # as a pass, so every residual must raise instead.  The spin generators
    # are poisoned where they are formed, for the full operators, a window
    # and each tile; p = 2 T + 3 and nu = 2 T + 3 run the full-vector checks
    # on three tiles of T amplitudes, nu = 16 on one
    tiled = 2 * linalg.TILE_CHUNKS * (np.getbufsize() // 2) + 3
    generators = spin._generators

    def poisoned(which):
        def gens(p, lo, hi):
            ops = list(generators(p, lo, hi))
            ops[which] = _poisoned(ops[which], value)
            return tuple(ops)

        return gens

    rng = np.random.default_rng(1)
    spin_calls = [
        (0, lambda: spin.weight_state_ccr_defect(spin.make_spin_rep(12), 3)),
        (0, lambda: spin.covariance_defect(spin.make_spin_rep(12), 0.3)),
        (1, lambda: list(spin._spin_checks(SweepConfig(), rng, spin.make_spin_rep(12), 12))),
    ]
    for p, which in itertools.product((12, tiled - 1), range(3)):
        spin_calls.append((which, lambda p=p: spin._so3_closure(spin.make_spin_rep(p), rng)))
    for which, call in spin_calls:
        monkeypatch.setattr(spin, "_generators", poisoned(which))
        with pytest.raises(ValueError, match="not finite"), np.errstate(all="ignore"):
            call()
    calls = []
    for nu in (16, tiled):
        pair = weyl.make_canonical_pair(nu)
        xi = random_state(nu, rng)
        calls += [
            (nu, lambda pair=pair, xi=xi: weyl.ccr_defect(pair, 1, 1, xi)),
            (nu, lambda pair=pair, xi=xi: weyl.commutator_factorization_residual(pair, 1, 1, xi)),
            (nu, lambda pair=pair, xi=xi: weyl.commutator_factorization_residual(pair, 2, 3, xi)),
            (nu, lambda pair=pair, xi=xi: weyl._moved(pair.U, linalg.Window.of(xi))),
            (nu, lambda pair=pair, nu=nu: list(weyl._weyl_checks(SweepConfig(), rng, pair, nu))),
        ]
    # every clock phase but omega^0, so the clock table built from them and
    # the phases evaluated without one both carry it; each call runs with no
    # table held and with its nu's table held
    clock_phases = linalg._clock_phases

    def poisoned_phases(w, dim):
        return np.where(w == 0, clock_phases(w, dim), value)

    monkeypatch.setattr(linalg, "_clock_phases", poisoned_phases)
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", {})
    for held, (nu, call) in itertools.product((False, True), calls):
        linalg._CLOCK_TABLES.clear()
        if held:
            linalg._clock_table(nu)
        with pytest.raises(ValueError, match="not finite"), np.errstate(all="ignore"):
            call()


def test_group_element_apply_takes_two_products_per_tile_at_any_clock_power(monkeypatch):
    # a full apply walks j in stretches of at least a tile: a stretch's
    # phases are at most two runs of the held table, or one gather from it,
    # and a run's product splits where j + l passes nu, at one j only; so
    # at most 2 ceil(nu / tile) + 1 products whatever k is, and no phase is
    # evaluated
    nu = 2**16
    rng = np.random.default_rng(8)
    ks = [int(k) for k in rng.integers(0, nu, 20)]
    calls = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        def multiply(self, *args, **kwargs):
            calls.append(1)
            return np.multiply(*args, **kwargs)

    def evaluated(w, dim):
        raise AssertionError("a phase was evaluated with the table held")

    linalg._clock_table(nu)
    monkeypatch.setattr(linalg, "np", Counting())
    monkeypatch.setattr(linalg, "_clock_phases", evaluated)
    x = np.ones(nu, dtype=complex)
    bound = 2 * -(-nu // linalg._tile()) + 1
    for k in [1, 3, nu - 1, nu // 2 - 1, nu // 2, nu // 2 + 1] + ks:
        calls.clear()
        PermutationPhaseOperator(nu, k, 5, 9)._apply_array(x)
        assert len(calls) <= bound, (k, len(calls))
