"""Clock/shift canonical pairs and the finite Heisenberg group they generate.

A canonical pair on dimension nu is a pair of unitaries with U^nu = V^nu = 1,
no smaller power equal to 1, and U V = exp(2 pi i / nu) V U.  The concrete
realization fixed here is U = diag(exp(2 pi i k / nu)) and V the cyclic shift
e_k -> e_{k+1 mod nu}; any other canonical pair is unitarily equivalent.

Every operator exp(2 pi i m / nu) V^l U^k is the Heisenberg group element
(k, l, m) itself, a linalg.PermutationPhaseOperator: powers, products and
inverses are integer arithmetic mod nu, never matrix multiplication, so
every identity checked here is exact up to floating-point rounding at any
dimension that fits in memory.

The residuals apply the elements into three work vectors (the linalg buffer
form), subtract in place and raise ValueError on a non-finite residual norm.
A random vector is drawn at length nu, and commutator_factorization_residual
and the sweep's checks on it run tile by tile (linalg.tiled_residual_norm).
The sweep's grid point holds two vectors of length nu: its clock table,
which commutator_factorization_residual also builds when none is held for
nu, and one buffer that every draw of the point is drawn into
(linalg.random_state(out=)), so no draw is left on the allocator's heap.  A
plateau vector has mu = sqrt(nu) nonzero amplitudes, and U, V and the
quadratures move an index by at most one, so its checks run on
plateau_window, a linalg.Window of mu + 2 amplitudes: the same records,
bitwise, in O(mu) time and memory, up to nu = 2**40 and beyond.  A window
that would cover the whole cycle is the plateau vector itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _CLOCK_TABLES,
    LinCombOperator,
    PermutationPhaseOperator,
    StateVector,
    Window,
    _bracket_into,
    _clock_phases,
    _clock_table,
    _components,
    random_state,
    residual_norm,
    tiled_residual_norm,
)
from .pauli import DEFAULT_SITE_CAP, require_dim


@dataclass(frozen=True)
class WeylPair:
    """Dimension nu with the clock operator U and shift operator V."""

    nu: int
    U: PermutationPhaseOperator
    V: PermutationPhaseOperator

    def power_op(self, k: int = 0, l: int = 0, m: int = 0) -> PermutationPhaseOperator:
        """exp(2 pi i m / nu) V^l U^k, the group element (k, l, m).

        Exponents are reduced mod nu in integer arithmetic, so e.g. U^nu is
        exactly the identity; no array is built until the element is applied.
        """
        return PermutationPhaseOperator(self.nu, k, l, m)


def make_canonical_pair(nu: int, site_cap: int = DEFAULT_SITE_CAP) -> WeylPair:
    """Clock/shift pair on C^nu; the clock eigenvector at index 0 has eigenvalue 1."""
    require_dim(nu, site_cap)
    return WeylPair(nu, PermutationPhaseOperator(nu, k=1), PermutationPhaseOperator(nu, l=1))


def clock_basis_vector(pair: WeylPair, k: int) -> StateVector:
    """|u_k>, the k-th clock eigenvector (a standard basis vector here)."""
    return StateVector.basis(pair.nu, k % pair.nu)


def fourier_basis_vector(pair: WeylPair, n: int) -> StateVector:
    """|v_n> = nu^{-1/2} sum_k exp(2 pi i n k / nu) |u_k>, a shift eigenvector.

    Satisfies V |v_n> = exp(-2 pi i n / nu) |v_n>.
    """
    nu = pair.nu
    if not 0 <= n < nu:
        raise ValueError(f"index {n} out of range for nu={nu}")
    idx = np.arange(nu, dtype=np.int64)
    comps = _clock_phases((n * idx) % nu, nu) / np.sqrt(nu)
    return StateVector(nu, comps)


def _plateau_start(pair: WeylPair, l: int, mu: int) -> int:
    if mu < 1:
        raise ValueError("window size mu must be >= 1")
    if (l + 1) * mu > pair.nu:
        raise ValueError(f"window [{l * mu}, {(l + 1) * mu}) overflows dimension {pair.nu}")
    return l * mu


def plateau_vector(pair: WeylPair, l: int, mu: int) -> StateVector:
    """Uniform window over mu consecutive clock eigenvectors starting at l*mu.

    These are the approximately invariant vectors of both U and V:
    || V |l> - |l> || = sqrt(2/mu) exactly for mu < nu (0 for mu = nu) and
    || U |l> - |l> || <= 2 pi (l+1) mu / nu.
    """
    start = _plateau_start(pair, l, mu)
    comps = np.zeros(pair.nu, dtype=np.complex128)
    comps[start : start + mu] = 1.0 / math.sqrt(mu)
    return StateVector(pair.nu, comps)


def plateau_window(pair: WeylPair, l: int, mu: int) -> Window:
    """plateau_vector(pair, l, mu) as a Window with one zero at each end.

    One zero is the reach of U, V and the quadratures at order 1.  The
    window starts at l mu - 1 mod nu, so the l = 0 window wraps to nu - 1;
    one that would cover the cycle is the whole vector.
    """
    start, n = _plateau_start(pair, l, mu) - 1, mu + 2
    if n >= pair.nu:
        return Window.of(plateau_vector(pair, l, mu))
    comps = np.zeros(n, dtype=np.complex128)
    comps[1 : 1 + mu] = 1.0 / math.sqrt(mu)
    return Window(pair.nu, start % pair.nu, comps)


def default_window(nu: int) -> int:
    """Window size floor(sqrt(nu)): balances the sqrt(2/mu) and 2 pi mu / nu defects."""
    return max(1, math.isqrt(nu))


def quadrature_ops(pair: WeylPair, m: int = 1, n: int = 1):
    """Hermitian pair built from clock and shift powers.

    P = (i/m) sqrt(nu / 8 pi) (U^m - U^-m),
    Q = (i/n) sqrt(nu / 8 pi) (V^n - V^-n).
    Returns (P, Q).
    """
    if m < 1 or n < 1:
        raise ValueError("quadrature orders m, n must be >= 1")
    scale = math.sqrt(pair.nu / (8.0 * math.pi))
    p_op = LinCombOperator(
        [(1j * scale / m, pair.power_op(k=m)), (-1j * scale / m, pair.power_op(k=-m))]
    )
    q_op = LinCombOperator(
        [(1j * scale / n, pair.power_op(l=n)), (-1j * scale / n, pair.power_op(l=-n))]
    )
    return p_op, q_op


@dataclass(frozen=True)
class CcrDefect:
    """Relative defect norms of the two CCR surrogates on a given vector."""

    quadrature: float
    group: float


def ccr_defect(pair: WeylPair, m: int, n: int, xi: StateVector | Window) -> CcrDefect:
    """Measure ||([Q, P] - i) xi|| / ||xi|| for both CCR surrogates.

    quadrature: commutator of the Hermitian quadrature pair;
    group: (nu / 2 pi m n) [U^m, V^n] acting as the approximate i.
    xi is a StateVector or a Window with n zero amplitudes at each end (V^n
    moves an index by n); the check runs on the window alone.
    """
    win = Window.of(xi)
    win.require_margin(n)
    norm = win.norm()
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("need a nonzero finite-norm vector")
    x = win.components
    out, w1, w2 = np.empty((3, x.shape[0]), dtype=np.complex128)
    p_op, q_op = (win.compress(op) for op in quadrature_ops(pair, m, n))
    _bracket_into(q_op, p_op, x, -1, out, w1, w2)
    quad = residual_norm(np.subtract(out, np.multiply(1j, x, out=w1), out=out), win.dim, win.start)
    # the quadratures' first terms are U^m and V^n, already compressed
    u_m, v_n = p_op.terms[0][1], q_op.terms[0][1]
    _bracket_into(u_m, v_n, x, -1, out, w1, w2)
    np.multiply(pair.nu / (2.0 * math.pi * m * n), out, out=w2)
    group = residual_norm(np.subtract(w2, np.multiply(1j, x, out=w1), out=out), win.dim, win.start)
    return CcrDefect(quad / norm, group / norm)


def commutator_factorization_residual(pair: WeylPair, m: int, n: int, xi: StateVector) -> float:
    """|| [U^m, V^n] xi - (exp(2 pi i m n / nu) - 1) V^n U^m xi ||.

    This factorization is exact at every dimension, so the residual is
    pure floating-point noise.  It runs tile by tile
    (linalg.tiled_residual_norm): V^n moves an index by n, so each tile
    carries n amplitudes of xi past each end, and U^m, V^n and V^n U^m
    apply in compressed form, their phases read from nu's clock table, held
    as a full apply holds it (the sweep has built it already).  The figure
    is the full vector's, bitwise, and beyond xi and the table the check
    holds O(tile) memory.
    """
    x = _components(xi, pair.nu)
    _clock_table(pair.nu)
    u_m, v_n = pair.power_op(k=m), pair.power_op(l=n)
    vu = v_n.compose(u_m)
    factor = np.exp(2j * np.pi * ((m * n) % pair.nu) / pair.nu) - 1.0

    def residual(win, out, w1, w2):
        y = win.components
        _bracket_into(win.compress(u_m), win.compress(v_n), y, -1, out, w1, w2)
        rhs = np.multiply(factor, win.compress(vu)._apply_array(y, w1), out=w2)
        return np.subtract(out, rhs, out=out)

    return tiled_residual_norm(x, min(v_n.l, pair.nu - v_n.l), residual)


def _moved(op, win) -> float:
    """||A x - x|| for the vector x of a linalg.Window and a group element A.

    A window over the whole cycle is checked tile by tile, on the clock
    table _weyl_checks holds, a shorter one through one fresh vector.
    """

    def residual(w, out, *_):
        y = w.components
        return np.subtract(w.compress(op)._apply_array(y, out), y, out=out)

    x = win.components
    if x.shape[0] < win.dim:
        return residual_norm(residual(win, np.empty_like(x)), win.dim, win.start)
    return tiled_residual_norm(x, min(op.l, op.dim - op.l), residual)


def _weyl_relation(pair, rng, buf) -> float:
    """max over three random xi, drawn into buf, of ||U V xi - omega V U xi||, tiled (V reaches one index)."""
    omega = np.exp(2j * np.pi / pair.nu)

    def residual(win, lhs, w, rhs):
        x, u, v = win.components, win.compress(pair.U), win.compress(pair.V)
        u._apply_array(v._apply_array(x, w), lhs)
        v._apply_array(u._apply_array(x, w), rhs)
        return np.subtract(lhs, np.multiply(omega, rhs, out=w), out=lhs)

    worst = 0.0
    for _ in range(3):
        worst = max(worst, tiled_residual_norm(random_state(pair.nu, rng, buf).components, 1, residual))
    return worst


def _clock_shift_period(pair, rng, buf) -> float:
    """max ||g xi - xi|| over U^nu and V^nu, one random xi in buf, one tiled pass per distinct element.

    Both powers reduce to the identity element (0, 0, 0), and equal frozen
    elements make one set entry, so the drawn vector is read once.
    """
    xi = Window.of(random_state(pair.nu, rng, buf))
    return max(_moved(g, xi) for g in {pair.power_op(k=pair.nu), pair.power_op(l=pair.nu)})


def _weyl_checks(cfg, rng, pair, nu):
    """The sweep's battery at one grid point; its clock table and draw buffer go when it ends."""
    try:
        # the grid point's one clock table, read by its tiles, and its one
        # draw buffer, built before the first draw; each draw is consumed
        # before the next is drawn over it
        _clock_table(nu)
        buf = np.empty(nu, dtype=np.complex128)
        mu = default_window(nu)
        yield {}, "weyl-relation", _weyl_relation(pair, rng, buf), cfg.tol_exact

        yield {}, "clock-shift-period", _clock_shift_period(pair, rng, buf), cfg.tol_exact

        for m, n in ((1, 1), (2, 3)):
            res = commutator_factorization_residual(pair, m, n, random_state(nu, rng, buf))
            yield {"m": m, "n": n}, "commutator-factorization", res, cfg.tol_exact

        for l in range(3):
            if (l + 1) * mu > nu:
                continue
            params = {"mu": mu, "l": l}
            window = plateau_window(pair, l, mu)
            shift_defect = _moved(pair.V, window)
            # a window that fills the whole cycle (nu = 1) is V-invariant
            exact = math.sqrt(2.0 / mu) if mu < nu else 0.0
            yield params, "plateau-shift-exact", abs(shift_defect - exact), cfg.tol_exact
            clock_defect = _moved(pair.U, window)
            yield params, "plateau-clock-bound", clock_defect, 2.0 * math.pi * (l + 1) * mu / nu
            defects = ccr_defect(pair, 1, 1, window)
            yield params, "group-ccr-defect", defects.group, None
            if l == 0:
                yield params, "quadrature-ccr-defect", defects.quadrature, None

        if nu <= 64:
            worst = 0.0
            for _ in range(100):
                g = pair.power_op(*rng.integers(0, nu, 3))
                h = pair.power_op(*rng.integers(0, nu, 3))
                x = random_state(nu, rng, buf).components
                lhs = g._apply_array(h._apply_array(x))
                worst = max(worst, residual_norm(np.subtract(lhs, g.compose(h)._apply_array(x), out=lhs)))
            yield {}, "heisenberg-homomorphism", worst, cfg.tol_exact
    finally:
        _CLOCK_TABLES.clear()
