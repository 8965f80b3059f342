"""Angular-momentum ladder representation of the CCR and spin coherent states.

The (p+1)-dimensional irreducible so(3) representation is built from the
lowering-operator matrix elements <j,m-1| J- |j,m> = sqrt((j+m)(j-m+1)) with
j = p/2.  Basis ordering puts the highest weight first: index k holds the
J3 eigenvector with eigenvalue j - k.

Q = J1 / sqrt(j) and P = J2 / sqrt(j) satisfy [Q, P] = i J3 / j, so on the
k-th weight state the CCR defect ||([Q,P] - i)|k>|| equals k/j exactly.
make_spin_rep forms no arrays: _generators forms the generators' diagonals
on a window of weights, for the full space on first use of SpinRep.J1 and
its siblings, and for a check's window or tile otherwise.  A check scales J1
and J2 into Q and P, and the residuals apply them into three work vectors
(the linalg buffer form), raising ValueError on a non-finite residual norm.

Sign conventions (both verified exactly by the test suite):

* J2 = i (J- - J-^dag) / 2, the form consistent with J- = J1 - i J2 and
  [J1, J2] = i J3.
* Rotation covariance reads e^{-i t J3} Q e^{+i t J3} = Q cos t + P sin t,
  which is the ordering implied by [J3, J1] = i J2; writing the conjugation
  with the opposite exponent signs amounts to flipping J3 or t.

The convergence checks run on their support.  weight_state_ccr_defect runs
on the weights k - 2..k + 2, bitwise equal to the full vector's figure,
and coherent_limit_error forms only the kmax + 1 amplitudes it reads, in
stdlib math (coherent_head_error), so both cost O(1) in p.  The sweep
measures them at fixed constants, the weights k = 0..3 (capped at p) and
the coherent amplitude z = 1.0, as weyl fixes its (m, n) pairs.

A library that only some functions need is imported in their bodies, not
by the module; the package holds to this rule throughout.  Here scipy:
coherent_amplitudes loads scipy.special on its first call and
rotation_operator loads scipy.linalg, so importing ccrlab or running any
sweep does not pay for scipy.  parafermi's vector oracles import numpy the
same way, so an exact parafermi sweep loads no numpy either.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    BandedOperator,
    DenseOperator,
    LinCombOperator,
    StateVector,
    _bracket_into,
    random_state,
    residual_norm,
    tiled_residual_norm,
)
from .pauli import DEFAULT_SITE_CAP, TOL_EXACT, TOL_RELATION, require_dim

COVARIANCE_SEED = 0x5EED


def _generators(p: int, lo: int, hi: int) -> tuple:
    """(J1, J2, J3, J-) on the weights lo..hi - 1, as banded operators on C^(hi - lo).

    The compression P J P to the window [lo, hi) of each generator of the
    order-p irrep.  Each entry is formed from its own k alone, by
    sqrt((p - k)(k + 1.0)) for <k+1| J- |k>, halved for J1 and times +-i
    for J2, and j - k for J3, so a window's entries are the full
    operators' bitwise.  The halves are real products, set into zeroed
    complex arrays: the same bits, signed zeros included, as the complex
    quotients lowering / 2 and +-1j * lowering / 2, without complex division.
    """
    n = hi - lo
    j3 = BandedOperator(n, [(0, (p / 2.0 - np.arange(lo, hi)).astype(np.complex128))])
    k = np.arange(lo, hi - 1, dtype=np.float64)
    h = np.sqrt((p - k) * (k + 1.0))
    lowering = h.astype(np.complex128)  # J- |k> -> |k+1>
    h *= 0.5
    half = h.astype(np.complex128)  # J1 is symmetric: its two diagonals share one array
    up, down = np.zeros_like(half), np.zeros_like(half)
    up.imag = h
    np.negative(h, out=down.imag)
    j1 = BandedOperator(n, [(1, half), (-1, half)])
    j2 = BandedOperator(n, [(1, up), (-1, down)])
    return j1, j2, j3, BandedOperator(n, [(1, lowering)])


@dataclass(frozen=True)
class SpinRep:
    """The (p+1)-dimensional so(3) irrep, j = p/2, and its ladder operators.

    J1, J2, J3 and Jminus are formed on the full space on first use (by
    covariance_defect, the dense cross-checks, tests and demos), so a rep
    read only on windows and tiles holds no array.  qp_from_spin scales J1
    and J2 into the Hermitian CCR pair Q = J1 / sqrt(j), P = J2 / sqrt(j).
    """

    p: int
    j: float

    @functools.cached_property
    def _full(self) -> tuple:
        return _generators(self.p, 0, self.p + 1)

    J1 = property(lambda self: self._full[0])
    J2 = property(lambda self: self._full[1])
    J3 = property(lambda self: self._full[2])
    Jminus = property(lambda self: self._full[3])


def make_spin_rep(p: int, site_cap: int = DEFAULT_SITE_CAP) -> SpinRep:
    if p < 1:
        raise ValueError("p must be a positive integer")
    require_dim(p + 1, site_cap)
    return SpinRep(p, p / 2.0)


def weight_state(rep: SpinRep, k: int) -> StateVector:
    """The J3 eigenvector with eigenvalue j - k."""
    if not 0 <= k <= rep.p:
        raise ValueError(f"k={k} outside 0..{rep.p}")
    return StateVector.basis(rep.p + 1, k)


def _over_sqrt_j(j: float, j1: BandedOperator, j2: BandedOperator):
    """(j1 / sqrt(j), j2 / sqrt(j)), each diagonal scaled by the one factor 1/sqrt(j)."""
    s = 1.0 / math.sqrt(j)
    return tuple(BandedOperator(op.dim, [(o, s * v) for o, v in op.diags]) for op in (j1, j2))


def qp_from_spin(rep: SpinRep):
    """Hermitian pair Q = J1/sqrt(j), P = J2/sqrt(j) on the full space."""
    return _over_sqrt_j(rep.j, rep.J1, rep.J2)


def weight_state_ccr_defect(rep: SpinRep, k: int) -> float:
    """||([Q, P] - i) |k>||, which equals k/j exactly at every p.

    Q and P are tridiagonal, so the residual lives on the weights k - 2..k + 2
    and the check runs on that window alone, scaling the window's J1 and J2
    (_generators) and summing the norm as the full vector's (vector_norm).
    """
    if not 0 <= k <= rep.p:
        raise ValueError(f"k={k} outside 0..{rep.p}")
    lo, hi = max(0, k - 2), min(rep.p + 1, k + 3)
    x = np.zeros(hi - lo, dtype=np.complex128)
    x[k - lo] = 1.0
    out, w1, w2 = np.empty((3, hi - lo), dtype=np.complex128)
    q, pp = _over_sqrt_j(rep.j, *_generators(rep.p, lo, hi)[:2])
    _bracket_into(q, pp, x, -1, out, w1, w2)
    return residual_norm(np.subtract(out, np.multiply(1j, x, out=w1), out=out), rep.p + 1, lo)


def rotation_about_axis3(rep: SpinRep, theta: float) -> BandedOperator:
    """exp(i theta J3), diagonal and exact."""
    m = rep.j - np.arange(rep.p + 1)
    return BandedOperator(rep.p + 1, [(0, np.exp(1j * theta * m))])


def covariance_defect(rep: SpinRep, theta: float, n_vectors: int = 10, rng=None) -> float:
    """Max over random unit vectors of the rotation-covariance residual.

    Measures ||(e^{-i theta J3} Q e^{i theta J3} - Q cos theta - P sin theta) xi||;
    the identity is exact at every finite p, not just asymptotically.
    """
    if rng is None:
        rng = np.random.default_rng(COVARIANCE_SEED)
    fwd = rotation_about_axis3(rep, theta)
    bwd = rotation_about_axis3(rep, -theta)
    q, pp = qp_from_spin(rep)
    rotated = LinCombOperator([(math.cos(theta), q), (math.sin(theta), pp)])
    out, w1, w2 = np.empty((3, rep.p + 1), dtype=np.complex128)
    worst = 0.0
    for _ in range(n_vectors):
        x = random_state(rep.p + 1, rng).components
        bwd._apply_array(q._apply_array(fwd._apply_array(x, w1), w2), out)
        worst = max(worst, residual_norm(np.subtract(out, rotated._apply_array(x, w1), out=out)))
    return worst


@dataclass(frozen=True)
class SpinCoherentParams:
    """Stereographic parameter mu_c = e^{i phi} tan(theta/2) and z = mu_c sqrt(2j)."""

    theta: float
    phi: float
    mu_c: complex
    z: complex

    @classmethod
    def from_angles(cls, theta: float, phi: float, j: float) -> "SpinCoherentParams":
        if not 0.0 <= theta < math.pi:
            raise ValueError("theta must lie in [0, pi); theta = pi has no finite parameter")
        mu_c = cmath.exp(1j * phi) * math.tan(theta / 2.0)
        return cls(theta, phi, mu_c, mu_c * math.sqrt(2.0 * j))

    @classmethod
    def from_z(cls, z: complex, j: float) -> "SpinCoherentParams":
        mu_c = z / math.sqrt(2.0 * j)
        theta = 2.0 * math.atan(abs(mu_c))
        phi = cmath.phase(mu_c) % (2.0 * math.pi) if mu_c != 0 else 0.0
        return cls(theta, phi, mu_c, complex(z))


def coherent_amplitudes(rep: SpinRep, theta: float, phi: float) -> np.ndarray:
    """Weight-basis amplitudes (1+|mu|^2)^{-j} binom(2j,k)^{1/2} mu^k.

    Magnitudes are assembled in the log domain so that no intermediate
    binomial coefficient overflows, with the phase e^{i k phi} kept apart.
    """
    from scipy.special import gammaln

    params = SpinCoherentParams.from_angles(theta, phi, rep.j)
    p = rep.p
    t = abs(params.mu_c)
    k = np.arange(p + 1, dtype=np.float64)
    if t == 0.0:
        amps = np.zeros(p + 1, dtype=np.complex128)
        amps[0] = 1.0
        return amps
    log_binom = gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1)
    log_mag = 0.5 * log_binom + k * math.log(t) - rep.j * math.log1p(t * t)
    return np.exp(log_mag) * np.exp(1j * k * params.phi)


def spin_coherent(rep: SpinRep, theta: float, phi: float) -> StateVector:
    """Unit-norm rotation of the highest-weight state by (theta, phi)."""
    return StateVector(rep.p + 1, coherent_amplitudes(rep, theta, phi))


def rotation_operator(rep: SpinRep, theta: float, phi: float) -> DenseOperator:
    """Dense exp(i theta (J1 sin phi - J2 cos phi)); cross-check use, small p only."""
    from scipy.linalg import expm

    gen = math.sin(phi) * rep.J1.dense() - math.cos(phi) * rep.J2.dense()
    return DenseOperator(expm(1j * theta * gen))


def _nilpotent_exp(mat: np.ndarray, order: int) -> np.ndarray:
    out = np.eye(mat.shape[0], dtype=np.complex128)
    term = np.eye(mat.shape[0], dtype=np.complex128)
    for n in range(1, order + 1):
        term = term @ mat / n
        out = out + term
    return out


def rotation_product_form(rep: SpinRep, theta: float, phi: float) -> DenseOperator:
    """Disentangled product e^{mu J-} e^{-log(1+|mu|^2) J3} e^{-mu* J-^dag}.

    The J- exponentials are finite series (J- is nilpotent at finite p);
    intended as an independent cross-check at small p.
    """
    params = SpinCoherentParams.from_angles(theta, phi, rep.j)
    jm = rep.Jminus.dense()
    left = _nilpotent_exp(params.mu_c * jm, rep.p)
    middle = np.diag(
        np.exp(-math.log1p(abs(params.mu_c) ** 2) * (rep.j - np.arange(rep.p + 1)))
    ).astype(np.complex128)
    right = _nilpotent_exp(-np.conj(params.mu_c) * jm.conj().T, rep.p)
    return DenseOperator(left @ middle @ right)


def _bose_log_magnitude(r: float, k: int) -> float:
    """log(e^{-r^2/2} r^k / sqrt(k!)) for r > 0."""
    return -r * r / 2.0 + k * math.log(r) - 0.5 * math.lgamma(k + 1)


def bose_coherent_amplitude(z: complex, k: int) -> complex:
    """e^{-|z|^2/2} z^k / sqrt(k!), the harmonic-oscillator coherent amplitude."""
    if z == 0:
        return 1.0 + 0j if k == 0 else 0j
    return math.exp(_bose_log_magnitude(abs(z), k)) * cmath.exp(1j * k * cmath.phase(z))


def _x_minus_log1p(x: float) -> float:
    """x - log1p(x) for x >= 0; below 1/2, where the difference cancels, by its series.

    x - log1p(x) = sum_{n >= 2} (-1)^n x^n / n, summed exactly by fsum up to
    the first term under 2**-60 times the leading one.
    """
    if x >= 0.5:
        return x - math.log1p(x)
    if x == 0.0:
        return 0.0
    terms = math.ceil(60.0 / -math.log2(x)) + 1
    return math.fsum((-1) ** n * x**n / n for n in range(2, terms + 2))


def coherent_head_error(p: int, z: complex, kmax: int) -> np.ndarray:
    """coherent_limit_error at order p for k = 0..kmax, in O(kmax) stdlib arithmetic.

    With x = |z|^2 / p the spin amplitude of weight k is the Bose amplitude
    b_k times e^{delta_k}, delta_k = 1/2 sum_{i<k} log1p(-i/p) + (p/2)(x - log1p x),
    and both carry the phase e^{i k arg z}.  So the error is
    |b_k| |expm1(delta_k)|, taken as e^{max log magnitude} (1 - e^{-|delta_k|})
    so that neither factor overflows.  Unlike a difference of log-gammas
    at p, nothing here cancels: the result is accurate to a few ulps at any p.
    """
    if kmax > p:
        raise ValueError(f"kmax={kmax} exceeds p={p}")
    r = abs(z)
    if r == 0.0:
        return np.zeros(kmax + 1)  # both states are the k = 0 basis vector
    tail = 0.5 * p * _x_minus_log1p(r * r / p)
    errors, head = [], 0.0  # head = sum_{i<k} log1p(-i/p)
    for k in range(kmax + 1):
        if k:
            head += math.log1p(-(k - 1) / p)
        delta = 0.5 * head + tail
        log_bose = _bose_log_magnitude(r, k)
        errors.append(math.exp(max(log_bose, log_bose + delta)) * -math.expm1(-abs(delta)))
    return np.array(errors)


def coherent_limit_error(rep: SpinRep, z: complex, kmax: int) -> np.ndarray:
    """|<k-th weight | theta,phi> - e^{-|z|^2/2} z^k / sqrt(k!)| for k = 0..kmax.

    The sqrt(k!) normalization is the one the amplitudes actually converge
    to; see the convention notes in the sweep report.  Only the kmax + 1
    amplitudes read are formed, by coherent_head_error.
    """
    return coherent_head_error(rep.p, z, kmax)


# Rounding bound of so3-closure for a unit xi, u = 2**-53.  |J_a| taken
# entrywise has norm j, so a banded apply of J_a errs by at most 5.5 u j ||x||:
# (2 sqrt 2 + 1) u from one complex product and one sum per entry, and under
# 1.5 u from the stored sqrt((p - k)(k + 1)).  J_a J_b xi then errs by 11 u j^2
# and the commutator by 22 u j^2; its subtraction adds u ||J_c xi|| <= u j and
# J_c xi 2 sqrt 2 u j, while the factor i is exact and the last subtraction
# second order.  That is under (22 j^2 + 4 j) u <= 30 u j^2 at j >= 1/2, and
# 32 covers the second-order terms.  The check runs tile by tile, and a tile
# gives each kept entry the same operations as the full vector, so the model
# is unchanged.
SO3_ROUNDING = 32 * 2.0**-53


def _so3_closure(rep, rng):
    """max over the cyclic (a, b, c) of ||[J_a, J_b] xi - i J_c xi||, one random xi each.

    Each runs tile by tile (linalg.tiled_residual_norm): a bracket of the
    tridiagonal J's reaches two weights, and each tile forms the generators
    on its own window (_generators), so no array of length p + 1 is formed
    but one buffer that the three xi are drawn into in turn
    (linalg.random_state(out=)); fresh draws would stay on the allocator's
    heap after the grid point.
    """

    def residual(triple, win, out, w1, w2):
        x = win.components
        gens = _generators(rep.p, win.start, win.start + x.shape[0])
        ja, jb, jc = (gens[i] for i in triple)
        _bracket_into(ja, jb, x, -1, out, w1, w2)
        rhs = np.multiply(1j, jc._apply_array(x, w1), out=w2)
        return np.subtract(out, rhs, out=out)

    worst, buf = 0.0, np.empty(rep.p + 1, dtype=np.complex128)
    for triple in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        x = random_state(rep.p + 1, rng, buf).components
        tiles = functools.partial(residual, triple)
        worst = max(worst, tiled_residual_norm(x, 2, tiles, cyclic=False))
    return worst


def _spin_checks(rng, rep):
    """The sweep's battery at one grid point, in the order it draws from rng."""
    worst = _so3_closure(rep, rng)
    yield {}, "so3-closure", worst, max(TOL_RELATION, SO3_ROUNDING * rep.j**2)

    kmax = min(3, rep.p)  # the lowest weights k = 0..3 that the order has
    for k in range(kmax + 1):
        measured = weight_state_ccr_defect(rep, k)
        yield {"k": k}, "ccr-weight-exactness", abs(measured - k / rep.j), TOL_EXACT
        yield {"k": k}, "ccr-weight-defect", measured, None

    if rep.p <= 200:
        worst = max(
            covariance_defect(rep, theta, n_vectors=4, rng=rng)
            for theta in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        )
        yield {}, "rotation-covariance", worst, TOL_RELATION

    for k, err in enumerate(coherent_limit_error(rep, 1.0, kmax)):
        yield {"z": 1.0, "k": k}, "coherent-overlap-error", err, None
