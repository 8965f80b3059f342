"""Shared linear-algebra substrate: state vectors, operator realizations, norms.

Conventions fixed once, used by every module built on top of this one:

* Multi-site spaces have dimension 2**M.  Basis index n encodes site k
  (1-based) in bit k-1, little endian, so site 1 is the fastest-varying bit.
* On a single site, component 0 is the sigma3 = +1 state.  The occupation
  projector (1 + sigma3)/2 counts sites whose bit is 0, so the fully
  unoccupied product state is the basis vector with every bit set.
* Dense matrices are only materialized below DENSIFICATION_CAP; larger
  operators stay matrix free, a clock/shift operator as three integers.

Norms follow the normalized-trace scale: tau(A) = (1/dim) sum_i A_ii,
hs_norm(A) = sqrt(tau(A^dag A)), operator_norm(A) = largest singular value.

Two representations of a sum of Pauli strings share these conventions.
PauliTerms, the expansion over the Hermitian Pauli basis and the form the
families are built in, multiplies exactly, so identities between string
sums are checked as operator equations at any register size; it lives in
the numpy-free ccrlab.pauli, with the budget checks.  Its vector view
PauliSumOperator.from_terms applies to state vectors.

Buffer form: every _apply_array(x, out=None) writes A x into a caller-owned
contiguous vector out (fresh when None) that must not alias x, and returns
it.  Residuals chain applies through a few work vectors, subtract in place
and check finiteness once, in residual_norm; only public functions wrap
arrays in StateVectors.  A scalar stays the left operand,
np.multiply(c, y, out=w): numpy's SIMD complex multiply is not bitwise
symmetric, and c * y is the product the records hold.  Residuals write it
into a free vector w, since numpy multiplies a length-1 vector in place
through a scalar loop; LinCombOperator, with none free, scales in place.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy 2 loads it on first use; a sweep's time is then only its checks

from .pauli import PauliTerms, _finite

DENSIFICATION_CAP = 4096

# einsum chunks per tile of a full-vector check: 8192 amplitudes, so the
# tile's work vectors and operator diagonals, about ten of 128 KiB, stay in
# a 2 MiB L2 cache (4 chunks ran no faster on all-large-dim)
TILE_CHUNKS = 2

POWER_TOL = 1e-10
POWER_MAX_ITER = 10000
POWER_SEED = 0x5EED

PAULI_LABELS = ("X", "Y", "Z", "+", "-", "N")

# single-site matrices in the (sigma3=+1, sigma3=-1) component order
SINGLE_SITE = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "+": np.array([[0, 1], [0, 0]], dtype=np.complex128),
    "-": np.array([[0, 0], [1, 0]], dtype=np.complex128),
    "N": np.array([[1, 0], [0, 0]], dtype=np.complex128),
}

_ADJOINT_LABEL = {"X": "X", "Y": "Y", "Z": "Z", "+": "-", "-": "+", "N": "N"}

# single-site label -> ((x bit, z bit, coeff), ...) over the Hermitian Pauli
# basis: + = (X + iY)/2, - = (X - iY)/2, N = (1 + Z)/2
_SITE_TERMS = {
    "X": ((1, 0, 1),),
    "Y": ((1, 1, 1),),
    "Z": ((0, 1, 1),),
    "+": ((1, 0, 0.5), (1, 1, 0.5j)),
    "-": ((1, 0, 0.5), (1, 1, -0.5j)),
    "N": ((0, 0, 0.5), (0, 1, 0.5)),
}
_BITS_LABEL = {(1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


class DimensionMismatchError(ValueError):
    """Operator and vector (or two operators) live on different dimensions."""


class ConvergenceError(RuntimeError):
    """An iterative estimate did not reach the requested tolerance."""


def _tile() -> int:
    """Amplitudes per tile: TILE_CHUNKS einsum chunks of np.getbufsize() // 2."""
    return TILE_CHUNKS * (np.getbufsize() // 2)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _sum_of_squares(chunks) -> float:
    """sum |v_i|**2 over a vector given as its einsum chunks, in order.

    einsum sums a long vector in chunks of np.getbufsize() doubles (4096
    amplitudes by default) and adds each chunk's sum to one running total
    in chunk order.  Each chunk here goes through the same einsum and is
    added in the same order, so the total is the whole vector's, bitwise.
    """
    total = 0.0
    for seg in chunks:
        f = seg.view(np.float64)
        total += float(np.einsum("i,i->", f, f))
    return total


def vector_norm(v: np.ndarray, dim: int | None = None, start: int = 0) -> float:
    """Euclidean norm of a complex vector, summed without BLAS.

    np.linalg.norm calls BLAS ddot, whose rounding depends on the BLAS
    thread count and whose worker threads keep spinning after the call;
    einsum sums the squares of the real and imaginary parts in its own
    single-threaded loop, so the result is the same on every host setting.

    With dim, v is a window: the amplitudes at indices (start + i) % dim of
    a vector of dim amplitudes that is zero elsewhere, and the result is
    that vector's norm, bitwise.  Each einsum chunk the window touches is
    rebuilt whole, zero-filled outside the window, and summed in chunk
    order (_sum_of_squares); the other chunks add exact zeros.  Summing the
    window as one array changes the last bits when it straddles a chunk
    boundary or sits at another offset in its chunk.
    """
    x = np.ascontiguousarray(v, dtype=np.complex128)
    n = x.shape[0]
    if dim is None or (n == dim and start == 0):
        f = x.view(np.float64)
        return math.sqrt(float(np.einsum("i,i->", f, f)))
    chunk = np.getbufsize() // 2
    first = min(n, dim - start)  # amplitudes before the window wraps to index 0
    # (global begin, global end, global index minus window index) of each run
    runs = ((start, start + first, start), (0, n - first, start - dim))
    chunks = set(range(start // chunk, (start + first - 1) // chunk + 1))
    chunks.update(range((n - first - 1) // chunk + 1))
    part = np.empty(min(chunk, dim), dtype=np.complex128)

    def rebuilt():
        for c in sorted(chunks):
            lo, hi = c * chunk, min((c + 1) * chunk, dim)
            seg = part[: hi - lo]
            seg.fill(0)
            for begin, end, shift in runs:
                a, b = max(lo, begin), min(hi, end)
                if a < b:
                    seg[a - lo : b - lo] = x[a - shift : b - shift]
            yield seg

    return math.sqrt(_sum_of_squares(rebuilt()))


def residual_norm(v: np.ndarray, dim: int | None = None, start: int = 0) -> float:
    """vector_norm of a residual; a non-finite one raises ValueError."""
    return _finite(vector_norm(v, dim, start), "residual norm")


def tiled_residual_norm(x: np.ndarray, reach: int, residual, cyclic: bool = True) -> float:
    """residual_norm of r = R x, formed tile by tile; R moves an index by at most reach.

    Tiles are TILE_CHUNKS einsum chunks of r.  Tile [c0, c1) is computed on
    the window of x at indices c0 - reach .. c1 + reach - 1, taken mod dim
    when cyclic and cut at the vector's ends otherwise:
    residual(win, out, w1, w2) writes R x at win's indices into one of
    three work vectors of win's length, from win's amplitudes alone (through
    win.compress, say), and returns it.  Rows within reach of a window end
    inside the vector read amplitudes past it and are dropped.  Every other
    row is formed by the same operations as on the full vector, the rule of
    LinearOperator.compressed, and the kept rows' chunks are summed in chunk
    order (_sum_of_squares): the figure is the full vector's, bitwise.

    Beyond x this holds O(tile) memory: every window is a view of x, except
    that a cyclic window across index 0 or dim is copied.  A vector no
    longer than one tile and two reaches is one window, x itself.  A
    non-finite norm raises ValueError.
    """
    dim = x.shape[0]
    chunk = np.getbufsize() // 2
    tile = _tile()
    if dim <= tile + 2 * reach:
        tile = dim
    work = np.empty((3, min(dim, tile + 2 * reach)), dtype=np.complex128)

    def chunks():
        for c0 in range(0, dim, tile):
            c1 = min(c0 + tile, dim)
            lo, hi = c0 - reach, c1 + reach
            if not cyclic or tile == dim:
                lo, hi = max(lo, 0), min(hi, dim)
            if lo < 0:
                comps = np.concatenate((x[lo:], x[:hi]))
            elif hi > dim:
                comps = np.concatenate((x[lo:], x[: hi - dim]))
            else:
                comps = x[lo:hi]
            kept = residual(Window(dim, lo % dim, comps), *work[:, : hi - lo])[c0 - lo : c1 - lo]
            for a in range(0, c1 - c0, chunk):
                yield kept[a : a + chunk]

    return _finite(math.sqrt(_sum_of_squares(chunks())), "residual norm")


@dataclass(frozen=True)
class StateVector:
    """Complex vector with its Hilbert-space dimension carried explicitly."""

    dim: int
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=np.complex128)
        if comps.shape != (self.dim,):
            raise ValueError(f"expected {self.dim} components, got shape {comps.shape}")
        # contiguous before the float view, which a strided array refuses;
        # then one tile's mask at a time, so the check allocates O(tile) bools
        comps = np.ascontiguousarray(comps)
        floats, step = comps.view(np.float64), 2 * _tile()
        if not all(np.isfinite(floats[lo : lo + step]).all() for lo in range(0, 2 * self.dim, step)):
            raise ValueError("components must be finite")
        object.__setattr__(self, "components", _freeze(comps))

    @classmethod
    def basis(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for dim {dim}")
        comps = np.zeros(dim, dtype=np.complex128)
        comps[index] = 1.0
        return cls(dim, comps)

    def norm(self) -> float:
        return vector_norm(self.components)

    def inner(self, other: "StateVector") -> complex:
        """<self|other> with the left argument conjugated."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.components, other.components))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.dim, self.components / n)

    def tensor(self, other: "StateVector") -> "StateVector":
        """Product state; self occupies the slow bits, other the fast bits."""
        return StateVector(self.dim * other.dim, np.kron(self.components, other.components))

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return StateVector(self.dim, self.components + other.components)

    def __sub__(self, other: "StateVector") -> "StateVector":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return StateVector(self.dim, self.components - other.components)

    def __rmul__(self, scalar) -> "StateVector":
        return StateVector(self.dim, scalar * self.components)

    def __neg__(self) -> "StateVector":
        return StateVector(self.dim, -self.components)


def seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default Generator on seed: the one stream a sweep's checks draw from."""
    return np.random.default_rng(seed)


def random_state(dim: int, rng: np.random.Generator, out: np.ndarray | None = None) -> StateVector:
    """A unit vector of C^dim with Gaussian amplitudes, drawn from rng.

    With out, a writable contiguous complex128 vector of dim amplitudes (else
    ValueError), the same stream is drawn into out and the components are a
    read-only view of it, valid until out is drawn into again.  A sweep's
    grid point draws all its vectors into one: once glibc has freed a large
    draw, it serves fresh ones from its brk heap, which it keeps.
    """
    # the dim real draws, then the dim imaginary ones, as a + 1j * b made
    # them, drawn a tile at a time into one buffer and written straight into
    # their slots of the complex array: a Generator's normal draws keep no
    # state between calls, so the stream is the one-call stream
    if out is None:
        out = np.empty(dim, dtype=np.complex128)
    elif out.shape != (dim,) or out.dtype != np.complex128 or not out.flags.carray:  # contiguous and writable
        raise ValueError(f"out must be a writable contiguous complex128 vector of {dim} amplitudes")
    comps = out.view()  # StateVector freezes this view; out stays writable
    floats = comps.view(np.float64)
    step = _tile()
    buf = np.empty(min(dim, step))
    for part in (0, 1):
        for lo in range(0, dim, step):
            hi = min(lo + step, dim)
            floats[2 * lo + part : 2 * hi : 2] = rng.standard_normal(hi - lo, out=buf[: hi - lo])
    # numpy divides complex by real as a multiply by 1/n, so one reciprocal
    # times the float view is bitwise the same at a sixth of the cost
    np.multiply(1.0 / vector_norm(comps), floats, out=floats)
    return StateVector(dim, comps)


@dataclass(frozen=True)
class Window:
    """The vector of C^dim holding components at indices (start + i) % dim, zero elsewhere.

    A check whose operators move a vector's support by at most `reach`
    indices runs on a window that extends `reach` zero amplitudes past the
    support at each end: operators apply as compress(op) and norms are
    vector_norm(v, dim, start), so every figure equals the full vector's
    bitwise at the cost of the window's length.  A window covering C^dim
    starts at 0 and is the vector itself.
    """

    dim: int
    start: int
    components: np.ndarray

    def __post_init__(self):
        n = self.components.shape[0]
        if not (0 <= self.start < self.dim and 1 <= n <= self.dim) or (n == self.dim and self.start):
            raise ValueError(f"window of {n} from {self.start} does not fit dim {self.dim}")

    @classmethod
    def of(cls, xi: "StateVector | Window") -> "Window":
        """xi itself if a Window; a StateVector as the window over all of C^dim."""
        return xi if isinstance(xi, Window) else cls(xi.dim, 0, xi.components)

    def require_margin(self, reach: int) -> None:
        """Refuse a window without reach zero amplitudes at each end."""
        x, n = self.components, self.components.shape[0]
        if n < self.dim and (n <= 2 * reach or x[:reach].any() or x[n - reach :].any()):
            raise ValueError(f"window needs {reach} zero amplitudes at each end")

    def compress(self, op: "LinearOperator") -> "LinearOperator":
        if op.dim != self.dim:
            raise DimensionMismatchError(f"operator dim {op.dim}, window dim {self.dim}")
        return op.compressed(self.start, self.components.shape[0])

    def norm(self) -> float:
        return vector_norm(self.components, self.dim, self.start)


def _components(xi: StateVector, dim: int) -> np.ndarray:
    """xi's amplitudes, after checking that xi lives on dimension dim."""
    if xi.dim != dim:
        raise DimensionMismatchError(f"operator dim {dim}, vector dim {xi.dim}")
    return xi.components


class LinearOperator:
    """Base class; concrete realizations implement _apply_array and adjoint."""

    dim: int

    def apply(self, xi: StateVector) -> StateVector:
        return StateVector(self.dim, self._apply_array(_components(xi, self.dim)))

    def _apply_array(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self) -> "LinearOperator":
        raise NotImplementedError

    def compressed(self, start: int, n: int) -> "LinearOperator":
        """P A P on the n indices (start + i) % dim, as an operator on C^n.

        A itself when the indices cover C^dim from start 0.  On a vector
        that vanishes within A's reach of the window's ends, its apply forms
        each of the window's entries of A x by the same operations, in the
        same operand order, as the full apply, so bitwise equal to them.
        """
        if n >= self.dim:
            if n > self.dim or start % self.dim:
                raise ValueError(f"window of {n} from {start} does not tile dim {self.dim}")
            return self
        return self._compressed(start % self.dim, n)

    def _compressed(self, start: int, n: int) -> "LinearOperator":
        raise NotImplementedError

    def dense(self, cap: int = DENSIFICATION_CAP) -> np.ndarray:
        if self.dim > cap:
            raise ValueError(f"dim {self.dim} exceeds densification cap {cap}")
        return self._dense()

    def _dense(self) -> np.ndarray:
        raise NotImplementedError

    def normalized_trace(self) -> complex:
        raise NotImplementedError

    def hs_norm(self) -> float:
        # generic fallback through the dense form; realizations with an
        # analytic expression override this
        mat = self.dense()
        return float(np.linalg.norm(mat) / np.sqrt(self.dim))


class DenseOperator(LinearOperator):
    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
        self.matrix = _freeze(matrix)
        self.dim = matrix.shape[0]

    def _apply_array(self, x, out=None):
        return np.matmul(self.matrix, x, out=out)

    def adjoint(self):
        return DenseOperator(self.matrix.conj().T)

    def _dense(self):
        return self.matrix.copy()

    def normalized_trace(self):
        return complex(np.trace(self.matrix) / self.dim)

    def hs_norm(self):
        return float(np.linalg.norm(self.matrix) / np.sqrt(self.dim))


class BandedOperator(LinearOperator):
    """Matrix with a few (possibly off-center) diagonals and no wraparound.

    A diagonal (offset, values) holds A[c + offset, c] = values[i] for the
    valid columns c, listed in increasing column order.
    """

    def __init__(self, dim: int, diags):
        self.dim = dim
        cleaned = []
        for offset, values in diags:
            offset = int(offset)
            values = np.asarray(values, dtype=np.complex128)
            if abs(offset) >= dim:
                raise ValueError(f"offset {offset} out of range for dim {dim}")
            if values.shape != (dim - abs(offset),):
                raise ValueError(
                    f"diagonal at offset {offset} needs {dim - abs(offset)} values, "
                    f"got {values.shape}"
                )
            # a read-only diagonal (a run of the clock table, a broadcast
            # phase) stays the view it is, as a group element's products read it
            cleaned.append((offset, values if not values.flags.writeable else _freeze(values)))
        self.diags = tuple(sorted(cleaned, key=lambda d: d[0]))

    def _apply_array(self, x, out=None):
        # the first diagonal writes its products into out, zeroed only where
        # it does not reach; each later one adds its products through one
        # scratch vector, in the order of out += values * x[...]
        if out is None:
            out = np.empty(self.dim, dtype=np.complex128)
        if not self.diags:
            out.fill(0)
        scratch = np.empty(self.dim, dtype=np.complex128) if len(self.diags) > 1 else None
        for i, (offset, values) in enumerate(self.diags):
            n, lo = values.shape[0], max(offset, 0)
            src, dst = x[lo - offset : lo - offset + n], out[lo : lo + n]
            if i == 0:
                np.multiply(values, src, out=dst)
                out[:lo] = 0
                out[lo + n :] = 0
            else:
                np.add(dst, np.multiply(values, src, out=scratch[:n]), out=dst)
        return out

    def adjoint(self):
        return BandedOperator(self.dim, [(-o, np.conj(v)) for o, v in self.diags])

    def _compressed(self, start, n):
        # the window's column start + i, i >= max(0, -o), holds values[start + i - max(0, -o)]
        if start + n > self.dim:
            raise ValueError(f"window [{start}, {start + n}) wraps; a banded operator does not")
        return BandedOperator(n, [(o, v[start : start + n - abs(o)]) for o, v in self.diags if abs(o) < n])

    def _dense(self):
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for offset, values in self.diags:
            cols = np.arange(max(0, -offset), self.dim - max(0, offset))
            mat[cols + offset, cols] = values
        return mat

    def normalized_trace(self):
        for offset, values in self.diags:
            if offset == 0:
                return complex(values.sum() / self.dim)
        return 0j

    def hs_norm(self):
        total = sum(float(np.sum(np.abs(v) ** 2)) for _, v in self.diags)
        return float(np.sqrt(total / self.dim))


class PauliString:
    """A product of single-site factors on distinct sites, times a scalar.

    Site labels: X, Y, Z (Pauli), + and - (raising/lowering in the bit
    convention above), N (occupation projector).  Every factor sends a
    basis index m to m ^ flip with a factor that depends on m alone, so the
    string applies as one gather over the 2**M indices times its
    coefficient, the Y/Z bit parity of m and the keep mask of the + (bit
    one), - and N (bit zero) sites: the vector form of PauliTerms.act.
    """

    def __init__(self, coefficient, sites, n_sites: int):
        self.coefficient = complex(coefficient)
        self.n_sites = int(n_sites)
        sites = sorted((int(k), str(lab)) for k, lab in sites)
        seen = set()
        for k, lab in sites:
            if lab not in PAULI_LABELS:
                raise ValueError(f"unknown site label {lab!r}")
            if not 1 <= k <= self.n_sites:
                raise ValueError(f"site {k} outside 1..{self.n_sites}")
            if k in seen:
                raise ValueError(f"site {k} listed twice")
            seen.add(k)
        self.sites = tuple(sites)
        self.dim = 1 << self.n_sites

    def apply_into(self, x: np.ndarray, acc: np.ndarray) -> None:
        """acc += (this string applied to x); x is left untouched.

        (A x)[n] = c i**n_Y (-1)**|m & sign| keep(m) x[m] with m = n ^ flip:
        Y = i X Z, so a Y site flips its bit, carries i and reads the sign
        of its input bit like Z.  The factors multiply the gathered x in
        that order, then the result is added into acc.
        """

        def mask(labels):
            return sum(1 << (k - 1) for k, lab in self.sites if lab in labels)

        sign, one, zero = mask("YZ"), mask("+"), mask("-N")
        m = np.arange(self.dim, dtype=np.int64) ^ mask("XY+-")
        term = x[m]
        term *= self.coefficient * (1j ** sum(lab == "Y" for _, lab in self.sites))
        if sign:
            term *= 1.0 - 2.0 * (np.bitwise_count(m & sign) & 1)
        if one | zero:
            term *= ((m & one) == one) & ((m & zero) == 0)
        np.add(acc, term, out=acc)

    def apply_to(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.complex128)
        self.apply_into(x, out)
        return out

    def adjoint(self) -> "PauliString":
        return PauliString(
            np.conj(self.coefficient),
            [(k, _ADJOINT_LABEL[lab]) for k, lab in self.sites],
            self.n_sites,
        )

    def shifted(self, by: int, n_sites: int) -> "PauliString":
        """The same factors moved up by `by` sites on a larger space."""
        return PauliString(self.coefficient, [(k + by, lab) for k, lab in self.sites], n_sites)

    def dense_matrix(self) -> np.ndarray:
        """Kronecker-built dense form, independent of apply_to."""
        labels = dict(self.sites)
        out = np.array([[1.0 + 0j]])
        for k in range(self.n_sites, 0, -1):
            out = np.kron(out, SINGLE_SITE[labels.get(k, "I")])
        return self.coefficient * out

    def terms(self) -> PauliTerms:
        """Expansion over the Hermitian Pauli basis; +, - and N give two terms each."""
        out = {(0, 0): self.coefficient}
        for k, lab in self.sites:
            bit = 1 << (k - 1)
            out = {
                (x | sx * bit, z | sz * bit): c * sc
                for (x, z), c in out.items()
                for sx, sz, sc in _SITE_TERMS[lab]
            }
        return PauliTerms._nonzero(out.items())

    def __repr__(self):
        body = " ".join(f"{lab}{k}" for k, lab in self.sites) or "1"
        return f"PauliString(({self.coefficient:g}) * {body}, sites={self.n_sites})"


class PauliSumOperator(LinearOperator):
    """Sum of Pauli strings on a common 2**M space.

    Applies by zero-filling the output and adding each string's gather
    into it; terms() is its exact expansion, from_terms a PauliTerms' view.
    """

    def __init__(self, strings, n_sites: int | None = None):
        strings = list(strings)
        if n_sites is None:
            if not strings:
                raise ValueError("empty sum needs an explicit n_sites")
            n_sites = strings[0].n_sites
        for s in strings:
            if s.n_sites != n_sites:
                raise DimensionMismatchError("strings live on different site counts")
        self.strings = tuple(strings)
        self.n_sites = n_sites
        self.dim = 1 << n_sites

    @classmethod
    def from_terms(cls, terms: PauliTerms, n_sites: int) -> "PauliSumOperator":
        """One X/Y/Z string per basis term: Y where both bits are set."""
        strings = []
        for (x, z), c in terms.items():
            bits = ((k, (x >> (k - 1)) & 1, (z >> (k - 1)) & 1) for k in range(1, n_sites + 1))
            sites = [(k, _BITS_LABEL[bx, bz]) for k, bx, bz in bits if bx or bz]
            strings.append(PauliString(c, sites, n_sites))
        return cls(strings, n_sites)

    def terms(self) -> PauliTerms:
        """Sum of the strings' expansions."""
        return PauliTerms.total(s.terms() for s in self.strings)

    def _apply_array(self, x, out=None):
        if out is None:
            out = np.empty(self.dim, dtype=np.complex128)
        out.fill(0)
        for s in self.strings:
            s.apply_into(x, out)
        return out

    def adjoint(self):
        return PauliSumOperator([s.adjoint() for s in self.strings], self.n_sites)

    def scaled(self, factor) -> "PauliSumOperator":
        return PauliSumOperator(
            [PauliString(factor * s.coefficient, s.sites, s.n_sites) for s in self.strings],
            self.n_sites,
        )

    def _dense(self):
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for s in self.strings:
            out += s.dense_matrix()
        return out

    def normalized_trace(self):
        return complex(self.terms().get((0, 0), 0))

    def hs_norm(self):
        return self.terms().norm()


_CLOCK_TABLES: dict = {}  # {dim: _clock_table(dim)}, the one table held


def _clock_table(dim: int) -> np.ndarray:
    """exp(2 pi i j / dim) for j < dim, read only; the one table held, dropped for a new dim.

    Phases are read from it, never multiplied: omega^a omega^b is not bitwise omega^(a+b).
    """
    table = _CLOCK_TABLES.get(dim)
    if table is None:
        _CLOCK_TABLES.clear()
        # filled a tile at a time: each phase is its own index's, so the
        # table is the one-shot _clock_phases(np.arange(dim), dim) bitwise
        table, step = np.empty(dim, dtype=np.complex128), _tile()
        for lo in range(0, dim, step):
            table[lo : lo + step] = _clock_phases(np.arange(lo, min(lo + step, dim), dtype=np.int64), dim)
        table = _CLOCK_TABLES[dim] = _freeze(table)
    return table


def _clock_phases(w: np.ndarray, dim: int) -> np.ndarray:
    """exp(2 pi i w / dim) for an int64 index array w: the one expression of a clock phase."""
    return np.exp(2j * np.pi * w / dim)


def _clock_runs(dim: int, k: int, w0: int, n: int) -> list:
    """The clock phases at the indices (w0 + k i) % dim for i < n, as consecutive runs.

    With dim's clock table held, they are at most two views of it strided
    by the signed step, cut where the index wraps, if it wraps past dim at
    most once, and one gather from it otherwise.  With no table held,
    _clock_phases evaluates them at their own indices, so a window builds
    no table of length dim (nu = 2**40).  The table is
    _clock_phases(arange(dim)): all three give the same bits.
    """
    table = _CLOCK_TABLES.get(dim)
    s = k if 2 * k <= dim else k - dim
    if table is not None and s and abs(s) * (n - 1) < dim:
        run = table[w0::s][:n]
        rest = n - run.shape[0]
        return [run, table[(w0 + s * run.shape[0]) % dim :: s][:rest]] if rest else [run]
    if not k:
        return [np.broadcast_to(_clock_phases(np.array([w0]), dim) if table is None else table[w0], (n,))]
    # indices in Python ints where k n could pass int64
    w = np.arange(w0, w0 + k * n, k, dtype=np.int64 if k * n + dim < 2**63 else object) % dim
    w = w.astype(np.int64, copy=False)
    return [_clock_phases(w, dim) if table is None else table[w]]


@dataclass(frozen=True)
class PermutationPhaseOperator(LinearOperator):
    """Finite Heisenberg group element omega^m V^l U^k on C^dim, omega = exp(2 pi i/dim).

    U = diag(omega^j) is the clock and V: e_j -> e_{j+1 mod dim} the shift,
    so (A x)[(j + l) % dim] = omega^(k j + m) x[j].  The exponents are
    Python ints reduced mod dim: products and inverses are exact integer
    arithmetic at any dim, and U^dim is exactly the identity.
    """

    dim: int
    k: int = 0
    l: int = 0
    m: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        for name in ("k", "l", "m"):
            object.__setattr__(self, name, int(getattr(self, name)) % self.dim)

    def _apply_array(self, x, out=None):
        # out[(j + l) % dim] = omega^(k j + m) x[j], a stretch of j at a time:
        # a tile, or longer while the phase index wraps at most once along
        # it.  Each phase run multiplies its slice of x into out, split where
        # j + l passes dim: at most 2 products per tile, plus one
        dim, k, l, m = self.dim, self.k, self.l, self.m
        _clock_table(dim)
        if out is None:
            out = np.empty(dim, dtype=np.complex128)
        step = max(_tile(), dim // min(k, dim - k) if k else dim)
        for start in range(0, dim, step):
            j = start
            for phases in _clock_runs(dim, k, (k * start + m) % dim, min(step, dim - start)):
                end = j + phases.shape[0]
                cut = min(max(j, dim - l), end)
                for lo, hi, o in ((j, cut, j + l), (cut, end, cut + l - dim)):
                    if lo < hi:
                        np.multiply(phases[lo - j : hi - j], x[lo:hi], out=out[o : o + hi - lo])
                j = end
        return out

    def _compressed(self, start, n):
        """P A P: the entries A[i + o, i] for the signed shifts o = l and l - dim shorter than n.

        A banded operator, of one diagonal when n + |o| <= dim, whose phases
        are _clock_runs from the phase index of its first column,
        concatenated only where the index wraps.
        """
        dim, k, diags = self.dim, self.k, []
        for o in (self.l, self.l - dim):
            if abs(o) < n:
                first, count = max(0, -o), n - abs(o)
                runs = _clock_runs(dim, k, (k * (start + first) + self.m) % dim, count)
                diags.append((o, runs[0] if len(runs) == 1 else np.concatenate(runs)))
        return BandedOperator(n, diags)

    def adjoint(self):
        """The group inverse (-k, -l, k l - m)."""
        return PermutationPhaseOperator(self.dim, -self.k, -self.l, self.k * self.l - self.m)

    def compose(self, other: "PermutationPhaseOperator") -> "PermutationPhaseOperator":
        """self applied after other: the twisted product (k+k', l+l', m+m'+k l')."""
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return PermutationPhaseOperator(
            self.dim, self.k + other.k, self.l + other.l, self.m + other.m + self.k * other.l
        )

    def _dense(self):
        dim, idx = self.dim, np.arange(self.dim, dtype=np.int64)
        mat = np.zeros((dim, dim), dtype=np.complex128)
        mat[(idx + self.l) % dim, idx] = np.concatenate(_clock_runs(dim, self.k, self.m, dim))
        return mat

    def normalized_trace(self):
        # tau(V^l U^k) is 0 unless k = l = 0: the shift has no diagonal and
        # the clock phases sum to zero
        return 0j if self.k or self.l else cmath.exp(2j * math.pi * self.m / self.dim)

    def hs_norm(self):
        return 1.0


class LinCombOperator(LinearOperator):
    """Linear combination sum_i c_i A_i, applied term by term."""

    def __init__(self, terms):
        terms = [(complex(c), op) for c, op in terms]
        if not terms:
            raise ValueError("empty linear combination")
        dim = terms[0][1].dim
        for _, op in terms:
            if op.dim != dim:
                raise DimensionMismatchError("terms live on different dimensions")
        self.terms = tuple(terms)
        self.dim = dim

    def _apply_array(self, x, out=None):
        # the first term is applied into out and scaled there; each later
        # one is applied into one scratch vector, scaled and added
        (c, op), rest = self.terms[0], self.terms[1:]
        out = op._apply_array(x, out)
        np.multiply(c, out, out=out)
        scratch = np.empty(self.dim, dtype=np.complex128) if rest else None
        for c, op in rest:
            term = op._apply_array(x, scratch)
            np.add(out, np.multiply(c, term, out=term), out=out)
        return out

    def adjoint(self):
        return LinCombOperator([(np.conj(c), op.adjoint()) for c, op in self.terms])

    def _compressed(self, start, n):
        return LinCombOperator([(c, op.compressed(start, n)) for c, op in self.terms])

    def _dense(self):
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for c, op in self.terms:
            out += c * op._dense()
        return out

    def normalized_trace(self):
        return complex(sum(c * op.normalized_trace() for c, op in self.terms))


def identity(dim: int) -> BandedOperator:
    return BandedOperator(dim, [(0, np.ones(dim, dtype=np.complex128))])


def _bracket_into(a: LinearOperator, b: LinearOperator, x, sign: int, out, w1, w2) -> np.ndarray:
    """out = A(Bx) + sign B(Ax) through the work vectors w1 and w2; returns out.

    sign -1 gives the commutator, +1 the anticommutator.  x, out, w1 and w2
    are distinct contiguous vectors of the operators' dimension.
    """
    a._apply_array(b._apply_array(x, w1), out)
    b._apply_array(a._apply_array(x, w1), w2)
    return (np.subtract if sign < 0 else np.add)(out, w2, out=out)


def _bracket_apply(a: LinearOperator, b: LinearOperator, xi: StateVector, sign: int) -> StateVector:
    if not (a.dim == b.dim == xi.dim):
        raise DimensionMismatchError(f"dims {a.dim}, {b.dim}, {xi.dim} differ")
    out, w1, w2 = np.empty((3, xi.dim), dtype=np.complex128)
    return StateVector(xi.dim, _bracket_into(a, b, xi.components, sign, out, w1, w2))


def commutator_apply(a: LinearOperator, b: LinearOperator, xi: StateVector) -> StateVector:
    """(AB - BA) xi without forming the product operator."""
    return _bracket_apply(a, b, xi, -1)


def anticommutator_apply(a: LinearOperator, b: LinearOperator, xi: StateVector) -> StateVector:
    """(AB + BA) xi without forming the product operator."""
    return _bracket_apply(a, b, xi, +1)


def kron(a: LinearOperator, b: LinearOperator) -> LinearOperator:
    """Tensor product with a on the slow bits and b on the fast bits.

    Matches np.kron on dense matrices and StateVector.tensor on vectors.
    """
    if isinstance(a, DenseOperator) and isinstance(b, DenseOperator):
        return DenseOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, PauliSumOperator) and isinstance(b, PauliSumOperator):
        n_sites = a.n_sites + b.n_sites
        strings = []
        for sa in a.strings:
            shifted = sa.shifted(b.n_sites, n_sites)
            for sb in b.strings:
                strings.append(
                    PauliString(
                        shifted.coefficient * sb.coefficient,
                        list(shifted.sites) + list(sb.sites),
                        n_sites,
                    )
                )
        return PauliSumOperator(strings, n_sites)
    raise TypeError(
        f"kron needs two Dense or two PauliSum operators, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def normalized_trace(a: LinearOperator) -> complex:
    return a.normalized_trace()


def hs_norm(a: LinearOperator) -> float:
    return a.hs_norm()


def operator_norm(
    a: LinearOperator,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
    cap: int = DENSIFICATION_CAP,
) -> float:
    """Largest singular value: exact below the cap, power iteration above.

    The power iteration runs on A^dag A from a fixed-seed start vector and
    raises ConvergenceError instead of returning a stale estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.dim <= cap:
        return float(np.linalg.svd(a.dense(cap=cap), compute_uv=False)[0])
    adj = a.adjoint()
    rng = np.random.default_rng(POWER_SEED)
    x = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    x /= vector_norm(x)
    prev = None
    for _ in range(max_iter):
        y = adj._apply_array(a._apply_array(x))
        lam = vector_norm(y)
        if lam == 0.0:
            return 0.0
        x = y / lam
        if prev is not None and abs(lam - prev) <= tol * lam:
            return float(np.sqrt(lam))
        prev = lam
    raise ConvergenceError(f"power iteration did not converge in {max_iter} iterations")
