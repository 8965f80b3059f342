"""The exact layer, which imports no numpy: PauliTerms, sums of Pauli
strings multiplied out over the Pauli basis in int and dict arithmetic, and
the budget a construction is refused against, and the batteries' absolute
bounds.  Callers import these from here, not from linalg, so a run whose
checks form no vector and draw no random numbers (the parafermi battery)
starts without numpy.  A norm that is not finite raises NonFiniteError.
"""

from __future__ import annotations

import math

DEFAULT_SITE_CAP = 22
TOL_EXACT = 1e-12  # a rounded figure of an exact identity
TOL_RELATION = 1e-10  # a relation computed through several rounded products


class NonFiniteError(ValueError):
    """A residual or coefficient norm is inf or NaN."""


class ResourceLimitError(RuntimeError):
    """A requested construction exceeds the configured memory budget."""


def require_sites(total_sites: int, site_cap: int = DEFAULT_SITE_CAP) -> None:
    """Refuse constructions whose state vectors would not fit the budget."""
    if total_sites > site_cap:
        # written as a power: 2**total_sites is never formed for a huge register
        raise ResourceLimitError(
            f"{total_sites} sites need 16 * 2**{total_sites} bytes per state vector "
            f"(cap {site_cap} sites, {16 * (1 << site_cap)} bytes)"
        )


def require_dim(dim: int, site_cap: int = DEFAULT_SITE_CAP) -> None:
    """Refuse a state vector of dim amplitudes over the budget of site_cap sites.

    The bytes-based sibling of require_sites, for families whose dimension
    is not a power of two: 16 bytes per amplitude against 16 * 2**site_cap.
    """
    need, cap = 16 * dim, 16 * (1 << site_cap)
    if need > cap:
        raise ResourceLimitError(
            f"dimension {dim} needs {need} bytes per state vector "
            f"(cap {cap} bytes for {site_cap} sites)"
        )


def _finite(value: float, what: str) -> float:
    # a NaN must not reach max(): max(0.0, nan) is 0.0, a false pass
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} is not finite ({value})")
    return value


_I_POWERS = (1, 1j, -1, -1j)
_INT_KEYS = 1 << 60  # sparse-state keys below this are the basis index itself
_TWICE_I_POWERS = (2, 2j, -2, -2j)
# sign -> (phase table, parity left out, commutator) for _pairs_into
_PAIR_RULES = {None: (_I_POWERS, None, False), 1: (_TWICE_I_POWERS, 1, False), -1: (_TWICE_I_POWERS, 0, True)}


class PauliTerms(dict):
    """Exact sum of Hermitian Pauli basis strings, {(x_mask, z_mask): coeff}.

    Key (x, z) stands for i**|x & z| X**x Z**z, site k in bit k-1 of the
    Python-int masks, so a site with both bits set carries Y.  The basis is
    orthonormal under the normalized trace, so norm() is the Hilbert-Schmidt
    norm and the (0, 0) coefficient the normalized trace.

    X**x1 Z**z1 X**x2 Z**z2 = (-1)**|z1 & x2| X**(x1^x2) Z**(z1^z2), so a
    product of two basis strings is i**e times a third, with
    e = |x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3| mod 4 from popcounts; the cost
    depends on the number of terms, never on the dimension 2**M.

    Doubles hold every coefficient the family identities produce exactly.
    The family strings have coefficients 1, -1, i or -i, and a +, - or N
    site expands into two terms of coefficient 1/2 or i/2, so a product of
    r terms is (a + ib) / 2**s with small integers a, b and s.  A sum of n
    such products keeps the form with |a|, |b| <= n 2**s, and n, the number
    of products summed, is at most (2p)**3 in the trilinear relations: the
    numerators, dyadic Gaussian rationals over a common power of two, stay
    far below 2**53, so no product or sum rounds.  An identity that holds
    leaves no term at all.

    Products and brackets run through one loop, _pairs_into, on terms split
    once into (x, z, x | z, |x & z|, c); the exact relation checks call it
    directly and subtract their expected terms in place (_add_into).
    """

    @classmethod
    def _nonzero(cls, items) -> "PauliTerms":
        return cls({key: c for key, c in items if c != 0})

    @classmethod
    def total(cls, parts) -> "PauliTerms":
        """The sum of parts, accumulated in one dict: linear in their terms."""
        out = {}
        for part in parts:
            for key, c in part.items():
                out[key] = out.get(key, 0) + c
        return cls._nonzero(out.items())

    def __add__(self, other):
        return self.total((self, other))

    def __neg__(self):
        return PauliTerms({key: -c for key, c in self.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if not isinstance(other, PauliTerms):
            return self._nonzero((key, other * c) for key, c in self.items())
        return self._nonzero(_pairs_into(_split(self), _split(other), None).items())

    __rmul__ = __mul__  # only ever reached with a scalar on the left

    def adjoint(self) -> "PauliTerms":
        """The conjugate coefficients: every basis string is Hermitian."""
        return PauliTerms({key: c.conjugate() for key, c in self.items()})

    def norm(self) -> float:
        """l2 norm of the coefficients; a non-finite one raises NonFiniteError."""
        return _terms_norm(self)

    def act(self, state: dict) -> dict:
        """This sum applied to a sparse state {_basis_key(index): coeff}, exactly.

        Key (x, z) sends |n> to i**|x & z| (-1)**|z & n| |n ^ x>, so the cost
        is the number of terms times the support, never 2**M; the vacuum of
        the fermion convention is {_basis_key(2**M - 1): 1}.  Zero
        coefficients are dropped.
        """
        items = [(_basis_index(key), a) for key, a in state.items()]
        out = {}
        for (x, z), c in self.items():
            c = _I_POWERS[(x & z).bit_count() & 3] * c
            for n, a in items:
                term = c * a
                m = n ^ x
                m = m if m < _INT_KEYS else _basis_key(m)  # int keys inline
                out[m] = out.get(m, 0) + (-term if (z & n).bit_count() & 1 else term)
        return {m: a for m, a in out.items() if a != 0}


def _basis_key(n: int):
    """A sparse state's key for basis index n: n itself below 2**60, else its bytes.

    An int hashes as its value mod 2**61 - 1, so the indices of a register
    past 60 sites would share hash classes (2**a and 2**(a + 61) collide;
    the 523,776 two-hole states at 1024 sites fall in 1,891 of them), and a
    dict of them slows to a crawl.  Bytes hash by their content, and both
    forms are one-to-one, so every coefficient stays exact.
    """
    return n if n < _INT_KEYS else n.to_bytes((n.bit_length() + 7) // 8, "little")


def _basis_index(key) -> int:
    """The basis index of a sparse state's key, _basis_key inverted."""
    return key if isinstance(key, int) else int.from_bytes(key, "little")


def _split(terms: dict) -> list:
    """The nonzero terms of {(x, z): c} as (x, z, x | z, |x & z|, c), for _pairs_into."""
    return [(x, z, x | z, (x & z).bit_count(), c) for (x, z), c in terms.items() if c != 0]


def _pairs_into(left: list, right: list, sign) -> dict:
    """The sum over every (left, right) pair of split terms, in a fresh dict.

    sign None gives the product left * right, and +1 or -1 the bracket
    ab + sign * ba.  Two basis strings commute when |x1&z2| + |z1&x2| is
    even and anticommute when it is odd, so in a bracket each pair adds
    twice its product or nothing: the anticommutator leaves out the pairs
    of odd parity, the commutator those of even parity.  In a commutator a
    pair whose supports x | z are disjoint is left out before any popcount:
    strings on disjoint sites commute.  Doubling is exact.  A sum that
    cancels stays in the dict as a zero.
    """
    out = {}
    phases, skip, commutator = _PAIR_RULES[sign]
    for x1, z1, s1, y1, c1 in left:
        for x2, z2, s2, y2, c2 in right:
            if commutator and not s1 & s2:
                continue
            zx = (z1 & x2).bit_count()
            if (zx + (x1 & z2).bit_count()) & 1 == skip:
                continue
            x3, z3 = x1 ^ x2, z1 ^ z2
            e = y1 + y2 + 2 * zx - (x3 & z3).bit_count()
            out[x3, z3] = out.get((x3, z3), 0) + phases[e & 3] * c1 * c2
    return out


def _add_into(out: dict, terms: dict, scale) -> dict:
    """out += scale * terms in place, each key where PauliTerms.total puts it.

    A zero in out stands for a dropped term, so a key whose value is zero
    moves to the end as a new key would: the nonzero terms keep the order
    of the PauliTerms arithmetic, and _terms_norm sums them in that order.
    """
    for key, c in terms.items():
        v = out.get(key, 0)
        if v == 0:
            out.pop(key, None)
        out[key] = v + scale * c
    return out


def _terms_norm(terms: dict) -> float:
    """l2 norm of the coefficients in dict order (a zero adds exactly
    nothing); a non-finite one raises NonFiniteError."""
    if not terms:
        return 0.0
    return _finite(math.sqrt(sum([abs(c) ** 2 for c in terms.values()])), "coefficient norm")


def bracket(a: PauliTerms, b: PauliTerms, sign: int) -> PauliTerms:
    """ab + sign * ba: the anticommutator for sign +1, the commutator for -1.

    One _pairs_into pass over the term pairs, so the result is the dict
    a * b + sign * (b * a).
    """
    return PauliTerms._nonzero(_pairs_into(_split(a), _split(b), sign).items())
