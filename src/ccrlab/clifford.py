"""Anticommuting generator families on qubit registers and the so(n) they span.

The 2*nu + 1 generators act on nu sites (dimension 2**nu) as single Pauli
strings with trailing Z factors:

    g_{2k-1} =  Y_k Z_{k+1} ... Z_nu
    g_{2k}   = -X_k Z_{k+1} ... Z_nu
    g_{2nu+1} = Z_1 Z_2 ... Z_nu

Each is Hermitian, squares to the identity, and distinct generators
anticommute, so e_i = i g_i satisfies e_i^2 = -1 and e_i e_j = -e_j e_i.
The pair products E_ij = e_i e_j (i < j) close under commutators with the
structure constants of so(2*nu + 1), which bracket_expansion writes in
closed form.  The generators are built as PauliTerms, one (x_mask, z_mask)
key each, and products and relations are multiplied out exactly over the
Pauli basis, so a relation that holds leaves a residual of exactly zero.
so_n_basis and tensor_sum_rep return the vector view of such sums,
PauliSumOperator.from_terms, and import it in their bodies.  The sweep's
battery checks the brackets of a fixed set chosen from nu alone, which
reaches every branch of bracket_expansion and draws nothing, so a clifford
run, like a parafermi one, runs on ccrlab.pauli alone and starts without
numpy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .pauli import (
    DEFAULT_SITE_CAP,
    PauliTerms,
    _add_into,
    _pairs_into,
    _split,
    _terms_norm,
    require_sites,
)


@dataclass(frozen=True)
class GammaFamily:
    """2*nu + 1 Hermitian unitary generators on the 2**nu space, as PauliTerms."""

    nu: int
    gammas: tuple


def make_gammas(nu: int, site_cap: int = DEFAULT_SITE_CAP) -> GammaFamily:
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    require_sites(nu, site_cap)
    gammas = []
    for k in range(1, nu + 1):
        bit = 1 << (k - 1)
        tail = (1 << nu) - (bit << 1)  # Z on sites k+1..nu
        # g_{2k-1} = Y_k Z_tail, g_{2k} = -X_k Z_tail
        gammas += [PauliTerms({(bit, bit | tail): 1.0}), PauliTerms({(bit, tail): -1.0})]
    gammas.append(PauliTerms({(0, (1 << nu) - 1): 1.0}))  # g_{2nu+1} = Z_1 ... Z_nu
    return GammaFamily(nu, tuple(gammas))


def _pair_product(split: list, i: int, j: int) -> PauliTerms:
    """E_ij = (i g_i)(i g_j) = -g_i g_j from the generators' split terms (1-based i, j)."""
    if not 1 <= i < j <= len(split):
        raise ValueError(f"pair ({i}, {j}) is not 1 <= i < j <= {len(split)}")
    product = _pairs_into(split[i - 1], split[j - 1], None)
    return PauliTerms._nonzero((key, -c) for key, c in product.items())


def so_n_basis(family: GammaFamily) -> dict:
    """Pair products E_ij = (i g_i)(i g_j) = -g_i g_j for i < j.

    Each E_ij is again a single Pauli string, returned as its vector view
    PauliSumOperator.from_terms; E_ij is anti-Hermitian and the set closes
    under commutators with the so(n) structure constants.
    """
    from .linalg import PauliSumOperator

    n = 2 * family.nu + 1
    split = [_split(g) for g in family.gammas]
    return {
        (i, j): PauliSumOperator.from_terms(_pair_product(split, i, j), family.nu)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


def bracket_expansion(i: int, j: int, k: int, l: int):
    """Structure constants of [E_ij, E_kl] as ((a, b, coeff), ...) with a < b.

    The so(n) relations
        [E_ij, E_kl] = -2 (d_jk E_il - d_jl E_ik - d_ik E_jl + d_il E_jk),
    with E_ba = -E_ab and E_aa = 0.  They follow from e_s^2 = -1 and
    anticommutation: e_a e_s e_s e_b = -e_a e_b and e_s e_b e_a e_s = e_a e_b,
    so [e_a e_s, e_s e_b] = -2 e_a e_b, and pairs with no common index commute.
    """
    if not (i < j and k < l):
        raise ValueError("index pairs must be ordered i < j and k < l")
    out = {}
    deltas = ((j == k, i, l, -2), (j == l, i, k, 2), (i == k, j, l, 2), (i == l, j, k, -2))
    for meets, a, b, c in deltas:
        if meets and a != b:
            key, c = ((a, b), c) if a < b else ((b, a), -c)
            out[key] = out.get(key, 0) + c
    return tuple((a, b, complex(c)) for (a, b), c in sorted(out.items()) if c)


def relation_residuals(family: GammaFamily, bracket_samples) -> tuple:
    """Worst residuals (square, anticommutation, bracket closure) of the family.

    g_i^2 = 1 and {g_i, g_j} = 0 (i < j) are checked for every generator;
    [E_ij, E_kl] = sum c_ab E_ab for each ((i, j), (k, l)) of
    `bracket_samples`, with each E_ab = -g_a g_b formed from the generators'
    terms.  Each residual is the Hilbert-Schmidt norm of the exact residual
    operator, so a relation that holds reads 0.0; a non-finite one raises
    NonFiniteError.  Each generator and each E_ab is split once for the pair
    loop, and the expected terms are subtracted in the residual's dict.
    """
    split = [_split(g) for g in family.gammas]
    one = {(0, 0): 1.0}
    square = max(_terms_norm(_add_into(_pairs_into(s, s, None), one, -1)) for s in split)
    anticommutation = max(
        (
            _terms_norm(_pairs_into(si, sj, 1))
            for i, si in enumerate(split)
            for sj in split[i + 1:]
        ),
        default=0.0,
    )

    @functools.cache
    def pair(a, b):
        e_ab = _pair_product(split, a, b)
        return e_ab, _split(e_ab)

    closure = 0.0
    for (i, j), (k, l) in bracket_samples:
        res = _pairs_into(pair(i, j)[1], pair(k, l)[1], -1)
        for a, b, coeff in bracket_expansion(i, j, k, l):
            _add_into(res, pair(a, b)[0], -coeff)
        closure = max(closure, _terms_norm(res))
    return square, anticommutation, closure


def _clifford_checks(rng, family):
    """The sweep's battery at one grid point, exact and held to 0.0; it draws nothing from rng.

    The brackets are a fixed set of at most 8, chosen from nu alone: a
    disjoint and an identical pair, then for a shared index s of g_1, the
    middle generator g_{nu+1} and g_{2nu+1}, one bracket of each branch of
    bracket_expansion (d_jk, d_jl, d_ik, d_il in turn) that s can carry,
    with the partners g_1, g_{s-1} below s and g_{s+1}, g_{2nu+1} above it.
    g_1 carries only d_ik and g_{2nu+1} only d_jl, and a pair outside the
    family is dropped.
    """
    n = 2 * family.nu + 1
    brackets = [((1, 2), (3, 4)), ((1, n), (1, n))]
    for s in (1, family.nu + 1, n):
        brackets += [((1, s), (s, n)), ((1, s), (s - 1, s)), ((s, s + 1), (s, n)), ((s, s + 1), (s - 1, s))]
    samples = [(a, b) for a, b in brackets if all(1 <= i < j <= n for i, j in (a, b))]
    square, anti, closure = relation_residuals(family, samples)
    yield {}, "gamma-square", square, 0.0
    yield {}, "gamma-anticommutation", anti, 0.0
    yield {}, "so-bracket-closure", closure, 0.0


def tensor_sum_rep(
    family: GammaFamily, p: int, pair: tuple, site_cap: int = DEFAULT_SITE_CAP
) -> PauliSumOperator:
    """Block sum of E_ij over p copies of the register: one string per block.

    Block l (0-based) occupies sites l*nu + 1 .. (l+1)*nu, so its copy of
    E_ij is the single-block key with both masks shifted by l*nu.  Brackets
    of block sums satisfy the same structure constants as the single-block
    E_ij (the sum acts as a derivation on product states).
    """
    from .linalg import PauliSumOperator

    if p < 1:
        raise ValueError("p must be a positive integer")
    nu = family.nu
    require_sites(p * nu, site_cap)
    terms = _pair_product([_split(g) for g in family.gammas], *pair)
    blocks = ({(x << l * nu, z << l * nu): c for (x, z), c in terms.items()} for l in range(p))
    return PauliSumOperator.from_terms(PauliTerms.total(blocks), p * nu)
