"""Anticommuting generator families on qubit registers and the so(n) they span.

The 2*nu + 1 generators act on nu sites (dimension 2**nu) as single Pauli
strings with trailing Z factors:

    g_{2k-1} =  Y_k Z_{k+1} ... Z_nu
    g_{2k}   = -X_k Z_{k+1} ... Z_nu
    g_{2nu+1} = Z_1 Z_2 ... Z_nu

Each is Hermitian, squares to the identity, and distinct generators
anticommute, so e_i = i g_i satisfies e_i^2 = -1 and e_i e_j = -e_j e_i.
The pair products E_ij = e_i e_j (i < j) close under commutators; the
structure constants are never hardcoded but read off the exact commutators
of the nu = 2 family and reused as the oracle at every size.  Products and
relations are multiplied out exactly over the Pauli basis (PauliTerms), so
a relation that holds leaves a residual of exactly zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import (
    DEFAULT_SITE_CAP,
    PauliString,
    PauliSumOperator,
    PauliTerms,
    bracket,
    require_sites,
)


@dataclass(frozen=True)
class GammaFamily:
    """2*nu + 1 Hermitian unitary generators on the 2**nu space."""

    nu: int
    gammas: tuple


def _gamma_string(index: int, nu: int) -> PauliString:
    if index == 2 * nu + 1:
        return PauliString(1.0, [(k, "Z") for k in range(1, nu + 1)], nu)
    if index % 2 == 1:  # index = 2k - 1
        k = (index + 1) // 2
        tail = [(kk, "Z") for kk in range(k + 1, nu + 1)]
        return PauliString(1.0, [(k, "Y")] + tail, nu)
    k = index // 2  # index = 2k
    tail = [(kk, "Z") for kk in range(k + 1, nu + 1)]
    return PauliString(-1.0, [(k, "X")] + tail, nu)


def make_gammas(nu: int, site_cap: int = DEFAULT_SITE_CAP) -> GammaFamily:
    if nu < 1:
        raise ValueError("nu must be a positive integer")
    require_sites(nu, site_cap)
    ops = tuple(
        PauliSumOperator([_gamma_string(i, nu)], nu) for i in range(1, 2 * nu + 2)
    )
    return GammaFamily(nu, ops)


def so_n_basis(family: GammaFamily) -> dict:
    """Pair products E_ij = (i g_i)(i g_j) = -g_i g_j for i < j.

    Each E_ij is again a single Pauli string; E_ij is anti-Hermitian and
    the set closes under commutators with the so(n) structure constants.
    """
    n = 2 * family.nu + 1
    terms = [g.terms() for g in family.gammas]
    return {
        (i, j): PauliSumOperator.from_terms(-(terms[i - 1] * terms[j - 1]), family.nu)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


@functools.lru_cache(maxsize=None)
def _small_basis() -> dict:
    """E_ab terms of the nu = 2 family (n = 5), built once; read only."""
    return {key: op.terms() for key, op in so_n_basis(make_gammas(2)).items()}


@functools.lru_cache(maxsize=None)
def _bracket_pattern(pi, pj, pk, pl):
    """Expansion of [E_(pi,pj), E_(pk,pl)] over the E basis at nu=2.

    Indices must already be mapped into 1..5; returns ((a, b, coeff), ...)
    with a < b.  Each E_ab is one basis string c_ab P_ab, so the exact
    commutator's coefficient on P_ab over c_ab is the structure constant;
    a term left on no E_ab raises AssertionError.
    """
    basis = _small_basis()
    rest = bracket(basis[(pi, pj)], basis[(pk, pl)], -1)
    out = []
    for (a, b), e_ab in sorted(basis.items()):
        ((string, c_ab),) = e_ab.items()
        coeff = rest.pop(string, 0) / c_ab
        if coeff:
            out.append((a, b, complex(coeff)))
    if rest:
        raise AssertionError(f"bracket does not close on the E basis: {len(rest)} terms left")
    return tuple(out)


def bracket_expansion(i: int, j: int, k: int, l: int):
    """Structure constants of [E_ij, E_kl] as ((a, b, coeff), ...).

    The constants depend only on the coincidence pattern of the four
    indices, so arbitrary indices are relabeled into the nu = 2 family
    (n = 5), expanded there, and mapped back.
    """
    if not (i < j and k < l):
        raise ValueError("index pairs must be ordered i < j and k < l")
    distinct = sorted(set((i, j, k, l)))
    if len(distinct) > 5:
        raise ValueError("at most five distinct indices are supported")
    to_small = {v: s + 1 for s, v in enumerate(distinct)}
    to_big = {s + 1: v for s, v in enumerate(distinct)}
    pattern = _bracket_pattern(to_small[i], to_small[j], to_small[k], to_small[l])
    return tuple((to_big[a], to_big[b], c) for a, b, c in pattern)


def relation_residuals(family: GammaFamily, basis: dict, bracket_samples) -> tuple:
    """Worst residuals (square, anticommutation, bracket closure) of the family.

    g_i^2 = 1 and {g_i, g_j} = 0 (i < j) are checked for every generator;
    [E_ij, E_kl] = sum c_ab E_ab for each ((i, j), (k, l)) of
    `bracket_samples`, with E from `basis` (so_n_basis of the family).  Each
    residual is the Hilbert-Schmidt norm of the exact residual operator, so
    a relation that holds reads 0.0; a non-finite one raises ValueError.
    """
    gammas = [g.terms() for g in family.gammas]
    one = PauliTerms({(0, 0): 1.0})
    square = max((g * g - one).norm() for g in gammas)
    anticommutation = max(
        (bracket(gi, gj, +1).norm() for i, gi in enumerate(gammas) for gj in gammas[i + 1:]),
        default=0.0,
    )
    closure = 0.0
    for (i, j), (k, l) in bracket_samples:
        res = bracket(basis[(i, j)].terms(), basis[(k, l)].terms(), -1)
        for a, b, coeff in bracket_expansion(i, j, k, l):
            res = res - coeff * basis[(a, b)].terms()
        closure = max(closure, res.norm())
    return square, anticommutation, closure


def tensor_sum_rep(
    family: GammaFamily, p: int, pair: tuple, site_cap: int = DEFAULT_SITE_CAP
) -> PauliSumOperator:
    """Block sum of E_ij over p copies of the register: one string per block.

    Block l (0-based) occupies sites l*nu + 1 .. (l+1)*nu.  Brackets of
    block sums satisfy the same structure constants as the single-block
    E_ij (the sum acts as a derivation on product states).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    i, j = pair
    total_sites = p * family.nu
    require_sites(total_sites, site_cap)
    base = so_n_basis(family)[(i, j)].strings[0]
    strings = [base.shifted(l * family.nu, total_sites) for l in range(p)]
    return PauliSumOperator(strings, total_sites)
