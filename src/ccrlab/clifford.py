"""Anticommuting generator families on qubit registers and the so(n) they span.

The 2*nu + 1 generators act on nu sites (dimension 2**nu) as single Pauli
strings with trailing Z factors:

    g_{2k-1} =  Y_k Z_{k+1} ... Z_nu
    g_{2k}   = -X_k Z_{k+1} ... Z_nu
    g_{2nu+1} = Z_1 Z_2 ... Z_nu

Each is Hermitian, squares to the identity, and distinct generators
anticommute, so e_i = i g_i satisfies e_i^2 = -1 and e_i e_j = -e_j e_i.
The pair products E_ij = e_i e_j (i < j) close under commutators; the
structure constants are never hardcoded but extracted once from the
smallest dense realization and reused as the oracle at every size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_SITE_CAP,
    PauliString,
    PauliSumOperator,
    bracket_into,
    finite_norm,
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
    basis = {}
    for i in range(1, n + 1):
        si = family.gammas[i - 1].strings[0]
        for j in range(i + 1, n + 1):
            sj = family.gammas[j - 1].strings[0]
            prod = si.compose(sj)
            basis[(i, j)] = PauliSumOperator(
                [PauliString(-prod.coefficient, prod.sites, prod.n_sites)], family.nu
            )
    return basis


@functools.lru_cache(maxsize=1)
def _minimal_dense_basis():
    """Dense E_ij of the nu=2 family (n=5), used to extract structure constants."""
    family = make_gammas(2)
    basis = so_n_basis(family)
    return {key: op.dense() for key, op in basis.items()}


@functools.lru_cache(maxsize=None)
def _bracket_pattern(pi, pj, pk, pl):
    """Expansion of [E_(pi,pj), E_(pk,pl)] over the E basis at nu=2.

    Indices must already be mapped into 1..5; returns ((a, b, coeff), ...)
    with a < b, solved by least squares against the dense basis and
    validated to 1e-10.
    """
    dense = _minimal_dense_basis()
    lhs = dense[(pi, pj)] @ dense[(pk, pl)] - dense[(pk, pl)] @ dense[(pi, pj)]
    keys = sorted(dense)
    stack = np.stack([dense[k].ravel() for k in keys], axis=1)
    coeffs, *_ = np.linalg.lstsq(stack, lhs.ravel(), rcond=None)
    residual = np.max(np.abs(stack @ coeffs - lhs.ravel()))
    if residual > 1e-10:
        raise AssertionError(f"bracket does not close on the E basis: residual {residual}")
    out = []
    for key, c in zip(keys, coeffs):
        if abs(c) > 1e-10:
            out.append((key[0], key[1], complex(c)))
    return tuple(out)


def bracket_expansion(i: int, j: int, k: int, l: int):
    """Structure constants of [E_ij, E_kl] as ((a, b, coeff), ...).

    The constants depend only on the coincidence pattern of the four
    indices, so arbitrary indices are relabeled into the minimal dense
    realization, expanded there, and mapped back.
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


def relation_residuals(family: GammaFamily, basis: dict, vectors, bracket_samples) -> tuple:
    """Worst residuals (square, anticommutation, bracket closure) of the family.

    g_i^2 = 1 and {g_i, g_j} = 0 (i < j) are checked on every vector in
    `vectors`; [E_ij, E_kl] = sum c_ab E_ab on each ((i, j), (k, l), xi) of
    `bracket_samples`, with E from `basis` (so_n_basis of the family).
    Samples are consumed one at a time, so they may be drawn lazily.  Three
    work vectors are allocated once per call; a non-finite residual raises
    ValueError.
    """
    dim = 1 << family.nu
    out, work, scratch = (np.empty(dim, dtype=np.complex128) for _ in range(3))
    gammas = family.gammas

    square = anticommutation = 0.0
    for i, gi in enumerate(gammas):
        for xi in vectors:
            x = xi.components
            gi.apply_into(x, work, scratch)
            gi.apply_into(work, out, scratch)
            np.subtract(out, x, out=out)
            square = max(square, finite_norm(out))
        for gj in gammas[i + 1:]:
            for xi in vectors:
                bracket_into(gi, gj, xi.components, out, work, scratch, +1)
                anticommutation = max(anticommutation, finite_norm(out))

    closure = 0.0
    for (i, j), (k, l), xi in bracket_samples:
        x = xi.components
        bracket_into(basis[(i, j)], basis[(k, l)], x, out, work, scratch, -1)
        work.fill(0)
        for a, b, coeff in bracket_expansion(i, j, k, l):
            basis[(a, b)].apply_into(x, scratch, None)
            np.multiply(coeff, scratch, out=scratch)
            np.add(work, scratch, out=work)
        np.subtract(out, work, out=out)
        closure = max(closure, finite_norm(out))
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
