#!/usr/bin/env python3
"""Anticommuting generator families on qubit registers, matrix free.

Builds the 2 nu + 1 generators as single Pauli strings with trailing-Z
tails, held as exact Pauli sums (PauliTerms) and applied to state vectors
through their PauliSumOperator.from_terms views, checks their algebra
without ever forming a matrix, on state vectors and exactly in the Pauli
basis, and shows the pair products closing into a
rotation algebra whose structure constants are the so(n) relations
[E_ij, E_kl] = -2 (d_jk E_il - d_jl E_ik - d_ik E_jl + d_il E_jk).
"""

import itertools

import numpy as np

from ccrlab import clifford
from ccrlab.linalg import (
    PauliSumOperator,
    anticommutator_apply,
    commutator_apply,
    random_state,
)


def main():
    print("== the single-site family (nu = 1) ==")
    fam = clifford.make_gammas(1)
    for i, g in enumerate(fam.gammas, start=1):
        (string,) = PauliSumOperator.from_terms(g, fam.nu).strings
        print(f"  g_{i} = {string}")

    print("\n== exact anticommutation on a 16-site register (dim 65536) ==")
    nu = 16
    fam = clifford.make_gammas(nu)
    gammas = [PauliSumOperator.from_terms(g, nu) for g in fam.gammas]
    rng = np.random.default_rng(0)
    xi = random_state(1 << nu, rng)
    worst = 0.0
    for i in range(2 * nu + 1):
        for j in range(i + 1, 2 * nu + 1):
            worst = max(worst, anticommutator_apply(gammas[i], gammas[j], xi).norm())
    print(f"  worst anticommutator norm over all {2*nu+1} choose 2 pairs = {worst:.2e}")
    squares = max((g.apply(g.apply(xi)) - xi).norm() for g in gammas)
    print(f"  worst |g^2 - 1| residual                                  = {squares:.2e}")
    keys = list(itertools.combinations(range(1, 2 * nu + 2), 2))
    pairs = [(keys[i], keys[j]) for i, j in rng.integers(0, len(keys), (20, 2))]
    square, anti, closure = clifford.relation_residuals(fam, pairs)
    print(
        f"  exact residuals (square, anticommutation, 20 so(n) brackets) = "
        f"{square}, {anti}, {closure}"
    )

    print("\n== pair products close under brackets ==")
    fam = clifford.make_gammas(3)
    basis = clifford.so_n_basis(fam)
    expansion = clifford.bracket_expansion(1, 2, 2, 5)
    terms = " + ".join(f"({c.real:+.0f}{c.imag:+.0f}i) E_{a}{b}" for a, b, c in expansion)
    print(f"  [E_12, E_25] = {terms}")
    xi = random_state(8, rng)
    lhs = commutator_apply(basis[(1, 2)], basis[(2, 5)], xi)
    acc = np.zeros(8, dtype=complex)
    for a, b, c in expansion:
        acc += c * basis[(a, b)].apply(xi).components
    print(f"  residual against the closed-form constants = {np.linalg.norm(lhs.components - acc):.2e}")

    print("\n== block sums act as derivations and keep the same brackets ==")
    fam = clifford.make_gammas(1)
    summed = clifford.tensor_sum_rep(fam, 2, (1, 2))
    single = clifford.so_n_basis(fam)[(1, 2)]
    a, b = random_state(2, rng), random_state(2, rng)
    lhs = summed.apply(a.tensor(b))
    rhs = a.tensor(single.apply(b)) + single.apply(a).tensor(b)
    print(f"  Leibniz residual on a product state = {(lhs - rhs).norm():.2e}")


if __name__ == "__main__":
    main()
