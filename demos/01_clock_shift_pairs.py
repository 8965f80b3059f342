#!/usr/bin/env python3
"""Clock/shift pairs: exact algebra at every size, emergent CCR on plateaus.

Walks through the canonical pair U (clock) and V (shift): the exact
exchange relation, the Fourier eigenbasis of the shift, plateau vectors
(uniform windows of clock eigenvectors) that both operators almost fix,
and the commutator defect that shrinks as the dimension grows.
"""

import math

import numpy as np

from ccrlab import weyl
from ccrlab.linalg import random_state


def main():
    print("== exact relations at nu = 16 ==")
    pair = weyl.make_canonical_pair(16)
    rng = np.random.default_rng(0)
    xi = random_state(16, rng)
    omega = np.exp(2j * np.pi / 16)
    residual = (pair.U.apply(pair.V.apply(xi)) - omega * pair.V.apply(pair.U.apply(xi))).norm()
    print(f"  || (UV - e^(2 pi i/16) VU) xi ||        = {residual:.2e}")
    period = (pair.power_op(k=16).apply(xi) - xi).norm()
    print(f"  || (U^16 - 1) xi ||                     = {period:.2e}")

    v1 = weyl.fourier_basis_vector(pair, 1)
    eig_res = (pair.V.apply(v1) - np.exp(-2j * np.pi / 16) * v1).norm()
    print(f"  shift eigenvector residual at n=1       = {eig_res:.2e}")

    print("\n== the finite Heisenberg group it generates (nu = 8) ==")
    pair = weyl.make_canonical_pair(8)
    g = pair.power_op(3, 1, 0)
    h = pair.power_op(2, 5, 4)
    gh = g.compose(h)
    print(f"  ({g.k},{g.l},{g.m}) * ({h.k},{h.l},{h.m}) = ({gh.k},{gh.l},{gh.m})")
    xi = random_state(8, rng)
    lhs = g.apply(h.apply(xi))
    rhs = gh.apply(xi)
    print(f"  representation multiplicativity residual = {(lhs - rhs).norm():.2e}")

    print("\n== plateau vectors: almost invariant under both U and V ==")
    print(f"  {'nu':>9} {'mu':>5} {'||V|0>-|0>||':>14} {'sqrt(2/mu)':>12}"
          f" {'||U|0>-|0>||':>14} {'2 pi mu/nu':>12} {'ccr defect':>12}")
    for exponent in (10, 14, 18):
        nu = 2**exponent
        pair = weyl.make_canonical_pair(nu)
        mu = weyl.default_window(nu)
        window = weyl.plateau_vector(pair, 0, mu)
        shift_defect = (pair.V.apply(window) - window).norm()
        clock_defect = (pair.U.apply(window) - window).norm()
        group_defect = weyl.ccr_defect(pair, 1, 1, window).group
        print(
            f"  {nu:>9} {mu:>5} {shift_defect:>14.6f} {math.sqrt(2 / mu):>12.6f}"
            f" {clock_defect:>14.6f} {2 * math.pi * mu / nu:>12.6f} {group_defect:>12.6f}"
        )
    print("  the shift defect matches sqrt(2/mu) exactly; the commutator")
    print("  defect || ((nu/2 pi)[U,V] - i) |0> || shrinks like nu^(-1/4)")

    print("\n== a sharp basis vector is NOT almost invariant ==")
    pair = weyl.make_canonical_pair(64)
    from ccrlab.linalg import StateVector

    sharp = weyl.ccr_defect(pair, 1, 1, StateVector.basis(64, 0)).group
    print(f"  commutator defect on a single clock eigenvector = {sharp:.3f}")


if __name__ == "__main__":
    main()
