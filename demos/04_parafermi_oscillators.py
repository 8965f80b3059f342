#!/usr/bin/env python3
"""Order-p oscillators from p commuting fermion families, and bose emergence.

The sum of p component annihilators obeys trilinear exchange relations
exactly at every order; rescaled by 1/sqrt(p) the modes approach harmonic
oscillator ladder operators, with deviations that carry exact closed forms
on number eigenstates: ||([beta, beta^dag] - 1) xi|| = (2/p) ||N_k xi||.
"""

import math

import numpy as np

from ccrlab import parafermi


def main():
    print("== exact structure at order p = 3, two modes (dim 64) ==")
    sys = parafermi.make_green_system(3, 2)
    print(f"  exact trilinear residual     = {parafermi.trilinear_defect(sys)}")
    print(f"  exact Green residual         = {parafermi.green_relation_residual(sys)}")
    b1 = parafermi.parafermi_op(sys, 1)
    out = b1.apply(b1.adjoint().apply(sys.vacuum))
    print(f"  b b^dag |0> = p |0> residual = {(out - 3.0 * sys.vacuum).norm():.2e}")

    print("\n== number operators and Fock states ==")
    state = parafermi.fock_state(sys, (2, 1))
    _, per_mode, _ = parafermi.number_ops(sys)
    n1 = (per_mode[0].apply(state) - 2.0 * state).norm()
    n2 = (per_mode[1].apply(state) - 1.0 * state).norm()
    print(f"  (2,1) state: mode-count residuals = {n1:.2e}, {n2:.2e}")
    try:
        parafermi.fock_state(parafermi.make_green_system(2, 1), (3,))
    except parafermi.ModeExclusionError as exc:
        print(f"  exclusion at work: {exc}")

    print("\n== deviations from the oscillator shrink like 1/p ==")
    print(f"  {'p':>4} {'unit defect':>12} {'exact 2/p':>10} {'norm error beta^dag^2|0>':>26}")
    for p in (2, 4, 8):
        sys = parafermi.make_green_system(p, 2)
        state = parafermi.fock_state(sys, (1, 1))
        checks = parafermi.normalized_ccr_checks(sys, 1, 1, state)
        raw = parafermi._unnormalized_beta_power_vacuum(sys, (2,))
        norm_err = abs(raw.norm() - math.sqrt(2.0))
        print(f"  {p:>4} {checks.unit_defect:>12.6f} {2.0 / p:>10.6f} {norm_err:>26.6f}")
    print("  ||beta^dag^2 |0>|| = sqrt(2 (1 - 1/p)) exactly, -> sqrt(2)")

    print("\n== the vacuum is the only annihilated ray in the ladder span ==")
    sys = parafermi.make_green_system(2, 2)
    kernel = parafermi.joint_annihilator_kernel(sys)
    span = parafermi.fock_span_basis(sys, 4)
    principal = np.linalg.svd(span.conj().T @ kernel, compute_uv=False)
    meeting = int(np.sum(principal > 1.0 - 1e-8))
    print(f"  full-register kernel dimension  = {kernel.shape[1]}")
    print(f"  intersections with the span     = {meeting} (the vacuum line)")
    worst, overlap = parafermi.vacuum_uniqueness_test(sys, sys.vacuum)
    print(f"  vacuum check: max ||beta_k |0>|| = {worst:.1f}, overlap = {overlap:.1f}")


if __name__ == "__main__":
    main()
