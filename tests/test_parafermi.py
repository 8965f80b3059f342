"""Order-p oscillator tests: component relations, ladder structure, limits."""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from ccrlab import parafermi
from ccrlab.linalg import (
    PauliString,
    PauliSumOperator,
    StateVector,
    anticommutator_apply,
    commutator_apply,
    random_state,
)
from ccrlab.pauli import PauliTerms, ResourceLimitError, _basis_index, bracket
from ccrlab.sweeps import EXIT_IDENTITY_FAILURE, SweepConfig, run_sweep


def views(sys):
    """The components' vector views, PauliSumOperator.from_terms."""
    return {
        key: PauliSumOperator.from_terms(c, sys.total_sites) for key, c in sys.components.items()
    }


def green_relation_worst(sys, rng, n_vectors=2):
    """Worst residual over every same-block and cross-block component relation."""
    dim = 1 << sys.total_sites
    vectors = [random_state(dim, rng) for _ in range(n_vectors)]
    worst = 0.0
    comps = views(sys)
    for (k, a), ck in comps.items():
        for (l, b), cl in comps.items():
            for xi in vectors:
                if a == b:
                    res = anticommutator_apply(ck, cl.adjoint(), xi)
                    target = xi if k == l else 0.0 * xi
                    worst = max(worst, (res - target).norm())
                    worst = max(worst, anticommutator_apply(ck, cl, xi).norm())
                else:
                    worst = max(worst, commutator_apply(ck, cl.adjoint(), xi).norm())
                    worst = max(worst, commutator_apply(ck, cl, xi).norm())
    return worst


def test_single_fermion_mode():
    sys = parafermi.make_green_system(1, 1)
    b = parafermi.parafermi_op(sys, 1)
    rng = np.random.default_rng(0)
    xi = random_state(2, rng)
    assert (anticommutator_apply(b, b.adjoint(), xi) - xi).norm() <= 1e-14
    assert b.apply(b.apply(xi)).norm() <= 1e-14


def test_vacuum_annihilated_by_every_component():
    sys = parafermi.make_green_system(3, 2)
    for comp in views(sys).values():
        assert comp.apply(sys.vacuum).norm() == 0.0


def test_vacuum_condition_order_two():
    sys = parafermi.make_green_system(2, 1)
    b = parafermi.parafermi_op(sys, 1)
    out = b.apply(b.adjoint().apply(sys.vacuum))
    assert (out - 2.0 * sys.vacuum).norm() <= 1e-12


def test_vacuum_condition_cross_modes():
    sys = parafermi.make_green_system(3, 2)
    for k in (1, 2):
        for l in (1, 2):
            out = parafermi.parafermi_op(sys, k).apply(
                parafermi.parafermi_op(sys, l).adjoint().apply(sys.vacuum)
            )
            target = (3.0 if k == l else 0.0) * sys.vacuum
            assert (out - target).norm() <= 1e-12


def test_green_relations_exhaustive_small():
    sys = parafermi.make_green_system(2, 2)
    dim = 16
    comps = views(sys)
    # dense check over the full basis
    for (k, a), ck in comps.items():
        for (l, b), cl in comps.items():
            mk, ml = ck.dense(), cl.dense()
            if a == b:
                target = np.eye(dim) if k == l else np.zeros((dim, dim))
                assert np.max(np.abs(mk @ ml.conj().T + ml.conj().T @ mk - target)) <= 1e-13
                assert np.max(np.abs(mk @ ml + ml @ mk)) <= 1e-13
            else:
                assert np.max(np.abs(mk @ ml.conj().T - ml.conj().T @ mk)) <= 1e-13
                assert np.max(np.abs(mk @ ml - ml @ mk)) <= 1e-13


@pytest.mark.parametrize("p,nu", [(1, 1), (2, 2), (3, 2), (4, 3)])
def test_green_relations_random_vectors(p, nu):
    sys = parafermi.make_green_system(p, nu)
    rng = np.random.default_rng(p * 10 + nu)
    assert green_relation_worst(sys, rng) <= 1e-12


GRID_UP_TO_8_SITES = [(p, nu) for p in range(1, 9) for nu in range(1, 9) if p * nu <= 8]


# the exact residuals read 0.0; the same relations on random vectors, the
# route they replaced, stay at rounding level


@pytest.mark.parametrize("p,nu", GRID_UP_TO_8_SITES)
def test_green_relation_residual_equals_state_vector_formula(p, nu):
    sys = parafermi.make_green_system(p, nu)
    assert parafermi.green_relation_residual(sys) == 0.0
    assert green_relation_worst(sys, np.random.default_rng(p * 10 + nu)) <= 1e-12


@pytest.mark.parametrize("p,nu", GRID_UP_TO_8_SITES)
def test_number_identity_residual_equals_state_vector_formula(p, nu):
    sys = parafermi.make_green_system(p, nu)
    _, per_mode, _ = parafermi.number_ops(sys)
    rng = np.random.default_rng(p * 10 + nu)
    vectors = [random_state(1 << sys.total_sites, rng) for _ in range(2)]
    want = 0.0
    for k in range(1, nu + 1):
        b_k = parafermi.parafermi_op(sys, k)
        for xi in vectors:
            lhs = 0.5 * (commutator_apply(b_k.adjoint(), b_k, xi) + float(p) * xi)
            want = max(want, (lhs - per_mode[k - 1].apply(xi)).norm())
    assert parafermi.number_identity_residual(sys) == 0.0
    assert want <= 1e-12


def test_number_identity_residual_forms_only_the_per_mode_number_operators(monkeypatch):
    # N_k is the sum of its p projectors' terms, number_ops' per-mode
    # expansion; N and the per-block N^(alpha) are not formed.  A component
    # scaled by 2 leaves a residual to compare with the number_ops route
    sys = parafermi.make_green_system(3, 2)
    components = dict(sys.components)
    components[(2, 1)] = 2 * sys.components[(2, 1)]
    broken = dataclasses.replace(sys, components=components)
    _, per_mode, _ = parafermi.number_ops(broken)
    p_one = PauliTerms({(0, 0): 3.0})
    want = max(
        (0.5 * (bracket(b_dag, b, -1) + p_one) - n_k.terms()).norm()
        for (b, b_dag), n_k in zip(broken.modes, per_mode)
    )

    def refuse(sys):
        raise AssertionError("number_ops builds N and every N^(alpha)")

    monkeypatch.setattr(parafermi, "number_ops", refuse)
    assert parafermi.number_identity_residual(broken) == want > 1.0
    assert parafermi.number_identity_residual(sys) == 0.0


def _pairwise_sum(parts) -> dict:
    """The old sum(parts, PauliTerms()): each step copies the dict and drops zeros."""
    out = {}
    for part in parts:
        out = dict(out)
        for key, c in part.items():
            out[key] = out.get(key, 0) + c
        out = {key: c for key, c in out.items() if c != 0}
    return out


def test_mode_sums_accumulate_in_one_dict(monkeypatch):
    # b_k, N_k and PauliSumOperator.terms each sum p parts; adding them
    # pairwise copied the growing dict every time, quadratic in p
    for p in range(1, 9):
        sys = parafermi.make_green_system(p, 2)
        _, per_mode, _ = parafermi.number_ops(sys)
        for k, (b_k, _) in enumerate(sys.modes, start=1):
            assert b_k == _pairwise_sum(sys.components[k, a] for a in range(1, p + 1))
            n_k = per_mode[k - 1]
            assert n_k.terms() == _pairwise_sum(s.terms() for s in n_k.strings)
    calls = []
    add = PauliTerms.__add__
    monkeypatch.setattr(PauliTerms, "__add__", lambda a, b: calls.append(1) or add(a, b))
    sys = parafermi.make_green_system(64, 2, site_cap=128)
    sys.modes
    assert calls == []
    assert parafermi.number_identity_residual(sys) == 0.0
    assert calls == []  # + p and - N_k go into the residual's dict in place


def test_green_relations_make_core_calls_linear_in_p(monkeypatch):
    # at modes = 1 every cross-block pair has disjoint supports and is
    # skipped whole; the parent made p(p + 1) bracket calls
    calls = []
    core = parafermi._pairs_into
    monkeypatch.setattr(parafermi, "_pairs_into", lambda *args: calls.append(1) or core(*args))
    sys = parafermi.make_green_system(64, 1, site_cap=64)
    assert parafermi.green_relation_residual(sys) == 0.0
    assert len(calls) == 2 * 64  # two brackets for each component with itself


def test_residuals_raise_on_an_infinite_coefficient():
    sys = parafermi.make_green_system(2, 2)
    components = dict(sys.components)
    components[(1, 1)] = np.inf * sys.components[(1, 1)]
    broken = dataclasses.replace(sys, components=components)
    with pytest.raises(ValueError, match="not finite"):
        parafermi.green_relation_residual(broken)
    with pytest.raises(ValueError, match="not finite"):
        parafermi.number_identity_residual(broken)


def test_a_wrong_relation_leaves_a_nonzero_residual():
    # {c, c^dag} = 0 is false: the exact residual is the identity, norm 1
    sys = parafermi.make_green_system(2, 2)
    c = sys.components[1, 1]
    assert bracket(c, c.adjoint(), +1).norm() == 1.0


def test_order_one_equals_single_component():
    sys = parafermi.make_green_system(1, 2)
    b = parafermi.parafermi_op(sys, 1)
    comp = views(sys)[1, 1]
    rng = np.random.default_rng(1)
    xi = random_state(4, rng)
    assert (b.apply(xi) - comp.apply(xi)).norm() == 0.0


@pytest.mark.parametrize("p,nu", list(product(range(1, 5), (1, 2, 3))))
def test_ladder_strings_expand_to_the_mode_sums(p, nu):
    # parafermi_op builds b_k from lowering labels on named sites; the
    # components are built from masks.  The two routes meet term for term
    sys = parafermi.make_green_system(p, nu)
    for k in range(1, nu + 1):
        assert parafermi.parafermi_op(sys, k).terms() == sys.modes[k - 1][0]


def test_creation_norm_on_vacuum():
    sys = parafermi.make_green_system(3, 1)
    created = parafermi.parafermi_op(sys, 1).adjoint().apply(sys.vacuum)
    assert abs(created.norm() - math.sqrt(3.0)) <= 1e-13


def test_distinct_mode_annihilators_commute_on_vacuum():
    sys = parafermi.make_green_system(3, 2)
    b1 = parafermi.parafermi_op(sys, 1)
    b2 = parafermi.parafermi_op(sys, 2)
    assert commutator_apply(b1, b2, sys.vacuum).norm() == 0.0


def test_mode_range_validated():
    sys = parafermi.make_green_system(2, 2)
    with pytest.raises(ValueError):
        parafermi.parafermi_op(sys, 3)


def test_site_cap_refusal_reports_bytes():
    with pytest.raises(ResourceLimitError, match="bytes"):
        parafermi.make_green_system(12, 2)


# ---------------------------------------------------------------------------
# trilinear relations


@pytest.mark.parametrize(
    "p,nu", [(p, nu) for p in (1, 2, 3) for nu in (1, 2, 3)]
)
def test_trilinear_relations_exact(p, nu):
    sys = parafermi.make_green_system(p, nu)
    assert parafermi.trilinear_defect(sys) == 0.0


def test_trilinear_matches_dense_oracle():
    # same residual computed with dense matrices at order 2, two modes
    sys = parafermi.make_green_system(2, 2)
    b = {k: parafermi.parafermi_op(sys, k).dense() for k in (1, 2)}
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in (1, 2):
        for l in (1, 2):
            for m in (1, 2):
                lhs = b[k] @ (b[l].conj().T @ b[m] - b[m] @ b[l].conj().T) - (
                    b[l].conj().T @ b[m] - b[m] @ b[l].conj().T
                ) @ b[k]
                rhs = (2.0 if k == l else 0.0) * b[m]
                worst = max(worst, np.max(np.abs(lhs - rhs)))
    assert worst <= 1e-12
    assert parafermi.trilinear_defect(sys) == 0.0


def test_trilinear_matrix_free_large_register():
    # a single relation checked on the 20-site register, matrix free
    sys = parafermi.make_green_system(10, 2)
    rng = np.random.default_rng(7)
    dim = 1 << 20
    xi = random_state(dim, rng)
    b1 = parafermi.parafermi_op(sys, 1)
    b2 = parafermi.parafermi_op(sys, 2)
    inner = commutator_apply(b2.adjoint(), b1, xi)
    lhs = b1.apply(inner) - commutator_apply(b2.adjoint(), b1, b1.apply(xi))
    assert lhs.norm() <= 1e-10  # k=1, l=2: delta_kl = 0


# ---------------------------------------------------------------------------
# number operators


def test_number_operator_annihilates_vacuum():
    sys = parafermi.make_green_system(2, 2)
    every, per_mode, per_block = parafermi.number_ops(sys)
    assert every.apply(sys.vacuum).norm() == 0.0
    for op in per_mode + per_block:
        assert op.apply(sys.vacuum).norm() == 0.0


def test_number_ladder_on_single_excitation():
    sys = parafermi.make_green_system(2, 1)
    every, _, _ = parafermi.number_ops(sys)
    created = parafermi.parafermi_op(sys, 1).adjoint().apply(sys.vacuum)
    assert (every.apply(created) - created).norm() <= 1e-12


def test_number_eigenvalue_counts_occupied_sites():
    sys = parafermi.make_green_system(2, 2)
    every, _, _ = parafermi.number_ops(sys)
    rng = np.random.default_rng(3)
    for _ in range(5):
        index = int(rng.integers(0, 16))
        basis = StateVector.basis(16, index)
        occupied = 4 - bin(index).count("1")  # bit 0 means occupied
        assert (every.apply(basis) - float(occupied) * basis).norm() <= 1e-13


def test_number_identity_and_commutation():
    sys = parafermi.make_green_system(3, 2)
    _, per_mode, _ = parafermi.number_ops(sys)
    rng = np.random.default_rng(4)
    dim = 1 << 6
    for k in (1, 2):
        b_k = parafermi.parafermi_op(sys, k)
        for _ in range(3):
            xi = random_state(dim, rng)
            comm = commutator_apply(b_k.adjoint(), b_k, xi)
            lhs = 0.5 * (comm + 3.0 * xi)
            assert (lhs - per_mode[k - 1].apply(xi)).norm() <= 1e-10
    xi = random_state(dim, rng)
    assert commutator_apply(per_mode[0], per_mode[1], xi).norm() <= 1e-13


def test_number_ladder_relations():
    sys = parafermi.make_green_system(3, 2)
    _, per_mode, _ = parafermi.number_ops(sys)
    rng = np.random.default_rng(6)
    dim = 1 << 6
    for k in (1, 2):
        n_k = per_mode[k - 1]
        b_k = parafermi.parafermi_op(sys, k)
        b_k_dag = b_k.adjoint()
        for _ in range(3):
            xi = random_state(dim, rng)
            lhs = n_k.apply(b_k.apply(xi))
            rhs = b_k.apply(n_k.apply(xi) - xi)
            assert (lhs - rhs).norm() <= 1e-10
            lhs = n_k.apply(b_k_dag.apply(xi))
            rhs = b_k_dag.apply(n_k.apply(xi) + xi)
            assert (lhs - rhs).norm() <= 1e-10


def test_component_number_identities():
    # per component: b^dag b projects onto the occupied site, b b^dag onto
    # the empty one
    sys = parafermi.make_green_system(3, 2)
    rng = np.random.default_rng(14)
    dim = 1 << 6
    for (k, alpha), comp in views(sys).items():
        proj = PauliSumOperator(
            [PauliString(1.0, [(sys.site(k, alpha), "N")], sys.total_sites)]
        )
        for _ in range(2):
            xi = random_state(dim, rng)
            lhs = comp.adjoint().apply(comp.apply(xi))
            assert (lhs - proj.apply(xi)).norm() <= 1e-10
            lhs = comp.apply(comp.adjoint().apply(xi))
            assert (lhs - (xi - proj.apply(xi))).norm() <= 1e-10


def test_block_number_sums_to_total():
    sys = parafermi.make_green_system(2, 2)
    every, per_mode, per_block = parafermi.number_ops(sys)
    rng = np.random.default_rng(8)
    xi = random_state(16, rng)
    from_modes = per_mode[0].apply(xi) + per_mode[1].apply(xi)
    from_blocks = per_block[0].apply(xi) + per_block[1].apply(xi)
    assert (every.apply(xi) - from_modes).norm() <= 1e-13
    assert (every.apply(xi) - from_blocks).norm() <= 1e-13


# ---------------------------------------------------------------------------
# Fock states


def test_fock_empty_label_is_vacuum():
    sys = parafermi.make_green_system(2, 2)
    state = parafermi.fock_state(sys, (0, 0))
    assert (state - sys.vacuum).norm() == 0.0


def test_fock_exclusion_names_offending_mode():
    sys = parafermi.make_green_system(2, 1)
    with pytest.raises(parafermi.ModeExclusionError, match="mode 1"):
        parafermi.fock_state(sys, (3,))


def test_fock_number_eigenvalues():
    sys = parafermi.make_green_system(4, 2)
    state = parafermi.fock_state(sys, (2, 1))
    _, per_mode, _ = parafermi.number_ops(sys)
    assert (per_mode[0].apply(state) - 2.0 * state).norm() <= 1e-10
    assert (per_mode[1].apply(state) - 1.0 * state).norm() <= 1e-10


def test_fock_states_orthonormal():
    sys = parafermi.make_green_system(3, 2)
    labels = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    states = [parafermi.fock_state(sys, lab) for lab in labels]
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert abs(si.inner(sj) - expected) <= 1e-10


def test_fock_caps_validated():
    sys = parafermi.make_green_system(2, 2)
    with pytest.raises(ValueError):
        parafermi.fock_state(sys, (4, 3))  # beyond excitation cap
    with pytest.raises(ValueError):
        parafermi.fock_state(sys, (1, 1, 1))  # too many modes
    with pytest.raises(ValueError):
        parafermi.FockLabel((-1, 0))


# ---------------------------------------------------------------------------
# normalized-mode CCR defects


def test_normalized_checks_on_vacuum():
    sys = parafermi.make_green_system(4, 2)
    checks = parafermi.normalized_ccr_checks(sys, 1, 2, sys.vacuum)
    assert checks.cross_defect <= 1e-13
    assert checks.cross_dagger_defect <= 1e-13
    assert checks.unit_defect <= 1e-13
    assert checks.ladder_defect <= 1e-13


def test_unit_defect_exact_value_on_number_eigenstate():
    # on a one-excitation state the deviation from [beta, beta^dag] = 1
    # is exactly 2/p
    for p in (8, 16):
        sys = parafermi.make_green_system(p, 1)
        state = parafermi.fock_state(sys, (1,))
        checks = parafermi.normalized_ccr_checks(sys, 1, 1, state)
        assert checks.cross_defect is None
        assert abs(checks.unit_defect - 2.0 / p) <= 1e-12
        assert abs(checks.unit_defect_exact - 2.0 / p) <= 1e-12
        assert checks.unit_defect <= checks.unit_defect_bound + 1e-12


def test_unit_defect_proof_identity_squared():
    # ([beta,beta^dag] - 1)^2 xi equals (4/p^2)(sum of mode projectors)^2 xi
    sys = parafermi.make_green_system(3, 2)
    rng = np.random.default_rng(9)
    dim = 1 << 6
    beta = parafermi.normalized_op(sys, 1)
    beta_dag = beta.adjoint()
    _, per_mode, _ = parafermi.number_ops(sys)
    n1 = per_mode[0]
    for _ in range(4):
        xi = random_state(dim, rng)
        once = commutator_apply(beta, beta_dag, xi) - xi
        twice = commutator_apply(beta, beta_dag, once) - once
        target = (4.0 / 9.0) * n1.apply(n1.apply(xi))
        assert (twice - target).norm() <= 1e-10


def test_ladder_defect_second_power_on_vacuum():
    # beta beta^dag^2 |0> = (2 - 2/p) beta^dag |0>, so the residual against
    # the bose value 2 beta^dag |0> is exactly 2/p
    for p in (4, 8):
        sys = parafermi.make_green_system(p, 1)
        checks = parafermi.normalized_ccr_checks(sys, 1, 1, sys.vacuum, ladder_order=2)
        assert abs(checks.ladder_defect - 2.0 / p) <= 1e-12


def test_cross_defects_shrink_with_order():
    sys_small = parafermi.make_green_system(2, 2)
    sys_large = parafermi.make_green_system(8, 2)
    state_small = parafermi.fock_state(sys_small, (1, 1))
    state_large = parafermi.fock_state(sys_large, (1, 1))
    small = parafermi.normalized_ccr_checks(sys_small, 1, 2, state_small)
    large = parafermi.normalized_ccr_checks(sys_large, 1, 2, state_large)
    assert large.unit_defect < small.unit_defect
    assert large.cross_defect <= small.cross_defect + 1e-12
    assert large.cross_dagger_defect <= small.cross_dagger_defect + 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
def test_unit_defect_does_not_depend_on_the_second_mode(p):
    # the unit figure of the vector route reads mode k alone
    sys = parafermi.make_green_system(p, 2)
    xi = parafermi.fock_state(sys, (1, 1))
    for state in (sys.vacuum, xi, random_state(1 << sys.total_sites, np.random.default_rng(p))):
        same = parafermi.normalized_ccr_checks(sys, 1, 1, state)
        other = parafermi.normalized_ccr_checks(sys, 1, 2, state)
        assert same.unit_defect == other.unit_defect


# ---------------------------------------------------------------------------
# Fock ladder behavior


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("modes", [1, 2])
def test_fock_norm_error_is_the_ladder_report_figure(p, modes):
    sys = parafermi.make_green_system(p, modes)
    for label in product(range(min(p, 2) + 1), repeat=modes):
        report = parafermi.fock_ladder_checks(sys, label)
        assert parafermi.fock_norm_error(sys, label) == report.norm_error


def _dense(state, dim):
    vec = np.zeros(dim, dtype=complex)
    for n, a in state.items():
        vec[n] = a
    return vec


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("modes", [1, 2])
def test_sparse_creation_powers_are_the_register_vectors(p, modes):
    # b^dag has coefficients +-1 and +-i on basis states, so both routes are exact
    sys = parafermi.make_green_system(p, modes)
    for label in product(range(min(p + 1, 3) + 1), repeat=modes):
        vec = sys.vacuum
        for k in range(modes, 0, -1):
            for _ in range(label[k - 1]):
                vec = parafermi.parafermi_op(sys, k).adjoint().apply(vec)
        state = parafermi._creation_power_vacuum(sys, label)
        assert np.array_equal(_dense(state, 1 << sys.total_sites), vec.components)
        assert parafermi._squared_norm(state) == round(vec.norm() ** 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("modes", [1, 2])
def test_vacuum_condition_is_exact_and_matches_the_register(p, modes):
    sys = parafermi.make_green_system(p, modes)
    assert parafermi.vacuum_condition_residual(sys) == 0.0
    for k, l in product(range(1, modes + 1), repeat=2):
        b_k = parafermi.parafermi_op(sys, k)
        out = b_k.apply(parafermi.parafermi_op(sys, l).adjoint().apply(sys.vacuum))
        assert (out - (float(p) if k == l else 0.0) * sys.vacuum).norm() == 0.0


def test_sparse_states_past_60_sites_fall_in_distinct_hash_classes():
    # an int hashes as its value mod 2**61 - 1: keyed by the index itself,
    # the 1024 one-hole states at 1024 sites would share 61 hash classes
    sys = parafermi.make_green_system(1024, 1, site_cap=4096)
    _, creator = sys.modes[0]
    one = creator.act(parafermi._vacuum(sys))
    assert {_basis_index(key) for key in one} == {(1 << 1024) - 1 - (1 << a) for a in range(1024)}
    # the two-hole states raised from a sample of the one-hole states
    two = creator.act(dict(list(one.items())[:8]))
    assert len(two) == 8 * 1023 - 28
    for state in (one, two):
        assert len({hash(key) for key in state}) == len(state)
    # and every coefficient stays exact: S = 2 p (p - 1)
    sys = parafermi.make_green_system(256, 1, site_cap=4096)
    assert parafermi._squared_norm(parafermi._creation_power_vacuum(sys, (2,))) == 2 * 256 * 255


def test_a_broken_component_fails_the_vacuum_condition():
    sys = parafermi.make_green_system(2, 1)
    components = dict(sys.components)
    # a raising site where the lowering one belongs
    components[(1, 2)] = PauliString(1j, [(2, "+")], 2).terms()
    broken = dataclasses.replace(sys, components=components)
    assert parafermi.vacuum_condition_residual(broken) > 0.5


def _scale_every_component(monkeypatch, factor):
    build = parafermi.make_green_system

    def scaled(p, nu, site_cap):
        sys = build(p, nu, site_cap=site_cap)
        components = {
            key: PauliTerms({k: c * factor for k, c in terms.items()})
            for key, terms in sys.components.items()
        }
        return dataclasses.replace(sys, components=components)

    monkeypatch.setattr(parafermi, "make_green_system", scaled)


def test_components_scaled_off_by_1e_11_fail_the_exact_records_without_raising(monkeypatch):
    # each scaled component leaves coefficients that are not Gaussian
    # integers; the vacuum condition reads their float norm, as the other
    # exact relations do, so the run ends in failing records and exit 1
    _scale_every_component(monkeypatch, 1 + 1e-11)
    records, status = run_sweep(SweepConfig(experiment="parafermi", parafermi_orders=(1,), mode_list=(1,)))
    assert status == EXIT_IDENTITY_FAILURE
    figures = {r.defect: r.measured for r in records}
    assert figures == pytest.approx(
        {"green-relations": 2.0e-11, "trilinear-relations": 2.0 * 2**0.5 * 1e-11,
         "vacuum-condition": 2.0e-11, "number-identity": 1.0e-11},
        rel=1e-6,
    )
    assert all(r.bound == 0.0 and not r.passed for r in records)


def test_components_scaled_off_by_1e_11_fail_at_every_default_grid_point(monkeypatch):
    # the Fock figures (fock-norm-error at p >= 2, the unit defect at
    # modes >= 2) then take a float squared norm: each grid point writes
    # finite figures and exits 1, and no exception leaves run_sweep
    _scale_every_component(monkeypatch, 1 + 1e-11)
    grid = SweepConfig(experiment="parafermi")
    for p, modes in product(grid.parafermi_orders, grid.mode_list):
        records, status = run_sweep(SweepConfig(experiment="parafermi", parafermi_orders=(p,), mode_list=(modes,)))
        assert status == EXIT_IDENTITY_FAILURE, (p, modes)
        assert all(math.isfinite(r.measured) for r in records), (p, modes)
        defects = {r.defect for r in records}
        assert ("fock-norm-error" in defects, "normalized-unit-defect" in defects) == (p >= 2, modes >= 2)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("modes", [1, 2])
def test_sparse_unit_defect_matches_the_register(p, modes):
    sys = parafermi.make_green_system(p, modes)
    for label in product(range(min(p, 2) + 1), repeat=modes):
        want = parafermi.normalized_ccr_checks(sys, 1, 1, parafermi.fock_state(sys, label))
        # exactly (2/p) n_1, which the register route meets to rounding
        assert parafermi.unit_defect(sys, label) == 2.0 * label[0] / p
        assert abs(parafermi.unit_defect(sys, label) - want.unit_defect) <= 1e-14


def test_unit_defect_refuses_a_label_past_the_order():
    sys = parafermi.make_green_system(2, 2)
    with pytest.raises(parafermi.ModeExclusionError):
        parafermi.unit_defect(sys, (3, 0))


@pytest.mark.parametrize("check", [parafermi.fock_norm_error, parafermi.unit_defect])
def test_exact_fock_checks_refuse_a_label_with_more_modes_than_the_system(check):
    # the same refusal as the state-vector route, not an IndexError
    sys = parafermi.make_green_system(2, 1)
    with pytest.raises(ValueError, match="label has 2 modes, system has 1"):
        parafermi.fock_state(sys, (1, 1))
    with pytest.raises(ValueError, match="label has 2 modes, system has 1"):
        check(sys, (1, 1))


def test_squared_norm_is_an_exact_int_only_for_gaussian_integers():
    exact = parafermi._squared_norm({0: 3 + 4j, 5: -1.0})
    assert exact == 26 and type(exact) is int
    rounded = parafermi._squared_norm({0: 3 + 4j, 5: 0.5})
    assert rounded == 25.25 and type(rounded) is float


def test_fock_norm_error_is_within_an_ulp_of_the_closed_form():
    # ||beta^dag^2 |0>|| = sqrt(2 (p - 1) / p), so the error is
    # sqrt 2 - sqrt(2 (p - 1) / p), about 0.7071 / p: a cancellation the
    # exact numerator avoids; the oracle carries 50 digits
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for p in range(1, parafermi.DEFAULT_SITE_CAP + 1):
        sys = parafermi.make_green_system(p, 1)
        want = mpmath.sqrt(2) - mpmath.sqrt(mpmath.mpf(2 * (p - 1)) / p)
        got = parafermi.fock_norm_error(sys, (2,))
        assert abs(mpmath.mpf(got) - want) <= math.ulp(float(want)), p


def test_single_excitation_norm_exact():
    for p in (2, 5, 8):
        sys = parafermi.make_green_system(p, 1)
        report = parafermi.fock_ladder_checks(sys, (1,))
        assert report.norm_error <= 1e-13


def test_double_excitation_norm_closed_form():
    # ||beta^dag^2 |0>|| = sqrt(2 (1 - 1/p)); p = 8 gives sqrt(1.75)
    for p in (2, 4, 8):
        sys = parafermi.make_green_system(p, 1)
        raw = parafermi._unnormalized_beta_power_vacuum(sys, (2,))
        assert abs(raw.norm() - math.sqrt(2.0 * (1.0 - 1.0 / p))) <= 1e-12
    sys = parafermi.make_green_system(8, 1)
    raw = parafermi._unnormalized_beta_power_vacuum(sys, (2,))
    assert abs(raw.norm() - 1.3228756555322954) <= 1e-12


def test_cross_mode_pair_norm_exact():
    # one excitation in each of two distinct modes: norm 1 at every order
    for p in (2, 3, 8):
        sys = parafermi.make_green_system(p, 2)
        raw = parafermi._unnormalized_beta_power_vacuum(sys, (1, 1))
        assert abs(raw.norm() - 1.0) <= 1e-12


def test_fock_ladder_defects_shrink_with_order():
    # every reported defect decreases as the order grows, except entries
    # that are exactly zero at small order (exclusion artifacts), which are
    # skipped from the comparison
    for label in ((1,), (2,), (1, 1)):
        nu = len(label)
        reports = [
            parafermi.fock_ladder_checks(parafermi.make_green_system(p, nu), label)
            for p in (2, 4, 8)
        ]
        series = [[r.norm_error for r in reports]]
        for k in range(nu):
            series.append([r.number_defect[k] for r in reports])
            series.append([r.inverse_defect[k] for r in reports])
            series.append([r.raise_defect[k] for r in reports])
            series.append([r.lower_defect[k] for r in reports])
        for seq in series:
            live = [v for v in seq if v > 1e-12]
            assert all(live[i + 1] < live[i] + 1e-12 for i in range(len(live) - 1)), (
                label,
                seq,
            )


def test_fock_ladder_number_defect_closed_form():
    # on b_1^dag b_2^dag |0> the mode-2 number defect is not small at finite
    # order; it follows the exact value sqrt(16(p-1)^2 + 4(p-2)^2(p-1))/p^2,
    # about 2/sqrt(p), while mode 1 (applied last) is exact
    for p in (2, 4, 8):
        sys = parafermi.make_green_system(p, 2)
        report = parafermi.fock_ladder_checks(sys, (1, 1))
        assert report.number_defect[0] <= 1e-12
        closed = math.sqrt(16 * (p - 1) ** 2 + 4 * (p - 2) ** 2 * (p - 1)) / p**2
        assert abs(report.number_defect[1] - closed) <= 1e-12
        assert max(report.lower_defect) <= closed + 1e-12


# ---------------------------------------------------------------------------
# emergence of the bose relations


def _pair_defect_bounds(sys, xi, k):
    """Proof-level bounds for the two cross commutator defects, k != l.

    ||[beta_k, beta_l] xi||      <= (2/p) sum_alpha sqrt(<xi| N^(alpha) |xi> / 2)
    ||[beta_k, beta_l^dag] xi||  <= (2/p) sum_alpha sqrt(<xi| N_k^(alpha) |xi>)

    The second follows from (b_k b_l^dag)^dag (b_k b_l^dag) reducing to
    N_k (1 - N_l) componentwise; the annihilated mode k sets the bound.
    """
    from ccrlab.linalg import PauliString, PauliSumOperator

    _, _, per_block = parafermi.number_ops(sys)
    plain = 0.0
    dagger = 0.0
    for alpha in range(1, sys.p + 1):
        block_mean = xi.inner(per_block[alpha - 1].apply(xi)).real
        plain += math.sqrt(max(block_mean, 0.0) / 2.0)
        mode_proj = PauliSumOperator(
            [PauliString(1.0, [(sys.site(k, alpha), "N")], sys.total_sites)]
        )
        dagger += math.sqrt(max(xi.inner(mode_proj.apply(xi)).real, 0.0))
    return (2.0 / sys.p) * plain, (2.0 / sys.p) * dagger


def test_bose_emergence_monotone_and_bounded():
    # defects of [beta_k, beta_l] and [beta_k, beta_l^dag] - delta on fixed
    # low-excitation states stay below the (2/p)-type proof bounds and shrink
    # as the order grows; an exact zero at small order (an exclusion
    # artifact, e.g. [beta_2, beta_1^dag] on the (2,1) state at order 2) is
    # excluded from the monotonicity comparison
    labels = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    orders = (2, 4, 8)
    systems = {p: parafermi.make_green_system(p, 2) for p in orders}
    for label in labels:
        for k, l in ((1, 2), (2, 1), (1, 1)):
            cross, cross_dag, units = [], [], []
            for p in orders:
                sys = systems[p]
                xi = parafermi.fock_state(sys, label)
                checks = parafermi.normalized_ccr_checks(sys, k, l, xi)
                if k != l:
                    bound_plain, bound_dagger = _pair_defect_bounds(sys, xi, k)
                    assert checks.cross_defect <= bound_plain + 1e-12
                    assert checks.cross_dagger_defect <= bound_dagger + 1e-12
                    cross.append(checks.cross_defect)
                    cross_dag.append(checks.cross_dagger_defect)
                units.append((checks.unit_defect, checks.unit_defect_bound))
            for seq in (cross, cross_dag):
                live = [v for v in seq if v > 1e-12]
                assert all(
                    live[i + 1] <= live[i] + 1e-12 for i in range(len(live) - 1)
                )
            for defect, bound in units:
                assert defect <= bound + 1e-12


def test_span_of_creation_monomials_invariant():
    sys = parafermi.make_green_system(3, 2)
    inner_basis = parafermi.fock_span_basis(sys, 2)
    outer_basis = parafermi.fock_span_basis(sys, 3)
    rng = np.random.default_rng(11)
    dim = 1 << 6
    ops = []
    for k in (1, 2):
        ops.append(parafermi.normalized_op(sys, k))
        ops.append(parafermi.normalized_op(sys, k).adjoint())
    for _ in range(4):
        coeffs = rng.standard_normal(inner_basis.shape[1])
        vec = StateVector(dim, inner_basis @ coeffs).normalized()
        for op in ops:
            image = op.apply(vec).components
            residual = image - outer_basis @ (outer_basis.conj().T @ image)
            assert np.linalg.norm(residual) <= 1e-10


def test_vacuum_uniqueness_probe():
    sys = parafermi.make_green_system(8, 1)
    worst, overlap = parafermi.vacuum_uniqueness_test(sys, sys.vacuum)
    assert worst == 0.0 and abs(overlap - 1.0) <= 1e-12
    one = parafermi.fock_state(sys, (1,))
    worst, overlap = parafermi.vacuum_uniqueness_test(sys, one)
    assert abs(worst - 1.0) <= 1e-12 and overlap <= 1e-12
    mixed = StateVector(2 ** 8, (sys.vacuum.components + one.components) / math.sqrt(2.0))
    worst, overlap = parafermi.vacuum_uniqueness_test(sys, mixed)
    assert abs(worst - 1.0 / math.sqrt(2.0)) <= 1e-12
    assert abs(overlap - 1.0 / math.sqrt(2.0)) <= 1e-12
    with pytest.raises(ValueError):
        parafermi.vacuum_uniqueness_test(sys, 2.0 * sys.vacuum)


def test_states_far_from_vacuum_keep_annihilation_energy():
    # contrapositive probe: unit vectors in the monomial span orthogonal to
    # the vacuum never have all annihilation defects small
    sys = parafermi.make_green_system(4, 2)
    basis = parafermi.fock_span_basis(sys, 3)
    # remove the vacuum direction
    overlaps = basis.conj().T @ sys.vacuum.components
    reduced = basis @ (np.eye(basis.shape[1]) - np.outer(overlaps, overlaps.conj()))
    q, s, _ = np.linalg.svd(reduced, full_matrices=False)
    ortho = q[:, s > 1e-10]
    betas = [parafermi.normalized_op(sys, k).dense() for k in (1, 2)]
    stacked = np.vstack([b @ ortho for b in betas])
    smallest = np.linalg.svd(stacked, compute_uv=False)[-1]
    # max_k ||beta_k xi|| >= ||stacked xi|| / sqrt(2) >= smallest / sqrt(2);
    # the measured floor at this size is 1/2 up to rounding
    assert smallest / math.sqrt(2.0) > 0.45


def test_joint_kernel_contains_vacuum_and_meets_span_only_there():
    for p, nu in ((2, 1), (2, 2), (3, 2)):
        sys = parafermi.make_green_system(p, nu)
        kernel = parafermi.joint_annihilator_kernel(sys)
        # vacuum inside the kernel
        proj = kernel @ (kernel.conj().T @ sys.vacuum.components)
        assert np.linalg.norm(proj - sys.vacuum.components) <= 1e-10
        # intersection with the creation-monomial span is the vacuum line
        span = parafermi.fock_span_basis(sys, min(p * nu, 4))
        principal = np.linalg.svd(span.conj().T @ kernel, compute_uv=False)
        assert np.sum(principal > 1.0 - 1e-8) == 1


def test_joint_kernel_larger_than_vacuum_line_off_span():
    # on the full register the common kernel is generally bigger than the
    # vacuum line; the extra directions live outside the monomial span
    sys = parafermi.make_green_system(2, 1)
    kernel = parafermi.joint_annihilator_kernel(sys)
    assert kernel.shape[1] == 2
