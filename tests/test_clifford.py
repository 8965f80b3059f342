"""Generator-family tests: anticommutation, pair products, block sums."""

import itertools

import numpy as np
import pytest

from ccrlab import clifford
from ccrlab.linalg import (
    PauliSumOperator,
    StateVector,
    anticommutator_apply,
    commutator_apply,
    random_state,
)
from ccrlab.pauli import TOL_EXACT, PauliTerms, ResourceLimitError
from ccrlab.sweeps import EXIT_IDENTITY_FAILURE, SweepConfig, run_sweep

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def views(fam):
    """The generators' vector views, PauliSumOperator.from_terms."""
    return [PauliSumOperator.from_terms(g, fam.nu) for g in fam.gammas]


def test_single_site_family():
    gammas = views(clifford.make_gammas(1))
    np.testing.assert_allclose(gammas[0].dense(), SY, atol=1e-15)
    np.testing.assert_allclose(gammas[1].dense(), -SX, atol=1e-15)
    np.testing.assert_allclose(gammas[2].dense(), SZ, atol=1e-15)


def test_invalid_register_rejected():
    with pytest.raises(ValueError):
        clifford.make_gammas(0)


def test_register_over_the_site_cap_is_refused():
    clifford.make_gammas(4, site_cap=4)
    with pytest.raises(ResourceLimitError, match="5 sites need 16 \\* 2\\*\\*5 bytes"):
        clifford.make_gammas(5, site_cap=4)
    # the need is written as a power, so a huge register forms no huge integer
    with pytest.raises(ResourceLimitError, match=f"16 \\* 2\\*\\*{2**40} bytes"):
        clifford.make_gammas(2**40)


def test_two_site_anticommutator_example():
    gammas = views(clifford.make_gammas(2))
    rng = np.random.default_rng(0)
    for _ in range(3):
        xi = random_state(4, rng)
        assert anticommutator_apply(gammas[0], gammas[3], xi).norm() <= 1e-12


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6])
def test_gamma_relations_exhaustive_dense(nu):
    dim = 1 << nu
    mats = [g.dense() for g in views(clifford.make_gammas(nu))]
    eye = np.eye(dim)
    for i, a in enumerate(mats):
        np.testing.assert_allclose(a.conj().T, a, atol=1e-14)  # hermitian
        np.testing.assert_allclose(a @ a, eye, atol=1e-14)  # unitary involution
        for b in mats[i + 1 :]:
            np.testing.assert_allclose(a @ b + b @ a, np.zeros((dim, dim)), atol=1e-14)


@pytest.mark.parametrize("nu", [10, 16])
def test_gamma_relations_random_vector_matrix_free(nu):
    gammas = views(clifford.make_gammas(nu))
    dim = 1 << nu
    rng = np.random.default_rng(nu)
    vectors = [random_state(dim, rng) for _ in range(2)]
    n_gen = 2 * nu + 1
    for i in range(n_gen):
        gi = gammas[i]
        for xi in vectors:
            assert (gi.apply(gi.apply(xi)) - xi).norm() <= 1e-12
        for j in range(i + 1, n_gen):
            gj = gammas[j]
            for xi in vectors:
                assert anticommutator_apply(gi, gj, xi).norm() <= 1e-12


@pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6])
def test_relation_residuals_equal_state_vector_formulas(nu):
    # the exact residuals read 0.0; the same relations on random vectors,
    # the route they replaced, stay at rounding level
    fam = clifford.make_gammas(nu)
    basis = clifford.so_n_basis(fam)
    dim = 1 << nu
    rng = np.random.default_rng(40 + nu)
    vectors = [random_state(dim, rng) for _ in range(2)]
    keys = sorted(basis)
    samples = [
        (keys[rng.integers(0, len(keys))], keys[rng.integers(0, len(keys))]) for _ in range(6)
    ]

    square = anti = closure = 0.0
    gammas = views(fam)
    for i, gi in enumerate(gammas):
        for xi in vectors:
            square = max(square, (gi.apply(gi.apply(xi)) - xi).norm())
        for gj in gammas[i + 1:]:
            for xi in vectors:
                anti = max(anti, anticommutator_apply(gi, gj, xi).norm())
    for (i, j), (k, l) in samples:
        for xi in vectors:
            lhs = commutator_apply(basis[(i, j)], basis[(k, l)], xi).components
            rhs = np.zeros(dim, dtype=complex)
            for a, b, c in clifford.bracket_expansion(i, j, k, l):
                rhs += c * basis[(a, b)].apply(xi).components
            closure = max(closure, StateVector(dim, lhs - rhs).norm())

    assert clifford.relation_residuals(fam, samples) == (0.0, 0.0, 0.0)
    assert max(square, anti, closure) <= 1e-12


def test_relation_residuals_raise_on_an_infinite_coefficient():
    fam = clifford.make_gammas(3)
    ((first, _),) = fam.gammas[0].items()
    broken = clifford.GammaFamily(3, (PauliTerms({first: np.inf}),) + fam.gammas[1:])
    with pytest.raises(ValueError, match="not finite"):
        clifford.relation_residuals(broken, [])


def test_a_perturbed_structure_constant_leaves_a_closure_residual(monkeypatch):
    fam = clifford.make_gammas(3)
    sample = [((1, 2), (2, 3))]
    assert clifford.relation_residuals(fam, sample)[2] == 0.0
    ((a, b, c),) = clifford.bracket_expansion(1, 2, 2, 3)
    monkeypatch.setattr(clifford, "bracket_expansion", lambda *_: ((a, b, c * (1 + 2**-20)),))
    assert clifford.relation_residuals(fam, sample)[2] == abs(c) * 2**-20


def _doubling(branch):
    """bracket_expansion with the constants of one delta branch doubled.

    Two ordered pairs that differ meet in at most one branch, and an
    identical pair has no constants, so doubling every constant of a bracket
    whose pairs meet there doubles exactly that branch's.
    """
    original = clifford.bracket_expansion

    def mutant(i, j, k, l):
        meets = {"jk": j == k, "jl": j == l, "ik": i == k, "il": i == l}[branch]
        return tuple((a, b, 2 * c if meets else c) for a, b, c in original(i, j, k, l))

    return mutant


@pytest.mark.parametrize("branch", ["jk", "jl", "ik", "il"])
def test_a_doubled_branch_of_the_structure_constants_fails_the_sweep_at_every_size(monkeypatch, branch):
    # the battery's bracket set reaches every branch at every nu, whatever
    # the seed, with at most 20 brackets per grid point
    counts = []
    residuals = clifford.relation_residuals

    def counting(family, samples):
        counts.append(len(samples))
        return residuals(family, samples)

    monkeypatch.setattr(clifford, "relation_residuals", counting)
    monkeypatch.setattr(clifford, "bracket_expansion", _doubling(branch))
    nus = (1, 2, 3, 4, 5, 6, 8, 12, 14, 16)
    for seed in (1, 3, 5):
        records, status = run_sweep(SweepConfig(experiment="clifford", clifford_nu_list=nus, seed=seed))
        closure = {r.params["nu"]: r.passed for r in records if r.defect == "so-bracket-closure"}
        assert closure == dict.fromkeys(nus, False)
        assert status == EXIT_IDENTITY_FAILURE
    assert len(counts) == 3 * len(nus) and max(counts) <= 20


def test_generators_scaled_off_by_one_ulp_fail_the_sweep_at_every_size(monkeypatch):
    # g_i (1 + 2**-52) squares to 1 + 2**-51, and a bracket of its pair
    # products is off by 2**-50; the exact records are held to 0.0, so
    # figures of 4.4e-16 and 8.9e-16 fail, where the old tolerances passed them
    build = clifford.make_gammas

    def scaled(nu, site_cap):
        family = build(nu, site_cap=site_cap)
        gammas = (PauliTerms({k: c * (1 + 2**-52) for k, c in g.items()}) for g in family.gammas)
        return clifford.GammaFamily(nu, tuple(gammas))

    monkeypatch.setattr(clifford, "make_gammas", scaled)
    records, status = run_sweep(SweepConfig(experiment="clifford"))
    assert status == EXIT_IDENTITY_FAILURE
    nus = SweepConfig().clifford_nu_list
    for defect in ("gamma-square", "so-bracket-closure"):
        rows = [r for r in records if r.defect == defect]
        assert {r.params["nu"]: r.passed for r in rows} == dict.fromkeys(nus, False)
        assert 0.0 < max(r.measured for r in rows) <= 8.9e-16 < TOL_EXACT


def test_gamma_relations_sampled_at_twenty_sites():
    nu = 20
    gammas = views(clifford.make_gammas(nu))
    dim = 1 << nu
    rng = np.random.default_rng(20)
    xi = random_state(dim, rng)
    pairs = {tuple(sorted(rng.integers(0, 2 * nu + 1, 2))) for _ in range(40)}
    for i, j in pairs:
        gi, gj = gammas[i], gammas[j]
        if i == j:
            assert (gi.apply(gi.apply(xi)) - xi).norm() <= 1e-12
        else:
            assert anticommutator_apply(gi, gj, xi).norm() <= 1e-12


def test_unit_imaginary_rescaling_gives_clifford_relations():
    # e_i = i gamma_i: squares to -1 and anticommutes pairwise
    gammas = views(clifford.make_gammas(2))
    rng = np.random.default_rng(1)
    for i in (0, 2, 4):
        ei = gammas[i].scaled(1j)
        xi = random_state(4, rng)
        assert (ei.apply(ei.apply(xi)) + xi).norm() <= 1e-12
    e1 = gammas[0].scaled(1j)
    e2 = gammas[1].scaled(1j)
    xi = random_state(4, rng)
    assert anticommutator_apply(e1, e2, xi).norm() <= 1e-12


# ---------------------------------------------------------------------------
# pair products


def test_pair_product_single_site():
    fam = clifford.make_gammas(1)
    basis = clifford.so_n_basis(fam)
    np.testing.assert_allclose(basis[(1, 2)].dense(), -1j * SZ, atol=1e-15)


def test_pair_products_anti_hermitian():
    fam = clifford.make_gammas(2)
    for op in clifford.so_n_basis(fam).values():
        mat = op.dense()
        np.testing.assert_allclose(mat.conj().T, -mat, atol=1e-14)


def test_pair_products_match_dense_gamma_products():
    fam = clifford.make_gammas(3)
    basis = clifford.so_n_basis(fam)
    mats = [g.dense() for g in views(fam)]
    for (i, j), op in basis.items():
        np.testing.assert_allclose(op.dense(), -mats[i - 1] @ mats[j - 1], atol=1e-13)


def test_disjoint_pairs_commute():
    fam = clifford.make_gammas(2)
    basis = clifford.so_n_basis(fam)
    rng = np.random.default_rng(2)
    for _ in range(3):
        xi = random_state(4, rng)
        assert commutator_apply(basis[(1, 2)], basis[(3, 4)], xi).norm() <= 1e-12


def test_overlapping_pair_bracket_is_multiple_of_third():
    fam = clifford.make_gammas(2)
    basis = clifford.so_n_basis(fam)
    lhs = basis[(1, 2)].dense() @ basis[(2, 3)].dense() - basis[(2, 3)].dense() @ basis[(1, 2)].dense()
    e13 = basis[(1, 3)].dense()
    coeff = np.trace(e13.conj().T @ lhs) / np.trace(e13.conj().T @ e13)
    np.testing.assert_allclose(lhs, coeff * e13, atol=1e-12)
    assert abs(coeff) > 0.1
    expansion = clifford.bracket_expansion(1, 2, 2, 3)
    assert len(expansion) == 1
    a, b, c = expansion[0]
    assert (a, b) == (1, 3)
    assert abs(c - coeff) <= 1e-12


def test_bracket_expansion_oracle_at_three_sites():
    # the closed-form structure constants reproduce the dense bracket of
    # every ordered pair at n = 7, so every coincidence pattern of the
    # indices, and the bracket multiplied out over the Pauli basis exactly
    fam = clifford.make_gammas(3)
    basis = clifford.so_n_basis(fam)
    terms = {key: op.terms() for key, op in basis.items()}
    for (i, j), (k, l) in itertools.product(sorted(basis), repeat=2):
        lhs = basis[(i, j)].dense() @ basis[(k, l)].dense() - basis[(k, l)].dense() @ basis[(i, j)].dense()
        rhs = np.zeros_like(lhs)
        exact = terms[i, j] * terms[k, l] - terms[k, l] * terms[i, j]
        for a, b, c in clifford.bracket_expansion(i, j, k, l):
            rhs += c * basis[(a, b)].dense()
            exact = exact - c * terms[a, b]
        assert np.max(np.abs(lhs - rhs)) <= 1e-10
        assert exact == {}, ((i, j), (k, l))


def test_bracket_expansion_validates_ordering():
    with pytest.raises(ValueError):
        clifford.bracket_expansion(2, 1, 1, 3)


# ---------------------------------------------------------------------------
# block sums


def test_block_sum_single_block_is_identity_embedding():
    fam = clifford.make_gammas(2)
    single = clifford.so_n_basis(fam)[(1, 3)]
    summed = clifford.tensor_sum_rep(fam, 1, (1, 3))
    np.testing.assert_allclose(summed.dense(), single.dense(), atol=1e-15)


def test_block_sum_acts_as_derivation_on_product_states():
    fam = clifford.make_gammas(1)
    summed = clifford.tensor_sum_rep(fam, 2, (1, 2))
    single = clifford.so_n_basis(fam)[(1, 2)]
    rng = np.random.default_rng(5)
    for _ in range(5):
        xi, eta = random_state(2, rng), random_state(2, rng)
        lhs = summed.apply(xi.tensor(eta))
        rhs = xi.tensor(single.apply(eta)) + single.apply(xi).tensor(eta)
        assert (lhs - rhs).norm() <= 1e-12


def test_block_sum_brackets_keep_structure_constants():
    fam = clifford.make_gammas(2)
    p = 3
    rng = np.random.default_rng(6)
    dim = 1 << (p * fam.nu)
    keys = sorted(clifford.so_n_basis(fam))
    summed = {key: clifford.tensor_sum_rep(fam, p, key) for key in keys}
    for _ in range(10):
        (i, j) = keys[rng.integers(0, len(keys))]
        (k, l) = keys[rng.integers(0, len(keys))]
        xi = random_state(dim, rng)
        lhs = commutator_apply(summed[(i, j)], summed[(k, l)], xi)
        acc = np.zeros(dim, dtype=complex)
        for a, b, c in clifford.bracket_expansion(i, j, k, l):
            acc += c * summed[(a, b)].apply(xi).components
        assert np.linalg.norm(lhs.components - acc) <= 1e-10


def test_a_pair_outside_the_family_is_refused():
    fam = clifford.make_gammas(3)
    for pair in [(0, 1), (2, 1), (3, 3), (7, 8)]:
        with pytest.raises(ValueError, match="is not 1 <= i < j <= 7"):
            clifford.tensor_sum_rep(fam, 2, pair)
    with pytest.raises(ValueError, match="is not 1 <= i < j <= 7"):
        clifford.relation_residuals(fam, [((1, 2), (2, 9))])


def test_block_sum_refuses_oversized_register():
    fam = clifford.make_gammas(4)
    with pytest.raises(ResourceLimitError, match="bytes"):
        clifford.tensor_sum_rep(fam, 6, (1, 2))
