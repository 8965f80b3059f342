"""Order-p parafermi oscillators built from p commuting fermion families.

A mode k of order p is the sum b_k = sum_alpha b_k^(alpha) of p component
annihilators.  Component (k, alpha) lives on site (alpha-1)*nu + k of a
p*nu qubit register; within its own block alpha it carries the usual
trailing-Z string (sites k+1..nu of that block), and no string across
blocks, which is exactly what makes distinct blocks commute instead of
anticommute.  The vacuum is the product state with every site unoccupied,
i.e. the basis vector with all bits set.

The normalized operators beta_k = b_k / sqrt(p) satisfy harmonic-oscillator
commutation relations up to O(1/p) defects on low-excitation states; the
deviation on a number eigenstate is not just bounded but exactly
(2/p) * ||N_k xi||.

The components, the mode sums b_k and the number operators N_k are
PauliTerms built from site masks.  Green's component relations, the number
identity and the trilinear relations hold exactly at every order, so they
are multiplied out exactly over the Pauli basis and read 0.0 when they
hold.  The vacuum condition, the Fock norms and the unit defect act with
PauliTerms.act on sparse states {basis key: coeff}, keyed by
pauli._basis_key so that the indices of a register past 60 sites do not
share hash classes: from the vacuum, b^dag powers have Gaussian-integer
coefficients, so their squared norms are exact ints and no figure depends
on the 2**(p*nu) register.  The state-vector routes (fock_state,
normalized_ccr_checks, fock_ladder_checks) stay as oracles, and
parafermi_op's lowering-label strings are the reference for the masks.

Only the vector oracles need numpy, and each imports it, and the linalg
names it uses, in its body: the exact battery runs on ccrlab.pauli alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

from .pauli import (
    DEFAULT_SITE_CAP,
    TOL_EXACT,
    PauliTerms,
    _add_into,
    _basis_key,
    _pairs_into,
    _split,
    _terms_norm,
    bracket,
    require_sites,
)

DEFAULT_EXCITATION_CAP = 6


class ModeExclusionError(ValueError):
    """Raising a mode beyond the order p annihilates the state."""


@dataclass(frozen=True)
class GreenSystem:
    """Order p, nu modes, and the p*nu component annihilators as PauliTerms.

    The exact mode sums and the register's vacuum vector are formed on
    first use, so a system read only in exact arithmetic holds no vector.
    """

    p: int
    nu: int
    total_sites: int
    components: dict

    @functools.cached_property
    def modes(self) -> tuple:
        """((b_k, b_k^dag) as PauliTerms for k = 1..nu): b_k sums its p components."""
        out = []
        for k in range(1, self.nu + 1):
            b = PauliTerms.total(self.components[k, a] for a in range(1, self.p + 1))
            out.append((b, b.adjoint()))
        return tuple(out)

    @functools.cached_property
    def vacuum(self) -> StateVector:
        """Every site unoccupied: the basis vector with all 2**total_sites bits set."""
        from .linalg import StateVector

        dim = 1 << self.total_sites
        return StateVector.basis(dim, dim - 1)

    def site(self, k: int, alpha: int) -> int:
        return (alpha - 1) * self.nu + k


def _component_string(k: int, alpha: int, p: int, nu: int) -> PauliString:
    # b = i * lower_k * Z_{k+1} ... Z_nu within block alpha, from site labels
    from .linalg import PauliString

    base = (alpha - 1) * nu
    sites = [(base + k, "-")] + [(base + kk, "Z") for kk in range(k + 1, nu + 1)]
    return PauliString(1j, sites, p * nu)


def make_green_system(p: int, nu: int, site_cap: int = DEFAULT_SITE_CAP) -> GreenSystem:
    if p < 1 or nu < 1:
        raise ValueError("p and nu must be positive integers")
    require_sites(p * nu, site_cap)
    comps = {}
    for k, alpha in product(range(1, nu + 1), range(1, p + 1)):
        # i lower_s Z_tail = (iX_s + Y_s) Z_tail / 2, tail = block alpha's sites past s
        bit = 1 << ((alpha - 1) * nu + k - 1)
        tail = (1 << alpha * nu) - (bit << 1)
        comps[k, alpha] = PauliTerms({(bit, tail): 0.5j, (bit, bit | tail): 0.5})
    return GreenSystem(p, nu, p * nu, comps)


def parafermi_op(sys: GreenSystem, k: int) -> PauliSumOperator:
    """Annihilator b_k = sum over the p component strings, one lowering string each."""
    if not 1 <= k <= sys.nu:
        raise ValueError(f"mode {k} outside 1..{sys.nu}")
    from .linalg import PauliSumOperator

    strings = [_component_string(k, alpha, sys.p, sys.nu) for alpha in range(1, sys.p + 1)]
    return PauliSumOperator(strings, sys.total_sites)


def normalized_op(sys: GreenSystem, k: int) -> PauliSumOperator:
    """beta_k = b_k / sqrt(p)."""
    return parafermi_op(sys, k).scaled(1.0 / math.sqrt(sys.p))


def number_ops(sys: GreenSystem):
    """(N, per-mode N_k list, per-block N^(alpha) list), all diagonal strings.

    N_k equals ([b_k^dag, b_k] + p) / 2 and the ladder relations
    N_k b_k = b_k (N_k - 1), N_k b_k^dag = b_k^dag (N_k + 1) hold.
    """
    from .linalg import PauliString, PauliSumOperator

    total = sys.total_sites

    def proj(k, alpha):
        return PauliString(1.0, [(sys.site(k, alpha), "N")], total)

    per_mode = [
        PauliSumOperator([proj(k, a) for a in range(1, sys.p + 1)], total)
        for k in range(1, sys.nu + 1)
    ]
    per_block = [
        PauliSumOperator([proj(k, a) for k in range(1, sys.nu + 1)], total)
        for a in range(1, sys.p + 1)
    ]
    every = PauliSumOperator(
        [proj(k, a) for k in range(1, sys.nu + 1) for a in range(1, sys.p + 1)], total
    )
    return every, per_mode, per_block


@dataclass(frozen=True)
class FockLabel:
    """Occupation numbers (n_1, ..., n_nu); entries above p are excluded."""

    occupations: tuple

    def __post_init__(self):
        occ = tuple(int(n) for n in self.occupations)
        if any(n < 0 for n in occ):
            raise ValueError("occupations must be nonnegative")
        object.__setattr__(self, "occupations", occ)


def _occupations(label) -> tuple:
    return (label if isinstance(label, FockLabel) else FockLabel(tuple(label))).occupations


def fock_state(
    sys: GreenSystem, label, excitation_cap: int = DEFAULT_EXCITATION_CAP
) -> StateVector:
    """Normalized b_1^{dag n_1} b_2^{dag n_2} ... |vacuum>.

    A number eigenstate: N_k eigenvalue n_k for every mode.  If some
    n_k > p the raw vector vanishes (order-p exclusion) and a
    ModeExclusionError names the offending mode.
    """
    occ = _occupations(label)
    if len(occ) > sys.nu:
        raise ValueError(f"label has {len(occ)} modes, system has {sys.nu}")
    if sum(occ) > excitation_cap:
        raise ValueError(f"total excitation {sum(occ)} exceeds cap {excitation_cap}")
    vec = sys.vacuum
    # rightmost factor acts first: apply creation ops for mode nu first
    for k in range(len(occ), 0, -1):
        creator = parafermi_op(sys, k).adjoint()
        for _ in range(occ[k - 1]):
            vec = creator.apply(vec)
        if occ[k - 1] and vec.norm() <= 1e-14:
            raise ModeExclusionError(
                f"mode {k}: occupation {occ[k - 1]} exceeds order {sys.p}"
            )
    return vec.normalized()


def green_relation_residual(sys: GreenSystem) -> float:
    """Worst exact residual of the Green component relations.

    Components of one block anticommute canonically and components of
    different blocks commute:
        {c_ka, c_la^dag} = delta_kl,  {c_ka, c_la} = 0,
        [c_ka, c_lb^dag] = 0,         [c_ka, c_lb] = 0     (a != b),
    over every unordered pair of components, a component with itself
    included: {c_l, c_k^dag} = {c_k, c_l^dag}^dag and [c_l, c_k] = -[c_k, c_l]
    for any operators, so the other order repeats a norm.  Each residual is
    the Hilbert-Schmidt norm of the exact residual operator; a non-finite
    one raises NonFiniteError.

    Each component and adjoint is split once for the pair loop.  A pair of
    components in different blocks whose supports, read from their masks,
    are disjoint commutes term by term, so both its residuals are exactly
    zero and it is skipped.
    """
    comps = []  # (k, alpha, split terms, split adjoint, support)
    for (k, a), c in sys.components.items():
        terms = _split(c)
        comps.append((k, a, terms, _split(c.adjoint()), _support(terms)))
    one = {(0, 0): 1.0}
    worst = 0.0
    for index, (k, a, ck, _, support) in enumerate(comps):
        for l, b, cl, cl_dag, other in comps[index:]:
            if a != b and not support & other:
                continue
            sign = 1 if a == b else -1  # anticommutator within a block, else commutator
            res = _pairs_into(ck, cl_dag, sign)
            if a == b and k == l:
                _add_into(res, one, -1)
            res_plain = _pairs_into(ck, cl, sign)
            worst = max(worst, _terms_norm(res), _terms_norm(res_plain))
    return worst


def _support(split: list) -> int:
    """The sites a split term list acts on: the union of its terms' x | z."""
    out = 0
    for _, _, s, _, _ in split:
        out |= s
    return out


def number_identity_residual(sys: GreenSystem) -> float:
    """Worst exact residual of N_k = ([b_k^dag, b_k] + p) / 2.

    N_k, the sum of its p projectors (1 + Z_s) / 2, is formed from masks:
    p/2 at the identity and 1/2 at Z_s for each of its sites s.  A
    non-finite residual raises NonFiniteError.
    """
    p_one = {(0, 0): float(sys.p)}
    worst = 0.0
    for k, (b_k, b_k_dag) in enumerate(sys.modes, start=1):
        n_k = {(0, 0): sys.p / 2}
        n_k.update(((0, 1 << (sys.site(k, a) - 1)), 0.5) for a in range(1, sys.p + 1))
        res = _pairs_into(_split(b_k_dag), _split(b_k), -1)
        _add_into(res, p_one, 1)
        for key, c in res.items():
            res[key] = 0.5 * c
        worst = max(worst, _terms_norm(_add_into(res, n_k, -1)))
    return worst


def _vacuum(sys: GreenSystem) -> dict:
    return {_basis_key((1 << sys.total_sites) - 1): 1}


def _squared_norm(state: dict) -> int | float:
    """||state||**2: an exact int when every coefficient is a Gaussian
    integer, as on a correct construction, and a float sum otherwise."""
    total = 0
    for c in state.values():
        re, im = int(c.real), int(c.imag)
        if re != c.real or im != c.imag:
            return sum(abs(c) ** 2 for c in state.values())
        total += re * re + im * im
    return total


def vacuum_condition_residual(sys: GreenSystem) -> float:
    """Worst exact ||b_k b_l^dag |0> - p delta_kl |0>|| over every mode pair."""
    vacuum = _vacuum(sys)
    (index,) = vacuum
    worst = 0.0
    for l, (_, b_l_dag) in enumerate(sys.modes, start=1):
        raised = b_l_dag.act(vacuum)
        for k, (b_k, _) in enumerate(sys.modes, start=1):
            out = b_k.act(raised)
            if k == l:
                out[index] = out.get(index, 0) - sys.p
            worst = max(worst, _terms_norm(out))
    return worst


def trilinear_defect(sys: GreenSystem) -> float:
    """Worst exact residual of the three double-commutator relations.

    Checks, over all (k, l, m) triples,
        [b_k, [b_l^dag, b_m]]      = 2 delta_kl b_m
        [b_k, [b_l^dag, b_m^dag]]  = 2 delta_kl b_m^dag - 2 delta_km b_l^dag
        [b_k, [b_l, b_m]]          = 0.
    These hold exactly at every finite order, so the result is 0.0 unless
    the construction is wrong; a non-finite residual raises NonFiniteError.
    """
    modes = range(1, sys.nu + 1)
    ann, cre = (dict(zip(modes, terms)) for terms in zip(*sys.modes))
    ann_split, cre_split = ({k: _split(b) for k, b in ops.items()} for ops in (ann, cre))

    worst = 0.0
    for l, m in product(modes, repeat=2):
        cre_ann = _split(_pairs_into(cre_split[l], ann_split[m], -1))
        cre_cre = _split(_pairs_into(cre_split[l], cre_split[m], -1))
        ann_ann = _split(_pairs_into(ann_split[l], ann_split[m], -1))
        for k in modes:
            res = _pairs_into(ann_split[k], cre_ann, -1)
            if k == l:
                _add_into(res, ann[m], -2.0)
            worst = max(worst, _terms_norm(res))

            res = _pairs_into(ann_split[k], cre_cre, -1)
            if k == l:
                _add_into(res, cre[m], -2.0)
            if k == m:
                _add_into(res, cre[l], 2.0)
            worst = max(worst, _terms_norm(res))

            worst = max(worst, _terms_norm(_pairs_into(ann_split[k], ann_ann, -1)))
    return worst


@dataclass(frozen=True)
class NormalizedCcrReport:
    """Defects of the normalized-mode commutators on one vector.

    cross_defect / cross_dagger_defect: ||[beta_k, beta_l] xi|| and
    ||[beta_k, beta_l^dag] xi||; only defined for k != l, None otherwise.
    unit_defect: ||([beta_k, beta_k^dag] - 1) xi||, with its exact value
    (2/p) ||N_k xi|| and the a-priori bound (2/p) sqrt(<xi|N^2|xi>).
    ladder_defect: ||(beta_k beta_k^dag^n - beta_k^dag^n beta_k
                      - n beta_k^dag^{n-1}) xi||.
    """

    cross_defect: float | None
    cross_dagger_defect: float | None
    unit_defect: float
    unit_defect_exact: float
    unit_defect_bound: float
    ladder_defect: float
    ladder_order: int


def normalized_ccr_checks(
    sys: GreenSystem, k: int, l: int, xi: StateVector, ladder_order: int = 1
) -> NormalizedCcrReport:
    from .linalg import commutator_apply

    beta_k = normalized_op(sys, k)
    beta_k_dag = beta_k.adjoint()
    if k == l:
        cross = cross_dag = None
    else:
        beta_l = normalized_op(sys, l)
        cross = commutator_apply(beta_k, beta_l, xi).norm()
        cross_dag = commutator_apply(beta_k, beta_l.adjoint(), xi).norm()

    unit = (commutator_apply(beta_k, beta_k_dag, xi) - xi).norm()
    every, per_mode, _ = number_ops(sys)
    unit_exact = (2.0 / sys.p) * per_mode[k - 1].apply(xi).norm()
    unit_bound = (2.0 / sys.p) * every.apply(xi).norm()  # (2/p) sqrt(<xi|N^2|xi>)

    n = ladder_order
    if n < 1:
        raise ValueError("ladder_order must be >= 1")
    lhs = xi
    for _ in range(n):
        lhs = beta_k_dag.apply(lhs)
    lhs = beta_k.apply(lhs)  # beta beta^dag^n xi
    term1 = beta_k.apply(xi)
    for _ in range(n):
        term1 = beta_k_dag.apply(term1)  # beta^dag^n beta xi
    term2 = xi
    for _ in range(n - 1):
        term2 = beta_k_dag.apply(term2)  # beta^dag^{n-1} xi
    ladder = (lhs - term1 - float(n) * term2).norm()

    return NormalizedCcrReport(
        cross, cross_dag, unit, unit_exact, unit_bound, ladder, n
    )


@dataclass(frozen=True)
class FockLadderReport:
    """How close the normalized modes come to bose ladder action on one label.

    norm_error: | ||beta^dag powers on vacuum|| - sqrt(prod n_k!) |.
    number_defect[k]: ||beta_k^dag beta_k xi - n_k xi||.
    inverse_defect[k]: ||beta_k beta_k^dag xi - (n_k + 1) xi||.
    raise_defect[k]: ||beta_k^dag xi - sqrt(n_k + 1) xi_{+k}||.
    lower_defect[k]: ||beta_k xi - sqrt(n_k) xi_{-k}||.
    """

    label: tuple
    norm_error: float
    number_defect: tuple
    inverse_defect: tuple
    raise_defect: tuple
    lower_defect: tuple


def _unnormalized_beta_power_vacuum(sys: GreenSystem, occ) -> StateVector:
    vec = sys.vacuum
    for k in range(len(occ), 0, -1):
        creator = normalized_op(sys, k).adjoint()
        for _ in range(occ[k - 1]):
            vec = creator.apply(vec)
    return vec


def _creation_power_vacuum(sys: GreenSystem, occ) -> dict:
    """b_1^dag^n_1 ... b_nu^dag^n_nu |0>, unnormalized, as a sparse state.

    Its coefficients are Gaussian integers; it is empty when some n_k > p.
    """
    if len(occ) > sys.nu:
        raise ValueError(f"label has {len(occ)} modes, system has {sys.nu}")
    state = _vacuum(sys)
    for k in range(len(occ), 0, -1):
        _, creator = sys.modes[k - 1]
        for _ in range(occ[k - 1]):
            state = creator.act(state)
    return state


def fock_norm_error(sys: GreenSystem, label) -> float:
    """| ||beta^dag powers on vacuum|| - sqrt(prod n_k!) |, the norm_error of one label.

    With S the exact squared norm of b^dag powers on the vacuum, N = sum n_k
    and F = prod n_k!, the two norms are a = sqrt(S / p**N) and b = sqrt(F),
    and |a - b| = |S - p**N F| / (sqrt(S p**N) + p**N sqrt(F)).  The
    numerator is an exact int and both roots are integer square roots
    carried 64 bits past the point, so nothing cancels and the quotient
    rounds once.  A wrong construction, whose S is a float, gets |a - b|
    in doubles.
    """
    occ = _occupations(label)
    s = _squared_norm(_creation_power_vacuum(sys, occ))
    pn = sys.p ** sum(occ)
    f = math.prod(math.factorial(n) for n in occ)
    if isinstance(s, float):
        return abs(math.sqrt(s / pn) - math.sqrt(f))
    scale = 1 << 128
    den = math.isqrt(s * pn * scale) + math.isqrt(f * pn * pn * scale)
    return abs(s - pn * f) * (1 << 64) / den


def unit_defect(sys: GreenSystem, label) -> float:
    """||([beta_1, beta_1^dag] - 1) xi|| on the normalized Fock state xi of `label`.

    With psi = b^dag powers on the vacuum, unnormalized, this is
    sqrt(||([b_1, b_1^dag] - p) psi||**2 / ||psi||**2) / p, and both squared
    norms are exact ints on a correct construction.  A label past the order
    raises ModeExclusionError.
    """
    occ = _occupations(label)
    psi = _creation_power_vacuum(sys, occ)
    if not psi:
        raise ModeExclusionError(f"label {occ} exceeds order {sys.p}")
    b_1, b_1_dag = sys.modes[0]
    shifted = bracket(b_1, b_1_dag, -1) - PauliTerms({(0, 0): sys.p})
    return math.sqrt(_squared_norm(shifted.act(psi)) / _squared_norm(psi)) / sys.p


def _parafermi_checks(rng, sys):
    """The sweep's battery at one grid point, exact relations held to 0.0; it draws nothing from rng."""
    p, modes = sys.p, sys.nu
    worst = green_relation_residual(sys)
    yield {}, "green-relations", worst, 0.0

    worst = trilinear_defect(sys)
    yield {}, "trilinear-relations", worst, 0.0

    worst = vacuum_condition_residual(sys)
    yield {}, "vacuum-condition", worst, 0.0

    worst = number_identity_residual(sys)
    yield {}, "number-identity", worst, 0.0

    if modes >= 2:
        unit = unit_defect(sys, (1, 1) + (0,) * (modes - 2))
        params = {"label": "1+1"}
        yield params, "normalized-unit-exactness", abs(unit - 2.0 / p), TOL_EXACT
        yield params, "normalized-unit-defect", unit, None
    if p >= 2:
        error = fock_norm_error(sys, (2,) + (0,) * (modes - 1))
        yield {"label": "2"}, "fock-norm-error", error, None


def fock_ladder_checks(
    sys: GreenSystem, label, excitation_cap: int = DEFAULT_EXCITATION_CAP
) -> FockLadderReport:
    import numpy as np

    occ = _occupations(label)
    norm_error = fock_norm_error(sys, occ)

    xi = fock_state(sys, label, excitation_cap)
    number_def, inverse_def, raise_def, lower_def = [], [], [], []
    for k in range(1, len(occ) + 1):
        n_k = occ[k - 1]
        beta = normalized_op(sys, k)
        beta_dag = beta.adjoint()
        number_def.append((beta_dag.apply(beta.apply(xi)) - float(n_k) * xi).norm())
        inverse_def.append((beta.apply(beta_dag.apply(xi)) - float(n_k + 1) * xi).norm())

        up = list(occ)
        up[k - 1] += 1
        try:
            up_state = fock_state(sys, FockLabel(tuple(up)), excitation_cap + 1)
            raise_def.append(
                (beta_dag.apply(xi) - np.sqrt(n_k + 1.0) * up_state).norm()
            )
        except ModeExclusionError:
            # raising past the order: the target state vanishes, so compare to 0
            raise_def.append(beta_dag.apply(xi).norm())
        if n_k == 0:
            lower_def.append(beta.apply(xi).norm())
        else:
            down = list(occ)
            down[k - 1] -= 1
            down_state = fock_state(sys, FockLabel(tuple(down)), excitation_cap)
            lower_def.append((beta.apply(xi) - np.sqrt(float(n_k)) * down_state).norm())
    return FockLadderReport(
        occ, norm_error, tuple(number_def), tuple(inverse_def), tuple(raise_def), tuple(lower_def)
    )


def vacuum_uniqueness_test(sys: GreenSystem, xi: StateVector):
    """(max_k ||beta_k xi||, |<xi|vacuum>|) for a unit vector xi.

    If every annihilation defect is small the overlap must be close to 1;
    thresholds are reported by the sweep harness, not asserted here.
    """
    if abs(xi.norm() - 1.0) > 1e-10:
        raise ValueError("xi must be normalized")
    worst = max(
        normalized_op(sys, k).apply(xi).norm() for k in range(1, sys.nu + 1)
    )
    return worst, abs(xi.inner(sys.vacuum))


def fock_span_basis(sys: GreenSystem, cap: int) -> np.ndarray:
    """Orthonormal basis (columns) of the span of all creation monomials.

    Enumerates every ordering of up to `cap` creation operators applied to
    the vacuum and orthonormalizes; this span, not just the span of the
    sorted-order states, is exactly invariant under each b_k.
    """
    import numpy as np

    dim = 1 << sys.total_sites
    creators = [parafermi_op(sys, k).adjoint() for k in range(1, sys.nu + 1)]
    vectors = [sys.vacuum.components]
    frontier = [sys.vacuum]
    for _ in range(cap):
        new_frontier = []
        for vec in frontier:
            for cre in creators:
                out = cre.apply(vec)
                if out.norm() > 1e-12:
                    new_frontier.append(out)
                    vectors.append(out.components)
        frontier = new_frontier
    stack = np.stack(vectors, axis=1)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank]


def joint_annihilator_kernel(sys: GreenSystem) -> np.ndarray:
    """Orthonormal basis (columns) of the common kernel of all b_k.

    Dense SVD underneath, so this is restricted to small registers.  The
    kernel of the full register is generally larger than the vacuum line;
    uniqueness of the vacuum holds within the creation-monomial span.
    """
    import numpy as np

    require_sites(sys.total_sites, 12)
    stacked = np.vstack(
        [parafermi_op(sys, k).dense() for k in range(1, sys.nu + 1)]
    )
    _, s, vh = np.linalg.svd(stacked)
    tol = 1e-10 * max(float(s[0]), 1.0)
    return vh.conj().T[:, s < tol]
