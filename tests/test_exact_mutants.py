"""The exact records against their smallest mutants.

Each exact record is held to bound 0.0, so a construction off by the
smallest relative epsilon a double holds, 2**-52, must fail it at every
default grid point, through run_sweep.  _EXACT_MUTANTS gives each exact
defect its mutant and the lowest and highest figure it reads over the
default grid, in units of that epsilon; the README quotes these figures as
each defect's detection threshold.  A mutant scaled past the doubles must
end in a failing record and exit 1, not in an exception.
"""

import dataclasses
import math

import pytest

from ccrlab import cli, clifford, parafermi, sweeps
from ccrlab.pauli import PauliTerms
from ccrlab.sweeps import EXIT_IDENTITY_FAILURE, SweepConfig, run_sweep

EPS = 2.0**-52


def _scale_components(monkeypatch, factor=1 + EPS):
    """Every parafermi component times factor."""
    build = parafermi.make_green_system

    def scaled(p, nu, site_cap):
        sys = build(p, nu, site_cap=site_cap)
        components = {
            key: PauliTerms({k: c * factor for k, c in terms.items()}) for key, terms in sys.components.items()
        }
        return dataclasses.replace(sys, components=components)

    monkeypatch.setattr(parafermi, "make_green_system", scaled)


def _shift_first_gamma(monkeypatch, shift=EPS):
    """g_1 + shift * I, the other generators as built."""
    build = clifford.make_gammas

    def shifted(nu, site_cap):
        gammas = build(nu, site_cap=site_cap).gammas
        return clifford.GammaFamily(nu, (gammas[0] + PauliTerms({(0, 0): shift}),) + gammas[1:])

    monkeypatch.setattr(clifford, "make_gammas", shifted)


# defect: (experiment, mutant, lowest and highest figure over the default
# grid in units of EPS).  so-bracket-closure's mutant, every generator times
# 1 + EPS, is run by the test it names; it reads 4 EPS at every default nu
_EXACT_MUTANTS = {
    "gamma-square": ("clifford", _shift_first_gamma, 2, 2),
    "gamma-anticommutation": ("clifford", _shift_first_gamma, 2, 2),
    "so-bracket-closure": (
        "clifford", "test_clifford.py::test_generators_scaled_off_by_one_ulp_fail_the_sweep_at_every_size", 4, 4,
    ),
    "green-relations": ("parafermi", _scale_components, 2, 2),
    "trilinear-relations": ("parafermi", _scale_components, 2 * math.sqrt(2), 8),
    "vacuum-condition": ("parafermi", _scale_components, 2, 8),
    "number-identity": ("parafermi", _scale_components, 1, 2 * math.sqrt(2)),
}


def test_the_table_holds_every_exact_defect():
    exact = set()
    for experiment in ("clifford", "parafermi"):
        records, _ = run_sweep(SweepConfig(experiment=experiment))
        exact |= {r.defect for r in records if r.bound == 0.0}
    assert exact == set(_EXACT_MUTANTS)


@pytest.mark.parametrize("defect", [d for d, row in _EXACT_MUTANTS.items() if callable(row[1])])
def test_an_exact_defect_fails_at_one_part_in_2_to_the_52_at_every_grid_point(monkeypatch, defect):
    experiment, mutate, low, high = _EXACT_MUTANTS[defect]
    mutate(monkeypatch)
    cfg = SweepConfig(experiment=experiment)
    records, status = run_sweep(cfg)
    assert status == EXIT_IDENTITY_FAILURE
    rows = [r for r in records if r.defect == defect]
    points = math.prod(len(getattr(cfg, field)) for field in sweeps._EXPERIMENTS[experiment].axes.values())
    assert len(rows) == points and not any(r.passed for r in rows)
    figures = [r.measured / EPS for r in rows]
    assert (min(figures), max(figures)) == pytest.approx((low, high), rel=1e-9)


@pytest.mark.parametrize("factor", [1e200, math.inf, math.nan])
@pytest.mark.parametrize("p, modes", [(1, 1), (2, 2)])
def test_components_past_the_doubles_fail_their_point_without_raising(monkeypatch, tmp_path, capsys, factor, p, modes):
    # the first exact relation's norm is not finite: the grid point is one
    # failing green-relations record, NaN against 0.0, and both record files
    # read back through the report
    _scale_components(monkeypatch, factor)
    records, status = run_sweep(SweepConfig(experiment="parafermi", parafermi_orders=(p,), mode_list=(modes,)))
    assert status == EXIT_IDENTITY_FAILURE
    assert [(r.defect, r.params, r.bound, r.passed) for r in records] == [
        ("green-relations", {"p": p, "modes": modes}, 0.0, False)
    ]
    assert math.isnan(records[0].measured)
    config = tmp_path / "point.cfg"
    config.write_text(f"experiment = parafermi\nparafermi_orders = {p}\nmode_list = {modes}\n")
    for fmt in ("csv", "json"):
        out = str(tmp_path / f"records.{fmt}")
        assert cli.main(["run", "--config", str(config), "--format", fmt, "--out", out]) == EXIT_IDENTITY_FAILURE
        capsys.readouterr()
        assert cli.main(["report", "--in", out]) == 0
        line = f"  green-relations: worst nan at modes={modes};p={p} [FAIL, bound 0.000e+00]\n"
        assert line in capsys.readouterr().out
