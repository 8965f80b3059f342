"""Sweep runner and CLI tests: determinism, round trips, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrlab import cli, clifford, linalg, parafermi, spin, sweeps, weyl
from ccrlab.linalg import PauliString, PauliSumOperator, PermutationPhaseOperator, StateVector
from ccrlab.pauli import TOL_RELATION
from ccrlab.sweeps import (
    EXIT_IDENTITY_FAILURE,
    EXIT_OK,
    EXIT_RESOURCE,
    DefectRecord,
    SweepConfig,
    UsageError,
    parse_records_csv,
    parse_records_json,
    records_to_csv,
    records_to_json,
    report,
    run_sweep,
)

FAST_SPIN = dict(experiment="spin", p_list=(10, 100))


def test_identical_config_gives_identical_bytes():
    cfg = SweepConfig(**FAST_SPIN, seed=3)
    records_a, status_a = run_sweep(cfg)
    records_b, status_b = run_sweep(cfg)
    assert status_a == status_b == EXIT_OK
    assert records_to_csv(records_a) == records_to_csv(records_b)
    assert records_to_json(records_a) == records_to_json(records_b)


def test_csv_round_trip_is_exact():
    cfg = SweepConfig(**FAST_SPIN, seed=1)
    records, _ = run_sweep(cfg)
    text = records_to_csv(records)
    assert text.splitlines()[0] == "experiment,params,defect,measured,bound,pass"
    parsed = parse_records_csv(text)
    assert records_to_csv(parsed) == text


def test_json_round_trip_is_exact():
    cfg = SweepConfig(**FAST_SPIN, seed=1)
    records, _ = run_sweep(cfg)
    text = records_to_json(records)
    parsed = parse_records_json(text)
    assert records_to_json(parsed) == text


@pytest.mark.parametrize("seed", [1, 3])
def test_exact_batteries_write_the_pinned_bytes(seed):
    # clifford and parafermi rows are exact arithmetic (0.0, integer squared
    # norms, correctly rounded closed forms) and read no random vector, so
    # their bytes are the same on every host and seed; weyl and spin rows
    # carry numpy's SIMD rounding, which may differ by CPU, and are not pinned
    records = [
        r for name in ("clifford", "parafermi")
        for r in run_sweep(SweepConfig(experiment=name, seed=seed))[0]
    ]
    text = records_to_csv(records)
    assert text == (Path(__file__).parent / "data" / "exact_batteries.csv").read_text()
    assert records_to_csv(parse_records_json(records_to_json(records))) == text
    # a label such as '2' reads as a number but is text: the parsed records,
    # not only their bytes, equal the written ones
    assert parse_records_json(records_to_json(records)) == records
    assert parse_records_csv(text) == records


def test_spin_sweep_measures_k_over_j():
    cfg = SweepConfig(experiment="spin", p_list=(10, 100, 1000))
    records, status = run_sweep(cfg)
    assert status == EXIT_OK
    defects = [r for r in records if r.defect == "ccr-weight-defect"]
    assert len(defects) == 12
    for r in defects:
        expected = r.params["k"] / (r.params["p"] / 2.0)
        assert abs(r.measured - expected) <= 1e-12


def test_so3_closure_bound_follows_the_rounding_model():
    # at p = 10**4 the closure residual is about 0.6 u j^2 with u = 2**-53,
    # over an absolute 1e-10; while the model stays below TOL_RELATION the
    # bound is TOL_RELATION itself
    cfg = SweepConfig(experiment="spin", p_list=(100, 10000))
    records, status = run_sweep(cfg)
    assert status == EXIT_OK
    closure = {r.params["p"]: r for r in records if r.defect == "so3-closure"}
    assert closure[100].bound == TOL_RELATION
    assert closure[10000].passed
    assert closure[10000].measured > TOL_RELATION
    assert closure[10000].bound == 32 * 2.0**-53 * 5000.0**2


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps package functions and methods by name, among
    # them PermutationPhaseOperator._apply_array and WeylPair.power_op; a
    # rename fails here instead of in every traced benchmark run.  Its
    # wrappers forward *args, **kwargs, so the applies' out= buffers pass
    # through them: a traced weyl and spin sweep writes the untraced bytes
    configs = [
        dict(experiment="weyl", nu_list=(1, 7, 64, 4096), seed=5),
        dict(experiment="spin", p_list=(1, 10, 200, 1000), seed=5),
    ]
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, 'perfbench')",
        "from tracing import Tracer",
        "tracer = Tracer('t')",
        "tracer.install()",
        "from ccrlab.sweeps import SweepConfig, records_to_csv, run_sweep",
        *(f"sys.stdout.write(records_to_csv(run_sweep(SweepConfig(**{c!r}))[0]))" for c in configs),
        "assert {'linalg.banded_apply', 'linalg.permphase_apply'} <= set(tracer.names)",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    untraced = "".join(records_to_csv(run_sweep(SweepConfig(**c))[0]) for c in configs)
    assert proc.stdout == untraced


# unbounded weyl and spin series, as (experiment, params, defect, measured):
# two quadrature series and one group series against nu (mu does not split
# a series), three ccr-weight series against p, and a coherent-overlap
# defect that fits no slope: one series has a value at the rounding floor,
# the other a single point
_SERIES = (
    ("weyl", {"l": 0, "mu": 8, "nu": 64}, "quadrature-ccr-defect", 0.181579),
    ("weyl", {"l": 0, "mu": 16, "nu": 256}, "quadrature-ccr-defect", 0.131205),
    ("weyl", {"l": 0, "mu": 32, "nu": 1024}, "quadrature-ccr-defect", 0.0915575),
    ("weyl", {"l": 0, "mu": 64, "nu": 4096}, "quadrature-ccr-defect", 0.0661656),
    ("weyl", {"l": 1, "mu": 8, "nu": 64}, "quadrature-ccr-defect", 0.199868),
    ("weyl", {"l": 1, "mu": 16, "nu": 256}, "quadrature-ccr-defect", 0.131356),
    ("weyl", {"l": 1, "mu": 32, "nu": 1024}, "quadrature-ccr-defect", 0.0833702),
    ("weyl", {"l": 1, "mu": 64, "nu": 4096}, "quadrature-ccr-defect", 0.0547984),
    ("weyl", {"l": 2, "mu": 8, "nu": 64}, "group-ccr-defect", 0.107039),
    ("weyl", {"l": 2, "mu": 16, "nu": 256}, "group-ccr-defect", 0.0726951),
    ("weyl", {"l": 2, "mu": 32, "nu": 1024}, "group-ccr-defect", 0.0493708),
    ("spin", {"k": 1, "p": 10}, "ccr-weight-defect", 0.21278),
    ("spin", {"k": 1, "p": 100}, "ccr-weight-defect", 0.0219585),
    ("spin", {"k": 1, "p": 1000}, "ccr-weight-defect", 0.00245658),
    ("spin", {"k": 2, "p": 10}, "ccr-weight-defect", 0.363798),
    ("spin", {"k": 2, "p": 100}, "ccr-weight-defect", 0.0320946),
    ("spin", {"k": 2, "p": 1000}, "ccr-weight-defect", 0.00306945),
    ("spin", {"k": 3, "p": 10}, "ccr-weight-defect", 0.777233),
    ("spin", {"k": 3, "p": 100}, "ccr-weight-defect", 0.0976614),
    ("spin", {"k": 3, "p": 1000}, "ccr-weight-defect", 0.0133031),
    ("spin", {"k": 1, "p": 10, "z": 1.0}, "coherent-overlap-error", 0.0416021),
    ("spin", {"k": 1, "p": 100, "z": 1.0}, "coherent-overlap-error", 1e-14),
    ("spin", {"k": 2, "p": 10, "z": 1.0}, "coherent-overlap-error", 0.0630187),
)

_LOADED = "def loaded(package):\n    return sorted(m for m in sys.modules if m.split('.')[0] == package)"
_RUNS = {
    # spin imports scipy inside the functions that call it and the sweep
    # calls none of them, so the CLI and a default sweep of all four
    # experiments start and run in numpy time; a coherent-state amplitude
    # vector then loads scipy.special
    "scipy": [
        "import ccrlab.cli",
        "from ccrlab import spin",
        "from ccrlab.sweeps import SweepConfig, run_sweep",
        "records, _ = run_sweep(SweepConfig())",
        "assert {r.experiment for r in records} == {'weyl', 'spin', 'clifford', 'parafermi'}",
        "assert not loaded('scipy'), loaded('scipy')",
        "spin.coherent_amplitudes(spin.make_spin_rep(10), 0.3, 0.1)",
        "assert 'scipy.special' in sys.modules, loaded('scipy')",
    ],
    # the package, its exact layer, and the config and run of an exact
    # experiment (clifford, parafermi) load no numpy
    "import ccrlab": ["import ccrlab", "assert not loaded('numpy'), loaded('numpy')"],
    "import ccrlab.pauli": ["import ccrlab.pauli", "assert not loaded('numpy'), loaded('numpy')"],
    "from ccrlab import PauliTerms": [
        "from ccrlab import PauliTerms",
        "assert not loaded('numpy'), loaded('numpy')",
    ],
    "build_config clifford": [
        "from ccrlab import cli",
        "cli.build_config({}, {'experiment': 'clifford'})",
        "assert not loaded('numpy'), loaded('numpy')",
    ],
    **{
        f"run {experiment}": [
            "from ccrlab import cli",
            f"assert cli.main(['run', '--experiment', {experiment!r}, '--seed', '3', '--out', 'records.csv']) == 0",
            "assert not loaded('numpy'), loaded('numpy')",
        ]
        for experiment in ("clifford", "parafermi")
    },
    # every clifford record carries a bound, so its report fits no slope
    "report clifford": [
        "from ccrlab import cli",
        "assert cli.main(['run', '--experiment', 'clifford', '--seed', '3', '--out', 'records.csv']) == 0",
        "assert cli.main(['report', '--in', 'records.csv']) == 0",
        "assert not loaded('numpy'), loaded('numpy')",
    ],
    # nor does a report that fits slopes to unbounded series, from a file
    # written without numpy
    "report weyl and spin series": [
        "from ccrlab import cli",
        "from ccrlab.sweeps import DefectRecord, records_to_csv",
        f"records = [DefectRecord(*row, None) for row in {_SERIES!r}]",
        "import pathlib",
        "pathlib.Path('records.csv').write_text(records_to_csv(records))",
        "assert cli.main(['report', '--in', 'records.csv']) == 0",
        "assert not loaded('numpy'), loaded('numpy')",
    ],
    # a run that forms vectors or draws loads numpy.random with its config,
    # so its sweep time is only its checks
    **{
        f"build_config {experiment}": [
            "from ccrlab import cli",
            f"cli.build_config({{}}, {{'experiment': {experiment!r}}})",
            "assert 'numpy.random' in sys.modules, loaded('numpy')",
        ]
        for experiment in ("weyl", "spin", "all")
    },
}


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_what_each_run_imports(tmp_path, run):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "\n".join(["import sys", _LOADED, *_RUNS[run]])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class _NoStream:
    """A seeded stream that refuses every read."""

    def __getattr__(self, name):
        raise _Drew(name)


class _Drew(Exception):
    pass


@pytest.mark.parametrize("experiment", sweeps.EXPERIMENTS)
def test_a_row_reads_the_seeded_stream_exactly_when_it_is_marked_as_drawing(experiment):
    cfg = SweepConfig(experiment=experiment)
    if sweeps._EXPERIMENTS[experiment].draws:
        with pytest.raises(_Drew):
            sweeps._run_battery(experiment, cfg, _NoStream())
        return
    records = sweeps._run_battery(experiment, cfg, _NoStream())
    assert records and all(r.passed for r in records)


def test_the_rows_that_draw_nothing_run_without_numpy(tmp_path):
    # numpy blocked: a row marked as drawing nothing imports its module,
    # builds and checks its default grid, and writes its records
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None",
        "from ccrlab import sweeps",
        "for name, row in sweeps._EXPERIMENTS.items():",
        "    if not row.draws:",
        "        module = sweeps._module(row)",
        "        assert callable(getattr(module, row.builder)) and callable(getattr(module, row.checks))",
        "        records = sweeps._run_battery(name, sweeps.SweepConfig(experiment=name), None)",
        "        sys.stdout.write(sweeps.records_to_csv(records))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    quiet = [name for name, row in sweeps._EXPERIMENTS.items() if not row.draws]
    assert quiet == ["clifford", "parafermi"]
    assert proc.stdout == "".join(
        records_to_csv(sweeps._run_battery(name, SweepConfig(experiment=name), None)) for name in quiet
    )


def test_clifford_sweep_all_pass():
    cfg = SweepConfig(experiment="clifford", clifford_nu_list=(1, 2, 3, 4, 5, 6))
    records, status = run_sweep(cfg)
    assert status == EXIT_OK
    assert all(r.passed for r in records)
    anticomm = [r for r in records if r.defect == "gamma-anticommutation"]
    assert len(anticomm) == 6
    assert all(r.measured <= 1e-10 for r in anticomm)


def test_empty_grid_is_a_usage_error():
    with pytest.raises(UsageError):
        SweepConfig(experiment="spin", p_list=()).validate()
    with pytest.raises(UsageError):
        SweepConfig(experiment="bogus").validate()
    with pytest.raises(UsageError):
        SweepConfig(format="yaml").validate()


def test_resource_refusal_records_skip_and_exit_code():
    cfg = SweepConfig(
        experiment="parafermi", parafermi_orders=(2, 16), mode_list=(2,), site_cap=16
    )
    records, status = run_sweep(cfg)
    assert status == EXIT_RESOURCE
    skipped = [r for r in records if r.skip_reason]
    assert len(skipped) == 1
    assert "32 sites" in skipped[0].skip_reason
    assert math.isnan(skipped[0].measured)
    # skip records survive the CSV round trip
    text = records_to_csv(records)
    parsed = parse_records_csv(text)
    assert records_to_csv(parsed) == text
    assert any(r.skip_reason for r in parsed)


def test_identity_failure_sets_exit_code(monkeypatch):
    def broken_battery(cfg, rng):
        return [
            DefectRecord("weyl", {"nu": 4}, "weyl-relation", 1.0, 1e-12)
        ]

    monkeypatch.setitem(sweeps._BATTERIES, "weyl", broken_battery)
    records, status = run_sweep(SweepConfig(experiment="weyl"))
    assert status == EXIT_IDENTITY_FAILURE
    assert not records[0].passed
    assert "FAIL" in report(records)


def test_parafermi_battery_forms_only_the_figures_it_writes(monkeypatch):
    # every record is read off exact Pauli sums and sparse states: no state
    # vector is formed, no Pauli string applied to one, and the mode sums
    # are expanded once per system rather than rebuilt as operators
    def refuse(*args, **kwargs):
        raise AssertionError("a parafermi record went through a state vector")

    for name in ("normalized_ccr_checks", "fock_ladder_checks", "fock_state", "parafermi_op"):
        monkeypatch.setattr(parafermi, name, refuse)
    monkeypatch.setattr(PauliString, "apply_into", refuse)
    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    cfg = SweepConfig(experiment="parafermi", parafermi_orders=(1, 2, 3), mode_list=(1, 2))
    records, status = run_sweep(cfg)
    assert status == EXIT_OK
    assert {"vacuum-condition", "normalized-unit-defect", "fock-norm-error"} <= {
        r.defect for r in records
    }


def test_clifford_battery_forms_no_operator_basis(monkeypatch):
    # the exact checks multiply the generators' terms: no E_ij operator is
    # built and no Pauli sum is turned back into strings
    def refuse(*args, **kwargs):
        raise AssertionError("the clifford battery built an operator basis")

    monkeypatch.setattr(clifford, "so_n_basis", refuse)
    monkeypatch.setattr(PauliSumOperator, "from_terms", refuse)
    records, status = run_sweep(SweepConfig(experiment="clifford"))
    assert status == EXIT_OK
    closure = [r for r in records if r.defect == "so-bracket-closure"]
    assert closure and all(r.measured == 0.0 for r in closure)


def test_the_exact_batteries_build_no_vector_operator(monkeypatch):
    # the families are PauliTerms and every check multiplies them out: no
    # Pauli string or string sum is constructed at the default grids
    def refuse(*args, **kwargs):
        raise AssertionError("an exact battery built a vector operator")

    monkeypatch.setattr(PauliString, "__init__", refuse)
    monkeypatch.setattr(PauliSumOperator, "__init__", refuse)
    for name in ("clifford", "parafermi"):
        records, status = run_sweep(SweepConfig(experiment=name))
        assert status == EXIT_OK
        assert records and not any(r.skip_reason for r in records)


def test_report_contents():
    cfg = SweepConfig(experiment="spin", p_list=(10, 100, 1000))
    records, _ = run_sweep(cfg)
    text = report(records)
    assert "== spin" in text
    assert "ccr-weight-exactness" in text
    # the defect equals 2k/p, so each fixed-k series has log-log slope -1
    line = next(ln for ln in text.splitlines() if "ccr-weight-defect" in ln)
    slope = float(line.split("slope")[1].split("(")[0])
    assert abs(slope + 1.0) <= 0.01
    assert "rotation covariance" in text  # convention note
    assert "sqrt(k!)" in text  # convention note


def test_report_single_point_slope_na():
    records = [
        DefectRecord("spin", {"p": 10, "k": 1}, "ccr-weight-defect", 0.2, None)
    ]
    assert "slope n/a" in report(records)


def test_report_text_of_unbounded_series_is_pinned():
    # the text numpy's polyfit and mean gave, byte for byte, after a CSV round trip
    records = parse_records_csv(records_to_csv([DefectRecord(*row, None) for row in _SERIES]))
    assert report(records) == (
        "== spin\n"
        "  ccr-weight-defect: worst 7.772330e-01 at k=3;p=10 [pass] slope -0.96 (3 series)\n"
        "  coherent-overlap-error: worst 6.301870e-02 at k=2;p=10;z=1.0 [pass] slope n/a\n"
        "\n"
        "== weyl\n"
        "  group-ccr-defect: worst 1.070390e-01 at l=2;mu=8;nu=64 [pass] slope -0.28\n"
        "  quadrature-ccr-defect: worst 1.998680e-01 at l=1;mu=8;nu=64 [pass] slope -0.28 (2 series)\n"
        "\n"
        "note: rotation covariance is asserted as e^{-i t J3} Q e^{+i t J3} = Q cos t + P sin t, the "
        "ordering consistent with [J3, J1] = i J2; the opposite exponent order corresponds to flipping "
        "the sign of J3 or t.\n"
        "note: low-excitation coherent amplitudes are compared against e^{-|z|^2/2} z^k / sqrt(k!); the "
        "variant with 1/k! does not normalize and is treated as a transcription slip.\n"
    )


def test_report_requires_records():
    with pytest.raises(UsageError):
        report([])


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_and_report(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = cli.main(
        [
            "run", "--experiment", "clifford", "--out", str(out), "--seed", "5",
            "--config", str(_write_config(tmp_path, "clifford_nu_list = 1, 2, 3")),
        ]
    )
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith("experiment,params,defect,measured,bound,pass")
    code = cli.main(["report", "--in", str(out)])
    assert code == 0
    rendered = capsys.readouterr().out
    assert "== clifford" in rendered
    assert "gamma-anticommutation" in rendered


def test_cli_json_output(tmp_path, capsys):
    out = tmp_path / "records.json"
    code = cli.main(
        ["run", "--experiment", "clifford", "--format", "json", "--out", str(out),
         "--config", str(_write_config(tmp_path, "clifford_nu_list = 1, 2"))]
    )
    assert code == 0
    parsed = parse_records_json(out.read_text())
    assert parsed and all(r.experiment == "clifford" for r in parsed)
    assert cli.main(["report", "--in", str(out)]) == 0
    assert "gamma-square" in capsys.readouterr().out


def test_cli_determinism_bytes(tmp_path):
    config = _write_config(tmp_path, "p_list = 10, 100")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert cli.main(
            ["run", "--experiment", "spin", "--config", str(config),
             "--out", str(out), "--seed", "7"]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_flag_overrides_config_file(tmp_path):
    config = _write_config(
        tmp_path, "experiment = weyl\nnu_list = 4\nseed = 1\nout = ignored.csv"
    )
    out = tmp_path / "wins.csv"
    code = cli.main(
        ["run", "--experiment", "clifford", "--config", str(config), "--out", str(out)]
    )
    assert code == 0
    parsed = parse_records_csv(out.read_text())
    assert all(r.experiment == "clifford" for r in parsed)
    assert not (tmp_path / "ignored.csv").exists()


def test_cli_usage_errors(tmp_path):
    # empty grid from a config file: exit 2, no output file written
    config = _write_config(tmp_path, "p_list =")
    out = tmp_path / "never.csv"
    code = cli.main(
        ["run", "--experiment", "spin", "--config", str(config), "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()
    assert cli.main(["run", "--experiment", "nonsense"]) == 2
    assert cli.main(["report", "--in", str(tmp_path / "missing.csv")]) == 2
    config = _write_config(tmp_path, "unknown_key = 3")
    assert cli.main(["run", "--experiment", "spin", "--config", str(config)]) == 2


@pytest.mark.parametrize(
    "body",
    [
        "parafermi_orders = 0",
        "parafermi_orders = 2, -1",
        "clifford_nu_list = 0",
        "site_cap = -1",
        "site_cap = 0",
        # a nan bound would fail every record and an infinite one pass
        # every record; no config key sets a bound, so these are unknown keys
        "tol_exact = nan",
        "tol_exact = inf",
        "tol_exact = -inf",
        "tol_relation = nan",
        "tol_relation = inf",
        # over the largest array numpy can index; refused before any budget
        # is computed or array built
        f"site_cap = {sweeps.SITE_CAP_MAX + 1}",
        "experiment = weyl\nsite_cap = 9223372036854775808",
    ],
)
def test_cli_nonpositive_grid_values_exit_2_without_traceback(tmp_path, capsys, body):
    config = _write_config(tmp_path, body)
    out = tmp_path / "never.csv"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert ("unknown configuration key" in err) == body.startswith("tol_")
    assert "Traceback" not in err
    assert not out.exists()


def test_config_keys_are_the_sweep_config_fields(tmp_path):
    assert [f.name for f in fields(SweepConfig)] == [
        "experiment", "nu_list", "p_list", "mode_list", "parafermi_orders", "clifford_nu_list",
        "site_cap", "seed", "out", "format",
    ]
    # every grid field is an axis of some experiment row
    assert {f.name for f in fields(SweepConfig) if isinstance(f.default, tuple)} == set(sweeps._AXIS_FIELDS)
    body = (
        "experiment = weyl\nnu_list = 4\np_list = 10\nmode_list = 1\n"
        "parafermi_orders = 2\nclifford_nu_list = 3\n"
        "site_cap = 8\nseed = 5\nout = x.csv\nformat = json"
    )
    cfg = cli.build_config(cli.parse_config_file(str(_write_config(tmp_path, body))), {})
    assert cfg == SweepConfig(
        experiment="weyl", nu_list=(4,), p_list=(10,), mode_list=(1,),
        parafermi_orders=(2,), clifford_nu_list=(3,),
        site_cap=8, seed=5, out="x.csv", format="json",
    )
    SweepConfig(site_cap=sweeps.SITE_CAP_MAX).validate()
    removed_keys = (
        "mu_rule = sqrt", "fmt = csv", "tol_exact = 1e-11", "tol_relation = 1e300",
        "k_list = 0", "z_list = 1.5",
    )
    for removed in removed_keys:
        with pytest.raises(UsageError, match="unknown configuration key"):
            cli.build_config(cli.parse_config_file(str(_write_config(tmp_path, removed))), {})


_RECORD = {"experiment": "spin", "params": "p=10", "defect": "weight-state",
           "measured": 0.1, "bound": None, "pass": True}
_MALFORMED_RECORD_FILES = {
    "non_numeric.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state,abc,,true\n",
    "short_line.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state\n",
    "invalid.json": '[{"experiment": "spin",',
    "missing_key.json": json.dumps([{k: v for k, v in _RECORD.items() if k != "measured"}]),
    "not_a_record.json": json.dumps([_RECORD, 3]),
    # the writer spells a NaN measure nan and never writes a NaN bound
    "nan_bound.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state,0.1,nan,false\n",
    "capital_nan.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state,NaN,,true\n",
    # a figure that is not a finite double: the writer never writes one, and
    # an int past the double range crashed report with an OverflowError
    "inf_measured.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state,inf,,true\n",
    "overflowing_bound.csv": sweeps.CSV_HEADER + "\nspin,p=10,weight-state,0.1,1e999,true\n",
    "huge_int_measured.json": json.dumps([{**_RECORD, "measured": 10**400}]),
    "huge_int_bound.json": json.dumps([{**_RECORD, "bound": -(10**400)}]),
    "infinite_measured.json": json.dumps([{**_RECORD, "measured": math.inf}]),
}


def _records_text(fmt, params):
    if fmt == "csv":
        return f"{sweeps.CSV_HEADER}\nweyl,nu=4,weyl-relation,1e-16,1e-12,true\nweyl,{params},x,1,,true\n"
    return json.dumps([_RECORD, {**_RECORD, "params": params}])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_record_whose_size_parameter_is_not_a_number_is_a_usage_error(tmp_path, capsys, fmt):
    # the report fits slopes against p, nu and modes; a text or infinite one
    # crashed it with a traceback and exit 1, the identity-failure code
    parse = parse_records_csv if fmt == "csv" else parse_records_json
    for params in ("nu=abc", "p=inf", "modes=nan", "k=1;mu=x1"):
        text = _records_text(fmt, params)
        with pytest.raises(UsageError, match=f"{params.split(';')[-1]} is not a finite number"):
            parse(text)
        path = tmp_path / f"records.{fmt}"
        path.write_text(text)
        assert cli.main(["report", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(_MALFORMED_RECORD_FILES))
def test_malformed_record_files_are_usage_errors(tmp_path, capsys, name):
    text = _MALFORMED_RECORD_FILES[name]
    parse = parse_records_json if name.endswith(".json") else parse_records_csv
    with pytest.raises(UsageError):
        parse(text)
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["report", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


_ROW = "weyl,nu=64,weyl-relation,"
# (measured, bound, pass) as the CSV writes them: the pass value contradicts
# the figures (bound is None or measured <= bound), or _encode cannot write it
_BAD_CSV_VERDICTS = (
    "5.0,1e-12,true", "nan,1e-12,true", "1e-16,1e-12,false", "1e-16,,false",
    "1e-16,1e-12,", "1e-16,1e-12,True", "1e-16,1e-12,yes", "1e-16,1e-12,1", "nan,,skip:",
    "1e-16,1e-12,true,true", "0.5,,skip:over the cap", "nan,1e-12,skip:over the cap",
)
_GOOD_CSV_VERDICTS = (
    "5.0,1e-12,false", "nan,1e-12,false", "1e-16,1e-12,true", "1e-12,1e-12,true",
    "nan,,true", "5.0,,true", "nan,,skip:over the cap",
)
_JSON_ROW = {"experiment": "weyl", "params": "nu=64", "defect": "weyl-relation"}
_BAD_JSON_VERDICTS = (
    (5.0, 1e-12, True), (None, 1e-12, True), (1e-16, 1e-12, False), (1e-16, None, False),
    (1e-16, 1e-12, "yes"), (1e-16, 1e-12, "true"), (1e-16, 1e-12, 1), (1e-16, 1e-12, None),
    (None, None, "skip:"), (0.5, None, "skip:over the cap"), (None, 1e-12, "skip:over the cap"),
)
_GOOD_JSON_VERDICTS = (
    (5.0, 1e-12, False), (None, 1e-12, False), (1e-16, 1e-12, True), (None, None, True),
    (None, None, "skip:over the cap"),
)


def _verdict_file(fmt, verdict):
    if fmt == "csv":
        return f"{sweeps.CSV_HEADER}\n{_ROW}{verdict}\n"
    measured, bound, passed = verdict
    return json.dumps([{**_JSON_ROW, "measured": measured, "bound": bound, "pass": passed}])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_record_whose_verdict_the_writer_could_not_write_is_a_usage_error(tmp_path, capsys, fmt):
    # report printed "worst 5.0 ... [pass, bound 1e-12]" for the first row and
    # exited 0; a pass value the encoder never writes read as a FAIL
    parse = parse_records_csv if fmt == "csv" else parse_records_json
    bad, good = (
        (_BAD_CSV_VERDICTS, _GOOD_CSV_VERDICTS) if fmt == "csv"
        else (_BAD_JSON_VERDICTS, _GOOD_JSON_VERDICTS)
    )
    path = tmp_path / f"records.{fmt}"
    for verdict in bad:
        text = _verdict_file(fmt, verdict)
        with pytest.raises(UsageError, match="pass"):
            parse(text)
        path.write_text(text)
        assert cli.main(["report", "--in", str(path)]) == 2, verdict
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    for verdict in good:
        text = _verdict_file(fmt, verdict)
        (record,) = parse(text)
        write = records_to_csv if fmt == "csv" else records_to_json
        if fmt == "csv":
            assert write([record]) == text
        else:
            assert json.loads(write([record])) == json.loads(text)
        path.write_text(text)
        assert cli.main(["report", "--in", str(path)]) in (0, 1)
        capsys.readouterr()


# JSON fields of a type _encode never writes
_MISTYPED_JSON_FIELDS = {
    "null-experiment": {"experiment": None},
    "int-params": {"params": 7},
    "int-defect": {"defect": 7},
    "text-measured": {"measured": "1e-16"},
    "text-bound": {"bound": "1e-12"},
    "bool-measured": {"measured": False},
    "bool-bound": {"bound": True},
    "text-measured-bool-bound": {"measured": "1e-16", "bound": True},
    "skip-with-a-measure": {"measured": 0.5, "bound": None, "pass": "skip:over the cap"},
    # json writes a float NaN as NaN, which _encode writes as null
    "nan-measured": {"measured": math.nan, "pass": False},
    "nan-bound": {"bound": math.nan, "pass": False},
}


@pytest.mark.parametrize("name", sorted(_MISTYPED_JSON_FIELDS))
def test_a_json_record_of_a_type_the_encoder_never_writes_is_a_usage_error(tmp_path, capsys, name):
    # report crashed with a TypeError traceback (exit 1) sorting a null
    # experiment or an int defect against a text one, and read "1e-16"
    # against a bound of true, or a skip carrying 0.5, as a record and exited 0
    good = {**_JSON_ROW, "measured": 1e-16, "bound": 1e-12, "pass": True}
    text = json.dumps([good, {**good, **_MISTYPED_JSON_FIELDS[name]}])
    with pytest.raises(UsageError, match="record 2"):
        parse_records_json(text)
    path = tmp_path / "records.json"
    path.write_text(text)
    assert cli.main(["report", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cli_report_on_unreadable_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_bytes(b"\xff\xfe\x00\x81")
    for target in (path, tmp_path):  # binary file, directory
        assert cli.main(["report", "--in", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_cli_entry_point_reports_bad_inputs_without_traceback(tmp_path):
    bad_records = tmp_path / "bad.csv"
    bad_records.write_text(_MALFORMED_RECORD_FILES["non_numeric.csv"])
    config = _write_config(tmp_path, "parafermi_orders = 0")
    env = dict(os.environ, PYTHONPATH=str(Path(sweeps.__file__).parents[1]))
    for argv in (["report", "--in", str(bad_records)], ["run", "--config", str(config)]):
        proc = subprocess.run(
            [sys.executable, "-m", "ccrlab.cli", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


def test_record_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # norms sum without BLAS, so a single-threaded BLAS gives the same bytes
    config = _write_config(tmp_path, "nu_list = 65536")
    env = dict(os.environ, PYTHONPATH=str(Path(sweeps.__file__).parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"weyl{len(outputs)}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ccrlab.cli", "run", "--experiment", "weyl",
             "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env={**env, **extra}, cwd=tmp_path, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_resource_exit_code(tmp_path):
    config = _write_config(
        tmp_path, "parafermi_orders = 2, 16\nmode_list = 2\nsite_cap = 16"
    )
    out = tmp_path / "skips.csv"
    code = cli.main(
        ["run", "--experiment", "parafermi", "--config", str(config), "--out", str(out)]
    )
    assert code == 3
    assert "skip:" in out.read_text()


def test_a_grid_point_out_of_memory_becomes_a_skip_record(tmp_path, capsys, monkeypatch):
    # the MemoryError is raised, never provoked: nu = 64 fails at its fourth
    # draw, after its weyl-relation record was formed, and p = 20 in its builder
    draws = []
    real_random_state, real_make_spin_rep = weyl.random_state, spin.make_spin_rep

    def random_state(dim, rng, out=None):
        draws.append(dim)
        if dim == 64 and draws.count(64) == 4:
            raise MemoryError("Unable to allocate a vector")
        return real_random_state(dim, rng, out)

    def make_spin_rep(p, site_cap):
        if p == 20:
            raise MemoryError
        return real_make_spin_rep(p, site_cap=site_cap)

    monkeypatch.setattr(weyl, "random_state", random_state)
    monkeypatch.setattr(spin, "make_spin_rep", make_spin_rep)
    config = _write_config(
        tmp_path, "nu_list = 16, 64\np_list = 10, 20\nclifford_nu_list = 1\n"
        "parafermi_orders = 1\nmode_list = 1"
    )
    out = tmp_path / "records.csv"
    code = cli.main(["run", "--config", str(config), "--out", str(out)])
    assert code == EXIT_RESOURCE
    assert "Traceback" not in capsys.readouterr().err
    records = parse_records_csv(out.read_text())

    def point(experiment, key, value):
        return [r for r in records if r.experiment == experiment and r.params.get(key) == value]

    # each failed grid point keeps one skip record under the battery's first
    # defect name, and none of the records it had formed
    assert [(r.defect, r.skip_reason) for r in point("weyl", "nu", 64)] == [
        ("weyl-relation", "Unable to allocate a vector")
    ]
    assert [(r.defect, r.skip_reason) for r in point("spin", "p", 20)] == [("so3-closure", "MemoryError")]
    assert sum(1 for r in records if r.skip_reason) == 2
    assert {"weyl-relation", "clock-shift-period", "heisenberg-homomorphism"} <= {
        r.defect for r in point("weyl", "nu", 16)
    }
    assert point("spin", "p", 10)
    assert {r.experiment for r in records} == set(sweeps.EXPERIMENTS)


def test_a_weyl_sweep_holds_one_clock_table_that_its_grid_point_builds(monkeypatch):
    # each grid point builds nu's table before its first draw, which drops
    # the previous point's; no check builds or primes a table of its own, and
    # only a full apply (a tile that covers the cycle) and
    # commutator_factorization_residual, which a library caller may reach
    # with no table held, ask for the held one
    builds, callers = [], []

    class Tables(dict):
        def __setitem__(self, dim, table):
            super().__setitem__(dim, table)
            builds.append((len(self), callers[-1]))

    tables = Tables()
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", tables)
    monkeypatch.setattr(weyl, "_CLOCK_TABLES", tables)
    real_clock_table = linalg._clock_table

    def clock_table(dim):
        callers.append(sys._getframe(1).f_code.co_name)
        return real_clock_table(dim)

    for module in (linalg, weyl):
        if hasattr(module, "_clock_table"):
            monkeypatch.setattr(module, "_clock_table", clock_table)
    records, status = run_sweep(SweepConfig(experiment="weyl", nu_list=(2**10, 2**12, 2**14)))
    assert status == EXIT_OK and records
    assert builds == [(1, "_weyl_checks")] * 3
    assert set(callers) == {"_weyl_checks", "_apply_array", "commutator_factorization_residual"}


@pytest.mark.parametrize("nu", [1, 5, 2 * linalg.TILE_CHUNKS * (np.getbufsize() // 2) + 3])
def test_clock_shift_period_reads_its_draw_once(monkeypatch, nu):
    # U^nu and V^nu are one element, (0, 0, 0): one tiled pass gives the
    # figure that the max over both passes gave
    pair = weyl.make_canonical_pair(nu)
    xi = linalg.Window.of(linalg.random_state(nu, np.random.default_rng(nu)))
    both = max(weyl._moved(pair.power_op(k=nu), xi), weyl._moved(pair.power_op(l=nu), xi))
    moved, passes = weyl._moved, []
    monkeypatch.setattr(weyl, "_moved", lambda op, win: passes.append(op) or moved(op, win))
    assert weyl._clock_shift_period(pair, np.random.default_rng(nu), np.empty(nu, dtype=complex)) == both
    assert passes == [PermutationPhaseOperator(nu, 0, 0, 0)]


@pytest.mark.parametrize(
    "experiment,grid,first_defect",
    [
        ("weyl", {"nu_list": (16, 2**40)}, "weyl-relation"),
        ("spin", {"p_list": (15, 2**40)}, "so3-closure"),
        ("clifford", {"clifford_nu_list": (2, 2**40)}, "gamma-anticommutation"),
        ("parafermi", {"parafermi_orders": (1, 2**40), "mode_list": (2,)}, "green-relations"),
    ],
    ids=sweeps.EXPERIMENTS,
)
def test_grid_points_over_the_budget_become_skip_records(experiment, grid, first_defect):
    # 16 amplitudes fit a 4-site budget; 2**40 amplitudes or sites would need
    # at least 16 TiB and are refused before any array is built
    records, status = run_sweep(SweepConfig(experiment=experiment, site_cap=4, **grid))
    assert status == EXIT_RESOURCE
    skipped = [r for r in records if r.skip_reason]
    assert [r.defect for r in skipped] == [first_defect]
    assert "bytes per state vector" in skipped[0].skip_reason
    assert any(not r.skip_reason for r in records)


# the smallest grid: every axis of every experiment at 1
_ONE_POINT = {field: (1,) for field in sweeps._AXIS_FIELDS}


@pytest.mark.parametrize("experiment", sweeps.EXPERIMENTS)
def test_each_grid_axis_of_a_row_refuses_zero_and_an_empty_list(tmp_path, capsys, experiment):
    for field in sweeps._EXPERIMENTS[experiment].axes.values():
        for values, text in (((0,), "0"), ((), "")):
            with pytest.raises(UsageError):
                SweepConfig(experiment=experiment, **{field: values}).validate()
            config = _write_config(tmp_path, f"experiment = {experiment}\n{field} = {text}")
            assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err.startswith("error: ")
            assert not (tmp_path / "x.csv").exists()


def test_the_experiment_flag_accepts_exactly_the_rows(tmp_path, capsys):
    assert cli.main(["run", "--experiment", "bogus"]) == 2
    choices = capsys.readouterr().err.split("choose from ")[1].split(")")[0]
    assert [c.strip(" '") for c in choices.split(",")] == [*sweeps.EXPERIMENTS, "all"]
    config = _write_config(tmp_path, "\n".join(f"{f} = 1" for f in _ONE_POINT))
    for experiment in sweeps.EXPERIMENTS:
        out = tmp_path / f"{experiment}.csv"
        argv = ["run", "--experiment", experiment, "--config", str(config), "--out", str(out)]
        assert cli.main(argv) == EXIT_OK
        assert {r.experiment for r in parse_records_csv(out.read_text())} == {experiment}
    capsys.readouterr()


@pytest.mark.parametrize("experiment", sweeps.EXPERIMENTS)
def test_the_verdict_is_derived_from_the_figures(monkeypatch, experiment):
    # a record stores no verdict; a NaN or over-bound figure fails its bound,
    # a skip and convergence data pass, and the derived verdict sets the exit code
    assert "passed" not in {f.name for f in fields(DefectRecord)}
    row = sweeps._EXPERIMENTS[experiment]

    def record(measured, bound, skip_reason=None):
        return DefectRecord(experiment, {}, row.skip_defect, measured, bound, skip_reason)

    assert not record(math.nan, 1e-12).passed
    assert not record(2e-12, 1e-12).passed
    assert record(1e-12, 1e-12).passed and record(math.nan, None).passed
    assert record(math.nan, None, "over the cap").passed
    for measured in (math.nan, 2e-12):
        def checks(rng, built):
            yield {}, row.skip_defect, measured, 1e-12

        monkeypatch.setattr(sweeps._module(row), row.checks, checks)
        records, status = run_sweep(SweepConfig(experiment=experiment, **_ONE_POINT))
        assert status == EXIT_IDENTITY_FAILURE
        assert [r.passed for r in records] == [False]
        assert records_to_csv(records).endswith(f"{row.skip_defect},{measured!r},1e-12,false\n")


def test_a_non_finite_clock_phase_fails_the_weyl_point_through_run_sweep(monkeypatch):
    # every clock phase but omega^0 is NaN: the first residual raises
    # NonFiniteError, and the grid point is one failing weyl-relation
    # record, NaN against 0.0, in place of its records
    clock_phases = linalg._clock_phases
    monkeypatch.setattr(linalg, "_clock_phases", lambda w, dim: np.where(w == 0, clock_phases(w, dim), math.nan))
    monkeypatch.setattr(linalg, "_CLOCK_TABLES", {})
    with np.errstate(all="ignore"):
        records, status = run_sweep(SweepConfig(experiment="weyl", nu_list=(16,)))
    assert status == EXIT_IDENTITY_FAILURE
    assert [(r.defect, r.params, r.bound, r.passed) for r in records] == [("weyl-relation", {"nu": 16}, 0.0, False)]
    assert math.isnan(records[0].measured)


# valid values small enough that no grid point holds a vector over 16 KB
def test_one_dimensional_weyl_pair_passes_its_exact_identities():
    # the window then fills the whole cycle, where V leaves it invariant
    records, status = run_sweep(SweepConfig(experiment="weyl", nu_list=(1,)))
    assert status == EXIT_OK
    assert all(r.passed for r in records)


_CONFIG_VALUES = {
    "nu_list": st.integers(1, 64),
    "p_list": st.integers(1, 24),
    "mode_list": st.integers(1, 3),
    "parafermi_orders": st.integers(1, 4),
    "clifford_nu_list": st.integers(1, 8),
}
_NOT_NUMBERS = st.sampled_from(["abc", "1.5", "nan", "inf", "1e3", "-", "0x10"])
_DEFECTS = (
    "unknown key", "empty list", "negative", "not a number", "over budget", "no equals sign",
    "huge site_cap", "non-finite tolerance",
)


@st.composite
def _config_files(draw):
    """A valid small config, then zero to two defects written into it."""
    experiments = sweeps.EXPERIMENTS + ("all",)
    values = {key: draw(st.lists(items, min_size=1, max_size=2))
              for key, items in _CONFIG_VALUES.items()}
    values["site_cap"] = [draw(st.integers(8, 10))]
    values["experiment"] = [draw(st.sampled_from(experiments))]
    extra = []
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        key = draw(st.sampled_from(sorted(_CONFIG_VALUES)))
        if defect == "unknown key":
            extra.append("bogus_key = 1")
        elif defect == "empty list":
            values[key] = []
        elif defect == "negative":
            values[key].append(draw(st.integers(-5, -1)))
        elif defect == "not a number":
            key = draw(st.sampled_from(sorted(values) + ["seed", "tol_exact"]))
            values[key] = [draw(_NOT_NUMBERS)]
        elif defect == "over budget":
            # 2**10 amplitudes is the largest budget here
            key = draw(st.sampled_from(["nu_list", "p_list", "mode_list", "clifford_nu_list"]))
            values[key].append(draw(st.integers(10**6, 10**15)))
        elif defect == "huge site_cap":
            # refused before 1 << site_cap is formed
            values["site_cap"] = [draw(st.sampled_from([sweeps.SITE_CAP_MAX + 1, 2**63]))]
        elif defect == "non-finite tolerance":
            # the tolerances are no config keys: refused as unknown
            tol = draw(st.sampled_from(["tol_exact", "tol_relation"]))
            values[tol] = [draw(st.sampled_from(["nan", "inf", "-inf"]))]
        else:
            extra.append(f"{key} 3")
    lines = [f"{key} = " + ", ".join(str(v) for v in vals) for key, vals in values.items()]
    return "\n".join(draw(st.permutations(lines + extra))) + "\n"


@settings(max_examples=60)
@given(_config_files())
def test_fuzzed_config_files_reach_a_documented_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.cfg"
        config.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(config), "--out", str(Path(tmp) / "r.csv")])
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in err.getvalue(), text


# record fields as the batteries write them: int dimension parameters, a
# float z, "1+1"-style labels, positive bounds, exception texts as skip reasons
_PARAM_VALUES = {
    "nu": st.integers(1, 2**40),
    "p": st.integers(1, 2**40),
    "k": st.integers(0, 10**6),
    "modes": st.integers(1, 8),
    "z": st.floats(-1e15, 1e15),
    "label": st.lists(st.integers(0, 12), min_size=1, max_size=4).map(
        lambda occ: "+".join(map(str, occ))
    ),
}
_MEASURED = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_DEFECT_NAMES = (
    "weyl-relation", "so3-closure", "gamma-anticommutation", "green-relations",
    "coherent-overlap-error", "normalized-unit-exactness",
)


@st.composite
def _written_records(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_PARAM_VALUES)), unique=True, max_size=3))
    params = {key: draw(_PARAM_VALUES[key]) for key in keys}
    experiment = draw(st.sampled_from(sweeps.EXPERIMENTS))
    defect = draw(st.sampled_from(_DEFECT_NAMES))
    if draw(st.booleans()):
        reason = draw(st.text(st.characters(min_codepoint=32, max_codepoint=126), min_size=1))
        return DefectRecord(experiment, params, defect, math.nan, None, reason)
    bound = draw(st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    measured = draw(_MEASURED)
    return DefectRecord(experiment, params, defect, measured, bound)


@given(st.lists(_written_records(), max_size=6))
def test_written_records_round_trip_byte_for_byte(records):
    # no battery measures an infinity (residual_norm refuses one), and the
    # readers refuse a figure that is not a finite double
    csv_text = records_to_csv(records)
    json_text = records_to_json(records)
    if any(math.isinf(r.measured) for r in records):
        for text, parse in ((csv_text, parse_records_csv), (json_text, parse_records_json)):
            with pytest.raises(UsageError, match="finite doubles"):
                parse(text)
        return
    assert records_to_csv(parse_records_csv(csv_text)) == csv_text
    assert records_to_json(parse_records_json(json_text)) == json_text


_PARAM_TEXT = st.text(st.sampled_from("0123456789+-.eEinfatrux_ "), max_size=8)


def _finite_number(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


@given(
    st.dictionaries(
        st.from_regex(r"[a-z]{1,4}", fullmatch=True),
        st.integers() | st.floats() | st.booleans() | _PARAM_TEXT,
        max_size=4,
    )
)
def test_params_key_survives_the_csv_and_json_round_trips(params):
    record = DefectRecord("weyl", params, "weyl-relation", 0.5, None)
    key = record.params_key()
    written = dict(item.split("=", 1) for item in key.split(";")) if key else {}
    # a dimension parameter or window size must read as a finite number
    sizes = [v for k, v in written.items() if k in ("p", "nu", "modes", "mu")]
    readable = all(_finite_number(v) for v in sizes)
    for text, parse in ((records_to_csv([record]), parse_records_csv), (records_to_json([record]), parse_records_json)):
        if not readable:
            with pytest.raises(UsageError, match="not a finite number"):
                parse(text)
            continue
        (back,) = parse(text)
        assert back.params_key() == key
        # a value comes back as a number only where it writes back as the same text
        assert {k: sweeps._fmt_number(v) for k, v in back.params.items()} == written


def test_parsed_params_keep_text_that_is_not_a_written_number():
    parsed = sweeps._parse_params("a=1e3;b=007;c=-0;d=1_000;e=7;f=1.0;g=1e+16;h=-0.0;i=nan;j=")
    assert parsed == {
        "a": "1e3", "b": "007", "c": "-0", "d": "1_000", "e": 7, "f": 1.0, "g": 1e16, "h": -0.0,
        "i": parsed["i"], "j": "",
    }
    assert math.isnan(parsed["i"]) and math.copysign(1.0, parsed["h"]) == -1.0
    assert [type(parsed[k]) for k in "efg"] == [int, float, float]


def test_config_file_parsing(tmp_path):
    config = _write_config(
        tmp_path,
        "# comment line\nexperiment = weyl\nnu_list = 4, 16  # inline comment\n"
        "site_cap = 12\nseed = 9",
    )
    values = cli.parse_config_file(str(config))
    cfg = cli.build_config(values, {})
    assert cfg.experiment == "weyl"
    assert cfg.nu_list == (4, 16)
    assert cfg.site_cap == 12
    assert cfg.seed == 9
    bad = _write_config(tmp_path, "just a line without equals")
    with pytest.raises(UsageError):
        cli.parse_config_file(str(bad))


def test_number_serialization_round_trips_doubles():
    value = 0.1 + 0.2  # classic non-representable decimal
    text = sweeps._fmt_number(value)
    assert float(text) == value


def _write_config(tmp_path, body):
    path = tmp_path / f"cfg_{abs(hash(body)) % 10**8}.txt"
    path.write_text(body + "\n")
    return path
