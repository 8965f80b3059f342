"""Sweep runner: executes the module test batteries over parameter grids and
emits machine-readable defect tables plus a human-readable report.

The experiments are the rows of one table, _EXPERIMENTS; each row's family
module holds its builder and check generator and is imported when a config
names the experiment.  Records carry
(experiment, parameter tuple, defect name, measured, bound), and pass is
derived from the figures.  A bound marks an identity that must hold at every
finite size; a record without a bound is convergence data, summarized in the
report by a fitted log-log slope against the dimension parameter.
"""

from __future__ import annotations

import functools
import importlib
import io
import itertools
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, fields

from .pauli import DEFAULT_SITE_CAP, ResourceLimitError

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

CSV_HEADER = "experiment,params,defect,measured,bound,pass"
_FIELD_NAMES = CSV_HEADER.split(",")
_CSV_VERDICTS = {"true": True, "false": False}  # the CSV spelling of a bool pass value

# coherent states need 2 atan(|z| / sqrt(p)) < pi in doubles, for every p
Z_MAX = 1e15

# numpy refuses an array of more than 2**63 - 1 bytes, so the largest budget
# it could ever hold is a register of 58 sites: 2**58 amplitudes of 16 bytes
SITE_CAP_MAX = 58


class UsageError(ValueError):
    """Bad configuration: unknown experiment, empty grid, bad value."""


@dataclass(frozen=True)
class SweepConfig:
    """Grids and tolerances for one run; the seed pins every random draw."""

    experiment: str = "all"
    nu_list: tuple = (64, 256, 1024, 4096)
    p_list: tuple = (10, 100, 1000)
    mode_list: tuple = (1, 2)
    k_list: tuple = (0, 1, 2, 3)
    z_list: tuple = (1.0,)
    parafermi_orders: tuple = (1, 2, 3, 4, 8)
    clifford_nu_list: tuple = (1, 2, 3, 4, 5, 6)
    tol_exact: float = 1e-12
    tol_relation: float = 1e-10
    site_cap: int = DEFAULT_SITE_CAP
    seed: int = 0
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS + ("all",):
            raise UsageError(f"unknown experiment {self.experiment!r}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"unknown output format {self.fmt!r}")
        for field in fields(self):  # the grids are the fields with a tuple default
            if isinstance(field.default, tuple) and len(getattr(self, field.name)) == 0:
                raise UsageError(f"{field.name} must not be empty")
        if any(n < 1 for name in _AXIS_FIELDS for n in getattr(self, name)):
            raise UsageError("dimension parameters must be positive")
        if not 1 <= self.site_cap <= SITE_CAP_MAX:
            raise UsageError(f"site_cap must be between 1 and {SITE_CAP_MAX}")
        if any(k < 0 for k in self.k_list):
            raise UsageError("k values must be nonnegative")
        if not all(abs(z) < Z_MAX for z in self.z_list):  # also refuses nan
            raise UsageError(f"z values must be finite and below {Z_MAX:g} in magnitude")
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if not all(0 < tol < math.inf for tol in (self.tol_exact, self.tol_relation)):
            raise UsageError("tolerances must be positive and finite")  # also refuses nan
        for name in EXPERIMENTS if self.experiment == "all" else (self.experiment,):
            _module(_EXPERIMENTS[name])  # the set-up loads the layers the run uses


@dataclass(frozen=True)
class DefectRecord:
    experiment: str
    params: dict
    defect: str
    measured: float
    bound: float | None
    skip_reason: str | None = None

    @property
    def passed(self) -> bool:
        """The verdict: true for a skip, for convergence data (no bound), or
        when measured <= bound; a NaN figure fails its bound."""
        return self.skip_reason is not None or self.bound is None or self.measured <= self.bound

    def params_key(self) -> str:
        return ";".join(f"{k}={_fmt_number(v)}" for k, v in sorted(self.params.items()))

    def sort_key(self):
        return (self.experiment, self.defect, sorted(self.params.items()))


def _fmt_number(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))  # shortest round-trip decimal for doubles


# ---------------------------------------------------------------------------
# per-experiment batteries
#
# Each family is one row of _EXPERIMENTS.  axes maps each grid parameter to
# the SweepConfig field listing its values.  A grid point is built by
# module.builder(*point, site_cap=...), which refuses one over the memory
# budget with ResourceLimitError, and checked by the generator
# module.checks(cfg, rng, built, **point), which yields (extra params,
# defect, measured, bound) in the order it draws from rng; draws says
# whether it reads rng at all.  A refused point is one record under
# skip_defect.  The module is imported when a config names the experiment,
# so a run loads only the layers its rows use.
Experiment = namedtuple("Experiment", "skip_defect axes module builder checks draws")
_EXPERIMENTS = {
    "weyl": Experiment("weyl-relation", {"nu": "nu_list"}, "weyl", "make_canonical_pair", "_weyl_checks", True),
    "spin": Experiment("so3-closure", {"p": "p_list"}, "spin", "make_spin_rep", "_spin_checks", True),
    "clifford": Experiment(
        "gamma-anticommutation", {"nu": "clifford_nu_list"}, "clifford", "make_gammas", "_clifford_checks", False,
    ),
    "parafermi": Experiment(
        "green-relations", {"p": "parafermi_orders", "modes": "mode_list"},
        "parafermi", "make_green_system", "_parafermi_checks", False,
    ),
}
EXPERIMENTS = tuple(_EXPERIMENTS)
_AXIS_FIELDS = {field for row in _EXPERIMENTS.values() for field in row.axes.values()}
# the size parameters: a series is fitted against the first one a record has
_DIM_PARAM = tuple(dict.fromkeys(param for row in _EXPERIMENTS.values() for param in row.axes))


def _module(row):
    """The row's family module, imported on first use."""
    return importlib.import_module(f".{row.module}", __package__)


def _run_battery(experiment, cfg, rng) -> list:
    """Build the family at each grid point and record its checks.

    A grid point refused by its builder (ResourceLimitError), or one the
    machine cannot hold (a MemoryError while it is built or checked),
    becomes one skip record under the row's skip defect, in place of any
    records it had written.
    """
    row = _EXPERIMENTS[experiment]
    module = _module(row)
    # at call time: a tracer wraps them there
    build, checks = getattr(module, row.builder), getattr(module, row.checks)
    values = (sorted(set(getattr(cfg, field))) for field in row.axes.values())
    records = []
    for point in itertools.product(*values):
        base = dict(zip(row.axes, point))
        written = []
        try:
            built = build(*point, site_cap=cfg.site_cap)
            for extra, defect, measured, bound in checks(cfg, rng, built, **base):
                written.append(DefectRecord(experiment, base | extra, defect, float(measured), bound))
        except (ResourceLimitError, MemoryError) as exc:
            # numpy names the allocation it could not make; a bare MemoryError has no text
            reason = str(exc) or type(exc).__name__
            written = [DefectRecord(experiment, base, row.skip_defect, math.nan, None, reason)]
        records.extend(written)
    return records


# perfbench/tracing.py wraps these values, one span per battery
_BATTERIES = {name: functools.partial(_run_battery, name) for name in _EXPERIMENTS}


def run_sweep(cfg: SweepConfig):
    """Execute the configured batteries; returns (records, exit_code)."""
    cfg.validate()
    names = EXPERIMENTS if cfg.experiment == "all" else (cfg.experiment,)
    rng = None
    if any(_EXPERIMENTS[name].draws for name in names):
        from .linalg import seeded_rng  # the vector layer, which the drawing rows load anyway

        rng = seeded_rng(cfg.seed)
    records = []
    for name in names:
        records.extend(_BATTERIES[name](cfg, rng))
    records.sort(key=DefectRecord.sort_key)
    if not all(r.passed for r in records):
        return records, EXIT_IDENTITY_FAILURE
    return records, EXIT_RESOURCE if any(r.skip_reason for r in records) else EXIT_OK


# ---------------------------------------------------------------------------
# serialization


def _encode(r) -> tuple:
    """A record's six fields as JSON values, in CSV_HEADER order.

    A NaN measure and a missing bound are None; pass is the bool, or
    "skip:" + reason for a grid point that was refused.
    """
    measured = None if math.isnan(r.measured) else r.measured
    passed = "skip:" + r.skip_reason if r.skip_reason else r.passed
    return r.experiment, r.params_key(), r.defect, measured, r.bound, passed


def records_to_csv(records) -> str:
    """CSV text of the _encode fields: a None measure is nan, a None bound
    empty, pass true/false, and a comma in a skip reason becomes ;."""
    lines = [CSV_HEADER]
    for r in records:
        *text, measured, bound, passed = _encode(r)
        measured = "nan" if measured is None else measured
        bound = "" if bound is None else bound
        passed = passed.replace(",", ";") if isinstance(passed, str) else passed
        lines.append(",".join(map(_fmt_number, (*text, measured, bound, passed))))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    payload = [dict(zip(_FIELD_NAMES, _encode(r))) for r in records]
    return json.dumps(payload, indent=2) + "\n"


def _parse_params(text: str) -> dict:
    """Parameters from params_key() text; a label stays text, and so does any
    other value unless _fmt_number writes its number back as the same text.

    A dimension parameter (p, nu, modes) or window size mu that is not a
    finite number raises ValueError: the report fits slopes against them.
    """
    params = {}
    if not text:
        return params
    for item in text.split(";"):
        key, value = item.split("=", 1)
        params[key] = value
        for parse in () if key in _TEXT_PARAM else (int, float):
            try:
                number = parse(value)
            except ValueError:
                continue
            if _fmt_number(number) == value:
                params[key] = number
                break
        if key in _DIM_PARAM + ("mu",):
            try:
                finite = math.isfinite(float(value))
            except ValueError:
                finite = False
            if not finite:
                raise ValueError(f"parameter {key}={value} is not a finite number")
    return params


def _decode(experiment, params, defect, measured, bound, passed) -> DefectRecord:
    """The record of six fields as _encode writes them; a malformed field raises.

    The first three are text, measured and bound a finite double or None (a
    NaN measure is None), and pass a bool or "skip:" + a reason.  A skip
    carries no figure, and a measured record's bool must be the verdict of
    its figures (DefectRecord.passed).
    """
    if not all(isinstance(text, str) for text in (experiment, params, defect)):
        raise ValueError("experiment, params and defect must be text")
    try:  # float() raises OverflowError on an int past the double range
        finite = all(
            x is None or not isinstance(x, (str, bool)) and math.isfinite(float(x)) for x in (measured, bound)
        )
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"measured {measured!r} and bound {bound!r} must be finite doubles or None")
    skip_reason = passed[5:] if isinstance(passed, str) and passed.startswith("skip:") else None
    if not (skip_reason or isinstance(passed, bool)):
        raise ValueError(f"pass value {passed!r} is not a bool or skip:<reason>")
    if skip_reason is not None and (measured, bound) != (None, None):
        raise ValueError(f"pass {passed!r} is a skip, but carries {measured!r}, {bound!r}")
    measured = math.nan if measured is None else float(measured)
    bound = None if bound is None else float(bound)
    record = DefectRecord(experiment, _parse_params(params), defect, measured, bound, skip_reason)
    if skip_reason is None and passed != record.passed:
        raise ValueError(f"pass {passed} contradicts measured {measured!r}, bound {bound!r}")
    return record


def parse_records_csv(text: str) -> list:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise UsageError("not a defect-record CSV (bad header)")
    records = []
    for number, line in enumerate(lines[1:], start=1):
        try:
            experiment, params, defect, measured, bound, passed = line.split(",", 5)
            passed = _CSV_VERDICTS.get(passed, passed)
            measured = None if measured == "nan" else float(measured)
            bound = float(bound) if bound else None
            records.append(_decode(experiment, params, defect, measured, bound, passed))
        except ValueError as exc:
            raise UsageError(f"record {number}: malformed CSV line {line!r} ({exc})") from exc
    return records


def parse_records_json(text: str) -> list:
    try:
        items = json.loads(text)
    except ValueError as exc:
        raise UsageError(f"not a defect-record JSON ({exc})") from exc
    if not isinstance(items, list):
        raise UsageError("not a defect-record JSON (expected a list of records)")
    records = []
    for number, item in enumerate(items, start=1):
        try:
            records.append(_decode(*(item[name] for name in _FIELD_NAMES)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"record {number}: malformed JSON record ({exc!r})") from exc
    return records


# ---------------------------------------------------------------------------
# reporting

_CONVENTION_NOTES = (
    "note: rotation covariance is asserted as e^{-i t J3} Q e^{+i t J3} = "
    "Q cos t + P sin t, the ordering consistent with [J3, J1] = i J2; the "
    "opposite exponent order corresponds to flipping the sign of J3 or t.",
    "note: low-excitation coherent amplitudes are compared against "
    "e^{-|z|^2/2} z^k / sqrt(k!); the variant with 1/k! does not normalize "
    "and is treated as a transcription slip.",
)

_TEXT_PARAM = ("label",)  # parameters the batteries write as text
_SLOPE_FLOOR = 1e-13  # values at the rounding floor carry no rate information


def _slope(points) -> float | None:
    """Least-squares slope of log(measured) against log(dimension parameter)."""
    from statistics import linear_regression  # loads random, fractions, decimal: not at set-up

    pts = [(x, y) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    return linear_regression([math.log(x) for x, _ in pts], [math.log(y) for _, y in pts]).slope


def _series_slopes(rows) -> list:
    """One slope per series: records sharing every non-dimension parameter.

    The window size mu is derived from nu by the sweep rule, so it does not
    split series.
    """
    groups: dict = {}
    for r in rows:
        dim_key = next((key for key in _DIM_PARAM if key in r.params), None)
        if dim_key is None:
            continue
        frozen = tuple(
            sorted((k, v) for k, v in r.params.items() if k not in (dim_key, "mu"))
        )
        groups.setdefault(frozen, []).append((float(r.params[dim_key]), r.measured))
    slopes = []
    for pts in groups.values():
        if any(y <= _SLOPE_FLOOR for _, y in pts):
            continue
        s = _slope(pts)
        if s is not None:
            slopes.append(s)
    return slopes


def report(records) -> str:
    """Group records by experiment: worst defect per name, plus fitted slopes."""
    if not records:
        raise UsageError("no records to report")
    out = io.StringIO()
    by_exp = {}
    for r in records:
        by_exp.setdefault(r.experiment, []).append(r)
    for experiment in sorted(by_exp):
        out.write(f"== {experiment}\n")
        group = {}
        for r in by_exp[experiment]:
            group.setdefault(r.defect, []).append(r)
        for defect in sorted(group):
            rows = group[defect]
            skipped = [r for r in rows if r.skip_reason]
            live = [r for r in rows if not r.skip_reason]
            if live:
                worst = max(live, key=lambda r: r.measured)
                status = "pass" if all(r.passed for r in live) else "FAIL"
                line = (
                    f"  {defect}: worst {worst.measured:.6e} at {worst.params_key()}"
                    f" [{status}"
                )
                if worst.bound is not None:
                    line += f", bound {worst.bound:.3e}"
                line += "]"
                unbounded = [r for r in live if r.bound is None]
                if unbounded:
                    from statistics import fmean  # as in _slope, only where a slope is fitted

                    slopes = _series_slopes(unbounded)
                    if slopes:
                        line += f" slope {fmean(slopes):+.2f}"
                        if len(slopes) > 1:
                            line += f" ({len(slopes)} series)"
                    else:
                        line += " slope n/a"
                out.write(line + "\n")
            for r in skipped:
                out.write(f"  {defect}: skipped at {r.params_key()} ({r.skip_reason})\n")
        out.write("\n")
    if "spin" in by_exp:
        for note in _CONVENTION_NOTES:
            out.write(note + "\n")
    return out.getvalue()
