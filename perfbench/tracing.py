"""Spans recorded from outside the ccrlab package, and the self times they give.

`Tracer.install()` wraps functions and methods of the ccrlab modules with
timing shims, so nothing under `src/` changes.  Each wrapped call becomes one
span: (id, parent id, name, start, end, amplitudes).  Spans stay in memory
and are written once, as JSON lines, by `Tracer.write()`.

`self_times()` turns a span list into per-span self time: the span's duration
minus the part of its interval that its child spans cover.  Children may
nest or overlap; the covered part is the union of their intervals clipped to
the parent.
"""

from __future__ import annotations

import json
import resource
import time

ROOT_SPAN = "cli.run"


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.amps: list = []
        self.rss_kb: dict = {}
        self._stack = [-1]

    def span(self, name: str, fn, amps=None, rss=False):
        """A wrapper of `fn` that records one span per call.

        `amps(args)` gives the number of amplitudes the call touches; kernel
        metrics divide time and computed bytes by it.  With `rss`, the
        process's peak resident set size at the end of the call is kept too.
        """
        names, parents, starts, ends, amp_list = (
            self.names, self.parents, self.starts, self.ends, self.amps,
        )
        stack = self._stack
        clock = time.perf_counter_ns
        rss_kb = self.rss_kb

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            amp_list.append(amps(args) if amps else 0)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = start
                stack.pop()
                if rss:
                    rss_kb[sid] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the calls into every ccrlab layer the benchmark reports on."""
        from ccrlab import clifford, cli, linalg, parafermi, spin, sweeps, weyl

        modules = (linalg, weyl, spin, clifford, parafermi, sweeps, cli)

        def dim_of_first_array(args):
            return int(args[1].shape[0])

        def dim_of_operator(args):
            return int(args[0].dim)

        methods = [
            (linalg.PauliString, "apply_into", "linalg.pauli_apply", dim_of_first_array),
            (linalg.PermutationPhaseOperator, "_apply_array", "linalg.permphase_apply", dim_of_operator),
            (linalg.BandedOperator, "_apply_array", "linalg.banded_apply", dim_of_operator),
            (linalg.LinCombOperator, "_apply_array", "linalg.lincomb_apply", None),
            (linalg.StateVector, "__post_init__", "linalg.statevector", None),
            (weyl.WeylPair, "power_op", "weyl.power_op", None),
        ]
        functions = [
            (linalg.commutator_apply, "linalg.commutator"),
            (linalg.anticommutator_apply, "linalg.commutator"),
            (linalg.random_state, "linalg.random_state"),
            (weyl.make_canonical_pair, "weyl.construct"),
            (weyl.ccr_defect, "weyl.ccr_defect"),
            (spin.make_spin_rep, "spin.construct"),
            (spin.covariance_defect, "spin.covariance_defect"),
            (spin.coherent_limit_error, "spin.coherent_limit_error"),
            (clifford.make_gammas, "clifford.construct"),
            (clifford.so_n_basis, "clifford.construct"),
            (clifford.bracket_expansion, "clifford.bracket_expansion"),
            (parafermi.make_green_system, "parafermi.construct"),
            (parafermi.parafermi_op, "parafermi.parafermi_op"),
            (parafermi.trilinear_defect, "parafermi.trilinear_defect"),
            (parafermi.fock_state, "parafermi.fock"),
            (parafermi.fock_ladder_checks, "parafermi.fock"),
            (parafermi.normalized_ccr_checks, "parafermi.fock"),
            (sweeps.records_to_csv, "sweeps.serialize"),
            (sweeps.records_to_json, "sweeps.serialize"),
        ]
        for cls, attr, name, amps in methods:
            setattr(cls, attr, self.span(name, cls.__dict__[attr], amps))
        for original, name in functions:
            wrapper = self.span(name, original)
            # modules import these by name, so every binding is replaced
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        for experiment, battery in list(sweeps._BATTERIES.items()):
            sweeps._BATTERIES[experiment] = self.span(
                f"sweeps.battery.{experiment}", battery, rss=True
            )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name in enumerate(self.names):
                span = {
                    "run": self.run_id,
                    "id": sid,
                    "parent": self.parents[sid],
                    "name": name,
                    "start_ns": self.starts[sid],
                    "end_ns": self.ends[sid],
                    "amps": self.amps[sid],
                }
                if sid in self.rss_kb:
                    span["rss_kb"] = self.rss_kb[sid]
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> self time in ns."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_ns"], span["end_ns"])
        )
    out = {}
    for span in spans:
        lo, hi = span["start_ns"], span["end_ns"]
        out[span["id"]] = (hi - lo) - _covered(children.get(span["id"], ()), lo, hi)
    return out


def aggregate(spans) -> dict:
    """Per span name: calls, wall (sum of durations), self time and amplitudes.

    Wall time sums every span of the name, so a name that nests inside itself
    counts the inner span twice; self time never double counts.
    """
    selfs = self_times(spans)
    out: dict = {}
    for span in spans:
        agg = out.setdefault(
            span["name"], {"calls": 0, "wall_ns": 0, "self_ns": 0, "amps": 0}
        )
        agg["calls"] += 1
        agg["wall_ns"] += span["end_ns"] - span["start_ns"]
        agg["self_ns"] += selfs[span["id"]]
        agg["amps"] += span["amps"]
    return out
