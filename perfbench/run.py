"""Benchmark of `ccr-lab run`: end-to-end metrics, or per-layer metrics from spans.

Run from the root of a checkout (no install needed; `src/` goes on the
child's PYTHONPATH):

    python3 perfbench/run.py --workload parafermi-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each `ccr-lab run` is a fresh process, one at a time, as a user's call would
be.  `--trace 0` repeats the workload until `--seconds` is used up (at least
once) and adds set-up-only spawns, then reports medians of

    sweep_s      run_sweep + serialization + write, from the child's clock
    setup_s      spawn -> validated SweepConfig (imports + cli.build_config)
    peak_rss_mb  the child's peak RSS, from wait4
    pass_frac    1 - fail_frac; fail_frac = failed records / records, where a
                 bounded `pass=false` record and a `skip:` record count as
                 failed, and a crashed run counts every record as failed

`--trace 1` alternates an untraced and a traced run; the traced child wraps
every layer in spans (see tracing.py) and the per-layer metrics come from
them, with the traced-minus-untraced `sweep_s` as the tracing overhead.

Every run's records are checked: the (experiment, params, defect) keys equal
the workload's `.keys` file, the exit code is a documented one that agrees
with the records, and runs with one seed write identical bytes (sha256).
The last stdout line is one JSON object: correct, attempted, failed, metrics.
`attempted`/`failed` count spawned processes and those that failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from records import check_run, read_keys  # noqa: E402
from tracing import aggregate, read_spans  # noqa: E402

WORKLOADS = ("parafermi-default", "clifford-16", "all-large-dim")
MIN_SETUP_SAMPLES = 7
RUN_LIMIT_S = 165.0  # a run must end within 180 s
PAULI_BYTES_PER_AMP = 48  # computed, not measured: read x, read and write acc

# per-layer metrics taken from spans: (metric, span name, field, unit, better)
SPAN_METRICS = [
    ("linalg.pauli_apply.calls", "linalg.pauli_apply", "calls", "count", "lower"),
    ("linalg.pauli_apply.self_s", "linalg.pauli_apply", "self_s", "s", "lower"),
    ("linalg.pauli_apply.ns_per_amp", "linalg.pauli_apply", "ns_per_amp", "ns", "lower"),
    ("linalg.pauli_apply.bytes_computed", "linalg.pauli_apply", "bytes_computed", "B", "lower"),
    ("linalg.pauli_apply.share_of_sweep", "linalg.pauli_apply", "share", "fraction", "lower"),
    ("linalg.permphase_apply.calls", "linalg.permphase_apply", "calls", "count", "lower"),
    ("linalg.permphase_apply.self_s", "linalg.permphase_apply", "self_s", "s", "lower"),
    ("linalg.permphase_apply.ns_per_amp", "linalg.permphase_apply", "ns_per_amp", "ns", "lower"),
    ("linalg.banded_apply.calls", "linalg.banded_apply", "calls", "count", "lower"),
    ("linalg.banded_apply.self_s", "linalg.banded_apply", "self_s", "s", "lower"),
    ("linalg.banded_apply.ns_per_amp", "linalg.banded_apply", "ns_per_amp", "ns", "lower"),
    ("linalg.lincomb_apply.self_s", "linalg.lincomb_apply", "self_s", "s", "lower"),
    ("linalg.commutator.calls", "linalg.commutator", "calls", "count", "lower"),
    ("linalg.commutator.self_s", "linalg.commutator", "self_s", "s", "lower"),
    ("linalg.statevector.count", "linalg.statevector", "calls", "count", "lower"),
    ("linalg.statevector.self_s", "linalg.statevector", "self_s", "s", "lower"),
    ("linalg.random_state.self_s", "linalg.random_state", "self_s", "s", "lower"),
    ("weyl.power_op.calls", "weyl.power_op", "calls", "count", "lower"),
    ("weyl.power_op.self_s", "weyl.power_op", "self_s", "s", "lower"),
    ("weyl.construct.self_s", "weyl.construct", "self_s", "s", "lower"),
    ("weyl.ccr_defect.self_s", "weyl.ccr_defect", "self_s", "s", "lower"),
    ("spin.construct.self_s", "spin.construct", "self_s", "s", "lower"),
    ("spin.covariance_defect.self_s", "spin.covariance_defect", "self_s", "s", "lower"),
    ("spin.coherent_limit_error.self_s", "spin.coherent_limit_error", "self_s", "s", "lower"),
    ("clifford.construct.self_s", "clifford.construct", "self_s", "s", "lower"),
    ("clifford.bracket_expansion.calls", "clifford.bracket_expansion", "calls", "count", "lower"),
    ("clifford.bracket_expansion.self_s", "clifford.bracket_expansion", "self_s", "s", "lower"),
    ("parafermi.construct.self_s", "parafermi.construct", "self_s", "s", "lower"),
    ("parafermi.parafermi_op.calls", "parafermi.parafermi_op", "calls", "count", "lower"),
    ("parafermi.trilinear_defect.self_s", "parafermi.trilinear_defect", "self_s", "s", "lower"),
    ("parafermi.fock.self_s", "parafermi.fock", "self_s", "s", "lower"),
    ("sweeps.serialize_s", "sweeps.serialize", "wall_s", "s", "lower"),
] + [
    (f"sweeps.battery.{exp}.{fld}", f"sweeps.battery.{exp}", fld, unit, "lower")
    for exp in ("weyl", "spin", "clifford", "parafermi")
    for fld, unit in (("wall_s", "s"), ("self_s", "s"), ("rss_mb", "MB"))
]

# per-layer metrics taken from the records and the child's own clock
OTHER_METRICS = [
    ("sweeps.records", "count", "higher"),
    ("sweeps.records_failed", "count", "lower"),
    ("sweeps.records_skipped", "count", "lower"),
    ("sweeps.fail_frac", "fraction", "lower"),
    ("sweeps.bound_margin_max", "ratio", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.build_config_s", "s", "lower"),
    ("cli.process_cpu_s", "s", "lower"),
    ("trace.sweep_s", "s", "lower"),
    ("trace.untraced_sweep_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

END_TO_END = [
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "fraction"),
]


@dataclass
class Child:
    """One spawned child process and what it reported."""

    mode: str
    exit_code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    result: dict
    check: object = None
    layers: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.result["t_config"] - self.result["t0"]

    @property
    def sweep_s(self) -> float:
        return self.result["t_done"] - self.result["t_config"]

    @property
    def ok(self) -> bool:
        if "t_config" not in self.result or "t_done" not in self.result:
            return False
        return self.check.ok if self.check is not None else self.exit_code == 0


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.seed = seed
        self.config = HERE / "workloads" / f"{workload}.cfg"
        self.expected = read_keys(str(HERE / "workloads" / f"{workload}.keys"))
        self.work = HERE / "_work" / f"{workload}-{os.getpid()}"
        self.spawned = 0
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def spawn(self, mode: str) -> Child:
        n = self.spawned
        self.spawned += 1
        result_path = self.work / f"result-{n}.json"
        out_path = self.work / f"records-{n}.csv"
        spans_path = self.work / f"spans-{n}.jsonl"
        argv = [sys.executable, str(HERE / "child.py"), str(result_path)]
        limit = max(5.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(self.work / "child.log", "ab") as log:
            t0 = time.monotonic()
            argv.append(repr(t0))
            argv.append(mode)
            if mode == "trace":
                argv.append(str(spans_path))
            argv += [
                "--", "run", "--config", str(self.config),
                "--out", str(out_path), "--seed", str(self.seed),
            ]
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                # wait4, not wait: it returns this child's own resource usage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.monotonic() - t0
        result = json.loads(result_path.read_text()) if result_path.exists() else {}
        child = Child(
            mode, proc.returncode, wall, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime, result,
        )
        if mode != "setup":
            csv_bytes = out_path.read_bytes() if out_path.exists() else None
            child.check = check_run(proc.returncode, csv_bytes, self.expected)
            if not result:
                child.check.problems.append("the run reported no timings")
        if mode == "trace" and spans_path.exists():
            child.layers = layer_metrics(read_spans(str(spans_path)), child)
        return child

    def time_left(self, estimate: float) -> bool:
        return time.monotonic() + estimate <= self.deadline

    def run_untraced(self) -> list:
        # set-up probes are interleaved with the runs so that their median
        # samples the whole measuring window
        runs, probes = [], []
        while True:
            runs.append(self.spawn("run"))
            probes.append(self.spawn("setup"))
            step = max(c.wall_s for c in runs) + max(c.wall_s for c in probes)
            if not runs[-1].ok or not self.time_left(step):
                break
        while len(runs) + len(probes) < MIN_SETUP_SAMPLES or self.time_left(
            max(c.wall_s for c in probes)
        ):
            probes.append(self.spawn("setup"))
        return runs + probes

    def run_traced(self) -> list:
        children = []
        while True:
            children += [self.spawn("run"), self.spawn("trace")]
            pair = sum(c.wall_s for c in children[-2:])
            if not all(c.ok for c in children) or not self.time_left(pair):
                return children


def layer_metrics(spans, child: Child) -> dict:
    agg = aggregate(spans)
    sweep_s = child.sweep_s if child.result else float("nan")
    out = {}
    for metric, name, fld, _, _ in SPAN_METRICS:
        a = agg.get(name, {"calls": 0, "wall_ns": 0, "self_ns": 0, "amps": 0})
        value = {
            "calls": a["calls"],
            "self_s": a["self_ns"] / 1e9,
            "wall_s": a["wall_ns"] / 1e9,
            "ns_per_amp": a["self_ns"] / a["amps"] if a["amps"] else 0.0,
            "bytes_computed": PAULI_BYTES_PER_AMP * a["amps"],
            "share": a["self_ns"] / 1e9 / sweep_s,
            "rss_mb": 0.0,
        }[fld]
        out[metric] = value
    for span in spans:
        if "rss_kb" in span:
            out[f"{span['name']}.rss_mb"] = span["rss_kb"] / 1024.0
    return out


def median(values) -> float:
    return float(statistics.median(values))


def cache_sizes() -> dict:
    """Cache level -> bytes, read from sysfs; empty where it is not exposed."""
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            kind = (index / "type").read_text().strip()
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[level] = int(size[:-1]) * 1024
    return sizes


def env_header(root: Path, children: list) -> dict:
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    results = [c.result for c in children if "versions" in c.result]
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else None
    largest = max((r.get("largest_vector_bytes", 0) for r in results), default=0)
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "commit": commit,
        "versions": results[0]["versions"] if results else None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "largest_vector_bytes": largest,
        "largest_vector_over_4llc": largest / (4 * llc) if llc else None,
        "bandwidth_figures": "computed, not measured",
        "src_lines": src_lines,
    }


def summarize(children: list, trace: bool) -> tuple:
    """(correct, attempted, failed, metrics) for one workload; prints details."""
    runs = [c for c in children if c.mode != "setup"]
    for i, c in enumerate(children):
        line = f"  {c.mode:5s} #{i}: exit {c.exit_code}, wall {c.wall_s:.3f} s"
        if c.result.get("t_config"):
            line += f", setup {c.setup_s:.4f} s"
        if c.check is not None:
            k = c.check
            line += (
                f", sweep {c.sweep_s:.4f} s, cpu {c.cpu_s:.3f} s, rss {c.rss_mb:.1f} MB, "
                f"{k.status}, "
                f"{k.failed}/{k.attempted} failed, sha256 {k.sha256}"
            )
            for problem in k.problems:
                line += f"\n      CHECK FAILED: {problem}"
        print(line)
    hashes = {c.check.sha256 for c in runs}
    failed = sum(not c.ok for c in children)
    correct = failed == 0 and len(hashes) == 1
    if len(hashes) > 1:
        print("  CHECK FAILED: one seed gave different record bytes")

    worst = max((c.check for c in runs), key=lambda k: k.fail_frac)
    print(
        f"  fail_frac = {worst.failed}/{worst.attempted} = {worst.fail_frac:.6f} fraction"
        f" ({worst.status}, exit {worst.exit_code})"
    )
    for key in worst.failing:
        print(f"    failing record: {','.join(key)}")

    metrics = {}
    untraced = [c for c in runs if c.mode == "run" and c.ok]
    if not trace:
        setups = [c.setup_s for c in children if c.ok]
        values = {
            "sweep_s": median([c.sweep_s for c in untraced]) if untraced else None,
            "setup_s": median(setups) if setups else None,
            "peak_rss_mb": median([c.rss_mb for c in untraced]) if untraced else None,
            "pass_frac": 1.0 - worst.fail_frac,
        }
        for name, unit in END_TO_END:
            if values[name] is not None:
                metrics[name] = {"value": values[name], "unit": unit}
        print(f"  medians of {len(untraced)} runs and {len(setups)} set-ups")
    else:
        traced = [c for c in runs if c.mode == "trace" and c.ok and c.layers]
        layers = {}
        if traced:
            for metric in traced[0].layers:
                layers[metric] = median([c.layers[metric] for c in traced])
        k = worst
        layers.update(
            {
                "sweeps.records": k.attempted,
                "sweeps.records_failed": k.failed,
                "sweeps.records_skipped": k.skipped,
                "sweeps.fail_frac": k.fail_frac,
                "sweeps.bound_margin_max": k.margin_max,
            }
        )
        if traced:
            layers["cli.import_s"] = median([c.result["import_s"] for c in traced])
            layers["cli.build_config_s"] = median(
                [c.result["build_config_s"] for c in traced]
            )
            layers["trace.sweep_s"] = median([c.sweep_s for c in traced])
        if untraced:
            layers["trace.untraced_sweep_s"] = median([c.sweep_s for c in untraced])
            layers["cli.process_cpu_s"] = median([c.cpu_s for c in untraced])
        if traced and untraced:
            layers["trace.overhead_s"] = (
                layers["trace.sweep_s"] - layers["trace.untraced_sweep_s"]
            )
        units = {m: u for m, _, _, u, _ in SPAN_METRICS}
        units.update({m: u for m, u, _ in OTHER_METRICS})
        for name, unit in units.items():
            if name in layers:
                metrics[name] = {"value": layers[name], "unit": unit}
        print(f"  per-layer medians of {len(traced)} traced runs")
    correct = correct and len(metrics) == (
        len(END_TO_END) if not trace else len(SPAN_METRICS) + len(OTHER_METRICS)
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return correct, len(children), failed, metrics


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: bool):
    bench = Bench(root, workload, seed, seconds)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        children = bench.run_traced() if trace else bench.run_untraced()
        print(f"workload {workload} seed {seed} trace {int(trace)}")
        print("env: " + json.dumps(env_header(root, children)))
        return summarize(children, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ccrlab" / "cli.py").is_file():
        print(f"error: no ccrlab sources under {root / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, values = run_workload(
            root, name, args.seed, args.seconds, bool(args.trace)
        )
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: v for k, v in values.items()})
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
