"""Checks on one `ccr-lab run`: its record file, its exit code and its bytes.

The record CSV is parsed here without importing ccrlab, so a change to the
package's own parser cannot hide a change in what it writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

CSV_HEADER = "experiment,params,defect,measured,bound,pass"

# documented exit codes of `ccr-lab run`
EXIT_CODES = {0: "ok", 1: "identity-failure", 3: "resource"}


@dataclass(frozen=True)
class Record:
    experiment: str
    params: str
    defect: str
    measured: float
    bound: float | None
    verdict: str  # "true", "false" or "skip:<reason>"

    @property
    def key(self) -> tuple:
        return (self.experiment, self.params, self.defect)

    @property
    def skipped(self) -> bool:
        return self.verdict.startswith("skip:")

    @property
    def failed(self) -> bool:
        """A bounded identity that did not hold, or a refused grid point."""
        return self.skipped or (self.bound is not None and self.verdict == "false")


def parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad record-file header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",", 5)
        if len(fields) != 6:
            raise ValueError(f"line {lineno}: expected 6 fields")
        experiment, params, defect, measured, bound, verdict = fields
        if verdict not in ("true", "false") and not verdict.startswith("skip:"):
            raise ValueError(f"line {lineno}: bad pass column {verdict!r}")
        records.append(
            Record(
                experiment, params, defect, float(measured),
                None if bound == "" else float(bound), verdict,
            )
        )
    return records


def read_keys(path: str) -> set:
    """Expected keys: one `experiment,params,defect` line each."""
    with open(path) as fh:
        return {tuple(line.rstrip("\n").split(",")) for line in fh if line.strip()}


@dataclass
class RunCheck:
    """Verdict on one run.  `attempted`/`failed` count records."""

    exit_code: int
    status: str
    attempted: int
    failed: int
    skipped: int = 0
    sha256: str | None = None
    failing: list = field(default_factory=list)
    margin_max: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_exit(records) -> int:
    if any(r.bound is not None and r.verdict == "false" for r in records):
        return 1
    if any(r.skipped for r in records):
        return 3
    return 0


def check_run(exit_code: int, csv_bytes: bytes | None, expected_keys: set) -> RunCheck:
    """Classify the exit code and check the records against the expected keys.

    A crash, an undocumented exit code or an unreadable record file counts
    every expected record as failed.
    """
    crashed = RunCheck(exit_code, "crash", len(expected_keys), len(expected_keys))
    if exit_code not in EXIT_CODES:
        crashed.problems.append(f"undocumented exit code {exit_code}")
        return crashed
    if csv_bytes is None:
        crashed.problems.append("no record file written")
        return crashed
    try:
        records = parse_csv(csv_bytes.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        crashed.problems.append(f"unreadable record file: {exc}")
        return crashed
    if not records:
        crashed.problems.append("empty record file")
        return crashed

    check = RunCheck(
        exit_code,
        EXIT_CODES[exit_code],
        attempted=len(records),
        failed=sum(r.failed for r in records),
        skipped=sum(r.skipped for r in records),
        sha256=hashlib.sha256(csv_bytes).hexdigest(),
        failing=[r.key for r in records if r.failed],
        margin_max=max(
            (r.measured / r.bound for r in records if r.bound and not r.skipped),
            default=0.0,
        ),
    )
    keys = [r.key for r in records]
    if len(set(keys)) != len(keys):
        check.problems.append("duplicate record keys")
    missing = expected_keys - set(keys)
    unexpected = set(keys) - expected_keys
    if missing or unexpected:
        check.problems.append(
            f"record keys differ: {len(missing)} missing, {len(unexpected)} unexpected"
        )
    if exit_code != expected_exit(records):
        check.problems.append(
            f"exit code {exit_code} but the records imply {expected_exit(records)}"
        )
    return check
