"""Command-line entry point: `ccr-lab run` executes sweeps, `ccr-lab report`
summarizes a previously written record file.

Configuration is flat key=value text (lists comma-separated, # comments);
command-line flags override file keys.  Exit codes: 0 all identities pass,
1 an identity failed, 2 usage error, 3 a grid point was refused for
resource reasons (and nothing failed).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .sweeps import (
    EXIT_USAGE,
    EXPERIMENTS,
    SweepConfig,
    UsageError,
    parse_records_csv,
    parse_records_json,
    records_to_csv,
    records_to_json,
    report,
    run_sweep,
)

# each config key is a SweepConfig field's name; its value parses as the
# field's default does, a list item by item
_FIELDS = {f.name: f for f in dataclasses.fields(SweepConfig)}


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; lists are comma-separated; # starts a comment."""
    values: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _parse_list(value: str, cast):
    items = [item.strip() for item in value.split(",") if item.strip()]
    return tuple(cast(item) for item in items)


def build_config(file_values: dict, overrides: dict) -> SweepConfig:
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in merged.items():
        if key not in _FIELDS:
            raise UsageError(f"unknown configuration key {key!r}")
        field = _FIELDS[key]
        try:
            if isinstance(field.default, tuple):
                if not isinstance(value, tuple):
                    value = _parse_list(str(value), type(field.default[0]))
            else:
                value = str(value) if field.default is None else type(field.default)(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key!r}: {exc}") from exc
        kwargs[key] = value
    try:
        cfg = SweepConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    cfg.validate()
    return cfg


def _cmd_run(args) -> int:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "experiment": args.experiment,
        "out": args.out,
        "format": args.format,
        "seed": args.seed,
    }
    cfg = build_config(file_values, overrides)
    records, status = run_sweep(cfg)
    text = records_to_csv(records) if cfg.format == "csv" else records_to_json(records)
    out_path = cfg.out or f"records.{cfg.format}"
    Path(out_path).write_text(text)
    failed = sum(1 for r in records if not r.passed)
    skipped = sum(1 for r in records if r.skip_reason)
    print(
        f"{len(records)} records -> {out_path} "
        f"({failed} identity failures, {skipped} skipped)"
    )
    return status


def _cmd_report(args) -> int:
    path = Path(args.infile)
    text = path.read_text()
    if path.suffix == ".json":
        records = parse_records_json(text)
    else:
        records = parse_records_csv(text)
    sys.stdout.write(report(records))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ccr-lab",
        description="Run finite-dimensional CCR defect sweeps and report them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep and write defect records")
    run_p.add_argument("--experiment", choices=EXPERIMENTS + ("all",))
    run_p.add_argument("--config", help="key = value configuration file")
    run_p.add_argument("--out", help="output path (default records.<format>)")
    run_p.add_argument("--format", choices=("csv", "json"))
    run_p.add_argument("--seed", type=int)

    rep_p = sub.add_parser("report", help="summarize a record file")
    rep_p.add_argument("--in", dest="infile", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
