"""One `ccr-lab run` in a fresh process, timed the way a user's call sees it.

    PYTHONPATH=src python3 perfbench/child.py RESULT T0 MODE [SPANS] -- ccr-lab args

T0 is the parent's CLOCK_MONOTONIC reading just before the spawn.  MODE is
`run`, `setup` (stop once the configuration is validated) or `trace` (run
with every layer wrapped in spans, written to SPANS).  RESULT receives the
timestamps as JSON; the exit code is the CLI's, or 70 if it raised.
"""

import sys
import time

T_START = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

EXIT_CRASH = 70


class _ConfigReady(Exception):
    """Raised after build_config in setup mode: the set-up is all we time."""


def largest_vector_bytes(cfg) -> int:
    """Bytes of the largest state vector the configured grid allocates."""
    names = ("weyl", "spin", "clifford", "parafermi")
    run = names if cfg.experiment == "all" else (cfg.experiment,)
    dims = [1]
    if "weyl" in run:
        dims.append(max(cfg.nu_list))
    if "spin" in run:
        dims.append(max(cfg.p_list) + 1)
    if "clifford" in run:
        dims += [1 << nu for nu in cfg.clifford_nu_list if nu <= cfg.site_cap]
    if "parafermi" in run:
        dims += [
            1 << (p * m)
            for p in cfg.parafermi_orders
            for m in cfg.mode_list
            if p * m <= cfg.site_cap
        ]
    return 16 * max(dims)


def main(argv) -> int:
    result_path, t0, mode = argv[0], float(argv[1]), argv[2]
    rest = argv[3:]
    spans_path = rest.pop(0) if mode == "trace" else None
    cli_args = rest[rest.index("--") + 1 :]

    from ccrlab import cli

    t_imported = time.monotonic()
    result = {"t0": t0, "import_s": t_imported - T_START}
    build_config = cli.build_config

    def timed_build_config(file_values, overrides):
        start = time.monotonic()
        cfg = build_config(file_values, overrides)
        result["t_config"] = time.monotonic()
        result["build_config_s"] = result["t_config"] - start
        result["largest_vector_bytes"] = largest_vector_bytes(cfg)
        if mode == "setup":
            raise _ConfigReady
        return cfg

    cli.build_config = timed_build_config
    entry = cli.main
    tracer = None
    if mode == "trace":
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer(run_id=f"{result_path}@{t0!r}")
        tracer.install()
        entry = tracer.span(ROOT_SPAN, cli.main)

    try:
        code = entry(cli_args)
    except _ConfigReady:
        code = 0
    except Exception:
        traceback.print_exc()
        code = EXIT_CRASH
    result["t_done"] = time.monotonic()
    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
