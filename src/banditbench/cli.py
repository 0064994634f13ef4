"""The ``bench`` command line: run, presets, validate.

Exit codes: 0 success, 1 runtime failure, 2 config or usage error.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import Optional, Sequence

from .bench import emit_results, format_summary_table, run_benchmark, training_plan
from .config import ConfigError, load_config
from .presets import PRESETS


def _cmd_run(path: str) -> int:
    config = load_config(path)
    result = run_benchmark(config, progress=lambda msg: print(msg, flush=True))
    written = emit_results(result, config.run.out)
    print(format_summary_table(result))
    print(f"wrote {len(written)} files to {config.run.out}")
    return 0


def _cmd_validate(path: str) -> int:
    config = load_config(path)
    plan = training_plan(config)
    agents = ", ".join(a.preset for a in config.agents) or "(none)"
    print(
        f"OK: environment={config.environment['name']} agents=[{agents}] "
        f"trials={config.run.trials}"
    )
    for preset, periods, batches, rows in plan:  # per trial
        print(f"{preset}: {periods:,} periods, {batches:,} batches of {rows:,} rows")
    return 0


def _cmd_presets() -> int:
    for preset in PRESETS.values():
        keys = [f"{key}={value!r}" for key, value in preset.defaults.items()]
        print(f"{preset.name:<22}{preset.summary}")
        print(textwrap.fill(", ".join(keys) or "(no keys)", 100,
                            initial_indent=" " * 22, subsequent_indent=" " * 22))
    print("\nEach key above can be set in the preset's [agent] block; "
          "ridge may also be spelled lambda.")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Contextual-bandit benchmark runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a benchmark config and write CSVs")
    p_run.add_argument("config", help="path to the config file")
    sub.add_parser("presets", help="list the available agent presets")
    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="path to the config file")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_presets()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
