"""Command-line front end: run experiments, list them, or selftest.

Exit codes: 0 success, 2 usage or size errors, 3 selftest threshold failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import bench
from .bench import UsageError
from .sim import ParameterError, SizeCapError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures through UsageError
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="qsearchlab",
        description="Query-counting experiments for quantum search algorithms.",
    )
    commands = parser.add_subparsers(dest="command")
    commands.required = True

    run = commands.add_parser("run", help="run an experiment and emit records")
    run.add_argument("config", nargs="?", default=None,
                     help="key=value config file; flags override its entries")
    run.add_argument("--experiment", "-e", default=None,
                     help="experiment name, or 'all' for the whole registry")
    run.add_argument("--sizes", default=None,
                     help="comma list; a..b:step spans an inclusive range")
    run.add_argument("--trials", type=int, default=None, help="trials per size")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--format", default=None, choices=("csv", "jsonl", "json-lines"),
                     help="record format (default csv)")
    run.add_argument("--jobs", type=int, default=None,
                     help="concurrent trial workers, at most the cpu count "
                          "(output order is unchanged)")
    run.add_argument("--no-summary", action="store_true",
                     help="skip the per-experiment summary on stderr")

    commands.add_parser("list", help="list experiments and the claims they target")
    commands.add_parser("selftest", help="run the quick deterministic battery")
    return parser


def _cmd_list() -> int:
    for name in bench.experiment_names():
        spec = bench.EXPERIMENTS[name]
        sizes = ",".join(str(s) for s in spec.default_sizes)
        print(f"{name}: {spec.claim} (default sizes {sizes})")
    return 0


def _cmd_selftest() -> int:
    return 0 if bench.selftest(report=print) else 3


def _cmd_run(args) -> int:
    # only the flags given are passed on, so ExperimentConfig owns the defaults
    flags = {key: getattr(args, key)
             for key in ("sizes", "trials", "seed", "out", "format", "jobs")
             if getattr(args, key) is not None}
    if args.config is not None:
        if args.experiment == "all":
            raise UsageError("'all' cannot be combined with a config file")
        configs = [bench.load_config(args.config, dict(flags, experiment=args.experiment))]
    else:
        if not args.experiment:
            raise UsageError(
                "name an experiment with --experiment or a config file; "
                "valid names: " + ", ".join(bench.experiment_names())
            )
        names = (
            bench.experiment_names()
            if args.experiment == "all"
            else (args.experiment,)
        )
        if "sizes" in flags:
            flags["sizes"] = bench.parse_sizes(flags["sizes"])
        configs = [bench.ExperimentConfig(experiment=name, **flags) for name in names]

    fmt = configs[0].format
    out_path = configs[0].out
    handle = open(out_path, "w", encoding="utf-8", newline="\n") if out_path else sys.stdout
    records = []
    try:
        if fmt == "csv":
            handle.write(bench.CSV_HEADER + "\n")
        for config in configs:
            for record in bench.iter_records(config):
                handle.write(bench.record_line(record, fmt) + "\n")
                if handle is sys.stdout:
                    handle.flush()
                records.append(record)
    finally:
        if out_path:
            handle.close()
    if not args.no_summary:
        print(bench.summarize(records), file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        if args.command == "selftest":
            return _cmd_selftest()
        return _cmd_run(args)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else 2
    except (UsageError, SizeCapError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    run_main()
