"""Command-line front end: run experiments, list them, or selftest.

Exit codes: 0 success, 2 usage or size errors, 3 selftest threshold failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
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
    names = (args.experiment,)
    if args.experiment == "all":
        if args.config is not None:
            raise UsageError("'all' cannot be combined with a config file")
        names = bench.experiment_names()
    configs = [bench.load_config(args.config, dict(flags, experiment=name)) for name in names]
    records = itertools.chain.from_iterable(map(bench.iter_records, configs))
    out_path = configs[0].out
    output = (open(out_path, "w", encoding="utf-8", newline="\n") if out_path
              else contextlib.nullcontext(sys.stdout))
    with output as handle:
        # the summary's one pass drives the run; the records pass through the writer
        summary = bench.summarize(bench.write_records(records, configs[0].format, handle))
    if not args.no_summary:
        print(summary, file=sys.stderr)
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
