"""``python -m perfbench run | compare`` — see perfbench/README.md."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional

from perfbench import ROOT, require_program


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one workload (or, without --workload, all four)"
    )
    run.add_argument("--workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=20.0,
                     help="run length; sets the replay count, one per 2.5 s "
                          "(per 4 s on core-repair; default 20, "
                          "BENCHMARK.json's run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: the traced per-layer pass, not end-to-end")
    run.add_argument("--quick", action="store_true",
                     help="tiny graph, 8 batches: a smoke test, not a measurement")
    run.add_argument("--out", default=None,
                     help="directory for state and result files "
                          "(default perfbench/.work in the checkout)")

    compare = commands.add_parser(
        "compare", help="compare two result directories"
    )
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def _run(args: argparse.Namespace, argv: List[str]) -> int:
    from perfbench import run

    specs = run.resolve_workloads(args.workload)
    env = dict(
        os.environ, PYTHONHASHSEED="0",
        PYTHONPATH=ROOT + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    command = [sys.executable, "-m", "perfbench"]
    if args.workload is None:
        # one workload per fresh subprocess
        worst = 0
        for spec in specs:
            done = subprocess.run(
                command + argv + ["--workload", spec.name], env=env
            )
            worst = max(worst, done.returncode)
        return worst
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, command + argv, env)
    out = args.out or run.DEFAULT_OUT
    return run.run_workload(
        specs[0], args.seed, args.seconds, bool(args.trace), args.quick, out,
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
    require_program()
    if args.command == "run":
        return _run(args, argv)
    from perfbench import compare

    return compare.main(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
