"""perfbench: the repository's end-to-end and per-layer performance benchmark.

Drives the program through its public API only (``CISGraphEngine``,
``ServeHarness``), checks every answer against a cold-start oracle and
prints every metric by name with its unit.  See ``perfbench/README.md``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def require_program() -> None:
    """Put the program under test on ``sys.path``; exit when it is absent.

    The benchmark holds no copy of the program: in a directory with only
    ``BENCHMARK.json`` and ``perfbench/`` there is nothing to measure.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program to measure ({SRC}/repro is missing)")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
