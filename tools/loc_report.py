#!/usr/bin/env python
"""Size of the codebase per package, as a committed, ratcheted number.

Counts, for every package under ``src/repro`` (top-level modules count as
``(top-level)``) and for ``tests/``:

* ``lines`` — physical lines, what ``wc -l`` says;
* ``code``  — lines carrying code: blank lines, comments and docstrings do
  not count, so documenting a function never trips the gate and deleting
  comments never passes for a reduction;

plus the number of ``test_*`` functions (parametrisation not expanded).

Usage::

    python tools/loc_report.py                  # print the table, write LOC.json
    python tools/loc_report.py --check          # CI: exit 1 if a package grew
    python tools/loc_report.py --against DIR    # delta vs another checkout

``--check`` fails when any package's ``code`` exceeds its number in the
committed ``LOC.json`` (or a package is missing from it): growth is a
deliberate edit of that file, made by re-running the tool without
``--check`` and committing the result.  Shrinking passes.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import sys
import tokenize
from typing import Dict, Iterator, Optional, Sequence, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOP_LEVEL = "(top-level)"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: str) -> Dict[str, int]:
    """``lines`` / ``code`` / ``tests`` of one Python file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    tree = ast.parse(text, filename=path)
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    tests = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
        for node in ast.walk(tree)
    )
    return {
        "lines": text.count("\n"),
        "code": len(code - _docstring_lines(tree)),
        "tests": tests,
    }


def _python_files(directory: str) -> Iterator[str]:
    for folder, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(folder, name)


def report(root: str) -> Dict[str, object]:
    """The whole document for the checkout at ``root``."""
    source = os.path.join(root, "src", "repro")
    packages: Dict[str, Dict[str, int]] = {}
    for path in _python_files(source):
        head = os.path.relpath(path, source).split(os.sep)
        package = head[0] if len(head) > 1 else TOP_LEVEL
        entry = packages.setdefault(package, {"lines": 0, "code": 0})
        sizes = measure(path)
        entry["lines"] += sizes["lines"]
        entry["code"] += sizes["code"]
    tests = {"files": 0, "lines": 0, "code": 0, "test_functions": 0}
    for path in _python_files(os.path.join(root, "tests")):
        sizes = measure(path)
        tests["files"] += 1
        tests["lines"] += sizes["lines"]
        tests["code"] += sizes["code"]
        tests["test_functions"] += sizes["tests"]
    return {
        "packages": dict(sorted(packages.items())),
        "src_total": {
            key: sum(entry[key] for entry in packages.values())
            for key in ("lines", "code")
        },
        "tests": tests,
    }


def _rows(document: Dict[str, object]) -> Dict[str, Dict[str, int]]:
    return {
        **document["packages"],
        "src/repro": document["src_total"],
        "tests": document["tests"],
    }


def print_table(
    document: Dict[str, object], base: Optional[Dict[str, object]] = None
) -> None:
    """One row per package; with ``base``, the delta against it."""
    before = _rows(base) if base is not None else {}
    header = f"{'package':<14}{'lines':>8}{'code':>8}"
    if base is not None:
        header += f"{'d lines':>9}{'d code':>8}"
    print(header)
    for name, entry in _rows(document).items():
        line = f"{name:<14}{entry['lines']:>8}{entry['code']:>8}"
        if base is not None:
            old = before.get(name, {"lines": 0, "code": 0})
            line += (f"{entry['lines'] - old['lines']:>+9}"
                     f"{entry['code'] - old['code']:>+8}")
        print(line)
    tests = document["tests"]["test_functions"]
    delta = (
        f" ({tests - base['tests']['test_functions']:+})"
        if base is not None else ""
    )
    print(f"test functions: {tests}{delta}")


def check(document: Dict[str, object], path: str) -> int:
    """Exit code of ``--check``: 1 when a package outgrew ``path``."""
    if not os.path.exists(path):
        print(f"error: no baseline at {path} (run without --check)",
              file=sys.stderr)
        return 1
    with open(path) as handle:
        committed = json.load(handle)["packages"]
    grown = [
        f"  {name}: {entry['code']} code lines, "
        f"{committed.get(name, {}).get('code', 'no')} committed"
        for name, entry in document["packages"].items()
        if entry["code"] > committed.get(name, {}).get("code", -1)
    ]
    if grown:
        print("packages over their committed size:", file=sys.stderr)
        print("\n".join(grown), file=sys.stderr)
        print("if the growth is deliberate: python tools/loc_report.py "
              "and commit LOC.json", file=sys.stderr)
        return 1
    print(f"OK: no package exceeds {path} "
          f"(src/repro: {document['src_total']['code']} code lines)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=os.path.join(ROOT, "LOC.json"))
    parser.add_argument(
        "--check", action="store_true",
        help="fail if any package exceeds the committed LOC.json",
    )
    parser.add_argument(
        "--against", metavar="DIR",
        help="print the delta against another checkout; writes nothing",
    )
    args = parser.parse_args(argv)
    document = report(ROOT)
    if args.against:
        print_table(document, report(args.against))
        return 0
    print_table(document)
    if args.check:
        return check(document, args.output)
    with open(args.output, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
