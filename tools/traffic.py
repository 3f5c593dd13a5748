"""List the statements of ptspec that no CLI command executes.

    python3 tools/traffic.py TREE

TREE is a checkout directory holding src/ptspec.  The tool starts a line
trace (sys.settrace) before it imports ptspec from TREE/src, so module-level
statements count too, then runs every command of tools/clidiff.py COMMANDS
in this process through ptspec.cli.main, calling series.clear_memos()
before each so that no command is served from another's memo.  Output of
the commands is discarded.  It then prints, per module of src/ptspec, the
statements that never ran, by first line number and source.  A statement
is an ast statement apart from docstrings, and it ran when a line event
fell on one of its lines (for a compound statement, of its header).  The
exit code is 0.  It is slow (every call into mpmath passes the trace function), so it
is a tool for reviewing what a change can delete, not a test.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from clidiff import COMMANDS  # noqa: E402


def statements(source: str) -> dict:
    """The statements of a module, docstrings excluded, as first line ->
    the lines any of which runs when the statement does: a simple
    statement's own lines, and a compound statement's header (its
    decorators, and the lines up to its body)."""
    spans = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        decorators = getattr(node, "decorator_list", None)
        first = decorators[0].lineno if decorators else node.lineno
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans[first] = range(first, last + 1)
    return spans


def trace(package: Path, hits: set):
    """A sys.settrace function that adds (file, line) to hits for every
    line run in a file under package."""
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="checkout directory holding src/ptspec")
    args = parser.parse_args(argv)
    package = Path(args.tree).resolve() / "src" / "ptspec"
    if not package.is_dir():
        parser.error(f"{args.tree} has no src/ptspec")
    os.environ.pop("PTSPEC_DIGITS", None)
    hits: set = set()
    sys.path.insert(0, str(package.parent))
    sys.settrace(trace(package, hits))
    try:
        from ptspec import cli, series

        for command in COMMANDS:
            series.clear_memos()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main(command.split())
                except SystemExit:  # usage errors from argparse
                    pass
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        spans = statements(source)
        never = sorted(first for first, lines in spans.items()
                       if not any((str(path), line) in hits for line in lines))
        total += len(spans)
        missed += len(never)
        print(f"{path.name}: {len(never)} of {len(spans)} statements never ran")
        for line in never:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{missed} of {total} statements never ran over {len(COMMANDS)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
