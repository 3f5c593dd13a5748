"""Diff the CLI behaviour of two ptspec source trees.

    python3 tools/clidiff.py OLD NEW

OLD and NEW each name a tree: a checkout directory holding src/ptspec,
or else a git revision of the repository this tool belongs to (such as
HEAD~1), which is unpacked with `git archive` into a temporary directory
removed at exit.  So `python3 tools/clidiff.py HEAD .` diffs the working
tree against the last commit.  Every command of COMMANDS runs as
`python3 -m ptspec ARGS` once per tree, in a fresh process with
PYTHONPATH=TREE/src, and the two runs are compared on stdout, stderr and
exit code.  One line per command says `identical` or `differs`; for a
difference it adds the stream and the first differing line of each side.
After the summary line it prints the line count of src/ptspec/*.py in
each tree, as `wc -l` counts it.  The exit code is the number of
commands that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_WAVE = ("--xmin=-2", "--xmax=2", "--step=1/4")

# the command set the changes in CHANGES.md are diffed on
COMMANDS = (
    "spectrum --N 3 --levels 5",
    "spectrum --N 3 --levels 5 --format csv",
    "spectrum --N 7 --radius 3 --pair 0 --levels 4",
    "spectrum --N 7 --radius 3 --pair 1 --levels 4",
    "spectrum --N 7 --radius 3 --pair 2 --levels 4",
    "spectrum --N 4 --pair 0 --radius 6 --levels 4",
    "spectrum --N 4 --pair 0 --radius 6 --levels 4 --format csv",
    "spectrum --N 2 --pair 1 --force --levels 5",
    "spectrum --N 2 --pair 1 --force --levels 5 --format csv",
    "spectrum --N 4 --pair 0 --radius 6 --levels 3 --parity odd",
    "spectrum --N 4 --pair 0 --radius 6 --levels 3 --parity even --format csv",
    "spectrum --N 2 --pair 1 --force --levels 3 --parity even",
    "spectrum --N 6 --pair 2 --radius 4 --levels 4",
    "spectrum --N 2 --pair 1 --levels 1",
    "spectrum --N 2 --pair 0 --force",
    "spectrum --N 6 --pair 0 --radius 4 --levels 2 --force",
    "spectrum --N 3 --levels 4 --emax 5",
    "spectrum --N 4 --pair 0 --radius 6 --levels 30 --emax 5",
    "spectrum --N 5 --radius 4 --levels 3",
    "spectrum --N 3 --levels 5 --digits 80 --pmax 150",
    "scan --N 3",
    "scan --N 3 --emin 1 --emax 3 --step 0.1 --format json",
    "scan --N 2 --pair 1 --emin 2.5 --emax 3.5 --step 0.1",
    "scan --N 7 --radius 3 --pair 2 --emin=-1/3 --emax 2 --step 1/7",
    "spectrum --N 3 --levels 3 --step 1/30",
    "spectrum --N 3 --radius 3/4 --pmax 40 --force --levels 1 --emax 20",
    "spectrum --N 3 --radius 3/4 --pmax 40 --force --levels 1 --emax 1",
    "selfcheck",
    "selfcheck --digits 20",
    "selfcheck --digits 80",
    "wedges --N 4",
    "wedges --N 4 --format csv",
    "wedges --N 7 --format csv --digits 20",
    "nodes --N 3 --level 2",
    "nodes --N 3 --level 1",
    "nodes --N 3 --level 1 --format csv",
    "nodes --N 3 --level 7",
    "nodes --N 7 --radius 3 --pair 1 --level 3",
    "nodes --N 7 --radius 3 --pair 2 --level 3",
    "nodes --N 3 --level 4 --region=-3,3,-3,3",
    "expect --N 3 --level 0 --moments 3,1,4,2",
    "expect --N 3 --level 0 --moments 0,2 --format csv",
    "expect --N 3 --level 0 --moments 0,1,2,3,4",
    "expect --N 3 --level 3 --moments 0,1,2,3,4",
    "expect --N 3 --level 0 --moments 0,1,2,3,4 --contour wedge_rays",
    "expect --N 3 --level 3 --moments 0,1,2,3,4 --contour wedge_rays",
    "expect --N 3 --level 0 --moments 0,2,3 --contour wedge_rays --lambda 7",
    "expect --N 7 --radius 3 --pair 1 --level 0 --moments 0,2,6 --contour wedge_rays --lambda 3",
    "wavefunction --N 3 --level 1 --xmin=-4.5 --xmax=4.5 --step=9/200",
    "wavefunction --N 3 --level 1 --format json --xmin -1 --xmax 1 --step 0.5",
    "wavefunction --N 2 --pair 1 --radius 6 --level 2 " + " ".join(_WAVE),
    "wavefunction --N 4 --pair 0 --radius 6 --level 1 --parity odd --format json " + " ".join(_WAVE),
    "nodes --N 7 --radius 3 --pair 1 --level 1 --region=5/2,29/10,-3/2,-1/2",
    "expect --N 7 --radius 3 --pair 1 --level 0 --moments 0,2 --contour wedge_rays --lambda 4",
    "wavefunction --N 7 --radius 3 --pair 1 --level 1 --xmin=-4 --xmax=4 --step=1/2",
    "expect --N 4 --pair 0 --radius 6 --level 1 --parity odd --moments 0,2 --contour wedge_rays --lambda 5",
    "nodes --N 4 --pair 0 --radius 6 --level 2 --parity even",
    "spectrum --N 7 --radius 3 --pair 1 --levels 4 --health-emax 32",
    "spectrum --N 2 --pair 1 --force --levels 3 --emax 1000",
    "scan --N 3 --emin=-4 --emax 4 --step 1/4",
    "nodes --N 4 --pair 0 --radius 6 --level 0",
    "nodes --N 6 --pair 2 --radius 4 --level 0",
    "spectrum --N 3 --radius 3/4 --pmax 40 --levels 1 --emax 1",
    "expect --N 6 --pair 2 --radius 4 --level 0 --moments 0,2",
    "spectrum --N 10 --pair 5 --radius 3 --pmax 200 --levels 3 --emax 300 --force",
    "spectrum --N 10 --pair 5 --radius 3 --levels 3 --emax 300 --force",
    "spectrum --N 16 --pair 8 --radius 2 --pmax 200 --levels 3 --emax 300 --force",
    "spectrum --N 12 --pair 6 --radius 5/2 --pmax 200 --levels 3 --emax 300 --force",
    "spectrum --N 24 --pair 12 --radius 7/4 --pmax 200 --levels 2 --emax 2000 --force",
    "nodes --N 2 --pair 1 --level 1",
    "nodes --N 2 --pair 1 --level 3",
    "nodes --N 4 --pair 0 --radius 6 --level 1",
    "nodes --N 3 --level 2 --digits 80 --pmax 150",
    "expect --N 3 --level 0 --moments 0,2,3 --digits 80 --pmax 150",
    "spectrum --N 3 --levels 5 --emax 1000",
    "spectrum --N 4 --pair 0 --radius 6 --levels 4 --emax 1000",
    "spectrum --N 7 --radius 3 --pair 2 --levels 4 --emax 10000",
    "wavefunction --N 3 --level 1 --xmin=-7 --xmax=7 --step=1/4",
    "wavefunction --N 3 --level 1 --digits 80 --pmax 150 --xmin=-4 --xmax=4 --step=1/2",
    "scan --N 2 --pair 1 --emin 63 --emax 65 --step 1/2",
)


def tree_of(spec: str, stack: contextlib.ExitStack) -> Path:
    """The directory spec, or the git revision spec unpacked into a
    temporary directory that stack removes."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "-C", str(_REPO), "archive", spec], capture_output=True)
    if archive.returncode:
        message = archive.stderr.decode().strip()
        raise SystemExit(f"clidiff: {spec} is neither a directory nor a git revision ({message})")
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="clidiff-")))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def run(tree: Path, command: str):
    """(exit code, stdout, stderr) of one command against one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PTSPEC_DIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ptspec", *command.split()],
        capture_output=True, text=True, env=env, cwd=tree,
    )
    return proc.returncode, proc.stdout, proc.stderr


def first_difference(old: str, new: str):
    """(line number, old line, new line) of the first differing line."""
    a, b = old.splitlines(), new.splitlines()
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else "<missing>"
        right = b[i] if i < len(b) else "<missing>"
        if left != right:
            return i + 1, left, right
    return None


def compare(old_tree: Path, new_tree: Path, command: str) -> str:
    old, new = run(old_tree, command), run(new_tree, command)
    if old == new:
        return f"identical  {command}"
    lines = [f"differs    {command}"]
    if old[0] != new[0]:
        lines.append(f"    exit code {old[0]} -> {new[0]}")
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        hit = first_difference(a, b)
        if hit:
            lines.append(f"    {stream} line {hit[0]}:")
            lines.append(f"      - {hit[1]}")
            lines.append(f"      + {hit[2]}")
    return "\n".join(lines)


def line_count(tree: Path) -> int:
    """Newlines in the tree's src/ptspec/*.py, the total of `wc -l`."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "ptspec").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="checkout directory or git revision")
    parser.add_argument("new", help="checkout directory or git revision")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        old, new = (tree_of(spec, stack) for spec in (args.old, args.new))
        for spec, tree in ((args.old, old), (args.new, new)):
            if not (tree / "src" / "ptspec").is_dir():
                parser.error(f"{spec} has no src/ptspec")
        differs = 0
        for command in COMMANDS:
            report = compare(old, new, command)
            print(report, flush=True)
            differs += report.startswith("differs")
        print(f"{len(COMMANDS) - differs} identical, {differs} differ")
        print(f"lines in src/ptspec: {line_count(old)} -> {line_count(new)}")
    return differs


if __name__ == "__main__":
    sys.exit(main())
