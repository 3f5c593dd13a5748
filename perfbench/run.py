"""ptspec benchmark: wall time of the CLI commands a user runs.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run it from the root of a ptspec checkout; ptspec is imported from
./src.  One client runs the workload's commands one after another, each
as a fresh `python -m ptspec ...` process timed from outside (a closed
loop, no parallelism).  A pass is one round of the workload's commands;
passes repeat until --seconds have gone, at least one.

--trace 0 reports the end-to-end metrics: median pass wall time,
set-up time and peak RSS.  --trace 1 runs one untraced and one traced
pass (perfbench/tracing.py) and reports the per-layer metrics folded
from the spans, the per-command wall times of the untraced pass, and the
traced/untraced wall ratio.

Every pass's output is checked against perfbench/oracles.py and the
properties in perfbench/checks.py.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_build") / "perfbench"
SETUP_REPS = 5
COMMAND_TIMEOUT_S = 150

# a fresh process that builds the workload's exact tables and takes one
# mpf snapshot at its precision (through eval_psi)
SETUP_CODE = """
import sys
from ptspec import PrecisionContext, build_tables, eval_psi
digits = int(sys.argv[1])
tables = [build_tables(*map(int, spec.split("/"))) for spec in sys.argv[2:]]
eval_psi(tables[0], complex("0.7+0.3j"), 5, PrecisionContext(digits))
"""


@dataclass
class Outcome:
    command: workloads.Command
    wall_s: float
    rss_mb: float
    returncode: int
    stdout: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, out_path: Path):
    """(wall seconds, peak RSS in MB, exit code) of one child process.

    os.wait4 gives this child's own ru_maxrss; RUSAGE_CHILDREN would be a
    running maximum over every child so far.
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env())
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def run_pass(workload, run_dir: Path, tag: str, traced: bool) -> list:
    outcomes = []
    for i, command in enumerate(workload.commands):
        out_path = run_dir / f"{tag}-{i}.out"
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(run_dir / f"spans-{i}.json")]
        else:
            argv = [sys.executable, "-m", "ptspec"]
        wall, rss, rc = run_child(argv + list(command.args), out_path)
        outcomes.append(Outcome(command, wall, rss, rc, out_path.read_text(encoding="utf-8")))
    return outcomes


def setup_seconds(workload, run_dir: Path) -> float:
    specs = [f"{n}/{p}" for n, p in workload.tables]
    argv = [sys.executable, "-c", SETUP_CODE, str(workload.digits)] + specs
    walls = []
    for rep in range(SETUP_REPS):
        wall, _, rc = run_child(argv, run_dir / f"setup-{rep}.out")
        if rc != 0:
            raise SystemExit(f"set-up probe failed with exit code {rc}")
        walls.append(wall)
    return statistics.median(walls)


def judge(passes) -> tuple:
    """(failed operations, correct) over every pass.

    The first pass is checked in full; a later pass must repeat its
    bytes, so it shares the verdict.
    """
    import checks  # numpy and scipy: only once no command is left to start

    reference = checks.oracles.load_reference()
    failed, correct = 0, True
    verdicts = []
    for outcome in passes[0]:
        maker, params = outcome.command.check
        try:
            check = getattr(checks, maker)(reference, *params)
            problems = check(outcome.stdout, outcome.returncode)
        except Exception as exc:  # a malformed output must not end the run
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        verdicts.append(problems)
        for problem in problems:
            print(f"{' '.join(outcome.command.args)}: {problem}", file=sys.stderr)
    for outcomes in passes:
        for outcome, first, problems in zip(outcomes, passes[0], verdicts):
            if outcome.stdout != first.stdout or outcome.returncode != first.returncode:
                print(f"{' '.join(outcome.command.args)}: output differs between passes",
                      file=sys.stderr)
                correct = False
            if problems:
                failed += 1
                correct = correct and all(p.startswith(checks.KNOWN_FAULT) for p in problems)
    return failed, correct


def end_to_end(passes, setup_s) -> dict:
    return {
        "wall_s": (statistics.median(sum(o.wall_s for o in p) for p in passes), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in p) for p in passes), "MB"),
    }


COMMANDS = ("spectrum", "scan", "selfcheck", "nodes", "expect", "wavefunction")


def per_layer(untraced, traced, run_dir: Path, span_file: Path) -> dict:
    span_lists = []
    for i in range(len(traced)):
        with open(run_dir / f"spans-{i}.json", encoding="utf-8") as fh:
            span_lists.append(json.load(fh))
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump([{"args": o.command.args, "spans": s} for o, s in zip(traced, span_lists)], fh)
    metrics = tracing.fold(span_lists)
    for name in COMMANDS:
        metrics[f"{name}_s"] = (sum(o.wall_s for o in untraced if o.command.name == name), "s")
    untraced_wall = sum(o.wall_s for o in untraced)
    metrics["trace.overhead_ratio"] = (sum(o.wall_s for o in traced) / untraced_wall, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/ptspec/__init__.py").is_file():
        print("perfbench: run from the root of a ptspec checkout (no src/ptspec here)",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    run_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            passes = [run_pass(workload, run_dir, "untraced", False),
                      run_pass(workload, run_dir, "traced", True)]
        else:
            setup_s = setup_seconds(workload, run_dir)
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(run_pass(workload, run_dir, f"pass{len(passes)}", False))
        failed, correct = judge(passes)
        if args.trace:
            span_file = OUT_DIR / f"spans-{args.workload}.json"
            metrics = per_layer(passes[0], passes[1], run_dir, span_file)
        else:
            metrics = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, outcomes in enumerate(passes):
        walls = ", ".join(f"{o.command.name} {o.wall_s:.2f}s" for o in outcomes)
        print(f"pass {i}: {walls}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
