"""The workloads: the CLI commands of one pass, made from the seed.

The seed changes nothing about the work: it shuffles the order of the
commands in a pass and of the requested moments, and picks the window
of the wavefunction grid (always 201 points, symmetric about 0).

This module uses the standard library only; a command names its check
as (maker in checks.py, parameters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `name` is the subcommand it times."""

    name: str
    args: tuple
    check: tuple  # (maker in checks.py, its parameters after the reference)


@dataclass(frozen=True)
class Workload:
    commands: tuple
    tables: tuple  # (N, pmax) pairs the commands build, for the set-up probe
    digits: int


WORKLOADS = ("spectra", "eigenfunctions")
WINDOWS = ("4", "4.25", "4.5", "4.75", "5")


def build(name: str, seed: int) -> Workload:
    """The workload's commands, in the order the seed picks."""
    rng = random.Random(seed)
    if name == "spectra":
        commands = [
            Command("spectrum", ("spectrum", "--N", "3", "--levels", "5"),
                    ("im_c_spectrum", (3, 0, 5))),
            *(
                Command("spectrum", ("spectrum", "--N", "7", "--radius", "3", "--pair", str(p),
                                     "--levels", "4"), ("im_c_spectrum", (7, p, 4)))
                for p in range(3)
            ),
            Command("spectrum", ("spectrum", "--N", "4", "--pair", "0", "--radius", "6",
                                 "--levels", "4"), ("parity_spectrum", (4, 4))),
            Command("spectrum", ("spectrum", "--N", "2", "--pair", "1", "--force",
                                 "--levels", "5"), ("oscillator_spectrum", (5,))),
            Command("scan", ("scan", "--N", "3"), ("scan", (30,))),
            Command("selfcheck", ("selfcheck",), ("selfcheck", ())),
        ]
        tables, digits = ((3, 100), (7, 100), (4, 100), (2, 100), (3, 60), (2, 60)), 40
    elif name == "eigenfunctions":
        moments = [1, 2, 3, 4]
        rng.shuffle(moments)
        window = rng.choice(WINDOWS)
        commands = [
            Command("nodes", ("nodes", "--N", "3", "--level", "2"), ("nodes", (2,))),
            Command("expect", ("expect", "--N", "3", "--level", "0", "--moments",
                               ",".join(map(str, moments))), ("expect", (0, tuple(moments)))),
            Command("wavefunction", ("wavefunction", "--N", "3", "--level", "1",
                                     f"--xmin=-{window}", f"--xmax={window}",
                                     f"--step={Fraction(window) / 100}"),
                    ("wavefunction", (1, window))),
        ]
        tables, digits = ((3, 100),), 40
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(commands)
    return Workload(tuple(commands), tables, digits)
