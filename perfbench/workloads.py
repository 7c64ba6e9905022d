"""The three workloads, as rounds of CLI jobs over seeded inputs.

A round is the unit the measured loop repeats, so every run holds whole
rounds and the same mix of kinds whatever the seed:

- certify: `verify --all` (grid 32x16) on the demo box and one seeded input
  of each kind, so the demo, whose end slope reaches 1/sqrt2, is 1 job in 5.
- fold-mesh: `deform --t` at 96x48 on one input, at the folded state t = 0,
  one seeded open state and the flat state t = 1.  Rounds take the demo and
  then one seeded input of each kind in turn.
- pattern-family: `family --pattern-scaling` at 48x24 with three increasing
  t values starting at 0, on the demo and two seeded inputs of each kind.
  The demo job costs several seeded ones, so it is 1 job in 9 to leave
  enough seeded jobs in a round for a steady median.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from inputs import DEMO, KINDS, InputGenerator

NAMES = ("certify", "fold-mesh", "pattern-family")
FAMILY_T_COUNT = 3
ORDER = ("demo",) + KINDS


@dataclass
class Job:
    workload: str
    kind: str                 # "demo" or one of inputs.KINDS
    desc: dict
    argv: list
    out: Path
    t: float | None = None
    t_values: list = field(default_factory=list)

    @property
    def demo(self) -> bool:
        return self.kind == "demo"


class Workload:
    """Seeded inputs written to `workdir`, served as rounds of jobs."""

    def __init__(self, name: str, seed: int, workdir: Path, validate,
                 grids: dict | None = None):
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.gen = InputGenerator(seed, validate)
        self.workdir = workdir
        self.grids = {"certify": "32x16", "fold-mesh": "96x48",
                      "pattern-family": "48x24", **(grids or {})}
        self._files = 0
        self._jobs = 0
        self._rounds = 0
        self.demo_file = self._write(DEMO)

    def _write(self, desc: dict) -> Path:
        path = self.workdir / f"input-{self._files}.json"
        self._files += 1
        path.write_text(json.dumps(desc))
        return path

    def _job(self, kind, desc, path, argv, **extra) -> Job:
        out = self.workdir / f"job-{self._jobs}"
        self._jobs += 1
        grid = self.grids[self.name]
        if self.name != "pattern-family":
            argv = argv + ["--out", str(out)]
        return Job(self.name, kind, desc, argv + ["--grid", grid, "--input", str(path)],
                   out, **extra)

    def _input(self, kind: str):
        if kind == "demo":
            return DEMO, self.demo_file
        desc = self.gen.draw(kind)
        return desc, self._write(desc)

    def next_round(self) -> list:
        """The jobs of the next round, drawn from the seeded stream."""
        r = self._rounds
        self._rounds += 1
        if self.name == "certify":
            return [self._job(kind, *self._input(kind), ["verify", "--all"])
                    for kind in ORDER]
        if self.name == "fold-mesh":
            kind = ORDER[r % len(ORDER)]
            desc, path = self._input(kind)
            return [self._job(kind, desc, path, ["deform", "--t", str(t)], t=t)
                    for t in (0.0, self.gen.t_open(), 1.0)]
        jobs = []
        for kind in ORDER + KINDS:
            desc, path = self._input(kind)
            ts = self.gen.t_values(FAMILY_T_COUNT)
            jobs.append(self._job(
                kind, desc, path,
                ["family", "--pattern-scaling", "--t-values", ",".join(map(str, ts))],
                t_values=ts))
        return jobs
