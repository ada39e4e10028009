"""The four benchmark workloads: grids, instance generation and CLI calls.

Every instance is a host graph made by `gen_random` from a seed that the
benchmark derives from its own `--seed`, written to a graph file during set-up,
and handed to one `hampow.cli.main([...])` call.  The program sees only the
graph file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Cell:
    """One grid point: r, k, part sizes and the edge density of the host."""

    r: int
    k: int
    sizes: tuple[int, ...]
    density: F

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def key(self) -> str:
        return f"r={self.r} k={self.k} n={self.n} density={self.density}"

    @property
    def edge_probability(self) -> float:
        """The density as the float `gen_random` should compare its draws with.

        `random.random()` returns multiples of 2**-53, so rounding the density
        up to the next such multiple changes no comparison, and that multiple
        is an exact float: the graphs are those the Fraction gives, made about
        five times faster than by comparing every draw with a Fraction.
        """
        return math.ceil(self.density * 2**53) / 2**53


@dataclass(frozen=True)
class Workload:
    """A grid of cells, how many instances each gets, and the CLI call.

    Metrics weigh every cell equally, whatever its instance count (see
    `run.end_to_end`), so a cell gets more instances only to pin down its mean:
    `graphs` gives the graphs of each cell, each called with `runs_per_graph`
    run seeds.
    """

    name: str
    command: str  # the hampow subcommand
    cells: tuple[Cell, ...]
    graphs: Callable[[Cell], int]  # with runs_per_graph and --seconds: the run length
    runs_per_graph: int = 1  # distinct --seed values per graph (pipeline only)

    def argv(self, graph: Path, cell: Cell, run_seed: int) -> list[str]:
        common = ["--graph", str(graph), "--r", str(cell.r)]
        if self.command == "construct":
            return ["pipeline", "--mode", "constructive", *common, "--seed", str(run_seed)]
        if self.command == "auto":
            return ["pipeline", "--relaxed", *common, "--seed", str(run_seed)]
        if self.command == "search":
            return ["search", "--budget", str(SEARCH_BUDGET), *common]
        if self.command == "tile":
            return ["tile", "--integral", *common]
        raise ValueError(f"unknown workload command {self.command!r}")


@dataclass(frozen=True)
class Instance:
    index: int
    cell: Cell
    graph: int  # instances with the same graph share one graph file
    graph_seed: int
    run_seed: int


SEARCH_BUDGET = 200_000


def _balanced(n: int, k: int) -> tuple[int, ...]:
    base, extra = divmod(n, k)
    return tuple([base + 1] * extra + [base] * (k - extra))


def _construct_balanced() -> tuple[Cell, ...]:
    cells = []
    for r, ms in ((2, (16, 18, 20, 22)), (3, (44, 50))):
        for m in ms:
            for d in (F(1), F(99, 100), F(97, 100)):
                cells.append(Cell(r, r, (m,) * r, d))
    return tuple(cells)


def _auto_multipartite() -> tuple[Cell, ...]:
    cells = []
    for r, k in ((2, 3), (3, 4), (3, 5), (4, 5), (4, 6)):
        for n in (120, 240):
            for d in (F(9, 10), F(19, 20)):
                cells.append(Cell(r, k, _balanced(n, k), d))
    return tuple(cells)


def _decide_threshold() -> tuple[Cell, ...]:
    cells = []
    for n in (15, 18, 21, 24):
        for d in (F(13, 20), F(7, 10), F(3, 4)):
            cells.append(Cell(3, 3, _balanced(n, 3), d))
    for n in (16, 20, 24):
        for d in (F(2, 5), F(9, 20)):
            cells.append(Cell(2, 2, _balanced(n, 2), d))
    return tuple(cells)


def _tile_certify() -> tuple[Cell, ...]:
    cells = []
    for r, ns in ((2, (16, 24, 32)), (3, (12, 15, 18)), (4, (12, 16))):
        densities = (F(1, 2), F(3, 4), F(19, 20)) if r == 2 else (F(3, 5), F(4, 5), F(19, 20))
        for n in ns:
            for d in densities:
                cells.append(Cell(r, r, _balanced(n, r), d))
    return tuple(cells)


def _uniform(count: int) -> Callable[[Cell], int]:
    return lambda cell: count


# Hosts per cell.  Every cell weighs the same in the metrics, so a cell's count
# only sets how well its mean is known; the counts follow, roughly, how much a
# cell moves solved_per_s per second it costs (Neyman allocation), measured on
# 33-50 hosts per cell at the commit that set them.

def _construct_graphs(cell: Cell) -> int:
    """Density 1: `gen_random` gives the complete graph whatever its seed, so
    only the run seed varies: 2 hosts, 5 at the largest m of each r, which take
    half of a pass.  Below density 1 the outcome varies from host to host: 20
    hosts where a call costs under 0.04 s (r=2, m <= 18), 10 elsewhere, but 2
    for r=3 at density 97/100, where no host is solved and every call costs
    about the same."""
    m = cell.sizes[0]
    if cell.density == 1:
        return 5 if (cell.r, m) in ((2, 22), (3, 50)) else 2
    if cell.r == 3 and cell.density == F(97, 100):
        return 2
    return 20 if cell.r == 2 and m <= 18 else 10


def _auto_graphs(cell: Cell) -> int:
    """r=4, k=6, n=240 at density 9/10 carries about 60 % of a pass, and a call
    there takes 0.04-1.9 s, mostly by run seed: 6 hosts.  That cell at density
    19/20 and the r=3, k=5 cells have heavy tails too: 2 hosts.  1 elsewhere."""
    if (cell.r, cell.k, cell.n) == (4, 6, 240):
        return 6 if cell.density == F(9, 10) else 2
    return 2 if (cell.r, cell.k) == (3, 5) else 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("construct-balanced", "construct", _construct_balanced(), _construct_graphs),
        Workload("auto-multipartite", "auto", _auto_multipartite(), _auto_graphs, 5),
        Workload("decide-threshold", "search", _decide_threshold(), _uniform(12)),
        Workload("tile-certify", "tile", _tile_certify(), _uniform(1)),
    )
}


def instances(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance list for a seed: rounds over the grid, each
    visiting every cell that has graphs left, each graph called with
    `runs_per_graph` run seeds.  The same seed always gives the same list.
    """
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    counts = [workload.graphs(cell) for cell in workload.cells]
    out: list[Instance] = []
    graph = 0
    for round_ in range(max(counts)):
        for cell, count in zip(workload.cells, counts):
            if round_ >= count:
                continue
            graph_seed = rng.randrange(2**32)
            for _ in range(workload.runs_per_graph):
                out.append(Instance(len(out), cell, graph, graph_seed, rng.randrange(2**16)))
            graph += 1
    return out
