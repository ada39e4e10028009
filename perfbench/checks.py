"""Independent checks of every CLI output the benchmark times.

Nothing here imports `hampow`: the host is read back from the graph file the
benchmark wrote, and every predicate is written out from its definition.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Host:
    """Parts and adjacency sets parsed from a canonical graph JSON document."""

    parts: tuple[tuple[int, ...], ...]
    adj: tuple[frozenset[int], ...]
    part_of: tuple[int, ...]

    @classmethod
    def from_json(cls, text: str) -> "Host":
        doc = json.loads(text)
        parts = tuple(tuple(p) for p in doc["parts"])
        n = sum(len(p) for p in parts)
        adj: list[set[int]] = [set() for _ in range(n)]
        part_of = [0] * n
        for i, part in enumerate(parts):
            for v in part:
                part_of[v] = i
        for u, v in doc["edges"]:
            adj[u].add(v)
            adj[v].add(u)
        return cls(parts, tuple(frozenset(a) for a in adj), tuple(part_of))

    @property
    def n(self) -> int:
        return len(self.adj)


@dataclass(frozen=True)
class Outcome:
    """solved: the call answered the question; problem: why the output is wrong."""

    solved: bool
    problem: str | None = None
    unrecorded: bool = False  # a `no` with no recorded verdict to compare against


def graph_key(graph_text: str, r: int) -> str:
    """Key of the verdict table: power r and a digest of the graph file."""
    return f"r{r}:{hashlib.sha256(graph_text.encode()).hexdigest()[:16]}"


def load_verdicts(path, budget: int) -> dict[str, str]:
    """Graph key -> the search answer recorded for it at the same node budget."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["budget"] != budget:
        raise ValueError(f"verdicts were recorded with budget {doc['budget']}, not {budget}")
    return {key: answer for answer in ("yes", "no", "budget_exceeded") for key in doc[answer]}


def cycle_problem(host: Host, r: int, cycle) -> str | None:
    """None when `cycle` is a spanning cyclic order whose every r consecutive
    vertices are pairwise adjacent; otherwise the first violation."""
    n = host.n
    if not isinstance(cycle, list) or sorted(cycle) != list(range(n)):
        return "cycle is not a permutation of the vertices"
    for t in range(n):
        for d in range(1, r):
            u, v = cycle[t], cycle[(t + d) % n]
            if v not in host.adj[u]:
                return f"window at position {t}: {u} and {v} are not adjacent"
    return None


def check_pipeline(host: Host, r: int, rc: int, out: str) -> Outcome:
    doc = json.loads(out)
    if rc == 0:
        if doc.get("ok") is not True:
            return Outcome(False, "exit 0 but the report is not ok")
        problem = cycle_problem(host, r, doc.get("cycle"))
        return Outcome(problem is None, problem)
    if rc in (4, 5):
        if doc.get("ok") is not False or doc.get("cycle") is not None:
            return Outcome(False, f"exit {rc} but the report carries a cycle")
        if (rc == 5) != (doc.get("budget_exceeded") is True):
            return Outcome(False, f"exit {rc} disagrees with budget_exceeded")
        return Outcome(False)
    return Outcome(False, f"unexpected exit code {rc}")


def cycle_source(out: str) -> str:
    """Which stage produced a solved pipeline's cycle, read from its stages."""
    stages = json.loads(out)["stages"]
    if any(s["name"] == "whole_graph_oracle" and s["ok"] for s in stages):
        return "whole_graph_oracle"
    if any(s["name"].startswith("group_path") and s["ok"] and s["detail"].startswith("oracle")
           for s in stages):
        return "group_oracle"
    return "constructive"


def transversal_cliques(host: Host, r: int):
    """Every clique with one vertex in each of the host's r parts, by brute force."""
    def rec(i: int, chosen: list[int]):
        if i == len(host.parts):
            yield tuple(chosen)
            return
        for v in host.parts[i]:
            if all(v in host.adj[u] for u in chosen):
                chosen.append(v)
                yield from rec(i + 1, chosen)
                chosen.pop()

    if len(host.parts) != r:
        raise ValueError("tile audit expects an r-partite host")
    return rec(0, [])


def _is_transversal_clique(host: Host, clique) -> bool:
    if len(clique) != len(host.parts) or not all(0 <= v < host.n for v in clique):
        return False
    if len({host.part_of[v] for v in clique}) != len(clique):
        return False
    return all(b in host.adj[a] for i, a in enumerate(clique) for b in clique[i + 1:])


def tile_problem(host: Host, r: int, doc: dict) -> str | None:
    """Audit a `tile --integral` answer: primal, dual certificate, flags, exact cover."""
    n = host.n
    optimum = Fraction(doc["optimum"])
    dual = [Fraction(y) for y in doc["dual"]]
    if len(dual) != n or any(y < 0 for y in dual):
        return "dual is not a nonnegative vector over the vertices"
    load = [Fraction(0)] * n
    primal = Fraction(0)
    for entry in doc["tiling"]:
        clique, w = entry["clique"], Fraction(entry["weight"])
        if w <= 0 or not _is_transversal_clique(host, clique):
            return f"tiling entry {clique} is not a positive transversal clique"
        primal += w
        for v in clique:
            load[v] += w
    if any(x > 1 for x in load):
        return f"vertex {max(range(n), key=load.__getitem__)} has load above 1"
    if primal != optimum:
        return f"tiling weights sum to {primal}, not the optimum {optimum}"
    for clique in transversal_cliques(host, r):
        if sum(dual[v] for v in clique) < 1:
            return f"dual sum over clique {list(clique)} is below 1"
    if sum(dual) != optimum:
        return f"duals sum to {sum(dual)}, not the optimum {optimum}"
    if doc["perfect"] != (optimum == Fraction(n, r)):
        return "perfect flag disagrees with optimum == n/r"
    integral = doc.get("integral")
    if integral is not None:
        if not doc["perfect"]:
            return "an integral tiling exists but the optimum is below n/r"
        if sorted(v for K in integral for v in K) != list(range(n)):
            return "integral tiling does not partition the vertices"
        if not all(_is_transversal_clique(host, K) for K in integral):
            return "integral tiling uses a set that is not a transversal clique"
    return None


def check_tile(host: Host, r: int, rc: int, out: str) -> Outcome:
    if rc != 0:
        return Outcome(False, f"unexpected exit code {rc}")
    problem = tile_problem(host, r, json.loads(out))
    return Outcome(problem is None, problem)


def check_search(host: Host, r: int, rc: int, out: str, recorded: str | None,
                 budget: int) -> Outcome:
    """A `yes` must carry a witness that checks; a decided answer must not
    contradict the verdict recorded for the same graph."""
    doc = json.loads(out)
    answer = doc.get("answer")
    if doc.get("nodes_expanded", 0) > budget + 1:
        return Outcome(False, "search expanded more nodes than its budget")
    if answer == "budget_exceeded":
        if rc != 5:
            return Outcome(False, f"budget exhausted but exit code {rc}")
        return Outcome(False)
    if rc != 0:
        return Outcome(False, f"answer {answer!r} with exit code {rc}")
    if recorded in ("yes", "no") and answer != recorded:
        return Outcome(False, f"verdict flipped from {recorded} to {answer}")
    if answer == "yes":
        problem = cycle_problem(host, r, doc.get("witness"))
        return Outcome(problem is None, problem and f"witness: {problem}")
    if answer == "no":
        return Outcome(True, unrecorded=recorded is None)
    return Outcome(False, f"unknown answer {answer!r}")


def check(command: str, host: Host, r: int, rc: int, out: str,
          recorded: str | None = None, budget: int = 0) -> Outcome:
    """Dispatch on the workload's subcommand; unparseable output is a problem."""
    try:
        if command in ("construct", "auto"):
            return check_pipeline(host, r, rc, out)
        if command == "tile":
            return check_tile(host, r, rc, out)
        if command == "search":
            return check_search(host, r, rc, out, recorded, budget)
    except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return Outcome(False, f"malformed output (exit {rc}): {exc!r}")
    raise ValueError(f"unknown workload command {command!r}")
