"""Shared helpers: independent brute-force checkers the tests trust instead of
the library's own predicates."""

from __future__ import annotations

import itertools

from hampow.graphs import MultipartiteGraph, gen_random


def complete(k: int, sizes) -> MultipartiteGraph:
    return gen_random(k, list(sizes), 1, 0)


def naive_is_walk(graph: MultipartiteGraph, seq, r: int) -> bool:
    """Window-by-window clique check, straight from the definition."""
    vs = list(seq)
    if len(vs) < r:
        return True
    for t in range(len(vs) - r + 1):
        window = vs[t : t + r]
        for a, b in itertools.combinations(window, 2):
            if a == b or b not in graph.adj[a]:
                return False
    return True


def naive_is_cycle(graph: MultipartiteGraph, order, r: int) -> bool:
    """Cyclic windows over a candidate spanning order."""
    vs = list(order)
    n = len(vs)
    if n != graph.n or set(vs) != set(range(n)):
        return False
    for t in range(n):
        window = [vs[(t + d) % n] for d in range(r)]
        for a, b in itertools.combinations(window, 2):
            if a == b or b not in graph.adj[a]:
                return False
    return True


def naive_cycle_exists(graph: MultipartiteGraph, r: int) -> bool:
    """Permutation enumeration with the first position pinned; only for tiny n."""
    n = graph.n
    if n == 0:
        return True
    for rest in itertools.permutations(range(1, n)):
        if naive_is_cycle(graph, (0,) + rest, r):
            return True
    return False


def naive_path_between(graph: MultipartiteGraph, r: int, ka, kb) -> bool:
    """Permutation enumeration of the vertices off both anchors, each order
    checked as the walk ka + order + kb; only for tiny n."""
    anchored = set(ka) | set(kb)
    free = [v for v in range(graph.n) if v not in anchored]
    return any(
        naive_is_walk(graph, list(ka) + list(perm) + list(kb), r)
        for perm in itertools.permutations(free)
    )


def full_scan_sample_walk(graph: MultipartiteGraph, table, rng):
    """Reference back-trace of a connecting-walk DP table: every vertex of the
    graph is tried as the dropped predecessor vertex, in ascending order."""

    def choose(weighted):
        pick = rng.randrange(sum(weighted.values()))
        for key, cnt in weighted.items():
            if pick < cnt:
                return key
            pick -= cnt
        raise AssertionError("weights were empty")

    out = [choose(table.final)]
    for t in range(table.ell - 1, 0, -1):
        layer = table.layers[t]
        cur = out[-1]
        nb = graph.adj[cur[-1]]
        cand = {}
        for u in range(graph.n):
            prev = (u,) + cur[:-1]
            cnt = layer.get(prev)
            if cnt and u in nb:
                cand[prev] = cnt
        out.append(choose(cand))
    return tuple(state[-1] for state in reversed(out))
