"""Shared helpers: independent brute-force checkers the tests trust instead of
the library's own predicates."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from typing import Sequence

from hampow import tiling
from hampow.errors import (
    GraphFormatError,
    GraphValidationError,
    SearchExhaustedError,
)
from hampow.graphs import MultipartiteGraph, gen_random
from hampow.tiling import PathCover


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


def naive_seam_ok(graph, left, right, r):
    """Every pair across the seam of left + right at distance <= r-1 is an edge."""
    seq = list(left) + list(right)
    cut = len(left)
    return all(
        seq[i] != seq[j] and seq[j] in graph.adj[seq[i]]
        for i in range(cut)
        for j in range(cut, min(len(seq), i + r))
    )


def reference_verify_report(graph: MultipartiteGraph, seq, r: int):
    """`paths.verify_ham_power_cycle_report` as a scan over every position and
    distance, cyclically, with no one-pass test before it."""
    vs = tuple(seq)
    n = graph.n
    if len(vs) != n or set(vs) != set(range(n)):
        return False, "sequence does not cover every vertex exactly once", None
    for t in range(n):
        for d in range(1, r):
            u, v = vs[t], vs[(t + d) % n]
            if u == v or v not in graph.adj[u]:
                return False, f"cyclic window violation between positions {t} and {(t + d) % n}", t
    return True, "ok", None


def reference_degree_profile(graph: MultipartiteGraph):
    """The least proportional degree of every ordered part pair, vertex by
    vertex, and their minimum, with `degree_profile`'s errors."""
    if graph.k < 2:
        raise GraphValidationError("degree profile needs at least two parts")
    for i, part in enumerate(graph.parts):
        if not part:
            raise GraphValidationError(f"part {i} is empty")
    rows = []
    for i, part in enumerate(graph.parts):
        row = []
        for j, other in enumerate(graph.parts):
            if i == j:
                row.append(None)
                continue
            worst = None
            for v in part:
                d = Fraction(sum(1 for w in other if w in graph.adj[v]), len(other))
                worst = d if worst is None or d < worst else worst
            row.append(worst)
        rows.append(tuple(row))
    return tuple(rows), min(d for row in rows for d in row if d is not None)


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


# Reference copies of the graph checks and the sequencing kernels as they were
# before their set-wise rewrites.  The library must agree with them exactly:
# same accepted graphs and adjacency iteration order, same error type and
# message, same picks from the same seeded rng.


def build_outcome(build):
    """What a graph build returns, as (parts, adjacency lists in iteration
    order, name), or the (type, message) of the error it raises."""
    try:
        got = build()
    except Exception as exc:  # the comparison is over every exception type
        return type(exc), str(exc)
    parts, adj, name = (got.parts, got.adj, got.name) if isinstance(got, MultipartiteGraph) else got
    return parts, [list(a) for a in adj], name


def scan_validate(parts, adj) -> None:
    """Pair-by-pair graph check: raises GraphValidationError for the first
    violation, part by part and then edge by edge."""
    n = len(adj)
    seen: set[int] = set()
    for part in parts:
        if list(part) != sorted(part):
            raise GraphValidationError("parts must be stored as sorted id lists")
        for v in part:
            if not 0 <= v < n:
                raise GraphValidationError(f"vertex id {v} out of range 0..{n - 1}")
            if v in seen:
                raise GraphValidationError(f"vertex {v} appears in more than one part")
            seen.add(v)
    if len(seen) != n:
        missing = next(v for v in range(n) if v not in seen)
        raise GraphValidationError(f"vertex {missing} is not covered by any part")
    part_of = [-1] * n
    for i, part in enumerate(parts):
        for v in part:
            part_of[v] = i
    for u in range(n):
        for v in adj[u]:
            if not 0 <= v < n:
                raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
            if v == u:
                raise GraphValidationError(f"self-loop at vertex {u}")
            if u not in adj[v]:
                raise GraphValidationError(f"adjacency not symmetric on ({u},{v})")
            if part_of[u] == part_of[v]:
                raise GraphValidationError(
                    f"edge inside part: ({u},{v}) both in part {part_of[u]}"
                )


def reference_from_edges(parts, edges, name=None):
    """Every edge range-checked before it is added; returns (parts, adj, name)."""
    norm_parts = tuple(tuple(sorted(p)) for p in parts)
    n = sum(len(p) for p in norm_parts)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphValidationError(f"edge ({u},{v}) references a dangling vertex id")
        adj[u].add(v)
        adj[v].add(u)
    frozen = tuple(frozenset(s) for s in adj)
    scan_validate(norm_parts, frozen)
    return norm_parts, frozen, name


def reference_load_graph(text: str):
    """Every type check of the document, in order, then `reference_from_edges`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    try:
        k = doc["k"]
        parts = doc["parts"]
        edges = doc["edges"]
    except KeyError as exc:
        raise GraphFormatError(f"missing required field {exc}") from exc
    name = doc.get("name")

    def int_rows(value):
        return (
            type(value) is list
            and set(map(type, value)) <= {list}
            and set(map(type, itertools.chain.from_iterable(value))) <= {int}
        )

    if type(k) is not int:
        raise GraphFormatError("'k' must be an int")
    if not int_rows(parts):
        raise GraphFormatError("'parts' must be an array of arrays of ints")
    if not int_rows(edges) or not set(map(len, edges)) <= {2}:
        raise GraphFormatError("'edges' must be an array of [int, int] pairs")
    if "name" in doc and type(name) is not str:
        raise GraphFormatError("'name' must be a string")
    if k != len(parts):
        raise GraphValidationError(f"declared k={k} but {len(parts)} parts given")
    return reference_from_edges(parts, edges, name)


def reference_save_graph(graph: MultipartiteGraph) -> str:
    """The canonical text built as one document: each edge sorted by min/max,
    the whole list sorted, then `json.dumps` of the key-ordered dict."""
    edges = sorted(
        (min(u, v), max(u, v)) for u in range(graph.n) for v in graph.adj[u] if u < v
    )
    doc: dict = {
        "k": graph.k,
        "parts": [list(p) for p in graph.parts],
        "edges": [list(e) for e in edges],
    }
    if graph.name is not None:
        doc["name"] = graph.name
    return json.dumps(doc, separators=(",", ":"))


def reference_count_connecting_walks(graph, u_sets, p1, p2, ell, r):
    """The walk count that carries exact counts through every layer, as
    (total, layers, final): layers[t] maps each state of t steps to its number
    of walks, in first-seen order.  The inputs are taken as already validated."""
    pool = sorted(frozenset().union(*(frozenset(u) for u in u_sets)))
    pool_set = frozenset(pool)
    in_pool = {v: graph.adj[v] & pool_set for v in pool}
    for v in set(p1) | set(p2):
        in_pool.setdefault(v, graph.adj[v] & pool_set)
    window = r - 1
    seed = tuple(p1[-window:])
    layers = [{seed: 1}]
    states, ids, successors, counts = [seed], {seed: 0}, [None], {0: 1}
    for _ in range(ell):
        nxt = {}
        for i, cnt in counts.items():
            succ = successors[i]
            if succ is None:
                state = states[i]
                succ = successors[i] = []
                for w in frozenset.intersection(*(in_pool[u] for u in state)):
                    key = state[1:] + (w,)
                    j = ids.get(key)
                    if j is None:
                        j = ids[key] = len(states)
                        states.append(key)
                        successors.append(None)
                    succ.append(j)
            for j in succ:
                nxt[j] = nxt.get(j, 0) + cnt
        layers.append(dict(zip(map(states.__getitem__, nxt), nxt.values())))
        counts = nxt
    head = p2[:window]
    final = {state: cnt for state, cnt in layers[-1].items()
             if naive_seam_ok(graph, state, head, r)}
    return sum(final.values()), layers, final


def connectors_by_brute_force(graph, u_sets, p1, p2, ell, r):
    """Every length-ell sequence Q of distinct vertices of the sets, off P1 and
    P2, such that p1 Q p2 passes the naive window check: grown one vertex at a
    time from the whole pool, each prefix checked after P1."""
    taken = set(p1) | set(p2)
    pool = sorted({v for u in u_sets for v in u} - taken)
    found, stack = [], [()]
    while stack:
        q = stack.pop()
        if len(q) == ell:
            if naive_is_walk(graph, p1 + q + p2, r):
                found.append(q)
            continue
        stack.extend(q + (v,) for v in pool
                     if v not in q and naive_is_walk(graph, p1[-(r - 1):] + q + (v,), r))
    return sorted(found)


def reference_gen_random(k, sizes, target_delta, seed) -> MultipartiteGraph:
    """One draw per cross pair, part pair by part pair, each compared with the
    density itself (a Fraction where one is given), and the edges drawn
    handed to `from_edges` in order."""
    parts, next_id = [], 0
    for s in sizes:
        parts.append(list(range(next_id, next_id + s)))
        next_id += s
    rng = random.Random(seed)
    edges = [
        (u, v)
        for i in range(k)
        for j in range(i + 1, k)
        for u in parts[i]
        for v in parts[j]
        if rng.random() < target_delta
    ]
    return MultipartiteGraph.from_edges(parts, edges)


def reference_gen_extremal(k, sizes, r) -> MultipartiteGraph:
    """Every cross pair but the planted ones, pair by pair, handed to
    `from_edges` in order."""
    parts, next_id = [], 0
    for s in sizes:
        parts.append(list(range(next_id, next_id + s)))
        next_id += s
    planted = {v for part in parts for v in part[: len(part) // r + 1]}
    edges = [
        (u, v)
        for i in range(k)
        for j in range(i + 1, k)
        for u in parts[i]
        for v in parts[j]
        if not (u in planted and v in planted)
    ]
    return MultipartiteGraph.from_edges(parts, edges)


def window_paths_by_brute_force(graph, cells, used, r, before=(), after=()):
    """Every pick list, in product order, of one vertex per cell such that the
    picks are distinct and off `used`, and each pick is adjacent to every
    vertex of before + picks + after that lies within distance r-1 of it."""
    found = []
    for picks in itertools.product(*cells):
        seq = [*before, *picks, *after]
        at = range(len(before), len(before) + len(picks))
        if len(set(picks)) == len(picks) and not used & set(picks) and all(
            naive_is_walk(graph, (seq[i], seq[j]), 2)
            for i in at for j in range(max(0, i - r + 1), min(len(seq), i + r)) if j != i
        ):
            found.append(picks)
    return found


# Reference copies of the kernels the constructive path reaches once a host's
# real leftover decides coverage, as they were before their rewrites: the
# library must give the same covers, samples, errors and A2 minimum.


def reference_group_degree_slack(graph, plan):
    """Condition A2 of `verify_plan`, one Fraction per (vertex, other cell)."""
    slack = None
    a2_detail = ""
    for j, cells in enumerate(plan.groups):
        for h, cell in enumerate(cells):
            for h2, cell2 in enumerate(cells):
                if h == h2 or not cell2:
                    continue
                for v in cell:
                    d = Fraction(len(graph.adj[v] & cell2), len(cell2))
                    if slack is None or d < slack:
                        slack = d
                        a2_detail = f"worst proportional degree {d} at vertex {v} in group {j}"
    return slack, a2_detail


def reference_cliques(graph, r):
    """Transversal r-cliques by one generator frame per chosen vertex, every
    pool filtered vertex by vertex in part order."""
    k = graph.k

    def rec(start, chosen, common):
        depth = len(chosen)
        if depth == r:
            yield tuple(chosen)
            return
        for p in range(start, k - (r - depth) + 1):
            pool = graph.parts[p] if common is None else [v for v in graph.parts[p] if v in common]
            for v in pool:
                nxt = graph.adj[v] if common is None else common & graph.adj[v]
                chosen.append(v)
                yield from rec(p + 1, chosen, nxt)
                chosen.pop()

    return list(rec(0, [], None))


# The reference cover's own seam check, which shares no code with `paths`.
# `_splices` reads `tail` from the front, so it holds only for the tails the
# cover gives it: empty or one clique long.


def _splices(graph: MultipartiteGraph, tail: Sequence[int], clique: Sequence[int], r: int) -> bool:
    """Appending a part-ordered clique after a part-ordered tail keeps all windows."""
    for b, w in enumerate(clique, start=1):
        nb = graph.adj[w]
        for a in range(b + 1, r + 1):
            if a <= len(tail) and tail[a - 1] not in nb:
                return False
    return True


def reference_cover_with_paths(graph, r, alpha, cfg):
    """Greedy clique chaining that rescans the whole clique list at every step,
    in as many attempts as `tiling.COVER_ATTEMPTS` holds when it is called."""
    attempts = tiling.COVER_ATTEMPTS
    n = graph.n
    target = alpha * n
    ordered = reference_cliques(graph, r)
    rng = cfg.rng("cover")
    best = None
    for attempt in range(attempts):
        order = ordered[:]
        if attempt:
            rng.shuffle(order)
        used = set()
        paths = []

        def next_clique(tail):
            for K in order:
                if used.intersection(K):
                    continue
                if tail and not _splices(graph, tail, K, r):
                    continue
                return K
            return None

        while n - len(used) > target:
            current = []
            while True:
                K = next_clique(current[-r:])
                if K is None:
                    break
                current.extend(K)
                used.update(K)
                if n - len(used) <= target:
                    break
            if not current:
                break
            paths.append(tuple(current))

        leftover = frozenset(v for v in range(n) if v not in used)
        counts = [0] * graph.k
        for v in leftover:
            counts[graph.part_of(v)] += 1
        if len(leftover) <= target and len(set(counts)) == 1:
            return PathCover(tuple(paths), leftover)
        if best is None or len(leftover) < best:
            best = len(leftover)
    raise SearchExhaustedError(
        f"cover shortfall after {attempts} attempts: best leftover {best} > {target}"
    )


def bridge_choices_by_brute_force(graph, p0_prime, groups, r):
    """Each bridge's brute-force window paths off p0_prime, in chain order:
    the suffix through the first group after p0_prime, one connector through
    each two consecutive groups, and the prefix through the last group
    before p0_prime."""
    trim = tuple(p0_prime)
    used = set(trim)
    return [
        window_paths_by_brute_force(graph, groups[0], used, r, before=trim),
        *(window_paths_by_brute_force(graph, a + b, used, r) for a, b in zip(groups, groups[1:])),
        window_paths_by_brute_force(graph, groups[-1], used, r, after=trim),
    ]


def disjoint_choice_by_brute_force(choices):
    """The first joint choice, in product order, of one path per list that
    uses no vertex twice, or None."""
    for picked in itertools.product(*choices):
        laid = [v for path in picked for v in path]
        if len(set(laid)) == len(laid):
            return picked
    return None
