"""Shared helpers: independent brute-force checkers the tests trust instead of
the library's own predicates."""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Sequence

from hampow.connect import State
from hampow.errors import (
    GraphFormatError,
    GraphValidationError,
    SearchExhaustedError,
    VerificationError,
)
from hampow.graphs import MultipartiteGraph, gen_random
from hampow.paths import VertexSeq, is_path
from hampow.sequencing import SequencingPlan, _grow_window_path
from hampow.tiling import PathCover, _balanced


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


def reference_grow_window_path(graph, cell_sequence, prefix, used, r, rng, tries=16):
    for _ in range(tries):
        out: list[int] = []
        ok = True
        for cell in cell_sequence:
            window = (list(prefix) + out)[-(r - 1):]
            pool = [v for v in cell
                    if v not in used and v not in out
                    and all(u in graph.adj[v] for u in window)]
            if not pool:
                ok = False
                break
            out.append(rng.choice(pool))
        if ok:
            return out
    return None


def reference_grow_run(graph, support, prefix, used, r, rng, tries=8):
    for _ in range(tries):
        chunk: list[int] = []
        ok = True
        for pos, part_idx in enumerate(support):
            window = (list(prefix) + chunk)[-(r - 1):]
            pool = [v for v in graph.parts[part_idx]
                    if v not in used and v not in chunk
                    and all(u in graph.adj[v] for u in window)]
            if not pool:
                ok = False
                break
            upcoming = support[pos + 1:]
            remaining = [set(graph.parts[i]) - used for i in upcoming]

            def score(v: int) -> int:
                return sum(len(graph.adj[v] & rem) for rem in remaining)

            rng.shuffle(pool)
            chunk.append(max(pool, key=score))
        if ok:
            return chunk
    return None


def reference_choose_affix(graph, cells, anchor, used, r, rng, prepend, tries=16):
    for _ in range(tries):
        out: list[int] = []
        ok = True
        for h, cell in enumerate(cells, start=1):
            pool = []
            for v in cell:
                if v in used or v in out:
                    continue
                if any(u == v or u not in graph.adj[v] for u in out[-(r - 1):]):
                    continue
                if prepend:
                    need = anchor[: h - 1]
                else:
                    need = anchor[-(r - h):] if h < r else []
                if any(u not in graph.adj[v] for u in need):
                    continue
                pool.append(v)
            if not pool:
                ok = False
                break
            out.append(rng.choice(pool))
        if ok:
            return out
    return None


# Reference copies of the kernels the constructive path reaches once a host's
# real leftover decides coverage, as they were before their rewrites: the
# library must give the same covers, samples, errors and A2 minimum.


def reference_group_degree_slack(graph, plan):
    """Condition A2 of `verify_plan`, one Fraction per (vertex, other cell)."""
    slack = None
    a2_detail = ""
    for j in range(plan.ell):
        cells = plan.group_cells(j)
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


def reference_worst_cell_violation(graph, row, threshold):
    """The refinement degree check, one Fraction per (vertex, cell) pair."""
    worst = None
    for (i, j), cell in row.items():
        if not cell:
            continue
        size = len(cell)
        for v in range(graph.n):
            if graph.part_of(v) == i:
                continue
            frac = Fraction(len(graph.adj[v] & cell), size)
            if frac < threshold and (worst is None or frac < worst[0]):
                worst = (frac, v, (i, j))
    return worst


def reference_sample_reservoir(graph, free, u_size, cfg):
    """Reservoir sampling with a Fraction bound compared per vertex and part."""
    r = cfg.r
    threshold = 1 - Fraction(1, r) + cfg.nu
    rng = cfg.rng("reservoir")
    last = None
    for _ in range(cfg.retry_limit):
        u_sets = [sorted(rng.sample(list(f), u_size)) for f in free]
        ok = True
        for i, u in enumerate(u_sets):
            uset = set(u)
            for v in range(graph.n):
                if graph.part_of(v) == i:
                    continue
                if len(graph.adj[v] & uset) < threshold * u_size:
                    ok = False
                    last = (v, i)
                    break
            if not ok:
                break
        if ok:
            return u_sets
    raise SearchExhaustedError(
        f"reservoir degree condition failed for {cfg.retry_limit} samples "
        f"(last violation: vertex {last[0]} into part {last[1]})"
    )


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


# The seam checks of the clique cover and of the connector DP's last layer, as
# they were before both called `paths.splice_ok`.  `_splices` reads `tail` from
# the front, so it holds only for the tails the cover gives it: empty or one
# clique long.  `_accepts` holds for states of exactly r-1 vertices.


def _splices(graph: MultipartiteGraph, tail: Sequence[int], clique: Sequence[int], r: int) -> bool:
    """Appending a part-ordered clique after a part-ordered tail keeps all windows."""
    for b, w in enumerate(clique, start=1):
        nb = graph.adj[w]
        for a in range(b + 1, r + 1):
            if a <= len(tail) and tail[a - 1] not in nb:
                return False
    return True


def _accepts(graph: MultipartiteGraph, state: State, head: Sequence[int]) -> bool:
    """Cross-seam windows between the last r-1 chosen vertices and the right head."""
    w = len(state)
    for b, v in enumerate(head, start=1):
        nb = graph.adj[v]
        for j in range(1, w + 1):
            # state[j-1] sits b + (w - j) + ... positions before v; adjacency is
            # required when that distance is at most r-1 = w.
            if (w - j) + b <= w and state[j - 1] not in nb:
                return False
    return True


def reference_cover_with_paths(graph, r, alpha, cfg):
    """Greedy clique chaining that rescans the whole clique list at every step."""
    n = graph.n
    target = alpha * n
    ordered = reference_cliques(graph, r)
    rng = cfg.rng("cover")
    best = None
    for attempt in range(cfg.retry_limit):
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
            paths.append(VertexSeq(tuple(current), r))

        leftover = frozenset(v for v in range(n) if v not in used)
        if len(leftover) <= target and _balanced(graph, leftover):
            return PathCover(tuple(paths), leftover)
        if best is None or len(leftover) < best:
            best = len(leftover)
    raise SearchExhaustedError(
        f"cover shortfall after {cfg.retry_limit} attempts: best leftover {best} > {target}"
    )


def absorbable_by_brute_force(gadgets, by_part):
    """The first gadget index set, in combinations order, for which some
    grouping of by_part into r-sets gives every chosen gadget an r-set in its
    covers, or None.  Every grouping is every permutation of every part."""
    q = len(by_part[0])
    for chosen in itertools.combinations(range(len(gadgets)), q):
        for perms in itertools.product(*(itertools.permutations(zi) for zi in by_part)):
            if all(perm[t] in gadgets[g].cover[i]
                   for i, perm in enumerate(perms) for t, g in enumerate(chosen)):
                return chosen
    return None


# The connector builder as it was before it proved doomed refinements up
# front: it spends every attempt on them.  The library must give the same plan
# or the same SearchExhaustedError.


def reference_build_connectors_and_p0(graph, p0_prime, refined_parts, group_sequences, cfg):
    """Greedy 2r-vertex connector paths between consecutive groups, then wrap the
    trim path with r prepended vertices (from the last group) and r appended
    vertices (from the first group)."""
    r = cfg.r
    ell = len(group_sequences)
    rng = cfg.rng("connectors")
    for attempt in range(cfg.retry_limit):
        used: set[int] = set(p0_prime.vertices)
        connectors: list[VertexSeq] = []
        ok = True
        for j in range(ell - 1):
            cells = [refined_parts[(i, j)] for i in group_sequences[j]]
            cells_next = [refined_parts[(i, j + 1)] for i in group_sequences[j + 1]]
            conn = _grow_window_path(graph, cells + cells_next, used, r, rng)
            if conn is None:
                ok = False
                break
            connectors.append(VertexSeq(tuple(conn), r))
            used.update(conn)
        if not ok:
            continue

        cells_last = [refined_parts[(i, ell - 1)] for i in group_sequences[ell - 1]]
        cells_first = [refined_parts[(i, 0)] for i in group_sequences[0]]
        prefix = _grow_window_path(graph, cells_last, used, r, rng, after=p0_prime.vertices)
        if prefix is None:
            continue
        used.update(prefix)
        suffix = _grow_window_path(graph, cells_first, used, r, rng,
                                   before=tuple(prefix) + p0_prime.vertices)
        if suffix is None:
            continue
        p0 = VertexSeq(tuple(prefix) + p0_prime.vertices + tuple(suffix), r)
        if not is_path(graph, p0):
            raise VerificationError("P0 with its affixes is not a power-path")
        return SequencingPlan(
            r=r,
            p0_prime=p0_prime,
            p0=p0,
            refined_parts=refined_parts,
            group_sequences=group_sequences,
            connectors=tuple(connectors),
        )
    raise SearchExhaustedError(
        f"connector/terminal construction exhausted {cfg.retry_limit} attempts"
    )


def suffix_and_connector_by_brute_force(graph, p0_prime, first, second, r):
    """The first (suffix, connector) in product order such that p0_prime +
    suffix is a power-walk through the cells `first`, the connector is a
    power-walk through `first + second`, and no vertex appears twice among
    the three; or None.  A connector's half in `first` is checked on its own
    before its half in `second` is tried."""
    trim = list(p0_prime)
    for suffix in itertools.product(*first):
        if set(suffix) & set(trim) or not naive_is_walk(graph, trim + list(suffix), r):
            continue
        taken = set(trim) | set(suffix)
        for head in itertools.product(*first):
            if set(head) & taken or not naive_is_walk(graph, head, r):
                continue
            for tail in itertools.product(*second):
                if not set(tail) & taken and naive_is_walk(graph, head + tail, r):
                    return suffix, head + tail
    return None
