"""Perfect matchings of small graphs on the vertices 0..n-1, for the C2
pairing search.

Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) decides
existence: grow an alternating tree from an exposed vertex, contract
odd cycles (blossoms) into their base, and flip the path once it
reaches a second exposed vertex.  `perfect_matching` returns some
perfect matching, from a greedy start and one such search per vertex
the start leaves exposed, or None.  When a graph loses an edge (i, j)
of a known perfect matching, only i and j are exposed, and by Berge's
theorem one search from i decides whether the smaller graph still has
one: `repair_matching`.

Given one perfect matching, restricting a vertex i to some of its
partners (dropping i's other edges) exposes at most i and its mate, so
`repair_matching` decides whether the restricted graph still has one:
`pin`.  The C2 search fixes one point's weight at a time this way, so a
graph with no perfect matching costs the blossom searches of
`perfect_matching`, and each object a point tries at most one more.

Graphs are neighbour lists or sets, ``adj[v]`` holding the neighbours
of v; edges are pairs (i, j) with i != j; a matching is the list of
each vertex's mate (-1 when exposed).
"""
from __future__ import annotations

from collections.abc import Iterable


def neighbours(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    """The neighbour sets of the graph on 0..n-1 with these edges."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return nbrs


def perfect_matching(adj) -> list[int] | None:
    """Some perfect matching of the graph, as each vertex's mate, or None
    when it has none: greedy pairs, then one blossom search from each
    vertex they leave exposed."""
    n = len(adj)
    if not all(adj):
        return None
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for to in adj[v]:
                if mate[to] == -1:
                    mate[v], mate[to] = to, v
                    break
    for v in range(n):
        # an exposed vertex with no augmenting path stays exposed in
        # every maximum matching
        if mate[v] == -1 and not _augment(adj, mate, v):
            return None
    return mate


def repair_matching(adj, mate: list[int], i: int) -> bool:
    """Whether the graph still has a perfect matching after it lost the
    edge between i and its mate in ``mate``, a perfect matching before.
    Only those two are exposed, so one augmenting-path search from i
    decides it (Berge); on success ``mate`` holds the new matching, and
    otherwise it is left as it was."""
    j = mate[i]
    mate[i] = mate[j] = -1
    if _augment(adj, mate, i):
        return True
    mate[i], mate[j] = j, i
    return False


def pin(adj: list[set[int]], mate: list[int], i: int, keep: set[int]) -> bool:
    """Restrict vertex i to its edges to ``keep`` and say whether the graph
    still has a perfect matching; ``mate`` is one before, and on success
    it is one after.  When i's matched edge survives it stands; otherwise
    only i and its mate are exposed and one `repair_matching` search
    decides.  On failure ``adj`` and ``mate`` are left as they were."""
    edges = adj[i]
    dropped = edges - keep
    edges -= dropped
    for k in dropped:
        adj[k].discard(i)
    if mate[i] in keep or repair_matching(adj, mate, i):
        return True
    edges |= dropped
    for k in dropped:
        adj[k].add(i)
    return False


def _augment(adj, mate: list[int], root: int) -> bool:
    """Search an augmenting path from the exposed vertex ``root``; flip it
    into ``mate`` when found."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n
    outer = [False] * n
    outer[root] = True
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark(v: int, top: int, child: int, blossom: list[bool]) -> None:
        while base[v] != top:
            blossom[base[v]] = blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:
        for to in adj[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                # an odd cycle: contract it into its base
                top = lca(v, to)
                blossom = [False] * n
                mark(v, top, to, blossom)
                mark(to, top, v, blossom)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = top
                        if not outer[i]:
                            outer[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    while to != -1:
                        pv = parent[to]
                        nxt = mate[pv]
                        mate[to] = pv
                        mate[pv] = to
                        to = nxt
                    return True
                outer[mate[to]] = True
                queue.append(mate[to])
    return False

