"""Perfect matchings of small graphs on the vertices 0..n-1, for the C2
pairing search.

`first_perfect_matching` returns the first perfect matching of the
plain recursion that pairs the lowest remaining vertex with each later
remaining vertex in increasing order (or in the order of a key), or None
when there is none.  Edmonds' blossom algorithm ("Paths, trees, and
flowers", 1965) decides existence: grow an alternating tree from an
exposed vertex, contract odd cycles (blossoms) into their base, and flip
the path once it reaches a second exposed vertex.  Given one perfect
matching, removing a pair (i, j) outside it frees the two mates, and a
single augmenting-path search between them decides whether the rest
still has one.  So the lowest vertex takes the first partner that passes
this test, with no backtracking: a graph with none costs one blossom
search, and the first matching polynomial time.

Edges are pairs (i, j) with i != j; matchings are tuples of (i, j) pairs
with i < j, ordered by i.
"""
from __future__ import annotations

from collections.abc import Iterable

Matching = tuple[tuple[int, int], ...]


def _adjacency(n: int, edges: Iterable[tuple[int, int]], key=None) -> list[list[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return [sorted(s, key=key) for s in nbrs]


def _augment(adj: list[list[int]], mate: list[int], root: int, alive: int) -> bool:
    """Search an augmenting path from the exposed vertex ``root`` inside
    the vertex set ``alive`` (a bitmask); flip it into ``mate`` when found."""
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
            if not alive >> to & 1 or base[v] == base[to] or mate[v] == to:
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


def first_perfect_matching(n: int, edges: Iterable[tuple[int, int]],
                           key=None) -> Matching | None:
    """The first perfect matching of the graph in recursion order (lowest
    remaining vertex first, its partners in increasing order, or in
    increasing ``key`` of the partner when a key is given), or None when
    the graph has none.

    A greedy start and one blossom search per exposed vertex find a
    perfect matching; then the lowest remaining vertex takes, without
    backtracking, the first partner that still leaves one."""
    adj = _adjacency(n, edges, key)
    alive = (1 << n) - 1
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
        if mate[v] == -1 and not _augment(adj, mate, v, alive):
            return None
    pairs = []
    while alive:
        i = (alive & -alive).bit_length() - 1
        # the partner mate[i] always leaves a perfect matching
        for j in adj[i]:
            if alive >> j & 1:
                rest = alive & ~(1 << i | 1 << j)
                if (sub := _without_pair(adj, mate, i, j, rest)) is not None:
                    break
        pairs.append((i, j))
        alive, mate = rest, sub
    return tuple(pairs)


def _without_pair(adj: list[list[int]], mate: list[int], i: int, j: int,
                  rest: int) -> list[int] | None:
    """A perfect matching of ``rest``, the vertex set of ``mate`` less the
    pair (i, j), or None when there is none."""
    sub = mate.copy()
    a, b = mate[i], mate[j]
    sub[i] = sub[j] = -1
    if a != j:
        # the freed mates a and b need one augmenting path between them
        sub[a] = sub[b] = -1
        if not _augment(adj, sub, a, rest):
            return None
    return sub
