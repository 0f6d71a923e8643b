"""Deterministic construction of the graph families used by the test corpus.

Seeded families use :class:`random.Random` (a documented, portable
generator), so a given seed reproduces the same graph on any platform.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, product
from typing import Iterator

from .errors import ValidationError
from .graph import Graph


def complete(n: int) -> Graph:
    if n < 1:
        raise ValidationError("complete graph needs n >= 1")
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValidationError("complete bipartite graph needs both parts non-empty")
    return Graph(a + b, ((i, a + j) for i, j in product(range(a), range(b))))


def path(n: int) -> Graph:
    if n < 1:
        raise ValidationError("path needs n >= 1")
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Vertex 0 joined to every other vertex."""
    if n < 1:
        raise ValidationError("star needs n >= 1")
    return Graph(n, ((0, i) for i in range(1, n)))


def quasi_star(n: int) -> Graph:
    """A star on n-1 vertices plus one extra vertex pendant to a leaf."""
    if n < 3:
        raise ValidationError("quasi-star needs n >= 3")
    edges = [(0, i) for i in range(1, n - 1)]
    edges.append((1, n - 1))
    return Graph(n, edges)


def one_regular(n: int) -> Graph:
    """A perfect matching; requires even n."""
    if n < 2 or n % 2:
        raise ValidationError("one-regular graph needs even n >= 2")
    return Graph(n, ((2 * i, 2 * i + 1) for i in range(n // 2)))


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p): each of the C(n, 2) pairs is an edge with probability p."""
    if n < 0:
        raise ValidationError("erdos_renyi needs n >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, edges)


def _prufer_decode(seq: list[int], n: int) -> Graph:
    """Labeled tree on n vertices from its length n-2 code."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph(n, edges)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniformly random labeled tree via a random code."""
    if n < 1:
        raise ValidationError("random_tree needs n >= 1")
    if n == 1:
        return Graph(1, [])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return _prufer_decode(seq, n)


def random_forest(n: int, seed: int = 0) -> Graph:
    """Random forest: split the vertices into random parts, tree on each."""
    if n < 0:
        raise ValidationError("random_forest needs n >= 0")
    rng = random.Random(seed)
    vertices = list(range(n))
    rng.shuffle(vertices)
    edges: list[tuple[int, int]] = []
    i = 0
    while i < n:
        size = min(rng.randint(1, max(1, n // 2)), n - i)
        part = vertices[i:i + size]
        i += size
        if size >= 3:
            sub = random_tree(size, seed=rng.randrange(2**30))
            edges.extend((part[u], part[v]) for u, v in sub.edges())
        elif size == 2:
            edges.append((part[0], part[1]))
    return Graph(n, edges)


ALL_TREES_LIMIT = 10


def _canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant code of a tree: the least of its rooted codes."""

    def encode(v: int, parent: int) -> tuple:
        return tuple(sorted(encode(w, v) for w in g.adjacency[v] if w != parent))

    return min(encode(root, -1) for root in range(g.n))


def all_trees(n: int) -> Iterator[Graph]:
    """Every unlabeled free tree on n vertices, each exactly once.

    Trees on k+1 vertices are produced by attaching one new leaf to each
    vertex of each tree on k vertices; duplicates are removed by keying each
    tree with the least of its rooted codes, and the first tree of each code
    is kept.
    """
    if not 1 <= n <= ALL_TREES_LIMIT:
        raise ValidationError(f"all_trees supports 1 <= n <= {ALL_TREES_LIMIT}")
    current = [Graph(1, [])]
    for size in range(2, n + 1):
        seen: dict[tuple, Graph] = {}
        for t in current:
            base = list(t.edges())
            for v in range(t.n):
                g2 = Graph(size, base + [(v, size - 1)])
                seen.setdefault(_canonical_form(g2), g2)
        current = list(seen.values())
    yield from current
