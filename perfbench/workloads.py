"""The benchmark's workloads: inputs from a seed, references and calls.

Each workload function writes its input files into ``workdir`` and returns a
``Workload``: the calls one repetition makes, extra calls a traced run adds
(library routes that the repetition does not reach), and the reference
values its outputs are checked against.  References are computed here,
before anything is timed, by a route that auto-dispatch does not take.

Random graphs have a fixed edge count (uniform G(n, M), M = p * C(n, 2))
rather than G(n, p), so that the work in one repetition does not change
with the seed.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from oracles import count_crossings_sorted, dense_census

MC_SAMPLES = 8192
MC_BATCH = 4096  # monte_carlo's default batch, used for the computed byte count


@dataclass
class Workload:
    name: str
    n: int
    edges: list[tuple[int, int]]
    files: dict[str, Path]
    calls: list[dict]
    ref: dict
    extras: list[dict] = field(default_factory=list)
    probe: str = "python"  # the speed kernel that tracks this work (speed.py)

    @property
    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.files.values())


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """``m`` distinct pairs of ``0..n-1``, uniformly at random."""
    rng = random.Random(seed)
    # row u of the upper triangle starts at index starts[u]
    starts = [u * (2 * n - u - 1) // 2 for u in range(n)]
    edges = []
    for i in sorted(rng.sample(range(n * (n - 1) // 2), m)):
        u = bisect.bisect_right(starts, i) - 1
        edges.append((u, u + 1 + i - starts[u]))
    return edges


def write_edge_list(path: Path, n: int, edges) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n={n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
    return path


def _cli(check: str, *argv) -> dict:
    return {"kind": "cli", "check": check, "argv": [str(a) for a in argv]}


def _moments(q: int, variance: Fraction, n: int, m: int) -> dict:
    return {"n": n, "m": m, "q": q, "expectation": Fraction(q, 3), "variance": variance}


def dense_er(seed: int, workdir: Path) -> Workload:
    """G(200, M = 9950): auto-dispatch takes the intersection-caching route.

    The reference reduces a census from dense matrix algebra through the
    library's frequency closed forms; the general route takes ~40 s here.
    """
    from crossvar import CensusReport, builtin_rla_table, frequencies_from_census
    from crossvar.variance import variance_from_frequencies

    n = 200
    edges = gnm_edges(n, 9950, seed)
    path = write_edge_list(workdir / "graph.txt", n, edges)
    census = dense_census(n, edges)
    report = CensusReport(**{k: v for k, v in census.items() if k not in ("n", "m")})
    variance = variance_from_frequencies(
        frequencies_from_census(report, len(edges)), builtin_rla_table()
    )
    ref = _moments(census["q"], variance, n, len(edges))
    ref.update(triangles=census["nC3"], cycles4=census["nC4"])
    return Workload(
        "dense-er", n, edges, {"graph": path},
        calls=[_cli("variance", "variance", path, "--json")], ref=ref,
    )


def big_tree(seed: int, workdir: Path) -> Workload:
    """Uniform random labelled tree on 3*10^5 vertices: the forest route."""
    from crossvar.generators import random_tree
    from crossvar.variance import variance_rla_closed

    g = random_tree(300_000, seed=seed)
    edges = list(g.edges())
    path = write_edge_list(workdir / "graph.txt", g.n, edges)
    r = variance_rla_closed(g)
    ref = _moments(r.q, r.variance, g.n, g.m)
    ref.update(triangles=0, cycles4=0)  # a tree has no cycles
    return Workload(
        "big-tree", g.n, edges, {"graph": path},
        calls=[_cli("variance", "variance", path, "--json")], ref=ref,
    )


def sparse_er(seed: int, workdir: Path) -> Workload:
    """G(1000, M = 4496) with a random arrangement: stats, then zscore."""
    from crossvar import Graph, variance_general

    n = 1000
    edges = gnm_edges(n, 4496, seed)
    order = list(range(n))
    random.Random(seed + 1).shuffle(order)
    path = write_edge_list(workdir / "graph.txt", n, edges)
    arrangement = workdir / "order.txt"
    arrangement.write_text(" ".join(map(str, order)) + "\n", encoding="utf-8")
    r = variance_general(Graph(n, edges))
    ref = _moments(r.q, r.variance, n, len(edges))
    ref["crossings"] = count_crossings_sorted(n, edges, order)
    return Workload(
        "sparse-er", n, edges, {"graph": path, "arrangement": arrangement},
        calls=[
            _cli("stats", "stats", path, "--json"),
            _cli("zscore", "zscore", path, "--arrangement", arrangement, "--json"),
        ],
        extras=[_cli("variance", "variance", path, "--algorithm", "general", "--json")],
        ref=ref,
    )


def monte_carlo(seed: int, workdir: Path) -> Workload:
    """monte_carlo(g, 8192 samples) on G(64, M = 128): two default batches."""
    from crossvar import Graph, variance_general

    n = 64
    edges = gnm_edges(n, 128, seed)
    path = write_edge_list(workdir / "graph.txt", n, edges)
    r = variance_general(Graph(n, edges))
    ref = _moments(r.q, r.variance, n, len(edges))
    ref["samples"] = MC_SAMPLES
    return Workload(
        "monte-carlo", n, edges, {"graph": path},
        calls=[{"kind": "monte_carlo", "check": "monte_carlo", "graph": str(path),
                "samples": MC_SAMPLES}],
        extras=[_cli("variance", "variance", path, "--algorithm", "general", "--json")],
        ref=ref, probe="memory",
    )


WORKLOADS = {
    "dense-er": dense_er,
    "big-tree": big_tree,
    "sparse-er": sparse_er,
    "monte-carlo": monte_carlo,
}


@dataclass(frozen=True)
class WorkBasis:
    """Per-call work of each route, computed from degrees.

    ``census_merges`` bounds the loop steps of the sorted-list merges one
    uncached census pass makes (each merge of lists a, b costs at most
    ``len(a) + len(b)``); ``reuse_merges`` is the same over the distinct
    pairs the caching route merges once each.
    """

    wedges: int
    intersection_calls: int
    census_merges: int
    reuse_keys: int
    reuse_merges: int
    pairs: int
    mc_bytes: int


def work_basis(n: int, edges: list[tuple[int, int]], samples: int = MC_SAMPLES) -> WorkBasis:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    k = [len(a) for a in adj]
    m = len(edges)
    mmt2 = sum(d * d for d in k)
    psi = sum(k[u] * k[v] for u, v in edges)
    # the caching route keys every edge and every pair with a common neighbour
    keys = {(u, v) if u < v else (v, u) for u, v in edges}
    for nbrs in adj:
        nbrs.sort()
        for i, a in enumerate(nbrs):
            keys.update((a, b) for b in nbrs[i + 1:])
    pairs = m * (m - 1) // 2
    mc_bytes = 8 * samples
    for start in range(0, samples, MC_BATCH):
        b = min(MC_BATCH, samples - start)
        # position rows (tiled, permuted), endpoint positions (a, b, lo, hi),
        # pair-gathered lo/hi (4 int64) and the 11 boolean masks per pair
        mc_bytes += 16 * b * n + 32 * b * m + 32 * b * pairs + 11 * b * pairs
        mc_bytes += 16 * m + 16 * pairs  # edge array and triu indices
    return WorkBasis(
        wedges=sum(d * (d - 1) // 2 for d in k),
        intersection_calls=mmt2 - m,
        census_merges=4 * psi - mmt2,
        reuse_keys=len(keys),
        reuse_merges=sum(k[a] + k[b] for a, b in keys),
        pairs=pairs,
        mc_bytes=mc_bytes,
    )
