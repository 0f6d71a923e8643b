"""Shared fixtures: graph corpora reused across test modules."""

import random

import pytest

from crossvar.graph import Graph
from crossvar.selftest import corpus


@pytest.fixture(scope="session")
def small_corpus():
    """Deterministic families only."""
    return list(corpus(full=False))


@pytest.fixture(scope="session")
def full_corpus():
    """The complete acceptance corpus (ER ensemble, free trees, families)."""
    return list(corpus(full=True))


@pytest.fixture(scope="session")
def sparse_er():
    """G(1000, M = 4496), the shape of the benchmark's sparse-er input:
    q^2 is about 1e14, far over the pair-classification budget."""
    rng = random.Random(0)
    edges = set()
    while len(edges) < 4496:
        edges.add(tuple(sorted(rng.sample(range(1000), 2))))
    return Graph(1000, sorted(edges))
