"""Fast single-pass census against the brute-force enumeration oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from crossvar import brute
from crossvar.census import (
    count_c3l2,
    count_cycles4,
    count_paths4,
    count_paths5,
    count_paw,
    fast_census,
    merge_intersection,
)
from crossvar.generators import complete, cycle, erdos_renyi, path, star


def er(n, p, seed):
    return erdos_renyi(n, p, seed=seed)


class TestNeighborIntersection:
    def test_matches_set_arithmetic(self):
        g = er(9, 0.5, seed=3)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                common = set(g.adjacency[u]) & set(g.adjacency[v])
                assert merge_intersection(g, u, v) == (
                    len(common), sum(g.degrees[w] for w in common)
                )


class TestCountsAgainstBrute:
    @pytest.mark.parametrize("seed", range(8))
    def test_er_graphs(self, seed):
        g = er(9, 0.45, seed=seed)
        assert count_paths4(g) == brute.count_simple_paths(g, 4)
        assert count_paths5(g) == brute.count_simple_paths(g, 5)
        assert count_cycles4(g) == brute.count_cycles4_brute(g)
        assert count_paw(g) == brute.count_paw_brute(g)
        assert count_c3l2(g) == brute.count_c3l2_brute(g)

    @pytest.mark.parametrize("g", [
        complete(5), complete(6), cycle(6), path(7), star(7),
    ], ids=["K5", "K6", "C6", "P7", "S7"])
    def test_named_graphs(self, g):
        assert fast_census(g) == brute.brute_census(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_fast_census_equals_brute_on_random_graphs(seed):
    g = er(8, 0.4, seed=seed)
    assert fast_census(g) == brute.brute_census(g)


def test_census_of_single_edge():
    c = fast_census(path(2))
    assert c.q == 0 and c.nP4 == 0 and c.K == 0


def test_cycle4_spot_values():
    c = fast_census(cycle(4))
    assert (c.q, c.K, c.phi1, c.phi2) == (2, 16, 16, 32)
    assert (c.lambda1, c.lambda2, c.nP4, c.nC4) == (16, 32, 4, 1)


def test_path4_spot_values():
    c = fast_census(path(4))
    assert (c.q, c.K, c.phi1, c.phi2) == (1, 6, 4, 9)
    assert (c.lambda1, c.lambda2, c.nP4) == (2, 6, 1)


def test_complete4_spot_values():
    c = fast_census(complete(4))
    assert (c.q, c.nC4, c.nPaw, c.nC3L2) == (3, 3, 12, 0)
