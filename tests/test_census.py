"""Fast single-pass census against the brute-force enumeration oracles."""

import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossvar import brute, census
from crossvar.census import fast_census
from crossvar.errors import OracleBudgetError, ValidationError
from crossvar.generators import complete, complete_bipartite, cycle, erdos_renyi, path, star
from crossvar.graph import Graph


def er(n, p, seed):
    return erdos_renyi(n, p, seed=seed)


class TestNeighborIntersection:
    def test_matches_set_arithmetic(self):
        g = er(9, 0.5, seed=3)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                common = set(g.adjacency[u]) & set(g.adjacency[v])
                assert census._merge(g.adjacency[u], g.adjacency[v]) == len(common)


def _pairs(g):
    """The edges and the end points of every wedge, as a set of pairs."""
    wedge_ends = {pair for nbrs in g.adjacency for pair in combinations(nbrs, 2)}
    return set(g.edges()) | wedge_ends


def _clique_with_path(clique, tail):
    """A clique on ``0..clique-1`` and a path of ``tail`` edges from its last vertex."""
    edges = [(a, b) for a in range(clique) for b in range(a + 1, clique)]
    edges += [(v, v + 1) for v in range(clique - 1, clique + tail - 1)]
    return Graph(clique + tail, edges)


def _star_with_leaf_edge(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)] + [(1, 2)])


class TestPairTable:
    """The pair table gives the merge route's census, and neither it nor
    the table's pair count depends on how rows are split into blocks or on
    how each block counts its keys."""

    @staticmethod
    def _check(g, expected):
        for keys in (1, 1 << 30):
            with mock.patch.object(census, "_TABLE_KEYS", keys):
                assert census.table_census(g) == expected, keys
        assert census.table_census(g) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 14), st.floats(0, 1), st.integers(0, 10_000))
    def test_random_graphs(self, n, p, seed):
        g = er(n, p, seed)
        self._check(g, (fast_census(g), len(_pairs(g))))

    def test_star_with_one_leaf_edge(self):
        leaves = 3000
        g = _star_with_leaf_edge(leaves)
        c, pairs = census.table_census(g)
        # one triangle 0-1-2, whose corner degrees add up to leaves + 4; every
        # pair of leaves ends a wedge, and the hub edges are pairs of their own
        assert (c.mu2, c.nPaw + 2 * c.mu2, c.nC4) == (3, leaves + 4, 0)
        assert pairs == leaves * (leaves - 1) // 2 + leaves
        self._check(g, (c, pairs))

    @staticmethod
    def _sides(g, table_keys=census._TABLE_KEYS):
        """``table_census(g)``, how many of its blocks read their pairs from
        bitsets, count listed keys with ``bincount`` and sort them, and the
        key dtype of each block that sorts.  Keys are int64 in a bincount
        and int32 in a sort whose span, above every key, is at most 2^31."""
        key_counts, sides, widths = census._key_counts, [], []

        def listed(keys, edge_keys, span):
            with mock.patch.object(census.np, "bincount", wraps=np.bincount) as bincount:
                counted = key_counts(keys, edge_keys, span)
            assert bincount.called == (span <= len(keys))
            assert edge_keys.dtype == keys.dtype
            narrow = not bincount.called and span <= 1 << 31
            assert keys.dtype == (np.int32 if narrow else np.int64), (span, keys.dtype)
            sides.append(bincount.called)
            if not bincount.called:
                widths.append(keys.dtype)
            return counted

        with mock.patch.object(census, "_TABLE_KEYS", table_keys), \
                mock.patch.object(census, "_key_counts", listed), \
                mock.patch.object(census, "_bitset_counts", wraps=census._bitset_counts) as bitset:
            result = census.table_census(g)
        return result, (bitset.call_count, sides.count(True), sides.count(False)), widths

    def test_dense_graph_counts_by_bitset(self):
        # 2^10 pairs per block, fewer than the 40² one product would read: blocks of 25 and 15 rows
        g = complete(40)
        with mock.patch.object(census.np, "searchsorted", wraps=np.searchsorted) as index:
            assert self._sides(g, table_keys=1 << 10)[1] == (2, 0, 0)
        # no wedge index: every block reads its pairs from the bitsets
        assert not index.called
        self._check(g, (fast_census(g), len(_pairs(g))))

    def test_middling_graph_counts_by_bincount(self):
        # about 1.4 keys per bin of the block's span, fewer than its w = 3
        # words per pair
        g = er(130, 0.15, seed=0)
        assert self._sides(g)[1] == (0, 1, 0)
        self._check(g, (fast_census(g), len(_pairs(g))))

    def test_sparse_graph_sorts(self):
        # n is far larger than the block's few thousand keys
        g = er(3000, 0.002, seed=5)
        assert self._sides(g)[1] == (0, 0, 1)
        self._check(g, (fast_census(g), len(_pairs(g))))

    def test_one_call_takes_all_sides(self):
        # small blocks: the first rows of the clique hold more keys than
        # their pairs' words, its last rows more keys than their span, the
        # path's rows far fewer
        g = _clique_with_path(60, 300)
        expected = (fast_census(g), len(_pairs(g)))
        result, sides, _ = self._sides(g, table_keys=1 << 12)
        assert min(sides) > 0, sides
        assert result == expected
        self._check(g, expected)

    @pytest.mark.parametrize("table_keys", [1 << 6, 1 << 10, 1 << 12])
    def test_listed_blocks_of_any_size(self, table_keys):
        graphs = [er(400, 0.01, seed) for seed in range(3)]
        graphs += [_star_with_leaf_edge(300), _clique_with_path(30, 200)]
        for g in graphs:
            assert self._sides(g, table_keys)[0] == (fast_census(g), len(_pairs(g)))

    def test_one_call_sorts_keys_of_both_widths(self):
        # three sorted blocks of about 2^16 keys and edges, with spans
        # (hi - lo)·n of 1.1·10^9, 1.6·10^9 and, past 2^31, 2.2·10^9
        rng, n, edges = random.Random(0), 70_000, set()
        while len(edges) < 60_000:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        g = Graph(n, sorted(edges))
        result, sides, widths = self._sides(g)
        assert sides == (0, 0, 3)
        assert widths == [np.int32, np.int32, np.int64]
        assert result == (fast_census(g), len(_pairs(g)))

    def test_twins_swap_owner_and_neighbour(self):
        for g in (er(30, 0.3, seed=1), _star_with_leaf_edge(6), complete(5), Graph(4, [])):
            owner, indices = np.repeat(np.arange(g.n), g.degree_array), g.indices
            twin = census._twins(g.n, owner, indices)
            assert (twin[twin] == np.arange(len(twin))).all()
            assert (owner[twin] == indices).all() and (indices[twin] == owner).all()

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_rows_across_word_boundaries(self, n):
        g = er(n, 0.3, seed=n)
        assert self._sides(g, table_keys=n * n // 2)[1][0] > 0
        self._check(g, (fast_census(g), len(_pairs(g))))


class TestProductCensus:
    """A graph whose whole pair table would be one bitset block reads every
    ``c_ab`` from one float32 matrix product, builds no adjacency rows and
    gives the census and pair count of every other side."""

    @staticmethod
    def _product(g):
        """``table_census(g)``, checked against criterion 8's bound on the
        pair count, whether it left the adjacency rows unbuilt, and how many
        dense blocks it read from a product rather than from bitsets.  Every
        count is a Python int, as JSON output needs."""
        with mock.patch.object(census, "_dense_sums", wraps=census._dense_sums) as dense, \
                mock.patch.object(census, "_bitset_counts", wraps=census._bitset_counts) as bitset:
            result = census.table_census(g)
        unbuilt = g._rows is None
        products = dense.call_count - bitset.call_count
        # a product block is the table's only block and holds every c_ab
        assert not products or (dense.call_count == 1 and dense.call_args.args[0].shape == (g.n, g.n))
        c, pairs = result
        assert all(type(x) is int for x in (pairs, *c.to_json_dict().values()))
        assert pairs <= g.m + sum(k * (k - 1) // 2 for k in g.degrees) - 3 * c.nC3
        return result, unbuilt, products

    @pytest.mark.parametrize("g", [
        *(complete(n) for n in range(2, 41)),
        *(complete_bipartite(a, b)
          for a, b in [(1, 1), (2, 3), (4, 4), (3, 30), (20, 20), (40, 40)]),
        *(er(n, 0.5, seed=n) for n in (63, 64, 65, 128, 129)),
        Graph(0, []),
    ], ids=repr)
    def test_equals_the_merge(self, g):
        # the table's one block is a dense one when its n² pairs times
        # ⌈n/64⌉ words are at most its W keys; K4, K_{4,4} and smaller are not
        wedges = sum(k * (k - 1) // 2 for k in g.degrees)
        one_block = g.n ** 2 <= census._TABLE_KEYS and g.n ** 2 * -(-g.n // 64) <= wedges
        result, unbuilt, products = self._product(g)
        assert unbuilt == one_block and products == one_block
        assert result == (fast_census(g), len(_pairs(g)))

    @pytest.mark.parametrize("n", [255, 256])
    def test_equals_the_blocked_table(self, n):
        # the merge takes about half a minute on these graphs; the table in
        # blocks of a quarter of the rows, which other tests check against
        # it, does not
        g = er(n, 0.5, seed=n)
        result, unbuilt, products = self._product(g)
        assert unbuilt and products == 1
        blocked, sides, _ = TestPairTable._sides(g, table_keys=n * n // 4)
        assert sides[0] > 1
        assert result == blocked == (blocked[0], len(_pairs(g)))

    @pytest.mark.parametrize("g", [
        *(complete(n) for n in (5, 40, 256)),
        complete_bipartite(20, 20),
        *(er(n, 0.5, seed=n) for n in (63, 129, 256)),
        Graph(0, []),
    ], ids=repr)
    def test_table_takes_the_product(self, g):
        with mock.patch.object(census, "_bitset_counts", wraps=census._bitset_counts) as bitset, \
                mock.patch.object(census, "_key_counts", wraps=census._key_counts) as listed:
            result, unbuilt, products = self._product(g)
        assert products == 1 and not bitset.called and not listed.called
        assert unbuilt
        # the same table in blocks of a quarter of the rows, read from bitsets
        assert result == TestPairTable._sides(g, table_keys=max(1, g.n * g.n // 4))[0]

    @pytest.mark.parametrize("g", [
        # n² past the table's block of pairs, however dense
        er(257, 0.5, seed=257),
        # one block, but fewer keys than bitset words
        er(200, 0.02, seed=200),
        complete(4),
        complete_bipartite(4, 4),
    ], ids=repr)
    def test_other_graphs_take_the_table(self, g):
        result, unbuilt, products = self._product(g)
        assert not products
        assert not unbuilt
        # the whole table as one block: a product where the graph is dense enough
        with mock.patch.object(census, "_TABLE_KEYS", 1 << 30):
            assert result == self._product(g)[0]


class TestCountsAgainstBrute:
    @pytest.mark.parametrize("seed", range(8))
    def test_er_graphs(self, seed):
        g = er(9, 0.45, seed=seed)
        c = fast_census(g)
        assert c.nP4 == brute.count_simple_paths(g, 4)
        assert c.nP5 == brute.count_simple_paths(g, 5)
        assert c.nC4 == brute.count_cycles4_brute(g)
        assert c.nPaw == brute.count_paw_brute(g)
        assert c.nC3L2 == brute.count_c3l2_brute(g)

    @pytest.mark.parametrize("g", [
        complete(5), complete(6), cycle(6), path(7), star(7),
    ], ids=["K5", "K6", "C6", "P7", "S7"])
    def test_named_graphs(self, g):
        assert fast_census(g) == brute.brute_census(g)

    def test_paths_need_two_vertices(self):
        with pytest.raises(ValidationError, match="at least 2"):
            brute.count_simple_paths(path(3), 1)

    def test_brute_census_refuses_13_vertices_before_enumerating(self):
        with mock.patch.object(
            brute, "independent_edge_pairs", wraps=brute.independent_edge_pairs
        ) as listed, mock.patch.object(brute, "simple_walks", wraps=brute.simple_walks) as walked:
            with pytest.raises(OracleBudgetError, match=r"n <= 12 \(got n=13\)"):
                brute.brute_census(path(13))
            assert listed.call_count == walked.call_count == 0
            # at the limit it runs
            assert brute.brute_census(path(12)) == fast_census(path(12))
            assert listed.call_count == 1


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
