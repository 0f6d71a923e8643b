"""Graph construction, parsing, and the degree-sum aggregates."""

import warnings

import pytest
from hypothesis import given, strategies as st

from crossvar.brute import independent_edge_pairs
from crossvar.census import fast_census
from crossvar.errors import EdgeListParseError, ValidationError
from crossvar.graph import (
    Graph,
    compute_q,
    degree_aggregates,
    parse_edge_list,
)


def random_graph_strategy(max_n=9):
    """Random small graphs as (n, edge subset)."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=2 * n,
            ),
        )
    )


class TestGraph:
    def test_adjacency_sorted_and_deduplicated(self):
        g = Graph(4, [(3, 0), (0, 3), (0, 1), (1, 0), (2, 1)])
        assert g.m == 3
        assert g.adjacency[0] == (1, 3)
        assert g.degrees == (2, 2, 1, 1)

    def test_edges_round_trip(self):
        edges = [(0, 1), (1, 2), (0, 3)]
        g = Graph.from_edges(edges)
        assert sorted(g.edges()) == sorted(edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Graph(2, [(0, 2)])

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"

    def test_adjacent(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.adjacent(0, 1) and g.adjacent(1, 0)
        assert not g.adjacent(0, 2)

    @pytest.mark.parametrize("edges,expected", [
        ([(0, 1), (1, 2)], True),
        ([(0, 1), (1, 2), (2, 0)], False),
        ([], True),
    ])
    def test_is_forest(self, edges, expected):
        g = Graph.from_edges(edges, n=3)
        assert g.is_forest() is expected


class TestParse:
    def test_basic(self):
        g = parse_edge_list("# a comment\n0 1\n1 2\n")
        assert (g.n, g.m) == (3, 2)
        # leading zeros are allowed, also past the whole-text scan's 8 digits
        assert parse_edge_list("000000001 2\n") == Graph(3, [(1, 2)])
        assert parse_edge_list(f"{'0' * 5000}1 2\n") == Graph(3, [(1, 2)])

    def test_n_directive(self):
        g = parse_edge_list("n=5\n0 1\n")
        assert g.n == 5 and g.degrees[4] == 0

    def test_n_directive_not_first(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 1\nn=5\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListParseError) as info:
            parse_edge_list("0 1\nnot an edge\n")
        assert info.value.line_number == 2

    def test_duplicate_edges_warn(self):
        with pytest.warns(UserWarning):
            g = parse_edge_list("0 1\n1 0\n")
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("2 2\n")

    def test_empty_graph(self):
        g = parse_edge_list("n=3\n")
        assert (g.n, g.m) == (3, 0)

    @given(random_graph_strategy(), st.randoms(use_true_random=False))
    def test_shuffled_reversed_repeated_lines(self, data, rnd):
        n, edges = data
        g = Graph(n, edges)
        lines = list(g.edges())
        if lines:
            lines += rnd.choices(lines, k=rnd.randint(0, 5))
        lines = [(u, v) if rnd.random() < 0.5 else (v, u) for u, v in lines]
        rnd.shuffle(lines)
        text = f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parse_edge_list(text) == g
        expected = [f"collapsed {len(lines) - g.m} duplicate edge(s)"] if len(lines) > g.m else []
        assert [str(w.message) for w in caught] == expected


class TestAggregates:
    @given(random_graph_strategy())
    def test_fields_match_definitions(self, data):
        n, edges = data
        g = Graph(n, edges)
        k = g.degrees
        xi = [sum(k[t] for t in g.adjacency[s]) for s in range(n)]
        agg = degree_aggregates(g)
        assert agg.mmt2 == sum(d ** 2 for d in k)
        assert agg.mmt3 == sum(d ** 3 for d in k)
        assert agg.mmt4 == sum(d ** 4 for d in k)
        assert agg.xi2 == sum(x * x for x in xi)
        assert agg.k2xi == sum(d * d * x for d, x in zip(k, xi))
        assert agg.psi == sum(k[u] * k[v] for u, v in g.edges())
        assert agg.q == len(independent_edge_pairs(g))

    @given(random_graph_strategy())
    def test_q_counts_independent_pairs(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert compute_q(g) == len(independent_edge_pairs(g))

    @given(random_graph_strategy())
    def test_K_phi_match_definitions(self, data):
        n, edges = data
        g = Graph(n, edges)
        k = g.degrees
        pairs = independent_edge_pairs(g)
        census = fast_census(g)
        assert census.K == sum(
            k[s] + k[t] + k[u] + k[v] for (s, t), (u, v) in pairs
        )
        assert census.phi1 == sum(
            k[s] * k[t] + k[u] * k[v] for (s, t), (u, v) in pairs
        )
        assert census.phi2 == sum(
            (k[s] + k[t]) * (k[u] + k[v]) for (s, t), (u, v) in pairs
        )

    def test_star_has_no_independent_pairs(self):
        g = Graph.from_edges([(0, i) for i in range(1, 8)])
        assert compute_q(g) == 0
