"""The variance routes: spot values, equality, dispatch, JSON rendering."""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crossvar import graph as graph_module, variance
from crossvar.brute import brute_census, count_triangles_brute
from crossvar.census import fast_census
from crossvar.errors import NotAForestError, ValidationError
from crossvar.frequencies import (
    CONTRIBUTING_TYPES,
    PRODUCT_TYPES,
    ExpectationTable,
    FrequencyVector,
    builtin_rla_table,
)
from crossvar.generators import (
    complete,
    complete_bipartite,
    cycle,
    erdos_renyi,
    one_regular,
    path,
    quasi_star,
    random_forest,
    random_tree,
    star,
)
from crossvar.graph import Graph
from crossvar.variance import (
    compute_variance,
    forest_census,
    format_rational,
    route_census,
    select_algorithm,
    variance_forest,
    variance_general,
    variance_general_reuse,
    variance_naive,
    variance_from_frequencies,
    variance_rla_closed,
)


class TestSpotValues:
    @pytest.mark.parametrize("g,expected", [
        (one_regular(4), Fraction(2, 9)),
        (cycle(4), Fraction(2, 9)),
        (path(4), Fraction(2, 9)),
        (star(6), Fraction(0)),
        (star(9), Fraction(0)),
        (complete(5), Fraction(0)),
        (complete_bipartite(4, 4), Fraction(144, 5)),
    ], ids=["2xL2", "C4", "P4", "S6", "S9", "K5", "K44"])
    def test_known_variances(self, g, expected):
        assert variance_general(g).variance == expected

    def test_expectation_is_q_third(self):
        g = cycle(7)
        r = variance_general(g)
        assert r.expectation == Fraction(r.q, 3)

    def test_complete_graph_variance_vanishes(self):
        # every 4-subset of K_n contributes exactly one crossing in any
        # arrangement, so C is constant
        for n in range(4, 8):
            assert variance_rla_closed(complete(n)).variance == 0


class TestRouteEquality:
    @pytest.mark.parametrize("seed", range(10))
    def test_er_graphs(self, seed):
        g = erdos_renyi(12, 0.35, seed=seed)
        reference = variance_naive(g).variance
        assert variance_general(g).variance == reference
        assert variance_general_reuse(g).variance == reference
        assert variance_rla_closed(g).variance == reference

    @pytest.mark.parametrize("n", [2, 5, 9, 13])
    def test_forest_route_on_trees(self, n):
        g = random_tree(n, seed=n)
        reference = variance_general(g).variance
        assert variance_forest(g).variance == reference

    def test_quasi_star(self):
        g = quasi_star(8)
        assert variance_forest(g).variance == variance_naive(g).variance

    @pytest.mark.parametrize("g", [
        erdos_renyi(100, 0.5, seed=0),
        Graph(3001, [(0, leaf) for leaf in range(1, 3001)] + [(1, 2)]),
    ], ids=["er-100", "star-3000-plus-edge"])
    def test_closed_form_reads_the_pair_table_not_the_merge(self, g):
        def unavailable(g):
            raise AssertionError("the closed form took the per-wedge merge")

        with mock.patch.object(variance, "fast_census", unavailable):
            closed = variance_rla_closed(g)
        reuse = variance_general_reuse(g)
        assert (closed.q, closed.variance) == (reuse.q, reuse.variance)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_closed_form_times_180_is_integer(seed):
    g = erdos_renyi(10, 0.4, seed=seed)
    v = variance_rla_closed(g).variance
    assert (180 * v).denominator == 1
    assert v >= 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_variance_ignores_labels_and_isolated_vertices(data):
    n = data.draw(st.integers(0, 12), label="n")
    seed = data.draw(st.integers(0, 10**6), label="seed")
    if data.draw(st.booleans(), label="forest"):
        g = random_forest(n, seed=seed)
    else:
        g = erdos_renyi(n, data.draw(st.floats(0, 1), label="p"), seed=seed)
    perm = data.draw(st.permutations(range(n)), label="perm")
    relabelled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    padded = Graph(n + data.draw(st.integers(1, 3), label="isolated"), g.edges())
    routes = [variance_general, variance_general_reuse]
    if g.is_forest():
        routes.append(variance_forest)
    for route in routes:
        r = route(g)
        assert r.variance >= 0
        for other in (relabelled, padded):
            s = route(other)
            assert (s.q, s.expectation, s.variance) == (r.q, r.expectation, r.variance)


class TestDispatch:
    def test_auto_picks_forest_on_trees(self):
        assert select_algorithm(random_tree(6, seed=1)) == "forest"

    def test_auto_picks_reuse_on_cyclic(self):
        assert select_algorithm(complete(4)) == "reuse"

    def test_auto_on_tree_runs_one_union_find_pass(self, monkeypatch):
        passes = []
        acyclic = graph_module._acyclic

        def counted(g):
            passes.append(g)
            return acyclic(g)

        monkeypatch.setattr(graph_module, "_acyclic", counted)
        g = random_tree(30, seed=4)
        assert compute_variance(g).algorithm == "forest"
        assert len(passes) == 1

    def test_forest_on_cyclic_fails(self):
        with pytest.raises(NotAForestError):
            compute_variance(complete(4), algorithm="forest")

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            compute_variance(path(4), algorithm="bogus")
        # naive classifies pairs and has no census
        with pytest.raises(ValidationError, match="no census route 'naive'"):
            route_census(path(4), "naive")

    def test_closed_form_rejects_foreign_table(self):
        from crossvar.frequencies import ExpectationTable

        rla = builtin_rla_table()
        table = ExpectationTable(name="custom", delta=rla.delta, gamma=rla.gamma)
        with pytest.raises(ValidationError):
            compute_variance(path(4), algorithm="rla-closed", table=table)

    def test_closed_form_rejects_another_layout_named_rla(self):
        # a random 2-page book drawing: each edge on one of 2 pages, so
        # delta/2, and gamma_k = rho (gamma + delta^2) - delta^2 / 4 with
        # rho = 1/2 for type 24 and 1/4 for the rest
        rla = builtin_rla_table()
        square = rla.delta ** 2
        gamma = {
            code: Fraction(1, 2 if code == "24" else 4) * (rla.gamma[code] + square) - square / 4
            for code in PRODUCT_TYPES
        }
        book = ExpectationTable(name="rla", delta=rla.delta / 2, gamma=gamma)
        g = erdos_renyi(9, 0.5, seed=2)
        r = compute_variance(g, algorithm="reuse", table=book)
        assert (r.variance, r.expectation) == (Fraction(413, 18), Fraction(95, 6))
        with pytest.raises(ValidationError, match="specific to the rla layout"):
            compute_variance(g, algorithm="rla-closed", table=book)
        # a table equals only itself: this one has the rla name and delta
        assert ExpectationTable(name="rla", delta=rla.delta, gamma=gamma) != rla
        assert compute_variance(g, algorithm="rla-closed", table=rla) == compute_variance(
            g, algorithm="rla-closed"
        )


class TestForestCensus:
    def test_rejects_cycles(self):
        with pytest.raises(NotAForestError):
            forest_census(cycle(5))

    @pytest.mark.parametrize("g", [
        *(random_tree(n, seed=2 * n) for n in (3, 6, 10)),
        *(random_forest(n, seed=seed) for n, seed in ((9, 1), (12, 5), (40, 3))),
        Graph(7, [(0, 1), (1, 2), (4, 5)]),
        Graph(0, []),
        Graph(1, []),
        Graph(2, []),
        Graph(2, [(0, 1)]),
        Graph(12, [(0, i) for i in range(1, 12)] + [(1, 2)]),
    ], ids=[
        "3", "6", "10", "forest-9", "forest-12", "forest-40", "isolated",
        "n0", "n1", "n2-empty", "n2-edge", "hub-triangle",
    ])
    def test_matches_general_census_on_trees(self, g):
        if g.is_forest():
            assert forest_census(g) == fast_census(g)
        else:
            with pytest.raises(NotAForestError):
                forest_census(g)
        if g.n <= 12:
            assert fast_census(g) == brute_census(g)


class TestReuse:
    def test_hash_table_bound(self):
        for seed in range(5):
            g = erdos_renyi(25, 0.3, seed=seed)
            r = variance_general_reuse(g)
            n_l3 = sum(d * (d - 1) // 2 for d in g.degrees)
            assert r.hash_table_size <= g.m + n_l3 - 3 * count_triangles_brute(g)

    def test_cached_intersections_sound(self):
        # reuse must match the cache-free route bit for bit
        g = erdos_renyi(15, 0.6, seed=9)
        assert variance_general_reuse(g).variance == variance_general(g).variance


class TestRendering:
    def test_format_rational(self):
        assert format_rational(Fraction(2, 9)) == "2/9"
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(0)) == "0"

    def test_json_round_trip(self):
        r = variance_general(cycle(4))
        payload = json.loads(json.dumps(r.to_json_dict()))
        assert payload["variance"] == "2/9"
        assert payload["expectation"] == "2/3"
        assert payload["algorithm"] == "general"

    def test_reuse_reports_hash_size(self):
        r = variance_general_reuse(cycle(4))
        assert "hash_table_size" in r.to_json_dict()


def test_degenerate_graphs_have_zero_variance():
    for g in (path(1), path(2), path(3), star(4)):
        r = compute_variance(g)
        assert r.variance == 0 and r.expectation == Fraction(r.q, 3)


class TestInnerProduct:
    _fractions = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**6)

    @given(
        st.dictionaries(st.sampled_from(PRODUCT_TYPES), _fractions, min_size=9),
        st.lists(st.integers(0, 10**30), min_size=7, max_size=7),
    )
    def test_common_denominator_matches_fraction_sum(self, gamma, counts):
        table = ExpectationTable(name="custom", delta=Fraction(1, 3), gamma=gamma)
        freq = FrequencyVector(counts=dict(zip(CONTRIBUTING_TYPES, counts)), null_total=0)
        expected = sum(
            (freq.counts[code] * gamma[code] for code in CONTRIBUTING_TYPES), start=Fraction(0)
        )
        assert variance_from_frequencies(freq, table) == expected

    def test_builtin_table_is_shared_and_read_only(self):
        table = builtin_rla_table()
        assert builtin_rla_table() is table
        with pytest.raises(TypeError):
            table.gamma["24"] = Fraction(0)
