"""Crossing counts of concrete arrangements, enumeration, sampling, bounds."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossvar import arrangements
from crossvar.arrangements import (
    MonteCarloResult,
    chebyshev_pvalue_bound,
    count_crossings,
    exhaustive_distribution,
    monte_carlo,
    parse_arrangement,
    zscore,
)
from crossvar.brute import count_crossings_brute
from crossvar.errors import (
    DegenerateStatisticsError,
    OracleBudgetError,
    ValidationError,
)
from crossvar.generators import (
    complete,
    cycle,
    erdos_renyi,
    one_regular,
    path,
    random_tree,
    star,
)
from crossvar.graph import Graph
from crossvar.variance import variance_general


@st.composite
def graphs(draw):
    """Random graphs plus stars, complete graphs and cycles, so that shared
    endpoints, nested arcs and edges with a common left end all occur."""
    kind = draw(st.sampled_from(["er", "star", "complete", "cycle"]))
    if kind == "er":
        n = draw(st.integers(0, 12))
        return erdos_renyi(n, draw(st.floats(0, 1)), seed=draw(st.integers(0, 10**6)))
    if kind == "cycle":
        return cycle(draw(st.integers(3, 12)))
    return (star if kind == "star" else complete)(draw(st.integers(1, 12)))


class TestCountCrossings:
    def test_interleaved_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert count_crossings(g, (0, 2, 1, 3)) == 1

    def test_nested_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert count_crossings(g, (0, 1, 2, 3)) == 0

    def test_path4_crossing_is_at_most_q(self):
        # the 4-path has a single independent edge pair, so C is 0 or 1;
        # this order interleaves the two end edges
        assert count_crossings(path(4), (2, 0, 3, 1)) == 1
        from itertools import permutations

        assert max(count_crossings(path(4), p) for p in permutations(range(4))) == 1

    def test_adjacent_edges_never_cross(self):
        g = star(5)
        for order in [(0, 1, 2, 3, 4), (1, 0, 3, 2, 4), (2, 4, 0, 1, 3)]:
            assert count_crossings(g, order) == 0

    def test_rejects_non_permutation(self):
        g = path(3)
        with pytest.raises(ValidationError):
            count_crossings(g, (0, 0, 2))
        with pytest.raises(ValidationError):
            count_crossings(g, (0, 1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1000), st.randoms(use_true_random=False))
    def test_reversal_invariance(self, seed, rnd):
        g = erdos_renyi(8, 0.5, seed=seed)
        order = list(range(8))
        rnd.shuffle(order)
        assert count_crossings(g, order) == count_crossings(g, order[::-1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_pair_by_pair_oracle(self, data):
        g = data.draw(graphs())
        order = data.draw(st.permutations(range(g.n)))
        assert count_crossings(g, order) == count_crossings_brute(g, order)

    @pytest.mark.parametrize(
        "m", [arrangements._LEAF, arrangements._LEAF + 1, 2 * arrangements._LEAF, None]
    )
    def test_matches_oracle_across_merge_levels(self, m):
        # edge counts that fill one leaf block, spill one edge past it and
        # fill two; None is ER(60, 0.3), 518 edges over seven merge levels
        rnd = random.Random(m)
        if m is None:
            g = erdos_renyi(60, 0.3, seed=1)
        else:
            g = Graph(12, rnd.sample(list(combinations(range(12), 2)), m))
        for _ in range(5):
            order = list(range(g.n))
            rnd.shuffle(order)
            assert count_crossings(g, order) == count_crossings_brute(g, order)

    @pytest.mark.parametrize("n", [2**15, 2**15 + 1, 2**16])
    def test_matches_oracle_on_either_side_of_the_int32_sort_key(self, n):
        # the row sort keys lo·2^s − hi fit int32 up to n = 2^15 and are
        # sorted in int64 above it; 40 edges among 60 vertices spread over
        # 0..n−1 put large positions into the keys
        rnd = random.Random(n)
        ends = rnd.sample(range(n), 60)
        g = Graph(n, rnd.sample([(a, b) for a, b in combinations(ends, 2)], 40))
        orders = [rnd.sample(range(n), n) for _ in range(4)]
        expected = [count_crossings_brute(g, o) for o in orders]
        assert [count_crossings(g, o) for o in orders] == expected
        pos = np.argsort(np.array(orders), axis=1)
        assert arrangements._positions_to_crossings(g, pos).tolist() == expected

    def test_complete_graph_crosses_once_in_every_four_vertices(self):
        # any four vertices of K_n in any order span exactly one crossing
        # pair, so C = C(n, 4) needs no oracle.  n = 100 merges over ten
        # levels; n = 500 has 124750 edges and C above 2^31
        for n in (100, 500):
            order = random.Random(n).sample(range(n), n)
            assert count_crossings(complete(n), order) == math.comb(n, 4)
        orders = [random.Random(i).sample(range(500), 500) for i in range(3)]
        pos = np.argsort(np.array(orders), axis=1)
        got = arrangements._positions_to_crossings(complete(500), pos)
        assert got.tolist() == [math.comb(500, 4)] * 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_sweep_matches_oracle_row_by_row(self, data):
        g = data.draw(graphs())
        orders = data.draw(st.lists(st.permutations(range(g.n)), min_size=1, max_size=12))
        pos = np.argsort(np.array(orders, dtype=np.int64).reshape(len(orders), g.n), axis=1)
        # small working-set caps split the rows into chunks of one or a few
        cap = data.draw(st.sampled_from([1, 2000, arrangements._SWEEP_BYTES]))
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap):
            got = arrangements._positions_to_crossings(g, pos)
        assert got.tolist() == [count_crossings_brute(g, o) for o in orders]


class TestParseArrangement:
    def test_basic(self):
        g = path(4)
        assert parse_arrangement("2 0 3 1\n# done\n", g) == (2, 0, 3, 1)

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError, match="vertex id 'one' in"):
            parse_arrangement("0 one 2", path(3))

    def test_error_on_a_large_order_names_a_short_token(self):
        n = 10**5
        tokens = [str(v) for v in range(n)]
        tokens[n // 2] = "x" * n
        with pytest.raises(ValidationError) as info:
            parse_arrangement(" ".join(tokens), Graph(n, []))
        assert len(str(info.value)) < 200
        assert "vertex id 'xxxx" in str(info.value)

    @pytest.mark.parametrize("order,named", [
        ([0, 1, 1], "vertex 1 appears 2 times"),
        ([2, 0], "vertex 1 appears 0 times"),
        ([0, 1, 2, 3], "vertex 3 outside 0..2"),
        ([0, -1, 2], "vertex -1 outside 0..2"),
        ([0, 1.0, 2], "integer vertex ids"),
    ])
    def test_error_names_the_first_bad_vertex(self, order, named):
        with pytest.raises(ValidationError, match=named):
            count_crossings(path(3), order)

    def test_error_on_a_large_order_stays_short(self):
        n = 10**5
        order = list(range(n))
        order[n // 2] = 7
        with pytest.raises(ValidationError) as info:
            count_crossings(Graph(n, []), order)
        assert len(str(info.value)) < 200
        assert "vertex 7 appears 2 times" in str(info.value)


class TestExhaustive:
    def test_two_disjoint_edges_is_bernoulli(self):
        g = one_regular(4)
        d = exhaustive_distribution(g)
        assert d.mean == Fraction(1, 3)
        assert d.variance == Fraction(2, 9)
        # C in {0, 1} with P(1) = 1/3
        assert d.counts[1] * 3 == d.total

    def test_star_is_constant_zero(self):
        d = exhaustive_distribution(star(5))
        assert d.counts == {0: 120}
        assert d.mean == 0 and d.variance == 0

    def test_c4(self):
        d = exhaustive_distribution(cycle(4))
        assert d.mean == Fraction(2, 3)
        assert d.variance == Fraction(2, 9)

    def test_refuses_large_graphs(self):
        with pytest.raises(OracleBudgetError):
            exhaustive_distribution(path(10))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_variance_engine(self, seed):
        g = erdos_renyi(7, 0.5, seed=seed)
        d = exhaustive_distribution(g)
        r = variance_general(g)
        assert d.mean == r.expectation
        assert d.variance == r.variance


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        g = cycle(5)
        a = monte_carlo(g, 2000, seed=42)
        b = monte_carlo(g, 2000, seed=42)
        assert a == b
        # no pair of edges, so every sample is 0
        for g in [path(2), Graph(5, []), Graph(0, [])]:
            assert monte_carlo(g, 2000, seed=42) == MonteCarloResult(2000, 0.0, 0.0, 0, 0)

    def test_draws_match_a_rebuild_counted_by_the_oracle(self):
        # a seed fixes the drawn arrangements, so how they are counted
        # must not change the result
        g = erdos_renyi(10, 0.4, seed=3)
        # rebuilt in tiles of 4096 rows, whatever monte_carlo's chunk size
        samples, seed, batch = 5000, 11, 4096
        rng = np.random.default_rng(seed)
        values = []
        for done in range(0, samples, batch):
            tile = np.tile(np.arange(g.n, dtype=np.int64), (min(batch, samples - done), 1))
            for row in rng.permuted(tile, axis=1):
                values.append(count_crossings_brute(g, np.argsort(row).tolist()))
        values = np.array(values, dtype=np.int64)
        assert monte_carlo(g, samples, seed=seed) == MonteCarloResult(
            samples=samples,
            mean=float(values.mean()),
            variance=float(values.var(ddof=1)),
            minimum=int(values.min()),
            maximum=int(values.max()),
        )

    @pytest.mark.parametrize("cap", [1, 5000])
    def test_chunk_size_does_not_change_the_result(self, cap):
        # caps of one row and of a few rows per chunk against the default
        g = erdos_renyi(10, 0.4, seed=3)
        expected = monte_carlo(g, 300, seed=5)
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap):
            assert monte_carlo(g, 300, seed=5) == expected

    def test_memory_grows_with_n_not_m_squared(self):
        # 128 edges give 8128 edge pairs: a pairwise batch of 4096 rows
        # would hold several 266 MB arrays at once
        rnd = random.Random(0)
        g = Graph(64, rnd.sample(list(combinations(range(64), 2)), 128))
        tracemalloc.start()
        try:
            monte_carlo(g, 4096, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("g", [
        Graph(64, random.Random(0).sample(list(combinations(range(64), 2)), 128)),
        erdos_renyi(200, 0.05, seed=1),
        random_tree(2000, seed=1),
        complete(40),
    ], ids=["gnm64-128", "er200", "tree2000", "k40"])
    def test_one_chunk_stays_near_the_sweep_budget(self, g):
        # one chunk of draws, counted end to end, against _chunk_rows's
        # byte model: a model that misses a temporary overshoots the budget
        samples = arrangements._chunk_rows(g)
        tracemalloc.start()
        try:
            monte_carlo(g, samples, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * arrangements._SWEEP_BYTES

    def test_whole_call_stays_near_the_sweep_budget_plus_the_samples(self):
        # one workspace and one row buffer for all chunks of the call, beside
        # the int64 results: no chunk's arrays outlive it or pile up
        rnd = random.Random(0)
        g = Graph(64, rnd.sample(list(combinations(range(64), 2)), 128))
        samples = 8192
        tracemalloc.start()
        try:
            monte_carlo(g, samples, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * arrangements._SWEEP_BYTES + 8 * samples

    def test_refuses_too_many_samples_before_allocating(self):
        with mock.patch("numpy.empty", side_effect=AssertionError("allocated")) as empty:
            with pytest.raises(ValidationError, match="at most 134217728"):
                monte_carlo(path(4), arrangements.MAX_SAMPLES + 1, seed=0)
        empty.assert_not_called()

    def test_seed_changes_stream(self):
        g = cycle(5)
        assert monte_carlo(g, 2000, seed=1) != monte_carlo(g, 2000, seed=2)

    def test_mean_concentrates(self):
        g = one_regular(4)
        r = monte_carlo(g, 100_000, seed=0)
        # Bernoulli(1/3): three sigma is ~0.0045 at this sample size
        assert abs(r.mean - 1 / 3) < 0.005

    def test_sample_too_small(self):
        with pytest.raises(ValidationError):
            monte_carlo(path(4), 1, seed=0)

    @pytest.mark.parametrize("samples", [1e5, 2.0, "100", None])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(ValidationError, match="samples must be an integer"):
            monte_carlo(path(4), samples, seed=0)
        assert monte_carlo(path(4), np.int64(3), seed=0).samples == 3


class TestZscore:
    def test_c4_observed_two(self):
        r = variance_general(cycle(4))
        z = zscore(2, r.expectation, r.variance)
        assert z == pytest.approx(2 * 2 ** 0.5)

    def test_zero_at_expectation(self):
        assert zscore(1, Fraction(1), Fraction(2, 9)) == 0.0

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateStatisticsError):
            zscore(0, Fraction(0), Fraction(0))

    def test_negative_variance_raises(self):
        with pytest.raises(ValidationError, match="non-negative"):
            zscore(0, Fraction(1), Fraction(-1))


class TestChebyshev:
    def test_c4_two_sided(self):
        r = variance_general(cycle(4))
        assert chebyshev_pvalue_bound(2, r.expectation, r.variance) == Fraction(1, 8)

    def test_at_expectation_returns_one(self):
        assert chebyshev_pvalue_bound(1, Fraction(1), Fraction(2, 9)) == 1

    def test_wrong_side_is_vacuous(self):
        r = variance_general(cycle(4))
        assert chebyshev_pvalue_bound(2, r.expectation, r.variance, side="lower") == 1

    def test_one_sided_cantelli(self):
        r = variance_general(cycle(4))
        # Var/(Var + dev^2) with dev = 4/3
        expected = Fraction(2, 9) / (Fraction(2, 9) + Fraction(16, 9))
        assert chebyshev_pvalue_bound(2, r.expectation, r.variance, side="upper") == expected

    def test_clamped_to_one(self):
        assert chebyshev_pvalue_bound(2, Fraction(1), Fraction(100)) == 1

    def test_bad_side(self):
        with pytest.raises(ValidationError):
            chebyshev_pvalue_bound(2, Fraction(1), Fraction(1), side="both")

    @pytest.mark.parametrize("crossings,side,expected", [
        (3, "lower", 1), (3, "upper", 0), (0, "upper", 1), (0, "lower", 0),
        (3, "two_sided", 0), (0, "two_sided", 0),
    ])
    def test_point_mass(self, crossings, side, expected):
        # with variance 0 the count is always 1: C >= 3 and C <= 0 never
        # happen, while C <= 3 and C >= 0 always do
        assert chebyshev_pvalue_bound(crossings, Fraction(1), Fraction(0), side) == expected

    def test_negative_variance_raises(self):
        with pytest.raises(ValidationError, match="non-negative"):
            chebyshev_pvalue_bound(2, Fraction(1), Fraction(-1))


_EMPTY = np.empty


def _dirty_empty(*args, **kwargs):
    """``np.empty`` whose every byte is 0xA5, so that a read before a write
    shows, even where fresh pages would read as zeros."""
    a = _EMPTY(*args, **kwargs)
    a.reshape(-1).view(np.uint8).fill(0xA5)
    return a


_RANDOM_PAIRS = random.Random(9)
_INT64_ENDS = _RANDOM_PAIRS.sample(range(2**15 + 1), 30)


class TestWorkspace:
    """A call counts all its chunks in one workspace, so no chunk may depend
    on what the chunk before it, or the allocator, left there."""

    @pytest.mark.parametrize("g", [
        # 22 edges: a leaf of 8 and keys padded to 32
        Graph(12, _RANDOM_PAIRS.sample(list(combinations(range(12), 2)), 22)),
        # the row sort keys lo·2^s − hi need int64 above n = 2^15
        Graph(2**15 + 1, _RANDOM_PAIRS.sample(list(combinations(_INT64_ENDS, 2)), 21)),
    ], ids=["padded-keys", "int64-keys"])
    @pytest.mark.parametrize("cap", [1, 2000, None])
    def test_chunks_match_an_uncapped_call_and_the_oracle(self, g, cap):
        # 11 rows: with the cap, chunks of one or three rows, the last one
        # partial; uncapped, fewer rows than one chunk (padded keys) or
        # chunks of five rows and a partial last one (int64 keys)
        samples, seed = 11, 3
        rng = np.random.default_rng(seed)
        pos = rng.permuted(np.tile(np.arange(g.n, dtype=np.int64), (samples, 1)), axis=1)
        values = np.array([count_crossings_brute(g, np.argsort(row).tolist()) for row in pos])
        drawn = MonteCarloResult(
            samples=samples,
            mean=float(values.mean()),
            variance=float(values.var(ddof=1)),
            minimum=int(values.min()),
            maximum=int(values.max()),
        )
        uncapped = arrangements._positions_to_crossings(g, pos)
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap or arrangements._SWEEP_BYTES), \
                mock.patch("numpy.empty", _dirty_empty):
            got = arrangements._positions_to_crossings(g, pos)
            result = monte_carlo(g, samples, seed=seed)
        assert got.tolist() == uncapped.tolist() == values.tolist()
        assert result == drawn

    @pytest.mark.parametrize("cap", [1, 2000])
    def test_exhaustive_chunks_match_an_uncapped_call_and_the_oracle(self, cap):
        # 11 edges among 7 vertices: keys padded to 16; 5040 rows in chunks
        # of one or five rows
        g = Graph(7, random.Random(5).sample(list(combinations(range(7), 2)), 11))
        expected = exhaustive_distribution(g)
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap), \
                mock.patch("numpy.empty", _dirty_empty):
            assert exhaustive_distribution(g) == expected
        oracle = {}
        for pos in permutations(range(g.n)):
            value = count_crossings_brute(g, np.argsort(pos).tolist())
            oracle[value] = oracle.get(value, 0) + 1
        assert expected.counts == oracle
