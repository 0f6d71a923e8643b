"""Crossing counts of concrete arrangements, enumeration, sampling, bounds."""

import itertools
import math
import os
import random
import re
import signal
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossvar import arrangements, graph
from crossvar.arrangements import (
    MonteCarloResult,
    chebyshev_pvalue_bound,
    count_crossings,
    exhaustive_distribution,
    monte_carlo,
    parse_arrangement,
    validate_arrangement,
    zscore,
)
from crossvar.brute import count_crossings_brute
from crossvar.errors import (
    CrossvarError,
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
from crossvar.graph import Graph, scan_ids
from crossvar.variance import variance_general


def _on_cpus(k):
    """``os.sched_getaffinity`` reporting ``k`` CPUs, whether or not they exist."""
    return mock.patch.object(os, "sched_getaffinity", return_value=set(range(k)))


def _draws(g, total, seed):
    """Crossing counts of ``total`` rows drawn as monte_carlo draws them."""
    rng = np.random.default_rng(seed)
    base = np.arange(g.n, dtype=np.int64)

    def draw(rows):
        rows[...] = base
        rng.permuted(rows, axis=1, out=rows)

    return arrangements._count_rows(g, total, draw)


def _count_positions(g, pos):
    """Crossing counts of the position rows ``pos`` (``pos[r, v]`` is the
    position of vertex ``v`` in arrangement ``r``), through the row driver."""
    done = 0

    def fill(rows):
        nonlocal done
        rows[...] = pos[done:done + len(rows)]
        done += len(rows)

    return arrangements._count_rows(g, len(pos), fill)


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

    def test_refuses_an_unsigned_id_past_int64(self):
        # cast to int64, 2^63 would wrap to a negative id the order does not hold
        order = np.array([0, 1, 2**63], dtype=np.uint64)
        with pytest.raises(ValidationError, match="^vertex id out of range$"):
            count_crossings(path(3), order)
        assert count_crossings(path(3), np.array([0, 2, 1], dtype=np.uint64)) == 0

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
        assert _count_positions(g, pos).tolist() == expected

    @pytest.mark.parametrize("m, width, tally", [
        (2**26, 2**26, np.int32), (2**26 + 1, 2**27, np.int64),
    ])
    def test_layout_tally_dtype_on_either_side_of_its_switch(self, m, width, tally):
        # place·tally fits int32 while width·width.bit_length() < 2^31: 2^26
        # padded keys are the most with an int32 tally, and one edge more
        # doubles the width.  No graph that fits in memory reaches the switch
        _, got_width, dtype, _ = arrangements._layout(m)
        assert (got_width, dtype) == (width, np.dtype(tally))
        assert (width * width.bit_length() < 2**31) == (dtype == np.int32)

    def test_complete_graph_crosses_once_in_every_four_vertices(self):
        # any four vertices of K_n in any order span exactly one crossing
        # pair, so C = C(n, 4) needs no oracle.  n = 100 merges over ten
        # levels; n = 500 has 124750 edges and C above 2^31
        for n in (100, 500):
            order = random.Random(n).sample(range(n), n)
            assert count_crossings(complete(n), order) == math.comb(n, 4)
        orders = [random.Random(i).sample(range(500), 500) for i in range(3)]
        pos = np.argsort(np.array(orders), axis=1)
        got = _count_positions(complete(500), pos)
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
            got = _count_positions(g, pos)
        assert got.tolist() == [count_crossings_brute(g, o) for o in orders]


class TestParseArrangement:
    def test_basic(self):
        g = path(4)
        assert parse_arrangement("2 0 3 1\n# done\n", g).tolist() == [2, 0, 3, 1]

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError, match="vertex id 'one' in"):
            parse_arrangement("0 one 2", path(3))
        # ids are ASCII decimal digits, as in an edge list
        for token in ("1_0", "+1", "\u0661"):
            with pytest.raises(ValidationError, match=re.escape(f"'{token}' in arrangement line 2")):
                parse_arrangement(f"0 2 # one\n{token} 3 4 5 6 7 8 9\n", path(11))
        assert parse_arrangement("0002 0 1\n", path(3)).tolist() == [2, 0, 1]

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

    @pytest.mark.parametrize("order", [(2, 0, 1), [1, 2, 0], range(3), np.array([0, 2, 1])])
    def test_returns_the_order_as_int64_ids(self, order):
        ids = validate_arrangement(path(3), order)
        assert ids.dtype == np.int64
        assert ids.tolist() == list(order)

    def test_int64_array_is_checked_without_a_python_pass(self):
        g = path(1000)
        order = np.random.default_rng(0).permutation(g.n)
        expected = count_crossings(g, order.tolist())

        def unavailable(*args, **kwargs):
            raise AssertionError("np.fromiter called on an int64 array")

        with mock.patch("numpy.fromiter", unavailable):
            assert np.shares_memory(validate_arrangement(g, order), order)
            assert count_crossings(g, order) == expected

    def test_error_on_a_large_order_stays_short(self):
        n = 10**5
        order = list(range(n))
        order[n // 2] = 7
        with pytest.raises(ValidationError) as info:
            count_crossings(Graph(n, []), order)
        assert len(str(info.value)) < 200
        assert "vertex 7 appears 2 times" in str(info.value)


def _parsed(read, text, g):
    """What reading ``text`` as an order of ``g`` gives: the ids, or the error."""
    try:
        return read(text, g).tolist()
    except CrossvarError as exc:
        return type(exc), str(exc)


def _read_line_by_line(text, g):
    return validate_arrangement(g, arrangements._read_lines(text))


_order_gap = st.sampled_from([" ", "\t", "\n", "\r", "\r\n", " \t\r\n", " # 1 c\n", "#\r"])
# ids, ids of 9 digits or with leading zeros, and the other tokens and
# breaks that the line-by-line reading takes or refuses
_order_piece = st.one_of(
    st.integers(0, 7).map(str),
    st.builds(lambda v, zeros: "0" * zeros + str(v), st.integers(0, 7), st.integers(1, 9)),
    st.sampled_from([
        "123456789", "99999999", "33554432", "#", "x", "one", "\x0b", "\x0c", "\x1c", "\u2028",
        "\u0662", "+", "_", "\u00e9", "# \u00e9\n", "# c\x0c", "#\x1c", "#\u2028", "#\u2029", "\x85",
        "# c\x1d0 1\n", "# c\x1e0 1\n",
    ]),
)


@st.composite
def arrangement_texts(draw):
    """``(n, text, order)``: an order of ``0..n-1`` between plain gaps and
    comments, with ``order`` its ids; or such a text with up to four pieces
    put in anywhere, with ``order`` ``None``."""
    n = draw(st.integers(0, 6))
    order = draw(st.permutations(range(n)))
    pieces = [draw(_order_gap)] + [str(v) + draw(_order_gap) for v in order]
    if draw(st.booleans()):
        return n, "".join(pieces), order
    for _ in range(draw(st.integers(1, 4))):
        pieces.insert(draw(st.integers(0, len(pieces))), draw(_order_piece))
    return n, "".join(pieces), None


# a line of ids of one to eight digits, blank if it holds none, with blanks
# around and between them and a comment after them
_id_line = st.builds(
    lambda pre, ids, sep, comment: pre + sep.join(map(str, ids)) + comment,
    st.sampled_from(["", " ", "\t "]),
    st.lists(st.integers(0, 12) | st.integers(0, 99_999_999), max_size=6),
    st.sampled_from([" ", "\t", "  ", " \t "]),
    st.sampled_from(["", " # c", "# 1 2", "#", "\t# \u00e9"]),
)


class TestArrangementScan:
    @settings(max_examples=300, deadline=None)
    @given(arrangement_texts())
    def test_scan_agrees_with_the_line_by_line_reading(self, case):
        n, text, order = case
        g = Graph(n, [])
        assert _parsed(parse_arrangement, text, g) == _parsed(_read_line_by_line, text, g)
        ids = scan_ids(text)
        if ids is not None:
            assert ids.dtype == np.int64
            assert ids.tolist() == arrangements._read_lines(text)
        if order is not None:
            assert ids is not None and ids.tolist() == order

    @given(st.lists(_id_line, max_size=10), st.sampled_from(["\n", "\r\n"]), st.booleans(),
           arrangement_texts(), st.integers(1, 12))
    def test_blocks_of_any_size(self, id_lines, newline, trailing, case, block):
        text = newline.join(id_lines) + newline * trailing
        n, other, _ = case
        g = Graph(n, [])
        with mock.patch.object(graph, "_BLOCK", block):
            ids = scan_ids(text)
            assert ids is not None and ids.tolist() == arrangements._read_lines(text)
            assert _parsed(parse_arrangement, other, g) == _parsed(_read_line_by_line, other, g)

    @pytest.mark.parametrize("text", [
        "0 1 2\x0b3", "# c\x0c0 1 2 3", "0 1 # c\u20282 3", "0 1\x852 3", "0 1 2 000000003",
        "0 1 2 123456789", "0 1 2 3\r# c\r", "0\t1\r\n2 # \u00e9\r\n3", "# c\x85 0 1 2 3",
        "# c\x1d0 1\n", "# c\x1e0 1\n",
    ])
    def test_other_breaks_long_ids_and_comments(self, text):
        g = Graph(4, [])
        assert _parsed(parse_arrangement, text, g) == _parsed(_read_line_by_line, text, g)

    @pytest.mark.parametrize("layout", ["one line", "crlf lines", "comment lines"])
    def test_large_order_takes_no_python_pass_per_id(self, layout):
        n = 10**5
        order = np.random.default_rng(3).permutation(n).tolist()
        text = {
            "one line": " ".join(map(str, order)) + "\n",
            "crlf lines": "".join(f"{v}\r\n" for v in order),
            "comment lines": "".join(f"# id {i}\n{v}\n" for i, v in enumerate(order)),
        }[layout]

        def unavailable(token):
            raise AssertionError("read_number called on an id")

        with mock.patch.object(graph, "read_number", unavailable), \
                mock.patch.object(arrangements, "read_number", unavailable):
            assert parse_arrangement(text, Graph(n, [])).tolist() == order


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
        # one workspace and one row buffer per worker for all chunks of the
        # call, beside the int64 results: no chunk's arrays outlive it or pile
        # up, and memory grows by one chunk's budget per CPU, not per sample
        rnd = random.Random(0)
        g = Graph(64, rnd.sample(list(combinations(range(64), 2)), 128))
        samples = 8192
        for cpus in (1, 2, 3):
            tracemalloc.start()
            try:
                with _on_cpus(cpus):
                    monte_carlo(g, samples, seed=0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= (cpus + 1) * arrangements._SWEEP_BYTES + 8 * samples

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

    @pytest.mark.parametrize("expectation,side", [
        (Fraction(2, 3), "upper"), (Fraction(4, 3), "lower"),
    ])
    def test_deviation_below_one_on_its_own_side(self, expectation, side):
        # |dev| = 1/3 on the side the bound is taken: Var/(Var + dev^2), not
        # the vacuous 1 of the wrong side
        assert chebyshev_pvalue_bound(1, expectation, Fraction(2, 9), side) == Fraction(2, 3)

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
        uncapped = _count_positions(g, pos)
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap or arrangements._SWEEP_BYTES), \
                mock.patch("numpy.empty", _dirty_empty):
            got = _count_positions(g, pos)
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


_SMALL_ER = erdos_renyi(10, 0.4, seed=3)
_GNM64 = Graph(64, random.Random(0).sample(list(combinations(range(64), 2)), 128))


class TestWorkers:
    """Chunks are counted on one worker per CPU, and the workers draw their
    chunks in turn, in chunk order, so no result depends on the CPU count."""

    @pytest.mark.parametrize("g,samples,cap", [
        # 301 one-row chunks; 28 chunks of 11 rows, the last of 4; 11 chunks
        # of 728 rows, the last of 720
        (_SMALL_ER, 301, 1),
        (_SMALL_ER, 301, 5000),
        (_GNM64, 8000, None),
    ], ids=["er10-cap1", "er10-cap5000", "gnm64"])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_monte_carlo_is_bit_identical_on_any_cpu_count(self, g, samples, cap, seed):
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap or arrangements._SWEEP_BYTES):
            # chunk counts that 3 workers do not divide; 301 and 11 are odd too
            assert -(-samples // arrangements._chunk_rows(g)) % 3
            with _on_cpus(1):
                values = _draws(g, samples, seed).tolist()
                result = monte_carlo(g, samples, seed=seed)
            # 3 workers on fewer cores, switching threads every 10 µs: a row
            # counted twice, lost or written into another's slice shows
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for cpus in (2, 3):
                    with _on_cpus(cpus):
                        assert _draws(g, samples, seed).tolist() == values
                        assert monte_carlo(g, samples, seed=seed) == result
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cap", [1, 5000])
    def test_exhaustive_is_bit_identical_on_any_cpu_count(self, cap):
        # 5040 one-row chunks, or 360 chunks of 14 rows
        g = Graph(7, random.Random(5).sample(list(combinations(range(7), 2)), 11))
        with mock.patch.object(arrangements, "_SWEEP_BYTES", cap):
            with _on_cpus(1):
                expected = exhaustive_distribution(g)
            for cpus in (2, 3):
                with _on_cpus(cpus):
                    assert exhaustive_distribution(g) == expected

    def test_one_cpu_or_one_chunk_starts_no_thread(self):
        no_thread = mock.patch.object(
            threading, "Thread", side_effect=AssertionError("started a thread")
        )
        with no_thread, _on_cpus(1):
            assert monte_carlo(_GNM64, 8000, seed=0).samples == 8000
        with no_thread, _on_cpus(2):
            monte_carlo(_GNM64, arrangements._chunk_rows(_GNM64), seed=0)
            count_crossings(_GNM64, list(range(64)))
            exhaustive_distribution(cycle(6))

    @pytest.mark.parametrize("cpus,samples,workers", [(3, 8000, 3), (3, 1000, 2), (2, 8000, 2)])
    def test_one_worker_per_cpu_up_to_one_per_chunk(self, cpus, samples, workers):
        started = []
        thread = threading.Thread

        def spy(*args, **kwargs):
            started.append(thread(*args, **kwargs))
            return started[-1]

        with mock.patch.object(threading, "Thread", side_effect=spy), _on_cpus(cpus):
            monte_carlo(_GNM64, samples, seed=0)
        assert len(started) == workers
        assert not any(t.is_alive() for t in started)

    @pytest.mark.parametrize("count,workers", [(None, 0), (1, 0), (3, 3)])
    def test_without_affinity_masks_the_cpu_count_sets_the_workers(
        self, monkeypatch, count, workers
    ):
        with _on_cpus(1):
            expected = monte_carlo(_GNM64, 8000, seed=3)
        # a platform with no affinity masks; no count, or one, is one CPU,
        # counted on the calling thread
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        cpu_count = mock.Mock(return_value=count)
        monkeypatch.setattr(os, "cpu_count", cpu_count)
        started = []
        thread = threading.Thread

        def spy(*args, **kwargs):
            started.append(thread(*args, **kwargs))
            return started[-1]

        with mock.patch.object(threading, "Thread", side_effect=spy):
            assert monte_carlo(_GNM64, 8000, seed=3) == expected
        cpu_count.assert_called_once_with()
        assert len(started) == workers

    def test_every_worker_starts_before_any_takes_a_chunk(self):
        # each start is 50 ms slow, time enough for a worker already running
        # to count both chunks and be handed the other worker's loop
        start = threading.Thread.start
        started = []

        def slow(thread):
            started.append(thread)
            start(thread)
            time.sleep(0.05)

        with mock.patch.object(threading.Thread, "start", slow), _on_cpus(2):
            monte_carlo(_GNM64, 1000, seed=0)
        assert len(started) == 2

    @pytest.mark.parametrize("fails", ["second", "last"])
    def test_a_worker_error_is_raised_by_the_call(self, fails):
        # a worker's second chunk, or the last chunk of the call: the only one
        # of 720 rows, where the others have 728
        counter = arrangements._crossing_counter

        def failing_counter(g, rows):
            count = counter(g, rows)
            calls = []

            def fail(pos, out):
                calls.append(len(pos))
                if (len(calls) == 2) if fails == "second" else (len(pos) == 720):
                    raise ZeroDivisionError(f"{fails} chunk")
                count(pos, out)

            return fail

        before = threading.active_count()
        with mock.patch.object(arrangements, "_crossing_counter", failing_counter), \
                _on_cpus(2):
            with pytest.raises(ZeroDivisionError, match=f"{fails} chunk"):
                monte_carlo(_GNM64, 8000, seed=0)
        assert threading.active_count() == before

    def test_a_fill_error_stops_the_workers(self):
        chunks = []

        def fill(rows):
            chunks.append(len(rows))
            if len(chunks) == 4:
                raise KeyError("chunk four")
            rows[...] = np.arange(_GNM64.n)

        before = threading.active_count()
        with _on_cpus(2), pytest.raises(KeyError, match="chunk four"):
            arrangements._count_rows(_GNM64, 8000, fill)
        assert len(chunks) == 4
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_fill_takes_each_chunk_once_in_order_on_one_thread_at_a_time(self, cpus):
        # 28 chunks of 11 rows, the last of 4; chunk k must get rows 11k on
        # of the table, so a chunk filled out of turn counts the wrong rows
        g, total = _SMALL_ER, 301
        pos = np.random.default_rng(5).permuted(
            np.tile(np.arange(g.n, dtype=np.int64), (total, 1)), axis=1
        )
        expected = [count_crossings_brute(g, np.argsort(row).tolist()) for row in pos]
        inside = threading.Lock()
        sizes = []

        def fill(rows):
            if not inside.acquire(blocking=False):
                raise AssertionError("fill entered by two threads at once")
            try:
                start = sum(sizes)
                sizes.append(len(rows))
                time.sleep(1e-4)  # a second fill would enter here
                rows[...] = pos[start:start + len(rows)]
            finally:
                inside.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(arrangements, "_SWEEP_BYTES", 5000), _on_cpus(cpus):
                got = arrangements._count_rows(g, total, fill)
        finally:
            sys.setswitchinterval(interval)
        assert sizes == [11] * 27 + [4]
        assert got.tolist() == expected

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    @pytest.mark.parametrize("where", ["fill", "count"])
    def test_an_interrupt_or_out_of_memory_is_raised_as_its_class(self, cpus, error, where):
        # the third fill, or the third count, of 11 chunks; counts run at
        # once, so they are numbered by one atomic counter
        fills = []
        counts = itertools.count(1)
        counter = arrangements._crossing_counter

        def fill(rows):
            fills.append(len(rows))
            if where == "fill" and len(fills) == 3:
                raise error("third fill")
            rows[...] = np.arange(_GNM64.n)

        def failing_counter(g, rows):
            count = counter(g, rows)

            def fail(pos, out):
                if where == "count" and next(counts) == 3:
                    raise error("third count")
                count(pos, out)

            return fail

        before = threading.active_count()
        with mock.patch.object(arrangements, "_crossing_counter", failing_counter), \
                _on_cpus(cpus), pytest.raises(error, match=f"third {where}"):
            arrangements._count_rows(_GNM64, 8000, fill)
        assert threading.active_count() == before
        if where == "fill":
            # no turn follows the fill that raised
            assert len(fills) == 3
        else:
            # the failing worker stops the others, not the end of the chunks
            assert len(fills) < 11

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_no_turn_follows_a_fill_that_raised(self, cpus):
        # the turn passes on 10 ms before the error of the fill leaves the
        # turn, so a failure marked only where the error is caught would let
        # the next worker fill again
        class SlowTurn:
            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                self.lock.acquire()

            def __exit__(self, kind, value, traceback):
                self.lock.release()
                if kind is not None:
                    time.sleep(0.01)

        fills = []

        def fill(rows):
            fills.append(len(rows))
            if len(fills) == 3:
                raise KeyError("third fill")
            rows[...] = np.arange(_GNM64.n)

        slow = types.SimpleNamespace(Lock=SlowTurn, Thread=threading.Thread)
        with mock.patch.object(arrangements, "threading", slow), _on_cpus(cpus), \
                pytest.raises(KeyError, match="third fill"):
            arrangements._count_rows(_GNM64, 8000, fill)
        assert len(fills) == 3

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer")
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_an_interrupt_of_the_caller_stops_the_workers(self, cpus):
        # a Ctrl-C 5 ms into a call of 11 fills of 5 ms each
        fills = []

        def fill(rows):
            fills.append(len(rows))
            time.sleep(0.005)
            rows[...] = np.arange(_GNM64.n)

        def interrupt(signum, frame):
            raise KeyboardInterrupt("interrupted")

        before = threading.active_count()
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with _on_cpus(cpus), pytest.raises(KeyboardInterrupt):
                try:
                    signal.setitimer(signal.ITIMER_REAL, 0.005)
                    arrangements._count_rows(_GNM64, 8000, fill)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert len(fills) < 11
        assert threading.active_count() == before

    def test_a_thread_that_cannot_start_stops_the_others(self):
        # a thread limit refuses the second of three workers after the first
        # has started on 11 fills of 5 ms each
        start = threading.Thread.start
        started = []

        def limited(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        fills = []

        def fill(rows):
            fills.append(len(rows))
            time.sleep(0.005)
            rows[...] = np.arange(_GNM64.n)

        before = threading.active_count()
        with mock.patch.object(threading.Thread, "start", limited), _on_cpus(3), \
                pytest.raises(RuntimeError, match="can't start new thread"):
            arrangements._count_rows(_GNM64, 8000, fill)
        assert threading.active_count() == before
        assert len(fills) < 11

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity masks")
    def test_the_callers_affinity_is_left_as_it_was(self):
        # each worker keeps to one CPU; the calling thread keeps its mask
        mask = os.sched_getaffinity(0)
        monte_carlo(_GNM64, 8000, seed=0)
        assert os.sched_getaffinity(0) == mask
