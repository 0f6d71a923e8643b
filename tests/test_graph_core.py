"""The array core of Graph, the whole-text parser and the input budget."""

import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from crossvar import cli, graph
from crossvar.arrangements import parse_arrangement
from crossvar.errors import CrossvarError, EdgeListParseError, ValidationError
from crossvar.frequencies import load_layout_table
from crossvar.generators import path, random_forest, random_tree, star
from crossvar.graph import MAX_VERTICES, Graph, degree_aggregates, parse_edge_list
from crossvar.variance import compute_variance, variance_forest


def edge_lists(max_n=9):
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                     .filter(lambda e: e[0] != e[1]), max_size=3 * n),
        )
    )


class TestArrays:
    @given(edge_lists())
    def test_arrays_match_views(self, data):
        n, edges = data
        g = Graph(n, edges)
        for a in (g.edge_u, g.edge_v, g.indptr, g.indices, g.degree_array):
            assert a.dtype == np.int64 and not a.flags.writeable
        expected = sorted({(min(u, v), max(u, v)) for u, v in edges})
        assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == expected
        assert list(g.edges()) == expected
        rows = [tuple(g.indices[g.indptr[s]:g.indptr[s + 1]].tolist()) for s in range(n)]
        assert g.adjacency == tuple(rows)
        assert g.degrees == tuple(len(r) for r in rows) == tuple(g.degree_array.tolist())
        assert g.m == len(expected)

    def test_views_hold_python_ints(self):
        g = Graph(5, [(4, 0), (1, 3)])
        assert all(type(x) is int for row in g.adjacency for x in row)
        assert all(type(x) is int for x in g.degrees)
        assert all(type(x) is int for e in g.edges() for x in e)
        assert isinstance(g.adjacency, tuple) and isinstance(g.adjacency[0], tuple)

    def test_equality_and_hash(self):
        a = Graph(4, [(0, 1), (2, 3)])
        b = Graph(4, [(3, 2), (1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        # the hash reads the edge arrays and builds no Python view
        assert a._adjacency is None and b._adjacency is None
        assert a != Graph(5, [(0, 1), (2, 3)])
        assert a != Graph(4, [(0, 1), (1, 3)])

    @pytest.mark.parametrize("edges", [
        [(0.5, 1)], [(0, 1.9)], [("1", "2")], np.array([[0.0, 1.0]]),
    ], ids=["float-first-end", "float-second-end", "strings", "float-array"])
    def test_non_integer_ids_are_refused(self, edges):
        with pytest.raises(ValidationError, match="integer vertex ids"):
            Graph(3, edges)

    @pytest.mark.parametrize("n, edges, message", [
        (-1, [], "vertex count must be non-negative"),
        (3, [(0, 1, 2)], "every edge must be a pair of vertices"),
        (3, [(0, 2**70)], "vertex id out of range"),
    ], ids=["negative-n", "three-ids", "id-past-int64"])
    def test_bad_counts_and_edges_are_refused(self, n, edges, message):
        with pytest.raises(ValidationError, match=message):
            Graph(n, edges)

    @pytest.mark.parametrize("big", [2**63, 2**64 - 1])
    def test_unsigned_ids_past_int64_are_refused(self, big):
        # cast to int64, they would wrap to negative ids the edges do not hold
        with pytest.raises(ValidationError, match="^vertex id out of range$"):
            Graph(2, np.array([[0, big]], dtype=np.uint64))
        assert Graph(2, np.array([[0, 1]], dtype=np.uint64)) == Graph(2, [(0, 1)])

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(ValidationError, match=r"edge \(0, 7\) out of range"):
            Graph(3, [(0, 1), (0, 7), (2, 2)])
        with pytest.raises(ValidationError, match="self-loop at vertex 2"):
            Graph(3, [(0, 1), (2, 2), (0, 7)])
        with pytest.raises(ValidationError):
            Graph(3, [(0, -1)])

    def test_from_edges_accepts_arrays_and_iterators(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert Graph.from_edges(np.array([[0, 1], [1, 2]])) == g
        assert Graph(3, iter([(0, 1), (1, 2)])) == g
        assert Graph.from_edges([]) == Graph(0, [])


def _rows_by_sorting(n, edges):
    """``(indptr, indices)`` from a sort of both orientations of every edge."""
    arcs = sorted({(u, v) for e in edges for u, v in (e, e[::-1])})
    indptr = np.searchsorted([u for u, _ in arcs], np.arange(n + 1))
    return indptr.tolist(), [v for _, v in arcs]


class TestLazyAdjacency:
    @given(edge_lists())
    def test_rows_match_a_sort(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert g._rows is None
        assert (g.indptr.tolist(), g.indices.tolist()) == _rows_by_sorting(n, edges)

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (6, [(4, 1)]), (7, [(5, 2), (2, 0)])])
    def test_empty_graph_and_isolated_vertices(self, n, edges):
        g = Graph(n, edges)
        assert (g.indptr.tolist(), g.indices.tolist()) == _rows_by_sorting(n, edges)
        assert g.indptr.dtype == g.indices.dtype == np.int64

    def test_rows_are_read_only_and_built_once(self):
        g = Graph(4, [(0, 1), (1, 2), (3, 1)])
        indptr, indices = g.indptr, g.indices
        for a in (indptr, indices):
            with pytest.raises(ValueError):
                a[0] = 1
        assert g.indptr is indptr and g.indices is indices

    def test_edges_leave_the_vertex_ids_unbuilt(self):
        # a matching of 200 edges among 10^5 vertices: an object array of
        # every vertex would outweigh the edges many times over
        g = Graph(10 ** 5, [(2 * i, 2 * i + 1) for i in range(200)])
        edges = list(g.edges())
        assert edges == [(2 * i, 2 * i + 1) for i in range(200)]
        assert all(type(x) is int for edge in edges for x in edge)
        assert g._vertex_ids is None
        assert g.adjacency[1] == (0,) and g._vertex_ids is not None

    @pytest.mark.parametrize("make", [
        lambda: random_tree(2000, seed=1), lambda: random_forest(500, seed=2),
    ])
    def test_forest_route_leaves_rows_unbuilt(self, make):
        g = make()
        variance_forest(g)
        assert compute_variance(g).algorithm == "forest"
        assert g._rows is None


def _acyclic_by_union_find(n, edges):
    """Whether the graph has no cycle, and its number of components."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    acyclic, components = True, n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            acyclic = False
        else:
            parent[ru] = rv
            components -= 1
    return acyclic, components


@st.composite
def several_components(draw):
    """Random graphs on disjoint blocks of vertices, some of them single
    isolated vertices, with the labels shuffled across the blocks."""
    n, edges = 0, []
    for size in draw(st.lists(st.integers(1, 8), min_size=1, max_size=6)):
        if size > 1:
            # an end a and a distance d to the other end, taken around the block
            pair = st.tuples(st.integers(0, size - 1), st.integers(1, size - 1))
            edges += [(n + a, n + (a + d) % size)
                      for a, d in draw(st.lists(pair, max_size=2 * size))]
        n += size
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in edges]


class TestForest:
    @given(edge_lists(max_n=12))
    def test_matches_union_find(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert g.is_forest() is _acyclic_by_union_find(n, list(g.edges()))[0]

    @given(several_components())
    def test_components_match_union_find(self, data):
        n, edges = data
        g = Graph(n, edges)
        acyclic, components = _acyclic_by_union_find(n, list(g.edges()))
        assert graph._components(g) == components
        assert g.is_forest() is acyclic

    @pytest.mark.parametrize("make", [
        lambda: star(500),
        # the hub carries the largest label, so every hook races onto it
        lambda: Graph(500, [(i, 499) for i in range(499)]),
        lambda: path(2000),
        lambda: random_tree(3000, seed=3),
        lambda: random_forest(3000, seed=4),
    ])
    def test_trees_and_forests(self, make):
        assert make().is_forest() is True

    def test_relabelled_path_with_one_chord(self):
        perm = np.random.default_rng(0).permutation(1000).tolist()
        edges = [(perm[i], perm[i + 1]) for i in range(999)]
        assert Graph(1000, edges).is_forest() is True
        assert Graph(1000, edges + [(perm[0], perm[999])]).is_forest() is False

    def test_empty_graphs(self):
        assert Graph(0, []).is_forest() is True
        assert Graph(3, []).is_forest() is True

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1), (1, 2), (0, 2)]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
    ])
    def test_m_at_least_n_is_no_forest_without_hooking(self, n, edges):
        with mock.patch.object(graph, "_components", side_effect=AssertionError):
            assert Graph(n, edges).is_forest() is False

    def test_fewer_edges_than_vertices_still_hooks(self):
        # a triangle and an isolated vertex: m = 3 < n = 4, and still a cycle
        g = Graph(4, [(0, 1), (1, 2), (0, 2)])
        with mock.patch.object(graph, "_components", wraps=graph._components) as hook:
            assert g.is_forest() is False
        assert hook.call_count == 1
        with mock.patch.object(graph, "_components", wraps=graph._components) as hook:
            assert Graph(0, []).is_forest() is True
        assert hook.call_count == 1


def _aggregates_by_definition(g):
    k = g.degrees
    xi = [sum(k[t] for t in g.adjacency[s]) for s in range(g.n)]
    return dict(
        mmt2=sum(d ** 2 for d in k), mmt3=sum(d ** 3 for d in k),
        mmt4=sum(d ** 4 for d in k), xi2=sum(x * x for x in xi),
        k2xi=sum(d * d * x for d, x in zip(k, xi)),
        psi=sum(k[u] * k[v] for u, v in g.edges()),
        q=(g.m * (g.m + 1) - sum(d ** 2 for d in k)) // 2,
    )


class TestAggregatesBeyondInt64:
    def test_star_past_int64(self):
        g = star(70_001)
        assert max(g.degrees) ** 4 > 2 ** 63
        agg = degree_aggregates(g)
        assert vars(agg) == _aggregates_by_definition(g)
        assert all(type(v) is int for v in vars(agg).values())

    def test_star_with_a_pendant_path(self):
        g = Graph(70_003, [(0, i) for i in range(1, 70_001)] + [(1, 70_001), (70_001, 70_002)])
        assert vars(degree_aggregates(g)) == _aggregates_by_definition(g)

    @given(edge_lists())
    def test_small_graphs(self, data):
        g = Graph(*data)
        assert vars(degree_aggregates(g)) == _aggregates_by_definition(g)


def _hub(d, n, matching=0):
    """A hub of degree ``d`` with its leaves, then ``matching`` disjoint
    edges, padded with isolated vertices to ``n``."""
    pairs = [(d + 1 + 2 * i, d + 2 + 2 * i) for i in range(matching)]
    return Graph(n, [(0, i) for i in range(1, d + 1)] + pairs)


def _sums_by_definition(k, xi):
    return [sum(x * x for x in xi), sum(d * d * x for d, x in zip(k, xi)),
            sum(d * x for d, x in zip(k, xi))]


class TestDegreeSumGuards:
    """``degree_aggregates`` takes its three products in one int64 block
    while ``m * kmax**3 < 2^62``; past that, ``_block_sums`` sums Python
    ints for a vertex with ``xi`` or ``k**2`` at 2^31 or more and int64
    blocks for every other vertex."""

    @staticmethod
    def _aggregates(g):
        expected = _aggregates_by_definition(g)
        with mock.patch.object(graph, "_block_sums", wraps=graph._block_sums) as blocked:
            agg = degree_aggregates(g)
        assert vars(agg) == expected
        return blocked.called

    def test_one_block_guard_at_its_edge(self):
        # a hub of degree d and m - d disjoint edges: kmax = d, and the
        # smallest m with m * d^3 >= 2^62 is the edge
        d = 40_000
        edge = -(-2**62 // d**3)
        assert self._aggregates(_hub(d, 2 * edge, edge - 1 - d)) is False
        assert self._aggregates(_hub(d, 2 * edge, edge - d)) is True

    def test_past_the_old_line_in_one_block(self):
        # n * kmax^4 = 6.25e18 >= 2^62 took the first int64 sums to Python
        # ints for every vertex; m * kmax^3 is 6.25e14
        g = _hub(5_000, 10_000)
        assert g.n * max(g.degrees) ** 4 >= 2**62
        assert self._aggregates(g) is False

    @pytest.mark.parametrize("d, blocked", [(46_340, False), (46_341, True)])
    def test_lone_hub_at_the_python_int_line(self, d, blocked):
        # a lone hub has m * kmax^3 = d^4, past 2^62 exactly when d^2 >= 2^31,
        # the line past which _block_sums sums its terms as Python ints
        assert self._aggregates(_hub(d, d + 1)) is blocked

    @pytest.mark.parametrize("k, xi", [
        # xi just below and at 2^31, and one vertex whose k^2 xi passes int64
        ([1, 1, 1, 1], [2**31 - 1] * 4),
        ([1, 1, 2], [2**31 - 1, 2**31, 3]),
        ([46_340, 46_341, 1], [2**31 - 1, 2**31 - 1, 2**31 - 1]),
        ([2**25, 1, 3], [2**36, 2**25, 2**30]),
    ])
    def test_block_sums_on_both_sides_of_each_bound(self, k, xi):
        got = graph._block_sums(np.array(k, dtype=np.int64), np.array(xi, dtype=np.int64))
        assert got == _sums_by_definition(k, xi)
        assert all(type(v) is int for v in got)


def _outcome(text):
    """What parsing ``text`` gives: the graph and warnings, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = parse_edge_list(text)
        except CrossvarError as exc:
            return ("error", type(exc), getattr(exc, "line_number", None), str(exc))
    return ("graph", g.n, g.adjacency, [str(w.message) for w in caught])


def _outcome_line_by_line(text):
    with mock.patch.object(graph, "_scan_whole", lambda text: None):
        return _outcome(text)


_vertex = st.integers(0, 11)
_blank = st.sampled_from(["", " ", "\t", " \t "])
_edge_line = st.builds(
    lambda u, v, sep, pre, post: f"{pre}{u}{sep}{v}{post}",
    _vertex, _vertex, st.sampled_from([" ", "\t", "  ", " \t"]), _blank, _blank,
).filter(lambda line: len(set(line.split())) == 2)
_comment_line = st.builds(
    lambda pre, body: f"{pre}#{body}", _blank,
    st.sampled_from(["", " c", "# 0 1", " n=3", " x y z", " \u00e9", "\t1 2 3"]),
)
# an edge line, then a comment from a '#' anywhere after it
_commented_edge_line = st.builds(lambda line, comment: line + comment, _edge_line, _comment_line)
_good_line = st.one_of(_edge_line, _edge_line, _comment_line, _blank, _commented_edge_line)
_bad_line = st.sampled_from([
    "5", "1 2 3", "a b", "1 x", "-1 2", "3 -4", "3 3", " 7\t7 ", "n=4", "1 2 3 # c",
    "+1 2", "0x1 2", "1.0 2", "1_0 2", "99999999999999999999 1",
])
_header = st.one_of(
    st.none(), st.integers(0, 14).map(lambda k: f"n={k}"),
    st.sampled_from(["n= 9", " n=12\t", "n=-1", "n=x", "n=3 4"]),
)


@st.composite
def edge_list_texts(draw, malformed):
    lines = draw(st.lists(_good_line, max_size=12))
    # two bad lines can hold an even number of tokens between them
    for _ in range(draw(st.integers(1, 2)) if malformed else 0):
        lines.insert(draw(st.integers(0, len(lines))), draw(_bad_line))
    header = draw(_header)
    if header is not None:
        lines.insert(draw(st.integers(0, 2 if malformed else 0)), header)
    # the header must be the first line that is not blank or a comment
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline
    return text


def _ids_of_digits(d):
    return st.integers(10 ** (d - 1) if d > 1 else 0, 10 ** d - 1)


# every digit count the whole-text scan decodes, and the ids at the budget
_long_id = st.one_of(
    st.integers(1, 8).flatmap(_ids_of_digits),
    st.sampled_from([0, 9, 10, 99_999_999, MAX_VERTICES - 1, MAX_VERTICES]),
)
# small ids written with up to ten leading zeros, so some have 9+ digits
_zero_padded_id = st.builds(lambda v, zeros: "0" * zeros + str(v), _vertex, st.integers(0, 10))
_pair_gap = st.text(" \t", min_size=1, max_size=4)
_line_gap = st.builds(
    lambda pre, brk, post: pre + brk + post, st.text(" \t", max_size=3),
    st.sampled_from(["\n", "\r\n", "\r\n\r\n", "\n \t\n", "\r\n\t \r\n"]),
    st.text(" \t", max_size=3),
)


@st.composite
def zero_padded_texts(draw):
    """Pairs of zero-padded ids between gaps of mixed blanks and line breaks;
    with no prefix, the first token starts at byte 0."""
    text = draw(st.sampled_from(["", " ", "\t\r\n", "n=12\r\n"]))
    pairs = st.tuples(_zero_padded_id, _zero_padded_id).filter(lambda e: int(e[0]) != int(e[1]))
    for u, v in draw(st.lists(pairs, max_size=8)):
        text += u + draw(_pair_gap) + v + draw(_line_gap)
    return text


@pytest.mark.parametrize("text, n, adjacency", [
    ("0 1 # c", 2, ((1,), (0,))),
    ("n=4 # four\n0 1\n", 4, ((1,), (0,), (), ())),
    ("n=4# four\r\n0 1# c\r\n\t2\t3 #\r\n# 5 6\n", 4, ((1,), (0,), (3,), (2,))),
])
def test_a_hash_anywhere_starts_a_comment(text, n, adjacency):
    assert graph._scan_whole(text) is not None
    assert _outcome(text) == ("graph", n, adjacency, [])
    assert _outcome_line_by_line(text) == ("graph", n, adjacency, [])


class TestWholeTextScan:
    @given(edge_list_texts(malformed=False))
    def test_well_formed_text(self, text):
        assert _outcome(text) == _outcome_line_by_line(text)

    @given(edge_list_texts(malformed=True))
    def test_malformed_text(self, text):
        assert _outcome(text) == _outcome_line_by_line(text)

    @given(st.lists(_edge_line | _comment_line | _blank, max_size=12),
           st.sampled_from(["\n", "\r\n"]), st.integers(0, 14))
    def test_plain_text_takes_the_whole_text_scan(self, lines, newline, n):
        text = newline.join([f"n={n}", *lines])
        ids = [int(tok) for line in lines if not line.strip().startswith("#")
               for tok in line.split()]
        if max(ids, default=-1) < n:
            assert graph._scan_whole(text) is not None

    def test_repeated_and_reversed_edges_warn_once(self):
        text = "n=4\r\n# c\r\n0 1\r\n1\t0\r\n\r\n2 3\r\n0 1"
        assert graph._scan_whole(text) is not None
        outcome = _outcome(text)
        assert outcome == ("graph", 4, ((1,), (0,), (3,), (2,)), ["collapsed 2 duplicate edge(s)"])
        assert outcome == _outcome_line_by_line(text)

    @pytest.mark.parametrize("text", [
        "0 1\x0b2 3\n", "# c\x0c0 1\n", "0 1\x852 3\n", "# c\u20280 1\n", "# c\u20290 1\n",
        "0 1\r2 3", "# c\x1d0 1\n", "# c\x1e0 1\n",
    ])
    def test_other_line_breaks(self, text):
        assert _outcome(text) == _outcome_line_by_line(text)

    @pytest.mark.parametrize("text, taken", [
        ("\n \t\n# c\nn=3\n0 1\n", True),
        (" \r\n# n=5\r\n\t n=3\t\r\n0 1", True),
        ("n=3", True),
        ("# c\n\nn=3 ", True),
        ("n=3 0 1\n", False),
        ("n=3 0 1", False),
        ("0 1\nn=3\n", False),
        ("0 1\n\n# c\nn=3", False),
    ], ids=["blank-and-comment-lines", "crlf-and-comment", "end", "end-after-comment",
            "edge-on-its-line", "edge-on-its-line-at-end", "after-an-edge",
            "after-an-edge-at-end"])
    def test_directive(self, text, taken):
        assert _outcome(text) == _outcome_line_by_line(text)
        assert (graph._scan_whole(text) is not None) is taken

    @pytest.mark.parametrize("text", ["0\n1\n", "0 1 2\n3\n", "0\n1 2 3\n", "0 \n 1\n"])
    def test_pair_split_across_lines(self, text):
        outcome = _outcome(text)
        assert outcome[0] == "error" and outcome == _outcome_line_by_line(text)

    @given(st.lists(st.tuples(_long_id, _long_id).filter(lambda e: e[0] != e[1]),
                    min_size=1, max_size=8), st.sampled_from(["\n", "\r\n"]))
    def test_ids_of_one_to_eight_digits(self, edges, newline):
        # the line-by-line reading's pairs, before a Graph of up to 2^25
        # vertices would be built from them
        text = newline.join(f"{u} {v}" for u, v in edges)
        whole = graph._scan_whole(text)
        if max(map(max, edges)) >= MAX_VERTICES:
            assert whole is None
            with pytest.raises(ValidationError, match="exceeds the budget"):
                graph._scan_lines(text)
        else:
            pairs, forced_n = graph._scan_lines(text)
            assert whole is not None and whole[1] is forced_n is None
            assert whole[0].tolist() == pairs.tolist() == [list(e) for e in edges]

    @given(zero_padded_texts())
    def test_leading_zeros_and_wide_gaps(self, text):
        assert _outcome(text) == _outcome_line_by_line(text)
        # tokens of 9 or more digits are left to the line-by-line reading
        decoded = all(len(token) <= 8 for token in text.replace("n=12", "").split())
        assert (graph._scan_whole(text) is not None) is decoded

    @pytest.mark.parametrize("text", [
        "1 2", "7 3\n", "0000001 2\n", "00000001 2\n", "000000001 2\n",
        "5 0000003\n3 5", "12345 7", "n=4\n0 1", "n=3\n2 1\n",
    ])
    def test_tokens_near_the_start(self, text):
        assert _outcome(text) == _outcome_line_by_line(text)
        assert (graph._scan_whole(text) is None) is ("000000001" in text)

    @given(st.one_of(edge_list_texts(malformed=False), edge_list_texts(malformed=True),
                     zero_padded_texts()), st.integers(1, 12))
    def test_blocks_of_any_size(self, text, block):
        with mock.patch.object(graph, "_BLOCK", block):
            assert _outcome(text) == _outcome_line_by_line(text)

    @pytest.mark.parametrize("text, line", [
        ("1_0 2\n", 1), ("+1 2\n", 1), ("\u0661 \u0662\n", 1), ("n=1_2\n0 1\n", 1),
        ("n=+4\n0 1\n", 1), ("0 1\n2 1_0\n", 2), (f"0 {'0' * 9}1{'0' * 640}\n", 1),
    ], ids=["underscore", "plus", "arabic-indic", "n-underscore", "n-plus", "line-2",
            "641-digits"])
    def test_ids_are_ascii_decimal_digits(self, tmp_path, capsys, text, line):
        # int() takes every one of these tokens; the last has 641 significant digits
        with pytest.raises(EdgeListParseError) as info:
            parse_edge_list(text)
        assert info.value.line_number == line
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["stats", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_written_tree_parses_back(self):
        g = random_tree(100_000, seed=11)
        edges = list(g.edges())
        text = f"n={g.n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        assert graph._scan_whole(text) is not None
        assert parse_edge_list(text) == g
        # reversed and shuffled, with no directive and CRLF line breaks
        perm = np.random.default_rng(0).permutation(len(edges))
        text = "".join(f"{edges[i][1]}\t{edges[i][0]}\r\n" for i in perm)
        assert graph._scan_whole(text) is not None
        assert parse_edge_list(text) == g


# what each line reader takes as a good line, and a line with a bad token
_READERS = {
    "edge list": (parse_edge_list, "0 1", "0 x"),
    "arrangement": (lambda text: parse_arrangement(text, Graph(2, [])), "0 1", "0 x"),
    "layout table": (load_layout_table, "delta = 1/3", "delta = x"),
}


@pytest.mark.parametrize("reader", list(_READERS))
@pytest.mark.parametrize("template, line", [
    ("{good}\r\n{bad}\r\n", 2),
    ("{good}\r{bad}\r", 2),
    ("{good}\x0b\x0b{bad}", 3),
    ("# c\x0c{good}\x0c{bad}", 3),
    ("{good}\x1c \t\x1c{bad}", 3),
    ("{good}\x85# c\x85{bad}", 3),
    ("{good}\u2028{bad}\u2028{good}", 2),
    ("{good} # c # {bad}\n{bad}", 2),
    ("\n \t\n{good}\n\t \n\r\n{bad}\n", 6),
], ids=["crlf", "cr", "vt", "ff", "fs", "nel", "ls", "comment", "blank"])
def test_every_reader_takes_one_line_rule(reader, template, line):
    read, good, bad = _READERS[reader]
    with pytest.raises(CrossvarError, match=rf"\bline {line}\b"):
        read(template.format(good=good, bad=bad))


class TestBudget:
    def test_scan_boundaries(self):
        pairs, _ = graph._scan_whole(f"0 {MAX_VERTICES - 1}\n")
        assert pairs.tolist() == [[0, MAX_VERTICES - 1]]
        assert graph._scan_whole(f"0 {MAX_VERTICES}\n") is None
        assert graph._scan_whole(f"n={MAX_VERTICES + 1}\n") is None
        with pytest.raises(ValidationError, match="line 2"):
            graph._scan_lines(f"0 1\n0 {MAX_VERTICES}\n")
        with pytest.raises(ValidationError, match="line 1"):
            graph._scan_lines(f"n={MAX_VERTICES + 1}\n")

    @pytest.mark.parametrize("text", ["n=3\n0 1\n2 5\n", "n=3\n0 1\x852 5\n"])
    def test_n_below_the_largest_id_is_named_in_full(self, text):
        # through the whole-text scan, and through the line reader (\x85)
        with pytest.raises(ValidationError, match=r"^n=3 smaller than largest vertex id 5$"):
            parse_edge_list(text)

    def test_graph_refuses_oversized_n(self):
        with pytest.raises(ValidationError):
            Graph(10 ** 12, [])

    @pytest.mark.parametrize("text", [
        "n=1000000000000\n0 1\n",
        "0 1\n1 1000000000000\n",
        # int64 saturates silently at 9223372036854775807
        "0 99999999999999999999\n",
        "n=99999999999999999999\n",
    ])
    def test_cli_refuses_before_allocating(self, tmp_path, capsys, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            rc = cli.main(["variance", str(path), "--json"])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert elapsed < 0.5
        assert peak < 4 * 2 ** 20
        assert "exceeds the budget" in capsys.readouterr().err
