"""Product-type classification and the three frequency routes."""

import json
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crossvar import brute, frequencies
from crossvar.brute import independent_edge_pairs
from crossvar.census import fast_census
from crossvar.cli import main
from crossvar.errors import EdgeListParseError, OracleBudgetError, ValidationError
from crossvar.frequencies import (
    CONTRIBUTING_TYPES,
    EDGE_PAIR_BUDGET,
    ExpectationTable,
    PAIR_BUDGET,
    PATTERN_LIMIT,
    PRODUCT_TYPES,
    ROW_BUDGET,
    builtin_rla_table,
    classify_pair,
    frequencies_brute,
    frequencies_from_census,
    frequencies_from_subgraph_counts,
    load_layout_table,
)
from crossvar.generators import complete, cycle, erdos_renyi, one_regular, path
from crossvar.graph import Graph, compute_q
from crossvar.variance import variance_naive


class TestClassifyPair:
    # hand-built pairs on disjoint vertex pools, one per type
    CASES = [
        ("24", ((0, 1), (2, 3)), ((0, 1), (2, 3))),
        ("13", ((0, 1), (2, 3)), ((0, 1), (3, 4))),
        ("12", ((0, 1), (2, 3)), ((0, 1), (4, 5))),
        ("04", ((0, 1), (2, 3)), ((0, 2), (1, 3))),
        ("03", ((0, 1), (2, 3)), ((0, 2), (3, 4))),
        ("021", ((0, 1), (2, 3)), ((0, 2), (4, 5))),
        ("022", ((0, 1), (2, 3)), ((0, 4), (2, 5))),
        ("01", ((0, 1), (2, 3)), ((0, 4), (5, 6))),
        ("00", ((0, 1), (2, 3)), ((4, 5), (6, 7))),
    ]

    @pytest.mark.parametrize("expected,p1,p2", CASES, ids=[c[0] for c in CASES])
    def test_each_type(self, expected, p1, p2):
        assert classify_pair(p1, p2) == expected
        assert classify_pair(p2, p1) == expected

    def test_rejects_sharing_endpoint(self):
        with pytest.raises(ValidationError):
            classify_pair(((0, 1), (1, 2)), ((3, 4), (5, 6)))


def classify_all_pairs_reference(g):
    """Pure-Python O(q^2) classification, the oracle for the vector path."""
    pairs = independent_edge_pairs(g)
    freq = {code: 0 for code in PRODUCT_TYPES}
    for p1 in pairs:
        for p2 in pairs:
            freq[classify_pair(p1, p2)] += 1
    return freq


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_vectorized_classification_matches_reference(seed):
    g = erdos_renyi(8, 0.45, seed=seed)
    ref = classify_all_pairs_reference(g)
    # the same graph on ids spread over 0..129, most of them untouched:
    # numbered among the touched vertices, they must classify as 0..7 do
    ids = [0, 1, 30, 64, 65, 94, 128, 129]
    spread = Graph(130, [(ids[u], ids[v]) for u, v in g.edges()])
    for h in (g, spread):
        got = frequencies_brute(h)
        for code in CONTRIBUTING_TYPES:
            assert got.counts[code] == ref[code]
        assert got.null_total == ref["00"] + ref["01"]


@pytest.mark.parametrize("g", [
    path(6), cycle(6), complete(5), one_regular(8), erdos_renyi(11, 0.4, seed=2),
], ids=["P6", "C6", "K5", "4xL2", "ER11"])
def test_three_routes_agree(g):
    brute = frequencies_brute(g)
    census = frequencies_from_census(fast_census(g), g.m)
    patterns = frequencies_from_subgraph_counts(g)
    assert brute.counts == census.counts == patterns.counts
    assert brute.total() == census.total() == compute_q(g) ** 2


def test_several_chunks_match_the_census():
    # the classification takes about 16e6 cells a chunk: some 27 chunks here
    g = erdos_renyi(30, 0.5, seed=1)
    q = compute_q(g)
    assert (q - 1) // (16_000_000 // q) >= 20
    assert frequencies_brute(g) == frequencies_from_census(fast_census(g), g.m)


def test_memory_grows_with_the_touched_vertices_not_n(tmp_path, capsys):
    # a 200-edge matching on 400 ids spread over 10^6 vertices
    n = 10**6
    ids = random.Random(1).sample(range(n), 400)
    edges_file = tmp_path / "matching.txt"
    edges_file.write_text(f"n={n}\n" + "".join(f"{u} {v}\n" for u, v in zip(ids[::2], ids[1::2])))
    variances = {}
    for algorithm in ("naive", "reuse"):
        tracemalloc.start()
        try:
            assert main(["variance", str(edges_file), "--algorithm", algorithm, "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        variances[algorithm] = json.loads(capsys.readouterr().out)["variance"]
        # the parse and the graph included
        assert peak < 128 * 2**20, algorithm
    assert variances["naive"] == variances["reuse"]


class TestPairBudget:
    def test_refused_before_any_pair_is_listed(self, sparse_er):
        with mock.patch.object(
            frequencies, "independent_edge_pairs", wraps=independent_edge_pairs
        ) as listed:
            for oracle in (frequencies_brute, variance_naive):
                with pytest.raises(OracleBudgetError, match=rf"q\^2 = \d+ .* {PAIR_BUDGET}"):
                    oracle(sparse_er)
        assert listed.call_count == 0

    @staticmethod
    def _needs(g):
        # ordered Q pairs, edge pairs listed, and bytes of membership rows
        q, m = compute_q(g), g.m
        return q * q, m * (m - 1) // 2, q * sum(1 for d in g.degrees if d)

    def test_contract_and_corpus_fit_the_budget(self, full_corpus):
        # acceptance criterion 7 times variance_naive on G(40, 1/2)
        budgets = (PAIR_BUDGET, EDGE_PAIR_BUDGET, ROW_BUDGET)
        for name, g in [("G(40, 1/2)", erdos_renyi(40, 0.5, seed=1)), *full_corpus]:
            assert all(map(int.__le__, self._needs(g), budgets)), name

    @pytest.mark.parametrize("leaves, edges, message", [
        # q^2 = 8.1e9 fits, but C(m, 2) = 4.05e9 edge pairs would be listed
        (90_000, 1, rf"C\(m, 2\) = 4050045000 edge pairs, .* {EDGE_PAIR_BUDGET} "),
        # q^2 = 8.3e9 and C(m, 2) = 8.5e7 fit, the rows would take 1.18 GB
        (13_000, 7, rf"1184638315 bytes of membership rows, .* {ROW_BUDGET} "),
    ])
    def test_hub_with_disjoint_edges_refused_at_once(self, leaves, edges, message):
        hub = [(0, i) for i in range(1, leaves + 1)]
        rest = [(leaves + 1 + 2 * i, leaves + 2 + 2 * i) for i in range(edges)]
        g = Graph(leaves + 1 + 2 * edges, hub + rest)
        assert compute_q(g) ** 2 <= PAIR_BUDGET
        with mock.patch.object(
            frequencies, "independent_edge_pairs", wraps=independent_edge_pairs
        ) as listed:
            with pytest.raises(OracleBudgetError, match=message):
                frequencies_brute(g)
        assert listed.call_count == 0


def test_pattern_limit_is_checked_before_any_work():
    with mock.patch.object(
        frequencies, "independent_edge_pairs", wraps=independent_edge_pairs
    ) as listed:
        with pytest.raises(OracleBudgetError, match=rf"n <= {PATTERN_LIMIT}"):
            frequencies_from_subgraph_counts(path(PATTERN_LIMIT + 1))
    assert listed.call_count == 0


def test_three_matchings_coefficient():
    g = one_regular(6)
    got = frequencies_brute(g)
    assert got.counts["12"] == 6  # one 3-matching, six ordered type-12 pairs


class TestRlaTable:
    def test_exact_values(self):
        t = builtin_rla_table()
        assert t.delta == Fraction(1, 3)
        assert t.gamma["24"] == Fraction(2, 9)
        assert t.gamma["13"] == Fraction(1, 18)
        assert t.gamma["12"] == Fraction(1, 45)
        assert t.gamma["04"] == Fraction(-1, 9)
        assert t.gamma["03"] == Fraction(-1, 36)
        assert t.gamma["021"] == Fraction(-1, 90)
        assert t.gamma["022"] == Fraction(1, 180)
        assert t.gamma["00"] == 0 and t.gamma["01"] == 0

    def test_derived_by_enumerating_orders(self):
        t = builtin_rla_table()
        for code, pair in brute.RLA_REPRESENTATIVES.items():
            assert classify_pair(brute._RLA_BASE, pair) == code
        delta, gamma = brute.rla_table_brute()
        assert delta == t.delta
        assert gamma == dict(t.gamma)

    def test_gamma_is_probability_minus_delta_squared(self):
        # crossing-product probabilities of the nine types
        p = {
            "00": Fraction(1, 9), "01": Fraction(1, 9), "021": Fraction(1, 10),
            "022": Fraction(7, 60), "03": Fraction(1, 12), "04": Fraction(0),
            "12": Fraction(2, 15), "13": Fraction(1, 6), "24": Fraction(1, 3),
        }
        t = builtin_rla_table()
        for code in PRODUCT_TYPES:
            assert t.gamma[code] == p[code] - Fraction(1, 9)


class TestLayoutTableParser:
    RLA_TEXT = """
# uniform random linear arrangement
delta = 1/3
p_00 = 1/9
p_01 = 1/9
p_021 = 1/10
p_022 = 7/60
p_03 = 1/12
p_04 = 0
p_12 = 2/15
p_13 = 1/6
p_24 = 1/3
"""

    def test_round_trips_builtin(self):
        t = load_layout_table(self.RLA_TEXT)
        assert t.delta == Fraction(1, 3)
        assert t.gamma == builtin_rla_table().gamma

    def test_expectation_lines_accepted(self):
        text = self.RLA_TEXT.replace("p_24 = 1/3", "E_24 = 2/9")
        t = load_layout_table(text)
        assert t.gamma["24"] == Fraction(2, 9)

    def test_missing_type_rejected(self):
        text = "\n".join(
            line for line in self.RLA_TEXT.splitlines() if not line.startswith("p_03")
        )
        with pytest.raises(ValidationError, match="03"):
            load_layout_table(text)

    @pytest.mark.parametrize("old,new,message", [
        ("p_24 = 1/3", "p_24 = 1/2", "p_24 = 1/2 outside [1/3, 1/3]"),
        ("p_24 = 1/3", "p_24 = 1/4", "p_24 = 1/4 outside [1/3, 1/3]"),
        ("p_24 = 1/3", "E_24 = 0", "p_24 = 1/9 outside [1/3, 1/3]"),
        ("p_00 = 1/9", "p_00 = 1/8", "p_00 = 1/8 outside [1/9, 1/9]"),
        ("p_00 = 1/9", "p_00 = 1/10", "p_00 = 1/10 outside [1/9, 1/9]"),
        ("p_01 = 1/9", "E_01 = 1/90", "p_01 = 11/90 outside [1/9, 1/9]"),
    ])
    def test_diagonal_and_null_types_have_one_value(self, old, new, message):
        # an identical pair crosses twice with probability delta, and pairs
        # sharing at most one vertex are independent; all but the first of
        # these lie within the Fréchet bounds [0, 1/3]
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_layout_table(self.RLA_TEXT.replace(old, new))

    @pytest.mark.parametrize("old,new,message", [
        ("p_00 = 1/9", "p_00 1/9", "expected 'key = value', got 'p_00 1/9'"),
        ("p_00 = 1/9", "p_05 = 1/9", "unknown key 'p_05'"),
        ("p_00 = 1/9", "q_00 = 1/9", "unknown key 'q_00'"),
    ])
    def test_malformed_line_names_its_line(self, old, new, message):
        text = self.RLA_TEXT.replace(old, new)
        line = text.splitlines().index(new) + 1
        with pytest.raises(EdgeListParseError, match=re.escape(f"line {line}: {message}")):
            load_layout_table(text)

    def test_missing_delta_rejected(self):
        text = self.RLA_TEXT.replace("delta = 1/3\n", "")
        with pytest.raises(ValidationError, match="^invalid layout table: missing delta$"):
            load_layout_table(text)

    @pytest.mark.parametrize("delta", ["-1/3", "4/3"])
    def test_delta_outside_the_unit_interval_rejected(self, delta):
        text = self.RLA_TEXT.replace("delta = 1/3", f"delta = {delta}")
        with pytest.raises(ValidationError, match=re.escape(f"delta = {delta} outside [0, 1]")):
            load_layout_table(text)

    @pytest.mark.parametrize("line,message", [
        ("p_04 = -1/90", "p_04 = -1/90 outside [0, 1/3]"),
        ("p_04 = 2/5", "p_04 = 2/5 outside [0, 1/3]"),
        ("E_04 = -1/8", "p_04 = -1/72 outside [0, 1/3]"),
    ])
    def test_product_probability_outside_its_frechet_bounds_rejected(self, line, message):
        text = self.RLA_TEXT.replace("p_04 = 0", line)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_layout_table(text)

    def test_lower_frechet_bound_above_zero(self):
        # with delta = 3/4 two crossing events overlap in at least 1/2
        text = (
            "delta = 3/4\np_00 = 9/16\np_01 = 9/16\np_24 = 3/4\n"
            + "".join(f"p_{code} = 1/2\n" for code in ("021", "022", "03", "12", "13"))
        )
        assert load_layout_table(text + "p_04 = 1/2\n").gamma["04"] == Fraction(-1, 16)
        with pytest.raises(ValidationError, match=re.escape("p_04 = 1/4 outside [1/2, 3/4]")):
            load_layout_table(text + "p_04 = 1/4\n")

    def test_builtin_table_meets_both_frechet_ends(self):
        t = builtin_rla_table()
        p = {code: g + t.delta ** 2 for code, g in t.gamma.items()}
        assert p["04"] == 0 and p["24"] == t.delta
        assert all(0 <= x <= t.delta for x in p.values())
        assert load_layout_table(self.RLA_TEXT).gamma == t.gamma

    @pytest.mark.parametrize("value", [
        "1_0/30", "\u0661/\u0663", "0.1111", "1e-1", "+1/9", "--1/9", "1/0", "1/",
        "/9", "1/-9", "1 /9", "1/9/1", "-", "",
    ])
    def test_value_outside_the_grammar_names_its_line(self, value):
        # Fraction takes the first five; the grammar is '-'? digits ('/' digits)?
        text = self.RLA_TEXT.replace("p_00 = 1/9", f"p_00 = {value}")
        line = next(i for i, raw in enumerate(text.splitlines(), 1) if raw.startswith("p_00"))
        with pytest.raises(EdgeListParseError, match=f"^line {line}: value "):
            load_layout_table(text)

    @pytest.mark.parametrize("old,new,message", [
        # E_13 = 1/18 is the table's p_13 = 1/6, and loaded with p_13 dropped
        ("p_13 = 1/6", "E_13 = 1/18\np_13 = 1/2", "'p_13' gives again what 'E_13' gave"),
        ("p_13 = 1/6", "p_13 = 1/6\nE_13 = 1/18", "'E_13' gives again what 'p_13' gave"),
        ("delta = 1/3", "delta = 1/3\ndelta = 1/2", "'delta' gives again what 'delta' gave"),
    ])
    def test_a_value_given_twice_names_the_later_line(self, old, new, message):
        text = self.RLA_TEXT.replace(old, new)
        later = text.splitlines().index(new.splitlines()[1]) + 1
        with pytest.raises(EdgeListParseError, match=re.escape(
            f"line {later}: {message} on line {later - 1}"
        )):
            load_layout_table(text)

    @pytest.mark.parametrize("line,code,gamma", [
        ("E_04 = -1/90", "04", Fraction(-1, 90)),
        ("E_04 = -00001/0090", "04", Fraction(-1, 90)),
        ("E_04 = -1", "04", None),
        ("p_04 = 1/10", "04", Fraction(-1, 90)),
        ("p_04 = -0", "04", Fraction(-1, 9)),
    ])
    def test_values_in_the_grammar_load(self, line, code, gamma):
        text = self.RLA_TEXT.replace("p_04 = 0", line)
        if gamma is None:
            # read as -1, then refused as no layout's
            with pytest.raises(ValidationError, match=re.escape("p_04 = -8/9 outside")):
                load_layout_table(text)
        else:
            assert load_layout_table(text).gamma[code] == gamma

    def test_table_of_no_layout_rejected(self):
        # E = -5 puts every other product probability below zero
        text = "delta = 1/3\nE_24 = 2/9\nE_00 = 0\nE_01 = 0\n" + "".join(
            f"E_{code} = -5\n" for code in ("021", "022", "03", "04", "12", "13")
        )
        with pytest.raises(ValidationError, match=re.escape("p_04 = -44/9 outside [0, 1/3]")):
            load_layout_table(text)


def test_expectation_table_needs_every_type():
    gamma = dict(builtin_rla_table().gamma)
    del gamma["03"]
    with pytest.raises(ValidationError, match=re.escape("missing type(s): ['03']")):
        ExpectationTable(name="custom", delta=Fraction(1, 3), gamma=gamma)


def test_complete_graph_has_no_six_vertex_types():
    # any two elements of Q sharing no vertices need at least 6 vertices
    g = Graph(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    got = frequencies_brute(g)
    assert got.counts["021"] == got.counts["022"] == 0
    assert got.null_total == 0
