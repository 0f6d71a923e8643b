"""Product-type classification of pairs of independent edge pairs.

The nine types are keyed by string codes ``"00" ... "24"``; a type is
determined by how many edges and how many vertices two elements of Q
share, with a third digit separating the two sharing patterns that both
have zero common edges and two common vertices.

Three routes count the ordered pairs of Q elements of each type:
:func:`frequencies_brute` classifies every pair,
:func:`frequencies_from_subgraph_counts` multiplies pattern counts taken by
the enumerators of :mod:`crossvar.brute`, and
:func:`frequencies_from_census` evaluates closed forms over a census.  The
first two are oracles, and each checks its budgets, constants, before any
work: :func:`frequencies_brute` refuses more than :data:`PAIR_BUDGET` =
2^33 ordered pairs of Q elements, :data:`EDGE_PAIR_BUDGET` = 2^27 pairs of
edges to list and :data:`ROW_BUDGET` = 2^30 bytes of membership rows, each
taken from the degrees, and pattern counting refuses more than
:data:`PATTERN_LIMIT` = 25 vertices.  The pair
classification keeps one int8 membership row per vertex that an element
touches, over the elements: it counts shared vertices by summing rows,
and tells the two subtypes of the (0, 2) pairs apart by reading the rows
at each edge's ends.  Its memory grows with q times the touched vertices,
not with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .brute import (
    count_cycles4_brute,
    count_simple_paths,
    independent_edge_pairs,
    simple_walks,
)
from .errors import (
    EdgeListParseError,
    InternalInconsistencyError,
    OracleBudgetError,
    ValidationError,
)
from .graph import Graph, compute_q, lines, read_number

PRODUCT_TYPES = ("00", "01", "021", "022", "03", "04", "12", "13", "24")

# codes of the seven types with a non-zero expectation contribution
CONTRIBUTING_TYPES = ("24", "13", "12", "04", "03", "021", "022")

EdgePair = tuple[tuple[int, int], tuple[int, int]]


def classify_pair(p1: EdgePair, p2: EdgePair) -> str:
    """Type code of an ordered pair of independent-edge pairs.

    The classification is symmetric in its two arguments.
    """
    (e1a, e1b), (e2a, e2b) = p1, p2
    for e1, e2 in ((e1a, e1b), (e2a, e2b)):
        if len({e1[0], e1[1], e2[0], e2[1]}) != 4:
            raise ValidationError(f"not an independent edge pair: {(e1, e2)}")
    edges1 = {frozenset(e1a), frozenset(e1b)}
    edges2 = {frozenset(e2a), frozenset(e2b)}
    tau = len(edges1 & edges2)
    verts1 = {*e1a, *e1b}
    verts2 = {*e2a, *e2b}
    shared = verts1 & verts2
    phi = len(shared)
    if tau == 2:
        return "24"
    if tau == 1:
        return {3: "13", 2: "12"}[phi]
    if phi == 2:
        # subtype 1 when the two shared vertices are one edge of either
        # element; subtype 2 when each element splits them across its edges
        return "021" if frozenset(shared) in edges1 | edges2 else "022"
    return {0: "00", 1: "01", 3: "03", 4: "04"}[phi]


@dataclass(frozen=True)
class FrequencyVector:
    """Counts of ordered Q x Q pairs per product type.

    ``counts`` holds the seven contributing types.  The two types with
    zero expectation are carried jointly in ``null_total``.
    """

    counts: dict[str, int]
    null_total: int

    def total(self) -> int:
        return sum(self.counts.values()) + self.null_total


#: most ordered pairs of Q elements :func:`frequencies_brute` classifies;
#: it admits every graph of the selftest corpus (q^2 <= 1.5e7) and
#: G(40, 1/2), whose q^2 is 4.1e9
PAIR_BUDGET = 2**33
#: most pairs of edges, C(m, 2), that :func:`frequencies_brute` tests one by
#: one in Python to list Q: about five seconds
EDGE_PAIR_BUDGET = 2**27
#: most bytes of the int8 membership rows of :func:`frequencies_brute`, q
#: times the touched vertices, counted as the vertices of positive degree
ROW_BUDGET = 2**30


def frequencies_brute(g: Graph) -> FrequencyVector:
    """Classify every ordered pair of Q elements.

    The classification itself is pure definition chasing, evaluated with
    vectorized comparisons so the oracle stays usable on mid-size graphs.
    The vertices the elements touch are numbered, and each gets one int8
    row that marks the elements it is an end of.  Shared vertices are the
    sum of the rows of one element's four ends, read at the other element.
    Shared edges are equal edge keys, read only where two or more vertices
    are shared, and a pair sharing two vertices and no edge is of type 021
    exactly when an edge of either element has both ends among the other's.
    A graph over :data:`PAIR_BUDGET`, :data:`EDGE_PAIR_BUDGET` or
    :data:`ROW_BUDGET` is refused from its degrees, before any pair is
    listed.
    """
    q, m = compute_q(g), g.m
    for need, what, budget in (
        (q * q, "q^2 = {} ordered pairs", PAIR_BUDGET),
        (m * (m - 1) // 2, "C(m, 2) = {} edge pairs", EDGE_PAIR_BUDGET),
        (q * int(np.count_nonzero(g.degree_array)), "{} bytes of membership rows", ROW_BUDGET),
    ):
        if need > budget:
            raise OracleBudgetError(
                f"pair classification needs {what.format(need)}, over its budget of"
                f" {budget} (2^{budget.bit_length() - 1})"
            )
    pairs = independent_edge_pairs(g)
    q = len(pairs)
    freq = {code: 0 for code in PRODUCT_TYPES} | {"24": q}  # the diagonal
    if q > 1:
        # ends[k, j] is end k (s, t, u, v) of element j, as the number of
        # that vertex among the touched ones
        touched, ends = np.unique(np.array(pairs, dtype=np.int64).ravel(), return_inverse=True)
        ends = ends.reshape(q, 4).T
        ekeys = ends[0::2] * len(touched) + ends[1::2]
        # member[x, j] = 1 when touched vertex x is an end of element j; it
        # is at x * q + j of the flat rows
        member = np.zeros((len(touched), q), dtype=np.int8)
        member[ends, np.arange(q)] = 1
        flat, offsets = member.ravel(), ends * q

        def inside(x, y):
            # whether an edge of element x has both ends among element y's
            s, t, u, v = (flat[o[x] + y] for o in offsets)
            return (s & t) | (u & v)

        chunk = max(1, 16_000_000 // q)
        for i0 in range(0, q - 1, chunk):
            i1 = min(i0 + chunk, q - 1)
            cols0 = i0 + 1  # only columns j > i0 can satisfy j > i
            # shared vertices: the member rows of the row element's four
            # ends, summed; the cells j <= i are marked -1
            phi = member[ends[0, i0:i1], cols0:]
            for x in ends[1:, i0:i1]:
                phi += member[x, cols0:]
            phi[:, :i1 - i0][np.tri(i1 - i0, k=-1, dtype=bool)] = -1
            freq["00"] += 2 * int(np.count_nonzero(phi == 0))
            freq["01"] += 2 * int(np.count_nonzero(phi == 1))

            # a shared edge brings two shared vertices, so shared edges are
            # read only where phi >= 2; each edge of the row element matches
            # at most one edge of the column element
            cells = np.flatnonzero(phi >= 2)
            shared = phi.ravel()[cells]
            # the row and the column element of each cell
            r, c = np.add(np.divmod(cells, q - cols0), [[i0], [cols0]])
            (a_r, b_r), (a_c, b_c) = ekeys[:, r], ekeys[:, c]
            tau = ((a_r == a_c) | (a_r == b_c)).astype(np.int8) + ((b_r == a_c) | (b_r == b_c))
            if np.any((tau == 1) & (shared == 4)):
                raise InternalInconsistencyError("impossible (tau, phi) = (1, 4) seen")
            if np.any(tau == 2):
                raise InternalInconsistencyError("distinct Q elements sharing both edges")
            for name, t, p in (("03", 0, 3), ("04", 0, 4), ("12", 1, 2), ("13", 1, 3)):
                freq[name] += 2 * int(np.count_nonzero((tau == t) & (shared == p)))

            # the (0, 2) cells: subtype 1 when an edge of either element has
            # both ends among the other's, subtype 2 otherwise
            two = (tau == 0) & (shared == 2)
            n1 = int(np.count_nonzero(inside(r[two], c[two]) | inside(c[two], r[two])))
            freq["021"] += 2 * n1
            freq["022"] += 2 * (int(np.count_nonzero(two)) - n1)

    if sum(freq.values()) != q * q:
        raise InternalInconsistencyError("classified pair count does not equal q^2")
    counts = {code: freq[code] for code in CONTRIBUTING_TYPES}
    return FrequencyVector(counts=counts, null_total=freq["00"] + freq["01"])


def frequencies_from_census(c, m: int) -> FrequencyVector:
    """Evaluate the closed forms for the seven contributing types.

    ``c`` is a :class:`crossvar.census.CensusReport`.  The two null types
    are reported jointly via the q^2 complement.
    """
    f = {
        "24": c.q,
        "13": c.K - 4 * c.q - 2 * c.nP4,
        "12": 2 * ((m + 2) * c.q + c.nP4 - c.K),
        "04": 2 * c.nC4,
        "03": c.lambda1 - 2 * c.nP4 - 8 * c.nC4 - 2 * c.nPaw,
        "021": (
            2 * c.q + (m + 5) * c.nP4 + 8 * c.nC4 + 3 * c.nPaw
            + c.phi1 - 3 * c.nC3L2 - c.lambda1 - c.lambda2 - c.K
        ),
        "022": (
            4 * c.q + 5 * c.nP4 + 2 * c.nPaw + 4 * c.nC4
            + c.phi2 - c.lambda2 - 2 * c.K - c.nP5
        ),
    }
    negatives = [code for code, value in f.items() if value < 0]
    if negatives:
        raise InternalInconsistencyError(
            f"negative frequency for type(s) {negatives}: census is inconsistent"
        )
    null_total = c.q * c.q - sum(f.values())
    if null_total < 0:
        raise InternalInconsistencyError("contributing frequencies exceed q^2")
    return FrequencyVector(counts=f, null_total=null_total)


#: most vertices :func:`frequencies_from_subgraph_counts` takes; the
#: selftest corpus, and so acceptance criteria 1 and 2, stop at n = 20
PATTERN_LIMIT = 25


def frequencies_from_subgraph_counts(g: Graph) -> FrequencyVector:
    """Type counts as pattern multiplicity times brute subgraph count.

    Patterns are counted by explicit enumeration (edges, walks, subsets),
    independent from both the pair classification and the closed forms.
    The two null types are reported jointly via the q^2 complement.  A
    graph with more than :data:`PATTERN_LIMIT` vertices is refused before
    any pattern is listed.
    """
    if g.n > PATTERN_LIMIT:
        raise OracleBudgetError(f"pattern counting limited to n <= {PATTERN_LIMIT}")

    edges = list(g.edges())
    q_pairs = independent_edge_pairs(g)
    q = len(q_pairs)

    # connected pattern occurrences with their vertex sets
    l3s = [
        (c, a, b)
        for c in range(g.n)
        for a, b in combinations(g.adjacency[c], 2)
    ]
    l4s = [walk for walk in simple_walks(g, 4) if walk[0] < walk[-1]]

    def disjoint_edges(vset) -> int:
        return sum(1 for u, v in edges if u not in vset and v not in vset)

    n_l3_l2 = sum(disjoint_edges(set(t)) for t in l3s)
    n_l4_l2 = sum(disjoint_edges(set(p)) for p in l4s)
    # 3-matchings: each is seen once per (pair in Q, disjoint third edge)
    # and every unordered triple arises from 3 of its pairs
    triple_hits = sum(disjoint_edges({s, t, u, v}) for (s, t), (u, v) in q_pairs)
    if triple_hits % 3:
        raise InternalInconsistencyError("3-matching hits are not a multiple of 3")
    n_l2x3 = triple_hits // 3
    l3_sets = [set(t) for t in l3s]
    n_l3_l3 = sum(
        1
        for i in range(len(l3_sets))
        for j in range(i + 1, len(l3_sets))
        if not (l3_sets[i] & l3_sets[j])
    )

    f = {
        "24": 1 * q,
        "13": 2 * n_l3_l2,
        "12": 6 * n_l2x3,
        "04": 2 * count_cycles4_brute(g),
        "03": 2 * count_simple_paths(g, 5),
        "021": 2 * n_l4_l2,
        "022": 4 * n_l3_l3,
    }
    return FrequencyVector(counts=f, null_total=q * q - sum(f.values()))


@dataclass(frozen=True, eq=False)
class ExpectationTable:
    """A random layout: the crossing probability of one independent pair
    and the covariance-term expectation for each product type.  Two tables
    are equal only when they are the same object."""

    name: str
    delta: Fraction
    gamma: Mapping[str, Fraction]

    def __post_init__(self):
        missing = [code for code in PRODUCT_TYPES if code not in self.gamma]
        if missing:
            raise ValidationError(f"expectation table missing type(s): {missing}")

    @cached_property
    def scaled_gamma(self) -> tuple[int, tuple[int, ...]]:
        """``(d, numerators)``: the expectation of each of
        ``CONTRIBUTING_TYPES`` as its numerator over one common denominator
        ``d``, so that a variance needs a single rational division."""
        gamma = [Fraction(self.gamma[code]) for code in CONTRIBUTING_TYPES]
        d = math.lcm(*(x.denominator for x in gamma))
        return d, tuple(x.numerator * (d // x.denominator) for x in gamma)


def builtin_rla_table() -> ExpectationTable:
    """Expectations for uniformly random linear arrangements (one shared,
    read-only table, built on import)."""
    return _RLA_TABLE


_RLA_TABLE = ExpectationTable(
    name="rla",
    delta=Fraction(1, 3),
    gamma=MappingProxyType({
        "00": Fraction(0),
        "01": Fraction(0),
        "021": Fraction(-1, 90),
        "022": Fraction(1, 180),
        "03": Fraction(-1, 36),
        "04": Fraction(-1, 9),
        "12": Fraction(1, 45),
        "13": Fraction(1, 18),
        "24": Fraction(2, 9),
    }),
)


def load_layout_table(text: str, name: str = "custom") -> ExpectationTable:
    """Parse a layout table.

    Lines are ``delta = p/q`` plus, for each of the nine types, either
    ``p_<code> = p/q`` (crossing-product probability) or ``E_<code> = p/q``
    (centered expectation), each given once: a second value for delta or
    for a type, in either form, raises :class:`EdgeListParseError` naming
    its line.  ``#`` starts a comment.  A value is an optional
    ``-``, ASCII decimal digits and an optional ``/`` with the digits of a
    nonzero denominator (:func:`_read_rational`); any other value raises
    :class:`EdgeListParseError` naming its line.  A table is refused
    unless it could be a layout's: delta in [0, 1], and every
    ``p_<code> = E_<code> + delta²`` in its interval: [delta, delta] for
    24, [delta², delta²] for 00 and 01, and [max(0, 2·delta − 1), delta]
    for the rest.  The built-in table reaches the lowest of these ends
    with ``p_04 = 0``.
    """
    # "delta" or a type code -> (line, key, value)
    given: dict[str, tuple[int, str, Fraction]] = {}
    for lineno, line in lines(text):
        if "=" not in line:
            raise EdgeListParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        val = _read_rational(value)
        if val is None:
            raise EdgeListParseError(
                f"value {value!r} is not [-]p[/q] in ASCII decimal digits with q > 0",
                lineno,
            )
        if key == "delta":
            slot = key
        elif key[:2] in ("p_", "E_") and key[2:] in PRODUCT_TYPES:
            slot = key[2:]
        else:
            raise EdgeListParseError(f"unknown key {key!r}", lineno)
        if slot in given:
            first, first_key, _ = given[slot]
            raise EdgeListParseError(
                f"{key!r} gives again what {first_key!r} gave on line {first}", lineno
            )
        given[slot] = (lineno, key, val)

    problems = []
    if "delta" not in given:
        problems.append("missing delta")
    delta = given["delta"][2] if "delta" in given else Fraction(0)
    gamma: dict[str, Fraction] = {}
    for code in PRODUCT_TYPES:
        if code not in given:
            problems.append(f"missing type {code}")
            continue
        _, key, val = given[code]
        gamma[code] = val if key.startswith("E_") else val - delta * delta
    # probabilities: each pair crosses with probability delta, and both of
    # two pairs with p_code = gamma + delta^2.  An identical pair (24) gives
    # delta, and fully disjoint / one-shared-vertex pairs (00, 01) are
    # independent and give delta^2; every other type lies within the
    # Fréchet bounds [max(0, 2·delta − 1), delta] of two events of
    # probability delta
    if not 0 <= delta <= 1:
        problems.append(f"delta = {delta} outside [0, 1]")
    elif "missing delta" not in problems:
        square = delta * delta
        exact = {"24": (delta, delta), "00": (square, square), "01": (square, square)}
        frechet = (max(Fraction(0), 2 * delta - 1), delta)
        for code, g in gamma.items():
            low, high = exact.get(code, frechet)
            if not low <= g + square <= high:
                problems.append(f"p_{code} = {g + square} outside [{low}, {high}]")
    if problems:
        raise ValidationError("invalid layout table: " + "; ".join(problems))
    return ExpectationTable(name=name, delta=delta, gamma=gamma)


def _read_rational(value: str) -> Fraction | None:
    """A layout-table value, an optional ``-``, then ASCII decimal digits,
    then optionally ``/`` and the ASCII decimal digits of a nonzero
    denominator, each run read by :func:`crossvar.graph.read_number`; or
    ``None`` for any other text, such as ``+1``, ``1_0``, ``0.5``, ``1e-1``
    or non-ASCII digits, which :class:`fractions.Fraction` would take."""
    digits = value.removeprefix("-")
    num, slash, den = digits.partition("/")
    p, q = read_number(num), read_number(den) if slash else 1
    if p is None or not q:
        return None
    return Fraction(p if digits == value else -p, q)
