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
first two are oracles, and each checks its budget, a constant, before any
work: :func:`frequencies_brute` refuses more than :data:`PAIR_BUDGET` =
2^33 ordered pairs, with q^2 taken from the degrees, and pattern counting
refuses more than :data:`PATTERN_LIMIT` = 25 vertices.  The pair
classification reads one bitmask of vertices per edge: it counts shared
vertices by popcount and tells the two subtypes of the (0, 2) pairs apart
by comparing masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .graph import Graph, compute_q

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

    ``counts`` always holds the seven contributing types.  The two types
    with zero expectation are carried jointly in ``null_total``; their
    individual values are present only when the producing route could
    tell them apart.
    """

    counts: dict[str, int]
    null_total: int
    f00: int | None = None
    f01: int | None = None

    def total(self) -> int:
        return sum(self.counts.values()) + self.null_total


#: most ordered pairs of Q elements :func:`frequencies_brute` classifies;
#: it admits every graph of the selftest corpus (q^2 <= 1.5e7) and
#: G(40, 1/2), whose q^2 is 4.1e9
PAIR_BUDGET = 2**33


def frequencies_brute(g: Graph) -> FrequencyVector:
    """Classify every ordered pair of Q elements.

    The classification itself is pure definition chasing, evaluated with
    vectorized comparisons so the oracle stays usable on mid-size graphs.
    Each edge of an element gets a bitmask of its two ends, one bit per
    vertex in ``ceil(n/64)`` words, and the element's mask is the OR of its
    two.  Shared vertices are the popcount of two element masks, shared
    edges are equal edge keys, and a pair sharing two vertices and no edge
    is of type 021 exactly when the shared vertices make up one of the four
    edges.  A graph with more than :data:`PAIR_BUDGET` ordered pairs is
    refused from its degrees, before any pair is listed.
    """
    q2 = compute_q(g) ** 2
    if q2 > PAIR_BUDGET:
        raise OracleBudgetError(
            f"pair classification needs q^2 = {q2} ordered pairs, over its budget of"
            f" {PAIR_BUDGET} (2^33)"
        )
    pairs = independent_edge_pairs(g)
    q = len(pairs)
    freq = {code: 0 for code in PRODUCT_TYPES}
    freq["24"] = q  # the diagonal
    if q > 1:
        n = g.n
        n_words = (n + 63) // 64
        ends = np.array(pairs, dtype=np.int64).reshape(q, 4)  # s, t, u, v
        ekeys = ends[:, 0::2] * n + ends[:, 1::2]
        # edge_masks[i, k] marks the ends of edge k of element i; one end
        # at a time, so that two ends in one word cannot overwrite each other
        edge_masks = np.zeros((q, 2, n_words), dtype=np.uint64)
        element, edge = np.arange(q)[:, None], np.arange(2)
        for x in (ends[:, 0::2], ends[:, 1::2]):
            edge_masks[element, edge, x >> 6] |= np.uint64(1) << (x & 63).astype(np.uint64)
        masks = edge_masks[:, 0] | edge_masks[:, 1]

        chunk = max(1, 16_000_000 // q)
        for i0 in range(0, q - 1, chunk):
            i1 = min(i0 + chunk, q - 1)
            rows = np.arange(i0, i1)
            cols0 = i0 + 1  # only columns j > i0 can satisfy j > i
            ek_r = ekeys[rows]
            ek_c = ekeys[cols0:]
            # shared vertices by popcount of intersecting endpoint bitmasks
            phi = np.zeros((len(rows), q - cols0), dtype=np.int8)
            for w in range(n_words):
                phi += np.bitwise_count(
                    masks[rows, w][:, None] & masks[cols0:, w][None, :]
                ).astype(np.int8)
            # shared edges: each row edge matches at most one column edge
            e1 = (ek_r[:, 0][:, None] == ek_c[None, :, 0]) | (
                ek_r[:, 0][:, None] == ek_c[None, :, 1]
            )
            e2 = (ek_r[:, 1][:, None] == ek_c[None, :, 0]) | (
                ek_r[:, 1][:, None] == ek_c[None, :, 1]
            )
            tau = e1.astype(np.int8) + e2.astype(np.int8)
            # the cells on or below the diagonal are coded 15, a bin no pair
            # reaches, so the whole matrix is counted without compressing it
            upper = rows[:, None] < np.arange(cols0, q)[None, :]
            code = np.where(upper, tau * 5 + phi, 15)

            counts = np.bincount(code.ravel(), minlength=16)
            if counts[5 + 4]:  # tau == 1, phi == 4 is impossible for distinct pairs
                raise InternalInconsistencyError("impossible (tau, phi) = (1, 4) seen")
            if counts[10 + 4]:
                raise InternalInconsistencyError("distinct Q elements sharing both edges")
            freq["00"] += 2 * int(counts[0])
            freq["01"] += 2 * int(counts[1])
            freq["03"] += 2 * int(counts[3])
            freq["04"] += 2 * int(counts[4])
            freq["12"] += 2 * int(counts[5 + 2])
            freq["13"] += 2 * int(counts[5 + 3])

            # the (0, 2) cells: subtype 1 when the two shared vertices are
            # one edge of either element, subtype 2 otherwise
            r_idx, c_idx = np.nonzero(code == 2)
            r_idx += i0
            c_idx += cols0
            shared = masks[r_idx] & masks[c_idx]
            four_edges = np.concatenate((edge_masks[r_idx], edge_masks[c_idx]), axis=1)
            n1 = int((shared[:, None, :] == four_edges).all(axis=2).any(axis=1).sum())
            freq["021"] += 2 * n1
            freq["022"] += 2 * (r_idx.size - n1)

    if sum(freq.values()) != q * q:
        raise InternalInconsistencyError("classified pair count does not equal q^2")
    counts = {code: freq[code] for code in CONTRIBUTING_TYPES}
    return FrequencyVector(
        counts=counts,
        null_total=freq["00"] + freq["01"],
        f00=freq["00"],
        f01=freq["01"],
    )


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


def frequencies_from_subgraph_counts(g: Graph, limit: int = PATTERN_LIMIT) -> FrequencyVector:
    """Type counts as pattern multiplicity times brute subgraph count.

    Patterns are counted by explicit enumeration (edges, walks, subsets),
    independent from both the pair classification and the closed forms.
    The two null types are reported jointly via the q^2 complement.  A
    graph with more than ``min(limit, PATTERN_LIMIT)`` vertices is refused
    before any pattern is listed, so ``limit`` can only lower the cap.
    """
    cap = min(limit, PATTERN_LIMIT)
    if g.n > cap:
        raise OracleBudgetError(f"pattern counting limited to n <= {cap}")

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


@dataclass(frozen=True)
class ExpectationTable:
    """A random layout: the crossing probability of one independent pair
    and the covariance-term expectation for each product type."""

    name: str
    delta: Fraction
    gamma: Mapping[str, Fraction] = field(compare=False)

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
    (centered expectation).  ``#`` starts a comment.
    """
    delta: Fraction | None = None
    p_vals: dict[str, Fraction] = {}
    e_vals: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise EdgeListParseError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            val = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise EdgeListParseError(f"non-rational value {value!r}", lineno) from None
        if key == "delta":
            delta = val
        elif key.startswith("p_") and key[2:] in PRODUCT_TYPES:
            p_vals[key[2:]] = val
        elif key.startswith("E_") and key[2:] in PRODUCT_TYPES:
            e_vals[key[2:]] = val
        else:
            raise EdgeListParseError(f"unknown key {key!r}", lineno)

    problems = []
    if delta is None:
        problems.append("missing delta")
        delta = Fraction(0)
    gamma: dict[str, Fraction] = {}
    for code in PRODUCT_TYPES:
        if code in e_vals:
            gamma[code] = e_vals[code]
        elif code in p_vals:
            gamma[code] = p_vals[code] - delta * delta
        else:
            problems.append(f"missing type {code}")
    # layout-class consistency: an identical pair has product probability
    # delta, and fully disjoint / one-shared-vertex pairs are independent
    if "24" in gamma and gamma["24"] != delta - delta * delta:
        problems.append("gamma[24] != delta - delta^2")
    for code in ("00", "01"):
        if code in gamma and gamma[code] != 0:
            problems.append(f"gamma[{code}] != 0 (p_{code} must equal delta^2)")
    if problems:
        raise ValidationError("invalid layout table: " + "; ".join(problems))
    return ExpectationTable(name=name, delta=delta, gamma=gamma)
