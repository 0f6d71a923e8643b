"""Independent references and output checks for the benchmark.

Everything here is written apart from the library's own routes, so that a
wrong answer from the program under test cannot also be the reference:

* ``dense_census``: the census every variance formula needs, from dense
  adjacency-matrix algebra (common-neighbour counts ``A @ A``) instead of
  per-edge sorted-list merges;
* ``count_crossings_sorted``: crossings of an arrangement by a sweep over
  the edges sorted by their left end and a Fenwick tree over right ends,
  O(m log m) instead of the library's O(m^2) pair test;
* ``cheb_bounds``: the Chebyshev/Cantelli bounds from their definition;
* the ``check_*`` functions, which return a list of problems (empty when
  an output is correct).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

#: Monte Carlo moments must lie within this many standard errors.
MC_Z = 5.0

#: dense_census keeps every per-edge term below 2**63 up to this size.
DENSE_CENSUS_MAX_N = 1000


def dense_census(n: int, edges: list[tuple[int, int]]) -> dict[str, int]:
    """Census quantities of a simple graph, as exact Python integers.

    The names follow ``crossvar.census.CensusReport``.  ``C = A @ A`` counts
    common neighbours and ``S = A diag(k) A`` sums their degrees.
    """
    if n > DENSE_CENSUS_MAX_N:
        raise ValueError(f"dense_census is limited to n <= {DENSE_CENSUS_MAX_N}")
    A = np.zeros((n, n), dtype=np.int64)
    if edges:
        e = np.asarray(edges, dtype=np.int64)
        A[e[:, 0], e[:, 1]] = 1
        A[e[:, 1], e[:, 0]] = 1
    k = A.sum(axis=1)
    xi = A @ k
    C = A @ A
    S = A @ (k[:, None] * A)
    s, t = np.nonzero(np.triu(A, 1))
    ks, kt = k[s], k[t]
    c_st, s_st = C[s, t], S[s, t]
    m = len(s)

    def total(x) -> int:
        return sum(np.asarray(x).ravel().tolist())

    mmt2, mmt3 = total(k * k), total(k ** 3)
    psi = total(ks * kt)
    mu1_twice = total(xi[s] + xi[t])
    mu2 = total(c_st)
    lam1 = total((kt - 1) * (xi[s] - kt) + (ks - 1) * (xi[t] - ks) - 2 * s_st)
    off = ~np.eye(n, dtype=bool)
    # 5-paths x-a-mid-b-y counted through the ordered end pairs (a, b)
    f = (k[:, None] - 1 - A) * (k[None, :] - 1 - A) + 1 - C
    p5_twice = total((C * f)[off])
    c4_eight = total((C * (C - 1))[off])
    c3l2_tripled = total((m - ks - kt + 3) * c_st - s_st)
    phi2_twice = total((ks + kt) * (mmt2 - xi[s] - xi[t] - ks * (ks - 1) - kt * (kt - 1)))
    mu1 = mu1_twice // 2
    return {
        "n": n,
        "m": m,
        "q": (m * (m + 1) - mmt2) // 2,
        "K": (m + 1) * mmt2 - mmt3 - 2 * psi,
        "phi1": (m + 1) * psi - total(ks * kt * (ks + kt)),
        "phi2": phi2_twice // 2,
        "lambda1": lam1,
        "lambda2": lam1 + total((ks + kt) * ((ks - 1) * (kt - 1) - c_st)),
        "mu1": mu1,
        "mu2": mu2,
        "nP4": m - mmt2 + mu1 - mu2,
        "nP5": p5_twice // 2,
        "nC3": mu2 // 3,
        "nC4": c4_eight // 8,
        "nPaw": total(s_st - 2 * c_st),
        "nC3L2": c3l2_tripled // 3,
    }


def count_crossings_sorted(n: int, edges: list[tuple[int, int]], order: list[int]) -> int:
    """Crossing pairs of ``edges`` when vertex ``order[i]`` sits at position i.

    Edges ``[a1, b1]`` and ``[a2, b2]`` (as positions, ``a < b``) cross when
    ``a1 < a2 < b1 < b2``.  Sweeping the edges by left end, each edge counts
    the earlier-starting edges whose right end lies strictly inside it.
    Edges that start at the same position share a vertex and never cross,
    so each group is counted before any of it is inserted.
    """
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    spans = sorted(
        (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in edges
    )
    tree = [0] * (n + 1)

    def prefix(i: int) -> int:  # right ends at positions < i
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    crossings = 0
    i = 0
    while i < len(spans):
        j = i
        while j < len(spans) and spans[j][0] == spans[i][0]:
            j += 1
        for a, b in spans[i:j]:
            crossings += prefix(b) - prefix(a + 1)
        for _, b in spans[i:j]:
            x = b + 1
            while x <= n:
                tree[x] += 1
                x += x & -x
        i = j
    return crossings


def cheb_bounds(observed: int, expectation: Fraction, variance: Fraction) -> dict[str, Fraction]:
    """Two-sided Chebyshev and one-sided Cantelli bounds on P(C as extreme)."""
    dev = Fraction(observed) - expectation
    if dev == 0:
        return {"two_sided": Fraction(1), "lower": Fraction(1), "upper": Fraction(1)}
    cantelli = variance / (variance + dev * dev)
    return {
        "two_sided": min(Fraction(1), variance / (dev * dev)),
        "lower": cantelli if dev < 0 else Fraction(1),
        "upper": cantelli if dev > 0 else Fraction(1),
    }


def check_exit(call: dict) -> list[str]:
    """A call failed outright when it raised or exited nonzero."""
    if call.get("error"):
        return [f"raised {call['error']}"]
    if call.get("rc") != 0:
        return [f"exit code {call.get('rc')}"]
    return []


def _json_or_problem(call: dict) -> tuple[dict | None, list[str]]:
    problems = check_exit(call)
    if problems:
        return None, problems
    try:
        return json.loads(call["out"]), []
    except (KeyError, ValueError) as exc:
        return None, [f"output is not JSON: {exc}"]


def _compare(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got}, want {want}")


def check_variance(call: dict, ref: dict) -> list[str]:
    """``crossvar variance --json`` against the reference moments."""
    out, problems = _json_or_problem(call)
    if out is None:
        return problems
    try:
        _compare(problems, "n", out["n"], ref["n"])
        _compare(problems, "m", out["m"], ref["m"])
        _compare(problems, "q", out["q"], ref["q"])
        _compare(problems, "expectation", Fraction(out["expectation"]), ref["expectation"])
        _compare(problems, "variance", Fraction(out["variance"]), ref["variance"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed variance output: {exc!r}")
    return problems


def check_stats(call: dict, ref: dict) -> list[str]:
    """``crossvar stats --json``: sizes, q and E[C] = q/3."""
    out, problems = _json_or_problem(call)
    if out is None:
        return problems
    try:
        _compare(problems, "n", out["n"], ref["n"])
        _compare(problems, "m", out["m"], ref["m"])
        _compare(problems, "census.q", out["census"]["q"], ref["q"])
        _compare(problems, "expectation_rla", Fraction(out["expectation_rla"]), ref["expectation"])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed stats output: {exc!r}")
    return problems


def check_zscore(call: dict, ref: dict) -> list[str]:
    """``crossvar zscore --arrangement … --json`` against the sorted counter."""
    out, problems = _json_or_problem(call)
    if out is None:
        return problems
    try:
        observed = ref["crossings"]
        e, v = ref["expectation"], ref["variance"]
        _compare(problems, "observed", out["observed"], observed)
        _compare(problems, "expectation", Fraction(out["expectation"]), e)
        _compare(problems, "variance", Fraction(out["variance"]), v)
        z = float(Fraction(observed) - e) / math.sqrt(v)
        if not math.isclose(out["zscore"], z, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"zscore: got {out['zscore']}, want {z}")
        for side, bound in cheb_bounds(observed, e, v).items():
            _compare(problems, f"bound_{side}", Fraction(out[f"bound_{side}"]), bound)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed zscore output: {exc!r}")
    return problems


def check_monte_carlo(call: dict, ref: dict) -> list[str]:
    """Sample moments within ``MC_Z`` standard errors of the exact ones.

    The standard error of the sample variance uses the normal-theory
    ``Var * sqrt(2 / (N - 1))``; the crossing count of a graph with
    hundreds of edges is a sum of many weakly dependent indicators.
    """
    problems = check_exit(call)
    if problems:
        return problems
    out = call.get("out")
    if not isinstance(out, dict):
        return [f"monte_carlo returned {out!r}"]
    try:
        n = out["samples"]
        _compare(problems, "samples", n, ref["samples"])
        e, v = float(ref["expectation"]), float(ref["variance"])
        mean_tol = MC_Z * math.sqrt(v / n)
        if abs(out["mean"] - e) > mean_tol:
            problems.append(f"mean {out['mean']} is not within {mean_tol:.4g} of {e}")
        var_tol = MC_Z * v * math.sqrt(2 / (n - 1))
        if abs(out["variance"] - v) > var_tol:
            problems.append(f"variance {out['variance']} is not within {var_tol:.4g} of {v}")
        if not 0 <= out["minimum"] <= out["mean"] <= out["maximum"] <= ref["q"]:
            problems.append(f"range [{out['minimum']}, {out['maximum']}] is impossible")
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        problems.append(f"malformed monte_carlo output: {exc!r}")
    return problems


CHECKS = {
    "variance": check_variance,
    "stats": check_stats,
    "zscore": check_zscore,
    "monte_carlo": check_monte_carlo,
}
