"""Tests for the benchmark's own references and output checks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from crossvar import Graph, count_crossings, fast_census, variance_general_reuse  # noqa: E402
from crossvar.generators import erdos_renyi  # noqa: E402


def _graphs():
    for seed in range(25):
        rng = random.Random(seed)
        yield erdos_renyi(rng.randint(2, 24), rng.random(), seed=seed)


def test_dense_census_matches_library_census():
    for g in _graphs():
        census = oracles.dense_census(g.n, list(g.edges()))
        for key, value in asdict(fast_census(g)).items():
            assert census[key] == value, (g, key)


def test_sorted_crossing_counter_matches_library():
    for seed, g in enumerate(_graphs()):
        order = list(range(g.n))
        random.Random(seed).shuffle(order)
        got = oracles.count_crossings_sorted(g.n, list(g.edges()), order)
        assert got == count_crossings(g, order)


def test_gnm_edges_is_seeded_and_distinct():
    edges = workloads.gnm_edges(30, 200, seed=7)
    assert edges == workloads.gnm_edges(30, 200, seed=7)
    assert len(set(edges)) == 200
    assert all(0 <= u < v < 30 for u, v in edges)
    assert workloads.gnm_edges(10, 45, seed=1) == [(u, v) for u in range(10) for v in range(u + 1, 10)]


def test_work_basis_counts_match_the_program():
    g = erdos_renyi(40, 0.3, seed=3)
    basis = workloads.work_basis(g.n, list(g.edges()))
    assert basis.intersection_calls == sum(k * k for k in g.degrees) - g.m
    assert basis.reuse_keys == variance_general_reuse(g).hash_table_size
    assert basis.pairs == g.m * (g.m - 1) // 2


REF = {
    "n": 4, "m": 4, "q": 2, "expectation": Fraction(2, 3), "variance": Fraction(2, 9),
    "crossings": 1, "samples": 1000,
}


def _variance_call(**changes):
    out = {"n": 4, "m": 4, "q": 2, "expectation": "2/3", "variance": "2/9", "algorithm": "reuse"}
    out.update(changes)
    return {"check": "variance", "rc": 0, "out": json.dumps(out), "error": None}


def _zscore_call(observed=1):
    e, v = REF["expectation"], REF["variance"]
    bounds = oracles.cheb_bounds(observed, e, v)
    out = {
        "observed": observed, "expectation": "2/3", "variance": "2/9",
        "zscore": float(observed - e) / float(v) ** 0.5,
        **{f"bound_{side}": f"{b.numerator}/{b.denominator}" for side, b in bounds.items()},
    }
    return {"check": "zscore", "rc": 0, "out": json.dumps(out), "error": None}


def test_correct_outputs_pass():
    assert oracles.check_variance(_variance_call(), REF) == []
    assert oracles.check_zscore(_zscore_call(), REF) == []


def test_changed_variance_is_a_failure():
    assert oracles.check_variance(_variance_call(variance="1/9"), REF)
    assert oracles.check_variance(_variance_call(expectation="1/3"), REF)


def test_changed_crossing_count_is_a_failure():
    # a self-consistent output for the wrong count still fails
    assert oracles.check_zscore(_zscore_call(observed=2), REF)


def test_nonzero_exit_code_or_exception_is_a_failure():
    assert oracles.check_variance({**_variance_call(), "rc": 2}, REF)
    assert oracles.check_zscore({**_zscore_call(), "rc": 4}, REF)
    assert oracles.check_variance({**_variance_call(), "rc": None, "error": "ValueError()"}, REF)
    assert oracles.check_variance({**_variance_call(), "out": "not json"}, REF)


def test_monte_carlo_moments_outside_tolerance_fail():
    e, v = float(REF["expectation"]), float(REF["variance"])
    good = {"samples": 1000, "mean": e, "variance": v, "minimum": 0, "maximum": 2}
    call = {"check": "monte_carlo", "rc": 0, "error": None}
    assert oracles.check_monte_carlo({**call, "out": good}, REF) == []
    assert oracles.check_monte_carlo({**call, "out": {**good, "mean": e + 0.2}}, REF)
    assert oracles.check_monte_carlo({**call, "out": {**good, "variance": 2 * v}}, REF)


def test_failed_calls_are_counted():
    reps = [
        {"wall_s": 1.0, "calls": [_variance_call()]},
        {"wall_s": 1.0, "calls": [_variance_call(variance="1/9")]},
        {"wall_s": 1.0, "calls": [{**_variance_call(), "rc": 3}]},
    ]
    failed, problems = run.check_reps(reps, REF)
    assert failed == 2
    assert len(problems) == 2


def test_bounds_follow_their_definition():
    b = oracles.cheb_bounds(3, Fraction(1), Fraction(1))
    assert b == {"two_sided": Fraction(1, 4), "lower": Fraction(1), "upper": Fraction(1, 5)}
    assert oracles.cheb_bounds(1, Fraction(1), Fraction(1))["two_sided"] == 1


def test_graph_from_generated_file_matches_edges(tmp_path):
    from crossvar import load_graph

    edges = workloads.gnm_edges(12, 20, seed=2)
    path = workloads.write_edge_list(tmp_path / "g.txt", 13, edges)
    assert load_graph(str(path)) == Graph(13, edges)
