"""How many crossings does a random drawing of a graph have?

Walk through the exact first two moments of the crossing count for a few
graph families, and show that every computation route in the package lands
on the same rational number.
"""

from fractions import Fraction

from crossvar import (
    compute_variance,
    variance_forest,
    variance_general,
    variance_general_reuse,
    variance_naive,
    variance_rla_closed,
)
from crossvar.generators import complete, complete_bipartite, cycle, path, random_tree, star


def show(name, g):
    r = compute_variance(g)
    print(f"{name:>14}: n={g.n:>3} m={g.m:>3} q={r.q:>4}  "
          f"E[C]={str(r.expectation):>6}  Var[C]={str(r.variance):>8}  "
          f"({r.algorithm})")


def main():
    print("Exact crossing moments under a uniformly random vertex order")
    print("-" * 70)
    show("path-8", path(8))
    show("cycle-8", cycle(8))
    show("star-8", star(8))          # adjacent edges never cross: Var = 0
    show("K5", complete(5))          # constant C: each 4-subset crosses once
    show("K_{4,4}", complete_bipartite(4, 4))
    show("random tree", random_tree(30, seed=1))

    print()
    print("Five routes, one value (cycle on 9 vertices):")
    g = cycle(9)
    for label, r in [
        ("naive (classify all pairs of edge pairs)", variance_naive(g)),
        ("general (single edge pass)", variance_general(g)),
        ("general + pair table", variance_general_reuse(g)),
        ("closed form", variance_rla_closed(g)),
    ]:
        print(f"  {label:<42} -> {r.variance}")

    t = random_tree(1000, seed=3)
    print()
    print(f"Forests get a linear-time route: tree with n=1000 has "
          f"Var[C] = {variance_forest(t).variance}")
    assert variance_forest(t).variance == variance_rla_closed(t).variance


if __name__ == "__main__":
    main()
