"""The graph family generators and the free-tree enumerator."""

import hashlib
from itertools import product

import pytest

from crossvar.errors import ValidationError
from crossvar.generators import (
    _canonical_form,
    _prufer_decode,
    all_trees,
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

# number of unlabeled free trees on 1..10 vertices
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)


def fingerprint(labelled) -> str:
    """SHA-256 over each label line and the graph's edge arrays."""
    h = hashlib.sha256()
    for label, g in labelled:
        h.update(f"{label}\n".encode())
        h.update(g.edge_u.tobytes())
        h.update(g.edge_v.tobytes())
    return h.hexdigest()


class TestDeterministicFamilies:
    def test_complete(self):
        g = complete(4)
        assert (g.n, g.m) == (4, 6)
        assert all(d == 3 for d in g.degrees)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert (g.n, g.m) == (5, 6)
        assert sorted(g.degrees) == [2, 2, 2, 3, 3]

    def test_path_and_cycle(self):
        assert path(6).m == 5
        g = cycle(4)
        assert g.m == 4 and all(d == 2 for d in g.degrees)

    def test_cycle_needs_three(self):
        with pytest.raises(ValidationError):
            cycle(2)

    def test_star(self):
        g = star(7)
        assert g.degrees[0] == 6 and g.degrees[1:] == (1,) * 6

    def test_quasi_star(self):
        g = quasi_star(7)
        assert g.is_forest() and g.m == 6
        assert sorted(g.degrees, reverse=True) == [5, 2, 1, 1, 1, 1, 1]

    def test_one_regular(self):
        g = one_regular(10)
        assert all(d == 1 for d in g.degrees)

    def test_one_regular_rejects_odd(self):
        with pytest.raises(ValidationError):
            one_regular(7)

    @pytest.mark.parametrize("make,message", [
        (lambda: complete(0), "complete graph needs n >= 1"),
        (lambda: complete_bipartite(0, 2), "complete bipartite graph needs both parts"),
        (lambda: path(0), "path needs n >= 1"),
        (lambda: star(0), "star needs n >= 1"),
        (lambda: quasi_star(2), "quasi-star needs n >= 3"),
        (lambda: erdos_renyi(-1, 0.5), "erdos_renyi needs n >= 0"),
        (lambda: random_tree(0), "random_tree needs n >= 1"),
        (lambda: random_forest(-1), "random_forest needs n >= 0"),
    ], ids=["complete", "complete-bipartite", "path", "star", "quasi-star",
            "erdos-renyi", "random-tree", "random-forest"])
    def test_too_small_rejected(self, make, message):
        with pytest.raises(ValidationError, match=message):
            make()


class TestRandomFamilies:
    def test_er_reproducible(self):
        assert erdos_renyi(15, 0.3, seed=7) == erdos_renyi(15, 0.3, seed=7)

    def test_er_probability_range(self):
        with pytest.raises(ValidationError):
            erdos_renyi(5, 1.5)

    def test_er_extremes(self):
        assert erdos_renyi(6, 0.0, seed=0).m == 0
        assert erdos_renyi(6, 1.0, seed=0).m == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_random_tree_is_tree(self, n):
        g = random_tree(n, seed=n)
        assert g.m == n - 1 and g.is_forest()

    def test_random_tree_on_two_vertices(self):
        # the decode of the empty code
        assert random_tree(2, seed=5) == _prufer_decode([], 2) == path(2)

    @pytest.mark.parametrize("n,seed", list(product([4, 9, 12], [0, 1])))
    def test_random_forest_is_forest(self, n, seed):
        assert random_forest(n, seed=seed).is_forest()


class TestAllTrees:
    @pytest.mark.parametrize("n,count", list(enumerate(FREE_TREE_COUNTS, start=1)))
    def test_free_tree_counts(self, n, count):
        trees = list(all_trees(n))
        assert len(trees) == count
        for t in trees:
            assert t.n == n and t.m == n - 1 and t.is_forest()

    def test_no_duplicates(self):
        forms = [_canonical_form(t) for t in all_trees(8)]
        assert len(forms) == len(set(forms))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_labeled_enumeration(self, n):
        # oracle: decode every length n-2 code over [n] and deduplicate
        forms = set()
        for seq in product(range(n), repeat=n - 2):
            forms.add(_canonical_form(_prufer_decode(list(seq), n)))
        assert len(forms) == len(list(all_trees(n)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            list(all_trees(11))

    def test_same_trees_in_the_same_order(self):
        # every free tree on 1..10 vertices, its edges and its place in the
        # order, pinned
        trees = [(t.n, t) for n in range(1, 11) for t in all_trees(n)]
        assert fingerprint(trees) == (
            "1a0aace98f65dee765107525bbcecf45a78db1f5194afad97b82047bb8d1f22d"
        )


def test_corpus_fingerprint(full_corpus):
    # every graph of the selftest corpus, its name, n and edges, in order
    assert len(full_corpus) == 328
    assert fingerprint((f"{name} {g.n}", g) for name, g in full_corpus) == (
        "e627a149de3eaa9676d47fa160942d1a94bd81c75fdde8f9a98e3f306153acbc"
    )
