"""Outputs pinned to the bit, and the work done to produce them.

`pinned_outputs.json` holds values captured from the implementation that
computed A x twice per power sweep, re-derived subtree codes at every
ancestor in `canonical_order`, and built a `Tree` for every decoration in
enumeration.  The `spectral_sha256`, `spectral_stage2` and
`spectral_budget_exits` entries were captured from the sweep that
scattered A x with two `np.add.at` passes and took the full residual
vector after every sweep.  The `counterexample_minimizers` entry was
captured from the implementation that found proper branches by component
search and arms by `Tree.path`.  The leaner code must reproduce them
exactly.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from treeindex import enumeration, spectral
from treeindex.enumeration import (
    enumerate_trees,
    find_minimizers,
    free_trees,
    tied_minimizer_examples,
)
from treeindex.spectral import ConvergenceError, spectral_radius
from treeindex.trees import (
    DegreeSequence,
    canonical_order,
    make_caterpillar,
    make_path,
    tree_from_edges,
)

PINNED = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())
FORK_19 = tied_minimizer_examples()[0]


def edge_lists(trees):
    return [[list(e) for e in t.edges()] for t in trees]


def relabelled(t, rng):
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    return tree_from_edges(t.vertex_count, [(perm[u], perm[v]) for u, v in t.edges()])


def relabelled_caterpillar():
    return relabelled(make_caterpillar(3, 42), random.Random(2009))


def random_semiregular(d, k, seed):
    """A random d-semiregular tree with k internal vertices: a random
    recursive skeleton with degrees at most d, filled up with pendant
    vertices, then relabelled."""
    rng = random.Random(seed)
    degree = [0] * k
    edges = []
    for v in range(1, k):
        u = rng.choice([w for w in range(v) if degree[w] < d])
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
    n = k
    for v in range(k):
        for _ in range(d - degree[v]):
            edges.append((v, n))
            n += 1
    return relabelled(tree_from_edges(n, edges), rng)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# trees whose full spectral_radius JSON is pinned by its sha256; the path
# runs 50,000 sweeps before the Rayleigh polish finishes it
SHA_TREES = {
    "path_300_relabelled_seed_300": lambda: relabelled(make_path(300), random.Random(300)),
    "caterpillar_4_302": lambda: make_caterpillar(4, 302),
    "semiregular_3_60_seed_1": lambda: random_semiregular(3, 60, 1),
    "semiregular_4_80_seed_2": lambda: random_semiregular(4, 80, 2),
    "semiregular_5_50_seed_3": lambda: random_semiregular(5, 50, 3),
}

# small or unreachable targets on the 60-vertex path.  Budgets of 1-3
# sweeps start the polish at once, and it settles on a non-Perron
# eigenvector; 50 sweeps converge; tol=1e-300 runs out of sweeps.
BUDGET_EXITS = {
    **{f"path_60_max_iter_{m}": dict(max_iter=m) for m in (1, 2, 3, 50)},
    "path_60_tol_1e-300_max_iter_3000": dict(tol=1e-300, max_iter=3000),
}


class TestPinnedSpectra:
    def test_fork19(self):
        assert spectral_radius(FORK_19).to_json() == PINNED["spectral_fork19"]

    def test_fork19_extended(self):
        got = spectral_radius(FORK_19, extended=True).to_json()
        assert got == PINNED["spectral_fork19_extended"]

    def test_path60_through_the_polish(self):
        r = spectral_radius(make_path(60), max_iter=2000)
        assert r.iterations == 1002  # 1000 sweeps, then two inverse-iteration solves
        assert r.to_json() == PINNED["spectral_path60_max_iter_2000"]

    @pytest.mark.parametrize("name", SHA_TREES)
    def test_sha256(self, name):
        got = sha256(spectral_radius(SHA_TREES[name]()).to_json())
        assert got == PINNED["spectral_sha256"][name]

    @pytest.mark.parametrize("i", range(3))
    def test_stage2_settings_on_the_ties(self, i):
        t = tied_minimizer_examples()[i]
        got = spectral_radius(t, tol=1e-14, max_iter=20_000, extended=True).to_json()
        assert got == PINNED["spectral_stage2"][i]

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("name", BUDGET_EXITS)
    def test_budget_exits(self, name, extended):
        message = None
        try:
            r = spectral_radius(make_path(60), extended=extended, **BUDGET_EXITS[name])
        except ConvergenceError as err:
            message, r = str(err), err.result
        key = f"{name}_extended" if extended else name
        assert [message, sha256(r.to_json())] == PINNED["spectral_budget_exits"][key]


class TestOneMatvecPerSweep:
    class CountingNumpy:
        """Stands in for numpy inside `spectral`, counting the scatter calls
        that compute A x: `np.bincount` and `np.add.at`."""

        def __init__(self):
            self.calls = {"bincount": 0, "add.at": 0}
            self.add = self

        def bincount(self, *args, **kwargs):
            self.calls["bincount"] += 1
            return np.bincount(*args, **kwargs)

        def at(self, *args):
            self.calls["add.at"] += 1
            return np.add.at(*args)

        def __getattr__(self, name):
            return getattr(np, name)

    @pytest.mark.parametrize("extended", [False, True])
    def test_sweeps_without_polish(self, monkeypatch, extended):
        counting = self.CountingNumpy()
        monkeypatch.setattr(spectral, "np", counting)
        r = spectral_radius(FORK_19, extended=extended)
        # one A x per sweep plus the one that checks the last iterate, each a
        # single scatter: bincount in float64, np.add.at in extended precision
        scatter, other = ("add.at", "bincount") if extended else ("bincount", "add.at")
        assert counting.calls[scatter] == r.iterations + 1
        assert counting.calls[other] == 0


class TestPinnedEnumeration:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_free_trees(self, k):
        assert edge_lists(free_trees(k)) == PINNED[f"free_trees_{k}"]

    def test_mixed_class(self):
        got = edge_lists(enumerate_trees(DegreeSequence.parse("3^4,2^6,1^6")))
        assert len(got) == PINNED["enumerate_3^4,2^6,1^6_count"]
        digest = hashlib.sha256(json.dumps(got, separators=(",", ":")).encode()).hexdigest()
        assert digest == PINNED["enumerate_3^4,2^6,1^6_sha256"]

    def test_semiregular_class(self):
        got = edge_lists(enumerate_trees(DegreeSequence.semiregular(3, 20)))
        assert got == PINNED["enumerate_semiregular_3_20"]

    @pytest.mark.parametrize("pi", ["3^4,2^6,1^6", "4^3,3^2,2^3,1^10", "3^9,1^11", "2^3,1^2"])
    def test_one_build_per_tree_and_per_skeleton(self, monkeypatch, pi):
        pi = DegreeSequence.parse(pi)
        enumeration.free_trees.cache_clear()
        enumeration._rooted_trees.cache_clear()
        builds = []

        def counted(n, edges):
            builds.append(n)
            return tree_from_edges(n, edges)

        monkeypatch.setattr(enumeration, "tree_from_edges", counted)
        trees = list(enumerate_trees(pi))
        monkeypatch.undo()
        skeletons = free_trees(sum(1 for x in pi.degrees if x >= 2))
        assert len(builds) == len(trees) + len(skeletons)


class TestPinnedCanonicalOrder:
    def test_fork19(self):
        assert canonical_order(FORK_19) == PINNED["canonical_order_fork19"]

    def test_relabelled_caterpillar(self):
        got = canonical_order(relabelled_caterpillar())
        assert got == PINNED["canonical_order_relabelled_caterpillar_3_42_seed_2009"]


class TestPinnedCounterexamples:
    """Classes whose minimizers include a tree that is not a caterpillar;
    in `5^3,3,1^12` and `4^3,3,2^3,1^9` it is the only minimizer.  The
    reports run `arms` on mixed trees with branching points."""

    @pytest.mark.parametrize("pi", sorted(PINNED["counterexample_minimizers"]))
    def test_find_minimizers_json(self, pi):
        got = find_minimizers(DegreeSequence.parse(pi)).to_json()
        assert got == PINNED["counterexample_minimizers"][pi]
        assert '"all_caterpillars":false' in got
