"""Outputs pinned to the bit, and the work done to produce them.

`pinned_outputs.json` holds values captured from the implementation that
computed A x twice per power sweep, re-derived subtree codes at every
ancestor in `canonical_order`, and built a `Tree` for every decoration in
enumeration.  The leaner code must reproduce them exactly.
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from treeindex import enumeration, spectral
from treeindex.enumeration import enumerate_trees, free_trees, tied_minimizer_examples
from treeindex.spectral import spectral_radius
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


def relabelled_caterpillar():
    base = make_caterpillar(3, 42)
    perm = list(range(base.vertex_count))
    random.Random(2009).shuffle(perm)
    return tree_from_edges(base.vertex_count, [(perm[u], perm[v]) for u, v in base.edges()])


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


class TestOneMatvecPerSweep:
    class CountingNumpy:
        """Stands in for numpy inside `spectral`, counting `np.add.at`."""

        def __init__(self):
            self.calls = 0
            self.add = self

        def at(self, *args):
            self.calls += 1
            return np.add.at(*args)

        def __getattr__(self, name):
            return getattr(np, name)

    @pytest.mark.parametrize("extended", [False, True])
    def test_sweeps_without_polish(self, monkeypatch, extended):
        counting = self.CountingNumpy()
        monkeypatch.setattr(spectral, "np", counting)
        r = spectral_radius(FORK_19, extended=extended)
        # one A x per sweep plus the one that checks the last iterate, two
        # np.add.at calls each
        assert counting.calls == 2 * (r.iterations + 1)


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
