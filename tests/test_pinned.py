"""Outputs pinned to the bit, and the work done to produce them.

`pinned_outputs.json` holds values captured from earlier implementations
that the leaner code must reproduce exactly: the `free_trees`,
enumeration, canonical-order and `verify_min_stdout_sha256` entries, and
every minimizer set, edge list, code and reduction route.  The floats
that come from an index solve, the `spectral_*` entries, `min_mu` and
`gap_to_runner_up` in the search entries, and the Rayleigh data of the
`reduce_json` and `witness_sha256` entries, were captured from the solve
by inertia-count bisection and inverse iteration, which gives the
correctly rounded index and depends on the tree alone, not on the BLAS
kernel.  Where one of them moved at that capture, from the power
iteration's last bits, the new value is checked here in exact arithmetic.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treeindex import enumeration, spectral
from treeindex.cli import main
from treeindex.enumeration import (
    TIED_MINIMIZER_CLASS,
    enumerate_trees,
    find_minimizers,
    free_trees,
    tied_minimizer_examples,
)
from treeindex.spectral import ConvergenceError, adjacency_matrix, spectral_radius
from treeindex.transforms import ReductionError, caterpillar_bound_witness
from treeindex.trees import (
    DegreeSequence,
    Tree,
    canonical_order,
    make_caterpillar,
    make_path,
    make_star,
    tree_from_edges,
    tree_to_json,
)

PINNED = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())
FORK_19 = tied_minimizer_examples()[0]
SPIDER_10 = tree_from_edges(
    10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
)


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


# trees whose full spectral_radius JSON is pinned by its sha256
SHA_TREES = {
    **{
        f"path_{n}_relabelled_seed_{n}": lambda n=n: relabelled(make_path(n), random.Random(n))
        for n in (300, 600, 1200)
    },
    "caterpillar_4_302": lambda: make_caterpillar(4, 302),
    "caterpillar_4_302_relabelled_seed_302": lambda: relabelled(make_caterpillar(4, 302), random.Random(302)),
    "semiregular_3_60_seed_1": lambda: random_semiregular(3, 60, 1),
    "semiregular_4_80_seed_2": lambda: random_semiregular(4, 80, 2),
    "semiregular_5_50_seed_3": lambda: random_semiregular(5, 50, 3),
}

# trees whose witness replay and reduce output are pinned: both replay
# routes occur, and FORK_19 is refused as not semiregular
REPLAY_TREES = {
    "spider_10": lambda: SPIDER_10,
    "fork_19": lambda: FORK_19,
    **{
        f"semiregular_{d}_{k}_seed_{s}": lambda d=d, k=k, s=s: random_semiregular(d, k, s)
        for d, k, s in ((3, 14, 4), (3, 14, 5), (4, 10, 3), (4, 10, 4), (5, 8, 1), (5, 8, 4))
    },
}

# budgets on the 60-vertex path, which the power iteration once spent on
# sweeps: max_iter now bounds nothing, so each returns the default result,
# and tol=1e-300 lies below the residual, so it raises with that result
BUDGET_EXITS = {
    **{f"path_60_max_iter_{m}": dict(max_iter=m) for m in (1, 2, 3, 50)},
    "path_60_tol_1e-300_max_iter_3000": dict(tol=1e-300, max_iter=3000),
}


def assert_exact_index(t, r):
    """r is the index of t correctly rounded, with a positive vector whose
    residual is at most 1e-15."""
    assert is_correctly_rounded_index(t, r.mu)
    assert np.all(r.perron > 0.0)
    assert r.residual <= 1e-15


class TestPinnedSpectra:
    def test_fork19(self):
        r = spectral_radius(FORK_19)
        assert r.to_json() == PINNED["spectral_fork19"]
        assert r.mu == math.sqrt(6)
        assert_exact_index(FORK_19, r)

    def test_path60_through_the_polish(self):
        # 52 float counts of the bisection, 3 exact counts and 3 solves
        r = spectral_radius(make_path(60), max_iter=2000)
        assert r.iterations == 58
        assert r.to_json() == PINNED["spectral_path60_max_iter_2000"]
        assert_exact_index(make_path(60), r)

    @pytest.mark.parametrize("name", SHA_TREES)
    def test_sha256(self, name):
        got = sha256(spectral_radius(SHA_TREES[name]()).to_json())
        assert got == PINNED["spectral_sha256"][name]

    @pytest.mark.parametrize("name", BUDGET_EXITS)
    def test_budget_exits(self, name):
        message = None
        try:
            r = spectral_radius(make_path(60), **BUDGET_EXITS[name])
        except ConvergenceError as err:
            message, r = str(err), err.result
        assert [message, sha256(r.to_json())] == PINNED["spectral_budget_exits"][name]

    @pytest.mark.parametrize("k", range(3, 11))
    def test_free_trees_are_correctly_rounded(self, k):
        # P4 among them, and every tree whose elimination meets a pivot
        # that rounds to 0.0
        for t in free_trees(k):
            assert_exact_index(t, spectral_radius(t))


class TestOneMatvecPerSweep:
    class CountingNumpy:
        """Stands in for numpy inside `spectral`, counting the scatter calls
        that once computed A x, `np.bincount`."""

        def __init__(self):
            self.bincounts = 0

        def bincount(self, *args, **kwargs):
            self.bincounts += 1
            return np.bincount(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(np, name)

    def test_sweeps_without_polish(self, monkeypatch):
        # no sweep: the solve is O(n) passes of the elimination, and the
        # one A x, the residual's, sums each vertex's neighbors by math.fsum
        counting = self.CountingNumpy()
        monkeypatch.setattr(spectral, "np", counting)
        r = spectral_radius(FORK_19)
        assert counting.bincounts == 0
        assert r.iterations <= 60

    def test_paths_sum_two_columns(self, monkeypatch):
        # a path of either parity, and whatever max_iter, takes the same
        # passes; its index is correctly rounded
        counting = self.CountingNumpy()
        monkeypatch.setattr(spectral, "np", counting)
        for n in (60, 61):
            t = relabelled(make_path(n), random.Random(n))
            r = spectral_radius(t, max_iter=2000)
            assert r.iterations <= 60
            assert_exact_index(t, r)
        assert counting.bincounts == 0


class TestPinnedEnumeration:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_free_trees(self, k):
        assert edge_lists(free_trees(k)) == PINNED[f"free_trees_{k}"]

    @pytest.mark.parametrize("key", sorted(PINNED["free_trees_adjacency_sha256"]))
    def test_free_trees_numbering(self, key):
        k, bound = key.split(",")
        got = free_trees(int(k), None if bound == "None" else int(bound))
        digest = hashlib.sha256(repr([t.adjacency for t in got]).encode()).hexdigest()
        assert digest == PINNED["free_trees_adjacency_sha256"][key]

    @pytest.mark.parametrize("pi", sorted(PINNED["enumerate_edge_lists_sha256"]))
    def test_edge_lists(self, pi):
        got = edge_lists(enumerate_trees(DegreeSequence.parse(pi)))
        pinned = PINNED["enumerate_edge_lists_sha256"][pi]
        assert len(got) == pinned["count"]
        digest = hashlib.sha256(json.dumps(got, separators=(",", ":")).encode()).hexdigest()
        assert digest == pinned["sha256"]

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
        # one Tree per tree of the class and one per tree of every free_trees
        # level the enumeration reaches: the class's skeletons, their own
        # skeletons, and so on down
        pi = DegreeSequence.parse(pi)
        enumeration.free_trees.cache_clear()
        builds = []
        edge_builds = []
        levels = {}
        cached = enumeration.free_trees

        def counted(adjacency):
            builds.append(len(adjacency))
            return Tree(adjacency)

        def counted_edges(n, edges):
            edge_builds.append(n)
            return tree_from_edges(n, edges)

        def recorded(k, max_degree=None):
            got = cached(k, max_degree)
            levels[k, max_degree] = len(got)
            return got

        monkeypatch.setattr(enumeration, "Tree", counted)
        monkeypatch.setattr(enumeration, "tree_from_edges", counted_edges)
        monkeypatch.setattr(enumeration, "free_trees", recorded)
        trees = list(enumerate_trees(pi))
        monkeypatch.undo()
        internal = [x for x in pi.degrees if x >= 2]
        assert (len(internal), max(internal)) in levels
        assert len(builds) == len(trees) + sum(levels.values())
        assert edge_builds == []


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

    # the unique minimizers whose min_mu was captured anew from the
    # correctly rounded solve; 5^3,3,1^12 has index sqrt(7), and the last
    # is the class of the search golden test
    @pytest.mark.parametrize("pi", ["5^3,3,1^12", "4^3,3,2^3,1^9", "4^3,3^3,2,1^11"])
    def test_unique_min_mu_is_the_correctly_rounded_index(self, pi):
        report = find_minimizers(DegreeSequence.parse(pi))
        (t,) = report.minimizers
        assert is_correctly_rounded_index(t, report.min_mu)
        assert_exact_index(t, spectral_radius(t))
        if pi == "5^3,3,1^12":
            assert report.min_mu == math.sqrt(7)


# tie classes with n <= 18 beyond those of counterexample_minimizers; the
# minimizers of all eight tie at more than one tree
TIE_CLASSES = sorted(PINNED["tie_class_minimizers"])
# every pinned class whose minimizers tie, the reference class included
PINNED_TIES = TIE_CLASSES + [
    "4^3,3,1^9", "5,4^2,3,2,1^10", "4^3,3^2,1^10", TIED_MINIMIZER_CLASS.compact()
]
# a class whose two minimizers tie at an index other than sqrt(6),
# 2.3268462696046541890...
OFF_SQRT6_TIE = "5,4^2,3,2^5,1^10"


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def characteristic_polynomial(t: Tree) -> list[int]:
    """det(xI - A) of a tree, integer coefficients from the constant term
    up.  For a tree it is the matching polynomial (Godsil and Gutman,
    J. Graph Theory 5, 1981), built by a DP rooted at vertex 0: with A_v the
    polynomial of v's subtree and B_v that of the subtree without v,
    A_v = x prod A_c - sum_c B_c prod_{c' != c} A_c' and B_v = prod A_c over
    the children c of v."""
    order, parent = [0], {0: -1}
    for v in order:
        for u in t.adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    a, b = {}, {}
    for v in reversed(order):
        children = [u for u in t.adjacency[v] if u != parent[v]]
        whole = [1]
        for c in children:
            whole = _poly_mul(whole, a[c])
        poly = [0] + whole
        for c in children:
            term = b[c]
            for other in children:
                if other != c:
                    term = _poly_mul(term, a[other])
            for i, coeff in enumerate(term):  # degree two below poly's
                poly[i] -= coeff
        a[v], b[v] = poly, whole
    return a[0]


def _sign_at(coeffs: list[int], q: Fraction) -> int:
    # the sign of p(q) is that of the integer p(q) * den^deg
    deg, num, den = len(coeffs) - 1, q.numerator, q.denominator
    value = sum(c * num**k * den ** (deg - k) for k, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


def is_correctly_rounded_index(t: Tree, x: float) -> bool:
    """Whether the double x is the index of t correctly rounded: the
    characteristic polynomial changes sign, exactly, between the midpoints
    from x to its two neighbouring doubles (x -+ ulp/2 unless x is a power
    of two), and every other eigenvalue lies below the lower one, by
    `eigvalsh` of the adjacency matrix."""
    lo = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    coeffs = characteristic_polynomial(t)
    second = np.linalg.eigvalsh(adjacency_matrix(t))[-2]
    return second < lo and _sign_at(coeffs, lo) * _sign_at(coeffs, hi) < 0


class TestCharacteristicPolynomial:
    """The exact oracle of TestPinnedTies against closed forms and numpy."""

    def test_path_and_star(self):
        assert characteristic_polynomial(make_path(4)) == [1, 0, -3, 0, 1]
        assert characteristic_polynomial(make_star(4)) == [0, 0, 0, -4, 0, 1]

    def test_coefficients_of_the_spectrum(self):
        for t in (FORK_19, make_caterpillar(4, 14)):
            from_spectrum = np.rint(np.poly(np.linalg.eigvalsh(adjacency_matrix(t))))
            assert from_spectrum[::-1].tolist() == characteristic_polynomial(t)


class TestPinnedTies:
    """Classes with tied minimizers, where the value that settles a tie
    decides what `search` prints."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_search_stdout(self, fmt):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["search", "--pi", TIED_MINIMIZER_CLASS.compact(), "--format", fmt])
        assert [rc, out.getvalue(), err.getvalue()] == [0, PINNED["search_tied_class_stdout"][fmt], ""]

    @pytest.mark.parametrize("pi", TIE_CLASSES)
    def test_find_minimizers_json(self, pi):
        report = find_minimizers(DegreeSequence.parse(pi))
        assert not report.unique
        assert report.to_json() == PINNED["tie_class_minimizers"][pi]

    @pytest.mark.parametrize("pi", PINNED_TIES + [OFF_SQRT6_TIE])
    def test_min_mu_is_the_correctly_rounded_index(self, pi):
        """Checked for every minimizer in exact integer arithmetic, by
        `is_correctly_rounded_index`."""
        report = find_minimizers(DegreeSequence.parse(pi))
        assert len(report.minimizers) >= 2
        for t in report.minimizers:
            assert is_correctly_rounded_index(t, report.min_mu)

    @pytest.mark.parametrize("direction", [-math.inf, math.inf])
    @pytest.mark.parametrize("pi", [TIED_MINIMIZER_CLASS.compact(), OFF_SQRT6_TIE])
    def test_the_check_rejects_one_ulp_off(self, pi, direction):
        report = find_minimizers(DegreeSequence.parse(pi))
        off = math.nextafter(report.min_mu, direction)
        assert not any(is_correctly_rounded_index(t, off) for t in report.minimizers)


class TestPinnedVerifyMin:
    """The whole stdout of `verify-min`, one row per tree of the class, for
    the 21 semiregular classes with d = 3..5 and n <= 22."""

    @pytest.mark.parametrize("key", sorted(PINNED["verify_min_stdout_sha256"]))
    def test_stdout(self, key):
        d, n = key.split(",")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify-min", "--d", d, "--n", n])
        assert rc == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED["verify_min_stdout_sha256"][key]


class TestPinnedReplay:
    """Every tree the switch replay builds is checked against the input at
    its end, so these pin what the replay computes on the way."""

    @pytest.mark.parametrize("name", REPLAY_TREES)
    def test_witness(self, name):
        try:
            w = caterpillar_bound_witness(REPLAY_TREES[name]())
        except ReductionError as err:
            got = f"ReductionError: {err}"
        else:
            h = hashlib.sha256(w.route.encode())
            h.update(repr(w.rq_trace).encode())
            h.update(w.valuation.tobytes())
            got = h.hexdigest()
        assert got == PINNED["witness_sha256"][name]

    @pytest.mark.parametrize("policy", ["minimal", "any"])
    @pytest.mark.parametrize("name", REPLAY_TREES)
    def test_reduce_json(self, tmp_path, name, policy):
        path = tmp_path / "tree.json"
        path.write_text(tree_to_json(REPLAY_TREES[name]()))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["reduce", str(path), "--policy", policy, "--format", "json"])
        assert [rc, out.getvalue(), err.getvalue()] == PINNED["reduce_json"][name][policy]
