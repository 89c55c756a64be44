"""Generator soundness and extremal search, cross-checked against known
free-tree counts and a brute-force labeled enumeration."""

import gc
import hashlib
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from test_spectral import built_indices, oracle_indices
from treeindex import enumeration, spectral
from treeindex import trees as trees_module
from treeindex.cli import main
from treeindex.enumeration import (
    DEFAULT_MAX_N,
    TIED_MINIMIZER_CLASS,
    MinimizerObservations,
    _decorated,
    _decorations,
    _exact_rayleigh,
    _least_rooting,
    _listing,
    _observe,
    _pendant_counts,
    _screen,
    enumerate_semiregular,
    enumerate_trees,
    extremal_choice,
    extremal_report,
    find_maximizers,
    find_minimizers,
    free_trees,
    tied_minimizer_examples,
)
from treeindex.spectral import _parent_indices, adjacency_matrix, spectral_radius
from treeindex.trees import (
    DegreeSequence,
    Tree,
    TreeError,
    _centers,
    canonical_form,
    canonical_order,
    is_caterpillar,
    make_caterpillar,
    make_star,
    tree_from_edges,
)

# number of non-isomorphic trees on 1..10 vertices
FREE_TREE_COUNTS = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
# number of trees on 1..14 vertices with degrees at most 3 (OEIS A000672)
# and at most 4 (OEIS A000602)
MAX_DEGREE_3_COUNTS = [1, 1, 1, 2, 2, 4, 6, 11, 18, 37, 66, 135, 265, 552]
MAX_DEGREE_4_COUNTS = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802, 1858]
# sha256 over repr(t.adjacency) of every tree enumerate_trees yields for
# the 193 classes with 3 <= n <= 15 and degrees <= 5 (10,940 trees), in
# all_tree_degree_sequences order, captured from the recursive pendant walker
# and the sorted-label coding that the decoration loop had before
ENUMERATION_15_SHA256 = "fbb7ede366d529a44922f2353513075b2782cd3a1fee58dadbbf2b56c14a1a11"
# trees of the classes with 1 <= n <= 14 and degrees <= 5
COUNT_14 = 4589


def prufer_tree(seq, n):
    """Labeled tree on n vertices from one length n-2 sequence."""
    import heapq

    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tree_from_edges(n, edges)


def brute_force_classes(n):
    """All non-isomorphic trees on n vertices via labeled enumeration,
    grouped by degree sequence."""
    classes = {}
    if n == 1:
        classes[(0,)] = {canonical_form(tree_from_edges(1, []))}
        return classes
    if n == 2:
        classes[(1, 1)] = {canonical_form(tree_from_edges(2, [(0, 1)]))}
        return classes
    for seq in product(range(n), repeat=n - 2):
        t = prufer_tree(list(seq), n)
        key = tuple(sorted(t.degrees(), reverse=True))
        classes.setdefault(key, set()).add(canonical_form(t))
    return classes


def least_rooting(adj):
    """The least nested tuple over all rootings of the tree, by rooting it
    at every vertex in turn."""
    def nest(v, parent):
        return tuple(sorted(nest(u, v) for u in adj[v] if u != parent))

    return min(nest(root, -1) for root in range(len(adj)))


def preorder_adjacency(code):
    """Neighbor tuples of a nested-tuple rooted tree, its vertices numbered
    in preorder: each vertex's parent, then its children, which is
    ascending.  Children go on the stack last first, so the first is
    numbered next."""
    adj = [[]]
    stack = [(child, 0) for child in reversed(code)]
    while stack:
        node, up = stack.pop()
        adj[up].append(len(adj))
        adj.append([up])
        stack.extend((child, len(adj) - 1) for child in reversed(node))
    return tuple(map(tuple, adj))


def split_skeleton(t):
    """The decoration of a tree on three or more vertices: its skeleton,
    the vertices of degree >= 2 renumbered in ascending order, and how
    many leaves each of them carries."""
    inner = [v for v in range(t.vertex_count) if t.degree(v) >= 2]
    new = {v: i for i, v in enumerate(inner)}
    edges = [(new[u], new[v]) for u, v in t.edges() if u in new and v in new]
    pendants = tuple(sum(t.degree(u) == 1 for u in t.adjacency[v]) for v in inner)
    return tree_from_edges(len(inner), edges), pendants


def relabelled(n, edges, seed):
    """The tree on n vertices with these edges under a random relabelling."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return tree_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def comb(spine):
    """A path of spine vertices with one leaf hung from each."""
    edges = [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)]
    return relabelled(2 * spine, edges, spine)


def spider(*legs):
    """Paths of the given lengths joined at one centre."""
    edges, n = [], 1
    for leg in legs:
        edges += [(0 if i == 0 else n + i - 1, n + i) for i in range(leg)]
        n += leg
    return relabelled(n, edges, n)


def random_tree(n, seed):
    """A random labeled tree on n vertices from a seeded Prufer sequence."""
    rng = random.Random(seed)
    return prufer_tree([rng.randrange(n) for _ in range(n - 2)], n)


LEAST_ROOTING_SWEEP = {
    **{f"random {n} seed {seed}": random_tree(n, seed) for n in (15, 23, 31, 47, 60) for seed in (1, 2)},
    **{f"comb {spine}": comb(spine) for spine in (2, 3, 4, 7, 12, 30)},
    **{f"spider {legs}": spider(*legs) for legs in ((1, 1, 1), (2, 2, 2, 2), (1, 3, 3), (2, 5, 9), (1, 1, 6, 6))},
    **{f"path {n}": spider(n - 1) for n in (3, 4, 15, 60)},
}


def all_tree_degree_sequences(n):
    """Every realizable tree degree sequence on n vertices."""
    if n == 1:
        return [DegreeSequence((0,))]
    out = []

    def rec(remaining, slots, cap, acc):
        if slots == 0:
            if remaining == 0:
                out.append(DegreeSequence(tuple(acc)))
            return
        lo = math.ceil(remaining / slots)
        for d in range(min(cap, remaining - (slots - 1)), 0, -1):
            if d * slots < remaining:
                break
            rec(remaining - d, slots - 1, d, acc + [d])

    rec(2 * (n - 1), n, n - 1, [])
    return out


class TestFreeTrees:
    def test_known_counts(self):
        assert [len(free_trees(k)) for k in range(1, 11)] == FREE_TREE_COUNTS

    def test_trees_on_five_vertices(self):
        codes = {canonical_form(t) for t in free_trees(5)}
        explicit = {
            canonical_form(tree_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])),
            canonical_form(make_star(4)),
            canonical_form(tree_from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 4)])),
        }
        assert codes == explicit


    def test_counts_past_ten(self):
        assert [len(free_trees(k)) for k in (11, 12)] == [235, 551]

    def test_no_vertices_rejected(self):
        with pytest.raises(TreeError, match="^free_trees needs k >= 1$"):
            free_trees(0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_numbered_in_preorder_of_the_least_rooting(self, k):
        for bound in [None, *range(k + 1)]:
            for t in free_trees(k, bound):
                assert t.adjacency == preorder_adjacency(least_rooting(t.adjacency))


class TestLeastRooting:
    @pytest.mark.parametrize("name", sorted(LEAST_ROOTING_SWEEP))
    def test_matches_the_brute_force(self, name):
        # past the sizes free_trees reaches in these tests; every spine
        # vertex of a comb has the most pendants, one
        t = LEAST_ROOTING_SWEEP[name]
        assert _least_rooting(*split_skeleton(t)) == preorder_adjacency(least_rooting(t.adjacency))


class TestDegreeBoundedFreeTrees:
    @pytest.mark.parametrize("bound, counts", [(3, MAX_DEGREE_3_COUNTS), (4, MAX_DEGREE_4_COUNTS)])
    def test_counts_match_oeis(self, bound, counts):
        assert [len(free_trees(k, bound)) for k in range(1, 15)] == counts

    @pytest.mark.parametrize("k", range(1, 12))
    def test_degree_subsequence_of_the_unbounded_trees(self, k):
        # same trees, same order, same vertex numbering
        unbounded = free_trees(k)
        for bound in range(k + 1):
            fits = [t for t in unbounded if max(t.degrees()) <= bound]
            assert [t.edges() for t in free_trees(k, bound)] == [t.edges() for t in fits]

    def test_negative_bound_rejected(self):
        with pytest.raises(TreeError):
            free_trees(3, -1)

    def test_long_path_within_the_recursion_limit(self):
        # each skeleton level is decorated from the level two below it,
        # 349 levels here; built smallest first, they never nest deep
        free_trees.cache_clear()
        (t,) = free_trees(700, 2)
        assert sorted(t.degrees()) == [1, 1] + [2] * 698 and len(t.edges()) == 699


class TestEnumerateTrees:
    def test_single_edge_class(self):
        trees = list(enumerate_trees(DegreeSequence.parse("1,1")))
        assert len(trees) == 1 and trees[0].edges() == ((0, 1),)

    def test_one_vertex_class(self):
        trees = list(enumerate_trees(DegreeSequence((0,))))
        assert len(trees) == 1 and trees[0].vertex_count == 1

    def test_semiregular_class_sizes(self):
        assert len(list(enumerate_semiregular(3, 8))) == 1
        assert len(list(enumerate_semiregular(3, 10))) == 2
        assert len(list(enumerate_semiregular(3, 12))) == 2

    def test_class_3_10_contents(self):
        cat, spider = None, None
        for t in enumerate_semiregular(3, 10):
            if is_caterpillar(t):
                cat = t
            else:
                spider = t
        assert cat is not None and spider is not None
        assert canonical_form(cat) == canonical_form(make_caterpillar(3, 10))

    def test_empty_class_rejected(self):
        with pytest.raises(TreeError):
            list(enumerate_semiregular(3, 7))

    def test_unrealizable_rejected(self):
        with pytest.raises(TreeError):
            list(enumerate_trees(DegreeSequence.parse("3,3,1")))

    def test_small_mixed_class_by_hand(self):
        # internal degrees (3,2,2) on skeleton P_3: the leaf either pads the
        # middle or an end, giving exactly two non-isomorphic trees
        trees = list(enumerate_trees(DegreeSequence.parse("3,2,2,1,1,1")))
        assert len(trees) == 2

    def test_reference_class_contains_examples(self):
        codes = {canonical_form(t) for t in enumerate_trees(TIED_MINIMIZER_CLASS)}
        for t in tied_minimizer_examples():
            assert canonical_form(t) in codes

    def test_stream_deterministic_sorted_no_duplicates(self):
        pi = DegreeSequence.semiregular(3, 14)
        first = [canonical_form(t) for t in enumerate_trees(pi)]
        second = [canonical_form(t) for t in enumerate_trees(pi)]
        assert first == second
        assert len(set(first)) == len(first)
        assert first == sorted(first, key=lambda c: c.sort_key())

    def test_degree_sequences_respected(self):
        pi = TIED_MINIMIZER_CLASS
        for t in enumerate_trees(pi):
            assert DegreeSequence.of_tree(t) == pi

    def test_against_labeled_brute_force(self):
        for n in range(1, 8):
            expected = brute_force_classes(n)
            for pi in all_tree_degree_sequences(n):
                got = {canonical_form(t) for t in enumerate_trees(pi)}
                assert got == expected.get(pi.degrees, set()), (n, pi.degrees)

    def test_completeness_against_free_tree_counts(self):
        for n in range(1, 9):
            total = sum(
                len(list(enumerate_trees(pi))) for pi in all_tree_degree_sequences(n)
            )
            assert total == FREE_TREE_COUNTS[n - 1]

    def test_equal_rows_of_a_class_are_one_tuple(self):
        trees = enumerate_trees(DegreeSequence.parse("3^6,2^4,1^8"))
        rows = [row for t in trees for row in t.adjacency]
        assert len(rows) == 30762
        assert len({id(row) for row in rows}) == len(set(rows)) == 196

    def test_trees_are_slotted_and_compare_by_value(self):
        a, b = list(enumerate_trees(DegreeSequence.parse("3,2,2,1,1,1")))
        again = tree_from_edges(a.vertex_count, a.edges())
        assert not hasattr(a, "__dict__")
        assert a.adjacency is not again.adjacency
        assert a == again and hash(a) == hash(again)
        assert a != b and len({a, b, again}) == 2


# every decoration of these classes is coded on its skeleton and checked
# against the code of its full neighbor lists
DECORATION_SWEEP = [
    DegreeSequence.semiregular(d, n)
    for d in (3, 4, 5) for n in range(d + 1, 21) if (n - 2) % (d - 1) == 0
] + [DegreeSequence.parse(p) for p in
     ("4^4,3^2,2,1^12", "4^3,3^3,2,1^11", "3^4,2^6,1^6", "5,4^2,3,2,1^10")]


def every_decoration(monkeypatch):
    """Make `_decorations` walk every pendant vector of each skeleton, the
    twin-leaf swaps it skips included, by handing it the recursive walk."""
    def walk(degrees, counts, twin=()):
        return recursive_pendant_counts(degrees, dict(sorted(counts.items(), reverse=True)), [0] * len(degrees))

    monkeypatch.setattr(enumeration, "_pendant_counts", walk)


def first_met(internal):
    """The first (skeleton, pendants) `_decorations` yields of each code."""
    first = {}
    for code, item in _decorations(internal):
        first.setdefault(code, item)
    return first


# decorations of the DECORATION_SWEEP classes with n <= 16 by the full walk,
# and how many of them have two or more skeleton vertices with the most
# pendants: 1,515 and 676 in all
EVERY_DECORATION_16 = {
    "3,1^3": (1, 0), "3^2,1^4": (1, 1), "3^3,1^5": (1, 1), "3^4,1^6": (2, 2),
    "3^5,1^7": (2, 2), "3^6,1^8": (4, 4), "3^7,1^9": (6, 6), "4,1^4": (1, 0),
    "4^2,1^6": (1, 1), "4^3,1^8": (1, 1), "4^4,1^10": (2, 2), "5,1^5": (1, 0),
    "5^2,1^8": (1, 1), "5^3,1^11": (1, 1), "3^4,2^6,1^6": (1346, 597),
    "5,4^2,3,2,1^10": (144, 57),
}


class TestDecorationCodes:
    @pytest.mark.parametrize("pi", [pi for pi in DECORATION_SWEEP if pi.n <= 16], ids=lambda pi: pi.compact())
    def test_least_rooting_of_every_decoration(self, pi, monkeypatch):
        # every decoration, not only the first met per code as in
        # free_trees, so skeletons with several tied roots are coded too
        every_decoration(monkeypatch)
        internal = tuple(x for x in pi.degrees if x >= 2)
        checked = tied = 0
        for _, (skeleton, pendants) in _decorations(internal):
            adj = _decorated(skeleton, pendants, tuple(range(pi.n)), {})
            assert _least_rooting(skeleton, pendants) == preorder_adjacency(least_rooting(adj))
            checked += 1
            tied += pendants.count(max(pendants)) > 1
        assert (checked, tied) == EVERY_DECORATION_16[pi.compact()]

    def test_every_decoration_of_the_sweep_through_n_16(self):
        assert sorted(EVERY_DECORATION_16) == sorted(pi.compact() for pi in DECORATION_SWEEP if pi.n <= 16)
        assert [sum(col) for col in zip(*EVERY_DECORATION_16.values())] == [1515, 676]

    @pytest.mark.parametrize("pi", DECORATION_SWEEP, ids=lambda pi: pi.compact())
    def test_code_read_off_the_skeleton(self, pi, monkeypatch):
        every_decoration(monkeypatch)
        internal = tuple(x for x in pi.degrees if x >= 2)
        codes = set()
        for code, (skeleton, pendants) in _decorations(internal):
            adj = _decorated(skeleton, pendants, tuple(range(pi.n)), {})
            assert _centers(skeleton.adjacency) == _centers(adj)
            assert code == canonical_form(Tree(adj)).code
            codes.add(code)
        assert codes == {canonical_form(t).code for t in enumerate_trees(pi)}

    def test_listing_codes_are_canonical_forms_through_n_14(self):
        # verify-min prints these codes in place of canonical_form's
        count = 0
        for n in range(1, 15):
            for pi in all_tree_degree_sequences(n):
                if max(pi.degrees) <= 5:
                    listing = _listing(pi)
                    trees = list(listing)
                    assert trees == list(enumerate_trees(pi))
                    for code, t in zip(listing.codes, trees, strict=True):
                        assert code == canonical_form(t).code
                    count += len(trees)
        assert count == COUNT_14

    def test_pinned_output_through_n_15(self):
        digest = hashlib.sha256()
        count = 0
        for n in range(3, 16):
            for pi in all_tree_degree_sequences(n):
                if max(pi.degrees) <= 5:
                    for t in enumerate_trees(pi):
                        digest.update(repr(t.adjacency).encode())
                        count += 1
        assert count == 10940
        assert digest.hexdigest() == ENUMERATION_15_SHA256


def recursive_pendant_counts(degrees, counts, slack, v=0):
    """The recursive walk `_pendant_counts` replaced, kept as its
    reference: counts maps each value to its count, larger values first,
    and slack holds the numbers of the vertices before v."""
    if v == len(degrees):
        yield tuple(slack)
        return
    for value in counts:
        if counts[value] == 0 or value < degrees[v]:
            continue
        counts[value] -= 1
        slack[v] = value - degrees[v]
        yield from recursive_pendant_counts(degrees, counts, slack, v + 1)
        counts[value] += 1


def descending_counts(values):
    return {value: values.count(value) for value in sorted(set(values), reverse=True)}


class TestPendantCounts:
    @pytest.mark.parametrize("pi", DECORATION_SWEEP, ids=lambda pi: pi.compact())
    def test_same_sequence_as_the_recursive_walk(self, pi):
        internal = tuple(x for x in pi.degrees if x >= 2)
        counts = descending_counts(internal)
        for skeleton in free_trees(len(internal), max(internal)):
            degrees = skeleton.degrees()
            expected = list(recursive_pendant_counts(degrees, dict(counts), [0] * len(degrees)))
            assert list(_pendant_counts(degrees, counts, [len(degrees)] * len(degrees))) == expected
        assert counts == descending_counts(internal)

    @pytest.mark.parametrize("degrees, values, expected", [
        # one skeleton vertex takes the whole degree as pendants
        ((0,), (4,), [(4,)]),
        # all values equal: one assignment
        ((1, 2, 2, 1), (3, 3, 3, 3), [(2, 1, 1, 2)]),
        # no value fits the centre of the star
        ((3, 1, 1, 1), (2, 2, 2, 2), []),
        # descending lexicographic order, each distinct vector once
        ((1, 2, 1), (3, 2, 2), [(2, 0, 1), (1, 1, 1), (1, 0, 2)]),
    ])
    def test_edge_cases(self, degrees, values, expected):
        counts = descending_counts(values)
        reference = list(recursive_pendant_counts(degrees, dict(counts), [0] * len(degrees)))
        assert reference == expected
        assert list(_pendant_counts(degrees, counts, [len(degrees)] * len(degrees))) == expected


def leaf_twins(adj):
    """twin[v]: the last skeleton leaf before the leaf v with the same
    neighbour, or len(adj) if none."""
    k = len(adj)
    twin = [k] * k
    for v in range(k):
        before = [u for u in range(v) if len(adj[v]) == len(adj[u]) == 1 and adj[u] == adj[v]]
        if before:
            twin[v] = before[-1]
    return twin


def twin_ordered(slack, twin):
    """Whether no skeleton leaf has more pendants than its twin."""
    return all(slack[v] <= slack[u] for v, u in enumerate(twin) if u < len(twin))


class TestTwinLeaves:
    @pytest.mark.parametrize("pi", DECORATION_SWEEP, ids=lambda pi: pi.compact())
    def test_walk_is_the_reference_filtered_by_the_twin_rule(self, pi):
        internal = tuple(x for x in pi.degrees if x >= 2)
        counts = descending_counts(internal)
        for skeleton in free_trees(len(internal), max(internal)):
            degrees, twin = skeleton.degrees(), leaf_twins(skeleton.adjacency)
            reference = recursive_pendant_counts(degrees, dict(counts), [0] * len(degrees))
            expected = [slack for slack in reference if twin_ordered(slack, twin)]
            assert list(_pendant_counts(degrees, counts, twin)) == expected

    def test_edge_cases(self):
        # a star's three leaves are twins in turn, so they take their
        # values in descending order; the ends of a three-vertex path are
        # twins, and (1, 0, 2) is (2, 0, 1) swapped
        assert list(_pendant_counts((3, 1, 1, 1), descending_counts((3, 4, 3, 2)), [4, 4, 1, 2])) == [
            (1, 2, 2, 1), (0, 3, 2, 1)]
        assert list(_pendant_counts((1, 2, 1), descending_counts((3, 2, 2)), [3, 3, 0])) == [
            (2, 0, 1), (1, 1, 1)]

    @pytest.mark.parametrize("pi", DECORATION_SWEEP, ids=lambda pi: pi.compact())
    def test_same_first_decorations_as_the_full_walk(self, pi, monkeypatch):
        internal = tuple(x for x in pi.degrees if x >= 2)
        pruned = first_met(internal)
        every_decoration(monkeypatch)
        assert first_met(internal) == pruned

    def test_same_first_decorations_through_n_14(self, monkeypatch):
        classes = [tuple(x for x in pi.degrees if x >= 2)
                   for n in range(3, 15) for pi in all_tree_degree_sequences(n) if max(pi.degrees) <= 5]
        pruned = [first_met(internal) for internal in classes]
        every_decoration(monkeypatch)
        assert [first_met(internal) for internal in classes] == pruned
        assert sum(map(len, pruned)) == COUNT_14 - 2

    @pytest.mark.parametrize("pi, pruned, every", [
        ("5,4,3^3,2^3,1^10", 5842, 7840),
        ("4^4,3^2,2,1^12", 488, 695),
        ("4^3,3^3,2,1^11", 622, 870),
        ("4^3,3,2^8,1^9", 31827, 36048),
    ])
    def test_decorations_skipped(self, pi, pruned, every, monkeypatch):
        internal = tuple(x for x in DegreeSequence.parse(pi).degrees if x >= 2)
        assert sum(1 for _ in _decorations(internal)) == pruned
        every_decoration(monkeypatch)
        assert sum(1 for _ in _decorations(internal)) == every


class TestFindMinimizers:
    def test_unique_caterpillar_in_semiregular_class(self):
        report = find_minimizers(DegreeSequence.semiregular(3, 16))
        assert report.unique and report.all_caterpillars
        assert report.minimizer_codes[0] == canonical_form(make_caterpillar(3, 16))
        assert report.gap_to_runner_up > 1e-9

    def test_single_edge_class(self):
        report = find_minimizers(DegreeSequence.parse("1,1"))
        assert report.tree_count == 1
        assert report.min_mu == pytest.approx(1.0, abs=1e-12)
        assert report.gap_to_runner_up is None

    def test_scale_guard(self):
        big = DegreeSequence.parse("22," + ",".join(["1"] * 22))
        with pytest.raises(TreeError):
            find_minimizers(big)
        report = find_minimizers(big, max_n=25)
        assert report.min_mu == pytest.approx(math.sqrt(22), abs=1e-10)

    def test_buds_short_of_the_hub_degree(self):
        # trunk degrees 3, 4, 3: both half-trunks fall from the hub of
        # degree 4 to a bud of degree 3
        t = tree_from_edges(9, [(0, 1), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)])
        assert _observe(t) == MinimizerObservations(
            is_caterpillar=True, buds_have_max_branch_degree=False, trunk_degrees_monotone=True
        )

    def test_parallel_matches_serial(self):
        pi = DegreeSequence.semiregular(3, 14)
        serial = find_minimizers(pi)
        parallel = find_minimizers(pi, jobs=2)
        assert serial.minimizer_codes == parallel.minimizer_codes
        assert serial.min_mu == pytest.approx(parallel.min_mu, abs=1e-14)

    @pytest.mark.parametrize(
        "pi",
        [TIED_MINIMIZER_CLASS, DegreeSequence.parse("4^3,3^3,2,1^11"), DegreeSequence.semiregular(3, 16)],
        ids=lambda pi: pi.compact(),
    )
    def test_choice_is_the_reported_extremal_trees(self, pi):
        trees = _listing(pi, DEFAULT_MAX_N)
        mus = built_indices(list(trees))
        chosen = extremal_choice(trees, mus)
        assert tuple(trees[i] for i in chosen) == extremal_report(pi, trees, mus).minimizers

    def test_minimizer_codes_are_the_listing_codes(self, monkeypatch):
        coded = canonical_form

        def refuse(t):
            raise AssertionError("a minimizer was coded again")

        # whether it would come from the trees module or be imported by name
        monkeypatch.setattr(trees_module, "canonical_form", refuse)
        monkeypatch.setattr(enumeration, "canonical_form", refuse, raising=False)
        report = find_minimizers(TIED_MINIMIZER_CLASS)
        monkeypatch.undo()
        assert len(report.minimizers) == 11
        for t, code in zip(report.minimizers, report.minimizer_codes):
            assert code == coded(t)

    def test_never_screens_by_the_adjacency_matrices(self, capsys, monkeypatch):
        # every matrix the search and verify-min hand to eigvalsh is a
        # stacked Gram matrix of at most n // 2 rows, never an n x n
        # adjacency matrix
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def half_size(n):
            assert shapes, n
            assert all(len(shape) == 3 and shape[1] == shape[2] <= n // 2 for shape in shapes), (n, shapes)
            shapes.clear()

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for pi in (TIED_MINIMIZER_CLASS, DegreeSequence.parse("4^3,3^3,2,1^11")):
            find_minimizers(pi)
            half_size(pi.n)
        for d, n in ((3, 16), (4, 17)):
            assert main(["verify-min", "--d", str(d), "--n", str(n)]) == 0
            half_size(n)
        capsys.readouterr()

    @pytest.mark.parametrize("pi", ["3,1^3", "2^60,1^2"])
    def test_one_tree_class_skips_the_screen(self, monkeypatch, pi):
        # the screen only chooses which trees are solved, and a class of one
        # tree has no choice to make: the report must be the screened one
        pi = DegreeSequence.parse(pi)
        trees = _listing(pi, pi.n)
        assert len(trees) == 1
        want = extremal_report(pi, trees, _parent_indices(trees.parents())).to_json()

        def refuse(parent):
            if len(parent) == 1:
                raise AssertionError("a one-tree class was screened")
            return _parent_indices(parent)

        monkeypatch.setattr(enumeration, "_parent_indices", refuse)
        assert find_minimizers(pi, max_n=pi.n).to_json() == want

    def test_report_serialization(self):
        report = find_minimizers(DegreeSequence.semiregular(3, 12))
        text = report.to_json()
        assert '"unique":true' in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "canonical_code,mu,is_caterpillar,buds_max_degree,trunk_monotone"
        assert len(csv.splitlines()) == 2


class TestListingGuards:
    """`_listing` refuses an unrealizable class, and then a class past
    max_n, before it decorates anything."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        decorations = enumeration._decorations

        def spied(internal):
            calls.append(internal)
            return decorations(internal)

        monkeypatch.setattr(enumeration, "_decorations", spied)
        return calls

    def test_class_past_max_n_is_refused_undecorated(self, monkeypatch):
        pi = TIED_MINIMIZER_CLASS
        calls = self.spy(monkeypatch)
        with pytest.raises(TreeError, match=rf"^class has n={pi.n} > {pi.n - 1}; "):
            find_minimizers(pi, max_n=pi.n - 1)
        assert calls == []
        # the spy sees the listing once the class is allowed
        assert find_minimizers(pi, max_n=pi.n).tree_count == 333
        assert calls

    def test_unrealizable_is_refused_before_max_n(self, monkeypatch):
        # 34 vertices, past DEFAULT_MAX_N, with degree sum 94 != 2 * 33
        pi = DegreeSequence.parse("3^30,1^4")
        assert pi.n > DEFAULT_MAX_N
        calls = self.spy(monkeypatch)
        with pytest.raises(TreeError, match="not realizable"):
            find_minimizers(pi)
        assert calls == []

    def test_verify_min_past_max_n_exits_2_undecorated(self, capsys, monkeypatch):
        calls = self.spy(monkeypatch)
        assert main(["verify-min", "--d", "3", "--n", "24"]) == 2
        assert "class has n=24 > 22" in capsys.readouterr().err
        assert calls == []


def screened_pool(mus):
    """The candidates and the runner-up band a search solves, from the
    values of either screen."""
    screened, candidates = _screen(mus)
    rest = [i for i in range(len(screened)) if i not in candidates]
    if not rest:
        return candidates, []
    runner = min(screened[i] for i in rest)
    return candidates, [i for i in rest if screened[i] <= runner + enumeration._SCREEN_BAND]


class TestBipartiteScreen:
    """The class search screens by the half-size Gram stack of the trees in
    the listing's layout, and picks the trees the adjacency screen picks."""

    @pytest.fixture(scope="class")
    def listed(self):
        # every class with n <= 16 and degrees <= 5: "0", "1,1", "2,1,1"
        # and the 239 classes above them
        return [(pi, list(_listing(pi)))
                for n in range(1, 17) for pi in all_tree_degree_sequences(n) if max(pi.degrees) <= 5]

    def test_same_pool_as_the_adjacency_screen(self, listed):
        assert len(listed) == 242
        for pi, trees in listed:
            half, full = built_indices(trees), oracle_indices(trees)
            assert np.max(np.abs(half - full)) <= 1e-13, pi.compact()
            assert screened_pool(half) == screened_pool(full), pi.compact()

    def test_listing_layout(self, listed):
        # each vertex but 0 has one smaller neighbor, its parent, listed first
        for pi, trees in listed:
            for t in trees:
                for v, nbrs in enumerate(t.adjacency[1:], 1):
                    assert nbrs[0] < v and all(u > v for u in nbrs[1:]), pi.compact()

    @pytest.mark.parametrize("edges", [
        [(0, 2), (1, 2)],  # a path 0 - 2 - 1: vertex 1 has no smaller neighbor
        [(0, 3), (1, 3), (2, 3)],  # a star centred at its last vertex
        [(0, 3), (3, 1), (1, 4), (4, 2)],  # the path 0 - 3 - 1 - 4 - 2
    ], ids=["path", "star", "relabelled path"])
    def test_a_tree_out_of_layout_is_refused(self, edges):
        n = len(edges) + 1
        good = list(_listing(DegreeSequence.of_tree(tree_from_edges(n, edges))))
        with pytest.raises(ValueError):
            built_indices(good + [tree_from_edges(n, edges)])

    def test_empty_and_mixed_orders(self):
        assert built_indices([]).shape == (0,)
        assert _parent_indices(np.zeros((0, 4), dtype=np.intp)).shape == (0,)
        # trees of two orders have no (N, n - 1) parent array to screen
        with pytest.raises(ValueError):
            built_indices([tree_from_edges(3, [(0, 1), (1, 2)]), tree_from_edges(2, [(0, 1)])])


# every class the n <= 14 listing test covers, and the tied class
DECORATED_CLASSES = [pi for n in range(1, 15) for pi in all_tree_degree_sequences(n)
                     if max(pi.degrees) <= 5] + [TIED_MINIMIZER_CLASS]


class TestScreenFromDecorations:
    """The class search and verify-min screen a class from its decorations:
    the parent columns and caterpillar flags are those of the listing's
    trees, and a `Tree` is built only for the trees the search solves."""

    def test_parent_columns_are_the_listed_trees(self):
        checked = 0
        for pi in DECORATED_CLASSES:
            listing = _listing(pi)
            trees = list(listing)
            parents = listing.parents()
            assert parents.shape == (len(trees), pi.n - 1), pi.compact()
            assert parents.tolist() == [[row[0] for row in t.adjacency[1:]] for t in trees], pi.compact()
            # indexing the lazy sequence builds the same trees
            assert [listing[i] for i in range(len(listing))] == trees, pi.compact()
            checked += len(trees)
        assert checked == COUNT_14 + 333

    def test_caterpillar_flag_is_a_path_skeleton(self):
        semiregular = [DegreeSequence.semiregular(d, n)
                       for d in (3, 4, 5) for n in range(d + 1, 23) if (n - 2) % (d - 1) == 0]
        assert len(semiregular) == 21
        for pi in semiregular + DECORATED_CLASSES:
            trees = _listing(pi, DEFAULT_MAX_N)
            assert trees.caterpillars() == [is_caterpillar(t) for t in trees], pi.compact()

    @pytest.mark.parametrize("parent", [
        [[0, 1], [1, 1]],  # vertex 2 of the second tree is its own parent
        [[0, 2]],  # vertex 2 hangs from vertex 2
        [[0, 0, 3]],  # vertex 3 hangs from vertex 3
        [[1]],  # vertex 1 hangs from itself
    ])
    def test_a_column_out_of_layout_is_refused(self, parent):
        with pytest.raises(ValueError):
            _parent_indices(np.array(parent, dtype=np.intp))

    def test_array_screen_is_the_tree_screen(self):
        trees = _listing(TIED_MINIMIZER_CLASS, DEFAULT_MAX_N)
        assert np.array_equal(_parent_indices(trees.parents()), built_indices(list(trees)))

    @staticmethod
    def count_builds(monkeypatch, n):
        built = []
        post_init = Tree.__post_init__

        def counted(t):
            if t.vertex_count == n:
                built.append(t)
            post_init(t)

        monkeypatch.setattr(Tree, "__post_init__", counted)
        return built

    def test_search_builds_only_the_pool(self, monkeypatch):
        pi = TIED_MINIMIZER_CLASS
        candidates, runners = screened_pool(built_indices(list(enumerate_trees(pi))))
        built = self.count_builds(monkeypatch, pi.n)
        report = find_minimizers(pi)
        monkeypatch.undo()
        assert report.tree_count == 333
        assert len(candidates) + len(runners) == 12
        assert len(built) <= len(candidates) + len(runners)
        assert set(report.minimizers) <= set(built)

    def test_verify_min_builds_only_the_pool(self, capsys, monkeypatch):
        pi = DegreeSequence.semiregular(3, 16)
        candidates, runners = screened_pool(built_indices(list(enumerate_trees(pi))))
        built = self.count_builds(monkeypatch, pi.n)
        assert main(["verify-min", "--d", "3", "--n", "16"]) == 0
        monkeypatch.undo()
        assert "VERIFIED" in capsys.readouterr().out
        assert len(built) <= len(candidates) + len(runners)


class TestExactRayleigh:
    @pytest.mark.parametrize(
        "t", tied_minimizer_examples() + (make_star(4),), ids=["fork", "cat_a", "cat_b", "star"]
    )
    def test_one_rounding_of_the_rational_quotient(self, t):
        # entries of widely spread magnitudes; Fraction is the reference
        rng = np.random.default_rng(t.vertex_count)
        for _ in range(50):
            x = rng.random(t.vertex_count) * 2.0 ** rng.integers(-60, 5, t.vertex_count)
            f = [Fraction(v) for v in x.tolist()]
            ax_x = sum(f[u] * f[v] for u, nbrs in enumerate(t.adjacency) for v in nbrs)
            assert _exact_rayleigh(t, x) == float(ax_x / sum(v * v for v in f))

    def test_perron_vector_gives_the_index(self):
        # at a converged Perron vector the quotient rounds to sqrt(6)'s double
        for t in tied_minimizer_examples():
            assert _exact_rayleigh(t, spectral_radius(t).perron) == math.sqrt(6)


class TestOneSolvePerTieCandidate:
    """Ties are settled from the solve each candidate already gets: no
    tree is solved twice, and a search solves its candidates as one
    block."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        loop = spectral._power_iteration

        def recorded(trees, tol, max_iter):
            made.append(list(trees))
            return loop(trees, tol, max_iter)

        monkeypatch.setattr(spectral, "_power_iteration", recorded)
        return made

    @staticmethod
    def assert_one_solve_each(calls):
        assert len(calls) == 1  # one block per search
        solved = [t for block in calls for t in block]
        assert len(solved) == len(set(solved))

    def test_find_minimizers(self, calls):
        assert len(find_minimizers(TIED_MINIMIZER_CLASS).minimizers) == 11
        self.assert_one_solve_each(calls)

    def test_verify_min(self, calls, capsys, monkeypatch):
        monkeypatch.setattr(enumeration, "_SCREEN_BAND", 1.0)
        rc = main(["verify-min", "--d", "3", "--n", "14"])
        assert rc == 0
        assert capsys.readouterr().out.endswith("VERIFIED: unique minimizer is the caterpillar\n")
        self.assert_one_solve_each(calls)

    @pytest.mark.parametrize("pi", ["4^4,3^2,2,1^12", "4^3,3^3,2,1^11", "5,4^2,3,2^5,1^10"])
    def test_served_pools_never_hand_off(self, monkeypatch, pi):
        # a search's tie pool holds trees of one order, which the block
        # sweeps to tol long before the polish point: none runs the lone loop
        blocks, lone = [], []
        sweeps, loop = spectral._block_sweeps, spectral._lone_iteration

        def recorded_block(trees, *args):
            blocks.append(len(trees))
            return sweeps(trees, *args)

        def recorded_lone(t, *args):
            lone.append(t)
            return loop(t, *args)

        monkeypatch.setattr(spectral, "_block_sweeps", recorded_block)
        monkeypatch.setattr(spectral, "_lone_iteration", recorded_lone)
        find_minimizers(DegreeSequence.parse(pi))
        assert len(blocks) == 1 and blocks[0] >= 2
        assert lone == []


class TestFindMaximizers:
    def test_star_class(self):
        maxis = find_maximizers(DegreeSequence.parse("4,1,1,1,1"))
        assert len(maxis) == 1
        assert canonical_form(maxis[0]) == canonical_form(make_star(4))
        assert spectral_radius(maxis[0]).mu == pytest.approx(2.0, abs=1e-10)

    def test_spider_maximizes_its_class(self):
        maxis = find_maximizers(DegreeSequence.semiregular(3, 10))
        assert len(maxis) == 1
        assert not is_caterpillar(maxis[0])

    def test_single_edge(self):
        maxis = find_maximizers(DegreeSequence.parse("1,1"))
        assert len(maxis) == 1 and maxis[0].vertex_count == 2

    def test_single_vertex(self):
        maxis = find_maximizers(DegreeSequence.parse("0"))
        assert len(maxis) == 1 and maxis[0].vertex_count == 1

    def test_unrealizable_rejected(self):
        with pytest.raises(TreeError):
            find_maximizers(DegreeSequence.parse("3,3,1"))

    def test_matches_the_enumeration_oracle(self):
        # every class with n <= 16 and degrees <= 5, `0` and `1,1` among
        # them; the oracle is the screened argmax over the listed class,
        # and a gap of more than 1e-9 between its two largest values (the
        # least over this range is about 5e-5) means eigvalsh cannot
        # misrank them
        checked = 0
        for n in range(1, 17):
            for pi in all_tree_degree_sequences(n):
                if max(pi.degrees) > 5:
                    continue
                trees = list(enumerate_trees(pi))
                mus = oracle_indices(trees)
                if len(trees) > 1:
                    top, second = np.sort(mus)[-1:-3:-1]
                    assert top - second > 1e-9, pi.compact()
                (built,) = find_maximizers(pi)
                assert canonical_form(built) == canonical_form(trees[int(np.argmax(mus))]), pi.compact()
                checked += 1
        assert checked == 242

    @pytest.mark.parametrize(
        "pi",
        [DegreeSequence.parse("2^20000,1^2"), DegreeSequence.semiregular(3, 20002)],
        ids=["path", "semiregular"],
    )
    def test_past_the_enumeration_horizon(self, pi):
        (built,) = find_maximizers(pi)
        assert DegreeSequence.of_tree(built) == pi

    def test_builds_without_the_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the maximizer was searched for")

        for name in ("_parent_indices", "spectral_radii", "_listing"):
            monkeypatch.setattr(enumeration, name, refuse)
        (built,) = find_maximizers(TIED_MINIMIZER_CLASS)
        assert DegreeSequence.of_tree(built) == TIED_MINIMIZER_CLASS


class TestTiedMinimizerExamples:
    def test_examples_are_pairwise_non_isomorphic(self):
        codes = [canonical_form(t) for t in tied_minimizer_examples()]
        assert len(set(codes)) == 3

    def test_examples_have_the_class_degree_sequence(self):
        for t in tied_minimizer_examples():
            assert DegreeSequence.of_tree(t) == TIED_MINIMIZER_CLASS

    def test_examples_index_is_sqrt6_by_oracle(self):
        for t in tied_minimizer_examples():
            mu = float(np.linalg.eigvalsh(adjacency_matrix(t))[-1])
            assert abs(mu * mu - 6.0) <= 1e-9

    def test_first_example_is_not_a_caterpillar(self):
        fork, cat_a, cat_b = tied_minimizer_examples()
        assert not is_caterpillar(fork)
        assert is_caterpillar(cat_a) and is_caterpillar(cat_b)


class TestNoCyclicGarbage:
    """These calls leave nothing for the cyclic garbage collector: with it
    switched off, a collection afterwards finds nothing unreachable."""

    @pytest.mark.parametrize("call", [
        lambda: list(enumerate_trees(DegreeSequence.parse("3^14,1^16"))),
        lambda: list(enumerate_trees(DegreeSequence.parse("5,4,3^3,2^3,1^10"))),
        lambda: canonical_order(tied_minimizer_examples()[0]),
        lambda: find_minimizers(TIED_MINIMIZER_CLASS),
    ], ids=["enumerate 3^14,1^16", "enumerate 5,4,3^3,2^3,1^10", "canonical_order FORK_19",
            "find_minimizers 4^4,3^2,2,1^12"])
    def test_collects_nothing(self, call):
        free_trees.cache_clear()
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
