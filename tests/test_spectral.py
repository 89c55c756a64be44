"""Index computation and valuation checks, cross-checked against a dense
eigensolver oracle and classical closed forms."""

import functools
import inspect
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from test_pinned import BUDGET_EXITS, relabelled
from treeindex import spectral
from treeindex.enumeration import (
    TIED_MINIMIZER_CLASS,
    _screen,
    enumerate_trees,
    free_trees,
)
from treeindex.spectral import (
    CLASS_CHUNK,
    ConvergenceError,
    _parent_indices,
    adjacency_matrix,
    caterpillar_symmetry_check,
    caterpillar_trunk_residual,
    is_unimodal,
    pendant_minima_check,
    perron_bound_check,
    rayleigh_quotient,
    spectral_radius,
    symmetrize_caterpillar,
)
from treeindex.trees import (
    DegreeSequence,
    TreeError,
    _rooted,
    is_caterpillar,
    make_caterpillar,
    make_path,
    make_star,
    tree_from_edges,
    trunk_path,
)

K2 = tree_from_edges(2, [(0, 1)])
# a caterpillar on the trunk 0-1-2 with pendant loads 2, 1, 1: no mirror symmetry
LOPSIDED = tree_from_edges(7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (1, 6)])
FORK_19 = tree_from_edges(
    19,
    [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6),
     (3, 7), (3, 8), (3, 9), (4, 10), (4, 11), (4, 12),
     (5, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
)


def oracle_mu(t):
    """Independent dense-eigensolver value of the index."""
    return float(np.linalg.eigvalsh(adjacency_matrix(t))[-1])


def oracle_indices(trees):
    """oracle_mu of every tree of one order, from one eigvalsh call on the
    stack of their adjacency matrices."""
    if not trees:
        return np.zeros(0)
    return np.linalg.eigvalsh(np.stack([adjacency_matrix(t) for t in trees]))[:, -1]


def built_indices(trees):
    """`_parent_indices` of built trees of one order in the listing's
    layout, read from their parent columns adjacency[v][0]."""
    n = trees[0].vertex_count if trees else 1
    parent = [[row[0] for row in t.adjacency[1:]] for t in trees]
    return _parent_indices(np.array(parent, dtype=np.intp).reshape(len(trees), n - 1))


class TestRayleighQuotient:
    def test_k2_all_ones(self):
        assert rayleigh_quotient(K2, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_p3_all_ones(self):
        assert rayleigh_quotient(make_path(3), [1, 1, 1]) == pytest.approx(4 / 3, abs=1e-15)

    def test_p3_perron_vector(self):
        f = [0.5, math.sqrt(2) / 2, 0.5]
        assert rayleigh_quotient(make_path(3), f) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            rayleigh_quotient(K2, [0.0, 0.0])

    def test_scale_invariance(self):
        rng = random.Random(5)
        t = make_caterpillar(3, 12)
        for _ in range(50):
            f = np.array([rng.uniform(0.1, 2.0) for _ in range(12)])
            c = rng.choice([-3.0, -0.5, 0.25, 7.0])
            assert rayleigh_quotient(t, c * f) == pytest.approx(
                rayleigh_quotient(t, f), abs=1e-12
            )


class TestSpectralRadius:
    def test_k1_and_k2_special_values(self):
        k1 = tree_from_edges(1, [])
        r1 = spectral_radius(k1)
        assert r1.mu == 0.0 and list(r1.perron) == [1.0]
        r2 = spectral_radius(K2)
        assert r2.mu == 1.0

    def test_path_closed_form(self):
        for n in (2, 3, 4, 10, 25, 50):
            r = spectral_radius(make_path(n))
            assert abs(r.mu - 2 * math.cos(math.pi / (n + 1))) <= 1e-10

    def test_p4_golden_ratio(self):
        assert spectral_radius(make_path(4)).mu == pytest.approx(
            (1 + math.sqrt(5)) / 2, abs=1e-12
        )

    def test_star_closed_form(self):
        # 2000 children of one vertex: the solve sums each pivot's terms by
        # math.fsum, so its shift is not lost in their rounding
        for m in (1, 2, 4, 9, 30, 50, 2000):
            assert abs(spectral_radius(make_star(m)).mu - math.sqrt(m)) <= 1e-10

    def test_reference_19_vertex_tree_sqrt6(self):
        r = spectral_radius(FORK_19)
        assert abs(r.mu - math.sqrt(6)) <= 1e-10
        assert abs(oracle_mu(FORK_19) - math.sqrt(6)) <= 1e-10

    def test_matches_oracle_on_varied_trees(self):
        rng = random.Random(17)
        trees = [make_caterpillar(3, 14), make_caterpillar(4, 11), FORK_19]
        for _ in range(10):
            n = rng.randint(5, 16)
            edges = [(rng.randrange(i), i) for i in range(1, n)]
            trees.append(tree_from_edges(n, edges))
        for t in trees:
            r = spectral_radius(t)
            assert r.mu == pytest.approx(oracle_mu(t), abs=1e-10)

    def test_perron_positive_normalized_residual(self):
        for t in (make_path(9), make_caterpillar(3, 16), FORK_19):
            r = spectral_radius(t)
            assert np.all(r.perron > 0)
            assert abs(float(r.perron @ r.perron) - 1.0) <= 1e-12
            assert r.residual <= 1e-12

    def test_residual_definition(self):
        t = make_caterpillar(3, 10)
        r = spectral_radius(t)
        a = adjacency_matrix(t)
        res = float(np.max(np.abs(r.mu * r.perron - a @ r.perron)))
        assert res == pytest.approx(r.residual, abs=1e-15)

    def test_mu_above_one_except_degenerate(self):
        for t in (make_path(3), make_star(2), make_caterpillar(3, 8), FORK_19):
            assert spectral_radius(t).mu > 1.0

    def test_slow_near_tie_still_converges(self):
        # two identical star-ends joined by a long path: tiny top gap
        edges = [(i, i + 1) for i in range(13)] + [(0, 14), (0, 15), (13, 16), (13, 17)]
        t = tree_from_edges(18, edges)
        r = spectral_radius(t)
        assert r.residual <= 1e-12
        assert r.mu == pytest.approx(oracle_mu(t), abs=1e-11)

    def test_unreachable_tolerance_raises_with_iterate(self):
        with pytest.raises(ConvergenceError) as info:
            spectral_radius(make_path(12), tol=1e-30, max_iter=200)
        result = info.value.result
        assert result.mu == pytest.approx(2 * math.cos(math.pi / 13), abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"tol": float("nan")}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"),
         ({"max_iter": 0}, "max_iter"), ({"max_iter": -1}, "max_iter"),
         ({"tol": float("inf")}, "tol"), ({"max_iter": True}, "max_iter"),
         ({"max_iter": 2.5}, "max_iter"), ({"max_iter": "3"}, "max_iter"),
         ({"tol": "1e-12"}, "tol"), ({"tol": None}, "tol"), ({"tol": True}, "tol"),
         ({"tol": [1e-12]}, "tol")],
    )
    def test_bad_numeric_arguments_rejected(self, kwargs, name):
        # checked before the one- and two-vertex shortcuts, too
        for t in (make_path(1), make_path(6)):
            with pytest.raises(ValueError, match=name):
                spectral_radius(t, **kwargs)

    def test_numpy_tol_accepted(self):
        t = make_path(6)
        assert spectral_radius(t, tol=np.float64(1e-12)).to_json() == spectral_radius(t).to_json()

    def test_infinite_tolerance_is_not_a_converged_index(self):
        # tol=inf once stopped P5 after one sweep at mu = 1.697, not sqrt(3)
        with pytest.raises(ValueError, match="tol"):
            spectral_radius(make_path(5), tol=float("inf"))

    def test_extended_is_only_a_name(self):
        # the benchmark tracer binds every traced call by these names and
        # reads `extended`; no extended-precision mode stands behind it
        assert list(inspect.signature(spectral_radius).parameters) == ["t", "tol", "max_iter", "extended"]
        assert spectral_radius(FORK_19, extended=False).to_json() == spectral_radius(FORK_19).to_json()
        with pytest.raises(ValueError, match="extended"):
            spectral_radius(FORK_19, extended=True)

    def test_rayleigh_ritz_random_property(self):
        rng = random.Random(23)
        for t in (make_caterpillar(3, 12), make_caterpillar(4, 14), FORK_19):
            mu = spectral_radius(t).mu
            n = t.vertex_count
            for _ in range(200):
                f = np.array([rng.uniform(0.05, 1.0) for _ in range(n)])
                f /= math.sqrt(float(f @ f))
                assert rayleigh_quotient(t, f) <= mu + 1e-9

    @pytest.mark.parametrize(
        "make",
        [*(lambda n=n: relabelled(make_path(n), random.Random(n)) for n in (150, 300, 600, 1200)),
         lambda: make_caterpillar(4, 302), lambda: make_caterpillar(3, 2002)],
        ids=["path_150", "path_300", "path_600", "path_1200", "caterpillar_4_302", "caterpillar_3_2002"],
    )
    def test_passes_stay_few(self, make):
        # an operation count, not a wall time: the bisection, the exact
        # counts and the solves each walk the tree once, and the power
        # iteration took up to 50,002 sweeps on these trees
        t = make()
        r = spectral_radius(t)
        assert r.iterations <= 80
        assert r.residual <= 1e-15 and np.all(r.perron > 0.0)

    def test_result_json_shape(self):
        text = spectral_radius(K2).to_json()
        assert text.startswith('{"mu":1,"perron":[')
        assert '"iterations":0' in text


def one_by_one(t, **budget):
    """spectral_radius of t, as (error message or None, result)."""
    try:
        return None, spectral_radius(t, **budget)
    except ConvergenceError as err:
        return str(err), err.result


def fields(r):
    return r.mu, r.perron.tobytes(), r.residual, r.iterations


def tie_candidates():
    trees = list(enumerate_trees(TIED_MINIMIZER_CLASS))
    return [trees[i] for i in _screen(oracle_indices(trees))[1]]


def exact_below(t, q):
    """Whether the index of t lies below the rational q, exactly: leaf
    elimination of qI - A in Fractions, depth first from the last vertex,
    a walk the solver does not take, stopping at the first pivot that is
    not positive."""
    root = t.vertex_count - 1
    parent, stack, order = {root: -1}, [root], []
    while stack:
        v = stack.pop()
        order.append(v)
        for u in t.adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    acc = dict.fromkeys(order, Fraction(0))
    for v in reversed(order):
        p = q - acc[v]
        if p <= 0:
            return False
        if parent[v] >= 0:
            acc[parent[v]] += 1 / p
    return True


def correctly_rounded(t, x):
    """Whether the double x is the index of t correctly rounded: the index
    lies between the midpoints from x to its two neighbouring doubles."""
    lo = (Fraction(math.nextafter(x, -math.inf)) + Fraction(x)) / 2
    hi = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    return not exact_below(t, lo) and exact_below(t, hi)


def fsum_residual(t, r):
    """max_v |mu x_v - (A x)_v|, each (A x)_v summed by `math.fsum`."""
    x = r.perron.tolist()
    return max(abs(r.mu * v - math.fsum(x[u] for u in nbrs)) for v, nbrs in zip(x, t.adjacency))


def assert_solved(t, r):
    """r is t's index correctly rounded, with a positive unit vector whose
    residual is the one reported."""
    assert correctly_rounded(t, r.mu)
    assert np.all(r.perron > 0.0)
    assert abs(math.fsum(v * v for v in r.perron.tolist()) - 1.0) <= 1e-15
    assert r.residual == fsum_residual(t, r)


def assert_budget_is_a_postcondition(trees, **budget):
    """Under any budget each tree gets its default result, returned when its
    residual is within tol and attached to a ConvergenceError otherwise:
    max_iter bounds nothing, and tol decides only whether it is returned."""
    tol = budget.get("tol", spectral.DEFAULT_TOL)
    for t in trees:
        want = spectral_radius(t)
        message, got = one_by_one(t, **budget)
        assert fields(got) == fields(want)
        assert message == (None if want.residual <= tol else f"residual {want.residual:.3e} above tol {tol:.3e}")


class TestSpectralRadii:
    """The class search solves its pool one `spectral_radius` call per tree.
    A tree's result therefore depends on the tree alone: not on the trees
    solved beside it or before it, nor on their orders, nor on max_iter,
    while tol only decides whether it is returned or raised.  Each result
    is checked against an exact count of the test's own.  The test names
    are those of the block power loop these tests once covered, kept so
    that the suite's test ids stay stable; each comment says what the
    test checks now."""

    @pytest.fixture(scope="class")
    def mixed(self):
        ties = tie_candidates()
        assert len(ties) == 11
        return [make_path(1), K2, *ties]

    def test_block_equals_one_by_one(self, mixed):
        block = [mixed[2], make_path(60), *mixed]
        got = [spectral_radius(t) for t in block]
        assert [fields(r) for r in got] == [fields(one_by_one(t)[1]) for t in reversed(block)][::-1]
        for t, r in zip(block, got):
            assert_solved(t, r)

    @pytest.mark.parametrize("path_first", [True, False])
    @pytest.mark.parametrize("name", BUDGET_EXITS)
    def test_budget_exits(self, mixed, name, path_first):
        block = [make_path(60), *mixed] if path_first else [*mixed, make_path(60)]
        assert_budget_is_a_postcondition(block, **BUDGET_EXITS[name])

    @pytest.fixture
    def lone_solves(self, monkeypatch):
        """The trees `_solve` runs, in order."""
        solved = []
        solve = spectral._solve

        def recorded(t):
            solved.append(t)
            return solve(t)

        monkeypatch.setattr(spectral, "_solve", recorded)
        return solved

    def test_polish_beside_stopped_trees(self, mixed, lone_solves):
        # the 11 tie candidates share the index sqrt(6), whose correctly
        # rounded double math.sqrt returns; each is solved once
        ties = mixed[2:]
        got = [spectral_radius(t, max_iter=1000) for t in ties]
        assert [r.mu for r in got] == [math.sqrt(6)] * 11
        assert lone_solves == ties

    def test_handed_off_tree_raises_as_alone(self, mixed, lone_solves):
        # under tol=3e-16 a tie raises exactly when its own residual, the
        # one its default solve reports, lies above tol
        ties = mixed[2:]
        assert_budget_is_a_postcondition(ties, tol=3e-16, max_iter=1000)
        assert lone_solves == [t for t in ties for _ in range(2)]

    @pytest.mark.parametrize("k, n", [(1, 19), (2, 19), (12, 19), (100, 26), (2, 150), (12, 1200), (2, 18), (16, 32)])
    def test_row_dots_by_matmul_equal_ndarray_dot(self, monkeypatch, k, n):
        # the power loop's row dots, by matmul or ndarray.dot, summed in the
        # BLAS kernel's order; the solve sums by math.fsum and in the
        # elimination's order and calls no BLAS routine, so its values
        # depend on the tree alone, whichever kernel is picked
        class NoBlas:
            def __getattr__(self, name):
                if name in ("dot", "matmul", "vdot", "inner", "einsum", "linalg"):
                    raise AssertionError(f"the solve called np.{name}")
                return getattr(np, name)

        trees = [random_tree(n, k * n + i) for i in range(k)]
        want = [spectral_radius(t) for t in trees]
        monkeypatch.setattr(spectral, "np", NoBlas())
        assert [fields(spectral_radius(t)) for t in trees] == [fields(r) for r in want]

    @pytest.mark.parametrize("width", [1, 3, 32], ids=["capped_to_1", "capped_to_3", "uncapped"])
    @pytest.mark.parametrize("fallback_at", [16, 31, 32, 33], ids=["inside_first_chunk", "end_of_first_chunk", "one_past", "two_past"])
    def test_chunk_boundaries(self, fallback_at, width):
        # the power loop checked its block once per chunk of sweeps and
        # polished at max_iter // 2; the 23 trees of order 8, repeated,
        # get their default results under tol=1e-5 and any such max_iter
        trees = free_trees(8) * (1 if width == 32 else width + 1)
        assert_budget_is_a_postcondition(trees, tol=1e-5, max_iter=2 * fallback_at)

    @pytest.mark.parametrize("copies", [1, 45])
    def test_chunk_buffers_are_capped(self, monkeypatch, copies):
        # however many trees are solved, the solve makes one array, its
        # vector of n entries, and keeps no state between trees
        sizes = []

        class RecordingNumpy:
            def array(self, values, *args, **kwargs):
                sizes.append(len(values))
                return np.array(values, *args, **kwargs)

            def __getattr__(self, name):
                if name in ("empty", "zeros", "ones", "full", "concatenate", "bincount"):
                    raise AssertionError(f"the solve called np.{name}")
                return getattr(np, name)

        trees = free_trees(8) * copies
        want = [fields(spectral_radius(t)) for t in trees[:23]]
        monkeypatch.setattr(spectral, "np", RecordingNumpy())
        got = [fields(spectral_radius(t)) for t in trees]
        assert got == want * copies
        assert sizes == [8] * len(trees)

    def test_wide_block_of_one_size(self):
        # 40 trees of 19 vertices spread over the screened order of a
        # 6,895-tree class
        trees = list(enumerate_trees(DegreeSequence.parse("5,4^2,3,2^5,1^10")))
        block = [trees[i] for i in np.argsort(oracle_indices(trees), kind="stable")[:: len(trees) // 40][:40]]
        for t in block:
            r = spectral_radius(t)
            assert_solved(t, r)
            assert r.residual <= 1e-15

    def test_block_of_interleaved_sizes(self, mixed):
        # trees of several orders, some repeated: a repeat gets the same bits
        block = [make_caterpillar(3, 10), mixed[2], make_path(7), make_caterpillar(4, 11),
                 make_path(7), mixed[3], make_star(5), make_caterpillar(3, 10), mixed[4]]
        got = [spectral_radius(t) for t in block]
        assert fields(got[0]) == fields(got[7]) and fields(got[2]) == fields(got[4])
        for t, r in zip(block, got):
            assert_solved(t, r)

    @pytest.mark.parametrize("sizes", [(3, 7, 150, 301), (301, 7, 3, 150, 7)])
    def test_block_of_paths(self, sizes):
        # a relabelled path gets the correctly rounded 2cos(pi/(n + 1)),
        # the bits of the path labelled along its length
        for n in sizes:
            plain = spectral_radius(make_path(n))
            assert spectral_radius(relabelled(make_path(n), random.Random(n))).mu == plain.mu
            assert_solved(make_path(n), plain)
            assert abs(plain.mu - 2 * math.cos(math.pi / (n + 1))) <= 4e-16

    def test_path_beside_a_fork(self):
        block = [relabelled(make_path(60), random.Random(60)), FORK_19, make_path(19)]
        for t in block:
            assert fields(spectral_radius(t, max_iter=2000)) == fields(spectral_radius(t))
            assert_solved(t, spectral_radius(t))

    def test_empty_and_tiny_blocks(self):
        assert spectral_radius(make_path(1)).to_json() == '{"mu":0,"perron":[1],"residual":0,"iterations":0}'
        r = spectral_radius(K2)
        assert (r.mu, r.perron.tolist(), r.residual, r.iterations) == (1.0, [math.sqrt(0.5)] * 2, 0.0, 0)


def broom():
    """K_{1,40} with a 300-vertex tail hung from its centre: its Perron
    entries fall geometrically along the tail."""
    tail = [(v - 1 if v > 41 else 0, v) for v in range(41, 341)]
    return tree_from_edges(341, [(0, v) for v in range(1, 41)] + tail)


def random_tree(n, seed):
    """A random recursive tree on n vertices, relabelled."""
    rng = random.Random(seed)
    return relabelled(tree_from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)]), rng)


SCREEN_TREES = {
    **{f"path_{n}": (lambda n=n: relabelled(make_path(n), random.Random(n))) for n in (3, 4, 5, 60, 61, 301)},
    # eliminated from vertex 0, one end of the path, and from its middle
    "path_300": lambda: make_path(300),
    "path_300_reversed": lambda: tree_from_edges(300, [(-u % 300, -v % 300) for u, v in make_path(300).edges()]),
    **{f"caterpillar_{d}_{n}": (lambda d=d, n=n: relabelled(make_caterpillar(d, n), random.Random(n)))
       for d, n in ((3, 42), (6, 202))},
    **{f"random_{n}": (lambda n=n: random_tree(n, n)) for n in (5, 40, 150)},
    "broom_40_300": broom,
    # 500 children of one vertex: the float count is off by several ulps
    # there, and the exact count settles the last bits
    "star_500": lambda: make_star(500),
}
# at, near and below the rounding floor of the residual, and far above it
SCREEN_TOLS = (1e-12, 3e-16, 1e-300, 1e-6, 0.5, 1e300, 2.0**-52, 2.0**-51)


@functools.cache
def screened(name):
    """The tree of SCREEN_TREES named name and its default result, each
    checked once against the exact oracle."""
    t = SCREEN_TREES[name]()
    r = spectral_radius(t, tol=1e300)
    assert_solved(t, r)
    return t, r


class TestLoneLoop:
    """Every tree is solved alone: float inertia counts screen each step of
    the bisection, and exact counts make the full check of the last bit.
    The test names are those of the lone power loop these tests once
    covered, kept so that the suite's test ids stay stable."""

    @pytest.mark.parametrize("budget", [{}, {"max_iter": 2000}], ids=["converges", "polishes"])
    def test_relabelled_path(self, budget):
        # a path and its relabelling eliminate in other orders, to the same
        # correctly rounded index, and vectors equal to the last bits
        t = relabelled(make_path(150), random.Random(150))
        r, plain = spectral_radius(t, **budget), spectral_radius(make_path(150))
        assert r.mu == plain.mu
        assert_solved(t, r)
        along = path_layout(t)[0]
        assert np.max(np.abs(r.perron[along] - plain.perron)) <= 1e-15
        assert r.iterations <= 60

    def test_relabelled_caterpillar_takes_the_scatter(self):
        t = relabelled(make_caterpillar(4, 302), random.Random(302))
        r = spectral_radius(t)
        assert r.mu == spectral_radius(make_caterpillar(4, 302)).mu
        assert correctly_rounded(t, r.mu)
        assert r.iterations <= 60 and r.residual <= 1e-15

    @pytest.mark.parametrize("tol", SCREEN_TOLS)
    @pytest.mark.parametrize("name", SCREEN_TREES)
    def test_screen_is_the_full_check(self, name, tol):
        # the screened bracket ends at the index the exact oracle rounds
        # to (checked once a tree), and any budget returns that result or
        # raises with it: on and near the rounding floor, below it
        # (1e-300), and with max_iter from 1 up
        t, want = screened(name)
        for max_iter in (1, 2000):
            message, got = one_by_one(t, tol=tol, max_iter=max_iter)
            assert fields(got) == fields(want)
            assert (message is None) == (want.residual <= tol)

    def test_signed_zeros_after_a_polish(self):
        # P4 eliminated into its least centre, an inner vertex: at
        # sigma = phi rounded, the least double above the index, its pivot
        # sigma - (1/sigma + 1/1) rounds to 0.0; the solve takes ulp(sigma)
        # in its place, not a division by zero, and returns the positive
        # Perron vector
        t = tree_from_edges(4, [(0, 1), (0, 2), (2, 3)])
        phi = (1 + math.sqrt(5)) / 2
        assert exact_below(t, Fraction(phi))
        assert phi - 1 / phi == 1.0 and phi - math.fsum([1 / phi, 1.0]) == 0.0
        x = spectral._inverse_step(spectral._elimination(t), phi, [1.0] * 4)
        assert min(x) > 0.0
        r = spectral_radius(t)
        assert r.mu == phi and np.all(r.perron > 0.0)

    def test_a_polish_writes_no_signed_zero(self):
        # a shift at or below the index makes float pivots that are 0.0
        # or negative; each takes ulp(sigma), so a positive right-hand side
        # still gives a positive vector with no -0.0
        for t in (make_path(4), make_star(4), FORK_19):
            mu = spectral_radius(t).mu
            for sigma in (mu, math.nextafter(mu, -math.inf), 1.0):
                x = spectral._inverse_step(spectral._elimination(t), sigma, [1.0] * t.vertex_count)
                assert min(x) > 0.0 and not np.any(np.signbit(x))

    def test_screen_settles_the_sweeps(self, monkeypatch):
        # the float count takes every bisection step and the exact count
        # only a few, at the last bit: two or three to round, one more for
        # the shift; then three solves
        counts = {"float": 0, "exact": 0}
        below, exact = spectral._below, spectral._below_exact

        def counted(kind, fn):
            def wrapper(*args):
                counts[kind] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(spectral, "_below", counted("float", below))
        monkeypatch.setattr(spectral, "_below_exact", counted("exact", exact))
        r = spectral_radius(relabelled(make_path(150), random.Random(150)))
        assert 3 <= counts["exact"] <= 4
        assert 50 <= counts["float"] <= 54
        assert r.iterations == counts["float"] + counts["exact"] + 3


def same_bits(a, b):
    # equal values with equal sign bits: -0.0 == 0.0 would pass alone
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def path_layout(t):
    """A path's vertices walked from its lowest-id leaf, and a buffer that
    keeps one +0.0 before x and one after it, with x held in that order and
    its left and right neighbor slices as views."""
    order = _rooted(t.adjacency, t.degrees().index(1))[0]
    n = t.vertex_count
    xe = np.zeros(n + 2)
    return order, xe, xe[1 : n + 1], xe[:n], xe[2 : n + 2]


class TestNeighborColumns:
    """On a path held in path order, A x is the sum of two slices of a
    buffer, the left and right neighbor columns, a pad's +0.0 standing in
    for an end's missing term.  The reported residual sums each vertex's
    neighbors by `math.fsum`, which for two terms is their one rounded sum,
    so the slice sum must give it bit for bit."""

    @pytest.mark.parametrize("sizes", [(3,), (4,), (7,), (301,), (3, 7, 150, 301)])
    def test_column_sum_is_the_scatter(self, sizes):
        rng = random.Random(sum(sizes))
        for n in sizes:
            t = relabelled(make_path(n), rng)
            r = spectral_radius(t)
            order, xe, x, left, right = path_layout(t)
            x[...] = r.perron[order]
            s = left + right
            assert same_bits(np.abs(r.mu * x - s).max(), np.float64(r.residual))
            assert same_bits(np.take(s, np.argsort(order)), np.array(
                [math.fsum(r.perron[u] for u in nbrs) for nbrs in t.adjacency]))

    def test_columns_follow_the_pairs(self):
        # the two slices give each position the terms the edges list for
        # its vertex, the pads +0.0 at the two ends, which are the path's
        # leaves, the lowest-id leaf first
        t = relabelled(make_path(9), random.Random(9))
        order, xe, x, left, right = path_layout(t)
        x[...] = np.array(order) + 1  # vertex ids shifted off the pads' 0
        assert order[0] == min(v for v in range(9) if t.degree(v) == 1)
        assert t.degree(order[-1]) == 1 and xe[0] == xe[-1] == 0.0
        for i, v in enumerate(order):
            terms = sorted(int(u) - 1 for u in (left[i], right[i]) if u)
            assert terms == sorted(t.neighbors(v))


class TestAdjacencyMatrix:
    def test_matches_edge_loop(self):
        trees = [make_path(1), K2, make_star(5), FORK_19]
        trees += list(enumerate_trees(DegreeSequence.parse("3^5,2^2,1^7")))
        for t in trees:
            expected = np.zeros((t.vertex_count, t.vertex_count))
            for u, v in t.edges():
                expected[u, v] = expected[v, u] = 1
            got = adjacency_matrix(t)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected)


class TestClassIndices:
    """The one class screen, `_parent_indices`, on the parent columns of
    listed trees: the listing's layout is its input."""

    # "0" and "1,1" are the one- and two-vertex classes
    @pytest.mark.parametrize("pi", ["0", "1,1", "3,1^3", "3^2,2^2,1^4", "3^5,2^2,1^7"])
    def test_matches_power_iteration_and_oracle(self, pi):
        trees = list(enumerate_trees(DegreeSequence.parse(pi)))
        mus = built_indices(trees)
        assert mus.shape == (len(trees),)
        for t, mu in zip(trees, mus):
            assert abs(mu - spectral_radius(t).mu) <= 1e-12
            assert abs(mu - oracle_mu(t)) <= 1e-12

    def test_class_spans_chunks(self):
        # 182 trees: one full stacked chunk and part of a second
        trees = list(enumerate_trees(DegreeSequence.parse("3^5,2^3,1^7")))
        assert CLASS_CHUNK < len(trees) < 2 * CLASS_CHUNK
        assert built_indices(trees) == pytest.approx(oracle_indices(trees), abs=1e-12)

    def test_order_of_input_is_kept(self):
        trees = list(enumerate_trees(DegreeSequence.parse("3^2,2^2,1^4")))
        trees = [trees[i] for i in (2, 4, 0, 3, 1)]
        expected = [oracle_mu(t) for t in trees]
        assert built_indices(trees) == pytest.approx(expected, abs=1e-12)
        assert built_indices(trees[::-1]) == pytest.approx(expected[::-1], abs=1e-12)

    def test_empty(self):
        for n in (1, 2, 19):
            assert _parent_indices(np.zeros((0, n - 1), dtype=np.intp)).shape == (0,)

    def test_mixed_orders_rejected(self):
        # trees of two orders have no (N, n - 1) parent array to screen
        with pytest.raises(ValueError):
            built_indices([make_path(4), make_path(5)])


class TestPerronBound:
    def test_equality_for_perron_vector(self):
        t = make_caterpillar(3, 10)
        r = spectral_radius(t)
        f = r.perron / math.sqrt(float(r.perron @ r.perron))
        check = perron_bound_check(t, f, r)
        assert check.holds and check.equality

    def test_strict_for_uniform_on_p3(self):
        t = make_path(3)
        r = spectral_radius(t)
        f = np.ones(3) / math.sqrt(3)
        check = perron_bound_check(t, f, r)
        assert check.holds and not check.equality
        assert check.edge_sum == pytest.approx(4 / 3, abs=1e-12)

    def test_strict_for_uniform_on_c38(self):
        t = make_caterpillar(3, 8)
        r = spectral_radius(t)
        f = np.ones(8) / math.sqrt(8)
        check = perron_bound_check(t, f, r)
        assert check.holds and not check.equality
        assert check.edge_sum == pytest.approx(2 * 7 / 8, abs=1e-12)
        assert oracle_mu(t) > check.edge_sum

    def test_rejects_unnormalized(self):
        t = make_path(3)
        r = spectral_radius(t)
        with pytest.raises(ValueError):
            perron_bound_check(t, np.ones(3), r)

    def test_rejects_a_negative_entry(self):
        t = make_path(3)
        r = spectral_radius(t)
        f = r.perron / math.sqrt(float(r.perron @ r.perron))
        f[0] = -f[0]
        with pytest.raises(ValueError, match="^valuation must be entrywise positive$"):
            perron_bound_check(t, f, r)

    @pytest.mark.parametrize("other", [make_path(4), make_caterpillar(3, 14)], ids=["shorter", "longer"])
    def test_result_of_the_wrong_length_rejected(self, other):
        # once read only result.mu and returned a bound for the other tree
        t = make_caterpillar(3, 10)
        f = spectral_radius(t).perron
        with pytest.raises(ValueError, match="valuation must have length 10"):
            perron_bound_check(t, f, spectral_radius(other))


class TestUnimodality:
    def test_caterpillar_perron_is_unimodal(self):
        for d, n in ((3, 8), (3, 10), (4, 14), (5, 14)):
            t = make_caterpillar(d, n)
            r = spectral_radius(t)
            v_hat = int(np.argmax(r.perron))
            assert is_unimodal(t, r.perron, v_hat, tol=1e-12)

    def test_constant_function_not_unimodal(self):
        assert not is_unimodal(make_path(3), [1.0, 1.0, 1.0], 1)

    def test_path_perron_from_end_not_unimodal(self):
        t = make_path(5)
        r = spectral_radius(t)
        assert not is_unimodal(t, r.perron, 0)

    def test_single_flat_edge_at_peak_allowed(self):
        t = make_path(4)
        assert is_unimodal(t, [0.4, 1.0, 1.0, 0.5], 1)
        assert not is_unimodal(t, [0.4, 1.0, 1.0, 1.0], 1)

    def test_negative_values_rejected(self):
        assert not is_unimodal(make_path(3), [1.0, -1.0, 0.5], 0)

    @pytest.mark.parametrize("v_hat", [1.0, True, False, "1", None], ids=repr)
    def test_vertex_of_the_wrong_type_rejected(self, v_hat):
        # 1.0 once failed indexing a list, and True with an unrelated TypeError
        with pytest.raises(ValueError, match="vertex must be an integer"):
            is_unimodal(make_path(4), [0.4, 1.0, 1.0, 0.5], v_hat)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.intp, np.uint8])
    def test_numpy_integer_vertex(self, kind):
        t = make_caterpillar(4, 14)
        f = spectral_radius(t).perron
        for v in t.vertices():
            assert is_unimodal(t, f, kind(v), tol=1e-12) == is_unimodal(t, f, v, tol=1e-12)


class TestPendantMinima:
    def test_caterpillars(self):
        for d, n in ((3, 8), (3, 14), (4, 14)):
            t = make_caterpillar(d, n)
            assert pendant_minima_check(t, spectral_radius(t))

    def test_k2_fails_by_symmetry(self):
        assert not pendant_minima_check(K2, spectral_radius(K2))

    def test_reference_tree(self):
        assert pendant_minima_check(FORK_19, spectral_radius(FORK_19))

    def test_result_of_the_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="valuation must have length 10"):
            pendant_minima_check(make_caterpillar(3, 10), spectral_radius(make_path(4)))


class TestCaterpillarSymmetry:
    def test_odd_trunk(self):
        t = make_caterpillar(3, 8)
        assert caterpillar_symmetry_check(t, spectral_radius(t))

    def test_even_trunk(self):
        t = make_caterpillar(3, 10)
        assert caterpillar_symmetry_check(t, spectral_radius(t))

    def test_k2_trivially_symmetric(self):
        assert caterpillar_symmetry_check(K2, spectral_radius(K2))

    def test_rejects_non_caterpillar(self):
        spider = tree_from_edges(
            10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
        )
        with pytest.raises(Exception):
            caterpillar_symmetry_check(spider, spectral_radius(spider))

    def test_symmetrize_gives_exact_mirror_equality(self):
        t = make_caterpillar(3, 10)
        r = spectral_radius(t)
        f = symmetrize_caterpillar(t, r.perron)
        trunk = trunk_path(t)
        assert float(f[trunk[0]]) == float(f[trunk[3]])
        assert float(f[trunk[1]]) == float(f[trunk[2]])
        assert abs(float(f @ f) - 1.0) <= 1e-12
        # rayleigh quotient unchanged at the residual level
        assert rayleigh_quotient(t, f) == pytest.approx(r.mu, abs=1e-11)

    def test_unequal_pendant_loads(self):
        r = spectral_radius(LOPSIDED)
        assert not caterpillar_symmetry_check(LOPSIDED, r)
        # equal trunk ends, so the loads alone decide
        assert not caterpillar_symmetry_check(LOPSIDED, replace(r, perron=np.ones(7)))
        with pytest.raises(TreeError, match="not mirror-symmetric"):
            symmetrize_caterpillar(LOPSIDED, r.perron)

    def test_perturbed_pendants_at_one_trunk_end(self):
        # trunk values and loads still match; the end's pendant values do not
        t = make_caterpillar(3, 10)
        r = spectral_radius(t)
        f = symmetrize_caterpillar(t, r.perron)
        assert caterpillar_symmetry_check(t, replace(r, perron=f))
        f[[u for u in t.neighbors(0) if t.degree(u) == 1]] += 1e-6
        assert not caterpillar_symmetry_check(t, replace(r, perron=f))

    def test_symmetrize_short_trunks(self):
        # K1 and K2 have no trunk, so every vertex is one orbit; the star's
        # trunk is its centre, alone in its orbit, and its leaves are another
        assert symmetrize_caterpillar(make_star(0), [5.0]).tolist() == [1.0]
        assert symmetrize_caterpillar(K2, [1.0, 3.0]).tolist() == pytest.approx([math.sqrt(0.5)] * 2)
        star = symmetrize_caterpillar(make_star(3), [3.0, 1.0, 2.0, 3.0])
        assert star.tolist() == pytest.approx([3 / math.sqrt(21)] + [2 / math.sqrt(21)] * 3)

    def test_symmetrize_every_small_caterpillar(self):
        # mirror-symmetric loads give a vector the check passes exactly;
        # every other caterpillar raises
        cats = [t for k in range(1, 13) for t in free_trees(k) if is_caterpillar(t)]
        symmetric = lopsided = 0
        for t, r in zip(cats, map(spectral_radius, cats)):
            try:
                f = symmetrize_caterpillar(t, r.perron)
            except TreeError:
                lopsided += 1
                continue
            symmetric += 1
            assert caterpillar_symmetry_check(t, replace(r, perron=f), tol=0.0)
        assert (symmetric, lopsided) == (95, 465)

    def test_symmetrize_rejects_a_valuation_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="valuation must have length 10"):
            symmetrize_caterpillar(make_caterpillar(3, 10), np.ones(5))

    def test_symmetrize_rejects_the_zero_valuation(self):
        # once a vector of NaNs and a RuntimeWarning
        with pytest.raises(ValueError, match="zero vector"):
            symmetrize_caterpillar(make_caterpillar(3, 10), np.zeros(10))

    @pytest.mark.parametrize("other", [make_path(5), make_caterpillar(3, 14)], ids=["shorter", "longer"])
    def test_result_of_the_wrong_length_rejected(self, other):
        with pytest.raises(ValueError, match="valuation must have length 10"):
            caterpillar_symmetry_check(make_caterpillar(3, 10), spectral_radius(other))


class TestTrunkRecurrence:
    def test_small_caterpillars(self):
        for d, n in ((3, 8), (3, 12), (4, 14), (5, 10)):
            t = make_caterpillar(d, n)
            assert caterpillar_trunk_residual(t, spectral_radius(t)) <= 1e-9

    @pytest.mark.parametrize("other", [make_path(5), make_caterpillar(3, 14)], ids=["shorter", "longer"])
    def test_result_of_the_wrong_length_rejected(self, other):
        with pytest.raises(ValueError, match="valuation must have length 10"):
            caterpillar_trunk_residual(make_caterpillar(3, 10), spectral_radius(other))

    def test_k2_has_no_trunk(self):
        assert caterpillar_trunk_residual(K2, spectral_radius(K2)) == 0.0

    def test_mixed_trunk_degrees_rejected(self):
        # LOPSIDED is a caterpillar whose trunk degrees are 3, 3 and 2
        with pytest.raises(TreeError, match="^trunk degrees are not constant$"):
            caterpillar_trunk_residual(LOPSIDED, spectral_radius(LOPSIDED))

    def test_damping_coefficient_below_two(self):
        # the trunk recurrence coefficient mu - (d-2)/mu stays below 2
        for d, n in ((3, 8), (3, 20), (4, 14), (5, 18), (6, 22)):
            t = make_caterpillar(d, n)
            mu = spectral_radius(t).mu
            assert mu - (d - 2) / mu < 2.0
