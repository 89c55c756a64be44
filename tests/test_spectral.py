"""Index computation and valuation checks, cross-checked against a dense
eigensolver oracle and classical closed forms."""

import inspect
import math
import random
from dataclasses import replace

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
    SpectralResult,
    _edge_arrays,
    _parent_indices,
    adjacency_matrix,
    caterpillar_symmetry_check,
    caterpillar_trunk_residual,
    is_unimodal,
    pendant_minima_check,
    perron_bound_check,
    rayleigh_quotient,
    spectral_radii,
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
CHUNK_SWEEPS = spectral._CHUNK_SWEEPS
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
        for m in (1, 2, 4, 9, 30, 50):
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
        with pytest.raises(ValueError, match=name):
            spectral_radii([make_path(1), make_path(6)], **kwargs)

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


class TestSpectralRadii:
    """A block solve gives each tree what spectral_radius gives it alone,
    field for field, and fails as the first failing tree fails alone."""

    @pytest.fixture(scope="class")
    def mixed(self):
        ties = tie_candidates()
        assert len(ties) == 11
        return [make_path(1), K2, *ties]

    def test_block_equals_one_by_one(self, mixed):
        block = [mixed[2], make_path(60), *mixed]
        got = spectral_radii(block)
        assert [fields(r) for r in got] == [fields(one_by_one(t)[1]) for t in block]

    @pytest.mark.parametrize("path_first", [True, False])
    @pytest.mark.parametrize("name", BUDGET_EXITS)
    def test_budget_exits(self, mixed, name, path_first):
        budget = BUDGET_EXITS[name]
        block = [make_path(60), *mixed] if path_first else [*mixed, make_path(60)]
        expected = [one_by_one(t, **budget) for t in block]
        failed = [(message, r) for message, r in expected if message is not None]
        if not failed:
            got = spectral_radii(block, **budget)
            assert [fields(r) for r in got] == [fields(r) for _, r in expected]
            return
        with pytest.raises(ConvergenceError) as info:
            spectral_radii(block, **budget)
        message, result = failed[0]
        assert str(info.value) == message
        assert fields(info.value.result) == fields(result)

    @pytest.fixture
    def lone_solves(self, monkeypatch):
        """The trees `_lone_iteration` runs, in order."""
        solved = []
        loop = spectral._lone_iteration

        def recorded(t, *args):
            solved.append(t)
            return loop(t, *args)

        monkeypatch.setattr(spectral, "_lone_iteration", recorded)
        return solved

    def test_polish_beside_stopped_trees(self, mixed, lone_solves):
        # under max_iter=1000 the block sweeps to 500: three ties stop in it,
        # at 104, 205 and 253 iterations, and the lone loop runs the other
        # eight again from the start, each through one polish step to 501
        ties = mixed[2:]
        got = spectral_radii(ties, max_iter=1000)
        assert sorted(r.iterations for r in got) == [104, 205, 253] + [501] * 8
        assert lone_solves == [t for t, r in zip(ties, got) if r.iterations == 501]
        assert [fields(r) for r in got] == [fields(one_by_one(t, max_iter=1000)[1]) for t in ties]

    def test_handed_off_tree_raises_as_alone(self, mixed, lone_solves):
        # under tol=3e-16 one tie stops in the block at 137 iterations; the
        # sixth, handed off at 500 with the other nine, is the first in
        # order to miss tol by max_iter
        budget = dict(tol=3e-16, max_iter=1000)
        ties = mixed[2:]
        with pytest.raises(ConvergenceError) as info:
            spectral_radii(ties, **budget)
        assert len(lone_solves) == 10
        expected = [one_by_one(t, **budget) for t in ties]
        assert [message for message, _ in expected[:5]] == [None] * 5
        message, result = expected[5]
        assert str(info.value) == message
        assert fields(info.value.result) == fields(result)

    @pytest.mark.parametrize("k, n", [(1, 19), (2, 19), (12, 19), (100, 26), (2, 150), (12, 1200), (2, 18), (16, 32)])
    def test_row_dots_by_matmul_equal_ndarray_dot(self, k, n):
        # a block sweep takes its k dots y.y with one matmul of (k, 1, n) @
        # (k, n, 1) views, and a chunk of m sweeps its m*k dots x.s with one
        # of (m*k, 1, n) @ (m*k, n, 1) views of its (m, k, n) buffers, from
        # row 1 in the first chunk; a tree alone takes each with ndarray.dot.
        # m runs from one sweep through a chunk cut short by the polish
        # point to the longest the buffer cap allows: (12, 19) and (2, 18)
        # are the benchmark's tie pools, (16, 32) fills the cap exactly and
        # (12, 1200) passes half of it, so it sweeps one iterate per chunk
        longest = max(1, min(spectral._CHUNK_SWEEPS, spectral._CHUNK_FLOATS // (k * n)))
        rng = np.random.default_rng(k * n)
        x, s = rng.random((2, longest, k * n))
        for m in sorted({1, (longest + 1) // 2, longest}):
            for first in range(min(m, 2)):
                for a, b in ((x[first:m], s[first:m]), (x[first:m], x[first:m])):
                    rows = (m - first) * k
                    got = np.empty(rows)
                    np.matmul(a.reshape(rows, 1, n), b.reshape(rows, n, 1), out=got.reshape(rows, 1, 1))
                    want = np.array([u.dot(v) for u, v in zip(a.reshape(rows, n), b.reshape(rows, n))])
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("width", [1, 3, CHUNK_SWEEPS], ids=["capped_to_1", "capped_to_3", "uncapped"])
    @pytest.mark.parametrize(
        "fallback_at",
        [CHUNK_SWEEPS // 2, CHUNK_SWEEPS - 1, CHUNK_SWEEPS, CHUNK_SWEEPS + 1],
        ids=["inside_first_chunk", "end_of_first_chunk", "one_past", "two_past"],
    )
    def test_chunk_boundaries(self, fallback_at, width):
        # under tol=1e-5 the 23 trees of order 8 stop alone at 14, 16, 29,
        # 31, 32, 32, 37 ... 102 sweeps, so the polish point max_iter // 2
        # falls among stops inside the first chunk, on its last iterate and
        # one or two sweeps past it; repeated, they fill a block whose
        # buffers pass the cap, so it checks every `width` sweeps
        budget = dict(tol=1e-5, max_iter=2 * fallback_at)
        trees = free_trees(8)
        copies = 1 if width == CHUNK_SWEEPS else spectral._CHUNK_FLOATS // ((width + 1) * 8 * len(trees)) + 1
        assert max(1, min(CHUNK_SWEEPS, spectral._CHUNK_FLOATS // (8 * len(trees) * copies))) == width
        expected = [one_by_one(t, **budget) for t in trees] * copies
        assert [message for message, _ in expected] == [None] * len(expected)
        got = spectral_radii(trees * copies, **budget)
        assert [fields(r) for r in got] == [fields(r) for _, r in expected]

    @pytest.mark.parametrize("copies", [1, 45])
    def test_chunk_buffers_are_capped(self, monkeypatch, copies):
        # however many trees a block holds, a chunk keeps at most
        # _CHUNK_FLOATS floats of iterates and of products A x, or one
        # iterate where that alone is larger, plus the next chunk's start
        sizes = []

        class RecordingNumpy:
            def empty(self, shape, *args, **kwargs):
                sizes.append(int(np.prod(shape)))
                return np.empty(shape, *args, **kwargs)

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(spectral, "np", RecordingNumpy())
        trees = free_trees(8) * copies
        spectral_radii(trees, tol=1e-5)
        width = 8 * len(trees)
        assert max(sizes) <= max(spectral._CHUNK_FLOATS, width) + width

    def test_wide_block_of_one_size(self):
        # 40 trees of 19 vertices spread over the screened order of a
        # 6,895-tree class; they stop between 258 and 3,482 iterations
        trees = list(enumerate_trees(DegreeSequence.parse("5,4^2,3,2^5,1^10")))
        block = [trees[i] for i in np.argsort(oracle_indices(trees), kind="stable")[:: len(trees) // 40][:40]]
        got = spectral_radii(block)
        assert [fields(r) for r in got] == [fields(spectral_radius(t)) for t in block]

    def test_block_of_interleaved_sizes(self, mixed):
        # equal orders share a block, a tree alone in its order runs the
        # lone loop; results come back in input order
        block = [make_caterpillar(3, 10), mixed[2], make_path(7), make_caterpillar(4, 11),
                 make_path(7), mixed[3], make_star(5), make_caterpillar(3, 10), mixed[4]]
        got = spectral_radii(block)
        assert [fields(r) for r in got] == [fields(spectral_radius(t)) for t in block]

    @pytest.mark.parametrize("sizes", [(3, 7, 150, 301), (301, 7, 3, 150, 7)])
    def test_block_of_paths(self, sizes):
        # each path is alone in its order and sums two neighbor columns;
        # the 301-vertex path polishes after 50,000 sweeps
        block = [relabelled(make_path(n), random.Random(n)) for n in sizes]
        got = spectral_radii(block)
        assert [fields(r) for r in got] == [fields(spectral_radius(t)) for t in block]

    def test_path_beside_a_fork(self):
        # the 19-vertex fork and path share a block and its scatter; the
        # relabelled path runs alone and sums two neighbor columns
        block = [relabelled(make_path(60), random.Random(60)), FORK_19, make_path(19)]
        got = spectral_radii(block, max_iter=2000)
        assert [fields(r) for r in got] == [fields(spectral_radius(t, max_iter=2000)) for t in block]

    def test_empty_and_tiny_blocks(self):
        assert spectral_radii([]) == []
        got = spectral_radii([make_path(1), K2])
        assert [fields(r) for r in got] == [fields(spectral_radius(t)) for t in (make_path(1), K2)]


def broom():
    """K_{1,40} with a 300-vertex tail hung from its centre: its Perron
    entries fall to about 5e-14 along the tail."""
    tail = [(v - 1 if v > 41 else 0, v) for v in range(41, 341)]
    return tree_from_edges(341, [(0, v) for v in range(1, 41)] + tail)


def random_tree(n, seed):
    """A random recursive tree on n vertices, relabelled."""
    rng = random.Random(seed)
    return relabelled(tree_from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)]), rng)


SCREEN_TREES = {
    # 5 and 61, like 3 and 301, have a middle vertex, whose half sweep takes
    # its right neighbor from the mirror pad
    **{f"path_{n}": (lambda n=n: relabelled(make_path(n), random.Random(n))) for n in (3, 4, 5, 60, 61, 301)},
    # the lone loop walks a path from its lowest-id leaf: here up the ids,
    # its layout the identity, and down them, from 0 to 299, 298, ..., 1
    "path_300": lambda: make_path(300),
    "path_300_reversed": lambda: tree_from_edges(300, [(-u % 300, -v % 300) for u, v in make_path(300).edges()]),
    **{f"caterpillar_{d}_{n}": (lambda d=d, n=n: relabelled(make_caterpillar(d, n), random.Random(n)))
       for d, n in ((3, 42), (6, 202))},
    **{f"random_{n}": (lambda n=n: random_tree(n, n)) for n in (5, 40, 150)},
    "broom_40_300": broom,
    "star_500": lambda: make_star(500),
}
# 2^-52 and 2^-51 sit on the rounding floor of the residual, where a slack
# with no rounding margin lets the screen pass a sweep the full check stops
# at (random_40 and random_150 under max_iter=2000)
SCREEN_TOLS = (1e-12, 3e-16, 1e-300, 1e-6, 0.5, 1e300, 2.0**-52, 2.0**-51)


def full_check_loop(t, tol, max_iter):
    """spectral_radius of t, three or more vertices, as (error message or
    None, result), from the lone loop's sweeps with the full residual taken
    on every sweep: one scatter per A x, the shift and the norm as Python
    floats, and the lone loop's polish step, its vector written plus +0.0."""
    n = t.vertex_count
    tgt, src = scatter_pairs([t])
    shift = float(max(t.degrees()))
    x = np.full(n, 1 / math.sqrt(n))
    polish, fallback_at, iterations = 8, max(1, max_iter // 2), 0
    while True:
        s = np.bincount(tgt, weights=x[src], minlength=n)
        if iterations:
            mu = float(x.dot(s))
            res = float(np.max(np.abs(mu * x - s)))
            if res > tol and iterations >= fallback_at and polish:
                polish -= 1
                z = spectral._rayleigh_step(t, x, mu)
                if z is not None:
                    x, iterations = z + 0.0, iterations + 1
                    continue
                polish = 0
            if res <= tol or iterations >= max_iter:
                break
        y = shift * x + s
        x = y / math.sqrt(y.dot(y))
        iterations += 1
    r = SpectralResult(mu, x, res, iterations)
    if res > tol:
        return f"residual {res:.3e} above tol {tol:.3e} after {iterations} iterations", r
    if not np.all(x > 0.0):
        return "iterate is not entrywise positive", r
    return None, r


class TestLoneLoop:
    """A tree alone in its order runs the lone loop and a tree beside
    another of its order the block sweeps, which share no sweep code: each
    must give the other's result field for field, whichever kernel the lone
    loop sums A x with."""

    @staticmethod
    def assert_lone_is_block(t, others, **budget):
        lone = spectral_radius(t, **budget)
        for other in others:
            assert other.vertex_count == t.vertex_count
            got = spectral_radii([t, other], **budget)[0]
            assert got.to_json() == lone.to_json()
            assert fields(got) == fields(lone)
        return lone

    @pytest.mark.parametrize("budget", [{}, {"max_iter": 2000}], ids=["converges", "polishes"])
    def test_relabelled_path(self, budget):
        # alone the path sums two neighbor columns, in a block it scatters;
        # under max_iter=2000 the block hands it off at sweep 1000 and the
        # lone loop polishes it
        t = relabelled(make_path(150), random.Random(150))
        partners = [make_path(150), relabelled(make_caterpillar(3, 150), random.Random(3))]
        r = self.assert_lone_is_block(t, partners, **budget)
        assert r.iterations == (1003 if budget else 21602)

    def test_relabelled_caterpillar_takes_the_scatter(self):
        t = relabelled(make_caterpillar(4, 302), random.Random(302))
        r = self.assert_lone_is_block(t, [make_caterpillar(4, 302)])
        assert r.iterations == 21816

    @pytest.mark.parametrize("tol", SCREEN_TOLS)
    @pytest.mark.parametrize("name", SCREEN_TREES)
    def test_screen_is_the_full_check(self, name, tol):
        # the lone loop skips the full residual on a sweep whose two-vertex
        # bound proves res > tol; it must stop, polish, exit on the budget
        # and fail exactly as a loop that takes the full residual on every
        # sweep, on and near the rounding floor, below it (1e-300) and
        # with a polish point one to three sweeps in
        t = SCREEN_TREES[name]()
        for max_iter in (1, 2, 3, 4, 50, 2000):
            message, want = full_check_loop(t, tol, max_iter)
            got = one_by_one(t, tol=tol, max_iter=max_iter)
            assert got[0] == message
            assert fields(got[1]) == fields(want)

    @staticmethod
    def zeroing_polish(monkeypatch):
        """A relabelled 60-vertex path whose polish step returns -0.0 at
        three vertices in a row along it, and those vertices."""
        t = relabelled(make_path(60), random.Random(60))
        middle = path_layout(t)[0][10:13]
        step = spectral._rayleigh_step

        def zeroed(t, x, mu):
            z = step(t, x, mu)
            z[middle] = -0.0
            return z

        monkeypatch.setattr(spectral, "_rayleigh_step", zeroed)
        return t, middle

    def test_signed_zeros_after_a_polish(self, monkeypatch):
        # only a polish step can bring -0.0; here the last of the eight
        # returns three in a row along a path, the next sweep's power step
        # reads the middle vertex's slice sum of its two neighbors, and the
        # budget exit at sweep 18 returns it: it must carry the scatter's +0.0
        t, middle = self.zeroing_polish(monkeypatch)
        message, want = full_check_loop(t, 1e-12, 18)
        got = one_by_one(t, max_iter=18)
        assert got[0] == message
        assert fields(got[1]) == fields(want)
        assert want.iterations == 18
        assert want.perron[middle[1]] == 0.0 and not np.signbit(want.perron[middle[1]])

    def test_a_polish_writes_no_signed_zero(self, monkeypatch):
        # the polish step is the one source of -0.0 and writes its vector
        # plus +0.0; under max_iter=16 the budget exit returns the eighth
        # polish's vector, whose three zeros must read +0.0
        t, middle = self.zeroing_polish(monkeypatch)
        with pytest.raises(ConvergenceError) as err:
            spectral_radius(t, max_iter=16)
        r = err.value.result
        assert r.iterations == 16
        assert same_bits(r.perron[middle], np.zeros(3))

    def test_screen_settles_the_sweeps(self, monkeypatch):
        # the full check, with its dot mu = x.s, runs on a few dozen of the
        # 150-vertex path's 21,602 sweeps; a screen that never passes would
        # run it on every sweep and give the same bits
        calls = []
        full = spectral._full_residual

        def recorded(x, s):
            calls.append(1)
            return full(x, s)

        monkeypatch.setattr(spectral, "_full_residual", recorded)
        r = spectral_radius(relabelled(make_path(150), random.Random(150)))
        assert r.iterations == 21602
        assert 2 <= len(calls) <= 100



def scatter_pairs(trees):
    """The scatter pairs (tgt, src) of trees laid end to end, tree by tree:
    each vertex receives its terms in the order its tree alone lists them."""
    edges = [_edge_arrays(t) for t in trees]
    starts = np.cumsum([0] + [t.vertex_count for t in trees])
    eu = np.concatenate([u + a for (u, _), a in zip(edges, starts)])
    ev = np.concatenate([v + a for (_, v), a in zip(edges, starts)])
    return np.concatenate((eu, ev)), np.concatenate((ev, eu))


def same_bits(a, b):
    # equal values with equal sign bits: -0.0 == 0.0 would pass alone
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def path_layout(t, half=False):
    """The lone loop's layout of a path: its vertices walked from the
    lowest-id leaf, and a buffer that keeps one +0.0 before x and one after
    it, with x and its left and right neighbor slices as views, of the
    whole path or, with half, of its first ceil(n / 2) positions."""
    order = _rooted(t.adjacency, t.degrees().index(1))[0]
    n = t.vertex_count
    m = (n + 1) // 2 if half else n
    xe = np.zeros(n + 2)
    return order, xe, xe[1 : m + 1], xe[:m], xe[2 : m + 2]


class TestNeighborColumns:
    """On a path held in path order, A x is the sum of two slices of the
    iterate's buffer, the left and right neighbor columns, a pad's +0.0
    standing in for an end's missing term.  For an x with no -0.0, as the
    lone loop holds it, the sum read back in vertex order must be the
    scatter's sum (0 + t1) + t2 bit for bit.  So must the sum over the
    first half of a mirror-symmetric x, its right pad copied from the
    mirror, read back at the nearer of each vertex's position and its
    mirror's."""

    @pytest.mark.parametrize("sizes", [(3,), (4,), (7,), (301,), (3, 7, 150, 301)])
    def test_column_sum_is_the_scatter(self, sizes):
        # each path alone in its buffer, as the lone loop holds it
        rng = random.Random(sum(sizes))
        for n in sizes:
            t = relabelled(make_path(n), rng)
            tgt, src = scatter_pairs([t])
            order, xe, x, left, right = path_layout(t)
            pos = np.argsort(order)
            x[...] = [rng.choice((0.0, 0.75, -1.5, rng.random(), -rng.random())) for _ in range(n)]
            want = np.bincount(tgt, weights=x.take(pos)[src], minlength=n)
            assert same_bits((left + right).take(pos), want)
            # x + x[::-1] is mirror-symmetric bit for bit, as addition
            # commutes, and holds no -0.0
            symmetric = x + x[::-1]
            order, xe, x, left, right = path_layout(t, half=True)
            h = len(x)
            x[...] = symmetric[:h]
            xe[h + 1] = x[n - 1 - h]  # the right pad, position h, from its mirror
            want = np.bincount(tgt, weights=symmetric.take(pos)[src], minlength=n)
            assert same_bits((left + right).take(np.minimum(pos, n - 1 - pos)), want)

    def test_columns_follow_the_pairs(self):
        # the two slices give each position the terms the scatter pairs
        # list for its vertex, the pads +0.0 at the two ends, which are the
        # path's leaves, the lowest-id leaf first
        t = relabelled(make_path(9), random.Random(9))
        tgt, src = scatter_pairs([t])
        order, xe, x, left, right = path_layout(t)
        x[...] = np.array(order) + 1  # vertex ids shifted off the pads' 0
        assert order[0] == min(v for v in range(9) if t.degree(v) == 1)
        assert t.degree(order[-1]) == 1 and xe[0] == xe[-1] == 0.0
        for i, v in enumerate(order):
            terms = sorted(int(u) - 1 for u in (left[i], right[i]) if u)
            assert terms == sorted(src[tgt == v].tolist())


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
        for t, r in zip(cats, spectral_radii(cats)):
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
