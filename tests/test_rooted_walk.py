"""One breadth-first walk behind Tree.path, branch, the centres, the shift
solve and is_unimodal, checked against the traversals each of them used to
run on its own, and the vertex-id checks the walk's -1 sentinel needs."""

import random

import numpy as np
import pytest

from treeindex.enumeration import enumerate_trees, free_trees
from treeindex.spectral import _tree_shift_solve, is_unimodal, spectral_radius
from treeindex.trees import (
    Branch,
    DegreeSequence,
    TreeError,
    _centers,
    _rooted,
    branch,
    make_caterpillar,
    make_path,
    tree_from_edges,
)

# ---------------------------------------------------------------------------
# reference traversals: one hand-written walk per query


def ref_path(t, source, target):
    parent = {source: source}
    stack = [source]
    while stack and target not in parent:
        v = stack.pop()
        for u in t.adjacency[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    if target not in parent:
        raise TreeError(f"no path from {source} to {target}")
    out = [target]
    while out[-1] != source:
        out.append(parent[out[-1]])
    out.reverse()
    return out


def ref_branch(t, v, u):
    if u not in t.neighbors(v):
        raise TreeError(f"{u} is not adjacent to {v}")
    if t.degree(v) < 2 or t.degree(u) < 2:
        raise TreeError("both branch endpoints must be non-pendant")
    comp = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in t.neighbors(w):
            if x == v and w == u:
                continue
            if x not in comp:
                comp.add(x)
                stack.append(x)
    comp.add(v)
    length = sum(1 for w in comp if t.degree(w) >= 2)
    return Branch(root=v, gateway=u, vertices=frozenset(comp), length=length)


def ref_centers(adj):
    n = len(adj)
    if n == 1:
        return [0]
    degree = [len(nbrs) for nbrs in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for u in adj[v]:
                if degree[u] > 1:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
                elif degree[u] == 1:
                    degree[u] -= 1
                    if remaining == 2:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def ref_tree_shift_solve(t, sigma, b):
    n = t.vertex_count
    parent = np.full(n, -1, dtype=np.intp)
    order = [0]
    parent[0] = 0
    for v in order:
        for u in t.neighbors(v):
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    parent[0] = -1
    d = np.zeros(n, dtype=b.dtype)
    bb = b.astype(b.dtype, copy=True)
    for v in reversed(order):
        pivot = -sigma
        for u in t.neighbors(v):
            if u != parent[v]:
                pivot = pivot - 1.0 / d[u]
        if abs(pivot) < 1e-14:
            return None
        d[v] = pivot
        for u in t.neighbors(v):
            if u != parent[v]:
                bb[v] = bb[v] - bb[u] / d[u]
    y = np.zeros(n, dtype=b.dtype)
    for v in order:
        if parent[v] < 0:
            y[v] = bb[v] / d[v]
        else:
            y[v] = (bb[v] - y[parent[v]]) / d[v]
    return y


def ref_is_unimodal(t, f, v_hat, tol=0.0):
    f = np.asarray(f)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    if not np.all(f > 0.0):
        return False
    flat_edges = 0
    parent = {v_hat: -1}
    stack = [v_hat]
    while stack:
        v = stack.pop()
        for u in t.neighbors(v):
            if u in parent:
                continue
            parent[u] = v
            stack.append(u)
            diff = float(f[u] - f[v])
            if diff > tol:
                return False
            if abs(diff) <= tol:
                if v != v_hat:
                    return False
                flat_edges += 1
                if flat_edges > 1:
                    return False
    return True


# ---------------------------------------------------------------------------
# the trees


def random_semiregular(d, k, rng):
    """A random d-semiregular tree with k internal vertices, relabelled."""
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
    perm = list(range(n))
    rng.shuffle(perm)
    return tree_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def sweep():
    trees = [t for k in range(1, 12) for t in free_trees(k)]
    for text in ("4^4,3^2,2,1^12", "3^4,2^6,1^6", "4^3,3^3,2,1^11"):
        trees.extend(enumerate_trees(DegreeSequence.parse(text)))
    for d, first in ((3, 4), (4, 5), (5, 6)):
        for n in range(first, 21, d - 1):
            trees.extend(enumerate_trees(DegreeSequence.semiregular(d, n)))
    rng = random.Random(2009)
    trees.extend(random_semiregular(rng.choice((3, 4, 5)), rng.randrange(2, 40), rng)
                 for _ in range(40))
    trees.append(make_path(700))
    return trees


@pytest.fixture(scope="module")
def sweep_trees():
    return sweep()


def test_sweep_covers_small_and_large_trees(sweep_trees):
    sizes = {t.vertex_count for t in sweep_trees}
    assert {1, 2, 700} <= sizes
    assert len(sweep_trees) > 1800


# ---------------------------------------------------------------------------
# the walk against the references


def path_pairs(t, rng):
    """Every pair on trees of up to 11 vertices; else every vertex to 0, and
    10 random pairs."""
    n = t.vertex_count
    if n <= 11:
        return [(s, r) for s in range(n) for r in range(n)]
    return [(s, 0) for s in range(n)] + [(rng.randrange(n), rng.randrange(n)) for _ in range(10)]


def test_path_matches_depth_first_search(sweep_trees):
    rng = random.Random(1)
    for t in sweep_trees:
        for s, r in path_pairs(t, rng):
            assert t.path(s, r) == ref_path(t, s, r)


def test_branch_matches_component_search(sweep_trees):
    for t in sweep_trees:
        for v in t.vertices():
            for u in t.neighbors(v):
                if t.degree(v) >= 2 and t.degree(u) >= 2:
                    assert branch(t, v, u) == ref_branch(t, v, u)


def test_centers_match_leaf_peeling(sweep_trees):
    for t in sweep_trees:
        assert _centers(t.adjacency) == ref_centers(t.adjacency)


def test_shift_solve_is_bit_identical(sweep_trees):
    rng = np.random.default_rng(7)
    vanished = 0
    for t in sweep_trees:
        b = rng.random(t.vertex_count)
        rooting = _rooted(t.adjacency, 0)
        # 0 and 1 are eigenvalues of many small subtrees, so some pivots vanish
        for sigma in (0.0, 1.0, 2.1):
            got = _tree_shift_solve(t, rooting, sigma, b)
            want = ref_tree_shift_solve(t, sigma, b)
            if want is None:
                vanished += 1
                assert got is None
            else:
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes()
    assert vanished > 100


def valuations(t, v_hat, rng):
    """(f, tol, verdict) triples: strictly decreasing away from v_hat, one
    or two flat edges at v_hat, a flat edge away from it, noise inside a
    tolerance, and noisy or random values (verdict None: not known ahead)."""
    n = t.vertex_count
    depth = np.array(depths(t, v_hat), dtype=float)
    base = n - depth  # integers, so every lift below is exact
    out = [(base, 0.0, True), (base * (1 + 1e-12 * rng.standard_normal(n)), 1e-6, True)]
    out.append((base * (1 + 1e-3 * rng.standard_normal(n)), 0.0, None))
    out.append((rng.random(n) + 0.1, 0.0, None))
    out.append((rng.random(n) + 0.1, 0.3, None))

    def lifted(*edges):
        f = base.copy()
        for v, u in edges:
            side = list(component(t, u, v))
            f[side] += f[v] - f[u]
        return f

    gates = list(t.neighbors(v_hat))
    if gates:
        out.append((lifted((v_hat, gates[0])), 0.0, True))
        out.append((lifted((v_hat, gates[0])) * (1 + 1e-12 * rng.random(n)), 1e-6, True))
    if len(gates) >= 2:
        out.append((lifted((v_hat, gates[0]), (v_hat, gates[1])), 0.0, False))
    deeper = [(v, u) for v in range(n) for u in t.neighbors(v)
              if depth[v] >= 1 and depth[u] == depth[v] + 1]
    if deeper:
        out.append((lifted(deeper[0]), 0.0, False))
        out.append((lifted(deeper[-1]), 1e-6, False))
    return out


def depths(t, root):
    depth = [-1] * t.vertex_count
    depth[root] = 0
    stack = [root]
    while stack:
        v = stack.pop()
        for u in t.neighbors(v):
            if depth[u] < 0:
                depth[u] = depth[v] + 1
                stack.append(u)
    return depth


def component(t, u, v):
    """u and every vertex reached from u without crossing to v."""
    comp = {u}
    stack = [u]
    while stack:
        w = stack.pop()
        for x in t.neighbors(w):
            if x not in comp and not (w == u and x == v):
                comp.add(x)
                stack.append(x)
    return comp


def test_is_unimodal_matches_depth_first_check(sweep_trees):
    rng = np.random.default_rng(11)
    verdicts = {True: 0, False: 0}
    for t in sweep_trees:
        n = t.vertex_count
        for v_hat in sorted({0, n // 2} if n > 20 else {n // 2}):
            for f, tol, known in valuations(t, v_hat, rng):
                got = is_unimodal(t, f, v_hat, tol)
                assert got == ref_is_unimodal(t, f, v_hat, tol)
                assert known is None or got == known
                verdicts[got] += 1
    assert min(verdicts.values()) > 3000


def test_is_unimodal_on_perron_vectors(sweep_trees):
    for t in sweep_trees[::25]:
        f = spectral_radius(t).perron
        for v_hat in {int(np.argmax(f)), 0}:
            for tol in (0.0, 1e-12):
                assert is_unimodal(t, f, v_hat, tol) == ref_is_unimodal(t, f, v_hat, tol)


# ---------------------------------------------------------------------------
# vertex ids outside 0..n-1


@pytest.mark.parametrize("source,target", [(-1, 2), (2, -1), (7, 0), (0, 5), (5, 5)])
def test_path_rejects_vertex_out_of_range(source, target):
    with pytest.raises(TreeError, match="out of range"):
        make_path(5).path(source, target)


def test_path_endpoints():
    t = make_path(5)
    assert t.path(1, 3) == [1, 2, 3]
    assert t.path(3, 1) == [3, 2, 1]
    assert t.path(4, 4) == [4]
    assert make_path(1).path(0, 0) == [0]


@pytest.mark.parametrize("v,u", [(-7, 2), (10, 2), (-1, 0)])
def test_branch_rejects_vertex_out_of_range(v, u):
    with pytest.raises(TreeError, match="out of range"):
        branch(make_caterpillar(3, 10), v, u)


@pytest.mark.parametrize("v_hat", [-3, -1, 5, 6])
def test_is_unimodal_rejects_vertex_out_of_range(v_hat):
    f = [0.2, 0.5, 1.0, 0.5, 0.2]
    assert is_unimodal(make_path(5), f, 2)
    with pytest.raises(ValueError, match="out of range"):
        is_unimodal(make_path(5), f, v_hat)
