"""Spectral radius (index) and Perron vector of a tree, plus the function
checks used by the rearrangement machinery: Rayleigh quotients, the
positive-eigenvector bound, unimodality, and caterpillar symmetry.

Whole classes of same-order trees have one screen, `_bipartite_indices`,
which the class search and `verify-min` share: a tree is bipartite, so its
index is the root of the top eigenvalue of B B^T, B the biadjacency with
the smaller side on its rows, at most n/2 square, and one
`np.linalg.eigvalsh` call takes a chunk of these stacked Gram matrices.
Screened values rank trees, while reported indices come from
`spectral_radius` or, for several trees at once, `spectral_radii`.

The index of a tree is computed matrix-free by shifted power iteration.
Trees are bipartite, so -mu is also an eigenvalue; iterating on A + cI with
c = max degree separates |mu + c| from |-mu + c| and makes the iteration
converge to the Perron direction from the all-ones start.  Convergence is
measured by the eigenvalue-equation residual

    residual = max_v | mu*f(v) - sum_{u ~ v} f(u) |.

Each sweep computes s = A x once and uses s both to check x and for the
power step from x.  Everything runs in float64.  Two loops run the
sweeps, each with one job.  The lone loop runs one tree from start to
finish: the sweeps, the polish and the budget exit.  Its state is plain
locals, with no per-sweep views or lists.  The block loop only sweeps,
and checks once per chunk of sweeps: `spectral_radii` groups its trees of
three or more vertices by order, and each group of two or more runs as one
block up to the polish point.  Every tree that reaches tol there is done;
every other tree, and every tree alone in its order, runs the lone loop
from the start.

The block's s is one scatter over the edges taken in both directions,
`np.bincount`, which starts each vertex at +0.0 and adds its terms in the
order the edges list them.  The lone loop scatters the same way, except
on a path: there s is two neighbor columns, s = x[first], then
s += x[second], two gathers and one add, where a leaf's second term is one
+0.0 kept past x.  It costs less than the scatter's gather, range pass and
zeroed array; once one vertex has three terms the scatter is cheaper.  The
column sum gives every vertex the scatter's (0 + t1) + t2 bit for bit.
Addition commutes, and 0 + t equals t unless t is -0.0; so the sums can
differ only where both terms are -0.0.  The start is positive, and a power
step maps a nonnegative x with no -0.0 to another (a nonnegative matrix
applied to it, divided by a positive norm), so only a polish step can
bring -0.0 into x.  From the first one on, the column sum adds +0, as
(t1 + t2) + 0 equals (0 + t1) + t2 for every pair.

The two loops give a tree the same bits sweep for sweep, so a tree the
block hands off replays its block sweeps exactly in the lone loop.  In a
block each vertex receives its own tree's terms in the order the tree
alone gives them, the power step is elementwise, and the dots mu = x.s and
y.y are taken by `np.matmul` of (r, 1, n) and (r, n, 1) views, which numpy
computes row by row with the kernel of `ndarray.dot`, the call the lone
loop makes.  The lone loop keeps its shift and its norm as scalars, whose
products and quotients are those of the block's spread vectors, element by
element; it reads the screen's entries as Python floats and takes the
norm's root with `math.sqrt`, both the IEEE operations numpy applies to
its float64 scalars.  The lone loop's check is screened
exactly: the residual entry at the vertex where the last full residual
vector peaked is computed with the same IEEE operations as in the full
vector, and when it alone exceeds tol, so does the maximum.  The full
residual is taken whenever the screen does not settle it and on every
sweep from the polish point on, so every stop, polish decision and
reported residual is the one the full check gives.  The block has no
screen, since checking never changes a sweep: it sweeps a chunk of
iterates unchecked, keeping each x and s, then takes the full residual of
every tree at every iterate of the chunk at once, and each tree stops at
its first iterate at tol.  A tree that stops keeps stepping on its own
entries, which no other tree reads.

If the top eigenvalue gap is too small for plain power sweeps, a
Rayleigh-quotient polish kicks in halfway through the sweep budget: the
current Rayleigh estimate is used as a shift for a few inverse-iteration
steps, solved exactly in O(n) along the tree.  The reported residual is
always the true residual of the returned vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .trees import Tree, TreeError, _rooted, trunk_path

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "PerronBound",
    "adjacency_matrix",
    "rayleigh_quotient",
    "spectral_radius",
    "spectral_radii",
    "perron_bound_check",
    "is_unimodal",
    "pendant_minima_check",
    "caterpillar_symmetry_check",
    "caterpillar_trunk_residual",
    "symmetrize_caterpillar",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
# trees per stacked eigvalsh call of the class screen; bounds its
# biadjacency stack to CLASS_CHUNK * n * n / 2 floats and its Gram stack to
# half that, however large the class is
CLASS_CHUNK = 128
# iterates per check of a block solve, fewer where they or their A x would
# pass _CHUNK_FLOATS floats, however many trees the block holds
_CHUNK_SWEEPS = 32
_CHUNK_FLOATS = 1 << 14


class ConvergenceError(RuntimeError):
    """Power iteration did not reach the residual target.

    The last iterate is attached as `.result` so callers can inspect it.
    """

    def __init__(self, message: str, result: "SpectralResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SpectralResult:
    """Converged top eigenpair: index mu and positive unit Perron vector."""

    mu: float
    perron: np.ndarray
    residual: float
    iterations: int

    def to_json(self) -> str:
        vec = ",".join("%.17g" % x for x in self.perron)
        return '{"mu":%.17g,"perron":[%s],"residual":%.17g,"iterations":%d}' % (
            self.mu,
            vec,
            self.residual,
            self.iterations,
        )


def adjacency_matrix(t: Tree) -> np.ndarray:
    n = t.vertex_count
    a = np.zeros((n, n))
    eu, ev = _edge_arrays(t)
    a[eu, ev] = 1
    a[ev, eu] = 1
    return a


def _edge_arrays(t: Tree) -> tuple[np.ndarray, np.ndarray]:
    edges = t.edges()
    if not edges:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    eu, ev = zip(*edges)
    return np.asarray(eu, dtype=np.intp), np.asarray(ev, dtype=np.intp)


def _bipartite_indices(trees: Sequence[Tree]) -> np.ndarray:
    """Index of every tree in `trees`, all of one order n and each in the
    listing's layout: every vertex v > 0 has its parent at
    `adjacency[v][0] < v`.  A tree that breaks the layout raises
    ValueError.

    A tree is bipartite, A = [[0, B], [B^T, 0]], so its index is the root
    of the top eigenvalue of the Gram matrix B B^T, where the biadjacency B
    has the tree's smaller side, p <= n/2 vertices, on its rows (Cvetkovic,
    Doob and Sachs, Spectra of Graphs, 1980).  A chunk of CLASS_CHUNK
    trees is coloured by depth parity, read down its parent column one
    vertex at a time for the whole chunk.  Its biadjacency stack, each B
    zero-padded to the chunk's largest sides, is filled by one index
    assignment at the flat positions of the parent edges, and the Gram
    stack, of small integers and so exact, goes through one
    `np.linalg.eigvalsh` call.  The values agree with the top eigenvalues
    of the n x n adjacency matrices to within about 1e-14: enough to rank
    a class and to print to 6 places, not to report an index to 17 digits
    or to order trees of equal index.
    """
    trees = list(trees)
    if not trees:
        return np.zeros(0)
    n = trees[0].vertex_count
    if any(t.vertex_count != n for t in trees):
        raise ValueError("_bipartite_indices needs trees of one order")
    out = np.empty(len(trees))
    for start in range(0, len(trees), CLASS_CHUNK):
        rows = [t.adjacency for t in trees[start : start + CLASS_CHUNK]]
        k = len(rows)
        parent = np.fromiter(map(itemgetter(0), chain.from_iterable(r[1:] for r in rows)), np.intp, k * (n - 1))
        parent = parent.reshape(k, n - 1)
        if np.max(parent - np.arange(1, n), initial=-1) >= 0:
            raise ValueError("_bipartite_indices needs each vertex v > 0 to have its parent at adjacency[v][0] < v")
        # tree i on flat entries i*n to i*n + n - 1
        base = np.arange(0, k * n, n).reshape(k, 1)
        child, up = base + np.arange(1, n), base + parent
        odd = np.zeros(k * n, dtype=np.intp)
        for v in range(1, n):
            odd[v::n] = 1 - odd[up[:, v - 1]]
        # the rows take each tree's odd side where it is no larger than the even one
        on_rows = odd == np.where(2 * odd.reshape(k, n).sum(axis=1) <= n, 1, 0).repeat(n)
        # rank[v]: the row-side vertices of v's tree up to and including v
        rank = np.cumsum(on_rows.reshape(k, n), axis=1).reshape(-1)
        sides = rank[n - 1 :: n]
        p, q = max(int(sides.max()), 1), n - int(sides.min())
        # each edge joins one row-side vertex, rank - 1 on the rows, to one
        # column-side vertex, v - rank on the columns
        row_end = np.where(on_rows[child], child, up)
        col_end = child + up - row_end
        at = np.arange(0, k * p * q, p * q).reshape(k, 1) + (rank[row_end] - 1) * q + (col_end - base) - rank[col_end]
        stack = np.zeros((k, p, q))
        stack.reshape(-1)[at] = 1
        gram = np.matmul(stack, stack.transpose(0, 2, 1))
        out[start : start + k] = np.sqrt(np.linalg.eigvalsh(gram)[:, -1])
    return out


def rayleigh_quotient(t: Tree, f) -> float:
    """2 * sum_{uv in E} f(u) f(v) / sum_v f(v)^2  ==  <Af, f> / <f, f>."""
    f = np.asarray(f)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    norm2 = float(f @ f)
    if norm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    eu, ev = _edge_arrays(t)
    return float(2.0 * np.sum(f[eu] * f[ev]) / norm2)


def _tree_shift_solve(t: Tree, sigma, b: np.ndarray):
    """Solve (A - sigma*I) y = b exactly by leaf elimination; None if a
    pivot vanishes (sigma essentially an eigenvalue of a subtree)."""
    n = t.vertex_count
    order, parent = _rooted(t.adjacency, 0)
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


def _rayleigh_step(t: Tree, x: np.ndarray, mu: float):
    """One inverse-iteration step shifted by the Rayleigh estimate mu: the
    unit solution of (A - mu*I) y = x with positive sum, or None if the
    shift and its nudges all hit a vanishing pivot."""
    for bump in (0.0, 1e-10, -1e-10, 1e-8):
        y = _tree_shift_solve(t, mu + bump * max(1.0, abs(mu)), x)
        if y is not None:
            y = y / np.sqrt(y @ y)
            return -y if float(np.sum(y)) < 0.0 else y
    return None


def _neighbor_columns(tgt: np.ndarray, src: np.ndarray, size: int) -> np.ndarray:
    """For a path of `size` vertices, whose every vertex has one or two
    neighbor terms in the scatter pairs `tgt`/`src`: the rows `first` and
    `second` that give vertex v its terms x[first[v]] and x[second[v]] in
    the order the pairs list them.  A leaf's second term is index `size`,
    which the iterate's buffer keeps at +0.0 just past x."""
    first, second = [size] * size, [size] * size
    for v, u in zip(tgt.tolist(), src.tolist()):
        if first[v] == size:
            first[v] = u
        else:
            second[v] = u
    return np.array((first, second))


def _scatter_pairs(trees: list[Tree]) -> tuple[np.ndarray, np.ndarray]:
    """The scatter pairs `tgt`/`src` of k trees of one order n laid end to
    end, tree i on vertices i*n to i*n + n - 1.  Edge uv sends x[v] to u,
    then (second half) x[u] to v, so in a block a vertex receives its own
    tree's terms in the order a lone tree gives them."""
    n = trees[0].vertex_count
    edges = [_edge_arrays(t) for t in trees]
    eu = np.concatenate([u + i * n for i, (u, _) in enumerate(edges)])
    ev = np.concatenate([v + i * n for i, (_, v) in enumerate(edges)])
    return np.concatenate((eu, ev)), np.concatenate((ev, eu))


def _lone_iteration(t: Tree, tol: float, max_iter: int) -> SpectralResult:
    """The power-iteration loop on one tree of three or more vertices, as
    the module docstring describes: the last iterate, unchecked.  Its state
    is plain locals: the shift, the screen entry w, the polish count, and
    the iterate x, a view of a buffer that keeps one +0.0 past it.  The
    screen reads its two entries as Python floats with `ndarray.item` and
    the norm's root is `math.sqrt`, the same IEEE operations as on numpy
    float64 scalars.  A polish step replaces x outright, with no power step
    from it."""
    n = t.vertex_count
    tgt, src = _scatter_pairs([t])
    degree = max(t.degrees())
    columns = _neighbor_columns(tgt, src, n) if degree <= 2 else None
    if columns is not None:
        first, second = columns
    shift = float(degree)
    xe = np.zeros(n + 1)
    x = xe[:n]
    x[...] = 1 / math.sqrt(n)  # the unit all-ones start, as in the block
    y = np.empty_like(x)
    w = 0  # where the last full residual vector peaked
    polish = 8  # Rayleigh steps allowed from the polish point on
    fallback_at = max(1, max_iter // 2)  # never above max_iter
    signed = False  # whether a polish step has written x, which may put -0.0 in it
    iterations = 0
    while True:
        # s = A x serves both the check of x and the next step from x
        if columns is not None:
            s = xe[first]
            s += xe[second]
            if signed:
                s += 0  # (t1 + t2) + 0 is the scatter's (0 + t1) + t2, signed zeros included
        else:
            s = np.bincount(tgt, weights=x[src], minlength=n)
        if iterations:
            mu = float(x.dot(s))
            # before fallback_at only res <= tol ends the power steps; one
            # residual entry above tol, rounded to float as res is, proves
            # res > tol
            if iterations >= fallback_at or not abs(mu * x.item(w) - s.item(w)) > tol:
                r = np.abs(mu * x - s)
                w = int(np.argmax(r))
                res = float(r[w])
                if res > tol and iterations >= fallback_at and polish:
                    polish -= 1
                    z = _rayleigh_step(t, x, mu)
                    if z is not None:
                        x[...] = z
                        signed = True
                        iterations += 1
                        continue
                    polish = 0
                if res <= tol or iterations >= max_iter:
                    return SpectralResult(mu, x.copy(), res, iterations)
        np.multiply(shift, x, out=y)
        y += s  # s + c x, as addition commutes
        np.divide(y, math.sqrt(y.dot(y)), out=x)
        iterations += 1


def _block_sweeps(trees: list[Tree], tol: float, fallback_at: int) -> list[SpectralResult | None]:
    """The power sweeps of two or more trees of one order n >= 3, in
    float64, as the module docstring describes: the iterate of each tree
    where its residual first reaches tol, by sweep `fallback_at`, unchecked,
    and None for each tree still running there.  The block lays the k trees
    end to end on flat vectors, tree i on entries i*n to i*n + n - 1, and
    spreads each tree's shift and norm over its n entries.  Each sweep takes
    the k norms y.y by one matmul of (k, 1, n) and (k, n, 1) views; each
    chunk of sweeps takes all its dots x.s by one matmul and all its full
    residuals by one pass."""
    k, n = len(trees), trees[0].vertex_count
    tgt, src = _scatter_pairs(trees)
    shift = np.repeat(np.array([max(t.degrees()) for t in trees], dtype=np.float64), n)
    rows = max(1, min(_CHUNK_SWEEPS, _CHUNK_FLOATS // (k * n)))
    xs = np.empty((rows + 1, k * n))  # row j: iterate done + j; row m starts the next chunk
    ss = np.empty((rows, k * n))
    xs[0] = 1 / np.sqrt(n)  # the lone loop's start for every tree
    y = np.empty(k * n)
    yr, yc = y.reshape(k, 1, n), y.reshape(k, n, 1)
    norms = np.empty((k, 1, 1))
    results: list = [None] * k
    live = np.ones(k, dtype=bool)
    done = 0  # sweeps before the chunk
    while True:
        m = min(rows, fallback_at + 1 - done)  # the last chunk ends at fallback_at
        for j in range(m):
            # s = A x serves both the check of x and the next step from x
            ss[j] = np.bincount(tgt, weights=xs[j][src], minlength=k * n)
            # a stopped tree steps on beside the others and is never read again
            np.multiply(shift, xs[j], out=y)
            y += ss[j]  # s + c x, as addition commutes
            np.matmul(yr, yc, out=norms)
            np.divide(y, np.sqrt(norms, out=norms).repeat(n), out=xs[j + 1])
        first = 0 if done else 1  # iterate 0 is never checked
        # row r: tree r % k at iterate done + first + r // k
        x, s = xs[first:m].reshape(-1, n), ss[first:m].reshape(-1, n)
        mus = np.matmul(x.reshape(-1, 1, n), s.reshape(-1, n, 1)).reshape(-1)
        r = np.abs(mus.repeat(n) * x.reshape(-1) - s.reshape(-1))
        res = np.maximum.reduceat(r, np.arange(0, r.size, n))
        reached = (res <= tol).reshape(-1, k)
        for i in np.flatnonzero(live & reached.any(axis=0)).tolist():
            row = int(np.argmax(reached[:, i])) * k + i
            results[i] = SpectralResult(mus.item(row), x[row].copy(), res.item(row), done + first + row // k)
            live[i] = False
        if not live.any() or done + m - 1 >= fallback_at:
            return results
        xs[0] = xs[m]
        done += m


def _power_iteration(trees: list[Tree], tol: float, max_iter: int) -> list[SpectralResult]:
    """The last iterate of each tree, unchecked; `_solve` checks them.
    Trees of one and two vertices take their closed forms.  The others are
    grouped by order: each group of two or more runs the block sweeps up to
    the lone loop's polish point, checked once per chunk of sweeps, and
    every tree alone in its order or left running there runs the lone loop
    from the start.  A block of two trees already costs less than two lone
    solves."""
    results: list = [None] * len(trees)
    orders: dict[int, list[int]] = {}
    for pos, t in enumerate(trees):
        if t.vertex_count == 1:
            results[pos] = SpectralResult(0.0, np.ones(1), 0.0, 0)
        elif t.vertex_count == 2:
            r = math.sqrt(0.5)
            results[pos] = SpectralResult(1.0, np.array([r, r]), 0.0, 0)
        else:
            orders.setdefault(t.vertex_count, []).append(pos)
    fallback_at = max(1, max_iter // 2)  # the lone loop's polish point
    for group in orders.values():
        if len(group) > 1:
            for pos, r in zip(group, _block_sweeps([trees[pos] for pos in group], tol, fallback_at)):
                results[pos] = r
    return [_lone_iteration(t, tol, max_iter) if r is None else r for t, r in zip(trees, results)]


def _solve(trees: list[Tree], tol: float, max_iter: int) -> list[SpectralResult]:
    """Validate the budget, run the block, and raise the ConvergenceError of
    the first tree in order whose last iterate misses tol or is not
    entrywise positive."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    results = _power_iteration(trees, tol, max_iter)
    for r in results:
        if r.residual > tol:
            raise ConvergenceError(
                f"residual {r.residual:.3e} above tol {tol:.3e} after {r.iterations} iterations",
                r,
            )
        if not np.all(r.perron > 0.0):
            raise ConvergenceError("iterate is not entrywise positive", r)
    return results


def spectral_radii(
    trees: Sequence[Tree],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SpectralResult]:
    """`spectral_radius` of every tree in `trees`, in order, solved as one
    block: each result equals the one `spectral_radius` gives that tree,
    byte for byte.  A failure raises the ConvergenceError of the first
    failing tree in order, as `spectral_radius` raises it for that tree."""
    return _solve(list(trees), tol, max_iter)


def spectral_radius(
    t: Tree,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    extended: bool = False,
) -> SpectralResult:
    """Index mu(t) with its positive unit eigenvector, in float64: the lone
    loop of the power iteration.

    There is no extended-precision mode: `extended=True` raises
    ValueError.  The parameter stays only because the benchmark's tracer,
    `bench/tracing.py`, binds every traced call and reads
    `arguments["extended"]`; without it `--trace 1` runs would fail.
    """
    if extended:
        raise ValueError("spectral_radius has no extended-precision mode")
    return _solve([t], tol, max_iter)[0]


@dataclass(frozen=True)
class PerronBound:
    """Outcome of checking mu >= 2 sum_{uv} f(u) f(v) for a candidate f."""

    holds: bool
    equality: bool
    edge_sum: float


def perron_bound_check(t: Tree, f, result: SpectralResult, tol: float = 1e-10) -> PerronBound:
    """Check the positive-test-vector bound against a converged result.

    `f` must be positive with unit norm; equality within tol forces f to be
    the Perron vector itself.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    if not np.all(f > 0.0):
        raise ValueError("valuation must be entrywise positive")
    if abs(float(f @ f) - 1.0) > 1e-12:
        raise ValueError("valuation must have unit norm")
    eu, ev = _edge_arrays(t)
    edge_sum = float(2.0 * np.sum(f[eu] * f[ev]))
    return PerronBound(
        holds=result.mu >= edge_sum - tol,
        equality=abs(result.mu - edge_sum) <= tol,
        edge_sum=edge_sum,
    )


def is_unimodal(t: Tree, f, v_hat: int, tol: float = 0.0) -> bool:
    """True iff positive f is non-increasing along every path leaving v_hat
    and constant on at most one edge, which must be incident to v_hat.

    Each edge is checked on its own, from the end nearer v_hat in the walk
    rooted at v_hat.  `tol` widens the equality band; the default compares
    floats exactly, which is the right mode for transported valuations
    whose entries are literal copies of each other.  A valuation of the
    wrong length, or a v_hat that is a bool, not an integer or outside
    0..n-1, raises ValueError.
    """
    f = np.asarray(f)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    if isinstance(v_hat, bool) or not isinstance(v_hat, numbers.Integral):
        raise ValueError(f"vertex must be an integer, got {v_hat!r}")
    if not 0 <= v_hat < t.vertex_count:
        raise ValueError(f"vertex {v_hat} out of range for n={t.vertex_count}")
    if not np.all(f > 0.0):
        return False
    flat_edges = 0
    order, parent = _rooted(t.adjacency, v_hat)
    for u in order[1:]:
        diff = float(f[u] - f[parent[u]])
        if diff > tol:
            return False
        if abs(diff) <= tol:
            flat_edges += 1
            if parent[u] != v_hat or flat_edges > 1:
                return False
    return True


def _perron_of(t: Tree, result: SpectralResult) -> np.ndarray:
    """The Perron vector of result, which must have one entry per vertex of
    t: ValueError otherwise."""
    f = result.perron
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    return f


def pendant_minima_check(t: Tree, result: SpectralResult) -> bool:
    """True iff every pendant vertex is a strict local minimum of the
    Perron vector.  K_2 fails by symmetry: both entries are equal.  A
    result of the wrong length raises ValueError."""
    f = _perron_of(t, result)
    for v in t.vertices():
        if t.degree(v) == 1:
            u = t.neighbors(v)[0]
            if not f[v] < f[u]:
                return False
    return True


def _caterpillar_mirror_orbits(t: Tree) -> list[list[int]]:
    trunk = trunk_path(t)
    k = len(trunk)
    orbits: list[list[int]] = []
    if k == 0:
        orbits.append(list(t.vertices()))
        return orbits
    for i in range((k + 1) // 2):
        a, b = trunk[i], trunk[k - 1 - i]
        orbits.append([a] if a == b else [a, b])
        pa = sorted(u for u in t.neighbors(a) if t.degree(u) == 1)
        pb = sorted(u for u in t.neighbors(b) if t.degree(u) == 1)
        if len(pa) != len(pb):
            raise TreeError("caterpillar pendant loads are not mirror-symmetric")
        pod = sorted(set(pa) | set(pb))
        if pod:
            orbits.append(pod)
    return orbits


def caterpillar_symmetry_check(t: Tree, result: SpectralResult, tol: float = 1e-9) -> bool:
    """True iff the Perron values are invariant under reversing the trunk.

    Pendant values are compared pod against mirrored pod as sorted lists.
    A result of the wrong length raises ValueError.
    """
    f = _perron_of(t, result)
    trunk = trunk_path(t)  # raises if not a caterpillar
    k = len(trunk)
    for i in range(k // 2 + 1):
        j = k - 1 - i
        if j < i:
            break
        if abs(float(f[trunk[i]] - f[trunk[j]])) > tol:
            return False
        pa = sorted(float(f[u]) for u in t.neighbors(trunk[i]) if t.degree(u) == 1)
        pb = sorted(float(f[u]) for u in t.neighbors(trunk[j]) if t.degree(u) == 1)
        if len(pa) != len(pb):
            return False
        if any(abs(x - y) > tol for x, y in zip(pa, pb)):
            return False
    return True


def symmetrize_caterpillar(t: Tree, f) -> np.ndarray:
    """Average a caterpillar valuation over the trunk-reversal symmetry and
    renormalize.

    The true Perron vector is exactly mirror-symmetric; averaging removes
    the last-bit numerical asymmetry so that mirror entries compare equal
    under the exact float comparisons used by valuation transport.  A
    valuation of the wrong length, or one that averages to the zero
    vector, raises ValueError.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    out = f.copy()
    for orbit in _caterpillar_mirror_orbits(t):
        out[orbit] = float(np.mean(f[orbit]))
    norm2 = float(out @ out)
    if norm2 == 0.0:
        raise ValueError("the symmetrized valuation is the zero vector and has no direction")
    out /= np.sqrt(norm2)
    return out


def caterpillar_trunk_residual(t: Tree, result: SpectralResult) -> float:
    """Largest violation of the trunk recurrence

        (mu - (d-2)/mu) * f(v_i) = f(v_{i-1}) + f(v_{i+1})

    where v_0 and v_{k+1} are pendant neighbors of the trunk ends.  The
    recurrence follows from eliminating pendant values (mu*f(p) = f(v_i))
    from the eigenvalue equation; it holds at every trunk vertex of a
    caterpillar whose non-pendant vertices share the degree d.  A result
    of the wrong length raises ValueError.
    """
    f = _perron_of(t, result)
    trunk = trunk_path(t)
    if not trunk:
        return 0.0
    d = t.degree(trunk[0])
    if any(t.degree(v) != d for v in trunk):
        raise TreeError("trunk degrees are not constant")
    mu = result.mu
    coef = mu - (d - 2) / mu
    ends = [min(u for u in t.neighbors(v) if t.degree(u) == 1) for v in (trunk[0], trunk[-1])]
    ext = [ends[0], *trunk, ends[1]]  # v_0, v_1 .. v_k, v_{k+1}
    worst = 0.0
    for i, v in enumerate(trunk):
        around = float(f[ext[i]]) + float(f[ext[i + 2]])
        worst = max(worst, abs(coef * float(f[v]) - around))
    return worst
