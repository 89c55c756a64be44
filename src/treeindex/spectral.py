"""Spectral radius (index) and Perron vector of a tree, plus the function
checks used by the rearrangement machinery: Rayleigh quotients, the
positive-eigenvector bound, unimodality, and caterpillar symmetry.

Whole classes of same-order trees have one screen, `_parent_indices`,
which the class search and `verify-min` share.  It reads a listed class's
parent columns, `trees.parents()` of `enumeration._listing`, with no tree
built: a tree is bipartite, so its index is the root of the top
eigenvalue of B B^T, B the biadjacency with the smaller side on its rows,
at most n/2 square, and one `np.linalg.eigvalsh` call takes a chunk of
these stacked Gram matrices.
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
on a path: there it holds x in path order, walked from the lowest-id
leaf, in a buffer with one +0.0 before x and one after it.  Position i
then has its neighbor terms x[i - 1] and x[i + 1] in two fixed slices of
the buffer, an end taking a pad's +0.0 for its missing term, and s is one
add of the two slices, with no gather.  Only what depends on the order
of the vertices reads x in vertex order, through one gather of n entries:
the dot y.y of each power step and, where the screen does not settle a
sweep, the full check, the polish and the result.  The other steps are
elementwise, so the order does not change their bits.
The slice sum t1 + t2 gives every vertex the scatter's (0 + t1) + t2 bit
for bit, as x never holds -0.0 (see `_lone_iteration`).  Until its first
polish step a path's x is also mirror-symmetric bit for bit, so the lone
loop sweeps only the half of the path from the lowest-id leaf, its right
pad a copy of the entry mirrored there, and each gather reads a vertex at
the nearer of its position and its mirror's.  The first polish step that
returns a vector writes the whole path, and the loop sweeps the whole
path from then on.

The two loops give a tree the same bits sweep for sweep, so a tree the
block hands off replays its block sweeps exactly in the lone loop.  In a
block each vertex receives its own tree's terms in the order the tree
alone gives them, the power step is elementwise, and the dots mu = x.s and
y.y are taken by `np.matmul` of (r, 1, n) and (r, n, 1) views, which numpy
computes row by row with the kernel of `ndarray.dot`, the call the lone
loop makes.  The lone loop keeps its shift and its norm in 0-d float64
buffers, whose products and quotients are those of the block's spread
vectors, element by element; it reads the screen's entries as Python
floats and takes the norm's root with `math.sqrt`, both the IEEE
operations numpy applies to its float64 scalars.

The lone loop's check is screened exactly.  Before the polish point only
res <= tol ends the power steps, so a sweep there need only prove
res > tol, and a two-vertex bound does that with no dot: for any shift m
and vertices a, b with x_a, x_b >= 0,

    max(|m x_a - s_a|, |m x_b - s_b|) >= |s_a x_b - s_b x_a| / (x_a + x_b),

as s_a x_b - s_b x_a = x_b (s_a - m x_a) - x_a (s_b - m x_b).  The loop
takes a and b where the last full signed residual mu*x - s peaked and
dipped, and a sweep whose bound, rounded, passes a slack just above tol
skips the full check; `_lone_iteration` shows that no rounding or
underflow lets the screen pass where the full check would find
res <= tol.  The full residual is taken whenever the screen does not
settle it and on every sweep from the polish point on, so every stop,
polish decision and reported residual is the one the full check gives.
It refreshes a and b and reads res as the larger of the peak and minus
the dip.  The block has no screen, since checking never changes a sweep:
it sweeps a chunk of iterates unchecked, keeping each x and s, then takes
the full residual of every tree at every iterate of the chunk at once,
and each tree stops at its first iterate at tol.  A tree that stops keeps
stepping on its own entries, which no other tree reads.

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


def _parent_indices(parent: np.ndarray) -> np.ndarray:
    """Index of every tree of one order n given by its row of parent, the
    (N, n - 1) parents of vertices 1 to n - 1 in the listing's layout, each
    below its child.  A row that breaks the layout raises ValueError.

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
    n = parent.shape[1] + 1
    if np.max(parent - np.arange(1, n), initial=-1) >= 0:
        raise ValueError("the class screen needs each vertex v > 0 to have its parent below v")
    out = np.empty(len(parent))
    for start in range(0, len(parent), CLASS_CHUNK):
        up = parent[start : start + CLASS_CHUNK]
        k = len(up)
        # tree i on flat entries i*n to i*n + n - 1
        base = np.arange(0, k * n, n).reshape(k, 1)
        child, up = base + np.arange(1, n), base + up
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


def _valuation(t: Tree, f, dtype=None) -> np.ndarray:
    """f as an array of one entry per vertex of t: ValueError otherwise."""
    f = np.asarray(f, dtype)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
    return f


def _edge_sum(t: Tree, f: np.ndarray):
    """2 * sum_{uv in E} f(u) f(v)  ==  <Af, f>."""
    eu, ev = _edge_arrays(t)
    return 2.0 * np.sum(f[eu] * f[ev])


def rayleigh_quotient(t: Tree, f) -> float:
    """2 * sum_{uv in E} f(u) f(v) / sum_v f(v)^2  ==  <Af, f> / <f, f>."""
    f = _valuation(t, f)
    norm2 = float(f @ f)
    if norm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(_edge_sum(t, f) / norm2)


def _tree_shift_solve(t: Tree, rooting: tuple[list[int], list[int]], sigma: float, b: np.ndarray):
    """Solve (A - sigma*I) y = b exactly by leaf elimination along
    `rooting`, the (order, parent) walk `_rooted` gives of t; None if a
    pivot vanishes (sigma essentially an eigenvalue of a subtree).  The
    elimination runs on Python floats, the IEEE operations of float64."""
    order, parent = rooting
    adj = t.adjacency
    d = [0.0] * t.vertex_count
    bb = b.tolist()
    for v in reversed(order):
        up = parent[v]
        pivot, rhs = -sigma, bb[v]
        for u in adj[v]:
            if u != up:
                pivot -= 1.0 / d[u]
                rhs -= bb[u] / d[u]
        if abs(pivot) < 1e-14:
            return None
        d[v], bb[v] = pivot, rhs
    for v in order:  # back substitution in place, parents first: bb[v] becomes y[v]
        if parent[v] < 0:
            bb[v] = bb[v] / d[v]
        else:
            bb[v] = (bb[v] - bb[parent[v]]) / d[v]
    return np.array(bb)


def _rayleigh_step(t: Tree, x: np.ndarray, mu: float):
    """One inverse-iteration step shifted by the Rayleigh estimate mu: the
    unit solution of (A - mu*I) y = x with positive sum, or None if the
    shift and its nudges all hit a vanishing pivot."""
    rooting = _rooted(t.adjacency, 0)
    for bump in (0.0, 1e-10, -1e-10, 1e-8):
        y = _tree_shift_solve(t, rooting, mu + bump * max(1.0, abs(mu)), x)
        if y is not None:
            y = y / np.sqrt(y @ y)
            return -y if float(np.sum(y)) < 0.0 else y
    return None


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


def _full_residual(x: np.ndarray, s: np.ndarray) -> tuple[float, float, int, int]:
    """The lone loop's full check of iterate x with s = A x: mu = x.s, the
    residual max_v |mu x_v - s_v|, and the vertices a and b where the
    signed residual mu x - s peaks and dips.  The residual is the larger
    of the peak and minus the dip, under `abs` so that an all-zero
    residual reads +0.0."""
    mu = float(x.dot(s))
    r = mu * x - s
    a, b = int(r.argmax()), int(r.argmin())
    return mu, abs(max(r.item(a), -r.item(b))), a, b


def _lone_iteration(t: Tree, tol: float, max_iter: int, fallback_at: int) -> SpectralResult:
    """The power-iteration loop on one tree of three or more vertices, as
    the module docstring describes, with its polish point at sweep
    `fallback_at`: the last iterate, unchecked.  Its state is plain locals:
    the screen's vertices a and b, the polish count, the shift and the norm
    in 0-d buffers, and the iterate x.  On a path x is a view of a buffer
    that keeps one +0.0 before it and one after it, in path order: `order`
    lists the vertices along the path, `pos` gives each vertex's position
    and `at` the position the loop reads it at, and a and b are positions.
    A polish step replaces x outright, with no power step from it.

    x never holds -0.0: the start is positive, a power step maps a
    nonnegative x with no -0.0 to another (a nonnegative matrix applied to
    it, divided by a positive norm), and a polish step writes its vector
    plus +0.0.  IEEE addition commutes, signed zeros included, and
    0 + t = t unless t is -0.0, so the path's slice sum t1 + t2 is the
    scatter's (0 + t1) + t2 bit for bit.

    Until a polish step returns a vector, a path's x is mirror-symmetric
    bit for bit: positions i and n - 1 - i hold the same float.  The start
    is constant.  If x is symmetric, position i's slice sum
    x[i - 1] + x[i + 1] and its mirror's x[n - i] + x[n - 2 - i] add the
    same two floats in swapped order (a pad's +0.0 at both ends), and
    addition commutes, so s is symmetric; the power step is elementwise
    with one shift and one norm, so the next x is symmetric too.  So the
    loop sweeps positions 0 to h - 1 alone, h = ceil(n / 2): before each
    slice sum it copies into position h, the half's right pad, the float
    of its mirror n - 1 - h (h - 1 for even n, h - 2 for odd n), which is
    what position h holds.  Every read in vertex order, the norm's dot,
    the screen and the full check, goes through at = min(pos, n - 1 - pos)
    and so gathers the floats the whole path holds, in the same order, and
    every bit stays as the whole path's sweeps give it.  A polish step's
    vector need not be symmetric: the first one returned switches the loop
    to the whole path, `at` to `pos`, for good.

    The screen passes only where the full check finds res > tol.  It runs
    before the polish point, where x comes from power steps alone: x >= 0
    with unit norm to within n ulps, so each |s_v| and |mu x_v| is at most
    K = Δ(1 + 2^-20) for any tree of fewer than 2^30 vertices.  Take
    u = 2^-53 and eta = 2^-1075, the most a product that lands below the
    normal range can be off (a sum or difference of floats is exact
    there).  With X = x_a + x_b and D = s_a x_b - s_b x_a, the screen's
    rounded |D| is at most (|D| + u K X + 2 eta)(1 + u), and its rounded
    slack * X at least slack X (1 - u)^2 - eta.  So a pass gives
    |D| / X > slack (1 - 3u) - u K - 3 eta / X.  A residual entry, rounded
    as fl(fl(mu x_v) - s_v), is at least (|mu x_v - s_v| - u K - eta)(1 - u),
    and by the bound one of a and b has |mu x_v - s_v| >= |D| / X.  Hence,
    as X < 3, the full check gives res > slack (1 - 4u) - 2u K - 6 eta / X.
    The guard X >= 2^-1000 keeps 6 eta / X below 2^-72.  The slack
    tol (1 + 2^-50) + 2^-47 (Δ + 1), rounded, is at least
    tol (1 + 5u) - eta + 2^-47 (Δ + 1)(1 - u), and 2^-47 (Δ + 1) is far
    above 2u K + 2^-72 + eta, so res > tol.  A tol so large that the slack
    overflows makes the screen never pass."""
    n = t.vertex_count
    degree = max(t.degrees())
    shift = np.array(float(degree))
    norm = np.empty(())
    slack = tol * (1 + 2**-50) + 2**-47 * (degree + 1)
    path = degree <= 2
    if path:
        # x in path order from the lowest-id leaf, between two +0.0 pads:
        # position i's neighbor terms are left[i] = x[i - 1] and right[i] = x[i + 1]
        order = np.array(_rooted(t.adjacency, t.degrees().index(1))[0])
        pos = np.empty_like(order)
        pos[order] = np.arange(n)  # each vertex's position on the path
        xe = np.zeros(n + 2)
        # up to the first polish, the half: positions 0 to h - 1, vertex v
        # read at at[v], and position h, the right pad, copied from its
        # mirror n - 1 - h, buffer entries pad and mirror
        h = (n + 1) // 2
        half, at = True, np.minimum(pos, n - 1 - pos)
        pad, mirror = h + 1, n - h
        x, left, right = xe[1 : h + 1], xe[:h], xe[2 : h + 2]
        s = np.empty(h)
    else:
        tgt, src = _scatter_pairs([t])
        half, x = False, np.empty(n)
    x[...] = 1 / math.sqrt(n)  # the unit all-ones start, as in the block
    y = np.empty_like(x)
    a = b = 0  # where the last full signed residual peaked and dipped
    polish = 8  # Rayleigh steps allowed from the polish point on
    iterations = 0
    while True:
        # s = A x serves both the check of x and the next step from x
        if path:
            if half:
                xe[pad] = xe[mirror]
            np.add(left, right, out=s)
        else:
            s = np.bincount(tgt, weights=x.take(src), minlength=n)
        if iterations:
            xa, xb = x.item(a), x.item(b)
            pair = xa + xb
            # before fallback_at only res <= tol ends the power steps; the
            # two-vertex bound above slack proves res > tol
            if iterations >= fallback_at or not (
                pair >= 2**-1000 and abs(s.item(a) * xb - s.item(b) * xa) > slack * pair
            ):
                # the check, the polish and the result read x in vertex order
                xv, sv = (x.take(at), s.take(at)) if path else (x, s)
                mu, res, a, b = _full_residual(xv, sv)
                if path:
                    a, b = at.item(a), at.item(b)
                if res > tol and iterations >= fallback_at and polish:
                    polish -= 1
                    z = _rayleigh_step(t, xv, mu)
                    if z is not None:
                        if half:  # z breaks the symmetry: sweep the whole path from here
                            half, at = False, pos
                            x, left, right = xe[1:-1], xe[:-2], xe[2:]
                            s, y = np.empty(n), np.empty(n)
                        np.add(z.take(order) if path else z, 0.0, out=x)  # -0.0 + 0.0 is +0.0
                        iterations += 1
                        continue
                    polish = 0
                if res <= tol or iterations >= max_iter:
                    return SpectralResult(mu, xv.copy(), res, iterations)
        np.multiply(x, shift, out=y)
        y += s  # s + c x, as addition commutes
        yv = y.take(at) if path else y  # the dot y.y in vertex order
        norm[...] = math.sqrt(yv.dot(yv))
        np.divide(y, norm, out=x)
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
    """The last iterate of each tree, unchecked; `spectral_radii` checks them.
    Trees of one and two vertices take their closed forms.  The others are
    grouped by order: each group of two or more runs the block sweeps up to
    the lone loop's polish point, checked once per chunk of sweeps, and
    every tree alone in its order or left running there runs the lone loop
    from the start.  Both loops get that point from here.  A block of two
    trees already costs less than two lone solves."""
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
    fallback_at = max(1, max_iter // 2)  # the lone loop's polish point, never above max_iter
    for group in orders.values():
        if len(group) > 1:
            for pos, r in zip(group, _block_sweeps([trees[pos] for pos in group], tol, fallback_at)):
                results[pos] = r
    return [_lone_iteration(t, tol, max_iter, fallback_at) if r is None else r for t, r in zip(trees, results)]


def spectral_radii(
    trees: Sequence[Tree],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[SpectralResult]:
    """`spectral_radius` of every tree in `trees`, in order, solved as one
    block: each result equals the one `spectral_radius` gives that tree,
    byte for byte.  A tol that is not a positive finite number, or a
    max_iter that is not an integer of at least 1, raises ValueError.  A
    failure raises the ConvergenceError of the first tree in order whose
    last iterate misses tol or is not entrywise positive."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    results = _power_iteration(list(trees), tol, max_iter)
    for r in results:
        if r.residual > tol:
            raise ConvergenceError(
                f"residual {r.residual:.3e} above tol {tol:.3e} after {r.iterations} iterations",
                r,
            )
        if not np.all(r.perron > 0.0):
            raise ConvergenceError("iterate is not entrywise positive", r)
    return results


def spectral_radius(
    t: Tree,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    extended: bool = False,
) -> SpectralResult:
    """Index mu(t) with its positive unit eigenvector, in float64: the lone
    loop of the power iteration, run as `spectral_radii([t], tol, max_iter)`,
    whose budget checks and ConvergenceError it shares.

    There is no extended-precision mode: `extended=True` raises
    ValueError.  The parameter stays only because the benchmark's tracer,
    `bench/tracing.py`, binds every traced call and reads
    `arguments["extended"]`; without it `--trace 1` runs would fail.
    """
    if extended:
        raise ValueError("spectral_radius has no extended-precision mode")
    return spectral_radii([t], tol, max_iter)[0]


@dataclass(frozen=True)
class PerronBound:
    """Outcome of checking mu >= 2 sum_{uv} f(u) f(v) for a candidate f."""

    holds: bool
    equality: bool
    edge_sum: float


def perron_bound_check(t: Tree, f, result: SpectralResult, tol: float = 1e-10) -> PerronBound:
    """Check the positive-test-vector bound against a converged result.

    `f` must be positive with unit norm, and equality within tol forces f to
    be the Perron vector.  `result` is taken to be t's: only its length is
    checked.  A valuation or result of the wrong length raises ValueError.
    """
    f = _valuation(t, f, np.float64)
    _valuation(t, result.perron)
    if not np.all(f > 0.0):
        raise ValueError("valuation must be entrywise positive")
    if abs(float(f @ f) - 1.0) > 1e-12:
        raise ValueError("valuation must have unit norm")
    edge_sum = float(_edge_sum(t, f))
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
    f = _valuation(t, f)
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


def pendant_minima_check(t: Tree, result: SpectralResult) -> bool:
    """True iff every pendant vertex is a strict local minimum of the
    Perron vector.  K_2 fails by symmetry: both entries are equal.
    `result` is taken to be t's: only a wrong length raises ValueError."""
    f = _valuation(t, result.perron)
    for v in t.vertices():
        if t.degree(v) == 1:
            u = t.neighbors(v)[0]
            if not f[v] < f[u]:
                return False
    return True


def _mirror_pairs(t: Tree) -> list[tuple[int, int, list[int], list[int]]]:
    """Trunk vertex i of a caterpillar t, its mirror k - 1 - i and the
    sorted pendants of each, for i < (k + 1) // 2 on a trunk of k vertices:
    none on an empty trunk.  A tree that is not a caterpillar raises
    TreeError."""
    trunk = trunk_path(t)
    pendants = [sorted(u for u in t.neighbors(v) if t.degree(u) == 1) for v in trunk]
    k = len(trunk)
    return [(trunk[i], trunk[k - 1 - i], pendants[i], pendants[k - 1 - i]) for i in range((k + 1) // 2)]


def caterpillar_symmetry_check(t: Tree, result: SpectralResult, tol: float = 1e-9) -> bool:
    """True iff the Perron values are invariant under reversing the trunk.

    Pendant values are compared pod against mirrored pod as sorted lists.
    `result` is taken to be t's: only a wrong length raises ValueError.
    """
    f = _valuation(t, result.perron)
    for a, b, pa, pb in _mirror_pairs(t):
        if abs(float(f[a] - f[b])) > tol or len(pa) != len(pb):
            return False
        fa, fb = sorted(float(f[u]) for u in pa), sorted(float(f[u]) for u in pb)
        if any(abs(x - y) > tol for x, y in zip(fa, fb)):
            return False
    return True


def symmetrize_caterpillar(t: Tree, f) -> np.ndarray:
    """Average a caterpillar valuation over the trunk-reversal symmetry and
    renormalize.

    The true Perron vector is exactly mirror-symmetric; averaging removes
    the last-bit numerical asymmetry so that mirror entries compare equal
    under the exact float comparisons used by valuation transport.  A
    valuation of the wrong length, or one that averages to the zero
    vector, raises ValueError; unequal pendant loads raise TreeError.
    """
    f = _valuation(t, f, np.float64)
    pairs = _mirror_pairs(t)
    if any(len(pa) != len(pb) for _, _, pa, pb in pairs):
        raise TreeError("caterpillar pendant loads are not mirror-symmetric")
    # the mirror's orbits: each trunk pair and its pendants; all vertices on an empty trunk
    orbits = [[a] if a == b else [a, b] for a, b, _, _ in pairs]
    orbits += [sorted({*pa, *pb}) for _, _, pa, pb in pairs if pa]
    out = f.copy()
    for orbit in orbits or [list(t.vertices())]:
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
    caterpillar whose non-pendant vertices share the degree d.  `result` is
    taken to be t's: only a wrong length raises ValueError.
    """
    f = _valuation(t, result.perron)
    trunk = trunk_path(t)
    if not trunk:
        return 0.0
    d = t.degree(trunk[0])
    if any(t.degree(v) != d for v in trunk):
        raise TreeError("trunk degrees are not constant")
    mu = result.mu
    coef = mu - (d - 2) / mu
    _, _, pa, pb = _mirror_pairs(t)[0]
    ext = [pa[0], *trunk, pb[0]]  # v_0, v_1 .. v_k, v_{k+1}
    worst = 0.0
    for i, v in enumerate(trunk):
        around = float(f[ext[i]]) + float(f[ext[i + 2]])
        worst = max(worst, abs(coef * float(f[v]) - around))
    return worst
