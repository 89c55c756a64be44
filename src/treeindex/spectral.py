"""Spectral radius (index) and Perron vector of a tree, plus the function
checks used by the rearrangement machinery: Rayleigh quotients, the
positive-eigenvector bound, unimodality, and caterpillar symmetry.

Whole classes of same-order trees have one screen, `_parent_indices`,
which the class search and `verify-min` share: the index of a bipartite
tree is the root of the top eigenvalue of the Gram matrix B B^T of its
biadjacency, at most n/2 square, and one `np.linalg.eigvalsh` call takes
a chunk of them.  Screened values rank trees; reported indices come from
`spectral_radius`.

`spectral_radius` solves one tree by leaf elimination of qI - A, rooted at
a centre: vertex v gets the pivot p_v = q - sum_c 1/p_c over its children
c, and the index lies below q exactly when every pivot is positive
(Sylvester's law of inertia; Jacobs and Trevisan, "Locating the
eigenvalues of trees", Linear Algebra Appl. 434, 2011).  Bisection on q in
float64, from sqrt(D) <= index < 2 sqrt(D - 1) for maximum degree D, ends
at two adjacent doubles.  The float count may err within a few ulps of the
index, so the same count in exact integer pairs decides the last bit: at
the midpoint between two neighbouring doubles, a rational that is not an
integer and so never an eigenvalue of a tree or of a subtree, it walks to
the correctly rounded index c.  The Perron vector is three solves of
(sigma I - A) y = x along the same elimination, sigma the least double
above the index, each scaled to unit length by `math.fsum` with positive
sum.  The solve runs on Python floats and ints, so its values depend on
the tree alone, not on the BLAS kernel; the reported residual
max_v |c x_v - (A x)_v| is that of the returned vector.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .trees import Tree, TreeError, _centers, _rooted, trunk_path

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "PerronBound",
    "adjacency_matrix",
    "rayleigh_quotient",
    "spectral_radius",
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


class ConvergenceError(RuntimeError):
    """The solved eigenpair missed the residual target or is not entrywise
    positive.

    The result is attached as `.result` so callers can inspect it.
    """

    def __init__(self, message: str, result: "SpectralResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class SpectralResult:
    """Top eigenpair: index mu and positive unit Perron vector."""

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


def _norm2(f: np.ndarray) -> float:
    """f . f summed by `math.fsum`, one rounding whatever the BLAS kernel."""
    return math.fsum((f * f).tolist())


def _edge_sum(t: Tree, f: np.ndarray):
    """2 * sum_{uv in E} f(u) f(v)  ==  <Af, f>."""
    eu, ev = _edge_arrays(t)
    return 2.0 * np.sum(f[eu] * f[ev])


def rayleigh_quotient(t: Tree, f) -> float:
    """2 * sum_{uv in E} f(u) f(v) / sum_v f(v)^2  ==  <Af, f> / <f, f>."""
    f = _valuation(t, f)
    norm2 = _norm2(f)
    if norm2 == 0.0:
        raise ValueError("Rayleigh quotient of the zero vector is undefined")
    return float(_edge_sum(t, f) / norm2)


def _elimination(t: Tree) -> list[tuple[int, int]]:
    """The leaf elimination of t rooted at its least centre: every vertex
    with its parent, children before parents, the root last with the spare
    slot n in place of a parent.  The exact count's integers grow with the
    size of each subtree, so the centre halves its work on a long path."""
    root = _centers(t.adjacency)[0]
    order, parent = _rooted(t.adjacency, root)
    parent[root] = t.vertex_count
    return [(v, parent[v]) for v in reversed(order)]


def _below(steps: list[tuple[int, int]], q: float) -> bool:
    """The float count: whether every pivot p_v = q - sum_c 1/p_c of qI - A,
    in float64, is positive, which says the index lies below q."""
    acc = [0.0] * (len(steps) + 1)  # each vertex's sum of 1/p_c over its children
    for v, up in steps:
        p = q - acc[v]
        if not p > 0.0:
            return False
        acc[up] += 1.0 / p
    return True


def _below_exact(steps: list[tuple[int, int]], q: Fraction) -> bool:
    """The exact count: whether the index lies below the rational q, from
    the pivots of qI - A as integer pairs, numerator over a positive
    denominator, with no gcd.  A vertex sums its children's 1/p_c pairwise,
    in balanced halves, and frees each pair as soon as it is read, so only
    the pairs of pending vertices live."""
    a, b = q.numerator, q.denominator
    terms: list = [[] for _ in range(len(steps) + 1)]  # each vertex's 1/p_c over its children
    for v, up in steps:
        s, terms[v] = terms[v], None
        for i in range(0, 2 * len(s) - 2, 2):  # s grows by one sum for every two terms read
            (s0, s1), (t0, t1) = s[i], s[i + 1]
            s[i] = s[i + 1] = None
            s.append((s0 * t1 + t0 * s1, s1 * t1))
        num, den = (a * s[-1][1] - b * s[-1][0], b * s[-1][1]) if s else (a, b)
        if num <= 0:
            return False
        terms[up].append((den, num))
    return True


def _midpoint(k: int) -> Fraction:
    """The midpoint between the positive doubles of bit patterns k and k + 1."""
    return (Fraction(_double(k)) + Fraction(_double(k + 1))) / 2


def _double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<q", k))[0]


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _inverse_step(steps: list[tuple[int, int]], sigma: float, x: list[float]) -> list[float]:
    """The solution y of (sigma I - A) y = x along the leaf elimination,
    scaled by `math.fsum` to unit length and positive sum.  Each pivot and
    right-hand side sums its children's terms by `math.fsum`, so a pivot
    near 0 is off by about one rounding of sigma, however many children it
    has.  sigma lies above the index, so every exact pivot is positive, and
    so is y for a positive x; a float pivot that rounds to 0.0 or below
    takes ulp(sigma) in its place, a change of A within that rounding."""
    n = len(x)
    recips: list[list[float]] = [[] for _ in range(n + 1)]  # 1/p_c of each vertex's children
    shares = [[v] for v in x] + [[]]  # x_v and r_c/p_c of each vertex's children
    pivot, rhs = [0.0] * n, [0.0] * n
    for v, up in steps:
        p = sigma - math.fsum(recips[v])
        p = pivot[v] = p if p > 0.0 else math.ulp(sigma)
        r = rhs[v] = math.fsum(shares[v])
        recips[up].append(1.0 / p)
        shares[up].append(r / p)
    y = [0.0] * (n + 1)  # y[n] = 0 stands for the root's missing parent
    for v, up in reversed(steps):
        y[v] = (rhs[v] + y[up]) / pivot[v]
    del y[n]
    norm = math.copysign(math.sqrt(math.fsum(v * v for v in y)), math.fsum(y))
    return [v / norm for v in y]


def _solve(t: Tree) -> SpectralResult:
    """The correctly rounded index of t and its Perron vector, unchecked,
    as the module docstring describes; `iterations` counts the O(n)
    passes along the elimination."""
    n = t.vertex_count
    if n == 1:
        return SpectralResult(0.0, np.ones(1), 0.0, 0)
    if n == 2:
        r = math.sqrt(0.5)
        return SpectralResult(1.0, np.array([r, r]), 0.0, 0)
    steps = _elimination(t)
    degree = max(t.degrees())
    lo, hi = math.sqrt(degree), 2.0 * math.sqrt(degree - 1)
    passes = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        passes += 1
        if _below(steps, mid):
            hi = mid
        else:
            lo = mid

    def below(q: Fraction) -> bool:
        nonlocal passes
        passes += 1
        return _below_exact(steps, q)

    # the exact count at the midpoint above the double of bit pattern k is
    # false up to some k and true from it on, and that k's double is the
    # correctly rounded index: gallop from lo to k's bracket [a, b], false
    # at a and true at b, then halve it
    a = b = _bits(lo)
    step = 1
    if below(_midpoint(b)):
        while below(_midpoint(a := b - step)):
            b, step = a, 2 * step
    else:
        while not below(_midpoint(b := a + step)):
            a, step = b, 2 * step
    while b - a > 1:
        m = (a + b) // 2
        a, b = (a, m) if below(_midpoint(m)) else (m, b)
    c = _double(b)
    sigma = c if below(Fraction(c)) else math.nextafter(c, math.inf)
    x = [1.0] * n
    for _ in range(3):
        x = _inverse_step(steps, sigma, x)
    residual = max(abs(c * v - math.fsum(x[u] for u in nbrs)) for v, nbrs in zip(x, t.adjacency))
    return SpectralResult(c, np.array(x), residual, passes + 3)


def spectral_radius(
    t: Tree,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    extended: bool = False,
) -> SpectralResult:
    """Index mu(t), correctly rounded, with its positive unit Perron vector.

    `tol` is a postcondition: a residual above it, or a vector that is not
    entrywise positive, raises ConvergenceError with the result attached.
    A tol that is not a positive finite number, or a max_iter that is not
    an integer of at least 1, raises ValueError.  `max_iter` bounds
    nothing, as the solve takes about 60 passes whatever the tree, and
    there is no extended-precision mode: `extended=True` raises
    ValueError.  Both stay only because the benchmark's tracer,
    `bench/tracing.py`, binds every traced call and reads `max_iter` and
    `extended`; without them `--trace 1` runs would fail.
    """
    if extended:
        raise ValueError("spectral_radius has no extended-precision mode")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    r = _solve(t)
    if r.residual > tol:
        raise ConvergenceError(f"residual {r.residual:.3e} above tol {tol:.3e}", r)
    if not np.all(r.perron > 0.0):
        raise ConvergenceError("Perron vector is not entrywise positive", r)
    return r


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
    if abs(_norm2(f) - 1.0) > 1e-12:
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
    norm2 = _norm2(out)
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
