"""Spectral radius (index) and Perron vector of a tree, plus the function
checks used by the rearrangement machinery: Rayleigh quotients, the
positive-eigenvector bound, unimodality, and caterpillar symmetry.

Whole classes of same-order trees are screened by `class_indices`, which
stacks the dense adjacency matrices and calls `np.linalg.eigvalsh` once per
chunk; its values rank trees, while reported indices come from
`spectral_radius`.

The index of a single tree is computed matrix-free by shifted power
iteration.  Trees are
bipartite, so -mu is also an eigenvalue; iterating on A + cI with
c = max degree separates |mu + c| from |-mu + c| and makes the iteration
converge to the Perron direction from the all-ones start.  Convergence is
measured by the eigenvalue-equation residual

    residual = max_v | mu*f(v) - sum_{u ~ v} f(u) |.

Each sweep computes s = A x once, as one scatter over the edges taken in
both directions (`np.bincount` in float64; `np.add.at` in extended
precision, since bincount casts its weights to float64), and uses s both
to check x and for the power step from x.  The check is screened exactly:
the residual entry at the vertex where the last full residual vector
peaked is computed with the same IEEE operations as in the full vector,
and when it alone exceeds tol, so does the maximum.  The full residual is
taken whenever the screen does not settle it and on every sweep from the
polish point on, so every break, polish decision and reported residual is
the one the full check gives.

If the top eigenvalue gap is too small for plain power sweeps, a
Rayleigh-quotient polish kicks in halfway through the sweep budget: the
current Rayleigh estimate is used as a shift for a few inverse-iteration
steps, solved exactly in O(n) along the tree.  The reported residual is
always the true residual of the returned vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trees import Tree, TreeError, _rooted, trunk_path

__all__ = [
    "ConvergenceError",
    "SpectralResult",
    "PerronBound",
    "adjacency_matrix",
    "class_indices",
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
# trees per stacked eigvalsh call in class_indices; bounds the stack to
# CLASS_CHUNK * n * n floats however large the class is
CLASS_CHUNK = 32


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


def adjacency_matrix(t: Tree, dtype=np.float64) -> np.ndarray:
    n = t.vertex_count
    a = np.zeros((n, n), dtype=dtype)
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


def class_indices(trees: Sequence[Tree]) -> np.ndarray:
    """Index of every tree in `trees`, all of one order, as a float64 array.

    The adjacency matrices are stacked CLASS_CHUNK at a time and each stack
    goes through one dense `np.linalg.eigvalsh` call.  The values agree
    with `spectral_radius(t).mu` to a few ulps, which is enough to rank a
    class but not to report its extremal value byte-for-byte.
    """
    trees = list(trees)
    if not trees:
        return np.zeros(0)
    n = trees[0].vertex_count
    if any(t.vertex_count != n for t in trees):
        raise ValueError("class_indices needs trees of one order")
    out = np.empty(len(trees))
    for start in range(0, len(trees), CLASS_CHUNK):
        stack = np.stack([adjacency_matrix(t) for t in trees[start : start + CLASS_CHUNK]])
        out[start : start + len(stack)] = np.linalg.eigvalsh(stack)[:, -1]
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


def spectral_radius(
    t: Tree,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    extended: bool = False,
) -> SpectralResult:
    """Index mu(t) with its positive unit eigenvector.

    `extended=True` runs the whole iteration in numpy longdouble, which
    is 80-bit on x86 and plain float64 on some platforms.  No code in the
    package passes it; it stays as public API and as the reference the
    tie tests compare against.
    """
    if not tol > 0:
        raise ValueError(f"tol must be a positive number, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n = t.vertex_count
    dtype = np.longdouble if extended else np.float64
    if n == 1:
        return SpectralResult(0.0, np.ones(1), 0.0, 0)
    if n == 2:
        r = math.sqrt(0.5)
        return SpectralResult(1.0, np.array([r, r]), 0.0, 0)

    eu, ev = _edge_arrays(t)
    # edge uv sends x[v] to u, then (second half) x[u] to v
    tgt = np.concatenate((eu, ev))
    src = np.concatenate((ev, eu))
    c = dtype(max(t.degrees()))
    x = np.ones(n, dtype=dtype)
    x /= np.sqrt(x @ x)
    fallback_at = max(1, max_iter // 2)  # never above max_iter
    polish_rounds = 8  # Rayleigh steps allowed from fallback_at on
    iterations = 0
    w = 0  # where the last full residual vector peaked
    while True:
        # s = A x serves both the check of x and the next step from x
        if extended:
            s = np.zeros(n, dtype=dtype)
            np.add.at(s, tgt, x[src])
        else:
            s = np.bincount(tgt, weights=x[src], minlength=n)
        if iterations:
            mu = float(x @ s)
            # before fallback_at only res <= tol ends the power steps; one
            # residual entry above tol, rounded to float as res is, proves
            # res > tol
            if iterations >= fallback_at or not float(abs(mu * x[w] - s[w])) > tol:
                r = np.abs(mu * x - s)
                w = int(np.argmax(r))
                res = float(r[w])
                if res <= tol:
                    break
                if iterations >= fallback_at and polish_rounds:
                    polish_rounds -= 1
                    y = _rayleigh_step(t, x, mu)
                    if y is not None:
                        x = y
                        iterations += 1
                        continue
                    polish_rounds = 0
                if iterations >= max_iter:
                    break
        y = s + c * x
        x = y / np.sqrt(y @ y)
        iterations += 1
    perron = np.asarray(x, dtype=np.float64)
    result = SpectralResult(float(mu), perron, float(res), iterations)
    if res > tol:
        raise ConvergenceError(
            f"residual {res:.3e} above tol {tol:.3e} after {iterations} iterations",
            result,
        )
    if not np.all(perron > 0.0):
        raise ConvergenceError("iterate is not entrywise positive", result)
    return result


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
    wrong length or a v_hat outside 0..n-1 raises ValueError.
    """
    f = np.asarray(f)
    if f.shape != (t.vertex_count,):
        raise ValueError(f"valuation must have length {t.vertex_count}")
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
    Perron vector.  K_2 fails by symmetry: both entries are equal."""
    f = result.perron
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
    """
    f = result.perron
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
    under the exact float comparisons used by valuation transport.
    """
    f = np.asarray(f, dtype=np.float64)
    out = f.copy()
    for orbit in _caterpillar_mirror_orbits(t):
        out[orbit] = float(np.mean(f[orbit]))
    out /= np.sqrt(out @ out)
    return out


def caterpillar_trunk_residual(t: Tree, result: SpectralResult) -> float:
    """Largest violation of the trunk recurrence

        (mu - (d-2)/mu) * f(v_i) = f(v_{i-1}) + f(v_{i+1})

    where v_0 and v_{k+1} are pendant neighbors of the trunk ends.  The
    recurrence follows from eliminating pendant values (mu*f(p) = f(v_i))
    from the eigenvalue equation; it holds at every trunk vertex of a
    caterpillar whose non-pendant vertices share the degree d.
    """
    trunk = trunk_path(t)
    if not trunk:
        return 0.0
    d = t.degree(trunk[0])
    if any(t.degree(v) != d for v in trunk):
        raise TreeError("trunk degrees are not constant")
    f = result.perron
    mu = result.mu
    coef = mu - (d - 2) / mu
    ends = [min(u for u in t.neighbors(v) if t.degree(u) == 1) for v in (trunk[0], trunk[-1])]
    ext = [ends[0], *trunk, ends[1]]  # v_0, v_1 .. v_k, v_{k+1}
    worst = 0.0
    for i, v in enumerate(trunk):
        around = float(f[ext[i]]) + float(f[ext[i + 2]])
        worst = max(worst, abs(coef * float(f[v]) - around))
    return worst
