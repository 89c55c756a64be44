"""Isomorph-free generation of trees with a prescribed degree sequence,
exhaustive index minimization over such classes, and the index maximizer
of a class, which needs no search: it is built breadth first
(`find_maximizers`).

Every tree with the given degrees is a free tree on k vertices, k the
number of degrees >= 2 (the internal skeleton), whose vertices receive
those degrees with non-negative slack filled with pendant vertices.  One
decoration loop lists a class: each skeleton with each degree assignment,
coded bottom-up on the skeleton from the pendant count of each of its
vertices, with each distinct subtree coded once per call.  Duplicate
decorations are dropped by that code.  The listing keeps the first-met
decoration of each class beside that code, which is its canonical form, so
a caller that prints codes does not code the trees again.  The pendant
counts are walked in descending lexicographic order, so the first met is
the largest vector of its class.  Two skeleton leaves on one neighbour are
twins, and swapping their counts keeps the code, so a leaf is given no
more pendants than its last twin before it: the walk skips only vectors
that such a swap makes larger, met after the one the listing keeps.  A
decoration becomes a `Tree` only when one is asked for: `enumerate_trees`
builds every tree, the class search and `verify-min` only those they solve
or report, screening the class from the decorations.  The trees built from one
listing share each distinct neighbor row as one tuple, and `Tree` is slotted.
The skeletons come from the same loop: a free tree on k vertices is one
decorated skeleton of the degrees of its own internal vertices, so the
trees on k vertices with no degree above D are the distinct codes over
every such degree tuple, one level of skeletons smaller.  Each is numbered
from its first-met decoration in preorder of its least rooting: a rooted
tree is coded "1", its children's codes in ascending order, then "0", and
the least code is found on the skeleton, among the vertices with the most
pendants, each pendant coding as "10".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from operator import itemgetter
from typing import Iterator

import numpy as np

from .spectral import _parent_indices, spectral_radius
from .trees import (
    CanonicalForm,
    DegreeSequence,
    Tree,
    TreeError,
    _centers,
    _rooted,
    arms,
    is_caterpillar,
    tree_from_edges,
)

__all__ = [
    "free_trees",
    "enumerate_trees",
    "enumerate_semiregular",
    "MinimizerObservations",
    "SearchReport",
    "extremal_choice",
    "extremal_report",
    "find_minimizers",
    "find_maximizers",
    "tied_minimizer_examples",
    "TIED_MINIMIZER_CLASS",
]

DEFAULT_MAX_N = 22
_SCREEN_BAND = 1e-9
# tie candidates whose exact Rayleigh quotients lie within this of the least one tie
_TIE_BAND = 1e-12


# ---------------------------------------------------------------------------
# free-tree generation (internal skeletons)

def _least_rooting(skeleton: Tree, pendants: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The neighbor tuples of the skeleton with pendants[v] pendant vertices
    at each v, a tree on three or more vertices, numbered in preorder of
    its least rooting.  A rooted tree is coded "1", then its children's
    codes in ascending order, then "0"; as "0" < "1", a child list that is
    a prefix of another sorts first and a pendant ("10") before any other
    subtree.  So only the skeleton vertices with the most pendants are
    coded as roots, each bottom-up on the skeleton alone: v as "1",
    "10" * pendants[v], its skeleton children's codes, then "0".  In the
    least code each "1" opens the next preorder vertex."""
    adj = skeleton.adjacency
    most = max(pendants)
    rootings = []
    for root, count in enumerate(pendants):
        if count == most:
            code = [""] * len(adj)
            order, parent = _rooted(adj, root)
            for v in reversed(order):
                code[v] = "1" + "10" * pendants[v] + "".join(sorted([code[u] for u in adj[v] if u != parent[v]])) + "0"
            rootings.append(code[root])
    out: list[list[int]] = [[]]
    above = [0]
    for bit in min(rootings)[1:-1]:
        if bit == "1":
            out[above[-1]].append(len(out))
            out.append([above[-1]])
            above.append(len(out) - 1)
        else:
            above.pop()
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def free_trees(k: int, max_degree: int | None = None) -> tuple[Tree, ...]:
    """All non-isomorphic trees on k vertices, sorted by canonical code;
    with max_degree, the subsequence of those whose degrees are at most
    max_degree.  A tree on k > 2 vertices is one decorated skeleton of the
    degrees of its m internal vertices, which sum to k - 2 + m and are at
    most k - m each, so the trees are the union of the decoration codes
    over those degree tuples.  Every code has length 2k, so string order is
    canonical order.  Each tree is numbered from the first decoration met
    of its code by `_least_rooting`: the least "1"/"0" bracket string over
    the skeleton vertices with the most pendants, a pendant coding as "10".
    Equal rows of the trees share one tuple.  Each skeleton level nests one
    more call under the cache, so with max_degree the levels below k of
    k's parity are built first, smallest first: each then finds the levels
    below it cached, and a long path's levels nest no deeper than a short
    one's."""
    if k < 1:
        raise TreeError("free_trees needs k >= 1")
    if max_degree is not None and max_degree < 0:
        raise TreeError("free_trees needs max_degree >= 0")
    if k == 1:
        return (Tree(((),)),)
    if k == 2:
        return (Tree(((1,), (0,))),) if max_degree != 0 else ()
    if max_degree is not None:
        for j in range(4 - k % 2, k - 1, 2):
            free_trees(j, max_degree)
    top = k if max_degree is None else max_degree
    first: dict[str, tuple[Tree, tuple[int, ...]]] = {}
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for m in range(1, k - 1):
        for internal in combinations_with_replacement(range(min(top, k - m), 1, -1), m):
            if sum(internal) == k - 2 + m:
                for code, item in _decorations(internal):
                    first.setdefault(code, item)
    return tuple(Tree(tuple([rows.setdefault(row, row) for row in _least_rooting(*first[code])]))
                 for code in sorted(first))


# ---------------------------------------------------------------------------
# degree-sequence enumeration

def _pendant_counts(degrees, counts, twin) -> Iterator[tuple[int, ...]]:
    """Distinct ways to hand the internal degrees (value -> count in counts)
    to the skeleton vertices of these degrees so that each keeps
    non-negative pendant slack, as the number of pendant vertices every
    skeleton vertex gets, in descending lexicographic order.  One loop
    walks the choices depth first: choice[v] is the position in values of
    the value vertex v holds, and left[i] how many of values[i] are not yet
    handed out.  Values are descending, so the first one too small for a
    vertex ends its choices.

    twin[v] is the last skeleton leaf before the leaf v on the
    same neighbour, and len(degrees), where choice holds a 0, for any other
    vertex.  A leaf's choices start at its twin's, so it takes no larger
    value.  Swapping twins is a skeleton automorphism and keeps the code,
    so the largest vector of each code, the first a walk without twins
    meets, has no leaf above its twin and is still walked."""
    values = sorted(counts, reverse=True)
    left = [counts[value] for value in values]
    last = len(degrees) - 1
    choice = [-1] * len(degrees) + [0]
    slack = [0] * len(degrees)
    v = 0
    while v >= 0:
        i = choice[v]
        if i >= 0:
            left[i] += 1
            i += 1
        else:
            i = choice[twin[v]]
        while i < len(values) and not left[i]:
            i += 1
        if i == len(values) or values[i] < degrees[v]:
            choice[v] = -1
            v -= 1
            continue
        left[i] -= 1
        choice[v] = i
        slack[v] = values[i] - degrees[v]
        if v < last:
            v += 1
        else:
            yield tuple(slack)


def _coding_steps(adj) -> tuple[list[tuple[int, int, tuple[int, ...]]], tuple[int, ...]]:
    """Bottom-up steps that code a tree from each of its centres, as (slot,
    vertex, child slots), and the slots that end up holding those codes.
    Slot v holds the subtree of v in the rooting at the first centre; a
    vertex without children takes no step, since its slot is filled before
    the steps run.  With a second centre, slot k holds the first centre
    without the second, and slot k + 1 the second centre with slot k as one
    more child."""
    centres = _centers(adj)
    first = centres[0]
    order, parent = _rooted(adj, first)
    steps = []
    for v in reversed(order):
        kids = tuple(u for u in adj[v] if u != parent[v])
        if kids:
            steps.append((v, v, kids))
    if len(centres) == 1:
        return steps, (first,)
    second, k = centres[1], len(adj)
    steps.append((k, first, tuple(u for u in adj[first] if u != second)))
    steps.append((k + 1, second, tuple(u for u in adj[second] if u != first) + (k,)))
    return steps, (first, k + 1)


def _decorations(internal: tuple[int, ...]) -> Iterator[tuple[str, tuple]]:
    """Every skeleton on len(internal) vertices with every degree
    assignment, as (canonical code, (skeleton, pendant counts)).  Each
    skeleton leaf gets a pendant, so the decorated tree has the skeleton's
    centres, and its code is built bottom-up on the skeleton.  Each
    distinct subtree is coded once per call and known by its label, the
    position of its code in codes.  A skeleton leaf's label is its pendant
    count.  Any other subtree is interned by its pendant count followed by
    the labels of its children in order: one child's label as it is, two
    compared once, and only more than two sorted.  A pendant's code "()"
    sorts after every other, so pendants go last.  twin[v] is the last
    skeleton leaf before the leaf v on its neighbour, and k for any other
    vertex; `_pendant_counts` walks only the vectors in which no leaf has
    more pendants than its twin, which drops no code and keeps the first
    decoration met of each."""
    k = len(internal)
    labels: dict[tuple[int, ...], int] = {}
    codes = ["(" + "()" * pad + ")" for pad in range(max(internal) + 1)]
    label = [0] * (k + 2)
    counts = {value: internal.count(value) for value in set(internal)}
    for skeleton in free_trees(k, max(internal)):
        adj = skeleton.adjacency
        steps, roots = _coding_steps(adj)
        first, last = roots[0], roots[-1]
        twin, last_leaf = [k] * k, {}
        for v, row in enumerate(adj):
            if len(row) == 1:
                twin[v] = last_leaf.get(row[0], k)
                last_leaf[row[0]] = v
        for pendants in _pendant_counts(skeleton.degrees(), counts, twin):
            label[:k] = pendants
            for slot, v, kids in steps:
                pad = pendants[v]
                if len(kids) == 1:
                    key = (pad, label[kids[0]])
                elif len(kids) == 2:
                    a, b = label[kids[0]], label[kids[1]]
                    key = (pad, a, b) if a <= b else (pad, b, a)
                else:
                    key = (pad, *sorted([label[u] for u in kids]))
                got = labels.get(key)
                if got is None:
                    got = labels[key] = len(codes)
                    kid_codes = sorted([codes[label[u]] for u in kids])
                    codes.append("(" + "".join(kid_codes) + "()" * pad + ")")
                label[slot] = got
            yield min(codes[label[first]], codes[label[last]]), (skeleton, pendants)


def _decorated(skeleton: Tree, pendants: tuple[int, ...], ids: tuple[int, ...], rows: dict) -> tuple[tuple[int, ...], ...]:
    """Neighbor lists of the skeleton with pendants[v] pendant vertices at
    each v, numbered on from k, skeleton vertex by skeleton vertex: each
    run of pendant ids is a slice of ids, which holds 0 .. n - 1 or more.
    Each row that gains pendants, and each pendant's row (v,), is the one
    tuple of its value in rows, so the trees built from one dict share
    their equal rows; the rows left as they are belong to the skeleton.
    A listing hands it the first decoration met of each code, the largest
    pendant vector, which no leaf swap the twin rule skips can exceed, so
    the trees are numbered as a walk without that rule numbers them."""
    adj = list(skeleton.adjacency)
    n = len(adj)
    for v, extra in enumerate(pendants):
        if extra:
            row = adj[v] + ids[n:n + extra]
            leaf = (v,)
            adj[v] = rows.setdefault(row, row)
            adj += [rows.setdefault(leaf, leaf)] * extra
            n += extra
    return tuple(adj)


class _Trees(Sequence):
    """A listed class: codes[i] is the canonical code of the i-th tree in
    ascending code order, built from its (skeleton, pendants) decoration
    when it is indexed and not kept; parent columns and caterpillar flags
    come from the decorations."""

    def __init__(self, codes: list[str], decorations: list[tuple[Tree, tuple[int, ...]]], leaves: int):
        self.codes, self.decorations, self.leaves, self._rows = codes, decorations, leaves, {}
        self._ids = tuple(range(decorations[0][0].vertex_count + leaves))

    def __len__(self) -> int:
        return len(self.decorations)

    def __getitem__(self, i: int) -> Tree:
        return Tree(_decorated(*self.decorations[i], self._ids, self._rows))

    def parents(self) -> np.ndarray:
        """The (N, n - 1) parent columns as `_decorated` numbers the trees: the
        skeleton's parents, then pendants[v] copies of each skeleton vertex v."""
        count, k = len(self), self.decorations[0][0].vertex_count
        tops = map(itemgetter(0), chain.from_iterable(s.adjacency[1:] for s, _ in self.decorations))
        pendants = np.fromiter(chain.from_iterable(p for _, p in self.decorations), np.intp, count * k)
        hung = np.repeat(np.tile(np.arange(k), count), pendants).reshape(count, self.leaves)
        return np.hstack([np.fromiter(tops, np.intp, count * (k - 1)).reshape(count, k - 1), hung])

    def caterpillars(self) -> list[bool]:
        """Whether each tree is a caterpillar: whether its skeleton is a path."""
        return [max(s.degrees()) <= 2 for s, _ in self.decorations]


def _require_max_n(n: int, max_n: int) -> None:
    """Refuse a class on more than max_n vertices.  Callers that build the
    class from its vertex count check that count first."""
    if n > max_n:
        raise TreeError(f"class has n={n} > {max_n}; raise max_n explicitly for larger runs")


def _listing(pi: DegreeSequence, max_n: int | None = None) -> _Trees:
    """Every tree with degree sequence pi exactly once up to isomorphism,
    with its canonical code, in ascending code order: the first decoration
    met of each code.  The code is the one the decoration loop deduplicates
    by, equal to `canonical_form(t).code`; the codes all have the same
    length, so plain string order is canonical order.  A tree on one or two
    vertices is one skeleton vertex with n - 1 pendants.  An unrealizable
    pi, then a class on more than max_n vertices, is refused before any
    decoration."""
    if not pi.is_tree_realizable():
        raise TreeError(f"degree sequence {pi.compact()} is not realizable as a tree")
    if max_n is not None:
        _require_max_n(pi.n, max_n)
    internal = tuple(x for x in pi.degrees if x >= 2) or (pi.n - 1,)
    first: dict[str, tuple[Tree, tuple[int, ...]]] = {}
    for code, item in _decorations(internal):
        first.setdefault(code, item)
    codes = sorted(first)
    return _Trees(codes, [first[code] for code in codes], pi.n - len(internal))


def enumerate_trees(pi: DegreeSequence) -> Iterator[Tree]:
    """Every tree with degree sequence pi exactly once up to isomorphism,
    in ascending canonical-code order: the trees of `_listing`."""
    yield from _listing(pi)


def enumerate_semiregular(d: int, n: int) -> Iterator[Tree]:
    """Trees on n vertices whose non-pendant vertices all have degree d."""
    return enumerate_trees(DegreeSequence.semiregular(d, n))


# ---------------------------------------------------------------------------
# extremal search

@dataclass(frozen=True)
class MinimizerObservations:
    """Shape flags recorded per extremal tree.

    buds_have_max_branch_degree: along every arm (proper-branch trunk, or
    half-trunk of a caterpillar read from the center), the bud attains the
    largest vertex degree.  trunk_degrees_monotone: the degrees along every
    arm are monotone from the hub outward.
    """

    is_caterpillar: bool
    buds_have_max_branch_degree: bool
    trunk_degrees_monotone: bool


def _observe(t: Tree) -> MinimizerObservations:
    cat = is_caterpillar(t)
    buds_max = True
    monotone = True
    for arm in arms(t):
        degs = [t.degree(v) for v in arm]
        if degs[-1] < max(degs):
            buds_max = False
        up = all(a <= b for a, b in zip(degs, degs[1:]))
        down = all(a >= b for a, b in zip(degs, degs[1:]))
        if not (up or down):
            monotone = False
    return MinimizerObservations(
        is_caterpillar=cat,
        buds_have_max_branch_degree=buds_max,
        trunk_degrees_monotone=monotone,
    )


@dataclass(frozen=True)
class SearchReport:
    """Outcome of an exhaustive extremal search over one degree-sequence
    class.  `gap_to_runner_up` is the raw index gap between the extremal
    value and the closest non-extremal tree (None when every tree in the
    class is extremal)."""

    pi: DegreeSequence
    tree_count: int
    min_mu: float
    minimizers: tuple[Tree, ...]
    minimizer_codes: tuple[CanonicalForm, ...]
    all_caterpillars: bool
    unique: bool
    observations: tuple[MinimizerObservations, ...]
    gap_to_runner_up: float | None

    def to_json(self) -> str:
        import json

        obj = {
            "pi": self.pi.compact(),
            "tree_count": self.tree_count,
            "min_mu": self.min_mu,
            "minimizer_count": len(self.minimizers),
            "unique": self.unique,
            "all_caterpillars": self.all_caterpillars,
            "gap_to_runner_up": self.gap_to_runner_up,
            "minimizers": [
                {
                    "canonical_code": code.code,
                    "edges": [list(e) for e in t.edges()],
                    "is_caterpillar": obs.is_caterpillar,
                    "buds_max_degree": obs.buds_have_max_branch_degree,
                    "trunk_monotone": obs.trunk_degrees_monotone,
                }
                for t, code, obs in zip(self.minimizers, self.minimizer_codes, self.observations)
            ],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = ["canonical_code,mu,is_caterpillar,buds_max_degree,trunk_monotone"]
        for code, obs in zip(self.minimizer_codes, self.observations):
            lines.append(
                "%s,%.17g,%s,%s,%s"
                % (
                    code.code,
                    self.min_mu,
                    obs.is_caterpillar,
                    obs.buds_have_max_branch_degree,
                    obs.trunk_degrees_monotone,
                )
            )
        return "\n".join(lines) + "\n"


def _screen(mus: np.ndarray) -> tuple[list[float], list[int]]:
    """The screened values and the candidates within _SCREEN_BAND of their
    minimum.  The band is a margin on the screen's own rounding, about
    1e-14, and never changes the answer: it only chooses which trees are
    solved."""
    screened = [float(m) for m in mus]
    best_screen = min(screened)
    return screened, [i for i, m in enumerate(screened) if m <= best_screen + _SCREEN_BAND]


def _exact_rayleigh(t: Tree, x: np.ndarray) -> float:
    """<Ax, x> / <x, x> of a float64 vector, summed exactly and rounded once:
    each entry m / 2^e is scaled to an integer by the largest 2^e, and
    int / int true division rounds correctly.  The quotient R is at most
    the index and, by Temple's inequality, short of it by at most
    |Ax - Rx|^2 / (R - lambda_2): about 1e-21 for a Perron vector at the
    residual `spectral_radius` reaches on trees of n <= 22, far below half
    an ulp, so R rounds as the index does unless the index lies that close
    to a rounding boundary."""
    ratios = [v.as_integer_ratio() for v in x.tolist()]
    scale = max(den for _, den in ratios)
    m = [num * (scale // den) for num, den in ratios]
    ax_x = sum(m[u] * sum(m[v] for v in nbrs) for u, nbrs in enumerate(t.adjacency))
    return ax_x / sum(v * v for v in m)


def _resolve_ties(trees: dict[int, Tree], candidates: list[int], solved) -> tuple[list[int], float | None]:
    """The candidates that stay minimal when tied ones are settled by the
    exact Rayleigh quotients of their Perron vectors, from `solved`, their
    `spectral_radius` results in candidate order, with the least quotient; a
    lone candidate stands without one."""
    if len(candidates) == 1:
        return candidates, None
    quotients = {i: _exact_rayleigh(trees[i], r.perron) for i, r in zip(candidates, solved)}
    least = min(quotients.values())
    return [i for i in candidates if quotients[i] <= least + _TIE_BAND], least


def extremal_choice(trees: _Trees, mus: np.ndarray) -> list[int]:
    """Positions of the minimizers of the class listed by `_listing` as
    trees, screened by `_parent_indices(trees.parents())`: the same trees
    `extremal_report` reports, without the index values it carries.  Two or
    more candidates are solved; a lone one is not.  Each candidate is
    indexed in trees once."""
    candidates = _screen(mus)[1]
    if len(candidates) == 1:
        return candidates
    built = {i: trees[i] for i in candidates}
    return _resolve_ties(built, candidates, [spectral_radius(t) for t in built.values()])[0]


def extremal_report(pi: DegreeSequence, trees: _Trees, mus: np.ndarray) -> SearchReport:
    """Index minimization over the class listed by `_listing` as trees, with
    their `_parent_indices(trees.parents())` values.  Each tree solved is
    indexed in trees once, and no other.

    The screened values `mus` only pick, by `_screen` of all trees and of
    the rest, the candidates and the trees within the band of the runner-up.
    The values the report carries are `spectral_radius` indices of those
    trees, each solved once; tied candidates are settled by
    `_resolve_ties`, whose exact quotient is the minimum when two or more
    survive.  The runner-up is the least solved tree not chosen, so
    the band only chooses which trees are solved, never the report.  Each
    minimizer's canonical form is its code in `trees.codes`, not coded
    again.
    """
    candidates = _screen(mus)[1]
    rest = np.delete(np.arange(len(trees)), candidates)
    runners = rest[_screen(mus[rest])[1]].tolist() if len(rest) else []
    pool = candidates + runners
    built = {i: trees[i] for i in pool}
    solved = {i: spectral_radius(t) for i, t in built.items()}
    chosen, settled = _resolve_ties(built, candidates, [solved[i] for i in candidates])
    best = min(solved[i].mu for i in chosen)
    others = [r.mu for i, r in solved.items() if i not in chosen]
    gap = min(others) - best if others else None
    chosen_trees = tuple(built[i] for i in chosen)
    obs = tuple(_observe(t) for t in chosen_trees)
    return SearchReport(
        pi=pi,
        tree_count=len(trees),
        min_mu=float(best if len(chosen) == 1 else settled),
        minimizers=chosen_trees,
        minimizer_codes=tuple(CanonicalForm(trees.codes[i]) for i in chosen),
        all_caterpillars=all(o.is_caterpillar for o in obs),
        unique=len(chosen_trees) == 1,
        observations=obs,
        gap_to_runner_up=gap,
    )


def find_minimizers(pi: DegreeSequence, max_n: int = DEFAULT_MAX_N, jobs: int = 1) -> SearchReport:
    """Exhaustive index minimization over the class of trees with degree
    sequence pi.

    The class is listed once and screened from its decorations by
    `_parent_indices`, one top eigenvalue of each tree's half-size Gram
    matrix B B^T, the one screen of the package; only the trees solved are
    built.  Trees within the fixed screen band of the screened minimum are
    settled by the exact Rayleigh quotients of their Perron vectors;
    survivors are reported as tied minimizers.  The screen only chooses
    which trees are solved, so a class of one tree skips it.
    `jobs` is accepted so existing callers keep working, and ignored: the
    class is scanned by one batched solve in this process.
    """
    trees = _listing(pi, max_n)
    return extremal_report(pi, trees, np.zeros(1) if len(trees) == 1 else _parent_indices(trees.parents()))


def find_maximizers(pi: DegreeSequence) -> tuple[Tree, ...]:
    """The index maximizer of the class, built without a search: by
    Biyikoglu and Leydold, Electron. J. Combin. 15 (2008), the unique
    maximizer of a tree class is the breadth-first tree that hands out the
    degrees in non-increasing order.  Vertex 0 takes pi.degrees[0]
    children, and each later vertex v, in breadth-first order, takes
    pi.degrees[v] - 1 new children, so vertex v has the v-th largest
    degree.  Returned as a one-tuple."""
    if not pi.is_tree_realizable():
        raise TreeError(f"degree sequence {pi.compact()} is not realizable as a tree")
    edges: list[tuple[int, int]] = []
    for v, d in enumerate(pi.degrees):
        children = d if v == 0 else d - 1
        first = len(edges) + 1
        edges += [(v, u) for u in range(first, first + children)]
    return (tree_from_edges(pi.n, edges),)


# ---------------------------------------------------------------------------
# reference class with tied, partly non-caterpillar minimizers

TIED_MINIMIZER_CLASS = DegreeSequence.parse("4^4,3^2,2,1^12")


def tied_minimizer_examples() -> tuple[Tree, Tree, Tree]:
    """Three pairwise non-isomorphic trees with degree sequence
    (4^4, 3^2, 2, 1^12) whose index is exactly sqrt(6).

    The first is not a caterpillar, so extremal trees of a fixed degree
    sequence need not be caterpillars and need not be unique.  The third
    has non-monotone degrees along its trunk.
    """
    symmetric_fork = tree_from_edges(
        19,
        [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6),
         (3, 7), (3, 8), (3, 9), (4, 10), (4, 11), (4, 12),
         (5, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
    )
    # caterpillars on trunk 0..6 with pendant loads (3,2,1,0,1,2,3) and
    # (3,1,2,0,1,2,3); trunk degrees (4,4,3,2,3,4,4) and (4,3,4,2,3,4,4).
    cat_a = tree_from_edges(
        19,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
         (0, 7), (0, 8), (0, 9), (1, 10), (1, 11), (2, 12),
         (4, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
    )
    cat_b = tree_from_edges(
        19,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
         (0, 7), (0, 8), (0, 9), (1, 10), (2, 11), (2, 12),
         (4, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
    )
    return symmetric_fork, cat_a, cat_b
