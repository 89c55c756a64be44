"""Degree-preserving tree rearrangements with certified Rayleigh-quotient
behavior.

The atomic move is a *switch*: given a pendant vertex u1 at v1 and an edge
v2-u2 further along the path from u1, exchange edges v1-u1 and v2-u2 for
v1-u2 and v2-u1.  A unimodal valuation f with f(v1) >= f(v2) can be
transported through the switch without decreasing its Rayleigh quotient;
`switch_certificate` applies the move and reports the exact increase plus
the closed-form value it must match.

Composite rearrangements built from switches:

* *branch reduction*: at a branching point, re-hang one proper branch onto
  the bud of another, lowering the number of proper branches by one.
  Iterating reductions turns any semiregular tree into the caterpillar of
  its class (`reduce_to_caterpillar`).  The reduction walks each branching
  point's proper branches once and keeps, per point, the pair its policy
  takes there; a switch merges two walks and changes at most two points'
  entries, so the candidates are never rescanned.
* *spiral rearrangement*: starting from a caterpillar, grow three branches
  at the trunk center by repeatedly re-attaching the outermost remaining
  trunk chunk to the most valuable active tip.  The Rayleigh quotient is
  non-decreasing switch by switch, which certifies that the final
  three-branch tree has index at least that of the caterpillar.
* `caterpillar_bound_witness` replays an entire reduction sequence in
  reverse, transporting the caterpillar Perron vector all the way back to
  the input tree; the transported valuation certifies
  index(tree) >= index(caterpillar).
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spectral import (
    _norm2,
    is_unimodal,
    rayleigh_quotient,
    spectral_radius,
    symmetrize_caterpillar,
)
from .trees import (
    Tree,
    _arm,
    _proper_branch,
    _proper_walks,
    branch,
    branching_points,
    is_caterpillar,
    isomorphism_map,
    make_caterpillar,
    nonpendant_degree,
    nonpendant_vertices,
    proper_branches,
    semiregular_degree,
    trunk_path,
)

__all__ = [
    "TransformError",
    "SwitchError",
    "ReductionError",
    "SpiralError",
    "SwitchMove",
    "validate_switch",
    "apply_switch",
    "inverse_move",
    "transport_valuation",
    "SwitchCertificate",
    "switch_certificate",
    "ReductionStep",
    "ReductionSequence",
    "find_branch_reductions",
    "minimal_branch_reduction",
    "reduce_to_caterpillar",
    "replay_inverse",
    "SpiralResult",
    "spiral_rearrangement",
    "WitnessStep",
    "WitnessResult",
    "caterpillar_bound_witness",
]

# slack on both sides of mu_tree >= rq >= mu_cat in WitnessResult.gap_ok
_GAP_TOL = 1e-9
# how far a replayed switch may lower the Rayleigh quotient before it fails
_DROP_TOL = 1e-12


class TransformError(ValueError):
    """A rearrangement precondition failed or a certified step broke down."""


class SwitchError(TransformError):
    """A switch move violates one of its structural preconditions."""


class ReductionError(TransformError):
    """Branch reduction or sequence replay is not applicable."""


class SpiralError(TransformError):
    """Spiral rearrangement precondition or runtime expectation failed."""


# ---------------------------------------------------------------------------
# switches

@dataclass(frozen=True)
class SwitchMove:
    """Exchange edges v1-u1_pendant and v2-u2 for v1-u2 and v2-u1_pendant.

    Validity in a tree t: u1_pendant is pendant with neighbor v1, u2 is
    non-pendant and adjacent to v2, v1 != v2, and the path from u1_pendant
    to u2 runs u1_pendant, v1, ..., v2, u2.  Applying a valid move yields a
    tree with the same degree sequence.
    """

    u1_pendant: int
    v1: int
    u2: int
    v2: int


def validate_switch(t: Tree, m: SwitchMove) -> None:
    n = t.vertex_count
    for name, v in (("u1", m.u1_pendant), ("v1", m.v1), ("u2", m.u2), ("v2", m.v2)):
        if not 0 <= v < n:
            raise SwitchError(f"{name}={v} out of range for n={n}")
    if t.degree(m.u1_pendant) != 1:
        raise SwitchError(f"u1={m.u1_pendant} must be a pendant vertex")
    if t.neighbors(m.u1_pendant)[0] != m.v1:
        raise SwitchError(f"u1={m.u1_pendant} must be attached to v1={m.v1}")
    if m.v1 == m.v2:
        raise SwitchError("v1 and v2 must be distinct")
    if t.degree(m.u2) < 2:
        raise SwitchError(f"u2={m.u2} must be non-pendant")
    if m.u2 not in t.neighbors(m.v2):
        raise SwitchError(f"u2={m.u2} must be adjacent to v2={m.v2}")
    path = t.path(m.u1_pendant, m.u2)
    if len(path) < 4 or path[1] != m.v1 or path[-2] != m.v2:
        raise SwitchError(
            f"path from u1={m.u1_pendant} to u2={m.u2} must run through v1={m.v1} ... v2={m.v2}"
        )


def apply_switch(t: Tree, m: SwitchMove) -> Tree:
    """Apply a validated switch; the result has the same degree sequence.
    Only the neighbor tuples of the four vertices of the move change."""
    validate_switch(t, m)
    adj = list(t.adjacency)
    for v, old, new in ((m.v1, m.u1_pendant, m.u2), (m.u1_pendant, m.v1, m.v2),
                        (m.v2, m.u2, m.u1_pendant), (m.u2, m.v2, m.v1)):
        adj[v] = tuple(sorted([new if u == old else u for u in adj[v]]))
    return Tree(tuple(adj))


def inverse_move(m: SwitchMove) -> SwitchMove:
    """The move that undoes m on the switched tree."""
    return SwitchMove(u1_pendant=m.u1_pendant, v1=m.v2, u2=m.u2, v2=m.v1)


def _pendant_at(t: Tree, v: int) -> int:
    pendants = [u for u in t.neighbors(v) if t.degree(u) == 1]
    if not pendants:
        raise SpiralError(f"no pendant vertex available at {v}")
    return min(pendants)


def transport_valuation(t: Tree, f, m: SwitchMove) -> np.ndarray:
    """Carry a unimodal valuation through a switch.

    Requires f(v1) >= f(v2) (exact float comparison; transported values are
    literal copies, so ties are meaningful).  The output takes
    f'(u1) = min(f(u1), f(u2)) and f'(u2) = max(f(u1), f(u2)) and keeps all
    other values, hence the value multiset is preserved.
    """
    validate_switch(t, m)
    return _transport(t, np.asarray(f, dtype=np.float64), m)


def _transport(t: Tree, f: np.ndarray, m: SwitchMove) -> np.ndarray:
    """`transport_valuation` for a switch that is already validated."""
    if f.shape != (t.vertex_count,):
        raise TransformError(f"valuation must have length {t.vertex_count}")
    v_hat = int(np.argmax(f))
    if not is_unimodal(t, f, v_hat):
        raise TransformError("valuation must be unimodal")
    if not f[m.v1] >= f[m.v2]:
        raise TransformError("transport requires f(v1) >= f(v2)")
    out = f.copy()
    lo = min(f[m.u1_pendant], f[m.u2])
    hi = max(f[m.u1_pendant], f[m.u2])
    out[m.u1_pendant] = lo
    out[m.u2] = hi
    return out


@dataclass(frozen=True)
class SwitchCertificate:
    """A switch together with its exact Rayleigh-quotient bookkeeping.

    delta = R(new_tree, new_valuation) - R(tree, valuation) and is
    non-negative up to rounding; `strict` records whether the increase is
    guaranteed strictly positive, which happens exactly when
    (f(v1) > f(v2) and f(u1) < f(u2)) or f(u1) > f(u2).
    `predicted_delta` is the closed-form value of the increase:
    2 (f(u1)-f(u2)) (f(v2)-f(v1)) / |f|^2 when f(u1) <= f(u2), and
    2 (f(u1)-f(u2)) sum_w f(w) / |f|^2 over the other neighbors w of u2
    otherwise.
    """

    new_tree: Tree
    new_valuation: np.ndarray
    rq_before: float
    rq_after: float
    delta: float
    strict: bool
    predicted_delta: float


def switch_certificate(t: Tree, f, m: SwitchMove) -> SwitchCertificate:
    f = np.asarray(f, dtype=np.float64)
    new_tree = apply_switch(t, m)
    new_valuation = _transport(t, f, m)
    rq_before = rayleigh_quotient(t, f)
    rq_after = rayleigh_quotient(new_tree, new_valuation)
    norm2 = _norm2(f)
    fu1, fu2 = float(f[m.u1_pendant]), float(f[m.u2])
    fv1, fv2 = float(f[m.v1]), float(f[m.v2])
    if fu1 <= fu2:
        predicted = 2.0 * (fu1 - fu2) * (fv2 - fv1) / norm2
    else:
        others = sum(float(f[w]) for w in t.neighbors(m.u2) if w != m.v2)
        predicted = 2.0 * (fu1 - fu2) * others / norm2
    strict = (fv1 > fv2 and fu1 < fu2) or fu1 > fu2
    return SwitchCertificate(
        new_tree=new_tree,
        new_valuation=new_valuation,
        rq_before=rq_before,
        rq_after=rq_after,
        delta=rq_after - rq_before,
        strict=strict,
        predicted_delta=predicted,
    )


# ---------------------------------------------------------------------------
# branch reductions

@dataclass(frozen=True)
class ReductionStep:
    """One branch reduction: re-hang the branch through move.u2 onto the
    bud move.v1 of a sibling proper branch at the reduction point.

    `fork` is the vertex set of the two proper branches involved;
    `fork_size` counts its non-pendant vertices.  Applying the step lowers
    the non-pendant degree of the reduction point by one, raises the bud's
    to exactly two, and leaves every other non-pendant degree unchanged.
    """

    kind: str
    reduction_point: int
    move: SwitchMove
    fork: frozenset[int]
    fork_size: int


@dataclass(frozen=True)
class ReductionSequence:
    """Trees [G_t, ..., G_0] where consecutive entries differ by one step
    and G_0 is the caterpillar of the class."""

    steps: tuple[ReductionStep, ...]
    trees: tuple[Tree, ...]


def find_branch_reductions(t: Tree) -> list[ReductionStep]:
    """All branch reductions available in t, one per unordered pair of
    proper branches at each branching point.

    Within a pair, the branch whose bud has the smaller id receives the
    other; candidates are listed in (reduction point, receiving bud,
    reduced gateway) order.  Each proper branch is walked once: its walk
    ends at its bud and gives the `Branch`.
    """
    out: list[ReductionStep] = []
    for v_star in branching_points(t):
        walks = sorted(_proper_walks(t, v_star), key=lambda walk: walk[-1])
        pbs = [(walk[-1], _proper_branch(t, v_star, walk)) for walk in walks]
        for i, (bud, receiving) in enumerate(pbs):
            u1 = _pendant_at(t, bud)
            for _, reduced in pbs[i + 1 :]:
                out.append(
                    ReductionStep(
                        kind="branch_reduction",
                        reduction_point=v_star,
                        move=SwitchMove(u1_pendant=u1, v1=bud, u2=reduced.gateway, v2=v_star),
                        fork=receiving.vertices | reduced.vertices,
                        # the two branches share only v_star
                        fork_size=receiving.length + reduced.length - 1,
                    )
                )
    return out


def _fork_key(s: ReductionStep) -> tuple[int, int, int, int]:
    return (s.fork_size, s.reduction_point, s.move.v1, s.move.u2)


def _bud(walk: list[int]) -> int:
    return walk[-1]


def _least_pair(walks: list[list[int]]) -> tuple[int, int]:
    """The pair i < j of proper walks, sorted by bud, that is least by
    (len_i + len_j, bud_i, gateway_j): `_fork_key` at one branching point,
    read off the walks alone in time linear in their number.  The least sum
    is that of the two shortest walks; i is the first walk followed by a
    walk of the length that completes the sum, and j is the one of those
    with the least gateway."""
    total = sum(heapq.nsmallest(2, map(len, walks)))
    last = {len(walk): k for k, walk in enumerate(walks)}
    i = next(k for k, walk in enumerate(walks) if last.get(total - len(walk), -1) > k)
    want = total - len(walks[i])
    j = min((k for k in range(i + 1, len(walks)) if len(walks[k]) == want),
            key=lambda k: walks[k][0])
    return i, j


def _reduction_steps(trees: list[Tree], policy: str) -> Iterator[ReductionStep]:
    """The steps of a reduction from trees[-1] under a policy, each the
    candidate `find_branch_reductions` would give on the current tree:
    the least by `_fork_key` under "minimal", the first under "any".

    No candidate list is built.  Each branching point's `_proper_walks`
    are walked once, at the start, and kept sorted by bud; each point with
    two or more of them keeps the pair the policy takes there (`_least_pair`
    under "minimal", its first two walks under "any") in a heap, whose stale
    entries are dropped as they come to the top.  A step is built only for
    the pair taken.  It is applied when the next step is asked for, and the
    tree it gives is appended to trees.

    A switch at v* hangs the reduced walk W_j onto the bud of the receiving
    walk W_i, so W_i + W_j is now a proper walk of v*.  If v* keeps three
    or more non-pendant neighbours, only its own entry changes.  Otherwise
    v* is no longer a branching point: its one other arm either ends at a
    bud, and the tree is a caterpillar, or at a branching point w, which
    gains a proper walk: the arm reversed, v* and W_i + W_j.  The walks of
    every other point are untouched, so one step costs one `_arm` at most.
    """
    t = trees[-1]
    walks = {v: sorted(_proper_walks(t, v), key=_bud) for v in branching_points(t)}
    heap: list[tuple[int, int, int, int]] = []
    best: dict[int, tuple[int, int, int, int]] = {}

    def rank(v: int) -> None:
        ws = walks[v]
        if len(ws) < 2:
            return
        if policy == "any":
            entry = (0, v, 0, 1)
        else:
            i, j = _least_pair(ws)
            # `_fork_key` up to v, which no other point shares
            entry = (len(ws[i]) + len(ws[j]) + 1, v, i, j)
        best[v] = entry
        heapq.heappush(heap, entry)

    for v in walks:
        rank(v)
    while heap:
        entry = heapq.heappop(heap)
        _, v, i, j = entry
        if best.get(v) != entry:
            continue
        del best[v]
        ws = walks[v]
        receiving, reduced = ws[i], ws[j]
        bud = receiving[-1]
        step = ReductionStep(
            kind="branch_reduction",
            reduction_point=v,
            move=SwitchMove(u1_pendant=_pendant_at(t, bud), v1=bud, u2=reduced[0], v2=v),
            fork=_proper_branch(t, v, receiving).vertices | _proper_branch(t, v, reduced).vertices,
            # the two branches share only v
            fork_size=len(receiving) + len(reduced) + 1,
        )
        yield step
        t = apply_switch(t, step.move)
        trees.append(t)
        merged = receiving + reduced
        del ws[j], ws[i]  # i < j
        if nonpendant_degree(t, v) >= 3:
            insort(ws, merged, key=_bud)
            rank(v)
            continue
        del walks[v]
        (x,) = (u for u in t.neighbors(v) if t.degree(u) >= 2 and u != merged[0])
        arm = _arm(t, v, x)
        if arm[-1] in walks:
            insort(walks[arm[-1]], arm[-2::-1] + [v] + merged, key=_bud)
            rank(arm[-1])


def minimal_branch_reduction(t: Tree) -> ReductionStep:
    """The reduction with the smallest fork; ties broken by the candidate
    order of `find_branch_reductions`.  It is the first step of
    `reduce_to_caterpillar` under "minimal"."""
    step = next(_reduction_steps([t], "minimal"), None)
    if step is None:
        raise ReductionError("no branch reduction exists: tree has no branching point")
    return step


def reduce_to_caterpillar(t: Tree, policy: str = "minimal") -> ReductionSequence:
    """Reduce a semiregular tree to the caterpillar of its class.

    With policy "minimal" every step is a minimal branch reduction; with
    "any" the first available reduction is taken.  Each step removes one
    proper branch, so the sequence length equals the initial surplus
    sum over branching points of (nonpendant_degree - 2).  Only a
    caterpillar has no branch reduction, so the loop stops exactly there.
    The candidates are not rescanned after each switch: `_reduction_steps`
    keeps each branching point's proper walks and best pair, and a switch
    updates at most two of them.  Every step is still the one a rescan
    with `find_branch_reductions` would take, and `apply_switch` still
    validates it and builds the checked tree.
    """
    if policy not in ("minimal", "any"):
        raise ReductionError(f"unknown policy {policy!r}")
    if nonpendant_vertices(t) and semiregular_degree(t) is None:
        raise ReductionError("tree is not semiregular: non-pendant degrees differ")
    trees = [t]
    steps = tuple(_reduction_steps(trees, policy))
    return ReductionSequence(steps=steps, trees=tuple(trees))


def replay_inverse(seq: ReductionSequence) -> list[Tree]:
    """Apply the inverse switches from the caterpillar back to the input;
    returns the replayed trees [G_0, ..., G_t]."""
    out = [seq.trees[-1]]
    for step in reversed(seq.steps):
        out.append(apply_switch(out[-1], inverse_move(step.move)))
    return out


# ---------------------------------------------------------------------------
# spiral rearrangement

@dataclass(frozen=True)
class SpiralResult:
    """Final tree of a spiral run, its transported valuation, the Rayleigh
    quotient after each switch (index 0 is the caterpillar seed), and the
    moves performed."""

    tree: Tree
    valuation: np.ndarray
    rq_trace: tuple[float, ...]
    moves: tuple[SwitchMove, ...]


def _spiral(cat: Tree, f0: np.ndarray, lengths) -> SpiralResult:
    """Run the spiral procedure on a labeled caterpillar with its
    (symmetrized) Perron vector as seed.

    The trunk is indexed from its center (k - 1) // 2 outward in
    non-increasing value order, alternating between the right half and the
    left half, right first; for even k the right half is one longer.  After
    an opening switch creates three branches at the center v0, the procedure
    repeatedly lets the most valuable active tip capture the outermost
    unplaced trunk chunk, retiring tips as they are covered.  A branch
    that reaches the longest target length is frozen: its indices leave
    the active and reserve sets.  Every switch carries a certificate, so
    the Rayleigh trace is non-decreasing up to rounding.
    """
    target = tuple(sorted(lengths, reverse=True))
    trunk = trunk_path(cat)
    k = len(trunk)
    if len(target) != 3 or any(x < 2 for x in target):
        raise SpiralError("need three branch lengths, each at least 2")
    if sum(target) != k + 2:
        raise SpiralError(f"branch lengths must sum to {k + 2} (trunk size + 2)")
    if target[0] > (k + 1) // 2:
        raise SpiralError(
            f"longest branch {target[0]} exceeds (k+1)//2 = {(k + 1) // 2}: "
            "a branch may not cover more trunk vertices than the other two combined"
        )

    center = (k - 1) // 2
    v0 = trunk[center]
    v = [v0] * k
    v[1::2] = trunk[center + 1 :]
    v[2::2] = trunk[center - 1 :: -1]
    f = np.asarray(f0, dtype=np.float64)
    for idx in range(k - 1):
        if not f[v[idx]] >= f[v[idx + 1]]:
            raise SpiralError("seed valuation is not non-increasing in spiral order")

    cur = cat
    trace = [rayleigh_quotient(cur, f)]
    moves: list[SwitchMove] = []

    def certified(move: SwitchMove) -> None:
        nonlocal cur, f
        cert = switch_certificate(cur, f, move)
        if cert.delta < -_DROP_TOL:
            raise SpiralError(f"Rayleigh quotient dropped by {-cert.delta:.3e} during spiral")
        cur, f = cert.new_tree, cert.new_valuation
        trace.append(cert.rq_after)
        moves.append(move)

    certified(SwitchMove(u1_pendant=_pendant_at(cur, v0), v1=v0, u2=v[3], v2=v[1]))

    active = [1, 2, 3]
    reserve = list(range(4, k))
    frozen: set[int] = set()
    longest = target[0]
    slots = Counter(target)
    while True:
        ls = tuple(branch(cur, v0, v[b]).length for b in (1, 2, 3))
        if sorted(ls, reverse=True) == list(target):
            break
        fb = next((b for b in (1, 2, 3) if b not in frozen and ls[b - 1] == longest), None)
        if fb is not None and len(frozen) < slots[longest]:
            frozen.add(fb)
            members = branch(cur, v0, v[fb]).vertices
            active = [s for s in active if v[s] not in members]
            reserve = [r for r in reserve if v[r] not in members]
            continue
        if len(active) < 2 or not reserve:
            raise SpiralError(
                f"spiral stalled at lengths {ls} targeting {target} "
                f"(active={active}, reserve={reserve}, frozen={sorted(frozen)})"
            )
        i = min(active)
        j = min(s for s in active if s != i)
        m = min(reserve)
        certified(SwitchMove(u1_pendant=_pendant_at(cur, v[i]), v1=v[i], u2=v[m], v2=v[j]))
        active = sorted((set(active) - {i}) | {m})
        reserve.remove(m)

    if branching_points(cur) != (v0,):
        raise SpiralError("spiral result does not have exactly one branching point at v0")
    if float(f[v0]) != float(np.max(f)):
        raise SpiralError("spiral valuation does not peak at the branching point")
    if not is_unimodal(cur, f, int(np.argmax(f))):
        raise SpiralError("spiral valuation lost unimodality")
    return SpiralResult(tree=cur, valuation=f, rq_trace=tuple(trace), moves=tuple(moves))


def spiral_rearrangement(d: int, n: int, lengths) -> SpiralResult:
    """Grow a three-branch semiregular tree with the given branch lengths
    out of the caterpillar of class (d, n), certifying that the final
    Rayleigh quotient is at least the caterpillar index."""
    cat = make_caterpillar(d, n)
    res = spectral_radius(cat)
    f0 = symmetrize_caterpillar(cat, res.perron)
    return _spiral(cat, f0, lengths)


# ---------------------------------------------------------------------------
# full witness replay

@dataclass(frozen=True)
class WitnessStep:
    step: ReductionStep
    rq_before: float
    rq_after: float


@dataclass(frozen=True)
class WitnessResult:
    """A valuation on the input tree certifying index >= caterpillar index.

    `rq` is its Rayleigh quotient, mu_cat / mu_tree the computed indices of
    the class caterpillar and of the input, and gap_ok records whether
    mu_tree >= rq >= mu_cat holds within tolerance.  `route` is "spiral"
    when the first replay step went through the spiral rearrangement and
    "outside-fork" when the seed maximum stayed clear of every fork.
    """

    valuation: np.ndarray
    rq: float
    mu_cat: float
    mu_tree: float
    gap_ok: bool
    route: str
    rq_trace: tuple[float, ...]
    step_records: tuple[WitnessStep, ...]


def caterpillar_bound_witness(g: Tree) -> WitnessResult:
    """Replay the minimal reduction sequence of g in reverse, transporting
    the caterpillar Perron vector back onto g.

    The first inverse step is realized by the spiral rearrangement when no
    branch of the first replayed tree covers more than (k+1)//2 trunk
    vertices; otherwise the fork of every replay step is small enough that
    the valuation maximum stays outside it, which is verified at runtime.
    """
    if is_caterpillar(g):
        raise ReductionError("tree is already a caterpillar; nothing to certify")
    d = semiregular_degree(g)
    if d is None or d < 3:
        raise ReductionError("witness replay needs a semiregular tree of degree >= 3")
    seq = reduce_to_caterpillar(g, policy="minimal")
    cat = seq.trees[-1]
    k = len(nonpendant_vertices(cat))
    res0 = spectral_radius(cat)
    mu_cat = res0.mu
    f = symmetrize_caterpillar(cat, res0.perron)
    steps_rev = list(reversed(seq.steps))
    g1 = seq.trees[-2]
    s1 = steps_rev[0]
    pbs = proper_branches(g1, s1.reduction_point)
    if len(pbs) != 3:
        raise ReductionError("first replayed tree should have exactly three proper branches")
    lengths = tuple(sorted((b.length for b in pbs), reverse=True))

    records: list[WitnessStep] = []
    if lengths[0] <= (k + 1) // 2:
        route = "spiral"
        sp = _spiral(cat, f, lengths)
        phi = isomorphism_map(sp.tree, g1)
        if phi is None:
            raise SpiralError("spiral result is not isomorphic to the replayed tree")
        relabeled = np.empty_like(sp.valuation)
        for a_v, b_v in phi.items():
            relabeled[b_v] = sp.valuation[a_v]
        cur, f = g1, relabeled
        trace = list(sp.rq_trace)
        records.append(WitnessStep(step=s1, rq_before=trace[0], rq_after=trace[-1]))
        rest = steps_rev[1:]
    else:
        route = "outside-fork"
        if s1.fork_size > (k + 1) // 2:
            raise ReductionError(
                f"first replay fork has {s1.fork_size} non-pendant vertices, "
                f"expected at most {(k + 1) // 2}"
            )
        cur = cat
        trace = [rayleigh_quotient(cat, f)]
        rest = steps_rev

    for s in rest:
        fmax = float(np.max(f))
        outside = [w for w in cur.vertices() if w not in s.fork]
        at_point = float(f[s.reduction_point]) == fmax
        outside_max = bool(outside) and float(np.max(f[outside])) == fmax
        if not (at_point or outside_max):
            raise SpiralError(
                "valuation maximum fell strictly inside a replay fork; cannot certify"
            )
        cert = switch_certificate(cur, f, inverse_move(s.move))
        if cert.delta < -_DROP_TOL:
            raise SpiralError(f"Rayleigh quotient dropped by {-cert.delta:.3e} during replay")
        records.append(WitnessStep(step=s, rq_before=cert.rq_before, rq_after=cert.rq_after))
        cur, f = cert.new_tree, cert.new_valuation
        trace.append(cert.rq_after)

    if cur != g:
        raise ReductionError("inverse replay did not reconstruct the input tree")
    rq = trace[-1]
    mu_tree = spectral_radius(g).mu
    gap_ok = (rq >= mu_cat - _GAP_TOL) and (mu_tree >= rq - _GAP_TOL)
    return WitnessResult(
        valuation=f,
        rq=rq,
        mu_cat=mu_cat,
        mu_tree=mu_tree,
        gap_ok=gap_ok,
        route=route,
        rq_trace=tuple(trace),
        step_records=tuple(records),
    )
