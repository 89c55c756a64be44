"""Undirected trees over dense integer vertex ids: constructors for the
standard families, structural queries built on the pendant/non-pendant
split, branches, and an exact canonical form for isomorphism tests.

Trees are immutable after construction and every function here is pure,
so values can be shared freely between threads or worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "TreeError",
    "Tree",
    "DegreeSequence",
    "Branch",
    "CanonicalForm",
    "tree_from_edges",
    "tree_from_json",
    "tree_to_json",
    "tree_to_dot",
    "make_path",
    "make_star",
    "make_caterpillar",
    "is_semiregular",
    "semiregular_degree",
    "is_caterpillar",
    "nonpendant_degree",
    "nonpendant_vertices",
    "branching_points",
    "buds",
    "branch",
    "proper_branches",
    "branch_bud",
    "trunk_path",
    "arms",
    "canonical_form",
    "canonical_order",
    "isomorphism_map",
]


class TreeError(ValueError):
    """Invalid tree structure or impossible construction."""


@dataclass(frozen=True)
class Tree:
    """A tree on vertices 0..n-1 stored as sorted neighbor tuples.

    Invariants checked on construction: symmetric adjacency without
    self-loops or duplicates, exactly n-1 edges, and connectivity.
    """

    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        if n == 0:
            raise TreeError("a tree needs at least one vertex")
        ends = 0
        for v, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise TreeError(f"neighbor list of vertex {v} must be sorted and duplicate-free")
            for u in nbrs:
                if u == v:
                    raise TreeError(f"self-loop at vertex {v}")
                if not 0 <= u < n:
                    raise TreeError(f"neighbor {u} of vertex {v} out of range")
                if v not in self.adjacency[u]:
                    raise TreeError(f"edge {v}-{u} is not symmetric")
            ends += len(nbrs)
        if ends != 2 * (n - 1):
            raise TreeError(f"found {ends // 2} edges, a tree on {n} vertices needs {n - 1}")
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for u in self.adjacency[v]:
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    stack.append(u)
        if count != n:
            raise TreeError("graph is not connected")

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def vertices(self) -> range:
        return range(len(self.adjacency))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (u, v) with u < v, sorted lexicographically."""
        return tuple(
            (v, u) for v in self.vertices() for u in self.adjacency[v] if v < u
        )

    def path(self, source: int, target: int) -> list[int]:
        """The unique path between two vertices, endpoints included."""
        parent = {source: source}
        stack = [source]
        while stack and target not in parent:
            v = stack.pop()
            for u in self.adjacency[v]:
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


def _neighbor_lists(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbor tuples of the graph on n vertices with these edges,
    unvalidated beyond the range of the endpoints."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise TreeError(f"edge ({u},{v}) out of range for n={n}")
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def tree_from_edges(n: int, edges) -> Tree:
    """Build a tree on n vertices from an iterable of (u, v) pairs."""
    return Tree(_neighbor_lists(n, edges))


# ---------------------------------------------------------------------------
# serialization

def tree_to_json(t: Tree) -> str:
    """Byte-deterministic JSON form: {"n": n, "edges": [[u,v], ...]}."""
    body = ",".join("[%d,%d]" % e for e in t.edges())
    return '{"n":%d,"edges":[%s]}' % (t.vertex_count, body)


def _is_json_int(x) -> bool:
    # JSON true/false decode to bool, which isinstance counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def tree_from_json(text: str) -> Tree:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TreeError(f"malformed tree JSON: {exc}") from None
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        raise TreeError('tree JSON must be an object with keys "n" and "edges"')
    n = obj["n"]
    if not _is_json_int(n) or n < 1:
        raise TreeError('"n" must be a positive integer')
    if not isinstance(obj["edges"], list):
        raise TreeError('"edges" must be a list')
    if len(obj["edges"]) != n - 1:
        raise TreeError(f"found {len(obj['edges'])} edges, a tree on {n} vertices needs {n - 1}")
    for e in obj["edges"]:
        if not (isinstance(e, list) and len(e) == 2 and all(_is_json_int(x) for x in e)):
            raise TreeError(f"bad edge entry {e!r}")
    return tree_from_edges(n, obj["edges"])


def tree_to_dot(t: Tree, name: str = "T") -> str:
    """Byte-deterministic DOT export for graphviz rendering."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in t.vertices())
    lines.extend(f"  {u} -- {v};" for u, v in t.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# families

def make_path(n: int) -> Tree:
    if n < 1:
        raise TreeError("path needs at least one vertex")
    return tree_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_star(leaves: int) -> Tree:
    """The star K_{1,leaves}; vertex 0 is the center."""
    if leaves < 0:
        raise TreeError("leaf count must be non-negative")
    return tree_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def make_caterpillar(d: int, n: int) -> Tree:
    """The unique caterpillar whose non-pendant vertices all have degree d.

    Vertices 0..k-1 form the trunk (k = (n-2)/(d-1)); pendant vertices are
    appended trunk vertex by trunk vertex, so the layout is deterministic.
    Trunk ends carry d-1 pendants, interior trunk vertices d-2.
    """
    k = DegreeSequence.semiregular(d, n).degrees.count(d)
    if k == 0:
        return tree_from_edges(2, [(0, 1)])
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i in range(k):
        trunk_nbrs = 0 if k == 1 else (1 if i in (0, k - 1) else 2)
        for _ in range(d - trunk_nbrs):
            edges.append((i, nxt))
            nxt += 1
    return tree_from_edges(n, edges)


# ---------------------------------------------------------------------------
# degree sequences

@total_ordering
@dataclass(frozen=True)
class DegreeSequence:
    """Non-increasing degree multiset of a prospective tree."""

    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        degs = tuple(self.degrees)
        object.__setattr__(self, "degrees", degs)
        if len(degs) == 0:
            raise TreeError("degree sequence must be non-empty")
        if list(degs) != sorted(degs, reverse=True):
            raise TreeError("degree sequence must be non-increasing")
        if degs == (0,):
            return  # the one-vertex tree
        if any(x < 1 for x in degs):
            raise TreeError("degrees must be positive")

    @property
    def n(self) -> int:
        return len(self.degrees)

    def is_tree_realizable(self) -> bool:
        """True iff some tree has exactly this degree sequence."""
        if self.degrees == (0,):
            return True
        return self.n >= 2 and sum(self.degrees) == 2 * (self.n - 1)

    def is_semiregular(self, d: int) -> bool:
        return all(x in (d, 1) for x in self.degrees)

    @classmethod
    def of_tree(cls, t: Tree) -> "DegreeSequence":
        return cls(tuple(sorted(t.degrees(), reverse=True)))

    @classmethod
    def semiregular(cls, d: int, n: int) -> "DegreeSequence":
        if d < 3:
            raise TreeError(f"degree must be at least 3, got {d}")
        if n < 2 or (n - 2) % (d - 1) != 0:
            raise TreeError(
                f"no {d}-semiregular tree on {n} vertices: need n >= 2 and n == 2 (mod {d - 1})"
            )
        k = (n - 2) // (d - 1)
        return cls((d,) * k + (1,) * (n - k))

    @classmethod
    def parse(cls, text: str) -> "DegreeSequence":
        """Parse "4^4,3^2,2,1^12" or the expanded form "4,4,4,...". """
        degs: list[int] = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise TreeError("empty token in degree sequence")
            if "^" in token:
                base, _, count = token.partition("^")
                try:
                    value, mult = int(base), int(count)
                except ValueError:
                    raise TreeError(f"bad degree token {token!r}") from None
            else:
                try:
                    value, mult = int(token), 1
                except ValueError:
                    raise TreeError(f"bad degree token {token!r}") from None
            if mult < 1:
                raise TreeError(f"bad multiplicity in {token!r}")
            degs.extend([value] * mult)
        return cls(tuple(sorted(degs, reverse=True)))

    def compact(self) -> str:
        out = []
        i = 0
        while i < len(self.degrees):
            j = i
            while j < len(self.degrees) and self.degrees[j] == self.degrees[i]:
                j += 1
            out.append(str(self.degrees[i]) if j - i == 1 else f"{self.degrees[i]}^{j - i}")
            i = j
        return ",".join(out)

    def __lt__(self, other: "DegreeSequence") -> bool:
        return self.degrees < other.degrees


# ---------------------------------------------------------------------------
# pendant / non-pendant structure

def nonpendant_vertices(t: Tree) -> tuple[int, ...]:
    return tuple(v for v in t.vertices() if t.degree(v) >= 2)


def nonpendant_degree(t: Tree, v: int) -> int:
    """Number of non-pendant neighbors of v."""
    return sum(1 for u in t.neighbors(v) if t.degree(u) >= 2)


def branching_points(t: Tree) -> tuple[int, ...]:
    """Vertices with at least three non-pendant neighbors."""
    return tuple(v for v in t.vertices() if nonpendant_degree(t, v) >= 3)


def buds(t: Tree) -> tuple[int, ...]:
    """Non-pendant vertices with exactly one non-pendant neighbor."""
    return tuple(
        v for v in t.vertices() if t.degree(v) >= 2 and nonpendant_degree(t, v) == 1
    )


def is_semiregular(t: Tree, d: int) -> bool:
    """True iff every vertex has degree d or 1."""
    return all(t.degree(v) in (d, 1) for v in t.vertices())


def semiregular_degree(t: Tree) -> int | None:
    """The common non-pendant degree, or None if degrees are mixed.

    The path-free degenerate cases have no non-pendant vertex; they report
    None as well since no single d is forced.
    """
    degs = {t.degree(v) for v in t.vertices() if t.degree(v) >= 2}
    if len(degs) != 1:
        return None
    return degs.pop()


def is_caterpillar(t: Tree) -> bool:
    """True iff the non-pendant vertices induce a (possibly empty) path.

    In a tree the non-pendant vertices always induce a subtree, so this is
    equivalent to the absence of branching points.
    """
    return len(branching_points(t)) == 0


def _arm(t: Tree, v: int, u: int) -> list[int]:
    """The non-pendant vertices met going from v through its non-pendant
    neighbor u, up to and including the first bud or branching point."""
    walk = [u]
    prev = v
    while True:
        nxt = [x for x in t.neighbors(walk[-1]) if x != prev and t.degree(x) >= 2]
        if len(nxt) != 1:
            return walk
        prev = walk[-1]
        walk.append(nxt[0])


def trunk_path(t: Tree) -> list[int]:
    """Ordered trunk of a caterpillar (non-pendant vertices as a path).

    Orientation is fixed by starting from the endpoint with the smaller id.
    """
    if not is_caterpillar(t):
        raise TreeError("tree is not a caterpillar")
    core = nonpendant_vertices(t)
    if len(core) <= 1:
        return list(core)
    ends = [v for v in core if nonpendant_degree(t, v) == 1]
    if len(ends) != 2:
        raise TreeError("caterpillar trunk must have exactly two ends")
    start = min(ends)
    (first,) = (u for u in t.neighbors(start) if t.degree(u) >= 2)
    path = [start] + _arm(t, start, first)
    if len(path) != len(core):
        raise TreeError("trunk walk did not cover all non-pendant vertices")
    return path


# ---------------------------------------------------------------------------
# branches

@dataclass(frozen=True)
class Branch:
    """The subtree grown from root through its neighbor gateway.

    `vertices` is {root} plus the component of gateway after deleting the
    root-gateway edge.  `length` counts the vertices of the branch that are
    non-pendant in the whole tree (the root is one of them).
    """

    root: int
    gateway: int
    vertices: frozenset[int]
    length: int


def branch(t: Tree, v: int, u: int) -> Branch:
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


def proper_branches(t: Tree, v_star: int) -> list[Branch]:
    """Branches rooted at the branching point v_star that contain no other
    branching point and exactly one bud: the walks from v_star that end at
    a bud, with the pendants of the walked vertices."""
    if nonpendant_degree(t, v_star) < 3:
        raise TreeError(f"vertex {v_star} is not a branching point")
    out = []
    for walk in (_arm(t, v_star, u) for u in t.neighbors(v_star) if t.degree(u) >= 2):
        if nonpendant_degree(t, walk[-1]) == 1:
            vertices = {v_star, *walk}
            vertices.update(x for w in walk for x in t.neighbors(w) if t.degree(x) == 1)
            out.append(Branch(v_star, walk[0], frozenset(vertices), len(walk) + 1))
    return out


def branch_bud(t: Tree, b: Branch) -> int:
    """The unique bud inside a proper branch."""
    found = [v for v in b.vertices if t.degree(v) >= 2 and nonpendant_degree(t, v) == 1]
    if len(found) != 1:
        raise TreeError("branch does not contain exactly one bud")
    return found[0]


def arms(t: Tree) -> list[list[int]]:
    """Trunk paths running outward to each bud, used for shape reports.

    With branching points present these are the non-pendant paths of the
    proper branches, walked from the branching point to the bud.  For a
    caterpillar they are the two half-trunks read from the center outward
    (empty for trees whose trunk has at most one vertex).
    """
    bps = branching_points(t)
    if bps:
        return [[v] + _arm(t, v, b.gateway) for v in bps for b in proper_branches(t, v)]
    trunk = trunk_path(t)
    k = len(trunk)
    if k <= 1:
        return []
    if k % 2 == 0:
        left = trunk[k // 2 - 1 :: -1]
        right = trunk[k // 2 :]
    else:
        mid = k // 2
        left = trunk[mid::-1]
        right = trunk[mid:]
    return [left, right]


# ---------------------------------------------------------------------------
# canonical form

@total_ordering
@dataclass(frozen=True)
class CanonicalForm:
    """Isomorphism-invariant code; equal codes mean isomorphic trees.

    The code is the rooted AHU parenthesis string taken at the tree center
    (lexicographic minimum over the at most two centers).  Ordering is by
    (length, string), which sorts smaller trees first.
    """

    code: str

    def sort_key(self) -> tuple[int, str]:
        return (len(self.code), self.code)

    def __lt__(self, other: "CanonicalForm") -> bool:
        return self.sort_key() < other.sort_key()


def _centers(adj) -> list[int]:
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


def _rooted_code(adj, root: int, parent: int, codes: dict[int, str]) -> str:
    """AHU code of the subtree below root with the edge to parent cut off;
    the code of every vertex of that subtree is recorded in codes."""
    kids = sorted(_rooted_code(adj, u, root, codes) for u in adj[root] if u != parent)
    codes[root] = "(" + "".join(kids) + ")"
    return codes[root]


def _canonical_code(adj) -> str:
    """Canonical code of the tree with these neighbor lists: the least
    rooted code over its centers."""
    return min([_rooted_code(adj, c, -1, {}) for c in _centers(adj)])


def canonical_form(t: Tree) -> CanonicalForm:
    return CanonicalForm(_canonical_code(t.adjacency))


def canonical_order(t: Tree) -> list[int]:
    """Vertices in a canonical traversal order.

    Corresponding positions of two isomorphic trees' orders define an
    isomorphism between them.
    """
    adj = t.adjacency
    # one pass per center records the code of every subtree hung from it
    tables: dict[int, dict[int, str]] = {c: {} for c in _centers(adj)}
    root = min(tables, key=lambda c: (_rooted_code(adj, c, -1, tables[c]), c))
    codes = tables[root]
    order: list[int] = []

    def visit(v: int, parent: int) -> None:
        order.append(v)
        for u in sorted((u for u in adj[v] if u != parent), key=lambda u: (codes[u], u)):
            visit(u, v)

    visit(root, -1)
    return order


def isomorphism_map(a: Tree, b: Tree) -> dict[int, int] | None:
    """A vertex bijection a -> b realizing an isomorphism, or None."""
    if canonical_form(a) != canonical_form(b):
        return None
    return dict(zip(canonical_order(a), canonical_order(b)))
