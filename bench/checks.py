"""Correctness checks on the benchmark's results, run outside the timed
sections.

Indices are compared with ``numpy.linalg.eigvalsh`` of an adjacency
matrix built here from the edges, and with 2 cos(pi / (n + 1)) for paths.
Isomorphism is judged by a canonical form that networkx computes
(``to_nested_tuple`` rooted at the tree's centre), and class sizes by the
stored reference counts of ``reference.py``.  Caterpillars, branching
points and Rayleigh quotients are recomputed here from the edges; the
checks use the program only to list the trees of a class, and that list
is itself checked against the reference count and for duplicates.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

from reference import class_key, parse_degrees, semiregular_degrees

TOL = 1e-9
REFERENCE_CLASS = class_key(parse_degrees("4^4,3^2,2,1^12"))
REFERENCE_TIES = 11
VERIFIED_LINE = "VERIFIED: unique minimizer is the caterpillar"


class CheckError(Exception):
    """A result of the program disagrees with the independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# independent tree utilities (edges in, nothing from treeindex)

def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def index_of(n: int, edges) -> float:
    if n == 1:
        return 0.0
    return float(np.linalg.eigvalsh(adjacency(n, edges))[-1])


def class_indices(trees) -> np.ndarray:
    """Largest eigenvalue of each tree, one batched eigvalsh per class."""
    n = trees[0].vertex_count
    stack = np.stack([adjacency(n, t.edges()) for t in trees])
    return np.linalg.eigvalsh(stack)[:, -1]


def rayleigh(edges, f) -> float:
    f = np.asarray(f, dtype=np.float64)
    return 2.0 * sum(float(f[u] * f[v]) for u, v in edges) / float(f @ f)


def neighbours(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def branching_points(n: int, edges) -> list[int]:
    nbrs = neighbours(n, edges)
    return [v for v in range(n)
            if sum(1 for u in nbrs[v] if len(nbrs[u]) >= 2) >= 3]


def buds(n: int, edges) -> list[int]:
    nbrs = neighbours(n, edges)
    return [v for v in range(n) if len(nbrs[v]) >= 2
            and sum(1 for u in nbrs[v] if len(nbrs[u]) >= 2) == 1]


def is_caterpillar(n: int, edges) -> bool:
    return not branching_points(n, edges)


def caterpillar_edges(d: int, n: int) -> list[tuple[int, int]]:
    """The semiregular caterpillar with trunk 0..k-1."""
    k = (n - 2) // (d - 1)
    if k == 0:
        return [(0, 1)]
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i in range(k):
        trunk_degree = 0 if k == 1 else (1 if i in (0, k - 1) else 2)
        for _ in range(d - trunk_degree):
            edges.append((i, nxt))
            nxt += 1
    return edges


def centres(n: int, edges) -> list[int]:
    nbrs = neighbours(n, edges)
    degree = [len(x) for x in nbrs]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in nbrs[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def nx_canonical(n: int, edges):
    """networkx's canonical nested tuple, minimised over the centres;
    raises CheckError if the edges do not form a tree on n vertices."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    require(nx.is_tree(g), f"edges do not form a tree on {n} vertices")
    return min(nx.to_nested_tuple(g, c, canonical_form=True) for c in centres(n, edges))


def decode_code(code: str) -> tuple[int, list[tuple[int, int]]]:
    """Tree of an AHU parenthesis string: each "(" opens a child vertex."""
    edges, stack, n = [], [], 0
    for ch in code:
        if ch == "(":
            if stack:
                edges.append((stack[-1], n))
            stack.append(n)
            n += 1
        elif ch == ")":
            require(bool(stack), "unbalanced canonical code")
            stack.pop()
        else:
            raise CheckError(f"unexpected character {ch!r} in canonical code")
    require(not stack and n > 0, "unbalanced canonical code")
    return n, edges


# ---------------------------------------------------------------------------
# checks per operation kind

def check_class(pi_text: str, trees, counts: dict[str, int]) -> list:
    """The trees are exactly the class: reference count, right degrees,
    pairwise non-isomorphic.  Returns their networkx canonical forms."""
    degrees = parse_degrees(pi_text)
    key = class_key(degrees)
    require(key in counts, f"no reference count for {key}")
    require(len(trees) == counts[key],
            f"{key}: {len(trees)} trees, reference count {counts[key]}")
    want = Counter(degrees)
    forms = []
    for t in trees:
        edges = t.edges()
        n = t.vertex_count
        got = Counter(len(x) for x in neighbours(n, edges))
        require(got == want, f"{key}: tree with degrees {sorted(got.elements(), reverse=True)}")
        forms.append(nx_canonical(n, edges))
    require(len(set(forms)) == len(forms), f"{key}: isomorphic trees in the class listing")
    return forms


def _class_trees(pi_text: str, counts):
    from treeindex import enumeration
    from treeindex.trees import DegreeSequence

    trees = list(enumeration.enumerate_trees(DegreeSequence.parse(pi_text)))
    forms = check_class(pi_text, trees, counts)
    return trees, forms, class_indices(trees)


def check_search(args, report, counts) -> None:
    pi_text = args["pi"]
    trees, forms, mus = _class_trees(pi_text, counts)
    true_min = float(mus.min())
    require(report.tree_count == len(trees), f"tree_count {report.tree_count} != {len(trees)}")
    require(abs(report.min_mu - true_min) <= TOL,
            f"min_mu {report.min_mu!r} differs from eigvalsh {true_min!r}")
    require(float(mus.min()) >= report.min_mu - TOL, "a class tree has an index below min_mu")
    tied = {forms[i] for i in range(len(trees)) if mus[i] <= true_min + TOL}
    got = [nx_canonical(t.vertex_count, t.edges()) for t in report.minimizers]
    require(len(got) == len(tied) and set(got) == tied,
            f"{len(got)} minimizers reported, eigvalsh finds {len(tied)}")
    require(report.unique == (len(tied) == 1), "unique flag disagrees with the tie count")
    cats = [is_caterpillar(t.vertex_count, t.edges()) for t in report.minimizers]
    require(report.all_caterpillars == all(cats), "all_caterpillars flag is wrong")
    if class_key(parse_degrees(pi_text)) == REFERENCE_CLASS:
        require(abs(report.min_mu ** 2 - 6.0) <= TOL, f"min_mu^2 = {report.min_mu ** 2!r}, not 6")
        require(len(got) == REFERENCE_TIES, f"{len(got)} tied minimizers, not {REFERENCE_TIES}")


def check_verify(args, outcome, counts) -> None:
    d, n = args["d"], args["n"]
    rc, text = outcome
    pi_text = ",".join(map(str, semiregular_degrees(d, n)))
    trees, forms, mus = _class_trees(pi_text, counts)
    lines = text.rstrip("\n").split("\n")
    require(rc == 0 and lines[-1] == VERIFIED_LINE, f"verify-min d={d} n={n} not verified")
    rows = lines[1:-1]
    require(len(rows) == len(trees), f"{len(rows)} rows for a class of {len(trees)}")
    printed = sorted(float(row.split()[0]) for row in rows)
    require(all(abs(p - m) <= 1e-6 for p, m in zip(printed, sorted(mus))),
            "printed indices differ from eigvalsh")
    order = np.argsort(mus)
    require(len(trees) == 1 or mus[order[1]] > mus[order[0]] + TOL,
            "the minimum is not strict")
    cat = nx_canonical(n, caterpillar_edges(d, n))
    require(forms[order[0]] == cat, "the eigvalsh argmin is not the caterpillar")
    require(rows[0].split()[1] == "True", "first printed row is not the caterpillar")


def check_enumerate(args, trees, counts) -> None:
    check_class(args["pi"], trees, counts)


def check_spectral(args, res, counts) -> None:
    t = args["tree"]
    n, edges = t.vertex_count, t.edges()
    true_mu = index_of(n, edges)
    require(abs(res.mu - true_mu) <= TOL, f"mu {res.mu!r} differs from eigvalsh {true_mu!r}")
    if args.get("path_n"):
        closed = 2.0 * math.cos(math.pi / (args["path_n"] + 1))
        require(abs(res.mu - closed) <= TOL, f"mu {res.mu!r} differs from 2cos(pi/(n+1))")
    f = np.asarray(res.perron, dtype=np.float64)
    require(bool(np.all(f > 0)), "Perron vector is not positive")
    require(abs(float(f @ f) - 1.0) <= TOL, "Perron vector is not a unit vector")
    residual = float(np.max(np.abs(adjacency(n, edges) @ f - res.mu * f)))
    require(residual <= 1e-8, f"eigen-equation residual {residual:.3e}")


def check_witness(args, w, counts) -> None:
    t, d = args["tree"], args["d"]
    n, edges = t.vertex_count, t.edges()
    f = np.asarray(w.valuation, dtype=np.float64)
    require(f.shape == (n,) and bool(np.all(f > 0)), "valuation is not positive on every vertex")
    rq = rayleigh(edges, f)
    require(abs(rq - w.rq) <= TOL, f"reported rq {w.rq!r}, recomputed {rq!r}")
    mu_cat = index_of(n, caterpillar_edges(d, n))
    mu_tree = index_of(n, edges)
    require(mu_cat - TOL <= rq <= mu_tree + TOL,
            f"mu_cat {mu_cat!r} <= rq {rq!r} <= mu_tree {mu_tree!r} fails")
    require(abs(w.mu_cat - mu_cat) <= TOL and abs(w.mu_tree - mu_tree) <= TOL,
            "reported indices differ from eigvalsh")
    require(w.gap_ok, "witness reports gap_ok=False")


def _surplus(n, edges) -> int:
    nbrs = neighbours(n, edges)
    inner = [sum(1 for u in nbrs[v] if len(nbrs[u]) >= 2) for v in range(n)]
    return sum(x - 2 for x in inner if x >= 3)


def check_reduce(args, seq, counts) -> None:
    t = args["tree"]
    n = t.vertex_count
    want = Counter(t.degrees())
    require(seq.trees[0].edges() == t.edges(), "sequence does not start at the input")
    require(len(seq.trees) == len(seq.steps) + 1, "trees and steps do not line up")
    for s in seq.trees:
        require(Counter(s.degrees()) == want, "a reduction step changed the degrees")
    require(is_caterpillar(n, seq.trees[-1].edges()), "reduction does not end at a caterpillar")
    require(len(seq.steps) == _surplus(n, t.edges()),
            f"{len(seq.steps)} steps, surplus is {_surplus(n, t.edges())}")


def check_spiral(args, res, counts) -> None:
    d, n, lengths = args["d"], args["n"], args["lengths"]
    edges = res.tree.edges()
    require(Counter(res.tree.degrees()) == Counter(semiregular_degrees(d, n)),
            "spiral changed the degree sequence")
    bps = branching_points(n, edges)
    require(len(bps) == 1, f"{len(bps)} branching points, want 1")
    nbrs = neighbours(n, edges)
    hub = bps[0]
    got = []
    for start in (u for u in nbrs[hub] if len(nbrs[u]) >= 2):
        size, prev, cur = 1, hub, start
        while cur is not None:
            size += 1
            nxt = [u for u in nbrs[cur] if u != prev and len(nbrs[u]) >= 2]
            prev, cur = cur, (nxt[0] if nxt else None)
        got.append(size)
    require(sorted(got, reverse=True) == list(lengths), f"branch lengths {got}, want {lengths}")
    trace = res.rq_trace
    require(all(b >= a - 1e-12 for a, b in zip(trace, trace[1:])), "Rayleigh trace decreased")
    rq = rayleigh(edges, res.valuation)
    require(abs(rq - trace[-1]) <= TOL, f"final rq {trace[-1]!r}, recomputed {rq!r}")
    mu_cat = index_of(n, caterpillar_edges(d, n))
    require(mu_cat - TOL <= rq <= index_of(n, edges) + TOL, "mu_cat <= rq <= mu_tree fails")


def check_queries(args, outcome, counts) -> None:
    t = args["tree"]
    n, edges = t.vertex_count, t.edges()
    bps, bud_list, cat, trunk = outcome
    require(list(bps) == branching_points(n, edges), "branching points differ")
    require(list(bud_list) == buds(n, edges), "buds differ")
    require(cat == is_caterpillar(n, edges), "caterpillar flag differs")
    if cat:
        nbrs = neighbours(n, edges)
        inner = {v for v in range(n) if len(nbrs[v]) >= 2}
        require(set(trunk) == inner and len(trunk) == len(inner), "trunk misses a vertex")
        require(all(b in nbrs[a] for a, b in zip(trunk, trunk[1:])), "trunk is not a path")


def check_canonical(args, outcome, counts) -> None:
    a = args["a"]
    ca, cb = outcome
    require(ca.code == cb.code, "a tree and its relabelling get different codes")
    n, edges = decode_code(ca.code)
    require(n == a.vertex_count, "canonical code has the wrong size")
    require(nx_canonical(n, edges) == nx_canonical(a.vertex_count, a.edges()),
            "canonical code does not describe the tree")


def check_isomorphism(args, mapping, counts) -> None:
    a, b = args["a"], args["b"]
    n = a.vertex_count
    require(mapping is not None, "isomorphic trees reported as non-isomorphic")
    require(set(mapping) == set(range(n)) and set(mapping.values()) == set(range(n)),
            "map is not a bijection of the vertices")
    target = set(b.edges())
    for u, v in a.edges():
        x, y = mapping[u], mapping[v]
        require((min(x, y), max(x, y)) in target, f"edge {u}-{v} is not sent to an edge")


CHECKS = {
    "search": check_search,
    "verify-min": check_verify,
    "enumerate": check_enumerate,
    "spectral": check_spectral,
    "witness": check_witness,
    "reduce": check_reduce,
    "spiral": check_spiral,
    "queries": check_queries,
    "canonical": check_canonical,
    "isomorphism": check_isomorphism,
}


def check(op, result, counts) -> None:
    CHECKS[op.kind](op.args, result, counts)


def items(op, result) -> int:
    """Items an operation completed: trees settled or generated, else 1."""
    if op.kind == "search":
        return result.tree_count
    if op.kind == "verify-min":
        return result[1].rstrip("\n").count("\n") - 1
    if op.kind == "enumerate":
        return len(result)
    return 1


def digest(op, result) -> str:
    """A fingerprint of a result, to confirm later passes repeat the first."""
    kind = op.kind
    if isinstance(result, BaseException):
        body = type(result).__name__
    elif kind == "search":
        body = result.to_json()
    elif kind == "enumerate":
        body = repr([t.edges() for t in result])
    elif kind == "spectral":
        body = repr((float(result.mu), result.iterations))
    elif kind == "witness":
        body = repr((float(result.rq), result.route))
    elif kind == "reduce":
        body = repr((len(result.steps), result.trees[-1].edges()))
    elif kind == "spiral":
        body = repr([float(x) for x in result.rq_trace])
    elif kind == "canonical":
        body = result[0].code + result[1].code
    elif kind == "isomorphism":
        body = repr(sorted(result.items()))
    else:
        body = repr(result)
    return hashlib.sha256(body.encode()).hexdigest()
