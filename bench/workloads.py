"""Workload definitions: the seeded inputs and the fixed list of operations
that one pass of each workload performs.

Every operation is a zero-argument callable that looks the program's
function up on its module when it runs, so the traced run sees the
wrapped functions.  The seed changes the inputs (vertex labels, tree
shapes, operation order) but never how many operations of each kind a
pass holds or their sizes, so runs on different seeds do the same amount
of work.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from reference import parse_degrees, semiregular_degrees

WORKLOADS = ("class-search", "enumerate", "single-tree")

# The reference class of the paper (333 trees, 11 minimizers tied at
# sqrt(6)) and a neighbour with a unique minimizer (419 trees).
SEARCH_CLASSES = ("4^4,3^2,2,1^12", "4^3,3^3,2,1^11")
# The 21 semiregular classes with d = 3..5 and 3 <= n <= 22.
VERIFY_CLASSES = tuple(
    (d, n) for d in (3, 4, 5) for n in range(3, 23) if (n - 2) % (d - 1) == 0
)
# Beyond the desk guard of the search commands: enumeration only.
ENUM_SEMIREGULAR = ((3, 24), (3, 26), (3, 28), (3, 30), (4, 26), (4, 29))
ENUM_MIXED = (
    "3^6,2^4,1^8",
    "3^5,2^5,1^7",
    "3^4,2^6,1^6",
    "4^3,3^2,2^3,1^10",
    "4^2,3^4,2^2,1^10",
    "4,3^5,2^3,1^9",
    "5,4,3^3,2^3,1^10",
)

TINY_SEARCH_CLASSES = ("3^2,2^2,1^4", "4,3,2^2,1^5")
TINY_VERIFY_CLASSES = ((3, 8), (3, 10), (4, 8))
TINY_ENUM_SEMIREGULAR = ((3, 12), (4, 11))
TINY_ENUM_MIXED = ("3^3,2^2,1^5", "4,3,2^3,1^5")

# Single-tree inputs.  (d, k) pairs give random semiregular trees with k
# internal vertices of degree d; (d, n) pairs give caterpillars.  Paths of
# 1000+ vertices make the recursive canonical form overflow the interpreter
# stack today; their canonical operations stay in the pass and count as
# failed, and cost milliseconds once they succeed.
SINGLE = dict(
    spectral_paths=(150, 300, 600, 1200),
    spectral_caterpillars=((4, 302),),
    spectral_random=((3, 150),) * 3 + ((4, 100),) * 3,
    witness_random=((3, 35),) * 6 + ((4, 20),) * 3 + ((5, 18),) * 3,
    spirals=((3, 20), (4, 20)),
    query_random=((3, 150), (4, 100)),
    query_caterpillars=((3, 302), (4, 302)),
    canonical_paths=(500, 1100, 1200),
    canonical_caterpillars=((3, 402),),
    canonical_random=((3, 150),),
)
TINY_SINGLE = dict(
    spectral_paths=(20,),
    spectral_caterpillars=((3, 22),),
    spectral_random=((3, 12),),
    witness_random=((3, 10), (4, 8)),
    spirals=((3, 6),),
    query_random=((3, 12),),
    query_caterpillars=((3, 22),),
    canonical_paths=(30, 1200),
    canonical_caterpillars=((3, 22),),
    canonical_random=((3, 12),),
)


@dataclass(frozen=True)
class Op:
    """One timed call.  `args` carries what the checks need to judge the
    result: the inputs, and for some kinds the parameters they came from."""

    kind: str
    label: str
    call: Callable[[], object]
    args: dict


def _capture(argv: list[str]) -> tuple[int, str]:
    from treeindex import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def all_classes() -> list[tuple[int, ...]]:
    """Every degree multiset some check compares with a reference count."""
    out = []
    for small in (False, True):
        search = TINY_SEARCH_CLASSES if small else SEARCH_CLASSES
        verify = TINY_VERIFY_CLASSES if small else VERIFY_CLASSES
        semi = TINY_ENUM_SEMIREGULAR if small else ENUM_SEMIREGULAR
        mixed = TINY_ENUM_MIXED if small else ENUM_MIXED
        out += [parse_degrees(p) for p in search + mixed]
        out += [semiregular_degrees(d, n) for d, n in verify + semi]
    return out


# ---------------------------------------------------------------------------
# class-search

def class_search(seed: int, tiny: bool = False, jobs: int = 1) -> list[Op]:
    from treeindex import enumeration
    from treeindex.trees import DegreeSequence

    ops = []
    for text in TINY_SEARCH_CLASSES if tiny else SEARCH_CLASSES:
        pi = DegreeSequence.parse(text)
        ops.append(Op(
            "search", f"find_minimizers {text}",
            lambda pi=pi: enumeration.find_minimizers(pi, jobs=jobs),
            {"pi": text},
        ))
    for d, n in TINY_VERIFY_CLASSES if tiny else VERIFY_CLASSES:
        argv = ["verify-min", "--d", str(d), "--n", str(n), "--jobs", str(jobs)]
        ops.append(Op(
            "verify-min", f"verify-min d={d} n={n}",
            lambda argv=argv: _capture(argv),
            {"d": d, "n": n},
        ))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# enumerate

def enumerate_classes(seed: int, tiny: bool = False) -> list[Op]:
    from treeindex import enumeration
    from treeindex.trees import DegreeSequence

    texts = [
        ",".join(f"{x}" for x in semiregular_degrees(d, n))
        for d, n in (TINY_ENUM_SEMIREGULAR if tiny else ENUM_SEMIREGULAR)
    ] + list(TINY_ENUM_MIXED if tiny else ENUM_MIXED)
    ops = []
    for text in texts:
        pi = DegreeSequence.parse(text)
        ops.append(Op(
            "enumerate", f"enumerate_trees {pi.compact()}",
            lambda pi=pi: list(enumeration.enumerate_trees(pi)),
            {"pi": text},
        ))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# single-tree

def relabel(t, rng: random.Random):
    """t with its vertex ids permuted at random."""
    from treeindex.trees import tree_from_edges

    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    return tree_from_edges(t.vertex_count, [(perm[u], perm[v]) for u, v in t.edges()])


def random_semiregular(rng: random.Random, d: int, k: int, caterpillar_ok: bool = True):
    """A random tree whose k internal vertices all have degree d: a random
    recursive skeleton on k vertices with degrees at most d, filled up with
    pendant vertices, then relabelled at random."""
    from treeindex.trees import is_caterpillar, tree_from_edges

    while True:
        degree = [0] * k
        edges = []
        for v in range(1, k):
            u = rng.choice([w for w in range(v) if degree[w] < d])
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
        nxt = k
        for v in range(k):
            for _ in range(d - degree[v]):
                edges.append((v, nxt))
                nxt += 1
        t = relabel(tree_from_edges(nxt, edges), rng)
        if caterpillar_ok or k < 4 or not is_caterpillar(t):
            return t


def _spiral_lengths(rng: random.Random, k: int) -> tuple[int, int, int]:
    """Three branch lengths, each >= 2, summing to k + 2, the longest at
    most (k + 1) // 2: what `spiral_rearrangement` accepts."""
    while True:
        a = rng.randint(2, (k + 1) // 2)
        b = rng.randint(2, (k + 1) // 2)
        c = k + 2 - a - b
        if 2 <= c <= (k + 1) // 2:
            return tuple(sorted((a, b, c), reverse=True))


def single_tree(seed: int, tiny: bool = False) -> list[Op]:
    from treeindex import spectral, transforms, trees

    rng = random.Random(seed)
    cfg = TINY_SINGLE if tiny else SINGLE
    ops = []

    def spectral_op(t, label, path_n=None):
        ops.append(Op(
            "spectral", f"spectral_radius {label}",
            lambda: spectral.spectral_radius(t),
            {"tree": t, "path_n": path_n},
        ))

    for n in cfg["spectral_paths"]:
        spectral_op(relabel(trees.make_path(n), rng), f"path n={n}", n)
    for d, n in cfg["spectral_caterpillars"]:
        spectral_op(relabel(trees.make_caterpillar(d, n), rng), f"caterpillar d={d} n={n}")
    for d, k in cfg["spectral_random"]:
        t = random_semiregular(rng, d, k)
        spectral_op(t, f"random d={d} n={t.vertex_count}")

    for d, k in cfg["witness_random"]:
        t = random_semiregular(rng, d, k, caterpillar_ok=False)
        ops.append(Op(
            "witness", f"caterpillar_bound_witness d={d} n={t.vertex_count}",
            lambda t=t: transforms.caterpillar_bound_witness(t),
            {"tree": t, "d": d},
        ))
        ops.append(Op(
            "reduce", f"reduce_to_caterpillar d={d} n={t.vertex_count}",
            lambda t=t: transforms.reduce_to_caterpillar(t),
            {"tree": t},
        ))
    for d, k in cfg["spirals"]:
        n = k * (d - 1) + 2
        lengths = _spiral_lengths(rng, k)
        ops.append(Op(
            "spiral", f"spiral_rearrangement d={d} n={n} {lengths}",
            lambda d=d, n=n, lengths=lengths: transforms.spiral_rearrangement(d, n, lengths),
            {"d": d, "n": n, "lengths": lengths},
        ))
    query_trees = [random_semiregular(rng, d, k) for d, k in cfg["query_random"]]
    query_trees += [relabel(trees.make_caterpillar(d, n), rng) for d, n in cfg["query_caterpillars"]]
    for t in query_trees:
        ops.append(Op(
            "queries", f"structural queries n={t.vertex_count}",
            lambda t=t: (
                trees.branching_points(t),
                trees.buds(t),
                trees.is_caterpillar(t),
                trees.trunk_path(t) if trees.is_caterpillar(t) else None,
            ),
            {"tree": t},
        ))

    pairs = [(trees.make_path(n), f"path n={n}") for n in cfg["canonical_paths"]]
    pairs += [(trees.make_caterpillar(d, n), f"caterpillar d={d} n={n}")
              for d, n in cfg["canonical_caterpillars"]]
    pairs += [(random_semiregular(rng, d, k), f"random d={d}") for d, k in cfg["canonical_random"]]
    for base, label in pairs:
        a, b = relabel(base, rng), relabel(base, rng)
        ops.append(Op(
            "canonical", f"canonical_form {label}",
            lambda a=a, b=b: (trees.canonical_form(a), trees.canonical_form(b)),
            {"a": a, "b": b},
        ))
        ops.append(Op(
            "isomorphism", f"isomorphism_map {label}",
            lambda a=a, b=b: trees.isomorphism_map(a, b),
            {"a": a, "b": b},
        ))
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int, tiny: bool = False, jobs: int = 1) -> list[Op]:
    if workload == "class-search":
        return class_search(seed, tiny, jobs)
    if workload == "enumerate":
        return enumerate_classes(seed, tiny)
    if workload == "single-tree":
        return single_tree(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
