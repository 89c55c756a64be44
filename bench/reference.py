"""Reference class sizes, computed without treeindex.

Semiregular classes (every degree is d or 1) are counted with Otter's
dissimilarity theorem: a tree whose k internal vertices all have degree d
is determined by its internal skeleton, a tree on k vertices with maximum
degree at most d, so the class size is the number of such skeletons.
Mixed classes are counted by brute force over
``networkx.nonisomorphic_trees(n)``, which is practical up to n = 19.

Regenerate the stored counts for every class the workloads use with

    python3 bench/reference.py

which rewrites ``bench/reference_counts.json`` (about a minute, most of it
the n = 19 brute force).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

COUNTS_FILE = Path(__file__).resolve().parent / "reference_counts.json"
BRUTE_FORCE_MAX_N = 19


def parse_degrees(text: str) -> tuple[int, ...]:
    """Non-increasing degrees of "4^4,3^2,2,1^12" or "4,4,1,...". """
    degrees: list[int] = []
    for token in text.split(","):
        value, _, mult = token.strip().partition("^")
        degrees.extend([int(value)] * int(mult or 1))
    return tuple(sorted(degrees, reverse=True))


def class_key(degrees) -> str:
    """Compact, order-free name of a degree multiset, e.g. "4^4,3^2,2,1^12"."""
    parts = []
    for value, mult in sorted(Counter(degrees).items(), reverse=True):
        parts.append(str(value) if mult == 1 else f"{value}^{mult}")
    return ",".join(parts)


def semiregular_degrees(d: int, n: int) -> tuple[int, ...]:
    k = (n - 2) // (d - 1)
    return (d,) * k + (1,) * (n - k)


def _cycle_index_sum(p: list[Fraction], arity: int, size: int) -> list[Fraction]:
    """Coefficients of sum_{j=0..arity} Z(S_j)[p] up to x^size, where p is a
    power series and Z(S_j) the cycle index of the symmetric group."""

    def substitute(power: int) -> list[Fraction]:
        out = [Fraction(0)] * (size + 1)
        for i, c in enumerate(p):
            if i * power > size:
                break
            out[i * power] += c
        return out

    def mul(a, b):
        out = [Fraction(0)] * (size + 1)
        for i, x in enumerate(a):
            if x:
                for j in range(size + 1 - i):
                    out[i + j] += x * b[j]
        return out

    powers = [None] + [substitute(i) for i in range(1, arity + 1)]
    z = [[Fraction(1)] + [Fraction(0)] * size]
    for j in range(1, arity + 1):
        acc = [Fraction(0)] * (size + 1)
        for i in range(1, j + 1):
            term = mul(powers[i], z[j - i])
            acc = [a + t for a, t in zip(acc, term)]
        z.append([a / j for a in acc])
    return [sum(col) for col in zip(*z)]


def count_max_degree_trees(k: int, d: int) -> int:
    """Unlabelled trees on k vertices with every degree at most d (Otter)."""
    if k <= 1:
        return 1
    size = k
    planted = [Fraction(0)] * (size + 1)
    for _ in range(size):
        inner = _cycle_index_sum(planted, d - 1, size)
        planted = [Fraction(0)] + inner[:size]
    rooted = [Fraction(0)] + _cycle_index_sum(planted, d, size)[:size]
    square = sum(planted[i] * planted[size - i] for i in range(size + 1))
    halved = planted[size // 2] if size % 2 == 0 else Fraction(0)
    total = rooted[size] - (square - halved) / 2
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral tree count {total}")
    return int(total)


def count_semiregular(d: int, n: int) -> int:
    return count_max_degree_trees((n - 2) // (d - 1), d)


def brute_force_counts(n: int, keys: set[str]) -> dict[str, int]:
    """Class sizes for the given degree multisets on n vertices, by listing
    every unlabelled tree on n vertices with networkx."""
    import networkx as nx

    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force is limited to n <= {BRUTE_FORCE_MAX_N}")
    found = Counter()
    for g in nx.nonisomorphic_trees(n):
        key = class_key(d for _, d in g.degree())
        if key in keys:
            found[key] += 1
    return {key: found[key] for key in keys}


def is_semiregular_class(degrees) -> int | None:
    internal = {x for x in degrees if x != 1}
    if len(internal) == 1 and min(internal) >= 3:
        return internal.pop()
    return None


def compute_counts(classes) -> dict[str, dict]:
    """{key: {"count": int, "method": "otter" | "networkx"}} for degree
    multisets given as tuples."""
    out: dict[str, dict] = {}
    mixed: dict[int, set[str]] = {}
    for degrees in classes:
        key = class_key(degrees)
        d = is_semiregular_class(degrees)
        if d is not None:
            out[key] = {"count": count_semiregular(d, len(degrees)), "method": "otter"}
        else:
            mixed.setdefault(len(degrees), set()).add(key)
    for n, keys in sorted(mixed.items()):
        for key, count in brute_force_counts(n, keys).items():
            out[key] = {"count": count, "method": "networkx"}
    return dict(sorted(out.items()))


def load_counts() -> dict[str, int]:
    with open(COUNTS_FILE) as handle:
        return {key: entry["count"] for key, entry in json.load(handle).items()}


def main() -> int:
    import workloads

    counts = compute_counts(workloads.all_classes())
    COUNTS_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(counts)} class counts to {COUNTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
