"""`Tree` construction accepts exactly the neighbor lists that the
three-pass validator kept here as a reference accepts: a sort-and-set pass
per list with a membership scan per edge end, an entry count, then a
separate connectivity search."""

import itertools
import random

import pytest

from treeindex.trees import Tree, TreeError


def three_pass_check(adjacency) -> None:
    n = len(adjacency)
    if n == 0:
        raise TreeError("a tree needs at least one vertex")
    ends = 0
    for v, nbrs in enumerate(adjacency):
        if list(nbrs) != sorted(set(nbrs)):
            raise TreeError(f"neighbor list of vertex {v} must be sorted and duplicate-free")
        for u in nbrs:
            if u == v:
                raise TreeError(f"self-loop at vertex {v}")
            if not 0 <= u < n:
                raise TreeError(f"neighbor {u} of vertex {v} out of range")
            if v not in adjacency[u]:
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
        for u in adjacency[v]:
            if not seen[u]:
                seen[u] = 1
                count += 1
                stack.append(u)
    if count != n:
        raise TreeError("graph is not connected")


def accepts(check, adjacency) -> bool:
    try:
        check(adjacency)
    except TreeError:
        return False
    return True


def assert_parity(cases) -> tuple[int, int]:
    """Both validators agree on every case; the counts of accepted and
    rejected cases."""
    accepted = rejected = 0
    for adj in cases:
        ok = accepts(three_pass_check, adj)
        assert accepts(Tree, adj) == ok, adj
        accepted += ok
        rejected += not ok
    return accepted, rejected


def edge_subsets(n):
    """Sorted neighbor lists of every simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        adj = [[] for _ in range(n)]
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                adj[u].append(v)
                adj[v].append(u)
        yield tuple(tuple(sorted(nbrs)) for nbrs in adj)


def entry_subsets(n):
    """Every choice of sorted neighbor lists over 0..n-1, self entries and
    one-sided edges included."""
    for mask in range(1 << (n * n)):
        yield tuple(
            tuple(u for u in range(n) if mask >> (v * n + u) & 1) for v in range(n)
        )


def random_tree_lists(rng, n):
    adj = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[] for _ in range(n)]
    for v in range(n):
        out[perm[v]] = sorted(perm[u] for u in adj[v])
    return out


def mutate(rng, adj):
    """One local fault: an unsorted, repeated, negative, out-of-range or self
    entry, a dropped or added entry, or an edge moved on both sides."""
    n = len(adj)
    v = rng.randrange(n)
    nbrs = adj[v]
    kind = rng.randrange(8)
    if kind == 0 and len(nbrs) >= 2:
        i, j = rng.sample(range(len(nbrs)), 2)
        nbrs[i], nbrs[j] = nbrs[j], nbrs[i]
    elif kind == 1 and nbrs:
        nbrs.insert(rng.randrange(len(nbrs) + 1), rng.choice(nbrs))
    elif kind == 2 and nbrs:
        nbrs[rng.randrange(len(nbrs))] = rng.choice([-1, -n, n, n + 1, v])
    elif kind == 3 and nbrs:
        del nbrs[rng.randrange(len(nbrs))]
    elif kind == 4:
        nbrs.append(rng.randrange(-1, n + 2))
        if rng.random() < 0.7:
            nbrs.sort()
    elif kind == 5 and nbrs:
        u = nbrs.pop(rng.randrange(len(nbrs)))
        if 0 <= u < n and v in adj[u]:
            adj[u].remove(v)
        a, b = rng.randrange(n), rng.randrange(n)
        adj[a] = sorted(adj[a] + [b])
        adj[b] = sorted(adj[b] + [a])
    elif kind == 6 and n >= 2:
        # a symmetric extra edge, so the count fails unless one is dropped
        a, b = rng.sample(range(n), 2)
        if b not in adj[a]:
            adj[a] = sorted(adj[a] + [b])
            adj[b] = sorted(adj[b] + [a])
    elif kind == 7:
        nbrs.reverse()


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        if rng.random() < 0.8:
            adj = random_tree_lists(rng, n)
            for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
                mutate(rng, adj)
        else:
            adj = [
                sorted(rng.randrange(-2, n + 2) for _ in range(rng.randint(0, 3)))
                for _ in range(n)
            ]
        yield tuple(map(tuple, adj))


def test_every_edge_subset_on_up_to_five_vertices():
    cases = itertools.chain.from_iterable(edge_subsets(n) for n in range(1, 6))
    accepted, _ = assert_parity(cases)
    assert accepted == 1 + 1 + 3 + 16 + 125  # Cayley: n^(n-2) labelled trees


def test_every_entry_subset_on_up_to_four_vertices():
    cases = itertools.chain.from_iterable(entry_subsets(n) for n in range(1, 5))
    accepted, _ = assert_parity(cases)
    assert accepted == 1 + 1 + 3 + 16


def test_random_neighbor_tuples():
    accepted, rejected = assert_parity(random_cases(2009, 100_000))
    assert accepted > 20_000 and rejected > 50_000


def test_no_vertices():
    assert_parity([()])


@pytest.mark.parametrize("adj, fault", [
    (((1, 1), (0,), (0,)), "neighbor 1 of vertex 0 is repeated"),
    (((1,), (2, 0), (1,)), "neighbor 0 of vertex 1 is repeated or out of order"),
    (((1, 3), (0,), (0,)), "neighbor 3 of vertex 0 is out of range"),
    (((-1, 1), (0,), (0,)), "neighbor -1 of vertex 0 is out of range"),
    (((0, 1), (0,), (2,)), "self-loop at vertex 0"),
    (((1, 2), (0, 2), (0, 1), ()), "edge 1-2"),
    (((1,), (0, 2), (0,)), "edge 2-0"),
    (((), (2, 3), (1, 3), (1, 2)), "vertex 1 is not reached"),
    (((1,), (0, 2), (1, 3)), "5 neighbor entries, a tree on 3 vertices has 4"),
])
def test_each_rejection_names_the_fault(adj, fault):
    with pytest.raises(TreeError, match=fault):
        Tree(adj)
