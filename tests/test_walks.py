"""Proper branches, arms and trunks from one walk per arm, checked against
the component-search definitions, and the work the single walk saves."""

import json

import pytest

from treeindex import cli, transforms
from treeindex.enumeration import enumerate_trees
from treeindex.spectral import spectral_radius, symmetrize_caterpillar
from treeindex.transforms import (
    apply_switch,
    find_branch_reductions,
    inverse_move,
    switch_certificate,
)
from treeindex.trees import (
    DegreeSequence,
    arms,
    branch,
    branch_bud,
    branching_points,
    buds,
    is_caterpillar,
    nonpendant_vertices,
    proper_branches,
    tree_from_edges,
    tree_to_json,
    trunk_path,
)

# ---------------------------------------------------------------------------
# reference definitions: whole-component search and path queries


def ref_proper_branches(t, v_star):
    """Branches at v_star whose component holds no other branching point
    and exactly one bud."""
    bset, budset = set(branching_points(t)), set(buds(t))
    out = []
    for u in t.neighbors(v_star):
        if t.degree(u) < 2:
            continue
        b = branch(t, v_star, u)
        if bset & b.vertices == {v_star} and len(budset & b.vertices) == 1:
            out.append(b)
    return out


def ref_arms(t):
    bps = branching_points(t)
    if bps:
        return [
            t.path(v, branch_bud(t, b)) for v in bps for b in ref_proper_branches(t, v)
        ]
    trunk = ref_trunk_path(t)
    k = len(trunk)
    if k <= 1:
        return []
    half = k // 2 - 1 if k % 2 == 0 else k // 2
    return [trunk[half::-1], trunk[k // 2 :]]


def ref_trunk_path(t):
    core = nonpendant_vertices(t)
    if len(core) <= 1:
        return list(core)
    ends = [v for v in core if sum(1 for u in t.neighbors(v) if t.degree(u) >= 2) == 1]
    return t.path(min(ends), max(ends))


def ref_candidates(t):
    """(v*, bud, u1, gateway, fork, fork size) by a degree scan of the fork."""
    out = []
    for v_star in branching_points(t):
        pbs = sorted(ref_proper_branches(t, v_star), key=lambda b: branch_bud(t, b))
        for i, receiving in enumerate(pbs):
            bud = branch_bud(t, receiving)
            u1 = min(u for u in t.neighbors(bud) if t.degree(u) == 1)
            for reduced in pbs[i + 1 :]:
                fork = receiving.vertices | reduced.vertices
                size = sum(1 for w in fork if t.degree(w) >= 2)
                out.append((v_star, bud, u1, reduced.gateway, fork, size))
    return out


def sweep_classes():
    for d, first in ((3, 4), (4, 5), (5, 6)):
        for n in range(first, 21, d - 1):
            yield DegreeSequence.semiregular(d, n)
    yield DegreeSequence.parse("4^4,3^2,2,1^12")
    yield DegreeSequence.parse("3^4,2^6,1^6")


@pytest.fixture(scope="module")
def sweep_trees():
    return [t for pi in sweep_classes() for t in enumerate_trees(pi)]


def test_sweep_covers_both_shapes(sweep_trees):
    assert len(sweep_trees) > 1300
    assert any(is_caterpillar(t) for t in sweep_trees)
    assert sum(len(branching_points(t)) > 1 for t in sweep_trees) > 100


def test_proper_branches_match_component_search(sweep_trees):
    for t in sweep_trees:
        for v_star in branching_points(t):
            got = proper_branches(t, v_star)
            want = ref_proper_branches(t, v_star)
            assert [(b.root, b.gateway, set(b.vertices), b.length) for b in got] == [
                (b.root, b.gateway, set(b.vertices), b.length) for b in want
            ]


def test_arms_and_trunks_match_path_queries(sweep_trees):
    for t in sweep_trees:
        assert arms(t) == ref_arms(t)
        if is_caterpillar(t):
            assert trunk_path(t) == ref_trunk_path(t)


def test_reduction_candidates_match_degree_scan(sweep_trees):
    for t in sweep_trees:
        got = [
            (s.reduction_point, s.move.v1, s.move.u1_pendant, s.move.u2, s.fork, s.fork_size)
            for s in find_branch_reductions(t)
        ]
        assert got == ref_candidates(t)
        assert all(s.move.v2 == s.reduction_point for s in find_branch_reductions(t))


# ---------------------------------------------------------------------------
# counted work

SPIDER_10 = tree_from_edges(
    10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
)


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def replay_move():
    """The caterpillar of the spider's class, its symmetrized Perron vector
    and the inverse of the spider's first reduction."""
    step = find_branch_reductions(SPIDER_10)[0]
    cat = apply_switch(SPIDER_10, step.move)
    return cat, symmetrize_caterpillar(cat, spectral_radius(cat).perron), inverse_move(step.move)


def test_switch_certificate_validates_once(monkeypatch):
    cat, f, move = replay_move()
    calls = counting(monkeypatch, transforms, "validate_switch")
    cert = switch_certificate(cat, f, move)
    assert len(calls) == 1
    assert cert.new_tree == SPIDER_10


def test_transport_valuation_still_validates(monkeypatch):
    cat, f, move = replay_move()
    calls = counting(monkeypatch, transforms, "validate_switch")
    transforms.transport_valuation(cat, f, move)
    assert len(calls) == 1


def test_reduce_command_reduces_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.json"
    path.write_text(tree_to_json(SPIDER_10))
    calls = counting(monkeypatch, transforms, "reduce_to_caterpillar")
    monkeypatch.setattr(cli, "reduce_to_caterpillar", transforms.reduce_to_caterpillar)
    assert cli.main(["reduce", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1
    assert len(calls) == 1
