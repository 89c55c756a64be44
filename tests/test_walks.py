"""Proper branches, arms and trunks from one walk per arm, checked against
the component-search definitions, and the work the single walk saves."""

import json

import pytest

import treeindex
from treeindex import cli, enumeration, spectral, transforms, trees
from treeindex.enumeration import enumerate_trees
from treeindex.spectral import spectral_radius, symmetrize_caterpillar
from treeindex.transforms import (
    _fork_key,
    apply_switch,
    find_branch_reductions,
    inverse_move,
    minimal_branch_reduction,
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
    nonpendant_degree,
    nonpendant_vertices,
    proper_branches,
    semiregular_degree,
    tree_from_edges,
    tree_to_json,
    trunk_path,
)

from test_pinned import random_semiregular

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


@pytest.mark.parametrize("policy", ["minimal", "any"])
def test_reduction_scans_branching_points_once(monkeypatch, policy):
    calls = counting(monkeypatch, trees, "branching_points")
    monkeypatch.setattr(transforms, "branching_points", trees.branching_points)
    steps = 0
    for t in enumerate_trees(DegreeSequence.semiregular(3, 20)):
        before = len(calls)
        seq = transforms.reduce_to_caterpillar(t, policy)
        assert len(calls) - before == 1
        assert is_caterpillar(seq.trees[-1])
        steps += len(seq.steps)
    assert steps > 20


@pytest.mark.parametrize("policy", ["minimal", "any"])
def test_reduction_walks_grow_linearly(monkeypatch, policy):
    """Each branching point's proper walks are walked once, at the start,
    and a step walks at most one more arm, where a rescan after every
    switch would walk every arm of the tree again."""
    arm_calls = counting(monkeypatch, trees, "_arm")
    walk_calls = counting(monkeypatch, trees, "_proper_walks")
    monkeypatch.setattr(transforms, "_arm", trees._arm)
    monkeypatch.setattr(transforms, "_proper_walks", trees._proper_walks)
    per_vertex = []
    for k, seed in ((300, 602), (1000, 2002)):
        t = random_semiregular(3, k, seed)
        bps = branching_points(t)
        walked = sum(nonpendant_degree(t, v) for v in bps)
        arms_before, walks_before = len(arm_calls), len(walk_calls)
        seq = transforms.reduce_to_caterpillar(t, policy)
        arms_walked = len(arm_calls) - arms_before
        assert len(walk_calls) - walks_before == len(bps)
        assert walked < arms_walked <= walked + len(seq.steps)
        per_vertex.append(arms_walked / t.vertex_count)
    assert per_vertex[1] < 1.25 * per_vertex[0]


def rescan_steps(t, policy):
    """Each step with the tree it gives, by a rescan of every candidate
    with `find_branch_reductions` after every switch."""
    out = []
    while candidates := find_branch_reductions(t):
        step = min(candidates, key=_fork_key) if policy == "minimal" else candidates[0]
        t = apply_switch(t, step.move)
        out.append((step, t))
    return out


@pytest.mark.parametrize("policy", ["minimal", "any"])
def test_reduction_matches_a_rescan(sweep_trees, policy):
    semiregular = [t for t in sweep_trees if semiregular_degree(t) is not None]
    randoms = [random_semiregular(3 + s % 3, 4 + s, s) for s in range(57)]
    assert len(semiregular) == 64
    for t in semiregular + randoms:
        seq = transforms.reduce_to_caterpillar(t, policy)
        assert seq.trees[0] == t
        assert list(zip(seq.steps, seq.trees[1:])) == rescan_steps(t, policy)


def test_minimal_reduction_is_the_least_candidate(sweep_trees):
    """Mixed classes included: a single step does not need a semiregular
    tree."""
    for t in sweep_trees:
        if candidates := find_branch_reductions(t):
            assert minimal_branch_reduction(t) == min(candidates, key=_fork_key)


def test_arms_walk_each_arm_once(monkeypatch, sweep_trees):
    calls = counting(monkeypatch, trees, "_arm")
    for t in sweep_trees:
        if bps := branching_points(t):
            before = len(calls)
            arms(t)
            assert len(calls) - before == sum(nonpendant_degree(t, v) for v in bps)


def test_reductions_take_buds_from_the_walks(monkeypatch, sweep_trees):
    arm_calls = counting(monkeypatch, trees, "_arm")
    bud_calls = counting(monkeypatch, trees, "branch_bud")
    # count a call through a name bound in transforms as well
    monkeypatch.setattr(transforms, "branch_bud", trees.branch_bud, raising=False)
    for t in sweep_trees:
        before = len(arm_calls)
        find_branch_reductions(t)
        walked = sum(nonpendant_degree(t, v) for v in branching_points(t))
        assert len(arm_calls) - before == walked
    assert bud_calls == []


# ---------------------------------------------------------------------------
# package namespace


def test_package_names_come_from_each_module_all():
    modules = [trees, spectral, transforms, enumeration]
    # `cli` is bound too once anything imports treeindex.cli, as this file does
    names = {name for name in vars(treeindex) if not name.startswith("_")} - {"cli"}
    assert names == {name for mod in modules for name in mod.__all__} | {
        mod.__name__.rpartition(".")[2] for mod in modules
    }
    for mod in modules:
        for name in mod.__all__:
            assert getattr(treeindex, name) is getattr(mod, name)
