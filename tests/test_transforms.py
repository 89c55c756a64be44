"""Switches, valuation transport, branch reductions, the spiral
rearrangement, and the full certified replay."""

import dataclasses
import random

import numpy as np
import pytest

from treeindex.spectral import (
    is_unimodal,
    rayleigh_quotient,
    spectral_radius,
    symmetrize_caterpillar,
)
from treeindex.transforms import (
    ReductionError,
    SpiralError,
    SwitchError,
    SwitchMove,
    TransformError,
    apply_switch,
    caterpillar_bound_witness,
    find_branch_reductions,
    inverse_move,
    minimal_branch_reduction,
    reduce_to_caterpillar,
    replay_inverse,
    spiral_rearrangement,
    switch_certificate,
    transport_valuation,
    validate_switch,
)
from treeindex.trees import (
    branching_points,
    buds,
    canonical_form,
    is_caterpillar,
    make_caterpillar,
    make_path,
    nonpendant_degree,
    tree_from_edges,
    trunk_path,
)

SPIDER_10 = tree_from_edges(
    10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
)
FORK_19 = tree_from_edges(
    19,
    [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6),
     (3, 7), (3, 8), (3, 9), (4, 10), (4, 11), (4, 12),
     (5, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
)


def spider_move():
    # C_{3,10} has trunk 0-1-2-3 with pendant 6 at vertex 1; re-hanging the
    # trunk end 3 onto vertex 1 creates the three-armed tree
    return SwitchMove(u1_pendant=6, v1=1, u2=3, v2=2)


def decreasing_valuation(t, v_hat, rng):
    f = np.zeros(t.vertex_count)
    f[v_hat] = 1.0
    stack = [v_hat]
    seen = {v_hat}
    while stack:
        v = stack.pop()
        for u in t.neighbors(v):
            if u not in seen:
                seen.add(u)
                f[u] = f[v] * rng.uniform(0.35, 0.97)
                stack.append(u)
    return f


def valid_moves(t, f):
    out = []
    for u1 in t.vertices():
        if t.degree(u1) != 1:
            continue
        v1 = t.neighbors(u1)[0]
        for u2 in t.vertices():
            if t.degree(u2) < 2 or u2 == v1:
                continue
            path = t.path(u1, u2)
            if len(path) < 4:
                continue
            v2 = path[-2]
            if v2 == v1 or not f[v1] >= f[v2]:
                continue
            out.append(SwitchMove(u1_pendant=u1, v1=v1, u2=u2, v2=v2))
    return out


class TestApplySwitch:
    def test_creates_spider_preserving_degrees(self):
        c = make_caterpillar(3, 10)
        s = apply_switch(c, spider_move())
        assert sorted(s.degrees()) == sorted(c.degrees())
        assert canonical_form(s) == canonical_form(SPIDER_10)

    def test_involution(self):
        c = make_caterpillar(3, 10)
        m = spider_move()
        assert apply_switch(apply_switch(c, m), inverse_move(m)) == c

    def test_rejects_equal_v1_v2(self):
        with pytest.raises(SwitchError, match="^v1 and v2 must be distinct$"):
            validate_switch(make_caterpillar(3, 10), SwitchMove(6, 1, 3, 1))

    def test_rejects_non_pendant_u1(self):
        with pytest.raises(SwitchError, match="^u1=1 must be a pendant vertex$"):
            validate_switch(make_caterpillar(3, 10), SwitchMove(1, 0, 3, 2))

    def test_rejects_pendant_u2(self):
        c = make_caterpillar(3, 10)
        with pytest.raises(SwitchError, match="^u2=9 must be non-pendant$"):
            validate_switch(c, SwitchMove(6, 1, 9, 3))

    @pytest.mark.parametrize("field", ["u1_pendant", "v1", "u2", "v2"])
    @pytest.mark.parametrize("vertex", [10, 100, -1], ids=["n", "n+90", "-1"])
    def test_rejects_out_of_range_ids(self, field, vertex):
        # every id is checked before the tree is indexed by it; the other
        # three fields stay those of a valid move on n = 10 vertices
        c = make_caterpillar(3, 10)
        m = dataclasses.replace(spider_move(), **{field: vertex})
        name = field.partition("_")[0]
        with pytest.raises(SwitchError, match=f"^{name}={vertex} out of range for n=10$"):
            validate_switch(c, m)
        with pytest.raises(SwitchError, match="out of range"):
            apply_switch(c, m)
        with pytest.raises(SwitchError, match="out of range"):
            transport_valuation(c, np.ones(c.vertex_count), m)
        with pytest.raises(SwitchError, match="out of range"):
            switch_certificate(c, np.ones(c.vertex_count), m)

    def test_rejects_wrong_path(self):
        c = make_caterpillar(3, 10)
        # u2 = 2 is adjacent to v2 = 3 but lies between the pendant 6 and v2
        with pytest.raises(SwitchError, match="must run through"):
            validate_switch(c, SwitchMove(6, 1, 2, 3))

    def test_rejects_u2_away_from_v2(self):
        with pytest.raises(SwitchError, match="^u2=3 must be adjacent to v2=0$"):
            validate_switch(make_caterpillar(3, 10), SwitchMove(6, 1, 3, 0))

    def test_rejects_u1_at_another_vertex(self):
        with pytest.raises(SwitchError, match="^u1=6 must be attached to v1=2$"):
            validate_switch(make_caterpillar(3, 10), SwitchMove(6, 2, 3, 0))

    @pytest.mark.parametrize("t", [
        SPIDER_10, FORK_19, make_caterpillar(3, 14), make_caterpillar(5, 18), make_path(7),
    ], ids=["spider", "fork", "caterpillar-3", "caterpillar-5", "path"])
    def test_matches_the_edge_list_rebuild(self, t):
        # the reference swaps the two edges in the edge list and builds anew
        moves = valid_moves(t, np.ones(t.vertex_count))
        assert moves
        for m in moves:
            drop = {frozenset((m.v1, m.u1_pendant)), frozenset((m.v2, m.u2))}
            edges = [e for e in t.edges() if frozenset(e) not in drop]
            edges += [(m.v1, m.u2), (m.v2, m.u1_pendant)]
            assert apply_switch(t, m) == tree_from_edges(t.vertex_count, edges)

    def test_random_switches_preserve_treeness(self):
        rng = random.Random(99)
        for _ in range(100):
            d = rng.choice([3, 4])
            t = make_caterpillar(d, rng.choice([4, 5, 6]) * (d - 1) + 2)
            f = decreasing_valuation(t, rng.randrange(t.vertex_count), rng)
            moves = valid_moves(t, f)
            if not moves:
                continue
            m = moves[rng.randrange(len(moves))]
            t2 = apply_switch(t, m)
            assert t2.vertex_count == t.vertex_count
            assert sorted(t2.degrees()) == sorted(t.degrees())
            assert len(t2.edges()) == t2.vertex_count - 1


class TestTransport:
    def test_noop_when_pendant_value_small(self):
        t = make_path(6)
        f = np.array([0.4, 0.9, 1.0, 0.8, 0.6, 0.35])
        m = SwitchMove(u1_pendant=0, v1=1, u2=4, v2=3)
        out = transport_valuation(t, f, m)
        assert np.array_equal(out, f)

    def test_swap_when_pendant_value_large(self):
        t = make_path(6)
        f = np.array([0.85, 0.9, 1.0, 0.8, 0.6, 0.35])
        m = SwitchMove(u1_pendant=0, v1=1, u2=4, v2=3)
        out = transport_valuation(t, f, m)
        assert out[0] == 0.6 and out[4] == 0.85
        assert sorted(out) == sorted(f)

    def test_multiset_always_preserved(self):
        rng = random.Random(41)
        for _ in range(200):
            t = make_caterpillar(3, 12)
            f = decreasing_valuation(t, rng.randrange(12), rng)
            moves = valid_moves(t, f)
            if not moves:
                continue
            m = moves[rng.randrange(len(moves))]
            out = transport_valuation(t, f, m)
            assert sorted(out) == sorted(f)

    def test_unimodality_and_maximum_preserved(self):
        rng = random.Random(43)
        checked = 0
        while checked < 200:
            d = rng.choice([3, 4])
            t = make_caterpillar(d, rng.choice([4, 5, 6]) * (d - 1) + 2)
            core = [v for v in t.vertices() if t.degree(v) >= 2]
            f = decreasing_valuation(t, rng.choice(core), rng)
            moves = valid_moves(t, f)
            if not moves:
                continue
            m = moves[rng.randrange(len(moves))]
            out = transport_valuation(t, f, m)
            t2 = apply_switch(t, m)
            assert int(np.argmax(out)) == int(np.argmax(f))
            assert is_unimodal(t2, out, int(np.argmax(out)))
            checked += 1

    def test_rejects_non_unimodal_input(self):
        t = make_path(6)
        f = np.array([0.9, 0.2, 1.0, 0.8, 0.6, 0.3])
        with pytest.raises(TransformError):
            transport_valuation(t, f, SwitchMove(0, 1, 4, 3))

    def test_rejects_wrong_order(self):
        t = make_path(6)
        f = np.array([0.3, 0.6, 0.8, 1.0, 0.9, 0.4])
        # v1=1 carries less than v2=3
        with pytest.raises(TransformError):
            transport_valuation(t, f, SwitchMove(0, 1, 4, 3))


class TestSwitchCertificate:
    def test_equality_case_pendant_matches_target(self):
        t = make_path(6)
        f = np.array([0.4, 0.9, 1.0, 0.8, 0.4, 0.3])
        cert = switch_certificate(t, f, SwitchMove(0, 1, 4, 3))
        assert cert.delta == pytest.approx(0.0, abs=1e-15)
        assert not cert.strict
        assert cert.predicted_delta == pytest.approx(0.0, abs=1e-15)

    def test_spider_switch_is_the_symmetric_equality_case(self):
        # mirror symmetry of the caterpillar Perron vector forces
        # f(v1) == f(v2) for both spider-creating switches, so the
        # transported quotient cannot move
        c = make_caterpillar(3, 10)
        f = symmetrize_caterpillar(c, spectral_radius(c).perron)
        cert = switch_certificate(c, f, spider_move())
        assert float(f[1]) == float(f[2])
        assert cert.delta == pytest.approx(0.0, abs=1e-13)
        assert not cert.strict
        # the tree still moved: strictness comes from mu, not the quotient
        assert spectral_radius(cert.new_tree).mu > spectral_radius(c).mu

    def test_strict_case_toward_center(self):
        # move the far trunk end next to the center of C_{3,16}:
        # f(v1) > f(v2) and the pendant at the center is below the far bud
        c = make_caterpillar(3, 16)
        f = symmetrize_caterpillar(c, spectral_radius(c).perron)
        trunk = trunk_path(c)
        center, far_mid, far_end = trunk[3], trunk[5], trunk[6]
        pend = min(u for u in c.neighbors(center) if c.degree(u) == 1)
        m = SwitchMove(u1_pendant=pend, v1=center, u2=far_end, v2=far_mid)
        assert f[center] > f[far_mid]
        assert f[pend] < f[far_end]
        cert = switch_certificate(c, f, m)
        assert cert.strict and cert.delta > 1e-12
        assert cert.delta == pytest.approx(cert.predicted_delta, abs=1e-12)

    def test_closed_form_matches_on_random_instances(self):
        rng = random.Random(6)
        checked = 0
        while checked < 500:
            d = rng.choice([3, 4, 5])
            t = make_caterpillar(d, rng.choice([3, 4, 5]) * (d - 1) + 2)
            f = decreasing_valuation(t, rng.randrange(t.vertex_count), rng)
            moves = valid_moves(t, f)
            if not moves:
                continue
            m = moves[rng.randrange(len(moves))]
            cert = switch_certificate(t, f, m)
            assert cert.delta >= -1e-12
            assert cert.strict == (cert.delta > 1e-12)
            assert cert.delta == pytest.approx(cert.predicted_delta, abs=1e-12)
            checked += 1


class TestBranchReductions:
    def test_caterpillar_has_none(self):
        assert find_branch_reductions(make_caterpillar(3, 14)) == []
        with pytest.raises(ReductionError):
            minimal_branch_reduction(make_caterpillar(3, 14))

    def test_spider_has_three_equal_candidates(self):
        steps = find_branch_reductions(SPIDER_10)
        assert len(steps) == 3
        assert {s.fork_size for s in steps} == {3}
        assert {s.reduction_point for s in steps} == {0}

    def test_reference_tree_reductions_at_both_branching_points(self):
        steps = find_branch_reductions(FORK_19)
        assert {s.reduction_point for s in steps} == {0, 2}

    def test_step_bookkeeping(self):
        step = minimal_branch_reduction(SPIDER_10)
        before = SPIDER_10
        after = apply_switch(before, step.move)
        v_star = step.reduction_point
        bud = step.move.v1
        assert nonpendant_degree(after, v_star) == nonpendant_degree(before, v_star) - 1
        assert nonpendant_degree(after, bud) == 2
        assert len(buds(after)) == len(buds(before)) - 1
        for v in after.vertices():
            if v in (v_star, bud):
                continue
            assert nonpendant_degree(after, v) == nonpendant_degree(before, v)

    def test_fork_contents(self):
        step = minimal_branch_reduction(SPIDER_10)
        assert step.reduction_point in step.fork
        assert step.fork_size == sum(
            1 for w in step.fork if SPIDER_10.degree(w) >= 2
        )


class TestReduceToCaterpillar:
    def test_caterpillar_reduces_to_empty_sequence(self):
        seq = reduce_to_caterpillar(make_caterpillar(3, 14))
        assert seq.steps == ()
        assert len(seq.trees) == 1

    def test_spider_reduces_in_one_step(self):
        seq = reduce_to_caterpillar(SPIDER_10)
        assert len(seq.steps) == 1
        assert canonical_form(seq.trees[-1]) == canonical_form(make_caterpillar(3, 10))

    def test_path_is_already_caterpillar(self):
        assert reduce_to_caterpillar(make_path(6)).steps == ()

    def test_non_semiregular_rejected(self):
        with pytest.raises(ReductionError):
            reduce_to_caterpillar(FORK_19)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReductionError, match="^unknown policy 'bogus'$"):
            reduce_to_caterpillar(SPIDER_10, policy="bogus")

    def test_replay_reconstructs_input(self):
        seq = reduce_to_caterpillar(SPIDER_10)
        assert replay_inverse(seq)[-1] == SPIDER_10

    def test_step_count_equals_branching_surplus(self):
        from treeindex.enumeration import enumerate_semiregular

        for t in enumerate_semiregular(3, 16):
            seq = reduce_to_caterpillar(t)
            surplus = sum(
                nonpendant_degree(t, v) - 2 for v in branching_points(t)
            )
            assert len(seq.steps) == surplus
            assert replay_inverse(seq)[-1] == t

    def test_any_policy_also_terminates(self):
        from treeindex.enumeration import enumerate_semiregular

        for t in enumerate_semiregular(3, 16):
            seq = reduce_to_caterpillar(t, policy="any")
            assert is_caterpillar(seq.trees[-1])

    def test_terminates_across_largest_desk_classes(self):
        from treeindex.enumeration import enumerate_semiregular

        for d, n in ((3, 20), (4, 20), (5, 18)):
            cat_code = canonical_form(make_caterpillar(d, n))
            for t in enumerate_semiregular(d, n):
                seq = reduce_to_caterpillar(t)
                assert canonical_form(seq.trees[-1]) == cat_code
                assert replay_inverse(seq)[-1] == t


class TestSpiral:
    def test_spider_target(self):
        sp = spiral_rearrangement(3, 10, (2, 2, 2))
        assert canonical_form(sp.tree) == canonical_form(SPIDER_10)
        assert len(sp.rq_trace) >= 2
        assert all(b >= a - 1e-12 for a, b in zip(sp.rq_trace, sp.rq_trace[1:]))

    def test_final_quotient_at_least_caterpillar_index(self):
        mu_cat = spectral_radius(make_caterpillar(3, 16)).mu
        sp = spiral_rearrangement(3, 16, (4, 3, 2))
        assert sp.rq_trace[-1] >= mu_cat - 1e-9
        assert sp.rq_trace[0] == pytest.approx(mu_cat, abs=1e-10)

    def test_requested_branch_lengths_produced(self):
        from treeindex.trees import proper_branches

        for target in ((3, 3, 3), (4, 3, 2)):
            sp = spiral_rearrangement(3, 16, target)
            (v_star,) = branching_points(sp.tree)
            lengths = sorted((b.length for b in proper_branches(sp.tree, v_star)), reverse=True)
            assert tuple(lengths) == target

    def test_valuation_peaks_at_branching_point(self):
        sp = spiral_rearrangement(4, 17, (3, 2, 2))
        (v_star,) = branching_points(sp.tree)
        assert float(sp.valuation[v_star]) == float(np.max(sp.valuation))
        assert is_unimodal(sp.tree, sp.valuation, int(np.argmax(sp.valuation)))

    def test_overlong_branch_rejected(self):
        with pytest.raises(SpiralError):
            spiral_rearrangement(3, 14, (4, 2, 2))
        with pytest.raises(SpiralError):
            spiral_rearrangement(3, 16, (5, 2, 2))

    def test_bad_sum_rejected(self):
        with pytest.raises(SpiralError):
            spiral_rearrangement(3, 16, (3, 3, 2))

    def test_two_branches_rejected(self):
        with pytest.raises(SpiralError, match="^need three branch lengths, each at least 2$"):
            spiral_rearrangement(3, 20, (5, 5))


class TestWitness:
    def test_spider_witness(self):
        w = caterpillar_bound_witness(SPIDER_10)
        mu_cat = spectral_radius(make_caterpillar(3, 10)).mu
        assert w.mu_cat == pytest.approx(mu_cat, abs=1e-12)
        assert w.rq >= w.mu_cat - 1e-9
        assert w.mu_tree >= w.rq - 1e-9
        assert w.mu_tree > w.mu_cat + 1e-3
        assert w.gap_ok

    def test_caterpillar_rejected(self):
        with pytest.raises(ReductionError):
            caterpillar_bound_witness(make_caterpillar(3, 10))

    def test_non_semiregular_rejected(self):
        with pytest.raises(ReductionError):
            caterpillar_bound_witness(FORK_19)

    def test_trace_non_decreasing_and_records_consistent(self):
        from treeindex.enumeration import enumerate_semiregular

        for t in enumerate_semiregular(3, 18):
            if is_caterpillar(t):
                continue
            w = caterpillar_bound_witness(t)
            assert all(b >= a - 1e-12 for a, b in zip(w.rq_trace, w.rq_trace[1:]))
            for rec in w.step_records:
                assert rec.rq_after >= rec.rq_before - 1e-12
            assert w.rq == w.rq_trace[-1]

    def test_both_routes_appear_at_desk_scale(self):
        from treeindex.enumeration import enumerate_semiregular

        routes = set()
        for d, n in ((3, 16), (4, 14), (3, 18)):
            for t in enumerate_semiregular(d, n):
                if is_caterpillar(t):
                    continue
                routes.add(caterpillar_bound_witness(t).route)
        assert routes == {"spiral", "outside-fork"}

    def test_valuation_lives_on_input_tree(self):
        w = caterpillar_bound_witness(SPIDER_10)
        assert w.valuation.shape == (10,)
        assert w.rq == pytest.approx(
            rayleigh_quotient(SPIDER_10, w.valuation), abs=1e-12
        )
