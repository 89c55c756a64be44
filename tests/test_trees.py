"""Structure, families, branches, and canonical forms."""

import random
import re

import pytest

from treeindex.trees import (
    DegreeSequence,
    Tree,
    TreeError,
    arms,
    branch,
    branch_bud,
    branching_points,
    buds,
    canonical_form,
    canonical_order,
    is_caterpillar,
    is_semiregular,
    isomorphism_map,
    make_caterpillar,
    make_path,
    make_star,
    nonpendant_degree,
    proper_branches,
    semiregular_degree,
    tree_from_edges,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    trunk_path,
)

K1 = tree_from_edges(1, [])
K2 = tree_from_edges(2, [(0, 1)])
SPIDER_10 = tree_from_edges(
    10, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]
)
# 19-vertex tree with degree sequence (4^4,3^2,2,1^12): two branching points,
# each carrying two bud branches of four pendants' worth
FORK_19 = tree_from_edges(
    19,
    [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6),
     (3, 7), (3, 8), (3, 9), (4, 10), (4, 11), (4, 12),
     (5, 13), (5, 14), (5, 15), (6, 16), (6, 17), (6, 18)],
)


def leaf_counts_along_trunk(t):
    return [sum(1 for u in t.neighbors(v) if t.degree(u) == 1) for v in trunk_path(t)]


class TestTreeValidation:
    def test_rejects_cycle(self):
        with pytest.raises(TreeError):
            tree_from_edges(3, [(0, 1), (1, 2), (2, 0)])

    def test_rejects_disconnected(self):
        with pytest.raises(TreeError):
            tree_from_edges(4, [(0, 1), (2, 3), (0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(TreeError):
            Tree(((0,),))

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(TreeError):
            Tree(((1,), (), (1,)))

    def test_rejects_edge_out_of_range(self):
        with pytest.raises(TreeError, match=r"^edge \(0,3\) out of range for n=3$"):
            tree_from_edges(3, [(0, 3), (1, 2)])

    def test_edge_count_and_degree_sum(self):
        for t in (K1, K2, make_path(7), make_star(5), make_caterpillar(3, 12)):
            n = t.vertex_count
            assert len(t.edges()) == n - 1
            assert sum(t.degrees()) == 2 * (n - 1)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            K2.adjacency = ((1,), (0,))


class TestCaterpillarFamily:
    def test_3_8_trunk_and_leaf_counts(self):
        t = make_caterpillar(3, 8)
        assert len(trunk_path(t)) == 3
        assert leaf_counts_along_trunk(t) == [2, 1, 2]
        assert is_semiregular(t, 3)
        assert is_caterpillar(t)

    def test_4_14_trunk_and_leaf_counts(self):
        t = make_caterpillar(4, 14)
        assert len(trunk_path(t)) == 4
        assert leaf_counts_along_trunk(t) == [3, 2, 2, 3]

    def test_empty_class_rejected(self):
        with pytest.raises(TreeError):
            make_caterpillar(3, 7)

    def test_k0_and_k1(self):
        assert make_caterpillar(3, 2) == K2
        star = make_caterpillar(4, 5)
        assert sorted(star.degrees(), reverse=True) == [4, 1, 1, 1, 1]

    def test_deterministic(self):
        assert make_caterpillar(3, 14) == make_caterpillar(3, 14)

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: make_path(0), "path needs at least one vertex"),
         (lambda: make_star(-1), "leaf count must be non-negative")],
        ids=["path-0", "star-minus-1"],
    )
    def test_empty_path_and_star_rejected(self, build, message):
        with pytest.raises(TreeError, match=f"^{message}$"):
            build()


class TestSemiregularAndCaterpillarPredicates:
    def test_constructed_caterpillar_is_semiregular(self):
        assert is_semiregular(make_caterpillar(3, 8), 3)

    def test_path_is_not_3_semiregular(self):
        assert not is_semiregular(make_path(4), 3)

    def test_star_is_semiregular(self):
        assert is_semiregular(make_star(4), 4)

    def test_semiregular_degree(self):
        assert semiregular_degree(make_caterpillar(5, 14)) == 5
        assert semiregular_degree(FORK_19) is None
        assert semiregular_degree(K2) is None

    def test_caterpillar_predicate(self):
        assert is_caterpillar(make_caterpillar(4, 14))
        assert not is_caterpillar(FORK_19)
        assert is_caterpillar(make_star(6))
        assert is_caterpillar(K1)
        assert is_caterpillar(K2)


class TestPendantStructure:
    def test_nonpendant_degree_on_caterpillar(self):
        t = make_caterpillar(3, 8)
        trunk = trunk_path(t)
        assert nonpendant_degree(t, trunk[0]) == 1  # a bud
        assert nonpendant_degree(t, trunk[1]) == 2

    def test_nonpendant_degree_at_branching(self):
        assert nonpendant_degree(FORK_19, 0) == 3

    @pytest.mark.parametrize("v", [99, 10, -1])
    def test_nonpendant_degree_rejects_out_of_range_vertex(self, v):
        # -1 would otherwise read vertex 9's row by wrap-around indexing
        with pytest.raises(TreeError, match=f"vertex {v} out of range for n=10"):
            nonpendant_degree(make_caterpillar(3, 10), v)

    def test_caterpillar_has_no_branching_points(self):
        t = make_caterpillar(3, 12)
        assert branching_points(t) == ()
        trunk = trunk_path(t)
        assert set(buds(t)) == {trunk[0], trunk[-1]}

    def test_fork_19_buds_and_branching(self):
        assert branching_points(FORK_19) == (0, 2)
        assert buds(FORK_19) == (3, 4, 5, 6)

    def test_k2_has_neither(self):
        assert buds(K2) == ()
        assert branching_points(K2) == ()


class TestBranches:
    def test_branch_length_on_c310(self):
        t = make_caterpillar(3, 10)
        trunk = trunk_path(t)
        b = branch(t, trunk[1], trunk[2])
        assert b.length == 3
        assert trunk[1] in b.vertices and trunk[3] in b.vertices

    def test_branch_length_additivity(self):
        t = make_caterpillar(3, 10)
        k = len(trunk_path(t))
        trunk = trunk_path(t)
        fwd = branch(t, trunk[1], trunk[2])
        bwd = branch(t, trunk[2], trunk[1])
        assert fwd.length + bwd.length == k + 2

    def test_branch_requires_adjacency(self):
        t = make_caterpillar(3, 10)
        trunk = trunk_path(t)
        with pytest.raises(TreeError):
            branch(t, trunk[0], trunk[2])

    def test_branch_endpoints_must_be_non_pendant(self):
        t = make_caterpillar(3, 10)  # 4 is a pendant at the trunk end 0
        for v, u in ((0, 4), (4, 0)):
            with pytest.raises(TreeError, match="^both branch endpoints must be non-pendant$"):
                branch(t, v, u)

    def test_proper_branches_of_fork(self):
        pbs = proper_branches(FORK_19, 0)
        assert len(pbs) == 2
        assert sorted(b.length for b in pbs) == [2, 2]

    def test_proper_branches_of_spider(self):
        pbs = proper_branches(SPIDER_10, 0)
        assert len(pbs) == 3
        assert all(b.length == 2 for b in pbs)
        assert sorted(branch_bud(SPIDER_10, b) for b in pbs) == [1, 2, 3]

    def test_bud_of_a_branch_that_is_not_proper(self):
        # the branch from vertex 1 through the branching point 0 holds the
        # buds 3 and 4
        with pytest.raises(TreeError, match="^branch does not contain exactly one bud$"):
            branch_bud(FORK_19, branch(FORK_19, 1, 0))

    def test_proper_branches_need_branching_point(self):
        with pytest.raises(TreeError):
            proper_branches(make_caterpillar(3, 10), 0)

    def test_bud_has_single_nonpendant_neighbor(self):
        for v in buds(FORK_19):
            pendant_nbrs = sum(1 for u in FORK_19.neighbors(v) if FORK_19.degree(u) == 1)
            assert pendant_nbrs == FORK_19.degree(v) - 1


class TestArms:
    def test_caterpillar_arms_split_at_center(self):
        t = make_caterpillar(3, 12)  # trunk of 5
        left, right = arms(t)
        trunk = trunk_path(t)
        assert left[0] == right[0] == trunk[2]
        assert left[-1] == trunk[0] and right[-1] == trunk[-1]

    def test_branching_arms(self):
        assert len(arms(FORK_19)) == 4
        for arm in arms(FORK_19):
            assert len(arm) == 2

    def test_degenerate_arms(self):
        assert arms(make_star(5)) == []
        assert arms(K2) == []


class TestDegreeSequence:
    def test_parse_compact_and_expanded(self):
        a = DegreeSequence.parse("4^4,3^2,2,1^12")
        b = DegreeSequence.parse("4,4,4,4,3,3,2,1,1,1,1,1,1,1,1,1,1,1,1")
        assert a == b
        assert a.compact() == "4^4,3^2,2,1^12"

    def test_realizability(self):
        assert DegreeSequence.parse("1,1").is_tree_realizable()
        assert not DegreeSequence.parse("3,3,1").is_tree_realizable()
        assert DegreeSequence((0,)).is_tree_realizable()

    def test_semiregular_class_sequence(self):
        pi = DegreeSequence.semiregular(3, 8)
        assert pi.degrees == (3, 3, 3, 1, 1, 1, 1, 1)
        with pytest.raises(TreeError):
            DegreeSequence.semiregular(3, 7)

    def test_of_tree(self):
        assert DegreeSequence.of_tree(FORK_19).compact() == "4^4,3^2,2,1^12"

    def test_rejects_increasing(self):
        with pytest.raises(TreeError):
            DegreeSequence((1, 2))

    @pytest.mark.parametrize("degrees", [(3.0, 1, 1, 1), (True, True), (2, "1", 1), (1.5, 0.5)])
    def test_rejects_degrees_that_are_not_integers(self, degrees):
        # a float degree once read as realizable and failed in enumeration
        # with a bare TypeError; two bools built K2 and compacted to "True^2"
        with pytest.raises(TreeError, match="degrees must be integers"):
            DegreeSequence(degrees)

    @pytest.mark.parametrize(
        "text, degrees",
        [("3,1^3", (3, 1, 1, 1)), ("1,3,1,1", (3, 1, 1, 1)), ("2^3,1^2", (2, 2, 2, 1, 1)),
         ("1,1", (1, 1)), ("0", (0,)), (" 4 ^2, 1^6 ", (4, 4, 1, 1, 1, 1, 1, 1))],
    )
    def test_parse_still_accepts_integer_tokens(self, text, degrees):
        pi = DegreeSequence.parse(text)
        assert pi.degrees == degrees
        assert all(type(x) is int for x in pi.degrees)

    @pytest.mark.parametrize(
        "text, message",
        [("3^1_0,1^12", "bad degree token '3^1_0'"),
         ("\u0663,1^3", "bad degree token '\u0663'"),
         ("+3,1^3", "bad degree token '+3'"),
         ("3^+2,1^4", "bad degree token '3^+2'"),
         ("-1", "bad degree token '-1'"),
         ("x,1", "bad degree token 'x'"),
         ("3,,1", "empty token in degree sequence"),
         ("3^0,1^3", "bad multiplicity in '3^0'")],
        ids=["underscore", "arabic-indic-digit", "plus", "plus-multiplicity", "minus", "letter",
             "empty", "zero-multiplicity"],
    )
    def test_parse_refuses_bad_tokens(self, text, message):
        # int() alone once read "3^1_0" as 3^10 and the Arabic-Indic digit
        # three as 3
        with pytest.raises(TreeError, match=f"^{re.escape(message)}$"):
            DegreeSequence.parse(text)

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: DegreeSequence(()), "degree sequence must be non-empty"),
         (lambda: DegreeSequence((2, 0)), "degrees must be positive"),
         (lambda: DegreeSequence.semiregular(2, 6), "degree must be at least 3, got 2")],
        ids=["empty", "zero-degree", "semiregular-2"],
    )
    def test_rejects_sequences_with_no_tree(self, build, message):
        with pytest.raises(TreeError, match=f"^{message}$"):
            build()


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for base in (make_caterpillar(3, 8), SPIDER_10, FORK_19, make_path(9)):
            code = canonical_form(base)
            n = base.vertex_count
            for _ in range(25):
                perm = list(range(n))
                rng.shuffle(perm)
                relabeled = tree_from_edges(n, [(perm[u], perm[v]) for u, v in base.edges()])
                assert canonical_form(relabeled) == code

    def test_distinguishes_caterpillar_from_spider(self):
        assert canonical_form(make_caterpillar(3, 10)) != canonical_form(SPIDER_10)

    def test_k1_minimal_code(self):
        k1_code = canonical_form(K1)
        assert k1_code.code == "()"
        for other in (K2, make_path(5), SPIDER_10):
            assert k1_code < canonical_form(other)

    def test_different_degree_multisets_differ(self):
        rng = random.Random(11)
        trees = [make_path(8), make_star(7), make_caterpillar(3, 8), SPIDER_10,
                 make_caterpillar(3, 10), FORK_19]
        for i in range(len(trees)):
            for j in range(i + 1, len(trees)):
                if sorted(trees[i].degrees()) != sorted(trees[j].degrees()):
                    assert canonical_form(trees[i]) != canonical_form(trees[j])

    def test_isomorphism_map_is_an_isomorphism(self):
        rng = random.Random(3)
        n = FORK_19.vertex_count
        perm = list(range(n))
        rng.shuffle(perm)
        other = tree_from_edges(n, [(perm[u], perm[v]) for u, v in FORK_19.edges()])
        phi = isomorphism_map(FORK_19, other)
        assert phi is not None
        mapped = {tuple(sorted((phi[u], phi[v]))) for u, v in FORK_19.edges()}
        assert mapped == set(other.edges())

    def test_isomorphism_map_none_for_different_trees(self):
        assert isomorphism_map(make_caterpillar(3, 10), SPIDER_10) is None

    def test_canonical_order_covers_all_vertices(self):
        order = canonical_order(FORK_19)
        assert sorted(order) == list(range(19))


class TestSerialization:
    def test_json_round_trip(self):
        for t in (K1, K2, make_caterpillar(3, 8), FORK_19):
            assert tree_from_json(tree_to_json(t)) == t

    def test_json_byte_deterministic(self):
        t = make_caterpillar(4, 14)
        assert tree_to_json(t) == tree_to_json(make_caterpillar(4, 14))

    def test_json_format_shape(self):
        assert tree_to_json(K2) == '{"n":2,"edges":[[0,1]]}'

    def test_json_rejects_garbage(self):
        with pytest.raises(TreeError):
            tree_from_json("")
        with pytest.raises(TreeError):
            tree_from_json('{"n":2}')
        with pytest.raises(TreeError):
            tree_from_json('{"n":3,"edges":[[0,1]]}')

    @pytest.mark.parametrize(
        "text",
        ['{"n":true,"edges":[]}', '{"n":2,"edges":[[false,true]]}', '{"n":1,"edges":5}'],
    )
    def test_json_rejects_non_integers(self, text):
        with pytest.raises(TreeError):
            tree_from_json(text)

    def test_json_edge_count_checked_before_allocation(self):
        with pytest.raises(TreeError, match="needs 999999999999"):
            tree_from_json('{"n":1000000000000,"edges":[]}')

    def test_dot_deterministic_and_complete(self):
        text = tree_to_dot(make_path(3))
        assert text == "graph T {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"

    def test_path_query(self):
        t = make_caterpillar(3, 10)
        trunk = trunk_path(t)
        p = t.path(trunk[0], trunk[3])
        assert p == trunk
