"""Command-line behavior: output formats, determinism, exit codes."""

import json
import math

import pytest

from treeindex.cli import main
from treeindex.trees import make_caterpillar, tree_from_edges, tree_from_json, tree_to_json

SPIDER_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCaterpillarCommand:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "caterpillar", "--d", "3", "--n", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 8 and len(obj["edges"]) == 7

    def test_invalid_class_exits_2_with_message(self, capsys):
        code, _, err = run(capsys, "caterpillar", "--d", "3", "--n", "7")
        assert code == 2
        assert "mod" in err

    def test_4_14_trunk(self, capsys):
        code, out, _ = run(capsys, "caterpillar", "--d", "4", "--n", "14", "--format", "table")
        assert code == 0
        assert "trunk 4" in out

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "caterpillar", "--d", "3", "--n", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph T {")


class TestMuCommand:
    def test_p4_golden_ratio(self, tmp_path, capsys):
        path = tmp_path / "p4.json"
        path.write_text(tree_to_json(tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])))
        code, out, _ = run(capsys, "mu", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["mu"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-10)
        assert len(obj["perron"]) == 4

    def test_reference_tree_sqrt6(self, tmp_path, capsys):
        from treeindex.enumeration import tied_minimizer_examples

        path = tmp_path / "ref.json"
        path.write_text(tree_to_json(tied_minimizer_examples()[0]))
        code, out, _ = run(capsys, "mu", str(path))
        assert code == 0
        assert json.loads(out)["mu"] == pytest.approx(math.sqrt(6), abs=1e-10)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("")
        code, _, err = run(capsys, "mu", str(path))
        assert code == 2 and "error" in err

    def test_round_trip_with_caterpillar(self, tmp_path, capsys):
        out_file = tmp_path / "cat.json"
        code, _, _ = run(capsys, "caterpillar", "--d", "3", "--n", "10", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert tree_from_json(text) == make_caterpillar(3, 10)
        code, _, _ = run(capsys, "mu", str(out_file))
        assert code == 0
        # byte-stable emission
        code, out2, _ = run(capsys, "caterpillar", "--d", "3", "--n", "10")
        assert out2.strip() == text.strip()


class TestVerifyMinCommand:
    def test_verified_class(self, capsys):
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "16")
        assert code == 0
        assert "VERIFIED" in out
        assert out.count("\n") >= 7  # one row per tree plus header/verdict

    def test_one_scan_of_the_class(self, capsys, monkeypatch):
        from treeindex import cli, enumeration, spectral
        from treeindex.trees import DegreeSequence

        calls = {"enumerate_trees": 0, "spectral_radius": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in (("enumerate_trees", enumeration.enumerate_trees),
                         ("spectral_radius", spectral.spectral_radius)):
            for mod in (cli, enumeration, spectral):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "16")
        assert code == 0 and "VERIFIED" in out
        assert calls["enumerate_trees"] == 1
        # the sole minimizer, plus every tree within tie_tol of the screened
        # runner-up
        monkeypatch.undo()
        mus = sorted(enumeration.class_spectra(DegreeSequence.semiregular(3, 16))[1])
        band = sum(1 for mu in mus[1:] if mu <= mus[1] + 1e-9)
        assert calls["spectral_radius"] <= 1 + band

    def test_single_tree_class(self, capsys):
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "8")
        assert code == 0
        assert "VERIFIED" in out

    def test_empty_class_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-min", "--d", "3", "--n", "7")
        assert code == 2 and "mod" in err


class TestSearchCommand:
    def test_small_class_table(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "3,2,2,1,1,1", "--format", "table")
        assert code == 0
        assert "trees examined  : 2" in out

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "3^4,1^6", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "canonical_code,mu,is_caterpillar,buds_max_degree,trunk_monotone"

    def test_json_deterministic(self, capsys):
        code, out1, _ = run(capsys, "search", "--pi", "3^4,1^6")
        code2, out2, _ = run(capsys, "search", "--pi", "3^4,1^6")
        assert code == code2 == 0 and out1 == out2

    def test_k2_class(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "1,1")
        assert code == 0
        assert json.loads(out)["tree_count"] == 1

    def test_unrealizable_pi_exits_2(self, capsys):
        code, _, err = run(capsys, "search", "--pi", "3,3,1")
        assert code == 2 and "not realizable" in err

    def test_compact_and_expanded_forms_agree(self, capsys):
        _, out1, _ = run(capsys, "search", "--pi", "3^4,1^6")
        _, out2, _ = run(capsys, "search", "--pi", "3,3,3,3,1,1,1,1,1,1")
        assert out1 == out2


class TestGoldenOutput:
    """Exact stdout bytes; the reported floats must not move by an ulp."""

    def test_search_json_unique_minimizer(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "4^3,3^3,2,1^11", "--format", "json")
        assert code == 0
        assert out == (
            '{"all_caterpillars":true,"gap_to_runner_up":0.0040346544390774675,'
            '"min_mu":2.397502007330666,"minimizer_count":1,"minimizers":[{"buds_max_degree":true,'
            '"canonical_code":"((((()()())()()))(((()()())())())())","edges":[[0,1],[0,2],[0,7],'
            "[0,8],[1,9],[1,10],[1,11],[2,3],[3,4],[3,12],[4,5],[4,13],[5,6],[5,14],[6,15],"
            '[6,16],[6,17]],"is_caterpillar":true,"trunk_monotone":false}],"pi":"4^3,3^3,2,1^11",'
            '"tree_count":419,"unique":true}\n'
        )

    def test_search_csv_integer_index(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "3^2,2^2,1^4", "--format", "csv")
        assert code == 0
        assert out == (
            "canonical_code,mu,is_caterpillar,buds_max_degree,trunk_monotone\n"
            "(((()()))(()())),2,True,True,True\n"
        )

    def test_verify_min_table(self, capsys):
        code, out, _ = run(capsys, "verify-min", "--d", "4", "--n", "14")
        assert code == 0
        assert out == (
            "          mu  caterpillar  canonical_code\n"
            "    2.532089  True         (((()()())()())(()()())()())\n"
            "    2.557612  False        ((()()())(()()())(()()())())\n"
            "VERIFIED: unique minimizer is the caterpillar\n"
        )


class TestReduceCommand:
    def test_spider_single_step_with_rayleigh_data(self, tmp_path, capsys):
        path = tmp_path / "spider.json"
        path.write_text(tree_to_json(tree_from_edges(10, SPIDER_EDGES)))
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0
        steps = json.loads(out)
        assert len(steps) == 1
        step = steps[0]
        assert step["kind"] == "branch_reduction"
        assert set(step["move"]) == {"u1", "v1", "u2", "v2"}
        assert step["rq_after"] >= step["rq_before"] - 1e-12

    def test_any_policy(self, tmp_path, capsys):
        path = tmp_path / "spider.json"
        path.write_text(tree_to_json(tree_from_edges(10, SPIDER_EDGES)))
        code, out, _ = run(capsys, "reduce", str(path), "--policy", "any")
        assert code == 0 and len(json.loads(out)) == 1

    def test_any_policy_prints_no_rayleigh_data(self, tmp_path, capsys):
        # "any" reduces this tree by another sequence than the minimal one
        # the certified replay follows, so it has no Rayleigh data to show
        path = tmp_path / "t.json"
        path.write_text(
            '{"n":16,"edges":[[0,1],[0,2],[0,3],[1,7],[1,8],[2,9],[2,10],[3,4],[3,11],'
            "[4,5],[4,6],[5,12],[5,13],[6,14],[6,15]]}"
        )
        moves = {}
        for policy in ("minimal", "any"):
            code, out, _ = run(capsys, "reduce", str(path), "--policy", policy)
            assert code == 0
            steps = json.loads(out)
            moves[policy] = [(s["move"]["u1"], s["move"]["v1"], s["fork_size"]) for s in steps]
            rq = [(s["rq_before"], s["rq_after"]) for s in steps]
            assert all(x is not None for pair in rq for x in pair) == (policy == "minimal")
            assert all(x is None for pair in rq for x in pair) == (policy == "any")
        assert moves == {"minimal": [(7, 1, 3), (12, 5, 3)], "any": [(7, 1, 3), (9, 2, 6)]}
        code, out, _ = run(capsys, "reduce", str(path), "--policy", "any", "--format", "table")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(" " * 28) for row in rows)
        assert "(9,2)<->(4,5)" in rows[1]

    def test_caterpillar_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(tree_to_json(make_caterpillar(3, 10)))
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0 and json.loads(out) == []

    def test_non_semiregular_exits_2(self, tmp_path, capsys):
        from treeindex.enumeration import tied_minimizer_examples

        path = tmp_path / "fork.json"
        path.write_text(tree_to_json(tied_minimizer_examples()[0]))
        code, _, err = run(capsys, "reduce", str(path))
        assert code == 2 and "semiregular" in err


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["caterpillar", "--bogus"]) == 2

    def test_seed_flag_is_gone(self, capsys):
        assert main(["--seed", "1", "caterpillar", "--d", "3", "--n", "8"]) == 2

    def test_jobs_flag_still_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-min", "--d", "4", "--n", "14", "--jobs", "2")
        assert code == 0 and out.endswith("VERIFIED: unique minimizer is the caterpillar\n")


class TestStrictTreeJson:
    """JSON booleans are ints to isinstance; tree files must not pass them off as ids."""

    @pytest.mark.parametrize("command", ["mu", "reduce"])
    @pytest.mark.parametrize(
        "text",
        ['{"n": true, "edges": []}', '{"n": 2, "edges": [[false, true]]}'],
        ids=["bool-n", "bool-endpoints"],
    )
    def test_boolean_json_integers_exit_2(self, tmp_path, capsys, command, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "" and "error" in err


class TestNumericOptions:
    """Out-of-range numbers are usage errors that name the option."""

    @pytest.mark.parametrize(
        "flags, name",
        [(["--tol", "nan"], "tol"), (["--tol", "0"], "tol"), (["--tol", "-1e-12"], "tol"),
         (["--max-iter", "0"], "max_iter"), (["--max-iter", "-5"], "max_iter")],
    )
    def test_mu(self, tmp_path, capsys, flags, name):
        path = tmp_path / "p4.json"
        path.write_text(tree_to_json(tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])))
        code, out, err = run(capsys, "mu", str(path), *flags)
        assert code == 2 and out == "" and name in err

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [["search", "--pi", "3^2,2^2,1^4"], ["verify-min", "--d", "3", "--n", "10"]],
        ids=["search", "verify-min"],
    )
    def test_tie_tol(self, capsys, argv, value):
        code, out, err = run(capsys, *argv, "--tie-tol", value)
        assert code == 2 and out == "" and "tie_tol" in err

    def test_zero_tie_tol_is_allowed(self, capsys):
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "10", "--tie-tol", "0")
        assert code == 0 and "VERIFIED" in out


class TestTreeJsonEdgeCount:
    @pytest.mark.parametrize("command", ["mu", "reduce"])
    @pytest.mark.parametrize(
        "text",
        ['{"n": 1000000000000, "edges": []}', '{"n": 3, "edges": [[0, 1]]}',
         '{"n": 2, "edges": [[0, 1], [0, 1]]}'],
        ids=["huge-n", "too-few", "too-many"],
    )
    def test_wrong_edge_count_exits_2(self, tmp_path, capsys, command, text):
        # the count is checked before n neighbor lists are allocated
        path = tmp_path / "count.json"
        path.write_text(text)
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == "" and "edges" in err
