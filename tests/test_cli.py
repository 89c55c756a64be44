"""Command-line behavior: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeindex
from test_spectral import oracle_indices
from treeindex import cli, enumeration
from treeindex.cli import main
from treeindex.trees import is_caterpillar, make_caterpillar, tree_from_edges, tree_from_json, tree_to_json

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

    def test_n_past_any_index_exits_2(self, capsys):
        n = str(10**30 + 2)
        code, out, err = run(capsys, "caterpillar", "--d", "3", "--n", n)
        assert code == 2 and out == "" and f"--n {n} is too large" in err

    def test_n_past_memory_exits_2_under_an_address_space_limit(self):
        resource = pytest.importorskip("resource")
        n = str(10**18 + 2)

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))

        src = str(Path(treeindex.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "treeindex.cli", "caterpillar", "--d", "3", "--n", n],
            capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: --n {n} is too large")

    def test_n_past_memory_is_refused_before_building(self, capsys, monkeypatch):
        def refuse(d, n):
            raise AssertionError("built a caterpillar past the memory of the machine")

        monkeypatch.setattr(cli, "_memory_bytes", lambda: 10**6)
        monkeypatch.setattr(cli, "make_caterpillar", refuse)
        code, out, err = run(capsys, "caterpillar", "--d", "3", "--n", "100002")
        assert code == 2 and out == "" and "error: --n 100002 is too large" in err

    def test_out_of_memory_while_building_exits_2(self, capsys, monkeypatch):
        def exhausted(d, n):
            raise MemoryError

        monkeypatch.setattr(cli, "make_caterpillar", exhausted)
        code, out, err = run(capsys, "caterpillar", "--d", "3", "--n", "8")
        assert code == 2 and out == "" and "error: --n 8 is too large" in err


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

        calls = {"_listing": 0, "enumerate_trees": 0, "spectral_radius": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in (("_listing", enumeration._listing),
                         ("enumerate_trees", enumeration.enumerate_trees),
                         ("spectral_radius", spectral.spectral_radius)):
            for mod in (cli, enumeration, spectral):
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, counted(name, fn))
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "16")
        assert code == 0 and "VERIFIED" in out
        # one listing gives the trees and their printed codes
        assert calls["_listing"] == 1 and calls["enumerate_trees"] == 0
        # the sole minimizer, plus every tree within the screen band of the
        # screened runner-up
        monkeypatch.undo()
        mus = sorted(oracle_indices(list(enumeration.enumerate_trees(DegreeSequence.semiregular(3, 16)))))
        band = sum(1 for mu in mus[1:] if mu <= mus[1] + enumeration._SCREEN_BAND)
        assert calls["spectral_radius"] <= 1 + band

    @pytest.mark.parametrize("d, n", [(3, 16), (4, 14), (5, 22)])
    def test_no_index_solve_when_the_screen_leaves_one_candidate(self, capsys, monkeypatch, d, n):
        # the verdict rests on the screened values and the minimizer's code
        def refuse(*args, **kwargs):
            raise AssertionError("verify-min solved for an index it does not print")

        monkeypatch.setattr(enumeration, "spectral_radius", refuse)
        code, out, _ = run(capsys, "verify-min", "--d", str(d), "--n", str(n))
        assert code == 0 and out.endswith("VERIFIED: unique minimizer is the caterpillar\n")

    @pytest.mark.parametrize("pick", ["non-caterpillar", "two trees"])
    def test_failed_verdict_exits_1(self, capsys, monkeypatch, pick):
        def choice(trees, mus):
            cats = [i for i, t in enumerate(trees) if is_caterpillar(t)]
            others = [i for i, t in enumerate(trees) if not is_caterpillar(t)]
            return others[:1] if pick == "non-caterpillar" else [cats[0], others[0]]

        monkeypatch.setattr(cli, "extremal_choice", choice)
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", "16")
        assert code == 1
        assert out.endswith("FAILED: caterpillar is not the unique minimizer\n")

    @pytest.mark.parametrize("n", [24, 26])
    def test_rows_sort_by_printed_value_then_code(self, capsys, n):
        # cospectral trees print equal values: one pair in (3, 24), two in
        # (3, 26), one of them at sqrt(6); equal values list in code order
        code, out, _ = run(capsys, "verify-min", "--d", "3", "--n", str(n), "--max-n", str(n))
        assert code == 0
        rows = [(float(mu), text) for mu, _, text in (line.split() for line in out.splitlines()[1:-1])]
        assert rows == sorted(rows)
        assert len({mu for mu, _ in rows}) < len(rows)

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

    def test_pi_token_read_by_int_alone_exits_2(self, capsys):
        # int() reads "1_0" as 10: this once searched the 37 trees of 3^10,1^12
        code, out, err = run(capsys, "search", "--pi", "3^1_0,1^12")
        assert code == 2 and out == "" and "bad degree token '3^1_0'" in err

    def test_long_path_class_lists_its_one_caterpillar(self, capsys):
        # the one tree of this class is a 1002-vertex path, whose skeleton
        # levels (paths of 1000, 998, ... vertices) are built smallest first
        # and so stay within the interpreter's recursion limit
        code, out, err = run(capsys, "search", "--pi", "2^1000,1^2", "--max-n", "1002")
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["tree_count"] == report["minimizer_count"] == 1
        assert report["all_caterpillars"] and len(report["minimizers"]) == 1

    def test_input_too_deep_to_read_exits_2(self, tmp_path, capsys):
        # a tree JSON whose edges nest 100,000 lists deep is past the
        # interpreter's recursion limit: one line of error, no traceback
        path = tmp_path / "deep.json"
        path.write_text('{"n": 2, "edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "mu", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: input nests too deep") and err.count("\n") == 1 and "Traceback" not in err

    def test_compact_and_expanded_forms_agree(self, capsys):
        _, out1, _ = run(capsys, "search", "--pi", "3^4,1^6")
        _, out2, _ = run(capsys, "search", "--pi", "3,3,3,3,1,1,1,1,1,1")
        assert out1 == out2

    @pytest.mark.parametrize("pi", ["3^4,1^6", "4^4,3^2,2,1^12", "5,4^2,3,2^5,1^10", "3^4,2^5,1^6"])
    def test_screen_band_only_chooses_what_is_solved(self, capsys, monkeypatch, pi):
        # a wider band solves more trees; a screened candidate that loses
        # the exact tie is still the runner-up, and a lone survivor reports
        # its own index
        narrow = run(capsys, "search", "--pi", pi)
        monkeypatch.setattr(enumeration, "_SCREEN_BAND", 0.05)
        wide = run(capsys, "search", "--pi", pi)
        assert narrow[0] == 0 and narrow[1]
        assert wide == narrow

    def test_retired_tie_tol_flag_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "search", "--pi", "3^4,1^6", "--tie-tol", "0.05")
        assert code == 2 and out == "" and "--tie-tol" in err


class TestGoldenOutput:
    """Exact stdout bytes; the reported floats must not move by an ulp."""

    def test_search_json_unique_minimizer(self, capsys):
        # min_mu is the minimizer's index correctly rounded, checked in
        # exact arithmetic by test_pinned
        code, out, _ = run(capsys, "search", "--pi", "4^3,3^3,2,1^11", "--format", "json")
        assert code == 0
        assert out == (
            '{"all_caterpillars":true,"gap_to_runner_up":0.0040346544390779115,'
            '"min_mu":2.3975020073306657,"minimizer_count":1,"minimizers":[{"buds_max_degree":true,'
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
        # the empty Rayleigh columns are left off, not padded with blanks
        assert len(rows) == 2 and all(row == row.rstrip() for row in rows)
        assert rows[1] == "   1  branch_reduction    4  (9,2)<->(4,5)              6"

    def test_minimal_table_keeps_its_rayleigh_columns(self, tmp_path, capsys):
        # the bytes of the default table before the blank columns were dropped
        path = tmp_path / "t.json"
        path.write_text(
            '{"n":16,"edges":[[0,1],[0,2],[0,3],[1,7],[1,8],[2,9],[2,10],[3,4],[3,11],'
            "[4,5],[4,6],[5,12],[5,13],[6,14],[6,15]]}"
        )
        code, out, _ = run(capsys, "reduce", str(path), "--format", "table")
        assert code == 0
        assert out == (
            "step  kind               v*  move                    fork     rq_before      rq_after\n"
            "   0  branch_reduction    0  (7,1)<->(0,2)              3      2.327867      2.335404\n"
            "   1  branch_reduction    4  (12,5)<->(4,6)             3      2.320330      2.327867\n"
        )

    def test_caterpillar_empty_trace(self, tmp_path, capsys):
        path = tmp_path / "cat.json"
        path.write_text(tree_to_json(make_caterpillar(3, 10)))
        code, out, _ = run(capsys, "reduce", str(path))
        assert code == 0 and json.loads(out) == []
        code, out, _ = run(capsys, "reduce", str(path), "--format", "table")
        assert code == 0
        assert out.splitlines()[1:] == ["(already a caterpillar; empty trace)"]

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

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

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
    """`mu` has no numeric options: the solve takes its passes along the
    tree's elimination, with no tolerance or sweep budget to set, so
    `--tol` and `--max-iter` are usage errors that name the option, with
    any value."""

    @pytest.mark.parametrize(
        "flags, name",
        [(["--tol", "nan"], "tol"), (["--tol", "0"], "tol"), (["--tol", "-1e-12"], "tol"),
         (["--max-iter", "0"], "max_iter"), (["--max-iter", "-5"], "max_iter"),
         (["--tol", "inf"], "tol")],
    )
    def test_mu(self, tmp_path, capsys, flags, name):
        path = tmp_path / "p4.json"
        path.write_text(tree_to_json(tree_from_edges(4, [(0, 1), (1, 2), (2, 3)])))
        code, out, err = run(capsys, "mu", str(path), *flags)
        assert code == 2 and out == "" and "unrecognized arguments: --" + name.replace("_", "-") in err


class TestClosedStdout:
    def test_search_into_a_closed_pipe_ends_quietly(self):
        src = str(Path(treeindex.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes
        try:
            done = subprocess.run(
                [sys.executable, "-m", "treeindex.cli", "search", "--pi", "5,4^2,3,2^5,1^10"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src},
            )
        finally:
            os.close(write_end)
        assert done.returncode == cli.EXIT_USAGE
        assert done.stderr == ""  # no traceback, and no message either


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


class TestSizeGuardBeforeBuild:
    """The vertex count is held against --max-n before anything of that
    size is built; these sizes do not even fit an index."""

    @pytest.mark.parametrize(
        "argv, bound",
        [(["verify-min", "--d", "3", "--n", str(10**30 + 2)], "n=%d > 22" % (10**30 + 2)),
         (["search", "--pi", "3^100000000000000000000,1^2"], "n=%d > 22" % (10**20 + 2)),
         (["search", "--pi", "1^2,2^9223372036854775808", "--max-n", "30"],
          "n=%d > 30" % (2**63 + 2))],
        ids=["verify-min", "search", "search-max-n"],
    )
    def test_huge_class_exits_2(self, capsys, argv, bound):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"class has {bound}" in err


class TestUnwritableOut:
    """An --out path that cannot be written is an input error, not a failed
    verification."""

    @pytest.mark.parametrize(
        "argv",
        [["caterpillar", "--d", "3", "--n", "8"], ["verify-min", "--d", "3", "--n", "8"]],
        ids=["caterpillar", "verify-min"],
    )
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, argv, target):
        out_path = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert list(tmp_path.iterdir()) == []


class TestOutMatchesStdout:
    """--out writes exactly the bytes the command prints to stdout."""

    @pytest.mark.parametrize(
        "argv",
        [["caterpillar", "--d", "3", "--n", "8", "--format", fmt] for fmt in ("json", "dot", "table")]
        + [["mu", "{tree}", "--format", fmt] for fmt in ("json", "table")]
        + [["verify-min", "--d", "3", "--n", "10"]]
        + [["search", "--pi", "3^4,1^6", "--format", fmt] for fmt in ("json", "csv", "table", "dot")]
        + [["reduce", "{tree}", "--format", fmt] for fmt in ("json", "table")],
        ids=lambda argv: "-".join([argv[0], argv[-1] if "--format" in argv else "text"]),
    )
    def test_out_file_equals_stdout(self, tmp_path, capsys, argv):
        tree = tmp_path / "spider.json"
        tree.write_text(tree_to_json(tree_from_edges(10, SPIDER_EDGES)))
        argv = [str(tree) if a == "{tree}" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n")
        target = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()
