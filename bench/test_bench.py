"""Tests of the benchmark itself: every workload runs end to end on tiny
inputs, and every check rejects a corrupted answer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import pace  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

COUNTS = reference.load_counts()
END_TO_END = {"wall_s", "items_per_s", "setup_s", "peak_rss_mb"}


def run_bench(tmp_path, *extra, cwd=None, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--seed", "5", "--seconds", "0",
           "--out", str(tmp_path), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_runs_and_passes_checks(tmp_path, workload, trace):
    done = run_bench(tmp_path, "--workload", workload, "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    ops = len(workloads.build(workload, 5, tiny=True))
    passes = 2 if trace else 1
    assert result["attempted"] == passes * ops
    # the canonical operations on the 1200-vertex path overflow the stack
    expected_failed = 2 if workload == "single-tree" else 0
    assert result["failed"] == passes * expected_failed
    want = set(tracing.PER_LAYER) if trace else END_TO_END
    assert set(result["metrics"]) == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "enumerate", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_pace_takes_the_probe_time_off_and_scales_by_it():
    def slow_probe():
        pace.python_probe()
        pace.python_probe()

    with pace.Pace(slow_probe, reference_s=1e-4, interval_s=0.002) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pace.python_probe()
        wall = time.perf_counter() - t0
    assert len(sampler.samples) >= 10
    assert 0 < sampler.handler_s < wall
    assert sampler.measured(wall) == wall - sampler.handler_s
    mean_probe = sum(sampler.samples) / len(sampler.samples)
    assert sampler.scaled(wall) == pytest.approx(sampler.measured(wall) * 1e-4 / mean_probe)
    assert sampler.clock() <= time.perf_counter() - sampler.handler_s


def test_reference_counts_match_brute_force():
    for d, n in [(3, 8), (3, 12), (3, 14), (4, 11), (4, 14), (5, 14)]:
        key = reference.class_key(reference.semiregular_degrees(d, n))
        brute = reference.brute_force_counts(n, {key})[key]
        assert reference.count_semiregular(d, n) == brute
    for key, count in COUNTS.items():
        degrees = reference.parse_degrees(key)
        d = reference.is_semiregular_class(degrees)
        if d is not None:
            assert reference.count_semiregular(d, len(degrees)) == count


def _results(workload, kind):
    ops = [op for op in workloads.build(workload, 7, tiny=True) if op.kind == kind]
    assert ops, kind
    return [(op, op.call()) for op in ops]


def _rejects(op, result):
    with pytest.raises(CheckError):
        checks.check(op, result, COUNTS)


def test_search_check_rejects_perturbed_min_mu_and_dropped_minimizer():
    for op, report in _results("class-search", "search"):
        checks.check(op, report, COUNTS)
        _rejects(op, dataclasses.replace(report, min_mu=report.min_mu + 1e-6))
        extra = report.minimizers + report.minimizers[:1]
        _rejects(op, dataclasses.replace(report, minimizers=extra))


def test_verify_check_rejects_dropped_row_and_failed_verdict():
    op, (rc, text) = _results("class-search", "verify-min")[-1]
    checks.check(op, (rc, text), COUNTS)
    lines = text.rstrip("\n").split("\n")
    _rejects(op, (rc, "\n".join(lines[:1] + lines[2:]) + "\n"))
    _rejects(op, (1, text.replace("VERIFIED", "FAILED")))


def test_enumerate_check_rejects_dropped_and_duplicated_tree():
    op, trees = max(_results("enumerate", "enumerate"), key=lambda r: len(r[1]))
    checks.check(op, trees, COUNTS)
    _rejects(op, trees[:-1])
    twin = workloads.relabel(trees[0], random.Random(1))
    _rejects(op, trees[:-1] + [twin])


def test_spectral_check_rejects_perturbed_index():
    for op, res in _results("single-tree", "spectral"):
        checks.check(op, res, COUNTS)
        _rejects(op, dataclasses.replace(res, mu=res.mu + 1e-7))


def test_witness_check_rejects_perturbed_valuation():
    op, w = _results("single-tree", "witness")[0]
    checks.check(op, w, COUNTS)
    _rejects(op, dataclasses.replace(w, rq=w.rq + 1e-6))
    _rejects(op, dataclasses.replace(w, valuation=np.ones_like(w.valuation)))


def test_reduce_check_rejects_truncated_sequence():
    op, seq = _results("single-tree", "reduce")[0]
    checks.check(op, seq, COUNTS)
    _rejects(op, dataclasses.replace(seq, steps=seq.steps[:-1], trees=seq.trees[:-1]))


def test_spiral_check_rejects_wrong_trace():
    op, res = _results("single-tree", "spiral")[0]
    checks.check(op, res, COUNTS)
    _rejects(op, dataclasses.replace(res, rq_trace=res.rq_trace[:-1] + (res.rq_trace[-1] + 1e-3,)))


def test_queries_check_rejects_wrong_branching_points():
    op, (bps, bud_list, cat, trunk) = _results("single-tree", "queries")[0]
    checks.check(op, (bps, bud_list, cat, trunk), COUNTS)
    _rejects(op, (bps + (0,), bud_list, cat, trunk))


def test_canonical_check_rejects_code_of_another_tree():
    op, (ca, cb) = _first_ok("canonical")
    checks.check(op, (ca, cb), COUNTS)
    _rejects(op, (ca, dataclasses.replace(cb, code="(" + cb.code[1:-3] + "))")))
    _rejects(op, (dataclasses.replace(ca, code="(()())"), dataclasses.replace(cb, code="(()())")))


def test_isomorphism_check_rejects_wrong_map():
    op, mapping = _first_ok("isomorphism")
    checks.check(op, mapping, COUNTS)
    wrong = dict(mapping)
    leaf = next(v for v in range(len(wrong)) if op.args["a"].degree(v) == 1)
    inner = next(v for v in range(len(wrong)) if op.args["a"].degree(v) > 1)
    wrong[leaf], wrong[inner] = wrong[inner], wrong[leaf]
    _rejects(op, wrong)


def _first_ok(kind):
    for op in workloads.build("single-tree", 7, tiny=True):
        if op.kind == kind and op.args["a"].vertex_count < 1000:
            return op, op.call()
    raise AssertionError(kind)
