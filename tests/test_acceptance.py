"""Acceptance suite: every top-level guarantee of the package, each at its
stated tolerance, printed as one pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.
"""

import math
import random
import time

import numpy as np

from treeindex.enumeration import (
    TIED_MINIMIZER_CLASS,
    enumerate_semiregular,
    enumerate_trees,
    find_minimizers,
    tied_minimizer_examples,
)
from treeindex.spectral import (
    caterpillar_symmetry_check,
    caterpillar_trunk_residual,
    is_unimodal,
    pendant_minima_check,
    spectral_radius,
    symmetrize_caterpillar,
)
from treeindex.transforms import (
    SwitchMove,
    caterpillar_bound_witness,
    reduce_to_caterpillar,
    replay_inverse,
    spiral_rearrangement,
    switch_certificate,
)
from treeindex.trees import (
    DegreeSequence,
    branching_points,
    canonical_form,
    is_caterpillar,
    make_caterpillar,
    make_path,
    make_star,
    proper_branches,
    trunk_path,
)

from test_enumeration import FREE_TREE_COUNTS, all_tree_degree_sequences


def report(number, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_tied_minimizer_class_reproduction():
    started = time.time()
    result = find_minimizers(TIED_MINIMIZER_CLASS)
    elapsed = time.time() - started
    ok = abs(result.min_mu**2 - 6.0) <= 1e-9
    reference_codes = {canonical_form(t) for t in tied_minimizer_examples()}
    ok = ok and reference_codes <= set(result.minimizer_codes)
    ok = ok and any(not o.is_caterpillar for o in result.observations)
    ok = ok and all(o.buds_have_max_branch_degree for o in result.observations)
    ok = ok and any(not o.trunk_degrees_monotone for o in result.observations)
    ok = ok and elapsed < 120.0
    report(
        1,
        ok,
        f"degree sequence {TIED_MINIMIZER_CLASS.compact()}: "
        f"{result.tree_count} trees, {len(result.minimizers)} tied minimizers, "
        f"min_mu^2-6 = {result.min_mu**2 - 6:.2e}, "
        f"non-caterpillar present, {elapsed:.1f}s",
    )


def test_criterion_2_unique_caterpillar_minimizer_desk_scale():
    started = time.time()
    ok = True
    classes = 0
    for d in (3, 4, 5):
        for n in range(4, 21):
            if (n - 2) % (d - 1) != 0:
                continue
            classes += 1
            result = find_minimizers(DegreeSequence.semiregular(d, n))
            good = result.unique and result.minimizer_codes[0] == canonical_form(
                make_caterpillar(d, n)
            )
            if result.gap_to_runner_up is not None:
                good = good and result.gap_to_runner_up > 1e-9
            if not good:
                ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 300.0
    report(
        2,
        ok,
        f"caterpillar uniquely minimizes all {classes} semiregular classes "
        f"(d in 3..5, n <= 20) with gap > 1e-9, {elapsed:.1f}s",
    )


def test_criterion_3_closed_form_spectra():
    worst_path = max(
        abs(spectral_radius(make_path(n)).mu - 2 * math.cos(math.pi / (n + 1)))
        for n in range(1, 51)
    )
    worst_star = max(
        abs(spectral_radius(make_star(m)).mu - math.sqrt(m)) for m in range(1, 51)
    )
    ok = worst_path <= 1e-10 and worst_star <= 1e-10
    report(
        3,
        ok,
        f"paths/stars up to 50 vertices: worst errors {worst_path:.2e} / {worst_star:.2e}",
    )


def _decreasing_valuation(t, v_hat, rng):
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


def _valid_moves(t, f):
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
            if v2 != v1 and f[v1] >= f[v2]:
                out.append(SwitchMove(u1_pendant=u1, v1=v1, u2=u2, v2=v2))
    return out


def test_criterion_4_switch_certificate_property_suite():
    rng = random.Random(20260808)
    class_pool = []
    for d in (3, 4, 5):
        for k in range(2, (20 - 2) // (d - 1) + 1):
            class_pool.extend(enumerate_semiregular(d, k * (d - 1) + 2))
    perron_seeds = {}
    tested = 0
    ties = 0
    strict = 0
    worst_gap = 0.0
    ok = True
    while tested < 10_000:
        t = class_pool[rng.randrange(len(class_pool))]
        if tested % 5 == 0 and is_caterpillar(t):
            # Perron seeds include exact mirror ties, exercising the
            # equality branch of the strictness rule
            if t not in perron_seeds:
                perron_seeds[t] = symmetrize_caterpillar(t, spectral_radius(t).perron)
            f = perron_seeds[t]
        else:
            f = _decreasing_valuation(t, rng.randrange(t.vertex_count), rng)
        moves = _valid_moves(t, f)
        if not moves:
            continue
        cert = switch_certificate(t, f, moves[rng.randrange(len(moves))])
        if cert.delta < -1e-12:
            ok = False
        if cert.strict != (cert.delta > 1e-12):
            ok = False
        worst_gap = max(worst_gap, abs(cert.delta - cert.predicted_delta))
        strict += cert.strict
        ties += not cert.strict
        tested += 1
    ok = ok and worst_gap <= 1e-12 and ties > 0 and strict > 0
    report(
        4,
        ok,
        f"{tested} random switches: delta >= -1e-12, strictness iff rule "
        f"({strict} strict, {ties} tight), closed-form mismatch <= {worst_gap:.2e}",
    )


def test_criterion_5_reduction_replay_and_witness():
    ok = True
    trees_checked = 0
    for d, n in ((3, 16), (4, 14)):
        cat_code = canonical_form(make_caterpillar(d, n))
        for t in enumerate_semiregular(d, n):
            if is_caterpillar(t):
                continue
            trees_checked += 1
            seq = reduce_to_caterpillar(t, policy="minimal")
            if canonical_form(seq.trees[-1]) != cat_code:
                ok = False
            if replay_inverse(seq)[-1] != t:
                ok = False
            witness = caterpillar_bound_witness(t)
            if not (witness.rq >= witness.mu_cat - 1e-9):
                ok = False
            if not (witness.mu_tree >= witness.rq - 1e-9):
                ok = False
            if any(b < a - 1e-12 for a, b in zip(witness.rq_trace, witness.rq_trace[1:])):
                ok = False
    report(
        5,
        ok,
        f"all {trees_checked} non-caterpillars in the (3,16) and (4,14) classes "
        "reduce, replay exactly, and certify mu >= rq >= mu_caterpillar",
    )


def test_criterion_6_caterpillar_perron_suite():
    ok = True
    checked = 0
    worst_recurrence = 0.0
    for d in range(3, 30):
        k = 1
        while (n := k * (d - 1) + 2) <= 30:
            checked += 1
            t = make_caterpillar(d, n)
            result = spectral_radius(t)
            f = result.perron
            trunk = trunk_path(t)
            if not np.all(f > 0) or abs(float(f @ f) - 1.0) > 1e-12:
                ok = False
            if not caterpillar_symmetry_check(t, result):
                ok = False
            v_hat = int(np.argmax(f))
            center = (
                {trunk[len(trunk) // 2]}
                if len(trunk) % 2 == 1
                else {trunk[len(trunk) // 2 - 1], trunk[len(trunk) // 2]}
            )
            if v_hat not in center:
                ok = False
            if not is_unimodal(t, f, v_hat, tol=1e-12):
                ok = False
            if n >= 3 and not pendant_minima_check(t, result):
                ok = False
            worst_recurrence = max(worst_recurrence, caterpillar_trunk_residual(t, result))
            k += 1
    ok = ok and worst_recurrence <= 1e-9
    report(
        6,
        ok,
        f"{checked} caterpillars (n <= 30): positive symmetric unimodal Perron "
        f"vectors, pendant minima, trunk recurrence residual <= {worst_recurrence:.2e}",
    )


def _admissible_triples(k):
    out = []
    for l1 in range(2, (k + 1) // 2 + 1):
        for l2 in range(2, l1 + 1):
            l3 = k + 2 - l1 - l2
            if 2 <= l3 <= l2:
                out.append((l1, l2, l3))
    return out


def test_criterion_7_spiral_suite():
    ok = True
    runs = 0
    for d in (3, 4):
        for k in range(4, 13):
            n = k * (d - 1) + 2
            mu_cat = spectral_radius(make_caterpillar(d, n)).mu
            for triple in _admissible_triples(k):
                runs += 1
                sp = spiral_rearrangement(d, n, triple)
                if any(b < a - 1e-12 for a, b in zip(sp.rq_trace, sp.rq_trace[1:])):
                    ok = False
                if not sp.rq_trace[-1] >= mu_cat - 1e-9:
                    ok = False
                bps = branching_points(sp.tree)
                if len(bps) != 1:
                    ok = False
                lengths = sorted(
                    (b.length for b in proper_branches(sp.tree, bps[0])), reverse=True
                )
                if tuple(lengths) != triple:
                    ok = False
    report(
        7,
        ok,
        f"{runs} spiral runs (d in 3..4, trunk <= 12): monotone Rayleigh traces "
        "ending above the caterpillar index, exact branch lengths",
    )


def test_criterion_8_generator_soundness():
    ok = True
    counts = []
    for n in range(1, 11):
        seen = set()
        total = 0
        for pi in all_tree_degree_sequences(n):
            for t in enumerate_trees(pi):
                code = canonical_form(t)
                if code in seen:
                    ok = False
                seen.add(code)
                total += 1
        counts.append(total)
    ok = ok and counts == FREE_TREE_COUNTS
    report(
        8,
        ok,
        f"summed enumeration reproduces free-tree counts {counts}, no duplicates",
    )
