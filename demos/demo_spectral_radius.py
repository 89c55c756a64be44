#!/usr/bin/env python3
"""Index (spectral radius) computation against classical closed forms, and
the Perron-vector structure of caterpillars."""

import math

import numpy as np

from treeindex import (
    caterpillar_symmetry_check,
    caterpillar_trunk_residual,
    is_unimodal,
    make_caterpillar,
    make_path,
    make_star,
    pendant_minima_check,
    perron_bound_check,
    rayleigh_quotient,
    spectral_radius,
    trunk_path,
)

print("=== closed forms ===")
for n in (4, 10, 25):
    mu = spectral_radius(make_path(n)).mu
    print(f"mu(P_{n})    = {mu:.12f}   2cos(pi/{n + 1}) = {2 * math.cos(math.pi / (n + 1)):.12f}")
for m in (4, 16, 36):
    mu = spectral_radius(make_star(m)).mu
    print(f"mu(K_1,{m:<2}) = {mu:.12f}   sqrt({m}) = {math.sqrt(m):.12f}")

print()
print("=== Perron vector of a caterpillar ===")
t = make_caterpillar(3, 14)
result = spectral_radius(t)
trunk = trunk_path(t)
print(f"mu(C(3,14)) = {result.mu:.12f}  residual {result.residual:.2e} "
      f"in {result.iterations} passes along the tree")
print("trunk values:", " ".join(f"{result.perron[v]:.6f}" for v in trunk))
print("mirror symmetric:", caterpillar_symmetry_check(t, result))
print("unimodal from the argmax:",
      is_unimodal(t, result.perron, int(np.argmax(result.perron)), tol=1e-12))
print("pendants are strict local minima:", pendant_minima_check(t, result))
print("trunk recurrence residual:", f"{caterpillar_trunk_residual(t, result):.2e}")

print()
print("=== the positive-test-vector bound ===")
uniform = np.ones(t.vertex_count) / math.sqrt(t.vertex_count)
check = perron_bound_check(t, uniform, result)
print(f"2 sum f(u)f(v) for uniform f = {check.edge_sum:.6f} <= mu = {result.mu:.6f}"
      f"  (equality: {check.equality})")
perron = result.perron / math.sqrt(float(result.perron @ result.perron))
check = perron_bound_check(t, perron, result)
print(f"for the Perron vector itself the bound is tight: equality = {check.equality}")

print()
print("=== Rayleigh quotients never exceed the index ===")
rng = np.random.default_rng(7)
worst = max(
    rayleigh_quotient(t, rng.uniform(0.05, 1.0, t.vertex_count)) for _ in range(1000)
)
print(f"best of 1000 random positive quotients: {worst:.6f} < mu = {result.mu:.6f}")
