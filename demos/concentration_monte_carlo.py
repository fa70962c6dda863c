#!/usr/bin/env python3
"""Walkthrough: the probabilistic guarantees, measured.

Monte-Carlo estimates of the per-edge survival probability, independence of
survival across components, and the concentration of per-row loads compared
with the bounded-differences tail bound.
"""

import math

import numpy as np

import equisquares as eq
from equisquares import bipartite, halving
from equisquares.rng import stream

print("=" * 70)
print("1. Survival probability is exactly 2^-levels for undeleted edges")
print("=" * 70)
n, m = 8, 2
square, blocks = eq.block_structured_square(n, m, seed=0)
graph = halving.build_block_multigraph(square, blocks)
matchings = bipartite.decompose_regular(graph, n // m)
trials = 4000
kept = sum(
    0 in eq.iterated_halving(graph, matchings, 2 * n, stream(i, "demo-survival"))[0]
    for i in range(trials)
)
se = math.sqrt(0.25 * 0.75 / trials)
print(f"k=4 matchings -> 2 halving levels; target 1/4")
print(f"edge 0 survival over {trials} seeds: {kept / trials:.4f} (3 SE = {3 * se:.4f})")

print()
print("=" * 70)
print("2. Row-load concentration at n=1024")
print("=" * 70)
n, m, s = 1024, 256, 32
alls = []
worst_bound = 0.0
for trial in range(5):
    square, blocks = eq.block_structured_square(n, m, seed=trial)
    _, trace, loads = eq.block_transversal(square, blocks, s, stream(trial, "demo-conc"))
    dev = np.abs(loads.astype(float) - n / 4)
    alls.append(dev)
    sumsq = halving.realized_effect_squares(trace, blocks, n)
    worst_bound = max(worst_bound, float(
        np.minimum(1.0, 2.0 * np.exp(-((n / 8) ** 2) / sumsq)).max()
    ))
dev = np.concatenate(alls)
print(f"cap s={s}; 5 runs, {dev.size} row loads, target n/4 = {n // 4}")
print(f"|load - n/4|: mean {dev.mean():.1f}, p99 {np.percentile(dev, 99):.1f}, max {dev.max():.0f}")
print(f"rows within n/8 = {n // 8}: {(dev <= n / 8).mean():.4%}")
print(f"worst per-row bounded-differences tail bound at t = n/8: {worst_bound:.3g}")
print("(the tail bound uses the realized per-coin effects from the trace;")
print(" it is loose but finite, while the empirical spread is far tighter)")

print()
print("=" * 70)
print("3. A hand-built bound check")
print("=" * 70)
c = [1.0] * 100
for t in (10, 30, 50):
    print(f"sum c_i^2 = 100, t = {t}: bound {eq.mcdiarmid_bound(c, t):.3g}")
