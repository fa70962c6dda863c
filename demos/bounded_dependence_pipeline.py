#!/usr/bin/env python3
"""Walkthrough: from a block-structured square to a transversal via
bounded-dependence random matching.

Shows every stage: the column-symbol block multigraph, its decomposition
into perfect matchings, the capped halving rounds with their coin flips and
deletions, the completion of the halving output to a perfect matching of
blocks, and the final row-column matching.  Ends with a sweep of the
component cap s, which trades dependence against deleted edges.
"""

import numpy as np

import equisquares as eq
from equisquares import bipartite, halving

n, m = 16, 4
k = n // m
square, blocks = eq.block_structured_square(n, m, seed=3)
print(f"block-structured square: n={n}, block size m={m}, k=n/m={k} blocks per column")

graph = halving.build_block_multigraph(square, blocks)
left_deg, right_deg = graph.degrees()
print(f"block multigraph: {graph.left.size} edges, "
      f"column degrees all {left_deg[0]}, symbol degrees all {right_deg[0]}")

matchings = bipartite.decompose_regular(graph, k)
print(f"decomposed into {len(matchings)} perfect matchings of size {len(matchings[0])}")

print()
print("=" * 70)
print("halving rounds (cap s = 6)")
print("=" * 70)
rng = np.random.default_rng(12)
final, trace = eq.iterated_halving(graph, matchings, 6, rng)
for h, level in enumerate(trace.levels, start=1):
    for i, pair in enumerate(level):
        comps = pair.cap.decomposition.components
        print(f"level {h}, pair {i}: |A|={len(pair.matching_a)} |B|={len(pair.matching_b)} "
              f"-> {len(comps)} components (max len {max(len(c) for c in comps)}), "
              f"{len(pair.cap.deleted)} deleted, flips {list(pair.flips)}, "
              f"kept {len(pair.output)}")
print(f"final matching: {len(final)} of {n} columns selected")

t, trace, loads = eq.block_transversal(square, blocks, 6, np.random.default_rng(12))
print(f"completed to a perfect matching of {len(trace.completed_labels)} blocks; "
      f"transversal size {t.size}")
print(f"per-row loads of the halving output: {loads.loads.tolist()}")
print(f"(loads concentrate near n/4 = {n // 4}; every surviving edge kept w.p. 1/4)")

print()
print("=" * 70)
print(f"cap sweep at n=1024 (k=4): deletions, halving output, completion, transversal")
print("=" * 70)
n = 1024
square, blocks = eq.block_structured_square(n, n // 4, seed=0)
print(f"{'s':>6} {'deleted@1':>10} {'deleted@2':>10} {'|M|':>8} {'|C|':>8} "
      f"{'size':>8} {'size/n':>8}")
for s in (4, 8, 16, 32, 64, 256):
    t, trace, _ = eq.block_transversal(square, blocks, s, np.random.default_rng(1))
    d1 = sum(len(p.cap.deleted) for p in trace.levels[0])
    d2 = sum(len(p.cap.deleted) for p in trace.levels[1])
    print(f"{s:>6} {d1:>10} {d2:>10} {len(trace.final):>8} {len(trace.completed_labels):>8} "
          f"{t.size:>8} {t.size / n:>8.3f}")
print()
print("small caps bound the dependence tightly but delete ~1/(s+1) of the")
print("edges per level, which limits the halving output M near (s/(s+1))^2 * n.")
print("the completion C augments M to a perfect matching of blocks, so the")
print("cap limits the halving output, not the transversal.")
