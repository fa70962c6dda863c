"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines stream;
the heavy item is criterion 6 (a thousand pipeline runs).  Criterion 1,
the exact search at n=18, takes about a second.
"""

import itertools
import math
import statistics

import numpy as np

import equisquares as eq
from equisquares import bipartite, halving
from equisquares.rng import stream
from tests.test_bipartite import random_k_regular
from tests.test_hypergraph import planted_split_instance


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)


def test_criterion_01_counterexample_bound_exact():
    sq8, p8 = eq.counterexample_square(8)
    t8, optimal8 = eq.exact_max(sq8)
    ok8 = optimal8 and t8.size <= 7

    sq18, p18 = eq.counterexample_square(18)
    t18, optimal18 = eq.exact_max(sq18, node_budget=10**8)
    cert_bound = p18.transversal_bound()
    if optimal18:
        ok18 = t18.size <= 16
        detail18 = f"n=18 proved optimum {t18.size} <= 16"
    else:
        ok18 = t18.size <= 16 and cert_bound <= 16
        detail18 = (f"n=18 search incomplete; incumbent {t18.size} and "
                    f"certificate bound {cert_bound} confirm <= 16")
    ok = ok8 and ok18
    _report(1, "counterexample-bound", ok,
            f"n=8 optimal={optimal8} size={t8.size} <= 7; {detail18}")
    assert ok


def test_criterion_02_certificate_zero_violations():
    violations = 0
    total = 0
    for n in (8, 18, 50, 200):
        square, pairing = eq.counterexample_square(n)
        rng = stream(n, "acceptance-certificate")
        for trial in range(100):
            t = eq.random_greedy(square, rng)
            if trial % 2 == 1:
                t = eq.local_search(square, t, rng, 10 * n)
            total += 1
            try:
                report = eq.missing_colour_certificate(square, pairing, t)
            except Exception:
                violations += 1
                continue
            if not report.passed:
                violations += 1
    ok = violations == 0
    _report(2, "missing-colour-certificate", ok,
            f"{total} transversals across n=8,18,50,200; {violations} violations")
    assert ok


def test_criterion_03_oracle_equivalence():
    mismatches = 0
    for n in (4, 5, 6):
        for trial in range(200):
            sq = eq.random_equi_square(n, seed=1000 * n + trial)
            bsize, _ = eq.brute_force_max(sq)
            t, optimal = eq.exact_max(sq)
            if not optimal or t.size != bsize:
                mismatches += 1
    ok = mismatches == 0
    _report(3, "oracle-equivalence", ok,
            f"600 random squares (n=4,5,6); {mismatches} mismatches")
    assert ok


def test_criterion_04_regular_decomposition():
    rng = np.random.default_rng(404)
    failures = 0
    checked = 0
    for trial in range(50):
        k = (2, 4, 8)[trial % 3]
        g = random_k_regular(200, k, rng)
        parts = eq.decompose_regular(g, k)
        checked += 1
        seen = set()
        okay = len(parts) == k
        for m in parts:
            okay &= len(m) == 200 and bipartite.is_matching(g, m) and not (seen & m)
            seen |= m
        okay &= seen == set(range(g.left.size))
        if not okay:
            failures += 1
    ok = failures == 0
    _report(4, "regular-decomposition", ok,
            f"{checked} random k-regular multigraphs (k=2,4,8, 200+200); {failures} failures")
    assert ok


def test_criterion_05_halving_survival_probability():
    n, m = 8, 2
    square, blocks = eq.block_structured_square(n, m, seed=0)
    graph = halving.build_block_multigraph(square, blocks)
    matchings = eq.decompose_regular(graph, n // m)
    trials = 10_000
    s = 2 * n  # cap above any component length: no deletions, edge 0 never deleted
    kept = 0
    for seed in range(trials):
        final, _ = eq.iterated_halving(graph, matchings, s, stream(seed, "acceptance-survival"))
        kept += 0 in final
    freq = kept / trials
    ok = abs(freq - 0.25) <= 0.013
    _report(5, "halving-survival", ok,
            f"edge 0 survival over {trials} seeds: {freq:.4f} (target 0.25 +- 0.013)")
    assert ok


def test_criterion_06_bounded_dependence_validity():
    runs = {8: 334, 64: 333, 1024: 333}
    failures = 0
    total = 0
    for n, count in runs.items():
        m = n // 4
        caps = (4, math.isqrt(n) + 1, 2 * n)
        for trial in range(count):
            seed = 60_000 + trial
            square, blocks = eq.block_structured_square(n, m, seed=seed)
            s = caps[trial % 3]
            total += 1
            try:
                t, _, _ = eq.block_transversal(
                    square, blocks, s, stream(seed, f"acceptance-validity-{n}")
                )
                eq.validate_transversal(square, t.cells)
            except Exception:
                failures += 1
    ok = failures == 0
    _report(6, "bounded-dependence-validity", ok,
            f"{total} runs across n=8,64,1024 (k=4, mixed caps); {failures} invalid")
    assert ok


def test_criterion_07_row_load_concentration():
    n, m, seeds = 1024, 256, 20
    s = math.isqrt(n)  # desk-scale cap; the asymptotic formula collapses here
    within = 0
    rows_total = 0
    p99s = []
    mcd = []
    for trial in range(seeds):
        square, blocks = eq.block_structured_square(n, m, seed=700 + trial)
        _, trace, loads = eq.block_transversal(
            square, blocks, s, stream(700 + trial, "acceptance-concentration")
        )
        dev = np.abs(loads.astype(float) - n / 4)
        within += int((dev <= n / 8).sum())
        rows_total += n
        p99s.append(float(np.percentile(dev, 99)))
        sumsq = halving.realized_effect_squares(trace, blocks, n)
        mcd.append(float(np.minimum(1.0, 2.0 * np.exp(-((n / 8) ** 2) / sumsq)).max()))
    frac = within / rows_total
    ok = frac >= 0.99
    _report(7, "row-load-concentration", ok,
            f"s={s}: {frac:.4%} of rows within n/8 of n/4; "
            f"empirical p99 |dev| max {max(p99s):.1f}; "
            f"McDiarmid worst-row bound at t=n/8: {max(mcd):.3g} (informational)")
    assert ok


def test_criterion_08_transversal_size_desk_scale():
    n, m, seeds = 1024, 256, 20
    s = halving.default_cap(n)  # max(4, floor(n^(1/3)/ln^2 n)) = 4 at n=1024
    sizes = []
    for trial in range(seeds):
        square, blocks = eq.block_structured_square(n, m, seed=800 + trial)
        t, _, _ = eq.block_transversal(
            square, blocks, s, stream(800 + trial, "acceptance-size")
        )
        sizes.append(t.size)
    median = statistics.median(sizes)
    ok = median >= 0.90 * n
    _report(8, "transversal-size", ok,
            f"s={s}: median {median}/{n} = {median / n:.3f} vs gate 0.90")
    assert ok


def test_criterion_09_greedy_baseline():
    sizes = []
    for seed in range(50):
        sq = eq.random_equi_square(100, seed=seed)
        sizes.append(eq.random_greedy(sq, stream(seed, "acceptance-greedy")).size)
    mean = sum(sizes) / len(sizes)
    ok = mean >= 60
    _report(9, "greedy-baseline", ok,
            f"mean greedy size on random n=100 over 50 seeds: {mean:.2f} >= 60")
    assert ok


def test_criterion_10_obstruction_matching():
    results = {}
    for t in (1, 2):
        h = eq.alon_kim(t)
        matching, optimal = eq.max_matching_exact(h)
        results[t] = (len(matching), optimal)
    ok = all(results[t] == (2 * t, True) for t in (1, 2))
    _report(10, "obstruction-matching", ok,
            f"max matchings: t=1 -> {results[1][0]} (optimal={results[1][1]}), "
            f"t=2 -> {results[2][0]} (optimal={results[2][1]}); expected 2t")
    assert ok


def test_criterion_11_vertex_splitting():
    rng = np.random.default_rng(1111)
    failures = 0
    for trial in range(50):
        threshold = 2 + trial % 2
        h = planted_split_instance(rng, n_pairs=1 + trial % 3, threshold=threshold)
        h2, pullback = eq.split_high_codegree(h, threshold)
        okay = h2.max_degree() <= h.max_degree()
        for x, y in itertools.combinations(h2.vertices(), 2):
            if x[0] != y[0] and eq.codegree(h2, x, y) > threshold:
                okay = False
        colouring = eq.greedy_edge_colouring(h2)
        back = pullback(colouring)
        from equisquares.hypergraph import is_proper

        okay &= is_proper(h2, colouring)
        okay &= is_proper(h, back)
        okay &= back.num_colours == colouring.num_colours
        if not okay:
            failures += 1
    ok = failures == 0
    _report(11, "vertex-splitting", ok,
            f"50 planted high-codegree instances; {failures} failures")
    assert ok
