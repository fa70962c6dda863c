import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from equisquares import bipartite, halving
from equisquares.bipartite import decompose_regular, is_matching, make_graph, union_components
from equisquares.constructions import block_structured_square
from equisquares.halving import (
    InvalidParam,
    NotPowerOfTwo,
    PairTrace,
    _complete,
    block_transversal,
    build_block_multigraph,
    default_cap,
    iterated_halving,
    mcdiarmid_bound,
    realized_effect_squares,
    row_loads,
)
from equisquares.squares import validate_transversal
from tests.test_bipartite import (
    cycle_graph,
    loop_cap_components,
    random_k_regular,
    random_matching,
    walk_union_components,
)


def test_default_cap_values():
    assert default_cap(1024) == 4  # n^(1/3)/ln^2 n = 0.21, floored, clamped
    assert default_cap(8) == 4
    assert default_cap(10**9) >= 4


def test_single_edge_coin():
    g = make_graph(1, 1, [(0, 0)])
    kept = 0
    trials = 400
    for seed in range(trials):
        out, _ = iterated_halving(g, [{0}, frozenset()], 1, np.random.default_rng(seed))
        assert out in (frozenset(), frozenset({0}))
        kept += len(out)
    assert abs(kept / trials - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_eight_cycle_full_cap_takes_whole_side():
    g, m_a, m_b = cycle_graph(8)
    seen = set()
    for seed in range(40):
        out, trace = iterated_halving(g, [m_a, m_b], 8, np.random.default_rng(seed))
        pair = trace.levels[0][0]
        assert out in (m_a, m_b)
        seen.add(out)
        assert pair.cap.deleted == frozenset()
        assert len(pair.flips) == 1
    assert seen == {m_a, m_b}  # both outcomes occur


def test_eight_cycle_cap_three():
    g, m_a, m_b = cycle_graph(8)
    for seed in range(100):
        out, trace = iterated_halving(g, [m_a, m_b], 3, np.random.default_rng(seed))
        cap = trace.levels[0][0].cap
        assert len(cap.deleted) == 2  # ceil(8/4)
        assert len(cap.decomposition.components) == 2
        assert all(len(c) <= 3 for c in cap.decomposition.components)
        assert is_matching(g, out)
        assert not out & cap.deleted


def test_alternate_halve_kept_side_is_pure():
    g, m_a, m_b = cycle_graph(12)
    for seed in range(50):
        # flip 1 keeps a component's m_b edges, flip 0 its m_a edges
        out, trace = iterated_halving(g, [m_a, m_b], 4, np.random.default_rng(seed))
        pair = trace.levels[0][0]
        for comp, flip in zip(pair.cap.decomposition.components, pair.flips):
            kept_here = [lab for lab in comp.labels if lab in out]
            side = m_b if flip else m_a
            assert kept_here == [lab for lab in comp.labels if lab in side]


def test_iterated_halving_identity_level_zero():
    g = make_graph(2, 2, [(0, 0), (1, 1)])
    m = frozenset({0, 1})
    out, trace = iterated_halving(g, [m], 4, np.random.default_rng(0))
    assert out == m
    assert trace.levels == ()
    assert trace.to_json()["initial_matchings"] == [sorted(m)]


def test_iterated_halving_requires_power_of_two():
    g = make_graph(2, 2, [(0, 0), (1, 1), (0, 1)])
    with pytest.raises(NotPowerOfTwo):
        iterated_halving(g, [frozenset({0}), frozenset({1}), frozenset({2})], 2,
                         np.random.default_rng(0))


def test_iterated_halving_rejects_an_input_that_is_not_a_matching():
    # Labels 1 and 2 share left vertex 1, so the second input is no matching.
    g = make_graph(2, 2, [(0, 0), (1, 1), (1, 0)])
    with pytest.raises(bipartite.NotAMatching, match="matching 1 is not a matching"):
        iterated_halving(g, [frozenset({0}), frozenset({1, 2})], 2, np.random.default_rng(0))


def test_cap_below_one_rejected_for_any_number_of_matchings():
    g = make_graph(2, 2, [(0, 0), (1, 1)])
    m = frozenset({0, 1})
    for ms in ([m], [m, m]):
        with pytest.raises(InvalidParam):
            iterated_halving(g, ms, 0, np.random.default_rng(0))
    for n, size in ((4, 4), (8, 4)):  # k = 1 and k = 2
        sq, blocks = block_structured_square(n, size, seed=0)
        with pytest.raises(InvalidParam):
            block_transversal(sq, blocks, 0, np.random.default_rng(0))


def test_iterated_halving_block_square():
    sq, blocks = block_structured_square(8, 2, seed=1)
    g = build_block_multigraph(sq, blocks)
    ms = decompose_regular(g, 4)
    out, trace = iterated_halving(g, ms, 8, np.random.default_rng(5))
    assert is_matching(g, out)
    assert len(trace.levels) == 2
    assert len(trace.levels[0]) == 2 and len(trace.levels[1]) == 1
    # output is drawn from the union of the last level inputs minus deletions
    last = trace.levels[1][0]
    assert out <= (last.matching_a | last.matching_b) - last.cap.deleted


def test_survival_probability_quarter():
    sq, blocks = block_structured_square(8, 2, seed=1)
    g = build_block_multigraph(sq, blocks)
    ms = decompose_regular(g, 4)
    trials = 2500
    kept = 0
    for seed in range(trials):
        out, _ = iterated_halving(g, ms, 16, np.random.default_rng(seed))
        kept += 0 in out
    se = math.sqrt(0.25 * 0.75 / trials)
    assert abs(kept / trials - 0.25) < 3 * se


def test_independent_components_have_independent_survival():
    # two disjoint 8-cycles: their edges are never in a common component
    g1_pairs = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
    pairs = g1_pairs + [(4 + i, 4 + i) for i in range(4)] + [
        (4 + i, 4 + (i + 1) % 4) for i in range(4)
    ]
    g = make_graph(8, 8, pairs)
    m_a = frozenset(range(4)) | frozenset(range(8, 12))
    m_b = frozenset(range(4, 8)) | frozenset(range(12, 16))
    trials = 3000
    x = np.zeros(trials)
    y = np.zeros(trials)
    for seed in range(trials):
        out, _ = iterated_halving(g, [m_a, m_b], 8, np.random.default_rng(seed))
        x[seed] = 0 in out    # edge in first cycle
        y[seed] = 8 in out    # edge in second cycle
    cov = float(np.mean(x * y) - np.mean(x) * np.mean(y))
    se = 0.25 / math.sqrt(trials)  # var(xy) <= 1/4 crude bound
    assert abs(cov) < 3 * se


def test_block_transversal_validity_and_loads():
    for n, m in ((4, 1), (8, 2), (16, 4)):
        sq, blocks = block_structured_square(n, m, seed=n)
        t, trace, loads = block_transversal(sq, blocks, 2 * n, np.random.default_rng(n))
        validate_transversal(sq, t.cells)  # construction promises validity
        assert loads.loads.sum() == len(trace.final) * m


def test_block_transversal_completes_halving_output():
    # At these caps capping deletes edges, so the halving output leaves some
    # columns and symbols unmatched; the completion makes it perfect.
    for n, m, s in ((16, 4, 2), (64, 16, 4)):
        sq, blocks = block_structured_square(n, m, seed=n)
        t, trace, loads = block_transversal(sq, blocks, s, np.random.default_rng(s))
        g = build_block_multigraph(sq, blocks)
        assert any(p.cap.deleted for level in trace.levels for p in level)
        completed = frozenset(trace.completed_labels.tolist())
        assert is_matching(g, completed) and len(completed) == n

        def covered(matching):
            idx = sorted(matching)
            return {("L", v) for v in g.left[idx].tolist()} | {("R", v) for v in g.right[idx].tolist()}

        assert covered(trace.final) <= covered(completed)
        # The halving record and the loads are those of iterated_halving.
        ms = decompose_regular(g, n // m)
        _, ref = iterated_halving(g, ms, s, np.random.default_rng(s))
        assert {**trace.to_json(), "completed": None} == ref.to_json()
        assert (loads.loads == row_loads(blocks, ref.final, n).loads).all()
    # Without deletions the halving output is already perfect.
    sq, blocks = block_structured_square(16, 4, seed=16)
    _, trace, _ = block_transversal(sq, blocks, 32, np.random.default_rng(0))
    assert trace.completed_labels.tolist() == sorted(trace.final)


def test_row_loads_input_sum_is_n():
    # Every row meets one block per column, so summing per-row incidences of
    # the k input matchings over a decomposition counts each column once.
    sq, blocks = block_structured_square(8, 2, seed=3)
    t, trace, _ = block_transversal(sq, blocks, 16, np.random.default_rng(0))
    total = np.zeros(8, dtype=np.int64)
    for matching in trace.to_json()["initial_matchings"]:
        total += row_loads(blocks, matching, 8).loads
    assert (total == 8).all()


def test_row_loads_empty_final():
    sq, blocks = block_structured_square(4, 1, seed=2)
    g = build_block_multigraph(sq, blocks)
    ms = decompose_regular(g, 4)
    out, trace = iterated_halving(g, ms, 1, np.random.default_rng(3))
    # tiny cap forces deletions; loads of whatever remains match by hand
    lr = row_loads(blocks, trace.final, 4)
    manual = np.zeros(4, dtype=np.int64)
    for lab in trace.final:
        for r in blocks.rows[lab]:
            manual[r] += 1
    assert (lr.loads == manual).all()


def test_row_loads_rejects_labels_and_rows_outside_the_blocks():
    sq, blocks = block_structured_square(8, 2, seed=3)  # K = 32 blocks over 8 rows
    assert row_loads(blocks, {0, 31}, 8).loads.sum() == 4
    for labels in ({-1}, {32}, {0, 40}):
        with pytest.raises(InvalidParam, match="not a block"):
            row_loads(blocks, labels, 8)
    with pytest.raises(InvalidParam, match="n_rows"):
        row_loads(blocks, set(range(32)), 7)


def test_realized_effects_reject_labels_outside_the_blocks():
    sq, blocks = block_structured_square(16, 4, seed=1)  # K = 64 blocks
    _, trace, _ = block_transversal(sq, blocks, 3, np.random.default_rng(1))
    _, small = block_structured_square(8, 2, seed=1)  # K = 32 blocks over 8 rows
    with pytest.raises(InvalidParam, match="not a block"):
        realized_effect_squares(trace, small, 16)
    with pytest.raises(InvalidParam, match="n_rows"):
        realized_effect_squares(trace, blocks, 15)


def test_deleted_budget_per_level():
    # per halving level, deletions <= 2 * vertices / s
    for n, m, s in ((16, 4, 2), (16, 4, 3), (32, 8, 5)):
        sq, blocks = block_structured_square(n, m, seed=n + s)
        g = build_block_multigraph(sq, blocks)
        ms = decompose_regular(g, n // m)
        _, trace = iterated_halving(g, ms, s, np.random.default_rng(s))
        for level in trace.levels:
            for pair in level:
                assert len(pair.cap.deleted) <= 2 * (2 * n) / s


def test_block_transversal_rejects_bad_k():
    sq, blocks = block_structured_square(9, 3, seed=0)  # k = 3, not a power of two
    with pytest.raises(NotPowerOfTwo):
        block_transversal(sq, blocks, 4, np.random.default_rng(0))


def test_trace_serializes_to_json():
    import json

    sq, blocks = block_structured_square(8, 2, seed=1)
    t, trace, loads = block_transversal(sq, blocks, 8, np.random.default_rng(2))
    data = trace.to_json()
    assert data["format"] == 1
    json.dumps(data)  # round-trippable
    assert sorted(trace.final) == data["final"]


def test_row_loads_csv_export(tmp_path):
    sq, blocks = block_structured_square(8, 2, seed=1)
    _, _, loads = block_transversal(sq, blocks, 8, np.random.default_rng(2))
    path = tmp_path / "loads.csv"
    loads.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "row_index,load"
    assert len(lines) == 9


def test_mcdiarmid_values():
    assert math.isclose(mcdiarmid_bound([1], 1.0), 2 * math.exp(-1))
    assert math.isclose(mcdiarmid_bound([0] * 9 + [1], 1.0), 2 * math.exp(-1))
    assert math.isclose(mcdiarmid_bound([1] * 100, 30.0), 2 * math.exp(-9))
    assert mcdiarmid_bound([1], 0.1) == 1.0  # clamped
    with pytest.raises(InvalidParam):
        mcdiarmid_bound([], 1.0)
    with pytest.raises(InvalidParam):
        mcdiarmid_bound([-1.0], 1.0)
    for c in ([float("nan")], [1.0, float("nan")]):
        with pytest.raises(InvalidParam):
            mcdiarmid_bound(c, 1.0)
    with pytest.raises(InvalidParam):
        mcdiarmid_bound([1.0], 0.0)
    with pytest.raises(InvalidParam):
        mcdiarmid_bound([0.0], 1.0)


def test_realized_effects_match_per_component_loop():
    sq, blocks = block_structured_square(32, 4, seed=5)
    _, trace, _ = block_transversal(sq, blocks, 3, np.random.default_rng(5))
    per_coin = []  # reference: one row-count vector per coin, block by block
    for level in trace.levels:
        for pair in level:
            for comp in pair.cap.decomposition.components:
                cnt = np.zeros(32, dtype=np.int64)
                for lab in comp.labels:
                    cnt[blocks.rows[lab]] += 1
                per_coin.append(cnt)
    per_coin = np.array(per_coin)
    assert (realized_effect_squares(trace, blocks, 32) == (per_coin ** 2).sum(axis=0)).all()


def test_batched_coin_draw_equals_scalar_draws():
    # A halving level draws all its coins at once; with PCG64 that gives the
    # values and the final generator state of one draw per component.
    for count in range(71):
        batch, scalar = np.random.default_rng(count), np.random.default_rng(count)
        coins = batch.integers(0, 2, size=count).tolist()
        assert coins == [int(scalar.integers(0, 2)) for _ in range(count)]
        assert batch.bit_generator.state == scalar.bit_generator.state


def reference_iterated_halving(graph, matchings, s, rng):
    """Pair by pair, with the walk and capping references and one coin per call.

    Returns the final matching and the levels as PairTrace objects.
    """
    current = [frozenset(m) for m in matchings]
    levels = []
    while len(current) > 1:
        outs, traces = [], []
        for m_a, m_b in zip(current[::2], current[1::2]):
            cap = loop_cap_components(walk_union_components(graph, m_a, m_b), s)
            flips = [int(rng.integers(0, 2)) for _ in cap.decomposition.components]
            out = frozenset(lab for comp, flip in zip(cap.decomposition.components, flips)
                            for lab in (m_b if flip else m_a).intersection(comp.labels))
            traces.append(PairTrace(m_a, m_b, cap, tuple(flips), out))
            outs.append(out)
        levels.append(tuple(traces))
        current = outs
    return current[0], tuple(levels)


def reference_pair_json(p: PairTrace) -> dict:
    """One pair of HalvingTrace.to_json, written from the PairTrace view, as
    the PairTrace, CapResult and PathCycleDecomposition serializers wrote it."""
    components = [{"kind": c.kind, "labels": list(c.labels)} for c in p.cap.decomposition.components]
    return {
        "a": sorted(p.matching_a),
        "b": sorted(p.matching_b),
        "cap": {"format": 1, "deleted": sorted(p.cap.deleted),
                "decomposition": {"format": 1, "components": components}},
        "flips": list(p.flips),
        "output": sorted(p.output),
    }


def test_iterated_halving_matches_pairwise_reference():
    rng = np.random.default_rng(8)
    cases = []
    for n, k in ((6, 2), (20, 4), (40, 8), (100, 16)):
        g = random_k_regular(n, k, rng)
        cases.append((g, decompose_regular(g, k)))
    g, ms = cases[1]
    cases.append((g, [ms[0], ms[0], ms[1], frozenset()]))  # shared labels and an empty matching
    cases.append((g, [ms[2], frozenset(sorted(ms[2])[::2]), ms[3], ms[1]]))
    for g, ms in cases:
        n = g.left_size
        for s in (1, 2, 3, math.isqrt(n), 2 * n):
            for seed in range(2):
                fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
                out, trace = iterated_halving(g, ms, s, fast)
                ref_out, ref_levels = reference_iterated_halving(g, ms, s, slow)
                assert out == ref_out == trace.final
                assert trace.to_json()["initial_matchings"] == [sorted(m) for m in ms]
                assert trace.levels == ref_levels
                assert trace.to_json()["levels"] == [[reference_pair_json(p) for p in level]
                                                     for level in ref_levels]
                assert fast.bit_generator.state == slow.bit_generator.state


GOLDEN = [  # (kind, n, m, s, decompose_regular digest, output digest)
    ("iterated", 8, 2, 16, "eae39d8e27c073d4", "7db5e7598e15a9c2"),
    ("block", 64, 4, 1, "fbebdf48372e7648", "ee25e07b26776bbf"),
    ("block", 64, 4, 4, "fbebdf48372e7648", "b60bccdd3d607979"),
    ("block", 64, 4, 128, "fbebdf48372e7648", "c48b4131bbded23e"),
    ("block", 128, 8, 11, "a686cb55fdee8362", "4b9da1213f168d67"),
]


def _digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()[:16]


def _recorded_json(trace, seed) -> dict:
    return {**trace.to_json(), "rng_seed": seed}


@pytest.mark.parametrize("kind,n,m,s,decomposition,output", GOLDEN)
def test_outputs_match_recorded_digests(kind, n, m, s, decomposition, output):
    # Recorded before halving and decomposition moved to array passes: the
    # matchings, the trace, the transversal, the row loads and the final
    # generator state must not change for a fixed seed.  The record was hashed
    # when to_json() still carried the seed under "rng_seed"; it is put back
    # here so the digests stay those recorded then.
    sq, blocks = block_structured_square(n, m, seed=n + m)
    g = build_block_multigraph(sq, blocks)
    ms = decompose_regular(g, n // m)
    assert _digest([sorted(x) for x in ms]) == decomposition
    rng = np.random.default_rng(s)
    if kind == "iterated":
        _, trace = iterated_halving(g, ms, s, rng)
        assert _digest(_recorded_json(trace, s), rng.bit_generator.state) == output
    else:
        t, trace, loads = block_transversal(sq, blocks, s, rng)
        assert _digest(_recorded_json(trace, s), rng.bit_generator.state, [list(c) for c in t.cells],
                       loads.loads.tolist()) == output


def test_trace_views_are_built_on_first_read_only(monkeypatch):
    built = {"Component": 0, "PairTrace": 0}
    for cls in (bipartite.Component, halving.PairTrace):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    sq, blocks = block_structured_square(64, 4, seed=3)
    g = build_block_multigraph(sq, blocks)
    ms = decompose_regular(g, 16)
    _, trace, _ = block_transversal(sq, blocks, 4, np.random.default_rng(1))
    out, again = iterated_halving(g, ms, 4, np.random.default_rng(1))
    assert {**trace.to_json(), "completed": None} == again.to_json()
    assert realized_effect_squares(trace, blocks, 64).shape == (64,)
    assert trace != again and trace == replace(again, completed_labels=trace.completed_labels)
    assert built == {"Component": 0, "PairTrace": 0}
    ref_out, ref_levels = reference_iterated_halving(g, ms, 4, np.random.default_rng(1))
    before = dict(built)
    assert trace.levels == ref_levels and again.levels == ref_levels and out == ref_out
    assert built["PairTrace"] - before["PairTrace"] == 2 * sum(map(len, ref_levels))
    read = dict(built)
    assert trace.levels is trace.levels and again.levels == ref_levels
    assert built == read


def test_trace_equality_reads_what_the_run_recorded():
    g = random_k_regular(20, 4, np.random.default_rng(2))
    ms = decompose_regular(g, 4)
    runs = [iterated_halving(g, ms, 2, np.random.default_rng(seed))[1] for seed in (0, 0, 1)]
    assert runs[0] == runs[1] and runs[0].to_json() == runs[1].to_json()
    assert runs[0] != runs[2] and runs[0].to_json() != runs[2].to_json()
    assert runs[0] != "trace"


def reference_complete(graph, matching, perfect) -> frozenset:
    """The union_components loop that the array completion replaced."""
    out = set(matching)
    for comp in union_components(graph, matching, perfect).components:
        if comp.kind == "path" and comp.labels[0] not in matching \
                and comp.labels[-1] not in matching:
            out.symmetric_difference_update(comp.labels)
    return frozenset(out)


def test_complete_matches_union_components_loop():
    rng = np.random.default_rng(23)
    checked = 0
    for n in (1, 2, 5, 12, 40):
        for k in (1, 2, 4):
            g = random_k_regular(n, k, rng)
            parts = decompose_regular(g, k)
            for trial in range(6):
                perfect = parts[trial % k]
                if trial % 2:
                    matching = random_matching(g, rng, rng.random())
                else:
                    matching, _ = iterated_halving(g, parts, 1 + trial, rng)
                got = _complete(g, np.array(sorted(matching), dtype=np.int64),
                                rng.permutation(np.array(sorted(perfect), dtype=np.int64)))
                assert got.tolist() == sorted(reference_complete(g, matching, perfect))
                checked += matching != frozenset(got.tolist())
    assert checked > 20  # most cases augment
