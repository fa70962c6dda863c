import numpy as np
import pytest

from equisquares.bipartite import (
    BipartiteMultigraph,
    NotAMatching,
    NotRegular,
    cap_components,
    decompose_regular,
    is_matching,
    make_graph,
    max_matching,
    union_components,
)


def random_k_regular(n: int, k: int, rng) -> BipartiteMultigraph:
    """Union of k uniformly random perfect matchings (permutations)."""
    pairs = []
    for _ in range(k):
        perm = rng.permutation(n)
        pairs.extend((u, int(perm[u])) for u in range(n))
    return make_graph(n, n, pairs)


def cycle_graph(length: int) -> tuple[BipartiteMultigraph, frozenset, frozenset]:
    """One bipartite cycle with `length` edges (even), split into two matchings."""
    assert length % 2 == 0
    half = length // 2
    pairs = []
    for i in range(half):
        pairs.append((i, i))              # label 2i
        pairs.append((i, (i + 1) % half))  # label 2i+1
    g = make_graph(half, half, [pairs[i] for i in range(length)])
    m_a = frozenset(range(0, length, 2))
    m_b = frozenset(range(1, length, 2))
    return g, m_a, m_b


def test_perfect_matching_trivial():
    g = make_graph(3, 3, [(0, 1), (1, 2), (2, 0)])
    assert decompose_regular(g, 1)[0] == frozenset({0, 1, 2})


def test_perfect_matching_two_regular_cycles():
    g, m_a, m_b = cycle_graph(8)
    m = decompose_regular(g, 2)[0]
    assert len(m) == 4
    assert is_matching(g, m)


def test_perfect_matching_random_regular():
    rng = np.random.default_rng(3)
    g = random_k_regular(50, 8, rng)
    m = decompose_regular(g, 8)[0]
    assert len(m) == 50
    idx = sorted(m)
    assert set(g.left[idx].tolist()) == set(range(50))
    assert set(g.right[idx].tolist()) == set(range(50))


def test_perfect_matching_rejects_irregular():
    g = make_graph(2, 2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(NotRegular) as exc:
        decompose_regular(g, 2)
    assert exc.value.degree == 1


def test_decompose_k1_is_edge_set():
    g = make_graph(3, 3, [(0, 0), (1, 1), (2, 2)])
    parts = decompose_regular(g, 1)
    assert parts == [frozenset({0, 1, 2})]


@pytest.mark.parametrize("k", [2, 4, 8])
def test_decompose_regular_partitions(k):
    rng = np.random.default_rng(k)
    g = random_k_regular(40, k, rng)
    parts = decompose_regular(g, k)
    assert len(parts) == k
    seen = set()
    for m in parts:
        assert len(m) == 40
        assert is_matching(g, m)
        assert not (seen & m)
        seen |= m
    assert seen == set(g.by_label)


def test_max_matching_empty_and_complete():
    assert max_matching(make_graph(0, 0, [])) == frozenset()
    g = make_graph(3, 3, [(u, v) for u in range(3) for v in range(3)])
    assert len(max_matching(g)) == 3


def _koenig_cover(n_left: int, pairs, matching: dict) -> set:
    """König's vertex cover built from a matching (left -> right).

    Z is every vertex an alternating path reaches from an unmatched left
    vertex: out along any edge, back along a matched one.  The cover is
    (L - Z) | (R & Z), as ("L", u) and ("R", v) tags.
    """
    nbr = [[] for _ in range(n_left)]
    for u, v in pairs:
        nbr[u].append(v)
    mate = {v: u for u, v in matching.items()}
    seen_left = {u for u in range(n_left) if u not in matching}
    seen_right = set()
    queue = list(seen_left)
    while queue:
        u = queue.pop()
        for v in nbr[u]:
            if v not in seen_right:
                seen_right.add(v)
                if v in mate and mate[v] not in seen_left:
                    seen_left.add(mate[v])
                    queue.append(mate[v])
    return ({("L", u) for u in range(n_left) if u not in seen_left}
            | {("R", v) for v in seen_right})


def test_max_matching_equals_koenig_bound():
    # A vertex cover no larger than a matching proves the matching maximum
    # (weak duality), independently of the scipy matching code.
    rng = np.random.default_rng(11)
    for trial in range(8):
        pairs = [
            (u, v) for u in range(20) for v in range(20) if rng.random() < 0.3
        ]
        g = make_graph(20, 20, pairs)
        m = max_matching(g)
        assert is_matching(g, m)
        cover = _koenig_cover(20, pairs, {int(g.left[e]): int(g.right[e]) for e in m})
        assert all(("L", u) in cover or ("R", v) in cover for u, v in pairs)
        assert len(cover) == len(m)


def test_max_matching_invariant_under_relabelling():
    rng = np.random.default_rng(5)
    pairs = [(u, v) for u in range(12) for v in range(12) if rng.random() < 0.25]
    base = len(max_matching(make_graph(12, 12, pairs)))
    for seed in range(5):
        r = np.random.default_rng(seed)
        pl, pr = r.permutation(12), r.permutation(12)
        g2 = make_graph(12, 12, [(int(pl[u]), int(pr[v])) for u, v in pairs])
        assert len(max_matching(g2)) == base


def test_union_components_empty():
    g = make_graph(2, 2, [(0, 0)])
    assert union_components(g, frozenset(), frozenset()).components == ()


def test_union_components_single_cycle():
    g, m_a, m_b = cycle_graph(8)
    decomp = union_components(g, m_a, m_b)
    assert len(decomp.components) == 1
    comp = decomp.components[0]
    assert comp.kind == "cycle"
    assert len(comp) == 8
    # edges alternate between the matchings
    sides = [lab in m_a for lab in comp.labels]
    assert all(sides[i] != sides[i + 1] for i in range(7))


def test_union_components_paths_from_one_matching():
    g = make_graph(4, 4, [(i, i) for i in range(4)])
    m_a = frozenset(range(4))
    decomp = union_components(g, m_a, frozenset())
    assert len(decomp.components) == 4
    assert all(c.kind == "path" and len(c) == 1 for c in decomp.components)


def test_union_components_rejects_non_matching():
    g = make_graph(2, 2, [(0, 0), (0, 1)])
    with pytest.raises(NotAMatching):
        union_components(g, frozenset({0, 1}), frozenset())


@pytest.mark.parametrize("label", [-1, 2, 7, "0"])
def test_labels_outside_graph_rejected(label):
    g = make_graph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(NotAMatching):
        is_matching(g, {label})
    with pytest.raises(NotAMatching):
        union_components(g, frozenset({0}), frozenset({label}))


def test_union_components_degree_bound_random():
    rng = np.random.default_rng(9)
    for trial in range(20):
        g = random_k_regular(12, 4, rng)
        parts = decompose_regular(g, 4)
        decomp = union_components(g, parts[0], parts[1])
        assert {lab for c in decomp.components for lab in c.labels} == parts[0] | parts[1]
        for comp in decomp.components:
            assert comp.kind in ("path", "cycle")


def test_cap_noop_when_short():
    g, m_a, m_b = cycle_graph(6)
    decomp = union_components(g, m_a, m_b)
    res = cap_components(decomp, 6)
    assert res.deleted == frozenset()
    assert res.decomposition.components == decomp.components


def test_cap_cycle_ten_with_s4():
    g, m_a, m_b = cycle_graph(10)
    decomp = union_components(g, m_a, m_b)
    res = cap_components(decomp, 4)
    assert len(res.deleted) == 2  # ceil(10/5)
    assert all(len(c) <= 4 for c in res.decomposition.components)
    kept = {lab for c in res.decomposition.components for lab in c.labels}
    assert kept | res.deleted == m_a | m_b
    assert not kept & res.deleted


def test_cap_path_one_over():
    for s in (1, 2, 5):
        length = s + 1
        # chain 0-0, 1-0, 1-1, 2-1, ...: a path of `length` edges
        chain = []
        u = v = 0
        for i in range(length):
            chain.append((u, v))
            if i % 2 == 0:
                u += 1
            else:
                v += 1
        g = make_graph(u + 1, v + 1, chain)
        m_a = frozenset(range(0, length, 2))
        m_b = frozenset(range(1, length, 2))
        decomp = union_components(g, m_a, m_b)
        assert len(decomp.components) == 1 and decomp.components[0].kind == "path"
        res = cap_components(decomp, s)
        assert len(res.deleted) == 1
        assert all(len(c) <= s for c in res.decomposition.components)


def test_cap_deletion_budget_two_matchings():
    # deleted <= 2 * vertex_count / s for unions of two matchings
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = 30
        g = random_k_regular(n, 2, rng)
        m_a, m_b = decompose_regular(g, 2)
        decomp = union_components(g, m_a, m_b)
        for s in (2, 3, 5, 8):
            res = cap_components(decomp, s)
            assert len(res.deleted) <= 2 * (2 * n) / s
