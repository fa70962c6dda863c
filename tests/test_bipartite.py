import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from equisquares.bipartite import (
    BipartiteMultigraph,
    CapResult,
    Component,
    NotAMatching,
    NotRegular,
    PathCycleDecomposition,
    decompose_regular,
    is_matching,
    make_graph,
    max_matching,
    union_components,
)
from equisquares.halving import iterated_halving


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


@pytest.mark.parametrize("left,right", [([0, 2], [0, 1]), ([0, 1], [0, 3]),
                                        ([-1, 0], [0, 1]), ([0, 1], [0, -1])])
def test_graph_rejects_endpoints_out_of_range(left, right):
    with pytest.raises(ValueError, match="endpoint out of range"):
        BipartiteMultigraph(2, 3, left, right)


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


def reference_decompose_regular(graph, k: int) -> list[frozenset]:
    """Round by round over all edges, as decompose_regular worked before its array core.

    Each round takes the edges no earlier round took, in (left, right,
    label) order, keeps the first of each parallel class, builds the CSR
    matrix by the COO route and takes a Hopcroft-Karp maximum matching.
    """
    for side, deg in zip(("left", "right"), graph.degrees()):
        bad = np.flatnonzero(deg != k)
        if bad.size:
            raise NotRegular((side, int(bad[0])), int(deg[bad[0]]))
    by_ends = np.argsort(graph.left * graph.right_size + graph.right, kind="stable")
    alive = np.ones(graph.left.size, dtype=bool)
    out = []
    for _ in range(k):
        sel = by_ends[alive[by_ends]]
        u, v = graph.left[sel], graph.right[sel]
        first = np.ones(sel.size, dtype=bool)
        first[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        sel, u, v = sel[first], u[first], v[first]
        mat = sp.csr_matrix((np.ones(sel.size, dtype=np.int8), (u, v)),
                            shape=(graph.left_size, graph.right_size))
        match = maximum_bipartite_matching(mat, perm_type="column")
        m = sel[match[u] == v]
        assert m.size == graph.left_size
        alive[m] = False
        out.append(frozenset(m.tolist()))
    return out


def random_regular_multigraph(n: int, k: int, rng) -> BipartiteMultigraph:
    """k permutations drawn from a pool of at most k, so parallel edges are
    common, with the edge labels shuffled."""
    pool = [rng.permutation(n) for _ in range(int(rng.integers(1, k + 1)))]
    perms = [pool[int(rng.integers(len(pool)))] for _ in range(k)]
    pairs = [(u, int(perm[u])) for perm in perms for u in range(n)]
    return make_graph(n, n, [pairs[i] for i in rng.permutation(len(pairs)).tolist()])


def test_decompose_regular_matches_round_by_round_reference():
    rng = np.random.default_rng(29)
    graphs = 0
    for k in (1, 2, 4, 8, 32):
        for trial in range(40):
            n = int(rng.integers(1, 65))
            make = random_k_regular if trial % 2 else random_regular_multigraph
            g = make(n, k, rng)
            assert decompose_regular(g, k) == reference_decompose_regular(g, k)
            graphs += 1
    assert graphs == 200


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


def halving_cap(graph, m_a, m_b, s: int) -> CapResult:
    """The capping of m_a | m_b that iterated_halving records for the pair.

    It must equal the per-component reference loop on the walked union.
    """
    _, trace = iterated_halving(graph, [m_a, m_b], s, np.random.default_rng(0))
    cap = trace.levels[0][0].cap
    assert cap == loop_cap_components(walk_union_components(graph, m_a, m_b), s)
    return cap


def test_cap_noop_when_short():
    g, m_a, m_b = cycle_graph(6)
    decomp = union_components(g, m_a, m_b)
    res = halving_cap(g, m_a, m_b, 6)
    assert res.deleted == frozenset()
    assert res.decomposition.components == decomp.components


def test_cap_cycle_ten_with_s4():
    g, m_a, m_b = cycle_graph(10)
    res = halving_cap(g, m_a, m_b, 4)
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
        res = halving_cap(g, m_a, m_b, s)
        assert len(res.deleted) == 1
        assert all(len(c) <= s for c in res.decomposition.components)


def test_cap_deletion_budget_two_matchings():
    # deleted <= 2 * vertex_count / s for unions of two matchings
    rng = np.random.default_rng(21)
    for trial in range(20):
        n = 30
        g = random_k_regular(n, 2, rng)
        m_a, m_b = decompose_regular(g, 2)
        for s in (2, 3, 5, 8):
            res = halving_cap(g, m_a, m_b, s)
            assert len(res.deleted) <= 2 * (2 * n) / s


# Reference implementations: the per-edge Python walk and the per-component
# capping loop that the array passes replaced.  The array code must give the
# same components, in the same order and traversal, and the same pieces.

def _walk_partners(ends: np.ndarray) -> np.ndarray:
    """For each edge, the other edge at the same endpoint, or -1."""
    order = np.argsort(ends, kind="stable")
    same = ends[order[1:]] == ends[order[:-1]]
    a, b = order[:-1][same], order[1:][same]
    partner = np.full(ends.size, -1, dtype=np.int64)
    partner[a] = b
    partner[b] = a
    return partner


def walk_union_components(graph, m_a, m_b) -> PathCycleDecomposition:
    """Paths from their free ends (left before right, smaller vertex first),
    then cycles from their minimum label out of its right end."""
    labels = np.array(sorted(frozenset(m_a) | frozenset(m_b)), dtype=np.int64)
    u, v = graph.left[labels], graph.right[labels]
    partners = (_walk_partners(u), _walk_partners(v))
    at = tuple(p.tolist() for p in partners)
    visited = [False] * labels.size

    def walk(p: int, side: int) -> list[int]:
        seq = []
        here, there = at[side], at[1 - side]
        while p >= 0 and not visited[p]:
            visited[p] = True
            seq.append(p)
            p = here[p]
            here, there = there, here
        return seq

    walks = []
    for side, ends in ((0, u), (1, v)):
        lone = np.flatnonzero(partners[side] < 0)
        for p in lone[np.argsort(ends[lone], kind="stable")].tolist():
            if not visited[p]:
                walks.append((walk(p, 1 - side), "path"))
    for p in range(labels.size):
        if not visited[p]:
            seq = walk(p, 1)
            assert len(seq) % 2 == 0 and at[0][seq[-1]] == p
            walks.append((seq, "cycle"))
    lab = labels.tolist()
    components = [Component(tuple(lab[i] for i in seq), kind) for seq, kind in walks]
    components.sort(key=lambda c: min(c.labels))
    return PathCycleDecomposition(tuple(components))


def loop_cap_components(decomp: PathCycleDecomposition, s: int) -> CapResult:
    deleted = set()
    pieces = []
    for comp in decomp.components:
        length = len(comp)
        if length <= s:
            pieces.append(comp)
            continue
        cuts = range(0 if comp.kind == "cycle" else s, length, s + 1)
        deleted.update(comp.labels[p] for p in cuts)
        bounds = [-1, *cuts, length]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo + 1:
                pieces.append(Component(comp.labels[lo + 1:hi], "path"))
    pieces.sort(key=lambda c: min(c.labels))
    return CapResult(frozenset(deleted), PathCycleDecomposition(tuple(pieces)))


def random_matching(graph, rng, keep: float, start=frozenset()) -> frozenset:
    """start, then edges taken greedily in random order, each tried with probability keep."""
    out = set(start)
    used_left = {int(graph.left[e]) for e in out}
    used_right = {int(graph.right[e]) for e in out}
    for e in rng.permutation(graph.left.size).tolist():
        u, v = int(graph.left[e]), int(graph.right[e])
        if rng.random() < keep and u not in used_left and v not in used_right:
            used_left.add(u)
            used_right.add(v)
            out.add(e)
    return frozenset(out)


def _assert_same_as_reference(graph, m_a, m_b, caps=(1, 2, 3, 5, 1000)):
    decomp = union_components(graph, m_a, m_b)
    assert decomp == walk_union_components(graph, m_a, m_b)
    for s in caps:
        halving_cap(graph, m_a, m_b, s)


def test_union_and_cap_match_reference_on_random_pairs():
    rng = np.random.default_rng(17)
    for trial in range(400):
        nl, nr = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        edges = int(rng.integers(0, 40))
        g = BipartiteMultigraph(nl, nr, rng.integers(0, nl, edges), rng.integers(0, nr, edges))
        m_a = random_matching(g, rng, rng.random())
        shared = frozenset(lab for lab in m_a if trial % 3 == 0 and rng.random() < 0.5)
        m_b = random_matching(g, rng, rng.random(), start=shared)
        _assert_same_as_reference(g, m_a, m_b)


def test_union_and_cap_match_reference_on_shapes():
    # empty matchings
    g = make_graph(3, 3, [(0, 0), (1, 1), (2, 2)])
    for m_a, m_b in ((frozenset(), frozenset()), (frozenset({0, 2}), frozenset()),
                     (frozenset(), frozenset({1})), (frozenset({0, 1}), frozenset({0, 1}))):
        _assert_same_as_reference(g, m_a, m_b)
    # even paths with both ends on the left, and with both ends on the right
    g = make_graph(4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 3), (3, 2), (2, 2), (2, 3)])
    _assert_same_as_reference(g, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    _assert_same_as_reference(g, frozenset({1, 3, 5}), frozenset({0, 2, 6}))
    # long cycles, either matching first, and a cycle plus paths
    for length in (2, 4, 64, 202):
        g, m_a, m_b = cycle_graph(length)
        _assert_same_as_reference(g, m_a, m_b, caps=(1, 2, 7, length - 1, length))
        _assert_same_as_reference(g, m_b, m_a, caps=(1, 3, length))
        _assert_same_as_reference(g, m_a, frozenset(sorted(m_b)[1:]))
    # unions of two perfect matchings of random regular graphs
    rng = np.random.default_rng(4)
    for n in (5, 30, 200):
        g = random_k_regular(n, 4, rng)
        parts = decompose_regular(g, 4)
        _assert_same_as_reference(g, parts[0], parts[3], caps=(1, 4, 2 * n))
        _assert_same_as_reference(g, parts[1], frozenset())
