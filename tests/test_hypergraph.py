import functools
import hashlib
import itertools
import json
import re

import numpy as np
import pytest

from equisquares import bipartite, halving
from equisquares.constructions import block_structured_square, cyclic_latin, random_equi_square
from equisquares.hypergraph import (
    EdgeColouring,
    InvalidParam,
    NotAMatching,
    SameVertex,
    TripartiteHypergraph,
    alon_kim,
    blow_up,
    codegree,
    from_square,
    greedy_edge_colouring,
    is_proper,
    max_matching_exact,
    split_high_codegree,
)
from equisquares.squares import validate_square


def brute_max_matching(h: TripartiteHypergraph) -> int:
    """Exhaustive maximum matching (oracle): each class-0 vertex in turn
    takes one of its edges or none, memoised on the vertices used so far."""
    by_row = [sorted({e[1:] for e in h.edges if e[0] == r}) for r in range(h.class_sizes[0])]

    @functools.cache
    def best(r, cols, syms):
        if r == len(by_row):
            return 0
        out = best(r + 1, cols, syms)
        for b, c in by_row[r]:
            if not (cols >> b & 1 or syms >> c & 1):
                out = max(out, 1 + best(r + 1, cols | 1 << b, syms | 1 << c))
        return out

    return best(0, 0, 0)


def test_from_square_trivial():
    sq = validate_square(1, [[0]])
    h = from_square(sq)
    assert h.edges == ((0, 0, 0),)
    assert all(h.degree(v) == 1 for v in h.vertices())


def test_from_square_regular_with_unit_row_col_codegree():
    for n, seed in ((2, 0), (5, 1), (8, 2)):
        sq = random_equi_square(n, seed)
        h = from_square(sq)
        assert len(h.edges) == n * n
        assert all(h.degree(v) == n for v in h.vertices())
        for i in range(n):
            for j in range(n):
                assert codegree(h, (0, i), (1, j)) == 1


def test_codegree_counts_column_symbol_multiplicity():
    sq = validate_square(2, [[0, 0], [1, 1]])
    h = from_square(sq)
    # column 0 holds symbol 0 once and symbol 1 once
    assert codegree(h, (1, 0), (2, 0)) == 1
    sq2 = validate_square(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    h2 = from_square(sq2)
    for j in range(3):
        assert codegree(h2, (1, j), (2, j)) == 3
        grid_count = int((np.asarray(sq2.grid)[:, j] == j).sum())
        assert grid_count == 3


def test_codegree_same_vertex_rejected():
    h = from_square(cyclic_latin(2))
    # A vertex is read as `incident` reads it, so a list or numpy ints name it too.
    for x, y in (((0, 0), (0, 0)), ((0, 0), [0, 0]), ([1, 1], (1, 1)), ((np.int64(0), np.int64(1)), [0, 1]),
                 ((1, 1), np.array([1, 1])), (np.array([0, 1]), np.array([0, 1]))):
        with pytest.raises(SameVertex):
            codegree(h, x, y)
    # One vertex twice is one vertex, even outside the classes.
    with pytest.raises(SameVertex):
        codegree(h, (3, 0), (3, 0))
    assert codegree(h, (0, 0), (0, 1)) == 0  # same class, no shared edge


def test_codegree_empty():
    h = TripartiteHypergraph((2, 2, 2), ())
    assert codegree(h, (0, 0), (1, 0)) == 0


def incidence_reference(h: TripartiteHypergraph) -> dict:
    """Vertex -> the indices of its edges, ascending, by one walk over the
    edges; a vertex on no edge is missing."""
    inc: dict = {}
    for i, e in enumerate(h.edges):
        for cls in range(3):
            inc.setdefault((cls, e[cls]), []).append(i)
    return {v: tuple(ix) for v, ix in inc.items()}


def test_incidence_matches_the_edge_walk_reference():
    rng = np.random.default_rng(35)
    shapes = repeats = isolated = 0
    for trial in range(60):
        sizes = tuple(int(x) for x in rng.integers(0 if trial % 10 == 0 else 1, 6, size=3))
        count = int(rng.integers(0, 16)) if min(sizes) else 0  # an empty class has no edges
        edges = [tuple(int(rng.integers(0, s)) for s in sizes) for _ in range(count)]
        edges += [edges[int(i)] for i in rng.integers(0, len(edges), size=3 * bool(edges))]
        edges = [edges[int(i)] for i in rng.permutation(len(edges))]
        h = TripartiteHypergraph(sizes, edges)
        ref = incidence_reference(h)
        assert h.edges == tuple(edges)
        shapes += min(sizes) == 0
        repeats += len(set(edges)) < len(edges)
        isolated += len(ref) < h.num_vertices
        for v in h.vertices():
            incident = h.incident(v)
            assert incident == ref.get(v, ()) and {type(i) for i in incident} <= {int}
            degree = h.degree(v)
            assert degree == len(ref.get(v, ())) and type(degree) is int
        max_degree = h.max_degree()
        assert max_degree == max(map(len, ref.values()), default=0) and type(max_degree) is int
        for x, y in itertools.combinations(h.vertices(), 2):
            shared = codegree(h, x, y)
            assert shared == len(set(ref.get(x, ())) & set(ref.get(y, ()))) and type(shared) is int
    assert shapes >= 3 and repeats >= 30 and isolated >= 30


def test_vertices_outside_the_classes_are_rejected():
    h = alon_kim(1)  # classes of 3 vertices
    for x, y in (((3, 0), (0, 0)), ((0, 99), (1, 0)), ((0, -1), (1, 0)), ((0, 0), (-1, 0)),
                 ((0, 3), (0, 1))):
        with pytest.raises(InvalidParam, match="not in classes"):
            codegree(h, x, y)
    for v in ((7, 0), (1, 3), (2, -1), (0, 1.5)):
        with pytest.raises(InvalidParam, match="not in classes"):
            h.degree(v)
        with pytest.raises(InvalidParam, match="not in classes"):
            h.incident(v)
    assert codegree(h, (0, 2), (0, 1)) == 0 and h.degree((2, 2)) == 2


@pytest.mark.parametrize("v", [(1.0, 0), (0, 1.0), (0,), (0, 1, 2), (), None, 5, "01", (0, "1"),
                               ((0,), 1)], ids=repr)
def test_vertices_that_are_not_pairs_of_integers_are_rejected(v):
    h = alon_kim(1)
    for call in (h.incident, h.degree, lambda v: codegree(h, v, (2, 2)),
                 lambda v: codegree(h, (2, 2), v)):
        with pytest.raises(InvalidParam, match="not in classes"):
            call(v)


def test_vertices_given_as_other_pairs_of_integers_are_read_as_tuples():
    h = alon_kim(1)
    assert h.incident([0, 1]) == h.incident((np.int64(0), np.int64(1))) == h.incident((0, 1))


def test_alon_kim_counts():
    h = alon_kim(1)
    assert h.class_sizes == (3, 3, 3)
    assert len(h.edges) == 6
    assert all(h.degree(v) == 2 for v in h.vertices())
    h2 = alon_kim(2)
    assert h2.class_sizes == (6, 6, 6)
    assert len(h2.edges) == 24
    assert all(h2.degree(v) == 4 for v in h2.vertices())
    with pytest.raises(InvalidParam):
        alon_kim(0)


def test_alon_kim_matching_limit_oracle():
    h = alon_kim(1)
    assert brute_max_matching(h) == 2
    matching, optimal = max_matching_exact(h)
    assert optimal and len(matching) == 2


def test_blow_up_identity_and_counts():
    h = alon_kim(1)
    same = blow_up(h, 1)
    assert same.class_sizes == h.class_sizes
    assert len(same.edges) == len(h.edges)

    big = blow_up(h, 3)
    assert big.class_sizes == (9, 9, 9)
    assert len(big.edges) == 27 * 6
    assert all(big.degree(v) == 18 for v in big.vertices())

    single = TripartiteHypergraph((1, 1, 1), ((0, 0, 0),))
    assert len(blow_up(single, 2).edges) == 8
    with pytest.raises(InvalidParam):
        blow_up(h, 0)


def test_blow_up_degree_scaling_random():
    rng = np.random.default_rng(4)
    for _ in range(5):
        edges = tuple(
            (int(rng.integers(0, 3)), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            for _ in range(8)
        )
        h = TripartiteHypergraph((3, 3, 3), edges)
        f = int(rng.integers(2, 4))
        big = blow_up(h, f)
        assert len(big.edges) == len(h.edges) * f**3
        for cls in range(3):
            for v in range(3):
                for q in range(f):
                    assert big.degree((cls, v * f + q)) == h.degree((cls, v)) * f * f


def planted_split_instance(rng, n_pairs=2, threshold=2):
    """Random 3-uniform instance with planted high-codegree pairs.

    Planted pair vertices appear only in edges covering the pair, matching
    the all-or-none situation the splitting transform targets.
    """
    size = 12
    sizes = [size, size, size]
    edges = []
    reserved = [set(), set(), set()]
    pair_classes = [(0, 1), (1, 2), (0, 2)]
    for p in range(n_pairs):
        ca, cb = pair_classes[p % 3]
        x = p  # vertex index reserved per pair within its class
        y = p
        reserved[ca].add(x)
        reserved[cb].add(y)
        cc = 3 - ca - cb
        count = threshold + 1 + int(rng.integers(0, 3))
        thirds = rng.choice(np.arange(6, size), size=count, replace=False)
        for z in thirds:
            e = [None, None, None]
            e[ca], e[cb], e[cc] = x, y, int(z)
            edges.append(tuple(e))
    # background edges avoid reserved vertices and keep codegrees <= threshold
    pair_count: dict = {}
    attempts = 0
    while len(edges) < n_pairs * 4 + 15 and attempts < 500:
        attempts += 1
        e = tuple(int(rng.integers(3, size)) for _ in range(3))
        keys = [((0, e[0]), (1, e[1])), ((0, e[0]), (2, e[2])), ((1, e[1]), (2, e[2]))]
        if any(pair_count.get(k, 0) + 1 > threshold for k in keys):
            continue
        for k in keys:
            pair_count[k] = pair_count.get(k, 0) + 1
        edges.append(e)
    return TripartiteHypergraph(tuple(sizes), tuple(edges))


def test_split_noop_when_codegrees_small():
    h = from_square(cyclic_latin(4))
    h2, pullback = split_high_codegree(h, 4)
    assert h2.edges == h.edges
    col = greedy_edge_colouring(h2)
    assert is_proper(h, pullback(col))


def test_split_three_parallel_edges():
    # three edges through the pair {(0,0), (1,0)}
    h = TripartiteHypergraph((1, 1, 3), ((0, 0, 0), (0, 0, 1), (0, 0, 2)))
    h2, pullback = split_high_codegree(h, 1)
    assert h2.class_sizes[0] == 1 + 3  # one fresh vertex per covering edge
    for x, y in itertools.combinations(h2.vertices(), 2):
        if x[0] != y[0]:
            assert codegree(h2, x, y) <= 1
    col = greedy_edge_colouring(h2)
    back = pullback(col)
    assert is_proper(h, back)
    assert back.num_colours == col.num_colours


def test_split_planted_instances():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        h = planted_split_instance(rng, n_pairs=1 + trial % 3, threshold=2)
        h2, pullback = split_high_codegree(h, 2)
        for x, y in itertools.combinations(h2.vertices(), 2):
            if x[0] != y[0]:
                assert codegree(h2, x, y) <= 2
        assert h2.max_degree() <= h.max_degree()
        col = greedy_edge_colouring(h2)
        assert is_proper(h2, col)
        back = pullback(col)
        assert is_proper(h, back)
        assert back.num_colours == col.num_colours


def split_reference(h: TripartiteHypergraph, threshold: int) -> TripartiteHypergraph:
    """The transform by pair scans: high pairs in order of first appearance
    over edges and pairs (0,1), (0,2), (1,2), each found by `codegree`, and
    the edges of each pair found by a scan of every edge."""
    high = []
    for e in h.edges:
        for ca, cb in ((0, 1), (0, 2), (1, 2)):
            pair = ((ca, e[ca]), (cb, e[cb]))
            if pair not in high and codegree(h, *pair) > threshold:
                high.append(pair)
    sizes, edges = list(h.class_sizes), list(h.edges)
    for (cls, x), (cy, y) in high:
        for i, e in enumerate(edges):
            if e[cls] == x and e[cy] == y:
                edges[i] = tuple(sizes[cls] if c == cls else v for c, v in enumerate(e))
                sizes[cls] += 1
    return TripartiteHypergraph(tuple(sizes), tuple(edges))


def test_split_matches_pair_scan_reference():
    rng = np.random.default_rng(11)
    for trial in range(40):
        threshold = 1 + trial % 3
        h = planted_split_instance(rng, n_pairs=1 + trial % 3, threshold=threshold)
        # A few extra copies of edges already present can lift more pairs
        # over the threshold; shuffling changes which high pair comes first.
        edges = h.edges + tuple(h.edges[int(i)] for i in rng.integers(0, len(h.edges), size=trial % 4))
        h = TripartiteHypergraph(h.class_sizes, tuple(edges[int(i)] for i in rng.permutation(len(edges))))
        try:
            h2, _ = split_high_codegree(h, threshold)
        except NotAMatching:
            continue
        ref = split_reference(h, threshold)
        assert (h2.class_sizes, h2.edges) == (ref.class_sizes, ref.edges)


def test_error_names_shared_with_other_modules_are_one_class():
    assert InvalidParam is halving.InvalidParam
    assert NotAMatching is bipartite.NotAMatching


def test_split_rejects_overlapping_high_pairs():
    # two high pairs sharing vertex (0,0)
    edges = tuple(
        [(0, 0, z) for z in range(3)] + [(0, z, 0) for z in range(3)]
    )
    h = TripartiteHypergraph((1, 3, 3), edges)
    with pytest.raises(NotAMatching, match=re.escape(
            "high-codegree pairs ((0, 0), (1, 0)) and ((0, 0), (2, 0)) share vertex (0, 0)")):
        split_high_codegree(h, 1)
    # A block square's high pairs share vertices too; the message names one
    # vertex and two pairs, not the whole pair set.
    h = from_square(block_structured_square(16, 4, 1)[0])
    with pytest.raises(NotAMatching, match=re.escape(
            "high-codegree pairs ((0, 0), (2, 4)) and ((1, 0), (2, 4)) share vertex (2, 4)")) as info:
        split_high_codegree(h, 1)
    assert len(str(info.value)) < 100


def test_greedy_colouring_trivial_and_bound():
    single = TripartiteHypergraph((1, 1, 1), ((0, 0, 0),))
    assert greedy_edge_colouring(single).num_colours == 1
    h1 = from_square(validate_square(1, [[0]]))
    assert greedy_edge_colouring(h1).num_colours == 1

    h5 = from_square(cyclic_latin(5))
    col = greedy_edge_colouring(h5)
    assert is_proper(h5, col)
    assert col.num_colours <= 3 * (5 - 1) + 1


GREEDY_COLOURING_GOLDEN = [  # SHA-256 prefix of the colours as JSON, per hypergraph
    (lambda: alon_kim(2), "9401e2be79af59d6"),
    (lambda: blow_up(alon_kim(1), 3), "1559290e0839a509"),
    (lambda: from_square(random_equi_square(64, 1)), "75bcb1b5246fde10"),
    (lambda: from_square(block_structured_square(16, 4, 1)[0]), "c5685426a71f94ba"),
]


@pytest.mark.parametrize("make,digest", GREEDY_COLOURING_GOLDEN,
                         ids=["alon_kim2", "blow_up_alon_kim1_3", "random64", "block16_4"])
def test_greedy_colouring_is_pinned(make, digest):
    colours = greedy_edge_colouring(make()).colours
    assert hashlib.sha256(json.dumps(colours).encode()).hexdigest()[:16] == digest


def test_is_proper_rejects_a_colour_repeated_at_a_vertex():
    # Edge 2 meets edge 0 in column 0 and symbol 1, and edge 1 in row 1;
    # edges 0 and 1 are disjoint.
    h = TripartiteHypergraph((2, 2, 2), ((0, 0, 1), (1, 1, 0), (1, 0, 1)))
    assert is_proper(h, EdgeColouring((0, 0, 1)))
    assert not is_proper(h, EdgeColouring((0, 1, 0)))
    assert not is_proper(h, EdgeColouring((0, 0, 0)))


@pytest.mark.parametrize("size", [1, 7], ids=["short", "long"])
def test_is_proper_rejects_a_colouring_of_another_length(size):
    h = alon_kim(1)  # 6 edges
    with pytest.raises(InvalidParam, match="colouring size does not match edge count"):
        is_proper(h, EdgeColouring(tuple(range(size))))


def test_greedy_colouring_classes_are_matchings_random():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sq = random_equi_square(6, int(rng.integers(0, 10**6)))
        h = from_square(sq)
        col = greedy_edge_colouring(h)
        assert is_proper(h, col)
        assert col.num_colours <= 3 * (h.max_degree() - 1) + 1


def test_max_matching_exact_examples():
    assert max_matching_exact(TripartiteHypergraph((1, 1, 1), ()))[0] == ()
    sq = validate_square(2, [[0, 0], [1, 1]])
    matching, optimal = max_matching_exact(from_square(sq))
    assert optimal and len(matching) == 2


def test_max_matching_exact_oracle_random():
    rng = np.random.default_rng(6)
    duplicates = multi_symbol = 0
    for _ in range(200):
        sizes = tuple(int(x) for x in rng.integers(1, 6, size=3))
        edges = [tuple(int(rng.integers(0, s)) for s in sizes)
                 for _ in range(int(rng.integers(0, 14)))]
        if edges and rng.random() < 0.3:
            edges.append(edges[int(rng.integers(0, len(edges)))])
        h = TripartiteHypergraph(sizes, tuple(edges))
        duplicates += len(set(edges)) < len(edges)
        multi_symbol += len({e[:2] for e in set(edges)}) < len(set(edges))
        matching, optimal = max_matching_exact(h)
        assert optimal
        assert len(matching) == brute_max_matching(h)
        used = [set(), set(), set()]
        for i in matching:
            assert h.edges.index(h.edges[i]) == i  # the smallest index of a repeated edge
            for cls in range(3):
                assert h.edges[i][cls] not in used[cls]
                used[cls].add(h.edges[i][cls])
    assert duplicates >= 20 and multi_symbol >= 50


def test_max_matching_exact_oracle_blow_ups():
    # Blow-ups have twins in all three classes; dropping one edge from half
    # of them breaks some twins and keeps others.  Vertex labels are shuffled
    # so that the greedy incumbent (budget=1) often misses the optimum and
    # the search itself has to find it.
    rng = np.random.default_rng(11)
    greedy_short = 0
    for i in range(120):
        sizes = tuple(int(x) for x in rng.integers(2, 4, size=3))
        edges = tuple(tuple(int(rng.integers(0, s)) for s in sizes)
                      for _ in range(int(rng.integers(2, 7))))
        h = blow_up(TripartiteHypergraph(sizes, edges), 2 + i % 2)
        perms = [rng.permutation(s) for s in h.class_sizes]
        shuffled = [tuple(int(perms[cls][e[cls]]) for cls in range(3)) for e in h.edges]
        if i % 4 >= 2:
            del shuffled[int(rng.integers(0, len(shuffled)))]
        h = TripartiteHypergraph(h.class_sizes, tuple(shuffled))
        best = brute_max_matching(h)
        matching, optimal = max_matching_exact(h)
        assert optimal
        assert len(matching) == best, (sizes, edges, i)
        for cls in range(3):
            assert len({h.edges[k][cls] for k in matching}) == len(matching)
        greedy_short += len(max_matching_exact(h, budget=1)[0]) < best
    assert greedy_short >= 25


@pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1, 1), (-1, 1, 1), (1, 1, -2), ()], ids=repr)
def test_constructor_wants_three_class_sizes_of_at_least_zero(sizes):
    with pytest.raises(InvalidParam, match=re.escape(f"class sizes must be three integers >= 0, got {sizes}")):
        TripartiteHypergraph(sizes, ())


def test_constructor_stores_class_sizes_as_ints():
    h = TripartiteHypergraph([np.int64(2), np.uint8(1), 1], np.empty((0, 3), dtype=np.int32))
    assert h.class_sizes == (2, 1, 1) and {type(size) for size in h.class_sizes} == {int}
    assert h.edges == () and h.edge_array.shape == (0, 3) and h.max_degree() == 0


@pytest.mark.parametrize("edge", [(0, 0, 1), (0, -1, 0), (0, 0), (0, 0, 0, 0)])
def test_constructor_rejects_edges_outside_the_classes(edge):
    with pytest.raises(ValueError, match="out of range"):
        TripartiteHypergraph((1, 1, 1), ((0, 0, 0), edge))


@pytest.mark.parametrize("shape", [(0, 2), (0, 3, 1)])
def test_constructor_wants_an_e_by_3_edge_array(shape):
    # No edge is out of range, yet the array is not (E, 3).
    with pytest.raises(ValueError, match=re.escape(f"edges must be an (E, 3) collection of integers, got shape {shape}")):
        TripartiteHypergraph((1, 1, 1), np.zeros(shape, dtype=np.int64))


@pytest.mark.parametrize("edge", [(0.5, 0, 0), (1, 1.0, 1), (0, 0, "1"), (0, 0, None), 5,
                                  (True, 0, 0), (0, 1, False), (np.True_, 1, 1)], ids=repr)
def test_constructor_rejects_vertices_that_are_not_integers(edge):
    with pytest.raises(ValueError, match=re.escape(f"edge {edge} out of range")):
        TripartiteHypergraph((2, 2, 2), (edge, (1, 1, 1)))


@pytest.mark.parametrize("edges", [
    [[0, 0, 0], [1, 1, 1]],
    (np.array([0, 0, 0]), np.array([1, 1, 1])),
    np.array([[0, 0, 0], [1, 1, 1]]),
    ((np.int64(0), np.uint8(0), 0), (1, np.int32(1), 1)),
], ids=["lists", "arrays", "2-D array", "numpy ints"])
def test_constructor_stores_edges_as_int_tuples(edges):
    h = TripartiteHypergraph((2, 2, 2), edges)
    assert h.edges == ((0, 0, 0), (1, 1, 1))
    assert {type(v) for e in h.edges for v in e} == {int}
    assert max_matching_exact(h) == ((0, 1), True)


def test_max_matching_exact_on_no_edges():
    empty = TripartiteHypergraph((1, 1, 1), ())
    assert max_matching_exact(empty) == ((), True)
    assert max_matching_exact(empty, budget=0) == ((), False)  # no node may run


def test_max_matching_budget_flag():
    h = blow_up(alon_kim(2), 2)
    matching, optimal = max_matching_exact(h, budget=5)
    assert not optimal
    assert len(matching) >= 1  # greedy incumbent is still returned
