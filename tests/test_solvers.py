import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from equisquares import solvers
from equisquares.constructions import (
    TooSmall,
    counterexample_square,
    cyclic_latin,
    random_equi_square,
)
from equisquares.hypergraph import (
    TripartiteHypergraph,
    alon_kim,
    blow_up,
    from_square,
    max_matching_exact,
)
from equisquares.solvers import (
    TooLarge,
    _masked_greedy,
    _masked_local_search,
    brute_force_max,
    exact_max,
    local_search,
    peel_decomposition,
    random_greedy,
)
from equisquares.squares import Cell, Transversal, validate_square, validate_transversal


# Sequential reference loops: one cell, or one rng.integers call, per step.
# The solvers must return the same cells and leave the rng in the same state.

def reference_masked_greedy(grid, n, allowed, rng):
    order = rng.permutation(n * n)
    used_row = np.zeros(n, dtype=bool)
    used_col = np.zeros(n, dtype=bool)
    used_sym = np.zeros(n, dtype=bool)
    cells = []
    for idx in order:
        i, j = divmod(int(idx), n)
        if not allowed[i, j] or used_row[i] or used_col[j]:
            continue
        s = grid[i, j]
        if used_sym[s]:
            continue
        cells.append(Cell(i, j))
        used_row[i] = used_col[j] = used_sym[s] = True
    return cells


def reference_masked_local_search(grid, n, allowed, start, rng, iterations):
    by_symbol = {}
    for i in range(n):
        for j in range(n):
            if allowed[i, j]:
                by_symbol.setdefault(int(grid[i, j]), []).append((i, j))
    owner_row = [None] * n
    owner_col = [None] * n
    owner_sym = [None] * n

    def insert(cell):
        owner_row[cell.row] = owner_col[cell.col] = cell
        owner_sym[int(grid[cell.row, cell.col])] = cell

    def remove(cell):
        owner_row[cell.row] = owner_col[cell.col] = None
        owner_sym[int(grid[cell.row, cell.col])] = None

    def admissible(i, j):
        return (allowed[i, j] and owner_row[i] is None and owner_col[j] is None
                and owner_sym[int(grid[i, j])] is None)

    for cell in start:
        insert(cell)
    for _ in range(iterations):
        i, j = divmod(int(rng.integers(0, n * n)), n)
        if not allowed[i, j]:
            continue
        s = int(grid[i, j])
        conflicts = {c for c in (owner_row[i], owner_col[j], owner_sym[s]) if c is not None}
        if not conflicts:
            insert(Cell(i, j))
            continue
        if len(conflicts) > 1:
            continue
        victim = conflicts.pop()
        if victim == Cell(i, j):
            continue
        remove(victim)
        insert(Cell(i, j))
        vs = int(grid[victim.row, victim.col])
        gained = False
        if victim.row != i and owner_row[victim.row] is None:
            for jj in range(n):
                if admissible(victim.row, jj):
                    insert(Cell(victim.row, jj))
                    gained = True
                    break
        if not gained and victim.col != j and owner_col[victim.col] is None:
            for ii in range(n):
                if admissible(ii, victim.col):
                    insert(Cell(ii, victim.col))
                    gained = True
                    break
        if not gained and vs != s and owner_sym[vs] is None:
            for (ii, jj) in by_symbol.get(vs, ()):
                if admissible(ii, jj):
                    insert(Cell(ii, jj))
                    break
    return [c for c in owner_row if c is not None]


def reference_peel(square, rng, min_size, layer_attempts=8):
    n = square.n
    allowed = np.ones((n, n), dtype=bool)
    layers = []
    while True:
        found = None
        for _ in range(layer_attempts):
            start = reference_masked_greedy(square.grid, n, allowed, rng)
            cells = reference_masked_local_search(square.grid, n, allowed, start, rng, 40 * n)
            if len(cells) >= min_size:
                found = cells
                break
        if found is None:
            return layers
        layers.append(validate_transversal(square, found))
        for c in found:
            allowed[c.row, c.col] = False


EQUIVALENCE_SQUARES = [
    *(("random", n, random_equi_square(n, 10 + n)) for n in (1, 2, 5, 10, 37)),
    *(("counterexample", n, counterexample_square(n)[0]) for n in (8, 26)),
    *(("cyclic", n, cyclic_latin(n)) for n in (1, 2, 12)),
]


@pytest.mark.parametrize("kind,n,square", EQUIVALENCE_SQUARES,
                         ids=[f"{k}{n}" for k, n, _ in EQUIVALENCE_SQUARES])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_loops_match_sequential_reference(kind, n, square, masked):
    for seed in range(3):
        mask_rng = np.random.default_rng(100 + seed)
        allowed = mask_rng.random((n, n)) < 0.7 if masked else np.ones((n, n), dtype=bool)
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        cells = _masked_greedy(square.grid, n, allowed, ours)
        assert cells == reference_masked_greedy(square.grid, n, allowed, ref)
        assert ours.bit_generator.state == ref.bit_generator.state
        for start, iterations in ((cells, 40 * n), ([], 40 * n), (cells, 0), ([], 7)):
            got = _masked_local_search(square.grid, n, allowed, list(start), ours, iterations)
            want = reference_masked_local_search(square.grid, n, allowed, list(start), ref, iterations)
            assert got == want, (seed, len(start), iterations)
            assert ours.bit_generator.state == ref.bit_generator.state


class _CountingRng:
    """A generator that records the size of every integers() draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_local_search_draws_in_chunks_like_reference(monkeypatch, chunk):
    monkeypatch.setattr(solvers, "_DRAW_CHUNK", chunk)
    for square in (counterexample_square(8)[0], random_equi_square(10, 3)):
        n = square.n
        allowed = np.ones((n, n), dtype=bool)
        for seed, iterations in enumerate((0, chunk - 1, chunk, chunk + 1, 3 * chunk + 2, 40 * n)):
            ours, ref = _CountingRng(seed), np.random.default_rng(seed)
            start = _masked_greedy(square.grid, n, allowed, ours.rng)
            reference_masked_greedy(square.grid, n, allowed, ref)
            got = _masked_local_search(square.grid, n, allowed, list(start), ours, iterations)
            want = reference_masked_local_search(square.grid, n, allowed, list(start), ref, iterations)
            assert got == want, (n, iterations)
            assert ours.rng.bit_generator.state == ref.bit_generator.state
            assert sum(ours.sizes) == iterations and max(ours.sizes, default=0) <= chunk


def test_peel_layers_match_sequential_reference():
    sq = random_equi_square(24, 9)
    ours, ref = np.random.default_rng(2), np.random.default_rng(2)
    assert peel_decomposition(sq, ours, 20) == reference_peel(sq, ref, 20)
    assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("window", [1, 2, None], ids=["window1", "window2", "default"])
def test_screened_loop_matches_reference_on_masked_squares(monkeypatch, window):
    # At n >= 64 the refills scan the victim's row, its column and its
    # symbol's cells with numpy masks; windows of 1 and 2 draws screen
    # again after almost every draw.
    if window is not None:
        monkeypatch.setattr(solvers, "_SCREEN_WINDOW", window)
    for square in (random_equi_square(64, 5), counterexample_square(64)[0]):
        n = square.n
        for seed in range(2):
            allowed = np.random.default_rng(300 + seed).random((n, n)) < 0.8
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            start = _masked_greedy(square.grid, n, allowed, ours)
            assert start == reference_masked_greedy(square.grid, n, allowed, ref)
            for cells in (start, []):
                got = _masked_local_search(square.grid, n, allowed, list(cells), ours, 40 * n)
                want = reference_masked_local_search(square.grid, n, allowed, list(cells), ref, 40 * n)
                assert got == want, (n, seed, len(cells))
                assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_full_transversal_start_is_kept(masked):
    # Every row and column is taken, so the screen drops every draw.
    n = 65
    square = cyclic_latin(n)
    start = [Cell(i, i) for i in range(n)]  # symbols 2i mod n, distinct for odd n
    allowed = np.random.default_rng(4).random((n, n)) < 0.5 if masked else np.ones((n, n), dtype=bool)
    allowed[np.arange(n), np.arange(n)] = True
    ours, ref = np.random.default_rng(6), np.random.default_rng(6)
    got = _masked_local_search(square.grid, n, allowed, list(start), ours, 40 * n)
    assert got == reference_masked_local_search(square.grid, n, allowed, list(start), ref, 40 * n)
    assert got == start
    assert ours.bit_generator.state == ref.bit_generator.state


def test_local_search_rejects_negative_iterations():
    sq = cyclic_latin(3)
    t = validate_transversal(sq, [(0, 0)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="negative"):
        local_search(sq, t, rng, -1)
    assert rng.bit_generator.state == state
    assert local_search(sq, t, rng, 0) == t


def test_brute_force_trivial_and_limit():
    assert brute_force_max(validate_square(1, [[0]]))[0] == 1
    with pytest.raises(TooLarge):
        brute_force_max(cyclic_latin(8))


def test_brute_force_cyclic_values():
    assert brute_force_max(cyclic_latin(2))[0] == 1
    assert brute_force_max(cyclic_latin(3))[0] == 3
    size, t = brute_force_max(cyclic_latin(5))
    assert size == 5
    validate_transversal(cyclic_latin(5), t.cells)


def test_exact_matches_brute_on_randoms():
    for n in (4, 5, 6):
        for seed in range(40):
            sq = random_equi_square(n, seed)
            bsize, _ = brute_force_max(sq)
            t, optimal = exact_max(sq)
            assert optimal
            assert t.size == bsize, (n, seed)
            validate_transversal(sq, t.cells)
            assert t.size == len(max_matching_exact(from_square(sq))[0])


def twin_square(n, row_group, col_group, rng):
    """An equi-n-square whose rows come in twin groups of row_group and whose
    columns come in twin groups of col_group, rows and columns shuffled."""
    shape = (n // row_group, n // col_group)
    base = rng.permutation(np.repeat(np.arange(n), shape[0] * shape[1] // n)).reshape(shape)
    grid = np.repeat(np.repeat(base, row_group, axis=0), col_group, axis=1)
    return validate_square(n, grid[rng.permutation(n)][:, rng.permutation(n)])


def test_exact_matches_brute_on_twin_squares():
    # Rows, columns or both come in twin groups.  The greedy incumbent
    # (node_budget=1) misses the optimum on some squares, so there the
    # search itself has to find it.
    greedy_short = 0
    for n, row_group, col_group in [(4, 2, 1), (4, 1, 2), (4, 2, 2), (4, 4, 1), (6, 2, 1),
                                    (6, 3, 1), (6, 1, 3), (6, 2, 3), (6, 3, 2), (6, 6, 1)]:
        rng = np.random.default_rng(100 * n + 10 * row_group + col_group)
        for _ in range(15):
            sq = twin_square(n, row_group, col_group, rng)
            best = brute_force_max(sq)[0]
            t, optimal = exact_max(sq)
            assert optimal
            assert t.size == best, sq.grid.tolist()
            validate_transversal(sq, t.cells)
            greedy_short += exact_max(sq, node_budget=1)[0].size < best
    assert greedy_short >= 20


def test_twin_classes_prove_box_squares_within_small_budgets():
    # Twin rows, columns and symbols are each searched once.  Without the
    # twin-row slot order the order-18 square needs about 3e7 nodes.
    t, optimal = exact_max(counterexample_square(18)[0], node_budget=10**6)
    assert optimal and t.size == 16
    matching, optimal = max_matching_exact(alon_kim(4), budget=10**5)
    assert optimal and len(matching) == 8


def milp_max_matching(h):
    """Edge indices of a maximum matching of h by HiGHS, through scipy's
    milp: one binary x per edge and each vertex covered at most once.  An
    oracle that shares nothing with the branch-and-bound; x is rounded at
    0.5 and the callers validate what it picks."""
    edges = np.array(h.edges, dtype=np.int64).reshape(-1, 3)
    offsets = np.cumsum((0,) + h.class_sizes[:2])
    cover = np.zeros((sum(h.class_sizes), len(edges)))
    for cls in range(3):
        cover[offsets[cls] + edges[:, cls], np.arange(len(edges))] = 1
    res = milp(-np.ones(len(edges)), constraints=LinearConstraint(cover, 0, 1),
               integrality=np.ones(len(edges)), bounds=Bounds(0, 1))
    assert res.status == 0  # proved optimal
    chosen = np.flatnonzero(res.x > 0.5).tolist()
    assert len(chosen) == round(-res.fun)
    return chosen


def test_exact_search_matches_milp_above_brute_force_orders():
    rng = np.random.default_rng(89)
    squares = [counterexample_square(n)[0] for n in (8, 10, 16)]
    squares += [cyclic_latin(n) for n in (8, 9, 10)]
    squares += [twin_square(n, row_group, col_group, rng)
                for n, row_group, col_group in [(8, 2, 2), (8, 4, 1), (9, 3, 3), (9, 3, 1)]]
    for sq in squares:
        chosen = milp_max_matching(from_square(sq))
        t = validate_transversal(sq, [divmod(e, sq.n) for e in chosen])  # edge i*n + j is cell (i, j)
        found, optimal = exact_max(sq)
        assert optimal and found.size == t.size, sq.grid.tolist()
    for h in [alon_kim(t) for t in (1, 2, 3, 4)] + [blow_up(alon_kim(2), 2)]:
        chosen = milp_max_matching(h)
        for cls in range(3):
            assert len({h.edges[e][cls] for e in chosen}) == len(chosen)
        matching, optimal = max_matching_exact(h)
        assert optimal and len(matching) == len(chosen)


def random_hypergraph(rng, most):
    """Class sizes in [1, most] and up to 3 * most edges, repeats allowed."""
    sizes = tuple(int(x) for x in rng.integers(1, most + 1, size=3))
    edges = [tuple(int(rng.integers(0, size)) for size in sizes)
             for _ in range(int(rng.integers(0, 3 * most + 1)))]
    return TripartiteHypergraph(sizes, tuple(edges))


def enumerated_even_set_bound(class_sizes, edges):
    """The even-set bound by enumeration: every vertex set that meets each
    edge in 0 or 2 vertices, and every choice of size_c - m uncovered
    vertices per class c."""
    first = (0, class_sizes[0], class_sizes[0] + class_sizes[1])
    masks = [sum(1 << (first[c] + v) for c, v in enumerate(edge)) for edge in edges]
    even = [x for x in range(1 << sum(class_sizes))
            if all((x & mask).bit_count() % 2 == 0 for mask in masks)]
    for m in range(min(class_sizes), -1, -1):
        choices = [itertools.combinations(range(f, f + size), size - m)
                   for f, size in zip(first, class_sizes)]
        for parts in itertools.product(*choices):
            uncovered = sum(1 << v for part in parts for v in part)
            if all((x & uncovered).bit_count() % 2 == x.bit_count() % 2 for x in even):
                return m


def brute_max_matching(h):
    for size in range(min(h.class_sizes), 0, -1):
        for chosen in itertools.combinations(h.edges, size):
            if all(len({e[cls] for e in chosen}) == size for cls in range(3)):
                return size
    return 0


def test_even_set_bound_is_the_missing_colour_bound_on_counterexample_squares():
    orders = 0
    for n in range(8, 65):
        try:
            square, pairing = counterexample_square(n)
        except TooSmall:
            continue
        orders += 1
        bound = solvers._root_bound((n, n, n), from_square(square).edges, n)
        assert bound == min(n, pairing.transversal_bound())
    assert orders == 56


def test_even_set_basis_sets_meet_every_edge_evenly():
    rng = np.random.default_rng(29)
    graphs = [from_square(counterexample_square(n)[0]) for n in (8, 10, 16, 18, 64)]
    graphs += [from_square(cyclic_latin(n)) for n in (6, 8, 10)]
    graphs += [alon_kim(3), blow_up(alon_kim(2), 2)] + [random_hypergraph(rng, 4) for _ in range(50)]
    for h in graphs:
        a, b, _ = h.class_sizes
        sig, k, _ = solvers._even_set_signatures(h.class_sizes, h.edges)
        assert k <= solvers._EVEN_SETS and sig[0] == sig[a] == 0
        for r, j, s in h.edges:
            assert sig[r] ^ sig[a + j] ^ sig[a + b + s] == 0
        # k independent sets: none of them is a sum of others
        pivots = {}
        for i in range(k):
            x = sum(1 << v for v, bits in enumerate(sig) if bits >> i & 1)
            while x and x.bit_length() in pivots:
                x ^= pivots[x.bit_length()]
            assert x
            pivots[x.bit_length()] = x
    assert solvers._even_set_signatures((10, 10, 10), from_square(cyclic_latin(10)).edges)[1] == 1


def test_even_set_bound_matches_enumeration_and_bounds_the_matching_number():
    rng = np.random.default_rng(2029)
    below = 0
    for _ in range(300):
        h = random_hypergraph(rng, 3)
        bound = solvers._root_bound(h.class_sizes, h.edges, min(h.class_sizes))
        assert bound == enumerated_even_set_bound(h.class_sizes, h.edges), h
        best = brute_max_matching(h)
        assert bound >= best
        matching, optimal = max_matching_exact(h)
        assert optimal and len(matching) == best
        below += bound < min(h.class_sizes)
    assert below >= 50


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_even_cyclic_latin_is_proved_at_the_root(n):
    # At n = 2 mod 4 the odd rows, columns and symbols form an even set of
    # 3n/2 vertices, an odd number, so a full transversal would leave it an
    # even number.  At every even n the weights (r, c, -s) mod 2^v, with 2^v
    # the 2-part of n, sum to 2^(v-1) over all vertices, not 0.
    t, optimal = exact_max(cyclic_latin(n), node_budget=1)
    assert optimal and t.size == n - 1
    assert not exact_max(cyclic_latin(n), node_budget=0)[1]


def test_lifted_weights_hold_mod_their_power_of_two():
    rng = np.random.default_rng(31)
    graphs = [from_square(counterexample_square(n)[0]) for n in (8, 10, 16, 18)]
    graphs += [from_square(cyclic_latin(n)) for n in (4, 8, 12, 16)]
    graphs += [alon_kim(3), blow_up(alon_kim(2), 2)] + [random_hypergraph(rng, 4) for _ in range(100)]
    levels = []
    for h in graphs:
        a, b, _ = h.class_sizes
        edges = np.array(h.edges, dtype=np.int64).reshape(-1, 3) + (0, a, a + b)
        found = []
        basis = solvers._even_set_signatures(h.class_sizes, h.edges)
        for weights, k in solvers._lifted_weights(h.class_sizes, h.edges, *basis):
            assert 2 <= k <= solvers._SUM_LEVELS and weights.any(axis=1).all()
            assert not (weights[:, edges].sum(axis=2) % (1 << k)).any()
            assert (weights[:, [0, a]] == 0).all()  # row 0 and column 0 carry no weight
            assert (-(1 << k - 1) <= weights).all() and (weights < 1 << k - 1).all()
            found.append((k, len(weights)))
        levels.append(found)
    # Two of counterexample_square(16)'s level-2 weights, and its level-3
    # weight, sum to 0 over the integers on every cell; they are dropped,
    # not lifted on to 2^_SUM_LEVELS.
    assert levels[2] == [(2, 3), (3, 1)]
    # cyclic_latin(n) keeps one weight up to the 2-part of n
    assert levels[4:8] == [[(2, 1)], [(2, 1), (3, 1)], [(2, 1)], [(2, 1), (3, 1), (4, 1)]]


def test_sum_bound_never_cuts_below_the_matching_number():
    rng = np.random.default_rng(2029)  # the hypergraphs of the even-set enumeration test
    below = sharper = 0
    for _ in range(300):
        h = random_hypergraph(rng, 3)
        bound = solvers._root_bound(h.class_sizes, h.edges, 0)
        assert bound >= brute_max_matching(h), h
        below += bound < min(h.class_sizes)
        sharper += bound < solvers._root_bound(h.class_sizes, h.edges, min(h.class_sizes))
    assert below >= 10 and sharper >= 1


@pytest.mark.parametrize("n", [8, 12])
def test_sum_bound_matches_milp_on_cyclic_latin(n):
    # Parity proves nothing at n = 0 mod 4; the weights mod 2^k prove n - 1.
    h = from_square(cyclic_latin(n))
    assert solvers._root_bound(h.class_sizes, h.edges, n) == n
    assert solvers._root_bound(h.class_sizes, h.edges, 0) == len(milp_max_matching(h)) == n - 1


def test_sum_bound_caps_give_a_weaker_sound_bound(monkeypatch):
    h = from_square(cyclic_latin(16))  # its weight reaches mod 16
    for levels, bound in [(4, 15), (3, 16), (1, 16)]:
        monkeypatch.setattr(solvers, "_SUM_LEVELS", levels)
        assert solvers._root_bound(h.class_sizes, h.edges, 0) == bound


def test_even_set_bound_caps_give_a_weaker_sound_bound(monkeypatch):
    edges = from_square(counterexample_square(18)[0]).edges
    assert solvers._root_bound((18, 18, 18), edges, 18) == 16
    for sets in range(6):  # the order-18 square has 5 basis sets
        monkeypatch.setattr(solvers, "_EVEN_SETS", sets)
        assert 16 <= solvers._root_bound((18, 18, 18), edges, 18) <= 18
    monkeypatch.setattr(solvers, "_EVEN_SETS", 0)  # no basis set: the trivial bound
    assert solvers._root_bound((18, 18, 18), edges, 18) == 18
    monkeypatch.setattr(solvers, "_EVEN_SETS", 16)
    monkeypatch.setattr(solvers, "_EVEN_SET_WORK", 0)  # m = 18 is left untried
    assert solvers._root_bound((18, 18, 18), edges, 18) == 18


@pytest.mark.parametrize("solve,old,new", [
    (lambda b: exact_max(counterexample_square(8)[0], node_budget=b), 79, 8),
    (lambda b: exact_max(counterexample_square(10)[0], node_budget=b), 41, 1),
    (lambda b: exact_max(counterexample_square(16)[0], node_budget=b), 614, 135),
    (lambda b: exact_max(cyclic_latin(6), node_budget=b), 206, 1),
    (lambda b: max_matching_exact(alon_kim(2), budget=b), 49, 1),
    (lambda b: exact_max(cyclic_latin(8), node_budget=b), 2226, 1),
    (lambda b: max_matching_exact(from_square(cyclic_latin(8)), budget=b), 2226, 1),
], ids=["counterexample8", "counterexample10", "counterexample16", "cyclic6", "alon_kim2", "cyclic8",
        "from_square_cyclic8"])
def test_the_even_set_stop_keeps_answers_and_shrinks_trees(monkeypatch, solve, old, new):
    found, optimal = solve(new)
    assert optimal and not solve(new - 1)[1]
    monkeypatch.setattr(solvers, "_root_bound", lambda class_sizes, edges, incumbent: min(class_sizes))
    assert solve(old) == (found, True)  # the search with no root bound
    assert not solve(old - 1)[1]


@pytest.mark.parametrize("solve", [
    lambda: exact_max(counterexample_square(16)[0]),
    lambda: exact_max(cyclic_latin(8)),
    lambda: max_matching_exact(alon_kim(3)),
], ids=["counterexample16", "cyclic8", "alon_kim3"])
def test_the_root_bound_eliminates_once_per_search(monkeypatch, solve):
    # On these three the lift runs, from the same elimination as the parity count.
    calls = []
    eliminate = solvers._even_set_signatures
    monkeypatch.setattr(solvers, "_even_set_signatures", lambda *args: calls.append(1) or eliminate(*args))
    assert solve()[1]
    assert len(calls) == 1


def test_exact_max_counterexample8():
    sq, pairing = counterexample_square(8)
    t, optimal = exact_max(sq)
    assert optimal
    assert t.size <= 7


def test_exact_max_cyclic7_full():
    t, optimal = exact_max(cyclic_latin(7))
    assert optimal and t.size == 7


def test_exact_search_returns_pinned_answers():
    # Which optimum the search returns depends on its branching order and
    # incumbent updates, not on its bounds; these cells pin that behaviour.
    t, optimal = exact_max(counterexample_square(10)[0])
    assert optimal
    assert [tuple(c) for c in t.cells] == [
        (0, 0), (1, 1), (2, 2), (3, 5), (4, 3), (5, 6), (6, 4), (7, 7), (8, 8)]
    t, optimal = exact_max(cyclic_latin(8))
    assert optimal
    assert [tuple(c) for c in t.cells] == [
        (0, 0), (1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7)]
    assert max_matching_exact(alon_kim(2)) == ((0, 9, 13, 22), True)


@pytest.mark.parametrize("square,nodes", [
    (counterexample_square(8)[0], 8),
    (counterexample_square(10)[0], 1),
    (counterexample_square(16)[0], 135),
    (counterexample_square(18)[0], 1),
    (cyclic_latin(8), 1),
    (cyclic_latin(10), 1),
], ids=["counterexample8", "counterexample10", "counterexample16", "counterexample18", "cyclic8",
        "cyclic10"])
def test_exact_search_tree_size_is_pinned(square, nodes):
    # The node count of a full search pins its tree: the branching order,
    # the bounds and the twin rules all change it.
    assert exact_max(square, node_budget=nodes)[1]
    assert not exact_max(square, node_budget=nodes - 1)[1]


@pytest.mark.parametrize("h,nodes", [
    (alon_kim(3), 544),
    (from_square(cyclic_latin(8)), 1),
], ids=["alon_kim3", "from_square_cyclic8"])
def test_hypergraph_exact_search_tree_size_is_pinned(h, nodes):
    assert max_matching_exact(h, budget=nodes)[1]
    assert not max_matching_exact(h, budget=nodes - 1)[1]


@pytest.mark.parametrize("solve,nodes,digest", [
    (lambda b: exact_max(counterexample_square(8)[0], node_budget=b), 8, "a79bfed8bdda6546"),
    (lambda b: exact_max(random_equi_square(7, 3), node_budget=b), 26, "d75ad0c411a9bade"),
    (lambda b: exact_max(random_equi_square(7, 5), node_budget=b), 54, "5b47932ed8ba7610"),
    (lambda b: exact_max(cyclic_latin(6), node_budget=b), 1, "617255fb14efab7c"),
    (lambda b: max_matching_exact(blow_up(alon_kim(2), 2), budget=b), 58, "5b0d481f8643999f"),
    (lambda b: max_matching_exact(alon_kim(2), budget=b), 1, "5e78e591c7b9b9d3"),
], ids=["counterexample8", "random7_3", "random7_5", "cyclic6", "blow_up_alon_kim2", "alon_kim2"])
def test_exact_search_result_at_every_budget_is_pinned(solve, nodes, digest):
    # (cells, optimal) for every budget from 1 to the full tree, digested.
    # Some budgets run out on a skip child that its parent rules out by
    # row counts and counts without calling; that node still spends one
    # unit of budget, so these digests hold only if it is counted.
    results = []
    for budget in range(1, nodes + 1):
        found, optimal = solve(budget)
        if isinstance(found, Transversal):
            found = [tuple(c) for c in found.cells]
        results.append((found, optimal))
    assert hashlib.sha256(repr(results).encode()).hexdigest()[:16] == digest


def test_exact_max_budget_exhaustion_returns_incumbent():
    sq = random_equi_square(7, 3)
    t, optimal = exact_max(sq, node_budget=3)
    assert not optimal
    assert t.size >= 1
    validate_transversal(sq, t.cells)


BUDGET_SOLVES = [lambda b: exact_max(cyclic_latin(6), node_budget=b),
                 lambda b: max_matching_exact(alon_kim(2), budget=b)]


@pytest.mark.parametrize("solve", BUDGET_SOLVES, ids=["exact_max", "max_matching_exact"])
@pytest.mark.parametrize("budget,error", [
    (-1, ValueError),
    (np.int64(-3), ValueError),
    (True, TypeError),
    (False, TypeError),
    (np.True_, TypeError),
    (1.5, TypeError),
    (1.0, TypeError),
    (np.float64(2), TypeError),
    ("3", TypeError),
], ids=["negative", "numpy-negative", "True", "False", "numpy-bool", "float", "integral-float",
        "numpy-float", "str"])
def test_exact_search_refuses_a_budget_that_is_not_a_count(solve, budget, error):
    with pytest.raises(error):
        solve(budget)


@pytest.mark.parametrize("solve", BUDGET_SOLVES, ids=["exact_max", "max_matching_exact"])
@pytest.mark.parametrize("budget,optimal", [
    (0, False), (np.int64(0), False), (1, True), (np.int64(1), True), (np.uint8(1), True), (None, True),
], ids=["zero", "numpy-zero", "one", "numpy-one", "numpy-uint8", "none"])
def test_exact_search_takes_a_count_or_none_as_budget(solve, budget, optimal):
    # Both instances are proved at the root, so one node reports optimal.
    assert solve(budget)[1] is optimal


def reference_search_tables(class_sizes, edges):
    """The search's tables by per-edge loops, as `_max_tripartite_matching`
    built them before `_search_tables`: (edges, masks, twins, slot, greedy)."""
    edges = sorted(set(edges))
    on = [[[] for _ in range(size)] for size in class_sizes]
    keys = [[[] for _ in range(size)] for size in class_sizes]
    for e, edge in enumerate(edges):
        for cls, v in enumerate(edge):
            on[cls][v].append(e)
            keys[cls][v].append(edge[:cls] + edge[cls + 1:])
    masks = []
    for cls_on in on:
        masks.append([])
        for ix in cls_on:
            buf = bytearray((len(edges) + 7) // 8)
            for i in ix:
                buf[i >> 3] |= 1 << (i & 7)
            masks[-1].append(int.from_bytes(buf, "little"))
    twins = []
    for cls_keys in keys:
        groups = {}
        for i, key in enumerate(cls_keys):
            groups.setdefault(tuple(key), []).append(i)
        ids, later = [0] * len(cls_keys), [0] * len(cls_keys)
        for k, group in enumerate(groups.values()):
            for pos, i in enumerate(group):
                ids[i] = k
                later[i] = sum(1 << g for g in group[pos + 1:])
        twins.append((ids, later, sum(1 << group[0] for group in groups.values())))
    col_class, sym_class = twins[1][0], twins[2][0]
    n_sym_classes = max(sym_class, default=0) + 1
    slot = [col_class[j] * n_sym_classes + sym_class[s] for _, j, s in edges]
    greedy = []
    used = [set(), set(), set()]
    for edge in edges:
        if not any(v in vs for v, vs in zip(edge, used)):
            greedy.append(edge)
            for v, vs in zip(edge, used):
                vs.add(v)
    return edges, masks, twins, slot, greedy


def test_search_tables_match_the_per_edge_reference():
    rng = np.random.default_rng(33)
    hypergraphs = [TripartiteHypergraph((0, 3, 2), ()), TripartiteHypergraph((2, 0, 0), ()),
                   TripartiteHypergraph((1, 1, 1), ()), TripartiteHypergraph((4, 1, 3), ((3, 0, 2),) * 3),
                   alon_kim(2), blow_up(alon_kim(1), 3), from_square(counterexample_square(10)[0])]
    while len(hypergraphs) < 200:
        h = random_hypergraph(rng, int(rng.integers(1, 9)))
        if len(hypergraphs) % 4 == 0:  # every edge repeated, in a shuffled order
            order = rng.permutation(2 * len(h.edges)) % max(len(h.edges), 1)
            h = TripartiteHypergraph(h.class_sizes, tuple(h.edges[i] for i in order.tolist()))
        elif len(hypergraphs) % 4 == 1:  # twins in every class
            h = blow_up(h, int(rng.integers(2, 4)))
        hypergraphs.append(h)
    features = dict.fromkeys(["repeat", "unequal", "empty class", "isolated", "twins"], 0)
    for h in hypergraphs:
        edges = np.array(h.edges, dtype=np.int64).reshape(-1, 3)
        tables = solvers._search_tables(h.class_sizes, edges)
        assert tables == reference_search_tables(h.class_sizes, h.edges), h
        degrees = [np.bincount(edges[:, cls], minlength=size) for cls, size in enumerate(h.class_sizes)]
        features["repeat"] += len(set(h.edges)) < len(h.edges)
        features["unequal"] += len(set(h.class_sizes)) > 1
        features["empty class"] += min(h.class_sizes) == 0
        features["isolated"] += any((d == 0).any() for d in degrees)
        features["twins"] += any(len(set(ids)) < len(ids) for ids, _, _ in tables[2])
    assert min(features.values()) >= 2, features


def test_walsh_hadamard_transforms_each_row_by_its_definition():
    rng = np.random.default_rng(5)
    for k in range(5):
        a = rng.integers(-9, 10, size=(3, 1 << k))
        sign = np.array([[(-1) ** bin(w & x).count("1") for x in range(1 << k)] for w in range(1 << k)])
        assert (solvers._walsh_hadamard(a) == a @ sign.T).all()


def test_search_tables_refuse_keys_past_int64():
    h = TripartiteHypergraph((2**21, 2**21, 2**21), ((0, 0, 0),))
    with pytest.raises(TooLarge):
        max_matching_exact(h)


def test_budgeted_exact_max_stays_small_on_large_squares():
    # A table of one E-bit conflict mask per edge would take E^2/8 = 32 MiB
    # here (E = n^2 = 16 384); the search keeps O(n^3) bits of masks.
    square, _ = counterexample_square(128)
    tracemalloc.start()
    try:
        t, optimal = exact_max(square, node_budget=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert not optimal and t.size == 120  # the greedy incumbent


def test_exact_max_invariant_under_permutations():
    rng = np.random.default_rng(17)
    for seed in range(5):
        sq = random_equi_square(5, seed)
        base, _ = exact_max(sq)
        grid = np.asarray(sq.grid)
        pr = rng.permutation(5)
        pc = rng.permutation(5)
        ps = rng.permutation(5)
        permuted = validate_square(5, ps[grid[pr][:, pc]])
        t, optimal = exact_max(permuted)
        assert optimal and t.size == base.size


def test_random_greedy_validity_and_size():
    assert random_greedy(validate_square(1, [[0]]), np.random.default_rng(0)).size == 1
    for seed in range(10):
        sq = random_equi_square(30, seed)
        t = random_greedy(sq, np.random.default_rng(seed))
        validate_transversal(sq, t.cells)
        assert t.size >= 1


def test_random_greedy_is_maximal():
    sq = random_equi_square(12, 3)
    t = random_greedy(sq, np.random.default_rng(4))
    rows = {c.row for c in t.cells}
    cols = {c.col for c in t.cells}
    syms = {sq.symbol(c) for c in t.cells}
    for i in range(12):
        for j in range(12):
            if i not in rows and j not in cols and int(sq.grid[i, j]) not in syms:
                raise AssertionError(f"greedy result missed insertable cell ({i},{j})")


def test_local_search_never_decreases_and_caps_at_max():
    sq = cyclic_latin(3)
    t = validate_transversal(sq, [(0, 0), (1, 1), (2, 2)])
    out = local_search(sq, t, np.random.default_rng(0), 200)
    assert out.size == 3
    for seed in range(10):
        sq = random_equi_square(20, seed)
        start = random_greedy(sq, np.random.default_rng(seed))
        out = local_search(sq, start, np.random.default_rng(seed + 1), 500)
        assert out.size >= start.size
        validate_transversal(sq, out.cells)


def test_local_search_from_empty_reaches_greedy_typical():
    sizes_local, sizes_greedy = [], []
    for seed in range(8):
        sq = random_equi_square(25, seed)
        empty = Transversal(())
        out = local_search(sq, empty, np.random.default_rng(seed), 3000)
        sizes_local.append(out.size)
        sizes_greedy.append(random_greedy(sq, np.random.default_rng(seed)).size)
    assert np.mean(sizes_local) >= np.mean(sizes_greedy) - 1


def test_peel_trivial_and_disjointness():
    layers = peel_decomposition(cyclic_latin(1), np.random.default_rng(0), 1)
    assert len(layers) == 1 and layers[0].size == 1

    sq = random_equi_square(24, 9)
    layers = peel_decomposition(sq, np.random.default_rng(2), 20)
    seen = set()
    for layer in layers:
        validate_transversal(sq, layer.cells)
        assert layer.size >= 20
        assert not seen & set(layer.cells)
        seen |= set(layer.cells)


def test_peel_cyclic7_full_layers():
    layers = peel_decomposition(cyclic_latin(7), np.random.default_rng(1), 7)
    assert 1 <= len(layers) <= 7
    assert all(layer.size == 7 for layer in layers)


def test_peel_min_size_guard():
    for min_size in (-1, 0, 4):
        with pytest.raises(ValueError):
            peel_decomposition(cyclic_latin(3), np.random.default_rng(0), min_size)
