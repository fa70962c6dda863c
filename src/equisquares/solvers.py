"""Structure-free transversal solvers: exhaustive oracle, branch-and-bound
exact search, randomized greedy, local-search improvement, and repeated
extraction of disjoint transversals.

A transversal is a matching in the square's 3-partite hypergraph on rows,
columns and symbols, so one branch-and-bound over tripartite edge lists
serves both `exact_max` and `hypergraph.max_matching_exact`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .squares import Cell, EquiNSquare, Transversal, validate_transversal


class TooLarge(ValueError):
    pass


_BRUTE_LIMIT = 7


def brute_force_max(square: EquiNSquare) -> tuple[int, Transversal]:
    """Exhaustive maximum over all partial transversals; n <= 7 enforced.

    Plain depth-first enumeration in row order with no pruning beyond
    feasibility, kept independent of exact_max so the two can cross-check.
    """
    n = square.n
    if n > _BRUTE_LIMIT:
        raise TooLarge(f"n={n} exceeds the exhaustive-search limit {_BRUTE_LIMIT}")
    grid = [[int(x) for x in row] for row in square.grid]
    best_cells: list[Cell] = []
    chosen: list[Cell] = []

    def rec(row: int, used_cols: int, used_syms: int):
        nonlocal best_cells
        if len(chosen) > len(best_cells):
            best_cells = list(chosen)
        if row == n:
            return
        rec(row + 1, used_cols, used_syms)  # skip this row
        for col in range(n):
            if used_cols >> col & 1:
                continue
            s = grid[row][col]
            if used_syms >> s & 1:
                continue
            chosen.append(Cell(row, col))
            rec(row + 1, used_cols | 1 << col, used_syms | 1 << s)
            chosen.pop()

    rec(0, 0, 0)
    t = validate_transversal(square, best_cells)
    return t.size, t


def _twin_classes(keys: list) -> tuple[list[int], list[int], int]:
    """Classes of equal keys: per index its class (classes numbered in order
    of their first index) and the bitmask of the later indices in it; and
    the bitmask of the first index of every class."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    ids, later = [0] * len(keys), [0] * len(keys)
    for k, group in enumerate(groups.values()):
        for pos, i in enumerate(group):
            ids[i] = k
            later[i] = sum(1 << g for g in group[pos + 1:])
    return ids, later, sum(1 << group[0] for group in groups.values())


def _max_tripartite_matching(
    class_sizes: tuple[int, int, int],
    edges,
    node_budget: int | None,
) -> tuple[list[tuple[int, int, int]], bool]:
    """Branch-and-bound maximum matching of a 3-partite 3-uniform hypergraph.

    Classes 0, 1 and 2 play rows, columns and symbols; the edges on one row
    and column form a cell, which may carry several symbols.  Depth-first
    over rows in most-constrained order, tracking per row the columns with
    a free symbol and the symbols with a free column as bitmasks.  Prunes
    on live rows and on the free-column and free-symbol unions.  The
    incumbent starts as the row-major greedy matching.  Returns (chosen
    (row, col, symbol) triples, optimal); the budget counts search nodes,
    and once it is exhausted the incumbent is returned with optimal=False.

    Twins.  Two rows are twins when they have the same symbols in every
    column, two columns when they have the same symbols in every row, and
    two symbols when they sit on the same (row, column) cells.  Swapping two
    twins maps the hypergraph onto itself, so the search explores each orbit
    of matchings under these swaps once.  The slot of an edge (r, j, s) is
    the pair (class of j, class of s), ordered lexicographically; no swap
    changes any edge's slot.  The rules are:
      (R) twin rows are branched in index order; skipping a row drops its
          later twins, and a row may not take a slot smaller than the slot
          its last used earlier twin took;
      (C) a column is not branched while an earlier twin of it is free;
      (S) a symbol is not branched while an earlier twin of it is free.
    Twin rows keep equal column and symbol masks while both are unused, so
    the most-constrained choice meets them in index order.

    Why no optimum is lost: call a matching M fitting a node, whose chosen
    set is P, if M contains P, uses no row the node has dropped, and in
    each row class uses a prefix of the rows in index order with slots that
    never decrease along it.  Row swaps sort any maximum matching into this
    form, so some maximum matching fits the root.  Let M fit a node that
    branches row r.  If M does not use r it uses no later twin of r either,
    and M fits the skip child.  If M uses (r, j, s), let j0 and s0 be the
    first free members of the classes of j and of s; swapping j with j0
    and s with s0 fixes P (all four are unused by P) and every slot, so the
    image M' still fits and uses (r, j0, s0), which passes (C) and (S).
    Rule (R) passes too: r's earlier twins are all in P, and the last of
    them took a slot no larger than r's slot in M', since M' fits.  So M'
    fits the child that chooses (r, j0, s0).  Bounds prune only nodes with
    no extension larger than the incumbent, and a fitting maximum matching
    ends at a leaf as P itself.  Without twins every class is a singleton
    and no rule removes a branch.
    """
    n_rows, n_cols, n_syms = class_sizes
    cell_sets = [[set() for _ in range(n_cols)] for _ in range(n_rows)]
    carrying = [dict() for _ in range(n_rows)]  # per row: symbol -> columns carrying it
    for r, c, s in edges:
        cell_sets[r][c].add(s)
        carrying[r][s] = carrying[r].get(s, 0) | 1 << c
    syms = [[tuple(sorted(ss)) for ss in row] for row in cell_sets]
    sym_mask = [[sum(1 << s for s in ss) for ss in row] for row in syms]
    multi = [sum(1 << c for c, ss in enumerate(row) if len(ss) > 1) for row in syms]
    only = [{s: cols & ~multi[r] for s, cols in carrying[r].items()} for r in range(n_rows)]

    # Rules (C) and (S) as masks: a column (symbol) is open once its earlier
    # twins are all used, so taking one opens its next twin.
    col_class, later_cols, first_cols = _twin_classes(
        [tuple(row[c] for row in syms) for c in range(n_cols)])
    sym_class, later_syms, first_syms = _twin_classes(
        [tuple(row.get(s, 0) for row in carrying) for s in range(n_syms)])
    next_col = [m & -m for m in later_cols]
    next_sym = [m & -m for m in later_syms]
    _, later_rows, first_rows = _twin_classes([tuple(row) for row in syms])
    next_row = [(m & -m).bit_length() - 1 for m in later_rows]
    # Rule (R) concerns only rows with a twin; the others skip its slot work.
    twinned = [bool(later_rows[r]) or not first_rows >> r & 1 for r in range(n_rows)]
    n_sym_classes = max(sym_class, default=0) + 1
    col_slot = [k * n_sym_classes for k in col_class]
    # floor[r]: the least slot row r may take, set when its previous twin is used.
    floor = [0] * n_rows

    best: list[tuple[int, int, int]] = []
    used_cols = used_syms = 0
    for r in range(n_rows):
        hit = next(((c, s) for c, ss in enumerate(syms[r]) for s in ss
                    if not (used_cols >> c | used_syms >> s) & 1), None)
        if hit is not None:
            c, s = hit
            best.append((r, c, s))
            used_cols |= 1 << c
            used_syms |= 1 << s

    nodes = 0
    out_of_budget = False

    def search(rows_left: list[int], avail: dict[int, int], sym_avail: dict[int, int],
               open_cols: int, open_syms: int, chosen: list[tuple[int, int, int]]):
        nonlocal best, nodes, out_of_budget
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            out_of_budget = True
            return
        size = len(chosen)
        if size > len(best):
            best = list(chosen)
        live = [r for r in rows_left if avail[r]]
        if not live:
            return
        gap = len(best) - size
        if len(live) <= gap:
            return
        union_cols = 0
        union_syms = 0
        for r in live:
            union_cols |= avail[r]
            union_syms |= sym_avail[r]
        if min(union_cols.bit_count(), union_syms.bit_count()) <= gap:
            return
        _, row = min((avail[r].bit_count(), r) for r in live)
        mask = avail[row] & open_cols
        open_row_syms = sym_avail[row] & open_syms
        rest = [r for r in live if r != row]
        ranked = twinned[row]
        if ranked:
            twin = next_row[row]
            lo = floor[row]
        while mask:
            jbit = mask & -mask
            mask &= mask - 1
            j = jbit.bit_length() - 1
            for s in syms[row][j]:
                sbit = 1 << s
                if not open_row_syms & sbit:
                    continue
                if ranked:
                    slot = col_slot[j] + sym_class[s]
                    if slot < lo:
                        continue  # rule (R)
                    if twin >= 0:
                        floor[twin] = slot
                avail2 = {}
                sym_avail2 = {}
                for r in rest:
                    # A column leaves row r once its last free symbol is taken.
                    a = avail[r] & ~(jbit | only[r].get(s, 0))
                    sa = sym_avail[r] & ~sbit
                    several = a & multi[r]
                    while several:
                        c = (several & -several).bit_length() - 1
                        several &= several - 1
                        if not sym_mask[r][c] & sa:
                            a &= ~(1 << c)
                    for t in syms[r][j]:
                        if t != s and sa >> t & 1 and not a & carrying[r][t]:
                            sa &= ~(1 << t)
                    avail2[r] = a
                    sym_avail2[r] = sa
                chosen.append((row, j, s))
                search(rest, avail2, sym_avail2, open_cols | next_col[j],
                       open_syms | next_sym[s], chosen)
                chosen.pop()
                if out_of_budget:
                    return
        # Skip branch: rule (R) drops the later twins too.
        twins = later_rows[row]
        rest2 = [r for r in rest if not twins >> r & 1] if twins else rest
        search(rest2, avail, sym_avail, open_cols, open_syms, chosen)

    avail = {r: sum(1 << c for c, ss in enumerate(syms[r]) if ss) for r in range(n_rows)}
    sym_avail = {r: sum(1 << s for s in carrying[r]) for r in range(n_rows)}
    search(list(range(n_rows)), avail, sym_avail, first_cols, first_syms, [])
    return best, not out_of_budget


def exact_max(
    square: EquiNSquare, node_budget: int | None = None
) -> tuple[Transversal, bool]:
    """Maximum transversal: `_max_tripartite_matching` on the n^2 cells.

    Twin rows and twin columns (equal as sequences of symbols) are searched
    once per orbit, as that function's docstring proves sound; box squares
    such as `counterexample_square(18)`, with 6 distinct rows and columns,
    are proved in about 10^5 nodes.  The budget counts search nodes, so
    runs are deterministic; if it is exhausted the incumbent is returned
    with optimal=False.
    """
    n = square.n
    edges = [(i, j, s) for i, row in enumerate(square.grid.tolist()) for j, s in enumerate(row)]
    triples, optimal = _max_tripartite_matching((n, n, n), edges, node_budget)
    return validate_transversal(square, [(r, c) for r, c, _ in triples]), optimal


def _masked_greedy(
    grid: np.ndarray, n: int, allowed: np.ndarray, rng: np.random.Generator
) -> list[Cell]:
    """Keep, in the order of one random permutation, every allowed cell that fits.

    The permutation is walked in chunks of n, 2n, 4n, ... cells.  Numpy
    masks drop every cell of a chunk that `allowed` forbids or whose row,
    column or symbol is taken at the chunk's start.  Such a cell stays
    blocked for the rest of the scan, so resolving the survivors in order
    gives exactly the cells of a cell-by-cell scan.
    """
    order = rng.permutation(n * n)
    symbols = grid.ravel()
    ok = allowed.ravel()
    used_row = np.zeros(n, dtype=bool)
    used_col = np.zeros(n, dtype=bool)
    used_sym = np.zeros(n, dtype=bool)
    cells: list[Cell] = []
    start, size = 0, n
    while start < n * n and len(cells) < n:
        idx = order[start:start + size]
        idx = idx[~used_row[idx // n]]
        idx = idx[ok[idx] & ~used_col[idx % n]]
        syms = symbols[idx]
        fits = ~used_sym[syms]
        new_rows: set[int] = set()
        new_cols: set[int] = set()
        new_syms: set[int] = set()
        for f, s in zip(idx[fits].tolist(), syms[fits].tolist()):
            i, j = divmod(f, n)
            if i in new_rows or j in new_cols or s in new_syms:
                continue
            cells.append(Cell(i, j))
            new_rows.add(i)
            new_cols.add(j)
            new_syms.add(s)
        used_row[list(new_rows)] = True
        used_col[list(new_cols)] = True
        used_sym[list(new_syms)] = True
        start += size
        size *= 2
    return cells


def random_greedy(square: EquiNSquare, rng: np.random.Generator) -> Transversal:
    """Scan the cells in random order, keeping every cell that still fits.

    The result is maximal but usually not maximum; on random squares it
    covers most of n (a mean of about 0.94 n at n = 100, 0.96 n at n = 400).
    The scan runs chunk by chunk over one `rng.permutation(n * n)`; for the
    same generator it returns the same cells, and leaves the generator in
    the same state, as a cell-by-cell scan of that permutation.
    """
    allowed = np.ones((square.n, square.n), dtype=bool)
    cells = _masked_greedy(square.grid, square.n, allowed, rng)
    return validate_transversal(square, cells)


_DRAW_CHUNK = 1 << 16  # local search draws its cell indices this many at a time


def _draws(rng: np.random.Generator, high: int, count: int):
    """count values of rng.integers(0, high) in bounded memory: the same values,
    and the same final generator state, as one call per value.  Each chunk is
    drawn when the one before it runs out."""
    return itertools.chain.from_iterable(
        rng.integers(0, high, size=min(_DRAW_CHUNK, count - done)).tolist()
        for done in range(0, count, _DRAW_CHUNK))


def _masked_local_search(
    grid: np.ndarray,
    n: int,
    allowed: np.ndarray,
    start: list[Cell],
    rng: np.random.Generator,
    iterations: int,
) -> list[Cell]:
    # Cells are flat indices i*n + j; owner_* hold the index of the cell
    # that takes a row, column or symbol, or -1.
    symbols = grid.ravel()
    sym = symbols.tolist()
    ok_list = allowed.ravel().tolist()
    # Allowed cells grouped by symbol, row-major within each symbol.
    candidates = np.flatnonzero(allowed)
    by_symbol = candidates[np.argsort(symbols[candidates], kind="stable")]
    bounds = np.concatenate(
        ([0], np.cumsum(np.bincount(symbols[candidates], minlength=n)))
    ).tolist()

    owner_row = [-1] * n
    owner_col = [-1] * n
    owner_sym = [-1] * n

    def insert(f: int):
        i, j = divmod(f, n)
        owner_row[i] = owner_col[j] = owner_sym[sym[f]] = f

    def admissible(f: int) -> bool:
        i, j = divmod(f, n)
        return ok_list[f] and owner_row[i] < 0 and owner_col[j] < 0 and owner_sym[sym[f]] < 0

    for cell in start:
        insert(cell.row * n + cell.col)

    for f in _draws(rng, n * n, iterations):
        if not ok_list[f]:
            continue
        i, j = divmod(f, n)
        s = sym[f]
        a, b, c = owner_row[i], owner_col[j], owner_sym[s]
        victim = max(a, b, c)
        if victim < 0:
            insert(f)
            continue
        # A move swaps out exactly one cell, and never the drawn one.
        if victim == f or a not in (-1, victim) or b not in (-1, victim) or c not in (-1, victim):
            continue
        vi, vj = divmod(victim, n)
        vs = sym[victim]
        owner_row[vi] = owner_col[vj] = owner_sym[vs] = -1
        insert(f)
        # Try to refill from the resources the swap freed.
        refill = -1
        if vi != i and owner_row[vi] < 0:
            refill = next((g for g in range(vi * n, vi * n + n) if admissible(g)), -1)
        if refill < 0 and vj != j and owner_col[vj] < 0:
            refill = next((g for g in range(vj, n * n, n) if admissible(g)), -1)
        if refill < 0 and vs != s and owner_sym[vs] < 0:
            group = by_symbol[bounds[vs]:bounds[vs + 1]].tolist()
            refill = next((g for g in group if admissible(g)), -1)
        if refill >= 0:
            insert(refill)

    return [Cell(*divmod(f, n)) for f in owner_row if f >= 0]


def local_search(
    square: EquiNSquare,
    transversal: Transversal,
    rng: np.random.Generator,
    iterations: int,
) -> Transversal:
    """Improve a transversal with one-out, up-to-two-in random swaps.

    The size never decreases: each accepted move removes at most one cell
    and inserts at least one.  The cells that the iterations try are drawn
    from `rng.integers(0, n * n)` in chunks of fixed size; for the same
    generator this gives the same cells, and leaves the generator in the
    same state, as one call per iteration.
    """
    validate_transversal(square, transversal.cells)
    allowed = np.ones((square.n, square.n), dtype=bool)
    cells = _masked_local_search(
        square.grid, square.n, allowed, list(transversal.cells), rng, iterations
    )
    out = validate_transversal(square, cells)
    if out.size < transversal.size:
        raise AssertionError(f"local search shrank a transversal from {transversal.size} to {out.size}")
    return out


def peel_decomposition(
    square: EquiNSquare,
    rng: np.random.Generator,
    min_size: int,
) -> list[Transversal]:
    """Repeatedly extract disjoint transversals of size >= min_size.

    Each layer is found by randomized greedy plus 40 n steps of local
    search restricted to cells unused by earlier layers; extraction stops
    once 8 consecutive tries fail to reach min_size.
    """
    n = square.n
    if not 1 <= min_size <= n:
        raise ValueError(f"min_size {min_size} is outside [1, n={n}]")
    allowed = np.ones((n, n), dtype=bool)
    layers: list[Transversal] = []
    while True:
        found = None
        for _ in range(8):
            start = _masked_greedy(square.grid, n, allowed, rng)
            cells = _masked_local_search(square.grid, n, allowed, start, rng, 40 * n)
            if len(cells) >= min_size:
                found = cells
                break
        if found is None:
            break
        layer = validate_transversal(square, found)
        layers.append(layer)
        for c in layer.cells:
            allowed[c.row, c.col] = False
    return layers
