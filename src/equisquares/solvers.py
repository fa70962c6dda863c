"""Structure-free transversal solvers: exhaustive oracle, branch-and-bound
exact search, randomized greedy, local-search improvement, and repeated
extraction of disjoint transversals.

A transversal is a matching in the square's 3-partite hypergraph on rows,
columns and symbols, so one branch-and-bound over tripartite edge lists
serves both `exact_max` and `hypergraph.max_matching_exact`.  Its whole
state is one bitset of the edges still usable; a cell with several
symbols is just several edges.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from math import comb
from operator import xor

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


def _bitset(indices: list[int], size: int) -> int:
    """The int with exactly the bits `indices` set, in one pass over size/8 bytes."""
    buf = bytearray((size + 7) // 8)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


# The even-set bound keeps at most this many basis sets, so its transforms
# have at most 2**16 entries, and it gives up after summing this many terms;
# either cap only weakens the bound.
_EVEN_SETS = 16
_EVEN_SET_WORK = 1 << 20
# The sum bound lifts its weights to at most mod 2**_SUM_LEVELS; the cap
# only weakens it.
_SUM_LEVELS = 12


def _bits(x: int):
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _even_set_signatures(class_sizes: tuple[int, int, int], edges, fixes: list | None = None
                         ) -> tuple[list[int], int]:
    """A basis of the even sets that avoid row 0 and column 0, as one
    signature per vertex (rows, then columns, then symbols): bit i of sig[v]
    says whether v lies in basis set i.  Returns (sig, number of sets), at
    most _EVEN_SETS of them.  Every even set is one of these, plus the
    union of two classes c and c' or nothing; such a union holds
    size_c + size_c' - 2m of the vertices a size-m matching leaves, its own
    parity, so it rules out no m.  A `fixes` list receives, in edge order,
    (e, r, a + j, a + b + s, the solution p below) for each edge e = (r, j, s)
    that breaks a solution; `_lifted_weights` replays them."""
    a, b, _ = class_sizes
    # Even sets are the solutions x over GF(2) of x_r + x_j + x_s = 0, one
    # equation per edge, here with x_0 = x_a = 0.  The solutions so far are
    # a bit matrix kept both ways: bit i of sig[v] and bit v of has[i] say
    # that v lies in solution i.  An edge that solutions d break is imposed
    # by adding the lowest of them, p, to the others and dropping it.
    sig = [1 << v for v in range(sum(class_sizes))]
    sig[0] = sig[a] = 0
    has = list(sig)
    for e, (r, j, s) in enumerate(edges):
        d = sig[r] ^ sig[a + j] ^ sig[a + b + s]
        if d:
            p = (d & -d).bit_length() - 1
            fix = has[p]
            if fixes is not None:
                fixes.append((e, r, a + j, a + b + s, fix))
            x = fix
            while x:  # for v in _bits(fix), inline: this loop is hot
                low = x & -x
                sig[low.bit_length() - 1] ^= d
                x ^= low
            x = d & d - 1
            while x:
                low = x & -x
                has[low.bit_length() - 1] ^= fix
                x ^= low
            has[p] = 0
    kept = [members for members in has if members][:_EVEN_SETS]
    sig = [0] * len(sig)
    for i, members in enumerate(kept):
        for v in _bits(members):
            sig[v] |= 1 << i
    return sig, len(kept)


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """The Walsh-Hadamard transform of a length-2^k array: entry w of the
    result is the sum over x of a[x] * (-1)^(popcount(w & x))."""
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1).reshape(-1)
        h *= 2
    return a


def _krawtchouk(q: int, size: int, b: int) -> int:
    """The coefficient of z^q in (1 - z)^b (1 + z)^(size - b)."""
    if 2 * q > size:  # the polynomial is (-1)^b z^size times itself at 1/z
        return (-1) ** b * _krawtchouk(size - q, size, b)
    return sum((-1) ** j * comb(b, j) * comb(size - b, q - j) for j in range(q + 1))


def _even_set_bound(class_sizes: tuple[int, int, int], edges) -> int:
    """The largest m <= min(class_sizes) that parity on even sets allows a
    matching; see `_max_tripartite_matching`.

    With the signatures of `_even_set_signatures`, the parities of a vertex
    set on the basis sets are the XOR of its signatures.  So m is allowed
    when N(m), the number of ways to pick q_c = size_c - m vertices of each
    class c whose signatures XOR to t, the XOR of all signatures, is
    positive.  Fourier analysis over GF(2)^k counts them: at w, picking q
    of a class's vertices transforms to the coefficient of z^q in
    (1 - z)^b (1 + z)^(size - b), where b = b(w) counts the class's
    vertices v with popcount(w & sig[v]) odd.  So 2^k N(m) is the sum over
    w of (-1)^(popcount(w & t)) times the three classes' coefficients.  One
    Walsh-Hadamard transform per class gives every b(w); the sum runs in
    exact integers over the distinct tuples of the three b(w) and the sign.
    Every m from min(class_sizes) down is tried until N(m) > 0; m = 0
    always passes.  Keeping at most _EVEN_SETS basis sets, and stopping at
    an untried m once _EVEN_SET_WORK terms are summed, both give a larger,
    still sound bound.
    """
    low = min(class_sizes)
    if low == 0:
        return 0
    sig, k = _even_set_signatures(class_sizes, edges)
    # Per w: each class's b(w), then whether popcount(w & t) is odd.
    per_w, first = [], 0
    for size in class_sizes:
        histogram = np.bincount(sig[first:first + size], minlength=1 << k)
        per_w.append((size - _walsh_hadamard(histogram)) // 2)
        first += size
    target = np.zeros(1 << k, dtype=np.int64)
    target[reduce(xor, sig, 0)] = 1
    per_w.append(_walsh_hadamard(target) < 0)
    shape = tuple(size + 1 for size in class_sizes) + (2,)
    keys, counts = np.unique(np.ravel_multi_index(per_w, shape), return_counts=True)
    groups = list(zip(*(axis.tolist() for axis in np.unravel_index(keys, shape)), counts.tolist()))
    work = 0
    for m in range(low, 0, -1):
        work += len(groups)
        if work > _EVEN_SET_WORK:
            return m
        coefficient = [{} for _ in class_sizes]
        total = 0
        for *bs, odd, count in groups:
            for cache, size, b in zip(coefficient, class_sizes, bs):
                if b not in cache:
                    cache[b] = _krawtchouk(size - m, size, b)
                count *= cache[b]
            total += -count if odd else count
        if total:
            return m
    return 0


def _orthogonal(vectors, width: int) -> list[int]:
    """A basis, as ints, of the x in GF(2)^width with popcount(x & v) even
    for every v in vectors."""
    rows: dict[int, int] = {}  # reduced row echelon form: pivot bit -> row
    for v in vectors:
        for bit, row in rows.items():
            if v >> bit & 1:
                v ^= row
        if v:
            bit = (v & -v).bit_length() - 1
            for other, row in rows.items():
                if row >> bit & 1:
                    rows[other] = row ^ v
            rows[bit] = v
    return [1 << free | sum(1 << bit for bit, row in rows.items() if row >> free & 1)
            for free in range(width) if free not in rows]


def _lifted_weights(class_sizes: tuple[int, int, int], edges):
    """Yield (weights, k) for k = 2, 3, ...: the rows of the int64 matrix
    are weights w on the vertices (rows, then columns, then symbols) with
    w[r] + w[a + j] + w[a + b + s] = 0 mod 2^k on every edge (r, j, s),
    lifted one power of two at a time from the basis of
    `_even_set_signatures`.

    Level 1 holds the basis sets as 0/1 vectors and level k > 1 holds
    entries in [-2^(k-1), 2^(k-1)), so every edge sums to 0 or +-2^k, and
    its bit k, the carry, marks where w fails mod 2^(k+1).  A weight with no
    carry sums to 0 over the integers, would lift unchanged forever, and is
    dropped.  A combination of the rest, plus 2^k x, holds mod 2^(k+1)
    exactly when A x is the sum of their carries over GF(2), where A is the
    edge-vertex incidence; x may avoid row 0 and column 0, as every A x has
    such an x.  Replaying the elimination's fixes on a weight's carries
    gives an x that meets every edge that broke a solution.  Every other
    edge's equation is a sum of those, so a combination has a solution
    exactly when its residuals (carry + A x, per edge) cancel.  Lifting
    stops when no combination lifts, or at k = _SUM_LEVELS.
    """
    a, b, _ = class_sizes
    fixes: list = []
    sig, k = _even_set_signatures(class_sizes, edges, fixes)
    # The vertex of each edge in rows, then in columns, then in symbols.
    ends = (np.fromiter(chain.from_iterable(edges), np.int64, 3 * len(edges)).reshape(-1, 3).T
            + [[0], [a], [a + b]]).ravel()
    w = np.array(sig) >> np.arange(k)[:, None] & 1
    for level in range(1, _SUM_LEVELS):
        carry = w.take(ends, axis=1).reshape(len(w), 3, len(edges)).sum(axis=1) >> level & 1
        moving = carry.any(axis=1)
        w, carry = w[moving], carry[moving]
        if not len(w):
            return
        ids = np.arange(len(w))[:, None]
        # Bit i of flags[e] and of x[v]: weight i's carry on edge e, and
        # whether its x holds vertex v.
        flags = (carry << ids).sum(axis=0)
        carries = flags.tolist()
        x = [0] * len(sig)
        for e, u, v, z, fix in fixes:
            broken = carries[e] ^ x[u] ^ x[v] ^ x[z]
            if broken:
                for y in _bits(fix):
                    x[y] ^= broken
        x = np.array(x)
        residual = np.bitwise_xor.reduce(x.take(ends).reshape(3, -1)) ^ flags
        lifts = _orthogonal(set(residual.tolist()), len(w))
        if not lifts:
            return
        # 2^level (x_i + x_i') = 2^level (x_i XOR x_i') mod 2^(level + 1).
        take = np.array([[lift >> i & 1 for i in range(len(w))] for lift in lifts])
        w = take @ (w + ((x >> ids & 1) << level))
        w = (w + (1 << level)) % (2 << level) - (1 << level)
        yield w, level + 1


def _turn(x: int, shift: int, q: int) -> int:
    """x, a set of residues mod q as a q-bit int, shifted by `shift` mod q."""
    return (x << shift | x >> (q - shift)) & ((1 << q) - 1)


def _residue_sums(counts: list[int], j: int, q: int) -> int:
    """The residues mod q of the sums of j of some values, as a q-bit int;
    counts[x] of the values are x mod q."""
    reach = [1] + [0] * j  # reach[t]: the sums of t values of the residues so far
    for x, count in enumerate(counts):
        if count:
            for t in range(j, 0, -1):
                for u in range(1, min(count, t) + 1):
                    reach[t] |= _turn(reach[t - u], u * x % q, q)
    return reach[j]


def _sum_bound(class_sizes: tuple[int, int, int], edges, start: int, floor: int = 0) -> int:
    """The largest m <= start for which, for every weight w mod q of
    `_lifted_weights`, some size_c - m vertices of each class c have weights
    summing to the sum of all weights, mod q; see `_max_tripartite_matching`.
    m = 0 always passes.  Lifting stops early once the bound is at most
    `floor`, the size of a known matching, which no sound bound goes below.
    """
    classes = np.repeat(np.arange(3), class_sizes)
    for weights, k in _lifted_weights(class_sizes, edges) if start > floor else ():
        q = 1 << k
        # counts[i][c][x]: the vertices of class c whose weight i is x mod q.
        keys = (np.arange(len(weights))[:, None] * 3 + classes) * q + weights % q
        counts = np.bincount(keys.ravel(), minlength=3 * q * len(weights)).reshape(-1, 3, q).tolist()
        for per_class, total in zip(counts, (weights.sum(axis=1) % q).tolist()):
            for m in range(start, -1, -1):
                r0, r1, r2 = (_residue_sums(c, size - m, q) for c, size in zip(per_class, class_sizes))
                pairs = 0
                for x in _bits(r0):
                    pairs |= _turn(r1, x, q)
                if any(pairs >> (total - x) % q & 1 for x in _bits(r2)):
                    break
            start = m
        if start <= floor:
            break
    return start


def _max_tripartite_matching(
    class_sizes: tuple[int, int, int],
    edges,
    node_budget: int | None,
) -> tuple[list[tuple[int, int, int]], bool]:
    """Branch-and-bound maximum matching of a 3-partite 3-uniform hypergraph.

    Classes 0, 1 and 2 play rows, columns and symbols.  The distinct edges
    are numbered in (row, column, symbol) order, and the search state is
    one bitset `avail` of the edges still usable: choosing an edge clears
    every edge that meets it, and skipping a row clears the row's edges.  A
    cell with several symbols is just several edges.  A node is pruned when
    the rows, the columns or the symbols with an edge in `avail` are too few
    to beat the incumbent.  Otherwise it branches on the live row with the
    fewest usable edges, lowest index on ties: first on each of the row's
    edges in ascending order, then on skipping the row.  The incumbent
    starts as the greedy matching in edge order.  Returns (chosen (row, col,
    symbol) triples, optimal); the budget counts search nodes, and once it
    is exhausted the incumbent is returned with optimal=False.

    Live lists.  A vertex with no edge in `avail` never gets one back, so a
    node tests only the rows, columns and symbols that still had an edge at
    its parent, and hands the ones that still have one to its children: its
    work scales with the live vertices, not with the class sizes.  One pass
    over those rows counts each row's usable edges once and keeps the live
    rows and the branching row.  Columns and symbols travel as their edge
    bitsets, not their indices, so `filter(avail.__and__, ...)` keeps the
    live ones in C; the branching reads j and s off the edge.  The skip
    child keeps its parent's row counts, less the skipped row and its later
    twins.  When those counts already rule it out, the parent counts it as
    one node, against the budget as well, and makes no call.  None of this
    changes which nodes exist or the order they are met in, so the tree,
    the node counts, the result at every budget and the proof below are
    those of the search that tests every vertex at every node.

    Twins.  Two vertices of one class are twins when they lie on the same
    pairs of the other two classes: two rows on the same (column, symbol)
    pairs, two columns on the same (row, symbol) pairs, two symbols on the
    same (row, column) pairs.  Swapping two twins maps the hypergraph onto
    itself, so the search explores each orbit of matchings under these
    swaps once.  The slot of an edge (r, j, s) is the pair (class of j,
    class of s), ordered lexicographically; no swap changes any edge's
    slot.  The rules are:
      (R) twin rows are branched in index order; skipping a row clears the
          edges of its later twins too, and a row may not take a slot
          smaller than the slot its last used earlier twin took;
      (C) an edge is not branched while an earlier twin of its column is free;
      (S) an edge is not branched while an earlier twin of its symbol is free.
    Twin rows keep equal numbers of usable edges while both are unused, so
    the fewest-edges choice meets them in index order.

    Why no optimum is lost: a node has chosen a set P and dropped the rows
    it skipped, with their later twins; `avail` holds exactly the edges
    that meet no edge of P and lie on no dropped row.  Call a matching M
    fitting the node if M contains P, uses no dropped row, and in each row
    class uses a prefix of the rows in index order with slots that never
    decrease along it.  Row swaps sort any maximum matching into this form,
    so some maximum matching fits the root.  Let M fit a node that branches
    row r.  If M does not use r it uses no later twin of r either, and M
    fits the skip child.  If M uses (r, j, s), let j0 and s0 be the first
    members of the classes of j and of s that P leaves free; swapping j
    with j0 and s with s0 fixes P (all four are unused by P) and every
    slot, so the image M' still fits and uses (r, j0, s0), which passes (C)
    and (S), and which is in `avail` because M' is a matching containing P.
    Rule (R) passes too: r's earlier twins are all in P, and the last of
    them took a slot no larger than r's slot in M', since M' fits.  So M'
    fits the child that chooses (r, j0, s0).  The edges of M outside P lie
    in `avail`, so the three counts bound every extension: bounds prune
    only nodes with no extension larger than the incumbent, and a fitting
    maximum matching ends at a leaf as P itself.  Without twins every class
    is a singleton and no rule removes a branch.

    Even sets and sums mod 2^k.  A vertex set X is even when every edge
    meets it in 0 or 2 vertices.  A matching's edges are disjoint, so the
    vertices it leaves uncovered meet X in as many vertices as all vertices
    do, mod 2; a matching of size m leaves size_c - m of them in class c.
    Once, at the root, `_even_set_bound` finds the largest m for which some
    choice of size_c - m vertices per class has that parity on a basis of
    the even sets, and so on all of them: no matching is larger.  The same
    holds for weights w with w(r) + w(j) + w(s) = 0 mod 2^k on every edge
    (r, j, s), of which an even set is the case k = 1: each edge of a
    matching sums to 0, so the vertices it leaves uncovered sum to the sum
    of all vertices, mod 2^k.  Unless the incumbent already reaches the
    even-set bound, `_sum_bound` lowers it to the largest m for which each
    weight of `_lifted_weights`, taken alone, has some choice of size_c - m
    vertices per class with that sum.  The easy half of Hall-Paige is such
    a sum: in cyclic_latin(n) with n even, w = (r, j, -s) mod 2^v, where 2^v
    is the 2-part of n, sums to 2^(v-1) over all vertices, not 0, so no full
    transversal exists; at n = 2 mod 4 this is the even set of the odd
    rows, columns and symbols.  When the bound is below min(class_sizes), the
    search stops as soon as the incumbent reaches it, at the root included;
    otherwise it runs as above.  The incumbent only grows strictly, so the
    first one to reach a sound upper bound is the one the full search
    returns: the answer stays, and the tree is the full search's tree cut
    at that node.  The root counts as one node either way, so budget=0
    never reports optimal.
    """
    edges = sorted(set(edges))
    n_rows = class_sizes[0]
    # on[cls][v]: the indices of the edges on vertex v of class cls;
    # keys[cls][v]: the pairs of the other two classes they join v to.
    on = [[[] for _ in range(size)] for size in class_sizes]
    keys = [[[] for _ in range(size)] for size in class_sizes]
    for e, edge in enumerate(edges):
        for cls, v in enumerate(edge):
            on[cls][v].append(e)
            keys[cls][v].append(edge[:cls] + edge[cls + 1:])
    # The edges on each vertex as a bitset: 3 * (class size) ints of len(edges) bits.
    row_edges, col_edges, sym_edges = ([_bitset(ix, len(edges)) for ix in cls_on] for cls_on in on)

    # Rules (C) and (S) as masks: a column (symbol) is open once its earlier
    # twins are all used, so taking one opens its next twin.
    col_class, later_cols, first_cols = _twin_classes([tuple(k) for k in keys[1]])
    sym_class, later_syms, first_syms = _twin_classes([tuple(k) for k in keys[2]])
    next_col = [m & -m for m in later_cols]
    next_sym = [m & -m for m in later_syms]
    _, later_rows, _ = _twin_classes([tuple(k) for k in keys[0]])
    next_row = [(m & -m).bit_length() - 1 for m in later_rows]
    # skip[r]: the edges of row r and of its later twins.
    skip = list(row_edges)
    for r in reversed(range(n_rows)):
        if next_row[r] >= 0:
            skip[r] |= skip[next_row[r]]
    n_sym_classes = max(sym_class, default=0) + 1
    slot = [col_class[j] * n_sym_classes + sym_class[s] for _, j, s in edges]
    # floor[r]: the least slot row r may take, set when its previous twin is used.
    floor = [0] * n_rows

    best: list[tuple[int, int, int]] = []
    used: list[set[int]] = [set(), set(), set()]
    for edge in edges:
        if not any(v in vs for v, vs in zip(edge, used)):
            best.append(edge)
            for v, vs in zip(edge, used):
                vs.add(v)

    # Below the trivial bound, an incumbent that reaches the even-set bound,
    # or the sum bound under it, is a maximum matching, and the search stops
    # there.  An incumbent already at the even-set bound needs no sum bound.
    bound = _even_set_bound(class_sizes, edges)
    if len(best) < bound:
        bound = _sum_bound(class_sizes, edges, bound, len(best))
    goal = bound if bound < min(class_sizes) else None
    nodes = 0
    out_of_budget = reached = False

    def search(avail: int, open_cols: int, open_syms: int, chosen: list[tuple[int, int, int]],
               rows: list[int], cols: list[int], syms: list[int]):
        # rows: the rows with an edge in the parent's avail, in index order;
        # cols, syms: the edge bitsets of the columns and symbols with one,
        # in index order.  No other vertex has an edge in avail.
        nonlocal best, nodes, out_of_budget, reached
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            out_of_budget = True
            return
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) == goal:
            reached = True
            return
        gap = len(best) - len(chosen)
        # One pass: the live rows, and the one with the fewest usable edges,
        # lowest index on ties.
        live = []
        fewest = len(edges) + 1
        for r in rows:
            k = (avail & row_edges[r]).bit_count()
            if k:
                live.append(r)
                if k < fewest:
                    fewest, row = k, r
        if len(live) <= gap:
            return
        cols = list(filter(avail.__and__, cols))
        if len(cols) <= gap:
            return
        syms = list(filter(avail.__and__, syms))
        if len(syms) <= gap:
            return
        twin = next_row[row]
        mine = avail & row_edges[row]
        live.remove(row)
        while mine:
            bit = mine & -mine
            mine ^= bit
            e = bit.bit_length() - 1
            _, j, s = edges[e]
            if not open_cols >> j & open_syms >> s & 1 or slot[e] < floor[row]:
                continue  # rules (C), (S) and (R)
            if twin >= 0:
                floor[twin] = slot[e]
            chosen.append(edges[e])
            search(avail & ~(row_edges[row] | col_edges[j] | sym_edges[s]),
                   open_cols | next_col[j], open_syms | next_sym[s], chosen, live, cols, syms)
            chosen.pop()
            if out_of_budget or reached:
                return
        # The skip child keeps every count but those of row and its later
        # twins; when they already rule it out, count it without the call.
        if twin >= 0:
            live = [r for r in live if not later_rows[row] >> r & 1]
        if len(live) > len(best) - len(chosen):
            search(avail & ~skip[row], open_cols, open_syms, chosen, live, cols, syms)
        else:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                out_of_budget = True

    search((1 << len(edges)) - 1, first_cols, first_syms, [],
           list(range(n_rows)), col_edges, sym_edges)
    return best, not out_of_budget


def exact_max(
    square: EquiNSquare, node_budget: int | None = None
) -> tuple[Transversal, bool]:
    """Maximum transversal: `_max_tripartite_matching` on the n^2 cells.

    Twin rows and twin columns (equal as sequences of symbols) are searched
    once per orbit, and the search stops once the incumbent reaches the
    root's bound, from parity on even sets and sums mod 2^k, as that
    function's docstring proves sound.  The even-set bound equals the
    missing-colour bound on every `counterexample_square` up to order 64,
    and it proves `counterexample_square(18)` (108 620 nodes by the twin
    rules alone) in one node; with the sums mod 2^k, `cyclic_latin(n)` is
    proved in one node at every even n (tested up to 16; n = 8 took 2 226
    nodes without them).  The budget counts search nodes, so runs are
    deterministic; if it is exhausted the incumbent is returned with
    optimal=False.
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
_SCREEN_WINDOW = 1 << 10  # and screens a chunk's allowed draws this many at a time


def _first(mask: np.ndarray) -> int:
    """Flat index of the first True in a boolean array, or -1."""
    hit = mask.ravel().nonzero()[0]
    return int(hit[0]) if hit.size else -1


def _masked_local_search(
    grid: np.ndarray,
    n: int,
    allowed: np.ndarray,
    start: list[Cell],
    rng: np.random.Generator,
    iterations: int,
) -> list[Cell]:
    """`iterations` one-out, up-to-two-in swaps on cells that `allowed` permits.

    Each step draws a cell f from `rng.integers(0, n * n)`.  If f's row,
    column and symbol are free, f is inserted.  If exactly one cell other
    than f owns them, that cell is swapped out for f, and the first
    admissible cell of its row, else of its column, else of its symbol
    (row-major) refills what it freed.  Otherwise the step does nothing.

    Screening.  The draws come in chunks of `_DRAW_CHUNK`.  Numpy drops the
    draws that `allowed` forbids, then, `_SCREEN_WINDOW` of the rest at a
    time, keeps those whose row or column is free: if both are taken, one
    cell owning both is f itself and two cells are two owners, so the step
    is a no-op.  The loop steps through the survivors in order.  An insert
    frees no row or column, so a survivor it blocks just fails its step; a
    swap can free some, so after one the screen restarts at the next draw.
    The cells and the generator's final state are those of the plain loop.
    """
    symbols = grid.ravel()
    ok = allowed.ravel()
    # Cells are flat indices i*n + j.  owner_* hold the cell that takes a
    # row, column or symbol, or -1; free_* mirror them for numpy.
    owner_row, owner_col, owner_sym = [-1] * n, [-1] * n, [-1] * n
    free_row, free_col, free_sym = (np.ones(n, dtype=bool) for _ in range(3))

    def assign(f: int, s: int, owner: int):
        """Give f's row, column and symbol s to owner; -1 frees them."""
        i, j = divmod(f, n)
        owner_row[i] = owner_col[j] = owner_sym[s] = owner
        free_row[i] = free_col[j] = free_sym[s] = owner < 0

    for cell in start:
        f = cell.row * n + cell.col
        assign(f, int(symbols[f]), f)

    for done in range(0, iterations, _DRAW_CHUNK):
        draws = rng.integers(0, n * n, size=min(_DRAW_CHUNK, iterations - done))
        draws = draws[ok[draws]]
        rows, cols = np.divmod(draws, n)
        pos = 0
        while pos < len(draws):
            end = min(pos + _SCREEN_WINDOW, len(draws))
            live = pos + (free_row[rows[pos:end]] | free_col[cols[pos:end]]).nonzero()[0]
            pos = end
            cells = draws[live]
            for k, f, s in zip(live.tolist(), cells.tolist(), symbols[cells].tolist()):
                i, j = divmod(f, n)
                a, b, c = owner_row[i], owner_col[j], owner_sym[s]
                victim = max(a, b, c)
                if victim < 0:
                    assign(f, s, f)
                    continue
                # A move swaps out exactly one cell, and never the drawn one.
                if victim == f or a not in (-1, victim) or b not in (-1, victim) or c not in (-1, victim):
                    continue
                vi, vj = divmod(victim, n)
                vs = int(symbols[victim])
                assign(victim, vs, -1)
                assign(f, s, f)
                # Refill from what the swap freed; what f took is not free.
                refill = -1
                if free_row[vi]:
                    g = _first(allowed[vi] & free_col & free_sym[grid[vi]])
                    refill = -1 if g < 0 else vi * n + g
                if refill < 0 and free_col[vj]:
                    g = _first(allowed[:, vj] & free_row & free_sym[grid[:, vj]])
                    refill = -1 if g < 0 else g * n + vj
                if refill < 0 and free_sym[vs]:
                    # Symbol vs on the free rows, row-major.
                    lines = free_row.nonzero()[0]
                    g = _first((grid[lines] == vs) & allowed[lines] & free_col)
                    refill = -1 if g < 0 else int(lines[g // n]) * n + g % n
                if refill >= 0:
                    assign(refill, int(symbols[refill]), refill)
                pos = k + 1
                break

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
    same state, as one call per iteration.  Python steps only through the
    draws whose row or column is free: with both taken, by the drawn cell
    itself or by two cells, no move applies.  A negative `iterations` is a
    ValueError.
    """
    if iterations < 0:
        raise ValueError(f"iterations {iterations} is negative")
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
