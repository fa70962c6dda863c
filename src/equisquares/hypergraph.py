"""Tripartite 3-uniform hypergraphs: the hypergraph view of a square,
codegrees, the low-matching obstruction family, vertex blow-ups, the
high-codegree splitting transform, greedy proper edge colouring, and exact
maximum matching for small instances (by the bitset branch-and-bound in
`solvers` that `exact_max` uses too; multi-symbol cells are plain edges).

Vertices are addressed as (class, index) with class in {0, 1, 2}; for a
square's hypergraph the classes are rows, columns, symbols.  Edge indices
are stable: blow-ups and splits preserve or systematically extend them, and
matchings/colourings refer to edge indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .bipartite import NotAMatching  # one class, importable from here too
from .solvers import _max_tripartite_matching
from .squares import EquiNSquare, _index

Vertex = tuple[int, int]


class SameVertex(ValueError):
    pass


class InvalidParam(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TripartiteHypergraph:
    """Edge list over three vertex classes; multi-edges allowed.  Each edge is
    stored as a tuple of three Python ints; bools are refused as vertices."""

    class_sizes: tuple[int, int, int]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        a, b, c = self.class_sizes
        edges = []
        for e in self.edges:
            try:
                x, y, z = e
                if not type(x) is type(y) is type(z) is int:  # numpy integers, say
                    x, y, z = map(_index, (x, y, z))
            except (TypeError, ValueError):  # not three integers
                x = y = z = -1
            if not (0 <= x < a and 0 <= y < b and 0 <= z < c):
                raise ValueError(f"edge {e} out of range for classes {self.class_sizes}")
            edges.append((x, y, z))
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def num_vertices(self) -> int:
        return sum(self.class_sizes)

    def vertices(self):
        for cls in range(3):
            for idx in range(self.class_sizes[cls]):
                yield (cls, idx)

    @cached_property
    def _incidence(self) -> dict[Vertex, tuple[int, ...]]:
        inc: dict[Vertex, list[int]] = {}
        for i, e in enumerate(self.edges):
            for cls in range(3):
                inc.setdefault((cls, e[cls]), []).append(i)
        return {v: tuple(ix) for v, ix in inc.items()}

    def incident(self, v: Vertex) -> tuple[int, ...]:
        """Indices of the edges at v; InvalidParam unless v is a vertex of the hypergraph:
        a pair of integers, not bools, a class in {0, 1, 2} and an index in it."""
        try:
            cls, idx = map(_index, v)
        except (TypeError, ValueError):  # not a pair, or not of integers
            cls = idx = -1
        if cls not in (0, 1, 2) or idx not in range(self.class_sizes[cls]):
            raise InvalidParam(f"vertex {v!r} is not in classes {self.class_sizes}")
        return self._incidence.get((cls, idx), ())

    def degree(self, v: Vertex) -> int:
        return len(self.incident(v))

    def max_degree(self) -> int:
        if not self.edges:
            return 0
        return max(len(ix) for ix in self._incidence.values())


def from_square(square: EquiNSquare) -> TripartiteHypergraph:
    """One edge (row, col, symbol) per cell; the result is n-regular."""
    n = square.n
    edges = tuple((i, j, s) for i, row in enumerate(square.grid.tolist()) for j, s in enumerate(row))
    return TripartiteHypergraph((n, n, n), edges)


def codegree(h: TripartiteHypergraph, x: Vertex, y: Vertex) -> int:
    """Number of edges containing both x and y; InvalidParam unless both are
    vertices of h.  Edges hold one vertex per class, so two vertices of one
    class share none."""
    if x == y:
        raise SameVertex(f"codegree needs distinct vertices, got {x} twice")
    return len(set(h.incident(x)).intersection(h.incident(y)))


def alon_kim(t: int) -> TripartiteHypergraph:
    """The 2t-regular obstruction family on 3t vertices per class.

    Vertices 0..2t-1 are the plain copies, 2t..3t-1 the primed ones.  Any
    matching has at most 2t edges, so roughly a third of each class is
    always uncovered.
    """
    if t < 1:
        raise InvalidParam(f"t must be >= 1, got {t}")
    edges = []
    for i in range(2 * t):
        for j in range(t):
            edges.append((i, i, 2 * t + j))
            edges.append((i, 2 * t + j, i))
            edges.append((2 * t + j, i, i))
    return TripartiteHypergraph((3 * t, 3 * t, 3 * t), tuple(edges))


def blow_up(h: TripartiteHypergraph, factor: int) -> TripartiteHypergraph:
    """Replace each vertex by `factor` copies and each edge by factor^3 edges.

    Vertex (c, v) becomes (c, v*factor + q); degrees multiply by factor^2.
    """
    if factor < 1:
        raise InvalidParam(f"factor must be >= 1, got {factor}")
    sizes = tuple(s * factor for s in h.class_sizes)
    edges = []
    for a, b, c in h.edges:
        for qa in range(factor):
            for qb in range(factor):
                for qc in range(factor):
                    edges.append((a * factor + qa, b * factor + qb, c * factor + qc))
    return TripartiteHypergraph(sizes, tuple(edges))


def split_high_codegree(h: TripartiteHypergraph, threshold: int):
    """Split every pair with codegree above `threshold` through fresh vertices.

    The pair set E = {(x, y): cod(x, y) > threshold} must be a matching;
    otherwise NotAMatching names a vertex that two high pairs share, and
    the two pairs.  Block squares raise it: in
    `from_square(block_structured_square(16, 4, 1)[0])` at threshold 1 the
    high pairs share vertices, so this transform cannot give a block square
    codegree control.  For each pair, the lexicographically smaller vertex
    x_f is replaced, in each edge covering the pair, by a fresh vertex
    private to that edge, so all codegrees in the result are <= threshold.

    Returns (h2, pullback) where h2 has the same edge indices and pullback
    maps an EdgeColouring of h2 to one of h with the same colour count.
    When every edge through a high pair contains both its vertices (the
    all-or-none situation the transform is meant for), a proper colouring
    pulls back to a proper colouring.
    """
    if threshold < 1:
        raise InvalidParam(f"threshold must be >= 1, got {threshold}")
    # Codegrees of every pair some edge covers, in order of first appearance.
    codegrees = Counter(((ca, e[ca]), (cb, e[cb])) for e in h.edges
                        for ca, cb in ((0, 1), (0, 2), (1, 2)))
    high = [pair for pair, count in codegrees.items() if count > threshold]
    owner: dict[Vertex, tuple[Vertex, Vertex]] = {}  # vertex -> the high pair on it
    for pair in high:
        for v in pair:
            if v in owner:
                raise NotAMatching(f"high-codegree pairs {owner[v]} and {pair} share vertex {v}")
            owner[v] = pair

    # The pairs are disjoint, so no edge holds two of them: each pair's
    # edges are still unchanged in new_edges when its turn comes.
    sizes = list(h.class_sizes)
    new_edges = list(h.edges)
    for x_f, y_f in high:  # x_f is the lexicographically smaller vertex
        cls = x_f[0]
        for i in h.incident(x_f):
            e = new_edges[i]
            if e[y_f[0]] == y_f[1]:
                fresh = sizes[cls]
                sizes[cls] += 1
                moved = list(e)
                moved[cls] = fresh
                new_edges[i] = tuple(moved)
    h2 = TripartiteHypergraph(tuple(sizes), tuple(new_edges))

    def pullback(colouring: "EdgeColouring") -> "EdgeColouring":
        # Edge indices are stable, so the colour assignment carries over.
        if len(colouring.colours) != len(h.edges):
            raise InvalidParam("colouring size does not match edge count")
        return EdgeColouring(colouring.colours)

    return h2, pullback


@dataclass(frozen=True)
class EdgeColouring:
    """Colour id per edge index; each colour class should be a matching."""

    colours: tuple[int, ...]

    @property
    def num_colours(self) -> int:
        return len(set(self.colours)) if self.colours else 0


def is_proper(h: TripartiteHypergraph, colouring: EdgeColouring) -> bool:
    """True iff edges sharing a vertex always have different colours;
    InvalidParam unless the colouring has one colour per edge."""
    colours = colouring.colours
    if len(colours) != len(h.edges):
        raise InvalidParam("colouring size does not match edge count")
    # Proper: in each class, no (vertex, colour) pair is on two edges.
    return all(len(set(zip((e[cls] for e in h.edges), colours))) == len(colours)
               for cls in range(3))


def greedy_edge_colouring(h: TripartiteHypergraph) -> EdgeColouring:
    """First-fit colouring over edges in index order.

    Each vertex keeps one int with a bit per colour already used at it, so
    an edge takes the lowest bit clear in all three of its vertices.  Uses
    at most 3*(max_degree - 1) + 1 colours since an edge meets at most that
    many others.
    """
    used0, used1, used2 = ([0] * size for size in h.class_sizes)
    colours = []
    for a, b, c in h.edges:
        blocked = used0[a] | used1[b] | used2[c]
        bit = ~blocked & (blocked + 1)
        used0[a] |= bit
        used1[b] |= bit
        used2[c] |= bit
        colours.append(bit.bit_length() - 1)
    return EdgeColouring(tuple(colours))


def max_matching_exact(h: TripartiteHypergraph, budget: int | None = None):
    """Exact maximum matching by the branch-and-bound of `exact_max`.

    Class 0 plays the rows; the search state is one bitset of the usable
    edges, so a cell with several symbols is just several edges.  Twin
    vertices (two of one class on the same pairs of the other two, as the
    copies in a `blow_up` are) are searched once per orbit, and the search
    stops once the incumbent reaches `solvers._root_bound`, which proves
    `alon_kim(2)` and `from_square(cyclic_latin(8))` in one node; see
    `solvers._max_tripartite_matching`.  `budget` caps the search nodes, as
    `exact_max`'s node_budget does; the returned (edge_indices, optimal)
    flag reports whether the search completed, so `budget=0` never reports
    optimal; a negative budget is a ValueError, and a bool, float or str a
    TypeError.  An edge listed several times is reported by its smallest
    index.  Class sizes whose product reaches 2^63 are `solvers.TooLarge`.
    """
    edges = np.fromiter(chain.from_iterable(h.edges), np.int64, 3 * len(h.edges)).reshape(-1, 3)
    triples, optimal = _max_tripartite_matching(h.class_sizes, edges, budget)
    index: dict[tuple[int, int, int], int] = {}
    for i, e in enumerate(h.edges):
        index.setdefault(e, i)
    return tuple(sorted(index[t] for t in triples)), optimal
