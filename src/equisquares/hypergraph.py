"""Tripartite 3-uniform hypergraphs: the hypergraph view of a square,
codegrees, the low-matching obstruction family, vertex blow-ups, the
high-codegree splitting transform, greedy proper edge colouring, and exact
maximum matching for small instances (by the bitset branch-and-bound in
`solvers` that `exact_max` uses too; multi-symbol cells are plain edges).

Vertices are addressed as (class, index) with class in {0, 1, 2}; for a
square's hypergraph the classes are rows, columns, symbols.  A hypergraph
is one read-only (E, 3) int64 edge array, and its incidence is one CSR
table per class, built from that array with numpy on first use.  Edge
indices are stable: blow-ups and splits preserve or systematically extend
them, and matchings/colourings refer to edge indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bipartite import NotAMatching  # one class, importable from here too
from .solvers import _max_tripartite_matching
from .squares import EquiNSquare, _index, _int_array

Vertex = tuple[int, int]


class SameVertex(ValueError):
    pass


class InvalidParam(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TripartiteHypergraph:
    """Edges over three vertex classes, multi-edges allowed, stored as one
    read-only (E, 3) int64 array, `edge_array`, row e holding edge e.

    `TripartiteHypergraph(class_sizes, edges)` reads each class size by
    `squares._index` (a bool or float is a TypeError), and InvalidParam
    unless there are three, each >= 0.  The edges pass `squares._int_array`
    and one range check; a ValueError names the first edge that is not
    three integers, bools refused, inside the classes.  `edges` is the same
    edges as tuples of Python ints, built on first read.
    """

    class_sizes: tuple[int, int, int]
    edge_array: np.ndarray

    def __init__(self, class_sizes, edges):
        sizes = tuple(map(_index, class_sizes))
        if len(sizes) != 3 or min(sizes) < 0:
            raise InvalidParam(f"class sizes must be three integers >= 0, got {class_sizes!r}")
        try:
            arr = _int_array(edges, lambda at, x: ValueError(), below=max(sizes))
        except ValueError:  # not an integer within int64, or outside every class
            raise _bad_edges(sizes, edges) from None
        if arr.shape == (0,):
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3 or (arr >= sizes).any():
            raise _bad_edges(sizes, edges)
        object.__setattr__(self, "class_sizes", sizes)
        object.__setattr__(self, "edge_array", arr)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """`edge_array` as a tuple of (x, y, z) tuples of Python ints, built on first read."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @property
    def num_vertices(self) -> int:
        return sum(self.class_sizes)

    def vertices(self):
        for cls in range(3):
            for idx in range(self.class_sizes[cls]):
                yield (cls, idx)

    @cached_property
    def _incidence(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per class, CSR (order, starts): the edges at vertex v of the class
        are order[starts[v]:starts[v + 1]], ascending."""
        return [(np.argsort(ends, kind="stable"),
                 np.concatenate(([0], np.bincount(ends, minlength=size).cumsum())))
                for ends, size in zip(self.edge_array.T, self.class_sizes)]

    def _vertex(self, v) -> Vertex:
        """v as a (class, index) tuple of ints; InvalidParam unless v is a vertex of the
        hypergraph: a pair of integers, not bools, a class in {0, 1, 2} and an index in it."""
        try:
            cls, idx = map(_index, v)
        except (TypeError, ValueError):  # not a pair, or not of integers
            cls = idx = -1
        if cls not in (0, 1, 2) or idx not in range(self.class_sizes[cls]):
            raise InvalidParam(f"vertex {v!r} is not in classes {self.class_sizes}")
        return cls, idx

    def incident(self, v: Vertex) -> tuple[int, ...]:
        """Indices of the edges at v, ascending; InvalidParam unless v is a vertex (see `_vertex`)."""
        cls, idx = self._vertex(v)
        order, starts = self._incidence[cls]
        return tuple(order[starts[idx]:starts[idx + 1]].tolist())

    def degree(self, v: Vertex) -> int:
        cls, idx = self._vertex(v)
        starts = self._incidence[cls][1]
        return int(starts[idx + 1] - starts[idx])

    def max_degree(self) -> int:
        return max(int(np.diff(starts).max(initial=0)) for _, starts in self._incidence)


def _bad_edges(sizes: tuple[int, int, int], edges) -> ValueError:
    """A ValueError naming the first edge that is not three integers inside the classes."""
    for e in edges:
        try:
            x, y, z = map(_index, e)
        except (TypeError, ValueError):  # not three integers
            x = y = z = -1
        if not (0 <= x < sizes[0] and 0 <= y < sizes[1] and 0 <= z < sizes[2]):
            return ValueError(f"edge {e} out of range for classes {sizes}")
    return ValueError(f"edges must be an (E, 3) collection of integers, got shape {np.shape(edges)}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr marked read-only, so the constructor's gate keeps it uncopied."""
    arr.setflags(write=False)
    return arr


def from_square(square: EquiNSquare) -> TripartiteHypergraph:
    """One edge (row, col, symbol) per cell, in row-major order; the result is n-regular."""
    n = square.n
    rows, cols = np.divmod(np.arange(n * n), n)
    return TripartiteHypergraph((n, n, n), _frozen(np.stack((rows, cols, square.grid.ravel()), axis=1)))


def codegree(h: TripartiteHypergraph, x: Vertex, y: Vertex) -> int:
    """Number of edges containing both x and y; InvalidParam unless both are
    vertices of h, and SameVertex if they are one vertex, as read by
    `incident`: [0, 1] and (0, 1) are one.  Edges hold one vertex per
    class, so two vertices of one class share none."""
    if np.array_equal(x, y) or h._vertex(x) == h._vertex(y):
        raise SameVertex(f"codegree needs distinct vertices, got {x!r} and {y!r}")
    return len(set(h.incident(x)).intersection(h.incident(y)))


def alon_kim(t: int) -> TripartiteHypergraph:
    """The 2t-regular obstruction family on 3t vertices per class.

    Vertices 0..2t-1 are the plain copies, 2t..3t-1 the primed ones.  Any
    matching has at most 2t edges, so roughly a third of each class is
    always uncovered.
    """
    t = _index(t)
    if t < 1:
        raise InvalidParam(f"t must be >= 1, got {t}")
    # Per plain vertex i and primed vertex p, in that order, the edges
    # (i, i, p), (i, p, i), (p, i, i): p sits on the anti-diagonal.
    plain = np.repeat(np.arange(2 * t), t)[:, None, None]
    primed = np.tile(np.arange(2 * t, 3 * t), 2 * t)[:, None, None]
    edges = np.where(np.eye(3, dtype=bool)[::-1], primed, plain).reshape(-1, 3)
    return TripartiteHypergraph((3 * t, 3 * t, 3 * t), _frozen(edges))


def blow_up(h: TripartiteHypergraph, factor: int) -> TripartiteHypergraph:
    """Replace each vertex by `factor` copies and each edge by factor^3 edges.

    Vertex (c, v) becomes (c, v*factor + q); degrees multiply by factor^2.
    """
    factor = _index(factor)
    if factor < 1:
        raise InvalidParam(f"factor must be >= 1, got {factor}")
    sizes = tuple(s * factor for s in h.class_sizes)
    copies = np.indices((factor,) * 3).reshape(3, -1).T  # (qa, qb, qc), lexicographic
    edges = (h.edge_array[:, None, :] * factor + copies).reshape(-1, 3)
    return TripartiteHypergraph(sizes, _frozen(edges))


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
    threshold = _index(threshold)
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
    # edges are still unchanged in `edges` when its turn comes.  They take
    # fresh vertices of x's class in edge order.
    sizes = list(h.class_sizes)
    edges = h.edge_array.copy()
    for (cls, x), (cy, y) in high:  # (cls, x) is the lexicographically smaller vertex
        order, starts = h._incidence[cls]
        at = order[starts[x]:starts[x + 1]]
        at = at[edges[at, cy] == y]
        edges[at, cls] = np.arange(sizes[cls], sizes[cls] + at.size)
        sizes[cls] += at.size
    h2 = TripartiteHypergraph(tuple(sizes), _frozen(edges))

    def pullback(colouring: "EdgeColouring") -> "EdgeColouring":
        # Edge indices are stable, so the colour assignment carries over.
        if len(colouring.colours) != len(h.edge_array):
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
    if len(colours) != len(h.edge_array):
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
    TypeError.  The search answers with indices into `h.edges`, ascending;
    an edge listed several times is reported by its smallest index.  Class
    sizes whose product reaches 2^63 are `solvers.TooLarge`.
    """
    indices, optimal = _max_tripartite_matching(h.class_sizes, h.edge_array, budget)
    return tuple(indices), optimal
