"""Tripartite 3-uniform hypergraphs: the hypergraph view of a square,
codegrees, the low-matching obstruction family, vertex blow-ups, the
high-codegree splitting transform, greedy proper edge colouring, and exact
maximum matching for small instances (by the branch-and-bound in `solvers`
that `exact_max` uses too).

Vertices are addressed as (class, index) with class in {0, 1, 2}; for a
square's hypergraph the classes are rows, columns, symbols.  Edge indices
are stable: blow-ups and splits preserve or systematically extend them, and
matchings/colourings refer to edge indices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .bipartite import NotAMatching  # one class, importable from here too
from .solvers import _max_tripartite_matching
from .squares import EquiNSquare, ParseError, _ints, _lines

Vertex = tuple[int, int]


class SameVertex(ValueError):
    pass


class InvalidParam(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class TripartiteHypergraph:
    """Edge list over three vertex classes; multi-edges allowed."""

    class_sizes: tuple[int, int, int]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        for e in self.edges:
            for cls in range(3):
                if not 0 <= e[cls] < self.class_sizes[cls]:
                    raise ValueError(f"edge {e} out of range for classes {self.class_sizes}")

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
        return self._incidence.get(v, ())

    def degree(self, v: Vertex) -> int:
        return len(self.incident(v))

    def max_degree(self) -> int:
        if not self.edges:
            return 0
        return max(len(ix) for ix in self._incidence.values())


def from_square(square: EquiNSquare) -> TripartiteHypergraph:
    """One edge (row, col, symbol) per cell; the result is n-regular."""
    n = square.n
    edges = tuple(
        (i, j, int(square.grid[i, j])) for i in range(n) for j in range(n)
    )
    return TripartiteHypergraph((n, n, n), edges)


def codegree(h: TripartiteHypergraph, x: Vertex, y: Vertex) -> int:
    """Number of edges containing both x and y."""
    if x == y:
        raise SameVertex(f"codegree needs distinct vertices, got {x} twice")
    if x[0] == y[0]:
        return 0  # edges hold one vertex per class
    a, b = sorted((x, y))
    return sum(1 for i in h.incident(a) if h.edges[i][b[0]] == b[1])


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

    The pair set E = {(x, y): cod(x, y) > threshold} must be a matching.
    For each pair, the lexicographically smaller vertex x_f is replaced, in
    each edge covering the pair, by a fresh vertex private to that edge, so
    all codegrees in the result are <= threshold.

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
    used: set[Vertex] = set()
    for x, y in high:
        if x in used or y in used:
            raise NotAMatching(f"high-codegree pair set is not a matching: {sorted(high)}")
        used.update((x, y))

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
    """True iff edges sharing a vertex always have different colours."""
    for v, inc in h._incidence.items():
        seen = set()
        for i in inc:
            c = colouring.colours[i]
            if c in seen:
                return False
            seen.add(c)
    return True


def greedy_edge_colouring(h: TripartiteHypergraph) -> EdgeColouring:
    """First-fit colouring over edges in index order.

    Uses at most 3*(max_degree - 1) + 1 colours since an edge meets at most
    that many others.
    """
    taken: dict[Vertex, set[int]] = {}
    colours = []
    for e in h.edges:
        verts = [(0, e[0]), (1, e[1]), (2, e[2])]
        blocked = set()
        for v in verts:
            blocked |= taken.get(v, set())
        c = 0
        while c in blocked:
            c += 1
        colours.append(c)
        for v in verts:
            taken.setdefault(v, set()).add(c)
    return EdgeColouring(tuple(colours))


def max_matching_exact(h: TripartiteHypergraph, budget: int | None = None):
    """Exact maximum matching by the branch-and-bound of `exact_max`.

    Class 0 plays the rows; edges on one row and one column form one
    cell, which may carry several symbols.  Twin vertices (two vertices
    of one class on the same pairs of the other two, as the copies in a
    `blow_up` are) are searched once per orbit; see
    `solvers._max_tripartite_matching`.  `budget` caps the search nodes,
    as `exact_max`'s node_budget does; the flag in the returned
    (edge_indices, optimal) pair reports whether the search completed.
    An edge listed several times is reported by its smallest index.
    """
    if not h.edges:
        return (), True
    triples, optimal = _max_tripartite_matching(h.class_sizes, h.edges, budget)
    return tuple(sorted(h.edges.index(t) for t in triples)), optimal


def write_hypergraph(h: TripartiteHypergraph, path) -> None:
    """Text format: line 1 '|A| |B| |C|', then one 'a b c' line per edge."""
    lines = [" ".join(str(s) for s in h.class_sizes)]
    lines += [f"{a} {b} {c}" for a, b, c in h.edges]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_hypergraph(path) -> TripartiteHypergraph:
    lines = _lines(Path(path).read_bytes())
    sizes = tuple(_ints(1, lines[0], 3, "class sizes", "class size"))
    if min(sizes) < 0:
        raise ParseError(1, f"negative class size in {sizes}")
    edges = [tuple(_ints(i, line, 3)) for i, line in enumerate(lines[1:], start=2)]
    try:
        return TripartiteHypergraph(sizes, tuple(edges))
    except ValueError as exc:
        raise ParseError(1, str(exc)) from exc
