"""Bipartite multigraph algorithms: decomposition of regular multigraphs
into perfect matchings, maximum matching, path/cycle components of
matching unions, and component capping.

An edge's label is its index 0 ... E-1; the graph stores the left and right
endpoint of every edge as two parallel arrays.  Matchings are frozensets of
labels.  All operations are pure and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching


class NotRegular(ValueError):
    def __init__(self, vertex, degree):
        self.vertex = vertex
        self.degree = degree
        super().__init__(f"vertex {vertex} has degree {degree}")


class NotAMatching(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BipartiteMultigraph:
    """Multi-edges between a left and a right vertex class.

    Edge e joins left vertex left[e] to right vertex right[e]; its label is e.
    """

    left_size: int
    right_size: int
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.asarray(self.left, dtype=np.int64)
        right = np.asarray(self.right, dtype=np.int64)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("left and right must be 1-D arrays of equal length")
        bad = np.flatnonzero((left < 0) | (left >= self.left_size)
                             | (right < 0) | (right >= self.right_size))
        if bad.size:
            e = int(bad[0])
            raise ValueError(f"edge ({left[e]}, {right[e]}) endpoint out of range")
        for name, arr in (("left", left), ("right", right)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def by_label(self) -> dict:
        """label -> (left, right) for every edge."""
        return dict(enumerate(zip(self.left.tolist(), self.right.tolist())))

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.bincount(self.left, minlength=self.left_size),
                np.bincount(self.right, minlength=self.right_size))


def make_graph(left_size: int, right_size: int, pairs) -> BipartiteMultigraph:
    """Build a multigraph from (left, right) pairs, labelling edges 0, 1, ..."""
    arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return BipartiteMultigraph(left_size, right_size, arr[:, 0], arr[:, 1])


def _labels(graph: BipartiteMultigraph, labels) -> np.ndarray:
    """Labels as an int64 array; NotAMatching if one is not an edge of graph."""
    arr = np.array(list(labels))
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    if arr.ndim != 1 or arr.dtype.kind not in "iu":
        raise NotAMatching("edge labels must be integers")
    bad = np.flatnonzero((arr < 0) | (arr >= graph.left.size))
    if bad.size:
        raise NotAMatching(f"label {arr[bad[0]]} is not an edge of the graph "
                           f"(labels are 0..{graph.left.size - 1})")
    return arr.astype(np.int64, copy=False)


def is_matching(graph: BipartiteMultigraph, labels) -> bool:
    idx = _labels(graph, labels)
    return all(np.bincount(ends, minlength=1).max() <= 1
               for ends in (graph.left[idx], graph.right[idx]))


def _match_array(rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Hopcroft-Karp via scipy: entry i is the column matched to row i, or -1."""
    data = np.ones(len(rows), dtype=np.int8)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
    return maximum_bipartite_matching(mat, perm_type="column")


def matching_pairs_from_arrays(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> list[tuple[int, int]]:
    """Maximum matching of the bipartite graph given as parallel edge arrays.

    Returns matched (row, col) pairs.  Hopcroft-Karp via scipy.
    """
    if len(rows) == 0 or n_rows == 0 or n_cols == 0:
        return []
    match = _match_array(rows, cols, n_rows, n_cols)
    matched = np.flatnonzero(match >= 0)
    return list(zip(matched.tolist(), match[matched].tolist()))


def _matched_edges(graph: BipartiteMultigraph, idx: np.ndarray) -> np.ndarray:
    """Maximum matching of the subgraph on the ascending edge labels idx.

    Parallel edges are collapsed; the smallest label of each matched
    (left, right) pair is reported, so output is deterministic.
    """
    if idx.size == 0 or graph.left_size == 0 or graph.right_size == 0:
        return np.empty(0, dtype=np.int64)
    u, v = graph.left[idx], graph.right[idx]
    match = _match_array(u, v, graph.left_size, graph.right_size)
    hit = match[u] == v
    _, first = np.unique(u[hit], return_index=True)
    return idx[hit][first]


def max_matching(graph: BipartiteMultigraph) -> frozenset:
    """Maximum-cardinality matching, returned as a frozenset of edge labels.

    Parallel edges are collapsed; the smallest label of each matched
    (left, right) pair is reported, so output is deterministic.
    """
    return frozenset(_matched_edges(graph, np.arange(graph.left.size)).tolist())


def decompose_regular(graph: BipartiteMultigraph, k: int) -> list[frozenset]:
    """Partition the edges of a k-regular graph into k perfect matchings.

    Round t takes a maximum matching of the edges no earlier round took.
    NotRegular unless every degree is k.
    """
    for side, deg in zip(("left", "right"), graph.degrees()):
        bad = np.flatnonzero(deg != k)
        if bad.size:
            raise NotRegular((side, int(bad[0])), int(deg[bad[0]]))
    alive = np.ones(graph.left.size, dtype=bool)
    out = []
    for _ in range(k):
        m = _matched_edges(graph, np.flatnonzero(alive))
        if m.size != graph.left_size:
            raise AssertionError("extraction round lacked a perfect matching")
        alive[m] = False
        out.append(frozenset(m.tolist()))
    return out


@dataclass(frozen=True)
class Component:
    """A path or cycle, as edge labels in traversal order."""

    labels: tuple
    kind: str  # "path" | "cycle"

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class PathCycleDecomposition:
    components: tuple[Component, ...]

    def to_json(self) -> dict:
        return {
            "format": 1,
            "components": [
                {"kind": c.kind, "labels": list(c.labels)} for c in self.components
            ],
        }


def _partners(ends: np.ndarray, size: int) -> np.ndarray:
    """For each edge, the other edge at the same endpoint, or -1.

    NotAMatching if some endpoint has degree above 2.
    """
    deg = np.bincount(ends, minlength=size)
    if deg.size and deg.max() > 2:
        raise NotAMatching("a vertex has degree above 2 in the union of two matchings")
    order = np.argsort(ends, kind="stable")
    same = ends[order[1:]] == ends[order[:-1]]
    a, b = order[:-1][same], order[1:][same]
    partner = np.full(ends.size, -1, dtype=np.int64)
    partner[a] = b
    partner[b] = a
    return partner


def union_components(
    graph: BipartiteMultigraph, m_a, m_b
) -> PathCycleDecomposition:
    """Components of the multigraph union of two matchings.

    Every vertex has degree <= 2, so components are paths or even cycles
    whose edges alternate between the two matchings.  A label present in
    both matchings forms its own single-edge component.  Paths are walked
    from their smaller end (left vertices before right ones), cycles from
    the left end of their minimum label.  Components are ordered by
    minimum edge label.
    """
    m_a = frozenset(m_a)
    m_b = frozenset(m_b)
    for name, m in (("m_a", m_a), ("m_b", m_b)):
        if not is_matching(graph, m):
            raise NotAMatching(f"{name} is not a matching")
    labels = np.array(sorted(m_a | m_b), dtype=np.int64)
    u, v = graph.left[labels], graph.right[labels]
    # Edges are handled by position in `labels`; at[side][p] is the other
    # edge at p's endpoint on that side (0 = left, 1 = right).
    partners = (_partners(u, graph.left_size), _partners(v, graph.right_size))
    at = tuple(p.tolist() for p in partners)
    visited = [False] * labels.size

    def walk(p: int, side: int) -> list[int]:
        """Edge positions from p on, leaving p through its end on `side`."""
        seq = []
        here, there = at[side], at[1 - side]
        while p >= 0 and not visited[p]:
            visited[p] = True
            seq.append(p)
            p = here[p]
            here, there = there, here
        return seq

    walks: list[tuple[list[int], str]] = []
    # Paths start from degree-1 endpoints, smaller vertex first.
    for side, ends in ((0, u), (1, v)):
        lone = np.flatnonzero(partners[side] < 0)
        for p in lone[np.argsort(ends[lone], kind="stable")].tolist():
            if not visited[p]:
                walks.append((walk(p, 1 - side), "path"))
    # The rest are cycles; canonical start is the minimum remaining label.
    for p in range(labels.size):
        if visited[p]:
            continue
        seq = walk(p, 1)
        if len(seq) % 2 or at[0][seq[-1]] != p:
            raise AssertionError("cycle traversal did not close")
        walks.append((seq, "cycle"))

    lengths = np.fromiter((len(seq) for seq, _ in walks), dtype=np.int64, count=len(walks))
    order = labels[np.fromiter(itertools.chain.from_iterable(seq for seq, _ in walks),
                               dtype=np.int64, count=labels.size)]
    first = np.zeros(labels.size, dtype=bool)
    first[np.cumsum(lengths) - lengths] = True
    _check_alternating(graph, order, first, m_a, m_b)
    lab = labels.tolist()
    components = [Component(tuple(map(lab.__getitem__, seq)), kind) for seq, kind in walks]
    components.sort(key=lambda c: min(c.labels))
    return PathCycleDecomposition(tuple(components))


def _check_alternating(graph: BipartiteMultigraph, order: np.ndarray, first: np.ndarray,
                       m_a, m_b) -> None:
    """NotAMatching if two consecutive edges of a component lie in one matching only.

    order lists the labels of all components back to back; first marks
    where each component starts.
    """
    side = np.zeros(graph.left.size, dtype=np.int8)
    for m, bit in ((m_a, 1), (m_b, 2)):
        side[np.fromiter(m, dtype=np.int64, count=len(m))] |= bit
    side = side[order]
    same = (side[1:] == side[:-1]) & (side[1:] != 3) & ~first[1:]
    if same.any():
        raise NotAMatching("component does not alternate between the matchings")


@dataclass(frozen=True)
class CapResult:
    """Decomposition re-cut so every component has at most s edges."""

    deleted: frozenset
    decomposition: PathCycleDecomposition

    def to_json(self) -> dict:
        return {
            "format": 1,
            "deleted": sorted(self.deleted),
            "decomposition": self.decomposition.to_json(),
        }


def cap_components(decomp: PathCycleDecomposition, s: int) -> CapResult:
    """Break long components into pieces of at most s edges.

    Deletions are evenly spaced along the canonical traversal: position
    p = s mod (s+1) for paths, p = 0 mod (s+1) for cycles.  Per component
    of L edges this deletes ceil(L/(s+1)) edges for cycles and
    floor(L/(s+1)) for paths, the minimum possible.
    """
    if s < 1:
        raise ValueError(f"cap must be >= 1, got {s}")
    deleted: set = set()
    pieces: list[Component] = []
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
    return CapResult(deleted=frozenset(deleted),
                     decomposition=PathCycleDecomposition(tuple(pieces)))
