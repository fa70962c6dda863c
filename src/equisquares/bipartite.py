"""Bipartite multigraph algorithms: decomposition of regular multigraphs
into perfect matchings, maximum matching, path/cycle components of
matching unions, and component capping.

An edge's label is its index 0 ... E-1; the graph stores the left and right
endpoint of every edge as two parallel arrays.  Matchings are frozensets of
labels only at the public boundary; inside they are int64 label arrays.
Maximum matching is scipy's Hopcroft-Karp (HK), through two wrappers:
`matching_pairs_from_arrays` for a graph given as edge arrays, and
`_hopcroft_karp` for one given in CSR form.  `_decompose` sorts the edges
by (left, right, label), cuts them into runs of parallel edges and runs
HK on one edge per live run, once per round, keeping the live runs
compacted; it returns the k perfect matchings of a k-regular graph as one
(k, n) label array, and `decompose_regular` wraps it.  The components of
the unions of many matching pairs, a whole halving level, come from one
array pass (`_walks`) and are capped by another (`_cut`); both order
their output by scatters, not sorts.  `union_components` is the
one-pair form of `_walks`.  `Component`, `PathCycleDecomposition` and
`CapResult` are plain views with no serializer: the JSON form of a
halving run is `halving.HalvingTrace.to_json`.  All operations are pure
and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .squares import _int_array


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
    ValueError if an endpoint is outside its class or refused by squares._int_array,
    whose read-only arrays are stored.
    """

    left_size: int
    right_size: int
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = _int_array(self.left, _endpoint_error)
        right = _int_array(self.right, _endpoint_error)
        if left.ndim != 1 or left.shape != right.shape:
            raise ValueError("left and right must be 1-D arrays of equal length")
        bad = np.flatnonzero((left < 0) | (left >= self.left_size)
                             | (right < 0) | (right >= self.right_size))
        if bad.size:
            e = int(bad[0])
            raise ValueError(f"edge ({left[e]}, {right[e]}) endpoint out of range")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.bincount(self.left, minlength=self.left_size),
                np.bincount(self.right, minlength=self.right_size))


def _endpoint_error(index, x) -> ValueError:
    return ValueError(f"endpoint {x!r} at {index} is not an integer within int64")


def make_graph(left_size: int, right_size: int, pairs) -> BipartiteMultigraph:
    """Build a multigraph from (left, right) pairs, labelling edges 0, 1, ..."""
    arr = _int_array(list(pairs), _endpoint_error).reshape(-1, 2)
    return BipartiteMultigraph(left_size, right_size, arr[:, 0], arr[:, 1])


def _labels(graph: BipartiteMultigraph, labels) -> np.ndarray:
    """Labels as an int64 array; NotAMatching if one is a bool, not an integer, or not an edge."""
    edges = graph.left.size

    def refuse(index, x) -> NotAMatching:  # an int is past int64 or no edge
        return NotAMatching(f"label {x} is not an edge of the graph (labels are 0..{edges - 1})"
                            if type(x) is int else "edge labels must be integers")

    if not isinstance(labels, np.ndarray) and np.iterable(labels):
        labels = list(labels)  # a set or an iterator, say
    arr = _int_array(labels, refuse, below=edges)
    if arr.ndim != 1 and arr.size:
        raise NotAMatching("edge labels must be integers")
    return arr.reshape(-1)


def _clash(graph: BipartiteMultigraph, labels: np.ndarray, group: np.ndarray, groups: int) -> int:
    """The first group whose labels are not a matching of graph, else -1.

    labels[i] belongs to group[i], one of 0 .. groups-1; one bincount over
    vertex ids offset by group checks them all.
    """
    nl, nr = graph.left_size, graph.right_size
    ends = np.concatenate((group * nl + graph.left[labels],
                           groups * nl + group * nr + graph.right[labels]))
    bad = np.flatnonzero(np.bincount(ends) > 1)
    if not bad.size:
        return -1
    return int(np.where(bad < groups * nl, bad // nl, (bad - groups * nl) // nr).min())


def _label_set(labels) -> frozenset:
    """frozenset(labels); NotAMatching if labels is an int, a 0-d array, or holds unhashable entries."""
    try:
        return frozenset(labels)
    except TypeError:
        raise NotAMatching("edge labels must be integers") from None


def is_matching(graph: BipartiteMultigraph, labels) -> bool:
    """Whether no two labelled edges meet; NotAMatching for a bool, non-integer or non-edge label."""
    idx = _labels(graph, labels)
    return _clash(graph, idx, np.zeros_like(idx), 1) < 0


def matching_pairs_from_arrays(
    rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> list[tuple[int, int]]:
    """Maximum matching of the bipartite graph given as parallel edge arrays.

    Returns matched (row, col) pairs, rows ascending.  Hopcroft-Karp via
    scipy; repeated edges count once.
    """
    if len(rows) == 0 or n_rows == 0 or n_cols == 0:
        return []
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    data = np.ones(len(rows), dtype=np.int8)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(n_rows, n_cols))
    match = maximum_bipartite_matching(mat, perm_type="column")  # row -> column, or -1
    matched = np.flatnonzero(match >= 0)
    return list(zip(matched.tolist(), match[matched].tolist()))


def _hopcroft_karp(indptr: np.ndarray, v: np.ndarray, left_size: int, right_size: int) -> np.ndarray:
    """Right vertex matched to each left vertex, or -1, in a maximum matching.

    The graph is given in CSR form: left vertex u's neighbours are
    v[indptr[u]:indptr[u + 1]], ascending with no repeats, so the matrix is
    the canonical one the COO route would build.  Both arrays are int32,
    the index type the matching code takes, so scipy copies nothing.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_bipartite_matching

    mat = sp.csr_matrix((np.ones(v.size, dtype=np.int8), v, indptr), shape=(left_size, right_size))
    return maximum_bipartite_matching(mat, perm_type="column")


def _decompose(graph: BipartiteMultigraph, k: int) -> np.ndarray:
    """The k perfect matchings of decompose_regular, as a (k, left_size) label array.

    Row t is matching t, its labels in order of their left vertex.  The
    edges are sorted by (left, right, label) once, and parallel edges form
    runs in that order.  A round matches at most one edge of a run, the
    first one it has left, so what a run has left is always a suffix of
    it: a round's graph is one edge per live run, the runs in order, which
    is the CSR matrix of the live edges with parallel edges collapsed to
    their smallest label.  The live runs are kept compacted, with a count
    per left vertex, so a round's row pointers are one cumsum; a run drops
    out when its last edge is taken.  After k - 1 rounds the graph left is
    1-regular, its own only perfect matching, and is taken whole.
    """
    for side, deg in zip(("left", "right"), graph.degrees()):
        bad = np.flatnonzero(deg != k)
        if bad.size:
            raise NotRegular((side, int(bad[0])), int(deg[bad[0]]))
    nl, nr = graph.left_size, graph.right_size
    out = np.empty((max(k, 0), nl), dtype=np.int64)
    if not graph.left.size:
        return out
    by_ends = np.argsort(graph.left * nr + graph.right, kind="stable")
    u, v = graph.left[by_ends], graph.right[by_ends]
    opens = np.ones(by_ends.size, dtype=bool)
    opens[1:] = (u[1:] != u[:-1]) | (v[1:] != v[:-1])
    start = np.flatnonzero(opens)
    last = np.append(opens[1:], True)  # the last edge of its run
    # The live runs, compacted in (left, right) order: their (left, right)
    # keys, right ends, and the position in by_ends of the next edge each
    # gives; count[u] of them at left vertex u.
    key, run_v, nxt = u[start] * nr + v[start], v[start].astype(np.int32), start
    count = np.bincount(u[start], minlength=nl)
    indptr = np.zeros(nl + 1, dtype=np.int32)
    lefts = np.arange(nl) * nr
    for t in range(k - 1):
        np.cumsum(count, out=indptr[1:])
        match = _hopcroft_karp(indptr, run_v, nl, nr)
        if (match < 0).any():
            raise AssertionError("extraction round lacked a perfect matching")
        runs = np.searchsorted(key, lefts + match)  # the run each left vertex matched
        taken = nxt[runs]
        out[t] = by_ends[taken]
        nxt[runs] = taken + 1
        done = last[taken]
        if done.any():
            count -= done
            live = np.ones(key.size, dtype=bool)
            live[runs[done]] = False
            key, run_v, nxt = key[live], run_v[live], nxt[live]
    if nxt.size != nl:
        raise AssertionError("the last round is not a perfect matching")
    out[k - 1] = by_ends[nxt]
    return out


def decompose_regular(graph: BipartiteMultigraph, k: int) -> list[frozenset]:
    """Partition the edges of a k-regular graph into k perfect matchings.

    Round t takes a Hopcroft-Karp maximum matching of the edges no earlier
    round took, parallel edges collapsed to their smallest label; the
    smallest label of each matched (left, right) pair joins matching t.
    NotRegular unless every degree is k.  The work is done on label arrays
    by _decompose.
    """
    return [frozenset(m) for m in _decompose(graph, k).tolist()]


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


def _components(labels: list, lengths: np.ndarray, cycle: np.ndarray) -> tuple[Component, ...]:
    """Components from labels laid back to back, lengths[i] for component i."""
    ends = np.cumsum(lengths).tolist()
    return tuple(Component(tuple(labels[lo:hi]), "cycle" if cyc else "path")
                 for lo, hi, cyc in zip([0, *ends], ends, cycle.tolist()))


@dataclass(frozen=True)
class _Walks:
    """The components of the unions of P matching pairs, from one pass.

    Position p is an edge of pair pair[p] with label label[p]; positions run
    in (pair, label) order, and in_a / in_b say which of the pair's two
    matchings hold the edge.  order lists the positions component by
    component, each in its canonical traversal, the components in
    (pair, minimum label) order; lengths and cycle describe them.
    """

    label: np.ndarray
    pair: np.ndarray
    in_a: np.ndarray
    in_b: np.ndarray
    order: np.ndarray
    lengths: np.ndarray
    cycle: np.ndarray


_SHIFT = 32  # _walks packs (position << _SHIFT) | distance into one int64


def _walks(graph: BipartiteMultigraph, labels: np.ndarray, sizes: list[int]) -> _Walks:
    """Components of the unions of matching pairs, all pairs in one pass.

    labels holds 2P matchings back to back, sizes[g] labels for matching
    g; pair i is matching 2i (m_a) and matching 2i + 1 (m_b).  Each must
    be a matching of graph; this is not checked here.  Every vertex then
    has degree <= 2 in a union, so its components are paths and even
    cycles that alternate between the two matchings; a label in both is a
    one-edge path.

    Canonical traversals: a path starts at its free end on the left with
    the smaller vertex, failing that at its free end on the right with the
    smaller vertex; a cycle starts at its minimum label and leaves it by
    its right end.

    m_a edges run left to right and m_b edges right to left, so each
    component is a chain of successors.  Pointer doubling along the chains
    finds, for every edge, the first edge of its path or the minimum of
    its cycle and its distance from there, in ceil(log2(longest union))
    rounds over all pairs at once.
    """
    edges, nl, nr = graph.left.size, graph.left_size, graph.right_size
    pairs = len(sizes) // 2
    group = np.repeat(np.arange(2 * pairs), sizes)
    key = (group >> 1) * edges + labels
    srt = np.argsort(key, kind="stable")
    key, in_b = key[srt], (group[srt] & 1).astype(bool)
    in_a = ~in_b
    # A label in both matchings of a pair comes twice, its m_a copy first:
    # keep that copy and mark it as in both.
    both = np.flatnonzero(key[1:] == key[:-1])
    if both.size:
        in_b[both] = True
        key, in_a, in_b = (np.delete(x, both + 1) for x in (key, in_a, in_b))

    size = key.size
    pos = np.arange(size)
    pair = key // edges
    label = key - pair * edges
    # Vertex codes, left vertices of every pair before right ones, of where
    # the chain enters and leaves each edge.
    left = pair * nl + graph.left[label]
    right = pairs * nl + pair * nr + graph.right[label]
    enter = np.where(in_a, left, right)
    leave = np.where(in_a, right, left)
    at = np.full(pairs * (nl + nr), -1)
    at[enter] = pos
    succ = at[leave]
    linked = succ >= 0
    pred = pos.copy()  # the first edge of a path is its own predecessor
    pred[succ[linked]] = pos[linked]

    # After r rounds hop[p] is 2^r edges back along the chain, or the path's
    # first edge if that is nearer, reach[p] how far back that is, and best[p]
    # the smallest position from p back to hop[p] (excluded), packed with
    # its distance back from p.
    hop, reach, best = pred, (pred != pos).astype(np.int64), pos << _SHIFT
    longest = max((a + b for a, b in zip(sizes[::2], sizes[1::2])), default=1)
    for _ in range((longest - 1).bit_length()):
        np.minimum(best, best[hop] + reach, out=best)
        reach += reach[hop]
        hop = hop[hop]

    cycle = reach[hop] > 0  # a path's edges hop to its first edge, which reaches nothing
    low = best >> _SHIFT
    anchor = np.where(cycle, low, hop)
    step = np.where(cycle, best & ((1 << _SHIFT) - 1), reach)
    # Indexed by anchor: the component's minimum position, and whether its
    # traversal follows the chain.  A path's minimum lies behind its last
    # edge; its free ends are where the chain enters its first edge and
    # leaves its last.  A cycle leaves its minimum by the right end.
    last = np.flatnonzero(~linked)
    first = hop[last]
    low[first] = low[last]
    forward = in_a.copy()
    forward[first] = enter[first] < leave[last]
    comp = low[anchor]
    count = np.bincount(comp, minlength=1)
    length = count[comp]
    # Rank in the traversal: walked backwards, a path starts at its last
    # edge, and a cycle at its anchor and then the edge before it.
    back = length - 1 - step
    back[cycle] += 1
    back[cycle & (step == 0)] = 0
    order = np.empty(size, dtype=np.int64)
    order[(np.cumsum(count) - count)[comp] + np.where(forward[anchor], step, back)] = pos
    mins = np.flatnonzero(count)
    return _Walks(label, pair, in_a, in_b, order, count[mins], cycle[mins])


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
    m_a = _label_set(m_a)
    m_b = _label_set(m_b)
    for name, m in (("m_a", m_a), ("m_b", m_b)):
        if not is_matching(graph, m):
            raise NotAMatching(f"{name} is not a matching")
    mats = [_labels(graph, m_a), _labels(graph, m_b)]
    walks = _walks(graph, np.concatenate(mats), [m.size for m in mats])
    return PathCycleDecomposition(
        _components(walks.label[walks.order].tolist(), walks.lengths, walks.cycle))


@dataclass(frozen=True)
class CapResult:
    """Decomposition re-cut so every component has at most s edges."""

    deleted: frozenset
    decomposition: PathCycleDecomposition


def _cut(seq: np.ndarray, lengths: np.ndarray, cycle: np.ndarray, s: int):
    """Cap the components laid back to back in seq at s edges each.

    Deletions are evenly spaced along each component longer than s, at
    p = s mod (s+1) for paths and p = 0 mod (s+1) for cycles; what lies
    between them are path pieces, and shorter components stay whole.  A
    path of L > s edges loses floor(L/(s+1)) of them and a cycle
    ceil(L/(s+1)), the fewest possible.
    Returns (cut, pieces, lengths, cycle): cut marks the deleted entries of
    seq, pieces indexes the others piece by piece, pieces in increasing
    order of their smallest seq value, and lengths and cycle describe them.
    """
    long = lengths > s
    if not long.any():
        return np.zeros(seq.size, dtype=bool), np.arange(seq.size), lengths, cycle
    step = np.arange(seq.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    cut = np.repeat(long, lengths) & ((step + np.repeat(~cycle, lengths)) % (s + 1) == 0)
    opens = step == 0
    opens[1:] |= cut[:-1]
    kept = np.flatnonzero(~cut)
    opens = opens[kept]
    starts = np.flatnonzero(opens)
    # seq holds distinct values, so the pieces' smallest values are distinct
    # and a scatter by value sorts the pieces.
    by_low = np.full(seq.size, -1)
    by_low[np.minimum.reduceat(seq[kept], starts)] = np.arange(starts.size)
    rank = by_low[by_low >= 0]  # pieces in increasing order of their smallest value
    piece_lengths = np.diff(np.append(starts, kept.size))[rank]
    piece_cycle = np.repeat(cycle & ~long, lengths)[kept[starts]][rank]
    # Each kept entry goes to its piece's new offset plus its place in the piece.
    offset = np.empty(starts.size, dtype=np.int64)
    offset[rank] = np.cumsum(piece_lengths) - piece_lengths - starts[rank]
    pieces = np.empty(kept.size, dtype=np.int64)
    pieces[offset[np.cumsum(opens) - 1] + np.arange(kept.size)] = kept
    return cut, pieces, piece_lengths, piece_cycle
