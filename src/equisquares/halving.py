"""Randomized matching selection with bounded dependence.

Two matchings are merged by breaking their union into paths/cycles of at
most s edges (deleting a few edges) and flipping one fair coin per piece to
keep that piece's edges from one matching or the other.  Iterating over
2^levels matchings yields a single matching in which any surviving edge was
kept with probability exactly 2^-levels, while edges in different pieces
stay independent.  Applied to the column-symbol block multigraph of a
block-structured square, the surviving matching is then completed to a
perfect matching of blocks by augmenting it along the paths of its union
with one perfect matching of the decomposition; the completed matching
induces a bipartite row-column graph whose maximum matching is a
transversal.  Capping limits the halving output, not the transversal: the
completion restores every column and symbol that capping left unmatched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import bipartite
from .bipartite import BipartiteMultigraph, CapResult, union_components
from .constructions import BlockMismatch, BlockStructure, validate_block_structure
from .squares import Cell, EquiNSquare, Transversal, validate_transversal


class NotPowerOfTwo(ValueError):
    pass


class InvalidParam(ValueError):
    pass


def default_cap(n: int) -> int:
    """Component cap n^(1/3) / ln(n)^2 (natural log), floored and clamped to >= 4."""
    if n < 2:
        return 4
    return max(4, math.floor(n ** (1 / 3) / math.log(n) ** 2))


@dataclass(frozen=True)
class PairTrace:
    """One halving step: inputs, capping, coin flips, and the output."""

    matching_a: frozenset
    matching_b: frozenset
    cap: CapResult
    flips: tuple[int, ...]  # one per component of cap.decomposition
    output: frozenset

    def to_json(self) -> dict:
        return {
            "a": sorted(self.matching_a),
            "b": sorted(self.matching_b),
            "cap": self.cap.to_json(),
            "flips": list(self.flips),
            "output": sorted(self.output),
        }


@dataclass(frozen=True)
class HalvingTrace:
    """Full record of an iterated halving run; immutable once returned.

    final is the halving output.  completed is the perfect matching that
    block_transversal builds from it; iterated_halving leaves it None.
    """

    initial_matchings: tuple[frozenset, ...]
    levels: tuple[tuple[PairTrace, ...], ...]
    final: frozenset
    rng_seed: int | None = None
    completed: frozenset | None = None

    def to_json(self) -> dict:
        return {
            "format": 1,
            "rng_seed": self.rng_seed,
            "initial_matchings": [sorted(m) for m in self.initial_matchings],
            "levels": [[p.to_json() for p in level] for level in self.levels],
            "final": sorted(self.final),
            "completed": None if self.completed is None else sorted(self.completed),
        }


@dataclass(frozen=True)
class RowLoads:
    """Per-row count of selected blocks containing a cell in that row."""

    loads: np.ndarray

    def __post_init__(self):
        self.loads.setflags(write=False)

    def to_csv(self, path) -> None:
        lines = ["row_index,load"]
        lines += [f"{i},{int(v)}" for i, v in enumerate(self.loads)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))


def _halve_level(graph: BipartiteMultigraph, labels: np.ndarray, sizes: list[int],
                 inputs: list[frozenset], s: int, rng: np.random.Generator):
    """Halve the pairs of matchings (0, 1), (2, 3), ... in one array pass.

    labels holds the matchings back to back, sizes[g] labels for matching
    g; they must be matchings of graph, which is not checked here.  inputs
    holds the same matchings as frozensets, for the trace.  The capped
    components of all pairs, in (pair, minimum label) order, get their
    coins from one draw, which leaves the generator where one draw per
    component would.  Returns the outputs back to back (ascending labels
    within each), their sizes, the outputs as frozensets, and the level's
    PairTraces.
    """
    pairs = len(sizes) // 2
    walks = bipartite._walks(graph, labels, sizes)
    cut, idx, lengths, cycle = bipartite._cut(walks.order, walks.lengths, walks.cycle, s)
    pieces = walks.order[idx]
    flips = rng.integers(0, 2, size=lengths.size)
    take_b = np.repeat(flips.astype(bool), lengths)
    kept = np.sort(pieces[np.where(take_b, walks.in_b[pieces], walks.in_a[pieces])])
    kept_labels = walks.label[kept]
    if bipartite._clash(graph, kept_labels, walks.pair[kept], pairs) >= 0:
        raise bipartite.NotAMatching("halving produced a non-matching")

    def per_pair(positions):
        """Labels at positions as a list, and the bounds of each pair's run in it."""
        counts = np.bincount(walks.pair[positions], minlength=pairs)
        return walks.label[positions].tolist(), [0, *np.cumsum(counts).tolist()]

    out, out_at = per_pair(kept)
    dropped, dropped_at = per_pair(walks.order[cut])
    _, comp_at = per_pair(pieces[np.cumsum(lengths) - lengths])
    comps = bipartite._components(walks.label[pieces].tolist(), lengths, cycle)
    flips = flips.tolist()
    outputs, traces = [], []
    for i in range(pairs):
        lo, hi = comp_at[i], comp_at[i + 1]
        output = frozenset(out[out_at[i]:out_at[i + 1]])
        cap = CapResult(deleted=frozenset(dropped[dropped_at[i]:dropped_at[i + 1]]),
                        decomposition=bipartite.PathCycleDecomposition(comps[lo:hi]))
        traces.append(PairTrace(matching_a=inputs[2 * i], matching_b=inputs[2 * i + 1],
                                cap=cap, flips=tuple(flips[lo:hi]), output=output))
        outputs.append(output)
    return kept_labels, np.diff(out_at).tolist(), outputs, tuple(traces)


def iterated_halving(
    graph: BipartiteMultigraph,
    matchings,
    s: int,
    rng: np.random.Generator,
    rng_seed: int | None = None,
) -> tuple[frozenset, HalvingTrace]:
    """Halve 2^levels matchings down to one, recording a full trace.

    Pairs are taken in order (0,1), (2,3), ...  Each capped component of
    a pair's union gets one coin: flip 1 keeps its edges from the second
    matching of the pair, flip 0 those from the first, so an edge never
    deleted by capping survives to the final matching with probability
    2^-levels.  Components are processed in (pair, minimum label) order,
    so a seed fully determines the result.
    The inputs are checked once; each level is then one array pass over
    all its pairs (see _halve_level), and the matchings pass from level to
    level as label arrays.  Frozensets are built for the trace only, each
    level's outputs serving as the next level's inputs.
    """
    matchings = [frozenset(m) for m in matchings]
    count = len(matchings)
    if count == 0 or count & (count - 1):
        raise NotPowerOfTwo(f"need a power of two matchings, got {count}")
    if s < 1:
        raise InvalidParam(f"cap must be >= 1, got {s}")
    levels = []
    current = matchings
    if count > 1:
        labels = bipartite._labels(graph, itertools.chain.from_iterable(matchings))
        sizes = [len(m) for m in matchings]
        bad = bipartite._clash(graph, labels, np.repeat(np.arange(count), sizes), count)
        if bad >= 0:
            raise bipartite.NotAMatching(f"matching {bad} is not a matching")
    while len(current) > 1:
        labels, sizes, current, traces = _halve_level(graph, labels, sizes, current, s, rng)
        levels.append(traces)
    trace = HalvingTrace(
        initial_matchings=tuple(matchings),
        levels=tuple(levels),
        final=current[0],
        rng_seed=rng_seed,
    )
    return current[0], trace


def build_block_multigraph(square: EquiNSquare, blocks: BlockStructure) -> BipartiteMultigraph:
    """Column-symbol multigraph with one edge per block, labelled by block index."""
    return BipartiteMultigraph(square.n, square.n, blocks.cols, blocks.symbols)


def block_transversal(
    square: EquiNSquare,
    blocks: BlockStructure,
    s: int,
    rng: np.random.Generator,
    rng_seed: int | None = None,
) -> tuple[Transversal, HalvingTrace, RowLoads]:
    """Transversal via a bounded-dependence random matching of blocks.

    Decomposes the k-regular block multigraph into k perfect matchings
    (k = n/m, a power of two) and halves them down to one matching M.
    Capping deletes edges, so M may leave columns and symbols unmatched;
    the completion stage augments M to a perfect matching C of blocks that
    covers every vertex M covers (see _complete).  Rows are then matched to
    the columns whose block in C covers them.  Distinct columns carry
    distinct symbols because C is a matching, so the result is a valid
    transversal.

    The returned trace records M as trace.final and C as trace.completed.
    The returned RowLoads are those of M, the halving output, not of C.
    """
    n = square.n
    validate_block_structure(square, blocks)
    if n % blocks.m:
        raise BlockMismatch(f"block size {blocks.m} does not divide {n}")
    k = n // blocks.m
    if k & (k - 1):
        raise NotPowerOfTwo(f"k = n/m = {k} must be a power of two")

    graph = build_block_multigraph(square, blocks)
    matchings = bipartite.decompose_regular(graph, k)
    selected, trace = iterated_halving(graph, matchings, s, rng, rng_seed=rng_seed)
    selected = _complete(graph, selected, matchings[0])
    trace = replace(trace, completed=selected)

    # Bipartite row-column graph: edge (i, j) iff column j's selected block
    # covers row i.  A matching here is a transversal of the square.
    sel = _index(selected)
    rows = blocks.rows[sel].ravel()
    cols = np.repeat(blocks.cols[sel], blocks.m)
    pairs = bipartite.matching_pairs_from_arrays(rows, cols, n, n)
    cells = [Cell(i, j) for i, j in pairs]
    transversal = validate_transversal(square, cells)
    loads = row_loads(blocks, trace.final, n)
    return transversal, trace, loads


def _complete(graph: BipartiteMultigraph, matching: frozenset, perfect: frozenset) -> frozenset:
    """Augment a matching to a perfect one along its union with `perfect`.

    Each path of the union whose two end edges lie outside `matching`
    joins two vertices that `matching` leaves free, so it is an augmenting
    path (Berge); swapping its edges covers both ends and uncovers nothing.
    Every vertex free in `matching` is such an end, because `perfect`
    covers it, so the result is perfect.  Cycles and other paths are left
    alone.  Deterministic: no random numbers are drawn.
    """
    out = set(matching)
    for comp in union_components(graph, matching, perfect).components:
        if comp.kind == "path" and comp.labels[0] not in matching \
                and comp.labels[-1] not in matching:
            out.symmetric_difference_update(comp.labels)
    out = frozenset(out)
    if not bipartite.is_matching(graph, out):
        raise bipartite.NotAMatching("completion produced a non-matching")
    if len(out) != graph.left_size:
        raise bipartite.NotAMatching(
            f"completion has {len(out)} edges, expected {graph.left_size}"
        )
    return out


def _index(labels) -> np.ndarray:
    """Block labels, ascending, as an index array."""
    return np.array(sorted(labels), dtype=np.int64)


def row_loads(blocks: BlockStructure, matching, n_rows: int) -> RowLoads:
    """Per-row count of the blocks in `matching` that have a cell in that row."""
    rows = blocks.rows[_index(matching)].ravel()
    return RowLoads(loads=np.bincount(rows, minlength=n_rows))


def mcdiarmid_bound(c, t: float) -> float:
    """Two-sided bounded-differences tail bound 2 exp(-t^2 / sum c_i^2).

    c lists the worst-case effect of each independent coordinate; the
    result is clamped to 1.
    """
    arr = np.asarray(c, dtype=np.float64)
    if arr.size == 0 or (arr < 0).any():
        raise InvalidParam("c must be nonnegative and nonempty")
    if not t > 0:
        raise InvalidParam(f"t must be positive, got {t}")
    denom = float((arr * arr).sum())
    if denom <= 0:
        raise InvalidParam("sum of squared effects must be positive")
    return min(1.0, 2.0 * math.exp(-(t * t) / denom))


def realized_effect_squares(trace: HalvingTrace, blocks: BlockStructure, n_rows: int) -> np.ndarray:
    """sum of squared per-coin effects, for every row at once.

    Each kept component is one coin; they are numbered level by level, pair by pair.
    """
    comps = [comp.labels for level in trace.levels for pair in level
             for comp in pair.cap.decomposition.components]
    sizes = np.fromiter(map(len, comps), dtype=np.int64, count=len(comps))
    labels = np.fromiter((lab for c in comps for lab in c), dtype=np.int64, count=int(sizes.sum()))
    comp = np.repeat(np.arange(len(comps)), sizes)
    if labels.size and blocks.rows[labels].max() >= n_rows:
        raise InvalidParam(f"a block covers a row >= n_rows = {n_rows}")
    # One key per (component, covered row) incidence; its multiplicity is the
    # component's effect on that row.
    keys = (comp[:, None] * n_rows + blocks.rows[labels]).ravel()
    pairs, effect = np.unique(keys, return_counts=True)
    return np.bincount(pairs % n_rows, weights=effect.astype(np.float64) ** 2,
                       minlength=n_rows)
