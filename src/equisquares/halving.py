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

The matchings pass through the pipeline as int64 label arrays.  The
HalvingTrace keeps those arrays, one HalvingLevel per level, and builds
its PairTrace, CapResult, Component and final-matching views only when
they are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import bipartite
from .bipartite import (  # union_components is also importable from here
    BipartiteMultigraph,
    CapResult,
    Component,
    PathCycleDecomposition,
    union_components,
)
from .constructions import BlockStructure, validate_block_structure
from .hypergraph import InvalidParam  # one class, importable from here too
from .squares import Cell, EquiNSquare, Transversal, validate_transversal


class NotPowerOfTwo(ValueError):
    pass


def default_cap(n: int) -> int:
    """Component cap n^(1/3) / ln(n)^2 (natural log), floored and clamped to >= 4."""
    if n < 2:
        return 4
    return max(4, math.floor(n ** (1 / 3) / math.log(n) ** 2))


@dataclass(frozen=True)
class PairTrace:
    """One halving step: inputs, capping, coin flips, and the output.

    A view of one pair of a HalvingTrace level, with no serializer of its
    own: HalvingTrace.to_json writes each pair through _pair_json.
    """

    matching_a: frozenset
    matching_b: frozenset
    cap: CapResult
    flips: tuple[int, ...]  # one per component of cap.decomposition
    output: frozenset


def _pair_trace(a: list, b: list, deleted: list, components: list, flips: list,
                output: list) -> PairTrace:
    """A PairTrace from label lists; components as (labels, is_cycle)."""
    comps = tuple(Component(tuple(labels), "cycle" if cyc else "path") for labels, cyc in components)
    return PairTrace(frozenset(a), frozenset(b),
                     CapResult(frozenset(deleted), PathCycleDecomposition(comps)),
                     tuple(flips), frozenset(output))


def _pair_json(a: list, b: list, deleted: list, components: list, flips: list, output: list) -> dict:
    """One pair's JSON in HalvingTrace.to_json, from ascending label lists;
    components as (labels, is_cycle)."""
    comps = [{"kind": "cycle" if cyc else "path", "labels": labels} for labels, cyc in components]
    return {"a": a, "b": b,
            "cap": {"format": 1, "deleted": deleted,
                    "decomposition": {"format": 1, "components": comps}},
            "flips": flips, "output": output}


def _runs(values: list, counts) -> list[list]:
    """values cut into consecutive runs, counts[i] entries in run i."""
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    return [values[lo:hi] for lo, hi in zip([0, *ends], ends)]


@dataclass(frozen=True, eq=False)
class HalvingLevel:
    """One halving level as arrays, its pairs in order.

    pieces holds the labels of the capped components laid end to end, the
    components in (pair, minimum label) order, each in its traversal;
    lengths, cycle, flips and pair hold one entry per component.  deleted
    holds the labels that capping deleted, ascending within each pair,
    and deleted_pair their pairs.  output holds the pair outputs back to
    back, ascending within each, output_sizes[i] labels for pair i.
    """

    pieces: np.ndarray
    lengths: np.ndarray
    cycle: np.ndarray
    flips: np.ndarray
    pair: np.ndarray
    deleted: np.ndarray
    deleted_pair: np.ndarray
    output: np.ndarray
    output_sizes: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    def _per_pair(self):
        """Per pair as lists: deleted labels, components as (labels, is_cycle), flips, output."""
        pairs = self.output_sizes.size
        per_comp = np.bincount(self.pair, minlength=pairs)
        comps = list(zip(_runs(self.pieces.tolist(), self.lengths), self.cycle.tolist()))
        return zip(_runs(self.deleted.tolist(), np.bincount(self.deleted_pair, minlength=pairs)),
                   _runs(comps, per_comp), _runs(self.flips.tolist(), per_comp),
                   _runs(self.output.tolist(), self.output_sizes))


@dataclass(frozen=True, eq=False)
class HalvingTrace:
    """Full record of an iterated halving run; immutable once returned.

    It is stored as arrays: initial holds the input matchings back to
    back, ascending within each, initial_sizes[g] labels for matching g,
    and steps holds one HalvingLevel per level.  completed_labels is the
    perfect matching that block_transversal builds from the halving
    output, ascending; iterated_halving leaves it None.  The object views
    levels and final are built on first read and cached; to_json and
    realized_effect_squares read the arrays.  to_json is the one record of
    a run: it writes every array, and two traces are equal when their
    to_json() are.  The PairTrace, CapResult and PathCycleDecomposition
    views carry no serializer.
    """

    initial: np.ndarray
    initial_sizes: tuple[int, ...]
    steps: tuple[HalvingLevel, ...]
    completed_labels: np.ndarray | None = None

    def __post_init__(self):
        self.initial.setflags(write=False)
        if self.completed_labels is not None:
            self.completed_labels.setflags(write=False)

    def _final_labels(self) -> np.ndarray:
        return self.steps[-1].output if self.steps else self.initial

    def _pairs(self):
        """Level by level, per pair as lists: (a, b, deleted, components, flips, output)."""
        inputs = _runs(self.initial.tolist(), self.initial_sizes)
        for level in self.steps:
            pairs = [(a, b, *rest) for a, b, rest in zip(inputs[::2], inputs[1::2], level._per_pair())]
            yield pairs
            inputs = [pair[-1] for pair in pairs]

    @cached_property
    def levels(self) -> tuple[tuple[PairTrace, ...], ...]:
        return tuple(tuple(_pair_trace(*pair) for pair in level) for level in self._pairs())

    @cached_property
    def final(self) -> frozenset:
        return frozenset(self._final_labels().tolist())

    def to_json(self) -> dict:
        completed = self.completed_labels
        return {
            "format": 1,
            "initial_matchings": _runs(self.initial.tolist(), self.initial_sizes),
            "levels": [[_pair_json(*pair) for pair in level] for level in self._pairs()],
            "final": self._final_labels().tolist(),
            "completed": None if completed is None else completed.tolist(),
        }

    def __eq__(self, other):
        if not isinstance(other, HalvingTrace):
            return NotImplemented
        return self.to_json() == other.to_json()


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
                 s: int, rng: np.random.Generator) -> HalvingLevel:
    """Halve the pairs of matchings (0, 1), (2, 3), ... in one array pass.

    labels holds the matchings back to back, sizes[g] labels for matching
    g; they must be matchings of graph, which is not checked here.  The
    capped components of all pairs, in (pair, minimum label) order, get
    their coins from one draw, which leaves the generator where one draw
    per component would.  The outputs are checked with one _clash.
    """
    pairs = len(sizes) // 2
    walks = bipartite._walks(graph, labels, sizes)
    cut, idx, lengths, cycle = bipartite._cut(walks.order, walks.lengths, walks.cycle, s)
    pieces = walks.order[idx]
    flips = rng.integers(0, 2, size=lengths.size)
    take_b = np.repeat(flips.astype(bool), lengths)
    # Positions run in (pair, label) order, so sorted positions are sorted labels per pair.
    kept = np.sort(pieces[np.where(take_b, walks.in_b[pieces], walks.in_a[pieces])])
    output, output_pair = walks.label[kept], walks.pair[kept]
    if bipartite._clash(graph, output, output_pair, pairs) >= 0:
        raise bipartite.NotAMatching("halving produced a non-matching")
    deleted = np.sort(walks.order[cut])
    return HalvingLevel(
        pieces=walks.label[pieces], lengths=lengths, cycle=cycle, flips=flips,
        pair=walks.pair[pieces[np.cumsum(lengths) - lengths]],
        deleted=walks.label[deleted], deleted_pair=walks.pair[deleted],
        output=output, output_sizes=np.bincount(output_pair, minlength=pairs))


def _halve(graph: BipartiteMultigraph, labels: np.ndarray, sizes: list[int], s: int,
           rng: np.random.Generator) -> HalvingTrace:
    """iterated_halving on matchings given as labels back to back, sizes[g] for matching g."""
    count = len(sizes)
    if count == 0 or count & (count - 1):
        raise NotPowerOfTwo(f"need a power of two matchings, got {count}")
    if s < 1:
        raise InvalidParam(f"cap must be >= 1, got {s}")
    group = np.repeat(np.arange(count), sizes)
    bad = bipartite._clash(graph, labels, group, count)
    if bad >= 0:
        raise bipartite.NotAMatching(f"matching {bad} is not a matching")
    offset = group * graph.left.size
    initial = np.sort(offset + labels) - offset  # ascending within each matching
    levels = []
    labels, level_sizes = initial, sizes
    while len(level_sizes) > 1:
        levels.append(_halve_level(graph, labels, level_sizes, s, rng))
        labels, level_sizes = levels[-1].output, levels[-1].output_sizes.tolist()
    return HalvingTrace(initial, tuple(sizes), tuple(levels))


def iterated_halving(
    graph: BipartiteMultigraph, matchings, s: int, rng: np.random.Generator
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
    level as label arrays, which the trace keeps.
    """
    matchings = [frozenset(m) for m in matchings]
    labels = bipartite._labels(graph, itertools.chain.from_iterable(matchings))
    trace = _halve(graph, labels, [len(m) for m in matchings], s, rng)
    return trace.final, trace


def build_block_multigraph(square: EquiNSquare, blocks: BlockStructure) -> BipartiteMultigraph:
    """Column-symbol multigraph with one edge per block, labelled by block index."""
    return BipartiteMultigraph(square.n, square.n, blocks.cols, blocks.symbols)


def block_transversal(
    square: EquiNSquare, blocks: BlockStructure, s: int, rng: np.random.Generator
) -> tuple[Transversal, HalvingTrace, RowLoads]:
    """Transversal via a bounded-dependence random matching of blocks.

    Decomposes the k-regular block multigraph into k perfect matchings
    (k = n/m, a power of two) and halves them down to one matching M.
    Capping deletes edges, so M may leave columns and symbols unmatched;
    the completion stage augments M to a perfect matching C of blocks that
    covers every vertex M covers (see _complete).  Rows are then matched to
    the columns whose block in C covers them, by Hopcroft-Karp (HK).
    Distinct columns carry distinct symbols because C is a matching, so
    the result is a valid transversal.

    Completion and the row-column HK step set the transversal's size; the
    halving only shapes the row loads of M.  Medians over 5 seeds at
    n = 1024 with the default cap, as fractions of n:

        m     block_transversal   matchings[0] + HK only   M only
        256   1.000               1.000                    0.702
        64    1.000               1.000                    0.603
        16    1.000               1.000                    0.540
        4     0.978               0.978                    0.498
        1     0.633               0.631                    0.377

    The matchings stay int64 label arrays from the decomposition to the
    row-column graph.  The returned trace records M as trace.final and C
    as trace.completed_labels.  The returned RowLoads are those of M, the
    halving output, not of C.
    """
    n = square.n
    validate_block_structure(square, blocks)
    k = n // blocks.m  # exact: blocks of m cells partition every column
    if k & (k - 1):
        raise NotPowerOfTwo(f"k = n/m = {k} must be a power of two")

    graph = build_block_multigraph(square, blocks)
    matchings = bipartite._decompose(graph, k)
    trace = _halve(graph, matchings.ravel(), [n] * k, s, rng)
    selected = _complete(graph, trace._final_labels(), matchings[0])
    trace = replace(trace, completed_labels=selected)

    # Bipartite row-column graph: edge (i, j) iff column j's selected block
    # covers row i.  A matching here is a transversal of the square.
    rows = blocks.rows[selected].ravel()
    cols = np.repeat(blocks.cols[selected], blocks.m)
    pairs = bipartite.matching_pairs_from_arrays(rows, cols, n, n)
    cells = [Cell(i, j) for i, j in pairs]
    transversal = validate_transversal(square, cells)
    loads = row_loads(blocks, trace._final_labels(), n)
    return transversal, trace, loads


def _complete(graph: BipartiteMultigraph, matching: np.ndarray, perfect: np.ndarray) -> np.ndarray:
    """Augment a matching to a perfect one along its union with `perfect`.

    Each path of the union whose two end edges lie outside `matching`
    joins two vertices that `matching` leaves free, so it is an augmenting
    path (Berge); swapping its edges covers both ends and uncovers nothing.
    Every vertex free in `matching` is such an end, because `perfect`
    covers it, so the result is perfect.  Cycles and other paths are left
    alone.  Both inputs are label arrays of matchings of graph; the paths
    come from one _walks pass, and the result is ascending.
    Deterministic: no random numbers are drawn.
    """
    walks = bipartite._walks(graph, np.concatenate((matching, perfect)),
                             [matching.size, perfect.size])
    first = np.cumsum(walks.lengths) - walks.lengths
    ends = walks.order[first], walks.order[first + walks.lengths - 1]
    augmenting = ~walks.cycle & ~walks.in_a[ends[0]] & ~walks.in_a[ends[1]]
    swap = np.zeros(walks.label.size, dtype=bool)
    swap[walks.order[np.repeat(augmenting, walks.lengths)]] = True
    out = walks.label[np.where(swap, walks.in_b, walks.in_a)]
    if bipartite._clash(graph, out, np.zeros_like(out), 1) >= 0:
        raise bipartite.NotAMatching("completion produced a non-matching")
    if out.size != graph.left_size:
        raise bipartite.NotAMatching(
            f"completion has {out.size} edges, expected {graph.left_size}"
        )
    return out


def _block_rows(blocks: BlockStructure, labels: np.ndarray, n_rows: int) -> np.ndarray:
    """blocks.rows[labels]; InvalidParam unless every label is a block and every row < n_rows."""
    count = blocks.rows.shape[0]
    bad = labels[(labels < 0) | (labels >= count)]
    if bad.size:
        raise InvalidParam(f"label {bad[0]} is not a block (labels are 0..{count - 1})")
    rows = blocks.rows[labels]
    if rows.size and rows.max() >= n_rows:
        raise InvalidParam(f"a block covers a row >= n_rows = {n_rows}")
    return rows


def row_loads(blocks: BlockStructure, matching, n_rows: int) -> RowLoads:
    """Per-row count of the blocks in `matching` that have a cell in that row.

    matching is any collection of block labels.  InvalidParam if a label
    is not a block or a block covers a row >= n_rows.
    """
    labels = np.fromiter(matching, dtype=np.int64)
    return RowLoads(loads=np.bincount(_block_rows(blocks, labels, n_rows).ravel(), minlength=n_rows))


def mcdiarmid_bound(c, t: float) -> float:
    """Two-sided bounded-differences tail bound 2 exp(-t^2 / sum c_i^2).

    c lists the worst-case effect of each independent coordinate; the
    result is clamped to 1.
    """
    arr = np.asarray(c, dtype=np.float64)
    if arr.size == 0 or not (arr >= 0).all():  # NaN is not >= 0
        raise InvalidParam("c must be nonnegative and nonempty")
    if not t > 0:
        raise InvalidParam(f"t must be positive, got {t}")
    denom = float((arr * arr).sum())
    if denom <= 0:
        raise InvalidParam("sum of squared effects must be positive")
    return min(1.0, 2.0 * math.exp(-(t * t) / denom))


def realized_effect_squares(trace: HalvingTrace, blocks: BlockStructure, n_rows: int) -> np.ndarray:
    """sum of squared per-coin effects, for every row at once.

    Each kept component is one coin; they are numbered level by level,
    pair by pair, and read from the trace's arrays.  InvalidParam if a
    label is not a block or a block covers a row >= n_rows.
    """
    labels = np.concatenate([np.empty(0, dtype=np.int64), *(lv.pieces for lv in trace.steps)])
    sizes = np.concatenate([np.empty(0, dtype=np.int64), *(lv.lengths for lv in trace.steps)])
    comp = np.repeat(np.arange(sizes.size), sizes)
    # One key per (component, covered row) incidence; its multiplicity is the
    # component's effect on that row.
    keys = (comp[:, None] * n_rows + _block_rows(blocks, labels, n_rows)).ravel()
    pairs, effect = np.unique(keys, return_counts=True)
    return np.bincount(pairs % n_rows, weights=effect.astype(np.float64) ** 2,
                       minlength=n_rows)
