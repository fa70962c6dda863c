"""Every entry point that takes an integer index (a cell, a vertex, an edge
label, a block size) or an integer array (a grid, block fields, graph
endpoints, a label collection) refuses bools and non-integers with its own
typed error."""

import re

import numpy as np
import pytest

from equisquares.bipartite import (
    BipartiteMultigraph,
    NotAMatching,
    is_matching,
    make_graph,
    union_components,
)
from equisquares.constructions import (
    BlockMismatch,
    BlockStructure,
    block_structured_square,
    counterexample_square,
    cyclic_latin,
    random_equi_square,
)
from equisquares.halving import block_transversal, iterated_halving, row_loads
from equisquares.hypergraph import (
    InvalidParam,
    TripartiteHypergraph,
    alon_kim,
    blow_up,
    codegree,
    from_square,
    split_high_codegree,
)
from equisquares.solvers import local_search, peel_decomposition
from equisquares.squares import (
    CellOutOfRange,
    DimensionMismatch,
    SymbolOutOfRange,
    read_square,
    validate_square,
    validate_transversal,
    write_square,
)

SQUARE = cyclic_latin(3)
H = from_square(SQUARE)
# Two perfect matchings of a 2-regular graph: labels 0, 1, 2 and 3, 4, 5.
G = BipartiteMultigraph(3, 3, [0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 2, 0])
BLOCK_SQUARE, BLOCKS = block_structured_square(4, 2, 0)
# A transversal of a larger square: local_search refuses it once it has read its iterations.
FOREIGN = validate_transversal(cyclic_latin(5), [(4, 4)])
BIG = 2**63  # past int64
VALUES = [True, False, np.True_, 1.0, "1", BIG]


def _vertex(v):
    return InvalidParam, f"vertex {v!r} is not in classes (3, 3, 3)"


def _size(v):
    # BIG is an integer, so it is accepted as a size.
    return None if v is BIG else (TypeError, "object cannot be interpreted as an integer")


def _unallocatable(v):
    # BIG is an integer; the arrays it sizes cannot be allocated.
    return (ValueError, "Maximum allowed") if v is BIG else _size(v)


def _labels(v):
    # BIG is an integer, only not an edge.
    return NotAMatching, (f"label {BIG} is not an edge of the graph (labels are 0..5)" if v is BIG
                          else "edge labels must be integers")


# name -> (call with the value in an index position, its expected
# (error type, message), or None where the value is a valid integer).
ENTRY_POINTS = {
    "validate_transversal": (
        lambda v: validate_transversal(SQUARE, [(0, 0), (v, 1)]),
        lambda v: (CellOutOfRange, f"cell {(v, 1)} outside [0, 3)^2" if v is BIG
                   else f"cell {(v, 1)} has a non-integer index"),
    ),
    "TripartiteHypergraph": (
        lambda v: TripartiteHypergraph((3, 3, 3), ((0, 0, 0), (1, v, 1))),
        lambda v: (ValueError, f"edge {(1, v, 1)} out of range for classes (3, 3, 3)"),
    ),
    "TripartiteHypergraph class size": (lambda v: TripartiteHypergraph((3, v, 3), ((0, 0, 0),)), _size),
    "incident class": (lambda v: H.incident((v, 0)), lambda v: _vertex((v, 0))),
    "incident index": (lambda v: H.incident((0, v)), lambda v: _vertex((0, v))),
    "degree": (lambda v: H.degree((2, v)), lambda v: _vertex((2, v))),
    # (1, 0) is not (True, 0) == (1, 0), so codegree reaches incident.
    "codegree": (lambda v: codegree(H, (0, v), (1, 0)), lambda v: _vertex((0, v))),
    "alon_kim": (alon_kim, _unallocatable),
    "blow_up": (lambda v: blow_up(H, v), _unallocatable),
    "split_high_codegree": (lambda v: split_high_codegree(H, v), _size),
    "local_search": (
        lambda v: local_search(SQUARE, FOREIGN, np.random.default_rng(0), v),
        lambda v: (CellOutOfRange, "cell (4, 4) outside [0, 3)^2") if v is BIG else _size(v)),
    "peel_decomposition": (
        lambda v: peel_decomposition(SQUARE, np.random.default_rng(0), v),
        lambda v: (ValueError, f"min_size {BIG} is outside [1, n=3]") if v is BIG else _size(v)),
    "block_transversal": (lambda v: block_transversal(BLOCK_SQUARE, BLOCKS, v, np.random.default_rng(0)), _size),
    "iterated_halving cap": (
        lambda v: iterated_halving(G, [[0, 1, 2], [3, 4, 5]], v, np.random.default_rng(0)), _size),
    "BipartiteMultigraph left size": (lambda v: BipartiteMultigraph(v, 3, [0], [0]), _size),
    "BipartiteMultigraph right size": (lambda v: BipartiteMultigraph(3, v, [0], [0]), _size),
    "is_matching": (lambda v: is_matching(G, [0, v]), _labels),
    # frozenset({True, 1}) is {True}: pair v with label 2, whose edge meets
    # neither edge 0 nor edge 1.
    "union_components": (lambda v: union_components(G, [2, v], [3, 4]), _labels),
    "iterated_halving": (
        lambda v: iterated_halving(G, [[2, v], [3, 4]], 2, np.random.default_rng(0)), _labels),
    "row_loads": (
        lambda v: row_loads(BLOCKS, [3, v], 4),
        lambda v: (InvalidParam, f"label {BIG} is not a block (labels are 0..7)" if v is BIG
                   else f"label {v!r} is not an integer"),
    ),
    "BlockStructure m": (
        lambda v: BlockStructure(m=v, cols=BLOCKS.cols, symbols=BLOCKS.symbols, rows=BLOCKS.rows),
        lambda v: None if v is BIG else (TypeError, "object cannot be interpreted as an integer"),
    ),
    "blocks sidecar m": (
        lambda v: BlockStructure.from_json(
            {"format": 1, "m": v, "blocks": [{"col": 0, "symbol": 0, "rows": [0]}]}),
        lambda v: (BlockMismatch, f"block 0 has 1 cells, expected a list of {BIG} rows" if v is BIG
                   else f"blocks sidecar needs a positive integer 'm', got {v!r}"),
    ),
}


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_index_positions_refuse_bools_and_non_integers_with_a_typed_error(entry, value):
    call, expected = ENTRY_POINTS[entry]
    outcome = expected(value)
    if outcome is None:
        call(value)
        return
    error, message = outcome
    with pytest.raises(error, match=re.escape(message)) as info:
        call(value)
    assert type(info.value) is error


ARRAY_VALUES = [True, np.True_, 1.5, "1", None, BIG]


def _plain(v):
    """v as read back from an ndarray of v's own dtype: np.True_ comes back as True."""
    return True if v is np.True_ else v


def _symbol(v, cell):
    if v is BIG:
        return OverflowError, f"symbol {BIG} at cell {cell} does not fit in int64"
    return SymbolOutOfRange, f"symbol {v!r} at cell {cell} not in [0, n)"


def _block(key, v):
    named = f", not {v!r}" if isinstance(v, (bool, np.bool_)) else ""
    return BlockMismatch, f"block '{key}' entries must be integers{named}"


def _fields(**change):
    fields = {"m": 2, "cols": BLOCKS.cols, "symbols": BLOCKS.symbols, "rows": BLOCKS.rows}
    return BlockStructure(**{**fields, **change})


def _endpoint(v, index):
    return ValueError, f"endpoint {v!r} at {index} is not an integer within int64"


def _row_label(v):
    if v is BIG:
        return InvalidParam, f"label {BIG} is not a block (labels are 0..7)"
    return InvalidParam, f"label {_plain(v)!r} is not an integer"


# name -> (call with the value inside a list, or inside an ndarray of the
# value's own dtype, and its expected (error type, message)).
ARRAY_ENTRY_POINTS = {
    "validate_square list": (lambda v: validate_square(2, [[0, v], [1, 0]]),
                             lambda v: _symbol(v, (0, 1))),
    "validate_square ndarray": (lambda v: validate_square(2, np.full((2, 2), v)),
                                lambda v: _symbol(_plain(v), (0, 0))),
    "BlockStructure cols list": (lambda v: _fields(cols=[0, v, *BLOCKS.cols[2:].tolist()]),
                                 lambda v: _block("col", v)),
    "BlockStructure cols ndarray": (lambda v: _fields(cols=np.full(8, v)),
                                    lambda v: _block("col", _plain(v))),
    "BlockStructure symbols list": (lambda v: _fields(symbols=[v, *BLOCKS.symbols[1:].tolist()]),
                                    lambda v: _block("symbol", v)),
    "BlockStructure symbols ndarray": (lambda v: _fields(symbols=np.full(8, v)),
                                       lambda v: _block("symbol", _plain(v))),
    "BlockStructure rows list": (lambda v: _fields(rows=[[0, v], *BLOCKS.rows[1:].tolist()]),
                                 lambda v: _block("rows", v)),
    "BlockStructure rows ndarray": (lambda v: _fields(rows=np.full((8, 2), v)),
                                    lambda v: _block("rows", _plain(v))),
    "BipartiteMultigraph list": (lambda v: BipartiteMultigraph(3, 3, [0, 1, 2], [0, v, 2]),
                                 lambda v: _endpoint(v, (1,))),
    "BipartiteMultigraph ndarray": (lambda v: BipartiteMultigraph(3, 3, np.full(3, v), [0, 1, 2]),
                                    lambda v: _endpoint(_plain(v), (0,))),
    "make_graph": (lambda v: make_graph(3, 3, [(0, 0), (1, v)]), lambda v: _endpoint(v, (1, 1))),
    "row_loads ndarray": (lambda v: row_loads(BLOCKS, np.full(2, v), 4), _row_label),
}


@pytest.mark.parametrize("value", ARRAY_VALUES, ids=repr)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_entries_refuse_bools_and_non_integers_with_a_typed_error(entry, value):
    call, expected = ARRAY_ENTRY_POINTS[entry]
    error, message = expected(value)
    with pytest.raises(error, match=re.escape(message)) as info:
        call(value)
    assert type(info.value) is error


def test_stored_int_arrays_are_read_only_copies_and_the_callers_stay_writable(tmp_path):
    left, right = np.array([0, 1, 2]), np.array([1, 2, 0], dtype=np.int32)
    graph = BipartiteMultigraph(3, 3, left, right)
    left[0] = right[0] = 2
    assert graph.left.tolist() == [0, 1, 2] and graph.right.tolist() == [1, 2, 0]
    assert graph.right.dtype == np.int64
    fields = {"cols": np.array([0, 1]), "symbols": np.array([1, 0]), "rows": np.array([[0, 1], [1, 0]])}
    blocks = BlockStructure(m=2, **fields)
    for name, arr in fields.items():
        arr[0] = 5
        assert getattr(blocks, name).ravel()[0] != 5
    for arr in (graph.left, graph.right, blocks.cols, blocks.symbols, blocks.rows):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    frozen = np.array([0, 1])
    frozen.setflags(write=False)  # a read-only array is kept as it is
    assert BipartiteMultigraph(2, 2, frozen, frozen).left is frozen
    assert BlockStructure(m=1, cols=frozen, symbols=frozen, rows=np.array([[0], [1]])).cols is frozen
    for grid in (np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]], dtype=np.int32), [[0, 1], [1, 0]]):
        square = validate_square(2, grid)
        grid[0][0] = 1
        assert square.grid.tolist() == [[0, 1], [1, 0]] and not square.grid.flags.writeable
    frozen_grid = np.array([[0, 1], [1, 0]])
    frozen_grid.setflags(write=False)
    assert validate_square(2, frozen_grid).grid is frozen_grid
    written = tmp_path / "square.txt"
    write_square(SQUARE, written)
    generated = [counterexample_square(8)[0], random_equi_square(4, 0), SQUARE,
                 block_structured_square(4, 2, 0)[0], read_square(written)]
    for square in generated:
        with pytest.raises(ValueError, match="read-only"):
            square.grid[0, 0] = 1


@pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
def test_ndarray_subclasses_and_views_are_read_as_arrays_and_copied(tmp_path):
    # An ndarray subclass is an array, not nested lists: a matrix row is
    # still 2-D, so indexing it as a list of rows fails.
    square = validate_square(2, np.matrix([[0, 1], [1, 0]]))
    assert type(square.grid) is np.ndarray and square.grid.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(SymbolOutOfRange):
        validate_square(2, np.matrix([[True, False], [False, True]]))
    # A writable memmap, or a view of a caller's array, is copied: writing
    # it afterwards leaves the validated square as it was.
    mm = np.memmap(tmp_path / "grid.bin", dtype=np.int64, mode="w+", shape=(2, 2))
    mm[:] = [[0, 1], [1, 0]]
    base = np.array([[0, 1, 5], [1, 0, 5]])
    squares = [validate_square(2, mm), validate_square(2, base[:, :2])]
    mm[0, 0] = base[0, 0] = 1
    for square in squares:
        assert square.grid.tolist() == [[0, 1], [1, 0]] and not square.grid.flags.writeable
    assert mm.flags.writeable and base.flags.writeable
    del mm


# Label collections of the wrong shape: each holds labels that are edges of
# G and blocks of BLOCKS, so only the shape is at fault.
SHAPES = {"2-D ndarray": np.array([[0, 1], [2, 3]]), "0-d ndarray": np.array(3), "int": 3,
          "list of lists": [[0, 1], [2, 3]]}
_NOT_LABELS = NotAMatching, "edge labels must be integers"

# name -> (call with the collection in a labels position, its expected (error type, message)).
SHAPE_ENTRY_POINTS = {
    "is_matching": (lambda v: is_matching(G, v), lambda v: _NOT_LABELS),
    "union_components": (lambda v: union_components(G, v, [3, 4]), lambda v: _NOT_LABELS),
    "iterated_halving": (
        lambda v: iterated_halving(G, [v, [3, 4]], 2, np.random.default_rng(0)), lambda v: _NOT_LABELS),
    "row_loads": (
        lambda v: row_loads(BLOCKS, v, 4),
        lambda v: (InvalidParam, f"block labels must be a 1-D collection, got shape {np.shape(v)}")),
}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("entry", SHAPE_ENTRY_POINTS)
def test_label_collections_of_the_wrong_shape_are_refused_with_a_typed_error(entry, shape):
    call, expected = SHAPE_ENTRY_POINTS[entry]
    error, message = expected(SHAPES[shape])
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(SHAPES[shape])
    assert type(info.value) is error


def test_validate_square_calls_a_ragged_grid_a_dimension_mismatch():
    for grid in ([[0, 1], [1]], [[0, 1], [1, [0, 1]]]):
        with pytest.raises(DimensionMismatch, match=r"grid is ragged, expected shape \(2, 2\)"):
            validate_square(2, grid)


@pytest.mark.parametrize("key, value", [("col", [0, 0]), ("symbol", [1]), ("rows", [[0], [1]])])
def test_blocks_sidecar_refuses_a_list_where_every_number_belongs(key, value):
    # With a list in that place in every block, numpy reads the field as an
    # integer array of one more dimension, which the gate lets pass.
    blocks = [{"col": 0, "symbol": 0, "rows": [0, 1], key: value} for _ in range(2)]
    with pytest.raises(BlockMismatch, match=f"^block '{key}' entries must be integers$"):
        BlockStructure.from_json({"format": 1, "m": 2, "blocks": blocks})
