"""Every entry point that takes an integer index (a cell, a vertex, an edge
label, a block size) refuses bools and non-integers with its own typed error."""

import re

import numpy as np
import pytest

from equisquares.bipartite import BipartiteMultigraph, NotAMatching, is_matching, union_components
from equisquares.constructions import BlockMismatch, BlockStructure, block_structured_square, cyclic_latin
from equisquares.halving import iterated_halving, row_loads
from equisquares.hypergraph import InvalidParam, TripartiteHypergraph, codegree, from_square
from equisquares.squares import CellOutOfRange, validate_transversal

SQUARE = cyclic_latin(3)
H = from_square(SQUARE)
# Two perfect matchings of a 2-regular graph: labels 0, 1, 2 and 3, 4, 5.
G = BipartiteMultigraph(3, 3, [0, 1, 2, 0, 1, 2], [0, 1, 2, 1, 2, 0])
_, BLOCKS = block_structured_square(4, 2, 0)
BIG = 2**63  # past int64
VALUES = [True, False, np.True_, 1.0, "1", BIG]


def _vertex(v):
    return InvalidParam, f"vertex {v!r} is not in classes (3, 3, 3)"


def _labels(_v):
    # Next to 0, BIG makes numpy build a float array, which is refused whole.
    return NotAMatching, "edge labels must be integers"


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
    "incident class": (lambda v: H.incident((v, 0)), lambda v: _vertex((v, 0))),
    "incident index": (lambda v: H.incident((0, v)), lambda v: _vertex((0, v))),
    "degree": (lambda v: H.degree((2, v)), lambda v: _vertex((2, v))),
    # (1, 0) is not (True, 0) == (1, 0), so codegree reaches incident.
    "codegree": (lambda v: codegree(H, (0, v), (1, 0)), lambda v: _vertex((0, v))),
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
