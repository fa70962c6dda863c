import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from equisquares.constructions import (
    BlockMismatch,
    BlockStructure,
    CertificateViolation,
    NotDivisible,
    PairingMismatch,
    TooSmall,
    block_structured_square,
    box_parameters,
    counterexample_square,
    cyclic_latin,
    missing_colour_certificate,
    random_equi_square,
    read_blocks,
    validate_block_structure,
    write_blocks,
)
from equisquares.solvers import brute_force_max, local_search, random_greedy
from equisquares.squares import DimensionMismatch, Transversal, validate_square, validate_transversal


def test_box_parameters_reference_values():
    assert box_parameters(8) == (2, 0, 2, 2)
    assert box_parameters(18) == (3, 0, 3, 3)
    assert box_parameters(50) == (5, 0, 5, 5)
    assert box_parameters(51) == (6, 4, 10, 2)
    assert box_parameters(200) == (10, 0, 10, 10)


def test_counterexample_too_small_and_degenerate():
    for n in (1, 7):
        with pytest.raises(TooSmall):
            counterexample_square(n)
    # n=9 is the one order >= 8 with no valid box shape (b = m - r = 0)
    with pytest.raises(TooSmall):
        counterexample_square(9)


def test_counterexample_n8_structure():
    square, pairing = counterexample_square(8)
    assert (pairing.m, pairing.r, pairing.a, pairing.b) == (2, 0, 2, 2)
    assert pairing.boxed_extent == 8
    assert len(pairing.pairs) == 8
    assert pairing.leftover_fill == ()
    counts = np.bincount(square.grid.ravel(), minlength=8)
    assert (counts == 8).all()
    assert pairing.transversal_bound() == 7


def test_counterexample_n18_bound():
    square, pairing = counterexample_square(18)
    assert pairing.transversal_bound() == 16  # n - ceil(b/2), no leftover


def test_counterexample_n51_leftovers():
    square, pairing = counterexample_square(51)
    assert (pairing.m, pairing.r, pairing.a, pairing.b) == (6, 4, 10, 2)
    assert pairing.boxed_extent == 40
    deficit = 51 - 40
    assert deficit == 11 <= 16 * 51 ** 0.25
    # every boxed colour appears deficit times in the leftover region
    fill_counts = {}
    for _, _, colour in pairing.leftover_fill:
        fill_counts[colour] = fill_counts.get(colour, 0) + 1
    for colour in range(40):
        assert fill_counts[colour] == deficit
    for colour in range(40, 51):
        assert fill_counts[colour] == 51


def test_counterexample_validity_sweep():
    orders = [n for n in range(8, 121) if n != 9] + [200, 513, 999, 2000]
    for n in orders:
        square, pairing = counterexample_square(n)
        assert square.n == n  # validate_square ran inside
        assert pairing.b >= 1
        assert pairing.boxed_extent <= n
        assert len(pairing.pairs) == pairing.boxed_extent


def test_counterexample_special_case_matches_spec_of_pairs():
    # at n = 2m^2 the pairing uses exactly n colours and covers everything
    for n in (8, 18, 50, 72):
        square, pairing = counterexample_square(n)
        assert pairing.r == 0
        assert pairing.boxed_extent == n
        assert len({c for _, _, c in pairing.pairs}) == n
        assert pairing.leftover_fill == ()


def test_pairing_boxes_match_grid():
    square, pairing = counterexample_square(18)
    b, a = pairing.b, pairing.a
    boxes = [(box, colour) for box1, box2, colour in pairing.pairs for box in (box1, box2)]
    assert len({box for box, _ in boxes}) == len(boxes)
    for (i, j), colour in boxes:
        region = square.grid[i * b:(i + 1) * b, j * a:(j + 1) * a]
        assert (region == colour).all()


def _reference_leftover_fill(n: int, grid: np.ndarray) -> list:
    """The row-major loop over all n^2 cells that the mask assignment replaced."""
    _, _, a, b = box_parameters(n)
    two_ab = 2 * a * b
    queue = []
    for colour in range(two_ab):
        queue.extend([colour] * (n - two_ab))
    for colour in range(two_ab, n):
        queue.extend([colour] * n)
    fill = []
    pos = 0
    for x in range(n):
        for y in range(n):
            if x < two_ab and y < two_ab:
                continue
            grid[x, y] = queue[pos]
            fill.append((x, y, queue[pos]))
            pos += 1
    assert pos == len(queue)
    return fill


def test_leftover_fill_matches_row_major_loop():
    for n in range(8, 65):
        if n == 9:
            with pytest.raises(TooSmall):
                counterexample_square(n)
            continue
        square, pairing = counterexample_square(n)
        grid = square.grid.copy()
        grid[pairing.boxed_extent:, :] = -1
        grid[:, pairing.boxed_extent:] = -1
        fill = _reference_leftover_fill(n, grid)
        assert list(pairing.leftover_fill) == fill
        assert np.array_equal(grid, square.grid)


def test_certificate_empty_transversal_passes():
    square, pairing = counterexample_square(8)
    report = missing_colour_certificate(square, pairing, Transversal(()))
    assert report.passed
    assert all(len(s) > 0 for s in report.missing)


def test_certificate_on_exact_solution():
    from equisquares.solvers import exact_max

    square, pairing = counterexample_square(8)
    t, optimal = exact_max(square)
    assert optimal
    assert t.size <= 7
    report = missing_colour_certificate(square, pairing, t)
    assert report.passed
    assert report.bound == 7


def test_certificate_random_transversals_n18():
    square, pairing = counterexample_square(18)
    rng = np.random.default_rng(11)
    for trial in range(100):
        t = random_greedy(square, rng)
        report = missing_colour_certificate(square, pairing, t)
        assert report.passed
        assert t.size <= pairing.transversal_bound()


def test_random_equi_square_examples():
    assert random_equi_square(1, 0).grid.tolist() == [[0]]
    a = random_equi_square(10, 42)
    b = random_equi_square(10, 42)
    assert a == b
    big = random_equi_square(100, 7)
    assert big.n == 100  # validate_square ran inside
    for n in (0, -2):
        with pytest.raises(DimensionMismatch, match="n must be positive"):
            random_equi_square(n, 1)


def test_block_structured_square_m1():
    square, blocks = block_structured_square(4, 1, seed=3)
    assert blocks.m == 1
    assert len(blocks.cols) == 16
    validate_block_structure(square, blocks)


def test_block_structured_square_n8_m2():
    square, blocks = block_structured_square(8, 2, seed=1)
    assert len(blocks.cols) == len(blocks.symbols) == 32
    assert blocks.rows.shape == (32, 2)
    assert (np.bincount(blocks.cols, minlength=8) == 4).all()
    counts = np.bincount(square.grid.ravel(), minlength=8)
    assert (counts == 8).all()


def test_block_structured_square_determinism_and_divisibility():
    a = block_structured_square(8, 2, seed=5)
    b = block_structured_square(8, 2, seed=5)
    assert a[0] == b[0]
    assert a[1] == b[1]
    with pytest.raises(NotDivisible):
        block_structured_square(8, 3, seed=0)
    for m in (0, -2):
        with pytest.raises(NotDivisible):
            block_structured_square(8, m, 1)
    for n in (0, -8):
        with pytest.raises(DimensionMismatch, match="n must be positive"):
            block_structured_square(n, 4, 1)


def test_block_structured_squares_pass_validation():
    # The generator does not validate what it builds (block_transversal
    # validates its input); this sweep checks it instead.
    for n in (1, 2, 4, 8, 12, 16, 64):
        for m in (d for d in range(1, n + 1) if n % d == 0):
            for seed in range(3):
                square, blocks = block_structured_square(n, m, seed)
                validate_block_structure(square, blocks)
                assert (blocks.cols == np.repeat(np.arange(n), n // m)).all()
                assert (np.diff(blocks.rows, axis=1) > 0).all()


BLOCK_GOLDEN = {  # (n, m, seed): SHA-256 prefixes of grid, cols, symbols, rows
    (4, 1, 3): ("36797a28912a727a", "410510ff3440c2a3", "f747a69286d8d5aa", "ae9661e316a63f12"),
    (8, 2, 1): ("a80208e4da1459b8", "cd26986df8428de8", "b53c6535736543f9", "59c3e732af1231e0"),
    (16, 16, 0): ("e1a6133d6b327991", "f23d672bb9b341f9", "1d8289cef960c333", "2065bea5263c8af9"),
    (64, 16, 4): ("fa024cdef6c77528", "0ad4f45ad358fdb5", "df9d3da19a564fc2", "41ddfd7165b97255"),
    (512, 16, 22): ("c4c50006178e8ca0", "c82391ff9023a038", "16d89411fbce68dd", "23d47879f849e519"),
    (1024, 256, 800): ("56a264d2e395d0b4", "96b7575514a08bc6", "bf3436fb8ea06a61", "18f5430dfb785f32"),
}


@pytest.mark.parametrize("n,m,seed", sorted(BLOCK_GOLDEN))
def test_block_structured_square_matches_recorded_digests(n, m, seed):
    # Recorded before the grid was built in one scatter: a fixed seed must
    # keep giving the same square and blocks.
    square, blocks = block_structured_square(n, m, seed)
    arrays = (square.grid, blocks.cols, blocks.symbols, blocks.rows)
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()[:16]
                    for a in arrays)
    assert digests == BLOCK_GOLDEN[n, m, seed]


def test_block_validation_catches_corruption():
    square, blocks = block_structured_square(8, 2, seed=1)
    other = random_equi_square(8, 99)
    with pytest.raises(BlockMismatch):
        validate_block_structure(other, blocks)
    short = BlockStructure(m=2, cols=blocks.cols, symbols=blocks.symbols, rows=blocks.rows[:, :1])
    with pytest.raises(BlockMismatch):
        validate_block_structure(square, short)


def _with_blocks(blocks, **fields):
    arrays = {"cols": blocks.cols, "symbols": blocks.symbols, "rows": blocks.rows, **fields}
    return BlockStructure(m=blocks.m, **arrays)


def test_block_validation_rejects_a_block_count_that_cannot_tile():
    square, blocks = block_structured_square(8, 2, seed=1)
    fewer = _with_blocks(blocks, cols=blocks.cols[1:], symbols=blocks.symbols[1:],
                         rows=blocks.rows[1:])
    with pytest.raises(BlockMismatch, match="31 blocks of size 2 cannot tile n=8"):
        validate_block_structure(square, fewer)


@pytest.mark.parametrize("field,value", [("rows", 8), ("rows", -1), ("cols", 8), ("cols", -1)])
def test_block_validation_rejects_cells_out_of_range(field, value):
    square, blocks = block_structured_square(8, 2, seed=1)
    arr = getattr(blocks, field).copy()
    arr.flat[-1] = value
    with pytest.raises(BlockMismatch, match="block cell out of range"):
        validate_block_structure(square, _with_blocks(blocks, **{field: arr}))


def test_block_validation_rejects_a_block_listed_twice():
    # Block 0 again in place of block 1: every block matches the grid and
    # the count is right, but the cells of block 1 are left uncovered.
    square, blocks = block_structured_square(8, 2, seed=1)
    cols, symbols, rows = blocks.cols.copy(), blocks.symbols.copy(), blocks.rows.copy()
    cols[1], symbols[1], rows[1] = cols[0], symbols[0], rows[0]
    with pytest.raises(BlockMismatch, match="do not partition"):
        validate_block_structure(square, _with_blocks(blocks, cols=cols, symbols=symbols, rows=rows))


def reference_validate_block_structure(square, blocks):
    """The gather check validate_block_structure made before its canvas:
    read every block's cells from a transposed copy of the grid, then
    scatter a coverage array."""
    n, m = square.n, blocks.m
    rows, cols, syms = blocks.rows, blocks.cols, blocks.symbols
    count = len(cols)
    if m < 1 or n * n != m * count:
        raise BlockMismatch(f"{count} blocks of size {m} cannot tile n={n}")
    if cols.ndim != 1 or syms.shape != cols.shape or rows.shape != (count, m):
        raise BlockMismatch(f"block rows have shape {rows.shape}, expected ({count}, {m}) "
                            f"for {count} columns and {syms.size} symbols")
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
        raise BlockMismatch("block cell out of range")
    cells = n * cols[:, None] + rows
    mism = square.grid.T.ravel()[cells] != syms[:, None]
    if mism.any():
        bad = int(np.flatnonzero(mism.any(axis=1))[0])
        raise BlockMismatch(f"block {bad} (column {cols[bad]}, symbol {syms[bad]}, "
                            f"rows {rows[bad].tolist()}) does not match the grid symbols")
    covered = np.zeros(n * n, dtype=bool)
    covered[cells] = True
    if not covered.all():
        raise BlockMismatch("blocks do not partition the cells")


def _changed_symbol(cols, symbols, rows, n):
    symbols[5] = (symbols[5] + 1) % n


def _swapped_rows(cols, symbols, rows, n):
    rows[[2, 3 * n // 2]] = rows[[3 * n // 2, 2]]


def _twice_and_a_mismatch(cols, symbols, rows, n):
    cols[1], symbols[1], rows[1] = cols[0], symbols[0], rows[0]
    symbols[-1] = (symbols[-1] + 1) % n


def _uncovered_cell(cols, symbols, rows, n):
    rows[3] = rows[3, 0]  # block 3 matches, but covers one cell m times


def _wrapping_symbol(cols, symbols, rows, n):
    symbols[4] += 1 << 16  # wraps to the same symbol on an 8- or 16-bit canvas


def _negative_symbol(cols, symbols, rows, n):
    symbols[0] -= 1 << 16


@pytest.mark.parametrize("corrupt", [None, _changed_symbol, _swapped_rows, _twice_and_a_mismatch,
                                     _uncovered_cell, _wrapping_symbol, _negative_symbol])
def test_block_validation_matches_reference_gather(corrupt):
    # The canvas check must accept what the gather accepted and refuse the
    # rest with the gather's message, on squares of both canvas widths.
    for n, m, seed in ((8, 2, 1), (12, 3, 4), (16, 4, 2), (32, 8, 0), (256, 16, 3), (512, 64, 5)):
        square, blocks = block_structured_square(n, m, seed)
        cols, symbols, rows = blocks.cols.copy(), blocks.symbols.copy(), blocks.rows.copy()
        if corrupt is not None:
            corrupt(cols, symbols, rows, n)
        blocks = _with_blocks(blocks, cols=cols, symbols=symbols, rows=rows)
        outcomes = []
        for check in (validate_block_structure, reference_validate_block_structure):
            try:
                check(square, blocks)
                outcomes.append(None)
            except BlockMismatch as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == (corrupt is None)


def test_certificate_rejects_a_square_or_pairing_it_was_not_built_with():
    square, pairing = counterexample_square(12)
    _, other_pairing = counterexample_square(18)
    with pytest.raises(PairingMismatch, match=r"counterexample_square\(12\)"):
        missing_colour_certificate(square, other_pairing, Transversal(()))
    other_square = random_equi_square(12, seed=0)
    with pytest.raises(PairingMismatch, match=r"counterexample_square\(12\)"):
        missing_colour_certificate(other_square, pairing, Transversal(()))
    # Order 9 has no construction at all, so no pairing can fit it.
    with pytest.raises(PairingMismatch, match="no paired-box construction for n=9"):
        missing_colour_certificate(random_equi_square(9, seed=0), pairing, Transversal(()))


def _written_json(blocks, tmp_path):
    path = tmp_path / "b.blocks.json"
    write_blocks(blocks, path)
    return json.loads(path.read_bytes())


def test_block_structure_json_round_trip(tmp_path):
    square, blocks = block_structured_square(8, 2, seed=1)
    data = _written_json(blocks, tmp_path)
    assert data["blocks"][0] == {"col": 0, "symbol": int(blocks.symbols[0]),
                                 "rows": blocks.rows[0].tolist()}
    again = BlockStructure.from_json(data)
    assert again == blocks
    validate_block_structure(square, again)
    assert read_blocks(tmp_path / "b.blocks.json") == blocks


def test_read_blocks_keeps_the_parsed_fields_uncopied(tmp_path):
    # The three fields are read-only views of one parse buffer, not copies.
    _, blocks = block_structured_square(256, 64, seed=1)
    write_blocks(blocks, tmp_path / "b.json")
    again = read_blocks(tmp_path / "b.json")
    assert again == blocks
    assert np.may_share_memory(again.rows, again.cols) and np.may_share_memory(again.rows, again.symbols)
    assert not again.rows.flags.writeable


@pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (10, 2), (12, 4), (101, 1)])
def test_write_blocks_writes_json_dumps_bytes(tmp_path, n, m):
    # Format 1 is json.dumps of the document and a newline, for every width
    # of number; 101 has one-, two- and three-digit rows.
    _, blocks = block_structured_square(n, m, seed=2)
    document = {"format": 1, "m": m, "blocks": [
        {"col": c, "symbol": s, "rows": r}
        for c, s, r in zip(blocks.cols.tolist(), blocks.symbols.tolist(), blocks.rows.tolist())]}
    write_blocks(blocks, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == (json.dumps(document) + "\n").encode()


@pytest.mark.parametrize("change, message", [
    (lambda b: {"m": 3}, "cannot tile a square"),  # 32 blocks of 3 cells: 96 is not a square
    (lambda b: {"cols": b.cols[:0], "symbols": b.symbols[:0], "rows": b.rows[:0]}, "0 blocks"),
    (lambda b: {"m": 0, "rows": b.rows[:, :0]}, "cannot tile a square"),
    (lambda b: {"symbols": b.symbols[:-1]}, "for 32 columns and 31 symbols"),
    (lambda b: {"rows": b.rows.reshape(16, 4)}, r"shape \(16, 4\), expected \(32, 2\)"),
    (lambda b: {"rows": np.where(b.rows == 3, 8, b.rows)}, r"out of range \[0, 8\)"),
    (lambda b: {"cols": np.where(b.cols == 0, -1, b.cols)}, "out of range"),
    (lambda b: {"symbols": b.symbols + 1}, "out of range"),
])
def test_write_blocks_refuses_blocks_that_tile_no_square(tmp_path, change, message):
    _, blocks = block_structured_square(8, 2, seed=1)
    fields = {"m": blocks.m, "cols": blocks.cols, "symbols": blocks.symbols, "rows": blocks.rows}
    with pytest.raises(BlockMismatch, match=message):
        write_blocks(BlockStructure(**{**fields, **change(blocks)}), tmp_path / "b.json")
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("blocks"),
    lambda d: d.pop("m"),
    lambda d: d.update(m="2"),
    lambda d: d.update(format=2),
    lambda d: d["blocks"][3].pop("col"),
    lambda d: d["blocks"][3].update(rows=5),
    lambda d: d["blocks"][3]["rows"].pop(),
    lambda d: [b.update(rows=b["rows"][:1]) for b in d["blocks"]],
    lambda d: d["blocks"][3]["rows"].__setitem__(0, 1.5),
    lambda d: d["blocks"][3].update(symbol="x"),
    lambda d: d["blocks"][3].update(col=[0, 1]),
    lambda d: d["blocks"][3]["rows"].__setitem__(1, [1]),
    lambda d: d["blocks"].__setitem__(0, [0, 0, [0, 1]]),
    lambda d: d.update(m=-1, blocks=[]),
    lambda d: d.update(m=2**62, blocks=[]),  # numpy: "array is too big"
    lambda d: d.update(m=2**63, blocks=[]),  # numpy: "Maximum allowed dimension exceeded"
    lambda d: d.update(m=0),
    lambda d: d["blocks"][3]["rows"].__setitem__(0, True),
    lambda d: d["blocks"][0].update(col=False),
    lambda d: d["blocks"][5].update(symbol=True),
])
def test_block_structure_from_json_rejects_malformed(tmp_path, mutate):
    _, blocks = block_structured_square(8, 2, seed=1)
    data = _written_json(blocks, tmp_path)
    mutate(data)
    with pytest.raises(BlockMismatch):
        BlockStructure.from_json(data)


def test_cyclic_latin_is_latin_and_equi():
    for n in (1, 2, 3, 7):
        sq = cyclic_latin(n)
        for i in range(n):
            assert len(set(sq.grid[i].tolist())) == n
            assert len(set(sq.grid[:, i].tolist())) == n
    for n in (0, -2):
        with pytest.raises(DimensionMismatch, match="n must be positive"):
            cyclic_latin(n)


def test_cyclic_small_maxima():
    assert brute_force_max(cyclic_latin(2))[0] == 1
    assert brute_force_max(cyclic_latin(3))[0] == 3
