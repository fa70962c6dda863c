import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equisquares.squares import (
    _written_grid,
    Cell,
    CellOutOfRange,
    ColClash,
    CountViolation,
    DimensionMismatch,
    ParseError,
    RowClash,
    SquareError,
    SymbolClash,
    SymbolOutOfRange,
    read_square,
    read_transversal,
    validate_square,
    validate_transversal,
    write_square,
    write_transversal,
)
from equisquares.constructions import cyclic_latin, random_equi_square


def test_validate_square_trivial_orders():
    assert validate_square(1, [[0]]).n == 1
    sq = validate_square(2, [[0, 0], [1, 1]])
    assert sq.symbol(Cell(1, 0)) == 1


def test_validate_square_count_violation():
    with pytest.raises(CountViolation) as exc:
        validate_square(2, [[0, 0], [0, 1]])
    assert exc.value.symbol == 0
    assert exc.value.count == 3


def test_validate_square_shape_and_range():
    with pytest.raises(DimensionMismatch):
        validate_square(2, [[0, 0, 1], [1, 0, 1]])
    with pytest.raises(SymbolOutOfRange) as exc:
        validate_square(2, [[0, 2], [1, 1]])
    assert exc.value.value == 2
    assert exc.value.cell == Cell(0, 1)


@pytest.mark.parametrize("grid,value,cell", [
    ([[0.5, 1], [1, 0.9]], 0.5, Cell(0, 0)),
    ([[0, 1], [1, 0.5]], 0.5, Cell(1, 1)),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0, Cell(0, 0)),
    ([[True, False], [False, True]], True, Cell(0, 0)),
    ([["0", "1"], ["1", "0"]], "0", Cell(0, 0)),
    ([[0, 1], [None, 0]], None, Cell(1, 0)),
], ids=["float", "one-float", "integral-float", "bool", "str", "object"])
def test_validate_square_refuses_non_integer_grids(grid, value, cell):
    with pytest.raises(SymbolOutOfRange) as exc:
        validate_square(2, grid)
    assert (exc.value.value, exc.value.cell) == (value, cell)


@pytest.mark.parametrize("grid", [
    [[0, 1], [1, 0]],
    np.array([[0, 1], [1, 0]], dtype=np.uint8),
    np.array([[0, 1], [1, 0]], dtype=np.int32),
    np.array([[0, 1], [1, 0]], dtype=object),
])
def test_validate_square_takes_integer_grids_as_int64(grid):
    sq = validate_square(2, grid)
    assert sq.grid.dtype == np.int64 and sq.grid.tolist() == [[0, 1], [1, 0]]


def test_validate_square_lets_python_ints_beyond_int64_overflow():
    for big in (2**63, 2**70):
        with pytest.raises(OverflowError):
            validate_square(2, [[0, big], [1, 0]])


def test_validate_square_checks_the_shape_before_the_entries():
    for grid in ([0.5, 1], [[[0.5]]], 0.5):
        with pytest.raises(DimensionMismatch):
            validate_square(2, grid)


def test_symbol_counts_sum_to_n_squared():
    for n in (1, 3, 7, 12):
        sq = random_equi_square(n, seed=n)
        counts = np.bincount(sq.grid.ravel(), minlength=n)
        assert counts.sum() == n * n
        assert (counts == n).all()


def test_validate_transversal_cyclic3():
    sq = cyclic_latin(3)
    # (i, i) has symbol 2i mod 3: {0, 2, 1}, all distinct.
    t = validate_transversal(sq, [(2, 2), (0, 0), (1, 1)])
    assert t.size == 3
    assert t.cells == (Cell(0, 0), Cell(1, 1), Cell(2, 2))  # sorted by row


def test_validate_transversal_empty_and_n2():
    sq = validate_square(2, [[0, 0], [1, 1]])
    assert validate_transversal(sq, []).size == 0
    assert validate_transversal(sq, [(0, 0), (1, 1)]).size == 2


def test_transversal_clashes_carry_cells():
    sq = validate_square(2, [[0, 0], [1, 1]])
    with pytest.raises(RowClash) as exc:
        validate_transversal(sq, [(0, 0), (0, 1)])
    assert {exc.value.first, exc.value.second} == {Cell(0, 0), Cell(0, 1)}
    with pytest.raises(ColClash):
        validate_transversal(sq, [(0, 0), (1, 0)])
    sq3 = cyclic_latin(3)
    with pytest.raises(SymbolClash):
        validate_transversal(sq3, [(0, 1), (1, 0)])  # both symbol 1


@pytest.mark.parametrize("cell", [(2, 0), (0, 2), (-1, 0), (0, -1)])
def test_validate_transversal_rejects_cells_outside_the_grid(cell):
    sq = validate_square(2, [[0, 0], [1, 1]])
    with pytest.raises(CellOutOfRange, match=r"outside \[0, 2\)"):
        validate_transversal(sq, [cell])


@pytest.mark.parametrize("cell", [(0.9, 0.2), ("1", "1"), (2.5, 2.99), (1, None),
                                  (1,), 5, None, (1, 2, 3),
                                  (True, False), (1, True), (np.True_, 0)])
def test_validate_transversal_refuses_non_integer_cells(cell):
    pair = isinstance(cell, tuple) and len(cell) == 2
    reason = "non-integer index" if pair else re.escape(f"cell {cell!r} is not a (row, col) pair")
    with pytest.raises(CellOutOfRange, match=reason):
        validate_transversal(cyclic_latin(3), [(0, 0), cell])
    cells = [(np.int64(1), np.int32(1)), (np.uint8(0), 0)]
    assert validate_transversal(cyclic_latin(3), cells).cells == (Cell(0, 0), Cell(1, 1))


def test_projection_injectivity_is_equivalent_to_validity():
    sq = random_equi_square(6, seed=0)
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(0, 5))
        cells = {(int(rng.integers(0, 6)), int(rng.integers(0, 6))) for _ in range(k)}
        rows = [c[0] for c in cells]
        cols = [c[1] for c in cells]
        syms = [int(sq.grid[c]) for c in cells]
        injective = (
            len(set(rows)) == len(cells)
            and len(set(cols)) == len(cells)
            and len(set(syms)) == len(cells)
        )
        try:
            validate_transversal(sq, cells)
            assert injective
        except (RowClash, ColClash, SymbolClash):
            assert not injective


def test_square_file_round_trip(tmp_path):
    for n in (1, 2, 5, 9):
        sq = random_equi_square(n, seed=n)
        path = tmp_path / f"s{n}.txt"
        write_square(sq, path)
        assert read_square(path) == sq


def test_square_file_exact_format(tmp_path):
    path = tmp_path / "s.txt"
    write_square(validate_square(2, [[0, 0], [1, 1]]), path)
    assert path.read_text() == "2\n0 0\n1 1\n"
    assert read_square(path).grid.tolist() == [[0, 0], [1, 1]]


def test_square_parse_error_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0\n1\n")
    with pytest.raises(ParseError) as exc:
        read_square(path)
    assert exc.value.line == 3
    assert "expected 2 entries" in exc.value.reason


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_round_trip_is_identity(n, seed):
    import tempfile
    from pathlib import Path

    sq = random_equi_square(n, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        write_square(sq, path)
        again = read_square(path)
        assert again == sq
        # byte-exact: writing the parsed square reproduces the file
        path2 = Path(tmp) / "s2.txt"
        write_square(again, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_transversal_file_round_trip(tmp_path):
    sq = cyclic_latin(3)
    t = validate_transversal(sq, [(0, 0), (1, 1), (2, 2)])
    path = tmp_path / "t.txt"
    write_transversal(t, path)
    assert path.read_text() == "0 0\n1 1\n2 2\n"
    assert read_transversal(path) == list(t.cells)


# Each reader's ParseError (line, reason) per kind of bad file.  The square
# reader splits on "\n" and counts blank lines as rows; the transversal
# reader uses splitlines() and skips blank lines.
READER_ERRORS = [
    (read_square, b"", 1, "empty file"),
    (read_square, b"\n", 1, "expected integer order, got ''"),
    (read_square, b"x\n", 1, "expected integer order, got 'x'"),
    (read_square, b"2 2\n0 1\n1 0\n", 1, "expected integer order, got '2 2'"),
    (read_square, b"0\n", 1, "order must be positive, got 0"),
    (read_square, b"2\n0 1\n", 3, "expected 2 grid rows, found 1"),
    (read_square, b"2\n0 1\n1 0\n1 0\n", 5, "expected 2 grid rows, found 3"),
    (read_square, b"2\n0 1\n\n1 0\n", 5, "expected 2 grid rows, found 3"),
    (read_square, b"2\n0 1\n1\n", 3, "expected 2 entries"),
    (read_square, b"2\n0 1\n1 0 1\n", 3, "expected 2 entries"),
    (read_square, b"2\n0 x\n1 0\n", 2, "non-integer entry"),
    (read_square, b"2\n0 1.0\n1 0\n", 2, "non-integer entry"),
    (read_square, b"\xff\n", 1, "not UTF-8 text"),
    (read_square, b"2\n0 1\n\xff 0\n", 3, "not UTF-8 text"),
    (read_square, b"2\n0 2\n1 0\n", 2, "invalid square: symbol 2 at cell (0, 1) not in [0, n)"),
    (read_square, b"2\n0 -1\n1 0\n", 2, "invalid square: symbol -1 at cell (0, 1) not in [0, n)"),
    (read_square, b"2\n0 0\n0 1\n", 2, "invalid square: symbol 0 occurs 3 times, expected n"),
    (read_transversal, b"0 1\n\n2\n", 3, "expected 2 entries"),
    (read_transversal, b"0 1 2\n", 1, "expected 2 entries"),
    (read_transversal, b"0 1\r\n1 2 3\n", 2, "expected 2 entries"),
    (read_transversal, b"0 x\n", 1, "non-integer entry"),
    (read_transversal, b"\xff\n", 1, "not UTF-8 text"),
    (read_transversal, b"0 1\n\xc3\n", 2, "not UTF-8 text"),
]


@pytest.mark.parametrize("reader,data,line,reason", READER_ERRORS,
                         ids=[f"{r.__name__}-{i}" for i, (r, *_) in enumerate(READER_ERRORS)])
def test_reader_parse_errors_are_pinned(tmp_path, reader, data, line, reason):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        reader(path)
    assert (exc.value.line, exc.value.reason) == (line, reason)


def test_readers_accept_line_ending_variants(tmp_path):
    path = tmp_path / "f.txt"
    for data in (b"2\r\n0 1\r\n1 0\r\n", b"2\n0 1\n1 0"):
        path.write_bytes(data)
        assert read_square(path).grid.tolist() == [[0, 1], [1, 0]]
    for data, cells in ((b"", []), (b"\n\n", []), (b"0 1\n 1 0 \n", [Cell(0, 1), Cell(1, 0)])):
        path.write_bytes(data)
        assert read_transversal(path) == cells


def reference_read_square(path):
    """read_square as a per-line parse, one str and one int per token: the
    reference for the array path, which must accept, refuse and word alike."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw[:exc.start].count(b"\n") + 1, "not UTF-8 text") from None
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(1, f"expected integer order, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(1, f"order must be positive, got {n}")
    if len(lines) != n + 1:
        raise ParseError(len(lines) + 1, f"expected {n} grid rows, found {len(lines) - 1}")
    grid = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != n:
            raise ParseError(i, f"expected {n} entries")
        try:
            grid.append([int(p) for p in parts])
        except ValueError:
            raise ParseError(i, "non-integer entry") from None
    try:
        return validate_square(n, grid)
    except (SquareError, OverflowError) as exc:
        raise ParseError(2, f"invalid square: {exc}") from exc


def _outcome(read, path):
    """The grid read from path, or the type and (line, reason) of the error."""
    try:
        square = read(path)
    except ParseError as exc:
        return type(exc), exc.line, exc.reason
    return square.grid.dtype, square.grid.tolist()


def _same_as_reference(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.txt"
        path.write_bytes(data)
        assert _outcome(read_square, path) == _outcome(reference_read_square, path)


def written(grid) -> str:
    """The text write_square writes for grid, built one token at a time."""
    return "\n".join([str(len(grid))] + [" ".join(map(str, row)) for row in grid.tolist()]) + "\n"


def _mutate(text: str, mutation: str, k: int) -> str:
    """text with one mutation; k picks the token or space it applies to."""
    if mutation.startswith("token:"):
        tokens = list(re.finditer(r"[0-9]+", text))
        m = tokens[k % len(tokens)]
        return text[:m.start()] + mutation[len("token:"):] + text[m.end():]
    if mutation in ("tab", "double space"):
        spaces = [m.start() for m in re.finditer(" ", text)] or [text.index("\n") + 1]
        at = spaces[k % len(spaces)]
        return text[:at] + {"tab": "\t", "double space": "  "}[mutation] + text[at:].lstrip(" ")
    return {
        "crlf": lambda: text.replace("\n", "\r\n"),
        "no final newline": lambda: text[:-1],
        "trailing blank line": lambda: text + "\n",
        "spaced header": lambda: " " + text.replace("\n", " \n", 1),
        "unmutated": lambda: text,
    }[mutation]()


MUTATIONS = [f"token:{t}" for t in ("+1", "01", "١", "1_0", "9" * 18, "9" * 19, "1" * 5000)] + [
    "tab", "double space", "crlf", "no final newline", "trailing blank line", "spaced header",
    "unmutated"]


@settings(max_examples=200, deadline=None)
@given(text=st.text(alphabet=st.sampled_from("0123456789 -\n\t+_x.\r١"), max_size=80))
def test_read_square_matches_reference_on_fuzz_text(text):
    _same_as_reference(text.encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 10**6), mutation=st.sampled_from(MUTATIONS),
       k=st.integers(0, 200))
def test_read_square_matches_reference_on_mutated_squares(n, seed, mutation, k):
    text = written(random_equi_square(n, seed=seed).grid)
    _same_as_reference(_mutate(text, mutation, k).encode("utf-8"))


LAYOUTS = {  # each write_square's bytes for [[0, 1], [1, 0]] or cyclic_latin(8), changed
    "doubled space": (b"2\n0  1\n1 0\n", False),
    "trailing space": (b"2\n0 1 \n1 0\n", False),
    "tab": (b"2\n0\t1\n1 0\n", False),
    "crlf": (b"2\r\n0 1\r\n1 0\r\n", False),
    "no final newline": (b"2\n0 1\n1 0", False),
    "token 007": (b"2\n0 1\n1 007\n", True),
    "header 08": (b"08\n" + written(cyclic_latin(8).grid).encode("ascii").split(b"\n", 1)[1], True),
    "token of 19 digits": (b"2\n0 1\n1 " + b"9" * 19 + b"\n", False),
    "token of 19 digits below n": (b"2\n0 1\n1 " + b"0" * 18 + b"0\n", True),
    # A space moved to the start of a line keeps the separators, not the
    # count of tokens.
    "space at the start of a line": (b"2\n 01\n1 0\n", False),
    # A token moved from a line into the place after the last newline
    # keeps the separators and the count of tokens.
    "token after the last newline": (b"2\n0 1\n 0\n1", False),
    "unchanged": (b"2\n0 1\n1 0\n", True),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_read_square_matches_reference_on_layouts(layout):
    data, taken = LAYOUTS[layout]
    assert (_written_grid(data) is not None) == taken  # only write_square's layout takes the array path
    _same_as_reference(data)


@pytest.mark.parametrize("data,line,reason", [
    (b"1000000000\n0\n", 3, "expected 1000000000 grid rows, found 1"),
    (b"99999999999999999999\n", 2, "expected 99999999999999999999 grid rows, found 0"),
])
def test_huge_header_is_refused_like_reference(tmp_path, data, line, reason):
    path = tmp_path / "s.txt"
    path.write_bytes(data)
    assert _outcome(read_square, path) == _outcome(reference_read_square, path) \
        == (ParseError, line, reason)


@pytest.mark.parametrize("n", [1, 9, 10, 11, 99, 100, 101, 256, 1000])
def test_write_square_bytes_match_token_by_token_text(tmp_path, n):
    # These orders cover each change in the digit width of the largest symbol.
    square = random_equi_square(n, seed=n)
    path = tmp_path / "s.txt"
    write_square(square, path)
    assert path.read_bytes() == written(square.grid).encode("ascii")
    assert _written_grid(path.read_bytes()) is not None  # the reader's array path takes it
    assert read_square(path) == square
