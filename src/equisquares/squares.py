"""Equi-n-squares, transversals, and their on-disk text formats.

An equi-n-square is an n x n grid over symbols 0..n-1 in which every symbol
occurs exactly n times.  A transversal is a cell set whose rows, columns,
and symbols are pairwise distinct.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np


class SquareError(ValueError):
    """Base class for square/transversal validation and parsing failures."""


class DimensionMismatch(SquareError):
    pass


class SymbolOutOfRange(SquareError):
    def __init__(self, value: int, cell: "Cell"):
        self.value = value
        self.cell = cell
        super().__init__(f"symbol {value!r} at cell {tuple(cell)} not in [0, n)")


class CountViolation(SquareError):
    def __init__(self, symbol: int, count: int):
        self.symbol = symbol
        self.count = count
        super().__init__(f"symbol {symbol} occurs {count} times, expected n")


class CellOutOfRange(SquareError):
    pass


class ClashError(SquareError):
    """Two transversal cells share a row, column, or symbol."""

    def __init__(self, first: "Cell", second: "Cell"):
        self.first = first
        self.second = second
        super().__init__(f"cells {tuple(first)} and {tuple(second)}")


class RowClash(ClashError):
    pass


class ColClash(ClashError):
    pass


class SymbolClash(ClashError):
    pass


class ParseError(SquareError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class Cell(NamedTuple):
    row: int
    col: int


@dataclass(frozen=True, eq=False)
class EquiNSquare:
    """A validated n x n grid where each symbol in [0, n) appears n times.

    The grid array is read-only; instances are safe to share across threads.
    Construct via :func:`validate_square`.
    """

    n: int
    grid: np.ndarray

    def symbol(self, cell: Cell) -> int:
        return int(self.grid[cell[0], cell[1]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquiNSquare):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.grid, other.grid)

    def __hash__(self):
        return hash((self.n, self.grid.tobytes()))


@dataclass(frozen=True)
class Transversal:
    """Cells with pairwise distinct rows, columns, and symbols.

    Cells are stored sorted by row so equal transversals compare equal.
    Construct via :func:`validate_transversal`.
    """

    cells: tuple[Cell, ...]

    @property
    def size(self) -> int:
        return len(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def validate_square(n: int, grid) -> EquiNSquare:
    """Check dimensions, integer symbols in range, and per-symbol counts; return the square.

    DimensionMismatch for a ragged grid; an entry that :func:`_int_array` refuses
    is a SymbolOutOfRange, or an OverflowError if it is an int past int64.
    """
    if n < 1:
        raise DimensionMismatch(f"n must be positive, got {n}")
    try:
        shape = np.shape(grid)
    except ValueError:
        raise DimensionMismatch(f"grid is ragged, expected shape ({n}, {n})") from None
    if shape != (n, n):
        raise DimensionMismatch(f"grid shape {shape}, expected ({n}, {n})")
    arr = _int_array(grid, lambda at, x: OverflowError(f"symbol {x} at cell {at} does not fit in int64")
                     if type(x) is int and not -2**63 <= x < 2**63 else SymbolOutOfRange(x, Cell(*at)), below=n)
    counts = np.bincount(arr.ravel(), minlength=n)
    off = np.nonzero(counts != n)[0]
    if off.size:
        s = int(off[0])
        raise CountViolation(s, int(counts[s]))
    return EquiNSquare(n=n, grid=arr)


def _index(x) -> int:
    """operator.index(x), but a TypeError for a bool, Python's (read as 0 or 1) or numpy's."""
    if isinstance(x, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(x)


def _int_array(values, refuse, below=None) -> np.ndarray:
    """values as a read-only int64 array: the one gate for integer arrays from callers.

    Raises refuse(index, entry) for the first entry, in row-major order,
    that is not an integer within int64 (a bool, Python's or numpy's, a
    float, a str, None, an int past int64, or a sequence among numbers),
    then, with below given, for the first one outside [0, below), as a
    Python int.  An integer ndarray, of any subclass, passes with no Python
    loop; a sequence of ints pays one np.asarray and a look at its entries
    of at most 1, which numpy may have read from bools.  A caller's
    writable ndarray, or view of one, is copied, not frozen; a read-only
    int64 one is returned as it is.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged: the walk below names the first sequence
        arr = np.asarray(values, dtype=object)
    if arr.dtype.kind not in "iu" or arr.dtype.kind == "u" and arr.size and arr.max() >= 2**63:
        arr = np.asarray(values, dtype=object)
        for index, entry in np.ndenumerate(arr):
            if isinstance(entry, bool) or not (isinstance(entry, (int, np.integer))
                                               and -2**63 <= entry < 2**63):
                raise refuse(index, entry)
    elif not isinstance(values, np.ndarray) and arr.ndim:  # a 0-d int array came from one int, not a bool
        for index in zip(*[axis.tolist() for axis in (arr <= 1).nonzero()]):
            entry = reduce(operator.getitem, index, values)
            if isinstance(entry, (bool, np.bool_)):
                raise refuse(index, entry)
    arr = arr.astype(np.int64, copy=False)
    if below is not None:
        outside = arr.view(np.uint64) >= below  # as unsigned, a negative entry is past every bound
        if outside.any():
            index = tuple(np.argwhere(outside)[0].tolist())
            raise refuse(index, int(arr[index]))
    if isinstance(values, np.ndarray) and values.flags.writeable and np.may_share_memory(arr, values):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def validate_transversal(square: EquiNSquare, cells: Iterable[tuple[int, int]]) -> Transversal:
    """Check that no two cells share a row, column, or symbol.

    CellOutOfRange names a cell that is not a (row, col) pair of integers
    in [0, n).
    """
    n = square.n
    normed = []
    for rc in cells:
        try:
            row, col = rc
        except (TypeError, ValueError):
            raise CellOutOfRange(f"cell {rc!r} is not a (row, col) pair") from None
        if not type(row) is type(col) is int:  # numpy integers, say
            try:
                row, col = _index(row), _index(col)
            except TypeError:
                raise CellOutOfRange(f"cell {(row, col)} has a non-integer index") from None
        if not (0 <= row < n and 0 <= col < n):
            raise CellOutOfRange(f"cell {(row, col)} outside [0, {n})^2")
        normed.append(Cell(row, col))
    normed.sort()
    # As many distinct rows, columns and symbols as cells: no clash.  Only a
    # clash needs the walk in row order below, which names its two cells.
    rows, cols = zip(*normed) if normed else ((), ())
    if all(len(set(a)) == len(normed) for a in (rows, cols, square.grid[rows, cols].tolist())):
        return Transversal(cells=tuple(normed))
    seen_row: dict[int, Cell] = {}
    seen_col: dict[int, Cell] = {}
    seen_sym: dict[int, Cell] = {}
    for cell in normed:
        if cell.row in seen_row:
            raise RowClash(seen_row[cell.row], cell)
        if cell.col in seen_col:
            raise ColClash(seen_col[cell.col], cell)
        s = square.symbol(cell)
        if s in seen_sym:
            raise SymbolClash(seen_sym[s], cell)
        seen_row[cell.row] = cell
        seen_col[cell.col] = cell
        seen_sym[s] = cell
    return Transversal(cells=tuple(normed))


def write_square(square: EquiNSquare, path) -> None:
    """Write the text format: first line n, then n lines of n symbol ids."""
    n = square.n
    # One row of bytes per symbol: its digits and a space, zero-padded to a
    # common width; zero is no byte of the text, so dropping zeros leaves it.
    width = len(str(n - 1)) + 1
    table = np.array([f"{s} " for s in range(n)], dtype=f"S{width}")
    text = table[square.grid].view(np.uint8)
    row_ends = text[:, -width:]  # the last symbol of each row
    row_ends[row_ends == ord(" ")] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(b"%d\n" % n)
        fh.write(text[text != 0])


def _utf8(raw: bytes) -> str:
    """The text of raw; ParseError at the offending line if it is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw[:exc.start].count(b"\n") + 1, "not UTF-8 text") from None


def _lines(raw: bytes) -> list[str]:
    """The UTF-8 text of raw split on "\\n", less the empty line after a final
    newline; ParseError if that leaves no line."""
    lines = _utf8(raw).split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "empty file")
    return lines


def _ints(i: int, line: str, count: int) -> list[int]:
    """The count whitespace-separated integers of line i; ParseError(i, ...)
    if there are more or fewer, or one is not an integer."""
    parts = line.split()
    if len(parts) != count:
        raise ParseError(i, f"expected {count} entries")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(i, "non-integer entry") from None


def _written_grid(raw: bytes) -> np.ndarray | None:
    """The grid of a square file laid out byte for byte as :func:`write_square`
    writes it, parsed without a Python object per token; None for any other file.

    The layout: a header of 1 to 18 ASCII digits and a newline, then n lines
    of n runs of ASCII digits, one space between runs and a newline after
    each line; no token of 10**18 or more, so every token fits in an int64.
    """
    end = raw.find(b"\n")
    if not (0 < end <= 18 and raw[:end].isdigit() and raw.endswith(b"\n")):
        return None
    n = int(raw[:end])
    # With the digits gone, the separators must be the layout's exactly.
    separators = raw.translate(None, b"0123456789")
    if n < 1 or len(separators) != n * n + 1 or separators != b"\n" + (b" " * (n - 1) + b"\n") * n:
        return None
    # The header fills the place before the first separator, and nothing
    # follows the last; so n * n + 1 tokens leave no place between two
    # separators empty.
    values = np.fromstring(raw, dtype=np.int64, sep=" ")
    if values.size != n * n + 1 or values.max() >= 10**18:
        return None
    values.setflags(write=False)  # so validate_square keeps the grid uncopied
    return values[1:].reshape(n, n)


def read_square(path) -> EquiNSquare:
    """Parse and validate a square file written by :func:`write_square`."""
    raw = Path(path).read_bytes()
    grid = _written_grid(raw)
    if grid is None:
        lines = _lines(raw)
        try:
            n = int(lines[0])
        except ValueError:
            raise ParseError(1, f"expected integer order, got {lines[0]!r}") from None
        if n < 1:
            raise ParseError(1, f"order must be positive, got {n}")
        if len(lines) != n + 1:
            raise ParseError(len(lines) + 1, f"expected {n} grid rows, found {len(lines) - 1}")
        grid = [_ints(i, line, n) for i, line in enumerate(lines[1:], start=2)]
    try:
        return validate_square(len(grid), grid)
    except (SquareError, OverflowError) as exc:
        raise ParseError(2, f"invalid square: {exc}") from exc


def write_transversal(transversal: Transversal, path) -> None:
    """Write one 'row col' line per cell, sorted by row."""
    lines = [f"{c.row} {c.col}" for c in transversal.cells]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_transversal(path) -> list[Cell]:
    """Read 'row col' lines; validation against a square is the caller's job."""
    text = _utf8(Path(path).read_bytes())
    return [Cell(*_ints(i, line, 2))
            for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
