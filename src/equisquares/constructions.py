"""Square generators: the paired-box adversarial family (whose transversals
must miss many symbols), random equi-n-squares, block-structured squares for
the random-matching pipeline, and cyclic Latin squares; plus the
missing-colour certificate that audits the adversarial bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .squares import (
    DimensionMismatch,
    EquiNSquare,
    Transversal,
    validate_square,
    validate_transversal,
)


class TooSmall(ValueError):
    pass


class NotDivisible(ValueError):
    pass


class CertificateViolation(AssertionError):
    """A transversal used every colour of some paired band group.

    This contradicts a proven property of the construction, so it flags an
    implementation bug rather than bad input.
    """


class PairingMismatch(ValueError):
    pass


def box_parameters(n: int) -> tuple[int, int, int, int]:
    """Box side lengths (m, r, a, b) for order n.

    m = ceil(sqrt(n/2)), r = ceil(sqrt(m^2 - n/2)), a = m + r, b = m - r.
    Boxes are b rows tall and a columns wide; 2ab <= n always holds, but
    b >= 1 fails for n = 9, the one order where this family degenerates.
    """
    if n < 8:
        raise TooSmall(f"no paired-box construction for n={n}")
    # Integer arithmetic: smallest m with 2m^2 >= n, then smallest r with
    # 2r^2 >= 2m^2 - n.
    m = math.isqrt((n + 1) // 2)
    if 2 * m * m < n:
        m += 1
    q = 2 * m * m - n
    r = math.isqrt((q + 1) // 2)
    while 2 * r * r < q:
        r += 1
    a, b = m + r, m - r
    if b < 1:
        raise TooSmall(f"no paired-box construction for n={n}: box height b = m - r = {b}")
    return m, r, a, b


@dataclass(frozen=True)
class BoxPairing:
    """The box pairing and leftover fill behind an adversarial square.

    Box (i, j) spans rows [i*b, (i+1)*b) and columns [j*a, (j+1)*a) for
    i in [0, 2a), j in [0, 2b).  `pairs` lists ((box, box), colour) with
    distinct colours; leftover_fill colours the cells outside the boxed
    top-left 2ab x 2ab subsquare so every colour reaches n uses.
    """

    n: int
    m: int
    r: int
    a: int
    b: int
    pairs: tuple[tuple[tuple[int, int], tuple[int, int], int], ...]
    leftover_fill: tuple[tuple[int, int, int], ...]  # (row, col, colour)

    @property
    def boxed_extent(self) -> int:
        return 2 * self.a * self.b

    def transversal_bound(self) -> int:
        """Largest transversal size the missing-colour argument allows."""
        return self.n - math.ceil(self.b / 2) + 2 * (self.n - self.boxed_extent)

    def to_json(self) -> dict:
        return {
            "format": 1,
            "n": self.n,
            "m": self.m,
            "r": self.r,
            "a": self.a,
            "b": self.b,
            "pairs": [
                {"boxes": [list(b1), list(b2)], "colour": c} for b1, b2, c in self.pairs
            ],
            "leftover_fill": [list(t) for t in self.leftover_fill],
        }


def _make_pairs(a: int, b: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pairs = []
    for k in range(b):  # diagonal pairs
        pairs.append(((2 * k, 2 * k), (2 * k + 1, 2 * k + 1)))
    for i in range(2 * b):  # symmetric off-diagonal pairs
        for j in range(i + 1, 2 * b):
            pairs.append(((i, j), (j, i)))
    for s in range(b, a):  # stacked pairs below the square part
        for t in range(2 * b):
            pairs.append(((2 * s, t), (2 * s + 1, t)))
    return pairs


def counterexample_square(n: int) -> tuple[EquiNSquare, BoxPairing]:
    """Equi-n-square whose transversals miss at least ceil(b/2) colours.

    The top-left 2ab x 2ab region is tiled by 4ab boxes, paired off so each
    of 2ab colours fills one pair; the remaining cells are filled row-major
    from a deficit queue so that every colour is used exactly n times.
    The result depends on n alone; both parts are immutable.
    """
    return _counterexample(n)


# One entry: callers build one order and then certify against it repeatedly.
# counterexample_square stays a plain function so that tracers can wrap it.
@lru_cache(maxsize=1)
def _counterexample(n: int) -> tuple[EquiNSquare, BoxPairing]:
    m, r, a, b = box_parameters(n)
    two_ab = 2 * a * b
    pair_list = _make_pairs(a, b)
    if len(pair_list) != two_ab:
        raise AssertionError(f"{len(pair_list)} box pairs for {two_ab} colours")

    grid = np.full((n, n), -1, dtype=np.int64)
    pairs = []
    for colour, (box1, box2) in enumerate(pair_list):
        for (i, j) in (box1, box2):
            grid[i * b:(i + 1) * b, j * a:(j + 1) * a] = colour
        pairs.append((box1, box2, colour))

    # Boxed colours lack n - 2ab uses, the others all n; the
    # n^2 - (2ab)^2 cells outside the boxed region take exactly these.
    queue = np.concatenate([np.repeat(np.arange(two_ab), n - two_ab),
                            np.repeat(np.arange(two_ab, n), n)])
    outside = np.ones((n, n), dtype=bool)
    outside[:two_ab, :two_ab] = False
    grid[outside] = queue  # boolean-mask assignment runs row-major
    rows, cols = np.nonzero(outside)

    square = validate_square(n, grid)
    pairing = BoxPairing(n=n, m=m, r=r, a=a, b=b, pairs=tuple(pairs),
                         leftover_fill=tuple(zip(rows.tolist(), cols.tolist(), queue.tolist())))
    return square, pairing


@dataclass(frozen=True)
class CertificateReport:
    """Missing-colour audit of a transversal on an adversarial square."""

    missing: tuple[frozenset, ...]  # per band group k, colours absent from T'
    bound: int
    transversal_size: int

    @property
    def passed(self) -> bool:
        return all(self.missing) and self.transversal_size <= self.bound


def missing_colour_certificate(
    square: EquiNSquare, pairing: BoxPairing, transversal: Transversal
) -> CertificateReport:
    """For each band group, report the group colours the transversal misses.

    Band group k consists of the boxes in row bands 2k, 2k+1 and column
    bands 2k, 2k+1.  Each group must miss at least one colour inside the
    boxed subsquare; an empty missing set raises CertificateViolation.
    The square and the pairing are checked first: both must be what
    counterexample_square builds for the square's order, or
    PairingMismatch is raised.
    """
    try:
        expected_square, expected = _counterexample(square.n)
    except TooSmall as exc:
        raise PairingMismatch(str(exc)) from None
    if pairing != expected or square != expected_square:
        raise PairingMismatch(f"square and pairing must be those counterexample_square({square.n}) builds")
    validate_transversal(square, transversal.cells)

    extent = pairing.boxed_extent
    box = square.grid[:extent:pairing.b, :extent:pairing.a]  # (2a, 2b) box colours
    used = {
        square.symbol(c) for c in transversal.cells
        if c.row < extent and c.col < extent
    }

    missing = []
    for k in range(pairing.b):
        bands = slice(2 * k, 2 * k + 2)
        group = set(box[:, bands].ravel().tolist()) | set(box[bands].ravel().tolist())
        absent = frozenset(group - used)
        if not absent:
            raise CertificateViolation(f"band group {k} has no missing colour")
        missing.append(absent)

    return CertificateReport(
        missing=tuple(missing),
        bound=pairing.transversal_bound(),
        transversal_size=transversal.size,
    )


def random_equi_square(n: int, seed) -> EquiNSquare:
    """Uniformly shuffled multiset of n copies of each symbol, row-major."""
    if n < 1:
        raise DimensionMismatch(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    symbols = np.repeat(np.arange(n, dtype=np.int64), n)
    rng.shuffle(symbols)
    return validate_square(n, symbols.reshape(n, n))


class BlockMismatch(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Partition of a square's cells into single-column monochrome blocks.

    Block b is the m cells (rows[b, i], cols[b]), i < m, all holding
    symbols[b]; cols and symbols have shape (K,) and rows (K, m).
    """

    m: int
    cols: np.ndarray
    symbols: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", operator.index(self.m))
        for name in ("cols", "symbols", "rows"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, BlockStructure):
            return NotImplemented
        return self.m == other.m and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("cols", "symbols", "rows")
        )

    def to_json(self) -> dict:
        return {
            "format": 1,
            "m": self.m,
            "blocks": [
                {"col": c, "symbol": s, "rows": r}
                for c, s, r in zip(self.cols.tolist(), self.symbols.tolist(), self.rows.tolist())
            ],
        }

    @classmethod
    def from_json(cls, data) -> "BlockStructure":
        """Read a sidecar; BlockMismatch if it is malformed."""
        if not isinstance(data, dict) or data.get("format") != 1:
            fmt = data.get("format") if isinstance(data, dict) else None
            raise BlockMismatch(f"unsupported blocks format {fmt!r}")
        m, blocks = data.get("m"), data.get("blocks")
        if not _is_int(m) or m < 1:
            raise BlockMismatch(f"blocks sidecar needs a positive integer 'm', got {m!r}")
        if not isinstance(blocks, list):
            raise BlockMismatch("blocks sidecar needs a list 'blocks'")
        try:
            fields = [[d[key] for d in blocks] for key in ("col", "symbol", "rows")]
        except (KeyError, TypeError) as exc:
            raise BlockMismatch(f"every block needs 'col', 'symbol' and 'rows': {exc!r}") from None
        for i, rows in enumerate(fields[2]):
            if not isinstance(rows, list) or len(rows) != m:
                got = f"{len(rows)} cells" if isinstance(rows, list) else repr(rows)
                raise BlockMismatch(f"block {i} has {got}, expected a list of {m} rows")
        cols, symbols, rows = (_int_array(values, key, ndim)
                               for values, key, ndim in zip(fields, ("col", "symbol", "rows"), (1, 1, 2)))
        return cls(m=m, cols=cols, symbols=symbols, rows=rows.reshape(len(blocks), m))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_array(values: list, key: str, ndim: int) -> np.ndarray:
    """values as an ndim-D int64 array; BlockMismatch unless every entry is an integer."""
    try:
        arr = np.array(values)
    except (ValueError, OverflowError):
        arr = None
    if arr is None or (arr.size and (arr.dtype.kind != "i" or arr.ndim != ndim)):
        raise BlockMismatch(f"block '{key}' entries must be integers")
    # Among integers numpy reads true and false as 1 and 0, so only the
    # entries equal to 0 or 1 can be booleans.
    for index in np.argwhere((arr == 0) | (arr == 1)).tolist():
        entry = values
        for i in index:
            entry = entry[i]
        if isinstance(entry, bool):
            raise BlockMismatch(f"block '{key}' entries must be integers, not {entry!r}")
    return arr.astype(np.int64)


def validate_block_structure(square: EquiNSquare, blocks: BlockStructure) -> None:
    """Check blocks are size m, monochrome, single-column, and tile the square."""
    n = square.n
    m = blocks.m
    rows, cols, syms = blocks.rows, blocks.cols, blocks.symbols
    count = len(cols)
    if m < 1 or n * n != m * count:
        raise BlockMismatch(f"{count} blocks of size {m} cannot tile n={n}")
    if cols.ndim != 1 or syms.shape != cols.shape or rows.shape != (count, m):
        raise BlockMismatch(f"block rows have shape {rows.shape}, expected ({count}, {m}) "
                            f"for {count} columns and {syms.size} symbols")
    if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n:
        raise BlockMismatch("block cell out of range")
    # Cell (r, c) is entry c*n + r of the grid in column-major order, so
    # each block reads from one contiguous column.
    cells = n * cols[:, None] + rows
    mism = square.grid.T.ravel()[cells] != syms[:, None]
    if mism.any():
        bad = int(np.flatnonzero(mism.any(axis=1))[0])
        raise BlockMismatch(f"block {bad} (column {cols[bad]}, symbol {syms[bad]}, "
                            f"rows {rows[bad].tolist()}) does not match the grid symbols")
    # The blocks have n*n cells in all, so they partition the grid exactly
    # when they cover every cell.
    covered = np.zeros(n * n, dtype=bool)
    covered[cells] = True
    if not covered.all():
        raise BlockMismatch("blocks do not partition the cells")


def block_structured_square(n: int, m: int, seed) -> tuple[EquiNSquare, BlockStructure]:
    """Square built from k = n/m random column-symbol perfect matchings.

    Each matching round assigns every column one symbol; the round's block
    in that column takes m of the column's rows, chosen by a random
    partition of the rows into the k blocks.  Blocks are numbered column by
    column, round by round within a column, and list their rows ascending.
    The blocks are not validated here; block_transversal validates the
    blocks it is given.
    """
    if n < 1:
        raise DimensionMismatch(f"n must be positive, got {n}")
    if m < 1:
        raise NotDivisible(f"block size must be positive, got {m}")
    if n % m != 0:
        raise NotDivisible(f"block size {m} does not divide n={n}")
    k = n // m
    rng = np.random.default_rng(seed)
    perms = rng.random((k, n)).argsort(axis=1)  # round t: column j -> symbol
    row_orders = rng.random((n, n)).argsort(axis=1)  # per column, row shuffle
    # Column j's row row_orders[j, i] gets the symbol of round i // m.
    grid = np.empty((n, n), dtype=np.int64)  # (col, row) -> symbol
    np.put_along_axis(grid, row_orders, np.repeat(perms.T, m, axis=1), axis=1)
    square = validate_square(n, np.ascontiguousarray(grid.T))
    structure = BlockStructure(
        m=m,
        cols=np.repeat(np.arange(n), k),
        symbols=perms.T.ravel(),
        rows=np.sort(row_orders.reshape(n, k, m), axis=2).reshape(n * k, m),
    )
    return square, structure


def cyclic_latin(n: int) -> EquiNSquare:
    """grid[i][j] = (i + j) mod n; every Latin square is an equi-n-square."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n)
    grid = (idx[:, None] + idx[None, :]) % n
    return validate_square(n, grid)
