"""Square generators: the paired-box adversarial family (whose transversals
must miss many symbols), random equi-n-squares, block-structured squares for
the random-matching pipeline, and cyclic Latin squares; plus the
missing-colour certificate that audits the adversarial bound.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .squares import (
    DimensionMismatch,
    EquiNSquare,
    Transversal,
    _index,
    _int_array,
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

    grid.setflags(write=False)  # so validate_square keeps it uncopied
    square = validate_square(n, grid)
    pairing = BoxPairing(n=n, m=m, r=r, a=a, b=b, pairs=tuple(pairs),
                         leftover_fill=tuple(zip(rows.tolist(), cols.tolist(), queue.tolist())))
    return square, pairing


@lru_cache(maxsize=1)
def _pairing_text(n: int) -> bytes:
    """The pairing sidecar of order n as generate writes it: json.dumps of
    the pairing's to_json() and a newline."""
    return (json.dumps(_counterexample(n)[1].to_json()) + "\n").encode("utf-8")


def _json_document(raw: bytes, error: type[ValueError], name: str):
    """The JSON document in the bytes raw; error, naming the sidecar, if they
    are not UTF-8 JSON, nest too deeply for the parser, or hold an integer
    too long to convert."""
    try:
        # Decoded as Path.read_text decodes, universal newlines included.
        return json.loads(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise error(f"{name} sidecar is not JSON: {exc}") from None


def read_pairing(path, n: int) -> BoxPairing:
    """The pairing counterexample_square(n) builds, if the sidecar at path is
    the one generate writes for n; PairingMismatch otherwise.

    generate's own bytes are accepted without a parse.  Any other file must
    be JSON equal to them, key order aside; dumping tells 1 from 1.0 and
    true, which == would not.
    """
    raw = Path(path).read_bytes()
    try:
        text = _pairing_text(n)
    except TooSmall as exc:
        _json_document(raw, PairingMismatch, "pairing")  # a sidecar that is not JSON says so first
        raise PairingMismatch(str(exc)) from None
    pairing = _counterexample(n)[1]
    if raw != text and (json.dumps(_json_document(raw, PairingMismatch, "pairing"), sort_keys=True)
                        != json.dumps(pairing.to_json(), sort_keys=True)):
        raise PairingMismatch(f"pairing sidecar is not the one generate writes for n={n}")
    return pairing


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
    symbols.setflags(write=False)  # so validate_square keeps it uncopied
    return validate_square(n, symbols.reshape(n, n))


class BlockMismatch(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Partition of a square's cells into single-column monochrome blocks.

    Block b is the m cells (rows[b, i], cols[b]), i < m, all holding
    symbols[b]; cols and symbols have shape (K,) and rows (K, m).  An entry
    that squares._int_array refuses is a BlockMismatch; the read-only arrays
    it returns are stored.
    """

    m: int
    cols: np.ndarray
    symbols: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _index(self.m))
        for name, key in (("cols", "col"), ("symbols", "symbol"), ("rows", "rows")):
            arr = _int_array(getattr(self, name), lambda _, entry: _not_integers(key, entry))
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, BlockStructure):
            return NotImplemented
        return self.m == other.m and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("cols", "symbols", "rows")
        )

    @classmethod
    def from_json(cls, data) -> "BlockStructure":
        """The blocks of a parsed sidecar document; BlockMismatch if it is malformed."""
        if not isinstance(data, dict) or data.get("format") != 1:
            fmt = data.get("format") if isinstance(data, dict) else None
            raise BlockMismatch(f"unsupported blocks format {fmt!r}")
        m, blocks = data.get("m"), data.get("blocks")
        try:
            positive = _index(m) >= 1
        except TypeError:
            positive = False
        if not positive:
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
        try:
            rows = fields[2] if blocks else np.empty((0, m))  # [] alone would read as 1-D
        except ValueError:  # numpy caps every dimension, an empty one too
            raise BlockMismatch(f"blocks sidecar 'm' = {m} is too large for an array") from None
        out = cls(m=m, cols=fields[0], symbols=fields[1], rows=rows)
        for key, arr, ndim in zip(("col", "symbol", "rows"), (out.cols, out.symbols, out.rows), (1, 1, 2)):
            if arr.ndim != ndim:  # a list where a number belongs
                raise _not_integers(key, None)
        return out


def _not_integers(key: str, entry) -> BlockMismatch:
    named = f", not {entry!r}" if isinstance(entry, (bool, np.bool_)) else ""
    return BlockMismatch(f"block '{key}' entries must be integers{named}")


# The blocks sidecar, format 1, is json.dumps of {"format": 1, "m": m,
# "blocks": [{"col": c, "symbol": s, "rows": [r, ...]}, ...]} and a newline.
_SIDECAR = b'{"format": %b, "m": %b, "blocks": [%b]}\n'
_SPACE_OUT = bytes(c if c in b"0123456789" else ord(" ") for c in range(256))  # for bytes.translate


def _block_pieces(m: int) -> list[bytes]:
    """The bytes of one block of the sidecar, and of the ", " after it,
    around the block's m + 2 numbers: column, symbol, and rows."""
    return [b'{"col": ', b', "symbol": ', b', "rows": [', *[b", "] * (m - 1), b"]}, "]


def _blocks_text(blocks: BlockStructure) -> bytes:
    """The bytes :func:`write_blocks` writes for blocks, or its BlockMismatch."""
    m, cols, symbols, rows = blocks.m, blocks.cols, blocks.symbols, blocks.rows
    count = cols.size
    n = math.isqrt(count * m) if m > 0 else 0
    if n < 1 or n * n != count * m:
        raise BlockMismatch(f"{count} blocks of size {m} cannot tile a square")
    if cols.shape != (count,) or symbols.shape != (count,) or rows.shape != (count, m):
        raise BlockMismatch(f"block rows have shape {rows.shape}, expected ({count}, {m}) "
                            f"for {count} columns and {symbols.size} symbols")
    fields = (cols, symbols, rows)
    if min(a.min() for a in fields) < 0 or max(a.max() for a in fields) >= n:
        raise BlockMismatch(f"block entry out of range [0, {n})")
    # Each block is one row of bytes with a slot of `width` zero bytes per
    # number.  The slots take the numbers' digits, zero-padded, and zero is
    # no byte of the text, so dropping zeros leaves it.
    width = len(str(n - 1))
    digits = np.array([str(v) for v in range(n)], dtype=f"S{width}")
    template = np.frombuffer(bytes(width).join(_block_pieces(m)), dtype=np.uint8)
    text = np.tile(template, (count, 1))
    text[:, template == 0] = digits[np.column_stack(fields)].view(np.uint8)
    body = text[text != 0].tobytes()[:-2]  # less the ", " after the last block
    return _SIDECAR % (b"1", b"%d" % m, body)


def write_blocks(blocks: BlockStructure, path) -> None:
    """Write the blocks sidecar, format 1 as one line of JSON.

    BlockMismatch, and no file, unless the blocks could tile a square: K
    blocks of m cells with K*m = n*n, n >= 1, and every column, symbol and
    row in [0, n).
    """
    Path(path).write_bytes(_blocks_text(blocks))


def _written_layout(raw: bytes) -> BlockStructure | None:
    """The blocks in raw if :func:`write_blocks` writes exactly raw for them,
    parsed without a Python object per number; None for any other file.

    The second number is m, and the rest make blocks of m + 2 numbers.  A
    leading zero, a token too long for an int64, or any byte out of
    write_blocks' place changes the bytes the blocks render to.
    """
    # Spaces for every other byte leave only numbers to parse, so no warning.
    numbers = np.fromstring(raw.translate(_SPACE_OUT), dtype=np.int64, sep=" ")
    m = int(numbers[1]) if numbers.size >= 2 else 0
    count, extra = divmod(numbers.size - 2, m + 2) if m >= 1 else (0, 0)
    if count < 1 or extra:
        return None
    numbers.setflags(write=False)  # read-only views: the BlockStructure keeps them uncopied
    fields = numbers[2:].reshape(count, m + 2)
    blocks = BlockStructure(m=m, cols=fields[:, 0], symbols=fields[:, 1], rows=fields[:, 2:])
    try:
        return blocks if _blocks_text(blocks) == raw else None
    except BlockMismatch:
        return None


def read_blocks(path) -> BlockStructure:
    """Read a blocks sidecar; BlockMismatch if it is not format-1 JSON.

    A file that write_blocks would write byte for byte is parsed by array
    passes, any other through json.loads and :meth:`BlockStructure.from_json`;
    both accept and refuse the same files.
    """
    raw = Path(path).read_bytes()
    blocks = _written_layout(raw)
    if blocks is None:
        return BlockStructure.from_json(_json_document(raw, BlockMismatch, "blocks"))
    return blocks


def validate_block_structure(square: EquiNSquare, blocks: BlockStructure) -> None:
    """Check blocks are size m, monochrome, single-column, and tile the square.

    Each block writes its symbol onto a canvas of the n*n cells that starts
    at n, which is no symbol.  The blocks have n*n cells in all, so the
    canvas equals the grid exactly when they cover every cell once, each
    with the grid's symbol there.  Only a failure gathers the grid at every
    block's cells, to name the first block that does not match.
    """
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
    # A symbol outside [0, n) matches no cell; written onto the narrow
    # canvas it could wrap onto one that it matches.
    if syms.min() >= 0 and syms.max() < n:
        # Cell (r, c) is entry c*n + r, so each block writes one column run.
        canvas = np.full(n * n, n, dtype=np.min_scalar_type(n))
        canvas[n * cols[:, None] + rows] = syms.astype(canvas.dtype)[:, None]
        if np.array_equal(canvas.reshape(n, n).T, square.grid):
            return
    mism = square.grid[rows, cols[:, None]] != syms[:, None]
    if mism.any():
        bad = int(np.flatnonzero(mism.any(axis=1))[0])
        raise BlockMismatch(f"block {bad} (column {cols[bad]}, symbol {syms[bad]}, "
                            f"rows {rows[bad].tolist()}) does not match the grid symbols")
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
    grid = np.ascontiguousarray(grid.T)
    fields = (np.repeat(np.arange(n), k), perms.T.ravel(),
              np.sort(row_orders.reshape(n, k, m), axis=2).reshape(n * k, m))
    for arr in (grid, *fields):
        arr.setflags(write=False)  # so validate_square and BlockStructure keep them uncopied
    return validate_square(n, grid), BlockStructure(m, *fields)


def cyclic_latin(n: int) -> EquiNSquare:
    """grid[i][j] = (i + j) mod n; every Latin square is an equi-n-square."""
    if n < 1:
        raise DimensionMismatch(f"n must be positive, got {n}")
    idx = np.arange(n)
    grid = (idx[:, None] + idx[None, :]) % n
    grid.setflags(write=False)  # so validate_square keeps it uncopied
    return validate_square(n, grid)
