"""Property tests for the readers of outside input: each input either parses
or raises the module's typed error, never anything else."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equisquares import cli
from equisquares.constructions import (
    BlockMismatch,
    BlockStructure,
    block_structured_square,
    counterexample_square,
    read_blocks,
    write_blocks,
)
from equisquares.squares import SquareError, read_square, read_transversal

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# Text built from the characters the formats use, plus a little of everything.
format_text = st.text(alphabet=st.sampled_from("0123456789 -\n\t+_x.\r١"), max_size=80)
file_bytes = st.one_of(format_text.map(lambda t: t.encode("utf-8")), st.binary(max_size=40))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


def _with_file(content: bytes, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(content)
        return read(path)


@pytest.mark.parametrize("read", [read_square, read_transversal],
                         ids=["square", "transversal"])
@FUZZ
@given(content=file_bytes)
def test_text_readers_raise_only_square_error(read, content):
    try:
        _with_file(content, read)
    except SquareError:
        pass


def _mutations(document: dict):
    """Sidecar-shaped documents: keys dropped or replaced by arbitrary JSON values."""
    keys = sorted(document)
    return st.builds(
        lambda drop, replace: {
            **{k: v for k, v in document.items() if k not in drop}, **replace},
        st.sets(st.sampled_from(keys), max_size=3),
        st.dictionaries(st.sampled_from(keys), json_values, max_size=2),
    )


_PAIRING = counterexample_square(8)[1].to_json()
_BLOCKS = {"format": 1, "m": 2, "blocks": [
    {"col": 0, "symbol": 0, "rows": [0, 1]}, {"col": 1, "symbol": 1, "rows": [0, 1]}]}


@FUZZ
@given(data=st.one_of(json_values, _mutations(_PAIRING)))
def test_verify_pairing_accepts_only_the_generated_sidecar(data):
    with tempfile.TemporaryDirectory() as tmp:
        square = Path(tmp) / "s.txt"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["generate", "--kind", "counterexample", "--n", "8", "--out", str(square)])
            sidecar = square.with_suffix(".pairing.json")
            sidecar.write_text(json.dumps(data), encoding="utf-8")
            code = cli.main(["verify", "--square", str(square), "--pairing", str(sidecar)])
    same = json.dumps(data, sort_keys=True) == json.dumps(_PAIRING, sort_keys=True)
    assert code == (0 if same else 1)


@FUZZ
@given(data=st.one_of(json_values, _mutations(_BLOCKS)))
def test_blocks_from_json_raises_only_block_mismatch(data):
    try:
        BlockStructure.from_json(json.loads(json.dumps(data)))
    except BlockMismatch:
        pass


def _read_blocks_outcome(path):
    """read_blocks(path), or the message of its BlockMismatch; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read_blocks(path)
        except BlockMismatch as exc:
            return str(exc)


def _json_outcome(path):
    """The same through json.loads and from_json alone."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        return f"blocks sidecar is not JSON: {exc}"
    try:
        return BlockStructure.from_json(data)
    except BlockMismatch as exc:
        return str(exc)


@FUZZ
@given(content=file_bytes)
def test_read_blocks_raises_only_block_mismatch(content):
    _with_file(content, _read_blocks_outcome)


def _written_sidecar() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.blocks.json"
        write_blocks(block_structured_square(8, 2, seed=1)[1], path)
        return path.read_bytes()


_SIDECAR = _written_sidecar()


@FUZZ
@given(at=st.integers(0, len(_SIDECAR)), byte=st.integers(0, 255),
       edit=st.sampled_from(["replace", "insert", "delete"]))
def test_read_blocks_on_one_byte_edits_of_a_sidecar(at, byte, edit):
    # Every edit is read or refused with BlockMismatch, and as the JSON path
    # alone would read or refuse it.
    head, tail = _SIDECAR[:at], _SIDECAR[at:]
    content = {"replace": head + bytes([byte]) + tail[1:], "insert": head + bytes([byte]) + tail,
               "delete": head + tail[1:]}[edit]
    assert _with_file(content, _read_blocks_outcome) == _with_file(content, _json_outcome)
