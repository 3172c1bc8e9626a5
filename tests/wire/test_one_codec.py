"""One codec: nothing decodes a pickle, and no second serializer grows back.

The value codec once had a tag (12) for pickled values, keys had a
pickle fallback and spill records were pickles.  With all of them gone,
every one of those byte shapes — at the top level, nested, inside a
sized payload blob, in a spill record, key or meta frame — is refused
with :class:`SerializationError` (:class:`SpillCorruption` on the
storage paths) and never reaches ``pickle.loads``, which these tests
booby-trap.  A source scan keeps the second codec and the second sizer
from coming back, and a second scan keeps the retired second benchmark
harness gone.
"""

import ast
import pathlib
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounds import Round
from repro.crdt.gcounter import GCounter
from repro.crdt.gset import GSet
from repro.errors import SerializationError, SpillCorruption
from repro.storage import SegmentedSpillStore, SpillRecord
from repro.storage.base import decode_record, encode_record
from repro.storage.segmented import _KIND_META, _KIND_RECORD, _frame
from repro.wire import decode_body, decode_frame, decode_key, encode_body, encode_key
from repro.wire.values import (
    T_DICT,
    T_FROZENSET,
    T_OBJ,
    T_SIZED,
    T_STR,
    T_TUPLE,
    spec_for,
)
from repro.wire.varint import write_uvarint

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: The retired pickle value tag.
OLD_PICKLE_TAG = 12


class Boom:
    """Anything: unpickling it must never be attempted."""


@pytest.fixture(autouse=True)
def pickle_loads_is_a_trap(monkeypatch):
    def trap(*args, **kwargs):
        raise AssertionError("pickle.loads reached")

    monkeypatch.setattr(pickle, "loads", trap)


def uvarint(value: int) -> bytes:
    out = bytearray()
    write_uvarint(out, value)
    return bytes(out)


def pickled_value() -> bytes:
    """A value as the retired tag-12 encoding wrote it."""
    data = pickle.dumps(Boom())
    return bytes([OLD_PICKLE_TAG]) + uvarint(len(data)) + data


def sized_blob_with_a_pickle_inside() -> bytes:
    """A foreign sized payload: a GSet whose one element is a pickle."""
    blob = (
        bytes([T_OBJ]) + uvarint(spec_for(GSet).tag) + bytes([1])
        + bytes([T_FROZENSET, 1]) + pickled_value()
    )
    return bytes([T_SIZED]) + uvarint(len(blob)) + blob


# ----------------------------------------------------------------------
# The value codec
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "body",
    [
        pickled_value(),
        bytes([T_TUPLE, 2, 0]) + pickled_value(),
        sized_blob_with_a_pickle_inside(),
    ],
    ids=["top-level", "nested-in-a-tuple", "inside-a-sized-blob"],
)
def test_the_retired_pickle_tag_is_refused(body):
    with pytest.raises(SerializationError, match="unknown wire value tag 12"):
        decode_body(body)


def test_the_retired_key_fallback_is_refused():
    with pytest.raises(SerializationError):
        decode_key(b"\xff" + pickle.dumps(("a", Boom())))
    with pytest.raises(SerializationError):
        encode_key(("a", Boom()))


# ----------------------------------------------------------------------
# The storage paths
# ----------------------------------------------------------------------
def record_body(key_bytes: bytes, record_bytes: bytes) -> bytes:
    return struct.pack("<I", len(key_bytes)) + key_bytes + record_bytes


def good_record() -> bytes:
    return encode_record(SpillRecord(GCounter.of({"r0": 1}), Round.initial()))


def write_segment(directory: pathlib.Path, *frames: bytes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "seg-00000000.spill").write_bytes(b"".join(frames))


def test_a_pickle_in_a_spill_record_body_is_corruption(tmp_path):
    body = bytes([T_TUPLE, 3]) + pickled_value() + encode_body(Round.initial()) + b"\x00"
    with pytest.raises(SerializationError):
        decode_record(body)
    write_segment(tmp_path, _frame(_KIND_RECORD, record_body(encode_key("k"), body)))
    store = SegmentedSpillStore(tmp_path)  # the scan reads keys only
    with pytest.raises(SpillCorruption):
        store.get("k")
    store.close()


def test_a_pickle_in_a_spill_key_is_corruption(tmp_path):
    write_segment(
        tmp_path, _frame(_KIND_RECORD, record_body(pickled_value(), good_record()))
    )
    with pytest.raises(SpillCorruption):
        SegmentedSpillStore(tmp_path)


def test_a_pickle_in_a_meta_frame_is_corruption(tmp_path):
    meta = bytes([T_DICT, 1, T_STR, 1]) + b"x" + pickled_value()
    write_segment(tmp_path, _frame(_KIND_META, meta))
    with pytest.raises(SpillCorruption):
        SegmentedSpillStore(tmp_path)


# ----------------------------------------------------------------------
# Random bytes
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=96))
def test_random_bytes_raise_only_serialization_error(data):
    for decode in (decode_frame, decode_key, decode_record):
        try:
            decode(data)
        except SerializationError:
            pass


# ----------------------------------------------------------------------
# Guard: one serializer, one sizer
# ----------------------------------------------------------------------
_PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}


def test_no_source_module_imports_pickle_or_defines_a_second_sizer():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(SRC.parent)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
                if names & _PICKLE_MODULES:
                    offenders.append(f"{where}:{node.lineno} imports pickle")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] in _PICKLE_MODULES:
                    offenders.append(f"{where}:{node.lineno} imports from pickle")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name == "wire_size" and not (
                    where.as_posix() == "repro/net/message.py" and node in tree.body
                ):
                    offenders.append(f"{where}:{node.lineno} defines wire_size")
    assert not offenders, "\n".join(offenders)


# ----------------------------------------------------------------------
# Guard: one benchmark harness
# ----------------------------------------------------------------------
def _imported_modules(node: ast.AST) -> list[str]:
    """Dotted names an import statement may bind (``from a import b``
    yields ``a.b``, which catches ``from repro import bench``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_only_the_figure_driver_imports_repro_bench_and_no_gate_remains():
    """``perf/`` is the one performance harness; ``repro.bench`` only
    regenerates the paper's figures, so nothing else in the library may
    lean on it, and the retired gate's snapshots stay deleted."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC.parent)
        if where.parts[:2] == ("repro", "bench"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            for module in _imported_modules(node):
                if module == "repro.bench" or module.startswith("repro.bench."):
                    offenders.append(f"{where}:{node.lineno} imports {module}")
    offenders += [path.name for path in sorted(ROOT.glob("BENCH_PR*.json"))]
    offenders += [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "benchmarks").glob("*baseline*.json"))
    ]
    assert not offenders, "\n".join(offenders)
