"""Unit tests for envelopes and wire-size accounting.

A size is the length of the value's encoded wire body — a tag byte, then
a zig-zag varint, a length-prefixed string, an 8-byte float, or a count
and the elements — and there is nothing to fall back on for a value the
codec cannot encode.
"""

from dataclasses import dataclass

import pytest

from repro.core.rounds import Round
from repro.errors import SerializationError
from repro.net.message import ENVELOPE_OVERHEAD_BYTES, Envelope, wire_size
from repro.wire import encode_body


def test_wire_size_primitives():
    assert wire_size(None) == 1
    assert wire_size(True) == 1
    assert wire_size(7) == 2
    assert wire_size(3.14) == 9
    assert wire_size("abcd") == 6
    assert wire_size(b"abc") == 5


def test_wire_size_containers():
    assert wire_size([1, 2]) == 2 + 2 * 2
    assert wire_size((1, 2, 3)) == 2 + 3 * 2
    assert wire_size({"a": 1}) == 2 + 3 + 2
    assert wire_size(frozenset({"xy"})) == 2 + 4


def test_wire_size_dataclass():
    registered = Round(4, (7, 2, 1))
    assert wire_size(registered) == len(encode_body(registered))

    @dataclass
    class Point:
        x: int
        y: int

    with pytest.raises(SerializationError):
        wire_size(Point(1, 2))


def test_values_without_an_encoding_have_no_size():
    class Sized:
        def wire_size(self):
            return 123

    for value in (object(), Sized()):
        with pytest.raises(SerializationError):
            wire_size(value)


def test_envelope_size_includes_overhead():
    envelope = Envelope(src="a", dst="b", payload=7)
    assert envelope.size_bytes() == ENVELOPE_OVERHEAD_BYTES + 2
