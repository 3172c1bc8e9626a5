"""The tagged binary value codec underneath every wire message.

One recursive encoding covers the entire protocol surface: scalars,
containers, and *registered classes* — protocol messages, CRDT payloads,
update/query ops, and :class:`~repro.core.rounds.Round` — which are
encoded as a class tag plus their fields re-entering this codec.  The
registry is populated by :mod:`repro.wire.registry`; this module only
holds the mechanics.

Determinism is a hard requirement (ring placement, spill keys, and
digest-based anti-entropy all hash encoded bytes): unordered containers
(frozensets, dicts) are serialized with their elements sorted by encoded
byte string, which is stable across processes and hash seeds where
``repr`` and salted ``hash`` iteration order are not.

There is one mode: a value outside the registered/scalar/container
world has no encoding and raises :class:`~repro.errors.SerializationError`
at the encoder, and the decoder builds nothing but scalars, containers
and registered classes.

**Sized payloads.**  A registered :class:`~repro.crdt.base.StateCRDT`
whose encoded body reaches :data:`SIZED_CROSSOVER` bytes is written as
``T_SIZED · uvarint length · body`` instead of the bare body.  The body
(the *blob*) is memoised on the immutable payload, so the payload is
encoded once however often it is sent; and the decoder looks the blob up
among the payloads resident in this process before parsing it, so an
equal payload arriving again costs a slice and a dictionary probe and
comes back as the very object already in memory.  See the "Wire format
v2" section of :mod:`repro.wire`.

Decoding dispatches on the tag byte through a table of per-tag readers,
and each registered class has a decode plan compiled when it is
registered, so decoding a frame costs about what encoding it did.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

from repro.crdt.base import StateCRDT, resident_payload
from repro.errors import SerializationError
from repro.wire.varint import read_uvarint, read_varint, write_uvarint, write_varint

T_NONE = 0
T_FALSE = 1
T_TRUE = 2
T_INT = 3
T_FLOAT = 4
T_STR = 5
T_BYTES = 6
T_TUPLE = 7
T_LIST = 8
T_FROZENSET = 9
T_DICT = 10
T_OBJ = 11
#: Tag 12 is retired (it once marked a pickled value) and must never be
#: reassigned: the decoder rejects it as an unknown tag.
T_SIZED = 13

#: Payload bodies of at least this many encoded bytes travel as sized
#: blobs and are memoised and interned; smaller ones keep the bare
#: encoding.  The memo is not free — a slot write, a blob copy and a weak
#: table entry per payload object — and a 23-byte G-Counter that changes
#: on every update never earns it back (measured: ~7 % more CPU per op
#: when applied to every payload).  At 512 bytes parsing already costs
#: an order of magnitude more than the bookkeeping.
SIZED_CROSSOVER = 512

_FLOAT = struct.Struct(">d")
_pack_float = _FLOAT.pack
_unpack_float = _FLOAT.unpack_from


class ClassSpec:
    """How one registered class crosses the wire.

    ``fields`` is the ordered attribute list, which is also the order of
    the constructor's positional parameters: slotted op classes take
    their slots in order, dataclasses their ``init`` fields (whose
    generated ``__init__`` reinitializes the non-init memo slots).
    ``build`` replaces the constructor for the handful of classes whose
    signature does not mirror their stored fields (e.g. the graph edge
    ops, which store one ``edge`` tuple but construct from
    ``(source, target)``); it receives the decoded field values in order.
    ``sized`` marks CRDT payload classes, the only ones eligible for the
    sized-blob encoding.
    """

    __slots__ = ("tag", "cls", "fields", "build", "sized")

    def __init__(
        self,
        tag: int,
        cls: type,
        fields: tuple[str, ...],
        build: Callable[..., Any] | None = None,
    ) -> None:
        self.tag = tag
        self.cls = cls
        self.fields = fields
        self.build = build
        self.sized = issubclass(cls, StateCRDT)


#: exact type → spec; populated by :func:`register`.
_SPECS_BY_CLASS: dict[type, ClassSpec] = {}
#: wire tag → spec.
_SPECS_BY_TAG: dict[int, ClassSpec] = {}
#: wire tag → decode plan (``(buf, pos) -> (instance, next_pos)`` with
#: ``pos`` just past the class tag), compiled by :func:`register`; a
#: retired tag's plan refuses the frame.
_PLANS: list[Callable[[Any, int], tuple[Any, int]]] = []


def register(
    cls: type,
    fields: tuple[str, ...],
    build: Callable[..., Any] | None = None,
) -> None:
    """Assign ``cls`` the next wire tag.  Registration order is part of
    the wire format — append, never reorder (see :data:`WIRE_VERSION` in
    :mod:`repro.wire.framing`)."""
    if cls in _SPECS_BY_CLASS:
        raise SerializationError(f"{cls.__name__} already wire-registered")
    spec = ClassSpec(len(_PLANS), cls, fields, build)
    _SPECS_BY_CLASS[cls] = spec
    _SPECS_BY_TAG[spec.tag] = spec
    _PLANS.append(_compile_plan(spec))


def retire(name: str) -> None:
    """Hold the next wire tag for a class that no longer exists, so every
    class registered after it keeps its tag; a frame carrying the retired
    tag decodes as :class:`SerializationError`."""
    tag = len(_PLANS)

    def refuse(buf, pos):
        raise SerializationError(f"retired wire class tag {tag} ({name})")

    _PLANS.append(refuse)


def registered_classes() -> tuple[type, ...]:
    """Every wire-registered class, in tag order."""
    return tuple(_SPECS_BY_TAG[tag].cls for tag in sorted(_SPECS_BY_TAG))


def spec_for(cls: type) -> ClassSpec | None:
    return _SPECS_BY_CLASS.get(cls)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_value(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``.

    A value of a type the codec does not know raises
    :class:`SerializationError`.
    """
    if value is None:
        out.append(T_NONE)
        return
    kind = type(value)
    if kind is bool:
        out.append(T_TRUE if value else T_FALSE)
        return
    if kind is int:
        out.append(T_INT)
        write_varint(out, value)
        return
    if kind is float:
        out.append(T_FLOAT)
        out += _pack_float(value)
        return
    if kind is str:
        data = value.encode("utf-8")
        out.append(T_STR)
        write_uvarint(out, len(data))
        out += data
        return
    if kind is bytes:
        out.append(T_BYTES)
        write_uvarint(out, len(value))
        out += value
        return
    if kind is tuple:
        out.append(T_TUPLE)
        write_uvarint(out, len(value))
        for item in value:
            encode_value(item, out)
        return
    if kind is list:
        out.append(T_LIST)
        write_uvarint(out, len(value))
        for item in value:
            encode_value(item, out)
        return
    if kind is frozenset:
        chunks = []
        for item in value:
            chunk = bytearray()
            encode_value(item, chunk)
            chunks.append(bytes(chunk))
        chunks.sort()
        out.append(T_FROZENSET)
        write_uvarint(out, len(chunks))
        for chunk in chunks:
            out += chunk
        return
    if kind is dict:
        pairs = []
        for key, item in value.items():
            encoded_key = bytearray()
            encode_value(key, encoded_key)
            encoded_item = bytearray()
            encode_value(item, encoded_item)
            pairs.append((bytes(encoded_key), bytes(encoded_item)))
        pairs.sort()
        out.append(T_DICT)
        write_uvarint(out, len(pairs))
        for encoded_key, encoded_item in pairs:
            out += encoded_key
            out += encoded_item
        return
    spec = _SPECS_BY_CLASS.get(kind)
    if spec is None:
        raise SerializationError(f"{kind.__name__} has no wire encoding")
    if spec.sized:
        _encode_payload(value, spec, out)
        return
    out.append(T_OBJ)
    write_uvarint(out, spec.tag)
    write_uvarint(out, len(spec.fields))
    for name in spec.fields:
        encode_value(getattr(value, name), out)


def _encode_fields(value: StateCRDT, spec: ClassSpec, out: bytearray) -> None:
    """The bare ``T_OBJ`` encoding of a payload (as for any other
    registered class in :func:`encode_value`, which inlines it)."""
    out.append(T_OBJ)
    write_uvarint(out, spec.tag)
    write_uvarint(out, len(spec.fields))
    for name in spec.fields:
        encode_value(getattr(value, name), out)


def _encode_payload(value: StateCRDT, spec: ClassSpec, out: bytearray) -> None:
    """Encode a CRDT payload: the memoised blob if it has one, else its
    body — promoted to a sized blob and memoised when it reaches
    :data:`SIZED_CROSSOVER`."""
    blob = value.wire_blob()
    if blob is None:
        start = len(out)
        _encode_fields(value, spec, out)
        if len(out) - start < SIZED_CROSSOVER:
            return
        with memoryview(out) as view:
            blob = bytes(view[start:])
        del out[start:]
        value.adopt_wire_blob(blob)
    out.append(T_SIZED)
    write_uvarint(out, len(blob))
    out += blob


def payload_blob(state: StateCRDT) -> bytes:
    """The canonical body encoding of a registered payload — the
    memoised blob when there is one, so fingerprinting a large unchanged
    state costs no encode."""
    blob = state.wire_blob()
    if blob is None:
        out = bytearray()
        encode_value(state, out)
        blob = state.wire_blob() or bytes(out)  # memoised just now, or small
    return blob


# ----------------------------------------------------------------------
# Decoding
#
# One reader per tag, ``(buf, pos) -> (value, next_pos)`` with ``pos``
# just past the tag byte, dispatched through ``_DECODERS``.  Lengths,
# counts and class tags below 128 — nearly all of them — are read as the
# single byte they are.  Readers index and slice without checking bounds
# first: running off the end raises ``IndexError`` / ``struct.error``,
# which :func:`decode_value` turns into :class:`SerializationError`
# (slices never raise, so the string/bytes/blob readers do check).
# ----------------------------------------------------------------------
def _read_none(buf, pos):
    return None, pos


def _read_false(buf, pos):
    return False, pos


def _read_true(buf, pos):
    return True, pos


def _read_int(buf, pos):
    byte = buf[pos]
    if byte < 0x80:
        return (-((byte + 1) >> 1) if byte & 1 else byte >> 1), pos + 1
    return read_varint(buf, pos)


def _read_float(buf, pos):
    return _unpack_float(buf, pos)[0], pos + 8


def _read_str(buf, pos):
    length = buf[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise SerializationError("truncated string")
    return str(buf[pos:end], "utf-8"), end


def _read_bytes(buf, pos):
    length = buf[pos]
    if length < 0x80:
        pos += 1
    else:
        length, pos = read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise SerializationError("truncated bytes")
    return bytes(buf[pos:end]), end


def _read_list(buf, pos):
    count = buf[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_uvarint(buf, pos)
    decoders = _DECODERS
    items = []
    append = items.append
    for _ in range(count):
        item, pos = decoders[buf[pos]](buf, pos + 1)
        append(item)
    return items, pos


def _read_tuple(buf, pos):
    count = buf[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_uvarint(buf, pos)
    decoders = _DECODERS
    items = []
    append = items.append
    for _ in range(count):
        item, pos = decoders[buf[pos]](buf, pos + 1)
        append(item)
    return tuple(items), pos


def _read_frozenset(buf, pos):
    items, pos = _read_list(buf, pos)
    return frozenset(items), pos


def _read_dict(buf, pos):
    count = buf[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = read_uvarint(buf, pos)
    decoders = _DECODERS
    result = {}
    for _ in range(count):
        key, pos = decoders[buf[pos]](buf, pos + 1)
        item, pos = decoders[buf[pos]](buf, pos + 1)
        result[key] = item
    return result, pos


def _read_object(buf, pos):
    class_tag = buf[pos]
    if class_tag < 0x80:
        pos += 1
    else:
        class_tag, pos = read_uvarint(buf, pos)
    if class_tag >= len(_PLANS):
        raise SerializationError(f"unknown wire class tag {class_tag}")
    return _PLANS[class_tag](buf, pos)


def _read_sized(buf, pos):
    """A sized payload blob: the resident payload with these bytes if
    there is one, else parse the blob and make the result resident."""
    length, pos = read_uvarint(buf, pos)
    end = pos + length
    if end > len(buf):
        raise SerializationError("truncated sized payload")
    blob = bytes(buf[pos:end])
    payload = resident_payload(blob)
    if payload is None:
        if not length or blob[0] != T_OBJ:
            raise SerializationError("sized blob does not hold a registered class")
        payload, used = _read_object(blob, 1)
        if used != length:
            raise SerializationError(
                f"{length - used} trailing bytes in sized payload"
            )
        if not isinstance(payload, StateCRDT):
            raise SerializationError(
                f"sized blob holds a {type(payload).__name__}, not a CRDT payload"
            )
        payload.adopt_wire_blob(blob)
    return payload, end


def _read_unknown(buf, pos):
    raise SerializationError(f"unknown wire value tag {buf[pos - 1]}")


_DECODERS: list[Callable[[Any, int], tuple[Any, int]]] = [_read_unknown] * 256
_DECODERS[T_NONE] = _read_none
_DECODERS[T_FALSE] = _read_false
_DECODERS[T_TRUE] = _read_true
_DECODERS[T_INT] = _read_int
_DECODERS[T_FLOAT] = _read_float
_DECODERS[T_STR] = _read_str
_DECODERS[T_BYTES] = _read_bytes
_DECODERS[T_TUPLE] = _read_tuple
_DECODERS[T_LIST] = _read_list
_DECODERS[T_FROZENSET] = _read_frozenset
_DECODERS[T_DICT] = _read_dict
_DECODERS[T_OBJ] = _read_object
_DECODERS[T_SIZED] = _read_sized


def _compile_plan(spec: ClassSpec) -> Callable[[Any, int], tuple[Any, int]]:
    """The decode plan of one class: check the arity byte, read that
    many fields, hand them to the constructor.

    The plan is generated source with one read per field and the
    constructor called positionally — no field list, no loop, no
    ``**kwargs`` — which is what :mod:`dataclasses` does for the
    ``__init__`` it is about to call.
    """
    arity = len(spec.fields)
    name = spec.cls.__name__
    if arity >= 0x80:
        raise SerializationError(f"{name} has too many wire fields ({arity})")

    def mismatch(buf, pos):
        count, _ = read_uvarint(buf, pos)
        return SerializationError(
            f"{name} arity mismatch: wire has {count} fields, "
            f"this build expects {arity}"
        )

    def unbuildable(exc):
        return SerializationError(f"cannot rebuild {name} from wire: {exc!r}")

    reads = "".join(
        f"    v{i}, pos = decoders[buf[pos]](buf, pos + 1)\n" for i in range(arity)
    )
    source = (
        "def plan(buf, pos):\n"
        f"    if buf[pos] != {arity}:\n"
        "        raise mismatch(buf, pos)\n"
        "    pos += 1\n"
        f"{reads}"
        "    try:\n"
        f"        return build({', '.join(f'v{i}' for i in range(arity))}), pos\n"
        "    except SerializationError:\n"
        "        raise\n"
        "    except Exception as exc:\n"
        "        raise unbuildable(exc) from exc\n"
    )
    namespace = {
        "decoders": _DECODERS,
        "build": spec.build if spec.build is not None else spec.cls,
        "mismatch": mismatch,
        "unbuildable": unbuildable,
        "SerializationError": SerializationError,
    }
    exec(source, namespace)
    return namespace["plan"]


#: What reading malformed bytes can raise besides SerializationError:
#: running off the buffer, a short float, bad UTF-8, an unhashable set
#: element or dict key, nesting deeper than the interpreter's stack.
_MALFORMED = (IndexError, struct.error, UnicodeDecodeError, TypeError, RecursionError)


def decode_value(buf, pos: int = 0) -> tuple[Any, int]:
    """Decode one tagged value at ``pos``; returns ``(value, next_pos)``.

    Any malformed input raises :class:`SerializationError` and nothing
    else.
    """
    try:
        return _DECODERS[buf[pos]](buf, pos + 1)
    except _MALFORMED as exc:
        raise SerializationError(f"malformed wire value: {exc!r}") from exc
