"""Wire format of the asyncio backend: framing plus a payload codec.

The simulated transport passes :class:`~repro.network.message.Message`
objects around in memory; the asyncio backend puts the same messages on real
sockets.  Each message travels as one *frame*:

    +----------------+---------+-----------------------------------------+
    | length (4B BE) | version | message body (see :func:`encode_message`)|
    +----------------+---------+-----------------------------------------+

The length prefix counts everything after itself.  The body reuses the
varint/length-prefixed-string primitives of :mod:`repro.core.codec` and adds
a small recursive *value* codec for the payload dictionaries, whose entries
mix plain Python data with the repo's causality types (dots, clocks,
siblings, causal contexts).  Each value starts with a one-byte tag; decoding
dispatches on it through a 256-entry table.  An unsupported payload type
raises :class:`SerializationError` at encode time (instead of pickling
arbitrary objects), and a malformed frame raises it at decode time — never
any other exception.

Decoding follows three rules:

* **Canonical only.**  The decoder accepts exactly what the encoder emits:
  minimal varints, version-vector entries sorted by actor with no zero or
  repeated entry, history dots strictly ascending with the event among them,
  an event flag of 0 or 1, set members and VVE exceptions strictly
  ascending, no repeated dict key.  Anything else is a
  :class:`SerializationError`, so re-encoding a decoded frame reproduces it
  byte for byte.
* **Slice adoption.**  Because of that, a decoded ``V``/``W``/``H`` clock's
  canonical bytes are its slice of the frame (``b"D"`` plus the body for
  ``W``), and it adopts the slice as its ``_encoded`` memo; a decoded
  ``G`` sibling whose value is an immutable scalar adopts its record as
  ``_wire_encoded``.  Forwarding or storing decoded state never re-encodes.
* **One sibling per record.**  Decoded siblings go into a process-wide
  ``weakref.WeakValueDictionary`` keyed by their record's first 24 bytes.
  A later record counts as the same sibling only when the frame holds that
  sibling's whole record byte for byte at the same offset; a key collision,
  a corrupt record or a mutable-valued sibling is simply a miss.  A hit
  returns the one shared immutable :class:`~repro.clocks.interface.Sibling`
  (with its history), as the simulator does by passing objects in memory;
  entries are weak, so the memo never keeps a dead sibling alive.  It is
  process-wide because one process hosts every node of an in-process
  cluster.

Two deliberate choices:

* ``tuple`` and ``list`` are distinct tags, because mechanism states are
  tuples and handlers pattern-match on their shape; round-tripping must not
  quietly turn one into the other.
* :class:`~repro.clocks.interface.Sibling` keeps its ``uid`` across the wire.
  Uids are process-local sequence numbers; within one process (the backend's
  intended deployment for experiments) preserving them keeps report output
  stable, and between processes they are only used for display.
"""

from __future__ import annotations

import operator
import struct
import weakref
from typing import Any, Callable, Dict, List, Tuple

from ..clocks.interface import Sibling
from ..core import codec
from ..core.causal_history import CausalHistory
from ..core.codec import (
    _decode_actor,
    _decode_dot,
    _decode_str,
    _decode_varint,
    _decode_vv_entries,
    _encode_str,
    _encode_varint,
    _varint_tail,
)
from ..core.dot import Dot
from ..core.dvv import DottedVersionVector
from ..core.dvvset import DVVSet
from ..core.exceptions import InvalidClockError, SerializationError
from ..core.version_vector import VersionVector
from ..clocks.vve import DottedVVE, VersionVectorWithExceptions
from ..kvstore.context import CausalContext
from .message import Message, MessageType

#: Bumped when the frame layout or a tag changes incompatibly.
WIRE_VERSION = 1

#: Upper bound on one frame's body (guards against a corrupted length prefix
#: making the reader try to buffer gigabytes).
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")
_FLOAT = struct.Struct(">d")
_set_attr = object.__setattr__

#: Sibling values whose G record is a pure function of the instance.
_IMMUTABLE_SCALARS = (str, int, float, bool, bytes, type(None))


# ---------------------------------------------------------------------- #
# Recursive value codec
# ---------------------------------------------------------------------- #
Encoder = Callable[[Any, bytearray], None]


def _encode_value(value: Any, out: bytearray) -> None:
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _encoder_for_subclass(type(value))
    encoder(value, out)


def _encoder_for_subclass(cls: type) -> Encoder:
    for base in cls.__mro__[1:]:
        encoder = _ENCODERS.get(base)
        if encoder is not None:
            return encoder
    raise SerializationError(f"cannot put object of type {cls.__name__} on the wire")


def _encode_none(value: None, out: bytearray) -> None:
    out += b"N"


def _encode_bool(value: bool, out: bytearray) -> None:
    out += b"T" if value else b"F"


def _encode_int(value: int, out: bytearray) -> None:
    out += b"i"
    out += _encode_varint(~(value << 1) if value < 0 else value << 1)


def _encode_float(value: float, out: bytearray) -> None:
    out += b"f"
    out += _FLOAT.pack(value)


def _encode_text(value: str, out: bytearray) -> None:
    out += b"s"
    out += _encode_str(value)


def _encode_bytes(value: bytes, out: bytearray) -> None:
    out += b"b"
    out += _encode_varint(len(value))
    out += value


def _encode_items(tag: bytes) -> Encoder:
    def encode(value: Any, out: bytearray) -> None:
        out += tag
        out += _encode_varint(len(value))
        for item in value:
            _encode_value(item, out)
    return encode


def _encode_frozenset(value: frozenset, out: bytearray) -> None:
    out += b"z"
    out += _encode_varint(len(value))
    for item in sorted(value):
        _encode_value(item, out)


def _encode_dict(value: dict, out: bytearray) -> None:
    out += b"d"
    out += _encode_varint(len(value))
    for key, item in value.items():
        _encode_value(key, out)
        _encode_value(item, out)


def _encode_dot(value: Dot, out: bytearray) -> None:
    out += b"D"
    out += _encode_str(value.actor)
    out += _encode_varint(value.counter)


def _encode_canonical(value: Any, out: bytearray) -> None:
    # The canonical tags "V", "E", "X" and "H" match the wire tags: embed the
    # cached bytes.
    out += codec.canonical_bytes(value)


def _encode_dvv(value: DottedVersionVector, out: bytearray) -> None:
    # Canonical tag is "D" (the wire reserves "D" for Dot): retag to "W", the
    # body layouts are identical.
    out += b"W"
    out += codec.canonical_bytes(value)[1:]


def _encode_dvvset(value: DVVSet, out: bytearray) -> None:
    # Unlike repro.core.serialization (which stringifies DVVSet values for
    # size accounting), the wire codec recurses into them: in the store the
    # values are Sibling records and must survive round-trip.
    out += b"S"
    out += _encode_varint(len(value.entries))
    for actor, counter, values in value.entries:
        out += _encode_str(actor)
        out += _encode_varint(counter)
        out += _encode_varint(len(values))
        for item in values:
            _encode_value(item, out)
    out += _encode_varint(len(value.anonymous))
    for item in value.anonymous:
        _encode_value(item, out)


def _encode_sibling(value: Sibling, out: bytearray) -> None:
    # Siblings are frozen dataclasses; when the payload value is itself
    # immutable the whole G-record is a pure function of the instance, so
    # memoize it (a sibling is re-sent on every replicate/handoff/repair).
    cached = getattr(value, "_wire_encoded", None)
    if cached is not None:
        out += cached
        return
    record = bytearray(b"G")
    _encode_value(value.value, record)
    record += _encode_str(value.origin_dot.actor)
    record += _encode_varint(value.origin_dot.counter)
    _encode_value(value.history, record)
    _encode_value(value.writer, record)
    record += _encode_varint(value.uid)
    if isinstance(value.value, _IMMUTABLE_SCALARS):
        _set_attr(value, "_wire_encoded", bytes(record))
    out += record


def _encode_context(value: CausalContext, out: bytearray) -> None:
    out += b"C"
    out += _encode_str(value.key)
    _encode_value(value.mechanism_context, out)
    _encode_value(value.observed_history, out)
    out += _encode_str(value.mechanism_name)


#: Encoder per payload type; a subclass uses its nearest registered base.
_ENCODERS: Dict[type, Encoder] = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_text, bytes: _encode_bytes,
    bytearray: _encode_bytes, list: _encode_items(b"l"),
    tuple: _encode_items(b"t"), frozenset: _encode_frozenset,
    dict: _encode_dict, Dot: _encode_dot, VersionVector: _encode_canonical,
    DottedVersionVector: _encode_dvv,
    VersionVectorWithExceptions: _encode_canonical,
    DottedVVE: _encode_canonical, CausalHistory: _encode_canonical,
    DVVSet: _encode_dvvset, Sibling: _encode_sibling,
    CausalContext: _encode_context,
}


Decoder = Callable[[bytes, int], Tuple[Any, int]]


def _unknown_tag(data: bytes, start: int) -> Tuple[Any, int]:
    raise SerializationError(f"unknown wire tag {data[start:start + 1]!r}")


#: Decoder per tag byte; each takes the tag's offset and returns
#: ``(value, end)``.  Unassigned tags raise.
_DECODERS: List[Decoder] = [_unknown_tag] * 256


def _decode_value(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode the value whose tag byte sits at ``offset``."""
    return _DECODERS[data[offset]](data, offset)


def _constant(value: Any) -> Decoder:
    def decode(data: bytes, start: int) -> Tuple[Any, int]:
        return value, start + 1
    return decode


def _decode_int(data: bytes, start: int) -> Tuple[int, int]:
    raw = data[start + 1]
    offset = start + 2
    if raw >= 0x80:
        raw, offset = _varint_tail(data, offset, raw)
    return (raw >> 1) ^ -(raw & 1), offset


def _decode_float(data: bytes, start: int) -> Tuple[float, int]:
    end = start + 1 + _FLOAT.size
    if end > len(data):
        raise SerializationError("truncated float")
    return _FLOAT.unpack_from(data, start + 1)[0], end


def _decode_text(data: bytes, start: int) -> Tuple[str, int]:
    return _decode_str(data, start + 1)


def _decode_bytes(data: bytes, start: int) -> Tuple[bytes, int]:
    length, offset = _decode_varint(data, start + 1)
    end = offset + length
    if end > len(data):
        raise SerializationError("truncated bytes")
    return data[offset:end], end


def _decode_items(data: bytes, offset: int) -> Tuple[List[Any], int]:
    """A count-prefixed run of values starting at ``offset``."""
    count, offset = _decode_varint(data, offset)
    items: List[Any] = []
    append = items.append
    decoders = _DECODERS
    for _ in range(count):
        item, offset = decoders[data[offset]](data, offset)
        append(item)
    return items, offset


def _decode_list(data: bytes, start: int) -> Tuple[List[Any], int]:
    return _decode_items(data, start + 1)


def _decode_tuple(data: bytes, start: int) -> Tuple[tuple, int]:
    items, offset = _decode_items(data, start + 1)
    return tuple(items), offset


def _decode_frozenset(data: bytes, start: int) -> Tuple[frozenset, int]:
    items, offset = _decode_items(data, start + 1)
    try:
        # The encoder writes members sorted, so they must ascend strictly.
        ascending = all(map(operator.lt, items, items[1:]))
        members = frozenset(items)
    except TypeError as exc:
        raise SerializationError(f"unorderable set members: {exc}") from None
    if not ascending:
        raise SerializationError("set members are not strictly ascending")
    return members, offset


def _decode_dict(data: bytes, start: int) -> Tuple[dict, int]:
    count, offset = _decode_varint(data, start + 1)
    entries = {}
    decoders = _DECODERS
    for _ in range(count):
        key, offset = decoders[data[offset]](data, offset)
        item, offset = decoders[data[offset]](data, offset)
        try:
            entries[key] = item
        except TypeError as exc:
            raise SerializationError(f"unhashable dict key: {exc}") from None
    if len(entries) != count:
        raise SerializationError("repeated dict key")
    return entries, offset


def _decode_wire_dot(data: bytes, start: int) -> Tuple[Dot, int]:
    return _decode_dot(data, start + 1)


def _decode_vve(data: bytes, start: int) -> Tuple[VersionVectorWithExceptions, int]:
    base, offset = _decode_vv_entries(data, start + 1)
    count, offset = _decode_varint(data, offset)
    exceptions = []
    previous = None
    for _ in range(count):
        dot, offset = _decode_dot(data, offset)
        if previous is not None and (dot.actor, dot.counter) <= previous:
            raise SerializationError("VVE exceptions are not strictly ascending")
        previous = (dot.actor, dot.counter)
        exceptions.append(dot)
    try:
        return VersionVectorWithExceptions(base, exceptions), offset
    except InvalidClockError as exc:
        raise SerializationError(f"invalid VVE record: {exc}") from None


def _decode_dotted_vve(data: bytes, start: int) -> Tuple[DottedVVE, int]:
    dot, offset = _decode_dot(data, start + 1)
    past, offset = _decode_value(data, offset)
    if type(past) is not VersionVectorWithExceptions:
        raise SerializationError("DottedVVE causal past must be a VVE")
    return DottedVVE(dot, past), offset


def _decode_dvvset(data: bytes, start: int) -> Tuple[DVVSet, int]:
    count, offset = _decode_varint(data, start + 1)
    entries = []
    previous = ""
    for _ in range(count):
        actor, offset = _decode_actor(data, offset)
        counter, offset = _decode_varint(data, offset)
        if actor <= previous:
            raise SerializationError("DVVSet entries are not sorted by actor")
        previous = actor
        values, offset = _decode_items(data, offset)
        entries.append((actor, counter, tuple(values)))
    anonymous, offset = _decode_items(data, offset)
    try:
        return DVVSet(entries, anonymous), offset
    except InvalidClockError as exc:
        raise SerializationError(f"invalid DVVSet record: {exc}") from None


#: Siblings whose G-record bytes are known, keyed by the record's first
#: :data:`_SIBLING_KEY_BYTES` bytes (see the module docstring).
_SIBLINGS: "weakref.WeakValueDictionary[bytes, Sibling]" = weakref.WeakValueDictionary()
_SIBLING_KEY_BYTES = 24


def _decode_sibling(data: bytes, start: int) -> Tuple[Sibling, int]:
    key = data[start:start + _SIBLING_KEY_BYTES]
    known = _SIBLINGS.get(key)
    if known is not None:
        record = known._wire_encoded
        if data.startswith(record, start):
            return known, start + len(record)
    decoders = _DECODERS
    value, offset = decoders[data[start + 1]](data, start + 1)
    origin_dot, offset = _decode_dot(data, offset)
    history, offset = decoders[data[offset]](data, offset)
    writer, offset = decoders[data[offset]](data, offset)
    uid, offset = _decode_varint(data, offset)
    sibling = Sibling(value=value, origin_dot=origin_dot, history=history,
                      writer=writer, uid=uid)
    if (isinstance(value, _IMMUTABLE_SCALARS) and type(history) is CausalHistory
            and (writer is None or type(writer) is str)):
        # Every part of the record was decoded canonically, so it is exactly
        # what _encode_value would emit for this sibling.
        _set_attr(sibling, "_wire_encoded", data[start:offset])
        _SIBLINGS[key] = sibling
    return sibling, offset


def _decode_context(data: bytes, start: int) -> Tuple[CausalContext, int]:
    key, offset = _decode_str(data, start + 1)
    mechanism_context, offset = _decode_value(data, offset)
    observed_history, offset = _decode_value(data, offset)
    mechanism_name, offset = _decode_str(data, offset)
    return CausalContext(
        key=key,
        mechanism_context=mechanism_context,
        observed_history=observed_history,
        mechanism_name=mechanism_name,
    ), offset


for _tag, _decoder in {
    "N": _constant(None), "T": _constant(True), "F": _constant(False),
    "i": _decode_int, "f": _decode_float, "s": _decode_text, "b": _decode_bytes,
    "l": _decode_list, "t": _decode_tuple, "z": _decode_frozenset,
    "d": _decode_dict, "D": _decode_wire_dot, "V": codec.decode_vv,
    "W": codec.decode_dvv, "E": _decode_vve, "X": _decode_dotted_vve,
    "H": codec.decode_history, "S": _decode_dvvset, "G": _decode_sibling,
    "C": _decode_context,
}.items():
    _DECODERS[ord(_tag)] = _decoder
del _tag, _decoder


# ---------------------------------------------------------------------- #
# Message bodies and frames
# ---------------------------------------------------------------------- #
def encode_message(message: Message) -> bytes:
    """Encode a message into one frame body (version byte included)."""
    out = bytearray()
    out.append(WIRE_VERSION)
    out += _encode_str(message.msg_type.value)
    out += _encode_str(message.sender)
    out += _encode_str(message.receiver)
    out += _encode_varint(message.size_bytes)
    out += _encode_varint(message.msg_id)
    out += _encode_varint(1 if message.request_id is not None else 0)
    if message.request_id is not None:
        out += _encode_varint(message.request_id)
    _encode_value(message.payload, out)
    return bytes(out)


_MESSAGE_TYPES = {msg_type.value: msg_type for msg_type in MessageType}


def decode_message(data: bytes) -> Message:
    """Decode one frame body back into a :class:`Message`.

    Raises :class:`SerializationError`, and nothing else, on any body the
    encoder could not have produced.
    """
    if not data:
        raise SerializationError("empty frame")
    data = bytes(data)
    version = data[0]
    if version != WIRE_VERSION:
        raise SerializationError(
            f"unsupported wire version {version} (speak {WIRE_VERSION})"
        )
    try:
        type_value, offset = _decode_str(data, 1)
        sender, offset = _decode_str(data, offset)
        receiver, offset = _decode_str(data, offset)
        size_bytes, offset = _decode_varint(data, offset)
        msg_id, offset = _decode_varint(data, offset)
        has_request_id = data[offset]
        offset += 1
        request_id = None
        if has_request_id:
            if has_request_id != 1:
                raise SerializationError(
                    f"request-id flag {has_request_id} is not 0 or 1")
            request_id, offset = _decode_varint(data, offset)
        payload, offset = _DECODERS[data[offset]](data, offset)
    except codec.MALFORMED as exc:
        raise SerializationError(f"malformed frame: {exc}") from None
    except RecursionError:
        raise SerializationError("frame nests values too deeply") from None
    msg_type = _MESSAGE_TYPES.get(type_value)
    if msg_type is None:
        raise SerializationError(f"unknown message type {type_value!r}")
    if offset != len(data):
        raise SerializationError(
            f"trailing bytes after decoding message ({len(data) - offset} left)"
        )
    return Message(
        sender=sender,
        receiver=receiver,
        msg_type=msg_type,
        payload=payload,
        size_bytes=size_bytes,
        request_id=request_id,
        msg_id=msg_id,
    )


def frame_message(message: Message) -> bytes:
    """One wire frame: 4-byte big-endian length prefix plus the body."""
    body = encode_message(message)
    if len(body) > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LENGTH.pack(len(body)) + body


def unframe(buffer: bytes) -> Tuple[Any, bytes]:
    """Split one complete frame off ``buffer``.

    Returns ``(message, rest)`` — or ``(None, buffer)`` when the buffer does
    not yet hold a complete frame (the caller keeps reading).
    """
    if len(buffer) < _LENGTH.size:
        return None, buffer
    (length,) = _LENGTH.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
        )
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None, buffer
    return decode_message(buffer[_LENGTH.size:end]), buffer[end:]


async def read_message(reader) -> Message:
    """Read exactly one framed message from an asyncio stream reader.

    Raises ``asyncio.IncompleteReadError`` on a cleanly closed connection
    (empty partial read) and :class:`SerializationError` on corruption.
    """
    header = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise SerializationError(
            f"frame length {length} exceeds MAX_FRAME_BYTES (corrupt stream?)"
        )
    body = await reader.readexactly(length)
    return decode_message(body)
