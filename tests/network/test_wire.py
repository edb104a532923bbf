"""Round-trip tests for the asyncio backend's wire format.

Every payload the protocol puts in a message must survive
``decode(encode(m)) == m`` — mechanism states (tuples of clock/sibling pairs
for dvv and causal_history, a DVVSet for dvvset), causal contexts, digest
bytes, and the plain-data scaffolding around them.  The codec is also strict:
unsupported payload types fail at encode time, corrupt frames at decode time.

The fuzz half mutates frames of every mechanism's states, siblings and
contexts: decoding raises nothing but ``SerializationError``, a frame that
decodes re-encodes to the same bytes, and every encoding a decoded value
adopted from its frame equals a cold recompute.  The sibling memo is checked
for hits, byte-verified misses and weak entries.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clocks import available, create
from repro.clocks.interface import Sibling, merge_histories
from repro.clocks.vve import DottedVVE
from repro.core import codec
from repro.core.causal_history import CausalHistory
from repro.core.dot import Dot
from repro.core.dvv import DottedVersionVector
from repro.core.dvvset import DVVSet
from repro.core.exceptions import SerializationError
from repro.core.version_vector import VersionVector
from repro.kvstore.client import ClientSession
from repro.kvstore.context import CausalContext
from repro.network import wire
from repro.network.message import Message, MessageType
from repro.network.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    decode_message,
    encode_message,
    frame_message,
    unframe,
)


def roundtrip(payload, msg_type=MessageType.REPLICA_PUT, request_id=7) -> Message:
    message = Message(
        sender="A",
        receiver="B",
        msg_type=msg_type,
        payload=payload,
        size_bytes=123,
        request_id=request_id,
    )
    decoded = decode_message(encode_message(message))
    assert decoded.sender == message.sender
    assert decoded.receiver == message.receiver
    assert decoded.msg_type is message.msg_type
    assert decoded.size_bytes == message.size_bytes
    assert decoded.msg_id == message.msg_id
    assert decoded.request_id == message.request_id
    return decoded


def test_plain_values_roundtrip():
    payload = {
        "none": None,
        "flags": [True, False],
        "ints": [0, 1, -1, 2**40, -(2**40)],
        "floats": [0.0, -2.5, 1e300],
        "text": "héllo wörld",
        "blob": b"\x00\xff digest bytes",
        "tuple": (1, ("nested", 2)),
        "set": frozenset({"x", "y"}),
        "nested": {"a": [{"b": (1, 2)}]},
    }
    decoded = roundtrip(payload)
    assert decoded.payload == payload
    # tuple and list are distinct tags — shapes must not drift
    assert isinstance(decoded.payload["tuple"], tuple)
    assert isinstance(decoded.payload["tuple"][1], tuple)
    assert isinstance(decoded.payload["flags"], list)
    assert isinstance(decoded.payload["set"], frozenset)
    assert isinstance(decoded.payload["blob"], bytes)


def test_clock_types_roundtrip():
    vv = VersionVector({"A": 3, "B": 1})
    dvv = DottedVersionVector(Dot("A", 4), vv)
    history = CausalHistory.from_events([Dot("A", 1), Dot("B", 2)], Dot("B", 2))
    payload = {"dot": Dot("C", 9), "vv": vv, "dvv": dvv, "history": history}
    decoded = roundtrip(payload)
    assert decoded.payload == payload


@pytest.mark.parametrize("mechanism_name", sorted(available()))
def test_mechanism_states_roundtrip(mechanism_name):
    """Real states produced by each registered mechanism survive the wire."""
    mechanism = create(mechanism_name)
    session = ClientSession("c1")
    state = mechanism.empty_state()
    for value in ("v1", "v2"):
        sibling = session.prepare_write("cart", value, None)
        state = mechanism.write(state, mechanism.empty_context(), sibling,
                                "A", "c1")
    read = mechanism.read(state)
    context = CausalContext(key="cart", mechanism_context=read.context,
                            observed_history=None,
                            mechanism_name=mechanism_name)

    decoded = roundtrip({"key": "cart", "state": state, "context": context})

    assert decoded.payload["state"] == state
    assert type(decoded.payload["state"]) is type(state)
    assert decoded.payload["context"] == context
    # the decoded state must be fully usable by the mechanism
    reread = mechanism.read(decoded.payload["state"])
    assert sorted(s.value for s in reread.siblings) == \
        sorted(s.value for s in read.siblings)


def test_sibling_keeps_uid_and_writer():
    sibling = ClientSession("c9").prepare_write("k", "value", None)
    decoded = roundtrip({"sibling": sibling})
    wired = decoded.payload["sibling"]
    assert wired == sibling
    assert wired.uid == sibling.uid
    assert wired.writer == sibling.writer
    assert wired.origin_dot == sibling.origin_dot


def test_request_id_absence_roundtrips():
    decoded = roundtrip({"key": "k"}, request_id=None)
    assert decoded.request_id is None


def test_unsupported_payload_type_raises_at_encode_time():
    class Opaque:
        pass

    message = Message(sender="A", receiver="B",
                      msg_type=MessageType.REPLICA_PUT,
                      payload={"oops": Opaque()}, size_bytes=0)
    with pytest.raises(SerializationError):
        encode_message(message)


def test_decode_rejects_wrong_version_and_truncation():
    message = Message(sender="A", receiver="B",
                      msg_type=MessageType.PING, payload={}, size_bytes=0)
    body = encode_message(message)
    with pytest.raises(SerializationError):
        decode_message(bytes([WIRE_VERSION + 1]) + body[1:])
    with pytest.raises(SerializationError):
        decode_message(body[:-1])
    with pytest.raises(SerializationError):
        decode_message(body + b"x")
    with pytest.raises(SerializationError):
        decode_message(b"")


def test_unframe_handles_partial_and_concatenated_frames():
    first = Message(sender="A", receiver="B", msg_type=MessageType.PING,
                    payload={"n": 1}, size_bytes=0)
    second = Message(sender="B", receiver="A", msg_type=MessageType.PING,
                     payload={"n": 2}, size_bytes=0)
    stream = frame_message(first) + frame_message(second)

    # byte-by-byte: no message until a frame is complete, then exactly one
    buffer = b""
    decoded = []
    for index in range(len(stream)):
        buffer += stream[index:index + 1]
        while True:
            message, buffer = unframe(buffer)
            if message is None:
                break
            decoded.append(message)
    assert [m.payload["n"] for m in decoded] == [1, 2]
    assert buffer == b""


def test_unframe_rejects_absurd_length_prefix():
    with pytest.raises(SerializationError):
        unframe((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xxxx")


def test_large_negative_ints_roundtrip():
    values = [-(2**63), -(2**63) - 1, -(2**70), 2**70]
    assert roundtrip({"ints": values}).payload["ints"] == values


# --------------------------------------------------------------------------- #
# Canonical-only decoding
# --------------------------------------------------------------------------- #
def frame_with(value_bytes: bytes) -> bytes:
    """A message body whose payload is the raw value encoding given."""
    body = encode_message(Message(sender="A", receiver="B",
                                  msg_type=MessageType.PING, payload=None,
                                  size_bytes=0, request_id=None))
    assert body.endswith(b"N")
    return body[:-1] + value_bytes


@pytest.mark.parametrize("value_bytes", [
    b"i\x82\x00",                        # non-minimal varint
    b"V\x02\x01B\x01\x01A\x01",           # VV entries out of order
    b"V\x02\x01A\x01\x01A\x02",           # repeated VV actor
    b"V\x01\x01A\x00",                   # zero VV entry
    b"V\x01\x00\x01",                    # empty actor id
    b"W\x01A\x01\x01\x01A\x01",           # DVV dot inside its own past
    b"H\x00\x02\x01A\x02\x01A\x01",        # history dots descending
    b"H\x00\x02\x01A\x01\x01A\x01",        # repeated history dot
    b"H\x01\x01B\x01\x01\x01A\x01",        # event missing from the dots
    b"H\x02\x01A\x01\x01\x01A\x01",        # event flag other than 0 or 1
    b"D\x01A\x00",                       # zero dot counter
    b"z\x02s\x01ys\x01x",                 # set members out of order
    b"d\x02s\x01kNs\x01kN",               # repeated dict key
    b"d\x01l\x00N",                      # unhashable dict key
    b"s\x01\xff",                        # invalid UTF-8
    b"Q",                                # unknown tag
    b"l" + b"\x01l" * 5000 + b"\x00",      # nesting beyond the recursion limit
], ids=["non_minimal_varint", "vv_unsorted", "vv_repeated", "vv_zero",
        "empty_actor", "dvv_dot_in_past", "history_descending",
        "history_repeated", "history_event_missing", "history_event_flag",
        "dot_zero_counter", "set_unsorted", "dict_repeated_key",
        "dict_unhashable_key", "bad_utf8", "unknown_tag", "too_deep"])
def test_non_canonical_frames_are_rejected(value_bytes):
    with pytest.raises(SerializationError):
        decode_message(frame_with(value_bytes))


def test_decoded_clocks_adopt_their_frame_bytes():
    vv = VersionVector({"A": 3, "B": 1})
    dvv = DottedVersionVector(Dot("A", 4), vv)
    history = CausalHistory.from_events([Dot("A", 1), Dot("B", 2)], Dot("B", 2))
    body = encode_message(Message(sender="A", receiver="B",
                                  msg_type=MessageType.PING,
                                  payload=[vv, dvv, history], size_bytes=0))
    decoded = decode_message(body).payload
    assert [clock._encoded for clock in decoded] == [
        codec.canonical_bytes(clock) for clock in (vv, dvv, history)]
    assert decoded[1]._encoded.startswith(b"D")
    # The adopted bytes are slices of the frame, not fresh encodings.
    codec.reset_codec_stats()
    assert encode_message(decode_message(body)) == body
    assert codec.codec_stats()["encode_misses"] == 0


# --------------------------------------------------------------------------- #
# The sibling memo
# --------------------------------------------------------------------------- #
def sibling_frame(sibling: Sibling) -> bytes:
    return encode_message(Message(sender="A", receiver="B",
                                  msg_type=MessageType.REPLICA_PUT,
                                  payload={"sibling": sibling}, size_bytes=0))


def test_memo_hands_back_one_shared_sibling():
    sibling = ClientSession("c1").prepare_write("k", "value", None)
    frame = sibling_frame(sibling)
    first = decode_message(frame).payload["sibling"]
    second = decode_message(frame).payload["sibling"]
    assert first is second
    assert first == sibling and first is not sibling
    assert first._wire_encoded in frame


def test_memo_key_collision_decodes_the_frames_own_sibling():
    history = CausalHistory(Dot("c1", 1))
    long_prefix = "x" * 40
    known = Sibling(value=long_prefix + "1", origin_dot=Dot("c1", 1),
                    history=history, writer="c1", uid=5)
    other = Sibling(value=long_prefix + "2", origin_dot=Dot("c1", 1),
                    history=history, writer="c1", uid=5)
    known_frame, other_frame = sibling_frame(known), sibling_frame(other)
    start = known_frame.index(b"G")
    assert known_frame[start:start + 24] == other_frame[start:start + 24]
    assert known_frame != other_frame

    memoized = decode_message(known_frame).payload["sibling"]
    decoded = decode_message(other_frame).payload["sibling"]
    assert decoded == other and decoded is not memoized
    assert decoded.value == long_prefix + "2"
    # A copy of the memoized record with its writer altered is a miss too.
    corrupt = known_frame[:-2] + bytes([known_frame[-2] ^ 1]) + known_frame[-1:]
    recovered = decode_message(corrupt).payload["sibling"]
    assert recovered is not memoized and recovered.writer == "c0"


def test_mutable_valued_siblings_are_not_memoized():
    sibling = ClientSession("c1").prepare_write("k", ["a", "list"], None)
    frame = sibling_frame(sibling)
    first = decode_message(frame).payload["sibling"]
    second = decode_message(frame).payload["sibling"]
    assert first == second == sibling and first is not second
    assert not hasattr(first, "_wire_encoded")


def test_memo_entries_are_weak():
    sibling = ClientSession("c1").prepare_write("k", "weakly held", None)
    frame = sibling_frame(sibling)
    decoded = decode_message(frame).payload["sibling"]
    key = decoded._wire_encoded[:24]
    assert wire._SIBLINGS.get(key) is decoded
    del decoded
    gc.collect()
    assert wire._SIBLINGS.get(key) is None


# --------------------------------------------------------------------------- #
# Fuzz: frames of every mechanism's states, siblings and contexts
# --------------------------------------------------------------------------- #
SERVERS = ("A", "B", "C")
CLIENTS = ("c1", "c2")
VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.binary(max_size=6), st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def protocol_frames(draw) -> bytes:
    """An encoded message carrying one mechanism's replica states, the
    siblings written into them and the contexts the writers read."""
    name = draw(st.sampled_from(sorted(available())))
    mechanism = create(name)
    replicas = {server: mechanism.empty_state() for server in SERVERS}
    sessions = {client: ClientSession(client) for client in CLIENTS}
    siblings, contexts = [], []
    steps = st.tuples(st.sampled_from(SERVERS), st.sampled_from(CLIENTS),
                      st.booleans(), VALUES, st.sampled_from(SERVERS + (None,)))
    for server, client, read_first, value, sync_with in draw(
            st.lists(steps, min_size=1, max_size=5)):
        context = None
        if read_first:
            read = mechanism.read(replicas[server])
            context = CausalContext(key="k", mechanism_context=read.context,
                                    observed_history=merge_histories(read.siblings),
                                    mechanism_name=name)
            contexts.append(context)
        sibling = sessions[client].prepare_write("k", value, context)
        siblings.append(sibling)
        replicas[server] = mechanism.write(
            replicas[server],
            context.mechanism_context if context else mechanism.empty_context(),
            sibling, server, client)
        if sync_with is not None:
            merged = mechanism.merge(replicas[server], replicas[sync_with])
            replicas[server] = replicas[sync_with] = merged
    payload = {"key": "k", "states": replicas, "siblings": siblings,
               "contexts": contexts, "digests": [(s.origin_dot, b"\x00")
                                                 for s in siblings]}
    return encode_message(Message(
        sender="A", receiver="B",
        msg_type=draw(st.sampled_from(list(MessageType))), payload=payload,
        size_bytes=draw(st.integers(0, 2**40)),
        request_id=draw(st.none() | st.integers(0, 2**40))))


MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0)),
    st.tuples(st.just("insert"), st.integers(0), st.binary(min_size=1, max_size=3)),
), min_size=1, max_size=3)


def mutate(frame: bytes, mutations) -> bytes:
    data = bytearray(frame)
    for mutation in mutations:
        position = mutation[1] % (len(data) + 1)
        if mutation[0] == "flip" and position < len(data):
            data[position] ^= mutation[2]
        elif mutation[0] == "truncate":
            del data[position:]
        elif mutation[0] == "insert":
            data[position:position] = mutation[2]
    return bytes(data)


def walk(value, seen):
    """Every value reachable from a decoded payload, each once."""
    if id(value) in seen:
        return
    seen[id(value)] = value
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, frozenset)):
        children = list(value)
    elif isinstance(value, DVVSet):
        children = [item for _, _, values in value.entries for item in values]
        children += list(value.anonymous)
    elif isinstance(value, Sibling):
        children = [value.value, value.origin_dot, value.history, value.writer]
    elif isinstance(value, CausalContext):
        children = [value.mechanism_context, value.observed_history]
    elif isinstance(value, DottedVersionVector):
        children = [value.causal_past]
    elif isinstance(value, DottedVVE):
        children = [value.causal_past]
    else:
        children = []
    for child in children:
        walk(child, seen)


def cold_sibling_record(sibling: Sibling) -> bytes:
    """The sibling's G record, encoded with every memo dropped."""
    history = sibling.history
    if isinstance(history, CausalHistory):
        history = CausalHistory(history.event, history.past)
    fresh = Sibling(value=sibling.value, origin_dot=sibling.origin_dot,
                    history=history, writer=sibling.writer, uid=sibling.uid)
    out = bytearray()
    wire._encode_value(fresh, out)
    return bytes(out)


def assert_adopted_memos_are_cold_encodings(payload) -> None:
    seen = {}
    walk(payload, seen)
    for value in seen.values():
        if type(value) in codec._ENCODERS and value._encoded is not None:
            assert value._encoded == codec._ENCODERS[type(value)](value)
        if isinstance(value, Sibling) and hasattr(value, "_wire_encoded"):
            assert value._wire_encoded == cold_sibling_record(value)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frame=protocol_frames())
def test_encoder_frames_roundtrip_to_equal_bytes(frame):
    message = decode_message(frame)
    assert encode_message(message) == frame
    assert_adopted_memos_are_cold_encodings(message.payload)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frame=protocol_frames(), mutations=MUTATIONS)
def test_mutated_frames_fail_only_with_serialization_error(frame, mutations):
    data = mutate(frame, mutations)
    try:
        message = decode_message(data)
    except SerializationError:
        return
    assert encode_message(message) == data
    assert_adopted_memos_are_cold_encodings(message.payload)
