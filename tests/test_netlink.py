"""Tests for the wire protocol and the networked plant/controller/proxy trio."""

from __future__ import annotations

import copy
import gc
import json
import math
import socket
import struct
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import JSON_SCALARS, JSONISH
from fdia_lab.adversary import STUDY_NOISE_STD, fit_signature, spiral_samples, spoof
from fdia_lab.cli import main
from fdia_lab.fdia import build_reflection
from fdia_lab.kinematics import Posture
from fdia_lab.netlink import (
    CTRL_VIEW_COLUMNS,
    MAX_FRAME,
    PLANT_VIEW_COLUMNS,
    FrameLengthError,
    NetlinkError,
    ProtocolError,
    TruncatedFrameError,
    UnknownKindError,
    WireFormatError,
    WireMessage,
    _config_digest,
    _controller_session,
    _plant_session,
    _pump,
    decode,
    encode,
    merge_views,
    recv_message,
    run_controller,
    send_message,
    serve_plant,
    serve_proxy,
)
from fdia_lab.scenarios import load_scenario
from fdia_lab.simloop import RunDiverged, SimConfig, SimTrace, run, write_trace_csv
from fdia_lab.smsf import PolySignature, default_signature, monitor
from fdia_lab.tracking import ControllerGains

TIMEOUT = 15.0
# the protocol's message kinds, in the order the draws below index them, and
# their payload arities
_ARITY = {"Obs": 3, "Cmd": 2, "Sig": 1, "Hello": 2, "Bye": 1}
_KINDS = tuple(_ARITY)


# ---------------------------------------------------------------------------
# framing


def test_round_trip_every_kind():
    msgs = [
        WireMessage("Obs", 0, 0.25, (0.1, -0.2, 1.5)),
        WireMessage("Cmd", 1, 0.25, (0.02, -0.3)),
        WireMessage("Sig", 2, 0.5, (2419.0,)),
        WireMessage("Hello", 0, 0.0, ("controller", "0123456789abcdef")),
        WireMessage("Bye", 7, 30.0, ("complete",)),
    ]
    for msg in msgs:
        back = decode(encode(msg))
        assert back == msg


def test_floats_survive_the_wire_exactly():
    values = (0.1 + 0.2, 1e-308, 1e308, -7.123456789012345e-5, math.pi)
    for v in values:
        back = decode(encode(WireMessage("Sig", 0, v, (v,))))
        assert back.t == v and back.payload[0] == v
    # %.17g prints -0.0 as "-0", which JSON reads back as the integer zero:
    # the value survives, the sign bit of zero does not.
    assert decode(encode(WireMessage("Sig", 0, 0.0, (-0.0,)))).payload[0] == 0.0


def test_decode_coerces_integer_literals_to_float():
    frame = encode(WireMessage("Obs", 3, 1.0, (1.0, 2.0, 3.0)))
    back = decode(frame)
    assert all(isinstance(v, float) for v in back.payload)
    # t too, of every kind: %.17g writes 0.0 as the int token 0
    assert type(decode(encode(WireMessage("Obs", 0, 0.0, (1.0, 2.0, 3.0)))).t) is float
    assert type(decode(encode(WireMessage("Bye", 0, 30.0, ("complete",)))).t) is float
    back = decode(_frame(b'{"kind":"Sig","seq":0,"t":9007199254740992,'
                         b'"payload":[-9007199254740992]}'))
    assert (back.t, back.payload) == (2.0**53, (-(2.0**53),))


def test_encode_rejects_malformed_messages():
    with pytest.raises(UnknownKindError):
        encode(WireMessage("Ping", 0, 0.0, ()))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Obs", -1, 0.0, (1.0, 2.0, 3.0)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Obs", True, 0.0, (1.0, 2.0, 3.0)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Obs", 0, float("nan"), (1.0, 2.0, 3.0)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Obs", 0, 0.0, (1.0, 2.0)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Cmd", 0, 0.0, (1.0, float("inf"))))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Sig", 0, 0.0, (True,)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Hello", 0, 0.0, ("only-one",)))
    with pytest.raises(WireFormatError):
        encode(WireMessage("Bye", 0, 0.0, (42,)))
    # ints past float64's range, or that float64 cannot hold exactly
    for big in (10**400, -(10**400), 2**53 + 1, 10**5000):
        with pytest.raises(WireFormatError):
            encode(WireMessage("Sig", 0, big, (1.0,)))
        with pytest.raises(WireFormatError):
            encode(WireMessage("Sig", 0, 0.0, (big,)))
    # seq is a 64-bit counter; a longer one is refused both ways
    top = WireMessage("Sig", 2**64 - 1, 0.0, (1.0,))
    assert decode(encode(top)) == top
    for seq in (2**64, 10**5000):
        with pytest.raises(WireFormatError):
            encode(WireMessage("Sig", seq, 0.0, (1.0,)))
    with pytest.raises(WireFormatError):
        decode(_frame(b'{"kind":"Sig","seq":%d,"t":0,"payload":[1.0]}' % 2**64))


def test_decode_error_taxonomy():
    good = encode(WireMessage("Sig", 0, 0.0, (1.0,)))
    with pytest.raises(TruncatedFrameError):
        decode(good[:3])
    with pytest.raises(TruncatedFrameError):
        decode(good[:-1])
    with pytest.raises(WireFormatError):
        decode(good + b"x")
    with pytest.raises(FrameLengthError):
        decode(struct.pack(">I", MAX_FRAME + 1))
    body = b"{not json"
    with pytest.raises(WireFormatError):
        decode(struct.pack(">I", len(body)) + body)
    for payload in (
        b'{"kind":"Obs","seq":0,"payload":[1,2,3]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":[1,2,3],"extra":1}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":[1,2]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":["a","b","c"]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":"abc"}',
        b'{"kind":"Hello","seq":0,"t":0,"payload":[1,2]}',
        b'{"kind":"Obs","seq":0,"t":"0","payload":[1,2,3]}',
    ):
        with pytest.raises(WireFormatError):
            decode(struct.pack(">I", len(payload)) + payload)
    bad_kind = b'{"kind":"Ping","seq":0,"t":0,"payload":[]}'
    with pytest.raises(UnknownKindError):
        decode(struct.pack(">I", len(bad_kind)) + bad_kind)
    assert issubclass(UnknownKindError, WireFormatError)
    assert issubclass(FrameLengthError, NetlinkError)


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def _decodes_or_netlink_error(frame: bytes) -> None:
    try:
        msg = decode(frame)
    except NetlinkError:
        return
    assert isinstance(msg, WireMessage)


def test_decode_rejects_oversized_numbers_and_deep_nesting():
    huge = b"9" * 400
    for body in (
        b'{"kind":"Obs","seq":0,"t":' + huge + b',"payload":[1,2,3]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":[' + huge + b',2,3]}',
        b'{"kind":"Sig","seq":0,"t":0,"payload":[-' + huge + b']}',
        b'{"kind":"Obs","seq":' + b"9" * 5000 + b',"t":0,"payload":[1,2,3]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        # 2**53 + 1 would read back as 2**53, so it is refused, as encode refuses it
        b'{"kind":"Sig","seq":0,"t":9007199254740993,"payload":[1]}',
        b'{"kind":"Sig","seq":0,"t":0,"payload":[9007199254740993]}',
        b'{"kind":"Obs","seq":0,"t":0,"payload":[1,-9007199254740993,3]}',
        b'{"kind":"Bye","seq":0,"t":9007199254740993,"payload":["x"]}',
    ):
        with pytest.raises(WireFormatError):
            decode(_frame(body))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_any_bytes_decode_or_raise_netlink_errors(data):
    _decodes_or_netlink_error(data)
    _decodes_or_netlink_error(_frame(data))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    JSONISH,
    st.fixed_dictionaries({
        "kind": st.sampled_from(_KINDS) | JSONISH,
        "seq": st.integers(min_value=-2, max_value=10**400) | JSONISH,
        "t": JSON_SCALARS,
        "payload": st.lists(JSON_SCALARS, max_size=4) | JSONISH,
    }),
))
def test_jsonish_bodies_decode_or_raise_netlink_errors(obj):
    _decodes_or_netlink_error(_frame(json.dumps(obj).encode("utf-8")))


_WIRE_NUMBERS = st.floats() | st.integers(min_value=-(10**400), max_value=10**400)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=-2, max_value=10**5000), _WIRE_NUMBERS,
       st.lists(_WIRE_NUMBERS | st.text(max_size=8), max_size=4))
def test_messages_encode_exactly_or_raise_netlink_errors(kind, seq, t, payload):
    msg = WireMessage(kind, seq, t, payload)
    try:
        frame = encode(msg)
    except NetlinkError:
        return
    assert decode(frame) == msg


def test_random_messages_round_trip():
    rng = np.random.default_rng(42)
    kinds = list(_KINDS)
    arity = {"Obs": 3, "Cmd": 2, "Sig": 1, "Hello": 2, "Bye": 1}
    for _ in range(500):
        kind = kinds[rng.integers(len(kinds))]
        seq = int(rng.integers(0, 1 << 31))
        t = float(rng.standard_normal() * 10.0 ** rng.integers(-12, 13))
        if kind in ("Hello", "Bye"):
            payload = tuple(
                "".join(chr(c) for c in rng.integers(32, 127, size=rng.integers(0, 24)))
                for _ in range(arity[kind])
            )
        else:
            payload = tuple(
                float(rng.standard_normal() * 10.0 ** rng.integers(-12, 13))
                for _ in range(arity[kind])
            )
        msg = WireMessage(kind, seq, t, payload)
        assert decode(encode(msg)) == msg


# Frames recorded from the per-value encoder (one format(float(v), ".17g") per
# number), which the one-template encoder replaced: the wire bytes must not move.
_GOLDEN_FRAMES = [
    (WireMessage("Obs", 0, 0.0, (0.1, -0.2, 1.5)),
     b'\x00\x00\x00U{"kind":"Obs","seq":0,"t":0,'
     b'"payload":[0.10000000000000001,-0.20000000000000001,1.5]}'),
    (WireMessage("Obs", 7, 3, (-0.0, 5e-324, 1.7976931348623157e308)),
     b'\x00\x00\x00[{"kind":"Obs","seq":7,"t":3,'
     b'"payload":[-0,4.9406564584124654e-324,1.7976931348623157e+308]}'),
    (WireMessage("Cmd", 2**64 - 1, 0.30000000000000004, (2, -1e-300)),
     b'\x00\x00\x00W{"kind":"Cmd","seq":18446744073709551615,"t":0.30000000000000004,'
     b'"payload":[2,-1e-300]}'),
    (WireMessage("Sig", 12, 29.99, (2419.0,)),
     b'\x00\x00\x00?{"kind":"Sig","seq":12,"t":29.989999999999998,"payload":[2419]}'),
    (WireMessage("Hello", 0, 0.0, ("controller", "0123456789abcdef")),
     b'\x00\x00\x00J{"kind":"Hello","seq":0,"t":0,'
     b'"payload":["controller","0123456789abcdef"]}'),
    (WireMessage("Bye", 3001, 30, ('say "bye"\né',)),
     b'\x00\x00\x00B{"kind":"Bye","seq":3001,"t":30,"payload":["say \\"bye\\"\\n\\u00e9"]}'),
]


@pytest.mark.parametrize("msg, frame", _GOLDEN_FRAMES, ids=lambda v: getattr(v, "kind", None))
def test_wire_bytes_are_the_recorded_ones(msg, frame):
    assert encode(msg) == frame
    back = decode(frame)
    assert back.payload == tuple(float(v) if msg.kind in ("Obs", "Cmd", "Sig") else v
                                 for v in msg.payload)


def _per_value_body(msg: WireMessage) -> bytes:
    """The frame body as the per-value encoder wrote it."""
    if msg.kind in ("Obs", "Cmd", "Sig"):
        items = ",".join(format(float(v), ".17g") for v in msg.payload)
    else:
        items = ",".join(json.dumps(v) for v in msg.payload)
    return ('{"kind":"%s","seq":%d,"t":%s,"payload":[%s]}' % (
        msg.kind, msg.seq, format(float(msg.t), ".17g"), items)).encode("utf-8")


# numbers float64 holds exactly: finite floats, ints up to 2**53, powers of two
_EXACT_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.integers(min_value=-(2**53), max_value=2**53)
                  | st.integers(min_value=0, max_value=1023).map(lambda k: 2**k))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**64 - 1),
       _EXACT_NUMBERS, st.data())
def test_template_body_equals_the_per_value_body(kind, seq, t, data):
    items = _EXACT_NUMBERS if kind in ("Obs", "Cmd", "Sig") else st.text(max_size=8)
    payload = data.draw(st.lists(items, min_size=_ARITY[kind], max_size=_ARITY[kind]))
    msg = WireMessage(kind, seq, t, payload)
    frame = encode(msg)
    assert frame[4:] == _per_value_body(msg)
    assert frame[:4] == struct.pack(">I", len(frame) - 4)


def _decode_through_json_loads(frame: bytes) -> WireMessage:
    """decode of a frame with a valid prefix, written apart from the codec:
    json.loads, then each field checked here. A number must be a finite float
    or an int that float64 holds exactly, which becomes that float."""

    def number(v):
        if type(v) is float and math.isfinite(v):
            return v
        if type(v) is int and abs(v) < 2**1024 and float(v) == v:
            return float(v)
        raise WireFormatError(f"not exactly a finite float64: {type(v).__name__}")

    try:
        obj = json.loads(frame[4:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireFormatError(f"invalid frame body: {exc}") from exc
    if type(obj) is not dict or sorted(obj) != ["kind", "payload", "seq", "t"]:
        raise WireFormatError("frame body must carry exactly kind/seq/t/payload")
    kind, seq, payload = obj["kind"], obj["seq"], obj["payload"]
    if type(kind) is not str or kind not in _ARITY:
        raise UnknownKindError(f"unknown message kind {kind!r}")
    if type(seq) is not int or not 0 <= seq < 2**64:
        raise WireFormatError("seq out of range")
    if type(payload) is not list or len(payload) != _ARITY[kind]:
        raise WireFormatError("payload of the wrong shape")
    if kind in ("Obs", "Cmd", "Sig"):
        payload = [number(v) for v in payload]
    elif not all(type(v) is str for v in payload):
        raise WireFormatError("a string payload holds a non-string")
    return WireMessage(kind, seq, number(obj["t"]), tuple(payload))


def _outcome(fn, frame: bytes):
    """repr of fn(frame), which shows the types of t and of every payload item,
    or the class of what it raised."""
    try:
        return repr(fn(frame))
    except Exception as exc:  # compared below, class against class
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=2**64 - 1),
       _EXACT_NUMBERS, st.data())
def test_decode_equals_json_loads_on_canonical_frames(kind, seq, t, data):
    items = _EXACT_NUMBERS if kind in ("Obs", "Cmd", "Sig") else st.text(max_size=8)
    payload = data.draw(st.lists(items, min_size=_ARITY[kind], max_size=_ARITY[kind]))
    frame = encode(WireMessage(kind, seq, t, payload))
    expected = _decode_through_json_loads(frame)
    assert decode(frame) == expected
    assert _outcome(decode, frame) == repr(expected)


_WS = st.sampled_from(["", "", "", "", "", "", " ", "\n", "\t", " \r\n"])
# number tokens as a peer might write them: int literals, -0, exponents, the
# NaN/Infinity tokens json accepts, values past float64 and past a 64-bit seq
_NUMBER_TOKENS = (
    st.sampled_from(["0", "-0", "-0.0", "3", "1e3", "1E-2", "-2.5e+1", "0e0", "1e400", "-1e400",
                     "NaN", "Infinity", "-Infinity", "9007199254740993",
                     "18446744073709551615", "18446744073709551616"])
    | st.integers(min_value=-(10**20), max_value=10**20).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g"))
    | st.builds("{}e{}".format, st.integers(-999, 999), st.integers(-400, 400))
)
_OTHER_TOKENS = st.sampled_from(['"Obs"', '"Sig"', '"Bye"', '"Ping"', '"x"', "true", "null",
                                 "[]", "{}", '"\\u00e9"'])


@st.composite
def _perturbed_bodies(draw):
    """Message bodies with whitespace, reordered, duplicate or extra keys, odd
    number tokens and trailing data."""
    kind = draw(st.sampled_from(_KINDS))
    item = _NUMBER_TOKENS if kind in ("Obs", "Cmd", "Sig") else st.text(max_size=6).map(json.dumps)
    odd = st.integers(0, 7).map(lambda k: k == 7)  # one draw in eight goes astray
    n = _ARITY[kind] + (draw(st.sampled_from([-1, 1])) if draw(odd) else 0)
    items = [draw(_WS) + draw(_OTHER_TOKENS if draw(odd) else item) + draw(_WS)
             for _ in range(max(n, 0))]
    seq = _NUMBER_TOKENS if draw(odd) else st.integers(min_value=0, max_value=2**64 - 1).map(str)
    entries = [("kind", json.dumps(kind)), ("seq", draw(seq)),
               ("t", draw(_NUMBER_TOKENS)), ("payload", "[" + ",".join(items) + "]")]
    entries = draw(st.permutations(entries))
    if draw(odd):  # a duplicate key: json keeps the last value
        key, _ = draw(st.sampled_from(entries))
        value = draw(_NUMBER_TOKENS | _OTHER_TOKENS)
        entries.insert(draw(st.integers(0, len(entries))), (key, value))
    if draw(odd):
        entries.append(("extra", draw(_NUMBER_TOKENS)))
    body = "{" + ",".join(draw(_WS) + json.dumps(k) + draw(_WS) + ":" + draw(_WS) + v
                          for k, v in entries) + "}"
    trailing = draw(st.sampled_from(["x", "{}", "1", " }"]) if draw(odd) else _WS)
    return (draw(_WS) + body + trailing).encode("utf-8")


@settings(max_examples=1000, deadline=None)
@given(_perturbed_bodies())
def test_decode_equals_json_loads_on_perturbed_bodies(body):
    frame = _frame(body)
    assert _outcome(decode, frame) == _outcome(_decode_through_json_loads, frame)


# ---------------------------------------------------------------------------
# buffered framing


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    yield a, b
    a.close()
    b.close()


class _Wire:
    """A socket stand-in: recv serves scripted chunks, sendall and shutdown are recorded."""

    def __init__(self, chunks=()):
        self.chunks = list(chunks)
        self.reads = 0
        self.writes = []
        self.shut = False

    def recv(self, _n):
        self.reads += 1
        return self.chunks.pop(0) if self.chunks else b""

    def sendall(self, data):
        self.writes.append(bytes(data))

    def shutdown(self, _how):
        self.shut = True


@st.composite
def _canonical_frames(draw):
    """Frames as encode writes them, of every kind, over exactly held numbers."""
    kind = draw(st.sampled_from(_KINDS))
    items = _EXACT_NUMBERS if kind in ("Obs", "Cmd", "Sig") else st.text(max_size=8)
    payload = draw(st.lists(items, min_size=_ARITY[kind], max_size=_ARITY[kind]))
    seq = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return encode(WireMessage(kind, seq, draw(_EXACT_NUMBERS), payload))


@settings(max_examples=500, deadline=None)
@given(_canonical_frames() | _perturbed_bodies().map(_frame), st.data())
def test_recv_message_equals_json_loads_whole_or_split(frame, data):
    # sessions read through recv_message: its outcome must be decode's oracle,
    # whether one read delivers the frame or two reads split it at any byte
    cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
    expected = _outcome(_decode_through_json_loads, frame)
    for chunks in ([frame], [frame[:cut], frame[cut:]]):
        wire = _Wire(chunks)
        assert _outcome(recv_message, wire) == expected
        if not isinstance(expected, type):  # a message: the whole frame was consumed
            assert recv_message(wire) is None


_OBS = WireMessage("Obs", 0, 0.5, (0.1, -0.2, 1.5))
_SIG = WireMessage("Sig", 1, 0.5, (2419.0,))
_CMD = WireMessage("Cmd", 2, 0.5, (0.02, -0.3))


def test_send_message_writes_all_its_frames_at_once():
    wire = _Wire()
    send_message(wire, _OBS, _SIG)
    assert wire.writes == [encode(_OBS) + encode(_SIG)]
    # a malformed frame among them: nothing is written
    with pytest.raises(WireFormatError):
        send_message(wire, _CMD, WireMessage("Sig", 3, 0.5, (math.inf,)))
    assert len(wire.writes) == 1


def test_two_frames_in_one_write_come_back_as_two_messages(pair):
    a, b = pair
    send_message(a, _OBS, _SIG)
    assert recv_message(b) == _OBS
    assert recv_message(b) == _SIG
    # one read delivered both frames
    wire = _Wire([encode(_OBS) + encode(_SIG)])
    assert [recv_message(wire), recv_message(wire), recv_message(wire)] == [_OBS, _SIG, None]
    assert wire.reads == 2


def test_a_frame_fed_one_byte_at_a_time_still_decodes(pair):
    a, b = pair
    frame = encode(_OBS)
    b.settimeout(0.001)
    for byte in frame[:-1]:
        a.sendall(bytes([byte]))
        with pytest.raises(TimeoutError):  # the byte waits in the buffer
            recv_message(b)
    a.sendall(frame[-1:])
    assert recv_message(b) == _OBS
    wire = _Wire([bytes([byte]) for byte in frame])
    assert recv_message(wire) == _OBS
    assert wire.reads == len(frame)


def test_eof_at_a_frame_boundary_returns_none(pair):
    a, b = pair
    send_message(a, _OBS)
    a.shutdown(socket.SHUT_WR)
    assert recv_message(b) == _OBS
    assert recv_message(b) is None


@pytest.mark.parametrize("cut", [2, 4, 20], ids=["in the prefix", "after the prefix",
                                                 "in the body"])
def test_eof_mid_frame_raises_truncated_frame(pair, cut):
    a, b = pair
    a.sendall(encode(_SIG) + encode(_OBS)[:cut])
    a.shutdown(socket.SHUT_WR)
    assert recv_message(b) == _SIG
    with pytest.raises(TruncatedFrameError):
        recv_message(b)


def test_an_oversized_prefix_fails_before_any_body_arrives(pair):
    a, b = pair
    a.sendall(struct.pack(">I", MAX_FRAME + 1))  # no body follows, the socket stays open
    with pytest.raises(FrameLengthError):
        recv_message(b)


def test_concurrent_connections_keep_their_own_buffers():
    # every connection's unread bytes sit in one process-wide map keyed by
    # socket; threads on their own socket pairs, switching every microsecond
    # while sockets come and go, must each get back exactly what they sent
    n_threads, rounds, per_write = 8, 40, 5
    failures = []

    def worker(k):
        try:
            for r in range(rounds):
                a, b = socket.socketpair()
                with a, b:
                    b.settimeout(TIMEOUT)
                    msgs = [WireMessage("Sig", i, float(k), (float(r),)) for i in range(per_write)]
                    send_message(a, *msgs)
                    got = [recv_message(b) for _ in msgs]
                    a.shutdown(socket.SHUT_WR)
                    if got != msgs or recv_message(b) is not None:
                        failures.append((k, r, got))
        except Exception as exc:  # reported below, with the thread that raised it
            failures.append((k, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_the_pump_forwards_what_one_read_delivered_in_one_write():
    src = _Wire([encode(_OBS) + encode(_SIG), encode(_CMD)])
    dst = _Wire()
    _pump(src, dst, lambda msg: msg)
    assert dst.writes == [encode(_OBS) + encode(_SIG), encode(_CMD)]
    assert dst.shut


def test_the_pump_forwards_the_frames_before_a_malformed_one(pair):
    feed, src = pair
    dst, out = socket.socketpair()
    out.settimeout(TIMEOUT)
    bad = _frame(b'{"kind":"Obs","seq":2,"t":0,"payload":[1,2]}')
    try:
        feed.sendall(encode(_OBS) + encode(_SIG) + bad + encode(_CMD))
        _pump(src, dst, lambda msg: msg)
        assert recv_message(out) == _OBS
        assert recv_message(out) == _SIG
        assert recv_message(out) is None  # then the pump shut its write side
    finally:
        dst.close()
        out.close()


# ---------------------------------------------------------------------------
# session end reasons, scripted over _Wire without threads

_SESSIONS = {"plant": _plant_session, "controller": _controller_session}


@pytest.mark.parametrize("endpoint", sorted(_SESSIONS))
def test_a_session_refuses_eof_before_hello(endpoint):
    # each endpoint sends its own Hello before it reads the peer's
    wire = _Wire()
    with pytest.raises(ProtocolError, match="peer closed before Hello"):
        _SESSIONS[endpoint](wire, SimConfig(duration=0.1), default_signature())
    assert [decode(w).kind for w in wire.writes] == ["Hello"]


@pytest.mark.parametrize("endpoint", sorted(_SESSIONS))
def test_a_session_refuses_a_first_frame_that_is_not_hello(endpoint):
    wire = _Wire([encode(WireMessage("Obs", 0, 0.0, (0.0, 0.02, 0.0)))])
    with pytest.raises(ProtocolError, match="expected Hello, got Obs"):
        _SESSIONS[endpoint](wire, SimConfig(duration=0.1), default_signature())


def test_the_plant_refuses_an_obs_where_a_cmd_belongs():
    cfg, sig = SimConfig(duration=0.1), default_signature()
    script = [WireMessage("Hello", 0, 0.0, ("controller", _config_digest(cfg, sig))),
              WireMessage("Cmd", 1, 0.0, (0.0, 0.0)), WireMessage("Cmd", 2, 0.01, (0.0, 0.0)),
              WireMessage("Obs", 3, 0.02, (0.0, 0.02, 0.0))]
    wire = _Wire([encode(msg) for msg in script])
    with pytest.raises(ProtocolError, match="expected Cmd, got Obs"):
        _plant_session(wire, cfg, sig)
    assert len(wire.writes) == 4  # Hello, then Obs+Sig for each of three ticks


def test_the_controller_refuses_a_plant_of_another_config():
    cfg, sig = SimConfig(duration=0.1), default_signature()
    other = _config_digest(SimConfig(duration=0.2), sig)
    wire = _Wire([encode(WireMessage("Hello", 0, 0.0, ("plant", other)))])
    with pytest.raises(ProtocolError, match="config digest mismatch"):
        _controller_session(wire, cfg, sig)
    assert [decode(w).kind for w in wire.writes] == ["Hello"]


def test_a_controller_stream_cut_mid_frame_gives_a_partial_view():
    cfg, sig = SimConfig(duration=0.1, log_stride=1), default_signature()
    honest = run(cfg, signature=sig)
    frames = [encode(WireMessage("Hello", 0, 0.0, ("plant", _config_digest(cfg, sig))))]
    for k in range(4):
        frames.append(encode(WireMessage("Obs", 2 * k + 1, honest.t[k],
                                         (honest.x[k], honest.y[k], honest.theta[k]))))
        frames.append(encode(WireMessage("Sig", 2 * k + 2, honest.t[k], (honest.phi_plant[k],))))
    frames[-1] = frames[-1][:-5]  # the fourth tick's Sig is cut short
    wire = _Wire(frames)
    view = _controller_session(wire, cfg, sig)
    assert not view.complete and len(view) == 3
    for col in CTRL_VIEW_COLUMNS:
        np.testing.assert_array_equal(getattr(view, col), getattr(honest, col)[:3])
    assert [decode(w).kind for w in wire.writes] == ["Hello", "Cmd", "Cmd", "Cmd"]


def test_config_digest_is_stable_and_sensitive():
    cfg = SimConfig(duration=2.0)
    sig = default_signature()
    digest = _config_digest(cfg, sig)
    assert len(digest) == 16
    assert all(c in "0123456789abcdef" for c in digest)
    assert digest == _config_digest(SimConfig(duration=2.0), default_signature())
    assert digest != _config_digest(SimConfig(duration=3.0), sig)
    assert digest != _config_digest(cfg, PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2))


# ---------------------------------------------------------------------------
# view logs and merging


def test_view_column_tuples():
    assert PLANT_VIEW_COLUMNS == ("t", "x", "y", "theta", "v_rx", "w_rx", "phi_plant")
    assert CTRL_VIEW_COLUMNS == (
        "t", "x_obs", "y_obs", "theta_obs", "v_cmd", "w_cmd",
        "xe", "ye", "thetae", "V", "phi_plant", "phi_ctrl",
    )


def _tiny_views(n=3, shift=0.0):
    t = np.arange(n) * 0.02 + shift
    plant = SimTrace(np.column_stack([t] + [t + k for k in range(1, 7)]), PLANT_VIEW_COLUMNS)
    ctrl = SimTrace(np.column_stack([np.arange(n) * 0.02] + [t + k for k in range(7, 18)]),
                    CTRL_VIEW_COLUMNS)
    return plant, ctrl


def test_merge_views_places_columns():
    plant, ctrl = _tiny_views()
    trace = merge_views(plant, ctrl)
    assert trace.complete
    np.testing.assert_array_equal(trace.x, plant.x)
    np.testing.assert_array_equal(trace.v_rx, plant.v_rx)
    np.testing.assert_array_equal(trace.x_obs, ctrl.x_obs)
    np.testing.assert_array_equal(trace.phi_ctrl, ctrl.phi_ctrl)
    # phi_plant is in both views; the merge keeps the stream the controller received
    np.testing.assert_array_equal(trace.phi_plant, ctrl.phi_plant)
    assert not hasattr(plant, "x_obs")
    # a deep copy is a whole view: merging it gives the same trace
    np.testing.assert_array_equal(merge_views(copy.deepcopy(plant), ctrl).data, trace.data)
    ctrl.complete = False
    assert not merge_views(plant, ctrl).complete


def test_merge_views_rejects_mismatched_grids():
    plant, ctrl = _tiny_views(shift=0.01)
    with pytest.raises(ValueError):
        merge_views(plant, ctrl)


def test_view_csv_headers(tmp_path):
    plant, ctrl = _tiny_views()
    write_trace_csv(tmp_path / "plant.csv", plant)
    write_trace_csv(tmp_path / "ctrl.csv", ctrl)
    assert (tmp_path / "plant.csv").read_text().splitlines()[0] == ",".join(PLANT_VIEW_COLUMNS)
    assert (tmp_path / "ctrl.csv").read_text().splitlines()[0] == ",".join(CTRL_VIEW_COLUMNS)


# ---------------------------------------------------------------------------
# live sessions over loopback sockets


def _spawn(fn, **kwargs):
    """Run fn in a daemon thread; the box carries its result or error."""
    box = {}

    def runner():
        try:
            box["result"] = fn(**kwargs)
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    box["thread"] = thread
    return box


def _bound_port(extra):
    """on_bound callback plus waiter for a server thread's ephemeral port."""
    ready = threading.Event()

    def on_bound(port):
        extra.append(port)
        ready.set()

    def wait():
        assert ready.wait(TIMEOUT), "server did not bind in time"
        return extra[-1]

    return on_bound, wait


def _finish(box):
    box["thread"].join(TIMEOUT)
    assert not box["thread"].is_alive(), "helper thread hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.mark.parametrize("serve", [
    lambda on_bound: serve_plant(SimConfig(duration=1.0), port=0, on_bound=on_bound,
                                 timeout=TIMEOUT),
    lambda on_bound: serve_proxy(listen=("127.0.0.1", 0), on_bound=on_bound, timeout=TIMEOUT),
], ids=["plant", "proxy"])
def test_a_failing_on_bound_closes_the_listener(serve):
    ports = []

    def on_bound(port):
        ports.append(port)
        raise RuntimeError("on_bound failed")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(RuntimeError) as excinfo:
            serve(on_bound)
        # the traceback still holds the server's frame, so a listener left
        # open would still hold its port
        socket.create_server(("127.0.0.1", ports[0])).close()
        del excinfo
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_networked_identity_run_matches_in_process():
    cfg = SimConfig(duration=2.0)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    ctrl_log = run_controller(cfg, connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    plant_log = _finish(plant_box)
    assert plant_log.complete and ctrl_log.complete
    merged = merge_views(plant_log, ctrl_log)
    np.testing.assert_array_equal(merged.data, run(cfg).data)


def _proxied_session(cfg, **proxy_kwargs):
    """One plant/proxy/controller session over loopback; the plant and controller logs."""
    ports = []
    plant_bound, plant_wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=plant_bound, timeout=TIMEOUT)
    plant_port = plant_wait()
    proxy_bound, proxy_wait = _bound_port(ports)
    proxy_box = _spawn(
        serve_proxy, listen=("127.0.0.1", 0), upstream=("127.0.0.1", plant_port),
        on_bound=proxy_bound, timeout=TIMEOUT, **proxy_kwargs,
    )
    ctrl_log = run_controller(cfg, connect=("127.0.0.1", proxy_wait()), timeout=TIMEOUT)
    plant_log = _finish(plant_box)
    _finish(proxy_box)
    return plant_log, ctrl_log


def test_networked_attack_through_proxy_matches_in_process():
    cfg = SimConfig(duration=2.0)
    attack = build_reflection(1.0, cfg.p0)
    merged = merge_views(*_proxied_session(cfg, attack=attack))
    np.testing.assert_array_equal(merged.data, run(cfg, attack=attack).data)


def test_networked_tilted_reflection_matches_in_process():
    # several nonzeros per row: the proxy and run() share one map evaluation order
    cfg = SimConfig(duration=2.0, p0=Posture(0.0, 0.02, math.pi / 6))
    attack = build_reflection(1.0, cfg.p0)
    merged = merge_views(*_proxied_session(cfg, attack=attack))
    np.testing.assert_array_equal(merged.data, run(cfg, attack=attack).data)


def test_proxy_tampering_with_signature_stream_is_visible():
    # Scaling the Sig channel leaves positions untouched, so the received
    # stream disagrees with Phi at the observed posture.
    cfg = SimConfig(duration=2.0)
    sig = default_signature()
    plant_log, ctrl_log = _proxied_session(cfg, sig_scale=2.0)
    seen = monitor(ctrl_log, sig)
    assert seen.flag
    assert 1e-3 < float(seen.residual.max()) < 1e-1
    # the merged trace is judged on the same received column, bitwise
    merged = monitor(merge_views(plant_log, ctrl_log), sig)
    np.testing.assert_array_equal(merged.t, seen.t)
    np.testing.assert_array_equal(merged.residual, seen.residual)
    assert (merged.flag, merged.first_exceed_t, merged.detect_t) == (
        seen.flag, seen.first_exceed_t, seen.detect_t)
    # an honest direct session has a bitwise-clean signature stream
    on_bound, wait = _bound_port([])
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    clean = run_controller(cfg, connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    _finish(plant_box)
    np.testing.assert_array_equal(clean.phi_plant, clean.phi_ctrl)
    clean_result = monitor(clean, sig)
    assert not clean_result.flag
    np.testing.assert_array_equal(clean_result.residual, np.zeros(len(clean.t)))


def test_spoofing_the_controller_view_equals_spoofing_the_merged_trace():
    cfg = SimConfig(duration=2.0)
    sig = default_signature()
    plant_log, ctrl_log = _proxied_session(cfg, attack=build_reflection(1.0, cfg.p0))
    estimate = fit_signature(spiral_samples(150, noise_std=STUDY_NOISE_STD, seed=0))
    spoofed = spoof(ctrl_log, estimate)
    assert spoofed.columns == CTRL_VIEW_COLUMNS
    from_view = monitor(spoofed, sig)
    from_merged = monitor(spoof(merge_views(plant_log, ctrl_log), estimate), sig)
    assert float(from_view.residual.max()) > 0.0
    np.testing.assert_array_equal(from_view.t, from_merged.t)
    assert from_view.residual.view(np.int64).tolist() == from_merged.residual.view(np.int64).tolist()
    assert (from_view.flag, from_view.first_exceed_t, from_view.detect_t) == (
        from_merged.flag, from_merged.first_exceed_t, from_merged.detect_t)


def test_mismatched_configs_refuse_to_run():
    plant_cfg = SimConfig(duration=3.0)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=plant_cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    # both sides compare the digests and refuse the session themselves
    with pytest.raises(ProtocolError, match="config digest mismatch"):
        run_controller(SimConfig(duration=2.0), connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    with pytest.raises(ProtocolError, match="config digest mismatch"):
        _finish(plant_box)


def test_a_diverging_controller_raises_run_diverged_and_the_plant_ends_incomplete():
    # a 1e308 gain on a 10 m start error commands an infinite speed at the first
    # tick: the controller refuses its own command before it sends it
    cfg = SimConfig(gains=ControllerGains(kx=1e308), p0=Posture(-10.0, 0.0, 0.0), duration=1.0)
    on_bound, wait = _bound_port([])
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with pytest.raises(RunDiverged, match=r"^run diverged: non-finite value at t = 0 s$"):
        run_controller(cfg, connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    plant_log = _finish(plant_box)
    assert not plant_log.complete and len(plant_log) == 0


def test_a_controller_view_whose_phi_ctrl_overflows_is_refused_as_diverged(tmp_path, capsys):
    # the proxy shows the controller positions 100 times the plant's; every
    # received and computed value stays finite, but Phi at the observed
    # positions overflows, where it used to leave inf in phi_ctrl
    doc = tmp_path / "far.json"
    doc.write_text(json.dumps({"seed": 1, "duration": 0.1, "ref": {"v_ref": 1e80},
                               "attack": {"kind": "Scaling", "beta11": 0.01}}),
                   encoding="utf-8")
    sc = load_scenario(doc)
    with pytest.raises(RunDiverged):
        run(sc.sim, sc.attack, sc.signature)
    ports = []
    plant_bound, plant_wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=sc.sim, signature=sc.signature, port=0,
                       on_bound=plant_bound, timeout=TIMEOUT)
    proxy_bound, proxy_wait = _bound_port(ports)
    proxy_box = _spawn(serve_proxy, attack=sc.attack, listen=("127.0.0.1", 0),
                       upstream=("127.0.0.1", plant_wait()), on_bound=proxy_bound,
                       timeout=TIMEOUT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["serve-controller", "--scenario", str(doc),
                     "--connect", "127.0.0.1:%d" % proxy_wait()])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: run diverged: the controller view holds non-finite values\n")
    _finish(proxy_box)
    plant_log = _finish(plant_box)  # the plant's own view is whole and finite
    assert plant_log.complete and np.isfinite(plant_log.data).all()


def test_out_of_sequence_peer_is_rejected():
    cfg = SimConfig(duration=1.0)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with socket.create_connection(("127.0.0.1", wait()), timeout=TIMEOUT) as sock:
        digest = _config_digest(cfg, default_signature())
        send_message(sock, WireMessage("Hello", 7, 0.0, ("controller", digest)))
        with pytest.raises(ProtocolError, match="seq gap"):
            _finish(plant_box)


def test_lost_peer_yields_partial_log():
    cfg = SimConfig(duration=0.1)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with socket.create_connection(("127.0.0.1", wait()), timeout=TIMEOUT) as sock:
        digest = _config_digest(cfg, default_signature())
        send_message(sock, WireMessage("Hello", 0, 0.0, ("controller", digest)))
        assert recv_message(sock).kind == "Hello"
        for k in range(4):
            assert recv_message(sock).kind == "Obs"
            assert recv_message(sock).kind == "Sig"
            send_message(sock, WireMessage("Cmd", k + 1, k * cfg.dt, (0.0, 0.0)))
    plant_log = _finish(plant_box)
    assert not plant_log.complete
    assert 1 <= len(plant_log.t) <= 2
    np.testing.assert_array_equal(plant_log.v_rx, np.zeros(len(plant_log.t)))
