"""Tests for the wire protocol and the networked plant/controller/proxy trio."""

from __future__ import annotations

import copy
import gc
import itertools
import json
import math
import re
import socket
import struct
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_SCALARS, JSONISH
from fdia_lab import netlink
from fdia_lab.adversary import STUDY_NOISE_STD, fit_signature, spiral_samples, spoof
from fdia_lab.cli import main
from fdia_lab.fdia import AttackError, build_reflection, build_scaling
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
    _require_finite,
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
from fdia_lab.simloop import (
    TRACE_COLUMNS,
    RunDiverged,
    SimConfig,
    SimTrace,
    run,
    write_trace_csv,
)
from fdia_lab.smsf import PolySignature, default_signature, monitor
from fdia_lab.tracking import ControllerGains, RefConfig

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
    # repr writes -0.0 as "-0.0", which JSON reads back as the float -0.0
    back = decode(encode(WireMessage("Sig", 0, -0.0, (-0.0,))))
    assert math.copysign(1.0, back.t) == math.copysign(1.0, back.payload[0]) == -1.0


def test_decode_coerces_integer_literals_to_float():
    frame = encode(WireMessage("Obs", 3, 1.0, (1.0, 2.0, 3.0)))
    back = decode(frame)
    assert all(isinstance(v, float) for v in back.payload)
    # t too, of every kind, including a peer's int token such as 0
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


def test_an_oversized_body_is_refused_before_anything_is_written():
    # every other field is valid: only the frame's length is at fault
    msg = WireMessage("Hello", 0, 0.0, ("r" * MAX_FRAME, "0123456789abcdef"))
    with pytest.raises(FrameLengthError, match=r"exceeds 1048576$"):
        encode(msg)
    wire = _Wire()
    with pytest.raises(FrameLengthError):
        send_message(wire, _OBS, msg)
    assert wire.writes == []


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


# Frames recorded from the per-value encoder (one repr(float(v)) per number),
# the oracle the one-template encoder is held to: the wire bytes must not move.
_GOLDEN_FRAMES = [
    (WireMessage("Obs", 0, 0.0, (0.1, -0.2, 1.5)),
     b'\x00\x00\x007{"kind":"Obs","seq":0,"t":0.0,"payload":[0.1,-0.2,1.5]}'),
    (WireMessage("Obs", 7, 3, (-0.0, 5e-324, 1.7976931348623157e308)),
     b'\x00\x00\x00N{"kind":"Obs","seq":7,"t":3.0,'
     b'"payload":[-0.0,5e-324,1.7976931348623157e+308]}'),
    (WireMessage("Cmd", 2**64 - 1, 0.30000000000000004, (2, -1e-300)),
     b'\x00\x00\x00Y{"kind":"Cmd","seq":18446744073709551615,"t":0.30000000000000004,'
     b'"payload":[2.0,-1e-300]}'),
    (WireMessage("Sig", 12, 29.99, (2419.0,)),
     b'\x00\x00\x004{"kind":"Sig","seq":12,"t":29.99,"payload":[2419.0]}'),
    (WireMessage("Hello", 0, 0.0, ("controller", "0123456789abcdef")),
     b'\x00\x00\x00L{"kind":"Hello","seq":0,"t":0.0,'
     b'"payload":["controller","0123456789abcdef"]}'),
    (WireMessage("Bye", 3001, 30, ('say "bye"\né',)),
     b'\x00\x00\x00D{"kind":"Bye","seq":3001,"t":30.0,"payload":["say \\"bye\\"\\n\\u00e9"]}'),
]

# The same messages as the earlier per-value encoder framed them, one
# format(float(v), ".17g") per number, which a peer of that version still
# sends: whole numbers as int tokens, -0.0 as -0 and 17 significant digits.
_PERCENT_G_FRAMES = [(msg, frame) for (msg, _), frame in zip(_GOLDEN_FRAMES, [
    b'\x00\x00\x00U{"kind":"Obs","seq":0,"t":0,'
    b'"payload":[0.10000000000000001,-0.20000000000000001,1.5]}',
    b'\x00\x00\x00[{"kind":"Obs","seq":7,"t":3,'
    b'"payload":[-0,4.9406564584124654e-324,1.7976931348623157e+308]}',
    b'\x00\x00\x00W{"kind":"Cmd","seq":18446744073709551615,"t":0.30000000000000004,'
    b'"payload":[2,-1e-300]}',
    b'\x00\x00\x00?{"kind":"Sig","seq":12,"t":29.989999999999998,"payload":[2419]}',
    b'\x00\x00\x00J{"kind":"Hello","seq":0,"t":0,'
    b'"payload":["controller","0123456789abcdef"]}',
    b'\x00\x00\x00B{"kind":"Bye","seq":3001,"t":30,"payload":["say \\"bye\\"\\n\\u00e9"]}',
])]


@pytest.mark.parametrize("msg, old_frame", _PERCENT_G_FRAMES,
                         ids=lambda v: getattr(v, "kind", None))
def test_wire_bytes_are_the_recorded_ones(msg, old_frame):
    frame = dict(_GOLDEN_FRAMES)[msg]
    assert encode(msg) == frame
    back = decode(frame)
    assert back.payload == tuple(float(v) if msg.kind in ("Obs", "Cmd", "Sig") else v
                                 for v in msg.payload)
    # the old frame reads as the same message, but for the sign of a zero
    assert decode(old_frame) == back


def _per_value_body(msg: WireMessage) -> bytes:
    """The frame body as the per-value encoder wrote it."""
    if msg.kind in ("Obs", "Cmd", "Sig"):
        items = ",".join(repr(float(v)) for v in msg.payload)
    else:
        items = ",".join(json.dumps(v) for v in msg.payload)
    return ('{"kind":"%s","seq":%d,"t":%s,"payload":[%s]}' % (
        msg.kind, msg.seq, repr(float(msg.t)), items)).encode("utf-8")


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


_FRAMES = _canonical_frames() | _perturbed_bodies().map(_frame)


def _said(fn, *args):
    """repr of what fn returns, or the type and text of the NetlinkError it raises."""
    try:
        return repr(fn(*args))
    except NetlinkError as exc:
        return type(exc), str(exc)


@st.composite
def _feeds(draw):
    """A stream of 1-5 whole frames, the last of them maybe an oversized prefix,
    or else maybe followed by part of one more frame, cut into reads at drawn
    offsets and at drawn bytes inside prefixes: (frames, the partial tail, reads)."""
    frames = draw(st.lists(_FRAMES, min_size=1, max_size=5))
    tail = b""
    if draw(st.booleans()):
        frames.append(struct.pack(">I", draw(st.integers(MAX_FRAME + 1, 2**32 - 1)))
                      + draw(st.binary(max_size=8)))
    elif draw(st.booleans()):
        extra = draw(_FRAMES)
        tail = extra[:draw(st.integers(1, len(extra) - 1))]
    data = b"".join(frames) + tail
    starts = [0, *itertools.accumulate(len(frame) for frame in frames)]
    cuts = draw(st.sets(st.integers(1, len(data) - 1), max_size=6))
    cuts |= {start + draw(st.integers(1, 3)) for start in starts if draw(st.booleans())}
    edges = [0, *sorted(cut for cut in cuts if cut < len(data)), len(data)]
    return frames, tail, [data[i:j] for i, j in zip(edges, edges[1:])]


@settings(max_examples=500, deadline=None)
@given(_feeds())
def test_recv_message_gives_decodes_outcome_frame_by_frame_under_any_chunking(feed):
    # one read may hold several frames, or a part of one, or end inside a prefix
    frames, tail, reads = feed
    wire = _Wire(reads)
    for frame in frames:
        assert _said(recv_message, wire) == _said(decode, frame)
    if struct.unpack_from(">I", frames[-1])[0] > MAX_FRAME:
        return  # the oversized prefix stays unread: the stream cannot go on
    if tail:
        with pytest.raises(TruncatedFrameError):
            recv_message(wire)
    else:
        assert recv_message(wire) is None


class _CountingPrefix:
    """The length prefix's struct, counting the prefixes it reads."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.reads = 0

    def unpack_from(self, buf):
        self.reads += 1
        return self.prefix.unpack_from(buf)


@settings(max_examples=300, deadline=None)
@given(_feeds())
def test_recv_message_reads_each_prefix_at_most_twice(feed):
    # once to find the frame and once in decode, however the reads cut it
    frames, tail, reads = feed
    wire = _Wire(reads)
    prefix = _CountingPrefix(netlink._PREFIX)
    with mock.patch.object(netlink, "_PREFIX", prefix):
        for _ in range(len(frames) + 1):
            prefix.reads = 0
            _said(recv_message, wire)
            assert prefix.reads <= 2


@settings(max_examples=300, deadline=None)
@given(_FRAMES | st.binary(max_size=64))
def test_decode_reads_bytes_and_bytearray_alike(frame):
    # recv_message passes decode a read's own bytes or a bytearray cut from its buffer
    assert _said(decode, bytearray(frame)) == _said(decode, frame)


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


def test_a_freed_connection_takes_its_unread_bytes_with_it():
    # the buffers are keyed by socket id, so a later socket at the same
    # address must not find the bytes of one that is gone
    wire = _Wire([encode(_OBS) + encode(_SIG)])
    assert recv_message(wire) == _OBS
    key = id(wire)
    assert netlink._inboxes[key] == encode(_SIG)
    del wire
    assert key not in netlink._inboxes


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


def test_a_plant_whose_heading_overflows_mid_step_raises_run_diverged():
    # the heading is finite when the plant checks it before sending, and
    # theta + dt*omega/2 overflows inside the step that follows
    cfg, sig = SimConfig(p0=Posture(0.0, 0.02, 1.797e308), duration=0.1), default_signature()
    script = [WireMessage("Hello", 0, 0.0, ("controller", _config_digest(cfg, sig))),
              WireMessage("Cmd", 1, 0.0, (0.0, 1e308))]
    wire = _Wire([encode(msg) for msg in script])
    with pytest.raises(RunDiverged, match=r"^run diverged: non-finite heading at t = 0 s$"):
        _plant_session(wire, cfg, sig)
    assert len(wire.writes) == 2  # Hello, then the one tick's Obs+Sig


def test_config_digest_is_stable_and_sensitive():
    cfg = SimConfig(duration=2.0)
    sig = default_signature()
    digest = _config_digest(cfg, sig)
    assert len(digest) == 16
    assert all(c in "0123456789abcdef" for c in digest)
    assert digest == _config_digest(SimConfig(duration=2.0), default_signature())
    assert digest != _config_digest(SimConfig(duration=3.0), sig)
    assert digest != _config_digest(cfg, PolySignature({(2, 0): 1.0, (0, 2): 1.0}))


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


def _session(cfg, signature=default_signature(), proxy=None):
    """One session over loopback, direct or through serve_proxy(**proxy).

    Returns the plant and controller logs. An endpoint's error is raised once
    every helper thread has ended.
    """
    ports = []
    plant_bound, plant_wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, signature=signature, port=0, on_bound=plant_bound,
                       timeout=TIMEOUT)
    port, proxy_box = plant_wait(), None
    if proxy is not None:
        proxy_bound, proxy_wait = _bound_port(ports)
        proxy_box = _spawn(serve_proxy, listen=("127.0.0.1", 0), upstream=("127.0.0.1", port),
                           on_bound=proxy_bound, timeout=TIMEOUT, **proxy)
        port = proxy_wait()
    try:
        ctrl_log = run_controller(cfg, connect=("127.0.0.1", port), signature=signature,
                                  timeout=TIMEOUT)
    finally:
        if proxy_box is not None:
            _finish(proxy_box)
        plant_log = _finish(plant_box)
    return plant_log, ctrl_log


def _proxied_session(cfg, **proxy_kwargs):
    """One plant/proxy/controller session over loopback; the plant and controller logs."""
    return _session(cfg, proxy=proxy_kwargs)


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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(_FINITE, st.lists(_FINITE, min_size=1, max_size=7))
@example(0.5, [1e308, 1e308])
@example(0.5, [-1.7976931348623157e308, -1.7976931348623157e308, 5e-324])
@example(0.5, [1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308])
def test_an_endpoint_sends_every_finite_value_even_when_their_sum_overflows(t, values):
    _require_finite(t, *values)


@settings(max_examples=300, deadline=None)
@given(_FINITE, st.lists(_FINITE, max_size=6), st.integers(0, 6),
       st.sampled_from([math.nan, math.inf, -math.inf]))
@example(2.0, [1e308, 1e308], 2, math.nan)
@example(2.0, [math.inf], 0, -math.inf)
def test_an_endpoint_refuses_any_non_finite_value_naming_t(t, values, slot, bad):
    values.insert(slot % (len(values) + 1), bad)
    message = f"^run diverged: non-finite value at t = {re.escape(f'{t:g}')} s$"
    with pytest.raises(RunDiverged, match=message):
        _require_finite(t, *values)


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


# ---------------------------------------------------------------------------
# the networked invariant over drawn configurations

_GAIN = st.floats(1e-3, 1e4)
_UNIT = st.floats(-1.0, 1.0)
_MONOMIALS = [(i, j) for i in range(5) for j in range(5 - i)]
_SIGNATURES = st.dictionaries(st.sampled_from(_MONOMIALS), st.floats(-100.0, 100.0),
                              min_size=1).map(PolySignature)
# no attack, or a family and a beta11 in [-3, 3] other than 0
_DECLARED = st.none() | st.tuples(st.sampled_from([build_reflection, build_scaling]),
                                  st.floats(-3.0, 3.0).filter(bool))
# the proxy's Sig channel (sig_scale, sig_offset)
_SIG_CHANNELS = st.just((1.0, 0.0)) | st.tuples(st.floats(-10.0, 10.0), _UNIT)


@st.composite
def _session_configs(draw):
    """1-40 steps with a log_stride that divides them, any start pose near the
    origin, and gains and a reference over wide ranges."""
    stride = draw(st.integers(1, 4))
    duration = stride * draw(st.integers(1, 40 // stride)) * 0.01
    ref = RefConfig(v_ref=draw(st.floats(1e-3, 10.0)), omega_amp=draw(st.floats(-10.0, 10.0)),
                    omega_period=draw(st.floats(1e-2, 1e3)), duration=duration)
    return SimConfig(ref=ref, gains=ControllerGains(draw(_GAIN), draw(_GAIN), draw(_GAIN)),
                     p0=Posture(draw(_UNIT), draw(_UNIT), draw(st.floats(-7.0, 7.0))),
                     log_stride=stride, duration=duration)


def _assert_session_equals_run(cfg, sig, attack=None, proxy=None, channel=(1.0, 0.0)):
    """The session's merged view is run()'s table byte for byte, with run()'s
    phi_plant passed through the Sig channel (s, d) as the controller
    receives it. A configuration that diverges in process must not
    complete over the wire either."""
    try:
        want = run(cfg, attack, sig)
    except RunDiverged:
        try:
            plant_log, ctrl_log = _session(cfg, sig, proxy)
        except RunDiverged:
            return
        assert not (plant_log.complete and ctrl_log.complete)
        return
    plant_log, ctrl_log = _session(cfg, sig, proxy)
    assert plant_log.complete and ctrl_log.complete
    s, d = channel
    expected = want.data.copy()
    expected[:, TRACE_COLUMNS.index("phi_plant")] = received = s * want.phi_plant + d
    assert ctrl_log.phi_plant.tobytes() == received.tobytes()
    assert merge_views(plant_log, ctrl_log).data.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(_session_configs(), _SIGNATURES, _DECLARED, _SIG_CHANNELS)
# a 1e308 gain sends the plant 1e306 m in one step, where Phi overflows; and
# a beta11 whose 1/beta11 overflows, which no builder accepts
@example(SimConfig(gains=ControllerGains(kx=1e308), p0=Posture(-1.0, 0.0, 0.0), duration=0.04),
         default_signature(), (build_scaling, 0.5), (1.0, 0.0))
@example(SimConfig(duration=0.04), default_signature(), (build_reflection, 5e-324), (1.0, 0.0))
def test_drawn_sessions_direct_and_proxied_equal_run(cfg, sig, declared, channel):
    _assert_session_equals_run(cfg, sig)
    try:
        attack = None if declared is None else declared[0](declared[1], cfg.p0)
    except AttackError:  # a beta11 so near 0 that s_x or d_x overflows
        return
    s, d = channel
    _assert_session_equals_run(cfg, sig, attack,
                               {"attack": attack, "sig_scale": s, "sig_offset": d}, channel)


def test_sessions_from_a_negative_zero_pose_equal_run():
    # the wire keeps the sign of a zero, so x_obs[0] stays -0.0
    cfg = SimConfig(p0=Posture(-0.0, 0.0, 0.0), duration=0.04)
    _assert_session_equals_run(cfg, default_signature())
    _assert_session_equals_run(cfg, default_signature(), proxy={})
