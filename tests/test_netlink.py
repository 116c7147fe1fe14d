"""Tests for the wire protocol and the networked plant/controller/proxy trio."""

from __future__ import annotations

import json
import math
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdia_lab.fdia import build_reflection
from fdia_lab.netlink import (
    CTRL_VIEW_COLUMNS,
    MAX_FRAME,
    MSG_KINDS,
    PLANT_VIEW_COLUMNS,
    CtrlLog,
    FrameLengthError,
    NetlinkError,
    PlantLog,
    ProtocolError,
    TruncatedFrameError,
    UnknownKindError,
    WireFormatError,
    WireMessage,
    config_digest,
    decode,
    encode,
    merge_views,
    recv_message,
    run_controller,
    send_message,
    serve_plant,
    serve_proxy,
)
from fdia_lab.simloop import SimConfig, run
from fdia_lab.smsf import PolySignature, default_signature

TIMEOUT = 15.0


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
    for big in (10**400, -(10**400), 2**53 + 1):
        with pytest.raises(WireFormatError):
            encode(WireMessage("Sig", 0, big, (1.0,)))
        with pytest.raises(WireFormatError):
            encode(WireMessage("Sig", 0, 0.0, (big,)))


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
    ):
        with pytest.raises(WireFormatError):
            decode(_frame(body))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_any_bytes_decode_or_raise_netlink_errors(data):
    _decodes_or_netlink_error(data)
    _decodes_or_netlink_error(_frame(data))


_JSON_SCALARS = (st.none() | st.booleans() | st.floats()
                 | st.integers(min_value=-(10**400), max_value=10**400) | st.text(max_size=8))
_JSONISH = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _JSONISH,
    st.fixed_dictionaries({
        "kind": st.sampled_from(MSG_KINDS) | _JSONISH,
        "seq": st.integers(min_value=-2, max_value=10**400) | _JSONISH,
        "t": _JSON_SCALARS,
        "payload": st.lists(_JSON_SCALARS, max_size=4) | _JSONISH,
    }),
))
def test_jsonish_bodies_decode_or_raise_netlink_errors(obj):
    _decodes_or_netlink_error(_frame(json.dumps(obj).encode("utf-8")))


_WIRE_NUMBERS = st.floats() | st.integers(min_value=-(10**400), max_value=10**400)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MSG_KINDS), st.integers(min_value=-2, max_value=2**64), _WIRE_NUMBERS,
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
    kinds = list(MSG_KINDS)
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


def test_config_digest_is_stable_and_sensitive():
    cfg = SimConfig(duration=2.0)
    sig = default_signature()
    digest = config_digest(cfg, sig)
    assert len(digest) == 16
    assert all(c in "0123456789abcdef" for c in digest)
    assert digest == config_digest(SimConfig(duration=2.0), default_signature())
    assert digest != config_digest(SimConfig(duration=3.0), sig)
    assert digest != config_digest(cfg, PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2))


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
    plant = PlantLog(t, t + 1, t + 2, t + 3, t + 4, t + 5, t + 6)
    ctrl = CtrlLog(np.arange(n) * 0.02, t + 7, t + 8, t + 9, t + 10, t + 11,
                   t + 12, t + 13, t + 14, t + 15, t + 16, t + 17)
    return plant, ctrl


def test_merge_views_places_columns():
    plant, ctrl = _tiny_views()
    trace = merge_views(plant, ctrl)
    assert trace.complete
    np.testing.assert_array_equal(trace.x, plant.x)
    np.testing.assert_array_equal(trace.v_rx, plant.v_rx)
    np.testing.assert_array_equal(trace.x_obs, ctrl.x_obs)
    np.testing.assert_array_equal(trace.phi_ctrl, ctrl.phi_ctrl)
    ctrl.complete = False
    assert not merge_views(plant, ctrl).complete


def test_merge_views_rejects_mismatched_grids():
    plant, ctrl = _tiny_views(shift=0.01)
    with pytest.raises(ValueError):
        merge_views(plant, ctrl)


def test_view_csv_headers(tmp_path):
    plant, ctrl = _tiny_views()
    plant.to_csv(tmp_path / "plant.csv")
    ctrl.to_csv(tmp_path / "ctrl.csv")
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


def test_networked_attack_through_proxy_matches_in_process():
    cfg = SimConfig(duration=2.0)
    attack = build_reflection(1.0, cfg.p0)
    ports = []
    plant_bound, plant_wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=plant_bound, timeout=TIMEOUT)
    plant_port = plant_wait()
    proxy_bound, proxy_wait = _bound_port(ports)
    proxy_box = _spawn(
        serve_proxy, attack=attack, listen=("127.0.0.1", 0),
        upstream=("127.0.0.1", plant_port), on_bound=proxy_bound, timeout=TIMEOUT,
    )
    ctrl_log = run_controller(cfg, connect=("127.0.0.1", proxy_wait()), timeout=TIMEOUT)
    plant_log = _finish(plant_box)
    _finish(proxy_box)
    merged = merge_views(plant_log, ctrl_log)
    np.testing.assert_array_equal(merged.data, run(cfg, attack=attack).data)


def test_proxy_tampering_with_signature_stream_is_visible():
    # Scaling the Sig channel leaves positions untouched, so the controller's
    # own recomputation disagrees with what it was fed.
    cfg = SimConfig(duration=2.0)
    ports = []
    plant_bound, plant_wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=plant_bound, timeout=TIMEOUT)
    plant_port = plant_wait()
    proxy_bound, proxy_wait = _bound_port(ports)
    proxy_box = _spawn(
        serve_proxy, listen=("127.0.0.1", 0), upstream=("127.0.0.1", plant_port),
        sig_scale=2.0, on_bound=proxy_bound, timeout=TIMEOUT,
    )
    ctrl_log = run_controller(cfg, connect=("127.0.0.1", proxy_wait()), timeout=TIMEOUT)
    _finish(plant_box)
    _finish(proxy_box)
    residual = np.abs(ctrl_log.phi_plant - ctrl_log.phi_ctrl)
    assert float(residual.max()) > 1e-6
    # an honest direct session has a bitwise-clean signature stream
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    clean = run_controller(cfg, connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    _finish(plant_box)
    np.testing.assert_array_equal(clean.phi_plant, clean.phi_ctrl)


def test_mismatched_configs_refuse_to_run():
    plant_cfg = SimConfig(duration=3.0)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=plant_cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with pytest.raises(ProtocolError, match="refused"):
        run_controller(SimConfig(duration=2.0), connect=("127.0.0.1", wait()), timeout=TIMEOUT)
    with pytest.raises(ProtocolError, match="digest mismatch"):
        _finish(plant_box)


def test_out_of_sequence_peer_is_rejected():
    cfg = SimConfig(duration=1.0)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with socket.create_connection(("127.0.0.1", wait()), timeout=TIMEOUT) as sock:
        digest = config_digest(cfg, default_signature())
        send_message(sock, WireMessage("Hello", 7, 0.0, ("controller", digest)))
        with pytest.raises(ProtocolError, match="seq gap"):
            _finish(plant_box)


def test_lost_peer_yields_partial_log():
    cfg = SimConfig(duration=0.1)
    ports = []
    on_bound, wait = _bound_port(ports)
    plant_box = _spawn(serve_plant, cfg=cfg, port=0, on_bound=on_bound, timeout=TIMEOUT)
    with socket.create_connection(("127.0.0.1", wait()), timeout=TIMEOUT) as sock:
        digest = config_digest(cfg, default_signature())
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
