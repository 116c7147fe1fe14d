"""Lock-step TCP wire protocol: plant server, controller client, attack proxy.

Frames are a 4-byte big-endian length prefix followed by a UTF-8 JSON object
{"kind", "seq", "t", "payload"} with floats serialized to 17 significant
digits, which round-trips float64 exactly: a networked run with an identity
proxy reproduces the in-process simulation bit for bit.

Each endpoint opens a session by sending its Hello (role, config digest) at
once and reading the peer's, and refuses a digest unlike its own; after the
final Cmd each sends Bye and reads the peer's. Per tick the plant sends Obs
(actual posture) then Sig (its signature value) in one write and waits for
Cmd. seq increases by one per frame per direction; gaps are protocol errors.
The proxy rewrites Obs through the attack's state map, Cmd through its
command map, and optionally Sig through a scalar affine channel.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import socket
import struct
import threading
import weakref
from dataclasses import asdict, dataclass

import numpy as np

from . import smsf
from .fdia import AffineAttack, _number, _shown, attack_command, attack_state
from .kinematics import rk4_step
from .simloop import TRACE_COLUMNS, RunDiverged, SimConfig, SimTrace, _packed_rows
from .tracking import _reference_rows, control

_NUMERIC_ARITY = {"Obs": 3, "Cmd": 2, "Sig": 1}
_STRING_ARITY = {"Hello": 2, "Bye": 1}
_ARITY = {**_NUMERIC_ARITY, **_STRING_ARITY}
MAX_FRAME = 1 << 20
_PREFIX = struct.Struct(">I")  # a frame's body length
_FIELDS = {"kind", "seq", "t", "payload"}
# one body template per kind, in bytes: %.17g per number (lossless for
# float64), %s per JSON string (json.dumps writes ASCII)
_TEMPLATES = {
    kind: ('{"kind":"%s","seq":%%d,"t":%%.17g,"payload":[%s]}' % (
        kind, ",".join(["%.17g" if kind in _NUMERIC_ARITY else "%s"] * n))).encode("ascii")
    for kind, n in _ARITY.items()
}
_READ_SIZE = 1 << 12  # bytes asked of each recv; a longer frame takes several
_FLOAT = frozenset({float})
# the scanner json.loads runs after skipping leading whitespace; alone it
# leaves trailing text unread instead of refusing it
_scan = json.JSONDecoder().raw_decode

DEFAULT_PLANT_PORT = 7701
DEFAULT_PROXY_PORT = 7702

PLANT_VIEW_COLUMNS = ("t", "x", "y", "theta", "v_rx", "w_rx", "phi_plant")
CTRL_VIEW_COLUMNS = (
    "t", "x_obs", "y_obs", "theta_obs", "v_cmd", "w_cmd",
    "xe", "ye", "thetae", "V", "phi_plant", "phi_ctrl",
)


class NetlinkError(Exception):
    """Base class for wire and protocol failures."""


class FrameLengthError(NetlinkError):
    """Malformed or oversized length prefix."""


class TruncatedFrameError(NetlinkError):
    """Frame shorter than its declared length."""


class WireFormatError(NetlinkError):
    """Frame bytes are not a valid message."""


class UnknownKindError(WireFormatError):
    """Message kind outside the protocol's five (Obs, Cmd, Sig, Hello, Bye)."""


class ProtocolError(NetlinkError):
    """Session-level violation: seq gap, wrong kind, digest mismatch."""


@dataclass(frozen=True)
class WireMessage:
    kind: str
    seq: int
    t: float
    payload: tuple

    def __post_init__(self):
        object.__setattr__(self, "payload", tuple(self.payload))


def _message(kind: str, seq: int, t: float, payload: tuple) -> WireMessage:
    """WireMessage(kind, seq, t, payload) for a payload that is already a tuple,
    without the frozen dataclass's __init__ and __post_init__."""
    msg = object.__new__(WireMessage)
    fields = msg.__dict__
    fields["kind"] = kind
    fields["seq"] = seq
    fields["t"] = t
    fields["payload"] = payload
    return msg


def _plain(kind, seq, t, payload) -> bool:
    """Whether a message is the common case, valid with no further check: a
    numeric kind, an in-range int seq, and t and a payload of the kind's arity
    all plain finite floats (a sum of floats is finite only if every term is).
    An overflowing sum says False, and _checked decides."""
    return (type(kind) is str and len(payload) == _NUMERIC_ARITY.get(kind)
            and type(seq) is int and 0 <= seq < 2**64 and type(t) is float and t - t == 0.0
            and _FLOAT.issuperset(map(type, payload)) and (s := sum(payload)) - s == 0.0)


def _checked(kind, seq, t, payload) -> WireMessage:
    """The message of these fields, each number an exactly held int read as
    its float; a kind outside the protocol raises UnknownKindError, and any
    other malformed field WireFormatError. encode and decode both call it
    when _plain says False."""
    if not isinstance(kind, str) or kind not in _ARITY:
        raise UnknownKindError(f"unknown message kind {_shown(kind)}")
    if not isinstance(seq, int) or isinstance(seq, bool) or not 0 <= seq < 2**64:
        raise WireFormatError(f"seq must be an int in [0, 2**64), got {_shown(seq)}")
    if not isinstance(payload, (list, tuple)):
        raise WireFormatError("payload must be a list")
    arity = _ARITY[kind]
    if kind in _NUMERIC_ARITY:
        if len(payload) != arity:
            raise WireFormatError(f"{kind} payload must have {arity} numbers")
        payload = tuple([_number(v, f"{kind} payload", WireFormatError) for v in payload])
    elif len(payload) != arity or not all(isinstance(v, str) for v in payload):
        raise WireFormatError(f"{kind} payload must be {arity} strings")
    return _message(kind, seq, _number(t, "t", WireFormatError), tuple(payload))


def encode(msg: WireMessage) -> bytes:
    """Length-prefixed frame; floats written as %.17g (lossless for float64)."""
    if not _plain(msg.kind, msg.seq, msg.t, msg.payload):
        msg = _checked(msg.kind, msg.seq, msg.t, msg.payload)
    items = (msg.payload if msg.kind in _NUMERIC_ARITY
             else [json.dumps(v).encode("ascii") for v in msg.payload])
    data = _TEMPLATES[msg.kind] % (msg.seq, msg.t, *items)
    if len(data) > MAX_FRAME:
        raise FrameLengthError(f"frame body of {len(data)} bytes exceeds {MAX_FRAME}")
    return _PREFIX.pack(len(data)) + data


def decode(frame: bytes) -> WireMessage:
    """Parse one complete frame (prefix included); distinct errors per failure mode."""
    try:
        (length,) = _PREFIX.unpack_from(frame)
    except struct.error:  # fewer than 4 bytes
        raise TruncatedFrameError(
            f"frame of {len(frame)} bytes is shorter than its prefix") from None
    if len(frame) != 4 + length or length > MAX_FRAME:
        if length > MAX_FRAME:
            raise FrameLengthError(f"declared length {length} exceeds {MAX_FRAME}")
        if len(frame) < 4 + length:
            raise TruncatedFrameError(f"declared {length} bytes, only {len(frame) - 4} present")
        raise WireFormatError(f"{len(frame) - 4 - length} trailing bytes after the frame")
    try:
        text = frame[4:].decode("utf-8")
        try:
            obj, end = _scan(text)
        except (ValueError, RecursionError):
            end = -1
        if end != len(text):  # whitespace or text around the value, or none: as json.loads
            obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer past the digit limit, or nesting
        # deeper than the parser's recursion limit
        raise WireFormatError(f"invalid frame body: {exc}") from exc
    # JSON objects, arrays and strings parse to exactly dict, list and str
    if type(obj) is not dict or obj.keys() != _FIELDS:
        raise WireFormatError("frame body must carry exactly kind/seq/t/payload")
    kind, seq, t, payload = obj["kind"], obj["seq"], obj["t"], obj["payload"]
    if type(payload) is list and _plain(kind, seq, t, payload):
        return _message(kind, seq, t, tuple(payload))
    # JSON reads a whole number such as 2 or -0 as an int, or the body is malformed
    return _checked(kind, seq, t, payload)


# the bytes each connection has read past the last frame returned, in a
# bytearray that lives as long as its socket object
_inboxes: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _frame_end(buf: bytearray) -> int:
    """Length, prefix included, of the whole frame at the front of buf; 0 until it is."""
    if len(buf) < 4:
        return 0
    (length,) = _PREFIX.unpack_from(buf)
    if length > MAX_FRAME:
        raise FrameLengthError(f"declared length {length} exceeds {MAX_FRAME}")
    return 4 + length if len(buf) >= 4 + length else 0


def _frame_buffered(sock: socket.socket) -> bool:
    """Whether a whole frame already waits in the buffer recv_message keeps for sock."""
    return _frame_end(_inboxes[sock]) > 0


def recv_message(sock: socket.socket) -> WireMessage | None:
    """The next message, or None on clean EOF at a frame boundary.

    Reads go through a per-connection buffer, so one recv may deliver
    several frames; the ones not yet returned wait there for the next call.
    An oversized prefix raises FrameLengthError as soon as it arrives, and
    EOF mid-frame raises TruncatedFrameError.
    """
    buf = _inboxes.get(sock)
    if buf is None:
        buf = _inboxes[sock] = bytearray()
    end = _frame_end(buf)
    while not end:
        chunk = sock.recv(_READ_SIZE)
        if not chunk:
            if not buf:
                return None
            raise TruncatedFrameError(f"connection closed {len(buf)} bytes into a frame")
        buf += chunk
        end = _frame_end(buf)
    frame = bytes(buf[:end])
    del buf[:end]
    return decode(frame)


def send_message(sock: socket.socket, *msgs: WireMessage) -> None:
    """Write the frames of msgs, in order, with one sendall.

    Every frame is encoded before the write, so nothing is sent when one of
    them is malformed.
    """
    sock.sendall(b"".join([encode(msg) for msg in msgs]))


def _expect(sock: socket.socket, rx, kind: str, lost=ConnectionError) -> WireMessage:
    """Receive the next in-sequence message of the given kind; EOF raises lost."""
    msg = recv_message(sock)
    if msg is None:
        raise lost(f"peer closed before {kind}")
    expected = next(rx)
    if msg.seq != expected:
        raise ProtocolError(f"seq gap: expected {expected}, got {msg.seq}")
    if msg.kind != kind:
        raise ProtocolError(f"expected {kind}, got {msg.kind}")
    return msg


def _require_finite(t: float, *values: float) -> None:
    """Raise RunDiverged, naming the tick's time t, unless every value is finite.

    An endpoint checks its own values before it sends them, where its encoder
    would refuse them as if they made a malformed frame.
    """
    if not all(map(math.isfinite, values)):
        raise RunDiverged(f"run diverged: non-finite value at t = {t:g} s")


def _config_digest(cfg: SimConfig, signature: smsf.PolySignature) -> str:
    """16-hex-char digest of the canonical run configuration."""
    payload = {"sim": asdict(cfg), "signature": smsf.signature_to_dict(signature)}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _greet(sock: socket.socket, role: str, cfg: SimConfig, sig) -> tuple:
    """Open a session: send this endpoint's Hello at once, then expect the peer's.

    Each side compares the peer's config digest with its own and refuses a
    mismatch. Returns the (rx, tx) seq counters, each past its Hello.
    """
    digest = _config_digest(cfg, sig)
    rx = itertools.count()
    tx = itertools.count()
    send_message(sock, WireMessage("Hello", next(tx), 0.0, (role, digest)))
    peer = _expect(sock, rx, "Hello", ProtocolError).payload[1]
    if peer != digest:
        raise ProtocolError(f"config digest mismatch: ours {digest}, peer {peer}")
    return rx, tx


def _part(sock: socket.socket, rx, tx, t: float) -> None:
    """Close a session: send Bye("complete"), then expect the peer's Bye."""
    send_message(sock, WireMessage("Bye", next(tx), t, ("complete",)))
    _expect(sock, rx, "Bye")


def serve_plant(cfg: SimConfig, signature: smsf.PolySignature | None = None,
                host: str = "127.0.0.1", port: int = DEFAULT_PLANT_PORT,
                on_bound=None, timeout: float = 30.0) -> SimTrace:
    """Serve one lock-step session as the plant; returns its view (PLANT_VIEW_COLUMNS).

    Connection loss mid-run returns the partial log with complete=False.
    """
    sig = signature if signature is not None else smsf.default_signature()
    with _accept_one((host, port), on_bound, timeout) as conn:
        return _plant_session(conn, cfg, sig)


def _lock_step(sock: socket.socket, timeout: float) -> socket.socket:
    """sock with the session timeout, and Nagle's algorithm off: each write goes out at once."""
    sock.settimeout(timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _accept_one(addr, on_bound, timeout: float) -> socket.socket:
    """Listen on addr, pass the bound port to on_bound and accept one peer.

    The listener is closed whether or not a peer arrives.
    """
    with socket.create_server(tuple(addr)) as srv:
        srv.settimeout(timeout)
        if on_bound is not None:
            on_bound(srv.getsockname()[1])
        conn, _addr = srv.accept()
    return _lock_step(conn, timeout)


def _plant_session(conn: socket.socket, cfg: SimConfig, sig) -> SimTrace:
    rx, tx = _greet(conn, "plant", cfg, sig)
    n_steps = cfg.n_steps()
    x, y, th = cfg.p0.x, cfg.p0.y, cfg.p0.theta
    pack, table = _packed_rows(len(PLANT_VIEW_COLUMNS))
    rows = []
    complete = False
    try:
        for k in range(n_steps + 1):
            t = k * cfg.dt
            phi = smsf.eval_signature(sig, x, y)
            _require_finite(t, x, y, th, phi)
            send_message(conn, _message("Obs", next(tx), t, (x, y, th)),
                         _message("Sig", next(tx), t, (phi,)))
            v, w = _expect(conn, rx, "Cmd").payload
            if k % cfg.log_stride == 0:
                rows.append(pack(t, x, y, th, v, w, phi))
            if k < n_steps:
                x, y, th = rk4_step(x, y, th, v, w, cfg.dt)
        _part(conn, rx, tx, n_steps * cfg.dt)
        complete = True
    except (OSError, TruncatedFrameError):
        pass  # lost peer: hand back the partial log, flagged incomplete
    return SimTrace(table(rows), PLANT_VIEW_COLUMNS, complete)


def run_controller(cfg: SimConfig, connect=("127.0.0.1", DEFAULT_PROXY_PORT),
                   signature: smsf.PolySignature | None = None,
                   timeout: float = 30.0) -> SimTrace:
    """Drive one lock-step session as the controller; returns its view (CTRL_VIEW_COLUMNS)."""
    sig = signature if signature is not None else smsf.default_signature()
    with _lock_step(socket.create_connection(connect, timeout=timeout), timeout) as sock:
        return _controller_session(sock, cfg, sig)


def _controller_session(sock: socket.socket, cfg: SimConfig, sig) -> SimTrace:
    rx, tx = _greet(sock, "controller", cfg, sig)
    n_steps = cfg.n_steps()
    refs = _reference_rows(cfg.ref, cfg.dt, n_steps + 1)
    ref, gains = cfg.ref, cfg.gains
    pack, table = _packed_rows(len(CTRL_VIEW_COLUMNS) - 1)
    rows = []
    complete = False
    try:
        for k, p_ref in enumerate(refs):
            t = k * cfg.dt
            x, y, th = _expect(sock, rx, "Obs").payload
            (phi_rx,) = _expect(sock, rx, "Sig").payload
            v, w, xe, ye, the, lyap = control(ref, gains, p_ref, x, y, th)
            _require_finite(t, v, w, xe, ye, the, lyap)
            send_message(sock, _message("Cmd", next(tx), t, (v, w)))
            if k % cfg.log_stride == 0:
                rows.append(pack(t, x, y, th, v, w, xe, ye, the, lyap, phi_rx))
        _part(sock, rx, tx, n_steps * cfg.dt)
        complete = True
    except (OSError, TruncatedFrameError):
        pass
    arr = table(rows)
    # Phi at the observed positions, which the attack may have moved far enough
    # to overflow it; the view is then refused whole, as run() refuses its table
    with np.errstate(over="ignore", invalid="ignore"):
        phi_ctrl = smsf.eval_signature(sig, arr[:, 1], arr[:, 2])
    view = np.column_stack([arr, phi_ctrl])
    if not np.isfinite(view).all():
        raise RunDiverged("run diverged: the controller view holds non-finite values")
    return SimTrace(view, CTRL_VIEW_COLUMNS, complete)


def _transform_factory(attack: AffineAttack | None, sig_scale: float, sig_offset: float):
    def transform(msg: WireMessage) -> WireMessage:
        if msg.kind == "Obs" and attack is not None:
            return _message("Obs", msg.seq, msg.t, attack_state(attack, *msg.payload))
        if msg.kind == "Cmd" and attack is not None:
            return _message("Cmd", msg.seq, msg.t, attack_command(attack, *msg.payload))
        if msg.kind == "Sig" and not (sig_scale == 1.0 and sig_offset == 0.0):
            return _message("Sig", msg.seq, msg.t, (sig_scale * msg.payload[0] + sig_offset,))
        return msg

    return transform


def _pump(src: socket.socket, dst: socket.socket, transform) -> None:
    """Forward src's messages to dst through transform, then shut dst's write side.

    What one read delivered goes out in one write. On a bad frame the
    messages before it are still forwarded.
    """
    batch = []
    try:
        while (msg := recv_message(src)) is not None:
            batch.append(transform(msg))
            if not _frame_buffered(src):
                out, batch = batch, []
                send_message(dst, *out)
    except NetlinkError:
        with contextlib.suppress(OSError, NetlinkError):
            send_message(dst, *batch)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            dst.shutdown(socket.SHUT_WR)


def serve_proxy(attack: AffineAttack | None = None,
                listen=("127.0.0.1", DEFAULT_PROXY_PORT),
                upstream=("127.0.0.1", DEFAULT_PLANT_PORT),
                sig_scale: float = 1.0, sig_offset: float = 0.0,
                on_bound=None, timeout: float = 30.0) -> None:
    """Man-in-the-middle for one session: accept the controller, dial the plant.

    With attack=None and the identity Sig channel this is a transparent
    forwarder; frames pass through unmodified, in order, per direction.
    """
    transform = _transform_factory(attack, sig_scale, sig_offset)
    with (_accept_one(listen, on_bound, timeout) as ctl,
          _lock_step(socket.create_connection(tuple(upstream), timeout=timeout), timeout) as up):
        down_pump = threading.Thread(target=_pump, args=(ctl, up, transform), daemon=True)
        up_pump = threading.Thread(target=_pump, args=(up, ctl, transform), daemon=True)
        down_pump.start()
        up_pump.start()
        down_pump.join()
        up_pump.join()


def merge_views(plant: SimTrace, ctrl: SimTrace) -> SimTrace:
    """Assemble the full trace schema from the two honest views.

    Each column comes from the controller view where it has one, else from
    the plant view, so phi_plant is the stream the controller received.
    """
    n = min(len(plant), len(ctrl))
    if not np.array_equal(plant.t[:n], ctrl.t[:n]):
        raise ValueError("time grids differ between the two views")
    cols = [getattr(ctrl if c in ctrl.columns else plant, c)[:n] for c in TRACE_COLUMNS]
    return SimTrace(np.column_stack(cols), complete=plant.complete and ctrl.complete)
