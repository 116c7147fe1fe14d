"""Lock-step TCP wire protocol: plant server, controller client, attack proxy.

Frames are a 4-byte big-endian length prefix followed by a UTF-8 JSON object
{"kind", "seq", "t", "payload"} with floats serialized to 17 significant
digits, which round-trips float64 exactly: a networked run with an identity
proxy reproduces the in-process simulation bit for bit.

Per tick the plant sends Obs (actual posture) then Sig (its signature value)
and waits for Cmd; after the final Cmd the controller sends Bye and the
plant answers Bye. Hello opens each direction carrying (role, config
digest). seq increases by one per frame per direction; gaps are protocol
errors. The proxy rewrites Obs through the attack's state map, Cmd through
its command map, and optionally Sig through a scalar affine channel.
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import struct
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import smsf
from .fdia import AffineAttack, attack_command, attack_state
from .kinematics import rk4_step
from .simloop import SimConfig, SimTrace, write_csv
from .tracking import control, reference_table

MSG_KINDS = ("Obs", "Cmd", "Sig", "Hello", "Bye")
_NUMERIC_ARITY = {"Obs": 3, "Cmd": 2, "Sig": 1}
_STRING_ARITY = {"Hello": 2, "Bye": 1}
MAX_FRAME = 1 << 20

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
    """Message kind outside MSG_KINDS."""


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


def _is_wire_number(v) -> bool:
    """An int or float (not a bool) that float64 holds exactly and finitely."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v) and float(v) == v
    except OverflowError:  # an int beyond float64's range
        return False


def _check_message(msg: WireMessage) -> None:
    if msg.kind not in MSG_KINDS:
        raise UnknownKindError(f"unknown message kind {msg.kind!r}")
    if not isinstance(msg.seq, int) or isinstance(msg.seq, bool) or msg.seq < 0:
        raise WireFormatError(f"seq must be a non-negative int, got {msg.seq!r}")
    if not _is_wire_number(msg.t):
        raise WireFormatError(f"t must be a finite float64, got {msg.t!r}")
    if msg.kind in _NUMERIC_ARITY:
        arity = _NUMERIC_ARITY[msg.kind]
        if len(msg.payload) != arity:
            raise WireFormatError(f"{msg.kind} payload must have {arity} numbers")
        for v in msg.payload:
            if not _is_wire_number(v):
                raise WireFormatError(f"{msg.kind} payload must be finite numbers, got {v!r}")
    else:
        arity = _STRING_ARITY[msg.kind]
        if len(msg.payload) != arity or not all(isinstance(v, str) for v in msg.payload):
            raise WireFormatError(f"{msg.kind} payload must be {arity} strings")


def encode(msg: WireMessage) -> bytes:
    """Length-prefixed frame; floats written as %.17g (lossless for float64)."""
    _check_message(msg)
    if msg.kind in _NUMERIC_ARITY:
        items = ",".join(format(float(v), ".17g") for v in msg.payload)
    else:
        items = ",".join(json.dumps(v) for v in msg.payload)
    body = '{"kind":"%s","seq":%d,"t":%s,"payload":[%s]}' % (
        msg.kind, msg.seq, format(float(msg.t), ".17g"), items,
    )
    data = body.encode("utf-8")
    if len(data) > MAX_FRAME:
        raise FrameLengthError(f"frame body of {len(data)} bytes exceeds {MAX_FRAME}")
    return struct.pack(">I", len(data)) + data


def decode(frame: bytes) -> WireMessage:
    """Parse one complete frame (prefix included); distinct errors per failure mode."""
    if len(frame) < 4:
        raise TruncatedFrameError(f"frame of {len(frame)} bytes is shorter than its prefix")
    (length,) = struct.unpack(">I", frame[:4])
    if length > MAX_FRAME:
        raise FrameLengthError(f"declared length {length} exceeds {MAX_FRAME}")
    if len(frame) < 4 + length:
        raise TruncatedFrameError(f"declared {length} bytes, only {len(frame) - 4} present")
    if len(frame) > 4 + length:
        raise WireFormatError(f"{len(frame) - 4 - length} trailing bytes after the frame")
    try:
        return _message_from(json.loads(frame[4:].decode("utf-8")))
    except (ValueError, OverflowError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer past the digit limit or past float64's
        # range, or nesting deeper than the parser's recursion limit
        raise WireFormatError(f"invalid frame body: {exc}") from exc


def _message_from(obj) -> WireMessage:
    if not isinstance(obj, dict) or set(obj) != {"kind", "seq", "t", "payload"}:
        raise WireFormatError("frame body must carry exactly kind/seq/t/payload")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in MSG_KINDS:
        raise UnknownKindError(f"unknown message kind {kind!r}")
    if not isinstance(obj["payload"], list):
        raise WireFormatError("payload must be a list")
    payload = tuple(
        float(v) if kind in _NUMERIC_ARITY and isinstance(v, int) and not isinstance(v, bool)
        else v
        for v in obj["payload"]
    )
    msg = WireMessage(kind, obj["seq"], obj["t"], payload)
    _check_message(msg)
    return msg


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """n bytes or None on clean EOF at a frame boundary; raises mid-frame."""
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise TruncatedFrameError(f"connection closed {n - got} bytes into a frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> WireMessage | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise FrameLengthError(f"declared length {length} exceeds {MAX_FRAME}")
    body = _recv_exact(sock, length)
    if body is None:
        raise TruncatedFrameError("connection closed between prefix and body")
    return decode(header + body)


def send_message(sock: socket.socket, msg: WireMessage) -> None:
    sock.sendall(encode(msg))


class _SeqCounter:
    def __init__(self):
        self._next = 0

    def next(self) -> int:
        seq = self._next
        self._next += 1
        return seq


class _SeqChecker:
    def __init__(self):
        self.expected = 0

    def check(self, msg: WireMessage) -> WireMessage:
        if msg.seq != self.expected:
            raise ProtocolError(f"seq gap: expected {self.expected}, got {msg.seq}")
        self.expected += 1
        return msg


def _expect(sock: socket.socket, rx: _SeqChecker, kind: str,
            where: str = "mid-run") -> WireMessage:
    """Receive the next in-sequence message of the given kind."""
    msg = recv_message(sock)
    if msg is None:
        raise ConnectionError(f"peer closed {where}")
    rx.check(msg)
    if msg.kind != kind:
        raise ProtocolError(f"expected {kind}, got {msg.kind}")
    return msg


def config_digest(cfg: SimConfig, signature: smsf.PolySignature) -> str:
    """16-hex-char digest of the canonical run configuration."""
    payload = {"sim": asdict(cfg), "signature": smsf.signature_to_dict(signature)}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class PlantLog:
    """Plant-side view of a networked run (what the plant can actually know)."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    v_rx: np.ndarray
    w_rx: np.ndarray
    phi_plant: np.ndarray
    complete: bool = True

    def to_csv(self, path) -> None:
        _write_view_csv(path, self, PLANT_VIEW_COLUMNS)


@dataclass
class CtrlLog:
    """Controller-side view of a networked run."""

    t: np.ndarray
    x_obs: np.ndarray
    y_obs: np.ndarray
    theta_obs: np.ndarray
    v_cmd: np.ndarray
    w_cmd: np.ndarray
    xe: np.ndarray
    ye: np.ndarray
    thetae: np.ndarray
    V: np.ndarray
    phi_plant: np.ndarray  # received over the Sig channel
    phi_ctrl: np.ndarray
    complete: bool = True

    def to_csv(self, path) -> None:
        _write_view_csv(path, self, CTRL_VIEW_COLUMNS)


def _write_view_csv(path, log, columns) -> None:
    """A view log's fields named by its column tuple, in that order."""
    write_csv(path, columns, np.column_stack([getattr(log, c) for c in columns]).tolist())


def serve_plant(cfg: SimConfig, signature: smsf.PolySignature | None = None,
                host: str = "127.0.0.1", port: int = DEFAULT_PLANT_PORT,
                on_bound=None, timeout: float = 30.0) -> PlantLog:
    """Serve one lock-step session as the plant; returns the plant-side log.

    Connection loss mid-run returns the partial log with complete=False.
    """
    sig = signature if signature is not None else smsf.default_signature()
    srv = socket.create_server((host, port))
    srv.settimeout(timeout)
    if on_bound is not None:
        on_bound(srv.getsockname()[1])
    try:
        conn, _addr = srv.accept()
    finally:
        srv.close()
    conn.settimeout(timeout)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        return _plant_session(conn, cfg, sig)
    finally:
        conn.close()


def _plant_session(conn: socket.socket, cfg: SimConfig, sig) -> PlantLog:
    digest = config_digest(cfg, sig)
    rx = _SeqChecker()
    tx = _SeqCounter()
    hello = recv_message(conn)
    if hello is None:
        raise ProtocolError("peer closed before Hello")
    rx.check(hello)
    if hello.kind != "Hello":
        raise ProtocolError(f"expected Hello, got {hello.kind}")
    if hello.payload[1] != digest:
        send_message(conn, WireMessage("Bye", tx.next(), 0.0, ("digest mismatch",)))
        raise ProtocolError(f"config digest mismatch: ours {digest}, peer {hello.payload[1]}")
    send_message(conn, WireMessage("Hello", tx.next(), 0.0, ("plant", digest)))

    n_steps = cfg.n_steps()
    x, y, th = cfg.p0.x, cfg.p0.y, cfg.p0.theta
    rows = []
    complete = False
    try:
        for k in range(n_steps + 1):
            t = k * cfg.dt
            phi = smsf.eval_signature(sig, x, y)
            send_message(conn, WireMessage("Obs", tx.next(), t, (x, y, th)))
            send_message(conn, WireMessage("Sig", tx.next(), t, (phi,)))
            v, w = _expect(conn, rx, "Cmd").payload
            if k % cfg.log_stride == 0:
                rows.append((t, x, y, th, v, w, phi))
            if k < n_steps:
                x, y, th = rk4_step(x, y, th, v, w, cfg.dt)
        _expect(conn, rx, "Bye", "before Bye")
        send_message(conn, WireMessage("Bye", tx.next(), n_steps * cfg.dt, ("complete",)))
        complete = True
    except (OSError, TruncatedFrameError):
        pass  # lost peer: hand back the partial log, flagged incomplete
    arr = np.array(rows, dtype=float).reshape(-1, 7)
    return PlantLog(*(arr[:, i] for i in range(7)), complete=complete)


def run_controller(cfg: SimConfig, connect=("127.0.0.1", DEFAULT_PROXY_PORT),
                   signature: smsf.PolySignature | None = None,
                   timeout: float = 30.0) -> CtrlLog:
    """Drive one lock-step session as the controller; returns its view."""
    sig = signature if signature is not None else smsf.default_signature()
    sock = socket.create_connection(connect, timeout=timeout)
    sock.settimeout(timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        return _controller_session(sock, cfg, sig)
    finally:
        sock.close()


def _controller_session(sock: socket.socket, cfg: SimConfig, sig) -> CtrlLog:
    digest = config_digest(cfg, sig)
    rx = _SeqChecker()
    tx = _SeqCounter()
    send_message(sock, WireMessage("Hello", tx.next(), 0.0, ("controller", digest)))
    hello = recv_message(sock)
    if hello is None:
        raise ProtocolError("peer closed before Hello")
    rx.check(hello)
    if hello.kind == "Bye":
        raise ProtocolError(f"peer refused session: {hello.payload[0]}")
    if hello.kind != "Hello":
        raise ProtocolError(f"expected Hello, got {hello.kind}")
    if hello.payload[1] != digest:
        raise ProtocolError(f"config digest mismatch: ours {digest}, peer {hello.payload[1]}")

    refs = reference_table(cfg.ref, cfg.dt).tolist()
    ref, gains = cfg.ref, cfg.gains
    rows = []
    complete = False
    try:
        for k in range(cfg.n_steps() + 1):
            t = k * cfg.dt
            x, y, th = _expect(sock, rx, "Obs").payload
            (phi_rx,) = _expect(sock, rx, "Sig").payload
            v, w, xe, ye, the, lyap = control(ref, gains, refs[k], t, x, y, th)
            send_message(sock, WireMessage("Cmd", tx.next(), t, (v, w)))
            if k % cfg.log_stride == 0:
                rows.append((t, x, y, th, v, w, xe, ye, the, lyap, phi_rx))
        send_message(sock, WireMessage("Bye", tx.next(), cfg.duration, ("complete",)))
        _expect(sock, rx, "Bye", "before Bye")
        complete = True
    except (OSError, TruncatedFrameError):
        pass
    arr = np.array(rows, dtype=float).reshape(-1, 11)
    phi_ctrl = smsf.eval_signature(sig, arr[:, 1], arr[:, 2])
    return CtrlLog(*(arr[:, i] for i in range(11)), phi_ctrl, complete=complete)


def _transform_factory(attack: AffineAttack | None, sig_scale: float, sig_offset: float):
    def transform(msg: WireMessage) -> WireMessage:
        if msg.kind == "Obs" and attack is not None:
            return WireMessage("Obs", msg.seq, msg.t, attack_state(attack, *msg.payload))
        if msg.kind == "Cmd" and attack is not None:
            return WireMessage("Cmd", msg.seq, msg.t, attack_command(attack, *msg.payload))
        if msg.kind == "Sig" and not (sig_scale == 1.0 and sig_offset == 0.0):
            return WireMessage("Sig", msg.seq, msg.t,
                               (sig_scale * msg.payload[0] + sig_offset,))
        return msg

    return transform


def _pump(src: socket.socket, dst: socket.socket, transform) -> None:
    try:
        while True:
            msg = recv_message(src)
            if msg is None:
                break
            send_message(dst, transform(msg))
    except (OSError, NetlinkError):
        pass
    finally:
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass


def serve_proxy(attack: AffineAttack | None = None,
                listen=("127.0.0.1", DEFAULT_PROXY_PORT),
                upstream=("127.0.0.1", DEFAULT_PLANT_PORT),
                sig_scale: float = 1.0, sig_offset: float = 0.0,
                on_bound=None, timeout: float = 30.0) -> None:
    """Man-in-the-middle for one session: accept the controller, dial the plant.

    With attack=None and the identity Sig channel this is a transparent
    forwarder; frames pass through unmodified, in order, per direction.
    """
    srv = socket.create_server(tuple(listen))
    srv.settimeout(timeout)
    if on_bound is not None:
        on_bound(srv.getsockname()[1])
    try:
        ctl, _addr = srv.accept()
    finally:
        srv.close()
    ctl.settimeout(timeout)
    ctl.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        up = socket.create_connection(tuple(upstream), timeout=timeout)
    except OSError:
        ctl.close()
        raise
    up.settimeout(timeout)
    up.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    transform = _transform_factory(attack, sig_scale, sig_offset)
    down_pump = threading.Thread(target=_pump, args=(ctl, up, transform), daemon=True)
    up_pump = threading.Thread(target=_pump, args=(up, ctl, transform), daemon=True)
    down_pump.start()
    up_pump.start()
    down_pump.join()
    up_pump.join()
    ctl.close()
    up.close()


def merge_views(plant: PlantLog, ctrl: CtrlLog) -> SimTrace:
    """Assemble the full trace schema from the two honest views."""
    n = min(len(plant.t), len(ctrl.t))
    if not np.array_equal(plant.t[:n], ctrl.t[:n]):
        raise ValueError("time grids differ between the two views")
    cols = [
        plant.t[:n], plant.x[:n], plant.y[:n], plant.theta[:n],
        ctrl.x_obs[:n], ctrl.y_obs[:n], ctrl.theta_obs[:n],
        ctrl.v_cmd[:n], ctrl.w_cmd[:n],
        plant.v_rx[:n], plant.w_rx[:n],
        ctrl.xe[:n], ctrl.ye[:n], ctrl.thetae[:n], ctrl.V[:n],
        ctrl.phi_plant[:n], ctrl.phi_ctrl[:n],
    ]
    return SimTrace(np.column_stack(cols), complete=plant.complete and ctrl.complete)
