"""Deterministic closed-loop execution and undetectability reporting.

One run steps the plant at a fixed rate with zero-order-hold commands,
applying the attack's observable map before the controller and its command
map after, and logs a decimated trace of the actual state, the observed
state, both command streams, the body-frame error, the Lyapunov value, and
the signature evaluations on both sides of the channel. Logged ticks are
packed to bytes and read back as one table (_packed_rows).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import smsf
from .fdia import AffineAttack, _inverse_state, attack_command, attack_state
from .kinematics import Posture, rk4_step
from .tracking import ControllerGains, RefConfig, RunDiverged, _reference_rows, _table_steps, control

TRACE_COLUMNS = (
    "t",
    "x",
    "y",
    "theta",
    "x_obs",
    "y_obs",
    "theta_obs",
    "v_cmd",
    "w_cmd",
    "v_rx",
    "w_rx",
    "xe",
    "ye",
    "thetae",
    "V",
    "phi_plant",
    "phi_ctrl",
)
_ACTUAL = slice(TRACE_COLUMNS.index("x"), TRACE_COLUMNS.index("theta") + 1)
_OBSERVED = slice(TRACE_COLUMNS.index("x_obs"), TRACE_COLUMNS.index("theta_obs") + 1)


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop run configuration; 100 Hz stepping, 50 Hz logging by default."""

    ref: RefConfig = RefConfig()
    gains: ControllerGains = ControllerGains()
    p0: Posture = Posture(0.0, 0.02, 0.0)
    dt: float = 0.01  # s
    log_stride: int = 2  # log every log_stride-th tick
    duration: float = 30.0  # s

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"SimConfig.dt must be positive, got {self.dt}")
        if not isinstance(self.log_stride, int) or self.log_stride < 1:
            raise ValueError(f"SimConfig.log_stride must be a positive int, got {self.log_stride}")
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ValueError(f"SimConfig.duration must be positive, got {self.duration}")
        ratio = self.duration / self.dt
        steps = round(ratio) if math.isfinite(ratio) else 0
        if steps < 1 or abs(ratio - steps) > 1e-9 * steps:
            raise ValueError(
                f"SimConfig.duration {self.duration} is not a whole number of dt={self.dt} steps"
            )
        # reference_table(ref, dt) builds _table_steps + 1 rows, and the run reads steps + 1
        if _table_steps(self.ref, self.dt) < steps:
            raise ValueError(
                f"reference duration {self.ref.duration} shorter than run duration {self.duration}"
            )
        if steps % self.log_stride:  # run() logs the final tick only when the stride divides
            raise ValueError(f"SimConfig.log_stride {self.log_stride} does not divide"
                             f" the run's {steps} steps")

    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(eq=False)
class SimTrace:
    """A column table: rows of data named by columns, each readable as an attribute.

    run() and merge_views give the full TRACE_COLUMNS schema; the plant and
    controller views of a networked session hold their own column subsets.
    data is a 2-D array with one column per name; an empty array (a session
    that ended before its first tick) becomes a table of no rows. Tables
    compare by identity: compare their data arrays for equal contents.
    """

    data: np.ndarray
    columns: tuple = TRACE_COLUMNS
    complete: bool = True

    def __post_init__(self):
        self.columns = tuple(self.columns)
        data = np.asarray(self.data, dtype=float)
        if data.size == 0:
            data = data.reshape(0, len(self.columns))
        elif data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError(f"SimTrace data of shape {data.shape} does not hold"
                             f" {len(self.columns)} columns")
        self.data = data

    def __getattr__(self, name):
        # through __dict__: copy and pickle probe attributes before columns is set
        columns = self.__dict__.get("columns", ())
        if name not in columns:
            raise AttributeError(name)
        return self.data[:, columns.index(name)]

    def __len__(self) -> int:
        return self.data.shape[0]


def _packed_rows(width: int):
    """(pack, table) for a log of rows of `width` floats, the one packed-row format.

    pack(*row) gives one row's bytes as native float64s; table(rows) reads a
    list of them back as one writable (len(rows), width) array, (0, width)
    for none. The bytes are joined and read in one pass, where np.array
    would convert a list of tuples value by value.
    """
    def table(rows) -> np.ndarray:
        return np.frombuffer(bytearray().join(rows)).reshape(-1, width)

    return struct.Struct(f"{width}d").pack, table


def write_csv(path, columns, rows) -> None:
    """The one CSV writer: a header, then every value as "%.17g" (or "%s" for a str).

    "%.17g" round-trips float64 exactly, so repeated runs write byte-identical
    files. rows is either a 2-D numeric array with one column per name, cast
    to float64 and written by the vectorised kernel in fdia_lab._csvfloat,
    or a sequence of rows of Python scalars. For the latter each column holds
    one kind of value: the first row fixes the row template, "%s" for a str
    and "%.17g" for a number, and a later value of the other kind in a column
    raises TypeError; only str columns are checked per row.
    """
    if isinstance(rows, np.ndarray):
        from ._csvfloat import write_array  # compiled and built on the first array write

        array = np.asarray(rows, dtype=np.float64)
        if array.ndim != 2 or array.shape[1] != len(columns):
            raise ValueError(f"array of shape {array.shape} does not hold"
                             f" {len(columns)} columns")
        with open(path, "wb") as fh:
            fh.write((",".join(columns) + "\n").encode("utf-8"))
            write_array(fh, array)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fmt = None
        for row in rows:
            if fmt is None:
                fmt = ",".join(["%s" if isinstance(v, str) else "%.17g" for v in row]) + "\n"
                str_cols = [k for k, v in enumerate(row) if isinstance(v, str)]
            for k in str_cols:
                if not isinstance(row[k], str):
                    raise TypeError(f"column {columns[k]!r} holds str, got {row[k]!r}")
            fh.write(fmt % tuple(row))


def write_trace_csv(path, table: SimTrace) -> None:
    """A column table's rows under its column header, through the shared CSV writer."""
    write_csv(path, table.columns, table.data)


def run(cfg: SimConfig, attack: AffineAttack | None = None,
        signature: smsf.PolySignature = smsf.default_signature()) -> SimTrace:
    """Execute one closed-loop run and return its trace.

    Per tick: observe (through the attack's state map if present), apply the
    controller tick against the reference, pass the command through the
    attack's command map, log if due, then advance the plant one RK4 step.
    The final tick at t = duration is logged without stepping. Both signature
    columns are evaluated in one call on the logged positions after the loop,
    bitwise two separate calls, as every operation is elementwise. Identical
    configs yield bit-identical traces; a run that diverges to a non-finite
    state, command or signature value raises RunDiverged.
    """
    n_steps = cfg.n_steps()
    ref, gains, dt, stride = cfg.ref, cfg.gains, cfg.dt, cfg.log_stride
    x, y, th = cfg.p0.x, cfg.p0.y, cfg.p0.theta
    pack, table = _packed_rows(len(TRACE_COLUMNS) - 2)
    rows = []
    ref_rows = _reference_rows(cfg.ref, dt, n_steps + 1)
    try:
        for k, p_ref in enumerate(ref_rows):
            t = k * dt
            xo, yo, tho = (x, y, th) if attack is None else attack_state(attack, x, y, th)
            v, w, xe, ye, the, lyap = control(ref, gains, p_ref, xo, yo, tho)
            v_rx, w_rx = (v, w) if attack is None else attack_command(attack, v, w)
            if k % stride == 0:
                rows.append(pack(t, x, y, th, xo, yo, tho, v, w, v_rx, w_rx, xe, ye, the, lyap))
            if k < n_steps:
                x, y, th = rk4_step(x, y, th, v_rx, w_rx, dt)
    except ValueError as exc:  # math.cos or math.sin of an infinite heading
        raise RunDiverged(f"run diverged: non-finite heading at t = {k * dt:g} s") from exc
    data = np.empty((len(rows), len(TRACE_COLUMNS)))
    data[:, :-2] = table(rows)
    # (phi_plant, phi_ctrl) at the actual (x, y) and the observed (x_obs, y_obs);
    # an overflow there is caught with the rest of the table below
    with np.errstate(over="ignore", invalid="ignore"):
        data[:, -2:] = smsf.eval_signature(signature, data[:, [1, 4]], data[:, [2, 5]])
    if not np.isfinite(data).all():
        raise RunDiverged("run diverged: the trace holds non-finite values")
    return SimTrace(data)


@dataclass
class UndetectabilityReport:
    """Sup deviations between an attacked run and its nominal shadow."""

    sup_obs_dev: float
    sup_actual_dev: float
    undetectable: bool


def undetectability_report(attacked: SimTrace, nominal: SimTrace,
                           attack: AffineAttack, tol: float = 1e-9) -> UndetectabilityReport:
    """Compare the observed stream of an attacked run against the nominal run.

    sup_obs_dev is the max-norm deviation between the attacked run's observed
    posture and the nominal actual posture; sup_actual_dev compares the
    attacked actual posture against the affine inverse image of the nominal
    one. The verdict holds when sup_obs_dev <= tol. Both traces hold the full
    TRACE_COLUMNS schema, where x..theta and x_obs..theta_obs are adjacent
    column blocks, read as slices of the data.
    """
    if attacked.columns != TRACE_COLUMNS or nominal.columns != TRACE_COLUMNS:
        raise ValueError("undetectability_report compares two full traces")
    if not np.array_equal(attacked.t, nominal.t):
        raise ValueError("time grids differ between the two traces")
    nom = nominal.data[:, _ACTUAL]
    sup_obs = float(np.max(np.abs(attacked.data[:, _OBSERVED] - nom)))
    mapped = np.column_stack(_inverse_state(attack, *nom.T))
    sup_act = float(np.max(np.abs(attacked.data[:, _ACTUAL] - mapped)))
    return UndetectabilityReport(sup_obs, sup_act, sup_obs <= tol)
