"""Deterministic closed-loop execution and undetectability reporting.

One run steps the plant at a fixed rate with zero-order-hold commands,
applying the attack's observable map before the controller and its command
map after, and logs a decimated trace of the actual state, the observed
state, both command streams, the body-frame error, the Lyapunov value, and
the signature evaluations on both sides of the channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import smsf
from .fdia import AffineAttack, attack_command, attack_state
from .kinematics import Posture, rk4_step
from .tracking import ControllerGains, RefConfig, control, reference_table

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
_COL_INDEX = {name: k for k, name in enumerate(TRACE_COLUMNS)}


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
        steps = round(self.duration / self.dt)
        if steps < 1 or abs(self.duration / self.dt - steps) > 1e-9 * steps:
            raise ValueError(
                f"SimConfig.duration {self.duration} is not a whole number of dt={self.dt} steps"
            )
        if self.ref.duration < self.duration - 1e-9:
            raise ValueError(
                f"reference duration {self.ref.duration} shorter than run duration {self.duration}"
            )

    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass
class SimTrace:
    """Logged run: data rows in TRACE_COLUMNS order; columns readable as attributes."""

    data: np.ndarray
    complete: bool = True

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float).reshape(-1, len(TRACE_COLUMNS))

    def __getattr__(self, name):
        idx = _COL_INDEX.get(name)
        if idx is None:
            raise AttributeError(name)
        return self.data[:, idx]

    def __len__(self) -> int:
        return self.data.shape[0]

    def to_csv(self, path) -> None:
        write_trace_csv(path, self.data)

    @staticmethod
    def from_csv(path) -> "SimTrace":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != ",".join(TRACE_COLUMNS):
                raise ValueError(f"unexpected trace header in {path}")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        return SimTrace(data)


def write_csv(path, columns, rows) -> None:
    """The one CSV writer: a header, then rows of Python scalars (``array.tolist()``).

    Strings are written as given and numbers as format(v, ".17g"), which
    round-trips float64 exactly, so repeated runs write byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else format(v, ".17g")
                               for v in row]) + "\n")


def write_trace_csv(path, data: np.ndarray) -> None:
    """Trace rows in TRACE_COLUMNS order, through the shared CSV writer."""
    write_csv(path, TRACE_COLUMNS, np.asarray(data).tolist())


def run(cfg: SimConfig, attack: AffineAttack | None = None,
        signature: smsf.PolySignature | None = None) -> SimTrace:
    """Execute one closed-loop run and return its trace.

    Per tick: observe (through the attack's state map if present), apply the
    controller tick against the reference, pass the command through the
    attack's command map, log if due, then advance the plant one RK4 step.
    The final tick at t = duration is logged without stepping. The signature
    columns are evaluated on the logged positions after the loop. Identical
    configs yield bit-identical traces; a run that diverges to a non-finite
    state or command raises ValueError.
    """
    sig = signature if signature is not None else smsf.default_signature()
    table = reference_table(cfg.ref, cfg.dt)
    n_steps = cfg.n_steps()
    if len(table) < n_steps + 1:
        raise ValueError("reference table shorter than the run")
    refs = table.tolist()
    ref, gains, dt, stride = cfg.ref, cfg.gains, cfg.dt, cfg.log_stride
    x, y, th = cfg.p0.x, cfg.p0.y, cfg.p0.theta
    rows = []
    for k in range(n_steps + 1):
        t = k * dt
        xo, yo, tho = (x, y, th) if attack is None else attack_state(attack, x, y, th)
        v, w, xe, ye, the, lyap = control(ref, gains, refs[k], t, xo, yo, tho)
        v_rx, w_rx = (v, w) if attack is None else attack_command(attack, v, w)
        if k % stride == 0:
            rows.append((t, x, y, th, xo, yo, tho, v, w, v_rx, w_rx, xe, ye, the, lyap))
        if k < n_steps:
            x, y, th = rk4_step(x, y, th, v_rx, w_rx, dt)
    data = np.empty((len(rows), len(TRACE_COLUMNS)))
    data[:, :-2] = rows
    if not np.isfinite(data[:, :-2]).all():
        raise ValueError("run diverged: the trace holds non-finite values")
    data[:, -2] = smsf.eval_signature(sig, data[:, 1], data[:, 2])
    data[:, -1] = smsf.eval_signature(sig, data[:, 4], data[:, 5])
    return SimTrace(data)


@dataclass
class UndetectabilityReport:
    """Sup deviations between an attacked run and its nominal shadow."""

    sup_obs_dev: float
    sup_actual_dev: float
    undetectable: bool
    tol: float


def undetectability_report(attacked: SimTrace, nominal: SimTrace,
                           attack: AffineAttack, tol: float = 1e-9) -> UndetectabilityReport:
    """Compare the observed stream of an attacked run against the nominal run.

    sup_obs_dev is the max-norm deviation between the attacked run's observed
    posture and the nominal actual posture; sup_actual_dev compares the
    attacked actual posture against the affine inverse image of the nominal
    one. The verdict holds when sup_obs_dev <= tol.
    """
    if not np.array_equal(attacked.t, nominal.t):
        raise ValueError("time grids differ between the two traces")
    obs = np.stack([attacked.x_obs, attacked.y_obs, attacked.theta_obs], axis=1)
    nom = np.stack([nominal.x, nominal.y, nominal.theta], axis=1)
    sup_obs = float(np.max(np.abs(obs - nom)))

    act = np.stack([attacked.x, attacked.y, attacked.theta], axis=1)
    mapped = np.linalg.solve(attack.s_x, (nom - attack.d_x).T).T
    sup_act = float(np.max(np.abs(act - mapped)))
    return UndetectabilityReport(sup_obs, sup_act, sup_obs <= tol, tol)
