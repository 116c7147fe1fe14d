"""Adversarial estimation of the signature function by polynomial regression.

The attacker intercepts (x, y, Phi(x, y)) triples, fits a degree-bounded
bivariate polynomial by least squares, and spoofs the plant-side stream with
the estimate evaluated at the observable the controller is being fed.
Interception is imperfect: an optional seeded Gaussian position noise stands
in for the localization error of a real deployment (the signature value
itself is the plant's exact output). Estimation quality is scored as NRMSE
on a held-out grid spanning the plant's operating region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simloop import SimTrace
from .smsf import PolySignature, _powers, default_signature, eval_signature

# study protocol defaults: interception noise [m]
STUDY_NOISE_STD = 0.01
# the spiral probe's turns and radius [m], and the held-out grid's points per
# axis and its inflation of the trajectory's bounding box
_SPIRAL_TURNS = 4.0
_SPIRAL_RADIUS = 0.39
_HOLDOUT_N = 50
_HOLDOUT_INFLATE = 0.2
# the fit's (i, j) exponent pairs, i + j <= 4, in graded-lexicographic order
_BASIS = tuple((d - j, j) for d in range(5) for j in range(d + 1))


class UnderdeterminedFit(ValueError):
    """Raised when the sample set cannot pin down the polynomial coefficients.

    That is too few samples, a rank-deficient design, or sample positions so
    large that the design's monomials overflow.
    """


@dataclass
class SampleSet:
    """Intercepted triples; positions may carry interception noise."""

    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).ravel()
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.phi = np.asarray(self.phi, dtype=float).ravel()
        if not (len(self.x) == len(self.y) == len(self.phi)):
            raise ValueError("x, y, phi must have equal length")
        if len(self.x) == 0:
            raise ValueError("sample set is empty")

    @property
    def count(self) -> int:
        return len(self.x)


def _design_matrix(x: np.ndarray, y: np.ndarray, basis) -> np.ndarray:
    px, py = _powers(x, [i for i, _j in basis]), _powers(y, [j for _i, j in basis])
    return np.column_stack(np.broadcast_arrays(*[px[i] * py[j] for (i, j) in basis]))


def fit_signature(samples: SampleSet) -> PolySignature:
    """Least-squares degree-4 polynomial fit of the intercepted signature values.

    Solved via numpy's SVD-based lstsq. The rank cutoff (rcond=1e-15) only
    trips on exact degeneracy such as too few samples, duplicated points, or
    samples confined to a coordinate axis; merely ill-conditioned coverage
    (a short trajectory arc) returns the honest, poorly extrapolating fit.
    """
    if samples.count < len(_BASIS):
        raise UnderdeterminedFit(
            f"under-determined: {samples.count} samples for {len(_BASIS)} coefficients"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        design = _design_matrix(samples.x, samples.y, _BASIS)
    # lstsq fails to converge on an overflowed design, with no clearer message
    if not np.isfinite(design).all():
        raise UnderdeterminedFit("no fit: sample positions overflow the degree-4 design matrix")
    coeff, _, rank, _ = np.linalg.lstsq(design, samples.phi, rcond=1e-15)
    if rank < len(_BASIS):
        raise UnderdeterminedFit(
            "under-determined: rank-deficient design matrix (insufficient workspace coverage)"
        )
    return PolySignature(dict(zip(_BASIS, (float(c) for c in coeff))))


def nrmse(estimate: PolySignature, truth: PolySignature, eval_xy) -> float:
    """RMSE of (estimate - truth) over the evaluation set, normalized by the truth range."""
    pts = np.asarray(eval_xy, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("eval_xy must be a nonempty (n, 2) array of positions")
    est = eval_signature(estimate, pts[:, 0], pts[:, 1])
    tru = eval_signature(truth, pts[:, 0], pts[:, 1])
    rng = float(tru.max() - tru.min())
    if rng <= 0.0:
        raise ValueError("truth has zero range on the evaluation set")
    return float(np.sqrt(np.mean((est - tru) ** 2)) / rng)


def _intercepted(x: np.ndarray, y: np.ndarray, noise_std: float, seed: int):
    """x and y as intercepted: with noise_std > 0, seeded Gaussian noise drawn for x, then y."""
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_std, len(x))
        y = y + rng.normal(0.0, noise_std, len(y))
    return x, y


def spiral_samples(n: int, sig: PolySignature = default_signature(), noise_std: float = 0.0,
                   seed: int = 0) -> SampleSet:
    """Fictitious Archimedean spiral probe: r = 0.39*s, angle = 2*pi*4*s.

    s runs uniformly over [0, 1] in n samples, so the probe always covers the
    full spiral and only the density grows with n. Phi comes from sig at the
    true spiral points; noise perturbs the recorded positions only.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    s = np.linspace(0.0, 1.0, n)
    angle = 2.0 * np.pi * _SPIRAL_TURNS * s
    r = _SPIRAL_RADIUS * s
    x = r * np.cos(angle)
    y = r * np.sin(angle)
    phi = np.atleast_1d(eval_signature(sig, x, y)).astype(float)
    return SampleSet(*_intercepted(x, y, noise_std, seed), phi)


def trajectory_samples(trace, n: int, noise_std: float = 0.0, seed: int = 0) -> SampleSet:
    """First n logged samples eavesdropped from a run's plant-side stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > len(trace.t):
        raise ValueError(f"trace has only {len(trace.t)} logged samples, requested {n}")
    x, y = _intercepted(np.array(trace.x[:n]), np.array(trace.y[:n]), noise_std, seed)
    return SampleSet(x, y, np.array(trace.phi_plant[:n]))


def holdout_grid(trace) -> np.ndarray:
    """50 x 50 evaluation grid over the actual-trajectory bounding box, inflated by 20%."""
    x_lo, x_hi = float(trace.x.min()), float(trace.x.max())
    y_lo, y_hi = float(trace.y.min()), float(trace.y.max())
    pad_x = max(0.5 * _HOLDOUT_INFLATE * (x_hi - x_lo), 1e-6)
    pad_y = max(0.5 * _HOLDOUT_INFLATE * (y_hi - y_lo), 1e-6)
    xs = np.linspace(x_lo - pad_x, x_hi + pad_x, _HOLDOUT_N)
    ys = np.linspace(y_lo - pad_y, y_hi + pad_y, _HOLDOUT_N)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def spoof(trace: SimTrace, estimate: PolySignature) -> SimTrace:
    """The trace, or any view with phi_plant, with that stream replaced by the estimate.

    The attacker must reproduce the signature at the observable it feeds the
    controller, so the spoofed stream is the estimate evaluated at the
    observed position. Judge it with monitor(spoof(trace, estimate), sig);
    an exact estimate is never caught, on any run.
    """
    data = np.array(trace.data)
    data[:, trace.columns.index("phi_plant")] = eval_signature(estimate, trace.x_obs, trace.y_obs)
    return SimTrace(data, trace.columns, trace.complete)


@dataclass
class StudyRow:
    source: str
    n: int
    nrmse: float


def estimation_study(trace, truth: PolySignature = default_signature(), ns=(150, 500, 1000),
                     noise_std: float = STUDY_NOISE_STD, seed: int = 0):
    """Coverage study: fit quality versus sample count and eavesdropping source.

    For each n, fits once from the run's own trajectory prefix and once from
    the spiral probe of truth, then scores both on the same held-out grid
    over the run's operating region. Returns StudyRow entries (source, n, nrmse).
    """
    grid = holdout_grid(trace)
    rows = []
    for source in ("trajectory", "spiral"):
        for n in ns:
            if source == "trajectory":
                samples = trajectory_samples(trace, n, noise_std=noise_std, seed=seed)
            else:
                samples = spiral_samples(n, sig=truth, noise_std=noise_std, seed=seed)
            estimate = fit_signature(samples)
            rows.append(StudyRow(source, int(n), nrmse(estimate, truth, grid)))
    return rows
