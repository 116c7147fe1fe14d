"""Vulnerability of scalar function families to linear s-channel attacks.

A family member g is vulnerable when some nontrivial pair (alpha, beta)
satisfies alpha*g(beta*x) = g(x) on the operating grid: the attacker can
then scale the argument and the value without moving the residual. The
checker scans beta on a dense grid, solves the best alpha per beta in
closed form (one-dimensional least squares), and classifies the candidate
set: a one-dimensional manifold of solutions, isolated nontrivial pairs, or
only the trivial identity.

The beta grid is scored in fixed blocks of BETA_BLOCK rows, split at block
boundaries over the usable CPUs when there are more blocks than CPUs.
Every row goes through the same IEEE operations in the same order whatever
the split, so the alphas, residuals and verdicts do not depend on the
number of workers. Blocks that a lower bound of their residuals rules out
are skipped, so the verdicts stay the exhaustive scan's.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

TAG_LINEAR = "Linear"
TAG_COSINE = "Cosine"
TAG_SINE = "Sine"
TAG_QUADRATIC = "Quadratic"
TAG_EXPONENTIAL = "Exponential"
FAMILY_TAGS = (TAG_LINEAR, TAG_COSINE, TAG_SINE, TAG_QUADRATIC, TAG_EXPONENTIAL)

CLASS_CONTINUOUS = "continuous-family"
CLASS_DISCRETE = "discrete-nontrivial"
CLASS_TRIVIAL = "trivial-only"

# classify() scores the beta grid this many rows at a time through two
# (BETA_BLOCK, n_grid) buffers per worker; a multiple of 4, so the BLAS
# matrix-vector kernel groups the rows of every block the same way
BETA_BLOCK = 64
# the most beta grid points classify() scans: 16 MB of alphas and residuals
_MAX_BETAS = 10**6
# the grid points S of the residual bound, as fractions of the grid: irregular,
# so that no symmetry of a family repeats a point; and betas bounded per pass
_BOUND_AT = (0.05, 0.17, 0.28, 0.41, 0.53, 0.66, 0.79, 0.92)
_BOUND_BETAS = 16 * BETA_BLOCK


@dataclass(frozen=True)
class ScalarFamily:
    """One member of a parameterized scalar family; c scales Linear/Quadratic/Exponential."""

    tag: str
    c: float = 1.0

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ValueError(f"unknown family {self.tag!r}, expected one of {FAMILY_TAGS}")
        if not math.isfinite(self.c):
            raise ValueError("ScalarFamily.c must be finite")
        if self.tag in (TAG_LINEAR, TAG_QUADRATIC, TAG_EXPONENTIAL) and self.c == 0.0:
            raise ValueError(f"{self.tag} requires c != 0")


def family_function(fam: ScalarFamily):
    """g as a ufunc-like callable: g(x) returns a new array, g(x, out=buf) fills buf.

    buf must not be x itself: the quadratic reads x again after writing c*x.
    """
    c = fam.c
    if fam.tag == TAG_LINEAR:
        return lambda x, out=None: np.multiply(c, x, out=out)
    if fam.tag == TAG_COSINE:
        return np.cos
    if fam.tag == TAG_SINE:
        return np.sin
    if fam.tag == TAG_QUADRATIC:
        return lambda x, out=None: np.multiply(np.multiply(c, x, out=out), x, out=out)
    return lambda x, out=None: np.multiply(c, np.exp(x, out=out), out=out)


def default_grid(fam: ScalarFamily) -> np.ndarray:
    """Trig families: theta in [-2*pi, 2*pi]; others: x in [-2, 2]; step ~0.01."""
    if fam.tag in (TAG_COSINE, TAG_SINE):
        return np.linspace(-2.0 * np.pi, 2.0 * np.pi, 1257)
    return np.linspace(-2.0, 2.0, 401)


def attack_residual(fam: ScalarFamily, alpha: float, beta: float, grid) -> float:
    """max |alpha*g(beta*x) - g(x)| over the grid; alpha, beta and the grid must be finite."""
    x = np.asarray(grid, dtype=float)
    if x.size == 0:
        raise ValueError("empty evaluation grid")
    if not (math.isfinite(alpha) and math.isfinite(beta) and np.isfinite(x).all()):
        raise ValueError(f"alpha {alpha!r}, beta {beta!r} and the grid must be finite")
    g = family_function(fam)
    return float(np.max(np.abs(alpha * g(beta * x) - g(x))))


@dataclass
class VulnVerdict:
    family: str
    kind: str  # CLASS_CONTINUOUS | CLASS_DISCRETE | CLASS_TRIVIAL
    constraint: str | None
    candidates: list = field(default_factory=list)  # (alpha, beta) pairs
    residual: float = math.inf  # best residual over nontrivial pairs


def _manifold_label(candidates, tol: float) -> str:
    a = np.array([c[0] for c in candidates])
    b = np.array([c[1] for c in candidates])
    if float(np.max(np.abs(a * b - 1.0))) <= tol:
        return "alpha*beta = 1"
    if float(np.max(np.abs(a * b * b - 1.0))) <= tol:
        return "alpha*beta^2 = 1"
    return "alpha = h(beta) (tabulated)"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _score_rows(g, x, gx, betas, alphas, residuals, lo, hi) -> None:
    """Fill alphas and residuals for betas[lo:hi], BETA_BLOCK rows at a time.

    Per row: alpha = <g(beta*x), g(x)> / <g(beta*x), g(beta*x)> (inf where the
    denominator is not positive) and residual = max |alpha*g(beta*x) - g(x)|.
    Each pass writes into one of two preallocated buffers; only numpy runs
    here, so worker threads can call it.
    """
    rows = min(BETA_BLOCK, hi - lo)
    arg = np.empty((rows, x.size))
    gb = np.empty((rows, x.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(lo, hi, BETA_BLOCK):
            stop = min(start + BETA_BLOCK, hi)
            buf, gbx, alpha = arg[:stop - start], gb[:stop - start], alphas[start:stop]
            np.multiply(betas[start:stop, None], x, out=buf)
            g(buf, out=gbx)
            np.multiply(gbx, gbx, out=buf)
            denom = buf.sum(axis=1)
            alpha.fill(np.inf)
            np.divide(gbx @ gx, denom, out=alpha, where=denom > 0.0)
            np.multiply(alpha[:, None], gbx, out=buf)
            np.subtract(buf, gx, out=buf)
            np.abs(buf, out=buf)
            buf.max(axis=1, out=residuals[start:stop])


def _score_blocks(cpus, g, x, gx, betas, alphas, residuals, blocks) -> None:
    """Score the ascending block indices, in contiguous shares over `cpus` threads.

    At most one block per CPU runs on the calling thread, and so does every
    block with one CPU: a pool thread's malloc arena keeps its scan buffers
    resident, which cost the analysis benchmark about 2 MB of peak RSS for no
    measurable time.
    """
    def score(share):
        # one _score_rows call per run of consecutive blocks
        for _, run in groupby(enumerate(share), lambda ik: ik[1] - ik[0]):
            run = [k for _, k in run]
            _score_rows(g, x, gx, betas, alphas, residuals, run[0] * BETA_BLOCK,
                        min((run[-1] + 1) * BETA_BLOCK, len(betas)))

    if cpus == 1 or len(blocks) <= cpus:
        score(blocks)
    else:
        with ThreadPoolExecutor(max_workers=cpus) as pool:
            list(pool.map(score, [blocks[k * len(blocks) // cpus:(k + 1) * len(blocks) // cpus]
                                  for k in range(cpus)]))


def _block_bounds(g, x, gx, betas, scale) -> np.ndarray:
    """Per block, a lower bound of the residuals _score_rows computes with |alpha| <= scale.

    For a = g(beta*x_S), h = g(x_S) and any alpha, max_k |alpha*a_k - h_k| is at
    least |a_i*h_j - a_j*h_i| / (|a_i| + |a_j|) on each adjacent pair of S. The
    slack 64*eps*(scale*max|a| + max|h|) + (scale + 1)*tiny covers the
    rounding here and in _score_rows, subnormals included; a bound that is
    not finite (an overflow here) is -inf, so it prunes nothing.
    """
    at = [round(f * (x.size - 1)) for f in _BOUND_AT]
    xs, h = x[at, None], gx[at, None]
    eps = 64.0 * np.finfo(float).eps
    h_slack = eps * np.max(np.abs(h)) + (scale + 1.0) * np.finfo(float).tiny
    n_blocks = -(-len(betas) // BETA_BLOCK)
    bounds = np.full(n_blocks * BETA_BLOCK, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(betas), _BOUND_BETAS):  # a row per point of S
            a = g(np.multiply(xs, betas[lo:lo + _BOUND_BETAS]))
            num = np.abs(np.subtract(a[:-1] * h[1:], a[1:] * h[:-1]))
            np.abs(a, out=a)
            den = np.add(a[:-1], a[1:])
            np.divide(num, den, out=num, where=den > 0.0)  # a_i = a_j = 0 leaves 0
            slack = np.multiply(a.max(axis=0), eps * scale)
            out = bounds[lo:lo + a.shape[1]]
            np.subtract(num.max(axis=0), slack + h_slack, out=out)
            out[~np.isfinite(out)] = -np.inf
    return bounds.reshape(n_blocks, BETA_BLOCK).min(axis=1)


def _nontrivial(alphas, betas, alpha_range, step) -> np.ndarray:
    in_range = np.isfinite(alphas) & (alphas >= alpha_range[0]) & (alphas <= alpha_range[1])
    trivial = (np.abs(betas - 1.0) <= 0.5 * step) & (np.abs(alphas - 1.0) <= 1e-6)
    return in_range & ~trivial


def _check_range(name: str, bounds) -> None:
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"{name} must be finite with low < high, got {bounds!r}")


def classify(fam: ScalarFamily, tol: float = 1e-9, alpha_range=(-3.0, 3.0),
             beta_range=(-3.0, 3.0), step: float = 0.001) -> VulnVerdict:
    """Grid search for nontrivial (alpha, beta) pairs with residual <= tol.

    beta runs over its range at the given step; the best alpha for each beta
    is the closed-form least-squares solution on the evaluation grid, checked
    against the max-residual tolerance and the alpha range. Ten or more
    admitting betas classify as a continuous family, at least one as
    discrete nontrivial pairs, none as trivial-only. The identity (1, 1) is
    always excluded. tol and step must be positive and finite, both ranges
    finite (low, high) pairs with low < high, and step must divide
    beta_range into a whole number of steps (to 1e-9 relative) that makes a
    grid of 2 to 10**6 betas, beta = 0 not counted, and g must not overflow
    on the scan. Only blocks whose bound is within tol, or at or below the
    best residual of those, are scored; the rest can hold neither an
    admitted pair nor the best, so the verdict is the exhaustive scan's,
    bit for bit.
    """
    if not (math.isfinite(tol) and tol > 0.0 and math.isfinite(step) and step > 0.0):
        raise ValueError(f"tol and step must be positive and finite, got {tol!r}, {step!r}")
    _check_range("alpha_range", alpha_range)
    _check_range("beta_range", beta_range)
    ratio = (beta_range[1] - beta_range[0]) / step
    if not ratio < _MAX_BETAS:
        raise ValueError(f"step {step!r} over beta_range {beta_range!r} makes a beta grid"
                         f" of more than {_MAX_BETAS} points")
    n_beta = round(ratio)
    if n_beta < 1 or abs(ratio - n_beta) > 1e-9 * n_beta:
        raise ValueError(f"step {step!r} does not divide beta_range {beta_range!r}"
                         " into a whole number of steps")
    betas = np.linspace(beta_range[0], beta_range[1], n_beta + 1)
    betas = betas[np.abs(betas) > 0.5 * step]  # beta = 0 collapses the argument
    if len(betas) < 2:
        raise ValueError(f"beta_range {beta_range!r} at step {step!r} leaves"
                         f" {len(betas)} nonzero betas, fewer than 2")
    x = default_grid(fam)
    g = family_function(fam)
    gx = g(x)

    # the sum of squares of g(beta*x) is convex in beta for every default
    # family, so it peaks at an end of the scan: check it there and at beta = 1
    with np.errstate(over="ignore", invalid="ignore"):
        ends = g(np.multiply.outer(np.array([betas[0], betas[-1], 1.0]), x))
        if not np.isfinite(np.multiply(ends, ends, out=ends).sum(axis=1)).all():
            raise ValueError(f"{fam.tag} with c={fam.c!r} overflows on the beta scan")

    bounds = _block_bounds(g, x, gx, betas, max(abs(alpha_range[0]), abs(alpha_range[1])))
    # rows never scored keep alpha = inf, which no alpha range admits
    alphas = np.full(len(betas), np.inf)
    residuals = np.empty(len(betas))
    # first every block that may hold an admitted row, then every other block
    # that may hold a residual at or below the best of those: all of them
    # when there is none
    lower = bounds.tolist()
    cpus = _usable_cpus()
    _score_blocks(cpus, g, x, gx, betas, alphas, residuals,
                  [k for k, b in enumerate(lower) if b <= tol])
    nontrivial = _nontrivial(alphas, betas, alpha_range, step)
    best = float(np.min(residuals[nontrivial])) if nontrivial.any() else math.inf
    _score_blocks(cpus, g, x, gx, betas, alphas, residuals,
                  [k for k, b in enumerate(lower) if tol < b <= best])
    nontrivial = _nontrivial(alphas, betas, alpha_range, step)
    admitted = nontrivial & (residuals <= tol)
    candidates = [(float(a), float(b)) for a, b in zip(alphas[admitted], betas[admitted])]
    best = float(np.min(residuals[nontrivial])) if nontrivial.any() else math.inf

    if len(candidates) >= 10:
        return VulnVerdict(fam.tag, CLASS_CONTINUOUS, _manifold_label(candidates, tol),
                           candidates, best)
    if candidates:
        return VulnVerdict(fam.tag, CLASS_DISCRETE, None, candidates, best)
    return VulnVerdict(fam.tag, CLASS_TRIVIAL, None, [], best)


def default_families():
    return (
        ScalarFamily(TAG_LINEAR),
        ScalarFamily(TAG_COSINE),
        ScalarFamily(TAG_SINE),
        ScalarFamily(TAG_QUADRATIC),
        ScalarFamily(TAG_EXPONENTIAL),
    )


def verdict_table(tol: float = 1e-9):
    """Classify every default family; returns the verdicts in declaration order."""
    return [classify(fam, tol=tol) for fam in default_families()]
