"""Vulnerability of scalar function families to linear s-channel attacks.

A family member g is vulnerable when some nontrivial pair (alpha, beta)
satisfies alpha*g(beta*x) = g(x) on the operating grid: the attacker can
then scale the argument and the value without moving the residual. The
checker scans beta on one fixed grid, 6,000 betas on [-3, 3] at 0.001
without beta = 0, solves the best alpha per beta in closed form
(one-dimensional least squares), admits |alpha| <= 3, and classifies the
candidate set: a one-dimensional manifold of solutions, isolated
nontrivial pairs, or only the trivial identity. The five families are
scanned at unit scale: x, cos x, sin x, x^2 and e^x.

The beta grid is scored on the calling thread in fixed blocks of
_BETA_BLOCK rows. Blocks that a lower bound of their residuals rules out are
skipped; every scored row goes through the same IEEE operations as in a
scan of the whole grid, so the verdicts stay the exhaustive scan's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

TAG_LINEAR = "Linear"
TAG_COSINE = "Cosine"
TAG_SINE = "Sine"
TAG_QUADRATIC = "Quadratic"
TAG_EXPONENTIAL = "Exponential"
# g per tag, as a ufunc: g(x) returns a new array, g(x, out=buf) fills buf
_FUNCTIONS = {TAG_LINEAR: np.positive, TAG_COSINE: np.cos, TAG_SINE: np.sin,
              TAG_QUADRATIC: np.square, TAG_EXPONENTIAL: np.exp}
_FAMILY_TAGS = tuple(_FUNCTIONS)

CLASS_CONTINUOUS = "continuous-family"
CLASS_DISCRETE = "discrete-nontrivial"
CLASS_TRIVIAL = "trivial-only"

# classify() scores the beta grid this many rows at a time through two
# (_BETA_BLOCK, n_grid) buffers per _score_rows call; a multiple of 4, so the
# BLAS matrix-vector kernel groups the rows of every block the same way
_BETA_BLOCK = 64
# the scan: betas on [-3, 3] at _STEP, beta = 0 dropped (it collapses the
# argument), and the admitted alphas, |alpha| <= _ALPHA_MAX
_STEP = 0.001
_BETAS = np.linspace(-3.0, 3.0, 6001)
_BETAS = _BETAS[_BETAS != 0.0]
_BETAS.setflags(write=False)
_ALPHA_MAX = 3.0
# the grid points S of the residual bound, as fractions of the grid: irregular,
# so that no symmetry of a family repeats a point; and betas bounded per pass:
# 1,024, since one pass over all 6,000 betas took 100-130 us longer per family
# on a 2-vCPU Intel Xeon (numpy 2.4), a cache effect
_BOUND_AT = (0.05, 0.17, 0.28, 0.41, 0.53, 0.66, 0.79, 0.92)
_BOUND_BETAS = 16 * _BETA_BLOCK


@dataclass(frozen=True)
class ScalarFamily:
    """One scalar family at unit scale, named by its tag: x, cos x, sin x, x^2 or e^x."""

    tag: str

    def __post_init__(self):
        if self.tag not in _FUNCTIONS:
            raise ValueError(f"unknown family {self.tag!r}, expected one of {_FAMILY_TAGS}")


# verdict_table's families, one per tag, in _FAMILY_TAGS order
_FAMILIES = tuple(ScalarFamily(tag) for tag in _FAMILY_TAGS)


def default_grid(fam: ScalarFamily) -> np.ndarray:
    """Trig families: theta in [-2*pi, 2*pi]; others: x in [-2, 2]; step ~0.01."""
    if fam.tag in (TAG_COSINE, TAG_SINE):
        return np.linspace(-2.0 * np.pi, 2.0 * np.pi, 1257)
    return np.linspace(-2.0, 2.0, 401)


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


def _score_rows(g, x, gx, betas, alphas, residuals, lo, hi) -> None:
    """Fill alphas and residuals for betas[lo:hi], _BETA_BLOCK rows at a time.

    Per row: alpha = <g(beta*x), g(x)> / <g(beta*x), g(beta*x)> (inf where the
    denominator is not positive) and residual = max |alpha*g(beta*x) - g(x)|.
    Each pass writes into one of two buffers allocated once per call.
    """
    rows = min(_BETA_BLOCK, hi - lo)
    arg = np.empty((rows, x.size))
    gb = np.empty((rows, x.size))
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(lo, hi, _BETA_BLOCK):
            stop = min(start + _BETA_BLOCK, hi)
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


def _score_blocks(g, x, gx, alphas, residuals, blocks) -> None:
    """Score the ascending block indices, one _score_rows call per run of consecutive blocks."""
    for _, run in groupby(enumerate(blocks), lambda ik: ik[1] - ik[0]):
        run = [k for _, k in run]
        _score_rows(g, x, gx, _BETAS, alphas, residuals, run[0] * _BETA_BLOCK,
                    min((run[-1] + 1) * _BETA_BLOCK, len(_BETAS)))


def _block_bounds(g, x, gx) -> np.ndarray:
    """Per block of _BETAS, a lower bound of the residuals _score_rows computes.

    For a = g(beta*x_S), h = g(x_S) and any alpha, max_k |alpha*a_k - h_k| is at
    least |a_i*h_j - a_j*h_i| / (|a_i| + |a_j|) on each adjacent pair of S. With
    A = _ALPHA_MAX, the slack 64*eps*(A*max|a| + max|h|) + (A + 1)*tiny covers
    the rounding here and in _score_rows, subnormals included.
    """
    at = [round(f * (x.size - 1)) for f in _BOUND_AT]
    xs, h = x[at, None], gx[at, None]
    eps = 64.0 * np.finfo(float).eps
    h_slack = eps * np.max(np.abs(h)) + (_ALPHA_MAX + 1.0) * np.finfo(float).tiny
    n_blocks = -(-len(_BETAS) // _BETA_BLOCK)
    bounds = np.full(n_blocks * _BETA_BLOCK, np.inf)
    for lo in range(0, len(_BETAS), _BOUND_BETAS):  # a row per point of S
        a = g(np.multiply(xs, _BETAS[lo:lo + _BOUND_BETAS]))
        num = np.abs(np.subtract(a[:-1] * h[1:], a[1:] * h[:-1]))
        np.abs(a, out=a)
        den = np.add(a[:-1], a[1:])
        np.divide(num, den, out=num, where=den > 0.0)  # a_i = a_j = 0 leaves 0
        slack = np.multiply(a.max(axis=0), eps * _ALPHA_MAX)
        np.subtract(num.max(axis=0), slack + h_slack, out=bounds[lo:lo + a.shape[1]])
    return bounds.reshape(n_blocks, _BETA_BLOCK).min(axis=1)


def _nontrivial(alphas) -> np.ndarray:
    trivial = (np.abs(_BETAS - 1.0) <= 0.5 * _STEP) & (np.abs(alphas - 1.0) <= 1e-6)
    return (np.abs(alphas) <= _ALPHA_MAX) & ~trivial


def classify(fam: ScalarFamily, tol: float = 1e-9) -> VulnVerdict:
    """Grid search for nontrivial (alpha, beta) pairs with residual <= tol.

    beta runs over the module's fixed grid; the best alpha for each beta is
    the closed-form least-squares solution on the evaluation grid, checked
    against the max-residual tolerance and |alpha| <= 3. Ten or more
    admitting betas classify as a continuous family, at least one as
    discrete nontrivial pairs, none as trivial-only. The identity (1, 1) is
    always excluded. tol must be positive and finite. Only blocks whose
    bound is within tol, or at or below the best residual of those, are
    scored; the rest can hold neither an admitted pair nor the best, so the
    verdict is the exhaustive scan's, bit for bit.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    x = default_grid(fam)
    g = _FUNCTIONS[fam.tag]
    gx = g(x)

    bounds = _block_bounds(g, x, gx)
    # rows never scored keep alpha = inf, which |alpha| <= 3 never admits
    alphas = np.full(len(_BETAS), np.inf)
    residuals = np.empty(len(_BETAS))
    # first every block that may hold an admitted row, then every other block
    # that may hold a residual at or below the best of those: all of them
    # when there is none
    lower = bounds.tolist()
    _score_blocks(g, x, gx, alphas, residuals, [k for k, b in enumerate(lower) if b <= tol])
    nontrivial = _nontrivial(alphas)
    best = float(np.min(residuals[nontrivial])) if nontrivial.any() else math.inf
    _score_blocks(g, x, gx, alphas, residuals,
                  [k for k, b in enumerate(lower) if tol < b <= best])
    nontrivial = _nontrivial(alphas)
    admitted = nontrivial & (residuals <= tol)
    candidates = list(zip(alphas[admitted].tolist(), _BETAS[admitted].tolist()))
    best = float(np.min(residuals[nontrivial])) if nontrivial.any() else math.inf

    if len(candidates) >= 10:
        return VulnVerdict(fam.tag, CLASS_CONTINUOUS, _manifold_label(candidates, tol),
                           candidates, best)
    if candidates:
        return VulnVerdict(fam.tag, CLASS_DISCRETE, None, candidates, best)
    return VulnVerdict(fam.tag, CLASS_TRIVIAL, None, [], best)


def verdict_table(tol: float = 1e-9):
    """Classify every default family; returns the verdicts in _FAMILY_TAGS order."""
    return [classify(fam, tol=tol) for fam in _FAMILIES]
