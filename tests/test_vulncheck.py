"""Tests for the scalar-family vulnerability checker."""

from __future__ import annotations

import math
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdia_lab import vulncheck
from fdia_lab.vulncheck import (
    BETA_BLOCK,
    CLASS_CONTINUOUS,
    CLASS_DISCRETE,
    CLASS_TRIVIAL,
    FAMILY_TAGS,
    TAG_COSINE,
    TAG_EXPONENTIAL,
    TAG_LINEAR,
    TAG_QUADRATIC,
    TAG_SINE,
    ScalarFamily,
    attack_residual,
    classify,
    default_families,
    default_grid,
    family_function,
    verdict_table,
)


@pytest.fixture(scope="module")
def verdicts():
    return {v.family: v for v in verdict_table()}


def test_family_validation():
    with pytest.raises(ValueError):
        ScalarFamily("Cubic")
    with pytest.raises(ValueError):
        ScalarFamily(TAG_LINEAR, c=0.0)
    with pytest.raises(ValueError):
        ScalarFamily(TAG_EXPONENTIAL, c=float("nan"))
    # trig families ignore c, so a zero there is harmless
    ScalarFamily(TAG_COSINE, c=0.0)


def test_attack_residual_examples():
    lin = ScalarFamily(TAG_LINEAR, c=3.0)
    assert attack_residual(lin, 2.0, 0.5, default_grid(lin)) <= 1e-12

    cos = ScalarFamily(TAG_COSINE)
    assert attack_residual(cos, 1.0, -1.0, default_grid(cos)) <= 1e-12
    assert abs(attack_residual(cos, -1.0, -1.0, default_grid(cos)) - 2.0) <= 1e-12

    sin = ScalarFamily(TAG_SINE)
    assert attack_residual(sin, -1.0, -1.0, default_grid(sin)) <= 1e-12
    assert abs(attack_residual(sin, 1.0, -1.0, default_grid(sin)) - 2.0) <= 1e-12

    exp = ScalarFamily(TAG_EXPONENTIAL)
    assert attack_residual(exp, 2.0, 1.0, default_grid(exp)) > 1.0

    with pytest.raises(ValueError):
        attack_residual(lin, 1.0, 1.0, np.array([]))


@pytest.mark.parametrize("alpha, beta, bad", [
    (math.nan, 1.0, None), (math.inf, 1.0, None), (1.0, math.nan, None), (1.0, -math.inf, None),
    (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
], ids=repr)
def test_attack_residual_refuses_non_finite_input(alpha, beta, bad):
    # a nan residual used to read silently as "not within tol"
    lin = ScalarFamily(TAG_LINEAR)
    grid = default_grid(lin)
    if bad is not None:
        grid = grid.copy()
        grid[7] = bad
    with pytest.raises(ValueError):
        attack_residual(lin, alpha, beta, grid)


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(ScalarFamily(TAG_LINEAR), tol=0.0)
    with pytest.raises(ValueError):
        classify(ScalarFamily(TAG_LINEAR), step=-0.001)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan}, {"tol": math.inf}, {"step": math.nan}, {"step": math.inf},
    {"beta_range": (3.0, -3.0)}, {"beta_range": (1.0, 1.0)}, {"beta_range": ()},
    {"beta_range": (-math.inf, 3.0)}, {"beta_range": (-3.0, math.nan)},
    {"alpha_range": (3.0, -3.0)}, {"alpha_range": (0.0, 0.0)}, {"alpha_range": ()},
    {"alpha_range": (-3.0, math.inf)}, {"alpha_range": (math.nan, 3.0)},
], ids=repr)
def test_classify_refuses_what_it_cannot_honour(kwargs):
    # a nan tolerance used to admit nothing and call Linear trivial-only
    with pytest.raises(ValueError):
        classify(ScalarFamily(TAG_LINEAR), **kwargs)


@pytest.mark.parametrize("kwargs", [
    {"beta_range": (0.5, 2.5), "step": 0.75},  # used to scan at 0.667: discrete-nontrivial
    {"beta_range": (-0.1, 0.1), "step": 1.0},  # used to return trivial-only, residual inf
    {"step": 1e-12},  # used to fail in np.linspace with numpy's MemoryError
    {"step": 5e-324},  # the range over the step overflows to inf
    {"beta_range": (0.0, 1.0), "step": 1.0},  # one nonzero beta
    {"beta_range": (-0.5, 0.5), "step": 1.0},  # no nonzero beta
], ids=repr)
def test_classify_refuses_a_beta_grid_it_cannot_scan(kwargs):
    with pytest.raises(ValueError):
        classify(ScalarFamily(TAG_LINEAR), **kwargs)


@pytest.mark.parametrize("fam", [ScalarFamily(TAG_EXPONENTIAL, c=1e306),
                                 ScalarFamily(TAG_QUADRATIC, c=1e300),
                                 ScalarFamily(TAG_LINEAR, c=-1e160)], ids=repr)
def test_classify_refuses_a_family_that_overflows_its_scan(fam):
    # these used to warn of overflow and return verdicts built on inf/nan residuals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            classify(fam)


@pytest.mark.parametrize("fam, kind", [
    (ScalarFamily(TAG_LINEAR, c=1e150), CLASS_CONTINUOUS),
    # the largest sums of squares, 9*c**2*537 and about c**2*2.8e6, stay finite
    (ScalarFamily(TAG_LINEAR, c=1e152), CLASS_CONTINUOUS),
    (ScalarFamily(TAG_EXPONENTIAL, c=5e150), CLASS_TRIVIAL),
], ids=repr)
def test_classify_scans_a_large_scale_it_can_hold(fam, kind):
    # tol is absolute, so it scales with c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = _assert_pruned_scan_is_exhaustive(fam, fam.c * 1e-9, (-3.0, 3.0), (-3.0, 3.0), 0.001)
    assert v.kind == kind
    if kind == CLASS_CONTINUOUS:
        assert v.constraint == "alpha*beta = 1"


def test_a_bound_that_overflows_prunes_nothing():
    # classify refuses this family; called directly, its bounds meet inf - inf
    fam = ScalarFamily(TAG_EXPONENTIAL, c=1e306)
    x, g = default_grid(fam), family_function(fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bounds = vulncheck._block_bounds(g, x, g(x), np.linspace(-3.0, 3.0, 6001), 3.0)
    assert (bounds == -np.inf).any()
    assert (np.isfinite(bounds) | (bounds == -np.inf)).all()


def test_classify_accepts_a_step_that_divides_up_to_rounding():
    # 2.0 / 0.1 is 20.000000000000004 in float64
    v = classify(ScalarFamily(TAG_LINEAR), beta_range=(0.5, 2.5), step=0.1)
    assert v.kind == CLASS_CONTINUOUS
    assert len(v.candidates) == 20  # 21 betas less the identity
    two = classify(ScalarFamily(TAG_LINEAR), beta_range=(1.0, 2.0), step=1.0)
    assert two.kind == CLASS_DISCRETE and [b for _, b in two.candidates] == [2.0]


def test_table_covers_default_families(verdicts):
    assert [f.tag for f in default_families()] == [
        TAG_LINEAR, TAG_COSINE, TAG_SINE, TAG_QUADRATIC, TAG_EXPONENTIAL,
    ]
    assert set(verdicts) == {TAG_LINEAR, TAG_COSINE, TAG_SINE, TAG_QUADRATIC, TAG_EXPONENTIAL}


def test_linear_family_is_continuously_vulnerable(verdicts):
    v = verdicts[TAG_LINEAR]
    assert v.kind == CLASS_CONTINUOUS
    assert v.constraint == "alpha*beta = 1"
    assert len(v.candidates) >= 10
    for alpha, beta in v.candidates:
        assert abs(alpha * beta - 1.0) <= 1e-9


def test_quadratic_family_is_continuously_vulnerable(verdicts):
    v = verdicts[TAG_QUADRATIC]
    assert v.kind == CLASS_CONTINUOUS
    assert v.constraint == "alpha*beta^2 = 1"
    assert len(v.candidates) >= 10
    for alpha, beta in v.candidates:
        assert abs(alpha * beta * beta - 1.0) <= 1e-9


def test_cosine_admits_only_the_even_reflection(verdicts):
    v = verdicts[TAG_COSINE]
    assert v.kind == CLASS_DISCRETE
    assert v.constraint is None
    assert len(v.candidates) == 1
    alpha, beta = v.candidates[0]
    assert abs(alpha - 1.0) <= 1e-6
    assert abs(beta + 1.0) <= 1e-9


def test_sine_admits_only_the_odd_reflection(verdicts):
    v = verdicts[TAG_SINE]
    assert v.kind == CLASS_DISCRETE
    assert v.constraint is None
    assert len(v.candidates) == 1
    alpha, beta = v.candidates[0]
    assert abs(alpha + 1.0) <= 1e-6
    assert abs(beta + 1.0) <= 1e-9


def test_exponential_is_trivial_only(verdicts):
    v = verdicts[TAG_EXPONENTIAL]
    assert v.kind == CLASS_TRIVIAL
    assert v.candidates == []
    assert math.isfinite(v.residual)
    assert v.residual > 1e-4


def test_identity_is_never_reported(verdicts):
    for v in verdicts.values():
        for alpha, beta in v.candidates:
            assert not (abs(alpha - 1.0) <= 1e-6 and abs(beta - 1.0) <= 5e-4)


def test_candidates_pass_numeric_substitution(verdicts):
    # Every reported pair must actually reproduce the function on the grid;
    # the verdict is only as good as this substitution.
    for fam in default_families():
        v = verdicts[fam.tag]
        grid = default_grid(fam)
        for alpha, beta in v.candidates[:50]:
            assert attack_residual(fam, alpha, beta, grid) <= 1e-9


def test_verdicts_do_not_depend_on_the_scale_constant():
    for c in (3.0, -2.0, 0.5, 7.0):
        lin = classify(ScalarFamily(TAG_LINEAR, c=c))
        assert lin.kind == CLASS_CONTINUOUS
        assert lin.constraint == "alpha*beta = 1"
        quad = classify(ScalarFamily(TAG_QUADRATIC, c=c))
        assert quad.kind == CLASS_CONTINUOUS
        assert quad.constraint == "alpha*beta^2 = 1"
    for c in (2.0, 0.5):
        assert classify(ScalarFamily(TAG_EXPONENTIAL, c=c)).kind == CLASS_TRIVIAL


def test_loose_tolerance_cannot_fake_an_exponential_family():
    # Even at a tolerance just under its best nontrivial residual, the
    # exponential family admits nothing; at a tolerance above it, whatever
    # appears is a numerical artifact of the scan, not a structural family.
    v = verdict_table()[4]
    tight = classify(ScalarFamily(TAG_EXPONENTIAL), tol=v.residual * 0.99)
    assert tight.kind == CLASS_TRIVIAL


def _default_scan(tag):
    fam = ScalarFamily(tag)
    x = default_grid(fam)
    g = family_function(fam)
    betas = np.linspace(-3.0, 3.0, 6001)
    return g, x, g(x), betas[np.abs(betas) > 0.0005]


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_blocked_scan_equals_the_dense_formula(tag, verdicts):
    """classify() scores the beta grid in blocks; the result is the one-block result bitwise."""
    g, x, gx, betas = _default_scan(tag)
    assert len(betas) > BETA_BLOCK
    gbx = g(betas[:, None] * x[None, :])
    denom = np.sum(gbx * gbx, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = np.where(denom > 0.0, (gbx @ gx) / denom, np.inf)
    residuals = np.max(np.abs(alphas[:, None] * gbx - gx[None, :]), axis=1)
    in_range = np.isfinite(alphas) & (np.abs(alphas) <= 3.0)
    trivial = (np.abs(betas - 1.0) <= 0.0005) & (np.abs(alphas - 1.0) <= 1e-6)
    nontrivial = in_range & ~trivial
    admitted = nontrivial & (residuals <= 1e-9)

    verdict = verdicts[tag]
    assert np.array_equal(np.array(verdict.candidates).reshape(-1, 2),
                          np.column_stack([alphas[admitted], betas[admitted]]))
    assert np.array_equal(verdict.residual, np.min(residuals[nontrivial]))


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_row_ranges_score_bitwise_alike(tag):
    """Any split of the grid at 4-row multiples gives the one-range alphas and residuals."""
    g, x, gx, betas = _default_scan(tag)
    n = len(betas)
    splits = [[0, n], [0, n // 2 // BETA_BLOCK * BETA_BLOCK, n], [0, 1004, 4020, n]]
    results = []
    for edges in splits:
        alphas, residuals = np.full(n, -1.0), np.full(n, -1.0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            vulncheck._score_rows(g, x, gx, betas, alphas, residuals, lo, hi)
        results.append((alphas, residuals))
    for alphas, residuals in results[1:]:
        assert np.array_equal(alphas, results[0][0], equal_nan=True)
        assert np.array_equal(residuals, results[0][1], equal_nan=True)


def test_verdicts_do_not_depend_on_the_worker_count(monkeypatch, verdicts):
    # workers write disjoint slices of shared arrays; more workers than cores
    # and a short switch interval would expose a row written by two of them
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 3, 8):
            monkeypatch.setattr(vulncheck, "_usable_cpus", lambda: cpus)
            assert {v.family: v for v in verdict_table()} == verdicts
    finally:
        sys.setswitchinterval(interval)


def test_the_scan_leaves_no_thread_behind():
    before = threading.active_count()
    verdict_table()
    assert threading.active_count() == before


def test_one_usable_cpu_starts_no_thread(monkeypatch, verdicts):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was opened with one usable CPU")

    monkeypatch.setattr(vulncheck, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(vulncheck, "ThreadPoolExecutor", no_pool)
    assert classify(ScalarFamily(TAG_SINE)) == verdicts[TAG_SINE]


def _exhaustive(fam, tol, alpha_range, beta_range, step):
    """Every row scored by _score_rows, then the verdict logic: the oracle of the pruned scan."""
    n_beta = round((beta_range[1] - beta_range[0]) / step)
    betas = np.linspace(beta_range[0], beta_range[1], n_beta + 1)
    betas = betas[np.abs(betas) > 0.5 * step]
    x = default_grid(fam)
    g = family_function(fam)
    alphas, residuals = np.empty(len(betas)), np.empty(len(betas))
    vulncheck._score_rows(g, x, g(x), betas, alphas, residuals, 0, len(betas))
    in_range = np.isfinite(alphas) & (alphas >= alpha_range[0]) & (alphas <= alpha_range[1])
    trivial = (np.abs(betas - 1.0) <= 0.5 * step) & (np.abs(alphas - 1.0) <= 1e-6)
    nontrivial = in_range & ~trivial
    admitted = nontrivial & (residuals <= tol)
    candidates = list(zip(alphas[admitted].tolist(), betas[admitted].tolist()))
    best = float(np.min(residuals[nontrivial])) if nontrivial.any() else math.inf
    if len(candidates) >= 10:
        kind = CLASS_CONTINUOUS
        constraint = vulncheck._manifold_label(candidates, tol)
    else:
        kind = CLASS_DISCRETE if candidates else CLASS_TRIVIAL
        constraint = None
    return kind, constraint, candidates, best


def _bits(kind, constraint, candidates, best):
    return kind, constraint, [(a.hex(), b.hex()) for a, b in candidates], best.hex()


def _assert_pruned_scan_is_exhaustive(fam, tol, alpha_range, beta_range, step):
    v = classify(fam, tol=tol, alpha_range=alpha_range, beta_range=beta_range, step=step)
    assert v.family == fam.tag
    assert _bits(v.kind, v.constraint, v.candidates, v.residual) == _bits(
        *_exhaustive(fam, tol, alpha_range, beta_range, step))
    return v


@st.composite
def _scan_configs(draw):
    tag = draw(st.sampled_from(FAMILY_TAGS))
    c = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    a_lo = draw(st.floats(-5.0, 4.0))
    alpha_range = (a_lo, a_lo + 10.0 ** draw(st.floats(-2.0, 1.0)))
    b_lo = draw(st.floats(-4.0, 3.0))
    span = 10.0 ** draw(st.floats(-1.0, 0.8))
    step = span / draw(st.integers(2, 1500))
    tol = 10.0 ** draw(st.floats(-14.0, -1.0))
    return ScalarFamily(tag, c), tol, alpha_range, (b_lo, b_lo + span), step


@settings(max_examples=60, deadline=None)
@given(_scan_configs(), st.sampled_from([1, 2, 3, 8]))
# no beta near +-1: no block is within tol, so the second round scores them all
@example((ScalarFamily(TAG_COSINE), 1e-9, (-3.0, 3.0), (1.2, 2.9), 0.001), 2)
@example((ScalarFamily(TAG_EXPONENTIAL), 1e-9, (-3.0, 3.0), (-2.5, -1.5), 0.001), 3)
# no alpha in range: the best is inf, so every block is scored
@example((ScalarFamily(TAG_SINE), 1e-9, (50.0, 60.0), (-3.0, 3.0), 0.001), 2)
@example((ScalarFamily(TAG_EXPONENTIAL, c=4.0), 1e-3, (-1.0, -0.5), (-1.0, 2.0), 0.01), 8)
def test_pruned_scan_equals_the_exhaustive_scan(config, cpus):
    with mock.patch.object(vulncheck, "_usable_cpus", lambda: cpus):
        _assert_pruned_scan_is_exhaustive(*config)


def test_pruned_scan_is_exact_at_the_exponential_best_residual():
    fam = ScalarFamily(TAG_EXPONENTIAL)
    best = _exhaustive(fam, 1e-9, (-3.0, 3.0), (-3.0, 3.0), 0.001)[3]
    for tol in (np.nextafter(best, 0.0), best, np.nextafter(best, np.inf), best * 1.5):
        v = _assert_pruned_scan_is_exhaustive(fam, float(tol), (-3.0, 3.0), (-3.0, 3.0), 0.001)
        assert v.residual == best
        assert (v.kind == CLASS_TRIVIAL) == (tol < best)


def test_the_default_scans_skip_the_blocks_that_cannot_matter(monkeypatch, verdicts):
    scored = []
    score_rows = vulncheck._score_rows

    def counting(g, x, gx, betas, alphas, residuals, lo, hi):
        scored.append(hi - lo)
        score_rows(g, x, gx, betas, alphas, residuals, lo, hi)

    monkeypatch.setattr(vulncheck, "_score_rows", counting)
    n_blocks = -(-len(_default_scan(TAG_LINEAR)[3]) // BETA_BLOCK)
    for fam in default_families():
        scored.clear()
        assert classify(fam) == verdicts[fam.tag]
        blocks = -(-sum(scored) // BETA_BLOCK)
        if fam.tag in (TAG_LINEAR, TAG_QUADRATIC):
            # every |beta| >= 1/3 is admitted, so every block can hold a candidate
            assert blocks == n_blocks
        else:
            assert blocks <= 4, (fam.tag, blocks)
