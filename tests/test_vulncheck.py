"""Tests for the scalar-family vulnerability checker."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

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
