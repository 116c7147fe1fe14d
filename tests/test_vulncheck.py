"""Tests for the scalar-family vulnerability checker."""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import attack_residual
from fdia_lab import vulncheck
from fdia_lab.vulncheck import (
    CLASS_CONTINUOUS,
    CLASS_DISCRETE,
    CLASS_TRIVIAL,
    TAG_COSINE,
    TAG_EXPONENTIAL,
    TAG_LINEAR,
    TAG_QUADRATIC,
    TAG_SINE,
    _BETA_BLOCK,
    _FAMILIES,
    _FAMILY_TAGS,
    _FUNCTIONS,
    ScalarFamily,
    classify,
    default_grid,
    verdict_table,
)


@pytest.fixture(scope="module")
def verdicts():
    return {v.family: v for v in verdict_table()}


def test_family_validation():
    with pytest.raises(ValueError):
        ScalarFamily("Cubic")


def test_each_family_function_is_its_scaled_form_at_unit_scale():
    # the forms with a scale c that the families once took, at c = 1
    c = 1.0
    scaled = {
        TAG_LINEAR: lambda x: np.multiply(c, x),
        TAG_COSINE: np.cos,
        TAG_SINE: np.sin,
        TAG_QUADRATIC: lambda x: np.multiply(np.multiply(c, x), x),
        TAG_EXPONENTIAL: lambda x: np.multiply(c, np.exp(x)),
    }
    x = np.multiply.outer(np.linspace(-3.0, 3.0, 601), np.linspace(-2.0 * np.pi, 2.0 * np.pi, 257))
    for tag in _FAMILY_TAGS:
        g = _FUNCTIONS[tag]
        out = np.empty_like(x)
        assert g(x, out=out) is out
        assert np.array_equal(g(x), scaled[tag](x)) and np.array_equal(out, scaled[tag](x)), tag


def test_attack_residual_examples():
    lin = ScalarFamily(TAG_LINEAR)
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


@pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": math.inf}], ids=repr)
def test_classify_refuses_what_it_cannot_honour(kwargs):
    # a nan tolerance used to admit nothing and call Linear trivial-only
    with pytest.raises(ValueError):
        classify(ScalarFamily(TAG_LINEAR), **kwargs)


def test_table_covers_default_families(verdicts):
    assert [f.tag for f in _FAMILIES] == [
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
    for fam in _FAMILIES:
        v = verdicts[fam.tag]
        grid = default_grid(fam)
        for alpha, beta in v.candidates[:50]:
            assert attack_residual(fam, alpha, beta, grid) <= 1e-9


def test_loose_tolerance_cannot_fake_an_exponential_family():
    # Even at a tolerance just under its best nontrivial residual, the
    # exponential family admits nothing; at a tolerance above it, whatever
    # appears is a numerical artifact of the scan, not a structural family.
    v = verdict_table()[4]
    tight = classify(ScalarFamily(TAG_EXPONENTIAL), tol=v.residual * 0.99)
    assert tight.kind == CLASS_TRIVIAL


def _default_scan(tag):
    """g, its grid, g on the grid and the betas of classify's scan, built here to pin them."""
    fam = ScalarFamily(tag)
    x = default_grid(fam)
    g = _FUNCTIONS[tag]
    betas = np.linspace(-3.0, 3.0, 6001)
    return g, x, g(x), betas[np.abs(betas) > 0.0005]


def test_the_scan_grid_is_read_only():
    assert np.array_equal(vulncheck._BETAS, _default_scan(TAG_LINEAR)[3])
    with pytest.raises(ValueError):
        vulncheck._BETAS[0] = 0.0


@pytest.mark.parametrize("tag", _FAMILY_TAGS)
def test_blocked_scan_equals_the_dense_formula(tag, verdicts):
    """classify() scores the beta grid in blocks; the result is the one-block result bitwise."""
    g, x, gx, betas = _default_scan(tag)
    assert len(betas) > _BETA_BLOCK
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


@pytest.mark.parametrize("tag", _FAMILY_TAGS)
def test_row_ranges_score_bitwise_alike(tag):
    """Any split of the grid at 4-row multiples gives the one-range alphas and residuals."""
    g, x, gx, betas = _default_scan(tag)
    n = len(betas)
    splits = [[0, n], [0, n // 2 // _BETA_BLOCK * _BETA_BLOCK, n], [0, 1004, 4020, n]]
    results = []
    for edges in splits:
        alphas, residuals = np.full(n, -1.0), np.full(n, -1.0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            vulncheck._score_rows(g, x, gx, betas, alphas, residuals, lo, hi)
        results.append((alphas, residuals))
    for alphas, residuals in results[1:]:
        assert np.array_equal(alphas, results[0][0], equal_nan=True)
        assert np.array_equal(residuals, results[0][1], equal_nan=True)


def test_the_scan_starts_no_thread(monkeypatch, verdicts):
    def no_thread(self):
        raise AssertionError("the scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert {v.family: v for v in verdict_table()} == verdicts


def test_the_scan_leaves_no_thread_behind():
    before = threading.active_count()
    verdict_table()
    assert threading.active_count() == before


def test_one_usable_cpu_starts_no_thread(monkeypatch, verdicts):
    def no_thread(self):
        raise AssertionError("the scan started a thread with one usable CPU")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert classify(ScalarFamily(TAG_SINE)) == verdicts[TAG_SINE]


@functools.lru_cache(maxsize=None)
def _scored(tag):
    """Every row of the scan scored by _score_rows: betas, alphas and residuals."""
    g, x, gx, betas = _default_scan(tag)
    alphas, residuals = np.empty(len(betas)), np.empty(len(betas))
    vulncheck._score_rows(g, x, gx, betas, alphas, residuals, 0, len(betas))
    return betas, alphas, residuals


def _exhaustive(tag, tol):
    """Every row scored, then the verdict logic: the oracle of the pruned scan."""
    betas, alphas, residuals = _scored(tag)
    in_range = np.isfinite(alphas) & (alphas >= -3.0) & (alphas <= 3.0)
    trivial = (np.abs(betas - 1.0) <= 0.0005) & (np.abs(alphas - 1.0) <= 1e-6)
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


def _assert_pruned_scan_is_exhaustive(tag, tol):
    v = classify(ScalarFamily(tag), tol=tol)
    assert v.family == tag
    assert _bits(v.kind, v.constraint, v.candidates, v.residual) == _bits(*_exhaustive(tag, tol))
    return v


@settings(max_examples=60, deadline=None)
@given(st.floats(-14.0, -1.0))
# at tol 0.1, Cosine, Sine and Exponential admit enough betas to read as
# continuous families, and their first round scores more than one block
@example(-1.0)
@example(-14.0)
def test_pruned_scan_equals_the_exhaustive_scan(log_tol):
    for tag in _FAMILY_TAGS:
        _assert_pruned_scan_is_exhaustive(tag, 10.0 ** log_tol)


def test_pruned_scan_is_exact_at_the_exponential_best_residual():
    best = _exhaustive(TAG_EXPONENTIAL, 1e-9)[3]
    for tol in (np.nextafter(best, 0.0), best, np.nextafter(best, np.inf), best * 1.5):
        v = _assert_pruned_scan_is_exhaustive(TAG_EXPONENTIAL, float(tol))
        assert v.residual == best
        assert (v.kind == CLASS_TRIVIAL) == (tol < best)


def test_the_default_scans_skip_the_blocks_that_cannot_matter(monkeypatch, verdicts):
    scored = []
    score_rows = vulncheck._score_rows

    def counting(g, x, gx, betas, alphas, residuals, lo, hi):
        scored.append(hi - lo)
        score_rows(g, x, gx, betas, alphas, residuals, lo, hi)

    monkeypatch.setattr(vulncheck, "_score_rows", counting)
    n_blocks = -(-len(_default_scan(TAG_LINEAR)[3]) // _BETA_BLOCK)
    for fam in _FAMILIES:
        scored.clear()
        assert classify(fam) == verdicts[fam.tag]
        blocks = -(-sum(scored) // _BETA_BLOCK)
        if fam.tag in (TAG_LINEAR, TAG_QUADRATIC):
            # every |beta| >= 1/3 is admitted, so every block can hold a candidate
            assert blocks == n_blocks
        else:
            assert blocks <= 4, (fam.tag, blocks)
