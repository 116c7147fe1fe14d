"""Tests for signature estimation from intercepted samples and stream spoofing."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from fdia_lab.adversary import (
    STUDY_NOISE_STD,
    _BASIS,
    _SPIRAL_RADIUS,
    _SPIRAL_TURNS,
    SampleSet,
    UnderdeterminedFit,
    _design_matrix,
    estimation_study,
    fit_signature,
    holdout_grid,
    nrmse,
    spiral_samples,
    spoof,
    trajectory_samples,
)
from fdia_lab.smsf import PolySignature, default_signature, eval_signature, monitor


def _grid_samples(sig, n, half=1.0):
    axis = np.linspace(-half, half, n)
    gx, gy = np.meshgrid(axis, axis)
    return SampleSet(gx, gy, eval_signature(sig, gx, gy))


# ---------------------------------------------------------------------------
# basis and estimator mechanics


def test_monomial_basis_orders_by_total_degree():
    assert _BASIS[:6] == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert _BASIS[-5:] == ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))
    assert len(_BASIS) == len(set(_BASIS)) == 15
    assert [i + j for i, j in _BASIS] == sorted(i + j for i, j in _BASIS)


def test_design_matrix_columns():
    x = np.array([1.0, 2.0])
    y = np.array([3.0, 4.0])
    mat = _design_matrix(x, y, [(0, 0), (1, 0), (1, 1)])
    np.testing.assert_array_equal(mat, [[1.0, 1.0, 3.0], [1.0, 2.0, 8.0]])


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros(3), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        SampleSet(np.zeros(0), np.zeros(0), np.zeros(0))
    grid = _grid_samples(default_signature(), 5)
    assert grid.count == 25
    assert grid.x.ndim == 1


def test_noiseless_grid_recovers_signature_exactly():
    truth = default_signature()
    fit = fit_signature(_grid_samples(truth, 20))
    for key, coeff in truth.terms.items():
        assert abs(fit.terms[key] - coeff) <= 1e-6 * abs(coeff)
    for key, coeff in fit.terms.items():
        if key not in truth.terms:
            assert abs(coeff) <= 1e-9, f"spurious term {key} = {coeff}"


def test_minimal_five_by_five_grid_suffices():
    # 25 distinct points with full two-dimensional spread determine all 15
    # quartic coefficients; a 4 x 4 grid cannot separate x^4 from lower powers
    # on only four distinct abscissae.
    truth = default_signature()
    fit = fit_signature(_grid_samples(truth, 5))
    for key, coeff in truth.terms.items():
        assert abs(fit.terms[key] - coeff) <= 1e-6 * abs(coeff)
    with pytest.raises(UnderdeterminedFit):
        fit_signature(_grid_samples(truth, 4))


def test_underdetermined_fits_are_rejected():
    sig = default_signature()
    few = _grid_samples(sig, 3)
    with pytest.raises(UnderdeterminedFit, match="under-determined"):
        fit_signature(few)
    x = np.full(20, 0.3)
    dup = SampleSet(x, x, eval_signature(sig, x, x))
    with pytest.raises(UnderdeterminedFit):
        fit_signature(dup)
    ax = np.linspace(-1.0, 1.0, 20)
    on_axis = SampleSet(ax, np.zeros(20), eval_signature(sig, ax, np.zeros(20)))
    with pytest.raises(UnderdeterminedFit):
        fit_signature(on_axis)


def test_positions_that_overflow_the_design_are_rejected_without_warnings():
    # 1e150 m of noise puts x^4 past float64: lstsq used to raise LinAlgError
    samples = spiral_samples(200, noise_std=1e150)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnderdeterminedFit, match="overflow the degree-4 design"):
            fit_signature(samples)
    # at 1e75 m the design stays finite and the fit is refused as rank-deficient
    with pytest.raises(UnderdeterminedFit, match="rank-deficient"):
        fit_signature(spiral_samples(200, noise_std=1e75))


def test_nrmse_basics():
    truth = default_signature()
    axis = np.linspace(-1.0, 1.0, 15)
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    assert nrmse(truth, truth, pts) == 0.0

    shifted = PolySignature(dict(truth.terms) | {(0, 0): 2.0})
    vals = eval_signature(truth, pts[:, 0], pts[:, 1])
    expected = 2.0 / float(vals.max() - vals.min())
    assert abs(nrmse(shifted, truth, pts) - expected) <= 1e-12

    perm = np.random.default_rng(5).permutation(len(pts))
    assert abs(nrmse(shifted, truth, pts[perm]) - nrmse(shifted, truth, pts)) <= 1e-12

    with pytest.raises(ValueError):
        nrmse(truth, truth, pts[:1].ravel())
    with pytest.raises(ValueError):
        nrmse(truth, truth, np.array([[0.5, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# sample sources


def test_spiral_geometry():
    samples = spiral_samples(200)
    assert samples.count == 200
    radii = np.hypot(samples.x, samples.y)
    assert abs(float(radii.max()) - _SPIRAL_RADIUS) <= 1e-12
    assert samples.x[0] == 0.0 and samples.y[0] == 0.0
    # noiseless phi agrees with the signature at the recorded points
    np.testing.assert_allclose(
        samples.phi, eval_signature(default_signature(), samples.x, samples.y),
        rtol=0.0, atol=1e-15,
    )
    assert _SPIRAL_TURNS == 4.0
    assert spiral_samples(1).count == 1


def test_spiral_noise_is_seeded_and_position_only():
    clean = spiral_samples(100)
    a = spiral_samples(100, noise_std=0.01, seed=3)
    b = spiral_samples(100, noise_std=0.01, seed=3)
    c = spiral_samples(100, noise_std=0.01, seed=4)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.phi, b.phi)
    assert float(np.max(np.abs(a.x - c.x))) > 0.0
    # phi stays the exact signature value at the true, unperturbed point
    np.testing.assert_array_equal(a.phi, clean.phi)
    assert float(np.max(np.abs(a.x - clean.x))) > 0.0


def test_trajectory_samples_prefix(scenario_runs):
    trace = scenario_runs["nominal"].nominal
    samples = trajectory_samples(trace, 150)
    np.testing.assert_array_equal(samples.x, trace.x[:150])
    np.testing.assert_array_equal(samples.phi, trace.phi_plant[:150])
    noisy = trajectory_samples(trace, 150, noise_std=0.01, seed=1)
    np.testing.assert_array_equal(noisy.phi, trace.phi_plant[:150])
    assert float(np.max(np.abs(noisy.x - samples.x))) > 0.0
    with pytest.raises(ValueError):
        trajectory_samples(trace, len(trace.t) + 1)


def test_holdout_grid_covers_operating_box(scenario_runs):
    trace = scenario_runs["nominal"].nominal
    grid = holdout_grid(trace)
    assert grid.shape == (2500, 2)
    assert float(grid[:, 0].min()) < float(trace.x.min())
    assert float(grid[:, 0].max()) > float(trace.x.max())
    assert float(grid[:, 1].min()) < float(trace.y.min())
    assert float(grid[:, 1].max()) > float(trace.y.max())


# ---------------------------------------------------------------------------
# the coverage study and stream spoofing


def test_estimation_study_layout_and_determinism(scenario_runs):
    trace = scenario_runs["nominal"].nominal
    rows = estimation_study(trace)
    assert [(r.source, r.n) for r in rows] == [
        ("trajectory", 150), ("trajectory", 500), ("trajectory", 1000),
        ("spiral", 150), ("spiral", 500), ("spiral", 1000),
    ]
    again = estimation_study(trace)
    assert [r.nrmse for r in rows] == [r.nrmse for r in again]


def test_study_separates_probe_from_eavesdropping(scenario_runs):
    # The attacker eavesdrops on the attacked run it is actually mounting, so
    # the trajectory source is the reflected path from the first scenario.
    assert STUDY_NOISE_STD == 0.01
    trace = scenario_runs["scenario1"].attacked
    rows = {(r.source, r.n): r.nrmse for r in estimation_study(trace)}
    assert rows[("spiral", 1000)] < 0.1
    assert 0.1 <= rows[("spiral", 150)] <= 0.5
    assert rows[("trajectory", 150)] >= 1.5 * rows[("spiral", 150)]


def test_trajectory_handicap_holds_across_seeds(scenario_runs):
    # The full-coverage probe beats a 3-second path prefix at every noise
    # draw; the absolute levels move with the seed, the ordering does not.
    trace = scenario_runs["scenario1"].attacked
    for seed in range(1, 5):
        rows = {r.source: r.nrmse for r in estimation_study(trace, ns=(150,), seed=seed)}
        assert rows["trajectory"] >= 1.5 * rows["spiral"], f"seed {seed}"


def test_spoof_with_exact_estimate_is_never_caught(scenario_runs):
    trace = scenario_runs["scenario1"].attacked
    result = monitor(spoof(trace, default_signature()), default_signature())
    assert not result.flag
    assert float(result.residual.max()) == 0.0
    assert result.detect_t is None


def test_spoof_with_sparse_estimate_is_caught(scenario_runs):
    trace = scenario_runs["nominal"].nominal
    estimate = fit_signature(spiral_samples(150, noise_std=STUDY_NOISE_STD, seed=0))
    result = monitor(spoof(trace, estimate), default_signature())
    assert result.flag
    assert float(result.residual.max()) > 0.1
    assert result.detect_t is not None
