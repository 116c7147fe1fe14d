"""Tests for signature polynomials, affine channel fits, and the residual monitor."""

from __future__ import annotations

import contextlib
import copy
import json
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_SCALARS, JSONISH
from fdia_lab import smsf
from fdia_lab.adversary import (
    STUDY_NOISE_STD,
    _BASIS,
    _design_matrix,
    fit_signature,
    spiral_samples,
)
from fdia_lab.fdia import attack_state, build_reflection, build_scaling
from fdia_lab.kinematics import Posture
from fdia_lab.scenarios import write_monitor_csv
from fdia_lab.simloop import TRACE_COLUMNS, SimConfig, SimTrace, run
from fdia_lab.smsf import (
    DetectionConfig,
    PolySignature,
    _affine_fit,
    _windowed_detect,
    default_signature,
    eval_signature,
    monitor,
    resilience_check,
    signature_from_dict,
    signature_to_dict,
    validate_smsf,
)
from test_scenarios import _MALFORMED_VALUES, _TERM_KEYS


@pytest.fixture(scope="module")
def origin_trace():
    """Short nominal run started exactly on the reference origin."""
    return run(SimConfig(p0=Posture(0.0, 0.0, 0.0), duration=1.0))


# ---------------------------------------------------------------------------
# polynomial construction and evaluation


def test_default_signature_coefficients():
    sig = default_signature()
    assert sig.max_degree == 4
    assert sig.terms == {
        (0, 2): 25.0,
        (0, 4): 1.0,
        (1, 2): -10.0,
        (2, 0): 1.0,
        (2, 1): -100.0,
        (2, 2): 2501.0,
        (4, 0): 1.0,
    }
    assert (0, 0) not in sig.terms


def test_default_signature_point_values():
    sig = default_signature()
    assert eval_signature(sig, 0.0, 0.0) == 0.0
    assert eval_signature(sig, 1.0, 0.0) == 2.0
    assert eval_signature(sig, 1.0, 1.0) == 2419.0


def test_eval_returns_float_for_scalars():
    val = eval_signature(default_signature(), 0.25, -0.5)
    assert isinstance(val, float)


def _fitted_estimate():
    estimate = fit_signature(spiral_samples(150, noise_std=STUDY_NOISE_STD, seed=0))
    assert sorted(estimate.terms) == sorted(_BASIS)  # all 15 monomials
    return estimate


@pytest.mark.parametrize("make_sig", [default_signature, _fitted_estimate],
                         ids=["default", "degree-4 estimate"])
def test_scalar_path_equals_the_array_path_bitwise(make_sig):
    # both paths take every power from the same chain of IEEE products and sum
    # the terms in the same order, so any other scalar power, such as math.pow
    # or numpy's own power kernel, makes this fail
    sig = make_sig()
    rng = np.random.default_rng(2024)
    n = 100_000
    # positions from desk scale to well beyond it, both signs
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 3, n)
    y = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 3, n)
    arr = eval_signature(sig, x, y)
    scalar = [eval_signature(sig, a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert all(type(v) is float for v in scalar)
    mismatched = np.flatnonzero(np.array(scalar).view(np.int64) != arr.view(np.int64))
    assert mismatched.size == 0, f"{mismatched.size} of {n} differ, first at {mismatched[:5]}"


@st.composite
def _signatures(draw):
    """A PolySignature of max_degree 1 to 8 over a random subset of its monomials."""
    max_degree = draw(st.integers(min_value=1, max_value=8))
    monomials = [(i, d - i) for d in range(max_degree + 1) for i in range(d + 1)]
    keys = draw(st.lists(st.sampled_from(monomials), min_size=1, unique=True))
    coeffs = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=len(keys),
                           max_size=len(keys)))
    return PolySignature(dict(zip(keys, coeffs)), max_degree=max_degree)


@settings(max_examples=200, deadline=None)
@given(_signatures(), st.integers(min_value=0, max_value=2**32 - 1))
# max_degree above the highest exponent, and powers of at most 2
@example(PolySignature({(3, 0): 1.5, (1, 2): -2.0}, max_degree=8), 1)
@example(PolySignature({(2, 0): 1.0, (1, 1): -3.0, (0, 2): 25.0, (0, 1): 0.5}, max_degree=8), 2)
@example(PolySignature({(1, 0): 1.0, (0, 1): 1.0}, max_degree=1), 3)
def test_scalar_path_equals_the_array_path_on_random_signatures(sig, seed):
    rng = np.random.default_rng(seed)
    n = 500
    x, y = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-3, 3, (2, n))
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0], x])
    y = np.concatenate([[-0.0, 1.0, 0.0, -1.0], y])
    arr = eval_signature(sig, x, y)
    scalar = np.array([eval_signature(sig, a, b) for a, b in zip(x.tolist(), y.tolist())])
    np.testing.assert_array_equal(scalar.view(np.int64), arr.view(np.int64))


def test_scalar_path_takes_ints_and_numpy_floats():
    sig = default_signature()
    expected = eval_signature(sig, np.array([2.0]), np.array([-3.0]))[0]
    for x, y in ((2, -3), (np.float64(2.0), np.float64(-3.0)), (2.0, -3)):
        val = eval_signature(sig, x, y)
        assert type(val) is float and val == expected
    # a 0-d array takes the array path and still returns a float
    assert eval_signature(sig, np.array(2.0), np.array(-3.0)) == expected


def test_eval_broadcasts_over_arrays():
    sig = PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2)
    x = np.linspace(-1.0, 1.0, 7)
    y = np.linspace(0.0, 2.0, 7)
    vals = eval_signature(sig, x, y)
    assert vals.shape == (7,)
    np.testing.assert_array_equal(vals, x**2 + y**2)
    gx, gy = np.meshgrid(x, y)
    grid = eval_signature(sig, gx, gy)
    assert grid.shape == (7, 7)
    np.testing.assert_array_equal(grid, gx**2 + gy**2)


def test_scalar_path_takes_no_power_the_terms_do_not_use():
    # x**8 overflows at 1e40; a signature of quadratic terms never needs it,
    # even when its max_degree allows it
    sig = PolySignature({(2, 0): 1.0, (1, 1): -3.0, (0, 2): 25.0}, max_degree=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = eval_signature(sig, 1e40, 0.5)
    assert val == eval_signature(sig, np.array([1e40]), np.array([0.5]))[0] == 1e80


def _chain_power(v, k):
    """The written chain v^k = v^(k//2) * v^(k - k//2), recomputed without a table."""
    if k == 0:
        return np.ones_like(v)
    if k == 1:
        return v
    return _chain_power(v, k // 2) * _chain_power(v, k - k // 2)


def _chain_phi(terms, x, y):
    """Phi as the sum of (c * x^i) * y^j over the terms in sorted order."""
    acc = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for (i, j), coeff in sorted(terms.items()):
        acc = acc + coeff * _chain_power(x, i) * _chain_power(y, j)
    return acc


# every exponent 0 to 8 on each axis, and one sparse large one
_CHAIN_TERMS = {**{(k, 8 - k): 0.5 + k for k in range(9)}, (3, 1): -2.0, (0, 1): 1.5,
                (1, 0): -0.25, (1001, 0): 3.0}


def test_every_power_is_the_written_chain(monkeypatch):
    sig = PolySignature(_CHAIN_TERMS, max_degree=1001)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-1.002, 1.002, (2, 400))
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0], x])
    y = np.concatenate([[-0.0, 1.0, 0.0, -1.0], y])
    expected = _chain_phi(_CHAIN_TERMS, x, y).view(np.int64)
    np.testing.assert_array_equal(eval_signature(sig, x, y).view(np.int64), expected)
    scalar = np.array([eval_signature(sig, a, b) for a, b in zip(x.tolist(), y.tolist())])
    np.testing.assert_array_equal(scalar.view(np.int64), expected)

    basis = sorted(_CHAIN_TERMS)
    want = np.column_stack([_chain_power(x, i) * _chain_power(y, j) for i, j in basis])
    np.testing.assert_array_equal(_design_matrix(x, y, basis).view(np.int64),
                                  want.view(np.int64))

    grids = _record_grid_rows(monkeypatch)
    with contextlib.suppress(ValueError):
        validate_smsf(sig)
    chain_grid = _chain_phi(_CHAIN_TERMS, *np.meshgrid(_AXIS, _AXIS))
    np.testing.assert_array_equal(eval_signature(sig, _AXIS, _AXIS[:, None]).view(np.int64),
                                  chain_grid.view(np.int64))
    assert len(grids) <= 1
    for rows, grid in grids:
        np.testing.assert_array_equal(grid.view(np.int64), chain_grid[rows].view(np.int64))


def _plan_powers(sig):
    """The (axis, exponent) of each power the plan multiplies out, in
    order, and of each term's two slots; axis 0 is x and 1 is y."""
    steps, terms = sig._plan
    slots = [None, (0, 1), (1, 1)]  # slot 0 holds 1.0, every axis's power 0
    for lo, hi in steps:
        (axis, a), (other, b) = slots[lo], slots[hi]
        assert axis == other
        slots.append((axis, a + b))
    used = [(slots[i] or (0, 0), slots[j] or (1, 0)) for _coeff, i, j in terms]
    return slots[3:], used


def _chain_exponents(k):
    """The exponents above 1 that _chain_power(v, k) multiplies out."""
    return set() if k < 2 else {k} | _chain_exponents(k // 2) | _chain_exponents(k - k // 2)


@settings(max_examples=200, deadline=None)
@given(_signatures())
@example(PolySignature(_CHAIN_TERMS, max_degree=1001))
@example(PolySignature({(2, 0): 1.0, (1, 1): -3.0, (0, 2): 25.0}, max_degree=8))
def test_the_plan_computes_the_powers_the_terms_use_once_each(sig):
    # the plan multiplies out each power _powers fills for these terms once,
    # no other (max_degree allows more), and each term reads its own two
    xs, ys = [i for i, _j in sig.terms], [j for _i, j in sig.terms]
    filled = ({(0, k) for k in smsf._powers(1.5, xs) if k > 1}
              | {(1, k) for k in smsf._powers(-0.5, ys) if k > 1})
    chain = ({(0, m) for k in xs for m in _chain_exponents(k)}
             | {(1, m) for k in ys for m in _chain_exponents(k)})
    computed, used = _plan_powers(sig)
    assert len(computed) == len(set(computed)) and set(computed) == filled == chain
    assert used == [((0, i), (1, j)) for i, j in sig.terms]
    assert [coeff for coeff, _i, _j in sig._plan[1]] == list(sig.terms.values())


@pytest.mark.parametrize("make_sig", [default_signature,
                                      lambda: PolySignature(_CHAIN_TERMS, max_degree=1001),
                                      _fitted_estimate], ids=["default", "chain", "estimate"])
def test_the_plan_survives_pickle_copy_and_the_document_form(make_sig):
    sig = make_sig()
    clones = [pickle.loads(pickle.dumps(sig)), copy.copy(sig), copy.deepcopy(sig),
              signature_from_dict(json.loads(json.dumps(signature_to_dict(sig))))]
    rng = np.random.default_rng(3)
    points = rng.uniform(-1.002, 1.002, (50, 2)).tolist()
    want = [eval_signature(sig, x, y) for x, y in points]
    for clone in clones:
        assert clone == sig and clone._plan == sig._plan
        assert [eval_signature(clone, x, y) for x, y in points] == want


def _record_grid_rows(monkeypatch):
    """Record validate_smsf's grid evaluations as (grid row indices, values)."""
    grids = []

    def recording(sig, x, y):
        assert np.array_equal(x, _AXIS) and y.shape[1:] == (1,)
        rows = np.searchsorted(_AXIS, y[:, 0])
        assert np.array_equal(_AXIS[rows], y[:, 0])
        grids.append((rows, eval_signature(sig, x, y)))
        return grids[-1][1]

    monkeypatch.setattr(smsf, "eval_signature", recording)
    return grids


def test_terms_are_stored_in_sorted_order():
    sig = PolySignature({(2, 2): 3.0, (0, 1): 1.0, (1, 0): 2.0})
    assert list(sig.terms) == [(0, 1), (1, 0), (2, 2)]


def test_a_signature_is_immutable():
    sig = default_signature()
    with pytest.raises(TypeError):
        sig.terms[(5, 0)] = 1.0
    with pytest.raises(AttributeError):
        sig.max_degree = 8
    with pytest.raises(AttributeError):
        sig.terms = {(5, 0): 1.0}
    assert sig == default_signature()
    assert pickle.loads(pickle.dumps(sig)) == sig
    assert copy.deepcopy(sig) == sig


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        PolySignature({(3, 2): 1.0}, max_degree=4)
    with pytest.raises(ValueError):
        PolySignature({(-1, 0): 1.0})
    with pytest.raises(ValueError):
        PolySignature({(1, 0): float("nan")})
    with pytest.raises(ValueError):
        PolySignature({(1, 0): 1.0}, max_degree=0)


def test_validate_accepts_default_signature():
    assert validate_smsf(default_signature()) is True


def test_validate_rejects_constant_term():
    sig = PolySignature({(0, 0): 0.5, (2, 0): 1.0})
    with pytest.raises(ValueError, match="constant term"):
        validate_smsf(sig)


def test_validate_rejects_negative_polynomial():
    sig = PolySignature({(1, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        validate_smsf(sig)


_AXIS = np.linspace(-1.0, 1.0, 201)
_EXPONENTS = st.sampled_from([(i, j) for i in range(5) for j in range(5) if 1 <= i + j <= 4])
_SPARSE = st.dictionaries(_EXPONENTS, st.floats(-10.0, 10.0), min_size=1, max_size=6)


@st.composite
def _touching_square(draw, along_row=False):
    """Expanded y^2 (x - a)^2, zero along the column x = a, or x^2 (y - a)^2,
    zero along the row y = a: where rounding decides the sign."""
    a = draw(st.sampled_from(_AXIS.tolist()) | st.floats(-1.5, 1.5))
    scale = draw(st.sampled_from([1.0, 3.0, 0.1]))
    square = {(2, 2): scale, (1, 2): -2.0 * a * scale, (0, 2): a * a * scale}
    return {(j, i): c for (i, j), c in square.items()} if along_row else square


def _damped_square(a, scale, damping):
    """Expanded (1 - damping x^2) y^2 (y - a)^2: near the row y = a the x^0
    and x^2 sums nearly cancel, so only rounding decides the row's sign."""
    square = {2: a * a * scale, 3: -2.0 * a * scale, 4: scale}
    return {**{(0, j): c for j, c in square.items()},
            **{(2, j): -damping * c for j, c in square.items()}}


_LOW_DEGREE = (_SPARSE | _touching_square() | _touching_square(along_row=True)
               | st.builds(_damped_square,
                           st.builds(float.__add__, st.sampled_from(_AXIS.tolist()),
                                     st.floats(-1e-6, 1e-6)),
                           st.floats(0.1, 10.0), st.floats(0.3, 1.0)))
# the same shapes with coefficients near +-1e300, where the row bounds' sums
# come close to overflowing
_NEAR_MAX = _LOW_DEGREE.flatmap(lambda terms: st.sampled_from([1e299, -1e300, 1.7e300]).map(
    lambda scale: {key: c * scale for key, c in terms.items()}))


@st.composite
def _far_exponents(draw):
    """Up to two terms with exponents up to 100000, 10**300 or 10**400, with
    or without a nonnegative x^2 + y^2 beside them: (terms, max_degree)."""
    max_degree = draw(st.sampled_from([100_000, 10**300, 10**400]))
    k = st.integers(0, max_degree // 2)
    far = draw(st.dictionaries(st.tuples(k, k).filter(any), st.floats(-10.0, 10.0),
                               min_size=1, max_size=2))
    base = draw(st.sampled_from([{}, {(2, 0): 1.0, (0, 2): 1.0}]))
    return {**base, **far}, max_degree


@settings(max_examples=300, deadline=None)
@given((_LOW_DEGREE | _NEAR_MAX).map(lambda terms: (terms, 6)) | _far_exponents())
@example(({(2, 2): 1.0, (2, 1): -0.2, (2, 0): 0.01}, 4))  # x^2 (y - 0.1)^2: rounds below 0
# row bounds just above 0 where the grid rounds below it
@example((_damped_square(-0.5199999999940248, 9.405004050258244, 0.7323847363374834), 6))
@example((_damped_square(-0.3999999999272024, 1.639849269918533, 0.5049385935889814), 6))
@example(({(2, 0): 1.7e308, (0, 2): 1.7e308, (2, 2): 1.7e308}, 4))  # sums overflow to inf
@example(({(2, 0): 1.7e308, (1, 0): -1.7e308, (0, 1): 1.7e308}, 4))
@example(({(2, 0): 1.0, (0, 2): 1.0, (10**300, 0): 1.0}, 10**300))
@example(({(2, 0): 1.0, (0, 2): 1.0, (10**400 + 1, 0): 1e-3}, 10**400 + 1))
@example(({(2, 0): 1.0, (100_001, 0): -1.0, (0, 100_000): 1.0}, 200_001))
def test_grid_check_verdict_equals_the_dense_check(sig_args):
    sig = PolySignature(*sig_args)
    with np.errstate(over="ignore"):  # the near-overflow cases sum to inf
        # every value of the 201 x 201 grid, as outer products of axis powers
        if float(eval_signature(sig, _AXIS, _AXIS[:, None]).min()) < 0.0:
            with pytest.raises(ValueError, match="negative"):
                validate_smsf(sig)
        else:
            assert validate_smsf(sig) is True


def test_the_default_signature_evaluates_at_most_three_grid_rows(monkeypatch):
    grids = _record_grid_rows(monkeypatch)
    assert validate_smsf(default_signature()) is True
    assert sum(len(rows) for rows, _ in grids) <= 3


def test_default_signature_is_zero_only_at_origin_on_grid():
    axis = np.linspace(-1.0, 1.0, 201)
    gx, gy = np.meshgrid(axis, axis)
    vals = eval_signature(default_signature(), gx, gy)
    assert float(vals.min()) == 0.0
    zero_rows, zero_cols = np.nonzero(vals == 0.0)
    assert len(zero_rows) == 1
    assert axis[zero_cols[0]] == 0.0 and axis[zero_rows[0]] == 0.0


# ---------------------------------------------------------------------------
# affine channel fits


def test_affine_fit_identity_pairs():
    v = np.linspace(-3.0, 5.0, 40)
    fit = _affine_fit(v, v)
    assert abs(fit.s_phi - 1.0) <= 1e-9
    assert abs(fit.d_phi) <= 1e-9
    assert fit.nrmse <= 1e-12


def test_affine_fit_recovers_known_channel():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = rng.uniform(-4.0, 4.0)
        d = rng.uniform(-2.0, 2.0)
        if abs(s) < 0.1:
            continue
        phi_in = rng.uniform(-1.0, 1.0, size=60)
        fit = _affine_fit(phi_in, s * phi_in + d)
        assert abs(fit.s_phi - s) <= 1e-9
        assert abs(fit.d_phi - d) <= 1e-9
        assert fit.nrmse <= 1e-10


def test_affine_fit_input_validation():
    with pytest.raises(ValueError, match="degenerate"):
        _affine_fit(np.array([2.0, 2.0, 2.0]), np.array([1.0, 5.0, 9.0]))
    with pytest.raises(ValueError, match="degenerate"):  # one sample has no spread
        _affine_fit(np.array([1.0]), np.array([2.0]))


def test_squared_radius_scales_quadratically_under_position_scaling():
    # For Phi = x^2 + y^2, pairs (Phi(p), Phi(alpha p)) lie exactly on the
    # channel s_phi = alpha^2, d_phi = 0.
    sig = PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2)
    axis = np.linspace(-1.0, 1.0, 21)
    gx, gy = np.meshgrid(axis, axis)
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = rng.uniform(0.3, 2.5)
        phi_in = eval_signature(sig, gx, gy).ravel()
        phi_out = eval_signature(sig, alpha * gx, alpha * gy).ravel()
        fit = _affine_fit(phi_in, phi_out)
        assert abs(fit.s_phi - alpha**2) <= 1e-9
        assert abs(fit.d_phi) <= 1e-9
        assert fit.nrmse <= 1e-10


# ---------------------------------------------------------------------------
# resilience verdicts


def test_default_signature_resists_builtin_attacks(scenario_runs):
    nominal = scenario_runs["nominal"].nominal
    p0 = Posture(0.0, 0.02, 0.0)
    sig = default_signature()
    attacks = [
        build_reflection(0.5, p0),
        build_reflection(1.0, p0),
        build_reflection(2.0, p0),
        build_scaling(0.5, p0),
        build_scaling(2.0, p0),
    ]
    for attack in attacks:
        res = resilience_check(sig, attack, nominal)
        assert res.resilient
        assert res.fit.nrmse > 0.05


def test_default_signature_resists_tilted_reflection(scenario_runs):
    bundle = scenario_runs["scenario3"]
    res = resilience_check(default_signature(), bundle.attack, bundle.nominal)
    assert res.resilient
    assert res.fit.nrmse > 0.05


def test_squared_radius_is_vulnerable_to_origin_scaling(origin_trace):
    sig = PolySignature({(2, 0): 1.0, (0, 2): 1.0}, max_degree=2)
    origin = Posture(0.0, 0.0, 0.0)
    for beta, s_expected in ((2.0, 0.25), (0.5, 4.0)):
        res = resilience_check(sig, build_scaling(beta, origin), origin_trace)
        assert not res.resilient
        assert res.fit.nrmse <= 1e-9
        assert abs(res.fit.s_phi - s_expected) <= 1e-9
        assert abs(res.fit.d_phi) <= 1e-9


def test_resilience_check_fits_the_grid_attack_state_maps(scenario_runs, monkeypatch):
    # the tilted reflection has several nonzeros per row, where a BLAS-ordered
    # matrix product rounds differently from attack_state's left-to-right sums
    bundle = scenario_runs["scenario3"]
    trace = bundle.nominal
    fitted = []

    def recording(phi_in, phi_out):
        fitted.append(np.column_stack([phi_in, phi_out]))
        return _affine_fit(phi_in, phi_out)

    monkeypatch.setattr(smsf, "_affine_fit", recording)
    sig = default_signature()
    resilience_check(sig, bundle.attack, trace)
    x0, y0, theta0 = float(trace.x[0]), float(trace.y[0]), float(trace.theta[0])
    gx, gy = np.meshgrid(np.linspace(x0 - 0.1, x0 + 0.1, 101), np.linspace(y0 - 0.1, y0 + 0.1, 101))
    x, y = gx.ravel(), gy.ravel()
    x_obs, y_obs, _ = attack_state(bundle.attack, x, y, theta0)
    want = np.column_stack([eval_signature(sig, x, y), eval_signature(sig, x_obs, y_obs)])
    assert len(fitted) == 1
    np.testing.assert_array_equal(fitted[0].view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# residual monitor


def test_detection_config_validation():
    cfg = DetectionConfig()
    assert cfg.epsilon == 1e-6
    assert cfg.window == 10
    with pytest.raises(ValueError):
        DetectionConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        DetectionConfig(window=0)


def test_windowed_detect_examples():
    t = np.arange(6) * 0.5
    exceed = np.array([False, True, True, False, True, True])
    assert _windowed_detect(t, exceed, 2) == t[2]
    assert _windowed_detect(t, exceed, 3) is None
    assert _windowed_detect(t, np.zeros(6, dtype=bool), 1) is None
    assert _windowed_detect(t, np.ones(3, dtype=bool), 5) is None


def test_monitor_fails_closed_on_a_non_finite_residual(scenario_runs, tmp_path):
    # NaN compares false against epsilon: a NaN stream used to read as silent
    nominal = scenario_runs["nominal"].nominal
    data = nominal.data.copy()
    data[100:, TRACE_COLUMNS.index("phi_plant")] = np.nan
    data[120, TRACE_COLUMNS.index("phi_plant")] = np.inf
    result = monitor(SimTrace(data), default_signature())
    assert result.flag
    assert result.first_exceed_t == nominal.t[100]
    assert result.detect_t == nominal.t[109]
    # monitor.csv marks the same samples as the detector counted
    write_monitor_csv(tmp_path / "monitor.csv", result)
    exceeds = np.loadtxt(tmp_path / "monitor.csv", delimiter=",", skiprows=1)[:, 2]
    np.testing.assert_array_equal(exceeds, np.arange(len(data)) >= 100)


# residual values around an epsilon of 1e-6: exact ties, either side of it, and non-finite ones
_RESIDUALS = st.sampled_from([0.0, 1e-6, -1e-6, 1e-6 * (1 + 2**-52), 1.0, float("nan"),
                              float("inf"), -float("inf")])


@settings(max_examples=200, deadline=None)
@given(st.lists(_RESIDUALS, min_size=1, max_size=30), st.integers(1, 5))
def test_monitor_csv_writes_the_monitors_own_exceedances(tmp_path_factory, phis, window):
    # at (0, 0) the default signature is 0, so each residual is |phi|
    t = np.arange(len(phis)) * 0.02
    trace = SimTrace(np.column_stack([t, phis, np.zeros((len(phis), 2))]),
                     ("t", "phi_plant", "x_obs", "y_obs"))
    result = monitor(trace, default_signature(), DetectionConfig(1e-6, window))
    expected = [not abs(v) <= 1e-6 for v in phis]
    np.testing.assert_array_equal(result.exceeds, expected)
    path = tmp_path_factory.getbasetemp() / "drawn_monitor.csv"
    write_monitor_csv(path, result)
    written = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]
    np.testing.assert_array_equal(written, expected)
    # both times are read off that vector
    hits = [i for i, e in enumerate(expected) if e]
    assert result.first_exceed_t == (t[hits[0]] if hits else None)
    runs = [i for i in range(window - 1, len(phis)) if all(expected[i - window + 1:i + 1])]
    assert result.detect_t == (t[runs[0]] if runs else None)
    assert result.flag == bool(runs)


def test_monitor_is_silent_on_nominal_run(scenario_runs):
    nominal = scenario_runs["nominal"].nominal
    result = monitor(nominal, default_signature())
    assert not result.flag
    assert result.first_exceed_t is None
    assert result.detect_t is None
    np.testing.assert_array_equal(result.residual, np.zeros_like(result.residual))


def test_monitor_ignores_actual_positions(scenario_runs):
    # The controller never sees the actual (x, y); only the received stream
    # and the observed posture enter the residual.
    nominal = scenario_runs["nominal"].nominal
    moved = SimTrace(nominal.data.copy())
    moved.data[:, TRACE_COLUMNS.index("x")] += 0.5
    moved.data[:, TRACE_COLUMNS.index("y")] = -1.0
    result = monitor(moved, default_signature())
    assert not result.flag
    np.testing.assert_array_equal(result.residual, np.zeros_like(result.residual))


def test_monitor_flags_attacked_runs_within_one_second(scenario_runs):
    for name in ("scenario1", "scenario2"):
        attacked = scenario_runs[name].attacked
        result = monitor(attacked, scenario_runs[name].scenario.signature)
        assert result.flag
        assert result.first_exceed_t is not None
        assert result.detect_t is not None and result.detect_t <= 1.0


def test_monitor_scaling_residual_dominates_reflection(scenario_runs):
    sig = default_signature()
    peak1 = float(monitor(scenario_runs["scenario1"].attacked, sig).residual.max())
    peak2 = float(monitor(scenario_runs["scenario2"].attacked, sig).residual.max())
    assert peak2 > peak1


def _tampered(trace, rewrite):
    """The trace with its received signature stream passed through rewrite."""
    data = trace.data.copy()
    col = TRACE_COLUMNS.index("phi_plant")
    data[:, col] = rewrite(data[:, col])
    return SimTrace(data)


def test_monitor_catches_scalar_channel_tampering(scenario_runs):
    # Even on an undetectable state attack, a sign-flipping channel on the
    # signature stream leaves an immediate residual.
    attacked = scenario_runs["scenario1"].attacked
    result = monitor(_tampered(attacked, lambda phi: -phi), default_signature())
    assert result.flag


def test_monitor_catches_constant_offset_on_signature_stream(origin_trace):
    # Phi(0,0) = 0 anchors the residual, so even a tiny additive offset on the
    # stream exceeds epsilon from the first sample.
    result = monitor(_tampered(origin_trace, lambda phi: phi + 1e-3), default_signature())
    assert result.flag
    assert result.first_exceed_t == 0.0
    assert result.detect_t == float(origin_trace.t[DetectionConfig().window - 1])


def test_monitor_residual_is_received_minus_expected_on_builtins(scenario_runs):
    # run() fills phi_plant/phi_ctrl with the same array evaluation, so the one
    # residual equals the logged columns' difference bitwise.
    sig = default_signature()
    for name in ("nominal", "scenario1", "scenario2", "scenario3"):
        bundle = scenario_runs[name]
        trace = bundle.attacked if bundle.attacked is not None else bundle.nominal
        np.testing.assert_array_equal(
            monitor(trace, sig).residual, np.abs(trace.phi_plant - trace.phi_ctrl)
        )


# ---------------------------------------------------------------------------
# serialization


def test_signature_dict_round_trip():
    sig = default_signature()
    d = signature_to_dict(sig)
    assert d["max_degree"] == 4
    assert list(d["terms"]) == sorted(d["terms"])
    assert d["terms"]["2,2"] == 2501.0
    back = signature_from_dict(d)
    assert back.terms == sig.terms
    assert back.max_degree == sig.max_degree


def test_signature_from_dict_refuses_what_a_scenario_document_refuses():
    bad = [{}, {"terms": [1]}, {"terms": {"2,0": 1.0}, "max_degree": 2.5},
           {"terms": {"1,0": 1.0}, "extra": 1}]
    bad += [doc["signature"] for doc in _MALFORMED_VALUES if "signature" in doc]
    for doc in bad:
        with pytest.raises(ValueError):
            signature_from_dict(doc)


@settings(max_examples=300, deadline=None)
@given(JSONISH | st.dictionaries(
    st.sampled_from(["terms", "max_degree"]),
    st.dictionaries(_TERM_KEYS, JSON_SCALARS, max_size=3) | JSON_SCALARS, max_size=2))
def test_signature_from_dict_raises_only_value_error(doc):
    try:
        sig = signature_from_dict(doc)
    except ValueError:
        return
    assert signature_from_dict(signature_to_dict(sig)) == sig
