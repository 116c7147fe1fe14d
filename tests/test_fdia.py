"""Attack construction, the two closure conditions, and command-map admissibility."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import JSON_SCALARS, JSONISH
from fdia_lab.fdia import (
    AffineAttack,
    KIND_CUSTOM,
    AttackError,
    _closure_residual,
    attack_command,
    attack_from_dict,
    attack_state,
    attack_to_dict,
    build_reflection,
    build_scaling,
    check_condition1,
    check_condition2,
    identity_attack,
    load_attack,
    save_attack,
)
from fdia_lab.kinematics import Posture

P0 = Posture(0.0, 0.02, 0.0)
P0_TILTED = Posture(0.0, 0.02, math.pi / 6)


def test_reflection_about_initial_x_axis():
    a = build_reflection(1.0, P0)
    assert np.array_equal(a.s_x, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(a.d_x, [0.0, 0.04, 0.0])
    assert np.array_equal(a.s_u, [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(a.d_u, [0.0, 0.0])


def test_reflection_about_tilted_heading():
    a = build_reflection(1.0, P0_TILTED)
    root3 = math.sqrt(3.0)
    want_sx = [[0.5, root3 / 2, 0.0], [root3 / 2, -0.5, 0.0], [0.0, 0.0, -1.0]]
    assert np.allclose(a.s_x, want_sx, atol=1e-15)
    assert np.allclose(a.d_x, [-0.01 * root3, 0.03, math.pi / 3], atol=1e-15)
    assert np.array_equal(a.s_u, [[1.0, 0.0], [0.0, -1.0]])


def test_reflection_from_origin():
    a = build_reflection(1.0, Posture(0.0, 0.0, 0.0))
    assert np.array_equal(a.s_x, np.diag([1.0, -1.0, -1.0]))
    assert np.array_equal(a.d_x, np.zeros(3))


def test_scaling_matrices():
    a = build_scaling(0.5, P0)
    assert np.array_equal(a.s_x, np.diag([2.0, 2.0, 1.0]))
    assert np.array_equal(a.d_x, [0.0, -0.02, 0.0])
    assert np.array_equal(a.s_u, [[0.5, 0.0], [0.0, 1.0]])

    a = build_scaling(2.0, Posture(1.0, 0.0, 0.0))
    assert np.array_equal(a.s_x, np.diag([0.5, 0.5, 1.0]))
    assert np.array_equal(a.d_x, [0.5, 0.0, 0.0])


def test_scaling_at_unit_beta_is_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p0 = Posture(*(float(c) for c in rng.uniform(-2, 2, 3)))
        a = build_scaling(1.0, p0)
        assert np.array_equal(a.s_x, np.eye(3))
        assert np.array_equal(a.d_x, np.zeros(3))
        assert np.array_equal(a.s_u, np.eye(2))


def test_builders_reject_zero_beta():
    with pytest.raises(ValueError):
        build_reflection(0.0, P0)
    with pytest.raises(ValueError):
        build_scaling(0.0, P0)


def test_attack_requires_invertible_state_map():
    singular = np.diag([1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        AffineAttack(singular, np.zeros(3), np.eye(2), np.zeros(2))


def test_invertibility_does_not_depend_on_the_rows_scale():
    # a large beta11 shrinks two rows of s_x, not its rank: the attack builds
    # and its document loads back
    for a in (build_scaling(1e7, P0), build_reflection(-1e9, P0_TILTED)):
        assert attack_to_dict(attack_from_dict(attack_to_dict(a))) == attack_to_dict(a)
    # and a map of rank 2 stays singular however its rows are scaled
    for scale in (1e-300, 1.0, 1e300):
        for rank2 in (scale * np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]),
                      np.diag([scale, scale, 0.0])):
            with pytest.raises(AttackError, match="invertible"):
                AffineAttack(rank2, np.zeros(3), np.eye(2), np.zeros(2))


@pytest.mark.parametrize("name, size", [("s_x", 9), ("d_x", 3), ("s_u", 4), ("d_u", 2)])
def test_attack_rejects_a_wrongly_sized_map(name, size):
    maps = {"s_x": np.eye(3), "d_x": np.zeros(3), "s_u": np.eye(2), "d_u": np.zeros(2)}
    for wrong in (size - 1, size + 1):
        with pytest.raises(AttackError, match=f"AffineAttack.{name} must hold {size} numbers"):
            AffineAttack(**{**maps, name: np.ones(wrong)})


def test_attack_state_examples():
    ident = identity_attack()
    p = (0.3, -0.7, 2.2)
    assert attack_state(ident, *p) == p

    s1 = build_reflection(1.0, P0)
    mapped = attack_state(s1, P0.x, P0.y, P0.theta)
    assert all(isinstance(c, float) for c in mapped)
    assert np.max(np.abs(np.subtract(mapped, P0.as_array()))) <= 1e-15

    s2 = build_scaling(0.5, P0)
    mapped = attack_state(s2, 0.1, 0.02, 0.5)
    assert np.max(np.abs(np.subtract(mapped, (0.2, 0.02, 0.5)))) <= 1e-15


def test_attack_command_examples():
    q = (0.02, 0.3)
    assert attack_command(build_reflection(1.0, P0), *q) == (0.02, -0.3)
    assert attack_command(build_scaling(0.5, P0), *q) == (0.01, 0.3)
    assert attack_command(identity_attack(), *q) == q


def _written_order(s, d, p):
    """Each row as the float sum s0*p0 + s1*p1 + ... + d, left to right."""
    out = []
    for row, offset in zip(s.tolist(), d.tolist()):
        acc = row[0] * p[0]
        for coeff, value in zip(row[1:], p[1:]):
            acc = acc + coeff * value
        out.append(acc + offset)
    return tuple(out)


def test_attack_maps_follow_the_written_order_bitwise():
    # the maps are written-out float sums, so a tilted reflection (several
    # nonzeros per row) gives the same bits whatever BLAS kernel is loaded
    rng = np.random.default_rng(36)
    attacks = [build_reflection(1.0, P0_TILTED)]
    while len(attacks) < 6:
        s_x = rng.uniform(-2, 2, (3, 3))
        if abs(np.linalg.det(s_x)) > 0.1:
            attacks.append(AffineAttack(s_x, rng.uniform(-1, 1, 3),
                                        rng.uniform(-2, 2, (2, 2)), rng.uniform(-1, 1, 2)))
    for a in attacks:
        states, commands = rng.uniform(-2, 2, (200, 3)), rng.uniform(-2, 2, (200, 2))
        for p, q in zip(states.tolist(), commands.tolist()):
            assert attack_state(a, *p) == _written_order(a.s_x, a.d_x, p)
            assert attack_command(a, *q) == _written_order(a.s_u, a.d_u, q)


def test_array_maps_equal_the_scalar_maps_bitwise():
    # resilience_check maps whole grids at once: each element must get the
    # scalar call's bits, for the builders and for a custom map from a document
    rng = np.random.default_rng(18)
    custom = attack_from_dict({
        "s_x": rng.uniform(-2, 2, 9).tolist(), "d_x": rng.uniform(-1, 1, 3).tolist(),
        "s_u": rng.uniform(-2, 2, 4).tolist(), "d_u": rng.uniform(-1, 1, 2).tolist(),
    })
    attacks = [custom, identity_attack(), build_reflection(-1.7, P0_TILTED),
               build_reflection(0.6, P0), build_scaling(2.5, P0_TILTED), build_scaling(-0.4, P0)]
    x, y, theta = rng.uniform(-2, 2, (3, 64))
    v, omega = rng.uniform(-1, 1, (2, 64))
    for a in attacks:
        state = np.column_stack(attack_state(a, x, y, theta))
        scalar = np.array([attack_state(a, *p) for p in zip(x.tolist(), y.tolist(),
                                                            theta.tolist())])
        assert state.tobytes() == scalar.tobytes()
        # the grid form resilience_check uses: arrays of positions, one heading
        grid = np.column_stack(attack_state(a, x, y, 0.25))
        scalar = np.array([attack_state(a, px, py, 0.25) for px, py in zip(x.tolist(),
                                                                          y.tolist())])
        assert grid.tobytes() == scalar.tobytes()
        command = np.column_stack(attack_command(a, v, omega))
        scalar = np.array([attack_command(a, *q) for q in zip(v.tolist(), omega.tolist())])
        assert command.tobytes() == scalar.tobytes()


def test_attack_is_immutable():
    a = build_reflection(1.0, P0_TILTED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.s_x = np.eye(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.beta11 = 2.0
    with pytest.raises(ValueError):
        a.d_x[0] = 1.0


def test_attack_state_is_affine():
    rng = np.random.default_rng(32)
    for _ in range(30):
        p0 = Posture(*(float(c) for c in rng.uniform(-1, 1, 3)))
        beta = float(rng.uniform(0.2, 2.0))
        a = build_reflection(beta, p0) if rng.random() < 0.5 else build_scaling(beta, p0)
        p = rng.uniform(-2, 2, 3)
        p2 = rng.uniform(-2, 2, 3)
        lam = float(rng.uniform(-1.0, 2.0))
        blended = attack_state(a, *(float(c) for c in lam * p + (1 - lam) * p2))
        part = lam * np.array(attack_state(a, *p.tolist())) + (1 - lam) * np.array(
            attack_state(a, *p2.tolist())
        )
        assert np.max(np.abs(np.array(blended) - part)) <= 1e-12


def test_reflection_mirrors_heading():
    """The observed heading is the reflection of the actual one about theta0."""
    rng = np.random.default_rng(33)
    for _ in range(30):
        theta0 = float(rng.uniform(-2, 2))
        a = build_reflection(1.0, Posture(0.0, 0.02, theta0))
        theta = float(rng.uniform(-10, 10))
        assert abs(attack_state(a, 0.0, 0.0, theta)[2] - (2.0 * theta0 - theta)) <= 1e-12


def test_condition1_examples():
    s3 = build_reflection(1.0, P0_TILTED)
    assert check_condition1(s3, P0_TILTED) <= 1e-12

    s1 = build_reflection(1.0, P0)
    assert abs(check_condition1(s1, Posture(0.0, 0.0, 0.0)) - 0.04) <= 1e-15

    assert check_condition1(identity_attack(), Posture(0.5, -0.5, 1.0)) == 0.0


def test_conditions_hold_for_every_built_attack():
    rng = np.random.default_rng(34)
    for i in range(20):
        p0 = Posture(*(float(c) for c in rng.uniform(-1, 1, 3)))
        beta = float(rng.uniform(0.2, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        builder = build_reflection if i % 2 == 0 else build_scaling
        a = builder(beta, p0)
        assert check_condition1(a, p0) <= 1e-12
        assert check_condition2(a, n_samples=1000, seed=i) <= 1e-10


def test_inadmissible_command_maps_break_condition2():
    base = build_reflection(1.0, P0)
    coupled = np.array([[1.0, 0.1], [0.0, 1.0]])
    bad = AffineAttack(base.s_x, base.d_x, coupled, base.d_u)
    assert check_condition2(bad, n_samples=1000, seed=0) > 0.01

    wrong_turn = np.diag([1.0, 2.0])
    bad = AffineAttack(base.s_x, base.d_x, wrong_turn, base.d_u)
    assert check_condition2(bad, n_samples=1000, seed=0) > 1e-3


_BETA = st.floats(0.05, 20.0) | st.floats(-20.0, -0.05)
_POSTURE = st.builds(Posture, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(-10.0, 10.0))
_BUILT = st.builds(lambda build, beta, p0: build(beta, p0),
                   st.sampled_from([build_reflection, build_scaling]), _BETA, _POSTURE)
_AWAY = st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)  # a change far above 1e-10


@st.composite
def _inadmissible(draw):
    """A built attack with one break: a coupled s_u, a nonzero d_u, or s22 off {-1, 0, 1}."""
    a = draw(_BUILT)
    s_x, s_u, d_u = a.s_x.copy(), a.s_u.copy(), a.d_u.copy()
    change = draw(st.sampled_from(["coupled", "offset", "heading"]))
    if change == "coupled":
        s_u[draw(st.sampled_from([(0, 1), (1, 0)]))] = draw(_AWAY)
    elif change == "offset":
        d_u[draw(st.integers(0, 1))] = draw(_AWAY)
    else:
        s_x[2, 2] = draw(st.floats(-3.0, 3.0).filter(
            lambda s22: min(abs(s22 - k) for k in (-1.0, 0.0, 1.0)) >= 1e-3))
    return AffineAttack(s_x, a.d_x, s_u, d_u)


@settings(max_examples=300, deadline=None)
@given(_BUILT | _inadmissible(), st.integers(0, 2**32 - 1))
@example(build_reflection(1.0, P0_TILTED), 0)
@example(AffineAttack(np.eye(3), np.zeros(3), np.diag([1.0, 2.0]), np.zeros(2)), 0)
def test_exact_and_sampled_closure_agree(a, seed):
    exact, sampled = _closure_residual(a), check_condition2(a, n_samples=1000, seed=seed)
    assert (exact <= 1e-10) == (sampled <= 1e-10), (exact, sampled)
    admissible = a.kind != KIND_CUSTOM
    assert (exact <= 1e-10) == admissible
    if admissible:
        assert exact <= 1e-15


def test_closure_residual_is_the_largest_coefficient_gap():
    base = build_scaling(1.0, P0)
    coupled = AffineAttack(base.s_x, base.d_x, [[1.0, 0.1], [0.0, 1.0]], base.d_u)
    assert _closure_residual(coupled) == 0.1  # the omega cos(theta) term of row 0
    turned = build_reflection(1.0, P0)
    stretched = AffineAttack(turned.s_x, turned.d_x, np.diag([1.0, 2.0]), turned.d_u)
    assert _closure_residual(stretched) == 3.0  # -1 * 2 omega against omega
    half = AffineAttack(np.diag([1.0, 1.0, 0.5]), np.zeros(3), np.eye(2), np.zeros(2))
    assert _closure_residual(half) == math.inf
    # s22 = 0 holds the observed heading at d2: its cos and sin are constants
    swapped = AffineAttack([[1, 0, 0], [0, 0, 1], [0, 1, 0]], np.zeros(3), np.eye(2), np.zeros(2))
    assert _closure_residual(swapped) == 1.0
    assert _closure_residual(identity_attack()) == 0.0


def _closure_system(a):
    """The closure identity's 27 coefficients as A @ (s00, s01, s10, s11, du0, du1) = b.

    Written for |s22| = 1: over (cos theta, sin theta, 1) x (v, omega, 1), row
    k of the left side is s_x[k, 0] v~ cos + s_x[k, 1] v~ sin + s_x[k, 2] omega~,
    and the right side's rows are v cos(theta~), v sin(theta~) and omega.
    """
    s22, d2 = a.s_x[2, 2], a.d_x[2]
    c, s = math.cos(d2), math.sin(d2)
    rhs = np.zeros((3, 3, 3))
    rhs[0, :2, 0] = c, -s22 * s
    rhs[1, :2, 0] = s, s22 * c
    rhs[2, 2, 1] = 1.0
    lhs = np.zeros((3, 3, 3, 6))
    for q, (speed, turn) in enumerate([(0, 2), (1, 3), (4, 5)]):  # v, omega, 1
        lhs[:, 0, q, speed] = a.s_x[:, 0]
        lhs[:, 1, q, speed] = a.s_x[:, 1]
        lhs[:, 2, q, turn] = a.s_x[:, 2]
    return lhs.reshape(27, 6), rhs.ravel()


@settings(max_examples=100, deadline=None)
@given(_BUILT)
def test_closure_forces_the_papers_command_maps(a):
    # the paper's "partially linear dynamic properties and symmetry": given the
    # s_x of a reflection or a scaling, the one command map that closes the
    # kinematics is s_u = diag(beta11, s22), |s22| = 1, with d_u = 0
    s22 = a.s_x[2, 2]
    assert abs(s22) == 1.0
    lhs, rhs = _closure_system(a)
    assert np.linalg.matrix_rank(lhs) == 6
    sol = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    np.testing.assert_allclose(lhs @ sol, rhs, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(sol[:4], [a.beta11, 0.0, 0.0, s22], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sol[4:], 0.0, rtol=0.0, atol=1e-12)


def test_builders_fix_du_to_zero():
    rng = np.random.default_rng(35)
    for _ in range(10):
        p0 = Posture(*(float(c) for c in rng.uniform(-1, 1, 3)))
        assert np.array_equal(build_reflection(2.0, p0).d_u, np.zeros(2))
        assert np.array_equal(build_scaling(0.3, p0).d_u, np.zeros(2))


def test_serialization_round_trip(tmp_path):
    a = build_reflection(1.0, P0_TILTED)
    d = attack_to_dict(a)
    assert len(d["s_x"]) == 9 and len(d["d_x"]) == 3
    assert len(d["s_u"]) == 4 and len(d["d_u"]) == 2
    back = attack_from_dict(d)
    assert np.array_equal(back.s_x, a.s_x) and np.array_equal(back.d_x, a.d_x)
    assert np.array_equal(back.s_u, a.s_u) and np.array_equal(back.d_u, a.d_u)
    assert back.kind == a.kind and back.beta11 == a.beta11

    path = tmp_path / "attack.json"
    save_attack(a, path)
    loaded = load_attack(path)
    assert np.array_equal(loaded.s_x, a.s_x)
    assert json.loads(path.read_text())["kind"] == a.kind


def _attack_doc(**overrides):
    doc = attack_to_dict(build_reflection(1.0, P0_TILTED))
    doc.update(overrides)
    return doc


_MALFORMED_ATTACKS = [
    {},
    [],
    _attack_doc(d_x=["0", "0", "0"]),
    _attack_doc(beta11=True),
    _attack_doc(beta11="1.0"),
    _attack_doc(beta11=math.inf),
    _attack_doc(s_x=[1.0] * 8),
    _attack_doc(s_x=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    _attack_doc(d_u=[0.0, True]),
    _attack_doc(d_u=[0.0, math.nan]),
    _attack_doc(s_u=[1.0, 0.0, 0.0, 10**400]),
    _attack_doc(s_u="eye"),
    _attack_doc(s_x=[0.0] * 9),
    _attack_doc(kind="Warp"),
    _attack_doc(kind=3),
    _attack_doc(gamma=1.0),
    # numbers float64 cannot hold exactly would load rounded to 2**53
    _attack_doc(d_x=[2**53 + 1, 0.0, 0.0]),
    _attack_doc(beta11=-(2**53 + 1)),
]


def test_attack_documents_are_untrusted_input():
    for doc in _MALFORMED_ATTACKS:
        with pytest.raises(AttackError):
            attack_from_dict(doc)
    for missing in ("s_x", "d_x", "s_u", "d_u"):
        doc = _attack_doc()
        del doc[missing]
        with pytest.raises(AttackError, match=missing):
            attack_from_dict(doc)
    # kind and beta11 are optional; integers are JSON numbers too
    doc = _attack_doc(s_u=[1, 0, 0, -1])
    del doc["kind"], doc["beta11"]
    a = attack_from_dict(doc)
    assert (a.kind, a.beta11) == ("Custom", 1.0)
    assert np.array_equal(a.s_u, np.diag([1.0, -1.0]))


def test_attack_file_rejects_non_json(tmp_path):
    path = tmp_path / "attack.json"
    for raw in (b"\xff\xfe", b"{not json", b"[" * 100_000 + b"]" * 100_000, b"1" * 5000):
        path.write_bytes(raw)
        with pytest.raises(AttackError, match="not valid JSON"):
            load_attack(path)
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(AttackError, match="s_x"):
        load_attack(path)


_NUMBERS = st.floats(-2.0, 2.0) | st.integers(-2, 2)
_SIZES = {"s_x": 9, "d_x": 3, "s_u": 4, "d_u": 2}
_OPTIONAL = {
    "kind": st.sampled_from(["Reflection", "Scaling", "Identity", "Custom"]) | JSON_SCALARS,
    "beta11": st.floats(-2.0, 2.0) | JSON_SCALARS,
    "gamma": JSON_SCALARS,
}
_ATTACK_DOCS = (
    # well-formed maps beside optional keys, which may be malformed
    st.fixed_dictionaries({k: st.lists(_NUMBERS, min_size=n, max_size=n)
                           for k, n in _SIZES.items()}, optional=_OPTIONAL)
    # any entry may be missing, mis-sized or hold a non-number
    | st.fixed_dictionaries({}, optional={
        **{k: st.lists(_NUMBERS | JSON_SCALARS, min_size=n - 1, max_size=n + 1) | JSONISH
           for k, n in _SIZES.items()}, **_OPTIONAL})
    | JSONISH
)


@settings(max_examples=300, deadline=None)
@given(_ATTACK_DOCS)
def test_any_attack_document_loads_or_raises_attack_error(doc):
    try:
        a = attack_from_dict(json.loads(json.dumps(doc)))
    except AttackError:
        return
    assert a.s_x.shape == (3, 3) and np.all(np.isfinite(a.s_x))
