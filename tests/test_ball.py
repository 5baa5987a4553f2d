import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from kreinkit import (
    BoundaryError,
    MapUndefinedError,
    build_space,
    fractional_linear,
    hyperbolic_distance,
    invariance_residual,
    mobius_apply,
    mobius_matrix,
    mobius_norm,
    operator_norm,
    radius_from_norm,
)
import kreinkit.ball as ball_module
from kreinkit.ball import BOUNDARY_MARGIN
from kreinkit.fixtures import random_ball_point, random_j_unitary
from kreinkit.spaces import PREDICATE_TOL, _j_conjugate, _norm_lower_bound


def test_mobius_of_zero_is_center():
    rng = np.random.default_rng(0)
    sp = build_space(2, 3)
    a = random_ball_point(sp, rng, 0.7)
    assert_allclose(mobius_apply(sp, a, np.zeros((3, 2))), a, atol=1e-13)


def test_mobius_with_zero_center_is_identity():
    rng = np.random.default_rng(1)
    sp = build_space(2, 3)
    x = random_ball_point(sp, rng, 0.9)
    assert_allclose(mobius_apply(sp, np.zeros((3, 2)), x), x, atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_mobius_round_trip(seed):
    rng = np.random.default_rng(seed)
    sp = build_space(int(rng.integers(1, 4)), int(rng.integers(1, 5)))
    a = random_ball_point(sp, rng, rng.uniform(0.1, 0.7))
    x = random_ball_point(sp, rng, rng.uniform(0.1, 0.9))
    y = mobius_apply(sp, a, x)
    assert operator_norm(y) < 1.0
    assert_allclose(mobius_apply(sp, -a, y), x, atol=1e-10)


def test_mobius_matrix_trivial_and_scalar():
    sp = build_space(1, 1)
    assert_allclose(mobius_matrix(sp, np.zeros((1, 1))), np.eye(2))
    m = mobius_matrix(sp, [[0.6]])
    assert_allclose(m, 1.25 * np.array([[1.0, 0.6], [0.6, 1.0]]), atol=1e-14)


def test_mobius_matrix_is_j_unitary_with_inverse():
    rng = np.random.default_rng(3)
    sp = build_space(3, 4)
    a = random_ball_point(sp, rng, 0.8)
    m = mobius_matrix(sp, a)
    assert operator_norm(m.conj().T @ sp.j @ m - sp.j) <= 1e-10
    assert_allclose(m @ mobius_matrix(sp, -a), np.eye(7), atol=1e-10)


def test_mobius_matrix_rejects_boundary():
    sp = build_space(1, 1)
    with pytest.raises(BoundaryError):
        mobius_matrix(sp, [[1.0]])
    with pytest.raises(BoundaryError):
        mobius_apply(sp, [[1.0 - 1e-12]], [[0.0]])
    with pytest.raises(BoundaryError, match="^argument has norm 1;"):
        mobius_apply(sp, [[0.0]], [[1.0]])


@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 6),
       st.sampled_from([0.0, 0.3, 0.9, 0.999]))
@settings(max_examples=60, deadline=None)
def test_mobius_matrix_properties(seed, n_minus, n_plus, r):
    # one eigh on the smaller side serves both orientations and an empty side
    if n_minus + n_plus == 0:
        n_plus = 1
    rng = np.random.default_rng(seed)
    sp = build_space(n_minus, n_plus)
    a = random_ball_point(sp, rng, r)
    m, m_neg = mobius_matrix(sp, a), mobius_matrix(sp, -a)
    tol = 1e-13 * operator_norm(m) ** 2
    assert operator_norm(m - m.conj().T) <= tol
    assert operator_norm(m.conj().T @ sp.j @ m - sp.j) <= tol
    assert operator_norm(m @ m_neg - np.eye(sp.n)) <= tol
    assert operator_norm(fractional_linear(sp, m, np.zeros_like(a)) - a) <= tol
    # M_{-A} is J M_A J, value for value (to the bit, signed zeros aside)
    assert np.array_equal(m_neg, sp.j_signs[:, None] * m * sp.j_signs)
    if a.size and r:
        # the boundary threshold is unchanged: ||A|| >= 1 - BOUNDARY_MARGIN raises
        unit = a / operator_norm(a)
        mobius_matrix(sp, (1.0 - 2 * BOUNDARY_MARGIN) * unit)
        with pytest.raises(BoundaryError):
            mobius_matrix(sp, (1.0 - BOUNDARY_MARGIN / 2) * unit)


def test_mobius_matrix_of_negated_center_is_j_conjugate():
    rng = np.random.default_rng(10)
    for sig in ((3, 5), (5, 3), (0, 4), (4, 0), (4, 30)):
        sp = build_space(*sig)
        a = random_ball_point(sp, rng, 0.8)
        m = mobius_matrix(sp, a)
        assert mobius_matrix(sp, -a).tobytes() == _j_conjugate(sp, m).tobytes()


def test_fractional_linear_identity_map():
    rng = np.random.default_rng(4)
    sp = build_space(2, 3)
    w = random_ball_point(sp, rng, 0.9)
    assert_allclose(fractional_linear(sp, np.eye(5), w), w)


def test_fractional_linear_matches_mobius():
    rng = np.random.default_rng(5)
    sp = build_space(2, 4)
    for _ in range(20):
        a = random_ball_point(sp, rng, rng.uniform(0.1, 0.7))
        x = random_ball_point(sp, rng, rng.uniform(0.1, 0.9))
        assert_allclose(
            fractional_linear(sp, mobius_matrix(sp, a), x),
            mobius_apply(sp, a, x),
            atol=1e-10,
        )


def test_fractional_linear_group_law():
    rng = np.random.default_rng(6)
    sp = build_space(2, 3)
    for _ in range(20):
        u = random_j_unitary(sp, rng)
        v = random_j_unitary(sp, rng)
        w = random_ball_point(sp, rng, 0.6)
        assert_allclose(
            fractional_linear(sp, u @ v, w),
            fractional_linear(sp, u, fractional_linear(sp, v, w)),
            atol=1e-9,
        )


def test_fractional_linear_preserves_closed_ball():
    rng = np.random.default_rng(7)
    sp = build_space(2, 3)
    for _ in range(20):
        u = random_j_unitary(sp, rng)
        w = random_ball_point(sp, rng, 1.0)
        assert operator_norm(fractional_linear(sp, u, w)) <= 1.0 + 1e-10


def test_fixed_point_is_invariant_graph():
    # phi_U(W) = W implies the invariance equation residual vanishes
    rng = np.random.default_rng(8)
    sp = build_space(2, 3)
    a = random_ball_point(sp, rng, 0.5)
    block = sp.assemble(
        np.diag(np.exp(2j * np.pi * np.array([0.13, 0.57]))),
        np.zeros((2, 3)),
        np.zeros((3, 2)),
        np.diag(np.exp(2j * np.pi * np.array([0.29, 0.71, 0.97]))),
    )
    u = mobius_matrix(sp, a) @ block @ mobius_matrix(sp, -a)
    assert_allclose(fractional_linear(sp, u, a), a, atol=1e-12)
    assert invariance_residual(sp, u, a) <= 1e-10


def test_fractional_linear_singular_denominator():
    sp = build_space(1, 1)
    u = np.array([[0.0, 1.0], [1.0, 0.0]])  # U11 + U12 W = W, singular at W = 0
    with pytest.raises(MapUndefinedError):
        fractional_linear(sp, u, [[0.0]])


def test_hyperbolic_distance_values():
    sp = build_space(1, 1)
    assert hyperbolic_distance(sp, [[0.3]], [[0.3]]) == pytest.approx(0.0, abs=1e-12)
    assert hyperbolic_distance(sp, [[0.0]], [[0.5]]) == pytest.approx(
        0.5493061443340549, abs=1e-12
    )
    with pytest.raises(BoundaryError):
        hyperbolic_distance(sp, [[0.0]], [[1.0]])


def test_hyperbolic_distance_checks_each_point_once(monkeypatch):
    # each point's strictness is decided by its own check; mu_{-A}(B) runs on the checked pair
    sp = build_space(2, 30)
    rng = np.random.default_rng(9)
    a, b = random_ball_point(sp, rng, 0.6), random_ball_point(sp, rng, 0.8)
    expected = hyperbolic_distance(sp, a, b)
    shapes = []
    monkeypatch.setattr(ball_module, "operator_norm", lambda m: shapes.append(m.shape) or operator_norm(m))
    assert hyperbolic_distance(sp, a, b) == expected
    assert shapes == [(30, 2)] * 3  # A, B and the image


def test_hyperbolic_distance_symmetry_and_separation():
    rng = np.random.default_rng(9)
    sp = build_space(2, 3)
    a = random_ball_point(sp, rng, 0.6)
    b = random_ball_point(sp, rng, 0.8)
    assert hyperbolic_distance(sp, a, b) == pytest.approx(
        hyperbolic_distance(sp, b, a), abs=1e-9
    )
    assert hyperbolic_distance(sp, a, b) > 0


def test_hyperbolic_distance_scalar_poincare_formula():
    rng = np.random.default_rng(10)
    sp = build_space(1, 1)
    for _ in range(20):
        a = (rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.5, 0.5)) / 1.5
        b = (rng.uniform(-0.8, 0.8) + 1j * rng.uniform(-0.5, 0.5)) / 1.5
        expected = np.arctanh(abs(b - a) / abs(1 - np.conj(a) * b))
        got = hyperbolic_distance(sp, [[a]], [[b]])
        assert got == pytest.approx(expected, abs=1e-12)


def test_metric_invariance_under_j_unitaries():
    rng = np.random.default_rng(11)
    sp = build_space(2, 3)
    for _ in range(20):
        u = random_j_unitary(sp, rng)
        a = random_ball_point(sp, rng, 0.6)
        b = random_ball_point(sp, rng, 0.7)
        d0 = hyperbolic_distance(sp, a, b)
        d1 = hyperbolic_distance(
            sp, fractional_linear(sp, u, a), fractional_linear(sp, u, b)
        )
        assert d1 == pytest.approx(d0, abs=1e-8)


def test_mobius_norm_anchor_and_sandwich():
    sp = build_space(1, 1)
    zero = mobius_norm(sp, np.zeros((1, 1)))
    assert zero.norm == pytest.approx(1.0)
    assert zero.lower_bound == pytest.approx(1.0)
    assert zero.upper_bound == pytest.approx(1.0)

    scalar = mobius_norm(sp, [[0.6]])
    assert scalar.norm == pytest.approx(2.0, abs=1e-12)
    assert scalar.upper_bound == pytest.approx(2.0, abs=1e-12)

    rng = np.random.default_rng(12)
    sp = build_space(3, 5)
    for _ in range(20):
        bounds = mobius_norm(sp, random_ball_point(sp, rng, rng.uniform(0.05, 0.9)))
        assert bounds.lower_bound - 1e-10 <= bounds.norm <= bounds.upper_bound + 1e-10


def test_radius_from_norm_values():
    assert radius_from_norm(1.0) == 0.0
    assert radius_from_norm(np.sqrt(3.0)) == pytest.approx(1 / np.sqrt(2), abs=1e-14)
    with pytest.raises(ValueError):
        radius_from_norm(0.5)
    cs = np.linspace(1.0, 10.0, 50)
    rs = [radius_from_norm(c) for c in cs]
    assert all(r1 <= r2 for r1, r2 in zip(rs, rs[1:]))
    assert all(r < 1 for r in rs)


def test_radius_from_norm_bounds_mobius_center():
    rng = np.random.default_rng(13)
    sp = build_space(2, 4)
    for _ in range(20):
        a = random_ball_point(sp, rng, rng.uniform(0.05, 0.9))
        c = operator_norm(mobius_matrix(sp, a))
        assert operator_norm(a) <= radius_from_norm(c) + 1e-9


def test_j_unitary_generator_passes_classifier():
    # the J-unitarity predicate ||U^H J U - J|| <= PREDICATE_TOL * nu, with a dense J
    rng = np.random.default_rng(14)
    sp = build_space(2, 3)
    for _ in range(10):
        u = random_j_unitary(sp, rng)
        assert operator_norm(u.conj().T @ sp.j @ u - sp.j) <= PREDICATE_TOL * _norm_lower_bound(u)


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda sp, v: mobius_apply(sp, v, np.zeros((2, 1))), "center"),
        (lambda sp, v: mobius_apply(sp, np.zeros((2, 1)), v), "argument"),
        (mobius_matrix, "center"),
        (mobius_norm, "center"),
        (lambda sp, v: fractional_linear(sp, np.eye(3), v), "argument"),
        (lambda sp, v: hyperbolic_distance(sp, v, np.zeros((2, 1))), "first point"),
        (lambda sp, v: hyperbolic_distance(sp, np.zeros((2, 1)), v), "second point"),
    ],
    ids=["apply-center", "apply-argument", "mobius_matrix", "mobius_norm",
         "fractional_linear", "distance-first", "distance-second"],
)
def test_ball_points_reject_bad_input_by_name(call, name, bad):
    # every ball point is an n_plus x n_minus matrix with finite entries,
    # checked by one gate that names the argument
    sp = build_space(1, 2)
    good = np.full((2, 1), 0.1 + 0.0j)
    call(sp, good)
    if bad == "shape":
        v, message = good.T, "must be 2x1, got \\(1, 2\\)"
    else:
        v, message = good.copy(), "has non-finite entries"
        v[1, 0] = np.nan if bad == "nan" else -np.inf
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        call(sp, v)


@pytest.mark.parametrize("u", [np.eye(2), np.ones((4, 3, 2)), np.diag([np.nan, 1, 1])],
                         ids=["2x2", "stack-3x2", "nan"])
def test_fractional_linear_rejects_a_bad_map(u):
    # U is one n x n matrix or a stack of them; its size and entries are checked
    sp = build_space(1, 2)
    with pytest.raises(ValueError, match=r"^map (must be (4x)?3x3|has non-finite)"):
        fractional_linear(sp, u, np.zeros((2, 1)))


def test_mobius_norm_takes_the_center_norm_once(monkeypatch):
    # ||A|| comes from the boundary check; the only other norm is ||M_A||
    sp = build_space(5, 395)
    a = random_ball_point(sp, np.random.default_rng(15), 0.5)
    shapes = []
    monkeypatch.setattr(ball_module, "operator_norm", lambda m: shapes.append(m.shape) or operator_norm(m))
    bounds = mobius_norm(sp, a)
    assert shapes == [(395, 5), (400, 400)]
    assert bounds.lower_bound <= bounds.norm <= bounds.upper_bound * (1 + 1e-12)
