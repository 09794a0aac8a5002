"""Costs, gradients, innovation, horizontal structure, errors, predicates."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invobs import (
    AnisotropicCost,
    AntipodalError,
    HorizontalSubspace,
    SectionedCost,
    SphereCost,
    TangentVector,
    act,
    canonical_error_from_group,
    check_innovation_equivariance,
    check_synchrony,
    error_angle,
    error_angle_closed_form,
    grad1_lifted_cost,
    group_exp,
    hat,
    lifted_cost,
    lifted_observer_field,
    omega_bar,
    projected_observer_field,
    section,
    unit,
)
from invobs.observer import FD_EPS
from invobs.sampling import random_rotation, random_tangent, random_unit
from invobs.simulate import TrajectoryRecord

E1, E2, E3 = np.eye(3)
Y0 = E3


def test_cost_values():
    assert SphereCost(1.0).value(E1, E1) == 0.0
    assert SphereCost(1.0).value(E1, E2) == 1.0
    assert SphereCost(2.0).value(E1, -E1) == 4.0


def test_cost_closed_forms_agree(rng):
    for _ in range(500):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        assert c.value(yh, y) >= -1e-15
        assert abs(c.value(yh, y) - 0.5 * c.k * np.sum((yh - y) ** 2)) <= 1e-12


def test_cost_invariance(rng):
    c = SphereCost(1.3)
    for _ in range(500):
        yh, y, S = random_unit(rng), random_unit(rng), random_rotation(rng)
        assert abs(c.value(act(S, yh), act(S, y)) - c.value(yh, y)) <= 1e-12


def test_grad1_examples():
    assert np.allclose(SphereCost(1.0).grad1(E2, E2), np.zeros(3), atol=1e-15)
    assert np.allclose(SphereCost(1.0).grad1(E1, E2), [0, -1, 0], atol=1e-15)
    # antipodal pair is a critical point
    assert np.allclose(SphereCost(1.0).grad1(E1, -E1), np.zeros(3), atol=1e-15)


def test_grad1_over_leading_axes(rng):
    c = SphereCost(1.7)
    Yh, Y, y = random_unit(rng, 20), random_unit(rng, 20), random_unit(rng)
    ks = rng.uniform(0.5, 2.0, (20, 1))
    anisotropic = AnisotropicCost()
    for got, want in [
        (c.grad1(Yh, y), [c.grad1(v, y) for v in Yh]),        # a sweep against one plant
        (c.grad1(Yh, Y), [c.grad1(v, w) for v, w in zip(Yh, Y)]),
        (c.grad1(Yh[:3], Y[:3]), [c.grad1(v, w) for v, w in zip(Yh[:3], Y[:3])]),
        # one gain per row of a batch
        (SphereCost(ks).grad1(Yh, Y),
         [SphereCost(float(k[0])).grad1(v, w) for k, v, w in zip(ks, Yh, Y)]),
        (anisotropic.grad1(Yh, Y), [anisotropic.grad1(v, w) for v, w in zip(Yh, Y)]),
    ]:
        assert np.max(np.abs(got - np.array(want))) <= 1e-15
    for bad in (0.0, -1.0, np.inf, np.array([[1.0], [0.0]]), np.array([[1.0], [np.nan]])):
        with pytest.raises(ValueError, match="gain k"):
            SphereCost(bad)


def test_grad1_matches_finite_differences(rng):
    for _ in range(1000):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        w = random_tangent(rng, yh)
        fd = (c.value(unit(yh + FD_EPS * w), y) - c.value(unit(yh - FD_EPS * w), y)) / (2 * FD_EPS)
        assert abs(fd - float(c.grad1(yh, y) @ w)) <= 1e-5


def test_innovation_examples(rng):
    # the innovation is minus the cost gradient
    assert np.allclose(-SphereCost(1.0).grad1(E2, E2), np.zeros(3), atol=1e-15)
    assert np.allclose(-SphereCost(2.0).grad1(E1, E2), [0, 2, 0], atol=1e-15)
    for _ in range(1000):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        yh, y = random_unit(rng), random_unit(rng)
        inn = -c.grad1(yh, y)
        assert np.allclose(inn, c.k * np.cross(np.cross(yh, y), yh), atol=1e-12)


def test_projected_observer_field():
    u = np.array([0.7, -0.1, 0.4])
    on_diag = projected_observer_field(SphereCost(1.0), E2, E2, u)
    assert np.allclose(on_diag, -np.cross(u, E2), atol=1e-15)
    pure_inn = projected_observer_field(SphereCost(1.0), E1, E2, np.zeros(3))
    assert np.allclose(pure_inn, [0, 1, 0], atol=1e-15)
    cancel = projected_observer_field(SphereCost(1.0), E1, E2, E3)
    assert np.allclose(cancel, np.zeros(3), atol=1e-15)


def test_fields_over_leading_axes(rng):
    c = SphereCost(1.4)
    Yh, y, u = random_unit(rng, 20), random_unit(rng), rng.uniform(-1.5, 1.5, 3)
    Xh, X = random_rotation(rng, 20), random_rotation(rng)
    for got, want in [
        (projected_observer_field(c, Yh, y, u), [projected_observer_field(c, v, y, u) for v in Yh]),
        (lifted_observer_field(c, Xh, y, u, Y0), [lifted_observer_field(c, R, y, u, Y0) for R in Xh]),
        (canonical_error_from_group(Xh, X, Y0), [canonical_error_from_group(R, X, Y0) for R in Xh]),
        (error_angle(Yh, y), [error_angle(v, y) for v in Yh]),
    ]:
        assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_omega_bar(rng):
    assert np.allclose(omega_bar(TangentVector(E3, E1)), E2, atol=1e-15)
    assert np.allclose(omega_bar(TangentVector(E3, np.zeros(3))), np.zeros(3), atol=1e-15)
    for _ in range(1000):
        base = random_unit(rng)
        v = TangentVector(base, rng.uniform(0.1, 2.0) * random_tangent(rng, base))
        w = omega_bar(v)
        assert np.linalg.norm(np.cross(w, base) - v.vec) <= 1e-12
        assert abs(w @ base) <= 1e-12
    with pytest.raises(ValueError):
        omega_bar(TangentVector(E3, E3))


def test_metric_trace_identity(rng):
    for _ in range(1000):
        base = random_unit(rng)
        v = TangentVector(base, rng.uniform(0.1, 2.0) * random_tangent(rng, base))
        w = TangentVector(base, rng.uniform(0.1, 2.0) * random_tangent(rng, base))
        lhs = float(v.vec @ w.vec)  # the embedded Euclidean metric
        rhs = 0.5 * np.trace(hat(omega_bar(v)).T @ hat(omega_bar(w)))
        assert abs(lhs - rhs) <= 1e-12


def test_horizontal_lift_basics():
    H = HorizontalSubspace(Y0)
    zero = H.lift(np.eye(3), TangentVector(E3, np.zeros(3)))
    assert np.array_equal(zero, np.zeros((3, 3)))
    # identity base point, tangent e1 at e3: generator e1 x e3 = -e2
    L = H.lift(np.eye(3), TangentVector(E3, E1))
    assert np.allclose(L, hat(-E2), atol=1e-15)
    assert H.contains(np.eye(3), L)
    with pytest.raises(ValueError, match="base"):
        H.lift(group_exp([1.0, 0, 0]), TangentVector(E3, E1))


def test_horizontal_lift_round_trip(rng):
    H = HorizontalSubspace(Y0)
    for _ in range(1000):
        Xh = random_rotation(rng)
        yh = act(Xh, Y0)
        v = TangentVector(yh, rng.uniform(0.1, 2.0) * random_tangent(rng, yh))
        L = H.lift(Xh, v)
        assert H.contains(Xh, L)
        w = np.cross(v.vec, v.base)
        fd = (act(Xh @ group_exp(FD_EPS * w), Y0) - act(Xh @ group_exp(-FD_EPS * w), Y0)) / (2 * FD_EPS)
        assert np.linalg.norm(fd - v.vec) <= 1e-6


def test_lifted_observer_field(rng):
    c = SphereCost(1.0)
    u = np.array([0.4, 0.2, -0.9])
    Xh = random_rotation(rng)
    y_same = act(Xh, Y0)
    assert np.allclose(lifted_observer_field(c, Xh, y_same, u, Y0), u, atol=1e-12)
    Xh2 = section(E2, Y0)  # observer output e2
    field = lifted_observer_field(SphereCost(1.0), Xh2, E1, np.zeros(3), Y0)
    assert np.allclose(field, E3, atol=1e-12)  # e1 x e2


def test_observer_two_forms_identity(rng):
    H = HorizontalSubspace(Y0)
    for _ in range(1000):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        yh, y = act(Xh, Y0), act(X, Y0)
        u = rng.uniform(-1.5, 1.5, 3)
        body = lifted_observer_field(c, Xh, y, u, Y0)
        explicit = u + c.k * np.cross(y, yh)
        assert np.allclose(body, explicit, atol=1e-12)
        lhs = Xh @ hat(body)
        rhs = Xh @ hat(u) - H.lift(Xh, TangentVector(yh, c.grad1(yh, y)))
        assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_lifted_cost(rng):
    c = SphereCost(1.0)
    X = random_rotation(rng)
    assert lifted_cost(c, X, X, Y0) <= 1e-15
    # reduction example with reference e1
    Xh = section(E2, E1)
    assert abs(lifted_cost(c, Xh, np.eye(3), E1) - 1.0) <= 1e-12
    for _ in range(1000):
        Xh, X, Z = random_rotation(rng), random_rotation(rng), random_rotation(rng)
        assert abs(lifted_cost(c, Xh @ Z, X @ Z, Y0) - lifted_cost(c, Xh, X, Y0)) <= 1e-12


def test_grad1_lifted_cost_identity_and_fd(rng):
    H = HorizontalSubspace(Y0)
    for _ in range(1000):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        yh, y = act(Xh, Y0), act(X, Y0)
        G = grad1_lifted_cost(c, Xh, X, Y0)
        lifted = H.lift(Xh, TangentVector(yh, c.grad1(yh, y)))
        assert np.linalg.norm(G - lifted) <= 1e-12
        assert H.contains(Xh, G, tol=1e-9)
    for _ in range(200):
        c = SphereCost(float(rng.uniform(0.5, 2.0)))
        Xh, X = random_rotation(rng), random_rotation(rng)
        Om = rng.uniform(-1.0, 1.0, 3)
        fp = lifted_cost(c, Xh @ group_exp(FD_EPS * Om), X, Y0)
        fm = lifted_cost(c, Xh @ group_exp(-FD_EPS * Om), X, Y0)
        G = grad1_lifted_cost(c, Xh, X, Y0)
        pairing = 0.5 * np.trace((Xh.T @ G).T @ hat(Om))
        assert abs((fp - fm) / (2 * FD_EPS) - pairing) <= 1e-5


def test_grad1_lifted_cost_zero_on_diagonal(rng):
    X = random_rotation(rng)
    assert np.linalg.norm(grad1_lifted_cost(SphereCost(1.0), X, X, Y0)) <= 1e-15


def test_canonical_error(rng):
    X = random_rotation(rng)
    assert np.allclose(canonical_error_from_group(X, X, Y0), Y0, atol=1e-12)
    Rx = group_exp([0.8, 0, 0])
    assert np.allclose(canonical_error_from_group(Rx, np.eye(3), Y0), act(Rx, Y0), atol=1e-12)
    for i in range(200):
        Xh = random_rotation(rng)
        # Every other pair differs by a rotation about the reference, which the
        # output cannot see.
        X = group_exp(rng.uniform(-np.pi, np.pi) * Y0) @ Xh if i % 2 else random_rotation(rng)
        at_ref = np.linalg.norm(canonical_error_from_group(Xh, X, Y0) - Y0) <= 1e-9
        same_output = np.linalg.norm(act(Xh, Y0) - act(X, Y0)) <= 1e-9
        assert at_ref == same_output == bool(i % 2)


def test_canonical_error_angle_equals_output_angle(rng):
    for _ in range(200):
        Xh, X = random_rotation(rng), random_rotation(rng)
        e = canonical_error_from_group(Xh, X, Y0)
        assert abs(error_angle(e, Y0) - error_angle(act(Xh, Y0), act(X, Y0))) <= 1e-12


def test_error_angle():
    y = unit([0.2, -0.4, 0.6])
    assert error_angle(y, y) == 0.0
    assert abs(error_angle(E1, E2) - np.pi / 2) <= 1e-15
    assert abs(error_angle(E1, -E1) - np.pi) <= 1e-15


def test_error_angle_closed_form_basics():
    assert error_angle_closed_form(1.2, 2.0, 0.0) == pytest.approx(1.2, abs=1e-15)
    assert error_angle_closed_form(0.0, 2.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        error_angle_closed_form(np.pi, 1.0, 1.0)
    with pytest.raises(ValueError):
        error_angle_closed_form(-0.1, 1.0, 1.0)


def test_error_angle_closed_form_against_ode_oracle():
    # frozen spot value: theta(1) from theta0 = pi/2, k = 1 is 2*atan(1/e)
    assert error_angle_closed_form(np.pi / 2, 1.0, 1.0) == pytest.approx(
        2.0 * np.arctan(np.exp(-1.0)), abs=1e-15)
    for theta0, k in [(np.pi / 2, 1.0), (2.8, 0.5), (0.3, 2.0), (3.1, 1.7)]:
        sol = solve_ivp(lambda t, th: -k * np.sin(th), (0.0, 4.0), [theta0],
                        rtol=1e-12, atol=1e-14, dense_output=True)
        for t in (0.5, 1.0, 2.5, 4.0):
            assert abs(error_angle_closed_form(theta0, k, t) - sol.sol(t)[0]) <= 1e-9


def test_check_synchrony_on_records():
    t = np.linspace(0.0, 1.0, 11)
    y = np.tile(E3, (11, 1))
    flat = TrajectoryRecord(t=t, y=y, yhat=y, theta=np.full(11, 0.7),
                            drift=np.zeros(11))
    assert check_synchrony(flat) == 0.0
    wobble = TrajectoryRecord(t=t, y=y, yhat=y,
                              theta=0.7 + 0.01 * np.sin(np.linspace(0, 3, 11)),
                              drift=np.zeros(11))
    assert check_synchrony(wobble) > 1e-3


def test_equivariance_and_negative_control():
    assert check_innovation_equivariance(SphereCost(1.0), samples=1000, seed=3) <= 1e-12
    assert check_innovation_equivariance(AnisotropicCost(), samples=1000, seed=3) >= 1e-3


def test_make_invariant_cost(rng):
    k = 1.3
    made = SectionedCost(lambda z: k * (1.0 - float(z @ Y0)), Y0)
    direct = SphereCost(k)
    for _ in range(1000):
        y1, y2, S = random_unit(rng), random_unit(rng), random_rotation(rng)
        base = made.value(y1, y2)
        assert abs(base - made.value(act(S, y1), act(S, y2))) <= 1e-9
        assert abs(base - direct.value(y1, y2)) <= 1e-9
    y = random_unit(rng)
    assert abs(made.value(y, y)) <= 1e-12
    assert abs(made.value(y, Y0) - k * (1.0 - float(y @ Y0))) <= 1e-12
    with pytest.raises(AntipodalError):
        made.value(-Y0, random_unit(rng))

