"""Group algebra, exponential, action, section, and metric primitives."""

import numpy as np
import pytest
from scipy.linalg import expm as dense_expm

from invobs import (
    AntipodalError,
    TangentVector,
    act,
    compose,
    drift,
    group_exp,
    hat,
    orthonormalize,
    section,
    unit,
    vee,
)
from invobs.sampling import random_rotation, random_unit
from invobs.so3 import cross

E1, E2, E3 = np.eye(3)


def rodrigues_rotate(v, axis, angle):
    """Independent oracle: rotate v about a unit axis by the given angle."""
    axis = np.asarray(axis, dtype=float)
    return (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
            + axis * float(axis @ v) * (1.0 - np.cos(angle)))


def test_hat_layout():
    assert np.array_equal(hat((0, 0, 1)), [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    assert np.array_equal(hat((0, 0, 0)), np.zeros((3, 3)))
    assert np.array_equal(hat((1, 2, 3)), [[0, -3, 2], [3, 0, -1], [-2, 1, 0]])


def test_hat_is_linear_cross_product(rng):
    for _ in range(50):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert np.allclose(hat(a) @ b, np.cross(a, b), atol=1e-14)
        assert np.allclose(hat(2.5 * a - b), 2.5 * hat(a) - hat(b), atol=1e-14)
        assert np.array_equal(hat(a).T, -hat(a))


def test_cross_is_bit_identical_to_numpy(rng):
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    A, B = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
    for x, y in [(a, b), (A, B), (a, B), (A, b), (A[None], B[:, None])]:
        assert np.array_equal(cross(x, y), np.cross(x, y))
        assert cross(x, y).shape == np.cross(x, y).shape


def test_cross_accepts_int_and_list_input():
    for x, y in [([1, 2, 3], [4, 5, 6]), (np.array([1, 2, 3]), [0.5, -1.0, 2.0]),
                 (np.arange(12).reshape(4, 3), [1, -1, 2])]:
        got, want = cross(x, y), np.cross(x, y)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype
    assert np.array_equal(cross(E1, E2), E3)


@pytest.mark.parametrize("n", [2, 4])
def test_cross_rejects_other_last_axis(n):
    with pytest.raises(ValueError, match="length 3"):
        cross(np.ones(n), np.ones(3))
    with pytest.raises(ValueError, match="length 3"):
        cross(np.ones((5, 3)), np.ones((5, n)))


def test_vee_inverts_hat(rng):
    assert np.array_equal(vee([[0, -1, 0], [1, 0, 0], [0, 0, 0]]), (0, 0, 1))
    assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))
    w = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee(hat(w)), w)
    for _ in range(20):
        a = rng.standard_normal(3)
        assert np.allclose(hat(vee(hat(a))), hat(a), atol=1e-15)


def test_vee_rejects_symmetric_contamination():
    with pytest.raises(ValueError, match="antisymmetric"):
        vee(hat((1.0, 0.0, 0.0)) + 1e-6 * np.eye(3))


def test_group_exp_identity_and_inverse(rng):
    assert np.array_equal(group_exp(np.zeros(3)), np.eye(3))
    for _ in range(20):
        w = rng.standard_normal(3) * 2.0
        assert np.allclose(group_exp(w) @ group_exp(-w), np.eye(3), atol=1e-12)


def test_group_exp_rotates_e1_to_e2():
    R = group_exp([0, 0, np.pi / 2])
    assert np.allclose(R @ E1, E2, atol=1e-15)
    assert np.allclose(R @ E1, rodrigues_rotate(E1, E3, np.pi / 2), atol=1e-15)


def test_group_exp_matches_rodrigues_oracle(rng):
    for _ in range(100):
        w = rng.standard_normal(3) * rng.uniform(0.1, 3.0)
        v = rng.standard_normal(3)
        angle = np.linalg.norm(w)
        expected = rodrigues_rotate(v, w / angle, angle)
        assert np.allclose(group_exp(w) @ v, expected, atol=1e-12)


def test_group_exp_matches_dense_expm_across_series_switch(rng):
    for scale in (1e-8, 1e-6, 1e-4, 9e-5, 2e-4, 1e-2, 1.0):
        w = scale * unit(rng.standard_normal(3))
        assert np.allclose(group_exp(w), dense_expm(hat(w)), atol=1e-14)


def test_group_exp_one_parameter_additivity(rng):
    w = rng.standard_normal(3)
    for t, s in [(0.3, 0.9), (1.2, -0.4), (2.0, 2.0)]:
        assert np.allclose(group_exp((t + s) * w),
                           group_exp(t * w) @ group_exp(s * w), atol=1e-13)


def test_group_exp_special_orthogonal(rng):
    for _ in range(50):
        X = group_exp(rng.standard_normal(3) * 3.0)
        assert drift(X) <= 1e-14
        assert abs(np.linalg.det(X) - 1.0) <= 1e-12


def test_act_identity_and_rz_example():
    y = unit([0.3, -0.5, 0.8])
    assert np.allclose(act(np.eye(3), y), y, atol=1e-15)
    assert np.allclose(act(group_exp([0, 0, np.pi / 2]), E1), [0, -1, 0], atol=1e-15)


def test_act_right_action_law(rng):
    for _ in range(1000):
        X, Y = random_rotation(rng), random_rotation(rng)
        y = random_unit(rng)
        assert np.allclose(act(X, act(Y, y)), act(Y @ X, y), atol=1e-12)


def test_section_examples():
    assert np.allclose(section(E3, E3), np.eye(3), atol=1e-15)
    S = section(E1, E3)
    assert np.allclose(act(S, E3), E1, atol=1e-12)
    # minimal rotation: quarter turn with axis along e3 x e1 = e2
    angle = np.arccos((np.trace(S) - 1.0) / 2.0)
    assert abs(angle - np.pi / 2) < 1e-12
    axis = vee(S.T - S) / (2.0 * np.sin(angle))  # axis of S.T, the y0 -> y rotation
    assert np.allclose(axis, E2, atol=1e-12)


def test_section_antipodal_refused():
    with pytest.raises(AntipodalError):
        section(-E3, E3)


def test_section_act_consistency(rng):
    y0 = E3
    for _ in range(1000):
        y = random_unit(rng)
        assert np.linalg.norm(act(section(y, y0), y0) - y) <= 1e-9


def test_compose_bounds_drift_over_long_products(rng):
    step = group_exp([1e-3, 2e-3, -1.5e-3])
    X = np.eye(3)
    for _ in range(200_000):
        X = compose(X, step)
    assert drift(X) <= 1e-9


def test_orthonormalize_is_one_polar_retraction_step(rng):
    """Near SO(3), as after an integrator step, one step lands on the SVD polar
    factor to rounding; further out it still squares the drift."""
    R = random_rotation(rng, 1000)
    for noise in (1e-12, 1e-9, 1e-8):
        M = R + noise * rng.standard_normal(R.shape)
        Q = orthonormalize(M)
        U, _, Vt = np.linalg.svd(M)
        assert np.max(drift(Q)) <= 1e-14
        assert np.max(np.abs(Q - U @ Vt)) <= 1e-14
        assert np.all(np.linalg.det(Q) > 0.0)
    for noise in (1e-7, 1e-6, 1e-5):
        M = R + noise * rng.standard_normal(R.shape)
        assert np.all(drift(orthonormalize(M)) <= drift(M) ** 2)


def test_tangent_vector_rejects_non_tangent():
    with pytest.raises(ValueError, match="tangent"):
        TangentVector(E3, E3 + E1)
    v = TangentVector(E3, 2.0 * E1)
    assert np.array_equal(v.vec, 2.0 * E1)


# --- leading axes: a stack gives the per-row results ---------------------------

def _rows(fn, *stacks):
    return np.array([fn(*row) for row in zip(*stacks)])


def test_hat_over_leading_axes(rng):
    W = rng.standard_normal((4, 5, 3))
    H = hat(W)
    assert H.shape == (4, 5, 3, 3)
    assert np.array_equal(H.reshape(-1, 3, 3), _rows(hat, W.reshape(-1, 3)))
    assert np.array_equal(hat([[1, 2, 3]]), [hat((1, 2, 3))])


def test_group_exp_over_leading_axes_mixes_series_and_closed_form(rng):
    W = rng.standard_normal((40, 3))
    W[::3] *= 1e-6  # below the series switch
    W[1::3] *= 3.0
    W[5] = 0.0
    G = group_exp(W)
    assert G.shape == (40, 3, 3)
    assert np.max(np.abs(G - _rows(group_exp, W))) <= 1e-15
    assert np.array_equal(G[5], np.eye(3))
    assert np.max(drift(G)) <= 1e-14


def test_orthonormalize_over_leading_axes(rng):
    R = random_rotation(rng, 12)
    M = R + 1e-8 * rng.standard_normal((12, 3, 3))  # the retraction's range
    Q = orthonormalize(M)
    assert np.array_equal(Q, _rows(orthonormalize, M))
    assert np.max(drift(Q)) <= 1e-14


def test_compose_over_leading_axes_repairs_only_drifted_rows(rng):
    X = random_rotation(rng, 10)
    Y = random_rotation(rng, 10)
    X[[2, 7]] += 1e-8 * rng.standard_normal((2, 3, 3))  # drifted rows
    Z = compose(X, Y)
    assert np.array_equal(Z, _rows(compose, X, Y))
    assert np.max(drift(Z)) <= 1e-12
    # one factor may be shared by the whole stack
    assert np.array_equal(compose(X, Y[0]), _rows(lambda x: compose(x, Y[0]), X))


def test_drift_over_leading_axes(rng):
    M = random_rotation(rng, 8) + 1e-9 * rng.standard_normal((8, 3, 3))
    d = drift(M)
    assert d.shape == (8,)
    assert np.max(np.abs(d - _rows(drift, M))) <= 1e-15
    assert isinstance(drift(M[0]), float)


def test_unit_over_leading_axes(rng):
    V = rng.standard_normal((6, 7, 3))
    U = unit(V)
    assert np.max(np.abs(U.reshape(-1, 3) - _rows(unit, V.reshape(-1, 3)))) <= 1e-15
    V[2, 3] = 0.0
    with pytest.raises(ValueError, match="zero vector"):
        unit(V)


def test_act_over_leading_axes(rng):
    X = random_rotation(rng, 9)
    Y = random_unit(rng, 9)
    y = random_unit(rng)
    assert np.max(np.abs(act(X, y) - _rows(lambda x: act(x, y), X))) <= 1e-15
    assert np.max(np.abs(act(X[0], Y) - _rows(lambda v: act(X[0], v), Y))) <= 1e-15
    assert np.max(np.abs(act(X, Y) - _rows(act, X, Y))) <= 1e-15
