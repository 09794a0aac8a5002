"""The identities the stage primitives' array forms rest on, bit for bit.

Each primitive forms its result with as few numpy calls as it can and with
no short broadcast loop: products built in place, norms repeated along each
row, the pair's rates written into the stack.  Each check below states the
plain expression the primitive must equal, and compares with np.array_equal
over one vector or matrix and over (2, 3), (201, 3), (1001, 3) and
(runs, 2, 3) stacks, the shapes of a single run, of the sweeps and of
verify's batches.
"""

import numpy as np
import pytest

from invobs.observer import (
    AnisotropicCost,
    SphereCost,
    projected_pair_field,
    projected_pair_rates,
)
from invobs.so3 import (
    _ACT_BASIS,
    _HAT_BASIS,
    _ONES,
    _ONES33,
    IDENTITY,
    _actor,
    _sum_squares,
    cross,
    drift,
    group_exp,
    hat,
    orthonormalize,
    unit,
)

from component_fields import observer_body_rate

ROWS = [(3,), (2, 3), (201, 3), (1001, 3), (7, 2, 3)]


def _units(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _near_rotations(rng, lead):
    """Rotations off SO(3) by about 1e-7, as a stepped state is."""
    return group_exp(rng.uniform(-3.0, 3.0, lead + (3,))) + 1e-7 * rng.standard_normal(lead + (3, 3))


@pytest.mark.parametrize("shape", ROWS)
def test_unit_divides_by_its_row_norms(rng, shape):
    """unit repeats each row's norm along the row, one sum of the three
    squares per entry (a (3, 3) product of ones, gemm), where the norm was
    one sum per row (a product with a ones vector, gemv) broadcast over the
    row.  The two agree only as long as BLAS adds the three products in the
    same way in gemm and in gemv; the squares are exact products with 1, so
    any order of the first two sums gives the same bits here."""
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        v = scale * rng.standard_normal(shape)
        assert np.array_equal(unit(v), v / np.sqrt(_sum_squares(v))[..., None]), scale


def _repeated_dot(yhat, y):
    """<yhat, y> repeated along each row: against a plain plant vector one
    product with the matrix whose row i is y_i repeated, against plant rows
    einsum's sum row by row, broadcast."""
    if y.ndim == 1:
        return np.dot(yhat, np.repeat(y, 3).reshape(3, 3))
    return np.einsum("...i,...i->...", yhat, y)[..., None]


@pytest.mark.parametrize("shape", ROWS)
def test_sphere_grad1_is_its_closed_form(rng, shape):
    """grad1 built in place in one temporary equals -k (y - yhat <yhat, y>)
    against a plain plant vector (<yhat, y> repeated along each row by one
    product) and against plant rows (the dot row by row, as einsum sums
    it), with one gain or one gain per row."""
    yhat = _units(rng, shape)
    gains = (1.7, rng.uniform(0.5, 2.0, shape[:-1] + (1,)))
    for y in (_units(rng, (3,)), _units(rng, shape)):
        for k in gains:
            assert np.array_equal(SphereCost(k).grad1(yhat, y), -k * (y - yhat * _repeated_dot(yhat, y)))


def _layouts(rng, n):
    """n unit rows C-ordered, Fortran-ordered, as every second row of a
    larger stack, and as the rows after the first of a (1 + n, 3) stack (the
    observer rows of a shared-plant pair)."""
    rows = _units(rng, (n, 3))
    yield rows
    yield np.asfortranarray(rows)
    yield _units(rng, (2 * n, 3))[::2]
    yield _units(rng, (1 + n, 3))[1:]


@pytest.mark.parametrize("n", [1, 2, 200, 1000])
def test_grad1_rounds_the_same_in_every_layout(rng, n):
    """Against one plant vector grad1 subtracts it column by column
    (order="F"), an iteration order that cannot change a value, since each
    entry is one subtraction.  In every memory layout of the observer rows,
    and of the pair stack projected_pair_field takes, each entry is the
    closed form's."""
    y, H = _units(rng, (3,)), hat(rng.standard_normal(3))
    for yhat in _layouts(rng, n):
        for k in (1.7, rng.uniform(0.5, 2.0, (n, 1))):
            assert np.array_equal(SphereCost(k).grad1(yhat, y), -k * (y - yhat * _repeated_dot(yhat, y)))
    c = SphereCost(1.3)
    for S in _layouts(rng, 1 + n):
        want = np.dot(S, H)
        want[1:] -= -c.k * (S[0] - S[1:] * _repeated_dot(S[1:], S[0]))
        assert np.array_equal(projected_pair_field(c, S, H), want)


@pytest.mark.parametrize("shape", ROWS)
def test_sphere_rate_is_one_product(rng, shape):
    """rate against a plain plant vector is every row yhat times the one
    matrix hat(-y), whose product with yhat is y x yhat; against plant rows
    it is k * cross(y, yhat).  The product adds its terms as BLAS does, so
    it stays within one ulp of 1 of np.cross for unit vectors."""
    yhat = _units(rng, shape)
    for k in (1.7, rng.uniform(0.5, 2.0, shape[:-1] + (1,))):
        y = _units(rng, (3,))
        got = SphereCost(k).rate(yhat, y)
        assert np.array_equal(got, k * np.dot(yhat, hat(-y)))
        assert np.max(np.abs(got - k * np.cross(y, yhat))) <= np.max(k) * np.spacing(1.0)
        rows = _units(rng, shape if len(shape) > 1 else (1, 3))  # plant rows, not one vector
        assert np.array_equal(SphereCost(k).rate(yhat, rows), k * cross(rows, yhat))


@pytest.mark.parametrize("shape", [s[:-1] + (3, 3) for s in ROWS])
def test_orthonormalize_is_one_bjorck_product(rng, shape):
    """The Björck factor formed in place on the Gram matrix, -0.5 G + 1.5 I,
    is the same sum as 1.5 I - 0.5 G."""
    X = _near_rotations(rng, shape[:-2])
    G = np.ascontiguousarray(X.swapaxes(-1, -2)) @ X
    assert np.array_equal(orthonormalize(X), X @ (1.5 * IDENTITY - 0.5 * G))


@pytest.mark.parametrize("shape", ROWS)
def test_group_exp_sums_rodrigues_in_order(rng, shape):
    """group_exp's closed form summed in place equals I + a K + b K^2, with
    a = sin(t)/t and b = (1 - cos t)/t^2 of t = ||w||."""
    w = rng.uniform(-2.0, 2.0, shape)
    K = hat(w)
    t2 = _sum_squares(w)[..., None, None]
    t = np.sqrt(t2)
    assert np.array_equal(group_exp(w), IDENTITY + np.sin(t) / t * K + (1.0 - np.cos(t)) / t2 * (K @ K))


@pytest.mark.parametrize("shape", [s[:-1] + (3, 3) for s in ROWS])
def test_drift_of_a_stack_is_each_matrix_drift(rng, shape):
    """drift sums each matrix's nine squares along its row, so a matrix in
    a stack of any size has the drift it has alone."""
    X = _near_rotations(rng, shape[:-2])
    alone = [drift(x) for x in X.reshape(-1, 3, 3)]
    assert np.array_equal(drift(X), np.reshape(alone, shape[:-2]))


def _pair_cases(rng, runs):
    """(cost, S, u) with one plant for all observer rows and with one plant
    per run: no cost, the invariant cost, a per-run gain, the anisotropic
    control, and one input shared by a whole batch."""
    for n in (2, 201, 1001):
        S, u = _units(rng, (n, 3)), rng.standard_normal(3)
        yield None, S, u
        yield SphereCost(1.3), S, u
        yield AnisotropicCost(), S, u
        yield SphereCost(rng.uniform(0.5, 2.0, (n - 1, 1))), S, u
    S, u = _units(rng, (runs, 2, 3)), rng.standard_normal((runs, 3))
    yield None, S, u
    yield SphereCost(1.3), S, u
    yield SphereCost(rng.uniform(0.5, 2.0, (runs, 1, 1))), S, u
    yield AnisotropicCost(), S, u
    yield SphereCost(0.7), S, u[0]  # one input shared by the batch
    yield None, S, u[0]


def test_pair_rates_are_the_input_and_the_observer_body_rates(rng):
    """projected_pair_rates holds u on the plant row and observer_body_rate
    on the observer rows (u without a cost), bit for bit."""
    for c, S, u in _pair_cases(rng, runs=7):
        w = projected_pair_rates(c, S, u)
        uu = np.broadcast_to(np.asarray(u)[..., None, :], S[..., :1, :].shape)
        y = S[0] if S.ndim == 2 else S[..., :1, :]
        want = uu if c is None else observer_body_rate(c, S[..., 1:, :], y, u[..., None, :])
        assert w.shape == S.shape
        assert np.array_equal(w[..., :1, :], uu)
        assert np.array_equal(w[..., 1:, :], np.broadcast_to(want, S[..., 1:, :].shape))


# --- ndarray.dot in place of np.dot ------------------------------------------
# The stage primitives call a.dot(b), the C routine np.dot dispatches to,
# without np.dot's Python dispatcher.  Each check compares with the np.dot
# form the primitive had.

@pytest.mark.parametrize("shape", ROWS)
def test_hat_and_sum_squares_equal_their_np_dot_forms(rng, shape):
    w = rng.standard_normal(shape)
    assert np.array_equal(hat(w), np.dot(w, _HAT_BASIS).reshape(shape[:-1] + (3, 3)))
    assert np.array_equal(_sum_squares(w), np.dot(w * w, _ONES))
    assert np.array_equal(_sum_squares(w, _ONES33), np.dot(w * w, _ONES33))


@pytest.mark.parametrize("shape", [s[:-1] + (3, 3) for s in ROWS])
def test_actor_equals_its_np_dot_form(rng, shape):
    y = _units(rng, (3,))
    X = _near_rotations(rng, shape[:-2])
    Y = np.dot(y, _ACT_BASIS).reshape(9, 3)
    assert np.array_equal(_actor(y)(X), unit(np.dot(X.reshape(X.shape[:-2] + (9,)), Y)))


def test_pair_field_equals_its_np_dot_form(rng):
    """projected_pair_field with one generator: np.dot(S, H) with the
    observer rows' -k (y - yhat <yhat, y>) subtracted, <yhat, y> as in
    grad1's closed form above."""
    H = hat(rng.standard_normal(3))
    for c, S, _ in _pair_cases(rng, runs=7):
        want = np.dot(S, H)
        if c is not None:
            yhat, y = S[..., 1:, :], (S[0] if S.ndim == 2 else S[..., :1, :])
            if isinstance(c, SphereCost):
                want[..., 1:, :] -= -c.k * (y - yhat * _repeated_dot(yhat, y))
            else:
                want[..., 1:, :] -= c.grad1(yhat, y)
        assert np.array_equal(projected_pair_field(c, S, H), want)
