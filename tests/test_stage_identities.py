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
    observer_body_rate,
    projected_pair_rates,
)
from invobs.so3 import IDENTITY, _sum_squares, group_exp, hat, orthonormalize, unit

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


@pytest.mark.parametrize("shape", ROWS)
def test_sphere_grad1_is_its_closed_form(rng, shape):
    """grad1 built in place in one temporary equals -k (y - yhat <yhat, y>)
    against a plain plant vector (the dot as one gemv) and against plant
    rows (the dot row by row, as einsum sums it), with one gain or one gain
    per row."""
    yhat = _units(rng, shape)
    gains = (1.7, rng.uniform(0.5, 2.0, shape[:-1] + (1,)))
    for y in (_units(rng, (3,)), _units(rng, shape)):
        dot = np.dot(yhat, y) if y.ndim == 1 else np.einsum("...i,...i->...", yhat, y)
        for k in gains:
            assert np.array_equal(SphereCost(k).grad1(yhat, y), -k * (y - yhat * dot[..., None]))


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
