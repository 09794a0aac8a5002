"""Verification-suite plumbing on reduced sample counts."""

import dataclasses

import numpy as np
import pytest

from invobs import run_verification, simulate_projected
from invobs.verify import (
    PropertyCheck,
    _autonomy_inputs,
    _batch_theta,
    autonomy_spread,
    cost_closed_forms_residual,
    gradient_fd_residual,
    innovation_cross_form_residual,
    invariant_cost_construction_residual,
    lift_round_trip_residual,
    lifted_gradient_fd_residual,
    lifted_gradient_identity_residual,
    metric_identity_residual,
    observer_two_forms_residual,
    pair_fields_residual,
)
from invobs.observer import AnisotropicCost, SphereCost, check_innovation_equivariance, worst_residual
from invobs.scenario import InitState
from invobs.simulate import _integrate, _sphere_pair

E3 = np.array([0.0, 0.0, 1.0])


def test_property_check_bounds():
    assert PropertyCheck("a", 1e-13, 1e-12, "max").passed
    assert not PropertyCheck("a", 1e-11, 1e-12, "max").passed
    assert PropertyCheck("b", 0.5, 1e-3, "min").passed
    assert not PropertyCheck("b", 1e-5, 1e-3, "min").passed


def test_non_horizontal_lift_fails_round_trip(rng, monkeypatch):
    """A lift with a vertical (stabiliser) component fails the property,
    although the finite differences build their own generator."""
    from invobs.observer import HorizontalSubspace
    from invobs.so3 import act, hat

    lift = HorizontalSubspace.lift
    monkeypatch.setattr(HorizontalSubspace, "lift",
                        lambda self, Xh, v: lift(self, Xh, v) + Xh @ hat(1e-3 * act(Xh, self.y0)))
    assert lift_round_trip_residual(rng, E3, 10) > 1e-6


def test_algebraic_residuals_small(rng):
    assert cost_closed_forms_residual(rng, 100) <= 1e-12
    assert innovation_cross_form_residual(rng, 100) <= 1e-12
    assert metric_identity_residual(rng, 100) <= 1e-12
    assert lift_round_trip_residual(rng, E3, 100) <= 1e-6
    assert lifted_gradient_identity_residual(rng, E3, 100) <= 1e-12
    assert observer_two_forms_residual(rng, E3, 100) <= 1e-12
    assert gradient_fd_residual(rng, lambda r: SphereCost(1.0), 100) <= 1e-5
    assert lifted_gradient_fd_residual(rng, E3, 100) <= 1e-5
    assert invariant_cost_construction_residual(rng, E3, 100) <= 1e-9


@pytest.mark.parametrize("cost", [None, AnisotropicCost()], ids=["invariant", "control"])
def test_batched_runs_match_serial_runs(make_scenario, rng, cost):
    """A batch of runs sees the samples of the serial runs it replaces: each
    column of the batch, with its own input, gain and initial pair, matches
    simulate_projected of that run, and autonomy_spread is the spread of
    the serial runs."""
    sc = make_scenario(mode="projected", t_end=0.5)
    inputs = _autonomy_inputs(rng, 4, sc.integrator.h)
    k = rng.uniform(0.5, 2.0, 4)
    y, yhat = rng.standard_normal((2, 4, 3))
    y, yhat = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (y, yhat))
    runs = [dataclasses.replace(sc, input=sig, k=float(ki), plant=InitState("direction", yi),
                                observer=InitState("direction", yhi))
            for sig, ki, yi, yhi in zip(inputs, k, y, yhat)]

    def serial_theta(r):
        pair = _sphere_pair(SphereCost(r.k) if cost is None else cost)
        return _integrate(r, r.body_rates, pair, r.initial_sphere_pair(), False)[1][:, 0]

    serial = np.stack([serial_theta(r) for r in runs], axis=1)
    t, theta = _batch_theta(sc, inputs, SphereCost(k[:, None, None]) if cost is None else cost,
                            np.stack((y, yhat), axis=1))
    assert np.array_equal(t, simulate_projected(sc).t)
    assert np.max(np.abs(theta - serial)) <= 1e-12
    same_start = np.stack([serial_theta(dataclasses.replace(sc, input=sig)) for sig in inputs])
    want = np.max(same_start.max(axis=0) - same_start.min(axis=0))
    assert abs(autonomy_spread(sc, inputs, cost=cost) - want) <= 1e-12


def test_pair_fields_match_the_component_fields(rng, monkeypatch):
    """The stacked pair fields agree with the per-component fields row by
    row; a field whose observer rows take the row above as their reference
    (right for a single pair, wrong for several observers on one plant)
    fails."""
    import invobs.verify

    assert pair_fields_residual(rng, E3, 100) <= 1e-12

    def against_row_above(c, S, H):
        v = np.asarray(S) @ H
        if c is not None:
            v[..., 1:, :] -= c.grad1(S[..., 1:, :], S[..., :-1, :])
        return v

    monkeypatch.setattr(invobs.verify, "projected_pair_field", against_row_above)
    assert pair_fields_residual(rng, E3, 20) > 1e-3


def test_run_verification_circle(make_scenario):
    sc = make_scenario(instance="so2-s1", k=1.0, t_end=20.0,
                       input={"kind": "sinusoid", "amplitude": [0.5], "frequency": 0.3},
                       init={"plant": {"angle": 0.1}, "observer": {"angle": 1.9}})
    checks = run_verification(sc)
    assert {c.name for c in checks} == {"so2_oracle_deviation", "so2_state_convergence"}
    assert all(c.passed for c in checks)


def test_worst_residual_propagates_nan():
    assert worst_residual([]) == 0.0
    assert worst_residual([1e-13, 3e-13, 2e-13]) == 3e-13
    assert worst_residual([(1e-13, 4e-13), (2e-13, 0.0)]) == 4e-13
    assert np.isnan(worst_residual([1e-13, np.nan, 2e-13]))
    assert np.isnan(worst_residual([np.nan, 1e-13]))


def test_nan_gradient_fails_the_innovation_properties(rng, monkeypatch):
    """A cost whose gradient is NaN must fail both the cross-form and the
    equivariance property rather than pass with a residual of zero."""
    monkeypatch.setattr(SphereCost, "grad1", lambda self, yhat, y: np.full(3, np.nan))
    checks = [
        PropertyCheck("innovation_cross_form", innovation_cross_form_residual(rng, 20), 1e-12),
        PropertyCheck("innovation_equivariance",
                      check_innovation_equivariance(SphereCost(1.0), 20), 1e-12),
    ]
    for check in checks:
        assert np.isnan(check.residual) and not check.passed, check.name
