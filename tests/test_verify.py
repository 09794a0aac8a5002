"""Verification-suite plumbing on reduced sample counts."""

import numpy as np

from invobs import run_verification
from invobs.verify import (
    PropertyCheck,
    cost_closed_forms_residual,
    gradient_fd_residual,
    innovation_cross_form_residual,
    invariant_cost_construction_residual,
    lift_round_trip_residual,
    lifted_gradient_fd_residual,
    lifted_gradient_identity_residual,
    metric_identity_residual,
    observer_two_forms_residual,
)
from invobs.observer import SphereCost, check_innovation_equivariance, worst_residual

E3 = np.array([0.0, 0.0, 1.0])


def test_property_check_bounds():
    assert PropertyCheck("a", 1e-13, 1e-12, "max").passed
    assert not PropertyCheck("a", 1e-11, 1e-12, "max").passed
    assert PropertyCheck("b", 0.5, 1e-3, "min").passed
    assert not PropertyCheck("b", 1e-5, 1e-3, "min").passed


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
