"""Per-component fields of the projected plant and its observers, one output
at a time as the paper writes them: the references the tests hold the stacked
pair fields against (the simulator steps only the pair fields)."""

import numpy as np

from invobs.so3 import cross


def project_dynamics(y, u) -> np.ndarray:
    """Output-space velocity -hat(u) @ y = y x u induced by any representative
    of y, over leading axes of either argument."""
    return cross(y, u)


def projected_observer_field(c, yhat, y, u) -> np.ndarray:
    """Observer velocity on the sphere: the internal model (the projected plant
    at yhat) plus the innovation -c.grad1, over leading axes where grad1 allows."""
    return project_dynamics(yhat, u) - c.grad1(yhat, y)


def observer_body_rate(c, yhat, y, u) -> np.ndarray:
    """Body rate u + c.rate(yhat, y) of the observer at output yhat, over
    leading axes: the sphere observer moves by act(group_exp(h * .), yhat).
    The cost's rate is the innovation yhat x c.grad1(yhat, y); for the
    invariant cost it is k * (y x yhat), so the body rate is the proportional
    complementary-filter form u + k * (y x yhat)."""
    return np.asarray(u, dtype=float) + c.rate(yhat, y)
