"""Group errors of a plant and observer pair, the references the tests hold
the simulator's error angles against: the paper analyses the canonical error,
the simulator observes the angle between the outputs directly."""

import numpy as np

from invobs.so3 import act


def right_invariant_error(Xhat, X) -> np.ndarray:
    """Group error Xhat @ X^-1; unchanged under simultaneous right
    translation of both states.  Either argument may carry leading axes."""
    return np.asarray(Xhat) @ np.asarray(X).swapaxes(-1, -2)


def canonical_error_from_group(Xhat, X, y0) -> np.ndarray:
    """Canonical error act(Xhat @ X^-1, y0); equals y0 exactly when the states
    are indistinguishable.  Fixed only up to a stabiliser rotation by the
    choice of representatives; its angle to y0 is the invariant observable."""
    return act(right_invariant_error(Xhat, X), y0)
