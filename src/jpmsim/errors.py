"""Exception types shared across the package, the one finite-and-positive field rule and the one phase rule."""

import math

import numpy as np

PHASE_LIMIT = 2.0**30
"""Largest |phase| in radians whose sine or cosine reaches an artifact: Cephes sin.c's total-loss bound lossth."""


class ConfigError(ValueError):
    """A configuration document or override could not be parsed or validated."""


class NumericalError(RuntimeError):
    """A solver or quadrature failed to reach its stated tolerance."""


class IdentifiabilityError(NumericalError):
    """A fit was requested on a grid that cannot constrain the parameters."""


def require_finite_positive(owner, *names: str) -> None:
    """Raise ValueError, naming field and value, at the first of owner's fields names not finite and positive."""
    for name in names:
        value = getattr(owner, name)
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def sin_cos(phase, name: str):
    """(np.sin(phase), np.cos(phase)); a NumericalError naming the phase if any |phase| passes PHASE_LIMIT or is NaN."""
    if not (np.abs(phase) <= PHASE_LIMIT).all():
        raise NumericalError(f"phase {name} reaches {np.abs(phase).max():.3g} rad, past 2^30: total loss of precision")
    return np.sin(phase), np.cos(phase)
