"""Exception types shared across the package, and the one finite-and-positive field rule."""

import math


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
