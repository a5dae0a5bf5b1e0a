"""Exceptions, and the package's one rule each for positive fields, phases, binomial shots and non-finite results."""

import math

import numpy as np

PHASE_LIMIT = 2.0**30
"""Largest |phase| in radians whose sine or cosine reaches an artifact or root: Cephes sin.c's total-loss lossth."""


class ConfigError(ValueError):
    """A configuration document or override could not be parsed or validated."""


class ArgumentError(ValueError):
    """A refused argument value; params names the arguments at fault, or dotted paths into them such as cfg.t1."""

    def __init__(self, message: str, *params: str):
        super().__init__(message)
        self.params = params


class NumericalError(RuntimeError):
    """A solver or quadrature missed its tolerance, or a result left float64; params as ArgumentError's."""

    def __init__(self, message: str, *params: str):
        super().__init__(message)
        self.params = params


class IdentifiabilityError(NumericalError):
    """A fit was requested on a grid that cannot constrain the parameters."""


def require_finite_positive(owner, *names: str) -> None:
    """Raise ValueError, naming field and value, at the first of owner's fields names not finite and positive."""
    for name in names:
        value = getattr(owner, name)
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def bounded_phase(phase, name: str, *params: str) -> None:
    """Raise a NumericalError naming the phase, and carrying params, if any |phase| passes PHASE_LIMIT or is NaN."""
    if not (np.abs(phase) <= PHASE_LIMIT).all():
        raise NumericalError(
            f"phase {name} reaches {np.abs(phase).max():.3g} rad, past 2^30: total loss of precision", *params
        )


def finite(value, name: str, *params: str):
    """value, if every entry is finite, else a NumericalError naming it and its first entry that is not, carrying
    params.  An overflow is +-inf, and inf or NaN carries through later operations: this catches any overflow before."""
    values = np.asarray(value)
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)].flat[0])
        raise NumericalError(f"{name} is {bad}, not a finite float64", *params)
    return value


def sin_cos(phase, name: str, *params: str):
    """(np.sin(phase), np.cos(phase)), once bounded_phase(phase, name, *params) has passed."""
    bounded_phase(phase, name, *params)
    return np.sin(phase), np.cos(phase)


def binomial_fraction(rng, n_shots: int, p):
    """rng.binomial(n_shots, p) / n_shots, each p estimated from n_shots shots; refuses n_shots
    below 1 (ArgumentError) or past 2^63 - 1, where rng.binomial overflows (NumericalError)."""
    if n_shots < 1:
        raise ArgumentError(f"n_shots must be at least 1, got {n_shots}", "n_shots")
    if n_shots >= 2**63:
        raise NumericalError(f"n_shots = {n_shots} is more shots than a binomial draw takes (2^63 - 1)", "n_shots")
    return rng.binomial(n_shots, p) / n_shots
