"""Physical constants shared across the package; this module imports nothing."""

PHI0 = 2.067833848e-15
"""Magnetic flux quantum h/2e in webers."""

HBAR = 1.054571817e-34
"""Reduced Planck constant in joule seconds."""
