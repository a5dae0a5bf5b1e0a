"""Desk-scale simulator of photon-counter-based superconducting qubit measurement."""

__version__ = "0.1.0"

from . import errors, potential, protocol, tomography, transfer
