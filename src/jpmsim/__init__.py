"""Desk-scale simulator of photon-counter-based superconducting qubit measurement."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("errors", "potential", "protocol", "tomography", "transfer")


def __getattr__(name):
    # PEP 562: `jpmsim.protocol` imports its layer on first access, so
    # `import jpmsim` loads no layer and each subcommand only its own.
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
