"""Flat key/value run configuration with mandatory unit suffixes.

A config document is a sequence of "section.key = value" lines; "#"
starts a comment there, but not in a "key=value" override.  Every
dimensioned value carries a unit suffix ("780ns", "1uA", "2pF") and
bare numbers are rejected for such keys, so a GHz/rad-per-second
mixup cannot slip through the boundary.
Frequencies are written as ordinary (cycles/second) frequencies and
converted to angular internally; decay rates are written as 1/e decay
times ("capture.decay_time = 40ns").  Unknown and duplicated keys are
rejected, and so are numbers that overflow float64 ("1e999s").  The
literal "none" clears an optional key.

One global schema defines every key, its kind, and its default, so a
missing config file or a partial one behaves identically to a fully
written-out document.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .constants import PHI0
from .errors import ConfigError

# Each builder below imports its layer when called, so importing the
# config (and the CLI) loads no physics module.
if TYPE_CHECKING:
    from .potential import JpmParams
    from .protocol import IqModel, ProtocolConfig
    from .transfer import TransferConfig

_UNIT_TABLES = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9, "ps": 1e-12},
    # Written as ordinary frequencies; _UNIT_FACTORS folds in the 2 pi.
    "afreq": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "current": {"A": 1.0, "mA": 1e-3, "uA": 1e-6, "nA": 1e-9},
    "inductance": {"H": 1.0, "mH": 1e-3, "uH": 1e-6, "nH": 1e-9, "pH": 1e-12},
    "capacitance": {"F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12, "fF": 1e-15},
    "flux": {"Wb": 1.0, "phi0": PHI0, "Phi0": PHI0},
}

_NUMBER_RE = re.compile(r"([+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)\s*(\S*)")


def _decimal_parts(numeral: str) -> tuple[str, int, int]:
    """(sign, digits, exponent) of a decimal numeral, whose value is sign digits 10^exponent.

    Raises ValueError for more digits than the interpreter's int-string
    limit (sys.get_int_max_str_digits()).
    """
    mantissa, _, exponent = numeral.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    sign = "-" if whole.startswith("-") else ""
    return sign, int(whole.lstrip("+-") + fraction), int(exponent or 0) - len(fraction)


def _factor_parts(factors) -> tuple[int, int]:
    """(digits, exponent) of the exact product of the factors' reprs, all positive."""
    digits, exponent = 1, 0
    for factor in factors:
        _, factor_digits, factor_exponent = _decimal_parts(repr(factor))
        digits *= factor_digits
        exponent += factor_exponent
    return digits, exponent


# Each unit's factor as (digits, exponent), split once here; afreq's
# factors include the 2 pi that turns a frequency into an angular one.
_UNIT_FACTORS = {
    kind: {
        unit: _factor_parts((factor, 2.0 * math.pi) if kind == "afreq" else (factor,))
        for unit, factor in table.items()
    }
    for kind, table in _UNIT_TABLES.items()
}


def _scaled(number: str, factor: tuple[int, int]) -> float:
    # Scale exactly so "6.6us" equals the literal 6.6e-6 bit for bit:
    # the number's digits times the factor's are an exact integer, and
    # float() rounds the product once.  Naive float multiplication by
    # 1e-6 rounds twice and can be off by one ulp from the value a
    # dataclass default spells out directly.  A product beyond float64
    # reads as inf, which _parse_scalar refuses.
    sign, digits, exponent = _decimal_parts(number)
    return float(f"{sign}{digits * factor[0]}e{exponent + factor[1]}")


@dataclass(frozen=True)
class ValueSpec:
    """Schema entry: value kind, default (in config syntax), options."""

    kind: str
    default: str
    optional: bool = False
    choices: tuple[str, ...] | None = None


SCHEMA: dict[str, ValueSpec] = {
    "seed": ValueSpec("int", "12345"),
    "device.critical_current": ValueSpec("current", "1uA"),
    "device.loop_inductance": ValueSpec("inductance", "1.1nH"),
    "device.shunt_capacitance": ValueSpec("capacitance", "2pF"),
    "source.frequency": ValueSpec("afreq", "5.02GHz"),
    "source.decay_time": ValueSpec("time", "260ns"),
    "capture.frequency": ValueSpec("afreq", "5.02GHz"),
    "capture.decay_time": ValueSpec("time", "40ns"),
    "protocol.t_prep": ValueSpec("time", "780ns"),
    "protocol.t1": ValueSpec("time", "6.6us"),
    "protocol.dark_prob": ValueSpec("float", "0.02"),
    "protocol.bright_detect_prob": ValueSpec("float", "0.99"),
    "protocol.stark_shift_per_photon": ValueSpec("afreq", "-2MHz"),
    "protocol.n_bar_qubit_cavity": ValueSpec("float", "10"),
    "protocol.depletion_decay_time": ValueSpec("time", "none", optional=True),
    "protocol.relaxation_override": ValueSpec("float", "0.05", optional=True),
    "iq.sigma": ValueSpec("float", "0.14144271570014144"),
    "iq.centroid_0": ValueSpec("list:float", "0,0"),
    "iq.centroid_1": ValueSpec("list:float", "1,0"),
    "iq.n_shots": ValueSpec("int", "100000"),
    "output.directory": ValueSpec("str", "none", optional=True),
    "output.format": ValueSpec("str", "csv", choices=("csv", "json")),
    "potential.flux_start": ValueSpec("flux", "0phi0"),
    "potential.flux_stop": ValueSpec("flux", "1phi0"),
    "potential.flux_points": ValueSpec("int", "25"),
    "transfer.t_max_scaled": ValueSpec("float", "8"),
    "transfer.time_points": ValueSpec("int", "400"),
    "transfer.kappa_ratios": ValueSpec("list:float", "1,2,5,10"),
    "transfer.detuning_ratios": ValueSpec("list:float", "0,0.5,1,2,4"),
    "budget.n_shots": ValueSpec("int", "100000"),
    "ramsey.detunings": ValueSpec("list:afreq", "-2MHz,-1MHz,0Hz,1MHz,2MHz"),
    "ramsey.delay_stop": ValueSpec("time", "2us"),
    "ramsey.delay_points": ValueSpec("int", "81"),
    "ramsey.t2": ValueSpec("time", "none", optional=True),
    "ramsey.amplitude": ValueSpec("float", "1"),
    "ramsey.n_shots": ValueSpec("int", "none", optional=True),
    "rabi.detunings": ValueSpec("list:afreq", "-10MHz,-5MHz,0Hz,5MHz,10MHz"),
    "rabi.duration_stop": ValueSpec("time", "400ns"),
    "rabi.duration_points": ValueSpec("int", "81"),
    "rabi.rate": ValueSpec("afreq", "5MHz"),
    "rabi.n_shots": ValueSpec("int", "none", optional=True),
    "stark.powers": ValueSpec("list:float", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"),
    "depletion.time_stop": ValueSpec("time", "100ns"),
    "depletion.time_points": ValueSpec("int", "51"),
    "tomo.beta": ValueSpec("float", "0.09"),
    "tomo.r": ValueSpec("float", "0.02"),
    "tomo.phi": ValueSpec("float", "0"),
    "tomo.t_pi": ValueSpec("time", "50ns"),
    "tomo.theta_points": ValueSpec("int", "8"),
    "tomo.duration_points": ValueSpec("int", "33"),
    "tomo.duration_stop": ValueSpec("time", "none", optional=True),
    "tomo.n_shots": ValueSpec("int", "none", optional=True),
    "tomo.noise_sigma": ValueSpec("float", "none", optional=True),
    "tomo.input": ValueSpec("str", "none", optional=True),
}


def _too_long(key: str) -> ConfigError:
    # int() refuses a digit string longer than the interpreter's limit.
    return ConfigError(f"{key}: a number or exponent has more than {sys.get_int_max_str_digits()} digits")


def _parse_scalar(text: str, kind: str, key: str, choices: tuple[str, ...] | None):
    if kind == "str":
        if choices is not None and text not in choices:
            raise ConfigError(f"{key}: expected one of {', '.join(choices)}, got {text!r}")
        return text
    if kind == "int":
        if re.fullmatch(r"[+-]?[0-9]+", text):
            try:
                return int(text)
            except ValueError:
                raise _too_long(key) from None
        raise ConfigError(f"{key}: expected an integer, got {text!r}")

    match = _NUMBER_RE.fullmatch(text.strip())
    if not match:
        raise ConfigError(f"{key}: cannot parse value {text!r}")
    number = match.group(1)
    unit = match.group(2)

    if kind == "float":
        if unit:
            raise ConfigError(f"{key}: dimensionless value must not carry a unit, got {text!r}")
        value = float(number)
    else:
        table = _UNIT_FACTORS.get(kind)
        if table is None:
            raise ConfigError(f"{key}: unknown value kind {kind!r}")
        if not unit:
            raise ConfigError(f"{key}: unit suffix is mandatory (one of {', '.join(table)})")
        if unit not in table:
            raise ConfigError(f"{key}: unknown unit {unit!r} (expected one of {', '.join(table)})")
        try:
            value = _scaled(number, table[unit])
        except ValueError:
            raise _too_long(key) from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {text!r} is out of float64 range")
    return value


def parse_value(text: str, spec: ValueSpec, key: str):
    """Parse one config value by its schema entry; a list kind gives a tuple."""
    text = text.strip()
    if text == "none":
        if spec.optional:
            return None
        raise ConfigError(f"{key}: none is not allowed here")
    if spec.kind.startswith("list:"):
        inner = spec.kind.split(":", 1)[1]
        if text == "":
            return ()
        return tuple(_parse_scalar(part.strip(), inner, key, None) for part in text.split(","))
    if text == "":
        raise ConfigError(f"{key}: empty value")
    return _parse_scalar(text, spec.kind, key, spec.choices)


# Every SCHEMA default, parsed once; tuples keep them immutable.
_DEFAULTS = {key: parse_value(spec.default, spec, key) for key, spec in SCHEMA.items()}


def _parse_lines(lines, origin: str, values: dict, comments: bool) -> None:
    """Parse "key = value" lines into values.  With comments (a config
    file) a '#' starts a comment; an override's value is everything after
    its first '='."""
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = (raw.split("#", 1)[0] if comments else raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        values[key] = parse_value(text, SCHEMA[key], key)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    values: dict

    @classmethod
    def from_sources(cls, config_path: str | None = None, overrides=()) -> "RunConfig":
        """Resolve defaults, then a config file, then override strings.

        Overrides use the same "key=value" syntax as file lines, but a '#'
        in one is part of its value, not a comment; they are applied
        last, and within each source a key may appear only once.
        """
        values = dict(_DEFAULTS)
        if config_path is not None:
            try:
                with open(config_path, encoding="utf-8") as fh:
                    lines = fh.readlines()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
            _parse_lines(lines, str(config_path), values, comments=True)
        _parse_lines(overrides, "override", values, comments=False)
        if values["seed"] < 0:
            raise ConfigError(f"seed must be non-negative, got {values['seed']}")
        return cls(values)

    def get(self, key: str):
        if key not in SCHEMA:
            raise KeyError(f"unknown config key {key!r}")
        return self.values[key]

    def jpm_params(self) -> JpmParams:
        from .potential import JpmParams

        try:
            return JpmParams(
                critical_current=self.get("device.critical_current"),
                loop_inductance=self.get("device.loop_inductance"),
                shunt_capacitance=self.get("device.shunt_capacitance"),
            )
        except ValueError as exc:
            raise ConfigError(f"device section invalid: {exc}") from exc

    def _decay_rate(self, key: str) -> float:
        """The rate 1 / decay_time of a decay-time key, in 1/second.

        Refuses, naming the key, a time that is not positive or whose
        inverse overflows float64.
        """
        decay_time = self.get(key)
        if not (decay_time > 0.0 and math.isfinite(1.0 / decay_time)):
            raise ConfigError(f"{key} must be positive with a finite inverse, got {decay_time!r} s")
        return 1.0 / decay_time

    def transfer_config(self) -> TransferConfig:
        from .transfer import CavityMode, TransferConfig

        source_rate = self._decay_rate("source.decay_time")
        capture_rate = self._decay_rate("capture.decay_time")
        try:
            return TransferConfig(
                source=CavityMode(
                    angular_frequency=self.get("source.frequency"),
                    decay_rate=source_rate,
                ),
                target=CavityMode(
                    angular_frequency=self.get("capture.frequency"),
                    decay_rate=capture_rate,
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"cavity sections invalid: {exc}") from exc

    def protocol_config(self) -> ProtocolConfig:
        from .protocol import DEFAULT_DEPLETION_RATE, ProtocolConfig

        key = "protocol.depletion_decay_time"
        depletion_rate = DEFAULT_DEPLETION_RATE if self.get(key) is None else self._decay_rate(key)
        try:
            return ProtocolConfig(
                t_prep=self.get("protocol.t_prep"),
                t1=self.get("protocol.t1"),
                dark_prob=self.get("protocol.dark_prob"),
                bright_detect_prob=self.get("protocol.bright_detect_prob"),
                stark_shift_per_photon=self.get("protocol.stark_shift_per_photon"),
                n_bar_qubit_cavity=self.get("protocol.n_bar_qubit_cavity"),
                depletion_rate=depletion_rate,
                rng_seed=self.get("seed"),
                relaxation_override=self.get("protocol.relaxation_override"),
            )
        except ValueError as exc:
            raise ConfigError(f"protocol section invalid: {exc}") from exc

    def iq_model(self) -> IqModel:
        from .protocol import IqModel

        for key in ("iq.centroid_0", "iq.centroid_1"):
            if len(self.get(key)) != 2:
                raise ConfigError(f"{key} must have exactly two components")
        try:
            return IqModel(
                centroid_0=tuple(self.get("iq.centroid_0")),
                centroid_1=tuple(self.get("iq.centroid_1")),
                sigma=self.get("iq.sigma"),
            )
        except ValueError as exc:
            raise ConfigError(f"iq section invalid: {exc}") from exc
