"""Physical constants, unit conversion and config value parsers.

All internal arithmetic is carried out in SI units with 64-bit floats.
Configuration files may tag numbers with units (nm, fs, eV, ...), which are
converted on input with the fixed constants below.  A config key is a
dataclass field declared with config_key, whose metadata holds the parser
parse(key, value) of the config's value.
"""

import math
from dataclasses import dataclass, field, fields

HBAR = 1.054571817e-34          # reduced Planck constant, J*s
ELECTRON_MASS = 9.1093837015e-31  # kg
DALTON = 1.66053906660e-27        # kg
EV = 1.602176634e-19              # J
BOLTZMANN = 1.380649e-23          # J/K

# Multiplicative factors to SI, keyed by unit name as it appears in configs.
UNIT_FACTORS = {
    # length
    "m": 1.0,
    "nm": 1e-9,
    "angstrom": 1e-10,
    "A": 1e-10,
    # time
    "s": 1.0,
    "ps": 1e-12,
    "fs": 1e-15,
    "as": 1e-18,
    # energy
    "J": 1.0,
    "eV": EV,
    "meV": 1e-3 * EV,
    # mass
    "kg": 1.0,
    "dalton": DALTON,
    "Da": DALTON,
    "m_e": ELECTRON_MASS,
    # dimensionless / counts
    "1": 1.0,
    "K": 1.0,
}


def to_si(value, unit="1"):
    """Convert a (value, unit) pair to SI.  Unknown units raise ValueError."""
    try:
        factor = UNIT_FACTORS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None
    return float(value) * factor


class ConfigError(ValueError):
    """A config that cannot be read, or a key or value it may not hold."""


def number(key, obj):
    """A finite config number: plain (SI) or {"value": v, "unit": u}."""
    value, unit = obj, "1"
    if isinstance(obj, dict):
        if "value" not in obj or set(obj) - {"value", "unit"}:
            raise ConfigError(f"{key}: bad quantity {obj!r}: expected the "
                              "keys value and unit")
        value, unit = obj["value"], obj.get("unit", "1")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(
            f"{key}: expected a number or value/unit object, got {obj!r}")
    try:
        value = to_si(value, unit)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: bad quantity {obj!r}: {exc}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {obj!r}")
    return value


def positive(key, obj):
    value = number(key, obj)
    if not value > 0.0:
        raise ConfigError(f"{key} must be positive, got {value:g}")
    return value


def integer(minimum):
    """Parser of an integer of at least minimum; a float with an integral
    value counts."""
    def parse(key, obj):
        if isinstance(obj, float) and obj.is_integer():
            obj = int(obj)
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ConfigError(f"{key} must be an integer, got {obj!r}")
        if obj < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {obj}")
        return obj
    return parse


def boolean(key, obj):
    if not isinstance(obj, bool):
        raise ConfigError(f"{key} must be true or false, got {obj!r}")
    return obj


def config_key(default, parse):
    """A dataclass field that a config may set, parsed by parse(key, value)."""
    return field(default=default, metadata={"parse": parse})


def parse_config(cls, raw):
    """The config keys of dataclass cls that raw holds, parsed:
    constructor arguments of cls."""
    return {f.name: f.metadata["parse"](f.name, raw[f.name])
            for f in fields(cls) if "parse" in f.metadata and f.name in raw}


@dataclass(frozen=True)
class PhysicalConstants:
    """Particle-specific constants used by the discretization."""

    mass: float
    hbar: float = HBAR

    def __post_init__(self):
        if not (self.mass > 0.0 and self.hbar > 0.0):
            raise ValueError("mass and hbar must be strictly positive")

    @property
    def kinetic_factor(self):
        """hbar^2 / (2 m), the coefficient of the kinetic term."""
        return self.hbar**2 / (2.0 * self.mass)


ELECTRON = PhysicalConstants(mass=ELECTRON_MASS)
PROTON_1DA = PhysicalConstants(mass=DALTON)
