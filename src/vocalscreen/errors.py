"""Shared exception base for the package, and its three value rules.

Each module's exceptions inherit from :class:`VocalScreenError`, so the CLI catches them
with one handler. A value rule returns the value it accepts, for its caller to compare,
and raises InvalidValue, naming the value, for any other.
"""

import numpy as np


class VocalScreenError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(VocalScreenError, ValueError):
    """A value of the wrong kind, refused by a value rule."""


def integer(value, name: str) -> int:
    """``value`` if it is an int, not a bool; a bool would read as 0 or 1."""
    if type(value) is not int:
        raise InvalidValue(f"{name} must be an integer, got {value!r}")
    return value


def number(value, name: str):
    """``value`` if it is an int or a float, not a bool; a bool would read as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidValue(f"{name} must be a number, got {value!r}")
    return value


def real(values, what: str) -> np.ndarray:
    """``values`` as float64 if they are bool, integer or float values; as floats, numeric
    text would parse and a complex value lose its imaginary part."""
    array = np.asarray(values)
    if array.dtype.kind not in "biuf":
        raise InvalidValue(f"{what} must hold real numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)
