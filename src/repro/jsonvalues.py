"""JSON value checks of the persisted-document parsers.

Each check returns its value typed, or raises: ``TypeError`` for a wrong
JSON type, ``ValueError`` for a non-finite number or a negative count.
Each parser wraps these in its own typed error.  The module imports only
the standard library, so any package's loader can use it without an
import cycle.
"""

from __future__ import annotations

import math


def json_string(value: object) -> str:
    """A JSON string."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def json_boolean(value: object) -> bool:
    """A JSON ``true`` or ``false``."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a boolean")
    return value


def json_integer(value: object) -> int:
    """A JSON integer (a boolean is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def json_count(value: object) -> int:
    """A JSON integer that counts something, so never negative."""
    count = json_integer(value)
    if count < 0:
        raise ValueError(f"{count} is negative")
    return count


def json_number(value: object) -> float:
    """A finite JSON number as a float (booleans and strings are not numbers).

    An integer too large for a float is not finite either.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("integer too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number
