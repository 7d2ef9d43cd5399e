"""The checks that femtonet modules share."""

import math
import operator


def require(ok: bool, message: str, *args) -> None:
    """Raise AssertionError(message % args) unless ok; unlike assert, this
    also checks under python -O.  The message is formatted only on failure,
    so a check inside a loop costs no string work."""
    if not ok:
        raise AssertionError(message % args if args else message)


def finite(name: str, value, minimum: float = -math.inf, strict: bool = False):
    """value; a ValueError naming `name` if it is NaN, infinite, or below
    minimum (or at it, if strict).  With a minimum the test is a comparison
    chain, which takes an int of any size; without one, math.isfinite."""
    if minimum == -math.inf:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    elif not ((minimum < value if strict else minimum <= value) and value < math.inf):
        raise ValueError(f"{name} must be finite and {'>' if strict else '>='} {minimum:g}, "
                         f"got {value!r}")
    return value


def fraction(name: str, value):
    """value; a ValueError naming `name` unless it lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def integer(name: str, value) -> int:
    """value as an int; a ValueError naming `name` unless it is an integer
    (numpy integers included, floats and strings not)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def whole_count(name: str, value, minimum: int) -> int:
    """value as an int; a ValueError naming `name` unless it is a whole
    number >= minimum that a float holds."""
    try:
        whole = float(value).is_integer()
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be a whole number within the float range, "
                         f"got {value!r}") from None
    if not (whole and value >= minimum):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def whole_counts(obj, names) -> None:
    """Name the first field of obj not a whole number >= 0 in a ValueError;
    store each as an int (frozen dataclasses too)."""
    for name in names:
        object.__setattr__(obj, name, whole_count(name, getattr(obj, name), 0))
