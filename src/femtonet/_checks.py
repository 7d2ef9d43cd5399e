"""The checks that femtonet modules share."""


def require(ok: bool, message: str, *args) -> None:
    """Raise AssertionError(message % args) unless ok; unlike assert, this
    also checks under python -O.  The message is formatted only on failure,
    so a check inside a loop costs no string work."""
    if not ok:
        raise AssertionError(message % args if args else message)


def whole_count(name: str, value, minimum: int) -> int:
    """value as an int; a ValueError naming `name` unless it is a whole
    number >= minimum."""
    if not (float(value).is_integer() and value >= minimum):
        raise ValueError(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def whole_counts(obj, names) -> None:
    """Name the first field of obj not a whole number >= 0 in a ValueError;
    store each as an int (frozen dataclasses too)."""
    for name in names:
        object.__setattr__(obj, name, whole_count(name, getattr(obj, name), 0))
