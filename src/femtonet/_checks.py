"""The invariant check that femtonet modules share."""


def require(ok: bool, message: str, *args) -> None:
    """Raise AssertionError(message % args) unless ok; unlike assert, this
    also checks under python -O.  The message is formatted only on failure,
    so a check inside a loop costs no string work."""
    if not ok:
        raise AssertionError(message % args if args else message)
