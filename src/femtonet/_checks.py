"""The checks that femtonet modules share."""

import math
import operator

import numpy as np


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


def libm(ufunc, x):
    """ufunc(x) elementwise for a float64 numpy ufunc of one argument (log,
    cos, sin) and a 1-D x, bit for bit as libm's function (math.log,
    math.cos, math.sin) gives it.

    On float64 arrays numpy may run its own SIMD routine (np.log does,
    AVX-512 on x86-64 with numpy 2.4), which differs from libm in the last
    bit on some inputs (about 0.4% of the DES kernel's draws for log).  It
    takes that routine whenever input and output run through memory in one
    direction (numpy turns two reversed operands into forward ones).  The
    reversed view of x is read backwards while the ufunc writes its new
    output forwards, so no such turn exists and numpy runs its scalar loop,
    which calls libm: one numpy call.  The second reversal puts the result
    back in x's order.

    That rests on numpy's dispatch, so the import checks it (`_libm_call`)
    for each ufunc over a fixed probe, and a ufunc whose reversed view
    misses libm's bits anywhere on it takes math's function per element
    instead: the same bits, slower.  That path raises where math does
    (math.log(0.0), math.cos(inf)), which the callers' inputs never reach.
    Tier-1 tests hold the result to math.log, math.cos and math.sin over a
    million inputs each."""
    return _LIBM_CALLS[ufunc](x)


def _libm_call(ufunc, scalar, probe: np.ndarray):
    """The call that `libm` makes for ufunc: ufunc on the reversed view if
    it gives scalar's bits on every input of `probe`, else scalar per
    element."""
    def reversed_view(x):
        return ufunc(x[::-1])[::-1]

    def per_element(x):
        return np.fromiter(map(scalar, x.tolist()), np.float64, len(x))

    same = reversed_view(probe).tobytes() == per_element(probe).tobytes()
    return reversed_view if same else per_element


def _libm_probe() -> np.ndarray:
    """4,096 fixed uniforms u in [0, 1), which the callers scale as they
    scale their draws: the golden-ratio (Weyl) sequence frac(k / phi), whose
    points spread evenly over [0, 1) with every bit of the mantissa in
    play, and the extremes k / 2**53 for k < 32 and k > 2**53 - 33.  It
    takes no generator, so the import does not load numpy.random."""
    k = np.concatenate([np.arange(32), 2**53 - np.arange(1, 33)]).astype(np.float64)
    weyl = np.arange(1, 4097 - len(k)) * ((math.sqrt(5.0) - 1.0) / 2.0) % 1.0
    return np.concatenate([weyl, k / 2**53])


def _libm_calls() -> dict:
    u = _libm_probe()
    # DES takes the log of 1 - u, and placement the cos and sin of 2 pi u
    return {np.log: _libm_call(np.log, math.log, 1.0 - u),
            np.cos: _libm_call(np.cos, math.cos, 2.0 * math.pi * u),
            np.sin: _libm_call(np.sin, math.sin, 2.0 * math.pi * u)}


_LIBM_CALLS = _libm_calls()  # checked once, when the module is imported
