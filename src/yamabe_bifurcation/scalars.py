"""Scalar values used throughout: exact rationals or tolerance-tagged floats.

Exact mode stores everything as ``fractions.Fraction`` and compares with
``==``.  Floating mode stores plain floats; every comparison goes through a
relative tolerance tau declared by the spectrum that owns the value:
a ~ b  iff  |a - b| <= tau * max(1, |a|, |b|), which is symmetric in a and b.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[int, Fraction, float]


def as_exact(value) -> Fraction:
    """Coerce to an exact rational; decimal strings and floats go through
    their literal decimal form ("0.01" -> 1/100, not the binary float)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_scalar(value, tolerance: Optional[float]) -> Scalar:
    """Coerce to the representation selected by ``tolerance`` (None = exact);
    in floating mode a value with no finite float raises ValueError."""
    if tolerance is None:
        return as_exact(value)
    try:
        number = float(Fraction(value) if isinstance(value, str) else value)
    except OverflowError:  # a rational past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{value!r} has no finite float")
    return number


def is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


def close(a, b, tol: Optional[float] = None) -> bool:
    if tol is None:
        return a == b
    return abs(a - b) <= tol * max(1, abs(a), abs(b))


def lt(a, b, tol: Optional[float] = None) -> bool:
    return a < b and not close(a, b, tol)


def gt(a, b, tol: Optional[float] = None) -> bool:
    return a > b and not close(a, b, tol)


def ge(a, b, tol: Optional[float] = None) -> bool:
    return not lt(a, b, tol)


def sign(x, tol: Optional[float] = None) -> int:
    if close(x, 0, tol):
        return 0
    return 1 if x > 0 else -1


def fmt(x, tol: Optional[float] = None) -> str:
    """Canonical text form: 'p/q' (or plain integer) exact, 17 significant
    digits floating."""
    if tol is None and is_exact(x):
        return str(x if type(x) is Fraction else Fraction(x))
    return "%.17g" % float(x)
