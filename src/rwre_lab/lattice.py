"""Signed unit directions on Z^d.

Direction index convention used everywhere in this package: index ``2*a``
encodes ``+e_{a+1}`` and index ``2*a + 1`` encodes ``-e_{a+1}``, so the
opposite of direction ``j`` is ``j ^ 1``.  JSON files store steps in the
signed-axis form ``+(a+1)`` / ``-(a+1)``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

import numpy as np

from .errors import ConfigError

MAX_DIM = 4


def check_dim(d: int) -> int:
    """Validate a dimension; bools are refused, although ``bool`` is an ``int``."""
    if isinstance(d, bool) or not isinstance(d, int) or not 1 <= d <= MAX_DIM:
        raise ConfigError(f"dimension must be an integer in 1..{MAX_DIM}, got {d!r}")
    return d


@lru_cache(maxsize=None)
def step_table(d: int) -> np.ndarray:
    """(2d, d) table mapping direction index to its lattice step vector."""
    check_dim(d)
    table = np.zeros((2 * d, d), dtype=np.int64)
    for a in range(d):
        table[2 * a, a] = 1
        table[2 * a + 1, a] = -1
    table.setflags(write=False)
    return table


def direction_index(axis: int, sign: int) -> int:
    return 2 * axis + (0 if sign > 0 else 1)


def encode_signed_axis(j: int) -> int:
    axis = j // 2 + 1
    return axis if j % 2 == 0 else -axis


@lru_cache(maxsize=None)
def signed_axis_table(d: int) -> np.ndarray:
    """(2d,) table mapping direction index to its signed-axis JSON form."""
    table = np.array([encode_signed_axis(j) for j in range(2 * check_dim(d))], dtype=np.int64)
    table.setflags(write=False)
    return table


def decode_signed_axis(s: int, d: int) -> int:
    """Direction index of a signed axis; bools, floats and strings are refused, not rounded."""
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise ConfigError(f"signed axis {s!r} is not an integer")
    if s == 0 or abs(s) > d:
        raise ConfigError(f"signed axis {s!r} out of range for dimension {d}")
    return direction_index(abs(int(s)) - 1, 1 if s > 0 else -1)


def _integer(x, refusal: str) -> int:
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ConfigError(f"{refusal}, got {x!r}")
    return int(x)


def _at_least(value, name: str, least):
    if least is not None and not value >= least:
        raise ConfigError(f"{name} must be at least {least}")
    return value


def read_integer(x, name: str, least: int | None = None) -> int:
    """``x`` as an int by the one integer rule of the config and the library: an integral number is its integer
    (10.0 is 10); a bool, a fraction, NaN, anything else or a value below ``least`` is refused naming ``name``."""
    return _at_least(_integer(x, f"{name} must be an integer"), name, least)


def read_float(x, name: str, least: float | None = None) -> float:
    """``x`` as a float by the one float rule of the config and the library: a finite int or float is its value; a
    bool, a string, a number a float cannot hold, anything else or a value below ``least`` is refused by name."""
    number = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    if number and -sys.float_info.max <= x <= sys.float_info.max:  # NaN, infinities and ints past the range fail
        return _at_least(float(x), name, least)
    raise ConfigError(f"{name} must be a finite number, got {x!r}")


def read_rational(x, name: str) -> Fraction:
    """``x`` as a Fraction by the one rational rule of the config and the library: a rational number is itself, and a
    string ('1/2', '0.25') or a float is read by its decimal text (0.1 is 1/10, not the double nearest it); a bool,
    None, NaN, an infinity, an exponent past ``sys.get_int_max_str_digits()`` or anything else is refused by name."""
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(int(x.numerator), int(x.denominator))
    if isinstance(x, (str, float, np.floating)):
        try:
            exponent = abs(int(str(x).lower().partition("e")[2] or 0))
        except ValueError:
            exponent = 0  # no exponent Fraction reads either
        limit = sys.get_int_max_str_digits()  # Fraction builds 10**exponent whole; 0 lifts the limit
        if limit and exponent > limit:
            raise ConfigError(f"{name} must have a decimal exponent of at most {limit} in size, got {x!r}")
        try:
            return Fraction(str(x))  # 'nan' and 'inf' are no Fraction literals
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"{name} must be a rational such as '1/2' or a finite number, got {x!r}")


def integer_array(x, name: str) -> np.ndarray:
    """The array ``x`` read whole by the rule of ``read_integer``: an integer array int64 holds is returned as it
    is, a float array of integral entries inside the int64 range becomes int64, and any other entry is refused."""
    arr = np.asarray(x)
    if arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64):
        return arr
    bad = arr[(np.trunc(arr) != arr) | ~(np.abs(arr) < 2.0**63)] if arr.dtype.kind == "f" else arr
    if bad.size:
        raise ConfigError(f"{name} must hold integers int64 holds, got {bad.ravel()[:1].tolist()[0]!r} ({arr.dtype})")
    return arr.astype(np.int64)


def read_integers(x, name: str, d: int | None = None) -> tuple[int, ...]:
    """The entries of the vector ``x`` as ints by the rule of ``read_integer``, ``d`` of them when ``d`` is given."""
    try:
        entries = list(x)
    except TypeError:
        raise ConfigError(f"{name} must be a vector of integers, got {x!r}") from None
    if d is not None and len(entries) != d:
        raise ConfigError(f"{name} must have {d} entries (the dimension), got {len(entries)}")
    return tuple(_integer(v, f"{name} must hold integers") for v in entries)


def read_direction(l, name: str, d: int | None = None) -> tuple[int, ...]:
    """The direction ``l`` by one rule: integer entries by ``read_integers`` (``d`` of them when given), gcd 1."""
    v = read_integers(l, name, d)
    if math.gcd(*v) != 1:
        raise ConfigError(f"{name} must be a nonzero integer vector with gcd 1, got {v}")
    return v


def check_site(x, d: int) -> np.ndarray:
    """Validate a lattice site and return it as an int64 vector."""
    return np.asarray(read_integers(x, "site", d), dtype=np.int64)
