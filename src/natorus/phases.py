"""Exact rational phases.

A phase is an element of Q/Z written additively: the stored fraction f
represents the unit complex number exp(2 pi i f). All cocycle and coboundary
identities in this package are checked with Phase arithmetic, which is exact;
conversion to complex happens only at the numerical boundary (building
operators, comparing against floating-point products). Reports leave the
package as plain data through `Report.as_dict`, with each phase as 'p/q'.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np


_QUARTER_TURNS = np.array([1.0, 1.0j, -1.0, -1.0j])


def exp_phases(table: np.ndarray, den: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(2 pi i table / den) for an integer array, formed in `out` if given.

    Quarter-turn denominators give exact +-1 and +-i entries, so sign
    tables like the octonion structure constants carry no roundoff.
    """
    if den in (1, 2, 4):
        return _QUARTER_TURNS.take(table if den == 4 else table * (4 // den), mode="wrap", out=out)
    out = np.multiply(table, 2j * np.pi, out=out)  # in place from here: no temporaries
    return np.exp(np.divide(out, den, out=out), out=out)


class Phase:
    """A rational angle modulo 1, kept reduced with 0 <= value < 1."""

    __slots__ = ("_frac",)

    def __init__(self, numerator=0, denominator=1):
        if isinstance(numerator, Phase):
            self._frac = numerator._frac
            return
        self._frac = Fraction(numerator, denominator) % 1

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "Phase":
        p = cls.__new__(cls)
        p._frac = Fraction(frac) % 1
        return p

    @property
    def numerator(self) -> int:
        return self._frac.numerator

    @property
    def denominator(self) -> int:
        return self._frac.denominator

    @property
    def fraction(self) -> Fraction:
        return self._frac

    def is_zero(self) -> bool:
        return self._frac == 0

    def __add__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._frac + other._frac)

    def __sub__(self, other: "Phase") -> "Phase":
        return Phase.from_fraction(self._frac - other._frac)

    def __neg__(self) -> "Phase":
        return Phase.from_fraction(-self._frac)

    def __mul__(self, k: int) -> "Phase":
        if not isinstance(k, int):
            return NotImplemented
        return Phase.from_fraction(self._frac * k)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Phase):
            return self._frac == other._frac
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._frac)

    def to_complex(self) -> complex:
        """exp(2 pi i value) by exp_phases: exact for quarter turns."""
        return complex(exp_phases(np.array([self.numerator]), self.denominator)[0])

    def __repr__(self) -> str:
        return f"Phase({self._frac.numerator}/{self._frac.denominator})"

    def __str__(self) -> str:
        return f"{self._frac.numerator}/{self._frac.denominator}"

    @classmethod
    def parse(cls, text) -> "Phase":
        """Accept 'p/q' strings, [num, den] pairs of integers, and integers.

        Booleans, floats and strings are not integers here: a pair such as
        [1.5, 2] or ["1", "2"] raises ValueError instead of being truncated
        or converted."""
        if isinstance(text, Phase):
            return text
        if isinstance(text, str):
            return cls.from_fraction(Fraction(text))
        if isinstance(text, (list, tuple)) and len(text) == 2 and all(map(_is_int, text)):
            return cls(*text)
        if _is_int(text):
            return cls(text)
        raise ValueError(f"cannot parse phase from {text!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


ZERO_PHASE = Phase(0)
HALF_PHASE = Phase(1, 2)


class Report:
    """The base of the verifiers' dataclass reports."""

    def as_dict(self) -> dict:
        """The report as plain data, the fields shown in its repr in order:
        dataclasses become dicts, tuples lists, and a Phase 'p/q'."""
        return _plain(self)


def _plain(value):
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.repr}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return str(value) if isinstance(value, Phase) else value
