"""Exact arithmetic on divisors with labeled prime components.

Coefficients are arbitrary-precision rationals (`fractions.Fraction`).
Nothing in this package ever touches floating point: `rat` refuses
floats, and every downstream computation (linear solves, lattice
enumeration, rounding) stays in exact integers and fractions.

A `DivisorVector` is a finitely supported map DivisorLabel -> Fraction.
Zero coefficients are normalized away, so equality and hashing are
structural and deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

KINDS = ("exceptional", "strict-transform", "boundary")
# `_make`, and so `_replace`, of a type whose `__new__` checks its fields
_make_checked = classmethod(lambda cls, fields: cls(*fields))

RatLike = Union[int, str, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, a string like ``"-2/3"``, or a Fraction to Fraction.

    Floats and bools are rejected: the whole library is exact by contract.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational (int/str/Fraction), got {type(x).__name__}")


class DivisorLabel(NamedTuple("DivisorLabel", [("name", str), ("kind", str)])):
    """Name of a prime divisor on the resolution, tagged by its role; labels
    sort by (name, kind)."""

    __slots__ = ()
    _make = _make_checked

    def __new__(cls, name, kind="exceptional"):
        if kind not in KINDS:
            raise ValueError(f"unknown divisor kind {kind!r}")
        return tuple.__new__(cls, (name, kind))


class DivisorVector:
    """Immutable, sparse rational combination of labeled prime divisors."""

    __slots__ = ("_items",)

    def __init__(self, coeffs: Optional[Iterable[tuple[DivisorLabel, RatLike]]] = None):
        acc: dict[DivisorLabel, Fraction] = {}
        for label, c in coeffs or ():
            if not isinstance(label, DivisorLabel):
                raise TypeError(f"keys must be DivisorLabel, got {type(label).__name__}")
            acc[label] = acc.get(label, Fraction(0)) + rat(c)
        items = tuple(sorted((l, c) for l, c in acc.items() if c != 0))
        object.__setattr__(self, "_items", items)

    @classmethod
    def zero(cls) -> "DivisorVector":
        return cls()

    def items(self) -> tuple[tuple[DivisorLabel, Fraction], ...]:
        return self._items

    @property
    def support(self) -> tuple[DivisorLabel, ...]:
        return tuple(l for l, _ in self._items)

    def coeff(self, label: DivisorLabel) -> Fraction:
        for l, c in self._items:
            if l == label:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self._items

    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self._items)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self._items)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "DivisorVector") -> "DivisorVector":
        if not isinstance(other, DivisorVector):
            return NotImplemented
        return DivisorVector(list(self._items) + list(other._items))

    def __sub__(self, other: "DivisorVector") -> "DivisorVector":
        return self + (-other)

    def __neg__(self) -> "DivisorVector":
        return DivisorVector([(l, -c) for l, c in self._items])

    def scale(self, factor: RatLike) -> "DivisorVector":
        f = rat(factor)
        return DivisorVector([(l, f * c) for l, c in self._items])

    def __mul__(self, factor: RatLike) -> "DivisorVector":
        return self.scale(factor)

    __rmul__ = __mul__

    def floor(self) -> "DivisorVector":
        """Componentwise floor (toward -infinity, never truncation)."""
        return DivisorVector([(l, math.floor(c)) for l, c in self._items])

    def ceil(self) -> "DivisorVector":
        """Componentwise ceiling; satisfies ceil(D) == -floor(-D)."""
        return DivisorVector([(l, math.ceil(c)) for l, c in self._items])

    # -- comparison -------------------------------------------------------

    def __le__(self, other: "DivisorVector") -> bool:
        """Componentwise <= over the union of supports (a partial order)."""
        if not isinstance(other, DivisorVector):
            return NotImplemented
        mine, theirs = dict(self._items), dict(other._items)
        return all(mine.get(l, 0) <= theirs.get(l, 0) for l in mine.keys() | theirs.keys())

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        if not self._items:
            return "DivisorVector(0)"
        terms = " + ".join(f"({c})*{l.name}" for l, c in self._items)
        return f"DivisorVector({terms})"


def floor_inequality_check(d: DivisorVector, q: int) -> bool:
    """Check -floor(D) + floor((1-q)D) <= -q*floor(D) componentwise.

    Holds for every rational divisor D and integer q >= 2 (q plays the
    role of a Frobenius power); the function exists so the fuzz suite can
    assert exactly that.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError("q must be an integer >= 2")
    lhs = -(d.floor()) + ((1 - q) * d).floor()
    rhs = (-q) * d.floor()
    return lhs <= rhs
