"""Exact coefficient fields: the rationals and the two-element field.

Scalars are plain values supporting ``+ - *`` and truthiness (``bool(x)``
is False exactly for zero): a rational is an ``int`` when integral and a
:class:`fractions.Fraction` otherwise, and GF(2) has :class:`Bit`.  A
:class:`Field` object tags which field an algebra works over and provides
conversion, formatting, ``canonical`` (a scalar in the type the field
keeps it in) and ``inverse``, the only division (a ``Fraction`` over the
rationals, never a ``float``); all other arithmetic goes through the
scalar operators so that linear algebra and element code stay
field-agnostic.  ``Fraction(1) == 1`` and the two hash alike, so equality
and text do not depend on which type holds an integral value.
"""

from __future__ import annotations


class Bit:
    """An element of the field with two elements."""

    __slots__ = ("v",)

    def __init__(self, v=0):
        self.v = int(v) & 1

    def __add__(self, other):
        return Bit(self.v ^ other.v)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return Bit(self.v & other.v)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        return isinstance(other, Bit) and self.v == other.v

    def __hash__(self):
        return hash(("Bit", self.v))

    def __repr__(self):
        return f"Bit({self.v})"

    def __str__(self):
        return str(self.v)


class Field:
    """Descriptor for a coefficient field ('RATIONALS' or 'GF2')."""

    tag = ""

    def from_int(self, k):
        raise NotImplementedError

    def inverse(self, c):
        """The multiplicative inverse of a nonzero scalar."""
        raise NotImplementedError

    def canonical(self, c):
        """The scalar c held as the field holds it (an integral rational as ``int``)."""
        return c

    def format(self, c) -> str:
        raise NotImplementedError

    def signed_text(self, c) -> str:
        """Format with an explicit leading sign, e.g. '+3/2' or '-1'."""
        s = self.format(c)
        return s if s.startswith("-") else "+" + s

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def __repr__(self):
        return self.tag


class RationalField(Field):
    tag = "RATIONALS"

    def from_int(self, k):
        return int(k)

    # ``fractions`` (with ``decimal``, which it imports) is loaded on the
    # first division, not at start-up: most runs never divide.
    def inverse(self, c):
        from fractions import Fraction

        return Fraction(1, c)

    def canonical(self, c):
        return c.numerator if c.denominator == 1 else c

    def format(self, c) -> str:
        return str(c)


class BinaryField(Field):
    tag = "GF2"

    def from_int(self, k):
        return Bit(k)

    def inverse(self, c):
        if not c:
            raise ZeroDivisionError("division by zero in GF(2)")
        return c

    def format(self, c) -> str:
        return str(c.v)


RATIONALS = RationalField()
GF2 = BinaryField()
