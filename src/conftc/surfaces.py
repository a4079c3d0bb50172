"""Cohomology of cartesian powers of a closed orientable surface.

The degree-1 classes of one surface factor come in dual pairs a(p), b(p)
(p up to the genus) with a single degree-2 class w; products follow
a(p)b(p) = w, a(p)b(q) = 0 for p != q, a(p)a(q) = b(p)b(q) = 0 and
w kills everything of positive degree.  A basis monomial of the n-fold
power carries one such letter per cartesian coordinate; letters are
encoded as small integers so monomials are plain int tuples:

    0 -> 1,  2p-1 -> a(p),  2p -> b(p),  2g+1 -> w

The encoding makes tuple order agree with the fixed enumeration
1 < a(1) < b(1) < ... < a(g) < b(g) < w used for pivots and output.

Two facts about letters are read off the codes.  ``special`` marks the
letters of which a word of the handle-reduced quotient holds at most one:
a(p) and b(p) for p >= 2, and w once g >= 2 (none at g = 1).
``shifted_letter(i, c)`` gives 1, x_i(p), y_i(p) or w_i for code c, where
x_i(1) = a_i(1) - a_1(1) and y_i(1) = b_i(1) - b_1(1) for i >= 2.

The handle-reduced ring A, the power algebra modulo the cross-handle
products, is an algebra here too (:class:`HandleReducedAlgebra`, reached
as ``handle_reduced``): its basis is the words with at most one special
letter, and a product that leaves them is zero; the certificate ring B is
a quotient of it.  This module also builds the relation sets feeding the
quotient layer.

Each basis an algebra lists (the ambient one, or A's) is held to its
``max_basis``: the limit given when it is made, else the one
``errors.basis_limit`` reads from TCCONF_MAX_BASIS or its default.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

from .algebra import Element, GradedAlgebraBase
from .errors import SizeGuardError, basis_limit
from .fields import RATIONALS

UNIT = 0


def a_letter(p):
    return 2 * p - 1


def b_letter(p):
    return 2 * p


def omega_letter(genus):
    return 2 * genus + 1


_LETTER_RE = re.compile(r"([ab])(\d+)\((\d+)\)$|w(\d+)$")


class SurfacePowerAlgebra(GradedAlgebraBase):
    """The full cohomology algebra of the n-fold power of a genus-g surface."""

    # The basis words of a handle-reduced algebra, as a set; None: every word.
    _words = None

    def __init__(self, genus, points, max_basis=None):
        if genus < 1:
            raise ValueError("genus must be at least 1 (genus 0 is handled by formula only)")
        if points < 1:
            raise ValueError("points must be at least 1")
        self.genus = genus
        self.points = points
        # The guard on every basis listed for this algebra and its handle_reduced.
        self.max_basis = basis_limit(max_basis)
        self.field = RATIONALS
        self.top_degree = 2 * points
        self._omega = 2 * genus + 1
        self._letters = range(2 * genus + 2)
        self._deg = [0] + [1] * (2 * genus) + [2]
        self._ltab = self._local_table()
        # a(p), b(p) for p >= 2, and w = a(2)b(2) once there is a second handle
        self.special = tuple(genus >= 2 and c >= 3 for c in self._letters)
        self._lweight = [0] * (2 * genus + 2)
        for p in range(1, genus + 1):
            unit = (2 * points + 1) ** (p - 1)
            self._lweight[2 * p - 1], self._lweight[2 * p] = unit, -unit
        self.one = (UNIT,) * points

    def _local_table(self):
        """Products of two letters sharing a coordinate: (letter, sign) or None."""
        g = self.genus
        omega = self._omega
        size = 2 * g + 2
        tab = [[None] * size for _ in range(size)]
        for c in range(size):
            tab[UNIT][c] = (c, 1)
            tab[c][UNIT] = (c, 1)
        # omega times anything positive is zero (already None); degree-1 pairs:
        for p in range(1, g + 1):
            for q in range(1, g + 1):
                if p == q:
                    tab[2 * p - 1][2 * q] = (omega, 1)   # a(p) b(p) = w
                    tab[2 * p][2 * q - 1] = (omega, -1)  # b(p) a(p) = -w
        return tab

    # -- monomials -----------------------------------------------------------

    def is_monomial(self, m):
        letters = self._letters
        ok = type(m) is tuple and len(m) == self.points
        return ok and all(type(c) is int and c in letters for c in m)

    def monomial_degree(self, m):
        deg = self._deg
        return sum([deg[c] for c in m])

    def _guard(self, what, size):
        """Refuse to list a basis of ``size`` monomials past the basis guard."""
        if size > self.max_basis:
            raise SizeGuardError(
                f"{what} basis size {size} for genus {self.genus} with {self.points} "
                f"points exceeds the limit {self.max_basis}",
                estimate=size,
                limit=self.max_basis,
            )

    def _monomials(self):
        """All (2g+2)^n letter words, in tuple order."""
        self._guard("ambient", len(self._letters) ** self.points)
        return itertools.product(self._letters, repeat=self.points)

    # -- monomial products ------------------------------------------------

    def mono_mul(self, m1, m2):
        ltab = self._ltab
        out = []
        par = 0
        for c1, c2 in zip(m1, m2):
            r = ltab[c1][c2]
            if r is None:
                return None
            out.append(r[0])
            if r[1] < 0:
                par ^= 1
        out = tuple(out)
        words = self._words
        if words is not None and out not in words:
            return None
        # Koszul sign from interleaving: slot i of m2 crosses slots > i of m1.
        deg = self._deg
        suffix_odd = 0
        for i in range(self.points - 1, -1, -1):
            if deg[m2[i]] & 1:
                par ^= suffix_odd
            if deg[m1[i]] & 1:
                suffix_odd ^= 1
        return (out, -1 if par else 1)

    def monomial_weight(self, m):
        """The handle weight a(p) -> +e_p, b(p) -> -e_p, w -> 0, as one int.

        Products add weights.  The weight vector is packed in balanced base
        2n+1; each component lies in -n..n, so distinct weights give
        distinct ints.
        """
        lw = self._lweight
        return sum([lw[c] for c in m])

    @cached_property
    def handle_reduced(self):
        """The handle-reduced algebra on the same letters, under the same basis guard."""
        return HandleReducedAlgebra(self.genus, self.points, self.max_basis)

    # -- generators ---------------------------------------------------------

    def _check_coord(self, i):
        if not 1 <= i <= self.points:
            raise ValueError(f"generator out of range: coordinate {i} of {self.points}")

    def _check_puncture(self, p):
        if not 1 <= p <= self.genus:
            raise ValueError(f"generator out of range: index {p} exceeds genus {self.genus}")

    def _mono_with(self, assignments):
        word = [UNIT] * self.points
        for i, c in assignments:
            word[i - 1] = c
        return tuple(word)

    def a(self, i, p=1):
        self._check_coord(i)
        self._check_puncture(p)
        return Element.monomial(self, self._mono_with([(i, 2 * p - 1)]))

    def b(self, i, p=1):
        self._check_coord(i)
        self._check_puncture(p)
        return Element.monomial(self, self._mono_with([(i, 2 * p)]))

    def omega(self, i):
        self._check_coord(i)
        return Element.monomial(self, self._mono_with([(i, self._omega)]))

    def x(self, i, p=1):
        """x_i(p): equals a_i(p) except x_i(1) = a_i(1) - a_1(1) for i >= 2."""
        if p >= 2 or i == 1:
            return self.a(i, p)
        return self.a(i, 1) - self.a(1, 1)

    def y(self, i, p=1):
        """y_i(p): equals b_i(p) except y_i(1) = b_i(1) - b_1(1) for i >= 2."""
        if p >= 2 or i == 1:
            return self.b(i, p)
        return self.b(i, 1) - self.b(1, 1)

    def shifted_letter(self, i, c):
        """The shifted letter of code c at coordinate i: 1, x_i(p), y_i(p) or w_i."""
        if c == UNIT:
            return Element.unit(self)
        if c == self._omega:
            return self.omega(i)
        return self.x(i, (c + 1) // 2) if c & 1 else self.y(i, c // 2)

    # -- text form ------------------------------------------------------------

    def monomial_word(self, m) -> str:
        parts = []
        for i, c in enumerate(m, start=1):
            if c == UNIT:
                continue
            if c == self._omega:
                parts.append(f"w{i}")
            elif c & 1:
                parts.append(f"a{i}({(c + 1) // 2})")
            else:
                parts.append(f"b{i}({c // 2})")
        return "*".join(parts) if parts else "1"

    def parse_word(self, word: str):
        if word == "1":
            return self.one
        codes = [UNIT] * self.points
        for piece in word.split("*"):
            m = _LETTER_RE.match(piece)
            if not m:
                raise ValueError(f"unknown monomial word: {piece!r}")
            if m.group(4) is not None:
                i, c = int(m.group(4)), self._omega
            else:
                i, p = int(m.group(2)), int(m.group(3))
                self._check_puncture(p)
                c = 2 * p - 1 if m.group(1) == "a" else 2 * p
            self._check_coord(i)
            if codes[i - 1] != UNIT:
                raise ValueError(f"coordinate {i} repeated in word {word!r}")
            codes[i - 1] = c
        if not self.is_monomial(tuple(codes)):
            raise ValueError(f"monomial {word!r} is not in the basis")
        return tuple(codes)

    def __repr__(self):
        return f"{type(self).__name__}(genus={self.genus}, points={self.points})"


class HandleReducedAlgebra(SurfacePowerAlgebra):
    """The power algebra modulo the cross-handle products: the ring A.

    Its basis is the words with at most one special letter
    (:func:`reduced_monomials`), listed once on first use under the basis
    guard; ``mono_mul`` sends a product that leaves them to zero.
    """

    def is_monomial(self, m):
        words = self._words
        return super().is_monomial(m) if words is None else type(m) is tuple and m in words

    def _monomials(self):
        return reduced_monomials(self)

    @property
    def handle_reduced(self):
        """The algebra itself: it is already handle-reduced."""
        return self

    @cached_property
    def _words(self):
        if any(self.special):  # else, at genus 1, every word is a basis word
            return {m for ms in self.monomials_by_degree for m in ms}


@dataclass(frozen=True)
class RelationSet:
    """A labeled list of homogeneous relation elements.

    ``unit_coordinates``, when given, holds one coordinate (numbered from
    1, or None) per generator: a coordinate where a letter times the
    generator equals, up to sign, the same letter in another coordinate
    times it.  The ideal is then spanned by the multiples whose multiplier
    carries the unit there, and :func:`conftc.quotients.ideal_span` skips
    the rest.
    """

    label: str
    generators: tuple
    unit_coordinates: tuple | None = None

    def __post_init__(self):
        units = self.unit_coordinates
        if units is not None and len(units) != len(self.generators):
            raise ValueError("unit_coordinates needs one entry per generator")

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def totaro_relations(algebra) -> RelationSet:
    """One degree-2 generator per coordinate pair i < j.

    The pair (i, j) contributes w_i + w_j + sum_p (b_i(p)a_j(p) - a_i(p)b_j(p)),
    the class of the diagonal of coordinates i and j.  Its unit coordinate
    is i: the diagonal satisfies r_ij (u_i - u_j) = 0 for every letter u.
    """
    gens, units = [], []
    n, g = algebra.points, algebra.genus
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            e = algebra.omega(i) + algebra.omega(j)
            for p in range(1, g + 1):
                e = e + algebra.b(i, p) * algebra.a(j, p) - algebra.a(i, p) * algebra.b(j, p)
            gens.append(e)
            units.append(i)
    return RelationSet("TOTARO", tuple(gens), tuple(units))


def cross_handle_relations(algebra) -> RelationSet:
    """All mixed products of index >= 2 letters across distinct coordinates.

    Empty for genus 1; these present the first quotient of the power algebra.
    """
    gens = []
    n, g = algebra.points, algebra.genus
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for u in range(2, g + 1):
                for v in range(2, g + 1):
                    for left in (algebra.a(i, u), algebra.b(i, u)):
                        for right in (algebra.a(j, v), algebra.b(j, v)):
                            gens.append(left * right)
    return RelationSet("CROSS_HANDLE", tuple(gens))


def xy_pair_relations(algebra) -> RelationSet:
    """The products x_i y_j over i, j in {2, ..., n} (i = j included)."""
    gens = []
    n = algebra.points
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            gens.append(algebra.x(i) * algebra.y(j))
    return RelationSet("XY_PAIRS", tuple(gens))


def reduced_basis_count(genus, points):
    """The number of basis words of the handle-reduced algebra."""
    if genus == 1:
        return 4**points
    return 3**points + points * (2 * genus - 1) * 3 ** (points - 1)


def reduced_monomials(algebra):
    """The basis words of the handle-reduced algebra, in tuple order.

    The ideal generated by :func:`cross_handle_relations` is a monomial
    ideal: it is spanned by the monomials with two or more coordinates
    carrying a special letter (``algebra.special``).  The basis words are
    those with at most one special letter, listed directly rather than
    filtered from the ambient basis; for genus 1 no letter is special and
    every word is listed.  The basis guard limits their count
    (:func:`reduced_basis_count`), checked before listing.
    """
    g, n = algebra.genus, algebra.points
    algebra._guard("handle-reduced", reduced_basis_count(g, n))
    special = algebra.special
    # Words of the current length with no special letter, and with at most one.
    none, upto1 = [()], [()]
    for _ in range(n):
        none, upto1 = (
            [(c,) + w for c, sc in enumerate(special) if not sc for w in none],
            [(c,) + w for c, sc in enumerate(special) for w in (none if sc else upto1)],
        )
    return upto1


def shifted_basis_products(algebra):
    """The reduced basis rebuilt from shifted letters, as (monomial, element) pairs.

    Each basis word of ``algebra.handle_reduced``, in tuple order, with the
    product on ``algebra``, left to right, of the shifted letters of its
    codes other than the unit (``SurfacePowerAlgebra.shifted_letter``); a
    word of units gives 1.  The words are walked in tuple order, so a word
    shares its longest prefix with the word before it: the element of each
    longer prefix is the shorter one's times its next non-unit letter, and
    each letter is built once per (coordinate, code).  That is one product
    per word with two or more non-unit letters.
    """
    out = []
    letters = {
        (i, c): algebra.shifted_letter(i, c)
        for i in range(1, algebra.points + 1)
        for c in range(1, 2 * algebra.genus + 2)
    }
    # prefix[t]: the product of the non-unit letters of the last word's
    # first t codes, or None while they are all units
    prefix, last = [None], ()
    words = itertools.chain.from_iterable(algebra.handle_reduced.monomials_by_degree)
    for m in sorted(words):
        shared = next((t for t, (c, d) in enumerate(zip(m, last)) if c != d), 0)
        del prefix[shared + 1 :]
        e = prefix[shared]
        for i, c in enumerate(m[shared:], start=shared + 1):
            if c != UNIT:
                e = letters[i, c] if e is None else e * letters[i, c]
            prefix.append(e)
        out.append((m, Element.unit(algebra) if e is None else e))
        last = m
    return out
