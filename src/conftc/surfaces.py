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

Facts about letters are read off the codes.  The letter rule lists, for
each non-unit letter d, the letters c with c d nonzero.  ``special`` marks the
letters of which a word of the handle-reduced quotient holds at most one:
a(p) and b(p) for p >= 2, and w once g >= 2 (none at g = 1).
``shifted_letter(i, c)`` gives 1, x_i(p), y_i(p) or w_i for code c, where
x_i(1) = a_i(1) - a_1(1) and y_i(1) = b_i(1) - b_1(1) for i >= 2.

The handle-reduced ring A, the power algebra modulo the cross-handle
products, is an algebra here too (:class:`HandleReducedAlgebra`, reached
as ``handle_reduced``): its basis is the words with at most one special
letter, and a product that leaves them is zero; the certificate ring B is
a quotient of it.  This module also builds the relation generators feeding
the quotient layer.

Each basis an algebra lists (the ambient one, or A's) is held to its
``max_basis``: the limit given when it is made, else the one
``errors.basis_limit`` reads from TCCONF_MAX_BASIS or its default.  A
(degree, handle weight) block of either is enumerated, listing nothing.
"""

from __future__ import annotations

import itertools
import sys
from functools import cached_property

from .algebra import Element, GradedAlgebraBase
from .errors import SizeGuardError, basis_limit
from .fields import RATIONALS

UNIT = 0

# The most entries CPython allocates in one list or tuple, so the most any
# list of letters or basis can hold, with the guard lifted or not.  Every basis
# holds at least 2^n words, so none fits past MAX_POINTS points.
MAX_ENTRIES = sys.maxsize // 8
MAX_POINTS = MAX_ENTRIES.bit_length() - 1


def a_letter(p):
    return 2 * p - 1


def b_letter(p):
    return 2 * p


def omega_letter(genus):
    return 2 * genus + 1


class _Weight(tuple):
    """A nonzero handle weight: (handle, a(p) minus b(p) letters) pairs by handle; 0 is zero."""

    __slots__ = ()

    def __add__(self, other):
        return _weight([*self, *other]) if other else self

    __radd__ = __add__

    def __neg__(self):
        return _Weight([(p, -v) for p, v in self])


def _weight(pairs):
    """The weight of these (handle, count) pairs summed: 0 or a ``_Weight``."""
    net = {}
    for p, v in pairs:
        net[p] = net.get(p, 0) + v
    pairs = sorted(pv for pv in net.items() if pv[1])
    return _Weight(pairs) if pairs else 0


def _fits(left, places, owed, owed_special, room):
    """Whether ``places`` coordinates can take ``left`` more degree, ``owed`` of it
    degree-1 letters the weight needs (``owed_special`` of them special), with room
    for ``room`` special letters: the rest goes to w's, one coordinate each and
    special at genus >= 2, and to a(1)b(1) pairs, two each."""
    spare = left - owed
    if spare < 0 or spare & 1 or owed_special > room:
        return False
    pairs = spare >> 1
    return owed + 2 * pairs - min(pairs, room - owed_special) <= places


class SurfacePowerAlgebra(GradedAlgebraBase):
    """The full cohomology algebra of the n-fold power of a genus-g surface."""

    # The most special letters a basis word holds: any number here, one in A.
    max_special = MAX_POINTS

    def __init__(self, genus, points, max_basis=None):
        if genus < 1:
            raise ValueError("genus must be at least 1 (genus 0 is handled by formula only)")
        if points < 1:
            raise ValueError("points must be at least 1")
        self.genus = genus
        self.points = points
        # The guard on every basis listed for this algebra and its handle_reduced.
        self.max_basis = basis_limit(max_basis)
        # Checked before anything is allocated: each list of letters holds 2g+2
        # entries and each word n.  The letter rule, 4g+1 entries, is built on
        # first use.
        self._guard("letter count", 2 * genus + 2)
        if points > MAX_POINTS:
            raise SizeGuardError(
                f"{points} points exceed {MAX_POINTS}: every basis would hold at least "
                f"2^{points} words, past the {MAX_ENTRIES} entries a list can hold",
            )
        self.field = RATIONALS
        self.top_degree = 2 * points
        self._omega = 2 * genus + 1
        self._letters = range(2 * genus + 2)
        self._deg = [0] + [1] * (2 * genus) + [2]
        # a(p), b(p) for p >= 2, and w = a(2)b(2) once there is a second handle
        self.special = tuple(genus >= 2 and c >= 3 for c in self._letters)
        # 1 for an odd letter plus 64 for a special one: a sum of kinds over a word
        # (at most MAX_POINTS < 64 letters) holds the parity of its odd letters in
        # bit 0 and the count of its special letters from bit 6 up.
        self._kind = [(d & 1) + 64 * sp for d, sp in zip(self._deg, self.special)]
        self.one = (UNIT,) * points

    @cached_property
    def _rule(self):
        """The letter rule: rule[d] maps each letter c with c d nonzero to (c d, sign, gain).

        1 a(p) = a(p), b(p) a(p) = -w, 1 b(p) = b(p), a(p) b(p) = w and 1 w = w;
        every other pair with a non-unit d is zero.  ``gain``, special[c d] -
        special[c], counts the special letters the product adds to a word.
        rule[0] is None: products walk only the non-unit letters.
        """
        w, sp = self._omega, self.special
        rule = [None] * (2 * self.genus + 2)
        for p in range(1, self.genus + 1):
            a, b = 2 * p - 1, 2 * p
            rule[a] = {UNIT: (a, 1, sp[a]), b: (w, -1, sp[w] - sp[b])}
            rule[b] = {UNIT: (b, 1, sp[b]), a: (w, 1, sp[w] - sp[a])}
        rule[w] = {UNIT: (w, 1, sp[w])}
        return rule

    # -- monomials -----------------------------------------------------------

    def is_monomial(self, m):
        letters = self._letters
        ok = type(m) is tuple and len(m) == self.points
        ok = ok and all(type(c) is int and c in letters for c in m)
        return ok and sum(map(self.special.__getitem__, m)) <= self.max_special

    def monomial_degree(self, m):
        deg = self._deg
        return sum([deg[c] for c in m])

    def _guard(self, what, size):
        """Refuse ``what`` of ``size`` entries past the basis guard, or past MAX_ENTRIES."""
        limit = min(self.max_basis, MAX_ENTRIES)
        if size > limit:
            raise SizeGuardError(
                f"{what} {size} for genus {self.genus} with {self.points} "
                f"points exceeds the limit {limit}",
            )

    def _guard_basis(self):
        """Refuse a basis past the guard from its count, listing nothing."""
        self._guard("ambient basis size", len(self._letters) ** self.points)

    def _monomials(self):
        """All (2g+2)^n letter words, in tuple order."""
        self._guard_basis()
        return itertools.product(self._letters, repeat=self.points)

    # -- monomial products ------------------------------------------------

    def mono_mul(self, m1, m2):
        rule = self._rule
        out, par, gain = list(m1), 0, 0
        for i, d in enumerate(m2):
            if d:
                r = rule[d].get(m1[i])
                if r is None:
                    return None
                out[i], sign, more = r
                par ^= sign < 0
                gain += more
        if gain > 0 and sum(map(self.special.__getitem__, out)) > self.max_special:
            return None
        out = tuple(out)
        # Koszul sign from interleaving: slot i of m2 crosses slots > i of m1.
        deg = self._deg
        suffix_odd = 0
        for i in range(self.points - 1, -1, -1):
            if deg[m2[i]] & 1:
                par ^= suffix_odd
            if deg[m1[i]] & 1:
                suffix_odd ^= 1
        return (out, -1 if par else 1)

    def _times(self, terms):
        """The map m -> m times the element of these terms, as a terms dict signed as by
        ``mono_mul``.  It reads only each term's non-unit coordinates, and drops a
        term whose letter the letter rule kills against m's before building its word."""
        deg, rule, kind, most = self._deg, self._rule, self._kind, self.max_special
        prepared = [(c, [(i, rule[d], deg[d] & 1) for i, d in enumerate(m) if d]) for m, c in terms]

        def times(m):
            after, out = None, {}
            for c, support in prepared:
                for i, products, _odd in support:
                    if m[i] not in products:
                        break
                else:
                    if after is None:  # after[i]: the kinds of m's letters after i, summed
                        after = [*itertools.accumulate([kind[x] for x in m[:0:-1]], initial=0)][::-1]
                        room = most - ((after[0] + kind[m[0]]) >> 6)  # special letters m may gain
                    word, neg, gain = list(m), False, 0
                    for i, products, odd in support:
                        word[i], sign, more = products[m[i]]
                        neg ^= (sign < 0) ^ (odd & after[i])
                        gain += more
                    if gain <= room:
                        out[tuple(word)] = -c if neg else c
            return out

        return times

    def monomial_weight(self, m):
        """The handle weight a(p) -> +e_p, b(p) -> -e_p, w -> 0, as 0 or a ``_Weight``.

        Products add weights.  It takes O(n) and no table.
        """
        w = self._omega
        return _weight([((c + 1) >> 1, 1 if c & 1 else -1) for c in m if 0 < c < w])

    def _block(self, degree, weight, unit=None):
        """The words of one (degree, weight) block in tuple order, listing nothing.

        With ``unit`` (numbered from 1), only those with the unit there.  A
        word is built coordinate by coordinate, and a letter placed only
        where the rest can still be completed (``_fits``), so every branch
        ends in a word.  A coordinate tries the unit, a(1), b(1), w and the
        handles the weight still names; every handle only where a pair of
        special letters may still open, and then each ends in words.  A
        letter the weight names always fits where its word did.
        """
        n, w, sp = self.points, self._omega, self.special
        need = dict(weight or ())  # per handle: a(p) letters minus b(p) letters still to place
        skip = -1 if unit is None else unit - 1
        word, out = [UNIT] * n, []

        def walk(i, left, places, owed, owed_special, room):
            if not left:  # the rest are units
                out.append(tuple(word))
                return
            if i == skip:
                i += 1
            places -= 1
            if _fits(left, places, owed, owed_special, room):
                walk(i + 1, left, places, owed, owed_special, room)
            v = need.get(1, 0)
            opens = _fits(left - 1, places, owed + 1, owed_special, room)  # an a(1)b(1) pair
            letters = [c for c, named in ((1, v > 0), (2, v < 0)) if named or opens]
            if sp[w]:  # the handles past the first, which genus 1 lacks
                if _fits(left - 1, places, owed + 1, owed_special + 1, room - 1):
                    letters += range(3, w)  # a pair of special letters may open at any handle
                else:
                    letters += sorted(2 * p - (v > 0) for p, v in need.items() if v and p > 1)
            for c in letters:
                p, step, special = (c + 1) >> 1, 1 if c & 1 else -1, sp[c]
                v = need.get(p, 0)
                gain = -1 if v * step > 0 else 1  # the letters still owed shrink or grow
                word[i], need[p] = c, v - step
                walk(i + 1, left - 1, places, owed + gain, owed_special + gain * special,
                     room - special)
                if v:
                    need[p] = v
                else:  # so need names no more handles than a word has letters
                    del need[p]
            if _fits(left - 2, places, owed, owed_special, room - sp[w]):
                word[i] = w
                walk(i + 1, left - 2, places, owed, owed_special, room - sp[w])
            word[i] = UNIT

        owed = sum(map(abs, need.values()))
        # no letter is special at genus 1, so no word runs out of room for them
        start = (degree, n - (unit is not None), owed, owed - abs(need.get(1, 0)),
                 self.max_special if sp[w] else n)
        if _fits(*start):
            walk(0, *start)
        return out

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

    def __repr__(self):
        return f"{type(self).__name__}(genus={self.genus}, points={self.points})"


class HandleReducedAlgebra(SurfacePowerAlgebra):
    """The power algebra modulo the cross-handle products: the ring A.

    Its basis is the words with at most one special letter (``max_special``),
    listed by :func:`reduced_monomials` on first use under the basis guard,
    and enumerated one block at a time by ``_block``; ``is_monomial`` reads
    the rule off the letters, and a product that leaves the words is zero.
    """

    max_special = 1

    def _guard_basis(self):
        self._guard("handle-reduced basis size", reduced_basis_count(self.genus, self.points))

    def _monomials(self):
        return reduced_monomials(self)

    @property
    def handle_reduced(self):
        """The algebra itself: it is already handle-reduced."""
        return self


def totaro_relations(algebra):
    """One degree-2 generator per coordinate pair i < j, and the unit coordinate of each.

    The pair (i, j) contributes w_i + w_j + sum_p (b_i(p)a_j(p) - a_i(p)b_j(p)),
    the class of the diagonal of coordinates i and j.  Its unit coordinate
    is i (the ``units`` of :func:`conftc.quotients.ideal_span`): the diagonal
    satisfies r_ij (u_i - u_j) = 0 for every letter u.

    The Koszul rule (``IdealSpan._eliminate``) skips m r_ij, for m with the
    unit at i, when m has w at a coordinate l >= 2 and either i >= 2 or
    l < j.  The lead (least word) of r_1l is w_l = r_1l - t, with tail
    t = w_1 + sum_p (b_1(p)a_l(p) - a_1(p)b_l(p)); r is even, so m r_ij =
    (m/w_l) r_ij r_1l - (m/w_l) t r_ij: a multiple of the earlier r_1l plus
    multiples u r_ij.  For i >= 2 each u keeps the unit at i and is
    tuple-larger than m; for i = 1 the unit rule moves u's coordinate-1
    letter to j > l, and u becomes tuple-smaller than m.  Inducting over the
    generators in (i, j) order, and over each one's multipliers downwards
    (i >= 2) or upwards (i = 1), every skipped product is spanned by formed
    ones; reduced echelon rows are unique, so the rows do not change.
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
    return tuple(gens), tuple(units)


def xy_pair_relations(algebra):
    """The products x_i y_j over i, j in {2, ..., n} (i = j included)."""
    gens = []
    n = algebra.points
    for i in range(2, n + 1):
        for j in range(2, n + 1):
            gens.append(algebra.x(i) * algebra.y(j))
    return tuple(gens)


def reduced_basis_count(genus, points):
    """The number of basis words of the handle-reduced algebra."""
    if genus == 1:
        return 4**points
    return 3**points + points * (2 * genus - 1) * 3 ** (points - 1)


def reduced_monomials(algebra):
    """The basis words of the handle-reduced algebra, in tuple order.

    The ideal generated by the cross-handle products is a monomial
    ideal: it is spanned by the monomials with two or more coordinates
    carrying a special letter (``algebra.special``).  The basis words are
    those with at most one special letter, listed directly rather than
    filtered from the ambient basis; for genus 1 no letter is special and
    every word is listed.  The basis guard limits their count
    (:func:`reduced_basis_count`), checked before listing.
    """
    algebra.handle_reduced._guard_basis()
    special = algebra.special
    # Words of the current length with no special letter, and with at most one.
    none, upto1 = [()], [()]
    for _ in range(algebra.points):
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
