"""Graded ideal spans and quotient algebras with normal forms.

Every :class:`QuotientAlgebra` is built from one :class:`IdealSpan`, which
holds its parent algebra and row-reduced rows of the ideal.  Rows are keyed
by the parent's monomials, so the pivot order is the monomials' own order.
``normal_form`` reduces by the rows, which gives the unique representative
on the standard (non-pivot) monomials; these enumerate the quotient basis.
Tensor elements reduce slotwise.

:func:`ideal_span` returns the rows of every multiple of the generators by
a basis monomial.  One multiplication pass suffices: any product of ring
elements with a generator reduces to signed monomial multiples.  The rows
are eliminated on demand, one (degree, handle weight) block at a time: a
normal form eliminates only the blocks its monomials lie in, and the
standard monomials and dimensions of a degree eliminate the blocks of its
basis monomials, which are all the blocks its rows can lie in.  A
certificate reads a few dozen normal-form pieces, so it builds a small part
of the rows; asking for every block gives the whole span.

The three cached quotients: 'A' (mixed index >= 2 products) is a monomial
ideal, recognised rather than eliminated: it is the handle-reduced algebra
(``SurfacePowerAlgebra.handle_reduced``) modulo no rows, and the
certificate ring 'B' is that algebra modulo the x_i y_j rows, so 'A' and
'B' share one parent and neither lists the (2g+2)^n ambient basis.  The
base-axis quotient 'E' (the degree-2 pair relations, not monomial) is the
power algebra modulo its rows, but only the diagonal-free multiples are
eliminated: the generator r_ij is the class of the diagonal of coordinates
i and j, so r_ij u_i = r_ij u_j for every letter u (Totaro), and any
multiple m r_ij equals a signed multiple whose multiplier carries the unit
at coordinate i.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import inf, prod

from .algebra import Element, TensorElement, _add_terms
from .errors import basis_limit, check_term_limit
from .linalg import GradedSubspace
from .surfaces import SurfacePowerAlgebra, xy_pair_relations, totaro_relations

QUOTIENT_LABELS = ("BASE_AXIS", "HANDLE_REDUCED", "CERTIFICATE", "CUSTOM")


def ideal_span(algebra, generators):
    """The span of the basis-monomial multiples of the generators.

    Generators must be homogeneous.

    A :class:`~conftc.surfaces.RelationSet` with ``unit_coordinates``
    multiplies each generator only by monomials carrying the unit at its
    unit coordinate; a plain list of generators uses every multiplier.

    Nothing is eliminated here: the returned :class:`IdealSpan` eliminates
    each block of its rows the first time it is read.  Its blocks follow
    the algebra's ``monomial_weight``, or weigh every monomial 0 (one block
    per degree) when a generator is not homogeneous for it.  The algebra's
    basis is listed now, under its guard.
    """
    gens = list(getattr(generators, "generators", generators))
    units = getattr(generators, "unit_coordinates", None) or (None,) * len(gens)
    work = []
    for r, unit in zip(gens, units):
        if r.is_zero():
            continue
        if not r.is_homogeneous():
            raise ValueError(f"inhomogeneous generator: {r.to_text()}")
        work.append((r, unit))
    return IdealSpan(algebra, work)


def _no_weight(m):
    return 0


class IdealSpan:
    """Reduced echelon rows of an ideal span, each block eliminated on first use.

    A block is one (degree, weight) pair of the algebra's
    ``monomial_weight``, or of the weight 0 for every monomial when a
    generator is not homogeneous for it.  Products add weights, so the rows
    of block (D, w) come only from a generator r times the multipliers of
    block (D - deg r, w - weight r), and no two blocks share a column.  Each
    block is eliminated on its own, from the algebra's ``_times`` of each
    generator in the same order as over the whole degree, and then sealed.
    The reduced echelon form over a fixed column order is unique, so the
    rows do not depend on which blocks were asked for first.

    The blocks of a degree are the weights of its basis monomials.
    ``reduce`` eliminates the blocks of its vector's monomials first, and
    ``pivots``, ``rank`` and ``total_rank`` those of every basis monomial of
    the degrees they read; both go through ``_ensure``.  The multipliers of
    a degree are grouped by weight, and by the unit coordinates in use, on
    first need.
    """

    def __init__(self, algebra, work):
        self.algebra = algebra
        self.field = algebra.field
        self._top = algebra.top_degree
        self._space = GradedSubspace(range(self._top + 1), self.field)
        weigh = algebra.monomial_weight
        if any(len({weigh(m) for m in r.terms}) > 1 for r, _unit in work):
            weigh = _no_weight
        self._work = [
            (algebra._times(r.terms.items()), r.degree(), weigh(next(iter(r.terms))), unit)
            for r, unit in work
        ]
        self._weigh = weigh
        self._units = list(dict.fromkeys(unit for *_, unit in self._work))
        self._basis = algebra.monomials_by_degree
        self._groups = {}  # multiplier degree -> {unit coordinate: {weight: [m]}}
        self._built = set()  # (degree, weight) blocks eliminated
        self._whole = set() if work else set(range(self._top + 1))  # degrees fully eliminated

    def _check_degree(self, degree):
        if not 0 <= degree <= self._top:
            raise ValueError(f"degree out of range: {degree}")

    def _grouped(self, d):
        """The multipliers of degree d by unit coordinate and then weight, in order."""
        groups = self._groups.get(d)
        if groups is None:
            groups = self._groups[d] = {unit: {} for unit in self._units}
            weigh, one = self._weigh, self.algebra.one
            for m in self._basis[d]:
                weight = weigh(m)
                for unit, by_weight in groups.items():
                    if unit is None or m[unit - 1] == one[unit - 1]:
                        by_weight.setdefault(weight, []).append(m)
        return groups

    def _eliminate(self, degree, weight):
        """Insert every multiple that lands in block (degree, weight)."""
        self._built.add((degree, weight))
        for times, e, rweight, unit in self._work:
            if degree < e:
                continue
            for m in self._grouped(degree - e)[unit].get(weight - rweight, ()):
                if vec := times(m):
                    self._space.insert(vec, degree)
        self._space.seal(degree)

    def _ensure(self, degree, monomials):
        """Eliminate the blocks of the degree that the monomials lie in, if not yet built."""
        weigh, built = self._weigh, self._built
        for m in monomials:
            block = (degree, weigh(m))
            if block not in built:
                self._eliminate(*block)

    def _eliminate_degree(self, degree):
        self._check_degree(degree)
        if degree not in self._whole:
            self._ensure(degree, self._basis[degree])
            self._whole.add(degree)

    def reduce(self, v, degree):
        """Normal form of v against the rows of the given degree (see ``GradedSubspace.reduce``)."""
        if degree not in self._whole:
            self._check_degree(degree)
            self._ensure(degree, v)
        return self._space.reduce(v, degree)

    def pivots(self, degree):
        """Sorted pivot monomials of the given degree."""
        self._eliminate_degree(degree)
        return self._space.pivots(degree)

    def rank(self, degree):
        self._eliminate_degree(degree)
        return self._space.rank(degree)

    def total_rank(self):
        for degree in range(self._top + 1):
            self._eliminate_degree(degree)
        return self._space.total_rank()

    def degrees(self):
        return list(range(self._top + 1))


class SlotRows(list):
    """Summands prepared by :meth:`QuotientAlgebra.slot_rows` for one quotient and arity."""

    __slots__ = ("quotient", "arity")


class QuotientAlgebra:
    """A parent algebra modulo a row-reduced ideal span.

    ``ideal`` is the :class:`IdealSpan` that :func:`ideal_span` built; the
    quotient takes its parent algebra from it.  Normal forms eliminate the
    blocks of rows they read, and the standard monomials of a degree (with
    the dimensions) are found on first use.
    """

    def __init__(self, ideal, label="CUSTOM"):
        if label not in QUOTIENT_LABELS:
            raise ValueError(f"unknown quotient label {label!r}")
        self.parent = ideal.algebra
        self.ideal = ideal
        self.label = label
        self._std = [None] * (self.parent.top_degree + 1)  # standard monomials, on first use
        self._pieces = {}  # terms of e, as a frozenset -> {m: nf(m*e) as a list}
        self._parity = {}  # monomial -> its degree parity

    def standard_monomials(self, degree):
        """The basis monomials of the degree that are no pivot, in order."""
        if not 0 <= degree < len(self._std):
            raise ValueError(f"degree out of range: {degree}")
        std = self._std[degree]
        if std is None:
            pivots = set(self.ideal.pivots(degree))
            basis = self.parent.monomials_by_degree[degree]
            std = self._std[degree] = tuple(m for m in basis if m not in pivots)
        return std

    def dimensions_by_degree(self):
        return [len(self.standard_monomials(d)) for d in range(len(self._std))]

    @property
    def dimension(self):
        return sum(self.dimensions_by_degree())

    # -- normal forms -----------------------------------------------------

    def normal_form(self, e):
        """The unique representative of e supported on standard monomials."""
        if e.algebra is not self.parent:
            raise ValueError("element does not belong to the parent algebra")
        deg = self.parent.monomial_degree
        parts = {}
        for m, c in e.terms.items():
            parts.setdefault(deg(m), {})[m] = c
        out = {}
        for d, vec in parts.items():
            out.update(self.ideal.reduce(vec, d))
        return Element(self.parent, out)

    def multiply(self, e1, e2):
        """Induced product: normal form of the parent product (called by no library code)."""
        return self.normal_form(e1 * e2)

    def tensor_normal_form(self, t):
        """Slotwise normal form of a tensor element.

        Zero exactly when the image in the tensor power of the quotient is
        zero (over a field the tensor power of a quotient is the slotwise
        quotient of the tensor power).  This is t times the unit tensor,
        streamed; the unit has degree 0, so no Koszul sign arises.
        """
        return self.stream_product(t, [(1, (Element.unit(self.parent),) * t.arity)])

    def slot_rows(self, summands, arity=None):
        """Each summand as ``(sign, [(e, parity, piece table of e), ...])``.

        Each distinct element is checked and its table found once, before
        any piece is read, and equal elements share one entry.  With
        ``arity`` every summand must have that many slots, and ``parity`` is
        the degree parity of e (else None).  ``stream_product`` and
        ``mu_of_summands`` take the returned :class:`SlotRows` in place of
        the summands, so a factor that both read is prepared once.  Rows
        passed in come back unchanged, once checked to be this quotient's
        with this arity.
        """
        if type(summands) is SlotRows:
            if summands.quotient is not self or arity not in (None, summands.arity):
                raise ValueError("slot rows were prepared for another quotient or arity")
            return summands
        seen, by_value, rows = {}, {}, SlotRows()
        for sign, elements in summands:
            if arity is not None and len(elements) != arity:
                raise ValueError(f"expected {arity} tensor slots, got {len(elements)}")
            row = []
            for e in elements:
                entry = seen.get(id(e))
                if entry is None:
                    if e.algebra is not self.parent:
                        raise ValueError("element does not belong to the parent algebra")
                    value = frozenset(e.terms.items())
                    entry = by_value.get(value)
                    if entry is None:
                        odd = None if arity is None else e.degree() & 1
                        entry = by_value[value] = (e, odd, self._pieces.setdefault(value, {}))
                    seen[id(e)] = entry
                row.append(entry)
            rows.append((sign, row))
        rows.quotient, rows.arity = self, arity
        return rows

    def _new_piece(self, table, m, e):
        """Store and return nf(m*e) as a list of (monomial, coefficient).

        The tables live in the quotient and are keyed by the value of e, so
        a piece is computed once for all calls and all equal elements.
        """
        nf = self.normal_form(Element(self.parent, self.parent._times(e.terms.items())(m)))
        piece = table[m] = list(nf.terms.items())
        return piece

    def _nf_times(self, pairs, e, table):
        """Normal form of (the sum of c*m over the pairs) times e, as a terms dict."""
        products = []
        for m, c in pairs:
            piece = table.get(m)
            if piece is None:
                piece = self._new_piece(table, m, e)
            products += [(m3, c * c3) for m3, c3 in piece]
        return _add_terms({}, products)

    def stream_product(self, t, summands, term_limit=None):
        """Slotwise normal form of t times a sum of signed pure tensors.

        ``summands`` holds pairs ``(sign, (e_1, ..., e_s))`` of an int sign
        and s homogeneous elements of the parent, or is their
        ``slot_rows(summands, s)``.  For a term
        t_1 (x) ... (x) t_s of t with coefficient c, the product with one
        summand is

            c * sign * kappa * nf(t_1 e_1) (x) ... (x) nf(t_s e_s),

        where kappa = (-1)^(sum over k of |e_k| * sum over l > k of |t_l|)
        is the Koszul sign of moving each e_k past the higher slots of t, as
        in ``TensorElement.__mul__``.  The normal form is slotwise and
        linear, so the result equals ``tensor_normal_form(t * F)`` for the
        expanded sum F, term for term, but F is never built.  Each piece
        nf(t_k e_k) is computed once per quotient (see ``_new_piece``), and
        a summand is skipped as soon as one of its pieces is zero.  The
        degree parities of the slots of t are read from a per-quotient cache.

        ``term_limit`` bounds the tensor terms held: each summand's expanded
        product, checked once per summand from its piece lengths (the first
        slot prefix past the limit is the one refused), and the accumulated
        result.  Past it, SizeGuardError.
        """
        alg = self.parent
        if t.algebra is not alg:
            raise ValueError("tensor element does not belong to the parent algebra")
        s = t.arity
        rows = [(sign < 0, row) for sign, row in self.slot_rows(summands, s)]
        deg, parity = alg.monomial_degree, self._parity
        out = {}
        for tup, c in t.terms.items():
            # above[k]: parity of the total degree of the slots after k
            above = [0] * s
            suffix = 0
            for k in range(s - 1, 0, -1):
                m = tup[k]
                bit = parity.get(m)
                if bit is None:
                    bit = parity[m] = deg(m) & 1
                suffix ^= bit
                above[k - 1] = suffix
            for negative, row in rows:
                pieces = []
                for k, (e, odd, table) in enumerate(row):
                    m = tup[k]
                    piece = table.get(m)
                    if piece is None:
                        piece = self._new_piece(table, m, e)
                    if not piece:
                        break
                    pieces.append(piece)
                    negative ^= odd & above[k]
                else:
                    if term_limit is not None:
                        size = 1
                        for piece in pieces:
                            size *= len(piece)
                            if size > term_limit:
                                break
                        check_term_limit(size, term_limit, "a streamed summand product")
                    coefficient = -c if negative else c
                    for choice in product(*pieces):
                        monomials, coefficients = zip(*choice)
                        _add_terms(out, [(monomials, prod(coefficients, start=coefficient))])
                    check_term_limit(len(out), term_limit, "the streamed product")
        return TensorElement(alg, s, out)

    def mu(self, t):
        """``t.mu()`` in the quotient: the expanded reference for ``mu_of_summands``.

        No library code calls it.
        """
        return self.normal_form(t.mu())

    def mu_of_summands(self, summands):
        """``mu`` of a sum of signed pure tensors, without expanding it.

        mu(sign * e_1 (x) ... (x) e_s) = sign * e_1 ... e_s.  Slots holding
        exactly the unit are dropped (a summand of units keeps one), the
        summands are grouped by the elements that remain, and each group's
        signs are added in the field.  Only a group with a nonzero net is
        multiplied, left to right with a normal form after every step, and
        stops at the first zero.  So the two summands of a slot difference
        cancel outright, and so do the s summands of bar(u, s) for even s.
        Every element is checked to belong to the parent, also in a group
        that cancels.  ``summands`` may also be their ``slot_rows``.
        """
        alg = self.parent
        field = alg.field
        rows = self.slot_rows(summands)
        unit = self._pieces.get(frozenset([(alg.one, field.one)]))
        zero, plus, minus = field.zero, field.from_int(1), field.from_int(-1)
        groups = {}  # the remaining entries, by identity -> [entries, net sign]
        for sign, row in rows:
            rest = [entry for entry in row if entry[2] is not unit] or row[:1]
            group = groups.setdefault(tuple(map(id, rest)), [rest, zero])
            group[1] += minus if sign < 0 else plus
        out = {}
        for rest, net in groups.values():
            p = {alg.one: net} if net else {}
            for e, _odd, table in rest:
                if not p:
                    break
                p = self._nf_times(p.items(), e, table)
            _add_terms(out, p.items())
        return Element(alg, out)

    def __repr__(self):
        return f"QuotientAlgebra({self.label}, {self.parent!r})"


def build_quotient(algebra, kind):
    """Build the 'E', 'A' or 'B' quotient of a surface power algebra, uncached.

    'A' is the algebra's ``handle_reduced`` modulo no rows, 'B' the same
    algebra modulo the x_i y_j rows, and 'E' the power algebra modulo the
    diagonal-free multiples of the pair relations.  Only 'E' lists the
    ambient basis.  The basis is listed, under its guard, before any
    relation is built: there are O(n^2) of them, each n letters long.
    """
    if kind not in ("E", "A", "B"):
        raise ValueError(f"unknown quotient kind {kind!r}")
    target = algebra if kind == "E" else algebra.handle_reduced
    target.monomials_by_degree
    if kind == "E":
        return QuotientAlgebra(ideal_span(target, totaro_relations(target)), "BASE_AXIS")
    if kind == "A":
        return QuotientAlgebra(ideal_span(target, []), "HANDLE_REDUCED")
    return QuotientAlgebra(ideal_span(target, xy_pair_relations(target)), "CERTIFICATE")


# -- cached builders for the standard quotients ---------------------------
#
# The algebra cache key holds the resolved basis guard (unbounded under
# ``allow_large``), and the quotient cache key holds the algebra, so a
# changed TCCONF_MAX_BASIS takes effect on the next call, and a build with
# the guard lifted is never served to a guarded call.


@lru_cache(maxsize=None)
def _surface(genus, points, max_basis):
    return SurfacePowerAlgebra(genus, points, max_basis=max_basis)


def cached_surface(genus, points, allow_large=False):
    """One shared algebra instance per (genus, points, resolved guard)."""
    return _surface(genus, points, inf if allow_large else basis_limit())


@lru_cache(maxsize=None)
def _quotient(algebra, kind):
    return build_quotient(algebra, kind)


def cached_quotient(genus, points, kind, allow_large=False):
    """The 'E', 'A' or 'B' quotient of the cached power algebra."""
    return _quotient(cached_surface(genus, points, allow_large), kind)
