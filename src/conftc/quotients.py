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
of the rows, and the surface algebras enumerate each block's multipliers
from the letters, so it lists no basis; asking for every block gives the
whole span.

The three cached quotients: 'A' (mixed index >= 2 products) is a monomial
ideal, recognised rather than eliminated: it is the handle-reduced algebra
(``SurfacePowerAlgebra.handle_reduced``) modulo no rows, and the
certificate ring 'B' is that algebra modulo the x_i y_j rows, so 'A' and
'B' share one parent and neither reads the (2g+2)^n ambient basis.  The
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
from math import inf
from operator import itemgetter

from .algebra import Element, _add_terms
from .errors import basis_limit, check_term_limit
from .linalg import GradedSubspace
from .surfaces import SurfacePowerAlgebra, xy_pair_relations, totaro_relations

QUOTIENT_LABELS = ("BASE_AXIS", "HANDLE_REDUCED", "CERTIFICATE", "CUSTOM")


def ideal_span(algebra, generators, units=None):
    """The span of the basis-monomial multiples of the generators.

    Generators must be homogeneous, for degree and for the algebra's
    ``monomial_weight``.

    ``units``, when given, holds one coordinate (numbered from 1, or None)
    per generator: a coordinate where a letter times the generator equals,
    up to sign, the same letter in another coordinate times it.  The ideal
    is then spanned by the multiples whose multiplier carries the unit
    there, and only those are formed.  Units are given for the pair relations
    of ``surfaces.totaro_relations``; given every r_1l, their Koszul rule skips
    the multiples that earlier ones span.  Without units every multiplier is used.

    Nothing is eliminated here: the returned :class:`IdealSpan` eliminates
    each block of its rows the first time it is read.
    """
    if units is None:
        units = (None,) * len(generators)
    elif len(units) != len(generators):
        raise ValueError("units needs one entry per generator")
    weigh, work = algebra.monomial_weight, []
    for r, unit in zip(generators, units):
        if r.is_zero():
            continue
        if not r.is_homogeneous() or len({weigh(m) for m in r.terms}) > 1:
            raise ValueError(f"inhomogeneous generator: {r.to_text()}")
        work.append((r, unit))
    return IdealSpan(algebra, work)


class IdealSpan:
    """Reduced echelon rows of an ideal span, each block eliminated on first use.

    A block is one (degree, weight) pair of the algebra's
    ``monomial_weight``.  Products add weights, so the rows of block (D, w)
    come only from a generator r times the multipliers of block
    (D - deg r, w - weight r), and no two blocks share a column.  Each
    block is eliminated on its own, in lead order (``_eliminate``), and then
    sealed.  The reduced echelon form over a fixed column order is unique,
    so the rows depend neither on that order nor on which blocks were asked
    for first.

    ``reduce`` eliminates the blocks of its vector's monomials first, with
    multipliers from the algebra's ``_block`` if it enumerates blocks by
    rule, so a normal form lists no basis.  ``pivots``, ``rank``,
    ``total_rank`` and algebras without a rule take them from the listed
    basis, each word weighed once (``_listed``).
    """

    def __init__(self, algebra, work):
        self.algebra = algebra
        self.field = algebra.field
        self._top = algebra.top_degree
        self._space = GradedSubspace(range(self._top + 1), self.field)
        self._block = getattr(algebra, "_block", None) or self._listed_block
        self._weigh = weigh = algebra.monomial_weight
        # (degree, -weight, unit coordinate) -> [(_times of a generator, its Koszul bound)]
        self._work, self._w = {}, None  # w: the letter of the Koszul rule, if it runs
        # It needs every r_1l: the leads (least words) of the unit-1 generators are w_2, ..., w_n.
        if leads := {min(r.terms) for r, unit in work if unit == 1}:
            one, w = algebra.one, max(min(leads))
            if leads == {one[:l] + (w,) + one[l + 1 :] for l in range(1, len(one))}:
                self._w = w
        for r, unit in work:
            key, bound = (r.degree(), -weigh(next(iter(r.terms))), unit), 0
            if unit is not None and self._w is not None:  # r = r_ij with i = unit, its lead w_j
                j = next(k for k, c in enumerate(min(r.terms), 1) if c)
                bound = j if unit == 1 else inf
            self._work.setdefault(key, []).append((algebra._times(r.terms.items()), bound))
        self._built = set()  # (degree, weight) blocks eliminated
        self._groups = {}  # degree -> {weight: its listed words}
        self._whole = set() if work else set(range(self._top + 1))  # degrees fully eliminated

    def _check_degree(self, degree):
        if not 0 <= degree <= self._top:
            raise ValueError(f"degree out of range: {degree}")

    def _eliminate(self, degree, weight, block):
        """Insert every multiple that lands in block (degree, weight), multipliers from ``block``.

        Multipliers go in decreasing order, each times its group's generators:
        a large one kills the large terms, so one-term products come early.
        Each product is inserted once, reduced by the block's one-term rows
        (their columns dropped): at once if at most one term is left, as it is
        redundant or a row holding no other column, else after the others, by
        decreasing lead, its least word.  A new lead is then held by no earlier
        row, so ``insert`` rarely back-substitutes.  The Koszul rule of
        ``surfaces.totaro_relations`` skips m r when m's first w at a coordinate
        l >= 2 (``cut``) has l < r's bound: j for r_1j, inf for i >= 2, else 0.
        """
        self._built.add((degree, weight))
        single, held, w = set(), [], self._w
        for (e, less, unit), products in self._work.items():
            if degree < e:
                continue
            for m in reversed(block(degree - e, weight + less, unit)):
                cut = m.index(w, 1) + 1 if unit and w in m[1:] else inf  # its first w_l, l >= 2
                for times, bound in products:
                    if cut >= bound and (vec := times(m)):
                        for k in single.intersection(vec):
                            del vec[k]
                        if len(vec) > 1:
                            held.append(vec)
                        else:
                            single.update(vec)
                            self._space.insert(vec, degree)
        held.sort(key=min, reverse=True)
        for vec in held:
            self._space.insert(vec, degree)
        self._space.seal(degree)

    def _listed(self, degree):
        """The listed words of the degree by weight, each weighed once."""
        groups = self._groups.get(degree)
        if groups is None:
            groups = self._groups[degree] = {}
            for m in self.algebra.monomials_by_degree[degree]:
                groups.setdefault(self._weigh(m), []).append(m)
        return groups

    def _listed_block(self, degree, weight, unit=None):
        """The listed words of a block, with the unit at coordinate ``unit`` (from 1) if given."""
        one, ms = self.algebra.one, self._listed(degree).get(weight, ())
        return ms if unit is None else [m for m in ms if m[unit - 1] == one[unit - 1]]

    def _eliminate_degree(self, degree):
        self._check_degree(degree)
        if degree not in self._whole:
            for w in self._listed(degree):
                if (degree, w) not in self._built:
                    self._eliminate(degree, w, self._listed_block)
            self._whole.add(degree)

    def reduce(self, v, degree):
        """Normal form of v against the rows of the given degree (see ``GradedSubspace.reduce``)."""
        if degree not in self._whole:
            self._check_degree(degree)
            for m in v:
                if (degree, w := self._weigh(m)) not in self._built:
                    self._eliminate(degree, w, self._block)
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

    A signed pure tensor is given as a summand ``(sign, default,
    exceptions)``: the homogeneous element ``default`` in every slot but
    those of ``exceptions``, ``(k, e)`` pairs that put e in slot k (0-based,
    increasing).  A slot difference and each summand of bar(u, s) have one
    exception, so a summand is O(1) to build and to read at any arity.
    """

    def __init__(self, ideal, label="CUSTOM"):
        if label not in QUOTIENT_LABELS:
            raise ValueError(f"unknown quotient label {label!r}")
        self.parent = ideal.algebra
        self.ideal = ideal
        self.label = label
        self._std = [None] * (self.parent.top_degree + 1)  # standard monomials, on first use
        # terms of e, as a frozenset -> the entry (e, degree parity, {m: nf(m*e) as a list})
        self._entries = {}
        self._unit = self._entry(Element.unit(self.parent), {})[2]  # the unit's piece table
        # id of each term of the last streamed product -> (term, slot parities as an int)
        self._last = {}
        self._parity = {}  # monomial -> its degree parity
        self._standard = set()  # monomials whose normal form is themselves, as the unit's pieces say
        self.omega_chains = None  # the chains of ``certificates.omega_chain_elements``, on first use

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
        return self.stream_product(t, [(1, Element.unit(self.parent), ())])

    def slot_rows(self, summands, arity):
        """The summands grouped by default element, each element prepared once.

        Returns a :class:`SlotRows` list of ``(default entry, rows)`` pairs.
        An entry is ``(e, parity, piece table of e)``, one per value of e; a
        row is ``(negative, exceptions, slots, flips)``: the exceptions as
        ``(k, entry)`` pairs, their slots as a frozenset, and as an int the
        slots whose parity differs from the default's.  Every element is
        checked before any piece is read.  ``stream_product`` and
        ``mu_of_summands`` take the rows in place of the summands, so a
        factor that both read is prepared once.  Rows passed in come back
        unchanged, once checked to be this quotient's with this arity.
        """
        if type(summands) is SlotRows:
            if summands.quotient is not self or summands.arity != arity:
                raise ValueError("slot rows were prepared for another quotient or arity")
            return summands
        seen, groups = {}, {}
        for sign, default, exceptions in summands:
            d = seen.get(id(default)) or self._entry(default, seen)
            row, places, flips = [], [], 0
            for k, e in exceptions:
                if not (places[-1] if places else -1) < k < arity:
                    raise ValueError(
                        f"exception slots must increase within 0..{arity - 1}, got {k}"
                    )
                entry = seen.get(id(e)) or self._entry(e, seen)
                row.append((k, entry))
                places.append(k)
                if entry[1] != d[1]:
                    flips |= 1 << k
            group = groups.get(id(d))
            if group is None:
                group = groups[id(d)] = (d, [])
            group[1].append((sign < 0, tuple(row), frozenset(places), flips))
        rows = SlotRows(groups.values())
        rows.quotient, rows.arity = self, arity
        return rows

    def _entry(self, e, seen):
        """The entry of e, built once per value and quotient; e is checked and noted in ``seen``."""
        if e.algebra is not self.parent:
            raise ValueError("element does not belong to the parent algebra")
        value = frozenset(e.terms.items())
        entry = self._entries.get(value)
        if entry is None:
            entry = self._entries[value] = (e, e.degree() & 1 if e else 0, {})
        seen[id(e)] = entry
        return entry

    def _new_piece(self, table, m, e):
        """Store and return nf(m*e) as a list of (monomial, coefficient).

        The tables live in the quotient's entries, one per value of e, so a
        piece is computed once for all calls and all equal elements.
        """
        nf = self.normal_form(Element(self.parent, self.parent._times(e.terms.items())(m)))
        piece = table[m] = list(nf.terms.items())
        if table is self._unit and piece == [(m, self.parent.field.one)]:
            self._standard.add(m)
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

    def _parities(self, tup):
        """The degree parities of the slots of a term, slot k as bit k of an int."""
        parity, bits = self._parity, 0
        for k, m in enumerate(tup):
            bit = parity.get(m)
            if bit is None:
                bit = parity[m] = self.parent.monomial_degree(m) & 1
            bits |= bit << k
        return bits

    def _default_pieces(self, tup, e, table):
        """The pieces nf(t_k e) of every slot of a term.

        Returns ``(base, signs, zeros, multi, negative)``: for a piece +-m,
        ``base[k]`` is m and ``signs[k]`` is whether it is -m; ``zeros``
        lists the slots of zero pieces and ``multi`` the (slot, piece)
        pairs of every other piece (both None in ``base`` and ``signs``);
        ``negative`` is the parity of the -m pieces.
        """
        one = self.parent.field.one
        minus = -one
        base, signs, zeros, multi, negative = [], [], [], [], 0
        for k, m in enumerate(tup):
            piece = table.get(m)
            if piece is None:
                piece = self._new_piece(table, m, e)
            if len(piece) == 1 and piece[0][1] in (one, minus):
                flip = piece[0][1] != one
                base.append(piece[0][0])
                signs.append(flip)
                negative ^= flip
            else:
                base.append(None)
                signs.append(None)
                if piece:
                    multi.append((k, piece))
                else:
                    zeros.append(k)
        return base, signs, zeros, multi, negative

    def stream_product(self, t, summands, term_limit=None):
        """Slotwise normal form of t times a sum of signed pure tensors.

        ``summands`` holds ``(sign, default, exceptions)`` summands (see the
        class) of arity s = ``t.arity``, or is their ``slot_rows(summands,
        s)``.  For a term t_1 (x) ... (x) t_s of t with coefficient c, the
        product with one summand of slot elements e_1, ..., e_s is

            c * sign * kappa * nf(t_1 e_1) (x) ... (x) nf(t_s e_s),

        where kappa = (-1)^(sum over k of |e_k| * sum over l > k of |t_l|)
        is the Koszul sign of moving each e_k past the higher slots of t, as
        in ``TensorElement.__mul__``.  The normal form is slotwise and
        linear, so the result equals ``tensor_normal_form(t * F)`` for the
        expanded sum F, term for term, but F is never built.

        For each term and default d, the pieces nf(t_k d) and the slot
        parities are formed once; a summand then reads only its exception
        slots, which must cover every zero piece of d.  A term of standard
        monomials needs no piece for a unit default.  The terms of the last
        product returned are remembered as standard, with their parities, so
        fed back a slot difference costs O(1) per term plus the copy of its
        key.  Each piece is computed once per quotient (see ``_new_piece``).

        ``term_limit`` bounds the tensor terms held: each summand's expanded
        product, checked once per summand from its piece lengths (the first
        slot prefix past the limit is the one refused), and the accumulated
        result.  Past it, SizeGuardError.
        """
        alg = self.parent
        if t.algebra is not alg:
            raise ValueError("tensor element does not belong to the parent algebra")
        s = t.arity
        groups = self.slot_rows(summands, s)
        whole = (1 << s) - 1
        odd_slots = int.from_bytes(b"\xaa" * (s // 8 + 1), "little") & whole  # bits 1, 3, ...
        last, known, unit, out = self._last, {}, self._unit, {}
        for tup, c in t.terms.items():
            noted = last.get(id(tup))
            standard = noted is not None and noted[0] is tup
            parities = noted[1] if standard else self._parities(tup)
            for (d, odd, table), rows in groups:
                if table is unit and (standard or self._standard.issuperset(tup)):
                    base, signs, zeros, multi, negative = tup, None, (), (), 0
                else:
                    base, signs, zeros, multi, negative = self._default_pieces(tup, d, table)
                if odd:
                    # kappa of d in every slot: slot k meets the parities above it
                    negative ^= (parities & odd_slots).bit_count() & 1
                flipped = parities ^ whole if odd else parities
                for sign, exceptions, slots, flips in rows:
                    if zeros and not slots.issuperset(zeros):
                        continue
                    sign ^= negative
                    chosen = []
                    for k, (e, e_odd, e_table) in exceptions:
                        m = tup[k]
                        piece = e_table.get(m)
                        if piece is None:
                            piece = self._new_piece(e_table, m, e)
                        if not piece:
                            break
                        chosen.append((k, piece))
                        if signs is not None and signs[k]:
                            sign ^= 1
                        if odd ^ e_odd and (parities >> (k + 1)).bit_count() & 1:
                            sign ^= 1
                    else:
                        if multi:
                            chosen += [kp for kp in multi if kp[0] not in slots]
                            chosen.sort(key=itemgetter(0))
                        if term_limit is not None:
                            size = 1
                            for _k, piece in chosen:
                                size *= len(piece)
                                if size > term_limit:
                                    break
                            check_term_limit(size, term_limit, "a streamed summand product")
                        bits = flipped ^ flips
                        for key, value in _expand(base, chosen, -c if sign else c):
                            held = len(out)
                            before = out.setdefault(key, value)
                            if len(out) > held:
                                known[id(key)] = (key, bits)
                            elif total := before + value:
                                out[key] = total
                            else:
                                del out[key]
                        if term_limit is not None:
                            check_term_limit(len(out), term_limit, "the streamed product")
        self._last = known
        return t._like(out)

    def mu(self, t):
        """``t.mu()`` in the quotient: the expanded reference for ``mu_of_summands``.

        No library code calls it.
        """
        return self.normal_form(t.mu())

    def mu_of_summands(self, summands, arity):
        """``mu`` of a sum of signed pure tensors of the given arity, without expanding it.

        mu(sign * e_1 (x) ... (x) e_s) = sign * e_1 ... e_s.  Each summand
        is read, from its default and exceptions alone, as its elements
        other than the unit in slot order, each stretch of default slots as
        one run (a summand of units keeps one unit); summands that read
        alike are grouped and their signs added in the field.  Only a group with a nonzero net is multiplied, left to
        right with a normal form after every step, and stops at the first
        zero.  So the two summands of a slot difference cancel outright, and
        so do the s summands of bar(u, s) for even s.  Every element is
        checked to belong to the parent, also in a group that cancels.
        ``summands`` may also be their ``slot_rows``.
        """
        alg = self.parent
        unit = self._unit
        groups = {}  # the runs, by identity and length -> [runs, net sign as an int]
        for default, rows in self.slot_rows(summands, arity):
            stays = default[2] is not unit
            for negative, exceptions, _slots, _flips in rows:
                # runs alternates entries and their counts; pending counts defaults
                runs, pending, before = [], 0, -1
                for k, entry in exceptions:
                    pending += k - before - 1
                    before = k
                    if entry is default:
                        pending += 1
                    elif entry[2] is not unit:
                        if stays and pending:
                            runs += (default, pending)
                        runs += (entry, 1)
                        pending = 0
                if stays and arity - before - 1 + pending:
                    runs += (default, arity - before - 1 + pending)
                if not runs:
                    runs = [exceptions[0][1] if exceptions else default, 1]
                key = (*map(id, runs[::2]), *runs[1::2])
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [runs, 0]
                group[1] += -1 if negative else 1
        out = {}
        for runs, net in groups.values():
            if not (net := alg.field.from_int(net)):
                continue
            p = {alg.one: net}  # times each run's element as often as the run is long
            for (e, _odd, table), count in zip(runs[::2], runs[1::2]):
                for _ in range(count if p else 0):
                    p = self._nf_times(p.items(), e, table)
                    if not p:
                        break
            _add_terms(out, p.items())
        return Element(alg, out)

    def __repr__(self):
        return f"QuotientAlgebra({self.label}, {self.parent!r})"


def _expand(base, chosen, coefficient):
    """The keys and values of one summand product: base with each choice of the chosen pieces.

    ``chosen`` holds (slot, piece) pairs; a slot of no chosen piece keeps
    its base monomial.  A one-term piece is written into the key once.
    """
    key, spread = list(base), []
    for k, piece in chosen:
        if len(piece) == 1:
            ((key[k], c),) = piece
            coefficient = coefficient * c
        else:
            spread.append((k, piece))
    if not spread:
        return [(tuple(key), coefficient)]
    terms = []
    for choice in product(*[piece for _k, piece in spread]):
        value = coefficient
        for (k, _piece), (key[k], c) in zip(spread, choice):
            value = value * c
        terms.append((tuple(key), value))
    return terms


def build_quotient(algebra, kind):
    """Build the 'E', 'A' or 'B' quotient of a surface power algebra, uncached.

    'A' is the algebra's ``handle_reduced`` modulo no rows, 'B' the same
    algebra modulo the x_i y_j rows, and 'E' the power algebra modulo the
    diagonal-free multiples of the pair relations.  Only 'E' reads the
    ambient basis.  The basis is held to its guard by its count, listing
    nothing, before any relation is built: there are O(n^2) of them, each n
    letters long.
    """
    if kind not in ("E", "A", "B"):
        raise ValueError(f"unknown quotient kind {kind!r}")
    target = algebra if kind == "E" else algebra.handle_reduced
    target._guard_basis()
    if kind == "E":
        return QuotientAlgebra(ideal_span(target, *totaro_relations(target)), "BASE_AXIS")
    if kind == "A":
        return QuotientAlgebra(ideal_span(target, []), "HANDLE_REDUCED")
    return QuotientAlgebra(ideal_span(target, xy_pair_relations(target)), "CERTIFICATE")


# -- cached builders for the standard quotients ---------------------------
#
# The cache key holds the resolved basis guard (unbounded under
# ``allow_large``), so a changed TCCONF_MAX_BASIS takes effect on the next
# call, and a build with the guard lifted is never served to a guarded call.
# Only the last (genus, points, guard) is held, with the quotients of its
# algebra: a grid runs each one's cells in a row, and an algebra it has moved
# past is freed with its quotients.


@lru_cache(maxsize=1)
def _surface(genus, points, max_basis):
    """The algebra and a dict of its quotients by kind, filled by ``cached_quotient``."""
    return SurfacePowerAlgebra(genus, points, max_basis=max_basis), {}


def cached_surface(genus, points, allow_large=False):
    """The shared algebra of the last (genus, points, resolved guard) asked for."""
    return _surface(genus, points, inf if allow_large else basis_limit())[0]


def cached_quotient(genus, points, kind, allow_large=False):
    """The 'E', 'A' or 'B' quotient of the cached power algebra."""
    algebra, built = _surface(genus, points, inf if allow_large else basis_limit())
    if kind not in built:
        built[kind] = build_quotient(algebra, kind)
    return built[kind]
