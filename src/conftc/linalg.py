"""Per-degree row-reduced subspaces of sparse exact vectors.

A vector is a dict mapping a basis key to a nonzero scalar of the field.
Keys may be anything hashable and mutually ordered; the quotient layer
uses the monomials themselves, whose order is the output order.  A
:class:`GradedSubspace` keeps, for every degree it holds, a basis of such
vectors in reduced echelon form: each row is normalized so its pivot (the
lowest key present) has coefficient 1, pivots are distinct, and no row
has an entry at another row's pivot.
These spans back every ideal and normal-form computation in the package:
``reduce`` is the normal-form map, ``insert`` grows a span, ``rank``
counts it.

``insert`` back-substitutes the new row only into the rows that hold its
pivot, found through an index from each column to the rows that hold an
entry there: a row enters when it gains the column and leaves when the
column cancels, so the index names each such row once.  That cost follows
the order rows arrive in: a row whose pivot is below every stored pivot is
held by none (``quotients.IdealSpan`` inserts a block by decreasing lead).
``seal`` drops a degree's index once no later vector shares a column with
its rows, as when a span is built one block of columns at a time, so the
index never outlives its block.

Integer entries stay ``int``: a row whose pivot is +1 or -1 is normalized
by a sign change, and any other pivot by multiplying with
``field.inverse(pivot)``, a ``Fraction`` over the rationals.  The stored
rows hold each integral entry as ``int`` (``field.canonical``), both in a
row normalized by an inverse and in the rows that ``insert``
back-substitutes into, so only entries that are not integral are
``Fraction``.  No entry is ever a ``float``.  Every operation is exact, and
the reduced rows are the same values whichever scalar types went in.
"""

from __future__ import annotations


class GradedSubspace:
    """Row-reduced echelon bases, one per degree held."""

    def __init__(self, degrees, field):
        self.field = field
        self._rows = {d: {} for d in degrees}  # degree -> {pivot: row}
        self._holders = {}  # degree -> {column: {pivot of each row holding it: None}}

    def _check_degree(self, degree):
        if degree not in self._rows:
            raise ValueError(f"degree out of range: {degree}")

    def reduce(self, v, degree):
        """Normal form of v against the stored rows of the given degree.

        The result is the unique representative of v modulo the span with
        zero coefficient at every pivot; it is linear in v, idempotent, and
        zero exactly when v lies in the span.
        """
        self._check_degree(degree)
        rows = self._rows[degree]
        out = {i: c for i, c in v.items() if c}
        # Rows are mutually reduced, so eliminating one pivot never
        # reintroduces another; a single pass over the pivots present
        # in v suffices.  Each c*row is subtracted from out in place.
        for p in [i for i in v if i in rows]:
            c = out.get(p)
            if c:
                for i, r in rows[p].items():
                    cur = out.get(i)
                    nxt = r * (-c) if cur is None else cur - c * r
                    if nxt:
                        out[i] = nxt
                    else:
                        del out[i]
        return out

    def insert(self, v, degree):
        """Add v to the span; returns True iff it enlarged the span."""
        r = self.reduce(v, degree)
        if not r:
            return False
        pivot = min(r)
        lead = r[pivot]
        canonical = self.field.canonical
        if lead == 1:
            row = dict(r)  # a new dict: one edited in place keeps its largest table
        elif lead == -1:
            row = {i: -c for i, c in r.items()}
        else:
            inv = self.field.inverse(lead)
            row = {i: canonical(c * inv) for i, c in r.items()}
        rows, holders = self._rows[degree], self._holders.setdefault(degree, {})
        tail = [(i, c) for i, c in row.items() if i != pivot]
        for p in holders.pop(pivot, ()):
            other = rows[p]
            f = other.pop(pivot)
            for i, c in tail:
                cur = other.get(i)
                if cur is None:
                    holders.setdefault(i, {})[p] = None
                    other[i] = canonical(-f * c)
                elif nxt := cur - f * c:
                    other[i] = canonical(nxt)
                else:
                    del other[i]
                    del holders[i][p]
            rows[p] = dict(other)
        rows[pivot] = row
        for i, _c in tail:
            holders.setdefault(i, {})[pivot] = None
        return True

    def seal(self, degree):
        """Drop the degree's column index; later vectors there share no column with its rows."""
        self._holders.pop(degree, None)

    def rank(self, degree):
        self._check_degree(degree)
        return len(self._rows[degree])

    def total_rank(self):
        return sum(len(rows) for rows in self._rows.values())

    def pivots(self, degree):
        """Sorted pivot keys of the given degree."""
        self._check_degree(degree)
        return sorted(self._rows[degree])

    def degrees(self):
        return sorted(self._rows)
