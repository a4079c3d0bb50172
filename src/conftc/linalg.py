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

Within a degree the rows may be split into blocks: columns that the
caller knows no two blocks share, such as the monomials of one weight of a
grading finer than degree.  ``insert(v, degree, block)`` then
back-substitutes the new row only into the rows of its own block, which
keeps the reduced echelon form because rows of other blocks have no entry
at its pivot.  Without a block every row of the degree is one block.
Blocks speed up building a span, and let it be built one block at a time
(``quotients.IdealSpan`` does so on demand); ``reduce``, ``pivots`` and
``rank`` work by degree.

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


def vec_scaled_sub(v, c, row):
    """Return v - c*row, dropping entries that become zero."""
    out = dict(v)
    for i, r in row.items():
        cur = out.get(i)
        nxt = r * (-c) if cur is None else cur - c * r
        if nxt:
            out[i] = nxt
        else:
            out.pop(i, None)
    return out


class GradedSubspace:
    """Row-reduced echelon bases, one per degree held."""

    def __init__(self, degrees, field):
        self.field = field
        self._rows = {d: {} for d in degrees}  # degree -> {pivot: row}
        self._blocks = {d: {} for d in degrees}  # degree -> {block: [row]}

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
        # in v suffices.
        for p in [i for i in v if i in rows]:
            c = out.get(p)
            if c:
                out = vec_scaled_sub(out, c, rows[p])
        return out

    def insert(self, v, degree, block=None):
        """Add v to the span; returns True iff it enlarged the span.

        ``block`` names the columns v lives in (see the module docstring);
        vectors of different blocks of one degree must not share a column.
        """
        r = self.reduce(v, degree)
        if not r:
            return False
        pivot = min(r)
        lead = r[pivot]
        canonical = self.field.canonical
        if lead == 1:
            row = r
        elif lead == -1:
            row = {i: -c for i, c in r.items()}
        else:
            inv = self.field.inverse(lead)
            row = {i: canonical(c * inv) for i, c in r.items()}
        peers = self._blocks[degree].setdefault(block, [])
        for other in peers:
            c = other.get(pivot)
            if c:
                updated = vec_scaled_sub(other, c, row)
                other.clear()
                other.update(updated)
                for i in row:
                    v = other.get(i)
                    if v is not None:
                        other[i] = canonical(v)
        peers.append(row)
        self._rows[degree][pivot] = row
        return True

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
