import random
import sys
from fractions import Fraction

import pytest

from conftc.fields import GF2, Bit, RATIONALS
from conftc.linalg import GradedSubspace
from conftc.quotients import build_quotient, cached_surface
from conftc.surfaces import SurfacePowerAlgebra

from oracles import dense_membership, dense_rank


def F(v):
    return Fraction(v)


def vec(*pairs):
    return {i: Fraction(c) for i, c in pairs}


def space(degrees=(0,), field=RATIONALS):
    return GradedSubspace(degrees, field)


def test_reduce_empty_space_is_identity():
    s = space()
    v = vec((0, 1), (3, -2))
    assert s.reduce(v, 0) == v


def test_reduce_member_is_zero():
    s = space()
    v = vec((1, 2), (4, 1))
    s.insert(v, 0)
    assert s.reduce(v, 0) == {}


def test_reduce_against_binomial_row():
    # Frozen from eliminating the 1x2 system spanned by e0 + e1:
    # e0 reduces to e0 - (e0 + e1) = -e1.
    s = space()
    s.insert(vec((0, 1), (1, 1)), 0)
    assert s.reduce(vec((0, 1)), 0) == {1: F(-1)}


def test_insert_is_idempotent():
    s = space()
    v = vec((2, 3), (5, -1))
    assert s.insert(v, 0) is True
    assert s.insert(v, 0) is False


def test_insert_zero_vector():
    s = space()
    assert s.insert({}, 0) is False
    assert s.rank(0) == 0


def test_rank_basic():
    s = space()
    assert s.rank(0) == 0
    s.insert(vec((0, 1)), 0)
    s.insert(vec((1, 1)), 0)
    assert s.rank(0) == 2
    assert s.pivots(0) == [0, 1]


def test_rank_matches_dense_oracle_on_random_inserts():
    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(2, 12)
        s = space()
        vectors = []
        for _ in range(rng.randint(1, 2 * dim)):
            v = {
                i: Fraction(rng.randint(-3, 3))
                for i in rng.sample(range(dim), rng.randint(1, dim))
            }
            v = {i: c for i, c in v.items() if c}
            vectors.append(v)
            s.insert(v, 0)
        assert s.rank(0) == dense_rank(vectors)


def test_membership_agrees_with_dense_oracle():
    rng = random.Random(21)
    for _ in range(10):
        dim = rng.randint(8, 64)
        s = space()
        vectors = []
        for _ in range(dim // 2):
            v = {
                i: Fraction(rng.randint(-2, 2))
                for i in rng.sample(range(dim), rng.randint(1, 6))
            }
            v = {i: c for i, c in v.items() if c}
            if v:
                vectors.append(v)
                s.insert(v, 0)
        for _ in range(10):
            if rng.random() < 0.5 and vectors:
                # random span element
                cand = {}
                for v in rng.sample(vectors, min(3, len(vectors))):
                    c = Fraction(rng.randint(-2, 2))
                    for i, x in v.items():
                        cand[i] = cand.get(i, Fraction(0)) + c * x
                cand = {i: c for i, c in cand.items() if c}
            else:
                cand = {
                    i: Fraction(rng.randint(-2, 2))
                    for i in rng.sample(range(dim), rng.randint(1, 6))
                }
                cand = {i: c for i, c in cand.items() if c}
            assert (s.reduce(cand, 0) == {}) == dense_membership(vectors, cand)


def test_reduce_is_linear():
    rng = random.Random(3)
    for field in (RATIONALS, GF2):
        s = space(field=field)
        for _ in range(6):
            v = {
                i: field.from_int(rng.randint(1, 5))
                for i in rng.sample(range(10), rng.randint(1, 5))
            }
            s.insert(v, 0)
        for _ in range(20):
            v = {i: field.from_int(rng.randint(-3, 3)) for i in rng.sample(range(10), 4)}
            w = {i: field.from_int(rng.randint(-3, 3)) for i in rng.sample(range(10), 4)}
            v = {i: c for i, c in v.items() if c}
            w = {i: c for i, c in w.items() if c}
            c = field.from_int(rng.choice([-2, -1, 1, 2, 3]))
            combo = dict(w)
            for i, x in v.items():
                combo[i] = combo.get(i, field.zero) + c * x
            combo = {i: x for i, x in combo.items() if x}
            lhs = s.reduce(combo, 0)
            rv, rw = s.reduce(v, 0), s.reduce(w, 0)
            rhs = dict(rw)
            for i, x in rv.items():
                rhs[i] = rhs.get(i, field.zero) + c * x
            rhs = {i: x for i, x in rhs.items() if x}
            assert lhs == rhs


def test_idempotence_of_reduce():
    s = space()
    s.insert(vec((0, 2), (1, 1), (4, -1)), 0)
    s.insert(vec((1, 1), (2, 1)), 0)
    v = vec((0, 1), (1, 1), (2, 1), (3, 1))
    r = s.reduce(v, 0)
    assert s.reduce(r, 0) == r


def test_degree_out_of_range():
    s = space(degrees=(0, 1))
    with pytest.raises(ValueError, match="degree out of range"):
        s.reduce(vec((0, 1)), 5)
    with pytest.raises(ValueError, match="degree out of range"):
        s.rank(-1)


def test_gf2_subspace():
    s = space(field=GF2)
    one = GF2.one
    s.insert({0: one, 1: one}, 0)
    s.insert({1: one, 2: one}, 0)
    assert s.rank(0) == 2
    # e0 + e2 is the sum of the two rows
    assert s.reduce({0: one, 2: one}, 0) == {}
    assert s.insert({0: one, 2: one}, 0) is False


def rref_rows(s, degree, one=None):
    """The reduced row of each pivot p, read through reduce: e_p - reduce(e_p).

    An int ``one`` keeps each entry's stored type (int or Fraction).
    """
    one = s.field.one if one is None else one
    rows = {}
    for p in s.pivots(degree):
        row = {i: -c for i, c in s.reduce({p: one}, degree).items()}
        row[p] = one
        rows[p] = row
    return rows


def test_base_axis_rows_are_exact_integers():
    q = build_quotient(cached_surface(3, 4), "E")
    entries = [
        c
        for d in q.ideal.degrees()
        for row in rref_rows(q.ideal, d, one=1).values()
        for c in row.values()
    ]
    assert len(entries) > 1806
    assert all(type(c) in (int, Fraction) for c in entries)
    assert all(c == int(c) and abs(c) <= 2 for c in entries)


def test_pivot_two_gives_the_fraction_row():
    ints, fracs = space(), space()
    for s, conv in ((ints, int), (fracs, Fraction)):
        s.insert({0: conv(1), 3: conv(1)}, 0)
        # reduces to 2 e1 - e3 - 3 e5 against the first row: pivot 2
        s.insert({0: conv(1), 1: conv(2), 5: conv(-3)}, 0)
    assert ints.pivots(0) == fracs.pivots(0) == [0, 1]
    rows = rref_rows(ints, 0)
    assert rows == rref_rows(fracs, 0)
    assert rows[1] == {1: 1, 3: Fraction(-1, 2), 5: Fraction(-3, 2)}
    assert all(type(c) is Fraction for c in ints.reduce({1: 1}, 0).values())


def test_pivot_two_with_even_entries_gives_an_int_row():
    s = space()
    s.insert({0: 1, 1: 1, 3: 1}, 0)
    # pivot 2 with even entries; the first row is back-substituted
    s.insert({1: 2, 2: 4, 3: -6}, 0)
    rows = rref_rows(s, 0, one=1)
    assert rows == {0: {0: 1, 2: -2, 3: 4}, 1: {1: 1, 2: 2, 3: -3}}
    assert all(type(c) is int for row in rows.values() for c in row.values())
    # Fraction input with integral values is stored the same way
    t = space()
    t.insert({1: Fraction(2), 2: Fraction(4)}, 0)
    assert all(type(c) is int for c in rref_rows(t, 0, one=1)[1].values())


def test_unit_pivots_keep_integer_rows():
    s = space()
    s.insert({2: -1, 4: 3, 6: -2}, 0)
    s.insert({4: 1, 7: 1}, 0)
    rows = rref_rows(s, 0, one=1)
    assert rows == {2: {2: 1, 6: 2, 7: 3}, 4: {4: 1, 7: 1}}
    assert all(type(c) is int for row in rows.values() for c in row.values())


def test_gf2_insert_and_reduce():
    s = space(field=GF2)
    one = GF2.one
    assert s.insert({0: one, 1: one, 3: one}, 0)
    assert s.insert({1: one, 2: one}, 0)
    assert not s.insert({0: one, 2: one, 3: one}, 0)
    assert s.reduce({0: one}, 0) == {2: one, 3: one}
    assert s.reduce({1: one, 4: one}, 0) == {2: one, 4: one}
    assert all(type(c) is Bit for row in rref_rows(s, 0).values() for c in row.values())


def naive_gauss_jordan(vectors, field):
    """Whether each vector enlarged the span, and the reduced rows {pivot: row}.

    Every stored row is scanned at each step: the new vector is reduced by
    all of them, and the new row, scaled by the inverse of its pivot (the
    least column), is subtracted from every row that holds its pivot.
    """

    def minus(v, c, row):
        out = {i: v.get(i, field.zero) - c * row.get(i, field.zero) for i in {*v, *row}}
        return {i: x for i, x in out.items() if x}

    rows, enlarged = {}, []
    for v in vectors:
        r = {i: c for i, c in v.items() if c}
        for p, row in rows.items():
            if r.get(p):
                r = minus(r, r[p], row)
        enlarged.append(bool(r))
        if r:
            p = min(r)
            inv = field.inverse(r[p])
            row = {i: c * inv for i, c in r.items()}
            for q, other in rows.items():
                if other.get(p):
                    rows[q] = minus(other, other[p], row)
            rows[p] = row
    return enlarged, rows


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=["Q", "GF2"])
def test_column_indexed_insert_matches_naive_gauss_jordan(field):
    # Entries +-1, +-2 and +-3 give pivots that are not units over Q, so
    # Fraction rows occur.  The second space takes the columns of each
    # parity as one block and seals it before the next.
    rng = random.Random(5)
    scalars = [field.from_int(c) for c in (-3, -2, -1, 1, 2, 3)]
    scalars = [c for c in scalars if c]
    fractions = 0
    for _ in range(40):
        dim = rng.randint(4, 24)
        blocks = [[], []]
        for _ in range(rng.randint(1, 2 * dim)):
            parity = rng.randint(0, 1)
            cols = [i for i in range(dim) if i % 2 == parity]
            picked = rng.sample(cols, rng.randint(1, min(5, len(cols))))
            blocks[parity].append({i: rng.choice(scalars) for i in picked})
        vectors = blocks[0] + blocks[1]
        enlarged, rows = naive_gauss_jordan(vectors, field)
        whole, sealed = space(field=field), space(field=field)
        assert [whole.insert(v, 0) for v in vectors] == enlarged
        for block in blocks:
            assert [sealed.insert(v, 0) for v in block] == enlarged[: len(block)]
            enlarged = enlarged[len(block):]
            sealed.seal(0)
        for s in (whole, sealed):
            assert s.pivots(0) == sorted(rows)
            assert rref_rows(s, 0) == rows
        fractions += any(type(c) is Fraction for row in rows.values() for c in row.values())
    assert field is GF2 or fractions > 10


def test_stored_rows_hold_no_table_left_by_edits():
    # Rows edited in place (reduced, then back-substituted into) are stored
    # as new dicts, so none keeps the larger table its edits left.
    space = build_quotient(cached_surface(2, 4), "E").ideal
    space.total_rank()
    rows = [row for d in space.degrees() for row in space._space._rows[d].values()]
    assert len(rows) == 725
    assert all(sys.getsizeof(row) == sys.getsizeof(dict(row)) for row in rows)


def test_column_index_names_each_holding_row_once(monkeypatch):
    # At every seal each index entry names a row that still holds the column,
    # once: a row leaves a column's entry when the column cancels in it.
    seals = []
    seal = GradedSubspace.seal

    def checked(self, degree):
        rows = self._rows[degree]
        for column, holders in self._holders.get(degree, {}).items():
            assert len(holders) == len(set(holders))
            assert all(column in rows[p] for p in holders)
        seals.append(sum(map(len, self._holders.get(degree, {}).values())))
        return seal(self, degree)

    monkeypatch.setattr(GradedSubspace, "seal", checked)
    for kind in "EB":
        build_quotient(SurfacePowerAlgebra(2, 4), kind).dimension
    assert len(seals) > 100 and max(seals) > 100


def test_rational_scalars_are_int_unless_a_fraction_is_needed():
    assert type(RATIONALS.from_int(3)) is int and RATIONALS.one == 1
    assert type(RATIONALS.canonical(Fraction(4, 2))) is int
    assert type(RATIONALS.canonical(Fraction(1, 3))) is Fraction
    assert RATIONALS.inverse(-3) == Fraction(-1, 3)
    assert type(RATIONALS.inverse(1)) is Fraction
    assert GF2.inverse(GF2.one) == GF2.one
    with pytest.raises(ZeroDivisionError):
        GF2.inverse(GF2.zero)


def test_pivot_three_stores_exact_fractions():
    s = space()
    assert s.insert({0: 3, 2: 1, 5: -2}, 0)
    assert s.insert({1: -3, 2: 6}, 0)
    rows = rref_rows(s, 0, one=1)
    assert rows == {0: {0: 1, 2: Fraction(1, 3), 5: Fraction(-2, 3)}, 1: {1: 1, 2: -2}}
    # 0.5 == Fraction(1, 2), so equality alone would not catch a float
    entries = [c for row in rows.values() for c in row.values()]
    entries += s.reduce({0: 1, 1: 2, 3: 1}, 0).values()
    assert all(type(c) in (int, Fraction) for c in entries)


def test_rational_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randint(1, 50)
        b = rng.randint(1, 50)
        assert Fraction(a, b) * Fraction(b, a) == 1


def test_rationals_stored_in_lowest_terms():
    assert Fraction(2, 4) == Fraction(1, 2)
    f = Fraction(-3, -6)
    assert (f.numerator, f.denominator) == (1, 2)
    g = Fraction(3, -6)
    assert g.denominator > 0 and g.numerator == -1
