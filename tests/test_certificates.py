import hashlib
import io
import json
from fractions import Fraction

import pytest

from conftc import certificates, cli, quotients, surfaces
from conftc.algebra import Element, TensorElement, TruncatedPolynomialAlgebra
from conftc.certificates import (
    Certificate,
    LemmaCheck,
    LemmaReport,
    TcRecord,
    ZeroDivisorFactor,
    bar_summands,
    certificate_factors,
    evaluate_certificate,
    expected_survivors,
    omega_chain_elements,
    rp3_algebra,
    rp3_product,
    rp3_zcl_check,
    slot_difference_summands,
    tc_rows,
    tc_upper_bound,
    tc_value,
    verify_lemma_identities,
    zcl_search,
)
from conftc.errors import SizeGuardError, VerificationError
from conftc.fields import GF2, RATIONALS
from conftc.quotients import cached_quotient, cached_surface
from conftc.surfaces import SurfacePowerAlgebra, totaro_relations, xy_pair_relations

from oracles import (
    binomial_mod2_truncated_power,
    dense_rank,
    dense_solve_in_span,
    expanded,
    iterated_bar,
    multiplied,
    omission_patterns,
    ring_agreement,
    slot_difference,
    slot_embed,
    slots,
    unshared_lemma_identities,
)
from test_quotients import count_inserts, count_mono_mul, count_rewritten_rows


def chain_product(alg, indices, gen):
    e = Element.unit(alg)
    for i in sorted(indices):
        e = e * gen(i)
    return e


def bar(u, s):
    return expanded(bar_summands(u, s), s)


def factor_product(alg, s, kind):
    """The certificate factors of one kind, multiplied out in order."""
    return multiplied(alg, s, [f.tensor for f in certificate_factors(alg, s) if f.kind == kind])


# -- factor shapes -----------------------------------------------------------


def test_bar_two_stages():
    alg = cached_surface(1, 2)
    u = alg.x(2)
    assert bar(u, 2) == slot_embed(u, 2, 1) - slot_embed(u, 2, 2)


def test_bar_three_stages_term_count():
    # odd-degree input: one term per omitted slot
    alg = cached_surface(1, 1)
    t = bar(alg.a(1), 3)
    assert len(t.terms) == 3
    unit = alg.one
    a = next(iter(alg.a(1).terms))
    expected_support = {
        (unit, a, a),
        (a, unit, a),
        (a, a, unit),
    }
    assert set(t.terms) == expected_support
    assert all(c == 1 or c == -1 for c in t.terms.values())


def test_bar_rejects_degree_zero():
    alg = cached_surface(1, 1)
    with pytest.raises(ValueError, match="positive degree"):
        bar(Element.unit(alg), 2)
    with pytest.raises(ValueError, match="positive degree"):
        bar(alg.a(1) + alg.omega(1), 2)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bar_matches_iterated_product(g, n):
    # x_i and y_i have at most two terms in every genus, so genera 3 and 4
    # repeat the sign pattern of 1 and 2; they are multiplied out at small s
    alg = cached_surface(g, n)
    for i in range(1, n + 1):
        for s in range(2, 11):
            expected_terms = s if i == 1 else s * 2 ** (s - 1)
            for u in (alg.x(i), alg.y(i)):
                t = bar(u, s)
                assert len(t.terms) == expected_terms
                if g <= 2 or s <= 5:
                    assert t == iterated_bar(u, s), (i, s, u)


def test_bar_holds_where_the_odd_square_is_zero_outside_surfaces():
    # t^2 = 0 here, so the closed form holds and matches the product
    t = Element.monomial(TruncatedPolynomialAlgebra(RATIONALS, 2), 1)
    for s in (2, 3, 4, 5):
        assert bar(t, s) == iterated_bar(t, s)


def test_bar_refuses_where_the_closed_form_fails():
    alg = cached_surface(2, 2)
    with pytest.raises(ValueError, match="odd degree"):
        bar(alg.omega(1), 3)
    with pytest.raises(ValueError, match="stages"):
        bar(alg.x(1), 1)
    t = Element.monomial(TruncatedPolynomialAlgebra(RATIONALS, 3), 1)
    # the product keeps t^2 (x) 1 (x) 1, which the closed form drops
    assert (2, 0, 0) in iterated_bar(t, 3).terms
    with pytest.raises(ValueError, match="square is zero"):
        bar(t, 3)


def eliminated_quotient(alg, ring="B"):
    """A newly built quotient with every block of its rows eliminated.

    Its piece table starts empty, and later counts hold the product's work
    only, not the elimination's.
    """
    q = quotients.build_quotient(alg, ring)
    q.ideal.total_rank()
    return q


def fresh_quotient(monkeypatch, g, n, ring="B", eliminate=True):
    """Have the certificate code use a newly built quotient for this cell.

    Its piece table starts empty and, with ``eliminate``, its rows are all
    eliminated, so counted work does not depend on what earlier tests
    computed in the cached quotient.
    """
    alg = cached_surface(g, n)
    q = eliminated_quotient(alg, ring) if eliminate else quotients.build_quotient(alg, ring)
    cached = certificates.cached_quotient

    def cell_quotient(genus, points, kind, allow_large=False):
        if (genus, points, kind) == (g, n, ring):
            return q
        return cached(genus, points, kind, allow_large)

    monkeypatch.setattr(certificates, "cached_quotient", cell_quotient)
    return q


def test_bar_work_counts(monkeypatch):
    alg = cached_surface(2, 3)
    fresh_quotient(monkeypatch, 2, 3)
    calls = count_mono_mul(monkeypatch)
    bar(alg.x(2), 10)
    # only the check that x_2 squares to zero multiplies monomials
    assert calls[0] <= len(alg.x(2).terms) ** 2
    calls[0] = 0
    evaluate_certificate(2, 3, 10)
    # 73 calls, each piece once; 528 with a piece table per call, 52,532
    # multiplying the accumulator by the expanded factors, and 316,311
    # multiplying out each bar before that
    assert calls[0] <= 80


def test_a_certificate_eliminates_part_of_b(monkeypatch):
    q = fresh_quotient(monkeypatch, 2, 5, eliminate=False)
    inserts = count_inserts(monkeypatch)
    evaluate_certificate(2, 5, 3)
    read = inserts[0]
    inserts[0] = 0
    # the dimension eliminates the other blocks; 5,184 inserts build all of B
    assert q.dimension == 434
    assert 0 < 2 * read < read + inserts[0] == 5184


@pytest.mark.parametrize("ring,most", [("E", 1400), ("B", 0)])
def test_a_certificate_rarely_back_substitutes(monkeypatch, ring, most):
    # Blocks are eliminated in decreasing lead order, so a new pivot is rarely
    # held by an earlier row.  Inserted in listing order, the blocks of this
    # certificate rewrote 4,049 rows in E and 286 in B.
    fresh_quotient(monkeypatch, 2, 5, ring, eliminate=False)
    rewritten = count_rewritten_rows(monkeypatch)
    inserts = count_inserts(monkeypatch)
    evaluate_certificate(2, 5, 3, ring=ring)
    assert inserts[0] == {"E": 2376, "B": 1984}[ring]
    assert rewritten[0] <= most


def test_each_factor_is_prepared_once_and_its_rows_serve_both_products(monkeypatch):
    q = fresh_quotient(monkeypatch, 2, 3)
    prepared = []
    slot_rows = quotients.QuotientAlgebra.slot_rows

    def counting(self, summands, arity=None):
        if type(summands) is not quotients.SlotRows:
            prepared.append(arity)
        return slot_rows(self, summands, arity)

    monkeypatch.setattr(quotients.QuotientAlgebra, "slot_rows", counting)
    evaluate_certificate(2, 3, 4)
    assert prepared == [4] * len(certificate_factors(q.parent, 4))
    alg = q.parent
    summands = bar_summands(alg.x(2), 3)
    rows = q.slot_rows(summands, 3)
    t = TensorElement.of_elements([alg.y(1), alg.x(3), alg.a(1, 2)])
    assert q.stream_product(t, rows) == q.stream_product(t, summands)
    assert q.mu_of_summands(rows, 3) == q.mu_of_summands(summands, 3)
    with pytest.raises(ValueError, match="another quotient or arity"):
        q.stream_product(TensorElement.unit(alg, 2), rows)
    with pytest.raises(ValueError, match="another quotient or arity"):
        q.mu_of_summands(rows, 4)
    with pytest.raises(ValueError, match="another quotient or arity"):
        cached_quotient(2, 3, "E").mu_of_summands(rows, 3)


def test_a_second_evaluation_reuses_every_piece(monkeypatch):
    q = fresh_quotient(monkeypatch, 2, 3)
    evaluate_certificate(2, 3, 10)
    calls = count_mono_mul(monkeypatch)
    # outside the quotient: the bar squares and the expected survivor chains
    certificate_factors(q.parent, 10)
    expected_survivors(q, 10)
    outside = calls[0]
    calls[0] = 0
    evaluate_certificate(2, 3, 10)
    assert calls[0] == outside


def test_cells_of_one_algebra_share_letters_bar_checks_and_chains(monkeypatch):
    # Once one cell of (g, n) = (2, 3) is evaluated, the factors and the
    # expected survivors of another stage count build no letter (no
    # monomial but the unit), multiply no monomials for the bar checks and
    # form no chain.
    evaluate_certificate(2, 3, 3)
    q = cached_quotient(2, 3, "B")
    calls, letters = count_mono_mul(monkeypatch), []
    monomial = Element.monomial.__func__

    def counting(cls, algebra, m, coeff=1):
        if m != algebra.one:
            letters.append(m)
        return monomial(cls, algebra, m, coeff)

    monkeypatch.setattr(Element, "monomial", classmethod(counting))
    first = certificate_factors(q.parent, 7)
    survivors = expected_survivors(q, 7)
    assert (calls[0], letters) == (0, [])
    assert [f.label for f in first][:3] == ["c", "d", "y1,2"] and len(survivors) == 2
    # an equal element built anew is not checked again either
    bar_summands(q.parent.a(2) - q.parent.a(1), 4)
    assert calls[0] == 0


def test_cancelling_zero_divisor_checks_multiply_nothing(monkeypatch):
    # Once the unit slots are dropped, the two summands of a slot difference,
    # and the s summands of bar(u, s) at even s, are one group whose signs
    # add to zero.  At odd s that group is left with a net sign, and its
    # product stops at u*u = 0: one piece nf(u) and one nf(m*u) per term m of u.
    alg = cached_surface(2, 3)
    u = alg.handle_reduced.x(2)  # B's parent
    checks = {
        s: [slot_difference_summands(u, s, slot) for slot in range(2, s + 1)]
        + [bar_summands(u, s)]
        for s in (2, 3, 4, 9, 10)
    }
    fresh = {s: eliminated_quotient(alg) for s in checks}
    mono_mul = count_mono_mul(monkeypatch)
    normal_forms = [0]
    normal_form = quotients.QuotientAlgebra.normal_form

    def counting(self, e):
        normal_forms[0] += 1
        return normal_form(self, e)

    monkeypatch.setattr(quotients.QuotientAlgebra, "normal_form", counting)
    for s, summand_lists in checks.items():
        mono_mul[0] = normal_forms[0] = 0
        for summands in summand_lists:
            assert fresh[s].mu_of_summands(summands, s).is_zero()
        if s % 2 == 0:
            assert (mono_mul[0], normal_forms[0]) == (0, 0), s
        else:
            assert normal_forms[0] == 1 + len(u.terms), s
            assert mono_mul[0] == len(u.terms) + len(u.terms) ** 2, s


@pytest.mark.parametrize("ring", ["B", "E"])
@pytest.mark.parametrize("g,n,s", [(2, 3, 5), (1, 2, 4), (3, 2, 3)])
def test_certificate_results_hold_int_coefficients(ring, g, n, s):
    result = evaluate_certificate(g, n, s, ring=ring).result
    assert result and all(type(c) is int for c in result.terms.values())


def test_bar_products_are_zero_divisors():
    alg = cached_surface(1, 2)
    for s in (2, 3):
        assert bar(alg.x(2), s).mu().is_zero()
        assert factor_product(alg, s, "BAR").mu().is_zero()


def _pattern_tensor(alg, pattern, gen):
    return TensorElement.of_elements(
        [chain_product(alg, J, gen) for J in pattern]
    )


def _solve_patterns(alg, patterns, target):
    vectors = [
        {t: Fraction(c) for t, c in _pattern_tensor(alg, p, alg.x).terms.items()}
        for p in patterns
    ]
    tgt = {t: Fraction(c) for t, c in target.terms.items()}
    assert dense_rank(vectors) == len(vectors)  # patterns are independent
    return dense_solve_in_span(vectors, tgt)


@pytest.mark.parametrize("n,s", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_bar_product_support_matches_omission_patterns(n, s):
    alg = cached_surface(1, n)
    target = factor_product(alg, s, "BAR")
    patterns = sorted(omission_patterns(n, s), key=lambda p: [sorted(J) for J in p])
    assert len(patterns) == s**n
    coeffs = _solve_patterns(alg, patterns, target)
    assert coeffs is not None
    assert all(c == 1 or c == -1 for c in coeffs)


def test_bar_product_hand_enumerated_support_two_points():
    # n = s = 2: the four patterns (x1x2, 1), (x1, x2), (x2, x1), (1, x1x2)
    expected = {
        (frozenset({1, 2}), frozenset()),
        (frozenset({1}), frozenset({2})),
        (frozenset({2}), frozenset({1})),
        (frozenset(), frozenset({1, 2})),
    }
    assert omission_patterns(2, 2) == expected


def test_tilde_product_shapes():
    for (n, s) in ((1, 2), (2, 2), (2, 3), (3, 2)):
        alg = cached_surface(1, n)
        t = factor_product(alg, s, "TILDE")
        # middle slots carry no letters
        for tup in t.terms:
            for mid in tup[1:-1]:
                assert mid == alg.one
        # one pattern per subset J, coefficients +-1
        subsets = []
        seen = set()
        for bits in range(2**n):
            J = frozenset(i + 1 for i in range(n) if bits >> i & 1)
            if J not in seen:
                seen.add(J)
                subsets.append(J)
        vectors = []
        for J in subsets:
            Jc = frozenset(range(1, n + 1)) - J
            slots = [chain_product(alg, Jc, alg.y)]
            slots += [Element.unit(alg)] * (s - 2)
            slots += [chain_product(alg, J, alg.y)]
            vectors.append(
                {tt: Fraction(c) for tt, c in TensorElement.of_elements(slots).terms.items()}
            )
        coeffs = dense_solve_in_span(
            vectors, {tt: Fraction(c) for tt, c in t.terms.items()}
        )
        assert coeffs is not None
        assert len(coeffs) == 2**n
        assert all(c == 1 or c == -1 for c in coeffs)


def test_tilde_single_point_two_stages():
    alg = cached_surface(1, 1)
    t = factor_product(alg, 2, "TILDE")
    y = alg.y(1)
    assert t == slot_embed(y, 2, 1) - slot_embed(y, 2, 2)


def test_y1i_degenerates_for_two_stages():
    alg = cached_surface(1, 2)
    assert factor_product(alg, 2, "Y1I") == TensorElement.unit(alg, 2)


@pytest.mark.parametrize("s,count", [(3, 2), (4, 3), (5, 4)])
def test_y1i_support(s, count):
    alg = cached_surface(1, 1)
    t = factor_product(alg, s, "Y1I")
    assert len(t.terms) == count
    b = next(iter(alg.y(1).terms))
    expected = set()
    for j in range(s - 1):
        tup = tuple(
            b if (k < s - 1 and k != j) else alg.one for k in range(s)
        )
        expected.add(tup)
    assert set(t.terms) == expected
    assert all(c == 1 or c == -1 for c in t.terms.values())


def test_c_d_placements():
    alg = cached_surface(2, 2)
    a12 = alg.a(1, 2)
    b12 = alg.b(1, 2)
    for s, d_slot in ((2, 2), (3, 3)):
        by_kind = {f.kind: f.tensor for f in certificate_factors(alg, s)}
        assert by_kind["C"] == slot_embed(a12, s, 1) - slot_embed(a12, s, 2)
        assert by_kind["D"] == slot_embed(b12, s, 1) - slot_embed(b12, s, d_slot)
        assert by_kind["C"].mu().is_zero() and by_kind["D"].mu().is_zero()
    # genus 1 has no second dual pair, so no c or d
    kinds = {f.kind for f in certificate_factors(cached_surface(1, 2), 2)}
    assert kinds == {"BAR", "TILDE"}


def test_slot_difference_summands_expand_to_the_slot_difference():
    alg = cached_surface(2, 2)
    for e in (alg.x(2), alg.a(1, 2) * alg.b(2), alg.omega(1)):
        for s in (2, 3, 4):
            for slot in range(2, s + 1):
                summands = slot_difference_summands(e, s, slot)
                assert expanded(summands, s) == slot_difference(e, s, slot)
    for slot in (0, 4):
        with pytest.raises(ValueError, match="out of range for arity 3"):
            slot_difference_summands(alg.x(1), 3, slot)


def test_all_certificate_factors_are_zero_divisors_in_quotient():
    for (g, n, s) in ((1, 2, 3), (2, 2, 2), (2, 2, 3)):
        q = cached_quotient(g, n, "B")
        alg = q.parent
        for f in certificate_factors(alg, s):
            assert q.mu(f.tensor).is_zero()


def test_factor_count_identity():
    for g in (1, 2, 3):
        for n in (1, 2, 3):
            alg = cached_surface(g, n)
            for s in (2, 3, 4, 5):
                count = sum(f.count for f in certificate_factors(alg, s))
                expected = s * (n + 1) - (2 if g == 1 else 0)
                assert count == expected


# -- certificate evaluation ---------------------------------------------------


def test_certificate_two_stages_closed_form():
    cert = evaluate_certificate(2, 2, 2)
    assert cert.nonzero
    assert cert.factor_count == 6
    assert cert.closed_form_match is True
    qb = cached_quotient(2, 2, "B")
    vx, vy = omega_chain_elements(qb)
    t_xy = TensorElement.of_elements([vx, vy])
    t_yx = TensorElement.of_elements([vy, vx])
    matches = [
        cert.result == t_xy.scaled(2 * sx) + t_yx.scaled(2 * sy)
        for sx in (1, -1)
        for sy in (1, -1)
    ]
    assert any(matches)


def test_certificate_torus_counts():
    cert = evaluate_certificate(1, 2, 2)
    assert cert.nonzero
    assert cert.factor_count == 2 * 3 - 2 == 4
    assert cert.support_matches_expected is None
    assert cert.closed_form_match is None


def test_certificate_three_stages_two_term_support():
    cert = evaluate_certificate(2, 2, 3)
    assert cert.nonzero
    assert cert.support_matches_expected is True
    qb = cached_quotient(2, 2, "B")
    t_yfirst, t_ylast = expected_survivors(qb, 3)
    matches = [
        cert.result == t_yfirst.scaled(s1) + t_ylast.scaled(s2)
        for s1 in (1, -1)
        for s2 in (1, -1)
    ]
    assert any(matches)


def test_certificate_single_point_support():
    cert = evaluate_certificate(2, 1, 3)
    assert cert.nonzero
    assert cert.support_matches_expected is True
    assert len(cert.result.terms) == 1
    coeff = next(iter(cert.result.terms.values()))
    assert coeff == 1 or coeff == -1


def test_certificate_single_point_two_stages_doubles_top_class():
    # c d (x_1 in slots) (y_1 in slots) evaluates to +-2 w (x) w
    cert = evaluate_certificate(2, 1, 2)
    alg = cached_quotient(2, 1, "B").parent
    w = alg.omega(1)
    double = TensorElement.of_elements([w, w]).scaled(2)
    assert cert.result == double or cert.result == -double
    assert cert.closed_form_match is True


WRONG_SURVIVORS = {
    "doubled": lambda q, s, t1, t2: [t1.scaled(2), t2.scaled(2)],
    "halved": lambda q, s, t1, t2: [t1.scaled(Fraction(1, 2)), t2.scaled(Fraction(1, 2))],
    "unit tensors": lambda q, s, t1, t2: [TensorElement.unit(q.parent, s)] * 2,
}


@pytest.mark.parametrize("wrong", sorted(WRONG_SURVIVORS))
@pytest.mark.parametrize(
    "g,n,s,claim",
    [
        (2, 2, 3, "support_matches_expected"),
        (2, 1, 3, "support_matches_expected"),
        (2, 2, 2, "closed_form_match"),
    ],
)
def test_support_check_refuses_wrong_survivors(monkeypatch, wrong, g, n, s, claim):
    expected = certificates.expected_survivors

    def wrong_survivors(q, stages):
        return WRONG_SURVIVORS[wrong](q, stages, *expected(q, stages))

    monkeypatch.setattr(certificates, "expected_survivors", wrong_survivors)
    cert = evaluate_certificate(g, n, s)
    assert cert.nonzero
    assert getattr(cert, claim) is False


def test_incremental_reduction_matches_single_final_reduction():
    # reducing between factor multiplications is sound: the quotient map
    # is a ring map applied slotwise
    for (g, n, s) in ((1, 2, 2), (2, 2, 3), (1, 1, 4)):
        q = cached_quotient(g, n, "B")
        alg = q.parent
        factors = certificate_factors(alg, s)
        ambient = TensorElement.unit(alg, s)
        incremental = TensorElement.unit(alg, s)
        for f in factors:
            ambient = ambient * f.tensor
            incremental = q.tensor_normal_form(incremental * f.tensor)
        assert q.tensor_normal_form(ambient) == incremental


@pytest.mark.parametrize("ring", ["B", "E"])
@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stream_product_and_mu_match_the_expanded_factors(ring, g, n):
    q = cached_quotient(g, n, ring)
    alg = q.parent
    for s in range(2, 9):
        acc = TensorElement.unit(alg, s)
        for f in certificate_factors(alg, s):
            streamed = q.stream_product(acc, f.summands)
            assert streamed == q.tensor_normal_form(acc * f.tensor), (s, f.label)
            assert q.mu_of_summands(f.summands, s) == q.mu(f.tensor), (s, f.label)
            acc = streamed


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (3, 3)])
def test_stream_product_of_unreduced_and_partial_tensors(g, n):
    # a left side that is not in normal form, and single summands, whose mu
    # does not vanish
    q = cached_quotient(g, n, "B")
    alg = q.parent
    for s in (2, 3, 4):
        factors = certificate_factors(alg, s)
        for f1, f2 in zip(factors, factors[1:]):
            t = f1.tensor
            assert q.stream_product(t, f2.summands) == q.tensor_normal_form(t * f2.tensor)
            for summand in f2.summands:
                pure = TensorElement.of_summands(alg, s, [summand])
                assert q.stream_product(t, [summand]) == q.tensor_normal_form(t * pure)
                assert q.mu_of_summands([summand], s) == q.mu(pure)


def test_stream_product_expands_only_summands_without_a_zero_piece(monkeypatch):
    q = cached_quotient(2, 3, "B")
    alg = q.parent
    checked = []
    guard = quotients.check_term_limit

    def recording(count, limit, what):
        checked.append(what)
        return guard(count, limit, what)

    monkeypatch.setattr(quotients, "check_term_limit", recording)
    s = 6
    acc = TensorElement.unit(alg, s)
    pairs = skipped = 0
    for f in certificate_factors(alg, s):
        survivors = sum(
            all(q.normal_form(Element.monomial(alg, m) * e) for m, e in zip(t, slots(summand, s)))
            for t in acc.terms
            for summand in f.summands
        )
        pairs += len(acc.terms) * len(f.summands)
        skipped += len(acc.terms) * len(f.summands) - survivors
        checked.clear()
        acc = q.stream_product(acc, f.summands, 10**6)
        # one accumulator check and one summand-product check per summand added
        assert checked.count("the streamed product") == survivors, f.label
        assert checked.count("a streamed summand product") == survivors, f.label
    assert acc and 0 < skipped < pairs


def test_stream_product_refuses_the_first_slot_prefix_past_the_limit():
    # pieces of 2, 3 and 1 terms: the summand's slot prefixes hold 2, 6 and 6
    alg = cached_surface(2, 2)
    q = quotients.QuotientAlgebra(quotients.ideal_span(alg, []))
    e2 = alg.a(1) + alg.b(1)
    e3 = alg.a(1) + alg.b(1) + alg.a(2)
    unit = TensorElement.unit(alg, 3)
    summand = [(1, Element.unit(alg), ((0, e2), (1, e3)))]
    assert len(q.stream_product(unit, summand, 6).terms) == 6
    for limit, held in ((5, 6), (1, 2)):
        with pytest.raises(
            SizeGuardError,
            match=f"a streamed summand product holds {held} tensor terms, "
            f"which exceeds the limit {limit}",
        ):
            q.stream_product(unit, summand, limit)


def test_table_builds_no_factor_tensor(monkeypatch):
    built = []

    def refuse(self):
        built.append(self.label)
        raise AssertionError(f"factor {self.label} was expanded")

    monkeypatch.setattr(ZeroDivisorFactor, "tensor", property(refuse))
    for g in (2, 3, 4):
        for n in (1, 2, 3):
            for s in range(2, 11):
                assert tc_value(g, n, s).certified
    assert built == []


def test_factor_that_is_no_zero_divisor_is_refused(monkeypatch):
    factors = certificates.certificate_factors

    def with_extra(algebra, s):
        one = Element.unit(algebra)
        extra = ZeroDivisorFactor("GENERIC", "half", [(1, one, ((0, algebra.x(2)),))], s)
        return factors(algebra, s) + [extra]

    monkeypatch.setattr(certificates, "certificate_factors", with_extra)
    with pytest.raises(VerificationError, match="factor half is not a zero divisor"):
        evaluate_certificate(2, 2, 3)


def test_factor_term_count_and_text_guard():
    alg = cached_surface(2, 2)
    for f in certificate_factors(alg, 5):
        assert f.term_count() == len(f.tensor.terms)
        assert f.to_text(f.term_count()) == f.tensor.to_text()
    f = next(f for f in certificate_factors(alg, 5) if f.label == "xbar2")
    assert f.term_count() == 5 * 2**4
    with pytest.raises(SizeGuardError, match="factor xbar2 holds 80 tensor terms"):
        f.to_text(79)


@pytest.mark.parametrize("g,n,s", [(1, 2, 2), (2, 1, 5), (3, 3, 4)])
def test_slot_guard_counts_s_slots_per_factor(monkeypatch, g, n, s):
    # the guard's estimate is s times the factors that certificate_factors builds
    slots = s * len(certificate_factors(cached_surface(g, n), s))
    monkeypatch.setattr(certificates, "DEFAULT_SLOT_LIMIT", slots - 1)
    built = []
    factors = certificates.certificate_factors

    def recording(algebra, stages):
        built.append(stages)
        return factors(algebra, stages)

    monkeypatch.setattr(certificates, "certificate_factors", recording)
    with pytest.raises(SizeGuardError, match=f"writes at least {slots} tensor slots"):
        evaluate_certificate(g, n, s)
    assert built == []
    assert evaluate_certificate(g, n, s, allow_large=True).nonzero
    monkeypatch.setattr(certificates, "DEFAULT_SLOT_LIMIT", slots)
    assert evaluate_certificate(g, n, s).nonzero


def test_genus_one_accumulator_peaks_at_its_final_size(monkeypatch):
    # Each ytilde_i is multiplied before its xbar_i; in the factor order the
    # accumulator would reach s^3 terms right after xbar_2.
    sizes = []
    stream_product = quotients.QuotientAlgebra.stream_product

    def counting(self, t, summands, term_limit=None):
        out = stream_product(self, t, summands, term_limit)
        sizes.append(len(out.terms))
        return out

    monkeypatch.setattr(quotients.QuotientAlgebra, "stream_product", counting)
    for g, n, s in [(1, 3, 10), (1, 3, 20), (1, 3, 30), (1, 3, 40), (1, 4, 20)]:
        sizes.clear()
        cert = evaluate_certificate(g, n, s)
        assert len(sizes) == len(cert.factors)
        assert max(sizes) <= len(cert.result.terms) == sizes[-1], (g, n, s)


def test_certificate_validation():
    with pytest.raises(ValueError, match="stages"):
        evaluate_certificate(2, 2, 1)
    with pytest.raises(ValueError, match="genus"):
        evaluate_certificate(0, 3, 2)
    with pytest.raises(ValueError, match="ring"):
        evaluate_certificate(2, 2, 2, ring="X")


def test_certificate_term_guard(monkeypatch):
    # at (2, 2, 3) the accumulator and the streamed products hold at most 4
    # tensor terms, so the limit 4 passes and 3 is refused
    for limit in (3, 0):
        monkeypatch.setattr(certificates, "DEFAULT_TERM_LIMIT", limit)
        with pytest.raises(SizeGuardError, match=f"exceeds the limit {limit}"):
            evaluate_certificate(2, 2, 3)
    monkeypatch.setattr(certificates, "DEFAULT_TERM_LIMIT", 4)
    assert evaluate_certificate(2, 2, 3).term_limit == 4
    monkeypatch.setattr(certificates, "DEFAULT_TERM_LIMIT", 3)
    cert = evaluate_certificate(2, 2, 3, allow_large=True)
    assert cert.nonzero and cert.term_limit is None
    monkeypatch.undo()
    # the former term estimate refused these cells
    assert evaluate_certificate(2, 5, 6).nonzero
    assert evaluate_certificate(2, 3, 14).nonzero


def test_allow_large_lifts_the_basis_guard_for_its_call_only(monkeypatch):
    # E lists the 6^5 = 7776 ambient monomials at (2, 5)
    monkeypatch.setenv("TCCONF_MAX_BASIS", "1000")
    with pytest.raises(SizeGuardError, match="ambient basis size 7776 .* limit 1000"):
        evaluate_certificate(2, 5, 3, ring="E")
    cert = evaluate_certificate(2, 5, 3, ring="E", allow_large=True)
    assert cert.nonzero and cert.term_limit is None
    # the lifted build is cached apart, so a guarded call is still refused
    with pytest.raises(SizeGuardError, match="ambient basis size 7776 .* limit 1000"):
        evaluate_certificate(2, 5, 3, ring="E")


@pytest.mark.parametrize("g,n,s", [(1, 2, 2), (1, 1, 3), (2, 3, 3), (3, 2, 4)])
def test_ring_agreement_exact(g, n, s):
    ok, cert_b, cert_e = ring_agreement(g, n, s)
    assert ok
    assert cert_b.nonzero and cert_e.nonzero


# -- the table ---------------------------------------------------------------


def test_tc_upper_bound_formulas():
    assert tc_upper_bound(0, 3, 2) == 3
    assert tc_upper_bound(0, 1, 4) == 4
    assert tc_upper_bound(0, 2, 4) == 4
    assert tc_upper_bound(1, 2, 3) == 7
    assert tc_upper_bound(2, 1, 2) == 4
    assert tc_upper_bound(3, 3, 4) == 16
    with pytest.raises(ValueError):
        tc_upper_bound(2, 2, 1)
    with pytest.raises(ValueError):
        tc_upper_bound(-1, 2, 2)
    with pytest.raises(ValueError):
        tc_upper_bound(2, 0, 2)


def test_tc_value_records():
    rec = tc_value(2, 2, 2)
    assert rec.tc == rec.upper == rec.lower == 6
    assert rec.certified is True
    assert rec.as_dict() == {
        "genus": 2,
        "n": 2,
        "s": 2,
        "upper": 6,
        "lower": 6,
        "tc": 6,
        "certified": True,
    }
    rec0 = tc_value(0, 2, 4)
    assert rec0.tc == 4
    assert rec0.certified is False
    assert rec0.note == "formula-only"
    skipped = tc_value(2, 9, 2)  # handle-reduced basis 196,830 > 10^5
    assert skipped.certified is False
    assert skipped.note == "guard-skipped"


# -- the row pass --------------------------------------------------------------


def _padded(e, algebra):
    """An element of fewer points, each word padded with units, in ``algebra``."""
    pad = (surfaces.UNIT,) * (algebra.points - e.algebra.points)
    return Element(algebra, {m + pad: c for m, c in e.terms.items()})


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_padding_with_units_sends_a_cell_to_the_prefix_of_a_larger_one(genus):
    # The ring map behind the row pass, H*(S_g^k) -> H*(S_g^n) for k < n <= 5:
    # it sends the factors of (g, k, s) to the first factors of (g, n, s) and
    # each ideal generator of E, A and B at k to one at n.
    for n in range(2, 6):
        big = SurfacePowerAlgebra(genus, n)
        for k in range(1, n):
            small = SurfacePowerAlgebra(genus, k)
            for s in (2, 3, 4):
                head, full = certificate_factors(small, s), certificate_factors(big, s)
                assert len(full) - len(head) == 2 * (n - k)
                for f, h in zip(head, full):
                    assert (f.kind, f.label, f.count, f.arity) == (h.kind, h.label, h.count, h.arity)
                    # a zero divisor in the power algebra, so in each of its quotients
                    assert f.tensor.mu().is_zero()
                    padded = [
                        (sign, _padded(d, big), tuple((j, _padded(e, big)) for j, e in exc))
                        for sign, d, exc in f.summands
                    ]
                    assert padded == h.summands
            for relations in (xy_pair_relations, lambda alg: totaro_relations(alg)[0]):
                assert {_padded(r, big) for r in relations(small)} <= set(relations(big))
            # A's words keep their count of special letters, so stay words of A
            pad = (surfaces.UNIT,) * (n - k)
            assert all(
                big.handle_reduced.is_monomial(m + pad)
                for d in range(small.top_degree + 1)
                for m in small.handle_reduced.monomials_of_degree(d)
            )
            # and the map is multiplicative on the letters
            letters = [
                small.shifted_letter(i, c)
                for i in range(1, k + 1)
                for c in range(1, 2 * genus + 2)
            ]
            for u in letters:
                for v in letters:
                    assert _padded(u * v, big) == _padded(u, big) * _padded(v, big)


def _per_cell(genus, points, stages):
    """The note of one cell from its own certificate run, as a cell-by-cell table has it."""
    if genus == 0:
        return "formula-only"
    try:
        return "certified" if evaluate_certificate(genus, points, stages).nonzero else "failed"
    except SizeGuardError:
        return "guard-skipped"


def test_row_pass_gives_the_records_of_a_per_cell_loop():
    out = io.StringIO()
    grid = {"genus": (0, 1, 2, 3), "points": (1, 2, 3, 4, 5), "stages": (2, 3, 4, 5)}
    assert cli.run(cli.RunConfig("table", **grid), out) == 0
    expected = []
    for g in grid["genus"]:
        for n in grid["points"]:
            for s in grid["stages"]:
                value = tc_upper_bound(g, n, s)
                certified = _per_cell(g, n, s) == "certified"
                expected.append(
                    {"genus": g, "n": n, "s": s, "upper": value, "lower": value, "tc": value,
                     "certified": certified}
                )
    assert json.loads(out.getvalue())["records"] == expected


def _noting_runs(monkeypatch, edit=None):
    """Record each (points, stages) that ``tc_rows`` runs a certificate for."""
    runs, evaluate = [], certificates.evaluate_certificate

    def noted(genus, points, stages, **kw):
        runs.append((points, stages))
        cert = evaluate(genus, points, stages, **kw)
        if edit:
            edit(cert)
        return cert

    monkeypatch.setattr(certificates, "evaluate_certificate", noted)
    return runs


def test_a_guard_skipped_top_cell_leaves_its_row_to_the_next_admitted_n(monkeypatch):
    # A has 1,458 words at (2, 5) and 405 at (2, 4)
    monkeypatch.setenv("TCCONF_MAX_BASIS", "1000")
    runs = _noting_runs(monkeypatch)
    rows = tc_rows(2, (3, 4, 5), (2, 3))
    assert [(r.n, r.s, r.note) for r in rows] == [
        (3, 2, "certified"),
        (3, 3, "certified"),
        (4, 2, "certified"),
        (4, 3, "certified"),
        (5, 2, "guard-skipped"),
        (5, 3, "guard-skipped"),
    ]
    assert [rec.note for rec in rows] == [_per_cell(2, r.n, r.s) for r in rows]
    # (2, 3, s) is read off the prefix of (2, 4, s), not run
    assert runs == [(5, 2), (5, 3), (4, 2), (4, 3)]


def test_a_zero_prefix_falls_back_to_the_cells_own_run(monkeypatch):
    def zero_at_two(cert):
        cert.prefix_nonzero = [k != 2 for k in range(1, cert.points + 1)]
        if cert.points == 2:  # the cell's own run decides it
            cert.nonzero = False

    runs = _noting_runs(monkeypatch, zero_at_two)
    rows = tc_rows(2, (1, 2, 3), (3,))
    # (2, 2, 3) runs itself; (2, 1, 3) is read off the prefix of that run
    assert runs == [(3, 3), (2, 3)]
    assert [(r.n, r.certified, r.note) for r in rows] == [
        (1, True, "certified"),
        (2, False, "failed"),
        (3, True, "certified"),
    ]
    del runs[:]
    # a failed cell fails the table
    assert cli.run(cli.RunConfig("table", (2,), (1, 2, 3), (3,)), io.StringIO()) == 1
    assert runs == [(3, 3), (2, 3)]


def test_the_prefix_is_the_product_right_after_each_point(monkeypatch):
    for g, n, s in ((1, 3, 2), (2, 3, 3), (3, 4, 2)):
        cert = evaluate_certificate(g, n, s)
        assert cert.prefix_nonzero == [True] * n
    # ytilde_2 replaced by a slot difference of w_1: after point 1 the product
    # holds w_1 in every slot, so it vanishes at point 2 and stays zero
    factors = certificates.certificate_factors

    def killing_point_two(algebra, s):
        out = factors(algebra, s)
        k = next(i for i, f in enumerate(out) if f.label == "ytilde2")
        out[k] = ZeroDivisorFactor(
            "TILDE", "ytilde2", slot_difference_summands(algebra.omega(1), s, s), s
        )
        return out

    monkeypatch.setattr(certificates, "certificate_factors", killing_point_two)
    cert = evaluate_certificate(2, 3, 3)
    assert cert.prefix_nonzero == [True, False, False] and not cert.nonzero


def test_a_prefix_cell_checks_its_own_factors_in_its_own_quotient(monkeypatch):
    factors = certificates.certificate_factors

    def no_zero_divisor_at_two_points(algebra, s):
        out = factors(algebra, s)
        if algebra.points == 2:  # y_2 in slot 1 alone: mu is y_2
            unit = Element.unit(algebra)
            out[-1] = ZeroDivisorFactor("TILDE", "ytilde2", [(1, unit, ((0, algebra.y(2)),))], s)
        return out

    runs = _noting_runs(monkeypatch)
    monkeypatch.setattr(certificates, "certificate_factors", no_zero_divisor_at_two_points)
    with pytest.raises(VerificationError, match="factor ytilde2 is not a zero divisor in CERTIFICATE"):
        tc_rows(2, (2, 3), (2,))
    assert runs == [(3, 2)]  # the cell read the prefix of (2, 3, 2) and did not run itself


def test_a_prefix_is_held_to_the_factor_count_of_its_cell(monkeypatch):
    def miscount(position):
        def edit(cert):
            cert.factors[position].count += 1

        return edit

    # a factor after point 2 does not count towards it
    runs = _noting_runs(monkeypatch, miscount(-1))
    assert [r.note for r in tc_rows(2, (2, 3), (2,))] == ["certified"] * 2
    assert runs == [(3, 2)]
    monkeypatch.undo()
    _noting_runs(monkeypatch, miscount(0))
    with pytest.raises(VerificationError, match="factor count 7 does not match the claimed bound 6"):
        tc_rows(2, (2, 3), (2,))


# -- identity suites ----------------------------------------------------------


def test_lemma_suites_pass():
    rep = verify_lemma_identities(2, 3)
    assert rep.ok
    assert rep.failed == 0
    names = {c.name for c in rep.checks}
    assert "lemma1(iv) j=2" in names
    assert "lemma2(1)(i) (i=2,j=3)" in names
    assert "lemma2(6) triple products vanish (i=3,j=2)" in names
    assert "pair relation factors (i=2,j=3)" in names


def test_lemma_suites_two_points():
    rep = verify_lemma_identities(2, 2)
    assert rep.ok
    # no distinct pairs within {2}, so only the first lemma appears
    assert all(c.name.startswith("lemma1") for c in rep.checks)


def test_lemma_report_digest():
    # Every check's name, flag and detail at g = 2..4, n = 2..5.  The CLI
    # prints no detail for a passing check, so only this digest sees a
    # family whose instance count changed, or one that became empty.
    digest, count = hashlib.sha256(), 0
    for g in range(2, 5):
        for n in range(2, 6):
            for c in verify_lemma_identities(g, n).checks:
                digest.update(f"{g} {n}\t{c.name}\t{c.ok}\t{c.detail}\n".encode())
                count += 1
    assert count == 1170
    assert digest.hexdigest() == "ed378683b686738ba715b82256391683de3b17404b63b772af6c197ce94d46d1"


def _failed_checks(genus, points):
    return [(c.name, c.detail) for c in verify_lemma_identities(genus, points).checks if not c.ok]


def test_lemma_suites_report_a_wrong_sign(monkeypatch):
    # a(p)b(p) = -w at coordinate 1 breaks the identities that read x_1 y_j
    # or w_1, and the families whose members then fail to vanish
    mono_mul = surfaces.SurfacePowerAlgebra.mono_mul

    def flipped(self, m1, m2):
        r = mono_mul(self, m1, m2)
        if r is not None and m1[0] & 1 and m2[0] == m1[0] + 1:
            return r[0], -r[1]
        return r

    monkeypatch.setattr(surfaces.SurfacePowerAlgebra, "mono_mul", flipped)
    failed = _failed_checks(2, 3)
    names = [name for name, _detail in failed]
    assert len(failed) == 18
    assert names[:4] == ["lemma1(i) j=2", "lemma1(iv) j=2", "lemma1(i) j=3", "lemma1(iv) j=3"]
    assert ("lemma1(iv) j=2", "") in failed
    assert ("lemma2(3) others vanish (i=2,j=3)", "first failure: x2(1)*y3(1)") in failed
    assert "lemma2(5)(viii) (i=3,j=2)" in names


def test_lemma_suites_report_products_that_leave_a(monkeypatch):
    # with A's word rule switched off (as many special letters as points),
    # words with two special letters survive, so every family that needs
    # them to vanish reports its first survivor
    alg = cached_quotient(2, 3, "A").parent
    monkeypatch.setattr(alg, "max_special", alg.points)
    failed = _failed_checks(2, 3)
    families = [(name, detail) for name, detail in failed if detail]
    assert len(failed) == 18
    assert len(families) == 16
    assert all(detail.startswith("first failure: ") for _name, detail in families)
    assert families[0] == ("lemma1(i) j=2", "first failure: v with letter at 2")
    assert ("lemma1(vi) j=2 k=3", "first failure: x3(2)") in families
    triple = ("lemma2(6) triple products vanish (i=3,j=2)", "first failure: x1(1)*y3(1)*x2(1)")
    assert triple in families
    assert [name for name, detail in failed if not detail] == [
        "lemma2(3)(v) (i=2,j=3)",
        "lemma2(3)(v) (i=3,j=2)",
    ]
    monkeypatch.undo()
    assert alg.max_special == 1
    assert verify_lemma_identities(2, 3).ok


def test_lemma1_families_form_each_product_once(monkeypatch):
    # lemma1(i), (ii) and (iii) read v * x_j y_j off one pass over A's words:
    # for v = v' z with z the letter of v's last coordinate, it is formed once
    # as (v' x_j y_j) * z, and not at all when v' x_j y_j is zero
    letters = []
    family = certificates._letter_family

    def recording(algebra, t):
        letters.append(family(algebra, t))
        return letters[-1]

    formed = []
    mul = Element.__mul__

    def counting(self, other):
        is_letter = [any(e is z for fam in letters for _l, _c, z in fam) for e in (self, other)]
        if is_letter == [False, True]:
            formed.append((frozenset(self.terms.items()), frozenset(other.terms.items())))
        return mul(self, other)

    monkeypatch.setattr(certificates, "_letter_family", recording)
    monkeypatch.setattr(Element, "__mul__", counting)
    assert verify_lemma_identities(2, 4).ok
    monkeypatch.undo()
    # every left factor is a nonzero v' x_j y_j, and no product repeats
    assert all(left for left, _z in formed)
    assert len(formed) == len(set(formed))
    # one product per word v of A and j whose v' x_j y_j is nonzero, with v'
    # multiplied out on its own
    alg = cached_quotient(2, 4, "A").parent
    shifted = dict(surfaces.shifted_basis_products(alg))
    expected = 0
    for j in (2, 3, 4):
        r = alg.x(j) * alg.y(j)
        for m in shifted:
            if any(m):
                t = max(k for k, c in enumerate(m, 1) if c)
                expected += bool(shifted[m[: t - 1] + (0,) * (4 - t + 1)] * r)
    assert len(formed) == expected == 450


@pytest.mark.parametrize("planted", [None, "sign", "special"])
def test_lemma_suites_match_the_unshared_products(monkeypatch, planted):
    # the shared partial products give every check, count and first-failure
    # label of the suites that form each product on its own, on the digest's
    # grid; a planted fault (a(p)b(p) = -w at coordinate 1, or A's word rule
    # off) must fail the same checks with the same first failures
    cells = [(g, n) for g in range(2, 5) for n in range(2, 6)] if planted is None else [(2, 3), (2, 4), (3, 4)]
    if planted == "sign":
        mono_mul = surfaces.SurfacePowerAlgebra.mono_mul

        def flipped(self, m1, m2):
            r = mono_mul(self, m1, m2)
            if r is not None and m1[0] & 1 and m2[0] == m1[0] + 1:
                return r[0], -r[1]
            return r

        monkeypatch.setattr(surfaces.SurfacePowerAlgebra, "mono_mul", flipped)
    failures = 0
    for g, n in cells:
        if planted == "special":
            monkeypatch.setattr(cached_quotient(g, n, "A").parent, "max_special", n)
        shared = [(c.name, c.ok, c.detail) for c in verify_lemma_identities(g, n).checks]
        unshared = [(c.name, c.ok, c.detail) for c in unshared_lemma_identities(g, n).checks]
        assert shared == unshared, (g, n)
        failures += sum(not ok for _name, ok, _detail in shared)
    assert failures == {None: 0, "sign": 114, "special": 108}[planted]


def test_lemma_requires_higher_genus():
    with pytest.raises(ValueError, match="genus at least 2"):
        verify_lemma_identities(1, 3)
    with pytest.raises(ValueError, match="at least 2 points"):
        verify_lemma_identities(2, 1)


# -- the mod-2 check -----------------------------------------------------------


def test_rp3_two_stages_matches_binomial_oracle():
    prod = rp3_product(2)
    expected = binomial_mod2_truncated_power(3, 4)
    assert set(prod.terms) == expected
    assert expected == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert rp3_zcl_check(2) == 3


@pytest.mark.parametrize("s", [2, 3, 4])
def test_rp3_values(s):
    assert rp3_zcl_check(s) == 3 * (s - 1)


def test_rp3_guards():
    with pytest.raises(ValueError):
        rp3_zcl_check(1)
    with pytest.raises(SizeGuardError):
        rp3_zcl_check(6)


def test_rp3_factors_are_zero_divisors():
    alg = rp3_algebra()
    t = Element.monomial(alg, 1)
    for s in (2, 3):
        for slot in range(2, s + 1):
            f = expanded(slot_difference_summands(t, s, slot), s)
            assert f == slot_difference(t, s, slot)
            assert f.mu().is_zero()


# -- the generic search ----------------------------------------------------------


def test_zcl_search_projective_space():
    result = zcl_search(rp3_algebra(), 2)
    assert result.strategy == "EXHAUSTIVE_TINY"
    assert result.bound == 3
    assert len(result.witness) == 3
    assert not result.value.is_zero()


def test_zcl_search_trivial_algebra():
    alg = TruncatedPolynomialAlgebra(GF2, truncation=1)
    result = zcl_search(alg, 2)
    assert result.bound == 0
    assert result.witness == []
    assert result.value == TensorElement.unit(alg, 2)


def test_zcl_search_torus():
    alg = cached_surface(1, 1)
    result = zcl_search(alg, 2)
    assert result.bound >= 2
    # frozen hand expansion of the length-2 witness product
    a, b, w = alg.a(1), alg.b(1), alg.omega(1)
    prod = slot_difference(a, 2, 2) * slot_difference(b, 2, 2)
    expected = (
        TensorElement.of_elements([w, Element.unit(alg)])
        - TensorElement.of_elements([a, b])
        + TensorElement.of_elements([b, a])
        + TensorElement.of_elements([Element.unit(alg), w])
    )
    assert prod == expected
    assert not prod.is_zero()


def test_zcl_search_guard_and_greedy():
    big = cached_surface(1, 2)  # dimension 16
    with pytest.raises(SizeGuardError, match="dimension"):
        zcl_search(big, 2, strategy="EXHAUSTIVE_TINY")
    result = zcl_search(big, 2, strategy="GREEDY")
    assert result.strategy == "GREEDY"
    assert result.bound >= 1
    assert len(result.witness) == result.bound
    assert not result.value.is_zero()


def test_exhaustive_search_is_refused_past_its_slot_bound(monkeypatch):
    # the walk of (1,1,4) forms 816 products of 13,096 tensor slots in all
    q = cached_quotient(1, 1, "B")
    assert zcl_search(q, 4).bound == 6
    monkeypatch.setattr(certificates, "EXHAUSTIVE_SLOTS", 13_095)
    with pytest.raises(SizeGuardError, match="exceeds 13095 tensor slots .* --strategy GREEDY"):
        zcl_search(q, 4)
    assert zcl_search(q, 4, strategy="GREEDY").bound == 6
    monkeypatch.setattr(certificates, "EXHAUSTIVE_SLOTS", 13_096)
    assert zcl_search(q, 4).bound == 6


def test_zcl_search_on_quotient():
    qb = cached_quotient(1, 1, "B")  # no relations for one point
    result = zcl_search(qb, 2)
    assert result.bound >= 2
    with pytest.raises(ValueError):
        zcl_search(qb, 1)
    with pytest.raises(ValueError, match="strategy"):
        zcl_search(qb, 2, strategy="RANDOM")


@pytest.mark.parametrize("strategy", ["EXHAUSTIVE_TINY", "GREEDY"])
def test_zcl_search_prepares_each_candidate_once(monkeypatch, strategy):
    q = cached_quotient(1, 1, "B")
    prepared = []
    slot_rows = quotients.QuotientAlgebra.slot_rows

    def counting(self, summands, arity=None):
        if type(summands) is not quotients.SlotRows:
            prepared.append(arity)
        return slot_rows(self, summands, arity)

    monkeypatch.setattr(quotients.QuotientAlgebra, "slot_rows", counting)
    result = zcl_search(q, 3, strategy)
    # one preparation per positive-degree basis monomial and slot 2..3
    positive = sum(len(q.standard_monomials(d)) for d in range(1, q.parent.top_degree + 1))
    assert prepared == [3] * (2 * positive)
    assert result.bound >= 3


def test_records_keep_their_defaults():
    cert = Certificate(2, 2, 2, "CERTIFICATE", [], 0, None, False)
    assert (cert.support_matches_expected, cert.closed_form_match, cert.term_limit) == (
        None,
        None,
        None,
    )
    assert TcRecord(2, 2, 2, 6, 6, 6, True).note == ""
    first, second = LemmaReport(2, 2), LemmaReport(2, 3)
    first.checks.append(LemmaCheck("lemma1", True))
    assert second.checks == [] and (first.passed, first.failed, first.ok) == (1, 0, True)
    assert LemmaCheck("lemma1", False).detail == ""
    alg = cached_surface(2, 2)
    factor = ZeroDivisorFactor("C", "c", slot_difference_summands(alg.a(1, 2), 2, 2), 2)
    assert factor.count == 1 and factor.tensor is factor.tensor
