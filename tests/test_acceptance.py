"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All checks are exact; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from conftc.algebra import Element, TensorElement
from conftc.certificates import (
    certificate_factors,
    evaluate_certificate,
    omega_chain_elements,
    rp3_algebra,
    rp3_zcl_check,
    slot_difference_summands,
    tc_value,
    verify_lemma_identities,
)
from conftc.linalg import GradedSubspace
from conftc.quotients import cached_quotient, cached_surface, ideal_span
from conftc.surfaces import shifted_basis_products

from oracles import cross_handle_relations, expanded, poly_pow, ring_agreement

GRID = [
    (g, n, s) for g in (1, 2, 3) for n in (1, 2, 3) for s in (2, 3, 4)
]


def report(criterion, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}{' (' + extra + ')' if extra else ''}")
    assert ok, f"criterion {criterion} failed"


def expected_tc(g, n, s):
    if g == 1:
        return s * (n + 1) - 2
    return s * (n + 1)


def test_criterion_01_tc_table_reproduction():
    start = time.time()
    ok = True
    for g, n, s in GRID:
        rec = tc_value(g, n, s)
        ok = ok and rec.tc == expected_tc(g, n, s) and rec.certified
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    report(1, ok, f"27 cells in {elapsed:.1f}s")


def test_criterion_02_certificate_nonvanishing_and_support():
    ok = True
    for g, n, s in GRID:
        cert = evaluate_certificate(g, n, s)
        ok = ok and cert.nonzero
        if s >= 3 and g >= 2:
            # support is exactly the two expected terms (they coincide for
            # a single point, where one +-1 term remains)
            ok = ok and cert.support_matches_expected is True
    report(2, ok)


def test_criterion_03_oracle_equivalence():
    ok = True
    for g, n, s in ((1, 2, 2), (2, 2, 2), (2, 2, 3)):
        agreed, cert_b, cert_e = ring_agreement(g, n, s)
        ok = ok and agreed and cert_b.nonzero and cert_e.nonzero
    report(3, ok)


def test_criterion_04_two_stage_closed_form():
    ok = True
    for n in (2, 3):
        cert = evaluate_certificate(2, n, 2)
        qb = cached_quotient(2, n, "B")
        vx, vy = omega_chain_elements(qb)
        t_xy = TensorElement.of_elements([vx, vy])
        t_yx = TensorElement.of_elements([vy, vx])
        matches = any(
            cert.result == t_xy.scaled(2 * sx) + t_yx.scaled(2 * sy)
            for sx in (1, -1)
            for sy in (1, -1)
        )
        ok = ok and cert.nonzero and matches and cert.closed_form_match is True
    report(4, ok)


def test_criterion_05_restricted_bases():
    ok = True
    for g in (2, 3):
        for n in (2, 3):
            alg = cached_surface(g, n)
            qa = cached_quotient(g, n, "A")
            reduced = [m for ms in qa.parent.monomials_by_degree for m in ms]
            shifted = [e for _, e in shifted_basis_products(qa.parent)]
            expected = 3**n + n * (2 * g - 1) * 3 ** (n - 1)
            # 'A' lists its basis from the monomial form of its ideal; the
            # ambient elimination of the CROSS_HANDLE generators checks it.
            eliminated = alg.dimension - ideal_span(alg, cross_handle_relations(alg)).total_rank()
            ok = ok and len(reduced) == len(shifted) == qa.dimension == eliminated == expected
            space = GradedSubspace(range(alg.top_degree + 1), alg.field)
            rank = 0
            for e in shifted:
                nf = qa.normal_form(e)
                if nf.is_zero():
                    continue
                if space.insert(nf.terms, nf.degree()):
                    rank += 1
            ok = ok and rank == expected
    report(5, ok)


def test_criterion_06_omega_chains_have_rank_two():
    ok = True
    for g in (2, 3):
        for n in (2, 3, 4):
            alg = cached_surface(g, n)
            qb = cached_quotient(g, n, "B")
            vx, vy = omega_chain_elements(qb)
            d = n + 1
            space = GradedSubspace([d], alg.field)
            for e in (vx, vy):
                ok = ok and not e.is_zero()
                space.insert(e.terms, d)
            ok = ok and space.rank(d) == 2
    report(6, ok)


def test_criterion_07_lemma_suites():
    rep = verify_lemma_identities(2, 3)
    report(7, rep.ok and rep.failed == 0, f"{rep.passed} checks")


def test_criterion_08_key_identity():
    ok = True
    for g in (1, 2):
        alg = cached_surface(g, 3)
        qe = cached_quotient(g, 3, "E")
        for j in (2, 3):
            lhs = qe.normal_form(alg.x(j) * alg.y(j))
            rhs = qe.normal_form(
                alg.omega(j) - alg.omega(1) + alg.y(1) * alg.x(j) - alg.x(1) * alg.y(j)
            )
            ok = ok and lhs == rhs
    report(8, ok)


def test_criterion_09_projective_space_check():
    ok = all(rp3_zcl_check(s) == 3 * (s - 1) for s in (2, 3, 4))
    report(9, ok)


def test_criterion_10_property_floor():
    ok = True
    # graded commutativity: exhaustive for up to two points, sampled beyond
    for (g, n) in ((1, 1), (1, 2), (2, 2)):
        alg = cached_surface(g, n)
        monos = [m for ms in alg.monomials_by_degree for m in ms]
        for m1 in monos:
            for m2 in monos:
                sign = (-1) ** (alg.monomial_degree(m1) * alg.monomial_degree(m2))
                e1, e2 = Element.monomial(alg, m1), Element.monomial(alg, m2)
                ok = ok and e1 * e2 == (e2 * e1).scaled(sign)
    rng = random.Random(2)
    alg = cached_surface(2, 3)
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    for _ in range(10_000):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        sign = (-1) ** (alg.monomial_degree(m1) * alg.monomial_degree(m2))
        e1, e2 = Element.monomial(alg, m1), Element.monomial(alg, m2)
        ok = ok and e1 * e2 == (e2 * e1).scaled(sign)
    # associativity, sampled homogeneous triples
    for _ in range(2000):
        e1, e2, e3 = (Element.monomial(alg, rng.choice(monos)) for _ in range(3))
        ok = ok and (e1 * e2) * e3 == e1 * (e2 * e3)
    # every constructed certificate factor is a zero divisor in its ring
    for (g, n, s) in ((1, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 4)):
        q = cached_quotient(g, n, "B")
        for f in certificate_factors(q.parent, s):
            ok = ok and q.mu(f.tensor).is_zero()
    # ... including the mod-2 slot differences
    rp3 = rp3_algebra()
    t = Element.monomial(rp3, 1)
    for s in (2, 3, 4):
        for slot in range(2, s + 1):
            ok = ok and expanded(slot_difference_summands(t, s, slot), s).mu().is_zero()
    # normal-form idempotence and the ring-map law, sampled
    for (g, n, kind) in ((1, 2, "E"), (2, 2, "B")):
        q = cached_quotient(g, n, kind)
        alg = q.parent
        monos = [m for ms in alg.monomials_by_degree for m in ms]
        for _ in range(200):
            e1 = Element.monomial(alg, rng.choice(monos), Fraction(rng.randint(-3, 3) or 1))
            e2 = Element.monomial(alg, rng.choice(monos)) + Element.monomial(
                alg, rng.choice(monos), Fraction(rng.randint(-2, 2))
            )
            nf1 = q.normal_form(e1)
            ok = ok and q.normal_form(nf1) == nf1
            ok = ok and q.normal_form(e1 * e2) == q.normal_form(
                q.normal_form(e1) * q.normal_form(e2)
            )
    # Poincare polynomials
    for (g, n) in ((1, 2), (2, 2), (2, 3), (3, 3)):
        ok = ok and cached_surface(g, n).dimensions_by_degree() == poly_pow(
            [1, 2 * g, 1], n
        )
    report(10, ok)
