import random
from fractions import Fraction

import pytest

from conftc.algebra import Element, TensorElement, TruncatedPolynomialAlgebra, _add_terms
from conftc.errors import SizeGuardError
from conftc.fields import GF2, RATIONALS
from conftc.quotients import cached_surface

from oracles import poly_pow, slot_embed


def random_element(alg, rng, nterms=3):
    e = Element.zero(alg)
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    for _ in range(nterms):
        m = rng.choice(monos)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        e = e + Element.monomial(alg, m, c) if c else e
    return e


def test_unit_element():
    alg = cached_surface(2, 2)
    one = Element.unit(alg)
    rng = random.Random(0)
    for _ in range(10):
        e = random_element(alg, rng)
        assert one * e == e
        assert e * one == e


def test_mixed_degree_sums_allowed():
    alg = cached_surface(1, 2)
    e = alg.a(1) + alg.omega(2)
    assert e.degrees() == (1, 2)
    assert not e.is_homogeneous()
    with pytest.raises(ValueError, match="not homogeneous"):
        e.degree()


def test_algebra_mismatch_rejected():
    a1 = cached_surface(1, 1)
    a2 = cached_surface(1, 2)
    with pytest.raises(ValueError, match="different algebras"):
        a1.a(1) * Element.unit(a2)


def test_bad_monomials_are_refused_at_the_boundary():
    # Monomials are keyed by their letter tuple alone, so the algebra checks
    # each one where it enters: length n, letter codes 0..2g+1, a tuple.
    alg = cached_surface(2, 2)  # letter codes 0..5
    assert Element.monomial(alg, (5, 0)).to_text() == "+1 w1"
    for bad in ((1,), (1, 2, 0), (6, 0), (0, -1), [1, 2], "ab", 3, (1.5, 0), None):
        with pytest.raises(ValueError, match="not in the basis"):
            Element.monomial(alg, bad)
    trunc = TruncatedPolynomialAlgebra(GF2, truncation=4)
    for bad in (4, -1, (1,), True):
        with pytest.raises(ValueError, match="not in the basis"):
            Element.monomial(trunc, bad)


def test_graded_commutativity_exhaustive_small():
    # all monomial pairs for one- and two-point algebras
    for (g, n) in ((1, 1), (2, 1), (1, 2), (2, 2)):
        alg = cached_surface(g, n)
        monos = [m for ms in alg.monomials_by_degree for m in ms]
        for m1 in monos:
            for m2 in monos:
                e1, e2 = Element.monomial(alg, m1), Element.monomial(alg, m2)
                sign = (-1) ** (alg.monomial_degree(m1) * alg.monomial_degree(m2))
                assert e1 * e2 == (e2 * e1).scaled(sign)


def test_graded_commutativity_sampled():
    alg = cached_surface(2, 3)
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    rng = random.Random(5)
    for _ in range(10_000):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        e1, e2 = Element.monomial(alg, m1), Element.monomial(alg, m2)
        sign = (-1) ** (alg.monomial_degree(m1) * alg.monomial_degree(m2))
        assert e1 * e2 == (e2 * e1).scaled(sign)


def test_associativity_sampled():
    alg = cached_surface(2, 3)
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    rng = random.Random(9)
    for _ in range(2000):
        e1, e2, e3 = (Element.monomial(alg, rng.choice(monos)) for _ in range(3))
        assert (e1 * e2) * e3 == e1 * (e2 * e3)


def test_tensor_multiply_no_crossing():
    alg = cached_surface(1, 1)
    u, v = alg.a(1), alg.b(1)
    left = slot_embed(u, 2, 1) * slot_embed(v, 2, 2)
    assert left == TensorElement.of_elements([u, v])


def test_tensor_multiply_single_crossing_sign():
    alg = cached_surface(1, 1)
    u, v = alg.a(1), alg.b(1)  # both odd
    left = slot_embed(v, 2, 2) * slot_embed(u, 2, 1)
    assert left == TensorElement.of_elements([u, v]).scaled(-1)
    # even against odd: no sign
    w = alg.omega(1)
    left = slot_embed(u, 2, 2) * slot_embed(w, 2, 1)
    assert left == TensorElement.of_elements([w, u])


def test_tensor_multiply_matches_two_slot_rule():
    # (a'_1 (x) a''_1)(a'_2 (x) a''_2) = (-1)^{deg a''_1 deg a'_2} products
    alg = cached_surface(2, 1)
    rng = random.Random(13)
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    for _ in range(500):
        m = [rng.choice(monos) for _ in range(4)]
        t1 = TensorElement.of_elements(
            [Element.monomial(alg, m[0]), Element.monomial(alg, m[1])]
        )
        t2 = TensorElement.of_elements(
            [Element.monomial(alg, m[2]), Element.monomial(alg, m[3])]
        )
        sign = (-1) ** (alg.monomial_degree(m[1]) * alg.monomial_degree(m[2]))
        expected = TensorElement.of_elements(
            [
                Element.monomial(alg, m[0]) * Element.monomial(alg, m[2]),
                Element.monomial(alg, m[1]) * Element.monomial(alg, m[3]),
            ]
        ).scaled(sign)
        assert t1 * t2 == expected


def test_tensor_associativity_sampled():
    alg = cached_surface(1, 2)
    rng = random.Random(17)
    monos = [m for ms in alg.monomials_by_degree for m in ms]

    def rand_tensor():
        terms = {}
        for _ in range(2):
            t = (rng.choice(monos), rng.choice(monos), rng.choice(monos))
            terms[t] = Fraction(rng.randint(-2, 2))
        return TensorElement(alg, 3, {t: c for t, c in terms.items() if c})

    for _ in range(200):
        t1, t2, t3 = rand_tensor(), rand_tensor(), rand_tensor()
        assert (t1 * t2) * t3 == t1 * (t2 * t3)


def test_tensor_arity_one_is_multiply():
    alg = cached_surface(2, 2)
    rng = random.Random(23)
    for _ in range(50):
        e1, e2 = random_element(alg, rng), random_element(alg, rng)
        t = TensorElement.of_elements([e1]) * TensorElement.of_elements([e2])
        assert t == TensorElement.of_elements([e1 * e2])


def test_tensor_arity_mismatch():
    alg = cached_surface(1, 1)
    with pytest.raises(ValueError, match="arity mismatch"):
        TensorElement.unit(alg, 2) * TensorElement.unit(alg, 3)


def test_mu_kills_slot_differences():
    alg = cached_surface(1, 2)
    u = alg.a(1) * alg.b(2)
    t = slot_embed(u, 3, 1) - slot_embed(u, 3, 2)
    assert t.mu().is_zero()


def test_mu_of_unit():
    alg = cached_surface(1, 1)
    for s in (2, 3, 4):
        assert TensorElement.unit(alg, s).mu() == Element.unit(alg)


def test_mu_two_slots():
    alg = cached_surface(1, 1)
    t = TensorElement.of_elements([alg.a(1), alg.b(1)])
    assert t.mu() == alg.omega(1)


def test_mu_is_linear_and_restores_slot_embeddings():
    alg = cached_surface(2, 2)
    rng = random.Random(31)
    for _ in range(30):
        e1, e2 = random_element(alg, rng), random_element(alg, rng)
        for s in (2, 3):
            k = rng.randint(1, s)
            assert slot_embed(e1, s, k).mu() == e1
            t1 = slot_embed(e1, s, 1)
            t2 = slot_embed(e2, s, s)
            assert (t1 + t2).mu() == t1.mu() + t2.mu()
            assert t1.scaled(3).mu() == t1.mu().scaled(3)


def test_poincare_polynomial_surface():
    for g in (1, 2, 3):
        alg = cached_surface(g, 1)
        assert alg.dimensions_by_degree() == [1, 2 * g, 1]


def test_poincare_polynomial_powers_match_oracle():
    for (g, n) in ((1, 2), (2, 2), (2, 3), (3, 2)):
        alg = cached_surface(g, n)
        expected = poly_pow([1, 2 * g, 1], n)
        assert alg.dimensions_by_degree() == expected
        assert alg.dimension == sum(expected) == (2 * g + 2) ** n


# Element and TensorElement share one sparse base: each check runs on both.
SPARSE_KINDS = {
    "element": lambda e: e,
    "tensor": lambda e: TensorElement.of_elements([e]),
}


@pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
def test_cancellation_stores_no_zero(kind):
    wrap = SPARSE_KINDS[kind]
    alg = cached_surface(2, 2)
    rng = random.Random(43)
    for _ in range(20):
        x = wrap(random_element(alg, rng, nterms=4))
        assert (x - x).terms == {}
        assert (x + (-x)).terms == {}
        assert x.scaled(0).terms == {}


def test_add_terms_drops_cancelled_keys():
    out = {"a": Fraction(1), "b": Fraction(2)}
    assert _add_terms(out, [("a", Fraction(-1)), ("c", Fraction(3)), ("c", Fraction(-3))]) is out
    assert out == {"b": Fraction(2)}


def test_element_never_equals_a_tensor():
    alg = cached_surface(1, 1)
    for e in (Element.zero(alg), Element.unit(alg), alg.a(1) + alg.omega(1)):
        t = TensorElement.of_elements([e])
        assert e != t and t != e
        assert t.mu() == e


def test_mixed_sums_raise():
    alg = cached_surface(1, 1)
    e = alg.a(1)
    t = TensorElement.of_elements([alg.b(1)])
    for left, right in ((e, t), (t, e)):
        with pytest.raises(ValueError, match="cannot add"):
            left + right
        with pytest.raises(ValueError, match="cannot add"):
            left - right


def test_of_summands_is_the_signed_sum_of_pure_tensors():
    alg = cached_surface(2, 2)
    one, x, y = Element.unit(alg), alg.x(2), alg.y(1)
    # (x, 1, y) twice, once with the unit as default and once with x, and -(1, y, x)
    summands = [
        (1, one, ((0, x), (2, y))),
        (-1, y, ((0, one), (2, x))),
        (1, x, ((1, one), (2, y))),
    ]
    expected = (
        TensorElement.of_elements([x, one, y]).scaled(2)
        - TensorElement.of_elements([one, y, x])
    )
    assert TensorElement.of_summands(alg, 3, summands) == expected
    # a summand of no exceptions holds its default in every slot
    assert TensorElement.of_summands(alg, 2, [(1, x, ())]) == TensorElement.of_elements([x, x])
    # a unit slot is appended without a product; a scaled unit still multiplies
    negated = {(m, alg.one): -c for m, c in x.terms.items()}
    assert TensorElement.of_summands(alg, 2, [(-1, one, ((0, x),))]).terms == negated
    doubled = {(alg.one, m): 2 * c for m, c in x.terms.items()}
    assert TensorElement.of_summands(alg, 2, [(1, x, ((0, one.scaled(2)),))]).terms == doubled
    # opposite summands cancel without storing a zero
    cancel = TensorElement.of_summands(alg, 3, [summands[0], (-1, x, ((1, one), (2, y)))])
    assert cancel.terms == {}
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"slot {k} out of range for arity 3"):
            TensorElement.of_summands(alg, 3, [(1, one, ((k, x),))])
    gf2 = TruncatedPolynomialAlgebra(GF2, truncation=4)
    t = Element.monomial(gf2, 1)
    # over GF(2) the sign -1 is 1
    assert TensorElement.of_summands(gf2, 2, [(-1, t, ())]) == TensorElement.of_elements([t, t])


def test_truncated_polynomial_algebra():
    alg = TruncatedPolynomialAlgebra(GF2, truncation=4)
    assert alg.dimension == 4
    assert alg.dimensions_by_degree() == [1, 1, 1, 1]
    t = Element.monomial(alg, 1)
    t2 = t * t
    assert t2 == Element.monomial(alg, 2)
    assert (t2 * t2).is_zero()
    assert (t * t * t).to_text() == "+1 t^3"


def test_truncated_polynomial_rational_variant():
    alg = TruncatedPolynomialAlgebra(RATIONALS, truncation=3, gen_degree=2, name="u")
    u = Element.monomial(alg, 1)
    assert (u * u).to_text() == "+1 u^2"
    assert (u * u * u).is_zero()


def test_truncated_polynomial_guard():
    with pytest.raises(SizeGuardError):
        TruncatedPolynomialAlgebra(GF2, truncation=100, max_basis=10)
    # a limit of 0 is a limit, not "unset"
    with pytest.raises(SizeGuardError):
        TruncatedPolynomialAlgebra(GF2, truncation=50, max_basis=0)
