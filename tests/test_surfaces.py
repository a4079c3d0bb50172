import math
import random
import tracemalloc
from functools import partial

import pytest

from conftc import surfaces
from conftc.algebra import Element, TruncatedPolynomialAlgebra
from conftc.errors import ConfigurationError, SizeGuardError, basis_limit
from conftc.fields import RATIONALS
from conftc.quotients import cached_surface, ideal_span
from conftc.surfaces import (
    MAX_ENTRIES,
    MAX_POINTS,
    SurfacePowerAlgebra,
    a_letter,
    b_letter,
    reduced_basis_count,
    reduced_monomials,
    shifted_basis_products,
    xy_pair_relations,
    omega_letter,
    totaro_relations,
)

from oracles import (
    cross_handle_predicate,
    cross_handle_relations,
    eager_ideal_span,
    poly_pow,
    sorted_letter_product,
    surface_letter_rule,
)


def reduced_basis_count_formula(g, n):
    return 3**n + n * (2 * g - 1) * 3 ** (n - 1)


def test_local_multiply():
    # one-point words multiply as their letters do, with no Koszul sign
    alg = cached_surface(2, 1)
    w = omega_letter(2)

    def local(c1, c2):
        return alg.mono_mul((c1,), (c2,))

    assert local(a_letter(1), b_letter(1)) == ((w,), 1)
    assert local(b_letter(1), a_letter(1)) == ((w,), -1)
    assert local(a_letter(2), b_letter(1)) is None
    assert local(a_letter(1), a_letter(2)) is None
    assert local(b_letter(1), b_letter(2)) is None
    assert local(w, a_letter(1)) is None
    assert local(w, w) is None
    assert local(0, a_letter(2)) == ((a_letter(2),), 1)


def test_generator_range_errors():
    alg = cached_surface(2, 2)
    with pytest.raises(ValueError, match="generator out of range"):
        alg.a(1, 3)
    with pytest.raises(ValueError, match="generator out of range"):
        alg.b(3, 1)
    with pytest.raises(ValueError, match="generator out of range"):
        alg.omega(0)


def test_multiply_dual_pair():
    alg = cached_surface(1, 2)
    assert alg.a(1) * alg.b(1) == alg.omega(1)
    assert alg.b(1) * alg.a(1) == -alg.omega(1)


def test_multiply_odd_letters_anticommute():
    alg = cached_surface(1, 2)
    lhs = alg.a(1) * alg.a(2)
    rhs = alg.a(2) * alg.a(1)
    assert lhs == -rhs
    assert lhs


def test_multiply_matches_pair_expansion():
    # (a_1 - a_2)(b_1 - b_2) expands to the degree-2 pair relation with j = 2
    alg = cached_surface(1, 2)
    lhs = (alg.a(1) - alg.a(2)) * (alg.b(1) - alg.b(2))
    rhs = alg.omega(2) + alg.omega(1) + alg.b(1) * alg.a(2) - alg.a(1) * alg.b(2)
    assert lhs == rhs


def sampled_words(algebra, rng, count):
    """The distinct words of ``count`` random draws, and the unit; every word below genus 100.

    Sampled words hold the unit at about half their coordinates and else
    a letter of four handles, the first, second and last among them, so
    that many of their products are nonzero; words of the handle-reduced
    algebra are kept by the oracle's predicate.
    """
    if algebra.genus < 100:
        return [m for ms in algebra.monomials_by_degree for m in ms]
    g = algebra.genus
    letters = [omega_letter(g)]
    for p in (1, 2, g // 2 + 1, g):
        letters += [a_letter(p), b_letter(p)]
    killed = cross_handle_predicate(algebra)
    reduced = algebra.handle_reduced is algebra
    words = {algebra.one}
    for _ in range(count):
        m = tuple(rng.choice(letters) if rng.random() < 0.5 else 0 for _ in range(algebra.points))
        if not (reduced and killed(m)):
            words.add(m)
    return sorted(words)


def oracle_product(algebra, m1, m2):
    """m1 m2 by explicit transpositions, sent to zero when it leaves a handle-reduced algebra."""
    g = algebra.genus
    degree = [0] + [1] * (2 * g) + [2]
    r = sorted_letter_product(m1, m2, degree, surface_letter_rule(g))
    leaves = algebra.handle_reduced is algebra and cross_handle_predicate(algebra)
    return None if r is None or (leaves and leaves(r[0])) else r


@pytest.mark.parametrize("g,n", [(2, 2), (1, 3), (200, 3)])
def test_mono_mul_matches_brute_force_signs(g, n):
    rng = random.Random(g + n)
    power = SurfacePowerAlgebra(g, n)
    for alg in (power, power.handle_reduced):
        monos = sampled_words(alg, rng, 60)
        for m1 in monos:
            for m2 in monos:
                assert alg.mono_mul(m1, m2) == oracle_product(alg, m1, m2), (m1, m2)
        assert sum(alg.mono_mul(m1, m2) is not None for m1 in monos for m2 in monos) > 100


def mono_mul_loop(alg, m, terms, mul=None):
    """m times the terms, one ``mono_mul`` (or ``mul``) per term, as a terms dict."""
    out = {}
    for m2, c in terms.items():
        r = (mul or alg.mono_mul)(m, m2)
        if r is not None:
            out[r[0]] = out.get(r[0], 0) + r[1] * c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("g,n", [(1, 3), (2, 4), (3, 3), (200, 3)])
def test_times_matches_the_mono_mul_loop(g, n):
    # one term at a time (same word, sign and zero), then whole elements,
    # also against the oracle's product
    rng = random.Random(10 * g + n)
    power = SurfacePowerAlgebra(g, n)
    for alg in (power, power.handle_reduced):
        if g < 100:
            by_degree = alg.monomials_by_degree
        else:
            by_degree = [[] for _ in range(alg.top_degree + 1)]
            for m in sampled_words(alg, rng, 400):
                by_degree[alg.monomial_degree(m)].append(m)

        def pick():  # low degrees, so that many products survive
            return rng.choice(by_degree[rng.randint(0, 3)] or by_degree[0])

        nonzero = 0
        for _ in range(400):
            m = pick()
            terms = {pick(): rng.choice([-3, -1, 1, 2]) for _ in range(rng.randint(1, 6))}
            for term in terms.items():
                got = alg._times([term])(m)
                assert got == mono_mul_loop(alg, m, dict([term])), (m, term)
                nonzero += bool(got)
            got = alg._times(terms.items())(m)
            oracle = mono_mul_loop(alg, m, terms, partial(oracle_product, alg))
            assert got == mono_mul_loop(alg, m, terms) == oracle
        assert nonzero > 100


def test_times_default_is_the_mono_mul_loop():
    alg = TruncatedPolynomialAlgebra(RATIONALS, truncation=5, gen_degree=2)
    terms = {0: 2, 1: -1, 3: 3, 4: 1}
    times = alg._times(terms.items())
    for m in range(5):
        assert times(m) == mono_mul_loop(alg, m, terms)
    assert times(1) == {1: 2, 2: -1, 4: 3}


def test_monomial_weight_is_additive_and_separates_handles():
    alg = SurfacePowerAlgebra(2, 3)
    wt = alg.monomial_weight
    assert wt(alg.one) == 0
    assert wt((a_letter(1), b_letter(1), omega_letter(2))) == 0
    assert wt((a_letter(1), a_letter(1), a_letter(1))) != wt((a_letter(2), 0, 0))
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    weights = {}
    for m1 in monos:
        for m2 in monos:
            r = alg.mono_mul(m1, m2)
            if r is not None:
                assert wt(r[0]) == wt(m1) + wt(m2)
        # the weight determines the per-handle letter counts a(p) - b(p)
        counts = tuple(m1.count(a_letter(p)) - m1.count(b_letter(p)) for p in (1, 2))
        assert weights.setdefault(wt(m1), counts) == counts


def test_surface_power_dimensions():
    alg = SurfacePowerAlgebra(1, 1)
    assert alg.dimension == 4
    assert alg.dimensions_by_degree() == [1, 2, 1]
    assert SurfacePowerAlgebra(2, 2).dimension == 36
    alg23 = cached_surface(2, 3)
    assert alg23.dimensions_by_degree() == poly_pow([1, 4, 1], 3)


def test_size_guard():
    # The ambient listing is guarded by (2g+2)^n, the handle-reduced one by
    # its own count, 3^n + n(2g-1)3^(n-1); building the algebra lists nothing.
    alg = SurfacePowerAlgebra(3, 3, max_basis=200)
    with pytest.raises(SizeGuardError, match="ambient basis size 512 .* limit 200"):
        alg.monomials_of_degree(2)
    assert len(reduced_monomials(alg)) == 162
    with pytest.raises(SizeGuardError, match="handle-reduced basis size 162 .* limit 100"):
        reduced_monomials(SurfacePowerAlgebra(3, 3, max_basis=100))
    assert SurfacePowerAlgebra(3, 3, max_basis=512).dimension == 512


def test_letter_rule_multiplies_at_a_large_genus_without_a_pair_table():
    # At genus 3000 the (2g+2)^2 = 36,024,004 letter pairs would take about
    # 288 MB of pointers; the rule holds two products for each a(p) and
    # b(p) and one for w, built on the first product.
    g = 3000
    tracemalloc.start()
    try:
        alg = SurfacePowerAlgebra(g, 2, max_basis=10**5)
        assert "_rule" not in vars(alg) and "_lweight" not in vars(alg)
        assert alg.a(1) * alg.b(1) == alg.omega(1)
        assert alg.b(2, g) * alg.a(2, g) == -alg.omega(2)
        assert alg.a(1, 1) * alg.b(1, 2) == Element.zero(alg)
        assert alg.omega(1) * alg.a(1, g) == Element.zero(alg)
        assert alg.a(2, 7) * alg.b(1, 9) == -(alg.b(1, 9) * alg.a(2, 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(products) for products in alg._rule[1:]) == 4 * g + 1
    assert peak < 8 * 2**20


def test_sizes_no_list_can_hold_are_refused_under_any_guard():
    with pytest.raises(SizeGuardError, match="letter count 200000000000000000002 "):
        SurfacePowerAlgebra(10**20, 2, max_basis=math.inf)
    with pytest.raises(SizeGuardError, match=f"60 points exceed {MAX_POINTS}"):
        SurfacePowerAlgebra(2, 60, max_basis=math.inf)
    alg = SurfacePowerAlgebra(2, MAX_POINTS, max_basis=math.inf)  # lists nothing
    with pytest.raises(SizeGuardError, match=f"handle-reduced basis size .* limit {MAX_ENTRIES}"):
        reduced_monomials(alg)
    assert 2**MAX_POINTS <= MAX_ENTRIES < 2 ** (MAX_POINTS + 1)


def test_size_guard_env(monkeypatch):
    monkeypatch.setenv("TCCONF_MAX_BASIS", "10")
    with pytest.raises(SizeGuardError, match="ambient basis size 16"):
        SurfacePowerAlgebra(1, 2).dimension
    with pytest.raises(SizeGuardError, match="handle-reduced basis size 16"):
        reduced_monomials(SurfacePowerAlgebra(1, 2))
    monkeypatch.setenv("TCCONF_MAX_BASIS", "100000")
    assert SurfacePowerAlgebra(1, 2).dimension == 16
    assert len(reduced_monomials(SurfacePowerAlgebra(1, 2))) == 16


@pytest.mark.parametrize("value", ["abc", "", "-5", "1e5"])
def test_invalid_basis_limit_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("TCCONF_MAX_BASIS", value)
    with pytest.raises(ConfigurationError, match="TCCONF_MAX_BASIS"):
        basis_limit()
    with pytest.raises(ConfigurationError, match="TCCONF_MAX_BASIS"):
        SurfacePowerAlgebra(1, 2)
    # an explicit limit does not consult the environment
    assert basis_limit(50) == 50


def test_basis_limit_default_and_env(monkeypatch):
    monkeypatch.delenv("TCCONF_MAX_BASIS", raising=False)
    assert basis_limit() == 10**5
    monkeypatch.setenv("TCCONF_MAX_BASIS", "0")
    assert basis_limit() == 0


def test_cross_handle_predicate_marks_two_special_coordinates():
    alg = cached_surface(3, 3)
    killed = cross_handle_predicate(alg)
    assert killed((3, 6, 0))  # a1(2)*b2(3)
    assert killed((7, 0, 7))  # w1*w3
    assert killed((1, 7, 3))  # a1(1)*w2*a3(2)
    assert not killed((1, 2, 7))  # a1(1)*b2(1)*w3
    assert not killed((0, 5, 2))  # a2(3)*b3(1)
    torus = cached_surface(1, 3)
    assert not any(
        cross_handle_predicate(torus)(m) for ms in torus.monomials_by_degree for m in ms
    )


def test_x_y_generators():
    alg = cached_surface(2, 3)
    assert alg.x(1, 1) == alg.a(1, 1)
    assert alg.x(3, 1) == alg.a(3, 1) - alg.a(1, 1)
    assert alg.y(2, 2) == alg.b(2, 2)
    assert alg.y(1, 1) == alg.b(1, 1)
    # definition round-trip: x_i(1) + a_1(1) = a_i(1) for i >= 2
    for i in (2, 3):
        assert alg.x(i, 1) + alg.a(1, 1) == alg.a(i, 1)
        assert alg.y(i, 1) + alg.b(1, 1) == alg.b(i, 1)
    with pytest.raises(ValueError, match="generator out of range"):
        alg.x(4, 1)
    with pytest.raises(ValueError, match="generator out of range"):
        alg.y(1, 3)


def test_totaro_relations():
    assert totaro_relations(cached_surface(1, 1)) == ((), ())
    alg = cached_surface(1, 2)
    gens, units = totaro_relations(alg)
    assert len(gens) == 1 and units == (1,)
    expected = (
        alg.omega(1) + alg.omega(2) + alg.b(1) * alg.a(2) - alg.a(1) * alg.b(2)
    )
    assert gens[0] == expected
    for g in (1, 2):
        gens3, units3 = totaro_relations(cached_surface(g, 3))
        assert len(gens3) == 3
        assert all(r.degree() == 2 for r in gens3)
        assert units3 == (1, 1, 2)
    with pytest.raises(ValueError, match="one entry per generator"):
        ideal_span(cached_surface(2, 3), gens3, (1, 1))


def test_cross_handle_relations():
    alg = cached_surface(2, 2)
    rels = cross_handle_relations(alg)
    gens = set()
    for r in rels:
        assert len(r.terms) == 1
        gens.add(next(iter(r.terms)))
    expected = set()
    for left in (a_letter(2), b_letter(2)):
        for right in (a_letter(2), b_letter(2)):
            expected.add((left, right))
    assert gens == expected
    assert len(cross_handle_relations(cached_surface(1, 3))) == 0
    # pair count times (2(g-1))^2 letters
    assert len(cross_handle_relations(cached_surface(3, 2))) == 16
    assert len(cross_handle_relations(cached_surface(2, 3))) == 3 * 4


def test_xy_pair_relations():
    alg = cached_surface(2, 3)
    rels = xy_pair_relations(alg)
    assert len(rels) == 4
    expected = [
        alg.x(2) * alg.y(2),
        alg.x(2) * alg.y(3),
        alg.x(3) * alg.y(2),
        alg.x(3) * alg.y(3),
    ]
    assert list(rels) == expected
    assert len(xy_pair_relations(cached_surface(2, 1))) == 0
    assert len(xy_pair_relations(cached_surface(1, 2))) == 1


def test_reduced_count_matches_enumeration_and_formula():
    for g in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            alg = cached_surface(g, n)
            # independent enumeration: the ambient basis without the monomials
            # of the CROSS_HANDLE ideal, in tuple order
            killed = cross_handle_predicate(alg)
            ambient = sorted(m for ms in alg.monomials_by_degree for m in ms)
            kept = [m for m in ambient if not killed(m)]
            assert reduced_monomials(alg) == kept
            formula = 4**n if g == 1 else reduced_basis_count_formula(g, n)
            assert len(kept) == reduced_basis_count(g, n) == formula
            reduced = alg.handle_reduced.monomials_by_degree
            by_degree = [m for d in range(2 * n + 1) for m in kept if alg.monomial_degree(m) == d]
            assert [m for ms in reduced for m in ms] == by_degree


def test_shifted_basis_same_cardinality():
    for (g, n) in ((2, 2), (2, 3), (3, 2)):
        alg = cached_surface(g, n)
        products = shifted_basis_products(alg)
        assert len(products) == alg.handle_reduced.dimension
        assert [m for m, _e in products] == reduced_monomials(alg)


@pytest.mark.parametrize("g,n", [(1, 3), (2, 3), (2, 4), (3, 3)])
def test_shifted_basis_elements_are_the_left_to_right_letter_products(g, n):
    # term for term, in the same order, on the power algebra and on A
    for alg in (cached_surface(g, n), cached_surface(g, n).handle_reduced):
        for m, e in shifted_basis_products(alg):
            letters = [alg.shifted_letter(i, c) for i, c in enumerate(m, start=1) if c]
            expected = Element.unit(alg)
            if letters:
                expected = letters[0]
                for z in letters[1:]:
                    expected = expected * z
            assert list(e.terms.items()) == list(expected.terms.items())


def test_shifted_basis_builds_each_word_from_its_prefix(monkeypatch):
    # One product per word with two or more non-unit letters, fewer than
    # there are words, and one build per (coordinate, code) of a letter.
    alg = cached_surface(2, 4).handle_reduced
    products, letters = [0], []
    mul, shifted_letter = Element.__mul__, SurfacePowerAlgebra.shifted_letter

    def counting_mul(self, other):
        products[0] += 1
        return mul(self, other)

    def counting_letter(self, i, c):
        letters.append((i, c))
        return shifted_letter(self, i, c)

    monkeypatch.setattr(Element, "__mul__", counting_mul)
    monkeypatch.setattr(SurfacePowerAlgebra, "shifted_letter", counting_letter)
    words = [m for m, _e in shifted_basis_products(alg)]
    assert len(words) == 405
    assert products[0] == sum(1 for m in words if len(m) - m.count(0) >= 2) < len(words)
    assert len(letters) == len(set(letters))
    assert len(set(letters)) == len({(i, c) for m in words for i, c in enumerate(m, start=1) if c})


def test_shifted_letter_by_code():
    alg = cached_surface(2, 3)
    for i in (1, 2, 3):
        assert alg.shifted_letter(i, 0) == Element.unit(alg)
        assert alg.shifted_letter(i, omega_letter(2)) == alg.omega(i)
        for p in (1, 2):
            assert alg.shifted_letter(i, a_letter(p)) == alg.x(i, p)
            assert alg.shifted_letter(i, b_letter(p)) == alg.y(i, p)


def test_special_letters_are_those_killed_next_to_w():
    # c is special exactly when c next to w lies in the CROSS_HANDLE ideal,
    # found here by eliminating every multiple of its generators
    for g in range(1, 5):
        alg = SurfacePowerAlgebra(g, 2)
        space = eager_ideal_span(alg, cross_handle_relations(alg))
        w = omega_letter(g)
        assert len(alg.special) == w + 1
        for c, special in enumerate(alg.special):
            m = (c, w)
            assert special == (space.reduce({m: 1}, alg.monomial_degree(m)) == {})
        assert any(alg.special) == (g >= 2)


def test_reduced_genus_one_degenerates_to_full_basis():
    alg = cached_surface(1, 2)
    assert alg.handle_reduced.dimension == alg.dimension
    assert len(shifted_basis_products(alg)) == alg.dimension


def test_omega_x_chain_stays_in_reduced_span():
    # w_1 x_2 ... x_n expands into monomials with a single special letter
    alg = cached_surface(2, 3)
    e = alg.omega(1) * alg.x(2) * alg.x(3)
    reduced_monos = {m for ms in alg.handle_reduced.monomials_by_degree for m in ms}
    assert e.terms
    assert set(e.terms) <= reduced_monos


def test_shifted_basis_elements_are_homogeneous():
    alg = cached_surface(2, 2)
    for _m, e in shifted_basis_products(alg):
        assert e.is_homogeneous()
        assert not e.is_zero()


# -- the handle-reduced algebra ---------------------------------------------

REDUCED_CELLS = [(1, 3), (2, 2), (2, 3), (3, 2)]


@pytest.mark.parametrize("g,n", REDUCED_CELLS)
def test_handle_reduced_basis_is_the_filtered_power_basis(g, n):
    power = SurfacePowerAlgebra(g, n)
    reduced = power.handle_reduced
    killed = cross_handle_predicate(power)
    expected = [tuple(m for m in ms if not killed(m)) for ms in power.monomials_by_degree]
    assert reduced.monomials_by_degree == expected
    assert reduced.dimension == reduced_basis_count(g, n)
    assert power.handle_reduced is reduced
    assert reduced.handle_reduced is reduced


@pytest.mark.parametrize("g,n", REDUCED_CELLS)
def test_handle_reduced_product_is_the_power_product_or_zero(g, n):
    power = SurfacePowerAlgebra(g, n)
    reduced = power.handle_reduced
    killed = cross_handle_predicate(power)
    words = [m for ms in reduced.monomials_by_degree for m in ms]
    for m1 in words:
        for m2 in words:
            r = power.mono_mul(m1, m2)
            expected = None if r is None or killed(r[0]) else r
            assert reduced.mono_mul(m1, m2) == expected, (m1, m2)


def test_handle_reduced_refuses_words_with_two_special_letters():
    reduced = SurfacePowerAlgebra(2, 3).handle_reduced
    # a1(2)*b2(2), w1*w3 and a1(1)*w2*a3(2)
    for m in ((3, 4, 0), (5, 0, 5), (1, 5, 3)):
        assert not reduced.is_monomial(m)
        with pytest.raises(ValueError, match="not in the basis"):
            Element.monomial(reduced, m)
    assert Element.monomial(reduced, (1, 2, 5))  # a1(1)*b2(1)*w3
    assert reduced.a(2, 2) * reduced.omega(3) == Element.zero(reduced)
    assert reduced.a(2, 2) * reduced.a(3, 1) != Element.zero(reduced)


def _blocks_by_listing(alg):
    """Every (degree, weight) block of the listed basis, in listing order."""
    blocks = {}
    for d, ms in enumerate(alg.monomials_by_degree):
        for m in ms:
            blocks.setdefault((d, alg.monomial_weight(m)), []).append(m)
    return blocks


def _with_unit(ms, unit):
    return [m for m in ms if unit is None or m[unit - 1] == 0]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_blocks_are_the_filtered_listing_in_order(g):
    # every block of A, and of the power algebra where it has at most 10^4
    # words, with each unit coordinate and with none
    for n in range(1, 6):
        power = SurfacePowerAlgebra(g, n)
        for alg in (power, power.handle_reduced)[(2 * g + 2) ** n > 10**4 :]:
            blocks = _blocks_by_listing(alg)
            for (d, weight), ms in blocks.items():
                for unit in (None, *range(1, n + 1)):
                    assert alg._block(d, weight, unit) == _with_unit(ms, unit), (d, weight)
            # a weight no word of the degree has gives an empty block
            assert alg._block(1, alg.monomial_weight((a_letter(1),) * n)) == ([] if n > 1 else [(1,)])


@pytest.mark.parametrize("g", [200, 1000])
def test_blocks_at_a_large_genus(g):
    power = SurfacePowerAlgebra(g, 3)
    alg = power.handle_reduced
    listed = _blocks_by_listing(alg)  # 10,800 and 54,000 words
    w = omega_letter(g)
    for word in [(0, 0, 0), (1, 2, 0), (3, 0, 2), (2 * g - 1, 1, 1), (0, 2 * g, w), (5, 6, 2)]:
        block = (power.monomial_degree(word), power.monomial_weight(word))
        for unit in (None, 1, 3):
            assert alg._block(*block, unit) == _with_unit(listed.get(block, []), unit)
            # the power algebra's block: its own words, in order, each once
            got = power._block(*block, unit)
            assert got == sorted(set(got))
            assert (word in got) == (unit is None or word[unit - 1] == 0)
            for m in got:
                assert power.is_monomial(m) and (unit is None or m[unit - 1] == 0)
                assert (power.monomial_degree(m), power.monomial_weight(m)) == block
    # degree 2, weight 0: a w, or a(p) and b(p) on two coordinates in either order
    assert len(power._block(2, 0)) == 3 + 6 * g
    assert len(power._block(2, 0, 3)) == 2 + 2 * g


def test_block_work_is_bounded_by_its_words(monkeypatch):
    # Each letter tried is one feasibility test, and every branch taken ends
    # in a word, so the tests per block are at most a constant times the
    # letters of the words it yields, whatever the genus: no coordinate
    # scans the handles.
    calls = [0]
    fits = surfaces._fits

    def counted(*args):
        calls[0] += 1
        return fits(*args)

    monkeypatch.setattr(surfaces, "_fits", counted)
    for g, n in [(1, 5), (2, 5), (4, 4), (200, 3), (1000, 3)]:
        for alg in (SurfacePowerAlgebra(g, n), SurfacePowerAlgebra(g, n).handle_reduced):
            w = omega_letter(g)
            for word in [(0,) * n, (1,) * (n - 1) + (w,), (2 * g - 1, w) + (2,) * (n - 2),
                         (2 * g - 1, 2 * g) + (0,) * (n - 2)]:
                for unit in (None, n):
                    calls[0] = 0
                    got = alg._block(alg.monomial_degree(word), alg.monomial_weight(word), unit)
                    assert calls[0] <= 3 * n * (len(got) + 1), (g, n, word, unit)
