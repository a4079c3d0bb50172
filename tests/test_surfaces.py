import pytest

from conftc.algebra import Element
from conftc.errors import ConfigurationError, SizeGuardError, basis_limit
from conftc.quotients import cached_surface
from conftc.surfaces import (
    RelationSet,
    SurfacePowerAlgebra,
    a_letter,
    b_letter,
    reduced_basis_count,
    reduced_monomials,
    shifted_basis_products,
    cross_handle_relations,
    xy_pair_relations,
    omega_letter,
    totaro_relations,
)

from oracles import (
    cross_handle_predicate,
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


@pytest.mark.parametrize("g,n", [(2, 2), (1, 3)])
def test_mono_mul_matches_brute_force_signs(g, n):
    alg = SurfacePowerAlgebra(g, n)
    degree = [0] + [1] * (2 * g) + [2]
    monos = [m for ms in alg.monomials_by_degree for m in ms]
    for m1 in monos:
        for m2 in monos:
            expected = sorted_letter_product(m1, m2, degree, surface_letter_rule(g))
            assert alg.mono_mul(m1, m2) == expected, (m1, m2)


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
    assert killed(alg.parse_word("a1(2)*b2(3)"))
    assert killed(alg.parse_word("w1*w3"))
    assert killed(alg.parse_word("a1(1)*w2*a3(2)"))
    assert not killed(alg.parse_word("a1(1)*b2(1)*w3"))
    assert not killed(alg.parse_word("a2(3)*b3(1)"))
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
    assert len(totaro_relations(cached_surface(1, 1))) == 0
    alg = cached_surface(1, 2)
    rels = totaro_relations(alg)
    assert rels.label == "TOTARO"
    assert len(rels) == 1
    expected = (
        alg.omega(1) + alg.omega(2) + alg.b(1) * alg.a(2) - alg.a(1) * alg.b(2)
    )
    assert rels.generators[0] == expected
    for g in (1, 2):
        rels3 = totaro_relations(cached_surface(g, 3))
        assert len(rels3) == 3
        assert all(r.degree() == 2 for r in rels3)
        assert rels3.unit_coordinates == (1, 1, 2)
    with pytest.raises(ValueError, match="one entry per generator"):
        RelationSet("TOTARO", rels3.generators, (1, 1))


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
    assert rels.label == "XY_PAIRS"
    assert len(rels) == 4
    expected = [
        alg.x(2) * alg.y(2),
        alg.x(2) * alg.y(3),
        alg.x(3) * alg.y(2),
        alg.x(3) * alg.y(3),
    ]
    assert list(rels.generators) == expected
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
    for word in ("a1(2)*b2(2)", "w1*w3", "a1(1)*w2*a3(2)"):
        m = SurfacePowerAlgebra(2, 3).parse_word(word)
        assert not reduced.is_monomial(m)
        with pytest.raises(ValueError, match="not in the basis"):
            Element.monomial(reduced, m)
        with pytest.raises(ValueError, match="not in the basis"):
            Element.from_text(reduced, f"1 {word}")
    assert Element.monomial(reduced, reduced.parse_word("a1(1)*b2(1)*w3"))
    assert reduced.a(2, 2) * reduced.omega(3) == Element.zero(reduced)
    assert reduced.a(2, 2) * reduced.a(3, 1) != Element.zero(reduced)
