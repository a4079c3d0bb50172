import random
from fractions import Fraction

import pytest

from conftc.algebra import Element, TensorElement, TruncatedPolynomialAlgebra
from conftc.certificates import rp3_algebra
from conftc.errors import SizeGuardError
from conftc.fields import RATIONALS
from conftc.linalg import GradedSubspace
from conftc.quotients import (
    QuotientAlgebra,
    build_quotient,
    cached_quotient,
    cached_surface,
    ideal_span,
)
from conftc import quotients, surfaces
from conftc.surfaces import (
    SurfacePowerAlgebra,
    shifted_basis_products,
    omega_letter,
    xy_pair_relations,
    totaro_relations,
)

from oracles import (
    b_ideal_leads,
    cross_handle_predicate,
    cross_handle_relations,
    dense_rank,
    eager_ideal_span,
    genus_embedding,
    handle_reduced_image,
    monomial_multiples,
    surface_letter_rule,
    verify_subalgebra_chain,
)
from test_linalg import rref_rows


def reduced_basis_count_formula(g, n):
    return 3**n + n * (2 * g - 1) * 3 ** (n - 1)


def test_empty_ideal_is_zero_subspace():
    alg = cached_surface(1, 2)
    space = ideal_span(alg, [])
    assert space.total_rank() == 0
    q = QuotientAlgebra(space)
    e = alg.a(1) * alg.b(2) + alg.omega(1)
    assert q.normal_form(e) == e
    assert q.dimension == alg.dimension


def test_pair_ideal_ranks_for_two_points_on_torus():
    alg = cached_surface(1, 2)
    gens, units = totaro_relations(alg)
    space = ideal_span(alg, gens, units)
    assert space.rank(2) == 1
    # degree 3: the span of the four letter multiples of the generator,
    # rank checked against dense elimination
    r = gens[0]
    products = [
        (m * r).terms
        for m in (alg.a(1), alg.b(1), alg.a(2), alg.b(2))
    ]
    assert space.rank(3) == dense_rank(products)


def test_base_axis_dimension_for_two_points_on_torus():
    alg = cached_surface(1, 2)
    qe = cached_quotient(1, 2, "E")
    assert qe.dimension == 16 - qe.ideal.total_rank()
    # informational sanity: the quotient vanishes above the expected
    # homotopy dimension n + 1 = 3 here (not asserted in general)
    assert qe.dimensions_by_degree()[4] == 0


def test_key_identity_in_base_axis_quotient():
    for g in (1, 2):
        alg = cached_surface(g, 3)
        qe = cached_quotient(g, 3, "E")
        for j in (2, 3):
            lhs = qe.normal_form(alg.x(j) * alg.y(j))
            rhs = qe.normal_form(
                alg.omega(j)
                - alg.omega(1)
                + alg.y(1) * alg.x(j)
                - alg.x(1) * alg.y(j)
            )
            assert lhs == rhs


def test_mixed_letter_product_survives_in_a():
    # x_j(p) x_j(1) = -a_j(p) a_1(1), nonzero in the intermediate quotient
    qa = cached_quotient(2, 2, "A")
    alg = qa.parent
    e = qa.normal_form(alg.x(2, 2) * alg.x(2, 1))
    assert e == qa.normal_form(-(alg.a(2, 2) * alg.a(1, 1)))
    assert not e.is_zero()


def test_absorption_exhaustive():
    cases = [
        (1, 2, "B", lambda alg: list(xy_pair_relations(alg))),
        (2, 2, "E", lambda alg: list(totaro_relations(alg)[0])),
        (2, 2, "B", lambda alg: list(cross_handle_relations(alg)) + list(xy_pair_relations(alg))),
    ]
    for g, n, kind, genfn in cases:
        # every multiple is formed in the power algebra, and mapped to A for B
        alg = cached_surface(g, n)
        q = cached_quotient(g, n, kind)
        gens = genfn(alg)
        for d in range(alg.top_degree + 1):
            for m in alg.monomials_of_degree(d):
                me = Element.monomial(alg, m)
                for r in gens:
                    if d + r.degree() > alg.top_degree:
                        continue
                    e = me * r if q.parent is alg else handle_reduced_image(me * r)
                    assert q.normal_form(e).is_zero()


def test_normal_form_is_ring_map_on_samples():
    rng = random.Random(19)
    for (g, n, kind) in ((1, 2, "E"), (2, 2, "B"), (2, 2, "A")):
        q = cached_quotient(g, n, kind)
        alg = q.parent
        monos = [m for ms in alg.monomials_by_degree for m in ms]
        for _ in range(100):
            e1 = Element.monomial(alg, rng.choice(monos), Fraction(rng.randint(1, 3)))
            e1 = e1 + Element.monomial(alg, rng.choice(monos), Fraction(rng.randint(-2, 2)))
            e2 = Element.monomial(alg, rng.choice(monos)) + Element.monomial(
                alg, rng.choice(monos), Fraction(rng.randint(-2, 3))
            )
            assert q.normal_form(e1 * e2) == q.normal_form(q.normal_form(e1) * q.normal_form(e2))
            nf = q.normal_form(e1)
            assert q.normal_form(nf) == nf  # idempotent
            # linearity
            assert q.normal_form(e1 + e2) == q.normal_form(e1) + q.normal_form(e2)


def test_dim_a_matches_restricted_bases():
    for (g, n) in ((2, 2), (2, 3), (3, 2)):
        qa = cached_quotient(g, n, "A")
        alg = qa.parent
        reduced = [Element.monomial(alg, m) for ms in alg.monomials_by_degree for m in ms]
        shifted = [e for _, e in shifted_basis_products(alg)]
        expected = reduced_basis_count_formula(g, n)
        assert qa.dimension == expected == len(reduced) == len(shifted)
        # both families have full rank in the quotient
        for family in (reduced, shifted):
            space = GradedSubspace(range(alg.top_degree + 1), alg.field)
            inserted = 0
            for e in family:
                nf = qa.normal_form(e)
                assert not nf.is_zero()
                d = nf.degree()
                if space.insert(nf.terms, d):
                    inserted += 1
            assert inserted == expected


def test_two_omega_chains_linearly_independent():
    for (g, n) in ((2, 2), (2, 3), (3, 2)):
        qb = cached_quotient(g, n, "B")
        alg = qb.parent
        vx = alg.omega(1)
        vy = alg.omega(1)
        for i in range(2, n + 1):
            vx = vx * alg.x(i)
            vy = vy * alg.y(i)
        d = n + 1
        space = GradedSubspace([d], alg.field)
        for e in (qb.normal_form(vx), qb.normal_form(vy)):
            assert space.insert(e.terms, d)
        assert space.rank(d) == 2


def test_tensor_normal_form_identity_on_standard_slots():
    qb = cached_quotient(2, 2, "B")
    alg = qb.parent
    std = [Element.monomial(alg, m) for m in qb.standard_monomials(2)[:3]]
    t = TensorElement.of_elements([std[0], std[1]])
    assert qb.tensor_normal_form(t) == t


def test_tensor_normal_form_annihilates_ideal_slots():
    alg = cached_surface(2, 2)
    qb = cached_quotient(2, 2, "B")
    gen = list(cross_handle_relations(alg))[0]
    t = TensorElement.of_elements([gen, Element.unit(alg)])
    assert qb.tensor_normal_form(handle_reduced_image(t)).is_zero()


def test_quotient_mu():
    alg = cached_surface(1, 2)
    qe = cached_quotient(1, 2, "E")
    r = totaro_relations(alg)[0][0]
    t = TensorElement.of_elements([r, Element.unit(alg)])
    assert qe.mu(t).is_zero()


def test_quotient_label_and_algebra_validation():
    alg = cached_surface(1, 1)
    space = ideal_span(alg, [])
    with pytest.raises(ValueError, match="unknown quotient label"):
        QuotientAlgebra(space, label="NOPE")
    other = cached_surface(1, 2)
    q = QuotientAlgebra(space, label="CUSTOM")
    with pytest.raises(ValueError, match="does not belong"):
        q.normal_form(Element.unit(other))


def test_inhomogeneous_generator_rejected():
    alg = cached_surface(1, 1)
    with pytest.raises(ValueError, match="inhomogeneous"):
        ideal_span(alg, [alg.a(1) + alg.omega(1)])


def test_genus_embedding_maps_letters():
    src = cached_surface(1, 2)
    dst = cached_surface(2, 2)
    embed = genus_embedding(src, dst)
    assert embed(src.a(1)) == dst.a(1)
    assert embed(src.omega(2)) == dst.omega(2)
    e = src.a(1) * src.b(2) - src.omega(1).scaled(2)
    assert embed(e) == dst.a(1) * dst.b(2) - dst.omega(1).scaled(2)
    with pytest.raises(ValueError, match="generator-preserving"):
        genus_embedding(cached_surface(2, 2), cached_surface(1, 2))
    with pytest.raises(ValueError, match="generator-preserving"):
        genus_embedding(cached_surface(1, 1), cached_surface(1, 2))
    with pytest.raises(ValueError, match="source algebra"):
        embed(dst.a(1))


def test_subalgebra_chain():
    assert verify_subalgebra_chain(2, 2).ok
    rep = verify_subalgebra_chain(3, 2)
    assert rep.ok
    assert any(c.source_genus == 2 and c.target_genus == 3 for c in rep.checks)
    # vacuous for a single point
    assert verify_subalgebra_chain(2, 1).ok
    with pytest.raises(ValueError):
        verify_subalgebra_chain(1, 2)


# -- the quotient tower against ambient elimination ----------------------

TOWER_GRID = (
    [(1, n) for n in (1, 2, 3, 4)]
    + [(2, n) for n in (1, 2, 3, 4, 5)]
    + [(3, 3), (3, 4), (4, 2), (4, 3)]
)


def ambient_quotient(alg, kind):
    """'A' or 'B' by eliminating every generator multiple in the ambient basis."""
    gens = list(cross_handle_relations(alg))
    if kind == "B":
        gens += list(xy_pair_relations(alg))
    return QuotientAlgebra(ideal_span(alg, gens))


@pytest.mark.parametrize("g,n", TOWER_GRID)
def test_tower_matches_ambient_elimination(g, n):
    alg = cached_surface(g, n)
    for kind in ("A", "B"):
        tower = cached_quotient(g, n, kind)
        oracle = ambient_quotient(alg, kind)
        for d in range(alg.top_degree + 1):
            assert tower.standard_monomials(d) == oracle.standard_monomials(d)
            for m in alg.monomials_of_degree(d):
                e = Element.monomial(alg, m)
                expected = handle_reduced_image(oracle.normal_form(e))
                assert tower.normal_form(handle_reduced_image(e)) == expected


B_IDEAL_CELLS = [
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 4),
]


@pytest.mark.parametrize("g,n", B_IDEAL_CELLS)
def test_b_ideal_pivots_are_the_multiples_of_two_families(g, n):
    # Two families of monomials generate the leading monomials of B's
    # ideal over A: the pivots, the least monomial of each row, are exactly
    # the words of A that are a multiple of one of them.  So these leads'
    # families form a Groebner basis of the ideal for the tuple order.
    reduced = cached_surface(g, n).handle_reduced
    span = build_quotient(reduced, "B").ideal
    expected = monomial_multiples(reduced, b_ideal_leads(reduced))
    for d in range(reduced.top_degree + 1):
        assert span.pivots(d) == expected[d]


@pytest.mark.parametrize("g,n", [(2, 3), (3, 3)])
def test_b_ideal_pivots_need_every_lead_and_no_other(g, n):
    # Dropping any one lead of either family, or adding the lead w_1, gives
    # multiples that are not B's pivots: the check above can fail.
    reduced = cached_surface(g, n).handle_reduced
    span = build_quotient(reduced, "B").ideal
    pivots = [span.pivots(d) for d in range(reduced.top_degree + 1)]
    leads = b_ideal_leads(reduced)
    assert monomial_multiples(reduced, leads) == pivots
    w1 = (omega_letter(g),) + (0,) * (n - 1)
    mutants = [leads[:k] + leads[k + 1 :] for k in range(len(leads))] + [leads + [w1]]
    for mutant in mutants:
        assert monomial_multiples(reduced, mutant) != pivots


def count_mono_mul(monkeypatch):
    """Count the monomial products: ``mono_mul`` calls, and the terms that a
    map made by ``_times`` multiplies at each call."""
    calls = [0]
    orig, orig_times = SurfacePowerAlgebra.mono_mul, SurfacePowerAlgebra._times

    def counting(self, m1, m2):
        calls[0] += 1
        return orig(self, m1, m2)

    def counting_times(self, terms):
        terms = list(terms)
        times = orig_times(self, terms)

        def counted(m):
            calls[0] += len(terms)
            return times(m)

        return counted

    monkeypatch.setattr(SurfacePowerAlgebra, "mono_mul", counting)
    monkeypatch.setattr(SurfacePowerAlgebra, "_times", counting_times)
    return calls


def test_streamed_products_refuse_elements_of_another_algebra():
    q = cached_quotient(2, 3, "B")
    foreign = SurfacePowerAlgebra(3, 3).a(2, 3)
    with pytest.raises(ValueError, match="element does not belong to the parent algebra"):
        q.mu_of_summands([(1, foreign, ())], 2)
    with pytest.raises(ValueError, match="element does not belong to the parent algebra"):
        q.stream_product(TensorElement.unit(q.parent, 2), [(1, foreign, ())])
    # also behind a summand that vanishes before reaching it
    x = q.parent.x(1)
    with pytest.raises(ValueError, match="element does not belong to the parent algebra"):
        q.mu_of_summands([(1, x, ((2, foreign),))], 3)


def test_equal_elements_built_separately_share_one_piece_table(monkeypatch):
    q = build_quotient(cached_surface(2, 3), "B")
    alg = q.parent
    t = TensorElement.of_elements([alg.y(1), alg.x(2), alg.a(1, 2)])
    summands = [(1, Element.unit(alg), ((0, alg.x(3)), (2, alg.y(2)))), (-1, alg.y(3), ())]
    first = (q.stream_product(t, summands), q.mu_of_summands(summands, 3))
    again = [(1, Element.unit(alg), ((0, alg.x(3)), (2, alg.y(2)))), (-1, alg.y(3), ())]
    calls = count_mono_mul(monkeypatch)
    assert (q.stream_product(t, again), q.mu_of_summands(again, 3)) == first
    assert calls[0] == 0


def test_tower_build_work_counts(monkeypatch):
    alg = SurfacePowerAlgebra(2, 4)
    calls = count_mono_mul(monkeypatch)
    # total_rank eliminates every block of the lazily built rows
    build_quotient(alg, "A").ideal.total_rank()
    assert calls[0] == 0
    build_quotient(alg, "B").ideal.total_rank()
    tower = calls[0]
    calls[0] = 0
    ideal_span(alg, list(cross_handle_relations(alg)) + list(xy_pair_relations(alg))).total_rank()
    ambient = calls[0]
    assert 0 < 4 * tower <= ambient


@pytest.mark.parametrize("ring", ["E", "B"])
def test_block_elimination_builds_no_word_the_letter_table_kills(monkeypatch, ring):
    # The kernel copies a multiplier into a new word (list(m)) only for a
    # term whose letters all multiply with the multiplier's, by the letter
    # rule of the oracles; the elimination calls no mono_mul at all.
    alg = SurfacePowerAlgebra(2, 4)
    local = surface_letter_rule(2)
    built, pairs, alive = [], [0], [0]
    orig_times = SurfacePowerAlgebra._times

    class Word(tuple):
        def __iter__(self):
            built.append(self)
            return super().__iter__()

    def counting_times(self, terms):
        terms = list(terms)
        times = orig_times(self, terms)

        def counted(m):
            for mr, _c in terms:
                pairs[0] += 1
                alive[0] += all(local(c, d) for c, d in zip(m, mr))
            return times(Word(m))

        return counted

    def refused(self, m1, m2):
        raise AssertionError("elimination called mono_mul")

    monkeypatch.setattr(SurfacePowerAlgebra, "_times", counting_times)
    q = build_quotient(alg, ring)
    monkeypatch.setattr(SurfacePowerAlgebra, "mono_mul", refused)
    assert q.ideal.total_rank() == {"E": 725, "B": 225}[ring]
    assert 0 < len(built) == alive[0] < pairs[0]


# -- the diagonal-free base-axis build against every multiplier ----------

E_GRID = (
    [(1, n) for n in (2, 3, 4)]
    + [(2, n) for n in (2, 3, 4, 5)]
    + [(3, 3), (3, 4), (4, 2), (4, 3)]
)


@pytest.mark.parametrize("g,n", E_GRID)
def test_base_axis_matches_elimination_of_every_multiple(g, n):
    alg = cached_surface(g, n)
    built = build_quotient(alg, "E").ideal
    # with no unit coordinates every multiplier is used
    oracle = ideal_span(alg, totaro_relations(alg)[0])
    assert built.degrees() == oracle.degrees()
    for d in oracle.degrees():
        assert built.pivots(d) == oracle.pivots(d)
        assert rref_rows(built, d) == rref_rows(oracle, d)


# -- lead-ordered blocks against the listing-order oracle -------------------

# (1, 5) and (5, 3) take the Koszul rule of totaro_relations to five points and genus 5
ORACLE_CELLS = (
    [(g, n, "E") for g, n in E_GRID + [(1, 5), (5, 3)]]
    + [(1, 3, "B"), (2, 4, "B"), (3, 3, "B")]
)


def oracle_generators(q, ring):
    """The ring's ideal generators and unit coordinates, as ``build_quotient`` spans them."""
    return totaro_relations(q.parent) if ring == "E" else (xy_pair_relations(q.parent), None)


@pytest.mark.parametrize("g,n,ring", ORACLE_CELLS)
def test_lead_ordered_rows_equal_the_listing_order_rows(g, n, ring):
    # every block's stored rows, pivots and entries, against the mono_mul
    # loop that inserts each product in listing order
    q = build_quotient(cached_surface(g, n), ring)
    q.ideal.total_rank()
    oracle = eager_ideal_span(q.parent, *oracle_generators(q, ring))
    assert q.ideal._space._rows == oracle._rows


@pytest.mark.parametrize("g,n,ring", [(1, 4, "E"), (2, 4, "E"), (2, 4, "B"), (3, 3, "B")])
@pytest.mark.parametrize("seed", [1, 2])
def test_shuffled_insertion_gives_the_same_rows(g, n, ring, seed):
    q = build_quotient(cached_surface(g, n), ring)
    q.ideal.total_rank()
    shuffled = eager_ideal_span(q.parent, *oracle_generators(q, ring), rng=random.Random(seed))
    assert q.ideal._space._rows == shuffled._rows


def count_rewritten_rows(monkeypatch):
    """Count the rows each ``insert`` back-substitutes into: those that hold its new pivot."""
    rewritten = [0]
    orig = GradedSubspace.insert

    def counting(self, v, degree):
        if r := self.reduce(v, degree):
            rewritten[0] += len(self._holders.get(degree, {}).get(min(r), ()))
        return orig(self, v, degree)

    monkeypatch.setattr(GradedSubspace, "insert", counting)
    return rewritten


def count_inserts(monkeypatch):
    calls = [0]
    orig = GradedSubspace.insert

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(GradedSubspace, "insert", counting)
    return calls


def test_base_axis_build_work_counts(monkeypatch):
    alg = SurfacePowerAlgebra(2, 4)
    calls = count_mono_mul(monkeypatch)
    inserts = count_inserts(monkeypatch)
    ambient = ideal_span(alg, totaro_relations(alg)[0])
    assert ambient.total_rank() == 725
    ambient_calls = calls[0]
    assert ambient_calls == 37284
    calls[0] = inserts[0] = 0
    built = build_quotient(alg, "E")
    assert built.ideal.total_rank() == 725
    assert 4 * calls[0] <= ambient_calls
    # 1,296 multiples carry the unit at the generator's unit coordinate; the
    # Koszul rule of totaro_relations skips 300 of them
    assert inserts[0] == 996


def test_ideal_span_refuses_mixed_weights_and_spans_an_unweighted_algebra():
    # each generator has terms of two weights, so it is refused
    alg = cached_surface(2, 2)
    for r in (alg.a(2, 2) * 2 - alg.b(1), alg.b(1) * 2 + alg.b(1, 2) * 2):
        with pytest.raises(ValueError, match="inhomogeneous"):
            ideal_span(alg, [r])
    # an algebra without a weight; the pivot 2 takes the Fraction path
    trunc = TruncatedPolynomialAlgebra(RATIONALS, truncation=5, gen_degree=2)
    space = ideal_span(trunc, [Element.monomial(trunc, 2, 2)])
    assert [space.rank(d) for d in space.degrees()] == [0, 0, 0, 0, 1, 0, 1, 0, 1]
    assert space.reduce({4: Fraction(3)}, 8) == {}  # t^4 has degree 8


def test_stacked_ideal_keeps_only_the_rows_above_the_base():
    alg = cached_surface(2, 3)
    qa = cached_quotient(2, 3, "A")
    qb = cached_quotient(2, 3, "B")
    assert qa.ideal.total_rank() == 0
    # B's rows hold only A's standard monomials, the listing both keep
    for d in qb.ideal.degrees():
        standard = set(qa.standard_monomials(d))
        assert set(qb.standard_monomials(d)) <= standard
        for row in rref_rows(qb.ideal, d).values():
            assert set(row) <= standard
    killed = cross_handle_predicate(alg)
    assert qa.dimension == sum(
        1 for ms in alg.monomials_by_degree for m in ms if not killed(m)
    )
    assert qb.dimension == qa.dimension - qb.ideal.total_rank()


def test_stacking_validation():
    alg = cached_surface(2, 2)
    # a1(2) a2(2) has two letters of index 2, so it is no basis word of A;
    # in the power algebra it is the pivot of the row
    rows = ideal_span(alg, [alg.a(1, 2) * alg.a(2, 2)])
    assert rows.pivots(2) == [(3, 3)]
    with pytest.raises(ValueError, match="unknown quotient kind"):
        build_quotient(alg, "Z")


def test_repr_names_the_parent():
    assert repr(cached_quotient(2, 2, "B")) == (
        "QuotientAlgebra(CERTIFICATE, HandleReducedAlgebra(genus=2, points=2))"
    )
    trunc = TruncatedPolynomialAlgebra(RATIONALS, 4)
    q = QuotientAlgebra(ideal_span(trunc, []))
    assert repr(q) == f"QuotientAlgebra(CUSTOM, {trunc!r})"
    # the same in every run: no object address
    assert repr(trunc) == "TruncatedPolynomialAlgebra(RATIONALS, 4, 1, 't')"
    gf2 = rp3_algebra()
    rp3 = QuotientAlgebra(ideal_span(gf2, []))
    assert "0x" not in repr(rp3)
    assert repr(rp3) == "QuotientAlgebra(CUSTOM, TruncatedPolynomialAlgebra(GF2, 4, 1, 't'))"


def test_a_and_b_share_one_parent_listed_once(monkeypatch):
    assert cached_quotient(2, 3, "A").parent is cached_quotient(2, 3, "B").parent
    calls = []
    listing = surfaces.reduced_monomials

    def counted(algebra):
        calls.append(algebra)
        return listing(algebra)

    monkeypatch.setattr(surfaces, "reduced_monomials", counted)
    alg = SurfacePowerAlgebra(2, 3)
    qa, qb = build_quotient(alg, "A"), build_quotient(alg, "B")
    assert qa.parent is qb.parent is alg.handle_reduced
    assert qb.dimension == 70
    assert calls == [alg.handle_reduced]


def test_quotients_list_their_basis_before_building_relations(monkeypatch):
    # E's O(n^2) pair relations carry O(g) terms of n letters each: a refused
    # basis must stop the build before they exist.
    def refuse(algebra):
        raise AssertionError("relations built before the basis was listed")

    monkeypatch.setattr(quotients, "totaro_relations", refuse)
    monkeypatch.setattr(quotients, "xy_pair_relations", refuse)
    alg = SurfacePowerAlgebra(2, 12, max_basis=10**5)
    with pytest.raises(SizeGuardError, match="ambient basis size"):
        build_quotient(alg, "E")
    with pytest.raises(SizeGuardError, match="handle-reduced basis size"):
        build_quotient(alg, "B")


def test_cached_quotient_sees_a_changed_basis_limit(monkeypatch):
    monkeypatch.delenv("TCCONF_MAX_BASIS", raising=False)
    assert cached_quotient(2, 3, "B").dimension == 70
    monkeypatch.setenv("TCCONF_MAX_BASIS", "10")
    with pytest.raises(SizeGuardError):
        cached_quotient(2, 3, "B")
    with pytest.raises(SizeGuardError):
        cached_surface(2, 3).dimension
