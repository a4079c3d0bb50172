"""Property tests: streamed products and on-demand rows against their references, and text round trips.

Examples are generated by hypothesis with a fixed derivation
(``derandomize=True``) and no example database, so every run draws the
same examples.  Hypothesis also caches the literals it reads from local
source files in its storage directory, by default ``.hypothesis`` in the
working directory; that directory is moved to the system temporary
directory, so a run writes nothing into the checkout.
"""

import tempfile
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from conftc.algebra import Element, TensorElement
from conftc.certificates import rp3_algebra
from conftc.quotients import (
    QuotientAlgebra,
    build_quotient,
    cached_quotient,
    cached_surface,
    ideal_span,
)
from conftc.surfaces import totaro_relations, xy_pair_relations

from oracles import eager_ideal_span, handle_reduced_image
from test_linalg import rref_rows

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "conftc-hypothesis")
REPEATABLE = settings(derandomize=True, database=None, max_examples=40, deadline=None)

GF2_ALGEBRA = rp3_algebra()
GF2_ZERO_QUOTIENT = QuotientAlgebra(ideal_span(GF2_ALGEBRA, []))
SPACES = [(g, n, ring) for g, n in ((1, 1), (1, 2), (2, 1), (2, 2)) for ring in ("B", "E")]
SPACES.append("GF2")


def quotient_of(space):
    if space == "GF2":
        return GF2_ZERO_QUOTIENT
    g, n, ring = space
    return cached_quotient(g, n, ring)


def coefficient(data, field):
    if field is GF2_ALGEBRA.field:
        return field.one
    # integral values as int and the rest as Fraction, as the field keeps them,
    # so products mix the two
    c = Fraction(data.draw(st.sampled_from([1, -1, 2, -3])), data.draw(st.integers(1, 3)))
    return c.numerator if c.denominator == 1 else c


def element(data, alg, degree=None):
    """A nonzero element, homogeneous of the given degree, or of mixed degree for None."""
    if degree is None:
        monos = [m for ms in alg.monomials_by_degree for m in ms]
    else:
        monos = alg.monomials_by_degree[degree]
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    return Element(alg, {m: coefficient(data, alg.field) for m in chosen})


def homogeneous_element(data, alg):
    # odd degree 1 first, where the Koszul signs arise, then the rest
    degrees = [d for d, ms in enumerate(alg.monomials_by_degree) if ms]
    return element(data, alg, data.draw(st.sampled_from(sorted(degrees, key=lambda d: d != 1))))


def tensor(data, alg, arity, top=2):
    """A tensor of a few terms of degree at most ``top`` per slot, in normal form or not.

    Low degrees keep most products with a factor nonzero.
    """
    monos = [m for ms in alg.monomials_by_degree[: top + 1] for m in ms]
    keys = st.tuples(*[st.sampled_from(monos)] * arity)
    chosen = data.draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    return TensorElement(alg, arity, {t: coefficient(data, alg.field) for t in chosen})


def summands(data, alg, arity):
    """One to three summands (sign, default, exceptions) of nonzero homogeneous elements.

    The default and each exception are the unit or a drawn element, and the
    exceptions sit at every slot or at a drawn set of slots, so the shapes
    of a slot difference (the unit with one exception), of a bar summand
    (an element with the unit as its one exception) and of a pure tensor
    of independent slots all occur.
    """
    unit = Element.unit(alg)

    def slot_element():
        return unit if data.draw(st.booleans()) else homogeneous_element(data, alg)

    out = []
    for _ in range(data.draw(st.integers(1, 3))):
        sign, default = data.draw(st.sampled_from([1, -1])), slot_element()
        places = range(arity)
        if data.draw(st.booleans()):
            places = sorted(data.draw(st.sets(st.integers(0, arity - 1))))
        out.append((sign, default, tuple((k, slot_element()) for k in places)))
    return out


@REPEATABLE
@given(st.data(), st.sampled_from(SPACES), st.integers(2, 4))
def test_stream_product_equals_the_expanded_product(data, space, arity):
    q = quotient_of(space)
    alg = q.parent
    t = tensor(data, alg, arity)
    pure = summands(data, alg, arity)
    expanded = TensorElement.of_summands(alg, arity, pure)
    assert q.stream_product(t, pure) == q.tensor_normal_form(t * expanded)


@REPEATABLE
@given(st.data(), st.sampled_from(SPACES), st.integers(2, 4))
def test_mu_of_summands_equals_mu_of_the_expanded_tensor(data, space, arity):
    q = quotient_of(space)
    alg = q.parent
    pure = summands(data, alg, arity)
    assert q.mu_of_summands(pure, arity) == q.mu(TensorElement.of_summands(alg, arity, pure))


# Rings B and E at genus 1..3; one or two points keep the expanded products small.
PRODUCT_SPACES = [(g, n, ring) for g in (1, 2, 3) for n in (1, 2) for ring in ("B", "E")]


@settings(REPEATABLE, max_examples=30)
@given(st.data(), st.sampled_from(PRODUCT_SPACES), st.integers(2, 7))
def test_chained_stream_products_equal_the_expanded_products(data, space, arity):
    # t is drawn, in normal form or not, then multiplied by two summand lists
    # in turn.  The second product comes straight after the first, so it
    # reads the terms of the last product as the quotient remembers them:
    # standard, with their slot parities, and a unit default reads no piece.
    # Slots of degree at most 1 keep products with an odd default nonzero.
    q = quotient_of(space)
    alg = q.parent
    first, second = summands(data, alg, arity), summands(data, alg, arity)
    t = tensor(data, alg, arity, top=1)
    once = q.stream_product(t, first)
    twice = q.stream_product(once, second)
    # what the quotient remembers of its last product: every term, with its slot parities
    remembered = {key: bits for key, bits in q._last.values() if key in twice.terms}
    assert remembered == {key: q._parities(key) for key in twice.terms}
    for left, pure, product in ((t, first, once), (once, second, twice)):
        expanded = TensorElement.of_summands(alg, arity, pure)
        assert product == q.tensor_normal_form(left * expanded)
        assert q.mu_of_summands(pure, arity) == q.mu(expanded)


def merging_summands(data, alg, arity):
    """Summands whose groups, once the unit slots are dropped, repeat.

    Slots come from a small pool: the unit (twice, as separate objects), a
    scaled unit over the rationals, which is not dropped, and two
    homogeneous elements.  Each drawn sequence is repeated one to four
    times with drawn signs, so a group can cancel (opposite signs, or an
    even count over GF(2)) or add up.  A repeat may move the units to other
    slots, keeping the rest in order, and may rebuild its elements as
    equal copies.  Each repeat is written with a drawn default, a unit or
    one of its slot elements, and every other slot as an exception, so one
    sequence comes in several forms.
    """
    units = [Element.unit(alg), Element.unit(alg)]
    pool = units + [homogeneous_element(data, alg), homogeneous_element(data, alg)]
    if alg.field is not GF2_ALGEBRA.field:
        pool.append(units[0].scaled(data.draw(st.sampled_from([2, -1, Fraction(1, 2)]))))
    out = []
    for _ in range(data.draw(st.integers(1, 3))):
        slots = [data.draw(st.sampled_from(pool)) for _ in range(arity)]
        for _ in range(data.draw(st.integers(1, 4))):
            repeat = list(slots)
            if data.draw(st.booleans()):
                rest = [e for e in slots if e.terms != units[0].terms]
                places = sorted(data.draw(st.permutations(range(arity)))[: len(rest)])
                repeat = [data.draw(st.sampled_from(units))] * arity
                for k, e in zip(places, rest):
                    repeat[k] = e
            if data.draw(st.booleans()):
                repeat = [Element(alg, dict(e.terms)) for e in repeat]
            default = data.draw(st.sampled_from(repeat + units))
            exceptions = tuple((k, e) for k, e in enumerate(repeat) if e is not default)
            out.append((data.draw(st.sampled_from([1, -1])), default, exceptions))
    return out


@pytest.mark.parametrize("spaces", [SPACES[:-1], ["GF2"]], ids=["rationals", "GF2"])
@REPEATABLE
@given(data=st.data(), arity=st.integers(1, 4))
def test_merged_mu_of_summands_equals_mu_of_the_expanded_tensor(spaces, data, arity):
    q = quotient_of(data.draw(st.sampled_from(spaces)))
    alg = q.parent
    pure = merging_summands(data, alg, arity)
    assert q.mu_of_summands(pure, arity) == q.mu(TensorElement.of_summands(alg, arity, pure))


# -- rows built block by block against the eager elimination ---------------

LAZY_SPACES = [
    (g, n, ring)
    for g, n in ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (3, 3))
    for ring in ("B", "E")
]
LAZY_SPACES.append((2, 5, "B"))


@lru_cache(maxsize=None)
def eager_rows(g, n, ring):
    """The oracle's span for the quotient's ideal, with every block eliminated up front."""
    alg = cached_quotient(g, n, ring).parent
    gens = totaro_relations(alg) if ring == "E" else (xy_pair_relations(alg), None)
    return eager_ideal_span(alg, *gens)


def eager_normal_form(span, e):
    """Reduce each degree of e by the span."""
    parts = {}
    for m, c in e.terms.items():
        parts.setdefault(e.algebra.monomial_degree(m), {})[m] = c
    out = {}
    for d, vec in parts.items():
        out.update(span.reduce(vec, d))
    return Element(e.algebra, out)


@pytest.mark.parametrize("g,n,ring", LAZY_SPACES)
@settings(REPEATABLE, max_examples=5)
@given(data=st.data())
def test_rows_built_on_demand_equal_the_eager_rows(g, n, ring, data):
    # A new quotient per example: its blocks are eliminated in the order the
    # drawn elements reach them, then degree by degree in a drawn order.
    # Elements are drawn in the power algebra and mapped to B's parent A.
    power = cached_surface(g, n)
    q = build_quotient(power, ring)
    alg = q.parent
    oracle = eager_rows(g, n, ring)
    ambient = [m for ms in power.monomials_by_degree for m in ms]
    listed = [m for ms in alg.monomials_by_degree for m in ms]
    monomials = st.one_of(st.sampled_from(listed), st.sampled_from(ambient))
    for _ in range(data.draw(st.integers(1, 4))):
        chosen = data.draw(st.lists(monomials, min_size=1, max_size=6, unique=True))
        e = Element(power, {m: coefficient(data, alg.field) for m in chosen})
        e = e if alg is power else handle_reduced_image(e)
        assert q.normal_form(e) == eager_normal_form(oracle, e)
    for d in data.draw(st.permutations(range(alg.top_degree + 1))):
        assert q.ideal.pivots(d) == oracle.pivots(d)
        assert rref_rows(q.ideal, d) == rref_rows(oracle, d)


# -- the handle-reduced algebra as the image of the power algebra ---------


@pytest.mark.parametrize("g,n", [(1, 2), (2, 2), (2, 3), (3, 2)])
@REPEATABLE
@given(data=st.data())
def test_handle_reduced_image_is_a_ring_map(g, n, data):
    power = cached_surface(g, n)
    e1, e2 = element(data, power), element(data, power)
    image = handle_reduced_image
    assert image(e1 * e2) == image(e1) * image(e2)
    assert image(e1).algebra is cached_quotient(g, n, "B").parent
