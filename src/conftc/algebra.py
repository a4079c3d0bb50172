"""Sparse elements of finite-dimensional graded algebras and their tensor powers.

An algebra object owns a finite monomial basis organized by degree and
multiplies two basis monomials to one signed monomial or zero; so does a
quotient by a monomial ideal, where a product leaving the basis is zero.
:class:`Element` is a sparse scalar combination of monomials,
:class:`TensorElement` one of s-tuples of monomials with the Koszul sign
convention: moving a factor of degree p past one of degree q costs
(-1)^{pq}.  Both keep their terms as a dict from key to nonzero
coefficient, and share their linear structure, equality and text form
through one private base class.

Elements print to a stable text form, one signed coefficient followed by
a monomial word per term (tensor slots joined by ``(x)``).
"""

from __future__ import annotations

from functools import cached_property

from .errors import DEFAULT_MAX_BASIS, SizeGuardError


class GradedAlgebraBase:
    """Shared monomial bookkeeping for concrete algebra presentations.

    Subclasses set ``top_degree`` and implement ``is_monomial``,
    ``monomial_degree``, ``_monomials``, ``mono_mul`` and ``monomial_word``;
    ``monomial_weight`` may add a grading that lets elimination split each
    degree into blocks.  Monomials are hashable and ordered, and their own
    order is the one used for pivots and text output; ``one`` is the unit
    monomial.  A monomial's degree and validity
    come from the monomial itself, so products never list the basis; the
    basis is listed on first use of the queries below, and by ideal spans
    unless a subclass enumerates its blocks by rule (a ``_block`` method).
    """

    field = None
    one = None
    top_degree = None

    # -- basis queries -------------------------------------------------

    @cached_property
    def monomials_by_degree(self):
        """The basis monomials of each degree, in order."""
        by_deg = [[] for _ in range(self.top_degree + 1)]
        deg = self.monomial_degree
        for m in self._monomials():
            by_deg[deg(m)].append(m)
        return [tuple(ms) for ms in by_deg]

    def monomials_of_degree(self, degree):
        if not 0 <= degree <= self.top_degree:
            raise ValueError(f"degree out of range: {degree}")
        return self.monomials_by_degree[degree]

    def dimensions_by_degree(self):
        return [len(ms) for ms in self.monomials_by_degree]

    @property
    def dimension(self):
        return sum(self.dimensions_by_degree())

    # -- presentation hooks --------------------------------------------

    def is_monomial(self, m):
        """True when m is a basis monomial."""
        raise NotImplementedError

    def monomial_degree(self, m):
        raise NotImplementedError

    def _monomials(self):
        """Every basis monomial, in order; guards the size of the listing."""
        raise NotImplementedError

    def mono_mul(self, m1, m2):
        """Product of two basis monomials: ``(monomial, sign)`` or None."""
        raise NotImplementedError

    def _times(self, terms):
        """The map m -> m times the element of these terms, as a terms dict: a ``mono_mul`` loop."""
        e = Element(self, dict(terms))
        return lambda m: (Element.monomial(self, m) * e).terms

    def monomial_weight(self, m):
        """A grading finer than degree that products add; 0 (trivial) by default."""
        return 0

    def monomial_word(self, m) -> str:
        raise NotImplementedError


def _coerce(field, c):
    return field.from_int(c) if isinstance(c, int) else c


def _add_terms(out, pairs):
    """Add (key, coefficient) pairs into the terms dict ``out`` and return it.

    A key whose coefficients sum to zero is dropped, so ``out`` never holds
    a zero.  Every sum and product of sparse combinations accumulates here.
    """
    for k, c in pairs:
        s = out.get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class _SparseCombination:
    """A dict ``terms`` from keys to nonzero coefficients over ``algebra.field``.

    Holds the linear structure, equality, hashing and the text form.  A
    subclass says what its keys are (``_shape``, ``_key_word``) and how
    they multiply; keys are written out in their own order.
    """

    __slots__ = ()

    def _shape(self):
        """The constructor arguments between ``algebra`` and ``terms``.

        Two combinations of one type and algebra are equal only if these are.
        """
        return ()

    def _like(self, terms):
        """A combination of the same type, algebra and shape with these terms.

        ``terms`` must hold no zero, so the constructor's filter is skipped:
        sums come from :func:`_add_terms`, and over a field negating or
        scaling by a nonzero scalar keeps every coefficient nonzero.
        """
        new = object.__new__(type(self))
        new.algebra = self.algebra
        new.terms = terms
        return new

    def _require_same(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    # -- linear structure -----------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            raise ValueError(
                f"cannot add {type(self).__name__} and {type(other).__name__}"
            )
        self._require_same(other)
        return self._like(_add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scaled(self, c):
        c = _coerce(self.algebra.field, c)
        if not c:
            return self._like({})
        return self._like({k: v * c for k, v in self.terms.items()})

    __rmul__ = scaled

    # -- queries ----------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.algebra is other.algebra
            and self._shape() == other._shape()
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), *self._shape(), frozenset(self.terms.items())))

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        signed = self.algebra.field.signed_text
        return " ".join(
            f"{signed(self.terms[k])} {self._key_word(k)}"
            for k in sorted(self.terms)
        )

    def __repr__(self):
        return f"<{self.to_text()}>"


class Element(_SparseCombination):
    """A sparse linear combination of basis monomials of one algebra.

    Mixed-degree sums are allowed; ``degrees()`` reports the occurring
    degrees.  No zero coefficient is ever stored.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, algebra):
        return cls(algebra, {})

    @classmethod
    def monomial(cls, algebra, m, coeff=1):
        if not algebra.is_monomial(m):
            raise ValueError(f"monomial {m!r} is not in the basis")
        return cls(algebra, {m: _coerce(algebra.field, coeff)})

    @classmethod
    def unit(cls, algebra):
        return cls.monomial(algebra, algebra.one)

    # -- keys -------------------------------------------------------------

    def _key_word(self, m):
        return self.algebra.monomial_word(m)

    # -- products and degrees ---------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scaled(other)
        self._require_same(other)
        mul = self.algebra.mono_mul
        products = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                r = mul(m1, m2)
                if r is not None:
                    c = c1 * c2
                    products.append((r[0], c if r[1] > 0 else -c))
        return self._like(_add_terms({}, products))

    def degrees(self):
        """Sorted tuple of degrees occurring in this element."""
        return tuple(sorted({self.algebra.monomial_degree(m) for m in self.terms}))

    def is_homogeneous(self):
        return len(self.degrees()) <= 1

    def degree(self):
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError(f"element is not homogeneous: degrees {degs}")
        return degs[0]


class TensorElement(_SparseCombination):
    """A sparse combination of s-tuples of monomials of one algebra."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra, arity, terms):
        if arity < 1:
            raise ValueError("tensor arity must be at least 1")
        self.algebra = algebra
        self.arity = arity
        self.terms = {t: c for t, c in terms.items() if c}

    def _shape(self):
        return (self.arity,)

    def _like(self, terms):
        new = super()._like(terms)
        new.arity = self.arity
        return new

    # -- constructors ---------------------------------------------------

    @classmethod
    def unit(cls, algebra, arity):
        one = (algebra.one,) * arity
        return cls(algebra, arity, {one: algebra.field.one})

    @classmethod
    def of_elements(cls, elements):
        """The tensor e_1 (x) ... (x) e_s of algebra elements."""
        return cls.of_summands(
            elements[0].algebra, len(elements), [(1, elements[0], tuple(enumerate(elements)))]
        )

    @classmethod
    def of_summands(cls, algebra, arity, summands):
        """The sum of signed pure tensors given as ``(sign, default, exceptions)``.

        Each summand is an int sign, the element ``default`` in every slot,
        and a tuple ``exceptions`` of ``(k, e)`` pairs that put e in slot k
        (0-based) instead; all elements belong to ``algebra``.  A unit
        slot, most slots of a slot difference, extends the keys without a
        coefficient product.
        """
        terms, one = {}, algebra.one
        unit_terms = {one: algebra.field.one}
        for sign, default, exceptions in summands:
            elements = [default] * arity
            for k, e in exceptions:
                if not 0 <= k < arity:
                    raise ValueError(f"slot {k} out of range for arity {arity}")
                elements[k] = e
            partial = [((), algebra.field.from_int(sign))]
            for e in elements:
                if e.algebra is not algebra:
                    raise ValueError("elements belong to different algebras")
                if e.terms == unit_terms:
                    partial = [(t + (one,), c) for t, c in partial]
                    continue
                partial = [
                    (t + (m,), c * cm) for t, c in partial for m, cm in e.terms.items()
                ]
            _add_terms(terms, partial)
        return cls(algebra, arity, terms)

    # -- keys -------------------------------------------------------------

    def _key_word(self, t):
        return "(x)".join(self.algebra.monomial_word(m) for m in t)

    def _require_same(self, other):
        if self.algebra is not other.algebra:
            raise ValueError("tensor elements belong to different algebras")
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    # -- products ---------------------------------------------------------

    def __mul__(self, other):
        """Slotwise product with the global Koszul sign.

        Moving the slot-k factor of ``other`` past the higher slots of
        ``self`` contributes (-1)^{deg*deg} per crossing.  No library code
        calls it: this is the expanded reference for ``stream_product``.
        """
        if not isinstance(other, TensorElement):
            return self.scaled(other)
        self._require_same(other)
        alg = self.algebra
        deg = alg.monomial_degree
        s = self.arity
        products = []
        for t1, c1 in self.terms.items():
            # sufpar[k]: parity of the total degree of slots k..s-1 of t1
            sufpar = [0] * (s + 1)
            for k in range(s - 1, -1, -1):
                sufpar[k] = sufpar[k + 1] ^ (deg(t1[k]) & 1)
            for t2, c2 in other.terms.items():
                sign = 1
                slots = []
                for k in range(s):
                    if deg(t2[k]) & 1 and sufpar[k + 1]:
                        sign = -sign
                    r = alg.mono_mul(t1[k], t2[k])
                    if r is None:
                        break
                    slots.append(r[0])
                    if r[1] < 0:
                        sign = -sign
                else:
                    c = c1 * c2
                    products.append((tuple(slots), c if sign > 0 else -c))
        return self._like(_add_terms({}, products))

    def mu(self):
        """Multiply the slots left to right; the expanded reference, called by no library code."""
        mul = self.algebra.mono_mul
        products = []
        for t, c in self.terms.items():
            m, sign = t[0], 1
            for m2 in t[1:]:
                r = mul(m, m2)
                if r is None:
                    break
                m = r[0]
                if r[1] < 0:
                    sign = -sign
            else:
                products.append((m, c if sign > 0 else -c))
        return Element(self.algebra, _add_terms({}, products))


class TruncatedPolynomialAlgebra(GradedAlgebraBase):
    """F[t]/(t^k) on one generator of the given degree.

    Used for the mod-2 real-projective-space check and as a tiny search
    space; over the rationals it is only graded-commutative when the
    generator degree is even or the truncation is at most 2.
    """

    def __init__(self, field, truncation, gen_degree=1, name="t", max_basis=None):
        if truncation < 1:
            raise ValueError("truncation must be at least 1")
        limit = DEFAULT_MAX_BASIS if max_basis is None else max_basis
        if truncation > limit:
            raise SizeGuardError(f"basis size {truncation} exceeds the limit {limit}")
        self.field = field
        self.truncation = truncation
        self.gen_degree = gen_degree
        self.name = name
        self.one = 0
        self.top_degree = (truncation - 1) * gen_degree

    def __repr__(self):
        fields = (self.field, self.truncation, self.gen_degree, self.name)
        return f"TruncatedPolynomialAlgebra{fields!r}"

    def is_monomial(self, m):
        return type(m) is int and 0 <= m < self.truncation

    def monomial_degree(self, m):
        return m * self.gen_degree

    def _monomials(self):
        return range(self.truncation)

    def mono_mul(self, m1, m2):
        e = m1 + m2
        return None if e >= self.truncation else (e, 1)

    def monomial_word(self, m) -> str:
        if m == 0:
            return "1"
        if m == 1:
            return self.name
        return f"{self.name}^{m}"
