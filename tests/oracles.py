"""Independent reference computations used to freeze expected test values.

Everything here is deliberately naive: dense Gaussian elimination over
Fraction lists, schoolbook polynomial arithmetic, and brute combinatorial
enumeration.  None of it shares code with the package's sparse kernel,
except the tensor helpers (:func:`slot_embed`, :func:`slot_difference`,
:func:`expanded`, :func:`multiplied` and :func:`iterated_bar`), which build
tensors from pure ones and multiply them out with the kernel's expanded
tensor product, the reference that the package's streamed products are
checked against, :func:`eager_ideal_span`, which inserts every generator
multiple into a ``GradedSubspace`` up front and is the reference for the
package's on-demand blocks, and the cross-checks at the end, which compare
the package's own quotients with each other: the certificate in ``E``
against the one in ``B`` (:func:`ring_agreement`), and the certificate
rings of consecutive genera (:func:`verify_subalgebra_chain`), and the
lemma suites with every product formed on its own
(:func:`unshared_lemma_identities`), the reference for the shared partial
products of ``certificates.verify_lemma_identities``.  A reference computed in the power algebra reaches the handle-reduced algebra
through :func:`handle_reduced_image`, which drops words by
:func:`cross_handle_predicate` and not by the package's ``special``.  The
generators of that ideal, :func:`cross_handle_relations`, are the
reference the package's handle-reduced algebra is checked against by
eliminating their multiples in the power algebra.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from conftc.algebra import Element, TensorElement, _add_terms
from conftc.certificates import LemmaCheck, LemmaReport, _letter_family, evaluate_certificate
from conftc.linalg import GradedSubspace
from conftc.quotients import cached_quotient, cached_surface
from conftc.surfaces import UNIT, a_letter, b_letter, shifted_basis_products, xy_pair_relations


def dense_rows(vectors, keys=None):
    """Dense Fraction rows from dict-keyed sparse vectors."""
    if keys is None:
        keys = sorted(set().union(*[set(v) for v in vectors]) if vectors else set())
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(keys)
        for k, c in v.items():
            row[index[k]] = Fraction(c)
        rows.append(row)
    return rows, keys


def row_reduce(rows):
    """In-place reduced row echelon form; returns the rank."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def dense_rank(vectors):
    rows, _ = dense_rows(list(vectors))
    return row_reduce(rows)


def dense_membership(vectors, candidate):
    """True iff the candidate lies in the span of the vectors."""
    vs = list(vectors)
    return dense_rank(vs + [candidate]) == dense_rank(vs)


def dense_solve_in_span(vectors, target):
    """Coefficients with sum(c_i * v_i) = target, or None.

    Solves the column system by eliminating an augmented matrix whose
    columns are the vectors.
    """
    vs = list(vectors)
    keys = sorted(
        set().union(*[set(v) for v in vs + [target]]) if vs or target else set()
    )
    index = {k: i for i, k in enumerate(keys)}
    m = [[Fraction(0)] * (len(vs) + 1) for _ in keys]
    for j, v in enumerate(vs):
        for k, c in v.items():
            m[index[k]][j] = Fraction(c)
    for k, c in target.items():
        m[index[k]][len(vs)] = Fraction(c)
    rank = row_reduce(m)
    coeffs = [Fraction(0)] * len(vs)
    for row in m[:rank]:
        lead = next((j for j, c in enumerate(row) if c), None)
        if lead is None:
            continue
        if lead == len(vs):
            return None  # inconsistent
        coeffs[lead] = row[len(vs)]
    # verify (guards against free variables making the read-off wrong)
    check = {}
    for j, c in enumerate(coeffs):
        if not c:
            continue
        for k, v in vs[j].items():
            check[k] = check.get(k, Fraction(0)) + c * Fraction(v)
    target_f = {k: Fraction(c) for k, c in target.items() if c}
    if {k: c for k, c in check.items() if c} != target_f:
        return None
    return coeffs


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_pow(p, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def surface_letter_rule(genus):
    """The product of two letter codes in one coordinate, from the definitions.

    a(p) b(p) = w and b(p) a(p) = -w, 1 u = u 1 = u, and every other
    pair is 0.  Returns (letter, sign) or None; codes as in ``surfaces``.
    """
    w = 2 * genus + 1
    table = {}
    for u in range(w + 1):
        table[0, u] = table[u, 0] = (u, 1)
    for p in range(1, genus + 1):
        table[2 * p - 1, 2 * p] = (w, 1)
        table[2 * p, 2 * p - 1] = (w, -1)
    return lambda c1, c2: table.get((c1, c2))


def sorted_letter_product(m1, m2, degree, local):
    """Product of two per-coordinate letter words by explicit transpositions.

    The word m1 m2 (the letters of m1 in coordinate order, then those of
    m2) is bubble-sorted by coordinate, flipping the sign whenever two odd
    letters swap; each coordinate's adjacent pair is then multiplied with
    ``local`` (a letter pair -> (letter, sign) or None).
    """
    word = list(enumerate(m1)) + list(enumerate(m2))
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            (i, c), (j, d) = word[k], word[k + 1]
            if i > j:
                if degree[c] % 2 and degree[d] % 2:
                    sign = -sign
                word[k], word[k + 1] = word[k + 1], word[k]
    out = []
    for k in range(0, len(word), 2):
        r = local(word[k][1], word[k + 1][1])
        if r is None:
            return None
        out.append(r[0])
        sign *= r[1]
    return tuple(out), sign


def omission_patterns(n, s):
    """All subset tuples (J_1..J_s) with each i omitted from exactly one slot.

    Generated from the omission assignments directly; there are s^n of
    them and they are pairwise distinct.
    """
    patterns = set()
    for omit in product(range(1, s + 1), repeat=n):
        pattern = tuple(
            frozenset(i + 1 for i in range(n) if omit[i] != k)
            for k in range(1, s + 1)
        )
        patterns.add(pattern)
    return patterns


def binomial_mod2_truncated_power(exponent, truncation):
    """(t (x) 1 + 1 (x) t)^exponent over GF(2) with t^truncation = 0.

    Returns the set of surviving (i, j) exponent pairs.
    """

    def choose(a, b):
        from math import comb

        return comb(a, b)

    return {
        (k, exponent - k)
        for k in range(exponent + 1)
        if choose(exponent, k) % 2 == 1
        and k < truncation
        and exponent - k < truncation
    }


def slot_embed(element, arity, slot):
    """element placed in the given slot (1-based), 1 elsewhere."""
    unit = Element.unit(element.algebra)
    return TensorElement.of_elements([element if k == slot else unit for k in range(1, arity + 1)])


def slot_difference(element, arity, slot):
    """element in slot 1 minus element in the given slot."""
    return slot_embed(element, arity, 1) - slot_embed(element, arity, slot)


def expanded(summands, arity):
    """The tensor element of a nonempty list of summands (sign, default, exceptions)."""
    return TensorElement.of_summands(summands[0][1].algebra, arity, summands)


def slots(summand, arity):
    """The slot elements (e_1, ..., e_s) of a summand (sign, default, exceptions)."""
    _sign, default, exceptions = summand
    elements = [default] * arity
    for k, e in exceptions:
        elements[k] = e
    return tuple(elements)


def multiplied(algebra, arity, tensors):
    """The product of the tensors, left to right, with the expanded tensor product."""
    acc = TensorElement.unit(algebra, arity)
    for t in tensors:
        acc = acc * t
    return acc


def iterated_bar(u, s):
    """The product over slots 2..s of (u in slot 1 minus u in that slot).

    Multiplied out factor by factor with tensor products, for any u.
    """
    return multiplied(u.algebra, s, (slot_difference(u, s, slot) for slot in range(2, s + 1)))


def cross_handle_relations(algebra):
    """All mixed products of index >= 2 letters across distinct coordinates.

    Empty for genus 1; these present the handle-reduced quotient A of the
    power algebra.
    """
    gens = []
    n, g = algebra.points, algebra.genus
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for u in range(2, g + 1):
                for v in range(2, g + 1):
                    for left in (algebra.a(i, u), algebra.b(i, u)):
                        for right in (algebra.a(j, v), algebra.b(j, v)):
                            gens.append(left * right)
    return tuple(gens)


def cross_handle_predicate(algebra):
    """Membership test for the basis monomials of the CROSS_HANDLE ideal.

    The ideal generated by the mixed products of index >= 2 letters is a
    monomial ideal, spanned by the monomials with two or more coordinates
    carrying an index >= 2 or w letter (letter code >= 3); for genus 1 it
    is zero.
    """
    if algebra.genus == 1:
        return lambda m: False
    return lambda m: sum(1 for c in m if c >= 3) >= 2


def b_ideal_leads(algebra):
    """The leading monomials of two families that generate B's ideal over A.

    Leading means least in tuple order.  The first family is the leads of
    the generators x_i y_j for i, j = 2..n: a_i(1) b_j(1) when i != j and
    w_i when i = j.  The second is the monomials a_1(1) b_k(1) s_l and
    b_1(1) a_k(1) s_l for k != l in 2..n, with s = a(p) or b(p) for
    2 <= p <= g.  Letter codes as in ``surfaces``.
    """
    n, g = algebra.points, algebra.genus
    a1, b1, w = 1, 2, 2 * g + 1

    def word(*letters):
        m = [0] * n
        for i, c in letters:
            m[i - 1] = c
        return tuple(m)

    leads = [
        word((i, w)) if i == j else word((i, a1), (j, b1))
        for i in range(2, n + 1)
        for j in range(2, n + 1)
    ]
    for k in range(2, n + 1):
        for l in range(2, n + 1):
            if k != l:
                for s in range(3, 2 * g + 1):  # a(p), b(p) for p >= 2
                    leads += [word((1, a1), (k, b1), (l, s)), word((1, b1), (k, a1), (l, s))]
    return leads


def monomial_multiples(algebra, leads):
    """The words m of A with m = ±u·L for a word u of A and L in leads, by degree.

    A's words are the letter words that :func:`cross_handle_predicate`
    keeps.  A letter m_i is a multiple u_i L_i of the letter L_i when
    :func:`surface_letter_rule` gives it for some u_i; the u_i are then
    unique, and u has no more special letters than m, so u lies in A.
    Returns one sorted list per degree.
    """
    g, n = algebra.genus, algebra.points
    local = surface_letter_rule(g)
    letters = range(2 * g + 2)
    divides = {(c, r[0]) for u in letters for c in letters if (r := local(u, c))}
    killed = cross_handle_predicate(algebra)
    degree = [0] + [1] * (2 * g) + [2]
    out = [[] for _ in range(2 * n + 1)]
    for m in product(letters, repeat=n):
        if killed(m):
            continue
        if any(all((c, d) in divides for c, d in zip(lead, m)) for lead in leads):
            out[sum(degree[c] for c in m)].append(m)
    return out


def handle_reduced_image(x):
    """The image of a power-algebra element or tensor in the handle-reduced algebra.

    Drops every word with two special letters (``cross_handle_predicate``),
    in any slot of a tensor, and keeps the rest on ``handle_reduced``.
    """
    killed = cross_handle_predicate(x.algebra)
    reduced = x.algebra.handle_reduced
    if isinstance(x, TensorElement):
        terms = {t: c for t, c in x.terms.items() if not any(map(killed, t))}
        return TensorElement(reduced, x.arity, terms)
    return Element(reduced, {m: c for m, c in x.terms.items() if not killed(m)})


def eager_ideal_span(algebra, generators, units=None, rng=None):
    """Every block of ``quotients.ideal_span(algebra, generators, units)``, eliminated at once.

    The elimination loop as it ran before the blocks were built on demand:
    each generator times each usable multiplier of each degree, in listing
    order, with a ``mono_mul`` loop, inserted into its degree, where no
    block is sealed.  With ``rng`` (a ``random.Random``) the products are
    inserted in the order it shuffles them to instead.  Returns the
    ``GradedSubspace`` as built.
    """
    top = algebra.top_degree
    space = GradedSubspace(range(top + 1), algebra.field)
    products = []
    for r, unit in zip(generators, units or (None,) * len(generators)):
        if r.is_zero():
            continue
        e = r.degree()
        for d in range(top - e + 1):
            for m in algebra.monomials_by_degree[d]:
                if unit is not None and m[unit - 1] != algebra.one[unit - 1]:
                    continue
                pairs = []
                for mr, cr in r.terms.items():
                    res = algebra.mono_mul(m, mr)
                    if res is not None:
                        pairs.append((res[0], cr if res[1] > 0 else -cr))
                vec = _add_terms({}, pairs)
                if vec:
                    products.append((vec, d + e))
    if rng is not None:
        rng.shuffle(products)
    for vec, degree in products:
        space.insert(vec, degree)
    return space


def ring_agreement(genus, points, stages, allow_large=False):
    """Check that the base-axis evaluation maps slotwise onto the small ring.

    Returns (ok, certificate_in_B, certificate_in_E).
    """
    cert_b = evaluate_certificate(genus, points, stages, ring="B", allow_large=allow_large)
    cert_e = evaluate_certificate(genus, points, stages, ring="E", allow_large=allow_large)
    qb = cached_quotient(genus, points, "B", allow_large)
    mapped = qb.tensor_normal_form(handle_reduced_image(cert_e.result))
    ok = cert_b.nonzero and cert_e.nonzero and mapped == cert_b.result
    return ok, cert_b, cert_e


# -- the genus chain -------------------------------------------------------


def genus_embedding(src, dst):
    """Element map induced by the identity on generators between genera.

    Letters a_i(p), b_i(p) keep their meaning; the top class of the source
    goes to the top class of the target.
    """
    if src.points != dst.points or src.genus > dst.genus:
        raise ValueError("no generator-preserving map between these algebras")
    src_omega = 2 * src.genus + 1
    dst_omega = 2 * dst.genus + 1

    def map_element(e):
        if e.algebra is not src:
            raise ValueError("element does not belong to the source algebra")
        terms = {}
        for m, c in e.terms.items():
            mm = tuple(dst_omega if cde == src_omega else cde for cde in m)
            terms[mm] = c
        return Element(dst, terms)

    return map_element


@dataclass
class ChainCheck:
    source_genus: int
    target_genus: int
    relation_label: str
    index: int
    ok: bool


@dataclass
class ChainReport:
    genus: int
    points: int
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def verify_subalgebra_chain(genus, points, allow_large=False):
    """Check the generator maps between consecutive certificate rings.

    Every defining relation of the source ring must normal-form to zero
    in the target ring; failures are reported per relation.
    """
    if genus < 2:
        raise ValueError("the chain check needs a target genus of at least 2")
    report = ChainReport(genus, points)
    for h in range(1, genus):
        src = cached_surface(h, points, allow_large)
        dst = cached_surface(h + 1, points, allow_large)
        target = cached_quotient(h + 1, points, "B", allow_large)
        embed = genus_embedding(src, dst)
        for label, rels in (
            ("CROSS_HANDLE", cross_handle_relations(src)),
            ("XY_PAIRS", xy_pair_relations(src)),
        ):
            for k, r in enumerate(rels):
                ok = target.normal_form(handle_reduced_image(embed(r))).is_zero()
                report.checks.append(ChainCheck(h, h + 1, label, k, ok))
    return report


# -- the lemma suites, unshared ----------------------------------------------


def unshared_lemma_identities(genus, points, allow_large=False):
    """``certificates.verify_lemma_identities`` with every product formed on its own.

    The suites as they ran before they shared partial products: lemma 1
    multiplies each shifted basis element v by x_j y_j, once per (v, j),
    and every other instance multiplies out its own factors, left to right.
    The checks, names, counts and first-failure labels must be the same.

    Computes in the handle-reduced algebra A itself, the parent of the 'A'
    quotient: A has no relations beyond its basis, so an element vanishes
    there exactly when it has no terms.  The pairwise cases need at least
    three points and are skipped below that.  Also checks the
    factorizations, none with a term of two special letters, that justify
    trading the pair relations for x_i y_j.
    """
    if genus < 2:
        raise ValueError("the identity suites require genus at least 2")
    if points < 2:
        raise ValueError("the identity suites require at least 2 points")
    alg = cached_quotient(genus, points, "A", allow_large).parent
    report = LemmaReport(genus, points)

    def add(name, ok, detail=""):
        report.checks.append(LemmaCheck(name, ok, detail))

    def aggregate(name, instances):
        """instances: iterable of (label, element that must vanish)."""
        count = 0
        for label, e in instances:
            count += 1
            if e:
                add(name, False, f"first failure: {label}")
                return
        add(name, True, f"{count} instances")

    shifted_products = shifted_basis_products(alg)
    special = alg.special
    X1, Y1 = a_letter(1), b_letter(1)  # the codes of x(1) and y(1)
    coords = range(1, points + 1)
    xyw = {t: (alg.x(t), alg.y(t), alg.omega(t)) for t in coords}
    fam = {t: _letter_family(alg, t) for t in coords}
    x1, y1, w1 = xyw[1]

    # First lemma: products against x_j y_j.
    for j in range(2, points + 1):
        xj, yj, wj = xyw[j]
        r = xj * yj
        others = [k - 1 for k in range(2, points + 1) if k != j]
        # lemma1(i), (ii) and (iii): v x_j y_j vanishes for each shifted basis
        # element v with a letter at j, with a special first letter, and with
        # a plain first letter and a special letter at some k other than 1
        # and j.  One pass forms each v x_j y_j once and tallies it in every
        # family that holds v.
        counts, failed = [0, 0, 0], [False, False, False]
        for m, e in shifted_products:
            member = (
                m[j - 1] != UNIT,
                special[m[0]],
                m[0] in (X1, Y1) and any(special[m[k]] for k in others),
            )
            if any(member):
                survives = bool(e * r)
                for f in range(3):
                    if member[f]:
                        counts[f] += 1
                        failed[f] = failed[f] or survives
        for f, (family, label) in enumerate(
            [
                ("i", f"v with letter at {j}"),
                ("ii", "v with special first letter"),
                ("iii", "v with plain first letter and a special elsewhere"),
            ]
        ):
            detail = f"first failure: {label}" if failed[f] else f"{counts[f]} instances"
            add(f"lemma1({family}) j={j}", not failed[f], detail)
        add(
            f"lemma1(iv) j={j}",
            x1 * r == x1 * wj + w1 * xj,
        )
        add(
            f"lemma1(v) j={j}",
            y1 * r == y1 * wj + w1 * yj,
        )
        for k in range(2, points + 1):
            if k == j:
                continue
            aggregate(
                f"lemma1(vi) j={j} k={k}",
                (
                    (lab, z * r - (z * y1 * xj - z * x1 * yj))
                    for lab, c, z in fam[k]
                    if special[c]
                ),
            )

    # Second lemma: products against x_i y_j for distinct i, j >= 2.
    for i in range(2, points + 1):
        xi, yi, wi = xyw[i]
        # The products z_1 z_i of lemma2(4) and lemma2(6), the same for every j.
        pairs_1i = [
            (f"{l1}*{li}", c1, ci, z1 * zi)
            for l1, c1, z1 in fam[1]
            for li, ci, zi in fam[i]
        ]
        for j in range(2, points + 1):
            if i == j:
                continue
            xj, yj, wj = xyw[j]
            r = xi * yj
            pair = f"(i={i},j={j})"
            add(
                f"lemma2(1)(i) {pair}",
                yi * r == -(wi * yj) + w1 * yj - y1 * xi * yj + x1 * yi * yj,
            )
            # z r = -z x_1 y_j for a special z at i
            aggregate(
                f"lemma2(1)(ii) {pair}",
                (
                    (lab, z * r + z * x1 * yj)
                    for lab, c, z in fam[i]
                    if special[c]
                ),
            )
            aggregate(
                f"lemma2(1) others vanish {pair}",
                (
                    (lab, z * r)
                    for lab, c, z in fam[i]
                    if c == X1
                ),
            )
            add(
                f"lemma2(2)(iii) {pair}",
                xj * r == -(xi * wj) + xi * w1 + y1 * xi * xj - x1 * xi * yj,
            )
            # z r = -z x_i y_1 for a special z at j
            aggregate(
                f"lemma2(2)(iv) {pair}",
                (
                    (lab, z * r + z * xi * y1)
                    for lab, c, z in fam[j]
                    if special[c]
                ),
            )
            aggregate(
                f"lemma2(2) others vanish {pair}",
                (
                    (lab, z * r)
                    for lab, c, z in fam[j]
                    if c == Y1
                ),
            )
            add(
                f"lemma2(3)(v) {pair}",
                yi * xj * r
                == (
                    y1 * wi * xj
                    + y1 * xi * wj
                    - x1 * wi * yj
                    - x1 * yi * wj
                    + w1 * yi * xj
                    - w1 * xi * yj
                ),
            )
            aggregate(
                f"lemma2(3) others vanish {pair}",
                (
                    (f"{li}*{lj}", zi * zj * r)
                    for li, ci, zi in fam[i]
                    for lj, cj, zj in fam[j]
                    if not (ci == Y1 and cj == X1)
                ),
            )
            add(
                f"lemma2(4)(vi) {pair}",
                x1 * yi * r == -(x1 * wi * yj) - w1 * xi * yj,
            )
            add(
                f"lemma2(4)(vii) {pair}",
                y1 * yi * r == -(y1 * wi * yj) - w1 * yi * yj,
            )
            aggregate(
                f"lemma2(4) others vanish {pair}",
                (
                    (lab, z1i * r)
                    for lab, c1, ci, z1i in pairs_1i
                    if not (c1 in (X1, Y1) and ci == Y1)
                ),
            )
            add(
                f"lemma2(5)(viii) {pair}",
                x1 * xj * r == -(x1 * xi * wj) + w1 * xi * xj,
            )
            add(
                f"lemma2(5)(ix) {pair}",
                y1 * xj * r == -(y1 * xi * wj) + w1 * xi * yj,
            )
            aggregate(
                f"lemma2(5) others vanish {pair}",
                (
                    (f"{l1}*{lj}", z1 * zj * r)
                    for l1, c1, z1 in fam[1]
                    for lj, cj, zj in fam[j]
                    if not (c1 in (X1, Y1) and cj == X1)
                ),
            )
            aggregate(
                f"lemma2(6) triple products vanish {pair}",
                (
                    (f"{lab}*{lj}", z1i * zj * r)
                    for lab, _c1, _ci, z1i in pairs_1i
                    for lj, _cj, zj in fam[j]
                ),
            )

    # Ambient factorizations used to simplify the pair relations.
    for i in range(2, points + 1):
        xi, yi, wi = xyw[i]
        for j in range(i + 1, points + 1):
            xj, yj, wj = xyw[j]
            lhs = (
                wi
                + wj
                + alg.b(i) * alg.a(j)
                - alg.a(i) * alg.b(j)
            )
            prod_ab = (alg.a(i) - alg.a(j)) * (alg.b(i) - alg.b(j))
            prod_xy = (
                xi * yi
                + xj * yj
                - xi * yj
                - xj * yi
            )
            add(f"pair relation factors (i={i},j={j})", lhs == prod_ab)
            add(f"pair relation in x/y letters (i={i},j={j})", prod_ab == prod_xy)

    return report
