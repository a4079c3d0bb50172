"""Zero-divisor certificates, their evaluation, and the resulting TC table.

A certificate for given (genus, points, stages) is an ordered product of
s-th zero divisors in the s-fold tensor power of the surface power
algebra, evaluated inside a quotient ring small enough to expose the
surviving terms.  A nonzero evaluation of k factors certifies a
zero-divisor cup-length (hence higher topological complexity) lower
bound of k; the factor families are arranged so that k matches the known
upper bound exactly.

The module also houses the identity suites backing the quotient
construction, which compute in the handle-reduced algebra A itself, the
mod-2 truncated-polynomial check for the genus-0 ingredient, and a small
best-effort search for cup-length witnesses in arbitrary finite algebras.

The entry points take one guard switch, ``allow_large``.  Off, the
quotients they build are held to the basis guard and the products to
``errors.DEFAULT_TERM_LIMIT`` tensor terms; on, both guards are lifted.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import prod

from .algebra import Element, TensorElement, TruncatedPolynomialAlgebra
from .errors import (
    DEFAULT_SLOT_LIMIT,
    DEFAULT_TERM_LIMIT,
    SizeGuardError,
    VerificationError,
    check_term_limit,
)
from .fields import GF2
from .quotients import QuotientAlgebra, cached_quotient, ideal_span
from .surfaces import UNIT, a_letter, b_letter


# -- factor construction ----------------------------------------------------
#
# A factor exists only as a short list of signed pure tensors
# (sign, default, exceptions): the element ``default`` in every slot but
# the (k, e) pairs of ``exceptions`` (slot k 0-based), so a summand is O(1)
# whatever the stage count.  The certificate, search-zcl and rp3 multiply
# and check these summands without expanding them
# (``QuotientAlgebra.stream_product`` and ``mu_of_summands``); only a
# certify transcript expands a factor, to print it.


def slot_difference_summands(element, arity, slot):
    """The basic zero divisor as summands: element in slot 1 minus element in the given slot.

    Both summands are the unit everywhere but one slot.
    """
    if not 1 <= slot <= arity:
        raise ValueError(f"slot {slot} out of range for arity {arity}")
    unit, _accepted = _held(element.algebra)
    return [(1, unit, ((0, element),)), (-1, unit, ((slot - 1, element),))]


def bar_summands(u, s):
    """Product over slots 2..s of (u in slot 1 minus u in that slot), as s summands.

    Writing u_k for u placed in slot k, the product is
    (u_1 - u_2)(u_1 - u_3)...(u_1 - u_s).  For u homogeneous of odd degree
    with u*u = 0 its expansion keeps one summand per omitted slot j:

        bar(u, s) = sum over j = 1..s of (-1)^(s+j) * (u in every slot but j, 1 in slot j).

    A choice that takes u_1 twice contains u*u = 0.  The choice that takes
    u_1 at factor j >= 2 has s - 2 factors -u_k, and moving u_1 past the
    odd u_2..u_{j-1} costs (-1)^(j-2); taking no u_1 (j = 1) has s - 1
    factors -u_k.  Either way the sign is (-1)^(s+j).  The summands have
    disjoint supports because u has no unit term.  Any other u is refused.
    Each summand is u everywhere, with the unit as its one exception.
    """
    if s < 2:
        raise ValueError("stages must be at least 2")
    unit, accepted = _held(u.algebra)
    if u not in accepted:
        _check_bar(u)
        accepted.add(u)
    return [(1 if (s + j) % 2 == 0 else -1, u, ((j - 1, unit),)) for j in range(1, s + 1)]


@lru_cache(maxsize=1)
def _held(algebra):
    """The unit of the algebra, one object, so prepared rows meet it once, and the set
    of elements ``bar_summands`` accepted; held for the last algebra only."""
    return Element.unit(algebra), set()


def _check_bar(u):
    if not u.is_homogeneous() or u.is_zero() or u.degree() == 0:
        raise ValueError("bar requires a homogeneous element of positive degree")
    if u.degree() % 2 == 0:
        raise ValueError("bar requires an element of odd degree")
    if not (u * u).is_zero():
        raise ValueError("bar requires an element whose square is zero")


class ZeroDivisorFactor:
    """One multiplicand of a certificate; ``count`` is its factor weight.

    ``kind`` is one of C, D, Y1I, BAR, TILDE and GENERIC.  ``summands``
    holds the factor as signed pure tensors ``(sign, default, exceptions)``
    of ``arity`` slots.  A BAR entry is itself a product of s - 1 basic
    zero divisors and is accounted as such.
    """

    def __init__(self, kind, label, summands, arity, count=1):
        self.kind = kind
        self.label = label
        self.summands = summands
        self.arity = arity
        self.count = count

    def term_count(self):
        """Terms of the expanded tensor, counted without expanding it (an upper bound)."""
        return sum(
            len(d.terms) ** (self.arity - len(exceptions))
            * prod(len(e.terms) for _k, e in exceptions)
            for _sign, d, exceptions in self.summands
        )

    @cached_property
    def tensor(self):
        """The expanded factor, built on first use."""
        algebra = self.summands[0][1].algebra
        return TensorElement.of_summands(algebra, self.arity, self.summands)

    def to_text(self, term_limit=None):
        """The text form of the expanded factor, refused past ``term_limit`` terms."""
        check_term_limit(self.term_count(), term_limit, f"factor {self.label}")
        return self.tensor.to_text()


def certificate_factors(algebra, s):
    """The ordered factor list: c, d (genus >= 2), the y_{1,i}, then bar/tilde pairs.

    c is a_1(2) in slots 1/2; d is b_1(2) in slots 1/2 (s = 2) or 1/3 (s >= 3).
    """
    cd, y1, pairs = _factor_letters(algebra)
    diff, factor = slot_difference_summands, ZeroDivisorFactor
    factors = []
    if cd:
        factors.append(factor("C", "c", diff(cd[0], s, 2), s))
        factors.append(factor("D", "d", diff(cd[1], s, 2 if s == 2 else 3), s))
    factors += [factor("Y1I", f"y1,{i}", diff(y1, s, i), s) for i in range(2, s)]
    for i, (x, y) in enumerate(pairs, start=1):
        factors.append(factor("BAR", f"xbar{i}", bar_summands(x, s), s, count=s - 1))
        factors.append(factor("TILDE", f"ytilde{i}", diff(y, s, s), s))
    return factors


@lru_cache(maxsize=1)
def _factor_letters(algebra):
    """[c, d] (genus >= 2, else empty), y_1 and each (x_i, y_i), built once per algebra."""
    cd = [algebra.a(1, 2), algebra.b(1, 2)] if algebra.genus >= 2 else []
    pairs = [(algebra.x(i), algebra.y(i)) for i in range(1, algebra.points + 1)]
    return cd, algebra.y(1), pairs


def omega_chain_elements(q):
    """Normal forms of w_1 x_2...x_n and w_1 y_2...y_n in the quotient, built on
    first use and kept on it."""
    if q.omega_chains is None:
        vx = vy = q.parent.omega(1)
        for x, y in _factor_letters(q.parent)[2][1:]:
            vx, vy = vx * x, vy * y
        q.omega_chains = q.normal_form(vx), q.normal_form(vy)
    return q.omega_chains


def expected_survivors(q, s):
    """The two tensor terms that should survive a certificate evaluation.

    For s >= 3 these put the y-chain in the first (respectively last)
    slot and the x-chain everywhere else; for s = 2 they are the two
    orderings of the x- and y-chains.
    """
    vx, vy = omega_chain_elements(q)
    if s == 2:
        return [
            TensorElement.of_elements([vx, vy]),
            TensorElement.of_elements([vy, vx]),
        ]
    return [
        TensorElement.of_elements([vy] + [vx] * (s - 1)),
        TensorElement.of_elements([vx] * (s - 1) + [vy]),
    ]


# -- certificate evaluation ---------------------------------------------------


class Certificate:
    """An evaluated certificate: its factors, their product and the checks on it."""

    def __init__(
        self, genus, points, stages, ring, factors, factor_count, result, nonzero,
        support_matches_expected=None, closed_form_match=None, term_limit=None,
        prefix_nonzero=(),
    ):
        self.genus = genus
        self.points = points
        self.stages = stages
        self.ring = ring
        self.factors = factors
        self.factor_count = factor_count
        self.result = result
        self.nonzero = nonzero
        # Two-term support check against the expected survivors (s >= 3) or
        # the doubled closed form (s = 2); None where no such claim applies.
        self.support_matches_expected = support_matches_expected
        self.closed_form_match = closed_form_match
        # The tensor-term limit the evaluation ran under (None: lifted); the
        # factors' transcript text is held to it too.
        self.term_limit = term_limit
        # Whether the product is nonzero after each point's pair: one bool per point.
        self.prefix_nonzero = prefix_nonzero


def evaluate_certificate(genus, points, stages, ring="B", allow_large=False):
    """Multiply the certificate factors with normal forms applied throughout.

    Each factor is streamed into the accumulator summand by summand
    (``QuotientAlgebra.stream_product``), so it is never expanded; this is
    sound because the quotient map is a ring map applied slotwise.  Every
    factor is checked to be a zero divisor from its summands as well; both
    read the factor's ``slot_rows``, prepared once.
    The term limit (``errors.DEFAULT_TERM_LIMIT``) bounds the tensor terms
    held at any time: the accumulator, each summand's product, and each
    factor's transcript text.  The slot limit (``errors.DEFAULT_SLOT_LIMIT``)
    bounds the slots the product writes, at least s per factor, and is
    checked once the quotient is built, before any factor is.
    ``allow_large`` lifts both and the basis guard.
    """
    if stages < 2:
        raise ValueError("stages must be at least 2")
    if genus < 1:
        raise ValueError("certificates require genus at least 1")
    if ring not in ("B", "E"):
        raise ValueError(f"unknown ring {ring!r}; expected 'B' or 'E'")
    limit = None if allow_large else DEFAULT_TERM_LIMIT
    q = cached_quotient(genus, points, ring, allow_large)
    # c and d (genus >= 2), the y_{1,i} and a bar/tilde pair per point
    slots = stages * ((2 if genus >= 2 else 0) + stages - 2 + 2 * points)
    if not allow_large and slots > DEFAULT_SLOT_LIMIT:
        raise SizeGuardError(
            f"the product writes at least {slots} tensor slots, "
            f"which exceeds the limit {DEFAULT_SLOT_LIMIT}",
        )
    factors, rows = _zero_divisor_rows(q, stages)
    acc = TensorElement.unit(q.parent, stages)
    for f_rows in rows[: len(rows) - 2 * points]:
        acc = q.stream_product(acc, f_rows, limit)
    # Each ytilde_i is multiplied before its xbar_i, so the accumulator never
    # holds the s-fold spread of a bar before the ytilde cuts it.  Swapping the
    # n pairs of degrees s - 1 and 1 costs the sign (-1)^(n(s-1)).
    prefix_nonzero = []
    for k in range(len(rows) - 2 * points, len(rows), 2):
        acc = q.stream_product(q.stream_product(acc, rows[k + 1], limit), rows[k], limit)
        prefix_nonzero.append(bool(acc))
    if points * (stages - 1) % 2:
        acc = -acc
    factor_count = _check_count(sum(f.count for f in factors), genus, points, stages)
    nonzero = bool(acc)
    support_ok = None
    closed_ok = None
    if ring == "B" and genus >= 2:
        # The product must be +-m t1 +-m t2, with m = 2 for s = 2 (the
        # closed form) and 1 otherwise; for one point the two survivors
        # coincide and a single +-m t1 remains.
        t1, t2 = expected_survivors(q, stages)
        m = 2 if stages == 2 else 1
        if t1 == t2:
            allowed = [t1.scaled(a) for a in (m, -m)]
        else:
            allowed = [t1.scaled(a) + t2.scaled(b) for a in (m, -m) for b in (m, -m)]
        ok = bool(acc) and acc in allowed
        if stages == 2:
            closed_ok = ok
        else:
            support_ok = ok
    return Certificate(
        genus=genus,
        points=points,
        stages=stages,
        ring=q.label,
        factors=factors,
        factor_count=factor_count,
        result=acc,
        nonzero=nonzero,
        support_matches_expected=support_ok,
        closed_form_match=closed_ok,
        term_limit=limit,
        prefix_nonzero=prefix_nonzero,
    )


def _zero_divisor_rows(q, stages):
    """q's certificate factors and their slot rows, each checked to be a zero divisor in q."""
    factors = certificate_factors(q.parent, stages)
    rows = [q.slot_rows(f.summands, stages) for f in factors]
    for f, f_rows in zip(factors, rows):
        if not q.mu_of_summands(f_rows, stages).is_zero():
            raise VerificationError(f"factor {f.label} is not a zero divisor in {q.label}")
    return factors, rows


def _check_count(count, genus, points, stages):
    """The factor count, refused unless it is the claimed bound of the cell."""
    expected = tc_upper_bound(genus, points, stages)
    if count != expected:
        raise VerificationError(f"factor count {count} does not match the claimed bound {expected}")
    return count


def certificate_record(cert):
    """The ``certify`` record of an evaluated certificate, with its transcript.

    Each factor's text is its expanded tensor, refused past the term limit
    the certificate was evaluated under.
    """
    return {
        "genus": cert.genus,
        "n": cert.points,
        "s": cert.stages,
        "ring": cert.ring,
        "factor_count": cert.factor_count,
        "nonzero": cert.nonzero,
        "support_matches_expected": cert.support_matches_expected,
        "closed_form_match": cert.closed_form_match,
        "factors": [
            {
                "kind": f.kind,
                "label": f.label,
                "count": f.count,
                "tensor": f.to_text(cert.term_limit),
            }
            for f in cert.factors
        ],
        "result": cert.result.to_text(),
    }


# -- the TC table -------------------------------------------------------------


def tc_upper_bound(genus, points, stages):
    """Closed-form upper bound for the s-stage complexity of the grid cell."""
    if stages < 2:
        raise ValueError("stages must be at least 2")
    if points < 1:
        raise ValueError("points must be at least 1")
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    if genus == 0:
        return stages if points <= 2 else stages * points - 3
    if genus == 1:
        return stages * (points + 1) - 2
    return stages * (points + 1)


class TcRecord:
    """One cell of the TC table; ``note`` says why it is or is not certified."""

    def __init__(self, genus, n, s, upper, lower, tc, certified, note=""):
        self.genus = genus
        self.n = n
        self.s = s
        self.upper = upper
        self.lower = lower
        self.tc = tc
        self.certified = certified
        self.note = note

    def as_dict(self):
        return {
            "genus": self.genus,
            "n": self.n,
            "s": self.s,
            "upper": self.upper,
            "lower": self.lower,
            "tc": self.tc,
            "certified": self.certified,
        }


def tc_rows(genus, points, stages, allow_large=False):
    """Table entries of one genus over the (n, s) grid, in grid order.

    Each row (genus, s) multiplies once, at its largest n that the guards
    admit; a smaller cell (genus, k, s) is certified if that product is nonzero
    right after point k, and else by its own run.  Padding words with units is
    a ring map H*(S_g^k) -> H*(S_g^n) that sends each ideal generator to one and
    the factors of (g, k, s) to the first factors of (g, n, s), so a nonzero
    prefix has a nonzero preimage.  The cell's own factors are still checked to
    be zero divisors in its own quotient.  Genus 0 is formula-only.
    """
    records, rows = {}, {}
    for n in sorted(points, reverse=True):
        for s in sorted(stages):
            value, note = tc_upper_bound(genus, n, s), "formula-only"
            prefix, counts = rows.get(s, ((), ()))
            if n <= len(prefix) and prefix[n - 1]:
                # the factors up to point n: all but two per later point
                _check_count(sum(counts[: len(counts) - 2 * (len(prefix) - n)]), genus, n, s)
                _zero_divisor_rows(cached_quotient(genus, n, "B", allow_large), s)
                note = "certified"
            elif genus >= 1:
                try:
                    cert = evaluate_certificate(genus, n, s, allow_large=allow_large)
                except SizeGuardError:
                    note = "guard-skipped"
                else:
                    note = "certified" if cert.nonzero else "failed"
                    rows[s] = cert.prefix_nonzero, [f.count for f in cert.factors]
                    del cert  # smaller cells read the prefix and the counts, not the product
            records[n, s] = TcRecord(genus, n, s, value, value, value, note == "certified", note)
    return [records[n, s] for n in sorted(points) for s in sorted(stages)]


def tc_value(genus, points, stages, allow_large=False):
    """Table entry for one grid cell: the one-cell case of ``tc_rows``."""
    return tc_rows(genus, [points], [stages], allow_large)[0]


# -- identity suites -----------------------------------------------------------


class LemmaCheck:
    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail


class LemmaReport:
    def __init__(self, genus, points, checks=None):
        self.genus = genus
        self.points = points
        self.checks = [] if checks is None else checks

    @property
    def passed(self):
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self):
        return self.failed == 0


def _letter_family(algebra, t):
    """Every nonunit shifted letter at coordinate t: (display label, letter code, element)."""
    labels = [f"{k}{t}({p})" for p in range(1, algebra.genus + 1) for k in "xy"] + [f"w{t}"]
    return [(lab, c, algebra.shifted_letter(t, c)) for c, lab in enumerate(labels, start=1)]


def verify_lemma_identities(genus, points, allow_large=False):
    """Run every identity and vanishing claim of the two product lemmas.

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

    words = sorted(chain.from_iterable(alg.monomials_by_degree))  # A's words, in tuple order
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
        # and j.  One pass over the words in tuple order forms each v x_j y_j
        # once, as (v' x_j y_j) z for v = v' z with z the shifted letter of
        # v's last coordinate t (x_j y_j is even), from the product of the
        # earlier v'; a zero v' x_j y_j forms nothing.  It is tallied in every
        # family that holds v.
        counts, failed = [0, 0, 0], [False, False, False]
        formed = {words[0]: r}  # word of v -> v x_j y_j
        for m in words[1:]:
            t = max(k for k, c in enumerate(m, 1) if c)
            vr = formed[m[: t - 1] + (UNIT,) * (points - t + 1)]
            vr = formed[m] = vr and vr * fam[t][m[t - 1] - 1][2]
            member = (
                m[j - 1] != UNIT,
                special[m[0]],
                m[0] in (X1, Y1) and any(special[m[k]] for k in others),
            )
            if any(member):
                survives = bool(vr)
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

    # Second lemma: products against x_i y_j for distinct i, j >= 2.  Each
    # z_j x_i y_j is formed once per pair and letter z_j at j, and each
    # z x_1 y_j and z x_i y_1 as z times x_1 y_j or x_i y_1, each formed once;
    # a product with a zero factor is not formed (``and`` keeps the zero).
    x1y = {j: x1 * xyw[j][1] for j in range(2, points + 1)}  # x_1 y_j
    for i in range(2, points + 1):
        xi, yi, wi = xyw[i]
        xiy1 = xi * y1
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
            zr = {cj: zj * r for _lj, cj, zj in fam[j]}  # z_j r by z_j's code
            pair = f"(i={i},j={j})"
            add(
                f"lemma2(1)(i) {pair}",
                yi * r == -(wi * yj) + w1 * yj - y1 * xi * yj + x1 * yi * yj,
            )
            # z r = -z x_1 y_j for a special z at i
            aggregate(
                f"lemma2(1)(ii) {pair}",
                (
                    (lab, z * r + z * x1y[j])
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
                    (lab, zr[c] + z * xiy1)
                    for lab, c, z in fam[j]
                    if special[c]
                ),
            )
            aggregate(
                f"lemma2(2) others vanish {pair}",
                (
                    (lab, zr[c])
                    for lab, c, _z in fam[j]
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
                    (f"{li}*{lj}", zr[cj] and zi * zr[cj])
                    for li, ci, zi in fam[i]
                    for lj, cj, _zj in fam[j]
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
                    (lab, z1i and z1i * r)
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
                    (f"{l1}*{lj}", zr[cj] and z1 * zr[cj])
                    for l1, c1, z1 in fam[1]
                    for lj, cj, _zj in fam[j]
                    if not (c1 in (X1, Y1) and cj == X1)
                ),
            )
            aggregate(
                f"lemma2(6) triple products vanish {pair}",
                (
                    (f"{lab}*{lj}", z1i and zr[cj] and z1i * zr[cj])
                    for lab, _c1, _ci, z1i in pairs_1i
                    for lj, cj, _zj in fam[j]
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


# -- the mod-2 projective-space check ------------------------------------------


def rp3_algebra():
    """The mod-2 cohomology of real projective 3-space: GF2[t]/(t^4)."""
    return TruncatedPolynomialAlgebra(GF2, truncation=4, gen_degree=1, name="t")


@lru_cache(maxsize=None)
def _rp3_quotient():
    """One quotient of the mod-2 algebra per process, so its pieces serve every stage count."""
    return _search_space(rp3_algebra())


def rp3_product(s):
    """The product of the 3(s-1) basic zero divisors of the mod-2 check, streamed."""
    q = _rp3_quotient()
    alg = q.parent
    t = Element.monomial(alg, 1)
    acc = TensorElement.unit(alg, s)
    for slot in range(2, s + 1):
        f = q.slot_rows(slot_difference_summands(t, s, slot), s)
        if not q.mu_of_summands(f, s).is_zero():
            raise VerificationError("slot difference is not a zero divisor")
        for _ in range(3):
            acc = q.stream_product(acc, f)
    return acc


def rp3_zcl_check(s):
    """Verify the 3(s-1) lower bound over GF(2) and return it."""
    if s < 2:
        raise ValueError("stages must be at least 2")
    if s > 5:
        raise SizeGuardError(f"stage count {s} exceeds the guarded range (tensor basis 4^{s})")
    prod = rp3_product(s)
    if prod.is_zero():
        raise VerificationError(
            f"the {3 * (s - 1)}-fold zero-divisor product vanished unexpectedly"
        )
    return 3 * (s - 1)


# -- generic cup-length search --------------------------------------------------

# The most tensor slots (terms times stages) the exhaustive walk multiplies.
# Its work is about proportional to them and grows about sevenfold per stage;
# the dimension gate does not bound it.  ``allow_large`` lifts neither.
EXHAUSTIVE_SLOTS = 4 * 10**6


class ZclSearchResult:
    def __init__(self, bound, witness, value, strategy):
        self.bound = bound
        self.witness = witness  # (element text, slot) per factor
        self.value = value
        self.strategy = strategy


def _search_space(target):
    """The quotient a search multiplies in: a plain algebra modulo the zero ideal."""
    if isinstance(target, QuotientAlgebra):
        return target
    return QuotientAlgebra(ideal_span(target, []))


def zcl_search(target, s, strategy=None):
    """Best-effort lower bound for the s-th zero-divisor cup-length.

    Candidates are the slot differences of positive-degree basis elements;
    the exhaustive strategy is gated to total dimension at most 8 and
    refused once it has multiplied ``EXHAUSTIVE_SLOTS`` tensor slots, the
    greedy one extends a product while any candidate keeps it nonzero.
    Each candidate is held as its summands' ``slot_rows``, prepared once,
    and streamed into the product (``QuotientAlgebra.stream_product``).
    The returned bound is the length of a verified nonzero witness.
    """
    if s < 2:
        raise ValueError("stages must be at least 2")
    q = _search_space(target)
    alg, dimension = q.parent, q.dimension
    if strategy is None:
        strategy = "EXHAUSTIVE_TINY" if dimension <= 8 else "GREEDY"
    if strategy not in ("EXHAUSTIVE_TINY", "GREEDY"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "EXHAUSTIVE_TINY" and dimension > 8:
        raise SizeGuardError(
            f"exhaustive search requires total dimension at most 8, got {dimension}",
        )
    unit = TensorElement.unit(alg, s)
    candidates = []
    for d in range(1, alg.top_degree + 1):
        for m in q.standard_monomials(d):
            e = Element.monomial(alg, m)
            for slot in range(2, s + 1):
                f = q.slot_rows(slot_difference_summands(e, s, slot), s)
                if q.stream_product(unit, f):
                    candidates.append(((e.to_text(), slot), f))
    if strategy == "GREEDY":
        value = unit
        witness = []
        progress = True
        while progress:
            progress = False
            for desc, f in candidates:
                nv = q.stream_product(value, f)
                if not nv.is_zero():
                    value = nv
                    witness.append(desc)
                    progress = True
                    break
        return ZclSearchResult(len(witness), witness, value, strategy)

    best = {"len": 0, "chain": [], "value": unit}
    seen = {}
    slots = 0

    def walk(value, start, chain):
        nonlocal slots
        if len(chain) > best["len"]:
            best["len"] = len(chain)
            best["chain"] = list(chain)
            best["value"] = value
        for k in range(start, len(candidates)):
            slots += len(value.terms) * s
            if slots > EXHAUSTIVE_SLOTS:
                raise SizeGuardError(
                    f"exhaustive search exceeds {EXHAUSTIVE_SLOTS} tensor slots "
                    "(terms times stages) multiplied; try --strategy GREEDY",
                )
            nv = q.stream_product(value, candidates[k][1])
            if nv.is_zero():
                continue
            state = (k, frozenset(nv.terms.items()))
            prev = seen.get(state)
            if prev is not None and prev >= len(chain) + 1:
                continue
            seen[state] = len(chain) + 1
            chain.append(k)
            walk(nv, k, chain)
            chain.pop()

    walk(unit, 0, [])
    witness = [candidates[k][0] for k in best["chain"]]
    return ZclSearchResult(best["len"], witness, best["value"], strategy)
