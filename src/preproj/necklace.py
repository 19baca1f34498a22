"""The necklace Lie bialgebra on cyclic words of a doubled quiver, its lifts
to the path algebra (Loday bracket, double bracket, delta_ell), and the
induced Poisson bracket on the corner algebra i0 Pi i0 of an extended Dynkin
quiver.

Letters are paired only in _pairings.  The bracket and the Loday bracket
multiply out the terms of the double bracket (_double); delta_ell,
delta_ell_sum and the cobracket read off the splits of one word (_splits).

Sign conventions: the pairing omega that _pairings yields is +1 on (a, a*)
for an original arrow a, and -1 on (a*, a).  delta_ell is taken with the
sign that satisfies the BV identity

    delta_ell(ab) = delta_ell(a)(1 x b) + (1 x a) delta_ell(b) + (pr x 1){{a,b}}

and delta_ell(r) = sum_a (a_t x a_s - a_s x a_t); the displayed formula for
delta_ell in the source material carries the opposite (inconsistent) sign.
"""

from __future__ import annotations

import functools

from .freealg import (CycElement, CyclicClass, Element, _Combination, _signed_sum,
                      cyclic_project, render_cyclic)
from .intlinalg import integer_kernel
from .quiver import QuiverError, classify


def _add(terms, key, c):
    """terms[key] += c, dropping the key when it reaches zero."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


@functools.lru_cache(maxsize=4096)
def _letter_index(word):
    """{letter: tuple of its positions in word}; calls share the dict."""
    return {b: tuple(j for j, c in enumerate(word) if c == b) for b in set(word)}


def _pairings(ctx, u, v):
    """(i, j, omega(u[i], v[j])) for every position pair with v[j] = u[i]*,
    in increasing (i, j), looked up in the letter index of v."""
    if not (u and v):
        return
    if not ctx.quiver.starred:
        raise QuiverError("the pairing lives on a doubled quiver")
    at, star = _letter_index(v), ctx.quiver.star
    for i, a in enumerate(u):
        for j in at.get(star[a], ()):
            yield i, j, 1 if a < star[a] else -1


def _double(ctx, p, q):
    """{{p, q}} of two monomials: (omega, left, right) for each pairing of a
    letter a of p with a* in q, where left = q[:j] p[i+1:] and right =
    p[:i] q[j+1:].  For closed p, left right (the monomial
    (left[0], left[1] + right[1])) is q with p opened at a put in for a*."""
    (vp, wp), (vq, wq) = p, q
    for i, j, om in _pairings(ctx, wp, wq):
        left, right = wq[:j] + wp[i + 1:], wp[:i] + wq[j + 1:]
        yield (om, (vq, left) if left else (ctx.quiver.dst(wp[i]), ()),
               (vp, right) if right else (ctx.quiver.src(wp[i]), ()))


def _splits(ctx, mono):
    """(omega, [between], outer) for each pairing i < j inside one word:
    between = word[i+1:j] closes at (a_i)_t, and outer = word[:i] word[j+1:]
    starts where the word does (the prefix ends where the suffix starts)."""
    v, word = mono
    for i, j, om in _pairings(ctx, word[:-1], word):  # no j after the last i
        if i < j:
            between = CyclicClass.of(ctx, (ctx.quiver.dst(word[i]), word[i + 1:j]))
            yield om, between, (v, word[:i] + word[j + 1:])


def bracket(u: CycElement, v: CycElement) -> CycElement:
    """Necklace Lie bracket on cyclic elements: the class of {{u, v}}
    multiplied out."""
    ctx = u.ctx
    if ctx.quiver is not v.ctx.quiver:
        raise QuiverError("brackets need a shared quiver")
    terms = {}
    for ku, cu in u.terms.items():
        for kv, cv in v.terms.items():
            for om, (s, left), (_, right) in _double(ctx, (ku.vertex, ku.word),
                                                     (kv.vertex, kv.word)):
                _add(terms, CyclicClass.of(ctx, (s, left + right)), om * cu * cv)
    return CycElement(ctx, terms)


class WedgePair(_Combination):
    """Formal sum of wedges of cyclic classes, a ^ b = -(b ^ a), a ^ a = 0.

    Keys are ordered by (length, word, vertex); storing always puts the
    smaller class first, flipping the sign as needed.
    """

    __slots__ = ()

    def __init__(self, ctx, terms=None):
        super().__init__(ctx, {})
        for (k1, k2), c in (terms or {}).items():
            self.add(k1, k2, c)

    @staticmethod
    def _rank(k):
        return (len(k.word), k.word, k.vertex)

    def _degree(self, key):
        return len(key[0].word) + len(key[1].word)

    def add(self, k1, k2, c):
        r1, r2 = self._rank(k1), self._rank(k2)
        if r1 != r2:
            _add(self.terms, (k1, k2) if r1 < r2 else (k2, k1), c if r1 < r2 else -c)

    def __repr__(self):
        def cyc(k):
            return render_cyclic(CycElement(self.ctx, {k: 1}))

        items = sorted(self.terms.items(),
                       key=lambda it: (self._rank(it[0][0]), self._rank(it[0][1])))
        return _signed_sum([(f"{cyc(k1)}^{cyc(k2)}", c) for (k1, k2), c in items])


def cobracket(u: CycElement) -> WedgePair:
    """Necklace cobracket: [outer] ^ [between] over the splits of delta_ell,
    with the outer leg closed up."""
    ctx = u.ctx
    out = WedgePair(ctx)
    for key, c in u.terms.items():
        for om, between, outer in _splits(ctx, (key.vertex, key.word)):
            out.add(CyclicClass.of(ctx, outer), between, om * c)
    return out


def bracket_of_wedge(w: WedgePair) -> CycElement:
    """br applied termwise to a wedge sum (well defined by antisymmetry)."""
    ctx = w.ctx
    terms = {}
    for (k1, k2), c in w.terms.items():
        for key, b in bracket(CycElement(ctx, {k1: c}), CycElement(ctx, {k2: 1})).terms.items():
            _add(terms, key, b)
    return CycElement(ctx, terms)


def loday_bracket(u: CycElement, p: Element) -> Element:
    """{[u], p}: insert the opened u into p at every omega-pairing, which is
    {{u, p}} multiplied out."""
    ctx = u.ctx
    terms = {}
    for ku, cu in u.terms.items():
        for mono, cp in p.terms.items():
            for om, (s, left), (_, right) in _double(ctx, (ku.vertex, ku.word), mono):
                _add(terms, (s, left + right), om * cu * cp)
    return Element(ctx, terms)


def delta_ell(p: Element):
    """Lift of the cobracket to paths: [(coeff, CycElement-key, path Element)].

    Sign chosen to satisfy the BV identity (see module docstring): the
    (i, j)-term is +omega(a_i, a_j) [between(i, j)] x (prefix idempotent suffix).
    """
    ctx = p.ctx
    return [(om * c, between, Element(ctx, {outer: 1}))
            for mono, c in p.terms.items() for om, between, outer in _splits(ctx, mono)]


def delta_ell_sum(p: Element) -> dict:
    """delta_ell collected as {(cyclic key, path mono): coeff}."""
    acc = {}
    for mono, c in p.terms.items():
        for om, between, outer in _splits(p.ctx, mono):
            _add(acc, (between, outer), om * c)
    return acc


def double_bracket(p: Element, q: Element):
    """Van den Bergh's double bracket {{p, q}} as {(left mono, right mono): coeff}."""
    out = {}
    for mp, cp in p.terms.items():
        for mq, cq in q.terms.items():
            for om, left, right in _double(p.ctx, mp, mq):
                _add(out, (left, right), om * cp * cq)
    return out


def bv_defect(a: Element, b: Element) -> dict:
    """delta_ell(ab) - delta_ell(a)(1 x b) - (1 x a)delta_ell(b) - (pr x 1){{a,b}};
    empty dict iff the BV identity holds on (a, b)."""
    ctx = a.ctx
    acc = delta_ell_sum(a * b)
    legs = [(c, k, pe * b) for c, k, pe in delta_ell(a)] \
        + [(c, k, a * pe) for c, k, pe in delta_ell(b)]
    for c, k, prod in legs:
        for mono, cm in prod.terms.items():
            _add(acc, (k, mono), -c * cm)
    for (left, right), c in double_bracket(a, b).items():
        if ctx.mono_target(left) == left[0]:  # open paths die under pr
            _add(acc, (CyclicClass.of(ctx, left), right), -c)
    return acc


# ---------------------------------------------------------------------------
# Poisson structure on i0 Pi i0


class CornerPoisson:
    """Necklace bracket transported to the corner algebra i0 Pi i0 of an
    extended Dynkin quiver: bracket in Lambda, then the projection that kills
    torsion, expressed in the basis of normal monomials at i0.
    """

    def __init__(self, comp):
        self.comp = comp
        cls = classify(comp.ctx.quiver)
        if not cls.is_extended_dynkin():
            raise QuiverError("corner Poisson structure needs an extended Dynkin quiver")
        self.i0 = cls.extending_vertex

    def corner_basis(self, d):
        return self.comp.system.normal_monomials(self.i0, self.i0, d)

    def reduce_corner(self, x: Element) -> Element:
        return self.comp.system.reduce(x)

    def poisson(self, f: Element, g: Element) -> Element:
        """{f, g} for corner elements f, g; result is a reduced corner element."""
        df = f.degrees()
        dg = g.degrees()
        if len(df) != 1 or len(dg) != 1:
            raise QuiverError("homogeneous corner elements expected")
        d = df[0] + dg[0] - 2
        br = bracket(cyclic_project(f), cyclic_project(g))
        return self.project_to_corner(br, d)

    def project_to_corner(self, cyc: CycElement, d) -> Element:
        """The corner element f with [f] = cyc modulo torsion and relations.

        The columns are the images of the corner basis (z_cols), the relation
        rows, and cyc last (z_t).  An integer kernel vector z with z_t != 0
        writes cyc as the basis images times -z_cols / z_t plus relations, so
        those are the coordinates of f.  QuiverError when no kernel vector
        has z_t != 0 (cyc is not in the corner image modulo torsion), or when
        z_t does not divide z_cols (the coordinates are not integral).
        """
        comp = self.comp
        if d == 0:
            # degree-0 part of the corner is Z e_{i0}
            c = cyc.homogeneous_part(0).terms.get(CyclicClass(self.i0, ()), 0)
            return comp.ctx.idempotent(self.i0).scale(c)
        basis = self.corner_basis(d)
        cols = [comp.coords(cyclic_project(Element(comp.ctx, {mono: 1})), d) for mono in basis]
        cols += comp.relation_rows(d)
        cols.append(comp.coords(cyc, d))
        rows = [{} for _ in comp.ambient_keys(d)]
        for c, col in enumerate(cols):
            for i, v in col.items():
                rows[i][c] = v
        z = next((z for z in integer_kernel(rows, len(cols)) if z[-1]), None)
        if z is None:
            raise QuiverError("class does not lie in the corner image modulo torsion")
        out = {}
        for mono, zc in zip(basis, z):
            c, r = divmod(-zc, z[-1])
            if r:
                raise QuiverError("non-integral corner coordinates")
            if c:
                out[mono] = c
        return Element(comp.ctx, out)

