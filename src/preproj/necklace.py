"""The necklace Lie bialgebra on cyclic words of a doubled quiver, its lifts
to the path algebra (Loday bracket, double bracket, delta_ell), and the
induced Poisson bracket on the corner algebra i0 Pi i0 of an extended Dynkin
quiver.

Sign conventions: omega(a, a*) = +1 for an original arrow a.  delta_ell is
taken with the sign that satisfies the BV identity

    delta_ell(ab) = delta_ell(a)(1 x b) + (1 x a) delta_ell(b) + (pr x 1){{a,b}}

and delta_ell(r) = sum_a (a_t x a_s - a_s x a_t); the displayed formula for
delta_ell in the source material carries the opposite (inconsistent) sign.
"""

from __future__ import annotations

from .freealg import (CycElement, CyclicClass, Element, PathContext, _Combination,
                      _signed_sum, cyclic_project, render_cyclic)
from .intlinalg import integer_kernel
from .quiver import QuiverError, classify


def omega(ctx: PathContext, a: int, b: int) -> int:
    """Symplectic pairing on arrows: +1 on (a, a*) for original a."""
    q = ctx.quiver
    if not q.starred:
        raise QuiverError("the pairing lives on a doubled quiver")
    if q.star.get(a) != b:
        return 0
    return 1 if a < b else -1


def _open_word(ctx, word, i):
    """(a_i)_t a_{i+1} ... a_{i-1}: the word opened after position i."""
    return word[i + 1:] + word[:i]


def _as_path_element(ctx, word, at_vertex):
    if not word:
        return ctx.idempotent(at_vertex)
    return ctx.path(word)


def partial_derivative(a: int, w: CycElement) -> Element:
    """d/da of a cyclic element: sum of opened words over occurrences of a."""
    ctx = w.ctx
    out = ctx.zero()
    for key, c in w.terms.items():
        word = key.word
        for i, letter in enumerate(word):
            if letter == a:
                opened = _open_word(ctx, word, i)
                out = out + _as_path_element(ctx, opened, ctx.quiver.dst(a)).scale(c)
    return out


def double_derivative(a: int, p: Element):
    """D_a: split at each occurrence of a; returns [(coeff, left, right)]."""
    ctx = p.ctx
    out = []
    for (v, word), c in p.terms.items():
        for i, letter in enumerate(word):
            if letter == a:
                left = _as_path_element(ctx, word[:i], v)
                right = _as_path_element(ctx, word[i + 1:], ctx.quiver.dst(a))
                out.append((c, left, right))
    return out


def bracket(u: CycElement, v: CycElement) -> CycElement:
    """Necklace Lie bracket on cyclic elements."""
    ctx = u.ctx
    if ctx.quiver is not v.ctx.quiver:
        raise QuiverError("brackets need a shared quiver")
    out = {}
    for ku, cu in u.terms.items():
        wu = ku.word
        for kv, cv in v.terms.items():
            wv = kv.word
            for i, ai in enumerate(wu):
                for j, bj in enumerate(wv):
                    om = omega(ctx, ai, bj)
                    if not om:
                        continue
                    # opened u runs from (a_i)_t to (a_i)_s and opened v
                    # back, so joined is closed at (a_i)_t
                    joined = _open_word(ctx, wu, i) + _open_word(ctx, wv, j)
                    key = CyclicClass.of(ctx, (ctx.quiver.dst(ai), joined))
                    s = out.get(key, 0) + om * cu * cv
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return CycElement(ctx, out)


class WedgePair(_Combination):
    """Formal sum of wedges of cyclic classes, a ^ b = -(b ^ a), a ^ a = 0.

    Keys are ordered by (degree, word, vertex); storing always puts the
    smaller class first, flipping the sign as needed.
    """

    __slots__ = ()

    def __init__(self, ctx, terms=None):
        super().__init__(ctx, {})
        for (k1, k2), c in (terms or {}).items():
            self.add(k1, k2, c)

    @staticmethod
    def _rank(ctx, k):
        return (ctx.weight(k.word), k.word, k.vertex)

    def _degree(self, key):
        return self.ctx.weight(key[0].word) + self.ctx.weight(key[1].word)

    def add(self, k1, k2, c):
        if c == 0:
            return
        r1, r2 = self._rank(self.ctx, k1), self._rank(self.ctx, k2)
        if r1 == r2 and k1 == k2:
            return
        if r2 < r1:
            k1, k2 = k2, k1
            c = -c
        key = (k1, k2)
        s = self.terms.get(key, 0) + c
        if s:
            self.terms[key] = s
        else:
            self.terms.pop(key, None)

    def __repr__(self):
        def cyc(k):
            return render_cyclic(CycElement(self.ctx, {k: 1}))

        items = sorted(self.terms.items(), key=lambda it: (self._rank(self.ctx, it[0][0]),
                                                           self._rank(self.ctx, it[0][1])))
        return _signed_sum([(f"{cyc(k1)}^{cyc(k2)}", c) for (k1, k2), c in items])


def cobracket(u: CycElement) -> WedgePair:
    """Necklace cobracket: split the cycle at every omega-paired position pair."""
    ctx = u.ctx
    out = WedgePair(ctx)
    for key, c in u.terms.items():
        word = key.word
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                om = omega(ctx, word[i], word[j])
                if not om:
                    continue
                part1 = word[j + 1:] + word[:i]   # (a_j)_t ... a_{i-1}
                part2 = word[i + 1:j]             # (a_i)_t ... a_{j-1}
                k1 = CyclicClass.of(ctx, (ctx.quiver.dst(word[j]), part1))
                k2 = CyclicClass.of(ctx, (ctx.quiver.dst(word[i]), part2))
                out.add(k1, k2, om * c)
    return out


def bracket_of_wedge(w: WedgePair) -> CycElement:
    """br applied termwise to a wedge sum (well defined by antisymmetry)."""
    ctx = w.ctx
    acc = CycElement(ctx, {})
    for (k1, k2), c in w.terms.items():
        acc = acc + bracket(CycElement(ctx, {k1: 1}), CycElement(ctx, {k2: 1})).scale(c)
    return acc


def loday_bracket(u: CycElement, p: Element) -> Element:
    """{[u], p}: insert the opened u into p at every omega-pairing."""
    ctx = u.ctx
    out = ctx.zero()
    for ku, cu in u.terms.items():
        wu = ku.word
        for (v, wp), cp in p.terms.items():
            for j, bj in enumerate(wp):
                for i, ai in enumerate(wu):
                    om = omega(ctx, ai, bj)
                    if not om:
                        continue
                    word = wp[:j] + _open_word(ctx, wu, i) + wp[j + 1:]
                    coeff = om * cu * cp
                    if word:
                        out = out + ctx.path(word).scale(coeff)
                    else:
                        out = out + ctx.idempotent(ctx.quiver.dst(ai)).scale(coeff)
    return out


def delta_ell(p: Element):
    """Lift of the cobracket to paths: [(coeff, CycElement-key, path Element)].

    Sign chosen to satisfy the BV identity (see module docstring): the
    (i, j)-term is +omega(a_i, a_j) [between(i, j)] x (prefix idempotent suffix).
    """
    ctx = p.ctx
    out = []
    for (v, word), c in p.terms.items():
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                om = omega(ctx, word[i], word[j])
                if not om:
                    continue
                between = word[i + 1:j]
                kcyc = CyclicClass.of(ctx, (ctx.quiver.dst(word[i]), between))
                # prefix ends at (a_i)_s and suffix starts at (a_j)_t, which
                # equals (a_i)_s whenever omega pairs them, so this composes
                outer = word[:i] + word[j + 1:]
                pe = _as_path_element(ctx, outer, ctx.quiver.src(word[i]))
                out.append((om * c, kcyc, pe))
    return out


def delta_ell_sum(p: Element) -> dict:
    """delta_ell collected as {(cyclic key, path mono): coeff}."""
    acc = {}
    for c, k, pe in delta_ell(p):
        for mono, cm in pe.terms.items():
            key = (k, mono)
            s = acc.get(key, 0) + c * cm
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


def double_bracket(p: Element, q: Element):
    """Van den Bergh's double bracket {{p, q}} as {(left mono, right mono): coeff}."""
    ctx = p.ctx
    out = {}
    for (vp, wp), cp in p.terms.items():
        for (vq, wq), cq in q.terms.items():
            for i, ai in enumerate(wp):
                for j, bj in enumerate(wq):
                    om = omega(ctx, ai, bj)
                    if not om:
                        continue
                    left_w = wq[:j] + wp[i + 1:]
                    right_w = wp[:i] + wq[j + 1:]
                    left = (vq, left_w) if left_w else (ctx.quiver.dst(ai), ())
                    right = (vp, right_w) if right_w else (ctx.quiver.src(ai), ())
                    key = (left, right)
                    s = out.get(key, 0) + om * cp * cq
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return out


def bv_defect(a: Element, b: Element) -> dict:
    """delta_ell(ab) - delta_ell(a)(1 x b) - (1 x a)delta_ell(b) - (pr x 1){{a,b}};
    empty dict iff the BV identity holds on (a, b)."""
    ctx = a.ctx
    acc = delta_ell_sum(a * b)

    def sub(key, c):
        s = acc.get(key, 0) - c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)

    for c, k, pe in delta_ell(a):
        for mono, cm in (Element(ctx, dict(pe.terms)) * b).terms.items():
            sub((k, mono), c * cm)
    for c, k, pe in delta_ell(b):
        for mono, cm in (a * Element(ctx, dict(pe.terms))).terms.items():
            sub((k, mono), c * cm)
    for (left, right), c in double_bracket(a, b).items():
        if ctx.mono_target(left) != left[0]:
            continue  # open paths die under pr
        sub((CyclicClass.of(ctx, left), right), c)
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

