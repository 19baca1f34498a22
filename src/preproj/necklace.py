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

from fractions import Fraction

from .freealg import (CycElement, CyclicClass, Element, PathContext,
                      canonical_rotation, cyclic_project)
from .quiver import QuiverError


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
                    joined = _open_word(ctx, wu, i) + _open_word(ctx, wv, j)
                    if joined:
                        w = canonical_rotation(joined)
                        key = CyclicClass(ctx.quiver.src(w[0]), w)
                    else:
                        key = CyclicClass(ctx.quiver.dst(ai), ())
                    s = out.get(key, 0) + om * cu * cv
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return CycElement(ctx, out)


class WedgePair:
    """Formal sum of wedges of cyclic classes, a ^ b = -(b ^ a), a ^ a = 0.

    Keys are ordered by (degree, word, vertex); storing always puts the
    smaller class first, flipping the sign as needed.
    """

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for (k1, k2), c in terms.items():
                self.add(k1, k2, c)

    @staticmethod
    def _rank(ctx, k):
        return (ctx.weight(k.word), k.word, k.vertex)

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

    def __add__(self, other):
        out = WedgePair(self.ctx, dict(self.terms))
        for (k1, k2), c in other.terms.items():
            out.add(k1, k2, c)
        return out

    def __sub__(self, other):
        out = WedgePair(self.ctx, dict(self.terms))
        for (k1, k2), c in other.terms.items():
            out.add(k1, k2, -c)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, WedgePair) and self.terms == other.terms

    def __repr__(self):
        from .freealg import render_cyclic

        if not self.terms:
            return "0"
        bits = []
        for (k1, k2), c in sorted(self.terms.items(),
                                  key=lambda it: (self._rank(self.ctx, it[0][0]),
                                                  self._rank(self.ctx, it[0][1]))):
            e1 = render_cyclic(CycElement(self.ctx, {k1: 1}))
            e2 = render_cyclic(CycElement(self.ctx, {k2: 1}))
            bits.append(f"{c}*{e1}^{e2}")
        return " + ".join(bits)


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
                k1 = _cyc_key(ctx, part1, ctx.quiver.dst(word[j]))
                k2 = _cyc_key(ctx, part2, ctx.quiver.dst(word[i]))
                out.add(k1, k2, om * c)
    return out


def _cyc_key(ctx, word, vertex):
    if not word:
        return CyclicClass(vertex, ())
    w = canonical_rotation(word)
    return CyclicClass(ctx.quiver.src(w[0]), w)


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
                kcyc = _cyc_key(ctx, between, ctx.quiver.dst(word[i]))
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
        v, w = left
        if w and ctx.mono_target(left) != v:
            continue  # open paths die under pr
        k = _cyc_key(ctx, w, v)
        sub((k, right), c)
    return acc


# ---------------------------------------------------------------------------
# Poisson structure on i0 Pi i0


class CornerPoisson:
    """Necklace bracket transported to the corner algebra i0 Pi i0 of an
    extended Dynkin quiver: bracket in Lambda, then the projection that kills
    torsion, expressed in the basis of normal monomials at i0.
    """

    def __init__(self, comp, i0=None):
        from .quiver import classify

        self.comp = comp
        cls = classify(comp.ctx.quiver if not comp.ctx.quiver.starred else _undouble(comp.ctx.quiver))
        if not cls.is_extended_dynkin():
            raise QuiverError("corner Poisson structure needs an extended Dynkin quiver")
        self.i0 = cls.extending_vertex if i0 is None else i0

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
        """Solve [corner element] = cyc modulo torsion and relations."""
        comp = self.comp
        if d == 0:
            # degree-0 part of the corner is Z e_{i0}
            c = cyc.homogeneous_part(0).terms.get(CyclicClass(self.i0, ()), 0)
            return comp.ctx.idempotent(self.i0).scale(c)
        target = comp.coords(cyc, d)
        basis = self.corner_basis(d)
        n = len(comp.ambient_keys(d))
        cols = []
        for mono in basis:
            cols.append(comp.coords(cyclic_project(Element(comp.ctx, {mono: 1})), d))
        rel = comp.relation_rows(d)
        sol = _solve_rational(n, cols, rel, target)
        if sol is None:
            raise QuiverError("class does not lie in the corner image modulo torsion")
        out = {}
        for mono, c in zip(basis, sol):
            if c != 0:
                if c.denominator != 1:
                    raise QuiverError("non-integral corner coordinates")
                out[mono] = int(c)
        return Element(comp.ctx, out)


def _undouble(qd):
    from .quiver import Quiver

    orig = [(a, s, t) for (a, s, t) in qd.arrows if a < qd.star[a]]
    return Quiver(qd.vertices, orig, names={a: qd.arrow_name(a) for (a, _, _) in orig})


def _solve_rational(n, cols, rel_rows, target):
    """Solve cols * x + rel * y = target over Q; returns x or None."""
    mat = []
    k = len(cols)
    vecs = cols + list(rel_rows)
    for i in range(n):
        row = [Fraction(v.get(i, 0)) for v in vecs]
        row.append(Fraction(target.get(i, 0)))
        mat.append(row)
    ncols = len(vecs)
    piv = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, n) if mat[i][c]), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(n):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        piv.append(c)
        r += 1
        if r == n:
            break
    # consistency
    for i in range(r, n):
        if mat[i][ncols]:
            return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        sol[c] = mat[i][ncols]
    return sol[:k]
