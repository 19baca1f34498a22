"""Noncommutative rewriting in path algebras: weighted graded-lex orders,
reduction, Buchberger-style completion with unit leading coefficients, and a
module-level confluence check (Diamond Lemma style) for ad-hoc orders.

Completion over Z insists on +-1 leading coefficients; when an S-element
reduces to something with a non-unit lead we raise NonUnitLead and callers
fall back to degreewise integer linear algebra.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction

from .freealg import Element, PathContext, _render_terms
from .intlinalg import _xgcd, apply_col_ops, smith_normal_form
from .quiver import QuiverError


class NonUnitLead(Exception):
    """Completion produced an element whose leading coefficient is not a unit."""

    def __init__(self, element):
        super().__init__("non-unit leading coefficient during completion")
        self.element = element


class MonomialOrder:
    """Weighted graded lex: compare (weight, length, letter positions, source).

    arrow_order lists arrow ids from smallest to largest; arrows absent from
    the list rank above listed ones, by id.  Multiplicative and DCC.
    """

    def __init__(self, ctx: PathContext, arrow_order=None):
        self.ctx = ctx
        ids = [a for (a, _, _) in ctx.quiver.arrows]
        if arrow_order is None:
            arrow_order = sorted(ids)
        pos = {a: k for k, a in enumerate(arrow_order)}
        nxt = len(arrow_order)
        for a in sorted(ids):
            if a not in pos:
                pos[a] = nxt
                nxt += 1
        self.position = pos

    def key(self, mono):
        v, word = mono
        return (self.ctx.weight(word), len(word),
                tuple(self.position[a] for a in word), v)

    def leading(self, x: Element):
        if x.is_zero():
            raise ValueError("zero element has no leading term")
        lm = max(x.terms, key=self.key)
        return lm, x.terms[lm]


class RewriteRule:
    """element = lc * LM + tail, every tail monomial strictly smaller."""

    __slots__ = ("element", "lm", "lc")

    def __init__(self, element: Element, order: MonomialOrder):
        lm, lc = order.leading(element)
        kl = order.key(lm)
        for m in element.terms:
            if m != lm and order.key(m) >= kl:
                raise ValueError("leading monomial is not the unique maximum")
        self.element = element
        self.lm = lm
        self.lc = lc

    @property
    def lm_word(self):
        return self.lm[1]

    def __repr__(self):
        return f"RewriteRule({self.element!r})"


def render_rule(element: Element, order: MonomialOrder) -> str:
    """Terms in descending monomial order, the way GB listings are printed."""
    items = sorted(((m[0], m[1], c) for m, c in element.terms.items()),
                   key=lambda it: order.key((it[0], it[1])), reverse=True)
    return _render_terms(element.ctx, items, bracket=False)


class RewriteSystem:
    def __init__(self, ctx: PathContext, rules, order: MonomialOrder, complete_to_degree=0):
        self.ctx = ctx
        self.rules = list(rules)
        self.order = order
        self.complete_to_degree = complete_to_degree
        self._by_first = {}
        self._aut = None
        for r in self.rules:
            self._index_rule(r)

    def _index_rule(self, r):
        if not r.lm_word:
            raise QuiverError("rules must have positive degree")
        self._by_first.setdefault(r.lm_word[0], []).append(r)
        self._aut = None

    def _drop_rule(self, r):
        self.rules.remove(r)
        self._by_first[r.lm_word[0]].remove(r)
        self._aut = None

    def _find_reduction(self, word):
        for k, a in enumerate(word):
            for rule in self._by_first.get(a, ()):
                w = rule.lm_word
                if word[k:k + len(w)] == w:
                    return k, rule
        return None

    def reduce(self, x: Element) -> Element:
        """Iterated reduction until no monomial contains a leading word."""
        ctx = self.ctx
        ring = ctx.ring
        work = dict(x.terms)
        normal = {}
        while work:
            mono, coeff = work.popitem()
            v, word = mono
            hit = self._find_reduction(word)
            if hit is None:
                s = ring.coerce(normal.get(mono, 0) + coeff)
                if s:
                    normal[mono] = s
                else:
                    normal.pop(mono, None)
                continue
            k, rule = hit
            w = rule.lm_word
            factor = coeff * rule.lc if rule.lc in (1, -1) else _unit_div(ring, coeff, rule.lc)
            prefix = word[:k]
            suffix = word[k + len(w):]
            for (rv, rw), rc in rule.element.terms.items():
                if (rv, rw) == rule.lm:
                    continue
                nw = prefix + rw + suffix
                if ctx.degree_bound is not None and ctx.weight(nw) > ctx.degree_bound:
                    continue
                key = (v, nw)
                s = ring.coerce(work.get(key, 0) - factor * rc)
                if s:
                    work[key] = s
                else:
                    work.pop(key, None)
        return Element(ctx, normal)

    def _automaton(self):
        if self._aut is None:
            self._aut = _Automaton([r.lm_word for r in self.rules])
        return self._aut

    def normal_monomials(self, i, j, d):
        """All weight-d normal paths i -> j, sorted by the monomial order."""
        if d > self.complete_to_degree:
            raise QuiverError(f"degree {d} beyond certified bound {self.complete_to_degree}")
        if d == 0:
            return [(i, ())] if i == j else []
        aut = self._automaton()
        q = self.ctx.quiver
        out = []

        def dfs(v, node, word, wt):
            if wt == d:
                if v == j:
                    out.append((i, tuple(word)))
                return
            for a in q.out_arrows(v):
                wa = self.ctx.weights[a]
                if wt + wa > d:
                    continue
                nxt = aut.step(node, a)
                if nxt is None:
                    continue
                word.append(a)
                dfs(q.dst(a), nxt, word, wt + wa)
                word.pop()

        dfs(i, 0, [], 0)
        out.sort(key=self.order.key)
        return out

    def normal_count_matrix(self, dmax):
        """counts[d][si][ti] = number of weight-d normal paths, vertex-indexed."""
        aut = self._automaton()
        q = self.ctx.quiver
        verts = list(q.vertices)
        vidx = {v: k for k, v in enumerate(verts)}
        n = len(verts)
        counts = [[[0] * n for _ in range(n)] for _ in range(dmax + 1)]
        for k in range(n):
            counts[0][k][k] = 1
        for si, s in enumerate(verts):
            layers = {0: {(s, 0): 1}}
            for wt in range(0, dmax + 1):
                cur = layers.pop(wt, None)
                if not cur:
                    continue
                if wt:
                    for (v, _node), c in cur.items():
                        counts[wt][si][vidx[v]] += c
                if wt == dmax:
                    continue
                for (v, node), c in cur.items():
                    for a in q.out_arrows(v):
                        nw = wt + self.ctx.weights[a]
                        if nw > dmax:
                            continue
                        nxt = aut.step(node, a)
                        if nxt is None:
                            continue
                        bucket = layers.setdefault(nw, {})
                        key = (q.dst(a), nxt)
                        bucket[key] = bucket.get(key, 0) + c
        return counts

    def export_text(self):
        """Rules one per line, sorted by descending leading monomial."""
        rs = sorted(self.rules, key=lambda r: self.order.key(r.lm), reverse=True)
        return "\n".join(render_rule(r.element, self.order) for r in rs)


def _unit_div(ring, c, lc):
    if hasattr(ring, "m"):
        return c * pow(lc, -1, ring.m)
    return Fraction(c) / Fraction(lc)


def _normalize_lead(el: Element, order: MonomialOrder) -> Element:
    _, lc = order.leading(el)
    ring = el.ctx.ring
    if lc == 1:
        return el
    if lc == -1:
        return el.scale(-1)
    if ring.is_unit(lc):
        if hasattr(ring, "m"):
            return el.scale(pow(lc, -1, ring.m))
        return el.scale(Fraction(1) / Fraction(lc))
    raise NonUnitLead(el)


class _Automaton:
    """Aho-Corasick over arrow ids; step returns None once a forbidden word
    has been read.  Assumes no listed word is a proper subword of another
    (guaranteed for inter-reduced rule sets)."""

    def __init__(self, words):
        self.goto = [{}]
        self.fail = [0]
        self.dead = [False]
        for w in words:
            node = 0
            for a in w:
                nxt = self.goto[node].get(a)
                if nxt is None:
                    self.goto.append({})
                    self.fail.append(0)
                    self.dead.append(False)
                    nxt = len(self.goto) - 1
                    self.goto[node][a] = nxt
                node = nxt
            self.dead[node] = True
        todo = deque()
        for a, v in self.goto[0].items():
            self.fail[v] = 0
            todo.append(v)
        while todo:
            u = todo.popleft()
            for a, v in self.goto[u].items():
                f = self.fail[u]
                while f and a not in self.goto[f]:
                    f = self.fail[f]
                w = self.goto[f].get(a, 0)
                self.fail[v] = w if w != v else 0
                if self.dead[self.fail[v]]:
                    self.dead[v] = True
                todo.append(v)

    def step(self, node, a):
        while node and a not in self.goto[node]:
            node = self.fail[node]
        nxt = self.goto[node].get(a, 0)
        return None if self.dead[nxt] else nxt


def complete(gens, order: MonomialOrder, degree_bound: int) -> RewriteSystem:
    """Buchberger-style completion of a two-sided ideal up to degree_bound.

    Every leading coefficient met along the way must be a unit, else
    NonUnitLead.  The result certifies normal forms through degree_bound:
    all overlap words of weight <= degree_bound reduce to zero.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        # the zero ideal: every word is already normal
        return RewriteSystem(order.ctx, [], order, complete_to_degree=degree_bound)
    ctx = gens[0].ctx
    sys_ = RewriteSystem(ctx, [], order, complete_to_degree=degree_bound)
    pending = deque(sorted(gens, key=lambda g: order.key(order.leading(g)[0])))
    pairs = []  # heap of (weight, counter, rule_i, rule_j, split)
    counter = 0

    def queue_overlaps(rule):
        nonlocal counter
        for other in list(sys_.rules):
            for s, w in _overlaps(rule.lm_word, other.lm_word):
                wt = ctx.weight(w)
                if wt <= degree_bound:
                    heapq.heappush(pairs, (wt, counter, rule, other, s))
                    counter += 1
            if other is not rule:
                for s, w in _overlaps(other.lm_word, rule.lm_word):
                    wt = ctx.weight(w)
                    if wt <= degree_bound:
                        heapq.heappush(pairs, (wt, counter, other, rule, s))
                        counter += 1

    while pending or pairs:
        if pending:
            cand = sys_.reduce(pending.popleft())
            if cand.is_zero():
                continue
            cand = _normalize_lead(cand, order)
            rule = RewriteRule(cand, order)
            stale = [r for r in sys_.rules if _contains(r.lm_word, rule.lm_word)]
            for r in stale:
                sys_._drop_rule(r)
                pending.append(r.element)
            sys_.rules.append(rule)
            sys_._index_rule(rule)
            queue_overlaps(rule)
            continue
        _, _, ri, rj, s = heapq.heappop(pairs)
        if ri not in sys_.rules or rj not in sys_.rules:
            continue
        k = len(ri.lm_word) - s
        suffix = rj.lm_word[k:]
        prefix = ri.lm_word[:s]
        left = ri.element * ctx.path(suffix) if suffix else ri.element
        right = ctx.path(prefix) * rj.element if prefix else rj.element
        spoly = sys_.reduce(left - right)
        if not spoly.is_zero():
            pending.append(spoly)
    return sys_


def _overlaps(u, v):
    """(start_of_v, glued_word) for proper overlaps: suffix of u = prefix of v."""
    out = []
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            out.append((len(u) - k, u + v[k:]))
    return out


def _contains(big, small):
    if len(small) >= len(big):
        return False
    return any(big[k:k + len(small)] == small for k in range(len(big) - len(small) + 1))


# ---------------------------------------------------------------------------
# Diamond Lemma confluence check for arbitrary DCC orders


# reduction steps one combination may take in diamond_check before the check
# gives up on it and reports "inconclusive" rather than a verdict
REDUCTION_BUDGET = 20000


class ConfluenceReport:
    """confluent is True, False (with a witness that does not reduce to zero)
    or None: inconclusive, a reduction ran out of REDUCTION_BUDGET steps."""

    def __init__(self, confluent, witness=None, degree=None):
        self.confluent = confluent
        self.witness = witness
        self.degree = degree

    def __bool__(self):
        return self.confluent is True

    def __repr__(self):
        if self.confluent:
            return "ConfluenceReport(confluent)"
        if self.confluent is None:
            return (f"ConfluenceReport(inconclusive at degree {self.degree}: "
                    f"reduction budget of {REDUCTION_BUDGET} steps exhausted)")
        return f"ConfluenceReport(failed at degree {self.degree}: {self.witness!r})"


def diamond_check(rule_elements, degree_bound, ctx=None, order_key=None) -> ConfluenceReport:
    """Degreewise confluence of the reductions defined by rule_elements.

    The default order is weighted graded lex.  A partial order may be passed
    as order_key=(maximal_picker, strictly_less); frame instances must then
    each have a unique maximal monomial.  Checks, degree by degree, that any
    integer combination of same-lead instances falling below the lead reduces
    to zero through instances with strictly smaller leads.  A combination
    that needs more than REDUCTION_BUDGET steps makes the report inconclusive
    unless another one fails outright.
    """
    if not rule_elements:
        return ConfluenceReport(True)
    ctx = ctx or rule_elements[0].ctx
    if order_key is None:
        mo = MonomialOrder(ctx)
        maximal = lambda monos: max(monos, key=mo.key)
        less = lambda a, b: mo.key(a) < mo.key(b)
    elif isinstance(order_key, tuple):
        maximal, less = order_key
    else:
        maximal = lambda monos: max(monos, key=order_key)
        less = lambda a, b: order_key(a) < order_key(b)

    inconclusive_at = None
    for d in range(1, degree_bound + 1):
        insts = _frame_instances(rule_elements, ctx, d)
        groups = {}
        entries = []
        for el in insts:
            monos = list(el.terms)
            lead = maximal(monos)
            for m in monos:
                if m != lead and not less(m, lead):
                    return ConfluenceReport(False, witness=el, degree=d)
            entries.append((lead, el))
            groups.setdefault(lead, []).append(el)
        for lead, group in groups.items():
            if len(group) < 2:
                continue
            for combo in _lead_kernel([g.terms[lead] for g in group]):
                e = ctx.zero()
                for c, g in zip(combo, group):
                    if c:
                        e = e + g.scale(c)
                reduced = _reduces_to_zero(e, entries, maximal)
                if reduced is None:
                    inconclusive_at = inconclusive_at or d
                elif not reduced:
                    return ConfluenceReport(False, witness=e, degree=d)
    if inconclusive_at:
        return ConfluenceReport(None, degree=inconclusive_at)
    return ConfluenceReport(True)


def _frame_instances(rule_elements, ctx, d):
    out = []
    seen = set()
    for el in rule_elements:
        degs = el.degrees()
        if len(degs) != 1:
            raise QuiverError("diamond_check expects homogeneous rules")
        wr = degs[0]
        for dl in range(0, d - wr + 1):
            dr = d - wr - dl
            for u in ctx.walks(dl):
                lhs = ctx.path(u) * el if u else el
                if lhs.is_zero():
                    continue
                for v in ctx.walks(dr):
                    inst = lhs * ctx.path(v) if v else lhs
                    if inst.is_zero():
                        continue
                    key = frozenset(inst.terms.items())
                    if key not in seen:
                        seen.add(key)
                        out.append(inst)
    return out


def _lead_kernel(coeffs):
    """Basis of the integer kernel of the 1 x n row (c_1 ... c_n): the
    non-pivot columns of the unimodular V with (c) V in Smith form."""
    n = len(coeffs)
    res = smith_normal_form([dict(enumerate(coeffs))], n)
    V = [apply_col_ops({i: 1}, res.col_ops) for i in range(n)]
    return [[V[i].get(j, 0) for i in range(n)] for j in range(n) if j not in res.diag_by_col]


def _solve_combo(coeffs, target):
    """Integers k_i with sum k_i c_i = target; requires gcd | target."""
    combo = [0] * len(coeffs)
    g = 0
    for i, c in enumerate(coeffs):
        gg, x, y = _xgcd(g, c)
        combo = [x * k for k in combo]
        combo[i] = y
        g = gg
    if g == 0:
        raise ArithmeticError("all candidate leads vanish")
    q, r = divmod(target, g)
    if r:
        raise ArithmeticError("target not in the lead ideal")
    return [k * q for k in combo]


def _reduces_to_zero(e, entries, maximal):
    """True or False, or None when REDUCTION_BUDGET steps did not settle it."""
    steps = 0
    while not e.is_zero():
        steps += 1
        if steps > REDUCTION_BUDGET:
            return None
        m = maximal(list(e.terms))
        c = e.terms[m]
        cands = [el for (lm, el) in entries if lm == m]
        if not cands:
            return False
        leads = [el.terms[m] for el in cands]
        g = 0
        for v in leads:
            g = math.gcd(g, v)
        if g == 0 or c % g:
            return False
        for k, el in zip(_solve_combo(leads, c), cands):
            if k:
                e = e - el.scale(k)
        if e.terms.get(m):
            return False
    return True
