"""Noncommutative rewriting in path algebras: graded-lex orders (a word's
degree is its length), reduction (one loop, _reduce), the rule automaton,
and Buchberger-style completion with unit leading coefficients.  A
completion certifies its normal words through its bound by Bergman's
Diamond Lemma, the unit case of the ring lemma in the paper's appendix:
every overlap of length within the bound resolves.

Completion pays per rule it installs: the overlaps of a new lead come from
an index of the proper prefixes and suffixes of the live leads, and its
stale leads from the longer live leads; S-elements are built from the two
rules' terms and reduced once, where they are installed; and during
completion the automaton holds only the leads shorter than the words being
reduced, so installing a longer lead keeps it.  A completed system's
automaton holds every lead, and every tail word of its rules is normal.  An
S-pair whose overlap word has a live lead strictly inside it is skipped
unreduced (the chain criterion, see complete): its smaller sub-overlaps
resolve it.

A RewriteSystem keeps its rules in one table, leading word -> rule, and
every rule is led by +1: an element led by -1 is negated when its rule is
built.  Completion over Z insists on +-1 leading coefficients; when an
S-element reduces to something with a non-unit lead we raise NonUnitLead
and callers fall back to degreewise integer linear algebra.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from .freealg import Element, PathContext, _render_terms
from .quiver import QuiverError


class NonUnitLead(Exception):
    """Completion produced an element whose leading coefficient is not a unit."""

    def __init__(self, element):
        super().__init__("non-unit leading coefficient during completion")
        self.element = element


class MonomialOrder:
    """Graded lex: compare (length, letter positions, source).

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
        # sort key of words by letter positions; None when positions follow ids
        self.letter_key = None if sorted(pos, key=pos.get) == sorted(pos) else \
            (lambda word: tuple(map(pos.__getitem__, word)))

    def key(self, mono):
        v, word = mono
        return (len(word), tuple(map(self.position.__getitem__, word)), v)

    def leading(self, x: Element):
        if x.is_zero():
            raise ValueError("zero element has no leading term")
        lm = max(x.terms, key=self.key)
        return lm, x.terms[lm]


class RewriteRule:
    """element = LM + tail, every tail monomial strictly smaller; an element
    led by -1 is negated, any other non-unit lead raises NonUnitLead."""

    __slots__ = ("element", "lm", "lm_word", "tail")

    def __init__(self, element: Element, order: MonomialOrder):
        lm, lc = order.leading(element)
        if lc == -1:
            element = -element
        elif lc != 1:
            raise NonUnitLead(element)
        self.element = element
        self.lm = lm
        self.lm_word = lm[1]
        self.tail = [(m[1], c) for m, c in element.terms.items() if m != lm]

    def __repr__(self):
        return f"RewriteRule({self.element!r})"


def render_rule(element: Element, order: MonomialOrder) -> str:
    """Terms in descending monomial order, the way GB listings are printed."""
    items = sorted(((m[0], m[1], c) for m, c in element.terms.items()),
                   key=lambda it: order.key((it[0], it[1])), reverse=True)
    return _render_terms(element.ctx, items, bracket=False)


class RewriteSystem:
    """The rules of a completion (see complete, which builds them), whose
    normal words are a Z-basis through complete_to_degree."""

    def __init__(self, ctx: PathContext, order: MonomialOrder, complete_to_degree):
        self.ctx = ctx
        self.order = order
        self.complete_to_degree = complete_to_degree
        self._by_lead = {}      # leading word -> rule, in insertion order
        self.rules = self._by_lead.values()
        self._aut = None
        self._bound = 0         # _aut holds the leads shorter than this
        self._paths = {}        # source -> (length, layer), see normal_monomials

    def check_degree(self, d):
        """QuiverError above complete_to_degree, the last degree whose normal
        words the completion certifies."""
        if d > self.complete_to_degree:
            raise QuiverError(f"degree {d} beyond certified bound {self.complete_to_degree}")

    def _install(self, rule, stale=()):
        """Drop the stale rules and add rule; the normal path tables are
        rebuilt on next use, and so is the automaton when a lead added or
        dropped is shorter than its bound."""
        if not rule.lm_word:
            raise QuiverError("rules must have positive degree")
        for r in stale:
            del self._by_lead[r.lm_word]
        self._by_lead[rule.lm_word] = rule
        if min(len(r.lm_word) for r in (rule, *stale)) < self._bound:
            self._aut = None
        self._paths = {}

    def _find_reduction(self, word):
        """(start, rule) of the leftmost leading word in word, or None.  The
        automaton reports the occurrence that ends first; leading words are
        never subwords of one another, so it is also the one that starts first.
        It holds the leads shorter than a bound >= len(word); at the bound the
        only lead left to check is the word itself."""
        n = len(word)
        aut = self._aut
        if aut is None or self._bound < n:
            aut = self._automaton(n)
        table, hit, node = aut.table, aut.hit, 0
        for k, a in enumerate(word):
            node = table[node].get(a, 0)
            if hit[node]:
                start = k + 1 - hit[node]
                return start, self._by_lead[word[start:k + 1]]
        if n == self._bound and word in self._by_lead:
            return 0, self._by_lead[word]
        return None

    def reduce(self, x: Element) -> Element:
        """Iterated reduction until no monomial contains a leading word."""
        return Element(self.ctx, self._reduce(x.terms))

    def _reduce(self, terms, lo=0, tail=0):
        """The normal form of {(v, word): coeff} as such a dict, or None once
        a rewrite's leading word starts before position lo, or ends within
        the last tail letters, of the word being rewritten: with a guard, the
        first lo and last tail letters of every word met stay as they are.
        The work is popped last in, first out, so equal input gives equal
        output, item order included."""
        work = dict(terms)
        normal = {}
        while work:
            mono, coeff = work.popitem()
            v, word = mono
            hit = self._find_reduction(word)
            if hit is None:
                s = normal.get(mono, 0) + coeff
                if s:
                    normal[mono] = s
                else:
                    normal.pop(mono, None)
                continue
            k, rule = hit
            end = k + len(rule.lm_word)
            if k < lo or len(word) - end < tail:
                return None
            prefix = word[:k]
            suffix = word[end:]
            for rw, rc in rule.tail:
                key = (v, prefix + rw + suffix)
                s = work.get(key, 0) - coeff * rc
                if s:
                    work[key] = s
                else:
                    work.pop(key, None)
        return normal

    def _automaton(self, bound=math.inf):
        """The automaton of the leads shorter than _bound >= bound; every lead
        by default.  One that falls short is rebuilt at bound, unless it
        already holds every lead."""
        if self._aut is None or self._bound < bound:
            if self._aut is None or max(map(len, self._by_lead), default=0) >= self._bound:
                self._aut = _Automaton([w for w in self._by_lead if len(w) < bound])
            self._bound = bound
        return self._aut

    def normal_monomials(self, i, j, d):
        """All length-d normal paths i -> j, sorted by the monomial order.

        Read from one table per source i: layer w maps (end vertex, automaton
        state) to the normal words of length w from i, and is built once from
        layer w - 1, one automaton step per (word group, arrow), so every
        target and later degree reads it instead of walking again.  The table
        keeps its last layer, the one a later length extends; a degree below
        it rebuilds the table from length 0.
        """
        self.check_degree(d)
        if d < 0:
            return []
        w, layer = self._paths.get(i, (d + 1, None))
        if w > d:
            w, layer = 0, {(i, 0): [()]}
        for w in range(w + 1, d + 1):
            nxt = {}
            for key, a, group in self._steps(layer):
                tail = (a,)
                nxt.setdefault(key, []).extend([u + tail for u in group])
            layer = nxt
        self._paths[i] = d, layer
        # at one length and one source the order compares letters
        words = [u for (v, _), group in layer.items() if v == j for u in group]
        words.sort(key=self.order.letter_key)
        return [(i, u) for u in words]

    def _steps(self, layer):
        """((end vertex, automaton state), a, group) for each group of layer
        and arrow a that extends it to a normal path."""
        q = self.ctx.quiver
        aut = self._automaton()
        table, hits = aut.table, aut.hit
        for (v, node), group in layer.items():
            row = table[node]
            for a in q.out_arrows(v):
                nxt = row.get(a, 0)
                if not hits[nxt]:
                    yield (q.dst(a), nxt), a, group

    def normal_count_matrix(self, dmax):
        """counts[d][si][ti] = number of length-d normal paths, vertex-indexed:
        the layers of normal_monomials with a count for each word group."""
        self.check_degree(dmax)
        verts = list(self.ctx.quiver.vertices)
        vidx = {v: k for k, v in enumerate(verts)}
        counts = [[[0] * len(verts) for _ in verts] for _ in range(dmax + 1)]
        for si, s in enumerate(verts):
            layer = {(s, 0): 1}
            for w in range(dmax + 1):
                if w:
                    prev, layer = layer, {}
                    for key, _, c in self._steps(prev):
                        layer[key] = layer.get(key, 0) + c
                for (v, _), c in layer.items():
                    counts[w][si][vidx[v]] += c
        return counts

    def export_text(self):
        """Rules one per line, sorted by descending leading monomial."""
        rs = sorted(self.rules, key=lambda r: self.order.key(r.lm), reverse=True)
        return "\n".join(render_rule(r.element, self.order) for r in rs)


def _listing_body(text):
    """The body of a listing in the export_text format: its lines other than
    comment (#) lines and blank lines, stripped."""
    return "\n".join(l for l in text.splitlines()
                     if l.strip() and not l.startswith("#")).strip()


class _Automaton:
    """Aho-Corasick over arrow ids with a full transition table: advance reads
    a letter in one lookup (a letter missing from table[state] leads to the
    root) and returns the new state and the length of the forbidden word
    ending there, or 0.  No listed word may be a proper subword of another
    (true of inter-reduced rules)."""

    def __init__(self, words):
        self.table = [{}]
        self.hit = [0]
        self.longest = max(map(len, words), default=0)
        for w in words:
            node = 0
            for a in w:
                nxt = self.table[node].get(a)
                if nxt is None:
                    self.table.append({})
                    self.hit.append(0)
                    nxt = len(self.table) - 1
                    self.table[node][a] = nxt
                node = nxt
            self.hit[node] = len(w)
        # breadth first, so a state's (shallower) fail state has its full row
        # when the state is reached: copy that row, then add the trie edges
        fail = [0] * len(self.table)
        todo = deque([0])
        while todo:
            u = todo.popleft()
            f = fail[u]
            for a, v in self.table[u].items():
                fail[v] = self.table[f].get(a, 0) if u else 0
                self.hit[v] = self.hit[v] or self.hit[fail[v]]
                todo.append(v)
            if u:
                self.table[u] = {**self.table[f], **self.table[u]}

    def advance(self, node, a):
        nxt = self.table[node].get(a, 0)
        return nxt, self.hit[nxt]


def _check_bound(D):
    if D < 0:
        raise QuiverError(f"degree bound must be >= 0, got {D}")


class _OverlapIndex:
    """The live leads of a completion by their proper prefixes (heads),
    proper suffixes (tails) and lengths, each -> {lead: rule}, so the
    overlaps of a lead take one lookup per split, and its stale leads one
    scan of the longer leads, instead of a scan of every rule."""

    def __init__(self):
        self.heads, self.tails, self.lengths = {}, {}, {}

    def add(self, rule):
        w = rule.lm_word
        self.lengths.setdefault(len(w), {})[w] = rule
        for k in range(1, len(w)):
            self.heads.setdefault(w[:k], {})[w] = rule
            self.tails.setdefault(w[k:], {})[w] = rule

    def drop(self, rule):
        w = rule.lm_word
        del self.lengths[len(w)][w]
        for k in range(1, len(w)):
            del self.heads[w[:k]][w]
            del self.tails[w[k:]][w]

    def containing(self, rule):
        """The live rules whose leads contain rule's lead as a proper subword:
        only a longer lead can."""
        u = rule.lm_word
        return [r for n, group in self.lengths.items() if n > len(u)
                for r in group.values() if _contains(r.lm_word, u)]

    def overlaps(self, rule):
        """(ri, rj, split) for each proper overlap, suffix of ri's lead =
        prefix of rj's, between rule's lead and a live one, its own included."""
        u = rule.lm_word
        n = len(u)
        found = []
        for k in range(1, n):
            found += [(rule, other, n - k) for other in self.heads.get(u[n - k:], {}).values()]
            found += [(other, rule, len(other.lm_word) - k)
                      for other in self.tails.get(u[:k], {}).values() if other is not rule]
        return found


def complete(gens, order: MonomialOrder, max_degree: int) -> RewriteSystem:
    """Buchberger-style completion of a two-sided ideal up to max_degree.

    Every leading coefficient met along the way must be a unit, else
    NonUnitLead.  The result certifies normal forms through max_degree:
    all overlap words of length <= max_degree resolve.  A negative
    max_degree is a QuiverError.

    S-pairs are popped by overlap length, in any order within a length,
    and only when no element is pending; that order does not change the
    completed rules, but in a system that is not homogeneous it can decide
    whether a non-unit lead is met.  A pair's S-element joins the
    pending elements; each is reduced once, and installed unless it
    reduces to zero.  A pair whose rule was dropped is skipped, and so, by
    the chain criterion, is a live pair (ri, rj) whose overlap word W has a
    live lead h strictly inside it, at [i, j) with 0 < i and j < |W|: its
    S-element is never built.  Why W still resolves:

    - live leads never contain one another, so h sticks out of lm(ri) on
      the right or lies after it, and out of lm(rj) on the left or lies
      before it;
    - so, with W = lm(ri) C = A lm(rj) = X h Y, the S-element splits as
      ri*C - A*rj = (ri*C - X*h*Y) + (X*h*Y - A*rj), and each bracket is a
      disjoint ambiguity, which always resolves, or an outer word times
      the S-element of a proper sub-overlap of W;
    - a proper sub-overlap is shorter than W; its two rules are live, so
      it was pushed when the later of them was installed, and as the heap
      pops by length with pending drained first, it was popped before W
      and resolved or, by induction, skipped;
    - so W resolves relative to smaller words in the final system, which
      is all that Bergman's Diamond Lemma needs.

    Two leads that are both prefixes of W would contain one another, so an
    overlap word fixes its pair, and the same-lcm criteria of Gebauer and
    Moller (1988) have nothing left to remove: a lead strictly inside W is
    the whole chain criterion here.
    """
    _check_bound(max_degree)
    gens = [g for g in gens if not g.is_zero()]
    ctx = order.ctx
    src, dst = ctx.quiver.src, ctx.quiver.dst
    sys_ = RewriteSystem(ctx, order, max_degree)
    pending = deque(g.terms for g in sorted(gens, key=lambda g: order.key(order.leading(g)[0])))
    pairs = []  # heap of (overlap length, counter, rule_i, rule_j, split)
    counter = 0
    index = _OverlapIndex()
    while pending or pairs:
        if pending:
            cand = sys_._reduce(pending.popleft())
            if not cand:
                continue
            rule = RewriteRule(Element(ctx, cand), order)
            stale = index.containing(rule)
            sys_._install(rule, stale)
            for r in stale:
                index.drop(r)
            index.add(rule)
            pending.extend(r.element.terms for r in stale)
            for ri, rj, s in index.overlaps(rule):
                n = s + len(rj.lm_word)
                if n <= max_degree:
                    heapq.heappush(pairs, (n, counter, ri, rj, s))
                    counter += 1
            continue
        _, _, ri, rj, s = heapq.heappop(pairs)
        live = sys_._by_lead.get
        if live(ri.lm_word) is not ri or live(rj.lm_word) is not rj:
            continue
        suffix = rj.lm_word[len(ri.lm_word) - s:]
        if sys_._find_reduction((ri.lm_word + suffix)[1:-1]) is not None:
            continue    # a live lead strictly inside the overlap: it resolves
        # ri * suffix - prefix * rj, with the endpoint checks and the item
        # order of the Element product and difference
        prefix = ri.lm_word[:s]
        spoly, a = {}, src(suffix[0])
        for (v, w), c in ri.element.terms.items():
            if (dst(w[-1]) if w else v) == a:
                spoly[(v, w + suffix)] = c
        v0, b = src(prefix[0]), dst(prefix[-1])
        for (v, w), c in rj.element.terms.items():
            if v == b:
                key = (v0, prefix + w)
                c = spoly.get(key, 0) - c
                if c:
                    spoly[key] = c
                else:
                    spoly.pop(key, None)
        pending.append(spoly)
    sys_._automaton()   # every lead, for the normal words and necklaces read off it
    _reduce_tails(sys_)
    return sys_


def _reduce_tails(sys_):
    """Rebuild as lm + NF(tail) each rule of a completed system whose tail
    holds a live lead.  A tail is reduced against the rules present when
    its rule is installed, and a later rule can be led by a word of it.
    Rebuilt in place, so the rules keep their install order."""
    for w, r in list(sys_._by_lead.items()):
        if any(sys_._find_reduction(u) is not None for u, _ in r.tail):
            tail = {m: c for m, c in r.element.terms.items() if m != r.lm}
            sys_._by_lead[w] = RewriteRule(
                Element(sys_.ctx, {r.lm: 1, **sys_._reduce(tail)}), sys_.order)


def _contains(big, small):
    if len(small) >= len(big):
        return False
    return any(big[k:k + len(small)] == small for k in range(len(big) - len(small) + 1))
