"""Exact arithmetic in path algebras of doubled quivers over Z.

A PathContext fixes the ambient doubled quiver; a word's degree is its
length.  Elements are sparse maps monomial -> integer coefficient;
cyclic elements are sparse maps necklace -> integer coefficient.  Monomials
are (source_vertex, arrows_tuple); an empty tuple is the idempotent at its
vertex.  Necklaces are keyed by the lexicographically minimal rotation of the
arrow tuple (degree zero necklaces by their vertex).  Answers over Q or Z/m
are read off the integer ones.

Everything is immutable in spirit: operations return fresh objects and never
mutate their inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .quiver import Quiver, QuiverError, double


class RingError(ValueError):
    pass


def _integer(c):
    if not isinstance(c, int):
        raise RingError(f"{c!r} is not an integer")
    return c


class PathContext:
    """Ambient doubled quiver, graded by word length."""

    def __init__(self, quiver: Quiver, auto_double=True):
        if auto_double and not quiver.starred:
            quiver = double(quiver)
        self.quiver = quiver
        self._reach = {}    # first letter -> reach table, see necklaces

    def letters(self):
        return [self.arrow(a) for (a, _, _) in self.quiver.arrows]

    def walks(self, d, start=None, end=None):
        """Composable words of length d from start to end; None is any vertex.

        Depth first from one explicit stack seeded with every start vertex,
        so callers that build rows from the walks see a fixed order.  Normal
        words of a rewrite system come from RewriteSystem.normal_monomials.
        """
        q = self.quiver
        if d == 0:
            if start is None or end is None or start == end:
                yield ()
            return
        stack = [((), v, 0) for v in (q.vertices if start is None else (start,))]
        while stack:
            word, cur, n = stack.pop()
            n += 1
            for a in q.out_arrows(cur):
                if n < d:
                    stack.append((word + (a,), q.dst(a), n))
                elif n == d and (end is None or q.dst(a) == end):
                    yield word + (a,)

    def necklaces(self, lo, hi, leads=None):
        """(degree, CyclicClass) of each closed walk of length lo..hi (lo > 0),
        once, from one depth-first search: within a degree in increasing order
        of words.  By the prenecklace recursion of Fredricksen, Kessler and
        Maiorana (Ruskey, Savage, Wang 1992): a prenecklace of period p extends
        by b >= word[-p] (period p if equal, else the new length) and is a
        necklace, its least rotation, when p divides its length.  A prefix is
        kept while it can still close at some length of the window, so the
        degrees share their prefixes.  With leads (rewrite._Automaton of
        leading words), only the classes where every occurrence of one, read
        cyclically, has a cut point strictly inside it (a rotation is free of
        them); prefixes are cut the same way.
        """
        if hi < 1:
            return
        q = self.quiver
        succ = {v: sorted(((a, q.dst(a)) for a in q.out_arrows(v)), reverse=True)
                for v in q.vertices}
        arrows = sorted(a for (a, _, _) in q.arrows)
        for k, first in enumerate(arrows):
            # reach[r]: vertices with a walk of length r to start on letters
            # >= first; it depends on the quiver alone, so it is kept and
            # extended as degrees grow
            start = q.src(first)
            reach = self._reach.setdefault(first, [{start}])
            for r in range(len(reach), hi):
                reach.append({q.src(a) for a in arrows[k:] if q.dst(a) in reach[r - 1]})
            # close[t]: the end vertices from which a prefix of length t can
            # still close within lo..hi, the union of reach[lo - t .. hi - t]
            close, upto = [None] * (hi + 1), set()
            for t in range(hi, 0, -1):
                upto = upto | reach[hi - t]
                close[t] = upto if t >= lo else set().union(*reach[lo - t:hi - t + 1])
            v0 = q.dst(first)
            node, hit = leads.advance(0, first) if leads is not None else (0, 0)
            if hit or v0 not in close[1]:
                continue
            # (word, period, end vertex, automaton state, cuts clo..chi); a
            # lead met puts chi at a letter index, below hi: chi == hi says none was
            stack = [((first,), 1, v0, node, 0, hi)]
            while stack:
                word, p, v, node, clo, chi = stack.pop()
                t = len(word)
                if t >= lo and v == start and t % p == 0 and (
                        chi == hi or _has_cut(word, node, clo, chi, leads)):
                    yield t, CyclicClass(start, word)
                if t == hi:
                    continue
                floor, reachable = word[t - p], close[t + 1]
                for a, b in succ[v]:
                    if a < floor:
                        break
                    if b not in reachable:
                        continue
                    nnode, nlo, nhi = node, clo, chi
                    if leads is not None:
                        nnode, hit = leads.advance(node, a)
                        if hit:
                            nlo, nhi = max(clo, t + 2 - hit), min(chi, t)
                            if nlo > nhi:
                                continue
                    stack.append((word + (a,), p if a == floor else t + 1, b,
                                  nnode, nlo, nhi))

    # -- monomial helpers ------------------------------------------------

    def mono_target(self, mono):
        v, word = mono
        return self.quiver.dst(word[-1]) if word else v

    def idempotent(self, v):
        if v not in set(self.quiver.vertices):
            raise QuiverError(f"{v} is not a vertex")
        return Element(self, {(v, ()): 1})

    def identity(self):
        return Element(self, {(v, ()): 1 for v in self.quiver.vertices})

    def arrow(self, a):
        return Element(self, {(self.quiver.src(a), (a,)): 1})

    def zero(self):
        return Element(self, {})

    def path(self, word):
        word = tuple(word)
        if not word:
            raise QuiverError("use idempotent() for empty paths")
        for a, b in zip(word, word[1:]):
            if self.quiver.dst(a) != self.quiver.src(b):
                raise QuiverError("word is not a composable path")
        return Element(self, {(self.quiver.src(word[0]), word): 1})

    def element(self, terms):
        return Element(self, {m: c for m, c in terms.items() if _integer(c)})

    def cyclic(self, terms):
        return CycElement(self, {k: c for k, c in terms.items() if _integer(c)})


def free_context(names) -> PathContext:
    """Free algebra on the named letters: one vertex, loops, no doubling."""
    q = Quiver([0], [(i, 0, 0) for i in range(len(names))],
               names={i: nm for i, nm in enumerate(names)})
    return PathContext(q, auto_double=False)


def canonical_rotation(word):
    """Lexicographically minimal rotation of an arrow tuple.  It starts with
    the least letter, so only the rotations that do are built."""
    if len(word) <= 1:
        return word
    m = min(word)
    best = word
    for k in range(1, len(word)):
        if word[k] == m:
            rot = word[k:] + word[:k]
            if rot < best:
                best = rot
    return best


def _has_cut(word, node, lo, hi, leads):
    """Whether a cut in lo..hi lies inside every occurrence of a leading word
    that wraps round the end of word (read up to state node)."""
    n, wraps = len(word), []
    for j in range(1, leads.longest):
        node, hit = leads.advance(node, word[(j - 1) % n])
        if j < hit <= n:
            wraps.append((n + j - hit, j))     # from n + j - hit to cut j
    return any(all(c > s or c < e for s, e in wraps) for c in range(lo, hi + 1))


@dataclass(frozen=True)
class CyclicClass:
    """A closed path up to rotation, stored as its canonical rotation.

    Degree-zero classes carry the vertex and an empty word.
    """

    vertex: int
    word: tuple

    @staticmethod
    def of(ctx, mono):
        v, word = mono
        if not word:
            return CyclicClass(v, ())
        if ctx.mono_target(mono) != v:
            raise QuiverError("only closed paths have a cyclic class")
        w = canonical_rotation(word)
        return CyclicClass(ctx.quiver.src(w[0]), w)


class _Combination:
    """Sparse integer combination of keys in one context: terms maps each key
    to its nonzero coefficient.  Subclasses fix the key type and define
    _degree(key)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({self._degree(k) for k in self.terms})

    def homogeneous_part(self, d):
        return type(self)(self.ctx, {k: c for k, c in self.terms.items()
                                     if self._degree(k) == d})

    def _check_mate(self, other):
        if type(other) is not type(self) or self.ctx.quiver is not other.ctx.quiver:
            raise QuiverError("elements live in different contexts")

    def __add__(self, other):
        self._check_mate(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return type(self)(self.ctx, out)

    def __neg__(self):
        return type(self)(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        if not _integer(k):
            return type(self)(self.ctx, {})
        return type(self)(self.ctx, {m: c * k for m, c in self.terms.items()})

    def __rmul__(self, k):
        if isinstance(k, int):
            return self.scale(k)
        return NotImplemented

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms \
            and self.ctx.quiver is other.ctx.quiver

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class Element(_Combination):
    """Sparse linear combination of path monomials in one context."""

    __slots__ = ()

    def _degree(self, mono):
        return len(mono[1])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_mate(other)
        ctx = self.ctx
        out = {}
        for (v1, w1), c1 in self.terms.items():
            t1 = ctx.quiver.dst(w1[-1]) if w1 else v1
            for (v2, w2), c2 in other.terms.items():
                if t1 != v2:
                    continue
                key = (v1, w1 + w2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Element(ctx, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.ctx.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        return render_element(self)


class CycElement(_Combination):
    """Sparse combination of cyclic classes (necklaces)."""

    __slots__ = ()

    def _degree(self, key):
        return len(key.word)

    def divide_exact(self, k):
        """Divide every coefficient by k; raises unless exactly divisible."""
        out = {}
        for m, c in self.terms.items():
            q, r = divmod(c, k)
            if r != 0:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            out[m] = q
        return CycElement(self.ctx, out)

    def __repr__(self):
        return render_cyclic(self)


def cyclic_project(x: Element) -> CycElement:
    """Image in A/[A,A]: open paths die, closed ones become necklaces."""
    ctx = x.ctx
    out = {}
    for mono, c in x.terms.items():
        v, word = mono
        if word and ctx.mono_target(mono) != v:
            continue
        key = CyclicClass.of(ctx, mono)
        s = out.get(key, 0) + c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return CycElement(ctx, out)


# ---------------------------------------------------------------------------
# named element constructions


def preprojective_relation(ctx: PathContext, white=()):
    """Local relations e_i r e_i at the black vertices of the doubled quiver.

    r = sum over original arrows of (a a* - a* a); the piece at vertex i
    collects a a* over arrows leaving i and -a* a over arrows entering i.
    """
    q = ctx.quiver
    if not q.starred:
        raise QuiverError("preprojective relations need a doubled quiver")
    white = q.white_set(white)
    original = [a for (a, _, _) in q.arrows if a < q.star[a]]
    rels = []
    for i in q.vertices:
        if i in white:
            continue
        terms = {}
        for a in original:     # each arrow gives its own keys
            if q.src(a) == i:
                terms[(i, (a, q.star[a]))] = 1
            if q.dst(a) == i:
                terms[(i, (q.star[a], a))] = -1
        el = ctx.element(terms)
        if not el.is_zero():
            rels.append(el)
    return rels


def z_ab(a: int, b: int, x: Element, y: Element) -> Element:
    """(xy)^b x^(a-b) when a >= b, else (yx)^a y^(b-a)."""
    if a < 0 or b < 0:
        raise ValueError("indices must be nonnegative")
    if a >= b:
        return (x * y) ** b * x ** (a - b)
    return (y * x) ** a * y ** (b - a)


def _compositions_of_pairs(total_a, total_b, k):
    """Sequences of k pairs (a_l, b_l), a_l > b_l >= 0, with the stated sums."""
    if k == 0:
        if total_a == 0 and total_b == 0:
            yield ()
        return
    for b0 in range(0, total_b - (k - 1)):
        for a0 in range(b0 + 1, total_a - (k - 1) + 1):
            for rest in _compositions_of_pairs(total_a - a0 - 1, total_b - b0 - 1, k - 1):
                yield ((a0, b0),) + rest


def w_ab(a: int, b: int, rprime: Element, x: Element, y: Element) -> CycElement:
    """The relation class of bidegree (a, b): a cyclic element.

    Off the diagonal this is a sum over bituples of (gcd(a,b)/rep) times the
    necklace of the alternating product of r' (negated when a > b) and z
    factors; on the diagonal it is [(xy + r')^a] - [(xy)^a].  A bituple class
    with k factors and rep repeats is k/rep of the ordered compositions, so
    the sum over compositions is scaled by gcd(a,b) and divided by k.
    Coefficients must come out integral; a failure is a bug, not a data error.
    """
    if a < 1 or b < 1:
        raise ValueError("w_ab needs a, b >= 1")
    ctx = rprime.ctx
    if a == b:
        return cyclic_project((x * y + rprime) ** a - (x * y) ** a)
    g = math.gcd(a, b)
    r = -rprime if a > b else rprime
    out = ctx.cyclic({})
    for k in range(1, min(a, b) + 1):
        total = ctx.zero()
        for pairs in _compositions_of_pairs(max(a, b), min(a, b), k):
            prod = ctx.identity()
            for al, bl in pairs:
                prod = prod * r * (z_ab(al, bl, x, y) if a > b else z_ab(bl, al, x, y))
            total = total + prod
        out = out + cyclic_project(total).scale(g).divide_exact(k)
    return out


# ---------------------------------------------------------------------------
# text rendering, round-trip parseable


def _render_word(ctx, word):
    names = []
    k = 0
    while k < len(word):
        j = k
        while j < len(word) and word[j] == word[k]:
            j += 1
        nm = ctx.quiver.arrow_name(word[k])
        names.append(nm if j - k == 1 else f"{nm}^{j - k}")
        k = j
    return " ".join(names)


def _render_terms(ctx, items, bracket):
    bodies = []
    for (key, word, c) in items:
        body = _render_word(ctx, word) if word else f"e_{key}"
        bodies.append((f"[{body}]" if bracket else body, c))
    return _signed_sum(bodies)


def _signed_sum(items):
    """c1*body1 + c2*body2 ... from (body, c) pairs: a coefficient of +-1 is
    written as a sign alone, and a negative term is joined with " - "."""
    if not items:
        return "0"
    parts = []
    for body, c in items:
        if c == 1:
            token = body
        elif c == -1:
            token = f"-{body}"
        else:
            token = f"{c}*{body}"
        parts.append(token)
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def render_element(x: Element) -> str:
    return _render_sorted(x, lambda mono: mono, bracket=False)


def render_cyclic(x: CycElement) -> str:
    return _render_sorted(x, lambda key: (key.vertex, key.word), bracket=True)


def _render_sorted(x, view, bracket):
    """The terms of x, each key read as (vertex, word) by view, in order of
    length, then word, then vertex."""
    items = sorted(((*view(k), c) for k, c in x.terms.items()),
                   key=lambda it: (len(it[1]), it[1], it[0]))
    return _render_terms(x.ctx, items, bracket)


_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?(\[[^\]]*\]|[^\s+-]+(?:\s+[^\s+-]+)*)")


def _parse_mono(ctx, text):
    """The monomial of e_i or of a word of arrow names; QuiverError unless it
    is the idempotent of a vertex or a composable path."""
    if text.startswith("e_"):
        v = text[2:]
        if not v.isdigit() or int(v) not in ctx.quiver.vertices:
            raise QuiverError(f"{text!r} is not the idempotent of a vertex")
        return int(v), ()
    byname = ctx.quiver.name_to_arrow()
    word = []
    for tok in text.split():
        m = re.fullmatch(r"(.+?)\^(\d+)", tok)
        nm, k = (m.group(1), int(m.group(2))) if m else (tok, 1)
        if nm not in byname:
            raise QuiverError(f"unknown arrow name {nm!r}")
        word += [byname[nm]] * k
    if not word:
        raise QuiverError("empty path; write e_i for the idempotent at vertex i")
    (mono,) = ctx.path(word).terms
    return mono


def parse_element(ctx: PathContext, text: str):
    """Inverse of render_element / render_cyclic.

    Returns an Element when no square brackets appear, else a CycElement:
    in cyclic text every term, bracketed or not, is taken to its class.
    """
    text = text.strip()
    if text == "0":
        return ctx.zero()
    cyclic = "[" in text
    acc = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        # after the first term, each term begins with its + or - sign
        if not m or m.end() == pos or (pos and not m.group(1)):
            raise QuiverError(f"cannot parse element near {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        body = m.group(3).strip()
        pos = m.end()
        if body.startswith("[") != body.endswith("]"):
            raise QuiverError(f"unbalanced brackets in {body!r}")
        if body.startswith("["):
            body = body[1:-1].strip()
        key = _parse_mono(ctx, body)
        if cyclic:
            key = CyclicClass.of(ctx, key)
        acc[key] = acc.get(key, 0) + coeff
    return ctx.cyclic(acc) if cyclic else ctx.element(acc)
