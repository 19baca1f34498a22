"""Exact arithmetic in path algebras of doubled quivers over Z, Q, or Z/m.

A PathContext fixes the ambient doubled quiver, the coefficient ring, the
per-arrow weights used for grading, and an optional truncation degree.
Elements are sparse maps monomial -> coefficient; cyclic elements are sparse
maps necklace -> coefficient.  Monomials are (source_vertex, arrows_tuple);
an empty tuple is the idempotent at its vertex.  Necklaces are keyed by the
lexicographically minimal rotation of the arrow tuple (degree zero necklaces
by their vertex).

Everything is immutable in spirit: operations return fresh objects and never
mutate their inputs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .quiver import Quiver, QuiverError, double


class RingError(ValueError):
    pass


class IntegerRing:
    name = "Z"

    def coerce(self, c):
        if isinstance(c, int):
            return c
        if isinstance(c, Fraction) and c.denominator == 1:
            return int(c)
        raise RingError(f"{c!r} is not an integer")

    def is_unit(self, c):
        return c in (1, -1)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(self.name)


class RationalRing:
    name = "Q"

    def coerce(self, c):
        if isinstance(c, (int, Fraction)):
            return Fraction(c)
        raise RingError(f"{c!r} is not rational")

    def is_unit(self, c):
        return c != 0

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(self.name)


class ModRing:
    def __init__(self, m):
        if m < 2:
            raise RingError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"

    def coerce(self, c):
        if isinstance(c, int):
            return c % self.m
        raise RingError(f"{c!r} is not an integer")

    def is_unit(self, c):
        return math.gcd(c % self.m, self.m) == 1

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash(self.name)


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_tag(tag):
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    m = re.fullmatch(r"Zmod:(\d+)", tag)
    if m:
        return ModRing(int(m.group(1)))
    raise RingError(f"unknown ring tag {tag!r}")


class PathContext:
    """Ambient doubled quiver + coefficient ring + grading weights.

    degree_bound, when set, truncates every product: monomials heavier than
    the bound are silently dropped.
    """

    def __init__(self, quiver: Quiver, ring=ZZ, degree_bound=None, weights=None,
                 auto_double=True):
        if auto_double and not quiver.starred:
            quiver = double(quiver)
        self.quiver = quiver
        self.ring = ring
        self.degree_bound = degree_bound
        self.weights = dict(weights) if weights else {a: 1 for (a, _, _) in quiver.arrows}
        for (a, _, _) in quiver.arrows:
            if self.weights.get(a, 0) < 1:
                raise QuiverError("weights must be positive")

    def weight(self, word):
        w = 0
        for a in word:
            w += self.weights[a]
        return w

    def letters(self):
        return [self.arrow(a) for (a, _, _) in self.quiver.arrows]

    def walks(self, d, start=None, end=None):
        """Composable words of weight d from start to end; None is any vertex.

        Depth first from one explicit stack seeded with every start vertex,
        so callers that build rows from the walks see a fixed order.
        """
        q = self.quiver
        if d == 0:
            if start is None or end is None or start == end:
                yield ()
            return
        stack = [((), v, 0) for v in (q.vertices if start is None else (start,))]
        while stack:
            word, cur, wt = stack.pop()
            for a in q.out_arrows(cur):
                nw = wt + self.weights[a]
                if nw > d:
                    continue
                w2 = word + (a,)
                if nw < d:
                    stack.append((w2, q.dst(a), nw))
                elif end is None or q.dst(a) == end:
                    yield w2

    # -- monomial helpers ------------------------------------------------

    def mono_target(self, mono):
        v, word = mono
        return self.quiver.dst(word[-1]) if word else v

    def mono_source(self, mono):
        return mono[0]

    def mono_degree(self, mono):
        return self.weight(mono[1])

    def composable(self, m1, m2):
        return self.mono_target(m1) == self.mono_source(m2)

    def idempotent(self, v):
        if v not in set(self.quiver.vertices):
            raise QuiverError(f"{v} is not a vertex")
        return Element(self, {(v, ()): self.ring.coerce(1)})

    def identity(self):
        e = {}
        for v in self.quiver.vertices:
            e[(v, ())] = self.ring.coerce(1)
        return Element(self, e)

    def arrow(self, a):
        return Element(self, {(self.quiver.src(a), (a,)): self.ring.coerce(1)})

    def zero(self):
        return Element(self, {})

    def path(self, word, check=True):
        word = tuple(word)
        if not word:
            raise QuiverError("use idempotent() for empty paths")
        if check:
            for a, b in zip(word, word[1:]):
                if self.quiver.dst(a) != self.quiver.src(b):
                    raise QuiverError("word is not a composable path")
        return Element(self, {(self.quiver.src(word[0]), word): self.ring.coerce(1)})

    def element(self, terms):
        out = {}
        for mono, c in terms.items():
            c = self.ring.coerce(c)
            if c != 0:
                out[mono] = c
        return Element(self, out)

    def cyclic(self, terms):
        out = {}
        for key, c in terms.items():
            c = self.ring.coerce(c)
            if c != 0:
                out[key] = c
        return CycElement(self, out)


def free_context(names, ring=ZZ, degree_bound=None, weights=None) -> PathContext:
    """Free algebra on the named letters: one vertex, loops, no doubling."""
    q = Quiver([0], [(i, 0, 0) for i in range(len(names))],
               names={i: nm for i, nm in enumerate(names)})
    w = None
    if weights is not None:
        w = {i: weights[i] for i in range(len(names))}
    return PathContext(q, ring=ring, degree_bound=degree_bound, weights=w,
                       auto_double=False)


def canonical_rotation(word):
    """Lexicographically minimal rotation of an arrow tuple."""
    if len(word) <= 1:
        return word
    best = word
    for k in range(1, len(word)):
        rot = word[k:] + word[:k]
        if rot < best:
            best = rot
    return best


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

    def degree(self, ctx):
        return ctx.weight(self.word)


class Element:
    """Sparse linear combination of path monomials in one context."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({self.ctx.mono_degree(m) for m in self.terms})

    def homogeneous_part(self, d):
        return Element(self.ctx, {m: c for m, c in self.terms.items()
                                  if self.ctx.mono_degree(m) == d})

    def coefficient(self, mono):
        return self.terms.get(mono, 0)

    def _check_mate(self, other):
        if self.ctx.quiver is not other.ctx.quiver or self.ctx.ring != other.ctx.ring:
            raise QuiverError("elements live in different contexts")

    def __add__(self, other):
        self._check_mate(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            s = self.ctx.ring.coerce(s)
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Element(self.ctx, out)

    def __neg__(self):
        return Element(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        k = self.ctx.ring.coerce(k)
        if k == 0:
            return Element(self.ctx, {})
        out = {}
        for m, c in self.terms.items():
            v = self.ctx.ring.coerce(c * k)
            if v != 0:
                out[m] = v
        return Element(self.ctx, out)

    def __rmul__(self, k):
        if isinstance(k, (int, Fraction)):
            return self.scale(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_mate(other)
        ctx = self.ctx
        bound = ctx.degree_bound
        out = {}
        for (v1, w1), c1 in self.terms.items():
            t1 = ctx.quiver.dst(w1[-1]) if w1 else v1
            d1 = ctx.weight(w1)
            for (v2, w2), c2 in other.terms.items():
                if t1 != v2:
                    continue
                if bound is not None and d1 + ctx.weight(w2) > bound:
                    continue
                key = (v1, w1 + w2)
                s = ctx.ring.coerce(out.get(key, 0) + c1 * c2)
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
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

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms \
            and self.ctx.quiver is other.ctx.quiver

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return render_element(self)


class CycElement:
    """Sparse combination of cyclic classes (necklaces)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def degrees(self):
        return sorted({k.degree(self.ctx) for k in self.terms})

    def homogeneous_part(self, d):
        return CycElement(self.ctx, {k: c for k, c in self.terms.items()
                                     if k.degree(self.ctx) == d})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = self.ctx.ring.coerce(out.get(k, 0) + c)
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return CycElement(self.ctx, out)

    def __neg__(self):
        return CycElement(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        k = self.ctx.ring.coerce(k)
        out = {}
        if k != 0:
            for m, c in self.terms.items():
                v = self.ctx.ring.coerce(c * k)
                if v != 0:
                    out[m] = v
        return CycElement(self.ctx, out)

    def __rmul__(self, k):
        return self.scale(k)

    def divide_exact(self, k):
        """Divide every coefficient by k; raises unless exactly divisible."""
        out = {}
        for m, c in self.terms.items():
            q, r = divmod(c, k)
            if r != 0:
                raise ArithmeticError(f"coefficient {c} not divisible by {k}")
            out[m] = q
        return CycElement(self.ctx, out)

    def __eq__(self, other):
        return isinstance(other, CycElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        s = ctx.ring.coerce(out.get(key, 0) + c)
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
        for a in original:
            s, t = q.src(a), q.dst(a)
            if s == i:
                terms[(i, (a, q.star[a]))] = terms.get((i, (a, q.star[a])), 0) + 1
            if t == i:
                key = (i, (q.star[a], a))
                terms[key] = terms.get(key, 0) - 1
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


@dataclass(frozen=True)
class Bituple:
    """Pair of equal-length tuples with its period data (rep * period = length)."""

    a_seq: tuple
    b_seq: tuple
    period: int
    rep: int

    @staticmethod
    def of(a_seq, b_seq):
        a_seq, b_seq = tuple(a_seq), tuple(b_seq)
        if len(a_seq) != len(b_seq) or not a_seq:
            raise ValueError("need two nonempty tuples of equal length")
        period, rep = rep_of(tuple(zip(a_seq, b_seq)))
        return Bituple(a_seq, b_seq, period, rep)


def rep_of(seq):
    """(period, rep) of a nonempty sequence under cyclic shifts.

    Accepts any sequence; a Bituple is read as its sequence of index pairs.
    """
    if isinstance(seq, Bituple):
        return seq.period, seq.rep
    seq = tuple(seq)
    k = len(seq)
    if k == 0:
        raise ValueError("empty sequence has no period")
    for per in range(1, k + 1):
        if k % per == 0 and all(seq[i] == seq[(i + per) % k] for i in range(k)):
            return per, k // per
    raise AssertionError("unreachable")


def _bituples(total_a, total_b):
    """All (a.,b.) with entries >= 0, a_l > b_l, sum(a_i+1) = total_a and
    sum(b_i+1) = total_b, up to simultaneous cyclic rotation."""
    out = []
    seen = set()
    k_max = total_b  # each b_l + 1 >= 1
    for k in range(1, k_max + 1):
        for pairs in _compositions_of_pairs(total_a, total_b, k):
            key = min(tuple(pairs[i:] + pairs[:i]) for i in range(k))
            if key in seen:
                continue
            seen.add(key)
            out.append(Bituple.of(tuple(p[0] for p in key), tuple(p[1] for p in key)))
    return out


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
    necklace of the alternating product of (-r') and z factors; on the
    diagonal it is [(xy + r')^a] - [(xy)^a].  Coefficients must come out
    integral; a failure is a bug, not a data error.
    """
    if a < 1 or b < 1:
        raise ValueError("w_ab needs a, b >= 1")
    ctx = rprime.ctx
    if a == b:
        return cyclic_project((x * y + rprime) ** a - (x * y) ** a)
    g = math.gcd(a, b)
    total = ctx.zero()
    if a > b:
        for bt in _bituples(a, b):
            coeff, rem = divmod(g, bt.rep)
            if rem:
                raise ArithmeticError("rep does not divide gcd; bug in enumeration")
            prod = ctx.identity()
            for al, bl in zip(bt.a_seq, bt.b_seq):
                prod = prod * (-rprime) * z_ab(al, bl, x, y)
            total = total + prod.scale(coeff)
    else:
        for bt in _bituples(b, a):
            coeff, rem = divmod(g, bt.rep)
            if rem:
                raise ArithmeticError("rep does not divide gcd; bug in enumeration")
            prod = ctx.identity()
            for al, bl in zip(bt.a_seq, bt.b_seq):
                prod = prod * rprime * z_ab(bl, al, x, y)
            total = total + prod.scale(coeff)
    return cyclic_project(total)


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
    if not items:
        return "0"
    parts = []
    for (key, word, c) in items:
        body = _render_word(ctx, word) if word else f"e_{key}"
        body = f"[{body}]" if bracket else body
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
    ctx = x.ctx
    items = sorted(((m[0], m[1], c) for m, c in x.terms.items()),
                   key=lambda it: (ctx.weight(it[1]), it[1], it[0]))
    return _render_terms(ctx, items, bracket=False)


def render_cyclic(x: CycElement) -> str:
    ctx = x.ctx
    items = sorted(((k.vertex, k.word, c) for k, c in x.terms.items()),
                   key=lambda it: (ctx.weight(it[1]), it[1], it[0]))
    return _render_terms(ctx, items, bracket=True)


_TERM_RE = re.compile(r"\s*([+-])?\s*(?:(\d+)\s*\*\s*)?(\[[^\]]*\]|[^\s+-]+(?:\s+[^\s+-]+)*)")


def _parse_word(ctx, text):
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
    return tuple(word)


def _idempotent_vertex(ctx, text):
    """i for the idempotent written e_i."""
    v = text[2:]
    if not v.isdigit() or int(v) not in ctx.quiver.vertices:
        raise QuiverError(f"{text!r} is not the idempotent of a vertex")
    return int(v)


def parse_element(ctx: PathContext, text: str):
    """Inverse of render_element / render_cyclic.

    Returns an Element when no square brackets appear, else a CycElement.
    """
    text = text.strip()
    if text == "0":
        return ctx.zero()
    cyclic = "[" in text
    acc_el = {}
    acc_cy = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise QuiverError(f"cannot parse element near {text[pos:]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = sign * (int(m.group(2)) if m.group(2) else 1)
        body = m.group(3).strip()
        pos = m.end()
        if body.startswith("[") != body.endswith("]"):
            raise QuiverError(f"unbalanced brackets in {body!r}")
        if body.startswith("["):
            inner = body[1:-1].strip()
            if inner.startswith("e_"):
                key = CyclicClass(_idempotent_vertex(ctx, inner), ())
            else:
                word = _parse_word(ctx, inner)
                key = CyclicClass(ctx.quiver.src(word[0]), canonical_rotation(word))
            acc_cy[key] = acc_cy.get(key, 0) + coeff
        elif body.startswith("e_"):
            v = _idempotent_vertex(ctx, body)
            acc_el[(v, ())] = acc_el.get((v, ()), 0) + coeff
        else:
            word = _parse_word(ctx, body)
            key = (ctx.quiver.src(word[0]), word)
            acc_el[key] = acc_el.get(key, 0) + coeff
    if cyclic:
        if acc_el:
            for (v, word), c in acc_el.items():
                key = CyclicClass.of(ctx, (v, word))
                acc_cy[key] = acc_cy.get(key, 0) + c
        return ctx.cyclic(acc_cy)
    return ctx.element(acc_el)
