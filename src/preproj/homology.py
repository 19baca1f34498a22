"""Degreewise structure of Lambda = HH_0 of (quotients of) path algebras over Z:
ambient cyclic classes, commutator relations, exact torsion via Smith normal
form, the divided-power classes r^(p^l), the p-th power map on cyclic words
mod p, and the noncommutative ghost map.

Two interchangeable engines compute the graded pieces, and a
LambdaComputation's inputs decide which: it is 'normal' when given a
completed rewrite system and 'span' when given None and ideal generators.

* 'normal' - ambient spanned by the necklaces with a normal rotation of a
  completed rewrite system (PathContext.necklaces: each once, kept when
  every occurrence of a leading word, read cyclically, has one cut point
  strictly inside it), listed for every certified degree by one search on
  the first degree asked; relations are commutators [m, a] of normal monomials
  with single arrows (these integrally span all commutators), reduced as
  words into coordinates, skipped when m a and a m are both normal (then
  rotations of one word).  A reducible side is read off the reduction of a
  window of its last (or first) letters, reused across rows; the normal
  form is unique, and a guard keeps the letters next to the rest of the
  word fixed, so the rows are exactly those of reducing whole words (see
  LambdaComputation._commutator_rows).  Needs a completion with unit
  leading coefficients.

* 'span' - ambient spanned by all necklaces (the same generator, one search
  per degree: this engine has no degree bound); relations are cyclic
  projections of g*u over ideal generators g and closing paths u.
  No completion needed; lambda_graded falls back to it when completion
  meets a non-unit leading coefficient, and engine='span' asks for it.

Both engines read a closed word through one map per degree, least rotation
(vertex at degree 0) -> coordinate, in _row; relation rows and coords share it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from .freealg import (CycElement, CyclicClass, Element, PathContext, canonical_rotation,
                      cyclic_project, preprojective_relation)
from .intlinalg import LatticeSolver, TorsionSummary, _is_prime, quotient_structure
from .quiver import Quiver, QuiverError, forest_for_white
from .rewrite import MonomialOrder, NonUnitLead, RewriteSystem, _check_bound, complete


@dataclass
class HomologyClass:
    degree: int
    coords: dict            # ambient-key index -> integer coordinate


@dataclass
class GradedTorsionReport:
    quiver: Quiver
    white: tuple
    degree_bound: int
    summaries: dict = field(default_factory=dict)   # degree -> TorsionSummary
    engine: str = ""

    def torsion_table(self):
        return {d: s.invariant_factors for d, s in sorted(self.summaries.items())
                if s.invariant_factors}

    def to_json(self, generators=None):
        rows = []
        for d, s in sorted(self.summaries.items()):
            row = {"degree": d, "free_rank": s.free_rank,
                   "torsion": [str(f) for f in s.invariant_factors]}
            if generators and d in generators:
                row["generators"] = generators[d]
            rows.append(row)
        return json.dumps(rows, indent=1)


@dataclass
class _Degree:
    """What LambdaComputation knows about one degree; each part built once."""

    keys: list                           # ambient classes, in coordinate order
    col: dict                            # least rotation (vertex at degree 0) -> coordinate
    rows: list | None = None             # relation rows, sparse {coordinate: value}
    solver: LatticeSolver | None = None


class LambdaComputation:
    """Graded pieces of A/[A,A] for A = path algebra modulo an ideal.

    Each degree is eliminated once: its LatticeSolver gives both the torsion
    summary and the order of any class.
    """

    def __init__(self, ctx: PathContext, system: RewriteSystem | None,
                 ideal_gens=(), engine=None):
        self.ctx = ctx
        self.system = system
        self.ideal_gens = list(ideal_gens)
        self.engine = "span" if system is None else "normal"
        if engine not in (None, self.engine):
            raise ValueError(f"engine {engine!r} given a {self.engine} computation's inputs")
        self._degrees = {}
        self._filed = None      # normal engine: degree -> keys not yet in _degrees

    # -- ambient --------------------------------------------------------

    def _degree(self, d) -> _Degree:
        st = self._degrees.get(d)
        if st is None:
            keys = self._enumerate_keys(d)
            st = self._degrees[d] = _Degree(
                keys, {k.word or k.vertex: i for i, k in enumerate(keys)})
        return st

    def _enumerate_keys(self, d):
        """The ambient classes of degree d.  The span engine has no degree
        bound and lists one degree per call; the normal engine lists every
        certified degree in one search on its first call and files the keys
        by degree, to be taken as the degrees are asked for.  A negative
        degree has no classes."""
        if d < 0:
            return []
        if d == 0:
            return [CyclicClass(v, ()) for v in self.ctx.quiver.vertices]
        if self.engine == "span":
            return [k for _, k in self.ctx.necklaces(d, d)]
        self.system.check_degree(d)
        if self._filed is None:
            D = self.system.complete_to_degree
            self._filed = {e: [] for e in range(1, D + 1)}
            for e, k in self.ctx.necklaces(1, D, self.system._automaton()):
                self._filed[e].append(k)
        return self._filed.pop(d)

    def ambient_keys(self, d):
        return self._degree(d).keys

    # -- relations --------------------------------------------------------

    def relation_rows(self, d):
        st = self._degree(d)
        if st.rows is None:
            rows = {}       # a row met twice is kept once, where it was first met
            build = self._commutator_rows if self.engine == "normal" else self._span_rows
            built = build(d, st.col)
            try:
                for row in built:
                    if row:
                        rows[frozenset(row.items())] = row
            except MemoryError:
                # free the rows, then close the generator: unwinding allocates,
                # and Python 3.11 drops the error when it cannot
                rows = built = None
                raise
            st.rows = list(rows.values())
            if self.engine == "normal" and d == self.system.complete_to_degree:
                self.system._paths.clear()      # no higher degree can ask for them
        return st.rows

    def _commutator_rows(self, d, col):
        """[m, a] over arrows a and normal m, reduced straight into coordinates.

        m is normal, so a leading word of m a is u a with u a suffix of m, and
        one of a m is a v with v a prefix of m.  Such a side is reduced
        through a window: with L the longest leading word and b = L - 1, the
        last (first) b + L letters T of m a (a m) are reduced alone under a
        guard that leaves the b letters next to the rest of the word as they
        are, and the row reads rest + u (u + rest) for each normal u of T.
        That is exact: the rest and those b letters form a subword of m, so
        no leading word meets the rest, and reducing the whole word pops,
        rewrites and sums the same words in the same order, rest aside.  A
        guard that trips widens T by one letter, up to the whole word.  The
        windows repeat across rows and are reduced once per call.
        """
        if d <= 1:
            return      # m is an idempotent: m a = a m
        ctx, sys_ = self.ctx, self.system
        src = ctx.quiver.src
        ends, starts = {}, {}   # a -> {u: u a leading}, a -> {v: a v leading}
        for r in sys_.rules:
            w = r.lm_word
            ends.setdefault(w[-1], set()).add(w[:-1])
            starts.setdefault(w[0], set()).add(w[1:])
        longest = sys_._automaton().longest
        b = longest - 1
        windows = {}    # (at_end, T) -> normal form of T, or None: its guard tripped

        def reduced(v, word, at_end):
            n = len(word)
            guard = (b, 0) if at_end else (0, b)
            for size in range(b + longest, n):
                if at_end:
                    rest, T = word[:n - size], word[n - size:]
                else:
                    T, rest = word[:size], word[size:]
                key = (at_end, T)
                if key not in windows:
                    windows[key] = sys_._reduce({(src(T[0]), T): 1}, *guard)
                found = windows[key]
                if found is not None:
                    return {(v, rest + u if at_end else u + rest): c
                            for (_, u), c in found.items()}
            return sys_._reduce({(v, word): 1})

        monos = functools.cache(sys_.normal_monomials)
        for (a, s, t) in ctx.quiver.arrows:
            us, vs = ends.get(a, ()), starts.get(a, ())
            if not (us or vs):
                continue    # every m a and a m is normal: [m, a] = 0
            ulens, vlens = {len(u) for u in us}, {len(v) for v in vs}
            for _, w in monos(t, s, d - 1):
                left = right = False
                n = len(w)
                for k in ulens:
                    if w[n - k:] in us:
                        left = True
                        break
                for k in vlens:
                    if w[:k] in vs:
                        right = True
                        break
                if not (left or right):
                    continue    # m a and a m are normal rotations: [m, a] = 0
                ma, am = w + (a,), (a,) + w
                terms = reduced(t, ma, True) if left else {(t, ma): 1}
                for mono, c in (reduced(s, am, False) if right else {(s, am): 1}).items():
                    c = terms.get(mono, 0) - c
                    if c:
                        terms[mono] = c
                    else:
                        terms.pop(mono, None)
                yield _row(col, terms.items())

    def _span_rows(self, d, col):
        """Cyclic projections of g u over generators g and paths u closing
        them, as words straight into coordinates: each term (v, w) of g
        gives the closed word w + u.  When the terms of each g have one
        length, as in the preprojective relations, w + u determines w and u,
        so no word repeats within a generator and a word cache would not pay."""
        for g in self.ideal_gens:
            degs = g.degrees()
            srcs = {m[0] for m in g.terms}
            dsts = {self.ctx.mono_target(m) for m in g.terms}
            if len(degs) != 1:
                raise QuiverError("span engine expects homogeneous generators")
            if len(srcs) != 1 or len(dsts) != 1:
                raise QuiverError("span engine expects vertex-local generators")
            if degs[0] > d:
                continue
            for u in self.ctx.walks(d - degs[0], dsts.pop(), srcs.pop()):
                yield _row(col, (((v, w + u), c) for (v, w), c in g.terms.items()))

    # -- quotient structure ------------------------------------------------

    def solver(self, d) -> LatticeSolver:
        st = self._degree(d)
        if st.solver is None:
            st.solver = LatticeSolver(len(st.keys), self.relation_rows(d))
        return st.solver

    def summary(self, d) -> TorsionSummary:
        return self.solver(d).summary

    # -- classes ----------------------------------------------------------

    def coords(self, cyc: CycElement, d) -> dict:
        """Coordinates of a free cyclic element's image in the ambient at degree d."""
        x = Element(self.ctx, {(k.vertex, k.word): c
                               for k, c in cyc.homogeneous_part(d).terms.items()})
        if self.engine == "normal":
            x = self.system.reduce(x)     # linear, so one call for every key
        return _row(self._degree(d).col, x.terms.items())

    def to_class(self, cyc: CycElement, d) -> HomologyClass:
        return HomologyClass(d, self.coords(cyc, d))

    def order_of(self, cls: HomologyClass) -> int:
        """Least k >= 1 with k*cls zero in Lambda, or 0 for infinite order."""
        return self.solver(cls.degree).order_of(cls.coords)


def _row(col, terms):
    """Sparse row {coordinate: value} of closed monomials ((v, word), c), each
    looked up by its canonical rotation; an empty word is its v."""
    row = {}
    for (v, word), c in terms:
        j = col.get(canonical_rotation(word) or v)
        if j is None:
            raise QuiverError(f"necklace of {word or v} missing from the ambient")
        c += row.get(j, 0)
        if c:
            row[j] = c
        else:
            row.pop(j, None)
    return row


# ---------------------------------------------------------------------------
# building Lambda for (partial) preprojective algebras


def forest_arrow_order(qd: Quiver, white):
    """Arrow order putting the forest arrows last (largest), so each local
    relation leads with a a* for its forest arrow a."""
    forest = forest_for_white(qd, white)
    fa = set(forest.arrows)
    ids = sorted(a for (a, _, _) in qd.arrows)
    return [a for a in ids if a not in fa] + [a for a in ids if a in fa]


def preprojective_system(q: Quiver, white, degree_bound, ctx=None,
                         arrow_order=None) -> RewriteSystem:
    """Completed rewrite system for Pi_{Q,J} up to degree_bound."""
    if ctx is None:
        ctx = PathContext(q)
    rels = preprojective_relation(ctx, white)
    order = MonomialOrder(ctx, arrow_order)
    return complete(rels, order, degree_bound)


def lambda_graded(q: Quiver, white, D, engine="auto", arrow_order=None):
    """GradedTorsionReport for Lambda_{Q,J} through degree D.

    Returns (report, computation).  engine 'normal' completes the
    preprojective relations, 'span' does not, and 'auto' completes them and
    falls back to the span engine on NonUnitLead.
    """
    _check_bound(D)
    if engine not in ("auto", "normal", "span"):
        raise ValueError(f"unknown engine {engine!r}: expected auto, normal or span")
    ctx = PathContext(q)
    comp = None
    if engine != "span":
        try:
            comp = LambdaComputation(ctx, preprojective_system(q, white, D, ctx=ctx,
                                                               arrow_order=arrow_order))
        except NonUnitLead:
            if engine == "normal":
                raise
    if comp is None:
        comp = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx, white))
    report = GradedTorsionReport(q, tuple(sorted(white)), D, engine=comp.engine)
    for d in range(D + 1):
        report.summaries[d] = comp.summary(d)
    return report, comp


# ---------------------------------------------------------------------------
# the classes r^(p^l) and friends


def preprojective_element(ctx: PathContext) -> Element:
    """r = sum over original arrows of (a a* - a* a), in the doubled context:
    the sum of the local relations at every vertex."""
    return sum(preprojective_relation(ctx), ctx.zero())


def r_power_cyclic(ctx: PathContext, p: int, ell: int) -> CycElement:
    """(1/p) [r^(p^l)] in the free cyclic space; divisibility is asserted."""
    r = preprojective_element(ctx)
    power = r ** (p ** ell)
    return cyclic_project(power).divide_exact(p)


def r_power_class(comp: LambdaComputation, p: int, ell: int) -> HomologyClass:
    d = 2 * p ** ell
    cyc = r_power_cyclic(comp.ctx, p, ell)
    return comp.to_class(cyc, d)


def r_powers(D):
    """{2 p^l: (p, l)} for p prime and l >= 1 with 2 p^l <= D, by degree: the
    degrees through D where the classes r^(p^l) live."""
    found = []
    for p in filter(_is_prime, range(2, D // 2 + 1)):
        ell = 1
        while 2 * p ** ell <= D:
            found.append((2 * p ** ell, (p, ell)))
            ell += 1
    return dict(sorted(found))


def frobenius_cyc(c: CycElement, p: int) -> CycElement:
    """[w] -> [w^p] on cyclic words with mod-p coefficients.

    This is the p-th power map of A_cyc tensor F_p: it is additive there by
    Jacobson's congruence, and c^p = c mod p.  The p-th power of a least
    rotation is the least rotation of the power.
    """
    return CycElement(c.ctx, {CyclicClass(k.vertex, k.word * p): v % p
                              for k, v in c.terms.items() if v % p})


def ghost(components, p: int):
    """w(a_0,...,a_{l-1}) = ([a_0], [a_0^p + p a_1], ...) in the cyclic space."""
    if not components:
        return []
    out = []
    for i in range(len(components)):
        acc = None
        for j in range(i + 1):
            term = (components[j] ** (p ** (i - j))).scale(p ** j)
            acc = term if acc is None else acc + term
        out.append(cyclic_project(acc))
    return out


# ---------------------------------------------------------------------------
# zeroth Poisson homology of the graded Poisson presentations


@dataclass
class PoissonPresentation:
    """Commutative graded algebra k[gens]/(relation) with a bracket table.

    relation maps exponent tuples to coefficients and must be monic in its
    leading exponent (componentwise-maximal reduction rule).  brackets[(i,j)]
    with i < j is the polynomial {gen_i, gen_j}.
    """

    gens: tuple
    degrees: tuple
    relation: dict
    brackets: dict

    def __post_init__(self):
        self.lead = max(self.relation, key=lambda e: (sum(e), e))
        if self.relation[self.lead] not in (1, -1):
            raise ValueError("relation must be monic up to sign")
        s = self.relation[self.lead]
        self.tail = {e: -c * s for e, c in self.relation.items() if e != self.lead}

    def degree(self, expo):
        return sum(e * d for e, d in zip(expo, self.degrees))


def _exp_sub(e, f):
    out = tuple(a - b for a, b in zip(e, f))
    return out if all(v >= 0 for v in out) else None


def _poly_reduce(pres: PoissonPresentation, poly: dict) -> dict:
    work = dict(poly)
    out = {}
    while work:
        e, c = work.popitem()
        if c == 0:
            continue
        rem = _exp_sub(e, pres.lead)
        if rem is None:
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
            continue
        for f, cf in pres.tail.items():
            key = tuple(a + b for a, b in zip(rem, f))
            work[key] = work.get(key, 0) + c * cf
            if work[key] == 0:
                del work[key]
    return out


def _monomials_of_degree(pres: PoissonPresentation, d):
    """Exponent tuples of degree d that the leading exponent does not divide,
    in lexicographic order."""
    expos = [((), d)]                   # (exponents so far, degree left)
    for step in pres.degrees:
        expos = [(e + (k,), rem - k * step) for e, rem in expos for k in range(rem // step + 1)]
    return [e for e, rem in expos if rem == 0 and _exp_sub(e, pres.lead) is None]


def _bracket_gen_mono(pres: PoissonPresentation, gi: int, mono: tuple) -> dict:
    """{gen_i, mono} via the Leibniz rule, reduced."""
    out = {}
    for gj, k in enumerate(mono):
        if k == 0 or gi == gj:
            continue
        kc = k if gi < gj else -k
        dm = mono[:gj] + (k - 1,) + mono[gj + 1:]
        for e, c in pres.brackets.get((min(gi, gj), max(gi, gj)), {}).items():
            key = tuple(x + y for x, y in zip(dm, e))
            out[key] = out.get(key, 0) + kc * c
            if out[key] == 0:
                del out[key]
    return _poly_reduce(pres, out)


def hp0_poisson(pres: PoissonPresentation, modulus: int, D: int):
    """Per-degree dimensions of A/{A, A} over F_p (modulus p) or Q (modulus 0)."""
    if modulus != 0 and not _is_prime(modulus):
        raise ValueError("modulus must be prime or 0")
    monomials = functools.cache(functools.partial(_monomials_of_degree, pres))
    dims = {}
    for d in range(D + 1):
        basis = monomials(d)
        idx = {e: k for k, e in enumerate(basis)}
        rows = []
        for gi in range(len(pres.gens)):
            dg = pres.degrees[gi]
            for mono in monomials(d + 2 - dg):
                br = _bracket_gen_mono(pres, gi, mono)
                row = {}
                for e, c in br.items():
                    if pres.degree(e) != d:
                        raise AssertionError("inhomogeneous bracket")
                    row[idx[e]] = c
                if row:
                    rows.append(row)
        # tensoring with F_p is right exact: the cokernel over F_p is
        # (Z^n / L) (x) F_p, one dimension per free rank and per factor p | f
        t = quotient_structure(len(basis), rows)
        dims[d] = t.free_rank + sum(1 for f in t.invariant_factors if modulus and f % modulus == 0)
    return dims


def _jacobian(relation: dict) -> dict:
    """The Jacobian brackets of F = relation in (X, Y, Z): {X,Y} = -dF/dZ,
    {Y,Z} = -dF/dX, {Z,X} = -dF/dY, so F is a Casimir and (F) a Poisson ideal."""
    def d(k, sign):
        return {e[:k] + (e[k] - 1,) + e[k + 1:]: sign * e[k] * c
                for e, c in relation.items() if e[k]}

    return {(0, 1): d(2, -1), (0, 2): d(1, 1), (1, 2): d(0, -1)}


def poisson_presentation(kind: str, n: int = 0) -> PoissonPresentation:
    """The Poisson structures on the corner algebras of extended Dynkin types:
    Z[X,Y,Z]/(F) with the Jacobian brackets {X,Y} = -dF/dZ, {Y,Z} = -dF/dX,
    {Z,X} = -dF/dY, where F is

    kind 'A':  XY - Z^n                      (n >= 1; |X| = |Y| = n, |Z| = 2)
    kind 'D':  Z^2 + XY^2 - X^(n/2) Y        (n >= 4 even)
               Z^2 + XY^2 - X^((n-1)/2) Z    (n >= 5 odd; |X| = 4,
                                              |Y| = 2(n-2), |Z| = 2(n-1))
    kind 'E6': Z^2 + Y^3 + X^2 Z             (|X|, |Y|, |Z| = 6, 8, 12)
    kind 'E7': Z^2 - X^3 Y + Y^3             (8, 12, 18)
    kind 'E8': Z^2 + X^5 + Y^3               (12, 20, 30)

    Generators are ordered (X, Y, Z); exponent tuples follow that order.
    """
    if kind == "A":
        if n < 1:
            raise ValueError("type A needs n >= 1")
        rel, degrees = {(1, 1, 0): 1, (0, 0, n): -1}, (n, n, 2)
    elif kind == "D":
        if n < 4:
            raise ValueError("type D needs n >= 4")
        rel = {(0, 0, 2): 1, (1, 2, 0): 1,
               (n // 2, 1, 0) if n % 2 == 0 else ((n - 1) // 2, 0, 1): -1}
        # X is the length-4 short cycle (the length-2 one dies against the
        # local relation at the extending vertex), so |X| = 4
        degrees = (4, 2 * (n - 2), 2 * (n - 1))
    elif kind == "E6":
        rel, degrees = {(0, 0, 2): 1, (0, 3, 0): 1, (2, 0, 1): 1}, (6, 8, 12)
    elif kind == "E7":
        rel, degrees = {(0, 0, 2): 1, (3, 1, 0): -1, (0, 3, 0): 1}, (8, 12, 18)
    elif kind == "E8":
        rel, degrees = {(0, 0, 2): 1, (5, 0, 0): 1, (0, 3, 0): 1}, (12, 20, 30)
    else:
        raise ValueError(f"unknown presentation kind {kind!r}")
    return PoissonPresentation(("X", "Y", "Z"), degrees, rel, _jacobian(rel))
