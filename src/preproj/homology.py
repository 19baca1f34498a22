"""Degreewise structure of Lambda = HH_0 of (quotients of) path algebras over Z:
ambient cyclic classes, commutator relations, exact torsion via Smith normal
form, the divided-power classes r^(p^l), the p-th power map on cyclic words
mod p, and the noncommutative ghost map.

Two interchangeable engines compute the graded pieces:

* 'normal' - ambient spanned by rotation classes of closed normal monomials
  of a completed rewrite system; relations are cyclic projections of
  commutators [m, a] of normal monomials with single arrows (these integrally
  span all commutators).  Needs a completion with unit leading coefficients.

* 'span' - ambient spanned by rotation classes of all closed paths; relations
  are cyclic projections of g*u over ideal generators g and closing paths u.
  No completion needed; the automatic fallback when completion meets a
  non-unit leading coefficient, and selectable directly.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from .freealg import (CycElement, CyclicClass, Element, PathContext,
                      canonical_rotation, cyclic_project, preprojective_relation)
from .intlinalg import LatticeSolver, TorsionSummary, quotient_structure
from .quiver import Quiver, QuiverError, forest_for_white
from .rewrite import MonomialOrder, NonUnitLead, RewriteSystem, complete


@dataclass
class HomologyClass:
    degree: int
    coords: dict            # ambient-key index -> integer coordinate
    label: str = ""

    def is_zero(self):
        return not self.coords


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
    index: dict                          # ambient class -> coordinate
    rows: list | None = None             # relation rows, sparse {coordinate: value}
    solver: LatticeSolver | None = None


class LambdaComputation:
    """Graded pieces of A/[A,A] for A = path algebra modulo an ideal.

    Each degree is eliminated once: its LatticeSolver gives both the torsion
    summary and the order of any class.
    """

    def __init__(self, ctx: PathContext, system: RewriteSystem | None,
                 ideal_gens=(), engine="normal"):
        self.ctx = ctx
        self.system = system
        self.ideal_gens = list(ideal_gens)
        self.engine = engine
        self._degrees = {}

    # -- ambient --------------------------------------------------------

    def _degree(self, d) -> _Degree:
        st = self._degrees.get(d)
        if st is None:
            keys = self._enumerate_keys(d)
            st = self._degrees[d] = _Degree(keys, {k: i for i, k in enumerate(keys)})
        return st

    def _enumerate_keys(self, d):
        if d == 0:
            return [CyclicClass(v, ()) for v in self.ctx.quiver.vertices]
        found = {}
        if self.engine == "normal":
            for i in self.ctx.quiver.vertices:
                for mono in self.system.normal_monomials(i, i, d):
                    found[CyclicClass.of(self.ctx, mono)] = True
        else:
            for v in self.ctx.quiver.vertices:
                for word in self.ctx.walks(d, v, v):
                    w = canonical_rotation(word)
                    found[CyclicClass(self.ctx.quiver.src(w[0]), w)] = True
        return sorted(found, key=lambda k: (k.word, k.vertex))

    def ambient_keys(self, d):
        return self._degree(d).keys

    def key_index(self, d):
        return self._degree(d).index

    # -- relations --------------------------------------------------------

    def relation_rows(self, d):
        st = self._degree(d)
        if st.rows is None:
            st.rows = self._build_rows(d, st.index)
        return st.rows

    def _build_rows(self, d, idx):
        rows = {}

        def push(cyc: CycElement):
            if cyc.is_zero():
                return
            row = {}
            for key, c in cyc.terms.items():
                if key not in idx:
                    raise QuiverError(f"class {key} missing from ambient at degree {d}")
                row[idx[key]] = c
            if row:
                rows[frozenset(row.items())] = row

        if self.engine == "normal":
            q = self.ctx.quiver
            sys_ = self.system
            for (a, s, t) in q.arrows:
                wa = self.ctx.weights[a]
                if wa >= d:
                    continue
                ae = self.ctx.arrow(a)
                for mono in sys_.normal_monomials(t, s, d - wa):
                    m = Element(self.ctx, {mono: 1})
                    rel = sys_.reduce(m * ae) - sys_.reduce(ae * m)
                    push(cyclic_project(rel))
        else:
            for g in self.ideal_gens:
                degs = g.degrees()
                if len(degs) != 1:
                    raise QuiverError("span engine expects homogeneous generators")
                wg = degs[0]
                if wg > d:
                    continue
                srcs = {m[0] for m in g.terms}
                dsts = {self.ctx.mono_target(m) for m in g.terms}
                if len(srcs) != 1 or len(dsts) != 1:
                    raise QuiverError("span engine expects vertex-local generators")
                i, j = srcs.pop(), dsts.pop()
                if wg == d:
                    if i == j:
                        push(cyclic_project(g))
                    continue
                for u in self.ctx.walks(d - wg, j, i):
                    push(cyclic_project(g * self.ctx.path(u)))
        return list(rows.values())

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
        part = cyc.homogeneous_part(d)
        idx = self.key_index(d)
        acc = {}
        for key, c in part.terms.items():
            if self.engine == "normal" and key.word:
                el = self.ctx.path(key.word)
                red = cyclic_project(self.system.reduce(el))
                for k2, c2 in red.terms.items():
                    acc[k2] = acc.get(k2, 0) + c * c2
            else:
                acc[key] = acc.get(key, 0) + c
        row = {}
        for key, c in acc.items():
            if c == 0:
                continue
            if key not in idx:
                raise QuiverError(f"class {key} missing from ambient at degree {d}")
            row[idx[key]] = c
        return row

    def to_class(self, cyc: CycElement, d, label="") -> HomologyClass:
        return HomologyClass(d, self.coords(cyc, d), label)

    def order_of(self, cls: HomologyClass) -> int:
        """Least k >= 1 with k*cls zero in Lambda, or 0 for infinite order."""
        return self.solver(cls.degree).order_of(cls.coords)


# ---------------------------------------------------------------------------
# building Lambda for (partial) preprojective algebras


def forest_arrow_order(qd: Quiver, white):
    """Arrow order putting the forest arrows last (largest), so each local
    relation leads with a a* for its forest arrow a."""
    forest = forest_for_white(qd, white)
    fa = set(forest.arrows)
    ids = sorted(a for (a, _, _) in qd.arrows)
    return [a for a in ids if a not in fa] + [a for a in ids if a in fa]


def forest_system(q: Quiver, white, degree_bound=12, ctx=None) -> RewriteSystem:
    """The Prop-bpp rewrite system: preprojective relations led by a a* over
    the forest arrows; completion certifies it adds nothing."""
    if ctx is None:
        ctx = PathContext(q)
    return preprojective_system(q, white, degree_bound, ctx=ctx,
                                arrow_order=forest_arrow_order(ctx.quiver, white))


def preprojective_system(q: Quiver, white=(), degree_bound=12, ctx=None,
                         arrow_order=None) -> RewriteSystem:
    """Completed rewrite system for Pi_{Q,J} up to degree_bound."""
    if ctx is None:
        ctx = PathContext(q)
    rels = preprojective_relation(ctx, white)
    order = MonomialOrder(ctx, arrow_order)
    return complete(rels, order, degree_bound)


def lambda_graded(q: Quiver, white=(), D=12, engine="auto", ctx=None,
                  arrow_order=None):
    """GradedTorsionReport for Lambda_{Q,J} through degree D.

    Returns (report, computation).  engine 'auto' completes the preprojective
    relations and falls back to the ideal-span engine on NonUnitLead.
    """
    if ctx is None:
        ctx = PathContext(q)
    comp = None
    chosen = engine
    if engine in ("auto", "normal"):
        try:
            sys_ = preprojective_system(q, white, D, ctx=ctx, arrow_order=arrow_order)
            comp = LambdaComputation(ctx, sys_, engine="normal")
            chosen = "normal"
        except NonUnitLead:
            if engine == "normal":
                raise
            comp = None
    if comp is None:
        gens = preprojective_relation(ctx, white)
        comp = LambdaComputation(ctx, None, ideal_gens=gens, engine="span")
        chosen = "span"
    report = GradedTorsionReport(q, tuple(sorted(white)), D, engine=chosen)
    for d in range(D + 1):
        report.summaries[d] = comp.summary(d)
    return report, comp


# ---------------------------------------------------------------------------
# the classes r^(p^l) and friends


def preprojective_element(ctx: PathContext) -> Element:
    """r = sum over original arrows of (a a* - a* a), in the doubled context."""
    q = ctx.quiver
    if not q.starred:
        raise QuiverError("r lives in a doubled quiver")
    terms = {}
    for (a, s, t) in q.arrows:
        if a < q.star[a]:
            terms[(s, (a, q.star[a]))] = terms.get((s, (a, q.star[a])), 0) + 1
            terms[(t, (q.star[a], a))] = terms.get((t, (q.star[a], a)), 0) - 1
    return ctx.element(terms)


def r_power_cyclic(ctx: PathContext, p: int, ell: int) -> CycElement:
    """(1/p) [r^(p^l)] in the free cyclic space; divisibility is asserted."""
    r = preprojective_element(ctx)
    power = r ** (p ** ell)
    return cyclic_project(power).divide_exact(p)


def r_power_class(comp: LambdaComputation, p: int, ell: int) -> HomologyClass:
    d = 2 * p ** ell
    cyc = r_power_cyclic(comp.ctx, p, ell)
    return comp.to_class(cyc, d, label=f"r^({p}^{ell})")


def frobenius_cyc(c: CycElement, p: int) -> CycElement:
    """[a] -> [a^p] on cyclic words with mod-p coefficients.

    The input's necklaces are lifted along their canonical words, the sum is
    raised to the p-th power in the path algebra, and the result is reduced
    mod p.  Well defined on A_cyc tensor F_p by Jacobson's congruence.
    """
    ctx = c.ctx
    lift_terms = {}
    for key, coeff in c.terms.items():
        if not key.word:
            mono = (key.vertex, ())
        else:
            mono = (ctx.quiver.src(key.word[0]), key.word)
        lift_terms[mono] = lift_terms.get(mono, 0) + coeff
    lifted = ctx.element(lift_terms)
    powered = cyclic_project(lifted ** p)
    return CycElement(ctx, {k: v % p for k, v in powered.terms.items() if v % p})


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


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + c * d
            if out[key] == 0:
                del out[key]
    return out


def _monomials_of_degree(pres: PoissonPresentation, d):
    n = len(pres.gens)
    out = []

    def rec(i, expo, rem):
        if i == n:
            if rem == 0:
                e = tuple(expo)
                if _exp_sub(e, pres.lead) is None:
                    out.append(e)
            return
        step = pres.degrees[i]
        for k in range(rem // step + 1):
            expo.append(k)
            rec(i + 1, expo, rem - k * step)
            expo.pop()

    rec(0, [], d)
    return out


def _bracket_gen_mono(pres: PoissonPresentation, gi: int, mono: tuple) -> dict:
    """{gen_i, mono} via the Leibniz rule, reduced."""
    out = {}
    for gj in range(len(pres.gens)):
        k = mono[gj]
        if k == 0:
            continue
        pair = (min(gi, gj), max(gi, gj))
        if gi == gj:
            continue
        br = pres.brackets.get(pair, {})
        if not br:
            continue
        sign = 1 if gi < gj else -1
        dm = list(mono)
        dm[gj] -= 1
        partial = _poly_mul({tuple(dm): k * sign}, br)
        for e, c in partial.items():
            out[e] = out.get(e, 0) + c
            if out[e] == 0:
                del out[e]
    return _poly_reduce(pres, out)


def hp0_poisson(pres: PoissonPresentation, modulus: int, D: int):
    """Per-degree dimensions of A/{A, A} over F_p (modulus p) or Q (modulus 0)."""
    if modulus != 0 and not _is_prime(modulus):
        raise ValueError("modulus must be prime or 0")
    monomials = functools.cache(functools.partial(_monomials_of_degree, pres))
    dims = {}
    for d in range(D + 1):
        basis = monomials(d)
        if not basis:
            dims[d] = 0
            continue
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


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def poisson_presentation(kind: str, n: int = 0) -> PoissonPresentation:
    """The Poisson structures on the corner algebras of extended Dynkin types.

    kind 'A': Z[X,Y,Z]/(XY - Z^n), {X,Y} = nZ^(n-1), {X,Z} = X, {Y,Z} = -Y.
    kind 'D': type ~D_n table.  kind 'E6'/'E7'/'E8': the three E tables.
    Generators are ordered (X, Y, Z); exponent tuples follow that order.
    """
    if kind == "A":
        if n < 1:
            raise ValueError("type A needs n >= 1")
        rel = {(1, 1, 0): 1, (0, 0, n): -1}
        br = {
            (0, 1): {(0, 0, n - 1): n},
            (0, 2): {(1, 0, 0): 1},
            (1, 2): {(0, 1, 0): -1},
        }
        return PoissonPresentation(("X", "Y", "Z"), (n, n, 2), rel, br)
    if kind == "D":
        if n < 4:
            raise ValueError("type D needs n >= 4")
        even = n % 2 == 0
        rel = {(0, 0, 2): 1, (1, 2, 0): 1}
        if even:
            rel[(n // 2, 1, 0)] = -1
        else:
            rel[((n - 1) // 2, 0, 1)] = -1
        br01 = {(0, 0, 1): 2}
        if not even:
            br01[((n - 1) // 2, 0, 0)] = -1
        br02 = {(1, 1, 0): 2}
        if even:
            br02[(n // 2, 0, 0)] = -1
        br12 = {(0, 2, 0): 1}
        if even:
            br12[((n - 2) // 2, 1, 0)] = -(n // 2)
        else:
            br12[((n - 3) // 2, 0, 1)] = -((n - 1) // 2)
        # X is the length-4 short cycle (the length-2 one dies against the
        # local relation at the extending vertex), so |X| = 4
        return PoissonPresentation(("X", "Y", "Z"), (4, 2 * (n - 2), 2 * (n - 1)),
                                   rel, {(0, 1): br01, (0, 2): br02, (1, 2): br12})
    if kind == "E6":
        rel = {(0, 0, 2): 1, (0, 3, 0): 1, (2, 0, 1): 1}
        br = {(0, 1): {(0, 0, 1): -2, (2, 0, 0): -1},
              (0, 2): {(0, 2, 0): 3},
              (1, 2): {(1, 0, 1): -2}}
        return PoissonPresentation(("X", "Y", "Z"), (6, 8, 12), rel, br)
    if kind == "E7":
        rel = {(0, 0, 2): 1, (3, 1, 0): -1, (0, 3, 0): 1}
        br = {(0, 1): {(0, 0, 1): -2},
              (0, 2): {(0, 2, 0): 3, (3, 0, 0): -1},
              (1, 2): {(2, 1, 0): 3}}
        return PoissonPresentation(("X", "Y", "Z"), (8, 12, 18), rel, br)
    if kind == "E8":
        rel = {(0, 0, 2): 1, (5, 0, 0): 1, (0, 3, 0): 1}
        br = {(0, 1): {(0, 0, 1): -2},
              (0, 2): {(0, 2, 0): 3},
              (1, 2): {(4, 0, 0): -5}}
        return PoissonPresentation(("X", "Y", "Z"), (12, 20, 30), rel, br)
    raise ValueError(f"unknown presentation kind {kind!r}")
