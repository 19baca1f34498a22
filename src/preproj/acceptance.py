"""The acceptance suite: every gate the package promises, runnable one by one.

Each criterion is a function returning (ok, details).  The registry drives
both the pytest module and the `verify` CLI command.  The criteria that draw
random samples take a `seed` and report it in their details.
"""

from __future__ import annotations

import inspect
import random
import time
from bisect import bisect_right
from importlib import resources
from operator import itemgetter

from .freealg import (PathContext, cyclic_project, free_context, parse_element,
                      preprojective_relation, w_ab)
from .homology import (LambdaComputation, hp0_poisson,
                       lambda_graded, poisson_presentation,
                       preprojective_element, preprojective_system,
                       r_power_class, r_powers, forest_arrow_order)
from .intlinalg import quotient_structure
from .necklace import (CornerPoisson, bracket, bracket_of_wedge, bv_defect,
                       cobracket, loday_bracket)
from .quiver import Quiver, catalog, classify, double, forest_for_white
from .rewrite import MonomialOrder, NonUnitLead, _listing_body, complete
from .series import (TruncatedSeries, _one_minus_tm_pow, egid_check, hT_of,
                     hilbert_prep, o_series_char_zero, sym_plus_series)

DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------------
# helpers


def _random_connected_quiver(rng, max_vertices=4, extra_arrows=(1, 3),
                             exclude=("dynkin",)):
    """Seeded connected quiver; resamples until the classification is allowed."""
    while True:
        nv = rng.randint(2, max_vertices)
        verts = list(range(nv))
        arrows = []
        aid = 0
        for v in range(1, nv):
            w = rng.randrange(v)
            arrows.append((aid, v, w) if rng.random() < 0.5 else (aid, w, v))
            aid += 1
        for _ in range(rng.randint(*extra_arrows)):
            v = rng.randrange(nv)
            w = rng.randrange(nv)
            arrows.append((aid, v, w))
            aid += 1
        q = Quiver(verts, arrows)
        cls = classify(q)
        if cls.kind in exclude:
            continue
        return q


def _closed_form_torsion(q, D):
    """{degree: primes} read off hT_of for p = 2, 3, 5: the torsion table
    the closed form predicts for Lambda of the extended Dynkin quiver q."""
    expected = {}
    for p in (2, 3, 5):
        for d, c in enumerate(hT_of(q, p, D).scalar_coeffs()):
            if c:
                expected.setdefault(d, []).append(p)
    return {d: tuple(v) for d, v in expected.items()}


def _wild_torsion(D):
    """The paper's table for a wild quiver (neither Dynkin nor extended
    Dynkin): one Z/p in each degree 2 p^l <= D, and nothing else."""
    return {d: (p,) for d, (p, _) in r_powers(D).items()}


# Lambda of E6, E7, E8: its whole positive part is this torsion.
_E_TORSION = {6: {4: (2,), 6: (3,)},
              7: {4: (2,), 6: (3,), 8: (2,), 16: (2,)},
              8: {4: (2,), 6: (3,), 8: (2,), 10: (5,), 16: (2,), 18: (3,), 28: (2,)}}


def _table_match(q, D, want, details, label, engine="auto"):
    """Whether Lambda of q through degree D has the torsion table `want`, with
    order(r^(p^l)) = p wherever `want` has Z/p at 2 p^l (the other r^(p^l)
    are zero, and expanding one costs about (arrows)^(p^l) terms) and, for a
    Dynkin q, free rank 0 in every positive degree.  Appends one detail and
    returns (ok, computation)."""
    rep, comp = lambda_graded(q, (), D, engine=engine)
    table = rep.torsion_table()
    ok = table == want
    words = [f"torsion {table}" if ok else f"torsion {table} MISMATCH (want {want})"]
    for d, (p, ell) in r_powers(D).items():
        if want.get(d) == (p,):
            o = comp.order_of(r_power_class(comp, p, ell))
            ok &= o == p
            words.append(f"order(r^({p ** ell})) = {o}")
    if classify(q).is_dynkin():
        free = [d for d in range(1, D + 1) if rep.summaries[d].free_rank]
        ok &= not free
        words.append(f"free rank nonzero at {free}" if free else "no free part above 0")
    details.append(f"{label} to {D}: " + ", ".join(words))
    return ok, comp


# ---------------------------------------------------------------------------
# criteria


def crit_free2_torsion():
    """Lambda of the one-vertex 2-loop-pair quiver: Z/2 at 4 from r^(2),
    Z/3 at 6 from r^(3), nothing else through degree 6."""
    details = []
    ok = _table_match(catalog("free", 2), 6, _wild_torsion(6), details, "free 2")[0]
    return ok, "; ".join(details)


def crit_free2_degree8():
    """The span engine through degree 8: Z/2 at 8, generated by r^(4)."""
    details = []
    ok = _table_match(catalog("free", 2), 8, _wild_torsion(8), details,
                      "free 2 (span)", engine="span")[0]
    return ok, "; ".join(details)


_STARS = {"e6": ((3, 3, 3), 12), "e7": ((4, 4, 2), 12), "e8": ((6, 3, 2), 14)}


def star_ideal_system(exponents, bound):
    """Completion of ((x^d1, y^d2, z^d3, x4^d4, ..., x+y+z+x4+...)) in the free
    algebra on one letter per exponent, grlex x<y<z<x4<..."""
    ctx = free_context(["xyz"[i] if i < 3 else f"x{i + 1}" for i in range(len(exponents))])
    letters = ctx.letters()
    gens = [el ** e for el, e in zip(letters, exponents)]
    gens.append(sum(letters[1:], letters[0]))
    return complete(gens, MonomialOrder(ctx), bound)


def crit_groebner_e_types():
    """The three E-type Groebner generating sets match the shipped listings."""
    oks = []
    details = []
    for tag, (exps, bound) in _STARS.items():
        sys_ = star_ideal_system(exps, bound)
        got = sys_.export_text()
        want = resources.files("preproj.data").joinpath(f"{tag}_groebner.txt").read_text()
        ok = got.strip() == _listing_body(want)
        oks.append(ok)
        details.append(f"{tag}: {'match' if ok else 'MISMATCH'} ({len(sys_.rules)} rules)")
    return all(oks), "; ".join(details)


def _hilbert_match(q, white, D, details, label):
    try:
        sys_ = preprojective_system(q, white, D)
    except NonUnitLead:  # no normal words to count: the criterion fails
        details.append(f"{label}: non-unit leading coefficient, not counted; fails")
        return False
    counts = sys_.normal_count_matrix(D)
    pred = hilbert_prep(q, white, D).coeffs
    for d in range(D + 1):
        if pred[d] != counts[d]:
            details.append(f"{label}: degree {d} differs")
            return False
    details.append(f"{label}: ok to {D}")
    return True


def crit_hilbert_identities(seed=DEFAULT_SEED):
    """(a) normal-word counts match the inverse t-Cartan matrix; (b) the
    corner series of type ~E6 matches its closed form; (c) the product
    identity holds for ~A2, ~D4, ~E6."""
    details = [f"seed {seed}"]
    ok = True
    for nm, args in [("free", (2,)), ("affine_a", (3,)), ("affine_d", (4,)),
                     ("affine_e", (6,))]:
        ok &= _hilbert_match(catalog(nm, *args), (), 10, details, f"{nm}{args}")
    rng = random.Random(seed)
    for k in range(3):
        q = _random_connected_quiver(rng)
        ok &= _hilbert_match(q, (), 10, details, f"random{k}({len(q.vertices)}v{len(q.arrows)}a)")

    q6 = catalog("affine_e", 6)
    i0 = classify(q6).extending_vertex
    sys6 = preprojective_system(q6, (), 16)
    counts = sys6.normal_count_matrix(16)
    vidx = {v: k for k, v in enumerate(q6.vertices)}[i0]
    got = [counts[d][vidx][vidx] for d in range(17)]
    num = TruncatedSeries.scalar([1, 0, 0, 0, -1, 0, 0, 0, 1] + [0] * 8, 16)
    closed = num * _one_minus_tm_pow(4, -1, 16) * _one_minus_tm_pow(6, -1, 16)
    okb = got == closed.scalar_coeffs()
    details.append(f"corner ~E6 series {'ok' if okb else 'MISMATCH'} to 16")
    ok &= okb

    for nm, args in [("affine_a", (3,)), ("affine_d", (4,)), ("affine_e", (6,))]:
        okc = egid_check(catalog(nm, *args), 12)
        details.append(f"egid {nm}{args}: {okc}")
        ok &= okc
    return ok, "; ".join(details)


def crit_ext_dynkin_torsion():
    """Extended Dynkin torsion matches the closed-form table, and the split:
    all of Lambda of the Dynkin quiver (D4, E6) is that same table, so it
    equals the torsion of Lambda of the extended one, degree by degree."""
    details = []
    ok = True
    for fam, rank, D, split in [("d", 4, 8, True), ("d", 5, 10, False), ("e", 6, 10, True)]:
        q = catalog(f"affine_{fam}", rank)
        want = _closed_form_torsion(q, D)
        ok &= _table_match(q, D, want, details, f"~{fam.upper()}{rank}")[0]
        if split:
            ok &= _table_match(catalog(f"dynkin_{fam}", rank), D, want, details,
                               f"split {fam.upper()}{rank}")[0]
    return ok, "; ".join(details)


def crit_dynkin_tables():
    """Lambda of A3 vanishes positively; E6 and E7 give the stated tables."""
    details = []
    ok = _table_match(catalog("dynkin_a", 3), 8, {}, details, "A3")[0]
    for rank, D in [(6, 12), (7, 16)]:
        ok &= _table_match(catalog("dynkin_e", rank), D, _E_TORSION[rank], details,
                           f"E{rank}")[0]
    return ok, "; ".join(details)


def _cyclically_normal_count(ctx, forbidden, d):
    return sum(all((k.word[i], k.word[(i + 1) % d]) not in forbidden for i in range(d))
               for _, k in ctx.necklaces(d, d))


def crit_partial_preprojective(seed=DEFAULT_SEED):
    """Five sampled (Q, J) with J nonempty: the forest rules are already
    complete, Lambda is torsion-free through degree 8 with rank equal to the
    number of cyclically-normal necklaces, and the O-series identity holds."""
    rng = random.Random(seed + 1)
    details = [f"seed {seed}"]
    ok = True
    D = 8
    for k in range(5):
        q = _random_connected_quiver(rng, max_vertices=4, extra_arrows=(0, 2),
                                     exclude=())
        white = set()
        while not white:
            white = {v for v in q.vertices if rng.random() < 0.5}
        qd = double(q)
        forbidden = {(a, qd.star[a]) for a in forest_for_white(qd, white).arrows}
        rep, comp = lambda_graded(q, white, D, engine="normal",
                                  arrow_order=forest_arrow_order(qd, white))
        # comp.system: the preprojective relations led by a a* over the forest arrows
        lm_ok = sorted(r.lm_word for r in comp.system.rules) == sorted(forbidden)
        tor_ok = all(rep.summaries[d].is_free() for d in range(D + 1))
        rank_ok = all(rep.summaries[d].free_rank ==
                      _cyclically_normal_count(comp.ctx, forbidden, d)
                      for d in range(1, D + 1))
        counts = [len(q.vertices)] + [rep.summaries[d].free_rank for d in range(1, D + 1)]
        ser_ok = sym_plus_series(TruncatedSeries.scalar(counts, D)) == \
            o_series_char_zero(q, white, D)
        this = lm_ok and tor_ok and rank_ok and ser_ok
        ok &= this
        details.append(f"sample{k}({len(q.vertices)}v,|J|={len(white)}): "
                       f"{'ok' if this else f'forest {lm_ok} free {tor_ok} rank {rank_ok} series {ser_ok}'}")
    return ok, "; ".join(details)


def _bounded_triples(degs, bound):
    """Index triples i <= j <= k with degs[i] + degs[j] + degs[k] <= bound, as
    (i, j, ks): every pair with degs[i] + degs[j] < bound and the range of its
    k.  degs is nondecreasing, so each range ends where the bound is passed."""
    for i, di in enumerate(degs):
        for j in range(i, bisect_right(degs, bound - 1 - di)):
            yield i, j, range(j, bisect_right(degs, bound - di - degs[j]))


def _antisym_jacobi(pairs):
    """(triples, ok) over pairs (u, v, ws): whether {u, v} = -{v, u} and, for
    each w in ws, {u, {v, w}} + {v, {w, u}} + {w, {u, v}} = 0."""
    count, ok = 0, True
    for u, v, ws in pairs:
        uv = bracket(u, v)
        ok &= (uv + bracket(v, u)).is_zero()
        for w in ws:
            ok &= (bracket(u, bracket(v, w)) + bracket(v, bracket(w, u))
                   + bracket(w, uv)).is_zero()
            count += 1
    return count, ok


def crit_necklace_properties(seed=DEFAULT_SEED):
    """Antisymmetry, Jacobi, Leibniz, BV, involutivity, descent of the ideal
    generated by the defining element, and the kernel classes [i r^m]."""
    details = [f"seed {seed}"]
    ok = True

    # antisymmetry + Jacobi: all necklace triples of total degree <= 8,
    # one-vertex quivers with 1 and 2 loop pairs
    free_necks = []
    for g in (1, 2):
        ctx = PathContext(catalog("free", g))
        # degree by degree: _bounded_triples reads nondecreasing degrees
        degs, necks = zip(*[(d, ctx.cyclic({k: 1}))
                            for d, k in sorted(ctx.necklaces(1, 6), key=itemgetter(0))])
        free_necks += necks
        cnt, good = _antisym_jacobi((necks[i], necks[j], [necks[k] for k in ks])
                                    for i, j, ks in _bounded_triples(degs, 8))
        details.append(f"free({g}): antisym+Jacobi on {cnt} triples: {good}")
        ok &= good

    # random triples on ~A2 and ~D4
    rng = random.Random(seed + 2)
    for nm, args in [("affine_a", (3,)), ("affine_d", (4,))]:
        ctx = PathContext(catalog(nm, *args))
        necks = [ctx.cyclic({k: 1}) for _, k in sorted(ctx.necklaces(1, 5), key=itemgetter(0))]
        triples = [[necks[rng.randrange(len(necks))] for _ in range(3)] for _ in range(60)]
        _, good = _antisym_jacobi((u, v, [w]) for u, v, w in triples)
        details.append(f"{nm}{args}: random antisym+Jacobi: {good}")
        ok &= good

    # Leibniz {u, bc} = b{u, c} + {u, b}c on random samples, degrees <= 6
    ctx2 = PathContext(catalog("free", 2))
    arrows2 = [a for (a, _, _) in ctx2.quiver.arrows]
    good = True
    for _ in range(120):
        wu = tuple(rng.choice(arrows2) for _ in range(rng.randint(1, 3)))
        u = cyclic_project(ctx2.path(wu))
        if u.is_zero():
            continue
        b = ctx2.path(tuple(rng.choice(arrows2) for _ in range(rng.randint(1, 3))))
        c = ctx2.path(tuple(rng.choice(arrows2) for _ in range(rng.randint(1, 3))))
        lhs = loday_bracket(u, b * c)
        rhs = b * loday_bracket(u, c) + loday_bracket(u, b) * c
        if not (lhs - rhs).is_zero():
            good = False
    details.append(f"Leibniz: {good}")
    ok &= good

    # BV identity on random monomial pairs of degree <= 5
    good = True
    for _ in range(120):
        a = ctx2.path(tuple(rng.choice(arrows2) for _ in range(rng.randint(1, 4))))
        b = ctx2.path(tuple(rng.choice(arrows2) for _ in range(rng.randint(1, 4))))
        if bv_defect(a, b):
            good = False
    details.append(f"BV: {good}")
    ok &= good

    # involutivity br o delta = 0 on cyclic words of degree <= 6
    good = all(bracket_of_wedge(cobracket(u)).is_zero() for u in free_necks)
    details.append(f"involutivity: {good}")
    ok &= good

    # descent: for u in the cyclic image of the ideal ((r)), {u, v} stays in
    # the degreewise span of such classes (checked by lattice membership);
    # kernel classes: {[i r^m], v} = 0 identically in the free cyclic space,
    # and delta_ell(i r^m) has a degree-zero leg in every term
    descent = kernel = True
    for nm, args in [("free", (2,)), ("affine_a", (3,))]:
        ctx = PathContext(catalog(nm, *args))
        r = preprojective_element(ctx)
        comp = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx),
                                 engine="span")
        necks = [(d, ctx.cyclic({k: 1})) for d, k in ctx.necklaces(1, 4)]
        for d in range(2, 5):
            for i in ctx.quiver.vertices:
                for u in ctx.walks(d - 2, i, i):
                    uel = cyclic_project(r * (ctx.path(u) if u else ctx.idempotent(i)))
                    if uel.is_zero():
                        continue
                    for dv, v in necks:
                        # d and dv run to 4, so dd runs to 6
                        dd = d + dv - 2
                        if dd < 2:
                            continue
                        br = bracket(uel, v)
                        if br.is_zero():
                            continue
                        vec = comp.coords(br, dd)
                        if comp.solver(dd).order_of(vec) != 1:
                            descent = False
        for i in ctx.quiver.vertices:
            e_i = ctx.idempotent(i)
            for m in (1, 2, 3):
                irm = cyclic_project(e_i * r ** m)
                if irm.is_zero():
                    continue
                kernel &= all(bracket(irm, v).is_zero() for _, v in necks)
                # the cobracket of the class dies in the wedge of the
                # positively graded parts
                w = cobracket(irm)
                if any(k1.word and k2.word for (k1, k2) in w.terms):
                    kernel = False
    details += [f"ideal descent: {descent}", f"kernel classes: {kernel}"]
    return ok and descent and kernel, "; ".join(details)


# (catalog name and parameter, degree bound, presentation kind and n, the
# generators X, Y, Z of the corner as signed single paths at its vertex)
_CORNERS = [
    (("affine_a", 3), 8, ("A", 3), ("a0 a1 a2", "a2* a1* a0*", "a0 a0*")),
    (("affine_d", 4), 16, ("D", 4),
     ("a0 a2 a2* a0*", "-a0 a3 a3* a0*", "-a0 a2 a2* a3 a3* a0*")),
    (("affine_d", 5), 16, ("D", 5),
     ("-a0 a2 a2* a0*", "-a0 a2 a3 a3* a2* a0*", "a0 a2 a4 a4* a3 a3* a2* a0*")),
    (("affine_e", 6), 18, ("E6", 0),
     ("a1 a0 a2* a2 a0* a1*", "a1 a0 a2* a2 a2* a2 a0* a1*",
      "a1 a0 a2* a2 a0* a0 a2* a2 a2* a2 a0* a1*")),
    (("affine_e", 7), 36, ("E7", 0),
     ("a2 a1 a0 a3* a3 a0* a1* a2*", "a2 a1 a0 a3* a3 a0* a0 a3* a3 a0* a1* a2*",
      "a2 a1 a0 a3* a3 a0* a0 a0* a0 a3* a3 a0* a0 a3* a3 a0* a1* a2*")),
]


def _evaluate(cp, poly, gens):
    """The polynomial {exponents: coefficient} at the corner elements gens,
    reduced after each factor."""
    ctx = cp.comp.ctx
    out = ctx.zero()
    for e, c in poly.items():
        term = ctx.idempotent(cp.i0).scale(c)
        for g, k in zip(gens, e):
            for _ in range(k):
                term = cp.reduce_corner(term * g)
        out = out + term
    return out


def crit_poisson_presentations():
    """The necklace bracket on the corner of ~A2, ~D4, ~D5, ~E6 and ~E7 is
    the presentation hp0 reads: at the generators, each {g_i, g_j} is the
    bracket poisson_presentation gives, and its relation F vanishes."""
    details = []
    ok = True
    for (name, rank), D, (kind, n), texts in _CORNERS:
        q = catalog(name, rank)
        ctx = PathContext(q)
        cp = CornerPoisson(LambdaComputation(ctx, preprojective_system(q, (), D, ctx=ctx)))
        gens = [cp.reduce_corner(parse_element(ctx, t)) for t in texts]
        pres = poisson_presentation(kind, n)
        bad = [f"{{{pres.gens[i]},{pres.gens[j]}}}" for (i, j), br in sorted(pres.brackets.items())
               if cp.poisson(gens[i], gens[j]) != _evaluate(cp, br, gens)]
        if not _evaluate(cp, pres.relation, gens).is_zero():
            bad.append("F")
        ok &= not bad
        details.append(f"{classify(q)} ({kind}{f', n = {n}' if n else ''}): "
                       + (f"{', '.join(bad)} MISMATCH" if bad else "brackets and F match"))
    return ok, "; ".join(details)


def crit_hp0():
    """HP_0 of the ~E6 corner Poisson algebra over F_2 and over Q."""
    pres = poisson_presentation("E6")
    dims2 = hp0_poisson(pres, 2, 24)
    expected2 = {0: 1, 6: 1, 8: 1, 12: 1, 14: 1, 18: 1, 20: 1}
    ok2 = all(dims2.get(d, 0) == expected2.get(d, 0) for d in range(25))
    dims0 = hp0_poisson(pres, 0, 24)
    expected0 = {0: 1, 6: 1, 8: 1, 12: 1, 14: 1, 20: 1}
    ok0 = all(dims0.get(d, 0) == expected0.get(d, 0) for d in range(25))
    got2 = {d: v for d, v in dims2.items() if v}
    got0 = {d: v for d, v in dims0.items() if v}
    return ok2 and ok0, f"F_2 dims {got2}; Q dims {got0} (6 classes)"


def _w_necklaces(ctx):
    """{(a, b): necklace words over x, y, r (letters 0, 1, 2) with
    #x + #r = a and #y + #r = b} for a, b <= 4: the ambient of W_{a,b},
    where r stands for a letter of bidegree (1, 1)."""
    out = {}
    for _, k in ctx.necklaces(1, 8):
        w = k.word
        ab = (w.count(0) + w.count(2), w.count(1) + w.count(2))
        if max(ab) <= 4:
            out.setdefault(ab, []).append(w)
    return out


def crit_w_lattice():
    """Saturation of the span of W_{a,b} at each bidegree (a,b) <= (4,4),
    after removing the pure powers of the auxiliary letter r."""
    ctx = free_context(["x", "y", "r"])
    x, y, r = ctx.letters()
    expected_gap = {(2, 2): (2,), (3, 3): (3,), (4, 4): (2,)}
    details = []
    ok = True
    listings = _w_necklaces(ctx)
    for a in range(1, 5):
        for b in range(1, 5):
            W = w_ab(a, b, r, x, y)
            necks = listings[a, b]
            idx = {w: i for i, w in enumerate(necks)}
            row = {}
            for key, c in W.terms.items():
                if key.word and all(l == 2 for l in key.word):
                    continue  # quotient by the [r^m] classes
                row[idx[key.word]] = c
            gap = quotient_structure(len(necks), [row] if row else []).invariant_factors
            want = expected_gap.get((a, b), ())
            if gap != want:
                ok = False
                details.append(f"({a},{b}): gap {gap} want {want}")
    return ok, "all bidegrees (a,b) <= (4,4) as expected" if ok else "; ".join(details)


def crit_e8_degree28():
    """The full E8 table through degree 28, with the explicit degree-28
    generator of order two, and the extended-E8 torsion against the closed
    form through t^28."""
    details = []
    ok, comp = _table_match(catalog("dynkin_e", 8), 28, _E_TORSION[8], details, "E8")
    ctx = comp.ctx
    st = ctx.quiver.star
    x = ctx.path((st[0], 0))
    y = ctx.path((st[4], 4))
    cls28 = comp.to_class(cyclic_project(x ** 4 * y * x ** 4 * y * x ** 3 * y), 28)
    o28 = comp.order_of(cls28)
    ok &= o28 == 2
    details.append(f"order([i_s x^4yx^4yx^3y]) = {o28}")
    q8 = catalog("affine_e", 8)
    ok &= _table_match(q8, 28, _closed_form_torsion(q8, 28), details, "~E8")[0]
    return ok, "; ".join(details)


# ---------------------------------------------------------------------------
# registry


CRITERIA = [
    ("free2_torsion", crit_free2_torsion),
    ("groebner_e_types", crit_groebner_e_types),
    ("hilbert_identities", crit_hilbert_identities),
    ("ext_dynkin_torsion", crit_ext_dynkin_torsion),
    ("dynkin_tables", crit_dynkin_tables),
    ("partial_preprojective", crit_partial_preprojective),
    ("necklace_properties", crit_necklace_properties),
    ("poisson_presentations", crit_poisson_presentations),
    ("hp0_bad_primes", crit_hp0),
    ("w_lattice", crit_w_lattice),
    ("free2_degree8", crit_free2_degree8),
    ("e8_degree28", crit_e8_degree28),
]


def run_suite(only=None, seed=DEFAULT_SEED):
    """Run every criterion, or only the one named; returns result dicts.

    The seeded criteria draw their samples from `seed`.
    """
    results = []
    for name, fn in CRITERIA:
        if only is not None and name != only:
            continue
        kwargs = {"seed": seed} if "seed" in inspect.signature(fn).parameters else {}
        t0 = time.time()
        try:
            ok, details = fn(**kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, details = False, f"exception: {exc!r}"
        results.append({"criterion": name, "ok": bool(ok),
                        "seconds": round(time.time() - t0, 2), "details": details})
    return results
