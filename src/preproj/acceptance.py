"""The acceptance suite: every gate the package promises, runnable one by one.

Each criterion is a function returning (ok, details).  The registry drives
both the pytest module and the `verify` CLI command.  The criteria that draw
random samples take a `seed` and report it in their details.
"""

from __future__ import annotations

import inspect
import itertools
import random
import time
from importlib import resources

from .freealg import (CycElement, PathContext, canonical_rotation,
                      cyclic_project, free_context, w_ab)
from .homology import (LambdaComputation, forest_system, hp0_poisson,
                       lambda_graded, poisson_presentation,
                       preprojective_element, preprojective_system,
                       r_power_class, forest_arrow_order)
from .intlinalg import LatticeSolver, quotient_structure
from .necklace import (CornerPoisson, bracket, bracket_of_wedge, bv_defect,
                       cobracket, loday_bracket)
from .quiver import Quiver, catalog, classify, double, forest_for_white
from .rewrite import MonomialOrder, complete
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


def _all_necklaces(ctx, dmax):
    comp = LambdaComputation(ctx, None, ideal_gens=[], engine="span")
    return {d: comp.ambient_keys(d) for d in range(1, dmax + 1)}


def _cyc_of_key(ctx, key):
    return CycElement(ctx, {key: 1})


# ---------------------------------------------------------------------------
# criteria


def crit_free2_torsion():
    """Lambda of the one-vertex 2-loop-pair quiver: Z/2 at 4 from r^(2),
    Z/3 at 6 from r^(3), nothing else through degree 6, no p^2-torsion."""
    q = catalog("free", 2)
    rep, comp = lambda_graded(q, (), 6)
    table = rep.torsion_table()
    ok = table == {4: (2,), 6: (3,)}
    details = [f"torsion {table}"]
    c2 = r_power_class(comp, 2, 1)
    c3 = r_power_class(comp, 3, 1)
    o2, o3 = comp.order_of(c2), comp.order_of(c3)
    details.append(f"order(r^(2)) = {o2}, order(r^(3)) = {o3}")
    ok = ok and o2 == 2 and o3 == 3
    for d, s in rep.summaries.items():
        for f in s.invariant_factors:
            for p in (2, 3, 5, 7):
                if f % (p * p) == 0:
                    ok = False
                    details.append(f"p^2 factor {f} at degree {d}")
    return ok, "; ".join(details)


def crit_free2_degree8():
    """Degree 8 gives exactly Z/2, generated by r^(4)."""
    q = catalog("free", 2)
    rep, comp = lambda_graded(q, (), 8, engine="span")
    s8 = rep.summaries[8]
    c4 = r_power_class(comp, 2, 2)
    o4 = comp.order_of(c4)
    ok = s8.invariant_factors == (2,) and o4 == 2
    return ok, f"degree 8: {s8}, order(r^(4)) = {o4}"


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
        want_body = "\n".join(l for l in want.splitlines() if not l.startswith("#")).strip()
        ok = got.strip() == want_body
        oks.append(ok)
        details.append(f"{tag}: {'match' if ok else 'MISMATCH'} ({len(sys_.rules)} rules)")
    return all(oks), "; ".join(details)


def _hilbert_match(q, white, D, details, label):
    try:
        sys_ = preprojective_system(q, white, D)
    except Exception as e:  # NonUnitLead falls back to rank comparison
        details.append(f"{label}: completion failed ({e}); skipped enumeration")
        return False
    counts = sys_.normal_count_matrix(D)
    pred = hilbert_prep(q, white, D)
    for d in range(D + 1):
        if pred.coeffs[d] != counts[d]:
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
    the torsion of Lambda of the extended quiver equals all of Lambda of the
    Dynkin one, degree by degree."""
    details = []
    ok = True
    for nm, args, D in [("affine_d", (4,), 8), ("affine_d", (5,), 10), ("affine_e", (6,), 10)]:
        q = catalog(nm, *args)
        rep, _ = lambda_graded(q, (), D)
        expected = {}
        for p in (2, 3, 5):
            for d, c in enumerate(hT_of(q, p, D).scalar_coeffs()):
                if c:
                    expected.setdefault(d, []).append(p)
        got = {d: list(f) for d, f in rep.torsion_table().items()}
        exp = {d: tuple(sorted(v)) for d, v in expected.items()}
        okt = {d: tuple(f) for d, f in got.items()} == exp
        details.append(f"{nm}{args}<= {D}: {'ok' if okt else f'MISMATCH {got} vs {exp}'}")
        ok &= okt
    for dn, en, D in [(("dynkin_d", 4), ("affine_d", 4), 8),
                      (("dynkin_e", 6), ("affine_e", 6), 10)]:
        repD, _ = lambda_graded(catalog(*dn), (), D)
        repE, _ = lambda_graded(catalog(*en), (), D)
        okd = True
        for d in range(1, D + 1):
            sD = repD.summaries[d]
            sE = repE.summaries[d]
            if sD.free_rank != 0 or sD.invariant_factors != sE.invariant_factors:
                okd = False
        details.append(f"split {dn[0]}{dn[1]}: {'ok' if okd else 'MISMATCH'}")
        ok &= okd
    return ok, "; ".join(details)


def crit_dynkin_tables():
    """Lambda of A3 vanishes positively; E6 and E7 give the stated tables."""
    details = []
    repA, _ = lambda_graded(catalog("dynkin_a", 3), (), 8)
    okA = all(repA.summaries[d].free_rank == 0 and repA.summaries[d].is_free()
              for d in range(1, 9))
    details.append(f"A3 positive part zero: {okA}")
    repE6, _ = lambda_graded(catalog("dynkin_e", 6), (), 12)
    okE6 = repE6.torsion_table() == {4: (2,), 6: (3,)} and \
        all(repE6.summaries[d].free_rank == 0 for d in range(1, 13))
    details.append(f"E6 table: {repE6.torsion_table()}")
    repE7, _ = lambda_graded(catalog("dynkin_e", 7), (), 16)
    okE7 = repE7.torsion_table() == {4: (2,), 6: (3,), 8: (2,), 16: (2,)} and \
        all(repE7.summaries[d].free_rank == 0 for d in range(1, 17))
    details.append(f"E7 table: {repE7.torsion_table()}")
    return okA and okE6 and okE7, "; ".join(details)


def _cyclically_normal_count(ctx, forbidden, d):
    seen = set()
    for v in ctx.quiver.vertices:
        for word in ctx.walks(d, v, v):
            w = canonical_rotation(word)
            if all((w[i], w[(i + 1) % d]) not in forbidden for i in range(d)):
                seen.add(w)
    return len(seen)


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
        forest = forest_for_white(qd, white)
        sys_ = forest_system(q, white, D)
        lm_ok = sorted(r.lm_word for r in sys_.rules) == \
            sorted((a, qd.star[a]) for a in forest.arrows)
        rep, comp = lambda_graded(q, white, D,
                                  arrow_order=forest_arrow_order(qd, white))
        tor_ok = all(rep.summaries[d].is_free() for d in range(D + 1))
        forbidden = {(a, qd.star[a]) for a in forest.arrows}
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


def _necklaces_to_total_degree(ctx, dmax):
    out = []
    table = _all_necklaces(ctx, dmax)
    for d in range(1, dmax + 1):
        out += [(d, k) for k in table[d]]
    return out


def crit_necklace_properties(seed=DEFAULT_SEED):
    """Antisymmetry, Jacobi, Leibniz, BV, involutivity, descent of the ideal
    generated by the defining element, and the kernel classes [i r^m]."""
    details = [f"seed {seed}"]
    ok = True

    # antisymmetry + Jacobi: all necklace triples of total degree <= 8,
    # one-vertex quivers with 1 and 2 loop pairs
    for g in (1, 2):
        ctx = PathContext(catalog("free", g))
        necks = _necklaces_to_total_degree(ctx, 6)
        cnt = 0
        good = True
        items = [(d, _cyc_of_key(ctx, k)) for (d, k) in necks]
        for i in range(len(items)):
            di, u = items[i]
            for j in range(i, len(items)):
                dj, v = items[j]
                if di + dj + 1 > 8:
                    continue
                if not (bracket(u, v) + bracket(v, u)).is_zero():
                    good = False
                for k in range(j, len(items)):
                    dk, w = items[k]
                    if di + dj + dk > 8:
                        continue
                    jac = bracket(u, bracket(v, w)) + bracket(v, bracket(w, u)) \
                        + bracket(w, bracket(u, v))
                    cnt += 1
                    if not jac.is_zero():
                        good = False
        details.append(f"free({g}): antisym+Jacobi on {cnt} triples: {good}")
        ok &= good

    # random triples on ~A2 and ~D4
    rng = random.Random(seed + 2)
    for nm, args in [("affine_a", (3,)), ("affine_d", (4,))]:
        ctx = PathContext(catalog(nm, *args))
        necks = _necklaces_to_total_degree(ctx, 5)
        good = True
        for _ in range(60):
            (d1, k1), (d2, k2), (d3, k3) = (necks[rng.randrange(len(necks))] for _ in range(3))
            u, v, w = (_cyc_of_key(ctx, k) for k in (k1, k2, k3))
            if not (bracket(u, v) + bracket(v, u)).is_zero():
                good = False
            jac = bracket(u, bracket(v, w)) + bracket(v, bracket(w, u)) \
                + bracket(w, bracket(u, v))
            if not jac.is_zero():
                good = False
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
    good = True
    for g in (1, 2):
        ctx = PathContext(catalog("free", g))
        for d, k in _necklaces_to_total_degree(ctx, 6):
            if not bracket_of_wedge(cobracket(_cyc_of_key(ctx, k))).is_zero():
                good = False
    details.append(f"involutivity: {good}")
    ok &= good

    # descent: for u in the cyclic image of the ideal ((r)), {u, v} stays in
    # the degreewise span of such classes (checked by lattice membership)
    good = True
    for nm, args in [("free", (2,)), ("affine_a", (3,))]:
        ctx = PathContext(catalog(nm, *args))
        r = preprojective_element(ctx)
        comp = LambdaComputation(ctx, None, ideal_gens=[], engine="span")
        span_rows = {}
        solvers = {}
        for d in range(2, 7):
            rows = []
            for i in ctx.quiver.vertices:
                for u in ctx.walks(d - 2, i, i):
                    e = r * (ctx.path(u) if u else ctx.idempotent(i))
                    vec = comp.coords(cyclic_project(e), d)
                    if vec:
                        rows.append(vec)
            span_rows[d] = rows
            solvers[d] = LatticeSolver(len(comp.ambient_keys(d)), rows)
        necks = _necklaces_to_total_degree(ctx, 4)
        for d in range(2, 5):
            for i in ctx.quiver.vertices:
                for u in ctx.walks(d - 2, i, i):
                    uel = cyclic_project(r * (ctx.path(u) if u else ctx.idempotent(i)))
                    if uel.is_zero():
                        continue
                    for dv, kv in necks:
                        dd = d + dv - 2
                        if dd < 2 or dd > 6:
                            continue
                        br = bracket(uel, _cyc_of_key(ctx, kv))
                        if br.is_zero():
                            continue
                        vec = comp.coords(br, dd)
                        if solvers[dd].order_of(vec) != 1:
                            good = False
    details.append(f"ideal descent: {good}")
    ok &= good

    # kernel classes: {[i r^m], v} = 0 identically in the free cyclic space,
    # and delta_ell(i r^m) has a degree-zero leg in every term
    good = True
    for nm, args in [("free", (2,)), ("affine_a", (3,))]:
        ctx = PathContext(catalog(nm, *args))
        r = preprojective_element(ctx)
        necks = _necklaces_to_total_degree(ctx, 4)
        for i in ctx.quiver.vertices:
            e_i = ctx.idempotent(i)
            for m in (1, 2, 3):
                irm = cyclic_project(e_i * r ** m)
                if irm.is_zero():
                    continue
                for dv, kv in necks:
                    if not bracket(irm, _cyc_of_key(ctx, kv)).is_zero():
                        good = False
                # the cobracket of the class dies in the wedge of the
                # positively graded parts
                w = cobracket(irm)
                if any(ctx.weight(k1.word) > 0 and ctx.weight(k2.word) > 0
                       for (k1, k2) in w.terms):
                    good = False
    details.append(f"kernel classes: {good}")
    ok &= good
    return ok, "; ".join(details)


def crit_poisson_presentations():
    """The corner Poisson presentations of types ~A2, ~D4, ~E6."""
    details = []
    ok = True

    q = catalog("affine_a", 3)
    rep, comp = lambda_graded(q, (), 8)
    cp = CornerPoisson(comp)
    ctx = comp.ctx
    orig = [a for (a, _, _) in ctx.quiver.arrows if a < ctx.quiver.star[a]]
    x = sum((ctx.arrow(a) for a in orig[1:]), ctx.arrow(orig[0]))
    y = sum((ctx.arrow(ctx.quiver.star[a]) for a in orig[1:]),
            ctx.arrow(ctx.quiver.star[orig[0]]))
    e0 = ctx.idempotent(cp.i0)
    X = cp.reduce_corner(e0 * x * x * x)
    Y = cp.reduce_corner(e0 * y * y * y)
    Z = cp.reduce_corner(e0 * x * y)
    okA = (cp.poisson(X, Z) == X
           and cp.poisson(X, Y) == cp.reduce_corner(Z * Z).scale(3)
           and cp.poisson(Y, Z) == Y.scale(-1)
           and cp.reduce_corner(X * Y) == cp.reduce_corner(Z * Z * Z))
    details.append(f"~A2 (n=3): {okA}; computed {{Y,Z}} = -Y")
    ok &= okA

    qd = catalog("affine_d", 4)
    repD, compD = lambda_graded(qd, (), 16)
    cpD = CornerPoisson(compD)
    ctxD = compD.ctx
    st = ctxD.quiver.star

    def mD(*els):
        out = els[0]
        for e in els[1:]:
            out = out * e
        return cpD.reduce_corner(out)

    X = cpD.reduce_corner(ctxD.path((0, 2, st[2], st[0])))
    Y = cpD.reduce_corner(ctxD.path((0, 3, st[3], st[0]))).scale(-1)
    Z = cpD.reduce_corner(ctxD.path((0, 2, st[2], 3, st[3], st[0])))
    okD = (cpD.poisson(X, Y) == Z.scale(2)
           and cpD.poisson(X, Z) == mD(X, X) - mD(X, Y).scale(2)
           and cpD.poisson(Y, Z) == mD(Y, Y) - mD(X, Y).scale(2)
           and (mD(Z, Z) + mD(X, Y, Y) - mD(X, X, Y)).is_zero())
    details.append(f"~D4: {okD} (with {{X,Z}} = X^2 - 2XY)")
    ok &= okD

    q6 = catalog("affine_e", 6)
    rep6, comp6 = lambda_graded(q6, (), 18)
    cp6 = CornerPoisson(comp6)
    ctx6 = comp6.ctx
    st6 = ctx6.quiver.star

    def m6(*els):
        out = els[0]
        for e in els[1:]:
            out = out * e
        return cp6.reduce_corner(out)

    p = (1, 0)
    pb = (st6[0], st6[1])
    yw = (st6[2], 2)
    xw = (st6[0], 0)
    X = cp6.reduce_corner(ctx6.path(p + yw + pb))
    Y = cp6.reduce_corner(ctx6.path(p + yw + yw + pb))
    Z = cp6.reduce_corner(ctx6.path(p + yw + xw + yw + yw + pb))
    okE = (cp6.poisson(X, Y) == Z.scale(-2) - m6(X, X)
           and cp6.poisson(X, Z) == m6(Y, Y).scale(3)
           and cp6.poisson(Y, Z) == m6(X, Z).scale(-2)
           and (m6(Z, Z) + m6(Y, Y, Y) + m6(Z, X, X)).is_zero())
    details.append(f"~E6: {okE}")
    ok &= okE
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


def crit_w_lattice():
    """Saturation of the span of W_{a,b} at each bidegree (a,b) <= (4,4),
    after removing the pure powers of the auxiliary degree-2 letter."""
    ctx = free_context(["x", "y", "r"], weights=[1, 1, 2])
    x, y, r = ctx.letters()
    expected_gap = {(2, 2): (2,), (3, 3): (3,), (4, 4): (2,)}
    details = []
    ok = True
    for a in range(1, 5):
        for b in range(1, 5):
            W = w_ab(a, b, r, x, y)
            necks = _bigraded_necklaces(a, b)
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


def _bigraded_necklaces(a, b):
    out = set()
    for nr in range(0, min(a, b) + 1):
        nx, ny = a - nr, b - nr
        letters = [0] * nx + [1] * ny + [2] * nr
        for perm in set(itertools.permutations(letters)):
            out.add(canonical_rotation(perm))
    return sorted(out)


def crit_e8_degree28():
    """The full E8 table through degree 28, with the explicit degree-28
    generator of order two, and the extended-E8 torsion against the closed
    form through t^28."""
    details = []
    q = catalog("dynkin_e", 8)
    rep, comp = lambda_graded(q, (), 28)
    want = {4: (2,), 6: (3,), 8: (2,), 10: (5,), 16: (2,), 18: (3,), 28: (2,)}
    ok = rep.torsion_table() == want
    details.append(f"E8 table {rep.torsion_table()}")
    for p, ell in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        d = 2 * p ** ell
        if d <= 28:
            o = comp.order_of(r_power_class(comp, p, ell))
            ok &= o == p
    ctx = comp.ctx
    st = ctx.quiver.star
    x = ctx.path((st[0], 0))
    y = ctx.path((st[4], 4))
    cls28 = comp.to_class(cyclic_project(x ** 4 * y * x ** 4 * y * x ** 3 * y), 28)
    o28 = comp.order_of(cls28)
    ok &= o28 == 2
    details.append(f"order([i_s x^4yx^4yx^3y]) = {o28}")
    q8 = catalog("affine_e", 8)
    rep8, _ = lambda_graded(q8, (), 28)
    expected = {}
    for p in (2, 3, 5):
        for d, c in enumerate(hT_of(q8, p, 28).scalar_coeffs()):
            if c:
                expected.setdefault(d, []).append(p)
    okt = {d: tuple(f) for d, f in rep8.torsion_table().items()} == \
        {d: tuple(sorted(v)) for d, v in expected.items()}
    details.append(f"~E8 torsion vs closed form to 28: {okt}")
    ok &= okt
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
