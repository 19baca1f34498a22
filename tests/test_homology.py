import random

import pytest

from preproj.freealg import (CycElement, CyclicClass, PathContext, cyclic_project,
                             render_cyclic)
from preproj.homology import (GradedTorsionReport, LambdaComputation,
                              PoissonPresentation, _bracket_gen_mono,
                              _monomials_of_degree, frobenius_cyc, ghost,
                              hp0_poisson, lambda_graded, poisson_presentation,
                              preprojective_element, r_power_class,
                              r_power_cyclic)
from preproj.intlinalg import LatticeSolver
from preproj.quiver import catalog, classify
from preproj.series import hilbert_prep


def test_lambda_free2():
    rep, comp = lambda_graded(catalog("free", 2), (), 6)
    assert rep.torsion_table() == {4: (2,), 6: (3,)}
    assert rep.summaries[0].free_rank == 1
    c2 = r_power_class(comp, 2, 1)
    c3 = r_power_class(comp, 3, 1)
    assert comp.order_of(c2) == 2
    assert comp.order_of(c3) == 3


def test_r_power_one_loop_pair():
    ctx = PathContext(catalog("free", 1))
    r2 = r_power_cyclic(ctx, 2, 1)
    want = ctx.cyclic({CyclicClass.of(ctx, (0, (0, 1, 0, 1))): 1,
                       CyclicClass.of(ctx, (0, (0, 0, 1, 1))): -1})
    assert r2 == want  # [xyxy] - [xxyy] with y the reverse of x


def test_r_power_divisibility_failure_is_hard():
    ctx = PathContext(catalog("free", 1))
    x = ctx.arrow(0)
    with pytest.raises(ArithmeticError):
        cyclic_project(x * x).divide_exact(2)


def test_lambda_dynkin_a_vanishes():
    rep, _ = lambda_graded(catalog("dynkin_a", 4), (), 8)
    for d in range(1, 9):
        assert rep.summaries[d].free_rank == 0
        assert rep.summaries[d].is_free()


def test_lambda_e6_table():
    rep, _ = lambda_graded(catalog("dynkin_e", 6), (), 12)
    assert rep.torsion_table() == {4: (2,), 6: (3,)}


def test_partial_lambda_free():
    rep, _ = lambda_graded(catalog("star", 2, 1), [1], 8)
    assert all(rep.summaries[d].is_free() for d in range(9))


def test_engines_agree():
    for nm, args, D in [("free", (2,), 5), ("affine_a", (3,), 6), ("star", (1, 1), 6)]:
        q = catalog(nm, *args)
        repn, _ = lambda_graded(q, (), D, engine="normal")
        reps, _ = lambda_graded(q, (), D, engine="span")
        for d in range(D + 1):
            a, b = repn.summaries[d], reps.summaries[d]
            assert (a.free_rank, a.invariant_factors) == (b.free_rank, b.invariant_factors), (nm, d)


def test_order_of_basics():
    rep, comp = lambda_graded(catalog("free", 2), (), 4)
    from preproj.homology import HomologyClass

    assert comp.order_of(HomologyClass(4, {})) == 1
    e_cls = comp.to_class(cyclic_project(comp.ctx.idempotent(0)), 0)
    assert comp.order_of(e_cls) == 0  # degree-0 classes are free


@pytest.mark.parametrize("engine", ["normal", "span"])
def test_one_elimination_per_degree(monkeypatch, engine):
    """summary(d) and order_of at degree d share one Smith normal form."""
    import preproj.intlinalg as intlinalg

    eliminated = []
    snf = intlinalg.smith_normal_form

    def counting_snf(rows, ncols, *args, **kwargs):
        eliminated.append(ncols)
        return snf(rows, ncols, *args, **kwargs)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counting_snf)
    rep, comp = lambda_graded(catalog("free", 2), (), 8, engine=engine)
    assert rep.engine == engine
    orders = [comp.order_of(r_power_class(comp, p, ell)) for p, ell in ((2, 1), (3, 1), (2, 2))]
    assert orders == [2, 3, 2]
    assert eliminated == [len(comp.ambient_keys(d)) for d in range(9)]


def test_free_rank_matches_corner_series():
    for nm, args, D in [("affine_a", (3,), 10), ("affine_d", (4,), 8),
                        ("affine_e", (6,), 10)]:
        q = catalog(nm, *args)
        rep, _ = lambda_graded(q, (), D)
        i0 = classify(q).extending_vertex
        h = hilbert_prep(q, (), D)
        k = {v: i for i, v in enumerate(q.vertices)}[i0]
        for d in range(1, D + 1):
            assert rep.summaries[d].free_rank == h.coeffs[d][k][k], (nm, d)


def test_mod_p_dimension_crosscheck():
    """dim over F_p = free rank + number of invariant factors divisible by p,
    checked against an independent mod-p elimination."""
    q = catalog("free", 2)
    rep, comp = lambda_graded(q, (), 6)
    for p in (2, 3):
        for d in range(1, 7):
            rows = comp.relation_rows(d)
            n = len(comp.ambient_keys(d))
            rank = _rank_mod_p(rows, p)
            s = rep.summaries[d]
            want = s.free_rank + sum(1 for f in s.invariant_factors if f % p == 0)
            assert n - rank == want, (p, d)


def _rank_mod_p(rows, p):
    reduced = {}
    rank = 0
    for row in rows:
        r = {j: v % p for j, v in row.items() if v % p}
        while r:
            j = min(r)
            if j in reduced:
                lead = reduced[j]
                f = (r[j] * pow(lead[j], -1, p)) % p
                r = {k: (r.get(k, 0) - f * lead.get(k, 0)) % p
                     for k in set(r) | set(lead)}
                r = {k: v for k, v in r.items() if v}
            else:
                reduced[j] = r
                rank += 1
                break
    return rank


def test_dtilde_torsion_generator():
    """The explicit two-torsion class of type ~D: the sum of the long cycles
    based at the two upper external vertices."""
    q = catalog("affine_d", 4)
    rep, comp = lambda_graded(q, (), 8)
    ctx = comp.ctx
    qd = ctx.quiver
    m = 4
    # R and L are the sums of all rightward / leftward arrows of the double
    right = [a for (a, s, t) in qd.arrows if (s < t and a < qd.star[a]) or
             (s > t and a >= len(q.arrows))]
    rightward = [a for (a, s, t) in qd.arrows if t == 2 and s in (0, 1)] + \
        [a for (a, s, t) in qd.arrows if s == 2 and t in (3, 4)]
    leftward = [qd.star[a] for a in rightward]
    R = sum((ctx.arrow(a) for a in rightward[1:]), ctx.arrow(rightward[0]))
    L = sum((ctx.arrow(a) for a in leftward[1:]), ctx.arrow(leftward[0]))
    ru, lu = 3, 0
    # the relative sign of the two long cycles depends on the chosen
    # orientation; in the all-rightward catalog the torsion class is the
    # difference (an arrow-reversal isomorphism toggles the sign)
    el = ctx.idempotent(ru) * (L * R) ** 2 * ctx.idempotent(ru) - \
        ctx.idempotent(lu) * (R * L) ** 2 * ctx.idempotent(lu)
    cyc = cyclic_project(el)
    cls = comp.to_class(cyc, m)
    assert comp.order_of(cls) == 2
    # and it is the same torsion class as r^(2)
    r2 = r_power_class(comp, 2, 1)
    diff = dict(cls.coords)
    for k, v in r2.coords.items():
        diff[k] = diff.get(k, 0) - v
    diff = {k: v for k, v in diff.items() if v}
    assert comp.solver(m).order_of(diff) == 1 if diff else True


def test_frobenius_examples():
    ctx = PathContext(catalog("free", 1))
    x = ctx.arrow(0)
    fx = frobenius_cyc(cyclic_project(x), 2)
    assert fx == ctx.cyclic({CyclicClass.of(ctx, (0, (0, 0))): 1})


def test_frobenius_additivity():
    rng = random.Random(13)
    ctx = PathContext(catalog("free", 2))
    arrows = [a for (a, _, _) in ctx.quiver.arrows]
    for p in (2, 3):
        for _ in range(50):
            wa = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 3)))
            wb = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 3)))
            a, b = ctx.path(wa), ctx.path(wb)
            fab = frobenius_cyc(cyclic_project(a + b), p)
            fa = frobenius_cyc(cyclic_project(a), p)
            fb = frobenius_cyc(cyclic_project(b), p)
            diff = fab - fa - fb
            assert all(v % p == 0 for v in diff.terms.values()), (p, wa, wb)


def test_frobenius_relates_r_powers():
    """r^(4) agrees with the square of r^(2) in Lambda tensor F_2."""
    q = catalog("free", 2)
    rep, comp = lambda_graded(q, (), 8, engine="span")
    r2 = r_power_cyclic(comp.ctx, 2, 1)
    r4 = r_power_cyclic(comp.ctx, 2, 2)
    fr2 = frobenius_cyc(r2, 2)
    diff = fr2 - r4
    vec = comp.coords(diff, 8)
    n = len(comp.ambient_keys(8))
    rows = list(comp.relation_rows(8)) + [{j: 2} for j in range(n)]
    assert LatticeSolver(n, rows).contains(vec)


def test_ghost():
    from preproj.freealg import free_context

    ctx = free_context(["x", "y"])
    x, y = ctx.letters()
    g = ghost([x, y], 2)
    assert g[0] == cyclic_project(x)
    assert g[1] == cyclic_project(x * x + y.scale(2))
    z = ctx.zero()
    assert all(c.is_zero() for c in ghost([z, z, z], 5))
    g3 = ghost([x, z, z], 3)
    assert g3[2] == cyclic_project(x ** 9)


def test_report_json():
    rep, _ = lambda_graded(catalog("free", 2), (), 4)
    import json

    doc = json.loads(rep.to_json())
    assert doc[4]["degree"] == 4 and doc[4]["torsion"] == ["2"]


def test_hp0_abelian():
    pres = PoissonPresentation(("X", "Y"), (2, 4), {(3, 0): 1}, {})
    dims = hp0_poisson(pres, 0, 8)
    # the whole algebra survives: monomials X^a Y^b with a <= 2
    assert dims[0] == 1 and dims[2] == 1 and dims[4] == 2
    assert dims[6] == 1 and dims[8] == 2  # XY; X^2 Y and Y^2
    with pytest.raises(ValueError):
        hp0_poisson(pres, 4, 4)


def test_hp0_type_a():
    pres = poisson_presentation("A", 3)
    dims = hp0_poisson(pres, 0, 8)
    assert all(v >= 0 for v in dims.values())


def test_hp0_e6_char3():
    pres = poisson_presentation("E6")
    dims3 = hp0_poisson(pres, 3, 18)
    dims0 = hp0_poisson(pres, 0, 18)
    # char-3 dimensions dominate the rational ones degree by degree
    for d in range(19):
        assert dims3.get(d, 0) >= dims0.get(d, 0)


def test_hp0_e8_bad_primes_smoke():
    pres = poisson_presentation("E8")
    dims0 = hp0_poisson(pres, 0, 30)
    for p in (2, 3, 5):
        dimsp = hp0_poisson(pres, p, 30)
        for d in range(31):
            assert dimsp.get(d, 0) >= dims0.get(d, 0), (p, d)


@pytest.mark.parametrize("kind,n", [("E6", 0), ("E7", 0), ("E8", 0), ("A", 3), ("D", 4)])
def test_hp0_mod_p_against_elimination(kind, n):
    """hp0 over F_p, read off the integer Smith form, against an independent
    mod-p elimination of the same bracket rows."""
    pres = poisson_presentation(kind, n)
    D = 30
    dims = {p: hp0_poisson(pres, p, D) for p in (2, 3, 5)}
    for d in range(D + 1):
        basis = _monomials_of_degree(pres, d)
        idx = {e: k for k, e in enumerate(basis)}
        rows = []
        for gi, dg in enumerate(pres.degrees):
            for mono in _monomials_of_degree(pres, d + 2 - dg):
                rows.append({idx[e]: c for e, c in _bracket_gen_mono(pres, gi, mono).items()})
        for p in (2, 3, 5):
            assert dims[p][d] == len(basis) - _rank_mod_p(rows, p), (p, d)


def test_engines_agree_affine_d4():
    q = catalog("affine_d", 4)
    repn, _ = lambda_graded(q, (), 6, engine="normal")
    reps, _ = lambda_graded(q, (), 6, engine="span")
    for d in range(7):
        a, b = repn.summaries[d], reps.summaries[d]
        assert (a.free_rank, a.invariant_factors) == (b.free_rank, b.invariant_factors)


def test_orientation_independence():
    """Reversing arrows changes nothing downstream: Hilbert dims and the
    Lambda tables agree for every orientation of ~D4 sampled here."""
    from preproj.quiver import Quiver

    base = catalog("affine_d", 4)
    flips = [(), (0,), (2,), (0, 3), (1, 2, 3)]
    reference = None
    for flip in flips:
        arrows = []
        for (a, s, t) in base.arrows:
            arrows.append((a, t, s) if a in flip else (a, s, t))
        q = Quiver(base.vertices, arrows)
        h = hilbert_prep(q, (), 8)
        rep, _ = lambda_graded(q, (), 8)
        key = ([h.coeffs[d] for d in range(9)],
               [(rep.summaries[d].free_rank, rep.summaries[d].invariant_factors)
                for d in range(9)])
        if reference is None:
            reference = key
        else:
            assert key == reference, flip


def test_no_prime_square_torsion_wild_sample():
    """A quiver that is neither Dynkin nor extended Dynkin: only square-free
    prime torsion shows up (a loop glued to a 3-cycle)."""
    from preproj.quiver import Quiver

    base = catalog("affine_a", 3)
    q = Quiver(base.vertices, list(base.arrows) + [(3, 0, 0)])
    rep, _ = lambda_graded(q, (), 6)
    for d, s in rep.summaries.items():
        for f in s.invariant_factors:
            for p in (2, 3, 5, 7):
                assert f % (p * p) != 0, (d, f)
    # this quiver contains ~A0, so the divided powers are live torsion
    assert rep.torsion_table().get(4) == (2,)
    assert rep.torsion_table().get(6) == (3,)


def test_auto_engine_falls_back(monkeypatch):
    """When completion meets a non-unit lead, the auto engine switches to the
    ideal-span route and still produces the right answer."""
    import preproj.homology as H
    from preproj.rewrite import NonUnitLead

    def boom(*a, **k):
        raise NonUnitLead(None)

    monkeypatch.setattr(H, "preprojective_system", boom)
    rep, comp = H.lambda_graded(catalog("free", 2), (), 4)
    assert rep.engine == "span"
    assert rep.torsion_table() == {4: (2,)}


def test_dynkin_d_tables_depend_on_rank():
    """Type D: a single Z/2 in each degree divisible by 4 up to 2(n-2)."""
    for n, want in [(4, {4: (2,)}), (5, {4: (2,)}), (6, {4: (2,), 8: (2,)})]:
        rep, _ = lambda_graded(catalog("dynkin_d", n), (), 12)
        assert rep.torsion_table() == want, n
        assert all(rep.summaries[d].free_rank == 0 for d in range(1, 13))


def test_wild_star_divided_power_torsion():
    rep, _ = lambda_graded(catalog("star", 2, 2, 1, 1), (), 8)
    assert rep.torsion_table() == {4: (2,), 6: (3,), 8: (2,)}
