import hashlib
import random
from fractions import Fraction

import pytest

from preproj import intlinalg
from preproj.acceptance import crit_poisson_presentations
from preproj.freealg import (CycElement, CyclicClass, PathContext, cyclic_project,
                             preprojective_relation, render_cyclic)
from preproj.homology import (GradedTorsionReport, LambdaComputation,
                              PoissonPresentation, _bracket_gen_mono, _row,
                              _monomials_of_degree, _poly_reduce, forest_arrow_order,
                              frobenius_cyc, ghost, hp0_poisson, lambda_graded,
                              poisson_presentation, preprojective_element,
                              preprojective_system, r_power_class, r_power_cyclic,
                              r_powers)
from preproj.intlinalg import LatticeSolver, smith_normal_form
from preproj.quiver import Quiver, QuiverError, catalog, classify, double
from preproj.rewrite import MonomialOrder, complete
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


def _all_commutator_rows(comp, d):
    """Every [m, a] of the normal engine, built and projected, zero rows
    dropped and duplicates kept once, in the order they are met."""
    ctx, sys_ = comp.ctx, comp.system
    idx = {k: i for i, k in enumerate(comp.ambient_keys(d))}
    rows = {}
    for (a, s, t) in ctx.quiver.arrows if d > 1 else ():    # else m is an idempotent
        ae = ctx.arrow(a)
        for mono in sys_.normal_monomials(t, s, d - 1):
            m = ctx.element({mono: 1})
            cyc = cyclic_project(sys_.reduce(m * ae) - sys_.reduce(ae * m))
            row = {idx[k]: c for k, c in cyc.terms.items()}
            if row:
                rows.setdefault(frozenset(row.items()), row)
    return list(rows.values())


@pytest.mark.parametrize("q, white, D", [
    (catalog("free", 2), (), 7),
    (catalog("affine_d", 4), (), 10),
    (Quiver(range(3), [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 1), (4, 1, 2)]), (0,), 7),
    (catalog("affine_a", 3), (0, 1, 2), 6),
], ids=["free2", "affine_d4", "partial", "all_white"])
def test_zero_commutator_filter_keeps_row_set(q, white, D):
    """relation_rows skips the pairs (m, a) whose commutator is zero before
    building it; the rows that remain, and their order, are those of the
    full build.  With every vertex white there are no rules and no rows."""
    order = forest_arrow_order(double(q), white) if white else None
    ctx = PathContext(q)
    comp = LambdaComputation(ctx, preprojective_system(q, white, D, ctx=ctx, arrow_order=order))
    assert bool(comp.system.rules) == (len(white) < len(q.vertices))
    for d in range(D + 1):
        assert comp.relation_rows(d) == _all_commutator_rows(comp, d), d
    assert any(comp.relation_rows(d) for d in range(D + 1)) == bool(comp.system.rules)


def _projected_span_rows(comp, d):
    """The span engine's rows as products g u projected by cyclic_project,
    zero rows dropped and duplicates kept once, in the order they are met."""
    ctx = comp.ctx
    idx = {k: i for i, k in enumerate(comp.ambient_keys(d))}
    rows = {}
    for g in comp.ideal_gens:
        (v,) = {m[0] for m in g.terms}
        (t,) = {ctx.mono_target(m) for m in g.terms}
        (deg,) = g.degrees()
        if deg > d:
            continue
        for u in ctx.walks(d - deg, t, v):
            x = g * ctx.path(u) if u else g
            row = {idx[k]: c for k, c in cyclic_project(x).terms.items()}
            if row:
                rows.setdefault(frozenset(row.items()), row)
    return list(rows.values())


@pytest.mark.parametrize("q, white, D", [
    (catalog("free", 2), (), 7),
    (catalog("star", 2, 2, 1, 1), (), 9),
    (Quiver(range(3), [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 1), (4, 1, 2)]), (0,), 7),
], ids=["free2", "star2211", "partial"])
def test_span_rows_match_projected_products(q, white, D):
    """The span engine builds its rows from words straight into coordinates:
    the same rows, in the same order and with their entries in the same
    order, as projecting each product g u."""
    ctx = PathContext(q)
    comp = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx, white),
                             engine="span")
    for d in range(D + 1):
        got = [list(r.items()) for r in comp.relation_rows(d)]
        assert got == [list(r.items()) for r in _projected_span_rows(comp, d)], d


def _per_key_coords(comp, cyc, d):
    """coords as first written: on the normal engine each key is reduced and
    projected on its own, the images are summed by class, and each class is
    looked up in an index of the ambient keys."""
    idx = {k: i for i, k in enumerate(comp.ambient_keys(d))}
    acc = {}
    for key, c in cyc.homogeneous_part(d).terms.items():
        if comp.engine == "normal" and key.word:
            red = cyclic_project(comp.system.reduce(comp.ctx.path(key.word)))
            for k2, c2 in red.terms.items():
                acc[k2] = acc.get(k2, 0) + c * c2
        else:
            acc[key] = acc.get(key, 0) + c
    return {idx[k]: c for k, c in acc.items() if c}


@pytest.mark.parametrize("engine", ["normal", "span"])
@pytest.mark.parametrize("name, args, D", [("free", (2,), 8), ("star", (2, 2, 1, 1), 12)])
def test_coords_match_per_key_reduction(name, args, D, engine):
    """coords reduces the whole homogeneous part once and reads its words
    through the map of least rotations; that gives the coordinates of
    reducing and projecting key by key.  A necklace the ambient lacks is an
    error."""
    q = catalog(name, *args)
    ctx = PathContext(q)
    if engine == "normal":
        comp = LambdaComputation(ctx, preprojective_system(q, (), D, ctx=ctx))
    else:
        comp = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx, ()),
                                 engine="span")
    idem = ctx.cyclic({CyclicClass(v, ()): 2 * v - 3 for v in q.vertices})
    rng = random.Random(5)
    cases = [(idem + r_power_cyclic(ctx, 2, 1), 0)]
    for p, ell in ((2, 1), (3, 1), (2, 2), (5, 1)):
        if 2 * p ** ell <= D:
            cases.append((idem + r_power_cyclic(ctx, p, ell), 2 * p ** ell))
    for d in range(2, D + 1):
        for k in rng.sample(comp.ambient_keys(d), min(4, len(comp.ambient_keys(d)))):
            s = rng.randrange(1, len(k.word))
            word = k.word[s:] + k.word[:s]     # least only when k is periodic
            cases.append((cyclic_project(ctx.path(word).scale(rng.choice((2, -3, 7)))), d))
    wants = [_per_key_coords(comp, cyc, d) for cyc, d in cases]
    assert [comp.coords(cyc, d) for cyc, d in cases] == wants
    assert sum(map(bool, wants)) > len(wants) // 2
    missing = [ctx.cyclic({CyclicClass(len(q.vertices), ()): 1})]     # no such vertex
    missing += [ctx.cyclic({CyclicClass(s, (a, a)): 1})               # not a walk
                for (a, s, t) in ctx.quiver.arrows[:1] if s != t]
    assert len(missing) == (2 if name == "star" else 1)
    for cyc in missing:
        with pytest.raises(QuiverError):
            comp.coords(cyc, cyc.degrees()[0])


def _normal_walks(sys_, d, start):
    """{end: walks} of the walks of length d from start that contain no
    leading word of sys_: ctx.walks(d, start) filtered by _find_reduction.
    Walks grow one arrow at a time and one is dropped, with its extensions,
    once _find_reduction finds a leading word in it, since its extensions
    contain that word too; the bare filter would list every walk first, some
    10^8 closed ones at degree 28 on E8."""
    ctx, q = sys_.ctx, sys_.ctx.quiver
    out, grown = {}, [((), start)]
    while grown:
        word, v = grown.pop()
        if len(word) == d:
            out.setdefault(v, []).append(word)
            continue
        for a in q.out_arrows(v):
            longer = word + (a,)
            if sys_._find_reduction(longer) is None:
                grown.append((longer, q.dst(a)))
    return out


def _reference_keys(comp, d):
    """The ambient keys as they were first enumerated: every closed walk
    (normal, for the normal engine) from every vertex, keyed by its least
    rotation, then sorted by (word, vertex)."""
    ctx = comp.ctx
    if d == 0:
        return [CyclicClass(v, ()) for v in ctx.quiver.vertices]
    found = {CyclicClass.of(ctx, (v, w)) for v in ctx.quiver.vertices
             for w in (ctx.walks(d, v, v) if comp.engine == "span"
                       else _normal_walks(comp.system, d, v).get(v, ()))}
    return sorted(found, key=lambda k: (k.word, k.vertex))


def _ambient_system(name, D):
    """(ctx, completed system) of a named test algebra; a name ending in
    _span stands for the same algebra."""
    q, white = {"free2": (catalog("free", 2), ()),
                "affine_d4": (catalog("affine_d", 4), ()),
                "partial": (Quiver(range(3), [(0, 0, 1), (1, 1, 2), (2, 2, 0),
                                              (3, 0, 1), (4, 1, 2)]), (0,)),
                "star2211": (catalog("star", 2, 2, 1, 1), ()),
                "e8": (catalog("dynkin_e", 8), ())}[name.removesuffix("_span")]
    order = forest_arrow_order(double(q), white) if white else None
    ctx = PathContext(q)
    return ctx, preprojective_system(q, white, D, ctx=ctx, arrow_order=order)


def _computation(name, D):
    ctx, sys_ = _ambient_system(name, D)
    if name.endswith("span"):
        return LambdaComputation(ctx, None, ideal_gens=[r.element for r in sys_.rules],
                                 engine="span")
    return LambdaComputation(ctx, sys_)


@pytest.mark.parametrize("name, D", [
    ("free2", 7), ("free2_span", 7), ("affine_d4", 10), ("partial", 7),
    ("star2211", 12), ("e8", 28)])
def test_ambient_keys_match_reference(name, D):
    """The necklace generator lists the keys of the walk enumeration, in
    the same order, for both engines."""
    comp = _computation(name, D)
    for d in range(D + 1):
        assert comp.ambient_keys(d) == _reference_keys(comp, d), d


@pytest.mark.parametrize("name, D, leads", [
    ("free2", 7, False), ("partial", 7, True), ("e8", 28, True)])
def test_range_search_matches_single_degrees(name, D, leads):
    """One search over lo..hi lists, degree by degree and in order, what the
    single-degree searches list: with the leads of a completion (a white
    vertex, E8) and without them (free 2); windows that
    start at 1 and above it."""
    ctx, sys_ = _ambient_system(name, D)
    aut = sys_._automaton() if leads else None
    windows = {(lo, hi): list(ctx.necklaces(lo, hi, aut))
               for lo, hi in ((1, D), (3, D - 2), (D // 2, D // 2 + 1))}
    for (lo, hi), got in windows.items():
        assert all(lo <= d <= hi for d, _ in got)
        for d in range(lo, hi + 1):
            assert [pair for pair in got if pair[0] == d] == list(ctx.necklaces(d, d, aut)), \
                (lo, hi, d)


@pytest.mark.parametrize("name", ["e8", "partial"])
def test_keys_asked_top_degree_first_match_reference(name):
    """A normal computation asked for its top degree first, then for the
    degrees below it, lists the keys of the walk enumeration."""
    D = 28 if name == "e8" else 7
    comp = _computation(name, D)
    for d in [D, *range(D)]:
        assert comp.ambient_keys(d) == _reference_keys(comp, d), d


@pytest.mark.parametrize("engine, searches", [("normal", [(1, 8)]),
                                              ("span", [(d, d) for d in range(1, 9)])])
def test_one_necklace_search_per_normal_computation(monkeypatch, engine, searches):
    """The normal engine lists every certified degree in one search; the
    span engine, which has no degree bound, searches once per degree."""
    calls = []
    necklaces = PathContext.necklaces

    def counting(self, lo, hi, leads=None):
        calls.append((lo, hi))
        return necklaces(self, lo, hi, leads)

    monkeypatch.setattr(PathContext, "necklaces", counting)
    lambda_graded(catalog("free", 2), (), 8, engine=engine)
    assert calls == searches


@pytest.mark.parametrize("engine", ["normal", "span"])
def test_negative_degree_is_the_zero_module(engine):
    """Both engines give a negative degree no keys, no relations and the
    zero module, before and after the degrees the normal engine lists."""
    _, comp = lambda_graded(catalog("affine_a", 3), (), 4, engine=engine)
    for d in (-1, -2):
        assert comp.ambient_keys(d) == [] and comp.relation_rows(d) == []
        assert str(comp.summary(d)) == "0"
    name = "free2" if engine == "normal" else "free2_span"
    fresh = _computation(name, 4)
    assert fresh.ambient_keys(-1) == []
    assert fresh.ambient_keys(4) == _computation(name, 4).ambient_keys(4)


# an arrow order of star 2 2 1 1 under which its completion is finite
TREE_ORDER = [8, 4, 7, 10, 1, 5, 9, 2, 6, 11, 3, 0]


def _table_system(name, D):
    if name == "zero_ideal":
        return complete([], MonomialOrder(PathContext(catalog("affine_a", 3))), D)
    if name == "tree_found":
        return preprojective_system(catalog("star", 2, 2, 1, 1), (), D, arrow_order=TREE_ORDER)
    q, white = {"e8": (catalog("dynkin_e", 8), ()),
                "affine_e8": (catalog("affine_e", 8), ()),
                "affine_d4": (catalog("affine_d", 4), ()),
                "free2": (catalog("free", 2), ()),
                "tree_default": (catalog("star", 2, 2, 1, 1), ()),
                "partial": (Quiver(range(4), [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 3)]),
                            (1, 3))}[name]
    order = forest_arrow_order(double(q), white) if white else None
    return preprojective_system(q, white, D, arrow_order=order)


@pytest.mark.parametrize("name, D", [
    ("e8", 28), ("affine_e8", 28), ("affine_d4", 16), ("partial", 8),
    ("zero_ideal", 8)])
def test_normal_path_table_matches_walk_filter(name, D):
    """normal_monomials(i, j, d) is the walks i -> j of length d with no
    leading word, sorted by the monomial order, whatever order the degrees
    are asked in, also once relation_rows at the bound has released the
    tables; up to degree 8 the reference is checked against ctx.walks itself."""
    sys_ = _table_system(name, D)
    ctx = sys_.ctx
    verts = list(ctx.quiver.vertices)
    ref = {}
    for i in verts:
        for d in range(D + 1):
            found = _normal_walks(sys_, d, i)
            ref[i, d] = {j: [(i, w) for w in sorted(found.get(j, ()),
                                                    key=lambda w: sys_.order.key((i, w)))]
                         for j in verts}
            if d <= 8:
                for j in verts:
                    assert sorted(found.get(j, ())) == sorted(
                        w for w in ctx.walks(d, i, j) if sys_._find_reduction(w) is None)

    def check(degrees):
        for d in degrees:
            for i in verts:
                for j in verts:
                    assert sys_.normal_monomials(i, j, d) == ref[i, d][j], (i, j, d)

    check(range(D + 1))
    check(range(D, -1, -1))
    check(d for d in range(D + 1) for _ in range(2))
    LambdaComputation(ctx, sys_).relation_rows(D)
    assert sys_._paths == {}
    check([D, 0, D // 2, D, 1])
    for i in verts:
        assert sys_.normal_monomials(i, i, -1) == []
        assert all(sys_.normal_monomials(i, j, 0) == [] for j in verts if j != i)


def _whole_word_rows(comp, d):
    """The normal engine's rows as reduce(m a) - reduce(a m) through _row,
    each side reduced as a whole word, zero rows dropped and a repeated row
    kept where it was first met, as relation_rows keeps it."""
    ctx, sys_ = comp.ctx, comp.system
    col = {k.word or k.vertex: i for i, k in enumerate(comp.ambient_keys(d))}
    rows = {}
    for (a, s, t) in ctx.quiver.arrows if d > 1 else ():    # else m is an idempotent
        for _, w in sys_.normal_monomials(t, s, d - 1):
            x = (sys_.reduce(ctx.element({(t, w + (a,)): 1}))
                 - sys_.reduce(ctx.element({(s, (a,) + w): 1})))
            row = _row(col, x.terms.items())
            if row:
                rows[frozenset(row.items())] = row
    return [list(r.items()) for r in rows.values()]


@pytest.mark.parametrize("name, D", [
    ("free2", 8), ("partial", 8), ("affine_e8", 28),
    ("tree_found", 14), ("tree_default", 12)])
def test_commutator_rows_match_whole_word_reduction(name, D):
    """Rows read off window reductions are those of reducing each side of
    [m, a] as a whole word, item order included.  free 2 and the tree under
    TREE_ORDER have guards that trip and windows that widen; on ~E8 and the
    tree under the default order no window is shorter than the word."""
    sys_ = _table_system(name, D)
    comp = LambdaComputation(sys_.ctx, sys_)
    for d in range(D + 1):
        assert [list(r.items()) for r in comp.relation_rows(d)] == _whole_word_rows(comp, d), d


# sha256 of repr([list(r.items()) for r in relation_rows(d)]) over d = 0..D
# in turn, computed when both sides of [m, a] were reduced as whole words.
# Item order follows the rules' install order (see PINNED_RULE_DIGESTS);
# PINNED_ROW_SET_DIGESTS below pins the rows as sets
PINNED_ROW_DIGESTS = {
    ("free2", 8): "002f8d2ba9bf5afef4ae512ea567d578089f1a89e23ccd5a7a4237dd25e13a3c",
    ("tree_found", 14): "949048184baa999030360a32bf86c8f45f925fea0c22d8a97bf5df446fbf0f39",
    ("e8", 28): "bfe3ad4c607f892e1fa99bc342e621c0379892d4920edcc87d471e77b2cd8c1a",
    ("affine_e8", 28): "68ee74937a7f0432f0673cd04cf9b483e0a36b6b4c0d8ebe836f2cc69ecd99ee",
}


@pytest.mark.parametrize("name, D", list(PINNED_ROW_DIGESTS))
def test_relation_rows_are_pinned(name, D):
    sys_ = _table_system(name, D)
    comp = LambdaComputation(sys_.ctx, sys_)
    h = hashlib.sha256()
    for d in range(D + 1):
        h.update(repr([list(r.items()) for r in comp.relation_rows(d)]).encode())
    assert h.hexdigest() == PINNED_ROW_DIGESTS[name, D]


# sha256 of repr(sorted(sorted(r.items()) for r in relation_rows(d))) over
# d = 0..D in turn: the rows as sets, in any row and item order, as computed
# from the completion that reduced every live S-pair
PINNED_ROW_SET_DIGESTS = {
    ("free2", 8): "f0e4bccf8a34eb6b9e2da9158ce836c096b0968e0213ab2b5271bbf2a51e8651",
    ("tree_found", 14): "e97905229ac9f2c0472629558aab40f0edf8d69f5d493d974e343f0ad66cd168",
    ("e8", 28): "0a4b921f37eaa21b31ba4d271977b46c6b9e30818594ad87f0914d571a305c77",
    ("affine_e8", 28): "d50a44ddefbf5cc886023cf0feb4da8f753e1d23fb1cc34d2494f8221edeaabd",
}


@pytest.mark.parametrize("name, D", list(PINNED_ROW_SET_DIGESTS))
def test_relation_row_sets_are_pinned(name, D):
    sys_ = _table_system(name, D)
    comp = LambdaComputation(sys_.ctx, sys_)
    h = hashlib.sha256()
    for d in range(D + 1):
        h.update(repr(sorted(sorted(r.items()) for r in comp.relation_rows(d))).encode())
    assert h.hexdigest() == PINNED_ROW_SET_DIGESTS[name, D]


PINNED_COUNT_DIGESTS = {
    ("e8", 28): "b7bae53325db7e962221f7e97159e1eabc04863ace7f8736c7eb67bed18eeec7",
    ("affine_e8", 28): "848b569f9d30b275a78b4f323f16f68d5ec8fc81b65bdfce7628c77a47c86f9a",
    ("free2", 10): "e77e3f4503a57c1d49ab992cfe7c1ea82dbfe24cacb94077f3158db09bfde957",
    ("tree_default", 16): "e6e60da88ce8eeea80ff6d30af8b66b5c13fa47382706ff211ff818344888ebf",
}


@pytest.mark.parametrize("name, D", list(PINNED_COUNT_DIGESTS))
def test_normal_count_matrix_is_pinned(name, D):
    """sha256 of repr(normal_count_matrix(D)), as counted by a walk of its own
    before the count shared the layered step of normal_monomials."""
    counts = _table_system(name, D).normal_count_matrix(D)
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == PINNED_COUNT_DIGESTS[name, D]


def _pivot_order_answers():
    """(answers, journals): the torsion tables, free ranks and r^(p^l) orders
    of free 2 to degree 7 and E8 to degree 18 plus the corner Poisson check,
    and the SNF journals of the two tables."""
    answers, journals = [], []
    for name, args, D in (("free", (2,), 7), ("dynkin_e", (8,), 18)):
        rep, comp = lambda_graded(catalog(name, *args), (), D)
        answers.append(rep.summaries)
        answers.append({d: comp.order_of(r_power_class(comp, p, ell))
                        for d, (p, ell) in r_powers(D).items()})
        journals.append([comp.solver(d).res.col_ops for d in range(D + 1)])
    answers.append(crit_poisson_presentations())
    return answers, journals


def test_answers_do_not_depend_on_the_pivot_order(monkeypatch):
    """An SNF fed its rows in reverse order, each with its items reversed,
    takes other pivots and writes other journals; every answer stays."""
    want, journals = _pivot_order_answers()
    snf = intlinalg.smith_normal_form
    monkeypatch.setattr(intlinalg, "smith_normal_form", lambda rows, ncols: snf(
        [dict(reversed(r.items())) for r in reversed(rows)], ncols))
    got, swapped = _pivot_order_answers()
    assert got == want
    assert swapped != journals


def test_normal_words_stop_at_the_certified_degree():
    """~E6 completed to 6 certifies nothing above 6: counting or listing its
    normal words there raises, and the counts through 6 are those of a
    completion to 14."""
    q = catalog("affine_e", 6)
    sys_ = preprojective_system(q, (), 6)
    assert sys_.normal_count_matrix(6) == preprojective_system(q, (), 14).normal_count_matrix(14)[:7]
    for d in (7, 14):
        with pytest.raises(QuiverError, match=f"degree {d} beyond certified bound 6"):
            sys_.normal_count_matrix(d)
        with pytest.raises(QuiverError, match=f"degree {d} beyond certified bound 6"):
            sys_.normal_monomials(0, 0, d)


def test_engine_follows_from_the_inputs():
    """A rewrite system makes a normal computation and None a span one;
    engine= may only name that one, and lambda_graded knows no other."""
    q = catalog("free", 2)
    ctx = PathContext(q)
    sys_ = preprojective_system(q, (), 4, ctx=ctx)
    gens = preprojective_relation(ctx)
    for engine in (None, "normal"):
        assert LambdaComputation(ctx, sys_, engine=engine).engine == "normal"
    for engine in (None, "span"):
        assert LambdaComputation(ctx, None, ideal_gens=gens, engine=engine).engine == "span"
    with pytest.raises(ValueError, match="engine 'span' given a normal"):
        LambdaComputation(ctx, sys_, engine="span")
    with pytest.raises(ValueError, match="engine 'normal' given a span"):
        LambdaComputation(ctx, None, ideal_gens=gens, engine="normal")
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        lambda_graded(q, (), 4, engine="bogus")


def test_keys_and_rows_stop_at_the_certified_degree():
    q = catalog("free", 2)
    ctx = PathContext(q)
    comp = LambdaComputation(ctx, preprojective_system(q, (), 4, ctx=ctx))
    assert len(comp.relation_rows(4)) > 0
    for d in (5, 6):
        with pytest.raises(QuiverError, match=f"degree {d} beyond certified bound 4"):
            comp.ambient_keys(d)
        with pytest.raises(QuiverError, match="beyond certified bound"):
            comp.relation_rows(d)


def test_free_rank_matches_corner_series():
    for nm, args, D in [("affine_a", (3,), 10), ("affine_d", (4,), 8),
                        ("affine_e", (6,), 10)]:
        q = catalog(nm, *args)
        rep, _ = lambda_graded(q, (), D)
        i0 = classify(q).extending_vertex
        k = {v: i for i, v in enumerate(q.vertices)}[i0]
        corner = hilbert_prep(q, (), D).entry(k, k).scalar_coeffs()
        for d in range(1, D + 1):
            assert rep.summaries[d].free_rank == corner[d], (nm, d)


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


@pytest.mark.parametrize("engine", ["normal", "span"])
def test_fp_lattice_against_mod_p_rank(engine):
    """The SNF of relations plus p Z^n has one factor p per dimension of
    Lambda_7 tensor F_p, against the independent mod-p elimination.  At
    p = 5 the rows 5 e_j reduce entries into -2..2, not to units, and on the
    normal engine's rows phase 2 still takes pivots."""
    q = catalog("free", 2)
    ctx = PathContext(q)
    if engine == "normal":
        comp = LambdaComputation(ctx, preprojective_system(q, (), 7, ctx=ctx))
    else:
        comp = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx, ()),
                                 engine="span")
    rows = comp.relation_rows(7)
    n = len(comp.ambient_keys(7))
    for p in (2, 3, 5):
        res = smith_normal_form(rows + [{j: p} for j in range(n)], n)
        assert res.invariant_factors.count(p) == n - _rank_mod_p(rows, p), (engine, p)


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


def _frobenius_by_power(c, p):
    """[a] -> [a^p] mod p the long way: lift each necklace along its least
    rotation, raise the sum to the p-th power in the path algebra, project
    and reduce mod p."""
    ctx = c.ctx
    lift_terms = {}
    for key, coeff in c.terms.items():
        mono = (key.vertex, ()) if not key.word else (ctx.quiver.src(key.word[0]), key.word)
        lift_terms[mono] = lift_terms.get(mono, 0) + coeff
    powered = cyclic_project(ctx.element(lift_terms) ** p)
    return CycElement(ctx, {k: v % p for k, v in powered.terms.items() if v % p})


@pytest.mark.parametrize("name, args", [("free", (2,)), ("star", (2, 2, 1, 1)),
                                        ("affine_a", (3,))])
def test_frobenius_is_word_repetition(name, args):
    """frobenius_cyc repeats each word p times; raising the lifted sum to
    the p-th power gives the same classes mod p, on r^(p)/p and on seeded
    random cyclic elements."""
    ctx = PathContext(catalog(name, *args))
    for p in (2, 3):
        c = r_power_cyclic(ctx, p, 1)
        assert frobenius_cyc(c, p) == _frobenius_by_power(c, p), p
    rng = random.Random(11)
    closed = [k for _, k in sorted(ctx.necklaces(1, 3), key=lambda dk: dk[0])]
    closed += [CyclicClass(v, ()) for v in ctx.quiver.vertices]
    for _ in range(30):
        c = ctx.cyclic({k: rng.randint(-4, 4) for k in rng.sample(closed, 3)})
        for p in (2, 3, 5):
            assert frobenius_cyc(c, p) == _frobenius_by_power(c, p), (c, p)


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


def test_r_powers_match_brute_force():
    """{2 p^l: (p, l)} through D for every D <= 200, against the even degrees
    whose half is a prime power."""
    def prime_power(n):
        p = next(k for k in range(2, n + 1) if n % k == 0)
        ell = 0
        while n % p == 0:
            n, ell = n // p, ell + 1
        return (p, ell) if n == 1 else None

    for D in range(201):
        want = {d: prime_power(d // 2) for d in range(4, D + 1, 2) if prime_power(d // 2)}
        assert r_powers(D) == want, D


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
    assert LatticeSolver(n, rows).order_of(vec) == 1


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


def _rank_over_q(rows):
    reduced = {}
    for row in rows:
        r = {j: Fraction(v) for j, v in row.items() if v}
        while r:
            j = min(r)
            if j not in reduced:
                reduced[j] = r
                break
            lead = reduced[j]
            f = r[j] / lead[j]
            r = {k: r.get(k, 0) - f * lead.get(k, 0) for k in set(r) | set(lead)}
            r = {k: v for k, v in r.items() if v}
    return len(reduced)


def _milnor_dims(relation, degrees, D):
    """Hilbert function of the Milnor algebra Q[X,Y,Z]/(F_X, F_Y, F_Z) of
    F = relation, degree by degree through D: the monomials of degree d less
    the rank of the products m F_k of degree d."""
    def monomials(d):
        expos = [((), d)]
        for w in degrees:
            expos = [(e + (k,), rem - k * w) for e, rem in expos for k in range(rem // w + 1)]
        return [e for e, rem in expos if rem == 0]

    deg_f = sum(a * w for a, w in zip(next(iter(relation)), degrees))
    partials = [{e[:k] + (e[k] - 1,) + e[k + 1:]: e[k] * c for e, c in relation.items() if e[k]}
                for k in range(len(degrees))]
    dims = {}
    for d in range(D + 1):
        basis = monomials(d)
        idx = {e: i for i, e in enumerate(basis)}
        rows = [{idx[tuple(a + b for a, b in zip(m, e))]: c for e, c in fk.items()}
                for fk, w in zip(partials, degrees) if d >= deg_f - w
                for m in monomials(d - (deg_f - w))]
        dims[d] = len(basis) - _rank_over_q(rows)
    return dims


@pytest.mark.parametrize("kind,n,milnor", [("A", n, n - 1) for n in range(1, 7)]
                         + [("D", n, n) for n in range(4, 10)]
                         + [("E6", 0, 6), ("E7", 0, 7), ("E8", 0, 8)])
def test_hp0_is_the_milnor_algebra(kind, n, milnor):
    """Over Q, HP_0 of Q[X,Y,Z]/(F) with the Jacobian bracket is the Milnor
    algebra Q[X,Y,Z]/(F_X, F_Y, F_Z) degree by degree (Alev-Lambre), whose
    total is the Milnor number.  The Milnor algebra is computed from the
    relation alone, past its socle degree sum(|F| - 2|x_k|)."""
    pres = poisson_presentation(kind, n)
    deg_f = pres.degree(next(iter(pres.relation)))
    D = sum(deg_f - 2 * w for w in pres.degrees) + max(pres.degrees)
    want = _milnor_dims(pres.relation, pres.degrees, D)
    assert hp0_poisson(pres, 0, D) == want
    assert sum(want.values()) == milnor
    if kind == "E6":
        assert {d for d, v in want.items() if v} == {0, 6, 8, 12, 14, 20}


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


def _bracket_gen_poly(pres, gi, poly):
    """{gen_i, poly} mod the relation, through hp0's own Leibniz rule."""
    out = {}
    for e, c in poly.items():
        for f, b in _bracket_gen_mono(pres, gi, e).items():
            out[f] = out.get(f, 0) + c * b
    return _poly_reduce(pres, out)


@pytest.mark.parametrize("kind,n", [("A", n) for n in range(1, 7)]
                         + [("D", n) for n in range(4, 10)]
                         + [("E6", 0), ("E7", 0), ("E8", 0)])
def test_presentation_is_poisson_mod_relation(kind, n):
    """Each bracket table is a Poisson bracket on Z[X,Y,Z]/(F): {gen_i, F} and
    {X,{Y,Z}} + {Y,{Z,X}} + {Z,{X,Y}} reduce to 0 mod F."""
    pres = poisson_presentation(kind, n)
    for gi in range(3):
        assert _bracket_gen_poly(pres, gi, pres.relation) == {}, gi
    zx = {e: -c for e, c in pres.brackets[0, 2].items()}
    jacobi = {}
    for gi, br in [(0, pres.brackets[1, 2]), (1, zx), (2, pres.brackets[0, 1])]:
        for e, c in _bracket_gen_poly(pres, gi, br).items():
            jacobi[e] = jacobi.get(e, 0) + c
    assert _poly_reduce(pres, jacobi) == {}


@pytest.mark.parametrize("kind,n,p,D,want", [
    ("D", 4, 3, 16, {0: 1, 4: 2, 8: 1, 16: 2}),
    ("E6", 0, 3, 18, {0: 1, 6: 1, 8: 1, 12: 1, 14: 1, 16: 1}),
    ("E7", 0, 2, 36, {0: 1, 8: 1, 12: 1, 16: 1, 18: 1, 20: 1, 24: 1, 26: 1, 30: 1,
                      32: 1, 34: 1}),
])
def test_hp0_pinned_dimensions(kind, n, p, D, want):
    """The nonzero dimensions of HP_0 over F_p through degree D."""
    dims = hp0_poisson(poisson_presentation(kind, n), p, D)
    assert {d: v for d, v in dims.items() if v} == want


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
        key = (h.coeffs,
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
