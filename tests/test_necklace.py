import random

import pytest

from preproj.freealg import (CycElement, CyclicClass, Element, PathContext,
                             cyclic_project, render_cyclic, render_element)
from preproj.homology import lambda_graded, preprojective_element
from preproj.necklace import (CornerPoisson, WedgePair, bracket,
                              bracket_of_wedge, bv_defect, cobracket,
                              delta_ell, delta_ell_sum, double_bracket,
                              loday_bracket)
from preproj.quiver import QuiverError, catalog


@pytest.fixture
def pair():
    ctx = PathContext(catalog("free", 1))
    return ctx, ctx.arrow(0), ctx.arrow(1)


def test_bracket_examples(pair):
    ctx, x, y = pair
    cx, cy = cyclic_project(x), cyclic_project(y)
    e_class = ctx.cyclic({CyclicClass(0, ()): 1})
    assert bracket(cx, cy) == e_class
    assert bracket(cyclic_project(x * y), cx) == cyclic_project(x).scale(-1)
    assert bracket(cx, cx).is_zero()


def test_cobracket_examples(pair):
    ctx, x, y = pair
    assert cobracket(cyclic_project(x * y)).is_zero()
    assert cobracket(cyclic_project(x)).is_zero()
    # the two pairings in [x^2 y] cancel
    assert cobracket(cyclic_project(x * x * y)).is_zero()
    # a genuinely nonzero value needs a second loop pair
    ctx2 = PathContext(catalog("free", 2))
    x1, x2 = ctx2.arrow(0), ctx2.arrow(1)
    y1, y2 = ctx2.arrow(ctx2.quiver.star[0]), ctx2.arrow(ctx2.quiver.star[1])
    w = cobracket(cyclic_project(x1 * y1 * x2))
    (k1, k2), c = next(iter(w.terms.items()))
    assert abs(c) == 1
    assert {k1.word, k2.word} == {(), (1,)}  # [e] wedge [x2]


def test_wedge_normalization(pair):
    ctx, x, y = pair
    k1 = CyclicClass.of(ctx, (0, (0,)))
    k2 = CyclicClass.of(ctx, (0, (1,)))
    w = WedgePair(ctx)
    w.add(k1, k2, 1)
    w.add(k2, k1, 1)
    assert w.is_zero()
    w.add(k1, k1, 5)
    assert w.is_zero()


def test_loday_examples(pair):
    ctx, x, y = pair
    cx = cyclic_project(x)
    assert loday_bracket(cx, y) == ctx.idempotent(0)
    assert loday_bracket(cx, y * y) == y.scale(2)
    assert loday_bracket(cx, x).is_zero()


def test_delta_ell_examples(pair):
    ctx, x, y = pair
    # single pairing: with the BV-compatible sign, [e] tensor e
    d = delta_ell_sum(x * y)
    assert d == {(CyclicClass(0, ()), (0, ())): 1}
    assert delta_ell_sum(x) == {}
    r = preprojective_element(ctx)
    dr = delta_ell_sum(r)
    # every term of delta_ell(r) has a degree-zero cyclic leg
    assert all(k.word == () for (k, _) in dr)


def test_double_bracket_examples(pair):
    ctx, x, y = pair
    db = double_bracket(x, y)
    assert db == {((0, ()), (0, ())): 1}
    assert double_bracket(x, x) == {}


def test_double_bracket_reproduces_bracket():
    rng = random.Random(19)
    ctx = PathContext(catalog("free", 2))
    arrows = [a for (a, _, _) in ctx.quiver.arrows]
    for _ in range(200):
        u = ctx.path(tuple(rng.choice(arrows) for _ in range(rng.randint(1, 4))))
        v = ctx.path(tuple(rng.choice(arrows) for _ in range(rng.randint(1, 4))))
        acc = ctx.zero()
        for (left, right), c in double_bracket(u, v).items():
            acc = acc + (Element(ctx, {left: c}) * Element(ctx, {right: 1}))
        assert cyclic_project(acc) == bracket(cyclic_project(u), cyclic_project(v))


def test_bv_identity_random():
    rng = random.Random(29)
    for nm, args in [("free", (1,)), ("free", (2,)), ("affine_a", (3,))]:
        ctx = PathContext(catalog(nm, *args))
        arrows = [a for (a, _, _) in ctx.quiver.arrows]
        checked = 0
        for _ in range(150):
            wa = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 3)))
            wb = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 2)))
            try:
                a, b = ctx.path(wa), ctx.path(wb)
            except Exception:
                continue
            checked += 1
            assert not bv_defect(a, b), (nm, wa, wb)
        assert checked > 20


def test_involutivity_degree6():
    for g in (1, 2):
        ctx = PathContext(catalog("free", g))
        arrows = [a for (a, _, _) in ctx.quiver.arrows]
        import itertools

        for d in range(1, 7):
            seen = set()
            for w in itertools.product(arrows, repeat=d):
                from preproj.freealg import canonical_rotation

                cw = canonical_rotation(w)
                if cw in seen:
                    continue
                seen.add(cw)
                u = ctx.cyclic({CyclicClass(0, cw): 1})
                assert bracket_of_wedge(cobracket(u)).is_zero()


def test_co_jacobi_degree4(pair):
    """(delta tensor 1 - ...)(delta) alternating sum vanishes on [xyxy]."""
    ctx, x, y = pair

    def delta_terms(cyc):
        return [(c, k1, k2) for (k1, k2), c in cobracket(cyc).terms.items()]

    def as_cyc(k):
        return CycElement(ctx, {k: 1})

    for word_el in [x * y * x * y, x * x * y * y, x * y * y * x]:
        u = cyclic_project(word_el)
        if u.is_zero():
            continue
        acc = {}
        for c, k1, k2 in delta_terms(u):
            # antisymmetrized (delta x 1) delta, summed over cyclic rotations
            for c2, k3, k4 in delta_terms(as_cyc(k1)):
                for trip, sign in _alternations(k3, k4, k2):
                    acc[trip] = acc.get(trip, 0) + sign * c * c2
            for c2, k3, k4 in delta_terms(as_cyc(k2)):
                for trip, sign in _alternations(k1, k3, k4):
                    acc[trip] = acc.get(trip, 0) + sign * c * c2
        assert not any(acc.values()), word_el


def _alternations(a, b, c):
    import itertools

    items = [a, b, c]
    ranked = sorted(range(3), key=lambda i: (len(items[i].word), items[i].word,
                                             items[i].vertex))
    canon = tuple(items[i] for i in ranked)
    # the sign of the permutation sorting the triple
    perm = ranked
    inv = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    # equal entries make the wedge vanish
    keyed = [(len(k.word), k.word, k.vertex) for k in items]
    if len(set(keyed)) < 3:
        return []
    return [(canon, -1 if inv % 2 else 1)]


def test_corner_poisson_requires_extended_dynkin():
    rep, comp = lambda_graded(catalog("free", 2), (), 4)
    with pytest.raises(QuiverError):
        CornerPoisson(comp)


def test_corner_poisson_a2_brackets():
    q = catalog("affine_a", 3)
    rep, comp = lambda_graded(q, (), 8)
    cp = CornerPoisson(comp)
    ctx = comp.ctx
    orig = [a for (a, _, _) in ctx.quiver.arrows if a < ctx.quiver.star[a]]
    x = sum((ctx.arrow(a) for a in orig[1:]), ctx.arrow(orig[0]))
    y = sum((ctx.arrow(ctx.quiver.star[a]) for a in orig[1:]),
            ctx.arrow(ctx.quiver.star[orig[0]]))
    e0 = ctx.idempotent(cp.i0)
    X = cp.reduce_corner(e0 * x ** 3)
    Z = cp.reduce_corner(e0 * x * y)
    assert cp.poisson(X, Z) == X
    assert cp.poisson(X, X).is_zero()


def test_corner_poisson_of_idempotents_is_zero():
    """{e_i0, e_i0} lies in degree -2, where Lambda is zero."""
    _, comp = lambda_graded(catalog("affine_a", 3), (), 4)
    cp = CornerPoisson(comp)
    e0 = comp.ctx.idempotent(cp.i0)
    assert cp.poisson(e0, e0).is_zero()


def test_bracket_degree(pair):
    ctx, x, y = pair
    u = cyclic_project(x * y * x * y)
    v = cyclic_project(x * y)
    br = bracket(u, v)
    assert br.degrees() in ([], [4])  # |u| + |v| - 2


@pytest.mark.parametrize("op", ["bracket", "cobracket", "loday_bracket",
                                "double_bracket", "delta_ell"])
def test_omega_requires_double(op):
    from preproj.freealg import free_context

    ctx = free_context(["x", "y"])
    u = ctx.cyclic({CyclicClass(0, (0, 1)): 1})
    p = ctx.path((0, 1))
    call = {"bracket": lambda: bracket(u, u), "cobracket": lambda: cobracket(u),
            "loday_bracket": lambda: loday_bracket(u, p),
            "double_bracket": lambda: double_bracket(p, p),
            "delta_ell": lambda: delta_ell(p)}[op]
    with pytest.raises(QuiverError):
        call()


def test_undoubled_context_without_pairs_gives_zero():
    """Without two letters to pair, an undoubled context gives zero, as it
    always has: the pairing is asked for only when a pair exists."""
    from preproj.freealg import free_context

    ctx = free_context(["x", "y"])
    e, x = ctx.cyclic({CyclicClass(0, ()): 1}), ctx.cyclic({CyclicClass(0, (0,)): 1})
    assert bracket(e, x).is_zero() and cobracket(x).is_zero()
    assert delta_ell(ctx.path((0,))) == [] and double_bracket(ctx.identity(), ctx.path((0,))) == {}


# Reference: every (i, j) letter pair goes through omega, one operation at a
# time, each with its own accumulator.

def omega(ctx, a, b):
    """Symplectic pairing on arrows: +1 on (a, a*) for original a."""
    q = ctx.quiver
    if not q.starred:
        raise QuiverError("the pairing lives on a doubled quiver")
    if q.star.get(a) != b:
        return 0
    return 1 if a < b else -1


def _ref_acc(out, key, c):
    out[key] = out.get(key, 0) + c
    if not out[key]:
        del out[key]


def _ref_bracket(u, v):
    ctx, out = u.ctx, {}
    for ku, cu in u.terms.items():
        wu = ku.word
        for kv, cv in v.terms.items():
            wv = kv.word
            for i, ai in enumerate(wu):
                for j, bj in enumerate(wv):
                    om = omega(ctx, ai, bj)
                    if om:
                        joined = wu[i + 1:] + wu[:i] + wv[j + 1:] + wv[:j]
                        key = CyclicClass.of(ctx, (ctx.quiver.dst(ai), joined))
                        _ref_acc(out, key, om * cu * cv)
    return out


def _ref_cobracket(u):
    """{(k1, k2): c} with k1 < k2 by (degree, word, vertex), as WedgePair
    stores its terms."""
    ctx, out = u.ctx, {}
    for key, c in u.terms.items():
        word = key.word
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                om = omega(ctx, word[i], word[j])
                if om:
                    k1 = CyclicClass.of(ctx, (ctx.quiver.dst(word[j]),
                                              word[j + 1:] + word[:i]))
                    k2 = CyclicClass.of(ctx, (ctx.quiver.dst(word[i]), word[i + 1:j]))
                    r1, r2 = ((len(k.word), k.word, k.vertex) for k in (k1, k2))
                    if r1 != r2:
                        _ref_acc(out, (k1, k2) if r1 < r2 else (k2, k1),
                                 om * c if r1 < r2 else -om * c)
    return out


def _ref_loday(u, p):
    ctx, out = u.ctx, {}
    for ku, cu in u.terms.items():
        wu = ku.word
        for (v, wp), cp in p.terms.items():
            for j, bj in enumerate(wp):
                for i, ai in enumerate(wu):
                    om = omega(ctx, ai, bj)
                    if om:
                        word = wp[:j] + wu[i + 1:] + wu[:i] + wp[j + 1:]
                        el = ctx.path(word) if word else ctx.idempotent(ctx.quiver.dst(ai))
                        for mono, c in el.terms.items():
                            _ref_acc(out, mono, om * cu * cp * c)
    return out


def _ref_double_bracket(p, q):
    ctx, out = p.ctx, {}
    for (vp, wp), cp in p.terms.items():
        for (vq, wq), cq in q.terms.items():
            for i, ai in enumerate(wp):
                for j, bj in enumerate(wq):
                    om = omega(ctx, ai, bj)
                    if om:
                        left_w, right_w = wq[:j] + wp[i + 1:], wp[:i] + wq[j + 1:]
                        left = (vq, left_w) if left_w else (ctx.quiver.dst(ai), ())
                        right = (vp, right_w) if right_w else (ctx.quiver.src(ai), ())
                        _ref_acc(out, (left, right), om * cp * cq)
    return out


def _ref_delta_ell_sum(p):
    ctx, out = p.ctx, {}
    for (v, word), c in p.terms.items():
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                om = omega(ctx, word[i], word[j])
                if om:
                    kcyc = CyclicClass.of(ctx, (ctx.quiver.dst(word[i]), word[i + 1:j]))
                    outer = word[:i] + word[j + 1:]
                    el = ctx.path(outer) if outer else ctx.idempotent(ctx.quiver.src(word[i]))
                    for mono, cm in el.terms.items():
                        _ref_acc(out, (kcyc, mono), om * c * cm)
    return out


@pytest.mark.parametrize("name,args", [("free", (1,)), ("free", (2,)),
                                       ("affine_a", (3,)), ("affine_d", (4,))],
                         ids=["free1", "free2", "affine_a3", "affine_d4"])
def test_operations_match_all_pairs_reference(name, args):
    """Multi-term elements with coefficients other than +-1, degree-0 classes
    and idempotents among the terms, words of length <= 6."""
    rng = random.Random(f"{name} {args}")
    ctx = PathContext(catalog(name, *args))
    verts = list(ctx.quiver.vertices)
    monos = [(v, ()) for v in verts] + [(ctx.quiver.src(w[0]), w)
                                        for d in range(1, 7) for w in ctx.walks(d)]
    # the pool the samples below are drawn from, in an order of its own
    classes = sorted([CyclicClass(v, ()) for v in verts] + [k for _, k in ctx.necklaces(1, 6)],
                     key=lambda k: (len(k.word), k.word, k.vertex))
    coeffs = [1, -1, 2, -3, 5, 7]

    def sample(pool, make):
        return make({rng.choice(pool): rng.choice(coeffs) for _ in range(rng.randint(1, 4))})

    nonzero = [0] * 5
    for _ in range(60):
        u, v = sample(classes, ctx.cyclic), sample(classes, ctx.cyclic)
        p, q = sample(monos, ctx.element), sample(monos, ctx.element)
        pairs = [(bracket(u, v).terms, _ref_bracket(u, v)),
                 (cobracket(u).terms, _ref_cobracket(u)),
                 (loday_bracket(u, p).terms, _ref_loday(u, p)),
                 (double_bracket(p, q), _ref_double_bracket(p, q)),
                 (delta_ell_sum(p), _ref_delta_ell_sum(p))]
        for k, (got, want) in enumerate(pairs):
            assert got == want, (k, u, v, p, q)
            nonzero[k] += bool(want)
    assert min(nonzero) >= 10, nonzero
