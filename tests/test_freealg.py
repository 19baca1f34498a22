import hashlib
import random

import pytest

from preproj.freealg import (CycElement, CyclicClass, PathContext,
                             RingError, canonical_rotation, cyclic_project,
                             free_context, parse_element, preprojective_relation,
                             render_cyclic, render_element, w_ab, z_ab)
from preproj.quiver import Quiver, QuiverError, catalog, double


@pytest.fixture
def loop_pair():
    """One vertex, one loop x with reverse y = x*."""
    return PathContext(catalog("free", 1))


@pytest.fixture
def two_pairs():
    return PathContext(catalog("free", 2))


def test_idempotent_multiplication(loop_pair):
    ctx = loop_pair
    a = ctx.arrow(0)
    e = ctx.idempotent(0)
    assert e * a == a
    assert a * e == a


def test_mismatch_vanishes():
    ctx = PathContext(Quiver([0, 1], [(0, 0, 1)]))
    a = ctx.arrow(0)
    e1 = ctx.idempotent(1)
    e0 = ctx.idempotent(0)
    assert (e1 * a).is_zero()
    assert (a * e0).is_zero()


def test_closed_product(loop_pair):
    ctx = loop_pair
    x, y = ctx.arrow(0), ctx.arrow(1)
    p = x * y
    mono = next(iter(p.terms))
    assert mono[0] == ctx.mono_target(mono) == 0


def test_full_cycle_affine_a():
    ctx = PathContext(catalog("affine_a", 3))
    a0, a1, a2 = (ctx.arrow(k) for k in (0, 1, 2))
    cyc = a0 * a1 * a2
    assert len(cyc.terms) == 1
    mono = next(iter(cyc.terms))
    assert mono == (0, (0, 1, 2))
    assert (a0 * a2).is_zero()


def test_multiply_associative_random(two_pairs):
    ctx = two_pairs
    rng = random.Random(3)
    arrows = [a for (a, _, _) in ctx.quiver.arrows]

    def rand_el():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 3)))
            terms[(0, w)] = rng.randint(-3, 3)
        return ctx.element(terms)

    for _ in range(40):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert (a * b) * c == a * (b * c)
        # graded: all degrees of a product are sums of term degrees
        degs = set((a * b).degrees())
        allowed = {da + db for da in a.degrees() or [0] for db in b.degrees() or [0]}
        assert degs <= allowed


def test_preprojective_relation_one_vertex(loop_pair):
    ctx = loop_pair
    rels = preprojective_relation(ctx)
    assert len(rels) == 1
    x, y = ctx.arrow(0), ctx.arrow(1)
    assert rels[0] == x * y - y * x


def test_preprojective_relation_a2():
    ctx = PathContext(Quiver([0, 1], [(0, 0, 1)]))
    rels = preprojective_relation(ctx)
    a = ctx.arrow(0)
    astar = ctx.arrow(ctx.quiver.star[0])
    assert rels == [a * astar, (astar * a).scale(-1)]
    assert preprojective_relation(ctx, white=[0, 1]) == []
    with pytest.raises(QuiverError):
        preprojective_relation(ctx, white=[0, 2])


@pytest.mark.parametrize("text", ["[x", "x]", "[]", "e_x", "e_3", "[x] x", "[x] [x*]"])
def test_parse_element_rejects_malformed_text(loop_pair, text):
    with pytest.raises(QuiverError):
        parse_element(loop_pair, text)


def test_z_ab(loop_pair):
    ctx = loop_pair
    x, y = ctx.arrow(0), ctx.arrow(1)
    assert z_ab(2, 1, x, y) == x * y * x
    assert z_ab(1, 2, x, y) == y * x * y
    assert z_ab(0, 0, x, y) == ctx.identity()
    with pytest.raises(ValueError):
        z_ab(-1, 0, x, y)


@pytest.fixture
def formal():
    """Letters x, y and a formal letter r for the relation classes."""
    ctx = free_context(["x", "y", "r"])
    x, y, r = ctx.letters()
    return ctx, x, y, r


def test_w_ab_small(formal):
    ctx, x, y, r = formal
    assert render_cyclic(w_ab(1, 1, r, x, y)) == "[r]"
    w22 = w_ab(2, 2, r, x, y)
    assert w22 == cyclic_project(r * r + (x * y * r).scale(2))
    w21 = w_ab(2, 1, r, x, y)
    assert w21 == cyclic_project((r * x).scale(-1))


def test_w_ab_integrality(formal):
    ctx, x, y, r = formal
    # the binomial-like coefficients gcd(a,b)/rep come out integral
    for a in range(1, 9):
        for b in range(1, 9):
            w_ab(a, b, r, x, y)


def test_w_ab_digest(formal):
    """Every W_{a,b} term for a, b <= 6, pinned by a digest of the sorted
    (vertex, word, coefficient) triples."""
    ctx, x, y, r = formal
    h = hashlib.sha256()
    for a in range(1, 7):
        for b in range(1, 7):
            terms = sorted((k.vertex, k.word, c) for k, c in w_ab(a, b, r, x, y).terms.items())
            h.update(repr((a, b, terms)).encode())
    assert h.hexdigest() == "b37705b152a78df083a274602fd4c2a7c401de776552b8c996f2fbe5e9151ddb"


def test_cyclic_project_examples(loop_pair):
    ctx = loop_pair
    x, y = ctx.arrow(0), ctx.arrow(1)
    assert cyclic_project(x * y - y * x).is_zero()
    r = x * y - y * x
    r2 = cyclic_project(r * r)
    assert r2 == ctx.cyclic({CyclicClass.of(ctx, (0, (0, 1, 0, 1))): 2,
                             CyclicClass.of(ctx, (0, (0, 0, 1, 1))): -2})


def test_cyclic_project_open_path():
    ctx = PathContext(Quiver([0, 1], [(0, 0, 1)]))
    assert cyclic_project(ctx.arrow(0)).is_zero()


def test_commutators_die_bruteforce(loop_pair):
    ctx = loop_pair
    words = [()]
    for d in range(1, 5):
        words += [w for w in _all_words(2, d)]
    for u in words:
        for v in words:
            if len(u) + len(v) > 8 or not (u or v):
                continue
            eu = ctx.path(u) if u else ctx.idempotent(0)
            ev = ctx.path(v) if v else ctx.idempotent(0)
            assert cyclic_project(eu * ev - ev * eu).is_zero()


def _all_words(nletters, d):
    import itertools

    return list(itertools.product(range(nletters), repeat=d))


def test_rotation_classes(loop_pair):
    ctx = loop_pair
    x, y = ctx.arrow(0), ctx.arrow(1)
    assert cyclic_project(x * y) == cyclic_project(y * x)
    assert canonical_rotation((1, 0, 1, 0)) == (0, 1, 0, 1)


def test_canonical_rotation_is_the_least_rotation():
    """Against the minimum over all rotations: every word of length <= 7 on
    three letters, and seeded words of length up to 20 on 16 letters."""
    rng = random.Random(5)
    words = [w for n in range(8) for w in _all_words(3, n)]
    words += [tuple(rng.randrange(16) for _ in range(rng.randint(2, 20))) for _ in range(500)]
    for w in words:
        assert canonical_rotation(w) == min((w[k:] + w[:k] for k in range(len(w))), default=w)


def test_render_parse_roundtrip(two_pairs):
    ctx = two_pairs
    rng = random.Random(11)
    arrows = [a for (a, _, _) in ctx.quiver.arrows]
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.choice(arrows) for _ in range(rng.randint(1, 4)))
            terms[(0, w)] = rng.choice([-3, -2, -1, 1, 2, 5])
        el = ctx.element(terms)
        assert parse_element(ctx, render_element(el)) == el
        cyc = cyclic_project(el)
        if not cyc.is_zero():
            assert parse_element(ctx, render_cyclic(cyc)) == cyc


def test_parse_necklace_keys_by_canonical_rotation():
    """Every rotation of a cycle parses to the same class, keyed at the source
    of its canonical rotation; an open path has no class."""
    ctx = PathContext(double(catalog("affine_a", 3)))
    assert parse_element(ctx, "[a1 a2 a0] - [a0 a1 a2]").is_zero()
    assert parse_element(ctx, "[a2 a0 a1]") == parse_element(ctx, "[a0 a1 a2]")
    with pytest.raises(QuiverError):
        parse_element(ctx, "[a0 a1]")


def test_cyclic_text_projects_unbracketed_terms(loop_pair):
    """In text with brackets every term is a class: e_0 and [e_0] add up, and
    x x* meets its rotation [x* x]; an open path there is an error."""
    ctx = loop_pair
    assert parse_element(ctx, "[e_0] + e_0") == parse_element(ctx, "2*[e_0]") \
        == ctx.cyclic({CyclicClass(0, ()): 2})
    assert parse_element(ctx, "[x* x] - x x*").is_zero()
    actx = PathContext(double(catalog("affine_a", 3)))
    with pytest.raises(QuiverError, match="only closed paths"):
        parse_element(actx, "[a0 a1 a2] + a0 a1")


@pytest.mark.parametrize("text", ["a0 a0", "[a0 a1* a1 a0*]", "2*a1 a0 - a0 a1"])
def test_parse_element_rejects_words_that_are_not_paths(text):
    ctx = PathContext(catalog("dynkin_a", 3))
    with pytest.raises(QuiverError, match="word is not a composable path"):
        parse_element(ctx, text)


def test_render_spec_format(loop_pair):
    ctx = loop_pair
    x, y = ctx.arrow(0), ctx.arrow(1)
    r2 = cyclic_project((x * y - y * x) ** 2)
    assert render_cyclic(r2) == "-2*[x^2 x*^2] + 2*[x x* x x*]"
    assert parse_element(ctx, "2*[x x* x x*] - 2*[x x x* x*]") == r2


def test_cyclic_elements_of_different_quivers_do_not_mix():
    # the same key on two quivers: equal terms, but not the same element
    u = PathContext(catalog("free", 1)).cyclic({CyclicClass(0, ()): 1})
    v = PathContext(catalog("affine_a", 1)).cyclic({CyclicClass(0, ()): 1})
    assert u.terms == v.terms
    assert u != v
    with pytest.raises(QuiverError, match="different contexts"):
        u + v
    with pytest.raises(QuiverError, match="different contexts"):
        u - v


def test_contexts_of_one_quiver_mix():
    # each context doubles q, and the double is shared, so elements mix
    q = catalog("free", 1)
    a, b = PathContext(q), PathContext(q)
    assert double(q) is double(q)
    assert a.quiver is b.quiver
    assert a.arrow(0) + b.arrow(0) == a.arrow(0).scale(2)


def test_coefficients_must_be_integers(loop_pair):
    ctx = loop_pair
    x = ctx.arrow(0)
    with pytest.raises(RingError):
        ctx.element({(0, (0,)): 2.5})
    with pytest.raises(RingError):
        ctx.cyclic({CyclicClass.of(ctx, (0, (0, 1))): 0.5})
    with pytest.raises(RingError):
        x.scale(0.5)


def _mat_power(m, d):
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(d):
        out = [[sum(out[i][k] * m[k][j] for k in range(n)) for j in range(n)]
               for i in range(n)]
    return out


def _check_walks(ctx, adjacency, dmax, verts):
    """Walk counts between the vertices in verts against the entries of the
    adjacency powers; the walks themselves are composable and of length d."""
    q = ctx.quiver
    for d in range(dmax + 1):
        power = _mat_power(adjacency, d)
        for i, vi in enumerate(verts):
            for j, vj in enumerate(verts):
                words = list(ctx.walks(d, vi, vj))
                assert len(words) == len(set(words)) == power[i][j]
                for w in words:
                    assert len(w) == d
                    if w:
                        assert q.src(w[0]) == vi and q.dst(w[-1]) == vj
                        ctx.path(w)  # raises unless composable
            assert len(list(ctx.walks(d, vi))) == sum(power[i][:len(verts)])
            assert len(list(ctx.walks(d, end=vi))) == \
                sum(row[i] for row in power[:len(verts)])
        if d:  # the empty word is yielded once, not once per vertex
            assert len(list(ctx.walks(d))) == \
                sum(sum(row[:len(verts)]) for row in power[:len(verts)])


def test_walks_match_adjacency_powers():
    for q in (catalog("free", 2), catalog("affine_d", 4)):
        ctx = PathContext(q)
        _check_walks(ctx, ctx.quiver.adjacency(), 6, list(ctx.quiver.vertices))


def test_walks_degree_zero():
    ctx = PathContext(catalog("affine_a", 3))
    assert list(ctx.walks(0, 0, 0)) == [()]
    assert list(ctx.walks(0, 0, 1)) == []
    assert list(ctx.walks(0)) == [()]
    assert list(ctx.walks(0, start=1)) == [()]
    assert list(ctx.walks(0, end=2)) == [()]
    assert list(ctx.walks(-1)) == []
