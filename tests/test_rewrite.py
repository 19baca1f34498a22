import hashlib
import itertools
import math
import random
from collections import Counter, deque

import pytest

from preproj import rewrite
from preproj.freealg import PathContext, free_context, preprojective_relation
from preproj.quiver import Quiver, catalog, double
from preproj.rewrite import MonomialOrder, NonUnitLead, RewriteRule, complete


@pytest.fixture
def xy_rprime():
    """Free letters rp < x < y."""
    ctx = free_context(["rp", "x", "y"])
    rp, x, y = ctx.letters()
    return ctx, rp, x, y


def test_reduce_single_rule(xy_rprime):
    ctx, rp, x, y = xy_rprime
    order = MonomialOrder(ctx)
    sys_ = complete([y * x - x * y + rp], order, 8)
    assert len(sys_.rules) == 1
    assert sys_.reduce(y * x) == x * y - rp
    assert sys_.reduce(x * y) == x * y
    red = sys_.reduce(y * y * x)
    for (_, w) in red.terms:
        assert (1, 2) not in [(w[i + 1], w[i]) for i in range(len(w) - 1)]
        assert sys_._find_reduction(w) is None


def test_reduce_idempotent(xy_rprime):
    ctx, rp, x, y = xy_rprime
    sys_ = complete([y * x - x * y + rp], MonomialOrder(ctx), 8)
    rng = random.Random(5)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 5)))
            terms[(0, w)] = rng.randint(-4, 4)
        el = ctx.element(terms)
        once = sys_.reduce(el)
        assert sys_.reduce(once) == once


def test_reduce_generator_frames_to_zero(xy_rprime):
    ctx, rp, x, y = xy_rprime
    g = y * x - x * y + rp
    sys_ = complete([g], MonomialOrder(ctx), 8)
    letters = ctx.letters()
    for l1 in letters:
        for l2 in letters:
            assert sys_.reduce(l1 * g * l2).is_zero()


def test_guarded_reduction_stops_at_its_guard():
    """On free 2 (x = 0, y = 1, x* = 2, y* = 3) the one rule rewrites y* y to
    y y* - x* x + x x*.  From y* y* y its cascade rewrites y* y at position 0,
    so lo = 1 gives None; from y* y y one leading word ends on the last
    letter, so tail = 1 gives None.  A guard no rewrite reaches returns the
    normal form, item order included."""
    ctx = PathContext(catalog("free", 2))
    sys_ = complete(preprojective_relation(ctx), MonomialOrder(ctx), 8)
    assert [r.lm_word for r in sys_.rules] == [(3, 1)]

    def whole(word):
        return list(sys_.reduce(ctx.element({(0, word): 1})).terms.items())

    assert sys_._reduce({(0, (3, 3, 1)): 1}, 1, 0) is None
    assert sys_._reduce({(0, (3, 1, 1)): 1}, 0, 1) is None
    for word, lo, tail in [((3, 3, 1), 0, 0), ((0, 3, 1), 1, 0), ((3, 1, 0), 0, 1),
                           ((0, 3, 3, 1), 1, 0), ((3, 1, 1), 0, 0), ((0, 1), 2, 2)]:
        assert list(sys_._reduce({(0, word): 1}, lo, tail).items()) == whole(word), word


def test_unique_normal_form_randomized_order(xy_rprime):
    """Reducing with a randomized rule-application order gives one answer."""
    ctx = free_context(["x", "y", "z"])
    x, y, z = ctx.letters()
    sys_ = complete([x ** 3, y ** 3, z ** 3, x + y + z], MonomialOrder(ctx), 10)

    def random_reduce(el, rng):
        while True:
            hits = []
            for mono, c in el.terms.items():
                v, word = mono
                for k in range(len(word)):
                    for r in sys_.rules:
                        w = r.lm_word
                        if word[k:k + len(w)] == w:
                            hits.append((mono, c, k, r))
            if not hits:
                return el
            mono, c, k, r = hits[rng.randrange(len(hits))]
            v, word = mono
            repl = ctx.zero()
            pre, post = word[:k], word[k + len(r.lm_word):]
            for (rv, rw), rc in r.element.terms.items():
                if (rv, rw) == r.lm:
                    continue
                repl = repl + ctx.element({(v, pre + rw + post): -rc})
            el = el + ctx.element({mono: -c}) + repl.scale(c)

    rng = random.Random(17)
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(1, 6)))
            terms[(0, w)] = rng.randint(-3, 3)
        el = ctx.element(terms)
        assert sys_.reduce(el) == random_reduce(el, rng)


def test_complete_e_type_sets():
    """The shipped listings, from the generators and from their negatives:
    every rule is led by +1 whatever the sign it was found with."""
    from importlib import resources

    for tag, exps, bound in [("e6", (3, 3, 3), 12), ("e7", (4, 4, 2), 12),
                             ("e8", (6, 3, 2), 14)]:
        ctx = free_context(["x", "y", "z"])
        x, y, z = ctx.letters()
        gens = [x ** exps[0], y ** exps[1], z ** exps[2], x + y + z]
        want = resources.files("preproj.data").joinpath(f"{tag}_groebner.txt").read_text()
        body = "\n".join(l for l in want.splitlines() if not l.startswith("#")).strip()
        for sign in (1, -1):
            sys_ = complete([g.scale(sign) for g in gens], MonomialOrder(ctx), bound)
            assert sys_.export_text().strip() == body, (tag, sign)


@pytest.mark.parametrize("tag", ["affine_e8", "star2211"])
def test_catalog_listings_match_shipped(tag):
    """The shipped listings of preprojective completions, one of them wild:
    a completion change that alters a rule alters a listing."""
    from importlib import resources

    from preproj.homology import preprojective_system
    from preproj.rewrite import _listing_body

    want = resources.files("preproj.data").joinpath(f"{tag}_groebner.txt").read_text()
    quiver, bound = {"affine_e8": (catalog("affine_e", 8), 28),
                     "star2211": (catalog("star", 2, 2, 1, 1), 16)}[tag]
    sys_ = preprojective_system(quiver, (), bound)
    assert sys_.export_text().strip() == _listing_body(want)


def test_non_unit_lead_raises():
    ctx = free_context(["x"])
    (x,) = ctx.letters()
    with pytest.raises(NonUnitLead):
        complete([x.scale(2)], MonomialOrder(ctx), 4)
    # a hand-made rule with lead 2 would rewrite x to a non-integral tail
    with pytest.raises(NonUnitLead):
        RewriteRule(x.scale(2) - ctx.identity(), MonomialOrder(ctx))


def test_rule_led_by_minus_one_is_negated():
    ctx = free_context(["x", "y"])
    x, y = ctx.letters()
    rule = RewriteRule(y - x * x, MonomialOrder(ctx))
    assert rule.element == x * x - y
    assert rule.lm == (0, (0, 0))
    assert rule.tail == [((1,), -1)]


def test_normal_monomials_free():
    ctx = free_context(["x", "y"])
    x, y = ctx.letters()
    sys_ = complete([], MonomialOrder(ctx), 4)
    words = sys_.normal_monomials(0, 0, 3)
    assert len(words) == 8


def test_normal_monomials_forest():
    from preproj.homology import forest_arrow_order, preprojective_system
    from preproj.quiver import forest_for_white

    q = catalog("star", 1, 1)
    sys_ = preprojective_system(q, [0], 6, arrow_order=forest_arrow_order(double(q), [0]))
    qd = sys_.ctx.quiver

    forest = set(forest_for_white(qd, [0]).arrows)
    for d in range(1, 5):
        for i in qd.vertices:
            for j in qd.vertices:
                for (_, w) in sys_.normal_monomials(i, j, d):
                    for a, b in zip(w, w[1:]):
                        assert not (a in forest and qd.star[a] == b)


def test_normal_monomials_star_e6_basis_counts():
    """Normal words of the ~E6 star ideal match the stated normal forms
    x^l1 (y x^d)^l2 (y x^(d-1))^l3 Y."""
    ctx = free_context(["x", "y", "z"])
    x, y, z = ctx.letters()
    d = 2
    sys_ = complete([x ** 3, y ** 3, z ** 3, x + y + z], MonomialOrder(ctx), 12)

    def basis_count(w):
        # x^l1 (y x^d)^l2 (y x^(d-1))^l3 Y with 0 <= l1 <= d and Y an initial
        # subword of y x^(d-2) y; for d = 2 the subwords are 1, y, yy
        n = 0
        tails = [0, 1, 2]
        for l1 in range(0, d + 1):
            for l2 in range(0, w + 1):
                for l3 in range(0, w + 1):
                    for t in tails:
                        if l1 + l2 * (d + 1) + l3 * d + t == w:
                            n += 1
        return n

    for w in range(0, 13):
        got = len(sys_.normal_monomials(0, 0, w))
        assert got == basis_count(w), (w, got, basis_count(w))


@pytest.mark.parametrize("name", ["affine_a3", "zero_ideal"])
def test_normal_count_matrix_matches_enumeration(name):
    """Layer 0 and the last layer included."""
    ctx = PathContext(catalog("affine_a", 3))
    gens = preprojective_relation(ctx) if name == "affine_a3" else []
    sys_ = complete(gens, MonomialOrder(ctx), 6)
    counts = sys_.normal_count_matrix(6)
    verts = list(ctx.quiver.vertices)
    for d in range(7):
        for i, vi in enumerate(verts):
            for j, vj in enumerate(verts):
                assert counts[d][i][j] == len(sys_.normal_monomials(vi, vj, d))


def test_graded_dims_match_series_on_catalog():
    from preproj.series import hilbert_prep

    for nm, args in [("affine_a", (3,)), ("affine_d", (4,)), ("free", (2,))]:
        q = catalog(nm, *args)
        ctx = PathContext(q)
        sys_ = complete(preprojective_relation(ctx), MonomialOrder(ctx), 10)
        counts = sys_.normal_count_matrix(10)
        pred = hilbert_prep(q, (), 10).coeffs
        for d in range(11):
            assert counts[d] == pred[d], (nm, d)


# an arrow order of star 2 2 1 1 under which its completion is finite (the
# found order of tests/test_homology.py); its longest lead has 7 letters
TREE_ORDER = [8, 4, 7, 10, 1, 5, 9, 2, 6, 11, 3, 0]


def _overlaps(u, v):
    """(start_of_v, glued_word) for proper overlaps: suffix of u = prefix of v."""
    out = []
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k:] == v[:k]:
            out.append((len(u) - k, u + v[k:]))
    return out


def _unresolved_overlaps(sys_, bound):
    """(glued word, remainder) for each proper overlap of two leads, of length
    <= bound, whose two one-step rewrites do not reduce to a common form."""
    ctx, rules, out = sys_.ctx, list(sys_.rules), []
    for ri in rules:
        for rj in rules:
            for s, glued in _overlaps(ri.lm_word, rj.lm_word):
                if len(glued) > bound:
                    continue
                left = ri.element * ctx.path(rj.lm_word[len(ri.lm_word) - s:])
                right = ctx.path(ri.lm_word[:s]) * rj.element
                rest = sys_.reduce(left - right)
                if not rest.is_zero():
                    out.append((glued, rest))
    return out


def _overlap_system(name):
    """(system, bound): the completions whose overlaps must all resolve."""
    from preproj.acceptance import star_ideal_system
    from preproj.homology import preprojective_system

    if name == "xyz3":
        ctx = free_context(["x", "y", "z"])
        x, y, z = ctx.letters()
        return complete([x ** 3, y ** 3, z ** 3, x + y + z], MonomialOrder(ctx), 6), 6
    if name in ("e6", "e7", "e8"):
        exps, bound = {"e6": ((3, 3, 3), 12), "e7": ((4, 4, 2), 12),
                       "e8": ((6, 3, 2), 14)}[name]
        return star_ideal_system(exps, bound), bound
    if name == "affine_d4":
        return preprojective_system(catalog("affine_d", 4), (), 12), 12
    if name in ("dynkin_e8", "affine_e8"):
        return preprojective_system(catalog(name[:-1], 8), (), 28), 28
    if name == "tree_default":
        return preprojective_system(catalog("star", 2, 2, 1, 1), (), 16), 16
    if name in ("stale", "dropping"):
        ctx, gens, bound = _stale_free(name)
        return complete(gens, MonomialOrder(ctx), bound), bound
    # 13 = 2L - 1 with L = 7: every overlap lies within the bound, so the
    # normal words of the tree are certified in every degree
    sys_ = preprojective_system(catalog("star", 2, 2, 1, 1), (), 13, arrow_order=TREE_ORDER)
    assert 2 * max(len(r.lm_word) for r in sys_.rules) - 1 == 13
    return sys_, 13


@pytest.mark.parametrize("name", ["xyz3", "e6", "e7", "e8", "affine_d4", "tree_found",
                                  "dynkin_e8", "affine_e8", "tree_default",
                                  "stale", "dropping"])
def test_completion_resolves_every_overlap(name):
    """Bergman's Diamond Lemma for a completion: every overlap within its
    bound resolves, those whose S-pairs the chain criterion skipped included
    (247 of the 459 that used to reduce to zero on E8 to 28), and those of
    completions that drop stale rules, whose pairs are dropped with them."""
    sys_, bound = _overlap_system(name)
    assert _unresolved_overlaps(sys_, bound) == []


def test_unresolved_overlap_is_reported():
    """x x -> y completed to 2 never meets its overlap x x x, of length 3,
    whose two rewrites leave +-(x y - y x)."""
    ctx = free_context(["x", "y", "z"])
    x, y, z = ctx.letters()
    sys_ = complete([x * x - y], MonomialOrder(ctx), 2)
    assert _unresolved_overlaps(sys_, 2) == []
    [(glued, rest)] = _unresolved_overlaps(sys_, 3)
    assert glued == (0, 0, 0)
    assert rest in (x * y - y * x, y * x - x * y)


# ---------------------------------------------------------------------------
# the rule automaton against the scans it replaced


class _FailWalkAutomaton:
    """Reference: Aho-Corasick with goto and fail links, advance walking the
    fail links until a goto edge matches."""

    def __init__(self, words):
        self.goto, self.fail, self.hit = [{}], [0], [0]
        for w in words:
            node = 0
            for a in w:
                if a not in self.goto[node]:
                    self.goto.append({})
                    self.fail.append(0)
                    self.hit.append(0)
                    self.goto[node][a] = len(self.goto) - 1
                node = self.goto[node][a]
            self.hit[node] = len(w)
        todo = list(self.goto[0].values())
        while todo:
            u = todo.pop(0)
            for a, v in self.goto[u].items():
                f = self.fail[u]
                while f and a not in self.goto[f]:
                    f = self.fail[f]
                w = self.goto[f].get(a, 0)
                self.fail[v] = w if w != v else 0
                self.hit[v] = self.hit[v] or self.hit[self.fail[v]]
                todo.append(v)

    def advance(self, node, a):
        while node and a not in self.goto[node]:
            node = self.fail[node]
        nxt = self.goto[node].get(a, 0)
        return nxt, self.hit[nxt]


def _scan_reduction(rules, word):
    """Reference: try every rule at every position, leftmost position first."""
    for k in range(len(word)):
        for rule in rules:
            w = rule.lm_word
            if word[k:k + len(w)] == w:
                return k, rule
    return None


@pytest.fixture(scope="module")
def lookup_systems():
    """Completed systems at the identity_sweep degrees of E6, E7 and E8, and
    the wild tree star 2 2 1 1."""
    from preproj.homology import preprojective_system

    out = {f"{name}{p}_D{D}": preprojective_system(catalog(name, p), (), D)
           for name, p, D in [("dynkin_e", 6, 12), ("dynkin_e", 7, 16), ("dynkin_e", 8, 28)]}
    out["star2211_D16"] = preprojective_system(catalog("star", 2, 2, 1, 1), (), 16)
    return out


def _stale_free(name):
    """(ctx, relations on x, y, z, bound) whose completion drops stale rules:
    "stale"; "dropping", where reducing the S-pairs of the dropped rules
    would meet the non-unit lead 4 x^2 y z; and "stale_lengths", where one
    install drops a lead of 2 letters and a later one of 3, and a lead of 3
    letters came before any of 2."""
    ctx = free_context(["x", "y", "z"])
    x, y, z = ctx.letters()
    if name == "stale":
        return ctx, [z - x * x - x * z * z, x * z + z ** 3], 6
    if name == "dropping":
        return ctx, [x.scale(2) - y - z * y * x, z * z + x * x * z, z - z * z * y], 4
    return ctx, [x * x * y - x - y, -x * y - x ** 3, y * x + (x ** 3).scale(2)], 4


@pytest.mark.parametrize("name", ["dynkin_e6_D12", "dynkin_e7_D16", "dynkin_e8_D28",
                                  "star2211_D16"])
def test_find_reduction_matches_scan(name, lookup_systems):
    """Seeded words (composable walks, and random pieces glued round leading
    words): the automaton finds the same position and rule as the scan."""
    sys_ = lookup_systems[name]
    q = sys_.ctx.quiver
    leads = [r.lm_word for r in sys_.rules]
    letters = sorted(a for a, _, _ in q.arrows)
    rng = random.Random(107)
    hits = 0
    for _ in range(400):
        if rng.random() < 0.5:
            v, word = rng.choice(q.vertices), []
            for _ in range(rng.randint(1, 30)):
                outs = list(q.out_arrows(v))
                if not outs:
                    break
                a = rng.choice(outs)
                word.append(a)
                v = q.dst(a)
        else:
            word = []
            for _ in range(rng.randint(1, 4)):
                word += rng.choice(leads) if rng.random() < 0.5 else \
                    [rng.choice(letters) for _ in range(rng.randint(0, 4))]
        word = tuple(word)
        want = _scan_reduction(sys_.rules, word)
        assert sys_._find_reduction(word) == want, (name, word)
        hits += want is not None
    assert hits > 100


@pytest.mark.parametrize("name", ["dynkin_e6_D12", "dynkin_e7_D16", "dynkin_e8_D28",
                                  "star2211_D16"])
def test_automaton_table_matches_fail_walk(name, lookup_systems):
    """advance through the full table equals the fail walk on every state and
    every letter, one letter outside the alphabet included."""
    sys_ = lookup_systems[name]
    words = [r.lm_word for r in sys_.rules]
    aut, ref = rewrite._Automaton(words), _FailWalkAutomaton(words)
    assert len(aut.table) == len(ref.goto)
    letters = sorted(a for a, _, _ in sys_.ctx.quiver.arrows) + [10 ** 6]
    for s in range(len(ref.goto)):
        for a in letters:
            assert aut.advance(s, a) == ref.advance(s, a), (name, s, a)


def _holds_every_lead(sys_):
    """Whether sys_'s automaton holds every lead and nothing else."""
    aut = sys_._aut
    ref = rewrite._Automaton([r.lm_word for r in sys_.rules])
    return sys_._bound == math.inf and aut.table == ref.table and aut.hit == ref.hit


@pytest.mark.parametrize("name", ["dynkin_e6_D12", "dynkin_e7_D16", "dynkin_e8_D28",
                                  "star2211_D16"])
def test_completed_automaton_holds_every_lead(name, lookup_systems):
    assert _holds_every_lead(lookup_systems[name])


def test_length_bounded_automaton():
    """Leads of 2, 3 and 5 letters installed so that the automaton is built at
    a bound, meets a lead as long as the bound, survives a longer install,
    is dropped by a shorter one and by a stale removal, and is kept under a
    higher bound once it holds every lead; after each step the
    lookup agrees with the scan on seeded words of 1 to 8 letters, read from
    a copy so that the bound under test stays as it is."""
    import copy

    ctx = free_context(["x", "y", "z"])
    order = MonomialOrder(ctx)
    sys_ = rewrite.RewriteSystem(ctx, order, 8)
    rng = random.Random(23)

    def rule(word):
        return RewriteRule(ctx.element({(0, word): 1}), order)

    def agrees():
        probe = copy.copy(sys_)
        for _ in range(300):
            word = tuple(rng.randrange(3) for _ in range(rng.randint(1, 8)))
            assert probe._find_reduction(word) == _scan_reduction(sys_.rules, word), word
        return True

    r3 = rule((0, 1, 2))
    sys_._install(r3)
    assert sys_._find_reduction((2, 0, 1)) is None      # built at bound 3, holding no lead
    aut = sys_._aut
    assert sys_._bound == 3 and not any(aut.hit)
    assert sys_._find_reduction((0, 1, 2)) == (0, r3)   # the lead as long as the bound
    assert sys_._aut is aut and agrees()

    sys_._install(rule((2, 2, 1, 0, 0)))                # longer: kept
    assert sys_._aut is aut and agrees()

    sys_._install(rule((1, 1)))                         # shorter: dropped
    assert sys_._aut is None and agrees()
    assert sys_._find_reduction((2, 2, 0, 0, 2, 0)) is None
    assert sys_._bound == 6 and sys_._aut.longest == 5

    r21 = rule((2, 1))                                  # shorter, with a stale lead
    sys_._install(r21, [sys_._by_lead[(2, 2, 1, 0, 0)]])
    assert sys_._aut is None and agrees()
    assert sys_._find_reduction((2, 2, 1, 0, 0)) == (1, r21)
    assert sys_._bound == 5

    # a lead as long as the bound kept it; dropping a shorter stale one does not
    sys_._install(rule((2, 0, 2, 0, 2)), [r21])
    assert sys_._aut is None and agrees()
    assert sys_._find_reduction((2, 2, 1, 0, 0)) is None

    aut = sys_._automaton(6)                            # rebuilt: it missed a lead
    assert sys_._automaton() is aut and _holds_every_lead(sys_)  # it holds every lead


@pytest.mark.parametrize("side", ["end", "start"])
def test_s_elements_keep_only_composable_terms(side):
    """Loops z at 1 and w at 2, and x, y between 1, 2 and 0.  At the end:
    x: 0 -> 1, y: 0 -> 2, and the rule y w -> x z overlaps w w w in y w w w,
    where (y w - x z) w w drops x z w w, which is no path.  At the start:
    x: 1 -> 0, y: 2 -> 0, and w w (w y - z x) drops w w z x.  Both
    S-elements are zero, so the generators are the rules."""
    if side == "end":
        q = Quiver([0, 1, 2], [(0, 0, 1), (1, 0, 2), (2, 1, 1), (3, 2, 2)])
    else:
        q = Quiver([0, 1, 2], [(0, 1, 0), (1, 2, 0), (2, 1, 1), (3, 2, 2)])
    ctx = PathContext(q, auto_double=False)
    x, y, z, w = ctx.letters()
    gen, want = (y * w - x * z, [((0, (0, 2)), -1), ((0, (1, 3)), 1)]) if side == "end" else \
        (w * y - z * x, [((1, (2, 0)), -1), ((2, (3, 1)), 1)])
    sys_ = complete([gen, w * w * w], MonomialOrder(ctx), 8)
    assert [list(r.element.terms.items()) for r in sys_.rules] == [want, [((2, (3, 3, 3)), 1)]]


@pytest.mark.parametrize("name", ["dynkin_e8_D28", "stale"])
def test_completion_reduces_each_s_element_once(name, monkeypatch):
    """Every S-element the pair branch of complete queues is no dict that
    _reduce returned before, and exactly one _reduce call receives it: it is
    reduced once, where it is installed.  The terms of stale rules, which are
    queued to be reduced again, are not S-elements and are not checked; E8
    drops no rule, the "stale" system drops some."""
    from preproj.homology import preprojective_system

    queued, received, returned = [], [], []     # kept alive, so that ids stay distinct

    class Pending(deque):
        def append(self, item):
            if isinstance(item, dict):          # the automaton queues ints
                assert all(item is not r for r in returned)
                queued.append(item)
            super().append(item)

    reduce = rewrite.RewriteSystem._reduce

    def logged(self, terms, *args):
        received.append(terms)
        returned.append(reduce(self, terms, *args))
        return returned[-1]

    monkeypatch.setattr(rewrite, "deque", Pending)
    monkeypatch.setattr(rewrite.RewriteSystem, "_reduce", logged)
    if name == "stale":
        ctx, gens, bound = _stale_free(name)
        dropped = [r for r, stale in _installs(monkeypatch, gens, MonomialOrder(ctx), bound)
                   for r in stale]
        assert dropped
    else:
        preprojective_system(catalog("dynkin_e", 8), (), 28)
    assert len(queued) >= 10
    assert all(sum(t is s for t in received) == 1 for s in queued)


def _installs(monkeypatch, gens, order, bound):
    """(rule, stale rules) of each install of a completion, in order."""
    log = []
    install = rewrite.RewriteSystem._install

    def logged(self, rule, stale=()):
        log.append((rule, list(stale)))
        install(self, rule, stale)

    monkeypatch.setattr(rewrite.RewriteSystem, "_install", logged)
    complete(gens, order, bound)
    monkeypatch.undo()
    return log


def _all_pairs_overlaps(live, rule):
    """Reference: (ri, rj, split) from the loop over every live rule, (rule,
    other) and (other, rule)."""
    out = []
    for other in live:
        for ri, rj in [(rule, other)] if other is rule else [(rule, other), (other, rule)]:
            out += [(ri, rj, s) for s, _ in _overlaps(ri.lm_word, rj.lm_word)]
    return out


@pytest.mark.parametrize("name", ["dynkin_e6_D12", "dynkin_e7_D16", "dynkin_e8_D28",
                                  "star2211_D16", "tree_found", "stale",
                                  "dropping", "stale_lengths"])
def test_overlap_index_matches_all_pairs(name, lookup_systems, monkeypatch):
    """Replaying a completion's installs, the index gives each new rule the
    overlaps of the loop over every live rule, and the stale rules dropped
    are those of the scan of every live rule, both as multisets (the order
    within a length is free); after stale rules are dropped (by the
    completions of _stale_free, and every other live rule at the end) every
    live rule is checked."""
    if name in lookup_systems:
        sys_ = lookup_systems[name]
        gens, order, bound = preprojective_relation(sys_.ctx), sys_.order, sys_.complete_to_degree
    elif name == "tree_found":
        ctx = PathContext(catalog("star", 2, 2, 1, 1))
        gens, order, bound = preprojective_relation(ctx), MonomialOrder(ctx, TREE_ORDER), 13
    else:
        ctx, gens, bound = _stale_free(name)
        order = MonomialOrder(ctx)
    index, live, dropped = rewrite._OverlapIndex(), [], 0
    for rule, stale in _installs(monkeypatch, gens, order, bound):
        u = rule.lm_word
        assert Counter(stale) == Counter(r for r in live if len(r.lm_word) > len(u) and any(
            r.lm_word[k:k + len(u)] == u for k in range(len(r.lm_word)))), (name, rule)
        for r in stale:
            index.drop(r)
            live.remove(r)
        index.add(rule)
        live.append(rule)
        for r in live if stale else [rule]:
            assert Counter(index.overlaps(r)) == Counter(_all_pairs_overlaps(live, r)), (name, r)
        dropped += len(stale)
    assert (dropped > 0) == (name in ("stale", "dropping", "stale_lengths"))
    for r in live[::2]:
        index.drop(r)
        live.remove(r)
    for r in live:
        assert Counter(index.overlaps(r)) == Counter(_all_pairs_overlaps(live, r)), (name, r)


# sha256 of repr([(lead, list(terms.items())) for each rule]): the rules in
# install order, item order included, which a change in the order S-pairs
# are settled moves; PINNED_RULE_SET_DIGESTS below pins what it may not
PINNED_RULE_DIGESTS = {
    "dynkin_e8_D28": "3eac7f03a9e8ee65b78c8a548a3876be2aac8c55b38c720b6801597e1c991124",
    "affine_e8_D28": "955a2072b8b9c3f1752eb92b40b59837107632534240c1996cdefedafaa202d0",
    "affine_d4_D16": "f133060c0f74f32fa48cadb78e280161a08fa134923f58bb6698868cdeacb1fd",
    "tree_found_D13": "9527aaeedcf945fa30577ce5ffecd53bdbc82b2cfea7a4d847ed1cc5a8c47656",
    "tree_default_D12": "9116009eca816b9fc3c7b6e27d713e9b41a4319718a25da3d278bf5419533339",
}


# sha256 of repr(sorted((lead, sorted(terms.items())) for each rule)): the
# rules in any install order and any item order, as completed by the loop
# that reduced every live S-pair
PINNED_RULE_SET_DIGESTS = {
    "dynkin_e8_D28": "86353780e3dbfc3be8527e5dd3a089ffc4b6077bda285d2cfe2604032bfb45a8",
    "affine_e8_D28": "f0e7e72d68d35055a1109b618b680db4c1d7b39dc51ddf6b379379b9e72a45d9",
    "affine_d4_D16": "2cd20c0ee8f314b253477519f9ee5d0f7a24aea7bb12d9a0030767ece963ef06",
    "tree_found_D13": "7078b9b9e46dbcb3201a4a9e43e3cae18f862d763502aee7e924e932d2fc5050",
    "tree_default_D12": "4f87588220fd446a9a961ad0faeb2f0362cae0f9d8b6a649099c920a93b1613e",
}


def _pinned_system(name):
    from preproj.homology import preprojective_system

    q, D, arrow_order = {
        "dynkin_e8_D28": (catalog("dynkin_e", 8), 28, None),
        "affine_e8_D28": (catalog("affine_e", 8), 28, None),
        "affine_d4_D16": (catalog("affine_d", 4), 16, None),
        "tree_found_D13": (catalog("star", 2, 2, 1, 1), 13, TREE_ORDER),
        "tree_default_D12": (catalog("star", 2, 2, 1, 1), 12, None)}[name]
    return preprojective_system(q, (), D, arrow_order=arrow_order)


@pytest.mark.parametrize("name", list(PINNED_RULE_DIGESTS))
def test_completion_rules_are_pinned(name):
    sys_ = _pinned_system(name)
    got = repr([(r.lm_word, list(r.element.terms.items())) for r in sys_.rules])
    assert hashlib.sha256(got.encode()).hexdigest() == PINNED_RULE_DIGESTS[name]


@pytest.mark.parametrize("name", list(PINNED_RULE_SET_DIGESTS))
def test_completion_rule_set_is_pinned(name):
    sys_ = _pinned_system(name)
    got = repr(sorted((r.lm_word, sorted(r.element.terms.items())) for r in sys_.rules))
    assert hashlib.sha256(got.encode()).hexdigest() == PINNED_RULE_SET_DIGESTS[name]


def _random_unit_led_system(rng):
    """Two or three relations on x, y (and z), each a word of two or three
    letters led by +1 plus up to three shorter words: not homogeneous."""
    ctx = free_context(["x", "y", "z"][:rng.choice((2, 3))])
    n = len(ctx.quiver.arrows)
    gens = []
    for _ in range(rng.choice((2, 3))):
        lead = tuple(rng.randrange(n) for _ in range(rng.choice((2, 3))))
        terms = {(0, lead): 1}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(n) for _ in range(rng.randrange(1, len(lead))))
            terms[(0, w)] = terms.get((0, w), 0) + rng.choice((-2, -1, 1, 2))
        gens.append(ctx.element(terms))
    return ctx, gens


def test_completion_reduces_every_tail(monkeypatch):
    """Seeded systems that are not homogeneous, completed to 7: no tail word
    holds a lead, the leads are those of the completion without the final
    tail pass, and so are the normal forms of every word of up to 5 letters.
    At least five of the systems need the pass."""
    rng = random.Random(1)
    rebuilt = 0
    for _ in range(200):
        ctx, gens = _random_unit_led_system(rng)
        try:
            after = complete(gens, MonomialOrder(ctx), 7)
        except NonUnitLead:
            continue
        with monkeypatch.context() as m:
            m.setattr(rewrite, "_reduce_tails", lambda sys_: None)
            before = complete(gens, MonomialOrder(ctx), 7)
        rebuilt += any(before._find_reduction(u) is not None
                       for r in before.rules for u, _ in r.tail)
        assert all(after._find_reduction(u) is None for r in after.rules for u, _ in r.tail)
        assert [r.lm_word for r in after.rules] == [r.lm_word for r in before.rules]
        letters = range(len(ctx.quiver.arrows))
        for k in range(1, 6):
            for w in itertools.product(letters, repeat=k):
                x = ctx.element({(0, w): 1})
                assert after.reduce(x) == before.reduce(x), (gens, w)
    assert rebuilt >= 5
