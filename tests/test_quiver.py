import json
import random

import pytest

from preproj.quiver import (Quiver, QuiverError, catalog, classify, double,
                            forest_for_white)
from preproj.series import egid_check


def test_double_one_loop():
    q = catalog("free", 1)
    qd = double(q)
    assert len(qd.arrows) == 2
    assert qd.starred
    a, astar = (x for (x, _, _) in qd.arrows)
    assert qd.star[a] == astar and qd.star[astar] == a
    assert qd.arrow_name(astar) == "x*"


def test_double_cycle():
    qd = double(catalog("affine_a", 3))
    assert len(qd.arrows) == 6
    for a, b in qd.star.items():
        assert (qd.src(a), qd.dst(a)) == (qd.dst(b), qd.src(b))


def test_double_single_arrow():
    q = Quiver([0, 1], [(0, 0, 1)])
    qd = double(q)
    arrows = {(s, t) for (_, s, t) in qd.arrows}
    assert arrows == {(0, 1), (1, 0)}


def test_double_rejects_double():
    qd = double(catalog("free", 1))
    with pytest.raises(QuiverError):
        double(qd)


def test_classify_basics():
    assert str(classify(catalog("dynkin_a", 3))) == "A3"
    assert str(classify(catalog("affine_a", 1))) == "~A0"
    two_loops = catalog("free", 2)
    assert classify(two_loops).kind == "other"
    assert str(classify(catalog("affine_d", 7))) == "~D7"
    assert str(classify(catalog("dynkin_d", 5))) == "D5"
    assert str(classify(catalog("affine_e", 7))) == "~E7"
    assert str(classify(catalog("dynkin_e", 8))) == "E8"


def test_classify_catalog_exhaustive():
    cases = [
        (("free", 1), "~A0"), (("free", 3), "Other"),
        (("affine_a", 2), "~A1"), (("affine_a", 5), "~A4"),
        (("affine_d", 4), "~D4"), (("affine_d", 6), "~D6"),
        (("affine_e", 6), "~E6"), (("affine_e", 8), "~E8"),
        (("dynkin_a", 1), "A1"), (("dynkin_a", 7), "A7"),
        (("dynkin_d", 4), "D4"), (("dynkin_e", 6), "E6"),
        (("star", (1, 1, 1, 1, 1)), "Other"),
        (("star", (2, 2, 2)), "~E6"), (("star", (3, 3, 1)), "~E7"),
        (("star", (5, 2, 1)), "~E8"), (("star", (6, 2, 1)), "Other"),
    ]
    for (name, arg), want in cases:
        q = catalog(name, *arg) if isinstance(arg, tuple) else catalog(name, arg)
        assert str(classify(q)) == want, (name, arg)
        # a double has the same adjacency, so it classifies as the quiver it doubles
        assert classify(double(q)) == classify(q), (name, arg)


def test_extending_vertex_is_smallest_valid():
    q = catalog("affine_a", 3)
    assert classify(q).extending_vertex == 0
    qd4 = catalog("affine_d", 4)
    # removing any external vertex of ~D4 leaves D4; smallest id wins
    assert classify(qd4).extending_vertex == 0


def test_extending_vertex_of_relabeled_quivers():
    """Whatever the vertex ids, the extending vertex has delta_v = 1: deleting
    it leaves the Dynkin diagram of the same type, and egid_check holds.  A
    short-arm vertex of ~E7 or ~E8 also leaves a Dynkin (A7, A8) quiver."""
    rng = random.Random(8)
    for name, n in [("affine_d", 5), ("affine_e", 6), ("affine_e", 7), ("affine_e", 8)]:
        base = catalog(name, n)
        dynkin = f"{name[-1].upper()}{n}"
        for _ in range(4):
            perm = rng.sample(base.vertices, len(base.vertices))
            q = Quiver(base.vertices, [(a, perm[s], perm[t]) for (a, s, t) in base.arrows])
            cls = classify(q)
            assert str(cls) == f"~{dynkin}", perm
            v = cls.extending_vertex
            rest = Quiver([w for w in q.vertices if w != v],
                          [(a, s, t) for (a, s, t) in q.arrows if v not in (s, t)])
            assert str(classify(rest)) == dynkin, perm
            assert egid_check(q, 12), perm


def test_catalog_shapes():
    q = catalog("affine_a", 3)
    assert len(q.vertices) == 3 and len(q.arrows) == 3
    e6 = catalog("star", 2, 2, 2)
    assert str(classify(e6)) == "~E6"
    d4 = catalog("star", 1, 1, 1, 1)
    assert str(classify(d4)) == "~D4"
    with pytest.raises(QuiverError):
        catalog("affine_e", 9)
    with pytest.raises(QuiverError):
        catalog("nonsense")


def test_star_orientation_toward_center():
    q = catalog("star", 2, 1)
    for (a, s, t) in q.arrows:
        # every arrow moves one step toward the special vertex 0
        assert t < s or t == 0 or s > t


def test_forest_examples():
    q = Quiver([0, 1], [(0, 0, 1)])
    qd = double(q)
    f = forest_for_white(qd, [1])
    assert f.arrows == (0,)

    with pytest.raises(QuiverError):
        forest_for_white(qd, [])

    # whole vertex set white: empty forest
    f2 = forest_for_white(qd, [0, 1])
    assert f2.arrows == ()

    star = double(catalog("star", 1, 1))
    f3 = forest_for_white(star, [0])
    assert len(f3.arrows) == 2
    for a in f3.arrows:
        assert star.dst(a) == 0 and star.src(a) in (1, 2)


def test_forest_invariants_random():
    rng = random.Random(7)
    for _ in range(40):
        nv = rng.randint(2, 5)
        arrows = [(k, rng.randrange(nv), rng.randrange(nv)) for k in range(nv + 1)]
        try:
            q = Quiver(range(nv), arrows)
        except QuiverError:
            continue
        qd = double(q)
        white = {rng.randrange(nv)}
        f = forest_for_white(qd, white)
        # src is a bijection onto the black vertices
        blacks = sorted(set(qd.vertices) - white)
        assert sorted(qd.src(a) for a in f.arrows) == blacks
        # no undirected cycles: #arrows = #vertices touched - #components
        import collections

        adj = collections.defaultdict(set)
        for a in f.arrows:
            adj[qd.src(a)].add(qd.dst(a))
            adj[qd.dst(a)].add(qd.src(a))
        seen = set()
        comps = 0
        touched = set(adj)
        for v in touched:
            if v in seen:
                continue
            comps += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u] - seen)
        assert len(f.arrows) == len(touched) - comps


def test_json_roundtrip():
    q = catalog("affine_d", 5)
    text = q.to_json(white=[2])
    q2, white = Quiver.from_json(text)
    assert q2.vertices == q.vertices
    assert q2.arrows == q.arrows
    assert white == {2}


@pytest.mark.parametrize("doc", [
    {"vertices": [0, 1], "arrows": [{"id": 0, "src": 0.9, "dst": 1}]},
    {"vertices": [0, 1], "arrows": [{"id": 0, "src": 0, "dst": 1.0}]},
    {"vertices": [0, 1], "arrows": [{"id": 0, "src": True, "dst": 0}]},
    {"vertices": [0, 1], "arrows": [{"id": "1", "src": 1, "dst": 0}]},
    {"vertices": [0, 1], "arrows": [{"id": 0.0, "src": 0, "dst": 1}]},
    {"vertices": [0, 1.5], "arrows": [{"id": 0, "src": 0, "dst": 1.5}]},
    {"vertices": [False, 1], "arrows": [{"id": 0, "src": False, "dst": 1}]},
    {"vertices": [0, 1], "arrows": [{"id": 0, "src": 0, "dst": 1}], "white": [True]},
    {"vertices": [0, 1], "arrows": [{"id": 0, "src": 0, "dst": 1}], "white": [1.0]},
], ids=["float_src", "float_dst", "bool_src", "string_id", "float_id", "float_vertex",
        "bool_vertex", "bool_white", "float_white"])
def test_json_ids_and_endpoints_must_be_integers(doc):
    """0.9 is not vertex 0, true is not vertex 1 and "1" is not arrow 1."""
    with pytest.raises(QuiverError, match="must be an integer"):
        Quiver.from_json(json.dumps(doc))


def test_constructor_rejects_non_integer_endpoints():
    with pytest.raises(QuiverError, match="arrow 0 source must be an integer"):
        Quiver([0, 1], [(0, 0.9, 1)])
    with pytest.raises(QuiverError, match="white vertex must be an integer"):
        Quiver([0, 1], [(0, 0, 1)]).white_set([True])


def test_double_arrowless_vertex():
    # a single vertex with no arrows doubles to itself (empty involution)
    q = catalog("dynkin_a", 1)
    qd = double(q)
    assert qd.starred and qd.arrows == () and qd.star == {}
