"""The acceptance gate: every criterion at its stated tolerance (exact).

Each criterion prints one pass/fail line; all of them run by default.
"""

import itertools

import pytest

from preproj import acceptance
from preproj.acceptance import CRITERIA, _bounded_triples, _table_match, _w_necklaces
from preproj.freealg import PathContext, canonical_rotation, free_context
from preproj.homology import LambdaComputation
from preproj.quiver import QuiverClass, catalog
from preproj.rewrite import NonUnitLead


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_acceptance(name, fn):
    ok, details = fn()
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {details}")
    assert ok, f"{name}: {details}"


def _parent_triples(degs, bound=8):
    """The all-index loop the necklace criterion used before `_bounded_triples`:
    (pairs, triples) of indices it visited, skipping over-degree ones with
    continue."""
    pairs, triples = set(), set()
    for i in range(len(degs)):
        for j in range(i, len(degs)):
            if degs[i] + degs[j] + 1 > bound:
                continue
            pairs.add((i, j))
            for k in range(j, len(degs)):
                if degs[i] + degs[j] + degs[k] > bound:
                    continue
                triples.add((i, j, k))
    return pairs, triples


@pytest.mark.parametrize("g,count", [(1, 397), (2, 38750)])
def test_bounded_triples_match_the_all_index_loop(g, count):
    ctx = PathContext(catalog("free", g))
    degs = sorted(d for d, _ in ctx.necklaces(1, 6))
    got = list(_bounded_triples(degs, 8))
    triples = {(i, j, k) for i, j, ks in got for k in ks}
    assert len(got) == len({(i, j) for i, j, _ in got})
    assert ({(i, j) for i, j, _ in got}, triples) == _parent_triples(degs)
    assert len(triples) == count


def test_table_match_passes_the_paper_table():
    details = []
    ok, _ = _table_match(catalog("free", 2), 6, {4: (2,), 6: (3,)}, details, "free 2")
    assert ok, details
    assert details == ["free 2 to 6: torsion {4: (2,), 6: (3,)}, "
                       "order(r^(2)) = 2, order(r^(3)) = 3"]


@pytest.mark.parametrize("want", [{4: (2,)}, {4: (2,), 6: (3,), 5: (5,)},
                                  {4: (4,), 6: (3,)}, {4: (2,), 6: (2,)}])
def test_table_match_fails_on_a_wrong_table(want):
    details = []
    assert not _table_match(catalog("free", 2), 6, want, details, "free 2")[0]
    assert "MISMATCH" in details[0]


def test_table_match_checks_orders(monkeypatch):
    monkeypatch.setattr(LambdaComputation, "order_of", lambda self, cls: 1)
    details = []
    assert not _table_match(catalog("free", 2), 6, {4: (2,), 6: (3,)}, details, "free 2")[0]
    assert "order(r^(2)) = 1" in details[0]


def test_table_match_checks_dynkin_free_rank(monkeypatch):
    """Free 2 taken for a Dynkin quiver fails on its free part."""
    monkeypatch.setattr(acceptance, "classify", lambda q: QuiverClass("dynkin", "A", 1))
    details = []
    assert not _table_match(catalog("free", 2), 4, {4: (2,)}, details, "free 2")[0]
    assert "free rank nonzero at [1, 2, 3, 4]" in details[0]


def test_hilbert_match_counts_no_sample_without_unit_leads(monkeypatch):
    def no_unit_lead(*args):
        raise NonUnitLead(None)

    monkeypatch.setattr(acceptance, "preprojective_system", no_unit_lead)
    details = []
    assert not acceptance._hilbert_match(catalog("free", 2), (), 4, details, "free 2")
    assert details == ["free 2: non-unit leading coefficient, not counted; fails"]

    def crash(*args):
        raise ValueError("not a completion failure")

    monkeypatch.setattr(acceptance, "preprojective_system", crash)
    with pytest.raises(ValueError):
        acceptance._hilbert_match(catalog("free", 2), (), 4, [], "free 2")


@pytest.mark.parametrize("mutate,mismatch", [
    (lambda pres: pres.brackets.update({(0, 1): {e: -c for e, c in pres.brackets[0, 1].items()}}),
     "{X,Y} MISMATCH"),
    (lambda pres: pres.relation.update({e: -c for e, c in list(pres.relation.items())[:1]}),
     "F MISMATCH"),
], ids=["negated_bracket", "wrong_relation"])
def test_poisson_presentations_check_what_hp0_reads(monkeypatch, mutate, mismatch):
    """A wrong bracket or relation in poisson_presentation fails every corner."""
    real = acceptance.poisson_presentation

    def mutated(kind, n=0):
        pres = real(kind, n)
        mutate(pres)
        return pres

    monkeypatch.setattr(acceptance, "poisson_presentation", mutated)
    ok, details = acceptance.crit_poisson_presentations()
    assert not ok
    assert details.count(mismatch) == 5, details


def test_w_lattice_listings_are_the_least_rotations():
    """Each (a, b) <= (4, 4) ambient of the W_{a,b} criterion lists, once
    each, the least rotations of the words over x, y, r with #x + #r = a
    and #y + #r = b."""
    want = {}
    for n in range(1, 9):
        for w in itertools.product(range(3), repeat=n):
            ab = (w.count(0) + w.count(2), w.count(1) + w.count(2))
            if max(ab) <= 4:
                want.setdefault(ab, set()).add(canonical_rotation(w))
    got = _w_necklaces(free_context(["x", "y", "r"]))
    assert all(len(words) == len(set(words)) for words in got.values())
    assert {ab: set(words) for ab, words in got.items()} == want
    assert all((a, b) in got for a in range(1, 5) for b in range(1, 5))
