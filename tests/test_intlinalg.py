import itertools
import random
from fractions import Fraction

import pytest

from preproj.intlinalg import (LatticeSolver, TorsionSummary, apply_col_ops,
                               quotient_structure, smith_normal_form)


def snf_factors(rows):
    """Invariant factors of a dense rectangular matrix given as lists."""
    ncols = len(rows[0]) if rows else 0
    return smith_normal_form([dict(enumerate(r)) for r in rows], ncols).invariant_factors


def test_snf_examples():
    assert snf_factors([[2, 0], [0, 0]]) == (2,)
    assert snf_factors([[2, 4], [6, 8]]) == (2, 4)
    assert snf_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    assert snf_factors([[0, 0], [0, 0]]) == ()


def test_quotient_structure_examples():
    t = quotient_structure(2, [{0: 3, 1: -1}, {1: 3}])
    assert t.free_rank == 0 and t.invariant_factors == (9,)
    t = quotient_structure(1, [])
    assert t.free_rank == 1 and t.is_free()
    t = quotient_structure(2, [{0: 2}])
    assert t.free_rank == 1 and t.invariant_factors == (2,)


def test_saturation_examples():
    assert quotient_structure(2, [{0: 2}]).invariant_factors == (2,)
    assert quotient_structure(2, [{0: 1, 1: 1}]).invariant_factors == ()


def test_explicit_zeros_are_ignored():
    rows = [{0: 0, 1: 2}, {2: 0}]
    t = quotient_structure(3, rows)
    assert (t.free_rank, t.invariant_factors) == (2, (2,))
    assert t == quotient_structure(3, [{1: 2}])
    assert rows == [{0: 0, 1: 2}, {2: 0}]  # the input rows are left as given
    solver = LatticeSolver(3, rows)
    assert solver.order_of({1: 1}) == 2 and solver.order_of({0: 1}) == 0


@pytest.mark.parametrize("bad", [{2: 1}, {-1: 1}, {0: 1, 5: 0}])
def test_column_out_of_range_is_rejected(bad):
    with pytest.raises(ValueError):
        quotient_structure(2, [{0: 1}, bad])
    with pytest.raises(ValueError):
        LatticeSolver(2, [bad])


def _det(mat):
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # compute permutation sign by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        p = sign
        for i in range(n):
            p *= mat[i][perm[i]]
        total += p
    return total


def _minor_gcd_oracle(rows, k):
    """gcd of all k x k minors."""
    import math

    nr, nc = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in itertools.combinations(range(nr), k):
        for ci in itertools.combinations(range(nc), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = math.gcd(g, _det(sub))
    return g


def test_snf_against_minor_gcds():
    """d_1 * ... * d_k = gcd of k x k minors: the classical characterization."""
    import math

    rng = random.Random(23)
    for k in range(25):
        hi = 6 if k < 4 else 4
        nr = rng.randint(1, hi)
        nc = rng.randint(1, hi)
        rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        factors = snf_factors(rows)
        prod = 1
        for k in range(1, min(nr, nc) + 1):
            g = _minor_gcd_oracle(rows, k)
            if k <= len(factors):
                prod *= factors[k - 1]
                assert g == prod, (rows, factors)
            else:
                assert g == 0


def test_divisibility_chain_random():
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(1, 5))]
        width = max(len(r) for r in rows)
        rows = [r + [0] * (width - len(r)) for r in rows]
        f = snf_factors(rows)
        for a, b in zip(f, f[1:]):
            assert b % a == 0


def test_quotient_invariance_under_row_ops():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        base = quotient_structure(n, [dict(enumerate(r)) for r in rows])
        shuffled = rows[:]
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            k = rng.randrange(len(shuffled) - 1)
            shuffled[k] = [a + 3 * b for a, b in zip(shuffled[k], shuffled[k + 1])]
        other = quotient_structure(n, [dict(enumerate(r)) for r in shuffled])
        assert (base.free_rank, base.invariant_factors) == \
            (other.free_rank, other.invariant_factors)


def test_col_journal_diagonalizes():
    """V read off the column journal is unimodular, and every row of M V lies
    in the span of d_j e_j over the pivot columns j."""
    rng = random.Random(31)
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form([dict(enumerate(r)) for r in rows], nc)
        V = [[apply_col_ops({i: 1}, res.col_ops).get(j, 0) for j in range(nc)]
             for i in range(nc)]
        assert abs(_det(V)) == 1
        assert sorted(res.diag_by_col.values()) == list(res.invariant_factors)
        for r in rows:
            mv = [sum(r[k] * V[k][j] for k in range(nc)) for j in range(nc)]
            for j, x in enumerate(mv):
                d = res.diag_by_col.get(j)
                assert (x == 0) if d is None else (x % d == 0), (rows, res)


def _hnf_rows(rows, n):
    """Row-style Hermite form for the membership oracle (integer pivots)."""
    from math import gcd

    basis = {}
    work = [{k: v for k, v in dict(r).items() if v} for r in rows]
    queue = [r for r in work if r]
    while queue:
        r = queue.pop()
        while r:
            j = min(r)
            if j not in basis:
                basis[j] = r
                break
            b = basis[j]
            g = gcd(r[j], b[j])
            # replace (b, r) by combinations with leading entries (g, 0)
            x, y = _bezout(b[j], r[j], g)
            nb = _lin(b, r, x, y)
            nr = _lin(b, r, -(r[j] // g), b[j] // g)
            basis[j] = nb
            r = {k: v for k, v in nr.items() if v}
    return basis


def _bezout(a, b, g):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _lin(r1, r2, c1, c2):
    out = {}
    for k in set(r1) | set(r2):
        v = c1 * r1.get(k, 0) + c2 * r2.get(k, 0)
        if v:
            out[k] = v
    return out


def _member_oracle(rows, n, vec):
    basis = _hnf_rows(rows, n)
    v = {k: x for k, x in vec.items() if x}
    while v:
        j = min(v)
        if j not in basis or v[j] % basis[j][j]:
            return False
        v = _lin(v, basis[j], 1, -(v[j] // basis[j][j]))
    return True


def test_lattice_solver_order_against_oracle():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = [dict((j, rng.randint(-4, 4)) for j in range(n))
                for _ in range(rng.randint(1, 4))]
        rows = [{k: v for k, v in r.items() if v} for r in rows]
        rows = [r for r in rows if r]
        solver = LatticeSolver(n, rows)
        for _ in range(8):
            vec = {j: rng.randint(-3, 3) for j in range(n)}
            vec = {k: v for k, v in vec.items() if v}
            got = solver.order_of(vec)
            if got == 0:
                # no huge multiple lands in the lattice either
                big = 720720  # lcm(1..13)
                assert not _member_oracle(rows, n, {j: big * v for j, v in vec.items()}), \
                    (rows, vec)
            else:
                # got is a period, and minimal among its divisors
                assert _member_oracle(rows, n, {j: got * v for j, v in vec.items()}), \
                    (rows, vec, got)
                for p in (2, 3, 5, 7, 11, 13, 29):
                    if got % p == 0:
                        k = got // p
                        assert not _member_oracle(rows, n, {j: k * v for j, v in vec.items()}), \
                            (rows, vec, got, p)


def test_prime_power_decomposition():
    """Torsion prints as its invariant factors, not as prime powers."""
    t = TorsionSummary(0, (2, 12))
    assert str(t) == "Z/2 + Z/12"


def test_snf_against_sympy():
    """Independent library oracle on random rectangular matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(61)
    for _ in range(20):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        ours = list(snf_factors(rows))
        ref = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        theirs = sorted(abs(ref[i, i]) for i in range(min(nr, nc)) if ref[i, i] != 0)
        assert ours == theirs, (rows, ours, theirs)
