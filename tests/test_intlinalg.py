import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from preproj.intlinalg import (LatticeSolver, TorsionSummary, integer_kernel,
                               quotient_structure, smith_normal_form, v_rows)


def apply_col_ops(vec: dict, ops):
    """Reference: replay a journal of column operations forward on a sparse
    row vector, v <- v V.  Each entry (dst, src, c) adds c times column src
    to column dst.  Explicit zero entries of vec are dropped."""
    v = {j: x for j, x in vec.items() if x}
    for dst, src, c in ops:
        if src in v:
            s = v.get(dst, 0) + c * v[src]
            if s:
                v[dst] = s
            else:
                v.pop(dst, None)
    return v


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
    assert solver.order_of({1: 1, 2: 0}) == 2  # a zero outside the span is no obstacle


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
    in the span of d_j e_j over the pivot columns j.  The diagonal d_j need
    not be a chain; its chain is the invariant factors."""
    rng = random.Random(31)
    for _ in range(25):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form([dict(enumerate(r)) for r in rows], nc)
        V = [[apply_col_ops({i: 1}, res.col_ops).get(j, 0) for j in range(nc)]
             for i in range(nc)]
        assert abs(_det(V)) == 1
        diag, f = list(res.diag_by_col.values()), res.invariant_factors
        assert len(diag) == len(f) and math.prod(diag) == math.prod(f)
        assert all(b % a == 0 for a, b in zip(f, f[1:]))
        for r in rows:
            mv = [sum(r[k] * V[k][j] for k in range(nc)) for j in range(nc)]
            for j, x in enumerate(mv):
                d = res.diag_by_col.get(j)
                assert (x == 0) if d is None else (x % d == 0), (rows, res)


@pytest.mark.parametrize("rows, ncols, factors, orders", [
    ([{0: 2}, {0: 3}], 1, (1,), [({0: 1}, 1)]),             # remainder below the pivot
    ([{0: 2, 1: 3}], 2, (1,), [({0: 2, 1: 3}, 1), ({0: 1}, 0)]),  # remainder right of it
    ([{0: 4, 1: 6}, {0: 6, 1: 4}], 2, (2, 10),
     [({0: 1}, 10), ({0: 2}, 5), ({0: 2, 1: 2}, 5), ({0: 10, 1: 2}, 5)]),
    ([{0: 6}, {1: 4}], 2, (2, 12), [({0: 1}, 6), ({1: 1}, 4), ({0: 1, 1: 1}, 12)]),
])
def test_euclid_restarts(rows, ncols, factors, orders):
    """A pivot that leaves a remainder in its column or its row hands over to
    it; the journal holds only (dst, src, c) column additions, and the chain
    and the orders are those of the lattice, whatever the diagonal."""
    res = smith_normal_form(rows, ncols)
    assert res.invariant_factors == factors
    assert all(len(op) == 3 and all(isinstance(x, int) for x in op) for op in res.col_ops)
    solver = LatticeSolver(ncols, rows)
    for vec, k in orders:
        assert solver.order_of(vec) == k, (rows, vec)
        _assert_order_against_oracle(rows, ncols, vec, k)


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
            _assert_order_against_oracle(rows, n, vec, solver.order_of(vec))


def _assert_order_against_oracle(rows, n, vec, got):
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


def _rank(rows, ncols):
    """Rank over Q of a matrix given as sparse rows."""
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_integer_kernel_random():
    """Seeded sparse matrices, some with dependent and zero rows, built to
    kill a planted primitive vector z0: the basis solves M z = 0, has
    ncols - rank vectors, and spans z0 over Z."""
    rng = random.Random(23)
    for _ in range(60):
        ncols = rng.randint(1, 7)
        z0 = [rng.randint(-3, 3) for _ in range(ncols)]
        if not any(z0):
            z0[0] = 1
        g = math.gcd(*z0)
        z0 = [x // g for x in z0]
        norm = sum(x * x for x in z0)
        rows = []
        for _ in range(rng.randint(0, 6)):
            kind = rng.random()
            if kind < 0.15:
                rows.append({})
                continue
            if kind < 0.35 and rows:
                # a combination of earlier rows: the rank does not grow
                r1, r2 = rng.choice(rows), rng.choice(rows)
                c1, c2 = rng.randint(-2, 2), rng.randint(-2, 2)
                dense = [c1 * r1.get(j, 0) + c2 * r2.get(j, 0) for j in range(ncols)]
            else:
                support = rng.sample(range(ncols), rng.randint(1, min(3, ncols)))
                r = {j: rng.randint(-4, 4) for j in support}
                dot = sum(v * z0[j] for j, v in r.items())
                dense = [norm * r.get(j, 0) - dot * z0[j] for j in range(ncols)]
            rows.append({j: v for j, v in enumerate(dense) if v})
        basis = integer_kernel(rows, ncols)
        for z in basis:
            assert all(sum(v * z[j] for j, v in r.items()) == 0 for r in rows), (rows, z)
        assert len(basis) == ncols - _rank(rows, ncols)
        span = LatticeSolver(ncols, [dict(enumerate(z)) for z in basis])
        assert span.order_of(dict(enumerate(z0))) == 1, (rows, z0, basis)


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


def _mixed_modulus_matrices():
    """Seeded sparse matrices with weight-one rows c e_j, |c| in {2, 3, 4, 6}
    and either sign: some columns hold two of them, most also hold entries
    of other rows (many of them units), and the last column holds one alone."""
    rng = random.Random(113)
    out = []
    for _ in range(10):
        nc = rng.randint(10, 20)
        rows = [{j: rng.choice((1, -1, 1, -1, 2, -3, 5)) for j in
                 rng.sample(range(nc), rng.randint(2, 5))} for _ in range(rng.randint(6, nc))]
        for j in rng.sample(range(nc), rng.randint(3, nc // 2)):
            for _ in range(rng.choice((1, 1, 2))):
                rows.append({j: rng.choice((2, 3, 4, 6, -2, -3, -4, -6))})
        rows.append({nc: rng.choice((2, 3, 4, 6, -2, -3, -4, -6))})
        rng.shuffle(rows)
        out.append((rows, nc + 1))
    return out


def test_markowitz_unit_phase_against_oracles():
    """Seeded sparse matrices of about 30 x 30 with mostly +-1 entries and
    rows of unequal length, so phase 1 takes most pivots and its Markowitz
    order differs from the order the unit entries are found in, and the
    mixed-modulus matrices, whose weight-one rows reduce their columns: the
    invariant factors match sympy, order_of matches the membership oracle,
    on relation combinations and on arbitrary vectors, and integer_kernel
    solves M z = 0 with the basis read off the forward replay."""
    pytest.importorskip("sympy")
    rng = random.Random(89)
    for _ in range(6):
        nr, nc = rng.randint(26, 34), rng.randint(26, 34)
        rows = []
        for _ in range(nr):
            support = rng.sample(range(nc), rng.randint(1, 6))
            rows.append({j: rng.choice((1, -1, 1, -1, 1, -1, 2, -3)) for j in support})
        _check_against_oracles(rows, nc, rng)
    for rows, nc in _mixed_modulus_matrices():
        _check_against_oracles(rows, nc, rng)


def _check_against_oracles(rows, nc, rng):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    solver = LatticeSolver(nc, rows)
    ref = sympy_snf(sympy.Matrix([[r.get(j, 0) for j in range(nc)] for r in rows]),
                    domain=sympy.ZZ)
    theirs = sorted(abs(ref[i, i]) for i in range(min(len(rows), nc)) if ref[i, i] != 0)
    assert list(solver.res.invariant_factors) == theirs, rows
    for _ in range(6):
        picks = [(rng.choice(rows), rng.randint(-2, 2)) for _ in range(3)]
        vec = {}
        for r, c in picks:
            for j, x in r.items():
                vec[j] = vec.get(j, 0) + c * x
        vec[rng.randrange(nc)] = rng.randint(-3, 3)
        vec = {j: x for j, x in vec.items() if x}
        _assert_order_against_oracle(rows, nc, vec, solver.order_of(vec))
    basis = integer_kernel(rows, nc)
    for z in basis:
        assert all(sum(v * z[j] for j, v in r.items()) == 0 for r in rows), (rows, z)
    assert basis == _reference_kernel(rows, nc), rows


# ---------------------------------------------------------------------------
# the rows of V against the forward replay of the journal


def _reference_order(res, vec):
    """order_of by a forward replay of the whole journal."""
    k = 1
    for j, val in apply_col_ops(vec, res.col_ops).items():
        d = res.diag_by_col.get(j)
        if d is None:
            return 0
        need = d // math.gcd(d, val % d)
        k = k * need // math.gcd(k, need)
    return k


def _reference_kernel(rows, ncols):
    res = smith_normal_form(rows, ncols)
    V = [apply_col_ops({i: 1}, res.col_ops) for i in range(ncols)]
    return [[V[i].get(j, 0) for i in range(ncols)]
            for j in range(ncols) if j not in res.diag_by_col]


def _random_matrices(kind):
    """Seeded (rows, ncols): dense with small entries, or sparse with mostly
    unit entries (the shape of the relation matrices)."""
    rng = random.Random(97 if kind == "dense" else 98)
    out = []
    for _ in range(30):
        nr, nc = rng.randint(1, 12), rng.randint(1, 12)
        if kind == "dense":
            rows = [{j: rng.randint(-6, 6) for j in range(nc)} for _ in range(nr)]
        else:
            rows = [{j: rng.choice((1, -1, 1, -1, 2, -3)) for j in
                     rng.sample(range(nc), rng.randint(1, min(3, nc)))} for _ in range(nr)]
        out.append(([{j: v for j, v in r.items() if v} for r in rows], nc))
    return out


@pytest.fixture(scope="module")
def free2_lattices():
    """The degree-7 lattices of `free 2`: the normal-engine relations, and
    the span-engine relations plus 2 Z^n (the F_2 lattice)."""
    from preproj import (LambdaComputation, PathContext, catalog,
                         preprojective_relation, preprojective_system)

    q = catalog("free", 2)
    ctx = PathContext(q)
    normal = LambdaComputation(ctx, preprojective_system(q, (), 7, ctx=ctx), engine="normal")
    span = LambdaComputation(ctx, None, ideal_gens=preprojective_relation(ctx, ()),
                             engine="span")
    n = len(span.ambient_keys(7))
    return {"normal_d7": [(normal.relation_rows(7), len(normal.ambient_keys(7)))],
            "f2_d7": [(span.relation_rows(7) + [{j: 2} for j in range(n)], n)]}


def _matrices(case, free2_lattices):
    return free2_lattices[case] if case in free2_lattices else _random_matrices(case)


@pytest.mark.parametrize("case", ["dense", "sparse", "normal_d7", "f2_d7"])
def test_v_rows_match_forward_replay(case, free2_lattices):
    """Every row e_i V built by the backward pass equals the journal replayed
    forward on e_i."""
    for rows, n in _matrices(case, free2_lattices):
        res = smith_normal_form(rows, n)
        V = v_rows(res.col_ops)
        assert all(0 <= i < n for i in V)
        for i in range(n):
            assert V.get(i, {i: 1}) == apply_col_ops({i: 1}, res.col_ops), (case, i)


@pytest.mark.parametrize("case", ["dense", "sparse", "normal_d7", "f2_d7"])
def test_order_of_matches_forward_replay(case, free2_lattices):
    """Seeded relation combinations and sparse vectors, with explicit zeros
    and keys outside 0..n-1 mixed in: the same orders as the replay, or a
    ValueError for a nonzero entry outside."""
    rng = random.Random(101)
    for rows, n in _matrices(case, free2_lattices):
        solver = LatticeSolver(n, rows)
        for _ in range(20 if n > 100 else 4):
            vec = {}
            for _ in range(rng.randint(0, 3)):
                c = rng.randint(-3, 3)
                for j, x in rng.choice(rows).items():
                    vec[j] = vec.get(j, 0) + c * x
            for _ in range(rng.randint(0, 2)):
                vec[rng.randrange(n)] = rng.randint(-3, 3)
            if rng.random() < 0.3:
                vec[rng.choice((n, n + 5, -1))] = rng.choice((0, 1))
            if any(x and not 0 <= j < n for j, x in vec.items()):
                with pytest.raises(ValueError):
                    solver.order_of(vec)
                continue
            assert solver.order_of(vec) == _reference_order(solver.res, vec), (case, vec)


def test_order_of_zero_entries_and_keys_outside():
    """The rows of V for (1, 1, 1) cancel outside its pivot column, and zero
    entries, in range or not, are no obstacle; a nonzero key outside 0..n-1
    is a ValueError."""
    solver = LatticeSolver(3, [{0: 2, 1: 2, 2: 2}])
    assert solver.res.col_ops
    assert solver.order_of({0: 1, 1: 1, 2: 1}) == 2
    assert solver.order_of({0: 2, 1: 2, 2: 2, 3: 0, -1: 0}) == 1
    assert solver.order_of({0: 0, 1: 0}) == 1 and solver.order_of({}) == 1
    assert solver.order_of({0: 1, 1: -1}) == 0
    for vec in ({3: 1}, {-1: 1}, {0: 2, 1: 2, 2: 2, 7: 1}):
        with pytest.raises(ValueError, match="outside 0..2"):
            solver.order_of(vec)


def test_lattice_solver_rejects_coordinates_outside_its_ambient():
    """A coordinate the lattice never saw, on the path that reads e_i and on
    the path that reads a row of V, and a negative ambient rank."""
    for solver in (LatticeSolver(2, [{0: 2}]), LatticeSolver(2, [])):
        for vec in ({5: 1}, {-1: 1}, {0: 1, 2: -3}):
            with pytest.raises(ValueError, match="outside 0..1"):
                solver.order_of(vec)
        assert solver.order_of({1: 0, 5: 0, -1: 0}) == 1
    with pytest.raises(ValueError, match="negative column count -1"):
        LatticeSolver(-1, [])
    with pytest.raises(ValueError, match="negative column count -2"):
        integer_kernel([], -2)


def test_weight_one_rows_shorten_the_f2_journal(free2_lattices):
    """The rows 2 e_j of the F_2 lattice of `free 2` at degree 7 keep their
    columns reduced mod 2, so no unit pivot fills them and those left alone
    in their column are pivots with no operation: 2,924 journal ops, where
    eliminating them like any other row wrote 3,383."""
    (rows, n), = free2_lattices["f2_d7"]
    assert len(smith_normal_form(rows, n).col_ops) == 2924


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_integer_kernel_is_the_reference_basis(kind):
    """The same basis, vector for vector, as the kernel read off the forward
    replay: integer_kernel reads the rows of V built backwards, and must not
    change the basis by doing so.  One-row matrices included."""
    rng = random.Random(103)
    one_row = [([{j: rng.choice((1, -1, 2, -2, 3)) for j in range(n)}], n)
               for n in range(1, 9)]
    for rows, n in _random_matrices(kind) + one_row:
        assert integer_kernel(rows, n) == _reference_kernel(rows, n), rows


# ---------------------------------------------------------------------------
# the unit phase's pivot order, pinned

# sha256 of repr((col_ops, list(diag_by_col.items()), invariant_factors)) for
# each matrix of a case in turn, computed with a heap of (cost, seq) keys, seq
# counting down: the cost buckets, last in first out within a cost, must take
# the same pivots and write the same journal.  The cases whose matrices hold
# weight-one rows c e_j with |c| > 1 (dense, sparse, f2_d7 and the E8 pair)
# were pinned again when those rows began to reduce their columns, and
# dense, normal_d7, normal_d8 and star_2211_d14 when the residue phase began
# to pivot on its least entry, and star_2211_d14 again when completion
# stopped replaying the all-pairs order of S-pairs within a length (its rows
# follow the rules' install order); the answers are pinned apart, in
# PINNED_ANSWER_DIGESTS
PINNED_SNF_DIGESTS = {
    "dense": "d6502ff98b596251def39d65e94ef7c8dc7d88dadb7a208811584fd2ed2fccae",
    "sparse": "1170dbb6c8872efabf1669d8cc11ce55a170f0ce40733b4fb384869405b1b0e9",
    "f2_d7": "84421eeefaec1f8382d64e15af06717f17c8d91c3597308c9be8b61ad13518aa",
    "normal_d7": "425e3634af3663fbac4bca0925355fa976596219b7ec9bf3cfa2a175889738b0",
    "normal_d8": "4f959039af33225b58ada128d3276247afad8e95e6ccf46678029fdece93d28e",
    "star_2211_d14": "879427339d3e3252e111676aa6a51a111eb1a7b49e59520ad57bd05f374e150b",
    "e8_d28": "1e16384df9f022b0fbb81adb4c14ad54183b35e620ce93ca56fbb9b1097c96ec",
    "affine_e8_d28": "499389b2cbda2b2e695de8a23be20a2f2d2aa55f777f521de2b7f56ac286424d",
}


def _commutator_matrix(comp, d):
    """The normal engine's commutator rows at degree d, zero rows dropped
    and an exact repeat kept at its first position with the last one's
    items, and the ambient rank: the matrices the pins below were computed
    from, apart from the rule relation_rows keeps rows by."""
    rows = {}
    for row in comp._commutator_rows(d, comp._degree(d).col):
        if row:
            rows[frozenset(row.items())] = row
    return list(rows.values()), len(comp.ambient_keys(d))


@pytest.fixture(scope="module")
def pinned_matrices(free2_lattices):
    """The seeded random matrices, the F_2 lattice of `free 2` at degree 7,
    the `free 2` normal-engine matrices at degrees 7 and 8, the matrices of
    the wild tree `star 2 2 1 1` at degrees 0..14 under an arrow order whose
    completion is finite, and the normal-engine matrices of E8 and ~E8 at
    degrees 0..28, where most walks end at a leading word."""
    from preproj import (LambdaComputation, PathContext, catalog,
                         preprojective_system)

    q = catalog("free", 2)
    ctx = PathContext(q)
    normal = LambdaComputation(ctx, preprojective_system(q, (), 8, ctx=ctx), engine="normal")
    out = {kind: _random_matrices(kind) for kind in ("dense", "sparse")}
    out["f2_d7"] = free2_lattices["f2_d7"]
    for d in (7, 8):
        out[f"normal_d{d}"] = [_commutator_matrix(normal, d)]
    q = catalog("star", 2, 2, 1, 1)
    ctx = PathContext(q)
    order = [8, 4, 7, 10, 1, 5, 9, 2, 6, 11, 3, 0]
    tree = LambdaComputation(ctx, preprojective_system(q, (), 14, ctx=ctx, arrow_order=order),
                             engine="normal")
    out["star_2211_d14"] = [_commutator_matrix(tree, d) for d in range(15)]
    for case, name, p in (("e8_d28", "dynkin_e", 8), ("affine_e8_d28", "affine_e", 8)):
        q = catalog(name, p)
        ctx = PathContext(q)
        comp = LambdaComputation(ctx, preprojective_system(q, (), 28, ctx=ctx), engine="normal")
        out[case] = [_commutator_matrix(comp, d) for d in range(29)]
    return out


@pytest.mark.parametrize("case", list(PINNED_SNF_DIGESTS))
def test_unit_phase_pivot_order_is_pinned(case, pinned_matrices):
    """The pivots, journal, diagonal and invariant factors of every matrix of
    the case hash to the pinned digest; a first-in-first-out tie-break within
    a cost changes them."""
    h = hashlib.sha256()
    for rows, n in pinned_matrices[case]:
        res = smith_normal_form(rows, n)
        h.update(repr((res.col_ops, list(res.diag_by_col.items()),
                       res.invariant_factors)).encode())
    assert h.hexdigest() == PINNED_SNF_DIGESTS[case]


# sha256 of repr((invariant_factors, orders)) for each matrix of a case in
# turn, orders being order_of on seeded vectors (relation combinations with
# sparse entries added, and sparse vectors alone): the answers of the cases
# whose journals a change of pivots moves, pinned apart from the journals
PINNED_ANSWER_DIGESTS = {
    "dense": "6c5d0b805177f872c2beb780735e14f99fa05173fba7156f8373c7f79eeb5987",
    "sparse": "e0fe2f87dc9549c4cbdfae584feba8fb47e44f5e526b55d7976c56d7b39d227a",
    "f2_d7": "f6a4981b60075947de0919e7dc6172e6363267bcc8f725dabc9b3903620fed57",
    "e8_d28": "ed1605060c5c9f68b4ce1a32966b8143c05e74a834ed75efe1e5cd7a2b111cd0",
    "affine_e8_d28": "d687d443900f46482f8d0f138b97c3959f9b8f4a3418f3486dcde0859841c80f",
    "normal_d7": "8ea0e08beb3e2fb72ac664f8eeff37f2035f21a38320857994326fe440724b2d",
    "normal_d8": "d89123e4e9ba0437570fdf4673e9152cc809de4602d19eb4e95edbe17f222fb8",
    "star_2211_d14": "d1523fe6842ccfe861bad75d68019c5c5c5f46ade786551bc703300cd011d5e6",
}


@pytest.mark.parametrize("case", list(PINNED_ANSWER_DIGESTS))
def test_answers_of_the_pinned_matrices_are_pinned(case, pinned_matrices):
    """The invariant factors and the orders of seeded vectors hash to the
    pinned digest, whatever the pivots and the journal."""
    rng = random.Random(107)
    h = hashlib.sha256()
    for rows, n in pinned_matrices[case]:
        solver = LatticeSolver(n, rows)
        orders = []
        for k in range(min(max(n, 4), 40)):
            vec = {}
            if rows and k % 2 == 0:
                for _ in range(rng.randint(1, 3)):
                    c = rng.randint(-3, 3)
                    for j, x in rng.choice(rows).items():
                        vec[j] = vec.get(j, 0) + c * x
            for _ in range(rng.randint(1, 3) if n else 0):
                j = rng.randrange(n)
                vec[j] = vec.get(j, 0) + rng.randint(-3, 3)
            orders.append(solver.order_of(vec))
        h.update(repr((solver.res.invariant_factors, orders)).encode())
    assert h.hexdigest() == PINNED_ANSWER_DIGESTS[case]
