import itertools
import math
import random

import pytest

from preproj.freealg import PathContext, preprojective_relation
from preproj.quiver import Quiver, QuiverError, catalog, classify
from preproj.rewrite import MonomialOrder, complete
from preproj.series import (SeriesError, TruncatedSeries, _euler_product,
                            _one_minus_tm_pow, cartan_t_matrix, chebyshev_like_coeffs, egid_check,
                            hT, hT_of, hilbert_prep, ncci_check,
                            o_series_char_p, o_series_char_zero,
                            sym_plus_series, zeta)


def test_free2_series():
    h = hilbert_prep(catalog("free", 2), (), 6)
    assert h.scalar_coeffs() == [1, 4, 15, 56, 209, 780, 2911]


def test_affine_a_determinant():
    det = cartan_t_matrix(catalog("affine_a", 3), (), 9).determinant()
    assert det.scalar_coeffs() == [1, 0, 0, -2, 0, 0, 1, 0, 0, 0]


def _leibniz(M):
    """det M by the permutation expansion."""
    det = TruncatedSeries.scalar([0] * (M.D + 1), M.D)
    for perm in itertools.permutations(range(M.n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(M.n), 2))
        term = TruncatedSeries.one(M.D)
        for i, j in enumerate(perm):
            term = term * M.entry(i, j)
        det = det + (-1) ** inversions * term
    return det


def test_determinant_against_permutation_expansion():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            D = rng.randrange(0, 7)
            # constant term upper unitriangular up to the signs of its diagonal
            c0 = [[rng.choice((1, -1)) if i == j else rng.randrange(-3, 4) * (i < j)
                   for j in range(n)] for i in range(n)]
            rest = [[[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                    for _ in range(D)]
            M = TruncatedSeries([c0] + rest, D)
            assert M.determinant() == _leibniz(M)


@pytest.mark.parametrize("c0", [[[2, 0], [0, 1]], [[0, 1], [1, 0]]],
                         ids=["constant_term_2", "constant_term_0"])
def test_determinant_needs_unit_pivots(c0):
    M = TruncatedSeries([c0, [[1, 1], [1, 1]]], 3)
    with pytest.raises(SeriesError):
        M.determinant()


def test_one_minus_tm_pow_against_products():
    D = 13
    for m in range(1, 5):
        base = TruncatedSeries.scalar([1] + [-(d == m) for d in range(1, D + 1)], D)
        for e in range(-6, 7):
            factor = base if e >= 0 else base.inverse()
            want = TruncatedSeries.one(D)
            for _ in range(abs(e)):
                want = want * factor
            assert _one_minus_tm_pow(m, e, D) == want, (m, e)
    # (1 - t^2)^(-1270): the coefficient of t^(2k) is C(1269 + k, k)
    assert _one_minus_tm_pow(2, -1270, 8)[8] == math.comb(1273, 4)


_WILD4 = Quiver([0, 1, 2, 3], [(0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 0), (4, 0, 2)])


@pytest.mark.parametrize("q", [catalog("free", 2), catalog("affine_a", 3),
                               catalog("affine_d", 5), catalog("affine_e", 6),
                               catalog("star", 2, 2, 3), _WILD4],
                         ids=["free2", "affine_a3", "affine_d5", "affine_e6", "star223",
                              "wild4"])
def test_euler_product_against_per_factor_determinants(q):
    D = 10
    for white in ((), (q.vertices[0],)):
        B = cartan_t_matrix(q, white, D)
        want = TruncatedSeries.one(D)
        for m in range(1, D + 1):
            want = want * B.substitute_power(m).determinant().inverse()
        assert _euler_product(B, D) == want


def test_white_vertex_must_exist():
    with pytest.raises(QuiverError):
        cartan_t_matrix(catalog("dynkin_a", 2), (99,), 4)
    with pytest.raises(QuiverError):
        hilbert_prep(catalog("dynkin_a", 2), (99,), 4)


def test_two_vertex_partial_inverse():
    q = Quiver([0, 1], [(0, 0, 1)])
    h = hilbert_prep(q, white=[1], D=4)
    assert h.coeffs[0] == [[1, 0], [0, 1]]
    assert h.coeffs[1] == [[0, 1], [1, 0]]
    assert h.coeffs[2] == [[0, 0], [0, 1]]
    # matches [[1, t], [t, 1 + t^2]]
    assert h.coeffs[3] == [[0, 0], [0, 0]]


def test_dynkin_refused():
    with pytest.raises(SeriesError):
        hilbert_prep(catalog("dynkin_a", 2), (), 4)


def test_sym_plus_series():
    one_gen = TruncatedSeries.scalar([0, 0, 1, 0, 0, 0, 0], 6)
    assert sym_plus_series(one_gen).scalar_coeffs() == [1, 0, 1, 0, 1, 0, 1]
    zero = TruncatedSeries.scalar([0] * 7, 6)
    assert sym_plus_series(zero).scalar_coeffs() == [1, 0, 0, 0, 0, 0, 0]
    two_deg1 = TruncatedSeries.scalar([0, 2, 0, 0], 3)
    assert sym_plus_series(two_deg1).scalar_coeffs() == [1, 2, 3, 4]
    with pytest.raises(SeriesError):
        sym_plus_series(TruncatedSeries.scalar([0, -1], 1))


def test_hT_table():
    assert [d for d, c in enumerate(hT("D", 6, 2, 16).scalar_coeffs()) if c] == [4, 8]
    assert [d for d, c in enumerate(hT("E", 8, 5, 16).scalar_coeffs()) if c] == [10]
    assert not any(hT("A", 5, 3, 16).scalar_coeffs())
    assert [d for d, c in enumerate(hT("E", 7, 2, 20).scalar_coeffs()) if c] == [4, 8, 16]
    assert [d for d, c in enumerate(hT("E", 8, 3, 20).scalar_coeffs()) if c] == [6, 18]
    with pytest.raises(SeriesError):
        hT_of(catalog("free", 2), 2)


def _rewrite_series(q, white, D):
    ctx = PathContext(q)
    sys_ = complete(preprojective_relation(ctx, white), MonomialOrder(ctx), D)
    counts = sys_.normal_count_matrix(D)
    return TruncatedSeries(counts, D)


def test_ncci_check_non_dynkin():
    q = catalog("affine_a", 3)
    hA = _rewrite_series(q, (), 10)
    n = len(q.vertices)
    C = q.adjacency()
    hV = TruncatedSeries([[[0] * n for _ in range(n)], C], 10)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    hL = TruncatedSeries([zero, zero, eye], 10)
    ok, fail = ncci_check(hV, hL, hA)
    assert ok and fail is None


def test_ncci_check_dynkin_fails():
    q = catalog("dynkin_a", 2)
    hA = _rewrite_series(q, (), 6)
    C = q.adjacency()
    zero = [[0, 0], [0, 0]]
    eye = [[1, 0], [0, 1]]
    hV = TruncatedSeries([zero, C], 6)
    hL = TruncatedSeries([zero, zero, eye], 6)
    ok, fail = ncci_check(hV, hL, hA)
    assert not ok and fail is not None and fail <= 6


def test_ncci_free_trivial():
    # free algebra on 4 letters, no relations: h(A) = 1/(1 - 4t)
    hA = TruncatedSeries.scalar([4 ** d for d in range(9)], 8)
    hV = TruncatedSeries.scalar([0, 4] + [0] * 7, 8)
    hL = TruncatedSeries.scalar([0] * 9, 8)
    ok, _ = ncci_check(hV, hL, hA)
    assert ok


def test_zeta():
    z = zeta(TruncatedSeries.scalar([0] * 7, 6), TruncatedSeries.scalar([0] * 7, 6))
    assert z.scalar_coeffs() == [1, 0, 0, 0, 0, 0, 0]
    hV = TruncatedSeries.scalar([0, 4, 0, 0, 0, 0, 0], 6)
    hL = TruncatedSeries.scalar([0, 0, 1, 0, 0, 0, 0], 6)
    z = zeta(hV, hL)
    want = TruncatedSeries.one(6)
    for m in range(1, 7):
        base = [0] * 7
        base[0] = 1
        if m <= 6:
            base[m] -= 4
        if 2 * m <= 6:
            base[2 * m] += 1
        want = want * TruncatedSeries.scalar(base, 6).inverse()
    assert z == want


def test_inverse_roundtrip():
    for nm, args in [("affine_a", (3,)), ("affine_d", (5,)), ("affine_e", (7,))]:
        cart = cartan_t_matrix(catalog(nm, *args), (), 8)
        inv = cart.inverse()
        assert cart * inv == TruncatedSeries.one(8, cart.n)


def test_chebyshev_recurrence():
    q = catalog("affine_d", 4)
    D = 10
    inv = cartan_t_matrix(q, (), D).inverse()
    C = q.adjacency()
    n = len(C)

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for m in range(1, D):
        lhs = inv.coeffs[m + 1]
        rhs = [[sum(C[i][k] * inv.coeffs[m][k][j] for k in range(n))
                - inv.coeffs[m - 1][i][j] for j in range(n)] for i in range(n)]
        assert lhs == rhs


def test_egid_all_extended_dynkin():
    for nm, args, D in [("affine_a", (1,), 10), ("affine_a", (3,), 12),
                        ("affine_d", (4,), 12), ("affine_d", (5,), 12),
                        ("affine_e", (6,), 16), ("affine_e", (7,), 14),
                        ("affine_e", (8,), 14)]:
        assert egid_check(catalog(nm, *args), D), (nm, args)
    with pytest.raises(SeriesError):
        egid_check(catalog("free", 2), 8)


def test_egid_exponent_laws():
    # a_m - a_{m-2} = 2 [n | m] for the n-cycle
    q = catalog("affine_a", 3)
    a = chebyshev_like_coeffs(q, classify(q).extending_vertex, 12)
    a[0] = 0
    for m in range(3, 13):
        assert a[m] - a[m - 2] == (2 if m % 3 == 0 else 0)
    # [(2n-4) | m] + 2 [4 | m] - [2 | m] for type ~D_n
    qd = catalog("affine_d", 4)
    a = chebyshev_like_coeffs(qd, classify(qd).extending_vertex, 12)
    a[0] = 0
    for m in range(3, 13):
        want = int(m % 4 == 0) + 2 * int(m % 4 == 0) - int(m % 2 == 0)
        assert a[m] - a[m - 2] == want
    # 2 [6 | m] + [4 | m] - [2 | m] for type ~E6
    qe = catalog("affine_e", 6)
    a = chebyshev_like_coeffs(qe, classify(qe).extending_vertex, 16)
    a[0] = 0
    for m in range(3, 17):
        want = 2 * int(m % 6 == 0) + int(m % 4 == 0) - int(m % 2 == 0)
        assert a[m] - a[m - 2] == want


def test_char_p_o_series_matches_direct_lambda():
    """Over F_2 the full symmetric-algebra series assembled from the zeta form
    matches the one built from the computed graded dimensions of Lambda."""
    from preproj.homology import lambda_graded

    q = catalog("free", 2)
    D = 6
    rep, _ = lambda_graded(q, (), D)
    dims = []
    for d in range(D + 1):
        s = rep.summaries[d]
        dims.append(s.free_rank + sum(1 for f in s.invariant_factors if f % 2 == 0))
    direct = TruncatedSeries.one(D)
    for m in range(1, D + 1):
        if dims[m]:
            direct = direct * _one_minus_tm_pow(m, -dims[m], D)
    assembled = o_series_char_p(q, (), 2, D)
    assert direct == assembled


def test_char_zero_o_series():
    q = catalog("free", 2)
    D = 6
    from preproj.homology import lambda_graded

    rep, _ = lambda_graded(q, (), D)
    direct = TruncatedSeries.one(D)
    for m in range(1, D + 1):
        r = rep.summaries[m].free_rank
        if r:
            direct = direct * _one_minus_tm_pow(m, -r, D)
    assert direct == o_series_char_zero(q, (), D)
