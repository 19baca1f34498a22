import itertools
import math
import random

import pytest

from preproj.freealg import PathContext, preprojective_relation
from preproj.homology import lambda_graded, preprojective_system
from preproj.quiver import Quiver, QuiverError, catalog, classify
from preproj.rewrite import MonomialOrder, complete
from preproj.series import (SeriesError, TruncatedSeries, _euler_product,
                            _one_minus_tm_pow, cartan_t_matrix, chebyshev_like_coeffs, egid_check,
                            hT, hT_of, hilbert_prep, o_series_char_p, o_series_char_zero,
                            sym_plus_series)


def test_free2_series():
    h = hilbert_prep(catalog("free", 2), (), 6)
    assert h.scalar_coeffs() == [1, 4, 15, 56, 209, 780, 2911]


def test_affine_a_determinant():
    det = cartan_t_matrix(catalog("affine_a", 3), (), 9).determinant()
    assert det.scalar_coeffs() == [1, 0, 0, -2, 0, 0, 1, 0, 0, 0]


def _poly_mul(a, b, D):
    """The product of coefficient lists a and b up to t^D, by the double loop."""
    out = [0] * (D + 1)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def _random_scalar(rng, D, c0=None):
    """Signed coefficients, about a third of them zero."""
    coeffs = [rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(D + 1)]
    if c0 is not None:
        coeffs[0] = c0
    return coeffs


def _leibniz(M):
    """det M by the permutation expansion, with products from _poly_mul."""
    det = [0] * (M.D + 1)
    for perm in itertools.permutations(range(M.n)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(M.n), 2))
        term = [1] + [0] * M.D
        for i, j in enumerate(perm):
            term = _poly_mul(term, [c[i][j] for c in M.coeffs], M.D)
        det = [x + (-1) ** inversions * y for x, y in zip(det, term)]
    return TruncatedSeries.scalar(det, M.D)


def test_scalar_product_against_double_loop():
    rng = random.Random(11)
    shapes = [(0, 0), (0, 5), (5, 0)] + [(rng.randrange(10), rng.randrange(10))
                                          for _ in range(200)]
    for Da, Db in shapes:
        a, b = _random_scalar(rng, Da), _random_scalar(rng, Db)
        D = min(Da, Db)
        prod = TruncatedSeries.scalar(a, Da) * TruncatedSeries.scalar(b, Db)
        assert prod.D == D
        assert prod.scalar_coeffs() == _poly_mul(a, b, D), (a, b)


def test_scalar_inverse_round_trip():
    rng = random.Random(12)
    for D in [0, 1] + [rng.randrange(2, 16) for _ in range(100)]:
        a = _random_scalar(rng, D, c0=rng.choice((1, -1)))
        A = TruncatedSeries.scalar(a, D)
        inv = A.inverse()
        assert _poly_mul(a, inv.scalar_coeffs(), D) == [1] + [0] * D, a
        assert inv.inverse() == A
    for c0 in (0, 2, -3):
        with pytest.raises(SeriesError):
            TruncatedSeries.scalar([c0, 1, 1], 2).inverse()


def _matrix_product(A, B, D):
    """The product of per-degree n x n coefficient lists up to t^D, by loops."""
    n = len(A[0])
    return [[[sum(A[k][i][t] * B[d - k][t][j] for k in range(d + 1) for t in range(n))
              for j in range(n)] for i in range(n)] for d in range(D + 1)]


def test_matrix_product_and_inverse_against_loops():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(10):
            D = rng.randrange(0, 8)
            s = rng.choice((1, -1))
            A = [[[s * (i == j) for j in range(n)] for i in range(n)]] + \
                [[[rng.choice((0, rng.randrange(-4, 5))) for _ in range(n)] for _ in range(n)]
                 for _ in range(D)]
            B = [[[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
                 for _ in range(D + 1)]
            M, N = TruncatedSeries(A, D), TruncatedSeries(B, D)
            assert (M * N).coeffs == _matrix_product(A, B, D)
            assert _matrix_product(A, M.inverse().coeffs, D) == TruncatedSeries.one(D, n).coeffs
    assert TruncatedSeries.one(3, 1) != TruncatedSeries.one(3, 2)
    for c0 in ([[1, 1], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]]):
        with pytest.raises(SeriesError):
            TruncatedSeries([c0, [[1, 2], [3, 4]]], 3).inverse()


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


@pytest.mark.parametrize("c0", [[[2, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]],
                         ids=["constant_term_2", "constant_term_0", "second_pivot_0"])
def test_determinant_needs_unit_pivots(c0):
    M = TruncatedSeries([c0, [[1, 1], [1, 1]]], 3)
    with pytest.raises(SeriesError):
        M.determinant()


NEGATIVE_BOUND_CALLS = {
    "hilbert_prep": (SeriesError, lambda q: hilbert_prep(q, (), -1)),
    "o_series_char_zero": (SeriesError, lambda q: o_series_char_zero(q, (), -1)),
    "o_series_char_p": (SeriesError, lambda q: o_series_char_p(q, (), 2, -1)),
    "egid_check": (SeriesError, lambda q: egid_check(q, -1)),
    "scalar": (SeriesError, lambda q: TruncatedSeries.scalar([1], -1)),
    "constructor": (SeriesError, lambda q: TruncatedSeries([[[1]]], -1)),
    "one": (SeriesError, lambda q: TruncatedSeries.one(-1)),
    "hT_of": (SeriesError, lambda q: hT_of(q, 2, -1)),
    "preprojective_system": (QuiverError, lambda q: preprojective_system(q, (), -1)),
    "lambda_graded": (QuiverError, lambda q: lambda_graded(q, (), -1)),
    "lambda_graded_span": (QuiverError, lambda q: lambda_graded(q, (), -1, engine="span")),
    "complete": (QuiverError, lambda q: _complete_relations(q, -1)),
}


def _complete_relations(q, D):
    ctx = PathContext(q)
    return complete(preprojective_relation(ctx), MonomialOrder(ctx), D)


@pytest.mark.parametrize("call", list(NEGATIVE_BOUND_CALLS))
def test_negative_degree_bound_is_an_error(call):
    """D = -1 raises instead of an IndexError, an empty series or an empty report."""
    error, f = NEGATIVE_BOUND_CALLS[call]
    with pytest.raises(error, match="degree bound must be >= 0, got -1"):
        f(catalog("affine_d", 4))


@pytest.mark.parametrize("D", [0, 4])
@pytest.mark.parametrize("m", [0, -1])
def test_substitute_power_needs_positive_m(m, D):
    with pytest.raises(SeriesError):
        TruncatedSeries.scalar(range(D + 1), D).substitute_power(m)


def test_substitute_power():
    s = TruncatedSeries.scalar([1, 2, 3, 4, 5], 4)
    assert s.substitute_power(1) == s
    assert s.substitute_power(2).scalar_coeffs() == [1, 0, 2, 0, 3]
    assert s.substitute_power(5).scalar_coeffs() == [1, 0, 0, 0, 0]


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
    """A Dynkin quiver needs a white vertex; with one, the series is the
    normal-word count of the completed partial relations."""
    q, D = catalog("dynkin_a", 2), 8
    with pytest.raises(SeriesError, match="no white vertex"):
        hilbert_prep(q, (), D)
    for white in ((0,), (1,), (0, 1)):
        ctx = PathContext(q)
        sys_ = complete(preprojective_relation(ctx, white), MonomialOrder(ctx), D)
        assert hilbert_prep(q, white, D) == TruncatedSeries(sys_.normal_count_matrix(D), D)


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
        hT_of(catalog("free", 2), 2, 16)


def test_inverse_roundtrip():
    for nm, args in [("affine_a", (3,)), ("affine_d", (5,)), ("affine_e", (7,))]:
        cart = cartan_t_matrix(catalog(nm, *args), (), 8)
        inv = cart.inverse()
        assert cart * inv == TruncatedSeries.one(8, cart.n)


def test_chebyshev_recurrence():
    q = catalog("affine_d", 4)
    D = 10
    inv = cartan_t_matrix(q, (), D).inverse().coeffs
    C = q.adjacency()
    n = len(C)

    def matmul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    for m in range(1, D):
        lhs = inv[m + 1]
        rhs = [[sum(C[i][k] * inv[m][k][j] for k in range(n))
                - inv[m - 1][i][j] for j in range(n)] for i in range(n)]
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
    """Over F_2 the full symmetric-algebra series assembled from the Euler product
    matches the one built from the computed graded dimensions of Lambda."""
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
    rep, _ = lambda_graded(q, (), D)
    direct = TruncatedSeries.one(D)
    for m in range(1, D + 1):
        r = rep.summaries[m].free_rank
        if r:
            direct = direct * _one_minus_tm_pow(m, -r, D)
    assert direct == o_series_char_zero(q, (), D)


@pytest.mark.parametrize("p", [1, 4, 9, -2])
def test_o_series_char_p_needs_a_prime_or_zero(p):
    with pytest.raises(SeriesError, match="prime or 0"):
        o_series_char_p(catalog("free", 2), (), p, 6)


@pytest.mark.parametrize("white, D", [((), 0), ((), 1), ((), 12), ((0,), 12)])
def test_char_zero_is_the_extra_factor_at_degree_two(white, D):
    """Characteristic 0 keeps the l = 0 factor (1 - t^2)^-1 of the Euler
    product alone, and no factor once a vertex is white."""
    q = catalog("affine_d", 4)
    euler = _euler_product(cartan_t_matrix(q, white, D), D)
    want = euler if white else euler * _one_minus_tm_pow(2, -1, D)
    assert o_series_char_zero(q, white, D) == want
