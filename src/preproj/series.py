"""Truncated power series with exact integer matrix coefficients, and the
Hilbert-series identities for (partial) preprojective algebras.

A TruncatedSeries holds coefficients 0..D by entry: rows[i][j] is the
integer list of its (i, j) coefficients, and a scalar is the 1x1 case.  It
is the module's only series type.  Every product, inverse, determinant and
Euler product, whatever the size, runs on these lists through two kernels,
`_conv` and `_inv`.  All arithmetic is exact over Z; inversion requires the
constant term to be the identity up to sign.
"""

from __future__ import annotations

from .intlinalg import _is_prime
from .quiver import Quiver, QuiverError, classify


class SeriesError(ValueError):
    pass


def _bound(D):
    """D itself when it is a degree bound, D >= 0; else SeriesError."""
    if D < 0:
        raise SeriesError(f"degree bound must be >= 0, got {D}")
    return D


def _fit(a, D):
    """The integer list a cut or padded with zeros to coefficients 0..D."""
    a = a[:D + 1]
    return a + [0] * (D + 1 - len(a))


def _sub_power(a, m, D):
    """The integer list a under t -> t^m, coefficients 0..D."""
    out = [0] * (D + 1)
    out[::m] = a[:D // m + 1]
    return out


def _conv(a, b, D):
    """The product of integer lists a and b, coefficients 0..D."""
    out = [0] * (D + 1)
    nb = [(j, y) for j, y in enumerate(b[:D + 1]) if y]
    for i, x in enumerate(a[:D + 1]):
        if x:
            for j, y in nb:
                if i + j > D:
                    break
                out[i + j] += x * y
    return out


def _inv(A, D):
    """The inverse of an n x n matrix A of integer lists, coefficients 0..D.

    The constant term must be s times the identity, s = +-1.  Then
    H_0 = s and H_d = -s * sum_{k>=1} A_k H_{d-k}, zero entries of A skipped.
    """
    s = A[0][0][0]
    if s not in (1, -1) or any(e[0] != s * (i == j)
                               for i, row in enumerate(A) for j, e in enumerate(row)):
        raise SeriesError("constant term must be the identity up to sign")
    n = len(A)
    H = [[[s * (i == j)] + [0] * D for j in range(n)] for i in range(n)]
    # per entry (i, j): its list, and the nonzero (k, H_tj, A[i][t][k]), k >= 1, by k
    plan = []
    for i, row in enumerate(A):
        terms = sorted((k, t, x) for t, e in enumerate(row)
                       for k, x in enumerate(e[1:D + 1], 1) if x)
        plan += [(H[i][j], [(k, H[t][j], x) for k, t, x in terms]) for j in range(n)]
    for d in range(1, D + 1):
        for h, terms in plan:
            acc = 0
            for k, ht, x in terms:
                if k > d:
                    break
                acc += x * ht[d - k]
            h[d] = -s * acc
    return H


class TruncatedSeries:
    """Matrix power series truncated at degree D (inclusive)."""

    def __init__(self, coeffs, D=None):
        coeffs = [[[c]] if isinstance(c, int) else c for c in coeffs]
        D = _bound(len(coeffs) - 1 if D is None else D)
        n = len(coeffs[0]) if coeffs else 1
        self.rows = [[_fit([c[i][j] for c in coeffs], D) for j in range(n)] for i in range(n)]
        self.D = D
        self.n = n

    @classmethod
    def _of(cls, rows, D):
        """The series whose entry lists, each of length D + 1, are rows."""
        out = cls.__new__(cls)
        out.rows, out.D, out.n = rows, _bound(D), len(rows)
        return out

    @staticmethod
    def scalar(values, D=None):
        values = list(values)
        D = len(values) - 1 if D is None else D
        return TruncatedSeries._of([[_fit(values, D)]], D)

    @staticmethod
    def one(D, n=1):
        return TruncatedSeries._of([[_fit([int(i == j)], D) for j in range(n)]
                                    for i in range(n)], D)

    @property
    def coeffs(self):
        """The per-degree n x n coefficient matrices, built on each read."""
        return [[[e[d] for e in row] for row in self.rows] for d in range(self.D + 1)]

    def scalar_coeffs(self):
        if self.n != 1:
            raise SeriesError("matrix series; pick an entry first")
        return list(self.rows[0][0])

    def entry(self, i, j):
        return TruncatedSeries._of([[self.rows[i][j]]], self.D)

    def __getitem__(self, d):
        return self.rows[0][0][d] if self.n == 1 else [[e[d] for e in row] for row in self.rows]

    def __add__(self, other):
        other = self._coerce(other)
        D = min(self.D, other.D)
        return TruncatedSeries._of([[[x + y for x, y in zip(a[:D + 1], b)]
                                     for a, b in zip(ra, rb)]
                                    for ra, rb in zip(self.rows, other.rows)], D)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return -1 * self

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if other.n != self.n:
                raise SeriesError("dimension mismatch")
            return other
        return other * TruncatedSeries.one(self.D, self.n)

    def __mul__(self, other):
        """sum_t A_it * B_tj entry by entry, zero entries skipped."""
        other = self._coerce(other)
        D = min(self.D, other.D)
        out = []
        for ra in self.rows:
            row = []
            for col in zip(*other.rows):
                acc = [0] * (D + 1)
                for a, b in zip(ra, col):
                    if any(a) and any(b):
                        acc = [x + y for x, y in zip(acc, _conv(a, b, D))]
                row.append(acc)
            out.append(row)
        return TruncatedSeries._of(out, D)

    def __rmul__(self, c):
        return TruncatedSeries._of([[[c * x for x in e] for e in row] for row in self.rows],
                                   self.D)

    def inverse(self):
        """Series inverse; constant term must be +-identity."""
        return TruncatedSeries._of(_inv(self.rows, self.D), self.D)

    def substitute_power(self, m):
        """t -> t^m, for m >= 1."""
        if m < 1:
            raise SeriesError(f"substitute t -> t^m needs m >= 1, not {m}")
        return TruncatedSeries._of([[_sub_power(e, m, self.D) for e in row]
                                    for row in self.rows], self.D)

    def determinant(self):
        """det as a scalar series, by elimination over Z[[t]]/t^(D+1).

        Every pivot must have constant term +-1, so that its inverse is
        integral; that holds whenever the constant term of the matrix is the
        identity (the t-Cartan matrices, 1 - h(V) + h(L) with V and L in
        positive degree).  Any other pivot raises SeriesError.
        """
        D, n = self.D, self.n
        A = [list(row) for row in self.rows]
        det = [1] + [0] * D
        for k, row in enumerate(A):
            pinv = _inv([[row[k]]], D)[0][0]
            det = _conv(det, row[k], D)
            for below in A[k + 1:]:
                if any(below[k]):
                    f = _conv(below[k], pinv, D)
                    for j in range(k + 1, n):
                        below[j] = [x - y for x, y in zip(below[j], _conv(f, row[j], D))]
        return TruncatedSeries._of([[det]], D)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        D = min(self.D, other.D)
        return self.n == other.n and all(
            a[:D + 1] == b[:D + 1]
            for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def __repr__(self):
        if self.n == 1:
            return "TruncatedSeries(" + ", ".join(str(c) for c in self.rows[0][0]) + ")"
        return f"TruncatedSeries({self.n}x{self.n}, D={self.D})"


def cartan_t_matrix(q: Quiver, white, D) -> TruncatedSeries:
    """1 - t*C + t^2 * 1_black, C the adjacency matrix of the double."""
    white = q.white_set(white)
    rows = [[_fit([int(i == j), -c, int(i == j and v not in white)], D)
             for j, c in enumerate(Ci)]
            for i, (v, Ci) in enumerate(zip(q.vertices, q.adjacency()))]
    return TruncatedSeries._of(rows, D)


def hilbert_prep(q: Quiver, white, D) -> TruncatedSeries:
    """Matrix Hilbert series (1 - tC + t^2 1_black)^{-1} of Pi_{Q,J}.

    Valid when some vertex is white or Q is not Dynkin; refused for Dynkin
    quivers with no white vertex, where the formula fails.
    """
    if q.starred:
        raise QuiverError("pass the undoubled quiver")
    if not set(white) and classify(q).is_dynkin():
        raise SeriesError("Dynkin quiver with no white vertex: the inverse-Cartan "
                          "formula does not give the Hilbert series")
    return cartan_t_matrix(q, white, D).inverse()


def sym_plus_series(hh0: TruncatedSeries) -> TruncatedSeries:
    """prod_m (1 - t^m)^{-a_m} for a scalar series with a_m >= 0, m >= 1."""
    a = hh0.scalar_coeffs()
    D = hh0.D
    for m, am in enumerate(a[1:D + 1], 1):
        if am < 0:
            raise SeriesError(f"negative coefficient a_{m} = {am}")
    return _power_product(a, D)


def _power_product(e, D):
    """prod_{m=1..D} (1 - t^m)^{-e[m]} for signed integer exponents e[m]."""
    out = [1] + [0] * D
    for m, em in enumerate(e[1:D + 1], 1):
        if em:
            out = _conv(out, _one_minus_tm_pow(m, -em, D).scalar_coeffs(), D)
    return TruncatedSeries.scalar(out, D)


def _one_minus_tm_pow(m, e, D):
    """(1 - t^m)^e as a truncated scalar series, any integer e.

    The coefficient of t^(mk) is c_k = (-1)^k C(e, k), and
    c_{k+1} = c_k (k - e) / (k + 1), a division that is always exact.
    """
    coeffs = [0] * (D + 1)
    c = 1
    for k in range(D // m + 1):
        coeffs[m * k] = c
        c = c * (k - e) // (k + 1)
    return TruncatedSeries.scalar(coeffs, D)


def hT(family: str, rank: int, p: int, D) -> TruncatedSeries:
    """Closed-form Hilbert series of the torsion of Lambda for extended Dynkin
    types, per characteristic p; zero outside the listed cases."""
    coeffs = [0] * (D + 1)

    def put(e):
        if e <= D:
            coeffs[e] = 1

    if family == "D" and p == 2:
        for m in range(1, (rank - 2) // 2 + 1):
            put(4 * m)
    elif family == "E" and rank == 6 and p == 2:
        put(4)
    elif family == "E" and rank == 7 and p == 2:
        put(4), put(8), put(16)
    elif family == "E" and rank == 8 and p == 2:
        put(4), put(8), put(16), put(28)
    elif family == "E" and rank in (6, 7) and p == 3:
        put(6)
    elif family == "E" and rank == 8 and p == 3:
        put(6), put(18)
    elif family == "E" and rank == 8 and p == 5:
        put(10)
    return TruncatedSeries.scalar(coeffs, D)


def hT_of(q: Quiver, p: int, D) -> TruncatedSeries:
    cls = classify(q)
    if not cls.is_extended_dynkin():
        raise SeriesError("hT is defined for extended Dynkin quivers")
    return hT(cls.family, cls.rank, p, D)


def _euler_product(B: TruncatedSeries, D) -> TruncatedSeries:
    """prod_{m=1..D} det(B(t^m))^{-1} for a square matrix series B.

    t -> t^m is a ring endomorphism of Z[[t]]/t^(D+1), so det(B(t^m)) is
    det(B)(t^m) and one determinant serves every factor.
    """
    inv = B.determinant().inverse().scalar_coeffs()
    out = [1] + [0] * D
    for m in range(1, D + 1):
        out = _conv(out, _sub_power(inv, m, D), D)
    return TruncatedSeries.scalar(out, D)


def chebyshev_like_coeffs(q: Quiver, i0: int, D: int):
    """a_m = ((1 - tC + t^2)^{-1})_{i0 i0}: ranks of (i0 Pi i0)_m."""
    inv = cartan_t_matrix(q, (), D).inverse()
    k = {v: i for i, v in enumerate(q.vertices)}[i0]
    return inv.entry(k, k).scalar_coeffs()


def egid_check(q: Quiver, D) -> bool:
    """The product identity relating the (i0,i0) inverse-Cartan entries, i0
    the extending vertex, and the determinant of the t-Cartan matrix, for
    extended Dynkin q."""
    cls = classify(q)
    if not cls.is_extended_dynkin():
        raise SeriesError("identity is about extended Dynkin quivers")
    a = chebyshev_like_coeffs(q, cls.extending_vertex, D)
    a[0] = 0  # exponents follow the positively-graded part: a_0 = a_{-1} = 0
    e = [0] + [a[m] - (a[m - 2] if m >= 2 else 0) for m in range(1, D + 1)]
    return _power_product(e, D) == o_series_char_zero(q, (), D)


def o_series_char_p(q: Quiver, white, p: int, D: int) -> TruncatedSeries:
    """h(O(Pi_{Q,J})) over a field of characteristic p, a prime or 0, per the
    Euler product: an extra factor prod_l (1 - t^(2 p^l))^{-1} appears only
    when J is empty, over l >= 0 for a prime p and l = 0 alone for p = 0."""
    if p != 0 and not _is_prime(p):
        raise SeriesError(f"characteristic must be prime or 0, got {p}")
    out = _euler_product(cartan_t_matrix(q, white, D), D)
    if not set(white):
        e = 2
        while e <= D:
            out = out * _one_minus_tm_pow(e, -1, D)
            e = e * p or D + 1      # p = 0: no l >= 1
    return out


def o_series_char_zero(q: Quiver, white, D: int) -> TruncatedSeries:
    return o_series_char_p(q, white, 0, D)
