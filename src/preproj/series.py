"""Truncated power series with exact integer matrix coefficients, and the
Hilbert-series identities for (partial) preprojective algebras.

A TruncatedSeries holds coefficients 0..D; scalars are 1x1 matrices.  It is
the module's only series type.  Scalar products, inverses, determinants and
Euler products run on plain integer lists through two kernels, `_conv` and
`_inv`; matrix products and inverses (n > 1) run on nested lists.  All
arithmetic is exact over Z; inversion requires the constant term to be the
identity up to sign.
"""

from __future__ import annotations

from .quiver import Quiver, QuiverError, classify


class SeriesError(ValueError):
    pass


def _mat_mul(A, B):
    n, m = len(A), len(B[0])
    k = len(B)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out

def _mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

def _mat_scale(A, c):
    return [[c * a for a in row] for row in A]

def _eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

def _zero(n):
    return [[0] * n for _ in range(n)]


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


def _inv(a, D):
    """The inverse of an integer list a, coefficients 0..D; a[0] must be +-1."""
    s = a[0]
    if s not in (1, -1):
        raise SeriesError("constant term must be the identity up to sign")
    na = [(k, x) for k, x in enumerate(a[1:D + 1], 1) if x]
    out = [s] + [0] * D
    for d in range(1, D + 1):
        acc = 0
        for k, x in na:
            if k > d:
                break
            acc += x * out[d - k]
        out[d] = -s * acc
    return out


class TruncatedSeries:
    """Matrix power series truncated at degree D (inclusive)."""

    def __init__(self, coeffs, D=None):
        coeffs = [self._as_matrix(c) for c in coeffs]
        if D is None:
            D = len(coeffs) - 1
        n = len(coeffs[0]) if coeffs else 1
        while len(coeffs) <= D:
            coeffs.append(_zero(n))
        self.coeffs = coeffs[: D + 1]
        self.D = D
        self.n = n

    @staticmethod
    def _as_matrix(c):
        if isinstance(c, int):
            return [[c]]
        return [list(row) for row in c]

    @staticmethod
    def scalar(values, D=None):
        return TruncatedSeries([[[v]] for v in values], D)

    @staticmethod
    def one(D, n=1):
        return TruncatedSeries([_eye(n)] + [_zero(n) for _ in range(D)], D)

    def is_scalar(self):
        return self.n == 1

    def scalar_coeffs(self):
        if not self.is_scalar():
            raise SeriesError("matrix series; pick an entry first")
        return [c[0][0] for c in self.coeffs]

    def entry(self, i, j):
        return TruncatedSeries([[[c[i][j]]] for c in self.coeffs], self.D)

    def __getitem__(self, d):
        return self.coeffs[d][0][0] if self.is_scalar() else self.coeffs[d]

    def truncate(self, D):
        return TruncatedSeries(self.coeffs[: D + 1], D)

    def __add__(self, other):
        other = self._coerce(other)
        D = min(self.D, other.D)
        return TruncatedSeries([_mat_add(self.coeffs[d], other.coeffs[d]) for d in range(D + 1)], D)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return TruncatedSeries([_mat_scale(c, -1) for c in self.coeffs], self.D)

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if other.n != self.n:
                raise SeriesError("dimension mismatch")
            return other
        c0 = _mat_scale(_eye(self.n), other)
        return TruncatedSeries([c0] + [_zero(self.n)] * self.D, self.D)

    def __mul__(self, other):
        other = self._coerce(other)
        D = min(self.D, other.D)
        if self.is_scalar():
            return TruncatedSeries.scalar(_conv(self.scalar_coeffs(), other.scalar_coeffs(), D), D)
        out = []
        for d in range(D + 1):
            acc = _zero(self.n)
            for k in range(d + 1):
                acc = _mat_add(acc, _mat_mul(self.coeffs[k], other.coeffs[d - k]))
            out.append(acc)
        return TruncatedSeries(out, D)

    def __rmul__(self, c):
        return TruncatedSeries([_mat_scale(m, c) for m in self.coeffs], self.D)

    def inverse(self):
        """Series inverse; constant term must be +-identity."""
        if self.is_scalar():
            return TruncatedSeries.scalar(_inv(self.scalar_coeffs(), self.D), self.D)
        c0 = self.coeffs[0]
        sign = c0[0][0]
        if sign not in (1, -1) or c0 != _mat_scale(_eye(self.n), sign):
            raise SeriesError("constant term must be the identity up to sign")
        inv = [c0] + [None] * self.D
        for d in range(1, self.D + 1):
            acc = _zero(self.n)
            for k in range(1, d + 1):
                acc = _mat_add(acc, _mat_mul(self.coeffs[k], inv[d - k]))
            inv[d] = _mat_scale(acc, -sign)
        return TruncatedSeries(inv, self.D)

    def substitute_power(self, m):
        """t -> t^m, for m >= 1."""
        if m < 1:
            raise SeriesError(f"substitute t -> t^m needs m >= 1, not {m}")
        out = [_zero(self.n) for _ in range(self.D + 1)]
        out[::m] = self.coeffs[: self.D // m + 1]
        return TruncatedSeries(out, self.D)

    def determinant(self):
        """det as a scalar series, by elimination over Z[[t]]/t^(D+1).

        Every pivot must have constant term +-1, so that its inverse is
        integral; that holds whenever the constant term of the matrix is the
        identity (the t-Cartan matrices, 1 - h(V) + h(L) with V and L in
        positive degree).  Any other pivot raises SeriesError.
        """
        D, n = self.D, self.n
        A = [[[c[i][j] for c in self.coeffs] for j in range(n)] for i in range(n)]
        det = [1] + [0] * D
        for k, row in enumerate(A):
            pinv = _inv(row[k], D)
            det = _conv(det, row[k], D)
            for below in A[k + 1:]:
                if any(below[k]):
                    f = _conv(below[k], pinv, D)
                    for j in range(k + 1, n):
                        below[j] = [x - y for x, y in zip(below[j], _conv(f, row[j], D))]
        return TruncatedSeries.scalar(det, D)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        D = min(self.D, other.D)
        return all(self.coeffs[d] == other.coeffs[d] for d in range(D + 1))

    def __repr__(self):
        if self.is_scalar():
            return "TruncatedSeries(" + ", ".join(str(c) for c in self.scalar_coeffs()) + ")"
        return f"TruncatedSeries({self.n}x{self.n}, D={self.D})"


def cartan_t_matrix(q: Quiver, white, D) -> TruncatedSeries:
    """1 - t*C + t^2 * 1_black, C the adjacency matrix of the double."""
    C = q.adjacency()
    n = len(C)
    white = q.white_set(white)
    idx = {v: k for k, v in enumerate(q.vertices)}
    black_diag = _zero(n)
    for v in q.vertices:
        if v not in white:
            black_diag[idx[v]][idx[v]] = 1
    return TruncatedSeries([_eye(n), _mat_scale(C, -1), black_diag] + [_zero(n)] * (D - 2), D)


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


def ncci_check(hV: TruncatedSeries, hL: TruncatedSeries, hA: TruncatedSeries, D=None):
    """Whether h(A) = (1 - h(V) + h(L))^{-1} up to degree D.

    Returns (ok, first_failing_degree_or_None).
    """
    D = min(hV.D, hL.D, hA.D) if D is None else D
    one = TruncatedSeries.one(D, hV.n)
    pred = (one - hV.truncate(D) + hL.truncate(D)).inverse()
    for d in range(D + 1):
        if pred.coeffs[d] != hA.coeffs[d]:
            return False, d
    return True, None


def zeta(hV: TruncatedSeries, hL: TruncatedSeries, D=None) -> TruncatedSeries:
    """prod_{m>=1} det(1 - h(V;t^m) + h(L;t^m))^{-1}."""
    D = min(hV.D, hL.D) if D is None else D
    one = TruncatedSeries.one(D, hV.n)
    return _euler_product(one - hV.truncate(D) + hL.truncate(D), D)


def _euler_product(B: TruncatedSeries, D) -> TruncatedSeries:
    """prod_{m=1..D} det(B(t^m))^{-1} for a square matrix series B.

    t -> t^m is a ring endomorphism of Z[[t]]/t^(D+1), so det(B(t^m)) is
    det(B)(t^m) and one determinant serves every factor.
    """
    inv = _inv(B.determinant().scalar_coeffs(), D)
    out = [1] + [0] * D
    for m in range(1, D + 1):
        factor = [0] * (D + 1)
        factor[::m] = inv[: D // m + 1]
        out = _conv(out, factor, D)
    return TruncatedSeries.scalar(out, D)


def chebyshev_like_coeffs(q: Quiver, i0: int, D: int):
    """a_m = ((1 - tC + t^2)^{-1})_{i0 i0}: ranks of (i0 Pi i0)_m."""
    inv = cartan_t_matrix(q, (), D).inverse()
    k = {v: i for i, v in enumerate(q.vertices)}[i0]
    return [inv.coeffs[d][k][k] for d in range(D + 1)]


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
    """h(O(Pi_{Q,J})) over a field of characteristic p, per the zeta form:
    an extra factor prod_l (1 - t^(2 p^l))^{-1} appears only when J is empty."""
    out = _euler_product(cartan_t_matrix(q, white, D), D)
    if not set(white):
        e = 2
        while e <= D:
            out = out * _one_minus_tm_pow(e, -1, D)
            e *= p
    return out


def o_series_char_zero(q: Quiver, white, D: int) -> TruncatedSeries:
    out = _euler_product(cartan_t_matrix(q, white, D), D)
    if not set(white):
        out = out * _one_minus_tm_pow(2, -1, D)
    return out
