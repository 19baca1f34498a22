"""Reference answers that do not come from the code under test.

Nothing here imports preproj.  The torsion tables are the paper's, written
out by hand; Hilbert-series and rank references are the benchmark's own
integer power-series code; lattice references are an F_2 elimination on
Python-int bitsets; necklace counts use Burnside's lemma on a transfer matrix.
"""

from __future__ import annotations

import math

# Lambda of the Dynkin quiver: the whole positive part is this torsion
# (free rank 0 in every degree >= 1).  The extended Dynkin quiver of the
# same type has exactly this torsion, degree by degree.
DYNKIN_TORSION = {
    "A": {},
    "D": {4: (2,)},
    "E6": {4: (2,), 6: (3,)},
    "E7": {4: (2,), 6: (3,), 8: (2,), 16: (2,)},
    "E8": {4: (2,), 6: (3,), 8: (2,), 10: (5,), 16: (2,), 18: (3,), 28: (2,)},
}


def primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % k for k in range(2, math.isqrt(p) + 1))]


def r_powers(D):
    """(p, l) with l >= 1 and 2 p^l <= D."""
    out = []
    for p in primes_upto(D // 2):
        ell = 1
        while 2 * p ** ell <= D:
            out.append((p, ell))
            ell += 1
    return out


def wild_torsion(D):
    """The paper's theorem for J empty, Q neither Dynkin nor extended Dynkin:
    exactly one Z/p in each degree 2 p^l, l >= 1, and nothing else."""
    return {2 * p ** ell: (p,) for p, ell in r_powers(D)}


def truncate(table, D):
    return {d: f for d, f in table.items() if d <= D}


def r_power_orders(table, D):
    """Order of the class r^(p^l) in degree 2 p^l: p where the table has its
    Z/p there, else 1 (the class is zero)."""
    return {(p, ell): p if table.get(2 * p ** ell) == (p,) else 1
            for p, ell in r_powers(D)}


# -- truncated integer power series, lists of coefficients -----------------

def ser_mul(a, b, D):
    out = [0] * (D + 1)
    for i, x in enumerate(a[:D + 1]):
        if x:
            for j, y in enumerate(b[:D + 1 - i]):
                out[i + j] += x * y
    return out


def ser_inv(a, D):
    """Inverse of a series with constant term +-1."""
    if a[0] not in (1, -1):
        raise ValueError("constant term must be a unit")
    out = [0] * (D + 1)
    out[0] = a[0]
    for n in range(1, D + 1):
        s = sum(a[k] * out[n - k] for k in range(1, min(n, len(a) - 1) + 1))
        out[n] = -s * a[0]
    return out


def one_minus_tm_pow(m, e, D):
    """(1 - t^m)^e for any integer e."""
    base = [0] * (D + 1)
    base[0] = 1
    if m <= D:
        base[m] = -1
    if e >= 0:
        out = [1] + [0] * D
        for _ in range(e):
            out = ser_mul(out, base, D)
        return out
    # (1 - t^m)^(-k) = sum_j C(j + k - 1, j) t^(m j)
    k = -e
    out = [0] * (D + 1)
    for j in range(D // m + 1):
        out[m * j] = math.comb(j + k - 1, j)
    return out


def euler_exponents(h, D):
    """a_1..a_D with h = prod_m (1 - t^m)^(-a_m); h[0] must be 1."""
    cur = list(h[:D + 1])
    a = [0] * (D + 1)
    for m in range(1, D + 1):
        a[m] = cur[m]
        cur = ser_mul(cur, one_minus_tm_pow(m, a[m], D), D)
    return a


def one_vertex_o_series(arrows_in_double, D, extra_degrees=(2,)):
    """h(O) = prod_m (1 - c t^m + t^(2m))^(-1) * prod_e (1 - t^e)^(-1) for a
    one-vertex quiver whose double has c loops; extra_degrees are the e."""
    out = [1] + [0] * D
    for m in range(1, D + 1):
        f = [0] * (D + 1)
        f[0] = 1
        f[m] -= arrows_in_double
        if 2 * m <= D:
            f[2 * m] += 1
        out = ser_mul(out, ser_inv(f, D), D)
    for e in extra_degrees:
        out = ser_mul(out, one_minus_tm_pow(e, -1, D), D)
    return out


def one_vertex_pi_dims(arrows_in_double, D):
    """dim Pi_d for a one-vertex quiver: 1 / (1 - c t + t^2)."""
    out = [1] + [0] * D
    for d in range(1, D + 1):
        out[d] = arrows_in_double * out[d - 1] - (out[d - 2] if d >= 2 else 0)
    return out


def wild_extra_degrees(p, D):
    """Degrees 2, 2p, 2p^2, ... <= D of the extra factors (1 - t^e)^(-1) of
    h(O) in characteristic p (characteristic 0 has only e = 2)."""
    out, e = [], 2
    while e <= D:
        out.append(e)
        e *= p
    return out


# -- necklaces ---------------------------------------------------------------

def cyclically_normal_counts(arrows, forbidden, D):
    """Number of necklaces of length d = 1..D over (arrow, src, dst) triples
    whose cyclically consecutive letter pairs avoid `forbidden`, by Burnside:
    N(d) = (1/d) sum_{k | d} phi(d/k) tr(A^k) for the arrow transfer matrix A."""
    ids = [a for a, _, _ in arrows]
    src = {a: s for a, s, _ in arrows}
    dst = {a: t for a, _, t in arrows}
    n = len(ids)
    A = [[1 if dst[a] == src[b] and (a, b) not in forbidden else 0 for b in ids]
         for a in ids]
    traces = [0] * (D + 1)
    P = [row[:] for row in A]
    for k in range(1, D + 1):
        traces[k] = sum(P[i][i] for i in range(n))
        P = [[sum(P[i][m] * A[m][j] for m in range(n) if P[i][m]) for j in range(n)]
             for i in range(n)]
    out = [0] * (D + 1)
    for d in range(1, D + 1):
        s = sum(_phi(d // k) * traces[k] for k in range(1, d + 1) if d % k == 0)
        out[d] = s // d
    return out


def _phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def is_rotation(word, target):
    word, target = tuple(word), tuple(target)
    if len(word) != len(target):
        return False
    return not word or any(target[k:] + target[:k] == word for k in range(len(target)))


def cyclically_normal(word, forbidden):
    n = len(word)
    return all((word[i], word[(i + 1) % n]) not in forbidden for i in range(n))


# -- F_2 elimination -----------------------------------------------------------

class F2Span:
    """Row space mod 2 of integer rows, as bitsets keyed by leading bit."""

    def __init__(self, rows):
        self.pivots = {}
        for r in rows:
            b = self._reduce(_bits(r))
            if b:
                self.pivots[b.bit_length() - 1] = b

    def _reduce(self, b):
        while b:
            h = b.bit_length() - 1
            p = self.pivots.get(h)
            if p is None:
                return b
            b ^= p
        return 0

    @property
    def rank(self):
        return len(self.pivots)

    def contains(self, vec):
        return self._reduce(_bits(vec)) == 0


def _bits(vec):
    b = 0
    for j, v in vec.items():
        if v % 2:
            b |= 1 << j
    return b
