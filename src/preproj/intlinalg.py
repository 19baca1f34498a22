"""Exact sparse integer linear algebra: Smith normal form, torsion of graded
quotients, lattice membership and order queries.

Matrices are lists of sparse row dicts {column: value}.  Elimination clears
unit pivots first (they dominate in the commutator matrices this package
produces and cause no coefficient growth), cheapest Markowitz cost first to
keep the fill-in and the journal short.  The candidates wait in one stack per
cost, taken last in, first out, beside a small heap of the costs that have a
stack, so a push or a pop is O(1) but when it makes or empties a stack.  That
order fixes the journal and the basis integer_kernel returns, and no answer.
A row c e_j with |c| > 1 (a row of weight one, the cheap pass of structured
Gaussian elimination, LaMacchia-Odlyzko 1990) keeps column j of every other
row reduced into (-|c|/2, |c|/2] until column j is pivoted: once on the
copied rows, then on each entry a row operation writes.  Those reductions
are row operations, so nothing is journaled, and no answer depends on them.
A row c e_j still alone in its column after the unit pivots is a pivot as
it stands.  On an F_p lattice (relations plus p Z^n) every entry is then a
residue in (-p/2, p/2], a unit for p = 2 or 3; the fill p * (pivot row) that
a unit pivot would leave in the row p e_j of its column reduces to zero, and
the rows p e_j left alone in their columns are pivots without a search.
Elimination then runs Euclid's algorithm on the small residue, the rows
still nonzero: each round pivots on the entry of least absolute value (ties
to the least Markowitz cost, then to the least position), which reduces its
column and row by floor division, and the first remainder it leaves, smaller
than the pivot, becomes the next pivot.  The result is a diagonal form; its
divisibility chain (the invariant factors) is computed from the diagonal
values by gcd/lcm pairing, with no further matrix operations.  The only
column operation is "add c times column src to column dst", journaled as
(dst, src, c); the journal is a product V = V_1 ... V_k of elementary
matrices, and v_rows turns it into the rows e_i V in one backward pass.
Lattice-membership questions (order of a class in a quotient) and integer
kernels read those rows, so a query costs the rows it touches, not the whole
journal.  LatticeSolver holds one elimination and reads both the torsion
summary and the order queries off it; an order needs only the diagonal form,
chain or not, and the rows of V are built on the first order query.  There is
no rational arithmetic: a linear system over Q is solved through an integer
kernel (integer_kernel).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


@dataclass
class TorsionSummary:
    """Free rank plus invariant factors (> 1, each dividing the next)."""

    free_rank: int
    invariant_factors: tuple = ()

    def is_free(self):
        return not self.invariant_factors

    def __str__(self):
        tors = " + ".join(f"Z/{d}" for d in self.invariant_factors)
        if self.free_rank and tors:
            return f"Z^{self.free_rank} + {tors}"
        if self.free_rank:
            return f"Z^{self.free_rank}"
        return tors or "0"


@dataclass
class SNFResult:
    invariant_factors: tuple          # divisibility chain of the nonzero diagonal
    diag_by_col: dict                 # pivot column -> diagonal value; need not be a chain
    col_ops: list                     # journal of (dst, src, c), see v_rows


def v_rows(ops):
    """Rows e_i V of the unimodular V = V_1 ... V_k journaled as ops, as a
    dict {i: sparse row}; a row no op touches is e_i and is left out.  V_t adds c times
    column src to column dst, so V_t R adds c times row dst of R to row src:
    one backward pass over the journal builds V_1 (... (V_k I))."""
    rows = {}
    for dst, src, c in reversed(ops):
        r = rows.setdefault(src, {src: 1})
        for j, x in rows.get(dst, {dst: 1}).items():
            s = r.get(j, 0) + c * x
            if s:
                r[j] = s
            else:
                del r[j]
    return rows


def smith_normal_form(rows, ncols):
    """Smith normal form of the matrix with the given sparse rows and ncols columns.

    rows is a list of dicts {column: value} with 0 <= column < ncols; they are
    copied (zero entries dropped), never modified.  The column operations are
    journaled in res.col_ops.  They make a unimodular V such that every row
    of M V lies in the span of the d_j e_j, where d_j = res.diag_by_col[j]
    over the pivot columns j; v_rows reads V off the journal.
    That is enough to answer membership and order questions against the row
    lattice (see LatticeSolver).  res.invariant_factors is the divisibility
    chain of the d_j.

    Unit pivots come first, least Markowitz cost first, then Euclid on the
    residue, from its entry of least |v| each round.  A weight-one row c e_j
    with |c| > 1 keeps column j of the other rows reduced into
    (-|c|/2, |c|/2] until column j is pivoted, and one still alone in its
    column after the unit pivots is a pivot with no operation.  Those rows
    move the pivots and the journal of a matrix that has them, never the row
    lattice, the invariant factors or an order.
    """
    rows = _copy_rows(rows, ncols)
    nrows = len(rows)
    journal = []

    by_col = {}
    for i, r in enumerate(rows):
        for j in r:
            by_col.setdefault(j, set()).add(i)

    # weight-one rows: modulus maps column j to (i, |c|) for the row
    # i = c e_j with the least |c| > 1, which keeps column j of the other
    # rows reduced into (-|c|/2, |c|/2], a row operation, never journaled.
    # No step writes to row i before column j is pivoted (it has no entry in
    # another pivot column), and eliminate_with drops j first.
    modulus = {}
    for i, r in enumerate(rows):
        if len(r) == 1:
            (j, v), = r.items()
            c = abs(v)
            if c > 1 and (j not in modulus or c < modulus[j][1]):
                modulus[j] = (i, c)
    for j, (m, c) in modulus.items():
        for i in list(by_col[j]):
            if i != m:
                s = _centred(rows[i][j], c)
                if s:
                    rows[i][j] = s
                else:
                    del rows[i][j]
                    by_col[j].discard(i)

    def row_negate(i):
        rows[i] = {j: -v for j, v in rows[i].items()}

    def row_addmul(dst, src, c):
        rd, rs = rows[dst], rows[src]
        for j, v in rs.items():
            s = rd.get(j, 0) + c * v
            if s and j in modulus:
                s = _centred(s, modulus[j][1])
            if s:
                if j not in rd:
                    by_col.setdefault(j, set()).add(dst)
                rd[j] = s
            else:
                rd.pop(j, None)
                by_col.get(j, set()).discard(dst)

    def col_addmul(dst, src, c):
        for i in list(by_col.get(src, ())):
            r = rows[i]
            s = r.get(dst, 0) + c * r[src]
            if s:
                if dst not in r:
                    by_col.setdefault(dst, set()).add(i)
                r[dst] = s
            else:
                r.pop(dst, None)
                by_col.get(dst, set()).discard(i)
        journal.append((dst, src, c))

    active_rows = set(range(nrows))
    done_cols = set()
    pivots = []  # (row, col); diagonal value = rows[row][col]

    def eliminate_with(pi, pj):
        """Clear the pivot's row and column and return None, or stop at the
        first remainder left behind and return its position.  The pivot is
        made positive, so floor division leaves a remainder in (0, pivot)."""
        modulus.pop(pj, None)
        if rows[pi][pj] < 0:
            row_negate(pi)
        pv = rows[pi][pj]
        for i in list(by_col.get(pj, ())):
            if i == pi or i not in active_rows:
                continue
            q = rows[i][pj] // pv
            if q:
                row_addmul(i, pi, -q)
            if rows[i].get(pj):
                return i, pj
        for j in list(rows[pi]):
            if j == pj:
                continue
            q = rows[pi][j] // pv
            if q:
                col_addmul(j, pj, -q)
            if rows[pi].get(j):
                return pi, j
        return None

    # phase 1: unit pivots (no coefficient growth), least Markowitz cost
    # (row nnz - 1) * (column nnz - 1) first: it bounds the fill-in of the
    # step.  Candidates wait in buckets, one stack of (i, j) per cost, and
    # `costs` is a heap of the costs that have a bucket, so a push or a pop
    # is O(1) but for the rare new or emptied bucket.  Equal costs go last in,
    # first out.  The tie-break picks the pivots, hence the journal and the
    # basis integer_kernel returns, but no invariant factor or order.  Entries
    # go stale as rows change: a popped entry whose cost has grown is pushed
    # back with its current cost.
    def cost(i, j):
        return (len(rows[i]) - 1) * (len(by_col[j]) - 1)

    buckets = {}
    costs = []

    def push(i, j, c):
        stack = buckets.get(c)
        if stack is None:
            buckets[c] = stack = []
            heapq.heappush(costs, c)
        stack.append((i, j))

    def push_row(i):
        """Push every unit entry of row i outside the done columns, in row order."""
        r = rows[i]
        ri = len(r) - 1
        for j, v in r.items():
            if (v == 1 or v == -1) and j not in done_cols:
                c = ri * (len(by_col[j]) - 1)
                stack = buckets.get(c)
                if stack is None:
                    buckets[c] = stack = []
                    heapq.heappush(costs, c)
                stack.append((i, j))

    for i in range(nrows):
        push_row(i)

    while costs:
        c = costs[0]
        stack = buckets[c]
        pi, pj = stack.pop()
        if not stack:
            del buckets[c]
            heapq.heappop(costs)
        if pi not in active_rows or pj in done_cols or rows[pi].get(pj, 0) not in (1, -1):
            continue
        if (now := cost(pi, pj)) > c:
            push(pi, pj, now)
            continue
        affected = set(by_col[pj]) & active_rows
        eliminate_with(pi, pj)
        active_rows.discard(pi)
        done_cols.add(pj)
        pivots.append((pi, pj))
        for i in affected:
            if i in active_rows:
                push_row(i)

    # a weight-one row c e_j still alone in its column is a pivot as it stands
    for j, (m, _) in modulus.items():
        if len(by_col[j]) == 1:
            active_rows.discard(m)
            done_cols.add(j)
            pivots.append((m, j))

    # phase 2: Euclid on the residue, the rows nonzero now: no step writes to
    # a zero row (row_addmul writes only to rows in by_col[pj], col_addmul
    # only to rows in by_col[src], row_negate only to the pivot row).  Each
    # round pivots on the entry of least |v|, then least cost, then least
    # (i, j); a remainder it leaves is smaller and becomes the next pivot.
    residue = {i for i in active_rows if rows[i]}
    while pick := min(((abs(v), cost(i, j), i, j) for i in residue for j, v in rows[i].items()),
                      default=None):
        _, _, pi, pj = pick
        while (blocked := eliminate_with(pi, pj)) is not None:
            pi, pj = blocked
        active_rows.discard(pi)
        residue.discard(pi)
        done_cols.add(pj)
        pivots.append((pi, pj))

    diag_by_col = {j: abs(rows[i][j]) for (i, j) in pivots}
    return SNFResult(invariant_factors=_divisibility_chain(diag_by_col.values()),
                     diag_by_col=diag_by_col, col_ops=journal)


def _centred(v, c):
    """v reduced modulo c > 0 into (-c/2, c/2]."""
    v %= c
    return v - c if 2 * v > c else v


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def _divisibility_chain(values):
    """Invariant factors of a diagonal matrix with the given positive
    diagonal: sort, replace each adjacent pair (a, b) with a not dividing b
    by (gcd, lcm), and repeat until no pair changes.  One pass over a chain."""
    d = sorted(values)
    changed = True
    while changed:
        changed = False
        for k in range(len(d) - 1):
            a, b = d[k], d[k + 1]
            if b % a:
                g = math.gcd(a, b)
                d[k], d[k + 1] = g, a // g * b
                changed = True
        d.sort()
    return tuple(d)


def _copy_rows(rows, ncols):
    if ncols < 0:
        raise ValueError(f"negative column count {ncols}")
    out = []
    for r in rows:
        if r and (min(r) < 0 or max(r) >= ncols):
            raise ValueError(f"column index outside 0..{ncols - 1} in relation row")
        out.append({j: v for j, v in r.items() if v})
    return out


def integer_kernel(rows, ncols):
    """Basis of {z in Z^ncols : M z = 0} for the matrix M with the given
    sparse rows, as dense lists: the non-pivot columns of the unimodular V
    journaled by smith_normal_form (M V has zero columns exactly there)."""
    res = smith_normal_form(rows, ncols)
    V = v_rows(res.col_ops)
    return [[V.get(i, {i: 1}).get(j, 0) for i in range(ncols)]
            for j in range(ncols) if j not in res.diag_by_col]


def quotient_structure(ambient_rank: int, relation_rows) -> TorsionSummary:
    """Structure of Z^ambient_rank / (row lattice)."""
    return LatticeSolver(ambient_rank, relation_rows).summary


class LatticeSolver:
    """One elimination of a fixed row lattice L in Z^n, and what it answers.

    summary is the structure of Z^n / L.  order_of(v) is the least k >= 1 with
    k*v in the lattice, or 0 when v has a component outside the lattice's
    rational span; a nonzero entry of v outside 0..n-1 is a ValueError.
    """

    def __init__(self, ambient_rank, relation_rows):
        self.res = smith_normal_form(relation_rows, ambient_rank)
        factors = self.res.invariant_factors
        self.summary = TorsionSummary(free_rank=ambient_rank - len(factors),
                                      invariant_factors=tuple(d for d in factors if d > 1))
        self._diag = self.res.diag_by_col
        self._rows = None
        self._n = ambient_rank

    def order_of(self, vec: dict):
        if self._rows is None:
            self._rows = v_rows(self.res.col_ops)
        v = {}
        for i, x in vec.items():
            row = self._rows.get(i)
            if row is None:
                if x and not 0 <= i < self._n:
                    raise ValueError(f"coordinate {i} outside 0..{self._n - 1}")
                row = {i: 1}
            for j, y in row.items():
                v[j] = v.get(j, 0) + x * y
        k = 1
        for j, val in v.items():
            if not val:
                continue
            d = self._diag.get(j)
            if d is None:
                return 0
            r = val % d
            need = d // math.gcd(d, r) if r else 1
            k = k * need // math.gcd(k, need)
        return k
