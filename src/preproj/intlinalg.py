"""Exact sparse integer linear algebra: Smith normal form, torsion of graded
quotients, lattice membership and order queries.

Matrices are lists of sparse row dicts {column: value}.  Elimination clears
unit pivots first (they dominate in the commutator matrices this package
produces and cause no coefficient growth), then runs classical gcd-based
reduction on the small residue.  Column operations are always journaled, so
lattice-membership questions (order of a class in a quotient) can be answered
after the fact; smith_normal_form writes the journal and apply_col_ops is its
only reader.  LatticeSolver holds one elimination and reads both the torsion
summary and the order queries off it.
"""

from __future__ import annotations

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
    invariant_factors: tuple          # nonzero diagonal in a divisibility chain
    diag_by_col: dict                 # pivot column -> diagonal value (final coords)
    col_ops: list                     # journal, see apply_col_ops


def apply_col_ops(vec: dict, ops):
    """Apply a journal of column operations to a sparse row vector: v <- v V.

    ("addmul", dst, src, c) adds c times column src to column dst;
    ("pairop", j1, j2, x, y, a, b) replaces (c1, c2) by
    (x c1 + y c2, -b c1 + a c2), unimodular since x a + y b = 1.
    """
    v = dict(vec)
    for op in ops:
        if op[0] == "addmul":
            _, dst, src, c = op
            if src in v:
                s = v.get(dst, 0) + c * v[src]
                if s:
                    v[dst] = s
                else:
                    v.pop(dst, None)
        else:
            _, j1, j2, x, y, a, b = op
            v1, v2 = v.get(j1, 0), v.get(j2, 0)
            n1 = x * v1 + y * v2
            n2 = -b * v1 + a * v2
            for j, n in ((j1, n1), (j2, n2)):
                if n:
                    v[j] = n
                else:
                    v.pop(j, None)
    return v


def smith_normal_form(rows, ncols):
    """Smith normal form of the matrix with the given sparse rows and ncols columns.

    rows is a list of dicts {column: value} with 0 <= column < ncols; they are
    copied (zero entries dropped), never modified.  The column operations are
    journaled in res.col_ops.  They make a unimodular V such that every row
    of M V lies in the span of the d_j e_j, where d_j = res.diag_by_col[j]
    over the pivot columns j; apply_col_ops reads V one row vector at a time.
    That is enough to answer membership and order questions against the row
    lattice (see LatticeSolver).
    """
    rows = _copy_rows(rows, ncols)
    nrows = len(rows)
    journal = []

    by_col = {}
    for i, r in enumerate(rows):
        for j in r:
            by_col.setdefault(j, set()).add(i)

    def row_negate(i):
        rows[i] = {j: -v for j, v in rows[i].items()}

    def row_addmul(dst, src, c):
        rd, rs = rows[dst], rows[src]
        for j, v in rs.items():
            s = rd.get(j, 0) + c * v
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
        journal.append(("addmul", dst, src, c))

    def row_pair_op(i1, i2, x, y, a, b):
        # (r1, r2) <- (x r1 + y r2, -b r1 + a r2), unimodular since x a + y b = 1
        r1, r2 = dict(rows[i1]), dict(rows[i2])
        new1 = _lin(r1, r2, x, y)
        new2 = _lin(r1, r2, -b, a)
        for j in set(r1) | set(r2):
            by_col.get(j, set()).discard(i1)
            by_col.get(j, set()).discard(i2)
        rows[i1], rows[i2] = new1, new2
        for j in new1:
            by_col.setdefault(j, set()).add(i1)
        for j in new2:
            by_col.setdefault(j, set()).add(i2)

    active_rows = set(range(nrows))
    done_cols = set()
    pivots = []  # (row, col); diagonal value = rows[row][col]

    def eliminate_with(pi, pj):
        """Clear row and column of the pivot; False if a non-divisible entry blocks."""
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
                return False
        for j in list(rows[pi]):
            if j == pj:
                continue
            q = rows[pi][j] // pv
            if q:
                col_addmul(j, pj, -q)
            if rows[pi].get(j):
                return False
        return True

    # phase 1: unit pivots (no coefficient growth)
    unit_queue = [(i, j) for i, r in enumerate(rows) for j, v in r.items() if v in (1, -1)]
    while unit_queue:
        pi, pj = unit_queue.pop()
        if pi not in active_rows or pj in done_cols or rows[pi].get(pj, 0) not in (1, -1):
            continue
        affected = set(by_col.get(pj, ())) & active_rows
        eliminate_with(pi, pj)
        active_rows.discard(pi)
        done_cols.add(pj)
        pivots.append((pi, pj))
        for i in affected:
            if i in active_rows:
                for j, v in rows[i].items():
                    if v in (1, -1) and j not in done_cols:
                        unit_queue.append((i, j))

    # phase 2: classical gcd reduction on the residue.  The search takes the
    # first entry no larger than the previous pivot instead of rescanning for
    # the minimum: any nonzero pivot is correct, since the gcd repairs below
    # and phase 3 handle the entries it does not divide.
    bound = 1
    while True:
        best = None
        for i in active_rows:
            for j, v in rows[i].items():
                if j in done_cols:
                    continue
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a <= bound:
                        break
            if best and best[0] <= bound:
                break
        if best is None:
            break
        bound, pi, pj = best
        while not eliminate_with(pi, pj):
            pv = rows[pi][pj]
            bad_row = next((i for i in by_col.get(pj, ()) if i != pi and i in active_rows
                            and rows[i].get(pj)), None)
            if bad_row is not None:
                v = rows[bad_row][pj]
                g, x, y = _xgcd(pv, v)
                row_pair_op(pi, bad_row, x, y, pv // g, v // g)
                continue
            bad_col = next((j for j in rows[pi] if j != pj and rows[pi].get(j)), None)
            if bad_col is not None:
                v = rows[pi][bad_col]
                g, x, y = _xgcd(pv, v)
                _col_pair_journal(rows, by_col, journal, pj, bad_col, x, y, pv // g, v // g)
                continue
            break
        active_rows.discard(pi)
        done_cols.add(pj)
        pivots.append((pi, pj))

    # phase 3: repair the divisibility chain with genuine journaled operations
    changed = True
    while changed:
        changed = False
        pivots.sort(key=lambda rc: rows[rc[0]][rc[1]])
        for k in range(len(pivots) - 1):
            (i1, c1), (i2, c2) = pivots[k], pivots[k + 1]
            a, b = rows[i1][c1], rows[i2][c2]
            if b % a == 0:
                continue
            changed = True
            col_addmul(c1, c2, 1)          # puts b into (i2, c1)
            g, x, y = _xgcd(a, b)
            row_pair_op(i1, i2, x, y, a // g, b // g)
            # now (i1,c1)=g, (i1,c2)=y*b, (i2,c2)=lcm; clear the stray entry
            stray = rows[i1].get(c2, 0)
            if stray:
                col_addmul(c2, c1, -(stray // g))
            assert rows[i1].get(c2, 0) == 0

    diag = sorted(abs(rows[i][j]) for (i, j) in pivots)
    return SNFResult(invariant_factors=tuple(diag),
                     diag_by_col={j: abs(rows[i][j]) for (i, j) in pivots},
                     col_ops=journal)


def _copy_rows(rows, ncols):
    out = []
    for r in rows:
        if r and (min(r) < 0 or max(r) >= ncols):
            raise ValueError(f"column index outside 0..{ncols - 1} in relation row")
        out.append({j: v for j, v in r.items() if v})
    return out


def _col_pair_journal(rows, by_col, journal, j1, j2, x, y, a, b):
    """(c1, c2) <- (x c1 + y c2, -b c1 + a c2) applied to all rows."""
    touched = set(by_col.get(j1, ())) | set(by_col.get(j2, ()))
    for i in touched:
        r = rows[i]
        v1, v2 = r.get(j1, 0), r.get(j2, 0)
        n1 = x * v1 + y * v2
        n2 = -b * v1 + a * v2
        for j, n in ((j1, n1), (j2, n2)):
            if n:
                if j not in r:
                    by_col.setdefault(j, set()).add(i)
                r[j] = n
            else:
                r.pop(j, None)
                by_col.get(j, set()).discard(i)
    journal.append(("pairop", j1, j2, x, y, a, b))


def _lin(r1, r2, c1, c2):
    out = {}
    for j in set(r1) | set(r2):
        v = c1 * r1.get(j, 0) + c2 * r2.get(j, 0)
        if v:
            out[j] = v
    return out


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def quotient_structure(ambient_rank: int, relation_rows) -> TorsionSummary:
    """Structure of Z^ambient_rank / (row lattice)."""
    return LatticeSolver(ambient_rank, relation_rows).summary


class LatticeSolver:
    """One elimination of a fixed row lattice L in Z^n, and what it answers.

    summary is the structure of Z^n / L.  order_of(v) is the least k >= 1 with
    k*v in the lattice, or 0 when v has a component outside the lattice's
    rational span.
    """

    def __init__(self, ambient_rank, relation_rows):
        self.res = smith_normal_form(relation_rows, ambient_rank)
        factors = self.res.invariant_factors
        self.summary = TorsionSummary(free_rank=ambient_rank - len(factors),
                                      invariant_factors=tuple(d for d in factors if d > 1))
        self._diag = self.res.diag_by_col

    def order_of(self, vec: dict):
        v = apply_col_ops(vec, self.res.col_ops)
        k = 1
        for j, val in v.items():
            d = self._diag.get(j)
            if d is None:
                return 0
            r = val % d
            need = d // math.gcd(d, r) if r else 1
            k = k * need // math.gcd(k, need)
        return k

    def contains(self, vec: dict):
        return self.order_of(vec) == 1
