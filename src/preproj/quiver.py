"""Finite quivers, their doubles, ADE classification, and a catalog of named shapes.

Vertices and arrows are small integers assigned at construction; every
deterministic tie-break in the package uses this order.  A doubled quiver
("starred") carries the involution a <-> a* as an explicit id map.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass


class QuiverError(ValueError):
    pass


def _plain_int(x, what):
    """x when it is an int and not a bool, else QuiverError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise QuiverError(f"{what} must be an integer, got {x!r}")
    return x


@dataclass(frozen=True)
class QuiverClass:
    """Shape of the underlying undirected graph.

    kind is 'dynkin', 'extended', or 'other'; family is 'A', 'D' or 'E' when
    kind is not 'other'.  rank follows the usual subscript (so the one-loop
    quiver is ('extended', 'A', 0)).  extending_vertex is set only for
    extended Dynkin quivers and is the smallest vertex with delta_v = 1, delta
    the null root.
    """

    kind: str
    family: str | None = None
    rank: int | None = None
    extending_vertex: int | None = None

    def is_dynkin(self):
        return self.kind == "dynkin"

    def is_extended_dynkin(self):
        return self.kind == "extended"

    def __str__(self):
        if self.kind == "other":
            return "Other"
        tilde = "~" if self.kind == "extended" else ""
        return f"{tilde}{self.family}{self.rank}"


class Quiver:
    """Finite connected directed multigraph, immutable after construction.

    arrows is a sequence of (arrow_id, src, dst).  When starred is True the
    quiver is a double and star[a] gives the reverse of arrow a.
    """

    def __init__(self, vertices, arrows, starred=False, star=None, names=None):
        self.vertices = tuple(_plain_int(v, "vertex id") for v in vertices)
        self.arrows = tuple((_plain_int(a, "arrow id"), _plain_int(s, f"arrow {a} source"),
                             _plain_int(t, f"arrow {a} target")) for (a, s, t) in arrows)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        ids = [a for (a, _, _) in self.arrows]
        if len(set(ids)) != len(ids):
            raise QuiverError("duplicate arrow ids")
        for (a, s, t) in self.arrows:
            if s not in vset or t not in vset:
                raise QuiverError(f"arrow {a}: endpoint not a declared vertex")
        self.starred = bool(starred)
        self.star = dict(star) if star is not None else None
        if self.starred:
            if self.star is None:
                raise QuiverError("starred quiver needs the a <-> a* involution")
            arr = {a: (s, t) for (a, s, t) in self.arrows}
            for a, b in self.star.items():
                if self.star.get(b) != a:
                    raise QuiverError("star map is not an involution")
                if arr[a] != (arr[b][1], arr[b][0]):
                    raise QuiverError("star pair does not swap endpoints")
        self.names = dict(names) if names else {}
        self._double = None
        self._src = {a: s for (a, s, t) in self.arrows}
        self._dst = {a: t for (a, s, t) in self.arrows}
        self._out = {v: [] for v in self.vertices}
        for (a, s, t) in self.arrows:
            self._out[s].append(a)
        if not self._connected():
            raise QuiverError("quiver must be connected")

    # -- basic accessors -------------------------------------------------

    def src(self, a):
        return self._src[a]

    def dst(self, a):
        return self._dst[a]

    def out_arrows(self, v):
        return tuple(self._out[v])

    def arrow_name(self, a):
        return self.names.get(a, f"a{a}")

    def name_to_arrow(self):
        return {self.arrow_name(a): a for (a, _, _) in self.arrows}

    def white_set(self, white):
        """white as a set; QuiverError unless every member is a vertex."""
        white = {_plain_int(v, "white vertex") for v in white}
        for v in white:
            if v not in self._out:
                raise QuiverError(f"white vertex {v!r} is not a vertex of the quiver")
        return white

    def _connected(self):
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        todo = deque(seen)
        adj = {v: set() for v in self.vertices}
        for (_, s, t) in self.arrows:
            adj[s].add(t)
            adj[t].add(s)
        while todo:
            v = todo.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return len(seen) == len(self.vertices)

    # -- undirected shape ------------------------------------------------

    def adjacency(self):
        """Adjacency matrix (list of lists) of the double, indexed by vertex
        order: that of the underlying undirected multigraph, which is what
        the Hilbert formulas use.  For an already-starred quiver the arrows
        themselves are counted.
        """
        idx = {v: k for k, v in enumerate(self.vertices)}
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for (_, s, t) in self.arrows:
            mat[idx[s]][idx[t]] += 1
            if not self.starred:
                mat[idx[t]][idx[s]] += 1
        return mat

    def __repr__(self):
        star = ", starred" if self.starred else ""
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows{star})"

    # -- JSON interchange --------------------------------------------------

    def to_json(self, white=None):
        doc = {
            "vertices": list(self.vertices),
            "arrows": [{"id": a, "src": s, "dst": t} for (a, s, t) in self.arrows],
        }
        if white is not None:
            doc["white"] = sorted(white)
        return json.dumps(doc)

    @staticmethod
    def from_json(text):
        try:
            doc = json.loads(text)
            q = Quiver(doc["vertices"], [(a["id"], a["src"], a["dst"]) for a in doc["arrows"]])
            white = q.white_set(doc.get("white", []))
        except QuiverError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise QuiverError(f"malformed quiver JSON ({type(exc).__name__}: {exc})") from exc
        return q, white


def double(q: Quiver) -> Quiver:
    """Add a reverse arrow a* for every arrow a; a* gets id a + N.

    Memoised on q (quivers are immutable), so double(q) is double(q) and
    contexts built from one quiver share their doubled quiver.
    """
    if q.starred:
        raise QuiverError("quiver is already a double")
    if q._double is None:
        n = 1 + max(a for (a, _, _) in q.arrows) if q.arrows else 0
        arrows = list(q.arrows)
        star = {}
        names = dict(q.names)
        for (a, s, t) in q.arrows:
            arrows.append((a + n, t, s))
            star[a] = a + n
            star[a + n] = a
            names[a + n] = q.arrow_name(a) + "*"
        q._double = Quiver(q.vertices, arrows, starred=True, star=star, names=names)
    return q._double


def _cartan(q: Quiver):
    """C = 2I - A, the Gram matrix of the Tits form: series.cartan_t_matrix at t = 1."""
    C = [[-x for x in row] for row in q.adjacency()]
    for i, row in enumerate(C):
        row[i] += 2
    return C


def _leading_minors(C):
    """[1, c_11, ...]: the leading principal minors of the integer matrix C,
    the empty one first, by fraction-free (Bareiss) elimination without
    pivoting; stops after the first minor <= 0."""
    m = [row[:] for row in C]
    minors = [1]
    for k in range(len(m)):
        minors.append(m[k][k])
        if m[k][k] <= 0:
            break
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // minors[-2]
    return minors


def classify(q: Quiver) -> QuiverClass:
    """Classify the underlying undirected graph by its Tits form.

    C = 2I - A is positive definite exactly for Dynkin graphs; det C is
    n + 1 for A_n (tested first: A_3 also has 4), 4 for D_n and 3, 2, 1 for
    E_6, E_7, E_8.  It is extended
    Dynkin exactly when the first n - 1 leading minors are positive and
    det C = 0 (every proper subgraph of an extended Dynkin graph is Dynkin,
    so this holds in any vertex order; conversely it makes C positive
    semidefinite with kernel spanned by the null root delta).  Then
    adj C = k delta delta^T with k > 0, so deleting vertex v leaves a minor
    k delta_v^2: the extending vertices (delta_v = 1) have the least one,
    and max / min is (max delta)^2, 1 for ~A, 4 for ~D and 9, 16, 36 for ~E.
    A double has the same adjacency, so it classifies as the quiver it doubles.
    """
    C = _cartan(q)
    n = len(C)
    minors = _leading_minors(C)
    if len(minors) <= n or minors[-1] < 0:
        return QuiverClass("other")
    if minors[-1] > 0:
        family = "A" if minors[-1] == n + 1 else "D" if minors[-1] == 4 else "E"
        return QuiverClass("dynkin", family, n)
    cof = {v: _leading_minors([r[:k] + r[k + 1:] for i, r in enumerate(C) if i != k])[-1]
           for k, v in enumerate(q.vertices)}
    least = min(cof.values())
    family = {1: "A", 4: "D"}.get(max(cof.values()) // least, "E")
    return QuiverClass("extended", family, n - 1, min(v for v in cof if cof[v] == least))


# ---------------------------------------------------------------------------
# catalog


_ONE_PARAMETER = ("free", "affine_a", "affine_d", "affine_e", "dynkin_a", "dynkin_d",
                  "dynkin_e")


def catalog(name, *params) -> Quiver:
    """Named quivers in the orientations used throughout the package.

    affine_a(n): n-cycle (type ~A_{n-1}), counter-clockwise; affine_a(1) is
    the one-loop quiver.  affine_d(n): type ~D_n, all arrows rightward.
    affine_e(6|7|8) and star(d1..dm): arrows toward the special vertex.
    free(g): one vertex with g loops.  dynkin_a/d/e(n).
    """
    if name in _ONE_PARAMETER and len(params) != 1:
        raise QuiverError(f"catalog {name!r} takes one parameter, got {len(params)}")
    if name == "free":
        (g,) = params
        if g < 1:
            raise QuiverError("free(g) needs g >= 1")
        names = {}
        for i in range(g):
            names[i] = f"x{i + 1}" if g > 1 else "x"
        return Quiver([0], [(i, 0, 0) for i in range(g)], names=names)
    if name == "affine_a":
        (n,) = params
        if n < 1:
            raise QuiverError("affine_a(n) needs n >= 1")
        if n == 1:
            return Quiver([0], [(0, 0, 0)], names={0: "x"})
        return Quiver(range(n), [(i, i, (i + 1) % n) for i in range(n)])
    if name == "star":
        lengths = list(params)
        if not lengths or any(d < 1 for d in lengths):
            raise QuiverError("star(d1..dm) needs positive branch lengths")
        verts = [0]
        arrows = []
        aid = 0
        for d in lengths:
            prev = 0
            for k in range(d):
                v = len(verts)
                verts.append(v)
                # oriented toward the special vertex 0
                arrows.append((aid, v, prev))
                aid += 1
                prev = v
        return Quiver(verts, arrows)
    if name == "affine_d":
        (n,) = params
        if n < 4:
            raise QuiverError("affine_d(n) needs n >= 4")
        # vertices: 0 = LU, 1 = LD, 2..n-2 the internal chain, n-1 = RU, n = RD
        verts = list(range(n + 1))
        arrows = []
        aid = 0
        arrows.append((aid, 0, 2)); aid += 1
        arrows.append((aid, 1, 2)); aid += 1
        for v in range(2, n - 2):
            arrows.append((aid, v, v + 1)); aid += 1
        arrows.append((aid, n - 2, n - 1)); aid += 1
        arrows.append((aid, n - 2, n)); aid += 1
        return Quiver(verts, arrows)
    if name == "affine_e":
        (n,) = params
        shapes = {6: (2, 2, 2), 7: (3, 3, 1), 8: (5, 2, 1)}
        if n not in shapes:
            raise QuiverError(f"affine_e({n}) is not a diagram")
        return catalog("star", *shapes[n])
    if name == "dynkin_a":
        (n,) = params
        if n < 1:
            raise QuiverError("dynkin_a(n) needs n >= 1")
        return Quiver(range(n), [(i, i, i + 1) for i in range(n - 1)])
    if name == "dynkin_d":
        (n,) = params
        if n < 4:
            raise QuiverError("dynkin_d(n) needs n >= 4")
        return catalog("star", n - 3, 1, 1)
    if name == "dynkin_e":
        (n,) = params
        if n not in (6, 7, 8):
            raise QuiverError(f"dynkin_e({n}) is not a diagram")
        return catalog("star", n - 4, 2, 1)
    raise QuiverError(f"unknown catalog name {name!r}")


# ---------------------------------------------------------------------------
# forests for partial preprojective algebras


@dataclass(frozen=True)
class Forest:
    """Forest in the double with src bijective onto the black vertices."""

    arrows: tuple


def forest_for_white(qd: Quiver, white) -> Forest:
    """Breadth-first forest of Prop-bpp type in the doubled quiver qd.

    Every black vertex gets exactly one outgoing arrow pointing one step
    toward the white set; ties broken by arrow id.
    """
    if not qd.starred:
        raise QuiverError("forest lives in the double; pass a starred quiver")
    white = set(white)
    if not white:
        raise QuiverError("white set must be nonempty")
    reached = set(white)
    assignment = {}
    frontier = set(white)
    while frontier:
        nxt = set()
        black = [v for v in qd.vertices if v not in reached]
        for v in sorted(black):
            cands = [a for a in qd.out_arrows(v) if qd.dst(a) in reached and qd.dst(a) != v]
            if cands:
                a = min(cands)
                assignment[v] = a
                nxt.add(v)
        if not nxt:
            break
        reached |= nxt
        frontier = nxt
    missing = [v for v in qd.vertices if v not in reached]
    if missing:
        raise QuiverError(f"vertices {missing} cannot reach the white set")
    return Forest(tuple(sorted(assignment.values())))
