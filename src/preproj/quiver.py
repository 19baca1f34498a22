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


@dataclass(frozen=True)
class QuiverClass:
    """Shape of the underlying undirected graph.

    kind is 'dynkin', 'extended', or 'other'; family is 'A', 'D' or 'E' when
    kind is not 'other'.  rank follows the usual subscript (so the one-loop
    quiver is ('extended', 'A', 0)).  extending_vertex is set only for
    extended Dynkin quivers and is the smallest valid choice.
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
        self.vertices = tuple(vertices)
        self.arrows = tuple((int(a), int(s), int(t)) for (a, s, t) in arrows)
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
        white = set(white)
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

    def undirected_degrees(self):
        """Vertex degrees in the underlying graph; a loop counts twice."""
        deg = {v: 0 for v in self.vertices}
        for (_, s, t) in self.arrows:
            deg[s] += 1
            deg[t] += 1
        return deg

    def adjacency(self, doubled=True):
        """Adjacency matrix (list of lists) indexed by vertex order.

        With doubled=True this is the adjacency matrix of the double, i.e. of
        the underlying undirected multigraph, which is what the Hilbert
        formulas use.  For an already-starred quiver the arrows themselves
        are counted.
        """
        idx = {v: k for k, v in enumerate(self.vertices)}
        n = len(self.vertices)
        mat = [[0] * n for _ in range(n)]
        for (_, s, t) in self.arrows:
            mat[idx[s]][idx[t]] += 1
            if doubled and not self.starred:
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
            white = set(doc.get("white", []))
        except QuiverError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise QuiverError(f"malformed quiver JSON ({type(exc).__name__}: {exc})") from exc
        return q, white


def double(q: Quiver) -> Quiver:
    """Add a reverse arrow a* for every arrow a; a* gets id a + N."""
    if q.starred:
        raise QuiverError("quiver is already a double")
    n = 1 + max(a for (a, _, _) in q.arrows) if q.arrows else 0
    arrows = list(q.arrows)
    star = {}
    names = dict(q.names)
    for (a, s, t) in q.arrows:
        arrows.append((a + n, t, s))
        star[a] = a + n
        star[a + n] = a
        names[a + n] = q.arrow_name(a) + "*"
    return Quiver(q.vertices, arrows, starred=True, star=star, names=names)


def _branch_profile(q: Quiver):
    """For a tree with exactly one vertex of degree >= 3, the sorted branch
    lengths from that vertex, or None if the shape is not such a star."""
    deg = q.undirected_degrees()
    hubs = [v for v in q.vertices if deg[v] >= 3]
    if len(hubs) != 1:
        return None
    hub = hubs[0]
    adj = {v: [] for v in q.vertices}
    for (_, s, t) in q.arrows:
        adj[s].append(t)
        adj[t].append(s)
    lengths = []
    for w in adj[hub]:
        length = 1
        prev, cur = hub, w
        while deg[cur] == 2:
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        if deg[cur] > 2:
            return None
        lengths.append(length)
    return hub, sorted(lengths, reverse=True)


def classify(q: Quiver) -> QuiverClass:
    """Classify the underlying undirected graph as Dynkin / extended Dynkin / other."""
    if q.starred:
        raise QuiverError("classify expects an undoubled quiver")
    nv = len(q.vertices)
    ne = len(q.arrows)
    deg = q.undirected_degrees()
    loops = [a for (a, s, t) in q.arrows if s == t]

    if loops:
        if nv == 1 and ne == 1:
            return QuiverClass("extended", "A", 0, extending_vertex=q.vertices[0])
        return QuiverClass("other")

    if ne == nv - 1:
        # tree shapes
        maxdeg = max(deg.values()) if deg else 0
        if maxdeg <= 2:
            return QuiverClass("dynkin", "A", nv)
        prof = _branch_profile(q)
        if prof is not None:
            hub, lengths = prof
            if len(lengths) == 3:
                l1, l2, l3 = lengths
                if (l2, l3) == (1, 1):
                    return QuiverClass("dynkin", "D", nv)
                if (l1, l2, l3) == (2, 2, 2):
                    return QuiverClass("extended", "E", 6, _extending_vertex(q, "E", 6))
                if (l1, l2, l3) == (3, 3, 1):
                    return QuiverClass("extended", "E", 7, _extending_vertex(q, "E", 7))
                if (l1, l2, l3) == (5, 2, 1):
                    return QuiverClass("extended", "E", 8, _extending_vertex(q, "E", 8))
                if (l2, l3) == (2, 1) and l1 in (2, 3, 4):
                    return QuiverClass("dynkin", "E", l1 + 4)
            if len(lengths) == 4 and lengths == [1, 1, 1, 1]:
                return QuiverClass("extended", "D", 4, _extending_vertex(q, "D", 4))
        else:
            # two trivalent vertices -> candidate extended D_n, n >= 5
            hubs = [v for v in q.vertices if deg[v] == 3]
            if len(hubs) == 2 and max(deg.values()) == 3:
                others = [v for v in q.vertices if deg[v] <= 2]
                ends = [v for v in others if deg[v] == 1]
                if len(ends) == 4 and _is_extended_d_shape(q, hubs):
                    return QuiverClass("extended", "D", nv - 1, _extending_vertex(q, "D", nv - 1))
        return QuiverClass("other")

    if ne == nv:
        # one independent cycle
        if all(d == 2 for d in deg.values()):
            return QuiverClass("extended", "A", nv - 1, _extending_vertex(q, "A", nv - 1))
        return QuiverClass("other")

    return QuiverClass("other")


def _is_extended_d_shape(q: Quiver, hubs):
    """Both trivalent vertices carry two pendant leaves and lie on a path."""
    adj = {v: set() for v in q.vertices}
    for (_, s, t) in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    deg = q.undirected_degrees()
    for h in hubs:
        leaves = [w for w in adj[h] if deg[w] == 1]
        if len(leaves) != 2:
            return False
    return True


def _deleting_leaves_dynkin(q: Quiver, v):
    """Whether removing v (and incident arrows) leaves a connected Dynkin quiver."""
    verts = [w for w in q.vertices if w != v]
    arrows = [(a, s, t) for (a, s, t) in q.arrows if s != v and t != v]
    if not verts:
        return False
    try:
        sub = Quiver(verts, arrows)
    except QuiverError:
        return False
    return classify(sub).is_dynkin()


def _extending_vertex(q: Quiver, family, rank):
    if (family, rank) == ("A", 0):
        return q.vertices[0]
    for v in sorted(q.vertices):
        if _deleting_leaves_dynkin(q, v):
            return v
    raise QuiverError("no extending vertex found in a quiver classified as extended Dynkin")


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
# extended Dynkin subquivers


def _subquiver(q: Quiver, verts, arrow_ids):
    return Quiver(sorted(verts), [(a, q.src(a), q.dst(a)) for a in sorted(arrow_ids)],
                  names={a: q.arrow_name(a) for a in arrow_ids})


def find_extended_dynkin_subquiver(q: Quiver):
    """Some extended Dynkin subquiver of q, or None when q is (extended) Dynkin.

    Search order: loops, parallel pairs, cycles, then ~D / ~E tree shapes.
    The returned subquiver keeps the parent's vertex and arrow ids, so the
    embedding is the identity on ids.
    """
    if q.starred:
        raise QuiverError("expects an undoubled quiver")
    cls = classify(q)
    if cls.kind != "other":
        return None

    # loops: a one-vertex one-loop subquiver is ~A_0
    for (a, s, t) in q.arrows:
        if s == t:
            return _subquiver(q, [s], [a])
    # parallel pair (either orientation): ~A_1
    seen = {}
    for (a, s, t) in q.arrows:
        key = tuple(sorted((s, t)))
        if key in seen:
            return _subquiver(q, key, [seen[key], a])
        seen[key] = a
    # undirected cycle: ~A_{k-1}; found by DFS, deterministic by arrow id
    cyc = _find_cycle(q)
    if cyc is not None:
        verts, arrows = cyc
        return _subquiver(q, verts, arrows)
    # tree case: look for ~D_4 (a vertex of degree >= 4), then ~D_n (two
    # vertices of degree >= 3), then ~E shapes around a single hub
    deg = q.undirected_degrees()
    adj = _adjacency_with_arrows(q)
    for v in sorted(q.vertices):
        if deg[v] >= 4:
            picks = sorted(adj[v].items())[:4]
            verts = [v] + [w for w, _ in picks]
            arrows = [arr for _, arr in picks]
            return _subquiver(q, verts, arrows)
    hubs = sorted(v for v in q.vertices if deg[v] >= 3)
    if len(hubs) >= 2:
        sub = _dtilde_between(q, hubs, adj)
        if sub is not None:
            return sub
    if len(hubs) == 1:
        sub = _etilde_at(q, hubs[0], adj)
        if sub is not None:
            return sub
    return None


def _adjacency_with_arrows(q: Quiver):
    adj = {v: {} for v in q.vertices}
    for (a, s, t) in q.arrows:
        if s != t:
            adj[s].setdefault(t, a)
            adj[t].setdefault(s, a)
    return adj


def _find_cycle(q: Quiver):
    adj = {v: [] for v in q.vertices}
    for (a, s, t) in q.arrows:
        adj[s].append((t, a))
        adj[t].append((s, a))
    for v in adj:
        adj[v].sort(key=lambda p: p[1])
    start = q.vertices[0]
    parent = {start: (None, None)}
    order = [start]
    todo = deque([start])
    while todo:
        v = todo.popleft()
        for (w, a) in adj[v]:
            if a == parent[v][1]:
                continue
            if w in parent:
                # close the cycle through the BFS tree
                path_v, path_w = _tree_path(parent, v), _tree_path(parent, w)
                common = set(x for x, _ in path_v) & set(x for x, _ in path_w)
                verts = set([v, w])
                arrows = set([a])
                for (x, e) in path_v:
                    if x in common:
                        break
                    verts.add(x)
                    arrows.add(e)
                    verts.add(parent[x][0])
                for (x, e) in path_w:
                    if x in common:
                        break
                    verts.add(x)
                    arrows.add(e)
                    verts.add(parent[x][0])
                meet = next(x for x, _ in path_v if x in common)
                verts.add(meet)
                return verts, arrows
            parent[w] = (v, a)
            order.append(w)
            todo.append(w)
    return None


def _tree_path(parent, v):
    out = []
    while parent[v][0] is not None:
        out.append((v, parent[v][1]))
        v = parent[v][0]
    out.append((v, None))
    return [(x, e) for (x, e) in out if e is not None] + [(v, None)]


def _grow_branch(q, adj, hub, first, taken, length):
    """Simple path of `length` arrows from hub starting toward `first`."""
    verts = []
    arrows = []
    prev, cur = hub, first
    arrows.append(adj[prev][cur])
    verts.append(cur)
    while len(arrows) < length:
        nxt = [w for w in sorted(adj[cur]) if w != prev and w not in taken and w != hub and w not in verts]
        if not nxt:
            return None
        w = nxt[0]
        arrows.append(adj[cur][w])
        verts.append(w)
        prev, cur = cur, w
    return verts, arrows


def _etilde_at(q: Quiver, hub, adj):
    deg = q.undirected_degrees()
    if deg[hub] < 3:
        return None
    # try branch profiles (5,2,1), (3,3,1), (2,2,2) in each neighbor order
    import itertools

    nbrs = sorted(adj[hub])
    for profile in ((2, 2, 2), (3, 3, 1), (5, 2, 1)):
        for combo in itertools.permutations(nbrs, 3):
            taken = set([hub])
            verts = [hub]
            arrows = []
            ok = True
            for first, length in zip(combo, profile):
                grown = _grow_branch(q, adj, hub, first, taken, length)
                if grown is None:
                    ok = False
                    break
                vs, ars = grown
                if taken & set(vs):
                    ok = False
                    break
                taken |= set(vs)
                verts += vs
                arrows += ars
            if ok:
                return _subquiver(q, verts, arrows)
    return None


def _dtilde_between(q: Quiver, hubs, adj):
    deg = q.undirected_degrees()
    import itertools

    for h1, h2 in itertools.combinations(hubs, 2):
        spine = _simple_path(q, adj, h1, h2)
        if spine is None:
            continue
        sp_verts, sp_arrows = spine
        inner = set(sp_verts)
        l1 = [w for w in sorted(adj[h1]) if w not in inner][:2]
        l2 = [w for w in sorted(adj[h2]) if w not in inner and w not in l1][:2]
        if len(l1) == 2 and len(l2) == 2:
            verts = list(inner) + l1 + l2
            arrows = sp_arrows + [adj[h1][w] for w in l1] + [adj[h2][w] for w in l2]
            return _subquiver(q, verts, arrows)
    return None


def _simple_path(q, adj, a, b):
    prev = {a: (None, None)}
    todo = deque([a])
    while todo:
        v = todo.popleft()
        if v == b:
            verts = []
            arrows = []
            while v is not None:
                verts.append(v)
                p, e = prev[v]
                if e is not None:
                    arrows.append(e)
                v = p
            return verts, arrows
        for w in sorted(adj[v]):
            if w not in prev:
                prev[w] = (v, adj[v][w])
                todo.append(w)
    return None


# ---------------------------------------------------------------------------
# forests for partial preprojective algebras


@dataclass(frozen=True)
class Forest:
    """Forest in the double with src bijective onto the black vertices."""

    arrows: tuple
    root_assignment: dict

    def __iter__(self):
        return iter(self.arrows)


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
    return Forest(tuple(sorted(assignment.values())), assignment)
