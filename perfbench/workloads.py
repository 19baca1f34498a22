"""The three workloads.

Each workload has three parts:

* make_inputs(seed, scale): everything the seed decides, as a JSON-able spec
  (hashed into the input digest) plus the preproj objects built from it;
* run_pass(inputs, tr, latencies): one timed pass through the public API,
  with a span around every call into a layer; returns the answers;
* check(inputs, answers, ref): (check name, ok) pairs against references
  from reference.py, run outside the timed region.  `ref` is a per-run dict
  that caches reference values between passes.
"""

from __future__ import annotations

import math
import random

from preproj import (CyclicClass, LatticeSolver, LambdaComputation, PathContext,
                     Quiver, TruncatedSeries, bracket, catalog, classify,
                     double, egid_check, forest_for_white,
                     hT_of, hilbert_prep, preprojective_relation,
                     preprojective_system, r_power_class, sym_plus_series)
from preproj.homology import forest_arrow_order
from preproj.necklace import CornerPoisson
from preproj.series import o_series_char_p, o_series_char_zero

import reference as R

FREE2_LOOPS_IN_DOUBLE = 4


# ---------------------------------------------------------------------------
# shared steps


def lambda_steps(tr, ctx, q, white, D, arrow_order=None):
    """lambda_graded(engine='normal') split into its public steps."""
    with tr.span("rewrite.complete"):
        system = preprojective_system(q, white, D, ctx=ctx, arrow_order=arrow_order)
        if tr.enabled:
            tr.count(rules=len(system.rules))
    comp = LambdaComputation(ctx, system, engine="normal")
    return comp, graded_summaries(tr, comp, range(D + 1))


def graded_summaries(tr, comp, degrees):
    out = {}
    for d in degrees:
        with tr.span("homology.ambient", degree=d):
            keys = comp.ambient_keys(d)
            if tr.enabled:
                tr.count(keys=len(keys))
        with tr.span("homology.relations", degree=d):
            rows = comp.relation_rows(d)
            if tr.enabled:
                tr.count(rows=len(rows), nnz=sum(map(len, rows)))
        with tr.span("intlinalg.snf", degree=d):
            out[d] = comp.summary(d)
            if tr.enabled:
                tr.count(rank=len(keys) - out[d].free_rank, rows=len(rows))
    return out


def torsion_of(summaries):
    return {d: s.invariant_factors for d, s in summaries.items() if s.invariant_factors}


def r_power_orders(tr, comp, D):
    """{(p, l): order of r^(p^l)} for every 2 p^l <= D, and the classes."""
    orders, classes = {}, {}
    for p, ell in R.r_powers(D):
        d = 2 * p ** ell
        with tr.span("homology.classes", degree=d):
            classes[p, ell] = r_power_class(comp, p, ell)
        lattice(tr, d, lambda: comp.solver(d))
        with tr.span("intlinalg.order_of", degree=d):
            orders[p, ell] = comp.order_of(classes[p, ell])
    return orders, classes


def lattice(tr, d, build):
    with tr.span("intlinalg.lattice", degree=d):
        solver = build()
        if tr.enabled:
            tr.count(journal_ops=len(solver.res.col_ops))
    return solver


def query_batch(tr, solver, vectors, latencies, d):
    """order_of for each vector; each call's (start, seconds) on the
    tracer's clock goes to `latencies`."""
    out = []
    clock = tr.clock
    with tr.span("intlinalg.order_of", degree=d):
        for v in vectors:
            t0 = clock()
            out.append(solver.order_of(v))
            latencies.append((t0, clock() - t0))
    return out


def combination(rows, picks, base=None, k=0):
    """k * base + sum c * rows[pick % len(rows)] as a sparse vector."""
    v = {j: k * c for j, c in base.items()} if base and k else {}
    for pick, c in picks:
        for j, x in rows[pick % len(rows)].items():
            v[j] = v.get(j, 0) + c * x
    return {j: x for j, x in v.items() if x}


def seeded_picks(rng, count, terms):
    return [[(rng.randrange(1 << 30), rng.choice((-2, -1, 1, 2))) for _ in range(terms)]
            for _ in range(count)]


def bracket_probes(rng, ctx, count):
    """({[a^m], [a*^n]}, a, m, n): the bracket is m n [a^(m-1) a*^(n-1)]."""
    q = ctx.quiver
    originals = sorted(a for a, _, _ in q.arrows if a < q.star[a])
    out = []
    for _ in range(count):
        a, m, n = rng.choice(originals), rng.randint(1, 5), rng.randint(1, 5)
        out.append((a, m, n))
    return out


def run_brackets(tr, ctx, probes):
    star = ctx.quiver.star
    with tr.span("necklace"):
        return [bracket(ctx.cyclic({CyclicClass(ctx.quiver.src(a), (a,) * m): 1}),
                        ctx.cyclic({CyclicClass(ctx.quiver.src(a), (star[a],) * n): 1}))
                for a, m, n in probes]


def check_brackets(ctx, probes, results):
    star = ctx.quiver.star
    out = []
    for (a, m, n), res in zip(probes, results):
        want = (a,) * (m - 1) + (star[a],) * (n - 1)
        ok = len(res.terms) == 1
        if ok:
            (key, c), = res.terms.items()
            ok = c == m * n and R.is_rotation(key.word, want)
        out.append((f"bracket[a^{m}, a*^{n}]", ok))
    return out


def check_equal(name, got, want):
    return [(name, got == want)]


# ---------------------------------------------------------------------------
# hh0_wild


class Hh0Wild:
    """Lambda of `free 2` (normal engine) through degree D, the r^(p^l)
    orders, and a batch of order queries against the top-degree lattice.

    D is 8, not 9: a degree-9 pass takes about 16 s, two samples a run.  The
    arrow order is the default one: other orders give the same keys, rows
    and nnz, but degree-6 journals from 1,123 to 1,227 ops, which moved
    query latency with the seed."""

    name = "hh0_wild"

    def make_inputs(self, seed, scale):
        rng = random.Random(seed)
        D = 8 if scale == "full" else 6
        q = catalog("free", 2)
        ctx = PathContext(q)
        nq = 400 if scale == "full" else 12
        spec = {"degree": D,
                "brackets": bracket_probes(rng, ctx, 6),
                "query_k": [rng.randrange(4) for _ in range(nq)],
                "query_rows": seeded_picks(rng, nq, 3)}
        return spec, {"q": q, "ctx": ctx}

    def run_pass(self, inp, tr, latencies):
        spec, q, ctx = inp["spec"], inp["q"], inp["ctx"]
        D = spec["degree"]
        ans = {}
        with tr.span("quiver"):
            ans["kind"] = classify(q).kind
        comp, summ = lambda_steps(tr, ctx, q, (), D)
        ans["torsion"] = torsion_of(summ)
        ans["ranks"] = [summ[d].free_rank for d in range(D + 1)]
        with tr.span("rewrite.normal_count"):
            counts = comp.system.normal_count_matrix(D)
        ans["pi_dims"] = [counts[d][0][0] for d in range(D + 1)]
        with tr.span("series"):
            ans["o_series"] = o_series_char_zero(q, (), D).scalar_coeffs()
        ans["orders"], classes = r_power_orders(tr, comp, D)
        # the batch targets the highest-degree class: k r^(p^l) + relations
        (p, ell), cls = max(classes.items(), key=lambda kv: kv[1].degree)
        d = cls.degree
        rows = comp.relation_rows(d)
        vectors = [combination(rows, picks, cls.coords, k)
                   for k, picks in zip(spec["query_k"], spec["query_rows"])]
        ans["query_p"] = p
        ans["queries"] = query_batch(tr, comp.solver(d), vectors, latencies, d)
        ans["brackets"] = run_brackets(tr, ctx, spec["brackets"])
        return ans

    def check(self, inp, ans, ref):
        spec = inp["spec"]
        D = spec["degree"]
        if not ref:
            h = R.one_vertex_o_series(FREE2_LOOPS_IN_DOUBLE, D)
            ref["torsion"] = R.wild_torsion(D)
            ref["ranks"] = [1] + R.euler_exponents(h, D)[1:]
            ref["o_series"] = h
            ref["pi_dims"] = R.one_vertex_pi_dims(FREE2_LOOPS_IN_DOUBLE, D)
            ref["orders"] = R.r_power_orders(ref["torsion"], D)
        out = check_equal("kind", ans["kind"], "other")
        for key in ("torsion", "ranks", "o_series", "pi_dims", "orders"):
            out += check_equal(key, ans[key], ref[key])
        p = ans["query_p"]
        for k, got in zip(spec["query_k"], ans["queries"]):
            out.append(("query", got == p // math.gcd(k, p)))
        return out + check_brackets(inp["ctx"], spec["brackets"], ans["brackets"])


# ---------------------------------------------------------------------------
# lattice_orders


class LatticeOrders:
    """Span engine on `free 2`: torsion below the top degree D, then the
    F_2 lattice at D (relations plus 2 Z^n) and a batch of order queries
    against it: relation combinations, sparse vectors and the coordinates of
    seeded cyclic elements.

    D is 7, not 8: the degree-8 lattice (12,326 x 8,230) takes about 20 s to
    build, so a run of the benchmark's length would hold a single sample."""

    name = "lattice_orders"

    def make_inputs(self, seed, scale):
        rng = random.Random(seed)
        D = 7 if scale == "full" else 6
        q = catalog("free", 2)
        ctx = PathContext(q)
        letters = sorted(a for a, _, _ in ctx.quiver.arrows)
        nq = 200 if scale == "full" else 10
        cyclic = [[(tuple(rng.choice(letters) for _ in range(D)), rng.randint(1, 3))
                   for _ in range(3)] for _ in range(nq)]
        spec = {"degree": D,
                "brackets": bracket_probes(rng, ctx, 6),
                "combos": seeded_picks(rng, nq, 4),
                "random": [[(rng.randrange(1 << 30), rng.choice((-3, -2, -1, 1, 2, 3)))
                            for _ in range(6)] for _ in range(nq)],
                "cyclic": cyclic}
        return spec, {"q": q, "ctx": ctx, "gens": preprojective_relation(ctx, ()),
                      "cyclic": [ctx.cyclic(_cyclic_terms(ctx, terms)) for terms in cyclic]}

    def run_pass(self, inp, tr, latencies):
        spec, q, ctx = inp["spec"], inp["q"], inp["ctx"]
        D = spec["degree"]
        ans = {}
        with tr.span("quiver"):
            ans["kind"] = classify(q).kind
        with tr.span("rewrite.complete"):
            system = preprojective_system(q, (), D, ctx=ctx)
            if tr.enabled:
                tr.count(rules=len(system.rules))
        with tr.span("rewrite.normal_count"):
            counts = system.normal_count_matrix(D)
        ans["pi_dims"] = [counts[d][0][0] for d in range(D + 1)]
        comp = LambdaComputation(ctx, None, ideal_gens=inp["gens"], engine="span")
        summ = graded_summaries(tr, comp, range(D))
        ans["torsion"] = torsion_of(summ)
        ans["ranks"] = [summ[d].free_rank for d in range(D)]
        with tr.span("homology.ambient", degree=D):
            n = len(comp.ambient_keys(D))
            if tr.enabled:
                tr.count(keys=n)
        with tr.span("homology.relations", degree=D):
            rows = comp.relation_rows(D)
            if tr.enabled:
                tr.count(rows=len(rows), nnz=sum(map(len, rows)))
        lattice_rows = rows + [{j: 2} for j in range(n)]
        solver = lattice(tr, D, lambda: LatticeSolver(n, lattice_rows))
        ans["rows"] = rows
        ans["n"] = n
        ans["f2_dim"] = solver.res.invariant_factors.count(2)
        with tr.span("series"):
            ans["o_series_p"] = o_series_char_p(q, (), 2, D).scalar_coeffs()
        with tr.span("homology.classes", degree=D):
            images = [comp.coords(c, D) for c in inp["cyclic"]]
        vectors = ([combination(rows, picks) for picks in spec["combos"]]
                   + [_sparse(n, picks) for picks in spec["random"]] + images)
        ans["vectors"] = vectors
        ans["queries"] = query_batch(tr, solver, vectors, latencies, D)
        ans["brackets"] = run_brackets(tr, ctx, spec["brackets"])
        return ans

    def check(self, inp, ans, ref):
        spec = inp["spec"]
        D = spec["degree"]
        if not ref:
            h0 = R.one_vertex_o_series(FREE2_LOOPS_IN_DOUBLE, D)
            ranks = R.euler_exponents(h0, D)
            torsion = R.wild_torsion(D)
            ref["torsion"] = R.truncate(torsion, D - 1)
            ref["ranks"] = [1] + ranks[1:D]
            ref["pi_dims"] = R.one_vertex_pi_dims(FREE2_LOOPS_IN_DOUBLE, D)
            ref["o_series_p"] = R.one_vertex_o_series(
                FREE2_LOOPS_IN_DOUBLE, D, R.wild_extra_degrees(2, D))
            # mod-p identity: dim_F2 = free rank + #{factors divisible by 2}
            ref["f2_dim"] = ranks[D] + (1 if torsion.get(D) == (2,) else 0)
            ref["span"] = R.F2Span(ans["rows"])
        out = check_equal("kind", ans["kind"], "other")
        for key in ("torsion", "ranks", "pi_dims", "o_series_p", "f2_dim"):
            out += check_equal(key, ans[key], ref[key])
        out += check_equal("f2_dim_elimination", ans["f2_dim"], ans["n"] - ref["span"].rank)
        ncombo = len(spec["combos"])
        for i, (v, got) in enumerate(zip(ans["vectors"], ans["queries"])):
            want = 1 if i < ncombo or ref["span"].contains(v) else 2
            out.append(("query", got == want))
        return out + check_brackets(inp["ctx"], spec["brackets"], ans["brackets"])


def _cyclic_terms(ctx, terms):
    out = {}
    for word, c in terms:
        key = CyclicClass.of(ctx, (ctx.quiver.src(word[0]), word))
        out[key] = out.get(key, 0) + c
    return out


def _sparse(n, picks):
    v = {}
    for pick, c in picks:
        v[pick % n] = v.get(pick % n, 0) + c
    return {j: x for j, x in v.items() if x}


# ---------------------------------------------------------------------------
# identity_sweep

# (vertices, edges, white) of the fixed partial preprojective instances
PARTIAL = [
    (3, [(0, 1), (1, 2), (2, 0), (0, 1), (1, 2)], (0,)),
    (2, [(0, 1), (0, 1), (0, 1)], (0,)),
    (4, [(0, 1), (1, 2), (2, 3), (3, 3)], (1, 3)),
    (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], (2,)),
]
# (catalog name, params, degree bound, hand-written type, table key)
DYNKIN = [
    ("dynkin_a", (3,), 8, "A3", "A"),
    ("dynkin_e", (6,), 12, "E6", "E6"),
    ("dynkin_e", (7,), 16, "E7", "E7"),
    ("dynkin_e", (8,), 28, "E8", "E8"),
    ("affine_d", (4,), 16, "~D4", "D"),
    ("affine_e", (6,), 18, "~E6", "E6"),
    ("affine_e", (7,), 18, "~E7", "E7"),
    ("affine_e", (8,), 28, "~E8", "E8"),
]
# r^(p^l) is expanded in the free path algebra before reduction, which costs
# about (arrows in the double)^(p^l); above this degree it would swamp the sweep
CLASS_DEGREE = 10
EGID = [("affine_d", (4,)), ("affine_d", (5,)), ("affine_e", (6,)),
        ("affine_e", (7,)), ("affine_e", (8,))]


class IdentitySweep:
    """Many mid-size algebras: partial preprojective instances with the
    product identity, the Dynkin and extended Dynkin tables with their
    r^(p^l) orders, egid_check, the ~A2 and ~E6 corner Poisson brackets, a
    necklace Jacobi batch, and order queries against the first instance."""

    name = "identity_sweep"

    def make_inputs(self, seed, scale):
        rng = random.Random(seed)
        small = scale != "full"
        # Fixed labels and orientations.  Seeded relabelings give the same
        # ranks but move the completion's work: the pass time spread 9%
        # across seeds, against 1% for repeated runs of one seed.
        partial = [{"vertices": nv, "arrows": [[a, s, t] for a, (s, t) in enumerate(edges)],
                    "white": list(white), "degree": 6 if small else 8}
                   for nv, edges, white in (PARTIAL[:2] if small else PARTIAL)]
        # catalog orientations and labels: under some relabelings the E8
        # completion through degree 28 does not finish in minutes
        dynkin = [{"catalog": [name, *params], "degree": min(D, 10) if small else D,
                   "label": label, "table": table}
                  for name, params, D, label, table in (DYNKIN[:2] if small else DYNKIN)]
        nq = 600 if scale == "full" else 12
        spec = {"partial": partial, "dynkin": dynkin,
                "egid": [name + str(p) for name, p in (EGID[:1] if small else EGID)],
                "jacobi": [[rng.randrange(1 << 30) for _ in range(3)] for _ in range(8)],
                "query_k": [rng.randrange(3) for _ in range(nq)],
                "query_keys": [rng.randrange(1 << 30) for _ in range(nq)],
                "query_rows": seeded_picks(rng, nq, 5)}
        inp = {"partial": [], "dynkin": [], "egid": [catalog(n, *p) for n, p in
                                                     (EGID[:1] if small else EGID)]}
        for inst in partial:
            q = Quiver(range(inst["vertices"]), inst["arrows"])
            qd = double(q)
            forest = forest_for_white(qd, inst["white"])
            inp["partial"].append({"q": q, "ctx": PathContext(q), "forest": forest,
                                   "order": forest_arrow_order(qd, inst["white"])})
        for inst in dynkin:
            q = catalog(*inst["catalog"])
            inp["dynkin"].append({"q": q, "ctx": PathContext(q)})
        inp["corner"] = {k: PathContext(catalog(*k)) for k in (("affine_a", 3), ("affine_e", 6))}
        # Jacobi triples: closed words of length 2..4 in the double of ~E6
        words = _closed_words(inp["corner"]["affine_e", 6].quiver, 4)
        ctx6 = inp["corner"]["affine_e", 6]
        inp["jacobi"] = [[ctx6.cyclic({CyclicClass.of(ctx6, words[i % len(words)]): 1})
                          for i in triple] for triple in spec["jacobi"]]
        return spec, inp

    def run_pass(self, inp, tr, latencies):
        spec = inp["spec"]
        ans = {"partial": [], "dynkin": []}
        first = None
        for inst, obj in zip(spec["partial"], inp["partial"]):
            D, white = inst["degree"], inst["white"]
            comp, summ = lambda_steps(tr, obj["ctx"], obj["q"], white, D, obj["order"])
            ranks = [summ[d].free_rank for d in range(D + 1)]
            with tr.span("rewrite.normal_count"):
                counts = comp.system.normal_count_matrix(D)
            with tr.span("series"):
                ident = sym_plus_series(TruncatedSeries.scalar(ranks, D)) == \
                    o_series_char_zero(obj["q"], white, D)
                hilbert = hilbert_prep(obj["q"], white, D).coeffs == counts
            ans["partial"].append({
                "torsion": torsion_of(summ), "ranks": ranks, "identity": ident,
                "hilbert": hilbert, "leads": sorted(r.lm_word for r in comp.system.rules)})
            first = first or (comp, D, obj)
        for inst, obj in zip(spec["dynkin"], inp["dynkin"]):
            D = inst["degree"]
            with tr.span("quiver"):
                label = str(classify(obj["q"]))
            comp, summ = lambda_steps(tr, obj["ctx"], obj["q"], (), D)
            orders, _ = r_power_orders(tr, comp, min(D, CLASS_DEGREE))
            row = {"label": label, "torsion": torsion_of(summ),
                   "ranks": [summ[d].free_rank for d in range(1, D + 1)], "orders": orders}
            if label.startswith("~"):
                with tr.span("series"):
                    row["closed_form"] = _closed_form_table(obj["q"], D)
            ans["dynkin"].append(row)
        with tr.span("series"):
            ans["egid"] = [egid_check(q, 12) for q in inp["egid"]]
        ans["corner"] = self._corner(tr, inp["corner"])
        with tr.span("necklace"):
            ans["jacobi"] = [_jacobi(a, b, c) for a, b, c in inp["jacobi"]]
        comp, D, obj = first
        rows = comp.relation_rows(D)
        keys = comp.ambient_keys(D)
        normal = _cyclically_normal_keys(keys, obj["forest"], obj["ctx"].quiver)
        vectors = [combination(rows, picks, {normal[key % len(normal)]: 1}, k)
                   for k, key, picks in zip(spec["query_k"], spec["query_keys"],
                                            spec["query_rows"])]
        solver = lattice(tr, D, lambda: comp.solver(D))
        ans["queries"] = query_batch(tr, solver, vectors, latencies, D)
        return ans

    def _corner(self, tr, ctxs):
        out = {}
        ctx = ctxs["affine_a", 3]
        comp, _ = lambda_steps(tr, ctx, ctx.quiver, (), 8)
        with tr.span("necklace"):
            cp = CornerPoisson(comp)
            q = ctx.quiver
            orig = [a for a, _, _ in q.arrows if a < q.star[a]]
            x = sum((ctx.arrow(a) for a in orig[1:]), ctx.arrow(orig[0]))
            y = sum((ctx.arrow(q.star[a]) for a in orig[1:]), ctx.arrow(q.star[orig[0]]))
            e0 = ctx.idempotent(cp.i0)
            X, Y, Z = (cp.reduce_corner(e0 * x * x * x), cp.reduce_corner(e0 * y * y * y),
                       cp.reduce_corner(e0 * x * y))
            m = lambda *els: cp.reduce_corner(_prod(els))  # noqa: E731
            # ~A2 (n = 3): {X,Y} = 3 Z^2, {X,Z} = X, {Y,Z} = -Y, XY = Z^3
            out["~A2"] = [cp.poisson(X, Y) == m(Z, Z).scale(3), cp.poisson(X, Z) == X,
                          cp.poisson(Y, Z) == Y.scale(-1), m(X, Y) == m(Z, Z, Z)]
        ctx = ctxs["affine_e", 6]
        comp, _ = lambda_steps(tr, ctx, ctx.quiver, (), 18)
        with tr.span("necklace"):
            cp = CornerPoisson(comp)
            st = ctx.quiver.star
            p, pb, yw, xw = (1, 0), (st[0], st[1]), (st[2], 2), (st[0], 0)
            X = cp.reduce_corner(ctx.path(p + yw + pb))
            Y = cp.reduce_corner(ctx.path(p + yw + yw + pb))
            Z = cp.reduce_corner(ctx.path(p + yw + xw + yw + yw + pb))
            m = lambda *els: cp.reduce_corner(_prod(els))  # noqa: E731
            # ~E6: {X,Y} = -2Z - X^2, {X,Z} = 3Y^2, {Y,Z} = -2XZ, Z^2 + Y^3 + X^2 Z = 0
            out["~E6"] = [cp.poisson(X, Y) == Z.scale(-2) - m(X, X),
                          cp.poisson(X, Z) == m(Y, Y).scale(3),
                          cp.poisson(Y, Z) == m(X, Z).scale(-2),
                          (m(Z, Z) + m(Y, Y, Y) + m(Z, X, X)).is_zero()]
        return out

    def check(self, inp, ans, ref):
        spec = inp["spec"]
        if not ref:
            ref["partial"] = []
            for inst, obj in zip(spec["partial"], inp["partial"]):
                qd = obj["ctx"].quiver
                forbidden = {(a, qd.star[a]) for a in obj["forest"].arrows}
                counts = R.cyclically_normal_counts(qd.arrows, forbidden, inst["degree"])
                ref["partial"].append({
                    "ranks": [inst["vertices"]] + counts[1:],
                    "leads": sorted(forbidden)})
        out = []
        for k, (got, want) in enumerate(zip(ans["partial"], ref["partial"])):
            out += check_equal(f"partial{k}.torsion", got["torsion"], {})
            out += check_equal(f"partial{k}.ranks", got["ranks"], want["ranks"])
            out += check_equal(f"partial{k}.leads", got["leads"], want["leads"])
            out += check_equal(f"partial{k}.identity", got["identity"], True)
            out += check_equal(f"partial{k}.hilbert", got["hilbert"], True)
        for inst, got in zip(spec["dynkin"], ans["dynkin"]):
            D, label = inst["degree"], inst["label"]
            table = R.truncate(R.DYNKIN_TORSION[inst["table"]], D)
            out += check_equal(f"{label}.type", got["label"], label)
            out += check_equal(f"{label}.torsion", got["torsion"], table)
            out += check_equal(f"{label}.orders", got["orders"],
                               R.r_power_orders(table, min(D, CLASS_DEGREE)))
            if not label.startswith("~"):
                out += check_equal(f"{label}.free", got["ranks"], [0] * D)
            else:
                out += check_equal(f"{label}.closed_form", got["closed_form"], table)
        out += [("egid", ok) for ok in ans["egid"]]
        out += [(f"corner{name}", ok) for name, oks in ans["corner"].items() for ok in oks]
        out += [("jacobi", ok) for ok in ans["jacobi"]]
        # a cyclically-normal necklace is a basis element of the free Lambda
        for k, got in zip(spec["query_k"], ans["queries"]):
            out.append(("query", got == (0 if k else 1)))
        return out


def _prod(els):
    out = els[0]
    for e in els[1:]:
        out = out * e
    return out


def _jacobi(a, b, c):
    return (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))).is_zero()


def _closed_form_table(q, D):
    table = {}
    for p in R.primes_upto(D // 2):
        for d, c in enumerate(hT_of(q, p, D).scalar_coeffs()):
            if c:
                table[d] = table.get(d, ()) + (p,) * c
    return {d: tuple(sorted(f)) for d, f in sorted(table.items())}


def _closed_words(qd, maxlen):
    """Closed paths (vertex, word) of length 2..maxlen, in DFS order."""
    out = []
    for v in qd.vertices:
        stack = [((), v)]
        while stack:
            word, cur = stack.pop()
            for a in qd.out_arrows(cur):
                w = word + (a,)
                if len(w) >= 2 and qd.dst(a) == v:
                    out.append((v, w))
                if len(w) < maxlen:
                    stack.append((w, qd.dst(a)))
    return out


def _cyclically_normal_keys(keys, forest, qd):
    forbidden = {(a, qd.star[a]) for a in forest.arrows}
    return [i for i, key in enumerate(keys) if R.cyclically_normal(key.word, forbidden)]


WORKLOADS = {w.name: w for w in (Hh0Wild(), LatticeOrders(), IdentitySweep())}
