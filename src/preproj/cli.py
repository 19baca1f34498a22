"""Command-line surface: quiver ingestion, Hilbert tables, HH_0 torsion
reports, Groebner listings, necklace brackets, Poisson homology dimensions,
and the acceptance-suite runner.

Exit codes: 0 success, 1 verification/diff failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .freealg import (CycElement, PathContext, RingError, cyclic_project,
                      parse_element, render_cyclic, render_element, ring_from_tag)
from .homology import (_is_prime, lambda_graded, hp0_poisson, poisson_presentation,
                       preprojective_system, r_power_cyclic)
from .necklace import bracket, cobracket, loday_bracket
from .quiver import Quiver, QuiverError, catalog, classify
from .rewrite import NonUnitLead
from .series import SeriesError, hilbert_prep


class UsageError(Exception):
    pass


def _load_quiver(args):
    if getattr(args, "catalog", None):
        name, *params = args.catalog
        try:
            params = [int(x) for x in params]
        except ValueError:
            raise UsageError(f"catalog parameters must be integers, got {params}") from None
        return catalog(name, *params), set(getattr(args, "white", None) or ())
    if getattr(args, "file", None):
        with open(args.file) as fh:
            q, white = Quiver.from_json(fh.read())
        if getattr(args, "white", None):
            white = set(args.white)
        return q, white
    raise UsageError("need --catalog NAME ARGS or --file quiver.json")


def _emit(rows, header, args):
    fmt = args.format
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=1))
    elif fmt == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(str(x) for x in r))
    else:
        widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
                  for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))


def cmd_hilbert(args):
    q, white = _load_quiver(args)
    D = args.degree
    h = hilbert_prep(q, white, D)
    cls = classify(q)
    if not white and cls.is_extended_dynkin() and not args.matrix:
        k = {v: i for i, v in enumerate(q.vertices)}[cls.extending_vertex]
        coeffs = [h.coeffs[d][k][k] for d in range(D + 1)]
        _emit([(d, c) for d, c in enumerate(coeffs)], ["degree", "dim"], args)
    else:
        rows = []
        for d in range(D + 1):
            rows.append((d, json.dumps(h.coeffs[d]) if args.format == "csv"
                         else h.coeffs[d]))
        _emit(rows, ["degree", "matrix"], args)
    return 0


def cmd_hh0(args):
    q, white = _load_quiver(args)
    D = args.degree
    rep, comp = lambda_graded(q, white, D)
    generators = {}
    if args.show_generators and not white:
        for p, ell in _prime_powers(D // 2):
            d = 2 * p ** ell
            cyc = r_power_cyclic(comp.ctx, p, ell)
            o = comp.order_of(comp.to_class(cyc, d))
            if o not in (0, 1):
                generators.setdefault(d, []).append(
                    f"r^({p}^{ell}) of order {o}: {render_cyclic(cyc)}")
    if args.format == "json":
        print(rep.to_json(generators=generators or None))
        return 0
    rows = []
    for d in range(D + 1):
        s = rep.summaries[d]
        rows.append((d, s.free_rank, " ".join(str(f) for f in s.invariant_factors)))
    _emit(rows, ["degree", "free_rank", "torsion"], args)
    for d in sorted(generators):
        for line in generators[d]:
            print(line)
    return 0


def _prime_powers(n):
    """(p, l) with p prime, l >= 1 and p^l <= n."""
    for p in filter(_is_prime, range(2, n + 1)):
        ell = 1
        while p ** ell <= n:
            yield p, ell
            ell += 1


def cmd_groebner(args):
    try:
        if args.star:
            sys_ = acceptance.star_ideal_system([d + 1 for d in args.star], args.degree)
        else:
            q, white = _load_quiver(args)
            sys_ = preprojective_system(q, white, args.degree)
    except NonUnitLead as e:
        print(f"non-unit leading coefficient; fall back to degreewise "
              f"linear algebra ({render_element(e.element)})", file=sys.stderr)
        return 1
    text = sys_.export_text()
    print(text)
    if args.expect:
        with open(args.expect) as fh:
            want = "\n".join(l for l in fh.read().splitlines()
                             if l.strip() and not l.startswith("#")).strip()
        if text.strip() != want:
            print("MISMATCH against expected listing", file=sys.stderr)
            return 1
        print("# matches expected listing", file=sys.stderr)
    return 0


def cmd_necklace(args):
    q, _ = _load_quiver(args)
    ctx = PathContext(q, ring=ring_from_tag(args.ring))
    left = parse_element(ctx, args.left)
    if args.op == "cobracket":
        if not isinstance(left, CycElement):
            left = cyclic_project(left)
        print(cobracket(left))
        return 0
    if args.right is None:
        raise UsageError(f"--op {args.op} needs --right")
    right = parse_element(ctx, args.right)
    if args.op == "bracket":
        if not isinstance(left, CycElement):
            left = cyclic_project(left)
        if not isinstance(right, CycElement):
            right = cyclic_project(right)
        print(render_cyclic(bracket(left, right)))
    else:  # loday
        if not isinstance(left, CycElement):
            left = cyclic_project(left)
        if isinstance(right, CycElement):
            raise UsageError("loday bracket needs a path element on the right")
        print(render_element(loday_bracket(left, right)))
    return 0


def cmd_hp0(args):
    kind = args.type.upper()
    kind = kind if kind in ("E6", "E7", "E8") else kind[:1]
    if kind in ("A", "D") and args.branch is None:
        raise UsageError(f"type {kind} needs --branch n")
    try:
        pres = poisson_presentation(kind, args.branch or 0)
        dims = hp0_poisson(pres, args.modulus, args.degree)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    _emit([(d, dims[d]) for d in sorted(dims)], ["degree", "dim"], args)
    return 0


def cmd_verify(args):
    if args.jobs > 1:
        results = _run_parallel(args)
    else:
        results = acceptance.run_suite(args.only, args.seed)
    if args.format == "json":
        print(json.dumps(results, indent=1))
    else:
        for r in results:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"{mark}  {r['criterion']:24s} {r['seconds']:8.2f}s  {r['details']}")
    if not results:
        print("no matching criteria", file=sys.stderr)
        return 2
    return 0 if all(r["ok"] for r in results) else 1


def _run_parallel(args):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    names = [name for name, _ in acceptance.CRITERIA if args.only in (None, name)]
    with ProcessPoolExecutor(max_workers=args.jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futs = [pool.submit(acceptance.run_suite, n, args.seed) for n in names]
        return [r for fut in futs for r in fut.result()]


def _add_quiver_args(p, white=True):
    p.add_argument("--catalog", nargs="+", metavar=("NAME", "ARG"),
                   help="catalog quiver, e.g. --catalog affine_a 3")
    p.add_argument("--file", help="quiver JSON file")
    if white:
        p.add_argument("--white", nargs="*", type=int,
                       help="white vertices (relations only at the others)")


def _degree(text):
    d = int(text)
    if d < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {d}")
    return d


def _add_degree(p):
    p.add_argument("--degree", type=_degree, default=12,
                   help="degree bound D (default 12; out of reach for wild quivers: "
                        "hh0 of free 2 takes about 15 s at D = 9 and 2 min at D = 10)")


def _add_format(p, choices=("text", "json", "csv")):
    p.add_argument("--format", default="text", choices=choices)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="preproj",
        description="exact computations with preprojective algebras of quivers")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="matrix Hilbert series coefficients")
    _add_quiver_args(p)
    _add_degree(p)
    _add_format(p)
    p.add_argument("--matrix", action="store_true",
                   help="always print the full matrix, not the corner entry")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("hh0", help="graded torsion report for Lambda")
    _add_quiver_args(p)
    _add_degree(p)
    _add_format(p)
    p.add_argument("--show-generators", action="store_true")
    p.set_defaults(fn=cmd_hh0)

    p = sub.add_parser("groebner", help="completed rewrite system listing")
    _add_quiver_args(p)
    _add_degree(p)
    p.add_argument("--star", nargs="+", type=int,
                   help="branch lengths of a star presentation")
    p.add_argument("--expect", help="file with the expected listing to diff")
    p.set_defaults(fn=cmd_groebner)

    p = sub.add_parser("necklace", help="necklace bracket/cobracket of elements")
    _add_quiver_args(p, white=False)
    p.add_argument("--ring", default="Z", help="Z, Q, or Zmod:m")
    p.add_argument("--op", choices=["bracket", "cobracket", "loday"],
                   default="bracket")
    p.add_argument("--left", required=True, help="element, e.g. '[x y]'")
    p.add_argument("--right", help="second element")
    p.set_defaults(fn=cmd_necklace)

    p = sub.add_parser("hp0", help="zeroth Poisson homology dimensions")
    _add_degree(p)
    _add_format(p)
    p.add_argument("--type", required=True, help="A, D, E6, E7, or E8")
    p.add_argument("--branch", type=int, help="rank n for types A and D")
    p.add_argument("--modulus", type=int, default=0, help="prime p, or 0 for Q")
    p.set_defaults(fn=cmd_hp0)

    p = sub.add_parser("verify", help="run the acceptance suite")
    _add_format(p, choices=("text", "json"))
    p.add_argument("--only", help="single criterion name")
    p.add_argument("--jobs", type=int, default=1, help="criteria run in parallel")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                   help="seed of the randomized criteria")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (UsageError, QuiverError, RingError, SeriesError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
