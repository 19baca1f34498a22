"""Command-line surface: quiver ingestion, Hilbert tables, HH_0 torsion
reports, Groebner listings, necklace brackets, Poisson homology dimensions,
and the acceptance-suite runner.

Exit codes: 0 success, 1 verification/diff failure, 2 usage error or out of
memory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from . import acceptance
from .freealg import (CycElement, PathContext, cyclic_project,
                      parse_element, render_cyclic, render_element)
from .homology import (lambda_graded, hp0_poisson, poisson_presentation,
                       preprojective_system, r_power_cyclic, r_powers)
from .necklace import bracket, cobracket, loday_bracket
from .quiver import Quiver, QuiverError, catalog, classify
from .rewrite import NonUnitLead, _listing_body
from .series import SeriesError, hilbert_prep


class UsageError(Exception):
    pass


def _load_quiver(args):
    if args.catalog and args.file:
        raise UsageError("--catalog takes no --file")
    if args.catalog:
        name, *params = args.catalog
        try:
            params = [int(x) for x in params]
        except ValueError:
            raise UsageError(f"catalog parameters must be integers, got {params}") from None
        return catalog(name, *params), set(getattr(args, "white", None) or ())
    if args.file:
        q, white = Quiver.from_json(_read(args.file))
        if getattr(args, "white", None):
            white = set(args.white)
        return q, white
    raise UsageError("need --catalog NAME ARGS or --file quiver.json")


def _read(path):
    """Text of a file named by a flag; an unreadable one is a usage error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise UsageError(str(exc)) from None


def _emit(rows, header, args):
    fmt = args.format
    if fmt == "json":
        print(json.dumps([dict(zip(header, r)) for r in rows], indent=1))
    elif fmt == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
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
        _emit(list(enumerate(h.entry(k, k).scalar_coeffs())), ["degree", "dim"], args)
    else:
        _emit([(d, json.dumps(c) if args.format == "csv" else c)
               for d, c in enumerate(h.coeffs)], ["degree", "matrix"], args)
    return 0


def cmd_hh0(args):
    q, white = _load_quiver(args)
    if args.show_generators and white:
        raise UsageError("--show-generators takes no white vertex")
    D = args.degree
    rep, comp = lambda_graded(q, white, D)
    generators = {}
    if args.show_generators:
        for d, (p, ell) in r_powers(D).items():
            if not rep.summaries[d].invariant_factors:
                continue    # torsion-free: the order is 0 or 1, never printed
            cyc = r_power_cyclic(comp.ctx, p, ell)
            o = comp.order_of(comp.to_class(cyc, d))
            if o not in (0, 1):
                generators.setdefault(d, []).append(
                    f"r^({p}^{ell}) of order {o}: {render_cyclic(cyc)}")
    if args.format == "json":
        print(rep.to_json(generators=generators or None))
        return 0
    header = ["degree", "free_rank", "torsion"]
    rows = []
    for d in range(D + 1):
        s = rep.summaries[d]
        rows.append([d, s.free_rank, " ".join(str(f) for f in s.invariant_factors)])
    if args.format == "csv" and args.show_generators:
        header.append("generators")     # a column, so every row has one length
        for row in rows:
            row.append("; ".join(generators.get(row[0], ())))
    _emit(rows, header, args)
    if args.format == "text":
        for d in sorted(generators):
            for line in generators[d]:
                print(line)
    return 0


def cmd_groebner(args):
    expect = _read(args.expect) if args.expect else None
    if args.star and (args.catalog or args.file or args.white is not None):
        raise UsageError("--star takes no --catalog, --file or --white")
    if args.star and min(args.star) < 1:
        raise UsageError("--star needs positive branch lengths")
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
    if expect is not None:
        if text.strip() != _listing_body(expect):
            print("MISMATCH against expected listing", file=sys.stderr)
            return 1
        print("# matches expected listing", file=sys.stderr)
    return 0


def _ring_modulus(tag):
    """m for Zmod:m; 0 for Z and for Q, which read the integer answer as is
    (inputs have integer coefficients and Z -> Q is flat)."""
    if tag in ("Z", "Q"):
        return 0
    m = re.fullmatch(r"Zmod:(\d+)", tag)
    if not m:
        raise UsageError(f"unknown ring tag {tag!r}")
    if int(m.group(1)) < 2:
        raise UsageError("modulus must be >= 2")
    return int(m.group(1))


def cmd_necklace(args):
    q, _ = _load_quiver(args)
    m = _ring_modulus(args.ring)
    ctx = PathContext(q)
    left = _as_class(parse_element(ctx, args.left))
    if args.op == "cobracket":
        if args.right is not None:
            raise UsageError("--op cobracket takes no --right")
        print(_mod(cobracket(left), m))
        return 0
    if args.right is None:
        raise UsageError(f"--op {args.op} needs --right")
    right = parse_element(ctx, args.right)
    if args.op == "bracket":
        print(render_cyclic(_mod(bracket(left, _as_class(right)), m)))
    else:  # loday
        if isinstance(right, CycElement):
            raise UsageError("loday bracket needs a path element on the right")
        print(render_element(_mod(loday_bracket(left, right), m)))
    return 0


def _as_class(x):
    """A necklace element as it is; a path element as its class in A/[A,A]."""
    return x if isinstance(x, CycElement) else cyclic_project(x)


def _mod(x, m):
    """The integer answer x over Z/m: coefficients reduced into [0, m), zeros
    dropped.  m = 0 leaves x as it is."""
    if not m:
        return x
    return type(x)(x.ctx, {k: c % m for k, c in x.terms.items() if c % m})


def cmd_hp0(args):
    kind = args.type
    if kind in ("A", "D") and args.branch is None:
        raise UsageError(f"type {kind} needs --branch n")
    if kind not in ("A", "D") and args.branch is not None:
        raise UsageError(f"type {kind} takes no --branch")
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


def _jobs(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"jobs must be >= 1, got {n}")
    return n


def _add_degree(p, note=""):
    p.add_argument("--degree", type=_degree, required=True, help="degree bound D" + note)


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
    _add_degree(p, " (cost grows fast for wild quivers: free 2 takes about "
                   "2 s at D = 9 and 9 s at D = 10)")
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
    p.add_argument("--ring", default="Z",
                   help="Z, Q, or Zmod:m; Q and Zmod:m are read off the integer answer")
    p.add_argument("--op", choices=["bracket", "cobracket", "loday"],
                   default="bracket")
    p.add_argument("--left", required=True, help="element, e.g. '[x y]'")
    p.add_argument("--right", help="second element")
    p.set_defaults(fn=cmd_necklace)

    p = sub.add_parser("hp0", help="zeroth Poisson homology dimensions")
    _add_degree(p)
    _add_format(p)
    p.add_argument("--type", required=True, type=str.upper,
                   choices=["A", "D", "E6", "E7", "E8"],
                   help="A, D, E6, E7 or E8, in any case")
    p.add_argument("--branch", type=int, help="rank n for types A and D")
    p.add_argument("--modulus", type=int, default=0, help="prime p, or 0 for Q")
    p.set_defaults(fn=cmd_hp0)

    p = sub.add_parser("verify", help="run the acceptance suite")
    _add_format(p, choices=("text", "json"))
    p.add_argument("--only", help="single criterion name")
    p.add_argument("--jobs", type=_jobs, default=1, help="criteria run in parallel")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                   help="seed of the randomized criteria")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = None
    # a generator dropped while memory is exhausted can fail to close, which
    # Python reports as "Exception ignored in: ..."; the out-of-memory line
    # below is the one report of it
    hook = sys.unraisablehook
    sys.unraisablehook = lambda u: None if issubclass(u.exc_type, MemoryError) else hook(u)
    try:
        args = ap.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except (UsageError, QuiverError, SeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass    # the traceback's frames hold the tables: report once they are freed
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): what is left unwritten
        # goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        sys.unraisablehook = hook
    # out of memory: the tables grow with the degree bound, so a lower one is
    # the remedy
    bound = getattr(args, "degree", None)
    print("error: out of memory" + ("" if bound is None else
                                    f" at degree bound {bound}; try a lower --degree"),
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
