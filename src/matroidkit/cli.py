"""Command-line surface: uniformity checks, the verification harness,
isomorphism and minor queries, catalog access, and search driving.

Exit codes are a stable contract: 0 success or true, 1 definitive false,
2 error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .gf import GFError, parse_matrix
from .iso import (
    DEFAULT_MINOR_BUDGET,
    BudgetExhausted,
    are_isomorphic,
    has_minor,
)
from .matroid import (
    MatroidError,
    from_graph,
    from_matrix,
    graft_matroid,
    parse_graph_text,
)
from .search import SearchConfig, enumerate_kl_uniform
from .uniformity import (
    is_22_uniform_circuits,
    is_kl_uniform_flats,
    is_kl_uniform_minor,
)
from .verify import check_info, run_checks

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def load_matroid(source):
    """A matroid from a `catalog:` URI or a file in matrix or graph format."""
    if source.startswith("catalog:"):
        return catalog.resolve(source[len("catalog:"):])
    with open(source) as fh:
        text = fh.read()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    if first.split()[:1] == ["graph"]:
        nverts, edges, gamma = parse_graph_text(text)
        if gamma is None:
            return from_graph(nverts, edges)
        return graft_matroid(nverts, edges, gamma)
    return from_matrix(parse_matrix(text))


def _write(text, path):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_mask(m, mask):
    return "{" + ", ".join(m.labels_of(mask)) + "}"


# ---- check


def _run_method(m, k, l, method):
    """(uniform, witness_text, witness_json) for one decision method."""
    if method == "flats":
        ok, wit = is_kl_uniform_flats(m, k, l)
        if wit is None:
            return ok, None, None
        flat = wit.flat
        text = (f"flat {_format_mask(m, flat)} has rank {m.r(flat)} "
                f"and nullity {m.nullity(flat)}")
        return ok, text, {"flat": list(m.labels_of(flat))}
    if method == "minor":
        ok, wit = is_kl_uniform_minor(m, k, l)
        if wit is None:
            return ok, None, None
        text = (f"contract {_format_mask(m, wit.contract)}, "
                f"delete {_format_mask(m, wit.delete)}")
        return ok, text, {"contract": list(m.labels_of(wit.contract)),
                          "delete": list(m.labels_of(wit.delete))}
    if method == "circuits":
        if (k, l) != (2, 2):
            raise MatroidError("the circuit method decides only (2,2)-uniformity")
        return is_22_uniform_circuits(m), None, None
    raise MatroidError(f"unknown method {method!r}")


def cmd_check(args):
    m = load_matroid(args.file)
    k, l = args.k, args.l
    methods = [args.method]
    if args.method == "all":
        methods = ["flats", "minor"] + (["circuits"] if (k, l) == (2, 2) else [])
    results = {}
    for method in methods:
        results[method] = _run_method(m, k, l, method)
    verdicts = {ok for ok, _, _ in results.values()}
    agree = len(verdicts) == 1
    uniform = verdicts == {True}
    if args.json:
        out = {"schema": 1, "source": args.file, "k": k, "l": l,
               "uniform": uniform, "agree": agree,
               "methods": {meth: {"uniform": ok, "witness": wj}
                           for meth, (ok, _, wj) in results.items()}}
        print(json.dumps(out, indent=2))
    else:
        what = f"({k},{l})-uniform"
        for meth, (ok, wt, _) in results.items():
            line = f"{meth}: {what}" if ok else f"{meth}: not {what}"
            if wt:
                line += f" [{wt}]"
            print(line)
        if len(methods) > 1:
            print(f"methods agree: {len(methods)}/{len(methods)}" if agree
                  else "METHODS DISAGREE")
    if not agree:
        raise MatroidError("decision methods disagree")
    return EXIT_TRUE if uniform else EXIT_FALSE


# ---- verify


def cmd_verify(args):
    if args.list:
        for cid, desc in check_info():
            print(f"{cid:24s} {desc}")
        return EXIT_TRUE
    ids = args.ids or ["all"]
    if ids == ["all"]:
        ids = None
    results = run_checks(ids=ids)
    if args.json:
        out = {"schema": 1,
               "checks": [{"id": r.check_id, "status": r.status,
                           "details": r.details, "runtime": round(r.runtime, 3)}
                          for r in results]}
        print(json.dumps(out, indent=2))
    else:
        for r in results:
            print(f"{r.status.upper():8s} {r.check_id:24s} "
                  f"{r.runtime:7.2f}s  {r.details}")
        tally = {"pass": 0, "fail": 0, "skipped": 0}
        for r in results:
            tally[r.status] += 1
        print(f"{tally['pass']} passed, {tally['fail']} failed, "
              f"{tally['skipped']} skipped")
    return EXIT_TRUE if all(r.ok for r in results) else EXIT_FALSE


# ---- iso / minor / dual


def cmd_iso(args):
    a = load_matroid(args.file_a)
    b = load_matroid(args.file_b)
    cert = are_isomorphic(a, b)
    if args.json:
        print(json.dumps({"schema": 1, "isomorphic": cert is not None,
                          "bijection": cert}, indent=2))
    elif cert is None:
        print("not isomorphic")
    else:
        print("isomorphic")
        for lab in sorted(cert, key=str):
            print(f"  {lab} -> {cert[lab]}")
    return EXIT_TRUE if cert is not None else EXIT_FALSE


def cmd_minor(args):
    m = load_matroid(args.file)
    target = load_matroid(args.target)
    witness = has_minor(m, target, budget=args.budget)
    if args.json:
        out = {"schema": 1, "has_minor": witness is not None}
        if witness is not None:
            out["contract"] = list(m.labels_of(witness[0]))
            out["delete"] = list(m.labels_of(witness[1]))
        print(json.dumps(out, indent=2))
    elif witness is None:
        print("no minor")
    else:
        print(f"minor found: contract {_format_mask(m, witness[0])}, "
              f"delete {_format_mask(m, witness[1])}")
    return EXIT_TRUE if witness is not None else EXIT_FALSE


def cmd_dual(args):
    _write(load_matroid(args.file).dual().export_text(), args.output)
    return EXIT_TRUE


# ---- catalog


def cmd_catalog(args):
    if args.action == "list":
        for e in catalog.entries():
            m = e.matroid
            print(f"{e.name:6s} rank {m.rank()}  size {m.n:2d}  {e.note}")
        return EXIT_TRUE
    m = catalog.resolve(args.name)
    if args.action == "show":
        flags = []
        if m.is_simple():
            flags.append("simple")
        if m.is_cosimple():
            flags.append("cosimple")
        print(f"{args.name}: rank {m.rank()}, {m.n} elements"
              + (", " + ", ".join(flags) if flags else ""))
        sys.stdout.write(m.export_text())
        return EXIT_TRUE
    _write(m.export_text(), args.output)  # export
    return EXIT_TRUE


# ---- search


def cmd_search(args):
    cfg = SearchConfig(
        r=args.rank, k=args.k, l=args.l,
        require_cosimple=args.cosimple,
        require_3connected=args.three_connected,
        budget=args.budget,
        checkpoint=args.checkpoint,
    )
    report = enumerate_kl_uniform(cfg, resume=args.resume)
    doc = report.to_json_dict()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
    total = len(report.representatives)
    print(f"{total} isomorphism classes of simple ({args.k},{args.l})-uniform "
          f"binary matroids with rank <= {args.rank}"
          + (" (filtered)" if args.cosimple or args.three_connected else ""))
    for r, n, c in doc["counts"]:
        print(f"  rank {r} size {n:2d}: {c}")
    print(f"max rank {report.max_rank}; {report.stats['nodes']} nodes, "
          f"{report.stats['pruned_uniformity']} pruned by uniformity, "
          f"{report.stats['pruned_canonical']} by canonicity; "
          f"{report.wall_time:.2f}s")
    return EXIT_TRUE


# ---- argument wiring


def build_parser():
    p = argparse.ArgumentParser(
        prog="matroidkit",
        description="Binary matroid toolkit: uniformity tests, catalog, "
                    "isomorphism, exhaustive search, verification harness. "
                    "File arguments accept paths or catalog: URIs (for "
                    "example catalog:P10, catalog:Z4-t, catalog:AG(3,2)*).")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="decide (k,l)-uniformity of one matroid")
    c.add_argument("file")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--method", choices=("flats", "minor", "circuits", "all"),
                   default="flats")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_check)

    v = sub.add_parser("verify", help="replay the classification checks")
    v.add_argument("ids", nargs="*",
                   help="check ids, or 'all' (default); see --list")
    v.add_argument("--list", action="store_true", help="list known checks")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("iso", help="isomorphism test with certificate")
    i.add_argument("file_a")
    i.add_argument("file_b")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_iso)

    mn = sub.add_parser("minor", help="does the first matroid contain the "
                                      "second as a minor")
    mn.add_argument("file")
    mn.add_argument("target")
    mn.add_argument("--budget", type=int, default=DEFAULT_MINOR_BUDGET)
    mn.add_argument("--json", action="store_true")
    mn.set_defaults(func=cmd_minor)

    d = sub.add_parser("dual", help="write the dual matroid")
    d.add_argument("file")
    d.add_argument("-o", "--output")
    d.set_defaults(func=cmd_dual)

    cat = sub.add_parser("catalog", help="named matroid catalog")
    cat.add_argument("action", choices=("list", "show", "export"))
    cat.add_argument("name", nargs="?")
    cat.add_argument("-o", "--output")
    cat.set_defaults(func=cmd_catalog)

    s = sub.add_parser("search", help="enumerate (k,l)-uniform binary matroids")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--cosimple", action="store_true")
    s.add_argument("--3connected", dest="three_connected", action="store_true")
    s.add_argument("--budget", type=int, default=SearchConfig.budget)
    s.add_argument("--checkpoint", help="write resumable state here")
    s.add_argument("--resume", help="resume from a checkpoint file")
    s.add_argument("--json", metavar="OUT", help="write the JSON report here")
    s.set_defaults(func=cmd_search)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "catalog" and args.action in ("show", "export") and not args.name:
        print("catalog show/export needs a name", file=sys.stderr)
        return EXIT_ERROR
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MatroidError, GFError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
