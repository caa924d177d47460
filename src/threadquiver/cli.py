"""Command line front end: parse a thread-quiver file, run a check, print JSON.

Every check-style subcommand prints one JSON report object with
lexicographically ordered keys and exits 0 on pass, 1 on fail; usage and
parse errors exit 2.  The `dot` subcommand prints DOT text instead.

One process parses every argv with one parser.  Building the argparse tree
costs about 2 ms, more than a `threads` check on a small window, and the
digest corpus and the benchmark call `run` thousands of times in-process.
The parser holds no state of a call (argparse reads `sys.stdout` and
`sys.stderr` when it prints), so sharing it changes no answer.  It is built
on the first `run`, not at import, so importing the package stays as cheap
as it was.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ParseError, ThreadQuiverError
from .dsl import emit_dot, parse_tq, sanitize_names, serialize_tq
from .linalg import field_by_name
from .report import Report
from .reps import PROJECTIVE, SIMPLE, ext_dim, std_module
from .serre import check_dualizing, check_serre
from .threads import extract_threadquiver, thread_hom_check, thread_runs, thread_summary
from .windows import expand, normalize, underlying_quiver, window_iso


def _emit(report: Report, min_checked: int | None = None) -> int:
    """Print the report; with min_checked, a report that checked fewer
    assertions first gets one failed item saying so."""
    if min_checked is not None and report.checked < min_checked:
        report.fail("checked", f">= {min_checked}", report.checked)
    print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    return 0 if report.passed else 1


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tq(fh.read())


def _window(args, tq=None, depth=None):
    """Expand the command's thread quiver (or `tq`) at its depth (or `depth`);
    `run` releases every window built here when the command returns."""
    tq = tq if tq is not None else _load(args.file)
    w = expand(tq, args.depth if depth is None else depth, field=args.field)
    args.windows.append(w)
    return w


def _probes(w, skip_boundary: bool):
    verts = w.interior_vertices() if skip_boundary else list(w.quiver.vertices)
    out = []
    for v in verts:
        out.append((f"P({v})", std_module(w, v, PROJECTIVE)))
        out.append((f"S({v})", std_module(w, v, SIMPLE)))
    return out


def cmd_check(args) -> int:
    report = Report("check")
    try:
        tq = _load(args.file)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2
    report.tally()
    # every command that builds a window refuses a cyclic quiver
    report.tally()
    if not underlying_quiver(tq).is_acyclic():
        report.fail("underlying quiver", "acyclic", "NonAcyclic")
    # statistics go through stderr; the machine answer is the report
    print(
        f"vertices={len(tq.vertices)} standard={len(tq.standard_arrows)}"
        f" threads={len(tq.thread_arrows)} relations={len(tq.relations)}",
        file=sys.stderr,
    )
    return _emit(report)


def cmd_normalize(args) -> int:
    tq = sanitize_names(normalize(_load(args.file)))
    sys.stdout.write(serialize_tq(tq))
    return 0


def cmd_expand(args) -> int:
    w = _window(args)
    print(
        json.dumps(
            {
                "arrows": len(w.quiver.arrows),
                "boundary": sorted(w.boundary),
                "depth": args.depth,
                "relations": len(w.relations),
                "vertices": len(w.quiver.vertices),
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def cmd_dot(args) -> int:
    tq = _load(args.file)
    if args.expanded:
        sys.stdout.write(emit_dot(_window(args, tq)))
    else:
        sys.stdout.write(emit_dot(tq))
    return 0


def cmd_hom(args) -> int:
    w = _window(args)
    if args.x not in set(w.quiver.vertices) or args.y not in set(w.quiver.vertices):
        print("unknown vertex", file=sys.stderr)
        return 2
    d = w.hom_dim(args.x, args.y)
    print(json.dumps({"check": "hom", "items": [
        {"actual": str(d), "expected": "", "location": "",
         "subject": f"dim hom({args.x}, {args.y})"}],
        "status": "pass"}, sort_keys=True, indent=2))
    return 0


def cmd_ext(args) -> int:
    w = _window(args)
    if args.x not in set(w.quiver.vertices) or args.y not in set(w.quiver.vertices):
        print("unknown vertex", file=sys.stderr)
        return 2
    sx = std_module(w, args.x, SIMPLE)
    sy = std_module(w, args.y, SIMPLE)
    try:
        d = ext_dim(args.degree, sx, sy, args.max_len)
        actual = str(d)
        status = "pass"
        items = [{"actual": actual, "expected": "", "location": "",
                  "subject": f"dim ext^{args.degree}(S({args.x}), S({args.y}))"}]
    except ThreadQuiverError as e:
        status = "fail"
        items = [{"actual": type(e).__name__, "expected": f"<= {args.max_len}",
                  "location": "", "subject": f"ext^{args.degree}"}]
    print(json.dumps({"check": "ext", "items": items, "status": status},
                     sort_keys=True, indent=2))
    return 0 if status == "pass" else 1


def cmd_serre_check(args) -> int:
    w = _window(args)
    report = check_serre(
        w,
        _probes(w, args.skip_boundary),
        args.max_len,
        forbid_boundary=args.skip_boundary,
    )
    return _emit(report, args.min_checked)


def cmd_dualizing_check(args) -> int:
    w = _window(args)
    report = check_dualizing(w, strict_boundary=args.strict_boundary)
    return _emit(report, args.min_checked)


def cmd_threads(args) -> int:
    w = _window(args)
    runs = thread_runs(w)
    tv, intervals = thread_summary(runs)
    report = thread_hom_check(w, runs)
    report.check = "threads"
    print(
        f"thread vertices: {len(tv)}; maximal threads: "
        + ", ".join(f"[{a}..{b}]" for a, b in intervals),
        file=sys.stderr,
    )
    return _emit(report, args.min_checked)


def cmd_extract(args) -> int:
    w = _window(args)
    tq = sanitize_names(extract_threadquiver(w, args.min_thread_len))
    sys.stdout.write(serialize_tq(tq))
    return 0


def cmd_roundtrip(args) -> int:
    w = _window(args)
    report = Report("roundtrip")
    report.tally()
    extracted = extract_threadquiver(w, args.min_thread_len)
    w0 = _window(args, extracted, depth=0)
    iso = window_iso(w0, w)
    if iso is None:
        report.fail(
            "expand(extract(expand(tq, depth)), 0)",
            "isomorphic to expand(tq, depth)",
            "NotIsomorphic",
        )
    return _emit(report)


def _nonnegative(text: str) -> int:
    """An integer flag's value; a negative one is a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {n}")
    return n


# every option a subcommand can take: its add_argument keywords, under the
# name of the flag (--max-len for max_len)
_OPTIONS = {
    "depth": dict(type=_nonnegative, default=2, help="truncation depth"),
    "field": dict(type=field_by_name, default="q", help="q or fp:<prime>"),
    "max_len": dict(type=_nonnegative, default=6, help="resolution length bound"),
    "min_thread_len": dict(type=_nonnegative, default=3, help="extraction threshold"),
    "skip_boundary": dict(action=argparse.BooleanOptionalAction, default=True,
                          help="restrict checks to interior vertices (default on)"),
    "strict_boundary": dict(action="store_true",
                            help="fail presentations that touch truncation artifacts"),
    "expanded": dict(action="store_true", help="render the expanded window instead"),
    "degree": dict(type=_nonnegative, default=1),
    "min_checked": dict(type=_nonnegative, default=None, metavar="N",
                        help="fail when fewer than N assertions were checked"),
}
_WINDOW = ("depth", "field")  # read by _window

# (name, handler, positional arguments after the file, options it reads)
_COMMANDS = [
    ("check", cmd_check, (), ()),
    ("normalize", cmd_normalize, (), ()),
    ("expand", cmd_expand, (), _WINDOW),
    ("dot", cmd_dot, (), _WINDOW + ("expanded",)),
    ("hom", cmd_hom, ("x", "y"), _WINDOW),
    ("ext", cmd_ext, ("x", "y"), _WINDOW + ("max_len", "degree")),
    ("serre-check", cmd_serre_check, (), _WINDOW + ("max_len", "skip_boundary", "min_checked")),
    ("dualizing-check", cmd_dualizing_check, (), _WINDOW + ("strict_boundary", "min_checked")),
    ("threads", cmd_threads, (), _WINDOW + ("min_checked",)),
    ("extract", cmd_extract, (), _WINDOW + ("min_thread_len",)),
    ("roundtrip", cmd_roundtrip, (), _WINDOW + ("min_thread_len",)),
]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="threadquiver",
        description="thread-quiver expansion and homological structure checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, positionals, options in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("file", help="thread-quiver DSL file")
        for pos in positionals:
            p.add_argument(pos)
        for opt in options:
            p.add_argument("--" + opt.replace("_", "-"), **_OPTIONS[opt])
        p.set_defaults(fn=fn)
    return ap


_parser: argparse.ArgumentParser | None = None


def run(argv: list[str]) -> int:
    """Run one command; return its exit code.  The parser is built by the
    first call and reused by every later one (see the module docstring);
    windows and reports are built afresh each time."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.windows = []
    try:
        return args.fn(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return 2
    except ThreadQuiverError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        for w in args.windows:
            w.release()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
