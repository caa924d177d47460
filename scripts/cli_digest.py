"""Digests of the CLI's answers over a fixed corpus, to compare two trees byte for byte.

Every fixture under `fixtures/` is run through `threadquiver.cli.run`
in-process with `serre-check` (default and `--max-len 2`),
`dualizing-check` (default and `--strict-boundary`), `threads`, `extract`,
`roundtrip`, `expand` and `dot --expanded`, at depths 0-3, and once each
through `normalize` and `check` (whose statistics go to stderr).  Then, at
depths 0-2, every ordered pair of the thread quiver's own vertices is run
through `hom` and through `ext` at degrees 0, 1 and 2.
Each invocation prints one line: the sha256 of its exit code, stdout and
stderr, then the command.  The last line is the sha256 of all of them.

    python scripts/cli_digest.py            # every line
    python scripts/cli_digest.py --total    # the total only

Run it from any directory; the package is imported from this checkout's
`src/` and fixtures are named relative to its root, so two checkouts give
the same total exactly when every answer is the same.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = [
    ["serre-check"],
    ["dualizing-check"],
    ["dualizing-check", "--strict-boundary"],
    ["threads"],
    ["extract"],
    ["roundtrip"],
    ["expand"],
    ["dot", "--expanded"],
    ["serre-check", "--max-len", "2"],
]
DEPTHS = [0, 1, 2, 3]
PAIR_COMMANDS = [["hom"]] + [["ext", "--degree", str(d)] for d in (0, 1, 2)]
PAIR_DEPTHS = [0, 1, 2]


def corpus(parse_tq) -> list[list[str]]:
    """Every invocation, as argv lists, in a fixed order; `parse_tq` reads
    the vertices of each fixture for the commands that take a pair."""
    fixtures = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "fixtures").glob("*.tq"))
    out = [cmd + [fixture, "--depth", str(depth)]
           for fixture in fixtures for cmd in COMMANDS for depth in DEPTHS]
    out += [[cmd, fixture] for fixture in fixtures for cmd in ("normalize", "check")]
    for fixture in fixtures:
        vertices = parse_tq((ROOT / fixture).read_text(encoding="utf-8")).vertices
        out += [[cmd[0], fixture, x, y, *cmd[1:], "--depth", str(depth)]
                for cmd in PAIR_COMMANDS for depth in PAIR_DEPTHS
                for x in vertices for y in vertices]
    return out


def digest(run, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    h = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--total", action="store_true", help="print the total only")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from threadquiver import cli
    from threadquiver.dsl import parse_tq

    total = hashlib.sha256()
    invocations = corpus(parse_tq)
    for inv in invocations:
        d = digest(cli.run, inv)
        total.update(d.encode("ascii"))
        if not args.total:
            print(d, " ".join(inv), flush=True)
    print(total.hexdigest(), f"total of {len(invocations)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
