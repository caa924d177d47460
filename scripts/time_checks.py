"""Wall time and peak memory of CLI checks at window depths beyond perfbench's.

Each (check, depth) runs in a fresh interpreter through `threadquiver.cli.run`,
so peak RSS is that one check's, import included.  One JSON object per run is
printed: check, depth, exit code, wall seconds, peak RSS in MB, and the RSS
in MB after the import, before the check runs (`import_rss_mb`), so that a
memory figure can be read net of the interpreter and the package.

    python scripts/time_checks.py fixtures/mixed.tq --depths 4 5 6

Run it from the root of a checkout; the package is imported from `src/`.
Every row carries a `tree` key, "this" for this checkout.  To compare two
trees, give the other checkout's root with `--against DIR` (its rows read
"against") and a number of `--rounds`: each round runs every (check, depth)
on both trees back to back, this tree first in even rounds and DIR first in
odd ones, so both see the same drift of the machine.

    python scripts/time_checks.py fixtures/mixed.tq --depths 4 5 --against ../parent --rounds 5
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKS = ["serre-check", "dualizing-check", "dualizing-check --strict-boundary"]

CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from threadquiver import cli
import_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
argv = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    t0 = time.perf_counter()
    code = cli.run(argv)
    wall = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"exit": code, "wall_s": round(wall, 3), "peak_rss_mb": round(rss_mb, 1),
                  "import_rss_mb": round(import_mb, 1)}))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fixture")
    ap.add_argument("--depths", type=int, nargs="+", default=[4, 5, 6])
    ap.add_argument("--checks", nargs="+", default=CHECKS,
                    help="subcommand with its flags, one quoted string each")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="root of a second checkout, run alternately with this one")
    ap.add_argument("--rounds", type=int, default=1, help="runs of every (check, depth)")
    args = ap.parse_args(argv)
    trees = [("this", ROOT)]
    if args.against is not None:
        trees.append(("against", args.against.resolve()))
    for r in range(args.rounds):
        for check in args.checks:
            for depth in args.depths:
                cmd = check.split() + [args.fixture, "--depth", str(depth)]
                for tree, root in trees if r % 2 == 0 else trees[::-1]:
                    out = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), *cmd],
                                         capture_output=True, text=True, check=True)
                    row = {"tree": tree, "check": check, "depth": depth, **json.loads(out.stdout)}
                    print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
