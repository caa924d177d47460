"""The threadquiver benchmark: time to verdict end to end, traced self time per layer.

Run from the root of a checkout, for one workload at a time:

    python3 perfbench/run.py --workload serre-ladder --seed 1 --seconds 20 --trace 0

The package is imported from `src/` and measured from outside: CLI checks
go through `threadquiver.cli.run` in-process, everything else through the
public library functions.  One process, one thread.

Set-up (import, input generation, first parse and expand) is repeated
`SETUP_REPEATS` times, each with a fresh import of the package; `setup_s`
is the median.  With `--trace 0` whole passes are then run until the next
one would end after `--seconds` (at least one pass), and the end-to-end
metrics are reported.  With `--trace 1` one untraced pass is followed by one
traced pass, and the per-layer metrics of the traced pass are reported,
with the tracing overhead as traced minus untraced wall time.

End-to-end times are in reference seconds (see speed.py): measured time
rescaled by a speed probe to a fixed interpreter speed, because the host's
own speed drifts far more than the bounds allow.  Raw times are printed and
kept in the detail file too, with each pass's CPU time.  Per-layer self times
are raw seconds.

Every answer is checked; any mismatch is printed to stderr, counted in
`failed`, and makes the command exit 1.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Per-rung detail goes
to the lines before it and, with the spans of a traced run, to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time
from types import SimpleNamespace
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from perfbench.speed import REFERENCE_S, SpeedProbe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    MIXED, WORKLOADS, Answers, Context, growth_exp, op_medians, rung_times)

MODULES = ["cli", "dsl", "errors", "linalg", "orders", "quiver", "report", "reps",
           "serre", "threads", "windows"]
SETUP_REPEATS = 9
FIELD = "q"  # the CLI's default field, used throughout: exact rationals
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
TINY = False  # the smallest rungs of each workload only; the benchmark's tests set it

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("growth_exp", "exponent"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="accept every answer and write the CLI answers to expected.json")
    return ap.parse_args(argv)


def import_package(src: Path) -> SimpleNamespace:
    """Import the package's modules afresh from `src`."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "threadquiver" or m.startswith("threadquiver.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"threadquiver.{m}") for m in MODULES}
    where = Path(mods["cli"].__file__).resolve().parent
    if where != src / "threadquiver":
        raise ImportError(f"threadquiver was imported from {where}, not from {src}")
    return SimpleNamespace(**mods)


class Pass(NamedTuple):
    wall: float  # reference seconds
    raw: float  # measured seconds
    cpu: float  # the process's CPU seconds, less the probes' time (for comparison only)
    ops: list


def run_pass(workload, ctx, inputs, probe: SpeedProbe, timer: bool = True) -> Pass:
    with probe.running(timer):
        c0 = process_time()
        t0 = perf_counter()
        ops = workload.run_pass(ctx, inputs)
        t1 = perf_counter()
        c1 = process_time()
    probe.rescale(ops)
    raw = probe.raw(t0, t1)
    return Pass(probe.scale(t0, t1), raw, c1 - c0 - (t1 - t0 - raw), ops)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def end_to_end(setups, passes) -> dict:
    """Operation latencies are per distinct operation, each the median of
    its samples in the run."""
    ops = [op for p in passes for op in p.ops]
    latencies = sorted(op.seconds * 1000 for op in op_medians(ops))
    values = {
        "setup_s": median(setups),
        "wall_s": median(p.wall for p in passes),
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "growth_exp": growth_exp(ops),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "threadquiver" / "__init__.py").is_file() or not (ROOT / MIXED).is_file():
        print(f"perfbench: no threadquiver checkout at {ROOT} (src/ or {MIXED} missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    answers = Answers({} if args.record else json.loads(EXPECTED.read_text()),
                      record=args.record)
    OUT.mkdir(exist_ok=True)

    probe = SpeedProbe()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        with probe.running():
            t0 = perf_counter()
            ctx = Context(import_package(src), ROOT, OUT, answers)
            inputs = workload.prepare(ctx, args.seed, TINY)
            t1 = perf_counter()
        setups.append(probe.scale(t0, t1))
        raw_setups.append(t1 - t0)

    passes = []
    tracer = None
    if args.trace:
        passes.append(run_pass(workload, ctx, inputs, probe))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # no probes inside the traced pass: they would land in its spans
            traced = run_pass(workload, ctx, inputs, probe, timer=False)
        finally:
            tracer.restore()
        passes.append(traced)
    else:
        start = perf_counter()
        while True:
            passes.append(run_pass(workload, ctx, inputs, probe))
            if perf_counter() - start + passes[-1].raw > args.seconds:
                break

    ops = [op for p in passes for op in p.ops]
    failed = sum(not op.ok for op in ops)
    for line in answers.mismatches:
        print(f"perfbench: MISMATCH {line}", file=sys.stderr)
    if args.record:
        recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        recorded.update(answers.observed)
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    if tracer is not None:
        metrics = tracer.metrics(traced.raw, traced.wall - passes[0].wall)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        n_spans = tracer.write_spans(spans)
    else:
        metrics = end_to_end(setups, passes)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "field": FIELD,
        "reference_s": REFERENCE_S,
        "probe_s": [k for _, _, k in probe.samples],
        "setup_s": setups,
        "setup_raw_s": raw_setups,
        "pass_wall_s": [p.wall for p in passes],
        "pass_wall_raw_s": [p.raw for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
        "rungs": [{"rung": rung, "vertices": v, "seconds": t} for rung, (v, t)
                  in rung_times([op for p in (passes[:1] if tracer else passes)
                                 for op in p.ops]).items()],
        "distinct_ops": len(op_medians(ops)),
        "ops": len(ops),
        "failed": failed,
        "failed_ratio": failed / len(ops),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if tracer is not None:
        detail["hom_hits_outside_spans"] = tracer.root_hits
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
          f"nproc {detail['nproc']}  python {detail['python']}  field {FIELD}")
    print(f"speed probe {median(detail['probe_s']):.5f} s (reference {REFERENCE_S} s); "
          f"raw pass walls {', '.join(f'{w:.3f}' for w in detail['pass_wall_raw_s'])} s")
    if len(detail["rungs"]) <= 8:
        for r in detail["rungs"]:
            print(f"rung {r['rung']:>8}  V={r['vertices']:<4} {r['seconds']:.3f} s")
    if tracer is not None:
        print(f"spans {n_spans} written to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        layer = name.rsplit(".", 1)[0]
        if tracer is None or metrics.get(f"{layer}.calls", (1,))[0]:
            print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {failed}/{len(ops)} = {failed / len(ops):.6g}  "
          f"(samples {len(ops)} of {detail['distinct_ops']} distinct operations)")
    print(json.dumps({
        "correct": failed == 0 and not answers.mismatches,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and not answers.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
