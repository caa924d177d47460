"""The benchmark's workloads.

Each workload builds its inputs in `prepare` and runs one whole pass over
them in `run_pass`.  A pass builds every window afresh, as a CLI invocation
does, and returns its timed operations.  Every operation's answer is
checked: CLI checks against the answers recorded in `expected.json`, the
rest against an independent oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt, lcm, log
from statistics import median
from time import perf_counter

MIXED = "fixtures/mixed.tq"


@dataclass
class Op:
    label: str  # what ran, e.g. "serre-check mixed --depth 3"
    rung: str  # the size step it belongs to (per-rung detail, growth)
    vertices: int  # vertex count of the window it ran on
    start: float  # perf_counter() at start and end
    end: float
    ok: bool
    growth: bool = True  # counted in its rung's time for growth_exp
    seconds: float = 0.0  # reference seconds, set by speed.SpeedProbe.rescale


class Answers:
    """Compares each answer with the expected one and keeps the mismatches.

    With `record` set every answer is accepted and kept in `observed`, from
    which `expected.json` is written.
    """

    def __init__(self, expected: dict, record: bool = False):
        self.expected = expected
        self.record = record
        self.observed: dict = {}
        self.mismatches: list[str] = []

    def check(self, label: str, answer) -> bool:
        self.observed[label] = answer
        if self.record or self.expected.get(label) == answer:
            return True
        self.mismatches.append(
            f"{label}: expected {json.dumps(self.expected.get(label))}, "
            f"got {json.dumps(answer)}")
        return False

    def oracle(self, label: str, ok: bool, detail: str) -> bool:
        if not ok:
            self.mismatches.append(f"{label}: {detail}")
        return ok


class Context:
    """What a pass needs: the imported package, the checkout and the answers."""

    def __init__(self, tq, root, work, answers: Answers):
        self.tq = tq  # namespace of the package's modules
        self.root = root
        self.work = work  # directory for generated input files
        self.answers = answers


def cli_check(ctx: Context, label: str, argv: list[str]) -> tuple[float, float, bool]:
    """Run one CLI check in-process; check exit code, report and counts.
    Returns its start and end time and whether the answer is right."""
    report_cls = ctx.tq.report.Report
    inner = report_cls.to_json_dict
    counts = []

    def to_json_dict(self):
        counts.append({"checked": self.checked, "skipped": self.skipped})
        return inner(self)

    out, err = io.StringIO(), io.StringIO()
    report_cls.to_json_dict = to_json_dict
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            code = ctx.tq.cli.run(argv)
            t1 = perf_counter()
    finally:
        report_cls.to_json_dict = inner
    doc = json.loads(out.getvalue())
    answer = {"exit": code, "status": doc["status"], "items": doc["items"]}
    answer.update(counts[-1])
    return t0, t1, ctx.answers.check(label, answer)


def _vertex_count(ctx: Context, path, depth: int) -> int:
    tq = ctx.tq
    with open(path, encoding="utf-8") as fh:
        w = tq.windows.expand(tq.dsl.parse_tq(fh.read()), depth)
    return len(w.quiver.vertices)


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) against log(vertices)."""
    xs = [log(v) for v, _ in points]
    ys = [log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# Cheap rungs run this many times in a pass, so that their time (and the
# median operation) is a median of several samples rather than one short one.
LOWER_REPEATS = 3


class MixedLadder:
    """CLI checks on the mixed fixture at depths 1-3."""

    checks: tuple[str, ...] = ()
    # the median operation is a depth-2 check, so it gets more samples than
    # LOWER_REPEATS gives
    lower_repeats = 5

    def prepare(self, ctx: Context, seed: int, tiny: bool) -> dict:
        path = ctx.root / MIXED
        depths = [0, 1] if tiny else [1, 2, 3]
        rungs = [(d, _vertex_count(ctx, path, d),
                  1 if tiny or d == depths[-1] else self.lower_repeats)
                 for d in depths]
        return {"path": path, "rungs": rungs}

    def run_pass(self, ctx: Context, inputs: dict) -> list[Op]:
        ops = []
        for depth, v, repeats in inputs["rungs"]:
            for _ in range(repeats):
                for check in self.checks:
                    label = f"{check} mixed --depth {depth}"
                    t0, t1, ok = cli_check(
                        ctx, label, [check, str(inputs["path"]), "--depth", str(depth)])
                    ops.append(Op(label, f"depth {depth}", v, t0, t1, ok))
        return ops


class SerreLadder(MixedLadder):
    name = "serre-ladder"
    why = ("serre-check on mixed at depths 1-3: the slowest check and the"
           " growth the roadmap names (hom complexes, Yoneda maps, resolutions)")
    checks = ("serre-check",)


class StructureMixed(MixedLadder):
    name = "structure-mixed"
    why = ("dualizing-check and threads on mixed at depths 1-3: covers, kernels,"
           " pseudo(co)kernels and rad/irr dims, with no Serre sweep")
    checks = ("dualizing-check", "threads")


def grid_dsl(n: int) -> str:
    """The commutative (n+1)x(n+1) grid: every square commutes."""

    def v(i, j):
        return f"v{i}_{j}"

    lines = ["vertex " + " ".join(v(i, j) for i in range(n + 1) for j in range(n + 1))]
    for i in range(n + 1):
        for j in range(n + 1):
            if j < n:
                lines.append(f"arrow h{i}_{j}: {v(i, j)} -> {v(i, j + 1)}")
            if i < n:
                lines.append(f"arrow d{i}_{j}: {v(i, j)} -> {v(i + 1, j)}")
    for i in range(n):
        for j in range(n):
            lines.append(f"relation d{i}_{j + 1}*h{i}_{j} - h{i + 1}_{j}*d{i}_{j} = 0")
    return "\n".join(lines) + "\n"


def grid_hom_dim(x: str, y: str) -> int:
    """Closed form on the grid: one map (i, j) -> (k, l) if i <= k and j <= l."""
    i, j = map(int, x[1:].split("_"))
    k, l = map(int, y[1:].split("_"))
    return 1 if i <= k and j <= l else 0


class GridRelations:
    name = "grid-relations"
    why = ("commutative grids n=2..5: the only workload with many relations, where"
           " path enumeration and rref in hom_basis_paths dominate")
    serre_max_n = 3

    def prepare(self, ctx: Context, seed: int, tiny: bool) -> dict:
        rungs = []
        sizes = [2, 3] if tiny else [2, 3, 4, 5]
        for n in sizes:
            path = ctx.work / f"grid{n}.tq"
            path.write_text(grid_dsl(n), encoding="utf-8")
            # (all-pairs hom, CLI checks) runs per pass; the top rung's
            # dualizing-check is long enough to time once, its hom is not
            repeats = (1, 1) if tiny else (LOWER_REPEATS, 1 if n == sizes[-1] else LOWER_REPEATS)
            rungs.append((n, path, _vertex_count(ctx, path, 0), repeats))
        return {"rungs": rungs}

    def run_pass(self, ctx: Context, inputs: dict) -> list[Op]:
        ops = []
        for n, path, v, (hom_repeats, check_repeats) in inputs["rungs"]:
            for _ in range(hom_repeats):
                ops.append(self._hom_all_pairs(ctx, n, path, v))
            for _ in range(check_repeats):
                checks = ["dualizing-check"]
                if n <= self.serre_max_n:
                    checks.append("serre-check")
                for check in checks:
                    label = f"{check} grid{n}"
                    t0, t1, ok = cli_check(ctx, label, [check, str(path)])
                    ops.append(Op(label, f"n={n}", v, t0, t1, ok,
                                  growth=check != "serre-check"))
        return ops

    def _hom_all_pairs(self, ctx: Context, n: int, path, v: int) -> Op:
        tq = ctx.tq
        w = tq.windows.expand(tq.dsl.parse_tq(path.read_text(encoding="utf-8")), 0)
        verts = w.quiver.vertices
        t0 = perf_counter()
        dims = {(x, y): w.hom_dim(x, y) for x in verts for y in verts}
        t1 = perf_counter()
        wrong = [k for k, d in dims.items() if d != grid_hom_dim(*k)]
        label = f"hom all pairs grid{n}"
        ok = ctx.answers.oracle(label, not wrong, f"closed form fails at {wrong[:3]}")
        return Op(label, f"n={n}", v, t0, t1, ok)


LABELS = ["", "1", "2", "3", "N", "-N", "Z"]


class LibraryMix:
    name = "library-mix"
    why = ("seeded random small thread quivers through DSL, expand, roundtrip and"
           " hom/ext/decompose of random modules, all with cold caches")
    quivers = 300
    max_vertices = 60  # window_iso's TooLarge limit

    def _draw(self, tq, rng: random.Random, n: int, kinds: list[str]):
        """A quiver on n vertices with one arrow per entry of `kinds`: "s" for a
        standard arrow, else the thread label."""
        orders = tq.orders
        label_expr = {"": orders.Fin(0), "1": orders.Fin(1), "2": orders.Fin(2),
                      "3": orders.Fin(3), "N": orders.NAT, "-N": orders.NEG_NAT,
                      "Z": orders.INT}
        verts = [f"v{i}" for i in range(n)]
        std, thr = [], []
        for k, kind in enumerate(kinds):
            i = rng.randint(0, n - 2)
            j = rng.randint(i + 1, n - 1)
            if kind == "s":
                std.append((f"s{k}", verts[i], verts[j]))
            else:
                thr.append((f"t{k}", verts[i], verts[j], label_expr[kind]))
        return tq.windows.ThreadQuiver(verts, std, thr)

    def prepare(self, ctx: Context, seed: int, tiny: bool) -> dict:
        """Draws from a balanced design, so that seeds differ in structure but
        not in mix: every (vertices, arrows) shape in 2-5 x 1-4 equally often,
        and arrow kinds (standard or one of the labels) dealt evenly."""
        tq = ctx.tq
        rng = random.Random(seed)
        count = 8 if tiny else self.quivers
        shapes = [(2 + i % 4, 1 + (i // 4) % 4) for i in range(count)]
        rng.shuffle(shapes)
        deck = []
        drawn = []
        for n, k in shapes:
            while True:
                kinds = []
                for _ in range(k):
                    if not deck:
                        deck = ["s"] * len(LABELS) + LABELS
                        rng.shuffle(deck)
                    kinds.append(deck.pop())
                q = self._draw(tq, rng, n, kinds)
                text = tq.dsl.serialize_tq(q)
                v = len(tq.windows.expand(tq.dsl.parse_tq(text), 2).quiver.vertices)
                if v <= self.max_vertices:
                    break
            drawn.append((q, v))
        return {"seed": seed, "quivers": drawn}

    def run_pass(self, ctx: Context, inputs: dict) -> list[Op]:
        ops = []
        for i, (q, v) in enumerate(inputs["quivers"]):
            rng = random.Random(f"{inputs['seed']}:{i}")
            ops += self._quiver_ops(ctx, f"q{i}", q, v, rng)
        return ops

    def _quiver_ops(self, ctx: Context, rung: str, q, v: int, rng) -> list[Op]:
        tq = ctx.tq
        oracle = ctx.answers.oracle
        ops = []

        def timed(label, fn):
            t0 = perf_counter()
            result = fn()
            ops.append(Op(f"{label} {rung}", rung, v, t0, perf_counter(), True))
            return result

        def judge(ok, detail, n=1):
            for op in ops[-n:]:
                op.ok = oracle(op.label, ok, detail)

        text = tq.dsl.serialize_tq(q)
        parsed = timed("dsl", lambda: tq.dsl.parse_tq(tq.dsl.serialize_tq(q)))
        judge(tq.dsl.serialize_tq(parsed) == text, "serialize(parse(text)) != text")

        w = timed("expand", lambda: tq.windows.expand(parsed, 2))
        chains = [len(tq.orders.truncate(tq.orders.thread_order(t.label), 2))
                  for t in q.thread_arrows]
        want = (len(q.vertices) + sum(c - 2 for c in chains),
                len(q.standard_arrows) + sum(c - 1 for c in chains))
        got = (len(w.quiver.vertices), len(w.quiver.arrows))
        judge(got == want, f"(vertices, arrows) {got}, truncation gives {want}")

        def roundtrip():
            back = tq.threads.extract_threadquiver(w, 3)
            return tq.windows.window_iso(tq.windows.expand(back, 0), w)

        iso = timed("roundtrip", roundtrip)
        judge(iso is not None, "expand(extract(w), 0) is not isomorphic to w")

        M = _random_module(tq, w, rng)
        N = _random_module(tq, w, rng)
        for (xl, X), (yl, Y) in ((("M", M), ("N", N)), (("N", N), ("M", M))):
            hom = timed(f"hom({xl},{yl})", lambda: tq.reps.hom_dim(X, Y))
            ext = timed(f"ext1({xl},{yl})", lambda: tq.reps.ext_dim(1, X, Y, 6))
            euler = _euler_form(w, X, Y)
            judge(hom - ext == euler, f"dim hom {hom} - dim ext1 {ext} != euler {euler}", 2)
        for xl, X in (("M", M), ("N", N)):
            parts = timed(f"decompose({xl})", lambda: _decompose(tq, X))
            if parts is None:
                judge(_end_not_split(tq, X),
                      "EndNotSplit, but every endomorphism splits over Q")
                continue
            total = {x: sum(p.dims[x] for p in parts) for x in w.quiver.vertices}
            judge(total == X.dims and all(not p.is_zero() for p in parts),
                  "summands do not add up to the module")
        return ops


def _random_module(tq, w, rng: random.Random):
    """A random finitely presented module: the cokernel of a random map
    between sums of one or two standard projectives."""
    reps = tq.reps
    verts = w.quiver.vertices
    P0 = reps.proj_sum(w, [rng.choice(verts) for _ in range(rng.randint(1, 2))])
    P1 = reps.proj_sum(w, [rng.choice(verts) for _ in range(rng.randint(1, 2))])
    _, basis = reps.hom_basis(P1, P0)
    f = None
    for g in basis:
        c = rng.randint(-2, 2)
        if c:
            g = g.scale(w.field(c))
            f = g if f is None else f + g
    return P0 if f is None else reps.map_factor(f).cokernel


def _decompose(tq, M):
    """The indecomposable summands of M, or None where decompose reports that
    End(M) does not split over the field (as on a Kronecker module whose
    endomorphisms include a square root of 2)."""
    try:
        return tq.reps.decompose(M)
    except tq.errors.EndNotSplit:
        return None


def _end_not_split(tq, M) -> bool:
    """Independent evidence for EndNotSplit: a natural endomorphism of M whose
    characteristic polynomial at some vertex has no full set of rational roots."""
    _, basis = tq.reps.hom_basis_generic(M, M)
    for h in basis:
        if not h.is_natural():
            return False
        for m in h.comps.values():
            rows = [[Fraction(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
            if rows and not _splits_over_q(rows):
                return True
    return False


def _splits_over_q(a: list[list[Fraction]]) -> bool:
    """Whether det(xI - a) is a product of linear factors over Q."""
    n = len(a)
    # Faddeev-LeVerrier: M_k = a M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(a M_k) / k
    poly = [Fraction(1)]  # coefficients, highest degree first
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prod = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
        mk = [[prod[i][j] + (poly[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        trace = sum(sum(a[i][l] * mk[l][i] for l in range(n)) for i in range(n))
        poly.append(-trace / k)
    while len(poly) > 1:
        root = next((r for r in _rational_root_candidates(poly) if _horner(poly, r) == 0), None)
        if root is None:
            return False
        quotient = [poly[0]]
        for c in poly[1:-1]:
            quotient.append(c + root * quotient[-1])
        poly = quotient
    return True


def _horner(poly: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in poly:
        acc = acc * x + c
    return acc


def _rational_root_candidates(poly: list[Fraction]) -> list[Fraction]:
    """p/q with p dividing the constant and q the leading coefficient, once
    the coefficients are cleared of denominators."""
    scale = lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    if ints[-1] == 0:
        return [Fraction(0)]

    def divisors(x: int) -> list[int]:
        x = abs(x)
        small = [d for d in range(1, isqrt(x) + 1) if x % d == 0]
        return small + [x // d for d in small]

    return [sign * Fraction(p, q) for p in divisors(ints[-1]) for q in divisors(ints[0])
            for sign in (1, -1)]


def _euler_form(w, M, N) -> int:
    """dim Hom(M, N) - dim Ext^1(M, N) on a window without relations, where
    the category is hereditary: the Euler form of the dimension vectors.
    Modules are contravariant, so an arrow x -> y pairs M(y) with N(x)."""
    m, n = M.dims, N.dims
    return (sum(m[x] * n[x] for x in w.quiver.vertices)
            - sum(m[a.tgt] * n[a.src] for a in w.quiver.arrows))


WORKLOADS = {wl.name: wl for wl in (SerreLadder(), StructureMixed(), GridRelations(), LibraryMix())}


def op_medians(ops: list[Op]) -> list[Op]:
    """One entry per distinct operation, timed at the median of its samples."""
    by_label: dict[str, list[Op]] = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(op)
    return [replace(group[0], seconds=median(op.seconds for op in group))
            for group in by_label.values()]


def rung_times(ops: list[Op], growth_only: bool = False) -> dict[str, tuple[int, float]]:
    """Per rung: vertex count and the summed median time of its operations."""
    out: dict[str, tuple[int, float]] = {}
    for op in op_medians(ops):
        if op.growth or not growth_only:
            v, t = out.get(op.rung, (op.vertices, 0.0))
            out[op.rung] = (v, t + op.seconds)
    return out


def growth_exp(ops: list[Op]) -> float:
    """Log-log slope of rung time against rung vertex count."""
    points = list(rung_times(ops, growth_only=True).values())
    if len({v for v, _ in points}) < 2:
        return float("nan")
    return _slope(points)
