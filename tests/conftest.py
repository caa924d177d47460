"""Shared fixture quivers used across the test suite.

These are the concrete instances the structural checks are exercised on:
small path categories, thread quivers with empty/finite/Z labels, the
mixed five-vertex thread quiver, the zig-zag category with radical-square
zero, and its linearly oriented cousin.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from threadquiver.dsl import parse_tq
from threadquiver.errors import ExceedsBound, NotRepresentable
from threadquiver.linalg import (
    QQ,
    Matrix,
    RationalField,
    column_space_basis,
    hstack,
    kernel_basis,
    rank,
    rref,
)
from threadquiver.orders import INT, NAT, NEG_NAT, Fin
from threadquiver.quiver import Path as QPath
from threadquiver.quiver import Quiver, Relation
import threadquiver.reps as reps
import threadquiver.serre as serre
import threadquiver.threads as threads
from threadquiver.report import Report
from threadquiver.reps import (
    INJECTIVE,
    NOT_STANDARD,
    PROJECTIVE,
    SIMPLE,
    Rep,
    RepMap,
    _yoneda_read,
    decompose_with_maps,
    hom_basis,
    hom_coords,
    inj_sum,
    injective_hull,
    kernel_with_inclusion,
    map_factor,
    proj_dim,
    proj_sum,
    projective_cover,
    resolution,
    restrict,
    split_proj_values,
    std_module,
)
from threadquiver.serre import VarietyMor
from threadquiver.windows import ThreadQuiver, Window, expand, gabriel_neighbours


class FractionField(RationalField):
    """Differential oracle for `linalg.QQ`: the rationals with every element
    a `Fraction`, integral or not, and `/` as the division.  It is a
    `RationalField`, so every rationals-only route accepts it, but it
    compares equal only to itself."""

    zero = Fraction(0)
    one = Fraction(1)

    def __call__(self, x) -> Fraction:
        return Fraction(x)

    @staticmethod
    def div(a, b):
        return a / b

    def __repr__(self):
        return "FractionField"

    def __eq__(self, other):
        return isinstance(other, FractionField)

    def __hash__(self):
        return hash("FractionField")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def identity_path(v):
    """The path of length zero at v."""
    return QPath(v, v, ())


def arrow_path(q, arrow_names):
    """The path of q along arrow_names, in composition order; asserts that
    consecutive arrows compose."""
    arrows = [q.arrow_by_name[name] for name in arrow_names]
    for a, b in zip(arrows, arrows[1:]):
        assert a.tgt == b.src, f"non-composable at {b.name}"
    return QPath(arrows[0].src, arrows[-1].tgt, tuple(arrow_names))


def column(m, j):
    """Column j of the matrix m, as a list."""
    return m.data[j :: m.cols] if m.cols else []


def check_complex(cx):
    """Assert that consecutive differentials of cx compose to zero."""
    for d1, d2 in zip(cx.diffs, cx.diffs[1:]):
        assert d1.then(d2).is_zero(), "differentials do not compose to zero"


def tq_a2():
    return ThreadQuiver(["a", "b"], [("f", "a", "b")], [])


def tq_comm_square():
    tq = ThreadQuiver(
        ["p", "q", "r", "s"],
        [("a", "p", "q"), ("b", "q", "s"), ("c", "p", "r"), ("d", "r", "s")],
        [],
    )
    q = Quiver(tq.vertices, tq.standard_arrows)
    rel = Relation(((1, arrow_path(q, ("a", "b"))), (-1, arrow_path(q, ("c", "d")))))
    return ThreadQuiver(tq.vertices, tq.standard_arrows, [], [rel])


def tq_z_thread():
    return ThreadQuiver(["x", "y"], [], [("t", "x", "y", INT)])


def tq_fin3_thread():
    return ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(3))])


def tq_fin1_thread():
    return ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(1))])


def tq_empty_thread():
    return ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(0))])


def tq_two_empty_threads():
    return ThreadQuiver(
        ["x", "y", "z"], [], [("t", "x", "y", Fin(0)), ("u", "y", "z", Fin(0))]
    )


def tq_mixed():
    """The five-vertex thread quiver: two standard arrows out of A, a standard
    and a Z-thread arrow B -> E, a 3-thread C -> B, an empty thread C -> D."""
    return ThreadQuiver(
        ["A", "B", "C", "D", "E"],
        [("ab", "A", "B"), ("ae", "A", "E"), ("be", "B", "E")],
        [
            ("tz", "B", "E", INT),
            ("t3", "C", "B", Fin(3)),
            ("te", "C", "D", Fin(0)),
        ],
    )


def dualizing_fixtures():
    return [
        ("z-thread", tq_z_thread()),
        ("fin3-thread", tq_fin3_thread()),
        ("mixed", tq_mixed()),
        ("a2", tq_a2()),
        ("comm-square", tq_comm_square()),
    ]


def chain_fixtures():
    return [
        ("empty-thread", tq_empty_thread()),
        ("fin1-thread", tq_fin1_thread()),
        ("fin3-thread", tq_fin3_thread()),
        ("z-thread", tq_z_thread()),
        ("two-empty-threads", tq_two_empty_threads()),
    ]


def zigzag_window(field=QQ):
    """First three zig/zag segments with all length-2 compositions zero.

    All arrows point down the page; zig i has i arrows, zag i has i arrows,
    sharing tops (b^i_0 = a^{i+1}_0) and bottoms (a^i_i = b^i_i).
    """
    vertices = [
        "a10", "a11",
        "a20", "a21", "a22", "b21",
        "a30", "a31", "a32", "a33", "b31", "b32", "b30",
    ]
    arrows = [
        ("z1", "a10", "a11"),
        ("w1", "a20", "a11"),
        ("z2a", "a20", "a21"), ("z2b", "a21", "a22"),
        ("w2a", "a30", "b21"), ("w2b", "b21", "a22"),
        ("z3a", "a30", "a31"), ("z3b", "a31", "a32"), ("z3c", "a32", "a33"),
        ("w3a", "b30", "b31"), ("w3b", "b31", "b32"), ("w3c", "b32", "a33"),
    ]
    q = Quiver(vertices, arrows)
    rels = []
    for a in q.arrows:
        for b in q.out_arrows[a.tgt]:
            rels.append(Relation(((1, arrow_path(q, (a.name, b.name))),)))
    return Window(q, rels, field=field)


def ainf_rad2_window(n=10, field=QQ):
    """Linearly oriented A_n with all length-2 compositions zero (a finite
    window of the linearly oriented doubly infinite quiver)."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    q = Quiver(vertices, arrows)
    rels = [
        Relation(((1, arrow_path(q, (f"a{i}", f"a{i+1}"))),)) for i in range(1, n - 1)
    ]
    return Window(q, rels, field=field)


def star_tail_window(n=6, field=QQ):
    """One vertex with arrows to every vertex of a chain whose tail is marked
    as a truncation artifact (the shape left by removing a thread interval
    in front of an accumulating family)."""
    vertices = ["X"] + [f"c{i}" for i in range(1, n + 1)] + ["Y"]
    arrows = [("xy", "X", "Y")]
    arrows += [(f"x{i}", "X", f"c{i}") for i in range(1, n + 1)]
    arrows += [(f"c{i}", f"c{i}", f"c{i+1}") for i in range(1, n)]
    q = Quiver(vertices, arrows)
    return Window(q, [], boundary={f"c{n}"}, field=field)


def comm_grid_window(n, field=QQ):
    """The commutative (n+1)x(n+1) grid: arrows right and down, every square
    commutes."""
    def v(i, j):
        return f"v{i}_{j}"

    vertices = [v(i, j) for i in range(n + 1) for j in range(n + 1)]
    arrows = [(f"h{i}_{j}", v(i, j), v(i, j + 1))
              for i in range(n + 1) for j in range(n)]
    arrows += [(f"d{i}_{j}", v(i, j), v(i + 1, j))
               for i in range(n) for j in range(n + 1)]
    q = Quiver(vertices, arrows)
    rels = [
        Relation(((1, arrow_path(q, (f"h{i}_{j}", f"d{i}_{j + 1}"))),
                  (-1, arrow_path(q, (f"d{i}_{j}", f"h{i + 1}_{j}")))))
        for i in range(n) for j in range(n)
    ]
    return Window(q, rels, field=field)


def fixture_windows(depths, fixtures=FIXTURES):
    """(label, window) for every fixture file expanded at each depth.
    Raises FileNotFoundError when the directory holds no `.tq` file, so a
    sweep parametrized by it fails instead of collecting no case."""
    paths = sorted(Path(fixtures).glob("*.tq"))
    if not paths:
        raise FileNotFoundError(f"no .tq fixture files in {fixtures}")
    out = []
    for path in paths:
        tq = parse_tq(path.read_text())
        for d in depths:
            out.append((f"{path.stem}@{d}", expand(tq, d)))
    return out


def full_scan_consistency(w1, w2, assignment, used):
    """Oracle for `windows._consistency`: v -> w is consistent when, for
    every assigned u -> x, the arrow counts u -> v and x -> w agree, and so
    do v -> u and w -> x.  It scans every assigned vertex, neighbour or not."""
    ac1, ac2 = (Counter((a.src, a.tgt) for a in w.quiver.arrows) for w in (w1, w2))

    def consistent(v, w):
        return all(ac1[(u, v)] == ac2[(x, w)] and ac1[(v, u)] == ac2[(w, x)]
                   for u, x in assignment.items())

    return consistent


label_strategy = st.one_of(
    st.builds(Fin, st.integers(0, 3)), st.just(NAT), st.just(NEG_NAT), st.just(INT)
)


@st.composite
def random_thread_quivers(draw):
    n = draw(st.integers(2, 5))
    verts = [f"v{i}" for i in range(n)]
    std, thr = [], []
    k = 0
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 2))
        j = draw(st.integers(i + 1, n - 1))
        if draw(st.booleans()):
            std.append((f"s{k}", verts[i], verts[j]))
        else:
            thr.append((f"t{k}", verts[i], verts[j], draw(label_strategy)))
        k += 1
    return ThreadQuiver(verts, std, thr)


def draw_relation(data, q):
    """One relation of q drawn with hypothesis' `data`: 2 or 3 of the paths
    x -> y of some pair with at least two, with coefficients in ±1, ±2.
    Rejects the example when no pair has two parallel paths."""
    max_len = len(q.vertices) - 1
    parallel = [
        ps for x in q.vertices for y in q.vertices if x != y
        for ps in [enumerate_paths(q, x, y, max_len)] if len(ps) >= 2
    ]
    assume(parallel)
    paths = data.draw(st.sampled_from(parallel))
    k = data.draw(st.integers(2, min(3, len(paths))))
    chosen = data.draw(st.permutations(paths))[:k]
    coeffs = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=k, max_size=k))
    return Relation(tuple(zip(coeffs, chosen)))


def random_fp_rep(w, rng, n_gens=2, n_rels=2):
    """Random finitely presented module as a cokernel between projective sums."""
    verts = w.quiver.vertices
    gen_vs = [rng.choice(verts) for _ in range(rng.randint(1, n_gens))]
    rel_vs = [rng.choice(verts) for _ in range(rng.randint(1, n_rels))]
    P0 = proj_sum(w, gen_vs)
    P1 = proj_sum(w, rel_vs)
    _, basis = hom_basis(P1, P0)
    f = None
    for g in basis:
        c = rng.randint(-2, 2)
        if c:
            g = g.scale(QQ(c))
            f = g if f is None else f + g
    if f is None:
        return P0
    return map_factor(f).cokernel


def total_hom_data(CX, CY):
    """Component dimensions and differentials of the total hom complex
    Hom(CX, CY) by the evaluation route, every differential built from the
    layout and block writer `reps.total_hom_dims` ranks
    (`reps._hom_layout`, `reps._hom_differential`)."""
    plan, Z, dims, starts = reps._hom_layout(CX, CY)
    return dims, {n: Matrix(Z.window.field, dims.get(n + 1, 0), d,
                            reps._hom_differential(plan, Z, dims, starts, n))
                  for n, d in dims.items()}


def per_call_hom_data(CX, CY):
    """Differential oracle for `total_hom_data` on a complex CX of certified
    projective sums: the same Yoneda evaluation with nothing compiled, every
    call laying out the blocks, reading each hom basis and summing each
    block's path actions, scaled copies included, before placing it with
    its sign.  Every differential is built."""
    w = CX.window
    fld = w.field
    n_min = CY.min_degree - (CX.min_degree + len(CX.terms) - 1)
    n_max = (CY.min_degree + len(CY.terms) - 1) - CX.min_degree
    layout = {}
    # (p, q) -> first coordinate of each block b within degree q - p
    offsets = {}
    dims = {}
    for n in range(n_min, n_max + 1):
        blocks = []
        off = 0
        for p in CX.degrees():
            Y = CY.term(p + n)
            if Y is None:
                continue
            blocks.append((p, p + n))
            offsets[(p, p + n)] = starts = []
            for v in CX.term(p).cert[1]:
                starts.append(off)
                off += Y.dims[v]
        layout[n] = blocks
        dims[n] = off

    def differential(n):
        rows = dims.get(n + 1, 0)
        cols = dims.get(n, 0)
        m = Matrix.zeros(fld, rows, cols)
        if rows == 0 or cols == 0:
            return m
        sign = -(fld(-1) if n % 2 else fld.one)  # -(-1)^n

        def place(r0, c0, block, scale=None):
            for i in range(block.rows):
                row = block.data[i * block.cols:(i + 1) * block.cols]
                base = (r0 + i) * cols + c0
                m.data[base:base + block.cols] = (
                    row if scale is None else [scale * c for c in row])

        for (p, q) in layout[n]:
            verts = CX.term(p).cert[1]
            dY = CY.diff(q)
            if dY is not None:
                for b, v in enumerate(verts):
                    place(offsets[(p, q + 1)][b], offsets[(p, q)][b], dY.comps[v])
            dX = CX.diff(p - 1)
            if dX is not None:
                Y = CY.term(q)
                prev = CX.term(p - 1).cert[1]
                for b, row in enumerate(dX.proj_coords):
                    for a, coords in enumerate(row):
                        if coords is None:
                            continue
                        hom = w.hom(prev[a], verts[b])
                        terms = [(c, path) for c, path in zip(coords, hom.basis)
                                 if c != fld.zero]
                        place(offsets[(p - 1, q)][a], offsets[(p, q)][b],
                              Y.act_terms(terms), sign)
        return m

    return dims, {n: differential(n) for n in dims}


def basis_route_hom_data(CX, CY):
    """Differential oracle for `total_hom_data`: the total hom complex
    assembled from explicit RepMap bases of every hom(X^p, Y^q), reading each
    composite back with `hom_coords`.

    Same degrees, block order (block, then unit vector) and sign convention
    as the evaluation route; the differential sends f to dY . f - (-1)^n f . dX.
    """
    fld = CX.window.field
    bases = {}
    for p in CX.degrees():
        for q in CY.degrees():
            bases[(p, q)] = hom_basis(CX.term(p), CY.term(q))[1]
    n_min = CY.min_degree - (CX.min_degree + len(CX.terms) - 1)
    n_max = (CY.min_degree + len(CY.terms) - 1) - CX.min_degree
    layout, offsets, dims = {}, {}, {}
    for n in range(n_min, n_max + 1):
        blocks = []
        off = 0
        for p in CX.degrees():
            q = p + n
            if (p, q) in bases:
                blocks.append((p, q))
                offsets[(p, q)] = off
                off += len(bases[(p, q)])
        layout[n] = blocks
        dims[n] = off

    def differential(n):
        rows = dims.get(n + 1, 0)
        cols = dims.get(n, 0)
        m = Matrix.zeros(fld, rows, cols)
        if rows == 0 or cols == 0:
            return m
        sign = -(fld(-1) if n % 2 else fld.one)  # -(-1)^n
        for (p, q) in layout[n]:
            for j, f in enumerate(bases[(p, q)]):
                col = offsets[(p, q)] + j
                dY = CY.diff(q)
                if dY is not None and (p, q + 1) in offsets and bases[(p, q + 1)]:
                    coords = hom_coords(bases[(p, q + 1)], f.then(dY))
                    base = offsets[(p, q + 1)]
                    for r, c in enumerate(coords):
                        m.data[(base + r) * cols + col] += c
                dX = CX.diff(p - 1)
                if dX is not None and (p - 1, q) in offsets and bases[(p - 1, q)]:
                    coords = hom_coords(bases[(p - 1, q)], dX.then(f))
                    base = offsets[(p - 1, q)]
                    for r, c in enumerate(coords):
                        m.data[(base + r) * cols + col] += sign * c
        return m

    return dims, {n: differential(n) for n in range(n_min, n_max + 1)}


def basis_route_ext_dim(i, M, N, max_len):
    """Differential oracle for `reps.ext_dim`: dim Ext^i(M, N) from explicit
    RepMap bases of hom(P_k, N) over a minimal projective resolution of M,
    each precomposed with the resolution's differential and read back with
    `hom_coords`."""
    assert i >= 0
    if M.is_zero() or N.is_zero():
        return 0
    fld = M.field
    cx = resolution(M, PROJECTIVE, max_len).complex

    # the degree-k component is hom(P_k, N), with P_k in degree -k
    def basis_at(k):
        t = cx.term(-k)
        return [] if t is None else hom_basis(t, N)[1]

    def delta(bs_from, bs_to, d):
        # precompose with the differential P_{k+1} -> P_k
        m = Matrix.zeros(fld, len(bs_to), len(bs_from))
        if not bs_from or not bs_to or d is None:
            return m
        for j, g in enumerate(bs_from):
            for r, c in enumerate(hom_coords(bs_to, d.then(g))):
                m.data[r * len(bs_from) + j] = c
        return m

    b_i = basis_at(i)
    if not b_i:
        return 0
    d_in = delta(basis_at(i - 1), b_i, cx.diff(-i)) if i >= 1 else None
    d_out = delta(b_i, basis_at(i + 1), cx.diff(-(i + 1)))
    return len(b_i) - rank(d_out) - (rank(d_in) if d_in is not None else 0)


def per_probe_usable_probes(w, test_set, max_len, forbid_boundary, report):
    """Differential oracle for `serre._usable_probes`: every probe resolved
    both projectively and injectively, each side on its own, with no
    simples' resolutions; a probe past the bound fails in one item named
    after the sides that exceed it, and under forbid_boundary a probe is
    skipped when either finished resolution has a term at a boundary
    vertex."""
    def resolved(X, side):
        try:
            return resolution(X, side, max_len).complex
        except ExceedsBound:
            return None

    usable = []
    for label, X in test_set:
        res, inj = resolved(X, PROJECTIVE), resolved(X, INJECTIVE)
        if res is None or inj is None:
            exceeded = "/".join(d for d, cx in (("pd", res), ("id", inj)) if cx is None)
            report.fail(f"{exceeded}({label})", f"<= {max_len}", "ExceedsBound")
            continue
        if forbid_boundary and any(
                v in w.boundary for cx in (res, inj) for t in cx.terms for v in t.cert[1]):
            report.skipped += 1
            continue
        report.tally()
        usable.append((label, X, res, serre.one_term_complex(X)))
    return usable


def per_pair_check_serre(w, test_set, max_len, forbid_boundary=True):
    """Differential oracle for `serre.check_serre`: both hom complexes of
    every ordered probe pair are evaluated, with no test by support."""
    report = Report("serre-check")
    usable = serre._usable_probes(w, test_set, max_len, forbid_boundary, report)
    images = {label: serre.nakayama(res) for label, _, res, _ in usable}
    for xl, _, res_x, _ in usable:
        for yl, Y, res_y, _ in usable:
            left = serre.total_hom_dims(res_x, serre.one_term_complex(Y))
            right = serre.total_hom_dims(res_y, images[xl])
            for n in range(-max_len, max_len + 1):
                report.tally()
                ln, rn = left.get(n, 0), right.get(-n, 0)
                if ln != rn:
                    report.fail(
                        f"RHom^{n}({xl}, {yl}) vs RHom^{-n}({yl}, S {xl})", ln, rn
                    )
    return report


def support_sets(usable, images):
    """Per probe label: the vertices of its resolution's terms, its support,
    and the support of its Nakayama image's terms.  By Yoneda,
    hom(⊕_b P(v_b), Z) = ⊕_b Z(v_b), so every component of Hom(res X, Y) is
    zero when X's term vertices miss Y's support, and every component of
    Hom(res Y, S X) when Y's term vertices miss the support of S X."""
    return {
        label: ({v for t in res.terms for v in t.cert[1]},
                set(X.support),
                {v for t in images[label].terms for v in t.support})
        for label, X, res, _ in usable
    }


def zero_sides(sets, xl, yl):
    """Differential oracle for the targets `serre.check_serre` reads off its
    vertex indexes: whether Hom(res X, Y) and Hom(res Y, S X) are zero by
    support, for the probes labelled xl and yl, tested pair by pair (see
    `support_sets`)."""
    terms_x, _, image_x = sets[xl]
    terms_y, support_y, _ = sets[yl]
    return terms_x.isdisjoint(support_y), terms_y.isdisjoint(image_x)


def per_simple_has_ext_from_simples(X, one, simples, vertices, degrees):
    """Differential oracle for `serre._has_ext_from_simples`: every simple u
    in vertices is scanned in turn, its resolution's plan read at the
    degrees -i for i in degrees, and its Ext read when a term there meets
    X's support; stops at the first u with a nonzero Ext."""
    for u in vertices:
        verts = simples[u].yoneda_plan.verts
        if not any(X.dims[v] for i in degrees for v in verts.get(-i, ())):
            continue
        dims = serre.total_hom_dims(simples[u], one)
        if any(dims.get(i) for i in degrees):
            return True
    return False


def compose_coords(w, x, y, z, f_coords, g_coords):
    """Coordinates of g . f for f in hom(x,y), g in hom(y,z)."""
    hxy, hyz, hxz = w.hom(x, y), w.hom(y, z), w.hom(x, z)
    terms = []
    for i, ci in enumerate(f_coords):
        if ci == w.field.zero:
            continue
        for j, cj in enumerate(g_coords):
            if cj == w.field.zero:
                continue
            terms.append((ci * cj, hxy.basis[i].then(hyz.basis[j])))
    return hxz.expand(terms)


def nakayama_composes(w: Window) -> bool:
    """The Nakayama realization composes: N(b·a) = N(b)·N(a) for every
    composable pair of arrows a, b."""
    q = w.quiver
    # pairs are grouped by their middle vertex, visited in topological order:
    # an arrow is realized once, at its source's turn, and held until its
    # target's turn
    held: dict[str, tuple[VarietyMor, RepMap]] = {}
    for y in q.topological_order():
        for arrow in q.out_arrows[y]:
            if q.in_arrows[y] or q.out_arrows[arrow.tgt]:
                vm = VarietyMor.from_arrow(w, arrow.name)
                held[arrow.name] = (vm, serre.realize_inj_coords(
                    inj_sum(w, vm.source), inj_sum(w, vm.target), vm.entries))
        ins = [held.pop(arrow.name, None) for arrow in q.in_arrows[y]]
        if not ins or not q.out_arrows[y]:
            continue
        outs = [held[arrow.name] for arrow in q.out_arrows[y]]
        for f, nf in ins:
            for g, ng in outs:
                x, z = f.source[0], g.target[0]
                comp_coords = compose_coords(w, x, y, z, f.entries[0][0], g.entries[0][0])
                ngf = serre.realize_inj_coords(nf.source, ng.target, [[comp_coords]])
                lhs = nf.then(ng)
                # both store the blocks where I(x) and I(z) are nonzero, and
                # every other block of either is empty
                if lhs.comps != ngf.comps:
                    return False
    return True


def per_vertex_realize_proj_coords(P, Q, entries):
    """Differential oracle for `reps.realize_proj_coords`: the map of
    certified projective sums assembled vertex by vertex.  At each vertex x,
    the block for the cell P(v) -> P(t) with hom coordinates c sends a basis
    path p: x -> v of P(v)(x) to the class of p . (sum of c_q q) in
    hom(x, t), expanded over the window's paths."""
    w = P.window
    fld = w.field
    poffs, qoffs = P.block_offsets, Q.block_offsets
    comps = {x: Matrix.zeros(fld, Q.dims[x], P.dims[x]) for x in w.quiver.vertices}
    for i, wt in enumerate(Q.cert[1]):
        for j, vs in enumerate(P.cert[1]):
            cell = entries[i][j]
            if cell is None:
                continue
            hb = w.hom(vs, wt)
            for x in w.quiver.vertices:
                hxv, hxw = w.hom(x, vs), w.hom(x, wt)
                for jj, p in enumerate(hxv.basis):
                    terms = [(c, p.then(q)) for c, q in zip(cell, hb.basis) if c != fld.zero]
                    if not terms:
                        continue
                    for ii, c in enumerate(hxw.expand(terms)):
                        comps[x][qoffs[i][x] + ii, poffs[j][x] + jj] = c
    return RepMap(P, Q, comps)


def all_intermediate_rad_irr_dims(w, x, y):
    """Differential oracle for `threads.rad_irr_dims`: rad^2(x, y) spanned by
    the composites p . q over every intermediate vertex z and every pair of
    basis paths p of hom(x, z) and q of hom(z, y)."""
    if x == y:
        return 0, 0, 0
    hxy = w.hom(x, y)
    radd = hxy.dim
    if radd == 0:
        return 0, 0, 0
    vectors = []
    for z in w.quiver.vertices:
        if z == x or z == y:
            continue
        hxz, hzy = w.hom(x, z), w.hom(z, y)
        if hxz.dim == 0 or hzy.dim == 0:
            continue
        for p in hxz.basis:
            for q in hzy.basis:
                vectors.append(hxy.expand_path(p.then(q)))
    if not vectors:
        return radd, 0, radd
    m = Matrix(w.field, len(vectors), hxy.dim, [c for vec in vectors for c in vec])
    rad2 = rank(m)
    return radd, rad2, radd - rad2


def cohomology_dims(dims, diffs):
    """dim H^n of a complex given by component dims and differentials."""
    ranks = {n: rank(d) for n, d in diffs.items()}
    return {n: dims[n] - ranks[n] - ranks.get(n - 1, 0) for n in dims}


@lru_cache(maxsize=64)
def all_pairs_reach(q):
    """Reachability oracle for `Quiver.ancestors` and the path enumeration:
    every vertex's set of reachable vertices (itself included), built at once
    along a reverse topological sweep."""
    reach = {}
    for v in reversed(q.topological_order()):
        acc = {v}
        for a in q.out_arrows[v]:
            acc |= reach[a.tgt]
        reach[v] = acc
    return reach


def enumerate_paths(q, x, y, max_len):
    """All paths x -> y of length <= max_len, sorted by (length, arrow names)."""
    assert x in q.vertex_set and y in q.vertex_set
    out = []
    reach = all_pairs_reach(q)
    if y not in reach[x]:
        return out

    def walk(v, acc):
        if v == y:
            out.append(QPath(x, y, tuple(acc)))
        if len(acc) == max_len:
            return
        for a in q.out_arrows[v]:
            if y in reach[a.tgt]:
                acc.append(a.name)
                walk(a.tgt, acc)
                acc.pop()

    walk(x, [])
    out.sort(key=path_sort_key)
    return out


def path_sort_key(p):
    """Paths ordered by length, then by arrow names."""
    return (len(p.arrows), p.arrows)


class EnumeratedHomBasis:
    """`paths` is every path x -> y; `basis` and `expand` as in `HomBasis`."""

    def __init__(self, field, paths, reducers, free_idx):
        self.field = field
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.reducers = reducers
        self.free_idx = free_idx
        self.basis = [paths[i] for i in free_idx]
        self.dim = len(free_idx)

    def expand(self, terms):
        zero = self.field.zero
        vec = [zero] * len(self.paths)
        for c, p in terms:
            vec[self.index[p]] = vec[self.index[p]] + self.field(c)
        for pivot_col, row in self.reducers:
            f = vec[pivot_col]
            if f != zero:
                for j, rv in row:
                    vec[j] = vec[j] - f * rv
        return [vec[i] for i in self.free_idx]

    def expand_path(self, p):
        return self.expand([(self.field.one, p)])


def path_enumeration_hom_basis(q, relations, x, y, field):
    """Differential oracle for `quiver.hom_basis_paths`: enumerate every path
    x -> y, span the ideal component by s . r . p over all relations r, all
    paths p into r's source and s out of r's target, and reduce by rref."""
    max_len = max(len(q.vertices) - 1, 0)
    paths = enumerate_paths(q, x, y, max_len)
    index = {p: i for i, p in enumerate(paths)}
    zero = field.zero
    rows = []
    for rel in relations:
        for pre in enumerate_paths(q, x, rel.src, max_len):
            for post in enumerate_paths(q, rel.tgt, y, max_len):
                vec = [zero] * len(paths)
                for c, t in rel.terms:
                    full = pre.then(t).then(post)
                    vec[index[full]] = vec[index[full]] + field(c)
                if any(v != zero for v in vec):
                    rows.append(vec)
    if not rows:
        return EnumeratedHomBasis(field, paths, [], list(range(len(paths))))
    _, red, pivots = rref(Matrix(field, len(rows), len(paths), [v for row in rows for v in row]))
    reducers = []
    for r, pc in enumerate(pivots):
        row = red.data[r * red.cols:(r + 1) * red.cols]
        reducers.append((pc, [(j, c) for j, c in enumerate(row) if j != pc and c != zero]))
    pivot_set = set(pivots)
    return EnumeratedHomBasis(field, paths, reducers,
                              [i for i in range(len(paths)) if i not in pivot_set])


class PathIndexHomBasis:
    """Differential oracle for `quiver.HomBasis`: the route the handles
    replaced.  Every candidate is stored as a path (`paths`), its position
    is found by hashing it (`index`), and a path that is not a candidate is
    rewritten from its longest suffix that is one (`_tail_coords`), with the
    arrows before that suffix prepended by building each path a . q_j and
    looking it up (`_add_prepended`)."""

    def __init__(self, field, paths, quiver, column):
        self.field = field
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.reducers = ()
        self.free_idx = range(len(paths))
        self.basis = paths
        self.dim = len(paths)
        self.quiver = quiver
        self.column = column

    def reduce_by(self, rows):
        zero = self.field.zero
        n = len(self.paths)
        _, red, pivots = rref(Matrix(self.field, len(rows), n, [c for row in rows for c in row]))
        self.reducers = []
        for r, pc in enumerate(pivots):
            entries = red.data[r * n:(r + 1) * n]
            self.reducers.append(
                (pc, [(j, c) for j, c in enumerate(entries) if j != pc and c != zero]))
        pivot_set = set(pivots)
        self.free_idx = [i for i in range(n) if i not in pivot_set]
        self.basis = [self.paths[i] for i in self.free_idx]
        self.dim = len(self.free_idx)

    def expand(self, terms):
        return self._reduce(self._candidate_vector(terms))

    def expand_path(self, p):
        return self.expand([(self.field.one, p)])

    def _reduce(self, vec):
        zero = self.field.zero
        for pivot_col, row in self.reducers:
            f = vec[pivot_col]
            if f != zero:
                for j, rv in row:
                    vec[j] = vec[j] - f * rv
        return [vec[i] for i in self.free_idx]

    def _candidate_vector(self, terms):
        field = self.field
        vec = [field.zero] * len(self.paths)
        for c, p in terms:
            c = field(c)
            i = self.index.get(p)
            if i is None:
                self._add_prepended(vec, c, p.arrows[0], self._tail_coords(p), p.tgt)
            else:
                vec[i] = vec[i] + c
        return vec

    def _add_prepended(self, vec, c, name, coords, y):
        a = self.quiver.arrow_by_name[name]
        zero = self.field.zero
        for cj, q in zip(coords, self.column[a.tgt].basis):
            if cj != zero:
                k = self.index[QPath(a.src, y, (name,) + q.arrows)]
                vec[k] = vec[k] + c * cj

    def _tail_coords(self, p):
        field, col, arrow = self.field, self.column, self.quiver.arrow_by_name
        y, arrows = p.tgt, p.arrows
        i = 1
        while True:
            z = arrow[arrows[i]].src
            hb = col[z]
            k = hb.index.get(QPath(z, y, arrows[i:]))
            if k is not None:
                break
            i += 1
        vec = [field.zero] * len(hb.paths)
        vec[k] = field.one
        coords = hb._reduce(vec)
        for j in range(i - 1, 0, -1):
            hb = col[arrow[arrows[j]].src]
            vec = [field.zero] * len(hb.paths)
            hb._add_prepended(vec, field.one, arrows[j], coords, y)
            coords = hb._reduce(vec)
        return coords


def path_index_column(w, y):
    """Differential oracle for `Window.column`: hom(-, y) swept in the same
    order, each hom built by the Path-index route (`PathIndexHomBasis`): the
    candidates a . q as paths sorted by (len q, name of a, position of q),
    and each relation row r . q expanded path by path over them."""
    q, field = w.quiver, w.field
    col = {}
    for x in q.ancestors(y):
        if x == y:
            col[x] = PathIndexHomBasis(field, [identity_path(x)], q, col)
            continue
        keyed = []
        for a in q.out_arrows[x]:
            hz = col.get(a.tgt)
            if hz is not None:
                keyed.extend((len(b.arrows), a.name, j, b) for j, b in enumerate(hz.basis))
        keyed.sort(key=lambda key: key[:3])
        paths = [QPath(x, y, (name,) + b.arrows) for _, name, _, b in keyed]
        hb = col[x] = PathIndexHomBasis(field, paths, q, col)
        rows = []
        for rel in w.relations:
            hz = col.get(rel.tgt)
            if rel.src != x or hz is None or not paths:
                continue
            for b in hz.basis:
                vec = hb._candidate_vector([(c, t.then(b)) for c, t in rel.terms])
                if any(v != field.zero for v in vec):
                    rows.append(vec)
        if rows:
            hb.reduce_by(rows)
    return col


def expand_path_projective(w, v):
    """Differential oracle for the standard projective P(v) of
    `reps.std_module`: the dimension at every vertex x is dim hom(x, v), and
    column j of the matrix of a: x -> z is the path a . q_j, for the basis
    path q_j of hom(z, v), expanded in the basis of hom(x, v) by
    `HomBasis.expand_path`, one path at a time."""
    q = w.quiver
    dims = {x: w.hom(x, v).dim for x in q.vertices}
    maps = {}
    for a in q.arrows:
        hx, hz = w.hom(a.src, v), w.hom(a.tgt, v)
        if not (hx.dim and hz.dim):
            continue
        m = Matrix.zeros(w.field, hx.dim, hz.dim)
        for j, p in enumerate(hz.basis):
            m.data[j::hz.dim] = hx.expand_path(QPath(a.src, v, (a.name,) + p.arrows))
        maps[a.name] = m
    return dims, maps


def matrix_from_rows(field, rows):
    """The matrix with the given rows, each entry coerced into field."""
    c = len(rows[0]) if rows else 0
    data = []
    for row in rows:
        assert len(row) == c, "ragged rows"
        data.extend(field(x) for x in row)
    return Matrix(field, len(rows), c, data)


def solve(m, b):
    """Oracle for one exact solution of m x = b, or None when b is not in
    the image: one elimination of [m | b]."""
    assert len(b) == m.rows
    aug = Matrix.zeros(m.field, m.rows, m.cols + 1)
    for i in range(m.rows):
        aug.data[i * (m.cols + 1) : i * (m.cols + 1) + m.cols] = m.row(i)
        aug.data[i * (m.cols + 1) + m.cols] = m.field(b[i])
    rk, red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    zero = m.field.zero
    x = [zero] * m.cols
    for row, pc in enumerate(pivots):
        x[pc] = red.data[row * red.cols + m.cols]
    return x


def rref_kernel_basis(m):
    """Differential oracle for `linalg.kernel_basis`: the echelon form of
    every matrix, one-row ones included, read off `rref`."""
    _, red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    out = Matrix.zeros(m.field, m.cols, len(free))
    for idx, fc in enumerate(free):
        out.data[fc * len(free) + idx] = m.field.one
        for row, pc in enumerate(pivots):
            out.data[pc * len(free) + idx] = -red.data[row * red.cols + fc]
    return out, free


def direct_sum(parts):
    """The block-diagonal sum of matrices, empty blocks included."""
    assert parts
    field = parts[0].field
    rows = sum(p.rows for p in parts)
    cols = sum(p.cols for p in parts)
    out = Matrix.zeros(field, rows, cols)
    ro = co = 0
    for p in parts:
        for i in range(p.rows):
            out.data[(ro + i) * cols + co : (ro + i) * cols + co + p.cols] = p.row(i)
        ro += p.rows
        co += p.cols
    return out


def direct_sum_object(parts):
    """Differential oracle for `reps._sum_object`: every arrow stored by some
    part is the block-diagonal `direct_sum` of that arrow's blocks over all
    parts, the empty blocks of the parts that do not store it included."""
    dims, names = {}, {}
    for p in parts:
        for v in p.support:
            dims[v] = dims.get(v, 0) + p.dims[v]
        names.update(dict.fromkeys(a.name for a in p.support_arrows))
    maps = {name: direct_sum([p.maps[name] for p in parts]) for name in names}
    cert = None
    kinds = {p.cert[0] for p in parts if p.cert is not None}
    if all(p.cert is not None for p in parts) and len(kinds) == 1:
        cert = (kinds.pop(), tuple(v for p in parts for v in p.cert[1]))
    return Rep(parts[0].window, dims, maps, validate=False, cert=cert)


def per_block_yoneda_write(P, N, vecs):
    """Differential oracle for `reps._yoneda_write`: per block, its own
    matrix at every vertex of the block's support, copied row by row into
    the sum's component at the block's offset."""
    w = P.window
    fld = w.field
    comps = {}
    for b, (v, vec) in enumerate(zip(P.cert[1], vecs, strict=True)):
        if vec is None:
            continue
        offs = P.block_offsets[b]
        for x in std_module(w, v, PROJECTIVE).support:
            if not N.dims[x]:
                continue
            hb = w.hom(x, v)
            src = Matrix.zeros(fld, N.dims[x], hb.dim)
            for j, p in enumerate(hb.basis):
                col = list(vec)
                for name in reversed(p.arrows):
                    col = N.maps[name].apply(col)
                src.data[j::hb.dim] = col
            dst = comps.get(x)
            if dst is None:
                dst = comps[x] = Matrix.zeros(fld, N.dims[x], P.dims[x])
            for i in range(src.rows):
                base = i * dst.cols + offs[x]
                dst.data[base:base + hb.dim] = src.data[i * hb.dim:(i + 1) * hb.dim]
    return RepMap(P, N, comps)


def per_column_solve_matrix(m, b):
    """Differential oracle for `linalg.solve_matrix`: one elimination of
    [m | b_j] per column of b."""
    cols = []
    for j in range(b.cols):
        x = solve(m, column(b, j))
        if x is None:
            return None
        cols.append(x)
    out = Matrix.zeros(m.field, m.cols, b.cols)
    for j, x in enumerate(cols):
        for i, v in enumerate(x):
            out.data[i * b.cols + j] = v
    return out


def restrict_full(M, target):
    """Restriction along a same-named full embedding (vertices and arrows of
    the target exist verbatim in M's window), by `reps.restrict`."""
    vmap = {v: v for v in target.quiver.vertices}
    amap = {a.name: QPath(a.src, a.tgt, (a.name,)) for a in target.quiver.arrows}
    return restrict(M, target, vmap, amap)


def solving_kernel_with_inclusion(f):
    """Differential oracle for `reps.kernel_with_inclusion`: a kernel basis
    eliminated at every vertex, zero components included, and each arrow's
    coordinates solved column by column in the basis at its source."""
    M = f.source
    kbases = {v: kernel_basis(f.comps[v])[0] for v in M.support}
    kdims = {v: kb.cols for v, kb in kbases.items()}
    kmaps = {}
    for a in M.support_arrows:
        if kdims[a.src] and kdims[a.tgt]:
            coords = per_column_solve_matrix(kbases[a.src], M.maps[a.name] @ kbases[a.tgt])
            assert coords is not None, "vectors not in span of basis"
            kmaps[a.name] = coords
    K = Rep(M.window, kdims, kmaps, validate=False)
    return K, RepMap(K, M, kbases)


def quotient_projection(fld, sub):
    """(projection, section) presenting the quotient of k^n by the column
    space of sub, from the reduced echelon form of its transpose."""
    n = sub.rows
    _, red, pivots = rref(sub.transpose())
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    proj = Matrix.zeros(fld, len(free), n)
    for fi, j in enumerate(free):
        proj.data[fi * n + j] = fld.one
    for r, pc in enumerate(pivots):
        # class(e_pc) = -sum_{j free} red[r, j] class(e_j)
        for fi, j in enumerate(free):
            c = red.data[r * red.cols + j]
            if c != fld.zero:
                proj.data[fi * n + pc] = -c
    section = Matrix.zeros(fld, n, len(free))
    for fi, j in enumerate(free):
        section.data[j * len(free) + fi] = fld.one
    return proj, section


def eliminating_cokernel_with_projection(f):
    """Differential oracle for `reps.cokernel_with_projection`: the quotient
    projection and section eliminated at every vertex, zero components
    included, and every arrow conjugated by them."""
    N = f.target
    w = N.window
    cprojs, csects = {}, {}
    for v in N.support:
        cprojs[v], csects[v] = quotient_projection(w.field, f.comps[v])
    cmaps = {a.name: cprojs[a.src] @ (N.maps[a.name] @ csects[a.tgt])
             for a in N.support_arrows if cprojs[a.src].rows and cprojs[a.tgt].rows}
    C = Rep(w, {v: p.rows for v, p in cprojs.items()}, cmaps, validate=False)
    return C, RepMap(N, C, cprojs)


def two_step_top_generators(M):
    """Differential oracle for `reps.top_generators`: per vertex, a column
    basis of rad M(v) from one elimination of the out-arrow maps, then the
    unit vectors completing it from a second elimination of [basis | I]."""
    fld = M.field
    outs = {v: [] for v in M.support}
    for a in M.support_arrows:
        outs[a.src].append(M.maps[a.name])
    gens = []
    for v in M.support:
        n = M.dims[v]
        r = column_space_basis(hstack(outs[v])) if outs[v] else Matrix.zeros(fld, n, 0)
        if r.cols == n:
            continue
        _, _, pivots = rref(hstack([r, Matrix.identity(fld, n)]))
        for p in pivots:
            if p >= r.cols:
                j = p - r.cols
                gens.append((v, [fld.one if i == j else fld.zero for i in range(n)]))
    return gens


def cover_kernel_cover_presentation(M):
    """Differential oracle for the projective side of
    `reps.two_term_presentation`: the vertices of the cover and of the cover
    of its kernel, the kernel taken by `solving_kernel_with_inclusion`."""
    P0, cover = projective_cover(M)
    P1, _ = projective_cover(solving_kernel_with_inclusion(cover)[0])
    return P0.cert[1], P1.cert[1]


def composed_resolution(M, length):
    """Differential oracle for `reps._resolve`: the composed loop, which
    builds each syzygy as a whole kernel module (`reps.kernel_with_inclusion`),
    covers it (`reps.projective_cover`, with its certificate), and composes
    the cover with the kernel's inclusion into the previous term."""
    w = M.window
    if M.cert is not None and M.cert[0] == "proj":
        return reps.Complex(w, 0, [M], []), True
    P0, cover = projective_cover(M)
    terms, diffs = [P0], []
    current, prev_incl = kernel_with_inclusion(cover)
    while not current.is_zero() and len(diffs) < length:
        P, cov = projective_cover(current)
        terms.append(P)
        diffs.append(cov.then(prev_incl))  # P -> previous term
        current, prev_incl = kernel_with_inclusion(cov)
    terms.reverse()
    diffs.reverse()
    return reps.Complex(w, -len(diffs), terms, diffs), current.is_zero()


def resolution_entries(cx, ended):
    """What a resolution is compared on: its lowest degree, each term's
    certificate, each differential's stored components, and whether it
    ended."""
    return (cx.min_degree, [t.cert for t in cx.terms],
            [dict(d.comps) for d in cx.diffs], ended)


def hull_cokernel_hull_copresentation(M):
    """Differential oracle for the injective side of
    `reps.two_term_presentation`: the vertices of the injective hull of M and
    of the hull of its cokernel, each hull dualized from a cover over the
    opposite window."""
    I0, emb = injective_hull(M)
    I1, _ = injective_hull(eliminating_cokernel_with_projection(emb)[0])
    return I0.cert[1], I1.cert[1]


def decomposition_standard_summands(M):
    """M split into indecomposable summands by the Fitting decomposition
    (`reps.decompose_with_maps`), each recognized by its own cover: per
    summand its vertex v, its cover P(v) -> summand (an isomorphism), and the
    summand's inclusion into and projection from M.  Raises NotRepresentable
    when a summand is not a standard projective."""
    out = []
    for part, incl, proj in decompose_with_maps(M):
        P, cover = projective_cover(part)
        if len(P.cert[1]) != 1 or not kernel_with_inclusion(cover)[0].is_zero():
            raise NotRepresentable(NOT_STANDARD)
        out.append((P.cert[1][0], cover, incl, proj))
    return out


def a3_block_map():
    """P(1) + P(2) -> P(2) + P(3) over 1 -a-> 2 -b-> 3, with blocks a, id,
    b.a and b: its kernel is P(1), included as (-id, a)."""
    w = Window(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]))
    one = [w.field.one]
    return serre.realize_proj(VarietyMor(w, ("1", "2"), ("2", "3"), [[one, one], [one, one]]))


def cover_of_whole_kernel_as_projectives(f):
    """Differential oracle for `reps.kernel_as_projectives`: the kernel
    built on all of source(f)'s support (`kernel_with_inclusion`), its
    projective cover, NotRepresentable unless the cover's kernel is zero,
    and the cover's values sent through the inclusion into source(f)."""
    verts, vals = (), []
    if any(kb.cols for kb in f.kernel_bases[0].values()):
        K, incl = kernel_with_inclusion(f)
        P, cover = projective_cover(K)
        if any(kb.cols for kb in cover.kernel_bases[0].values()):
            raise NotRepresentable(NOT_STANDARD)
        verts = P.cert[1]
        vals = [incl.comps[v].apply(val) for v, val in zip(verts, _yoneda_read(cover))]
    return verts, split_proj_values(f.source.window, verts, f.source.cert[1], vals)


def decomposition_kernel_as_projectives(f):
    """Differential oracle for `reps.kernel_as_projectives`: the kernel
    recognized summand by summand (`decomposition_standard_summands`), in
    the Fitting order; block v's value is the summand cover's value at the
    identity of v, sent through the summand's inclusion into the kernel and
    the kernel's into source(f)."""
    kernel, ker_incl = kernel_with_inclusion(f)
    summands = decomposition_standard_summands(kernel)
    verts = tuple(v for v, _, _, _ in summands)
    vals = [ker_incl.comps[v].apply(incl.comps[v].apply(_yoneda_read(cover)[0]))
            for v, cover, incl, _ in summands]
    return verts, split_proj_values(f.source.window, verts, f.source.cert[1], vals)


def factorization_supp_adjoint(w, A, Y):
    """Differential oracle for `threads.supp_adjoint`: the image of
    P(A) -> P(Y) ⊗ hom(A, Y)^* from `reps.map_factor`, recognized as a sum of
    standard projectives by `decomposition_standard_summands`; the unit's
    value at the identity of A is the map's value there, read in the image
    and pulled back through each summand's cover."""
    d = w.hom_dim(A, Y)
    if d == 0:
        return (), VarietyMor.zero(w, (A,), ())
    fld = w.field
    entries = [[[fld.one if k == i else fld.zero for k in range(d)]] for i in range(d)]
    g = serre.realize_proj(VarietyMor(w, (A,), (Y,) * d, entries))
    fac = map_factor(g)
    value_at_id = _yoneda_read(g)[0]
    image_id = solve(fac.im_incl.comps[A], value_at_id)
    assert image_id is not None, "the value is not in the image"
    verts, value = [], []
    for v, cover, _, proj in decomposition_standard_summands(fac.image):
        verts.append(v)
        value += solve(cover.comps[A], proj.comps[A].apply(image_id))
    verts = tuple(verts)
    return verts, VarietyMor(w, (A,), verts, split_proj_values(w, (A,), verts, [value]))


def unit_composing_interval_adjoint(w, X, Y, A, side):
    """Differential oracle for `threads.interval_adjoint`: the support step
    by `factorization_supp_adjoint`, one perpendicular step
    (`threads.perp_adjoint`) per vertex of its image, and the two units
    composed entry by entry with `compose_coords`."""
    if w.hom_dim(X, A) != 0 and w.hom_dim(A, Y) != 0:
        return (A,), VarietyMor.identity(w, A)
    if side == threads.RIGHT:
        verts, op_mor = unit_composing_interval_adjoint(w.opposite(), Y, X, A, threads.LEFT)
        return verts, serre.transport_to_opposite(op_mor)
    averts, unit1 = factorization_supp_adjoint(w, A, Y)
    if not averts:
        return (), VarietyMor.zero(w, (A,), ())
    zmods = [std_module(w, z, PROJECTIVE) for z in threads._interval_kernel_object(w, X, Y)]
    zero = w.field.zero
    out_verts, entries = [], []
    for mid, row1 in zip(averts, unit1.entries):
        pverts, unit2 = threads.perp_adjoint(w, mid, zmods, threads.LEFT)
        for pv, row2 in zip(pverts, unit2.entries):
            if w.hom_dim(pv, Y) == 0:
                continue
            f, g = row1[0], row2[0]
            coords = None if f is None or g is None else compose_coords(w, A, mid, pv, f, g)
            out_verts.append(pv)
            entries.append([coords if coords and any(c != zero for c in coords) else None])
    for v in out_verts:
        if w.hom_dim(X, v) == 0 or w.hom_dim(v, Y) == 0:
            raise NotRepresentable(f"adjoint image {v} fell outside [{X}, {Y}]")
    out_verts = tuple(out_verts)
    return out_verts, VarietyMor(w, (A,), out_verts, entries)


def non_hereditary_simples(w):
    """The vertices u whose simple S(u) has projective dimension above 1:
    the window's category is hereditary when there are none."""
    out = []
    for u in w.quiver.vertices:
        try:
            proj_dim(std_module(w, u, SIMPLE), 1)
        except ExceedsBound:
            out.append(u)
    return out


def non_free_pairs(w):
    """The pairs (x, y) where dim hom(x, y) differs from the number of
    Gabriel paths x -> y, an arrow u -> v counted irr(u, v) times: the
    window's category is the free category on its Gabriel quiver when there
    are none."""
    # counts[y][x] is the number of Gabriel paths x -> y; targets are taken
    # in topological order, since a Gabriel arrow u -> v needs hom(u, v) != 0
    ins, _ = gabriel_neighbours(w)
    counts = {}
    for y in w.quiver.topological_order():
        counts[y] = Counter({y: 1})
        for u in ins[y]:
            counts[y].update(counts[u])
    V = w.quiver.vertices
    return [(x, y) for x in V for y in V if w.hom_dim(x, y) != counts[y][x]]
