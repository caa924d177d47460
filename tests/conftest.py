"""Shared fixture quivers used across the test suite.

These are the concrete instances the structural checks are exercised on:
small path categories, thread quivers with empty/finite/Z labels, the
mixed five-vertex thread quiver, the zig-zag category with radical-square
zero, and its linearly oriented cousin.
"""

import random
from pathlib import Path

from hypothesis import strategies as st

from threadquiver.dsl import parse_tq
from threadquiver.linalg import QQ, Matrix, rank, rref
from threadquiver.orders import INT, NAT, NEG_NAT, Fin
from threadquiver.quiver import Path as QPath
from threadquiver.quiver import Quiver, Relation
from threadquiver.reps import RepMap, hom_basis, hom_coords, map_factor, proj_sum
from threadquiver.windows import ThreadQuiver, expand, window_from_quiver

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def tq_a2():
    return ThreadQuiver(["a", "b"], [("f", "a", "b")], [])


def tq_comm_square():
    tq = ThreadQuiver(
        ["p", "q", "r", "s"],
        [("a", "p", "q"), ("b", "q", "s"), ("c", "p", "r"), ("d", "r", "s")],
        [],
    )
    q = Quiver(tq.vertices, tq.standard_arrows)
    rel = Relation(((1, q.path(("a", "b"))), (-1, q.path(("c", "d")))))
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
            rels.append(Relation(((1, q.path((a.name, b.name))),)))
    return window_from_quiver(q, rels, field=field, name="zigzag")


def ainf_rad2_window(n=10, field=QQ):
    """Linearly oriented A_n with all length-2 compositions zero (a finite
    window of the linearly oriented doubly infinite quiver)."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    arrows = [(f"a{i}", f"v{i}", f"v{i+1}") for i in range(1, n)]
    q = Quiver(vertices, arrows)
    rels = [
        Relation(((1, q.path((f"a{i}", f"a{i+1}"))),)) for i in range(1, n - 1)
    ]
    return window_from_quiver(q, rels, field=field, name=f"ainf-rad2-{n}")


def star_tail_window(n=6, field=QQ):
    """One vertex with arrows to every vertex of a chain whose tail is marked
    as a truncation artifact (the shape left by removing a thread interval
    in front of an accumulating family)."""
    vertices = ["X"] + [f"c{i}" for i in range(1, n + 1)] + ["Y"]
    arrows = [("xy", "X", "Y")]
    arrows += [(f"x{i}", "X", f"c{i}") for i in range(1, n + 1)]
    arrows += [(f"c{i}", f"c{i}", f"c{i+1}") for i in range(1, n)]
    q = Quiver(vertices, arrows)
    return window_from_quiver(q, [], boundary={f"c{n}"}, field=field, name="star-tail")


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
        Relation(((1, q.path((f"h{i}_{j}", f"d{i}_{j + 1}"))),
                  (-1, q.path((f"d{i}_{j}", f"h{i + 1}_{j}")))))
        for i in range(n) for j in range(n)
    ]
    return window_from_quiver(q, rels, field=field, name=f"grid{n}")


def fixture_windows(depths):
    """(label, window) for every fixture file expanded at each depth."""
    out = []
    for path in sorted(FIXTURES.glob("*.tq")):
        tq = parse_tq(path.read_text())
        for d in depths:
            out.append((f"{path.stem}@{d}", expand(tq, d)))
    return out


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


def basis_route_hom_data(CX, CY):
    """Differential oracle for `serre.total_hom_data`: the total hom complex
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
                    terms = [(c, p.then(q)) for c, q in zip(cell[2], hb.basis) if c != fld.zero]
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


def enumerate_paths(q, x, y, max_len):
    """All paths x -> y of length <= max_len, sorted by (length, arrow names)."""
    assert x in q.vertex_set and y in q.vertex_set
    out = []
    if y not in q.reachable_from(x):
        return out

    def walk(v, acc):
        if v == y:
            out.append(QPath(x, y, tuple(acc)))
        if len(acc) == max_len:
            return
        for a in q.out_arrows[v]:
            if y in q.reachable_from(a.tgt):
                acc.append(a.name)
                walk(a.tgt, acc)
                acc.pop()

    walk(x, [])
    out.sort(key=QPath.sort_key)
    return out


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
