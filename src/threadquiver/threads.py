"""Structure theory of the window category itself.

Radical and irreducible-map dimensions, the Gabriel quiver, almost split
neighbors, thread detection and extraction back to a thread quiver, and the
explicit adjoints of reflective subcategory embeddings (perpendicular,
support, and interval), all verified instance-wise through hom dimensions.
"""

from __future__ import annotations

from .errors import BoundaryContaminated, NotRepresentable, ZNotExtOrthogonal
from .linalg import Matrix, rank, solve
from .orders import Fin
from .quiver import Arrow, Path, Quiver
from .report import Report
from .reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Rep,
    RepMap,
    _standard_summands,
    _sum_object,
    _yoneda_read,
    _yoneda_write,
    dualize,
    ext_dim,
    kernel_as_projectives,
    map_factor,
    proj_sum,
    std_module,
    two_term_presentation,
)
from .serre import VarietyMor, transport_to_opposite, variety_mor_from_proj_map
from .windows import ThreadQuiver, Window

LEFT = "left"
RIGHT = "right"


def rad_irr_dims(w: Window, x: str, y: str) -> tuple[int, int, int]:
    """(dim rad, dim rad^2, dim irr) between two vertices of an acyclic window.

    Between distinct vertices of an acyclic window every morphism is radical.
    A path of length >= 2 is an arrow a: x -> z followed by a path z -> y with
    z != y, so rad^2 is spanned by the classes of a . q over those arrows and
    the basis q of hom(z, y); this holds whatever the relations.  Without an
    arrow x -> y every path has length >= 2, so irr(x, y) = 0.
    """
    if x == y:
        return 0, 0, 0
    hxy = w.hom(x, y)
    radd = hxy.dim
    if radd == 0:
        return 0, 0, 0
    vectors = []
    for a in w.quiver.out_arrows[x]:
        if a.tgt == y:
            continue
        for q in w.hom(a.tgt, y).basis:
            vectors.append(hxy.expand_path(Path(x, y, (a.name,) + q.arrows)))
    if not vectors:
        return radd, 0, radd
    m = Matrix(w.field, len(vectors), hxy.dim, [c for vec in vectors for c in vec])
    rad2 = rank(m)
    return radd, rad2, radd - rad2


def _arrow_pairs(w: Window) -> list[tuple[str, str]]:
    """Distinct (src, tgt) pairs of the window's arrows: the only vertex pairs
    whose irreducible maps can be nonzero."""
    return list(dict.fromkeys((a.src, a.tgt) for a in w.quiver.arrows))


def gabriel_quiver(w: Window) -> Quiver:
    """Vertices of the window with irr(x, y) arrows x -> y."""
    arrows = []
    for x, y in _arrow_pairs(w):
        _, _, irr = rad_irr_dims(w, x, y)
        for i in range(irr):
            arrows.append(Arrow(f"{x}->{y}#{i}", x, y))
    return Quiver(list(w.quiver.vertices), arrows)


def almost_split(w: Window, v: str, side: str) -> tuple[str, ...]:
    """The sum N in the (left/right) almost split map at v: the second term
    of the minimal presentation (resp. copresentation) of the simple at v."""
    if v in w.boundary:
        raise BoundaryContaminated(f"{v} is a truncation artifact")
    if side not in (LEFT, RIGHT):
        raise ValueError(f"unknown side {side!r}")
    S = std_module(w, v, SIMPLE)
    _, second = two_term_presentation(S, PROJECTIVE if side == LEFT else INJECTIVE)
    return second.cert[1]


def _degree_maps(w: Window, use_irr: bool) -> tuple[dict, dict]:
    """(in-neighbors, out-neighbors) with multiplicity, by irr dims or raw arrows."""
    ins: dict[str, list[str]] = {v: [] for v in w.quiver.vertices}
    outs: dict[str, list[str]] = {v: [] for v in w.quiver.vertices}
    if use_irr:
        for x, y in _arrow_pairs(w):
            _, _, irr = rad_irr_dims(w, x, y)
            outs[x].extend([y] * irr)
            ins[y].extend([x] * irr)
    else:
        for a in w.quiver.arrows:
            outs[a.src].append(a.tgt)
            ins[a.tgt].append(a.src)
    return ins, outs


def _maximal_runs(w: Window, is_thread, ins, outs) -> list[list[str]]:
    runs = []
    seen = set()
    for v in w.topological_order():
        if v in seen or not is_thread(v):
            continue
        # only start at run heads: predecessor absent or not a thread vertex
        pred = ins[v][0] if ins[v] else None
        if pred is not None and is_thread(pred) and outs[pred] == [v]:
            continue
        run = [v]
        seen.add(v)
        while True:
            nxt = outs[run[-1]][0] if outs[run[-1]] else None
            if nxt is None or not is_thread(nxt) or ins[nxt] != [run[-1]]:
                break
            run.append(nxt)
            seen.add(nxt)
        runs.append(run)
    return runs


def thread_runs(w: Window) -> list[list[str]]:
    """Maximal runs of thread vertices, in order.

    A thread vertex is interior with a unique direct predecessor and a unique
    direct successor, counted by irreducible maps; every thread vertex lies on
    exactly one run.
    """
    ins, outs = _degree_maps(w, use_irr=True)
    tv = {
        v for v in w.interior_vertices() if len(ins[v]) == 1 and len(outs[v]) == 1
    }
    return _maximal_runs(w, lambda v: v in tv, ins, outs)


def thread_summary(runs: list[list[str]]) -> tuple[set[str], list[tuple[str, str]]]:
    """Thread vertices (the union of the runs) and the maximal threads as
    (first, last) intervals."""
    return {v for run in runs for v in run}, [(run[0], run[-1]) for run in runs]


def thread_analysis(w: Window) -> tuple[set[str], list[tuple[str, str]]]:
    """Thread vertices and maximal threads of the window, read off `thread_runs`."""
    return thread_summary(thread_runs(w))


def thread_hom_check(w: Window, runs: list[list[str]] | None = None) -> Report:
    """Along every maximal thread, hom between comparable vertices is one
    dimensional; thread intervals sharing an endpoint are nested.

    `runs` are the window's `thread_runs`, when the caller already has them.
    """
    report = Report("thread-hom-check")
    if runs is None:
        runs = thread_runs(w)
    for run in runs:
        for i in range(len(run)):
            for j in range(i, len(run)):
                report.tally()
                d = w.hom_dim(run[i], run[j])
                if d != 1:
                    report.fail(f"hom({run[i]}, {run[j]})", 1, d)
    # nesting: intervals sharing a left endpoint are totally ordered by
    # containment (within a run this is positional)
    for run in runs:
        intervals = [(0, j) for j in range(len(run))]
        for a in intervals:
            for b in intervals:
                report.tally()
                nested = a[1] <= b[1] or b[1] <= a[1]
                if not nested:
                    report.fail(f"nesting in {run[0]}..{run[-1]}", "nested", "crossing")
    return report


def extract_threadquiver(w: Window, min_len: int) -> ThreadQuiver:
    """Contract every sufficiently long chain run to a thread arrow.

    Runs are maximal chains of vertices with a unique in-arrow and a unique
    out-arrow (truncation marks are ignored here: a cut chain keeps its run);
    a run of length >= min_len between endpoints X, Y becomes a thread arrow
    X ..> Y labeled by the finite order of its length.
    """
    assert not w.relations, "extraction expects a relation-free window"
    ins, outs = _degree_maps(w, use_irr=False)
    chainlike = {
        v for v in w.quiver.vertices if len(ins[v]) == 1 and len(outs[v]) == 1
    }
    runs = [
        run
        for run in _maximal_runs(w, lambda v: v in chainlike, ins, outs)
        if len(run) >= min_len
    ]
    consumed = set()
    for run in runs:
        consumed.update(run)
    vertices = [v for v in w.quiver.vertices if v not in consumed]
    standard = [
        a
        for a in w.quiver.arrows
        if a.src not in consumed and a.tgt not in consumed
    ]
    threads = []
    for k, run in enumerate(runs):
        x = ins[run[0]][0]
        y = outs[run[-1]][0]
        assert x not in consumed and y not in consumed, "run endpoints missing"
        threads.append((f"th{k}", x, y, Fin(len(run))))
    return ThreadQuiver(vertices, standard, threads)


# -- explicit adjoints -------------------------------------------------------------


def _evaluation(w: Window, A: str, Zs: list[Rep]) -> RepMap | None:
    """The canonical evaluation P(A) -> ⊕_Z Z ⊗ Z(A)^*, or None when every
    Z(A) is zero.  By Yoneda it is the map whose value at the identity of A
    is, in the copy of Z for each unit vector of Z(A), that unit vector."""
    f = w.field
    copies = [(Z, j) for Z in Zs for j in range(Z.dims[A])]
    if not copies:
        return None
    generator = [f.one if i == j else f.zero for Z, j in copies for i in range(Z.dims[A])]
    return _yoneda_write(std_module(w, A, PROJECTIVE), _sum_object([Z for Z, _ in copies]),
                         [generator])


def perp_adjoint(w: Window, A: str, Zs: list[Rep], side: str,
                 max_len: int = 8) -> tuple[tuple[str, ...], VarietyMor]:
    """Image of A under the adjoint of the perpendicular-subcategory embedding.

    Right adjoint: the kernel of the evaluation P(A) -> ⊕_Z Z ⊗ Z(A)^*,
    recognized as a sum of standard projectives.  Left adjoint: the dual
    construction over the opposite window.  Requires the Z family to be
    Ext^1-orthogonal (raises ZNotExtOrthogonal otherwise).
    """
    for Z1 in Zs:
        for Z2 in Zs:
            if ext_dim(1, Z1, Z2, max_len) != 0:
                raise ZNotExtOrthogonal("the removed family is not Ext-orthogonal")
    if side == LEFT:
        verts, op_mor = perp_adjoint(w.opposite(), A, [dualize(Z) for Z in Zs], RIGHT,
                                     max_len)
        return verts, transport_to_opposite(op_mor)
    assert side == RIGHT
    e = _evaluation(w, A, Zs)
    if e is None:
        return (A,), VarietyMor.identity(w, A)
    verts, incl = kernel_as_projectives(e)
    return verts, variety_mor_from_proj_map(incl)


def supp_adjoint(w: Window, A: str, Y: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Left adjoint image of A for the embedding of supp hom(-, Y).

    The image of the canonical P(A) -> P(Y) ⊗ hom(A, Y)^* must be a sum of
    standard projectives (heredity); the unit is the corestriction of A onto it.
    """
    d = w.hom_dim(A, Y)
    if d == 0:
        return (), VarietyMor.zero(w, (A,), ())
    entries = []
    for i in range(d):
        coords = [w.field.one if k == i else w.field.zero for k in range(d)]
        entries.append([coords])
    vm = VarietyMor(w, (A,), tuple([Y] * d), entries)
    from .serre import realize_proj

    f = realize_proj(vm)
    fac = map_factor(f)
    if fac.image.is_zero():
        return (), VarietyMor.zero(w, (A,), ())
    # the unit's value at the identity of A: its image in each summand,
    # pulled back through the summand's cover P(v) -> summand (an isomorphism)
    image_id = _yoneda_read(fac.im_epi)[0]
    verts, value = [], []
    for v, cover, _, proj in _standard_summands(fac.image):
        verts.append(v)
        value += solve(cover.comps[A], proj.comps[A].apply(image_id))
    unit = _yoneda_write(f.source, proj_sum(w, verts), [value])
    return tuple(verts), variety_mor_from_proj_map(unit)


def _interval_kernel_object(w: Window, X: str, Y: str) -> tuple[str, ...]:
    """The representing object of ker(P(Y) -> I(X) ⊗ hom(X, Y)) from the
    interval-adjoint construction (I(X)(Y) is hom(X, Y)^*)."""
    e = _evaluation(w, Y, [std_module(w, X, INJECTIVE)])
    if e is None:
        return (Y,)
    verts, _ = kernel_as_projectives(e)
    return verts


def interval_adjoint(w: Window, X: str, Y: str, A: str, side: str,
                     max_len: int = 8) -> tuple[tuple[str, ...], VarietyMor]:
    """Adjoint image of A for the interval embedding [X, Y] -> window.

    An A already in [X, Y] (hom(X, A) != 0 != hom(A, Y)) is its own image,
    with the identity as unit.  Otherwise, left adjoint: corestrict onto
    supp hom(-, Y), then pass to the perpendicular of the kernel object of
    P(Y) -> I(X) ⊗ hom(X, Y).  Right adjoint: the dual construction over the
    opposite window.
    """
    if w.hom_dim(X, A) != 0 and w.hom_dim(A, Y) != 0:
        return (A,), VarietyMor.identity(w, A)
    if side == RIGHT:
        verts, op_mor = interval_adjoint(w.opposite(), Y, X, A, LEFT, max_len)
        return verts, transport_to_opposite(op_mor)
    assert side == LEFT
    averts, unit1 = supp_adjoint(w, A, Y)
    if not averts:
        return (), VarietyMor.zero(w, (A,), ())
    zverts = _interval_kernel_object(w, X, Y)
    zmods = [std_module(w, z, PROJECTIVE) for z in zverts]
    out_verts: list[str] = []
    blocks: list[tuple[tuple[str, ...], VarietyMor]] = []
    for a1 in averts:
        pverts, unit2 = perp_adjoint(w, a1, zmods, LEFT, max_len)
        # the perpendicular step belongs inside supp hom(-, Y); components the
        # full window adds outside that support have no homs into [X, Y]
        # (composition of nonzero paths is nonzero here) and are discarded
        keep = [i for i, v in enumerate(pverts) if w.hom_dim(v, Y) > 0]
        pverts = tuple(pverts[i] for i in keep)
        unit2 = VarietyMor(
            w, unit2.source, pverts, [unit2.entries[i] for i in keep])
        blocks.append((pverts, unit2))
        out_verts.extend(pverts)
    # compose the units: A -> ⊕ a1 -> ⊕ (perp images)
    unit = _vm_block_compose(w, unit1, blocks, tuple(out_verts))
    for v in out_verts:
        if w.hom_dim(X, v) == 0 or w.hom_dim(v, Y) == 0:
            raise NotRepresentable(f"adjoint image {v} fell outside [{X}, {Y}]")
    return tuple(out_verts), unit


def _vm_compose_entry(w: Window, x: str, y: str, z: str, f, g):
    if f is None or g is None:
        return None
    coords = w.compose_coords(x, y, z, f, g)
    if all(c == w.field.zero for c in coords):
        return None
    return coords


def _vm_block_compose(w: Window, first: VarietyMor,
                      blocks: list[tuple[tuple[str, ...], VarietyMor]],
                      out_verts: tuple[str, ...]) -> VarietyMor:
    """Compose A -> ⊕ mid with the block-diagonal of mid_i -> ⊕ out_i."""
    assert len(first.source) == 1
    A = first.source[0]
    entries = []
    for mid_i, (pverts, unit2) in enumerate(blocks):
        mid_vertex = first.target[mid_i]
        for i_local, pv in enumerate(pverts):
            f = first.entries[mid_i][0]
            g = unit2.entries[i_local][0]
            entries.append([_vm_compose_entry(w, A, mid_vertex, pv, f, g)])
    return VarietyMor(w, (A,), out_verts, entries)


def adjunction_check(
    w: Window,
    sub_vertices: list[str],
    assignment: dict[str, tuple[str, ...]],
    side: str,
    probes: list[str] | None = None,
    sub_hom=None,
) -> Report:
    """Instance-wise adjunction identities for an embedding with a declared
    adjoint assignment v -> formal sum.

    Left: dim hom(i_L v, b) = dim hom(v, b); right: mirrored.  When the
    subcategory's own hom dimensions are supplied (the embedding need not be
    full), fully-faithfulness dim hom(i a, i b) = dim hom_sub(a, b) is checked.
    """
    report = Report("adjunction-check")
    probes = probes if probes is not None else list(w.quiver.vertices)
    for v in probes:
        fs = assignment[v]
        for b in sub_vertices:
            report.tally()
            if side == LEFT:
                lhs = sum(w.hom_dim(u, b) for u in fs)
                rhs = w.hom_dim(v, b)
            else:
                lhs = sum(w.hom_dim(b, u) for u in fs)
                rhs = w.hom_dim(b, v)
            if lhs != rhs:
                report.fail(
                    f"adjunction at ({v}, {b})", rhs, lhs,
                    location=f"side={side}")
    if sub_hom is not None:
        for a in sub_vertices:
            for b in sub_vertices:
                report.tally()
                expected = sub_hom(a, b)
                actual = w.hom_dim(a, b)
                if expected != actual:
                    report.fail(f"fully-faithful at ({a}, {b})", expected, actual)
    return report
