"""Structure theory of the window category itself.

The Gabriel quiver (its irreducible-map dimensions are
`windows.rad_irr_dims`), thread detection and extraction back to a thread
quiver, and the explicit adjoints of reflective subcategory embeddings
(perpendicular, support, and interval), all verified instance-wise through
hom dimensions.  The support adjoint of A is A or nothing (a projective
quotient of P(A) is P(A)), so the interval adjoint's unit is the
perpendicular step's, restricted to supp hom(-, Y).  A
perpendicular category asks only Ext^0 and Ext^1 to vanish, so the
orthogonality of a removed family is read off the first three terms of
each member's minimal projective resolution, with no length bound; the
interval adjoint removes standard projectives, which need no test.  An
adjoint's unit is a `reps.VarietyMor`: the right perpendicular adjoint's is
the inclusion `reps.kernel_as_projectives` returns, and each left or
opposite side reads the right one's through `reps.transport_to_opposite`.
"""

from __future__ import annotations

from .errors import (
    NotRepresentable,
    ThreadQuiverError,
    ZNotExtOrthogonal,
)
from .orders import Fin
from .quiver import Arrow, Quiver
from .report import Report
from .reps import (
    INJECTIVE,
    NOT_STANDARD,
    PROJECTIVE,
    Rep,
    RepMap,
    VarietyMor,
    _resolve,
    _sum_object,
    _yoneda_write,
    dualize,
    kernel_as_projectives,
    one_term_complex,
    std_module,
    total_hom_dims,
    transport_to_opposite,
)
from .windows import ThreadQuiver, Window, arrow_pairs, gabriel_neighbours, rad_irr_dims

LEFT = "left"
RIGHT = "right"


def gabriel_quiver(w: Window) -> Quiver:
    """Vertices of the window with irr(x, y) arrows x -> y."""
    arrows = []
    for x, y in arrow_pairs(w):
        _, _, irr = rad_irr_dims(w, x, y)
        for i in range(irr):
            arrows.append(Arrow(f"{x}->{y}#{i}", x, y))
    return Quiver(list(w.quiver.vertices), arrows)


def _maximal_runs(w: Window, links: dict[str, tuple[str, str]]) -> list[list[str]]:
    """Maximal chains of the vertices in `links`, each of which maps to its
    unique (predecessor, successor), in topological order of their heads.
    A vertex whose predecessor is in `links` is that predecessor's unique
    successor, so it continues the predecessor's run."""
    runs = []
    for v in w.quiver.topological_order():
        if v not in links or links[v][0] in links:
            continue
        run = [v]
        while links[run[-1]][1] in links:
            run.append(links[run[-1]][1])
        runs.append(run)
    return runs


def thread_runs(w: Window) -> list[list[str]]:
    """Maximal runs of thread vertices, in order.

    A thread vertex is interior with a unique direct predecessor and a unique
    direct successor, counted by irreducible maps; every thread vertex lies on
    exactly one run.
    """
    ins, outs = gabriel_neighbours(w)
    return _maximal_runs(w, {
        v: (ins[v][0], outs[v][0])
        for v in w.interior_vertices() if len(ins[v]) == 1 and len(outs[v]) == 1
    })


def thread_summary(runs: list[list[str]]) -> tuple[set[str], list[tuple[str, str]]]:
    """Thread vertices (the union of the runs) and the maximal threads as
    (first, last) intervals."""
    return {v for run in runs for v in run}, [(run[0], run[-1]) for run in runs]


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
    X ..> Y labeled by the finite order of its length.  A window with
    relations raises ThreadQuiverError.
    """
    if w.relations:
        raise ThreadQuiverError("extraction expects a relation-free window")
    q = w.quiver
    chainlike = {
        v: (q.in_arrows[v][0].src, q.out_arrows[v][0].tgt)
        for v in q.vertices if len(q.in_arrows[v]) == 1 and len(q.out_arrows[v]) == 1
    }
    runs = [run for run in _maximal_runs(w, chainlike) if len(run) >= min_len]
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
        x = chainlike[run[0]][0]
        y = chainlike[run[-1]][1]
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


def _assert_ext_orthogonal(Zs: list[Rep]) -> None:
    """Raise ZNotExtOrthogonal unless Ext^1(Z1, Z2) = 0 over every ordered
    pair of nonzero members of the family.  Ext^1(Z1, Z2) is H^1 of
    Hom(P2 -> P1 -> P0, Z2), so only the first three terms of each Z1's
    minimal projective resolution are built, once per member."""
    nonzero = [Z for Z in Zs if not Z.is_zero()]
    for Z1 in nonzero:
        head, _ = _resolve(Z1, 2)
        for Z2 in nonzero:
            if total_hom_dims(head, one_term_complex(Z2)).get(1, 0) != 0:
                raise ZNotExtOrthogonal("the removed family is not Ext-orthogonal")


def _right_perp(w: Window, A: str, Zs: list[Rep]) -> tuple[tuple[str, ...], VarietyMor]:
    """The right adjoint's image of A, for a family already known to be
    Ext^1-orthogonal."""
    e = _evaluation(w, A, Zs)
    if e is None:
        return (A,), VarietyMor.identity(w, A)
    incl = kernel_as_projectives(e)
    return incl.source, incl


def _left_perp(w: Window, A: str, Zs: list[Rep]) -> tuple[tuple[str, ...], VarietyMor]:
    """The left adjoint's image of A: the right adjoint's over the opposite
    window for the dual family, transported back."""
    verts, op_mor = _right_perp(w.opposite(), A, [dualize(Z) for Z in Zs])
    return verts, transport_to_opposite(op_mor)


def perp_adjoint(w: Window, A: str, Zs: list[Rep],
                 side: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Image of A under the adjoint of the perpendicular-subcategory embedding.

    Right adjoint: the kernel of the evaluation P(A) -> ⊕_Z Z ⊗ Z(A)^*,
    recognized as a sum of standard projectives.  Left adjoint: the dual
    construction over the opposite window.  Requires the Z family to be
    Ext^1-orthogonal (raises ZNotExtOrthogonal otherwise), tested once over
    the window on either side.
    """
    _assert_ext_orthogonal(Zs)
    if side == LEFT:
        return _left_perp(w, A, Zs)
    assert side == RIGHT
    return _right_perp(w, A, Zs)


def supp_adjoint(w: Window, A: str, Y: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Left adjoint image of A for the embedding of supp hom(-, Y).

    The image of the canonical P(A) -> P(Y) ⊗ hom(A, Y)^* (the evaluation
    into P(Y), `_evaluation`) must be a sum of standard projectives
    (heredity).  As a quotient of P(A) it is one only when it is P(A): A,
    with the identity as unit, when the map is injective, and
    NotRepresentable otherwise.
    """
    e = _evaluation(w, A, [std_module(w, Y, PROJECTIVE)])
    if e is None:
        return (), VarietyMor.zero(w, (A,), ())
    if any(kb.cols for kb in e.kernel_bases[0].values()):
        raise NotRepresentable(NOT_STANDARD)
    return (A,), VarietyMor.identity(w, A)


def _interval_kernel_object(w: Window, X: str, Y: str) -> tuple[str, ...]:
    """The representing object of ker(P(Y) -> I(X) ⊗ hom(X, Y)) from the
    interval-adjoint construction (I(X)(Y) is hom(X, Y)^*)."""
    e = _evaluation(w, Y, [std_module(w, X, INJECTIVE)])
    if e is None:
        return (Y,)
    return kernel_as_projectives(e).source


def interval_adjoint(w: Window, X: str, Y: str, A: str,
                     side: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Adjoint image of A for the interval embedding [X, Y] -> window.

    An A already in [X, Y] (hom(X, A) != 0 != hom(A, Y)) is its own image,
    with the identity as unit.  Otherwise, left adjoint: corestrict onto
    supp hom(-, Y), then pass to the perpendicular of the kernel object of
    P(Y) -> I(X) ⊗ hom(X, Y); the first step gives A or nothing, so the
    unit is the second step's, restricted to supp hom(-, Y).  That family
    is standard projectives, and Ext^1(P, -) = 0, so no orthogonality test
    runs.  Right adjoint: the dual construction over the opposite window.
    """
    if w.hom_dim(X, A) != 0 and w.hom_dim(A, Y) != 0:
        return (A,), VarietyMor.identity(w, A)
    if side == RIGHT:
        verts, op_mor = interval_adjoint(w.opposite(), Y, X, A, LEFT)
        return verts, transport_to_opposite(op_mor)
    assert side == LEFT
    if not supp_adjoint(w, A, Y)[0]:
        return (), VarietyMor.zero(w, (A,), ())
    zmods = [std_module(w, z, PROJECTIVE) for z in _interval_kernel_object(w, X, Y)]
    pverts, unit = _left_perp(w, A, zmods)
    # the perpendicular step belongs inside supp hom(-, Y); components the
    # full window adds outside that support have no homs into [X, Y]
    # (composition of nonzero paths is nonzero here) and are discarded
    keep = [i for i, v in enumerate(pverts) if w.hom_dim(v, Y) > 0]
    out_verts = tuple(pverts[i] for i in keep)
    for v in out_verts:
        if w.hom_dim(X, v) == 0:
            raise NotRepresentable(f"adjoint image {v} fell outside [{X}, {Y}]")
    return out_verts, VarietyMor(w, (A,), out_verts, [unit.entries[i] for i in keep])


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
