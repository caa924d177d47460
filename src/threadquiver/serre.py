"""Dualizing-variety and Serre-duality checks on finite windows.

Morphisms of the variety itself are `reps.VarietyMor`s: matrices of
hom-space elements between formal direct sums of vertices, in the one
coordinate form that `reps` reads (`RepMap.proj_coords`), writes
(`realize_proj`) and reads in the opposite window
(`transport_to_opposite`).  Pseudokernels are computed by recognizing the
kernel of the induced map of projective modules as a sum of standard
projectives: `reps.kernel_as_projectives` covers it by one certified
resolution step, whose own kernel must be zero, and returns the step's
differential, the inclusion, as the pseudokernel's morphism.
Pseudocokernels are pseudokernels in the opposite window.  The Serre
functor is realized on bounded complexes of standard projectives by the
Nakayama transport P(v) -> I(v): each differential's coordinates are
realized between injective sums (`realize_inj`) as the dual of the
projective realization over the opposite window.  The duality is verified at
dimension level: dim RHom^n(X, Y) = dim RHom^{-n}(Y, SX), both sides read
off total hom complexes (`reps.total_hom_dims`).  The right-hand side reads
the realized Nakayama complex (its injective sums and transported maps), so
the check compares two different computations rather than a matrix with its
transpose.  A side zero by support (the vertices of a resolution's terms
miss the other module's support) is never built: the probe pairs to visit
are read off two vertex indexes built once per check, not tested pair by
pair.  It compares these dimension identities only.  The composition
law of the realization, N(b·a) = N(b)·N(a), holds on every window when
`realize_inj` is right: it is a property of the code, not of the
window, and a test checks it
(`tests/test_serre.py::test_nakayama_realization_composes`).

The evidence that every probe has finite injective dimension is read off the
minimal projective resolutions of the window's simples, computed once per
check and cut after degree max_len + 2: in a minimal injective resolution of
X, I(u) occurs in degree i dim Ext^i(S(u), X) times, so id X <= n exactly
when Ext^{n+1}(S(u), X) = 0 for every simple S(u).  No probe is resolved
injectively, whatever the window's global dimension.
"""

from __future__ import annotations

from collections import Counter

from .errors import NotProjectiveCertified, NotRepresentable
from .report import Report
from .reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    Rep,
    RepMap,
    VarietyMor,
    _resolve,
    inj_sum,
    kernel_as_projectives,
    one_term_complex,
    realize_proj,
    std_module,
    total_hom_dims,
    transport_to_opposite,
    two_term_presentation,
)
from .windows import Window, gabriel_neighbours

KERNEL = "kernel"
COKERNEL = "cokernel"


def pseudo(vm: VarietyMor, side: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Pseudokernel or pseudocokernel of a variety morphism.

    The kernel of the induced map of projective modules must be a sum of
    standard projectives, recognized by one resolution step (this is where
    semi-heredity is used); otherwise NotRepresentable is raised.  Cokernels
    are kernels over the opposite.
    """
    if side == COKERNEL:
        verts, op_mor = pseudo(transport_to_opposite(vm), KERNEL)
        return verts, transport_to_opposite(op_mor)
    assert side == KERNEL
    incl = kernel_as_projectives(realize_proj(vm))
    return incl.source, incl


# -- Nakayama transport ---------------------------------------------------------


def realize_inj(vm: VarietyMor) -> RepMap:
    """The induced map of injective modules ⊕I(source) -> ⊕I(target).

    A path q: v -> w acts on injectives as the dual of precomposition, so the
    map is the dual of the projective realization of the same morphism read
    in the opposite window (`transport_to_opposite`).
    """
    w = vm.window
    op = realize_proj(transport_to_opposite(vm))
    return RepMap(inj_sum(w, vm.source), inj_sum(w, vm.target),
                  {v: m.transpose() for v, m in op.comps.items()})


def nakayama(cx: Complex) -> Complex:
    """Transport a complex of certified projective sums to injective sums,
    the terms' vertices read off its `YonedaPlan`."""
    plan = cx.yoneda_plan
    if plan is None:
        raise NotProjectiveCertified(
            "nakayama requires terms certified as sums of standard projectives")
    terms = [inj_sum(cx.window, verts) for verts in plan.verts.values()]
    diffs = [realize_inj(d.proj_coords) for d in cx.diffs]
    return Complex(cx.window, cx.min_degree, terms, diffs)


# -- checks -----------------------------------------------------------------------


def _simple_resolutions(w: Window, max_len: int) -> dict[str, Complex]:
    """The minimal projective resolution of every simple of the window, with
    no boundary restriction, cut after degree max_len + 2.

    Against any module X the cut complex computes Ext^i(S(u), X) exactly in
    every degree i <= max_len + 1.  Those groups answer the check's questions
    about X's injective side (Auslander-Reiten-Smalø, *Representation Theory
    of Artin Algebras*, ch. I): I(u) occurs in degree i of a minimal
    injective resolution of X dim Ext^i(S(u), X) times, so id X <= max_len
    exactly when Ext^{max_len+1}(S(u), X) = 0 for every u.
    """
    return {u: _resolve(std_module(w, u, SIMPLE), max_len + 2)[0] for u in w.quiver.vertices}


def _term_vertices(cx: Complex) -> set[str]:
    """The vertices of the terms of a complex of certified projective sums,
    read off its `YonedaPlan`."""
    return {v for verts in cx.yoneda_plan.verts.values() for v in verts}


def _boundary_terms(cx: Complex) -> list[str]:
    return sorted(_term_vertices(cx) & cx.window.boundary)


def _ext_index(simples: dict[str, Complex]) -> dict[str, list[tuple[str, int]]]:
    """Vertex v -> every (u, i) such that the cut resolution of S(u) has a
    term at v in degree -i, in the simples' order."""
    index: dict[str, list[tuple[str, int]]] = {}
    for u, res in simples.items():
        for p, verts in res.yoneda_plan.verts.items():
            for v in set(verts):
                index.setdefault(v, []).append((u, -p))
    return index


def _has_ext_from_simples(X: Rep, one: Complex, simples: dict[str, Complex],
                          index: dict[str, list[tuple[str, int]]], vertices,
                          degrees: range) -> bool:
    """Whether Ext^i(S(u), X) != 0 for some u in vertices and i in degrees
    (at most max_len + 1), read off the simples' cut resolutions against
    one, X's one-term complex; visits vertices in order and stops at the
    first such u.  hom(P(v), X) = X(v), so Ext^i(S(u), X) vanishes unless
    the degree -i term of S(u)'s resolution has a vertex in X's support:
    only the u that index (`_ext_index`) pairs with such a vertex and degree
    are read."""
    met = {u for v in X.support for u, i in index.get(v, ()) if i in degrees}
    for u in vertices:
        if u in met:
            dims = total_hom_dims(simples[u], one)
            if any(dims.get(i) for i in degrees):
                return True
    return False


def _usable_probes(w: Window, test_set: list[tuple[str, Rep]], max_len: int,
                   forbid_boundary: bool,
                   report: Report) -> list[tuple[str, Rep, Complex, Complex]]:
    """The probes with projective and injective dimension within max_len,
    each with its minimal projective resolution (a simple probe takes its
    simple's) and its one-term complex.  A probe X fails if that resolution
    reaches degree max_len + 1 or Ext^{max_len+1}(S(u), X) != 0 for some u,
    in one item whose subject names what exceeds the bound: pd(X), id(X) or
    pd/id(X).  Otherwise, under forbid_boundary, it is skipped if that
    resolution has a term at a boundary vertex b or Ext^i(S(b), X) != 0 for
    some i <= max_len, that is, if I(b) occurs in X's minimal injective
    resolution."""
    simples = _simple_resolutions(w, max_len) if test_set else {}
    index = _ext_index(simples)
    # only these simples have a term, so possibly an Ext, in degree max_len + 1
    long = [u for u, res in simples.items() if len(res.terms) > max_len + 1]
    usable = []
    for label, X in test_set:
        if X.total_dim() == 1:  # the simple at its one vertex
            res = simples[X.support[0]]
        else:
            res = _resolve(X, max_len + 1)[0]
        one = one_term_complex(X)
        pd_over = len(res.terms) > max_len + 1
        id_over = _has_ext_from_simples(X, one, simples, index, long,
                                        range(max_len + 1, max_len + 2))
        if pd_over or id_over:
            exceeded = "pd/id" if pd_over and id_over else "pd" if pd_over else "id"
            report.fail(f"{exceeded}({label})", f"<= {max_len}", "ExceedsBound")
            continue
        if forbid_boundary and (_boundary_terms(res) or _has_ext_from_simples(
                X, one, simples, index, sorted(w.boundary), range(max_len + 1))):
            # the probe's resolutions lean on truncation artifacts: it carries
            # no evidence either way, so it is skipped rather than failed
            report.skipped += 1
            continue
        report.tally()
        usable.append((label, X, res, one))
    return usable


def _by_vertex(sets) -> dict[str, list[int]]:
    """Vertex v -> the positions j, in order, of the vertex sets that hold v."""
    index: dict[str, list[int]] = {}
    for j, vertices in enumerate(sets):
        for v in vertices:
            index.setdefault(v, []).append(j)
    return index


def check_serre(
    w: Window,
    test_set: list[tuple[str, Rep]],
    max_len: int,
    forbid_boundary: bool = True,
) -> Report:
    """Serre-duality check at dimension level over a probe set.

    For every pair X, Y and shift n in -max_len..max_len, asserts
    dim RHom^n(X, Y) = dim RHom^{-n}(Y, SX), plus finite projective and
    injective dimension of every probe (within max_len).  Only these
    dimension identities are compared: the composition law of the Nakayama
    realization is a property of the code, tested by
    `tests/test_serre.py::test_nakayama_realization_composes`.

    A probe X fails if either of its minimal resolutions is longer than
    max_len, in an item named pd(X), id(X) or pd/id(X) after the longer
    ones; otherwise, under forbid_boundary, it is skipped if either has a
    term at a boundary vertex.  The injective side is read off the simples'
    projective resolutions (`_simple_resolutions`) at every global
    dimension: id X <= max_len exactly when Ext^{max_len+1}(S(u), X) = 0 for
    every simple S(u), and I(u) occurs in degree i of X's minimal injective
    resolution dim Ext^i(S(u), X) times (Auslander-Reiten-Smalø, ch. I).  No
    probe is resolved injectively.

    By Yoneda, hom(⊕_b P(v_b), Z) = ⊕_b Z(v_b), so Hom(res X, Y) is zero
    when the vertices of res X's terms miss Y's support, and Hom(res Y, S X)
    when those of res Y's terms miss the support of S X's terms.  Two
    indexes built once per check, the probes supported at each vertex and
    the probes whose resolution has a term at each vertex, give each X the
    probes Y where a side is not zero by support: the first read at res X's
    term vertices, the second on S X's support.  Those Y are visited in
    probe order, each such side through `total_hom_dims` once, the other
    side read as zeros.  Every pair is tallied in bulk, each of its shifts
    counted as checked, and its two sides are compared only at the shifts
    where one of them is nonzero, in shift order, so the failed items are
    those of a pair-by-pair, shift-by-shift comparison.  Both resolutions
    have length at most max_len, so every such shift lies in
    -max_len..max_len.
    """
    report = Report("serre-check")
    usable = _usable_probes(w, test_set, max_len, forbid_boundary, report)
    images = [nakayama(res) for _, _, res, _ in usable]
    terms = [_term_vertices(res) for _, _, res, _ in usable]
    supported = _by_vertex(X.support for _, X, _, _ in usable)
    termed = _by_vertex(terms)
    # every shift of every pair is checked; a pair with both sides zero
    # holds at each shift as 0 = 0
    report.tally((2 * max_len + 1) * len(usable) ** 2)
    for (xl, _, res_x, _), terms_x, image in zip(usable, terms, images):
        left = {j for v in terms_x for j in supported.get(v, ())}
        right = {j for v in {v for t in image.terms for v in t.support}
                 for j in termed.get(v, ())}
        for j in sorted(left | right):
            yl, _, res_y, one_y = usable[j]
            ls = total_hom_dims(res_x, one_y) if j in left else {}
            rs = total_hom_dims(res_y, image) if j in right else {}
            # a shift where both sides read 0 holds; the others in shift order
            nonzero = {n for n, d in ls.items() if d} | {-n for n, d in rs.items() if d}
            for n in sorted(nonzero):
                ln, rn = ls.get(n, 0), rs.get(-n, 0)
                if ln != rn:
                    report.fail(
                        f"RHom^{n}({xl}, {yl}) vs RHom^{-n}({yl}, S {xl})", ln, rn
                    )
    return report


def check_dualizing(w: Window, strict_boundary: bool = False) -> Report:
    """Dualizing-variety conditions on the window's interior.

    Pseudokernels and pseudocokernels must exist for all arrows between
    interior vertices; standard injectives get length-2 projective
    presentations, projectives get injective copresentations, and simples
    both.  The terms of a simple's presentation (copresentation) are compared
    with the Gabriel quiver: P0 = P(v), and P1 is the sum of P(u) over the
    in-neighbours (out-neighbours) u of v, with irr multiplicity.  With
    strict_boundary, presentations whose terms touch marked truncation
    artifacts are reported as failures (finite-window evidence that the
    infinite object is not finitely / cofinitely presented).  Every module
    of a finite window has a minimal presentation, so an error raised while
    computing one is a bug, and it propagates.
    """
    report = Report("dualizing-check")
    interior = set(w.interior_vertices())
    for a in sorted(w.quiver.arrows, key=lambda a: a.name):
        if a.src not in interior or a.tgt not in interior:
            continue
        vm = VarietyMor.from_arrow(w, a.name)
        for side in (KERNEL, COKERNEL):
            report.tally()
            try:
                pseudo(vm, side)
            except NotRepresentable:
                report.fail(f"pseudo{side}({a.name})", "representable", "NotRepresentable")

    ins, outs = gabriel_neighbours(w)
    for v in sorted(interior, key=w.quiver.vertex_index.__getitem__):
        # (label, module, side, the Gabriel quiver's second term or None)
        checks = [
            (f"I({v}) finitely presented", std_module(w, v, INJECTIVE), PROJECTIVE, None),
            (f"P({v}) cofinitely presented", std_module(w, v, PROJECTIVE), INJECTIVE, None),
            (f"S({v}) finitely presented", std_module(w, v, SIMPLE), PROJECTIVE, ins[v]),
            (f"S({v}) cofinitely presented", std_module(w, v, SIMPLE), INJECTIVE, outs[v]),
        ]
        for label, M, side, neighbours in checks:
            report.tally()
            first, second = two_term_presentation(M, side)
            if neighbours is not None and (
                    first != (v,) or Counter(second) != Counter(neighbours)):
                report.fail(label, f"Gabriel quiver terms {((v,), tuple(neighbours))}",
                            str((first, second)))
            if strict_boundary:
                touched = sorted(set(first + second) & w.boundary)
                if touched:
                    report.fail(
                        label, "presentation away from the cut",
                        f"touches boundary {touched}")
    return report
