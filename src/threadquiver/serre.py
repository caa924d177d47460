"""Dualizing-variety and Serre-duality checks on finite windows.

Morphisms of the variety itself are matrices of hom-space elements between
formal direct sums of vertices (VarietyMor).  Their entries are the
certificate-indexed hom coordinates of `reps`, the one coordinate form of a
map between sums of standard projectives: `realize_proj` writes a module map
from them (through `reps.realize_proj_coords`), and a resolution's
differentials are read back into them once (`RepMap.proj_coords`).
`transport_to_opposite` is the one place that reads such a morphism in the
opposite window.  Pseudokernels are computed by taking the honest kernel of
the induced map of projective modules and recognizing it as a sum of
standard projectives by its projective cover, which must be an isomorphism;
`reps.kernel_as_projectives` returns the inclusion's coordinates, which are
the pseudokernel's entries, without writing the inclusion.  Pseudocokernels
are pseudokernels in the opposite window.  The Serre functor is realized on
bounded complexes of standard projectives by the Nakayama transport
P(v) -> I(v): each differential's coordinates are realized between the
complex's injective sums (`realize_inj_coords`) as the dual of the
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
`realize_inj_coords` is right: it is a property of the code, not of the
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
from dataclasses import dataclass

from .errors import NotProjectiveCertified, NotRepresentable, ThreadQuiverError
from .quiver import Path
from .report import Report
from .reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    Rep,
    RepMap,
    _resolve,
    inj_sum,
    kernel_as_projectives,
    one_term_complex,
    proj_sum,
    realize_proj_coords,
    resolution,
    std_module,
    total_hom_dims,
    two_term_presentation,
)
from .windows import Window, gabriel_neighbours

KERNEL = "kernel"
COKERNEL = "cokernel"


@dataclass
class VarietyMor:
    """A morphism between formal sums of window vertices.

    entries[i][j] is the coordinate vector (in the window's hom basis) of the
    component source_j -> target_i, or None for zero.
    """

    window: Window
    source: tuple[str, ...]
    target: tuple[str, ...]
    entries: list[list]

    def __post_init__(self):
        assert len(self.entries) == len(self.target)
        for row in self.entries:
            assert len(row) == len(self.source)

    @classmethod
    def zero(cls, w: Window, source, target) -> "VarietyMor":
        source, target = tuple(source), tuple(target)
        return cls(w, source, target, [[None] * len(source) for _ in target])

    @classmethod
    def from_arrow(cls, w: Window, arrow_name: str) -> "VarietyMor":
        a = w.quiver.arrow_by_name[arrow_name]
        coords = w.hom(a.src, a.tgt).expand_path(Path(a.src, a.tgt, (a.name,)))
        return cls(w, (a.src,), (a.tgt,), [[coords]])

    @classmethod
    def identity(cls, w: Window, v: str) -> "VarietyMor":
        # hom(v, v) is spanned by the identity on an acyclic window
        return cls(w, (v,), (v,), [[[w.field.one]]])


def realize_proj(vm: VarietyMor) -> RepMap:
    """The induced map of projective modules ⊕P(source) -> ⊕P(target)."""
    w = vm.window
    return realize_proj_coords(proj_sum(w, vm.source), proj_sum(w, vm.target), vm.entries)


def _coords_to_op(w: Window, x: str, y: str, coords) -> list:
    """Transport an element of hom(x, y) to the opposite window's hom(y, x):
    each basis element's arrows, walked off its handles, reversed."""
    zero = w.field.zero
    hb = w.hom(x, y)
    terms = [
        (c, Path(y, x, tuple(reversed(hb.arrows_of(k)))))
        for c, k in zip(coords, hb.free_idx)
        if c != zero
    ]
    return w.opposite().hom(y, x).expand(terms)


def transport_to_opposite(vm: VarietyMor) -> VarietyMor:
    """The same morphism read in the opposite window (source and target swap).

    `w.opposite().opposite() is w`, so transporting twice gives back a
    morphism over the original window.
    """
    w = vm.window
    op = w.opposite()
    entries = [
        [
            None
            if vm.entries[i][j] is None
            else _coords_to_op(w, vm.source[j], vm.target[i], vm.entries[i][j])
            for i in range(len(vm.target))
        ]
        for j in range(len(vm.source))
    ]
    return VarietyMor(op, vm.target, vm.source, entries)


def pseudo(vm: VarietyMor, side: str) -> tuple[tuple[str, ...], VarietyMor]:
    """Pseudokernel or pseudocokernel of a variety morphism.

    The kernel of the induced map of projective modules must be a sum of
    standard projectives, recognized by its cover (this is where
    semi-heredity is used); otherwise NotRepresentable is raised.  Cokernels
    are kernels over the opposite.
    """
    if side == COKERNEL:
        verts, op_mor = pseudo(transport_to_opposite(vm), KERNEL)
        return verts, transport_to_opposite(op_mor)
    assert side == KERNEL
    verts, entries = kernel_as_projectives(realize_proj(vm))
    return verts, VarietyMor(vm.window, verts, vm.source, entries)


# -- Nakayama transport ---------------------------------------------------------


def realize_inj_coords(I: Rep, J: Rep, entries) -> RepMap:
    """Realize hom coordinates as a map between the certified injective sums
    I and J.

    A path q: v -> w acts on injectives as the dual of precomposition, so the
    map is the dual of the projective realization of the same morphism read
    in the opposite window (`transport_to_opposite`).
    """
    vm = VarietyMor(I.window, I.cert[1], J.cert[1], entries)
    op = realize_proj(transport_to_opposite(vm))
    return RepMap(I, J, {v: m.transpose() for v, m in op.comps.items()})


def nakayama(cx: Complex) -> Complex:
    """Transport a complex of certified projective sums to injective sums."""
    w = cx.window
    for t in cx.terms:
        if t.cert is None or t.cert[0] != "proj":
            raise NotProjectiveCertified(
                "nakayama requires terms certified as sums of standard projectives")
    terms = [inj_sum(w, t.cert[1]) for t in cx.terms]
    diffs = [realize_inj_coords(terms[i], terms[i + 1], d.proj_coords)
             for i, d in enumerate(cx.diffs)]
    return Complex(w, cx.min_degree, terms, diffs)


def serre_image(M: Rep, max_len: int) -> Complex:
    """The Serre functor's value on M: Nakayama of a projective resolution."""
    return nakayama(resolution(M, PROJECTIVE, max_len).complex)


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


def _boundary_terms(cx: Complex) -> list[str]:
    boundary = cx.window.boundary
    return sorted({v for t in cx.terms for v in t.cert[1] if v in boundary})


def _ext_index(simples: dict[str, Complex]) -> dict[str, list[tuple[str, int]]]:
    """Vertex v -> every (u, i) such that the cut resolution of S(u) has a
    term at v in degree -i, in the simples' order."""
    index: dict[str, list[tuple[str, int]]] = {}
    for u, res in simples.items():
        for p, t in zip(res.degrees(), res.terms):
            for v in set(t.cert[1]):
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
    terms = [{v for t in res.terms for v in t.cert[1]} for _, _, res, _ in usable]
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
    infinite object is not finitely / cofinitely presented).
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
            try:
                first, second = two_term_presentation(M, side)
            except ThreadQuiverError as exc:  # structural failure
                report.fail(label, "2-term presentation", type(exc).__name__)
                continue
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
