"""Dualizing-variety and Serre-duality checks on finite windows.

Morphisms of the variety itself are matrices of hom-space elements between
formal direct sums of vertices (VarietyMor).  `transport_to_opposite` is the
one place that reads such a morphism in the opposite window.  Pseudokernels
are computed by taking the honest kernel of the induced map of projective
modules and recognizing it as a sum of standard projectives
(`reps.kernel_as_projectives`); pseudocokernels are pseudokernels in the
opposite window.  The Serre functor is realized on bounded complexes of
standard projectives by the Nakayama transport P(v) -> I(v), the dual of the
projective realization over the opposite window, and the duality is verified
at dimension level: dim RHom^n(X, Y) = dim RHom^{-n}(Y, SX).

Total hom complexes are assembled by Yoneda evaluation, never from bases of
module maps: hom(⊕P(v_b), Z) = ⊕Z(v_b), so a complex of certified projective
sums into any complex gives blocks of Z's spaces, with the differentials read
off as path actions Z(q) weighted by the hom coordinates of the projective
side's differentials.  A target of injective sums is handled by the dual
isomorphism over the opposite window.  The right-hand side still reads the
realized Nakayama complex (its injective sums and transported maps), so the
check compares two different computations rather than a matrix with its
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BoundaryContaminated,
    EndNotSplit,
    ExceedsBound,
    NotProjectiveCertified,
    NotRepresentable,
    ThreadQuiverError,
)
from .linalg import Matrix, rank
from .quiver import Path
from .report import Report
from .reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    Rep,
    RepMap,
    dualize_complex,
    dualize_map,
    extract_proj_coords,
    inj_sum,
    kernel_as_projectives,
    one_term_complex,
    proj_sum,
    realize_proj_coords,
    resolution,
    std_module,
    two_term_presentation,
)
from .windows import Window

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
        return cls(w, (v,), (v,), [[w.identity_coords(v)]])


def realize_proj(vm: VarietyMor) -> RepMap:
    """The induced map of projective modules ⊕P(source) -> ⊕P(target)."""
    w = vm.window
    A = proj_sum(w, vm.source)
    B = proj_sum(w, vm.target)
    cells = [
        [
            None if vm.entries[i][j] is None else (vm.source[j], vm.target[i], vm.entries[i][j])
            for j in range(len(vm.source))
        ]
        for i in range(len(vm.target))
    ]
    return realize_proj_coords(A, B, cells)


def variety_mor_from_proj_map(f: RepMap) -> VarietyMor:
    w = f.source.window
    cells = extract_proj_coords(f)
    entries = [
        [None if c is None else c[2] for c in row]
        for row in cells
    ]
    return VarietyMor(w, f.source.cert[1], f.target.cert[1], entries)


def _coords_to_op(w: Window, x: str, y: str, coords) -> list:
    """Transport an element of hom(x, y) to the opposite window's hom(y, x)."""
    op = w.opposite()
    zero = w.field.zero
    terms = [
        (c, Path(y, x, tuple(reversed(p.arrows))))
        for c, p in zip(coords, w.hom(x, y).basis)
        if c != zero
    ]
    hb = op.hom(y, x)
    if not terms:
        return [zero] * hb.dim
    return hb.expand(terms)


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

    The kernel of the induced map of projective modules must decompose into
    standard projectives (this is where semi-heredity is used); otherwise
    NotRepresentable is raised.  Cokernels are kernels over the opposite.
    """
    if side == COKERNEL:
        verts, op_mor = pseudo(transport_to_opposite(vm), KERNEL)
        return verts, transport_to_opposite(op_mor)
    assert side == KERNEL
    verts, incl = kernel_as_projectives(realize_proj(vm))
    return verts, variety_mor_from_proj_map(incl)


# -- Nakayama transport ---------------------------------------------------------


def realize_inj_coords(w: Window, src_verts, tgt_verts, entries) -> RepMap:
    """Realize hom coordinates as a map of standard injective sums.

    A path q: v -> w acts on injectives as the dual of precomposition, so the
    map is the dual of the projective realization of the same morphism read
    in the opposite window (`transport_to_opposite`).
    """
    vm = VarietyMor(w, tuple(src_verts), tuple(tgt_verts), entries)
    d = dualize_map(realize_proj(transport_to_opposite(vm)))
    return RepMap(inj_sum(w, vm.source), inj_sum(w, vm.target), d.comps)


def nakayama(cx: Complex) -> Complex:
    """Transport a complex of certified projective sums to injective sums."""
    w = cx.window
    for t in cx.terms:
        if t.cert is None or t.cert[0] != "proj":
            raise NotProjectiveCertified(
                "nakayama requires terms certified as sums of standard projectives")
    terms = [inj_sum(w, t.cert[1]) for t in cx.terms]
    diffs = []
    for i, d in enumerate(cx.diffs):
        entries = [[None if c is None else c[2] for c in row] for row in d.proj_coords]
        diffs.append(
            realize_inj_coords(w, cx.terms[i].cert[1], cx.terms[i + 1].cert[1], entries)
        )
        # rebind endpoints to the canonical terms
        diffs[-1] = RepMap(terms[i], terms[i + 1], diffs[-1].comps)
    return Complex(w, cx.min_degree, terms, diffs)


def serre_image(M: Rep, max_len: int, forbid_boundary: bool = False) -> Complex:
    """The Serre functor's value on M: Nakayama of a projective resolution."""
    res = resolution(M, PROJECTIVE, max_len, forbid_boundary)
    return nakayama(res.complex)


# -- derived hom ------------------------------------------------------------------


def _as_complex(X, max_len: int, forbid_boundary: bool) -> Complex:
    if isinstance(X, Complex):
        return X
    return resolution(X, PROJECTIVE, max_len, forbid_boundary).complex


def _is_sum_of(cx: Complex, kind: str) -> bool:
    return all(t.cert is not None and t.cert[0] == kind for t in cx.terms)


def _yoneda_hom_data(CX: Complex, CY: Complex) -> tuple[dict[int, int], dict[int, Matrix]]:
    """The total hom complex of a complex of certified projective sums, by
    Yoneda evaluation: hom(⊕_b P(v_b), Z) = ⊕_b Z(v_b).

    The (p, q) block is ⊕_b CY^q(v_b) over the vertices v_b of CX^p, ordered
    by block and then unit vector, as in `hom_basis`.  A map P(u) -> P(v)
    with hom coordinates c over the paths q: u -> v induces Σ c_q·Z(q):
    Z(v) -> Z(u), so precomposing with dX is a block matrix of path actions,
    and postcomposing with dY is block diagonal with blocks dY(v_b).
    """
    w = CX.window
    fld = w.field
    n_min = CY.min_degree - (CX.min_degree + len(CX.terms) - 1)
    n_max = (CY.min_degree + len(CY.terms) - 1) - CX.min_degree
    layout: dict[int, list[tuple[int, int]]] = {}
    # (p, q) -> first coordinate of each block b within degree q - p
    offsets: dict[tuple[int, int], list[int]] = {}
    dims: dict[int, int] = {}
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

    def differential(n: int) -> Matrix:
        rows = dims.get(n + 1, 0)
        cols = dims.get(n, 0)
        m = Matrix.zeros(fld, rows, cols)
        if rows == 0 or cols == 0:
            return m
        sign = -(fld(-1) if n % 2 else fld.one)  # -(-1)^n

        def place(r0: int, c0: int, block: Matrix, scale=None):
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
                for b, row in enumerate(dX.proj_coords):
                    for a, cell in enumerate(row):
                        if cell is None:
                            continue
                        u, v, coords = cell
                        terms = [(c, path) for c, path in zip(coords, w.hom(u, v).basis)
                                 if c != fld.zero]
                        place(offsets[(p - 1, q)][a], offsets[(p, q)][b],
                              Y.act_terms(terms), sign)
        return m

    diffs = {n: differential(n) for n in range(n_min, n_max + 1)}
    return dims, diffs


def total_hom_data(CX: Complex, CY: Complex) -> tuple[dict[int, int], dict[int, Matrix]]:
    """Component dimensions and differentials of the total hom complex.

    The degree-n component is the direct sum of hom(X^p, Y^q) over q - p = n;
    the differential sends f to dY . f - (-1)^n f . dX.  CX must consist of
    certified projective sums, or CY of certified injective sums; the latter
    is computed as hom(D CY, D CX) over the opposite window, an isomorphic
    complex (same degrees, differentials equal up to transpose and sign).
    """
    if _is_sum_of(CX, "proj"):
        return _yoneda_hom_data(CX, CY)
    if _is_sum_of(CY, "inj"):
        return _yoneda_hom_data(dualize_complex(CY), dualize_complex(CX))
    raise NotProjectiveCertified(
        "total hom needs a complex of projective sums or a target of injective sums")


def total_hom_dims(CX: Complex, CY: Complex) -> dict[int, int]:
    """Cohomology dimensions of the total hom complex Hom(CX, CY).

    Requires CX to consist of projectives or CY of injectives (the
    resolutions produced here always satisfy this), so homotopy classes
    compute derived homs; otherwise NotProjectiveCertified is raised.
    """
    dims, diffs = total_hom_data(CX, CY)
    ranks = {n: rank(d) for n, d in diffs.items()}
    out: dict[int, int] = {}
    for n in dims:
        out[n] = dims[n] - ranks[n] - ranks.get(n - 1, 0)
        assert out[n] >= 0
    return out


def derived_hom_dim(X, Y, n: int, max_len: int = 8, forbid_boundary: bool = False) -> int:
    """dim of the degree-n derived hom between reps or bounded complexes.

    The first argument is replaced by a projective resolution, except when
    the second is already a complex of standard injectives, in which case no
    resolution is needed (and double resolution is avoided).
    """
    CY = Y if isinstance(Y, Complex) else one_term_complex(Y)
    if isinstance(X, Complex):
        CX = X
    elif _is_sum_of(CY, "inj"):
        CX = one_term_complex(X)
    else:
        CX = _as_complex(X, max_len, forbid_boundary)
    return total_hom_dims(CX, CY).get(n, 0)


# -- checks -----------------------------------------------------------------------


def _nakayama_functoriality_check(w: Window) -> bool:
    """The Nakayama realization composes: N(b·a) = N(b)·N(a) for every
    composable pair of arrows a, b."""

    def realize(arrows) -> list[tuple[VarietyMor, RepMap]]:
        out = []
        for arrow in arrows:
            vm = VarietyMor.from_arrow(w, arrow.name)
            out.append((vm, realize_inj_coords(w, vm.source, vm.target, vm.entries)))
        return out

    # pairs are grouped by their middle vertex, so only the arrows at one
    # vertex are held realized at a time
    for y in w.quiver.vertices:
        if not w.quiver.in_arrows[y] or not w.quiver.out_arrows[y]:
            continue
        outs = realize(w.quiver.out_arrows[y])
        for f, nf in realize(w.quiver.in_arrows[y]):
            for g, ng in outs:
                x, z = f.source[0], g.target[0]
                comp_coords = w.compose_coords(x, y, z, f.entries[0][0], g.entries[0][0])
                ngf = realize_inj_coords(w, (x,), (z,), [[comp_coords]])
                lhs = nf.then(RepMap(nf.target, ng.target, ng.comps))
                if not all(lhs.comps[v] == ngf.comps[v] for v in w.quiver.vertices):
                    return False
    return True


def check_serre(
    w: Window,
    test_set: list[tuple[str, Rep]],
    max_len: int,
    shifts: range | None = None,
    forbid_boundary: bool = True,
) -> Report:
    """Serre-duality check at dimension level over a probe set.

    For every pair X, Y and shift n in range, asserts
    dim RHom^n(X, Y) = dim RHom^{-n}(Y, SX), plus finite projective and
    injective dimension of every probe (within max_len).
    """
    report = Report("serre-check")
    if shifts is None:
        shifts = range(-max_len, max_len + 1)
    resolved: dict[str, Complex] = {}
    images: dict[str, Complex] = {}
    usable: list[tuple[str, Rep]] = []
    for label, X in test_set:
        try:
            res = resolution(X, PROJECTIVE, max_len, forbid_boundary)
            resolution(X, INJECTIVE, max_len, forbid_boundary)
        except ExceedsBound:
            report.fail(f"pd/id({label})", f"<= {max_len}", "ExceedsBound")
            continue
        except BoundaryContaminated:
            # the probe's resolution leans on truncation artifacts: it carries
            # no evidence either way, so it is skipped rather than failed
            report.skipped += 1
            continue
        report.tally()
        resolved[label] = res.complex
        images[label] = nakayama(res.complex)
        usable.append((label, X))
    for xl, X in usable:
        for yl, Y in usable:
            left = total_hom_dims(resolved[xl], one_term_complex(Y))
            right = total_hom_dims(resolved[yl], images[xl])
            for n in shifts:
                report.tally()
                ln, rn = left.get(n, 0), right.get(-n, 0)
                if ln != rn:
                    report.fail(
                        f"RHom^{n}({xl}, {yl}) vs RHom^{-n}({yl}, S {xl})", ln, rn
                    )
    if usable and not _nakayama_functoriality_check(w):
        report.fail("nakayama functoriality", "composition preserved", "violated")
    return report


def check_dualizing(w: Window, strict_boundary: bool = False) -> Report:
    """Dualizing-variety conditions on the window's interior.

    Pseudokernels and pseudocokernels must exist for all arrows between
    interior vertices; standard injectives get length-2 projective
    presentations, projectives get injective copresentations, and simples
    both.  With strict_boundary, presentations whose terms touch marked
    truncation artifacts are reported as failures (finite-window evidence
    that the infinite object is not finitely / cofinitely presented).
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
            except EndNotSplit:
                report.fail(f"pseudo{side}({a.name})", "representable", "EndNotSplit")

    for v in sorted(interior, key=lambda v: w.quiver.vertices.index(v)):
        checks = [
            (f"I({v}) finitely presented", std_module(w, v, INJECTIVE), PROJECTIVE),
            (f"P({v}) cofinitely presented", std_module(w, v, PROJECTIVE), INJECTIVE),
            (f"S({v}) finitely presented", std_module(w, v, SIMPLE), PROJECTIVE),
            (f"S({v}) cofinitely presented", std_module(w, v, SIMPLE), INJECTIVE),
        ]
        for label, M, side in checks:
            report.tally()
            try:
                first, second = two_term_presentation(M, side)
            except ThreadQuiverError as exc:  # structural failure
                report.fail(label, "2-term presentation", type(exc).__name__)
                continue
            if strict_boundary:
                touched = sorted(set(first.cert[1] + second.cert[1]) & w.boundary)
                if touched:
                    report.fail(
                        label, "presentation away from the cut",
                        f"touches boundary {touched}")
    return report
