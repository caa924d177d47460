"""Finitely presented representations of a window's path category.

A representation M assigns a finite dimensional space to every vertex and,
to every arrow a: x -> y, a matrix M(a): M(y) -> M(x) of shape (n_x, n_y);
the action is contravariant, so standard projectives P(v) = hom(-, v) are
supported on the predecessors of v.  Paths act by multiplying their arrow
matrices in path order, and every relation of the window must act by zero.

Certificates: representations built as direct sums of standard projectives
(resp. injectives) remember the vertex list.  By Yoneda, a map out of such a
sum P = ⊕ P(v_b) -> N is the list of its values at the blocks' identity
paths, one vector of N(v_b) per block.  `_yoneda_write` is the one place such
a map is written (covers, kernel inclusions, the certified branch of
`hom_basis`, `realize_proj_coords`, and the evaluation and unit maps of
`threads`), and `_yoneda_read` the one place it is read (`hom_coords`,
`extract_proj_coords`); between two certified sums a value splits by target
block into hom coordinates.  The Serre check's hom complexes are evaluated
on the certificates directly.  `hom_basis` gives explicit bases of module
maps where a caller needs them (`ext_dim`);
`hom_basis_generic` always solves the naturality system from scratch and is
kept as the independent route for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    AlphaNotInvertible,
    BoundaryContaminated,
    EndNotSplit,
    ExceedsBound,
    NotFunctorial,
    NotRepresentable,
    WindowMismatch,
)
from .linalg import (
    Matrix,
    column_space_basis,
    coords_in_basis,
    hstack,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
    sparse_kernel,
)
from .quiver import Arrow, Path, Quiver, identity_path
from .windows import Window

PROJECTIVE = "projective"
INJECTIVE = "injective"
SIMPLE = "simple"


class Rep:
    """A contravariant module over the window's path category mod relations."""

    def __init__(self, window: Window, dims: dict[str, int], maps: dict[str, Matrix],
                 validate: bool = True, cert: tuple[str, tuple[str, ...]] | None = None):
        self.window = window
        self.dims = {v: int(dims.get(v, 0)) for v in window.quiver.vertices}
        self.maps: dict[str, Matrix] = {}
        f = window.field
        for a in window.quiver.arrows:
            m = maps.get(a.name)
            if m is None:
                m = Matrix.zeros(f, self.dims[a.src], self.dims[a.tgt])
            assert (m.rows, m.cols) == (self.dims[a.src], self.dims[a.tgt]), (
                a.name, m.rows, m.cols, self.dims[a.src], self.dims[a.tgt])
            self.maps[a.name] = m
        # cert = ("proj"|"inj", vertex tuple): this rep is literally the direct
        # sum of standard projectives/injectives at those vertices, in order
        self.cert = cert
        self._act_cache: dict = {}
        if validate:
            self.check_relations()

    @property
    def field(self):
        return self.window.field

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

    def act(self, p: Path) -> Matrix:
        """Matrix of the path action M(p): M(p.tgt) -> M(p.src)."""
        key = (p.src, p.arrows)
        m = self._act_cache.get(key)
        if m is not None:
            return m
        if not p.arrows:
            m = Matrix.identity(self.field, self.dims[p.src])
        elif len(p.arrows) == 1:
            m = self.maps[p.arrows[0]]
        else:
            # share prefixes: each distinct path costs one multiplication
            prefix_key = (p.src, p.arrows[:-1])
            prefix = self._act_cache.get(prefix_key)
            if prefix is None:
                prefix = self.act(
                    Path(p.src, self.window.quiver.arrow_by_name[p.arrows[-1]].src,
                         p.arrows[:-1]))
            m = prefix @ self.maps[p.arrows[-1]]
        self._act_cache[key] = m
        return m

    def act_terms(self, terms) -> Matrix:
        """Action of a linear combination of parallel paths."""
        acc = None
        for c, p in terms:
            m = self.act(p).scale(c)
            acc = m if acc is None else acc + m
        return acc

    def check_relations(self):
        for rel in self.window.relations:
            m = self.act_terms(rel.terms)
            assert m.is_zero(), f"relation violated: {rel}"

    def support(self) -> list[str]:
        return [v for v in self.window.quiver.vertices if self.dims[v] > 0]

    @cached_property
    def block_offsets(self) -> list[dict[str, int]]:
        """Per certified block, its first coordinate in M(x) for every vertex x
        (computed once: representations are never mutated)."""
        kind, verts = self.cert
        w = self.window
        offs = []
        run = {x: 0 for x in w.quiver.vertices}
        for v in verts:
            offs.append(dict(run))
            for x in w.quiver.vertices:
                run[x] += w.hom(x, v).dim if kind == "proj" else w.hom(v, x).dim
        return offs

    def __repr__(self):
        sup = {v: d for v, d in self.dims.items() if d}
        return f"Rep({sup}{' cert=' + str(self.cert) if self.cert else ''})"


class RepMap:
    """A natural transformation between representations of one window."""

    def __init__(self, source: Rep, target: Rep, comps: dict[str, Matrix], validate: bool = False):
        if source.window is not target.window:
            raise WindowMismatch("representations live over different windows")
        self.source = source
        self.target = target
        self.comps: dict[str, Matrix] = {}
        f = source.field
        for v in source.window.quiver.vertices:
            m = comps.get(v)
            if m is None:
                m = Matrix.zeros(f, target.dims[v], source.dims[v])
            assert (m.rows, m.cols) == (target.dims[v], source.dims[v]), v
            self.comps[v] = m
        if validate:
            assert self.is_natural(), "naturality fails"

    def is_natural(self) -> bool:
        M, N = self.source, self.target
        for a in M.window.quiver.arrows:
            left = N.maps[a.name] @ self.comps[a.tgt]
            right = self.comps[a.src] @ M.maps[a.name]
            if left != right:
                return False
        return True

    def then(self, other: "RepMap") -> "RepMap":
        assert self.target is other.source or self.target.dims == other.source.dims
        comps = {v: other.comps[v] @ self.comps[v] for v in self.comps}
        return RepMap(self.source, other.target, comps)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    @cached_property
    def proj_coords(self):
        """`extract_proj_coords` of this map, computed once (maps are never
        mutated, so a resolution's differentials are read once per probe)."""
        return extract_proj_coords(self)

    def __add__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: self.comps[v] + other.comps[v] for v in self.comps})

    def __sub__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: self.comps[v] - other.comps[v] for v in self.comps})

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: m.scale(c) for v, m in self.comps.items()})

    def __repr__(self):
        return f"RepMap({self.source!r} -> {self.target!r})"


def identity_map(M: Rep) -> RepMap:
    return RepMap(M, M, {v: Matrix.identity(M.field, M.dims[v]) for v in M.dims})


def zero_rep(w: Window) -> Rep:
    return Rep(w, {}, {}, validate=False, cert=("proj", ()))


def zero_map(M: Rep, N: Rep) -> RepMap:
    return RepMap(M, N, {})


def _sum_object(parts: list[Rep]) -> Rep:
    """The direct sum alone: dims, block-diagonal arrow maps, and the joint
    certificate when every part is certified of one kind."""
    w = parts[0].window
    from .linalg import direct_sum as mat_direct_sum

    dims = {v: sum(p.dims[v] for p in parts) for v in w.quiver.vertices}
    maps = {
        a.name: mat_direct_sum([p.maps[a.name] for p in parts])
        for a in w.quiver.arrows
    }
    cert = None
    kinds = {p.cert[0] for p in parts if p.cert is not None}
    if all(p.cert is not None for p in parts) and len(kinds) == 1:
        cert = (kinds.pop(), tuple(v for p in parts for v in p.cert[1]))
    return Rep(w, dims, maps, validate=False, cert=cert)


# -- standard modules ---------------------------------------------------------


def std_module(w: Window, v: str, kind: str) -> Rep:
    """Standard projective hom(-, v), injective hom(v, -)^*, or simple at v."""
    key = (v, kind)
    cached = w._std_cache.get(key)
    if cached is not None:
        return cached
    f = w.field
    if kind == SIMPLE:
        rep = Rep(w, {v: 1}, {}, validate=False)
    elif kind == PROJECTIVE:
        dims = {x: w.hom(x, v).dim for x in w.quiver.vertices}
        maps = {}
        for a in w.quiver.arrows:
            hx, hy = w.hom(a.src, v), w.hom(a.tgt, v)
            m = Matrix.zeros(f, hx.dim, hy.dim)
            for j, p in enumerate(hy.basis):
                col = hx.expand_path(Path(a.src, v, (a.name,) + p.arrows))
                for i, c in enumerate(col):
                    m.data[i * hy.dim + j] = c
            maps[a.name] = m
        rep = Rep(w, dims, maps, validate=False, cert=("proj", (v,)))
    elif kind == INJECTIVE:
        # dual of the standard projective at v over the opposite window
        op = w.opposite()
        rep = dualize(std_module(op, v, PROJECTIVE))
        assert rep.window is w
    else:
        raise ValueError(f"unknown kind {kind!r}")
    w._std_cache[key] = rep
    return rep


def dualize(M: Rep) -> Rep:
    """The dual module over the opposite window: spaces dualized, matrices transposed."""
    op = M.window.opposite()
    maps = {a.name: M.maps[a.name].transpose() for a in M.window.quiver.arrows}
    cert = None
    if M.cert is not None:
        cert = ("inj" if M.cert[0] == "proj" else "proj", M.cert[1])
    return Rep(op, dict(M.dims), maps, validate=False, cert=cert)


def dualize_map(fm: RepMap) -> RepMap:
    """Contravariant duality on morphisms."""
    return RepMap(dualize(fm.target), dualize(fm.source),
                  {v: m.transpose() for v, m in fm.comps.items()})


def proj_sum(w: Window, vertices) -> Rep:
    """Direct sum of standard projectives (empty sum allowed)."""
    vertices = tuple(vertices)
    if not vertices:
        return zero_rep(w)
    if len(vertices) == 1:
        return std_module(w, vertices[0], PROJECTIVE)
    return _sum_object([std_module(w, v, PROJECTIVE) for v in vertices])


def inj_sum(w: Window, vertices) -> Rep:
    """Direct sum of standard injectives (empty sum allowed)."""
    vertices = tuple(vertices)
    if not vertices:
        return Rep(w, {}, {}, validate=False, cert=("inj", ()))
    if len(vertices) == 1:
        return std_module(w, vertices[0], INJECTIVE)
    return _sum_object([std_module(w, v, INJECTIVE) for v in vertices])


def yoneda_map(P: Rep, v: str, N: Rep, vec: list) -> dict[str, Matrix]:
    """Components of the map P(v) -> N determined by vec in N(v) (Yoneda).

    Returns plain component matrices at the vertices x with hom(x, v) != 0
    (elsewhere P(v) is zero).  Path actions are applied as matrix-vector
    products with shared suffixes, so the cost is one small product per
    distinct subpath into v.
    """
    w = P.window
    f = w.field
    memo: dict[tuple[str, ...], list] = {(): list(vec)}

    def apply_path(arrows: tuple[str, ...]) -> list:
        got = memo.get(arrows)
        if got is None:
            got = N.maps[arrows[0]].apply(apply_path(arrows[1:]))
            memo[arrows] = got
        return got

    comps = {}
    for x in w.quiver.vertices:
        hb = w.hom(x, v)
        if hb.dim == 0:
            continue
        m = Matrix.zeros(f, N.dims[x], hb.dim)
        for j, p in enumerate(hb.basis):
            col = apply_path(p.arrows)
            for i, c in enumerate(col):
                m.data[i * hb.dim + j] = c
        comps[x] = m
    return comps


def _yoneda_write(P: Rep, N: Rep, vecs: list) -> RepMap:
    """The map out of a certified projective sum P = ⊕ P(v_b) whose value at
    block b's identity path is vecs[b] in N(v_b), or zero where vecs[b] is
    None.  The one place a map out of a projective sum is written."""
    w = P.window
    comps = {x: Matrix.zeros(w.field, N.dims[x], P.dims[x]) for x in w.quiver.vertices}
    for b, (v, vec) in enumerate(zip(P.cert[1], vecs, strict=True)):
        if vec is None:
            continue
        offs = P.block_offsets[b]
        for x, src in yoneda_map(P, v, N, vec).items():
            dst, bd = comps[x], src.cols
            for i in range(src.rows):
                base = i * dst.cols + offs[x]
                dst.data[base:base + bd] = src.data[i * bd:(i + 1) * bd]
    return RepMap(P, N, comps)


def _yoneda_read(f: RepMap) -> list[list]:
    """Per block v_b of the certified projective sum f.source, the value of f
    at the block's identity path, a vector of f.target(v_b).  The one place
    a map out of a projective sum is read."""
    P = f.source
    w = P.window
    vals = []
    for b, v in enumerate(P.cert[1]):
        col = P.block_offsets[b][v] + w.hom(v, v).basis.index(identity_path(v))
        comp = f.comps[v]
        vals.append([comp.data[i * comp.cols + col] for i in range(comp.rows)])
    return vals


def _naturality_rows(L: Matrix, y_off: int, x_off: int, R: Matrix, zero) -> list[dict]:
    """Sparse rows of L·Y - X·R = 0 over two unknown blocks stored row-major
    in one variable vector: Y (L.cols x R.cols) from y_off and X (L.rows x
    R.rows) from x_off.  One row per entry (i, j), in row-major order, with
    Y's terms before X's; all-zero rows are dropped."""
    rows = []
    for i in range(L.rows):
        for j in range(R.cols):
            eq: dict[int, object] = {}
            for k in range(L.cols):
                c = L[i, k]
                if c != zero:
                    var = y_off + k * R.cols + j
                    eq[var] = eq.get(var, zero) + c
            for l in range(R.rows):
                c = R[l, j]
                if c != zero:
                    var = x_off + i * R.rows + l
                    eq[var] = eq.get(var, zero) - c
            eq = {k: c for k, c in eq.items() if c != zero}
            if eq:
                rows.append(eq)
    return rows


def hom_basis_generic(M: Rep, N: Rep) -> tuple[int, list[RepMap]]:
    """Hom space by solving the naturality system directly (no shortcuts)."""
    if M.window is not N.window:
        raise WindowMismatch("hom between different windows")
    w = M.window
    f = w.field
    offsets = {}
    nvars = 0
    for v in w.quiver.vertices:
        offsets[v] = nvars
        nvars += N.dims[v] * M.dims[v]
    if nvars == 0:
        return 0, []
    # N(a)·φ_y = φ_x·M(a) for every arrow a: x -> y
    eqs = []
    for a in w.quiver.arrows:
        eqs += _naturality_rows(N.maps[a.name], offsets[a.tgt], offsets[a.src],
                                M.maps[a.name], f.zero)
    sols = sparse_kernel(eqs, nvars, f)
    basis = []
    for vec in sols:
        comps = {}
        for v in w.quiver.vertices:
            nv, mv = N.dims[v], M.dims[v]
            m = Matrix.zeros(f, nv, mv)
            base = offsets[v]
            for idx, c in vec.items():
                if base <= idx < base + nv * mv:
                    m.data[idx - base] = c
            comps[v] = m
        basis.append(RepMap(M, N, comps))
    return len(basis), basis


def hom_basis(M: Rep, N: Rep) -> tuple[int, list[RepMap]]:
    """Hom space basis; uses Yoneda shortcuts when a side is certified."""
    if M.window is not N.window:
        raise WindowMismatch("hom between different windows")
    w = M.window
    f = w.field
    if M.cert is not None and M.cert[0] == "proj":
        # one map per block b and unit vector of N(v_b), in that order
        basis = []
        for b, v in enumerate(M.cert[1]):
            for j in range(N.dims[v]):
                vecs = [None] * len(M.cert[1])
                vecs[b] = [f.one if i == j else f.zero for i in range(N.dims[v])]
                basis.append(_yoneda_write(M, N, vecs))
        return len(basis), basis
    if N.cert is not None and N.cert[0] == "inj":
        # hom(M, D P_op) is dual to hom_op(P_op, D M)
        op = w.opposite()
        Mop = dualize(M)
        Pop = proj_sum(op, N.cert[1])
        _, op_basis = hom_basis(Pop, Mop)
        return len(op_basis), [dualize_map(g) for g in op_basis]
    return hom_basis_generic(M, N)


def hom_dim(M: Rep, N: Rep) -> int:
    return hom_basis(M, N)[0]


def hom_coords(basis: list[RepMap], f: RepMap) -> list:
    """Coordinates of f in a hom basis (fast reads for certified sources)."""
    if not basis:
        assert f.is_zero()
        return []
    M = basis[0].source
    w = M.window
    fld = w.field
    if M.cert is not None and M.cert[0] == "proj":
        # the basis produced by hom_basis is ordered by (block, unit vector)
        return [c for val in _yoneda_read(f) for c in val]
    # generic: solve against the flattened basis
    def flatten(g: RepMap):
        out = []
        for v in w.quiver.vertices:
            out.extend(g.comps[v].data)
        return out

    cols = [flatten(g) for g in basis]
    n = len(cols[0])
    mat = Matrix.zeros(fld, n, len(cols))
    for j, cvec in enumerate(cols):
        for i, c in enumerate(cvec):
            mat.data[i * len(cols) + j] = c
    sol = solve_matrix(mat, Matrix(fld, n, 1, flatten(f)))
    assert sol is not None, "map not in span of basis"
    return [sol.data[i] for i in range(len(basis))]


# -- kernels, images, cokernels ------------------------------------------------


def _quotient_projection(fld, sub: Matrix) -> tuple[Matrix, Matrix]:
    """(projection, section) presenting the quotient of k^n by the column space."""
    n = sub.rows
    rk, red, pivots = rref(sub.transpose())
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


@dataclass
class Factorization:
    kernel: Rep
    ker_incl: RepMap
    image: Rep
    im_epi: RepMap     # source -> image
    im_incl: RepMap    # image -> target
    cokernel: Rep
    coker_proj: RepMap


def kernel_with_inclusion(f: RepMap) -> tuple[Rep, RepMap]:
    """Just the kernel subrepresentation and its inclusion (cheaper than
    a full factorization when only the kernel is needed)."""
    M = f.source
    w = M.window
    kbases = {v: kernel_basis(f.comps[v]) for v in w.quiver.vertices}
    kdims = {v: kbases[v].cols for v in kbases}
    kmaps = {}
    for a in w.quiver.arrows:
        kmaps[a.name] = coords_in_basis(kbases[a.src], M.maps[a.name] @ kbases[a.tgt])
    K = Rep(w, kdims, kmaps, validate=False)
    return K, RepMap(K, M, {v: kbases[v] for v in kbases})


def cokernel_with_projection(f: RepMap) -> tuple[Rep, RepMap]:
    """Just the cokernel and its projection (cheaper than a full
    factorization when only the cokernel is needed)."""
    N = f.target
    w = N.window
    cdims, cprojs, csects = {}, {}, {}
    for v in w.quiver.vertices:
        # the quotient depends only on the column space of f.comps[v]
        proj, sect = _quotient_projection(w.field, f.comps[v])
        cdims[v] = proj.rows
        cprojs[v], csects[v] = proj, sect
    cmaps = {a.name: cprojs[a.src] @ (N.maps[a.name] @ csects[a.tgt]) for a in w.quiver.arrows}
    C = Rep(w, cdims, cmaps, validate=False)
    return C, RepMap(N, C, cprojs)


def map_factor(f: RepMap) -> Factorization:
    """Vertexwise exact kernel, image, and cokernel with induced arrow actions."""
    M, N = f.source, f.target
    w = M.window
    K, ker_incl = kernel_with_inclusion(f)
    ibases = {v: column_space_basis(f.comps[v]) for v in w.quiver.vertices}
    idims = {v: ibases[v].cols for v in ibases}
    imaps = {a.name: coords_in_basis(ibases[a.src], N.maps[a.name] @ ibases[a.tgt])
             for a in w.quiver.arrows}
    I = Rep(w, idims, imaps, validate=False)
    im_incl = RepMap(I, N, {v: ibases[v] for v in ibases})
    im_epi = RepMap(M, I, {v: coords_in_basis(ibases[v], f.comps[v]) for v in ibases})
    C, coker_proj = cokernel_with_projection(f)
    return Factorization(K, ker_incl, I, im_epi, im_incl, C, coker_proj)


def _standard_summands(M: Rep) -> list[tuple[str, RepMap, RepMap, RepMap]]:
    """M recognized as a sum of standard projectives, one indecomposable
    summand at a time: its vertex v, its cover P(v) -> summand (an
    isomorphism), and the summand's inclusion into and projection from M.
    Raises NotRepresentable when a summand is not a standard projective
    (where semi-heredity fails)."""
    out = []
    for part, incl, proj in decompose_with_maps(M):
        P, cover = projective_cover(part)
        if len(P.cert[1]) != 1 or not kernel_with_inclusion(cover)[0].is_zero():
            raise NotRepresentable(
                "summand is not a standard projective (semi-heredity fails here)")
        out.append((P.cert[1][0], cover, incl, proj))
    return out


def kernel_as_projectives(f: RepMap) -> tuple[tuple[str, ...], RepMap]:
    """ker f recognized as a sum of standard projectives: the vertex list and
    the inclusion ⊕P(verts) -> source(f) through the kernel.  Raises
    NotRepresentable when a summand of the kernel is not a standard
    projective."""
    kernel, ker_incl = kernel_with_inclusion(f)
    summands = _standard_summands(kernel)
    verts = tuple(v for v, _, _, _ in summands)
    # block v's value: the summand cover's value at the identity of v, sent
    # through the summand's inclusion into the kernel and the kernel's into f.source
    vecs = [ker_incl.comps[v].apply(incl.comps[v].apply(_yoneda_read(cover)[0]))
            for v, cover, incl, _ in summands]
    return verts, _yoneda_write(proj_sum(f.source.window, verts), f.source, vecs)


# -- covers, hulls, resolutions -------------------------------------------------


def radical_subspaces(M: Rep) -> dict[str, Matrix]:
    """Per vertex, a column basis of rad M(v) = sum of images of arrows out of v."""
    w = M.window
    out = {}
    for v in w.quiver.vertices:
        outs = [M.maps[a.name] for a in w.quiver.out_arrows[v] if M.dims[a.tgt] > 0]
        if not outs or M.dims[v] == 0:
            out[v] = Matrix.zeros(w.field, M.dims[v], 0)
        else:
            out[v] = column_space_basis(hstack(outs))
    return out


def top_generators(M: Rep) -> list[tuple[str, list]]:
    """Vectors projecting to a basis of top M = M / rad M, as (vertex, vector)."""
    w = M.window
    fld = w.field
    gens = []
    rads = radical_subspaces(M)
    for v in w.quiver.vertices:
        n = M.dims[v]
        if n == 0:
            continue
        r = rads[v]
        if r.cols == n:
            continue
        # standard basis vectors completing the radical to a full basis
        ext = hstack([r, Matrix.identity(fld, n)])
        _, _, pivots = rref(ext)
        for p in pivots:
            if p >= r.cols:
                j = p - r.cols
                gens.append((v, [fld.one if i == j else fld.zero for i in range(n)]))
    return gens


def projective_cover(M: Rep) -> tuple[Rep, RepMap]:
    """Minimal projective cover: P(top M) onto M."""
    w = M.window
    gens = top_generators(M)
    P = proj_sum(w, [v for v, _ in gens])
    if not gens:
        assert M.is_zero(), "nonzero module with zero top"
        return P, zero_map(P, M)
    cover = _yoneda_write(P, M, [vec for _, vec in gens])
    for v in w.quiver.vertices:  # covers are epi over acyclic windows
        assert rank(cover.comps[v]) == M.dims[v], "cover not surjective"
    return P, cover


def injective_hull(M: Rep) -> tuple[Rep, RepMap]:
    """Minimal injective hull, computed as the dual of a cover over the opposite."""
    op = M.window.opposite()
    Pop, cover = projective_cover(dualize(M))
    I = dualize(Pop)
    emb = RepMap(M, I, {v: m.transpose() for v, m in cover.comps.items()})
    return I, emb


def two_term_presentation(M: Rep, side: str) -> tuple[Rep, Rep]:
    """The terms (P0, P1) of the minimal projective presentation
    P1 -> P0 -> M -> 0, or (I0, I1) of the minimal injective copresentation
    0 -> M -> I0 -> I1, by cover (hull), kernel (cokernel), cover (hull).
    The differential is not composed."""
    if side == PROJECTIVE:
        P0, cover = projective_cover(M)
        K, _ = kernel_with_inclusion(cover)
        P1, _ = projective_cover(K)
        return P0, P1
    if side == INJECTIVE:
        I0, emb = injective_hull(M)
        C, _ = cokernel_with_projection(emb)
        I1, _ = injective_hull(C)
        return I0, I1
    raise ValueError(f"unknown side {side!r}")


@dataclass
class Complex:
    """A bounded cochain complex of representations (differentials raise degree)."""

    window: Window
    min_degree: int
    terms: list[Rep]
    diffs: list[RepMap]  # diffs[i]: terms[i] -> terms[i+1]

    def __post_init__(self):
        assert len(self.diffs) == max(len(self.terms) - 1, 0)

    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.terms))

    def term(self, n: int) -> Rep | None:
        i = n - self.min_degree
        if 0 <= i < len(self.terms):
            return self.terms[i]
        return None

    def diff(self, n: int) -> RepMap | None:
        """The differential out of degree n."""
        i = n - self.min_degree
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return None

    def check(self):
        for d1, d2 in zip(self.diffs, self.diffs[1:]):
            assert d1.then(d2).is_zero(), "differentials do not compose to zero"


def one_term_complex(M: Rep, degree: int = 0) -> Complex:
    return Complex(M.window, degree, [M], [])


def dualize_complex(cx: Complex) -> Complex:
    """The dual complex over the opposite window: D of the degree-n term sits
    in degree -n, and each differential is transposed."""
    terms = [dualize(t) for t in reversed(cx.terms)]
    diffs = [
        RepMap(terms[i], terms[i + 1], {v: m.transpose() for v, m in d.comps.items()})
        for i, d in enumerate(reversed(cx.diffs))
    ]
    top = cx.min_degree + len(cx.terms) - 1
    return Complex(cx.window.opposite(), -top, terms, diffs)


@dataclass
class Resolution:
    complex: Complex
    augment: RepMap  # P_0 -> M (projective) or M -> I^0 (injective)
    side: str


def _check_boundary(w: Window, vertices) -> None:
    touched = [v for v in vertices if v in w.boundary]
    if touched:
        raise BoundaryContaminated(f"resolution touches boundary vertices {sorted(touched)}")


def resolution(M: Rep, side: str, max_len: int, forbid_boundary: bool = False) -> Resolution:
    """Minimal resolution by standard projectives (degrees -n..0) or standard
    injectives (degrees 0..n); raises ExceedsBound past max_len syzygies."""
    w = M.window
    if side == PROJECTIVE:
        terms: list[Rep] = []
        diffs: list[RepMap] = []
        P0, cover = projective_cover(M)
        if forbid_boundary:
            _check_boundary(w, P0.cert[1])
        terms.append(P0)
        augment = cover
        current, prev_incl = kernel_with_inclusion(cover)
        length = 0
        while not current.is_zero():
            if length >= max_len:
                raise ExceedsBound(
                    f"projective resolution exceeds length {max_len}")
            P, cov = projective_cover(current)
            if forbid_boundary:
                _check_boundary(w, P.cert[1])
            terms.append(P)
            diffs.append(cov.then(prev_incl))  # P -> previous term
            current, prev_incl = kernel_with_inclusion(cov)
            length += 1
        terms.reverse()
        diffs.reverse()
        return Resolution(Complex(w, -length, terms, diffs), augment, PROJECTIVE)
    if side == INJECTIVE:
        op_res = resolution(dualize(M), PROJECTIVE, max_len, forbid_boundary=False)
        if forbid_boundary:
            for t in op_res.complex.terms:
                _check_boundary(w, t.cert[1])
        cx = dualize_complex(op_res.complex)
        augment = RepMap(M, cx.terms[0],
                         {v: m.transpose() for v, m in op_res.augment.comps.items()})
        return Resolution(cx, augment, INJECTIVE)
    raise ValueError(f"unknown side {side!r}")


def proj_dim(M: Rep, max_len: int, forbid_boundary: bool = False) -> int:
    if M.is_zero():
        return 0
    res = resolution(M, PROJECTIVE, max_len, forbid_boundary)
    return len(res.complex.terms) - 1


def inj_dim(M: Rep, max_len: int, forbid_boundary: bool = False) -> int:
    if M.is_zero():
        return 0
    res = resolution(M, INJECTIVE, max_len, forbid_boundary)
    return len(res.complex.terms) - 1


def ext_dim(i: int, M: Rep, N: Rep, max_len: int, forbid_boundary: bool = False) -> int:
    """dim Ext^i computed from a minimal projective resolution of M."""
    assert i >= 0
    if M.is_zero() or N.is_zero():
        return 0
    res = resolution(M, PROJECTIVE, max_len, forbid_boundary)
    cx = res.complex
    # hom complex: degree k component is hom(P_k, N) where P_k sits in degree -k
    def basis_at(k: int):
        t = cx.term(-k)
        if t is None:
            return []
        return hom_basis(t, N)[1]

    b_i = basis_at(i)
    if not b_i:
        return 0
    b_prev = basis_at(i - 1) if i >= 1 else []
    b_next = basis_at(i + 1)

    def delta(bs_from, bs_to, d: RepMap | None):
        # precompose with the differential P_{k+1} -> P_k
        if not bs_from or not bs_to or d is None:
            return Matrix.zeros(M.field, len(bs_to), max(len(bs_from), 0))
        cols = []
        for g in bs_from:
            comp = d.then(g)
            cols.append(hom_coords(bs_to, comp))
        m = Matrix.zeros(M.field, len(bs_to), len(bs_from))
        for j, col in enumerate(cols):
            for r, c in enumerate(col):
                m.data[r * len(bs_from) + j] = c
        return m

    d_in = delta(b_prev, b_i, cx.diff(-i)) if i >= 1 else Matrix.zeros(M.field, len(b_i), 0)
    d_out = delta(b_i, b_next, cx.diff(-(i + 1)))
    return len(b_i) - rank(d_out) - rank(d_in)


# -- decomposition ---------------------------------------------------------------


def _char_poly(fld, m: Matrix) -> list:
    """Characteristic polynomial coefficients (monic, ascending) via Faddeev-LeVerrier."""
    n = m.rows
    assert m.rows == m.cols
    coeffs = [fld.zero] * (n + 1)
    coeffs[n] = fld.one
    Mk = Matrix.identity(fld, n)
    for k in range(1, n + 1):
        Mk = m @ Mk
        tr = sum((Mk[i, i] for i in range(n)), fld.zero)
        c = -tr / fld(k)
        coeffs[n - k] = c
        for i in range(n):
            Mk[i, i] = Mk[i, i] + c
    return coeffs


def _rational_roots(coeffs: list) -> list[Fraction]:
    """Rational roots of a polynomial with Fraction coefficients."""
    # clear denominators
    from math import gcd

    denoms = [c.denominator for c in coeffs]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(c * lcm) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return []
    lead = abs(ints[-1])
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    roots = [Fraction(0)] if k > 0 else []
    const = abs(ints[k]) if k < len(ints) else 0
    if const == 0:
        return roots

    def divisors(x):
        out = []
        d = 1
        while d * d <= x:
            if x % d == 0:
                out.append(d)
                out.append(x // d)
            d += 1
        return out

    cands = set()
    for p in divisors(const):
        for q in divisors(lead):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    for r in sorted(cands):
        val = Fraction(0)
        for c in reversed(ints):
            val = val * r + c
        if val == 0:
            roots.append(r)
    return roots


def _eigen_candidates(M: Rep, h: RepMap) -> list:
    """Candidate eigenvalues of an endomorphism: rational roots of the
    per-vertex characteristic polynomials over Q, every scalar over a small
    prime field."""
    fld = M.field
    from .linalg import PrimeField, RationalField

    if isinstance(fld, PrimeField):
        if fld.p > 101:
            return []
        return [fld(i) for i in range(fld.p)]
    assert isinstance(fld, RationalField)
    lams = set()
    for v in M.window.quiver.vertices:
        if M.dims[v]:
            lams.update(_rational_roots(_char_poly(fld, h.comps[v])))
    return [fld(l) for l in sorted(lams)]


def _endo_power(f: RepMap, n: int) -> RepMap:
    acc = identity_map(f.source)
    base = f
    while n:
        if n & 1:
            acc = acc.then(base)
        base = base.then(base)
        n >>= 1
    return acc


def _try_split(M: Rep, h: RepMap) -> tuple[RepMap, RepMap, RepMap, RepMap] | None:
    """Fitting split along h^N: returns (inclusions, projections) of kernel/image."""
    n = M.total_dim()
    if n == 0:
        return None
    hp = _endo_power(h, n)
    fac = map_factor(hp)
    kd, idm = fac.kernel.total_dim(), fac.image.total_dim()
    if kd == 0 or idm == 0:
        return None
    # M = ker + im vertexwise; build the projections along the sum
    w = M.window
    fld = w.field
    projK, projI = {}, {}
    for v in w.quiver.vertices:
        kb, ib = fac.ker_incl.comps[v], fac.im_incl.comps[v]
        both = hstack([kb, ib])
        assert both.rows == both.cols == M.dims[v], "Fitting split failed"
        inv = solve_matrix(both, Matrix.identity(fld, both.rows))
        assert inv is not None
        kpart = Matrix.zeros(fld, kb.cols, M.dims[v])
        ipart = Matrix.zeros(fld, ib.cols, M.dims[v])
        for i in range(kb.cols):
            kpart.data[i * M.dims[v] : (i + 1) * M.dims[v]] = inv.row(i)
        for i in range(ib.cols):
            ipart.data[i * M.dims[v] : (i + 1) * M.dims[v]] = inv.row(kb.cols + i)
        projK[v] = kpart
        projI[v] = ipart
    return (
        fac.ker_incl,
        RepMap(M, fac.kernel, projK),
        fac.im_incl,
        RepMap(M, fac.image, projI),
    )


def _is_scalar_plus_nilpotent(M: Rep, h: RepMap) -> bool:
    n = M.total_dim()
    for lam in _eigen_candidates(M, h):
        shifted = h - identity_map(M).scale(lam)
        if _endo_power(shifted, n).is_zero():
            return True
    return n == 0


def decompose_with_maps(M: Rep, rng=None) -> list[tuple[Rep, RepMap, RepMap]]:
    """Indecomposable summands with their inclusions and projections.

    Fitting iteration over candidate endomorphisms: basis elements, their
    pairwise products/sums/differences, and rational eigenvalue shifts.
    Raises EndNotSplit when a candidate shows End is not split-local yet no
    splitting was found.
    """
    if M.is_zero():
        return []
    dim, basis = hom_basis_generic(M, M)
    if dim == 1:
        return [(M, identity_map(M), identity_map(M))]
    candidates = list(basis)
    if rng is not None:
        rng.shuffle(candidates)
    pool = list(candidates)
    for i in range(len(candidates)):
        for j in range(len(candidates)):
            pool.append(candidates[i].then(candidates[j]))
            if j > i:
                pool.append(candidates[i] + candidates[j])
                pool.append(candidates[i] - candidates[j])
    for h in pool:
        split = _try_split(M, h)
        if split is None:
            # invertible or nilpotent power: try eigenvalue shifts
            for lam in _eigen_candidates(M, h):
                shifted = h - identity_map(M).scale(lam)
                split = _try_split(M, shifted)
                if split is not None:
                    break
        if split is not None:
            ki, kp, ii, ip = split
            out = []
            for part, pincl, pproj in decompose_with_maps(ki.source, rng):
                out.append((part, pincl.then(ki), kp.then(pproj)))
            for part, pincl, pproj in decompose_with_maps(ii.source, rng):
                out.append((part, pincl.then(ii), ip.then(pproj)))
            return out
    for h in pool:
        if not _is_scalar_plus_nilpotent(M, h):
            raise EndNotSplit(
                "an endomorphism is neither nilpotent nor invertible-split over the base field")
    return [(M, identity_map(M), identity_map(M))]


def decompose(M: Rep, rng=None) -> list[Rep]:
    parts = decompose_with_maps(M, rng)
    parts.sort(key=lambda t: (t[0].total_dim(), sorted(t[0].dims.items())))
    return [p for p, _, _ in parts]


# -- restriction and induction ----------------------------------------------------


def restrict(M: Rep, target: Window, vertex_map: dict[str, str],
             arrow_map: dict[str, Path]) -> Rep:
    """Pull back along a functor target -> M.window given on vertices and arrows.

    Arrows of the target are assigned paths of M's window; the target's
    relations must act by zero on the pulled-back module.
    """
    w = M.window
    for a in target.quiver.arrows:
        p = arrow_map[a.name]
        if p.src != vertex_map[a.src] or p.tgt != vertex_map[a.tgt]:
            raise NotFunctorial(f"arrow {a.name} maps to a non-parallel path")
    dims = {v: M.dims[vertex_map[v]] for v in target.quiver.vertices}
    maps = {a.name: M.act(arrow_map[a.name]) for a in target.quiver.arrows}
    out = Rep(target, dims, maps, validate=False)
    for rel in target.relations:
        acc = None
        for c, p in rel.terms:
            m = out.act(p).scale(c)
            acc = m if acc is None else acc + m
        if acc is not None and not acc.is_zero():
            raise NotFunctorial("assigned paths violate a relation of the target window")
    return out


def restrict_full(M: Rep, target: Window) -> Rep:
    """Restriction along a same-named full embedding (vertices and arrows of
    the target exist verbatim in M's window)."""
    vmap = {v: v for v in target.quiver.vertices}
    amap = {a.name: Path(a.src, a.tgt, (a.name,)) for a in target.quiver.arrows}
    return restrict(M, target, vmap, amap)


def induce(M: Rep, source: Window, target: Window, vertex_map: dict[str, str],
           arrow_map: dict[str, Path], max_len: int = 64) -> Rep:
    """Left adjoint of restriction: transport a projective presentation of M.

    Standard projectives P(v) map to P(vertex_map[v]); the presentation's
    differential is transported along the arrow-to-path assignment and the
    induced module is its cokernel.
    """
    assert M.window is source
    if M.is_zero():
        return zero_rep(target)
    P0, cover = projective_cover(M)
    K0, ker_incl = kernel_with_inclusion(cover)
    P1, cover1 = projective_cover(K0)
    d = cover1.then(ker_incl)  # P1 -> P0 over the source
    entries = extract_proj_coords(d)
    tgt_entries = []
    for row in entries:
        new_row = []
        for cell in row:
            if cell is None:
                new_row.append(None)
            else:
                vsrc, vtgt, coords = cell
                new_row.append(
                    (vertex_map[vsrc], vertex_map[vtgt],
                     _transport_coords(source, target, vsrc, vtgt, coords,
                                       vertex_map, arrow_map)))
        tgt_entries.append(new_row)
    A = proj_sum(target, [vertex_map[v] for v in P1.cert[1]])
    B = proj_sum(target, [vertex_map[v] for v in P0.cert[1]])
    g = realize_proj_coords(A, B, tgt_entries)
    return cokernel_with_projection(g)[0]


def _transport_coords(source: Window, target: Window, x: str, y: str, coords,
                      vertex_map, arrow_map) -> list:
    hb_src = source.hom(x, y)
    terms = []
    for c, p in zip(coords, hb_src.basis):
        if c == source.field.zero:
            continue
        arrows: list[str] = []
        for aname in p.arrows:
            arrows.extend(arrow_map[aname].arrows)
        terms.append((c, Path(vertex_map[x], vertex_map[y], tuple(arrows))))
    hb_tgt = target.hom(vertex_map[x], vertex_map[y])
    if not terms:
        return [target.field.zero] * hb_tgt.dim
    return hb_tgt.expand(terms)


def extract_proj_coords(f: RepMap):
    """Coordinates of a map between certified projective sums.

    Returns entries[i][j] = (source vertex, target vertex, hom coordinates)
    for the block map P(src_j) -> P(tgt_i), or None for a zero block: the
    value of source block j at its identity path, split by target block
    (P(tgt_i)(src_j) has basis hom(src_j, tgt_i)).
    """
    P, Q = f.source, f.target
    assert P.cert is not None and P.cert[0] == "proj"
    assert Q.cert is not None and Q.cert[0] == "proj"
    w = P.window
    zero = w.field.zero
    qoffs = Q.block_offsets
    vals = _yoneda_read(f)
    entries = []
    for i, wt in enumerate(Q.cert[1]):
        row = []
        for j, vs in enumerate(P.cert[1]):
            start = qoffs[i][vs]
            coords = vals[j][start:start + w.hom(vs, wt).dim]
            row.append(None if all(c == zero for c in coords) else (vs, wt, coords))
        entries.append(row)
    return entries


def realize_proj_coords(P: Rep, Q: Rep, entries) -> RepMap:
    """Inverse of extract_proj_coords: each source block's cells, placed at
    the target blocks' offsets, are its value at the identity path."""
    assert P.cert is not None and Q.cert is not None
    zero = P.field.zero
    qoffs = Q.block_offsets
    vecs = []
    for j, vs in enumerate(P.cert[1]):
        cells = [(qoffs[i][vs], row[j][2]) for i, row in enumerate(entries) if row[j] is not None]
        vec = [zero] * Q.dims[vs] if cells else None
        for start, coords in cells:
            vec[start:start + len(coords)] = coords
        vecs.append(vec)
    return _yoneda_write(P, Q, vecs)


# -- the triple presentation -------------------------------------------------------


@dataclass
class TripleRep:
    """A representation of an expanded thread quiver in glued form.

    N lives over the underlying regular quiver (thread arrows as plain
    arrows, original relations); each L_t lives over the thread's chain; the
    alpha pair identifies L_t at the chain's minimum/maximum with N at the
    thread arrow's endpoints.
    """

    base: Window
    chains: dict[str, Window]
    chain_ends: dict[str, tuple[str, str]]  # thread -> (src vertex, tgt vertex) of base
    N: Rep
    L: dict[str, Rep]
    alpha: dict[str, tuple[Matrix, Matrix]]

    def validate(self):
        for t, (amin, amax) in self.alpha.items():
            cw = self.chains[t]
            first, last = cw.quiver.vertices[0], cw.quiver.vertices[-1]
            sv, tv = self.chain_ends[t]
            L = self.L[t]
            if amin.rows != amin.cols or rank(amin) != amin.rows:
                raise AlphaNotInvertible(f"alpha at the source of {t}")
            if amax.rows != amax.cols or rank(amax) != amax.rows:
                raise AlphaNotInvertible(f"alpha at the target of {t}")
            assert amin.rows == self.N.dims[sv] and amin.cols == L.dims[first]
            assert amax.rows == self.N.dims[tv] and amax.cols == L.dims[last]
            # compatibility: alpha_min . L(chain) = N(t) . alpha_max
            chain_path = Path(first, last,
                              tuple(a.name for a in cw.quiver.arrows))
            lhs = amin @ L.act(chain_path)
            rhs = self.N.act(Path(sv, tv, (t,))) @ amax
            assert lhs == rhs, f"alpha incompatible with the thread action of {t}"


def _window_triple_scaffold(w: Window):
    tq = getattr(w, "source_tq", None)
    assert tq is not None, "window was not produced by expand()"
    from .windows import underlying_quiver, window_from_quiver

    base = getattr(w, "_triple_base", None)
    if base is None:
        base = window_from_quiver(underlying_quiver(tq), tq.relations, field=w.field)
        w._triple_base = base
    chains = getattr(w, "_triple_chains", None)
    if chains is None:
        chains = {}
        for t in tq.thread_arrows:
            vmap = w.embed_t[t.name]
            elems = list(vmap)
            arrows = [
                Arrow(f"{t.name}.{i}", elems[i], elems[i + 1])
                for i in range(len(elems) - 1)
            ]
            chains[t.name] = window_from_quiver(Quiver(elems, arrows), field=w.field)
        w._triple_chains = chains
    ends = {t.name: (t.src, t.tgt) for t in tq.thread_arrows}
    return tq, base, chains, ends


def to_triple(M: Rep) -> TripleRep:
    """Split a representation of an expanded window into its glued data."""
    w = M.window
    tq, base, chains, ends = _window_triple_scaffold(w)
    # N: restrict along the functor base -> window (thread arrow -> chain composite)
    vmap = dict(w.embed_r)
    amap = {}
    for a in tq.standard_arrows:
        amap[a.name] = Path(a.src, a.tgt, (a.name,))
    for t in tq.thread_arrows:
        elems = list(w.embed_t[t.name])
        arrows = tuple(f"{t.name}.{i}" for i in range(len(elems) - 1))
        amap[t.name] = Path(t.src, t.tgt, arrows)
    N = restrict(M, base, vmap, amap)
    L = {}
    alpha = {}
    for t in tq.thread_arrows:
        cw = chains[t.name]
        cvmap = dict(w.embed_t[t.name])
        camap = {a.name: Path(cvmap[a.src], cvmap[a.tgt], (a.name,))
                 for a in cw.quiver.arrows}
        L[t.name] = restrict(M, cw, cvmap, camap)
        f = w.field
        alpha[t.name] = (
            Matrix.identity(f, N.dims[t.src]),
            Matrix.identity(f, N.dims[t.tgt]),
        )
    trip = TripleRep(base, chains, ends, N, L, alpha)
    trip.validate()
    return trip


def from_triple(trip: TripleRep, w: Window) -> Rep:
    """Glue triple data back into a representation of the expanded window."""
    tq, base, chains, ends = _window_triple_scaffold(w)
    f = w.field
    dims = {}
    for v, wv in w.embed_r.items():
        dims[wv] = trip.N.dims[v]
    for t, vmap in w.embed_t.items():
        elems = list(vmap)
        for e in elems[1:-1]:
            dims[vmap[e]] = trip.L[t].dims[e]
    maps = {}
    for a in tq.standard_arrows:
        maps[a.name] = trip.N.maps[a.name]
    for t, vmap in w.embed_t.items():
        elems = list(vmap)
        L = trip.L[t]
        amin, amax = trip.alpha[t]
        n = len(elems) - 1
        for i in range(n):
            name = f"{t}.{i}"
            m = L.maps[name]
            if i == 0:
                m = amin @ m
            if i == n - 1:
                inv = solve_matrix(amax, Matrix.identity(f, amax.rows))
                assert inv is not None
                m = m @ inv
            maps[name] = m
    return Rep(w, dims, maps, validate=True)


def modification_hom_dim(t1: TripleRep, t2: TripleRep) -> int:
    """Dimension of the space of modifications between two triples.

    Unknowns are a natural transformation beta: N -> N' over the base, one
    gamma_t: L_t -> L'_t per chain, and the constraint squares identifying
    them through the alphas at the glued endpoints.
    """
    base = t1.base
    f = base.field
    zero = f.zero
    offsets = {}
    nvars = 0
    for v in base.quiver.vertices:
        offsets[("N", v)] = nvars
        nvars += t2.N.dims[v] * t1.N.dims[v]
    for t, cw in t1.chains.items():
        for e in cw.quiver.vertices:
            offsets[(t, e)] = nvars
            nvars += t2.L[t].dims[e] * t1.L[t].dims[e]
    eqs: list[dict[int, object]] = []

    def naturality(window, M1, M2, tag_of):
        for a in window.quiver.arrows:
            eqs.extend(_naturality_rows(M2.maps[a.name], offsets[tag_of(a.tgt)],
                                        offsets[tag_of(a.src)], M1.maps[a.name], zero))

    naturality(base, t1.N, t2.N, lambda v: ("N", v))
    for t, cw in t1.chains.items():
        naturality(cw, t1.L[t], t2.L[t], lambda e, t=t: (t, e))
    # gluing squares beta_{src} @ alpha = alpha' @ gamma_{min} (and dually at
    # max) are naturality rows with L = alpha', Y = gamma, X = beta, R = alpha,
    # negated, which leaves the kernel unchanged
    for t, cw in t1.chains.items():
        sv, tv = t1.chain_ends[t]
        first, last = cw.quiver.vertices[0], cw.quiver.vertices[-1]
        for end, bv, ce in ((0, sv, first), (1, tv, last)):
            eqs.extend(_naturality_rows(t2.alpha[t][end], offsets[(t, ce)],
                                        offsets[("N", bv)], t1.alpha[t][end], zero))
    return len(sparse_kernel(eqs, nvars, f))
