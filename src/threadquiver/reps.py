"""Finitely presented representations of a window's path category.

A representation M assigns a finite dimensional space to every vertex and,
to every arrow a: x -> y, a matrix M(a): M(y) -> M(x) of shape (n_x, n_y);
the action is contravariant, so standard projectives P(v) = hom(-, v) are
supported on the predecessors of v.  Paths act by multiplying their arrow
matrices in path order, and every relation of the window must act by zero.

Certificates: representations built as direct sums of standard projectives
(resp. injectives) remember the vertex list, and each such sum is built
once per window and vertex tuple (`proj_sum`, `inj_sum`).  By Yoneda, a
map out of such a sum P = ⊕ P(v_b) -> N is the list of its values at the
blocks' identity paths, one vector of N(v_b) per block.  `_yoneda_write` is the one place
such a map is written, and only where a module map is needed: covers, the
certified branch of `hom_basis`, `realize_proj_coords` and the evaluation
map of `threads`.  `_yoneda_read` is the one place it is read (`hom_coords`,
`extract_proj_coords`, and the kernel's cover in `kernel_as_projectives`).
Between two certified sums the values split by target block into hom
coordinates (`split_proj_values`), and these certificate-indexed
coordinates, entries[i][j] for P(src_j) -> P(tgt_i) or None, are the one
coordinate form of such a map: `extract_proj_coords` reads it,
`realize_proj_coords` writes it, and `kernel_as_projectives` splits the
inclusion of a kernel straight from the values it computes, with no map
written.  `hom_basis` gives explicit bases of module maps; into a certified
injective sum N it transposes the basis of hom(D N, D M) over the opposite
window onto M and N themselves.  `hom_basis_generic` always solves the
naturality system from scratch and is kept as the independent route for
cross-checking.

Total hom complexes are assembled by Yoneda evaluation, never from bases of
module maps: hom(⊕P(v_b), Z) = ⊕Z(v_b), so a complex of certified projective
sums into any complex gives blocks of Z's spaces, with the differentials read
off as path actions Z(q) weighted by the hom coordinates of the projective
side's differentials.  The projective side is compiled once into a
`YonedaPlan`, cached on its `Complex` as `proj_coords` is on a map (neither
is ever mutated): each term's vertex tuple and each differential's nonzero
blocks with their coefficients and the positions of their basis elements,
read the first time a differential needs them.  A call then makes one
pass: it sums the target's dims at the plan's vertices (`_hom_layout`) and
writes each differential it needs straight into one flat row-major list
(`_hom_differential`), which `total_hom_dims` ranks with no matrix object
but the one `rref` reads, each action read off the basis element's handle
(`Rep.act_basis`), with no path built.  A target of injective sums is
handled by the dual isomorphism over the opposite window.  `total_hom_dims` is the one
implementation of derived hom: `ext_dim` reads Ext off it (a projective
resolution into a one-term complex), and the Serre check and the
orthogonality test of the perpendicular adjoint call it; the basis route
survives only as a test oracle.

Storage: a module keeps its blocks on its support only.  `Rep.maps` stores
the matrices of the arrows whose two ends are nonzero and `RepMap.comps` the
components at the vertices where source and target are both nonzero; any
other key reads as the empty matrix of its shape (0 x n or n x 0), so
`M.maps[a]` and `f.comps[v]` work for every arrow and vertex while
`.items()` visits only the stored blocks.  A module caches its support and
the arrows inside it, and covers, kernels, cokernels, sums, duals, Yoneda
maps and compositions loop over those, so a simple's cover costs the same
on any window.  The cover pipeline reads and writes stored blocks only: a
sum places each part's stored blocks at the part's offsets, a Yoneda write
puts each basis element's column straight into the sum's component, and a
kernel reads a map's components with `.get`, so no empty block is built on
the way.  `Rep.dims` stays a full dict over the window's vertices on
purpose: dimension vectors are compared and indexed at every vertex by
callers outside this module, and it costs one small dict per module.

Elimination runs only where its answer is not already known.  A kernel
takes the identity basis at the vertices where the map's component is
unstored or zero (one identity per dimension, shared: matrices are never
mutated), and an arrow between two such vertices keeps its matrix.
Elsewhere a kernel basis is an identity at the rows of its free columns
(`linalg.kernel_basis` returns them, in closed form for a one-row
component), so an arrow's coordinates in the kernel are read off those rows
of its image, and one exact product checks that the image lies in the span.
A cokernel is the same kernel taken over the opposite window, D ker(D f),
with the transposed basis as its projection, so it has no elimination of
its own.  `linalg.solve_matrix` reduces [m | B] once for all columns.
A cover's components are reduced once, by its kernel bases, and only those
of two or more rows reach `rref`: `projective_cover` eliminates the bases
on the cover's whole support (`RepMap.kernel_bases`) and certifies the
cover with them by rank-nullity at every vertex of M's support, a
certificate that does not depend on how much of the kernel module is ever
built.  The kernel module is built from those bases only when a caller
reads `cover.kernel`: resolutions, `induce` and `kernel_as_projectives`
read the full kernel there.  A presentation builds it only around M:
where the cover vanishes at x and at the head of every arrow out of x,
ker(x) = P0(x) and rad ker(x) = rad P0(x), so top ker(x) = top P0(x) = 0,
and the kernel's top is read on R and the heads of R's out-arrows, R
being the vertices where the cover is nonzero with the sources of the
arrows into them.  The cover also
recognizes a sum of standard projectives: M is one exactly when its
cover's kernel is zero, which is all `kernel_as_projectives` asks, with no
decomposition of M.  The top is read from the vectors spanning the radical
at each vertex (the nonzero columns of the arrow maps out of it), eliminated
once as rows, with no matrix stacked; at a one-dimensional vertex only
whether one of them is nonzero is asked.  A two-term presentation is
returned as the vertex tuples of its terms, since that is all its callers
read.  Its second term is the top of the first cover's kernel, read off
`top_generators` on that neighbourhood with no second cover written and no
certificate of its own: the cover carries the one certificate, and the top
is graded Nakayama's.  The minimal injective copresentation of M is
read as the projective presentation of D M over the opposite window, with
no injective hull or cokernel built; an injective resolution is read the
same way.  A resolution is its complex alone, with no map to or from M, and
reads no boundary: the Serre check reads the cut off the finished terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd

from .errors import (
    AlphaNotInvertible,
    EndNotSplit,
    ExceedsBound,
    NotFunctorial,
    NotProjectiveCertified,
    NotRepresentable,
    WindowMismatch,
)
from .linalg import (
    Matrix,
    PrimeField,
    RationalField,
    column_space_basis,
    coords_in_basis,
    hstack,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
    sparse_kernel,
)
from .quiver import Arrow, Path, Quiver
from .windows import Window, underlying_quiver

PROJECTIVE = "projective"
INJECTIVE = "injective"
SIMPLE = "simple"
NOT_STANDARD = "summand is not a standard projective (semi-heredity fails here)"


class _Blocks(dict):
    """The blocks of a Rep (keyed by arrow name) or a RepMap (keyed by
    vertex) stored on the support only: exactly the blocks with both
    dimensions nonzero.  Any other key reads as the empty matrix of its
    shape, 0 x n or n x 0, built on demand and not stored."""

    __slots__ = ("field", "rows", "cols", "arrows")

    def __init__(self, field, rows: dict[str, int], cols: dict[str, int], arrows=None):
        super().__init__()
        self.field = field
        self.rows = rows  # vertex -> row count (at the arrow's source for arrow keys)
        self.cols = cols  # vertex -> column count (at the arrow's target)
        self.arrows = arrows  # arrow name -> Arrow, or None for vertex keys

    def __missing__(self, key):
        if self.arrows is None:
            rows, cols = self.rows[key], self.cols[key]
        else:
            a = self.arrows[key]
            rows, cols = self.rows[a.src], self.cols[a.tgt]
        assert not (rows and cols), f"nonempty block {key!r} is not stored"
        return Matrix(self.field, rows, cols, [])


class Rep:
    """A contravariant module over the window's path category mod relations."""

    def __init__(self, window: Window, dims: dict[str, int], maps: dict[str, Matrix],
                 validate: bool = True, cert: tuple[str, tuple[str, ...]] | None = None):
        self.window = window
        q = window.quiver
        f = window.field
        pos = q.vertex_index
        # the support and the arrows inside it, in window order, kept once:
        # representations are never mutated
        self.support = tuple(sorted((v for v, d in dims.items() if d and v in pos),
                                    key=pos.__getitem__))
        self.dims = dict.fromkeys(q.vertices, 0)
        for v in self.support:
            self.dims[v] = int(dims[v])
        d = self.dims
        self.support_arrows = tuple(sorted(
            (a for v in self.support for a in q.out_arrows[v] if d[a.tgt]),
            key=lambda a: q.arrow_index[a.name]))
        self.maps: dict[str, Matrix] = _Blocks(f, d, d, q.arrow_by_name)
        for a in self.support_arrows:
            m = maps.get(a.name)
            if m is None:
                m = Matrix.zeros(f, d[a.src], d[a.tgt])
            self.maps[a.name] = m
        for name, m in maps.items():
            a = q.arrow_by_name[name]
            assert (m.rows, m.cols) == (d[a.src], d[a.tgt]), (
                name, m.rows, m.cols, d[a.src], d[a.tgt])
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
        return sum(self.dims[v] for v in self.support)

    def is_zero(self) -> bool:
        return not self.support

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

    def act_basis(self, x: str, y: str, i: int) -> Matrix:
        """Matrix of the action of basis element i of hom(x, y), read off its
        handle: the first arrow's matrix times the action of the rest, a
        basis element of hom(z, y).  Cached by (x, y, i), so basis elements
        that share a suffix share its product, and walked without
        recursion."""
        cache = self._act_cache
        key = (x, y, i)
        m = cache.get(key)
        if m is not None:
            return m
        col = self.window.column(y)
        chain = []  # (key, first arrow) down to a cached suffix or the identity
        while m is None:
            a, j = col[key[0]].split(key[2])
            if a is None:
                break
            chain.append((key, a.name))
            key = (a.tgt, y, j)
            m = cache.get(key)
        if not chain:
            m = cache[key] = Matrix.identity(self.field, self.dims[y])
        for key, name in reversed(chain):
            # before the first product m is None, the identity at y
            m = cache[key] = self.maps[name] if m is None else self.maps[name] @ m
        return m

    def act_terms(self, terms) -> Matrix:
        """Action of a linear combination of parallel paths."""
        acc = None
        for c, p in terms:
            m = self.act(p).scale(c)
            acc = m if acc is None else acc + m
        return acc

    def check_relations(self):
        # a relation x -> y acts as an empty matrix unless M(x) and M(y) are nonzero
        for rel in self.window.relations:
            if self.dims[rel.src] and self.dims[rel.tgt]:
                m = self.act_terms(rel.terms)
                assert m.is_zero(), f"relation violated: {rel}"

    @cached_property
    def block_offsets(self) -> list[dict[str, int]]:
        """Per certified block, its first coordinate in M(x) for every vertex
        x of the support (computed once: representations are never mutated)."""
        kind, verts = self.cert
        std = PROJECTIVE if kind == "proj" else INJECTIVE
        offs = []
        run = dict.fromkeys(self.support, 0)
        for v in verts:
            offs.append(dict(run))
            block = std_module(self.window, v, std)
            for x in block.support:
                run[x] += block.dims[x]
        return offs

    def __repr__(self):
        sup = {v: self.dims[v] for v in self.support}
        return f"Rep({sup}{' cert=' + str(self.cert) if self.cert else ''})"


class RepMap:
    """A natural transformation between representations of one window."""

    def __init__(self, source: Rep, target: Rep, comps: dict[str, Matrix]):
        if source.window is not target.window:
            raise WindowMismatch("representations live over different windows")
        self.source = source
        self.target = target
        sd, td = source.dims, target.dims
        f = source.field
        self.comps: dict[str, Matrix] = _Blocks(f, td, sd)
        for v in (source.support if len(source.support) <= len(target.support)
                  else target.support):
            if sd[v] and td[v]:
                m = comps.get(v)
                if m is None:
                    m = Matrix.zeros(f, td[v], sd[v])
                self.comps[v] = m
        for v, m in comps.items():
            assert (m.rows, m.cols) == (td[v], sd[v]), v

    def is_natural(self) -> bool:
        # both sides of the square at a: x -> y are N(x) x M(y) matrices
        M, N = self.source, self.target
        for v in N.support:
            for a in M.window.quiver.out_arrows[v]:
                if M.dims[a.tgt]:
                    left = N.maps[a.name] @ self.comps[a.tgt]
                    right = self.comps[a.src] @ M.maps[a.name]
                    if left != right:
                        return False
        return True

    def then(self, other: "RepMap") -> "RepMap":
        assert self.target is other.source or self.target.dims == other.source.dims
        out = other.target.dims
        comps = {v: other.comps[v] @ m for v, m in self.comps.items() if out[v]}
        return RepMap(self.source, other.target, comps)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    @cached_property
    def kernel_bases(self) -> tuple[dict[str, Matrix], dict[str, list[int]]]:
        """`_kernel_bases` of this map, eliminated once: a cover certifies
        itself with them, and its kernel module is built from them."""
        return _kernel_bases(self.source, self.comps)

    @cached_property
    def kernel(self) -> tuple[Rep, "RepMap"]:
        """ker f with its inclusion, built from `kernel_bases` the first time
        it is read (maps are never mutated)."""
        kbases, frees = self.kernel_bases
        K = _kernel_module(self.source, kbases, frees)
        return K, RepMap(K, self.source, kbases)

    @cached_property
    def proj_coords(self):
        """`extract_proj_coords` of this map, computed once (maps are never
        mutated, so a resolution's differentials are read once per probe)."""
        return extract_proj_coords(self)

    def __add__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: m + other.comps[v] for v, m in self.comps.items()})

    def __sub__(self, other: "RepMap") -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: m - other.comps[v] for v, m in self.comps.items()})

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target,
                      {v: m.scale(c) for v, m in self.comps.items()})

    def __repr__(self):
        return f"RepMap({self.source!r} -> {self.target!r})"


def identity_map(M: Rep) -> RepMap:
    return RepMap(M, M, {v: Matrix.identity(M.field, M.dims[v]) for v in M.support})


def zero_rep(w: Window) -> Rep:
    return Rep(w, {}, {}, validate=False, cert=("proj", ()))


def zero_map(M: Rep, N: Rep) -> RepMap:
    return RepMap(M, N, {})


def _sum_object(parts: list[Rep]) -> Rep:
    """The direct sum alone: dims, block-diagonal arrow maps, and the joint
    certificate when every part is certified of one kind.

    Each part's stored blocks are placed at the part's running offsets, its
    first coordinate at each vertex of its support; a part that does not
    store an arrow contributes nothing to it, and an arrow stored by no part
    gets the zero block from Rep."""
    w = parts[0].window
    fld = w.field
    arrow_by_name = w.quiver.arrow_by_name
    dims: dict[str, int] = {}
    offsets = []
    for p in parts:
        offsets.append({v: dims.get(v, 0) for v in p.support})
        for v in p.support:
            dims[v] = dims.get(v, 0) + p.dims[v]
    maps: dict[str, Matrix] = {}
    for p, offs in zip(parts, offsets):
        for name, m in p.maps.items():
            a = arrow_by_name[name]
            out = maps.get(name)
            if out is None:
                out = maps[name] = Matrix.zeros(fld, dims[a.src], dims[a.tgt])
            cols, c0, k = out.cols, offs[a.tgt], m.cols
            for i in range(m.rows):
                base = (offs[a.src] + i) * cols + c0
                out.data[base:base + k] = m.data[i * k:(i + 1) * k]
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
        # P(v) lives on the ancestors of v.  For a: x -> z, column j of P(v)(a)
        # is a . q_j for the basis element q_j of hom(z, v): the candidate k
        # of hom(x, v) whose handle is (a, j), a unit vector before the
        # relations' reducers are applied
        col = w.column(v)
        dims = {x: hb.dim for x, hb in col.items()}
        maps = {}
        for x, hx in col.items():
            if x == v or not hx.dim:
                continue
            for k, (_, name, j, a) in enumerate(hx.handles):
                m = maps.get(name)
                if m is None:
                    m = maps[name] = Matrix.zeros(f, hx.dim, dims[a.tgt])
                cols = m.cols
                if hx.reducers:
                    m.data[j::cols] = hx.candidate_coords(k)
                else:
                    m.data[k * cols + j] = f.one
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
    maps = {name: m.transpose() for name, m in M.maps.items()}
    cert = None
    if M.cert is not None:
        cert = ("inj" if M.cert[0] == "proj" else "proj", M.cert[1])
    return Rep(op, {v: M.dims[v] for v in M.support}, maps, validate=False, cert=cert)


def _std_sum(w: Window, vertices: tuple[str, ...], kind: str) -> Rep:
    """The certified sum of the standard modules of `kind` at `vertices`,
    built once per window and vertex tuple and kept in the window's
    `_std_cache` beside the standard modules (`Window.release` drops both),
    so a cover whose top repeats reuses the sum, its `block_offsets` and its
    action cache."""
    if len(vertices) == 1:
        return std_module(w, vertices[0], kind)
    key = (vertices, kind)
    rep = w._std_cache.get(key)
    if rep is None:
        if vertices:
            rep = _sum_object([std_module(w, v, kind) for v in vertices])
        else:
            rep = Rep(w, {}, {}, validate=False,
                      cert=("proj" if kind == PROJECTIVE else "inj", ()))
        w._std_cache[key] = rep
    return rep


def proj_sum(w: Window, vertices) -> Rep:
    """Direct sum of standard projectives (empty sum allowed), one object per
    window and vertex tuple (`_std_sum`)."""
    return _std_sum(w, tuple(vertices), PROJECTIVE)


def inj_sum(w: Window, vertices) -> Rep:
    """Direct sum of standard injectives (empty sum allowed), one object per
    window and vertex tuple (`_std_sum`)."""
    return _std_sum(w, tuple(vertices), INJECTIVE)


def yoneda_map(P: Rep, v: str, N: Rep, vec: list, offs: dict[str, int],
               comps: dict[str, Matrix]) -> None:
    """Write the map P(v) -> N determined by vec in N(v) (Yoneda) into comps,
    the components of a map out of the sum P of which P(v) is a block, at
    the block's column offsets offs.

    At each vertex x of the support of P(v) where N(x) is nonzero, the
    column of basis element j of hom(x, v) is written straight into the
    component at column offs[x] + j; a component is created, as zeros, when
    its first block is written.  The column is N(a) applied to the column of
    the element's handle (a, i), basis element i of hom(a.tgt, v), so path
    actions are matrix-vector products with shared suffixes, memoized by
    (vertex, position): one small product per basis element into v, walked
    without recursion.
    """
    w = P.window
    f = w.field
    Pv = std_module(w, v, PROJECTIVE)
    col_v = w.column(v)
    # the value of each basis element of the column, filled from the
    # nearest suffix already known
    memo: dict[tuple[str, int], list] = {(v, 0): list(vec)}
    for x in Pv.support:
        nx = N.dims[x]
        if not nx:
            continue
        m = comps.get(x)
        if m is None:
            m = comps[x] = Matrix.zeros(f, nx, P.dims[x])
        cols, c0 = m.cols, offs[x]
        hx = col_v[x]
        for j in range(hx.dim):
            col = memo.get((x, j))
            if col is None:
                chain = []
                key = (x, j)
                while col is None:
                    a, i = col_v[key[0]].split(key[1])
                    chain.append((key, a.name))
                    key = (a.tgt, i)
                    col = memo.get(key)
                for key, name in reversed(chain):
                    col = memo[key] = N.maps[name].apply(col)
            m.data[c0 + j::cols] = col


def _yoneda_write(P: Rep, N: Rep, vecs: list) -> RepMap:
    """The map out of a certified projective sum P = ⊕ P(v_b) whose value at
    block b's identity path is vecs[b] in N(v_b), or zero where vecs[b] is
    None.  The one place a map out of a projective sum is written: each
    block's columns go straight into the map's components at the block's
    offsets (`yoneda_map`), with no per-block matrix."""
    comps: dict[str, Matrix] = {}
    for b, (v, vec) in enumerate(zip(P.cert[1], vecs, strict=True)):
        if vec is not None:
            yoneda_map(P, v, N, vec, P.block_offsets[b], comps)
    return RepMap(P, N, comps)


def _yoneda_read(f: RepMap) -> list[list]:
    """Per block v_b of the certified projective sum f.source, the value of f
    at the block's identity path, a vector of f.target(v_b).  The one place
    a map out of a projective sum is read.  On an acyclic window hom(v, v)
    is spanned by the identity, so it is the block's first column at v."""
    P = f.source
    vals = []
    for b, v in enumerate(P.cert[1]):
        col = P.block_offsets[b][v]
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
    q = w.quiver
    f = w.field
    # unknowns φ_v on the vertices where M and N are both nonzero
    offsets = {}
    nvars = 0
    for v in M.support:
        if N.dims[v]:
            offsets[v] = nvars
            nvars += N.dims[v] * M.dims[v]
    if nvars == 0:
        return 0, []
    # N(a)·φ_y = φ_x·M(a) for every arrow a: x -> y; its rows are indexed by
    # N(x) x M(y), so only arrows from the support of N into that of M have
    # any, and the offset of an empty unknown block is never read
    arrows = sorted((a for x in N.support for a in q.out_arrows[x] if M.dims[a.tgt]),
                    key=lambda a: q.arrow_index[a.name])
    eqs = []
    for a in arrows:
        eqs += _naturality_rows(N.maps[a.name], offsets.get(a.tgt, 0),
                                offsets.get(a.src, 0), M.maps[a.name], f.zero)
    sols = sparse_kernel(eqs, nvars, f)
    basis = []
    for vec in sols:
        comps = {}
        for v in offsets:
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
        # hom(M, D P_op) is dual to hom_op(P_op, D M): each basis map of
        # the latter, transposed, is a map M -> N
        _, op_basis = hom_basis(proj_sum(w.opposite(), N.cert[1]), dualize(M))
        return len(op_basis), [RepMap(M, N, {v: m.transpose() for v, m in g.comps.items()})
                               for g in op_basis]
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
        # every map M -> N stores the same blocks, in vertex order
        return [c for m in g.comps.values() for c in m.data]

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


@dataclass
class Factorization:
    kernel: Rep
    ker_incl: RepMap
    image: Rep
    im_incl: RepMap    # image -> target
    cokernel: Rep
    coker_proj: RepMap


def _kernel_bases(M: Rep, comps: dict[str, Matrix]) -> tuple[dict[str, Matrix],
                                                              dict[str, list[int]]]:
    """The kernel basis of the map out of M with components comps at every
    vertex of M's support, and its free columns where a component was
    eliminated.

    Only comps' stored entries are read, with `.get`.  Where a component is
    missing or zero the kernel is the whole space, with the identity basis,
    one per dimension within the call.  Elsewhere the kernel basis (in
    closed form for a one-row component, see `linalg.kernel_basis`) is an
    identity at the rows of its free columns."""
    fld = M.field
    ids: dict[int, Matrix] = {}  # shared: matrices are never mutated
    kbases, frees = {}, {}
    for v in M.support:
        comp = comps.get(v)
        if comp is None or comp.is_zero():
            n = M.dims[v]
            if n not in ids:
                ids[n] = Matrix.identity(fld, n)
            kbases[v] = ids[n]
        else:
            kbases[v], frees[v] = kernel_basis(comp)
    return kbases, frees


def _kernel_module(M: Rep, kbases: dict[str, Matrix], frees: dict[str, list[int]],
                   verts=None) -> Rep:
    """The kernel with bases kbases and free columns frees (`_kernel_bases`)
    as a module, on all of M's support, or on its vertices in verts only,
    with the arrows between them.

    An arrow's coordinates are the free rows of its image M(a)·kb(y), and
    one product kb(x)·c == M(a)·kb(y) checks them.  An arrow between two
    whole spaces keeps its matrix."""
    fld = M.field
    if verts is None:
        arrows = M.support_arrows
    else:
        kbases = {v: kbases[v] for v in verts if v in kbases}
        out_arrows = M.window.quiver.out_arrows
        arrows = [a for x in kbases for a in out_arrows[x] if a.tgt in kbases]
    kmaps = {}
    for a in arrows:
        x, y = a.src, a.tgt
        kx = kbases[x]
        if not (kx.cols and kbases[y].cols):
            continue
        img = M.maps[a.name]
        if y in frees:
            img = img @ kbases[y]
        free = frees.get(x)
        if free is None:
            kmaps[a.name] = img
            continue
        n = img.cols
        c = Matrix(fld, len(free), n, [e for i in free for e in img.data[i * n:(i + 1) * n]])
        assert kx @ c == img, "vectors not in span of basis"
        kmaps[a.name] = c
    return Rep(M.window, {v: kb.cols for v, kb in kbases.items()}, kmaps, validate=False)


def kernel_with_inclusion(f: RepMap) -> tuple[Rep, RepMap]:
    """Just the kernel subrepresentation and its inclusion (cheaper than
    a full factorization when only the kernel is needed): `f.kernel`."""
    return f.kernel


def cokernel_with_projection(f: RepMap) -> tuple[Rep, RepMap]:
    """Just the cokernel and its projection, as D ker(D f): the kernel of
    the transposed components out of D N over the opposite window
    (`_kernel_bases`, `_kernel_module`, so only f's stored components are
    read and the same exact check guards every arrow), dualized back.  Its
    basis at v, transposed, is the projection N(v) -> C(v), and C(a) =
    proj_x·N(a)·S_y, where the section S_y is the unit vectors at y's free
    coordinates.  D M is not built: the kernel never reads it."""
    N = f.target
    DN = dualize(N)
    kbases, frees = _kernel_bases(DN, {v: m.transpose() for v, m in f.comps.items()})
    C = dualize(_kernel_module(DN, kbases, frees))
    return C, RepMap(N, C, {v: kb.transpose() for v, kb in kbases.items()})


def image_with_inclusion(f: RepMap) -> tuple[Rep, RepMap]:
    """Just the image and its inclusion into f.target: at each vertex the
    columns of f's component at its pivots, and each arrow's coordinates
    solved in that basis."""
    N = f.target
    # the image lives where f has a stored block
    ibases = {v: column_space_basis(m) for v, m in f.comps.items()}
    idims = {v: ibases[v].cols for v in ibases}
    imaps = {a.name: coords_in_basis(ibases[a.src], N.maps[a.name] @ ibases[a.tgt])
             for a in N.support_arrows if idims.get(a.src) and idims.get(a.tgt)}
    I = Rep(N.window, idims, imaps, validate=False)
    return I, RepMap(I, N, ibases)


def map_factor(f: RepMap) -> Factorization:
    """Vertexwise exact kernel, image, and cokernel with induced arrow actions."""
    return Factorization(*kernel_with_inclusion(f), *image_with_inclusion(f),
                         *cokernel_with_projection(f))


def kernel_as_projectives(f: RepMap) -> tuple[tuple[str, ...], list[list]]:
    """ker f recognized as a sum of standard projectives, for f out of a
    certified projective sum: the vertices of the kernel's cover, in its
    order, and the hom coordinates of the inclusion ⊕P(verts) -> source(f)
    in the shape of `extract_proj_coords`.  A zero kernel returns at once;
    otherwise NotRepresentable is raised unless the cover's kernel is zero."""
    K, incl = kernel_with_inclusion(f)
    verts, vals = (), []
    if not K.is_zero():
        P, cover = projective_cover(K)
        if not cover.kernel[0].is_zero():
            raise NotRepresentable(NOT_STANDARD)
        verts = P.cert[1]
        vals = [incl.comps[v].apply(val) for v, val in zip(verts, _yoneda_read(cover))]
    return verts, split_proj_values(f.source.window, verts, f.source.cert[1], vals)


# -- covers, hulls, resolutions -------------------------------------------------


def _radical_vectors(M: Rep, verts) -> dict[str, list[list]]:
    """Per vertex x of `verts`, the nonzero columns of the matrices of the
    arrows out of x: these vectors span rad M(x)."""
    vecs: dict[str, list[list]] = {v: [] for v in verts}
    for a in M.support_arrows:
        out = vecs.get(a.src)
        if out is None:
            continue
        m = M.maps[a.name]
        k = m.cols
        for j in range(k):
            col = m.data[j::k]
            if any(col):
                out.append(col)
    return vecs


def top_generators(M: Rep, at=None) -> list[tuple[str, list]]:
    """Vectors projecting to a basis of top M = M / rad M, as (vertex, vector),
    at the vertices of M's support in `at` (all of it when `at` is None).

    At each vertex v the vectors spanning rad M(v) (`_radical_vectors`) are
    eliminated once, as the rows of a matrix with their coordinates
    reversed, so that a row's pivot is its vector's last nonzero
    coordinate.  The unit vectors at the other coordinates complete
    rad M(v) to a basis: e_j is taken exactly when no vector of rad M(v)
    ends at j, the same units as a column elimination of
    [spanning vectors | I] picks.  At a one-dimensional M(v) the radical is
    0 or all of M(v), so only whether some spanning vector is nonzero is
    asked.  On a finite acyclic window the generators span M modulo its
    radical at every vertex, so they generate M (graded Nakayama, by
    induction from the sinks); `projective_cover` certifies that answer."""
    fld = M.field
    verts = M.support if at is None else [v for v in M.support if v in at]
    rad = _radical_vectors(M, verts)
    gens = []
    for v in verts:
        n = M.dims[v]
        vecs = rad[v]
        if not vecs:
            units = range(n)
        elif n == 1:
            units = ()
        else:
            rows = [e for vec in vecs for e in reversed(vec)]
            ends = {n - 1 - p for p in rref(Matrix(fld, len(vecs), n, rows))[2]}
            units = [j for j in range(n) if j not in ends]
        for j in units:
            gens.append((v, [fld.one if i == j else fld.zero for i in range(n)]))
    return gens


def projective_cover(M: Rep) -> tuple[Rep, RepMap]:
    """Minimal projective cover: P(top M) onto M.

    The cover's kernel bases are eliminated here, once, at every vertex of
    P's support (`RepMap.kernel_bases`; an unstored or zero component keeps
    the identity), and they certify the cover: over an acyclic window the
    cover is onto exactly when dim P(v) - dim ker(v) = dim M(v) at every
    vertex v of M's support (rank-nullity: the cover's rank at v is
    dim M(v)).  The kernel module is built from those bases only when a
    caller reads `cover.kernel` (resolutions, `induce`, the recognition in
    `kernel_as_projectives`); a presentation builds it around M only."""
    w = M.window
    gens = top_generators(M)
    P = proj_sum(w, [v for v, _ in gens])
    if gens:
        cover = _yoneda_write(P, M, [vec for _, vec in gens])
    else:
        assert M.is_zero(), "nonzero module with zero top"
        cover = zero_map(P, M)
    kbases, _ = cover.kernel_bases
    for v in M.support:
        assert v in kbases and P.dims[v] - kbases[v].cols == M.dims[v], (
            "cover not surjective")
    return P, cover


def injective_hull(M: Rep) -> tuple[Rep, RepMap]:
    """Minimal injective hull, computed as the dual of a cover over the opposite."""
    Pop, cover = projective_cover(dualize(M))
    I = dualize(Pop)
    emb = RepMap(M, I, {v: m.transpose() for v, m in cover.comps.items()})
    return I, emb


def two_term_presentation(M: Rep, side: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The vertices of the terms (P0, P1) of the minimal projective
    presentation P1 -> P0 -> M -> 0; or of (I0, I1) of the minimal injective
    copresentation 0 -> M -> I0 -> I1, which is the dual of the projective
    presentation of D M over the opposite window (D I(v) = P(v) there).

    P0 is the projective cover of M, certified onto by its kernel bases.
    P1 is the cover of the kernel K, so its vertices are those of K's top;
    no second cover is written and the differential is not composed.  The
    top is read around M only.  Let S be the vertices where the cover is
    nonzero, with P0's blocks, and R = S with the sources of the arrows
    into S.  Off R the cover vanishes at x and at the head of every arrow
    out of x, so K(x) = P0(x) and rad K(x) = rad P0(x), and top K(x) =
    top P0(x) = 0.  K's top is therefore its top at R, which needs K only
    on R and the heads of R's out-arrows; the top is read at R alone, none
    on that rim.  The full kernel is never built here."""
    if side == PROJECTIVE:
        P0, cover = projective_cover(M)
        kbases, frees = cover.kernel_bases
        q = M.window.quiver
        near = set(frees).union(P0.cert[1])
        near.update(a.src for v in tuple(near) for a in q.in_arrows[v])
        rim = {a.tgt for v in near for a in q.out_arrows[v]}
        K = _kernel_module(P0, kbases, frees, near | rim)
        return P0.cert[1], tuple(v for v, _ in top_generators(K, near))
    if side == INJECTIVE:
        return two_term_presentation(dualize(M), PROJECTIVE)
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

    @cached_property
    def yoneda_plan(self) -> "YonedaPlan | None":
        """The `YonedaPlan` of a complex of certified projective sums, or
        None when some term is not one; compiled once (complexes are never
        mutated, so every hom complex out of this one reads the same plan)."""
        return YonedaPlan(self) if _is_sum_of(self, "proj") else None

    @cached_property
    def dual(self) -> "Complex":
        """`dualize_complex` of this complex, built once (or the complex this
        one was dualized from), so a hom complex into a complex of injective
        sums reads one `YonedaPlan` of its dual however often it is asked
        for."""
        return dualize_complex(self)


def one_term_complex(M: Rep) -> Complex:
    return Complex(M.window, 0, [M], [])


def dualize_complex(cx: Complex) -> Complex:
    """The dual complex over the opposite window: D of the degree-n term sits
    in degree -n, and each differential is transposed.  The result records
    cx as its `dual`, so an injective resolution's dual is the projective
    resolution it was read from, not a new copy."""
    terms = [dualize(t) for t in reversed(cx.terms)]
    diffs = [
        RepMap(terms[i], terms[i + 1], {v: m.transpose() for v, m in d.comps.items()})
        for i, d in enumerate(reversed(cx.diffs))
    ]
    top = cx.min_degree + len(cx.terms) - 1
    out = Complex(cx.window.opposite(), -top, terms, diffs)
    out.dual = cx
    return out


def _is_sum_of(cx: Complex, kind: str) -> bool:
    return all(t.cert is not None and t.cert[0] == kind for t in cx.terms)


class YonedaPlan:
    """What a total hom complex Hom(CX, -) reads of a complex CX of
    certified projective sums, compiled once per complex
    (`Complex.yoneda_plan`).

    `degrees` is the complex's degree range and `verts[p]` the vertex tuple
    of the degree-p term, in degree order.
    `entries(p)` lists the nonzero blocks of the differential
    CX^{p-1} -> CX^p as (a, b, [(c, i), ...]): source block a, target
    block b, and the nonzero hom coordinates of P(v_a) -> P(v_b), each with
    the position i of its basis element in hom(v_a, v_b), whose action a
    target reads by `Rep.act_basis`.  A differential's blocks are read from
    `RepMap.proj_coords` the first time a hom complex builds a differential
    through them, and kept: a complex met once, as in `ext_dim`, reads no
    more of them than that hom complex needs."""

    __slots__ = ("degrees", "verts", "_zero", "_diffs", "_entries")

    def __init__(self, cx: Complex):
        self.degrees = cx.degrees()
        self.verts: dict[int, tuple[str, ...]] = {
            p: t.cert[1] for p, t in zip(cx.degrees(), cx.terms)}
        self._zero = cx.window.field.zero
        self._diffs = dict(zip(cx.degrees()[1:], cx.diffs))  # into degree p
        self._entries: dict[int, list[tuple[int, int, list]]] = {}

    def entries(self, p: int) -> list[tuple[int, int, list]]:
        """The blocks of the differential into degree p, which must not be
        the lowest degree; read on first use."""
        out = self._entries.get(p)
        if out is None:
            zero = self._zero
            out = self._entries[p] = [
                (a, b, [(c, i) for i, c in enumerate(coords) if c != zero])
                for b, row in enumerate(self._diffs[p].proj_coords)
                for a, coords in enumerate(row) if coords is not None]
        return out


def _hom_layout(CX: Complex, CY: Complex) -> tuple[YonedaPlan, Complex, dict[int, int],
                                                     dict[tuple[int, int], int]]:
    """The layout of the total hom complex Hom(CX, CY), read from the
    projective side's `YonedaPlan` and the other side's dims alone.

    The degree-n component is the direct sum of hom(X^p, Y^q) over
    q - p = n; the differential sends f to dY . f - (-1)^n f . dX.  CX must
    consist of certified projective sums, or CY of certified injective sums;
    the latter is laid out as hom(D CY, D CX) over the opposite window, an
    isomorphic complex (same degrees, differentials equal up to transpose
    and sign), with both duals cached on their complexes (`Complex.dual`).
    By Yoneda, hom(⊕_b P(v_b), Z) = ⊕_b Z(v_b), so the (p, q) block is
    ⊕_b CY^q(v_b) over the vertices v_b of CX^p, ordered by block and then
    unit vector, as in `hom_basis`.  Returns the plan, the complex Z it is
    evaluated on (CY, or D CX), the dimension of every degree between the
    lowest and the highest, and the first coordinate of each (p, q) block
    within degree q - p.  `_hom_differential` writes the differentials of
    this layout."""
    plan = CX.yoneda_plan
    if plan is None:
        if not _is_sum_of(CY, "inj"):
            raise NotProjectiveCertified(
                "total hom needs a complex of projective sums or a target of injective sums")
        DY = CY.dual
        plan, CY = DY.yoneda_plan, CX.dual
    lo_y, degs = CY.min_degree, plan.degrees
    dims = dict.fromkeys(range(lo_y - degs.stop + 1, lo_y + len(CY.terms) - degs.start), 0)
    starts = {}
    for q, Y in enumerate(CY.terms, lo_y):
        yd = Y.dims
        for p, verts in plan.verts.items():
            n = q - p
            starts[p, q] = d = dims[n]
            for v in verts:
                d += yd[v]
            dims[n] = d
    return plan, CY, dims, starts


def _write_block(data: list, cols: int, r0: int, c0: int, block: Matrix, c) -> None:
    """Write c·block into the row-major entries data of a matrix with cols
    columns, its first entry at (r0, c0); c None writes block itself."""
    k, src = block.cols, block.data
    base = r0 * cols + c0
    for i in range(0, len(src), k):
        data[base:base + k] = src[i:i + k] if c is None else [c * x for x in src[i:i + k]]
        base += cols


def _block_starts(dims: dict[str, int], verts: tuple[str, ...], start: int) -> list[int]:
    """The first coordinate of each block b, of dimension dims[verts[b]],
    of a run of blocks from start."""
    if len(verts) == 1:
        return [start]
    return list(accumulate(map(dims.__getitem__, verts), initial=start))


def _hom_differential(plan: YonedaPlan, CY: Complex, dims: dict[int, int],
                      starts: dict[tuple[int, int], int], n: int) -> list:
    """The row-major entries of the differential out of degree n of a
    layout from `_hom_layout`, dims[n + 1] rows by dims[n] columns.

    A map P(u) -> P(v) with hom coordinates c over the paths q: u -> v
    induces Σ c_q·Z(q): Z(v) -> Z(u), so precomposing with dX is a block
    matrix of path actions, and postcomposing with dY is block diagonal with
    blocks dY(v_b).  Each block is written straight into the one flat list,
    a single path of coefficient ±1 as its action Z(q) with no scaled copy,
    the sign -(-1)^n applied as it is written.  A block's coordinates are
    running sums of Z's dims at the plan's vertices from the (p, q) block's
    start, taken only where a block is written."""
    fld = CY.window.field
    one = fld.one
    cols = dims[n]
    data = [fld.zero] * (dims.get(n + 1, 0) * cols)
    if not data:
        return data
    sign = -one if n % 2 == 0 else one  # -(-1)^n
    for p, verts in plan.verts.items():
        q = p + n
        at = starts.get((p, q))
        if at is None:
            continue
        Y, dY = CY.term(q), CY.diff(q)
        yd = Y.dims
        if dY is not None:
            comps, nd = dY.comps, CY.term(q + 1).dims
            r, c = starts[p, q + 1], at
            for v in verts:
                block = comps.get(v)
                if block is not None:
                    _write_block(data, cols, r, c, block, None)
                r += nd[v]
                c += yd[v]
        prev = plan.verts.get(p - 1)
        if prev is None:
            continue
        into = _block_starts(yd, prev, starts[p - 1, q])
        at = _block_starts(yd, verts, at)
        for a, b, coords in plan.entries(p):
            u, v = prev[a], verts[b]
            if not (yd[u] and yd[v]):
                continue
            if len(coords) == 1:
                c, i = coords[0]
                c = sign * c
                _write_block(data, cols, into[a], at[b], Y.act_basis(u, v, i),
                             None if c == one else c)
            else:
                acc = None
                for c, i in coords:
                    part = Y.act_basis(u, v, i).scale(c)
                    acc = part if acc is None else acc + part
                _write_block(data, cols, into[a], at[b], acc,
                             None if sign == one else sign)
    return data


def total_hom_dims(CX: Complex, CY: Complex) -> dict[int, int]:
    """Cohomology dimensions of the total hom complex Hom(CX, CY).

    Requires CX to consist of projectives or CY of injectives (the
    resolutions produced here always satisfy this), so homotopy classes
    compute derived homs; otherwise NotProjectiveCertified is raised.
    One pass: the component dimensions come from the projective side's
    `YonedaPlan` and the other side's dims alone (`_hom_layout`), and a
    differential is written (`_hom_differential`) and ranked only where the
    components on both of its sides are nonzero, since elsewhere its rank
    is 0.  A one-row differential's rank is read off its entries, as
    `linalg.rank` does; two or more rows go through `rref`.
    """
    plan, CY, dims, starts = _hom_layout(CX, CY)
    out = dict(dims)
    for n, cols in dims.items():
        rows = dims.get(n + 1)
        if cols and rows:
            data = _hom_differential(plan, CY, dims, starts, n)
            if rows == 1:
                r = 1 if any(data) else 0
            else:
                r = rref(Matrix(CY.window.field, rows, cols, data))[0]
            out[n] -= r
            out[n + 1] -= r
    assert min(out.values()) >= 0
    return out


@dataclass
class Resolution:
    complex: Complex


def _resolve(M: Rep, length: int) -> tuple[Complex, bool]:
    """The terms P_length -> ... -> P_0 of the minimal projective resolution
    of M (fewer where it ends sooner), in degrees -length..0, and whether the
    resolution ends there.  A certified sum of standard projectives is its
    own resolution."""
    w = M.window
    if M.cert is not None and M.cert[0] == "proj":
        return Complex(w, 0, [M], []), True
    P0, cover = projective_cover(M)
    terms = [P0]
    diffs: list[RepMap] = []
    current, prev_incl = cover.kernel
    while not current.is_zero() and len(diffs) < length:
        P, cov = projective_cover(current)
        terms.append(P)
        diffs.append(cov.then(prev_incl))  # P -> previous term
        current, prev_incl = cov.kernel
    terms.reverse()
    diffs.reverse()
    return Complex(w, -len(diffs), terms, diffs), current.is_zero()


def resolution(M: Rep, side: str, max_len: int) -> Resolution:
    """Minimal resolution by standard projectives (degrees -n..0) or standard
    injectives (degrees 0..n); raises ExceedsBound past max_len syzygies.
    The projective resolution is `_resolve`'s; the injective resolution is
    the dual of the projective resolution of D M over the opposite window,
    so a certified sum of injectives is its own.  The Serre check reads its
    probes' resolutions off `_resolve` instead, with the injective side
    taken from the simples' resolutions (`serre._usable_probes`)."""
    if side == INJECTIVE:
        return Resolution(dualize_complex(resolution(dualize(M), PROJECTIVE, max_len).complex))
    if side != PROJECTIVE:
        raise ValueError(f"unknown side {side!r}")
    cx, ended = _resolve(M, max_len)
    if not ended:
        raise ExceedsBound(f"projective resolution exceeds length {max_len}")
    return Resolution(cx)


def proj_dim(M: Rep, max_len: int) -> int:
    if M.is_zero():
        return 0
    res = resolution(M, PROJECTIVE, max_len)
    return len(res.complex.terms) - 1


def inj_dim(M: Rep, max_len: int) -> int:
    if M.is_zero():
        return 0
    res = resolution(M, INJECTIVE, max_len)
    return len(res.complex.terms) - 1


def ext_dim(i: int, M: Rep, N: Rep, max_len: int) -> int:
    """dim Ext^i(M, N): H^i of the total hom complex from a minimal projective
    resolution of M into N, evaluated by Yoneda as in the Serre check."""
    assert i >= 0
    if M.is_zero() or N.is_zero():
        return 0
    res = resolution(M, PROJECTIVE, max_len)
    return total_hom_dims(res.complex, one_term_complex(N)).get(i, 0)


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
        c = fld.div(-tr, fld(k))
        coeffs[n - k] = c
        for i in range(n):
            Mk[i, i] = Mk[i, i] + c
    return coeffs


def _rational_roots(coeffs: list) -> list[Fraction]:
    """Rational roots of a polynomial with Fraction coefficients."""
    # clear denominators
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
    if isinstance(fld, PrimeField):
        if fld.p > 101:
            return []
        return [fld(i) for i in range(fld.p)]
    assert isinstance(fld, RationalField)
    lams = set()
    for v in M.support:
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
    K, ker_incl = kernel_with_inclusion(hp)
    I, im_incl = image_with_inclusion(hp)
    kd, idm = K.total_dim(), I.total_dim()
    if kd == 0 or idm == 0:
        return None
    # M = ker + im vertexwise; build the projections along the sum
    fld = M.field
    projK, projI = {}, {}
    for v in M.support:
        kb, ib = ker_incl.comps[v], im_incl.comps[v]
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
    return ker_incl, RepMap(M, K, projK), im_incl, RepMap(M, I, projI)


def _is_scalar_plus_nilpotent(M: Rep, h: RepMap) -> bool:
    """Whether h = λ + nilpotent for a scalar λ of the field.  Each h_v - λ
    is then nilpotent, so λ = tr(h_v) / dim M(v) at any vertex whose
    dimension is nonzero in the field; only when the characteristic divides
    every dimension is each scalar tried."""
    fld = M.field
    n = M.total_dim()
    if n == 0:
        return True
    v = next((v for v in M.support if fld(M.dims[v]) != fld.zero), None)
    if v is None:
        lams = [fld(i) for i in range(fld.p)]
    else:
        hv = h.comps[v]
        trace = sum((hv[i, i] for i in range(hv.rows)), fld.zero)
        lams = [fld.div(trace, fld(M.dims[v]))]
    for lam in lams:
        if _endo_power(h - identity_map(M).scale(lam), n).is_zero():
            return True
    return False


def decompose_with_maps(M: Rep) -> list[tuple[Rep, RepMap, RepMap]]:
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
    pool = list(basis)
    for i in range(len(basis)):
        for j in range(len(basis)):
            pool.append(basis[i].then(basis[j]))
            if j > i:
                pool.append(basis[i] + basis[j])
                pool.append(basis[i] - basis[j])
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
            for part, pincl, pproj in decompose_with_maps(ki.source):
                out.append((part, pincl.then(ki), kp.then(pproj)))
            for part, pincl, pproj in decompose_with_maps(ii.source):
                out.append((part, pincl.then(ii), ip.then(pproj)))
            return out
    for h in pool:
        if not _is_scalar_plus_nilpotent(M, h):
            raise EndNotSplit(
                "an endomorphism is neither nilpotent nor invertible-split over the base field")
    return [(M, identity_map(M), identity_map(M))]


def decompose(M: Rep) -> list[Rep]:
    parts = decompose_with_maps(M)
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
    maps = {a.name: M.act(arrow_map[a.name]) for a in target.quiver.arrows
            if dims[a.src] and dims[a.tgt]}
    out = Rep(target, dims, maps, validate=False)
    for rel in target.relations:
        if not out.act_terms(rel.terms).is_zero():
            raise NotFunctorial("assigned paths violate a relation of the target window")
    return out


def induce(M: Rep, source: Window, target: Window, vertex_map: dict[str, str],
           arrow_map: dict[str, Path]) -> Rep:
    """Left adjoint of restriction: transport a projective presentation of M.

    Standard projectives P(v) map to P(vertex_map[v]); the presentation's
    differential is transported along the arrow-to-path assignment and the
    induced module is its cokernel.
    """
    assert M.window is source
    if M.is_zero():
        return zero_rep(target)
    P0, cover = projective_cover(M)
    K0, ker_incl = cover.kernel
    P1, cover1 = projective_cover(K0)
    d = cover1.then(ker_incl)  # P1 -> P0 over the source
    tgt_entries = [
        [None if cell is None else
         _transport_coords(source, target, vs, vt, cell, vertex_map, arrow_map)
         for vs, cell in zip(P1.cert[1], row)]
        for vt, row in zip(P0.cert[1], extract_proj_coords(d))]
    A = proj_sum(target, [vertex_map[v] for v in P1.cert[1]])
    B = proj_sum(target, [vertex_map[v] for v in P0.cert[1]])
    g = realize_proj_coords(A, B, tgt_entries)
    return cokernel_with_projection(g)[0]


def _transport_coords(source: Window, target: Window, x: str, y: str, coords,
                      vertex_map, arrow_map) -> list:
    hb_src = source.hom(x, y)
    terms = []
    for c, k in zip(coords, hb_src.free_idx):
        if c == source.field.zero:
            continue
        arrows: list[str] = []
        for aname in hb_src.arrows_of(k):
            arrows.extend(arrow_map[aname].arrows)
        terms.append((c, Path(vertex_map[x], vertex_map[y], tuple(arrows))))
    return target.hom(vertex_map[x], vertex_map[y]).expand(terms)


def split_proj_values(w: Window, src, tgt, vals) -> list[list]:
    """Hom coordinates of the map ⊕P(src) -> ⊕P(tgt) whose value at source
    block j's identity path is vals[j], a vector of ⊕_i P(tgt_i)(src_j):
    entries[i][j] is its slice at target block i, the coordinates of
    P(src_j) -> P(tgt_i) over hom(src_j, tgt_i), or None when zero."""
    zero = w.field.zero
    cols = []
    for vs, val in zip(src, vals, strict=True):
        col, start = [], 0
        for wt in tgt:
            d = w.hom(vs, wt).dim
            coords = val[start:start + d]
            start += d
            col.append(coords if any(c != zero for c in coords) else None)
        cols.append(col)
    return [[col[i] for col in cols] for i in range(len(tgt))]


def extract_proj_coords(f: RepMap) -> list[list]:
    """Coordinates of a map between certified projective sums: entries[i][j]
    holds the hom coordinates of the block map P(src_j) -> P(tgt_i), or None
    for a zero block, read off each source block's value at its identity."""
    P, Q = f.source, f.target
    assert P.cert is not None and P.cert[0] == "proj"
    assert Q.cert is not None and Q.cert[0] == "proj"
    return split_proj_values(P.window, P.cert[1], Q.cert[1], _yoneda_read(f))


def realize_proj_coords(P: Rep, Q: Rep, entries) -> RepMap:
    """Inverse of extract_proj_coords: each source block's cells, placed at
    the target blocks' offsets, are its value at the identity path."""
    assert P.cert is not None and Q.cert is not None
    zero = P.field.zero
    qoffs = Q.block_offsets
    vecs = []
    for j, vs in enumerate(P.cert[1]):
        # a cell without coordinates has hom(vs, t) = 0, and vs may lie
        # outside Q's support
        cells = [(qoffs[i][vs], row[j]) for i, row in enumerate(entries) if row[j]]
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
    """The thread quiver of an expanded window, its base window, one chain
    window per thread arrow and each thread's (source, target), built anew
    on each call."""
    tq = w.source_tq
    assert tq is not None, "window was not produced by expand()"
    base = Window(underlying_quiver(tq), tq.relations, field=w.field)
    chains = {}
    for t in tq.thread_arrows:
        elems = list(w.embed_t[t.name])
        arrows = [
            Arrow(f"{t.name}.{i}", elems[i], elems[i + 1])
            for i in range(len(elems) - 1)
        ]
        chains[t.name] = Window(Quiver(elems, arrows), field=w.field)
    ends = {t.name: (t.src, t.tgt) for t in tq.thread_arrows}
    return tq, base, chains, ends


def to_triple(M: Rep) -> TripleRep:
    """Split a representation of an expanded window into its glued data."""
    w = M.window
    tq, base, chains, ends = _window_triple_scaffold(w)
    # N: restrict along the functor base -> window (thread arrow -> chain composite)
    vmap = {v: v for v in tq.vertices}
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
    tq = w.source_tq
    assert tq is not None, "window was not produced by expand()"
    f = w.field
    dims = {}
    for v in tq.vertices:
        dims[v] = trip.N.dims[v]
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
