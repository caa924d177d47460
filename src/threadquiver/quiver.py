"""Quivers, paths, k-linear relations, and hom-space bases of kQ mod relations.

Conventions: a path stores its arrows in composition order left-to-right,
so Path(x, z, (a, b)) means a: x -> y followed by b: y -> z.  Hom spaces are
only computed for acyclic quivers, where they are finite dimensional, and
relations are combinations of parallel paths of positive length.  Paths are
ordered by (length, name tuple); the basis of hom(x, y) is the set of
standard paths, those that are not the smallest path of any element of the
two-sided ideal I generated by the relations.

hom(x, y) is built as a layered quotient from the hom(z, y) of the arrows
a: x -> z, vertex by vertex in reverse topological order, so the cost
follows hom dimensions rather than the number of paths.  This gives the
standard basis because the order is compatible with concatenation on both
sides: if a . q is standard then so is q (were q the smallest path of some
f in I(z, y), a . q would be the smallest path of a . f), so the standard
paths are among the candidates a . q with q in the basis of hom(z, y).
Every path x -> y is congruent modulo the a . I(z, y) to a combination of
candidates, and that rewriting only replaces a path by larger ones; so
I(x, y) meets the span of the candidates in the span of the rewritten rows
r . q (r a relation starting at x), with the same smallest paths as I(x, y).
Reducing those rows in the same column order gives the same standard paths
and the same normal forms as reducing all of I(x, y) over all paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonAcyclic
from .linalg import Matrix, rref


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True)
class Path:
    src: str
    tgt: str
    arrows: tuple[str, ...]

    def __len__(self):
        return len(self.arrows)

    def then(self, other: "Path") -> "Path":
        """self followed by other (requires self.tgt == other.src)."""
        assert self.tgt == other.src, (self, other)
        return Path(self.src, other.tgt, self.arrows + other.arrows)

    def sort_key(self):
        return (len(self.arrows), self.arrows)


def identity_path(v: str) -> Path:
    return Path(v, v, ())


@dataclass(frozen=True)
class Relation:
    """A k-linear combination of parallel paths, set to zero in the category."""

    terms: tuple[tuple[object, Path], ...]  # (coefficient, path)

    def __post_init__(self):
        assert self.terms, "relation needs at least one term"
        src = self.terms[0][1].src
        tgt = self.terms[0][1].tgt
        for _, p in self.terms:
            assert p.src == src and p.tgt == tgt, "relation paths must be parallel"

    @property
    def src(self):
        return self.terms[0][1].src

    @property
    def tgt(self):
        return self.terms[0][1].tgt


class Quiver:
    """Finite quiver; loops and parallel arrows allowed."""

    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.vertex_set = set(self.vertices)
        assert len(self.vertex_set) == len(self.vertices), "duplicate vertex names"
        self.arrows: list[Arrow] = []
        seen = set()
        for a in arrows:
            if not isinstance(a, Arrow):
                a = Arrow(*a)
            assert a.name not in seen, f"duplicate arrow name {a.name}"
            seen.add(a.name)
            assert a.src in self.vertex_set, f"unknown source {a.src}"
            assert a.tgt in self.vertex_set, f"unknown target {a.tgt}"
            self.arrows.append(a)
        self.arrow_by_name = {a.name: a for a in self.arrows}
        self.out_arrows: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        self.in_arrows: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self.out_arrows[a.src].append(a)
            self.in_arrows[a.tgt].append(a)
        self._reach: dict[str, set[str]] | None = None
        self._topo_cache = None

    def path(self, arrow_names: tuple[str, ...], src: str | None = None) -> Path:
        """Build a Path from arrow names in composition order; checks composability."""
        if not arrow_names:
            assert src is not None, "identity path needs a vertex"
            return identity_path(src)
        first = self.arrow_by_name[arrow_names[0]]
        cur = first.src
        for name in arrow_names:
            a = self.arrow_by_name[name]
            assert a.src == cur, f"non-composable at {name}"
            cur = a.tgt
        return Path(first.src, cur, tuple(arrow_names))

    def topological_order(self) -> list[str]:
        """Vertices in topological order; raises NonAcyclic on a cycle."""
        if getattr(self, "_topo_cache", None) is not None:
            if self._topo_cache == "cyclic":
                raise NonAcyclic("quiver has a directed cycle")
            return list(self._topo_cache)
        indeg = {v: 0 for v in self.vertices}
        for a in self.arrows:
            indeg[a.tgt] += 1
        stack = sorted([v for v in self.vertices if indeg[v] == 0], reverse=True)
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for a in sorted(self.out_arrows[v], key=lambda a: a.name, reverse=True):
                indeg[a.tgt] -= 1
                if indeg[a.tgt] == 0:
                    stack.append(a.tgt)
        if len(order) != len(self.vertices):
            self._topo_cache = "cyclic"
            raise NonAcyclic("quiver has a directed cycle")
        self._topo_cache = order
        return list(order)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except NonAcyclic:
            return False

    def reachable_from(self, x: str) -> set[str]:
        """Vertices reachable from x (x included); raises NonAcyclic on a
        cycle.  All sets are built at once along a reverse topological sweep."""
        if self._reach is None:
            reach: dict[str, set[str]] = {}
            for v in reversed(self.topological_order()):
                acc = {v}
                for a in self.out_arrows[v]:
                    acc |= reach[a.tgt]
                reach[v] = acc
            self._reach = reach
        return self._reach[x]

    def between(self, x: str, y: str) -> list[str]:
        """Vertices on some path x -> y, in reverse topological order (y first).

        The post-order of a depth-first walk from x through the vertices
        that reach y; the cost follows the answer, not the quiver.
        """
        if y not in self.reachable_from(x):
            return []
        order, seen = [], {x}
        stack = [(x, iter(self.out_arrows[x]))]
        while stack:
            v, arrows = stack[-1]
            for a in arrows:
                if a.tgt not in seen and y in self.reachable_from(a.tgt):
                    seen.add(a.tgt)
                    stack.append((a.tgt, iter(self.out_arrows[a.tgt])))
                    break
            else:
                stack.pop()
                order.append(v)
        return order


def is_strongly_locally_finite(q: Quiver) -> bool:
    """For a finite quiver this reduces to acyclicity."""
    return q.is_acyclic()




class HomBasis:
    """Basis data for the hom space (x, y) in kQ modulo relations.

    `paths` lists the candidates, sorted by `Path.sort_key`: the identity
    when x = y, and otherwise every path a . q for an arrow a: x -> z and a
    basis path q of hom(z, y).  `basis` is the subset of candidates whose
    classes form a basis of the quotient, and `expand` rewrites any parallel
    linear combination of paths in that basis.  `quiver` and the lookup
    `hom` are shared by all bases built together; `expand` reads hom(z, y)
    from them to rewrite a path that is not a candidate.
    """

    __slots__ = ("field", "paths", "index", "reducers", "free_idx", "basis", "dim",
                 "quiver", "hom")

    def __init__(self, field, paths: list[Path], quiver: Quiver, hom):
        self.field = field
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.reducers = []  # rref rows (pivot column, other entries) of the relation span
        self.free_idx = list(range(len(paths)))
        self.basis = paths
        self.dim = len(paths)
        self.quiver = quiver
        self.hom = hom

    def _reduce_by(self, rows: list[list]) -> None:
        """Quotient by the span of `rows`, vectors over the candidates."""
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

    def expand(self, terms) -> list:
        """Coordinates of sum(c * path) in the chosen basis."""
        return self._reduce(self._candidate_vector(terms))

    def expand_path(self, p: Path) -> list:
        return self.expand([(self.field.one, p)])

    def _reduce(self, vec: list) -> list:
        zero = self.field.zero
        for pivot_col, row in self.reducers:
            f = vec[pivot_col]
            if f != zero:
                for j, rv in row:
                    vec[j] = vec[j] - f * rv
        return [vec[i] for i in self.free_idx]

    def _candidate_vector(self, terms) -> list:
        """sum(c * path) over the candidates: a path a . t that is not a
        candidate contributes a . (t rewritten in the basis of hom(z, y))."""
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

    def _add_prepended(self, vec: list, c, name: str, coords: list, y: str) -> None:
        """Add c * a . (sum_j coords[j] q_j) to `vec`, where a is the arrow
        `name`: x -> z and q_j is the basis of hom(z, y)."""
        a = self.quiver.arrow_by_name[name]
        zero = self.field.zero
        for cj, q in zip(coords, self.hom(a.tgt, y).basis):
            if cj != zero:
                k = self.index[Path(a.src, y, (name,) + q.arrows)]
                vec[k] = vec[k] + c * cj

    def _tail_coords(self, p: Path) -> list:
        """Coordinates of p without its first arrow in the basis of hom(z, y).

        The longest suffix of p that is a candidate is read off directly and
        the arrows before it are prepended one at a time, nearest y first
        (the action of the arrows on the projective at y), so nothing
        recurses along the path.
        """
        field, hom, arrow = self.field, self.hom, self.quiver.arrow_by_name
        y, arrows = p.tgt, p.arrows
        i = 1
        while True:
            z = arrow[arrows[i]].src
            hb = hom(z, y)
            k = hb.index.get(Path(z, y, arrows[i:]))
            if k is not None:
                break
            i += 1
        vec = [field.zero] * len(hb.paths)
        vec[k] = field.one
        coords = hb._reduce(vec)
        for j in range(i - 1, 0, -1):
            hb = hom(arrow[arrows[j]].src, y)
            vec = [field.zero] * len(hb.paths)
            hb._add_prepended(vec, field.one, arrows[j], coords, y)
            coords = hb._reduce(vec)
        return coords


def hom_basis_paths(q: Quiver, relations: list[Relation], x: str, y: str, field,
                    hom=None) -> HomBasis:
    """Hom space of the path category mod the two-sided ideal of the relations.

    A layered quotient: the candidates (see `HomBasis`) come from the bases
    of hom(z, y) for the arrows a: x -> z, and the ideal rows are r . q for
    each relation r starting at x and each basis path q of hom(r.tgt, y),
    rewritten over the candidates through those bases.  rref of the rows
    gives the basis and the reducers.

    `hom(z, y)` must return the basis for every vertex z != x on a path
    x -> y; a window (acyclic by construction) passes its cached
    `Window.hom`.  Without it, the quiver is checked to be acyclic and those
    bases are built here first, nearest y first, and kept for this call.
    """
    if hom is None:
        if not q.is_acyclic():
            raise NonAcyclic("hom spaces of cyclic quivers are infinite dimensional")
        memo = {}

        def hom(z, t):
            return memo[z, t]

        for z in q.between(x, y)[:-1]:
            memo[z, y] = hom_basis_paths(q, relations, z, y, field, hom)
    if x == y:
        return HomBasis(field, [identity_path(x)], q, hom)
    firsts = [a for a in q.out_arrows[x] if y in q.reachable_from(a.tgt)]
    paths = sorted(
        (Path(x, y, (a.name,) + b.arrows) for a in firsts for b in hom(a.tgt, y).basis),
        key=Path.sort_key,
    )
    hb = HomBasis(field, paths, q, hom)
    if not paths:
        return hb
    zero = field.zero
    rows = []
    for rel in relations:
        if rel.src != x or y not in q.reachable_from(rel.tgt):
            continue
        for b in hom(rel.tgt, y).basis:
            vec = hb._candidate_vector([(c, t.then(b)) for c, t in rel.terms])
            if any(v != zero for v in vec):
                rows.append(vec)
    if rows:
        hb._reduce_by(rows)
    return hb
