"""Quivers, paths, k-linear relations, and hom-space bases of kQ mod relations.

Conventions: a path stores its arrows in composition order left-to-right,
so Path(x, z, (a, b)) means a: x -> y followed by b: y -> z.  Hom spaces are
only computed for acyclic quivers, where they are finite dimensional, and
relations are combinations of parallel paths of positive length.  Paths are
ordered by (length, name tuple); the basis of hom(x, y) is the set of
standard paths, those that are not the smallest path of any element of the
two-sided ideal I generated by the relations.

The hom spaces into one target y are built together, as the column
hom(-, y): one sweep over the ancestors of y (the vertices that reach it),
nearest y first, built up to the hom asked for, so each hom(x, y) is a
layered quotient of the hom(z, y) already built for the arrows a: x -> z
into that set, and a vertex outside it has the zero hom.  The cost follows
hom dimensions rather than the number of paths, and no reachability walk
runs per hom.  This gives the standard basis because the order is
compatible with concatenation on both sides: if a . q is standard then so
is q (were q the smallest path of some f in I(z, y), a . q would be the
smallest path of a . f), so the standard paths are among the candidates
a . q with q in the basis of hom(z, y).
The candidates are ordered by the key (len q + 1, name of a, position of q
in the basis of hom(z, y)), which is their order as paths (`candidates`).
That key is also how a candidate is stored: as a handle, its length, its
first arrow a and the position j of q in the basis of hom(z, y), with no
path built.  A basis element is thus (first arrow, position in hom(z, y)),
and its path is walked off the handles of the column when it is read.
Every path x -> y is congruent modulo the a . I(z, y) to a combination of
candidates, and that rewriting only replaces a path by larger ones; so
I(x, y) meets the span of the candidates in the span of the rewritten rows
r . q (r a relation starting at x), with the same smallest paths as I(x, y).
Reducing those rows in the same column order gives the same standard paths
and the same normal forms as reducing all of I(x, y) over all paths.

A linear combination of paths moves between quivers by one of two
rewrites, and by no other code: `map_terms` carries it along a map of
quivers (a vertex map, and each arrow to a tuple of arrows; an arrow the
map does not name is kept), and `opposite_terms` reads it in the opposite
quiver (the ends swap and the arrows run in reverse order).  An element of
a hom space enters them as (coefficient, basis path) pairs
(`HomBasis.terms`) and comes back through `HomBasis.expand`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from heapq import heappop, heappush

from .errors import NonAcyclic
from .linalg import Matrix, rref


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str


@dataclass(frozen=True, slots=True)
class Path:
    src: str
    tgt: str
    arrows: tuple[str, ...]


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


def map_terms(terms, vertex_map: dict[str, str],
              arrow_map: dict[str, tuple[str, ...]]) -> tuple:
    """A combination sum(c * path) carried along a map of quivers: each
    path's ends through `vertex_map`, and each of its arrows replaced by the
    arrows `arrow_map` gives it, in order; an arrow the map does not name
    is kept."""
    return tuple(
        (c, Path(vertex_map[p.src], vertex_map[p.tgt],
                 tuple(b for a in p.arrows for b in arrow_map.get(a, (a,)))))
        for c, p in terms)


def opposite_terms(terms) -> tuple:
    """A combination sum(c * path) read in the opposite quiver: each path's
    ends swap and its arrows run in reverse order."""
    return tuple((c, Path(p.tgt, p.src, p.arrows[::-1])) for c, p in terms)


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
        self._topo_cache = None
        self._level: dict[str, int] | None = None

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        """Position of each vertex in `vertices`."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrow_index(self) -> dict[str, int]:
        """Position of each arrow name in `arrows`."""
        return {a.name: i for i, a in enumerate(self.arrows)}

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

    def levels(self) -> dict[str, int]:
        """Each vertex's level, the length of the longest path into it: every
        arrow raises the level, so a path x -> y needs level(x) < level(y)
        unless x = y.  Raises NonAcyclic on a cycle."""
        if self._level is None:
            level: dict[str, int] = {}
            for v in self.topological_order():
                level[v] = max((level[a.src] + 1 for a in self.in_arrows[v]), default=0)
            self._level = level
        return self._level

    def ancestors(self, y: str) -> Iterator[str]:
        """Yield the vertices that reach y (y included) in reverse topological
        order, y first: a walk back from y that always goes on from the
        vertex of highest level found so far.  Every arrow raises the level,
        so the vertices come out by nonincreasing level, each before any
        vertex of lower level, and a caller that stops early has walked only
        the levels above where it stopped.  Raises NonAcyclic on a cycle."""
        level = self._level or self.levels()
        seen = {y}
        heap = [(-level[y], 0, y)]
        while heap:
            v = heappop(heap)[2]
            yield v
            for a in self.in_arrows[v]:
                s = a.src
                if s not in seen:
                    seen.add(s)
                    heappush(heap, (-level[s], len(seen), s))


def is_strongly_locally_finite(q: Quiver) -> bool:
    """For a finite quiver this reduces to acyclicity."""
    return q.is_acyclic()


# the candidates' positions, one range per length, shared by every basis
# without relation rows
_shared_range = cache(range)


class HomBasis:
    """Basis data for the hom space (x, y) in kQ modulo relations.

    The candidates are stored as handles, in the order of `candidates`: the
    handle of a . q_j, for an arrow a: x -> z and the basis element q_j of
    hom(z, y), is the tuple (length, name of a, j, a), and the identity of
    hom(x, x) is the one handle (0, "", 0, None).  So a basis element is its
    first arrow and a position in hom(z, y), and its path is read off the
    handles of `column`, the column hom(-, y) the basis lies in (`arrows_of`).
    `free_idx` lists the candidates whose classes form a basis of the
    quotient, in order, and `reducers` the rref rows of the relations that
    rewrite the others.  No path is stored: `paths` builds every candidate
    as one when read, and `terms` the basis elements of an element.

    `expand` rewrites any parallel linear combination of paths in the basis.
    A path's coordinates come from prepending its arrows one at a time,
    right to left, to coordinate vectors, starting from the identity at y
    (`_prepend`): prepending a: x -> z to coordinates over hom(z, y) puts
    them at the candidates a . q_j and reduces, so no path is hashed and
    nothing recurses along the path.  `quiver` is the window's quiver, and
    the vertices z along the path lie nearer y than x, so the sweep built
    hom(z, y) before x.  The position of each candidate by first arrow
    (`_by_arrow`) is built on the first call that prepends an arrow, so a
    basis that is only read holds no dict.
    """

    __slots__ = ("field", "src", "tgt", "handles", "_by_arrow", "reducers", "free_idx",
                 "dim", "quiver", "column")

    def __init__(self, field, x: str | None, y: str | None, handles, quiver: Quiver, column):
        self.field = field
        self.src = x
        self.tgt = y
        self.handles = handles
        self._by_arrow = None
        # rref rows (pivot column, other entries) of the relation span; a
        # basis without relation rows shares the empty tuple and the range
        # of its length, so it holds no container of its own
        self.reducers = ()
        self.free_idx = _shared_range(len(handles))
        self.dim = len(handles)
        self.quiver = quiver
        self.column = column

    def split(self, i: int) -> tuple[Arrow | None, int]:
        """Basis element i as its first arrow a: x -> z and the position of
        the rest in the basis of hom(z, y); (None, 0) for the identity."""
        _, _, j, a = self.handles[self.free_idx[i]]
        return a, j

    def arrows_of(self, k: int) -> tuple[str, ...]:
        """The arrow names of candidate k, walked off the handles: its first
        arrow, then those of its basis element of hom(z, y), down to the
        identity at y."""
        names = []
        _, _, j, a = self.handles[k]
        while a is not None:
            names.append(a.name)
            a, j = self.column[a.tgt].split(j)
        return tuple(names)

    @property
    def paths(self) -> list[Path]:
        """Every candidate as a path, built when read."""
        return [Path(self.src, self.tgt, self.arrows_of(k)) for k in range(len(self.handles))]

    def terms(self, coords) -> list[tuple[object, Path]]:
        """The element of coordinates `coords` as (coefficient, basis path)
        pairs, zero coordinates left out."""
        zero = self.field.zero
        return [(c, Path(self.src, self.tgt, self.arrows_of(k)))
                for c, k in zip(coords, self.free_idx) if c != zero]

    def _reduce_by(self, rows: list[list]) -> None:
        """Quotient by the span of `rows`, vectors over the candidates."""
        zero = self.field.zero
        n = len(self.handles)
        _, red, pivots = rref(Matrix(self.field, len(rows), n, [c for row in rows for c in row]))
        self.reducers = []
        for r, pc in enumerate(pivots):
            entries = red.data[r * n:(r + 1) * n]
            self.reducers.append(
                (pc, [(j, c) for j, c in enumerate(entries) if j != pc and c != zero]))
        pivot_set = set(pivots)
        self.free_idx = [i for i in range(n) if i not in pivot_set]
        self.dim = len(self.free_idx)

    def expand(self, terms) -> list:
        """Coordinates of sum(c * path) in the chosen basis."""
        return self._reduce(self._candidate_vector(terms))

    def expand_path(self, p: Path) -> list:
        return self.expand([(self.field.one, p)])

    def candidate_coords(self, k: int) -> list:
        """Coordinates of candidate k in the chosen basis."""
        vec = [self.field.zero] * len(self.handles)
        vec[k] = self.field.one
        return self._reduce(vec)

    def _reduce(self, vec: list) -> list:
        zero = self.field.zero
        for pivot_col, row in self.reducers:
            f = vec[pivot_col]
            if f != zero:
                for j, rv in row:
                    vec[j] = vec[j] - f * rv
        return [vec[i] for i in self.free_idx]

    def _candidate_vector(self, terms) -> list:
        """sum(c * path) over the candidates: a path a . t contributes a
        prepended to the coordinates of t in hom(z, y)."""
        field = self.field
        vec = [field.zero] * len(self.handles)
        for c, p in terms:
            c = field(c)
            if p.arrows:
                self._add_prepended(vec, c, p.arrows[0], self._prepend([field.one], p.arrows[1:]))
            else:  # the identity of hom(x, x)
                vec[0] = vec[0] + c
        return vec

    def _add_prepended(self, vec: list, c, name: str, coords: list) -> None:
        """Add c * a . (sum_j coords[j] q_j) to `vec`, where a is the arrow
        `name`: x -> z and q_j is the basis of hom(z, y)."""
        if self._by_arrow is None:
            self._by_arrow = {}
            for k, h in enumerate(self.handles):
                self._by_arrow.setdefault(h[1], []).append(k)
        zero = self.field.zero
        # behind one first arrow the candidates keep the order of j; an arrow
        # into a zero hom(z, y) has none, and its coordinates are empty
        for k, cj in zip(self._by_arrow.get(name, ()), coords):
            if cj != zero:
                vec[k] = vec[k] + c * cj

    def _prepend(self, coords: list, arrows) -> list:
        """The coordinates in hom(z, y) of the path `arrows` from z followed
        by the element of coordinates `coords`, its arrows prepended one at
        a time, nearest y first (the action of the arrows on the projective
        at y)."""
        field, col, arrow = self.field, self.column, self.quiver.arrow_by_name
        for name in reversed(arrows):
            hb = col[arrow[name].src]
            vec = [field.zero] * len(hb.handles)
            hb._add_prepended(vec, field.one, name, coords)
            coords = hb._reduce(vec)
        return coords


IDENTITY = ((0, "", 0, None),)  # the handles of hom(x, x)


def candidates(q: Quiver, x: str, column) -> list[tuple]:
    """The handles of the candidates a . q_j of hom(x, y), x != y, in their
    order.

    `column` is the column hom(-, y) as the sweep has built it, which holds
    hom(z, y) for every vertex z that reaches y and lies nearer y than x;
    the first arrows are the arrows a: x -> z into it, and q_j runs over the
    basis of hom(z, y).  Each handle is the tuple (len q_j + 1, name of a,
    j, a), and the list is sorted by its first three entries, which no two
    candidates share.  That is the order of the paths a . q_j by (length,
    arrow names): among paths of one length the first arrow decides, and
    behind one arrow the equal-length basis paths of hom(z, y) are already
    in that order, by induction.  The lengths are read off the handles of
    hom(z, y), so no path is built to sort the candidates.
    """
    keyed = []
    for a in q.out_arrows[x]:
        hz = column.get(a.tgt)
        if hz is not None:
            name, hs = a.name, hz.handles
            keyed.extend((hs[k][0] + 1, name, j, a) for j, k in enumerate(hz.free_idx))
    keyed.sort()
    return keyed


def hom_basis_paths(q: Quiver, relations: list[Relation], x: str, y: str, field,
                    column) -> HomBasis:
    """hom(x, y) of the path category mod the two-sided ideal of the relations,
    one step of the sweep that builds the column hom(-, y).

    A layered quotient: the candidates come from `candidates` over `column`,
    the part of the column already built, and the ideal rows are r . q for
    each relation r of `relations` (those that start at x) and each basis
    element q of hom(r.tgt, y): each term t of r is prepended to the unit
    coordinates of q, its arrows after the first through the homs of the
    column and its first arrow onto the candidates.  rref of the rows gives
    the basis and the reducers.  The basis keeps `column` for `expand`; the
    one caller is `Window.hom`, one call per hom it builds.
    """
    if x == y:
        return HomBasis(field, x, y, IDENTITY, q, column)
    hb = HomBasis(field, x, y, candidates(q, x, column), q, column)
    if not hb.handles:
        return hb
    zero, one = field.zero, field.one
    rows = []
    for rel in relations:
        hz = column.get(rel.tgt)
        if hz is None:
            continue
        terms = [(c, t.arrows) for c, t in rel.terms]  # c is in field: see `Window`
        for b in range(hz.dim):
            unit = [zero] * hz.dim
            unit[b] = one
            vec = [zero] * len(hb.handles)
            for c, arrows in terms:
                hb._add_prepended(vec, c, arrows[0], hb._prepend(unit, arrows[1:]))
            if any(v != zero for v in vec):
                rows.append(vec)
    if rows:
        hb._reduce_by(rows)
    return hb
