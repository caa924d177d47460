"""Thread quivers and their expansion into finite windows.

A thread quiver is a quiver whose arrows split into standard arrows and
thread arrows, the latter labeled by a plain linear order.  Expansion
replaces every thread arrow by a finite truncation of its thread order
(a chain glued to the arrow's endpoints at the chain's minimum and
maximum), producing an ordinary quiver with relations plus bookkeeping: which
vertices are truncation artifacts (`boundary`) and where each chain's
elements land (`embed_t`); the thread quiver's own vertices keep their names.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from .errors import NonAcyclic, ThreadQuiverError, TooLarge
from .linalg import QQ, Matrix, rank
from .orders import (
    FiniteChain,
    LinearOrderExpr,
    contains_thread_order,
    thread_order,
    truncate,
)
from .quiver import Arrow, HomBasis, Path, Quiver, Relation, hom_basis_paths


@dataclass(frozen=True)
class ThreadArrow:
    name: str
    src: str
    tgt: str
    label: LinearOrderExpr


class ThreadQuiver:
    def __init__(self, vertices, standard_arrows, thread_arrows, relations=()):
        self.vertices = list(vertices)
        self.standard_arrows = [a if isinstance(a, Arrow) else Arrow(*a) for a in standard_arrows]
        self.thread_arrows = [
            t if isinstance(t, ThreadArrow) else ThreadArrow(*t) for t in thread_arrows
        ]
        self.relations = list(relations)
        names = [a.name for a in self.standard_arrows] + [t.name for t in self.thread_arrows]
        assert len(set(names)) == len(names), "arrow names must be unique"
        vs = set(self.vertices)
        assert len(vs) == len(self.vertices), "duplicate vertices"
        for a in self.standard_arrows + self.thread_arrows:
            assert a.src in vs and a.tgt in vs, f"undeclared endpoint on {a.name}"
        for t in self.thread_arrows:
            assert not contains_thread_order(t.label), "thread labels must be plain orders"


def underlying_quiver(tq: ThreadQuiver) -> Quiver:
    """Forget labels: thread arrows become plain arrows."""
    arrows = list(tq.standard_arrows) + [Arrow(t.name, t.src, t.tgt) for t in tq.thread_arrows]
    return Quiver(tq.vertices, arrows)


def _substitute(rel: Relation, replacement: dict[str, tuple[str, ...]]) -> Relation:
    terms = []
    for c, p in rel.terms:
        arrows: list[str] = []
        for a in p.arrows:
            arrows.extend(replacement.get(a, (a,)))
        terms.append((c, Path(p.src, p.tgt, tuple(arrows))))
    return Relation(tuple(terms))


def normalize(tq: ThreadQuiver) -> ThreadQuiver:
    """Isolate every thread arrow between fresh buffer vertices.

    Each x ..> y becomes x -> a, a ..> b, b -> y with fresh a, b, so the
    thread arrow's endpoints support no other structure.  Occurrences of the
    thread arrow inside relations become the three-arrow composite.
    """
    vertices = list(tq.vertices)
    std = list(tq.standard_arrows)
    thr = []
    replacement: dict[str, tuple[str, ...]] = {}
    for t in tq.thread_arrows:
        a, b = f"{t.name}.a", f"{t.name}.b"
        assert a not in vertices and b not in vertices
        vertices.extend([a, b])
        pre, post = f"{t.name}.in", f"{t.name}.out"
        std.append(Arrow(pre, t.src, a))
        std.append(Arrow(post, b, t.tgt))
        thr.append(ThreadArrow(t.name, a, b, t.label))
        replacement[t.name] = (pre, t.name, post)
    rels = [_substitute(r, replacement) for r in tq.relations]
    return ThreadQuiver(vertices, std, thr, rels)


def _in_field(rel: Relation, field) -> Relation:
    """rel with each coefficient converted to `field`; a coefficient with no
    value there (a denominator that is 0 mod p) raises ThreadQuiverError
    naming the relation and the field."""
    try:
        return Relation(tuple((field(c), p) for c, p in rel.terms))
    except ZeroDivisionError:
        text = " + ".join(f"{c} {'*'.join(reversed(p.arrows))}" for c, p in rel.terms)
        raise ThreadQuiverError(
            f"relation {text} = 0 has a coefficient with no value in {field.name}") from None


class Window:
    """A finite quiver with relations presenting a slice of the glued category.

    `boundary` marks vertices whose neighborhood is a truncation artifact and
    `embed_t` records where each thread chain's elements land; `expand` sets
    `source_tq`, the thread quiver the window truncates, whose own vertices
    keep their names in the window.  Hom-space bases of the path category mod
    relations are computed lazily and cached, one column hom(-, y) per target
    y (`column`), as are the standard modules and the opposite window.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations=(),
        boundary: set[str] | frozenset[str] = frozenset(),
        embed_t: dict[str, dict[str, str]] | None = None,
        field=QQ,
    ):
        if not quiver.is_acyclic():
            raise NonAcyclic("windows must be acyclic")
        self.quiver = quiver
        # each coefficient is converted once, so `expand` and `opposite`
        # hand every reader the field's own elements
        self.relations = [_in_field(r, field) for r in relations]
        self.boundary = frozenset(boundary)
        self.embed_t = {k: dict(v) for k, v in (embed_t or {}).items()}
        self.field = field
        # per target y, the column hom(-, y) built so far, and the sweep of
        # its ancestors: the walk, the vertices walked so far in order, and
        # the position of each
        self._hom_cache: dict[str, dict[str, HomBasis]] = {}
        self._sweeps: dict[str, tuple[Iterator[str], list[str], dict[str, int]]] = {}
        self._zero_hom = HomBasis(field, None, None, (), quiver, None)
        self._std_cache: dict = {}
        self._opposite = None
        self.source_tq = None  # set by expand()

    # -- basic structure ----------------------------------------------------

    @property
    def vertices(self) -> list[str]:
        return self.quiver.vertices

    def interior_vertices(self) -> list[str]:
        return [v for v in self.quiver.vertices if v not in self.boundary]

    # -- hom spaces of the presented category --------------------------------

    @cached_property
    def _relations_at(self) -> dict[str, list[Relation]]:
        """The relations by source vertex, indexed once per window."""
        out: dict[str, list[Relation]] = {}
        for r in self.relations:
            out.setdefault(r.src, []).append(r)
        return out

    def hom(self, x: str, y: str) -> HomBasis:
        """hom(x, y) from the column of y, or the zero basis when x does not
        reach y.

        The column hom(-, y) is filled by one sweep over the ancestors of y
        (the vertices that reach it) in reverse topological order, y first
        (`Quiver.ancestors`): each hom(x, y) reads the hom(z, y) of its
        first arrows from the part of the column already built
        (`hom_basis_paths`), so no hom is built twice and none recurses along
        a path.  A miss walks the ancestors of y down to x's level, builds
        the part of the sweep before x, each vertex by its own call of
        `hom`, and then hom(x, y); the rest of the column waits for the next
        miss, so a hom between near vertices costs only the levels above x.
        """
        col = self._hom_cache.get(y)
        if col is None:
            col = self._hom_cache[y] = {}
            self._sweeps[y] = (self.quiver.ancestors(y), [], {})
        else:
            hb = col.get(x)
            if hb is not None:
                return hb
        walk, order, pos = self._sweeps[y]
        i = pos.get(x)
        if i is None:
            # every vertex that reaches y comes out of the walk before any of
            # lower level, so x does not reach y once one of them has
            level = self.quiver.levels()
            low = level[x]
            for z in walk:
                pos[z] = len(order)
                order.append(z)
                if z == x or level[z] < low:
                    break
            i = pos.get(x)
            if i is None:
                return self._zero_hom
        for z in order[len(col):i]:
            self.hom(z, y)
        hb = col[x] = hom_basis_paths(self.quiver, self._relations_at.get(x, ()), x, y,
                                      self.field, col)
        return hb

    def column(self, y: str) -> dict[str, HomBasis]:
        """hom(-, y) on every vertex that reaches y, in the sweep's order (y
        first)."""
        self.hom(y, y)
        walk, order, pos = self._sweeps[y]
        for z in walk:
            pos[z] = len(order)
            order.append(z)
        col = self._hom_cache[y]
        if len(col) < len(order):
            self.hom(order[-1], y)
        return col

    def hom_dim(self, x: str, y: str) -> int:
        return self.hom(x, y).dim

    # -- derived windows ------------------------------------------------------

    def opposite(self) -> "Window":
        """The window of the opposite category: arrows and paths reversed."""
        if self._opposite is not None:
            return self._opposite
        q = Quiver(
            list(self.quiver.vertices),
            [Arrow(a.name, a.tgt, a.src) for a in self.quiver.arrows],
        )
        rels = []
        for r in self.relations:
            rels.append(
                Relation(
                    tuple(
                        (c, Path(p.tgt, p.src, tuple(reversed(p.arrows))))
                        for c, p in r.terms
                    )
                )
            )
        w = Window(
            q,
            rels,
            boundary=self.boundary,
            embed_t=self.embed_t,
            field=self.field,
        )
        w._opposite = self
        self._opposite = w
        return w

    def release(self) -> None:
        """Drop the caches of this window and of its opposite (the hom
        columns, the standard modules and the certified sums of them that
        `reps.proj_sum` and `reps.inj_sum` keep by vertex tuple), then unlink
        the two, so that reference counting frees them once the caller lets
        go.

        Everything cached is a reference cycle or holds one: each `HomBasis`
        of a column reads the column it lies in, a standard module refers
        back to its window through `Rep.window`, and each window to its
        opposite.  Without `release` these are cycles that only a full
        garbage collection frees, so the columns are emptied.  Call it when
        the window's work is done.  The window stays usable, since its caches
        refill on demand and `opposite()` builds a new opposite, but modules
        built before the call keep the old opposite, and a `HomBasis` taken
        before the call, whose handles name positions in the emptied column,
        no longer builds its paths nor expands a path longer than one arrow.
        The glued model's base and chain windows are not cached here:
        `reps.to_triple` builds them on each call.
        """
        for w in (self, self._opposite):
            if w is not None:
                for col in w._hom_cache.values():
                    col.clear()
                w._hom_cache = {}
                w._sweeps = {}
                w._std_cache = {}
                w._opposite = None

    def __repr__(self):
        return (
            f"Window({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
            f"{len(self.boundary)} boundary)"
        )


def expand(tq: ThreadQuiver, depth: int, field=QQ) -> Window:
    """Replace each thread arrow by the depth-d truncation of its thread order.

    The chain's minimum and maximum are identified with the thread arrow's
    source and target; interior chain elements become fresh vertices, and the
    cut-adjacent ones are recorded as the window boundary.  Occurrences of a
    thread arrow in relations are rewritten as the full chain composite.
    """
    uq = underlying_quiver(tq)
    if not uq.is_acyclic():
        raise NonAcyclic("underlying quiver must be acyclic")
    vertices = list(tq.vertices)
    arrows = list(tq.standard_arrows)
    boundary: set[str] = set()
    embed_t: dict[str, dict[str, str]] = {}
    replacement: dict[str, tuple[str, ...]] = {}
    for t in tq.thread_arrows:
        chain: FiniteChain = truncate(thread_order(t.label), depth)
        assert len(chain) >= 2
        vmap: dict[str, str] = {}
        chain_vertices = []
        for i, e in enumerate(chain.elements):
            if i == 0:
                vmap[e] = t.src
            elif i == len(chain) - 1:
                vmap[e] = t.tgt
            else:
                fresh = f"{t.name}:{e}"
                assert fresh not in vertices
                vertices.append(fresh)
                vmap[e] = fresh
                if chain.cut_adjacent[i]:
                    boundary.add(fresh)
        chain_vertices = [vmap[e] for e in chain.elements]
        chain_arrows = []
        for i in range(len(chain_vertices) - 1):
            aname = f"{t.name}.{i}"
            arrows.append(Arrow(aname, chain_vertices[i], chain_vertices[i + 1]))
            chain_arrows.append(aname)
        replacement[t.name] = tuple(chain_arrows)
        embed_t[t.name] = vmap
    relations = [_substitute(r, replacement) for r in tq.relations]
    w = Window(
        Quiver(vertices, arrows),
        relations,
        boundary=boundary,
        embed_t=embed_t,
        field=field,
    )
    w.source_tq = tq
    return w


# -- radical and irreducible maps ----------------------------------------------


def arrow_pairs(w: Window) -> list[tuple[str, str]]:
    """Distinct (src, tgt) pairs of the window's arrows: the only vertex pairs
    whose irreducible maps can be nonzero."""
    return list(dict.fromkeys((a.src, a.tgt) for a in w.quiver.arrows))


def rad_irr_dims(w: Window, x: str, y: str) -> tuple[int, int, int]:
    """(dim rad, dim rad^2, dim irr) between two vertices of an acyclic window.

    Between distinct vertices of an acyclic window every morphism is radical.
    A path of length >= 2 is an arrow a: x -> z followed by a path z -> y with
    z != y, so rad^2 is spanned by the classes of a . q over those arrows and
    the basis q of hom(z, y); this holds whatever the relations.  Those are
    the candidates of hom(x, y) whose first arrow does not end at y.  Without
    an arrow x -> y every path has length >= 2, so irr(x, y) = 0.
    """
    if x == y:
        return 0, 0, 0
    hxy = w.hom(x, y)
    radd = hxy.dim
    if radd == 0:
        return 0, 0, 0
    vectors = [hxy.candidate_coords(k) for k, (_, _, _, a) in enumerate(hxy.handles)
               if a.tgt != y]
    if not vectors:
        return radd, 0, radd
    m = Matrix(w.field, len(vectors), hxy.dim, [c for vec in vectors for c in vec])
    rad2 = rank(m)
    return radd, rad2, radd - rad2


def gabriel_neighbours(w: Window) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """(in-neighbours, out-neighbours) of every vertex in the Gabriel quiver:
    u appears irr(u, v) times among the in-neighbours of v."""
    ins: dict[str, list[str]] = {v: [] for v in w.quiver.vertices}
    outs: dict[str, list[str]] = {v: [] for v in w.quiver.vertices}
    for x, y in arrow_pairs(w):
        _, _, irr = rad_irr_dims(w, x, y)
        outs[x].extend([y] * irr)
        ins[y].extend([x] * irr)
    return ins, outs


# -- window isomorphism -------------------------------------------------------


def _vertex_signature(w: Window) -> dict[str, tuple]:
    q = w.quiver
    # refine (indeg, outdeg) by neighbor degree multisets and longest-path level
    level = q.levels()
    base = {
        v: (len(q.in_arrows[v]), len(q.out_arrows[v]), level[v]) for v in q.vertices
    }
    sig = {}
    for v in q.vertices:
        ins = sorted(base[a.src] for a in q.in_arrows[v])
        outs = sorted(base[a.tgt] for a in q.out_arrows[v])
        sig[v] = (base[v], tuple(ins), tuple(outs))
    return sig


def _parallel_groups(q: Quiver) -> dict[tuple[str, str], list[str]]:
    out: dict[tuple[str, str], list[str]] = {}
    for a in q.arrows:
        out.setdefault((a.src, a.tgt), []).append(a.name)
    return out


def _relations_respected(w1: Window, w2: Window, vmap: dict[str, str]) -> bool:
    """Check the induced functor sends relations of w1 into the ideal of w2
    and vice versa."""
    # arrow bijection compatible with vmap; parallel arrows matched in name
    # order (adequate at desk scale: no fixture has parallel arrows carrying
    # relation-sensitive structure)
    amap: dict[str, str] = {}
    pools = {key: sorted(names) for key, names in _parallel_groups(w2.quiver).items()}
    for a in sorted(w1.quiver.arrows, key=lambda a: a.name):
        pool = pools.get((vmap[a.src], vmap[a.tgt]))
        if not pool:
            return False
        amap[a.name] = pool.pop(0)

    def pushes_to_zero(rels, target: Window, vm, am) -> bool:
        for rel in rels:
            terms = [
                (c, Path(vm[p.src], vm[p.tgt], tuple(am[x] for x in p.arrows)))
                for c, p in rel.terms
            ]
            hb = target.hom(terms[0][1].src, terms[0][1].tgt)
            if any(c != target.field.zero for c in hb.expand(terms)):
                return False
        return True

    inv_v = {b: a for a, b in vmap.items()}
    inv_a = {b: a for a, b in amap.items()}
    return pushes_to_zero(w1.relations, w2, vmap, amap) and pushes_to_zero(
        w2.relations, w1, inv_v, inv_a
    )


def _consistency(w1: Window, w2: Window, assignment: dict[str, str], used: set[str]):
    """window_iso's test of one more pair v -> w against the partial
    bijection `assignment` (whose image is `used`): it keeps the number of
    arrows between v and every assigned u, in both directions.

    Only neighbours are visited.  Each assigned neighbour u of v must go to
    a neighbour of w with the same arrow counts; then every other assigned
    vertex goes to a non-neighbour of w exactly when w has no more used
    neighbours than v has assigned ones."""
    # the number of arrows between each ordered pair of vertices, and each
    # vertex's neighbours along them
    ac1, ac2 = ({key: len(names) for key, names in _parallel_groups(w.quiver).items()}
                for w in (w1, w2))
    nb1: dict[str, set[str]] = {}
    nb2: dict[str, set[str]] = {}
    for ac, nb in ((ac1, nb1), (ac2, nb2)):
        for u, v in ac:
            nb.setdefault(u, set()).add(v)
            nb.setdefault(v, set()).add(u)

    def consistent(v, w):
        placed = 0
        for u in nb1.get(v, ()):
            x = assignment.get(u)
            if x is None:
                continue
            if ac1.get((u, v), 0) != ac2.get((x, w), 0):
                return False
            if ac1.get((v, u), 0) != ac2.get((w, x), 0):
                return False
            placed += 1
        return placed == len(used.intersection(nb2.get(w, ())))

    return consistent


ISO_MAX_VERTICES = 60
ISO_MAX_TRIES = 20000


def window_iso(w1: Window, w2: Window) -> dict[str, str] | None:
    """A quiver isomorphism respecting relations, or None.

    Backtracking on degree/level signatures, for windows of at most
    ISO_MAX_VERTICES vertices; raises TooLarge beyond that, or once
    ISO_MAX_TRIES vertex bijections have failed the relation test.
    """
    n1, n2 = len(w1.quiver.vertices), len(w2.quiver.vertices)
    if n1 > ISO_MAX_VERTICES or n2 > ISO_MAX_VERTICES:
        raise TooLarge(f"window_iso is limited to {ISO_MAX_VERTICES} vertices")
    if n1 != n2 or len(w1.quiver.arrows) != len(w2.quiver.arrows):
        return None
    if len(w1.relations) != len(w2.relations):
        return None
    sig1, sig2 = _vertex_signature(w1), _vertex_signature(w2)
    by_sig: dict[tuple, list[str]] = {}
    for v, s in sig2.items():
        by_sig.setdefault(s, []).append(v)
    counts_check: dict[tuple, int] = {}
    for s in sig1.values():
        counts_check[s] = counts_check.get(s, 0) + 1
    if {s: len(vs) for s, vs in by_sig.items()} != counts_check:
        return None
    order = sorted(w1.quiver.vertices, key=lambda v: (len(by_sig[sig1[v]]), v))
    assignment: dict[str, str] = {}
    used: set[str] = set()
    consistent = _consistency(w1, w2, assignment, used)

    def search(i: int):
        if i == len(order):
            yield dict(assignment)
            return
        v = order[i]
        for w in by_sig[sig1[v]]:
            if w in used or not consistent(v, w):
                continue
            assignment[v] = w
            used.add(w)
            yield from search(i + 1)
            del assignment[v]
            used.discard(w)

    tries = 0
    for candidate in search(0):
        tries += 1
        if _relations_respected(w1, w2, candidate):
            return candidate
        if tries >= ISO_MAX_TRIES:
            raise TooLarge("window_iso exhausted its search budget")
    return None
