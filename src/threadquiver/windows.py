"""Thread quivers and their expansion into finite windows.

A thread quiver is a quiver whose arrows split into standard arrows and
thread arrows, the latter labeled by a plain linear order.  Expansion
replaces every thread arrow by a finite truncation of its thread order
(a chain glued to the arrow's endpoints at the chain's minimum and
maximum), producing an ordinary quiver with relations plus bookkeeping:
which vertices are truncation artifacts and how the original data embeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import NonAcyclic, TooLarge
from .linalg import QQ
from .orders import (
    FiniteChain,
    LinearOrderExpr,
    contains_thread_order,
    thread_order,
    truncate,
)
from .quiver import Arrow, HomBasis, Path, Quiver, Relation, hom_basis_paths, identity_path


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

    def arrow_names(self) -> set[str]:
        return {a.name for a in self.standard_arrows} | {t.name for t in self.thread_arrows}


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


class Window:
    """A finite quiver with relations presenting a slice of the glued category.

    `boundary` marks vertices whose neighborhood is a truncation artifact;
    `embed_r` records where the thread quiver's own vertices land and
    `embed_t` where each thread chain's elements land.  Hom-space bases of
    the path category mod relations are computed lazily and cached.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: list[Relation],
        boundary: set[str] | frozenset[str] = frozenset(),
        embed_r: dict[str, str] | None = None,
        embed_t: dict[str, dict[str, str]] | None = None,
        depth: int | None = None,
        field=QQ,
        name: str = "",
    ):
        if not quiver.is_acyclic():
            raise NonAcyclic("windows must be acyclic")
        self.quiver = quiver
        self.relations = list(relations)
        self.boundary = frozenset(boundary)
        self.embed_r = dict(embed_r or {})
        self.embed_t = {k: dict(v) for k, v in (embed_t or {}).items()}
        self.depth = depth
        self.field = field
        self.name = name
        self._hom_cache: dict[tuple[str, str], HomBasis] = {}
        self._std_cache: dict = {}
        self._topo = self.quiver.topological_order()
        self._opposite = None
        self.source_tq = None  # set by expand()

    # -- basic structure ----------------------------------------------------

    @property
    def vertices(self) -> list[str]:
        return self.quiver.vertices

    def topological_order(self) -> list[str]:
        return list(self._topo)

    def interior_vertices(self) -> list[str]:
        return [v for v in self.quiver.vertices if v not in self.boundary]

    # -- hom spaces of the presented category --------------------------------

    @cached_property
    def _hom(self):
        # one lookup shared by every HomBasis of this window, bound on the
        # first hom so that a window that never builds one holds no cycle
        return self.hom

    def hom(self, x: str, y: str) -> HomBasis:
        key = (x, y)
        cache = self._hom_cache
        hb = cache.get(key)
        if hb is None:
            q = self.quiver
            # hom(x, y) is built from the hom(z, y) of the vertices z between
            # x and y.  A cached hom(z, y) implies the same for every vertex
            # between z and y, so the layers are filled only when a direct
            # successor of x other than y (whose hom needs no other) is
            # missing, nearest y first, and no build recurses along a path.
            for a in q.out_arrows[x]:
                if a.tgt != y and (a.tgt, y) not in cache and y in q.reachable_from(a.tgt):
                    for z in q.between(x, y)[:-1]:
                        if (z, y) not in cache:
                            self.hom(z, y)
                    break
            hb = hom_basis_paths(q, self.relations, x, y, self.field, self._hom)
            cache[key] = hb
        return hb

    def hom_dim(self, x: str, y: str) -> int:
        return self.hom(x, y).dim

    def compose_coords(self, x: str, y: str, z: str, f_coords, g_coords):
        """Coordinates of g . f for f in hom(x,y), g in hom(y,z)."""
        hxy, hyz, hxz = self.hom(x, y), self.hom(y, z), self.hom(x, z)
        terms = []
        for i, ci in enumerate(f_coords):
            if ci == self.field.zero:
                continue
            for j, cj in enumerate(g_coords):
                if cj == self.field.zero:
                    continue
                terms.append((ci * cj, hxy.basis[i].then(hyz.basis[j])))
        if not terms:
            return [self.field.zero] * hxz.dim
        return hxz.expand(terms)

    def identity_coords(self, v: str):
        return self.hom(v, v).expand_path(identity_path(v))

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
            embed_r=self.embed_r,
            embed_t=self.embed_t,
            depth=self.depth,
            field=self.field,
            name=f"{self.name}^op" if self.name else "",
        )
        w._opposite = self
        self._opposite = w
        return w

    def __repr__(self):
        return (
            f"Window({self.name or 'anon'}: {len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
            f"{len(self.boundary)} boundary)"
        )


def expand(tq: ThreadQuiver, depth: int, field=QQ, name: str = "") -> Window:
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
    embed_r = {v: v for v in tq.vertices}
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
        embed_r=embed_r,
        embed_t=embed_t,
        depth=depth,
        field=field,
        name=name,
    )
    w.source_tq = tq
    return w


# -- window isomorphism -------------------------------------------------------


def _vertex_signature(w: Window) -> dict[str, tuple]:
    q = w.quiver
    # refine (indeg, outdeg) by neighbor degree multisets and longest-path level
    level: dict[str, int] = {}
    for v in w.topological_order():
        level[v] = max((level[a.src] + 1 for a in q.in_arrows[v]), default=0)
    base = {
        v: (len(q.in_arrows[v]), len(q.out_arrows[v]), level[v]) for v in q.vertices
    }
    sig = {}
    for v in q.vertices:
        ins = sorted(base[a.src] for a in q.in_arrows[v])
        outs = sorted(base[a.tgt] for a in q.out_arrows[v])
        sig[v] = (base[v], tuple(ins), tuple(outs))
    return sig


def _arrow_counts(q: Quiver) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for a in q.arrows:
        out[(a.src, a.tgt)] = out.get((a.src, a.tgt), 0) + 1
    return out


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


def window_iso(
    w1: Window, w2: Window, max_vertices: int = 60, max_tries: int = 20000
) -> dict[str, str] | None:
    """A quiver isomorphism respecting relations, or None.

    Backtracking on degree/level signatures; complete for windows up to
    `max_vertices` vertices (raises TooLarge beyond that).
    """
    n1, n2 = len(w1.quiver.vertices), len(w2.quiver.vertices)
    if n1 > max_vertices or n2 > max_vertices:
        raise TooLarge(f"window_iso is limited to {max_vertices} vertices")
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
    ac1, ac2 = _arrow_counts(w1.quiver), _arrow_counts(w2.quiver)
    assignment: dict[str, str] = {}
    used: set[str] = set()

    def consistent(v, w):
        for u, x in assignment.items():
            if ac1.get((u, v), 0) != ac2.get((x, w), 0):
                return False
            if ac1.get((v, u), 0) != ac2.get((w, x), 0):
                return False
        return True

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
        if tries >= max_tries:
            raise TooLarge("window_iso exhausted its search budget")
    return None


def window_from_quiver(
    quiver: Quiver, relations=(), boundary=frozenset(), field=QQ, name: str = ""
) -> Window:
    """Convenience constructor for hand-built windows (no thread data)."""
    return Window(
        quiver,
        list(relations),
        boundary=boundary,
        embed_r={v: v for v in quiver.vertices},
        embed_t={},
        depth=None,
        field=field,
        name=name,
    )

