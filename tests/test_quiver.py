import importlib
import pkgutil
import random
import re

import pytest
from conftest import (
    all_pairs_reach,
    arrow_path,
    comm_grid_window,
    compose_coords,
    draw_relation,
    enumerate_paths,
    expand_path_projective,
    fixture_windows,
    identity_path,
    path_enumeration_hom_basis,
    path_index_column,
    path_sort_key,
    random_thread_quivers,
    tq_mixed,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.errors import NonAcyclic
from threadquiver.linalg import QQ
from threadquiver.quiver import (
    Path,
    Quiver,
    Relation,
    is_strongly_locally_finite,
)
from threadquiver.reps import INJECTIVE, PROJECTIVE, SIMPLE, projective_cover, std_module
import threadquiver
from threadquiver import quiver, reps, windows
from threadquiver.windows import Window, expand


def a2():
    return Quiver(["1", "2"], [("a", "1", "2")])


def a3():
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


def square():
    return Quiver(
        ["p", "q", "r", "s"],
        [("a", "p", "q"), ("b", "q", "s"), ("c", "p", "r"), ("d", "r", "s")],
    )


def count_paths_matrix(q, x, y, max_len):
    """Independent oracle: path counts via adjacency-matrix powers."""
    idx = {v: i for i, v in enumerate(q.vertices)}
    n = len(q.vertices)
    adj = [[0] * n for _ in range(n)]
    for a in q.arrows:
        adj[idx[a.src]][idx[a.tgt]] += 1
    total = 1 if x == y else 0
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(max_len):
        power = [
            [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        total += power[idx[x]][idx[y]]
    return total


def test_slf_a2():
    assert is_strongly_locally_finite(a2())


def test_slf_loop():
    q = Quiver(["v"], [("l", "v", "v")])
    assert not is_strongly_locally_finite(q)


def test_slf_two_cycle():
    # oracle: explicit cycle enumeration by walking arrows
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    cycles = [
        (x, y)
        for x in q.arrows
        for y in q.arrows
        if x.tgt == y.src and y.tgt == x.src
    ]
    assert cycles
    assert not is_strongly_locally_finite(q)


def test_enumerate_paths_a2():
    ps = enumerate_paths(a2(), "1", "2", 5)
    assert ps == [Path("1", "2", ("a",))]


def test_enumerate_paths_a3_composite():
    ps = enumerate_paths(a3(), "1", "3", 5)
    assert ps == [Path("1", "3", ("a", "b"))]


def test_enumerate_paths_square():
    ps = enumerate_paths(square(), "p", "s", 5)
    assert len(ps) == 2
    assert all(len(p) == 2 for p in ps)


def test_enumerate_identity():
    ps = enumerate_paths(a2(), "1", "1", 3)
    assert ps == [identity_path("1")]


def test_hom_a2_no_relations():
    hb = Window(a2()).hom("1", "2")
    assert hb.dim == 1


def test_hom_a3_zero_relation():
    q = a3()
    rel = Relation(((1, arrow_path(q, ("a", "b"))),))
    assert Window(q, [rel]).hom("1", "3").dim == 0
    assert Window(q).hom("1", "3").dim == 1


def test_hom_commutative_square():
    q = square()
    rel = Relation(((1, arrow_path(q, ("a", "b"))), (-1, arrow_path(q, ("c", "d")))))
    hb = Window(q, [rel]).hom("p", "s")
    assert hb.dim == 1
    # both squares expand to the same class
    assert hb.expand_path(arrow_path(q, ("a", "b"))) == hb.expand_path(arrow_path(q, ("c", "d")))


def test_expand_of_no_terms_is_the_zero_vector():
    # a zero hom, an identity hom and a hom with reducers
    sq = square()
    rel = Relation(((1, arrow_path(sq, ("a", "b"))), (-1, arrow_path(sq, ("c", "d")))))
    w = Window(sq, [rel])
    homs = [w.hom("s", "p"), w.hom("p", "p"), w.hom("p", "s")]
    assert homs[0].paths == [] and homs[1].dim == 1 and homs[2].reducers
    for hb in homs:
        assert hb.expand([]) == [QQ.zero] * hb.dim
    # so the composite of zero coordinates needs no branch of its own
    zero = [QQ.zero]
    assert compose_coords(w, "p", "q", "s", zero, zero) == [QQ.zero]


def test_hom_ideal_propagates():
    # zero relation a.b = 0 in 1->2->3->4 kills the long path 1->4
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    )
    rel = Relation(((1, arrow_path(q, ("a", "b"))),))
    w = Window(q, [rel])
    assert w.hom("1", "4").dim == 0
    assert w.hom("2", "4").dim == 1


def test_hom_rejects_cycles():
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    with pytest.raises(NonAcyclic):
        Window(q)


def test_reachable_from_rejects_cycles():
    # `ancestors`, the reachability query the hom sweep runs on
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    for _ in range(2):  # the cycle is not cached as an answer
        with pytest.raises(NonAcyclic):
            list(q.ancestors("a"))


def assert_ancestors_match_oracle(q):
    """`ancestors` against the all-pairs sets: the vertices that reach y,
    y first, each after every vertex it has an arrow to, by nonincreasing
    level."""
    reach = all_pairs_reach(q)
    for y in q.vertices:
        anc = list(q.ancestors(y))
        assert anc[0] == y
        assert len(anc) == len(set(anc))
        assert set(anc) == {z for z in q.vertices if y in reach[z]}, y
        levels = [q.levels()[z] for z in anc]
        assert levels == sorted(levels, reverse=True), y
        pos = {z: i for i, z in enumerate(anc)}
        for a in q.arrows:
            if a.src in pos and a.tgt in pos:
                assert pos[a.tgt] < pos[a.src], (y, a)


@st.composite
def shuffled_dags(draw):
    """A random DAG whose vertex list is not in topological order: arrows
    run forward in a hidden ranking, and the names are listed shuffled."""
    n = draw(st.integers(1, 8))
    rank_of = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=14))
    arrows = [(f"e{k}", f"v{i}", f"v{j}") for k, (i, j) in enumerate(pairs)
              if rank_of[i] < rank_of[j]]
    order = [f"v{i}" for i in range(n)]
    random.Random(draw(st.integers(0, 2**16))).shuffle(order)
    return Quiver(order, arrows)


@given(shuffled_dags())
@settings(max_examples=80, deadline=None)
def test_ancestors_match_all_pairs_oracle_on_random_dags(q):
    assert_ancestors_match_oracle(q)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_ancestors_match_all_pairs_oracle_on_fixtures(depth):
    for _, w in fixture_windows([depth]):
        assert_ancestors_match_oracle(w.quiver)
        assert_ancestors_match_oracle(w.opposite().quiver)


def test_ancestors_on_a_long_line():
    n = 1200
    q = Quiver([f"v{i}" for i in range(n)],
               [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    assert list(q.ancestors(f"v{n - 1}")) == [f"v{i}" for i in range(n - 1, -1, -1)]
    assert list(q.ancestors("v0")) == ["v0"]


def test_fixture_windows_fails_on_an_empty_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path))):
        fixture_windows([0], fixtures=tmp_path)


def random_acyclic_quiver(seed_edges):
    # vertices 0..4, arrows only forward: acyclic by construction
    verts = [str(i) for i in range(5)]
    arrows = []
    for k, (i, j) in enumerate(seed_edges):
        lo, hi = min(i, j), max(i, j)
        if lo != hi:
            arrows.append((f"e{k}", str(lo), str(hi)))
    return Quiver(verts, arrows)


edge = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(st.lists(edge, min_size=0, max_size=8))
@settings(max_examples=50, deadline=None)
def test_hom_dim_equals_path_count_without_relations(edges):
    q = random_acyclic_quiver(edges)
    w = Window(q)
    for x in q.vertices:
        for y in q.vertices:
            hb = w.hom(x, y)
            assert hb.dim == count_paths_matrix(q, x, y, len(q.vertices) - 1)


@given(st.lists(edge, min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_hom_dims_invariant_under_renaming(edges):
    q = random_acyclic_quiver(edges)
    ren_v = {v: f"w{v}" for v in q.vertices}
    q2 = Quiver(
        [ren_v[v] for v in q.vertices],
        [(f"r_{a.name}", ren_v[a.src], ren_v[a.tgt]) for a in q.arrows],
    )
    w, w2 = Window(q), Window(q2)
    for x in q.vertices:
        for y in q.vertices:
            assert w.hom_dim(x, y) == w2.hom_dim(ren_v[x], ren_v[y])


@given(st.lists(edge, min_size=0, max_size=8))
@settings(max_examples=50, deadline=None)
def test_identity_survives_relations(edges):
    q = random_acyclic_quiver(edges)
    rels = []
    for a in q.arrows[:2]:
        rels.append(Relation(((1, Path(a.src, a.tgt, (a.name,))),)))
    w = Window(q, rels)
    for v in q.vertices:
        assert w.hom_dim(v, v) >= 1


# -- the layered quotient against path enumeration ------------------------------


def normal_forms(hb):
    """Each pivot candidate of a basis, as a path, with its reducer row as a
    path -> coefficient dict."""
    return {hb.paths[pc]: {hb.paths[j]: c for j, c in row} for pc, row in hb.reducers}


def assert_matches_enumeration(w, label):
    """The swept bases against the enumerate-and-rref oracle on every ordered
    pair.  The candidates are the paths a . q over the arrows a: x -> z and
    the oracle's basis q of hom(z, y), in path order; the basis and every
    pivot candidate's normal form (its reducer) are the oracle's; and every
    path the oracle enumerates has the same coordinates."""
    q = w.quiver
    V = q.vertices
    oracle = {(x, y): path_enumeration_hom_basis(q, w.relations, x, y, w.field)
              for x in V for y in V}
    for x in V:
        for y in V:
            hb, ob = w.hom(x, y), oracle[x, y]
            if x == y:
                cands = [identity_path(x)]
            else:
                cands = sorted((Path(x, y, (a.name,) + b.arrows)
                                for a in q.out_arrows[x] for b in oracle[a.tgt, y].basis),
                               key=path_sort_key)
            assert hb.paths == cands, (label, x, y)
            assert hb.basis == ob.basis, (label, x, y)
            cand_set = set(cands)
            assert normal_forms(hb) == {
                p: nf for p, nf in normal_forms(ob).items() if p in cand_set}, (label, x, y)
            for p in ob.paths:
                assert hb.expand_path(p) == ob.expand_path(p), (label, x, y, p)


def assert_projectives_match_expand_path(w, label):
    """Every P(v) against the assembly that expands each path a . q."""
    for v in w.quiver.vertices:
        P = std_module(w, v, PROJECTIVE)
        dims, maps = expand_path_projective(w, v)
        assert P.dims == dims, (label, v)
        assert dict(P.maps.items()) == maps, (label, v)


def assert_request_order_free(make, seed):
    """Homs and standard modules asked in a random order, so that the sweeps
    of the columns stop part way at random places, give the bases and
    modules of a window whose columns were each swept in one go."""
    ref = make()
    V = ref.quiver.vertices
    for y in V:
        ref.column(y)
    w = make()
    requests = [(x, y) for x in V for y in V] + [(v, kind) for v in V
                                                for kind in (PROJECTIVE, INJECTIVE)]
    random.Random(seed).shuffle(requests)
    for a, b in requests:
        if b in (PROJECTIVE, INJECTIVE):
            std_module(w, a, b)
        else:
            w.hom(a, b)
    for x in V:
        for y in V:
            hb, rb = w.hom(x, y), ref.hom(x, y)
            assert (hb.paths, hb.basis, hb.reducers) == (rb.paths, rb.basis, rb.reducers), (x, y)
    for v in V:
        for kind in (PROJECTIVE, INJECTIVE):
            M, R = std_module(w, v, kind), std_module(ref, v, kind)
            assert M.dims == R.dims and dict(M.maps.items()) == dict(R.maps.items()), (v, kind)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_layered_hom_matches_enumeration_on_fixtures(depth):
    for label, w in fixture_windows([depth]):
        assert_matches_enumeration(w, label)
        assert_matches_enumeration(w.opposite(), f"{label}^op")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_layered_hom_matches_enumeration_on_grids(n):
    w = comm_grid_window(n)
    assert_matches_enumeration(w, "window")
    assert_matches_enumeration(w.opposite(), "opposite")


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_standard_projectives_match_expand_path_on_fixtures(depth):
    for label, w in fixture_windows([depth]):
        assert_projectives_match_expand_path(w, label)
        assert_projectives_match_expand_path(w.opposite(), f"{label}^op")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_projectives_match_expand_path_on_grids(n):
    w = comm_grid_window(n)
    assert_projectives_match_expand_path(w, "window")
    assert_projectives_match_expand_path(w.opposite(), "opposite")


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_bases_do_not_depend_on_request_order_on_fixtures(depth):
    for label, w in fixture_windows([depth]):
        assert_request_order_free(lambda: expand(w.source_tq, depth), label)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bases_do_not_depend_on_request_order_on_grids(n):
    assert_request_order_free(lambda: comm_grid_window(n), n)


@pytest.mark.parametrize("depth", [1, 2])
def test_each_hom_is_built_by_its_own_hom_call(monkeypatch, depth):
    """A miss of `Window.hom(x, y)` builds hom(x, y) itself and every other
    hom it needs by a call of `Window.hom` of its own, so each build sits
    directly under the call that asks for it; it builds only vertices of the
    sweep before x, none below x's level, and nothing for a vertex that does
    not reach y."""
    open_calls, built = [], []
    hom, build = Window.hom, windows.hom_basis_paths

    def traced_hom(self, x, y):
        open_calls.append([x, y, False])
        try:
            return hom(self, x, y)
        finally:
            open_calls.pop()

    def traced_build(q, rels, x, y, field, column):
        call = open_calls[-1]
        assert call == [x, y, False], (call, x, y)
        call[2] = True
        built.append((x, y))
        return build(q, rels, x, y, field, column)

    monkeypatch.setattr(Window, "hom", traced_hom)
    monkeypatch.setattr(windows, "hom_basis_paths", traced_build)
    for label, w in fixture_windows([depth]):
        built.clear()
        level = w.quiver.levels()
        V = w.quiver.vertices
        pairs = [(x, y) for x in V for y in V]
        random.Random(label).shuffle(pairs)
        for x, y in pairs:
            before = len(built)
            hb = w.hom(x, y)
            new = built[before:]
            reach = x in w.quiver.ancestors(y)
            assert (hb.dim > 0) <= reach, (label, x, y)
            if not reach:
                assert new == [] and hb.paths == [], (label, x, y)
            assert all(level[z] >= level[x] and t == y for z, t in new), (label, x, y)
        assert len(built) == len(set(built)), label
        for v in V:
            std_module(w, v, PROJECTIVE)
        assert len(built) == len(set(built)), label


def test_layered_hom_matches_enumeration_non_admissible():
    # c - b*a = 0 identifies an arrow with a composite
    q = Quiver(["p", "q", "r"], [("a", "p", "q"), ("b", "q", "r"), ("c", "p", "r")])
    rel = Relation(((1, arrow_path(q, ("c",))), (-1, arrow_path(q, ("a", "b")))))
    w = Window(q, [rel])
    assert_matches_enumeration(w, "window")
    assert_matches_enumeration(w.opposite(), "opposite")
    # the pivot is the smallest path, so the composite is the basis path
    hb = w.hom("p", "r")
    assert hb.basis == [arrow_path(q, ("a", "b"))]
    assert hb.expand_path(arrow_path(q, ("c",))) == [1]


def test_layered_hom_matches_enumeration_deep_rewrite():
    # doubled arrows 0 => 1 => 2 => 3 => 4 with a2.b3 = b2.a3 near the end: a
    # path such as a0.a1.a2.b3 is rewritten from two arrows in, through homs
    # of dimension > 1
    q = Quiver([str(i) for i in range(5)],
               [(f"{c}{i}", str(i), str(i + 1)) for i in range(4) for c in "ab"])
    rel = Relation(((1, arrow_path(q, ("a2", "b3"))), (-1, arrow_path(q, ("b2", "a3")))))
    w = Window(q, [rel])
    assert w.hom_dim("0", "4") == 12
    assert_matches_enumeration(w, "window")
    assert_matches_enumeration(w.opposite(), "opposite")


@given(random_thread_quivers(), st.data())
@settings(max_examples=40, deadline=None)
def test_layered_hom_matches_enumeration_random_relation(tq, data):
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    rel = draw_relation(data, q)
    w = Window(q, [rel])
    assert_matches_enumeration(w, "window")
    assert_matches_enumeration(w.opposite(), "opposite")
    x, y = rel.src, rel.tgt
    ob = path_enumeration_hom_basis(q, [rel], x, y, QQ)
    assert w.hom(x, y).basis == ob.basis
    assert_projectives_match_expand_path(w, "window")
    assert_projectives_match_expand_path(w.opposite(), "opposite")
    assert_request_order_free(lambda: Window(q, [rel]), data.draw(st.integers(0, 99)))


def test_layered_hom_candidates_follow_dimensions():
    # 6x6 commutative grid: 252 paths from corner to corner, one class
    w = comm_grid_window(5)
    assert len(w.hom("v0_0", "v5_5").paths) <= 2
    V = w.quiver.vertices
    homs = [w.hom(x, y) for x in V for y in V]
    assert sum(len(hb.paths) for hb in homs) <= 2 * sum(hb.dim for hb in homs) + len(V)


def test_hom_on_a_long_line_does_not_recurse():
    n = 1200
    q = Quiver([f"v{i}" for i in range(n)], [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    top = f"v{n - 1}"
    w = Window(q)
    assert w.hom_dim("v0", top) == 1
    P = std_module(w, top, PROJECTIVE)
    assert all(P.dims[v] == 1 for v in q.vertices)
    # the path of 1199 arrows is read back, expanded, acted along and
    # written by Yoneda one handle at a time
    path = Path("v0", top, tuple(f"a{i}" for i in range(n - 1)))
    hb = w.hom("v0", top)
    assert hb.basis == [path] and hb.expand_path(path) == [1]
    assert P.act_basis("v0", top, 0).data == [1]
    cover_source, cover = projective_cover(P)
    assert cover_source is P and cover.comps["v0"].data == [1]


# -- handles against the Path-index route ---------------------------------------


def assert_matches_path_index_route(w, label, max_len=4):
    """Every column against the Path-index route the handles replaced
    (`path_index_column`): the candidates, basis and reducers built from
    the handles are the route's lists, in the same order, and every path
    of at most max_len arrows, and the sum of them all with distinct
    coefficients, expands alike."""
    q = w.quiver
    for y in q.vertices:
        col = w.column(y)
        for x, ob in path_index_column(w, y).items():
            hb = col[x]
            assert hb.paths == ob.paths, (label, x, y)
            assert (hb.basis, hb.reducers) == (ob.basis, ob.reducers), (label, x, y)
            paths = enumerate_paths(q, x, y, max_len)
            for p in paths:
                assert hb.expand_path(p) == ob.expand_path(p), (label, x, y, p)
            terms = [(k + 1, p) for k, p in enumerate(paths)]
            assert hb.expand(terms) == ob.expand(terms), (label, x, y)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_handles_match_the_path_index_route_on_fixtures(depth):
    for label, w in fixture_windows([depth]):
        assert_matches_path_index_route(w, label)
        assert_matches_path_index_route(w.opposite(), f"{label}^op")


def test_handles_match_the_path_index_route_on_a_grid():
    w = comm_grid_window(2)
    assert_matches_path_index_route(w, "window")
    assert_matches_path_index_route(w.opposite(), "opposite")


@given(random_thread_quivers(), st.data())
@settings(max_examples=40, deadline=None)
def test_handles_match_the_path_index_route_on_random_relation_windows(tq, data):
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    rels = [draw_relation(data, q) for _ in range(data.draw(st.integers(1, 2)))]
    assert_matches_path_index_route(Window(q, rels), "window")
    assert_matches_path_index_route(Window(q, rels).opposite(), "opposite")


def test_a_basis_element_is_its_first_arrow_and_a_position():
    # doubled arrows 0 => 1 => 2 with a0.b1 = b0.a1: the handle of each
    # candidate names its first arrow and the position of its tail in the
    # basis of hom(1, 2); the pivot a0.b1, the smaller path, is the
    # candidate (a0, 1) and expands to the basis element (b0, 0)
    q = Quiver(["0", "1", "2"], [(f"{c}{i}", str(i), str(i + 1)) for i in range(2) for c in "ab"])
    rel = Relation(((1, arrow_path(q, ("a0", "b1"))), (-1, arrow_path(q, ("b0", "a1")))))
    w = Window(q, [rel])
    hb = w.hom("0", "2")
    assert [(n, name, j) for n, name, j, _ in hb.handles] == [
        (2, "a0", 0), (2, "a0", 1), (2, "b0", 0), (2, "b0", 1)]
    assert [hb.arrows_of(k) for k in hb.free_idx] == [("a0", "a1"), ("b0", "a1"), ("b0", "b1")]
    assert hb.expand_path(arrow_path(q, ("a0", "b1"))) == [0, 1, 0]
    assert w.hom("2", "2").handles == quiver.IDENTITY


def test_columns_and_standard_modules_build_no_path(monkeypatch):
    # every column and standard module of mixed@3 is built from the handles
    # alone: no candidate, basis element or relation row becomes a Path
    w = expand(tq_mixed(), 3)
    built = []
    real_path = quiver.Path

    def counting_path(*args):
        built.append(args)
        return real_path(*args)

    # every module of the package that binds Path, quiver (where paths are
    # rewritten) among them
    modules = [importlib.import_module(f"threadquiver.{m.name}")
               for m in pkgutil.iter_modules(threadquiver.__path__)]
    binding = [m for m in modules if getattr(m, "Path", None) is real_path]
    assert quiver in binding and reps in binding
    for module in binding:
        monkeypatch.setattr(module, "Path", counting_path)
    V = w.quiver.vertices
    for y in V:
        w.column(y)
        w.opposite().column(y)
    for v in V:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            std_module(w, v, kind)
    assert built == []
    assert sum(len(hb.handles) for y in V for hb in w.column(y).values()) > len(V)
