import random
import re

import pytest
from conftest import (
    all_pairs_reach,
    comm_grid_window,
    enumerate_paths,
    fixture_windows,
    path_enumeration_hom_basis,
    random_thread_quivers,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threadquiver.errors import NonAcyclic
from threadquiver.linalg import QQ
from threadquiver.quiver import (
    Path,
    Quiver,
    Relation,
    identity_path,
    is_strongly_locally_finite,
)
from threadquiver.reps import PROJECTIVE, std_module
from threadquiver.windows import expand, window_from_quiver


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
    hb = window_from_quiver(a2()).hom("1", "2")
    assert hb.dim == 1


def test_hom_a3_zero_relation():
    q = a3()
    rel = Relation(((1, q.path(("a", "b"))),))
    assert window_from_quiver(q, [rel]).hom("1", "3").dim == 0
    assert window_from_quiver(q).hom("1", "3").dim == 1


def test_hom_commutative_square():
    q = square()
    rel = Relation(((1, q.path(("a", "b"))), (-1, q.path(("c", "d")))))
    hb = window_from_quiver(q, [rel]).hom("p", "s")
    assert hb.dim == 1
    # both squares expand to the same class
    assert hb.expand_path(q.path(("a", "b"))) == hb.expand_path(q.path(("c", "d")))


def test_hom_ideal_propagates():
    # zero relation a.b = 0 in 1->2->3->4 kills the long path 1->4
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    )
    rel = Relation(((1, q.path(("a", "b"))),))
    w = window_from_quiver(q, [rel])
    assert w.hom("1", "4").dim == 0
    assert w.hom("2", "4").dim == 1


def test_hom_rejects_cycles():
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    with pytest.raises(NonAcyclic):
        window_from_quiver(q)


def test_reachable_from_rejects_cycles():
    # the reachability queries `reaches`, `ancestors` and `between`
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    for _ in range(2):  # the cycle is not cached as an answer
        for query in (lambda: q.reaches("a", "b"), lambda: q.ancestors("a"),
                      lambda: q.between("a", "b")):
            with pytest.raises(NonAcyclic):
                query()


def assert_reach_matches_oracle(q):
    """`reaches`, `ancestors` and `between` against the all-pairs sets."""
    reach = all_pairs_reach(q)
    for x in q.vertices:
        for y in q.vertices:
            assert q.reaches(x, y) == (y in reach[x]), (x, y)
            on_path = {z for z in reach[x] if y in reach[z]}
            assert set(q.between(x, y)) == on_path, (x, y)
            level = q.levels()
            assert q.ancestors(y, start=x) == {y} | {
                z for z in q.vertices if y in reach[z] and level[z] >= level[x]}
        assert q.ancestors(x) == {z for z in q.vertices if x in reach[z]}


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
def test_reaches_matches_all_pairs_oracle_on_random_dags(q):
    assert_reach_matches_oracle(q)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_reaches_matches_all_pairs_oracle_on_fixtures(depth):
    for _, w in fixture_windows([depth]):
        assert_reach_matches_oracle(w.quiver)
        assert_reach_matches_oracle(w.opposite().quiver)


def test_reaches_and_between_on_a_long_line():
    n = 1200
    q = Quiver([f"v{i}" for i in range(n)],
               [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])
    assert q.reaches("v0", f"v{n - 1}")
    assert not q.reaches(f"v{n - 1}", "v0")
    assert q.between("v10", "v12") == ["v12", "v11", "v10"]


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
    w = window_from_quiver(q)
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
    w, w2 = window_from_quiver(q), window_from_quiver(q2)
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
    w = window_from_quiver(q, rels)
    for v in q.vertices:
        assert w.hom_dim(v, v) >= 1


# -- the layered quotient against path enumeration ------------------------------


def assert_matches_enumeration(w):
    """Same basis as the enumerate-and-rref oracle on every ordered pair, and
    the same coordinates for every path the oracle enumerates."""
    for x in w.quiver.vertices:
        for y in w.quiver.vertices:
            hb = w.hom(x, y)
            ob = path_enumeration_hom_basis(w.quiver, w.relations, x, y, w.field)
            assert hb.basis == ob.basis, (w.name, x, y)
            for p in ob.paths:
                assert hb.expand_path(p) == ob.expand_path(p), (w.name, x, y, p)


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_layered_hom_matches_enumeration_on_fixtures(depth):
    for _, w in fixture_windows([depth]):
        assert_matches_enumeration(w)
        assert_matches_enumeration(w.opposite())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_layered_hom_matches_enumeration_on_grids(n):
    w = comm_grid_window(n)
    assert_matches_enumeration(w)
    assert_matches_enumeration(w.opposite())


def test_layered_hom_matches_enumeration_non_admissible():
    # c - b*a = 0 identifies an arrow with a composite
    q = Quiver(["p", "q", "r"], [("a", "p", "q"), ("b", "q", "r"), ("c", "p", "r")])
    rel = Relation(((1, q.path(("c",))), (-1, q.path(("a", "b")))))
    w = window_from_quiver(q, [rel])
    assert_matches_enumeration(w)
    assert_matches_enumeration(w.opposite())
    # the pivot is the smallest path, so the composite is the basis path
    hb = w.hom("p", "r")
    assert hb.basis == [q.path(("a", "b"))]
    assert hb.expand_path(q.path(("c",))) == [1]


def test_layered_hom_matches_enumeration_deep_rewrite():
    # doubled arrows 0 => 1 => 2 => 3 => 4 with a2.b3 = b2.a3 near the end: a
    # path such as a0.a1.a2.b3 is rewritten from two arrows in, through homs
    # of dimension > 1
    q = Quiver([str(i) for i in range(5)],
               [(f"{c}{i}", str(i), str(i + 1)) for i in range(4) for c in "ab"])
    rel = Relation(((1, q.path(("a2", "b3"))), (-1, q.path(("b2", "a3")))))
    w = window_from_quiver(q, [rel])
    assert w.hom_dim("0", "4") == 12
    assert_matches_enumeration(w)
    assert_matches_enumeration(w.opposite())


@given(random_thread_quivers(), st.data())
@settings(max_examples=40, deadline=None)
def test_layered_hom_matches_enumeration_random_relation(tq, data):
    w0 = expand(tq, data.draw(st.integers(0, 1)))
    q = w0.quiver
    max_len = len(q.vertices) - 1
    parallel = [
        ps for x in q.vertices for y in q.vertices if x != y
        for ps in [enumerate_paths(q, x, y, max_len)] if len(ps) >= 2
    ]
    assume(parallel)
    paths = data.draw(st.sampled_from(parallel))
    k = data.draw(st.integers(2, min(3, len(paths))))
    chosen = data.draw(st.permutations(paths))[:k]
    coeffs = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=k, max_size=k))
    rel = Relation(tuple(zip(coeffs, chosen)))
    w = window_from_quiver(q, [rel])
    assert_matches_enumeration(w)
    assert_matches_enumeration(w.opposite())
    x, y = chosen[0].src, chosen[0].tgt
    ob = path_enumeration_hom_basis(q, [rel], x, y, QQ)
    assert w.hom(x, y).basis == ob.basis


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
    w = window_from_quiver(q)
    assert w.hom_dim("v0", top) == 1
    P = std_module(w, top, PROJECTIVE)
    assert all(P.dims[v] == 1 for v in q.vertices)
