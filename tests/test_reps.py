import random

import pytest
from conftest import (
    fixture_windows,
    per_vertex_realize_proj_coords,
    random_fp_rep,
    random_thread_quivers,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.errors import ExceedsBound, NotFunctorial
from threadquiver.linalg import QQ, Matrix, rank
from threadquiver.orders import Fin
from threadquiver.quiver import Path, Quiver, Relation
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    decompose,
    dualize,
    ext_dim,
    hom_basis,
    hom_basis_generic,
    hom_dim,
    identity_map,
    induce,
    inj_dim,
    map_factor,
    proj_dim,
    proj_sum,
    projective_cover,
    resolution,
    restrict,
    restrict_full,
    std_module,
    zero_rep,
)
from threadquiver.windows import ThreadQuiver, expand, window_from_quiver


def a2_window():
    return window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]), name="A2")


def a3_window(zero_rel=False):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rels = [Relation(((1, q.path(("a", "b"))),))] if zero_rel else []
    return window_from_quiver(q, rels, name="A3")


def dim_vec(M):
    return {v: d for v, d in M.dims.items() if d}


def random_rep(w, rng, n_gens=2, n_rels=2):
    """A random finitely presented module: cokernel of a random map between
    projective sums (always satisfies the window's relations)."""
    verts = w.quiver.vertices
    gen_vs = [rng.choice(verts) for _ in range(rng.randint(1, n_gens))]
    rel_vs = [rng.choice(verts) for _ in range(rng.randint(1, n_rels))]
    P0 = proj_sum(w, gen_vs)
    P1 = proj_sum(w, rel_vs)
    _, basis = hom_basis(P1, P0)
    if not basis:
        return P0
    f = None
    for g in basis:
        c = rng.randint(-2, 2)
        if c:
            g = g.scale(QQ(c))
            f = g if f is None else f + g
    if f is None:
        f = basis[0].scale(QQ(0))
    return map_factor(f).cokernel


# -- standard modules ----------------------------------------------------------


def test_std_proj_a2():
    w = a2_window()
    assert dim_vec(std_module(w, "1", PROJECTIVE)) == {"1": 1}
    assert dim_vec(std_module(w, "2", PROJECTIVE)) == {"1": 1, "2": 1}


def test_std_simple_total_dim():
    w = a3_window()
    for v in w.quiver.vertices:
        assert std_module(w, v, SIMPLE).total_dim() == 1


def test_std_inj_a2():
    w = a2_window()
    i1 = std_module(w, "1", INJECTIVE)
    assert dim_vec(i1) == {"1": 1, "2": 1}
    p2 = std_module(w, "2", PROJECTIVE)
    # I(1) and P(2) are isomorphic over A2: same dims and same hom dims to probes
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, SIMPLE):
            probe = std_module(w, v, kind)
            assert hom_dim(i1, probe) == hom_dim(p2, probe)
            assert hom_dim(probe, i1) == hom_dim(probe, p2)


def test_std_modules_respect_relations():
    w = a3_window(zero_rel=True)
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE):
            std_module(w, v, kind).check_relations()
    assert dim_vec(std_module(w, "3", PROJECTIVE)) == {"2": 1, "3": 1}


# -- hom spaces -----------------------------------------------------------------


def test_yoneda_dimensions_generic():
    w = a3_window()
    rng = random.Random(7)
    for _ in range(6):
        M = random_rep(w, rng)
        for v in w.quiver.vertices:
            P = std_module(w, v, PROJECTIVE)
            dim, basis = hom_basis_generic(P, M)
            assert dim == M.dims[v]
            for g in basis:
                assert g.is_natural()
            I = std_module(w, v, INJECTIVE)
            dim2, basis2 = hom_basis_generic(M, I)
            assert dim2 == M.dims[v]


def test_hom_fast_path_matches_generic():
    w = a3_window(zero_rel=True)
    rng = random.Random(3)
    for _ in range(4):
        M = random_rep(w, rng)
        for v in w.quiver.vertices:
            P = std_module(w, v, PROJECTIVE)
            I = std_module(w, v, INJECTIVE)
            assert hom_basis(P, M)[0] == hom_basis_generic(P, M)[0]
            assert hom_basis(M, I)[0] == hom_basis_generic(M, I)[0]
            for g in hom_basis(P, M)[1]:
                assert g.is_natural()
            for g in hom_basis(M, I)[1]:
                assert g.is_natural()


@given(random_thread_quivers(), st.integers(0, 2**32 - 1), st.booleans(), st.data())
@settings(max_examples=50, deadline=None)
def test_hom_basis_matches_generic_random(tq, seed, projective_side, data):
    """hom_basis (Yoneda on the certified side) against the naturality system,
    with a standard projective source or a standard injective target."""
    w = expand(tq, 1)
    M = random_fp_rep(w, random.Random(seed), n_gens=3)
    v = data.draw(st.sampled_from(M.support() or w.quiver.vertices))
    if projective_side:
        X, Y = std_module(w, v, PROJECTIVE), M
    else:
        X, Y = M, std_module(w, v, INJECTIVE)
    dim, basis = hom_basis(X, Y)
    assert dim == len(basis) == hom_basis_generic(X, Y)[0] == M.dims[v]
    for g in basis:
        assert g.is_natural()
    # the maps are independent, so they are a basis
    flat = [[c for u in w.quiver.vertices for c in g.comps[u].data] for g in basis]
    if flat:
        assert rank(Matrix(w.field, len(flat), len(flat[0]), [c for row in flat for c in row])) == dim


def test_hom_projectives_a2():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    p2 = std_module(w, "2", PROJECTIVE)
    assert hom_dim(p1, p2) == 1
    assert hom_dim(p2, p1) == 0
    assert hom_dim(p1, p1) == 1


def test_hom_identity_nonzero():
    w = a3_window()
    rng = random.Random(11)
    M = random_rep(w, rng)
    if not M.is_zero():
        assert hom_dim(M, M) >= 1


# -- kernels, images, cokernels ---------------------------------------------------


def test_map_factor_identity():
    w = a2_window()
    p2 = std_module(w, "2", PROJECTIVE)
    fac = map_factor(identity_map(p2))
    assert fac.kernel.is_zero() and fac.cokernel.is_zero()


def test_map_factor_p1_to_p2():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    p2 = std_module(w, "2", PROJECTIVE)
    _, basis = hom_basis(p1, p2)
    assert len(basis) == 1
    fac = map_factor(basis[0])
    assert fac.kernel.is_zero()
    assert dim_vec(fac.cokernel) == {"2": 1}  # the simple at 2


def test_map_factor_zero_map():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    p2 = std_module(w, "2", PROJECTIVE)
    from threadquiver.reps import zero_map

    fac = map_factor(zero_map(p1, p2))
    assert dim_vec(fac.kernel) == dim_vec(p1)
    assert dim_vec(fac.cokernel) == dim_vec(p2)


def test_map_factor_exactness_dims():
    w = a3_window(zero_rel=True)
    rng = random.Random(5)
    for _ in range(5):
        M, N = random_rep(w, rng), random_rep(w, rng)
        _, basis = hom_basis_generic(M, N)
        if not basis:
            continue
        f = basis[0]
        fac = map_factor(f)
        for v in w.quiver.vertices:
            assert fac.kernel.dims[v] + fac.image.dims[v] == M.dims[v]
            assert fac.image.dims[v] + fac.cokernel.dims[v] == N.dims[v]
        assert fac.ker_incl.then(f).is_zero()
        assert f.then(fac.coker_proj).is_zero()
        # image via kernel-of-cokernel agrees with cokernel-of-kernel
        kc = map_factor(fac.coker_proj).kernel
        assert dim_vec(kc) == dim_vec(fac.image)


# -- resolutions -----------------------------------------------------------------


def test_resolution_simple_a2():
    w = a2_window()
    s2 = std_module(w, "2", SIMPLE)
    res = resolution(s2, PROJECTIVE, 4)
    assert len(res.complex.terms) == 2
    assert res.complex.terms[0].cert == ("proj", ("1",))
    assert res.complex.terms[1].cert == ("proj", ("2",))
    res.complex.check()
    assert proj_dim(s2, 4) == 1


def test_resolution_projective_is_length_zero():
    w = a3_window()
    for v in w.quiver.vertices:
        p = std_module(w, v, PROJECTIVE)
        assert proj_dim(p, 4) == 0


def test_resolution_exactness():
    w = a3_window(zero_rel=True)
    s3 = std_module(w, "3", SIMPLE)
    res = resolution(s3, PROJECTIVE, 6)
    cx = res.complex
    cx.check()
    # exactness at each inner term: rank d_in + rank d_out = dim at that spot
    for i in range(1, len(cx.terms)):
        term = cx.terms[i]
        d_out = cx.diffs[i] if i < len(cx.diffs) else None
        d_in = cx.diffs[i - 1]
        for v in w.quiver.vertices:
            r_in = rank(d_in.comps[v])
            if d_out is not None:
                r_out = rank(d_out.comps[v])
            else:
                r_out = rank(res.augment.comps[v])
            assert r_in + r_out == term.dims[v]


def test_resolution_exceeds_bound():
    # linearly oriented A4 with rad^2 = 0: pd S(4) = 3
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    )
    rels = [
        Relation(((1, q.path(("a", "b"))),)),
        Relation(((1, q.path(("b", "c"))),)),
    ]
    w = window_from_quiver(q, rels)
    s4 = std_module(w, "4", SIMPLE)
    assert proj_dim(s4, 5) == 3
    with pytest.raises(ExceedsBound):
        resolution(s4, PROJECTIVE, 2)


def test_injective_resolution_via_duality():
    w = a2_window()
    s1 = std_module(w, "1", SIMPLE)
    res = resolution(s1, INJECTIVE, 4)
    res.complex.check()
    assert inj_dim(s1, 4) == 1
    # duality exchanges resolutions: lengths agree
    dres = resolution(dualize(s1), PROJECTIVE, 4)
    assert len(dres.complex.terms) == len(res.complex.terms)


# -- ext -------------------------------------------------------------------------


def test_ext0_is_hom():
    w = a3_window()
    rng = random.Random(13)
    for _ in range(4):
        M, N = random_rep(w, rng), random_rep(w, rng)
        assert ext_dim(0, M, N, 6) == hom_dim(M, N)


def test_ext1_a2():
    w = a2_window()
    s1 = std_module(w, "1", SIMPLE)
    s2 = std_module(w, "2", SIMPLE)
    assert ext_dim(1, s2, s1, 6) == 1
    assert ext_dim(1, s1, s2, 6) == 0


def test_ext2_vanishes_on_relation_free_windows():
    tq = ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(1))])
    w = expand(tq, 1)
    rng = random.Random(17)
    for _ in range(5):
        M, N = random_rep(w, rng), random_rep(w, rng)
        assert ext_dim(2, M, N, 8) == 0


# -- duality ---------------------------------------------------------------------


def test_double_dual_identity():
    w = a3_window(zero_rel=True)
    rng = random.Random(19)
    M = random_rep(w, rng)
    DD = dualize(dualize(M))
    assert DD.dims == M.dims
    for a in w.quiver.arrows:
        assert DD.maps[a.name] == M.maps[a.name]


def test_dual_proj_is_inj():
    w = a2_window()
    for v in w.quiver.vertices:
        d = dualize(std_module(w, v, PROJECTIVE))
        i = std_module(w.opposite(), v, INJECTIVE)
        assert d.dims == i.dims
        assert d.cert == ("inj", (v,))


def test_dual_simple_is_simple():
    w = a2_window()
    d = dualize(std_module(w, "1", SIMPLE))
    assert dim_vec(d) == {"1": 1}


# -- decomposition ----------------------------------------------------------------


def test_decompose_direct_sum_a2():
    w = a2_window()
    total = proj_sum(w, ["1", "2"])
    parts = decompose(total)
    assert sorted(tuple(sorted(dim_vec(p).items())) for p in parts) == [
        (("1", 1),),
        (("1", 1), ("2", 1)),
    ]


def test_decompose_std_modules_indecomposable():
    w = a3_window()
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            parts = decompose(std_module(w, v, kind))
            assert len(parts) == 1


def test_decompose_zero():
    w = a2_window()
    assert decompose(zero_rep(w)) == []


def test_decompose_square_of_same_summand():
    w = a2_window()
    total = proj_sum(w, ["2", "2"])
    parts = decompose(total)
    assert len(parts) == 2
    assert all(dim_vec(p) == {"1": 1, "2": 1} for p in parts)


def test_decompose_order_independent():
    w = a3_window()
    rng1, rng2 = random.Random(23), random.Random(99)
    M = random_rep(w, random.Random(4), n_gens=3)
    key = lambda parts: sorted(tuple(sorted(dim_vec(p).items())) for p in parts)
    assert key(decompose(M, rng1)) == key(decompose(M, rng2))


# -- restriction and induction ------------------------------------------------------


def test_restrict_identity():
    w = a3_window()
    M = std_module(w, "3", PROJECTIVE)
    R = restrict_full(M, w)
    assert R.dims == M.dims


def test_restrict_p2_to_sub():
    w = a3_window()
    sub = window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]))
    M = restrict_full(std_module(w, "2", PROJECTIVE), sub)
    assert dim_vec(M) == {"1": 1, "2": 1}


def test_restrict_s3_vanishes():
    w = a3_window()
    sub = window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]))
    M = restrict_full(std_module(w, "3", SIMPLE), sub)
    assert M.is_zero()


def test_restrict_checks_relations():
    # target has a zero relation the big module does not satisfy
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    target = window_from_quiver(q, [Relation(((1, q.path(("a", "b"))),))])
    big = a3_window()
    M = std_module(big, "3", PROJECTIVE)
    vmap = {v: v for v in q.vertices}
    amap = {a.name: Path(a.src, a.tgt, (a.name,)) for a in q.arrows}
    with pytest.raises(NotFunctorial):
        restrict(M, target, vmap, amap)


def sub_embedding(sub, big):
    vmap = {v: v for v in sub.quiver.vertices}
    amap = {a.name: Path(a.src, a.tgt, (a.name,)) for a in sub.quiver.arrows}
    return vmap, amap


def test_induce_projective():
    big = a3_window()
    sub = window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]))
    vmap, amap = sub_embedding(sub, big)
    P = std_module(sub, "2", PROJECTIVE)
    ind = induce(P, sub, big, vmap, amap)
    target = std_module(big, "2", PROJECTIVE)
    assert dim_vec(ind) == dim_vec(target)


def test_induce_restrict_roundtrip():
    big = a3_window()
    sub = window_from_quiver(Quiver(["2", "3"], [("b", "2", "3")]))
    vmap, amap = sub_embedding(sub, big)
    rng = random.Random(31)
    for _ in range(4):
        M = random_rep(sub, rng)
        ind = induce(M, sub, big, vmap, amap)
        back = restrict(ind, sub, vmap, amap)
        assert dim_vec(back) == dim_vec(M)
        for v in sub.quiver.vertices:
            probe = std_module(sub, v, PROJECTIVE)
            assert hom_dim(probe, back) == hom_dim(probe, M)
            s = std_module(sub, v, SIMPLE)
            assert hom_dim(back, s) == hom_dim(M, s)


def test_induce_adjunction_dims():
    big = a3_window()
    sub = window_from_quiver(Quiver(["2", "3"], [("b", "2", "3")]))
    vmap, amap = sub_embedding(sub, big)
    rng = random.Random(37)
    for _ in range(3):
        M = random_rep(sub, rng)
        N = random_rep(big, rng)
        ind = induce(M, sub, big, vmap, amap)
        res = restrict(N, sub, vmap, amap)
        assert hom_dim(ind, N) == hom_dim(M, res)


def test_induce_preserves_exactness_dims():
    # short exact sequences map to short exact sequences (dimension check)
    big = a3_window()
    sub = window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]))
    vmap, amap = sub_embedding(sub, big)
    rng = random.Random(41)
    for _ in range(3):
        M = random_rep(sub, rng)
        _, basis = hom_basis_generic(M, M)
        if not basis:
            continue
        f = basis[0]
        fac = map_factor(f)
        iM = induce(M, sub, big, vmap, amap)
        iK = induce(fac.kernel, sub, big, vmap, amap)
        iI = induce(fac.image, sub, big, vmap, amap)
        for v in big.quiver.vertices:
            assert iK.dims[v] + iI.dims[v] == iM.dims[v]


def test_projective_cover_minimal():
    w = a3_window(zero_rel=True)
    s2 = std_module(w, "2", SIMPLE)
    P, cover = projective_cover(s2)
    assert P.cert == ("proj", ("2",))
    assert cover.is_natural()


def test_proj_coords_roundtrip_with_repeated_summands():
    from threadquiver.reps import extract_proj_coords, realize_proj_coords

    w = a3_window()
    P = proj_sum(w, ("2", "2", "1"))
    Q = proj_sum(w, ("3", "2"))
    rng = random.Random(77)
    _, basis = hom_basis(P, Q)
    f = None
    for g in basis:
        c = rng.randint(-2, 2)
        if c:
            g = g.scale(QQ(c))
            f = g if f is None else f + g
    assert f is not None
    cells = extract_proj_coords(f)
    f2 = realize_proj_coords(P, Q, cells)
    for v in w.quiver.vertices:
        assert f2.comps[v] == f.comps[v]


def _realize_cases(w):
    """(P, Q, entries) for every arrow a: x -> y as P(x) -> P(y), and for
    every composable pair a, b: y -> z as the 2x2 block map
    P(x) + P(y) -> P(y) + P(z) with blocks a, id, b.a (None when zero), b."""
    def coords(a):
        return w.hom(a.src, a.tgt).expand_path(Path(a.src, a.tgt, (a.name,)))

    def cell(x, y, c):
        return None if all(v == w.field.zero for v in c) else (x, y, c)

    for a in w.quiver.arrows:
        x, y = a.src, a.tgt
        yield proj_sum(w, (x,)), proj_sum(w, (y,)), [[cell(x, y, coords(a))]]
        for b in w.quiver.out_arrows[y]:
            z = b.tgt
            ba = w.compose_coords(x, y, z, coords(a), coords(b))
            entries = [[cell(x, y, coords(a)), cell(y, y, w.identity_coords(y))],
                       [cell(x, z, ba), cell(y, z, coords(b))]]
            yield proj_sum(w, (x, y)), proj_sum(w, (y, z)), entries


@pytest.mark.parametrize("label, w", [
    pytest.param(label, win, id=f"{label}{suffix}")
    for label, w in fixture_windows((0, 1, 2))
    for suffix, win in (("", w), ("-op", w.opposite()))
])
def test_realize_proj_coords_matches_per_vertex_oracle(label, w):
    from threadquiver.reps import extract_proj_coords, realize_proj_coords

    for P, Q, entries in _realize_cases(w):
        f = realize_proj_coords(P, Q, entries)
        oracle = per_vertex_realize_proj_coords(P, Q, entries)
        for x in w.quiver.vertices:
            assert f.comps[x] == oracle.comps[x], (label, P.cert, Q.cert, x)
        assert extract_proj_coords(f) == entries


def test_induce_along_path_valued_embedding():
    # embed A2 into A3 sending the arrow to the length-two composite
    big = a3_window()
    sub = window_from_quiver(Quiver(["a", "b"], [("f", "a", "b")]))
    vmap = {"a": "1", "b": "3"}
    amap = {"f": Path("1", "3", ("a", "b"))}
    P = std_module(sub, "b", PROJECTIVE)
    ind = induce(P, sub, big, vmap, amap)
    assert dim_vec(ind) == dim_vec(std_module(big, "3", PROJECTIVE))
    rng = random.Random(43)
    for _ in range(3):
        M = random_rep(sub, rng)
        ind = induce(M, sub, big, vmap, amap)
        back = restrict(ind, sub, vmap, amap)
        assert dim_vec(back) == dim_vec(M)


def test_decompose_over_prime_field():
    from threadquiver.linalg import field_by_name

    f5 = field_by_name("fp:5")
    w = window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]), field=f5)
    total = proj_sum(w, ["1", "2", "2"])
    parts = decompose(total)
    assert len(parts) == 3
    # the rotation endomorphism splits over F_5 (x^2 + 1 = (x-2)(x-3))
    from threadquiver.linalg import Matrix
    from threadquiver.reps import Rep

    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    w2 = window_from_quiver(q, field=f5)
    rot = Matrix.from_rows(f5, [[0, -1], [1, 0]])
    M = Rep(w2, {"x": 2, "y": 2}, {"a": Matrix.identity(f5, 2), "b": rot})
    assert len(decompose(M)) == 2


def test_decompose_end_not_split_over_rationals():
    # two parallel arrows acted on by the identity and a rotation: the
    # endomorphism ring is a quadratic field extension, which the base field
    # cannot split
    from threadquiver.errors import EndNotSplit
    from threadquiver.linalg import Matrix
    from threadquiver.reps import Rep

    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    w = window_from_quiver(q)
    rot = Matrix.from_rows(QQ, [[0, -1], [1, 0]])
    ident = Matrix.identity(QQ, 2)
    M = Rep(w, {"x": 2, "y": 2}, {"a": ident, "b": rot})
    assert hom_dim(M, M) == 2
    with pytest.raises(EndNotSplit):
        decompose(M)
