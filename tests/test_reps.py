import random

import pytest
from conftest import (
    a3_block_map,
    arrow_path,
    basis_route_ext_dim,
    basis_route_hom_data,
    check_complex,
    cohomology_dims,
    comm_grid_window,
    compose_coords,
    composed_resolution,
    cover_kernel_cover_presentation,
    cover_of_whole_kernel_as_projectives,
    direct_sum_object,
    draw_relation,
    eliminating_cokernel_with_projection,
    fixture_windows,
    hull_cokernel_hull_copresentation,
    identity_path,
    matrix_from_rows,
    per_block_yoneda_write,
    per_vertex_realize_proj_coords,
    random_fp_rep,
    random_thread_quivers,
    resolution_entries,
    restrict_full,
    solving_kernel_with_inclusion,
    tq_mixed,
    two_step_top_generators,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.errors import ExceedsBound, NotFunctorial, NotRepresentable
from threadquiver.linalg import QQ, Matrix, field_by_name, rank
from threadquiver.orders import Fin
from threadquiver.quiver import Path, Quiver, Relation
import threadquiver.reps as reps
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Rep,
    RepMap,
    _sum_object,
    _yoneda_write,
    cokernel_with_projection,
    decompose,
    dualize,
    ext_dim,
    hom_basis,
    hom_basis_generic,
    hom_dim,
    identity_map,
    induce,
    injective_hull,
    kernel_with_inclusion,
    map_factor,
    proj_dim,
    proj_sum,
    projective_cover,
    resolution,
    restrict,
    std_module,
    top_generators,
    two_term_presentation,
    zero_map,
    zero_rep,
)
from threadquiver.windows import ThreadQuiver, Window, expand


def a2_window():
    return Window(Quiver(["1", "2"], [("a", "1", "2")]))


def a3_window(zero_rel=False):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rels = [Relation(((1, arrow_path(q, ("a", "b"))),))] if zero_rel else []
    return Window(q, rels)


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
    v = data.draw(st.sampled_from(M.support or w.quiver.vertices))
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
    check_complex(res.complex)
    assert proj_dim(s2, 4) == 1


def test_resolution_projective_is_length_zero():
    w = a3_window()
    for v in w.quiver.vertices:
        p = std_module(w, v, PROJECTIVE)
        assert proj_dim(p, 4) == 0


def test_certified_sum_is_its_own_resolution(monkeypatch):
    # a certified sum of projectives resolves to itself with no cover, the
    # injective side through the dual
    import threadquiver.reps as reps

    from threadquiver.reps import inj_sum

    def no_cover(M):
        raise AssertionError("a certified sum needs no cover")

    monkeypatch.setattr(reps, "projective_cover", no_cover)
    w = a3_window()
    P = proj_sum(w, ("3", "1", "3"))
    res = resolution(P, PROJECTIVE, 0)
    assert res.complex.terms == [P] and res.complex.min_degree == 0
    I = inj_sum(w, ("2", "1"))
    ires = resolution(I, INJECTIVE, 0)
    assert [t.cert for t in ires.complex.terms] == [("inj", ("2", "1"))]
    assert ires.complex.window is w and ires.complex.min_degree == 0
    assert all(ires.complex.terms[0].dims[v] == I.dims[v] for v in w.quiver.vertices)


def test_resolution_exactness():
    w = a3_window(zero_rel=True)
    s3 = std_module(w, "3", SIMPLE)
    res = resolution(s3, PROJECTIVE, 6)
    cx = res.complex
    check_complex(cx)
    # exactness at each inner term: rank d_in + rank d_out = dim at that spot;
    # in degree 0 the cohomology is M: dim P0 - rank d_in = dim M
    for i in range(1, len(cx.terms)):
        term = cx.terms[i]
        d_out = cx.diffs[i] if i < len(cx.diffs) else None
        d_in = cx.diffs[i - 1]
        for v in w.quiver.vertices:
            r_in = rank(d_in.comps[v])
            if d_out is not None:
                assert r_in + rank(d_out.comps[v]) == term.dims[v]
            else:
                assert term.dims[v] - r_in == s3.dims[v]


def test_resolution_exceeds_bound():
    # linearly oriented A4 with rad^2 = 0: pd S(4) = 3
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")],
    )
    rels = [
        Relation(((1, arrow_path(q, ("a", "b"))),)),
        Relation(((1, arrow_path(q, ("b", "c"))),)),
    ]
    w = Window(q, rels)
    s4 = std_module(w, "4", SIMPLE)
    assert proj_dim(s4, 5) == 3
    with pytest.raises(ExceedsBound):
        resolution(s4, PROJECTIVE, 2)


def _assert_resolves_as_the_oracle(M, where) -> bool:
    """`_resolve` against the composed oracle, cut before the first step,
    after it, and at the window's size: the same terms, differentials entry
    for entry and `ended`, and no differential keeps the kernel bases its
    step read.  Returns whether some cut left the resolution unended."""
    unended = False
    for length in (0, 1, len(M.window.quiver.vertices)):
        cx, ended = reps._resolve(M, length)
        want = composed_resolution(M, length)
        assert resolution_entries(cx, ended) == resolution_entries(*want), (where, length)
        assert not any("kernel_bases" in d.__dict__ for d in cx.diffs), (where, length)
        unended |= not ended
    return unended


@pytest.mark.parametrize("label, w", [
    pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))
] + [pytest.param("grid2", comm_grid_window(2), id="grid2")])
def test_resolutions_match_the_composed_oracle(label, w):
    # every P, I and S of the window; each step writes its differential
    # into the previous term from the kernel's top, read around the map
    unended = False
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            unended |= _assert_resolves_as_the_oracle(std_module(w, v, kind), (label, v, kind))
    assert unended


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_resolutions_match_the_composed_oracle_on_random_modules(tq, depth, seed):
    w = expand(tq, depth)
    M = random_fp_rep(w, random.Random(seed))
    for X in (M, dualize(M)):
        _assert_resolves_as_the_oracle(X, seed)


def test_injective_resolution_via_duality():
    w = a2_window()
    s1 = std_module(w, "1", SIMPLE)
    res = resolution(s1, INJECTIVE, 4)
    check_complex(res.complex)
    assert len(res.complex.terms) - 1 == 1  # id S(1) = 1
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


def _memo_resolution(monkeypatch):
    """Both ext routes resolve M by the same `resolution` call; compute each
    resolution once for the whole sweep, errors included."""
    import conftest

    import threadquiver.reps as reps

    real = reps.resolution
    memo = {}

    def resolution_once(M, side, max_len):
        key = (id(M), side, max_len)
        if key not in memo:
            try:
                memo[key] = (M, real(M, side, max_len), None)
            except ExceedsBound as exc:
                memo[key] = (M, None, exc)
        _, res, exc = memo[key]
        if exc is not None:
            raise exc
        return res

    monkeypatch.setattr(reps, "resolution", resolution_once)
    monkeypatch.setattr(conftest, "resolution", resolution_once)


def _ext_or_bound(ext, i, M, N, max_len):
    try:
        return ext(i, M, N, max_len)
    except ExceedsBound:
        return "ExceedsBound"


@pytest.mark.parametrize("label, w", [
    pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1))])
def test_ext_dim_matches_basis_route_on_standard_modules(label, w, monkeypatch):
    # every ordered pair of standard projectives, injectives and simples,
    # degrees 0-3; ainf_rad2 exceeds the bound on both routes alike
    _memo_resolution(monkeypatch)
    mods = [(f"{k}({v})", std_module(w, v, k))
            for v in w.quiver.vertices for k in (PROJECTIVE, INJECTIVE, SIMPLE)]
    for xl, M in mods:
        for yl, N in mods:
            for i in range(4):
                got = _ext_or_bound(ext_dim, i, M, N, 6)
                assert got == _ext_or_bound(basis_route_ext_dim, i, M, N, 6), (xl, yl, i)


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_ext_dim_matches_basis_route_on_random_modules(tq, depth, seed):
    w = expand(tq, depth)
    rng = random.Random(seed)
    M, N = random_fp_rep(w, rng), random_fp_rep(w, rng)
    for i in range(4):
        assert ext_dim(i, M, N, 8) == basis_route_ext_dim(i, M, N, 8), i


def test_ext_cli_builds_no_module_map_basis(monkeypatch, capsys):
    # the CLI's ext reads the evaluated hom complex, never hom_basis/hom_coords
    import json

    from conftest import FIXTURES

    import threadquiver.reps as reps
    from threadquiver.cli import run

    def forbidden(*args):
        raise AssertionError("ext built a basis of module maps")

    monkeypatch.setattr(reps, "hom_basis", forbidden)
    monkeypatch.setattr(reps, "hom_coords", forbidden)
    zigzag = str(FIXTURES / "zigzag.tq")
    for x, y, degree, expected in (("a22", "a20", 2, "1"), ("a33", "a30", 3, "1"),
                                   ("a33", "a30", 2, "0")):
        capsys.readouterr()
        assert run(["ext", zigzag, x, y, "--degree", str(degree), "--depth", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["items"][0]["actual"] == expected


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


def test_decompose_order_independent(monkeypatch):
    # the Fitting candidates are drawn from End's basis (9-dimensional here)
    # in a seeded shuffled order; the summands do not depend on it
    w = a3_window()
    M = random_rep(w, random.Random(11), n_gens=4)
    key = lambda parts: sorted(tuple(sorted(dim_vec(p).items())) for p in parts)
    real = reps.hom_basis_generic
    want = key(decompose(M))
    assert len(want) == 4

    def shuffled(rng):
        def basis(M, N):
            dim, b = real(M, N)
            rng.shuffle(b)
            return dim, b
        return basis

    for seed in (23, 99):
        monkeypatch.setattr(reps, "hom_basis_generic", shuffled(random.Random(seed)))
        assert key(decompose(M)) == want, seed


def test_decompose_builds_no_cokernel(monkeypatch):
    # a Fitting split reads the kernel and the image of h^N only
    w = expand(tq_mixed(), 1)
    rng = random.Random(5)
    modules = [random_fp_rep(w, rng, 3, 3) for _ in range(8)] + [proj_sum(w, ["B", "B"])]

    def no_cokernel(f):
        raise AssertionError("a cokernel was built")

    monkeypatch.setattr(reps, "cokernel_with_projection", no_cokernel)
    split = 0
    for M in modules:
        parts = decompose(M)
        assert sum(p.total_dim() for p in parts) == M.total_dim()
        split += len(parts) > 1
    assert split


# -- restriction and induction ------------------------------------------------------


def test_restrict_identity():
    w = a3_window()
    M = std_module(w, "3", PROJECTIVE)
    R = restrict_full(M, w)
    assert R.dims == M.dims


def test_restrict_p2_to_sub():
    w = a3_window()
    sub = Window(Quiver(["1", "2"], [("a", "1", "2")]))
    M = restrict_full(std_module(w, "2", PROJECTIVE), sub)
    assert dim_vec(M) == {"1": 1, "2": 1}


def test_restrict_s3_vanishes():
    w = a3_window()
    sub = Window(Quiver(["1", "2"], [("a", "1", "2")]))
    M = restrict_full(std_module(w, "3", SIMPLE), sub)
    assert M.is_zero()


def test_restrict_checks_relations():
    # target has a zero relation the big module does not satisfy
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    target = Window(q, [Relation(((1, arrow_path(q, ("a", "b"))),))])
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
    sub = Window(Quiver(["1", "2"], [("a", "1", "2")]))
    vmap, amap = sub_embedding(sub, big)
    P = std_module(sub, "2", PROJECTIVE)
    ind = induce(P, sub, big, vmap, amap)
    target = std_module(big, "2", PROJECTIVE)
    assert dim_vec(ind) == dim_vec(target)


def test_induce_restrict_roundtrip():
    big = a3_window()
    sub = Window(Quiver(["2", "3"], [("b", "2", "3")]))
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
    sub = Window(Quiver(["2", "3"], [("b", "2", "3")]))
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
    sub = Window(Quiver(["1", "2"], [("a", "1", "2")]))
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
    P(x) + P(y) -> P(y) + P(z) with blocks a, id, b.a (None when zero), b,
    and as the row P(x) + P(y) + P(z) -> P(z) with blocks b.a, b, None."""
    def coords(a):
        return w.hom(a.src, a.tgt).expand_path(Path(a.src, a.tgt, (a.name,)))

    def cell(c):
        return None if all(v == w.field.zero for v in c) else c

    for a in w.quiver.arrows:
        x, y = a.src, a.tgt
        yield proj_sum(w, (x,)), proj_sum(w, (y,)), [[cell(coords(a))]]
        for b in w.quiver.out_arrows[y]:
            z = b.tgt
            ba = compose_coords(w, x, y, z, coords(a), coords(b))
            entries = [[cell(coords(a)), cell(w.hom(y, y).expand_path(identity_path(y)))],
                       [cell(ba), cell(coords(b))]]
            yield proj_sum(w, (x, y)), proj_sum(w, (y, z)), entries
            yield (proj_sum(w, (x, y, z)), proj_sum(w, (z,)),
                   [[cell(ba), cell(coords(b)), None]])


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


@pytest.mark.parametrize("label, w", [
    pytest.param(label, win, id=f"{label}{suffix}")
    for label, w in fixture_windows((0, 1, 2))
    for suffix, win in (("", w), ("-op", w.opposite()))
])
def test_kernel_as_projectives_coordinates_realize_the_kernel(label, w):
    # every arrow's map P(x) -> P(y) and the block maps of `_realize_cases`
    # (kernels with a copy of P(x), and with summands at x and z): the one
    # resolution step names the kernel exactly as the cover of the whole
    # kernel does, entry for entry, or refuses it with the same error; the
    # returned coordinates realize a natural injection onto ker f
    from threadquiver.reps import (
        kernel_as_projectives,
        kernel_with_inclusion,
        realize_proj_coords,
    )
    from threadquiver.serre import VarietyMor, realize_proj

    def recognized(fn, f):
        try:
            return fn(f)
        except NotRepresentable as exc:
            return NotRepresentable, str(exc)

    maps = [realize_proj(VarietyMor.from_arrow(w, a.name)) for a in w.quiver.arrows]
    maps += [realize_proj_coords(P, Q, entries) for P, Q, entries in _realize_cases(w)]
    for f in maps:
        got = recognized(kernel_as_projectives, f)
        assert got == recognized(cover_of_whole_kernel_as_projectives, f), (
            label, f.source.cert)
        if got[0] is NotRepresentable:
            continue
        verts, entries = got
        g = realize_proj_coords(proj_sum(w, verts), f.source, entries)
        kernel = kernel_with_inclusion(f)[0]
        assert g.is_natural(), (label, f.source.cert)
        assert g.then(f).is_zero(), (label, f.source.cert)
        for x in w.quiver.vertices:
            assert g.source.dims[x] == kernel.dims[x], (label, f.source.cert, x)
            assert rank(g.comps[x]) == g.source.dims[x], (label, f.source.cert, x)


def test_induce_along_path_valued_embedding():
    # embed A2 into A3 sending the arrow to the length-two composite
    big = a3_window()
    sub = Window(Quiver(["a", "b"], [("f", "a", "b")]))
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
    f5 = field_by_name("fp:5")
    w = Window(Quiver(["1", "2"], [("a", "1", "2")]), field=f5)
    total = proj_sum(w, ["1", "2", "2"])
    parts = decompose(total)
    assert len(parts) == 3
    # the rotation endomorphism splits over F_5 (x^2 + 1 = (x-2)(x-3))
    from threadquiver.linalg import Matrix
    from threadquiver.reps import Rep

    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    w2 = Window(q, field=f5)
    rot = matrix_from_rows(f5, [[0, -1], [1, 0]])
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
    w = Window(q)
    rot = matrix_from_rows(QQ, [[0, -1], [1, 0]])
    ident = Matrix.identity(QQ, 2)
    M = Rep(w, {"x": 2, "y": 2}, {"a": ident, "b": rot})
    assert hom_dim(M, M) == 2
    with pytest.raises(EndNotSplit):
        decompose(M)


@pytest.mark.parametrize("field", ["fp:2", "fp:5", "fp:103", "fp:10007"])
def test_decompose_kronecker_local_over_prime_fields(field):
    # the Kronecker module with M(a) = I_2 and M(b) = J_2 has End = k[x]/x^2,
    # local over every field; over fp:2 each dimension is 0 in the field, so
    # every scalar is tried
    fld = field_by_name(field)
    q = Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")])
    w = Window(q, field=fld)
    jordan = matrix_from_rows(fld, [[0, 1], [0, 0]])
    M = Rep(w, {"x": 2, "y": 2}, {"a": Matrix.identity(fld, 2), "b": jordan})
    assert hom_dim(M, M) == 2
    assert len(decompose(M)) == 1


# -- kernels, cokernels, tops and presentations against their oracles ----------


def _same_rep(A, B):
    return A.dims == B.dims and dict(A.maps) == dict(B.maps)


def _assert_matches_oracles(f, where):
    """Kernel, cokernel and the tops of all four modules equal the oracles',
    block for block."""
    K, incl = kernel_with_inclusion(f)
    K0, incl0 = solving_kernel_with_inclusion(f)
    assert _same_rep(K, K0) and dict(incl.comps) == dict(incl0.comps), where
    C, proj = cokernel_with_projection(f)
    C0, proj0 = eliminating_cokernel_with_projection(f)
    assert _same_rep(C, C0) and dict(proj.comps) == dict(proj0.comps), where
    for X in (f.source, f.target, K, C):
        assert top_generators(X) == two_step_top_generators(X), where


@pytest.mark.parametrize("label, w", [
    pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))
] + [pytest.param(f"grid{n}", comm_grid_window(n), id=f"grid{n}") for n in (2, 3)])
def test_kernel_cokernel_top_and_presentations_match_oracles(label, w):
    # the covers of every standard module and the maps P(x) -> P(y) of the
    # arrows: their components vanish at some vertices of the source's
    # support and act at others
    from threadquiver.serre import VarietyMor, realize_proj

    vanishing = acting = 0
    maps = [realize_proj(VarietyMor.from_arrow(w, a.name)) for a in w.quiver.arrows]
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            X = std_module(w, v, kind)
            maps.append(projective_cover(X)[1])
            assert two_term_presentation(X, PROJECTIVE) == cover_kernel_cover_presentation(X)
            assert two_term_presentation(X, INJECTIVE) == hull_cokernel_hull_copresentation(X)
    for f in maps:
        _assert_matches_oracles(f, (label, f.source, f.target))
        for v in f.source.support:
            vanishing += f.comps[v].is_zero()
            acting += not f.comps[v].is_zero()
    assert vanishing and acting


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_kernel_cokernel_top_and_presentations_match_oracles_on_random_maps(tq, depth, seed):
    # sparse combinations of a hom basis vanish at some vertices where both
    # modules are nonzero
    w = expand(tq, depth)
    rng = random.Random(seed)
    M, N = random_fp_rep(w, rng), random_fp_rep(w, rng)
    f = zero_map(M, N)
    for g in hom_basis_generic(M, N)[1]:
        c = rng.choice((0, 0, 1, -1, 2))
        if c:
            f = f + g.scale(QQ(c))
    _assert_matches_oracles(f, seed)
    K = kernel_with_inclusion(projective_cover(M)[1])[0]
    assert top_generators(K) == two_step_top_generators(K), seed
    assert two_term_presentation(M, PROJECTIVE) == cover_kernel_cover_presentation(M)
    assert two_term_presentation(M, INJECTIVE) == hull_cokernel_hull_copresentation(M)


@given(random_thread_quivers(), st.integers(0, 1), st.data())
@settings(max_examples=30, deadline=None)
def test_presentations_match_oracles_on_random_relation_windows(tq, depth, data):
    # one random relation: the covers' kernels, and the tops read off them,
    # see the relation's paths identified or killed
    q = expand(tq, depth).quiver
    w = Window(q, [draw_relation(data, q)])
    for v in q.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            X = std_module(w, v, kind)
            assert two_term_presentation(X, PROJECTIVE) == cover_kernel_cover_presentation(X)
            assert two_term_presentation(X, INJECTIVE) == hull_cokernel_hull_copresentation(X)


@given(random_thread_quivers(), st.integers(0, 1), st.sampled_from(["q", "fp:7"]),
       st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_cokernel_matches_the_eliminating_oracle_on_random_maps(tq, depth, field, seed):
    # the cokernel is D ker(D f); the oracle eliminates a quotient at every
    # vertex.  Among the maps: one into the cokernel C, which carries no
    # certificate, and zero maps, whose stored components are all zero
    w = expand(tq, depth, field=field_by_name(field))
    fld = w.field
    rng = random.Random(seed)
    M, N = random_fp_rep(w, rng), random_fp_rep(w, rng)
    f = zero_map(M, N)
    for g in hom_basis_generic(M, N)[1]:
        c = rng.choice((0, 0, 1, -1, 2))
        if c:
            f = f + g.scale(fld(c))
    C, proj = cokernel_with_projection(f)
    P = std_module(w, w.quiver.vertices[0], PROJECTIVE)
    maps = [f, proj, zero_map(N, C), zero_map(P, P)]
    assert C.cert is None and any(m.is_zero() for m in maps[-1].comps.values())
    for g in maps:
        got, got_proj = cokernel_with_projection(g)
        want, want_proj = eliminating_cokernel_with_projection(g)
        assert got.window is want.window is w and got_proj.source is g.target, seed
        assert _same_rep(got, want) and dict(got_proj.comps) == dict(want_proj.comps), seed


def test_hom_basis_into_injective_sums_maps_between_the_given_modules():
    # the opposite window's basis is transposed onto M and N themselves, not
    # onto fresh duals of their duals
    w = expand(tq_mixed(), 1)
    verts = w.quiver.vertices
    nonzero = 0
    for v, u in zip(verts, verts[1:] + verts[:1]):
        for N in (std_module(w, v, INJECTIVE), reps.inj_sum(w, (v, u))):
            for kind in (PROJECTIVE, SIMPLE, INJECTIVE):
                M = std_module(w, v, kind)
                dim, basis = hom_basis(M, N)
                assert dim == len(basis) == hom_basis_generic(M, N)[0], (v, kind)
                assert all(g.source is M and g.target is N and g.is_natural()
                           for g in basis), (v, kind)
                nonzero += dim
    assert nonzero


def test_kernel_with_inclusion_rejects_a_non_natural_map():
    # M = P(2) + S(1) on 1 -a-> 2, and f: M -> S(1) killing the second
    # coordinate at 1 only: M(a) sends M(2) outside the kernel at 1, which
    # the free-row coordinates alone would not notice
    w = a2_window()
    M = Rep(w, {"1": 2, "2": 1}, {"a": matrix_from_rows(QQ, [[1], [0]])})
    f = RepMap(M, std_module(w, "1", SIMPLE), {"1": matrix_from_rows(QQ, [[1, 0]])})
    assert not f.is_natural()
    with pytest.raises(AssertionError, match="not in span"):
        kernel_with_inclusion(f)


# -- covers certified by their kernels, tops read from the radical's vectors ---


def _nonzero_radical_dims(X):
    """The dimensions of X(v) at the vertices where rad X(v) is nonzero."""
    return {X.dims[a.src] for a in X.support_arrows if not X.maps[a.name].is_zero()}


@pytest.mark.parametrize("n", [2, 3])
def test_top_generators_match_the_two_step_oracle_on_cover_kernels(n):
    # the kernels of the covers of every standard module (one-dimensional
    # wherever they are nonzero on a grid) and of random modules, whose
    # cover kernels reach higher dimensions: both branches occur
    w = comm_grid_window(n)
    rng = random.Random(n)
    modules = [std_module(w, v, kind)
               for v in w.quiver.vertices for kind in (PROJECTIVE, INJECTIVE, SIMPLE)]
    modules += [random_fp_rep(w, rng, n_gens=4) for _ in range(8)]
    seen = set()
    for M in modules:
        for X in (M, kernel_with_inclusion(projective_cover(M)[1])[0]):
            assert top_generators(X) == two_step_top_generators(X)
            seen |= {min(d, 2) for d in _nonzero_radical_dims(X)}
    assert seen == {1, 2}


def test_presentations_and_resolutions_eliminate_each_cover_component_once(monkeypatch):
    # no stacked matrix on either route, and every cover component with two
    # or more rows is eliminated once, by its kernel, where it is nonzero; a
    # one-row component's kernel is read in closed form and a zero one's is
    # the whole space, so neither reaches rref
    import threadquiver.linalg as linalg
    import threadquiver.reps as reps

    w = expand(tq_mixed(), 2)
    stacked, eliminated, covers = [], [], []
    real_rref, real_cover = linalg.rref, reps.projective_cover

    def counting_rref(m):
        eliminated.append(m)
        return real_rref(m)

    def recording_cover(M):
        P, cover = real_cover(M)
        covers.append(cover)
        return P, cover

    def recording_hstack(parts):
        stacked.append(parts)
        return linalg.hstack(parts)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(reps, "rref", counting_rref)
    monkeypatch.setattr(reps, "hstack", recording_hstack)
    monkeypatch.setattr(reps, "projective_cover", recording_cover)
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            X = std_module(w, v, kind)
            for side in (PROJECTIVE, INJECTIVE):
                two_term_presentation(X, side)
                resolution(X, side, 6)
    assert covers and not stacked
    times = {}
    for m in eliminated:
        times[id(m)] = times.get(id(m), 0) + 1
    seen = set()
    for cover in covers:
        for m in cover.comps.values():
            kind = "zero" if m.is_zero() else "one row" if m.rows == 1 else "rows"
            seen.add(kind)
            assert times.get(id(m), 0) == (1 if kind == "rows" else 0), kind
    assert {"one row", "rows"} <= seen


def _around(M):
    """R and R with the heads of R's out-arrows, for the presentation of M,
    from M's support alone: the cover is onto, so it is nonzero exactly on
    supp M, which holds the cover's blocks; R adds the sources of the
    arrows into supp M."""
    q = M.window.quiver
    near = set(M.support).union(a.src for v in M.support for a in q.in_arrows[v])
    return near, near.union(a.tgt for v in near for a in q.out_arrows[v])


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_the_kernel_top_lies_around_the_module(tq, depth, seed):
    # off R the cover vanishes at x and at the head of every arrow out of
    # x, so the full kernel has no top there; the presentation, which builds
    # the kernel around M only, reads the same top
    w = expand(tq, depth)
    M = random_fp_rep(w, random.Random(seed))
    for X in (M, dualize(M)):
        near, _ = _around(X)
        P0, cover = projective_cover(X)
        top = tuple(v for v, _ in top_generators(solving_kernel_with_inclusion(cover)[0]))
        assert set(top) <= near
        assert two_term_presentation(X, PROJECTIVE) == (P0.cert[1], top)


def _step_around(d):
    """R ∪ heads(R) for the kernel of d, a map out of a certified sum P: R
    is the vertices where d is nonzero, with P's blocks, and the sources of
    the arrows into them."""
    q = d.source.window.quiver
    near = {v for v, m in d.comps.items() if not m.is_zero()}.union(d.source.cert[1])
    near.update(a.src for v in tuple(near) for a in q.in_arrows[v])
    return near.union(a.tgt for v in near for a in q.out_arrows[v])


def test_presentations_build_kernels_only_around_the_module(monkeypatch):
    # presenting every P, I and S of mixed@3 on both sides builds no
    # uncertified module (the kernel, or D M) off R ∪ heads(R); a
    # resolution builds one kernel module per step, around that step's map
    # (the cover, then each differential), and its terms are the oracle's;
    # so does the one step of a pseudokernel
    w = expand(tq_mixed(), 3)
    built = []
    real_init = Rep.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if self.cert is None:
            built.append(self)

    modules = [std_module(w, v, kind) for v in w.quiver.vertices
               for kind in (PROJECTIVE, INJECTIVE, SIMPLE)]
    monkeypatch.setattr(Rep, "__init__", recording_init)
    for M in modules:
        for side, X in ((PROJECTIVE, M), (INJECTIVE, dualize(M))):
            _, around = _around(X)
            built.clear()
            two_term_presentation(M, side)
            assert built, "no kernel module was built"
            assert all(set(K.support) <= around for K in built), (M, side)
    full = deep = 0
    grid = comm_grid_window(2)  # not hereditary: its simples take two steps
    simples = modules[2::3] + [std_module(grid, v, SIMPLE) for v in grid.quiver.vertices]
    for M in simples:  # the simples, whose kernels reach furthest
        built.clear()
        cx, ended = reps._resolve(M, len(M.window.quiver.vertices))
        kernels = list(built)
        assert ended
        # one step per differential: step 0 reads the kernel of M's cover,
        # step i that of the differential out of degree -i
        cover = projective_cover(M)[1]
        maps = [cover] + [cx.diff(-i) for i in range(1, len(cx.diffs))]
        maps = maps[:len(cx.diffs)]
        assert len(kernels) == len(maps), M
        for K, d in zip(kernels, maps):
            assert set(K.support) <= _step_around(d), M
        deep += len(kernels) > 1
        want = solving_kernel_with_inclusion(cover)[0]
        full += not set(want.support) <= _step_around(cover)
        second = cx.term(-1).cert[1] if cx.term(-1) else ()
        assert (cx.term(0).cert[1], second) == cover_kernel_cover_presentation(M)
    assert full and deep
    # a pseudokernel is one resolution step: on a3, P(1) + P(2) -> P(2) + P(3)
    # with blocks a, id, b.a, b has kernel P(1), built once, around the map
    f = a3_block_map()
    built.clear()
    verts, coords = reps.kernel_as_projectives(f)
    assert len(built) == 1 and set(built[0].support) <= _step_around(f)
    assert verts == ("1",)
    one = f.source.field.one
    assert coords == [[[-one]], [[one]]]  # P(1) -> P(1) + P(2) as (-id, a)


def test_presentations_read_the_kernel_top_at_r_only(monkeypatch):
    # presenting every P, I and S of mixed@3 on both sides computes the
    # kernel's top only where it is kept: every generator of the kernel-top
    # call (the one made outside projective_cover) is a term of P1, none on
    # the rim heads(R) minus R; the answers are the oracle's
    w = expand(tq_mixed(), 3)
    modules = [std_module(w, v, kind) for v in w.quiver.vertices
               for kind in (PROJECTIVE, INJECTIVE, SIMPLE)]
    covers_open, kernel_tops = [], []
    real_top, real_cover = reps.top_generators, reps.projective_cover

    def counting_top(M, *at):
        gens = real_top(M, *at)
        if not covers_open:
            kernel_tops.append(len(gens))
        return gens

    def cover(M):
        covers_open.append(M)
        try:
            return real_cover(M)
        finally:
            covers_open.pop()

    monkeypatch.setattr(reps, "top_generators", counting_top)
    monkeypatch.setattr(reps, "projective_cover", cover)
    kept = computed = 0
    for M in modules:
        for side, oracle in ((PROJECTIVE, cover_kernel_cover_presentation),
                             (INJECTIVE, hull_cokernel_hull_copresentation)):
            want = oracle(M)
            kernel_tops.clear()
            got = two_term_presentation(M, side)
            assert got == want and len(kernel_tops) == 1, (M, side)
            kept += len(got[1])
            computed += kernel_tops[0]
    assert kept and computed == kept


def test_a_sum_is_built_once_per_vertex_tuple():
    # proj_sum and inj_sum keep each certified sum on the window by its
    # vertex tuple, so a repeated tuple is the same object, with its
    # offsets; release drops the sums with the standard modules
    w = expand(tq_mixed(), 2)
    vs = tuple(w.quiver.vertices[:3]) + (w.quiver.vertices[0],)
    P, I = proj_sum(w, vs), reps.inj_sum(w, vs)
    assert proj_sum(w, list(vs)) is P and reps.inj_sum(w, vs) is I
    assert P.cert == ("proj", vs) and I.cert == ("inj", vs)
    assert proj_sum(w, ()) is proj_sum(w, ()) and proj_sum(w, ()).is_zero()
    assert proj_sum(w, vs[:1]) is std_module(w, vs[0], PROJECTIVE)
    want = direct_sum_object([std_module(w, v, PROJECTIVE) for v in vs])
    assert P.dims == want.dims and dict(P.maps.items()) == dict(want.maps.items())
    w.release()
    assert w._std_cache == {}
    assert proj_sum(w, vs) is not P and proj_sum(w, vs).dims == P.dims


def test_injective_presentations_build_each_sum_once(monkeypatch):
    # presenting every I(v) of mixed@3 on both sides writes one direct sum
    # per window and vertex tuple, however often a cover's top repeats
    w = expand(tq_mixed(), 3)
    injectives = [std_module(w, v, INJECTIVE) for v in w.quiver.vertices]
    sums = []
    real_sum = reps._sum_object

    def counting_sum(parts):
        sums.append((parts[0].window, tuple(v for p in parts for v in p.cert[1])))
        return real_sum(parts)

    monkeypatch.setattr(reps, "_sum_object", counting_sum)
    for M in injectives:
        for side in (PROJECTIVE, INJECTIVE):
            two_term_presentation(M, side)
    assert sums and len(sums) == len(set(sums))


def test_an_injective_resolution_is_the_dual_of_the_one_resolved(monkeypatch):
    # resolution(M, INJECTIVE) dualizes the projective resolution of D M,
    # and the result's dual is that complex itself: a hom complex into it
    # compiles its one plan on the complex _resolve built, with the dims
    # of the basis oracle
    w = expand(tq_mixed(), 1)
    rng = random.Random(7)
    X, M = random_fp_rep(w, rng), random_fp_rep(w, rng)
    while X.cert is not None:  # a projective X would take the other route
        X = random_fp_rep(w, rng)
    resolved = []
    real_resolve = reps._resolve

    def recording_resolve(N, length):
        out = real_resolve(N, length)
        resolved.append(out[0])
        return out

    monkeypatch.setattr(reps, "_resolve", recording_resolve)
    CY = resolution(M, INJECTIVE, 8).complex
    assert len(resolved) == 1 and CY.dual is resolved[0]
    assert [t.dims for t in CY.terms] == [
        dualize(t).dims for t in reversed(resolved[0].terms)]
    want = cohomology_dims(*basis_route_hom_data(reps.one_term_complex(X), CY))
    compiled = []
    real_init = reps.YonedaPlan.__init__

    def counting_init(plan, cx):
        compiled.append(cx)
        real_init(plan, cx)

    monkeypatch.setattr(reps.YonedaPlan, "__init__", counting_init)
    assert reps.total_hom_dims(reps.one_term_complex(X), CY) == want
    assert len(compiled) == 1 and compiled[0] is resolved[0]


def _std_modules(w):
    return [std_module(w, v, kind) for v in w.quiver.vertices
            for kind in (PROJECTIVE, INJECTIVE, SIMPLE)]


def test_sum_object_matches_the_direct_sum_oracle():
    # per arrow a: x -> y, sums where a part misses a (S(x), S(y), P(x))
    # before and after parts that store it, and sums where no part stores a
    # although its two ends lie in different parts (S(x) + S(y))
    w = expand(tq_mixed(), 2)
    missed = split = 0
    for a in w.quiver.arrows:
        x, y = a.src, a.tgt
        S = {v: std_module(w, v, SIMPLE) for v in (x, y)}
        P = {v: std_module(w, v, PROJECTIVE) for v in (x, y)}
        I = {v: std_module(w, v, INJECTIVE) for v in (x, y)}
        for parts in ([S[x], S[y]], [S[x], P[y], S[y], P[y]], [P[y], S[x], I[x], P[x]],
                      [I[y], I[x], S[x]], [P[y], P[y]]):
            got, want = _sum_object(parts), direct_sum_object(parts)
            assert (got.dims, got.support, got.support_arrows, got.cert) == (
                want.dims, want.support, want.support_arrows, want.cert)
            assert dict(got.maps) == dict(want.maps)
            stored = [a.name in p.maps for p in parts]
            missed += a.name in got.maps and not all(stored)
            split += a.name in got.maps and not any(stored)
    assert missed and split


@pytest.mark.parametrize("label, w", [
    ("mixed@2", expand(tq_mixed(), 2)),
    ("grid3", comm_grid_window(3)),
])
def test_yoneda_write_matches_the_per_block_oracle(label, w):
    # the covers of every standard module and of its cover's kernel, written
    # block by block into the sum's components, equal the per-block matrices
    # copied row by row; covers of more than one block put blocks at nonzero
    # offsets
    multi = 0
    modules = _std_modules(w)
    modules += [kernel_with_inclusion(projective_cover(M)[1])[0] for M in modules]
    for M in modules:
        gens = top_generators(M)
        P = proj_sum(w, [v for v, _ in gens])
        vecs = [vec for _, vec in gens]
        got, want = _yoneda_write(P, M, vecs), per_block_yoneda_write(P, M, vecs)
        assert dict(got.comps) == dict(want.comps), M
        multi += len(gens) > 1
        if len(gens) > 1:
            # with a block left out, the others stay where they were
            vecs[0] = None
            assert dict(_yoneda_write(P, M, vecs).comps) == dict(
                per_block_yoneda_write(P, M, vecs).comps)
    assert multi


@pytest.mark.parametrize("label, w", [
    ("mixed@2", expand(tq_mixed(), 2)),
    ("grid3", comm_grid_window(3)),
])
def test_kernel_and_cokernel_read_only_stored_blocks(monkeypatch, label, w):
    # neither reaches _Blocks.__missing__: an unstored component is read as
    # the whole space, with no empty block built
    maps = []
    for M in _std_modules(w):
        maps.append(projective_cover(M)[1])
        maps.append(injective_hull(M)[1])

    def unstored(blocks, key):
        raise AssertionError(f"unstored block {key!r} read")

    monkeypatch.setattr(reps._Blocks, "__missing__", unstored)
    for f in maps:
        K, incl = kernel_with_inclusion(f)
        C, proj = cokernel_with_projection(f)
        monkeypatch.undo()
        oK, oincl = solving_kernel_with_inclusion(f)
        oC, oproj = eliminating_cokernel_with_projection(f)
        assert (K.dims, dict(K.maps), dict(incl.comps)) == (oK.dims, dict(oK.maps),
                                                            dict(oincl.comps))
        assert (C.dims, dict(C.maps), dict(proj.comps)) == (oC.dims, dict(oC.maps),
                                                            dict(oproj.comps))
        monkeypatch.setattr(reps._Blocks, "__missing__", unstored)
