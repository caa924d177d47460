import random

import pytest
from conftest import (
    ainf_rad2_window,
    basis_route_hom_data,
    cohomology_dims,
    random_fp_rep,
    star_tail_window,
    tq_comm_square,
    tq_fin1_thread,
    tq_mixed,
    tq_z_thread,
    zigzag_window,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from test_windows import random_thread_quivers

from threadquiver.errors import ExceedsBound, NotProjectiveCertified
from threadquiver.quiver import Quiver
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    ext_dim,
    hom_dim,
    one_term_complex,
    proj_dim,
    resolution,
    std_module,
)
from threadquiver.serre import (
    COKERNEL,
    KERNEL,
    VarietyMor,
    check_dualizing,
    check_serre,
    derived_hom_dim,
    nakayama,
    pseudo,
    serre_image,
    total_hom_data,
    total_hom_dims,
)
from threadquiver.windows import expand, window_from_quiver


def a2_window():
    return window_from_quiver(Quiver(["1", "2"], [("a", "1", "2")]), name="A2")


def probes(w, kinds=(PROJECTIVE, SIMPLE), interior_only=True):
    out = []
    verts = w.interior_vertices() if interior_only else w.quiver.vertices
    tag = {PROJECTIVE: "P", SIMPLE: "S", INJECTIVE: "I"}
    for v in verts:
        for k in kinds:
            out.append((f"{tag[k]}({v})", std_module(w, v, k)))
    return out


# -- pseudo(co)kernels -------------------------------------------------------------


def test_pseudo_kernel_of_arrow_a2():
    w = a2_window()
    vm = VarietyMor.from_arrow(w, "a")
    verts, ind = pseudo(vm, KERNEL)
    assert verts == ()


def test_pseudo_kernel_of_identity():
    w = a2_window()
    vm = VarietyMor.identity(w, "2")
    assert pseudo(vm, KERNEL)[0] == ()
    assert pseudo(vm, COKERNEL)[0] == ()


def test_pseudo_kernel_of_zero_map():
    w = a2_window()
    vm = VarietyMor.zero(w, ("1",), ("2",))
    verts, ind = pseudo(vm, KERNEL)
    assert verts == ("1",)
    # counit: the induced map is into P(1), and it is an isomorphism here
    assert ind.source == ("1",) and ind.target == ("1",)
    cverts, _ = pseudo(vm, COKERNEL)
    assert cverts == ("2",)


def test_pseudo_kernel_rad_square_zero():
    # on A3 with rad^2 = 0, the kernel of P(2) -> P(3) is P(1)
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    from threadquiver.quiver import Relation

    w = window_from_quiver(q, [Relation(((1, q.path(("a", "b"))),))])
    vm = VarietyMor.from_arrow(w, "b")  # P(2) -> P(3)
    verts, ind = pseudo(vm, KERNEL)
    assert verts == ("1",)


# -- nakayama ----------------------------------------------------------------------


def test_nakayama_transports_resolution_a2():
    w = a2_window()
    s2 = std_module(w, "2", SIMPLE)
    res = resolution(s2, PROJECTIVE, 4)
    assert [t.cert for t in res.complex.terms] == [("proj", ("1",)), ("proj", ("2",))]
    ncx = nakayama(res.complex)
    assert [t.cert for t in ncx.terms] == [("inj", ("1",)), ("inj", ("2",))]
    ncx.check()
    # the transported differential is nonzero (the pairing is faithful)
    assert not ncx.diffs[0].is_zero()


def test_nakayama_zero_and_singleton():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    cx = one_term_complex(p1)
    ncx = nakayama(cx)
    assert ncx.terms[0].cert == ("inj", ("1",))
    s1 = std_module(w, "1", SIMPLE)
    with pytest.raises(NotProjectiveCertified):
        nakayama(one_term_complex(s1))


def test_nakayama_preserves_complex_law_zigzag():
    w = zigzag_window()
    s = std_module(w, "a22", SIMPLE)
    res = resolution(s, PROJECTIVE, 6)
    ncx = nakayama(res.complex)
    ncx.check()


# -- serre image and derived homs -----------------------------------------------------


def test_serre_image_projectives_a2():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    sx = serre_image(p1, 4)
    assert len(sx.terms) == 1 and sx.terms[0].cert == ("inj", ("1",))
    p2 = std_module(w, "2", PROJECTIVE)
    sx2 = serre_image(p2, 4)
    assert sx2.terms[0].cert == ("inj", ("2",))


def test_derived_hom_matches_hom_and_ext():
    w = a2_window()
    rng = random.Random(5)
    probes_list = [p for _, p in probes(w)]
    for M in probes_list:
        for N in probes_list:
            assert derived_hom_dim(M, N, 0, 6) == hom_dim(M, N)
            assert derived_hom_dim(M, N, 1, 6) == ext_dim(1, M, N, 6)


def test_derived_hom_a2_by_hand():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    p2 = std_module(w, "2", PROJECTIVE)
    s2 = std_module(w, "2", SIMPLE)
    s1 = std_module(w, "1", SIMPLE)
    assert derived_hom_dim(s2, s1, 1) == 1
    assert derived_hom_dim(p1, serre_image(p1, 4), 0) == 1
    # frozen table of the six ordered hom dims on {P1, P2, S2}
    table = {
        ("p1", "p2"): 1, ("p2", "p1"): 0,
        ("p1", "s2"): 0, ("s2", "p1"): 0,
        ("p2", "s2"): 1, ("s2", "p2"): 0,
    }
    objs = {"p1": p1, "p2": p2, "s2": s2}
    for (a, b), expected in table.items():
        assert hom_dim(objs[a], objs[b]) == expected


def test_total_hom_complex_squares_to_zero():
    # the assembled total differential satisfies D^2 = 0 even when both
    # complexes have several terms (this pins the sign convention)
    from threadquiver.serre import total_hom_data

    w = zigzag_window()
    s = std_module(w, "a22", SIMPLE)
    t = std_module(w, "a33", SIMPLE)
    res = resolution(s, PROJECTIVE, 6)
    img = serre_image(t, 6)
    assert len(res.complex.terms) >= 3 and len(img.terms) >= 4
    dims, diffs = total_hom_data(res.complex, img)
    for n in sorted(dims):
        if n + 1 in diffs and diffs[n].rows and diffs[n].cols:
            prod = diffs[n + 1] @ diffs[n]
            assert prod.is_zero(), f"D^2 != 0 at degree {n}"


def shift_degrees(cx: Complex, by: int) -> Complex:
    """The same complex with every term moved up by `by` degrees."""
    return Complex(cx.window, cx.min_degree + by, cx.terms, cx.diffs)


def test_derived_hom_shift_identity():
    # shifting the target complex shifts cohomology degrees
    w = zigzag_window()
    s = std_module(w, "a22", SIMPLE)
    t = std_module(w, "a33", SIMPLE)
    res = resolution(s, PROJECTIVE, 6)
    img = serre_image(t, 6)
    base = total_hom_dims(res.complex, img)
    shifted = total_hom_dims(res.complex, shift_degrees(img, 2))
    for n, d in base.items():
        assert shifted.get(n + 2, 0) == d


def test_ext_agrees_with_injective_coresolution_route():
    # independent dual route: Ext^i(M, N) via an injective coresolution of N
    import random as _random

    from conftest import random_fp_rep, tq_fin1_thread
    from threadquiver.reps import one_term_complex, resolution as _resolution

    rng = _random.Random(8)
    windows = [
        zigzag_window(),
        expand(tq_fin1_thread(), 1),
    ]
    for w in windows:
        for _ in range(4):
            M = random_fp_rep(w, rng)
            N = random_fp_rep(w, rng)
            if M.is_zero() or N.is_zero():
                continue
            inj = _resolution(N, INJECTIVE, 8)
            proj = _resolution(M, PROJECTIVE, 8)
            via_inj = total_hom_dims(one_term_complex(M), inj.complex)
            via_both = total_hom_dims(proj.complex, inj.complex)
            for i in range(3):
                assert ext_dim(i, M, N, 8) == via_inj.get(i, 0), (i, w.name)
                assert ext_dim(i, M, N, 8) == via_both.get(i, 0), (i, w.name)


# -- check_serre -------------------------------------------------------------------


def test_check_serre_a2_passes():
    w = a2_window()
    report = check_serre(w, probes(w), 6, shifts=range(-3, 4))
    assert report.passed, report.items


def test_check_serre_zigzag_passes():
    w = zigzag_window()
    report = check_serre(w, probes(w), 6, shifts=range(-4, 5))
    assert report.passed, report.items[:4]


def test_check_serre_z_thread_depth2_skips_cut_probes():
    # interior probes whose resolutions lean on the cut are skipped, the
    # honest remainder passes
    w = expand(tq_z_thread(), 2)
    report = check_serre(w, probes(w), 6, shifts=range(-3, 4))
    assert report.passed, report.items[:3]
    assert report.skipped > 0
    assert report.checked > 0


def test_check_serre_detects_exceeds_bound():
    w = ainf_rad2_window(10)
    report = check_serre(w, probes(w), 6, shifts=range(-2, 3))
    assert not report.passed
    assert any("ExceedsBound" in i.actual for i in report.items)


def test_zigzag_projective_dimensions():
    w = zigzag_window()
    assert proj_dim(std_module(w, "a11", SIMPLE), 6) == 1
    assert proj_dim(std_module(w, "a22", SIMPLE), 6) == 2
    assert proj_dim(std_module(w, "a33", SIMPLE), 6) == 3


def test_zigzag_distance_two_homs_vanish():
    # radical square zero: any two-step composition dies
    w = zigzag_window()
    q = w.quiver
    for x in q.vertices:
        direct = {a.tgt for a in q.out_arrows[x]}
        two_steps = {
            b.tgt for a in q.out_arrows[x] for b in q.out_arrows[a.tgt]
        } - direct - {x}
        for y in two_steps:
            assert w.hom_dim(x, y) == 0, (x, y)


def test_resolution_boundary_rejection():
    from threadquiver.errors import BoundaryContaminated
    from threadquiver.reps import resolution

    w = expand(tq_z_thread(), 1)
    # a simple whose syzygy generator sits on a cut-adjacent vertex
    order = w.topological_order()
    flagged = set(w.boundary)
    victim = next(
        v for v in order
        if v not in flagged and any(a.src in flagged for a in w.quiver.in_arrows[v])
    )
    s = std_module(w, victim, SIMPLE)
    resolution(s, PROJECTIVE, 6)  # fine without the flag
    with pytest.raises(BoundaryContaminated):
        resolution(s, PROJECTIVE, 6, forbid_boundary=True)


def test_ainf_rad2_projective_dimensions():
    w = ainf_rad2_window(10)
    for k in range(1, 11):
        assert proj_dim(std_module(w, f"v{k}", SIMPLE), 12) == k - 1


# -- check_dualizing ----------------------------------------------------------------


def test_check_dualizing_a2():
    w = a2_window()
    report = check_dualizing(w)
    assert report.passed, report.items


def test_check_dualizing_fails_without_semi_heredity():
    # on the line with rad^2 = 0, ker(P(v_i) -> P(v_i+1)) is the simple at
    # v_i-1, projective only for i <= 2; dually, pseudocokernels exist only
    # for i >= 8
    report = check_dualizing(ainf_rad2_window(10))
    assert not report.passed
    expected = {(f"pseudokernel(a{i})", "NotRepresentable") for i in range(3, 10)}
    expected |= {(f"pseudocokernel(a{i})", "NotRepresentable") for i in range(1, 8)}
    assert {(i.subject, i.actual) for i in report.items} == expected


def test_check_dualizing_expansions():
    for tq in (tq_z_thread(), tq_fin1_thread()):
        w = expand(tq, 1)
        report = check_dualizing(w)
        assert report.passed, report.items


def test_check_dualizing_star_tail_strict():
    w = star_tail_window(6)
    lax = check_dualizing(w)
    assert lax.passed
    strict = check_dualizing(w, strict_boundary=True)
    assert not strict.passed
    assert any("S(X) cofinitely presented" in i.subject for i in strict.items)


def test_check_dualizing_interior_strict_on_deep_window():
    # away from the cut, strict mode holds for the honest interior
    w = expand(tq_z_thread(), 2)
    report = check_dualizing(w, strict_boundary=True)
    # vertices adjacent to the cut will trip strict mode; the report must
    # only name presentations that genuinely touch the boundary
    for item in report.items:
        assert "boundary" in item.actual


# -- the evaluation route against the basis-route oracle ------------------------------


def _all_probes(w):
    return probes(w, interior_only=False)


@pytest.mark.parametrize(
    "make_window",
    [
        a2_window,
        zigzag_window,
        lambda: expand(tq_comm_square(), 0),
        lambda: expand(tq_z_thread(), 2),
        lambda: expand(tq_mixed(), 1),
    ],
    ids=["a2", "zigzag", "comm_square", "z_thread-d2", "mixed-d1"],
)
def test_total_hom_data_matches_basis_oracle(make_window):
    # both complexes check_serre assembles, for every ordered probe pair:
    # hom(res X, Y) and hom(res Y, S X); the matrices agree entry for entry
    w = make_window()
    objs = _all_probes(w)
    resolved = {l: resolution(M, PROJECTIVE, 6).complex for l, M in objs}
    images = {l: nakayama(resolved[l]) for l, _ in objs}
    for xl, _ in objs:
        for yl, Y in objs:
            for CX, CY in ((resolved[xl], one_term_complex(Y)),
                           (resolved[yl], images[xl])):
                dims, diffs = total_hom_data(CX, CY)
                o_dims, o_diffs = basis_route_hom_data(CX, CY)
                assert dims == o_dims, (xl, yl)
                assert diffs == o_diffs, (xl, yl)


@given(random_thread_quivers(), st.integers(0, 1), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_injective_target_route_matches_basis_oracle(tq, depth, seed):
    # a module of no certified shape into an injective coresolution goes
    # through the opposite window; its cohomology must match the oracle's
    w = expand(tq, depth)
    rng = random.Random(seed)
    X = random_fp_rep(w, rng)
    Y = random_fp_rep(w, rng)
    CX = one_term_complex(X)
    CY = resolution(Y, INJECTIVE, 8).complex
    got = total_hom_dims(CX, CY)
    assert got == cohomology_dims(*basis_route_hom_data(CX, CY))
    assert all(got.get(i, 0) == ext_dim(i, X, Y, 8) for i in range(3))


def test_total_hom_needs_a_certified_side():
    w = a2_window()
    s = one_term_complex(std_module(w, "2", SIMPLE))
    with pytest.raises(NotProjectiveCertified):
        total_hom_dims(s, s)


def test_check_serre_fails_without_the_nakayama_transport(monkeypatch):
    # the right-hand side must read the realized transport: with every
    # transported differential zeroed the dimensions disagree
    import threadquiver.serre as serre
    from threadquiver.reps import RepMap, inj_sum

    def zero_transport(w, src_verts, tgt_verts, entries):
        return RepMap(inj_sum(w, src_verts), inj_sum(w, tgt_verts), {})

    monkeypatch.setattr(serre, "realize_inj_coords", zero_transport)
    w = zigzag_window()
    report = check_serre(w, probes(w), 6, shifts=range(-4, 5))
    assert not report.passed
    assert any(i.subject.startswith("RHom") for i in report.items)


def test_nakayama_functoriality_checks_every_pair(monkeypatch):
    # A4 has the composable pairs (a, b) and (b, c); corrupting the transport
    # of the second composite only is still caught
    import threadquiver.serre as serre

    q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    w = window_from_quiver(q, name="A4")
    real = serre.realize_inj_coords

    def corrupt(w_, src_verts, tgt_verts, entries):
        g = real(w_, src_verts, tgt_verts, entries)
        if (tuple(src_verts), tuple(tgt_verts)) == (("2",), ("4",)):
            return g.scale(2)
        return g

    assert check_serre(w, probes(w), 6, shifts=range(-3, 4)).passed
    monkeypatch.setattr(serre, "realize_inj_coords", corrupt)
    report = check_serre(w, probes(w), 6, shifts=range(-3, 4))
    assert [i.subject for i in report.items] == ["nakayama functoriality"]


def test_check_dualizing_lets_bugs_propagate(monkeypatch):
    # only package errors become failed-presentation items
    import threadquiver.reps as reps

    def broken_cover(M):
        raise AssertionError("cover not surjective")

    monkeypatch.setattr(reps, "projective_cover", broken_cover)
    with pytest.raises(AssertionError):
        check_dualizing(a2_window())
