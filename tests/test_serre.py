import random
import sys
from collections import Counter

import pytest
from conftest import (
    FIXTURES,
    FractionField,
    ainf_rad2_window,
    arrow_path,
    basis_route_ext_dim,
    basis_route_hom_data,
    check_complex,
    cohomology_dims,
    comm_grid_window,
    cover_kernel_cover_presentation,
    draw_relation,
    enumerate_paths,
    fixture_windows,
    hull_cokernel_hull_copresentation,
    nakayama_composes,
    non_free_pairs,
    non_hereditary_simples,
    per_call_hom_data,
    per_simple_has_ext_from_simples,
    per_pair_check_serre,
    per_probe_usable_probes,
    random_fp_rep,
    star_tail_window,
    support_sets,
    tq_comm_square,
    tq_fin1_thread,
    tq_mixed,
    tq_z_thread,
    total_hom_data,
    zero_sides,
    zigzag_window,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_windows import random_thread_quivers

import threadquiver.reps as reps
import threadquiver.serre as serre
from threadquiver.dsl import parse_tq
from threadquiver.errors import ExceedsBound, NotProjectiveCertified
from threadquiver.linalg import QQ
from threadquiver.quiver import Path, Quiver, Relation
from threadquiver.report import Report
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    Complex,
    Rep,
    ext_dim,
    hom_dim,
    one_term_complex,
    proj_dim,
    resolution,
    std_module,
    total_hom_dims,
    two_term_presentation,
)
from threadquiver.serre import (
    COKERNEL,
    KERNEL,
    VarietyMor,
    check_dualizing,
    check_serre,
    nakayama,
    pseudo,
    serre_image,
)
from threadquiver.windows import Window, expand


def a2_window():
    return Window(Quiver(["1", "2"], [("a", "1", "2")]))


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

    w = Window(q, [Relation(((1, arrow_path(q, ("a", "b"))),))])
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
    check_complex(ncx)
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
    check_complex(ncx)


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
            assert ext_dim(0, M, N, 6) == hom_dim(M, N)
            inj = resolution(N, INJECTIVE, 6).complex
            assert total_hom_dims(one_term_complex(M), inj).get(1, 0) == ext_dim(1, M, N, 6)
            assert ext_dim(1, M, N, 6) == basis_route_ext_dim(1, M, N, 6)


def test_derived_hom_a2_by_hand():
    w = a2_window()
    p1 = std_module(w, "1", PROJECTIVE)
    p2 = std_module(w, "2", PROJECTIVE)
    s2 = std_module(w, "2", SIMPLE)
    s1 = std_module(w, "1", SIMPLE)
    assert ext_dim(1, s2, s1, 8) == 1
    assert total_hom_dims(one_term_complex(p1), serre_image(p1, 4)).get(0, 0) == 1
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
        ("zigzag", zigzag_window()),
        ("fin1@1", expand(tq_fin1_thread(), 1)),
    ]
    for label, w in windows:
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
                assert ext_dim(i, M, N, 8) == via_inj.get(i, 0), (i, label)
                assert ext_dim(i, M, N, 8) == via_both.get(i, 0), (i, label)
                assert ext_dim(i, M, N, 8) == basis_route_ext_dim(i, M, N, 8), (i, label)


# -- check_serre -------------------------------------------------------------------


def test_check_serre_a2_passes():
    w = a2_window()
    report = check_serre(w, probes(w), 6)
    assert report.passed, report.items


def test_check_serre_zigzag_passes():
    w = zigzag_window()
    report = check_serre(w, probes(w), 6)
    assert report.passed, report.items[:4]


def test_check_serre_z_thread_depth2_skips_cut_probes():
    # interior probes whose resolutions lean on the cut are skipped, the
    # honest remainder passes
    w = expand(tq_z_thread(), 2)
    report = check_serre(w, probes(w), 6)
    assert report.passed, report.items[:3]
    assert report.skipped > 0
    assert report.checked > 0


def test_check_serre_detects_exceeds_bound():
    w = ainf_rad2_window(10)
    report = check_serre(w, probes(w), 6)
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
    w = expand(tq_z_thread(), 1)
    # a simple whose syzygy generator sits on a cut-adjacent vertex
    order = w.quiver.topological_order()
    flagged = set(w.boundary)
    victim = next(
        v for v in order
        if v not in flagged and any(a.src in flagged for a in w.quiver.in_arrows[v])
    )
    s = std_module(w, victim, SIMPLE)
    # the resolution is built in full; the check reads the cut off its terms
    assert serre._boundary_terms(resolution(s, PROJECTIVE, 6).complex)
    probe = [(f"S({victim})", s)]
    rejected = check_serre(w, probe, 6)
    assert (rejected.items, rejected.checked, rejected.skipped) == ([], 0, 1)
    kept = check_serre(w, probe, 6, forbid_boundary=False)
    assert kept.passed and kept.checked > 0 and kept.skipped == 0


def test_boundary_probe_past_the_bound_fails_and_is_not_skipped():
    # S(t:1) meets the cut in its projective cover and has pd 1 > 0: the
    # bound is exceeded, and that fails the probe whatever the boundary says,
    # on the projective side as on the injective one
    w = expand(tq_z_thread(), 1)
    report = check_serre(w, [("S(t:1)", std_module(w, "t:1", SIMPLE))], 0,
                         forbid_boundary=True)
    assert [(i.subject, i.actual) for i in report.items] == [
        ("pd/id(S(t:1))", "ExceedsBound")]
    assert report.skipped == 0


def test_a_probe_past_the_bound_names_the_dimensions_that_exceed_it():
    # every P and S probe of the radical-square-zero line at max_len 2: 3
    # exceed in pd only, 4 in id only and 4 in both, and the per-probe
    # oracle, which resolves each side on its own, names them alike
    w = ainf_rad2_window()
    test_set = probes(w, interior_only=False)
    report = check_serre(w, test_set, 2, forbid_boundary=False)
    exceeded = [(i.subject, i.expected, i.actual) for i in report.items
                if i.actual == "ExceedsBound"]
    assert Counter(subject.split("(")[0] for subject, _, _ in exceeded) == {
        "pd": 3, "id": 4, "pd/id": 4}
    assert {expected for _, expected, _ in exceeded} == {"<= 2"}
    oracle = Report("serre-check")
    per_probe_usable_probes(w, test_set, 2, False, oracle)
    assert [(i.subject, i.expected, i.actual) for i in oracle.items] == exceeded


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
    assert all(got.get(i, 0) == basis_route_ext_dim(i, X, Y, 8) for i in range(3))


@pytest.mark.parametrize("name, depth, seed", [
    ("mixed", 1, 0), ("mixed", 1, 1), ("zigzag", 1, 2), ("comm_square", 1, 3)])
def test_injective_target_route_compiles_one_plan(monkeypatch, name, depth, seed):
    # the dual of an injective coresolution is kept on it, so two hom
    # complexes into it read one plan; the dims match the basis oracle
    w = _fixture_window(name, depth)
    rng = random.Random(seed)
    X = random_fp_rep(w, rng)
    while X.cert is not None:  # a projective X would take the other route
        X = random_fp_rep(w, rng)
    CY = resolution(random_fp_rep(w, rng), INJECTIVE, 8).complex
    want = cohomology_dims(*basis_route_hom_data(one_term_complex(X), CY))
    compiled = []
    real_init = reps.YonedaPlan.__init__

    def counting_init(plan, cx):
        compiled.append(cx)
        real_init(plan, cx)

    monkeypatch.setattr(reps.YonedaPlan, "__init__", counting_init)
    for _ in range(2):
        assert total_hom_dims(one_term_complex(X), CY) == want
    assert len(compiled) == 1 and compiled[0] is CY.dual


def test_total_hom_needs_a_certified_side():
    w = a2_window()
    s = one_term_complex(std_module(w, "2", SIMPLE))
    with pytest.raises(NotProjectiveCertified):
        total_hom_dims(s, s)


def test_check_serre_fails_without_the_nakayama_transport(monkeypatch):
    # the right-hand side must read the realized transport: with every
    # transported differential zeroed the dimensions disagree
    from threadquiver.reps import RepMap

    def zero_transport(I, J, entries):
        return RepMap(I, J, {})

    monkeypatch.setattr(serre, "realize_inj_coords", zero_transport)
    w = zigzag_window()
    report = check_serre(w, probes(w), 6)
    assert not report.passed
    assert any(i.subject.startswith("RHom") for i in report.items)


def test_nakayama_functoriality_checks_every_pair(monkeypatch):
    # A4 has the composable pairs (a, b) and (b, c); corrupting the transport
    # of the second composite only is still caught
    q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    w = Window(q)
    real = serre.realize_inj_coords

    def corrupt(I, J, entries):
        g = real(I, J, entries)
        if (I.cert[1], J.cert[1]) == (("2",), ("4",)):
            return g.scale(2)
        return g

    assert nakayama_composes(w)
    monkeypatch.setattr(serre, "realize_inj_coords", corrupt)
    assert not nakayama_composes(w)


# -- the Nakayama realization composes, on every window -----------------------------

# every fixture at depths 0-3, the commutative grids and the hand-built
# zig-zag and radical-square-zero windows
SWEEP = [
    pytest.param(label, w, id=label)
    for label, w in fixture_windows((0, 1, 2, 3))
    + [(f"grid{n}", comm_grid_window(n)) for n in (2, 3, 4)]
    + [("zigzag_window", zigzag_window()), ("ainf_rad2_window", ainf_rad2_window())]
]


@pytest.mark.parametrize("label, w", SWEEP)
def test_nakayama_realization_composes(label, w):
    assert nakayama_composes(w)


@given(random_thread_quivers(), st.data())
@settings(max_examples=30, deadline=None)
def test_nakayama_realization_composes_random_relation(tq, data):
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    assert nakayama_composes(Window(q, [draw_relation(data, q)]))


@pytest.mark.parametrize("name", ["mixed", "z_thread"])
def test_a_scaled_nakayama_transport_breaks_composition_not_check_serre(name, monkeypatch):
    # every transported map doubled keeps every shape and every cohomology
    # dimension: the composition law catches it, and check_serre, which
    # compares dimensions only, passes
    real = serre.realize_inj_coords
    monkeypatch.setattr(serre, "realize_inj_coords",
                        lambda I, J, entries: real(I, J, entries).scale(2))
    w = expand(parse_tq((FIXTURES / f"{name}.tq").read_text()), 2)
    assert not nakayama_composes(w)
    assert check_serre(w, probes(w), 6).passed


# -- heredity and freeness on the Gabriel quiver ------------------------------------

# pairs (x, y) where dim hom(x, y) is not the number of Gabriel paths; every
# other window of the sweep is free and hereditary
NOT_FREE = {"comm_square": 1, "zigzag": 8, "zigzag_window": 8, "ainf_rad2": 36,
            "ainf_rad2_window": 36, "grid2": 9, "grid3": 36, "grid4": 100}


@pytest.mark.parametrize("label, w", SWEEP)
def test_heredity_matches_freeness(label, w):
    name = label.split("@")[0]
    assert len(non_free_pairs(w)) == NOT_FREE.get(name, 0)
    assert bool(non_hereditary_simples(w)) == (name in NOT_FREE)


def _triangle():
    q = Quiver(["p", "q", "r"], [("a", "p", "q"), ("b", "q", "r"), ("c", "p", "r")])
    return Window(q, [Relation(((1, arrow_path(q, ("c",))), (-1, arrow_path(q, ("a", "b")))))])


def _kronecker_tail():
    return Window(Quiver(["1", "2", "3"],
                         [("a", "1", "2"), ("b", "1", "2"), ("c", "2", "3")]))


@pytest.mark.parametrize("w, x, y, dim", [
    # c = b.a is not admissible: the Gabriel quiver is p -> q -> r
    pytest.param(_triangle(), "p", "r", 1, id="triangle"),
    # two Gabriel arrows 1 -> 2, so two Gabriel paths 1 -> 3
    pytest.param(_kronecker_tail(), "1", "3", 2, id="kronecker-tail"),
])
def test_hereditary_and_free_beyond_the_fixtures(w, x, y, dim):
    assert w.hom_dim(x, y) == dim
    assert non_free_pairs(w) == [] and non_hereditary_simples(w) == []


@given(random_thread_quivers(), st.data())
@settings(max_examples=30, deadline=None)
def test_heredity_matches_freeness_random_relation(tq, data):
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    w = Window(q, [draw_relation(data, q)])
    assert bool(non_hereditary_simples(w)) == bool(non_free_pairs(w))


def test_check_dualizing_lets_bugs_propagate(monkeypatch):
    # only package errors become failed-presentation items
    import threadquiver.reps as reps

    def broken_cover(M):
        raise AssertionError("cover not surjective")

    monkeypatch.setattr(reps, "projective_cover", broken_cover)
    with pytest.raises(AssertionError):
        check_dualizing(a2_window())


# -- presentations: the second term is the top of the cover's kernel ---------------


def two_in_arrows_window():
    # the kernel of P(v) -> S(v) on a -f-> v <-g- b is P(a) + P(b): its
    # support {a, b} has no arrow inside, and each vertex carries one generator
    return Window(Quiver(["a", "b", "v"], [("f", "a", "v"), ("g", "b", "v")]))


def drop_last_generator(K, gens):
    return gens[:-1]


def drop_every_generator(K, gens):
    return []


def drop_generators_at_a_sink(K, gens):
    # every generator at the first vertex of K's support with no arrow out
    # inside it; the generators elsewhere stay
    sources = {a.src for a in K.support_arrows}
    sink = next(v for v, _ in gens if v not in sources)
    return [(v, vec) for v, vec in gens if v != sink]


def mutate_kernel_top(monkeypatch, mutate, in_cover=False):
    """`top_generators` answers wrongly on every call made outside
    `projective_cover`, which keeps its exact top and its own rank
    assertion: the only such call reads the kernel's top in
    `two_term_presentation`.  With in_cover, it answers wrongly on the calls
    made inside `projective_cover` instead.  Returns the wrong answers given."""
    import threadquiver.reps as reps

    top_generators = reps.top_generators
    projective_cover = reps.projective_cover
    covers_open = []
    given = []

    def cover(M):
        covers_open.append(M)
        try:
            return projective_cover(M)
        finally:
            covers_open.pop()

    def mutant(M, *at):
        gens = top_generators(M, *at)
        if gens and bool(covers_open) == in_cover:
            given.append(mutate(M, gens))
            return given[-1]
        return gens

    monkeypatch.setattr(reps, "projective_cover", cover)
    monkeypatch.setattr(reps, "top_generators", mutant)
    return given


def raised_assertion(call):
    try:
        call()
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("mutate", [
    drop_last_generator, drop_every_generator, drop_generators_at_a_sink])
def test_a_wrong_kernel_top_fails_only_the_simple_items(monkeypatch, mutate):
    # a kernel top that misses generators changes presentations on both
    # sides, which the oracles (a second cover or hull, under the cover's
    # own certificate) catch; check_dualizing compares only the S(v) terms
    # with the Gabriel quiver, so its I(v) and P(v) items still pass
    w = two_in_arrows_window()
    modules = {f"{tag}({v})": std_module(w, v, kind) for v in w.quiver.vertices
               for tag, kind in (("I", INJECTIVE), ("P", PROJECTIVE), ("S", SIMPLE))}
    oracles = {(label, side): oracle(M) for label, M in modules.items() for side, oracle in (
        (PROJECTIVE, cover_kernel_cover_presentation),
        (INJECTIVE, hull_cokernel_hull_copresentation))}
    honest = check_dualizing(w)
    assert honest.passed
    given = mutate_kernel_top(monkeypatch, mutate)
    got = two_term_presentation(modules["S(v)"], PROJECTIVE)
    assert len(given) == 1, "the mutant did not answer for the kernel's top"
    assert got != oracles["S(v)", PROJECTIVE]
    if mutate is drop_generators_at_a_sink:  # a generator is left, at b
        assert [v for v, _ in given[0]] == ["b"]
    wrong = {key for key, want in oracles.items()
             if two_term_presentation(modules[key[0]], key[1]) != want}
    # every I(v) presentation and P(v) copresentation check_dualizing asks
    # for is wrong too, yet only the wrong S(v) items fail
    assert {(f"{tag}({v})", side) for v in w.quiver.vertices
            for tag, side in (("I", PROJECTIVE), ("P", INJECTIVE))} <= wrong
    report = check_dualizing(w)
    assert report.checked == honest.checked
    kind = {PROJECTIVE: "finitely", INJECTIVE: "cofinitely"}
    assert {i.subject for i in report.items} == {
        f"{label} {kind[side]} presented" for label, side in wrong if label.startswith("S")}


@pytest.mark.parametrize("dims", [{"a": 1, "b": 1}, {"v": 2}], ids=["dim1", "dim2"])
@pytest.mark.parametrize("route", ["resolution", "presentation"])
def test_cover_rejects_a_dropped_generator(monkeypatch, dims, route):
    # inside projective_cover the top loses its last generator: for
    # S(a) + S(b) the one at the one-dimensional M(b), for S(v)^2 one of
    # the two at M(v); the cover's own rank-nullity assertion fires
    w = two_in_arrows_window()
    M = Rep(w, dims, {})
    build = {"resolution": lambda: resolution(M, PROJECTIVE, 4),
             "presentation": lambda: two_term_presentation(M, PROJECTIVE)}[route]
    build()
    given = mutate_kernel_top(monkeypatch, drop_last_generator, in_cover=True)
    assert raised_assertion(build) == "cover not surjective"
    assert len(given) == 1, "the mutant did not answer for the cover's top"


def test_simple_presentation_items_compare_with_the_gabriel_quiver(monkeypatch):
    # a presentation answering with the other side's second term fails every
    # S(v) item, showing both tuples; the I(v) and P(v) items, which are not
    # compared, and the checked count do not move
    w = Window(Quiver(["s", "a", "b"], [("f", "s", "a"), ("g", "s", "b")]))
    honest = check_dualizing(w)
    assert honest.passed
    presentation = serre.two_term_presentation

    def other_side(M, side):
        other = INJECTIVE if side == PROJECTIVE else PROJECTIVE
        return presentation(M, side)[0], presentation(M, other)[1]

    monkeypatch.setattr(serre, "two_term_presentation", other_side)
    report = check_dualizing(w)
    assert report.checked == honest.checked
    items = {i.subject: (i.expected, i.actual) for i in report.items}
    assert set(items) == {f"S({v}) {k}presented" for v in "sab" for k in ("finitely ", "cofinitely ")}
    assert items["S(s) cofinitely presented"] == (
        "Gabriel quiver terms (('s',), ('a', 'b'))", "(('s',), ())")
    assert items["S(a) finitely presented"] == (
        "Gabriel quiver terms (('a',), ('s',))", "(('a',), ())")


# -- the injective side read off the simples' resolutions ------------------------------


def _injective_multiplicities(X, simples):
    """{i: multiset of u with multiplicity dim Ext^i(S(u), X)}, each Ext read
    from the shared resolution of S(u)."""
    out = {}
    for u, res in simples.items():
        for i, d in total_hom_dims(res, one_term_complex(X)).items():
            if d:
                out.setdefault(i, Counter())[u] += d
    return out


def _assert_injective_terms_are_ext_from_simples(w, modules=()):
    # a finite acyclic window has global dimension below its vertex count
    max_len = len(w.quiver.vertices)
    simples = serre._simple_resolutions(w, max_len)
    # every simple's resolution ended within max_len, so no cut term is read
    assert all(len(res.terms) <= max_len + 1 for res in simples.values())
    std = [(f"{k}({v})", std_module(w, v, k))
           for v in w.quiver.vertices for k in (PROJECTIVE, INJECTIVE, SIMPLE)]
    for label, X in std + list(modules):
        cx = resolution(X, INJECTIVE, max_len).complex
        terms = {i: Counter(cx.term(i).cert[1]) for i in cx.degrees() if cx.term(i).cert[1]}
        assert terms == _injective_multiplicities(X, simples), label


FIXTURE_WINDOWS = [pytest.param(w, id=label) for label, w in fixture_windows([0, 1, 2])]


@pytest.mark.parametrize(
    "w",
    FIXTURE_WINDOWS + [pytest.param(comm_grid_window(n), id=f"grid{n}") for n in (2, 3)],
)
def test_injective_resolution_terms_are_ext_from_simples(w):
    _assert_injective_terms_are_ext_from_simples(w)


@given(random_thread_quivers(), st.data())
@settings(max_examples=30, deadline=None)
def test_injective_resolution_terms_are_ext_from_simples_random(tq, data):
    # one random commutativity relation between two parallel paths
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    max_len = len(q.vertices) - 1
    parallel = [
        ps for x in q.vertices for y in q.vertices if x != y
        for ps in [enumerate_paths(q, x, y, max_len)] if len(ps) >= 2
    ]
    assume(parallel)
    p1, p2 = data.draw(st.permutations(data.draw(st.sampled_from(parallel))))[:2]
    w = Window(q, [Relation(((1, p1), (-1, p2)))])
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    _assert_injective_terms_are_ext_from_simples(w, [("random", random_fp_rep(w, rng))])


def _presentation_multiplicities(M, simples):
    """{i: multiset of u with multiplicity dim Ext^i(M, S(u))} for i = 0, 1,
    each read as H^i of Hom(res S(u), D M) over the opposite window, with
    simples the resolutions of its simples to three terms; these count
    P(u) in P0 and in P1 of M's minimal presentation."""
    DM = one_term_complex(reps.dualize(M))
    out = {0: Counter(), 1: Counter()}
    for u, res in simples.items():
        dims = total_hom_dims(res, DM)
        for i in (0, 1):
            if dims.get(i):
                out[i][u] += dims[i]
    return out


@pytest.mark.parametrize(
    "w", FIXTURE_WINDOWS + [pytest.param(comm_grid_window(2), id="grid2")])
def test_presentation_terms_are_hom_and_ext_into_simples(w):
    # an independent route: P(u) occurs dim Hom(M, S(u)) times in P0 and
    # dim Ext^1(M, S(u)) times in P1; a copresentation of M is the
    # presentation of D M over the opposite window, read the same way
    simples = {
        x: {u: reps._resolve(std_module(x.opposite(), u, SIMPLE), 2)[0]
            for u in x.quiver.vertices}
        for x in (w, w.opposite())}
    for v in w.quiver.vertices:
        for kind in (PROJECTIVE, INJECTIVE, SIMPLE):
            M = std_module(w, v, kind)
            for side, X in ((PROJECTIVE, M), (INJECTIVE, reps.dualize(M))):
                terms = two_term_presentation(M, side)
                want = _presentation_multiplicities(X, simples[X.window])
                assert {i: Counter(t) for i, t in enumerate(terms)} == want, (v, kind, side)


def _serre_answer(report):
    return report.to_json_dict(), report.checked, report.skipped


def _assert_check_serre_matches_oracles(w, max_len, forbid_boundary, monkeypatch):
    # the CLI's probe set; one oracle resolves every probe both ways, the
    # other evaluates every pair with no test by support: the same items and
    # the same checked and skipped counts
    test_set = probes(w, interior_only=forbid_boundary)
    got = _serre_answer(check_serre(w, test_set, max_len, forbid_boundary=forbid_boundary))
    assert got == _serre_answer(
        per_pair_check_serre(w, test_set, max_len, forbid_boundary=forbid_boundary))
    monkeypatch.setattr(serre, "_usable_probes", per_probe_usable_probes)
    assert got == _serre_answer(
        check_serre(w, test_set, max_len, forbid_boundary=forbid_boundary))


@pytest.mark.parametrize("forbid_boundary", [True, False], ids=["skip", "no-skip"])
@pytest.mark.parametrize("w", FIXTURE_WINDOWS)
def test_check_serre_matches_per_probe_oracle(w, forbid_boundary, monkeypatch):
    _assert_check_serre_matches_oracles(w, 6, forbid_boundary, monkeypatch)


def _fixture_window(name, depth):
    return expand(parse_tq((FIXTURES / f"{name}.tq").read_text()), depth)


@pytest.mark.parametrize("make, max_len, forbid_boundary", [
    # I(b) of the cut in degree max_len of an injective resolution
    *[pytest.param(lambda d=d: _fixture_window("z_thread", d), 1, True,
                   id=f"z_thread@{d}-len1-skip") for d in (1, 2)],
    pytest.param(lambda: _fixture_window("mixed", 2), 1, True, id="mixed@2-len1-skip"),
    pytest.param(lambda: _fixture_window("comm_square", 1), 0, False,
                 id="comm_square@1-len0-no-skip"),
    pytest.param(zigzag_window, 2, True, id="zigzag-len2-skip"),
    # pd and id 9 on the radical-square-zero line: the bound cuts every
    # long resolution, the simples' included
    *[pytest.param(ainf_rad2_window, n, False, id=f"ainf_rad2-len{n}-no-skip")
      for n in (2, 3, 6)],
])
def test_check_serre_matches_per_probe_oracle_at_short_bounds(
        make, max_len, forbid_boundary, monkeypatch):
    _assert_check_serre_matches_oracles(make(), max_len, forbid_boundary, monkeypatch)


@pytest.mark.parametrize("name, depth, max_len", [
    pytest.param(name, depth, max_len, id=f"{name}@{depth}-len{max_len}")
    for name, depth, max_len in [("mixed", 2, 6), ("ainf_rad2", 2, 6), ("zigzag", 2, 2)]])
def test_check_serre_builds_no_injective_resolution(name, depth, max_len, monkeypatch):
    # every injective resolution or hull is a projective cover over the
    # opposite window; the check takes covers over the window only, at
    # global dimension 1 (mixed), 9 (ainf_rad2) and 3 (zigzag) alike
    w = _fixture_window(name, depth)
    real = reps.projective_cover
    windows = []

    def recording(M):
        windows.append(M.window)
        return real(M)

    monkeypatch.setattr(reps, "projective_cover", recording)
    check_serre(w, probes(w), max_len)
    assert windows and all(x is w for x in windows)
    # the detector sees the per-probe oracle's injective resolutions
    windows.clear()
    monkeypatch.setattr(serre, "_usable_probes", per_probe_usable_probes)
    check_serre(w, probes(w), max_len)
    assert any(x is w.opposite() for x in windows)


def _probe_sides(w, forbid_boundary):
    """Every ordered probe pair of the CLI's probe set, with both hom
    complexes `check_serre` compares and the sides the pairwise rule flags
    as zero by support (`conftest.zero_sides`)."""
    report = Report("serre-check")
    usable = serre._usable_probes(
        w, probes(w, interior_only=forbid_boundary), 6, forbid_boundary, report)
    images = {label: nakayama(res) for label, _, res, _ in usable}
    sets = support_sets(usable, images)
    for xl, _, res_x, _ in usable:
        for yl, Y, res_y, _ in usable:
            sides = ((res_x, one_term_complex(Y)), (res_y, images[xl]))
            yield xl, yl, zip(zero_sides(sets, xl, yl), sides)


@pytest.mark.parametrize("forbid_boundary", [True, False], ids=["skip", "no-skip"])
@pytest.mark.parametrize(
    "w", [pytest.param(w, id=label) for label, w in fixture_windows([0, 1, 2, 3])])
def test_serre_sides_zero_by_support_are_exactly_the_zero_complexes(w, forbid_boundary):
    # a flagged side has every component zero, so its cohomology is zero;
    # and every side with all components zero is flagged
    for xl, yl, sides in _probe_sides(w, forbid_boundary):
        for zero, (CX, CY) in sides:
            dims = reps._hom_layout(CX, CY)[2]
            assert zero == (not any(dims.values())), (xl, yl)
            if zero:
                assert not any(total_hom_dims(CX, CY).values()), (xl, yl)


def test_check_serre_skips_by_support_without_presuming_duality(monkeypatch):
    # with the Nakayama transport replaced by the identity, duality fails;
    # the pairs zero on one side only must still be evaluated on the other
    monkeypatch.setattr(serre, "nakayama", lambda cx: cx)
    w = expand(tq_mixed(), 1)
    test_set = probes(w, interior_only=False)
    got = check_serre(w, test_set, 6, forbid_boundary=False)
    assert not got.passed
    assert _serre_answer(got) == _serre_answer(
        per_pair_check_serre(w, test_set, 6, forbid_boundary=False))


@pytest.mark.parametrize("forbid_boundary", [True, False], ids=["skip", "no-skip"])
def test_check_serre_calls_total_hom_dims_once_per_side_not_zero_by_support(
        monkeypatch, forbid_boundary):
    # perfbench's serre.total_hom_dims.calls counts exactly the sides not
    # zero by support plus the boundary pre-test's Ext reads
    w = expand(tq_mixed(), 2)
    test_set = probes(w, interior_only=forbid_boundary)
    nonzero = sum(not zero for _, _, sides in _probe_sides(w, forbid_boundary)
                  for zero, _ in sides)
    callers = Counter()
    inner = serre.total_hom_dims

    def counting(CX, CY):
        callers[sys._getframe(1).f_code.co_name] += 1
        return inner(CX, CY)

    monkeypatch.setattr(serre, "total_hom_dims", counting)
    serre._usable_probes(w, test_set, 6, forbid_boundary, Report("serre-check"))
    pretest = callers["_has_ext_from_simples"]
    assert set(callers) <= {"_has_ext_from_simples"}
    # no simple's resolution runs past max_len here, so only the boundary
    # rule reads Ext from the simples
    assert pretest > 0 if forbid_boundary else pretest == 0
    callers.clear()
    check_serre(w, test_set, 6, forbid_boundary)
    assert nonzero > 0
    assert callers == Counter(check_serre=nonzero, _has_ext_from_simples=pretest)


TARGET_WINDOWS = [pytest.param(w, id=label) for label, w in fixture_windows([0, 1, 2, 3])] + [
    pytest.param(comm_grid_window(2), id="grid2")]


@pytest.mark.parametrize("forbid_boundary", [True, False], ids=["skip", "no-skip"])
@pytest.mark.parametrize("w", TARGET_WINDOWS)
def test_serre_targets_by_vertex_index_are_the_pairwise_nonzero_sides(
        w, forbid_boundary, monkeypatch):
    # check_serre reads exactly the sides the pairwise rule flags nonzero by
    # support, pair after pair in probe order and the left side first: the
    # same hom complexes, the same objects, in the same order
    test_set = probes(w, interior_only=forbid_boundary)
    usable = serre._usable_probes(w, test_set, 6, forbid_boundary, Report("serre-check"))
    images = [nakayama(res) for _, _, res, _ in usable]
    sets = support_sets(usable, {label: im for (label, *_), im in zip(usable, images)})
    expected = []
    for (xl, _, res_x, _), image in zip(usable, images):
        for yl, _, res_y, one_y in usable:
            left_zero, right_zero = zero_sides(sets, xl, yl)
            expected += [(res_x, one_y)] * (not left_zero) + [(res_y, image)] * (not right_zero)
    calls = []
    fed = iter(images)
    monkeypatch.setattr(serre, "_usable_probes", lambda *args: usable)
    monkeypatch.setattr(serre, "nakayama", lambda cx: next(fed))
    monkeypatch.setattr(serre, "total_hom_dims", lambda CX, CY: calls.append((CX, CY)) or {})
    check_serre(w, test_set, 6, forbid_boundary)
    assert [(id(CX), id(CY)) for CX, CY in calls] == [(id(CX), id(CY)) for CX, CY in expected]


@pytest.mark.parametrize("w, max_len", [
    *[pytest.param(w, 2, id=label) for label, w in fixture_windows([0, 1, 2])],
    pytest.param(comm_grid_window(2), 2, id="grid2"),
    pytest.param(ainf_rad2_window(), 2, id="ainf_rad2")])
def test_ext_index_reads_the_simples_of_the_per_simple_scan(w, max_len, monkeypatch):
    # the boundary pre-test reads the same simples' Ext, in the same order,
    # and gives the same answer as a scan of every simple's plan; over all
    # simples and the boundary ones, the two degree sets check_serre asks
    # about and every single degree of the cut resolutions
    simples = serre._simple_resolutions(w, max_len)
    index = serre._ext_index(simples)
    of = {id(res): u for u, res in simples.items()}
    read = []
    inner = serre.total_hom_dims

    def recording(CX, CY):
        read.append(of[id(CX)])
        return inner(CX, CY)

    monkeypatch.setattr(serre, "total_hom_dims", recording)
    degree_sets = [range(max_len + 1), range(max_len + 1, max_len + 2)] + [
        range(i, i + 1) for i in range(max_len + 3)]
    answers = Counter()
    for vertices in (list(simples), sorted(w.boundary)):
        for degrees in degree_sets:
            for label, X in probes(w, interior_only=False):
                one = one_term_complex(X)
                got = serre._has_ext_from_simples(X, one, simples, index, vertices, degrees)
                got_read = read[:]
                read.clear()
                want = per_simple_has_ext_from_simples(X, one, simples, vertices, degrees)
                assert (got, got_read) == (want, read), (label, degrees)
                read.clear()
                answers[got] += 1
    assert answers[True] and answers[False]


PER_CALL_WINDOWS = FIXTURE_WINDOWS + [
    pytest.param(comm_grid_window(2), id="grid2"),
    pytest.param(comm_grid_window(3), id="grid3"),
    pytest.param(zigzag_window(), id="zigzag"),
    pytest.param(ainf_rad2_window(), id="ainf_rad2"),
]


@pytest.mark.parametrize("forbid_boundary", [True, False], ids=["skip", "no-skip"])
@pytest.mark.parametrize("w", PER_CALL_WINDOWS)
def test_yoneda_plan_matches_per_call_assembly(w, forbid_boundary):
    # every hom complex check_serre can build, from each complex's compiled
    # plan, equals the one assembled from scratch on each call: both sides of
    # every ordered probe pair, and the boundary pre-test's Ext complexes
    for xl, yl, sides in _probe_sides(w, forbid_boundary):
        for _, (CX, CY) in sides:
            assert total_hom_data(CX, CY) == per_call_hom_data(CX, CY), (xl, yl)
    simples = serre._simple_resolutions(w, 6)
    for b in sorted(w.boundary):
        for label, X in probes(w, interior_only=forbid_boundary):
            CY = one_term_complex(X)
            assert total_hom_data(simples[b], CY) == per_call_hom_data(simples[b], CY), (b, label)


def test_yoneda_plan_reads_the_complexs_own_differentials():
    # two complexes with the same terms and different differentials get
    # different plans: the twin's dX blocks are twice the resolution's
    w = zigzag_window()
    res = resolution(std_module(w, "a22", SIMPLE), PROJECTIVE, 6).complex
    twin = Complex(w, res.min_degree, res.terms, [d.scale(QQ(2)) for d in res.diffs])
    assert len(res.terms) >= 3
    differ = 0
    for label, Y in probes(w, interior_only=False):
        CY = one_term_complex(Y)
        got = [total_hom_data(cx, CY) for cx in (res, twin)]
        assert got == [per_call_hom_data(cx, CY) for cx in (res, twin)], label
        differ += got[0] != got[1]
    assert differ


@st.composite
def parallel_arrow_windows(draw):
    """Relation-free windows on 2-4 vertices with up to three parallel
    arrows per drawn pair, so hom spaces of dimension 2 or more are common."""
    n = draw(st.integers(2, 4))
    verts = [f"v{i}" for i in range(n)]
    ends = []
    for i, k in draw(st.lists(st.tuples(st.integers(0, n - 2), st.integers(1, 3)),
                              min_size=1, max_size=4)):
        ends += [(verts[i], verts[draw(st.integers(i + 1, n - 1))])] * k
    return Window(Quiver(verts, [(f"a{m}", x, y) for m, (x, y) in enumerate(ends)]))


KRONECKER = Window(Quiver(["x", "y"], [("a", "x", "y"), ("b", "x", "y")]))


@given(parallel_arrow_windows(), st.integers(0, 2**16))
@example(KRONECKER, 11)
@settings(max_examples=40, deadline=None)
def test_yoneda_plan_matches_per_call_assembly_on_random_resolutions(w, seed):
    # resolutions of random finitely presented modules, whose differentials'
    # hom coordinates often have several terms, into a random module and into
    # the Nakayama image of its resolution
    rng = random.Random(seed)
    M, N = random_fp_rep(w, rng), random_fp_rep(w, rng)
    CX = resolution(M, PROJECTIVE, 8).complex
    for CY in (one_term_complex(N), nakayama(resolution(N, PROJECTIVE, 8).complex)):
        assert total_hom_data(CX, CY) == per_call_hom_data(CX, CY)


def test_the_kronecker_example_has_a_coordinate_of_several_terms():
    # the explicit example above exercises a block summed over several paths
    M = random_fp_rep(KRONECKER, random.Random(11))
    plan = resolution(M, PROJECTIVE, 8).complex.yoneda_plan
    assert any(len(terms) > 1 for p in list(plan.verts)[1:] for _, _, terms in plan.entries(p))


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.tq")))
def test_reports_over_the_fraction_field_equal_those_over_qq(name):
    # the same windows with every rational a Fraction: the reports of both
    # checks are equal at depths 0-2
    tq = parse_tq((FIXTURES / f"{name}.tq").read_text())
    for depth in (0, 1, 2):
        answers = []
        for field in (QQ, FractionField()):
            w = expand(tq, depth, field=field)
            answers.append((
                _serre_answer(check_serre(w, probes(w), 6)),
                _serre_answer(check_dualizing(w)),
                _serre_answer(check_dualizing(w, strict_boundary=True)),
            ))
        assert answers[0] == answers[1], (name, depth)


# -- invariances: relabelling and duality ----------------------------------------


def _reverse_sorted_relabelling(w):
    """The same window with every vertex renamed so that the sort order of
    the names reverses; arrows, relations and the boundary follow."""
    names = sorted(w.quiver.vertices)
    new = {v: f"v{len(names) - 1 - i:04d}" for i, v in enumerate(names)}

    def path(p):
        return Path(new[p.src], new[p.tgt], p.arrows)

    q = Quiver([new[v] for v in w.quiver.vertices],
               [(a.name, new[a.src], new[a.tgt]) for a in w.quiver.arrows])
    rels = [Relation(tuple((c, path(p)) for c, p in r.terms)) for r in w.relations]
    return Window(q, rels, boundary={new[v] for v in w.boundary})


def _counts(report):
    return report.status, report.checked, report.skipped, len(report.items)


def _serre_and_dualizing_counts(w):
    return (
        _counts(check_serre(w, probes(w), 6)),
        _counts(check_serre(w, probes(w, interior_only=False), 6, forbid_boundary=False)),
        _counts(check_dualizing(w)),
        _counts(check_dualizing(w, strict_boundary=True)),
    )


DEPTH1_WINDOWS = [pytest.param(w, id=label) for label, w in fixture_windows([1])]


@pytest.mark.parametrize("w", DEPTH1_WINDOWS)
def test_reports_do_not_depend_on_the_vertex_names(w):
    renamed = _reverse_sorted_relabelling(w)
    assert sorted(renamed.quiver.vertices, reverse=True) == [
        renamed.quiver.vertices[w.quiver.vertices.index(v)] for v in sorted(w.quiver.vertices)]
    assert _serre_and_dualizing_counts(renamed) == _serre_and_dualizing_counts(w)


@pytest.mark.parametrize("w", DEPTH1_WINDOWS)
def test_dualizing_check_of_the_opposite_window_counts_the_same(w):
    for strict in (False, True):
        assert _counts(check_dualizing(w.opposite(), strict_boundary=strict)) == _counts(
            check_dualizing(w, strict_boundary=strict)), strict
