import pytest
from conftest import (
    FIXTURES,
    ainf_rad2_window,
    all_intermediate_rad_irr_dims,
    arrow_path,
    comm_grid_window,
    draw_relation,
    fixture_windows,
    identity_path,
    random_thread_quivers,
    tq_empty_thread,
    tq_fin1_thread,
    tq_fin3_thread,
    tq_mixed,
    tq_two_empty_threads,
    tq_z_thread,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver import cli, reps, threads, windows
from threadquiver.dsl import parse_tq
from threadquiver.errors import (
    ExceedsBound,
    NotRepresentable,
    ZNotExtOrthogonal,
)
from threadquiver.orders import Fin
from threadquiver.quiver import Quiver, Relation
from threadquiver.reps import (
    INJECTIVE,
    PROJECTIVE,
    SIMPLE,
    VarietyMor,
    ext_dim,
    kernel_as_projectives,
    one_term_complex,
    realize_proj,
    resolution,
    std_module,
    total_hom_dims,
    transport_to_opposite,
    two_term_presentation,
)
from threadquiver.threads import (
    LEFT,
    RIGHT,
    adjunction_check,
    extract_threadquiver,
    gabriel_quiver,
    interval_adjoint,
    perp_adjoint,
    rad_irr_dims,
    supp_adjoint,
    thread_hom_check,
    thread_runs,
    thread_summary,
)
from threadquiver.windows import Window, expand, normalize, window_iso


def a2_window():
    return Window(Quiver(["1", "2"], [("a", "1", "2")]))


def a3_window(zero_rel=False):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rels = [Relation(((1, arrow_path(q, ("a", "b"))),))] if zero_rel else []
    return Window(q, rels)


def an_window(n):
    q = Quiver(
        [str(i) for i in range(1, n + 1)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)],
    )
    return Window(q)


# -- radical and irreducible dimensions ------------------------------------------


def test_rad_irr_a2():
    w = a2_window()
    assert rad_irr_dims(w, "1", "2") == (1, 0, 1)


def test_rad_irr_a3_composite():
    w = a3_window()
    assert rad_irr_dims(w, "1", "3") == (1, 1, 0)


def test_rad_irr_diagonal():
    w = a3_window()
    for v in w.quiver.vertices:
        assert rad_irr_dims(w, v, v) == (0, 0, 0)


def test_gabriel_quiver_matches_expansion():
    tq = tq_fin1_thread()
    w = expand(tq, 1)
    g = gabriel_quiver(w)
    orig = {(a.src, a.tgt) for a in w.quiver.arrows}
    got = {(a.src, a.tgt) for a in g.arrows}
    assert orig == got
    assert len(g.arrows) == len(w.quiver.arrows)


def test_gabriel_quiver_with_zero_relation():
    w = a3_window(zero_rel=True)
    g = gabriel_quiver(w)
    assert len(g.arrows) == 2


def test_gabriel_single_vertex():
    w = Window(Quiver(["v"], []))
    assert gabriel_quiver(w).arrows == []


def non_admissible_triangle():
    # c equals the composite b . a, so the arrow c is not irreducible
    tq = parse_tq(
        "vertex p q r\narrow a: p -> q\narrow b: q -> r\narrow c: p -> r\n"
        "relation c - b*a = 0\n"
    )
    return expand(tq, 0)


def assert_rad_irr_matches_oracle(w):
    arrow_pairs = {(a.src, a.tgt) for a in w.quiver.arrows}
    for x in w.quiver.vertices:
        for y in w.quiver.vertices:
            expected = all_intermediate_rad_irr_dims(w, x, y)
            assert rad_irr_dims(w, x, y) == expected, (w, x, y)
            if (x, y) not in arrow_pairs:
                assert expected[2] == 0, (w, x, y)


@pytest.mark.parametrize(
    "w",
    [
        pytest.param(w, id=label)
        for label, w in fixture_windows((0, 1, 2))
        + [(f"grid{n}", comm_grid_window(n)) for n in (2, 3)]
        + [("non-admissible-triangle", non_admissible_triangle())]
    ],
)
def test_rad_irr_dims_matches_all_intermediate_oracle(w):
    assert_rad_irr_matches_oracle(w)


def test_rad_irr_non_admissible_relation():
    w = non_admissible_triangle()
    assert rad_irr_dims(w, "p", "r") == (1, 1, 0)
    assert {(a.src, a.tgt) for a in gabriel_quiver(w).arrows} == {("p", "q"), ("q", "r")}


@given(random_thread_quivers(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_rad_irr_and_gabriel_quiver_on_random_thread_quivers(tq, d):
    w = expand(tq, d)
    assert_rad_irr_matches_oracle(w)
    # relation-free: every arrow is irreducible, with its multiplicity
    got = sorted((a.src, a.tgt) for a in gabriel_quiver(w).arrows)
    assert got == sorted((a.src, a.tgt) for a in w.quiver.arrows)


def test_threads_cli_asks_rad_irr_dims_only_for_arrow_pairs(monkeypatch, capsys):
    path = FIXTURES / "mixed.tq"
    w = expand(parse_tq(path.read_text()), 3)
    pairs = {(a.src, a.tgt) for a in w.quiver.arrows}
    calls = []
    orig = windows.rad_irr_dims

    def counted(w, x, y):
        calls.append((x, y))
        return orig(w, x, y)

    # the Gabriel quiver's neighbours are read in the module that defines it
    monkeypatch.setattr(windows, "rad_irr_dims", counted)
    assert cli.run(["threads", str(path), "--depth", "3"]) == 0
    capsys.readouterr()
    assert calls
    assert len(calls) <= len(pairs)


# -- almost split neighbors -------------------------------------------------------
# the middle term of the almost split sequence at v is the second term of the
# minimal presentation (left) or copresentation (right) of S(v)


def test_almost_split_a2():
    w = a2_window()
    assert two_term_presentation(std_module(w, "2", SIMPLE), PROJECTIVE)[1] == ("1",)
    assert two_term_presentation(std_module(w, "1", SIMPLE), INJECTIVE)[1] == ("2",)


def test_almost_split_source_with_two_arrows():
    q = Quiver(["s", "a", "b"], [("f", "s", "a"), ("g", "s", "b")])
    S = std_module(Window(q), "s", SIMPLE)
    assert tuple(sorted(two_term_presentation(S, INJECTIVE)[1])) == ("a", "b")


def test_almost_split_chain_interior():
    w = expand(tq_empty_thread(), 2)
    order = w.quiver.topological_order()
    interior_chain = [v for v in order[1:-1] if v not in w.boundary]
    assert interior_chain
    for v in interior_chain:
        S = std_module(w, v, SIMPLE)
        assert len(two_term_presentation(S, PROJECTIVE)[1]) == 1
        assert len(two_term_presentation(S, INJECTIVE)[1]) == 1


# -- thread analysis ---------------------------------------------------------------


def test_thread_analysis_chain_expansion():
    w = expand(tq_empty_thread(), 2)
    tv, threads = thread_summary(thread_runs(w))
    # interior chain vertices are thread vertices; src/tgt are not (degree),
    # cut-adjacent ones are not (boundary)
    order = w.quiver.topological_order()
    assert order[0] not in tv and order[-1] not in tv
    for b in w.boundary:
        assert b not in tv
    assert all(v in set(order[1:-1]) for v in tv)


def test_thread_analysis_branch_vertex_is_nonthread():
    q = Quiver(
        ["b", "c1", "c2", "d1", "d2"],
        [("f", "b", "c1"), ("g", "c1", "c2"), ("h", "b", "d1"), ("i", "d1", "d2")],
    )
    w = Window(q)
    tv, _ = thread_summary(thread_runs(w))
    assert "b" not in tv


def test_thread_analysis_linear_an():
    w = an_window(5)
    tv, threads = thread_summary(thread_runs(w))
    assert tv == {"2", "3", "4"}
    assert threads == [("2", "4")]


def test_doubled_arrow_breaks_thread():
    q = Quiver(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "2", "3"), ("b2", "2", "3"), ("c", "3", "4")],
    )
    w = Window(q)
    tv, _ = thread_summary(thread_runs(w))
    assert "2" not in tv and "3" not in tv


def test_thread_hom_check_fixtures():
    for tq in (tq_empty_thread(), tq_z_thread(), tq_mixed()):
        w = expand(tq, 1)
        report = thread_hom_check(w)
        assert report.passed, report.items


def test_thread_hom_check_single_vertex_vacuous():
    w = Window(Quiver(["v"], []))
    assert thread_hom_check(w).passed


# -- extraction ---------------------------------------------------------------------


def test_extract_fin1_depth1_gives_fin5():
    w = expand(tq_fin1_thread(), 1)  # seven-vertex chain
    tq = extract_threadquiver(w, 1)
    assert len(tq.thread_arrows) == 1
    t = tq.thread_arrows[0]
    assert t.label == Fin(5)
    assert len(tq.vertices) == 2


def test_extract_no_long_threads():
    w = a3_window()
    tq = extract_threadquiver(w, 3)
    assert tq.thread_arrows == []
    assert len(tq.standard_arrows) == 2


def test_extract_expand_roundtrip_depth0():
    for maker in (tq_empty_thread, tq_fin1_thread, tq_fin3_thread, tq_z_thread,
                  tq_two_empty_threads):
        for d in (0, 1, 2):
            w = expand(maker(), d)
            tq2 = extract_threadquiver(w, 1)
            w2 = expand(tq2, 0)
            assert window_iso(w2, w) is not None, (maker.__name__, d)


# -- adjoints -----------------------------------------------------------------------


def test_perp_adjoint_empty_family():
    w = a3_window()
    verts, unit = perp_adjoint(w, "3", [], RIGHT)
    assert verts == ("3",)


def test_perp_adjoint_a3_simple_family():
    w = a3_window()
    s2 = std_module(w, "2", SIMPLE)
    verts, _ = perp_adjoint(w, "2", [s2], RIGHT)
    assert verts == ("1",)
    verts3, _ = perp_adjoint(w, "3", [s2], RIGHT)
    assert verts3 == ("3",)
    # adjunction dims against the perp vertices 1, 3
    assign = {v: perp_adjoint(w, v, [s2], RIGHT)[0] for v in w.quiver.vertices}
    report = adjunction_check(w, ["1", "3"], assign, RIGHT)
    assert report.passed, report.items


def test_perp_adjoint_left_side():
    w = a3_window()
    s2 = std_module(w, "2", SIMPLE)
    verts, _ = perp_adjoint(w, "2", [s2], LEFT)
    assert verts == ("3",)
    assign = {v: perp_adjoint(w, v, [s2], LEFT)[0] for v in w.quiver.vertices}
    report = adjunction_check(w, ["1", "3"], assign, LEFT)
    assert report.passed, report.items


def _pairwise_orthogonality(Zs):
    """The orthogonality test as `ext_dim` on every ordered pair, each pair
    resolving its first module again, in full (a finite acyclic window has
    global dimension below its vertex count)."""
    for Z1 in Zs:
        for Z2 in Zs:
            if ext_dim(1, Z1, Z2, len(Z1.window.quiver.vertices)) != 0:
                return "ZNotExtOrthogonal"
    return "orthogonal"


def _perp_outcome(w, A, Zs, side):
    try:
        perp_adjoint(w, A, Zs, side)
    except ZNotExtOrthogonal:
        return "ZNotExtOrthogonal"
    except NotRepresentable:
        pass
    return "orthogonal"


def _count_resolutions(monkeypatch):
    """The (module, length) of every resolution head the orthogonality test
    asks for, in order."""
    resolved = []
    resolve_orig = threads._resolve

    def counting_resolve(M, length):
        resolved.append((M, length))
        return resolve_orig(M, length)

    monkeypatch.setattr(threads, "_resolve", counting_resolve)
    return resolved


def _arrow_end_families(w, a):
    """Families at the ends of the arrow a: x -> y, orthogonal or not."""
    x, y = a.src, a.tgt
    S = {v: std_module(w, v, SIMPLE) for v in (x, y)}
    return [[S[x], S[y]], [S[y], S[x]], [std_module(w, x, PROJECTIVE), S[y]],
            [S[x], std_module(w, y, INJECTIVE)], [S[y]]]


@pytest.mark.parametrize("label, w", [
    pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))])
def test_perp_adjoint_orthogonality_matches_pairwise_ext(label, w, monkeypatch):
    # families at the ends of every arrow x -> y; on either side each member
    # is resolved once, to three terms, and ZNotExtOrthogonal comes exactly
    # when the pairwise route finds a nonzero Ext^1
    resolved = _count_resolutions(monkeypatch)
    outcomes = set()
    for a in w.quiver.arrows:
        for Zs in _arrow_end_families(w, a):
            expected = _pairwise_orthogonality(Zs)
            for side in (LEFT, RIGHT):
                del resolved[:]
                got = _perp_outcome(w, a.src, Zs, side)
                assert got == expected, (label, a.name, side)
                if got == "orthogonal":
                    assert len(resolved) == len(Zs), (label, a.name, side)
                    assert all(M is Z and length == 2
                               for (M, length), Z in zip(resolved, Zs)), (label, a.name)
                outcomes.add(got)
    assert "ZNotExtOrthogonal" in outcomes and "orthogonal" in outcomes, (label, outcomes)


def _assert_three_term_ext1_matches_ext_dim(w, pairs, where):
    """For every Z1 of pairs ((Z1, [Z2, ...]) items), Ext^1(Z1, Z2) read off
    three terms of Z1's minimal projective resolution equals `ext_dim`'s,
    from the full resolution; the three terms are the full resolution's
    first, and they end where that resolution does."""
    bound = len(w.quiver.vertices)
    for Z1, targets in pairs:
        head, ended = reps._resolve(Z1, 2)
        full = resolution(Z1, PROJECTIVE, bound).complex
        assert [t.cert for t in head.terms] == [t.cert for t in full.terms[-3:]], where
        assert ended == (len(full.terms) <= 3), where
        for Z2 in targets:
            ext1 = total_hom_dims(head, one_term_complex(Z2)).get(1, 0)
            assert ext1 == ext_dim(1, Z1, Z2, bound), where


@pytest.mark.parametrize("label, w", [
    pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))])
def test_three_term_ext1_matches_ext_dim(label, w):
    # every ordered pair among S(x), S(y), I(x) and P(y) at the ends of an
    # arrow x -> y
    targets = {}
    for a in w.quiver.arrows:
        ends = [(a.src, SIMPLE), (a.tgt, SIMPLE), (a.src, INJECTIVE), (a.tgt, PROJECTIVE)]
        for end in ends:
            targets.setdefault(end, set()).update(ends)
    pairs = [(std_module(w, *end), [std_module(w, *t) for t in sorted(ts)])
             for end, ts in targets.items()]
    _assert_three_term_ext1_matches_ext_dim(w, pairs, label)


@given(random_thread_quivers(), st.data())
@settings(max_examples=15, deadline=None)
def test_three_term_ext1_matches_ext_dim_with_a_random_relation(tq, data):
    q = expand(tq, data.draw(st.integers(0, 1))).quiver
    w = Window(q, [draw_relation(data, q)])
    simples = [std_module(w, v, SIMPLE) for v in w.quiver.vertices]
    _assert_three_term_ext1_matches_ext_dim(w, [(S, simples) for S in simples], w.relations)


def test_perp_adjoint_rejects_nonorthogonal():
    w = a3_window()
    s2 = std_module(w, "2", SIMPLE)
    s3 = std_module(w, "3", SIMPLE)
    for side in (LEFT, RIGHT):
        with pytest.raises(ZNotExtOrthogonal):
            perp_adjoint(w, "1", [s2, s3], side)


def test_perp_adjoint_orthogonality_reads_three_terms_of_a_long_resolution():
    # on the radical-square-zero A10, S(v10) has projective dimension 9:
    # its resolution runs past length 8, and the orthogonality test reads
    # only its first three terms, on either side
    w = expand(parse_tq((FIXTURES / "ainf_rad2.tq").read_text()), 0)
    s9, s10 = std_module(w, "v9", SIMPLE), std_module(w, "v10", SIMPLE)
    with pytest.raises(ExceedsBound):
        ext_dim(1, s10, s10, 8)
    for side in (LEFT, RIGHT):
        assert perp_adjoint(w, "v9", [s10], side)[0] == ("v9",), side
        with pytest.raises(ZNotExtOrthogonal):
            perp_adjoint(w, "v9", [s9, s10], side)


def test_perp_adjoint_answers_where_both_families_resolve_past_length_8():
    # S(v12) has projective dimension 11 and S(v1) injective dimension 11,
    # so neither the family nor its dual over the opposite window resolves
    # within length 8; Ext^1 vanishes on every ordered pair, read off three
    # terms
    w = ainf_rad2_window(12)
    Zs = [std_module(w, "v1", SIMPLE), std_module(w, "v12", SIMPLE)]
    with pytest.raises(ExceedsBound):
        resolution(Zs[1], PROJECTIVE, 8)
    with pytest.raises(ExceedsBound):
        resolution(Zs[0], INJECTIVE, 8)
    assert _pairwise_orthogonality(Zs) == "orthogonal"
    for side in (LEFT, RIGHT):
        assert perp_adjoint(w, "v6", Zs, side)[0] == ("v6",), side


def test_perp_adjoint_left_tests_orthogonality_once(monkeypatch):
    # either side resolves each nonzero member once, over the window; a zero
    # member is never resolved
    resolved = _count_resolutions(monkeypatch)
    w = a3_window()
    Zs = [std_module(w, "1", SIMPLE), reps.proj_sum(w, ()), std_module(w, "3", SIMPLE)]
    for side in (RIGHT, LEFT):
        del resolved[:]
        perp_adjoint(w, "2", Zs, side)
        assert [(M.window, length) for M, length in resolved] == [(w, 2), (w, 2)], side


def test_supp_adjoint_trivial_cases():
    w = a2_window()
    verts, _ = supp_adjoint(w, "1", "1")
    assert verts == ("1",)
    verts, _ = supp_adjoint(w, "1", "2")
    assert verts == ("1",)
    verts, _ = supp_adjoint(w, "2", "1")
    assert verts == ()


def test_supp_adjoint_branch():
    # A -> y-branch and A -> elsewhere: corestriction lands on the y-branch part
    q = Quiver(
        ["A", "y1", "y2", "w"],
        [("f", "A", "y1"), ("g", "y1", "y2"), ("h", "A", "w")],
    )
    w = Window(q)
    verts, _ = supp_adjoint(w, "A", "y2")
    assert verts == ("A",) or verts == ("y1",)
    # hom(-, y2) of the image must match hom(-, A) on the branch
    assert w.hom_dim(verts[0], "y2") == 1


def test_support_image_and_kernel_fail_at_one_recognition_site():
    # with rad^2 = 0, the image of P(v4) -> P(v5) and the kernel of
    # P(v3) -> P(v4) both have a summand that is not a standard projective
    w = ainf_rad2_window(10)
    message = "summand is not a standard projective"
    with pytest.raises(NotRepresentable, match=message):
        supp_adjoint(w, "v4", "v5")
    with pytest.raises(NotRepresentable, match=message):
        kernel_as_projectives(realize_proj(VarietyMor.from_arrow(w, "a3")))


def test_interval_adjoint_inside():
    w = an_window(5)
    verts, _ = interval_adjoint(w, "2", "4", "3", LEFT)
    assert verts == ("3",)


def test_interval_adjoint_before_interval():
    w = an_window(5)
    verts, _ = interval_adjoint(w, "2", "4", "1", LEFT)
    assert verts == ("2",)
    verts, _ = interval_adjoint(w, "2", "4", "5", LEFT)
    assert verts == ()


def test_interval_adjoint_right_side():
    w = an_window(5)
    verts, _ = interval_adjoint(w, "2", "4", "5", RIGHT)
    assert verts == ("4",)
    verts, _ = interval_adjoint(w, "2", "4", "1", RIGHT)
    assert verts == ()


@pytest.mark.parametrize(
    "label, w", [pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))]
)
def test_opposite_transport_round_trip_and_dual_side_adjoints(label, w):
    # transporting to the opposite window and back returns the arrow itself,
    # and the adjoints computed over the opposite window come back over w
    for a in w.quiver.arrows:
        vm = VarietyMor.from_arrow(w, a.name)
        op = transport_to_opposite(vm)
        assert op.window is w.opposite()
        back = transport_to_opposite(op)
        assert back.window is w
        assert (back.source, back.target, back.entries) == (vm.source, vm.target, vm.entries)
        _, unit = perp_adjoint(w, a.src, [std_module(w, a.tgt, SIMPLE)], LEFT)
        assert unit.window is w
        # a.src lies before the one-point interval [a.tgt, a.tgt], so this
        # goes through the opposite window (with an empty image); objects of
        # the interval return at once (see the next test)
        verts, unit = interval_adjoint(w, a.tgt, a.tgt, a.src, RIGHT)
        assert verts == () and unit.window is w
    # so does every basis element of every hom, paths of any length included
    zero, one = w.field.zero, w.field.one
    for y in w.quiver.vertices:
        for x, hb in w.column(y).items():
            for i in range(hb.dim):
                unit = [one if j == i else zero for j in range(hb.dim)]
                vm = VarietyMor(w, (x,), (y,), [[unit]])
                back = transport_to_opposite(transport_to_opposite(vm))
                assert back.window is w and back.entries == [[unit]], (label, x, y, i)


@pytest.mark.parametrize(
    "label, w", [pytest.param(label, w, id=label) for label, w in fixture_windows((0, 1, 2))]
)
def test_interval_adjoint_fixes_objects_of_the_interval(label, w):
    # for an arrow x -> y, both ends lie in [x, y]: each is its own image,
    # with the identity as unit, on either side and whatever the relations
    for a in w.quiver.arrows:
        for A in (a.src, a.tgt):
            for side in (LEFT, RIGHT):
                verts, unit = interval_adjoint(w, a.src, a.tgt, A, side)
                assert verts == (A,), (label, a.name, A, side)
                assert unit.window is w
                assert (unit.source, unit.target) == ((A,), (A,))
                assert unit.entries == [[w.hom(A, A).expand_path(identity_path(A))]]


def test_interval_adjoint_full_assignment_checks():
    w = an_window(6)
    sub = ["2", "3", "4"]
    for side in (LEFT, RIGHT):
        assign = {
            v: interval_adjoint(w, "2", "4", v, side)[0] for v in w.quiver.vertices
        }
        report = adjunction_check(w, sub, assign, side)
        assert report.passed, (side, report.items)


def test_interval_adjoint_resolves_nothing(monkeypatch):
    # the perpendicular step removes standard projectives, so the full
    # assignment of [A, B] on mixed at depth 2 runs no resolution and no
    # orthogonality test, on either side, and satisfies the adjunction
    def refuse(*args):
        raise AssertionError("the interval adjoint resolved a module")

    monkeypatch.setattr(threads, "_resolve", refuse)
    monkeypatch.setattr(threads, "_assert_ext_orthogonal", refuse)
    w = expand(parse_tq((FIXTURES / "mixed.tq").read_text()), 2)
    sub = [v for v in w.quiver.vertices if w.hom_dim("A", v) and w.hom_dim(v, "B")]
    for side in (LEFT, RIGHT):
        assign = {v: interval_adjoint(w, "A", "B", v, side)[0] for v in w.quiver.vertices}
        report = adjunction_check(w, sub, assign, side)
        assert report.passed, (side, report.items)


def test_adjunction_check_flags_wrong_assignment():
    w = an_window(5)
    sub = ["2", "3", "4"]
    assign = {v: interval_adjoint(w, "2", "4", v, LEFT)[0] for v in w.quiver.vertices}
    assign["1"] = ("3",)  # deliberately shifted
    report = adjunction_check(w, sub, assign, LEFT)
    assert not report.passed


def test_maps_out_of_threads_instance():
    # for a maximal thread [F..L] with successor Y+ off the thread:
    # dim hom(F, Y+) = 1 and v -> Y+ is a left adjoint assignment
    w = expand(normalize(tq_z_thread()), 2)
    runs = thread_runs(w)
    runs = [r for r in runs if len(r) >= 2]
    assert runs
    run = runs[0]
    ins = {a.tgt: a.src for a in w.quiver.arrows}
    outs = {a.src: a.tgt for a in w.quiver.arrows}
    y_plus = outs[run[-1]]
    assert w.hom_dim(run[0], y_plus) == 1
    complement = [v for v in w.quiver.vertices if v not in set(run)]
    assign = {}
    for v in w.quiver.vertices:
        if v in set(run):
            assign[v] = (y_plus,)
        else:
            assign[v] = (v,)
    report = adjunction_check(w, complement, assign, LEFT, probes=list(run))
    assert report.passed, report.items
