import random

import pytest
from conftest import (
    arrow_path,
    fixture_windows,
    full_scan_consistency,
    random_thread_quivers,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.errors import NonAcyclic, TooLarge
from threadquiver.orders import INT, Fin
from threadquiver.quiver import Path, Quiver, Relation
from threadquiver.threads import extract_threadquiver
import threadquiver.windows as windows
from threadquiver.windows import (
    ThreadQuiver,
    Window,
    expand,
    normalize,
    underlying_quiver,
    window_iso,
)


def single_thread(label):
    return ThreadQuiver(["x", "y"], [], [("t", "x", "y", label)])


def two_empty_threads():
    return ThreadQuiver(
        ["x", "y", "z"], [], [("t", "x", "y", Fin(0)), ("u", "y", "z", Fin(0))]
    )


def ft_not_full():
    # parallel standard arrow and (empty-label) thread arrow
    return ThreadQuiver(["x", "y"], [("s", "x", "y")], [("t", "x", "y", Fin(0))])


def chain_expected(d, label_size):
    return (d + 1) + label_size * (2 * d + 1) + (d + 1)


def is_linear_chain(w):
    q = w.quiver
    srcs = [v for v in q.vertices if not q.in_arrows[v]]
    sinks = [v for v in q.vertices if not q.out_arrows[v]]
    if len(srcs) != 1 or len(sinks) != 1:
        return False
    return all(
        len(q.out_arrows[v]) <= 1 and len(q.in_arrows[v]) <= 1 for v in q.vertices
    )


def test_underlying_quiver_keeps_vertices():
    tq = ft_not_full()
    q = underlying_quiver(tq)
    assert set(q.vertices) == {"x", "y"}
    assert {a.name for a in q.arrows} == {"s", "t"}


def test_underlying_quiver_mixed_figure():
    # dropping labels turns the three thread arrows into plain arrows,
    # leaving the parallel pair between B and E
    from conftest import tq_mixed

    tq = tq_mixed()
    q = underlying_quiver(tq)
    assert len(q.vertices) == 5
    assert len(q.arrows) == 6
    be = [a for a in q.arrows if (a.src, a.tgt) == ("B", "E")]
    assert len(be) == 2


def test_underlying_plain_quiver_identity():
    tq = ThreadQuiver(["a", "b"], [("f", "a", "b")], [])
    q = underlying_quiver(tq)
    assert {a.name for a in q.arrows} == {"f"}


def test_normalize_ft_not_full():
    tqn = normalize(ft_not_full())
    assert len(tqn.vertices) == 4
    assert len(tqn.standard_arrows) == 3  # s plus the two buffers
    assert len(tqn.thread_arrows) == 1
    t = tqn.thread_arrows[0]
    assert t.src == "t.a" and t.tgt == "t.b"


def test_normalize_no_threads_is_identity():
    tq = ThreadQuiver(["a", "b"], [("f", "a", "b")], [])
    tqn = normalize(tq)
    assert tqn.vertices == ["a", "b"]
    assert [a.name for a in tqn.standard_arrows] == ["f"]


def test_normalize_rewrites_relations():
    q_rel = Relation(((1, Path("x", "y", ("t",))),))
    tq = ThreadQuiver(["x", "y"], [], [("t", "x", "y", Fin(0))], [q_rel])
    tqn = normalize(tq)
    (rel,) = tqn.relations
    ((c, p),) = rel.terms
    assert p.arrows == ("t.in", "t", "t.out")


def test_expand_empty_label_counts():
    for d in range(4):
        w = expand(single_thread(Fin(0)), d)
        assert len(w.quiver.vertices) == 2 * d + 2
        assert is_linear_chain(w)


def test_expand_fin1_counts():
    for d in range(3):
        w = expand(single_thread(Fin(1)), d)
        assert len(w.quiver.vertices) == 4 * d + 3
        assert is_linear_chain(w)


def test_expand_two_empty_threads_counts():
    for d in range(3):
        w = expand(two_empty_threads(), d)
        assert len(w.quiver.vertices) == 4 * d + 3
        assert is_linear_chain(w)


def test_expand_z_label_counts():
    w = expand(single_thread(INT), 1)
    assert len(w.quiver.vertices) == chain_expected(1, 3)


def test_expand_acyclic_and_boundary():
    w = expand(single_thread(INT), 2)
    assert w.quiver.is_acyclic()
    assert all(v in set(w.quiver.vertices) for v in w.boundary)
    # endpoints are the honest extremes, never boundary
    assert "x" not in w.boundary and "y" not in w.boundary


def test_expand_embeds():
    tq = ft_not_full()
    w = expand(tq, 1)
    vmap = w.embed_t["t"]
    chain_elems = list(vmap)
    assert vmap[chain_elems[0]] == "x"
    assert vmap[chain_elems[-1]] == "y"


def test_expand_rejects_cycle():
    tq = ThreadQuiver(
        ["x", "y"], [("s", "x", "y")], [("t", "y", "x", Fin(0))]
    )
    with pytest.raises(NonAcyclic):
        expand(tq, 1)


def test_expand_bounds_the_whole_window_before_building(monkeypatch):
    # each thread alone fits under the bound, the two together do not; the
    # count is summed from the labels, before any chain is truncated
    truncated = []
    real_truncate = windows.truncate
    monkeypatch.setattr(windows, "truncate",
                        lambda e, d: truncated.append(e) or real_truncate(e, d))
    n = windows.EXPAND_MAX_VERTICES // 2
    one = ThreadQuiver(["w", "x"], [], [("s", "w", "x", Fin(n))])
    assert len(expand(one, 0).quiver.vertices) == n + 2 <= windows.EXPAND_MAX_VERTICES
    truncated.clear()
    two = ThreadQuiver(["w", "x", "y", "z"], [],
                       [("s", "w", "x", Fin(n)), ("t", "y", "z", Fin(n))])
    with pytest.raises(TooLarge) as excinfo:
        expand(two, 0)
    assert str(excinfo.value) == (
        f"the depth-0 window would have {2 * n + 4} vertices, over the limit of "
        f"{windows.EXPAND_MAX_VERTICES}; the file declares 4, thread s adds {n}")
    assert truncated == []


def test_expand_thread_chain_hom_is_one():
    w = expand(single_thread(INT), 1)
    assert w.hom_dim("x", "y") == 1


def test_expand_monotone_embedding():
    tq = single_thread(Fin(1))
    w1, w2 = expand(tq, 1), expand(tq, 2)
    for t, vmap in w1.embed_t.items():
        for elem, wv in vmap.items():
            assert elem in w2.embed_t[t]
            # fresh vertex names agree where both windows have the element
            assert w2.embed_t[t][elem] == wv or wv in ("x", "y")


def test_window_iso_self():
    w = expand(single_thread(Fin(1)), 1)
    iso = window_iso(w, w)
    assert iso is not None


def test_window_iso_fin1_vs_two_empty():
    for d in range(3):
        w1 = expand(single_thread(Fin(1)), d)
        w2 = expand(two_empty_threads(), d)
        assert window_iso(w1, w2) is not None


def test_window_iso_counts_differ():
    w1 = expand(ThreadQuiver(["a", "b"], [("f", "a", "b")], []), 0)
    w2 = expand(ThreadQuiver(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], []), 0)
    assert window_iso(w1, w2) is None


def test_window_iso_respects_relations():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    rel = Relation(((1, arrow_path(q, ("a", "b"))),))
    w_plain = Window(q, [])
    w_rel = Window(q, [rel])
    assert window_iso(w_plain, w_rel) is None
    assert window_iso(w_rel, w_rel) is not None


def test_window_iso_too_large():
    tq = single_thread(INT)
    w = expand(tq, 4)  # 5 + 9*9 + 5 - 2 vertices > 60
    with pytest.raises(TooLarge):
        window_iso(w, w)


def _iso_outcome(w1, w2):
    try:
        return window_iso(w1, w2)
    except TooLarge as e:
        return f"TooLarge: {e}"


def _assert_consistency_matches_full_scan(w1, w2):
    """window_iso(w1, w2) returns the same under the full-scan oracle, and
    its consistency test answers as the oracle at every call.  Returns the
    number of calls."""
    real = windows._consistency
    calls = []

    def checked(a, b, assignment, used):
        mine, scan = real(a, b, assignment, used), full_scan_consistency(a, b, assignment, used)

        def consistent(v, w):
            got = mine(v, w)
            assert got == scan(v, w), (v, w, dict(assignment))
            calls.append(got)
            return got

        return consistent

    with pytest.MonkeyPatch.context() as m:
        m.setattr(windows, "_consistency", full_scan_consistency)
        want = _iso_outcome(w1, w2)
        m.setattr(windows, "_consistency", checked)
        assert _iso_outcome(w1, w2) == want
    return len(calls)


def _relabelled(w, rng):
    """A relation-free window isomorphic to w, with its vertices and arrows
    renamed and listed in a shuffled order, so the search meets them in
    another order."""
    names = [f"u{i}" for i in range(len(w.quiver.vertices))]
    rng.shuffle(names)
    rename = dict(zip(w.quiver.vertices, names))
    arrows = [(f"b{i}", rename[a.src], rename[a.tgt]) for i, a in enumerate(w.quiver.arrows)]
    rng.shuffle(names)
    rng.shuffle(arrows)
    return Window(Quiver(names, arrows), [])


def _iso_pairs(w, rng):
    """(w, w); when w has no relations also w against its extraction's
    window, as `roundtrip` compares them, and against two relabelled
    copies, each both ways."""
    if w.relations:
        return [(w, w)]
    others = [expand(extract_threadquiver(w, 3), 0), _relabelled(w, rng), _relabelled(w, rng)]
    return [(w, w)] + [pair for o in others for pair in ((o, w), (w, o))]


@pytest.mark.parametrize("depth", range(4))
def test_window_iso_consistency_matches_the_full_scan_on_fixtures(depth):
    for label, w in fixture_windows([depth]):
        calls = sum(_assert_consistency_matches_full_scan(a, b)
                    for a, b in _iso_pairs(w, random.Random(label)))
        assert calls > 0 or len(w.quiver.vertices) > windows.ISO_MAX_VERTICES, label


@given(random_thread_quivers(), st.integers(0, 2), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_window_iso_consistency_matches_the_full_scan_on_random_thread_quivers(tq, d, rng):
    for a, b in _iso_pairs(expand(tq, d), rng):
        _assert_consistency_matches_full_scan(a, b)


def test_window_iso_consistency_counts_used_neighbours():
    # a -> d and c -> b: with a -> a placed, b (no placed neighbour) may not
    # go to d (a placed neighbour); only the used-neighbour count sees it
    q = Quiver(["a", "b", "c", "d"], [("f", "a", "d"), ("g", "c", "b")])
    w = Window(q, [])
    assignment, used = {"a": "a"}, {"a"}
    for consistent in (windows._consistency(w, w, assignment, used),
                       full_scan_consistency(w, w, assignment, used)):
        assert not consistent("b", "d")
        assert consistent("b", "b")
        assert consistent("d", "d")
        assert not consistent("d", "b")


def test_normalize_empty_label_depth_shift():
    # expanding the normalized quiver one depth shallower matches the original
    tq = single_thread(Fin(0))
    for d in (1, 2):
        w1 = expand(tq, d)
        w2 = expand(normalize(tq), d - 1)
        assert window_iso(w1, w2) is not None


def test_opposite_window():
    w = expand(single_thread(Fin(1)), 1)
    op = w.opposite()
    assert op.hom_dim("y", "x") == w.hom_dim("x", "y")
    assert op.opposite() is w


@given(random_thread_quivers(), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_expansion_counts_against_truncation_oracle(tq, d):
    # independent oracle: vertex count = original vertices plus, per thread,
    # the truncated thread-order size minus the two glued endpoints
    from threadquiver.orders import thread_order, truncate

    w = expand(tq, d)
    expected = len(tq.vertices) + sum(
        len(truncate(thread_order(t.label), d)) - 2 for t in tq.thread_arrows
    )
    assert len(w.quiver.vertices) == expected
    assert w.quiver.is_acyclic()
    expected_arrows = len(tq.standard_arrows) + sum(
        len(truncate(thread_order(t.label), d)) - 1 for t in tq.thread_arrows
    )
    assert len(w.quiver.arrows) == expected_arrows


def test_thread_chains_are_linear_with_unit_homs():
    # each thread arrow's image is a linear chain from src to tgt, and hom
    # along the chain is one dimensional
    from threadquiver.orders import INT, Fin
    from threadquiver.windows import ThreadQuiver

    tq = ThreadQuiver(
        ["A", "B", "C"],
        [("s", "A", "C")],
        [("t", "A", "B", INT), ("u", "B", "C", Fin(2))],
    )
    for d in (0, 1, 2):
        w = expand(tq, d)
        for t, vmap in w.embed_t.items():
            chain = list(vmap.values())
            for i in range(len(chain) - 1):
                assert any(
                    a.src == chain[i] and a.tgt == chain[i + 1]
                    for a in w.quiver.arrows
                )
            for i in range(len(chain)):
                for j in range(i, len(chain)):
                    assert w.hom_dim(chain[i], chain[j]) == 1
