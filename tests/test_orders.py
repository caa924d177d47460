import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import literal_label_overlap

from threadquiver.errors import NestedThread
from threadquiver.orders import (
    INT,
    NAT,
    NEG_NAT,
    Concat,
    Fin,
    _namespace,
    _namespaces_overlap,
    order_expr_str,
    thread_order,
    truncate,
    truncated_size,
)


def brute_size(e, d):
    """Independent counting oracle: unfold the definitions, nothing shared
    with the truncation code."""
    from threadquiver import orders

    if isinstance(e, orders.Fin):
        return e.n
    if e == NAT or e == NEG_NAT:
        return d + 1
    if e == INT:
        return 2 * d + 1
    if isinstance(e, orders.Concat):
        return brute_size(e.left, d) + brute_size(e.right, d)
    if isinstance(e, orders.ThreadOrder):
        return (d + 1) + brute_size(e.label, d) * (2 * d + 1) + (d + 1)
    raise TypeError(e)


def test_concat_nat_negnat_depth1():
    c = truncate(Concat(NAT, NEG_NAT), 1)
    assert c.elements == ["0", "1", "-1", "-0"]
    assert c.cut_adjacent == [False, True, True, False]


def test_concat_empty_left_is_identity():
    p = Concat(NAT, Fin(2))
    for d in range(4):
        a = truncate(Concat(Fin(0), p), d)
        b = truncate(p, d)
        assert a.elements == b.elements
        assert a.cut_adjacent == b.cut_adjacent


def test_concat_fin_fin():
    c = truncate(Concat(Fin(1), Fin(2)), 3)
    assert len(c) == 3
    assert not any(c.cut_adjacent)


def test_thread_order_empty_label_counts():
    for d in range(5):
        assert len(truncate(thread_order(Fin(0)), d)) == 2 * d + 2


def test_thread_order_fin1_counts():
    for d in range(5):
        assert len(truncate(thread_order(Fin(1)), d)) == 4 * d + 3


def test_thread_order_depth0():
    for m in range(4):
        c = truncate(thread_order(Fin(m)), 0)
        assert len(c) == m + 2


def test_thread_order_rejects_nesting():
    with pytest.raises(NestedThread):
        thread_order(thread_order(Fin(1)))
    with pytest.raises(NestedThread):
        thread_order(Concat(Fin(1), thread_order(Fin(0))))


def test_truncate_int():
    c = truncate(INT, 1)
    assert c.elements == ["-1", "0", "1"]
    assert c.cut_adjacent == [True, False, True]


def test_truncate_fin_is_interior():
    c = truncate(Fin(3), 7)
    assert len(c) == 3
    assert not any(c.cut_adjacent)


def test_thread_order_extremes_interior():
    c = truncate(thread_order(Fin(1)), 1)
    assert len(c) == 7
    assert not c.cut_adjacent[0]
    assert not c.cut_adjacent[-1]


def test_neighbors_small_chain():
    # a chain's neighbours are its elements by position
    c = truncate(Fin(3), 0)
    assert c.elements == ["1", "2", "3"]


def test_neighbors_thread_min():
    c = truncate(thread_order(Fin(0)), 2)
    assert c.elements[:2] == ["0", "1"]


label_exprs = st.one_of(
    st.builds(Fin, st.integers(0, 4)),
    st.just(NAT),
    st.just(NEG_NAT),
    st.just(INT),
)
plain_exprs = st.recursive(
    label_exprs, lambda inner: st.builds(Concat, inner, inner), max_leaves=4
)


@given(st.integers(0, 4), st.integers(0, 4))
def test_thread_order_size_formula(m, d):
    c = truncate(thread_order(Fin(m)), d)
    assert len(c) == (d + 1) + m * (2 * d + 1) + (d + 1)


@given(plain_exprs, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_truncation_size_matches_brute_oracle(e, d):
    assert len(truncate(e, d)) == brute_size(e, d)
    assert len(truncate(thread_order(e), d)) == brute_size(thread_order(e), d)


@given(plain_exprs, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_truncated_size_is_the_length_of_the_truncation(e, d):
    for expr in (e, thread_order(e)):
        assert truncated_size(expr, d) == len(truncate(expr, d))


SEGMENTS = [Fin(n) for n in range(1, 6)] + [NAT, NEG_NAT, INT]


@pytest.mark.parametrize("a", SEGMENTS, ids=order_expr_str)
@pytest.mark.parametrize("b", SEGMENTS, ids=order_expr_str)
def test_one_tag_per_finite_segment_overlaps_as_its_literal_labels(a, b):
    assert _namespaces_overlap(_namespace(a), _namespace(b)) == literal_label_overlap(a, b)


@given(plain_exprs, st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_truncation_monotone(e, d):
    for expr in (e, thread_order(e)):
        small = truncate(expr, d).elements
        big = truncate(expr, d + 1).elements
        pos = {x: i for i, x in enumerate(big)}
        assert all(x in pos for x in small), "depth-d chain embeds into depth-(d+1)"
        idxs = [pos[x] for x in small]
        assert idxs == sorted(idxs), "embedding preserves order"


@given(plain_exprs, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_thread_truncation_unique_extremes(e, d):
    c = truncate(thread_order(e), d)
    assert not c.cut_adjacent[0] and not c.cut_adjacent[-1]


def test_concat_truncation_is_concatenation():
    # disjoint label namespaces: truncation concatenates labelwise
    a, b = NAT, NEG_NAT
    for d in range(3):
        left = truncate(a, d)
        right = truncate(b, d)
        both = truncate(Concat(a, b), d)
        assert both.elements == left.elements + right.elements
        assert both.cut_adjacent == left.cut_adjacent + right.cut_adjacent


@given(plain_exprs, plain_exprs, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_concat_truncation_shape(a, b, d):
    # in general the concatenation holds up to the disambiguating relabeling
    left = truncate(a, d)
    right = truncate(b, d)
    both = truncate(Concat(a, b), d)
    assert len(both) == len(left) + len(right)
    assert both.cut_adjacent == left.cut_adjacent + right.cut_adjacent


def test_order_expr_str():
    assert order_expr_str(Fin(0)) == ""
    assert order_expr_str(Fin(3)) == "3"
    assert order_expr_str(Concat(NAT, NEG_NAT)) == "N . -N"
    assert order_expr_str(INT) == "Z"
