"""Symbolic linearly ordered sets and their finite truncations.

The grammar covers the label orders used on thread arrows (finite chains,
the naturals, the negated naturals, the integers, and concatenations) plus
the derived thread order N . (P x_lex Z) . -N, which carries a global
minimum and maximum.  Truncation at depth d keeps a finite window of each
infinite segment and marks the elements adjacent to a cut, so downstream
homological checks can skip truncation artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NestedThread


class LinearOrderExpr:
    pass


@dataclass(frozen=True)
class Fin(LinearOrderExpr):
    n: int

    def __post_init__(self):
        assert self.n >= 0


@dataclass(frozen=True)
class _Nat(LinearOrderExpr):
    pass


@dataclass(frozen=True)
class _NegNat(LinearOrderExpr):
    pass


@dataclass(frozen=True)
class _Int(LinearOrderExpr):
    pass


NAT = _Nat()
NEG_NAT = _NegNat()
INT = _Int()


@dataclass(frozen=True)
class Concat(LinearOrderExpr):
    left: LinearOrderExpr
    right: LinearOrderExpr


@dataclass(frozen=True)
class ThreadOrder(LinearOrderExpr):
    label: LinearOrderExpr


def contains_thread_order(e: LinearOrderExpr) -> bool:
    if isinstance(e, ThreadOrder):
        return True
    if isinstance(e, Concat):
        return contains_thread_order(e.left) or contains_thread_order(e.right)
    return False


def thread_order(p: LinearOrderExpr) -> LinearOrderExpr:
    """The order N . (p x_lex Z) . -N substituted for a thread arrow labeled p."""
    if contains_thread_order(p):
        raise NestedThread("thread labels must be plain orders")
    return ThreadOrder(p)


@dataclass
class FiniteChain:
    """A finite linear order with per-element truncation marks."""

    elements: list[str]
    cut_adjacent: list[bool]

    def __post_init__(self):
        assert len(self.elements) == len(self.cut_adjacent)
        assert len(set(self.elements)) == len(self.elements), "duplicate labels"

    def __len__(self):
        return len(self.elements)


def _segments(e: LinearOrderExpr) -> list[LinearOrderExpr]:
    if isinstance(e, Concat):
        return _segments(e.left) + _segments(e.right)
    if isinstance(e, Fin) and e.n == 0:
        return []  # the empty order contributes nothing, and must not shift indices
    return [e]


def _namespace(e: LinearOrderExpr) -> frozenset:
    """Symbolic label alphabet of a segment, over all truncation depths.

    Tags: POS (the labels 1..n of a nonempty finite segment), NN
    (nonnegative integer strings), NEGINT (negative integers), NEGNAT (the
    -0, -1, ... strings) and PAIR (parenthesized lex pairs).
    """
    if isinstance(e, Fin):
        return frozenset({"POS"} if e.n else ())
    if isinstance(e, _Nat):
        return frozenset({"NN"})
    if isinstance(e, _NegNat):
        return frozenset({"NEGNAT"})
    if isinstance(e, _Int):
        return frozenset({"NN", "NEGINT"})
    if isinstance(e, Concat):
        return _namespace(e.left) | _namespace(e.right)
    if isinstance(e, ThreadOrder):
        return frozenset({"NN", "NEGNAT", "PAIR"})
    raise TypeError(f"not a linear order expression: {e!r}")


# tag pairs that share a label: 1, 2, ... are nonnegative integers, and
# -1, -2, ... both negative integers and negated naturals
_OVERLAPPING_TAGS = ({"POS", "NN"}, {"NEGINT", "NEGNAT"})


def _namespaces_overlap(n1: frozenset, n2: frozenset) -> bool:
    return any(a == b or {a, b} in _OVERLAPPING_TAGS for a in n1 for b in n2)


def _atom_pairs(e: LinearOrderExpr, d: int) -> list[tuple[str, bool]]:
    """Truncation of a single non-Concat segment."""
    if isinstance(e, Fin):
        return [(str(i + 1), False) for i in range(e.n)]
    if isinstance(e, _Nat):
        # 0..d; the max sits against the cut
        return [(str(i), i == d) for i in range(d + 1)]
    if isinstance(e, _NegNat):
        # -d..-0; the min sits against the cut ("-0" is the true maximum)
        return [(f"-{d - i}", i == 0) for i in range(d + 1)]
    if isinstance(e, _Int):
        return [(str(i), i in (-d, d)) for i in range(-d, d + 1)]
    if isinstance(e, ThreadOrder):
        nat = _atom_pairs(NAT, d)
        neg = _atom_pairs(NEG_NAT, d)
        mid_label = _truncate_pairs(e.label, d)
        mid_z = _atom_pairs(INT, d)
        # lexicographic product: an element's neighborhood is falsified exactly
        # when its Z coordinate sits against a cut
        mid = [
            (f"({pl},{zl})", zcut)
            for pl, _pcut in mid_label
            for zl, zcut in mid_z
        ]
        pairs = nat + mid + neg
        # the global extremes are honest: they exist in the infinite order too
        first = (pairs[0][0], False)
        last = (pairs[-1][0], False)
        return [first] + pairs[1:-1] + [last]
    raise TypeError(f"not a linear order expression: {e!r}")


def _truncate_pairs(e: LinearOrderExpr, d: int) -> list[tuple[str, bool]]:
    segs = _segments(e)
    spaces = [_namespace(s) for s in segs]
    out = []
    for i, seg in enumerate(segs):
        clash = any(
            j != i and _namespaces_overlap(spaces[i], spaces[j])
            for j in range(len(segs))
        )
        for label, cut in _atom_pairs(seg, d):
            out.append((f"{i}:{label}" if clash else label, cut))
    return out


def truncate(e: LinearOrderExpr, d: int) -> FiniteChain:
    """Depth-d finite window of the order, with cut-adjacency marks."""
    assert d >= 0
    pairs = _truncate_pairs(e, d)
    return FiniteChain([p[0] for p in pairs], [p[1] for p in pairs])


def truncated_size(e: LinearOrderExpr, d: int) -> int:
    """len(truncate(e, d)), read off the expression without enumerating it."""
    if isinstance(e, Fin):
        return e.n
    if isinstance(e, (_Nat, _NegNat)):
        return d + 1
    if isinstance(e, _Int):
        return 2 * d + 1
    if isinstance(e, Concat):
        return truncated_size(e.left, d) + truncated_size(e.right, d)
    if isinstance(e, ThreadOrder):
        return 2 * (d + 1) + truncated_size(e.label, d) * (2 * d + 1)
    raise TypeError(f"not a linear order expression: {e!r}")


def order_expr_str(e: LinearOrderExpr) -> str:
    """Render in the thread-arrow label syntax ('' for the empty order)."""
    if isinstance(e, Fin):
        return "" if e.n == 0 else str(e.n)
    if isinstance(e, _Nat):
        return "N"
    if isinstance(e, _NegNat):
        return "-N"
    if isinstance(e, _Int):
        return "Z"
    if isinstance(e, Concat):
        left = order_expr_str(e.left)
        right = order_expr_str(e.right)
        if not left or not right:
            # concatenation with the empty order contributes nothing
            return left or right
        return f"{left} . {right}"
    if isinstance(e, ThreadOrder):
        return f"thread({order_expr_str(e.label)})"
    raise TypeError(f"not a linear order expression: {e!r}")
