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

from .errors import ElementNotFound, NestedThread


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


def concat_orders(a: LinearOrderExpr, b: LinearOrderExpr) -> LinearOrderExpr:
    return Concat(a, b)


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
        self._index = {e: i for i, e in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def index(self, e: str) -> int:
        if e not in self._index:
            raise ElementNotFound(e)
        return self._index[e]

    @property
    def min(self) -> str:
        return self.elements[0]

    @property
    def max(self) -> str:
        return self.elements[-1]


def neighbors(c: FiniteChain, e: str) -> tuple[str | None, str | None]:
    """Positional predecessor and successor; None at the chain ends."""
    i = c.index(e)
    pred = c.elements[i - 1] if i > 0 else None
    succ = c.elements[i + 1] if i + 1 < len(c.elements) else None
    return pred, succ


def _segments(e: LinearOrderExpr) -> list[LinearOrderExpr]:
    if isinstance(e, Concat):
        return _segments(e.left) + _segments(e.right)
    if isinstance(e, Fin) and e.n == 0:
        return []  # the empty order contributes nothing, and must not shift indices
    return [e]


def _namespace(e: LinearOrderExpr) -> frozenset:
    """Symbolic label alphabet of a segment, over all truncation depths.

    Tags: NN (nonnegative integer strings), NEGINT (negative integers),
    NEGNAT (the -0, -1, ... strings), PAIR (parenthesized lex pairs),
    and literal Fin labels.
    """
    if isinstance(e, Fin):
        return frozenset(("LIT", str(i + 1)) for i in range(e.n))
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


def _tags_overlap(a, b) -> bool:
    lits = lambda t: t[1] if isinstance(t, tuple) else None
    if isinstance(a, tuple) and isinstance(b, tuple):
        return a[1] == b[1]
    if isinstance(a, tuple) or isinstance(b, tuple):
        lit = lits(a) or lits(b)
        other = b if isinstance(a, tuple) else a
        return other == "NN" and not lit.startswith("-")
    if a == b:
        return True
    return {a, b} == {"NEGINT", "NEGNAT"}


def _namespaces_overlap(n1: frozenset, n2: frozenset) -> bool:
    return any(_tags_overlap(a, b) for a in n1 for b in n2)


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
