import ast
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    FractionField,
    column,
    direct_sum,
    matrix_from_rows,
    per_column_solve_matrix,
    rref_kernel_basis,
    solve,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadquiver.linalg import (
    QQ,
    MILLER_RABIN_LIMIT,
    DimensionMismatch,
    FpElement,
    Matrix,
    PrimeField,
    column_space_basis,
    field_by_name,
    hstack,
    is_prime,
    kernel_basis,
    rank,
    rref,
    solve_matrix,
    sparse_kernel,
)


def M(rows):
    return matrix_from_rows(QQ, rows)


def hand_row_reduce(rows):
    """Independent oracle: plain fraction Gauss-Jordan, no shortcuts."""
    rows = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    piv = 0
    pivots = []
    for c in range(nc):
        hit = next((i for i in range(piv, nr) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        rows[piv] = [x / rows[piv][c] for x in rows[piv]]
        for i in range(nr):
            if i != piv and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[piv])]
        pivots.append(c)
        piv += 1
    return len(pivots), rows, pivots


def test_rref_identity():
    rk, red, piv = rref(Matrix.identity(QQ, 2))
    assert rk == 2 and piv == [0, 1]
    assert red == Matrix.identity(QQ, 2)


def test_rref_proportional_rows():
    rk, _, piv = rref(M([[1, 2], [2, 4]]))
    assert rk == 1 and piv == [0]


def test_rref_matches_hand_reduction():
    rows = [[0, 1], [1, 0], [1, 1]]
    rk, red, piv = rref(M(rows))
    ork, ored, opiv = hand_row_reduce(rows)
    assert rk == ork == 2
    assert piv == opiv
    assert [red.row(i) for i in range(red.rows)] == ored


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3))[0].cols == 0


def test_kernel_zero_map():
    k, free = kernel_basis(Matrix.zeros(QQ, 2, 3))
    assert free == [0, 1, 2]
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_hand_example():
    m = M([[1, 1, 0], [0, 1, 1]])
    k, free = kernel_basis(m)
    assert k.cols == 1
    assert free == [2] and k[2, 0] == 1
    v = column(k, 0)
    # proportional to (1, -1, 1)
    assert v[0] == -v[1] == v[2] != 0
    assert all(x == 0 for x in m.apply(v))


def test_solve_identity():
    assert solve(Matrix.identity(QQ, 2), [3, 5]) == [3, 5]


def test_solve_no_solution():
    assert solve(M([[1, 2], [2, 4]]), [1, 3]) is None


def test_solve_underdetermined():
    x = solve(M([[1, 1]]), [2])
    assert x is not None and x[0] + x[1] == 2


def test_blocks():
    d = direct_sum([M([[2]]), M([[3]])])
    assert d == M([[2, 0], [0, 3]])
    h = hstack([Matrix.zeros(QQ, 2, 1), Matrix.identity(QQ, 2)])
    assert (h.rows, h.cols) == (2, 3)
    with pytest.raises(DimensionMismatch):
        hstack([Matrix.zeros(QQ, 2, 1), Matrix.zeros(QQ, 3, 1)])


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def matrices(draw, max_dim=4):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return M(rows)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_of_transpose(m):
    assert rank(m) == rank(m.transpose())


F7 = field_by_name("fp:7")


@st.composite
def field_matrices(draw):
    """Matrices over QQ or fp:7 with 0 to 4 rows and columns."""
    fld = draw(st.sampled_from([QQ, F7]))
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(small_entries, min_size=r * c, max_size=r * c))
    return Matrix(fld, r, c, [fld(x) for x in entries])


@given(field_matrices())
@example(Matrix(QQ, 0, 3, []))
@example(Matrix(QQ, 3, 0, []))
@example(Matrix(F7, 0, 2, []))
@example(Matrix(F7, 2, 0, []))
@example(Matrix(QQ, 2, 3, [1, Fraction(1, 2), 0, -3, 4, 5]))
@settings(max_examples=80, deadline=None)
def test_transpose_matches_the_per_entry_definition(m):
    expected = Matrix.zeros(m.field, m.cols, m.rows)
    for i in range(m.rows):
        for j in range(m.cols):
            expected.data[j * m.rows + i] = m.data[i * m.cols + j]
    t = m.transpose()
    assert t == expected and t.field is m.field
    assert t.data is not m.data and t.transpose() == m


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert m.cols == rank(m) + kernel_basis(m)[0].cols


@given(matrices(), st.lists(small_entries, min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip(m, xs):
    x = [Fraction(v) for v in xs[: m.cols]] + [Fraction(0)] * max(0, m.cols - 4)
    b = m.apply(x)
    x2 = solve(m, b)
    assert x2 is not None
    assert m.apply(x2) == b


@given(matrices(max_dim=3), matrices(max_dim=3))
@settings(max_examples=40, deadline=None)
def test_direct_sum_rank_additive(a, b):
    assert rank(direct_sum([a, b])) == rank(a) + rank(b)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_agrees_with_dense(m):
    eqs = []
    for i in range(m.rows):
        eq = {j: m[i, j] for j in range(m.cols) if m[i, j] != 0}
        eqs.append(eq)
    sk = sparse_kernel(eqs, m.cols, QQ)
    assert len(sk) == kernel_basis(m)[0].cols
    for vec in sk:
        dense = [vec.get(j, Fraction(0)) for j in range(m.cols)]
        assert all(x == 0 for x in m.apply(dense))
    # basis vectors are independent
    if sk:
        cols = Matrix.zeros(QQ, m.cols, len(sk))
        for jdx, vec in enumerate(sk):
            for i, v in vec.items():
                cols.data[i * len(sk) + jdx] = v
        assert rank(cols) == len(sk)


def test_column_space_basis():
    m = M([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    b = column_space_basis(m)
    assert b.cols == rank(m) == 2


def test_prime_field_arithmetic():
    f5 = field_by_name("fp:5")
    a = f5(7)
    assert a == f5(2)
    assert a + f5(3) == f5(0)
    assert a / f5(3) == f5(4)  # 2 * 3^{-1} = 2 * 2 = 4
    with pytest.raises(ZeroDivisionError):
        a / f5(0)
    m = matrix_from_rows(f5, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(9)


def test_prime_field_rejects_composite_with_large_factors():
    # 1022117 = 1009 * 1013: both factors lie above 1000
    with pytest.raises(ValueError):
        field_by_name("fp:1022117")
    f = field_by_name("fp:1000003")
    assert f.one / f(1009) * f(1009) == f.one


@given(matrices(), st.integers(0, 3), st.lists(small_entries, min_size=16, max_size=16),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_solve_matrix_matches_per_column_oracle(m, k, entries, in_image):
    # right-hand sides in the image (m times a random X) or arbitrary, so
    # both answers, a solution and None, are compared
    rhs = Matrix(QQ, m.cols if in_image else m.rows, k,
                 [QQ(c) for c in entries[:(m.cols if in_image else m.rows) * k]])
    b = m @ rhs if in_image else rhs
    x = solve_matrix(m, b)
    assert x == per_column_solve_matrix(m, b)
    if in_image:
        assert x is not None and m @ x == b


def test_kernel_basis_is_identity_at_free_rows():
    m = M([[1, 2, 0, 1], [0, 0, 1, 3]])
    k, free = kernel_basis(m)
    assert free == [1, 3]
    assert Matrix(QQ, 2, 2, [k[i, j] for i in free for j in range(2)]) == Matrix.identity(QQ, 2)
    assert (m @ k).is_zero()


def test_is_prime_agrees_with_a_sieve():
    n = 10 ** 4
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, 101):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n", [561, 41041, 3215031751, 1022117])
def test_prime_field_rejects_pseudoprimes(n):
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and 1009 * 1013
    assert not is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        field_by_name(f"fp:{n}")


def test_prime_field_large_modulus_is_fast():
    best = min(_timed(lambda: field_by_name("fp:99999999999973")) for _ in range(3))
    assert best < 0.010
    assert field_by_name("fp:99999999999973").p == 99999999999973


def test_prime_field_refuses_moduli_past_the_exact_range():
    # the limit is the smallest composite every base passes
    assert MILLER_RABIN_LIMIT == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match=str(MILLER_RABIN_LIMIT)):
        field_by_name(f"fp:{MILLER_RABIN_LIMIT}")


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# -- elements of QQ: ints where integral, one exact division per field ----------


def _exact(x):
    return type(x) is int or type(x) is Fraction


def test_rationals_are_ints_where_integral():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.zero) is type(QQ.one) is int
    assert type(QQ(3)) is int and type(QQ(Fraction(4, 2))) is int and QQ(Fraction(4, 2)) == 2
    assert type(QQ("6/3")) is int and QQ("6/3") == 2
    assert QQ(Fraction(1, 2)) == Fraction(1, 2) and QQ("-1/2") == Fraction(-1, 2)
    assert type(QQ(True)) is int


def test_rationals_refuse_floats():
    with pytest.raises(TypeError):
        QQ(0.5)
    with pytest.raises(TypeError):
        QQ(2.0)


def test_field_division_is_exact():
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert QQ.div(-6, 3) == -2 and type(QQ.div(-6, 3)) is int
    assert QQ.div(7, -2) == Fraction(-7, 2)
    assert QQ.div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(QQ.div(Fraction(1, 2), Fraction(1, 4))) is int
    assert QQ.div(3, Fraction(2, 3)) == Fraction(9, 2)
    assert QQ.div(Fraction(3, 2), 3) == Fraction(1, 2)
    for a, b in ((1, 0), (Fraction(1, 2), 0), (0, 0)):
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, b)
    F7 = PrimeField(7)
    assert F7.div(F7(3), F7(5)) * F7(5) == F7(3)
    assert F7.div(3, 5) == F7.div(F7(3), F7(5)) and type(F7.div(3, 5)) is FpElement
    assert F7(Fraction(1, 2)) * F7(2) == F7.one
    with pytest.raises(ZeroDivisionError):
        F7.div(F7.one, F7.zero)


def test_only_the_fields_divide():
    # `a / b` on two ints is a float: outside FpElement and the fields'
    # `div`, no code under src/ may divide
    src = Path(__file__).resolve().parent.parent / "src"
    found = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((path.name, scope, node.lineno))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = scope + (node.name,)
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(tree, ())
    assert found, "the fields' divisions were not seen"
    for name, scope, line in found:
        assert name == "linalg.py" and (
            scope[:1] == ("FpElement",)
            or scope in (("RationalField", "div"), ("PrimeField", "div"))), (name, scope, line)


@st.composite
def non_unit_pivot_rows(draw, max_dim=4):
    """A small matrix whose rows are scaled by 2..5, so pivots are rarely
    units, with a fractional entry now and then."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entry = st.one_of(small_entries, small_entries,
                      st.builds(Fraction, small_entries, st.integers(1, 3)))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    scales = draw(st.lists(st.integers(2, 5), min_size=r, max_size=r))
    return [[s * x for x in row] for s, row in zip(scales, rows)]


def _both_fields(rows):
    FF = FractionField()
    return matrix_from_rows(QQ, rows), matrix_from_rows(FF, rows)


def _assert_exact(values):
    bad = [x for x in values if not _exact(x)]
    assert not bad, bad


@given(non_unit_pivot_rows(), st.data())
@settings(max_examples=150, deadline=None)
def test_qq_elimination_matches_the_fraction_field(rows, data):
    m, f = _both_fields(rows)
    _assert_exact(m.data)
    rk, red, piv = rref(m)
    frk, fred, fpiv = rref(f)
    assert (rk, piv, red.data) == (frk, fpiv, fred.data)
    _assert_exact(red.data)
    assert rk == hand_row_reduce(rows)[0]

    kb, free = kernel_basis(m)
    fkb, ffree = kernel_basis(f)
    assert free == ffree and kb.data == fkb.data
    _assert_exact(kb.data)

    b_cols = data.draw(st.integers(1, 3))
    b_rows = data.draw(st.lists(
        st.lists(small_entries, min_size=b_cols, max_size=b_cols),
        min_size=m.rows, max_size=m.rows))
    # half of the right-hand sides are in the image by construction
    if data.draw(st.booleans()):
        x = matrix_from_rows(QQ, data.draw(st.lists(
            st.lists(small_entries, min_size=b_cols, max_size=b_cols),
            min_size=m.cols, max_size=m.cols)))
        b_rows = [(m @ x).row(i) for i in range(m.rows)]
    b, fb = _both_fields(b_rows)
    got, want = solve_matrix(m, b), solve_matrix(f, fb)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.data == want.data
        _assert_exact(got.data)
        assert m @ got == b

    eqs = [{j: x for j, x in enumerate(row) if x} for row in rows]
    feqs = [{j: f.field(x) for j, x in eq.items()} for eq in eqs]
    basis = sparse_kernel([{j: QQ(x) for j, x in eq.items()} for eq in eqs], m.cols, QQ)
    assert basis == sparse_kernel(feqs, m.cols, FractionField())
    for vec in basis:
        _assert_exact(vec.values())
        dense = [vec.get(j, 0) for j in range(m.cols)]
        assert not any(m.apply(dense))
    assert len(basis) == m.cols - rk


def _naive_hstack(parts):
    rows = parts[0].rows
    data = [x for i in range(rows) for p in parts for x in p.row(i)]
    return Matrix(parts[0].field, rows, sum(p.cols for p in parts), data)


@given(st.integers(0, 3), st.lists(st.integers(0, 3), min_size=1, max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_hstack_matches_the_row_by_row_oracle(rows, widths, data):
    parts = [
        Matrix(QQ, rows, c, data.draw(st.lists(small_entries, min_size=rows * c,
                                               max_size=rows * c)))
        for c in widths
    ]
    assert hstack(parts) == _naive_hstack(parts)


def test_hstack_keeps_zero_column_parts_and_checks_rows():
    a = M([[1, 2], [3, 4]])
    empty = Matrix.zeros(QQ, 2, 0)
    assert hstack([empty, a, empty, a]) == M([[1, 2, 1, 2], [3, 4, 3, 4]])
    assert hstack([empty, empty]) == Matrix.zeros(QQ, 2, 0)
    with pytest.raises(DimensionMismatch):
        hstack([a, Matrix.zeros(QQ, 3, 0)])
    with pytest.raises(DimensionMismatch):
        hstack([Matrix.zeros(QQ, 1, 0), a])


ONE_ROW_FIELDS = {"q": QQ, "fp:7": PrimeField(7)}


@given(st.sampled_from(sorted(ONE_ROW_FIELDS)), st.integers(0, 3),
       st.lists(st.integers(-9, 9), max_size=5))
@example("q", 2, [3, 0, -6, 1])   # leading zeros, a non-unit pivot
@example("fp:7", 1, [5, 2, 0, 4])
@example("q", 0, [-2, 4, 3])      # a non-integral quotient
@example("fp:7", 3, [])           # an all-zero row
@example("q", 0, [2])             # 1 x 1
@example("fp:7", 0, [0])          # 1 x 1 zero
@settings(max_examples=200, deadline=None)
def test_one_row_kernel_basis_matches_the_rref_oracle(name, zeros, tail):
    fld = ONE_ROW_FIELDS[name]
    m = matrix_from_rows(fld, [[0] * zeros + tail or [0]])
    kb, free = kernel_basis(m)
    assert (kb, free) == rref_kernel_basis(m)
    assert kb.rows == m.cols and (m @ kb).is_zero()
    assert rank(m) == rref(m)[0] == m.cols - kb.cols
    assert rank(Matrix.zeros(fld, 0, m.cols)) == 0
