import time
from fractions import Fraction

import pytest
from conftest import per_column_solve_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from threadquiver.linalg import (
    QQ,
    MILLER_RABIN_LIMIT,
    DimensionMismatch,
    Matrix,
    PrimeField,
    column_space_basis,
    direct_sum,
    field_by_name,
    hstack,
    is_prime,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
    sparse_kernel,
    vstack,
)


def M(rows):
    return Matrix.from_rows(QQ, rows)


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
    v = k.col(0)
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
    v = vstack([Matrix.identity(QQ, 2), Matrix.zeros(QQ, 1, 2)])
    assert (v.rows, v.cols) == (3, 2)
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
    m = Matrix.from_rows(f5, [[1, 2], [2, 4]])
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
