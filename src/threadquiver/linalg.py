"""Dense exact linear algebra over the rationals or a prime field.

Everything here is pure value code: matrices are immutable in practice
(no operation mutates its arguments), entries are exact field elements,
and all ranks/kernels are computed by exact Gaussian elimination.
A sparse homogeneous solver is provided for the large, very sparse
naturality systems that arise when computing hom spaces of representations.

An element of `QQ` is a Python `int` when it is integral and a
`fractions.Fraction` otherwise: `QQ(x)` and `QQ.div` return an `int` for an
integral value, and `QQ(x)` refuses a `float`.  Most entries the checks meet
are 0 or ±1, so most arithmetic stays on ints.  Sums and products involving a
`Fraction` may leave an integral `Fraction`; it equals, hashes and prints as
the `int`, so the two forms never need to be told apart.  An element of a
`PrimeField` is an `FpElement`.

Each field has one exact division, `field.div(a, b)`, and it is the only
way code outside this module divides field elements: `a / b` on two ints
would silently give a float.

The dense kernels (`is_zero`, products, `apply`, `rref`) test an entry for
zero by its truth value: every representation defines `bool` as "nonzero"
(`int.__bool__`, `Fraction.__bool__`, `FpElement.__bool__`), at a fraction
of the cost of comparing with the field's zero.

A matrix of one row is not eliminated: `rank` reads it off its entries and
`kernel_basis` writes its kernel in closed form around the first nonzero
entry, entry for entry what `rref` would give.  The covers of the checks
are made almost entirely of such rows.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch


class FpElement:
    """Residue mod a prime, with field arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            assert other.p == self.p
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v + o, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v - o, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(o - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else FpElement(self.v * o, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(self.v * pow(o, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(o * pow(self.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}#mod{self.p}"

    def __bool__(self):
        return self.v != 0


class RationalField:
    """Exact rationals; the default scalar field.  Integral elements are
    `int`s, the others `Fraction`s (see the module docstring)."""

    name = "q"
    zero = 0
    one = 1

    def __call__(self, x):
        if type(x) is int:
            return x
        if isinstance(x, float):
            raise TypeError(f"QQ refuses the float {x!r}: pass an int, a Fraction or a string")
        q = Fraction(x)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def div(a, b):
        """The exact quotient a / b: an `int` when it is integral."""
        if type(a) is int and type(b) is int:
            if a % b:
                return Fraction(a, b)
            return a // b
        q = Fraction(a) / b
        return q.numerator if q.denominator == 1 else q

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


# The first 13 primes, and the smallest odd composite that passes the strong
# probable-prime test to every one of them (Sorenson and Webster, 2015):
# below it, Miller-Rabin with these bases decides primality exactly.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below
    MILLER_RABIN_LIMIT (about 3.3e24); larger n raise ValueError."""
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(
            f"{n} is too large: primality is decided only below {MILLER_RABIN_LIMIT}")
    if n < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Integers mod p, p prime (checked by `is_prime`)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def __call__(self, x) -> FpElement:
        if isinstance(x, FpElement):
            assert x.p == self.p
            return x
        if isinstance(x, Fraction):
            return self.div(FpElement(x.numerator, self.p), FpElement(x.denominator, self.p))
        return FpElement(int(x), self.p)

    def div(self, a, b) -> FpElement:
        """The exact quotient a / b, as an `FpElement` even for two ints."""
        return self(a) / self(b)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def field_by_name(name: str):
    if name == "q":
        return QQ
    if name.startswith("fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r}")


class Matrix:
    """Dense matrix with row-major entries over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows: int, cols: int, data: list):
        assert rows >= 0 and cols >= 0
        assert len(data) == rows * cols, (rows, cols, len(data))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i * n + i] = one
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.cols + j]

    def __setitem__(self, ij, val):
        i, j = ij
        self.data[i * self.cols + j] = val

    def row(self, i: int) -> list:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def copy(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, list(self.data))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.data)))

    def is_zero(self) -> bool:
        return not any(self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            self.field, self.rows, self.cols,
            [a + b for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        return Matrix(
            self.field, self.rows, self.cols,
            [a - b for a, b in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "Matrix":
        c = self.field(c)
        return Matrix(self.field, self.rows, self.cols, [c * a for a in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"matmul shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = Matrix.zeros(self.field, self.rows, other.cols)
        oc = other.cols
        for i in range(self.rows):
            base = i * self.cols
            orow = i * oc
            for k in range(self.cols):
                a = self.data[base + k]
                if not a:
                    continue
                ob = k * oc
                od = out.data
                for j in range(oc):
                    b = other.data[ob + j]
                    if b:
                        od[orow + j] = od[orow + j] + a * b
        return out

    def apply(self, vec: list) -> list:
        """Matrix times column vector (as a plain list)."""
        assert len(vec) == self.cols
        zero = self.field.zero
        data = self.data
        nonzero = [(j, v) for j, v in enumerate(vec) if v]
        out = [zero] * self.rows
        for i in range(self.rows):
            base = i * self.cols
            acc = zero
            for j, v in nonzero:
                a = data[base + j]
                if a:
                    acc = acc + a * v
            out[i] = acc
        return out

    def transpose(self) -> "Matrix":
        c = self.cols  # row j of the transpose is the slice data[j::c]
        return Matrix(self.field, c, self.rows, [e for j in range(c) for e in self.data[j::c]])

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self.data[i * self.cols + j]) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def hstack(parts: list[Matrix]) -> Matrix:
    assert parts
    rows = parts[0].rows
    if any(p.rows != rows for p in parts):
        raise DimensionMismatch("hstack row mismatch")
    spans = [(p.data, p.cols) for p in parts if p.cols]
    data = []
    for i in range(rows):
        for d, c in spans:
            data += d[i * c:(i + 1) * c]
    return Matrix(parts[0].field, rows, sum(c for _, c in spans), data)


def rref(m: Matrix) -> tuple[int, Matrix, list[int]]:
    """Row-reduced echelon form.  Returns (rank, reduced matrix, pivot columns)."""
    r = m.copy()
    one, div = m.field.one, m.field.div
    pivots = []
    pr = 0
    for pc in range(r.cols):
        if pr >= r.rows:
            break
        # find a pivot in column pc at or below row pr
        hit = -1
        for i in range(pr, r.rows):
            if r.data[i * r.cols + pc]:
                hit = i
                break
        if hit < 0:
            continue
        if hit != pr:
            a = hit * r.cols
            b = pr * r.cols
            r.data[a : a + r.cols], r.data[b : b + r.cols] = (
                r.data[b : b + r.cols],
                r.data[a : a + r.cols],
            )
        pv = r.data[pr * r.cols + pc]
        base = pr * r.cols
        if pv != one:
            inv = div(one, pv)
            for j in range(pc, r.cols):
                r.data[base + j] = r.data[base + j] * inv
        for i in range(r.rows):
            if i == pr:
                continue
            f = r.data[i * r.cols + pc]
            if not f:
                continue
            ib = i * r.cols
            for j in range(pc, r.cols):
                v = r.data[base + j]
                if v:
                    r.data[ib + j] = r.data[ib + j] - f * v
        pivots.append(pc)
        pr += 1
    return len(pivots), r, pivots


def rank(m: Matrix) -> int:
    """The rank; a matrix of at most one row is read off its entries."""
    if m.rows <= 1:
        return 1 if any(m.data) else 0
    return rref(m)[0]


def kernel_basis(m: Matrix) -> tuple[Matrix, list[int]]:
    """Columns form a basis of the right null space of m; returned with the
    free columns of m's echelon form.  At the rows of the free columns the
    basis is an identity, so a vector of the null space has its coordinates
    at those rows.

    One row a is not eliminated: around its first nonzero entry a_p the
    basis is e_f - (a_f / a_p) e_p for every column f != p, entry for entry
    what `rref` gives, and an all-zero row has every column free.  Two or
    more rows go through `rref`."""
    if m.rows == 1:
        return _row_kernel_basis(m)
    _, red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    out = Matrix.zeros(m.field, m.cols, len(free))
    one = m.field.one
    for idx, fc in enumerate(free):
        out.data[fc * len(free) + idx] = one
        # pivot rows: x_pivot = -sum(red[row, free] * x_free)
        for row, pc in enumerate(pivots):
            out.data[pc * len(free) + idx] = -red.data[row * red.cols + fc]
    return out, free


def _row_kernel_basis(m: Matrix) -> tuple[Matrix, list[int]]:
    """`kernel_basis` of a one-row matrix, in closed form."""
    fld, n, row = m.field, m.cols, m.data
    p = next((j for j, a in enumerate(row) if a), None)
    if p is None:
        return Matrix.identity(fld, n), list(range(n))
    k = n - 1
    data = [fld.zero] * (n * k)
    one = fld.one
    for idx in range(p):
        data[idx * k + idx] = one
    for f in range(p + 1, n):
        data[f * k + f - 1] = one
    # row p: -a_f / a_p at free column f; the columns before p are zero there
    ap = row[p]
    if ap == one:
        data[p * k + p:(p + 1) * k] = [-a for a in row[p + 1:]]
    else:
        div = fld.div
        data[p * k + p:(p + 1) * k] = [-div(a, ap) if a else a for a in row[p + 1:]]
    return Matrix(fld, n, k, data), [*range(p), *range(p + 1, n)]


def column_space_basis(m: Matrix) -> Matrix:
    """Columns of m forming a basis of the column space (original columns at pivot positions)."""
    rk, _, pivots = rref(m)
    out = Matrix.zeros(m.field, m.rows, rk)
    for idx, pc in enumerate(pivots):
        for i in range(m.rows):
            out.data[i * rk + idx] = m.data[i * m.cols + pc]
    return out


def solve_matrix(m: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution X of m X = b, or None when some column of b is not
    in the image: [m | b] is reduced once for all columns, and the free
    variables are zero."""
    if b.rows != m.rows:
        raise DimensionMismatch("solve_matrix shape mismatch")
    _, red, pivots = rref(hstack([m, b]))
    if pivots and pivots[-1] >= m.cols:
        return None
    out = Matrix.zeros(m.field, m.cols, b.cols)
    for row, pc in enumerate(pivots):
        base = row * red.cols + m.cols
        out.data[pc * b.cols:(pc + 1) * b.cols] = red.data[base:base + b.cols]
    return out


def coords_in_basis(basis: Matrix, vecs: Matrix) -> Matrix:
    """Express columns of vecs in the given column basis (must succeed)."""
    out = solve_matrix(basis, vecs)
    assert out is not None, "vectors not in span of basis"
    return out


def sparse_kernel(eqs: list[dict[int, object]], nvars: int, field) -> list[dict[int, object]]:
    """Kernel basis of a sparse homogeneous system.

    Each equation is {var index: coefficient}.  Chooses short pivots first to
    limit fill-in; the naturality systems this serves are near-chain shaped,
    so elimination stays close to linear.
    """
    zero, one = field.zero, field.one
    # normalize: drop zero coefficients
    work = []
    for eq in eqs:
        eq = {k: v for k, v in eq.items() if v != zero}
        if eq:
            work.append(eq)
    var_to_eqs: dict[int, set[int]] = {}
    for i, eq in enumerate(work):
        for v in eq:
            var_to_eqs.setdefault(v, set()).add(i)
    alive = set(range(len(work)))
    pivots: list[tuple[int, dict[int, object]]] = []  # (pivot var, row) in elimination order
    pivoted_vars: set[int] = set()
    while alive:
        # shortest live equation
        ei = min(alive, key=lambda i: (len(work[i]), i))
        eq = work[ei]
        alive.discard(ei)
        if not eq:
            continue
        # pivot on the variable appearing in the fewest other equations
        pv = min(eq, key=lambda v: (len(var_to_eqs.get(v, ())), v))
        inv = field.div(one, eq[pv])
        row = {v: c * inv for v, c in eq.items()}
        pivots.append((pv, row))
        pivoted_vars.add(pv)
        for oi in list(var_to_eqs.get(pv, ())):
            if oi == ei or oi not in alive:
                continue
            oeq = work[oi]
            f = oeq.get(pv)
            if f is None or f == zero:
                continue
            for v, c in row.items():
                nc = oeq.get(v, zero) - f * c
                if nc == zero:
                    if v in oeq:
                        del oeq[v]
                        var_to_eqs[v].discard(oi)
                else:
                    if v not in oeq:
                        var_to_eqs.setdefault(v, set()).add(oi)
                    oeq[v] = nc
            if pv in oeq:
                del oeq[pv]
                var_to_eqs[pv].discard(oi)
    free = [v for v in range(nvars) if v not in pivoted_vars]
    basis = []
    for fv in free:
        vec = {fv: one}
        # pivots were eliminated against all later rows, so back-substitute in reverse
        for pv, row in reversed(pivots):
            acc = zero
            for v, c in row.items():
                if v == pv:
                    continue
                x = vec.get(v)
                if x is not None:
                    acc = acc + c * x
            if acc != zero:
                vec[pv] = -acc
        basis.append(vec)
    return basis
