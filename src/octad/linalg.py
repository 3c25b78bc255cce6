"""Exact dense linear algebra over the scalar rings.

Vectors are lists of payloads and matrices are lists of payload rows.
Sizes in this library never exceed 27, so the algorithms optimize for
exactness, not asymptotics.  Determinants use fraction-free Bareiss over
ZZ, ordinary elimination over fields and the division-free Berkowitz
algorithm over every other commutative ring (Berkowitz, IPL 18, 1984).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import ZZ, RingMismatch


# -- vectors -----------------------------------------------------------------------


def basis(R, n, i):
    v = [R.zero] * n
    v[i] = R.one
    return v


def add_vec(R, x, y):
    return [R.add(a, b) for a, b in zip(x, y)]


def sub_vec(R, x, y):
    return [R.sub(a, b) for a, b in zip(x, y)]


def scale_vec(R, c, x):
    return [R.mul(c, a) for a in x]


def vec_eq(R, x, y):
    return all(R.eq(a, b) for a, b in zip(x, y))


def vec_is_zero(R, x):
    return all(R.is_zero(a) for a in x)


def unit_sign(R, c):
    """1 if the payload c is one in R, -1 if it is minus one, else 0.

    Stored with a constant, it lets add_term add or subtract a product
    instead of multiplying it by the lifted constant."""
    if R.eq(c, R.one):
        return 1
    if R.eq(c, R.neg(R.one)):
        return -1
    return 0


def signed_sparse(R, vec):
    """[(index, payload, unit_sign), ...] over the nonzero entries of vec."""
    return [(k, c, unit_sign(R, c)) for k, c in enumerate(vec) if not R.is_zero(c)]


def add_term(L, acc, x, c, sign):
    """acc + c*x over the ring-like L, for a base-ring constant c with
    sign = unit_sign(base ring, c)."""
    if sign == 1:
        return L.add(acc, x)
    if sign == -1:
        return L.sub(acc, x)
    return L.add(acc, L.mul(x, L.from_base(c)))


class ModuleElement:
    """An element of an algebra that is free over its ring, stored as the
    payload coordinates in the algebra's basis.

    Addition, negation, scalar multiplication, equality and hashing are
    coordinatewise; subclasses add the algebra's own operations.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = list(coords)

    def _new(self, coords):
        return type(self)(self.algebra, coords)

    def __add__(self, other):
        self._same(other)
        return self._new(add_vec(self.algebra.ring, self.coords, other.coords))

    def __sub__(self, other):
        self._same(other)
        return self._new(sub_vec(self.algebra.ring, self.coords, other.coords))

    def __neg__(self):
        R = self.algebra.ring
        return self._new([R.neg(c) for c in self.coords])

    def __rmul__(self, other):
        R = self.algebra.ring
        return self._new(scale_vec(R, R.coerce(other), self.coords))

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, ModuleElement) or other.algebra is not self.algebra:
            return False
        return vec_eq(self.algebra.ring, self.coords, other.coords)

    def __hash__(self):
        return hash((id(self.algebra), tuple(repr(c) for c in self.coords)))

    def is_zero(self):
        return vec_is_zero(self.algebra.ring, self.coords)

    def _same(self, other):
        if other.algebra is not self.algebra:
            raise RingMismatch("element belongs to a different algebra")

    def __repr__(self):
        R = self.algebra.ring
        return "(" + ", ".join(R.render(c) for c in self.coords) + ")"


# -- matrices ----------------------------------------------------------------------


def identity(R, n):
    return [[R.one if i == j else R.zero for j in range(n)] for i in range(n)]


def mat_mul(R, A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        [R.sum(R.mul(A[i][k], B[k][j]) for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def mat_vec(R, A, x):
    return [R.dot(row, x) for row in A]


def det(R, A):
    n = len(A)
    if n == 0:
        return R.one
    if R == ZZ:
        return _det_bareiss(A)
    if R.is_field:
        return _det_field(R, A)
    return _det_berkowitz(R, A)


def _det_bareiss(A):
    n = len(A)
    m = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_field(R, A):
    n = len(A)
    m = [row[:] for row in A]
    d = R.one
    for c in range(n):
        piv = None
        for r in range(c, n):
            if not R.is_zero(m[r][c]):
                piv = r
                break
        if piv is None:
            return R.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = R.neg(d)
        d = R.mul(d, m[c][c])
        inv = R.inv(m[c][c])
        for r in range(c + 1, n):
            if R.is_zero(m[r][c]):
                continue
            f = R.mul(m[r][c], inv)
            for k in range(c, n):
                m[r][k] = R.sub(m[r][k], R.mul(f, m[c][k]))
    return d


def _det_berkowitz(R, A):
    """det A from the characteristic polynomials of the leading principal
    submatrices, each obtained from the previous one by a Toeplitz
    product; no division, O(n^4) ring operations."""
    n = len(A)
    poly = [R.one, R.neg(A[0][0])]  # det(t I - A_1), highest degree first
    for r in range(1, n):
        # Toeplitz column 1, -a_rr, -R_r S_r, -R_r M S_r, ..., -R_r M^(r-1) S_r,
        # with M = A_r, S_r its next column and R_r its next row
        col = [R.one, R.neg(A[r][r])]
        v = [A[i][r] for i in range(r)]
        for k in range(r):
            if k:
                v = [R.dot(A[i], v) for i in range(r)]
            col.append(R.neg(R.dot(A[r], v)))
        poly = [
            R.sum(R.mul(col[i - j], poly[j]) for j in range(min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly[n] if n % 2 == 0 else R.neg(poly[n])


def _det_cofactor(R, A):
    """Laplace expansion along the first row: factorial cost, kept as an
    independent check of det."""
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return R.sub(R.mul(A[0][0], A[1][1]), R.mul(A[0][1], A[1][0]))
    acc = R.zero
    rest = A[1:]
    for j in range(n):
        if R.is_zero(A[0][j]):
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        term = R.mul(A[0][j], _det_cofactor(R, minor))
        acc = R.add(acc, term) if j % 2 == 0 else R.sub(acc, term)
    return acc


def solve_rational(A, b):
    """Solve A x = b over QQ; returns x or None if inconsistent/singular.

    A is n x n with Fraction entries, b length n.
    """
    n = len(A)
    m = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    col = 0
    for c in range(n):
        piv = None
        for r in range(col, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][c]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        col += 1
    return [m[i][n] for i in range(n)]


def inverse_rational(A):
    n = len(A)
    m = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]
