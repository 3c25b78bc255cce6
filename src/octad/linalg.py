"""Exact linear algebra over the scalar rings, and the one kernel that
evaluates stored structure constants.

Vectors are lists of payloads and matrices are lists of payload rows.
Sizes in this library never exceed 27, so the algorithms optimize for
exactness, not asymptotics.  Over a field one forward elimination gives
det, the inverse and solve over QQ, LDL^T and positive definiteness.
Over ZZ det is fraction-free Bareiss, which beats eliminating over QQ
14 to 20 times at sizes 3 to 27, and over other rings division-free
Berkowitz (IPL 18, 1984); _det_cofactor is det's independent check.

Every polynomial map the library stores by its coefficients (conic
products, traces and conjugations, quadratic forms, linear maps, cubic
adjoints, norms and traces) is a TermMap: its nonzero terms, evaluated
over the base ring or any ring-like extension by the loops of that one
class.  Over a ring of native numbers (one with a modulus: ZZ, QQ, Z/n,
GF(p)) the loops add c*p into plain numbers, p the product of a key's
factors formed once for all of its terms, and put each coordinate in
canonical form once at the end; over any other ring-like each term
costs one fused addmul (acc + c*a*b).  Polarization has no loop of its
own: for a degree-2 map with bilinear part B, f(x + y) - f(x) - f(y) =
B(x, y) + B(y, x), two bilinear passes, and all of D f(x; e_m) is the
value of f's gradient, a TermMap read from f's terms once.

Conic algebras and cubic norm structures share their element API in
NormedModule, and ModuleElement is the one element class of both.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import NOT_A_UNIT, QQ, ZZ, RingMismatch


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

    Stored with a constant, it lets addmul add or subtract a product
    instead of multiplying it by the lifted constant."""
    if R.eq(c, R.one):
        return 1
    if R.eq(c, R.neg(R.one)):
        return -1
    return 0


class TermMap:
    """A polynomial map of one degree d, stored as its nonzero terms.

    terms {(i_1, ..., i_d, k): c} with i_1 <= ... <= i_d give the map
    x -> sum c x_{i_1} ... x_{i_d} e_k into out_dim coordinates; the keys
    of a scalar form (out_dim None) have no k.  Each constant is coerced
    into ring once and kept with its unit_sign, and self.terms is the one
    stored copy, in key order.  Every evaluation runs over the ring or
    any ring-like L and skips a term with a zero factor.  When L has a
    modulus n (see extensions.RingLike), a term adds c*p, or +-p for a
    unit sign, into a plain number, and _canonical(n, ...) reduces each
    coordinate once.  Otherwise each term costs one L.addmul into a
    coordinate that starts at L.zero, so by the protocol's ownership rule
    (see extensions) the coordinates are the kernel's own to add into in
    place.  Either way an acc given by the caller is added once per
    coordinate at the end and never mutated.  A degree-2 map
    with unsorted keys (a, b, k) is the bilinear map (x, y) -> sum c x_a
    y_b e_k: as conic.build_conic reads a product, (a, b, k) is the
    degree-2 term (a, dim + b, k) of the pair (x, y).  With sorted keys,
    bilinear is the map's bilinear part B, polar(x, y) is the two passes
    B(x, y) + B(y, x), and gradient(dim) is x -> [D f(x; e_m)]_m.
    """

    def __init__(self, ring, terms, degree, out_dim=None):
        self.ring = ring
        self.degree = degree
        self._scalar = out_dim is None
        self._size = out_dim or 1
        self.terms = {}
        # a trie over the key's factors: _index lists (i, children) by first
        # factor, and so on down to the last factor, whose children are the
        # (k, c, sign) of its nonzero terms; sorted keys share prefixes in a row
        self._index = []
        coerce, is_zero = ring.coerce, ring.is_zero
        for key, c in sorted(terms.items()):
            c = coerce(c)
            if is_zero(c):
                continue
            self.terms[key] = c
            node = self._index
            for i in key[:degree]:
                if not node or node[-1][0] != i:
                    node.append((i, []))
                node = node[-1][1]
            node.append((0 if self._scalar else key[degree], c, unit_sign(ring, c)))

    def _result(self, R, out, acc):
        """out, plus the caller's acc when one is given, in the map's shape."""
        if self._scalar:
            return out[0] if acc is None else R.add(acc, out[0])
        return out if acc is None else [R.add(a, v) for a, v in zip(acc, out)]

    def value(self, x, L=None, acc=None):
        """f(x) at degree 1, 2 or 3."""
        if self.degree == 2:
            return self.bilinear(x, x, L, acc)
        R = L if L is not None else self.ring
        n = R.modulus
        if n is not None:
            out = [0] * self._size
            if self.degree == 1:
                for i, leaves in self._index:
                    p = x[i]
                    if p:
                        for k, c, sign in leaves:
                            out[k] += p if sign == 1 else -p if sign else c * p
                return self._result(R, _canonical(n, out), acc)
            z = [not c for c in x]
            for i, rows in self._index:
                if z[i]:
                    continue
                xi = x[i]
                for j, row in rows:
                    if z[j]:
                        continue
                    xij = xi * x[j]
                    for l, leaves in row:
                        if not z[l]:
                            p = xij * x[l]
                            for k, c, sign in leaves:
                                out[k] += p if sign == 1 else -p if sign else c * p
            return self._result(R, _canonical(n, out), acc)
        addmul, out = R.addmul, [R.zero] * self._size
        if self.degree == 1:
            one = R.one
            for i, leaves in self._index:
                xi = x[i]
                if not R.is_zero(xi):
                    for k, c, sign in leaves:
                        out[k] = addmul(out[k], xi, one, c, sign)
            return self._result(R, out, acc)
        z = [R.is_zero(c) for c in x]
        for i, rows in self._index:
            if z[i]:
                continue
            for j, row in rows:
                if z[j]:
                    continue
                xij = R.mul(x[i], x[j])
                for l, leaves in row:
                    if not z[l]:
                        xl = x[l]
                        for k, c, sign in leaves:
                            out[k] = addmul(out[k], xij, xl, c, sign)
        return self._result(R, out, acc)

    def bilinear(self, x, y, L=None, acc=None):
        """sum c x_a y_b (e_k) over the degree-2 terms (a, b[, k])."""
        R = L if L is not None else self.ring
        n = R.modulus
        if n is not None:
            out = [0] * self._size
            zy = [not c for c in y]
            for i, row in self._index:
                xi = x[i]
                if xi:
                    for j, leaves in row:
                        if not zy[j]:
                            p = xi * y[j]
                            for k, c, sign in leaves:
                                out[k] += p if sign == 1 else -p if sign else c * p
            return self._result(R, _canonical(n, out), acc)
        addmul, out = R.addmul, [R.zero] * self._size
        zy = [R.is_zero(c) for c in y]
        zx = zy if x is y else [R.is_zero(c) for c in x]
        for i, row in self._index:
            if zx[i]:
                continue
            xi = x[i]
            for j, leaves in row:
                if not zy[j]:
                    yj = y[j]
                    for k, c, sign in leaves:
                        out[k] = addmul(out[k], xi, yj, c, sign)
        return self._result(R, out, acc)

    def polar(self, x, y, L=None, acc=None):
        """f(x + y) - f(x) - f(y) at degree 2, which is bilinear(x, y) +
        bilinear(y, x): a term (i, j) gives c (x_i y_j + x_j y_i), and
        (i, i) gives 2 c x_i y_i, in every characteristic."""
        return self.bilinear(y, x, L, self.bilinear(x, y, L, acc))

    def gradient(self, dim):
        """x -> [D f(x; e_m)]_m, coordinate k of D f(x; e_m) at m * size + k,
        for this map f of degree d >= 2 on dim coordinates: a map of degree
        d - 1 where each term c x_{i_1} ... x_{i_d} (e_k) adds c once per
        position of m in its key, so (i, i) gives 2 c x_i at m = i and
        (i, j) gives c x_j at m = i and c x_i at m = j."""
        R, d, size = self.ring, self.degree, self._size
        terms = {}
        for key, c in self.terms.items():
            k = 0 if self._scalar else key[d]
            for p in range(d):
                rest = key[:p] + key[p + 1 : d] + (key[p] * size + k,)
                terms[rest] = R.add(terms.get(rest, R.zero), c)
        return TermMap(R, terms, d - 1, dim * size)


def _canonical(n, out):
    """The canonical payloads of the plain numbers out over a ring of
    modulus n: residues in [0, n) when n > 0, else an int for every
    integral value (a Fraction with denominator one is never stored)."""
    if n:
        return [v % n for v in out]
    return [v if v.__class__ is int or v.denominator != 1 else v.numerator for v in out]


class ModuleElement:
    """An element of a NormedModule, stored as its payload coordinates.
    +, -, scalar *, == and hash are coordinatewise; x * y is the algebra's
    mul when y is an element too (TypeError on a cubic structure, which has
    none), and norm() and trace() are the algebra's norm_of and trace."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = list(coords)

    def _new(self, coords):
        return ModuleElement(self.algebra, coords)

    def __add__(self, other):
        return self._new(add_vec(self.algebra.ring, self.coords, self.algebra._coords(other)))

    def __sub__(self, other):
        return self._new(sub_vec(self.algebra.ring, self.coords, self.algebra._coords(other)))

    def __neg__(self):
        R = self.algebra.ring
        return self._new([R.neg(c) for c in self.coords])

    def __rmul__(self, other):
        R = self.algebra.ring
        return self._new(scale_vec(R, R.coerce(other), self.coords))

    def __mul__(self, other):
        if not isinstance(other, ModuleElement):
            return self.__rmul__(other)
        mul = getattr(self.algebra, "mul", None)
        if mul is None:
            raise TypeError(f"{self.algebra.name} has no product")
        return mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement) or other.algebra is not self.algebra:
            return False
        return vec_eq(self.algebra.ring, self.coords, other.coords)

    def __hash__(self):
        return hash((id(self.algebra), tuple(repr(c) for c in self.coords)))

    def is_zero(self):
        return vec_is_zero(self.algebra.ring, self.coords)

    def norm(self):
        return self.algebra.norm_of(self)

    def trace(self):
        return self.algebra.trace(self)

    def __repr__(self):
        R = self.algebra.ring
        return "(" + ", ".join(R.render(c) for c in self.coords) + ")"


class NormedModule:
    """The element layer shared by conic algebras and cubic norm structures.

    Both are free of rank dim over ring, with a norm N (norm_payload), a
    linear trace (the scalar TermMap _trace) and an adjoint (_adjoint_vec:
    the conjugation of a conic, x# of a cubic) with x adj(x) = N(x) 1, so
    x is a unit iff N(x) is, with inverse N(x)^{-1} adj(x).  A method that
    takes an element reads its coordinates through _coords, the one
    membership check: an element of another algebra raises RingMismatch.
    """

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return ModuleElement(self, [self.ring.coerce(c) for c in coords])

    def basis_element(self, i):
        return ModuleElement(self, basis(self.ring, self.dim, i))

    def zero(self):
        return ModuleElement(self, [self.ring.zero] * self.dim)

    def random_element(self, rng):
        return ModuleElement(self, self.ring.rand_vec(rng, self.dim))

    def _coords(self, x):
        """The coordinates of x, which must be an element of this algebra."""
        if getattr(x, "algebra", None) is not self:
            raise RingMismatch("element belongs to a different algebra")
        return x.coords

    def trace_lin(self, x, L=None):
        """T(x) of a payload vector, optionally over ring-like L."""
        return self._trace.value(x, L)

    def trace(self, x):
        return self.ring.scalar(self.trace_lin(self._coords(x)))

    def norm_of(self, x):
        return self.ring.scalar(self.norm_payload(self._coords(x)))

    def try_inverse(self, x):
        """N(x)^{-1} adj(x) when N(x) is a unit, else NOT_A_UNIT."""
        R = self.ring
        x = self._coords(x)
        ninv = R.inv(self.norm_payload(x))
        if ninv is None:
            return NOT_A_UNIT
        return ModuleElement(self, scale_vec(R, ninv, self._adjoint_vec(x)))

    def __repr__(self):
        return f"{self.name}(dim={self.dim}, ring={self.ring})"


class LinearMap:
    """x -> sum_i x_i columns[i] between two free algebras.  It carries the
    domain's ring and dim, so the strict checker decides a law of the map
    (an identities.IdentitySpec evaluated on it) like a law of an algebra."""

    def __init__(self, domain, codomain, columns):
        self.domain = domain
        self.codomain = codomain
        self.ring = domain.ring
        self.dim = domain.dim
        terms = {(i, k): c for i, col in enumerate(columns) for k, c in enumerate(col)}
        self._map = TermMap(self.ring, terms, 1, codomain.dim)

    def apply_vec(self, x, L=None):
        """The image of a payload vector, optionally over ring-like L."""
        return self._map.value(x, L)


# -- matrices ----------------------------------------------------------------------


def mat_mul(R, A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [
        [R.sum(R.mul(A[i][k], B[k][j]) for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def mat_vec(R, A, x):
    return [R.dot(row, x) for row in A]


def cols_vec(R, cols, x):
    """A x for the matrix A given by its list of columns: sum_i x_i cols[i]."""
    out = [R.zero] * len(cols[0])
    for c, col in zip(x, cols):
        if not R.is_zero(c):
            out = [R.add(a, R.mul(c, b)) for a, b in zip(out, col)]
    return out


def det(R, A):
    n = len(A)
    if n == 0:
        return R.one
    if R == ZZ:
        return _det_bareiss(A)
    if not R.is_field:
        return _det_berkowitz(R, A)
    done = eliminate(R, [row[:] for row in A], n)
    if done is None:
        return R.zero
    rows, swaps = done
    d = R.neg(R.one) if len(swaps) % 2 else R.one
    for i in range(n):
        d = R.mul(d, rows[i][i])
    return d


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


def eliminate(R, rows, ncols):
    """Forward elimination over the field R, in place on the payload rows.

    Column c < ncols takes the first nonzero entry at or below row c as
    pivot, swapped up to row c; each row r below loses m times the pivot
    row, m = rows[r][c] / rows[c][c], and keeps m in the slot it clears.
    Returns (rows, swaps), swaps the columns whose pivot came from below,
    or None when a column has no pivot.  Then P A = L U, with U on and
    above the diagonal and L's multipliers below it.
    """
    is_zero, mul, addmul = R.is_zero, R.mul, R.addmul
    minus_one = R.neg(R.one)
    swaps = []
    for c in range(ncols):
        p = next((r for r in range(c, len(rows)) if not is_zero(rows[r][c])), None)
        if p is None:
            return None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            swaps.append(c)
        pivot_row = rows[c]
        tail = [(k, pivot_row[k]) for k in range(c + 1, len(pivot_row)) if not is_zero(pivot_row[k])]
        inv = R.inv(pivot_row[c])
        for row in rows[c + 1 :]:
            if not is_zero(row[c]):
                m = row[c] = mul(row[c], inv)
                for k, a in tail:
                    row[k] = addmul(row[k], m, a, minus_one, -1)
    return rows, swaps


def inverse_rational(A):
    """A^-1 over QQ, or None when A is singular: [A | I] is eliminated,
    then back-substituted through U one row at a time, from the last."""
    n = len(A)
    done = eliminate(QQ, [list(row) + basis(QQ, n, i) for i, row in enumerate(A)], n)
    if done is None:
        return None
    rows, inv = done[0], [None] * n
    for i in reversed(range(n)):
        row, x = rows[i], rows[i][n:]
        for k in range(i + 1, n):
            if row[k]:
                x = [QQ.addmul(a, row[k], b, -1, -1) for a, b in zip(x, inv[k])]
        p = QQ.inv(row[i])
        inv[i] = [QQ.mul(a, p) for a in x]
    return inv


def solve_rational(A, b):
    """The x with A x = b over QQ, or None when A is singular."""
    inv = inverse_rational(A)
    return None if inv is None else mat_vec(QQ, inv, b)


def ldl(gram):
    """(diag, low) as Fraction lists with gram = low diag low^T, low unit
    lower-triangular, or None unless gram is positive definite over QQ.
    With no swap the k-th leading minor is the product of the first k
    pivots, so by Sylvester's criterion gram is positive definite exactly
    when eliminate swaps no row and every pivot is positive; the pivots
    are then diag and the multipliers low (Golub and Van Loan, 4.1-4.2)."""
    n = len(gram)
    done = eliminate(QQ, [list(row) for row in gram], n)
    if done is None or done[1] or any(done[0][i][i] <= 0 for i in range(n)):
        return None
    rows = done[0]
    diag = [Fraction(rows[i][i]) for i in range(n)]
    return diag, [[Fraction(rows[i][j] if j < i else int(i == j)) for j in range(n)] for i in range(n)]
