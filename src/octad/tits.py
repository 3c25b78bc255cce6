"""The first Tits construction J(A, mu) over associative cubic input.

Elements are triples (x0, x1, x2) over A with

  N(x)  = N_A(x0) + mu N_A(x1) + mu^2 N_A(x2) - mu T_A(x0, x1 x2)
  x#    = (x0# - mu x1 x2,  mu x2# - x0 x1,  x1# - x2 x0)
  T(x,y)= T_A(x0,y0) + mu T_A(x1,y2) + mu T_A(x2,y1)

Only associative inputs are accepted: the input validator checks
associativity on basis triples, adjoint compatibility x# x = x x# =
N(x) 1, and agreement of the derived bilinear trace with the
multiplication trace.
"""

from __future__ import annotations

from .conic import ConicAlgebra, structure_table
from .cubic import build_cubic, k_cubic, verify_cubic_iso
from .linalg import basis, scale_vec, sub_vec, vec_eq


class CubicAssocInput:
    """A cubic norm structure together with an associative multiplication."""

    def __init__(self, data, mul_table, name="assoc", validate=True):
        self.data = data
        self.ring = data.ring
        self.dim = data.dim
        self.name = name
        self.table, self._sparse = structure_table(self.ring, self.dim, mul_table)
        if validate:
            self._validate()

    # the same structure-constant product as a conic algebra's, on the same sparse table
    mul_vec = ConicAlgebra.mul_vec

    def _validate(self):
        R = self.ring
        n = self.dim
        e = lambda i: basis(R, n, i)
        one = self.data.basepoint
        for i in range(n):
            if not vec_eq(R, self.mul_vec(one, e(i)), e(i)) or not vec_eq(
                R, self.mul_vec(e(i), one), e(i)
            ):
                raise ValueError(f"{self.name}: base point is not a multiplicative unit")
        for i in range(n):
            for j in range(n):
                for l in range(n):
                    lhs = self.mul_vec(self.mul_vec(e(i), e(j)), e(l))
                    rhs = self.mul_vec(e(i), self.mul_vec(e(j), e(l)))
                    if not vec_eq(R, lhs, rhs):
                        raise ValueError(f"{self.name}: not associative at ({i},{j},{l})")
        # adjoint compatibility on basis vectors and pair sums
        for vec in _quadratic_probes(R, n):
            sx = self.data.sharp_vec(vec)
            nx = self.data.norm_payload(vec)
            want = scale_vec(R, nx, one)
            if not vec_eq(R, self.mul_vec(sx, vec), want) or not vec_eq(
                R, self.mul_vec(vec, sx), want
            ):
                raise ValueError(f"{self.name}: x# x != N(x) 1")
        # derived bilinear trace vs multiplication trace on basis pairs
        for i in range(n):
            for j in range(n):
                lhs = self.data.trace_bilin(e(i), e(j))
                rhs = self.data.trace_lin(self.mul_vec(e(i), e(j)))
                if not R.eq(lhs, rhs):
                    raise ValueError(f"{self.name}: T(x, y) != T(xy) at ({i},{j})")


def _quadratic_probes(R, n):
    # singles, pair sums and triple sums: enough support to catch sign
    # errors in the cubic compatibility x# x = N(x) 1
    for i in range(n):
        v = [R.zero] * n
        v[i] = R.one
        yield v
    for i in range(n):
        for j in range(i + 1, n):
            v = [R.zero] * n
            v[i] = R.one
            v[j] = R.one
            yield v
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(j + 1, n):
                v = [R.zero] * n
                v[i] = R.one
                v[j] = R.one
                v[l] = R.one
                yield v


def k_assoc(ring):
    """The ring itself as associative cubic input (norm = cube)."""
    data = k_cubic(ring)
    return CubicAssocInput(data, [[[ring.one]]], name="k_assoc")


def mat3(ring):
    """Mat_3(k) with determinant norm and classical-adjoint sharp."""
    n = 9

    def idx(i, j):
        return 3 * i + j

    def sharp_fn(L, v):
        # classical adjoint: adj_{ij} = (-1)^{i+j} det(minor with row j, col i removed)
        def m(i, j):
            return v[idx(i, j)]

        out = [L.zero] * 9
        for i in range(3):
            for j in range(3):
                i1, i2 = [a for a in range(3) if a != j]
                j1, j2 = [a for a in range(3) if a != i]
                c = L.sub(
                    L.mul(m(i1, j1), m(i2, j2)),
                    L.mul(m(i1, j2), m(i2, j1)),
                )
                out[idx(i, j)] = c if (i + j) % 2 == 0 else L.neg(c)
        return out

    def norm_fn(L, v):
        def m(i, j):
            return v[idx(i, j)]

        acc = L.zero
        for (a, b, c), sign in (
            ((0, 1, 2), 1),
            ((1, 2, 0), 1),
            ((2, 0, 1), 1),
            ((0, 2, 1), -1),
            ((1, 0, 2), -1),
            ((2, 1, 0), -1),
        ):
            term = L.mul(L.mul(m(0, a), m(1, b)), m(2, c))
            acc = L.add(acc, term) if sign > 0 else L.sub(acc, term)
        return acc

    basepoint = [ring.one if i in (0, 4, 8) else ring.zero for i in range(9)]
    data = build_cubic(ring, 9, basepoint, sharp_fn, norm_fn, name="mat3")
    table = []
    for a in range(9):
        row = []
        ia, ja = divmod(a, 3)
        for b in range(9):
            ib, jb = divmod(b, 3)
            vec = [ring.zero] * 9
            if ja == ib:
                vec[idx(ia, jb)] = ring.one
            row.append(vec)
        table.append(row)
    return CubicAssocInput(data, table, name="mat3")


def tits(A, mu):
    """J(A, mu) on A^3; mu must be a unit."""
    R = A.ring
    mu_p = R.coerce(mu)
    if R.inv(mu_p) is None:
        raise ValueError("mu must be a unit")
    m = A.dim
    n = 3 * m
    base = A.data

    def split(v):
        return v[:m], v[m : 2 * m], v[2 * m :]

    def sharp_fn(L, v):
        x0, x1, x2 = split(v)
        lmu = L.from_base(mu_p)
        s0 = base.sharp_vec(x0, L)
        s1 = base.sharp_vec(x1, L)
        s2 = base.sharp_vec(x2, L)
        p12 = A.mul_vec(x1, x2, L)
        p01 = A.mul_vec(x0, x1, L)
        p20 = A.mul_vec(x2, x0, L)
        out0 = [L.sub(a, L.mul(lmu, b)) for a, b in zip(s0, p12)]
        out1 = [L.sub(L.mul(lmu, a), b) for a, b in zip(s2, p01)]
        out2 = sub_vec(L, s1, p20)
        return out0 + out1 + out2

    def norm_fn(L, v):
        x0, x1, x2 = split(v)
        lmu = L.from_base(mu_p)
        acc = base.norm_payload(x0, L)
        acc = L.add(acc, L.mul(lmu, base.norm_payload(x1, L)))
        acc = L.add(acc, L.mul(L.mul(lmu, lmu), base.norm_payload(x2, L)))
        t = base.trace_bilin(x0, A.mul_vec(x1, x2, L), L)
        return L.sub(acc, L.mul(lmu, t))

    basepoint = list(base.basepoint) + [R.zero] * (2 * m)
    data = build_cubic(R, n, basepoint, sharp_fn, norm_fn, name=f"tits({A.name})")
    data.tits_input = A
    data.tits_mu = mu_p
    return data


def split_albert(ring):
    """J(Mat_3(k), 1): the 27-dimensional split Albert algebra."""
    return tits(mat3(ring), 1)


def char3_nilpotence_demo(ring):
    """In J(k, 1) with 3 = 0: x = j1 - 1 has x^2 != 0 but x^3 = 0."""
    if not ring.is_zero(ring.from_int(3)):
        raise ValueError("requires a base ring with 3 = 0")
    J = tits(k_assoc(ring), 1)
    x = J.element([ring.neg(ring.one), ring.one, ring.zero])
    x2 = J.power(x, 2)
    x3 = J.power(x, 3)
    if x.is_zero() or x2.is_zero():
        raise AssertionError("witness degenerated")
    if not x3.is_zero():
        raise AssertionError("cube does not vanish")
    return J, x, x2, x3


def render_triple(J, x):
    """Display an element as its three input-algebra components."""
    A = J.tits_input
    m = A.dim
    R = J.ring
    parts = []
    for t in range(3):
        chunk = x.coords[t * m : (t + 1) * m]
        parts.append("(" + ", ".join(R.render(c) for c in chunk) + ")")
    return f"{parts[0]} + {parts[1]} j1 + {parts[2]} j2"


def mu_rescale_map(A, mu, p):
    """The verified isomorphism J(A, N_A(p) mu) -> J(A, mu).

    Sends x0 + x1 j1 + x2 j2 to x0 + (x1 p) j1 + (p# x2) j2; requires p
    invertible in A (N_A(p) a unit).
    """
    R = A.ring
    p_vec = p.coords if hasattr(p, "coords") else [R.coerce(c) for c in p]
    np_ = A.data.norm_payload(p_vec)
    if R.inv(np_) is None:
        raise ValueError("p must be invertible in A")
    mu_p = R.coerce(mu)
    src = tits(A, R.mul(np_, mu_p))
    dst = tits(A, mu_p)
    m = A.dim
    sharp_p = A.data.sharp_vec(p_vec)

    def apply(x):
        x0 = x.coords[:m]
        x1 = x.coords[m : 2 * m]
        x2 = x.coords[2 * m :]
        y1 = A.mul_vec(x1, p_vec)
        y2 = A.mul_vec(sharp_p, x2)
        return dst.element(list(x0) + y1 + y2)

    verify_cubic_iso(src, dst, apply)
    return src, dst, apply
