"""Quadratic and symmetric bilinear forms on free modules.

Forms are stored by upper-triangular coefficients so that
characteristic-2 base rings are represented faithfully (the form and its
bilinearization carry different information there).
"""

from __future__ import annotations

from . import linalg


class QuadraticForm:
    """q(x) = sum_{i<=j} S[i][j] x_i x_j over a fixed ring."""

    def __init__(self, ring, dim, coeffs):
        """coeffs: dict {(i, j): payload} with i <= j, or dense row list."""
        self.ring = ring
        self.dim = dim
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:
            items = (((i, j), coeffs[i][j]) for i in range(dim) for j in range(i, dim))
        self.coeffs = {}
        for (i, j), c in items:
            if i > j:
                raise ValueError("coefficients must be upper triangular")
            c = ring.coerce(c)
            if not ring.is_zero(c):
                self.coeffs[(i, j)] = c
        self._terms = [(i, j, c, linalg.unit_sign(ring, c)) for (i, j), c in self.coeffs.items()]

    def eval_payload(self, x, L=None):
        """Evaluate on a payload vector, optionally over a ring-like L."""
        R = L if L is not None else self.ring
        acc = R.zero
        for i, j, c, sign in self._terms:
            xi, xj = x[i], x[j]
            if R.is_zero(xi) or R.is_zero(xj):
                continue
            acc = linalg.add_term(R, acc, R.mul(xi, xj), c, sign)
        return acc

    def eval(self, x):
        x = _payload_vec(self.ring, self.dim, x)
        return self.ring.scalar(self.eval_payload(x))

    def bilin_payload(self, x, y, L=None):
        """Dq(x, y) = q(x+y) - q(x) - q(y), expanded coefficient-wise."""
        R = L if L is not None else self.ring
        acc = R.zero
        for i, j, c, sign in self._terms:
            t = R.add(R.mul(x[i], y[j]), R.mul(x[j], y[i]))
            if not R.is_zero(t):
                acc = linalg.add_term(R, acc, t, c, sign)
        return acc

    def bilinearize(self):
        R = self.ring
        n = self.dim
        gram = [[R.zero] * n for _ in range(n)]
        for (i, j), c in self.coeffs.items():
            if i == j:
                gram[i][i] = R.add(gram[i][i], R.add(c, c))
            else:
                gram[i][j] = R.add(gram[i][j], c)
                gram[j][i] = R.add(gram[j][i], c)
        return BilinearForm(R, n, gram)

    def is_regular(self):
        """det of the bilinearized Gram is a unit (over ZZ: +-1)."""
        g = self.bilinearize().gram
        d = linalg.det(self.ring, g)
        return self.ring.is_unit(d)

    def scale(self, c):
        R = self.ring
        c = R.coerce(c)
        return QuadraticForm(R, self.dim, {k: R.mul(c, v) for k, v in self.coeffs.items()})

    @staticmethod
    def diagonal(ring, entries):
        entries = [ring.coerce(e) for e in entries]
        return QuadraticForm(ring, len(entries), {(i, i): e for i, e in enumerate(entries)})

    @staticmethod
    def direct_sum(q1, q2):
        if q1.ring != q2.ring:
            raise ValueError("ring mismatch")
        n1 = q1.dim
        coeffs = dict(q1.coeffs)
        for (i, j), c in q2.coeffs.items():
            coeffs[(i + n1, j + n1)] = c
        return QuadraticForm(q1.ring, n1 + q2.dim, coeffs)


class BilinearForm:
    def __init__(self, ring, dim, gram):
        self.ring = ring
        self.dim = dim
        self.gram = gram
        for i in range(dim):
            for j in range(dim):
                if not ring.eq(gram[i][j], gram[j][i]):
                    raise ValueError("gram matrix must be symmetric")

    def eval_payload(self, x, y):
        R = self.ring
        return R.sum(
            R.mul(x[i], R.dot(self.gram[i], y)) for i in range(self.dim)
        )


def _payload_vec(ring, dim, x):
    if len(x) != dim:
        raise ValueError(f"expected vector of length {dim}, got {len(x)}")
    return [ring.coerce(c) for c in x]


def block_det(r, s, T1, T2):
    """det [[r*I_p, T1], [T2, s*I_q]] as r^(p-q) * char_{T2*T1}(r*s).

    char_X(t) = det(t*I - X).  Requires r a unit and p >= q.
    """
    ring = r.ring
    rp = r.payload
    sp = s.payload
    p = len(T1)
    q = len(T1[0]) if p else 0
    if len(T2) != q or (q and len(T2[0]) != p):
        raise ValueError("block shapes must be p x q and q x p")
    if p < q:
        raise ValueError("requires p >= q")
    rinv = ring.inv(rp)
    if rinv is None:
        raise ValueError("r must be a unit")
    T1p = [[ring.coerce(c) for c in row] for row in T1]
    T2p = [[ring.coerce(c) for c in row] for row in T2]
    prod = linalg.mat_mul(ring, T2p, T1p)
    rs = ring.mul(rp, sp)
    m = [
        [ring.sub(rs if i == j else ring.zero, prod[i][j]) for j in range(q)]
        for i in range(q)
    ]
    charval = linalg.det(ring, m)
    acc = charval
    for _ in range(p - q):
        acc = ring.mul(acc, rp)
    return ring.scalar(acc)


def block_det_oracle(r, s, T1, T2):
    """Cofactor-expansion determinant of the assembled block matrix,
    independent of linalg.det."""
    ring = r.ring
    p = len(T1)
    q = len(T2)
    n = p + q
    rp, sp = r.payload, s.payload
    M = [[ring.zero] * n for _ in range(n)]
    for i in range(p):
        M[i][i] = rp
        for j in range(q):
            M[i][p + j] = ring.coerce(T1[i][j])
    for i in range(q):
        M[p + i][p + i] = sp
        for j in range(p):
            M[p + i][j] = ring.coerce(T2[i][j])
    return ring.scalar(linalg._det_cofactor(ring, M))


def leading_minors(q_form):
    """Leading principal minors of the Gram of Dq (ordered rings only)."""
    R = q_form.ring
    g = q_form.bilinearize().gram
    return [linalg.det(R, [row[: k + 1] for row in g[: k + 1]]) for k in range(q_form.dim)]


def is_positive_definite(q_form):
    R = q_form.ring
    if not R.is_ordered:
        raise ValueError("positivity needs an ordered ring (ZZ or QQ)")
    return all(R.sign(m) > 0 for m in leading_minors(q_form))
