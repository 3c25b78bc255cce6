"""Quadratic forms on free modules and the Gram rows of their
bilinearizations.

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
        if not isinstance(coeffs, dict):
            coeffs = {(i, j): coeffs[i][j] for i in range(dim) for j in range(i, dim)}
        if any(i > j for i, j in coeffs):
            raise ValueError("coefficients must be upper triangular")
        self._form = linalg.TermMap(ring, coeffs, 2)
        self.coeffs = self._form.terms
        self._gradient = self._form.gradient(dim)

    def eval_payload(self, x, L=None):
        """Evaluate on a payload vector, optionally over a ring-like L."""
        return self._form.value(x, L)

    def eval(self, x):
        x = _payload_vec(self.ring, self.dim, x)
        return self.ring.scalar(self.eval_payload(x))

    def bilin_payload(self, x, y, L=None):
        """Dq(x, y) = q(x+y) - q(x) - q(y)."""
        return self._form.polar(x, y, L)

    def bilin_row(self, x, L=None):
        """[Dq(x, e_0), ..., Dq(x, e_{dim-1})], the value of q's gradient."""
        return self._gradient.value(x, L)

    def bilinearize(self):
        """The Gram rows of Dq: row i is bilin_row(e_i)."""
        R, n = self.ring, self.dim
        return [self.bilin_row(linalg.basis(R, n, i)) for i in range(n)]

    def is_regular(self):
        """det of the bilinearized Gram is a unit (over ZZ: +-1)."""
        return self.ring.is_unit(linalg.det(self.ring, self.bilinearize()))

    @staticmethod
    def diagonal(ring, entries):
        entries = [ring.coerce(e) for e in entries]
        return QuadraticForm(ring, len(entries), {(i, i): e for i, e in enumerate(entries)})


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


def is_positive_definite(q_form):
    """Whether the Gram of Dq has an LDL^T with positive pivots."""
    if not q_form.ring.is_ordered:
        raise ValueError("positivity needs an ordered ring (ZZ or QQ)")
    return linalg.ldl(q_form.bilinearize()) is not None
