"""The ring-like protocol and the scalar extensions of the evaluators.

A ring-like is anything with payload arithmetic zero, one, add, neg,
mul, is_zero and from_base.  RingLike is the protocol's base: it derives
sub, eq, sum and dot from those, and every ring of the scalar tower
(scalars.Ring) and both extensions below inherit them; a class keeps its
own version only where it has a faster one.

DualExt and PolyExt are not first-class rings of the tower: they let the
strict identity checker and the dual-number derivative trick evaluate
structure-constant formulas over R[eps] or a truncated polynomial
extension R[t1..tm].  The first-class ring scalars.DualNumbers takes its
arithmetic from DualExt.
"""

from __future__ import annotations


class RingLike:
    """The derived operations of a ring-like."""

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def sum(self, items):
        acc = self.zero
        for it in items:
            acc = self.add(acc, it)
        return acc

    def dot(self, xs, ys):
        acc = self.zero
        for a, b in zip(xs, ys):
            acc = self.add(acc, self.mul(a, b))
        return acc


class DualExt(RingLike):
    """R[eps], eps^2 = 0, over any ring-like R; payloads (a, b)."""

    def __init__(self, base):
        self.base = base
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def from_base(self, a):
        return (self.base.from_base(a), self.base.zero)

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero)

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.base.sub(a[0], b[0]), self.base.sub(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        B = self.base
        return (B.mul(a[0], b[0]), B.add(B.mul(a[0], b[1]), B.mul(a[1], b[0])))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    def var(self):
        """The element eps."""
        return (self.base.zero, self.base.one)


class PolyExt(RingLike):
    """Truncated polynomial extension R[t_0..t_{m-1}] of a ring-like R.

    Payloads are dicts {key: base_payload} that never store a zero
    coefficient, so the zero polynomial is the empty dict.  A key packs
    one monomial into one int: exponent e_i sits in bits [w*i, w*i + w)
    and the total degree sits above all of them, at bit w*m, where the
    field width w is the bit length of 2*cap.  Exponents of a product of
    two kept monomials are at most 2*cap < 2^w, so adding two keys
    multiplies the monomials without a carry between fields, and the
    product's degree exceeds cap exactly when its key reaches
    (cap + 1) << w*m.  Monomials of total degree > cap are dropped,
    which is sound because the checker only reads coefficients up to the
    identity's total degree.  factors(key) decodes a key, reading only its
    nonzero fields.
    """

    def __init__(self, base, nvars, cap):
        self.base = base
        self.nvars = nvars
        self.cap = cap
        self._width = (2 * cap).bit_length()
        self._degree_shift = self._width * nvars
        self._bound = (cap + 1) << self._degree_shift
        self.zero = {}
        self.one = {0: base.one}

    def from_base(self, a):
        a = self.base.from_base(a)
        if self.base.is_zero(a):
            return {}
        return {0: a}

    def from_int(self, n):
        a = self.base.from_int(n)
        if self.base.is_zero(a):
            return {}
        return {0: a}

    def var(self, i):
        return {(1 << self._degree_shift) + (1 << (self._width * i)): self.base.one}

    def first_var(self, key):
        """The least i with e_i > 0 in a packed key; -1 for the constant."""
        return ((key & -key).bit_length() - 1) // self._width

    def factors(self, key):
        """The pairs (i, e_i) with e_i > 0 of a packed key, i ascending."""
        w, out = self._width, []
        rest = key & ((1 << self._degree_shift) - 1)
        while rest:
            i = self.first_var(rest)
            e = (rest >> (w * i)) & ((1 << w) - 1)
            out.append((i, e))
            rest ^= e << (w * i)
        return out

    def terms(self, poly, degree, label):
        """(sorted variable indices, coefficient) for each term of poly;
        a term of another degree raises ValueError.  The structure builders
        (conic.build_conic, cubic.build_cubic) read their constants here."""
        for key, c in poly.items():
            idx = tuple(i for i, e in self.factors(key) for _ in range(e))
            if len(idx) != degree:
                raise ValueError(f"{label} has a term of degree {len(idx)}, expected {degree}")
            yield idx, c

    def add(self, a, b):
        if not a:
            return dict(b)
        if not b:
            return dict(a)
        B = self.base
        out = dict(a)
        for e, c in b.items():
            if e in out:
                s = B.add(out[e], c)
                if B.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return out

    def neg(self, a):
        B = self.base
        return {e: B.neg(c) for e, c in a.items()}

    def sub(self, a, b):
        if not b:
            return dict(a)
        B = self.base
        out = dict(a)
        for e, c in b.items():
            if e in out:
                s = B.sub(out[e], c)
                if B.is_zero(s):
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = B.neg(c)
        return out

    def mul(self, a, b):
        if not a or not b:
            return {}
        B = self.base
        bmul, badd, bzero = B.mul, B.add, B.is_zero
        bound = self._bound
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                if e >= bound:
                    continue
                c = bmul(c1, c2)
                if e in out:
                    s = badd(out[e], c)
                    if bzero(s):
                        del out[e]
                    else:
                        out[e] = s
                elif not bzero(c):
                    out[e] = c
        return out

    def is_zero(self, a):
        return not a


def lift_vec(L, vec):
    """Lift a vector of base payloads into the ring-like L."""
    return [L.from_base(c) for c in vec]
