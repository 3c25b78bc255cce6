"""The ring-like protocol and the scalar extensions of the evaluators.

A ring-like is anything with payload arithmetic zero, one, add, neg,
mul, is_zero and from_base.  RingLike is the protocol's base: it derives
sub, eq, sum, dot and the fused addmul from those, and every ring of the
scalar tower (scalars.Ring) and the ring-likes below inherit them; a
class keeps its own version only where it has a faster one.

RingLike.modulus is the one capability the exact kernels read.  It is
None unless the payloads are plain Python numbers: 0 for ZZ and QQ, n
for Z/n and GF(p).  linalg.TermMap over such a ring, and PolyExt.addmul
over such a base, compute with the numbers themselves and put each
stored value in canonical form once.  Over every other ring-like
(ProductRing, DualNumbers, the ring-likes below) TermMap runs one addmul
per term.

addmul(acc, a, b, c, sign) is acc + c*a*b for a constant c of the base
ring.  Its ownership rule: a faster addmul may build its result in acc's
storage, so acc must be the zero (which PolyExt.addmul replaces with a
fresh dict, never filling the shared PolyExt.zero) or a value addmul
returned to the same caller.  A running value from anywhere else is
added once, with add, which never mutates its arguments.

DualExt, PolyExt and F2Lanes are not first-class rings of the tower.
PolyExt lets the strict identity checker evaluate structure-constant
formulas over a truncated polynomial extension R[t1..tm].  DualExt,
R[eps], gives the first-class ring scalars.DualNumbers its arithmetic,
and the tests use it as an independent reference for derivatives.
F2Lanes, GF(2)^N, lets her3's censuses evaluate forms at N points at once.
"""

from __future__ import annotations


class RingLike:
    """The derived operations of a ring-like."""

    # None, or the n of a ring whose payloads are plain numbers reduced
    # modulo n (0: not reduced, and an integral value is an int)
    modulus = None

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

    def addmul(self, acc, a, b, c, sign):
        """acc + c*a*b for a base-ring constant c with sign =
        linalg.unit_sign(base ring, c): a unit sign adds or subtracts a*b
        instead of multiplying it by the lifted c."""
        m = self.mul(a, b)
        if sign == 1:
            return self.add(acc, m)
        if sign == -1:
            return self.sub(acc, m)
        return self.add(acc, self.mul(m, self.from_base(c)))


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

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        B = self.base
        return (B.mul(a[0], b[0]), B.add(B.mul(a[0], b[1]), B.mul(a[1], b[0])))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])


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
        """A new dict: b's terms merged into a copy of a, a sum that cancels
        deleted.  sub is RingLike's add(a, neg(b)), so this is the one merge
        loop of both."""
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

    def mul(self, a, b):
        return self.addmul(self.zero, a, b, self.base.one, 1)

    def addmul(self, acc, a, b, c, sign):
        """acc + c*a*b with every monomial added straight into acc: no
        product dict, no copy, the same truncation and no zero stored.  acc
        follows RingLike's ownership rule; an empty one is replaced by a
        fresh dict.  Over a base of native numbers each coefficient
        product is added inline and the sum is put in canonical form once,
        as it is stored."""
        if not a or not b:
            return acc
        if not acc:
            acc = {}
        B = self.base
        n, bound = B.modulus, self._bound
        if len(a) > len(b):
            a, b = b, a
        b = b.items()
        # c goes into the shorter factor's coefficients once, unless it is one
        if n is not None:
            if sign != 1:
                a = {e: c1 * c for e, c1 in a.items()}
            for e1, c1 in a.items():
                for e2, c2 in b:
                    e = e1 + e2
                    if e >= bound:
                        continue
                    s = acc[e] + c1 * c2 if e in acc else c1 * c2
                    if n:
                        s %= n
                    elif s.__class__ is not int and s.denominator == 1:
                        s = s.numerator
                    if s:
                        acc[e] = s
                    elif e in acc:
                        del acc[e]
            return acc
        bmul, badd, bzero = B.mul, B.add, B.is_zero
        if sign == 1:
            a = a.items()
        else:
            k = B.from_base(c)
            a = [(e, m) for e, c1 in a.items() if not bzero(m := bmul(c1, k))]
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                if e >= bound:
                    continue
                m = bmul(c1, c2)
                if e in acc:
                    s = badd(acc[e], m)
                    if bzero(s):
                        del acc[e]
                    else:
                        acc[e] = s
                elif not bzero(m):
                    acc[e] = m
        return acc

    def is_zero(self, a):
        return not a


class F2Lanes(RingLike):
    """GF(2)^N with N = points: a payload is an int whose bit l is the value
    at point l, so add is XOR and mul is AND, and one is the all-ones mask."""

    def __init__(self, points):
        self.zero = 0
        self.one = (1 << points) - 1

    def from_base(self, c):
        return self.one if c else 0

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        return a & b

    def is_zero(self, a):
        return not a


def lift_vec(L, vec):
    """Lift a vector of base payloads into the ring-like L."""
    return [L.from_base(c) for c in vec]
