"""Exact commutative ring tower: ZZ, QQ, GF(p), Z/n, products, dual numbers.

All arithmetic is exact; there is no floating point anywhere in the
library.  Rings operate on plain "payload" values (ints, Fractions,
tuples) so that hot loops stay unboxed; the Scalar class wraps a payload
together with its ring for user-facing work.

Payloads are canonical, so equal values have equal payloads: ZZ uses
ints, GF(p) and Z/n reduced ints, and QQ an int for every integral
value and a reduced Fraction for every other one (never a float).
"""

from __future__ import annotations

from fractions import Fraction

from .extensions import DualExt


class RingMismatch(ValueError):
    pass


class _NotAUnit:
    """Queryable outcome of a failed inversion (not an exception)."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "NotAUnit"

    def __bool__(self):
        return False


NOT_A_UNIT = _NotAUnit()


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _radical(n):
    # product of the distinct prime divisors of n
    rad, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            rad *= p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        rad *= m
    return rad


class Ring:
    """Base class; every ring works on raw payloads.

    A ring doubles as the trivial "ring-like" used for generic algebra
    evaluation (see extensions.py): from_base is the identity.
    """

    is_field = False
    is_ordered = False
    is_connected = True
    finite = False

    # -- ring-like protocol -------------------------------------------------
    def from_base(self, a):
        return a

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

    # -- optional capabilities ----------------------------------------------
    def is_unit(self, a):
        return self.inv(a) is not None

    def is_nilpotent(self, a):
        raise NotImplementedError

    def sign(self, a):
        raise NotImplementedError(f"{self} is not ordered")

    def elements(self):
        raise NotImplementedError(f"{self} is not finite")

    def rand(self, rng):
        raise NotImplementedError

    def __ne__(self, other):
        return not self.__eq__(other)

    def scalar(self, value):
        """Coerce value (int, Fraction, payload, Scalar) to a Scalar here."""
        return Scalar(self, self.coerce(value))

    def coerce(self, value):
        if isinstance(value, Scalar):
            if value.ring != self:
                raise RingMismatch(f"{value.ring} != {self}")
            return value.payload
        if isinstance(value, int):
            return self.from_int(value)
        return self.validate(value)

    def validate(self, payload):
        return payload


class IntegerRing(Ring):
    is_ordered = True
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def validate(self, a):
        if not isinstance(a, int):
            raise TypeError(f"ZZ payload must be int, got {a!r}")
        return a

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        return a if a in (1, -1) else None

    def is_nilpotent(self, a):
        return a == 0

    def sign(self, a):
        return (a > 0) - (a < 0)

    def rand(self, rng):
        return rng.randint(-9, 9)

    def render(self, a):
        return str(a)

    def parse(self, text):
        return int(text)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"


class RationalField(Ring):
    """QQ.  A payload is an int when the value is integral and a reduced
    Fraction otherwise; every operation returns this canonical form, so
    integral data never pays for Fraction arithmetic."""

    is_field = True
    is_ordered = True
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def validate(self, a):
        if isinstance(a, int):
            return a
        if not isinstance(a, Fraction):
            raise TypeError(f"QQ payload must be int or Fraction, got {a!r}")
        return a.numerator if a.denominator == 1 else a

    def add(self, a, b):
        c = a + b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def sub(self, a, b):
        c = a - b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def neg(self, a):
        c = -a
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def mul(self, a, b):
        c = a * b
        if c.__class__ is int or c.denominator != 1:
            return c
        return c.numerator

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def inv(self, a):
        if not a:
            return None
        c = Fraction(1) / a
        return c.numerator if c.denominator == 1 else c

    def is_nilpotent(self, a):
        return not a

    def sign(self, a):
        return (a > 0) - (a < 0)

    def rand(self, rng):
        return rng.randint(-9, 9)

    def render(self, a):
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def parse(self, text):
        return self.validate(Fraction(text))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField(Ring):
    is_field = True
    finite = True

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n):
        return n % self.p

    def validate(self, a):
        if not isinstance(a, int):
            raise TypeError(f"GF({self.p}) payload must be int")
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def eq(self, a, b):
        return (a - b) % self.p == 0

    def inv(self, a):
        if a % self.p == 0:
            return None
        return pow(a, self.p - 2, self.p)

    def is_nilpotent(self, a):
        return a % self.p == 0

    def elements(self):
        return range(self.p)

    def rand(self, rng):
        return rng.randrange(self.p)

    def render(self, a):
        return f"{a % self.p} mod {self.p}"

    def parse(self, text):
        return int(text.split(" mod ")[0]) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ModularRing(Ring):
    """Z/n for arbitrary n >= 2 (composite allowed)."""

    finite = True

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.rad = _radical(n)
        self.zero = 0
        self.one = 1
        # connected <=> n is a prime power <=> radical is prime
        self.is_connected = _is_prime(self.rad)

    def from_int(self, v):
        return v % self.n

    def validate(self, a):
        if not isinstance(a, int):
            raise TypeError(f"Z/{self.n} payload must be int")
        return a % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def eq(self, a, b):
        return (a - b) % self.n == 0

    def inv(self, a):
        # extended gcd
        a = a % self.n
        g, x = self._xgcd(a, self.n)
        if g != 1:
            return None
        return x % self.n

    @staticmethod
    def _xgcd(a, b):
        x0, x1 = 1, 0
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
        return a, x0

    def is_nilpotent(self, a):
        return a % self.rad == 0

    def elements(self):
        return range(self.n)

    def rand(self, rng):
        return rng.randrange(self.n)

    def render(self, a):
        return f"{a % self.n} mod {self.n}"

    def parse(self, text):
        return int(text.split(" mod ")[0]) % self.n

    def __eq__(self, other):
        return isinstance(other, ModularRing) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"Z/{self.n}"


class ProductRing(Ring):
    """R1 x R2 with componentwise operations; payloads are pairs."""

    is_connected = False

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.zero = (left.zero, right.zero)
        self.one = (left.one, right.one)
        self.finite = left.finite and right.finite

    def from_int(self, n):
        return (self.left.from_int(n), self.right.from_int(n))

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise TypeError("product payload must be a pair")
        return (self.left.validate(a[0]), self.right.validate(a[1]))

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def is_zero(self, a):
        return self.left.is_zero(a[0]) and self.right.is_zero(a[1])

    def eq(self, a, b):
        return self.left.eq(a[0], b[0]) and self.right.eq(a[1], b[1])

    def inv(self, a):
        l = self.left.inv(a[0])
        r = self.right.inv(a[1])
        if l is None or r is None:
            return None
        return (l, r)

    def is_nilpotent(self, a):
        return self.left.is_nilpotent(a[0]) and self.right.is_nilpotent(a[1])

    def elements(self):
        for l in self.left.elements():
            for r in self.right.elements():
                yield (l, r)

    def rand(self, rng):
        return (self.left.rand(rng), self.right.rand(rng))

    def render(self, a):
        return f"({self.left.render(a[0])}, {self.right.render(a[1])})"

    def __eq__(self, other):
        return (
            isinstance(other, ProductRing)
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self):
        return hash(("Product", self.left, self.right))

    def __repr__(self):
        return f"({self.left} x {self.right})"


class DualNumbers(DualExt, Ring):
    """R[eps] with eps^2 = 0 as a ring of the tower; payloads are pairs
    (a, b) for a + b*eps.  The arithmetic is DualExt's."""

    def __init__(self, base):
        super().__init__(base)
        self.is_connected = base.is_connected
        self.finite = base.finite

    def from_base(self, a):
        return a

    def validate(self, a):
        if not (isinstance(a, tuple) and len(a) == 2):
            raise TypeError("dual payload must be a pair")
        return (self.base.validate(a[0]), self.base.validate(a[1]))

    def inv(self, a):
        # a + b*eps is a unit iff a is; inverse a^-1 - a^-2 b eps
        ai = self.base.inv(a[0])
        if ai is None:
            return None
        B = self.base
        return (ai, B.neg(B.mul(B.mul(ai, ai), a[1])))

    def is_nilpotent(self, a):
        return self.base.is_nilpotent(a[0])

    def rand(self, rng):
        return (self.base.rand(rng), self.base.rand(rng))

    def render(self, a):
        return f"{self.base.render(a[0])} + {self.base.render(a[1])}*eps"

    def __eq__(self, other):
        return isinstance(other, DualNumbers) and other.base == self.base

    def __hash__(self):
        return hash(("Dual", self.base))

    def __repr__(self):
        return f"{self.base}[eps]"


ZZ = IntegerRing()
QQ = RationalField()


def GF(p):
    return PrimeField(p)


def Zmod(n):
    return ModularRing(n)


def product_ring(*rings):
    """Nested pairwise product of two or more rings."""
    if len(rings) < 2:
        raise ValueError("need at least two factors")
    acc = rings[-1]
    for r in reversed(rings[:-1]):
        acc = ProductRing(r, acc)
    return acc


class Scalar:
    """Immutable exact ring element: a ring plus a payload."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring, payload):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "payload", ring.validate(payload))

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other.payload
        if isinstance(other, int):
            return self.ring.from_int(other)
        return NotImplemented

    def __add__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(self.payload, p))

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.sub(p, self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is NotImplemented:
            return NotImplemented
        return Scalar(self.ring, self.ring.mul(self.payload, p))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.ring, self.ring.neg(self.payload))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.ring.eq(self.payload, self.ring.from_int(other))
        if not isinstance(other, Scalar) or other.ring != self.ring:
            return False
        return self.ring.eq(self.payload, other.payload)

    def __hash__(self):
        return hash((self.ring, repr(self.payload)))

    def is_zero(self):
        return self.ring.is_zero(self.payload)

    def is_nilpotent(self):
        return self.ring.is_nilpotent(self.payload)

    def try_invert(self):
        inv = self.ring.inv(self.payload)
        if inv is None:
            return NOT_A_UNIT
        return Scalar(self.ring, inv)

    def __repr__(self):
        return self.ring.render(self.payload)


def ring_op(op, a, b):
    """Apply one of {add, mul, neg, sub} to scalars of the same ring."""
    if not isinstance(a, Scalar):
        raise TypeError("expected Scalar")
    if op == "neg":
        return -a
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def try_invert(a):
    return a.try_invert()


def is_nilpotent(a):
    return a.is_nilpotent()
