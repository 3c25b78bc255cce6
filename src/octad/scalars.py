"""Exact commutative ring tower: ZZ, QQ, GF(p), Z/n, products, dual numbers.

All arithmetic is exact.  The library's one use of floating point, the
float64 batches of cubic.fundamental_formula_samples, runs only where a
proven bound keeps every value an integer below 2^53, so it is exact
too; no payload is ever a float.  Rings operate on plain "payload"
values (ints, Fractions, tuples) so that hot loops stay unboxed; the
Scalar class wraps a payload together with its ring for user-facing
work.

Payloads are canonical, so equal values have equal payloads: ZZ uses
ints, GF(p) and Z/n reduced ints, and QQ an int for every integral
value and a reduced Fraction for every other one (never a float).

GF(p) is Z/p with a modulus proven prime (PrimeField subclasses
ModularRing and shares all its arithmetic); it is still a ring of its
own, unequal to Z/p, that answers is_field.  The derived operations
sub, eq, sum and dot come from extensions.RingLike, except where a ring
has a faster form of one.

Random draws go through one kernel, draw_below(rng, n, count): the
values rng.randrange(n) would return count times, taken from the stream
in bulk.  Ring.rand_vec(rng, count) is [rand(rng) for _ in range(count)]
with rng left in the same state; ZZ and QQ draw uniformly from [-9, 9],
GF(p) and Z/n from their residues, through the kernel.  draw_below's
docstring proves that the stream is the same.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cached_property

from .extensions import DualExt, RingLike


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


# Every n below this bound that is a strong probable prime to each of the
# bases 2, 3, 5, ..., 41 is prime (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86 (2017), 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Deterministic Miller-Rabin.  A base that proves n composite is an
    answer at any size; a probable prime at or above _MR_PROVEN is not,
    and raises ValueError."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        if pow(a, d, n) != 1 and all(pow(a, d << j, n) != n - 1 for j in range(s)):
            return False
    if n >= _MR_PROVEN:
        raise ValueError(f"cannot prove {n} prime: moduli must be below {_MR_PROVEN}")
    return True


def _iroot(n, k):
    """The largest r with r**k <= n (Newton's method from above)."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _is_prime_power(n):
    # for the largest k with n = r**k, r is no perfect power, so n is a
    # prime power exactly when r is prime
    k = max((k for k in range(2, n.bit_length() + 1) if _iroot(n, k) ** k == n), default=1)
    return _is_prime(_iroot(n, k))


def draw_one(rng, n):
    """rng.randrange(n) for a random.Random rng and n >= 1, by CPython's
    rejection loop (random._randbelow_with_getrandbits) without the
    argument handling."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def draw_below(rng, n, count):
    """[rng.randrange(n) for _ in range(count)] for a random.Random rng
    and n >= 1, leaving rng in the same state, drawn in bulk.

    randrange(n) takes k = n.bit_length() bits and draws again while the
    result is >= n.  For k <= 32, getrandbits(k) is the top k bits of one
    32-bit Mersenne Twister word, and getrandbits(32 m) returns the next
    m words, least significant first.  So the sequential calls consume
    word after word and keep w >> (32 - k) for each word w < n << (32 - k).
    Drawing need words at once, need being the number of values still
    missing, consumes words the sequential calls would consume too, since
    each of those words yields at most one value.  For k > 32 each value
    is drawn on its own (draw_one).  tests/test_scalars.py checks the
    equality against randrange itself.
    """
    k = n.bit_length()
    if k > 32:
        return [draw_one(rng, n) for _ in range(count)]
    shift = 32 - k
    limit = n << shift
    out = []
    while len(out) < count:
        need = count - len(out)
        words = array("I", rng.getrandbits(32 * need).to_bytes(4 * need, "little"))
        if sys.byteorder == "big":  # the words arrive little-endian
            words.byteswap()
        out += [w >> shift for w in words if w < limit]
    return out


class Ring(RingLike):
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

    def rand_vec(self, rng, count):
        """[self.rand(rng) for _ in range(count)], with rng left in the
        same state; rings with int payloads draw them in bulk."""
        return [self.rand(rng) for _ in range(count)]

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
        return draw_one(rng, 19) - 9  # rng.randint(-9, 9)

    def rand_vec(self, rng, count):
        return [v - 9 for v in draw_below(rng, 19, count)]

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

    rand = IntegerRing.rand  # uniform on [-9, 9], as over ZZ
    rand_vec = IntegerRing.rand_vec

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


class ModularRing(Ring):
    """Z/n for arbitrary n >= 2 (composite allowed)."""

    finite = True

    def __init__(self, n):
        if n < 2:
            raise ValueError("modulus must be >= 2")
        self.n = n
        self.zero = 0
        self.one = 1

    @cached_property
    def is_connected(self):
        # on first use: a modulus too large to prove prime fails only here
        return _is_prime_power(self.n)

    def from_int(self, v):
        return v % self.n

    def validate(self, a):
        if not isinstance(a, int):
            raise TypeError(f"{self} payload must be int")
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
        try:
            return pow(a, -1, self.n)
        except ValueError:  # a is not coprime to n
            return None

    def is_nilpotent(self, a):
        # every prime exponent of n is below n.bit_length()
        return pow(a, self.n.bit_length(), self.n) == 0

    def elements(self):
        return range(self.n)

    def rand(self, rng):
        return draw_one(rng, self.n)

    def rand_vec(self, rng, count):
        return draw_below(rng, self.n, count)

    def render(self, a):
        return f"{a % self.n} mod {self.n}"

    def parse(self, text):
        return int(text.split(" mod ")[0]) % self.n

    def __eq__(self, other):
        # exact types: GF(p) and Z/p are different rings
        return type(other) is type(self) and other.n == self.n

    def __hash__(self):
        return hash(("Zmod", self.n))

    def __repr__(self):
        return f"Z/{self.n}"


class PrimeField(ModularRing):
    """GF(p): Z/p with a modulus proven prime."""

    is_field = True
    is_connected = True
    # own __dict__ entries, so that perfbench/tracer.py counts GF(p) and Z/n apart
    add, mul, is_zero = ModularRing.add, ModularRing.mul, ModularRing.is_zero

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.p = p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


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
        self.finite = base.finite

    @property
    def is_connected(self):
        return self.base.is_connected

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
