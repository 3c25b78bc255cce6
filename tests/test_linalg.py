import random
from fractions import Fraction

import pytest
import sympy

from octad import linalg
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring


def _sympy_det(A):
    return sympy.Matrix(A).det()


@pytest.mark.parametrize("n", range(1, 8))
def test_det_zz_and_gf_against_sympy(n):
    rng = random.Random(100 + n)
    for _ in range(10):
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        want = int(_sympy_det(A))
        assert linalg.det(ZZ, A) == want
        for p in (2, 3, 7):
            assert linalg.det(GF(p), [[c % p for c in row] for row in A]) == want % p


@pytest.mark.parametrize("n", range(1, 7))
def test_det_qq_against_sympy(n):
    rng = random.Random(200 + n)
    for _ in range(10):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        want = _sympy_det([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in A])
        assert linalg.det(QQ, A) == Fraction(int(want.p), int(want.q))


@pytest.mark.parametrize("R", [Zmod(6), product_ring(Zmod(4), GF(3))], ids=repr)
def test_det_with_zero_divisors_against_cofactor(R):
    rng = random.Random(300)
    for n in range(1, 7):
        for _ in range(10):
            A = [[R.rand(rng) for _ in range(n)] for _ in range(n)]
            assert R.eq(linalg.det(R, A), linalg._det_cofactor(R, A))


def test_det_z6_12x12_against_sympy():
    rng = random.Random(400)
    for _ in range(4):
        A = [[rng.randrange(6) for _ in range(12)] for _ in range(12)]
        assert linalg.det(Zmod(6), A) == int(_sympy_det(A)) % 6
