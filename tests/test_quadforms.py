import random
from fractions import Fraction

import pytest

from octad.quadforms import (
    QuadraticForm,
    block_det,
    block_det_oracle,
    is_positive_definite,
)
from octad.scalars import GF, QQ, ZZ


def hyperbolic_plane(ring):
    return QuadraticForm(ring, 2, {(0, 1): ring.one})


def test_eval_examples():
    h = hyperbolic_plane(ZZ)
    assert h.eval([2, 3]) == ZZ.scalar(6)
    q = QuadraticForm.diagonal(ZZ, [1, -1])
    assert q.eval([3, 2]) == ZZ.scalar(5)
    e4 = QuadraticForm.diagonal(QQ, [1, 1, 1, 1])
    assert e4.eval([1, 1, 1, 1]) == QQ.scalar(4)


def test_eval_scaling_square():
    rng = random.Random(0)
    q = QuadraticForm(ZZ, 3, {(0, 0): 1, (0, 1): 2, (1, 2): -3, (2, 2): 5})
    for _ in range(30):
        x = [rng.randint(-9, 9) for _ in range(3)]
        a = rng.randint(-9, 9)
        ax = [a * c for c in x]
        assert q.eval(ax) == ZZ.scalar(a * a) * q.eval(x)


def test_bilinearize_examples():
    one = QuadraticForm.diagonal(ZZ, [1])
    assert one.bilinearize().gram == [[2]]
    h = hyperbolic_plane(ZZ)
    assert h.bilinearize().gram == [[0, 1], [1, 0]]
    e2 = QuadraticForm.diagonal(QQ, [1, 1])
    assert e2.bilinearize().gram == [
        [Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(2)],
    ]


def test_bilinearize_consistency():
    rng = random.Random(1)
    q = QuadraticForm(ZZ, 4, {(i, j): rng.randint(-3, 3) for i in range(4) for j in range(i, 4)})
    D = q.bilinearize()
    for _ in range(30):
        x = [rng.randint(-5, 5) for _ in range(4)]
        y = [rng.randint(-5, 5) for _ in range(4)]
        lhs = D.eval_payload(x, y)
        xy = [a + b for a, b in zip(x, y)]
        rhs = q.eval_payload(xy) - q.eval_payload(x) - q.eval_payload(y)
        assert lhs == rhs
        assert D.eval_payload(x, x) == 2 * q.eval_payload(x)


def test_is_regular():
    assert QuadraticForm.diagonal(GF(3), [1, -1]).is_regular()
    assert not QuadraticForm.diagonal(GF(2), [1, 1]).is_regular()
    assert hyperbolic_plane(ZZ).is_regular()
    assert hyperbolic_plane(GF(2)).is_regular()


def test_block_det_examples():
    r, s = QQ.scalar(2), QQ.scalar(3)
    assert block_det(r, s, [[1]], [[1]]) == QQ.scalar(5)
    # zero blocks: r^p s^q
    r, s = QQ.scalar(3), QQ.scalar(2)
    assert block_det(r, s, [[0], [0]], [[0, 0]]) == QQ.scalar(9 * 2)
    # p = 2, q = 1 with aligned columns kills the determinant
    r, s = ZZ.scalar(1), ZZ.scalar(1)
    assert block_det(r, s, [[1], [0]], [[1, 0]]) == ZZ.scalar(0)


def test_block_det_requires_unit():
    with pytest.raises(ValueError):
        block_det(ZZ.scalar(2), ZZ.scalar(3), [[0], [0]], [[0, 0]])
    # fine over QQ where 2 is invertible
    block_det(QQ.scalar(2), QQ.scalar(3), [[Fraction(0)], [Fraction(0)]], [[Fraction(0), Fraction(0)]])


def test_block_det_against_cofactor_oracle():
    rng = random.Random(2024)
    for _ in range(500):
        p = rng.randint(1, 5)
        q = rng.randint(1, min(p, 6 - p))
        r = ZZ.scalar(rng.choice([1, -1]))
        s = ZZ.scalar(rng.randint(-5, 5))
        T1 = [[rng.randint(-5, 5) for _ in range(q)] for _ in range(p)]
        T2 = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(q)]
        assert block_det(r, s, T1, T2) == block_det_oracle(r, s, T1, T2)


def test_positive_definite_minors():
    assert is_positive_definite(QuadraticForm.diagonal(QQ, [1, 2, 3]))
    assert not is_positive_definite(QuadraticForm.diagonal(QQ, [1, -1]))
    assert not is_positive_definite(hyperbolic_plane(QQ))
    rng = random.Random(5)
    q = QuadraticForm.diagonal(QQ, [1, 1, 1])
    for _ in range(50):
        x = [rng.randint(-9, 9) for _ in range(3)]
        if any(x):
            assert q.eval(x).payload > 0


def test_eval_and_bilin_with_unit_coefficients_match_naive_sums():
    rng = random.Random(17)
    for R in (ZZ, QQ, GF(2), GF(5)):
        q = QuadraticForm(R, 4, {(0, 0): 1, (0, 1): -1, (1, 3): 2, (2, 2): -1, (3, 3): 3})
        for _ in range(30):
            x = [R.rand(rng) for _ in range(4)]
            y = [R.rand(rng) for _ in range(4)]
            naive = R.zero
            for (i, j), c in q.coeffs.items():
                naive = R.add(naive, R.mul(c, R.mul(x[i], x[j])))
            assert R.eq(q.eval_payload(x), naive)
            xy = [R.add(a, b) for a, b in zip(x, y)]
            polar = R.sub(R.sub(q.eval_payload(xy), q.eval_payload(x)), q.eval_payload(y))
            assert R.eq(q.bilin_payload(x, y), polar)
