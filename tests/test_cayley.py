import random

import pytest

from octad.cayley import (
    cayley_dickson,
    composition_defect,
    composition_defect_formula,
    ground_algebra,
    iterated_cayley_dickson,
    octonions,
    quat_rotate,
    quaternions,
    scale_isomorphism,
    sedenion_zero_divisor_witness,
    sedenions,
)
from octad.identities import run_suite, strict_identity_check
from octad.scalars import NOT_A_UNIT, QQ, ZZ


def test_cay_of_ground():
    C = cayley_dickson(ground_algebra(QQ), -1)
    j = C.basis_element(1)
    assert C.mul(j, j) == -C.one()


def test_quaternions_ij_k():
    H = quaternions(QQ)
    i, j = H.basis_element(1), H.basis_element(2)
    k = H.mul(i, j)
    assert k == H.basis_element(3)
    assert H.norm_of(k) == QQ.scalar(1)
    assert strict_identity_check(H, "associative").holds


def test_octonions_moufang_but_not_associative():
    O = octonions(QQ)
    for name, v in run_suite(O, "moufang"):
        assert v.holds, name
    assert not strict_identity_check(O, "associative").holds


def test_cd_requires_unit_mu():
    with pytest.raises(ValueError):
        cayley_dickson(ground_algebra(ZZ), 2)


def test_cd_conjugation_negates_second_half():
    O = octonions(QQ)
    rng = random.Random(0)
    for _ in range(20):
        x = O.random_element(rng)
        c = O.conj(x)
        u, v = x.coords[:4], x.coords[4:]
        cu, cv = c.coords[:4], c.coords[4:]
        base = O.cd_base
        assert cu == base.conj_vec(u)
        assert cv == [QQ.neg(t) for t in v]


def test_defect_vanishes_for_quaternions_and_octonions():
    rng = random.Random(1)
    for alg in (quaternions(QQ), octonions(QQ)):
        for _ in range(30):
            x = alg.random_element(rng)
            y = alg.random_element(rng)
            assert composition_defect(x, y) == QQ.scalar(0)


def test_defect_formula_matches_on_sedenions():
    S = sedenions(QQ)
    rng = random.Random(0xA1BE27)
    for _ in range(200):
        x = S.random_element(rng)
        y = S.random_element(rng)
        assert composition_defect(x, y) == composition_defect_formula(x, y)
    # unit in either slot: defect 0
    x = S.one()
    y = S.random_element(rng)
    assert composition_defect(x, y) == QQ.scalar(0)


def test_sedenion_zero_divisor_pinned_pair():
    alg, a, b = sedenion_zero_divisor_witness()
    assert alg.mul(a, b).is_zero()
    assert a.norm() == QQ.scalar(2)
    assert b.norm() == QQ.scalar(2)
    assert not a.is_zero() and not b.is_zero()
    # the reversed product, computed by direct multiplication: also zero
    assert alg.mul(b, a).is_zero()
    assert composition_defect(a, b) == QQ.scalar(-4)


def test_scale_isomorphism_ground():
    C = ground_algebra(QQ)
    fmap = scale_isomorphism(C, -1, C.element([2]))
    assert fmap.domain.cd_mu == QQ.scalar(-4).payload
    assert fmap.codomain.cd_mu == QQ.scalar(-1).payload
    assert fmap.verify_homomorphism()


def test_scale_isomorphism_identity_map():
    H = quaternions(QQ)
    fmap = scale_isomorphism(H, -1, H.one())
    for i in range(fmap.domain.dim):
        assert fmap.apply(fmap.domain.basis_element(i)) == fmap.codomain.basis_element(i)


def test_scale_isomorphism_quaternion_i():
    H = quaternions(QQ)
    i = H.basis_element(1)
    fmap = scale_isomorphism(H, -1, i)
    assert fmap.verify_homomorphism()


def test_scale_isomorphism_rejects_non_nucleus():
    O = octonions(QQ)
    with pytest.raises(ValueError):
        scale_isomorphism(O, -1, O.basis_element(1))


def test_quat_rotate():
    H = quaternions(QQ)
    i, j, k = (H.basis_element(t) for t in (1, 2, 3))
    s = j
    assert quat_rotate(H.one(), s) == s
    assert quat_rotate(i, s) == -j
    assert quat_rotate(H.element([1, 1, 0, 0]), s) == k


def test_quat_rotate_preserves_norm_and_trace():
    H = quaternions(QQ)
    rng = random.Random(2)
    for _ in range(40):
        v = H.random_element(rng)
        if H.try_inverse(v) is NOT_A_UNIT:
            continue
        s = H.random_element(rng)
        s = s - H.element([s.trace().payload * t for t in [QQ.one, QQ.zero, QQ.zero, QQ.zero]])
        s = H.element([QQ.zero] + s.coords[1:])  # trace-0 part
        out = quat_rotate(v, s)
        assert out.trace() == QQ.scalar(0)
        assert out.norm() == s.norm()


def test_quat_rotate_preconditions():
    H = quaternions(QQ)
    with pytest.raises(ValueError):
        quat_rotate(H.one(), H.one())  # trace(1) != 0
    with pytest.raises(ValueError):
        quat_rotate(H.zero(), H.basis_element(1))


def test_iterated_basis_is_lexicographic_doubling():
    S = iterated_cayley_dickson(QQ, [-1, -1, -1, -1])
    assert S.dim == 16
    # the top half of the basis is the octonion basis times j
    O = S.cd_base
    assert O.dim == 8
    x = S.basis_element(8)  # j itself
    assert S.mul(x, x) == -S.one()
