import random
import re

import pytest

from octad.cubic import (
    CUBIC_IDENTITIES,
    CubicData,
    adjoint_identity_strict,
    build_cubic,
    fundamental_formula_samples,
    validate_axioms,
)
from octad.identities import strict_identity_check
from octad.scalars import GF, QQ, ZZ, Zmod
from octad.tits import (
    CubicAssocInput,
    char3_nilpotence_demo,
    k_assoc,
    mat3,
    mu_rescale_map,
    split_albert,
    tits,
)
from dense_layout import unchecked


def test_tits_over_ground_ring_norm():
    J = tits(k_assoc(ZZ), 1)
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        n = J.norm(J.element([a, b, c]))
        assert n == ZZ.scalar(a**3 + b**3 + c**3 - 3 * a * b * c)
    assert J.norm(J.element([1, 1, 1])) == ZZ.scalar(0)


def _six_term_det(L, v):
    """det of the 3x3 matrix v (row major) as the sum over the six permutations."""
    acc = L.zero
    for (a, b, c), sign in (
        ((0, 1, 2), 1),
        ((1, 2, 0), 1),
        ((2, 0, 1), 1),
        ((0, 2, 1), -1),
        ((1, 0, 2), -1),
        ((2, 1, 0), -1),
    ):
        term = L.mul(L.mul(v[a], v[3 + b]), v[6 + c])
        acc = L.add(acc, term) if sign > 0 else L.sub(acc, term)
    return acc


@pytest.mark.parametrize("R", [ZZ, GF(2), GF(3), Zmod(6), QQ], ids=repr)
def test_mat3_norm_terms_are_the_six_term_determinant(R):
    """mat3's norm, the cofactor expansion of its adjoint, has the stored
    terms of the permutation sum, both read through build_cubic."""
    data = mat3(R).data
    ref = build_cubic(R, 9, data.basepoint, lambda L, v: data.sharp_vec(v, L), _six_term_det, name="det")
    assert list(data.norm_terms.items()) == list(ref.norm_terms.items())
    assert len(data.norm_terms) == 6


def test_tits_basepoint():
    J = tits(mat3(ZZ), 1)
    assert J.dim == 27
    one = J.one()
    assert J.norm(one) == ZZ.scalar(1)
    assert J.sharp(one) == one


def test_tits_requires_unit_mu():
    with pytest.raises(ValueError):
        tits(k_assoc(ZZ), 2)


def test_mat3_adjoint_compatibility_doubles_as_det_test():
    A = mat3(ZZ)
    rng = random.Random(1)
    for _ in range(25):
        x = [rng.randint(-5, 5) for _ in range(9)]
        sx = A.data.sharp_vec(x)
        n = A.data.norm_payload(x)
        prod = A.mul_vec(sx, x)
        assert prod == [n if i in (0, 4, 8) else 0 for i in range(9)]
        # determinant oracle: cofactor expansion
        m = [x[0:3], x[3:6], x[6:9]]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert n == det


def test_rejects_nonassociative_input():
    from octad.cayley import octonions
    from octad.cubic import hat_of_conic
    from dense_layout import table_products

    O = octonions(QQ)
    hat = hat_of_conic(O)  # a 9-dim cubic structure whose natural product
    # is nonassociative; feeding the octonion product must be rejected
    table = []
    R = QQ
    n = 9
    for a in range(n):
        row = []
        for b in range(n):
            if a == 0 and b == 0:
                vec = [R.one] + [R.zero] * 8
            elif a == 0:
                vec = [R.zero] * n
                vec[b] = R.one
            elif b == 0:
                vec = [R.zero] * n
                vec[a] = R.one
            else:
                prod = O.mul_vec(
                    [R.one if k == a - 1 else R.zero for k in range(8)],
                    [R.one if k == b - 1 else R.zero for k in range(8)],
                )
                vec = [R.zero] + list(prod)
            row.append(vec)
        table.append(row)
    with pytest.raises(ValueError):
        CubicAssocInput(hat, table_products(table), name="octonion-hat")


def test_split_albert(albert_zz):
    J = albert_zz
    assert J.dim == 27
    assert adjoint_identity_strict(J).holds
    assert J.norm(J.one()) == ZZ.scalar(1)


def test_construction_refuses_a_norm_term_the_gradient_law_rejects(albert_zz):
    """N + x0 x1 x2 keeps N(1) = 1 and 1# = 1 and every x_i^2 x_j
    coefficient, so only the strict gradient law sees it."""
    J = albert_zz
    norm_terms = dict(J.norm_terms)
    norm_terms[(0, 1, 2)] = ZZ.add(norm_terms.get((0, 1, 2), ZZ.zero), ZZ.one)
    with pytest.raises(ValueError, match=re.escape("gradient law N(x; y) = T(x#, y) fails at ((0, 1), (2,))")):
        CubicData(ZZ, J.dim, J.basepoint, J.sharp_terms, norm_terms, name=J.name)
    bad = unchecked(CubicData)(ZZ, J.dim, J.basepoint, J.sharp_terms, norm_terms)
    assert strict_identity_check(bad, CUBIC_IDENTITIES["gradient"]).witness == ((0, 1), (2,))


def test_albert_fundamental(albert_zz):
    assert fundamental_formula_samples(albert_zz, samples=1000).holds


def test_albert_axioms(albert_zz):
    v = validate_axioms(albert_zz, mode="strict")
    assert v.holds, v.details


def test_char3_nilpotence():
    J, x, x2, x3 = char3_nilpotence_demo(GF(3))
    assert not x.is_zero()
    assert not x2.is_zero()
    assert x3.is_zero()
    with pytest.raises(ValueError):
        char3_nilpotence_demo(GF(5))
    with pytest.raises(ValueError):
        char3_nilpotence_demo(ZZ)


def test_mu_rescale_identity():
    A = k_assoc(QQ)
    src, dst, phi = mu_rescale_map(A, 1, [1])
    for i in range(3):
        assert phi(src.basis_element(i)) == dst.basis_element(i)


def test_mu_rescale_qq():
    A = k_assoc(QQ)
    src, dst, phi = mu_rescale_map(A, 1, [2])
    # J(Q, 8) -> J(Q, 1)
    assert QQ.render(src.tits_mu) == "8"
    assert QQ.render(dst.tits_mu) == "1"
    rng = random.Random(2)
    for _ in range(20):
        x = src.random_element(rng)
        assert src.norm(x) == dst.norm(phi(x))


def test_mu_rescale_mat3_f5():
    A = mat3(GF(5))
    p = [0] * 9
    p[0], p[4], p[8] = 2, 1, 1
    src, dst, phi = mu_rescale_map(A, 1, p)
    assert src.tits_mu == 2
    rng = random.Random(3)
    for _ in range(10):
        x = src.random_element(rng)
        assert src.norm(x) == dst.norm(phi(x))
        assert phi(src.element(src.sharp_vec(x.coords))) == dst.element(
            dst.sharp_vec(phi(x).coords)
        )


def test_mu_rescale_requires_invertible():
    A = k_assoc(QQ)
    with pytest.raises(ValueError):
        mu_rescale_map(A, 1, [0])


def test_albert_matches_her3_zorn_statistics():
    # the two 27-dim models over GF(2) are isomorphic but no explicit map
    # is realized here; compare seeded norm-value frequencies instead
    from octad.her3 import her3
    from octad.zorn import zorn_algebra

    JA = split_albert(GF(2))
    JZ = her3(zorn_algebra(GF(2)))

    def norm_one_frequency(J, seed):
        r = random.Random(seed)
        hits = 0
        samples = 8192
        for _ in range(samples):
            x = [r.randrange(2) for _ in range(27)]
            if J.norm_payload(x) == 1:
                hits += 1
        return hits / samples

    fa = norm_one_frequency(JA, 101)
    fz = norm_one_frequency(JZ, 202)
    assert abs(fa - fz) < 0.04


def test_render_triple():
    from octad.tits import render_triple

    J = tits(k_assoc(ZZ), 1)
    x = J.element([-1, 1, 0])
    assert render_triple(J, x) == "(-1) + (1) j1 + (0) j2"
