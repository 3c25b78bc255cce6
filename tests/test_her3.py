import random
from fractions import Fraction

import pytest

from octad.cayley import cayley_dickson, ground_algebra, quaternions
from octad.conic import cartan_schouten, quadratic, split_etale
from octad.cubic import adjoint_identity_strict, validate_axioms
from octad.her3 import (
    Gamma,
    associator_defect,
    census_f2,
    diag_rescale,
    element_from_parts,
    her3,
    is_positive_definite,
    lane_census,
    norm_histogram,
    parts_of,
    pretty,
)
from octad.scalars import GF, QQ, ZZ
from octad.tits import split_albert
from octad.zorn import zorn_algebra
from reference_paths import census_f2_by_points


def test_her3_rational_identity_element():
    J = her3(ground_algebra(QQ))
    assert J.dim == 6
    assert J.norm(J.one()) == QQ.scalar(1)
    assert J.sharp(J.one()) == J.one()


def test_her3_f2_e11_elementary():
    J = her3(ground_algebra(GF(2)))
    assert J.idem_class(J.basis_element(0)) == "Elementary"


def test_her3_diagonal_trace():
    J = her3(ground_algebra(QQ))
    rng = random.Random(0)
    for _ in range(20):
        a = [QQ.rand(rng) for _ in range(3)]
        b = [QQ.rand(rng) for _ in range(3)]
        x = J.element(a + [QQ.zero] * 3)
        y = J.element(b + [QQ.zero] * 3)
        want = sum(p * q for p, q in zip(a, b))
        assert J.trace_pair(x, y) == QQ.scalar(want)


def test_her3_requires_composition_algebra():
    from octad.cayley import sedenions

    with pytest.raises(ValueError):
        her3(sedenions(QQ))


def test_census_f2():
    F2 = ground_algebra(GF(2))
    assert census_f2(F2, "rank1") == 7
    assert census_f2(F2, "elementary_idempotents") == 4


def test_census_f2xf2_matches_mat3():
    # Her3(F2 x F2) and Mat3(F2)+ have the same censuses and norm histograms
    from octad.tits import mat3
    import itertools

    C = split_etale(GF(2))
    assert census_f2(C, "elementary_idempotents") == 28
    assert census_f2(C, "rank1") == 49
    J = her3(C)
    A = mat3(GF(2)).data
    assert norm_histogram(J) == norm_histogram(A)
    count = 0
    for bits in itertools.product((0, 1), repeat=9):
        x = A.element(list(bits))
        if not x.is_zero() and A.is_idempotent(x) and A.idem_class(x) == "Elementary":
            count += 1
    assert count == 28


# coefficient algebras over GF(2), with the closed form of her3's rank-one
# count over F_q: the points of the cone over P^2, P^2 x P^2, its twisted
# form (C the quadratic field F_q^2) and the Grassmannian G(2, 6)
F2_COEFFS = {
    "F2": (lambda: ground_algebra(GF(2)), lambda q: q**3 - 1),
    "F2xF2": (lambda: split_etale(GF(2)), lambda q: (q**3 - 1) ** 2 // (q - 1)),
    "F4": (lambda: quadratic(GF(2), 1, 1), lambda q: (q - 1) * (q**4 + q**2 + 1)),
    "split-quaternions": (
        lambda: cayley_dickson(quadratic(GF(2), 1, 1), 1),
        lambda q: (q**6 - 1) * (q**5 - 1) // (q**2 - 1),
    ),
}


@pytest.mark.parametrize("name", F2_COEFFS)
def test_lane_census_equals_the_point_loop_and_the_closed_form(name):
    C = F2_COEFFS[name][0]()
    assert census_f2(C, "rank1") == census_f2_by_points(C, "rank1") == F2_COEFFS[name][1](2)
    assert census_f2(C, "elementary_idempotents") == census_f2_by_points(C, "elementary_idempotents")


def test_split_albert_censuses_agree_across_constructions():
    """The only census above one chunk of lanes: coordinates 20..26 are
    constant lanes read from each chunk's first point.  Rank one is the
    cone over the Cayley plane E6/P1."""
    her3_zorn, albert, q = her3(zorn_algebra(GF(2))), split_albert(GF(2)), 2
    rank1 = (q**12 - 1) * (q**9 - 1) // (q**4 - 1)
    assert census_f2(zorn_algebra(GF(2)), "rank1") == lane_census(albert, "rank1") == rank1 == 139503
    assert lane_census(her3_zorn, "elementary_idempotents") == lane_census(albert, "elementary_idempotents") == 69888


def test_lane_census_refuses_unknown_censuses():
    with pytest.raises(ValueError, match="unknown census"):
        census_f2(ground_algebra(GF(2)), "rank2")


def test_adjoint_strict_octonion_coefficients():
    O = cartan_schouten(QQ)
    J = her3(O)
    assert J.dim == 27
    assert adjoint_identity_strict(J).holds


def test_her3_zorn_axioms(her3_zorn_zz):
    v = validate_axioms(her3_zorn_zz, mode="strict")
    assert v.holds, v.details
    assert "strict" in v.details["adjoint"]
    # the base point, unit, gradient and adjoint identities hold strictly
    assert v.details["fundamental"] == "Holds (implied)"


def test_associator_defect_associative_coefficients():
    H = quaternions(QQ)
    J = her3(H)
    rng = random.Random(1)
    for _ in range(25):
        x = J.random_element(rng)
        assert associator_defect(x).is_zero()


def test_associator_defect_octonions():
    O = cartan_schouten(QQ)
    J = her3(O)
    u1, u2, u3 = O.basis_element(1), O.basis_element(2), O.basis_element(3)
    x = element_from_parts(J, [0, 0, 0], [u1, u2, u3])
    d = associator_defect(x)
    # brute-force associator oracle
    want = O.mul(O.mul(u1, u2), u3) - O.mul(u1, O.mul(u2, u3))
    assert not want.is_zero()
    assert d == want
    assert want == O.element([0, 0, 0, 0, 0, 0, -2, 0])
    # alternating associator: repeated slot kills it
    y = element_from_parts(J, [1, 2, 3], [u1, O.zero(), u3])
    assert associator_defect(y).is_zero()


def test_associator_defect_random_octonion_entries():
    O = cartan_schouten(QQ)
    J = her3(O)
    rng = random.Random(0xA1BE27)
    for _ in range(50):
        x = J.random_element(rng)
        xi, us = parts_of(x)
        d = associator_defect(x)
        want = O.mul(O.mul(us[0], us[1]), us[2]) - O.mul(us[0], O.mul(us[1], us[2]))
        assert d == want


def test_gamma_requires_units():
    with pytest.raises(ValueError):
        Gamma(ZZ, [1, 2, 1])


def test_diag_rescale_formula():
    C = ground_algebra(QQ)
    gamma = Gamma(QQ, [2, 3, 1])
    delta = Gamma(QQ, [Fraction(1, 2), Fraction(1, 3), 1])  # gamma^{-1}
    new_gamma, phi, src, dst = diag_rescale(C, gamma, delta)
    assert [QQ.render(e) for e in new_gamma.entries] == ["4/3", "9/2", "1/6"]


def test_diag_rescale_identity_and_composition():
    C = ground_algebra(QQ)
    gamma = Gamma(QQ, [1, 1, 1])
    one = Gamma(QQ, [1, 1, 1])
    _, phi, src, dst = diag_rescale(C, gamma, one)
    for i in range(src.dim):
        assert phi(src.basis_element(i)).coords == dst.basis_element(i).coords
    # composing rescales by delta then delta' equals rescaling by delta delta'
    d1 = Gamma(QQ, [2, 1, 1])
    d2 = Gamma(QQ, [3, 5, 1])
    g1, phi1, src1, mid = diag_rescale(C, gamma, d1)
    g2, phi2, mid2, dst2 = diag_rescale(C, g1, d2)
    d12 = Gamma(QQ, [6, 5, 1])
    g12, phi12, src12, dst12 = diag_rescale(C, gamma, d12)
    assert [QQ.render(e) for e in g2.entries] == [QQ.render(e) for e in g12.entries]
    for i in range(src1.dim):
        x = src1.basis_element(i)
        assert phi2(phi1(x)).coords == phi12(x).coords


def test_diag_rescale_norm_correspondence():
    H = quaternions(QQ)
    gamma = Gamma(QQ, [2, 3, 1])
    delta = Gamma(QQ, [5, 1, 7])
    new_gamma, phi, src, dst = diag_rescale(H, gamma, delta)
    rng = random.Random(4)
    for _ in range(10):
        x = src.random_element(rng)
        assert src.norm(x) == dst.norm(phi(x))


def test_is_positive_definite():
    J = her3(cartan_schouten(QQ))
    assert is_positive_definite(J.one())
    assert not is_positive_definite(J.element([1, 1, -1] + [0] * 24))
    O = J.coeff_algebra
    u = O.basis_element(1)  # n(u) = 1
    x = element_from_parts(J, [1, 1, 1], [u, O.zero(), O.zero()])
    # (x#)_11 = 1 - n(u) = 0: not positive definite
    assert not is_positive_definite(x)
    assert is_positive_definite(J.element([1, 2, 3] + [0] * 24))


def test_positive_definite_requires_gamma_one():
    C = ground_algebra(QQ)
    J = her3(C, Gamma(QQ, [2, 1, 1]))
    with pytest.raises(ValueError):
        is_positive_definite(J.one())


def test_pretty_printer_shows_hermitian_symmetry():
    J = her3(ground_algebra(QQ))
    x = J.element([1, 2, 3, 4, 5, 6])
    text = pretty(x)
    assert text.count("|") == 6


def test_peirce_middle_component_rank_over_f2():
    # E1-image of the corner idempotent has dimension 2 dim(C)
    J = her3(ground_algebra(GF(2)))
    e = J.basis_element(0)
    E2, E1, E0 = J.peirce(e)
    rank = _matrix_rank_f2(E1)
    assert rank == 2
    J9 = her3(split_etale(GF(2)))
    E2, E1, E0 = J9.peirce(J9.basis_element(0))
    assert _matrix_rank_f2(E1) == 4


def _matrix_rank_f2(M):
    rows = [list(r) for r in M]
    rank = 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % 2), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] % 2:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank
