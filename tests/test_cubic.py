import json
import random
from fractions import Fraction

import pytest

from octad.cayley import ground_algebra
from octad.conic import quadratic
from octad.cubic import (
    NOT_INVERTIBLE,
    PointedQuadraticJordan,
    adjoint_identity_strict,
    build_cubic,
    fundamental_formula_samples,
    gradient_identity_samples,
    hat_of_conic,
    hat_pointed,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
    validate_axioms,
    verify_cubic_iso,
)
from octad.her3 import her3
from octad.linalg import add_vec, sub_vec, vec_eq
from octad.quadforms import QuadraticForm
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring
from octad.tits import mat3, tits


def test_k_cubic():
    J = k_cubic(ZZ)
    x = J.element([2])
    assert J.sharp(x) == J.element([4])
    assert J.norm(x) == ZZ.scalar(8)


def test_split_cubic_etale_examples():
    J = split_cubic_etale(ZZ)
    x = J.element([2, 3, 5])
    assert J.sharp(x) == J.element([15, 10, 6])
    assert J.cross(J.element([1, 0, 0]), J.element([0, 1, 0])) == J.element([0, 0, 1])
    assert J.trace(x) == ZZ.scalar(10)
    assert J.strace(x) == ZZ.scalar(31)
    assert J.u_op(x, J.element([1, 1, 1])) == J.element([4, 9, 25])


def test_traces_of_unit():
    for J in (split_cubic_etale(ZZ), kk_cubic(ZZ), k_cubic(ZZ)):
        one = J.one()
        assert J.trace(one) == ZZ.scalar(3)
        assert J.strace(one) == ZZ.scalar(3)
        assert J.norm(one) == ZZ.scalar(1)
    # over GF(2) the generic 3 reduces
    J2 = split_cubic_etale(GF(2))
    assert J2.trace(J2.one()) == GF(2).scalar(1)


def test_u_op_consistency_through_traces():
    J = split_cubic_etale(ZZ)
    rng = random.Random(0)
    for _ in range(50):
        x = J.random_element(rng)
        sq = J.u_op(x, J.one())
        assert J.trace(sq) == J.trace(x) * J.trace(x) - 2 * J.strace(x)


def test_u_unit_is_identity():
    for J in (split_cubic_etale(ZZ), kk_cubic(ZZ)):
        rng = random.Random(1)
        for _ in range(20):
            y = J.random_element(rng)
            assert J.u_op(J.one(), y) == y


def test_inverses():
    J = split_cubic_etale(QQ)
    x = J.element([2, 3, 5])
    inv = J.try_inverse(x)
    assert inv == J.element([Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    assert J.u_op(x, inv) == x
    assert J.u_op(x, J.power(inv, 2)) == J.one()
    assert J.try_inverse(J.element([1, 0, 0])) is NOT_INVERTIBLE
    assert J.try_inverse(J.one()) == J.one()


def test_rank_and_idem_class():
    J = split_cubic_etale(GF(7))
    assert J.rank(J.zero()) == 0
    assert J.rank(J.element([1, 0, 0])) == 1
    assert J.rank(J.element([1, 1, 0])) == 2
    assert J.rank(J.element([1, 1, 1])) == 3
    JZ = split_cubic_etale(ZZ)
    assert JZ.idem_class(JZ.element([1, 0, 0])) == "Elementary"
    assert JZ.idem_class(JZ.element([1, 1, 0])) == "CoElementary"
    assert JZ.idem_class(JZ.one()) == "Unit"
    assert JZ.idem_class(JZ.zero()) == "Zero"
    assert JZ.idem_class(JZ.element([2, 0, 0])) == "NotIdempotent"


def test_idempotent_split_examples():
    J = split_cubic_etale(ZZ)
    assert J.idempotent_split(J.element([1, 0, 0])) == (
        ZZ.scalar(0),
        ZZ.scalar(1),
        ZZ.scalar(0),
        ZZ.scalar(0),
    )
    assert J.idempotent_split(J.one()) == (
        ZZ.scalar(0),
        ZZ.scalar(0),
        ZZ.scalar(0),
        ZZ.scalar(1),
    )
    R = Zmod(6)
    J6 = split_cubic_etale(R)
    quad = J6.idempotent_split(J6.element([1, 1, 0]))
    assert quad == (R.scalar(0), R.scalar(0), R.scalar(1), R.scalar(0))


def test_idempotent_split_mixed_ring():
    R = product_ring(Zmod(6), Zmod(6))
    J = split_cubic_etale(R)
    # rank differs per factor: (1, e) with e idempotent only in one slot
    e = J.element([(1, 1), (1, 0), (0, 0)])
    quad = J.idempotent_split(e)
    r0, r1, r2, r3 = (q.payload for q in quad)
    assert r2 == (1, 0) and r1 == (0, 1) and r3 == (0, 0)
    assert r0 == (0, 0)


def test_idempotent_split_rejects_non_idempotent():
    J = split_cubic_etale(ZZ)
    with pytest.raises(ValueError):
        J.idempotent_split(J.element([2, 0, 0]))


def test_peirce_projections():
    J = split_cubic_etale(ZZ)
    E2, E1, E0 = J.peirce(J.element([1, 0, 0]))
    assert E2 == [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert E0 == [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert E1 == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    E2, E1, E0 = J.peirce(J.one())
    assert E2 == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert E0 == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_kk_cubic():
    J = kk_cubic(ZZ)
    assert J.norm(J.one()) == ZZ.scalar(1)
    x = J.element([2, 3])
    assert J.norm(x) == ZZ.scalar(18)
    assert J.sharp(x) == J.element([9, 6])
    assert validate_axioms(J, mode="strict").holds


def test_hat_over_gaussian_numbers():
    C = quadratic(QQ, 0, 1)
    J = hat_of_conic(C)
    assert J.norm(J.element([2, 3, 4])) == QQ.scalar(50)
    assert validate_axioms(J, mode="strict").holds
    # adjoint formula (a, u)# = (q(u), a conj(u))
    x = J.element([5, 3, 4])
    assert J.sharp(x) == J.element([25, 15, -20])


def test_hat_pointed_requires_base_point():
    q = QuadraticForm.diagonal(QQ, [2, 1])
    with pytest.raises(ValueError):
        hat_pointed(q, [1, 0])


def test_pointed_quadratic_jordan():
    q = QuadraticForm(QQ, 2, {(0, 1): QQ.one})  # hyperbolic
    J = PointedQuadraticJordan(q, [1, 1])
    rng = random.Random(3)
    for _ in range(20):
        y = [QQ.rand(rng) for _ in range(2)]
        assert J.u_op([Fraction(1), Fraction(1)], y) == y
    x = [Fraction(2), Fraction(3)]
    inv = J.try_inverse(x)
    assert J.u_op(x, inv) == x
    assert J.try_inverse([Fraction(1), Fraction(0)]) is NOT_INVERTIBLE


def test_validate_axioms_strict_small():
    for J in (split_cubic_etale(ZZ), split_cubic_etale(GF(2)), k_cubic(Zmod(9))):
        v = validate_axioms(J, mode="strict")
        assert v.holds, v.details


def test_corrupted_data_fails_validation():
    J = split_cubic_etale(ZZ)
    # perturb one norm coefficient; the build-time gradient consistency
    # check must already reject it
    with pytest.raises(ValueError):
        from octad.cubic import CubicData

        CubicData(
            ZZ,
            J.dim,
            J.basepoint,
            J.sharp_basis,
            J.cross_pairs,
            J.n_single,
            {**J.n_dir, (0, 1): ZZ.scalar(5).payload},
            J.n_triple,
        )


def test_corrupted_sharp_fails_adjoint():
    J = split_cubic_etale(ZZ)
    from octad.cubic import CubicData

    bad_sharp = [list(v) for v in J.sharp_basis]
    bad_sharp[0][0] = 3  # e1 sharp gains a bogus diagonal term
    bad_dir = dict(J.n_dir)
    # keep the gradient consistency intact by perturbing n_dir to match
    bad = None
    try:
        bad = CubicData(
            ZZ, J.dim, J.basepoint, bad_sharp, J.cross_pairs, J.n_single, bad_dir, J.n_triple
        )
    except ValueError:
        return  # rejected at construction: acceptable
    v = adjoint_identity_strict(bad)
    assert not v.holds


def test_gradient_identity_via_dual_numbers():
    rng = random.Random(0xA1BE27)
    for J in (split_cubic_etale(ZZ), kk_cubic(ZZ), hat_of_conic(quadratic(QQ, 0, 1))):
        v = gradient_identity_samples(J, samples=100)
        assert v.holds


def test_nil_criterion_over_nilpotent_scalars():
    # x with T(x,y), T(x#,y) and N(x) nilpotent for all basis y is nilpotent
    for R, probe in ((Zmod(4), 2), (Zmod(9), 3)):
        J = split_cubic_etale(R)
        x = J.element([probe, probe, 0])
        n = J.norm(x)
        assert n.is_nilpotent()
        for j in range(3):
            y = J.basis_element(j)
            assert J.trace_pair(x, y).is_nilpotent()
            assert (
                ZZ.scalar(0).payload == 0
                and J.trace_pair(J.sharp(x), y).is_nilpotent()
            )
        # power sequence reaches zero
        p = x
        for _ in range(8):
            p = J.u_op(x, p)
        assert p.is_zero()


def test_power_recursion():
    J = split_cubic_etale(ZZ)
    x = J.element([2, 3, 5])
    assert J.power(x, 0) == J.one()
    assert J.power(x, 1) == x
    assert J.power(x, 2) == J.element([4, 9, 25])
    assert J.power(x, 3) == J.element([8, 27, 125])


def test_fundamental_formula_samples_diagonal():
    J = split_cubic_etale(ZZ)
    assert fundamental_formula_samples(J, samples=100).holds


def test_cubic_json():
    J = kk_cubic(ZZ)
    blob = json.loads(J.to_json())
    assert blob["dim"] == 2
    assert blob["basepoint"] == ["1", "1"]
    assert blob["norm_dir"] == {"1,0": "1"}
    assert blob["norm_single"] == ["0", "0"]
    # bit-exact round trip of the serialized text
    assert J.to_json() == J.to_json()


def test_build_cubic_rejects_mismatched_norm():
    # adjoint of the rank-2 structure paired with the wrong cubic form:
    # the gradient consistency check must reject the pair
    def sharp_fn(L, v):
        return [L.mul(v[1], v[1]), L.mul(v[0], v[1])]

    def norm_fn(L, v):
        return L.mul(L.mul(v[0], v[0]), v[1])  # x0^2 x1 instead of x0 x1^2

    with pytest.raises(ValueError):
        build_cubic(ZZ, 2, [1, 1], sharp_fn, norm_fn)


def test_cubic_json_round_trip_bit_exact():
    from octad.cubic import CubicData
    from octad.her3 import her3
    from octad.cayley import ground_algebra

    for J in (kk_cubic(ZZ), split_cubic_etale(GF(7)), her3(ground_algebra(GF(2)))):
        text = J.to_json()
        again = CubicData.from_json(J.ring, text)
        assert again.to_json() == text


def test_triple_is_u_linearization():
    J = split_cubic_etale(ZZ)
    rng = random.Random(6)
    for _ in range(40):
        x = J.random_element(rng)
        y = J.random_element(rng)
        z = J.random_element(rng)
        lhs = J.triple(x, y, z)
        rhs = J.u_op(x + z, y) - J.u_op(x, y) - J.u_op(z, y)
        assert lhs == rhs
        # U_{x,x} = 2 U_x
        assert J.triple(x, y, x) == J.u_op(x, y) + J.u_op(x, y)


def test_peirce_multiplication_rules_sampled():
    # circle(E2 x, E0 y) = 0 and U_{E1 x} 1 lands in E2 J + E0 J
    from octad import linalg
    from octad.her3 import her3
    from octad.cayley import ground_algebra

    cases = [
        (split_cubic_etale(ZZ), [1, 1, 0]),
        (her3(ground_algebra(GF(2))), [1, 0, 0, 0, 0, 0]),
    ]
    rng = random.Random(8)
    for J, e_coords in cases:
        e = J.element(e_coords)
        E2, E1, E0 = J.peirce(e)
        R = J.ring

        def circle(x, y):
            return J.u_op(x + y, J.one()) - J.u_op(x, J.one()) - J.u_op(y, J.one())

        for _ in range(25):
            x = J.random_element(rng)
            y = J.random_element(rng)
            x2 = J.element(linalg.mat_vec(R, E2, x.coords))
            y0 = J.element(linalg.mat_vec(R, E0, y.coords))
            assert circle(x2, y0).is_zero()
            x1 = J.element(linalg.mat_vec(R, E1, x.coords))
            sq = J.u_op(x1, J.one())
            middle = linalg.mat_vec(R, E1, sq.coords)
            assert all(R.is_zero(c) for c in middle)


def test_verify_cubic_iso_rejects_broken_maps():
    from octad.cayley import ground_algebra
    from octad.her3 import her3

    J = her3(ground_algebra(ZZ))

    def on_slots(c):
        # fix the diagonal and multiply each u_i by c
        return lambda x: J.element(x.coords[:3] + [c * u for u in x.coords[3:]])

    verify_cubic_iso(J, J, on_slots(1))
    with pytest.raises(AssertionError, match="base point"):
        verify_cubic_iso(J, J, lambda x: -x)
    with pytest.raises(AssertionError, match="adjoints on basis"):
        verify_cubic_iso(J, J, on_slots(2))
    # u_i -> -u_i keeps every u_i# = -n(u_i) e_i but flips the slot term
    # conj(u_j u_l) of (u_j + u_l)#
    with pytest.raises(AssertionError, match="adjoints on pair sums"):
        verify_cubic_iso(J, J, on_slots(-1))


@pytest.mark.parametrize("R", [ZZ, QQ, GF(2), Zmod(6)], ids=repr)
def test_cross_is_the_polarization_of_sharp(R):
    """x x y = (x + y)# - x# - y#, an independent check of cross_vec's
    sparse pair loop and its +-1 constants."""
    rng = random.Random(8)
    structures = [
        her3(ground_algebra(R)),
        tits(mat3(R), -1),
        hat_of_conic(quadratic(R, 2, 3)),
        split_cubic_etale(R),
    ]
    for J in structures:
        for density in (0.1, 0.5, 1.0):
            for _ in range(8):
                x = [R.rand(rng) if rng.random() < density else R.zero for _ in range(J.dim)]
                y = [R.rand(rng) if rng.random() < density else R.zero for _ in range(J.dim)]
                polar = sub_vec(R, J.sharp_vec(add_vec(R, x, y)), J.sharp_vec(x))
                polar = sub_vec(R, polar, J.sharp_vec(y))
                assert vec_eq(R, J.cross_vec(x, y), polar)
