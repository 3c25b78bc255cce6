import json
import random

import pytest

from octad.cayley import iterated_cayley_dickson
from octad.conic import (
    cartan_schouten,
    quadratic,
    split_etale,
)
from octad.extensions import PolyExt
from octad.identities import run_suite, strict_identity_check
from octad.linalg import vec_eq
from octad.scalars import NOT_A_UNIT, GF, QQ, ZZ, Zmod
from octad.zorn import zorn_algebra
from dense_layout import conic_table


def test_split_etale_mul():
    A = split_etale(ZZ)
    assert A.mul(A.element([2, 5]), A.element([3, 1])) == A.element([6, 5])


def test_split_etale_trace_conj():
    A = split_etale(ZZ)
    x = A.element([2, 5])
    assert A.trace(x) == ZZ.scalar(7)
    assert A.conj(x) == A.element([5, 2])


def test_split_etale_f2_unit_count():
    A = split_etale(GF(2))
    units = [
        (a, b)
        for a in range(2)
        for b in range(2)
        if A.try_inverse(A.element([a, b])) is not NOT_A_UNIT
    ]
    assert units == [(1, 1)]


def test_cs_products():
    O = cartan_schouten(ZZ)
    u = O.basis_element
    assert O.mul(u(3), u(4)) == u(6)
    # indices mod 7: u8 u9 means u1 u2
    assert O.mul(u(1), u(2)) == u(4)
    assert O.mul(u(4), u(6)) == u(3)
    # the seven companion relations u_{r+4} u_{r+5} = u_r
    m7 = lambda x: ((x - 1) % 7) + 1
    for r in range(1, 8):
        assert O.mul(u(m7(r + 4)), u(m7(r + 5))) == u(r)


def test_cs_traces_and_inverses():
    O = cartan_schouten(ZZ)
    for r in range(1, 8):
        assert O.trace(O.basis_element(r)) == ZZ.scalar(0)
        assert O.norm_of(O.basis_element(r)) == ZZ.scalar(1)
    assert O.try_inverse(O.basis_element(1)) == -O.basis_element(1)


def test_gaussian_inverse():
    C = quadratic(QQ, 0, 1)  # t^2 = -1
    x = C.element([3, 4])
    inv = C.try_inverse(x)
    assert C.mul(x, inv) == C.one()
    from fractions import Fraction

    assert inv == C.element([Fraction(3, 25), Fraction(-4, 25)])


def test_not_invertible_outcome():
    A = split_etale(QQ)
    assert A.try_inverse(A.element([1, 0])) is NOT_A_UNIT


def test_conj_is_linear_involution():
    rng = random.Random(11)
    for alg in (split_etale(ZZ), quadratic(ZZ, 1, 3), cartan_schouten(ZZ)):
        assert alg.conj(alg.one()) == alg.one()
        for _ in range(20):
            x = alg.random_element(rng)
            assert alg.conj(alg.conj(x)) == x
    # conj(xy) = conj(y) conj(x) strictly on multiplicative algebras
    for alg in (split_etale(ZZ), cartan_schouten(ZZ)):
        assert strict_identity_check(alg, "conj-antihom").holds


def test_classify_idempotent():
    A = split_etale(ZZ)
    assert A.classify_idempotent(A.element([1, 0])) == "Elementary"
    assert A.classify_idempotent(A.one()) == "Invertible"
    assert A.classify_idempotent(A.zero()) == "Zero"
    C = quadratic(QQ, 0, 1)
    assert C.classify_idempotent(C.element([0, 1])) == "NotIdempotent"


def test_classify_idempotent_needs_connected_ring():
    A = split_etale(Zmod(6))
    with pytest.raises(ValueError):
        A.classify_idempotent(A.one())


def test_degree2_strict_for_constructors():
    for alg in (
        split_etale(ZZ),
        split_etale(GF(2)),
        quadratic(QQ, 0, 1),
        quadratic(Zmod(9), 2, 5),
        cartan_schouten(ZZ),
        cartan_schouten(GF(3)),
    ):
        assert alg.check_degree2().holds


def test_cs_moufang_and_norm():
    O = cartan_schouten(QQ)
    for name, v in run_suite(O, "moufang"):
        assert v.holds, name
    assert O.is_multiplicative()
    # Euclidean norm: coefficients are the identity diagonal
    assert O.norm.coeffs == {(i, i): QQ.one for i in range(8)}


def test_anisotropic_implies_no_zero_divisors():
    # positive definite rational norm: every nonzero sampled element inverts
    rng = random.Random(7)
    O = cartan_schouten(QQ)
    from octad.quadforms import is_positive_definite

    assert is_positive_definite(O.norm)
    for _ in range(40):
        x = O.random_element(rng)
        if not x.is_zero():
            assert O.try_inverse(x) is not NOT_A_UNIT


def test_trace_symmetry_norm_assoc():
    for alg in (cartan_schouten(ZZ), split_etale(ZZ)):
        assert strict_identity_check(alg, "norm-assoc").holds
        # t(xy) = t(yx) follows: check directly on basis pairs
        for i in range(alg.dim):
            for j in range(alg.dim):
                x, y = alg.basis_element(i), alg.basis_element(j)
                assert alg.trace(alg.mul(x, y)) == alg.trace(alg.mul(y, x))


def test_json_round_trip_fields():
    A = split_etale(ZZ)
    blob = json.loads(A.to_json())
    assert blob["dim"] == 2
    assert blob["unit"] == ["1", "1"]
    assert blob["norm_coeffs"] == {"0,1": "1"}
    assert blob["table"][0][0] == ["1", "0"]


def test_element_length_checked():
    A = split_etale(ZZ)
    with pytest.raises(ValueError):
        A.element([1, 2, 3])


def test_conic_json_round_trip_bit_exact():
    from octad.cayley import sedenions
    from octad.conic import ConicAlgebra

    cases = (
        split_etale(ZZ),
        cartan_schouten(GF(3)),
        zorn_algebra(ZZ),
        sedenions(QQ),
        iterated_cayley_dickson(Zmod(6), [-1, -1]),
    )
    for A in cases:
        text = A.to_json()
        again = ConicAlgebra.from_json(A.ring, text)
        assert again.to_json() == text
        assert again.products == A.products


def naive_mul_vec(alg, L, x, y):
    """Dense product with every structure constant lifted and multiplied."""
    table = conic_table(alg)
    out = [L.zero] * alg.dim
    for a in range(alg.dim):
        for b in range(alg.dim):
            xy = L.mul(x[a], y[b])
            for k, t in enumerate(table[a][b]):
                out[k] = L.add(out[k], L.mul(xy, L.from_base(t)))
    return out


@pytest.mark.parametrize("R", [ZZ, QQ, GF(2), GF(3), Zmod(6)], ids=repr)
def test_products_with_unit_constants_match_naive_formulas(R):
    rng = random.Random(11)
    algebras = [
        iterated_cayley_dickson(R, [-1, -1, -1]),
        iterated_cayley_dickson(R, [1, -1]),
        zorn_algebra(R),
        quadratic(R, 2, 3),
    ]
    L = PolyExt(R, 2, 3)
    for alg in algebras:
        signs = {s for _, row in alg._product._index for _, leaves in row for _, _, s in leaves}
        assert 1 in signs
        for _ in range(20):
            x = [R.rand(rng) if rng.random() < 0.6 else R.zero for _ in range(alg.dim)]
            y = [R.rand(rng) if rng.random() < 0.6 else R.zero for _ in range(alg.dim)]
            assert vec_eq(R, alg.mul_vec(x, y), naive_mul_vec(alg, R, x, y))
            t = alg.trace_lin(x)
            assert vec_eq(R, alg.conj_vec(x), [R.sub(R.mul(t, u), a) for u, a in zip(alg.unit, x)])
            # the same over a polynomial ring-like, with variables in x
            px = [L.add(L.from_base(c), L.var(i % 2)) for i, c in enumerate(x)]
            py = [L.from_base(c) for c in y]
            assert vec_eq(L, alg.mul_vec(px, py, L), naive_mul_vec(alg, L, px, py))


@pytest.mark.parametrize("R", [ZZ, GF(2), Zmod(6), QQ], ids=repr)
def test_sparse_trace_matches_naive_trace(R):
    """trace_lin reads only the nonzero t(e_i); the reference lifts
    and multiplies every t(e_i) = Dn(1, e_i), zeros included."""
    rng = random.Random(12)
    L = PolyExt(R, 2, 3)
    for alg in (zorn_algebra(R), iterated_cayley_dickson(R, [-1, -1, -1]), quadratic(R, 2, 3), split_etale(R)):
        tvals = [alg.norm.bilin_payload(alg.unit, alg.basis_element(i).coords) for i in range(alg.dim)]
        for _ in range(20):
            x = [R.rand(rng) if rng.random() < 0.6 else R.zero for _ in range(alg.dim)]
            assert R.eq(alg.trace_lin(x), R.sum(R.mul(a, t) for a, t in zip(x, tvals)))
            px = [L.add(L.from_base(c), L.var(i % 2)) for i, c in enumerate(x)]
            naive = L.sum(L.mul(a, L.from_base(t)) for a, t in zip(px, tvals))
            assert L.eq(alg.trace_lin(px, L), naive)
