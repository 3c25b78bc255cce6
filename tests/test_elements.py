"""The one element layer of conic algebras and cubic norm structures:
linalg.NormedModule's element API and ModuleElement, its one element
class."""

import random

import pytest

from octad.cayley import composition_defect_formula, quaternions, sedenions
from octad.cli import parse_algebra
from octad.conic import ConicAlgebra, cartan_schouten, split_etale
from octad.cubic import split_cubic_etale
from octad.her3 import element_from_parts, her3
from octad.linalg import ModuleElement, basis, scale_vec
from octad.scalars import GF, NOT_A_UNIT, QQ, ZZ, RingMismatch
from octad.tits import mat3, mu_rescale_map
from octad.zorders import hurwitz

# conic catalog algebras, then cubic structures
ALGEBRAS = {
    "split_etale(Z)": lambda: split_etale(ZZ),
    "split_etale(F5)": lambda: split_etale(GF(5)),
    "cay(Q;-1,-1)": lambda: parse_algebra("cay(Q;-1,-1)"),
    "cay(Z/6;-1,-1,-1)": lambda: parse_algebra("cay(Z/6;-1,-1,-1)"),
    "zorn(F3)": lambda: parse_algebra("zorn(F3)"),
    "split_cubic_etale(Z)": lambda: split_cubic_etale(ZZ),
    "split_cubic_etale(F5)": lambda: split_cubic_etale(GF(5)),
    "her3(Z/6)": lambda: parse_algebra("her3(Z/6)"),
    "her3(zorn(F2))": lambda: parse_algebra("her3(zorn(F2))"),
    "tits(mat3(F3),2)": lambda: parse_algebra("tits(mat3(F3),2)"),
}


@pytest.mark.parametrize("name", ALGEBRAS)
def test_element_api(name):
    A = ALGEBRAS[name]()
    R, n = A.ring, A.dim
    conic = isinstance(A, ConicAlgebra)
    adjoint = A.conj_vec if conic else A.sharp_vec
    rng = random.Random(7)
    xs = [A.one(), A.zero(), A.one() + A.one()] + [A.random_element(rng) for _ in range(6)]
    assert all(type(x) is ModuleElement and x.algebra is A for x in xs)
    units = 0
    for x in xs:
        # try_inverse is N(x)^{-1} adj(x) exactly when N(x) is a unit
        ninv = R.inv(A.norm_payload(x.coords))
        inv = A.try_inverse(x)
        if ninv is None:
            assert inv is NOT_A_UNIT
        else:
            units += 1
            assert inv == A.element(scale_vec(R, ninv, adjoint(x.coords)))
            assert (A.mul(x, inv) if conic else A.u_op(x, inv)) == (A.one() if conic else x)
        # the element's norm and trace are the algebra's
        assert x.norm() == A.norm_of(x) == R.scalar(A.norm_payload(x.coords))
        assert x.trace() == A.trace(x) == R.scalar(A.trace_lin(x.coords))
        if not conic:
            assert x.norm() == A.norm(x)
    assert units >= 1 and A.try_inverse(A.zero()) is NOT_A_UNIT
    # the constructors
    assert A.one().coords == (A.unit if conic else A.basepoint)
    assert A.zero().is_zero() and A.zero().coords == [R.zero] * n
    for i in range(n):
        assert A.basis_element(i).coords == basis(R, n, i)
    assert A.element(range(n)).coords == [R.coerce(i) for i in range(n)]
    with pytest.raises(ValueError, match=f"expected {n} coordinates, got {n + 1}"):
        A.element(range(n + 1))
    # * is the algebra's product between elements, else a scalar multiple
    x, y = xs[-2:]
    assert 2 * x == x * 2 == x + x
    if conic:
        assert x * y == A.mul(x, y)
    else:
        with pytest.raises(TypeError, match="has no product"):
            x * y


def test_reprs_are_unchanged():
    A = split_etale(ZZ)
    assert repr(A.element([2, -5])) == "(2, -5)"
    assert repr(A) == "split_etale(dim=2, ring=ZZ)"
    assert repr(split_cubic_etale(GF(5)).one()) == "(1 mod 5, 1 mod 5, 1 mod 5)"


def test_element_of_another_algebra_is_refused():
    Z, F = split_cubic_etale(ZZ), split_cubic_etale(GF(5))
    x, one = F.element([4, 4, 4]), Z.one()
    calls = [
        lambda: Z.norm(x),
        lambda: Z.norm_of(x),
        lambda: Z.trace(x),
        lambda: Z.try_inverse(x),
        lambda: Z.sharp(x),
        lambda: Z.strace(x),
        lambda: Z.cross(one, x),
        lambda: Z.trace_pair(x, one),
        lambda: Z.u_op(one, x),
        lambda: Z.triple(one, one, x),
        lambda: Z.power(x, 2),
        lambda: Z.is_idempotent(x),
        lambda: one + x,
        lambda: one - x,
    ]
    K, G = split_etale(ZZ), split_etale(GF(5))
    u = G.element([4, 4])
    calls += [
        lambda: K.norm_of(u),
        lambda: K.trace(u),
        lambda: K.try_inverse(u),
        lambda: K.conj(u),
        lambda: K.mul(K.one(), u),
        lambda: K.one() * u,
        lambda: K.classify_idempotent(u),
    ]
    # helpers that take an element of the algebra beneath them
    O, A = cartan_schouten(QQ), mat3(GF(5))
    S = sedenions(QQ)
    calls += [
        lambda: composition_defect_formula(S.one(), sedenions(GF(5)).one()),
        lambda: hurwitz().contains(quaternions(GF(5)).element([4, 4, 4, 4])),
        lambda: element_from_parts(her3(O), [0, 0, 0], [cartan_schouten(ZZ).one(), O.one(), O.one()]),
        lambda: mu_rescale_map(A, 1, mat3(GF(7)).data.one()),
    ]
    for call in calls:
        with pytest.raises(RingMismatch, match="different algebra"):
            call()
