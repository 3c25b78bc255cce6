"""conic.build_conic and the strict map laws.

Cayley-Dickson doubles and Zorn(k) are read from one evaluation at the
generic element; tests/reference_paths.py keeps the basis-pair loops that
built them before, and their JSON must agree byte for byte.  The laws of
an AlgebraMap (product and norm) and the nucleus condition of
scale_isomorphism are decided by the strict checker; each is tested on a
map or element that breaks it alone.
"""

import pytest

from octad.cayley import (
    NORM_LAW,
    PRODUCT_LAW,
    AlgebraMap,
    cayley_dickson,
    ground_algebra,
    nucleus_law,
    octonions,
    quaternions,
    scale_isomorphism,
)
from octad.conic import ConicAlgebra, build_conic, quadratic, split_etale
from octad.extensions import lift_vec
from octad.identities import CONIC_IDENTITIES, IdentitySpec, strict_identity_check
from octad.linalg import basis
from octad.quadforms import QuadraticForm
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring
from octad.zorn import zorn_algebra
from dense_layout import table_products, unchecked
from reference_paths import cayley_dickson_by_basis_pairs, zorn_algebra_by_basis_products

RINGS = [ZZ, QQ, GF(2), GF(3), GF(5), Zmod(4), Zmod(6)]
MU_LISTS = [
    (-1, -1, -1),
    (1, 1, 1),
    (-1, 3, -1),
    (5, 7),
    (-1, 2, -1),  # 2 is no unit in ZZ, Z/4, Z/6 and zero in GF(2)
]
# every ring and mu-list, and the sedenions on two rings
CASES = [(R, mus) for R in RINGS for mus in MU_LISTS] + [(QQ, (-1,) * 4), (GF(3), (-1,) * 4)]


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("R, mus", CASES, ids=[f"{R!r};{','.join(map(str, mus))}" for R, mus in CASES])
def test_cayley_dickson_matches_the_basis_pair_loop(R, mus):
    fast = slow = ground_algebra(R)
    for mu in mus:
        fast = _outcome(cayley_dickson, fast, mu)
        slow = _outcome(cayley_dickson_by_basis_pairs, slow, mu)
        if isinstance(slow, str):
            assert fast == slow == "ValueError: mu must be a unit"
            return
        assert fast.name == slow.name
        assert fast.to_json() == slow.to_json()
        assert fast.cd_mu == slow.cd_mu and fast.cd_base.to_json() == slow.cd_base.to_json()


@pytest.mark.parametrize("R", RINGS + [product_ring(ZZ, GF(3))], ids=repr)
def test_zorn_matches_the_basis_products(R):
    fast, slow = zorn_algebra(R), zorn_algebra_by_basis_products(R)
    assert fast.name == slow.name
    assert fast.to_json() == slow.to_json()


@pytest.mark.parametrize("R", [ZZ, GF(2), Zmod(6)], ids=repr)
def test_build_conic_reproduces_split_etale_and_quadratic(R):
    def etale_mul(L, x, y):
        return [L.mul(x[0], y[0]), L.mul(x[1], y[1])]

    got = build_conic(R, 2, [1, 1], etale_mul, lambda L, x: L.mul(x[0], x[1]), name="split_etale")
    assert got.to_json() == split_etale(R).to_json()
    a, b = R.from_int(3), R.from_int(5)

    def quad_mul(L, x, y):
        # (x0 + x1 t)(y0 + y1 t) with t^2 = a t - b
        tt = L.mul(x[1], y[1])
        cross = L.add(L.mul(x[0], y[1]), L.mul(x[1], y[0]))
        return [L.sub(L.mul(x[0], y[0]), L.mul(L.from_base(b), tt)), L.add(cross, L.mul(L.from_base(a), tt))]

    def quad_norm(L, x):
        mixed = L.mul(L.from_base(a), L.mul(x[0], x[1]))
        return L.add(L.add(L.mul(x[0], x[0]), mixed), L.mul(L.from_base(b), L.mul(x[1], x[1])))

    assert build_conic(R, 2, [1, 0], quad_mul, quad_norm).to_json() == quadratic(R, a, b).to_json()


def test_build_conic_rejects_terms_of_the_wrong_degree():
    norm = lambda L, x: L.mul(x[0], x[0])
    mul = lambda L, x, y: [L.mul(x[0], y[0])]
    build_conic(QQ, 1, [1], mul, norm)
    with pytest.raises(ValueError, match="mul_fn has a term of degree 1, expected 2"):
        build_conic(QQ, 1, [1], lambda L, x, y: [L.add(L.mul(x[0], y[0]), x[0])], norm)
    with pytest.raises(ValueError, match="mul_fn has a term of degree 3, expected 2"):
        build_conic(QQ, 1, [1], lambda L, x, y: [L.mul(L.mul(x[0], y[0]), y[0])], norm)
    with pytest.raises(ValueError, match="mul_fn is not bilinear"):
        build_conic(QQ, 1, [1], lambda L, x, y: [L.mul(x[0], x[0])], norm)
    with pytest.raises(ValueError, match="norm_fn has a term of degree 0, expected 2"):
        build_conic(QQ, 1, [1], mul, lambda L, x: L.add(L.mul(x[0], x[0]), L.one))
    with pytest.raises(ValueError, match="norm_fn has a term of degree 3, expected 2"):
        build_conic(QQ, 1, [1], mul, lambda L, x: L.mul(x[0], L.mul(x[0], x[0])))


# -- map laws ---------------------------------------------------------------------


def _identity_columns(A):
    return [basis(A.ring, A.dim, i) for i in range(A.dim)]


def test_identity_map_is_a_homomorphism():
    for A in (quaternions(QQ), octonions(GF(3)), zorn_algebra(Zmod(6))):
        assert AlgebraMap(A, A, _identity_columns(A)).verify_homomorphism()


def test_product_only_corruption_fails():
    # i -> -i keeps the diagonal norm and the unit, but f(ij) = k != -k = f(i) f(j)
    H = quaternions(QQ)
    columns = _identity_columns(H)
    columns[1] = [QQ.neg(c) for c in columns[1]]
    f = AlgebraMap(H, H, columns)
    assert strict_identity_check(f, NORM_LAW).holds
    product = strict_identity_check(f, PRODUCT_LAW)
    assert not product.holds and product.witness == ((1,), (2,))
    assert not f.verify_homomorphism()


def test_norm_only_corruption_fails():
    # Z[t]/((t - 1)(t - 2)) -> itself by t -> 1: a unital ring map, but
    # n(t) = 2 while n(1) = 1
    A = quadratic(ZZ, 3, 2)
    f = AlgebraMap(A, A, [[1, 0], [1, 0]])
    assert strict_identity_check(f, PRODUCT_LAW).holds
    norm = strict_identity_check(f, NORM_LAW)
    assert not norm.holds and norm.witness == ((0, 1),)
    assert not f.verify_homomorphism()


def test_unit_corruption_fails():
    H = quaternions(QQ)
    columns = _identity_columns(H)
    columns[0] = [QQ.zero] * 4
    assert not AlgebraMap(H, H, columns).verify_homomorphism()


def test_nucleus_law():
    H, O = quaternions(QQ), octonions(QQ)
    assert strict_identity_check(H, nucleus_law(H.basis_element(1).coords)).holds
    assert strict_identity_check(O, nucleus_law(O.element([2] + [0] * 7).coords)).holds
    assert not strict_identity_check(O, nucleus_law(O.basis_element(1).coords)).holds
    with pytest.raises(ValueError, match="not in the nucleus"):
        scale_isomorphism(O, -1, O.basis_element(1))
    # without the nucleus check the map itself fails verification: the
    # columns of u + v j -> u + (a v) j, with n(a) = 1 so that both sides
    # are Cay(O, -1)
    S, a = cayley_dickson(O, -1), O.basis_element(1).coords
    columns = [basis(QQ, 8, i) + [0] * 8 for i in range(8)]
    columns += [[0] * 8 + O.mul_vec(a, basis(QQ, 8, i)) for i in range(8)]
    assert not AlgebraMap(S, S, columns).verify_homomorphism()
    # a central scalar a = 2 gives Cay(O, 4 mu) -> Cay(O, mu), checked on the sedenions
    fmap = scale_isomorphism(O, -1, O.element([2] + [0] * 7))
    assert fmap.domain.cd_mu == QQ.from_int(-4)
    assert fmap.verify_homomorphism()


# two-dimensional algebras (no unit, no conic structure: the nucleus law
# reads only mul_vec) where a single associator fails for a = e_0 or e_1
ONE_ASSOCIATOR_FAILS = [
    ("[x, y, a]", [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], [1, 0]),
    ("[x, a, y]", [[[1, 0], [1, 0]], [[0, 0], [0, 1]]], [0, 1]),
    ("[a, x, y]", [[[0, 0], [1, 0]], [[0, 0], [1, 0]]], [1, 0]),
]


@pytest.mark.parametrize("which, table, a", ONE_ASSOCIATOR_FAILS, ids=["right", "middle", "left"])
def test_nucleus_law_reads_each_associator(which, table, a):
    A = unchecked(ConicAlgebra)(QQ, 2, table_products(table), [1, 0], QuadraticForm.diagonal(QQ, [1, 1]))
    assoc = CONIC_IDENTITIES["associative"].evaluate
    slots = {"[x, y, a]": (0, 1, None), "[x, a, y]": (0, None, 1), "[a, x, y]": (None, 0, 1)}

    def single(order):
        def evaluate(alg, L, vs):
            return assoc(alg, L, [lift_vec(L, a) if i is None else vs[i] for i in order])

        return strict_identity_check(A, IdentitySpec("one associator", (1, 1), evaluate)).holds

    assert [name for name, order in slots.items() if not single(order)] == [which]
    assert not strict_identity_check(A, nucleus_law(a)).holds
