"""The strict checker decides polynomial-law vanishing, not set-map vanishing."""

import random

import pytest

from octad.cayley import octonions, quaternions, sedenions
from octad.conic import cartan_schouten, split_etale
from octad.identities import (
    CONIC_IDENTITIES,
    DEFAULT_SEED,
    PRESAMPLES,
    CostGuardError,
    IdentitySpec,
    check_identity,
    multiset_count,
    sampled_identity_check,
    smallest_failure,
    strict_identity_check,
)
from octad.extensions import PolyExt
from octad.linalg import TermMap, sub_vec
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring
from octad.zorn import zorn_algebra
from reference_paths import exponents, sampled_identity_check_by_coordinates


def test_associative_algebras_pass_everything():
    A = split_etale(ZZ)
    for name in (
        "degree2",
        "flexible",
        "left-alternative",
        "right-alternative",
        "moufang-left",
        "moufang-middle",
        "moufang-right",
        "kirmse",
        "kirmse-left",
        "norm-comp",
        "norm-assoc",
        "associative",
        "commutative",
    ):
        assert strict_identity_check(A, name).holds, name


def test_quaternions_fail_commutativity_with_lex_smallest_witness():
    H = quaternions(QQ)
    v = strict_identity_check(H, "commutative")
    assert not v.holds
    assert v.witness == ((1,), (2,))


def test_octonions_alternative_not_associative():
    O = octonions(QQ)
    for name in ("left-alternative", "right-alternative", "flexible"):
        assert strict_identity_check(O, name).holds
    v = strict_identity_check(O, "associative")
    assert not v.holds
    assert v.witness == ((1,), (2,), (4,))


def test_kirmse_on_cs_octonions_over_zz():
    O = cartan_schouten(ZZ)
    assert strict_identity_check(O, "kirmse").holds
    assert strict_identity_check(O, "kirmse-left").holds


def test_sedenion_norm_composition_fails():
    S = sedenions(QQ)
    v = strict_identity_check(S, "norm-comp")
    assert not v.holds
    # witness multisets name basis vectors with a nonzero defect
    (xw, yw) = v.witness
    x = S.element([1 if i in xw else 0 for i in range(16)])
    y = S.element([1 if i in yw else 0 for i in range(16)])
    from octad.cayley import composition_defect

    assert composition_defect(x, y) != ZZ.scalar(0)


def _setmap_zero(alg, L, vs):
    # x0^2 x1 + x0 x1^2 vanishes at every point of GF(2)^2 but not as a law
    (x,) = vs
    a, b = x[0], x[1]
    t = L.add(L.mul(L.mul(a, a), b), L.mul(a, L.mul(b, b)))
    return [t, L.zero]


SETMAP_ZERO = IdentitySpec("setmap-zero", (3,), _setmap_zero)


def test_polynomial_law_vs_set_map_over_f2():
    A = split_etale(GF(2))
    # vanishes on all four points of the set map
    R = GF(2)
    for a in range(2):
        for b in range(2):
            val = _setmap_zero(A, R, [[a, b]])
            assert R.is_zero(val[0])
    v = strict_identity_check(A, SETMAP_ZERO)
    assert not v.holds and v.witness == ((0, 0, 1),)
    # so no number of sampled points refutes it
    assert sampled_identity_check(A, SETMAP_ZERO).holds


def test_sampled_mode_decides_the_set_map_zero_law_strictly():
    """Sampled mode inside the guard is a proof: the pre-draws all pass and
    the strict check finds the failure that no point of GF(2)^2 shows."""
    v = check_identity(split_etale(GF(2)), SETMAP_ZERO, mode="sampled")
    assert (v.holds, v.mode, v.witness) == (False, "strict", ((0, 0, 1),))
    # row 0 is the only nonzero row of the value
    assert v.details == {"identity": "setmap-zero", "coordinate": 0, "seed": DEFAULT_SEED, "presamples": PRESAMPLES}


def test_sampled_mode_catches_gross_failures():
    H = quaternions(QQ)
    v = sampled_identity_check(H, "commutative", samples=50)
    assert not v.holds and v.mode == "sampled"


def test_cost_guard():
    S = sedenions(QQ)

    def evaluate(alg, L, vs):
        return [L.zero] * alg.dim

    # 816 * 816 generic monomials at dimension 16
    too_big = IdentitySpec("user6", (3, 3), evaluate)
    with pytest.raises(CostGuardError):
        strict_identity_check(S, too_big)
    # sampled mode remains available
    assert sampled_identity_check(S, too_big, samples=5).holds


def test_multiset_count():
    assert multiset_count(27, (4,)) == 27405
    assert multiset_count(8, (2, 1, 1)) == 36 * 8 * 8


def test_deterministic_verdicts():
    O = octonions(QQ)
    v1 = strict_identity_check(O, "associative")
    v2 = strict_identity_check(O, "associative")
    assert v1.witness == v2.witness


def test_witness_order_on_values_that_are_not_multihomogeneous():
    """A user identity may leave a slot short or empty in some monomials.
    The smallest witness is the least tuple of index multisets, with () and
    short multisets first, as a min over every monomial of the value finds."""
    A = split_etale(ZZ)
    n = A.dim

    def by_every_monomial(ident):
        L = PolyExt(ZZ, n * len(ident.multidegree), ident.total_degree)
        vectors = [[L.var(n * v + i) for i in range(n)] for v in range(len(ident.multidegree))]
        rows = ident.evaluate(A, L, vectors)
        found = []
        for k, c in enumerate(rows):
            for key in c:
                exps = exponents(L, key)
                slots = [[i for i in range(n) for _ in range(exps[n * v + i])] for v in range(len(vectors))]
                found.append((tuple(map(tuple, slots)), k))
        return min(found)

    values = {
        "empty slot 0": lambda L, x, y, z: [L.mul(x[0], y[0]), L.mul(y[1], z[1])],
        "short slot 0": lambda L, x, y, z: [L.mul(L.mul(x[0], x[0]), y[1]), L.mul(x[0], y[0])],
        "short slot 1": lambda L, x, y, z: [L.mul(x[1], z[0]), L.mul(L.mul(x[1], y[0]), z[0])],
        "constant": lambda L, x, y, z: [L.mul(x[0], y[0]), L.one],
    }
    for name, value in values.items():
        ident = IdentitySpec(name, (1, 1, 1), lambda alg, L, vs, value=value: value(L, *vs))
        assert smallest_failure(A, ident) == by_every_monomial(ident), name


# fails where x_0 = y_(n-1): about one point in |R|, so failures come at varied trials
RARE = IdentitySpec("rare", (1, 1), lambda alg, L, vs: L.one if L.eq(vs[0][0], vs[1][-1]) else L.zero, scalar=True)


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(3), Zmod(6), product_ring(ZZ, GF(3))], ids=repr)
def test_sampled_check_draws_the_stream_of_one_rand_per_coordinate(ring):
    """The bulk draws of sampled_identity_check give the trial and witness
    of drawing each coordinate on its own."""
    A = zorn_algebra(ring)
    trials = []
    for ident in (RARE, "associative", "commutative"):
        for seed in range(6):
            v = sampled_identity_check(A, ident, seed=seed)
            want = sampled_identity_check_by_coordinates(A, ident, seed=seed)
            assert not want.holds
            assert v.to_dict() == want.to_dict()
            trials.append(v.details["trial"])
    assert max(trials) > 0


# -- the associator laws against their explicit formulas ----------------------------


def _m(alg, L, x, y):
    return alg.mul_vec(x, y, L)


def _flexible(alg, L, vs):
    x, y = vs
    return sub_vec(L, _m(alg, L, _m(alg, L, x, y), x), _m(alg, L, x, _m(alg, L, y, x)))


def _left_alternative(alg, L, vs):
    x, y = vs
    return sub_vec(L, _m(alg, L, x, _m(alg, L, x, y)), _m(alg, L, _m(alg, L, x, x), y))


def _right_alternative(alg, L, vs):
    x, y = vs
    return sub_vec(L, _m(alg, L, _m(alg, L, y, x), x), _m(alg, L, y, _m(alg, L, x, x)))


def _associative(alg, L, vs):
    x, y, z = vs
    return sub_vec(L, _m(alg, L, _m(alg, L, x, y), z), _m(alg, L, x, _m(alg, L, y, z)))


EXPLICIT_LAWS = {
    "flexible": IdentitySpec("flexible", (2, 1), _flexible),
    "left-alternative": IdentitySpec("left-alternative", (2, 1), _left_alternative),
    "right-alternative": IdentitySpec("right-alternative", (2, 1), _right_alternative),
    "associative": IdentitySpec("associative", (1, 1, 1), _associative),
}


class TableAlgebra:
    """A bare algebra given by its structure constants {(a, b, k): c}."""

    def __init__(self, ring, dim, products):
        self.ring, self.dim = ring, dim
        self._product = TermMap(ring, products, 2, dim)

    def mul_vec(self, x, y, L=None):
        return self._product.bilinear(x, y, L)


def _random_table_algebra(ring, dim, seed):
    rng = random.Random(seed)
    products = {(a, b, k): rng.choice((-1, 0, 0, 1, 2)) for a in range(dim) for b in range(dim) for k in range(dim)}
    return TableAlgebra(ring, dim, products)


# name -> (an algebra where the law holds, one where it fails)
ASSOCIATOR_CASES = {
    "flexible": (lambda: sedenions(QQ), lambda: _random_table_algebra(ZZ, 3, 11)),
    "left-alternative": (lambda: octonions(QQ), lambda: sedenions(QQ)),
    "right-alternative": (lambda: cartan_schouten(Zmod(6)), lambda: sedenions(QQ)),
    "associative": (lambda: quaternions(QQ), lambda: octonions(QQ)),
}


@pytest.mark.parametrize("name", sorted(ASSOCIATOR_CASES))
def test_associator_laws_match_their_explicit_formulas(name):
    """Each law is one associator: the same strict verdict and witness as
    its written-out formula where it holds and where it fails."""
    holds, fails = (make() for make in ASSOCIATOR_CASES[name])
    for alg, want in ((holds, True), (fails, False)):
        v = strict_identity_check(alg, CONIC_IDENTITIES[name])
        ref = strict_identity_check(alg, EXPLICIT_LAWS[name])
        assert (v.holds, v.witness) == (ref.holds, ref.witness)
        assert v.holds is want
        assert v.to_dict() == ref.to_dict()


@pytest.mark.parametrize("name", ["flexible", "left-alternative"])
def test_sampled_associator_failure_matches_the_explicit_formula(name):
    alg = _random_table_algebra(ZZ, 3, 11) if name == "flexible" else sedenions(QQ)
    v = sampled_identity_check(alg, CONIC_IDENTITIES[name], seed=5)
    ref = sampled_identity_check(alg, EXPLICIT_LAWS[name], seed=5)
    assert not v.holds and v.mode == "sampled"
    assert v.to_dict() == ref.to_dict()
