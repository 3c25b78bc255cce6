import itertools
import random

import pytest

from octad.identities import CostGuardError, run_suite, strict_identity_check
from octad.scalars import GF, ZZ
from octad.zorn import (
    ZornElement,
    _to_coords,
    count_field,
    gen_X,
    idem_E,
    invertibles_closed_form,
    norm_one_closed_form,
    presentation_suite,
    zorn_algebra,
    zorn_mul,
    zorn_unit,
)


def test_generator_products():
    E, X1, X2 = idem_E(ZZ), gen_X(ZZ, 1), gen_X(ZZ, 2)
    X3 = gen_X(ZZ, 3)
    one = zorn_unit(ZZ)
    assert zorn_mul(X1, X2) == X3
    assert zorn_mul(X1, X1) == one
    assert zorn_mul(X2, X2) == one
    assert zorn_mul(zorn_mul(X1, X2), X1) == -X2
    ex1 = zorn_mul(E, X1)
    assert ex1.a1 == 0 and ex1.a2 == 0
    assert list(ex1.u2) == [-1, 0, 0] and list(ex1.u1) == [0, 0, 0]


def test_norm_trace_degree2():
    # n(x) must close the degree-2 identity with the product convention
    rng = random.Random(4)
    for _ in range(50):
        x = _random_zorn(rng)
        t = x.trace().payload
        n = x.norm().payload
        sq = zorn_mul(x, x)
        lhs = sq + _scale(x, -t)
        assert lhs == _scale(zorn_unit(ZZ), -n)


def _random_zorn(rng):
    from octad.zorn import ZornElement

    return ZornElement(
        ZZ,
        rng.randint(-5, 5),
        [rng.randint(-5, 5) for _ in range(3)],
        [rng.randint(-5, 5) for _ in range(3)],
        rng.randint(-5, 5),
    )


def _scale(z, c):
    from octad.zorn import ZornElement

    return ZornElement(
        ZZ, c * z.a1, [c * t for t in z.u2], [c * t for t in z.u1], c * z.a2
    )


def test_grassmann_identity_on_basis_triples():
    # (u x v) x w = <u, w> v - <v, w> u; trilinear, so basis triples suffice
    from octad.zorn import _cross

    R = ZZ
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for u in basis:
        for v in basis:
            for w in basis:
                lhs = _cross(R, _cross(R, u, v), w)
                uw = R.dot(u, w)
                vw = R.dot(v, w)
                rhs = tuple(uw * b - vw * a for a, b in zip(u, v))
                assert tuple(lhs) == rhs


def test_presentation_suite():
    for ring in (ZZ, GF(5)):
        alg = zorn_algebra(ring)
        e = alg.element(_to_coords(ring, idem_E(ring)))
        x1 = alg.element(_to_coords(ring, gen_X(ring, 1)))
        x2 = alg.element(_to_coords(ring, gen_X(ring, 2)))
        assert presentation_suite(alg, e, x1, x2).holds
    alg = zorn_algebra(ZZ)
    x1 = alg.element(_to_coords(ZZ, gen_X(ZZ, 1)))
    x2 = alg.element(_to_coords(ZZ, gen_X(ZZ, 2)))
    assert not presentation_suite(alg, alg.one(), x1, x2).holds


def test_strict_identities():
    for ring in (ZZ, GF(2), GF(3)):
        alg = zorn_algebra(ring)
        assert alg.check_degree2().holds
        for name in ("left-alternative", "right-alternative", "flexible"):
            assert strict_identity_check(alg, name).holds, (ring, name)
        for name, v in run_suite(alg, "moufang"):
            assert v.holds, (ring, name)
        assert strict_identity_check(alg, "norm-comp").holds


def test_conic_bridge():
    # products through the structure-constant table match zorn_mul
    ring = ZZ
    alg = zorn_algebra(ring)
    rng = random.Random(9)
    for _ in range(30):
        x = _random_zorn(rng)
        y = _random_zorn(rng)
        via_table = alg.mul(alg.element(_to_coords(ring, x)), alg.element(_to_coords(ring, y)))
        direct = alg.element(_to_coords(ring, zorn_mul(x, y)))
        assert via_table == direct


def test_counts_f2():
    assert count_field(2, "invertibles") == 120
    assert count_field(2, "norm_one") == 120
    assert invertibles_closed_form(2) == 120
    assert norm_one_closed_form(2) == 120


def test_counts_f3():
    assert count_field(3, "invertibles") == 4320
    assert invertibles_closed_form(3) == 4320
    assert count_field(3, "norm_one") == norm_one_closed_form(3) == 2160


def test_counts_f5():
    assert count_field(5, "invertibles") == invertibles_closed_form(5)
    assert count_field(5, "norm_one") == norm_one_closed_form(5)


def test_elementary_idempotent_count_oracle_f2():
    # brute-force oracle over all 256 elements of Zorn(F2)
    alg = zorn_algebra(GF(2))
    import itertools

    count = 0
    for coords in itertools.product((0, 1), repeat=8):
        c = alg.element(list(coords))
        if alg.mul(c, c) == c and not c.is_zero() and c != alg.one():
            if alg.classify_idempotent(c) == "Elementary":
                count += 1
    assert count == count_field(2, "elementary_idempotents")


@pytest.mark.parametrize("p", [2, 3])
def test_censuses_against_brute_force(p):
    # every one of the p^8 elements; an elementary idempotent is a
    # nontrivial idempotent (over a field)
    R = GF(p)
    one, zero = zorn_unit(R), ZornElement(R, 0, [0] * 3, [0] * 3, 0)
    counts = {"invertibles": 0, "norm_one": 0, "elementary_idempotents": 0}
    for a1, a2, *u in itertools.product(range(p), repeat=8):
        x = ZornElement(R, a1, u[:3], u[3:], a2)
        n = x.norm()
        counts["invertibles"] += not n.is_zero()
        counts["norm_one"] += n == 1
        counts["elementary_idempotents"] += zorn_mul(x, x) == x and x != zero and x != one
    assert counts == {what: count_field(p, what) for what in counts}


def test_cost_guard():
    with pytest.raises(CostGuardError):
        count_field(11, "invertibles")
