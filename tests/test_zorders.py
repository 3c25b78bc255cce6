import json
from fractions import Fraction

import pytest

from octad import linalg, zorders
from octad.cayley import cayley_dickson, ground_algebra
from octad.scalars import QQ
from octad.zorders import (
    NAMED_LATTICES,
    ZLattice,
    alternative_dico,
    ambient_to_eps,
    dickson_coxeter,
    eps_membership,
    eps_to_ambient,
    gaussian,
    hurwitz,
    kirmse,
    unit_type_split,
)
from reference_paths import units_by_box_scan


def gaussian_complex():
    return gaussian(cayley_dickson(ground_algebra(QQ), -1))


def test_gaussian_units():
    G = gaussian_complex()
    units = G.enumerate_units()
    assert len(units) == 4
    coords = sorted(tuple(u.coords) for u in units)
    assert coords == sorted(
        [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))]
    )


def test_hurwitz_units_exact_set():
    H = hurwitz()
    units = H.enumerate_units()
    assert len(units) == 24
    want = set()
    for s in (1, -1):
        for i in range(4):
            v = [Fraction(0)] * 4
            v[i] = Fraction(s)
            want.add(tuple(v))
    for signs in range(16):
        v = tuple(
            Fraction(1, 2) if (signs >> k) & 1 == 0 else Fraction(-1, 2) for k in range(4)
        )
        want.add(v)
    got = {tuple(u.coords) for u in units}
    assert got == want


def test_hurwitz_membership():
    H = hurwitz()
    half = Fraction(1, 2)
    assert H.contains(H.ambient.element([half] * 4))
    assert not H.contains(H.ambient.element([half, half, 0, 0]))
    assert H.contains(H.ambient.element([3, -2, 5, 1]))


def test_hurwitz_disc_regression():
    # recorded exact value under the bilinear-norm Gram convention
    assert hurwitz().disc == 4
    assert hurwitz().integral


def test_dico_unimodular_and_units():
    D = dickson_coxeter()
    assert D.disc == 1
    assert D.integral
    units = D.enumerate_units()
    assert len(units) == 240
    ints, halves = unit_type_split(D, units)
    assert (len(ints), len(halves)) == (112, 128)
    # integer-type units are +-e_i +- e_j in half-norm coordinates
    for u in ints:
        eps = ambient_to_eps(u.coords)
        nonzero = [c for c in eps if c != 0]
        assert len(nonzero) == 2 and all(abs(c) == 1 for c in nonzero)
    for u in halves:
        eps = ambient_to_eps(u.coords)
        assert all(abs(c) == Fraction(1, 2) for c in eps)


def test_dico_membership_characterization_agrees():
    D = dickson_coxeter()
    import random

    rng = random.Random(12)
    # random rational vectors with denominators 1 or 2
    for _ in range(200):
        eps = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(8)]
        x = D.ambient.element(eps_to_ambient(eps))
        assert D.contains(x) == eps_membership(eps)
    # the example point (1,1,0,...,0)
    assert D.contains(D.ambient.element(eps_to_ambient([1, 1, 0, 0, 0, 0, 0, 0])))


def test_units_closed_under_mul_and_conj():
    for lat in (gaussian_complex(), hurwitz(), dickson_coxeter()):
        units = lat.enumerate_units()
        keys = {tuple(u.coords) for u in units}
        amb = lat.ambient
        assert tuple(amb.one().coords) in keys
        for u in units:
            assert tuple(amb.conj(u).coords) in keys
            for v in units:
                assert tuple(amb.mul(u, v).coords) in keys


def test_brute_force_box_oracle_rank_le_4():
    for lat in (gaussian_complex(), hurwitz()):
        fp = {tuple(u.coords) for u in lat.enumerate_units()}
        box = {tuple(u.coords) for u in units_by_box_scan(lat)}
        assert fp == box


def test_closure_verdicts():
    assert hurwitz().closed_under_mul().holds
    assert dickson_coxeter().closed_under_mul().holds
    K = kirmse()
    v = K.closed_under_mul()
    assert not v.holds
    # witness pair v1 * v3 = basis indices 4 and 6
    assert (4, 6) in v.witness
    prod = K.ambient.mul_vec(K.basis[4], K.basis[6])
    half = Fraction(1, 2)
    assert prod == [0, half, half, half, 0, half, 0, 0]
    assert not K.contains(K.ambient.element(prod))


def test_kirmse_unimodular_integral():
    K = kirmse()
    assert K.disc == 1
    assert K.integral
    # Gram diagonal = twice the norms, all ones for the v block
    for i in range(4, 8):
        assert K.gram[i][i] == 2
    assert K.gram[4][5] == 0  # Dn(v1, v2) = 0


def test_alternative_dico_identifies_with_dico():
    D = dickson_coxeter()
    P = alternative_dico("p_form")
    assert P.disc == 1
    assert len(P.enumerate_units()) == 240
    assert all(D.contains(D.ambient.element(row)) for row in P.basis)
    assert all(P.contains(P.ambient.element(row)) for row in D.basis)
    # the seed point is in the lattice
    assert D.contains(D.ambient.element(P.basis[4]))


def test_alternative_dico_qform_is_rotated_copy():
    D = dickson_coxeter()
    Q = alternative_dico("q_form")
    assert Q.disc == 1
    assert len(Q.enumerate_units()) == 240

    def rotate(vec, shift):
        out = [Fraction(0)] * 8
        out[0] = vec[0]
        for r in range(1, 8):
            out[((r + shift - 1) % 7) + 1] = vec[r]
        return out

    assert all(Q.contains(Q.ambient.element(rotate(row, 2))) for row in D.basis)
    assert all(D.contains(D.ambient.element(rotate(row, 5))) for row in Q.basis)
    # and q itself is not in the unrotated lattice
    assert not D.contains(D.ambient.element(Q.basis[4]))


def test_integral_flag_checks_basis():
    amb = cayley_dickson(ground_algebra(QQ), -1)
    half = Fraction(1, 2)
    L = ZLattice(amb, [[half, 0], [0, 1]])
    assert not L.integral


def test_lattice_json():
    H = hurwitz()
    blob = json.loads(H.to_json())
    assert blob["ambient_dim"] == 4
    assert blob["disc"] == "4"
    assert blob["integral"] is True
    assert blob["basis"][3] == ["1/2", "1/2", "1/2", "1/2"]


def test_enumerate_units_needs_positive_definite():
    from octad.conic import split_etale

    amb = split_etale(QQ)
    L = ZLattice(amb, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        L.enumerate_units()


def test_lattice_json_read_back():
    from octad.zorders import ZLattice

    H = hurwitz()
    text = H.to_json()
    again = ZLattice.from_json(H.ambient, text, name="hurwitz")
    assert again.basis == H.basis
    assert again.disc == H.disc
    bad = text.replace('"disc": "4"', '"disc": "5"')
    with pytest.raises(ValueError):
        ZLattice.from_json(H.ambient, bad)


def test_coords_of_agrees_with_a_fresh_solve():
    import random

    rng = random.Random(11)
    for make in NAMED_LATTICES.values():
        lat = make()
        for _ in range(20):
            x = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(lat.ambient.dim)]
            assert lat.coords_of(x) == linalg.solve_rational(lat._basis_T, x)
    with pytest.raises(ValueError):
        lat.coords_of([Fraction(1)])


def test_enumerate_units_checks_every_norm(monkeypatch):
    # the check must raise even under python -O, which strips asserts
    monkeypatch.setattr(zorders, "_fincke_pohst", lambda diag, low, target: [(1, 1, 0, 0)])
    with pytest.raises(AssertionError, match="norm != 1"):
        hurwitz().enumerate_units()


def test_element_rejects_wrong_coordinate_count():
    H = hurwitz()
    assert H.element([1, 0, 0, 0]).coords == [1, 0, 0, 0]
    for coords in ([1], [1, 0, 0, 0, 5]):
        with pytest.raises(ValueError):
            H.element(coords)


def _lattice_answers(lat):
    closure = lat.closed_under_mul()
    return (
        lat.gram,
        lat.disc,
        lat.integral,
        lat.to_json(),
        [u.coords for u in lat.enumerate_units()],
        (closure.holds, closure.witness, closure.mode, closure.details),
    )


@pytest.mark.parametrize("name", sorted(NAMED_LATTICES))
def test_named_lattice_is_built_once_and_answers_like_a_fresh_one(name):
    import random

    shared = NAMED_LATTICES[name]()
    assert NAMED_LATTICES[name]() is shared
    fresh = NAMED_LATTICES[name].__wrapped__()
    assert fresh is not shared
    answers = _lattice_answers(shared)
    assert answers == _lattice_answers(fresh)
    # membership and coordinates read the shared lattice's inverse basis, built with it
    rng = random.Random(5)
    points = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(shared.ambient.dim)] for _ in range(30)]
    assert [shared.contains(x) for x in points] == [fresh.contains(x) for x in points]
    assert [shared.coords_of(x) for x in points] == [fresh.coords_of(x) for x in points]
    assert shared._basis_T_inv is not None
    assert _lattice_answers(shared) == answers


def test_public_lattice_constructors_build_fresh_lattices():
    for make in (hurwitz, dickson_coxeter, kirmse, gaussian_complex):
        assert make() is not make()
    assert hurwitz() is not NAMED_LATTICES["hurwitz"]()
