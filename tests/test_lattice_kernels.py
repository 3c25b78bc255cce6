"""The integer lattice kernels of octad.zorders against their rational forms.

The Fincke-Pohst search, ZLattice.element, membership and the half-norm
split run on ints; the references in reference_paths.py are the rational
code they replaced.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

from hypothesis import assume, given, settings, strategies as st

from octad.cayley import cayley_dickson, ground_algebra
from octad.linalg import ldl
from octad.scalars import QQ
from octad.zorders import (
    NAMED_LATTICES,
    _fincke_pohst,
    alternative_dico,
    ambient_to_eps,
    dickson_coxeter,
    eps_membership,
    eps_to_ambient,
    gaussian,
    hurwitz,
    unit_type_split,
)
import reference_paths
from reference_paths import ambient_to_eps_by_solve, box_bound, element_by_fraction_sum, unit_type_split_by_solve

ALL_LATTICES = {
    **NAMED_LATTICES,
    "alternative_dico_p_form": lambda: alternative_dico("p_form"),
    "alternative_dico_q_form": lambda: alternative_dico("q_form"),
}


def _box_scan(gram, target):
    """Every x in the box of box_bound with x^T G x == target, on ints."""
    n = len(gram)
    bound = box_bound(gram, target)
    den = lcm(*(c.denominator for row in gram for c in row))
    rows = [[int(c * den) for c in row] for row in gram]
    want = target * den
    out = []
    for x in itertools.product(range(-bound, bound + 1), repeat=n):
        if sum(x[i] * sum(a * b for a, b in zip(rows[i], x)) for i in range(n)) == want:
            out.append(x)
    return out


@st.composite
def ldl_grams(draw):
    """G = L D L^T with random rational unit lower-triangular L and positive D."""
    n = draw(st.integers(1, 4))
    frac = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            low[i][j] = draw(frac)
    diag = [draw(st.builds(Fraction, st.integers(1, 4), st.sampled_from([1, 2]))) for _ in range(n)]
    gram = [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return gram


@settings(derandomize=True, max_examples=80, deadline=None)
@given(ldl_grams(), st.integers(1, 6))
def test_integer_fincke_pohst_agrees_with_rational_and_box_scan(gram, t):
    target = Fraction(t)
    assume((2 * box_bound(gram, target) + 1) ** len(gram) <= 20000)
    diag, low = ldl(gram)
    fast = sorted(_fincke_pohst(diag, low, target))
    assert fast == sorted(reference_paths._fincke_pohst(diag, low, target))
    assert fast == _box_scan(gram, target)


def test_fincke_pohst_finds_points_on_rational_grams():
    # a Gram matrix with quarters, and targets that are not integers
    gram = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 2)]]
    diag, low = ldl(gram)
    for t in (Fraction(1, 2), Fraction(3, 2), Fraction(2)):
        got = sorted(_fincke_pohst(diag, low, t))
        assert got and got == _box_scan(gram, t) == sorted(reference_paths._fincke_pohst(diag, low, t))


def test_integer_fincke_pohst_on_every_named_lattice():
    counts = {}
    for name, make in ALL_LATTICES.items():
        lat = make()
        diag, low = ldl(lat.gram)
        fast = sorted(_fincke_pohst(diag, low, Fraction(2)))
        assert fast == sorted(reference_paths._fincke_pohst(diag, low, Fraction(2))), name
        counts[name] = len(fast)
    assert counts == {
        "gaussian": 4,
        "hurwitz": 24,
        "dico": 240,
        "kirmse": 240,
        "alternative_dico_p_form": 240,
        "alternative_dico_q_form": 240,
    }


def test_element_agrees_with_the_fraction_sum():
    rng = random.Random(6)
    for name, make in ALL_LATTICES.items():
        lat = make()
        diag, low = ldl(lat.gram)
        points = _fincke_pohst(diag, low, Fraction(2))
        points += [[rng.randint(-5, 5) for _ in range(lat.rank)] for _ in range(30)]
        for c in points:
            fast, slow = lat.element(c), element_by_fraction_sum(lat, c)
            assert fast.coords == slow.coords, name
            assert [type(a) for a in fast.coords] == [type(a) for a in slow.coords], name


def _half_or_int(rng, half):
    k = rng.randint(-3, 3)
    return Fraction(2 * k + 1, 2) if half else Fraction(k)


def _draw_hurwitz(rng):
    kind = rng.randrange(3)
    if kind == 0:
        coords = [_half_or_int(rng, False) for _ in range(4)]
    elif kind == 1:
        coords = [_half_or_int(rng, True) for _ in range(4)]
    else:
        halves = [rng.random() < 0.5 for _ in range(4)]
        if all(halves) or not any(halves):
            halves[rng.randrange(4)] = not halves[0]
        coords = [_half_or_int(rng, h) for h in halves]
        if rng.random() < 0.25:
            coords[rng.randrange(4)] = Fraction(rng.choice((1, 2, 4, 5)), 3)
    return coords


def _draw_gaussian(rng):
    coords = []
    for _ in range(2):
        den = rng.choice((1, 1, 2, 3))
        coords.append(Fraction(rng.randint(0 if den == 3 else -6, 6), den))
    return coords


def test_contains_agrees_with_integral_coordinates():
    rng = random.Random(7)
    cases = [
        (hurwitz(), _draw_hurwitz),
        (gaussian(cayley_dickson(ground_algebra(QQ), -1)), _draw_gaussian),
    ]
    for lat, draw in cases:
        seen = {"member": 0, "other": 0, "thirds": 0, "mixed halves": 0}
        for _ in range(400):
            coords = draw(rng)
            x = lat.ambient.element(coords)
            member = lat.contains(x)
            assert member == all(c.denominator == 1 for c in lat.coords_of(x)), coords
            assert lat.contains(coords) == member
            seen["member" if member else "other"] += 1
            dens = {c.denominator for c in coords}
            seen["thirds"] += 3 in dens
            seen["mixed halves"] += dens >= {1, 2}
        assert all(seen.values()), seen


def test_unit_type_split_agrees_with_solve_rational():
    D = dickson_coxeter()
    units = D.enumerate_units()
    assert unit_type_split(D, units) == unit_type_split_by_solve(D, units)
    rng = random.Random(8)
    points = []
    while len(points) < 50:
        den = rng.choice((1, 2))
        eps = [Fraction(den * rng.randint(-3, 2) + den - 1, den) for _ in range(8)]
        if eps_membership(eps) and sum(c * c for c in eps) != 2:
            points.append(D.ambient.element(eps_to_ambient(eps)))
    assert all(D.contains(p) for p in points)
    ints, halves = unit_type_split(D, points)
    assert (ints, halves) == unit_type_split_by_solve(D, points)
    assert ints and halves
    for p in points + units:
        eps = ambient_to_eps(p.coords)
        assert eps == ambient_to_eps_by_solve(p.coords)
        assert all(type(c) is Fraction for c in eps)
