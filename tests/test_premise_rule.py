"""run_suite's premise rule on conic algebras, against the strict checker.

A law of identities.IMPLIED_BY reads Holds (implied) only when its
premises hold strictly, and then the strict checker must agree; every
other verdict is check_identity's, with its mode, trial and witness.
"""

import pytest
from hypothesis import given, settings, strategies as st

from octad import identities
from octad.cayley import iterated_cayley_dickson, sedenions
from octad.cli import parse_algebra
from octad.conic import UNIT_LAW, ConicAlgebra
from octad.identities import (
    DEFAULT_SEED,
    IMPLIED_BY,
    PRESAMPLES,
    check_identity,
    run_suite,
    sampled_identity_check,
    strict_identity_check,
)
from octad.quadforms import QuadraticForm
from octad.scalars import QQ
from octad.zorn import zorn_algebra
from dense_layout import conic_table, table_products, unchecked
from test_generic_element import RINGS

ALTERNATIVE = ["unit", "degree2", "kirmse", "kirmse-left"]
SUITES = ["moufang", "alternative", "flexible", "left-alternative", "right-alternative", "kirmse", "norm-comp"]


def _strict(A, name):
    return strict_identity_check(A, UNIT_LAW if name == "unit" else name)


@st.composite
def corrupted_conics(draw):
    """An alternative conic algebra of dimension at most 8, passed unchecked:
    as it is, with one structure constant changed, or with e_a e_b raised
    and e_b e_a lowered by the same constant, which keeps the degree-2 law
    and, where the unit is e_0 and a, b > 0, the unit law."""
    R = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    if draw(st.booleans()):
        base = zorn_algebra(R)
    else:
        base = iterated_cayley_dickson(R, draw(st.lists(st.sampled_from([-1, 1]), max_size=3)))
    n = base.dim
    table = conic_table(base)
    kind = draw(st.sampled_from(["none", "one", "antisymmetric"]))
    c = R.from_int(draw(st.sampled_from([1, -1, 2])))
    if kind == "one":
        a, b, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b][k] = R.add(table[a][b][k], c)
    elif kind == "antisymmetric" and n > 2:
        a, b = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        k = draw(st.integers(0, n - 1))
        table[a][b][k] = R.add(table[a][b][k], c)
        table[b][a][k] = R.sub(table[b][a][k], c)
    return unchecked(ConicAlgebra)(R, n, table_products(table), base.unit, base.norm, name="corrupted")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(corrupted_conics(), st.sampled_from(SUITES), st.sampled_from(["strict", "sampled"]), st.integers(0, 2**32 - 1))
def test_implied_verdicts_match_the_strict_checker(A, suite, mode, seed):
    for name, v in run_suite(A, suite, mode, seed):
        if v.mode != "implied":
            assert v.to_dict() == check_identity(A, name, mode, seed).to_dict()
            continue
        assert _strict(A, name).holds
        premises = list(IMPLIED_BY[name])
        assert all(_strict(A, p).holds for p in premises)
        details = {"identity": name, "premises": premises}
        if mode == "sampled":
            assert sampled_identity_check(A, name, seed=seed, samples=PRESAMPLES).holds
            details.update(seed=seed, presamples=PRESAMPLES)
        assert (v.holds, v.witness, v.details) == (True, None, details)
    # either Kirmse law at y = 1 is the degree-2 law once the unit law holds
    if _strict(A, "unit").holds and (_strict(A, "kirmse").holds or _strict(A, "kirmse-left").holds):
        assert _strict(A, "degree2").holds


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("make", [zorn_algebra, lambda R: iterated_cayley_dickson(R, [-1, 1, -1])], ids=["zorn", "cay"])
def test_an_unchecked_algebra_decides_its_construction_laws_on_first_use(make, ring):
    base = make(RINGS[ring])
    assert "construction_laws" in vars(base)  # construction decided them
    A = unchecked(ConicAlgebra)(base.ring, base.dim, base.products, base.unit, base.norm)
    assert "construction_laws" not in vars(A)
    for name, v in run_suite(A, "moufang") + run_suite(A, "alternative"):
        assert (v.mode, v.details["premises"]) == ("implied", list(IMPLIED_BY[name]))
    assert {p: v.holds for p, v in A.construction_laws.items()} == {"unit": True, "degree2": True}


def test_kirmse_without_the_degree2_law_implies_nothing():
    """The ground ring with product xy, norm -x^2 and unit 0: conjugation is
    -x, so both Kirmse laws read -x^2 y = n(x) y and hold, while the
    degree-2 value is x^2.  By Kirmse at y = 1, a structure where a Kirmse
    law holds and the degree-2 law fails also fails the unit law."""
    A = unchecked(ConicAlgebra)(QQ, 1, {(0, 0, 0): QQ.one}, [0], QuadraticForm(QQ, 1, {(0, 0): QQ.from_int(-1)}))
    assert _strict(A, "kirmse").holds and _strict(A, "kirmse-left").holds
    assert not _strict(A, "degree2").holds and not _strict(A, "unit").holds
    for suite in ("alternative", "moufang"):
        for mode in ("strict", "sampled"):
            for name, v in run_suite(A, suite, mode):
                assert v.mode != "implied"
                assert v.to_dict() == check_identity(A, name, mode).to_dict()


def count_strict_checks(monkeypatch):
    """The names of the laws that identities decides strictly from now on,
    in order."""
    names = []

    def counted(algebra, ident):
        names.append(identities._resolve(ident).name)
        return strict_identity_check(algebra, ident)

    monkeypatch.setattr(identities, "strict_identity_check", counted)
    return names


def test_sedenion_moufang_fails_at_its_presample_before_any_strict_check(monkeypatch):
    """The sedenions are not alternative: in sampled mode each Moufang law
    fails at its first pre-drawn point, with the witness of the full
    sampled run, before run_suite decides any law or premise strictly."""
    S = sedenions(QQ)
    decided = count_strict_checks(monkeypatch)
    for name, v in run_suite(S, "moufang", mode="sampled"):
        assert (v.holds, v.mode, v.details["trial"]) == (False, "sampled", 0), name
        assert v.to_dict() == sampled_identity_check(S, name, seed=DEFAULT_SEED).to_dict()
    assert decided == []


@pytest.mark.parametrize(
    "spec, suite, decided",
    [
        # the premises cost 576 generic monomials against 6,912 and 864
        ("cay(Q;-1,-1,-1)", "moufang", ["kirmse", "kirmse-left"]),
        ("zorn(Z/6)", "alternative", ["kirmse-left", "kirmse"]),
        # the premises would cost 4,352 against 2,176, and 576 against 288
        ("cay(Q;-1,-1,-1,-1)", "flexible", ["flexible"]),
        ("zorn(Z/6)", "flexible", ["flexible"]),
        # one premise against the one law it settles: no saving
        ("cay(Q;-1,-1,-1)", "left-alternative", ["left-alternative"]),
    ],
)
def test_premises_are_decided_once_and_only_when_cheaper(monkeypatch, spec, suite, decided):
    A = parse_algebra(spec)
    names = count_strict_checks(monkeypatch)
    modes = {v.mode for _, v in run_suite(A, suite)}
    assert names == decided
    assert modes == ({"strict"} if decided == [suite] else {"implied"})


def test_implied_verdicts_name_their_premises():
    """Each alternative law rests on its own Kirmse law; flexibility and the
    Moufang laws on both."""
    A = parse_algebra("cay(Q;-1,-1,-1)")
    side = {"left-alternative": "kirmse-left", "right-alternative": "kirmse"}
    for name, v in run_suite(A, "moufang") + run_suite(A, "alternative"):
        premises = ["unit", "degree2", side[name]] if name in side else ALTERNATIVE
        assert v.details == {"identity": name, "premises": premises}
