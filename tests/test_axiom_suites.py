"""The strict axiom suite and the laws it implies.

validate_axioms reports the gradient verdict that construction decided,
CubicData.gradient_law, in either mode; an unchecked structure decides it
on first use.  It reports the bilinear-adjoint and sharp-cross laws as
implied, not checked, when the gradient and adjoint identities hold as
polynomial laws: up to the gradient law, they are the t^2 and t
coefficients of the adjoint law at x + t y.  It reports U_{U_x y} =
U_x U_y U_x as implied when the base point, unit-id, gradient and adjoint
identities hold (McCrimmon's theorem).  Here each implication is tested
on structures it was not read off: corrupted and base-changed ones,
against the strict and sampled checks of the implied laws; the two
polarization formulas are compared as polynomials.  The trace form the
theorem uses is compared with the book's definition, and the one cost
guard with the time its checks take.
"""

import functools
import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from octad.cayley import ground_algebra, quaternions, sedenions
from octad import cubic
from octad.conic import quadratic
from octad.cubic import (
    CUBIC_IDENTITIES,
    CubicData,
    build_cubic,
    fundamental_formula_samples,
    hat_of_conic,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
    validate_axioms,
)
from octad.cli import parse_algebra
from octad.extensions import DualExt, PolyExt, lift_vec
from octad.her3 import Gamma, her3
from octad.identities import (
    STRICT_GUARD,
    CostGuardError,
    IdentitySpec,
    Verdict,
    multiset_count,
    strict_identity_check,
)
from octad.scalars import GF, QQ, ZZ, Zmod
from dense_layout import cubic_fields, dense_cubic, unchecked
from reference_paths import exponents
from test_generic_element import corrupted_cubics

RINGS = {"ZZ": ZZ, "GF(2)": GF(2), "GF(3)": GF(3), "Z/6": Zmod(6), "QQ": QQ}

# every constructor of dimension <= 6, where the strict fundamental check is
# inside the cost guard (15,876 generic monomials at dimension 6)
SMALL = {
    "k_cubic": k_cubic,
    "kk_cubic": kk_cubic,
    "split_cubic_etale": split_cubic_etale,
    "hat(quadratic)": lambda R: hat_of_conic(quadratic(R, 1, -1)),
    "hat(quaternions)": lambda R: hat_of_conic(quaternions(R)),
    "her3(ground)": lambda R: her3(ground_algebra(R)),
    "her3(ground,1,-1,1)": lambda R: her3(ground_algebra(R), Gamma(R, [1, -1, 1])),
}


@functools.lru_cache(maxsize=None)
def small(name, ring):
    return SMALL[name](RINGS[ring])


def fields(J):
    """The base point and the dense fields of J, fresh copies to corrupt."""
    return (list(J.basepoint), *cubic_fields(J))


def base_changed(J, g):
    """J transported along the unitriangular integer matrix g: the adjoint
    x -> g^-1 (g x)# and the norm x -> N(g x), a cubic norm structure with
    other constants."""
    R, n = J.ring, J.dim
    # g^-1 of a unitriangular matrix, by back substitution
    ginv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            for c in range(n):
                ginv[i][c] -= g[i][j] * ginv[j][c]

    def apply(L, m, v):
        return [L.sum(L.mul(L.from_int(m[i][j]), v[j]) for j in range(n) if m[i][j]) for i in range(n)]

    def sharp_fn(L, v):
        return apply(L, ginv, J.sharp_vec(apply(L, g, v), L))

    def norm_fn(L, v):
        return J.norm_payload(apply(L, g, v), L)

    return build_cubic(R, n, apply(R, ginv, J.basepoint), sharp_fn, norm_fn, name="base-changed")


@st.composite
def structures(draw):
    """A small structure, perhaps base-changed, with up to two stored
    constants changed past the construction-time consistency check."""
    J = small(draw(st.sampled_from(sorted(SMALL))), draw(st.sampled_from(sorted(RINGS))))
    R, n = J.ring, J.dim
    if n > 1 and draw(st.booleans()):
        g = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            g[i][j] = draw(st.sampled_from([0, 0, 1, -1, 2]))
        J = base_changed(J, g)
    basepoint, sharp, cross, n_single, n_dir, n_triple = fields(J)
    for _ in range(draw(st.integers(0, 2))):
        delta = R.from_int(draw(st.sampled_from([1, -1, 2])))
        kinds = ["sharp", "single"] + (["cross", "dir"] if n >= 2 else []) + (["triple"] if n >= 3 else [])
        kind = draw(st.sampled_from(kinds))
        if kind in ("sharp", "cross"):
            vec = sharp[draw(st.integers(0, n - 1))] if kind == "sharp" else cross[draw(st.sampled_from(sorted(cross)))]
            k = draw(st.integers(0, n - 1))
            vec[k] = R.add(vec[k], delta)
        elif kind == "single":
            i = draw(st.integers(0, n - 1))
            n_single[i] = R.add(n_single[i], delta)
        elif kind == "dir":
            key = draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
            n_dir[key] = R.add(n_dir.get(key, R.zero), delta)
        else:
            key = draw(st.sampled_from(list(itertools.combinations(range(n), 3))))
            n_triple[key] = R.add(n_triple.get(key, R.zero), delta)
    return dense_cubic(unchecked(CubicData), R, n, basepoint, sharp, cross, n_single, n_dir, n_triple)


# -- the trace form ---------------------------------------------------------------------


def _book_trace_form(J, L, vs):
    """T(x, y) - (T(x)T(y) - N(1; x, y)), N(1; x, y) the coefficient of s t
    in N(1 + s x + t y): the code's trace form against the book's."""
    x, y = vs
    one = lift_vec(L, J.basepoint)
    D = DualExt(DualExt(L))
    point = [((o, a), (b, L.zero)) for o, a, b in zip(one, x, y)]
    second = J.norm_payload(point, D)[1][1]
    tx = J.norm_dir_payload(one, x, L)
    ty = J.norm_dir_payload(one, y, L)
    book = L.sub(L.mul(tx, ty), second)
    return L.sub(J.trace_bilin(x, y, L), book)


TRACE_LINK = IdentitySpec("trace-link", (1, 1), _book_trace_form, scalar=True)


@pytest.mark.parametrize(
    "spec",
    ["her3(Q)", "her3(Z/6)", "her3(F2,1,-1,1)", "her3(f2xf2)", "tits(mat3(Z/6),1)", "tits(mat3(Q),1/2)", "her3(cs-octonions)"],
)
def test_trace_form_is_the_books_bilinear_trace(spec):
    assert strict_identity_check(parse_algebra(spec), TRACE_LINK).holds


# -- the implied fundamental formula ------------------------------------------------------


def four_axioms_hold_strictly(v):
    return v.details["basepoint"] == "Holds" and all(
        v.details[name] == "Holds (strict)" for name in ("unit-id", "gradient", "adjoint")
    )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(structures())
def test_four_axioms_imply_the_fundamental_formula(J):
    v = validate_axioms(J)
    if four_axioms_hold_strictly(v):
        assert v.details["fundamental"] == "Holds (implied)"
        assert fundamental_formula_samples(J, samples=50).holds
        # a dense base-changed structure takes seconds at dimension 6
        if J.dim <= 5:
            assert strict_identity_check(J, CUBIC_IDENTITIES["fundamental"]).holds
    else:
        assert v.details["fundamental"].endswith("(sampled)")
    # unit-id and gradient alone give T(x x y) = N(1; x, y)
    if all(v.details[name] == "Holds (strict)" for name in ("unit-id", "gradient")):
        assert strict_identity_check(J, TRACE_LINK).holds


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", sorted(SMALL))
def test_implied_agrees_with_the_strict_fundamental_check(name, ring):
    J = small(name, ring)
    v = validate_axioms(J)
    assert v.holds and v.details["fundamental"] == "Holds (implied)"
    assert strict_identity_check(J, CUBIC_IDENTITIES["fundamental"]).holds


def test_sampled_mode_and_failing_axioms_sample_the_formula():
    J = small("her3(ground)", "ZZ")
    assert validate_axioms(J, mode="sampled").details["fundamental"] == "Holds (implied)"
    basepoint, sharp, cross, n_single, n_dir, n_triple = fields(J)
    cross[(3, 4)][0] += 1
    bad = dense_cubic(unchecked(CubicData), ZZ, J.dim, basepoint, sharp, cross, n_single, n_dir, n_triple)
    v = validate_axioms(bad)
    assert not v.holds
    assert v.details["adjoint"] == "Fails (strict)"
    assert v.details["fundamental"].endswith("(sampled)")


POLARIZATIONS = ("bilinear-adjoint", "sharp-cross")


@pytest.mark.parametrize(
    "failing", ["basepoint", "unit-id", "gradient", "adjoint", "bilinear-adjoint", "sharp-cross"]
)
def test_implied_needs_exactly_the_four_defining_axioms(monkeypatch, failing):
    """One law would fail, strictly, and the others hold: the formula is
    implied unless the failing one is among the base point, unit-id,
    gradient and adjoint identities.  A polarization is never decided
    while gradient and adjoint hold strictly, so its failure cannot show.
    The gradient verdict is set on a fresh structure, the others come from
    _axiom_verdict."""
    J = small("her3(ground)", "ZZ")
    basepoint = [2 * c for c in J.basepoint] if failing == "basepoint" else J.basepoint  # N(2) = 8
    J = unchecked(CubicData)(ZZ, J.dim, basepoint, J.sharp_terms, J.norm_terms)
    J.gradient_law = Verdict(failing != "gradient", mode="strict")
    decided = []

    def verdict(data, ident, mode, seed):
        decided.append(ident.name)
        return Verdict(ident.name != failing, mode="strict")

    monkeypatch.setattr(cubic, "_axiom_verdict", verdict)
    v = validate_axioms(J)
    defining = failing in ("basepoint", "unit-id", "gradient", "adjoint")
    assert v.holds is not defining
    assert v.details["fundamental"].endswith("(sampled)" if defining else "(implied)")
    polarizations_decided = failing in ("gradient", "adjoint")
    for name in POLARIZATIONS:
        assert (name in decided) is polarizations_decided
        assert v.details[name] == ("Holds (strict)" if polarizations_decided else "Holds (implied)")


# -- the gradient law, decided once --------------------------------------------------------


def moved_base_points():
    """Two structures whose adjoint identity holds and whose gradient law
    fails: x -> x^2, N(x) = x^3 with base point 2, and split_cubic_etale(ZZ)
    with base point (1, 1, 2).  The adjoint does not read the base point;
    the trace T(y) = N(1; y) does."""
    J = split_cubic_etale(ZZ)
    return [
        unchecked(CubicData)(ZZ, 1, [2], {(0, 0, 0): 1}, {(0, 0, 0): 1}),
        unchecked(CubicData)(ZZ, 3, [1, 1, 2], J.sharp_terms, J.norm_terms),
    ]


@pytest.mark.parametrize("mode", ["strict", "sampled"])
@pytest.mark.parametrize("index", [0, 1])
def test_a_moved_base_point_fails_the_gradient_law_while_the_adjoint_holds(index, mode):
    J = moved_base_points()[index]
    v = validate_axioms(J, mode=mode)
    assert not v.holds
    assert v.details["basepoint"] == "Fails"
    assert v.details["adjoint"] == "Holds (strict)"
    assert v.details["gradient"] == "Fails (strict)"
    assert v.witness[0] == "unit-id"
    for name in POLARIZATIONS:
        assert v.details[name].startswith("Fails")
        if mode == "strict":
            assert v.details[name] == "Fails (strict)"


def test_the_gradient_law_is_decided_once_per_structure(monkeypatch):
    """Construction decides the gradient law, and the suite reports that
    verdict in either mode; an unchecked structure decides it on first use."""
    spec = CUBIC_IDENTITIES["gradient"]
    evaluate = spec.evaluate
    calls = []

    def counted(*args):
        calls.append(args[0])
        return evaluate(*args)

    monkeypatch.setattr(spec, "evaluate", counted)
    J = small("her3(ground)", "ZZ")
    for cls in (CubicData, unchecked(CubicData)):
        calls.clear()
        S = cls(ZZ, J.dim, J.basepoint, J.sharp_terms, J.norm_terms)
        assert len(calls) == (cls is CubicData)
        for mode in ("strict", "sampled", "strict", "sampled"):
            assert validate_axioms(S, mode=mode).details["gradient"] == "Holds (strict)"
        assert calls == [S]
    for S in moved_base_points():
        calls.clear()
        for mode in ("strict", "sampled", "strict", "sampled"):
            assert validate_axioms(S, mode=mode).details["gradient"] == "Fails (strict)"
        assert calls == [S]


# -- the implied polarizations -------------------------------------------------------------


@pytest.mark.parametrize(
    "premise, premise_verdict",
    [
        ("gradient", Verdict(False, witness=((0,), (1,)), mode="strict")),
        ("adjoint", Verdict(False, witness=((0, 0, 1, 2),), mode="strict")),
        ("adjoint", Verdict(True, mode="sampled")),
    ],
    ids=["gradient-fails", "adjoint-fails", "adjoint-sampled"],
)
def test_polarizations_are_decided_unless_gradient_and_adjoint_hold_strictly(
    monkeypatch, premise, premise_verdict
):
    """Unless gradient and adjoint both hold with mode strict, each
    polarization gets _axiom_verdict's verdict, and the report and first
    failure show it.  The gradient verdict, always strict, is set on a
    fresh structure."""
    H = small("her3(ground)", "ZZ")
    J = unchecked(CubicData)(ZZ, H.dim, H.basepoint, H.sharp_terms, H.norm_terms)
    own = {
        premise: premise_verdict,
        "bilinear-adjoint": Verdict(False, witness=((0, 1), (2, 3)), mode="strict"),
        "sharp-cross": Verdict(True, mode="sampled"),
    }
    decided = []

    def verdict(data, ident, mode, seed):
        decided.append(ident.name)
        return own.get(ident.name, Verdict(True, mode="strict"))

    J.gradient_law = own.get("gradient", Verdict(True, mode="strict"))
    monkeypatch.setattr(cubic, "_axiom_verdict", verdict)
    v = validate_axioms(J)
    assert sorted(decided) == sorted(["unit-id", "adjoint", *POLARIZATIONS])
    assert not v.holds
    assert v.details["bilinear-adjoint"] == "Fails (strict)"
    assert v.details["sharp-cross"] == "Holds (sampled)"
    assert v.details["fundamental"].endswith("(sampled)")
    if premise == "gradient" and not premise_verdict.holds:
        assert v.witness == ("gradient", ((0,), (1,)))
    else:  # bilinear-adjoint comes before adjoint in the report
        assert v.witness == ("bilinear-adjoint", ((0, 1), (2, 3)))


def _t_part(L, poly, k):
    """The terms of poly of degree k in t, the last variable of L."""
    return {key: c for key, c in poly.items() if exponents(L, key)[-1] == k}


def _polarization_formulas_hold(J):
    """BA(x, y) = [t^2] f(x + t y) + g(x, y) y + g(y, x) x and SC(x, y) =
    [t] f(x + t y) + g(x, y) x as polynomials, with f the adjoint law and g
    the gradient law, over R[x, y, t] in 2n + 1 variables.  x + t y has
    degree 2, so f(x + t y) has degree 8: the cap keeps all of it."""
    R, n = J.ring, J.dim
    L = PolyExt(R, 2 * n + 1, 8)
    x = [L.var(i) for i in range(n)]
    y = [L.var(n + i) for i in range(n)]
    t = L.var(2 * n)

    def law(name, *vs):
        return CUBIC_IDENTITIES[name].evaluate(J, L, vs)

    f = law("adjoint", [L.add(a, L.mul(t, b)) for a, b in zip(x, y)])
    gxy, gyx = law("gradient", x, y), law("gradient", y, x)
    ba, sc = law("bilinear-adjoint", x, y), law("sharp-cross", x, y)
    t2 = L.mul(t, t)
    for k in range(n):
        ba_rhs = L.add(L.add(_t_part(L, f[k], 2), L.mul(t2, L.mul(gxy, y[k]))), L.mul(t2, L.mul(gyx, x[k])))
        sc_rhs = L.add(_t_part(L, f[k], 1), L.mul(t, L.mul(gxy, x[k])))
        if not (L.is_zero(L.sub(L.mul(t2, ba[k]), ba_rhs)) and L.is_zero(L.sub(L.mul(t, sc[k]), sc_rhs))):
            return False
    return True


def _entry(v):
    return f"{'Holds' if v.holds else 'Fails'} ({v.mode})"


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.one_of(corrupted_cubics(sorted(RINGS)), structures()))
@example(moved_base_points()[0])
@example(moved_base_points()[1])
def test_gradient_and_adjoint_imply_the_polarizations(J):
    assert _polarization_formulas_hold(J)
    v = validate_axioms(J)
    premises = all(v.details[name] == "Holds (strict)" for name in ("gradient", "adjoint"))
    for name in POLARIZATIONS:
        assert (v.details[name] == "Holds (implied)") is premises
        strict = strict_identity_check(J, CUBIC_IDENTITIES[name])
        if premises:
            assert strict.holds, name
        else:  # the strict check's verdict, and its witness when it fails first
            assert v.details[name] == _entry(strict)
            if v.witness is not None and v.witness[0] == name:
                assert v.witness[1] == strict.witness
    sampled = validate_axioms(J, mode="sampled")
    premises = all(sampled.details[name] == "Holds (strict)" for name in ("gradient", "adjoint"))
    for name in POLARIZATIONS:
        assert (sampled.details[name] == "Holds (implied)") is premises


# -- the cost guard -----------------------------------------------------------------------


def _products(f):
    def evaluate(alg, L, vs):
        lhs, rhs = f(lambda a, b: alg.mul_vec(a, b, L), *vs)
        return [L.sub(a, b) for a, b in zip(lhs, rhs)]

    return evaluate


# total degree 5 on the sedenions (dimension 16): refused by the rule
# "total degree > 4 and dimension > 12" that the guard replaced
SEDENION_IDENTITIES = [
    IdentitySpec("xyxyx", (3, 2), _products(lambda m, x, y: (
        m(m(m(m(x, y), x), y), x), m(x, m(y, m(x, m(x, y))))))),
    IdentitySpec("x4y", (4, 1), _products(lambda m, x, y: (
        m(m(x, x), m(x, m(x, y))), m(m(m(x, x), x), m(x, y))))),
    IdentitySpec("x5", (5,), _products(lambda m, x: (
        m(m(x, x), m(x, m(x, x))), m(m(m(x, x), x), m(x, x))))),
]
# the axiom suite at dimension 27, sampled under the old axiom-suite guard of
# 3,000 multisets; the ring and the constants vary the cost
ALBERT_SPECS = ["her3(zorn(Z/6))", "her3(cs-octonions)", "tits(mat3(Q),1/2)", "tits(mat3(F2),1)"]


def test_newly_admitted_checks_take_about_a_second_at_most():
    """The slowest, xyxyx, measured 1.35 s of CPU time, and a whole axiom
    suite at dimension 27 at most 0.03 s, with bilinear-adjoint and
    sharp-cross implied (0.24 s when they were decided); the bound leaves
    room for a slower host."""
    S = sedenions(QQ)
    for ident in SEDENION_IDENTITIES:
        assert multiset_count(S.dim, ident.multidegree) <= STRICT_GUARD
        start = time.process_time()
        strict_identity_check(S, ident)
        assert time.process_time() - start < 2.0, ident.name
    for spec in ALBERT_SPECS:
        J = parse_algebra(spec)
        for name in ("adjoint", "gradient", "bilinear-adjoint", "sharp-cross"):
            assert multiset_count(J.dim, CUBIC_IDENTITIES[name].multidegree) > 3000
        start = time.process_time()
        v = validate_axioms(J)
        assert time.process_time() - start < 2.0, spec
        # no check of a catalog structure is left to sampling
        assert v.holds and not any("sampled" in str(mode) for mode in v.details.values()), spec


def test_the_guard_refuses_what_it_cannot_afford():
    S = sedenions(QQ)
    slow = IdentitySpec("xyx-zx", (3, 1, 1), _products(lambda m, x, y, z: (
        m(m(x, m(y, m(x, z))), x), m(x, m(m(y, x), m(z, x))))))
    assert multiset_count(16, slow.multidegree) == 208_896 > STRICT_GUARD
    with pytest.raises(CostGuardError):
        strict_identity_check(S, slow)
    J = parse_algebra("her3(f2xf2)")  # dimension 9: the fundamental formula needs 200,475
    with pytest.raises(CostGuardError):
        strict_identity_check(J, CUBIC_IDENTITIES["fundamental"])
    assert validate_axioms(J).details["fundamental"] == "Holds (implied)"

