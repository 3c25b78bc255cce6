"""The generic-element paths against independent references.

strict_identity_check, the adjoint verdict and build_cubic read every
coefficient from one evaluation at the generic element sum_i t_i e_i.
reference_paths.py keeps the per-subset checker and the
inclusion-exclusion extraction they replaced; here the two must agree on
verdicts, witnesses and extracted data, also on corrupted structures.
"""

import functools
import importlib
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from octad.cayley import ground_algebra, iterated_cayley_dickson
from octad.conic import UNIT_LAW, ConicAlgebra, cartan_schouten, quadratic, split_etale
from octad.cubic import (
    CUBIC_IDENTITIES,
    CubicData,
    _adjoint_id,
    adjoint_identity_strict,
    build_cubic,
    hat_of_conic,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
)
from octad.extensions import PolyExt
from octad.her3 import Gamma, her3
from octad.identities import CONIC_IDENTITIES, CostGuardError, smallest_failure, strict_identity_check
from octad.scalars import GF, QQ, ZZ, Zmod
from octad.tits import TRACE_LAW, CubicAssocInput, mat3, split_albert, tits
from octad.zorn import zorn_algebra
from dense_layout import conic_table, cubic_fields, dense_cubic, table_products, unchecked
from reference_paths import build_cubic_by_inclusion_exclusion, exponents, strict_identity_check_by_subsets
from test_construction_laws import corrupted_inputs
from test_constructor_cache import uncached_constructors

RINGS = {"ZZ": ZZ, "GF(2)": GF(2), "GF(3)": GF(3), "Z/6": Zmod(6), "QQ": QQ}


def same_verdict(fast, slow):
    return (fast.holds, fast.witness) == (slow.holds, slow.witness)


# -- strict checks on conic algebras -----------------------------------------------

CONICS = {
    "ground": ground_algebra,
    "split_etale": split_etale,
    "quadratic(1,-1)": lambda R: quadratic(R, 1, -1),
    "cay(-1,-1)": lambda R: iterated_cayley_dickson(R, [-1, -1]),
    "cay(-1,1,-1)": lambda R: iterated_cayley_dickson(R, [-1, 1, -1]),
}


@functools.lru_cache(maxsize=None)
def conic(name, ring):
    return CONICS[name](RINGS[ring])


@st.composite
def conic_cases(draw):
    """A catalog identity on a small conic algebra, possibly with one
    structure constant e_a e_b changed."""
    A = conic(draw(st.sampled_from(sorted(CONICS))), draw(st.sampled_from(sorted(RINGS))))
    R, n = A.ring, A.dim
    if draw(st.booleans()):
        table = conic_table(A)
        a, b, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[a][b][k] = R.add(table[a][b][k], R.from_int(draw(st.sampled_from([1, -1, 2]))))
        A = unchecked(ConicAlgebra)(R, n, table_products(table), A.unit, A.norm, name="corrupted")
    names = sorted(CONIC_IDENTITIES)
    if n > 4:  # keep the per-subset reference quick on dimension 8
        names = [x for x in names if CONIC_IDENTITIES[x].total_degree <= 3]
    return A, draw(st.sampled_from(names))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(conic_cases())
def test_strict_check_matches_per_subset_reference_on_conic_algebras(case):
    A, name = case
    assert same_verdict(strict_identity_check(A, name), strict_identity_check_by_subsets(A, name))


def test_sedenion_witness_matches_reference():
    S = iterated_cayley_dickson(QQ, [-1, -1, -1, -1])
    fast = strict_identity_check(S, "norm-comp")
    assert fast.witness == ((1, 10), (4, 15))
    assert same_verdict(fast, strict_identity_check_by_subsets(S, "norm-comp"))


# -- slots of degree 1: the generic element against basis picks -------------------------
#
# The reference runs every slot of degree 1 over the basis vectors, one
# evaluation per pick, so it shares no code path with the one generic
# evaluation of the library on these identities.


@settings(derandomize=True, max_examples=40, deadline=None)
@given(conic_cases())
def test_unit_law_matches_per_subset_reference(case):
    A, _ = case
    assert same_verdict(strict_identity_check(A, UNIT_LAW), strict_identity_check_by_subsets(A, UNIT_LAW))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(corrupted_inputs())
def test_trace_law_matches_per_subset_reference(case):
    A = unchecked(CubicAssocInput)(*case)
    assert same_verdict(strict_identity_check(A, TRACE_LAW), strict_identity_check_by_subsets(A, TRACE_LAW))


@pytest.mark.parametrize("ring", ["GF(3)", "Z/6"])
def test_trace_law_matches_per_subset_reference_on_a_corrupted_mat3(ring):
    M = mat3(RINGS[ring])
    table = conic_table(M)
    table[1][5][0] = M.ring.add(table[1][5][0], M.ring.one)  # e_1 e_5 gains a trace
    A = unchecked(CubicAssocInput)(M.data, table_products(table))
    fast = strict_identity_check(A, TRACE_LAW)
    assert not fast.holds
    assert same_verdict(fast, strict_identity_check_by_subsets(A, TRACE_LAW))


@functools.lru_cache(maxsize=None)
def corrupted_sedenions(ring, a, b, k):
    """The sedenions over ring with the constant (e_a e_b)_k raised by one."""
    S = iterated_cayley_dickson(RINGS[ring], [-1, -1, -1, -1])
    R = S.ring
    table = conic_table(S)
    table[a][b][k] = R.add(table[a][b][k], R.one)
    return unchecked(ConicAlgebra)(R, S.dim, table_products(table), S.unit, S.norm, name="corrupted")


SEDENION_CORRUPTIONS = [("QQ", 3, 9, 10), ("GF(2)", 7, 12, 5), ("Z/6", 15, 15, 0)]


@pytest.mark.parametrize("name", ["norm-assoc", "associative", "commutative"])
@pytest.mark.parametrize("corruption", SEDENION_CORRUPTIONS, ids=lambda c: "-".join(map(str, c)))
def test_multilinear_checks_match_reference_on_corrupted_sedenions(corruption, name):
    S = corrupted_sedenions(*corruption)
    fast = strict_identity_check(S, name)
    assert same_verdict(fast, strict_identity_check_by_subsets(S, name))


def smallest_failure_by_picks(A, ident):
    """The first basis pick, in lexicographic order, where the identity is
    nonzero, with the smallest nonzero row there."""
    R, n = A.ring, A.dim
    for picks in itertools.product(range(n), repeat=len(ident.multidegree)):
        vectors = [[R.one if i == p else R.zero for i in range(n)] for p in picks]
        value = ident.evaluate(A, R, vectors)
        rows = [value] if ident.scalar else value
        bad = [k for k, c in enumerate(rows) if not R.is_zero(c)]
        if bad:
            return tuple((p,) for p in picks), bad[0]
    return None


@pytest.mark.parametrize("name", ["norm-assoc", "associative"])
@pytest.mark.parametrize(
    "algebra",
    [
        lambda: iterated_cayley_dickson(QQ, [-1, -1, -1]),
        lambda: iterated_cayley_dickson(GF(3), [-1, 1, -1, -1]),
        lambda: corrupted_sedenions("QQ", 3, 9, 10),
        lambda: corrupted_sedenions("Z/6", 15, 15, 0),
    ],
    ids=["octonions", "cay(F3)16", "sedenions-QQ", "sedenions-Z/6"],
)
def test_coordinate_of_trilinear_failures_matches_a_pick_loop(algebra, name):
    A = algebra()
    ident = CONIC_IDENTITIES[name]
    assert smallest_failure(A, ident) == smallest_failure_by_picks(A, ident)


# -- strict checks of the cubic identities ---------------------------------------------

SMALL_CUBICS = {
    "k_cubic": k_cubic,
    "kk_cubic": kk_cubic,
    "split_cubic_etale": split_cubic_etale,
    "hat(quadratic)": lambda R: hat_of_conic(quadratic(R, 1, -1)),
    "her3(ground)": lambda R: her3(ground_algebra(R)),
}


@functools.lru_cache(maxsize=None)
def small_cubic(name, ring):
    return SMALL_CUBICS[name](RINGS[ring])


@st.composite
def corrupted_cubics(draw, rings):
    """A small cubic structure with up to two stored constants changed and
    perhaps its base point moved, past the construction-time consistency
    check.  A moved base point keeps the adjoint identity, which does not
    read it, and can break the gradient law through T(y) = N(1; y)."""
    J = small_cubic(draw(st.sampled_from(sorted(SMALL_CUBICS))), draw(st.sampled_from(rings)))
    R, n = J.ring, J.dim
    sharp, cross, n_single, n_dir, n_triple = cubic_fields(J)
    for _ in range(draw(st.integers(0, 2))):
        delta = R.from_int(draw(st.sampled_from([1, -1, 2])))
        kinds = ["sharp", "single"] + (["cross", "dir"] if n >= 2 else []) + (["triple"] if n >= 3 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "sharp":
            vec = sharp[draw(st.integers(0, n - 1))]
        elif kind == "cross":
            vec = cross[draw(st.sampled_from(sorted(cross)))]
        if kind in ("sharp", "cross"):
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
    basepoint = list(J.basepoint)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        basepoint[i] = R.add(basepoint[i], R.one)
    return dense_cubic(unchecked(CubicData), R, n, basepoint, sharp, cross, n_single, n_dir, n_triple)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(corrupted_cubics(sorted(RINGS)), st.sampled_from(sorted(CUBIC_IDENTITIES)))
def test_strict_check_matches_per_subset_reference_on_cubic_identities(J, name):
    if name == "fundamental" and J.dim > 3:  # 1,350 subsets per check at dimension 6
        name = "sharp-cross"
    ident = CUBIC_IDENTITIES[name]
    assert same_verdict(strict_identity_check(J, ident), strict_identity_check_by_subsets(J, ident))


# -- the adjoint verdict -----------------------------------------------------------------


def reference_coordinate(J, witness):
    """The smallest row of x## - N(x)x holding the witness monomial, from an
    evaluation on the witness's support alone."""
    support = sorted(set(witness))
    L = PolyExt(J.ring, len(support), 4)
    x = [L.zero] * J.dim
    for t, i in enumerate(support):
        x[i] = L.var(t)
    exps = tuple(witness.count(i) for i in support)
    rows = _adjoint_id(J, L, [x])
    return min(k for k, poly in enumerate(rows) if any(exponents(L, key) == exps for key in poly))


ADJOINT_RINGS = ["ZZ", "QQ", "GF(2)", "GF(3)"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(corrupted_cubics(ADJOINT_RINGS))
def test_adjoint_verdict_matches_per_subset_reference(J):
    v = adjoint_identity_strict(J)
    assert same_verdict(v, strict_identity_check_by_subsets(J, CUBIC_IDENTITIES["adjoint"]))
    if not v.holds:
        assert v.details["coordinate"] == reference_coordinate(J, v.witness[0])


def test_standalone_adjoint_refuses_only_large_data_that_is_not_integral():
    """Above dimension 14 the stand-alone adjoint suite refuses data that is
    not integral over ZZ, QQ or GF(p); at dimension 6 it decides any data."""
    assert adjoint_identity_strict(small_cubic("her3(ground)", "Z/6")).holds
    assert adjoint_identity_strict(her3(ground_algebra(QQ), Gamma(QQ, [Fraction(1, 2), 1, 1]))).holds
    for J in (tits(mat3(Zmod(6)), 1), tits(mat3(QQ), Fraction(1, 2)), her3(zorn_algebra(Zmod(6)))):
        with pytest.raises(CostGuardError, match="needs integral structure data"):
            adjoint_identity_strict(J)
    for J in (tits(mat3(QQ), 1), tits(mat3(GF(5)), 2), her3(cartan_schouten(QQ))):
        v = adjoint_identity_strict(J)
        assert v.holds and "path" not in v.details


# -- structure extraction ------------------------------------------------------------------

# each looks its constructors up when called, so that they can be swapped for uncached ones
CONSTRUCTORS = {
    "k_cubic": lambda R: k_cubic(R),
    "kk_cubic": lambda R: kk_cubic(R),
    "split_cubic_etale": lambda R: split_cubic_etale(R),
    "hat_of_conic": lambda R: hat_of_conic(quadratic(R, 1, -1)),
    "hat_of_conic(zorn)": lambda R: hat_of_conic(zorn_algebra(R)),
    "her3(ground)": lambda R: her3(ground_algebra(R)),
    "her3(ground,1,-1,-1)": lambda R: her3(ground_algebra(R), Gamma(R, [1, -1, -1])),
    "her3(zorn)": lambda R: her3(zorn_algebra(R)),
    "mat3": lambda R: mat3(R).data,
    "tits(mat3,-1)": lambda R: tits(mat3(R), -1),
    "split_albert": split_albert,
}
QQ_CONSTRUCTORS = {
    "her3(cs-octonions)": lambda R: her3(cartan_schouten(R)),
    "her3(ground,1/2)": lambda R: her3(ground_algebra(R), Gamma(R, [Fraction(1, 2)] * 3)),
}
CONSTRUCTORS.update(QQ_CONSTRUCTORS)
EXTRACTION_CASES = [
    *((name, ring) for name in sorted(CONSTRUCTORS) if name not in QQ_CONSTRUCTORS for ring in ("ZZ", "GF(2)", "Z/6", "QQ")),
    *((name, "QQ") for name in sorted(QQ_CONSTRUCTORS)),
]


def extracted(J):
    """The stored terms, with their payload types."""
    return repr((J.sharp_terms, J.norm_terms, J.tvec))


@pytest.mark.parametrize("name, ring", EXTRACTION_CASES)
def test_build_cubic_matches_inclusion_exclusion(monkeypatch, name, ring):
    J = CONSTRUCTORS[name](RINGS[ring])
    # the reference is built afresh, not taken from the constructors' caches
    uncached_constructors(monkeypatch, sys.modules[__name__])
    for module in ("octad.cubic", "octad.her3", "octad.tits"):
        monkeypatch.setattr(importlib.import_module(module), "build_cubic", build_cubic_by_inclusion_exclusion)
    ref = CONSTRUCTORS[name](RINGS[ring])
    assert ref is not J
    assert extracted(J) == extracted(ref)
    assert J.to_json() == ref.to_json()


def test_build_cubic_rejects_a_sharp_that_is_not_quadratic():
    # t0^2 t1 + t0 t1^2 vanishes on every point of GF(2)^2, so inclusion-
    # exclusion over basis sums never sees it
    def sharp_fn(L, v):
        extra = L.add(L.mul(L.mul(v[0], v[0]), v[1]), L.mul(v[0], L.mul(v[1], v[1])))
        return [L.add(L.mul(v[1], v[1]), extra), L.mul(v[0], v[1])]

    def norm_fn(L, v):
        return L.mul(v[0], L.mul(v[1], v[1]))

    build_cubic_by_inclusion_exclusion(GF(2), 2, [1, 1], sharp_fn, norm_fn)
    with pytest.raises(ValueError, match=r"^bad_sharp: sharp_fn has a term of degree 3, expected 2$"):
        build_cubic(GF(2), 2, [1, 1], sharp_fn, norm_fn, name="bad_sharp")

    def linear_sharp(L, v):
        return [L.add(L.mul(v[1], v[1]), v[0]), L.mul(v[0], v[1])]

    with pytest.raises(ValueError, match=r"^linear: sharp_fn has a term of degree 1, expected 2$"):
        build_cubic(ZZ, 2, [1, 1], linear_sharp, norm_fn, name="linear")


def test_build_cubic_rejects_a_norm_that_is_not_cubic():
    def sharp_fn(L, v):
        return [L.mul(v[1], v[1]), L.mul(v[0], v[1])]

    # x0^2 x1^2 vanishes on e_0, on e_1 and in N(e_0 + eps e_1), the only
    # values inclusion-exclusion reads at dimension 2
    def quartic(L, v):
        sq = L.mul(v[0], v[1])
        return L.add(L.mul(v[0], L.mul(v[1], v[1])), L.mul(sq, sq))

    build_cubic_by_inclusion_exclusion(ZZ, 2, [1, 1], sharp_fn, quartic)
    with pytest.raises(ValueError, match=r"^quartic: norm_fn has a term of degree 4, expected 3$"):
        build_cubic(ZZ, 2, [1, 1], sharp_fn, quartic, name="quartic")

    def quadratic_norm(L, v):
        return L.add(L.mul(v[0], L.mul(v[1], v[1])), L.mul(v[0], v[1]))

    with pytest.raises(ValueError, match=r"^quadratic: norm_fn has a term of degree 2, expected 3$"):
        build_cubic(ZZ, 2, [1, 1], sharp_fn, quadratic_norm, name="quadratic")
