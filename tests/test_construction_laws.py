"""Construction-time law checks against complete references.

Conic algebras decide the unit law and the degree-2 identity, and
associative cubic inputs of the first Tits construction decide the unit
law, associativity, x# x = x x# = N(x) 1 and T(x, y) = T(xy), all with the
strict checker.  The references are the polarization loop the degree-2
check used before (tests/reference_paths.py) and, for the cubic inputs
over ZZ, an integer grid that is complete for the degrees involved.
"""

import functools
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from octad.cayley import quaternions
from octad.conic import UNIT_LAW, ConicAlgebra, cartan_schouten, quadratic, split_etale
from octad.cubic import CubicData, k_cubic, kk_cubic, split_cubic_etale
from octad.identities import CONIC_IDENTITIES, strict_identity_check
from octad.quadforms import QuadraticForm
from octad.scalars import GF, QQ, ZZ, Zmod
from octad.tits import ADJOINT_LAW, TRACE_LAW, CubicAssocInput
from dense_layout import conic_table, cubic_fields, dense_cubic, table_products, unchecked
from reference_paths import assoc_input_failures_on_grid, check_degree2_by_polarization


def componentwise(R, n):
    """The dense table of k^n with the componentwise product."""
    return [[[R.one if k == a == b else R.zero for k in range(n)] for b in range(n)] for a in range(n)]


def cyclic_corruption(J):
    """J with x0^2 x1 - x0 x1^2 + x1^2 x2 - x1 x2^2 + x2^2 x0 - x2 x0^2 added to
    its norm.  The form vanishes at every 0/1 point and at 1, and so do its
    derivatives at 1: N(1), the trace and the adjoint stay the same."""
    R = J.ring
    sharp, cross, n_single, n_dir, n_triple = cubic_fields(J)
    for key, c in {(0, 1): 1, (1, 0): -1, (1, 2): 1, (2, 1): -1, (2, 0): 1, (0, 2): -1}.items():
        n_dir[key] = R.add(n_dir.get(key, R.zero), R.from_int(c))
    return dense_cubic(unchecked(CubicData), R, 3, J.basepoint, sharp, cross, n_single, n_dir, n_triple)


def test_adjoint_law_sees_a_term_zero_at_every_0_1_point():
    J = split_cubic_etale(ZZ)
    k3 = table_products(componentwise(ZZ, 3))
    CubicAssocInput(J, k3)
    bad = cyclic_corruption(J)
    R = ZZ
    assert R.eq(bad.norm_payload(bad.basepoint), R.one)
    assert bad.tvec == J.tvec and bad.sharp_terms == J.sharp_terms
    for x in itertools.product((0, 1), repeat=3):
        assert bad.norm_payload(list(x)) == J.norm_payload(list(x))
    with pytest.raises(ValueError, match=r"x# x = x x# = N\(x\) 1"):
        CubicAssocInput(bad, k3)
    assert assoc_input_failures_on_grid(unchecked(CubicAssocInput)(bad, k3)) == ["adjoint"]


# -- degree-2 identity against the polarization loop --------------------------------

CONICS = {
    "split_etale": split_etale,
    "quadratic": lambda R: quadratic(R, 1, -1),
    "quaternions": quaternions,
    "cartan_schouten": cartan_schouten,
}
CONIC_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(2)": GF(2), "GF(3)": GF(3), "Z/4": Zmod(4)}


@functools.lru_cache(maxsize=None)
def conic(name, ring):
    return CONICS[name](CONIC_RINGS[ring])


@st.composite
def corrupted_conics(draw):
    C = conic(draw(st.sampled_from(sorted(CONICS))), draw(st.sampled_from(sorted(CONIC_RINGS))))
    R, n = C.ring, C.dim
    table = conic_table(C)
    coeffs = dict(C.norm.coeffs)
    for _ in range(draw(st.integers(0, 2))):
        delta = R.from_int(draw(st.sampled_from([1, -1, 2])))
        if draw(st.booleans()):
            a, b, k = (draw(st.integers(0, n - 1)) for _ in range(3))
            table[a][b][k] = R.add(table[a][b][k], delta)
        else:
            key = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i, n)]))
            coeffs[key] = R.add(coeffs.get(key, R.zero), delta)
    norm = QuadraticForm(R, n, coeffs)
    return unchecked(ConicAlgebra)(R, n, table_products(table), C.unit, norm)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(corrupted_conics())
def test_degree2_strict_agrees_with_polarization(alg):
    R = alg.ring
    strict = alg.check_degree2()
    assert strict.holds == check_degree2_by_polarization(alg).holds
    # construction refuses the first failing law, in the validator's order
    checks = {
        "norm(unit) != 1": R.eq(alg.norm.eval_payload(alg.unit), R.one),
        "unit law": strict_identity_check(alg, UNIT_LAW).holds,
        "degree-2 identity": strict.holds,
    }
    failing = [phrase for phrase, holds in checks.items() if not holds]
    if failing:
        with pytest.raises(ValueError, match=re.escape(failing[0])):
            ConicAlgebra(R, alg.dim, alg.products, alg.unit, alg.norm)
    else:
        ConicAlgebra(R, alg.dim, alg.products, alg.unit, alg.norm)


# -- associative cubic inputs against the integer grid --------------------------------

ASSOC = {
    "k": (k_cubic, 1),
    "k x k": (kk_cubic, 2),
    "k^3": (split_cubic_etale, 3),
}
# each law as the validator checks it, and the phrase of its error
LAWS = {
    "unit": UNIT_LAW,
    "associative": CONIC_IDENTITIES["associative"],
    "adjoint": ADJOINT_LAW,
    "trace": TRACE_LAW,
}
PHRASES = {
    "unit": "unit law",
    "associative": "associativity",
    "adjoint": "x# x = x x# = N(x) 1",
    "trace": "T(x, y) = T(xy)",
}


@pytest.mark.parametrize("name", sorted(ASSOC))
def test_catalog_inputs_hold_on_the_grid(name):
    build, n = ASSOC[name]
    A = CubicAssocInput(build(ZZ), table_products(componentwise(ZZ, n)))
    assert assoc_input_failures_on_grid(A) == []


def perturbed(table, f, g, k):
    """table, changed in place to the product xy + f(x) g(y) e_k."""
    n = len(table)
    for a, b in itertools.product(range(n), repeat=2):
        table[a][b][k] += f[a] * g[b]
    return table


# l(1) = 0: the first two break one side of the unit law each, the third only
# associativity among the laws the validator checks before the adjoint
@pytest.mark.parametrize(
    "table, first",
    [
        (perturbed(componentwise(ZZ, 3), [1, 0, 0], [1, -1, 0], 1), "unit"),
        (perturbed(componentwise(ZZ, 3), [1, -1, 0], [1, 0, 0], 1), "unit"),
        (perturbed(componentwise(ZZ, 3), [1, -1, 0], [0, 1, -1], 0), "associative"),
    ],
    ids=["left-unit", "right-unit", "associativity"],
)
def test_one_sided_failures_are_refused(table, first):
    J = split_cubic_etale(ZZ)
    products = table_products(table)
    assert assoc_input_failures_on_grid(unchecked(CubicAssocInput)(J, products))[0] == first
    with pytest.raises(ValueError, match=re.escape(PHRASES[first])):
        CubicAssocInput(J, products)


@st.composite
def corrupted_inputs(draw):
    build, n = ASSOC[draw(st.sampled_from(sorted(ASSOC)))]
    J = build(ZZ)
    R = ZZ
    sharp, cross, n_single, n_dir, n_triple = cubic_fields(J)
    table = componentwise(R, n)
    kinds = ["sharp", "single", "table"] + (["cross", "dir", "product"] if n >= 2 else [])
    kinds += ["triple"] if n >= 3 else []
    for _ in range(draw(st.integers(0, 2))):
        delta = draw(st.sampled_from([1, -1, 2]))
        kind = draw(st.sampled_from(kinds))
        if kind == "product":
            # add delta f(x) g(y) e_k, each of f, g either l = e_i* - e_j* or e_m*;
            # l(1) = 0, so f = l keeps 1 y = y and g = l keeps y 1 = y
            i, j = draw(st.sampled_from(list(itertools.combinations(range(n), 2))))
            l = [1 if a == i else -1 if a == j else 0 for a in range(n)]
            picks = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=2, max_size=2))
            f, g = [l if m is None else [int(a == m) for a in range(n)] for m in picks]
            perturbed(table, [delta * c for c in f], g, draw(st.integers(0, n - 1)))
        elif kind in ("sharp", "cross", "table"):
            if kind == "sharp":
                vec = sharp[draw(st.integers(0, n - 1))]
            elif kind == "cross":
                vec = cross[draw(st.sampled_from(sorted(cross)))]
            else:
                vec = table[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))]
            k = draw(st.integers(0, n - 1))
            vec[k] += delta
        elif kind == "single":
            n_single[draw(st.integers(0, n - 1))] += delta
        elif kind == "dir":
            key = draw(st.sampled_from(list(itertools.permutations(range(n), 2))))
            n_dir[key] = n_dir.get(key, 0) + delta
        else:
            n_triple[(0, 1, 2)] = n_triple.get((0, 1, 2), 0) + delta
    data = dense_cubic(unchecked(CubicData), R, n, J.basepoint, sharp, cross, n_single, n_dir, n_triple)
    return data, table_products(table)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(corrupted_inputs())
def test_assoc_input_laws_agree_with_the_grid(case):
    A = unchecked(CubicAssocInput)(*case)
    want = assoc_input_failures_on_grid(A)
    assert [name for name, spec in LAWS.items() if not strict_identity_check(A, spec).holds] == want
    if want:
        with pytest.raises(ValueError, match=re.escape(PHRASES[want[0]])):
            CubicAssocInput(*case)
    else:
        CubicAssocInput(*case)
