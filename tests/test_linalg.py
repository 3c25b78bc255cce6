import copy
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy

from octad import linalg
from octad.extensions import PolyExt
from octad.scalars import GF, QQ, ZZ, DualNumbers, Ring, Zmod, product_ring
from reference_paths import canonical, norm_gradient


def _sympy_det(A):
    return sympy.Matrix(A).det()


@pytest.mark.parametrize("n", range(1, 8))
def test_det_zz_and_gf_against_sympy(n):
    rng = random.Random(100 + n)
    for _ in range(10):
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        want = int(_sympy_det(A))
        assert linalg.det(ZZ, A) == want
        for p in (2, 3, 7):
            assert linalg.det(GF(p), [[c % p for c in row] for row in A]) == want % p


@pytest.mark.parametrize("n", range(1, 7))
def test_det_qq_against_sympy(n):
    rng = random.Random(200 + n)
    for _ in range(10):
        A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        want = _sympy_det([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in A])
        assert linalg.det(QQ, A) == Fraction(int(want.p), int(want.q))


@pytest.mark.parametrize("R", [Zmod(6), product_ring(Zmod(4), GF(3))], ids=repr)
def test_det_with_zero_divisors_against_cofactor(R):
    rng = random.Random(300)
    for n in range(1, 7):
        for _ in range(10):
            A = [[R.rand(rng) for _ in range(n)] for _ in range(n)]
            assert R.eq(linalg.det(R, A), linalg._det_cofactor(R, A))


def test_det_z6_12x12_against_sympy():
    rng = random.Random(400)
    for _ in range(4):
        A = [[rng.randrange(6) for _ in range(12)] for _ in range(12)]
        assert linalg.det(Zmod(6), A) == int(_sympy_det(A)) % 6


# -- the structure-constant kernel against a naive dense evaluation ------------------


def naive_value(R, L, terms, degree, out_dim, vs):
    """sum c v0_{i_1} ... v_{d-1}_{i_d} e_k over every term, each constant
    lifted and multiplied and no factor skipped; vs holds one vector per
    factor (the same vector d times for a value)."""
    out = [L.zero] * (out_dim or 1)
    for key, c in terms.items():
        m = L.from_base(R.coerce(c))
        for v, i in zip(vs, key[:degree]):
            m = L.mul(m, v[i])
        k = 0 if out_dim is None else key[degree]
        out[k] = L.add(out[k], m)
    return out[0] if out_dim is None else out


def naive_polar(R, L, terms, out_dim, x, y):
    """f(x + y) - f(x) - f(y), each value by naive_value."""
    xy = [L.add(a, b) for a, b in zip(x, y)]

    def f(v):
        return naive_value(R, L, terms, 2, out_dim, (v, v))

    if out_dim is None:
        return L.sub(L.sub(f(xy), f(x)), f(y))
    return [L.sub(L.sub(a, b), c) for a, b, c in zip(f(xy), f(x), f(y))]


# QQ payloads whose products and sums are often integral, so that the
# kernels meet Fractions of denominator one
HALVES = [Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 2, -4, 6]


def rand_payload(R, rng):
    return rng.choice(HALVES) if R == QQ and rng.random() < 0.5 else R.rand(rng)


def random_terms(R, rng, n, degree, out_dim, sort=True):
    """Terms with constants 1, -1, 0, a multiple of 6 plus one and random
    ones (over QQ also fractions), keyed by sorted index tuples (any
    tuples unless sort)."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        idx = [rng.randrange(n) for _ in range(degree)]
        key = tuple(sorted(idx) if sort else idx) + (() if out_dim is None else (rng.randrange(out_dim),))
        terms[key] = rng.choice([1, -1, 0, 7, rng.randint(-9, 9), rand_payload(R, rng)])
    return terms


def kernel_inputs(R, rng, n):
    """Vectors with zero coordinates over R, DualExt(R) and PolyExt(R)."""
    from octad.extensions import DualExt, PolyExt

    def vec():
        return [R.zero if rng.random() < 0.4 else rand_payload(R, rng) for _ in range(n)]

    D, P = DualExt(R), PolyExt(R, 2, 3)
    for L, lift in (
        (R, lambda v: v),
        (D, lambda v: [(a, b) for a, b in zip(v, vec())]),
        (P, lambda v: [P.zero if rng.random() < 0.3 else P.add(P.from_base(a), P.var(i % 2)) for i, a in enumerate(v)]),
    ):
        yield L, lift(vec()), lift(vec())


def same(L, out_dim, a, b):
    """a equals b in L; over a scalar ring every payload of a is canonical
    too, which L.eq alone does not see."""
    if isinstance(L, Ring):
        assert all(canonical(L, u) for u in ([a] if out_dim is None else a))
    return L.eq(a, b) if out_dim is None else all(L.eq(u, v) for u, v in zip(a, b))


def dicts(v):
    """The PolyExt payloads in a payload, a vector or a list of columns."""
    return [v] if isinstance(v, dict) else [d for u in v for d in dicts(u)]


def check_owned(L, call, held):
    """call() over PolyExt leaves held (its x, y and acc) and L.zero as they
    were, and owns its result: no nonzero payload of one result is a dict of
    another result or of held, so adding into it in place, as addmul does,
    changes neither another result nor a later call.  An empty coordinate
    may be L.zero itself, the shared zero that nothing ever fills."""
    before = copy.deepcopy(held)
    first, second = call(), call()
    assert held == before and L.zero == {}
    own = [d for d in dicts(first) if d]
    foreign = {id(d) for d in dicts(second) + dicts(held)}
    assert len({id(d) for d in own}) == len(own) and not foreign & {id(d) for d in own}
    want = copy.deepcopy(second)
    for d in own:
        d[-1] = L.base.one  # no packed key is negative
    assert second == want and call() == want and held == before and L.zero == {}


@pytest.mark.parametrize(
    "R",
    [ZZ, QQ, GF(2), GF(3), Zmod(6), GF(10000000000000000051), product_ring(Zmod(4), GF(3)), DualNumbers(GF(5))],
    ids=repr,
)
def test_term_map_matches_naive_dense_evaluation(R):
    rng = random.Random(41)
    signs = set()
    for trial in range(60):
        n = rng.randint(1, 5)
        degree = 1 + trial % 3
        out_dim = rng.choice([None, 1, 3])
        terms = random_terms(R, rng, n, degree, out_dim)
        f = linalg.TermMap(R, terms, degree, out_dim)
        assert all(not R.is_zero(c) for c in f.terms.values())
        signs |= {linalg.unit_sign(R, c) for c in f.terms.values()}
        for L, x, y in kernel_inputs(R, rng, n):
            assert same(L, out_dim, f.value(x, L), naive_value(R, L, terms, degree, out_dim, (x,) * degree))
            acc = f.value(y, L) if degree == 1 else naive_value(R, L, terms, degree, out_dim, (y,) * degree)
            want = naive_value(R, L, terms, degree, out_dim, (x,) * degree)
            want = L.add(want, acc) if out_dim is None else [L.add(a, b) for a, b in zip(want, acc)]
            assert same(L, out_dim, f.value(x, L, acc), want)
            owned = isinstance(L, PolyExt)
            if owned:
                check_owned(L, lambda: f.value(x, L), (x,))
                check_owned(L, lambda: f.value(x, L, acc), (x, acc))
            if degree == 3 and out_dim is None:
                # the norm gradient CubicData once built by hand
                g, want = f.gradient(n), norm_gradient(SimpleNamespace(ring=R, norm_terms=f.terms, dim=n))
                assert g.terms == want.terms and same(L, n, g.value(x, L), want.value(x, L))
            if degree != 2:
                continue
            polar = naive_polar(R, L, terms, out_dim, x, y)
            assert same(L, out_dim, f.polar(x, y, L), polar)
            # the acc path, which cubic._bilinear_adjoint_id takes
            want = L.add(polar, acc) if out_dim is None else [L.add(a, b) for a, b in zip(polar, acc)]
            assert same(L, out_dim, f.polar(x, y, L, acc), want)
            # the gradient's value holds polar(x, e_j) at j * size
            size = out_dim or 1
            cols = f.gradient(n).value(x, L)
            for j in range(n):
                ej = [L.one if i == j else L.zero for i in range(n)]
                col = cols[j] if out_dim is None else cols[j * size : (j + 1) * size]
                assert same(L, out_dim, col, naive_polar(R, L, terms, out_dim, x, ej))
            # unsorted keys (a, b[, k]) are read bilinearly
            bterms = random_terms(R, rng, n, 2, out_dim, sort=False)
            b = linalg.TermMap(R, bterms, 2, out_dim)
            assert same(L, out_dim, b.bilinear(x, y, L), naive_value(R, L, bterms, 2, out_dim, (x, y)))
            if owned:
                check_owned(L, lambda: b.bilinear(x, y, L), (x, y))
                check_owned(L, lambda: b.bilinear(x, y, L, acc), (x, y, acc))
                check_owned(L, lambda: f.polar(x, y, L, acc), (x, y, acc))
    # addmul ran with every sign of a constant the ring has: 1, -1 and a non-unit
    assert signs == {linalg.unit_sign(R, R.from_int(c)) for c in (1, -1, 2) if not R.is_zero(R.from_int(c))}


def test_gradient_drops_the_multiples_the_characteristic_kills():
    # x0^2 + x0 x1: 2 x0 vanishes over GF(2), x1 and x0 remain
    assert linalg.TermMap(GF(2), {(0, 0): 1, (0, 1): 1}, 2).gradient(2).terms == {(0, 1): 1, (1, 0): 1}
    # x0^3 + x0^2 x1: 3 x0^2 vanishes over GF(3), 2 x0 x1 and x0^2 remain
    cubic = linalg.TermMap(GF(3), {(0, 0, 0): 1, (0, 0, 1): 1}, 3)
    assert cubic.gradient(2).terms == {(0, 0, 1): 1, (0, 1, 0): 2}
    # twice 1/2 is the canonical int 1 over QQ
    half = linalg.TermMap(QQ, {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}, 2).gradient(2)
    assert half.terms == {(0, 0): 1, (0, 1): Fraction(1, 3), (1, 0): Fraction(1, 3)}
    assert type(half.terms[(0, 0)]) is int


def test_term_map_coerces_each_constant_once():
    f = linalg.TermMap(GF(5), {(0, 0): 6, (0, 1): 5, (1, 1): -1}, 2)
    assert f.terms == {(0, 0): 1, (1, 1): 4}
    assert f.value([2, 3]) == (4 + 4 * 9) % 5
    g = linalg.TermMap(QQ, {(0,): Fraction(4, 2)}, 1)
    assert type(g.terms[(0,)]) is int


# -- the one field elimination against sympy ---------------------------------------


def _sympy_qq(A):
    return sympy.Matrix([[sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in row] for row in A])


def _qq(x):
    """A sympy rational as a canonical QQ payload."""
    return QQ.validate(Fraction(int(x.p), int(x.q)))


def _rand_qq(rng, den):
    return QQ.validate(Fraction(rng.randint(-9, 9), rng.randint(1, den)))


def _plant_dependent_row(R, rng, A):
    """Make A singular: a zero row when n is 1, else one row a combination
    c1 r_i + c2 r_j of two others."""
    n = len(A)
    k = rng.randrange(n)
    if n == 1:
        A[k] = [R.zero]
        return A
    i, j = (rng.choice([r for r in range(n) if r != k]) for _ in range(2))
    c1, c2 = R.rand(rng), R.rand(rng)
    A[k] = [R.add(R.mul(c1, x), R.mul(c2, y)) for x, y in zip(A[i], A[j])]
    return A


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_and_solve_rational_against_sympy(n):
    rng = random.Random(500 + n)
    verdicts = set()
    for trial in range(12):
        A = [[_rand_qq(rng, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0:
            _plant_dependent_row(QQ, rng, A)
        b = [_rand_qq(rng, 3) for _ in range(n)]
        before = copy.deepcopy(A)
        M = _sympy_qq(A)
        inv, x = linalg.inverse_rational(A), linalg.solve_rational(A, b)
        assert A == before
        verdicts.add(M.det() == 0)
        if M.det() == 0:
            assert inv is None and x is None
            continue
        assert inv == [[_qq(c) for c in M.inv().row(i)] for i in range(n)]
        assert x == [_qq(c) for c in M.LUsolve(_sympy_qq([b]).T)]
        # canonical payloads: an int for every integral value
        assert all(type(c) is int for c in x + sum(inv, []) if Fraction(c).denominator == 1)
    assert verdicts == {True, False}


@pytest.mark.parametrize("R", [QQ, GF(2), GF(7)], ids=repr)
def test_det_is_zero_on_planted_singular_matrices(R):
    rng = random.Random(600)
    for n in range(1, 8):
        for _ in range(5):
            A = _plant_dependent_row(R, rng, [[R.rand(rng) for _ in range(n)] for _ in range(n)])
            assert R.is_zero(linalg.det(R, A)) and R.is_zero(linalg._det_cofactor(R, A))


def _named_grams():
    from octad.zorders import NAMED_LATTICES, alternative_dico

    lattices = {name: make() for name, make in NAMED_LATTICES.items()}
    lattices |= {f"alternative_dico_{v}": alternative_dico(v) for v in ("p_form", "q_form")}
    return {name: lat.gram for name, lat in lattices.items()}


def test_ldl_against_sympy_on_every_named_lattice():
    for name, gram in _named_grams().items():
        low_s, diag_s = _sympy_qq(gram).LDLdecomposition()
        diag, low = linalg.ldl(gram)
        n = len(gram)
        assert diag == [Fraction(_qq(diag_s[i, i])) for i in range(n)], name
        assert low == [[Fraction(_qq(low_s[i, j])) for j in range(n)] for i in range(n)], name
        # Fractions, not canonical ints: _fincke_pohst divides d by an int square
        assert all(type(c) is Fraction for c in diag + sum(low, [])), name


@pytest.mark.parametrize(
    "gram",
    [
        [[0, 1], [1, 0]],  # a zero pivot that a row swap would hide
        [[1, 1], [1, 1]],
        [[1, 2], [2, 1]],
        [[2, 1, 0], [1, 2, 1], [0, 1, -1]],
        [[0]],
        [[-3]],
        [[2, 0, 0], [0, 0, 0], [0, 0, 5]],
        [[Fraction(1, 2), Fraction(1, 4)], [Fraction(1, 4), Fraction(3, 2)]],
        [[4, 2, 2], [2, 5, 3], [2, 3, 6]],
    ],
)
def test_ldl_refuses_exactly_what_sympy_calls_not_positive_definite(gram):
    assert (linalg.ldl(gram) is None) == (not _sympy_qq(gram).is_positive_definite)


def test_ldl_verdict_against_sympy_on_random_symmetric_matrices():
    rng = random.Random(700)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = QQ.validate(Fraction(rng.randint(-2, 12), rng.randint(1, 2)))
            for j in range(i):
                gram[i][j] = gram[j][i] = QQ.validate(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
        pd = _sympy_qq(gram).is_positive_definite
        verdicts.add(pd)
        assert (linalg.ldl(gram) is not None) == pd
    assert verdicts == {True, False}
