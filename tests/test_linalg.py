import copy
import random
from fractions import Fraction

import pytest
import sympy

from octad import linalg
from octad.extensions import PolyExt
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring


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


def random_terms(R, rng, n, degree, out_dim, sort=True):
    """Terms with constants 1, -1, 0, a multiple of 6 plus one and random
    ones, keyed by sorted index tuples (any tuples unless sort)."""
    terms = {}
    for _ in range(rng.randint(1, 12)):
        idx = [rng.randrange(n) for _ in range(degree)]
        key = tuple(sorted(idx) if sort else idx) + (() if out_dim is None else (rng.randrange(out_dim),))
        terms[key] = rng.choice([1, -1, 0, 7, rng.randint(-9, 9), R.rand(rng)])
    return terms


def kernel_inputs(R, rng, n):
    """Vectors with zero coordinates over R, DualExt(R) and PolyExt(R)."""
    from octad.extensions import DualExt, PolyExt

    def vec():
        return [R.zero if rng.random() < 0.4 else R.rand(rng) for _ in range(n)]

    D, P = DualExt(R), PolyExt(R, 2, 3)
    for L, lift in (
        (R, lambda v: v),
        (D, lambda v: [(a, b) for a, b in zip(v, vec())]),
        (P, lambda v: [P.zero if rng.random() < 0.3 else P.add(P.from_base(a), P.var(i % 2)) for i, a in enumerate(v)]),
    ):
        yield L, lift(vec()), lift(vec())


def same(L, out_dim, a, b):
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


@pytest.mark.parametrize("R", [ZZ, QQ, GF(2), GF(3), Zmod(6)], ids=repr)
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
            if degree != 2:
                continue
            polar = naive_polar(R, L, terms, out_dim, x, y)
            assert same(L, out_dim, f.polar(x, y, L), polar)
            # the acc path, which cubic._bilinear_adjoint_id takes
            want = L.add(polar, acc) if out_dim is None else [L.add(a, b) for a, b in zip(polar, acc)]
            assert same(L, out_dim, f.polar(x, y, L, acc), want)
            cols = f.polar_columns(x, L)
            for j in range(n):
                ej = [L.one if i == j else L.zero for i in range(n)]
                assert same(L, out_dim, cols[j], naive_polar(R, L, terms, out_dim, x, ej))
            # the acc path of polar_columns, which cubic.CubicData.u_matrix takes
            cols_acc = [acc] * n
            assert all(same(L, out_dim, got, L.add(acc, col) if out_dim is None else linalg.add_vec(L, acc, col))
                       for got, col in zip(f.polar_columns(x, L, cols_acc), cols))
            # unsorted keys (a, b[, k]) are read bilinearly
            bterms = random_terms(R, rng, n, 2, out_dim, sort=False)
            b = linalg.TermMap(R, bterms, 2, out_dim)
            assert same(L, out_dim, b.bilinear(x, y, L), naive_value(R, L, bterms, 2, out_dim, (x, y)))
            if owned:
                check_owned(L, lambda: b.bilinear(x, y, L), (x, y))
                check_owned(L, lambda: b.bilinear(x, y, L, acc), (x, y, acc))
                check_owned(L, lambda: f.polar(x, y, L, acc), (x, y, acc))
                check_owned(L, lambda: f.polar_columns(x, L, cols_acc), (x, cols_acc))
    # addmul ran with every sign of a constant the ring has: 1, -1 and a non-unit
    assert signs == {linalg.unit_sign(R, R.from_int(c)) for c in (1, -1, 2) if not R.is_zero(R.from_int(c))}


def test_term_map_coerces_each_constant_once():
    f = linalg.TermMap(GF(5), {(0, 0): 6, (0, 1): 5, (1, 1): -1}, 2)
    assert f.terms == {(0, 0): 1, (1, 1): 4}
    assert f.value([2, 3]) == (4 + 4 * 9) % 5
    g = linalg.TermMap(QQ, {(0,): Fraction(4, 2)}, 1)
    assert type(g.terms[(0,)]) is int
