"""The sparse cubic kernels against their definitions.

Each reference below is the dense formula a kernel of CubicData replaced:
every index combination visited, every constant of the dense layout
(tests/dense_layout.py) lifted and multiplied, zeros included.
"""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octad.cayley import ground_algebra
from octad.cli import parse_algebra
from octad.conic import quadratic
from octad.cubic import (
    CUBIC_IDENTITIES,
    CubicData,
    _float_fundamental,
    _slow_fundamental,
    _u_batch,
    fundamental_formula_samples,
    hat_of_conic,
    hat_pointed,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
)
from octad.extensions import DualExt, PolyExt
from octad.her3 import her3
from octad.identities import DEFAULT_SEED, strict_identity_check
from octad.linalg import basis, vec_eq
from octad.quadforms import QuadraticForm
from octad.scalars import GF, QQ, ZZ, DualNumbers, Zmod, product_ring
from octad.tits import split_albert
from octad.zorn import zorn_algebra
from dense_layout import cubic_fields, dense_cubic, unchecked
from reference_paths import norm_gradient

BUILDERS = {
    "her3(zorn(Z))": lambda: her3(zorn_algebra(ZZ)),
    "her3(zorn(F5))": lambda: her3(zorn_algebra(GF(5))),
    "her3(zorn(Z/6))": lambda: her3(zorn_algebra(Zmod(6))),
    "her3(zorn(Q))": lambda: her3(zorn_algebra(QQ)),
    "split_albert(F2)": lambda: split_albert(GF(2)),
    "hat(zorn(Z/6))": lambda: hat_of_conic(zorn_algebra(Zmod(6))),
    "hat(quadratic(Q))": lambda: hat_of_conic(quadratic(QQ, 2, 3)),
}


@functools.lru_cache(maxsize=None)
def structure(name):
    return BUILDERS[name]()


def corrupted(J, pair, k, delta):
    """J with delta added to coordinate k of e_i x e_j, (i, j) = pair."""
    R = J.ring
    sharp, cross, n_single, n_dir, n_triple = cubic_fields(J)
    cross[pair][k] = R.add(cross[pair][k], R.from_int(delta))
    return dense_cubic(unchecked(CubicData), R, J.dim, J.basepoint, sharp, cross, n_single, n_dir, n_triple)


def first_cross_pair(J):
    """The least pair i < j with e_i x e_j != 0."""
    return next((i, j) for i, j, _ in J.sharp_terms if i < j)


# -- dense references ------------------------------------------------------------


def ref_norm(J, L, x):
    """The all-triples loop over every coefficient of the dense layout."""
    R, n, lift = J.ring, J.dim, L.from_base
    _, _, n_single, n_dir, n_triple = cubic_fields(J)
    acc = L.zero
    for i in range(n):
        sq = L.mul(x[i], x[i])
        acc = L.add(acc, L.mul(L.mul(sq, x[i]), lift(n_single[i])))
        for j in range(n):
            if j != i:
                acc = L.add(acc, L.mul(L.mul(sq, x[j]), lift(n_dir.get((i, j), R.zero))))
    for i, j, l in itertools.combinations(range(n), 3):
        c = n_triple.get((i, j, l), R.zero)
        acc = L.add(acc, L.mul(L.mul(L.mul(x[i], x[j]), x[l]), lift(c)))
    return acc


def ref_trace(J, L, x):
    return L.sum(L.mul(a, L.from_base(t)) for a, t in zip(x, J.tvec))


def ref_sharp(J, L, x):
    """sum_i x_i^2 e_i# + sum_{i<j} x_i x_j (e_i x e_j), all pairs."""
    n = J.dim
    sharp_basis, cross_pairs = cubic_fields(J)[:2]
    out = [L.zero] * n
    for i in range(n):
        for j in range(i, n):
            c = L.mul(x[i], x[j])
            vec = sharp_basis[i] if i == j else cross_pairs[(i, j)]
            out = [L.add(o, L.mul(c, L.from_base(t))) for o, t in zip(out, vec)]
    return out


def ref_cross(J, L, x, y):
    """sum_i 2 x_i y_i e_i# + sum_{i<j} (x_i y_j + x_j y_i)(e_i x e_j)."""
    n = J.dim
    sharp_basis, cross_pairs = cubic_fields(J)[:2]
    out = [L.zero] * n
    for i in range(n):
        for j in range(i, n):
            if i == j:
                c = L.mul(x[i], y[i])
                c, vec = L.add(c, c), sharp_basis[i]
            else:
                c, vec = L.add(L.mul(x[i], y[j]), L.mul(x[j], y[i])), cross_pairs[(i, j)]
            out = [L.add(o, L.mul(c, L.from_base(t))) for o, t in zip(out, vec)]
    return out


def ref_trace_bilin(J, L, x, y):
    """T(x, y) = T(x)T(y) - T(x x y)."""
    return L.sub(L.mul(ref_trace(J, L, x), ref_trace(J, L, y)), ref_trace(J, L, ref_cross(J, L, x, y)))


def ref_fundamental(J, x, y):
    """The per-basis-vector definition: U_w e_j = U_x U_y U_x e_j, w = U_x y."""
    R = J.ring
    w = J.u_op_vec(x, y)
    for j in range(J.dim):
        ej = basis(R, J.dim, j)
        if not vec_eq(R, J.u_op_vec(w, ej), J.u_op_vec(x, J.u_op_vec(y, J.u_op_vec(x, ej)))):
            return False
    return True


# -- sample vectors ----------------------------------------------------------------


def plain_vectors(J, rng, count=6):
    R = J.ring
    for t in range(count):
        density = (0.1, 0.5, 1.0)[t % 3]
        yield [R.rand(rng) if rng.random() < density else R.zero for _ in range(J.dim)]


def dual_vectors(J, rng, count=3):
    D = DualExt(J.ring)
    for x, y in zip(plain_vectors(J, rng, count), plain_vectors(J, rng, count)):
        yield D, list(zip(x, y))


def poly_vectors(J, rng, count=3):
    """Vectors like the strict checker's: formal variables on a small support,
    base constants on a few other coordinates."""
    R = J.ring
    L = PolyExt(R, 3, 4)
    for _ in range(count):
        x = [L.zero] * J.dim
        for i in rng.sample(range(J.dim), min(5, J.dim)):
            x[i] = L.from_base(R.rand(rng))
        for t, i in enumerate(rng.sample(range(J.dim), min(3, J.dim))):
            x[i] = L.add(x[i], L.var(t))
        yield L, x


ALL = sorted(BUILDERS)


@pytest.mark.parametrize("name", ALL)
def test_norm_matches_all_triples(name):
    J = structure(name)
    R = J.ring
    rng = random.Random(21)
    for x in plain_vectors(J, rng):
        assert R.eq(J.norm_payload(x), ref_norm(J, R, x))
    for D, x in dual_vectors(J, rng):
        assert D.eq(J.norm_payload(x, D), ref_norm(J, D, x))
    for L, x in poly_vectors(J, rng):
        assert L.eq(J.norm_payload(x, L), ref_norm(J, L, x))


@pytest.mark.parametrize("name", ALL)
def test_trace_and_trace_form_match_definitions(name):
    J = structure(name)
    R = J.ring
    rng = random.Random(22)
    xs = list(plain_vectors(J, rng))
    for x, y in zip(xs, reversed(xs)):
        assert R.eq(J.trace_lin(x), ref_trace(J, R, x))
        assert R.eq(J.trace_bilin(x, y), ref_trace_bilin(J, R, x, y))
        row = J.trace_row(x)
        assert all(R.eq(row[j], ref_trace_bilin(J, R, x, basis(R, J.dim, j))) for j in range(J.dim))
    for (L, x), (_, y) in zip(poly_vectors(J, rng), poly_vectors(J, rng)):
        assert L.eq(J.trace_lin(x, L), ref_trace(J, L, x))
        assert L.eq(J.trace_bilin(x, y, L), ref_trace_bilin(J, L, x, y))


@pytest.mark.parametrize("name", ALL)
def test_norm_gradient_matches_the_dual_number_derivative(name):
    """N(x; y) and T(e_i) = N(1; e_i), read from the stored gradient, against
    the eps part of the all-triples norm at x + eps y over L[eps]."""
    J = structure(name)
    R = J.ring
    D = DualExt(R)
    for i in range(J.dim):
        assert R.eq(J.tvec[i], ref_norm(J, D, list(zip(J.basepoint, basis(R, J.dim, i))))[1])
    rng = random.Random(25)
    xs = list(plain_vectors(J, rng))
    for x, y in zip(xs, reversed(xs)):
        assert R.eq(J.norm_dir_payload(x, y), ref_norm(J, D, list(zip(x, y)))[1])
    for (L, x), (_, y) in zip(poly_vectors(J, rng), poly_vectors(J, rng)):
        assert L.eq(J.norm_dir_payload(x, y, L), ref_norm(J, DualExt(L), list(zip(x, y)))[1])


# structures of the CLI grammar, and small ones over the rings it cannot name
CATALOG = {
    **{spec: functools.partial(parse_algebra, spec) for spec in (
        "her3(Z)", "her3(Q,1/2)", "her3(F2)", "her3(F5)", "her3(Z/6)", "her3(f2xf2)", "her3(zorn(Z))",
        "her3(zorn(Z/6))", "her3(cs-octonions)", "tits(mat3(Z),1)", "tits(mat3(Q),1)", "tits(mat3(Q),1/2)",
        "tits(mat3(F2),1)", "tits(mat3(F5),2)", "tits(mat3(Z/6),1)",
    )},
    "split_albert(Q)": lambda: split_albert(QQ),
    "split_albert(F3)": lambda: split_albert(GF(3)),
    **{f"{name}({R!r})": functools.partial(build, R)
       for R in (product_ring(Zmod(4), GF(3)), DualNumbers(GF(5)))
       for name, build in (("k", k_cubic), ("kk", kk_cubic), ("etale", split_cubic_etale),
                           ("hat", lambda R: hat_of_conic(quadratic(R, 1, -1))))},
}


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_norm_gradient_is_the_hand_written_one(name):
    """CubicData._grad, the norm's TermMap.gradient, has the terms of the
    norm gradient CubicData once built by hand, and the same values."""
    J = CATALOG[name]()
    want = norm_gradient(J)
    assert J._grad.terms == want.terms
    for L, x in poly_vectors(J, random.Random(29), 1):
        assert vec_eq(L, J._grad.value(x, L), want.value(x, L))


@pytest.mark.parametrize("name", ALL)
def test_sharp_and_cross_match_all_pairs(name):
    J = structure(name)
    R = J.ring
    rng = random.Random(23)
    xs = list(plain_vectors(J, rng))
    for x, y in zip(xs, reversed(xs)):
        assert vec_eq(R, J.sharp_vec(x), ref_sharp(J, R, x))
        assert vec_eq(R, J.cross_vec(x, y), ref_cross(J, R, x, y))
    for (L, x), (_, y) in zip(poly_vectors(J, rng), poly_vectors(J, rng)):
        assert vec_eq(L, J.sharp_vec(x, L), ref_sharp(J, L, x))
        assert vec_eq(L, J.cross_vec(x, y, L), ref_cross(J, L, x, y))


@pytest.mark.parametrize("name", ALL)
def test_u_matrix_columns_are_u_op_on_basis(name):
    J = structure(name)
    R = J.ring
    rng = random.Random(24)
    for x in plain_vectors(J, rng, 3):
        cols = J.u_matrix(x)
        for j in range(J.dim):
            ej = basis(R, J.dim, j)
            assert vec_eq(R, cols[j], J.u_op_vec(x, ej))
            # and U_x e_j by its definition T(x, e_j) x - x# x e_j
            t = ref_trace_bilin(J, R, x, ej)
            want = [R.sub(R.mul(t, a), b) for a, b in zip(x, ref_cross(J, R, ref_sharp(J, R, x), ej))]
            assert vec_eq(R, cols[j], want)
    for L, x in poly_vectors(J, rng, 1):
        cols = J.u_matrix(x, L)
        for j in range(J.dim):
            assert vec_eq(L, cols[j], J.u_op_vec(x, [L.from_base(c) for c in basis(R, J.dim, j)], L))


@pytest.mark.parametrize("name", ALL)
def test_operator_fundamental_matches_definition(name):
    J = structure(name)
    R = J.ring
    rng = random.Random(25)
    for _ in range(2):
        x = [R.rand(rng) for _ in range(J.dim)]
        y = [R.rand(rng) for _ in range(J.dim)]
        assert _slow_fundamental(J, x, y) is True
        assert ref_fundamental(J, x, y) is True


@pytest.mark.parametrize("name", ALL)
def test_corrupted_structure_fails_fundamental_both_ways(name):
    J = structure(name)
    R = J.ring
    bad = corrupted(J, first_cross_pair(J), 0, 1)
    rng = random.Random(26)
    verdicts = []
    for _ in range(3):
        x = [R.rand(rng) for _ in range(J.dim)]
        y = [R.rand(rng) for _ in range(J.dim)]
        verdicts.append(_slow_fundamental(bad, x, y))
        assert verdicts[-1] == ref_fundamental(bad, x, y)
    assert not all(verdicts)


# -- the float64 fundamental-formula batches and their exactness bound ------------------

ZZ_STRUCTURES = {
    "her3(zorn(Z))": lambda: structure("her3(zorn(Z))"),
    "split_albert(Z)": lambda: split_albert(ZZ),
    "hat(diag(1, 1000, -7))": lambda: hat_pointed(QuadraticForm.diagonal(ZZ, [1, 1000, -7]), [1, 0, 0]),
}


# integral QQ data, and her3(Q,1/2) with non-integral adjoint constants
QQ_STRUCTURES = {
    "her3(zorn(Q))": lambda: structure("her3(zorn(Q))"),
    "hat(quadratic(Q))": lambda: structure("hat(quadratic(Q))"),
    "tits(mat3(Q),1)": lambda: parse_algebra("tits(mat3(Q),1)"),
    "her3(Q,1/2)": lambda: parse_algebra("her3(Q,1/2)"),
}


# rings with a modulus n > 0, whose batches compare residues mod n, and
# tits(mat3(Q),1/2), scaled QQ data on which the exact path takes 0.1 s a sample
LIFTED_STRUCTURES = {
    "her3(Z/6)": lambda: parse_algebra("her3(Z/6)"),
    "her3(F2)": lambda: parse_algebra("her3(F2)"),
    "her3(F5)": lambda: parse_algebra("her3(F5)"),
    "her3(zorn(Z/6))": lambda: structure("her3(zorn(Z/6))"),
    "tits(mat3(F5),2)": lambda: parse_algebra("tits(mat3(F5),2)"),
    "tits(mat3(Q),1/2)": lambda: parse_algebra("tits(mat3(Q),1/2)"),
}

BATCHED = {**ZZ_STRUCTURES, **QQ_STRUCTURES, **LIFTED_STRUCTURES}


def lift(J, v):
    """The ints _float_fundamental reads a sample as: over Z/n each residue's
    representative in (-n/2, n/2]."""
    m = J.ring.modulus
    return [c - m if 2 * c > m else c for c in v]


def exact_intermediates(J, x, y):
    """The matrices and vectors _float_fundamental forms on (x, y), in exact
    ints: _u_batch over object arrays of the same lifted ints."""
    ctx = {
        key: v.astype(np.int64).astype(object) if getattr(v, "dtype", None) == np.float64 else v
        for key, v in J._u_tensors.items()
    }
    xs = np.array([lift(J, x), lift(J, y)], dtype=object)
    Ux, Uy = _u_batch(ctx, xs)
    w = Ux.dot(xs[1])
    UxUy = Ux.dot(Uy)
    return [Ux, Uy, w, _u_batch(ctx, w[None])[0], UxUy, UxUy.dot(Ux)]


@pytest.mark.parametrize("name", sorted(ZZ_STRUCTURES) + ["her3(Q,1/2)", "her3(zorn(Z/6))"])
def test_float64_fundamental_bound_and_exactness(name):
    """Over ZZ, over Z/6 and on QQ data scaled by d = 4: every exact value the
    batch forms is at most B^6 k, its int U_x is d^2 U_x (mod n over Z/n),
    the float64 batch forms those values exactly, and a chunk is decided
    in float64 exactly when B^6 k < 2^53."""
    J = BATCHED[name]()
    R, m, k = J.ring, J.ring.modulus, J._u_tensors["bound"]
    d = math.lcm(*(c.denominator for c in itertools.chain(J.sharp_terms.values(), J.tvec)))
    rng = random.Random(27)
    pairs = []
    for t in range(4):
        x = [R.rand(rng) for _ in range(J.dim)]
        y = [R.rand(rng) if t else R.from_int(9) for _ in range(J.dim)]
        pairs.append((x, y))
    for x, y in pairs:
        B = max(1, *map(abs, lift(J, x + y)))
        exact = exact_intermediates(J, x, y)
        assert max(int(abs(A).max()) for A in exact) <= B**6 * k
        diff = exact[0] - d * d * np.array(J.u_matrix(x), dtype=object).T
        assert all((c % m if m else c) == 0 for c in diff.flat)
        # a chunk of one sample is decided in float64 exactly when the bound is below 2^53
        assert _float_fundamental(J, [(x, y)]) == ([True] if B**6 * k < 2**53 else None)
        assert _slow_fundamental(J, x, y) is True
    # the stacked float64 U_x are the exact ones
    xs = np.array([lift(J, x) for x, _ in pairs], dtype=np.float64)
    assert (_u_batch(J._u_tensors, xs) == np.array([exact_intermediates(J, x, y)[0] for x, y in pairs])).all()
    if not m:
        # a sample beyond the proven range leaves its chunk to the exact path
        big = [R.from_int(10**6)] * J.dim
        assert _float_fundamental(J, [pairs[1], (big, big)]) is None
        assert _slow_fundamental(J, big, big) is True


def test_large_bound_falls_back_to_the_exact_path_at_b9():
    """hat(diag(1, 1000, -7)) has k = 6.5e10: 7^6 k < 2^53 <= 8^6 k, so a
    chunk with an 8 or a 9 anywhere goes to the exact path as a whole."""
    J = ZZ_STRUCTURES["hat(diag(1, 1000, -7))"]()
    k = J._u_tensors["bound"]
    assert 6.5e10 <= k < 6.6e10
    small, nine = [7, -7, 1, 0], [9, 0, -9, 1]
    assert _float_fundamental(J, [(small, small), (small, small)]) == [True, True]
    assert _float_fundamental(J, [(small, small), (nine, small)]) is None
    assert _float_fundamental(J, [(small, nine)]) is None


def test_a_modulus_at_the_float64_limit():
    """her3 over a prime field has k = 1,734, and 131^6 k < 2^53 <= 132^6 k:
    over F263, whose residues lift to [-131, 131], a chunk at B = 131 runs
    in float64, and over F269 ([-134, 134]) one at B = 134 takes the exact
    path.  No modulus of 2^52 or more has float64 matrices."""
    for p, B, want in ((263, 131, [True]), (269, 134, None)):
        J = parse_algebra(f"her3(F{p})")
        assert J._u_tensors["bound"] == 1734
        x = [B, p - B] + [1] * (J.dim - 2)
        y = [p - B, B] + [p - 1] * (J.dim - 2)
        assert max(map(abs, lift(J, x + y))) == B
        assert _float_fundamental(J, [(x, y)]) == want
        assert _slow_fundamental(J, x, y) is True
    assert parse_algebra(f"her3(Z/{2**52 - 1})")._u_tensors is not None
    assert parse_algebra(f"her3(Z/{2**52})")._u_tensors is None
    assert parse_algebra("her3(F10000000000000000051)")._u_tensors is None


def test_arith_counts_the_samples_each_arithmetic_decided():
    assert fundamental_formula_samples(split_albert(ZZ), samples=40).details["arith"] == {"float64": 40, "exact": 0}
    # every ring with a modulus runs in float64: integral and scaled QQ data, Z/n and GF(p)
    for name in ("hat(quadratic(Q))", "her3(Q,1/2)", "her3(Z/6)", "her3(F5)"):
        assert fundamental_formula_samples(BATCHED[name](), samples=20).details["arith"] == {"float64": 20, "exact": 0}
    # a ring-like without a modulus stays exact
    J = split_cubic_etale(product_ring(Zmod(6), Zmod(6)))
    assert fundamental_formula_samples(J, samples=20).details["arith"] == {"float64": 0, "exact": 20}
    # hat(diag(1, 1000, -7)) admits a chunk of 16 samples only when each |x_i|, |y_i| <= 7
    J = ZZ_STRUCTURES["hat(diag(1, 1000, -7))"]()
    rng = random.Random(DEFAULT_SEED)
    size = 2 * J.dim
    draws = [ZZ.rand(rng) for _ in range(size * 200)]
    chunks = [draws[i : i + size * 16] for i in range(0, len(draws), size * 16)]
    exact = sum(len(c) // size for c in chunks if max(map(abs, c)) > 7)
    assert exact == 200  # each chunk holds an 8 or a 9
    assert fundamental_formula_samples(J, samples=200).details["arith"] == {"float64": 200 - exact, "exact": exact}
    # on Fails, the samples up to the failing trial
    v = fundamental_formula_samples(corrupted(J, first_cross_pair(J), 0, 1), samples=200)
    assert not v.holds and sum(v.details["arith"].values()) == v.details["trial"] + 1


def test_large_constants_take_the_exact_path():
    """N((r, u)) = r q(u) with q = x0^2 + 2^40 (x1^2 + x2^2): the bound is
    above 2^53 already for |x_i| <= 1, so no sample runs in float64."""
    J = hat_pointed(QuadraticForm.diagonal(ZZ, [1, 2**40, 2**40]), [1, 0, 0])
    assert J._u_tensors is None
    assert fundamental_formula_samples(J, samples=20).holds
    bad = corrupted(J, first_cross_pair(J), 0, 1)
    assert bad._u_tensors is None
    v = fundamental_formula_samples(bad, samples=20)
    assert not v.holds
    x = [int(c) for c in v.witness[0]]
    y = [int(c) for c in v.witness[1]]
    assert ref_fundamental(bad, x, y) is False


def test_corrupted_zz_structure_fails_on_both_fundamental_paths():
    J = structure("her3(zorn(Z))")
    bad = corrupted(J, first_cross_pair(J), 0, 1)
    rng = random.Random(28)
    pairs = [([ZZ.rand(rng) for _ in range(J.dim)], [ZZ.rand(rng) for _ in range(J.dim)]) for _ in range(3)]
    assert _float_fundamental(bad, pairs) == [False] * 3
    assert [_slow_fundamental(bad, x, y) for x, y in pairs] == [False] * 3


def one_by_one(J, samples, seed):
    """(trial, witness) of the first failing sample, checked one sample after
    another on the exact path; None when every sample passes."""
    R = J.ring
    rng = random.Random(seed)
    for trial in range(samples):
        x = [R.rand(rng) for _ in range(J.dim)]
        y = [R.rand(rng) for _ in range(J.dim)]
        if not _slow_fundamental(J, x, y):
            return trial, (tuple(map(R.render, x)), tuple(map(R.render, y)))
    return None


def zero_outside(trials, dim, R=ZZ):
    """R.rand and R.rand_vec that draw from the stream as usual but return
    0 outside the given trials (2 dim draws each, counted across calls);
    x = 0 passes the formula."""
    draws = itertools.count()
    rand, rand_vec = type(R).rand, type(R).rand_vec

    def keep(value):
        return value if next(draws) // (2 * dim) in trials else 0

    return (lambda rng: keep(rand(R, rng))), (lambda rng, count: [keep(v) for v in rand_vec(R, rng, count)])


@pytest.mark.parametrize(
    "name, trials",
    [
        ("her3(zorn(Z))", {0}),
        ("her3(zorn(Z))", {15}),
        ("her3(zorn(Z))", {16, 30}),
        ("her3(zorn(Z))", {39}),
        ("hat(diag(1, 1000, -7))", {16}),
        ("hat(diag(1, 1000, -7))", {3, 20, 21, 22}),
        ("her3(Z/6)", {15}),
        ("her3(Z/6)", {16, 30}),
        ("her3(F2)", {0}),
        ("her3(F2)", {31}),
        ("her3(F5)", {16}),
        ("her3(F5)", {15, 21}),
        ("her3(zorn(Z/6))", {21}),
        ("tits(mat3(F5),2)", {15}),
        ("her3(Q,1/2)", {16}),
        ("her3(Q,1/2)", {15, 21}),
        ("tits(mat3(Q),1/2)", {15}),
        ("tits(mat3(Q),1/2)", {16}),
    ],
)
def test_batches_report_the_first_failure_of_a_one_by_one_loop(monkeypatch, name, trials):
    """Failures at the first and last trial of a chunk, the first of the next
    and the last sample, over ZZ, Z/n, GF(p) and scaled QQ data; on
    hat(diag(1, 1000, -7)) a chunk with an 8 or a 9 is exact as a whole."""
    J = BATCHED[name]()
    R = J.ring
    bad = corrupted(J, first_cross_pair(J), 0, 1)
    # the batches draw through the bulk kernel, the loop one coordinate at a time
    monkeypatch.setattr(R, "rand_vec", zero_outside(trials, J.dim, R)[1])
    v = fundamental_formula_samples(bad, samples=40, seed=5)
    monkeypatch.setattr(R, "rand", zero_outside(trials, J.dim, R)[0])
    want = one_by_one(bad, 40, seed=5)
    assert want is not None and want[0] == min(trials)
    assert not v.holds
    assert (v.details["trial"], v.witness) == want
    monkeypatch.setattr(R, "rand_vec", zero_outside(set(), J.dim, R)[1])
    assert fundamental_formula_samples(bad, samples=40, seed=5).holds


@pytest.mark.parametrize("name", sorted(ZZ_STRUCTURES) + ["her3(Z/6)", "her3(F2)", "her3(F5)"])
def test_batches_match_a_one_by_one_loop_on_the_raw_stream(name):
    J = BATCHED[name]()
    for S in (J, corrupted(J, first_cross_pair(J), 0, 1)):
        for seed in (1, 2):
            v = fundamental_formula_samples(S, samples=40, seed=seed)
            want = one_by_one(S, 40, seed)
            assert (None if v.holds else (v.details["trial"], v.witness)) == want


@pytest.mark.parametrize("name", sorted(QQ_STRUCTURES))
def test_qq_batches_match_a_one_by_one_loop(monkeypatch, name):
    """Over QQ the float64 batches, integral or scaled, and the exact path
    give one verdict and first failing trial, corrupted structures
    included: on the raw stream, and with a failure planted late in the
    second chunk."""
    J = QQ_STRUCTURES[name]()
    assert J._u_tensors is not None
    bad = corrupted(J, first_cross_pair(J), 0, 1)
    for S in (J, bad):
        v = fundamental_formula_samples(S, samples=20, seed=3)
        want = one_by_one(S, 20, 3)
        assert (None if v.holds else (v.details["trial"], v.witness)) == want
    monkeypatch.setattr(QQ, "rand_vec", zero_outside({21}, J.dim, QQ)[1])
    v = fundamental_formula_samples(bad, samples=24, seed=5)
    monkeypatch.setattr(QQ, "rand", zero_outside({21}, J.dim, QQ)[0])
    assert not v.holds and (v.details["trial"], v.witness) == one_by_one(bad, 24, seed=5)
    assert v.details["trial"] == 21 and sum(v.details["arith"].values()) == 22


# -- the construction check on corrupted structures ----------------------------------

SMALL = {
    "k_cubic": k_cubic,
    "kk_cubic": kk_cubic,
    "split_cubic_etale": split_cubic_etale,
    "her3(ground)": lambda R: her3(ground_algebra(R)),
    "hat(quadratic)": lambda R: hat_of_conic(quadratic(R, 1, -1)),
}
SMALL_RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(2)": GF(2), "GF(3)": GF(3)}


@functools.lru_cache(maxsize=None)
def small_structure(name, ring):
    return SMALL[name](SMALL_RINGS[ring])


@st.composite
def corrupted_small(draw):
    J = small_structure(draw(st.sampled_from(sorted(SMALL))), draw(st.sampled_from(sorted(SMALL_RINGS))))
    R, n = J.ring, J.dim
    sharp, cross, n_single, n_dir, n_triple = cubic_fields(J)
    for _ in range(draw(st.integers(1, 2))):
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
    return dense_cubic(unchecked(CubicData), R, n, J.basepoint, sharp, cross, n_single, n_dir, n_triple)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(corrupted_small())
def test_construction_refuses_exactly_a_failing_base_point_or_gradient_law(bad):
    R = bad.ring
    basepoint = R.eq(bad.norm_payload(bad.basepoint), R.one) and vec_eq(
        R, bad.sharp_vec(bad.basepoint), bad.basepoint
    )
    gradient = strict_identity_check(bad, CUBIC_IDENTITIES["gradient"]).holds
    try:
        CubicData(R, bad.dim, bad.basepoint, bad.sharp_terms, bad.norm_terms)
    except ValueError:
        refused = True
    else:
        refused = False
    assert refused == (not (basepoint and gradient))
