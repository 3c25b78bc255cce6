"""The library constructors are built once per process.

Each cached constructor is a functools.lru_cache(maxsize=None, typed=True)
of the function it wraps: equal arguments (rings and numbers by value,
structures by identity) give the same structure, a refused argument
raises again on every call, and __wrapped__ builds afresh.  These tests
compare cached structures with fresh builds, check that the checks and
criterion-style uses leave a cached structure unchanged, and that
repeated library calls add no cache entry.
"""

import random
import sys

import pytest

from octad.cayley import (
    cayley_dickson,
    ground_algebra,
    quaternions,
    scale_isomorphism,
    sedenion_zero_divisor_witness,
    sedenions,
)
from octad.conic import cartan_schouten, quadratic, split_etale
from octad.cubic import (
    fundamental_formula_samples,
    hat_of_conic,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
)
from octad.her3 import Gamma, associator_defect, census_f2, diag_rescale, her3, parts_of
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring
from octad.tits import k_assoc, mat3, mu_rescale_map, split_albert, tits
from octad.zorn import zorn_algebra

CACHED = (
    ground_algebra,
    cayley_dickson,
    split_etale,
    quadratic,
    cartan_schouten,
    zorn_algebra,
    k_cubic,
    split_cubic_etale,
    kk_cubic,
    hat_of_conic,
    her3,
    k_assoc,
    mat3,
    tits,
)


def uncached_constructors(monkeypatch, *modules):
    """Bind every cached constructor, in each octad module and in modules,
    to the function it wraps, so that every structure built from here on,
    and every structure those builds call for, is built afresh."""
    wrapped = {id(fn): fn.__wrapped__ for fn in CACHED}
    octad = [mod for name, mod in sys.modules.items() if name == "octad" or name.startswith("octad.")]
    for mod in (*octad, *modules):
        for key, value in list(vars(mod).items()):
            if id(value) in wrapped:
                monkeypatch.setattr(mod, key, wrapped[id(value)])


def cache_sizes():
    return [fn.cache_info().currsize for fn in CACHED]


def test_every_structure_cache_is_listed():
    """No module caches a constructor that these tests do not cover."""
    listed = {id(fn) for fn in CACHED}
    for name in ("conic", "cayley", "zorn", "cubic", "her3", "tits"):
        mod = sys.modules[f"octad.{name}"]
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                assert id(value) in listed, value


def test_equal_rings_share_one_structure():
    assert split_cubic_etale(Zmod(6)) is split_cubic_etale(Zmod(6))
    assert her3(ground_algebra(QQ)) is her3(ground_algebra(QQ))
    assert tits(mat3(ZZ), 1) is split_albert(ZZ)
    assert her3(ground_algebra(QQ), Gamma(QQ, [2, 3, 1])) is her3(ground_algebra(QQ), Gamma(QQ, [2, 3, 1]))
    # GF(7) and Z/7 are different rings, so their structures are different
    assert split_cubic_etale(GF(7)) is not split_cubic_etale(Zmod(7))
    assert split_cubic_etale(GF(7)).ring == GF(7) and split_cubic_etale(Zmod(7)).ring == Zmod(7)


def test_gamma_is_equal_by_value():
    assert Gamma(QQ, [2, 1, 1]) == Gamma(QQ, [2, 1, 1])
    assert hash(Gamma(QQ, [2, 1, 1])) == hash(Gamma(QQ, [2, 1, 1]))
    assert Gamma(GF(5), [3, 1, 1]) == Gamma(GF(5), [8, 1, 1])
    assert Gamma(GF(5), [2, 1, 1]) != Gamma(Zmod(5), [2, 1, 1])
    assert Gamma(QQ, [2, 1, 1]) != Gamma(QQ, [1, 2, 1])


def structure_state(S):
    """What a structure stores, with payload types, and what it was built
    from, as reprs taken now."""
    out = {}
    for name in ("name", "dim", "products", "unit", "basepoint", "sharp_terms", "norm_terms", "tvec"):
        if hasattr(S, name):
            out[name] = repr(getattr(S, name))
    if hasattr(S, "norm") and hasattr(S.norm, "coeffs"):
        out["norm"] = repr(S.norm.coeffs)
    for name in ("data", "cd_base", "coeff_algebra", "tits_input"):
        if hasattr(S, name):
            out[name] = structure_state(getattr(S, name))
    for name in ("cd_mu", "tits_mu", "gamma"):
        if hasattr(S, name):
            out[name] = repr(getattr(S, name))
    return out


BUILDS = {
    "ground_algebra": lambda R: (ground_algebra, R),
    "cayley_dickson": lambda R: (cayley_dickson, ground_algebra(R), -1),
    "cayley_dickson(cay)": lambda R: (cayley_dickson, cayley_dickson(ground_algebra(R), -1), -1),
    "split_etale": lambda R: (split_etale, R),
    "quadratic": lambda R: (quadratic, R, 1, -1),
    "cartan_schouten": lambda R: (cartan_schouten, R),
    "zorn_algebra": lambda R: (zorn_algebra, R),
    "k_cubic": lambda R: (k_cubic, R),
    "split_cubic_etale": lambda R: (split_cubic_etale, R),
    "kk_cubic": lambda R: (kk_cubic, R),
    "hat_of_conic": lambda R: (hat_of_conic, split_etale(R)),
    "her3": lambda R: (her3, ground_algebra(R)),
    "her3(gamma)": lambda R: (her3, split_etale(R), Gamma(R, [1, -1, -1])),
    "k_assoc": lambda R: (k_assoc, R),
    "mat3": lambda R: (mat3, R),
    "tits": lambda R: (tits, mat3(R), -1),
}
RINGS = {"ZZ": ZZ, "QQ": QQ, "GF(2)": GF(2), "GF(3)": GF(3), "Z/6": Zmod(6)}


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_cached_structure_matches_a_fresh_build(build, ring):
    fn, *args = BUILDS[build](RINGS[ring])
    fresh = fn.__wrapped__(*args)
    cached = fn(*args)
    assert cached is fn(*args) and cached is not fresh
    assert structure_state(cached) == structure_state(fresh)


def test_every_cached_constructor_is_compared():
    assert {fn for fn, *_ in (make(ZZ) for make in BUILDS.values())} == set(CACHED)


def test_refused_arguments_raise_on_every_call():
    base, A, S = ground_algebra(Zmod(6)), mat3(Zmod(6)), sedenions(QQ)
    sizes = cache_sizes()
    for _ in range(2):
        with pytest.raises(ValueError, match="mu must be a unit"):
            cayley_dickson(base, 2)
        with pytest.raises(ValueError, match="mu must be a unit"):
            tits(A, 3)
        with pytest.raises(ValueError, match="Gamma entries must be units"):
            her3(base, Gamma(Zmod(6), [1, 2, 1]))
        with pytest.raises(ValueError, match="coefficient algebra must have dimension 1, 2, 4 or 8"):
            her3(S)
    assert cache_sizes() == sizes


def test_a_float_is_refused_after_the_int_is_cached():
    # typed: -1.0 == -1 and hash(-1.0) == hash(-1), but the cache keeps them apart
    base = ground_algebra(ZZ)
    assert cayley_dickson(base, -1).cd_mu == -1
    for _ in range(2):
        with pytest.raises(TypeError):
            cayley_dickson(base, -1.0)
        with pytest.raises(TypeError):
            tits(mat3(ZZ), 1.0)


def test_repeated_library_calls_add_no_cache_entry():
    C = ground_algebra(QQ)
    H = quaternions(QQ)
    A = mat3(GF(5))
    p = [2, 0, 0, 0, 1, 0, 0, 0, 1]
    calls = [
        lambda: diag_rescale(C, Gamma(QQ, [2, 3, 1]), Gamma(QQ, [2, 1, 1])),
        lambda: mu_rescale_map(A, 1, p),
        lambda: mu_rescale_map(k_assoc(QQ), 1, [2]),
        lambda: scale_isomorphism(H, -1, H.element([1, 1, 0, 0])),
        lambda: sedenion_zero_divisor_witness(),
        lambda: sedenion_zero_divisor_witness(ZZ),
        lambda: census_f2(ground_algebra(GF(2)), "rank1"),
        lambda: census_f2(split_etale(GF(2)), "elementary_idempotents"),
    ]
    for call in calls:
        first = call()
        sizes = cache_sizes()
        again = call()
        assert cache_sizes() == sizes
        if isinstance(first, int):
            assert again == first


def test_diag_rescale_shares_her3_cache_entries():
    H = quaternions(QQ)
    gamma, delta = Gamma(QQ, [3, 5, 7]), Gamma(QQ, [2, 1, 1])
    src = her3(H, gamma)
    before = her3.cache_info().currsize
    new_gamma, _, src2, dst = diag_rescale(H, gamma, delta)
    assert her3(H, new_gamma) is dst and src2 is src
    # one entry, for new_gamma: the rescale builds no copy of either side
    assert her3.cache_info().currsize == before + 1


def test_the_unit_twist_of_a_spec_shares_her3s_default_entry():
    """The specs her3(C), her3(C,1) and her3(C,1,1,1) give the structure of
    the library call her3(C), and so does a twist that reduces to 1 (7 in
    Z/6).  A library call that passes the unit Gamma itself keeps an entry
    of its own."""
    from octad.cli import parse_algebra

    for plain, twisted in (("her3(Z)", "her3(Z,1)"), ("her3(Z)", "her3(Z,1,1,1)"), ("her3(Z/6)", "her3(Z/6,7)")):
        J = parse_algebra(plain)
        before = her3.cache_info().currsize
        assert parse_algebra(twisted) is J
        assert her3.cache_info().currsize == before
    C = ground_algebra(ZZ)
    assert parse_algebra("her3(Z)") is her3(C)
    assert her3(C, Gamma(ZZ, [1, 1, 1])) is not her3(C)


def _u_tensor_state(J):
    import numpy as np

    ctx = J._u_tensors
    if ctx is None:
        return None
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in ctx.items()}


def _idempotent_split_use(seed):
    """Criterion 13: the local rank split of random idempotents of k^3."""
    rng = random.Random(seed)
    rings = [Zmod(6), product_ring(Zmod(6), Zmod(6))]
    out = []
    for R in rings:
        J = split_cubic_etale(R)
        idems = [p for p in R.elements() if R.eq(R.mul(p, p), p)]
        for _ in range(10):
            e = J.element([rng.choice(idems) for _ in range(3)])
            out.append([repr(q) for q in J.idempotent_split(e)])
    return [split_cubic_etale(R) for R in rings], out


def _associator_use(seed):
    """Criterion 10: the associator defect of her3 over the octonions."""
    J = her3(cartan_schouten(ZZ))
    rng = random.Random(seed)
    out = []
    for _ in range(10):
        x = J.random_element(rng)
        out.append(([u.coords for u in parts_of(x)[1]], associator_defect(x).coords))
    JH = her3(quaternions(QQ))
    out += [associator_defect(JH.random_element(rng)).coords for _ in range(3)]
    return [J, JH], out


def _fundamental_use(seed):
    """Criterion 09: sampled fundamental formula, float64 batches included."""
    structures = [her3(zorn_algebra(ZZ)), split_albert(ZZ), her3(ground_algebra(GF(3)))]
    out = []
    for J in structures:
        v = fundamental_formula_samples(J, samples=40, seed=seed)
        out.append((v.holds, v.details))
    return structures, out


def _norm_dir_use(seed):
    """Criterion 12: the gradient law N(x; y) = T(x#, y) at random points."""
    structures = [
        k_cubic(ZZ),
        kk_cubic(ZZ),
        hat_of_conic(quadratic(QQ, 0, 1)),
        hat_of_conic(cartan_schouten(QQ)),
        split_cubic_etale(GF(7)),
        her3(ground_algebra(GF(2))),
        split_albert(GF(2)),
    ]
    rng = random.Random(seed)
    out = []
    for J in structures:
        for _ in range(5):
            x = J.ring.rand_vec(rng, J.dim)
            y = J.ring.rand_vec(rng, J.dim)
            out.append(J.ring.eq(J.norm_dir_payload(x, y), J.trace_bilin(J.sharp_vec(x), y)))
    return structures, out


@pytest.mark.parametrize("use", [_idempotent_split_use, _associator_use, _fundamental_use, _norm_dir_use])
def test_library_use_leaves_a_cached_structure_unchanged(use):
    structures, _ = use(3)
    before = [structure_state(J) for J in structures]
    tensors = [_u_tensor_state(J) for J in structures]
    again, answers = use(3)
    assert all(a is b for a, b in zip(again, structures))
    assert [structure_state(J) for J in structures] == before
    assert [_u_tensor_state(J) for J in structures] == tensors
    assert use(3)[1] == answers
