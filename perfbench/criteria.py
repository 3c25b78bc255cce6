"""Acceptance criteria as named benchmark requests.

Each criterion follows the matching test in the acceptance suite, without
its wall-clock budget, and returns a small dict of answers that
pools.REFERENCE pins.  Random inputs come from the ``seed`` the benchmark
draws, so the same benchmark seed gives the same inputs.

Two criteria are trimmed to fit a round: criterion 5 checks the defect
formula on DEFECT_PAIRS pairs (the suite uses 1000) and leaves the
octonion Moufang suite and the sedenion witness to the CLI requests of the
same pool; criterion 10 uses ASSOCIATOR_SAMPLES + 5 samples (the suite
uses 500 + 50).
"""

from __future__ import annotations

import random
from fractions import Fraction

from octad.cayley import (
    composition_defect,
    composition_defect_formula,
    ground_algebra,
    quaternions,
    sedenion_zero_divisor_witness,
    sedenions,
)
from octad.conic import cartan_schouten, quadratic
from octad.cubic import (
    adjoint_identity_strict,
    fundamental_formula_samples,
    hat_of_conic,
    k_cubic,
    kk_cubic,
    split_cubic_etale,
)
from octad.her3 import associator_defect, census_f2, her3, parts_of
from octad.identities import run_suite
from octad.quadforms import block_det, block_det_oracle
from octad.scalars import GF, QQ, ZZ, Zmod, product_ring
from octad.tits import char3_nilpotence_demo, split_albert
from octad.zorders import dickson_coxeter, hurwitz, kirmse, unit_type_split
from octad.zorn import count_field, zorn_algebra

DEFECT_PAIRS = 200
ASSOCIATOR_SAMPLES = 50


def cubic_fixtures():
    return {"her3_zorn_zz": her3(zorn_algebra(ZZ)), "albert_zz": split_albert(ZZ)}


def crit01(seed, fx):
    units = hurwitz().enumerate_units()
    want = set()
    for i in range(4):
        for s in (1, -1):
            v = [Fraction(0)] * 4
            v[i] = Fraction(s)
            want.add(tuple(v))
    for mask in range(16):
        want.add(tuple(Fraction((-1) ** ((mask >> k) & 1), 2) for k in range(4)))
    return {"units": len(units), "match": {tuple(u.coords) for u in units} == want}


def crit02(seed, fx):
    lat = dickson_coxeter()
    units = lat.enumerate_units()
    ints, halves = unit_type_split(lat, units)
    return {"units": len(units), "split": [len(ints), len(halves)]}


def crit03(seed, fx):
    closed = (2**3 * 1 * (2**4 - 1), 2**3 * (2**4 - 1), 3**3 * 2 * (3**4 - 1))
    got = (count_field(2, "invertibles"), count_field(2, "norm_one"), count_field(3, "invertibles"))
    return {"units_f2": got[0], "norm1_f2": got[1], "units_f3": got[2], "closed_forms": got == closed}


def crit04(seed, fx):
    F2 = ground_algebra(GF(2))
    return {"rank1": census_f2(F2, "rank1"), "elid": census_f2(F2, "elementary_idempotents")}


def crit05(seed, fx):
    moufang = [v.holds for _, v in run_suite(zorn_algebra(ZZ), "moufang")]
    S = sedenions(QQ)
    rng = random.Random(seed)
    bad = 0
    for _ in range(DEFECT_PAIRS):
        x = S.random_element(rng)
        y = S.random_element(rng)
        bad += composition_defect(x, y) != composition_defect_formula(x, y)
    return {"zorn_moufang": moufang, "defect_mismatches": bad}


def crit06(seed, fx):
    alg, a, b = sedenion_zero_divisor_witness()
    return {"product_zero": alg.mul(a, b).is_zero(), "norms": [repr(a.norm()), repr(b.norm())]}


def crit07(seed, fx):
    K = kirmse()
    v = K.closed_under_mul()
    prod = K.ambient.mul_vec(K.basis[4], K.basis[6])
    return {
        "disc": str(K.disc),
        "closed": v.holds,
        "v1v3_in_witness": (4, 6) in v.witness,
        "product": [str(c) for c in prod],
        "product_in_lattice": K.contains(K.ambient.element(prod)),
    }


def crit08(seed, fx):
    return {
        "her3_zorn": adjoint_identity_strict(fx["her3_zorn_zz"]).holds,
        "albert": adjoint_identity_strict(fx["albert_zz"]).holds,
    }


def crit09(seed, fx):
    return {
        "her3_zorn": fundamental_formula_samples(fx["her3_zorn_zz"], samples=1000, seed=seed).holds,
        "albert": fundamental_formula_samples(fx["albert_zz"], samples=1000, seed=seed).holds,
    }


def crit10(seed, fx):
    O = cartan_schouten(ZZ)
    J = her3(O)
    JH = her3(quaternions(QQ))
    rng = random.Random(seed)
    bad = 0
    for _ in range(ASSOCIATOR_SAMPLES):
        x = J.random_element(rng)
        _, us = parts_of(x)
        want = O.mul(O.mul(us[0], us[1]), us[2]) - O.mul(us[0], O.mul(us[1], us[2]))
        bad += associator_defect(x) != want
    nonzero = sum(not associator_defect(JH.random_element(rng)).is_zero() for _ in range(5))
    return {"mismatches": bad, "quaternion_nonzero": nonzero}


def crit11(seed, fx):
    _, x, x2, x3 = char3_nilpotence_demo(GF(3))
    return {"x2_zero": x2.is_zero(), "x3_zero": x3.is_zero()}


def crit12(seed, fx):
    algebras = [
        k_cubic(ZZ),
        split_cubic_etale(ZZ),
        kk_cubic(ZZ),
        hat_of_conic(quadratic(QQ, 0, 1)),
        hat_of_conic(cartan_schouten(QQ)),
        split_cubic_etale(GF(7)),
        her3(ground_algebra(GF(2))),
        split_albert(GF(2)),
    ]
    rng = random.Random(seed)
    bad = total = 0
    while total < 1000:
        for J in algebras:
            x = [J.ring.rand(rng) for _ in range(J.dim)]
            y = [J.ring.rand(rng) for _ in range(J.dim)]
            bad += not J.ring.eq(J.norm_dir_payload(x, y), J.trace_bilin(J.sharp_vec(x), y))
            total += 1
    return {"mismatches": bad}


def crit13(seed, fx):
    rings = [Zmod(6), product_ring(Zmod(6), Zmod(6)), product_ring(Zmod(6), Zmod(6), Zmod(6))]
    rng = random.Random(seed)
    errors = 0
    for done in range(200):
        R = rings[done % len(rings)]
        J = split_cubic_etale(R)
        idems = [p for p in R.elements() if R.eq(R.mul(p, p), p)]
        e = J.element([rng.choice(idems) for _ in range(3)])
        r0, r1, r2, r3 = (q.payload for q in J.idempotent_split(e))
        t, s, n = J.trace_lin(e.coords), J.squad(e.coords), J.norm_payload(e.coords)
        # where the split selects rank k, the (T, S, N) data fit rank k
        for sel, val, want in ((r1, t, R.one), (r2, t, R.from_int(2)), (r3, n, R.one), (r0, t, R.zero)):
            errors += not R.is_zero(R.mul(sel, R.sub(val, want)))
        errors += not R.is_zero(R.mul(r1, s))
        errors += not R.is_zero(R.mul(r2, R.sub(s, R.one)))
    return {"split_errors": errors}


def crit14(seed, fx):
    rng = random.Random(seed)
    bad = 0
    for _ in range(500):
        p = rng.randint(1, 5)
        q = rng.randint(1, min(p, 6 - p))
        r = QQ.scalar(rng.choice([x for x in range(-5, 6) if x != 0]))
        s = QQ.scalar(rng.randint(-5, 5))
        T1 = [[rng.randint(-5, 5) for _ in range(q)] for _ in range(p)]
        T2 = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(q)]
        bad += block_det(r, s, T1, T2) != block_det_oracle(r, s, T1, T2)
    return {"mismatches": bad}


CRITERIA = {name: fn for name, fn in globals().items() if name.startswith("crit") and name[4:].isdigit()}
