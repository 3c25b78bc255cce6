"""check_identity, the one routing rule, against the two checkers it calls.

Inside the cost guard, a sampled-mode verdict is the strict verdict, unless
one of the first PRESAMPLES seeded points fails: that failure is returned
with the trial and witness of the full sampled run.  Above the guard,
sampled mode is the full sampled run itself.
"""

import pytest
from hypothesis import given, settings, strategies as st

from octad.cayley import sedenions
from octad.cubic import CUBIC_IDENTITIES
from octad.identities import (
    CONIC_IDENTITIES,
    PRESAMPLES,
    STRICT_GUARD,
    CostGuardError,
    IdentitySpec,
    check_identity,
    multiset_count,
    run_suite,
    sampled_identity_check,
    strict_identity_check,
)
from octad.scalars import GF, QQ
from test_generic_element import RINGS, conic_cases, corrupted_cubics

SEEDS = st.integers(0, 2**32 - 1)


def assert_routed(A, ident, seed):
    assert multiset_count(A.dim, ident.multidegree) <= STRICT_GUARD
    routed = check_identity(A, ident, "sampled", seed)
    strict = strict_identity_check(A, ident)
    assert routed.holds == strict.holds
    pre = sampled_identity_check(A, ident, seed=seed, samples=PRESAMPLES)
    if pre.holds:
        assert (routed.mode, routed.witness) == ("strict", strict.witness)
        assert routed.details == {**strict.details, "seed": seed, "presamples": PRESAMPLES}
    else:
        assert routed.mode == "sampled" and routed.details["trial"] < PRESAMPLES
        assert routed.to_dict() == pre.to_dict() == sampled_identity_check(A, ident, seed=seed).to_dict()


@settings(max_examples=60, deadline=None)
@given(conic_cases(), SEEDS)
def test_sampled_mode_agrees_with_strict_on_conic_identities(case, seed):
    A, name = case
    assert_routed(A, CONIC_IDENTITIES[name], seed)


@settings(max_examples=40, deadline=None)
@given(corrupted_cubics(sorted(RINGS)), st.sampled_from(sorted(CUBIC_IDENTITIES)), SEEDS)
def test_sampled_mode_agrees_with_strict_on_cubic_identities(J, name, seed):
    assert_routed(J, CUBIC_IDENTITIES[name], seed)


def _zero(alg, L, vs):
    return L.zero


def _rare(alg, L, vs):
    # nonzero only where x_0 = x_1 = x_2 = y_0 = y_1 = y_2 = 1 over GF(2)
    x, y = vs
    v = L.one
    for c in (*x[:3], *y[:3]):
        v = L.mul(v, c)
    return v


# 816 * 816 generic monomials at dimension 16, as in test_identities.test_cost_guard
ABOVE_GUARD = [
    (QQ, IdentitySpec("user6", (3, 3), _zero, scalar=True)),
    (GF(2), IdentitySpec("rare6", (3, 3), _rare, scalar=True)),
]


@pytest.mark.parametrize("ring, ident", ABOVE_GUARD, ids=lambda c: getattr(c, "name", str(c)))
def test_sampled_mode_above_the_guard_is_the_full_sampled_run(ring, ident):
    S = sedenions(ring)
    assert multiset_count(S.dim, ident.multidegree) > STRICT_GUARD
    with pytest.raises(CostGuardError):
        check_identity(S, ident, "strict")
    for seed in (0, 1):
        routed = check_identity(S, ident, "sampled", seed)
        assert routed.to_dict() == sampled_identity_check(S, ident, seed=seed).to_dict()
    # rare6 first fails after the pre-draws: only the full run finds it
    if ident.name == "rare6":
        assert routed.details["trial"] >= PRESAMPLES


def test_sedenion_moufang_fails_at_the_first_pre_draw():
    S = sedenions(QQ)
    for name, v in run_suite(S, "moufang", mode="sampled"):
        assert (v.holds, v.mode, v.details["trial"]) == (False, "sampled", 0), name
