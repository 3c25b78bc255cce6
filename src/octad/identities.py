"""Strict (polynomial-law) identity verification.

A multihomogeneous vector identity vanishes for all module elements over
every scalar extension of the base ring iff all of its multihomogeneous
components vanish on basis vectors.  The checker extracts those
components exactly by evaluating the identity with truncated-polynomial
coordinates on the relevant basis subsets; this is complete in every
characteristic (point sampling alone is not, e.g. over GF(2)).

Variables of degree 1 are specialized to plain basis vectors; only
higher-degree slots receive formal variables.
"""

from __future__ import annotations

import itertools
import random

from .extensions import PolyExt, lift_vec
from .linalg import add_vec, scale_vec, sub_vec

DEFAULT_SEED = 0xA1BE27


class CostGuardError(RuntimeError):
    pass


class Verdict:
    """Outcome of an identity or closure check."""

    def __init__(self, holds, witness=None, mode="strict", details=None):
        self.holds = holds
        self.witness = witness
        self.mode = mode
        self.details = details or {}

    def __repr__(self):
        if self.holds:
            return f"Holds({self.mode})"
        return f"Fails({self.mode}, witness={self.witness})"

    def to_dict(self):
        out = {"verdict": "Holds" if self.holds else "Fails", "mode": self.mode}
        if self.witness is not None:
            out["witness"] = _render_witness(self.witness)
        out.update(self.details)
        return out


def _render_witness(w):
    try:
        return [list(part) for part in w]
    except TypeError:
        return repr(w)


class IdentitySpec:
    """A multihomogeneous identity on an algebra.

    evaluate(alg, L, vars) receives one payload vector per variable over
    the ring-like L and returns a payload vector (or a single payload when
    scalar=True) that must vanish.
    """

    def __init__(self, name, multidegree, evaluate, scalar=False):
        self.name = name
        self.multidegree = tuple(multidegree)
        self.evaluate = evaluate
        self.scalar = scalar

    @property
    def total_degree(self):
        return sum(self.multidegree)


def multiset_count(dim, multidegree):
    from math import comb

    total = 1
    for d in multidegree:
        total *= comb(dim + d - 1, d)
    return total


def strict_identity_check(algebra, ident, cost_guard=10**6):
    """Decide whether the identity vanishes as a polynomial law.

    Returns Holds, or Fails with the lexicographically smallest witness:
    a tuple of basis-index multisets, one per variable.
    """
    ident = _resolve(algebra, ident)
    n = algebra.dim
    if ident.total_degree > 4 and n > 12:
        raise CostGuardError(
            "identities of total degree > 4 on dim > 12 require sampled mode"
        )
    if multiset_count(n, ident.multidegree) > cost_guard:
        raise CostGuardError(
            f"{ident.name}: {multiset_count(n, ident.multidegree)} multisets "
            f"exceed the guard ({cost_guard}); use sampled mode"
        )
    R = algebra.ring
    degs = ident.multidegree
    # variable slots that need formal variables (degree >= 2)
    poly_slots = [v for v, d in enumerate(degs) if d >= 2]
    nvars_per_slot = {v: min(degs[v], n) for v in poly_slots}
    total_vars = sum(nvars_per_slot.values())
    cap = sum(degs)
    L = PolyExt(R, total_vars, cap) if total_vars else R

    subset_iters = []
    for v, d in enumerate(degs):
        if d >= 2:
            subset_iters.append(list(itertools.combinations(range(n), nvars_per_slot[v])))
        else:
            subset_iters.append([(i,) for i in range(n)])

    failures = []
    for combo in itertools.product(*subset_iters):
        var_offset = 0
        vectors = []
        for v, d in enumerate(degs):
            support = combo[v]
            if d >= 2:
                vec = [L.zero] * n
                for t, idx in enumerate(support):
                    vec[idx] = L.var(var_offset + t)
                var_offset += len(support)
                vectors.append(vec)
            else:
                vec = [L.zero] * n
                vec[support[0]] = L.one
                vectors.append(vec)
        value = ident.evaluate(algebra, L, vectors)
        rows = [value] if ident.scalar else value
        bad = _nonzero_monomials(L, rows, total_vars)
        for exps in bad:
            failures.append(_witness_from(combo, degs, exps, nvars_per_slot))
    if not failures:
        return Verdict(True, mode="strict", details={"identity": ident.name})
    witness = min(failures)
    return Verdict(False, witness=witness, mode="strict", details={"identity": ident.name})


def _nonzero_monomials(L, rows, total_vars):
    if total_vars == 0:
        # plain ring evaluation: any nonzero coordinate is a failure
        for c in rows:
            if not L.is_zero(c):
                return [()]
        return []
    bad = set()
    for poly in rows:
        bad.update(poly)
    return sorted(L.exponents(key) for key in bad)


def _witness_from(combo, degs, exps, nvars_per_slot):
    """Map a monomial exponent tuple back to per-variable index multisets."""
    witness = []
    pos = 0
    for v, d in enumerate(degs):
        support = combo[v]
        if d >= 2:
            k = nvars_per_slot[v]
            part = []
            for t in range(k):
                part.extend([support[t]] * (exps[pos + t] if exps else 0))
            pos += k
            witness.append(tuple(part))
        else:
            witness.append((support[0],))
    return tuple(witness)


def sampled_identity_check(algebra, ident, seed=DEFAULT_SEED, samples=200):
    """Evaluate the identity at seeded random points; exact equality.

    A failure is definitive; a pass is probabilistic.
    """
    ident = _resolve(algebra, ident)
    R = algebra.ring
    rng = random.Random(seed)
    n = algebra.dim
    for trial in range(samples):
        vectors = [[R.rand(rng) for _ in range(n)] for _ in ident.multidegree]
        value = ident.evaluate(algebra, R, vectors)
        rows = [value] if ident.scalar else value
        for c in rows:
            if not R.is_zero(c):
                return Verdict(
                    False,
                    witness=tuple(tuple(R.render(x) for x in v) for v in vectors),
                    mode="sampled",
                    details={"identity": ident.name, "trial": trial, "seed": seed},
                )
    return Verdict(True, mode="sampled", details={"identity": ident.name, "samples": samples, "seed": seed})


def check_identity(algebra, ident, mode="strict", seed=DEFAULT_SEED, cost_guard=10**6):
    if mode == "strict":
        return strict_identity_check(algebra, ident, cost_guard=cost_guard)
    return sampled_identity_check(algebra, ident, seed=seed)


# -- conic-algebra identity catalog --------------------------------------------


def _mul(alg, L, x, y):
    return alg.mul_vec(x, y, L)


def _unit(alg, L):
    return lift_vec(L, alg.unit)


def _degree2(alg, L, vs):
    (x,) = vs
    sq = _mul(alg, L, x, x)
    t = alg.trace_payload(x, L)
    nx = alg.norm_payload(x, L)
    out = sub_vec(L, sq, scale_vec(L, t, x))
    return add_vec(L, out, scale_vec(L, nx, _unit(alg, L)))


def _flexible(alg, L, vs):
    x, y = vs
    return sub_vec(L, _mul(alg, L, _mul(alg, L, x, y), x), _mul(alg, L, x, _mul(alg, L, y, x)))


def _left_alt(alg, L, vs):
    x, y = vs
    return sub_vec(L, _mul(alg, L, x, _mul(alg, L, x, y)), _mul(alg, L, _mul(alg, L, x, x), y))


def _right_alt(alg, L, vs):
    x, y = vs
    return sub_vec(L, _mul(alg, L, _mul(alg, L, y, x), x), _mul(alg, L, y, _mul(alg, L, x, x)))


def _moufang_left(alg, L, vs):
    x, y, z = vs
    lhs = _mul(alg, L, x, _mul(alg, L, y, _mul(alg, L, x, z)))
    rhs = _mul(alg, L, _mul(alg, L, _mul(alg, L, x, y), x), z)
    return sub_vec(L, lhs, rhs)


def _moufang_middle(alg, L, vs):
    x, y, z = vs
    lhs = _mul(alg, L, _mul(alg, L, x, y), _mul(alg, L, z, x))
    rhs = _mul(alg, L, _mul(alg, L, x, _mul(alg, L, y, z)), x)
    return sub_vec(L, lhs, rhs)


def _moufang_right(alg, L, vs):
    x, y, z = vs
    lhs = _mul(alg, L, _mul(alg, L, _mul(alg, L, z, x), y), x)
    rhs = _mul(alg, L, z, _mul(alg, L, x, _mul(alg, L, y, x)))
    return sub_vec(L, lhs, rhs)


def _kirmse_right(alg, L, vs):
    x, y = vs
    lhs = _mul(alg, L, _mul(alg, L, y, alg.conj_vec(x, L)), x)
    return sub_vec(L, lhs, scale_vec(L, alg.norm_payload(x, L), y))


def _kirmse_left(alg, L, vs):
    x, y = vs
    lhs = _mul(alg, L, x, _mul(alg, L, alg.conj_vec(x, L), y))
    return sub_vec(L, lhs, scale_vec(L, alg.norm_payload(x, L), y))


def _norm_comp(alg, L, vs):
    x, y = vs
    return L.sub(
        alg.norm_payload(_mul(alg, L, x, y), L),
        L.mul(alg.norm_payload(x, L), alg.norm_payload(y, L)),
    )


def _norm_assoc(alg, L, vs):
    x, y, z = vs
    lhs = alg.trace_payload(_mul(alg, L, _mul(alg, L, x, y), z), L)
    rhs = alg.trace_payload(_mul(alg, L, x, _mul(alg, L, y, z)), L)
    return L.sub(lhs, rhs)


def _associative(alg, L, vs):
    x, y, z = vs
    return sub_vec(L, _mul(alg, L, _mul(alg, L, x, y), z), _mul(alg, L, x, _mul(alg, L, y, z)))


def _commutative(alg, L, vs):
    x, y = vs
    return sub_vec(L, _mul(alg, L, x, y), _mul(alg, L, y, x))


def _conj_antihom(alg, L, vs):
    x, y = vs
    lhs = alg.conj_vec(_mul(alg, L, x, y), L)
    rhs = _mul(alg, L, alg.conj_vec(y, L), alg.conj_vec(x, L))
    return sub_vec(L, lhs, rhs)


CONIC_IDENTITIES = {
    "degree2": IdentitySpec("degree2", (2,), _degree2),
    "flexible": IdentitySpec("flexible", (2, 1), _flexible),
    "left-alternative": IdentitySpec("left-alternative", (2, 1), _left_alt),
    "right-alternative": IdentitySpec("right-alternative", (2, 1), _right_alt),
    "moufang-left": IdentitySpec("moufang-left", (2, 1, 1), _moufang_left),
    "moufang-middle": IdentitySpec("moufang-middle", (2, 1, 1), _moufang_middle),
    "moufang-right": IdentitySpec("moufang-right", (2, 1, 1), _moufang_right),
    "kirmse": IdentitySpec("kirmse", (2, 1), _kirmse_right),
    "kirmse-left": IdentitySpec("kirmse-left", (2, 1), _kirmse_left),
    "norm-comp": IdentitySpec("norm-comp", (2, 2), _norm_comp, scalar=True),
    "norm-assoc": IdentitySpec("norm-assoc", (1, 1, 1), _norm_assoc, scalar=True),
    "associative": IdentitySpec("associative", (1, 1, 1), _associative),
    "commutative": IdentitySpec("commutative", (1, 1), _commutative),
    "conj-antihom": IdentitySpec("conj-antihom", (1, 1), _conj_antihom),
}

SUITES = {
    "moufang": ("moufang-left", "moufang-middle", "moufang-right"),
    "alternative": ("left-alternative", "right-alternative", "flexible"),
    "kirmse": ("kirmse", "kirmse-left"),
}


def _resolve(algebra, ident):
    if isinstance(ident, IdentitySpec):
        return ident
    if ident in CONIC_IDENTITIES:
        return CONIC_IDENTITIES[ident]
    raise KeyError(f"unknown identity {ident!r}")


def run_suite(algebra, suite, mode="strict", seed=DEFAULT_SEED):
    """Run a named identity or a suite of them; returns (name, Verdict) pairs."""
    names = SUITES.get(suite, (suite,))
    return [(name, check_identity(algebra, name, mode=mode, seed=seed)) for name in names]
