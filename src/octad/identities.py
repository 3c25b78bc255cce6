"""Strict (polynomial-law) identity verification.

A multihomogeneous vector identity vanishes for all module elements over
every scalar extension of the base ring iff all of its multihomogeneous
components vanish on basis vectors.  The checker reads every component
from one evaluation at the generic element: each variable becomes
sum_i t_i e_i over a truncated polynomial ring with its own n variables
t_i, and each coefficient of the value is one component.  This is
complete in every characteristic (point sampling alone is not, e.g.
over GF(2)).  No variable runs over basis picks: in a slot of degree 1
the coefficient of t_i is the value at e_i.

One cost guard, STRICT_GUARD, bounds the checker's real size: the number
of monomials the generic value can hold, one binomial C(n + d - 1, d) per
slot of degree d (n for a slot of degree 1).  That product is
multiset_count(n, multidegree).

check_identity is the one routing rule for a mode.  Strict mode decides
strictly and raises CostGuardError above the guard.  Sampled mode first
evaluates PRESAMPLES seeded random points (the first trials of the full
sampled run, from the same stream): a failing point is a definitive Fails
with its trial and witness.  If none fails, an identity inside the guard
is decided strictly: the verdict's mode is "strict", and its details add
the seed and PRESAMPLES.  Above the guard the full seeded sampled check
answers, and its pass is only probabilistic.

IMPLIED_BY is the one premise table: each law that a suite reports as
implied, not decided, when all its premises hold strictly.  The cubic
entries are read by cubic.validate_axioms, whose docstring has their
proofs; the conic entries by run_suite.  A conic algebra's premises
"unit" and "degree2" are the strict verdicts it decided at construction
(ConicAlgebra.construction_laws); run_suite decides the others, the two
Kirmse laws, strictly, once per call and only when a law needs them.
It does so only when their generic monomials (multiset_count) number
fewer than those of the suite's laws they would settle, and no law above
the guard consults them.  If every premise of a law holds, the law reads
Holds with mode "implied" and its premises in details["premises"] (in
sampled mode after its own PRESAMPLES, which can still refute it, and
with the seed and PRESAMPLES in its details); otherwise it is decided as
by check_identity, with the same verdict and witness.

The conic implications, in every characteristic.  Suppose the unit law
and the degree-2 law x^2 = t(x)x - n(x)1 hold strictly.  ConicAlgebra
builds conjugation as c(x) = t(x)1 - x, so as polynomial laws

  x(c(x)y) - n(x)y = t(x)xy - x(xy) - n(x)y = x^2 y - x(xy),
  (y c(x))x - n(x)y = t(x)yx - (yx)x - n(x)y = -((yx)x - y x^2):

kirmse-left holds iff left-alternative does, and kirmse iff
right-alternative does.  (Either Kirmse law at y = 1 is, up to sign,
the degree-2 law once the unit law holds, so that premise is also a
consequence of the others; it is free to read.)  Linearizing
(x, x, z) = 0 at x -> x + y gives (x, y, z) = -(y, x, z), so with
right alternativity (x, y, x) = -(y, x, x) = 0: flexible.  Every
alternative ring satisfies the three Moufang laws (K. A. Zhevlakov,
A. M. Slin'ko, I. P. Shestakov and A. I. Shirshov, Rings that are nearly
associative, 1982, ch. 2; R. D. Schafer, An Introduction to
Nonassociative Algebras, 1966, ch. III).  A strict law holds in every
scalar extension, the generic one included, so the Moufang polynomial
laws follow from the strict alternative laws.  norm-comp and norm-assoc
are always decided.
"""

from __future__ import annotations

import random

from .extensions import PolyExt, lift_vec
from .linalg import add_vec, scale_vec, sub_vec

DEFAULT_SEED = 0xA1BE27
PRESAMPLES = 8  # random points a sampled-mode check evaluates before it decides strictly


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
    scalar=True) that must vanish.  A strict check always passes PolyExt
    payloads, so evaluate must lift every constant of the base ring into
    L (extensions.lift_vec) before it mixes it with the variables.
    """

    def __init__(self, name, multidegree, evaluate, scalar=False):
        self.name = name
        self.multidegree = tuple(multidegree)
        self.evaluate = evaluate
        self.scalar = scalar

    @property
    def total_degree(self):
        return sum(self.multidegree)


# The guard counts the monomials of the one generic value a strict check
# computes.  The largest a catalog axiom can need is bilinear-adjoint at
# dimension 27 (142,884), which cubic.validate_axioms decides only when
# the gradient and adjoint identities do not imply it.  Degree-5
# identities on the sedenions inside the guard take up to about 1.4 s
# (tests/test_axiom_suites.py).
STRICT_GUARD = 150_000


def multiset_count(dim, multidegree):
    from math import comb

    total = 1
    for d in multidegree:
        total *= comb(dim + d - 1, d)
    return total


def strict_identity_check(algebra, ident):
    """Decide whether the identity vanishes as a polynomial law.

    Returns Holds, or Fails with the lexicographically smallest witness:
    a tuple of basis-index multisets, one per variable, and in
    details["coordinate"] the smallest row of the value where it fails.
    Raises CostGuardError above STRICT_GUARD.
    """
    ident = _resolve(ident)
    failure = smallest_failure(algebra, ident)
    details = {"identity": ident.name}
    if failure is None:
        return Verdict(True, mode="strict", details=details)
    witness, details["coordinate"] = failure
    return Verdict(False, witness=witness, mode="strict", details=details)


def require_law(algebra, ident, what):
    """Raise ValueError unless the identity holds strictly on the algebra;
    the message names the law (what) and its smallest witness."""
    v = strict_identity_check(algebra, ident)
    if not v.holds:
        raise ValueError(f"{algebra.name}: {what} fails at {v.witness}")


def smallest_failure(algebra, ident):
    """The smallest (witness, coordinate) at which the identity's value has
    a nonzero coefficient, or None when it vanishes as a polynomial law.

    One evaluation: every slot holds the generic element sum_i t_i e_i in
    its own n variables.  A nonzero monomial of the value names a witness:
    per slot, the index multiset of its variables in that slot.  coordinate
    is the smallest row of the value (0 for a scalar identity) where that
    monomial is nonzero.
    """
    ident = _resolve(ident)
    n = algebra.dim
    size = multiset_count(n, ident.multidegree)
    if size > STRICT_GUARD:
        raise CostGuardError(
            f"{ident.name}: {size} generic monomials exceed the guard ({STRICT_GUARD}); use sampled mode"
        )
    slots = len(ident.multidegree)
    # slot v owns the variables t_{n v + i}, i < n
    L = PolyExt(algebra.ring, n * slots, ident.total_degree)
    vectors = [[L.var(n * v + i) for i in range(n)] for v in range(slots)]
    value = ident.evaluate(algebra, L, vectors)
    rows = [value] if ident.scalar else value
    first_row = {}
    for k, c in enumerate(rows):
        for key in c:
            first_row.setdefault(key, k)
    if not first_row:
        return None
    # a witness opens with the least index of slot 0, or with the end of
    # slot 0 (-1) when that slot is empty; only keys that share the least
    # opening can be smallest, so only those are decoded
    opening = {key: L.first_var(key) for key in first_row}
    opening = {key: i if i < n else -1 for key, i in opening.items()}
    least = min(opening.values())
    return min((_witness(L, key, n, slots), k) for key, k in first_row.items() if opening[key] == least)


def _witness(L, key, n, slots):
    """Per slot, the index multiset of a monomial's variables in that slot."""
    parts = [[] for _ in range(slots)]
    for i, e in L.factors(key):
        parts[i // n].extend([i % n] * e)
    return tuple(map(tuple, parts))


def sampled_identity_check(algebra, ident, seed=DEFAULT_SEED, samples=200):
    """Evaluate the identity at seeded random points; exact equality.

    Each trial draws its variables' coordinates, variable after variable,
    in one R.rand_vec call: the same stream as one R.rand call per
    coordinate, so an early failure draws no more than the trials before
    it.  A failure is definitive; a pass is probabilistic.
    """
    ident = _resolve(ident)
    R = algebra.ring
    rng = random.Random(seed)
    n = algebra.dim
    slots = len(ident.multidegree)
    for trial in range(samples):
        draws = R.rand_vec(rng, n * slots)
        vectors = [draws[n * v : n * v + n] for v in range(slots)]
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


def check_identity(algebra, ident, mode="strict", seed=DEFAULT_SEED, decide=None):
    """The identity's verdict in mode "strict" or "sampled", by the routing
    rule of the module docstring.  decide(algebra, ident), if given, stands
    in for strict_identity_check: run_suite passes its premise rule."""
    ident = _resolve(ident)
    decide = decide or strict_identity_check
    if mode == "strict":
        return decide(algebra, ident)
    if multiset_count(algebra.dim, ident.multidegree) > STRICT_GUARD:
        return sampled_identity_check(algebra, ident, seed=seed)
    pre = sampled_identity_check(algebra, ident, seed=seed, samples=PRESAMPLES)
    if not pre.holds:
        return pre
    verdict = decide(algebra, ident)
    verdict.details.update(seed=seed, presamples=PRESAMPLES)
    return verdict


# -- conic-algebra identity catalog --------------------------------------------


def _mul(alg, L, x, y):
    return alg.mul_vec(x, y, L)


def associator(alg, L, x, y, z):
    """[x, y, z] = (xy)z - x(yz) over the ring-like L.  The catalog's
    flexible, left- and right-alternative and associative laws are its
    vanishing at [x, y, x], [x, x, y], [y, x, x] and [x, y, z]."""
    return sub_vec(L, _mul(alg, L, _mul(alg, L, x, y), z), _mul(alg, L, x, _mul(alg, L, y, z)))


def _associator_law(a, b, c):
    """The evaluator of [v_a, v_b, v_c] for the variables v_0, v_1, v_2."""
    return lambda alg, L, vs: associator(alg, L, vs[a], vs[b], vs[c])


def _degree2(alg, L, vs):
    (x,) = vs
    sq = _mul(alg, L, x, x)
    t = alg.trace_lin(x, L)
    nx = alg.norm_payload(x, L)
    out = sub_vec(L, sq, scale_vec(L, t, x))
    return add_vec(L, out, scale_vec(L, nx, lift_vec(L, alg.unit)))


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
    lhs = alg.trace_lin(_mul(alg, L, _mul(alg, L, x, y), z), L)
    rhs = alg.trace_lin(_mul(alg, L, x, _mul(alg, L, y, z)), L)
    return L.sub(lhs, rhs)


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
    "flexible": IdentitySpec("flexible", (2, 1), _associator_law(0, 1, 0)),
    "left-alternative": IdentitySpec("left-alternative", (2, 1), _associator_law(0, 0, 1)),
    "right-alternative": IdentitySpec("right-alternative", (2, 1), _associator_law(1, 0, 0)),
    "moufang-left": IdentitySpec("moufang-left", (2, 1, 1), _moufang_left),
    "moufang-middle": IdentitySpec("moufang-middle", (2, 1, 1), _moufang_middle),
    "moufang-right": IdentitySpec("moufang-right", (2, 1, 1), _moufang_right),
    "kirmse": IdentitySpec("kirmse", (2, 1), _kirmse_right),
    "kirmse-left": IdentitySpec("kirmse-left", (2, 1), _kirmse_left),
    "norm-comp": IdentitySpec("norm-comp", (2, 2), _norm_comp, scalar=True),
    "norm-assoc": IdentitySpec("norm-assoc", (1, 1, 1), _norm_assoc, scalar=True),
    "associative": IdentitySpec("associative", (1, 1, 1), _associator_law(0, 1, 2)),
    "commutative": IdentitySpec("commutative", (1, 1), _commutative),
    "conj-antihom": IdentitySpec("conj-antihom", (1, 1), _conj_antihom),
}

SUITES = {
    "moufang": ("moufang-left", "moufang-middle", "moufang-right"),
    "alternative": ("left-alternative", "right-alternative", "flexible"),
    "kirmse": ("kirmse", "kirmse-left"),
}


def _resolve(ident):
    if isinstance(ident, IdentitySpec):
        return ident
    if ident in CONIC_IDENTITIES:
        return CONIC_IDENTITIES[ident]
    raise KeyError(f"unknown identity {ident!r}")


_ALTERNATIVE = ("unit", "degree2", "kirmse", "kirmse-left")

# Each law that a suite reports as implied, not checked, when all its
# premises hold strictly, and those premises; the proofs are in the module
# docstring (conic laws) and in cubic.validate_axioms' (cubic laws).
IMPLIED_BY = {
    "bilinear-adjoint": ("gradient", "adjoint"),
    "sharp-cross": ("gradient", "adjoint"),
    "fundamental": ("basepoint", "unit-id", "gradient", "adjoint"),
    "left-alternative": ("unit", "degree2", "kirmse-left"),
    "right-alternative": ("unit", "degree2", "kirmse"),
    "flexible": _ALTERNATIVE,
    "moufang-left": _ALTERNATIVE,
    "moufang-middle": _ALTERNATIVE,
    "moufang-right": _ALTERNATIVE,
}


def run_suite(algebra, suite, mode="strict", seed=DEFAULT_SEED):
    """Run a named identity or a suite of them; returns (name, Verdict)
    pairs, each routed by check_identity with the premise rule of the
    module docstring."""
    names = SUITES.get(suite, (suite,))
    decide = _premise_rule(algebra, [_resolve(name) for name in names])
    return [(name, check_identity(algebra, name, mode, seed, decide)) for name in names]


def _premise_rule(algebra, laws):
    """check_identity's decide for a suite of laws on the algebra, or None
    (decide every law strictly) when the algebra keeps no construction_laws
    or the premises to decide would cost at least as many generic monomials
    as the laws inside the guard that they settle.  A premise outside
    construction_laws is decided strictly on first use, once per suite."""
    settled = [law for law in laws if law.name in IMPLIED_BY and _size(algebra, (law,)) <= STRICT_GUARD]
    known = settled and getattr(algebra, "construction_laws", None)
    if not known:
        return None
    verdicts = dict(known)
    decided = {p for law in settled for p in IMPLIED_BY[law.name]} - verdicts.keys()
    if _size(algebra, map(_resolve, decided)) >= _size(algebra, settled):
        return None

    def premise(p):
        if p not in verdicts:
            verdicts[p] = strict_identity_check(algebra, p)
        return verdicts[p]

    def decide(algebra, law):
        premises = IMPLIED_BY[law.name] if law in settled else ()
        if premises and all(premise(p).holds for p in premises):
            return Verdict(True, mode="implied", details={"identity": law.name, "premises": list(premises)})
        return strict_identity_check(algebra, law)

    return decide


def _size(algebra, laws):
    """The generic monomials that strict checks of the laws compute."""
    return sum(multiset_count(algebra.dim, law.multidegree) for law in laws)
