"""Request pools of the three workloads and the hand-written reference answers.

A pool is a fixed list of entries, each with an integer weight.  One
*round* holds every entry ``weight`` times, in an order shuffled from the
run's seed; the seed also draws each request's own inputs (lattice
coordinates, seeds of sampled checks, seeds of criterion samples).  A run
is a whole number of rounds, so every seed measures the same mix of work.

``REFERENCE`` maps every entry key to the answer it must produce.  The
answers come from closed forms and hand derivations, not from running the
program; see README.md in this directory for where each one comes from.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import criteria
import harness


@dataclass(frozen=True)
class Entry:
    key: str
    weight: int = 1
    # "fixed": argv is the key; "sampled": append a drawn --seed;
    # "member-hurwitz" / "member-gaussian": draw coordinates;
    # "criterion": call criteria.CRITERIA[key] with a drawn seed.
    kind: str = "fixed"


@dataclass
class Request:
    key: str
    expect: dict
    argv: list | None = None
    call: Callable | None = None
    label: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    entries: tuple
    traced_rounds: int = 1
    # an untraced run measures at least this many rounds, and its
    # latency_tail_s is the percentile fixed by that minimum, so that a
    # faster program, which finishes more rounds, still reports the same one
    min_rounds: int = 2
    fixtures: Callable = dict  # objects built once, before the timed part
    # requests run once, after the timed part, whose outcome is reported
    # but not gated: known crashes and requests longer than any run
    probes: tuple = ()
    informational: tuple = ()

    @property
    def tail_percentile(self):
        return harness.tail_percentile(self.min_rounds * sum(e.weight for e in self.entries))


def _cli(text, weight=1, kind="fixed"):
    return Entry(text, weight, kind)


def _crit(name, weight=1):
    return Entry(name, weight, "criterion")


# -- the pools ------------------------------------------------------------------

# Some weights put a percentile three or more places inside a run of one
# request type, with 2 or 3 rounds in a run alike: cs-octonions kirmse for
# the median (quaternion moufang, just below it, moves it to the middle of
# that run) and sedenion norm-assoc for the tail.
COMPOSITION = (
    _cli("identities cay(Q;-1,-1) moufang --json", 5),
    _cli("identities cay(Q;-1,-1) associative --json"),
    _cli("identities cay(Q;-1,-1) commutative --json"),
    _cli("identities cay(Q;-1,-1,-1) alternative --json"),
    _cli("identities cay(Q;-1,-1,-1) norm-comp --json"),
    _cli("identities cay(Q;-1,-1,-1) kirmse --json"),
    _cli("identities cay(Q;-1,-1,-1) associative --json"),
    _cli("identities cay(Q;-1,-1,-1) moufang --json"),
    _cli("identities cay(Q;-1,-1,-1,-1) norm-comp --json"),
    _cli("identities cay(Q;-1,-1,-1,-1) flexible --json"),
    _cli("identities cay(Q;-1,-1,-1,-1) norm-assoc --json", 5),
    _cli("identities cay(Z;-1,-1) kirmse --json", 2),
    _cli("identities cay(Z;-1,-1,-1) norm-assoc --json"),
    _cli("identities zorn(Z) alternative --json"),
    _cli("identities cay(F2;1,1) moufang --json"),
    _cli("identities zorn(F2) alternative --json"),
    _cli("identities cay(F3;-1,-1) norm-comp --json", 2),
    _cli("identities zorn(F3) kirmse --json"),
    _cli("identities cay(Z/6;-1,-1) alternative --json", 2),
    _cli("identities zorn(Z/6) flexible --json"),
    _cli("identities cs-octonions alternative --json"),
    _cli("identities cs-octonions kirmse --json", 4),
    _cli("identities zorn(Z/6) moufang --mode sampled --json", kind="sampled"),
    _cli("identities cs-octonions moufang --mode sampled --json", kind="sampled"),
    _cli("identities cay(Q;-1,-1,-1,-1) moufang --mode sampled --json", kind="sampled"),
    _cli("identities cay(F3;-1,-1,-1) alternative --mode sampled --json", kind="sampled"),
    _crit("crit05"),
    _crit("crit06"),
)

# her3(Z) axioms has weight 8 so that the median latency falls inside a run
# of one request type; otherwise it slides between types of different cost.
# crit12 has weight 3 for the same reason, for the tail.
CUBIC = (
    _cli("identities her3(Z) adjoint --json", 2),
    _cli("identities her3(Z) axioms --json", 8),
    _cli("identities her3(F2) axioms --json"),
    _cli("identities her3(F5) adjoint --json", 2),
    _cli("identities her3(F5) axioms --json"),
    _cli("identities her3(Z/6) adjoint --json", 2),
    _cli("identities her3(Z/6) axioms --json"),
    _cli("identities her3(Q) adjoint --json", 2),
    _cli("identities her3(Q) axioms --json"),
    _cli("identities her3(f2) axioms --json"),
    _cli("identities her3(Z,1,-1,1) axioms --json"),
    _cli("identities her3(Z/6) axioms --mode sampled --json", kind="sampled"),
    _cli("identities tits(mat3(F5),2) adjoint --json"),
    _cli("identities tits(mat3(Z),1) axioms --json"),
    _cli("identities tits(mat3(Z/6),1) adjoint --json"),
    _cli("identities tits(mat3(Q),1) adjoint --json"),
    _crit("crit08"),
    _crit("crit09"),
    _crit("crit10"),
    _crit("crit11"),
    _crit("crit12", 3),
    _crit("crit13"),
)

LATTICE = (
    *(_cli(f"count zorn-units --p {p} --json") for p in (2, 3, 5, 7)),
    *(_cli(f"count zorn-norm1 --p {p} --json") for p in (2, 3, 5, 7)),
    _cli("count her3-rank1 --coeff f2 --json"),
    _cli("count her3-elid --coeff f2 --json"),
    _cli("count her3-rank1 --coeff f2xf2 --json"),
    _cli("count her3-elid --coeff f2xf2 --json"),
    *(_cli(f"count lattice-units --lattice {n} --json") for n in ("gaussian", "hurwitz", "dico", "kirmse")),
    _cli("lattice gram hurwitz --json"),
    _cli("lattice gram dico --json"),
    *(_cli(f"lattice disc {n} --json") for n in ("gaussian", "hurwitz", "dico", "kirmse")),
    _cli("lattice closure kirmse --json"),
    _cli("lattice closure dico --json"),
    _cli("lattice closure hurwitz --json"),
    _cli("lattice units gaussian --json"),
    _cli("lattice units hurwitz --json"),
    _cli("lattice units dico --json"),
    _cli("lattice export hurwitz --json"),
    _cli("lattice export kirmse --json"),
    _cli("lattice member hurwitz", 6, kind="member-hurwitz"),
    _cli("lattice member gaussian", 2, kind="member-gaussian"),
    _cli("table cs-octonions"),
    _cli("table zorn(Z) --json"),
    _cli("table cay(F3;-1,-1,-1) --json"),
    _cli("table cay(Q;-1,-1,-1,-1) --json"),
    _crit("crit01"),
    _crit("crit02"),
    _crit("crit03"),
    _crit("crit04"),
    _crit("crit07"),
    _crit("crit14"),
)

# Both crash with a traceback today (ROADMAP item 4); the documented answer
# for bad input is exit 1 with a one-line error.
# The third is refused as a usage error: argparse takes "-1/2" for an option.
LATTICE_PROBES = (
    "table her3(f2)",
    "lattice member hurwitz 1/0 0 0 0 --json",
    "lattice member hurwitz -1/2 1/2 1/2 1/2 --json",
)

# Cubic requests that both run for more than 100 s today.  They run once,
# with the usual timeout, after the lattice traced run, the shortest one.
INFORMATIONAL = (
    'identities tits(mat3(Q),1) axioms --json',
    'identities her3(cs-octonions) axioms --json',
)


# -- reference answers ------------------------------------------------------------

_MOUFANG = ("moufang-left", "moufang-middle", "moufang-right")
_ALTERNATIVE = ("left-alternative", "right-alternative", "flexible")
_KIRMSE = ("kirmse", "kirmse-left")
_AXIOMS = ("basepoint", "unit-id", "gradient", "bilinear-adjoint", "sharp-cross", "fundamental", "adjoint")


def _holds(*names):
    return {"exit": 0, "verdict": "Holds", "checks": {n: "Holds" for n in names}}


def _fails(name, witness=None):
    check = "Fails" if witness is None else {"verdict": "Fails", "witness": witness}
    return {"exit": 2, "verdict": "Fails", "checks": {name: check}}


_AXIOMS_HOLD = {"exit": 0, "verdict": "Holds", "axioms": _AXIOMS}
_ADJOINT_HOLDS = _holds("adjoint")


def _zorn_units(p):
    # |GL| of the split octonions over F_p: p^3 (p - 1)(p^4 - 1)
    return {"exit": 0, "count": p**3 * (p - 1) * (p**4 - 1)}


def _zorn_norm1(p):
    # norm-one elements: p^3 (p^4 - 1)
    return {"exit": 0, "count": p**3 * (p**4 - 1)}


REFERENCE = {
    # conic algebras.  Every Cayley-Dickson double with unit parameters up to
    # dimension 8, the Cartan-Schouten octonions and Zorn's vector matrices
    # are composition algebras over any commutative ring: alternative,
    # Moufang, Kirmse, norm-multiplicative.  Quaternions are associative and
    # not commutative: e1 e2 = e3 = -e2 e1, and no smaller basis pair fails.
    "identities cay(Q;-1,-1) moufang --json": _holds(*_MOUFANG),
    "identities cay(Q;-1,-1) associative --json": _holds("associative"),
    "identities cay(Q;-1,-1) commutative --json": _fails("commutative", [[1], [2]]),
    "identities cay(Q;-1,-1,-1) alternative --json": _holds(*_ALTERNATIVE),
    "identities cay(Q;-1,-1,-1) norm-comp --json": _holds("norm-comp"),
    "identities cay(Q;-1,-1,-1) kirmse --json": _holds(*_KIRMSE),
    # octonions: e1, e2, e3 span a quaternion subalgebra and alternativity
    # covers repeated indices, so (e1, e2, e4) is the smallest bad triple
    "identities cay(Q;-1,-1,-1) associative --json": _fails("associative", [[1], [2], [4]]),
    "identities cay(Q;-1,-1,-1) moufang --json": _holds(*_MOUFANG),
    # sedenions: the witness pinned by acceptance criterion 5
    "identities cay(Q;-1,-1,-1,-1) norm-comp --json": _fails("norm-comp", [[1, 10], [4, 15]]),
    # every Cayley-Dickson algebra is flexible and norm-associative
    "identities cay(Q;-1,-1,-1,-1) flexible --json": _holds("flexible"),
    "identities cay(Q;-1,-1,-1,-1) norm-assoc --json": _holds("norm-assoc"),
    "identities cay(Z;-1,-1) kirmse --json": _holds(*_KIRMSE),
    "identities cay(Z;-1,-1,-1) norm-assoc --json": _holds("norm-assoc"),
    "identities zorn(Z) alternative --json": _holds(*_ALTERNATIVE),
    "identities cay(F2;1,1) moufang --json": _holds(*_MOUFANG),
    "identities zorn(F2) alternative --json": _holds(*_ALTERNATIVE),
    "identities cay(F3;-1,-1) norm-comp --json": _holds("norm-comp"),
    "identities zorn(F3) kirmse --json": _holds(*_KIRMSE),
    "identities cay(Z/6;-1,-1) alternative --json": _holds(*_ALTERNATIVE),
    "identities zorn(Z/6) flexible --json": _holds("flexible"),
    "identities cs-octonions alternative --json": _holds(*_ALTERNATIVE),
    "identities cs-octonions kirmse --json": _holds(*_KIRMSE),
    "identities zorn(Z/6) moufang --mode sampled --json": _holds(*_MOUFANG),
    "identities cs-octonions moufang --mode sampled --json": _holds(*_MOUFANG),
    # sedenions are not Moufang: a random sample exposes it (the witness is random)
    "identities cay(Q;-1,-1,-1,-1) moufang --mode sampled --json": {
        "exit": 2, "verdict": "Fails", "checks": {"moufang-left": "Fails"},
    },
    "identities cay(F3;-1,-1,-1) alternative --mode sampled --json": _holds(*_ALTERNATIVE),
    "crit05": {"result": {"zorn_moufang": [True, True, True], "defect_mismatches": 0}},
    "crit06": {"result": {"product_zero": True, "norms": ["2", "2"]}},
    # cubic: every Her3 over a composition algebra and every first Tits
    # construction is a cubic norm structure, so all axioms hold
    "identities her3(Z) adjoint --json": _ADJOINT_HOLDS,
    "identities her3(Z) axioms --json": _AXIOMS_HOLD,
    "identities her3(F2) axioms --json": _AXIOMS_HOLD,
    "identities her3(F5) adjoint --json": _ADJOINT_HOLDS,
    "identities her3(F5) axioms --json": _AXIOMS_HOLD,
    "identities her3(Z/6) adjoint --json": _ADJOINT_HOLDS,
    "identities her3(Z/6) axioms --json": _AXIOMS_HOLD,
    "identities her3(Q) adjoint --json": _ADJOINT_HOLDS,
    "identities her3(Q) axioms --json": _AXIOMS_HOLD,
    "identities her3(f2) axioms --json": _AXIOMS_HOLD,
    "identities her3(Z,1,-1,1) axioms --json": _AXIOMS_HOLD,
    "identities her3(Z/6) axioms --mode sampled --json": _AXIOMS_HOLD,
    "identities tits(mat3(F5),2) adjoint --json": _ADJOINT_HOLDS,
    "identities tits(mat3(Z),1) axioms --json": _AXIOMS_HOLD,
    # Z/6 data is not integral-with-a-field, and dimension 27 is above the
    # generic guard: the documented answer is the cost-guard exit
    "identities tits(mat3(Z/6),1) adjoint --json": {"exit": 1, "error": "cost guard:"},
    "identities tits(mat3(Q),1) adjoint --json": _ADJOINT_HOLDS,
    "crit08": {"result": {"her3_zorn": True, "albert": True}},
    "crit09": {"result": {"her3_zorn": True, "albert": True}},
    "crit10": {"result": {"mismatches": 0, "quaternion_nonzero": 0}},
    "crit11": {"result": {"x2_zero": False, "x3_zero": True}},
    "crit12": {"result": {"mismatches": 0}},
    "crit13": {"result": {"split_errors": 0}},
    # lattice: closed forms and classical lattice facts
    **{f"count zorn-units --p {p} --json": _zorn_units(p) for p in (2, 3, 5, 7)},
    **{f"count zorn-norm1 --p {p} --json": _zorn_norm1(p) for p in (2, 3, 5, 7)},
    # Her3(F2) = symmetric 3x3 over F2: rank one = v v^T for the 7 nonzero v,
    # elementary idempotents = those with v.v = 1 (odd weight): 4
    "count her3-rank1 --coeff f2 --json": {"exit": 0, "count": 7},
    "count her3-elid --coeff f2 --json": {"exit": 0, "count": 4},
    # Her3(F2 x F2) = Mat3(F2)+: rank-one matrices (2^3 - 1)^2 = 49,
    # rank-one idempotents = (line, complementary plane) pairs 7 * 4 = 28
    "count her3-rank1 --coeff f2xf2 --json": {"exit": 0, "count": 49},
    "count her3-elid --coeff f2xf2 --json": {"exit": 0, "count": 28},
    # units: Z[i] 4, Hurwitz 24 (D4 roots), E8 240 roots = 112 integral + 128 half
    "count lattice-units --lattice gaussian --json": {"exit": 0, "count": 4},
    "count lattice-units --lattice hurwitz --json": {"exit": 0, "count": 24},
    "count lattice-units --lattice dico --json": {"exit": 0, "count": 240, "split": [112, 128]},
    "count lattice-units --lattice kirmse --json": {"exit": 0, "count": 240},
    # Gram of the bilinearized norm: det(Z[i]) = 4, det(D4) = 4, E8 unimodular
    "lattice gram hurwitz --json": {"exit": 0, "gram": "4"},
    "lattice gram dico --json": {"exit": 0, "gram": "1"},
    "lattice disc gaussian --json": {"exit": 0, "disc": "4"},
    "lattice disc hurwitz --json": {"exit": 0, "disc": "4"},
    "lattice disc dico --json": {"exit": 0, "disc": "1"},
    "lattice disc kirmse --json": {"exit": 0, "disc": "1"},
    # the Kirmse integers are not closed: v1 v3 leaves them (README)
    "lattice closure kirmse --json": {"exit": 2, "verdict": "Fails", "witness": "v1*v3"},
    "lattice closure dico --json": {"exit": 0, "verdict": "Holds"},
    "lattice closure hurwitz --json": {"exit": 0, "verdict": "Holds"},
    "lattice units gaussian --json": {"exit": 0, "units": 4},
    "lattice units hurwitz --json": {"exit": 0, "units": 24},
    "lattice units dico --json": {"exit": 0, "units": 240},
    "lattice export hurwitz --json": {"exit": 0, "export": "4"},
    "lattice export kirmse --json": {"exit": 0, "export": "1"},
    # drawn per request: a Hurwitz point has all coordinates in Z or all in
    # Z + 1/2; a Gaussian point has both coordinates in Z
    "lattice member hurwitz": {"exit": 0, "member": "hurwitz-rule"},
    "lattice member gaussian": {"exit": 0, "member": "gaussian-rule"},
    "table cs-octonions": {"exit": 0, "grid": "cs-octonions"},
    "table zorn(Z) --json": {"exit": 0, "table": "zorn"},
    "table cay(F3;-1,-1,-1) --json": {"exit": 0, "table": "cayley"},
    "table cay(Q;-1,-1,-1,-1) --json": {"exit": 0, "table": "cayley"},
    "crit01": {"result": {"units": 24, "match": True}},
    "crit02": {"result": {"units": 240, "split": [112, 128]}},
    "crit03": {"result": {"units_f2": 120, "norm1_f2": 120, "units_f3": 4320, "closed_forms": True}},
    "crit04": {"result": {"rank1": 7, "elid": 4}},
    "crit07": {"result": {"disc": "1", "closed": False, "v1v3_in_witness": True,
                          "product": ["0", "1/2", "1/2", "1/2", "0", "1/2", "0", "0"],
                          "product_in_lattice": False}},
    "crit14": {"result": {"mismatches": 0}},
    # probes: the documented answer to bad input is exit 1 with one error line
    "table her3(f2)": {"exit": 1, "error": "error:"},
    "lattice member hurwitz 1/0 0 0 0 --json": {"exit": 1, "error": "error:"},
    "lattice member hurwitz -1/2 1/2 1/2 1/2 --json": {"exit": 0, "member": True},
    'identities tits(mat3(Q),1) axioms --json': _AXIOMS_HOLD,
    'identities her3(cs-octonions) axioms --json': _AXIOMS_HOLD,
}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "composition": Workload("composition", COMPOSITION),
    "cubic": Workload("cubic", CUBIC, fixtures=criteria.cubic_fixtures),
    "lattice": Workload("lattice", LATTICE, traced_rounds=3, min_rounds=5, probes=LATTICE_PROBES,
                        informational=INFORMATIONAL),
}


# -- request generation -------------------------------------------------------------


def _half_or_int(rng, half):
    k = rng.randint(-3, 3)
    return Fraction(2 * k + 1, 2) if half else Fraction(k)


def _render(c):
    # argparse reads "-1/2" as an option; "-0.5" passes as a negative number
    if c.denominator == 1:
        return str(c.numerator)
    if c < 0:
        return str(float(c))
    return f"{c.numerator}/{c.denominator}"


def _draw_hurwitz(rng):
    kind = rng.randrange(3)
    if kind == 0:
        coords = [_half_or_int(rng, False) for _ in range(4)]
    elif kind == 1:
        coords = [_half_or_int(rng, True) for _ in range(4)]
    else:
        halves = [rng.random() < 0.5 for _ in range(4)]
        if all(halves) or not any(halves):
            halves[rng.randrange(4)] = not halves[0]
        coords = [_half_or_int(rng, h) for h in halves]
        if rng.random() < 0.25:
            coords[rng.randrange(4)] = Fraction(rng.choice((1, 2, 4, 5)), 3)  # never negative: see _render
    return coords


def _draw_gaussian(rng):
    coords = []
    for _ in range(2):
        den = rng.choice((1, 1, 2, 3))
        coords.append(Fraction(rng.randint(0 if den == 3 else -6, 6), den))
    return coords


def hurwitz_member(coords):
    dens = {c.denominator for c in coords}
    return dens == {1} or dens == {2}


def gaussian_member(coords):
    return all(c.denominator == 1 for c in coords)


def make_request(entry, rng, fixtures):
    expect = REFERENCE[entry.key]
    kind = entry.kind
    if kind == "criterion":
        seed = rng.randrange(1, 2**31)
        call = partial(criteria.CRITERIA[entry.key], seed, fixtures)
        return Request(entry.key, expect, call=call, label=f"{entry.key} seed={seed}")
    argv = shlex.split(entry.key)
    if kind == "sampled":
        argv += ["--seed", str(rng.randrange(1, 2**31))]
    elif kind in ("member-hurwitz", "member-gaussian"):
        hurwitz = kind == "member-hurwitz"
        coords = _draw_hurwitz(rng) if hurwitz else _draw_gaussian(rng)
        argv += [_render(c) for c in coords] + ["--json"]
        member = hurwitz_member(coords) if hurwitz else gaussian_member(coords)
        expect = {"exit": 0, "member": member}
    return Request(entry.key, expect, argv=argv, label=" ".join(argv))


def round_requests(workload, seed, index, fixtures):
    """The requests of round ``index`` for ``seed``: the same for the same
    arguments, and always the whole weighted pool."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    slots = [e for e in workload.entries for _ in range(e.weight)]
    rng.shuffle(slots)
    return [make_request(e, rng, fixtures) for e in slots]


def fixed_request(key):
    """A request with no drawn inputs (probes and informational runs)."""
    return Request(key, REFERENCE[key], argv=shlex.split(key), label=key)
