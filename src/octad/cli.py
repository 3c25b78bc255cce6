"""octad: command-line front end.

Subcommands: identities, count, table, lattice.  Exit codes: 0 for
success/Holds, 2 for a verified Fails, 1 for usage or cost-guard errors,
each reported as one line on stderr.  Reports are deterministic for a
fixed command and seed (the millis field necessarily varies run to run).

Calls of main in one process share the argument parser, the named
lattices and the structure of each algebra spec: parse_algebra builds and
validates a spec once, and every check, sample and witness is computed
again on every call.  So the millis of a repeated spec no longer include
the construction.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from functools import cache

from .scalars import GF, QQ, ZZ, Zmod
from . import conic, identities, zorn, zorders
from .cayley import ground_algebra, iterated_cayley_dickson
from .identities import DEFAULT_SEED, CostGuardError


def _parse_ring(text):
    text = text.strip()
    if text == "Q":
        return QQ
    if text == "Z":
        return ZZ
    m = re.fullmatch(r"(F|Z/)([0-9]+)", text)
    if m is None:
        raise ValueError(f"cannot parse ring {text!r} (use Q | Z | Fp | Z/n)")
    return GF(int(m[2])) if m[1] == "F" else Zmod(int(m[2]))


@cache
def parse_algebra(spec):
    """Mini-grammar: cay(ring; mu, ...), zorn(ring), cs-octonions,
    her3(coeff, gamma-list), tits(mat3(ring), mu).

    Built once per spec and process: no structure is changed after it is
    built.  A refused spec raises again on every call."""
    spec = spec.strip()
    if spec == "cs-octonions":
        return conic.cartan_schouten(QQ)
    if spec.startswith("cay(") and spec.endswith(")"):
        ring_s, _, mus_s = spec[4:-1].partition(";")
        ring = _parse_ring(ring_s)
        if not mus_s.strip():
            raise ValueError("cay() needs at least one parameter")
        return iterated_cayley_dickson(ring, [_parse_param(ring, m) for m in _split_args(spec, mus_s)])
    if spec.startswith("zorn(") and spec.endswith(")"):
        return zorn.zorn_algebra(_parse_ring(spec[5:-1]))
    if spec.startswith("her3(") and spec.endswith(")"):
        from .her3 import Gamma, her3

        coeff_s, *gammas = _split_args(spec, spec[5:-1])
        coeff = _parse_coeff(coeff_s)
        if len(gammas) not in (0, 1, 3):
            raise ValueError("her3() takes a coefficient algebra and 1 or 3 gammas")
        gammas = [_parse_param(coeff.ring, g) for g in gammas] * (3 if len(gammas) == 1 else 1)
        return her3(coeff, Gamma(coeff.ring, gammas) if gammas else None)
    if spec.startswith("tits(") and spec.endswith(")"):
        from .tits import mat3, tits

        # mat3(ring), then at most one parameter
        args = _split_args(spec, spec[5:-1])
        m = re.fullmatch(r"mat3\(([^()]*)\)", args[0])
        if m is None or len(args) > 2:
            raise ValueError(f"cannot parse algebra spec {spec!r}")
        ring = _parse_ring(m[1])
        return tits(mat3(ring), _parse_param(ring, args[1] if len(args) == 2 else "1"))
    raise ValueError(f"cannot parse algebra spec {spec!r}")


def _split_args(spec, text):
    """The arguments in text, split at the commas outside parentheses; an
    empty argument makes spec unparseable."""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            args.append(text[start:i].strip())
            start = i + 1
    args.append(text[start:].strip())
    if "" in args:
        raise ValueError(f"cannot parse algebra spec {spec!r}")
    return args


def _parse_param(ring, text):
    """A parameter literal n or p/q as an element of ring: an int when
    integral, else p times the inverse of q, which the ring must have."""
    value = _parse_frac(text.strip(), "parameter")
    if value.denominator == 1:
        return value.numerator
    inv = ring.inv(ring.from_int(value.denominator))
    if inv is None:
        raise ValueError(f"parameter {text.strip()!r} is not an element of {ring}")
    return ring.scalar(ring.mul(ring.from_int(value.numerator), inv))


def _parse_coeff(text):
    text = text.strip()
    if text == "f2":
        return ground_algebra(GF(2))
    if text == "f2xf2":
        return conic.split_etale(GF(2))
    if text.startswith("zorn(") and text.endswith(")"):
        return zorn.zorn_algebra(_parse_ring(text[5:-1]))
    if text == "cs-octonions":
        return conic.cartan_schouten(QQ)
    try:
        ring = _parse_ring(text)
    except ValueError:
        raise ValueError(f"cannot parse coefficient algebra {text!r}")
    return ground_algebra(ring)


CUBIC_SUITES = {"adjoint", "axioms"}


def _run_identities(args):
    t0 = time.monotonic()
    seed = args.seed
    alg = parse_algebra(args.algebra)
    suite = args.suite
    report = {
        "command": "identities",
        "params": {"algebra": args.algebra, "suite": suite, "mode": args.mode},
        "seed": seed,
    }
    from .cubic import CubicData

    if isinstance(alg, CubicData):
        if suite == "adjoint":
            from .cubic import CUBIC_IDENTITIES, adjoint_identity_strict

            if args.mode == "strict":
                v = adjoint_identity_strict(alg)
            else:
                v = identities.check_identity(alg, CUBIC_IDENTITIES["adjoint"], args.mode, seed)
            results = [("adjoint", v)]
        elif suite == "axioms":
            from .cubic import validate_axioms

            v = validate_axioms(alg, mode=args.mode, seed=seed)
            results = [("axioms", v)]
        else:
            raise ValueError(f"cubic algebras support suites {sorted(CUBIC_SUITES)}")
    else:
        results = identities.run_suite(alg, suite, mode=args.mode, seed=seed)
    holds = all(v.holds for _, v in results)
    report["verdict"] = "Holds" if holds else "Fails"
    report["checks"] = {name: v.to_dict() for name, v in results}
    report["millis"] = int((time.monotonic() - t0) * 1000)
    _emit(report, args.json)
    return 0 if holds else 2


def _run_count(args):
    t0 = time.monotonic()
    target = args.target
    report = {"command": "count", "params": {"target": target}, "seed": args.seed}
    if target == "zorn-units":
        count = zorn.count_field(args.p, "invertibles")
        report["params"]["p"] = args.p
        report["count"] = count
        report["formula"] = zorn.invertibles_closed_form(args.p)
    elif target == "zorn-norm1":
        count = zorn.count_field(args.p, "norm_one")
        report["params"]["p"] = args.p
        report["count"] = count
        report["formula"] = zorn.norm_one_closed_form(args.p)
    elif target in ("her3-rank1", "her3-elid"):
        from .her3 import census_f2

        coeff = _parse_coeff(args.coeff)
        what = "rank1" if target == "her3-rank1" else "elementary_idempotents"
        report["params"]["coeff"] = args.coeff
        report["count"] = census_f2(coeff, what)
    elif target == "lattice-units":
        if args.lattice not in zorders.NAMED_LATTICES:
            known = ", ".join(sorted(zorders.NAMED_LATTICES))
            raise ValueError(f"unknown lattice {args.lattice!r}; known lattices: {known}")
        lat = zorders.NAMED_LATTICES[args.lattice]()
        units = lat.enumerate_units()
        report["params"]["lattice"] = args.lattice
        report["count"] = len(units)
        if args.lattice == "dico":
            ints, halves = zorders.unit_type_split(lat, units)
            report["split"] = [len(ints), len(halves)]
    else:
        raise ValueError(f"unknown count target {target!r}")
    report["millis"] = int((time.monotonic() - t0) * 1000)
    _emit(report, args.json)
    return 0


def _run_table(args):
    t0 = time.monotonic()
    alg = parse_algebra(args.algebra)
    if not (args.json or isinstance(alg, conic.ConicAlgebra)):
        raise ValueError(f"{args.algebra} has no multiplication table to print; use --json")
    report = {
        "command": "table",
        "params": {"algebra": args.algebra},
        "seed": args.seed,
        "table": json.loads(alg.to_json()),
    }
    report["millis"] = int((time.monotonic() - t0) * 1000)
    if args.json:
        _emit(report, True)
    else:
        _print_grid(alg)
        print(f"[{report['millis']} ms]")
    return 0


def _print_grid(alg):
    R, n = alg.ring, alg.dim
    names = _basis_names(alg)
    width = max(len(name) for name in names) + 1
    print(" " * width + " ".join(name.rjust(width) for name in names))
    for a in range(n):
        cells = []
        for b in range(n):
            vec = [alg.products.get((a, b, k), R.zero) for k in range(n)]
            cells.append(_render_combo(alg, vec, names).rjust(width))
        print(names[a].rjust(width) + " ".join(cells))


def _basis_names(alg):
    if alg.name == "cs_octonions":
        return ["1"] + [f"u{i}" for i in range(1, 8)]
    if alg.name == "zorn":
        return ["E", "E'", "X1", "X2", "X3", "EX1", "EX2", "EX3"]
    return [f"e{i}" for i in range(alg.dim)]


def _render_combo(alg, vec, names):
    R = alg.ring
    terms = []
    for k, c in enumerate(vec):
        if R.is_zero(c):
            continue
        if R.eq(c, R.one):
            terms.append(names[k])
        elif R.eq(c, R.neg(R.one)):
            terms.append(f"-{names[k]}")
        else:
            terms.append(f"{R.render(c)}*{names[k]}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


def _run_lattice(args):
    t0 = time.monotonic()
    if args.file:
        with open(args.file) as handle:
            text = handle.read()
        ambient = zorders.NAMED_LATTICES[args.name]().ambient
        lat = zorders.ZLattice.from_json(ambient, text, name=args.name)
    else:
        lat = zorders.NAMED_LATTICES[args.name]()
    report = {
        "command": "lattice",
        "params": {"action": args.action, "name": args.name},
        "seed": args.seed,
    }
    code = 0
    if args.action == "gram":
        report["gram"] = json.loads(lat.to_json())["gram"]
    elif args.action == "disc":
        report["disc"] = QQ.render(lat.disc)
    elif args.action == "closure":
        v = lat.closed_under_mul()
        report["verdict"] = "Holds" if v.holds else "Fails"
        if not v.holds:
            names = _kirmse_names() if args.name == "kirmse" else None
            i, j = v.witness[0]
            if names:
                report["witness"] = f"{names[i]}*{names[j]}"
            else:
                report["witness"] = [i, j]
            report["product"] = v.details.get("product")
            code = 2
    elif args.action == "units":
        units = lat.enumerate_units()
        report["count"] = len(units)
        report["units"] = [repr(u) for u in units]
    elif args.action == "member":
        coords = [_parse_frac(c, "coordinate") for c in args.coords]
        elem = lat.ambient.element(coords)
        report["member"] = lat.contains(elem)
    elif args.action == "export":
        report["lattice"] = json.loads(lat.to_json())
    else:
        raise ValueError(f"unknown lattice action {args.action!r}")
    report["millis"] = int((time.monotonic() - t0) * 1000)
    _emit(report, args.json)
    return code


def _kirmse_names():
    return ["1", "u1", "u2", "u3", "v1", "v2", "v3", "v4"]


def _parse_frac(text, what):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"{what} {text!r} is not a rational number") from None


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, which main
    prints as one error line, instead of printing the usage and exiting 2;
    its subparsers are of the same class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@cache
def build_parser():
    """The process's one parser: it keeps no per-call state."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--seed",
        type=int,
        help="seed for sampled checks (env OCTAD_SEED overrides the default)",
    )

    parser = _Parser(
        prog="octad",
        description="exact composition algebras, integral lattices and cubic Jordan algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", parents=[common], help="run an identity suite")
    p_id.add_argument("algebra")
    p_id.add_argument("suite")
    p_id.add_argument("--mode", choices=("strict", "sampled"), default="strict")
    p_id.set_defaults(func=_run_identities)

    p_count = sub.add_parser("count", parents=[common], help="censuses and unit counts")
    p_count.add_argument(
        "target",
        choices=("zorn-units", "zorn-norm1", "her3-rank1", "her3-elid", "lattice-units"),
    )
    p_count.add_argument("--p", type=int, default=2)
    p_count.add_argument("--coeff", default="f2")
    p_count.add_argument("--lattice", default="dico")
    p_count.set_defaults(func=_run_count)

    p_table = sub.add_parser("table", parents=[common], help="dump structure constants")
    p_table.add_argument("algebra")
    p_table.set_defaults(func=_run_table)

    p_lat = sub.add_parser("lattice", parents=[common], help="lattice audits")
    p_lat.add_argument("action", choices=("gram", "disc", "closure", "units", "member", "export"))
    p_lat.add_argument("name", choices=sorted(zorders.NAMED_LATTICES))
    p_lat.add_argument("coords", nargs="*", help="coordinates for the member action")
    p_lat.add_argument("--file", help="read the lattice from an exported JSON file")
    p_lat.set_defaults(func=_run_lattice)
    # argparse reads an argument as a positional only if it looks like a
    # negative number; widen that test to negative fractions such as -1/2
    p_lat._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    return parser


def _default_seed():
    text = os.environ.get("OCTAD_SEED", str(DEFAULT_SEED))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"OCTAD_SEED {text!r} is not an integer") from None


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except SystemExit:  # only --help exits, after printing the help
        return 0
    except CostGuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
