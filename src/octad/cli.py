"""octad: command-line front end.

Subcommands: identities, count, table, lattice.  Exit codes: 0 for
success/Holds, 2 for a verified Fails, 1 for usage or cost-guard errors.
Reports are deterministic for a fixed command and seed (the millis field
necessarily varies run to run).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from .scalars import GF, QQ, ZZ, Zmod
from . import conic, identities, zorn, zorders
from .cayley import iterated_cayley_dickson
from .identities import DEFAULT_SEED, CostGuardError


def _parse_ring(text):
    text = text.strip()
    if text == "Q":
        return QQ
    if text == "Z":
        return ZZ
    if text.startswith("F"):
        return GF(int(text[1:]))
    if text.startswith("Z/"):
        return Zmod(int(text[2:]))
    raise ValueError(f"cannot parse ring {text!r} (use Q | Z | Fp | Z/n)")


def parse_algebra(spec):
    """Mini-grammar: cay(ring; mu, ...), zorn(ring), cs-octonions,
    her3(coeff, gamma-list), tits(mat3(ring), mu)."""
    spec = spec.strip()
    if spec == "cs-octonions":
        return conic.cartan_schouten(QQ)
    if spec.startswith("cay(") and spec.endswith(")"):
        inner = spec[4:-1]
        ring_s, _, mus_s = inner.partition(";")
        ring = _parse_ring(ring_s)
        mus = [int(m) for m in mus_s.split(",") if m.strip()]
        if not mus:
            raise ValueError("cay() needs at least one parameter")
        return iterated_cayley_dickson(ring, mus)
    if spec.startswith("zorn(") and spec.endswith(")"):
        return zorn.zorn_algebra(_parse_ring(spec[5:-1]))
    if spec.startswith("her3(") and spec.endswith(")"):
        from .her3 import Gamma, her3

        inner = spec[5:-1]
        depth = 0
        parts, cur = [], []
        for ch in inner:
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                parts.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        parts.append("".join(cur).strip())
        coeff = _parse_coeff(parts[0])
        gamma = None
        if len(parts) == 2:
            gamma = Gamma(coeff.ring, [int(parts[1])] * 3)
        elif len(parts) == 4:
            gamma = Gamma(coeff.ring, [int(p) for p in parts[1:4]])
        elif len(parts) != 1:
            raise ValueError("her3() takes a coefficient algebra and 1 or 3 gammas")
        return her3(coeff, gamma)
    if spec.startswith("tits(") and spec.endswith(")"):
        from .tits import mat3, tits

        inner = spec[5:-1]
        if not inner.startswith("mat3("):
            raise ValueError("tits() expects mat3(ring) input")
        close = inner.index(")")
        ring = _parse_ring(inner[5:close])
        mu = int(inner[close + 1 :].lstrip(",").strip() or "1")
        return tits(mat3(ring), mu)
    raise ValueError(f"cannot parse algebra spec {spec!r}")


def _parse_coeff(text):
    text = text.strip()
    if text == "f2":
        return _coeff_field(GF(2))
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
    return _coeff_field(ring)


def _coeff_field(ring):
    from .cayley import ground_algebra

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
            from .cubic import adjoint_identity_strict
            from .identities import sampled_identity_check
            from .cubic import CUBIC_IDENTITIES

            if args.mode == "strict":
                v = adjoint_identity_strict(alg)
            else:
                v = sampled_identity_check(alg, CUBIC_IDENTITIES["adjoint"], seed=seed)
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
    if not (args.json or hasattr(alg, "table")):
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
    R = alg.ring
    names = _basis_names(alg)
    width = max(len(n) for n in names) + 1
    print(" " * width + " ".join(n.rjust(width) for n in names))
    for a in range(alg.dim):
        cells = []
        for b in range(alg.dim):
            cells.append(_render_combo(alg, alg.table[a][b], names).rjust(width))
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
        d = lat.disc
        report["disc"] = str(d.numerator) if d.denominator == 1 else f"{d.numerator}/{d.denominator}"
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
        coords = [_parse_frac(c) for c in args.coords]
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


def _parse_frac(text):
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"coordinate {text!r} has a zero denominator") from None


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for k, v in report.items():
            print(f"{k}: {v}")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--seed",
        type=int,
        default=int(os.environ.get("OCTAD_SEED", DEFAULT_SEED)),
        help="seed for sampled checks (env OCTAD_SEED overrides the default)",
    )

    parser = argparse.ArgumentParser(
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CostGuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
