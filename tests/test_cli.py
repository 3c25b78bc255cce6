import contextlib
import io
import types
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from octad import cli, identities
from octad.cli import main, parse_algebra
from octad.identities import DEFAULT_SEED
from octad.scalars import GF, ZZ, Zmod
from dense_layout import conic_table
from reference_paths import zorn_algebra_by_basis_products
from test_constructor_cache import cache_sizes, structure_state, uncached_constructors


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_identities_moufang_octonions(capsys):
    code, blob = run_json(capsys, "identities", "cay(Q;-1,-1,-1)", "moufang", "--json")
    assert code == 0
    assert blob["verdict"] == "Holds"
    assert set(blob["checks"]) == {"moufang-left", "moufang-middle", "moufang-right"}


def test_identities_sedenion_norm_comp_fails(capsys):
    code, blob = run_json(capsys, "identities", "cay(Q;-1,-1,-1,-1)", "norm-comp", "--json")
    assert code == 2
    assert blob["verdict"] == "Fails"
    assert "witness" in blob["checks"]["norm-comp"]


def test_identities_her3_adjoint(capsys):
    code, blob = run_json(capsys, "identities", "her3(zorn(Z),1,1,1)", "adjoint", "--json")
    assert code == 0
    assert blob["checks"]["adjoint"]["mode"] == "strict"


def test_count_lattice_units_dico(capsys):
    code, blob = run_json(capsys, "count", "lattice-units", "--lattice", "dico", "--json")
    assert code == 0
    assert blob["count"] == 240
    assert blob["split"] == [112, 128]


def test_count_zorn_units(capsys):
    code, blob = run_json(capsys, "count", "zorn-units", "--p", "2", "--json")
    assert code == 0
    assert blob["count"] == 120
    assert blob["formula"] == 120


def test_count_her3_elid(capsys):
    code, blob = run_json(capsys, "count", "her3-elid", "--coeff", "f2", "--json")
    assert code == 0
    assert blob["count"] == 4


def test_count_her3_rank1(capsys):
    code, blob = run_json(capsys, "count", "her3-rank1", "--coeff", "f2", "--json")
    assert blob["count"] == 7


def test_count_her3_elid_over_the_split_albert_algebra(capsys):
    # dimension 27, 2^27 points: 128 chunks of bit lanes, no cost guard
    code, blob = run_json(capsys, "count", "her3-elid", "--coeff", "zorn(F2)", "--json")
    assert code == 0
    assert blob["count"] == 69888


@pytest.mark.parametrize(
    "spec, R", [("Z", ZZ), ("F2", GF(2)), ("F3", GF(3)), ("Z/6", Zmod(6))], ids=["Z", "F2", "F3", "Z/6"]
)
def test_table_zorn_matches_the_basis_products(capsys, spec, R):
    code, blob = run_json(capsys, "table", f"zorn({spec})", "--json")
    ref = zorn_algebra_by_basis_products(R)
    assert code == 0
    assert blob["table"]["table"] == [[[R.render(c) for c in vec] for vec in row] for row in conic_table(ref)]
    assert blob["table"]["unit"] == [R.render(c) for c in ref.unit]


def test_table_zorn_names_its_basis(capsys):
    code, out = run(capsys, "table", "zorn(F2)")
    assert code == 0
    assert out.splitlines()[0].split() == ["E", "E'", "X1", "X2", "X3", "EX1", "EX2", "EX3"]


def test_table_cs_octonions_shows_product(capsys):
    code, out = run(capsys, "table", "cs-octonions")
    assert code == 0
    row = next(line for line in out.splitlines() if line.strip().startswith("u3 "))
    cells = row.split()
    # column for u4 (header order: 1 u1..u7): entry is u6
    assert cells[5] == "u6"


def test_lattice_disc_dico(capsys):
    code, blob = run_json(capsys, "lattice", "disc", "dico", "--json")
    assert code == 0
    assert blob["disc"] == "1"


def test_lattice_closure_kirmse(capsys):
    code, blob = run_json(capsys, "lattice", "closure", "kirmse", "--json")
    assert code == 2
    assert blob["verdict"] == "Fails"
    assert blob["witness"] == "v1*v3"


def test_lattice_member(capsys):
    code, blob = run_json(
        capsys, "lattice", "member", "hurwitz", "1/2", "1/2", "1/2", "1/2", "--json"
    )
    assert code == 0
    assert blob["member"] is True
    code, blob = run_json(capsys, "lattice", "member", "hurwitz", "1/2", "1/2", "0", "0", "--json")
    assert blob["member"] is False


def test_lattice_export_round_trip(capsys):
    code, blob = run_json(capsys, "lattice", "export", "hurwitz", "--json")
    assert blob["lattice"]["disc"] == "4"
    assert blob["lattice"]["integral"] is True


def test_deterministic_reports_modulo_millis(capsys):
    _, blob1 = run_json(capsys, "count", "zorn-units", "--p", "2", "--json", "--seed", "7")
    _, blob2 = run_json(capsys, "count", "zorn-units", "--p", "2", "--json", "--seed", "7")
    blob1.pop("millis")
    blob2.pop("millis")
    assert json.dumps(blob1, sort_keys=True) == json.dumps(blob2, sort_keys=True)


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("OCTAD_SEED", "12345")
    _, blob = run_json(capsys, "count", "zorn-units", "--p", "2", "--json")
    assert blob["seed"] == 12345


def test_bad_seed_env_gives_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("OCTAD_SEED", "abc")
    code = main(["count", "zorn-units", "--p", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: OCTAD_SEED 'abc' is not an integer\n"
    # an explicit --seed does not read the environment
    _, blob = run_json(capsys, "count", "zorn-units", "--p", "2", "--json", "--seed", "3")
    assert blob["seed"] == 3


# one process's calls, interleaving every subcommand: (OCTAD_SEED or None, argv)
REUSED_PARSER_CALLS = [
    (None, ("identities", "cay(Q;-1,-1)", "alternative", "--mode", "sampled", "--json", "--seed", "5")),
    (None, ("identities", "cay(Q;-1,-1)", "alternative", "--mode", "sampled", "--json")),
    ("12345", ("count", "zorn-units", "--p", "2", "--json")),
    ("77", ("count", "zorn-units", "--p", "2", "--json")),
    ("77", ("lattice", "disc", "nosuch", "--json")),  # usage error: argparse exits
    ("77", ("table", "cs-octonions")),
    (None, ("lattice", "member", "hurwitz", "-1/2", "1/2", "1/2", "1/2", "--json")),
    (None, ("count", "--help")),
    (None, ("lattice", "units", "hurwitz")),
    ("abc", ("count", "her3-rank1", "--coeff", "f2", "--json")),
    ("abc", ("count", "lattice-units", "--lattice", "dico", "--json", "--seed", "9")),
    (None, ("identities", "cay(Q;-1,-1,-1,-1)", "norm-comp", "--json")),
    (None, ("table", "her3(f2)", "--json")),
    (None, ("lattice", "closure", "kirmse", "--json")),
]
MILLIS = re.compile(r'(?<="millis": )\d+|(?<=millis: )\d+|\d+(?= ms\])')


def _run_calls(capsys, monkeypatch, calls=REUSED_PARSER_CALLS):
    results = []
    for env, argv in calls:
        if env is None:
            monkeypatch.delenv("OCTAD_SEED", raising=False)
        else:
            monkeypatch.setenv("OCTAD_SEED", env)
        code = main(list(argv))
        captured = capsys.readouterr()
        results.append((code, MILLIS.sub("0", captured.out), captured.err))
    return results


def test_reused_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    reused = _run_calls(capsys, monkeypatch)
    seeds = [json.loads(out)["seed"] for _, out, _ in reused[:4]]
    assert seeds == [5, DEFAULT_SEED, 12345, 77]
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 2, 0, 2]
    # the same calls, each parsed by a newly built parser
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _run_calls(capsys, monkeypatch) == reused


def test_usage_error_exit_code(capsys):
    assert main(["identities", "nonsense(Q)", "moufang"]) == 1
    assert main(["count", "zorn-units", "--p", "11"]) == 1


def test_parse_algebra_specs():
    assert parse_algebra("cay(Q;-1,-1)").dim == 4
    assert parse_algebra("zorn(F3)").dim == 8
    assert parse_algebra("cs-octonions").dim == 8
    assert parse_algebra("her3(f2)").dim == 6
    assert parse_algebra("tits(mat3(Z),1)").dim == 27
    with pytest.raises(ValueError):
        parse_algebra("cay(Q)")


def test_parse_algebra_builds_each_spec_once():
    for spec in ("cay(Q;-1,-1)", "zorn(F3)", "cs-octonions", "her3(f2)", "tits(mat3(Z),1)"):
        assert parse_algebra(spec) is parse_algebra(spec)


def test_refused_spec_is_refused_on_every_call():
    parse_algebra("cay(Z/6;-1)")  # builds ground_algebra(Z/6), a valid part of the first refused spec
    sizes = cache_sizes()
    for spec, message in (("cay(Z/6;2)", "mu must be a unit"), ("cay(Q)", "cay() needs at least one parameter")):
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_algebra(spec)
    assert cache_sizes() == sizes


# one request per constructor family: strict, sampled, Fails and refused checks
CACHED_SPEC_CALLS = [
    ("identities", "cay(Q;-1,-1)", "alternative", "--json"),
    ("identities", "cay(Z;-1,-1,-1)", "moufang", "--mode", "sampled", "--json"),
    ("identities", "cay(Q;-1,-1,-1,-1)", "norm-comp", "--json"),
    ("identities", "cay(Q;-1,-1,-1)", "associative", "--mode", "sampled", "--json"),
    ("identities", "zorn(F3)", "moufang", "--json"),
    ("identities", "zorn(Z/6)", "alternative", "--mode", "sampled", "--json"),
    ("identities", "cs-octonions", "kirmse", "--json"),
    ("identities", "her3(f2)", "axioms", "--json"),
    ("identities", "her3(Z/6)", "axioms", "--mode", "sampled", "--json"),
    ("identities", "her3(zorn(Z),1)", "adjoint", "--json"),
    ("identities", "tits(mat3(F2),1)", "adjoint", "--json"),
    ("identities", "tits(mat3(Z/6),1)", "adjoint", "--json"),  # cost guard, exit 1
    ("table", "cs-octonions"),
    ("table", "tits(mat3(Z),1)", "--json"),
]


def test_cached_structures_answer_like_fresh_ones(capsys, monkeypatch):
    calls = [(None, argv) for argv in CACHED_SPEC_CALLS]
    first = _run_calls(capsys, monkeypatch, calls)
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert _run_calls(capsys, monkeypatch, calls) == first
    # the same calls, each on a newly built structure, its parts built afresh too
    uncached_constructors(monkeypatch)
    assert _run_calls(capsys, monkeypatch, calls) == first


@pytest.mark.parametrize(
    "spec",
    ["cay(Q;-1,-1,-1)", "zorn(Z/6)", "cs-octonions", "her3(Z/6)", "her3(Q,1/2)", "tits(mat3(F2),1)"],
)
def test_checks_leave_a_cached_structure_unchanged(capsys, spec):
    """Every suite, strict and sampled, and table leave what a cached
    structure stores, and what it was built from, unchanged; see
    test_constructor_cache for the library's criterion-style uses."""
    alg = parse_algebra(spec)
    before = structure_state(alg)
    if spec.startswith(("her3", "tits")):
        suites = sorted(cli.CUBIC_SUITES)
    else:
        suites = [*identities.SUITES, *identities.CONIC_IDENTITIES]
    for suite in suites:
        for mode in ("strict", "sampled"):
            assert main(["identities", spec, suite, "--mode", mode, "--json"]) in (0, 2)
    main(["table", spec, "--json"])
    capsys.readouterr()
    assert parse_algebra(spec) is alg
    assert structure_state(alg) == before


def test_identities_her3_single_gamma_form(capsys):
    code, blob = run_json(capsys, "identities", "her3(zorn(Z),1)", "adjoint", "--json")
    assert code == 0
    assert blob["verdict"] == "Holds"


def test_lattice_file_round_trip(tmp_path, capsys):
    code, blob = run_json(capsys, "lattice", "export", "hurwitz", "--json")
    path = tmp_path / "hurwitz.json"
    path.write_text(json.dumps(blob["lattice"]))
    code, blob2 = run_json(
        capsys, "lattice", "disc", "hurwitz", "--file", str(path), "--json"
    )
    assert code == 0
    assert blob2["disc"] == "4"


# the error line of a case that names what is wrong; every other case says "error:"
NAMED_ERRORS = {
    ("lattice", "disc", "hurwitz", "--file", "{tmp}/partial.json"): "error: lattice file lacks the field(s) ambient_dim",
    ("identities", "cay(Q;-1)", "axioms"): "error: unknown identity 'axioms'",
    ("identities", "cay(FQ;1)", "moufang"): "error: cannot parse ring 'FQ'",
    ("identities", "cay(Z/x;1)", "moufang"): "error: cannot parse ring 'Z/x'",
    ("identities", "tits(mat3(Z)", "adjoint"): "error: cannot parse algebra spec 'tits(mat3(Z)'",
    ("identities", "tits(mat3(Z),1,2)", "adjoint"): "error: cannot parse algebra spec 'tits(mat3(Z),1,2)'",
    # each argument list is split at its top-level commas, and no argument may be empty
    ("identities", "tits(mat3(Z)1)", "adjoint"): "error: cannot parse algebra spec 'tits(mat3(Z)1)'",
    ("identities", "tits(mat3(Z)-1)", "adjoint"): "error: cannot parse algebra spec 'tits(mat3(Z)-1)'",
    ("identities", "tits(mat3(Z),)", "adjoint"): "error: cannot parse algebra spec 'tits(mat3(Z),)'",
    ("identities", "cay(Q;-1,,-1)", "moufang"): "error: cannot parse algebra spec 'cay(Q;-1,,-1)'",
    ("identities", "cay(Q;-1,)", "moufang"): "error: cannot parse algebra spec 'cay(Q;-1,)'",
    # a parameter or coordinate that is no fraction is named, not passed to Fraction's message
    ("identities", "tits(mat3(Z),x)", "adjoint"): "error: parameter 'x' is not a rational number",
    ("identities", "her3(Z,x)", "axioms"): "error: parameter 'x' is not a rational number",
    ("identities", "cay(Q;x)", "moufang"): "error: parameter 'x' is not a rational number",
    ("lattice", "member", "hurwitz", "x", "0", "0", "0"): "error: coordinate 'x' is not a rational number",
    # an unknown lattice name is named together with the known ones
    ("count", "lattice-units", "--lattice", "nosuch", "--json"): (
        "error: unknown lattice 'nosuch'; known lattices: dico, gaussian, hurwitz, kirmse"
    ),
    # a usage error names the subcommand, without the usage block
    ("lattice", "disc", "nosuch", "--json"): "error: octad lattice: argument name: invalid choice: 'nosuch'",
    ("count", "zorn-units", "--p", "Z/6"): "error: octad count: argument --p: invalid int value: 'Z/6'",
    ("identities", "cay(Q;-1)", "flexible", "--seed", "abc"): (
        "error: octad identities: argument --seed: invalid int value: 'abc'"
    ),
    # the census cost guard reads like the identity checker's
    ("count", "zorn-units", "--p", "11"): "cost guard: p must be <= 7",
    # only the arguments that are really required are named: coords may be empty
    ("lattice",): "error: octad lattice: the following arguments are required: action, name",
}


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "her3(f2)"),
        ("lattice", "member", "hurwitz", "1/0", "0", "0", "0", "--json"),
        ("lattice", "disc", "hurwitz", "--file", "no-such-dir/hurwitz.json"),
        *NAMED_ERRORS,
    ],
)
def test_bad_input_gives_one_error_line(capsys, tmp_path, argv):
    # a lattice export without its ambient_dim field
    (tmp_path / "partial.json").write_text('{"basis": [], "disc": "1", "gram": [], "integral": true}')
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(NAMED_ERRORS.get(argv, "error:"))
    assert "Traceback" not in captured.err


def test_bare_lattice_does_not_name_its_optional_coords(capsys):
    assert main(["lattice"]) == 1
    assert capsys.readouterr().err == "error: octad lattice: the following arguments are required: action, name\n"


def test_package_attributes_are_its_submodules():
    import octad
    import octad.her3 as her3_module
    import octad.tits as tits_module

    assert isinstance(octad.her3, types.ModuleType) and isinstance(octad.tits, types.ModuleType)
    assert her3_module is octad.her3 and tits_module is octad.tits
    assert callable(her3_module.census_f2) and callable(tits_module.tits)


def test_refused_census_builds_no_structure(capsys, monkeypatch):
    import octad.her3 as her3_module

    real, built = her3_module.her3, []
    monkeypatch.setattr(her3_module, "her3", lambda *args: built.append(args) or real(*args))
    size = real.cache_info().currsize
    for _ in range(2):
        assert main(["count", "her3-rank1", "--coeff", "F3"]) == 1
        assert capsys.readouterr().err == "error: census requires coefficients over GF(2)\n"
    assert built == [] and real.cache_info().currsize == size


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("basis", "1/2", "error: lattice file: basis is not a list of rows"),
        ("basis", [1, 0, 0, 0], "error: lattice file: basis is not a list of rows"),
        ("gram", 4, "error: lattice file: gram is not a list of rows"),
        ("basis", [[None, 0, 0, 0]], "error: lattice file: basis value None is not a rational number"),
        ("gram", [[None]], "error: lattice file: gram value None is not a rational number"),
        ("disc", "1/0", "error: lattice file: disc value '1/0' is not a rational number"),
        ("disc", ["4"], "error: lattice file: disc value ['4'] is not a rational number"),
    ],
)
def test_malformed_lattice_file_gives_one_error_line(capsys, tmp_path, field, value, message):
    code, blob = run_json(capsys, "lattice", "export", "hurwitz", "--json")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(blob["lattice"], **{field: value})))
    code = main(["lattice", "disc", "hurwitz", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [message]
    assert "Traceback" not in captured.err


def test_lattice_member_negative_fraction(capsys):
    code, blob = run_json(
        capsys, "lattice", "member", "hurwitz", "-1/2", "1/2", "1/2", "1/2", "--json"
    )
    assert code == 0
    assert blob["member"] is True
    code, out = run(capsys, "lattice", "member", "hurwitz", "-1/2", "-1/2", "1/2", "-3/2")
    assert code == 0
    assert "member: True" in out.splitlines()
    code, blob = run_json(capsys, "lattice", "member", "hurwitz", "-1/3", "0", "0", "0", "--json")
    assert code == 0
    assert blob["member"] is False


@pytest.mark.parametrize(
    "spec, suite",
    [
        ("cay(Q;1/2,-1)", "moufang"),
        ("her3(Q,1/2,1,1)", "axioms"),
        ("tits(mat3(F5),1/2)", "adjoint"),
    ],
)
def test_rational_parameters_are_accepted(capsys, spec, suite):
    code, blob = run_json(capsys, "identities", spec, suite, "--json")
    assert code == 0
    assert blob["verdict"] == "Holds"


def test_rational_parameter_equal_to_an_integer_gives_the_same_checks(capsys):
    # 1/2 = 3 in F5, and 4/2 = 2 everywhere
    for spec, same in (("her3(F5,1/2)", "her3(F5,3)"), ("cay(Q;4/2,-1)", "cay(Q;2,-1)")):
        suite = "axioms" if spec.startswith("her3") else "alternative"
        _, blob = run_json(capsys, "identities", spec, suite, "--json")
        _, want = run_json(capsys, "identities", same, suite, "--json")
        assert blob["checks"] == want["checks"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("identities", "cay(Z;1/2,-1)", "moufang"), "error: parameter '1/2' is not an element of ZZ"),
        (("identities", "her3(Z/6,1/2)", "axioms"), "error: parameter '1/2' is not an element of Z/6"),
        (("identities", "cay(Q;1/0)", "moufang"), "error: parameter '1/0' has a zero denominator"),
        # the data of J(Mat3(Q), 1/2) is not integral, and dim 27 is above the generic guard
        (("identities", "tits(mat3(Q),1/2)", "adjoint"), "cost guard: "),
        # only ASCII -n and -p/q: no exponent, decimal point, plus sign or other digits
        (("identities", "cay(Q;1e3)", "flexible"), "error: parameter '1e3' is not a rational number"),
        (("identities", "cay(Q;1.5)", "flexible"), "error: parameter '1.5' is not a rational number"),
        (("identities", "her3(Q,+3)", "axioms"), "error: parameter '+3' is not a rational number"),
        (("identities", "tits(mat3(F5),\u0663)", "adjoint"), "error: parameter '\u0663' is not a rational number"),
    ],
)
def test_refused_rational_parameters_give_one_line(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


# -- grammar-driven fuzzing of the spec and argument parsers ---------------------------

RINGS = (
    "Q", "Z", "F2", "F3", "F5", "Z/6", "Z/4", "F4", "Z/1", "F", "R", "",
    "F0", "F1", "Z/0", "Z/-3", "F1000000007",
    "Z/10000000000000000000000000331",  # 29 digits, a probable prime above the proven Miller-Rabin bound
)
PARAMS = (
    "-1", "1", "2", "-2", "1/2", "-3/2", "0", "1/0", "x", "", " 1 ",
    "1e3", "1/-2",
    "\u0663",  # ARABIC-INDIC DIGIT THREE
)
SUITES = (
    "degree2", "flexible", "moufang", "alternative", "kirmse", "norm-comp", "norm-assoc",
    "associative", "commutative", "conj-antihom", "adjoint", "axioms", "nope", "",
)
COORDS = ("0", "1", "-1", "1/2", "-1/2", "3/2", "1/0", "x", "--", "0.5")


@st.composite
def small_specs(draw):
    """An algebra spec of dimension <= 8, or a malformed one: a valid spec
    with one character deleted or a stray character inserted."""
    ring = draw(st.sampled_from(RINGS))
    params = ",".join(draw(st.lists(st.sampled_from(PARAMS), min_size=0, max_size=3)))
    gammas = draw(st.sampled_from(("", "," + draw(st.sampled_from(PARAMS)), ",1,-1,1", ",1,2")))
    spec = draw(
        st.sampled_from(
            (f"cay({ring};{params})", f"zorn({ring})", "cs-octonions", f"her3({ring}{gammas})", "her3(f2)")
        )
    )
    edit = draw(st.sampled_from(("none", "delete", "insert")))
    at = draw(st.integers(0, len(spec)))
    if edit == "delete":
        spec = spec[:at] + spec[at + 1 :]
    elif edit == "insert":
        spec = spec[:at] + draw(st.sampled_from("(),;/-x ")) + spec[at:]
    return spec


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("identities", "table", "lattice member")))
    flags = draw(st.lists(st.sampled_from(("--json", "--seed=3")), max_size=2))
    flags += draw(st.sampled_from(([], [], [], ["--bogus"], ["--seed=x"])))
    if command == "identities":
        argv = ["identities", draw(small_specs()), draw(st.sampled_from(SUITES))]
        flags += draw(st.sampled_from(([], ["--mode=sampled"])))
    elif command == "table":
        argv = ["table", draw(small_specs())]
    else:
        name = draw(st.sampled_from(("hurwitz", "gaussian", "dico", "kirmse", "nope")))
        argv = ["lattice", "member", name, *draw(st.lists(st.sampled_from(COORDS), max_size=9))]
    return argv + flags


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cli_argv())
def test_cli_fuzz_exits_cleanly(argv):
    """Any input answers or exits with a one-line error: exit code 0, 1 or
    2, no exception escapes main, and exit 1 prints exactly one line, an
    error or a cost guard, on stderr."""
    assert_clean_exit(argv)


@pytest.mark.parametrize(
    "argv",
    [
        *(["identities", f"zorn({ring})", "flexible"] for ring in RINGS),
        *(["identities", f"cay(Q;{param})", "flexible"] for param in PARAMS),
    ],
)
def test_every_ring_and_parameter_of_the_fuzz_grammar_exits_cleanly(argv):
    """The fuzz draws only some of the grammar's rings and parameters; each
    one is tried here once."""
    assert_clean_exit(argv)


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(("error:", "cost guard:"))


GOLDEN = json.loads((Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_report_bytes_unchanged(capsys, case):
    """Reports, less their millis, are byte-identical to ones recorded when
    QQ payloads were all Fractions and PolyExt keyed monomials by tuples."""
    code = main(case["argv"] + ["--json"])
    report = json.loads(capsys.readouterr().out)
    report.pop("millis")
    assert code == case["exit"]
    assert json.dumps(report, sort_keys=True) == case["report"]
