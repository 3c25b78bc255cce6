import json
from pathlib import Path

import pytest

from octad.cli import main, parse_algebra


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


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "her3(f2)"),
        ("lattice", "member", "hurwitz", "1/0", "0", "0", "0", "--json"),
        ("lattice", "disc", "hurwitz", "--file", "no-such-dir/hurwitz.json"),
    ],
)
def test_bad_input_gives_one_error_line(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
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
