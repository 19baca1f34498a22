import json

import pytest

from preproj.cli import main
from preproj.quiver import Quiver


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hilbert_corner_series(capsys):
    code, out, _ = run(capsys, "hilbert", "--catalog", "affine_a", "3",
                       "--degree", "8", "--format", "csv")
    assert code == 0
    rows = [l.split(",") for l in out.strip().splitlines()[1:]]
    dims = [int(r[1]) for r in rows]
    assert dims == [1, 0, 1, 2, 1, 2, 3, 2, 3]


def test_hilbert_free(capsys):
    code, out, _ = run(capsys, "hilbert", "--catalog", "free", "2",
                       "--degree", "5", "--format", "json", "--matrix")
    assert code == 0
    doc = json.loads(out)
    assert [r["matrix"][0][0] for r in doc] == [1, 4, 15, 56, 209, 780]


def test_hilbert_from_file(tmp_path, capsys):
    q = Quiver([0, 1], [(0, 0, 1)])
    f = tmp_path / "q.json"
    f.write_text(q.to_json())
    code, out, _ = run(capsys, "hilbert", "--file", str(f), "--white", "1",
                       "--degree", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["matrix"] == [[1, 0], [0, 1]]
    assert doc[1]["matrix"] == [[0, 1], [1, 0]]
    assert doc[2]["matrix"] == [[0, 0], [0, 1]]


def test_hh0_free2(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "free", "2", "--degree", "6",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    tors = {r["degree"]: r["torsion"] for r in doc if r["torsion"]}
    assert tors == {4: ["2"], 6: ["3"]}


def test_hh0_affine_d(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "affine_d", "4",
                       "--degree", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    tors = {r["degree"]: r["torsion"] for r in doc if r["torsion"]}
    assert tors == {4: ["2"]}


def test_groebner_expect_match(capsys):
    from importlib import resources

    path = resources.files("preproj.data").joinpath("e7_groebner.txt")
    code, out, err = run(capsys, "groebner", "--star", "3", "3", "1",
                         "--degree", "12", "--expect", str(path))
    assert code == 0
    assert "matches expected listing" in err


def test_groebner_expect_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x\n")
    code, out, err = run(capsys, "groebner", "--star", "2", "2", "2",
                         "--degree", "12", "--expect", str(bad))
    assert code == 1
    assert "MISMATCH" in err


def test_groebner_four_branch_star(capsys):
    code, out, _ = run(capsys, "groebner", "--star", "1", "1", "1", "1",
                       "--degree", "6")
    assert code == 0
    assert out == ("z x y - y z x - y x z - x z x - x y z - x y x\n"
                   "z^2\n"
                   "z y + z x + y z + y x + x z + x y\n"
                   "y^2\n"
                   "x^2\n"
                   "x4 + z + y + x\n")


def test_necklace_bracket(capsys):
    code, out, _ = run(capsys, "necklace", "--catalog", "free", "1",
                       "--op", "bracket", "--left", "[x]", "--right", "[x*]")
    assert code == 0
    assert out.strip() == "[e_0]"


def test_hp0_command(capsys):
    code, out, _ = run(capsys, "hp0", "--type", "E6", "--modulus", "0",
                       "--degree", "24", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    live = {r["degree"]: r["dim"] for r in doc if r["dim"]}
    assert live == {0: 1, 6: 1, 8: 1, 12: 1, 14: 1, 20: 1}


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "--only", "w_lattice")
    assert code == 0
    assert "PASS" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--only", "groebner_e_types",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["criterion"] == "groebner_e_types" and doc[0]["ok"]


def test_usage_error(capsys):
    code, _, err = run(capsys, "hilbert", "--degree", "4")
    assert code == 2
    assert "error" in err


def test_bad_quiver_file(tmp_path, capsys):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"vertices": [0, 1], "arrows": []}))
    code, _, err = run(capsys, "hilbert", "--file", str(f), "--degree", "4")
    assert code == 2  # disconnected quivers are rejected


def test_hh0_json_generators(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "free", "2", "--degree", "4",
                       "--show-generators", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row4 = next(r for r in doc if r["degree"] == 4)
    assert row4["torsion"] == ["2"]
    assert any("r^(2^1)" in g for g in row4["generators"])


def test_necklace_cobracket_and_loday(capsys):
    code, out, _ = run(capsys, "necklace", "--catalog", "free", "2",
                       "--op", "cobracket", "--left", "[x1 x1* x2]")
    assert code == 0
    assert "^" in out  # a wedge term survives
    code, out, _ = run(capsys, "necklace", "--catalog", "free", "1",
                       "--op", "loday", "--left", "[x]", "--right", "x* x*")
    assert code == 0
    assert out.strip() == "2*x*"


def test_hp0_type_a_cli(capsys):
    code, out, _ = run(capsys, "hp0", "--type", "A", "--branch", "3",
                       "--degree", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["dim"] == 1


def test_groebner_preprojective_listing(capsys):
    code, out, _ = run(capsys, "groebner", "--catalog", "affine_a", "3",
                       "--degree", "6")
    assert code == 0
    assert len(out.strip().splitlines()) >= 3


def usage_exit(capsys, *argv):
    """Exit code and stderr of an argument list argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("hp0", "--type", "D", "--degree", "8"),
    ("hp0", "--type", "E6", "--modulus", "4", "--degree", "8"),
    ("necklace", "--catalog", "free", "1", "--ring", "Zmod:1", "--left", "[x]",
     "--right", "[x*]"),
    ("hilbert", "--catalog", "dynkin_a", "2", "--white", "99", "--degree", "4"),
    ("hh0", "--catalog", "affine_a", "3", "--white", "7", "--degree", "4"),
    ("hilbert", "--catalog", "free", "--degree", "4"),
    ("hilbert", "--catalog", "free", "x", "--degree", "4"),
    ("hilbert", "--file", "{tmp}/malformed.json", "--degree", "4"),
    ("hilbert", "--file", "{tmp}/no_arrows.json", "--degree", "4"),
    ("necklace", "--catalog", "free", "1", "--op", "bracket", "--left", "[x]"),
    ("necklace", "--catalog", "free", "1", "--op", "loday", "--left", "[x]"),
    ("necklace", "--catalog", "free", "1", "--op", "cobracket", "--left", "[x"),
], ids=["hp0_d_without_branch", "hp0_composite_modulus", "necklace_ring_zmod1",
        "hilbert_white_not_a_vertex", "hh0_white_not_a_vertex",
        "catalog_missing_parameter", "catalog_non_integer_parameter",
        "file_malformed_json", "file_without_arrows", "bracket_without_right",
        "loday_without_right", "unclosed_bracket"])
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "malformed.json").write_text('{"vertices": [0')
    (tmp_path / "no_arrows.json").write_text('{"vertices": [0, 1]}')
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


def test_negative_degree_is_a_usage_error(capsys):
    code, err = usage_exit(capsys, "hh0", "--catalog", "free", "2", "--degree", "-1")
    assert code == 2
    assert "degree must be >= 0" in err


def test_flags_before_the_subcommand_are_rejected(capsys):
    code, _ = usage_exit(capsys, "--degree", "2", "hh0", "--catalog", "free", "2")
    assert code == 2


def test_flags_live_on_their_subcommands():
    from preproj.cli import build_parser

    ap = build_parser()
    assert {s for a in ap._actions for s in a.option_strings} == {"-h", "--help"}
    sub = next(a for a in ap._actions if a.choices)
    where = {}
    for name, p in sub.choices.items():
        for a in p._actions:
            for s in a.option_strings:
                where.setdefault(s, set()).add(name)
    assert where["--degree"] == {"hilbert", "hh0", "groebner", "hp0"}
    assert where["--format"] == {"hilbert", "hh0", "hp0", "verify"}
    assert where["--ring"] == {"necklace"}
    assert where["--jobs"] == where["--seed"] == {"verify"}
    assert "--suite" not in where


def test_hh0_generators_every_prime_power(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "dynkin_e", "8", "--degree", "16",
                       "--show-generators")
    assert code == 0
    orders = [l.split(":")[0] for l in out.splitlines() if l.startswith("r^")]
    assert orders == ["r^(2^1) of order 2", "r^(3^1) of order 3",
                      "r^(2^2) of order 2", "r^(5^1) of order 5",
                      "r^(2^3) of order 2"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_seed_reaches_the_criterion(capsys, jobs):
    from preproj import acceptance

    before = acceptance.DEFAULT_SEED
    code, out, _ = run(capsys, "verify", "--only", "hilbert_identities",
                       "--seed", "7", "--jobs", jobs, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["criterion"] for r in doc] == ["hilbert_identities"]
    assert doc[0]["details"].startswith("seed 7;")
    assert acceptance.DEFAULT_SEED == before
