import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import preproj
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


def test_hilbert_relabeled_extended_e7(tmp_path, capsys):
    """~E7 with a short-arm vertex numbered 1: the corner series is still
    taken at an extending vertex."""
    q = Quiver(range(8), [(0, 1, 0), (1, 2, 0), (2, 3, 2), (3, 4, 3),
                          (4, 5, 0), (5, 6, 5), (6, 7, 6)])
    f = tmp_path / "e7.json"
    f.write_text(q.to_json())
    code, by_file, _ = run(capsys, "hilbert", "--file", str(f), "--degree", "12",
                           "--format", "csv")
    assert code == 0
    code, by_catalog, _ = run(capsys, "hilbert", "--catalog", "affine_e", "7",
                              "--degree", "12", "--format", "csv")
    assert code == 0
    assert by_file == by_catalog


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


def test_groebner_expect_skips_blank_lines(tmp_path, capsys):
    """A blank line in a listing is not a rule, for `groebner --expect` and
    for the groebner_e_types criterion alike."""
    from importlib import resources

    from preproj.rewrite import _listing_body

    text = resources.files("preproj.data").joinpath("e6_groebner.txt").read_text()
    lines = text.splitlines()
    k = next(i for i, l in enumerate(lines) if not l.startswith("#")) + 1
    gapped = "\n".join(lines[:k] + [""] + lines[k:]) + "\n"
    assert _listing_body(gapped) == _listing_body(text)
    path = tmp_path / "e6_gapped.txt"
    path.write_text(gapped)
    code, _, err = run(capsys, "groebner", "--star", "2", "2", "2",
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


def test_quiver_file_with_non_integer_endpoints(tmp_path, capsys):
    """Endpoints 0.9 and true are not read as vertices 0 and 1."""
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"vertices": [0, 1],
                             "arrows": [{"id": 0, "src": 0.9, "dst": 1},
                                        {"id": "1", "src": True, "dst": 0}]}))
    code, out, err = run(capsys, "hilbert", "--file", str(f), "--degree", "3")
    assert (code, out) == (2, "")
    assert "must be an integer" in err and "Traceback" not in err


def test_hh0_json_generators(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "free", "2", "--degree", "4",
                       "--show-generators", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row4 = next(r for r in doc if r["degree"] == 4)
    assert row4["torsion"] == ["2"]
    assert any("r^(2^1)" in g for g in row4["generators"])


def test_hh0_csv_generators_are_a_column(capsys):
    """--show-generators in CSV adds a generators column: every row keeps
    one length, and the degree-4 row names r^(2^1)."""
    code, out, _ = run(capsys, "hh0", "--catalog", "free", "2", "--degree", "4",
                       "--show-generators", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["degree", "free_rank", "torsion", "generators"]
    assert len(rows) == 6 and {len(r) for r in rows} == {4}
    assert rows[5][:3] == ["4", "54", "2"]
    assert rows[5][3].startswith("r^(2^1) of order 2: ")
    assert [r[3] for r in rows[1:5]] == ["", "", "", ""]


def test_hilbert_csv_matrix_is_one_field(tmp_path, capsys):
    """A matrix with commas in it is quoted, so each CSV row has two fields."""
    f = tmp_path / "q.json"
    f.write_text(Quiver([0, 1], [(0, 0, 1)]).to_json())
    code, out, _ = run(capsys, "hilbert", "--file", str(f), "--white", "1",
                       "--degree", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(r) for r in rows} == {2}
    assert json.loads(rows[1][1]) == [[1, 0], [0, 1]]


def test_necklace_cobracket_and_loday(capsys):
    code, out, _ = run(capsys, "necklace", "--catalog", "free", "2",
                       "--op", "cobracket", "--left", "[x1 x1* x2]")
    assert code == 0
    assert "^" in out  # a wedge term survives
    code, out, _ = run(capsys, "necklace", "--catalog", "free", "1",
                       "--op", "loday", "--left", "[x]", "--right", "x* x*")
    assert code == 0
    assert out.strip() == "2*x*"


NECKLACE_CASES = [
    (("--catalog", "free", "1", "--left", "-[x x]", "--right", "[x* x*]"),
     {"Z": "-4*[x x*]", "Zmod:5": "[x x*]", "Zmod:2": "0"}),
    (("--catalog", "free", "1", "--left", "[x x x*]", "--right", "[x* x* x]"),
     {"Z": "[x^2 x*^2] + 2*[x x* x x*]", "Zmod:5": "[x^2 x*^2] + 2*[x x* x x*]",
      "Zmod:2": "[x^2 x*^2]"}),
    (("--catalog", "free", "2", "--op", "cobracket", "--left", "-[x1 x1* x2 x2*]"),
     {"Z": "[e_0]^[x1 x1*] + [e_0]^[x2 x2*]",
      "Zmod:5": "[e_0]^[x1 x1*] + [e_0]^[x2 x2*]",
      "Zmod:2": "[e_0]^[x1 x1*] + [e_0]^[x2 x2*]"}),
    (("--catalog", "free", "2", "--op", "cobracket",
      "--left", "3*[x1 x1* x1 x1*] - [x1 x2 x1* x2*]"),
     {"Z": "-[x1]^[x1*] + [x2]^[x2*]", "Zmod:5": "4*[x1]^[x1*] + [x2]^[x2*]",
      "Zmod:2": "[x1]^[x1*] + [x2]^[x2*]"}),
    (("--catalog", "free", "1", "--op", "loday", "--left", "-[x x]", "--right", "x* x*"),
     {"Z": "-2*x x* - 2*x* x", "Zmod:5": "3*x x* + 3*x* x", "Zmod:2": "0"}),
    # a path element with no brackets is taken to its class
    (("--catalog", "free", "1", "--left", "x x", "--right", "[x* x*]"),
     {"Z": "4*[x x*]", "Zmod:5": "4*[x x*]", "Zmod:2": "0"}),
    (("--catalog", "free", "1", "--left", "[x x x*]", "--right", "x* x* x"),
     {"Z": "[x^2 x*^2] + 2*[x x* x x*]", "Zmod:5": "[x^2 x*^2] + 2*[x x* x x*]",
      "Zmod:2": "[x^2 x*^2]"}),
    (("--catalog", "free", "2", "--op", "cobracket", "--left", "x1 x1* x2 x2*"),
     {"Z": "-[e_0]^[x1 x1*] - [e_0]^[x2 x2*]",
      "Zmod:5": "4*[e_0]^[x1 x1*] + 4*[e_0]^[x2 x2*]",
      "Zmod:2": "[e_0]^[x1 x1*] + [e_0]^[x2 x2*]"}),
    (("--catalog", "free", "1", "--op", "loday", "--left", "x x", "--right", "x* x*"),
     {"Z": "2*x x* + 2*x* x", "Zmod:5": "2*x x* + 2*x* x", "Zmod:2": "0"}),
]


@pytest.mark.parametrize("argv,want", NECKLACE_CASES,
                         ids=["bracket", "bracket_deg4", "cobracket", "cobracket_mixed",
                              "loday", "bracket_path_left", "bracket_path_right",
                              "cobracket_path", "loday_path_left"])
def test_necklace_ring_reads_off_the_integer_answer(capsys, argv, want):
    for ring, text in want.items():
        code, out, _ = run(capsys, "necklace", "--ring", ring, *argv)
        assert code == 0
        assert out.strip() == text, ring
    _, over_q, _ = run(capsys, "necklace", "--ring", "Q", *argv)
    assert over_q.strip() == want["Z"]


def test_hp0_type_a_cli(capsys):
    code, out, _ = run(capsys, "hp0", "--type", "A", "--branch", "3",
                       "--degree", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["dim"] == 1


def test_hp0_type_in_any_case(capsys):
    _, upper, _ = run(capsys, "hp0", "--type", "E6", "--degree", "12")
    code, lower, _ = run(capsys, "hp0", "--type", "e6", "--degree", "12")
    assert code == 0 and lower == upper
    code, err = usage_exit(capsys, "hp0", "--type", "F4", "--degree", "12")
    assert code == 2
    assert "'A', 'D', 'E6', 'E7', 'E8'" in err


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
    ("necklace", "--catalog", "free", "1", "--ring", "R", "--left", "[x]",
     "--right", "[x*]"),
    ("hilbert", "--catalog", "dynkin_a", "2", "--white", "99", "--degree", "4"),
    ("hilbert", "--catalog", "dynkin_a", "2", "--degree", "4"),
    ("hh0", "--catalog", "affine_a", "3", "--white", "7", "--degree", "4"),
    ("hilbert", "--catalog", "free", "--degree", "4"),
    ("hilbert", "--catalog", "free", "x", "--degree", "4"),
    ("hilbert", "--file", "{tmp}/malformed.json", "--degree", "4"),
    ("hilbert", "--file", "{tmp}/no_arrows.json", "--degree", "4"),
    ("necklace", "--catalog", "free", "1", "--op", "bracket", "--left", "[x]"),
    ("necklace", "--catalog", "free", "1", "--op", "loday", "--left", "[x]"),
    ("necklace", "--catalog", "free", "1", "--op", "cobracket", "--left", "[x"),
    ("necklace", "--catalog", "affine_a", "3", "--left", "[a0 a1]", "--right", "[a0* a2*]"),
    ("hh0", "--file", "{tmp}", "--degree", "2"),
    ("hh0", "--file", "{tmp}/missing.json", "--degree", "2"),
    ("hilbert", "--file", "{tmp}/binary.json", "--degree", "2"),
    ("groebner", "--catalog", "dynkin_a", "2", "--degree", "4", "--expect", "{tmp}"),
    ("verify", "--jobs", "0", "--only", "w_lattice"),
    ("verify", "--jobs", "-2", "--only", "w_lattice"),
    ("hilbert", "--catalog", "dynkin_a", "2"),
    ("hh0", "--catalog", "free", "2"),
    ("groebner", "--star", "2", "2", "2"),
    ("hp0", "--type", "E6"),
    ("hp0", "--type", "Apple", "--branch", "3", "--degree", "4"),
    ("hp0", "--type", "D9x", "--branch", "4", "--degree", "4"),
    ("hp0", "--type", "e6x", "--degree", "4"),
    ("hp0", "--type", "E6", "--branch", "4", "--degree", "8"),
    ("necklace", "--catalog", "dynkin_a", "3", "--left", "a0 a0", "--right", "[a0 a0*]"),
    ("necklace", "--catalog", "dynkin_a", "3", "--left", "[a0 a1* a1 a0*]",
     "--right", "[a0 a0*]"),
    ("necklace", "--catalog", "dynkin_a", "3", "--op", "loday", "--left", "[a0 a0*]",
     "--right", "a0 a0"),
    ("necklace", "--catalog", "free", "1", "--op", "bracket", "--left", "[x] [x*]",
     "--right", "[x*]"),
    ("necklace", "--catalog", "free", "1", "--op", "loday", "--left", "[x]",
     "--right", "[x*]"),
    ("groebner", "--star", "-5", "--degree", "4"),
    ("groebner", "--star", "-1", "--degree", "4"),
], ids=["hp0_d_without_branch", "hp0_composite_modulus", "necklace_ring_zmod1",
        "necklace_ring_unknown",
        "hilbert_white_not_a_vertex", "hilbert_dynkin_without_white", "hh0_white_not_a_vertex",
        "catalog_missing_parameter", "catalog_non_integer_parameter",
        "file_malformed_json", "file_without_arrows", "bracket_without_right",
        "loday_without_right", "unclosed_bracket", "open_necklace_word",
        "file_is_a_directory", "file_missing", "file_not_text", "expect_is_a_directory",
        "verify_jobs_zero", "verify_jobs_negative", "hilbert_without_degree",
        "hh0_without_degree", "groebner_without_degree", "hp0_without_degree",
        "hp0_type_unknown", "hp0_type_with_trailing_text", "hp0_type_e6_with_trailing_text",
        "hp0_e6_with_branch",
        "necklace_word_not_a_path", "necklace_class_not_a_path", "loday_word_not_a_path",
        "necklace_terms_without_sign", "loday_class_on_the_right",
        "star_negative_branch", "star_branch_minus_one"])
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv):
    """Exit 2 with an "error: " line and no traceback, whether main rejects
    the input or argparse does (a usage line, then "preproj CMD: error: ")."""
    (tmp_path / "malformed.json").write_text('{"vertices": [0')
    (tmp_path / "no_arrows.json").write_text('{"vertices": [0, 1]}')
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code, _, err = run(capsys, *argv)
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
        usage, err = err.split(f"preproj {argv[0]}: ", 1)
        assert usage.startswith("usage: ")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("groebner", "--star", "2", "2", "2", "--degree", "4", "--catalog", "free", "2"),
    ("groebner", "--star", "2", "2", "2", "--degree", "4", "--file", "{tmp}/q.json"),
    ("groebner", "--star", "2", "2", "2", "--degree", "4", "--white", "0"),
    ("necklace", "--catalog", "free", "1", "--op", "cobracket", "--left", "[x x*]",
     "--right", "[x]"),
    ("hh0", "--catalog", "free", "2", "--white", "0", "--degree", "4", "--show-generators"),
    ("hh0", "--catalog", "free", "2", "--file", "{tmp}/q.json", "--degree", "3"),
], ids=["star_with_catalog", "star_with_file", "star_with_white", "cobracket_with_right",
        "generators_with_white", "catalog_with_file"])
def test_flags_that_would_go_unread_are_usage_errors(tmp_path, capsys, argv):
    """A flag the chosen mode does not read exits 2 instead of being dropped."""
    (tmp_path / "q.json").write_text(Quiver([0, 1], [(0, 0, 1)]).to_json())
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "takes no" in err


def test_negative_degree_is_a_usage_error(capsys):
    code, err = usage_exit(capsys, "hh0", "--catalog", "free", "2", "--degree", "-1")
    assert code == 2
    assert "degree must be >= 0" in err


def test_out_of_memory_is_a_one_line_error():
    """A degree bound whose series cannot be allocated ends with exit 2 and
    one line naming the bound, not a traceback.  The child's address space
    is capped at 2 GB, so the allocation fails at once on any host."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(preproj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "preproj.cli", "hilbert", "--catalog", "free",
                           "2", "--degree", "99999999999"],
                          capture_output=True, env=env, preexec_fn=cap, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == (b"error: out of memory at degree bound 99999999999;"
                           b" try a lower --degree\n")


def test_unraisable_memory_errors_are_silent_while_a_command_runs(capsys, monkeypatch):
    """A MemoryError that Python cannot raise, as from a generator that fails
    to close when memory is full, is not reported while a command runs: the
    out-of-memory line is its report.  Anything else goes to the hook that was
    in place, and main puts that hook back when the command ends."""
    import types

    import preproj.cli

    seen = []
    monkeypatch.setattr(sys, "unraisablehook", seen.append)

    def command(args):
        for exc in (MemoryError(), ValueError()):
            sys.unraisablehook(types.SimpleNamespace(exc_type=type(exc), exc_value=exc))
        return 0

    monkeypatch.setattr(preproj.cli, "cmd_hilbert", command)
    assert run(capsys, "hilbert", "--catalog", "free", "2", "--degree", "2") == (0, "", "")
    assert [u.exc_type for u in seen] == [ValueError]
    assert sys.unraisablehook == seen.append


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="where a full address space stops the run, and what the interpreter "
                           "prints as it unwinds, is checked on Python 3.11 only")
@pytest.mark.parametrize("mb", [140, 200])
def test_slow_out_of_memory_is_a_one_line_error(mb):
    """Memory that runs out while the tables of degree 10 fill it, not in one
    huge allocation, also ends with exit 2 and the one line: the message is
    printed once the traceback that holds the tables is freed.  The child's
    address space is capped at 140 MB, which the relation rows of degree 10
    run into, or at 200 MB, which its Smith normal form runs into; degree 9
    peaks near 70 MB of RSS, degree 10 near 215 MB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    src = str(Path(preproj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "preproj.cli", "hh0", "--catalog", "free",
                           "2", "--degree", "10"],
                          capture_output=True, env=env, preexec_fn=cap, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: out of memory at degree bound 10; try a lower --degree\n"


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


def test_degree_cost_note_only_on_hh0():
    from preproj.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.choices)
    noted = {name for name, p in sub.choices.items() for a in p._actions
             if "--degree" in a.option_strings and "free 2" in a.help}
    assert noted == {"hh0"}


def test_hh0_generators_every_prime_power(capsys):
    code, out, _ = run(capsys, "hh0", "--catalog", "dynkin_e", "8", "--degree", "16",
                       "--show-generators")
    assert code == 0
    orders = [l.split(":")[0] for l in out.splitlines() if l.startswith("r^")]
    assert orders == ["r^(2^1) of order 2", "r^(3^1) of order 3",
                      "r^(2^2) of order 2", "r^(5^1) of order 5",
                      "r^(2^3) of order 2"]


def test_hh0_generators_skip_torsion_free_degrees(capsys, monkeypatch):
    """A3 has no torsion through 40, so no r^(p^l) is expanded, and the table
    is the one printed without the flag."""
    import preproj.cli

    calls = []
    expand = preproj.cli.r_power_cyclic
    monkeypatch.setattr(preproj.cli, "r_power_cyclic",
                        lambda *a: calls.append(a) or expand(*a))
    argv = ("hh0", "--catalog", "dynkin_a", "3", "--degree", "40")
    code, out, _ = run(capsys, *argv, "--show-generators")
    assert (code, calls) == (0, [])
    assert out == run(capsys, *argv)[1]


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


def test_closed_pipe_ends_quietly():
    """A reader that closes the pipe after the first line, as `| head -1`
    does, ends the command with status 1, no traceback and nothing on
    stderr.  The 296 KB of output overflow the pipe, so the writer always
    meets the closed end."""
    src = str(Path(preproj.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "preproj.cli", "hilbert", "--catalog", "free",
                             "2", "--degree", "1000", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"degree,matrix\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
