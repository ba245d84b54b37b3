import argparse
import ast
import gc
import importlib
import json
import os
import signal
import subprocess
import sys

import pytest

import arr4
import arr4.catalogue
import arr4.chambers
import arr4.cli
import arr4.report
from arr4 import Arrangement, Field, builtin, emit_arrangement
from arr4.cli import main
from arr4.fileformat import parse_arrangement
from arr4.invariants import CharPoly
from arr4.report import build_report, to_json
from golden import random_files
from helpers import misplaced_corners, random_arrangements, seed_corners, tamper_seed_chamber


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_a4(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "A4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field: rational" and len(lines) == 11
    target = tmp_path / "a4.arr"
    code, _, _ = run_cli(capsys, "generate", "A4", "-o", str(target))
    assert code == 0 and target.read_text().strip() == out.strip()


def test_generate_h4_is_quadratic(capsys):
    code, out, _ = run_cli(capsys, "generate", "H4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field: quadratic-tau" and len(lines) == 61


def test_generate_unknown_label(capsys):
    code, _, err = run_cli(capsys, "generate", "A^3_2(15)")
    assert code == 4 and "A^3_2(15)" in err


def test_analyze_boolean(capsys, tmp_path):
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert doc["simplicial"] is True
    assert doc["irreducible"] is False
    assert doc["real_rooted"] is True
    assert doc["char_poly"] == [1, -4, 6, -4, 1]
    assert doc["chambers"]["count"] == 8


def test_analyze_non_simplicial_irreducible(capsys, tmp_path):
    # disconnected chamber diagrams, yet no product structure: the diagram
    # route decides irreducibility only for simplicial arrangements
    path = tmp_path / "mixed.arr"
    path.write_text(
        "field: rational\n-2 0 -2 1\n1 1 1 -1\n-2 1 -2 1\n"
        "1 2 -2 1\n0 -1 2 -2\n0 -2 -2 -2\n"
    )
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["chambers"]["count"] == 26
    assert doc["simplicial"] is False
    assert doc["irreducible"] is True


def test_analyze_simpliciality_routes_disagree_exit5(capsys, tmp_path, monkeypatch):
    # the chamber engine's verdict negated: f2 = 2 f3 no longer matches it
    is_simplicial = arr4.chambers.is_simplicial
    monkeypatch.setattr(arr4.chambers, "is_simplicial", lambda arr: not is_simplicial(arr))
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: ")
    assert "wall and facet counting routes disagree about simpliciality" in err


def test_analyze_round_trip_matches_catalogue(capsys, tmp_path):
    path = tmp_path / "d4.arr"
    assert run_cli(capsys, "generate", "D4", "-o", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert doc["h_vector"] == {"2": 18, "3": 16}
    assert doc["t_vector"] == {"3": 12, "6": 12}
    assert doc["f_vector"] == [24, 120, 192, 96]
    assert doc["simply_laced"] is True and doc["irreducible"] is True
    assert doc["chambers"]["count"] == 96


def test_analyze_parse_error_exit2(capsys, tmp_path):
    path = tmp_path / "bad.arr"
    path.write_text("field: rational\n1 0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("header, first", [
    ("field: rational", "1" * 5000),
    ("field: quadratic-tau", "1+" + "1" * 5000 + "*t"),
], ids=["rational", "quadratic-tau"])
def test_analyze_overlong_coordinate_exit2(tmp_path, header, first):
    """A coordinate past the interpreter's int-string digit limit is a parse
    error with its line number, not a traceback."""
    path = tmp_path / "long.arr"
    path.write_text(f"{header}\n1 0 0 0\n0 1 0 0\n0 0 1 0\n{first} 0 0 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arr4.__file__)))
    done = subprocess.run([sys.executable, "-m", "arr4", "analyze", str(path)],
                          capture_output=True, env=env, timeout=60)
    err = done.stderr.decode()
    assert done.returncode == 2
    assert "line 5:" in err and "Traceback" not in err


def test_analyze_non_utf8_is_parse_error(capsys, tmp_path):
    path = tmp_path / "latin1.arr"
    path.write_bytes(b"field: rational\n# caf\xe9\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "UTF-8" in err


@pytest.mark.parametrize("cap", ["0", "-3", "many"])
def test_max_chambers_must_be_positive(capsys, tmp_path, cap):
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--max-chambers", cap])
    assert exc.value.code == 2
    assert "--max-chambers" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("field: rational\n1/0 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
     "line 2: denominator must be positive in '1/0'"),
    ("field: quadratic-tau\n1/0+1*t 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
     "line 2: zero denominator in '1/0+1*t'"),
    ("# only\n\n# comments\n", "line 1: missing field header"),
], ids=["rational-zero-denominator", "quadratic-zero-denominator", "comments-only"])
def test_analyze_parse_error_messages(capsys, tmp_path, text, message):
    path = tmp_path / "bad.arr"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and out == ""
    assert err == f"arr4: {path}: {message}\n"


def test_analyze_validation_error_exit3(capsys, tmp_path):
    path = tmp_path / "dup.arr"
    path.write_text("field: rational\n1 0 0 0\n2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and "same hyperplane" in err
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n1 1 0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and "rank" in err


@pytest.mark.parametrize("header, zero", [
    ("field: rational", "0 0 0 0"),
    ("field: quadratic-tau", "0 0 0 0+0*t"),
])
def test_analyze_zero_normal_exit3(capsys, tmp_path, header, zero):
    path = tmp_path / "zero.arr"
    path.write_text(f"{header}\n1 0 0 0\n{zero}\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and out == ""
    assert err == f"arr4: {path}: normal 1 is the zero vector\n"


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/x.arr")
    assert code == 2


def test_analyze_chamber_flags(capsys, tmp_path):
    path = tmp_path / "a4.arr"
    run_cli(capsys, "generate", "A4", "-o", str(path))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--no-chambers")
    doc = json.loads(out)
    assert doc["chambers"] is None
    assert doc["simplicial"] is True  # falls back to the counting criterion
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json",
                           "--max-chambers", "5")
    doc = json.loads(out)
    assert doc["chambers"]["complete"] is False


def test_catalogue_list(capsys):
    code, out, _ = run_cli(capsys, "catalogue", "list")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("A^3_1(10)")


def test_catalogue_verify_single(capsys):
    code, out, _ = run_cli(capsys, "catalogue", "verify", "A^3_1(12)")
    assert code == 0 and "ok" in out
    code, _, err = run_cli(capsys, "catalogue", "verify", "NOPE")
    assert code == 4


def test_catalogue_verify_json(capsys):
    code, out, _ = run_cli(capsys, "catalogue", "verify", "A^3_2(28)", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["rows"][0]["label"] == "A^3_2(28)"


def test_catalogue_verify_accepts_shorthand(capsys):
    code, out, _ = run_cli(capsys, "catalogue", "verify", "A4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["rows"][0]["label"] == "A^3_1(10)"
    assert run_cli(capsys, "catalogue", "verify", "A^3_1(10)", "--json")[1] == out
    code, out, _ = run_cli(capsys, "catalogue", "verify", "B4")
    assert code == 0 and out.startswith("A^3_1(16)    ok")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("analyze", "{path}", "--chambers", "--no-chambers"), "not allowed with"),
        (("analyze", "{path}", "--no-chambers", "--json", "--chambers"), "not allowed with"),
        (("catalogue", "verify", "A4", "--all"), "not allowed with"),
        (("catalogue", "verify", "--all", "A^3_1(12)"), "not allowed with"),
        (("catalogue", "verify", "--json"), "one of the arguments label --all is required"),
    ],
    ids=["chambers-no-chambers", "no-chambers-chambers", "label-all", "all-label", "neither"],
)
def test_contradictory_flags_are_usage_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(path=path) for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert message in captured.err


def test_invalid_choice_quotes_the_choices_on_every_python(capsys, monkeypatch):
    """An unknown command or catalogue action is a usage error that quotes
    every choice, whatever the interpreter's argparse prints: here its check
    is replaced by one that prints them bare, as Python 3.13.13 does."""
    def bare(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {value!r} (choose from {choices})"
            )

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", bare)
    cases = (
        (["bogus"], "command", "'analyze', 'generate', 'catalogue'"),
        (["catalogue", "bogus"], "action", "'list', 'verify', 'export'"),
    )
    for argv, name, choices in cases:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {name}: invalid choice: 'bogus' (choose from {choices})\n"
        )


def test_records_do_not_encode_as_arrays():
    """The NamedTuple records are tuples, but exact JSON takes no record."""
    chi = CharPoly((1, -4, 6, -4, 1))
    assert arr4.report.encode_exact(chi.coefficients) == [1, -4, 6, -4, 1]
    with pytest.raises(TypeError, match="cannot encode"):
        arr4.report.encode_exact(chi)


def test_internal_check_failure_exit5_analyze(capsys, tmp_path, monkeypatch):
    # a wrong closed form makes the Moebius vs formula cross-check fail
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    monkeypatch.setattr(
        "arr4.invariants.char_poly_formula", lambda n, h, f3: CharPoly((1, 0, 0, 0, -1))
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: ")
    assert "characteristic polynomials disagree" in err


def test_internal_check_failure_exit5_catalogue(capsys, monkeypatch):
    # a wrong floor makes the relation vs discriminant cross-check fail
    monkeypatch.setattr("arr4.invariants.floor_add_sqrt", lambda a, s, d: -1)
    code, out, err = run_cli(capsys, "catalogue", "verify", "A^3_2(15)")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: relation verdict")


def test_internal_check_failure_exit5_chamber_count(capsys, tmp_path, monkeypatch):
    # one chamber lost makes the lattice's f3 disagree with the enumeration
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    enumerate_chambers = arr4.chambers.enumerate_chambers
    monkeypatch.setattr(
        "arr4.chambers.enumerate_chambers", lambda arr, limit: enumerate_chambers(arr)[1:]
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert "7 chambers enumerated, but the lattice gives f3 = 8" in err


def test_internal_check_failure_exit5_wall_count(capsys, tmp_path, monkeypatch):
    # one wall dropped from one chamber leaves the walls short of 2 f2
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    enumerate_chambers = arr4.chambers.enumerate_chambers

    def one_wall_short(arr, limit):
        first, *rest = enumerate_chambers(arr, limit)
        return [arr4.chambers.Chamber(first.walls[1:], first.mask, first._ctx), *rest]

    monkeypatch.setattr("arr4.chambers.enumerate_chambers", one_wall_short)
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert "the chambers have 31 walls, but the vertex tallies give f2 = 16" in err


def test_internal_check_failure_exit5_f2_routes(capsys, monkeypatch):
    # one restriction chamber too many makes the two routes to f2 disagree
    restriction_counts = Arrangement.restriction_counts

    def one_too_many(self):
        (size, chambers), *rest = restriction_counts(self)
        return ((size, chambers + 1), *rest)

    monkeypatch.setattr(Arrangement, "restriction_counts", one_too_many)
    code, out, err = run_cli(capsys, "catalogue", "verify", "D4")
    assert code == 5 and out == ""
    assert "restriction chamber counts sum to 193, the vertex tallies give f2 = 192" in err


def _tamper_contexts(monkeypatch, how):
    """Every chamber context the command builds is tampered at its walk's
    first chamber (`helpers.tamper_seed_chamber`)."""

    class Tampered(arr4.chambers._Context):
        def __init__(self, arr):
            super().__init__(arr)
            tamper_seed_chamber(self, arr, how)

    monkeypatch.setattr(arr4.chambers, "_Context", Tampered)


def test_internal_check_failure_exit5_facet_certificate(capsys, tmp_path, monkeypatch):
    # zero rank forms on the corners of a first chamber with more than four
    # corners leave its facets' tight corners short of spanning them
    text = next(
        text for arr in random_arrangements(Field.RATIONAL, 12, seed=20240615)
        for text in [emit_arrangement(arr)]
        for parsed in [parse_arrangement(text)]
        if len(seed_corners(arr4.chambers._Context(parsed), parsed)) > 4
    )
    _tamper_contexts(monkeypatch, "zero")
    path = tmp_path / "wide.arr"
    path.write_text(text)
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: ")
    assert "tight corner rays of a facet must span it" in err


@pytest.mark.parametrize("how,message", [
    ("dependent", "the corner rays of a simplicial chamber must be independent"),
    ("holds_all", "a simplicial chamber's walls must each hold all but one corner"),
    ("holds_short", "a simplicial chamber's walls must each hold all but one corner"),
])
@pytest.mark.parametrize("label", ["A4", "A^3_1(27)"])
def test_internal_check_failure_exit5_simplicial_certificate(
    capsys, tmp_path, monkeypatch, label, how, message
):
    # dependent corner forms, or a member mask widened so that a candidate
    # holds four or two of a simplicial chamber's corners
    _tamper_contexts(monkeypatch, how)
    path = tmp_path / "simplicial.arr"
    assert run_cli(capsys, "generate", label, "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err == f"arr4: internal check failed: {message}\n"


@pytest.mark.parametrize("claims", [True, False], ids=["claims", "omits"])
def test_internal_check_failure_exit5_corner_membership(capsys, tmp_path, monkeypatch, claims):
    # a vertex whose member mask claims a hyperplane its point is off, or
    # omits one its point is on, disagrees with the signs of that hyperplane
    corner_flats = Arrangement.corner_flats
    monkeypatch.setattr(
        Arrangement, "corner_flats",
        lambda self: misplaced_corners(corner_flats(self), self.n, claims),
    )
    path = tmp_path / "a4.arr"
    assert run_cli(capsys, "generate", "A4", "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: corner flat membership")


def test_internal_check_failure_exit5_irreducibility(capsys, tmp_path, monkeypatch):
    # a product structure claimed for A4 contradicts its connected diagrams
    monkeypatch.setattr(
        Arrangement, "reducible_partition", lambda self: ((0,), tuple(range(1, self.n)))
    )
    path = tmp_path / "a4.arr"
    assert run_cli(capsys, "generate", "A4", "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert "diagram and span routes disagree about irreducibility" in err


def test_internal_check_failure_exit5_simply_laced(capsys, tmp_path, monkeypatch):
    # a counting criterion that calls A4 non-simply-laced contradicts its diagrams
    monkeypatch.setattr(arr4.chambers, "simply_laced_h_criterion", lambda arr: False)
    path = tmp_path / "a4.arr"
    assert run_cli(capsys, "generate", "A4", "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: ")
    assert "diagram route says simply_laced=True but the h-vector criterion says False" in err


def test_package_has_no_assert_statement():
    """An internal check reaches exit 5 only by raising `AssertionError`
    explicitly: `python -O` strips `assert` statements."""
    package = os.path.dirname(arr4.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_catalogue_verify_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalogue", "verify"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: arr4 catalogue verify (LABEL | --all) [--json]\n")
    with pytest.raises(SystemExit) as exc:
        main(["catalogue", "verify", "--help"])
    assert exc.value.code == 0
    assert "usage: arr4 catalogue verify (LABEL | --all) [--json]" in capsys.readouterr().out


def test_catalogue_export(capsys, tmp_path):
    target = tmp_path / "catalogue.json"
    code, _, _ = run_cli(capsys, "catalogue", "export", "-o", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc) == 20
    assert doc[0]["label"] == "A^3_1(10)"
    assert doc[-1]["f_vector"] == [1320, 8520, 14400, 7200]


@pytest.mark.parametrize("argv", [("generate", "A4"), ("catalogue", "export")],
                         ids=["generate", "export"])
def test_output_into_missing_directory_exit2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("arr4: [Errno 2] No such file or directory")
    assert str(target) in err and not target.parent.exists()


def test_catalogue_verify_text_fail_line(capsys, monkeypatch):
    # one data check of A^3_1(12) turned into a failure
    verify_row = arr4.catalogue.verify_row

    def one_failure(label):
        report = verify_row(label)
        first = report.checks[0]
        failed = first._replace(holds=False)
        return report._replace(checks=(failed, *report.checks[1:]))

    monkeypatch.setattr(arr4.catalogue, "verify_row", one_failure)
    code, out, err = run_cli(capsys, "catalogue", "verify", "A^3_1(12)")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("A^3_1(12)    FAIL  (")
    assert lines[1] == "    pair_count: FAILS (lhs=66, rhs=66, tight)"
    assert lines[-1] == "1 rows, 1 failures"


def test_invalid_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("ARR4_THREADS", "zero")
    code, _, err = run_cli(capsys, "catalogue", "list")
    assert code == 2 and "ARR4_THREADS" in err
    monkeypatch.setenv("ARR4_THREADS", "4")
    code, _, _ = run_cli(capsys, "catalogue", "list")
    assert code == 0


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_quietly():
    """`arr4 catalogue list | head -1`: the closed pipe ends the process by
    SIGPIPE, like `cat`, and prints nothing to stderr."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arr4.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "arr4", "catalogue", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # no reader is left before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


def _fresh_python(code, *args, cwd=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """Run code in a fresh interpreter that imports arr4 from this checkout,
    with the standard streams buffered as a user's shell leaves them."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arr4.__file__)))
    env.pop("ARR4_THREADS", None)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", code, *args], stdout=stdout, stderr=stderr,
                          env=env, cwd=cwd, timeout=60)


def test_cli_import_is_lean():
    """Importing the command line loads neither `dataclasses` nor the
    `inspect` it pulls in: every `python -m arr4` child pays its imports."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import arr4.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = _fresh_python(probe)
    assert done.returncode == 0, done.stderr.decode()
    loaded = set(done.stdout.decode().split())
    assert "arr4.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cli_process_runs_without_cyclic_collector():
    """`arr4.cli.entry`, behind `python -m arr4` and the `arr4` script, turns
    the cyclic garbage collector off for the process; importing the package
    leaves it on."""
    probe = (
        "import gc, os, sys\n"
        "import arr4.cli\n"
        "assert gc.isenabled()\n"
        "real_exit = os._exit\n"
        "def probe_exit(code):\n"
        "    print('collector on:', gc.isenabled(), file=sys.stderr, flush=True)\n"
        "    real_exit(code)\n"
        "os._exit = probe_exit\n"
        "sys.argv = ['arr4', 'catalogue', 'list']\n"
        "arr4.cli.entry()\n"
    )
    done = _fresh_python(probe)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stderr.decode() == "collector on: False\n"


def test_cli_process_exit_status_and_streams_arrive_in_full(tmp_path):
    """`entry` ends the process by `os._exit` with main's code, after both
    standard streams are flushed, through a pipe and into a file alike: the
    probe's `main` writes more than 64 KiB to standard output and, to the
    line-buffered standard error, a line without its newline, which stays
    buffered until a flush."""
    probe = (
        "import sys\n"
        "import arr4.cli\n"
        "def main():\n"
        "    for i in range(5000):\n"
        "        sys.stdout.write(f'{i:>15}\\n')\n"
        "    sys.stderr.write('arr4: last line')\n"
        "    return int(sys.argv[1])\n"
        "arr4.cli.main = main\n"
        "arr4.cli.entry()\n"
    )
    expected_out = "".join(f"{i:>15}\n" for i in range(5000)).encode()
    assert len(expected_out) > 64 * 1024
    for code in range(6):
        done = _fresh_python(probe, str(code))
        assert done.returncode == code, done.stderr.decode()
        assert done.stdout == expected_out
        assert done.stderr == b"arr4: last line"
        out, err = tmp_path / f"out{code}", tmp_path / f"err{code}"
        with open(out, "wb") as out_file, open(err, "wb") as err_file:
            status = _fresh_python(probe, str(code), stdout=out_file, stderr=err_file).returncode
        assert status == code, err.read_text()
        assert out.read_bytes() == expected_out
        assert err.read_bytes() == b"arr4: last line"


def test_cli_exit_status_after_failed_flush():
    """A standard output whose flush fails makes `entry` fall back to
    `sys.exit` rather than `os._exit`: the interpreter reports the failed
    flush and exits 120."""
    probe = (
        "import io, sys\n"
        "import arr4.cli\n"
        "class Full(io.RawIOBase):\n"
        "    def writable(self):\n"
        "        return True\n"
        "    def write(self, data):\n"
        "        raise OSError(28, 'No space left on device')\n"
        "sys.stdout = io.TextIOWrapper(io.BufferedWriter(Full()))\n"
        "arr4.cli.main = lambda: sys.stdout.write('report') and 3\n"
        "arr4.cli.entry()\n"
    )
    done = _fresh_python(probe)
    assert done.returncode == 120
    err = done.stderr.decode()
    assert err.startswith("Exception ignored ")  # the rest of the line varies by version
    assert err.endswith("OSError: [Errno 28] No space left on device\n")


def test_cyclic_garbage_of_a_report_does_not_grow_with_input():
    """With the collector off, as in the command line, one report and its
    JSON leave the same cyclic garbage on inputs of 10, 28 and 20
    hyperplanes, two simplicial and one not: the lattice and chamber layers
    build no reference cycles, so nothing the collector would have freed
    grows with the input."""
    texts = [emit_arrangement(builtin(label)) for label in ("A4", "A^3_1(28)")]
    texts.append(next(text for name, text, _ in random_files(1) if name == "generic20"))
    counts = []
    for text in texts:
        arr = parse_arrangement(text)
        gc.collect()
        gc.disable()
        try:
            to_json(build_report(arr, with_chambers=True))
            counts.append(gc.collect())
        finally:
            gc.enable()
    assert len(set(counts)) == 1, counts


def test_import_arr4_loads_no_submodule():
    """`import arr4` is lazy; a submodule loads when it is first read."""
    probe = (
        "import sys, types\n"
        "import arr4\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('arr4.'))))\n"
        "assert isinstance(arr4.chambers, types.ModuleType)\n"
        "assert 'arr4.chambers' in sys.modules\n"
    )
    done = _fresh_python(probe)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == []


#: loaded by every command that builds or reads an arrangement: the command
#: line and the lattice modules
_BASE = {"cli", "scalars", "linalg", "arrangement"}

#: the arr4 submodules each command loads, run in order in one directory;
#: the catalogue's rows alone load no lattice module and no check module
_COMMAND_MODULES = {
    "catalogue list": {"cli", "catalogue"},
    "catalogue verify A4": _BASE | {"catalogue", "constructions", "invariants"},
    "catalogue verify A4 --json": _BASE | {"catalogue", "constructions", "invariants", "report"},
    "catalogue export": {"cli", "catalogue", "report"},
    "generate A4 -o a4.arr": _BASE | {"catalogue", "constructions", "fileformat"},
    "analyze a4.arr --json --no-chambers": _BASE | {"fileformat", "invariants", "report"},
    "analyze a4.arr --json --chambers": _BASE | {"chambers", "fileformat", "invariants", "report"},
}


#: runs `python -m arr4` with the given arguments, then prints every loaded
#: module's name to standard error as the process ends by `os._exit`
_LOADED_PROBE = (
    "import os, runpy, sys\n"
    "real_exit = os._exit\n"
    "def probe_exit(code):\n"
    "    print(' '.join(sys.modules), file=sys.stderr, flush=True)\n"
    "    real_exit(code)\n"
    "os._exit = probe_exit\n"
    "sys.argv[0] = 'arr4'\n"
    "runpy.run_module('arr4', run_name='__main__', alter_sys=True)\n"
)


def test_each_command_loads_only_its_modules(tmp_path):
    """`python -m arr4 ...` imports only the modules its command runs."""
    for command, expected in _COMMAND_MODULES.items():
        done = _fresh_python(_LOADED_PROBE, *command.split(), cwd=tmp_path)
        assert done.returncode == 0, (command, done.stderr.decode())
        loaded = sorted(m for m in done.stderr.decode().split() if m.startswith("arr4."))
        assert loaded == sorted(f"arr4.{name}" for name in expected), command


def test_catalogue_rows_load_no_exact_arithmetic():
    """`catalogue list` loads none of `fractions`, `decimal`, `numbers` or
    `json`, and reading the rows loads no other arr4 submodule."""
    done = _fresh_python(_LOADED_PROBE, "catalogue", "list")
    assert done.returncode == 0, done.stderr.decode()
    loaded = set(done.stderr.decode().split())
    assert not loaded & {"fractions", "decimal", "numbers", "json"}
    probe = (
        "import sys\n"
        "import arr4.catalogue\n"
        "assert len(arr4.catalogue.catalogue_rows()) == 20\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('arr4.'))))\n"
    )
    done = _fresh_python(probe)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().split() == ["arr4.catalogue"]


def test_public_names_resolve_to_their_home_modules():
    """Each name of `__all__` is its home module's object; `import *` binds
    exactly `__all__`; `dir` lists it; an unknown name is an AttributeError."""
    assert arr4.__all__ == sorted(name for names in arr4._PUBLIC.values() for name in names)
    for home, names in arr4._PUBLIC.items():
        module = importlib.import_module(f"arr4.{home}")
        for name in names:
            assert getattr(arr4, name) is getattr(module, name), name
    namespace = {}
    exec("from arr4 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(arr4.__all__)
    assert set(arr4.__all__) <= set(dir(arr4))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        arr4.no_such_name
    assert not hasattr(arr4, "no_such_name")
