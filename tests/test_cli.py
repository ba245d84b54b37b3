import hashlib
import json
import os
import signal
import subprocess
import sys

import pytest

import arr4
import arr4.chambers
import arr4.cli
import arr4.report
from arr4 import Arrangement
from arr4.cli import main
from arr4.invariants import CharPoly


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


#: sha256 of `analyze --json --chambers` output, captured before the
#: Fourier-Motzkin, reducibility and seed routes moved onto the integer kernel.
_GOLDEN_ANALYZE = {
    "boolean": (
        "field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
        "03e469c9eb354b317e719f622de23a0a9ce5b9c08dcf771c2c1a120644a8a71e",
    ),
    "non-simplicial": (
        "field: rational\n-2 0 -2 1\n1 1 1 -1\n-2 1 -2 1\n"
        "1 2 -2 1\n0 -1 2 -2\n0 -2 -2 -2\n",
        "fb025997f3331c6d8d468850ec7ffd7b2b5c38ff74a73cc79ee785d6140154dd",
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_ANALYZE))
def test_analyze_json_golden_digest(capsys, tmp_path, name):
    """Reducible and non-simplicial inputs, which the built-in digests miss."""
    text, digest = _GOLDEN_ANALYZE[name]
    path = tmp_path / "input.arr"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        "arr4.report.char_poly_formula", lambda n, h, f3: CharPoly((1, 0, 0, 0, -1))
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
    enumerate_chambers = arr4.report.enumerate_chambers
    monkeypatch.setattr(
        "arr4.report.enumerate_chambers", lambda arr, limit: enumerate_chambers(arr)[1:]
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert "7 chambers enumerated, but the lattice gives f3 = 8" in err


def test_internal_check_failure_exit5_wall_count(capsys, tmp_path, monkeypatch):
    # one wall dropped from one chamber leaves the walls short of 2 f2
    path = tmp_path / "boolean.arr"
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    enumerate_chambers = arr4.report.enumerate_chambers

    def one_wall_short(arr, limit):
        first, *rest = enumerate_chambers(arr, limit)
        return [arr4.chambers.Chamber(first.walls[1:], first.mask, first._ctx), *rest]

    monkeypatch.setattr("arr4.report.enumerate_chambers", one_wall_short)
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


def test_internal_check_failure_exit5_facet_certificate(capsys, tmp_path, monkeypatch):
    # a corner with the zero rank form leaves its facets' tight corners
    # short of spanning them
    class Corrupted(arr4.chambers._Context):
        def __init__(self, arr):
            super().__init__(arr)
            self.forms[0] = (0,) * len(self.forms[0])

    monkeypatch.setattr(arr4.chambers, "_Context", Corrupted)
    path = tmp_path / "a4.arr"
    assert run_cli(capsys, "generate", "A4", "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, "analyze", str(path), "--json", "--chambers")
    assert code == 5 and out == ""
    assert err.startswith("arr4: internal check failed: ")
    assert "tight corner rays of a facet must span it" in err


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
    verify_row = arr4.cli.verify_row

    def one_failure(label):
        report = verify_row(label)
        first = report.checks[0]
        failed = first._replace(status="fail", result=first.result._replace(holds=False))
        return report._replace(checks=(failed, *report.checks[1:]))

    monkeypatch.setattr(arr4.cli, "verify_row", one_failure)
    code, out, err = run_cli(capsys, "catalogue", "verify", "A^3_1(12)")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("A^3_1(12)    FAIL  (")
    assert lines[1] == "    FAIL pair_count: pair_count: FAILS (lhs=66, rhs=66, tight)"
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


def test_cli_import_is_lean():
    """Importing the command line loads neither `dataclasses` nor the
    `inspect` it pulls in: every `python -m arr4` child pays its imports."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(arr4.__file__)))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import arr4.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env,
                          timeout=60, check=True)
    loaded = set(done.stdout.decode().split())
    assert "arr4.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
