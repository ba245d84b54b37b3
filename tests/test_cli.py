import json

import pytest

from arr4.cli import main


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


def test_analyze_validation_error_exit3(capsys, tmp_path):
    path = tmp_path / "dup.arr"
    path.write_text("field: rational\n1 0 0 0\n2 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and "same hyperplane" in err
    path.write_text("field: rational\n1 0 0 0\n0 1 0 0\n1 1 0 0\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 3 and "rank" in err


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


def test_catalogue_export(capsys, tmp_path):
    target = tmp_path / "catalogue.json"
    code, _, _ = run_cli(capsys, "catalogue", "export", "-o", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert len(doc) == 20
    assert doc[0]["label"] == "A^3_1(10)"
    assert doc[-1]["f_vector"] == [1320, 8520, 14400, 7200]


def test_invalid_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("ARR4_THREADS", "zero")
    code, _, err = run_cli(capsys, "catalogue", "list")
    assert code == 2 and "ARR4_THREADS" in err
    monkeypatch.setenv("ARR4_THREADS", "4")
    code, _, _ = run_cli(capsys, "catalogue", "list")
    assert code == 0
