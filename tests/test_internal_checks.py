"""Every internal check under src/ has a test that makes it fire.

An internal check is a `raise AssertionError` in the package: a cross-check
between two independent routes, or a certificate, which the command line
reports with exit code 5.  A check that no test reaches can be made vacuous
without any test noticing, so `CHECKS` holds one row per raise site: the
module, a literal fragment of the check's message, and the test that makes
the check fire.  The guard fails when a raise site matches no row (or more
than one), when a row matches no raise site, and when a row names a test
function that does not exist.  A change that adds a check adds its row.
"""

import ast
import os
from typing import NamedTuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "arr4")


class Check(NamedTuple):
    module: str    # file name under src/arr4
    fragment: str  # literal text of the message; f-string fields read "{}"
    test: str      # "tests/<file>.py::<test function>"


CHECKS = (
    Check("arrangement.py", "two of its members restrict to one normal",
          "tests/test_arrangement.py::test_restriction_checks_fire"),
    Check("arrangement.py", "is not essential",
          "tests/test_arrangement.py::test_restriction_checks_fire"),
    Check("arrangement.py", "is not inside the vertex",
          "tests/test_arrangement.py::test_vertex_pass_asserts_lines_inside_vertices"),
    Check("arrangement.py", "lies on {} hyperplanes",
          "tests/test_arrangement.py::test_vertex_weight_check_fires_before_any_flat"),
    Check("catalogue.py", "restriction chamber counts sum to",
          "tests/test_cli.py::test_internal_check_failure_exit5_f2_routes"),
    Check("chambers.py", "corner flat membership disagrees with the signs of hyperplane",
          "tests/test_chambers.py::test_corner_membership_check_fires"),
    Check("chambers.py", "a simplicial chamber's walls must each hold all but one corner",
          "tests/test_chambers.py::test_simplicial_certificate_fires"),
    Check("chambers.py", "the corner rays of a simplicial chamber must be independent",
          "tests/test_chambers.py::test_facet_certificate_fires"),
    Check("chambers.py", "tight corner rays of a facet must span it",
          "tests/test_chambers.py::test_facet_certificate_fires_on_wide_facets"),
    Check("chambers.py", "enumerated chamber has no extreme rays",
          "tests/test_chambers.py::test_chamber_without_corners_fires"),
    Check("chambers.py", "tight corner rays of an edge must span it",
          "tests/test_chambers.py::test_edge_certificate_fires"),
    Check("chambers.py", "diagram route says simply_laced=",
          "tests/test_cli.py::test_internal_check_failure_exit5_simply_laced"),
    Check("invariants.py", "chi(-1) must be positive",
          "tests/test_invariants.py::test_f_vector_chamber_count_check_fires"),
    Check("invariants.py", "disagrees with discriminant",
          "tests/test_cli.py::test_internal_check_failure_exit5_catalogue"),
    Check("report.py", "lattice and closed-form characteristic polynomials disagree",
          "tests/test_cli.py::test_internal_check_failure_exit5_analyze"),
    Check("report.py", "chambers enumerated, but the lattice gives f3",
          "tests/test_cli.py::test_internal_check_failure_exit5_chamber_count"),
    Check("report.py", "walls, but the vertex tallies give f2",
          "tests/test_cli.py::test_internal_check_failure_exit5_wall_count"),
    Check("report.py", "wall and facet counting routes disagree about simpliciality",
          "tests/test_cli.py::test_analyze_simpliciality_routes_disagree_exit5"),
    Check("report.py", "diagram and span routes disagree about irreducibility",
          "tests/test_cli.py::test_internal_check_failure_exit5_irreducibility"),
)


def _message(node) -> str:
    """The literal text of a message expression, each f-string field as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_message(part) if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return ast.unparse(node)


def _raise_sites():
    """(module, line, message) of every `raise AssertionError` under src/arr4;
    a bare raise, or one without a message, has the message ""."""
    sites = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            call = exc if isinstance(exc, ast.Call) else None
            func = call.func if call else exc
            if isinstance(func, ast.Name) and func.id == "AssertionError":
                message = _message(call.args[0]) if call and call.args else ""
                sites.append((name, node.lineno, message))
    return sites


def _rows_of(site):
    module, _, message = site
    return [check for check in CHECKS if check.module == module and check.fragment in message]


def test_every_check_has_one_row():
    sites = _raise_sites()
    assert sites, "no raise site found"
    unmatched = [site for site in sites if len(_rows_of(site)) != 1]
    assert not unmatched, f"raise sites with no row, or more than one: {unmatched}"


def test_every_row_matches_one_check():
    sites = _raise_sites()
    stale = [check for check in CHECKS if sum(check in _rows_of(site) for site in sites) != 1]
    assert not stale, f"rows matching no raise site, or more than one: {stale}"


def _test_functions(path):
    with open(os.path.join(ROOT, path)) as handle:
        tree = ast.parse(handle.read())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("check", CHECKS, ids=[check.fragment for check in CHECKS])
def test_row_names_a_test_function(check):
    path, _, function = check.test.partition("::")
    assert function.startswith("test_") and function in _test_functions(path), check.test
