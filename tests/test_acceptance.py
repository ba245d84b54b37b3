"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is exact, so no tolerances appear anywhere.
"""

import os
import subprocess
import sys
import time
from math import comb

from arr4 import (
    builtin,
    char_poly_formula,
    char_poly_moebius,
    coxeter_diagram,
    enumerate_chambers,
    f_vector,
    is_irreducible_diagrams,
    is_simplicial,
    is_simply_laced,
    real_roots_test,
    verify_row,
)
from arr4.catalogue import catalogue_rows
from arr4.chambers import _canonical_mask, simply_laced_h_criterion
from arr4.constructions import _build
from arr4.invariants import ArrangementData, run_data_checks

from helpers import boolean_arrangement, run_field_axiom_suite, run_surd_floor_suite

GEOMETRY_LABELS = (
    "A^3_1(10)", "A^3_1(12)", "A^3_1(16)", "A^3_1(24)",
    "A^3_1(27)", "A^3_1(28)", "A^3_1(60)",
)


def _table(label):
    return next(row for row in catalogue_rows() if row.label == label)


def test_criterion_1_catalogue_reproduction():
    _build.cache_clear()  # measure construction honestly
    fast_elapsed = 0.0
    h4_elapsed = 0.0
    for label in GEOMETRY_LABELS:
        row = _table(label)
        start = time.monotonic()
        arr = builtin(label)
        computed = (arr.n, arr.h_vector(), arr.t_vector(), f_vector(arr))
        elapsed = time.monotonic() - start
        assert computed == (row.n, dict(row.h), dict(row.t), row.f), label
        if label == "A^3_1(60)":
            h4_elapsed = elapsed
        else:
            fast_elapsed += elapsed
    assert fast_elapsed < 60.0, f"non-H4 geometry took {fast_elapsed:.1f}s"
    assert h4_elapsed < 120.0, f"H4 lattice + f-vector took {h4_elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 catalogue geometry reproduced exactly "
          f"(fast rows {fast_elapsed:.1f}s, H4 {h4_elapsed:.1f}s): PASS")


def test_criterion_2_char_poly_exactness():
    a4 = builtin("A4")
    chi = char_poly_moebius(a4)
    assert chi.integer_roots() == (1, 2, 3, 4)
    assert chi.coefficients == (1, -10, 35, -50, 24)
    boolean = boolean_arrangement()
    assert char_poly_moebius(boolean).coefficients == (1, -4, 6, -4, 1)
    assert char_poly_moebius(boolean).integer_roots() == (1, 1, 1, 1)
    for label in GEOMETRY_LABELS:
        arr = builtin(label)
        data = ArrangementData.from_arrangement(arr)
        assert char_poly_moebius(arr) == char_poly_formula(
            data.n, data.h_total, data.f[3]
        ), label
    print("\nACCEPTANCE 2 characteristic polynomial routes agree exactly: PASS")


def test_criterion_3_tightness_of_real_root_relations():
    report = real_roots_test(15, 79, 180)
    assert report.real_rooted
    assert report.line_weight_cap.rhs == (17 * 14) // 3 == 79
    assert report.line_weight_cap.tight
    assert report.chamber_count_cap.rhs == 180 and report.chamber_count_cap.tight
    assert report.chamber_count_floor.rhs == 180 and report.chamber_count_floor.tight
    print("\nACCEPTANCE 3 relations tight on the 15-hyperplane extreme row: PASS")


def test_criterion_4_full_data_suite():
    start = time.monotonic()
    simply_laced_rows = []
    for row in catalogue_rows():
        data = row.data()
        assert sum(comb(i, 2) * c for i, c in data.h.items()) == comb(data.n, 2)
        assert data.f[3] + data.n == data.weighted_vertex_sum
        assert data.f[0] - data.f[1] + data.f[2] - data.f[3] == 0
        assert data.f[2] == 2 * data.f[3]
        outcomes = run_data_checks(data, simplicial=True, irreducible=True)
        bad = [o for o in outcomes if o.status == "fail"]
        assert not bad, (row.label, bad)
        names = {o.name for o in outcomes if o.status == "pass"}
        assert {"line_weight_cap", "chamber_count_cap", "chamber_count_floor",
                "cubic_discriminant", "double_line_dominance", "chamber_cube_cap",
                "heavy_line_quota", "cube_growth_conjecture", "vertex_sum_identity",
                "edge_supply", "multiplicity_floor"} <= names, row.label
        if data.simply_laced:
            simply_laced_rows.append(row.label)
            assert {"multiplicity_cap", "sl_size_cap", "sl_size_cap_gs"} <= names
    assert {"A^3_1(10)", "A^3_1(12)"} <= set(simply_laced_rows)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"data suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4 all {len(catalogue_rows())} rows pass every data check "
          f"({elapsed*1000:.0f} ms): PASS")


def test_criterion_5_chamber_engine():
    boolean = boolean_arrangement()
    expected_counts = {"A4": 60, "D4": 96, "B4": 192, "F4": 576}
    for name, arr in [("boolean", boolean)] + [
        (k, builtin(k)) for k in expected_counts
    ]:
        chambers = enumerate_chambers(arr)
        assert len(chambers) == char_poly_moebius(arr)(-1) // 2, name
        if name in expected_counts:
            assert len(chambers) == expected_counts[name]
        assert all(len(ch.walls) == 4 for ch in chambers), name
    for ch in enumerate_chambers(builtin("A4")):
        d = coxeter_diagram(builtin("A4"), ch)
        assert d.edge_weights() == (3, 3, 3) and d.degrees() == (1, 1, 2, 2)
    for ch in enumerate_chambers(builtin("D4")):
        d = coxeter_diagram(builtin("D4"), ch)
        assert d.edge_weights() == (3, 3, 3) and d.degrees() == (1, 1, 1, 3)
    for label in GEOMETRY_LABELS:
        arr = builtin(label)
        assert is_simply_laced(arr) == simply_laced_h_criterion(arr), label
    for label in GEOMETRY_LABELS:
        arr = builtin(label)
        assert is_irreducible_diagrams(arr) == (arr.reducible_partition() is None), label
        assert is_simplicial(arr), label
    assert is_irreducible_diagrams(boolean) == (
        boolean.reducible_partition() is None
    ) == False
    print("\nACCEPTANCE 5 chamber engine verified on all built-ins: PASS")


def test_criterion_6_property_suites():
    assert run_field_axiom_suite(10_000) == 10_000
    assert run_surd_floor_suite(1_000) == 1_000
    # breadth-first closure: flipping any wall lands on an enumerated chamber
    for arr in (boolean_arrangement(), builtin("A4"), builtin("D4")):
        masks = {ch.mask for ch in enumerate_chambers(arr)}
        full = (1 << arr.n) - 1
        for ch in enumerate_chambers(arr):
            for h in ch.walls:
                assert _canonical_mask(ch.mask ^ (1 << h), full) in masks
    # antipodal canonicalization is idempotent and identification-invariant
    import random

    rng = random.Random(99)
    for n in (4, 12, 28):
        full = (1 << n) - 1
        for _ in range(800):
            mask = rng.randrange(1 << n)
            canon = _canonical_mask(mask, full)
            assert _canonical_mask(canon, full) == canon
            assert _canonical_mask(mask ^ full, full) == canon
    print("\nACCEPTANCE 6 property suites (10^4 axiom cases, 10^3 surd cases): PASS")


def _run_verify_all(extra_env=None):
    env = os.environ.copy()
    env.pop("ARR4_THREADS", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-m", "arr4", "catalogue", "verify", "--all", "--json"],
        capture_output=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_7_determinism():
    first = _run_verify_all()
    second = _run_verify_all()
    assert first == second, "two identical runs differ"
    one_thread = _run_verify_all({"ARR4_THREADS": "1"})
    eight_threads = _run_verify_all({"ARR4_THREADS": "8"})
    assert one_thread == eight_threads == first
    print("\nACCEPTANCE 7 byte-identical output across runs and thread caps: PASS")
