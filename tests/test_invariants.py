import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from arr4 import (
    Arrangement,
    ArrangementData,
    CharPoly,
    builtin,
    char_poly_formula,
    char_poly_moebius,
    f_vector,
    real_roots_test,
)
from arr4 import invariants
from arr4.catalogue import catalogue_rows
from arr4.invariants import (
    _mu_data,
    check_cube_growth_conjecture,
    check_chamber_cube_cap,
    check_double_line_dominance,
    check_edge_supply,
    check_heavy_line_quota,
    check_multiplicity_window,
    check_pair_count,
    check_simply_laced_bounds,
    check_vertex_sum_identity,
    positional,
    run_data_checks,
)
from arr4.report import build_report

from helpers import run_surd_floor_suite


def test_char_poly_formula_examples():
    assert char_poly_formula(10, 35, 60).coefficients == (1, -10, 35, -50, 24)
    assert char_poly_formula(4, 6, 8).coefficients == (1, -4, 6, -4, 1)
    cubic = char_poly_formula(15, 79, 180).reduced_cubic()
    assert (cubic.p, cubic.q, cubic.r) == (-14, 65, -100)
    assert cubic.discriminant() >= 0
    assert char_poly_formula(15, 79, 180).integer_roots() == (1, 4, 5, 5)


def test_char_poly_moebius_boolean(boolean):
    chi = char_poly_moebius(boolean)
    assert chi.coefficients == (1, -4, 6, -4, 1)
    assert chi.integer_roots() == (1, 1, 1, 1)


def test_char_poly_moebius_a4():
    chi = char_poly_moebius(builtin("A4"))
    assert chi.integer_roots() == (1, 2, 3, 4)
    assert chi.coefficients == (1, -10, 35, -50, 24)


def test_moebius_equals_formula(boolean, generic5):
    for arr in (boolean, generic5, builtin("A4"), builtin("D4")):
        data = ArrangementData.from_arrangement(arr)
        assert char_poly_moebius(arr) == char_poly_formula(data.n, data.h_total, data.f[3])


def test_report_runs_one_moebius_recursion(monkeypatch):
    """A report and its f-vector share one Moebius recursion."""
    template = builtin("A^3_1(28)")
    arr = Arrangement(template.normals, template.field)
    calls = []

    def counting(arrangement):
        calls.append(arrangement)
        return _mu_data(arrangement)

    monkeypatch.setattr(invariants, "_mu_data", counting)
    build_report(arr, with_chambers=False)
    assert calls == [arr]
    assert f_vector(arr)[3] == char_poly_moebius(arr)(-1) // 2
    assert calls == [arr]


def test_char_poly_evaluations(boolean, generic5):
    for arr in (boolean, generic5, builtin("D4")):
        chi = char_poly_moebius(arr)
        f3 = f_vector(arr)[3]
        assert chi(1) == 0
        assert chi(-1) == 2 * f3


def _boolean_f_oracle():
    """Brute force over {-,0,+} patterns for the four coordinate hyperplanes.

    A pattern vanishing on a set S and signed elsewhere is realizable for any
    S != all, and spans a cell of projective dimension 3 - |S| (antipodal
    pairs identified).
    """
    counts = [0, 0, 0, 0]
    for pattern in product((-1, 0, 1), repeat=4):
        if all(s == 0 for s in pattern):
            continue
        first = next(s for s in pattern if s)
        if first < 0:
            continue  # antipodal representative
        zeros = sum(1 for s in pattern if s == 0)
        counts[3 - zeros] += 1
    return tuple(counts)


def test_f_vector_boolean_against_oracle(boolean):
    assert f_vector(boolean) == _boolean_f_oracle() == (4, 12, 16, 8)


def test_f_vector_generic5(generic5):
    # five hyperplanes in general position: 10 weight-3 vertices, each line
    # carries 3 of them, and the central region count is 2*(1+4+6+4) = 30
    assert f_vector(generic5) == (10, 30, 35, 15)
    assert generic5.h_vector() == {2: 10}
    f0, f1, f2, f3 = f_vector(generic5)
    assert f0 - f1 + f2 - f3 == 0
    assert f2 != 2 * f3  # not simplicial


def test_f_vector_a4():
    assert f_vector(builtin("A4")) == (15, 75, 120, 60)


def test_real_roots_tightness_row_15b():
    report = real_roots_test(15, 79, 180)
    assert report.real_rooted
    assert report.line_weight_cap.tight and report.line_weight_cap.rhs == 79
    assert report.chamber_count_cap.tight and report.chamber_count_cap.rhs == 180
    assert report.chamber_count_floor.tight and report.chamber_count_floor.rhs == 180


def test_real_roots_boolean_and_a4():
    assert real_roots_test(4, 6, 8).real_rooted
    rep = real_roots_test(10, 35, 60)
    assert rep.real_rooted and rep.discriminant > 0


def test_real_roots_negative_radicand():
    # h beyond (n^2+n-2)/3 fails the first relation outright
    rep = real_roots_test(5, 20, 10)
    assert not rep.real_rooted
    assert not rep.line_weight_cap.holds
    assert rep.discriminant < 0


def test_relation_and_discriminant_verdicts_agree_randomized():
    rng = random.Random(20240615)
    for _ in range(2500):
        n = rng.randint(4, 80)
        h = rng.randint(0, (n * n + n) // 2)
        f3 = rng.randint(1, n**3 // 20 + 30)
        real_roots_test(n, h, f3)  # raises if the two verdicts ever disagree


def test_surd_floor_matches_interval_oracle():
    assert run_surd_floor_suite(1200) == 1200


def test_checker_examples():
    res = check_chamber_cube_cap(10, 60)
    assert res.holds and res.rhs == Fraction(1728, 27)
    assert check_chamber_cube_cap(4, 8).tight
    a4 = ArrangementData(10, {2: 15, 3: 10}, {4: 10, 6: 5}, (15, 75, 120, 60))
    quota = check_heavy_line_quota(a4)
    assert quota.holds and quota.lhs == 20 and quota.rhs == 18
    h4 = ArrangementData(60, {2: 450, 3: 200, 5: 72}, {4: 600, 6: 660, 15: 60},
                         (1320, 8520, 14400, 7200))
    quota = check_heavy_line_quota(h4)
    assert quota.holds and quota.lhs == 400 + 864 == 1264
    assert check_cube_growth_conjecture(60, 7200).holds
    assert check_cube_growth_conjecture(4, 8).tight


def test_vertex_sum_identity_examples():
    a4 = ArrangementData(10, {2: 15, 3: 10}, {4: 10, 6: 5}, (15, 75, 120, 60))
    res = check_vertex_sum_identity(a4)
    assert res.holds and res.lhs == 70 and res.rhs == 70
    a28 = ArrangementData(28, {2: 90, 3: 76, 5: 6},
                          {4: 100, 6: 58, 7: 15, 10: 12, 15: 1},
                          (186, 1146, 1920, 960))
    res = check_vertex_sum_identity(a28)
    assert res.holds and res.lhs == 988


def test_edge_supply_examples():
    a4 = ArrangementData(10, {2: 15, 3: 10}, {4: 10, 6: 5}, (15, 75, 120, 60))
    res = check_edge_supply(a4)
    assert res.holds and res.lhs == 70 and res.rhs == Fraction(160, 3)
    d4 = ArrangementData(12, {2: 18, 3: 16}, {3: 12, 6: 12}, (24, 120, 192, 96))
    res = check_edge_supply(d4)
    assert res.holds and res.lhs == 108 and res.rhs == 90
    boolean = ArrangementData(4, {2: 6}, {3: 4}, (4, 12, 16, 8))
    res = check_edge_supply(boolean)
    assert res.holds and res.tight and res.lhs == 12


def test_double_line_dominance():
    assert check_double_line_dominance({2: 90, 3: 76, 5: 6}).holds   # 90 > 82
    assert check_double_line_dominance({2: 450, 3: 200, 5: 72}).holds
    assert not check_double_line_dominance({2: 5, 3: 5}).holds       # equality fails


def test_multiplicity_window():
    results = check_multiplicity_window(6, simplicial=True, simply_laced=True,
                                        irreducible=True)
    assert all(r.holds for r in results) and len(results) == 2
    results = check_multiplicity_window(15, simplicial=True, simply_laced=False,
                                        irreducible=True)
    assert len(results) == 1 and results[0].name == "multiplicity_floor"
    results = check_multiplicity_window(9, simplicial=True, simply_laced=True,
                                        irreducible=False)
    assert len(results) == 1 and not results[0].holds  # cap 7 violated


def test_simply_laced_bounds_examples():
    d4 = ArrangementData(12, {2: 18, 3: 16}, {3: 12, 6: 12}, (24, 120, 192, 96))
    results = {r.name: r for r in check_simply_laced_bounds(
        d4, simplicial=True, grunbaum_shephard=True)}
    assert results["sl_double_line_cap"].holds       # 18 <= 22
    assert results["sl_triple_line_floor"].holds     # 16 >= 88/6
    assert results["sl_chamber_floor"].holds
    assert results["sl_size_cap"].holds and results["sl_size_cap_gs"].holds
    row15 = ArrangementData(15, {2: 27, 3: 26}, {4: 24, 6: 6, 7: 9},
                            (39, 219, 360, 180))
    results = {r.name: r for r in check_simply_laced_bounds(
        row15, simplicial=True, grunbaum_shephard=True)}
    assert results["sl_size_cap_gs"].holds and results["sl_size_cap_gs"].tight
    assert results["sl_chamber_floor"].holds and results["sl_chamber_floor"].tight


def test_positional_form():
    assert positional({2: 81, 3: 70, 5: 6}, 2) == (81, 70, 0, 6)
    assert positional({4: 10, 6: 5}, 3) == (0, 10, 0, 5)
    assert positional({}, 3) == ()


def test_pair_count_on_all_rows():
    for row in catalogue_rows():
        assert check_pair_count(row.data()).holds


def test_truncated_h_warning_path():
    # a line weight at or above the multiplicity forces the recorded note
    data = ArrangementData(7, {2: 9, 3: 2, 4: 1}, {3: 4, 4: 4}, (9, 30, 42, 21))
    assert data.m == 4
    assert data.truncated_h() == 13 != data.h_total == 16
    assert real_roots_test(data.n, data.h_total, data.f[3]).real_rooted
    outcomes = {o.name: o for o in run_data_checks(data, simplicial=True,
                                                   irreducible=False)}
    assert "differs" in outcomes["vertex_sum_cap"].note
