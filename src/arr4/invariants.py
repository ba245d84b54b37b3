"""Characteristic polynomial, f-vector, real-rootedness test, bound checkers.

Two independent routes to the characteristic polynomial are kept permanently:
an explicit Moebius recursion over the intersection lattice, and the closed
formula in n, h and f3.  The real-rootedness verdict is computed both from
three integer relations (with exact floor/ceil handling of square roots via
integer-sqrt bracketing) and from the discriminant of the cubic factor; the
two verdicts are asserted to agree on every evaluation.

The vertices' share of the Moebius recursion and the whole f-vector are
sums of the per-vertex weights and line tallies that the vertex pass takes
(`Arrangement.vertex_weights`, `Arrangement.vertex_line_tallies`), in O(V)
and with no vertex flat built; f2 is Zaslavsky's chamber count
of each restriction summed over the hyperplanes, so in `analyze` the Euler
relation holds by construction.  The independent route to f2 builds every
restriction and counts its points from the restricted normals' own pair
geometry (`Rank3Arrangement.projective_chamber_count`, summed by
`Arrangement.restriction_counts`, which counts each distinct set of
restricted normals once); it runs in `catalogue verify` and in the tests.

Every checker accepts plain combinatorial data (n, h-vector, t-vector,
f-vector), so catalogue rows without known normal vectors can be verified.
Each check yields one `CheckResult` (name, holds, lhs, rhs, tight, note),
the same record from checker to JSON; its `status` ("pass", "fail" or
"skip") is derived from `holds`, which is None for a skipped check.
`run_data_checks` runs every checker and marks a group skipped, with the
reason in `note`, when its hypothesis fails (real-rootedness, or
simpliciality, which takes precedence).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt
from typing import TYPE_CHECKING, Mapping, NamedTuple

if TYPE_CHECKING:
    from .arrangement import Arrangement


class NegativeRadicand(ValueError):
    """The square-root argument n^2+n-2-3h is negative (h too large)."""


# -- exact floor/ceil of (a +- sqrt(s)) / d ------------------------------------


def floor_add_sqrt(a: int, s: int, d: int) -> int:
    """floor((a + sqrt(s)) / d) for integers a, s >= 0, d > 0, exactly.

    For integer k, k <= (a + sqrt(s))/d would need an integer in the interval
    (a + isqrt(s), a + sqrt(s)], which is empty, so the integer square root
    already decides the floor.
    """
    if s < 0:
        raise NegativeRadicand(s)
    return (a + isqrt(s)) // d


def ceil_sub_sqrt(a: int, s: int, d: int) -> int:
    """ceil((a - sqrt(s)) / d) for integers a, s >= 0, d > 0, exactly."""
    if s < 0:
        raise NegativeRadicand(s)
    return -((isqrt(s) - a) // d)


def _chamber_window(n: int, three_h: int) -> tuple[int, int] | None:
    """(a, s) of the real-rootedness window on f3 at h = three_h / 3.

    The characteristic polynomial splits exactly when h is at most
    (n^2 + n - 2)/3 and (a - sqrt(s))/27 <= f3 <= (a + sqrt(s))/27.  None
    when the radicand n^2 + n - 2 - 3h is negative: no f3 qualifies.
    """
    radicand = n * n + n - 2 - three_h
    if radicand < 0:
        return None
    a = (3 * n + 6) * three_h + 20 + 12 * n - 2 * n**3 - 3 * n * n
    return a, 4 * radicand**3


# -- characteristic polynomial ---------------------------------------------------


class ReducedCubic(NamedTuple):
    """The cubic factor t^3 + p t^2 + q t + r of the characteristic polynomial."""

    p: int
    q: int
    r: int

    def discriminant(self) -> int:
        p, q, r = self.p, self.q, self.r
        return 18 * p * q * r - 4 * p**3 * r + p * p * q * q - 4 * q**3 - 27 * r * r

    def coefficients(self) -> tuple[int, int, int, int]:
        return (1, self.p, self.q, self.r)


class CharPoly(NamedTuple):
    """Monic integer quartic, stored by descending coefficients."""

    coefficients: tuple[int, int, int, int, int]

    def __call__(self, t: int) -> int:
        value = 0
        for c in self.coefficients:
            value = value * t + c
        return value

    def reduced_cubic(self) -> ReducedCubic:
        """Divide by (t - 1); the remainder must vanish."""
        c4, c3, c2, c1, c0 = self.coefficients
        p = c3 + c4
        q = c2 + p
        r = c1 + q
        if c0 + r != 0:
            raise ValueError("1 is not a root, cannot split off (t - 1)")
        return ReducedCubic(p, q, r)

    def integer_roots(self) -> tuple[int, ...]:
        """All integer roots with multiplicity, found by divisor trial.

        The zero roots come off first; every other integer root divides the
        remaining constant c0.  Its divisors, listed by one loop up to
        isqrt(|c0|), are tried ascending with both signs, each divided out by
        synthetic division for as long as it is a root.
        """
        coeffs = list(self.coefficients)
        roots = []
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
            roots.append(0)
        constant = abs(coeffs[-1])
        small = [d for d in range(1, isqrt(constant) + 1) if constant % d == 0]
        divisors = sorted({*small, *(constant // d for d in small)})
        for cand in (r for d in divisors for r in (-d, d)):
            while len(coeffs) > 1:
                out = [coeffs[0]]  # synthetic division by (t - cand)
                for c in coeffs[1:]:
                    out.append(c + out[-1] * cand)
                if out.pop():
                    break
                coeffs = out
                roots.append(cand)
        return tuple(sorted(roots))


def char_poly_formula(n: int, h: int, f3: int) -> CharPoly:
    """Closed form (t-1)(t^3 + (1-n)t^2 + (h+1-n)t + (h+1-f3)), expanded."""
    if n < 1 or f3 < 1:
        raise ValueError("need n >= 1 and f3 >= 1")
    return CharPoly((1, -n, h, n - f3, f3 - 1 - h))


def char_poly_moebius(arrangement: Arrangement) -> CharPoly:
    """Characteristic polynomial by Moebius recursion over all flats.

    c2 sums mu over the lines, |L| - 1 each.  c1 sums mu over the
    vertices, mu(v) = -(1 - w_v + sum over the lines L through v of
    (|L| - 1)), read off the vertex pass's totals alone: c1 = sum of the
    line counts - sum of the line weight sums + sum of the weights - V
    (`Arrangement.vertex_line_tallies`, `Arrangement.vertex_weights`).
    Cached on the arrangement, so a report and its `f_vector` share one
    recursion.
    """
    chi = arrangement._cache.get("moebius")
    if chi is None:
        counts, sums = arrangement.vertex_line_tallies()
        weights = arrangement.vertex_weights()
        c2 = sum(flat.weight - 1 for flat in arrangement.lines())
        c1 = sum(counts) - sum(sums) + sum(weights) - len(weights)
        c0 = -(1 - arrangement.n + c2 + c1)
        chi = arrangement._cache["moebius"] = CharPoly((1, -arrangement.n, c2, c1, c0))
    return chi


def f_vector(arrangement: Arrangement) -> tuple[int, int, int, int]:
    """Cell counts of the induced decomposition of projective 3-space.

    f0 = vertices; f1 counts the (line, vertex) incidences (a projective
    line with k vertices carries k arcs); f2 sums the projective
    chamber counts 1 + sum_p (w_p - 1) of the restrictions (Zaslavsky), whose
    points are the vertices in the hyperplane and whose point weights are
    the lines through them: f2 = n + sum_v (sum_{L through v} |L| - w_v);
    f3 comes from the characteristic polynomial at -1.  Every term is read
    off the weights and tallies of the vertex pass, which makes no vertex
    key or flat, so the Euler relation holds by construction; the
    restriction route to f2 (`Arrangement.restriction_counts`) is compared
    with this one in `catalogue.verify_row` and the tests.
    """
    line_counts, line_weights = arrangement.vertex_line_tallies()
    f0 = len(line_counts)
    f1 = sum(line_counts)
    f2 = arrangement.n + sum(line_weights) - sum(arrangement.vertex_weights())
    chi = char_poly_moebius(arrangement)
    value = chi(-1)  # 2 (n - c1) by the Moebius recursion's c0, so even
    if value <= 0:
        raise AssertionError("chi(-1) must be positive")
    return (f0, f1, f2, value // 2)


# -- combinatorial data records ---------------------------------------------------


class ArrangementData(NamedTuple):
    """Bare combinatorial record: size, h-vector, t-vector, f-vector."""

    n: int
    h: Mapping[int, int]
    t: Mapping[int, int]
    f: tuple[int, int, int, int]

    @classmethod
    def from_arrangement(cls, arrangement: Arrangement) -> "ArrangementData":
        return cls(
            n=arrangement.n,
            h=arrangement.h_vector(),
            t=arrangement.t_vector(),
            f=f_vector(arrangement),
        )

    @property
    def h_total(self) -> int:
        """The weighted line count sum_i (i-1) h_i."""
        return sum((i - 1) * c for i, c in self.h.items())

    @property
    def g1(self) -> int:
        return sum(self.h.values())

    @property
    def m(self) -> int:
        return max(self.t)

    @property
    def weighted_vertex_sum(self) -> int:
        return sum(i * c for i, c in self.t.items())

    @property
    def simply_laced(self) -> bool:
        return all(i <= 3 for i, c in self.h.items() if c)

    def truncated_h(self) -> int:
        """The variant of h summed only over line weights below m."""
        return sum((i - 1) * c for i, c in self.h.items() if i <= self.m - 1)


class CheckResult(NamedTuple):
    """One named exact comparison; `holds` is None when it was skipped.

    The constructors `at_most`, `at_least` and `equal` state the relation
    and set tight = (lhs == rhs); only the Euler relation, the strict
    double-line dominance and the surd floor of the simply laced suite keep
    a tightness rule of their own.
    """

    name: str
    holds: bool | None
    lhs: object = None
    rhs: object = None
    tight: bool = False
    note: str = ""

    @classmethod
    def at_most(cls, name: str, lhs, rhs) -> "CheckResult":
        return cls(name, lhs <= rhs, lhs, rhs, lhs == rhs)

    @classmethod
    def at_least(cls, name: str, lhs, rhs) -> "CheckResult":
        return cls(name, lhs >= rhs, lhs, rhs, lhs == rhs)

    @classmethod
    def equal(cls, name: str, lhs, rhs) -> "CheckResult":
        return cls(name, lhs == rhs, lhs, rhs, lhs == rhs)

    @property
    def status(self) -> str:
        if self.holds is None:
            return "skip"
        return "pass" if self.holds else "fail"

    def __str__(self):
        if self.holds is None:
            return f"{self.name}: skipped ({self.note})"
        status = "holds" if self.holds else "FAILS"
        extra = ", tight" if self.tight else ""
        return f"{self.name}: {status} (lhs={self.lhs}, rhs={self.rhs}{extra})"


def _window_checks(
    cap: str, floor: str, value: int, n: int, three_h: int, shift: int = 0
) -> list[CheckResult]:
    """Cap and floor of the chamber window at h = three_h / 3, shifted by
    `shift`, on `value`; both fail, with no rhs, when the window is empty."""
    window = _chamber_window(n, three_h)
    if window is None:
        return [CheckResult(cap, False, value), CheckResult(floor, False, value)]
    a, s = window
    return [
        CheckResult.at_most(cap, value, floor_add_sqrt(a, s, 27) + shift),
        CheckResult.at_least(floor, value, ceil_sub_sqrt(a, s, 27) + shift),
    ]


def _cube_bound(n: int) -> Fraction:
    """(n + 2)^3 / 27, the proven chamber cap in rank 4."""
    return Fraction((n + 2) ** 3, 27)


class RealRootReport(NamedTuple):
    """Verdict of the splitting test plus the three supporting relations."""

    real_rooted: bool
    discriminant: int
    line_weight_cap: CheckResult
    chamber_count_cap: CheckResult
    chamber_count_floor: CheckResult

    @property
    def checks(self):
        return (self.line_weight_cap, self.chamber_count_cap, self.chamber_count_floor)


def real_roots_test(n: int, h: int, f3: int) -> RealRootReport:
    """Exact test whether the characteristic polynomial has only real roots.

    Evaluates the three integer relations bounding h and f3 and, separately,
    the discriminant of the cubic factor; the two verdicts must agree, and
    that agreement is asserted on every call.
    """
    cubic = char_poly_formula(n, h, f3).reduced_cubic()
    disc = cubic.discriminant()

    r1 = CheckResult.at_most("line_weight_cap", h, (n * n + n - 2) // 3)
    r2, r3 = _window_checks("chamber_count_cap", "chamber_count_floor", f3, n, 3 * h)
    verdict = r1.holds and r2.holds and r3.holds
    if verdict != (disc >= 0):
        raise AssertionError(
            f"relation verdict {verdict} disagrees with discriminant {disc} "
            f"for n={n}, h={h}, f3={f3}"
        )
    return RealRootReport(verdict, disc, r1, r2, r3)


# -- individual bound checkers ---------------------------------------------------


def check_pair_count(data: ArrangementData) -> CheckResult:
    """Every unordered hyperplane pair meets in exactly one line."""
    lhs = sum(comb(i, 2) * c for i, c in data.h.items())
    return CheckResult.equal("pair_count", lhs, comb(data.n, 2))


def check_euler(data: ArrangementData) -> CheckResult:
    f0, f1, f2, f3 = data.f
    lhs = f0 - f1 + f2 - f3
    return CheckResult("euler_characteristic", lhs == 0, lhs, 0, tight=True)


def check_facet_pairing(data: ArrangementData) -> CheckResult:
    """f2 = 2 f3: every chamber simplicial by facet counting."""
    return CheckResult.equal("facet_pairing", data.f[2], 2 * data.f[3])


def check_chamber_cube_cap(n: int, f3: int) -> CheckResult:
    return CheckResult.at_most("chamber_cube_cap", f3, _cube_bound(n))


def check_heavy_line_quota(data: ArrangementData) -> CheckResult:
    """Lower bound on the weighted count of lines of weight at least three."""
    lhs = sum((i - 1) * (i - 2) * c for i, c in data.h.items() if i >= 3)
    rhs = Fraction((data.n - 4) * (data.n - 1), 3)
    return CheckResult.at_least("heavy_line_quota", lhs, rhs)


def check_cube_growth_conjecture(n: int, f3: int) -> CheckResult:
    """Conjectured chamber bound (1 + (n-1)/3)^3; for rank 4 this is the
    proven cube bound, since (1 + (n-1)/3)^3 = ((n+2)/3)^3 = (n+2)^3/27."""
    return CheckResult.at_most("cube_growth_conjecture", f3, _cube_bound(n))


def check_vertex_sum_identity(data: ArrangementData) -> CheckResult:
    """For simplicial arrangements, f3 + n equals the weighted vertex sum."""
    return CheckResult.equal(
        "vertex_sum_identity", data.f[3] + data.n, data.weighted_vertex_sum
    )


def check_vertex_sum_bounds(data: ArrangementData) -> list[CheckResult]:
    """Simplicial rephrasing of the chamber bounds via the weighted vertex sum.

    The vertex sum is f3 + n, so its window is the chamber window shifted by
    n.  Uses the truncated h (line weights below m); when some h_i with
    i >= m is positive the truncation differs from the full h and both are
    recorded.
    """
    n = data.n
    sit = data.weighted_vertex_sum
    out = _window_checks(
        "vertex_sum_cap", "vertex_sum_floor", sit, n, 3 * data.truncated_h(), shift=n
    )
    out.append(CheckResult.at_most("vertex_sum_cube_cap", sit, _cube_bound(n) + n))
    return out


def check_edge_supply(data: ArrangementData) -> CheckResult:
    """Each line of weight i carries at least (n-i)/(m-i) edges; summed over
    lines this bounds the weighted vertex sum from below."""
    n, m = data.n, data.m
    rhs = n + sum(
        Fraction(i * (n - i), 3 * (m - i)) * data.h.get(i, 0) for i in range(2, m)
    )
    return CheckResult.at_least("edge_supply", data.weighted_vertex_sum, rhs)


def check_double_line_dominance(h: Mapping[int, int]) -> CheckResult:
    """Strictly more double lines than all heavier lines combined."""
    lhs = h.get(2, 0)
    rhs = sum(c for i, c in h.items() if i >= 3)
    return CheckResult("double_line_dominance", lhs > rhs, lhs, rhs, tight=lhs == rhs + 1)


def check_multiplicity_window(
    m: int, *, simplicial: bool, simply_laced: bool, irreducible: bool
) -> list[CheckResult]:
    out = []
    if simplicial and simply_laced:
        out.append(CheckResult.at_most("multiplicity_cap", m, 7))
    if simplicial and irreducible:
        out.append(CheckResult.at_least("multiplicity_floor", m, 6))
    return out


def check_simply_laced_bounds(
    data: ArrangementData, *, simplicial: bool, grunbaum_shephard: bool
) -> list[CheckResult]:
    """Bound suite for simply laced arrangements with real-rooted polynomial."""
    n = data.n
    h2 = data.h.get(2, 0)
    f3 = data.f[3]
    out = [
        CheckResult.at_most("sl_double_line_cap", h2, 2 * n - 2),
        CheckResult.at_least(
            "sl_triple_line_floor", data.h.get(3, 0), Fraction((n - 4) * (n - 1), 6)
        ),
        CheckResult.at_most("sl_chamber_cap", f3, _cube_bound(n)),
    ]
    # the chamber floor at 3h = n^2 - n + h2, radicand 2n - 2 - h2
    window = _chamber_window(n, n * n - n + h2)
    if window is not None:
        a, s = window
        holds = f3 >= ceil_sub_sqrt(a, s, 27)
        tight = (a - 27 * f3) ** 2 == s and a - 27 * f3 >= 0
        rhs = f"({a} - sqrt({s}))/27"
    else:
        holds, rhs, tight = False, None, False
    out.append(CheckResult("sl_chamber_floor", holds, f3, rhs, tight))
    if simplicial:
        out.append(CheckResult.at_most("sl_size_cap", n, 119))
    if grunbaum_shephard:
        out.append(CheckResult.at_most("sl_size_cap_gs", n, 15))
    return out


def _skipped(reason: str, results: list[CheckResult]) -> list[CheckResult]:
    """The same checks, marked skipped for `reason`."""
    return [CheckResult(result.name, None, note=reason) for result in results]


def run_data_checks(
    data: ArrangementData,
    *,
    simplicial: bool = True,
    irreducible: bool = True,
) -> list[CheckResult]:
    """Run every data-only checker against one combinatorial record.

    Every checker runs.  A group whose hypothesis fails is reported skipped,
    with the reason: the cube and quota bounds and the vertex-sum window
    need a real-rooted polynomial, and the five simplicial identities need
    a simplicial arrangement, which is the reason given when both fail.  The
    multiplicity window and the simply laced suite leave out the checks
    whose hypotheses fail.
    """
    report = real_roots_test(data.n, data.h_total, data.f[3])
    bounds = [
        check_chamber_cube_cap(data.n, data.f[3]),
        check_heavy_line_quota(data),
        check_cube_growth_conjecture(data.n, data.f[3]),
    ]
    window = check_vertex_sum_bounds(data)
    if data.truncated_h() != data.h_total:
        note = f"truncated h {data.truncated_h()} differs from full h {data.h_total}"
        window = [result._replace(note=note) for result in window]
    if not report.real_rooted:
        reason = "polynomial is not real-rooted"
        bounds, window = _skipped(reason, bounds), _skipped(reason, window)
    identities = [check_vertex_sum_identity(data), *window, check_edge_supply(data)]
    if not simplicial:
        identities = _skipped("not simplicial", identities)
    dominance = check_double_line_dominance(data.h)
    out = [
        check_pair_count(data),
        check_euler(data),
        check_facet_pairing(data),
        *report.checks,
        CheckResult.at_least("cubic_discriminant", report.discriminant, 0),
        *bounds,
        dominance,
        *identities,
        *check_multiplicity_window(
            data.m,
            simplicial=simplicial,
            simply_laced=data.simply_laced,
            irreducible=irreducible,
        ),
    ]
    if data.simply_laced and report.real_rooted:
        out += check_simply_laced_bounds(
            data, simplicial=simplicial, grunbaum_shephard=dominance.holds
        )
    return out
