"""Exact chamber enumeration, wall detection, Coxeter diagrams.

Chambers are antipodal pairs of open full-dimensional cones, identified by a
sign vector over the hyperplanes with the first sign normalized to +.  The
enumerator walks the chamber graph breadth-first, flipping one wall at a
time.  Walls are found through the extreme rays of the closed cone: every
extreme ray of a chamber spans a rank-3 flat of the arrangement, so scanning
the precomputed vertex (or, in rank 3, point) list against the sign vector
yields the corner rays, and a hyperplane bounds the chamber exactly when its
tight corners span a hyperplane of the ambient space.

The per-arrangement context holds every corner in exact integer forms, built
once: a rank form (primitive ints for rational corners, (a, b) integer pairs
for Q(tau) ones) on which the wall test runs the division-free
`linalg.int_rank`, and a witness form scaled by one common denominator, so a
chamber's interior witness (the sum of its oriented corners) is a sum of
plain integers converted to field scalars once per chamber.

The `walls` operation decides each candidate independently instead, by
eliminating onto the candidate hyperplane and running an exact strict
Fourier-Motzkin feasibility test; the two routes are cross-checked in the
test suite.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .linalg import (
    canonicalize_ray,
    dot,
    int_rank,
    kernel_basis,
    pair_dot,
    pair_sign,
    to_int_pairs,
)
from .scalars import Field, QuadScalar, sign


class GenericPointNotFound(RuntimeError):
    """No candidate seed point avoided all hyperplanes (indicates a bug)."""


class EmptyChamber(ValueError):
    """The given sign vector carves out an empty cone."""


class ChamberLimitReached(RuntimeError):
    """Enumeration was aborted after the requested number of chambers."""

    def __init__(self, count):
        super().__init__(f"stopped after {count} chambers")
        self.count = count


# -- strict homogeneous feasibility by Fourier-Motzkin elimination ---------------


def feasible_strict(rows) -> bool:
    """Exact feasibility of {x : r . x > 0 for every row r}.

    Eliminates variables left to right; rows are deduplicated up to positive
    scaling after every round.  An all-zero combination certifies 0 > 0 and
    therefore infeasibility.
    """
    work = []
    seen = set()
    for row in rows:
        cr = canonicalize_ray(row)
        if cr is None:
            return False
        if cr not in seen:
            seen.add(cr)
            work.append(cr)
    while work and len(work[0]) > 0:
        pos, neg, passed = [], [], []
        for row in work:
            s = sign(row[0])
            if s > 0:
                pos.append(row)
            elif s < 0:
                neg.append(row)
            else:
                passed.append(row[1:])
        combined = passed
        for p in pos:
            p0, ptail = p[0], p[1:]
            for q in neg:
                q0, qtail = q[0], q[1:]
                combined.append(
                    tuple(p0 * qj - q0 * pj for pj, qj in zip(ptail, qtail))
                )
        work = []
        seen = set()
        for row in combined:
            if len(row) == 0:
                return False
            cr = canonicalize_ray(row)
            if cr is None:
                return False
            if cr not in seen:
                seen.add(cr)
                work.append(cr)
    return not work


# -- per-arrangement chamber context ---------------------------------------------


class _Context:
    """Sign masks and exact integer forms of every corner flat of one arrangement.

    Each corner is (rank form, witness form, negated witness form, zero mask,
    positive mask, negative mask).  The rank form is the corner point as
    primitive ints (rational) or integer pairs (Q(tau)); a positive rescaling
    keeps its rank.  The witness form is the point times one common
    denominator of the whole arrangement, flattened to ints (a0, b0, a1, b1,
    ...) for Q(tau), so chamber witnesses are plain integer sums.
    """

    __slots__ = ("n", "dim", "full", "corners", "denominator")

    def __init__(self, arr):
        self.n = arr.n
        self.dim = arr.dim
        self.full = (1 << arr.n) - 1
        flats = arr.corner_flats()
        quadratic = arr.field is Field.QUADRATIC_TAU
        if quadratic:
            normals = [to_int_pairs(v) for v in arr.normals]
            points = [to_int_pairs(flat.point) for flat in flats]
            scale = lcm(
                *(x.denominator for flat in flats for q in flat.point for x in (q.a, q.b))
            )
            witnesses = [
                tuple(int(x * scale) for q in flat.point for x in (q.a, q.b))
                for flat in flats
            ]
            self.denominator = scale
        else:
            normals = arr.normals
            points = witnesses = [flat.point for flat in flats]
            self.denominator = None
        corners = []
        for flat, point, wit in zip(flats, points, witnesses):
            zmask = flat.mask
            pmask = 0
            nmask = 0
            for i, vi in enumerate(normals):
                if zmask >> i & 1:
                    continue
                s = pair_sign(pair_dot(vi, point)) if quadratic else sign(dot(vi, point))
                if s > 0:
                    pmask |= 1 << i
                elif s < 0:
                    nmask |= 1 << i
                else:
                    raise AssertionError("corner flat membership is incomplete")
            corners.append((point, wit, tuple(-x for x in wit), zmask, pmask, nmask))
        self.corners = corners


def _context(arr) -> _Context:
    ctx = arr._cache.get("chamber_ctx")
    if ctx is None:
        ctx = _Context(arr)
        arr._cache["chamber_ctx"] = ctx
    return ctx


def _canonical_mask(mask: int, full: int) -> int:
    return mask ^ full if mask & 1 else mask


def _compatible_corners(ctx: _Context, mask: int):
    """Corner rays of the closed cone of the chamber.

    Each is (rank form, zero mask, witness form oriented into the cone).
    """
    notm = ctx.full ^ mask
    out = [
        (point, zmask, wit)
        for point, wit, _, zmask, pmask, nmask in ctx.corners
        if not (pmask & mask or nmask & notm)
    ]
    out += [
        (point, zmask, neg)
        for point, _, neg, zmask, pmask, nmask in ctx.corners
        if not (nmask & mask or pmask & notm)
    ]
    return out


def _walls_from_corners(ctx: _Context, corners):
    need = ctx.dim - 1
    out = []
    for h in range(ctx.n):
        tight = [point for point, zmask, _ in corners if zmask >> h & 1]
        if len(tight) >= need:
            if int_rank(tight) != need:
                raise AssertionError("tight corner rays of a facet must span it")
            out.append(h)
    return tuple(out)


def _witness(ctx: _Context, corners):
    total = [sum(column) for column in zip(*(wit for _, _, wit in corners))]
    scale = ctx.denominator
    if scale is None:
        return tuple(total)
    return tuple(
        QuadScalar(Fraction(a, scale), Fraction(b, scale))
        for a, b in zip(total[::2], total[1::2])
    )


def _primes(count: int):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return found


def generic_point(arr):
    """Deterministic point off every hyperplane: first good moment-curve point.

    Candidates are (1, p, p^2, ..., p^(dim-1)) for increasing primes p; each
    hyperplane can reject at most dim-1 of them.
    """
    for p in _primes(3 * arr.n + 8):
        cand = tuple(p**k for k in range(arr.dim))
        signs = [sign(dot(v, cand)) for v in arr.normals]
        if all(signs):
            return cand, signs
    raise GenericPointNotFound("moment-curve candidates exhausted")


@dataclass(frozen=True)
class Chamber:
    """A projective chamber: canonical sign vector plus derived geometry."""

    signs: tuple
    walls: tuple
    witness: tuple
    mask: int = field(repr=False, default=0)


def _bfs_chambers(arr, limit=None):
    ctx = _context(arr)
    _, seed_signs = generic_point(arr)
    mask = 0
    for i, s in enumerate(seed_signs):
        if s < 0:
            mask |= 1 << i
    mask = _canonical_mask(mask, ctx.full)
    visited = {mask}
    queue = deque([mask])
    count = 0
    while queue:
        m = queue.popleft()
        corners = _compatible_corners(ctx, m)
        if not corners:
            raise AssertionError("enumerated chamber has no extreme rays")
        wl = _walls_from_corners(ctx, corners)
        signs = tuple(-1 if m >> i & 1 else 1 for i in range(ctx.n))
        count += 1
        yield Chamber(signs, wl, _witness(ctx, corners), m)
        for h in wl:
            nm = _canonical_mask(m ^ (1 << h), ctx.full)
            if nm not in visited:
                visited.add(nm)
                queue.append(nm)
        if limit is not None and count >= limit and queue:
            raise ChamberLimitReached(count)


def iter_chambers(arr):
    """Yield chambers lazily (canonical order only when served from cache).

    A fully consumed iteration fills the cache; an early exit leaves it
    empty, so a short-circuiting predicate never pays for chambers it did
    not visit.
    """
    cached = arr._cache.get("chambers")
    if cached is not None:
        yield from cached
        return
    collected = []
    for chamber in _bfs_chambers(arr):
        collected.append(chamber)
        yield chamber
    collected.sort(key=lambda c: c.mask)
    arr._cache["chambers"] = tuple(collected)


def enumerate_chambers(arr, limit=None):
    """Complete duplicate-free chamber list in canonical (sign-mask) order."""
    cached = arr._cache.get("chambers")
    if cached is None:
        chambers = sorted(_bfs_chambers(arr, limit=limit), key=lambda c: c.mask)
        cached = tuple(chambers)
        arr._cache["chambers"] = cached
    elif limit is not None and len(cached) > limit:
        raise ChamberLimitReached(limit)
    return list(cached)


def chamber_face_counts(arr, chamber):
    """(corner count, edge count) of the closed cone of one chamber."""
    ctx = _context(arr)
    corners = _compatible_corners(ctx, chamber.mask)
    edges = 0
    for flat in arr.lines():
        tight = [point for point, zmask, _ in corners if zmask & flat.mask == flat.mask]
        if len(tight) >= 2:
            if int_rank(tight) != 2:
                raise AssertionError("tight corner rays of an edge must span it")
            edges += 1
    return len(corners), edges


# -- the independent Fourier-Motzkin wall test -----------------------------------


def chamber_feasible(arr, signs) -> bool:
    """Whether the open cone cut out by the sign vector is nonempty."""
    rows = [
        tuple(s * x for x in vec) for s, vec in zip(signs, arr.normals)
    ]
    return feasible_strict(rows)


def walls(arr, signs):
    """Bounding hyperplanes of the chamber with the given sign vector.

    A hyperplane H bounds the chamber iff the system keeping every other
    constraint strict and pinning x onto H stays solvable; each candidate is
    decided by eliminating onto H (three coordinates) and testing strict
    feasibility with Fourier-Motzkin elimination.
    """
    signs = tuple(signs)
    if len(signs) != arr.n or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a +-1 vector over the hyperplanes")
    if not chamber_feasible(arr, signs):
        raise EmptyChamber("sign vector cuts out an empty cone")
    out = []
    for h in range(arr.n):
        basis = kernel_basis([arr.normals[h]])
        reduced = []
        for i in range(arr.n):
            if i == h:
                continue
            vi = arr.normals[i]
            reduced.append(tuple(signs[i] * dot(vi, b) for b in basis))
        if feasible_strict(reduced):
            out.append(h)
    return tuple(out)


# -- Coxeter diagrams and the derived predicates -----------------------------------


def _pair_weights(arr):
    pw = arr._cache.get("pair_weights")
    if pw is None:
        pw = {}
        for flat in arr.lines():
            mem = flat.members
            for a in range(len(mem)):
                for b in range(a + 1, len(mem)):
                    pw[(mem[a], mem[b])] = flat.weight
        arr._cache["pair_weights"] = pw
    return pw


@dataclass(frozen=True, eq=True)
class CoxeterDiagram:
    """Graph on the walls of a chamber; edges carry line weights >= 3."""

    walls: tuple
    edges: tuple  # sorted tuple of (wall_i, wall_j, weight) with i < j

    def edge_weights(self):
        return tuple(w for _, _, w in self.edges)

    def degrees(self):
        deg = {w: 0 for w in self.walls}
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(sorted(deg.values()))

    def is_connected(self) -> bool:
        if len(self.walls) <= 1:
            return True
        adjacency = {w: [] for w in self.walls}
        for i, j, _ in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        seen = {self.walls[0]}
        stack = [self.walls[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.walls)

    def canonical_key(self) -> str:
        """Isomorphism-invariant label, exact for up to six walls."""
        k = len(self.walls)
        index = {w: i for i, w in enumerate(self.walls)}
        weight = [[0] * k for _ in range(k)]
        for i, j, w in self.edges:
            a, b = index[i], index[j]
            weight[a][b] = weight[b][a] = w
        if k > 6:
            return f"walls={k};weights={sorted(self.edge_weights())}"
        from itertools import permutations

        best = None
        for perm in permutations(range(k)):
            key = tuple(
                weight[perm[a]][perm[b]] for a in range(k) for b in range(a + 1, k)
            )
            if best is None or key < best:
                best = key
        return f"walls={k};graph={','.join(map(str, best))}"


def coxeter_diagram(arr, chamber: Chamber) -> CoxeterDiagram:
    pw = _pair_weights(arr)
    edges = []
    w = chamber.walls
    for a in range(len(w)):
        for b in range(a + 1, len(w)):
            weight = pw[(w[a], w[b])]
            if weight >= 3:
                edges.append((w[a], w[b], weight))
    return CoxeterDiagram(w, tuple(edges))


def is_simplicial(arr) -> bool:
    """Every chamber bounded by exactly dim walls (4 in P^3, 3 in P^2)."""
    return all(len(ch.walls) == arr.dim for ch in iter_chambers(arr))


def simply_laced_h_criterion(arr) -> bool:
    """Counting criterion: no line lies on four or more hyperplanes."""
    return all(weight <= 3 for weight in arr.h_vector())


def is_simply_laced(arr) -> bool:
    """Diagram route: no chamber diagram carries an edge of weight >= 4.

    Cross-checked against the h-vector criterion on simplicial arrangements,
    the only ones where the two must agree; a disagreement is reported as a
    diagnostic (the diagram verdict is returned either way).
    """
    pw = _pair_weights(arr)
    verdict = True
    for ch in iter_chambers(arr):
        w = ch.walls
        heavy = any(
            pw[(w[a], w[b])] >= 4
            for a in range(len(w))
            for b in range(a + 1, len(w))
        )
        if heavy:
            verdict = False
            break
    expected = simply_laced_h_criterion(arr)
    if verdict != expected and is_simplicial(arr):
        warnings.warn(
            f"diagram route says simply_laced={verdict} but the h-vector "
            f"criterion says {expected}",
            stacklevel=2,
        )
    return verdict


def is_irreducible_diagrams(arr) -> bool:
    """Diagram route: every chamber's Coxeter diagram is connected."""
    for ch in iter_chambers(arr):
        if not coxeter_diagram(arr, ch).is_connected():
            return False
    return True
