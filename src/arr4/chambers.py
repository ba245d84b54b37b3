"""Exact chamber enumeration, wall detection, Coxeter diagrams.

Chambers are antipodal pairs of open full-dimensional cones, identified by a
sign vector over the hyperplanes with the first sign normalized to +.  The
enumerator walks the chamber graph breadth-first, flipping one wall at a
time.  Walls are found through the extreme rays of the closed cone: every
extreme ray of a chamber spans a rank-3 flat of the arrangement (in rank 3,
a point), so the corner rays are those corner flats, taken with one of
their two orientations, that no hyperplane puts on the wrong side of the
chamber, and a hyperplane bounds the chamber exactly when its tight corners
span a hyperplane of the ambient space.

The per-arrangement context keeps big-int bitsets over the oriented
corners, built once: bit j is corner j and bit j + C its negation, C the
number of corners.  Each hyperplane i has `P_i`, `N_i` and `Z_i`, the
oriented corners on its positive side, on its negative side and on it, read
off one written-out batch of dots (`KERNELS[field].dots`) per hyperplane.
The corner rays of the chamber with sign mask m (bit i set where the sign is
-1) are then `ALL & ~(OR_{i in m} P_i | OR_{i not in m} N_i)`, n big-int ORs.
A chamber has only a few corners, so its candidate walls are read off the
corners' member masks instead of scanning every hyperplane: three running
ORs over those masks give the hyperplanes on at least dim - 1 corners.
Each candidate h is a wall, and its facet, the corners in `Z_h`, is
certified: the maximal minors (`KERNELS[field].normal`) of the first dim - 1
tight corners' rank forms (primitive ints for rational corners, (a, b)
integer pairs for Q(tau) ones) must be nonzero, and every further tight
corner must be orthogonal to them, which proves rank exactly dim - 1.  The
certificate runs once per distinct facet of a walk, keyed by h and the
unoriented tight corner set in a set local to that walk: the neighbour
across h has the same facet, its corners negated when mask canonicalization
flips the global sign.  The interior witness is the sum of the corner rays'
rank forms, each a positive rescaling of its ray, so it is a sum of plain
integers (summed per component of the pairs over Q(tau)) converted to field
scalars.  No report reads it, so the walk leaves it out: a chamber keeps its
mask and the context, and reads its signs off the mask and computes its
witness on demand.

The `walls` operation decides each candidate independently instead, by
eliminating onto the candidate hyperplane and running an exact strict
Fourier-Motzkin feasibility test.  It runs on integer rows too: the oriented
integer normals restricted to the candidate through their own 2x2 minors
against its normal, never the lattice's line keys, so the two routes share
only the integer normals and are cross-checked in the test suite.  The
seed point's signs are read off the same integer normals; field scalars are
built only for the witness.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .arrangement import _ReadOnly
from .linalg import KERNELS, rank_basis
from .scalars import Field, QuadScalar


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

    Rows are integer forms, as `linalg.KERNELS` takes them: all ints (Q) or
    all (a, b) pairs standing for a + b*tau (Q(tau)).  Eliminates variables
    left to right: a row p with a positive and a row q with a negative
    leading entry combine into p0*q - q0*p, a positive combination without
    that variable.  Rows are deduplicated up to positive scaling (the
    oriented canonical form) every round.  An all-zero row certifies 0 > 0
    and therefore infeasibility.
    """
    work = list(rows)
    pairs = bool(work) and any(isinstance(x, tuple) for x in work[0])
    kernel = KERNELS[Field.QUADRATIC_TAU if pairs else Field.RATIONAL]
    isign, idot, neg, canonical = kernel.sign, kernel.dot, kernel.neg, kernel.canonical
    while work:
        distinct = {}
        for row in work:
            if not any(map(isign, row)):
                return False
            distinct[canonical(row, oriented=True)] = None
        pos, negs, work = [], [], []
        for row in distinct:
            s = isign(row[0])
            if s > 0:
                pos.append(row)
            elif s < 0:
                negs.append(row)
            else:
                work.append(row[1:])
        for p in pos:
            p0, ptail = p[0], p[1:]
            for q in negs:
                q0 = q[0]
                work.append(
                    tuple(idot((p0, q0), (qj, neg(pj))) for pj, qj in zip(ptail, q[1:]))
                )
    return True


def spans_hyperplane(rows, kernel) -> bool:
    """Whether dim - 1 or more rank forms of length dim span exactly a hyperplane.

    The maximal minors (`kernel.normal`) of the first dim - 1 rows must be
    nonzero, so those rows are independent, and every further row must be
    orthogonal to that normal, so it lies in their span: a pass proves rank
    exactly dim - 1.  The tight corners of a facet pass, ordered any way:
    two distinct extreme rays of a pointed 2-cone, or three of a pointed
    3-cone (distinct vertices of a convex polygon), are independent.
    """
    need = len(rows[0]) - 1
    normal = kernel.normal(rows[:need])
    isign = kernel.sign
    extra = rows[need:]
    return any(map(isign, normal)) and not (extra and any(map(isign, kernel.dots(normal, extra))))


# -- per-arrangement chamber context ---------------------------------------------


class _Context:
    """Per-hyperplane bitsets over the oriented corners of one arrangement.

    Bit j stands for corner j of `corner_flats()` and bit j + size for its
    negation.  `pos[i]`, `neg[i]` and `zero[i]` hold the oriented corners on
    the positive side of hyperplane i, on its negative side and on it.
    `members[j]`, for j < 2 * size, is the member mask of the flat of
    oriented corner j (flat j mod size), so oriented corner j is in
    `zero[h]` exactly when bit h of `members[j]` is set.  `forms[j]` is the
    rank form of corner j, its flat's key (primitive ints, or integer pairs
    for Q(tau)), a positive rescaling of its point.  The context holds no
    walk state: the facets already certified belong to one walk of
    `_bfs_chambers`.
    """

    __slots__ = (
        "n", "dim", "kernel", "full", "size", "low", "everything",
        "pos", "neg", "zero", "members", "forms",
    )

    def __init__(self, arr):
        self.n = arr.n
        self.dim = arr.dim
        self.full = (1 << arr.n) - 1
        flats = arr.corner_flats()
        kernel = self.kernel = KERNELS[arr.field]
        normals = arr._integer_normals()
        self.forms = [flat.key for flat in flats]
        self.members = [flat.mask for flat in flats] * 2
        size = self.size = len(flats)
        self.low = (1 << size) - 1
        self.everything = (1 << 2 * size) - 1
        members, isign = self.members, kernel.sign
        pos, neg, zero = [], [], []
        for i, vi in enumerate(normals):
            bit = 1 << i
            plus = minus = on = 0
            for j, s in enumerate(map(isign, kernel.dots(vi, self.forms))):
                if members[j] & bit:
                    on |= 1 << j
                elif s > 0:
                    plus |= 1 << j
                elif s < 0:
                    minus |= 1 << j
                else:
                    raise AssertionError("corner flat membership is incomplete")
            pos.append(plus | minus << size)
            neg.append(minus | plus << size)
            zero.append(on | on << size)
        self.pos, self.neg, self.zero = pos, neg, zero

    def compatible(self, mask: int) -> int:
        """Oriented corner rays of the closed cone of the chamber `mask`."""
        pos, neg = self.pos, self.neg
        against = 0
        for i in range(self.n):
            against |= pos[i] if mask >> i & 1 else neg[i]
        return self.everything & ~against

    def unoriented(self, corners: int) -> int:
        """The corner indices of a set of oriented corners, as bits below size."""
        return corners & self.low | corners >> self.size

    def walls(self, corners: int, certified: set):
        """Hyperplanes whose tight corners among `corners` span a facet.

        The candidates are the hyperplanes on at least dim - 1 of the
        corners, read off the corners' member masks by three running ORs
        (`one`, `two`, `three`: the hyperplanes on at least one, two and
        three corners so far), ascending.  `certified` holds the facets the
        current walk has certified, as (hyperplane, unoriented corner set).
        Each distinct facet is certified by `spans_hyperplane` once: the
        neighbour across it sees the same corner set, up to the global sign
        of mask canonicalization, and finds it certified.
        """
        members, zero, forms, kernel = self.members, self.zero, self.forms, self.kernel
        one = two = three = 0
        rest = corners
        while rest:
            low = rest & -rest
            m = members[low.bit_length() - 1]
            three |= two & m
            two |= one & m
            one |= m
            rest ^= low
        out = []
        for h in _bits(three if self.dim == 4 else two):
            facet = (h, self.unoriented(corners & zero[h]))
            if facet not in certified:
                if not spans_hyperplane([forms[j] for j in _bits(facet[1])], kernel):
                    raise AssertionError("tight corner rays of a facet must span it")
                certified.add(facet)
            out.append(h)
        return tuple(out)

    def witness(self, corners: int):
        """The sum of the oriented corners' rank forms, as field scalars:
        oriented corner j adds forms[j], and j + size subtracts it."""
        plus = [self.forms[j] for j in _bits(corners & self.low)]
        minus = [self.forms[j] for j in _bits(corners >> self.size)]

        def total(entry):
            return sum(map(entry, plus)) - sum(map(entry, minus))

        if isinstance(self.forms[0][0], tuple):  # Q(tau): (a, b) integer pairs
            return tuple(
                QuadScalar(total(lambda u: u[c][0]), total(lambda u: u[c][1]))
                for c in range(self.dim)
            )
        return tuple(total(lambda u: u[c]) for c in range(self.dim))


def _bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _context(arr) -> _Context:
    ctx = arr._cache.get("chamber_ctx")
    if ctx is None:
        ctx = _Context(arr)
        arr._cache["chamber_ctx"] = ctx
    return ctx


def _canonical_mask(mask: int, full: int) -> int:
    return mask ^ full if mask & 1 else mask


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
    hyperplane can reject at most dim-1 of them.  Signs are read off the
    integer normals.
    """
    kernel = KERNELS[arr.field]
    normals = arr._integer_normals()
    for p in _primes(3 * arr.n + 8):
        cand = tuple(p**k for k in range(arr.dim))
        signs = list(map(kernel.sign, kernel.dots(kernel.ints(cand), normals)))
        if all(signs):
            return cand, signs
    raise GenericPointNotFound("moment-curve candidates exhausted")


class Chamber(_ReadOnly):
    """A projective chamber: canonical sign mask plus derived geometry.

    `mask` has bit i set where `signs[i]` is -1.  `signs` is read off the
    mask on every read; `witness`, an interior point, is the sum of the rank
    forms of the chamber's corner rays, computed from the chamber context on
    first access, as no report reads it.  Chambers are read-only; they
    compare and hash by (signs, walls, witness, mask), and the repr leaves
    out the mask.
    """

    __slots__ = ("walls", "mask", "_ctx", "_witness")

    def __init__(self, walls, mask, ctx):
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_ctx", ctx)
        object.__setattr__(self, "_witness", None)

    @property
    def signs(self):
        mask = self.mask
        return tuple(-1 if mask >> i & 1 else 1 for i in range(self._ctx.n))

    @property
    def witness(self):
        if self._witness is None:
            ctx = self._ctx
            object.__setattr__(self, "_witness", ctx.witness(ctx.compatible(self.mask)))
        return self._witness

    def _key(self):
        return (self.signs, self.walls, self.witness, self.mask)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Chamber(signs={self.signs!r}, walls={self.walls!r}, witness={self.witness!r})"


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
    certified = set()
    count = 0
    while queue:
        m = queue.popleft()
        corners = ctx.compatible(m)
        if not corners:
            raise AssertionError("enumerated chamber has no extreme rays")
        wl = ctx.walls(corners, certified)
        count += 1
        yield Chamber(wl, m, ctx)
        for h in wl:
            nm = _canonical_mask(m ^ (1 << h), ctx.full)
            if nm not in visited:
                visited.add(nm)
                queue.append(nm)
        if limit is not None and count >= limit and queue:
            raise ChamberLimitReached(count)


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
    """(corner count, 2-face count) of the closed cone of one chamber.

    In rank 4 the 2-faces are the edges: lines whose tight corners span
    them, checked as rank exactly 2 (`rank_basis`).  In rank 3 they are the
    walls.
    """
    ctx = _context(arr)
    corners = ctx.compatible(chamber.mask)
    if arr.dim == 3:
        return corners.bit_count(), len(chamber.walls)
    zero = ctx.zero
    edges = 0
    for flat in arr.lines():
        tight = corners
        for i in flat.members:
            tight &= zero[i]
        if tight.bit_count() >= 2:
            rows = [ctx.forms[j] for j in _bits(ctx.unoriented(tight))]
            if len(rank_basis(rows, ctx.kernel)) != 2:
                raise AssertionError("tight corner rays of an edge must span it")
            edges += 1
    return corners.bit_count(), edges


# -- the independent Fourier-Motzkin wall test -----------------------------------


def _oriented_normals(arr, signs):
    """The integer normals, each negated where its sign is -1."""
    neg = arr._kernel.neg
    return [u if s > 0 else tuple(map(neg, u)) for s, u in zip(signs, arr._integer_normals())]


def walls(arr, signs):
    """Bounding hyperplanes of the chamber with the given sign vector.

    A hyperplane H bounds the chamber iff the system keeping every other
    constraint strict and pinning x onto H stays solvable; each candidate is
    decided by eliminating onto H and testing strict feasibility with
    Fourier-Motzkin elimination.  With p the pivot (first nonzero entry) of
    the integer normal w of H, the coordinates off p parametrize H, and an
    oriented normal v restricts to the minors v_f*w_p - v_p*w_f, f != p: a
    positive rescaling of v restricted to H.
    """
    signs = tuple(signs)
    if len(signs) != arr.n or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a +-1 vector over the hyperplanes")
    rows = _oriented_normals(arr, signs)
    if not feasible_strict(rows):
        raise EmptyChamber("sign vector cuts out an empty cone")
    kernel = KERNELS[arr.field]
    idot, neg, isign = kernel.dot, kernel.neg, kernel.sign
    out = []
    for h, w in enumerate(arr._integer_normals()):
        p = next(i for i, x in enumerate(w) if isign(x))
        cols = [(f, (w[p], neg(w[f]))) for f in range(arr.dim) if f != p]
        reduced = [
            tuple(idot((v[f], v[p]), right) for f, right in cols)
            for i, v in enumerate(rows)
            if i != h
        ]
        if feasible_strict(reduced):
            out.append(h)
    return tuple(out)


# -- Coxeter diagrams and the derived predicates -----------------------------------


class CoxeterDiagram(NamedTuple):
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

    def _shape(self):
        """(connected, label) of the diagram, memoised per edge pattern."""
        index = {w: i for i, w in enumerate(self.walls)}
        return _shape_of(len(self.walls), tuple((index[i], index[j], w) for i, j, w in self.edges))

    def is_connected(self) -> bool:
        return self._shape()[0]

    def canonical_key(self) -> str:
        """Isomorphism-invariant label, exact for up to six walls."""
        return self._shape()[1]


@lru_cache(maxsize=4096)
def _shape_of(k: int, edges: tuple):
    """(connected, canonical label) of a diagram on k walls, its edges given
    between wall positions; memoised, as most chambers share a few diagram
    shapes.

    The label is the smallest upper-triangle weight word over all orderings
    of k <= 6 walls, and the sorted edge weights beyond six.
    """
    reached = 1
    grown = True
    while grown:  # spread from wall 0 along the edges until nothing changes
        grown = False
        for a, b, _ in edges:
            if (reached >> a ^ reached >> b) & 1:
                reached |= 1 << a | 1 << b
                grown = True
    connected = k <= 1 or reached == (1 << k) - 1
    if k > 6:
        return connected, f"walls={k};weights={sorted(w for _, _, w in edges)}"
    weight = [[0] * k for _ in range(k)]
    for a, b, w in edges:
        weight[a][b] = weight[b][a] = w
    best = None
    for perm in permutations(range(k)):
        key = tuple(
            weight[perm[a]][perm[b]] for a in range(k) for b in range(a + 1, k)
        )
        if best is None or key < best:
            best = key
    return connected, f"walls={k};graph={','.join(map(str, best))}"


def coxeter_diagram(arr, chamber: Chamber) -> CoxeterDiagram:
    """The chamber's walls, joined where two walls meet in a rank-2 flat of
    weight >= 3, read through the arrangement's pair -> rank-2 flat map."""
    flats, pair_lines = arr._rank2(), arr._pair_lines()
    edges = []
    w = chamber.walls
    for a in range(len(w)):
        through = pair_lines[w[a]]
        for b in range(a + 1, len(w)):
            weight = flats[through[w[b]]].weight
            if weight >= 3:
                edges.append((w[a], w[b], weight))
    return CoxeterDiagram(w, tuple(edges))


def chamber_diagrams(arr) -> tuple:
    """The Coxeter diagram of every chamber, in `enumerate_chambers` order.

    Cached beside the chambers, so a report and the diagram routes build
    each chamber's diagram once.
    """
    cached = arr._cache.get("diagrams")
    if cached is None:
        cached = tuple(coxeter_diagram(arr, ch) for ch in enumerate_chambers(arr))
        arr._cache["diagrams"] = cached
    return cached


def is_simplicial(arr) -> bool:
    """Every chamber bounded by exactly dim walls (4 in P^3, 3 in P^2)."""
    return all(len(ch.walls) == arr.dim for ch in enumerate_chambers(arr))


def simply_laced_h_criterion(arr) -> bool:
    """Counting criterion: no rank-2 flat (a line of P^3, a point of P^2) lies
    on four or more hyperplanes."""
    return all(flat.weight <= 3 for flat in arr._rank2())


def is_simply_laced(arr) -> bool:
    """Diagram route: no chamber diagram carries an edge of weight >= 4.

    On a simplicial arrangement the counting criterion must agree, and the
    agreement is asserted: every rank-2 flat is a 2-face of some chamber
    cone, and a simplicial cone cuts that face out by exactly two of its
    walls, whose diagram edge then carries the flat's weight.
    """
    verdict = all(max(d.edge_weights(), default=0) < 4 for d in chamber_diagrams(arr))
    expected = simply_laced_h_criterion(arr)
    if verdict != expected and is_simplicial(arr):
        raise AssertionError(
            f"diagram route says simply_laced={verdict} but the h-vector "
            f"criterion says {expected}"
        )
    return verdict


def is_irreducible_diagrams(arr) -> bool:
    """Diagram route: every chamber's Coxeter diagram is connected."""
    return all(d.is_connected() for d in chamber_diagrams(arr))
