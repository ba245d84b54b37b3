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
number of corners.  Each hyperplane i has a sign code: one digit per
corner, from one batch of dots (the arrangement's kernel `dots`) per
hyperplane, which gives the oriented corners on its positive side and on
its negative side.  The corners off both sides, those on i, must be exactly
the corner flats with i among their members, so every member's dot is
checked.  The corner rays of the chamber with sign mask m (bit i set where
the sign is -1) are then the oriented corners that no hyperplane puts on
the wrong side, read off ceil(n/4) side tables: one per block of four
hyperplanes, whose 16 entries are the OR of the wrong sides over the block
for each of its sign patterns.
A chamber has only a few corners, so its candidate walls are read off the
corners' member masks instead of scanning every hyperplane: running ORs
over those masks give the hyperplanes on at least dim - 1 corners.
Each candidate h is a wall, and its facet, the corners with h among their
members, is certified from the corners' rank forms (primitive ints for
rational corners, (a, b) integer pairs for Q(tau) ones) and maximal minors
(the kernel's `normal`).  The context takes its kernel from the
arrangement, so nothing here knows the field.  A simplicial chamber, with
exactly dim corners, certifies all its facets with one determinant: its
corners' forms must be independent, and each candidate must hold exactly
dim - 1 of them, which then span it.  Any other chamber certifies each facet on its own: the
minors of its first dim - 1 tight corners must be nonzero, and every further
tight corner must be orthogonal to them, which proves rank exactly dim - 1.
Such a chamber certifies the facet across h exactly when the neighbour
across h has the larger canonical mask, so a chamber's walls and
certificates depend on that chamber alone; a complete walk reaches both
sides of every facet.  The interior witness is the sum of the corner
rays' points (the kernel's `point` of each rank form, a positive
rescaling of its ray: a canonical key has a positive lead), so it is a
positive combination of every extreme ray and lies inside the cone.  No
report reads it, so the walk leaves it out: a chamber keeps its mask and
the context, and reads its signs off the mask and computes its witness on
demand.  Each chamber's diagram is kept as one
record, (connected, label, heaviest edge weight), read off its edges by
wall position and cached beside the chambers (`diagram_shapes`); the
report's tally and both diagram predicates read these records, and
`coxeter_diagram` builds a chamber's full diagram only on request.

The `walls` operation decides each candidate independently instead, by
eliminating onto the candidate hyperplane and running an exact strict
Fourier-Motzkin feasibility test.  It runs on integer rows too: the oriented
integer normals restricted to the candidate through their own 2x2 minors
against its normal, never the lattice's line keys, so the two routes share
only the integer normals and are cross-checked in the test suite.  The
seed point's signs are read off the same integer normals; field scalars are
made only for the witness, by the kernel's `point`.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import permutations
from operator import itemgetter
from typing import NamedTuple

from .arrangement import _ReadOnly, _bits
from .linalg import pivot, rank_basis


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


def feasible_strict(rows, kernel) -> bool:
    """Exact feasibility of {x : r . x > 0 for every row r}.

    Rows are integer forms of `kernel`, an arrangement's `_kernel`: all ints
    (Q) or all (a, b) pairs standing for a + b*tau (Q(tau)).  Eliminates
    variables left to right: a row p with a positive and a row q with a
    negative leading entry combine into p0*q - q0*p, a positive combination
    without that variable.  Rows are deduplicated up to positive scaling: each
    input row and each combination is put in oriented canonical form once,
    when it is made, and a canonical row with a zero lead passes on its tail,
    which is then canonical too.  An all-zero row certifies 0 > 0 and
    therefore infeasibility.  Public as the feasibility test of `walls` and
    of the tests' chamber oracle.
    """
    isign, idot, neg, canonical = kernel.sign, kernel.dot, kernel.neg, kernel.canonical
    work = {}
    for row in rows:
        if not any(map(isign, row)):
            return False
        work[canonical(row, oriented=True)] = None
    while work:
        pos, negs, rest = [], [], {}
        for row in work:
            s = isign(row[0])
            if s > 0:
                pos.append(row)
            elif s < 0:
                negs.append(row)
            else:
                rest[row[1:]] = None
        for p in pos:
            p0, ptail = p[0], p[1:]
            for q in negs:
                q0 = q[0]
                row = tuple(idot((p0, q0), (qj, neg(pj))) for pj, qj in zip(ptail, q[1:]))
                if not any(map(isign, row)):
                    return False
                rest[canonical(row, oriented=True)] = None
        work = rest
    return True


def spans_hyperplane(rows, kernel) -> bool:
    """Whether rank forms of length dim span exactly a hyperplane.

    The certificate of a facet of a chamber with more than dim corners
    (`_Context.walls`).  Fewer than dim - 1 rows span no hyperplane and
    fail.  Otherwise the maximal minors (`kernel.normal`) of the first
    dim - 1 rows must be nonzero, so those rows are independent, and every
    further row must be orthogonal to that normal, so it lies in their
    span: a pass proves rank exactly dim - 1.  The tight corners of a facet
    pass, ordered any way: two distinct extreme rays of a pointed 2-cone,
    or three of a pointed 3-cone (distinct vertices of a convex polygon),
    are independent.
    """
    need = len(rows[0]) - 1
    if len(rows) < need:
        return False
    normal = kernel.normal(rows[:need])
    isign = kernel.sign
    extra = rows[need:]
    return any(map(isign, normal)) and not (extra and any(map(isign, kernel.dots(normal, extra))))


# -- per-arrangement chamber context ---------------------------------------------


class _Context:
    """Side tables, member masks and rank forms of one arrangement's corners.

    Bit j of an oriented corner set stands for corner j of `corner_flats()`
    and bit j + size for its negation.  `tables[b]` serves hyperplanes 4b to
    4b + 3: entry k is the OR, over those hyperplanes, of the oriented
    corners on the positive side of hyperplane i where bit i - 4b of k is
    set and on its negative side where it is clear (`_sides`), so
    `compatible` makes one lookup per block of four hyperplanes.
    `members[j]` is the member mask of corner j's flat: both orientations of
    corner j lie on hyperplane h exactly when bit h of `members[j]` is set.
    `forms[j]` is the rank form of corner j, its flat's key (primitive ints,
    or integer pairs for Q(tau)), a positive rescaling of its point.  The
    context holds no walk state.
    """

    __slots__ = (
        "n", "dim", "kernel", "full", "size", "low", "everything",
        "tables", "members", "forms",
    )

    def __init__(self, arr):
        self.n = arr.n
        self.dim = arr.dim
        self.full = (1 << arr.n) - 1
        flats = arr.corner_flats()
        self.kernel = arr._kernel
        self.forms = [flat.key for flat in flats]
        self.members = [flat.mask for flat in flats]
        size = self.size = len(flats)
        self.low = (1 << size) - 1
        self.everything = (1 << 2 * size) - 1
        sides = self._sides(arr, flats)
        self.tables = []
        for start in range(0, arr.n, 4):
            entries = [0]
            for pos, neg in sides[start:start + 4]:
                entries = [e | neg for e in entries] + [e | pos for e in entries]
            self.tables.append(entries * (16 // len(entries)))

    def _sides(self, arr, flats):
        """(pos, neg) of every hyperplane: the oriented corners on its
        positive side and on its negative side, read off its sign code.

        The sign code of hyperplane i is one digit per corner, last corner
        first: "1" on its positive side, "2" on its negative side, "0" on it.
        `plus` and `minus` are that code with "1", or "2", mapped to "1" and
        the others to "0", read in base 2.  The corners on i, those in
        neither, must be exactly the corner flats with i among their members.
        """
        size, kernel = self.size, self.kernel
        expected = [0] * arr.n
        for j, flat in enumerate(flats):
            for i in flat.members:
                expected[i] |= 1 << j
        sides = []
        for i, vi in enumerate(arr._integer_normals()):
            signs = map(kernel.sign, kernel.dots(vi, self.forms))
            code = "".join(map(_DIGITS.__getitem__, signs))[::-1]
            plus = int(code.translate(_PLUS), 2)
            minus = int(code.translate(_MINUS), 2)
            if self.low ^ (plus | minus) != expected[i]:
                raise AssertionError(
                    f"corner flat membership disagrees with the signs of hyperplane {i}"
                )
            sides.append((plus | minus << size, minus | plus << size))
        return sides

    def compatible(self, mask: int) -> int:
        """Oriented corner rays of the closed cone of the chamber `mask`."""
        against = 0
        for table in self.tables:
            against |= table[mask & 15]
            mask >>= 4
        return self.everything & ~against

    def unoriented(self, corners: int) -> int:
        """The corner indices of a set of oriented corners, as bits below size."""
        return corners & self.low | corners >> self.size

    def walls(self, corners: int, mask: int):
        """Hyperplanes whose tight corners among `corners` span a facet of the
        chamber `mask`.

        The candidates are the hyperplanes on at least dim - 1 of the
        corners, read off the corners' member masks by four running ORs
        (`one` to `four`: the hyperplanes on at least one to four corners so
        far), ascending; `every` holds those on at least dim corners.  Each
        candidate is a wall, and its facet is certified in one of two ways.

        A simplicial chamber, one with exactly dim corners, certifies all its
        facets at once.  The maximal minors of its first dim - 1 corners'
        rank forms, dotted with the last, must be nonzero, so the dim
        corners are a basis of K^dim.  One mask test then asserts that no
        candidate holds all dim corners (no nonzero normal is orthogonal to
        a basis) and that there are exactly dim candidates (a simplicial
        cone has one facet per corner, the one opposite it).  So every wall
        holds exactly dim - 1 corners, and any dim - 1 members of a basis
        are independent: they span the wall's hyperplane.

        Any other chamber certifies the facet across candidate h, its
        corners j with bit h of `members[j]` set, by `spans_hyperplane`,
        exactly when the neighbour across h has the larger canonical mask.
        A complete walk reaches both sides of every facet, so, whatever its
        order, it certifies each facet between two such chambers once.
        """
        members, forms, dim = self.members, self.forms, self.dim
        one = two = three = four = 0
        rows = []  # the corners' rank forms, ascending
        rest = self.unoriented(corners)
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            m = members[j]
            four |= three & m
            three |= two & m
            two |= one & m
            one |= m
            rows.append(forms[j])
            rest ^= low
        rest, every = (three, four) if dim == 4 else (two, three)
        if len(rows) == dim:
            if every or rest.bit_count() != dim:
                raise AssertionError("a simplicial chamber's walls must each hold all but one corner")
            last = rows.pop()
            kernel = self.kernel
            if not kernel.sign(kernel.dot(kernel.normal(rows), last)):
                raise AssertionError("the corner rays of a simplicial chamber must be independent")
            return tuple(_bits(rest))
        full = self.full
        js = _bits(self.unoriented(corners))
        out = []
        while rest:
            low = rest & -rest
            rest ^= low
            h = low.bit_length() - 1
            across = mask ^ low  # the neighbour's mask, canonical as in `_canonical_mask`
            if (across ^ full if across & 1 else across) > mask:
                tight = [forms[j] for j in js if members[j] >> h & 1]
                if not spans_hyperplane(tight, self.kernel):
                    raise AssertionError("tight corner rays of a facet must span it")
            out.append(h)
        return tuple(out)

    def witness(self, corners: int):
        """The sum of the oriented corners' points, in field scalars:
        oriented corner j adds point(forms[j]), and j + size subtracts it."""
        point, forms = self.kernel.point, self.forms
        plus = [point(forms[j]) for j in _bits(corners & self.low)]
        minus = [point(forms[j]) for j in _bits(corners >> self.size)]
        return tuple(
            sum(p[c] for p in plus) - sum(p[c] for p in minus) for c in range(self.dim)
        )


#: sign code digits, indexed by a sign (-1 reads the last), and the
#: translations of a code to the digits of its plus and minus bitsets
_DIGITS = "012"
_PLUS = str.maketrans("2", "0")
_MINUS = str.maketrans("12", "01")


def _context(arr) -> _Context:
    ctx = arr._cache.get("chamber_ctx")
    if ctx is None:
        ctx = _Context(arr)
        arr._cache["chamber_ctx"] = ctx
    return ctx


def _canonical_mask(mask: int, full: int) -> int:
    return mask ^ full if mask & 1 else mask


def generic_point(arr):
    """Deterministic point off every hyperplane: first good moment-curve point.

    Candidates are (1, t, t^2, ..., t^(dim-1)) for t = 1, 2, ..., 3n + 8.  A
    nonzero normal dotted with the candidate is a nonzero polynomial in t of
    degree at most dim - 1, so each hyperplane rejects at most dim - 1 of
    them and the n hyperplanes leave a good one among the first
    n (dim - 1) + 1.  Signs are read off the integer normals.
    """
    kernel = arr._kernel
    normals = arr._integer_normals()
    for t in range(1, 3 * arr.n + 9):
        cand = tuple(t**k for k in range(arr.dim))
        signs = list(map(kernel.sign, kernel.dots(kernel.ints(cand), normals)))
        if all(signs):
            return cand, signs
    raise GenericPointNotFound("moment-curve candidates exhausted")


class Chamber(_ReadOnly):
    """A projective chamber: canonical sign mask plus derived geometry.

    `mask` has bit i set where `signs[i]` is -1.  `signs` is read off the
    mask on every read; `witness`, an interior point, is the sum of the
    points of the chamber's corner rays, computed from the chamber context
    on first access, as no report reads it.  Chambers are read-only; they
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
    count = 0
    while queue:
        m = queue.popleft()
        corners = ctx.compatible(m)
        if not corners:
            raise AssertionError("enumerated chamber has no extreme rays")
        wl = ctx.walls(corners, m)
        count += 1
        yield Chamber(wl, m, ctx)
        for h in wl:
            nm = m ^ 1 << h
            if nm & 1:  # `_canonical_mask`, inline in the walk's hottest loop
                nm ^= ctx.full
            if nm not in visited:
                visited.add(nm)
                queue.append(nm)
        if limit is not None and count >= limit and queue:
            raise ChamberLimitReached(count)


def enumerate_chambers(arr, limit=None):
    """Complete duplicate-free chamber list in canonical (sign-mask) order.

    With a `limit`, at least 1, raises ChamberLimitReached if the
    arrangement has more chambers than that, whether or not the list is
    cached; a smaller limit raises ValueError."""
    if limit is not None and limit < 1:
        raise ValueError(f"chamber limit must be at least 1, got {limit}")
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
    walls.  Only tests call it; it stays public as the edge routine of a
    face census that recounts the f-vector from the chambers.
    """
    ctx = _context(arr)
    corners = ctx.compatible(chamber.mask)
    if arr.dim == 3:
        return corners.bit_count(), len(chamber.walls)
    js = _bits(ctx.unoriented(corners))
    edges = 0
    for flat in arr.lines():
        line = flat.mask
        rows = [ctx.forms[j] for j in js if ctx.members[j] & line == line]
        if len(rows) >= 2:
            if len(rank_basis(rows, ctx.kernel)) != 2:
                raise AssertionError("tight corner rays of an edge must span it")
            edges += 1
    return corners.bit_count(), edges


# -- the independent Fourier-Motzkin wall test -----------------------------------


def _oriented_normals(arr, signs):
    """The integer normals, each negated where its sign is -1: the rows of
    `walls` and of the tests' chamber oracle."""
    neg = arr._kernel.neg
    return [u if s > 0 else tuple(map(neg, u)) for s, u in zip(signs, arr._integer_normals())]


def walls(arr, signs):
    """Bounding hyperplanes of the chamber with the given sign vector.

    A hyperplane H bounds the chamber iff the system keeping every other
    constraint strict and pinning x onto H stays solvable; each candidate is
    decided by eliminating onto H and testing strict feasibility with
    Fourier-Motzkin elimination (`feasible_strict` on the arrangement's own
    kernel).  With p the pivot (first nonzero entry) of the integer normal w
    of H, the coordinates off p parametrize H, and an oriented normal v
    restricts to the minors v_f*w_p - v_p*w_f, f != p: a positive rescaling
    of v restricted to H.  No command runs it; it stays
    public as the wall route that demo 01, the tests and the benchmark's
    traced pass check the enumerator against.
    """
    signs = tuple(signs)
    if len(signs) != arr.n or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be a +-1 vector over the hyperplanes")
    kernel = arr._kernel
    rows = _oriented_normals(arr, signs)
    if not feasible_strict(rows, kernel):
        raise EmptyChamber("sign vector cuts out an empty cone")
    idot, neg = kernel.dot, kernel.neg
    out = []
    for h, w in enumerate(arr._integer_normals()):
        p = pivot(w, kernel)
        cols = [(f, (w[p], neg(w[f]))) for f in range(arr.dim) if f != p]
        reduced = [
            tuple(idot((v[f], v[p]), right) for f, right in cols)
            for i, v in enumerate(rows)
            if i != h
        ]
        if feasible_strict(reduced, kernel):
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
        """Sorted wall degrees; public, as the acceptance tests read them."""
        deg = {w: 0 for w in self.walls}
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(sorted(deg.values()))

    def _shape(self):
        """`_shape_of` of the diagram's edges by wall position."""
        index = {w: i for i, w in enumerate(self.walls)}
        return _shape_of(len(self.walls), tuple((index[i], index[j], w) for i, j, w in self.edges))

    def is_connected(self) -> bool:
        return self._shape()[0]

    def canonical_key(self) -> str:
        """Isomorphism-invariant label, exact for up to six walls."""
        return self._shape()[1]


@lru_cache(maxsize=4096)
def _shape_of(k: int, edges: tuple):
    """(connected, canonical label, heaviest edge weight) of a diagram on k
    walls, its edges given between wall positions (`_placed`); memoised, as
    most chambers share a few diagram shapes.  The heaviest weight is 0
    without edges.

    The label is the smallest upper-triangle weight word over all orderings
    of k <= 6 walls (`_orderings`), and the sorted edge weights beyond six.
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
    heaviest = max((w for _, _, w in edges), default=0)
    if k > 6:
        return connected, f"walls={k};weights={sorted(w for _, _, w in edges)}", heaviest
    weight = [0] * (k * k)
    for a, b, w in edges:
        weight[a * k + b] = weight[b * k + a] = w
    best = min(word(weight) for word in _orderings(k))
    return connected, f"walls={k};graph={','.join(map(str, best))}", heaviest


@lru_cache(maxsize=None)
def _orderings(k: int) -> list:
    """One reader per ordering of k walls, which picks that ordering's
    upper-triangle weight word off a flattened k x k weight matrix; built
    once per k, so a new diagram shape costs k! C-level reads."""
    readers = []
    for perm in permutations(range(k)):
        at = [perm[a] * k + perm[b] for a in range(k) for b in range(a + 1, k)]
        if len(at) > 1:
            readers.append(itemgetter(*at))
        else:  # itemgetter returns a bare item for one index
            readers.append(lambda m, at=at: tuple(m[i] for i in at))
    return readers


def _placed(walls, weights, pair_lines):
    """The diagram edges on `walls` by wall position, (a, b, weight) with
    a < b: two walls are joined where their rank-2 flat, read through the
    pair -> rank-2 flat map, has weight >= 3."""
    placed = []
    for a in range(len(walls)):
        through = pair_lines[walls[a]]
        for b in range(a + 1, len(walls)):
            weight = weights[through[walls[b]]]
            if weight >= 3:
                placed.append((a, b, weight))
    return tuple(placed)


def coxeter_diagram(arr, chamber: Chamber) -> CoxeterDiagram:
    """The chamber's walls, joined where two walls meet in a rank-2 flat of
    weight >= 3, read through the arrangement's pair -> rank-2 flat map.
    Built on each call; the report and the diagram predicates read
    `diagram_shapes` instead."""
    walls = chamber.walls
    placed = _placed(walls, arr._rank2_weights(), arr._pair_lines())
    return CoxeterDiagram(walls, tuple((walls[a], walls[b], w) for a, b, w in placed))


def diagram_shapes(arr) -> tuple:
    """(connected, canonical label, heaviest edge weight) of every chamber's
    diagram, in `enumerate_chambers` order: `_shape_of` of its edges by wall
    position, cached beside the chambers.  The report's tally and both
    diagram predicates read these records; no `CoxeterDiagram` is built."""
    cached = arr._cache.get("diagram_shapes")
    if cached is None:
        weights, pair_lines = arr._rank2_weights(), arr._pair_lines()
        cached = arr._cache["diagram_shapes"] = tuple(
            _shape_of(len(ch.walls), _placed(ch.walls, weights, pair_lines))
            for ch in enumerate_chambers(arr)
        )
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
    verdict = all(heaviest < 4 for _, _, heaviest in diagram_shapes(arr))
    expected = simply_laced_h_criterion(arr)
    if verdict != expected and is_simplicial(arr):
        raise AssertionError(
            f"diagram route says simply_laced={verdict} but the h-vector "
            f"criterion says {expected}"
        )
    return verdict


def is_irreducible_diagrams(arr) -> bool:
    """Diagram route: every chamber's Coxeter diagram is connected."""
    return all(connected for connected, _, _ in diagram_shapes(arr))
