"""Central hyperplane arrangements and their intersection lattice.

An arrangement is an ordered list of pairwise non-proportional normal vectors
that jointly span K^4 (projectively: hyperplanes of P^3 with empty common
intersection).  The rank-2 flats are the lines of the induced projective
arrangement, the rank-3 flats its vertices; both carry weights counting the
hyperplanes containing them.  Restrictions to a hyperplane and parabolic
subarrangements at a vertex are returned as rank-3 arrangements in K^3, whose
rank-2 flats are the points of P^2.

The lattice is computed on exact integer forms of the normals (primitive ints
over Q, integer pairs a + b*tau over Q(tau)), through the per-field table
`linalg.KERNELS`; nothing else here depends on the field.  Every flat carries
its canonical integer form as its `key`, which is all the lattice, the
derived arrangements and the chamber context read.  The keys are the only
stored form: field scalars are made, by the arrangement's kernel `point`,
when the public `normals` and `Flat.point` views are read (each flat holds
the kernel of the arrangement that made it).
Rank-2 flats group the hyperplane pairs by the canonical 2x2 minors of
their normals: the Pluecker coordinates of the line in K^4, the cross
product (which is the point itself) in K^3.  The line geometry lives in
`linalg`: the dots of a normal off a line with its two `line_forms` key,
in P^1, where it meets the line, and one kernel call per line (`group`)
keys the plain integer normals off it; the normals at one position, with
the line's members, are one vertex's members.  Position keys only group
hits; every key a flat stores comes from `canonical`.
Vertices are keyed by their member masks.  Each vertex is grouped once, on
its first line, and later lines skip its members; its other lines are then
read off the pair -> rank-2 flat map (`_pair_lines`) from its members off
the first line, which tallies, per vertex, the lines through it and the
sum of their weights (`vertex_line_tallies`), whose totals give the
vertices' share of the Moebius recursion, and from which the t-vector and
the f-vector are read.  The pass makes no vertex key: as a line's, it is
the canonical `normal` of a basis of its members (its two lowest members
and its lowest member off their line), made on the first read of
`vertices()`, which only the chamber walk, `parabolic` and explicit
callers do.  A restriction's
normals are the `restricted_minors` of the Pluecker keys of the lines inside
the hyperplane (its row of `_pair_lines`, as a set of line indices), and its
chamber count comes from the positions of the later lines on each line of
P^2: one `meets` call per line keys them by their pivot minors with it,
restricting at the pivot of the line's normal as the restriction itself
restricts at the pivot of h, and each point is grouped once on its first
line; `restriction_counts` builds and checks `restriction(h)` for every h
and reads that count once per distinct set of restricted keys (equal sets
are one arrangement), and nothing of the vertex pass.  A parabolic's
normals are the integer normals through the vertex with the `pivot` of the
vertex key dropped.
Every rank decision reads the written-out maximal minors of
`KERNELS[field].normal`: essentialness and the derived arrangements' checks
take the length of the first basis `linalg.rank_basis` meets, and
reducibility ties a normal e to a basis normal b when e is off the normal
of the basis less b (a fundamental circuit of that basis).
"""

from __future__ import annotations

from collections import Counter

from .linalg import KERNELS, line_forms, pivot, rank_basis, restricted_minors
from .scalars import Field, infer_field, lift


class DuplicateHyperplane(ValueError):
    """Two of the supplied normals are proportional."""


class NotEssential(ValueError):
    """The normals do not span the ambient space."""


class MixedField(ValueError):
    """Irrational coordinates supplied for a rational arrangement."""


class ZeroNormal(ValueError):
    """One of the supplied normals is the zero vector."""


class _ReadOnly:
    """Instances refuse attribute assignment and deletion: arrangements (and
    the shared built-ins) cache their flats and chambers.  Constructors set
    their slots through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only; cannot delete {name!r}")


def _bits(x: int) -> list:
    """Indices of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


class Flat(_ReadOnly):
    """A flat of the intersection lattice: the hyperplanes containing it.

    `key` is its canonical form in `kernel`, the integer kernel of the
    arrangement that made it: the Pluecker minors of a line of P^3, the
    point itself for a vertex or a point of P^2.  A flat keeps the kernel,
    not the arrangement, which caches its flats.  Flats are read-only, since
    arrangements (and the shared built-ins) cache them.
    """

    __slots__ = ("members", "mask", "weight", "key", "_kernel")

    def __init__(self, mask, key, kernel):
        members = tuple(_bits(mask))
        object.__setattr__(self, "members", members)          # sorted hyperplane indices
        object.__setattr__(self, "mask", mask)                # same set as a bitmask
        object.__setattr__(self, "weight", len(members))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_kernel", kernel)

    @property
    def point(self):
        """The key of a point flat in field scalars (the kernel's `point`),
        made on each read; None for the six-minor key of a line of P^3."""
        key = self.key
        return None if len(key) == 6 else self._kernel.point(key)

    def __repr__(self):
        return f"Flat(members={self.members}, point={self.point})"


def _canonical_normals(normals, field, ambient):
    """The canonical integer key of each normal, made as the normal is read.

    A key is a positive rescaling of its normal's canonical field form
    (`point` of the key: leading entry 1 or positive), so the keys serve as
    the arrangement's integer normals.
    """
    kernel = KERNELS[field]
    for idx, vec in enumerate(normals):
        vec = tuple(vec)
        if len(vec) != ambient:
            raise ValueError(f"normal {idx} has {len(vec)} coordinates, expected {ambient}")
        try:
            lifted = [lift(x, field) for x in vec]
        except ValueError as exc:
            raise MixedField(str(exc)) from None
        if not any(lifted):
            raise ZeroNormal(f"normal {idx} is the zero vector")
        yield kernel.canonical(kernel.ints(lifted))


def _essential_keys(keys, kernel, ambient):
    """The canonical keys as a list, checked pairwise distinct as they are
    read (DuplicateHyperplane) and then spanning K^ambient (NotEssential)."""
    seen = {}
    for idx, key in enumerate(keys):
        first = seen.setdefault(key, idx)
        if first != idx:
            raise DuplicateHyperplane(f"normals {first} and {idx} define the same hyperplane")
    keys = list(seen)
    r = len(rank_basis(keys, kernel))
    if r != ambient:
        raise NotEssential(f"normals span a subspace of rank {r}, need {ambient}")
    return keys


def _checked_keys(keys, kernel, where):
    """The keys of a derived rank-3 arrangement, asserted distinct and spanning K^3."""
    if len(set(keys)) != len(keys):
        raise AssertionError(f"{where}: two of its members restrict to one normal")
    if len(rank_basis(keys, kernel)) != 3:
        raise AssertionError(f"{where} is not essential")
    return keys


def _rank3_second(keys, kernel):
    """sum over the points p of P^2 of (w_p - 1), for distinct rank-3 keys.

    Lines i and j meet in the point u_i x u_j, whose position on line i the
    two pivot minors of u_i and u_j key (`meets`), as a restriction reads
    its normals off the minors at a pivot one level up.  Each point is
    grouped once, on its first line i: one `meets` call keys the later
    lines j > i, less those in `seen[i]`, the lines through the points
    already found on line i.  A group is then the w_p - 1 other lines of a
    new point, and its mask is added to each of their `seen`, so later
    lines skip it.
    """
    rows = [(1 << j, v) for j, v in enumerate(keys)]
    # per line: the lines through the points found on it so far
    seen = [0] * len(keys)
    total = 0
    for i, u in enumerate(keys):
        skip = seen[i]
        later = [row for row in rows[i + 1:] if not skip & row[0]]
        if not later:
            continue
        for found in kernel.meets(u, later).values():
            total += found.bit_count()
            point = found | 1 << i
            while found:
                low = found & -found
                seen[low.bit_length() - 1] |= point
                found ^= low
    return total


class _CentralArrangement(_ReadOnly):
    """Construction and rank-2 flats, shared by both ambient dimensions.

    Arrangements are read-only, like their flats, since the shared built-ins
    are cached: only the contents of the private `_cache` dict change.
    """

    __slots__ = ("field", "_kernel", "_cache")
    dim: int

    def __init__(self, normals, field: Field | None = None):
        normals = list(normals)
        if not normals:
            raise ValueError("an arrangement needs at least one hyperplane")
        if field is None:
            field = infer_field(x for vec in normals for x in vec)
        keys = _canonical_normals(normals, field, self.dim)
        self._setup(_essential_keys(keys, KERNELS[field], self.dim), field)

    @classmethod
    def _from_keys(cls, keys, field: Field):
        """The arrangement on distinct canonical integer keys spanning K^dim."""
        arr = cls.__new__(cls)
        arr._setup(keys, field)
        return arr

    def _setup(self, keys, field):
        """Store the field and the integer forms of the keys."""
        kernel = KERNELS[field]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_cache", {"ints": keys})

    @property
    def normals(self):
        """The canonical normals in field scalars, made from the keys on first read."""
        if "normals" not in self._cache:
            self._cache["normals"] = tuple(map(self._kernel.point, self._integer_normals()))
        return self._cache["normals"]

    @property
    def n(self) -> int:
        return len(self._integer_normals())

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, field={self.field.value})"

    def _integer_normals(self):
        """The integer form of every normal: its canonical key."""
        return self._cache["ints"]

    def _rank2(self):
        """Every rank-2 flat (a line of P^3, a point of P^2), sorted by member
        sets; its key is the canonical minors (`normal`) of any two members'
        normals."""
        if "rank2" not in self._cache:
            kernel = self._kernel
            normal, canonical = kernel.normal, kernel.canonical
            ints = self._integer_normals()
            groups = {}
            for i, u in enumerate(ints):
                bit = 1 << i
                for j in range(i + 1, self.n):
                    key = canonical(normal((u, ints[j])))
                    groups[key] = groups.get(key, 0) | bit | 1 << j
            flats = [Flat(mask, key, kernel) for key, mask in groups.items()]
            self._cache["rank2"] = tuple(sorted(flats, key=lambda flat: flat.members))
        return self._cache["rank2"]

    def _pair_lines(self):
        """Row i, entry j != i: the index in `_rank2()` of the rank-2 flat on
        hyperplanes i and j (their line of P^3, their point of P^2)."""
        if "pair_lines" not in self._cache:
            table = [[None] * self.n for _ in range(self.n)]
            for index, flat in enumerate(self._rank2()):
                members = flat.members
                for a, i in enumerate(members):
                    row = table[i]
                    for j in members[a + 1:]:
                        row[j] = table[j][i] = index
            self._cache["pair_lines"] = table
        return self._cache["pair_lines"]

    def _rank2_weights(self):
        """The weight of every rank-2 flat, in `_rank2()` order."""
        if "rank2_weights" not in self._cache:
            self._cache["rank2_weights"] = tuple(flat.weight for flat in self._rank2())
        return self._cache["rank2_weights"]


class Arrangement(_CentralArrangement):
    """An essential central arrangement of n >= 1 hyperplanes in K^4."""

    __slots__ = ()
    dim = 4

    # -- intersection lattice -------------------------------------------------

    def lines(self):
        """All rank-2 flats, sorted by member index sets."""
        return self._rank2()

    def vertices(self):
        """All rank-3 flats, sorted by member index sets.

        The flats are made on the first read, from the member masks of the
        vertex pass, keyed by `_vertex_keys`.
        """
        if "vertices" not in self._cache:
            masks = self._vertex_pass()[0]
            kernel = self._kernel
            self._cache["vertices"] = tuple(
                Flat(mask, key, kernel) for mask, key in zip(masks, self._vertex_keys(masks))
            )
        return self._cache["vertices"]

    def _vertex_keys(self, masks):
        """The canonical `normal` of a basis of each vertex's members, as for
        a line: its two lowest members and its lowest member off their line."""
        canonical, normal = self._kernel.canonical, self._kernel.normal
        ints, pair_lines = self._integer_normals(), self._pair_lines()
        line_masks = [line.mask for line in self._rank2()]
        for mask in masks:
            rest = mask & (mask - 1)
            i, j = (mask & -mask).bit_length() - 1, (rest & -rest).bit_length() - 1
            off = mask & ~line_masks[pair_lines[i][j]]
            k = (off & -off).bit_length() - 1
            yield canonical(normal((ints[i], ints[j], ints[k])))

    def vertex_weights(self):
        """Per vertex, in `vertices()` order: the number of hyperplanes through it."""
        return self._vertex_pass()[1]

    def vertex_line_tallies(self):
        """Per vertex, in `vertices()` order: the number of lines through it,
        and the sum of those lines' weights."""
        return self._vertex_pass()[2:]

    def _vertex_pass(self):
        """(member masks, weights, lines through, their weight sums) of every
        vertex, in `vertices()` order; no vertex key or flat is made.

        A normal w_k off a line meets it in one point, whose position on the
        line the two `line_forms` of the line's key fix; one `group` call per
        line keys the integer normals off it, less those in `seen` (below).
        The normals with one position and the line's members are the
        vertex's members (every member of a vertex is on the line or meets
        it there).

        Each vertex is grouped once, on its first line, which is tallied
        directly.  Its other lines are reached through `_pair_lines()` from
        the group, the vertex's members off the first line: two lines share
        at most one member, so each other line holds a group member and is
        tallied from its lowest one, with its weight read from
        `_rank2_weights()`.  From each group member the walk meets the
        lines to the first line's members and to the later group members,
        so every pair of members not both on the first line lies on a line
        met; each line met is asserted to lie inside the vertex (the line
        of two members passes through their vertex), and each line tallied
        adds the vertex's mask to its `seen`, so later lines skip the
        vertex's members.  Two
        vertices on one line share no member off it, so every group left on
        a line is a new vertex with its full member mask.  The weight check
        names a vertex by the point of its key (`_vertex_keys`).

        The pass meets the vertices in member order: a vertex with lowest
        members m1 < m2 is first grouped on the line through them, which
        comes first among its lines; lines are taken in member order, and
        one line's hits are grouped in the order of their lowest member.
        """
        if "vertex_pass" in self._cache:
            return self._cache["vertex_pass"]
        kernel = self._kernel
        # every normal's bit and integer form, the rows `group` takes
        normals = [(1 << k, w) for k, w in enumerate(self._integer_normals())]
        lines = self._rank2()
        pair_lines = self._pair_lines()
        line_masks = [line.mask for line in lines]
        line_weights = self._rank2_weights()
        # per line: its members and those of the vertices found on it so far
        seen = line_masks[:]
        every = (1 << self.n) - 1
        masks, counts, sums = [], [], []
        for index, line in enumerate(lines):
            skip = seen[index]
            if skip == every:
                continue
            line_mask = line.mask
            rows = [row for row in normals if not skip & row[0]]
            for group in kernel.group(*line_forms(line.key, kernel), rows).values():
                mask = line_mask | group
                count, total = 1, line_weights[index]
                rest = group
                while rest:  # the other lines inside, each at its lowest member off `line`
                    low = rest & -rest
                    rest ^= low
                    through = pair_lines[low.bit_length() - 1]
                    todo = line_mask | rest
                    while todo:
                        other = through[(todo & -todo).bit_length() - 1]
                        other_mask = line_masks[other]
                        if other_mask & ~mask:
                            members = tuple(i for i in range(self.n) if mask >> i & 1)
                            raise AssertionError(
                                f"line {lines[other].members} is not inside the vertex "
                                f"{members} of two of its members"
                            )
                        todo &= ~other_mask
                        if not other_mask & group & (low - 1):
                            seen[other] |= mask
                            count += 1
                            total += line_weights[other]
                masks.append(mask)
                counts.append(count)
                sums.append(total)
        weights = tuple(mask.bit_count() for mask in masks)
        top = self.n - 1
        for mask, weight in zip(masks, weights):
            if not 3 <= weight <= top:
                point = kernel.point(next(self._vertex_keys([mask])))
                raise AssertionError(f"vertex {point} lies on {weight} hyperplanes")
        self._cache["vertex_pass"] = (tuple(masks), weights, tuple(counts), tuple(sums))
        return self._cache["vertex_pass"]

    def h_vector(self) -> dict[int, int]:
        """Counts of lines by weight, as a weight -> count map."""
        counts = Counter(flat.weight for flat in self.lines())
        return dict(sorted(counts.items()))

    def t_vector(self) -> dict[int, int]:
        """Counts of vertices by weight, as a weight -> count map."""
        counts = Counter(self.vertex_weights())
        return dict(sorted(counts.items()))

    def multiplicity(self) -> int:
        """Largest vertex weight."""
        return max(self.vertex_weights())

    # -- derived rank-3 arrangements -------------------------------------------

    def restriction(self, h: int) -> "Rank3Arrangement":
        """The lines inside hyperplane h, as an arrangement in K^3.

        Coordinates on H_h are those other than the `pivot` p of integer
        normal h.  A line through h and k induces the normal v_k restricted
        to H_h, the line's `restricted_minors` at p.  The lines inside H_h
        are read off row h of `_pair_lines()`, in `lines()` order.  Distinct
        lines give distinct normals that span K^3; both are asserted.
        """
        if not 0 <= h < self.n:
            raise IndexError(f"hyperplane index {h} out of range")
        kernel = self._kernel
        p = pivot(self._integer_normals()[h], kernel)
        lines = self._rank2()
        inside = sorted(set(self._pair_lines()[h]) - {None})
        keys = [kernel.canonical(restricted_minors(lines[i].key, p, kernel)) for i in inside]
        where = f"the restriction to hyperplane {h}"
        return Rank3Arrangement._from_keys(_checked_keys(keys, kernel, where), self.field)

    def restriction_counts(self) -> tuple[tuple[int, int], ...]:
        """(size, projective chamber count) of the restriction to each
        hyperplane h: `restriction(h).n` and its `projective_chamber_count`,
        which `_rank3_second` reads off the restricted keys.  Cached.

        Every restriction is built and checked, but its points are counted
        once per distinct set of restricted keys: equal sets are one rank-3
        arrangement (of H4's 60 restrictions, 35 are distinct; B4's 16 are
        one).
        """
        if "restriction_counts" not in self._cache:
            chambers = {}  # frozenset of restricted keys -> chamber count
            counts = []
            for sub in map(self.restriction, range(self.n)):
                keys = frozenset(sub._integer_normals())
                if keys not in chambers:
                    chambers[keys] = sub.projective_chamber_count()
                counts.append((sub.n, chambers[keys]))
            self._cache["restriction_counts"] = tuple(counts)
        return self._cache["restriction_counts"]

    def parabolic(self, vertex: Flat) -> "Rank3Arrangement":
        """The hyperplanes through a vertex, modulo the spanned line.

        `vertex` must be one of `vertices()`.  Coordinates on the quotient
        are those other than the `pivot` p of the vertex key, so the
        members' integer normals with coordinate p dropped are the normals;
        they are asserted distinct and spanning.
        """
        if not any(v is vertex for v in self.vertices()):
            raise ValueError(f"{vertex!r} is not a vertex of this arrangement")
        canonical = self._kernel.canonical
        p = pivot(vertex.key, self._kernel)
        ints = self._integer_normals()
        keys = [
            canonical(tuple(x for f, x in enumerate(ints[i]) if f != p))
            for i in vertex.members
        ]
        where = f"the parabolic at vertex {vertex.members}"
        return Rank3Arrangement._from_keys(_checked_keys(keys, self._kernel, where), self.field)

    # -- reducibility -----------------------------------------------------------

    def reducible_partition(self):
        """Two-block partition witnessing a product structure, or None.

        Computes the finest decomposition of K^4 into summands each containing
        a subset of the normals, from the fundamental circuits of the first
        basis B (`rank_basis`): a normal e off B is tied to every b in B with
        B - b + e again a basis, i.e. with a nonzero dot of e and the normal
        (`KERNELS[field].normal`) of B - b.  So each b ties the mask of the
        normals with a nonzero dot against that normal, read off one `dots`
        batch (of the basis, only b itself is off it).  The blocks are those
        tie masks merged wherever they meet; every normal is in one, and the
        arrangement is reducible exactly when there are at least two.
        """
        kernel = self._kernel
        sign = kernel.sign
        ints = self._integer_normals()
        basis = rank_basis(ints, kernel)
        rows = [ints[b] for b in basis]
        blocks = []
        for k in range(len(basis)):
            normal = kernel.normal(rows[:k] + rows[k + 1:])
            tie = 0
            for e, x in enumerate(kernel.dots(normal, ints)):
                if sign(x):
                    tie |= 1 << e
            for block in [block for block in blocks if block & tie]:
                blocks.remove(block)
                tie |= block
            blocks.append(tie)
        if len(blocks) == 1:
            return None
        blocks.sort(key=lambda block: block & -block)
        first = tuple(_bits(blocks[0]))
        rest = tuple(_bits(sum(blocks[1:])))
        return (first, rest)

    # chamber machinery reads corner flats generically (vertices here,
    # points for rank-3 arrangements)
    def corner_flats(self):
        return self.vertices()


class Rank3Arrangement(_CentralArrangement):
    """An essential central arrangement in K^3 (restrictions, parabolics)."""

    __slots__ = ()
    dim = 3

    def points(self):
        """All rank-2 flats (projective points), sorted by member sets."""
        return self._rank2()

    def point_weights(self) -> dict[int, int]:
        counts = Counter(p.weight for p in self.points())
        return dict(sorted(counts.items()))

    def char_poly(self) -> tuple[int, int, int, int]:
        """Coefficients (descending) of the cubic characteristic polynomial:
        x^3 - n x^2 + s x - (s - n + 1), s = sum_p (w_p - 1) (`_rank3_second`)."""
        second = _rank3_second(self._integer_normals(), self._kernel)
        return (1, -self.n, second, -(1 - self.n + second))

    def projective_chamber_count(self) -> int:
        """Chambers of the induced decomposition of P^2: 1 + sum_p (w_p - 1).

        That is -chi(-1) / 2, read off directly: at -1 the `char_poly` is
        -1 - n - s - (s - n + 1) = -2 (1 + s), so -chi(-1) is positive and
        even by construction, and a check of either could never fail.
        """
        return 1 + _rank3_second(self._integer_normals(), self._kernel)

    def corner_flats(self):
        return self.points()
