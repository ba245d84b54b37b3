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
stored form: field scalars are made when the public `normals` and
`Flat.point` views are read.
Rank-2 flats group the hyperplane pairs by the canonical 2x2 minors of
their normals: the Pluecker coordinates of the line in K^4, the cross
product (which is the point itself) in K^3.  A normal off a line meets it in
the Hodge dual of the line's Pluecker vector applied to that normal; the
line projects injectively onto two coordinates, so the normal's dots with
those two Hodge rows (as length-4 forms) key its position in P^1, and the
normals at one position, with the line's members, are one vertex's members.
One kernel call per line (`group`) keys the plain integer normals off it.
Position keys only group hits; every key a flat stores comes from
`canonical`.
Vertices are keyed by their member masks.  Each vertex is grouped once, on
its first line, and later lines skip its members; its lines are then read
off the pair -> rank-2 flat map (`_pair_lines`), which tallies, per vertex,
the lines through it and the sum of their weights (`vertex_line_tallies`),
from which the vertices' Moebius values, the t-vector and the f-vector are
read.  The pass makes no vertex key: it keeps a witness for each point (the
line's Hodge forms and one normal off it), and the keys and `Flat`s are made
on the first read of `vertices()`, which only the chamber walk, `parabolic`
and explicit callers do.  A restriction's normals are read off the
Pluecker keys of the lines inside the hyperplane, and its chamber count off
the positions of the later lines on each line, the same way in P^2 (two
rows of the line's cross-product matrix in place of the Hodge rows), again
one `group` call per line, each point grouped once on its first line
(`restriction_counts` builds no rank-3 arrangement and reads nothing of
the vertex pass); a parabolic's are the integer normals through the vertex
with the pivot of the vertex key dropped.  Every rank decision reads the
written-out maximal minors of `KERNELS[field].normal`: essentialness and
the derived arrangements' checks take the length of the first basis
`linalg.rank_basis` meets, and reducibility ties a normal e to a basis
normal b when e is off the normal of the basis less b (a fundamental
circuit of that basis).
"""

from __future__ import annotations

from collections import Counter

from .linalg import KERNELS, rank_basis
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


class Flat(_ReadOnly):
    """A flat of the intersection lattice: the hyperplanes containing it.

    `key` is its canonical `linalg.KERNELS` form: the Pluecker minors of a
    line of P^3, the point itself for a vertex or a point of P^2.  Flats are
    read-only, since arrangements (and the shared built-ins) cache them.
    """

    __slots__ = ("members", "mask", "weight", "key")

    def __init__(self, mask, key):
        members = []
        rest = mask
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        object.__setattr__(self, "members", tuple(members))  # sorted hyperplane indices
        object.__setattr__(self, "mask", mask)                # same set as a bitmask
        object.__setattr__(self, "weight", len(members))
        object.__setattr__(self, "key", key)

    @property
    def point(self):
        """The key of a point flat in field scalars, made on each read; None
        for the six-minor key of a line of P^3.  The field is read off the
        key's own form: (a, b) pairs for Q(tau), ints for Q."""
        key = self.key
        if len(key) == 6:
            return None
        field = Field.QUADRATIC_TAU if isinstance(key[0], tuple) else Field.RATIONAL
        return KERNELS[field].point(key)

    def __repr__(self):
        return f"Flat(members={self.members}, point={self.point})"


#: Coordinate pairs (a, b) of the 2x2 minors u_a v_b - u_b v_a of two normals:
#: the Pluecker coordinates of their line in K^4, and in K^3 the cross
#: product, i.e. the point of P^2 on both lines.  `KERNELS[field].normal` of
#: two normals returns the minors in this order, which the rank-2 keys and
#: so `_HODGE`, `_COMPLEMENT` and `_RESTRICT` rely on.
_MINORS = {
    3: ((1, 2), (2, 0), (0, 1)),
    4: ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}

#: Rows of the Hodge dual *P of a Pluecker vector P: x_i = sum_j eps_ijkl p_kl w_j,
#: {k < l} the remaining two coordinates, is the point where the line meets
#: the hyperplane with normal w.  Entries are (index of p_kl in _MINORS[4], j,
#: eps_ijkl).
_HODGE = (
    ((5, 1, 1), (4, 2, -1), (3, 3, 1)),
    ((5, 0, -1), (2, 2, 1), (1, 3, -1)),
    ((4, 0, 1), (2, 1, -1), (0, 3, 1)),
    ((3, 0, -1), (1, 1, 1), (0, 2, -1)),
)


#: For each Pluecker index t, the two coordinates off the minor's pair: when
#: p_t != 0 no nonzero point of the line has both of them 0, so the line
#: projects injectively onto them and their two Hodge rows fix a point's
#: position on the line.
_COMPLEMENT = tuple(tuple(f for f in range(4) if f not in pair) for pair in _MINORS[4])

#: For each pivot p, the (index in _MINORS[4], sign flip) of the minor (p, f)
#: for every f != p in increasing order: minor (p, f) = -minor (f, p).
_RESTRICT = tuple(
    tuple((_MINORS[4].index((min(p, f), max(p, f))), f < p) for f in range(4) if f != p)
    for p in range(4)
)


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

    Lines i and j meet in the cross product u_i x u_j, whose component m is
    the dot of u_j with row m of the cross-product matrix of u_i
    (`_cross_forms`).  With u_i[c] != 0 no nonzero point of line i has both
    coordinates other than c equal to 0, so the P^1 key of the dots with
    the two rows other than c is a point's position on line i.  Each point
    is grouped once, on its first line i: one `group` call keys the later
    lines j > i, less those in `seen[i]`, the lines through the points
    already found on line i.  A group is then the w_p - 1 other lines of a
    new point, and its mask is added to each of their `seen`, so later
    lines skip it.
    """
    group, sign = kernel.group, kernel.sign
    rows = [(1 << j, v) for j, v in enumerate(keys)]
    # per line: the lines through the points found on it so far
    seen = [0] * len(keys)
    total = 0
    for i, u in enumerate(keys):
        skip = seen[i]
        later = [row for row in rows[i + 1:] if not skip & row[0]]
        if not later:
            continue
        c = next(f for f, x in enumerate(u) if sign(x))
        p, q = (form for m, form in enumerate(_cross_forms(u, kernel)) if m != c)
        for found in group(p, q, later).values():
            total += found.bit_count()
            point = found | 1 << i
            while found:
                low = found & -found
                seen[low.bit_length() - 1] |= point
                found ^= low
    return total


def _cross_forms(u, kernel):
    """The rows of the cross-product matrix of u in K^3: row m dotted with v
    is component m of u x v, u_a v_b - u_b v_a for (a, b) = `_MINORS[3][m]`,
    so it holds u_a at b and -u_b at a."""
    neg, zero = kernel.neg, kernel.zero
    u0, u1, u2 = u
    return ((zero, neg(u2), u1), (u2, zero, neg(u0)), (neg(u1), u0, zero))


def _hodge_forms(key, kernel):
    """The four rows of the Hodge dual of the Pluecker key of a line, as
    length-4 forms: row i dotted with a normal w is coordinate i of the
    point where the line meets the hyperplane of w (`_HODGE`)."""
    forms = [[kernel.zero] * 4 for _ in _HODGE]
    for form, row in zip(forms, _HODGE):
        for p, j, s in row:
            form[j] = key[p] if s > 0 else kernel.neg(key[p])
    return forms


def _witness_key(kernel, witness):
    """The canonical key of a vertex from its vertex-pass witness: a normal
    w off a line and the line's Hodge forms, which meet in the point whose
    coordinates are the dots of w with those forms."""
    return kernel.canonical(kernel.dots(*witness))


def _rank3_char_poly(n, second):
    """Coefficients (descending) of the cubic characteristic polynomial of a
    rank-3 arrangement of n lines with sum_p (w_p - 1) = second."""
    return (1, -n, second, -(1 - n + second))


def _projective_chamber_count(char_poly) -> int:
    """Chambers of the induced decomposition of P^2: -chi(-1) / 2."""
    c3, c2, c1, c0 = char_poly
    count = -(-c3 + c2 - c1 + c0)  # minus the polynomial at -1
    if count <= 0 or count % 2:
        raise AssertionError("chamber count must be a positive even integer")
    return count // 2


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
        sets; its key is the canonical minors (`normal`, in `_MINORS` order)
        of any two members' normals."""
        if "rank2" not in self._cache:
            normal, canonical = self._kernel.normal, self._kernel.canonical
            ints = self._integer_normals()
            groups = {}
            for i, u in enumerate(ints):
                bit = 1 << i
                for j in range(i + 1, self.n):
                    key = canonical(normal((u, ints[j])))
                    groups[key] = groups.get(key, 0) | bit | 1 << j
            flats = [Flat(mask, key) for key, mask in groups.items()]
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

        The keys and flats are made on the first read, from the masks and
        point witnesses of the vertex pass; the witnesses are then dropped.
        """
        if "vertices" not in self._cache:
            kernel = self._kernel
            masks = self._vertex_pass()[0]
            witnesses = self._cache["vertex_entries"]
            self._cache["vertices"] = tuple(
                Flat(mask, _witness_key(kernel, witness))
                for mask, witness in zip(masks, witnesses)
            )
            del self._cache["vertex_entries"]
        return self._cache["vertices"]

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

        A normal w_k off the line with key q meets it in Hodge(q) w_k, the
        dots of w_k with the rows of Hodge(q) as length-4 forms
        (`_hodge_forms`).  With q_t the key's first nonzero entry, the two
        rows of the coordinates `_COMPLEMENT[t]` already fix that point on
        the line, so the P^1 key of those two dots is the hit's position; one
        `group` call per line keys the integer normals off it, less those in
        `seen` (below).  The normals with
        one position and the line's members are the vertex's members (every
        member of a vertex is on the line or meets it there).

        Each vertex is grouped once, on its first line.  Its lines are then
        walked through `_pair_lines()`: each is asserted to lie inside the
        vertex (the line of two members passes through their vertex), is
        tallied, and adds the vertex's mask to its `seen`, so later lines
        skip the vertex's members.  Two vertices on one line share no
        member off it, so every group left on a line is a new vertex with
        its full member mask.  Per vertex the pass keeps one normal off the
        line and the line's Hodge forms, a witness from which `vertices()`
        makes the point, and which names it in the weight check.

        The pass meets the vertices in member order: a vertex with lowest
        members m1 < m2 is first grouped on the line through them, which
        comes first among its lines; lines are walked in member order, and
        one line's hits are grouped in the order of their lowest member.
        """
        if "vertex_pass" in self._cache:
            return self._cache["vertex_pass"]
        kernel = self._kernel
        group_hits, sign = kernel.group, kernel.sign
        ints = self._integer_normals()
        # every normal's bit and integer form, the rows `group` takes
        normals = [(1 << k, w) for k, w in enumerate(ints)]
        lines = self._rank2()
        pair_lines = self._pair_lines()
        line_masks = [line.mask for line in lines]
        # per line: its members and those of the vertices found on it so far
        seen = line_masks[:]
        every = (1 << self.n) - 1
        masks, counts, sums, witnesses = [], [], [], []
        for index, line in enumerate(lines):
            skip = seen[index]
            if skip == every:
                continue
            key, line_mask = line.key, line.mask
            t = next(i for i, x in enumerate(key) if sign(x))
            rows = [row for row in normals if not skip & row[0]]
            forms = _hodge_forms(key, kernel)
            c, d = _COMPLEMENT[t]
            for group in group_hits(forms[c], forms[d], rows).values():
                mask = line_mask | group
                count = total = 0
                rest = mask
                while rest:  # the lines inside the vertex, each at its lowest member
                    low = rest & -rest
                    rest ^= low
                    through = pair_lines[low.bit_length() - 1]
                    todo = rest
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
                        if other_mask & -other_mask == low:
                            seen[other] |= mask
                            count += 1
                            total += other_mask.bit_count()
                masks.append(mask)
                counts.append(count)
                sums.append(total)
                witnesses.append((ints[(group & -group).bit_length() - 1], forms))
        weights = tuple(mask.bit_count() for mask in masks)
        top = self.n - 1
        for weight, witness in zip(weights, witnesses):
            if not 3 <= weight <= top:
                point = kernel.point(_witness_key(kernel, witness))
                raise AssertionError(f"vertex {point} lies on {weight} hyperplanes")
        self._cache["vertex_entries"] = witnesses
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
        """The lines inside hyperplane h, as an arrangement in K^3."""
        if not 0 <= h < self.n:
            raise IndexError(f"hyperplane index {h} out of range")
        line_keys = [flat.key for flat in self.lines() if flat.mask >> h & 1]
        return Rank3Arrangement._from_keys(self._restricted_keys(h, line_keys), self.field)

    def _restricted_keys(self, h, line_keys):
        """Canonical keys of the normals that the lines inside h induce on H_h.

        Coordinates on H_h are the coordinates other than the pivot p (the
        first nonzero one) of integer normal h.  A line through h and k
        induces the normal v_k restricted to H_h, which is proportional to
        (h_p v_f - h_f v_p) for f != p: the line's (p, f) Pluecker minors,
        read off its key with the sign flipped where f < p.  Distinct lines
        give distinct normals that span K^3; both are asserted.
        """
        neg, canonical, sign = self._kernel.neg, self._kernel.canonical, self._kernel.sign
        p = next(i for i, x in enumerate(self._integer_normals()[h]) if sign(x))
        coords = _RESTRICT[p]
        keys = [
            canonical(tuple(neg(key[i]) if flip else key[i] for i, flip in coords))
            for key in line_keys
        ]
        return _checked_keys(keys, self._kernel, f"the restriction to hyperplane {h}")

    def restriction_counts(self) -> tuple[tuple[int, int], ...]:
        """(size, projective chamber count) of the restriction to each hyperplane.

        Cached.  Each count comes from the restricted keys directly
        (`_rank3_second`); no rank-3 arrangement is built.
        """
        if "restriction_counts" not in self._cache:
            inside = [[] for _ in range(self.n)]
            for flat in self.lines():
                for h in flat.members:
                    inside[h].append(flat.key)
            counts = []
            for h, line_keys in enumerate(inside):
                keys = self._restricted_keys(h, line_keys)
                second = _rank3_second(keys, self._kernel)
                chambers = _projective_chamber_count(_rank3_char_poly(len(keys), second))
                counts.append((len(keys), chambers))
            self._cache["restriction_counts"] = tuple(counts)
        return self._cache["restriction_counts"]

    def parabolic(self, vertex: Flat) -> "Rank3Arrangement":
        """The hyperplanes through a vertex, modulo the spanned line.

        `vertex` must be one of `vertices()`.  Coordinates on the quotient
        are those other than the pivot p (the first nonzero one) of the
        vertex key, so the members' integer normals with coordinate p dropped
        are the normals; they are asserted distinct and spanning.
        """
        if not any(v is vertex for v in self.vertices()):
            raise ValueError(f"{vertex!r} is not a vertex of this arrangement")
        canonical, sign = self._kernel.canonical, self._kernel.sign
        p = next(i for i, x in enumerate(vertex.key) if sign(x))
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
        (`KERNELS[field].normal`) of B - b, read off one `dots` batch per b
        (of the basis, only b itself is off that normal).  The blocks are
        the classes of that relation; the arrangement is reducible exactly
        when there are at least two.
        """
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        kernel = self._kernel
        sign = kernel.sign
        ints = self._integer_normals()
        basis = rank_basis(ints, kernel)
        rows = [ints[b] for b in basis]
        for k, b in enumerate(basis):
            normal = kernel.normal(rows[:k] + rows[k + 1:])
            for e, x in enumerate(kernel.dots(normal, ints)):
                if sign(x):
                    union(e, b)
        blocks = {}
        for i in range(self.n):
            blocks.setdefault(find(i), []).append(i)
        parts = sorted(blocks.values(), key=lambda blk: blk[0])
        if len(parts) == 1:
            return None
        first = tuple(parts[0])
        rest = tuple(sorted(i for blk in parts[1:] for i in blk))
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
        """Coefficients (descending) of the cubic characteristic polynomial."""
        second = _rank3_second(self._integer_normals(), self._kernel)
        return _rank3_char_poly(self.n, second)

    def projective_chamber_count(self) -> int:
        """Number of chambers of the induced decomposition of P^2."""
        return _projective_chamber_count(self.char_poly())

    def corner_flats(self):
        return self.points()
