import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from arr4 import QuadScalar, TAU
from arr4.chambers import feasible_strict
from arr4.linalg import (
    _MINORS,
    KERNELS,
    cross_forms,
    hodge_forms,
    line_forms,
    pair_dot,
    pair_point,
    pair_sign,
    pair_vector_canonical,
    pivot,
    primitive,
    rank_basis,
    restricted_minors,
    to_int_pairs,
)
from arr4.scalars import Field
from helpers import (
    _HODGE,
    POSITION,
    add_forms,
    canonicalize_vector,
    dot,
    int_rank,
    inverse_canonical,
    kernel_basis,
    rank,
    rational_canonical,
    reference_group,
    reference_meets,
)


E = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def pairs_to_quads(pairs):
    return tuple(QuadScalar(a, b) for a, b in pairs)


def pair_mul(x, y):
    """(a + b*tau)(c + d*tau) = ac + bd + (ad + bc + bd)*tau, on integer pairs."""
    a, b = x
    c, d = y
    bd = b * d
    return (a * c + bd, a * d + b * c + bd)


def test_rank_examples():
    assert rank(E) == 4
    assert rank([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]) == 2
    assert rank([]) == 0


def test_kernel_examples():
    assert kernel_basis([E[0], E[1]]) == [
        (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert kernel_basis(E) == []
    basis = kernel_basis([(1, 1, 0, 0)])
    assert len(basis) == 3
    for vec in basis:
        assert dot((1, 1, 0, 0), vec) == 0


def _random_matrix(rng, rows, cols):
    return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]


def test_rank_transpose_and_shuffle_invariance():
    rng = random.Random(11)
    for _ in range(150):
        rows = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5))
        assert rank(rows) == rank(list(zip(*rows)))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == rank(rows)


def test_kernel_vectors_annihilate():
    rng = random.Random(13)
    for _ in range(120):
        rows = _random_matrix(rng, rng.randint(1, 5), 4)
        basis = kernel_basis(rows)
        assert len(basis) == 4 - rank(rows)
        for vec in basis:
            for row in rows:
                assert dot(row, vec) == 0


def test_quadratic_kernel():
    rows = [(TAU, 1, 0, 0)]
    basis = kernel_basis(rows)
    assert len(basis) == 3
    for vec in basis:
        assert dot(rows[0], vec) == 0
        assert all(isinstance(x, QuadScalar) for x in vec)


def test_canonicalize_vector_rational():
    assert canonicalize_vector([Fraction(1, 2), Fraction(-3, 4), 0, 0],
                               Field.RATIONAL) == (2, -3, 0, 0)
    assert canonicalize_vector([-2, 4, -6, 0], Field.RATIONAL) == (1, -2, 3, 0)
    with pytest.raises(ValueError):
        canonicalize_vector([0, 0, 0, 0], Field.RATIONAL)


def test_canonicalize_vector_quadratic():
    vec = canonicalize_vector([TAU, 1, 0, QuadScalar(1, 1)], Field.QUADRATIC_TAU)
    assert vec[0] == 1
    # scaling by any nonzero field element leaves the canonical form alone
    scaled = [QuadScalar(2, -3) * x for x in vec]
    assert canonicalize_vector(scaled, Field.QUADRATIC_TAU) == vec


def test_oriented_forms_preserve_orientation():
    assert primitive((2, -4, 6), oriented=True) == (1, -2, 3)
    assert primitive((-2, 4, -6), oriented=True) == (-1, 2, -3)
    assert pair_vector_canonical(((2, 0), (-4, 0), (6, 0)), oriented=True) == (
        (1, 0), (-2, 0), (3, 0))
    assert pair_vector_canonical(((-2, 0), (4, 0), (-6, 0)), oriented=True) == (
        (-1, 0), (2, 0), (-3, 0))
    # a zero row has no oriented form: Fourier-Motzkin reads it as 0 > 0
    assert not feasible_strict([(0, 0)], KERNELS[Field.RATIONAL])
    assert not feasible_strict([((0, 0), (0, 0))], KERNELS[Field.QUADRATIC_TAU])
    ray = pair_vector_canonical(to_int_pairs((QuadScalar(0, -2), QuadScalar(4))), oriented=True)
    assert pair_sign(ray[0]) == -1


_PAIR = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(_PAIR, min_size=1, max_size=4).filter(lambda v: any(a or b for a, b in v)),
    _PAIR.filter(lambda x: x != (0, 0)),
)
def test_oriented_pair_form_follows_the_sign_of_the_scale(vec, scale):
    """Unchanged by positive Z[tau] scalars, negated by negative ones."""
    form = pair_vector_canonical(vec, oriented=True)
    # a positive multiple of its input: same projective class, same leading sign
    assert pair_vector_canonical(form) == pair_vector_canonical(vec)
    lead = next(i for i, x in enumerate(vec) if x != (0, 0))
    assert pair_sign(form[lead]) == pair_sign(vec[lead])
    scaled = [pair_mul(scale, x) for x in vec]
    expected = form if pair_sign(scale) > 0 else tuple((-a, -b) for a, b in form)
    assert pair_vector_canonical(scaled, oriented=True) == expected


def test_int_pair_arithmetic_matches_quadscalar():
    rng = random.Random(17)
    for _ in range(300):
        x = QuadScalar(Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
        y = QuadScalar(rng.randint(-30, 30), rng.randint(-30, 30))
        u = to_int_pairs([x, y])
        assert pair_sign(u[0]) == x.sign()
        assert pair_sign(u[1]) == y.sign()
        v = to_int_pairs([y, x])
        da, db = pair_dot(u, v)
        expected = x * y + y * x
        # pair vectors are positively rescaled, so only the sign is stable
        assert pair_sign((da, db)) == expected.sign()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.tuples(_PAIR, _PAIR), min_size=n,
                                                    max_size=n)))
def test_dots_match_termwise_sums(terms):
    """Both kernels' dots, written out for 2 and 3 terms, are the sums of
    the termwise products at every length."""
    u, v = zip(*terms)
    products = [pair_mul(x, y) for x, y in terms]
    assert pair_dot(u, v) == (sum(p[0] for p in products), sum(p[1] for p in products))
    assert KERNELS[Field.RATIONAL].dot([a for a, _ in u], [c for c, _ in v]) == sum(
        a * c for (a, _), (c, _) in terms
    )


def test_pair_vector_canonical_collapses_field_scalings():
    base = [TAU, QuadScalar(1, -1), QuadScalar(0), QuadScalar(3, 2)]
    key = pair_vector_canonical(to_int_pairs(base))
    for factor in (QuadScalar(-1), TAU, QuadScalar(2, -5), QuadScalar(Fraction(1, 3))):
        scaled = [factor * x for x in base]
        assert pair_vector_canonical(to_int_pairs(scaled)) == key


_SMALL = st.integers(-4, 4)


@st.composite
def _rank_rows(draw, pairs):
    """Rows of width 3 or 4 mixing free rows with zero, repeated and dependent ones."""
    width = draw(st.sampled_from((3, 4)))
    entry = st.tuples(_SMALL, _SMALL) if pairs else _SMALL
    zero = (0, 0) if pairs else 0
    base = draw(st.lists(st.tuples(*[entry] * width), min_size=1, max_size=4))
    rows = list(base)
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "combo")), max_size=4)):
        if kind == "zero":
            rows.append((zero,) * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(base)))
        else:
            coeffs = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
            combo = [zero] * width
            for c, row in zip(coeffs, base):
                for j, x in enumerate(row):
                    if pairs:
                        m = pair_mul(c, x)
                        combo[j] = (combo[j][0] + m[0], combo[j][1] + m[1])
                    else:
                        combo[j] += c * x
            rows.append(tuple(combo))
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=False))
def test_int_rank_matches_rank_on_int_rows(rows):
    assert int_rank(rows) == rank(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=True))
def test_int_rank_matches_rank_on_pair_rows(rows):
    assert int_rank(rows) == rank([pairs_to_quads(row) for row in rows])


def test_int_rank_edge_cases():
    assert int_rank([]) == 0
    assert int_rank([(0, 0, 0)]) == 0
    assert int_rank([((0, 0), (0, 0), (0, 0))]) == 0
    # 1 and tau are independent over Q but not over Q(tau)
    assert int_rank([((1, 0), (0, 1)), ((0, 1), (1, 1))]) == 1
    assert int_rank([(0, 1, 0), (0, 2, 0), (0, 0, 5)]) == 2


def _assert_first_basis(rows, field, field_rows):
    """`rank_basis` is as long as the reference rank, its rows are
    independent, and each index is the first that raises the reference rank
    of the rows up to it."""
    basis = rank_basis(rows, KERNELS[field])
    assert len(basis) == rank(field_rows)
    assert rank([field_rows[i] for i in basis]) == len(basis)
    raising = [i for i in range(len(rows)) if rank(field_rows[:i + 1]) > rank(field_rows[:i])]
    assert basis == raising


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=False))
def test_rank_basis_is_first_basis_on_int_rows(rows):
    _assert_first_basis(rows, Field.RATIONAL, rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_rank_rows(pairs=True))
def test_rank_basis_is_first_basis_on_pair_rows(rows):
    _assert_first_basis(rows, Field.QUADRATIC_TAU, [pairs_to_quads(row) for row in rows])


def test_rank_basis_edge_cases():
    for kernel in KERNELS.values():
        assert rank_basis([], kernel) == []
    rational = KERNELS[Field.RATIONAL]
    assert rank_basis([(0, 0, 0, 0), (0, 2, 0, 0), (0, 1, 0, 0), (1, 1, 1, 1)], rational) == [1, 3]
    # 1 and tau are independent over Q but not over Q(tau)
    pairs = [((1, 0), (0, 1), (0, 0)), ((0, 1), (1, 1), (0, 0)), ((0, 0), (0, 0), (2, 0))]
    assert rank_basis(pairs, KERNELS[Field.QUADRATIC_TAU]) == [0, 2]


# -- the integer point against the field-division canonical forms ----------------

_FRACTIONS = st.builds(
    Fraction, st.integers(-30, 30), st.integers(1, 12)
) | st.just(Fraction(0))


@st.composite
def _field_vectors(draw, quadratic):
    """Nonzero vectors of width 3 or 4, often with leading zeros."""
    width = draw(st.sampled_from((3, 4)))
    if quadratic:
        entry = st.builds(QuadScalar, _FRACTIONS, _FRACTIONS)
    else:
        entry = _FRACTIONS
    vec = draw(st.lists(entry, min_size=width, max_size=width))
    lead = draw(st.integers(0, width - 1))
    vec[:lead] = [0 * x for x in vec[:lead]]
    if not any(vec):
        vec[-1] = draw(entry.filter(bool))
    return tuple(vec)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(_field_vectors))
def test_integer_point_matches_inverse_canonical(vec):
    """point(canonical(ints(v))) is the Q(tau) form the scalar inverse gives."""
    kernel = KERNELS[Field.QUADRATIC_TAU]
    expected = inverse_canonical(vec)
    assert kernel.point(kernel.canonical(kernel.ints(vec))) == expected
    assert canonicalize_vector(vec, Field.QUADRATIC_TAU) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_field_vectors(quadratic=False))
def test_rational_point_matches_divided_canonical(vec):
    kernel = KERNELS[Field.RATIONAL]
    expected = rational_canonical(vec)
    assert kernel.point(kernel.canonical(kernel.ints(vec))) == expected
    assert canonicalize_vector(vec, Field.RATIONAL) == expected


# -- P^1 keys and grouping -------------------------------------------------------

_FIELDS = (Field.RATIONAL, Field.QUADRATIC_TAU)
_ZERO = {Field.RATIONAL: 0, Field.QUADRATIC_TAU: (0, 0)}
_ONE = {Field.RATIONAL: 1, Field.QUADRATIC_TAU: (1, 0)}


def _scalars(field):
    """Small integer-form scalars of the field, zero among them."""
    if field is Field.RATIONAL:
        return st.integers(-6, 6)
    return st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def _times(field, x, y):
    return x * y if field is Field.RATIONAL else pair_mul(x, y)


def _minus(field, x, y):
    return x - y if field is Field.RATIONAL else (x[0] - y[0], x[1] - y[1])


def _nonzero_factors(field):
    """Nonzero scalars, always offering -1 and, over Q(tau), tau and 1 - tau
    (irrational, the latter of norm -1)."""
    if field is Field.RATIONAL:
        must = (-1, -3)
    else:
        must = ((-1, 0), (0, 1), (1, -1), (0, -2), (-3, 2))
    return st.sampled_from(must) | _scalars(field).filter(lambda x: x != _ZERO[field])


@st.composite
def _p1_points(draw, field):
    """[x : y] with x, y not both zero; x = 0 or y = 0 often."""
    zero = _ZERO[field]
    x, y = (draw(st.just(zero) | _scalars(field)) for _ in range(2))
    if x == zero and y == zero:
        y = draw(_nonzero_factors(field))
    return x, y


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_position_keys_are_projective_classes(field, data):
    """Two points get one key exactly when x1*y2 - x2*y1 = 0, and a key does
    not change when both coordinates are scaled by a nonzero factor; the
    kernel's `group` gives the reference key."""
    position = POSITION[field]
    x1, y1 = data.draw(_p1_points(field))
    if data.draw(st.booleans()):  # a multiple of the first point
        factor = data.draw(_nonzero_factors(field))
        x2, y2 = _times(field, factor, x1), _times(field, factor, y1)
    else:
        x2, y2 = data.draw(_p1_points(field))
    same = _times(field, x1, y2) == _times(field, x2, y1)
    assert (position(x1, y1) == position(x2, y2)) is same
    factor = data.draw(_nonzero_factors(field))
    assert position(_times(field, factor, x1), _times(field, factor, y1)) == position(x1, y1)
    # [x : y] as [p.w : q.w] with p = (1, 0, 0, 0), q = (0, 1, 0, 0),
    # w = (x, y, 0, 0), and as the point where the line of P^2 of normal
    # (x, y, 0) meets the line of (0, 0, 1), whose pivot minors are x and y
    one, zero = _ONE[field], _ZERO[field]
    row = (1, (x1, y1, zero, zero))
    p, q = (one, zero, zero, zero), (zero, one, zero, zero)
    assert KERNELS[field].group(p, q, [row]) == {position(x1, y1): 1}
    row = (1, (x1, y1, zero))
    assert KERNELS[field].meets((zero, zero, one), [row]) == {position(x1, y1): 1}


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_zero_vectors_raise_value_error(field):
    kernel, zero, one = KERNELS[field], _ZERO[field], _ONE[field]
    with pytest.raises(ValueError):
        POSITION[field](zero, zero)
    with pytest.raises(ValueError, match="no position"):
        kernel.group((one, zero, zero, zero), (zero, one, zero, zero), [(1, (zero,) * 4)])
    for u in ((one, zero, zero), (zero, one, one), (zero, zero, one)):
        # a zero row, and the line itself, meet it in no point
        for v in ((zero,) * 3, u):
            with pytest.raises(ValueError, match="no position"):
                kernel.meets(u, [(1, v)])
    with pytest.raises(ValueError):
        kernel.canonical((zero,) * 3)
    with pytest.raises(ValueError):
        kernel.canonical((zero,) * 4, oriented=True)


def _random_scalar(rng, field, span=4):
    if field is Field.RATIONAL:
        return rng.randint(-span, span)
    return (rng.randint(-span, span), rng.randint(-span, span))


@pytest.mark.parametrize("terms", [3, 4])
@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_group_matches_reference_keys(field, terms):
    """Both grouping batches equal grouping the rows one at a time by the
    reference keys, on all the rows and on a random subset: `group` on rows
    (bit, w) of K^4 (terms 4), where rows with p.w = 0 take the key of
    [0 : 1], and `meets` on rows (bit, v) of K^3 (terms 3), where the rows
    whose first pivot minor is 0 take it, for a line u of every pivot."""
    rng = random.Random(1500 + 10 * terms + (field is Field.QUADRATIC_TAU))
    kernel = KERNELS[field]
    idot = kernel.dot
    zero, one = _ZERO[field], _ONE[field]
    pivots = set()
    for _ in range(60):
        if terms == 4:
            p, q = (tuple(_random_scalar(rng, field) for _ in range(terms)) for _ in range(2))
            # a row at infinity: p.w = 0 while q.w != 0, w being (p.p) q less
            # (p.q) p, unless p and q are proportional (or one of them zero)
            pp, pq = idot(p, p), idot(p, q)
            infinity = tuple(
                _minus(field, _times(field, pp, qi), _times(field, pq, pi))
                for pi, qi in zip(p, q)
            )
            second = idot(q, infinity)
            if second == zero:
                continue

            def batch(rows):
                return kernel.group(p, q, rows)

            def reference(rows):
                return reference_group(field, p, q, rows)

            def on_line(w):
                return idot(p, w) == zero and idot(q, w) == zero
        else:
            t = rng.randrange(3)
            pivots.add(t)
            u = _with_pivot(rng, field, 3, t)
            # a row at infinity: u plus the unit vector of the last
            # coordinate other than t, whose minors are 0 and u_t
            infinity = add_forms(u, tuple(one if c == (1 if t == 2 else 2) else zero
                                          for c in range(3)))
            second = u[t]

            def batch(rows):
                return kernel.meets(u, rows)

            def reference(rows):
                return reference_meets(field, u, rows)

            def on_line(v):
                return all(x == zero for x in kernel.normal((u, v)))
        rows = []
        for k in range(rng.randint(1, 40)):
            w = tuple(_random_scalar(rng, field, 2) for _ in range(terms))
            if on_line(w):
                continue
            rows.append((1 << k, w))
        rows.append((1 << 40, infinity))
        skip = rng.getrandbits(41)
        for mask in (0, skip):
            kept = [row for row in rows if not mask & row[0]]
            assert batch(kept) == reference(kept)
        assert POSITION[field](zero, second) in batch(rows)
        # rows of bit 0: the keys alone
        plain = [(0, w) for _, w in rows]
        assert batch(plain).keys() == reference(rows).keys()
        # a zero row raises (the lattice passes leave a line's members out)
        zero_row = (1 << 41, (zero,) * terms)
        with pytest.raises(ValueError, match="no position"):
            batch(rows + [zero_row])
    assert terms == 4 or pivots == {0, 1, 2}


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_normal_matches_rank(field, length):
    """`normal` of k = 1 ... length - 1 rows has one entry per k x k minor
    and is nonzero exactly when `int_rank` finds the rows independent; for
    length - 1 rows it is orthogonal to every row.  Dependent rows (a zero
    row for k = 1; a repeated row, a row times 1 + tau or -3, the sum of two
    rows) give zero."""
    rng = random.Random(1600 + 10 * length + (field is Field.QUADRATIC_TAU))
    kernel, zero = KERNELS[field], _ZERO[field]
    unit = -3 if field is Field.RATIONAL else (1, 1)
    for need in range(1, length):
        dependent = 0
        for _ in range(300):
            rows = [
                tuple(_random_scalar(rng, field, 2) for _ in range(length)) for _ in range(need)
            ]
            kind = rng.randrange(4)
            if kind and need == 1:  # a zero row
                rows[0] = (zero,) * length
            elif kind == 1:  # a repeated row
                rows[-1] = rows[0]
            elif kind == 2:  # a row times a unit
                rows[-1] = tuple(_times(field, unit, x) for x in rows[0])
            elif kind == 3 and need == 3:  # the sum of two rows
                rows[-1] = add_forms(rows[0], rows[1])
            rng.shuffle(rows)
            normal = kernel.normal(rows)
            assert len(normal) == comb(length, need)
            if need == length - 1:
                assert all(kernel.dot(normal, row) == zero for row in rows)
            independent = int_rank(rows) == need
            assert any(x != zero for x in normal) is independent
            if kind and (need == 1 or kind < 3 or need == 3):
                assert not independent
                dependent += 1
        assert dependent > 100


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_normal_of_two_rows_in_minors_order(field, length):
    """`normal((u, v))` is the minors u_a v_b - u_b v_a over `_MINORS[length]`,
    the order in which `_COMPLEMENT`, `_RESTRICT` and `_HODGE` index line
    keys; one row is its own normal."""
    rng = random.Random(1650 + 10 * length + (field is Field.QUADRATIC_TAU))
    kernel = KERNELS[field]
    for _ in range(100):
        u, v = (tuple(_random_scalar(rng, field) for _ in range(length)) for _ in range(2))
        minors = tuple(
            _minus(field, _times(field, u[a], v[b]), _times(field, u[b], v[a]))
            for a, b in _MINORS[length]
        )
        assert kernel.normal((u, v)) == minors
        assert kernel.normal((u,)) == u


def _with_pivot(rng, field, length, t):
    """A random integer form of the field whose first nonzero entry is t."""
    zero = _ZERO[field]
    form = [zero] * t + [_random_scalar(rng, field) for _ in range(length - t)]
    while form[t] == zero:
        form[t] = _random_scalar(rng, field)
    return tuple(form)


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_line_forms_match_reference_tables(field):
    """`line_forms` picks the two rows at the coordinates off the key's
    pivot: for a Pluecker key with pivot t in 0-5, the rows of the Hodge
    dual built from the reference `_HODGE` off the pair `_MINORS[4][t]`.
    For a K^3 normal u with pivot c in 0-2, `meets` groups its rows as the
    rows other than c of the cross-product matrix defined by `_MINORS[3]`
    place them on P^1: one group per point, in the order of first rows.
    `hodge_forms` and `cross_forms` are those full tables, and
    `restricted_minors` at pivot p the minors (p, f) read through
    `_MINORS[4]`, flipped where f < p."""
    rng = random.Random(1800 + (field is Field.QUADRATIC_TAU))
    kernel = KERNELS[field]
    neg, zero = kernel.neg, kernel.zero
    for t in range(6):
        for _ in range(20):
            key = _with_pivot(rng, field, 6, t)
            hodge = [[zero] * 4 for _ in _HODGE]
            for form, row in zip(hodge, _HODGE):
                for p, j, s in row:
                    form[j] = key[p] if s > 0 else neg(key[p])
            hodge = tuple(map(tuple, hodge))
            assert hodge_forms(key, kernel) == hodge
            c, d = (f for f in range(4) if f not in _MINORS[4][t])
            assert line_forms(key, kernel) == (hodge[c], hodge[d])
            for p in range(4):
                expected = []
                for f in range(4):
                    if f != p:
                        x = key[_MINORS[4].index((min(p, f), max(p, f)))]
                        expected.append(neg(x) if f < p else x)
                assert restricted_minors(key, p, kernel) == tuple(expected)
    for c in range(3):
        for _ in range(20):
            u = _with_pivot(rng, field, 3, c)
            cross = []
            for a, b in _MINORS[3]:  # row m . v = u_a v_b - u_b v_a
                row = [zero] * 3
                row[b], row[a] = u[a], neg(u[b])
                cross.append(tuple(row))
            assert cross_forms(u, kernel) == tuple(cross)
            # rows off the line u, with repeats of their points: v plus a multiple of u
            rows = []
            for k in range(12):
                v = tuple(_random_scalar(rng, field, 2) for _ in range(3))
                if k % 3 == 2 and rows:
                    v = add_forms(rows[-1][1], u)
                if any(x != zero for x in kernel.normal((u, v))):
                    rows.append((1 << k, v))
            off_pivot = [row for m, row in enumerate(cross) if m != c]
            expected = reference_group(field, *off_pivot, rows)
            assert list(kernel.meets(u, rows).values()) == list(expected.values())


@pytest.mark.parametrize("length", [3, 4])
@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
def test_signs_match_dot(field, length):
    """`dots` is `dot` with each form, so its signs are the signs of `dot`,
    zero dots among them."""
    rng = random.Random(1700 + 10 * length + (field is Field.QUADRATIC_TAU))
    kernel, zero = KERNELS[field], _ZERO[field]
    zeros = 0
    for _ in range(100):
        v = tuple(_random_scalar(rng, field, 2) for _ in range(length))
        forms = [tuple(_random_scalar(rng, field, 2) for _ in range(length)) for _ in range(20)]
        forms.append((v[1], kernel.neg(v[0])) + (zero,) * (length - 2))  # orthogonal to v
        dots = [kernel.dot(v, f) for f in forms]
        assert kernel.dots(v, forms) == dots
        expected = [kernel.sign(x) for x in dots]
        assert list(map(kernel.sign, kernel.dots(v, forms))) == expected
        zeros += expected.count(0)
    assert zeros >= 100


# -- the written-out kernels as properties ------------------------------------------
#
# These take their example budget from the loaded hypothesis profile
# (tests/conftest.py): derandomized in tier-1, larger and randomized under
# `pytest --hypothesis-profile=search -k kernel_property`.


@st.composite
def _line_and_rows(draw, field, t):
    """A line u of P^2 of pivot t and rows (bit, v) off it, which often
    repeat an earlier row's point: a nonzero multiple of that row plus a
    multiple of u."""
    kernel, zero = KERNELS[field], _ZERO[field]
    entry = st.just(zero) | _scalars(field)
    u = (zero,) * t + (draw(_nonzero_factors(field)),) + draw(st.tuples(*[entry] * (2 - t)))
    rows = []
    draws = st.tuples(
        st.integers(-12, 11), _nonzero_factors(field), entry, st.tuples(entry, entry, entry)
    )
    for k, (earlier, factor, shift, v) in enumerate(draw(st.lists(draws, min_size=1, max_size=12))):
        if rows and earlier >= 0:
            w = rows[earlier % len(rows)][1]
            v = add_forms(
                tuple(_times(field, factor, x) for x in w),
                tuple(_times(field, shift, x) for x in u),
            )
        if any(x != zero for x in kernel.normal((u, v))):
            rows.append((1 << k, v))
    return u, rows


@pytest.mark.parametrize("field", _FIELDS, ids=lambda f: f.value)
@given(data=st.data())
def test_kernel_property_meets_groups_as_rank2(field, data):
    """`meets` groups the rows (bit, v) off a line u of P^2 as `_rank2()`
    keys the points of P^2, by the canonical cross product normal((u, v)):
    one group per point, in the order of the groups' first rows.  Each
    example takes a line of each pivot 0, 1 and 2 (`_line_and_rows`)."""
    kernel = KERNELS[field]
    for t in range(3):
        u, rows = data.draw(_line_and_rows(field, t))
        assert pivot(u, kernel) == t
        expected = {}
        for bit, v in rows:
            key = kernel.canonical(kernel.normal((u, v)))
            expected[key] = expected.get(key, 0) | bit
        assert list(kernel.meets(u, rows).values()) == list(expected.values())


@pytest.mark.parametrize("length", [3, 4, 6])
@given(data=st.data())
def test_kernel_property_canonical_matches_loop(length, data):
    """`pair_vector_canonical` at the written-out lengths 3 and 6 (and the
    loop at 4) against the generic loop, which the oriented form runs at
    every length: the unoriented key is the oriented one with its rational
    lead made positive.  Its point is `canonicalize_vector`'s, a nonzero
    factor leaves it alone, and the oriented form keeps the lead's sign.
    Vectors have leading zeros and leads of negative norm (tau, 1 - tau)."""
    zeros = data.draw(st.integers(0, length - 1))
    lead = data.draw(_nonzero_factors(Field.QUADRATIC_TAU))
    rest = tuple(data.draw(_scalars(Field.QUADRATIC_TAU)) for _ in range(length - zeros - 1))
    vec = ((0, 0),) * zeros + (lead,) + rest
    key = pair_vector_canonical(vec)
    oriented = pair_vector_canonical(vec, oriented=True)
    a, b = oriented[zeros]
    assert a and not b
    assert key == (oriented if a > 0 else tuple((-x, -y) for x, y in oriented))
    assert key[:zeros] == vec[:zeros] and key[zeros][0] > 0
    assert pair_sign(oriented[zeros]) == pair_sign(lead)
    assert pair_point(key) == canonicalize_vector(pairs_to_quads(vec), Field.QUADRATIC_TAU)
    factor = data.draw(_nonzero_factors(Field.QUADRATIC_TAU))
    scaled = tuple(pair_mul(factor, x) for x in vec)
    assert pair_vector_canonical(scaled) == key
    flipped = oriented if pair_sign(factor) > 0 else tuple((-x, -y) for x, y in oriented)
    assert pair_vector_canonical(scaled, oriented=True) == flipped


@given(data=st.data())
def test_kernel_property_order_matches_points(data):
    """`order` over Q(tau) sorts vectors as their field points sort: for
    every pair, order(v) < order(w) exactly when point(v) < point(w), and
    sorting by either gives one list, on random keys and on raw vectors
    (leads of any norm) of length 3 or 4 with leading zeros."""
    kernel = KERNELS[Field.QUADRATIC_TAU]
    length = data.draw(st.sampled_from((3, 4)))
    entry = st.just((0, 0)) | _scalars(Field.QUADRATIC_TAU)
    vectors = data.draw(st.lists(
        st.tuples(*[entry] * length).filter(lambda v: any(x != (0, 0) for x in v)),
        min_size=1, max_size=12,
    ))
    keys = [kernel.canonical(v) for v in vectors]
    for group in (vectors, keys):
        assert sorted(group, key=kernel.order) == sorted(group, key=kernel.point)
        for v in group:
            for w in group:
                assert (kernel.order(v) < kernel.order(w)) is (kernel.point(v) < kernel.point(w))
