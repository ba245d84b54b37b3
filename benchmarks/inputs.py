"""Seeded random inputs, written as canonical arrangement files.

Every draw comes from `random.Random` seeded by the workload seed and the
input's position, so the same seed gives byte-identical files.  A draw that
repeats a hyperplane is retried; a set of normals that does not span K^4 is
drawn again in full.
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd

from arr4 import Arrangement, NotEssential, emit_arrangement


def _primitive(vec):
    """Integer vector scaled to coprime entries with a positive leading entry."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    lead = next(x for x in vec if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in vec)


def near_generic(rng: random.Random, n: int, box: int) -> Arrangement:
    """n distinct hyperplanes with integer coordinates drawn from [-box, box]."""
    while True:
        seen = set()
        normals = []
        while len(normals) < n:
            vec = tuple(rng.randint(-box, box) for _ in range(4))
            if not any(vec):
                continue
            key = _primitive(vec)
            if key in seen:
                continue
            seen.add(key)
            normals.append(vec)
        try:
            return Arrangement(normals)
        except NotEssential:
            continue


def degenerate(rng: random.Random, n: int, box: int) -> Arrangement:
    """n projectively distinct hyperplanes among the primitive [-box, box] vectors."""
    pool = sorted(
        {_primitive(v) for v in product(range(-box, box + 1), repeat=4) if any(v)}
    )
    while True:
        try:
            return Arrangement(rng.sample(pool, n))
        except NotEssential:
            continue


#: name, drawing rule, n, box, and why the input is in the workload.
RANDOM_INPUTS = (
    ("generic20", near_generic, 20, 9,
     "n=20 takes chambers by the CLI default; its non-simplicial chambers "
     "have many walls (exits 1 today: the known irreducibility crash)"),
    ("generic40", near_generic, 40, 9,
     "n=40 has about 9750 vertices: the rational vertex branch and the "
     "O(V*L) incidence scan at scale, no chambers"),
    ("degenerate48", degenerate, 48, 2,
     "n=48 from [-2,2] vectors has lines up to weight 5 and vertices up to "
     "weight 15: heavy flats for the vertex and restriction layers"),
)


def random_files(seed: int):
    """(name, canonical file text, why) for each random input of the seed."""
    out = []
    for index, (name, draw, n, box, why) in enumerate(RANDOM_INPUTS):
        rng = random.Random(seed * len(RANDOM_INPUTS) + index)
        out.append((name, emit_arrangement(draw(rng, n, box)), why))
    return out
