"""Chamber geometry: diagrams, simpliciality, irreducibility.

Chambers come out of a breadth-first walk that flips one wall at a time.
Each chamber records its sign vector, its walls and an exact interior
witness point.  The Coxeter diagram at a chamber determines whether the
arrangement is simply laced and, through connectivity, irreducible.
"""

from collections import Counter

from arr4 import (
    Arrangement,
    builtin,
    coxeter_diagram,
    enumerate_chambers,
    is_irreducible_diagrams,
    is_simplicial,
    is_simply_laced,
)
from arr4.scalars import sign

a4 = builtin("A4")
chambers = enumerate_chambers(a4)
print("A4 chambers:", len(chambers))

ch = chambers[0]
print("sample chamber walls:", ch.walls)
print("witness point:", ch.witness)
print("witness realizes the sign vector:",
      tuple(sign(sum(x * y for x, y in zip(v, ch.witness))) for v in a4.normals)
      == ch.signs)

shapes = Counter(coxeter_diagram(a4, c).canonical_key() for c in chambers)
print("diagram shapes:", dict(shapes))

d4 = builtin("D4")
print("\nD4 diagram shapes:",
      dict(Counter(coxeter_diagram(d4, c).canonical_key()
                   for c in enumerate_chambers(d4))))

for name in ("A4", "D4", "B4", "F4"):
    arr = builtin(name)
    print(f"{name}: simplicial={is_simplicial(arr)}",
          f"simply_laced={is_simply_laced(arr)}",
          f"irreducible={is_irreducible_diagrams(arr)}")

# A fifth hyperplane in general position ruins simpliciality: some chambers
# pick up a fifth wall.
generic = Arrangement(
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 2, 3, 5)]
)
counts = Counter(len(c.walls) for c in enumerate_chambers(generic))
print("\ngeneric 5th hyperplane, walls per chamber:", dict(sorted(counts.items())))
print("simplicial:", is_simplicial(generic))
