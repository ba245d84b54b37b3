"""Reflection arrangements: generating root systems and checking the catalogue.

The five rank-4 reflection arrangements are produced by closing a simple
system under its own reflections.  Their combinatorial data lands exactly on
the embedded catalogue rows.
"""

from arr4 import builtin, f_vector, verify_row
from arr4.catalogue import REFLECTION_SPECS, reflection_closure

for name in ("A4", "D4", "B4", "F4", "H4"):
    arr = builtin(name)
    print(f"{name}: n = {arr.n} over {arr.field.value}")
    print("   h =", arr.h_vector())
    print("   t =", arr.t_vector())
    print("   f =", f_vector(arr))

# The closure needs only integer data: the Cartan matrix and the simple
# roots' mirror normals.  Rerunning it reproduces the built-in exactly.
spec = REFLECTION_SPECS["D4"]
again = reflection_closure(spec)
print("\nD4 closure reproducible:", again.normals == builtin("D4").normals)

# Restrictions of a reflection arrangement are rank-3 arrangements; for D4
# every restriction has 7 lines.
d4 = builtin("D4")
print("D4 restriction sizes:", sorted({d4.restriction(h).n for h in range(d4.n)}))
a4 = builtin("A4")
print("A4 restriction sizes:", sorted({a4.restriction(h).n for h in range(a4.n)}))

# Full verification against the stored catalogue row.
report = verify_row("A^3_1(24)")
print("\nF4 row verification passed:", report.passed)
for outcome in report.geometry:
    print(f"   {outcome.name}: {outcome.status}")
