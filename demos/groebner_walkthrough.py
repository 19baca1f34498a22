#!/usr/bin/env python3
# Noncommutative Groebner machinery over Z, end to end.
#
# The engine completes two-sided ideals in path algebras under graded-lex
# orders (degree = word length), insisting on +-1 leading coefficients so
# that normal forms are honest over the integers.

from preproj import MonomialOrder, catalog, complete
from preproj.freealg import PathContext, free_context, preprojective_relation

# --- star presentations of the E-type corner algebras --------------------
# The corner algebra of a star-shaped quiver at its hub is the free algebra
# on one letter per branch, modulo x_i^(d_i + 1) and the sum of the letters.
# Completion reproduces compact rewrite systems; the ~E8 one is the famous
# seven-element set with the lone coefficient 2.

for label, exps, bound in [("~E6", (3, 3, 3), 12), ("~E7", (4, 4, 2), 12),
                           ("~E8", (6, 3, 2), 14)]:
    ctx = free_context(["x", "y", "z"])
    x, y, z = ctx.letters()
    gens = [x ** exps[0], y ** exps[1], z ** exps[2], x + y + z]
    sys_ = complete(gens, MonomialOrder(ctx), bound)
    print(f"--- {label}: ideal ((x^{exps[0]}, y^{exps[1]}, z^{exps[2]}, x+y+z))")
    print(sys_.export_text())
    print()

# --- preprojective relations of a whole quiver ----------------------------
# The same engine completes the local relations e_i r e_i of any quiver.
# Normal-word counts then give exact graded dimensions; for the 3-cycle the
# count grows linearly, 3 (d + 1) paths in each degree d... summed over all
# endpoint pairs:

q = catalog("affine_a", 3)
ctx = PathContext(q)
sys_ = complete(preprojective_relation(ctx), MonomialOrder(ctx), 10)
counts = sys_.normal_count_matrix(10)
print("~A2 preprojective algebra, total dimension per degree:")
print("  ", [sum(map(sum, counts[d])) for d in range(11)])

# Individual graded pieces are enumerable too: the paths 0 -> 0 of degree 6
mons = sys_.normal_monomials(0, 0, 6)
print("degree-6 normal loops at vertex 0:", len(mons))
