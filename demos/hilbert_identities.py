#!/usr/bin/env python3
# Hilbert-series identities for (partial) preprojective algebras.
#
# All series are truncated with exact integer coefficients.  The matrix
# series (1 - tC + t^2 1_black)^(-1) predicts graded dimensions; products of
# determinants give the symmetric-algebra series of the cyclic quotient.

from preproj import catalog, classify, egid_check, hilbert_prep, hT
from preproj.series import cartan_t_matrix

# --- the inverse t-Cartan matrix -----------------------------------------
# One vertex, two loop pairs: C = [4], and the series solves the three-term
# recursion c_k = 4 c_{k-1} - c_{k-2}.

h = hilbert_prep(catalog("free", 2), (), 8)
print("free(2) dims:", h.scalar_coeffs())

# For the 3-cycle the determinant of the t-Cartan matrix collapses to
# (1 - t^3)^2 -- the n-cycle always gives (1 - t^n)^2:
det = cartan_t_matrix(catalog("affine_a", 3), (), 9).determinant()
print("det(1 - tC + t^2) for the 3-cycle:", det.scalar_coeffs())

# --- corner series of the extended Dynkin types ---------------------------
# The (i0, i0) entry of the inverse matrix is the Hilbert series of the
# corner algebra i0 Pi i0; for ~E6 it equals (1 - t^4 + t^8) / ((1-t^4)(1-t^6)).

q6 = catalog("affine_e", 6)
i0 = classify(q6).extending_vertex
h6 = hilbert_prep(q6, (), 16)
k = {v: i for i, v in enumerate(q6.vertices)}[i0]
print("~E6 corner dims:", h6.entry(k, k).scalar_coeffs())

# --- the product identity --------------------------------------------------
# prod_m (1 - t^m)^{-(a_m - a_{m-2})} = (1 - t^2)^{-1} prod_m det(...)^{-1}
# holds for every extended Dynkin quiver; the engine checks it degreewise.

for name, args, D in [("affine_a", (3,), 12), ("affine_d", (5,), 12),
                      ("affine_e", (7,), 14)]:
    print(f"product identity for {name}{args}:", egid_check(catalog(name, *args), D))

# --- closed-form torsion series -------------------------------------------
# The torsion of Lambda for extended Dynkin quivers lives in a short list of
# degrees depending on the characteristic:

for fam, rank, p in [("D", 6, 2), ("E", 7, 2), ("E", 8, 3), ("E", 8, 5)]:
    degs = [d for d, c in enumerate(hT(fam, rank, p, 30).scalar_coeffs()) if c]
    print(f"torsion degrees of ~{fam}{rank} at p = {p}:", degs)
