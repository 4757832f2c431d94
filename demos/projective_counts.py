"""Counting story on tropical projective space.

A smooth degree-d hypersurface in TP^n has a complement whose homotopy Euler
characteristic equals both the Riemann-Roch number chi(O(dH)) and the number
of lattice points of the dilated simplex d*Delta_n. This script computes all
three by genuinely different routes and prints them side by side, together
with the dual statement for chi with compact supports.
"""

from math import comb

from troprr.eulercalc import chi_c_from_strata, chi_paths_from_strata, toric_strata
from troprr.hypersurface import smooth_simplex_polynomial
from troprr.toric import ProjectiveSpace


def main():
    print("degree-d hypersurfaces in TP^n: three counts, one number")
    print("=" * 64)
    for n, degrees in ((1, (1, 2, 3, 4)), (2, (1, 2, 3)), (3, (1, 2))):
        space = ProjectiveSpace(n)
        for d in degrees:
            f = smooth_simplex_polynomial(n, d)
            strata = toric_strata(f)
            path_a, path_b = chi_paths_from_strata(strata, n)
            rr = space.rr_number(d)
            count = comb(n + d, n)
            chi_c = chi_c_from_strata(strata)
            dual = space.rr_number(-d)
            print(f"n={n} d={d}:  rr={rr}  lattice={count}  "
                  f"chi paths=({path_a},{path_b})  |  "
                  f"rr(-d)={dual}  chi_c={chi_c}")
            assert rr == count == path_a == path_b
            assert dual == chi_c == (-1) ** n * comb(d - 1, n)
    print("\nEvery row agrees: the complement remembers the polytope.")


if __name__ == "__main__":
    main()
