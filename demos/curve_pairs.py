"""Two curves on a toric surface: complements versus intersection numbers.

For a transverse pair of smooth tropical curves D and D' on a common toric
surface, the difference chi(X \\ D') - chi(D \\ (D' cap D)) is a purely
topological quantity -- yet it equals the Riemann-Roch number of the class
D' - D, computed in the intersection ring. This script builds seeded pairs
on the plane and on the quadric surface and compares both sides.
"""

from troprr.instances import (
    curve_pair,
    curve_pair_moderate,
    verify_curve_pair,
)
from troprr.polyhedra import LatticePolytope


def main():
    cases = [
        ("line, conic on the plane",
         LatticePolytope([(0, 0), (1, 0), (0, 1)]),
         LatticePolytope([(0, 0), (2, 0), (0, 2)]), 3),
        ("conic, cubic on the plane",
         LatticePolytope([(0, 0), (2, 0), (0, 2)]),
         LatticePolytope([(0, 0), (3, 0), (0, 3)]), 7),
        ("(1,1)- and (2,1)-curves on the quadric",
         LatticePolytope([(0, 0), (1, 0), (1, 1), (0, 1)]),
         LatticePolytope([(0, 0), (2, 0), (2, 1), (0, 1)]), 15),
    ]
    for label, q1, q2, seed in cases:
        pair = curve_pair(q1, q2, seed)
        lhs, rhs = verify_curve_pair(pair)
        moderate = curve_pair_moderate(pair)
        print(f"{label} (seed {seed}):")
        print(f"  {len(pair.points)} transverse intersection points, "
              f"moderate position: {moderate}")
        print(f"  chi(X\\D') - chi(D\\(D' cap D)) = {lhs}")
        print(f"  deg((D'-D).(D'-D-K))/2 + 1     = {rhs}")
        assert lhs == rhs and moderate == "true"
        print()
    print("Topology on the left, intersection theory on the right.")


if __name__ == "__main__":
    main()
