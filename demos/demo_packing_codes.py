"""Build a separated family of double-sparse sign patterns from greedy codes.

Three greedy maximal codes are combined: a packing of column-location
patterns, a packing of within-column patterns, and a q-ary code assigning
within-column patterns to the chosen columns. The assembled family is
verified to have pairwise Hamming distance at least ceil(s*s0/4), which is
what makes it useful for lower-bound experiments.
"""

import numpy as np

from doublesparse.bounds import (
    build_khatri_rao_packing,
    gv_qary_code,
    gv_sphere_packing,
    qary_code_bound,
    sphere_packing_bound,
)

# the greedy stages, shown individually first
words = gv_sphere_packing(8, 2, 1)
print(f"weight-2 words of length 8 at pairwise distance > 1: {words.shape[0]} "
      f"(counting bound {sphere_packing_bound(8, 2, 1):.1f})")

# at rho = 3, two weight-6 words are too close when they share 6 - 3 // 2 = 5
# positions
words = gv_sphere_packing(20, 6, 3)
print(f"weight-6 words of length 20 at pairwise distance > 3: {words.shape[0]} "
      f"(counting bound {sphere_packing_bound(20, 6, 3):.1f})")

code = gv_qary_code(4, 3, 2)
print(f"ternary-length code over a 4-letter alphabet at distance >= 2: "
      f"{code.shape[0]} words (bound {qary_code_bound(4, 3, 2):.1f})")

# the assembled packing
for (m, d, s, s0) in [(8, 8, 2, 2), (16, 8, 2, 2)]:
    packing = build_khatri_rao_packing(m, d, s, s0)
    print(f"\n(m={m}, d={d}, s={s}, s0={s0}):")
    print(f"  elements: {len(packing.elements)}")
    print(f"  verified min pairwise Hamming distance: "
          f"{packing.min_pairwise_hamming} (target {packing.target})")
    print(f"  stage sizes: {packing.stage_sizes}")
    print(f"  ln|set| = {packing.log_cardinality:.2f} "
          f"(required {packing.log_cardinality_bound:.2f}, "
          f"met: {packing.log_cardinality_met})")

# every element is a valid (s, s0)-sparse sign pattern
el = packing.elements[0]
print("\nfirst element of the last packing (nonzero entries):")
rows, cols = np.nonzero(el.values)
print(sorted(zip(rows.tolist(), cols.tolist())))
