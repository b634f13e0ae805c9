"""The three objective terms on hand-built feature vectors, plus a
finite-difference audit of every analytic gradient.

The pair loss (slowness) pulls temporal neighbors together and pushes
non-neighbors apart up to a margin. The triplet loss (steadiness) applies
the same contrastive form to consecutive difference vectors, so positive
triplets are driven toward collinear, evenly spaced embeddings.
"""

import numpy as np

import ssfa
from ssfa.gradcheck import format_report, run_gradcheck

margins = ssfa.Margins(delta_pair=1.0, delta_triplet=1.0)

# slowness: a coincident positive pair costs nothing; a coincident
# negative pair costs the full margin (batches of one pair each)
a = np.array([[0.5, -0.2, 1.0]])
print("positive pair, same point:   ", ssfa.pair_loss(a, a, [1], margins).value)
print("negative pair, same point:   ", ssfa.pair_loss(a, a, [0], margins).value)
print("negative pair, far apart:    ", ssfa.pair_loss(a, a + 10, [0], margins).value)

# steadiness: collinear equally spaced triplets are free, bent ones pay
zl, zm, zn = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]])
straight = ssfa.triplet_loss(zl, zm, zn, np.array([1]), margins)
bent = ssfa.triplet_loss(zl, np.array([[1.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([1]), margins)
print(f"\ncollinear triplet loss: {straight.value}")
print(f"bent triplet loss:      {bent.value:.5f} (= sqrt(2))")

# the degenerate "map everything to one point" solution is penalized as
# soon as negatives exist: each negative pays the margin
z = np.zeros((8, 4))
p = np.array([1, 1, 1, 1, 0, 0, 0, 0])
r2 = ssfa.pair_loss(z, z.copy(), p, margins)
print(f"\nconstant feature map, half negatives: R2 = {r2.value} (margin * neg fraction)")

# every gradient in the library matches central finite differences
rows, ok = run_gradcheck(seed=0, points=20)
print("\nfinite-difference audit (h=1e-5):")
print(format_report(rows), end="")
print("all pass:", ok)
