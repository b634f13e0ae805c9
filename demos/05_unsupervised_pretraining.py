"""Purely unsupervised feature learning: no labels, no classifier.

Optimizing the coherence loss alone (slowness + steadiness on mined
tuples) makes the embedding more discriminative, measured by k-nearest-
neighbor classification on held-out labeled images after each pass over
the tuple data.
"""

import ssfa
from ssfa import desk

print("kNN accuracy (k=5) after each pass over the tuples, 5 runs:\n")
print("run   init  pass1  pass2  pass3")
for seed, accs in zip(desk.SEEDS, desk.knn_trend(ssfa.build_fixtures(7))):
    print(f"  {seed}  " + "  ".join(f"{a:.3f}" for a in accs))
print("\nfeatures improve without ever seeing a label")
