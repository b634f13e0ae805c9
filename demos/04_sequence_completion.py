"""Sequence completion, query by query.

Given the first two frames of an evenly spaced triplet, extrapolate the
third frame's features as 2*z2 - z1 and rank every candidate frame by
distance to that point. With steadiness-trained features the true next
frame usually ranks first; the printout shows where it landed and which
frames beat it.
"""

import numpy as np

import ssfa

train_clips = ssfa.gen_unlabeled(ssfa.SynthConfig(num_clips=40, seed=7))
eval_clips = ssfa.gen_unlabeled(ssfa.SynthConfig(num_clips=12, seed=1007))
labeled = ssfa.gen_labeled(ssfa.SynthConfig(seed=2007), per_class=5)

mining = ssfa.MiningConfig(T_seconds=2.0, seed=0, max_pairs=6000, max_triplets=6000)
pairs = ssfa.resolve_pairs(train_clips, ssfa.mine_pairs(train_clips, mining))
triplets = ssfa.resolve_triplets(train_clips, ssfa.mine_triplets(train_clips, mining))

spec = ssfa.LayerSpec((256, 25, 25))
cfg = ssfa.TrainConfig(
    lr=0.01, lam=3.0, lam_prime=0.3, max_epochs=600, patience=100,
    batch_labeled=4, batch_pairs=64, batch_triplets=64, seed=1,
)
params, W, _ = ssfa.train(labeled, pairs, triplets, spec, cfg)
print("trained steadiness-regularized model")

queries = ssfa.make_queries(eval_clips, T_seconds=2.0, max_queries=12, seed=3)
pool = ssfa.build_pool(queries, eval_clips, n_per_video=5, seed=4)
z_pool = ssfa.embed(params, pool.frames)
ranks = ssfa.seqcomp_ranks(queries, pool, params)

print(f"\n{len(queries)} queries against a pool of {len(pool)} candidates:")
for q, rank in zip(queries, ranks):
    i1 = pool.index_of(q.clip_id, q.t1)
    i2 = pool.index_of(q.clip_id, q.t2)
    z_tilde = ssfa.extrapolate(z_pool[i1], z_pool[i2])
    d = np.linalg.norm(z_pool - z_tilde, axis=1)
    order = np.argsort(d, kind="stable")
    top = ", ".join(f"{pool.provenance[i][0]}[{pool.provenance[i][1]}]" for i in order[:3])
    print(
        f"  {q.clip_id}[{q.t1},{q.t2}] -> truth [{q.t3}] ranked {rank:2d}; top-3: {top}"
    )

print(f"\nmean percentile rank eta = {ssfa.eta(ranks, len(pool)):.2f} (chance = 50)")
