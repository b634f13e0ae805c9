"""Sequence completion, query by query.

Given the first two frames of an evenly spaced triplet, extrapolate the
third frame's features as 2*z2 - z1 and rank every candidate frame by
distance to that point. With steadiness-trained features the true next
frame usually ranks first; the printout shows where it landed and which
frames beat it.
"""

import numpy as np

import ssfa
from ssfa import desk

data = ssfa.build_fixtures(7)
eval_clips = data["eval_clips"]
params, W, _ = desk.train_method("ssfa", data["labeled_train"], *desk.mined(data["train_clips"]),
                                 seed=1)
print("trained steadiness-regularized model")

queries = ssfa.make_queries(eval_clips, T_seconds=desk.T_SECONDS, max_queries=12, seed=3)
pool = ssfa.build_pool(queries, eval_clips, n_per_video=5, seed=4)
z_pool = ssfa.embed(params, pool.frames)
ranks = ssfa.seqcomp_ranks(queries, pool, params)


def where(row):
    """(clip id, frame number) of a corpus row."""
    c = int(np.searchsorted(eval_clips.starts, row, "right")) - 1
    return eval_clips.clips[c].clip_id, int(row - eval_clips.starts[c])


print(f"\n{len(queries)} queries against a pool of {len(pool)} candidates:")
position = {row: i for i, row in enumerate(pool.rows.tolist())}
for (r1, r2, r3), rank in zip(queries.tolist(), ranks):
    z_tilde = ssfa.extrapolate(z_pool[position[r1]], z_pool[position[r2]])
    d = np.linalg.norm(z_pool - z_tilde, axis=1)
    order = np.argsort(d, kind="stable")
    top = ", ".join("{}[{}]".format(*where(pool.rows[i])) for i in order[:3])
    (clip_id, t1), (_, t2), (_, t3) = where(r1), where(r2), where(r3)
    print(f"  {clip_id}[{t1},{t2}] -> truth [{t3}] ranked {rank:2d}; top-3: {top}")

print(f"\nmean percentile rank eta = {ssfa.eta(ranks, len(pool)):.2f} (chance = 50)")
