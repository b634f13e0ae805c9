"""The desk experiment of acceptance criteria 5-7 and demos 03-05, from public calls
only: unreg, sfa2 and ssfa at 256->25->25 on the ``build_fixtures`` sets, scored by sequence
completion and linear accuracy, and coherence-only training scored by kNN after each pass."""

from dataclasses import replace

from .evaluate import build_pool, eta, knn_accuracy, linear_accuracy, make_queries, seqcomp_ranks
from .mining import MiningConfig, mine_pairs, mine_triplets
from .network import LayerSpec, init_glorot
from .trainer import TrainConfig, resolve_pairs, resolve_triplets, train, train_unsupervised

SPEC = LayerSpec((256, 25, 25))
SEEDS = (1, 2, 3, 4, 5)
METHODS = {"unreg": (0.0, 0.0), "sfa2": (3.0, 0.0), "ssfa": (3.0, 0.3)}  # (lam, lam_prime)
TRAIN = TrainConfig(lr=0.01, max_epochs=600, patience=100, batch_labeled=4, batch_pairs=64,
                    batch_triplets=64)
UNSUPERVISED = TrainConfig(lr=0.007, momentum=0.0, lam=1.0, lam_prime=0.8, batch_pairs=128,
                           batch_triplets=128)
T_SECONDS, CAPS, UNSUPERVISED_CAPS = 2.0, 6000, 2500  # mining window (s) and caps


def mined(clips, caps=CAPS):
    """(pairs, triplets) mined from ``clips`` at mining seed 0, resolved."""
    cfg = MiningConfig(T_seconds=T_SECONDS, seed=0, max_pairs=caps, max_triplets=caps)
    return (resolve_pairs(clips, mine_pairs(clips, cfg)),
            resolve_triplets(clips, mine_triplets(clips, cfg)))


def completion_draw(eval_clips):
    """The (queries, pool) of the sequence-completion test."""
    queries = make_queries(eval_clips, T_SECONDS, 100, seed=1)
    return queries, build_pool(queries, eval_clips, 5, seed=2)


def train_method(name, labeled, pairs, triplets, seed):
    """``train``'s (params, W, history) for one method of ``METHODS`` (it drops unused tuples)."""
    lam, lam_prime = METHODS[name]
    cfg = replace(TRAIN, lam=lam, lam_prime=lam_prime, seed=seed)
    return train(labeled, pairs, triplets, SPEC, cfg)


def sweep(data, seeds=SEEDS):
    """(results, (pairs, triplets, queries, pool)): per method, the "eta", "acc" and "history"
    lists over ``seeds``, "random" the untrained etas; then the tuples and draw scored on."""
    pairs, triplets = mined(data["train_clips"])
    queries, pool = completion_draw(data["eval_clips"])

    def eta_of(params):
        return eta(seqcomp_ranks(queries, pool, params), len(pool))

    out = {}
    for name in METHODS:
        runs = [train_method(name, data["labeled_train"], pairs, triplets, s) for s in seeds]
        out[name] = {"eta": [eta_of(p) for p, _, _ in runs],
                     "acc": [linear_accuracy(p, W, data["labeled_test"]) for p, W, _ in runs],
                     "history": [h for _, _, h in runs]}
    out["random"] = {"eta": [eta_of(init_glorot(SPEC, s)) for s in seeds]}
    return out, (pairs, triplets, queries, pool)


def knn_trend(data):
    """Per seed of ``SEEDS``, the kNN accuracy (k=5) of the initial network and after each
    coherence-only pass over tuples mined at the smaller caps."""
    pairs, triplets = mined(data["train_clips"], UNSUPERVISED_CAPS)
    runs = (train_unsupervised(pairs, triplets, SPEC, replace(UNSUPERVISED, seed=s), passes=3)
            for s in SEEDS)
    return [[knn_accuracy(m, data["labeled_knn_train"], data["labeled_knn_test"], k=5)
             for m in [init] + stages] for init, stages, _ in runs]
