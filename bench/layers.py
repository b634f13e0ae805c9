"""Which public functions of each layer the traced run wraps, the counts
taken at those boundaries, and how the per-layer metrics follow from the
recorded spans.

Span names are ``<module>.<function>``; a CLI subcommand records as
``cli.<subcommand>``. Times are inclusive unless the metric says self
(duration minus the time covered by traced children). Inclusive group
times count only spans whose parent is outside the group, so nested calls
(``load_manifest`` -> ``load_pgm``) are not counted twice.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

from checks import corpus_counts
from tracer import self_times

CLI_SUBCOMMANDS = ("synth", "mine", "train", "eval-seqcomp", "eval-cls", "eval-knn")


def _add(counter, amount_fn):
    def count(tr, args, kwargs, result):
        tr.add(counter, amount_fn(args, result))
    return count


def _macs(params) -> int:
    return sum(w.size for w in params.weights)


def _forward(tr, args, kwargs, result):
    z = result[0]
    rows = z.shape[0] if z.ndim == 2 else 1
    tr.add("network.forward_rows", rows)
    tr.add("network.flop", 2 * rows * _macs(args[0]))


def _backward(tr, args, kwargs, result):
    # dW = delta.T @ input and delta @ W for every layer: two GEMMs per layer
    tr.add("network.flop", 4 * args[1].x.shape[0] * _macs(args[0]))


def _mined(kind):
    def count(tr, args, kwargs, result):
        from ssfa.mining import window_frames

        u, cfg = args[0], args[1]
        clips = [(len(c.frames), window_frames(cfg.T_seconds, c.frame_period)) for c in u.clips]
        tr.add("mining.candidates", sum(corpus_counts(clips, kind)))
        tr.add("mining.kept", len(result))
    return count


def _file_written(path_of):
    def count(tr, args, kwargs, result):
        tr.add("data.files_written", 1)
        tr.add("data.bytes_written", os.stat(path_of(args, result)).st_size)
    return count


def _file_read(tr, args, kwargs, result):
    tr.add("data.files_read", 1)
    tr.add("data.bytes_read", os.stat(args[0]).st_size)


def _resolved(tr, args, kwargs, result):
    arrays = result[:-1]
    tr.add("trainer.resolved_rows", sum(a.shape[0] for a in arrays))
    tr.add("trainer.resolved_bytes", sum(a.nbytes for a in result))


def targets():
    """(owner module, function, span name, count callback) for every
    traced boundary."""
    from ssfa import cli, data, evaluate, losses, mining, network, synth, trainer

    return [
        (synth, "gen_unlabeled", "synth.gen_unlabeled", None),
        (synth, "gen_labeled", "synth.gen_labeled", None),
        (data, "prep_stack", "data.prep_stack", _add("data.prep_rows", lambda a, r: r.shape[0])),
        (data, "save_pgm", "data.save_pgm", _file_written(lambda a, r: a[1])),
        (data, "write_unlabeled", "data.write_unlabeled", _file_written(lambda a, r: r)),
        (data, "write_labeled", "data.write_labeled", _file_written(lambda a, r: r)),
        (data, "load_pgm", "data.load_pgm", _file_read),
        (data, "load_manifest", "data.load_manifest", _file_read),
        (mining, "mine_pairs", "mining.mine_pairs", _mined("pair")),
        (mining, "mine_triplets", "mining.mine_triplets", _mined("triplet")),
        (mining, "save_tuples", "mining.save_tuples", None),
        (mining, "load_tuples", "mining.load_tuples", None),
        (trainer, "resolve_pairs", "trainer.resolve_pairs", _resolved),
        (trainer, "resolve_triplets", "trainer.resolve_triplets", _resolved),
        (trainer, "train", "trainer.train", _add("trainer.epochs", lambda a, r: len(r[2].epochs))),
        (trainer, "train_unsupervised", "trainer.train_unsupervised",
         _add("trainer.epochs", lambda a, r: len(r[1]))),
        (trainer, "nesterov_step", "trainer.nesterov_step", None),
        (losses, "total_objective", "losses.total_objective", None),
        (losses, "coherence_objective", "losses.coherence_objective", None),
        (losses, "softmax_loss", "losses.softmax_loss", None),
        (losses, "pair_loss", "losses.pair_loss", None),
        (losses, "triplet_loss", "losses.triplet_loss", None),
        (network, "forward", "network.forward", _forward),
        (network, "backward", "network.backward", _backward),
        (network, "save_checkpoint", "network.save_checkpoint", None),
        (network, "load_checkpoint", "network.load_checkpoint", None),
        (evaluate, "embed", "evaluate.embed", _add("evaluate.embed_rows", lambda a, r: r.shape[0])),
        (evaluate, "seqcomp_ranks", "evaluate.seqcomp_ranks",
         _add("evaluate.queries", lambda a, r: len(r))),
        (evaluate, "knn_accuracy", "evaluate.knn_accuracy",
         _add("evaluate.knn_distances", lambda a, r: len(a[1]) * len(a[2]))),
        (cli, "main", lambda args: f"cli.{args[0][0]}", None),
    ]


def install(tracer) -> None:
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ssfa" or name.startswith("ssfa."))]
    tracer.install(modules, targets())


# metric -> span names whose inclusive time it sums
INCLUSIVE = {
    "synth.gen_s": ("synth.gen_unlabeled", "synth.gen_labeled"),
    "data.prep_stack_s": ("data.prep_stack",),
    "data.write_s": ("data.save_pgm", "data.write_unlabeled", "data.write_labeled"),
    "data.read_s": ("data.load_pgm", "data.load_manifest"),
    "mining.mine_s": ("mining.mine_pairs", "mining.mine_triplets"),
    "mining.tuple_io_s": ("mining.save_tuples", "mining.load_tuples"),
    "trainer.resolve_s": ("trainer.resolve_pairs", "trainer.resolve_triplets"),
    "losses.softmax_s": ("losses.softmax_loss",),
    "losses.pair_s": ("losses.pair_loss",),
    "losses.triplet_s": ("losses.triplet_loss",),
    "network.forward_s": ("network.forward",),
    "network.backward_s": ("network.backward",),
    "network.checkpoint_io_s": ("network.save_checkpoint", "network.load_checkpoint"),
    "evaluate.embed_s": ("evaluate.embed",),
}

# metric -> span names whose self time it sums
SELF = {
    "trainer.nesterov_self_s": ("trainer.nesterov_step",),
    "trainer.loop_self_s": ("trainer.train", "trainer.train_unsupervised"),
    "losses.objective_self_s": ("losses.total_objective", "losses.coherence_objective"),
    "evaluate.rank_s": ("evaluate.seqcomp_ranks",),
    "evaluate.knn_s": ("evaluate.knn_accuracy",),
    "cli.self_s": tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS),
    **{f"cli.{c}.self_s": (f"cli.{c}",) for c in CLI_SUBCOMMANDS},
}

# metric -> span name whose calls it counts
CALLS = {
    "trainer.steps": "trainer.nesterov_step",
    "losses.softmax_calls": "losses.softmax_loss",
    "losses.pair_calls": "losses.pair_loss",
    "losses.triplet_calls": "losses.triplet_loss",
    "network.forward_calls": "network.forward",
    "network.backward_calls": "network.backward",
}

COUNTERS = (
    "data.prep_rows", "data.files_written", "data.bytes_written", "data.files_read",
    "data.bytes_read", "mining.candidates", "mining.kept", "trainer.resolved_rows",
    "trainer.epochs", "network.forward_rows", "evaluate.embed_rows", "evaluate.queries",
    "evaluate.knn_distances",
)

# deterministic per seed: two traced runs must agree exactly
COUNTS = COUNTERS + tuple(CALLS) + (
    "mining.kept_per_candidate", "trainer.resolved_mb", "network.gflop",
)


def derive(tracer) -> dict:
    """Per-layer metrics from one traced run (``trace.overhead_s`` is added
    by the caller, which also holds the untraced timings)."""
    names, name_id, start, end, parent = tracer.spans()
    own = self_times(start, end, parent)
    span_name = [names[i] for i in name_id]
    inclusive, self_sum, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    validate = 0.0
    group_of = {n: m for m, group in INCLUSIVE.items() for n in group}
    for i, name in enumerate(span_name):
        p = parent[i]
        pname = span_name[p] if p >= 0 else None
        metric = group_of.get(name)
        if metric and group_of.get(pname) != metric:
            inclusive[metric] += end[i] - start[i]
        self_sum[name] += own[i]
        calls[name] += 1
        if pname == "trainer.train" and name in ("network.forward", "losses.softmax_loss"):
            validate += end[i] - start[i]

    out = {m: inclusive[m] for m in INCLUSIVE}
    out.update({m: sum(self_sum[n] for n in group) for m, group in SELF.items()})
    out.update({m: calls[n] for m, n in CALLS.items()})
    out.update({c: tracer.counters.get(c, 0) for c in COUNTERS})
    out["trainer.validate_s"] = validate
    cand = out["mining.candidates"]
    out["mining.kept_per_candidate"] = out["mining.kept"] / cand if cand else 0.0
    out["trainer.resolved_mb"] = tracer.counters.get("trainer.resolved_bytes", 0) / 1e6
    flop = tracer.counters.get("network.flop", 0)
    out["network.gflop"] = flop / 1e9
    busy = out["network.forward_s"] + out["network.backward_s"]
    out["network.gflops_per_s"] = flop / 1e9 / busy if busy else 0.0
    return out
