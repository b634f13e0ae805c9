"""Command-line entry point.

Subcommands: synth, fixtures, mine, train, eval-seqcomp, eval-cls,
eval-knn, gradcheck. Exit codes: 0 success, 2 usage/config error,
3 runtime/computation error. Every run with a fixed seed and fixed inputs
writes byte-identical outputs; the effective configuration is echoed to
`run_config.txt` in each output directory.

A config file (plain `key = value` lines, '#' comments) may supply any
flag's value, keyed by the flag's name without its "--" (`lambda`,
`pair-neg-ratio`); explicit flags always win. Every subcommand checks that
it can create --out, then every flag value, before it reads any input,
and writes --out only after its work has succeeded. --threads sets the
BLAS thread variables before the subcommand runs; importing the package
has loaded numpy by then, so they reach this process's BLAS pool only
when they were already set when it started.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


class CliConfigError(ValueError):
    """Bad config file or flag combination."""


def _apply_threads(threads) -> None:
    """Pin BLAS thread pools to ``threads`` (the parsed --threads, from the
    command line or the config file's ``threads`` key), overriding BLAS
    variables already set in the environment. With None, preset values
    are kept and unset ones default to 1. A count below 1 (which OpenBLAS
    reads as no cap) is a CliConfigError, raised before any variable is
    written."""
    if threads is not None and threads < 1:
        raise CliConfigError(f"--threads: expected a count >= 1, got {threads}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(threads)


def _integer(text: str) -> int:
    """The one reader of integer flags, integer config values and --hidden
    widths: an optional "-" then ASCII digits. "+3", "1_0", blanks and
    non-ASCII digits, which int() takes, are an ArgumentTypeError."""
    from .data import _decimal

    if not _decimal(text[1:] if text.startswith("-") else text):
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """The reader of --seed and the config key ``seed``: an integer >= 0, numpy's seed domain."""
    if _integer(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _real(text: str) -> float:
    """The one reader of float flags and float config values, in the form of
    a manifest's frame period (``data._REAL``): "1_0", blanks and non-ASCII
    digits, which float() takes, are an ArgumentTypeError."""
    from .data import _REAL

    if not _REAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a real number in ASCII, got {text!r}")
    return float(text)


def _parse_config_file(path: Path) -> dict:
    from .data import _significant_lines

    if not path.is_file():
        raise CliConfigError(f"config file not found: {path}")
    try:
        lines = _significant_lines(path)
    except ValueError as e:  # not text
        raise CliConfigError(str(e)) from None
    out = {}
    for lineno, line in lines:
        if "=" not in line:
            raise CliConfigError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# accepted spellings for on/off flags (store_true) in a config file
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _apply_config(parser: argparse.ArgumentParser, cfg: dict) -> None:
    # a key is a flag's name without its "--"; --help and --config are no keys
    actions = {opt[2:]: action for action in parser._actions
               if action.dest not in ("help", "config") for opt in action.option_strings}
    defaults = {}
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise CliConfigError(f"config key {key!r} is not a flag of this subcommand")
        dest = action.dest
        if isinstance(action, argparse._StoreTrueAction):
            if value not in _BOOLEANS:
                raise CliConfigError(f"config key {key!r}: expected true/false/1/0, got {value!r}")
            defaults[dest] = _BOOLEANS[value]
        elif action.type is None:
            defaults[dest] = value
        else:
            try:
                defaults[dest] = action.type(value)
            except (ValueError, argparse.ArgumentTypeError):
                raise CliConfigError(f"config key {key!r}: bad value {value!r}") from None
        if action.choices is not None and defaults[dest] not in action.choices:
            raise CliConfigError(f"config key {key!r}: {value!r} is not one of {action.choices}")
    parser.set_defaults(**defaults)


def _echo_config(args) -> Path:
    """Create ``--out`` and echo the effective configuration into its
    run_config.txt; returns ``--out`` as a Path."""
    from .data import write_atomic

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {value}" for key, value in sorted(vars(args).items())
             if key not in ("func", "config", "threads")]
    write_atomic(out / "run_config.txt", "\n".join(lines) + "\n")
    return out


def _write_report(args, name: str, config: dict, eta=None, ranks=None, accuracy=None) -> Path:
    """Echo the config into ``--out``, then write there the JSON report
    ``name`` with its four keys; returns ``--out`` as a Path."""
    from .data import write_atomic

    out = _echo_config(args)
    report = {"eta": eta, "ranks": ranks, "accuracy": accuracy or {}, "config": config}
    write_atomic(out / name, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return out


def _creatable_out(text: str) -> None:
    """Check ``--out`` before any work: it must be non-empty, a directory or
    not exist yet, and its nearest existing ancestor a writable directory."""
    probe = Path(text)
    while not probe.exists():
        probe = probe.parent
    if not text or not probe.is_dir() or not os.access(probe, os.W_OK | os.X_OK):
        raise CliConfigError(f"--out: cannot create directory {text}")


def _hidden_sizes(text: str):
    try:
        sizes = tuple(_integer(t.strip()) for t in text.split(",") if t.strip())
    except argparse.ArgumentTypeError:
        sizes = None
    if sizes is None or min(sizes, default=1) < 1:
        raise CliConfigError(f"--hidden: bad hidden layer list {text!r}, expected widths >= 1")
    return sizes


def _load_manifest(path, flag: str, labeled: bool):
    """The dataset at ``path``; a CliConfigError unless its kind is the one ``flag`` needs."""
    from .data import LabeledSet, load_manifest

    ds = load_manifest(path)
    if isinstance(ds, LabeledSet) != labeled:
        raise CliConfigError(f"{flag} {path} is not {'a' if labeled else 'an un'}labeled manifest")
    return ds


# ---------------------------------------------------------------------------
# Subcommand implementations. Their imports are deferred past thread pinning,
# but that matters only once importing the package no longer loads numpy.

def cmd_synth(args) -> int:
    from . import data, synth

    if args.clips < 0 or args.labeled_per_class < 0:
        raise ValueError("--clips and --labeled-per-class must be >= 0, got "
                         f"{args.clips} and {args.labeled_per_class}")
    if args.clips == 0 and args.labeled_per_class == 0:
        raise ValueError("nothing to generate: --clips and --labeled-per-class are both 0")
    cfg = synth.SynthConfig(
        grid=args.grid,
        clip_len=args.clip_len,
        num_clips=args.clips,
        shapes=args.shapes,
        motion_mode=args.mode,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    # generated before anything is written: a failed generation writes nothing
    clips = synth.gen_unlabeled(cfg) if args.clips > 0 else None
    labeled = synth.gen_labeled(cfg, args.labeled_per_class) if args.labeled_per_class > 0 else None
    out = _echo_config(args)
    if clips is not None:
        print(f"wrote {args.clips} clips -> {data.write_unlabeled(clips, out)}")
    if labeled is not None:
        print(f"wrote {len(labeled)} labeled images -> {data.write_labeled(labeled, out)}")
    return 0


def cmd_fixtures(args) -> int:
    from . import data, synth

    sets = synth.build_fixtures(args.seed)
    out = _echo_config(args)
    for name, ds in sorted(sets.items()):
        write = data.write_unlabeled if isinstance(ds, data.UnlabeledSet) else data.write_labeled
        print(f"{name}: {write(ds, out / name)}")
    return 0


def cmd_mine(args) -> int:
    from . import mining

    cfg = mining.MiningConfig(
        T_seconds=args.T,
        pair_neg_ratio=args.pair_neg_ratio,
        triplet_neg_ratio=args.triplet_neg_ratio,
        max_pairs=args.max_pairs,
        max_triplets=args.max_triplets,
        seed=args.seed,
    )
    u = _load_manifest(args.data, "--data", labeled=False)
    # mined before anything is written: a failed mining writes nothing
    pairs = mining.mine_pairs(u, cfg)
    triplets = mining.mine_triplets(u, cfg)
    out = _echo_config(args)
    mining.save_tuples(out / "pairs.txt", pairs, cfg)
    mining.save_tuples(out / "triplets.txt", triplets, cfg)
    for kind, tuples in (("pairs", pairs), ("triplets", triplets)):
        pos = sum(s.p for s in tuples)
        ratio = f"1:{(len(tuples) - pos) / pos:.2f}" if pos else "n/a"
        print(f"{kind}: {len(tuples)} (positives {pos}, achieved ratio {ratio})")
    return 0


_METHODS = ("unreg", "sfa1", "sfa2", "ssfa")


def _train_config(args, losses, trainer):
    lam, lam2, metric = args.lam, args.lam2, "l2"
    if args.method == "unreg":
        lam, lam2 = 0.0, 0.0
    elif args.method == "sfa1":
        lam2, metric = 0.0, "l1"
    elif args.method == "sfa2":
        lam2 = 0.0
    margins = losses.Margins(
        delta_pair=args.delta_pair, delta_triplet=args.delta_triplet, metric=metric
    )
    return trainer.TrainConfig(
        lr=args.lr,
        momentum=args.momentum,
        lam=lam,
        lam_prime=lam2,
        margins=margins,
        batch_labeled=args.batch_labeled,
        batch_pairs=args.batch_pairs,
        batch_triplets=args.batch_triplets,
        max_epochs=args.epochs,
        patience=args.patience,
        seed=args.seed,
        val_fraction=args.val_fraction,
    )


def _train_tuples(args, cfg):
    """The resolved (pairs, triplets) of ``train``'s tuple files (either None
    when not used). The samples die with this call, so none is alive while
    training runs."""
    from . import mining, trainer

    u = _load_manifest(args.unlabeled, "--unlabeled", labeled=False)
    pair_samples, trip_samples = mining.load_tuples(args.pairs)
    if args.triplets:
        more_pairs, more = mining.load_tuples(args.triplets)
        pair_samples += more_pairs
        trip_samples += more
    pairs = trainer.resolve_pairs(u, pair_samples) if pair_samples else None
    if cfg.lam_prime <= 0:
        return pairs, None
    if not trip_samples:
        raise CliConfigError("method ssfa needs triplet tuples (--triplets)")
    return pairs, trainer.resolve_triplets(u, trip_samples)


def cmd_train(args) -> int:
    from . import losses, network, trainer

    hidden = _hidden_sizes(args.hidden)
    if args.dim < 1:
        raise CliConfigError(f"--dim: expected a width >= 1, got {args.dim}")
    cfg = _train_config(args, losses, trainer)
    if cfg.lam > 0 and not (args.unlabeled and args.pairs):
        raise CliConfigError("this method needs --unlabeled and --pairs")
    labeled = _load_manifest(args.labeled, "--labeled", labeled=True)

    pairs, triplets = _train_tuples(args, cfg) if cfg.lam > 0 else (None, None)

    spec = network.LayerSpec((labeled.images[0].size,) + hidden + (args.dim,))

    if args.cv:
        cfg, log = trainer.greedy_cv(labeled, pairs, triplets, spec, base=cfg)
        print(
            f"greedy search: lr={cfg.lr} lam={cfg.lam} lam_prime={cfg.lam_prime} "
            f"delta_triplet={cfg.margins.delta_triplet}"
        )
    params, W, history = trainer.train(labeled, pairs, triplets, spec, cfg)
    # written once training has succeeded: a failed run leaves no --out behind
    out = _echo_config(args)
    if args.cv:
        trainer.write_search_log(log, out / "search_log.csv")
    network.save_checkpoint(out / "checkpoint.ckpt", params, W)
    history.to_csv(out / "history.csv")
    last = history.epochs[-1]
    print(
        f"trained {len(history.epochs)} epochs (best {history.best_epoch}): "
        f"val_loss={history.epochs[history.best_epoch - 1].val_loss:.6f} "
        f"val_acc={history.epochs[history.best_epoch - 1].val_acc:.4f} "
        f"final sup={last.loss_sup:.6f}"
    )
    return 0


def cmd_eval_seqcomp(args) -> int:
    from . import data, evaluate, network

    evaluate.check_protocol(args.T, args.queries, args.pool_n)
    params, _ = network.load_checkpoint(args.checkpoint)
    u = _load_manifest(args.unlabeled, "--unlabeled", labeled=False)
    queries = evaluate.make_queries(u, args.T, args.queries, args.seed)
    pool = evaluate.build_pool(queries, u, args.pool_n, args.seed + 1)
    ranks = evaluate.seqcomp_ranks(queries, pool, params)
    value = evaluate.eta(ranks, len(pool))
    config = {"T": args.T, "queries": len(queries), "pool_size": len(pool),
              "pool_n": args.pool_n, "seed": args.seed}
    out = _write_report(args, "seqcomp.json", config, eta=value, ranks=ranks)
    data.write_atomic(out / "ranks.csv", data._text_table("query,rank", enumerate(ranks)))
    print(f"eta = {value:.4f} over {len(queries)} queries, pool {len(pool)}")
    return 0


def cmd_eval_cls(args) -> int:
    from . import evaluate, network

    params, W = network.load_checkpoint(args.checkpoint)
    test = _load_manifest(args.test, "--test", labeled=True)
    acc = evaluate.linear_accuracy(params, W, test)
    _write_report(args, "classification.json", {"test_size": len(test)}, accuracy={"linear": acc})
    print(f"linear accuracy = {acc:.4f} on {len(test)} images")
    return 0


def cmd_eval_knn(args) -> int:
    from . import evaluate, network

    evaluate.check_protocol(k=args.k)
    params, _ = network.load_checkpoint(args.checkpoint)
    train_set = _load_manifest(args.train, "--train", labeled=True)
    test_set = _load_manifest(args.test, "--test", labeled=True)
    acc = evaluate.knn_accuracy(params, train_set, test_set, k=args.k)
    _write_report(args, "knn.json", {"train_size": len(train_set), "test_size": len(test_set)},
                  accuracy={"knn": acc, "k": args.k})
    print(f"knn accuracy (k={args.k}) = {acc:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import data, gradcheck

    rows, ok = gradcheck.run_gradcheck(seed=args.seed, points=args.points)
    text = gradcheck.format_report(rows)
    print(text, end="")
    if args.out is not None:
        data.write_atomic(_echo_config(args) / "gradcheck.csv", text)
    if not ok:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ssfa", description="Temporal-coherence feature learning toolkit."
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, func, help, out_required=True, **defaults):
        """A subparser with the flags every subcommand shares, bound to ``func``."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--threads", type=_integer,
                       help="BLAS thread cap; overrides preset OMP/OPENBLAS/MKL_NUM_THREADS "
                            "(default: keep preset values, else 1 for bit-stable runs)")
        p.add_argument("--seed", type=_seed, default=0, help="an integer >= 0")
        p.add_argument("--out", required=out_required, help="output directory")
        p.set_defaults(func=func, **defaults)
        return p

    p = add("synth", cmd_synth, "generate synthetic shape clips and labeled images")
    p.add_argument("--mode", choices=("steady", "jerky"), default="steady")
    p.add_argument("--clips", type=_integer, default=8, help="unlabeled clips; 0 writes labeled "
                   "images only")
    p.add_argument("--clip-len", type=_integer, default=20)
    p.add_argument("--grid", type=_integer, default=16)
    p.add_argument("--shapes", type=_integer, default=4)
    p.add_argument("--noise", type=_real, default=0.0)
    p.add_argument("--labeled-per-class", type=_integer, default=0)

    add("fixtures", cmd_fixtures, "write the canonical benchmark datasets", seed=7)

    p = add("mine", cmd_mine, "mine temporal pair/triplet tuples")
    p.add_argument("--data", required=True, help="unlabeled manifest")
    p.add_argument("--T", type=_real, default=2.0, help="temporal window, seconds")
    p.add_argument("--pair-neg-ratio", type=_real, default=3.0)
    p.add_argument("--triplet-neg-ratio", type=_real, default=1.0)
    p.add_argument("--max-pairs", type=_integer, default=10000)
    p.add_argument("--max-triplets", type=_integer, default=10000)

    p = add("train", cmd_train, "train a feature map and classifier")
    p.add_argument("--labeled", required=True, help="labeled manifest")
    p.add_argument("--unlabeled", help="unlabeled manifest (for resolving tuples)")
    p.add_argument("--pairs", help="mined pair tuple file")
    p.add_argument("--triplets", help="mined triplet tuple file")
    p.add_argument("--method", choices=_METHODS, default="ssfa")
    p.add_argument("--lambda", dest="lam", type=_real, default=1.0,
                   help="coherence regularization weight")
    p.add_argument("--lambda2", dest="lam2", type=_real, default=1.0,
                   help="steadiness weight inside the coherence loss")
    p.add_argument("--lr", type=_real, default=0.01)
    p.add_argument("--momentum", type=_real, default=0.9)
    p.add_argument("--delta-pair", type=_real, default=1.0)
    p.add_argument("--delta-triplet", type=_real, default=1.0)
    p.add_argument("--batch-labeled", type=_integer, default=16)
    p.add_argument("--batch-pairs", type=_integer, default=32)
    p.add_argument("--batch-triplets", type=_integer, default=32)
    p.add_argument("--epochs", type=_integer, default=150)
    p.add_argument("--patience", type=_integer, default=15)
    p.add_argument("--val-fraction", type=_real, default=0.2)
    p.add_argument("--hidden", default="25", help="hidden widths, comma separated")
    p.add_argument("--dim", type=_integer, default=25, help="feature dimension")
    p.add_argument("--cv", action="store_true", help="greedy staged hyperparameter search")

    p = add("eval-seqcomp", cmd_eval_seqcomp, "sequence completion (mean percentile rank)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--unlabeled", required=True, help="held-out clips manifest")
    p.add_argument("--T", type=_real, default=2.0)
    p.add_argument("--queries", type=_integer, default=200)
    p.add_argument("--pool-n", type=_integer, default=5,
                   help="random distractor frames per represented clip")

    p = add("eval-cls", cmd_eval_cls, "linear classifier accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="labeled manifest")

    p = add("eval-knn", cmd_eval_knn, "k-nearest-neighbor accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True, help="labeled manifest")
    p.add_argument("--test", required=True, help="labeled manifest")
    p.add_argument("--k", type=_integer, default=5)

    p = add("gradcheck", cmd_gradcheck, "finite-difference check of all loss gradients",
            out_required=False)
    p.add_argument("--points", type=_integer, default=100)

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _build_parser()
    try:
        # argparse is the only reader of argv (so abbreviated flags work);
        # a config file becomes the subcommand's defaults and argv is
        # parsed again, so explicit flags still win
        args = top.parse_args(argv)
        if args.config is not None:
            subparsers = next(a for a in top._actions
                              if isinstance(a, argparse._SubParsersAction))
            _apply_config(subparsers.choices[args.command], _parse_config_file(Path(args.config)))
            args = top.parse_args(argv)
        _apply_threads(args.threads)
        if args.out is not None:  # every subcommand's --out, checked before any work
            _creatable_out(args.out)
        return args.func(args)
    except CliConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime/computation failures
        from . import mining, trainer

        # ValueError covers the config, manifest and PGM errors
        known = (mining.MiningError, trainer.OptimizerError, trainer.SearchError, OSError,
                 ValueError, MemoryError)
        if isinstance(e, known):
            print(f"error: {e}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
