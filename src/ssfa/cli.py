"""Command-line entry point.

Subcommands: synth, fixtures, mine, train, eval-seqcomp, eval-cls,
eval-knn, gradcheck. Exit codes: 0 success, 2 usage/config error,
3 runtime/computation error. Every run with a fixed seed and fixed inputs
writes byte-identical outputs; the effective configuration is echoed to
`run_config.txt` in each output directory.

A config file (plain `key = value` lines, '#' comments) may supply any
flag's value; explicit flags always win. Heavy imports happen after
--threads is applied so BLAS thread pools are pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


class CliConfigError(ValueError):
    """Bad config file or flag combination."""


def _apply_threads(argv, config_threads=None) -> None:
    """Pin BLAS thread pools before numpy loads. The thread count comes from
    an explicit --threads, else ``config_threads`` (the config file's
    ``threads`` key); either overrides BLAS variables already set in the
    environment. Without both, preset values are kept and unset ones
    default to 1."""
    threads = config_threads
    for i, a in enumerate(argv):
        if a == "--threads" and i + 1 < len(argv):
            threads = argv[i + 1]
        elif a.startswith("--threads="):
            threads = a.split("=", 1)[1]
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = threads


def _parse_config_file(path: Path) -> dict:
    if not path.is_file():
        raise CliConfigError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliConfigError(f"{path}: line {lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# config keys match flag names; a couple of flags use short dests
_DEST_ALIASES = {"lambda": "lam", "lambda2": "lam2"}

# accepted spellings for on/off flags (store_true) in a config file
_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _apply_config(parser: argparse.ArgumentParser, cfg: dict) -> None:
    actions = {action.dest: action for action in parser._actions}
    defaults = {}
    for key, value in cfg.items():
        dest = _DEST_ALIASES.get(key, key.replace("-", "_"))
        action = actions.get(dest)
        if action is None:
            raise CliConfigError(f"config key {key!r} is not a flag of this subcommand")
        if isinstance(action, argparse._StoreTrueAction):
            if value not in _BOOLEANS:
                raise CliConfigError(f"config key {key!r}: expected true/false/1/0, got {value!r}")
            defaults[dest] = _BOOLEANS[value]
        elif action.type is None:
            defaults[dest] = value
        else:
            try:
                defaults[dest] = action.type(value)
            except ValueError:
                raise CliConfigError(f"config key {key!r}: bad value {value!r}") from None
    parser.set_defaults(**defaults)


def _echo_config(args, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    skip = {"func", "config", "threads"}
    lines = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    from .data import write_atomic

    write_atomic(out_dir / "run_config.txt", "\n".join(lines) + "\n")


def _hidden_sizes(text: str):
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise CliConfigError(f"bad hidden layer list {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommand implementations (imports deferred until after thread pinning)

def cmd_synth(args) -> int:
    from . import data, synth

    cfg = synth.SynthConfig(
        grid=args.grid,
        clip_len=args.clip_len,
        num_clips=args.clips,
        shapes=args.shapes,
        motion_mode=args.mode,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    out = Path(args.out)
    _echo_config(args, out)
    if args.clips > 0:
        manifest = data.write_unlabeled(synth.gen_unlabeled(cfg), out)
        print(f"wrote {args.clips} clips -> {manifest}")
    if args.labeled_per_class > 0:
        labeled = synth.gen_labeled(cfg, args.labeled_per_class)
        manifest = data.write_labeled(labeled, out, "labeled.txt")
        print(f"wrote {len(labeled)} labeled images -> {manifest}")
    return 0


def cmd_fixtures(args) -> int:
    from . import data, synth

    out = Path(args.out)
    _echo_config(args, out)
    sets = synth.build_fixtures(args.seed)
    for name, ds in sorted(sets.items()):
        sub = out / name
        if isinstance(ds, data.UnlabeledSet):
            manifest = data.write_unlabeled(ds, sub)
        else:
            manifest = data.write_labeled(ds, sub, "labeled.txt")
        print(f"{name}: {manifest}")
    return 0


def cmd_mine(args) -> int:
    from . import data, mining

    u = data.load_manifest(args.data)
    if not isinstance(u, data.UnlabeledSet):
        raise CliConfigError(f"{args.data} is a labeled manifest; mining needs clips")
    cfg = mining.MiningConfig(
        T_seconds=args.T,
        pair_neg_ratio=args.pair_neg_ratio,
        triplet_neg_ratio=args.triplet_neg_ratio,
        max_pairs=args.max_pairs,
        max_triplets=args.max_triplets,
        seed=args.seed,
    )
    out = Path(args.out)
    _echo_config(args, out)
    pairs = mining.mine_pairs(u, cfg)
    triplets = mining.mine_triplets(u, cfg)
    mining.save_tuples(out / "pairs.txt", pairs, cfg)
    mining.save_tuples(out / "triplets.txt", triplets, cfg)
    n_pos = sum(p.p for p in pairs)
    t_pos = sum(t.p for t in triplets)

    def ratio(total, pos):
        return f"1:{(total - pos) / pos:.2f}" if pos else "n/a"

    print(f"pairs: {len(pairs)} (positives {n_pos}, achieved ratio {ratio(len(pairs), n_pos)})")
    print(f"triplets: {len(triplets)} (positives {t_pos}, achieved ratio {ratio(len(triplets), t_pos)})")
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


def cmd_train(args) -> int:
    from . import data, losses, mining, network, trainer

    labeled = data.load_manifest(args.labeled)
    if not isinstance(labeled, data.LabeledSet):
        raise CliConfigError(f"{args.labeled} is not a labeled manifest")
    cfg = _train_config(args, losses, trainer)

    pairs = triplets = None
    if cfg.lam > 0:
        if not args.unlabeled or not args.pairs:
            raise CliConfigError("this method needs --unlabeled and --pairs")
        u = data.load_manifest(args.unlabeled)
        pair_samples, trip_from_pairs = mining.load_tuples(args.pairs)
        trip_samples = list(trip_from_pairs)
        if args.triplets:
            more_pairs, more = mining.load_tuples(args.triplets)
            pair_samples.extend(more_pairs)
            trip_samples.extend(more)
        if pair_samples:
            pairs = trainer.resolve_pairs(u, pair_samples)
        if cfg.lam_prime > 0:
            if not trip_samples:
                raise CliConfigError("method ssfa needs triplet tuples (--triplets)")
            triplets = trainer.resolve_triplets(u, trip_samples)

    in_dim = labeled.images[0].width * labeled.images[0].height
    spec = network.LayerSpec((in_dim,) + _hidden_sizes(args.hidden) + (args.dim,))

    out = Path(args.out)
    _echo_config(args, out)
    if args.cv:
        cfg, log = trainer.greedy_cv(labeled, pairs, triplets, spec, base=cfg)
        trainer.write_search_log(log, out / "search_log.csv")
        print(
            f"greedy search: lr={cfg.lr} lam={cfg.lam} lam_prime={cfg.lam_prime} "
            f"delta_triplet={cfg.margins.delta_triplet}"
        )
    params, W, history = trainer.train(labeled, pairs, triplets, spec, cfg)
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

    params, _ = network.load_checkpoint(args.checkpoint)
    u = data.load_manifest(args.unlabeled)
    if not isinstance(u, data.UnlabeledSet):
        raise CliConfigError(f"{args.unlabeled} is not an unlabeled manifest")
    queries = evaluate.make_queries(u, args.T, args.queries, args.seed)
    pool = evaluate.build_pool(queries, u, args.pool_n, args.seed + 1)
    ranks = evaluate.seqcomp_ranks(queries, pool, params)
    value = evaluate.eta(ranks, len(pool))
    out = Path(args.out)
    _echo_config(args, out)
    report = evaluate.EvalReport(
        eta=value,
        ranks=ranks,
        config={
            "T": args.T,
            "queries": len(queries),
            "pool_size": len(pool),
            "pool_n": args.pool_n,
            "seed": args.seed,
        },
    )
    report.save_json(out / "seqcomp.json")
    report.save_ranks_csv(out / "ranks.csv")
    print(f"eta = {value:.4f} over {len(queries)} queries, pool {len(pool)}")
    return 0


def cmd_eval_cls(args) -> int:
    from . import data, evaluate, network

    params, W = network.load_checkpoint(args.checkpoint)
    test = data.load_manifest(args.test)
    if not isinstance(test, data.LabeledSet):
        raise CliConfigError(f"{args.test} is not a labeled manifest")
    acc = evaluate.linear_accuracy(params, W, test)
    out = Path(args.out)
    _echo_config(args, out)
    report = evaluate.EvalReport(
        accuracy={"linear": acc}, config={"test_size": len(test)}
    )
    report.save_json(out / "classification.json")
    print(f"linear accuracy = {acc:.4f} on {len(test)} images")
    return 0


def cmd_eval_knn(args) -> int:
    from . import data, evaluate, network

    params, _ = network.load_checkpoint(args.checkpoint)
    train_set = data.load_manifest(args.train)
    test_set = data.load_manifest(args.test)
    for name, ds in (("--train", train_set), ("--test", test_set)):
        if not isinstance(ds, data.LabeledSet):
            raise CliConfigError(f"{name} manifest is not labeled")
    acc = evaluate.knn_accuracy(params, train_set, test_set, k=args.k)
    out = Path(args.out)
    _echo_config(args, out)
    report = evaluate.EvalReport(
        accuracy={"knn": acc, "k": args.k},
        config={"train_size": len(train_set), "test_size": len(test_set)},
    )
    report.save_json(out / "knn.json")
    print(f"knn accuracy (k={args.k}) = {acc:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    from . import data, gradcheck

    rows, ok = gradcheck.run_gradcheck(seed=args.seed, points=args.points)
    text = gradcheck.format_report(rows)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        _echo_config(args, out)
        data.write_atomic(out / "gradcheck.csv", text)
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

    def common(p):
        p.add_argument("--config", help="key = value config file; flags override it")
        p.add_argument("--threads", type=int, default=1,
                       help="BLAS thread cap; overrides preset OMP/OPENBLAS/MKL_NUM_THREADS "
                            "(default: keep preset values, else 1 for bit-stable runs)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate synthetic shape clips and labeled images")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("steady", "jerky"), default="steady")
    p.add_argument("--clips", type=int, default=8)
    p.add_argument("--clip-len", type=int, default=20)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--shapes", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--labeled-per-class", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fixtures", help="write the canonical benchmark datasets")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures, seed=7)

    p = sub.add_parser("mine", help="mine temporal pair/triplet tuples")
    common(p)
    p.add_argument("--data", required=True, help="unlabeled manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--T", type=float, default=2.0, help="temporal window, seconds")
    p.add_argument("--pair-neg-ratio", type=float, default=3.0)
    p.add_argument("--triplet-neg-ratio", type=float, default=1.0)
    p.add_argument("--max-pairs", type=int, default=10000)
    p.add_argument("--max-triplets", type=int, default=10000)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="train a feature map and classifier")
    common(p)
    p.add_argument("--labeled", required=True, help="labeled manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--unlabeled", help="unlabeled manifest (for resolving tuples)")
    p.add_argument("--pairs", help="mined pair tuple file")
    p.add_argument("--triplets", help="mined triplet tuple file")
    p.add_argument("--method", choices=_METHODS, default="ssfa")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="coherence regularization weight")
    p.add_argument("--lambda2", dest="lam2", type=float, default=1.0,
                   help="steadiness weight inside the coherence loss")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--delta-pair", type=float, default=1.0)
    p.add_argument("--delta-triplet", type=float, default=1.0)
    p.add_argument("--batch-labeled", type=int, default=16)
    p.add_argument("--batch-pairs", type=int, default=32)
    p.add_argument("--batch-triplets", type=int, default=32)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--patience", type=int, default=15)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--hidden", default="25", help="hidden widths, comma separated")
    p.add_argument("--dim", type=int, default=25, help="feature dimension")
    p.add_argument("--cv", action="store_true", help="greedy staged hyperparameter search")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-seqcomp", help="sequence completion (mean percentile rank)")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--unlabeled", required=True, help="held-out clips manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--pool-n", type=int, default=5,
                   help="random distractor frames per represented clip")
    p.set_defaults(func=cmd_eval_seqcomp)

    p = sub.add_parser("eval-cls", help="linear classifier accuracy")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="labeled manifest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_cls)

    p = sub.add_parser("eval-knn", help="k-nearest-neighbor accuracy")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True, help="labeled manifest")
    p.add_argument("--test", required=True, help="labeled manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_eval_knn)

    p = sub.add_parser("gradcheck", help="finite-difference check of all loss gradients")
    common(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out", help="optional report directory")
    p.set_defaults(func=cmd_gradcheck)

    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    top = _build_parser()
    try:
        # pre-pass: route --config values into the right subparser defaults;
        # nothing here loads numpy, so a config `threads` can still pin BLAS
        cfg = {}
        if any(a == "--config" or a.startswith("--config=") for a in argv):
            probe, _ = top.parse_known_args(argv)
            cfg = _parse_config_file(Path(probe.config))
            subparsers = next(
                a for a in top._actions if isinstance(a, argparse._SubParsersAction)
            )
            _apply_config(subparsers.choices[probe.command], cfg)
        _apply_threads(argv, cfg.get("threads"))
        args = top.parse_args(argv)
        return args.func(args)
    except CliConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime/computation failures
        from . import data, mining, trainer

        known = (
            mining.MiningError,
            trainer.OptimizerError,
            trainer.SearchError,
            trainer.ConfigError,
            data.ManifestError,
            data.PgmFormatError,
            OSError,
            ValueError,
        )
        if isinstance(e, known):
            print(f"error: {e}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
