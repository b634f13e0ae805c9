"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The desk-scale experiments (criteria 5-7) run the protocol of
ssfa.desk on the canonical fixture datasets from ssfa.build_fixtures(7);
every number in this module is bit-reproducible.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import ssfa
from ssfa import desk
from ssfa.gradcheck import run_gradcheck


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def datasets():
    return ssfa.build_fixtures(7)


@pytest.fixture(scope="module")
def desk_results(datasets):
    """Criteria 5+6 share one training sweep: unreg/sfa2/ssfa x 5 seeds."""
    t0 = time.time()
    runs, _ = desk.sweep(datasets)
    out = {m: {k: float(np.mean(v)) for k, v in r.items() if k != "history"}
           for m, r in runs.items()}
    out["elapsed"] = time.time() - t0
    return out


# ---------------------------------------------------------------------------
# 1. gradient correctness

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rows, ok = run_gradcheck(seed=0, points=100)
    elapsed = time.time() - t0
    detail = (
        "; ".join(f"{r.name} {r.max_rel_error:.2e}<=1e-4" for r in rows)
        + f"; {elapsed:.1f}s<30s"
    )
    all_within = all(r.max_rel_error <= 1e-4 for r in rows)
    report(1, "gradient correctness", ok and all_within and elapsed < 30, detail)


# ---------------------------------------------------------------------------
# 2. loss identities (exact, no tolerance)

def test_criterion_2_loss_identities():
    margins = ssfa.Margins(delta_pair=1.0, delta_triplet=1.0)
    # collinear equally spaced positive triplet: exactly zero
    zl = np.array([[0.0, 0.0], [1.0, -2.0]])
    step = np.array([[1.0, 1.0], [0.5, 2.0]])
    r3 = ssfa.triplet_loss(zl, zl + step, zl + step + step, np.ones(2), margins)
    collinear_zero = r3.value == 0.0
    # coincident positive pair: exactly zero
    z = np.array([[0.3, -0.7, 2.0]])
    r2 = ssfa.pair_loss(z, z.copy(), np.ones(1), margins)
    coincident_zero = r2.value == 0.0
    # constant feature map with negatives present: R2 >= delta * neg_fraction
    zc = np.full((10, 4), 1.3)
    p = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0])
    r2c = ssfa.pair_loss(zc, zc.copy(), p, margins)
    degenerate_penalized = r2c.value >= margins.delta_pair * 0.4 and r2c.value > 0.0
    ok = collinear_zero and coincident_zero and degenerate_penalized
    report(
        2,
        "loss identities",
        ok,
        f"collinear R3={r3.value}, coincident R2={r2.value}, constant-map R2={r2c.value}>=0.4",
    )


# ---------------------------------------------------------------------------
# 3. mining oracle equivalence (exact set equality)

def brute_pairs(n, t):
    pos = {(j, k) for k in range(n) for j in range(k + 1, n) if 1 <= j - k <= t}
    neg = {(j, k) for k in range(n) for j in range(k + 1, n) if j - k >= 2 * t + 1}
    return pos, neg


def brute_triplets(n, t):
    pos, neg = set(), set()
    for l in range(n):
        for m in range(l + 1, n):
            for x in range(m + 1, n):
                if m - l == x - m and m - l <= t:
                    pos.add((l, m, x))
                elif 1 <= m - l <= t and x - m >= 2 * t:
                    neg.add((l, m, x))
    return pos, neg


def test_criterion_3_mining_oracle_equivalence():
    checked = 0
    for n in range(2, 31):
        for t in (1, 2, 3):
            pp, pn = ssfa.pair_candidates(n, t)
            bp, bn = brute_pairs(n, t)
            assert set(map(tuple, pp.tolist())) == bp and len(pp) == len(bp), (n, t)
            assert set(map(tuple, pn.tolist())) == bn and len(pn) == len(bn), (n, t)
            tp, tn = ssfa.triplet_candidates(n, t)
            btp, btn = brute_triplets(n, t)
            assert set(map(tuple, tp.tolist())) == btp and len(tp) == len(btp), (n, t)
            assert set(map(tuple, tn.tolist())) == btn and len(tn) == len(btn), (n, t)
            checked += 1
    report(3, "mining oracle equivalence", True, f"{checked} (length, window) cases exact")


# ---------------------------------------------------------------------------
# 4. sequence-completion oracle + null model

def test_criterion_4_seqcomp_oracle_and_null_model():
    t0 = time.time()
    rng = np.random.default_rng(11)
    # brute-force sorted-rank equality on 100 random fixtures
    matches = 0
    for _ in range(100):
        pool_z = rng.normal(size=(30, 6))
        z_tilde = rng.normal(size=6)
        gt = int(rng.integers(0, 30))
        d = np.linalg.norm(pool_z - z_tilde, axis=1)
        assert len(np.unique(d)) == len(d)  # distinct distances
        brute = int(np.argsort(d, kind="stable").tolist().index(gt)) + 1
        matches += ssfa.evaluate.truth_ranks(pool_z, z_tilde[None], [gt])[0] == brute
    # null model: random features over >= 1000 queries
    pool_size = 50
    ranks = []
    for _ in range(1200):
        pool_z = rng.normal(size=(pool_size, 8))
        z1, z2 = rng.normal(size=(2, 8))
        gt = int(rng.integers(0, pool_size))
        ranks.append(ssfa.evaluate.truth_ranks(pool_z, ssfa.extrapolate(z1, z2)[None], [gt])[0])
    eta_null = ssfa.eta(ranks, pool_size)
    elapsed = time.time() - t0
    ok = matches == 100 and 45.0 <= eta_null <= 55.0 and elapsed < 60
    report(
        4,
        "sequence-completion oracle",
        ok,
        f"{matches}/100 rank matches, null eta {eta_null:.2f} in [45, 55], {elapsed:.1f}s<60s",
    )


# ---------------------------------------------------------------------------
# 5+6. desk-scale steadiness and recognition experiments

def test_criterion_5_steadiness_ordering(desk_results):
    r = desk_results
    e_ssfa, e_sfa2, e_rand = r["ssfa"]["eta"], r["sfa2"]["eta"], r["random"]["eta"]
    ordering = e_ssfa < e_sfa2 < e_rand
    halving = e_ssfa <= 0.9 * e_sfa2
    in_time = r["elapsed"] < 600
    report(
        5,
        "desk-scale steadiness",
        ordering and halving and in_time,
        f"eta ssfa {e_ssfa:.2f} < sfa2 {e_sfa2:.2f} < random {e_rand:.2f}, "
        f"ratio {e_ssfa / e_sfa2:.2f} <= 0.9, {r['elapsed']:.0f}s<600s",
    )


def test_criterion_6_recognition_ordering(desk_results):
    r = desk_results
    a_ssfa, a_sfa2, a_unreg = r["ssfa"]["acc"], r["sfa2"]["acc"], r["unreg"]["acc"]
    ordering = a_ssfa >= a_sfa2 >= a_unreg
    gap = a_ssfa - a_unreg >= 0.03
    in_time = r["elapsed"] < 600
    report(
        6,
        "desk-scale recognition",
        ordering and gap and in_time,
        f"acc ssfa {a_ssfa:.3f} >= sfa2 {a_sfa2:.3f} >= unreg {a_unreg:.3f}, "
        f"gap {a_ssfa - a_unreg:.3f} >= 0.03",
    )


def test_desk_quality_numbers_are_pinned(desk_results):
    # every number here is bit-reproducible at seed 7, so a change in the
    # low-order bits of training or evaluation shows as a mismatch. They are
    # the bits of OpenBLAS 0.3.31's SkylakeX kernel: under its Haswell,
    # Sandybridge and Nehalem kernels (OPENBLAS_CORETYPE) this test fails,
    # although desk never splits a pass
    r = desk_results
    assert {m: r[m]["eta"] for m in ("unreg", "sfa2", "ssfa", "random")} == {
        "unreg": 6.67431693989071, "sfa2": 3.8983606557377053,
        "ssfa": 1.814207650273224, "random": 5.795628415300547,
    }
    assert {m: r[m]["acc"] for m in ("unreg", "sfa2", "ssfa")} == {
        "unreg": 0.3265, "sfa2": 0.6285000000000001, "ssfa": 0.6975,
    }


# ---------------------------------------------------------------------------
# 7. purely unsupervised kNN trend

def test_criterion_7_unsupervised_knn_trend(datasets):
    curves = desk.knn_trend(datasets)
    monotone = sum(all(a < b for a, b in zip(accs, accs[1:])) for accs in curves)
    detail = f"{monotone}/5 seeds strictly improving; curves " + "; ".join(
        "->".join(f"{a:.3f}" for a in c) for c in curves
    )
    report(7, "unsupervised kNN trend", monotone >= 4, detail)


# ---------------------------------------------------------------------------
# 8. CLI determinism

def _run_cli(argv):
    from ssfa.cli import main

    code = main(argv)
    assert code == 0, f"cli {argv[0]} exited {code}"


def _tree_bytes(root: Path):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_cli_determinism(tmp_path):
    base = tmp_path / "work"
    base.mkdir()
    data = base / "data"
    _run_cli(["synth", "--out", str(data), "--clips", "8", "--labeled-per-class", "5", "--seed", "3"])

    checked = []

    def twice(name, argv, outdir):
        _run_cli(argv)
        first = _tree_bytes(outdir)
        _run_cli(argv)
        second = _tree_bytes(outdir)
        assert first.keys() == second.keys(), name
        diff = [k for k in first if first[k] != second[k]]
        assert not diff, f"{name}: outputs differ across reruns: {diff}"
        checked.append(name)

    twice(
        "synth",
        ["synth", "--out", str(data), "--clips", "8", "--labeled-per-class", "5", "--seed", "3"],
        data,
    )
    fx = base / "fx"
    twice("fixtures", ["fixtures", "--out", str(fx), "--seed", "3"], fx)
    mined = base / "mined"
    twice(
        "mine",
        ["mine", "--data", str(data / "unlabeled.txt"), "--out", str(mined), "--T", "2", "--seed", "1"],
        mined,
    )
    run = base / "run"
    twice(
        "train",
        [
            "train", "--labeled", str(data / "labeled.txt"),
            "--unlabeled", str(data / "unlabeled.txt"),
            "--pairs", str(mined / "pairs.txt"), "--triplets", str(mined / "triplets.txt"),
            "--method", "ssfa", "--lambda", "0.5", "--lambda2", "0.5",
            "--epochs", "8", "--patience", "8", "--seed", "2", "--out", str(run),
        ],
        run,
    )
    ckpt = str(run / "checkpoint.ckpt")
    es = base / "es"
    twice(
        "eval-seqcomp",
        ["eval-seqcomp", "--checkpoint", ckpt, "--unlabeled", str(data / "unlabeled.txt"),
         "--queries", "40", "--seed", "4", "--out", str(es)],
        es,
    )
    ec = base / "ec"
    twice(
        "eval-cls",
        ["eval-cls", "--checkpoint", ckpt, "--test", str(data / "labeled.txt"), "--out", str(ec)],
        ec,
    )
    ek = base / "ek"
    twice(
        "eval-knn",
        ["eval-knn", "--checkpoint", ckpt, "--train", str(data / "labeled.txt"),
         "--test", str(data / "labeled.txt"), "--k", "3", "--out", str(ek)],
        ek,
    )
    gc = base / "gc"
    twice("gradcheck", ["gradcheck", "--points", "4", "--seed", "1", "--out", str(gc)], gc)
    report(8, "CLI determinism", len(checked) == 8, f"subcommands byte-identical: {checked}")
