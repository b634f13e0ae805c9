"""Every demo script runs to completion against the current library, and
the demos that print experiment numbers print exactly the pinned ones."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Whole stdout, bit-reproducible at one BLAS thread. Only demo 03's wall
# time is masked, as "done in Ns".
PINNED = {
    "03_method_comparison.py": """\
data ready: 5920 pairs, 2720 triplets, 100 queries over a pool of 183

method   epochs  val_acc  test_acc     eta
unreg       102     0.50     0.410    5.67
sfa2        156     1.00     0.555    3.62
ssfa        239     1.00     0.720    1.67
random        -        -         -    5.34

(lower eta = steadier features; done in Ns)
""",
    "04_sequence_completion.py": """\
trained steadiness-regularized model

12 queries against a pool of 56 candidates:
  clip0004[15,17] -> truth [19] ranked  4; top-3: clip0004[17], clip0004[1], clip0004[16]
  clip0011[11,13] -> truth [15] ranked  1; top-3: clip0011[15], clip0011[13], clip0003[13]
  clip0003[1,3] -> truth [5] ranked  1; top-3: clip0003[5], clip0003[4], clip0011[8]
  clip0007[6,7] -> truth [8] ranked  1; top-3: clip0007[8], clip0007[7], clip0007[6]
  clip0011[13,15] -> truth [17] ranked  3; top-3: clip0011[15], clip0003[13], clip0011[17]
  clip0008[14,15] -> truth [16] ranked  2; top-3: clip0008[15], clip0008[16], clip0008[14]
  clip0011[7,9] -> truth [11] ranked  1; top-3: clip0011[11], clip0011[9], clip0008[9]
  clip0003[3,4] -> truth [5] ranked  2; top-3: clip0011[8], clip0003[5], clip0003[4]
  clip0004[15,16] -> truth [17] ranked  1; top-3: clip0004[17], clip0004[1], clip0004[16]
  clip0006[0,1] -> truth [2] ranked  1; top-3: clip0006[2], clip0006[18], clip0010[14]
  clip0010[17,18] -> truth [19] ranked  1; top-3: clip0010[19], clip0010[3], clip0010[18]
  clip0006[17,18] -> truth [19] ranked  1; top-3: clip0006[19], clip0006[3], clip0006[2]

mean percentile rank eta = 2.83 (chance = 50)
""",
    "05_unsupervised_pretraining.py": """\
kNN accuracy (k=5) after each pass over the tuples, 5 runs:

run   init  pass1  pass2  pass3
  1  0.482  0.500  0.510  0.557
  2  0.503  0.512  0.528  0.566
  3  0.506  0.532  0.557  0.567
  4  0.509  0.529  0.529  0.523
  5  0.482  0.496  0.514  0.528

features improve without ever seeing a label
""",
}


@functools.cache
def run_demo(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_stdout_is_pinned(name):
    proc = run_demo(ROOT / "demos" / name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert re.sub(r"done in \d+s", "done in Ns", proc.stdout) == PINNED[name]
