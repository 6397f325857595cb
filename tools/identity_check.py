"""Check that two source trees give bit-identical outputs on a fixed corpus.

    python3 tools/identity_check.py parent=../parent change=.

Each SIDE=ROOT names a repository root holding the ``src`` tree to check.
For each side, this script runs itself once more as a worker, in a
subprocess with ``PYTHONPATH=ROOT/src`` and BLAS on 1 thread, so both sides
run the same corpus, the one defined here. The worker computes every case
and prints one SHA-256 digest per case; a case that raises digests its
error instead. The script prints the name of every case whose digests
differ, or that only one side has, and exits 1 on any difference, 0
otherwise.

The corpus:

- ``dsrip/...``: every ``DsripReport`` field, floats as ``float.hex``, for
  14 grids x 3 seeds x 6 designs (Gaussian, quantized, duplicated columns,
  zero columns, unnormalized columns, n < k) x both methods;
- ``bruteforce/...``: ``constrained_ls_bruteforce`` on tie-heavy inputs
  with fixed seeds, every entry's bytes;
- ``cli/...``: the stdout of ``doublesparse dsrip`` at 3 grids, both
  methods.

Later cases go at the end of ``corpus``; a case's name fixes its inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# (m, d, s, s0): s = 1, s = 3, s0 = d, one row subset (d = 1 or s0 = d),
# many column sets, and the grids the benchmark and the tests use
DSRIP_GRIDS = [
    (6, 8, 2, 3), (4, 10, 2, 3), (8, 6, 2, 2), (40, 2, 2, 1), (250, 1, 2, 1),
    (5, 4, 3, 2), (10, 4, 3, 2), (4, 4, 2, 2), (5, 3, 3, 1), (6, 4, 1, 2),
    (3, 6, 2, 6), (20, 1, 2, 1), (12, 2, 2, 1), (3, 5, 3, 2),
]
DESIGNS = ["gaussian", "quantized", "duplicated", "zero", "unnormalized", "n_below_k"]
SEEDS = [0, 1, 2]
MC_TRIALS = 300
# (m, d, s, s0, seed) for the hard-budget oracle
BRUTEFORCE = [(4, 4, 2, 2, 0), (6, 3, 2, 2, 1), (5, 4, 3, 1, 2), (3, 6, 1, 3, 3),
              (5, 5, 2, 3, 4)]
CLI_GRIDS = [(6, 8, 2, 3, 100), (4, 4, 2, 2, 20), (8, 6, 2, 2, 5)]
THREAD_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]


def design(kind, m, d, s, s0, seed):
    """An n x (m*d) design of the given kind, drawn from ``stream(seed)``."""
    # the package is imported only in a worker, from its side's source tree
    import numpy as np
    from doublesparse import simulate
    from doublesparse.core import stream

    p = m * d
    rng = stream(9100 + seed)
    n = max(1, s * s0 - 1) if kind == "n_below_k" else 30
    X = simulate.gen_design(n, p, "gaussian_iid", rng)
    if kind == "quantized":  # exact ties
        X = np.round(2.0 * X)
    elif kind == "duplicated":
        X[:, rng.integers(p, size=max(1, p // 3))] = X[:, [rng.integers(p)]]
    elif kind == "zero":
        X[:, rng.random(p) < 0.4] = 0.0
    elif kind == "unnormalized":
        X *= 10.0 ** rng.uniform(-3.0, 3.0, size=p)
    return X


def report_bytes(report) -> bytes:
    from dataclasses import asdict

    fields = {k: v.hex() if isinstance(v, float) else v for k, v in asdict(report).items()}
    return json.dumps(fields, sort_keys=True).encode()


def corpus():
    """(name, thunk returning bytes) for every case, in a fixed order."""
    import numpy as np
    from doublesparse import diagnostics, estimators, harness
    from doublesparse.core import GroupedMatrix, SparsityBudget, stream

    for m, d, s, s0 in DSRIP_GRIDS:
        for kind in DESIGNS:
            for seed in SEEDS:
                X = design(kind, m, d, s, s0, seed)
                grid = f"{m},{d},{s},{s0}"
                yield (f"dsrip/exhaustive/{grid}/{kind}/{seed}",
                       lambda X=X, g=(m, d, s, s0): report_bytes(diagnostics.dsrip(X, *g)))
                yield (f"dsrip/monte_carlo/{grid}/{kind}/{seed}",
                       lambda X=X, g=(m, d, s, s0), seed=seed: report_bytes(diagnostics.dsrip(
                           X, *g, method="monte_carlo", trials=MC_TRIALS, seed=seed)))
    for m, d, s, s0, seed in BRUTEFORCE:
        # integer entries, so many supports tie for the best
        Y = GroupedMatrix(np.round(stream(9200 + seed).normal(size=(d, m))))
        yield (f"bruteforce/{m},{d},{s},{s0}/{seed}",
               lambda Y=Y, b=SparsityBudget.hard(m, d, s, s0):
               estimators.constrained_ls_bruteforce(Y, b).values.tobytes())
    for m, d, s, s0, n in CLI_GRIDS:
        for method in ("exhaustive", "monte_carlo"):
            argv = ["dsrip", "--m", str(m), "--d", str(d), "--s", str(s), "--s0", str(s0),
                    "--n", str(n), "--method", method, "--trials", "200", "--seed", "7"]

            def cli(argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = harness.main(argv)
                return f"{code}\n{out.getvalue()}".encode()

            yield f"cli/dsrip/{method}/{m},{d},{s},{s0},n={n}", cli


def worker():
    digests = {}
    for name, thunk in corpus():
        try:
            data = thunk()
        except Exception as exc:  # a failing case is an output too
            data = f"error: {type(exc).__name__}: {exc}".encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    json.dump(digests, sys.stdout)


def run_side(root: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                          env=env, cwd=root,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sides", nargs="*", metavar="SIDE=ROOT")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if len(args.sides) != 2:
        parser.error("expected two SIDE=ROOT arguments")
    roots = {}
    for item in args.sides:
        side, sep, root = item.partition("=")
        if not sep or not side or side in roots:
            parser.error(f"expected distinct SIDE=ROOT, got {item!r}")
        roots[side] = Path(root).resolve()
    (a, first), (b, second) = ((side, run_side(root)) for side, root in roots.items())
    differ = [name for name in {**first, **second} if first.get(name) != second.get(name)]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(first | second)} cases differ between {a} and {b}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
