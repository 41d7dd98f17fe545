"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Certificates tampered with after they were written must count as
   failed self-check operations, while the untouched one passes.
2. For each workload, two traced one-pass runs on seed 2 must report
   identical exact counts (pivots, LP sizes, certificate bytes, builds
   per solve, mu calls, SRev LP calls), no failed operation, and, where
   the workload writes or reads certificates, tampered copies run and
   rejected.  Seed 2 is not the pinned one, so these runs rest on the
   exact checks alone.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import BenchError, run_child  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    TAMPERINGS,
    Checker,
    build_corpus,
    run_cli,
    write_certificate,
)

SEED = 2

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "lp.solve_calls",
    "lp.pivots",
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "lp.cert_den_bits_max",
    "auction.build_calls",
    "auction.builds_per_solve",
    "auction.cert_bytes",
    "model.mu_calls",
    "analysis.srev_lp_calls",
)


def tampering_is_caught(workdir: str) -> list[str]:
    """Problems found; empty when every tampering counts as a failure."""
    op = next(op for op in build_corpus("self-check", SEED, workdir) if op.form == "ds")
    expected = {op.cert: write_certificate(op)}
    checker = Checker("self-check", expected)
    problems = []
    if checker.check(op, *run_cli(op.argv), record_digest=False) is not None:
        return ["an untouched certificate failed its self-check"]
    with open(op.cert, encoding="utf-8") as handle:
        original = handle.read()
    for tamper in TAMPERINGS:
        document = json.loads(original)
        tamper(document)
        with open(op.cert, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        reason = checker.check(op, *run_cli(op.argv), record_digest=False)
        if reason is None:
            problems.append(f"{tamper.__name__}: tampered certificate passed")
        else:
            print(f"  {tamper.__name__}: counted as failed ({reason})")
    return problems


def counts_repeat(workload: str, workdir: str) -> list[str]:
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=0)
    deadline = time.monotonic() + 900
    if workload == "self-check":
        run_child(args, "certs", workdir, deadline)
    runs = [
        run_child(args, "measure", workdir, deadline, 1, os.path.join(workdir, f"spans-{k}.json"))
        for k in range(2)
    ]
    problems = []
    for k, result in enumerate(runs):
        if result["failed"]:
            problems.append(f"{workload} run {k}: {result['failed']} failed: {result['failures']}")
        if workload != "iid-scan" and not result["tampered"]:
            problems.append(f"{workload} run {k}: no tampered certificate was run")
    for name in EXACT_COUNTS:
        a, b = (r["layers"][name] for r in runs)
        print(f"  {workload} {name}: {a} / {b}")
        if a != b:
            problems.append(f"{workload} {name} differs: {a} != {b}")
    return problems


def main() -> int:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    problems = []
    try:
        print("tampered certificates:")
        problems += tampering_is_caught(workdir)
        for workload in WORKLOADS:
            print(f"exact counts, two traced runs of {workload} on seed {SEED}:")
            problems += counts_repeat(workload, workdir)
    except BenchError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
