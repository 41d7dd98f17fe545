"""Workload process started by run.py; not meant to be run by hand.

``--role certs`` writes the self-check certificates through the solve
command, several times for a median set-up time, and records the
objective each solve printed.  ``--role measure`` sets the workload
up, runs whole passes over its corpus as a closed loop with one client,
as many as fit in the time budget at reference speed, checks every
output, and writes its measurements as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

SETUP_REPS = 3
CERT_REPS = 3

# Seconds of one pass over a workload's corpus at reference speed.  A
# run makes --seconds / PASS_S passes, at least one, so the work it
# measures, and with it the sample count that sets op_tail_s's
# percentile, does not change with the speed of the machine or of the
# program.  A run stops early only past twice --seconds.
PASS_S = {"solve-cert": 18.0, "self-check": 0.35, "iid-scan": 30.0}
MAX_FAILURES_KEPT = 5


def _layers(tracer, since: int, passes: int, setup_gen_s: float):
    """Per-layer metrics per pass, and the sum of all self times."""
    st = tracer.self_times(since)
    calls = tracer.call_counts(since)
    counts = tracer.counts
    solves = calls["lp.solve"]
    builds = calls["auction.build"]
    rows, cols, nnz = tracer.lp_sizes
    per_pass = {
        "lp.solve_calls": solves,
        "lp.solve_s": st["lp.solve"],
        "lp.pivots": counts["lp.pivots"],
        "lp.rows": rows,
        "lp.cols": cols,
        "lp.nnz": nnz,
        "lp.recheck_s": st["lp.recheck"],
        "auction.build_calls": builds,
        "auction.build_s": st["auction.build"],
        "auction.extract_s": st["auction.extract"],
        "auction.certdoc_s": st["auction.certdoc"],
        "auction.certio_s": st["auction.certio"],
        "auction.verify_s": st["auction.verify"],
        "auction.cert_bytes": tracer.cert_bytes,
        "virtual.regularize_s": st["virtual.regularize"],
        "virtual.tables_s": st["virtual.tables"],
        "virtual.checks_s": st["virtual.checks"],
        "analysis.srev_s": st["analysis.srev"],
        "analysis.srev_lp_calls": tracer.calls_under("lp.solve", "analysis.srev", since),
        "analysis.tight_dual_s": st["analysis.tight_dual"],
        "analysis.equivalence_s": st["analysis.equivalence"],
        "analysis.characterize_s": st["analysis.characterize"],
        "model.validate_s": st["model.validate"],
        "model.mu_calls": counts["model.mu_calls"],
        "cli.self_s": st["cli"],
    }
    layers = {name: value / passes for name, value in per_pass.items()}
    layers["auction.builds_per_solve"] = builds / solves if solves else 0.0
    layers["lp.cert_den_bits_max"] = tracer.den_bits_max
    layers["oracles.gen_s"] = setup_gen_s + st["oracles.gen"] / passes
    return layers, sum(st.values())


def measure(args) -> dict:
    import speed
    from workloads import Checker, build_corpus, run_cli, tamper_probe

    t0 = time.perf_counter()
    import auctionlp.analysis  # noqa: F401
    import auctionlp.cli  # noqa: F401
    from auctionlp import lp

    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Set-up is repeated and its median reported; only the first
    # repetition is traced, for the generator's share.
    calibration = speed.settle()
    setup_reps = []
    setup_gen_s = 0.0
    for rep in range(SETUP_REPS):
        if tracer:
            tracer.active = rep == 0
        t = time.perf_counter()
        ops = build_corpus(args.workload, args.seed, args.workdir)
        setup_reps.append(time.perf_counter() - t)
        if tracer and rep == 0:
            tracer.active = False
            setup_gen_s = tracer.self_times()["oracles.gen"]
    calibration += speed.settle()
    setup_raw = import_s + statistics.median(setup_reps)
    setup_factor = speed.factor(calibration, len(calibration) // 2, len(calibration))[0]

    expected = None
    if args.workload == "self-check":
        with open(os.path.join(args.workdir, "expected.json"), encoding="utf-8") as handle:
            expected = json.load(handle)
    checker = Checker(args.workload, expected)

    since = 0
    if tracer:
        since = len(tracer.spans)
        tracer.counts.clear()

    raw_latencies, latencies, factors = [], [], []
    pass_raw, pass_walls, pass_cpus = [], [], []
    attempted = failed = 0
    failures = []
    passes = max(1, int(args.seconds / PASS_S[args.workload]))
    start = time.perf_counter()
    for _ in range(passes):
        results = []
        kernel = []
        for index, op in enumerate(ops):
            kernel.append(speed.sample())
            if tracer:
                tracer.op = len(pass_walls) * len(ops) + index
                tracer.active = True
            w0, c0 = time.perf_counter(), time.process_time()
            code, stdout = run_cli(op.argv)
            w1, c1 = time.perf_counter(), time.process_time()
            if tracer:
                tracer.active = False
                tracer.end_op()
            results.append((code, stdout, w1 - w0, c1 - c0))
        # checks run after every timer of the pass has stopped
        first = not pass_walls
        wall_ref = cpu_ref = 0.0
        for index, (op, (code, stdout, wall, cpu)) in enumerate(zip(ops, results)):
            fwall, fcpu = speed.factor(kernel, index)
            factors.append(fwall)
            raw_latencies.append(wall)
            latencies.append(wall * fwall)
            wall_ref += wall * fwall
            cpu_ref += cpu * fcpu
            reason = checker.check(op, code, stdout, record_digest=first)
            attempted += 1
            if reason is not None:
                failed += 1
                if len(failures) < MAX_FAILURES_KEPT:
                    failures.append(f"{' '.join(op.argv)}: {reason}")
        pass_raw.append(sum(r[2] for r in results))
        pass_walls.append(wall_ref)
        pass_cpus.append(cpu_ref)
        if time.perf_counter() - start > 2 * args.seconds:
            break

    # Tampered certificates, after the timed phase: a re-proof that stops
    # proving lets them through, and each one let through is a failure.
    probed = []
    if args.workload != "iid-scan":
        probed = tamper_probe(ops if args.workload == "self-check" else ops[:2])
    for reason in probed:
        attempted += 1
        if reason is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_KEPT:
                failures.append(f"tampered certificate accepted: {reason}")

    result = {
        "backend": getattr(lp, "BACKEND", "unknown"),
        "kernel": getattr(lp, "KERNEL", "none"),
        "import_s": import_s,
        "setup_reps": setup_reps,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * setup_factor,
        "passes": len(pass_walls),
        "ops_per_pass": len(ops),
        "wall_s": statistics.median(pass_walls),
        "cpu_s": statistics.median(pass_cpus),
        "wall_raw_s": statistics.median(pass_raw),
        "speed_factor": statistics.median(factors),
        "latencies": latencies,
        "raw_latencies": raw_latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "tampered": len(probed),
        "digest": checker.hexdigest(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers, self_total = _layers(tracer, since, len(pass_walls), setup_gen_s)
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= result["speed_factor"]
        result["layers"] = layers
        result["self_total_s"] = self_total
        result["phase_raw_s"] = sum(pass_raw)
        tracer.uninstall()
        tracer.write(args.spans_out)
    return result


def write_certs(args) -> dict:
    """Write the self-check certificates CERT_REPS times and record the
    objectives printed.  A solve here takes seconds, longer than the
    machine keeps one speed, so each is scaled by the mean of the kernel
    runs just before and just after it."""
    import speed
    from workloads import build_corpus, write_certificate

    ops = build_corpus("self-check", args.seed, args.workdir)
    expected = {}
    raw, scaled = [], []
    for _ in range(CERT_REPS):
        before = speed.sample()[0]
        raw.append(0.0)
        scaled.append(0.0)
        for op in ops:
            t = time.perf_counter()
            printed = write_certificate(op)
            elapsed = time.perf_counter() - t
            after = speed.sample()[0]
            raw[-1] += elapsed
            scaled[-1] += elapsed * speed.REFERENCE_S * 2 / (before + after)
            before = after
            # a solve that prints another objective than before is wrong
            if expected.setdefault(op.cert, printed) != printed:
                expected[op.cert] = None
    with open(os.path.join(args.workdir, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(expected, handle)
    return {"raw_s": statistics.median(raw), "ref_s": statistics.median(scaled), "reps": CERT_REPS}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("certs", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args()
    result = write_certs(args) if args.role == "certs" else measure(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
