"""auctionlp benchmark: one workload per invocation.

    python3 perfbench/run.py --workload solve-cert --seed 1 --seconds 30 --trace 0

Workloads: solve-cert, self-check, iid-scan (see perfbench/README.md).
The workload runs in its own child process as a closed loop with one
client; each operation is one in-process call to auctionlp.cli.main on
inputs generated from --seed, and every output is checked exactly.
--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload
untraced and then traced, reports the per-layer metrics of the traced
run, and the tracing overhead as traced minus untraced wall_s.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, PINNED, WORKLOADS  # noqa: E402

# A run must end within 180 s; the children share what is left of it.
RUN_BUDGET_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
)

PER_LAYER = (
    ("lp.solve_calls", "count"),
    ("lp.solve_s", "s"),
    ("lp.pivots", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.nnz", "count"),
    ("lp.recheck_s", "s"),
    ("lp.cert_den_bits_max", "bits"),
    ("auction.build_calls", "count"),
    ("auction.build_s", "s"),
    ("auction.builds_per_solve", "ratio"),
    ("auction.extract_s", "s"),
    ("auction.certdoc_s", "s"),
    ("auction.certio_s", "s"),
    ("auction.verify_s", "s"),
    ("auction.cert_bytes", "bytes"),
    ("virtual.regularize_s", "s"),
    ("virtual.tables_s", "s"),
    ("virtual.checks_s", "s"),
    ("analysis.srev_s", "s"),
    ("analysis.srev_lp_calls", "count"),
    ("analysis.tight_dual_s", "s"),
    ("analysis.equivalence_s", "s"),
    ("analysis.characterize_s", "s"),
    ("model.validate_s", "s"),
    ("model.mu_calls", "count"),
    ("cli.self_s", "s"),
    ("oracles.gen_s", "s"),
)

class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail(samples):
    """(percentile, value): the highest whole percentile with at least
    ten samples above it, by the nearest-rank rule."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def environment() -> dict:
    """Facts that decide whether two results may be compared."""
    stamp = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    for name in ("gmpy2", "scipy"):
        try:
            importlib.import_module(name)
            stamp[name] = True
        except ImportError:
            stamp[name] = False
    return stamp


def run_child(args, role, workdir, deadline, trace=0, spans_out=None) -> dict:
    out = os.path.join(workdir, f"{role}-{trace}.json")
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--workdir", workdir,
        "--out", out,
    ]
    if spans_out:
        argv += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process exceeded the run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(result: dict, certs: dict) -> dict:
    p, value = tail(result["latencies"])
    result["tail_percentile"] = p
    return {
        "setup_s": result["setup_s"] + certs.get("ref_s", 0.0),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "op_p50_s": statistics.median(result["latencies"]),
        "op_tail_s": value,
        "peak_rss_mib": result["peak_rss_mib"],
    }


def print_run(label: str, result: dict, metrics: dict, certs: dict) -> None:
    samples = len(result["latencies"])
    print(
        f"{label}: {result['passes']} pass(es) of {result['ops_per_pass']} ops, "
        f"{samples} samples; machine speed factor {result['speed_factor']:.4f}"
    )
    raw = {
        "setup_s": result["setup_raw_s"] + certs.get("raw_s", 0.0),
        "wall_s": result["wall_raw_s"],
        "op_p50_s": statistics.median(result["raw_latencies"]),
    }
    for name, unit in END_TO_END:
        notes = []
        if name in raw:
            notes.append(f"raw {raw[name]:.6f} s")
        if name == "op_tail_s":
            notes.append(f"p{result['tail_percentile']} of {samples} samples")
        elif name == "setup_s":
            notes.append(
                f"import + median of {len(result['setup_reps'])} corpus set-ups"
                + (f" + median of {certs['reps']} certificate writings" if certs else "")
            )
        note = f"  ({'; '.join(notes)})" if notes else ""
        print(f"  {name:14s} {metrics[name]:.6f} {unit}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'failed_ratio':14s} {ratio:.6f} ratio  ({result['failed']} of {result['attempted']})")
    if result["tampered"]:
        print(f"  tampered certificates run after the timed phase: {result['tampered']}")
    for reason in result["failures"]:
        print(f"  failure: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "auctionlp", "cli.py")):
        print(f"error: no auctionlp sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        env = environment()
        certs = {}
        if args.workload == "self-check":
            certs = run_child(args, "certs", workdir, deadline)
        runs = [("untraced", run_child(args, "measure", workdir, deadline))]
        spans_out = None
        if args.trace:
            spans_out = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
            runs.append(
                ("traced", run_child(args, "measure", workdir, deadline, 1, spans_out))
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = runs[0][1]
    env.update(backend=first["backend"], kernel=first["kernel"])
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}")

    e2e = {}
    for label, result in runs:
        e2e[label] = end_to_end(result, certs)
        print_run(label, result, e2e[label], certs)

    pinned = PINNED.get(args.workload) if args.seed == DEFAULT_SEED else None
    digest_ok = all(pinned is None or r["digest"] == pinned for _, r in runs)
    print(
        f"output digest {first['digest']}"
        + (f" (pinned {pinned}: {'match' if digest_ok else 'MISMATCH'})" if pinned else " (not pinned for this seed)")
    )

    within = True
    if args.trace:
        traced = runs[1][1]
        layers = traced["layers"]
        print("per layer, traced run, per pass:")
        for name, unit in PER_LAYER:
            print(f"  {name:26s} {layers[name]:.6f} {unit}")
        overhead = e2e["traced"]["wall_s"] - e2e["untraced"]["wall_s"]
        print(f"  tracing overhead           {overhead:.6f} s  (traced wall_s - untraced wall_s)")
        # Spans nest inside the operation timers, so the self times can
        # only add up to more than the timed operations if the tracer
        # counts some time twice; a tracer that does is not trusted.
        within = traced["self_total_s"] <= traced["phase_raw_s"] * (1 + 1e-9)
        print(
            f"  self-time sum {traced['self_total_s']:.6f} s of traced phase wall "
            f"{traced['phase_raw_s']:.6f} s (raw seconds): {'ok' if within else 'EXCEEDS'}"
        )
        print(f"  spans written to {os.path.relpath(spans_out, ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            name: {"value": e2e["untraced"][name], "unit": unit} for name, unit in END_TO_END
        }

    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    correct = failed == 0 and digest_ok and within
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
