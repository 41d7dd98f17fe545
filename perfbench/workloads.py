"""Seeded corpora, operations and exact output checks for each workload.

Every operation is one in-process call to ``auctionlp.cli.main(argv)``.
A workload's corpus is a fixed list of operations drawn from the
workload seed; one pass runs each operation once, in order.  The checks
run after an operation's timer has stopped and use only public
functions of the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

DEFAULT_SEED = 1

# Digest of one pass's printed outputs on DEFAULT_SEED.  A run on that
# seed must reproduce it; other seeds rely on the exact checks alone.
PINNED = {
    "solve-cert": "008313c70415d1f2",
    "self-check": "582bd2474a25192d",
    "iid-scan": "b9588d0a4055d682",
}

# (generator spec, instances), each solved in both forms.  Correlated
# values throughout.
SOLVE_SHAPES = (
    ({"n": 3, "m": 1, "support": 2}, 24),  # 27 profiles
    ({"n": 3, "m": 2, "support": 2}, 12),  # 27 profiles, 2 items
    ({"n": 2, "m": 1, "support": 5, "denominator": 1, "value_range": 10}, 2),  # 36
    ({"n": 4, "m": 1, "support": 2}, 2),  # 81 profiles
)

# (generator spec, forms, generator seeds): self-check reads one instance
# of each shape, the seed picking which.  Its set-up writes their
# certificates, and one instance's exact solve costs from half to twice
# its shape's median (the 256-profile Bayesian one 2 to 8 s), so set-up
# time would show the draw more than the program.  Each pool therefore
# holds only instances whose certificate writing makes within 10 % of
# their shape's median pivot count, and whose certificates, which
# self-check re-proves, are within 10 % of the median size; README.md
# tells how they were chosen.  The 256-profile shape is read only here:
# its Bayesian solve would set a solve-cert run's spread, and its
# dominant-strategy solve takes longer than a whole run.
CHECK_SHAPES = (
    (
        SOLVE_SHAPES[1][0],
        ("ds", "bic"),
        (1725764363, 1210361983, 149072108, 1485693097, 1391759128),
    ),
    (
        SOLVE_SHAPES[2][0],
        ("ds", "bic"),
        (
            1284230288, 804746908, 1765557035, 1678641925, 605138632,
            2096020039, 1718040163, 297854717, 280498416, 749273083, 1394106573,
        ),
    ),
    (
        SOLVE_SHAPES[3][0],
        ("ds", "bic"),
        (578443678, 128492700, 481699143, 1382488497, 1740849030, 1369047224, 799594210),
    ),
    (
        {"n": 4, "m": 1, "support": 3},  # 256 profiles
        ("bic",),
        (1690607830, 1602194820, 1518591460, 957955468, 1340747606),
    ),
)

# (--gen spec, instances).  The i.i.d. path with n >= 3 is the one that
# runs tight_downward_dual, regularization and the UBVV check.
IID_SPECS = (
    ("n=3,m=1,support=2,iid=1", 32),  # 27 profiles
    ("n=3,m=2,support=2,iid=1", 8),  # 27 profiles, 2 items
    ("n=4,m=1,support=2,iid=1", 1),  # 81 profiles
)

# The generator gives a buyer's zero type positive mass one time in
# four, and such instances cost about twice as much to solve.  The
# solve-cert and iid-scan corpora hold that share exactly (stratified by
# the number of buyers whose zero type has mass) instead of leaving it
# to chance, so that the cost of a pass moves less from one seed to the
# next.
ZERO_MASS_RATE = 0.25

WORKLOADS = ("solve-cert", "self-check", "iid-scan")


@dataclass
class Op:
    argv: list[str]
    instance: object = None  # the Instance the operation reads
    group: str = ""  # instance key, to compare forms of one instance
    form: str = ""
    cert: str = ""


def _parse_spec(text: str) -> dict:
    spec = {}
    for part in text.split(","):
        key, raw = part.split("=")
        spec[key] = bool(int(raw)) if key == "iid" else int(raw)
    return spec


def _quotas(count: int, n: int, iid: bool) -> dict:
    """Instances wanted per number of buyers whose zero type has mass:
    the generator's own distribution, rounded by largest remainder."""
    rate = ZERO_MASS_RATE
    if iid:
        share = {0: 1 - rate, n: rate}
    else:
        share = {k: comb(n, k) * rate**k * (1 - rate) ** (n - k) for k in range(n + 1)}
    raw = {k: count * p for k, p in share.items()}
    quota = {k: int(v) for k, v in raw.items()}
    short = count - sum(quota.values())
    for k in sorted(raw, key=lambda k: raw[k] - quota[k], reverse=True)[:short]:
        quota[k] += 1
    return quota


def _draw(spec: dict, count: int, rng: random.Random) -> list:
    """(seed, Instance) pairs for `count` instances of one shape."""
    from auctionlp.oracles import gen_instance

    quota = _quotas(count, int(spec["n"]), bool(spec.get("iid")))
    out = []
    while len(out) < count:
        seed = rng.randrange(2**31)
        instance = gen_instance(spec, seed)
        massed = sum(1 for i in range(instance.n) if instance.mu_i(i, instance.zero_index(i)))
        if quota.get(massed, 0) > 0:
            quota[massed] -= 1
            out.append((seed, instance))
    return out


def build_corpus(workload: str, seed: int, workdir: str) -> list[Op]:
    """Generate the workload's corpus from the seed and write its input
    files under workdir.  The same seed gives the same corpus."""
    from auctionlp.oracles import gen_instance

    if workload == "iid-scan":
        rng = random.Random(f"iid:{seed}")
        ops = []
        for text, count in IID_SPECS:
            for s, instance in _draw(_parse_spec(text), count, rng):
                ops.append(
                    Op(
                        argv=["characterize", "--gen", text, "--seed", str(s), "--count", "1"],
                        instance=instance,
                    )
                )
        return ops

    if workload == "solve-cert":
        rng = random.Random(f"solve:{seed}")
        shapes = [
            ([instance for _, instance in _draw(spec, count, rng)], ("ds", "bic"))
            for spec, count in SOLVE_SHAPES
        ]
    else:
        rng = random.Random(f"check:{seed}")
        shapes = [
            ([gen_instance(spec, rng.choice(pool))], forms) for spec, forms, pool in CHECK_SHAPES
        ]
    ops = []
    for index, (instances, forms) in enumerate(shapes):
        for k, instance in enumerate(instances):
            key = f"s{index}-{k}"
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(instance.to_json())
            for form in forms:
                cert = os.path.join(workdir, f"{key}-{form}.cert.json")
                if workload == "solve-cert":
                    argv = ["solve", path, "--form", form, "--certificate", cert]
                else:
                    argv = ["self-check", path, cert]
                ops.append(Op(argv=argv, instance=instance, group=key, form=form, cert=cert))
    return ops


def run_cli(argv):
    """One operation: (exit code or exception name, stdout)."""
    from auctionlp import cli

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = f"SystemExit({exc.code})"
        except Exception as exc:  # a raised exception is a failed operation
            code = type(exc).__name__
    return code, out.getvalue()


def _bump_objective(document: dict) -> None:
    document["objective"] = str(Fraction(document["objective"]) + 1)


def _negative_primal(document: dict) -> None:
    document["primal"][sorted(document["primal"])[0]] = "-1"


# Each makes a certificate that an exact re-proof must reject: the stated
# objective no longer equals c.x, or x >= 0 no longer holds.
TAMPERINGS = (_bump_objective, _negative_primal)


def tamper_probe(ops: list[Op]) -> list[str | None]:
    """Run self-check on tampered copies of each operation's certificate.
    Every copy must be rejected as a CertificateError (exit 2); one entry
    per copy, None when it was rejected, else why it counts as failed."""
    out = []
    for op in ops:
        with open(op.cert, encoding="utf-8") as handle:
            original = handle.read()
        for tamper in TAMPERINGS:
            document = json.loads(original)
            tamper(document)
            path = f"{op.cert}.{tamper.__name__.strip('_')}.json"
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            code, stdout = run_cli(["self-check", op.argv[1], path])
            name = f"{tamper.__name__.strip('_')} of {os.path.basename(op.cert)}"
            out.append(None if code == 2 else f"{name}: exit {code}, {stdout.strip()!r}")
    return out


def write_certificate(op: Op) -> str | None:
    """Write the certificate a self-check operation reads, through the
    solve command; the objective the solve printed, None if it failed."""
    code, stdout = run_cli(["solve", op.argv[1], "--form", op.form, "--certificate", op.cert])
    return stdout.strip() if code == 0 else None


class Checker:
    """Exact checks of each operation's output; also folds the outputs
    of one pass into a digest."""

    def __init__(self, workload: str, expected: dict | None = None):
        self.workload = workload
        self.expected = expected or {}
        self.objectives: dict = {}  # (group, form) -> Fraction
        self.digest = hashlib.sha256()

    def check(self, op: Op, code, stdout: str, record_digest: bool) -> str | None:
        """None when the output is exactly right, else a reason."""
        if record_digest:
            self.digest.update(json.dumps([op.argv[0], op.group, op.form, stdout]).encode())
        if code != 0:
            return f"exit {code}"
        try:
            return getattr(self, "_" + self.workload.replace("-", "_"))(op, stdout)
        except Exception as exc:  # unreadable output or a failed re-proof
            return f"check raised {type(exc).__name__}: {exc}"

    def _solve_cert(self, op: Op, stdout: str):
        from auctionlp.auction import load_certificate, verify_certificate_document

        printed = Fraction(stdout.strip())
        proved = verify_certificate_document(op.instance, load_certificate(op.cert))
        if proved != printed:
            return f"certificate proves {proved}, solve printed {printed}"
        self.objectives[(op.group, op.form)] = printed
        other = "bic" if op.form == "ds" else "ds"
        if (op.group, other) in self.objectives:
            pair = {op.form: printed, other: self.objectives[(op.group, other)]}
            if not pair["ds"] <= pair["bic"]:
                return f"DRev {pair['ds']} exceeds BRev {pair['bic']}"
        return None

    def _self_check(self, op: Op, stdout: str):
        recorded = self.expected.get(op.cert)
        if recorded is None:
            return "no objective was recorded for this certificate"
        if stdout != f"ok {recorded}\n":
            return f"printed {stdout.strip()!r}, recorded objective {recorded}"
        return None

    def _iid_scan(self, op: Op, stdout: str):
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"{len(lines)} records for one instance"
        record = json.loads(lines[0])
        if record["digest"] != op.instance.digest():
            return "record describes another instance"
        brev, drev, srev = (Fraction(record[k]) for k in ("brev", "drev", "srev"))
        if not brev >= drev >= srev:
            return f"BRev {brev} >= DRev {drev} >= SRev {srev} fails"
        if not isinstance(record["ubvv_ok"], bool):
            return "ubvv_ok is not a boolean"
        Fraction(record["tight_excess"])
        return None

    def hexdigest(self) -> str:
        return self.digest.hexdigest()[:16]
