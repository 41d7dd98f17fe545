"""Command-line front end.

Subcommands: validate, solve, self-check, characterize, virtuals.
All numeric output is exact rational text; identical inputs and flags
produce byte-identical output.  Exit codes: 0 success, 2 invalid input,
3 solver or internal failure, 4 scale cap exceeded, 141 stdout closed by
its reader (128 + SIGPIPE, as a shell reports for a program cut off by
`head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import characterize, gen_records, proved_certificate
from .auction import (
    ProgramLayout,
    certificate_document,
    extract_dual,
    extract_mechanism,
    load_certificate,
    profile_key,
    solve_form,
    verify_certificate_document,
    write_certificate,
)
from .errors import AuctionLPError, DimensionMismatch, InvalidInput, ScaleLimit, echo
from .lp import check_tableau_size
from .model import BAYES, DS, NEG_INF, load_instance, multiplier_keys, rat_str
from .oracles import gen_instance, gen_shape, parse_spec
from .virtual import (
    check_ubvv,
    check_vwm,
    regularize_bayes,
    regularize_ds,
    virtual_values_bayes,
    virtual_values_ds,
)

# Invalid input, exit 2: bad data (a forged certificate too) or files.
_INVALID_INPUT = (InvalidInput, OSError, json.JSONDecodeError)

_FORMS = {"ds": DS, "bic": BAYES}


def _load(args) -> "Instance":
    instance = load_instance(
        args.path,
        augment_zero=True if args.augment_zero else None,
        strict=getattr(args, "strict", False),
    )
    if instance.profile_count > args.caps:
        raise ScaleLimit(
            f"{instance.profile_count} profiles exceed the cap {args.caps}"
        )
    return instance


def cmd_validate(args) -> int:
    instance = _load(args)
    sys.stdout.write(instance.to_json())
    return 0


def cmd_solve(args) -> int:
    instance = _load(args)
    form = _FORMS[args.form]
    # a one-item optimum proved in closed form, or else the program's,
    # which the model proved while solving (solve_form) past the
    # solver's own tableau guard
    certificate = proved_certificate(instance, form)
    if certificate is None:
        certificate = solve_form(instance, form)
    if args.certificate:
        document = certificate_document(instance, form, certificate)
        write_certificate(args.certificate, document)
    print(rat_str(certificate.objective))
    return 0


def cmd_self_check(args) -> int:
    instance = _load(args)
    document = load_certificate(args.certificate)
    objective = verify_certificate_document(instance, document)
    print(f"ok {rat_str(objective)}")
    return 0


def _characterize_one(instance) -> None:
    report = characterize(instance)
    print(f"brev {rat_str(report.brev)}")
    print(f"drev {rat_str(report.drev)}")
    print(f"srev {rat_str(report.srev)}")
    print(f"brev=drev {str(report.brev_eq_drev).lower()}")
    print(f"drev=srev {str(report.drev_eq_srev).lower()}")
    print(f"srev=brev {str(report.srev_eq_brev).lower()}")
    print(
        "witness agent-independent" if report.ai_witness is not None else "witness none"
    )
    if report.findings:
        for finding in report.findings:
            print(f"finding {finding}")
    else:
        print("findings none")


def cmd_characterize(args) -> int:
    if args.gen is None:
        instance = _load(args)
        _characterize_one(instance)
        return 0
    spec = parse_spec(args.gen)
    seed = 0 if args.seed is None else args.seed
    count = 1 if args.count is None else args.count
    if count < 1:
        raise DimensionMismatch(f"--count must be at least 1, got {echo(count)}")
    # An instance may need a dominant-strategy solve (on more than one
    # item, or where the closed form is refused), so refuse its tableau
    # before drawing; the builders' right-hand sides are nonnegative, so
    # it has no artificial columns.
    m, sizes = gen_shape(spec, args.caps)
    check_tableau_size(*ProgramLayout(DS, m, sizes).shape)
    if count == 1 and not spec.get("iid"):
        instance = gen_instance(spec, seed, cap=args.caps)
        _characterize_one(instance)
        return 0
    # each record goes out as soon as it is made, so a reader that
    # closes stdout stops the scan at the next record
    for record in gen_records(spec, seed, count, args.caps):
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


def _entry_str(entry) -> str:
    return "-inf" if entry == NEG_INF else rat_str(entry)


def cmd_virtuals(args) -> int:
    instance = _load(args)
    form = _FORMS[args.form]
    certificate = solve_form(instance, form)
    mechanism = extract_mechanism(instance, certificate, form)
    dual = extract_dual(instance, certificate, form)
    print(f"form {args.form}")
    print(f"objective {rat_str(certificate.objective)}")
    if form == DS:
        regular = regularize_ds(instance, dual, revenue=certificate.objective)
        table = virtual_values_ds(instance, regular)
        prefix, names = "phi", [profile_key(v) for v in instance.profiles()]
    else:
        regular = regularize_bayes(instance, dual, revenue=certificate.objective)
        table = virtual_values_bayes(instance, regular)
        prefix, names = "phibar", range(max(instance.sizes))
    # one line per multiplier key: a profile (DS) or an own type (BAYES)
    for i in range(instance.n):
        positions = multiplier_keys(instance, form, i).positions
        for j in range(instance.m):
            for key, (t, s) in enumerate(positions):
                entry = table.values[i][j][instance.ranks[i][s][t]]
                print(f"{prefix}:{i}:{j}:{names[key]} {_entry_str(entry)}")
    vwm = check_vwm(instance, mechanism, table)
    if vwm.ok:
        print(f"vwm ok checked={vwm.checked}")
    else:
        print(f"vwm violations {len(vwm.violations)}")
        for violation in vwm.violations:
            buyer = "-" if violation.buyer is None else str(violation.buyer)
            print(f"vwm {violation.kind} i={buyer} j={violation.item} r={violation.rank}")
    ubvv = check_ubvv(table, instance)
    if ubvv.ok:
        print(f"ubvv ok checked={ubvv.checked}")
    else:
        print(f"ubvv violations {len(ubvv.violations)}")
        for i, j, r in ubvv.violations:
            print(f"ubvv over-value i={i} j={j} r={r}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use; parsing leaves it unchanged,
    so every later call returns the same one."""
    parser = argparse.ArgumentParser(
        prog="auctionlp",
        description="Exact LP solver and verifier for optimal auctions "
        "on finite type spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, path=True):
        if path:
            p.add_argument("path", help="instance JSON file")
        p.add_argument(
            "--augment-zero",
            action="store_true",
            help="add the zero vector at mass 0 where absent",
        )
        p.add_argument(
            "--caps",
            type=int,
            default=256,
            metavar="PROFILES",
            help="profile-count cap (default 256)",
        )

    p = sub.add_parser("validate", help="validate and print the normalized instance")
    common(p)
    p.add_argument("--strict", action="store_true", help="reject zero-mass nonzero types")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve one form and print the optimal revenue")
    common(p)
    p.add_argument("--form", choices=sorted(_FORMS), default="ds")
    p.add_argument("--certificate", metavar="OUT", help="write a certificate file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("self-check", help="re-verify a stored certificate")
    common(p)
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(func=cmd_self_check)

    p = sub.add_parser(
        "characterize",
        help="report BRev/DRev/SRev, equality flags, and the witness status",
    )
    common(p, path=False)
    p.add_argument("path", nargs="?", default=None, help="instance JSON file")
    p.add_argument(
        "--gen",
        metavar="SPEC",
        help="generate instances instead: comma-separated key=value "
        "(n, m, support, value_range, denominator, iid, correlated)",
    )
    # None when not given, so that main can refuse them without --gen
    p.add_argument("--seed", type=int, help="first generator seed (default 0; needs --gen)")
    p.add_argument(
        "--count", type=int, help="instances to generate (default 1; needs --gen)"
    )
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser(
        "virtuals",
        help="solve, regularize, and print the virtual-value table with checks",
    )
    common(p)
    p.add_argument("--form", choices=sorted(_FORMS), default="ds")
    p.set_defaults(func=cmd_virtuals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "characterize":
        if args.path is None and args.gen is None:
            parser.error("characterize needs an instance path or --gen")
        if args.path is not None and args.gen is not None:
            parser.error("characterize takes an instance path or --gen, not both")
        if args.gen is None and (args.seed is not None or args.count is not None):
            parser.error("characterize --seed and --count need --gen")
        if args.gen is not None and args.augment_zero:
            # generated instances always hold the zero type
            parser.error("characterize --augment-zero needs an instance path, not --gen")
    try:
        if args.caps < 1:
            raise DimensionMismatch(f"--caps must be at least 1, got {echo(args.caps)}")
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Python's SIGPIPE recipe: what is still buffered goes nowhere,
        # so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ScaleLimit as exc:
        # also the exact simplex's PivotLimit; a program with no optimum
        # is a NotOptimal, exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except _INVALID_INPUT as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AuctionLPError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
