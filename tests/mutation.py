"""Mutation check of the trusted base, outside tier-1.

Each mutant is one exact text edit to a file of the repository.  The
runner copies the repository (without .git and caches) to a temporary
directory, applies the edit there, and runs tier-1 on the copy with
-x.  A mutant is killed when the suite fails, and survives when it
passes; every mutant on the list must be killed.  The repository
itself is never edited.

Each mutant costs one tier-1 run (about a minute on two cores), which
is too slow for tier-1 itself.  Run it by hand before a change to the
trusted base, or as a CI job of its own:

    python tests/mutation.py               # every mutant
    python tests/mutation.py NAME [NAME]   # the named ones
    python tests/mutation.py --list        # the names, run nothing

It prints one line per mutant: killed (with the first test that
failed) or SURVIVED.  The exit status is 0 when every mutant run was
killed, 1 when one survived, and 2 when a mutant's text is not found
exactly once in its file, so that the list has gone stale.  Standard
library only.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    """Replace old, which must occur exactly once in path (relative to
    the repository root), by new."""

    name: str
    path: str
    old: str
    new: str


MODEL = "src/auctionlp/model.py"
AUCTION = "src/auctionlp/auction.py"
PROGRAM = "src/auctionlp/lp/program.py"
VIRTUAL = "src/auctionlp/virtual.py"
ANALYSIS = "src/auctionlp/analysis.py"

MUTANTS = [
    # the DS gather of _ds_coefficients reads the inflow through the
    # keys of the own type instead of the report's
    Mutant(
        "ds-inflow-wrong-report",
        MODEL,
        "inflow = [into[key] for key in lie_keys]",
        "inflow = [into[key] for key in keys]",
    ),
    # the truth term of a DS ic slack enters with its sign flipped
    Mutant(
        "ds-slack-truth-sign",
        MODEL,
        "gap = [[truth - lie for truth, lie",
        "gap = [[-truth - lie for truth, lie",
    ),
    # the DS inflow no longer skips the diagonal ("true t, report t")
    Mutant(
        "ds-inflow-diagonal",
        MODEL,
        "            if t2 == t:\n                continue\n            inflow = [into[key]",
        "            inflow = [into[key]",
    ),
    # the DS alpha takes phi over its own denominator, not alpha's
    Mutant(
        "ds-alpha-to-alpha",
        MODEL,
        "[q * to_xi - to_alpha * p for q, p in zip(col, phi_j)]",
        "[q * to_xi - p for q, p in zip(col, phi_j)]",
    ),
    # the DS beta takes the profile mass over its own denominator
    Mutant(
        "ds-beta-to-mu",
        MODEL,
        "beta_i = [to_beta * p - q * to_mu for p, q in zip(psis, mu.nums)]",
        "beta_i = [to_beta * p - q for p, q in zip(psis, mu.nums)]",
    ),
    # a Bayesian key's inflow reads its own "true t, report t2"
    # multiplier instead of the "true t2, report t" one
    Mutant(
        "bayes-inflow-transposed",
        MODEL,
        "w = zeta_i[t2][t]",
        "w = zeta_i[t][t2]",
    ),
    # a Bayesian slice's alpha adds the key's phi instead of subtracting it
    Mutant(
        "bayes-slice-alpha-sign",
        MODEL,
        "col[r] -= w_alpha * phi_j",
        "col[r] += w_alpha * phi_j",
    ),
    # a Bayesian key's payment sums its slices without their scales
    Mutant(
        "bayes-key-rows-unscaled",
        MODEL,
        "prices[t2] += w * paid[lr]",
        "prices[t2] += paid[lr]",
    ),
    # the sup slack subtracts one buyer's allocation column, not the
    # sum over buyers
    Mutant(
        "sup-slack-one-buyer",
        MODEL,
        "sold = (map(sum, zip(*columns)) for columns in zip(*alloc))",
        "sold = (map(sum, zip(columns[0])) for columns in zip(*alloc))",
    ),
    # extraction slices each payment column one rank off
    Mutant(
        "entries-pay-column-shifted",
        AUCTION,
        "pay = tuple(vector[p : p + count] for p",
        "pay = tuple(vector[p + 1 : p + count + 1] for p",
    ),
    # a slice's ranks step one past the stride of the buyer's type
    Mutant(
        "ranks-stride-off-by-one",
        MODEL,
        "tuple(range(first, first + span, d))",
        "tuple(range(first, first + span, d + 1))",
    ),
    # positions, the inverse of ranks, puts every rank on slice 0
    Mutant(
        "positions-slice-dropped",
        MODEL,
        "pos[r] = (t, s)",
        "pos[r] = (t, 0)",
    ),
    # the face search holds the dual row of a zero entry with equality,
    # as if the entry were positive
    Mutant(
        "positive-columns-nonnegative",
        AUCTION,
        "if q > 0]",
        "if q >= 0]",
    ),
    # the one acceptance of an optimum (_accepted) takes a dual it has
    # not checked feasible
    Mutant(
        "accepted-dual-unchecked",
        AUCTION,
        "if not dual.is_feasible():",
        "if False:",
    ),
    # _accepted takes a mechanism it has not checked feasible (the face
    # search's argument check reads the same test, and raises another error)
    Mutant(
        "accepted-mechanism-unchecked",
        AUCTION,
        "if not mechanism_feasible(instance, mechanism, slacks):\n"
        "        raise CertificateError(",
        "if False:\n        raise CertificateError(",
    ),
    # _accepted takes a dual of the other form than the mechanism's
    Mutant(
        "accepted-form-unchecked",
        AUCTION,
        "if dual.form != mechanism.form:\n        raise CertificateError(",
        "if False:\n        raise CertificateError(",
    ),
    # _accepted takes a mechanism whose revenue is not the dual's objective
    Mutant(
        "accepted-revenue-unchecked",
        AUCTION,
        "if dual.objective() != mechanism.revenue(instance):",
        "if False:",
    ),
    # a certificate document is read against an instance of other masses
    Mutant(
        "verify-digest-unchecked",
        AUCTION,
        'if document.get("digest") != instance.digest():',
        "if False:",
    ),
    # the model re-proof of a document drops its stated objective
    Mutant(
        "verify-objective-unchecked",
        AUCTION,
        "elif _prove(instance, layout, *vectors).dual.objective() != objective:",
        "elif _prove(instance, layout, *vectors) is None:",
    ),
    # a proof-less primal certificate keeps an objective its pair does not have
    Mutant(
        "proof-objective-unchecked",
        AUCTION,
        "if proof.dual.objective() != certificate.objective:",
        "if False:",
    ),
    # _proof reads a pair of vectors of another shape through the form's layout
    Mutant(
        "proof-shape-unchecked",
        AUCTION,
        "if (len(certificate.dual), len(certificate.primal)) != layout.shape:",
        "if False:",
    ),
    # _proof reuses a proof of this instance in a form it does not prove
    Mutant(
        "proof-form-unchecked",
        AUCTION,
        "if proof.instance != instance or proof.mechanism.form != form:",
        "if proof.instance != instance:",
    ),
    # a document's stored ledger may hold a nonzero entry
    Mutant(
        "verify-ledger-unchecked",
        AUCTION,
        "if any(ledger.values()):",
        "if False:",
    ),
    # _build_primal writes an ic row's truth term with its sign flipped
    Mutant(
        "primal-truth-sign",
        AUCTION,
        "number(-w * v, unit)) for x, v in zip(xs, vec) if v]",
        "number(w * v, unit)) for x, v in zip(xs, vec) if v]",
    ),
    # _build_primal keeps the zero-valued terms of ic and ir rows
    Mutant(
        "primal-zero-coefficient-kept",
        AUCTION,
        "zip(xs, vec) if v]",
        "zip(xs, vec)]",
    ),
    # _build_primal writes the truth's payment column twice in an ic
    # row, in place of the lie's
    Mutant(
        "primal-pay-column-twice",
        AUCTION,
        "row += ((p_i + lr, neg), pay)",
        "row += ((p_i + r, neg), pay)",
    ),
    # check_cs sums the ledger of a dual of the other form than the
    # mechanism's
    Mutant(
        "ledger-form-unchecked",
        VIRTUAL,
        "    dual.check_form(mechanism.form)\n",
        "",
    ),
    # check_ubvv flags an entry equal to its value
    Mutant(
        "ubvv-strict-relaxed",
        VIRTUAL,
        "if entry * value_den > vec[j] * den:",
        "if entry * value_den >= vec[j] * den:",
    ),
    # check_ubvv reads the value's numerator as the value
    Mutant(
        "ubvv-value-den-dropped",
        VIRTUAL,
        "if entry * value_den > vec[j] * den:",
        "if entry > vec[j] * den:",
    ),
    # _slice_mismatch compares no virtual values across slices
    Mutant(
        "slice-phi-unchecked",
        ANALYSIS,
        "if column[r] != column[base]:",
        "if False:",
    ),
    # a table writes 0 where a virtual value is -inf
    Mutant(
        "table-neg-inf-as-zero",
        VIRTUAL,
        "(None if weights[s] and t == t0 else 0,)",
        "(0 if weights[s] and t == t0 else 0,)",
    ),
    # recheck_certificate drops the stated objective
    Mutant(
        "recheck-objective-unchecked",
        PROGRAM,
        "_require(objective == cert.objective,",
        "_require(True,",
    ),
    # certify_optimal takes a dual that violates a dual column
    Mutant(
        "certify-dual-column-unchecked",
        PROGRAM,
        "num * cj.denominator >= sign * cj.numerator * den,",
        "True,",
    ),
    # certify_optimal takes a pair with a duality gap
    Mutant(
        "certify-gap-unchecked",
        PROGRAM,
        "_require(sign * cx_num * by_den == by_num * cx_den,",
        "_require(True,",
    ),
    # certify_optimal takes a dual with a negative entry
    Mutant(
        "certify-dual-negativity-unchecked",
        PROGRAM,
        '_require(not _negative(ys), "dual negativity")',
        "pass",
    ),
]

# tier-1, stopping at the first failure, with a summary line per
# failure.  The test that holds this list to the unmutated code is
# deselected: on a mutated copy it would fail for every mutant.
TIER1 = [
    "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
    "--continue-on-collection-errors",
    "--deselect", "tests/test_surface.py::test_mutants_apply_to_the_code_as_it_stands",
]

_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
)


def stale(mutant: Mutant) -> str | None:
    """Why the mutant cannot be applied to the repository as it stands,
    or None."""
    count = (ROOT / mutant.path).read_text().count(mutant.old)
    return None if count == 1 else f"its text occurs {count} times in {mutant.path}"


def run(mutant: Mutant) -> str | None:
    """The first test tier-1 fails on a copy with the mutant applied
    ("collection" when none is named), or None when it passes."""
    with tempfile.TemporaryDirectory(prefix="auctionlp-mutant-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        target = copy / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True
        )
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else "collection"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the names and exit")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    if args.list:
        print("\n".join(known))
        return 0
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    problems = {mutant.name: stale(mutant) for mutant in chosen}
    if any(problems.values()):
        for name, problem in problems.items():
            if problem:
                print(f"{name}: stale, {problem}")
        return 2
    survived = 0
    for mutant in chosen:
        killer = run(mutant)
        survived += killer is None
        print(f"{mutant.name}: " + (f"killed by {killer}" if killer else "SURVIVED"), flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
