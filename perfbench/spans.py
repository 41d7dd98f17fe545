"""Layer spans and counters recorded from outside the program.

The traced run rebinds public functions of the auctionlp modules to
wrappers that record a span (name, start, end, parent, operation) per
call, plus a few exact counters.  Every module attribute that refers to
a wrapped function is rebound, so calls through names that one module
imported from another (``from .auction import extract_dual``) are seen
too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute) pairs naming the original functions
SPANS = {
    "cli": [("auctionlp.cli", "main")],
    "oracles.gen": [("auctionlp.oracles", "gen_instance")],
    "model.validate": [("auctionlp.model", "validate_instance")],
    "lp.solve": [("auctionlp.lp.simplex", "solve")],
    "lp.recheck": [("auctionlp.lp.program", "recheck_certificate")],
    "auction.build": [
        ("auctionlp.auction", "build_dslp"),
        ("auctionlp.auction", "build_blp"),
        ("auctionlp.auction", "build_dual_dslp"),
        ("auctionlp.auction", "build_dual_blp"),
    ],
    "auction.extract": [
        ("auctionlp.auction", "extract_mechanism"),
        ("auctionlp.auction", "extract_dual"),
    ],
    "auction.certdoc": [("auctionlp.auction", "certificate_document")],
    "auction.certio": [
        ("auctionlp.auction", "write_certificate"),
        ("auctionlp.auction", "load_certificate"),
    ],
    "auction.verify": [("auctionlp.auction", "verify_certificate_document")],
    "virtual.regularize": [
        ("auctionlp.virtual", "regularize_ds"),
        ("auctionlp.virtual", "regularize_bayes"),
    ],
    "virtual.tables": [
        ("auctionlp.virtual", "virtual_values_ds"),
        ("auctionlp.virtual", "virtual_values_bayes"),
    ],
    "virtual.checks": [
        ("auctionlp.virtual", "check_cs_ds"),
        ("auctionlp.virtual", "check_cs_bayes"),
        ("auctionlp.virtual", "check_vwm"),
        ("auctionlp.virtual", "check_ubvv"),
    ],
    "analysis.srev": [("auctionlp.analysis", "srev")],
    "analysis.tight_dual": [("auctionlp.analysis", "tight_downward_dual")],
    "analysis.equivalence": [
        ("auctionlp.analysis", "bic_to_dsic_dual"),
        ("auctionlp.analysis", "check_agent_independence"),
    ],
    "analysis.characterize": [("auctionlp.analysis", "characterize")],
}

# Counted, not spanned: one pivot is far too short for a span to be cheap.
COUNTED = {
    "lp.pivots": ("auctionlp.lp.simplex", "eliminate"),
}


def _denominator_bits(cert) -> int:
    best = 0
    for vector in (cert.primal, cert.dual, cert.witness):
        if vector:
            for q in vector:
                best = max(best, q.denominator.bit_length())
    if cert.objective is not None:
        best = max(best, cert.objective.denominator.bit_length())
    return best


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False  # wrappers call straight through when False
        self.cert_bytes = 0
        self.lp_sizes = [0, 0, 0]  # rows, cols, nonzeros over solved LPs
        self.den_bits_max = 0
        self._pending_certs: list = []
        self._pending_files: list = []
        self._undo: list = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        import auctionlp.analysis  # noqa: F401  (loads every module)
        import auctionlp.cli  # noqa: F401
        from auctionlp.model import Instance

        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "auctionlp" or name.startswith("auctionlp.")
        ]
        for span, targets in SPANS.items():
            for modname, attr in targets:
                original = getattr(sys.modules[modname], attr)
                self._rebind(modules, original, self._span_wrapper(span, original))
        for counter, (modname, attr) in COUNTED.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(modules, original, self._count_wrapper(counter, original))
        for attr in ("mu", "mu_minus"):
            original = getattr(Instance, attr)
            self._undo.append((Instance, attr, original))
            setattr(Instance, attr, self._count_wrapper("model.mu_calls", original))

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        is_solve = name == "lp.solve"
        is_recheck = name == "lp.recheck"
        is_io = name == "auction.certio"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if is_solve:
                lp = args[0]
                self.lp_sizes[0] += lp.nrows
                self.lp_sizes[1] += lp.ncols
                self.lp_sizes[2] += sum(len(row) for row in lp.rows)
                self._pending_certs.append(result)
            elif is_recheck:
                self._pending_certs.append(args[1])
            elif is_io:
                self._pending_files.append(args[0])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def end_op(self) -> None:
        """Fold the certificates and certificate files seen during the
        last operation into their statistics; called outside every span."""
        for cert in self._pending_certs:
            self.den_bits_max = max(self.den_bits_max, _denominator_bits(cert))
        for path in self._pending_files:
            self.cert_bytes += os.path.getsize(path)
        self._pending_certs.clear()
        self._pending_files.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self, since: int = 0) -> Counter:
        """Self time per span name over spans[since:]: duration minus the
        time covered by direct children."""
        child = [0.0] * len(self.spans)
        for record in self.spans[since:]:
            parent = record[3]
            if parent >= since:
                child[parent] += record[2] - record[1]
        out: Counter = Counter()
        for index in range(since, len(self.spans)):
            name, start, end = self.spans[index][:3]
            out[name] += end - start - child[index]
        return out

    def call_counts(self, since: int = 0) -> Counter:
        return Counter(record[0] for record in self.spans[since:])

    def calls_under(self, name: str, ancestor: str, since: int = 0) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        total = 0
        spans = self.spans
        for record in spans[since:]:
            if record[0] != name:
                continue
            parent = record[3]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = spans[parent][3]
        return total

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                handle,
            )
