"""Complementary slackness ledgers, dual regularization, and virtual
values derived from regularized optimal duals.

Both forms share one dual format (see model.multiplier_keys), so each
step below has one body; the public functions of each form enter it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleInput, MissingZeroType, NotOptimal, NotRegular
from .model import (
    BAYES,
    DS,
    DualSolution,
    Instance,
    Mechanism,
    NEG_INF,
    PrimalSlacks,
    VirtualValueTable,
    dual_from_multipliers,
    flow_phi,
    flow_psi,
    key_flows,
    mechanism_slacks,
    multiplier_keys,
)

__all__ = [
    "GapLedger",
    "check_cs_ds",
    "check_cs_bayes",
    "regularize_ds",
    "regularize_bayes",
    "ds_regularity_witness",
    "bayes_regularity_witness",
    "virtual_values_ds",
    "virtual_values_bayes",
    "check_vwm",
    "VwmReport",
    "check_ubvv",
    "UbvvReport",
]


# ---------------------------------------------------------------------------
# Complementary slackness


@dataclass(frozen=True)
class GapLedger:
    """The objective gap split into the five product families."""

    ic: Fraction
    ir: Fraction
    supply: Fraction
    alloc: Fraction
    pay: Fraction

    @property
    def gap(self) -> Fraction:
        return self.ic + self.ir + self.supply + self.alloc + self.pay

    @property
    def optimal(self) -> bool:
        return self.gap == 0


def check_cs_ds(
    instance: Instance,
    mechanism: Mechanism,
    dual: DualSolution,
    slacks: PrimalSlacks | None = None,
) -> GapLedger:
    """Pair every slack with its multiplier; the five family sums add up
    to obj(dual) - obj(primal) exactly, and vanish iff both sides are
    optimal."""
    return _check_cs(instance, mechanism, dual, slacks)


def check_cs_bayes(
    instance: Instance,
    mechanism: Mechanism,
    dual: DualSolution,
    slacks: PrimalSlacks | None = None,
) -> GapLedger:
    """check_cs_ds for the Bayesian form."""
    return _check_cs(instance, mechanism, dual, slacks)


def _check_cs(instance, mechanism, dual, slacks) -> GapLedger:
    """The ledger of either form: the slacks' a and b are keyed like the
    dual's zeta and eta."""
    if slacks is None:
        slacks = mechanism_slacks(instance, mechanism)
    if not slacks.feasible:
        raise InfeasibleInput("primal slacks contain a negative entry")
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    ledger = GapLedger(
        ic=_products(
            pair for a_i, zeta_i in zip(slacks.a, dual.zeta) for pair in zip(a_i, zeta_i)
        ),
        ir=_products(zip(slacks.b, dual.eta)),
        supply=_products(zip(slacks.c, dual.xi)),
        alloc=_products(
            (alpha, [row[i][j] for row in mechanism.alloc])
            for i, alpha_i in enumerate(dual.alpha)
            for j, alpha in enumerate(alpha_i)
        ),
        pay=_products(zip(dual.beta, zip(*mechanism.pay))),
    )
    gap = dual.objective() - mechanism.revenue(instance)
    if ledger.gap != gap:
        raise NotOptimal(
            f"ledger gap {ledger.gap} does not reproduce the objective gap {gap}"
        )
    return ledger


def _products(pairs) -> Fraction:
    """Sum of a * b over the entries of every (a-row, b-row) pair."""
    total = Fraction(0)
    for row_a, row_b in pairs:
        for a, b in zip(row_a, row_b):
            if a and b:
                total += a * b
    return total


# ---------------------------------------------------------------------------
# Regularity


def _zero_indices(instance: Instance) -> list[int]:
    zeros = []
    for i in range(instance.n):
        t0 = instance.zero_index(i)
        if t0 is None:
            raise MissingZeroType(f"buyer {i} has no zero vector in support")
        zeros.append(t0)
    return zeros


def ds_regularity_witness(instance: Instance, dual: DualSolution):
    """None if the dual satisfies all three regularity conditions, else
    a (condition, indices) witness."""
    return _regularity_witness(instance, dual, DS)


def bayes_regularity_witness(instance: Instance, dual: DualSolution):
    """ds_regularity_witness for the Bayesian form."""
    return _regularity_witness(instance, dual, BAYES)


def _regularity_witness(instance: Instance, dual: DualSolution, form: str):
    """Per key: no virtual value on a zero-mass slice ("virtual"),
    participation weight only on the zero type and there exactly the
    slice's weight ("source"), and the payment coefficient equal to the
    key's mass ("trans").  DS keys are named by profile, BAYES keys by
    type."""
    zeros = _zero_indices(instance)
    profiles = list(instance.profiles())
    for i, t0 in enumerate(zeros):
        positions, families, weights, masses, _ = multiplier_keys(instance, form, i)
        names = profiles if form == DS else range(len(positions))
        vecs = instance.supports[i]
        zeta_i, eta_i = dual.zeta[i], dual.eta[i]
        for key, (t, s) in enumerate(positions):
            held, inflow = key_flows(zeta_i, eta_i, families[s], t)
            if weights[s] == 0:
                for j in range(instance.m):
                    if flow_phi(held, inflow, vecs, t, j) != 0:
                        return ("virtual", (i, j, names[key]))
            if eta_i[key] != (weights[s] if t == t0 else 0):
                return ("source", (i, names[key]))
            if flow_psi(held, inflow) != masses[key]:
                return ("trans", (i, names[key]))
    return None


# ---------------------------------------------------------------------------
# Regularization


def regularize_ds(
    instance: Instance, dual: DualSolution, revenue: Fraction
) -> DualSolution:
    """Rewrite an optimal dual so that participation weight sits only on
    the zero type and the payment coefficient meets mu(v) exactly.

    First every multiplier on opponent slices of zero mass is dropped;
    then, per buyer and slice, eta at a nonzero type moves onto
    zeta(t, 0) and the payment slack at t moves onto zeta(0, t), with
    eta reset to mu_{-i} at the zero type.  Objective and feasibility
    are preserved; all three regularity conditions are verified before
    returning.
    """
    return _regularize(instance, dual, revenue, DS)


def regularize_bayes(
    instance: Instance, dual: DualSolution, revenue: Fraction
) -> DualSolution:
    """Bayesian mirror of regularize_ds: per buyer, eta at a nonzero
    type moves onto zeta(t, 0), the payment-coefficient surplus
    psibar(t) - mu_i(t) moves onto zeta(0, t), and eta becomes the unit
    mass at the zero type."""
    return _regularize(instance, dual, revenue, BAYES)


def _regularize(instance: Instance, dual: DualSolution, revenue: Fraction, form: str):
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    if dual.objective() != revenue:
        raise NotOptimal("dual objective does not match the optimal revenue")
    zeros = _zero_indices(instance)
    zeta, eta = [], []
    for i, (k, t0) in enumerate(zip(instance.sizes, zeros)):
        positions, families, weights, masses, _ = multiplier_keys(instance, form, i)
        zeta_i = [list(row) for row in dual.zeta[i]]
        eta_i = list(dual.eta[i])
        for key, (_, s) in enumerate(positions):
            if not weights[s]:
                zeta_i[key] = [Fraction(0)] * k
                eta_i[key] = Fraction(0)
        # Each family once, through its zero type's key.  Moving type t
        # writes only zeta(t, 0) and zeta(0, t), which no later type's
        # flows read, so the moves can run in place.
        for key0, (own, s) in enumerate(positions):
            if own != t0:
                continue
            family = families[s]
            for t, key in enumerate(family):
                if t == t0:
                    continue
                surplus = flow_psi(*key_flows(zeta_i, eta_i, family, t)) - masses[key]
                zeta_i[key][t0] += eta_i[key]
                zeta_i[key0][t] += surplus
                eta_i[key] = Fraction(0)
            eta_i[key0] = weights[s]
        zeta.append(tuple(map(tuple, zeta_i)))
        eta.append(tuple(eta_i))
    result = dual_from_multipliers(instance, form, tuple(zeta), tuple(eta), dual.xi)
    if not result.is_feasible():
        raise NotRegular("regularized dual lost feasibility")
    if result.objective() != revenue:
        raise NotRegular("regularized dual changed the objective")
    witness = _regularity_witness(instance, result, form)
    if witness is not None:
        raise NotRegular(f"regularity condition failed: {witness}")
    return result


# ---------------------------------------------------------------------------
# Virtual values


def virtual_values_ds(instance: Instance, dual: DualSolution) -> VirtualValueTable:
    """Per-profile virtual values of a regular dual.

    On mass-bearing profiles the entry is the value corrected by the
    incoming zeta weights, and multiplying back by mu(v) reproduces the
    dual's expected virtual value.  Zero-mass opponent slices get 0 by
    convention, as do zero-mass nonzero own types; the zero type at
    zero mass against a mass-bearing slice is -inf.
    """
    return _virtual_values(instance, dual, DS)


def virtual_values_bayes(
    instance: Instance, dual: DualSolution
) -> VirtualValueTable:
    """Per-type virtual values of a regular Bayesian dual, broadcast
    across opponent profiles so the table is constant in v_{-i}."""
    return _virtual_values(instance, dual, BAYES)


def _virtual_values(instance: Instance, dual: DualSolution, form: str) -> VirtualValueTable:
    """One entry per key, read out at every profile of the key."""
    witness = _regularity_witness(instance, dual, form)
    if witness is not None:
        raise NotRegular(f"dual is not regular: {witness}")
    zeros = _zero_indices(instance)
    values = []
    for i, t0 in enumerate(zeros):
        positions, families, weights, masses, _ = multiplier_keys(instance, form, i)
        vecs = instance.supports[i]
        per_key = []
        for key, (t, s) in enumerate(positions):
            w = masses[key]
            if not w:
                entry = NEG_INF if weights[s] and t == t0 else Fraction(0)
                per_key.append((entry,) * instance.m)
                continue
            held, inflow = key_flows(dual.zeta[i], dual.eta[i], families[s], t)
            row = []
            for j in range(instance.m):
                vt = vecs[t][j]
                total = Fraction(0)
                for t2, z in inflow:
                    total += z * (vt - vecs[t2][j])
                phi = vt + total / w
                if phi * w != flow_phi(held, inflow, vecs, t, j):
                    raise NotRegular(
                        f"virtual value {phi} times mass {w} misses the expected "
                        f"virtual value at buyer {i}, item {j}, key {key}"
                    )
                row.append(phi)
            per_key.append(row)
        values.append(
            tuple(
                tuple(per_key[families[s][t]][j] for t, s in instance.positions[i])
                for j in range(instance.m)
            )
        )
    return VirtualValueTable(form=form, values=tuple(values))


# ---------------------------------------------------------------------------
# Virtual welfare maximization


@dataclass(frozen=True)
class VwmViolation:
    kind: str
    item: int
    rank: int
    buyer: int | None = None


@dataclass(frozen=True)
class VwmReport:
    checked: int
    violations: tuple[VwmViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_vwm(
    instance: Instance, mechanism: Mechanism, table: VirtualValueTable
) -> VwmReport:
    """Verify that on every mass-bearing profile each item goes only to
    buyers of maximal nonnegative virtual value, and that the item is
    fully allocated whenever the maximum is positive."""
    violations = []
    checked = 0
    for r, w in enumerate(instance.mu_by_rank):
        if w == 0:
            continue
        checked += 1
        for j in range(instance.m):
            entries = [table.values[i][j][r] for i in range(instance.n)]
            best = max(entries)
            for i in range(instance.n):
                if mechanism.alloc[r][i][j] > 0:
                    if entries[i] != best:
                        violations.append(
                            VwmViolation("alloc-not-argmax", j, r, i)
                        )
                    if entries[i] is NEG_INF or entries[i] < 0:
                        violations.append(
                            VwmViolation("alloc-negative", j, r, i)
                        )
            sold = sum((cell[j] for cell in mechanism.alloc[r]), Fraction(0))
            if sold < 1 and best is not NEG_INF and best > 0:
                violations.append(VwmViolation("unsold-max-positive", j, r))
            if 0 < sold < 1 and best != 0:
                violations.append(VwmViolation("partial-max-nonzero", j, r))
    return VwmReport(checked=checked, violations=tuple(violations))


@dataclass(frozen=True)
class UbvvReport:
    checked: int
    violations: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_ubvv(table: VirtualValueTable, instance: Instance) -> UbvvReport:
    """Report whether every finite entry on a mass-bearing profile stays
    at or below the corresponding value coordinate.  Violations are
    findings, not errors."""
    violations = []
    checked = 0
    for r, w in enumerate(instance.mu_by_rank):
        if w == 0:
            continue
        for i in range(instance.n):
            vec = instance.value(i, instance.positions[i][r][0])
            for j in range(instance.m):
                entry = table.values[i][j][r]
                if entry is NEG_INF:
                    continue
                checked += 1
                if entry > vec[j]:
                    violations.append((i, j, r))
    return UbvvReport(checked=checked, violations=tuple(violations))
