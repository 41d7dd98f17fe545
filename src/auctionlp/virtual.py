"""Complementary slackness ledgers, dual regularization, and virtual
values derived from regularized optimal duals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleInput, MissingZeroType, NotOptimal, NotRegular
from .model import (
    BAYES,
    DS,
    DualSolutionBayes,
    DualSolutionDS,
    Instance,
    Mechanism,
    NEG_INF,
    PrimalSlacks,
    VirtualValueTable,
    bayes_dual_from_multipliers,
    ds_dual_from_multipliers,
    ds_flows,
    flow_phi,
    flow_psi,
    mechanism_slacks,
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


def _require_feasible_pair(slacks: PrimalSlacks, dual) -> None:
    if slacks.min_entry() < 0:
        raise InfeasibleInput("primal slacks contain a negative entry")
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")


def check_cs_ds(
    instance: Instance,
    mechanism: Mechanism,
    dual: DualSolutionDS,
    slacks: PrimalSlacks | None = None,
) -> GapLedger:
    """Pair every slack with its multiplier; the five family sums add up
    to obj(dual) - obj(primal) exactly, and vanish iff both sides are
    optimal."""
    if slacks is None:
        slacks = mechanism_slacks(instance, mechanism)
    _require_feasible_pair(slacks, dual)
    ic = Fraction(0)
    for i, k in enumerate(instance.sizes):
        zeta = dual.zeta[i]
        for r, (t, s) in enumerate(instance.positions[i]):
            margins = slacks.a[i][r]
            for t2 in range(k):
                if t2 != t and zeta[t][t2][s] and margins[t2]:
                    ic += margins[t2] * zeta[t][t2][s]
    ir = _products(zip(slacks.b, dual.eta))
    return _ledger(instance, mechanism, dual, slacks, ic, ir)


def check_cs_bayes(
    instance: Instance,
    mechanism: Mechanism,
    dual: DualSolutionBayes,
    slacks: PrimalSlacks | None = None,
) -> GapLedger:
    if slacks is None:
        slacks = mechanism_slacks(instance, mechanism)
    _require_feasible_pair(slacks, dual)
    ic = Fraction(0)
    for margins_i, zeta_i in zip(slacks.a, dual.zeta):
        for t, (margins, zeta) in enumerate(zip(margins_i, zeta_i)):
            for t2, (a, z) in enumerate(zip(margins, zeta)):
                if t2 != t and a and z:
                    ic += a * z
    ir = _products(zip(slacks.b, dual.eta))
    return _ledger(instance, mechanism, dual, slacks, ic, ir)


def _products(pairs) -> Fraction:
    """Sum of a * b over the entries of every (a-row, b-row) pair."""
    total = Fraction(0)
    for row_a, row_b in pairs:
        for a, b in zip(row_a, row_b):
            if a and b:
                total += a * b
    return total


def _ledger(instance, mechanism, dual, slacks, ic, ir) -> GapLedger:
    """Complete the ledger with the three families both forms share, and
    check that it reproduces the objective gap."""
    supply = _products(zip(slacks.c, dual.xi))
    alloc = _products(
        (alpha, [row[i][j] for row in mechanism.alloc])
        for i, alpha_i in enumerate(dual.alpha)
        for j, alpha in enumerate(alpha_i)
    )
    pay = _products(zip(dual.beta, zip(*mechanism.pay)))
    ledger = GapLedger(ic=ic, ir=ir, supply=supply, alloc=alloc, pay=pay)
    gap = dual.objective() - mechanism.revenue(instance)
    if ledger.gap != gap:
        raise NotOptimal(
            f"ledger gap {ledger.gap} does not reproduce the objective gap {gap}"
        )
    return ledger


# ---------------------------------------------------------------------------
# Regularization


def _zero_indices(instance: Instance) -> list[int]:
    zeros = []
    for i in range(instance.n):
        t0 = instance.zero_index(i)
        if t0 is None:
            raise MissingZeroType(f"buyer {i} has no zero vector in support")
        zeros.append(t0)
    return zeros


def ds_regularity_witness(instance: Instance, dual: DualSolutionDS):
    """None if the dual satisfies all three regularity conditions, else
    a (condition, indices) witness."""
    zeros = _zero_indices(instance)
    mu = instance.mu_by_rank
    for i in range(instance.n):
        weights, vecs = instance.mu_minus_by_slice[i], instance.supports[i]
        for r, profile in enumerate(instance.profiles()):
            t, s = instance.positions[i][r]
            held, inflow = ds_flows(instance, dual.zeta, dual.eta, i, r)
            if weights[s] == 0:
                for j in range(instance.m):
                    if flow_phi(held, inflow, vecs, t, j) != 0:
                        return ("virtual", (i, j, profile))
            if t != zeros[i]:
                if dual.eta[i][r] != 0:
                    return ("source", (i, profile))
            elif dual.eta[i][r] != weights[s]:
                return ("source", (i, profile))
            if flow_psi(held, inflow) != mu[r]:
                return ("trans", (i, profile))
    return None


def bayes_regularity_witness(instance: Instance, dual: DualSolutionBayes):
    zeros = _zero_indices(instance)
    for i in range(instance.n):
        for t in range(instance.sizes[i]):
            if t != zeros[i]:
                if dual.eta[i][t] != 0:
                    return ("source", (i, t))
            elif dual.eta[i][t] != 1:
                return ("source", (i, t))
            if dual.psibar(instance, i, t) != instance.mu_i(i, t):
                return ("trans", (i, t))
    return None


def _as_lists_ds(zeta):
    return [
        [[list(col) for col in row] for row in buyer] for buyer in zeta
    ]


def _freeze_ds(zeta):
    return tuple(
        tuple(tuple(tuple(col) for col in row) for row in buyer) for buyer in zeta
    )


def regularize_ds(
    instance: Instance, dual: DualSolutionDS, revenue: Fraction | None = None
) -> DualSolutionDS:
    """Rewrite an optimal dual so that participation weight sits only on
    the zero type and the payment coefficient meets mu(v) exactly.

    First every multiplier on opponent slices of zero mass is dropped;
    then, per buyer and slice, eta at a nonzero type moves onto
    zeta(t, 0) and the payment slack at t moves onto zeta(0, t), with
    eta reset to mu_{-i} at the zero type.  Objective and feasibility
    are preserved; all three regularity conditions are verified before
    returning.
    """
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    if revenue is None:
        from .auction import drev

        revenue = drev(instance)
    if dual.objective() != revenue:
        raise NotOptimal("dual objective does not match the optimal revenue")
    zeros = _zero_indices(instance)

    zeta = _as_lists_ds(dual.zeta)
    eta = [list(row) for row in dual.eta]
    for i in range(instance.n):
        for s, ranks in enumerate(instance.ranks[i]):
            if instance.mu_minus_by_slice[i][s] != 0:
                continue
            for t, r in enumerate(ranks):
                for t2 in range(instance.sizes[i]):
                    if t2 != t:
                        zeta[i][t][t2][s] = Fraction(0)
                eta[i][r] = Fraction(0)

    frozen = ds_dual_from_multipliers(
        instance, _freeze_ds(zeta), tuple(tuple(row) for row in eta), dual.xi
    )
    for i in range(instance.n):
        t0 = zeros[i]
        weights = instance.mu_minus_by_slice[i]
        for s, ranks in enumerate(instance.ranks[i]):
            for t, r in enumerate(ranks):
                if t == t0:
                    continue
                zeta[i][t][t0][s] = frozen.zeta[i][t][t0][s] + frozen.eta[i][r]
                zeta[i][t0][t][s] = frozen.zeta[i][t0][t][s] + frozen.beta[i][r]
                eta[i][r] = Fraction(0)
            eta[i][ranks[t0]] = weights[s]

    result = ds_dual_from_multipliers(
        instance, _freeze_ds(zeta), tuple(tuple(row) for row in eta), dual.xi
    )
    if not result.is_feasible():
        raise NotRegular("regularized dual lost feasibility")
    if result.objective() != revenue:
        raise NotRegular("regularized dual changed the objective")
    witness = ds_regularity_witness(instance, result)
    if witness is not None:
        raise NotRegular(f"regularity condition failed: {witness}")
    return result


def regularize_bayes(
    instance: Instance, dual: DualSolutionBayes, revenue: Fraction | None = None
) -> DualSolutionBayes:
    """Bayesian mirror of regularize_ds: per buyer, eta at a nonzero
    type moves onto zeta(t, 0), the payment-coefficient surplus
    psibar(t) - mu_i(t) moves onto zeta(0, t), and eta becomes the unit
    mass at the zero type."""
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    if revenue is None:
        from .auction import brev

        revenue = brev(instance)
    if dual.objective() != revenue:
        raise NotOptimal("dual objective does not match the optimal revenue")
    zeros = _zero_indices(instance)

    zeta = [[list(row) for row in buyer] for buyer in dual.zeta]
    eta = [list(row) for row in dual.eta]
    for i in range(instance.n):
        t0 = zeros[i]
        for t in range(instance.sizes[i]):
            if t == t0:
                continue
            surplus = dual.psibar(instance, i, t) - instance.mu_i(i, t)
            zeta[i][t][t0] += dual.eta[i][t]
            zeta[i][t0][t] += surplus
            eta[i][t] = Fraction(0)
        eta[i][t0] = Fraction(1)

    result = bayes_dual_from_multipliers(
        instance,
        tuple(tuple(tuple(row) for row in buyer) for buyer in zeta),
        tuple(tuple(row) for row in eta),
        dual.xi,
    )
    if not result.is_feasible():
        raise NotRegular("regularized dual lost feasibility")
    if result.objective() != revenue:
        raise NotRegular("regularized dual changed the objective")
    witness = bayes_regularity_witness(instance, result)
    if witness is not None:
        raise NotRegular(f"regularity condition failed: {witness}")
    return result


# ---------------------------------------------------------------------------
# Virtual values


def virtual_values_ds(instance: Instance, dual: DualSolutionDS) -> VirtualValueTable:
    """Per-profile virtual values of a regular dual.

    On mass-bearing profiles the entry is the value corrected by the
    incoming zeta weights, and multiplying back by mu(v) reproduces the
    dual's expected virtual value.  Zero-mass opponent slices get 0 by
    convention, as do zero-mass nonzero own types; the zero type at
    zero mass against a mass-bearing slice is -inf.
    """
    witness = ds_regularity_witness(instance, dual)
    if witness is not None:
        raise NotRegular(f"dual is not regular: {witness}")
    zeros = _zero_indices(instance)
    mu = instance.mu_by_rank
    values = []
    for i in range(instance.n):
        weights, vecs = instance.mu_minus_by_slice[i], instance.supports[i]
        per_item = [[None] * instance.profile_count for _ in range(instance.m)]
        for r, (t, s) in enumerate(instance.positions[i]):
            w = mu[r]
            if not w:
                entry = NEG_INF if weights[s] and t == zeros[i] else Fraction(0)
                for col in per_item:
                    col[r] = entry
                continue
            held, inflow = ds_flows(instance, dual.zeta, dual.eta, i, r)
            for j, col in enumerate(per_item):
                vt = vecs[t][j]
                total = Fraction(0)
                for t2, z in inflow:
                    total += z * (vt - vecs[t2][j])
                phi = vt + total / w
                if phi * w != flow_phi(held, inflow, vecs, t, j):
                    raise NotRegular(
                        f"virtual value {phi} times mass {w} misses phi_star "
                        f"at buyer {i}, item {j}, profile rank {r}"
                    )
                col[r] = phi
        values.append(tuple(map(tuple, per_item)))
    return VirtualValueTable(form=DS, values=tuple(values))


def virtual_values_bayes(
    instance: Instance, dual: DualSolutionBayes
) -> VirtualValueTable:
    """Per-type virtual values of a regular Bayesian dual, broadcast
    across opponent profiles so the table is constant in v_{-i}."""
    witness = bayes_regularity_witness(instance, dual)
    if witness is not None:
        raise NotRegular(f"dual is not regular: {witness}")
    zeros = _zero_indices(instance)
    values = []
    for i in range(instance.n):
        per_type = []
        for t in range(instance.sizes[i]):
            w = instance.mu_i(i, t)
            row = []
            for j in range(instance.m):
                if w:
                    vt = instance.value(i, t)[j]
                    total = Fraction(0)
                    for t2 in range(instance.sizes[i]):
                        if t2 == t:
                            continue
                        total += dual.zeta[i][t2][t] * (
                            vt - instance.value(i, t2)[j]
                        )
                    phi = vt + total / w
                    if phi * w != dual.phibar_star(instance, i, j, t):
                        raise NotRegular(
                            f"virtual value {phi} times mass {w} misses "
                            f"phibar_star at buyer {i}, item {j}, type {t}"
                        )
                    row.append(phi)
                elif t == zeros[i]:
                    row.append(NEG_INF)
                else:
                    row.append(Fraction(0))
            per_type.append(row)
        values.append(
            tuple(
                tuple(per_type[t][j] for t, _ in instance.positions[i])
                for j in range(instance.m)
            )
        )
    return VirtualValueTable(form=BAYES, values=tuple(values))


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
