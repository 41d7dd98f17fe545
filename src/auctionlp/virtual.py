"""Complementary slackness ledgers, dual regularization, and virtual
values derived from regularized optimal duals.

Both forms share one dual format (see model.multiplier_keys), so each
step below has one body; the public functions of each form enter it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfeasibleInput, MissingZeroType, NotOptimal, NotRegular
from .model import (
    BAYES,
    DS,
    DualSolution,
    Instance,
    Mechanism,
    NEG_INF,
    PrimalSlacks,
    Scaled,
    VirtualValueTable,
    _dot,
    _dual_from_scaled,
    _slack_numerators,
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
    "CheckReport",
    "check_vwm",
    "check_ubvv",
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
    slacks = _slack_numerators(instance, mechanism) if slacks is None else slacks.scaled
    if not slacks.feasible:
        raise InfeasibleInput("primal slacks contain a negative entry")
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    multipliers = dual.scaled
    (alloc, pay), den = mechanism.scaled
    items = range(instance.m)
    ledger = GapLedger(
        ic=_products(zip(slacks.a, multipliers.zeta)),
        ir=_products(zip(slacks.b, multipliers.eta)),
        supply=_products([(slacks.c, multipliers.xi)]),
        alloc=_products(
            (alpha, Scaled(tuple(tuple(row[i][j] for row in alloc) for j in items), den))
            for i, alpha in enumerate(multipliers.alpha)
        ),
        pay=_products(
            (beta, Scaled(column, den)) for beta, column in zip(multipliers.beta, zip(*pay))
        ),
    )
    gap = dual.objective() - mechanism.revenue(instance)
    if ledger.gap != gap:
        raise NotOptimal(
            f"ledger gap {ledger.gap} does not reproduce the objective gap {gap}"
        )
    return ledger


def _products(pairs) -> Fraction:
    """Sum of a * b over the entries of every pair of families nested
    alike, each over its own denominator: one Fraction per pair."""
    return sum((Fraction(_dot(a.nums, b.nums), a.den * b.den) for a, b in pairs), Fraction(0))


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
    """Per key: no virtual value on a zero-mass slice ("virtual", naming
    the first item whose phi is nonzero), participation weight only on
    the zero type and there exactly the slice's weight ("source"), and
    the payment coefficient psi equal to the key's mass ("trans").  DS
    keys are named by profile, BAYES keys by type.  The comparisons
    cross-multiply numerators: the dual's, and the weights' and masses'
    over theirs."""
    zeros = _zero_indices(instance)
    profiles = list(instance.profiles())
    nums = dual.scaled
    for i, t0 in enumerate(zeros):
        keys = multiplier_keys(instance, form, i)
        (weights, w_den), (masses, m_den) = keys.weights, keys.masses
        names = profiles if form == DS else range(len(keys.positions))
        (eta_i, eta_den), (psi_i, psi_den) = nums.eta[i], nums.psi[i]
        phi_i = nums.phi[i].nums
        for key, (t, s) in enumerate(keys.positions):
            w = weights[s]
            if not w:
                for j, phi in enumerate(phi_i[key]):
                    if phi:
                        return ("virtual", (i, j, names[key]))
            if eta_i[key] * w_den != (w * eta_den if t == t0 else 0):
                return ("source", (i, names[key]))
            if psi_i[key] * m_den != masses[key] * psi_den:
                return ("trans", (i, names[key]))
    return None


# ---------------------------------------------------------------------------
# Regularization


def regularize_ds(
    instance: Instance, dual: DualSolution, revenue: Fraction
) -> DualSolution:
    """Rewrite an optimal dual so that participation weight sits only on
    the zero type and the payment coefficient meets mu(v) exactly.

    Per buyer and slice, every multiplier on a slice of zero opponent
    mass is dropped; elsewhere eta at a nonzero type moves onto
    zeta(t, 0) and the payment slack at t moves onto zeta(0, t), with
    eta reset to mu_{-i} at the zero type.  Objective and feasibility
    are preserved; all three regularity conditions are verified before
    returning.  A dual that is regular already is returned itself, as
    the moves would leave it.
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
    """The moves of regularize_ds and regularize_bayes, made on the
    multipliers' numerators: buyer i's zeta, eta and psi over Z, its
    weights over W and its masses over M, all brought over
    lcm(Z, W, M).

    A feasible dual that _regularity_witness accepts is returned as it
    is, since no move changes it.  Off the zero type its eta is 0, its
    psi is the key's mass, and the zero type's eta is already the
    weight, so each move adds 0.  On a slice of zero weight it holds no
    multiplier to drop: eta there is 0, and so is every zeta.  Were some
    zeta positive there, take the lexicographically greatest support
    vector among the types it touches.  That type's psi, 0 like the
    slice's masses, makes its inflow equal its outflow, so the inflow is
    positive; its phi, 0 too, then makes its vector an average of the
    vectors that flow in, all lexicographically smaller, which cannot
    be.  So the moves are a projection: regularizing twice gives the
    first result."""
    if not dual.is_feasible():
        raise InfeasibleInput("dual solution violates feasibility")
    if dual.objective() != revenue:
        raise NotOptimal("dual objective does not match the optimal revenue")
    if _regularity_witness(instance, dual, form) is None:
        return dual
    zeros = _zero_indices(instance)
    nums = dual.scaled
    multipliers = []
    for i, (k, t0) in enumerate(zip(instance.sizes, zeros)):
        keys = multiplier_keys(instance, form, i)
        (weights, w_den), (masses, m_den) = keys.weights, keys.masses
        zeta_den = nums.zeta[i].den
        den = lcm(zeta_den, w_den, m_den)
        up, to_w, to_m = den // zeta_den, den // w_den, den // m_den
        psi_i = nums.psi[i].nums
        zeta_i = [[z * up for z in row] for row in nums.zeta[i].nums]
        eta_i = [e * up for e in nums.eta[i].nums]
        # Each family once, through its zero type's key; one of zero
        # weight ends all zeros.  Moving type t writes only zeta(t, 0)
        # and zeta(0, t), which no later type's psi reads, so the moves
        # run in place with every surplus read off the dual.
        for key0, (own, s) in enumerate(keys.positions):
            if own != t0:
                continue
            w = weights[s]
            for t, key in enumerate(keys.families[s]):
                if not w:
                    zeta_i[key], eta_i[key] = [0] * k, 0
                elif t != t0:
                    zeta_i[key][t0] += eta_i[key]
                    zeta_i[key0][t] += psi_i[key] * up - masses[key] * to_m
                    eta_i[key] = 0
            eta_i[key0] = w * to_w
        multipliers.append(Scaled((tuple(map(tuple, zeta_i)), tuple(eta_i)), den))
    result = _dual_from_scaled(instance, form, multipliers, nums.xi)
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

    On mass-bearing profiles the entry is the dual's expected virtual
    value phi_star divided by mu(v); a regular dual's payment
    coefficient psi is mu(v) there.  Zero-mass opponent slices get 0 by
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
    """One entry per key, phi / mass, read out at every profile of it,
    made from the numerators of phi and the masses.  Regularity is
    checked first."""
    witness = _regularity_witness(instance, dual, form)
    if witness is not None:
        raise NotRegular(f"dual is not regular: {witness}")
    zeros = _zero_indices(instance)
    values = []
    for i, t0 in enumerate(zeros):
        keys = multiplier_keys(instance, form, i)
        masses, m_den = keys.masses
        phi_i, phi_den = dual.scaled.phi[i]
        per_key = []
        for key, (t, s) in enumerate(keys.positions):
            w = masses[key]
            if w:
                unit = phi_den * w
                per_key.append(tuple(Fraction(phi * m_den, unit) for phi in phi_i[key]))
            else:
                entry = NEG_INF if keys.weights.nums[s] and t == t0 else Fraction(0)
                per_key.append((entry,) * instance.m)
        values.append(
            tuple(
                tuple(per_key[keys.families[s][t]][j] for t, s in instance.positions[i])
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
class CheckReport:
    """Entries checked and violations found: VwmViolations from
    check_vwm, (i, j, r) triples from check_ubvv."""

    checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def check_vwm(
    instance: Instance, mechanism: Mechanism, table: VirtualValueTable
) -> CheckReport:
    """Verify that on every mass-bearing profile each item goes only to
    buyers of maximal nonnegative virtual value, and that the item is
    fully allocated whenever the maximum is positive."""
    violations = []
    checked = 0
    for r, w in enumerate(instance.mu_scaled.nums):
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
                    if entries[i] < 0:
                        violations.append(
                            VwmViolation("alloc-negative", j, r, i)
                        )
            sold = sum((cell[j] for cell in mechanism.alloc[r]), Fraction(0))
            if sold < 1 and best > 0:
                violations.append(VwmViolation("unsold-max-positive", j, r))
            if 0 < sold < 1 and best != 0:
                violations.append(VwmViolation("partial-max-nonzero", j, r))
    return CheckReport(checked=checked, violations=tuple(violations))


def check_ubvv(table: VirtualValueTable, instance: Instance) -> CheckReport:
    """Report whether every finite entry on a mass-bearing profile stays
    at or below the corresponding value coordinate.  Violations are
    findings, not errors."""
    violations = []
    checked = 0
    for r, w in enumerate(instance.mu_scaled.nums):
        if w == 0:
            continue
        for i in range(instance.n):
            vec = instance.value(i, instance.positions[i][r][0])
            for j in range(instance.m):
                entry = table.values[i][j][r]
                if entry == NEG_INF:
                    continue
                checked += 1
                if entry > vec[j]:
                    violations.append((i, j, r))
    return CheckReport(checked=checked, violations=tuple(violations))
