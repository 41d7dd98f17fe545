"""Complementary slackness ledgers, dual regularization, and virtual
values derived from regularized optimal duals.

Both forms share one dual format (see model.multiplier_keys), and a
dual holds its form, so each step below is one function that reads the
form off the dual."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfeasibleInput, MissingZeroType, NotOptimal, NotRegular
from .model import (
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
    "check_cs",
    "regularity_witness",
    "regularize",
    "virtual_values",
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


def check_cs(
    instance: Instance,
    mechanism: Mechanism,
    dual: DualSolution,
    slacks: PrimalSlacks | None = None,
) -> GapLedger:
    """Pair every slack with its multiplier; the five family sums add up
    to obj(dual) - obj(primal) exactly, and vanish iff both sides are
    optimal.  The mechanism's slacks a and b are keyed like the dual's
    zeta and eta, in either form; a dual of another form than the
    mechanism's raises DimensionMismatch."""
    dual.check_form(mechanism.form)
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


def _zero_indices(instance: Instance) -> tuple[int, ...]:
    zeros = instance.zero_types
    if None in zeros:
        raise MissingZeroType(f"buyer {zeros.index(None)} has no zero vector in support")
    return zeros


def regularity_witness(instance: Instance, dual: DualSolution):
    """None if the dual satisfies all three regularity conditions, else
    a (condition, indices) witness.  Per key: no virtual value on a
    zero-mass slice ("virtual", naming the first item whose phi is
    nonzero), participation weight only on the zero type and there
    exactly the slice's weight ("source"), and the payment coefficient
    psi equal to the key's mass ("trans").  DS keys are named by
    profile, BAYES keys by type.  The comparisons cross-multiply
    numerators: the dual's, and the weights' and masses' over theirs."""
    zeros = _zero_indices(instance)
    profiles = list(instance.profiles())
    nums = dual.scaled
    for i, t0 in enumerate(zeros):
        keys = multiplier_keys(instance, dual.form, i)
        (weights, w_den), (masses, m_den) = keys.weights, keys.masses
        names = profiles if dual.form == DS else range(len(keys.positions))
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


def regularize(instance: Instance, dual: DualSolution, revenue: Fraction) -> DualSolution:
    """Rewrite an optimal dual so that participation weight sits only on
    the zero type and the payment coefficient meets the key's mass
    exactly.  Objective and feasibility are preserved; all three
    regularity conditions are verified before returning.

    Per buyer and slice, every multiplier on a slice of zero weight is
    dropped; elsewhere eta at a nonzero type moves onto zeta(t, 0), the
    payment-coefficient surplus at t (DS: psi(v) - mu(v); Bayesian:
    psibar(t) - mu_i(t)) moves onto zeta(0, t), and eta at the zero type
    becomes the slice's weight (DS: mu_{-i}; Bayesian: the unit mass).
    The moves are made on the multipliers' numerators: buyer i's zeta,
    eta and psi over Z, its weights over W and its masses over M, all
    brought over lcm(Z, W, M).

    A feasible dual that regularity_witness accepts is returned as it
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
    if regularity_witness(instance, dual) is None:
        return dual
    zeros = _zero_indices(instance)
    nums = dual.scaled
    multipliers = []
    for i, (k, t0) in enumerate(zip(instance.sizes, zeros)):
        keys = multiplier_keys(instance, dual.form, i)
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
    result = _dual_from_scaled(instance, dual.form, multipliers, nums.xi)
    if not result.is_feasible():
        raise NotRegular("regularized dual lost feasibility")
    if result.objective() != revenue:
        raise NotRegular("regularized dual changed the objective")
    witness = regularity_witness(instance, result)
    if witness is not None:
        raise NotRegular(f"regularity condition failed: {witness}")
    return result


# ---------------------------------------------------------------------------
# Virtual values


def virtual_values(instance: Instance, dual: DualSolution) -> VirtualValueTable:
    """The virtual values of a regular dual, a table of its form: one
    entry per key, phi / mass, read out at every profile of it, so that
    a Bayesian table is constant in v_{-i}.  On mass-bearing keys a
    regular dual's payment coefficient psi is the mass.  Zero-mass
    opponent slices get 0 by convention, as do zero-mass nonzero own
    types; the zero type at zero mass against a mass-bearing slice is
    -inf.  Regularity is checked first.

    The entries are made from the numerators of phi and the masses:
    buyer i's phi over Z * V and its keys' masses over M put a key of
    mass q at phi * M * (L // q) over Z * V * L, where L is the lcm of
    the buyer's nonzero masses."""
    witness = regularity_witness(instance, dual)
    if witness is not None:
        raise NotRegular(f"dual is not regular: {witness}")
    zeros = _zero_indices(instance)
    scaled = []
    for i, t0 in enumerate(zeros):
        keys = multiplier_keys(instance, dual.form, i)
        masses, m_den = keys.masses
        weights = keys.weights.nums
        phi_i, phi_den = dual.scaled.phi[i]
        unit = lcm(*filter(None, masses))
        per_key = []
        for key, (t, s) in enumerate(keys.positions):
            w = masses[key]
            if w:
                up = m_den * (unit // w)
                per_key.append(tuple([phi * up for phi in phi_i[key]]))
            else:
                per_key.append((None if weights[s] and t == t0 else 0,) * instance.m)
        rows = [per_key[keys.families[s][t]] for t, s in instance.positions[i]]
        scaled.append(Scaled(tuple(zip(*rows)), phi_den * unit))
    return VirtualValueTable(dual.form, tuple(scaled))


# The per-form names of the three steps above, which the benchmark's
# tracer (perfbench/spans.py) binds; each is the one function itself.
check_cs_ds = check_cs_bayes = check_cs
regularize_ds = regularize_bayes = regularize
virtual_values_ds = virtual_values_bayes = virtual_values


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
    fully allocated whenever the maximum is positive.  The buyers'
    entries are compared over the lcm of their denominators (NEG_INF,
    which ints compare with exactly, for -inf), and the allocation's
    numerators against its denominator."""
    violations = []
    checked = 0
    den = lcm(*(scaled.den for scaled in table.scaled))
    columns = [
        [
            [NEG_INF if q is None else q * (den // buyer_den) for q in column]
            for column in nums
        ]
        for nums, buyer_den in table.scaled
    ]
    alloc, alloc_den = mechanism.scaled.nums[0], mechanism.scaled.den
    for r, w in enumerate(instance.mu_scaled.nums):
        if w == 0:
            continue
        checked += 1
        for j in range(instance.m):
            entries = [buyer[j][r] for buyer in columns]
            best = max(entries)
            for i in range(instance.n):
                if alloc[r][i][j] > 0:
                    if entries[i] != best:
                        violations.append(
                            VwmViolation("alloc-not-argmax", j, r, i)
                        )
                    if entries[i] < 0:
                        violations.append(
                            VwmViolation("alloc-negative", j, r, i)
                        )
            sold = sum(cell[j] for cell in alloc[r])
            if sold < alloc_den and best > 0:
                violations.append(VwmViolation("unsold-max-positive", j, r))
            if 0 < sold < alloc_den and best != 0:
                violations.append(VwmViolation("partial-max-nonzero", j, r))
    return CheckReport(checked=checked, violations=tuple(violations))


def check_ubvv(table: VirtualValueTable, instance: Instance) -> CheckReport:
    """Report whether every finite entry on a mass-bearing profile stays
    at or below the corresponding value coordinate, cross-multiplying
    the entry's numerator over its buyer's denominator with the value's
    over the buyer's value denominator.  Violations are findings, not
    errors."""
    violations = []
    checked = 0
    for r, w in enumerate(instance.mu_scaled.nums):
        if w == 0:
            continue
        for i, ((nums, den), (vecs, value_den)) in enumerate(
            zip(table.scaled, instance.supports_scaled)
        ):
            vec = vecs[instance.positions[i][r][0]]
            for j, column in enumerate(nums):
                entry = column[r]
                if entry is None:
                    continue
                checked += 1
                if entry * value_den > vec[j] * den:
                    violations.append((i, j, r))
    return CheckReport(checked=checked, violations=tuple(violations))
