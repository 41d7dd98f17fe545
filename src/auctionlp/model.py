"""Exact-rational domain types for auction instances, mechanisms, dual
solutions, and virtual-value tables.

All numbers are `fractions.Fraction`.  The one use of floating point in
the package is the LP solver's proposal pass, whose answers only count
once an exact check accepts them.  Types are frozen dataclasses built
from nested tuples, immutable after construction.

Conventions used throughout:

* A *profile* is a tuple of per-buyer support indices, one per buyer.
  Profiles iterate row-major: buyer 0's index varies slowest.
* Buyer utility is u_i(v) = v_i . x_i(v) - p_i(v).
* An *opponent profile* for buyer i is the full profile with position i
  removed, in buyer order; its rank among buyer i's opponent profiles
  (row-major again) is the *slice* s.

Rank tables.  An Instance builds, on first use and then caches:

* `sizes` and `profile_count`;
* `ranks[i][s][t]`, the rank of the profile where buyer i has type t
  against slice s, and its inverse `positions[i][r] = (t, s)`;
* `mu_by_rank[r]`, the prior mass of the profile of rank r;
* `mu_minus_by_slice[i][s]`, the mass of buyer i's opponent slice s.

The mass tables are running products over the buyers: each buyer's
masses multiply the table of the buyers before it, row-major, so that a
table costs about one product per entry and lists its masses in rank
order.  `mu` and `mu_minus` remain the by-definition entry points, one
profile tuple at a time; the tests check the tables against them.  The
builders and the post-solve work (slacks, dual assembly,
regularization, virtual values and the checks on them) loop over these
tables instead of rebuilding profile tuples.  The by-definition
references they are checked against (the primal programs, utilities
over profile tuples, and the dual coefficients phi_star, psi,
phibar_star, psibar) are in tests/helpers.py.

Dual format.  Both forms hold their multipliers keyed like the primal's
rows: zeta[i][key][t'] and eta[i][key], where key is the profile rank
in the dominant-strategy form and the own type in the Bayesian form.
`multiplier_keys` is the per-form view of those keys that lets each
step (primal rows, slacks, dual assembly, slackness ledger, regularity,
regularization, virtual values) be written once for both forms.  Its
scales say that a Bayesian row is the opponent-mass-weighted sum of
dominant-strategy rows.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import attrgetter
from typing import Iterator, Mapping

from .errors import (
    DimensionMismatch,
    DuplicateSupportVector,
    MissingZeroType,
    NegativeValue,
    NonUnitMass,
    NotOptimal,
    NotRational,
    ZeroMassNonzeroType,
)

Profile = tuple[int, ...]

DS = "ds"
BAYES = "bayes"


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction, or 'p/q' / 'n' string.

    This is the boundary parser for instance and certificate data:
    anything else (a float, a bool, a malformed literal, a zero
    denominator, a literal too long to print back) raises NotRational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        try:
            if not _too_long(text):
                return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise NotRational(f"not a rational: {x!r}") from None
        raise NotRational(f"not a rational: {x!r} has too many digits")
    raise NotRational(f"not a rational: {x!r}")


# A decimal literal with an exponent, in the grammar Fraction accepts:
# integer digits, fraction digits, exponent.
_EXPONENT_LITERAL = re.compile(r"[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)")


def _too_long(text: str) -> bool:
    """Whether the numerator or the denominator of a literal with an
    exponent, before reduction, would have more digits than Python
    converts between int and str (sys.get_int_max_str_digits; no bound
    where that is 0 or absent).  Fraction would form the power of ten in
    full first, so a short literal such as "1e10000000" could take
    seconds, and one it accepts could fail later in rat_str.  Counting
    digits forms no power."""
    match = ("e" in text or "E" in text) and _EXPONENT_LITERAL.fullmatch(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() if match else 0
    if not limit:
        return False
    whole, decimals, exponent = (part.replace("_", "") for part in match.groups(""))
    exponent = int(exponent)  # ValueError past the limit, like Fraction
    mantissa = len((whole + decimals).lstrip("0")) or 1
    return (
        mantissa + max(exponent, 0) > limit
        or len(decimals) + max(-exponent, 0) + 1 > limit
    )


def rat_str(q: Fraction) -> str:
    """Render a rational as 'p/q', or bare 'p' when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class NegInfType:
    """Sentinel ordered below every rational; marks unbounded-below
    virtual values.  Compares equal only to itself."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"

    def __lt__(self, other):
        return not isinstance(other, NegInfType)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, NegInfType)

    def __eq__(self, other):
        return isinstance(other, NegInfType)

    def __hash__(self):
        return hash("NEG_INF")


NEG_INF = NegInfType()


# ---------------------------------------------------------------------------
# Instance


@dataclass(frozen=True)
class Instance:
    """A finite multi-item auction environment.

    supports[i][t][j] is buyer i's t-th value vector, coordinate j.
    probs[i][t] is the prior mass of that vector.  The prior is a product
    measure across buyers.  Construct through validate_instance; the
    constructor itself performs no checking.
    """

    n: int
    m: int
    supports: tuple[tuple[tuple[Fraction, ...], ...], ...]
    probs: tuple[tuple[Fraction, ...], ...]

    # -- sizes and iteration ------------------------------------------------

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.supports)

    @cached_property
    def profile_count(self) -> int:
        return prod(self.sizes)

    def profiles(self) -> Iterator[Profile]:
        return itertools.product(*(range(k) for k in self.sizes))

    def rank(self, profile: Profile) -> int:
        r = 0
        for k, t in zip(self.sizes, profile):
            r = r * k + t
        return r

    # -- per-buyer access ---------------------------------------------------

    def value(self, i: int, t: int) -> tuple[Fraction, ...]:
        return self.supports[i][t]

    def mu_i(self, i: int, t: int) -> Fraction:
        return self.probs[i][t]

    def zero_index(self, i: int) -> int | None:
        zero = (Fraction(0),) * self.m
        for t, vec in enumerate(self.supports[i]):
            if vec == zero:
                return t
        return None

    # -- opponent profiles --------------------------------------------------

    def others_sizes(self, i: int) -> tuple[int, ...]:
        return tuple(k for b, k in enumerate(self.sizes) if b != i)

    def others_count(self, i: int) -> int:
        return prod(self.others_sizes(i))

    def others_profiles(self, i: int) -> Iterator[Profile]:
        return itertools.product(*(range(k) for k in self.others_sizes(i)))

    def others_rank(self, i: int, vm: Profile) -> int:
        r = 0
        for k, t in zip(self.others_sizes(i), vm):
            r = r * k + t
        return r

    def drop(self, i: int, profile: Profile) -> Profile:
        return profile[:i] + profile[i + 1:]

    def insert(self, i: int, t: int, vm: Profile) -> Profile:
        return vm[:i] + (t,) + vm[i:]

    # -- measures -----------------------------------------------------------

    def mu(self, profile: Profile) -> Fraction:
        p = Fraction(1)
        for i, t in enumerate(profile):
            p *= self.probs[i][t]
        return p

    def mu_minus(self, i: int, vm: Profile) -> Fraction:
        p = Fraction(1)
        others = [b for b in range(self.n) if b != i]
        for b, t in zip(others, vm):
            p *= self.probs[b][t]
        return p

    # -- rank tables (see the module docstring) ------------------------------

    @cached_property
    def ranks(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        sizes = self.sizes
        # the rank distance between profiles one apart in buyer i's type
        strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
        return tuple(
            tuple(
                tuple(((s // d) * k + t) * d + s % d for t in range(k))
                for s in range(self.profile_count // k)
            )
            for k, d in zip(sizes, strides)
        )

    @cached_property
    def positions(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        out = []
        for slices in self.ranks:
            at = [None] * self.profile_count
            for s, ranks in enumerate(slices):
                for t, r in enumerate(ranks):
                    at[r] = (t, s)
            out.append(tuple(at))
        return tuple(out)

    def _mass_products(self, buyers) -> tuple[Fraction, ...]:
        """The product masses of the buyers' joint profiles, row-major."""
        out = [Fraction(1)]
        for b in buyers:
            out = [a * q for a in out for q in self.probs[b]]
        return tuple(out)

    @cached_property
    def mu_by_rank(self) -> tuple[Fraction, ...]:
        return self._mass_products(range(self.n))

    @cached_property
    def mu_minus_by_slice(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            self._mass_products(b for b in range(self.n) if b != i) for i in range(self.n)
        )

    # -- serialization ------------------------------------------------------

    def to_data(self) -> dict:
        return {
            "buyers": self.n,
            "items": self.m,
            "supports": [
                [[rat_str(c) for c in vec] for vec in sup] for sup in self.supports
            ],
            "probs": [[rat_str(q) for q in ps] for ps in self.probs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_data(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        canon = json.dumps(self.to_data(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def validate_instance(
    data: Mapping,
    *,
    augment_zero: bool | None = None,
    strict: bool = False,
) -> Instance:
    """Validate raw instance data and return an Instance.

    data carries the integers 'buyers' and 'items', 'supports' (per
    buyer, a list of value vectors), 'probs' (per buyer, a list of
    masses), and optionally the boolean 'augment_zero'; any other shape
    raises DimensionMismatch.
    Rationals may be ints, Fractions, or 'p/q' strings.
    The keyword overrides the file's augment flag when not None.  With
    strict=True the standing assumption mu_i(v) > 0 for v != 0 is
    enforced.

    Every support must contain the all-zeros vector; with augmentation
    on, it is prepended at mass 0 where absent.
    """
    try:
        n = data["buyers"]
        m = data["items"]
        raw_supports = data["supports"]
        raw_probs = data["probs"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"malformed instance data: {exc}") from exc
    for key, count in (("buyers", n), ("items", m)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise DimensionMismatch(f"{key} is not an integer: {count!r}")
    if augment_zero is None:
        augment_zero = data.get("augment_zero", False)
        if not isinstance(augment_zero, bool):
            raise DimensionMismatch(f"augment_zero is not a boolean: {augment_zero!r}")
    if n < 1 or m < 1:
        raise DimensionMismatch("need at least one buyer and one item")
    if not (
        _is_list(raw_supports)
        and all(_is_list(sup) and all(map(_is_list, sup)) for sup in raw_supports)
        and _is_list(raw_probs)
        and all(map(_is_list, raw_probs))
    ):
        raise DimensionMismatch("expected per-buyer lists of value vectors and masses")
    if len(raw_supports) != n or len(raw_probs) != n:
        raise DimensionMismatch(
            f"expected {n} supports and prob lists, "
            f"got {len(raw_supports)} and {len(raw_probs)}"
        )

    supports: list[tuple[tuple[Fraction, ...], ...]] = []
    probs: list[tuple[Fraction, ...]] = []
    zero = (Fraction(0),) * m
    for i in range(n):
        sup = [tuple(rat(c) for c in vec) for vec in raw_supports[i]]
        ps = [rat(q) for q in raw_probs[i]]
        if len(sup) != len(ps):
            raise DimensionMismatch(
                f"buyer {i}: {len(sup)} support vectors but {len(ps)} masses"
            )
        if not sup:
            raise DimensionMismatch(f"buyer {i}: empty support")
        for vec in sup:
            if len(vec) != m:
                raise DimensionMismatch(
                    f"buyer {i}: value vector of length {len(vec)}, expected {m}"
                )
            for c in vec:
                if c < 0:
                    raise NegativeValue(f"buyer {i}: negative coordinate {rat_str(c)}")
        for q in ps:
            if q < 0:
                raise NegativeValue(f"buyer {i}: negative mass {rat_str(q)}")
        if len(set(sup)) != len(sup):
            raise DuplicateSupportVector(f"buyer {i}: repeated support vector")
        if sum(ps) != 1:
            raise NonUnitMass(
                f"buyer {i}: masses sum to {rat_str(sum(ps))}, expected 1"
            )
        if zero not in sup:
            if augment_zero:
                sup = [zero] + sup
                ps = [Fraction(0)] + ps
            else:
                raise MissingZeroType(
                    f"buyer {i}: support lacks the zero vector "
                    "(pass augment_zero to add it at mass 0)"
                )
        if strict:
            for vec, q in zip(sup, ps):
                if vec != zero and q == 0:
                    raise ZeroMassNonzeroType(
                        f"buyer {i}: nonzero vector at zero mass under strict validation"
                    )
        supports.append(tuple(sup))
        probs.append(tuple(ps))
    return Instance(n=n, m=m, supports=tuple(supports), probs=tuple(probs))


def _is_list(data) -> bool:
    return isinstance(data, (list, tuple))


def read_json(path, error: type[Exception]):
    """The JSON document in the file at path.  Malformed JSON raises
    json.JSONDecodeError; text that is not UTF-8, nesting too deep for
    the decoder and integers too long to convert raise error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"undecodable JSON: {type(exc).__name__}: {exc}") from None


def load_instance(path, *, augment_zero: bool | None = None, strict: bool = False) -> Instance:
    data = read_json(path, DimensionMismatch)
    return validate_instance(data, augment_zero=augment_zero, strict=strict)


def profile_prob(instance: Instance, profile: Profile) -> Fraction:
    """mu(v): product of per-buyer masses at the profile."""
    if len(profile) != instance.n:
        raise DimensionMismatch("profile length != buyer count")
    for i, t in enumerate(profile):
        if not 0 <= t < instance.sizes[i]:
            raise DimensionMismatch(f"profile index {t} out of range for buyer {i}")
    return instance.mu(profile)


# ---------------------------------------------------------------------------
# Mechanism


@dataclass(frozen=True)
class Mechanism:
    """Allocation and payments indexed by full profile.

    alloc[r][i][j]: probability buyer i gets item j at the profile of
    rank r.  pay[r][i]: buyer i's payment there.  One structure serves
    both forms; form records which constraint family it targets.
    """

    form: str
    alloc: tuple[tuple[tuple[Fraction, ...], ...], ...]
    pay: tuple[tuple[Fraction, ...], ...]

    def revenue(self, instance: Instance) -> Fraction:
        total = Fraction(0)
        for w, prow in zip(instance.mu_by_rank, self.pay):
            if w:
                total += w * sum(prow, start=Fraction(0))
        return total


# ---------------------------------------------------------------------------
# Primal slacks


@dataclass(frozen=True)
class PrimalSlacks:
    """Constraint gaps of a mechanism, reported even when negative.

    DS form: a[i][r][t'] is the truth-telling margin of buyer i at the
    profile of rank r against reporting t' (0 on the diagonal); b[i][r]
    is ex-post utility; c[j][r] is unsold supply.  Bayesian form: a and b
    are interim, indexed by own type instead of full profile.  In both
    forms a and b are keyed like a dual solution's zeta and eta.
    """

    form: str
    a: tuple
    b: tuple
    c: tuple

    @property
    def feasible(self) -> bool:
        """No entry is negative, read off the numerators."""
        return not any(map(_any_negative, (self.a, self.b, self.c)))


def _check_dims(instance: Instance, mechanism: Mechanism) -> None:
    count = instance.profile_count
    if len(mechanism.alloc) != count or len(mechanism.pay) != count:
        raise DimensionMismatch("mechanism profile count != instance profile count")
    for row, prow in zip(mechanism.alloc, mechanism.pay):
        if len(row) != instance.n or len(prow) != instance.n:
            raise DimensionMismatch("mechanism buyer dimension mismatch")
        for cell in row:
            if len(cell) != instance.m:
                raise DimensionMismatch("mechanism item dimension mismatch")


def _utility(vec, cell, price) -> Fraction:
    """vec . cell - price, skipping zero products."""
    total = -price
    for v, x in zip(vec, cell):
        if v and x:
            total += v * x
    return total


def mechanism_slacks(instance: Instance, mechanism: Mechanism) -> PrimalSlacks:
    """Evaluate every constraint gap of the mechanism.

    a entries are truth minus lie (the negated gain from deviating), b
    entries are (interim) utilities, c entries unsold supply.  Negative
    entries are reported as-is; feasibility is a separate question.

    Per buyer and family of keys (see multiplier_keys), each report's
    allocation and payment are summed over the family's slices at their
    scales, and each utility of a true type under a report is evaluated
    once against those sums.
    """
    _check_dims(instance, mechanism)
    alloc = mechanism.alloc
    c = tuple(
        tuple(Fraction(1) - sum((cell[j] for cell in row), Fraction(0)) for row in alloc)
        for j in range(instance.m)
    )
    a, b = [], []
    for i in range(instance.n):
        positions, families, _, _, scales = multiplier_keys(instance, mechanism.form, i)
        vecs = instance.supports[i]
        a_i, b_i = [None] * len(positions), [None] * len(positions)
        # the slices of each family, grouped by the family's first key
        groups: dict = {}
        for s, family in enumerate(families):
            groups.setdefault(family[0], (family, []))[1].append(s)
        for family, slices in groups.values():
            rows = list(zip(*_key_rows(instance, mechanism, i, scales, slices)))
            for t, key in enumerate(family):
                # u[t2]: utility of true type t reporting t2
                u = [_utility(vecs[t], cell, price) for cell, price in rows]
                a_i[key] = _margins(u, t)
                b_i[key] = u[t]
        a.append(tuple(a_i))
        b.append(tuple(b_i))
    return PrimalSlacks(form=mechanism.form, a=tuple(a), b=tuple(b), c=c)


def _margins(utilities, t) -> tuple[Fraction, ...]:
    truth = utilities[t]
    return tuple(
        truth - lie if t2 != t else Fraction(0) for t2, lie in enumerate(utilities)
    )


def _key_rows(instance: Instance, mechanism: Mechanism, i: int, scales, slices):
    """Buyer i's allocation and payment per report, summed over the
    given slices at their scales (see multiplier_keys).  One slice at
    scale 1 is read in place; zero-scale slices add nothing."""
    ranks_i, alloc, pay = instance.ranks[i], mechanism.alloc, mechanism.pay
    if len(slices) == 1 and scales[slices[0]] == 1:
        ranks = ranks_i[slices[0]]
        return [alloc[lr][i] for lr in ranks], [pay[lr][i] for lr in ranks]
    k, m = instance.sizes[i], instance.m
    cells = [[Fraction(0)] * m for _ in range(k)]
    prices = [Fraction(0)] * k
    for s in slices:
        w = scales[s]
        if not w:
            continue
        for t2, lr in enumerate(ranks_i[s]):
            cell, acc = alloc[lr][i], cells[t2]
            for j in range(m):
                if cell[j]:
                    acc[j] += w * cell[j]
            prices[t2] += w * pay[lr][i]
    return cells, prices


def mechanism_feasible(
    instance: Instance, mechanism: Mechanism, slacks: PrimalSlacks | None = None
) -> bool:
    """Bounds plus nonnegative slacks in the mechanism's own form.
    slacks, when given, are this mechanism's mechanism_slacks."""
    for row in mechanism.alloc:
        for cell in row:
            for x in cell:
                if x.numerator < 0 or x.numerator > x.denominator:
                    return False
    if _any_negative(mechanism.pay):
        return False
    if slacks is None:
        slacks = mechanism_slacks(instance, mechanism)
    return slacks.feasible


# ---------------------------------------------------------------------------
# Dual solutions


@dataclass(frozen=True)
class DualSolution:
    """Multipliers of a dual program, keyed like the primal's rows.

    zeta[i][key][t']: weight on the constraint "true type of key, report
    t'" (0 on the diagonal); eta[i][key]: participation weight.  A key
    is a profile rank r in the dominant-strategy form and an own type t
    in the Bayesian form (see multiplier_keys).  xi[j][r]: the
    per-(item, profile) dual objective terms.  alpha[i][j][r] and
    beta[i][r] are the dual constraint slacks.  One type serves both
    forms: the functions that take a dual say which form they read.
    """

    zeta: tuple
    eta: tuple
    xi: tuple
    alpha: tuple
    beta: tuple

    def objective(self) -> Fraction:
        return sum((x for col in self.xi for x in col), Fraction(0))

    def is_feasible(self) -> bool:
        for fam in (self.zeta, self.eta, self.xi, self.alpha, self.beta):
            if _any_negative(fam):
                return False
        return True


_NUMERATOR = attrgetter("numerator")


def _any_negative(nested) -> bool:
    """Whether a nested tuple of rationals, nested to the same depth
    throughout, holds a negative entry.  Denominators are positive, so
    the numerators carry the signs."""
    if not nested:
        return False
    if isinstance(nested[0], tuple):
        return any(map(_any_negative, nested))
    return min(map(_NUMERATOR, nested)) < 0


def multiplier_keys(instance: Instance, form: str, i: int):
    """Buyer i's multiplier keys in the given form, as a tuple
    (positions, families, weights, masses, scales):

    * positions[key] = (t, s): the own type of the key and a slice it
      stands for;
    * families[s][t]: the key of type t on slice s, so that families[s]
      lists the keys whose ic rows bind each other;
    * weights[s]: the participation weight the zero type's key carries
      on slice s in a regular dual;
    * masses[key]: the payment coefficient a regular dual meets there;
    * scales[s]: the invariant that relates the forms.  The ic and ir
      rows of a key are the sum, over the slices s with
      families[s][t] == key, of scales[s] times the dominant-strategy
      rows at ranks[i][s][t].

    DS keys are profile ranks, each on one slice at scale 1, with
    opponent masses as weights and profile masses as masses.  BAYES
    keys are own types: every slice shares the one family of all types
    at unit weight and at its opponent mass (possibly 0) as scale, and
    the masses are the buyer's own."""
    k = instance.sizes[i]
    slices = instance.profile_count // k
    if form == DS:
        return (
            instance.positions[i],
            instance.ranks[i],
            instance.mu_minus_by_slice[i],
            instance.mu_by_rank,
            (Fraction(1),) * slices,
        )
    return (
        tuple((t, 0) for t in range(k)),
        (range(k),) * slices,
        (Fraction(1),) * slices,
        instance.probs[i],
        instance.mu_minus_by_slice[i],
    )


def key_flows(zeta_i, eta_i, family, t):
    """Weights of one buyer's multipliers at the key of type t in family
    (see multiplier_keys): held (the key's participation weight plus
    every "true t, report t2" multiplier) and the nonzero "true t2,
    report t" multipliers as (t2, weight) pairs.  Diagonal entries are
    ignored."""
    key = family[t]
    held, inflow = eta_i[key], []
    for t2, (out, key2) in enumerate(zip(zeta_i[key], family)):
        if t2 != t:
            if out:
                held += out
            w = zeta_i[key2][t]
            if w:
                inflow.append((t2, w))
    return held, inflow


def flow_psi(held, inflow) -> Fraction:
    """The payment coefficient psi (Bayesian: psibar) from key_flows."""
    for _, w in inflow:
        held -= w
    return held


def flow_phi(held, inflow, vecs, t, j) -> Fraction:
    """The expected virtual value phi_star (Bayesian: phibar_star) of
    item j from key_flows; vecs are the buyer's support vectors."""
    total = held * vecs[t][j] if vecs[t][j] else Fraction(0)
    for t2, w in inflow:
        if vecs[t2][j]:
            total -= w * vecs[t2][j]
    return total


def dual_from_multipliers(instance: Instance, form: str, zeta, eta, xi) -> DualSolution:
    """The dual solution of the given form with these multipliers,
    deriving the alpha/beta slacks.  Each key's phi_star and psi
    (Bayesian: phibar_star and psibar) are computed once and written at
    every rank of the key, scaled by the slice's scale; a zero-scale
    slice gets alpha = xi and beta = 0."""
    mu, m, count = instance.mu_by_rank, instance.m, instance.profile_count
    alpha, beta = [], []
    for i in range(instance.n):
        positions, families, _, _, scales = multiplier_keys(instance, form, i)
        vecs = instance.supports[i]
        phis, psis = [], []
        for t, s in positions:
            held, inflow = key_flows(zeta[i], eta[i], families[s], t)
            phis.append([flow_phi(held, inflow, vecs, t, j) for j in range(m)])
            psis.append(flow_psi(held, inflow))
        alpha_i = [[None] * count for _ in range(m)]
        beta_i = [None] * count
        for w, family, ranks in zip(scales, families, instance.ranks[i]):
            unit = w == 1
            for key, r in zip(family, ranks):
                phi, psi = phis[key], psis[key]
                if not unit:
                    phi, psi = [w * x for x in phi], w * psi
                for col, xi_j, phi_j in zip(alpha_i, xi, phi):
                    col[r] = xi_j[r] - phi_j
                beta_i[r] = psi - mu[r]
        alpha.append(tuple(map(tuple, alpha_i)))
        beta.append(tuple(beta_i))
    return DualSolution(zeta=zeta, eta=eta, xi=xi, alpha=tuple(alpha), beta=tuple(beta))


# ---------------------------------------------------------------------------
# Virtual values and reports


@dataclass(frozen=True)
class VirtualValueTable:
    """Per (buyer, item, profile) virtual values.

    values[i][j][r] is a Fraction or NEG_INF.  Bayesian-form tables are
    constant across opponent indices by construction.
    """

    form: str
    values: tuple


@dataclass(frozen=True)
class RevenueReport:
    """The three optimal revenues; the equality flags are read off them.
    Any ordering other than brev >= drev >= srev raises NotOptimal."""

    brev: Fraction
    drev: Fraction
    srev: Fraction
    ai_witness: DualSolution | None = None
    findings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (self.brev >= self.drev >= self.srev):
            raise NotOptimal(
                "revenue ordering violated: "
                f"brev={rat_str(self.brev)} drev={rat_str(self.drev)} "
                f"srev={rat_str(self.srev)}"
            )

    @property
    def brev_eq_drev(self) -> bool:
        return self.brev == self.drev

    @property
    def drev_eq_srev(self) -> bool:
        return self.drev == self.srev

    @property
    def srev_eq_brev(self) -> bool:
        return self.srev == self.brev
