"""Exact-rational domain types for auction instances, mechanisms, dual
solutions, and virtual-value tables.

An instance holds `fractions.Fraction`s; every post-solve type
(mechanism, primal slacks, dual solution, virtual-value table) holds
integer numerators and shows them as Fractions only through views (see
Integer numerators below).  A table marks an unbounded-below virtual
value by None among its numerators, and its view shows NEG_INF there:
IEEE -inf, which Fraction and int compare with exactly, the one float
outside the LP solver's proposal pass, whose answers only count once an
exact check accepts them.  Types are frozen dataclasses built from
nested tuples, immutable after construction.

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
* `zero_types[i]`, the index of buyer i's zero vector (None where it
  has none);
* `mu_scaled`, the prior masses of the profiles by rank, and
  `mu_minus_scaled[i]`, the masses of buyer i's opponent slices by
  slice, as integer numerators (see Integer numerators below).

The mass tables are running products over the buyers: each buyer's
mass numerators multiply the table of the buyers before it, row-major,
so that a table costs about one integer product per entry and lists its
masses in rank order.  `mu` and `mu_minus` remain the by-definition
entry points, one profile tuple at a time; the tests check the tables
against them.  The builders and the post-solve work (slacks, dual
assembly, regularization, virtual values and the checks on them) loop
over these tables instead of rebuilding profile tuples.  The
by-definition references they are checked against (the primal
programs, utilities over profile tuples, and the dual coefficients
phi_star, psi, phibar_star, psibar) are in tests/helpers.py.

Dual format.  Both forms hold their multipliers keyed like the primal's
rows: zeta[i][key][t'] and eta[i][key], where key is the profile rank
in the dominant-strategy form and the own type in the Bayesian form.
`multiplier_keys` is the per-form table of those keys that lets each
step (primal rows, slacks, dual assembly, slackness ledger, regularity,
regularization, virtual values) be written once for both forms.  Its
scales say that a Bayesian row is the opponent-mass-weighted sum of
dominant-strategy rows; its weights and masses are what a regular dual
meets at the keys.  `_dual_from_scaled` computes each key's
phi_star and psi (Bayesian: phibar_star and psibar) once; the dual keeps
them, and every later step (regularity, regularization, virtual values)
reads them there.  A dual holds its form, as a mechanism, its slacks
and a table do, so no function takes a form beside a dual: each reads
the dual's own.

The DS gather.  Every dominant-strategy key is one opponent slice at
scale 1, so `_slack_numerators` and `_dual_from_scaled` handle all of a
buyer's DS keys at once.  They read the buyer's allocation and payment
columns, or its zeta and eta rows, once; then for each report t2 they
gather the entries on every slice s through the rank-table column
ranks[i][s][t2], one list comprehension per report and quantity
(utilities, held weight, zeta inflow, phi, psi), and write alpha and
beta over all ranks at once.  A Bayesian key sums each report's
entries over its slices at their scales (`_key_rows`), and its
coefficients are computed one key at a time (`_key_coefficients`).

Integer numerators.  The post-solve arithmetic runs on integer
numerators over one denominator per vector, or per buyer where the
vector is per buyer (a `Scaled`):

* `Instance.supports_scaled[i]` over V_i, `probs_scaled[i]` over P_i,
  `mu_scaled` over M, and `mu_minus_scaled[i]` over W_i;
* `Mechanism.scaled`: alloc and pay over one denominator D (after
  extraction, the primal vector's);
* `PrimalSlacks.scaled`: a[i] and b[i] over V_i * S_i * D, c over D,
  where S_i is the denominator of buyer i's scales (1 in the
  dominant-strategy form, W_i in the Bayesian form);
* `DualSolution.scaled`: zeta[i], eta[i] and psi[i] over Z_i, xi over
  X, phi[i] over Z_i * V_i, alpha[i] over lcm(X, S_i * Z_i * V_i) and
  beta[i] over lcm(S_i * Z_i, M);
* `VirtualValueTable.scaled`: buyer i's entries over Z_i * V_i * L_i,
  where L_i is the lcm of the numerators of its keys' nonzero masses
  (over M_i), so that phi / mass at a key of mass q is
  phi * M_i * (L_i // q); None stands for -inf.

Mechanisms, primal slacks, duals and tables hold only these numerators.
Their `Fraction` fields are views, made on first read for IO, the CLI
and tests (every zero in them one shared Fraction(0)).  Two values compare
and hash by their views, so they are equal when they stand for the same
rationals, whichever denominators their producers chose.  Each producer
builds its numerators directly: extraction puts the one certificate
vector it reads over the lcm of its denominators, the canonical flow
works over P_i * W_i (xi over the lcm of the P_i * W_i * V_i),
Myerson's auction over the lcm of the V_i, the equivalence maps
multiply or divide by the numerators of the opponent masses, and
regularization moves multipliers over the lcm of Z_i and the
denominators of the keys' weights and masses.
`_dual_from_scaled` is the one dual constructor and takes no
Fractions; `dual_from_multipliers`, the entry point for Fraction
multipliers, splits them once and calls it.  The sign tests
(`PrimalSlacks.feasible`, `mechanism_feasible`,
`DualSolution.is_feasible`), the slackness ledger, regularity,
`Mechanism.revenue` and `DualSolution.objective` read numerators, and
make a Fraction only for the value they return.  So do the checks on a
table (virtual.check_ubvv and check_vwm, analysis._slice_mismatch),
which compare its numerators as integers and make no Fraction.
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
from math import gcd, lcm, prod
from operator import attrgetter, mul
from typing import Iterator, Mapping, NamedTuple

from .errors import (
    DimensionMismatch,
    DuplicateSupportVector,
    MissingZeroType,
    NegativeValue,
    NonUnitMass,
    NotOptimal,
    NotRational,
    ZeroMassNonzeroType,
    cut,
    echo,
)

Profile = tuple[int, ...]

DS = "ds"
BAYES = "bayes"


def rat(x) -> Fraction:
    """A rational from a Fraction (itself), or from an int or a string in
    the number grammar, read by ratio, which raises NotRational for
    anything else: the boundary parser for instance data."""
    return x if isinstance(x, Fraction) else Fraction(*ratio(x))


def ratio(x) -> tuple[int, int]:
    """An int, or a string in the number grammar, as (numerator,
    denominator) in lowest terms with a positive denominator: the one
    reader of number text, in instances and certificates alike.

    The grammar is Python 3.11's Fraction string grammar, on every
    supported Python: surrounding whitespace, an optional sign, then an
    integer, a 'p/q' literal (no space around '/'), or a decimal ('0.5',
    '.5', '1.') with an optional exponent ('1e5', '2.5E-3').  Digits are
    Unicode decimal digits, grouped by single '_' if at all ('1_0' is
    10).  Anything else raises NotRational: a float, a bool, a malformed
    literal, a zero denominator, or more digits than int converts
    (sys.get_int_max_str_digits) in a part of the literal, or in the
    numerator or denominator an exponent makes before reduction, which
    is measured before the power of ten is formed."""
    plain = _PLAIN_LITERAL.fullmatch(x) if type(x) is str else None
    try:
        if plain:  # what rat_str writes
            num, den = plain.groups()
            num, den = int(num), int(den or 1)
        elif isinstance(x, str):
            num, den = _literal(x)
        elif isinstance(x, int) and not isinstance(x, bool):
            return x, 1
        else:
            raise ValueError(x)
    except NotRational:  # an exponent past the digit limit
        raise
    except ValueError:  # no literal, or more digits than int converts
        raise NotRational(f"not a rational: {echo(x)}") from None
    if not den:
        raise NotRational(f"not a rational: {echo(x)}")
    g = gcd(num, den)
    return num // g, den // g


# An integer or p/q literal in ASCII digits, with nothing around it.
_PLAIN_LITERAL = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")

# The number grammar, Python 3.11's fractions._RATIONAL_FORMAT.
_LITERAL = re.compile(
    r"""
    \s*(?P<sign>[-+]?)(?=\.?\d)                # a sign, then a digit or .digit
    (?P<whole>(?:\d+(?:_\d+)*)?)               # an integer part, maybe empty
    (?:/(?P<den>\d+(?:_\d+)*)                  # then a denominator,
    |(?:\.(?P<decimal>(?:\d+(?:_\d+)*)?))?     # or a fraction part
    (?:[eE](?P<exp>[-+]?\d+(?:_\d+)*))?)\s*    # and an exponent
    """,
    re.VERBOSE,
)


def _literal(text: str) -> tuple[int, int]:
    """A literal's numerator and denominator, not reduced (ratio);
    ValueError for text outside the grammar."""
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise ValueError(text)
    sign, whole, den, decimal, exp = match.groups()
    if den:
        num, den = int(whole), int(den)
    else:
        decimal = (decimal or "").replace("_", "")
        places, shift = len(decimal), int(exp or 0)  # ValueError past the digit limit
        if exp:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            digits = len((whole + decimal).replace("_", "").lstrip("0")) or 1
            # the numerator's and the denominator's digits before reduction
            if limit and max(digits + max(shift, 0), places + max(-shift, 0) + 1) > limit:
                raise NotRational(f"not a rational: {echo(text)} has too many digits")
        num = int(whole or "0") * 10**places + int(decimal or "0")
        num, den = num * 10 ** max(shift - places, 0), 10 ** max(places - shift, 0)
    return (-num if sign == "-" else num), den


def rat_str(q: Fraction) -> str:
    """Render a rational as 'p/q', or bare 'p' when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


NEG_INF = float("-inf")  # an unbounded-below virtual value (module docstring)


# ---------------------------------------------------------------------------
# Integer numerators


class Scaled(NamedTuple):
    """Rationals held as integer numerators over one positive denominator:
    nums is a tuple of ints, or nested tuples of them, and each int n
    stands for n / den."""

    nums: tuple
    den: int

    def fractions(self) -> tuple:
        """The Fractions these stand for, nested alike; every zero is
        one shared Fraction(0)."""
        den = self.den

        def build(nested):
            if nested and isinstance(nested[0], tuple):
                return tuple(map(build, nested))
            return tuple([Fraction(n, den) if n else _ZERO for n in nested])

        return build(self.nums)


_ZERO = Fraction(0)
_DENOMINATOR = attrgetter("denominator")


def _denominators(nested, out: dict) -> None:
    if nested and isinstance(nested[0], tuple):
        for part in nested:
            _denominators(part, out)
    else:
        out.update(dict.fromkeys(map(_DENOMINATOR, nested)))


def _numerators(nested, factors: dict) -> tuple:
    if nested and isinstance(nested[0], tuple):
        return tuple(_numerators(part, factors) for part in nested)
    return tuple(q.numerator * factors[q.denominator] for q in nested)


def _scale(nested) -> Scaled:
    """Rationals (Fraction or int), in a tuple nested to the same depth
    throughout, over one denominator: the lcm of theirs."""
    factors: dict = {}
    _denominators(nested, factors)
    den = lcm(*factors)
    for q in factors:
        factors[q] = den // q
    return Scaled(_numerators(nested, factors), den)


def _any_negative(nested) -> bool:
    """Whether a tuple of ints, nested to the same depth throughout,
    holds a negative entry.  Denominators are positive, so the
    numerators of a Scaled carry the signs.  Flattened one level at a
    time, so the calls made are per level, not per row."""
    while nested and isinstance(nested[0], tuple):
        nested = tuple(itertools.chain.from_iterable(nested))
    return bool(nested) and min(nested) < 0


def _negative(*families: Scaled) -> bool:
    return any(_any_negative(family.nums) for family in families)


def _dot(a, b) -> int:
    """sum of a * b over the entries of two int tuples nested alike."""
    if a and isinstance(a[0], tuple):
        return sum(map(_dot, a, b))
    return sum(map(mul, a, b))


class _Numerators:
    """Equality by value for the types below, whose state is integer
    numerators (see the module docstring): their producers choose the
    denominators, so one value can be held over several.  Two values
    compare and hash by the Fraction views each class names in _views."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._views)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


def _view(family: str, per_buyer: bool = True) -> cached_property:
    """The Fractions of self.scaled's family, made on first read: of
    each buyer's Scaled, or of the family's one Scaled."""

    def fractions(self) -> tuple:
        scaled = getattr(self.scaled, family)
        return tuple(s.fractions() for s in scaled) if per_buyer else scaled.fractions()

    return cached_property(fractions)


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
        return self.zero_types[i]

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

    def _mass_products(self, buyers) -> Scaled:
        """The product masses of the buyers' joint profiles, row-major,
        reduced by a common gcd to the least denominator that holds them."""
        nums, den = [1], 1
        for b in buyers:
            masses, mass_den = self.probs_scaled[b]
            nums = [a * q for a in nums for q in masses]
            den *= mass_den
        g = gcd(den, *nums)
        return Scaled(tuple([a // g for a in nums]), den // g)

    # -- tables over one denominator each -------------------------------------

    @cached_property
    def supports_scaled(self) -> tuple[Scaled, ...]:
        """Per buyer, its value vectors over one denominator."""
        return tuple(map(_scale, self.supports))

    @cached_property
    def zero_types(self) -> tuple[int | None, ...]:
        """Per buyer, the index of its zero vector, or None.  It reads
        the supports' own Fractions, each zero of which is false, so
        that an instance asked only this (a generator's rejected draw,
        say) scales no support."""
        return tuple(
            next((t for t, vec in enumerate(vecs) if not any(vec)), None)
            for vecs in self.supports
        )

    @cached_property
    def probs_scaled(self) -> tuple[Scaled, ...]:
        """Per buyer, its masses over one denominator."""
        return tuple(map(_scale, self.probs))

    @cached_property
    def mu_scaled(self) -> Scaled:
        return self._mass_products(range(self.n))

    @cached_property
    def mu_minus_scaled(self) -> tuple[Scaled, ...]:
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
            raise DimensionMismatch(f"{key} is not an integer: {echo(count)}")
    if augment_zero is None:
        augment_zero = data.get("augment_zero", False)
        if not isinstance(augment_zero, bool):
            raise DimensionMismatch(f"augment_zero is not a boolean: {echo(augment_zero)}")
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
                    raise NegativeValue(f"buyer {i}: negative coordinate {cut(rat_str(c))}")
        # formed only now, so that m is bounded by the data
        zero = (Fraction(0),) * m
        for q in ps:
            if q < 0:
                raise NegativeValue(f"buyer {i}: negative mass {cut(rat_str(q))}")
        if len(set(sup)) != len(sup):
            raise DuplicateSupportVector(f"buyer {i}: repeated support vector")
        if sum(ps) != 1:
            raise NonUnitMass(
                f"buyer {i}: masses sum to {cut(rat_str(sum(ps)))}, expected 1"
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


# ---------------------------------------------------------------------------
# Mechanism


@dataclass(frozen=True, eq=False)
class Mechanism(_Numerators):
    """Allocation and payments indexed by full profile.

    alloc[r][i][j]: probability buyer i gets item j at the profile of
    rank r.  pay[r][i]: buyer i's payment there.  scaled holds them over
    one denominator: its nums is the pair of their numerators, nested
    alike (extraction keeps the ones it reads off its certificate's
    primal vector).  One structure serves both forms; form records which
    constraint family it targets.
    """

    form: str
    scaled: Scaled

    _views = ("form", "alloc", "pay")

    @cached_property
    def alloc(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return Scaled(self.scaled.nums[0], self.scaled.den).fractions()

    @cached_property
    def pay(self) -> tuple[tuple[Fraction, ...], ...]:
        return Scaled(self.scaled.nums[1], self.scaled.den).fractions()

    def revenue(self, instance: Instance) -> Fraction:
        (_, pay), den = self.scaled
        mu = instance.mu_scaled
        total = sum(w * sum(prow) for w, prow in zip(mu.nums, pay) if w)
        return Fraction(total, mu.den * den)


# ---------------------------------------------------------------------------
# Primal slacks


class SlackNumerators(NamedTuple):
    """PrimalSlacks over integer numerators: a[i] and b[i] per buyer,
    c for all items."""

    a: tuple[Scaled, ...]
    b: tuple[Scaled, ...]
    c: Scaled

    @property
    def feasible(self) -> bool:
        return not _negative(*self.a, *self.b, self.c)


@dataclass(frozen=True, eq=False)
class PrimalSlacks(_Numerators):
    """Constraint gaps of a mechanism, reported even when negative.

    DS form: a[i][r][t'] is the truth-telling margin of buyer i at the
    profile of rank r against reporting t' (0 on the diagonal); b[i][r]
    is ex-post utility; c[j][r] is unsold supply.  Bayesian form: a and b
    are interim, indexed by own type instead of full profile.  In both
    forms a and b are keyed like a dual solution's zeta and eta.  scaled
    holds them over one denominator per buyer (c: one for all items).
    """

    form: str
    scaled: SlackNumerators

    _views = ("form", "a", "b", "c")
    a = _view("a")
    b = _view("b")
    c = _view("c", per_buyer=False)

    @property
    def feasible(self) -> bool:
        """No entry is negative, read off the numerators."""
        return self.scaled.feasible


def _check_dims(instance: Instance, mechanism: Mechanism) -> None:
    count = instance.profile_count
    alloc, pay = mechanism.scaled.nums
    if len(alloc) != count or len(pay) != count:
        raise DimensionMismatch("mechanism profile count != instance profile count")
    for row, prow in zip(alloc, pay):
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
    The entries are integer numerators (_slack_numerators)."""
    return PrimalSlacks(mechanism.form, _slack_numerators(instance, mechanism))


def _slack_numerators(instance: Instance, mechanism: Mechanism) -> SlackNumerators:
    """mechanism_slacks over integer numerators.  With the mechanism over
    D, buyer i's values over V and its scales (see multiplier_keys) over
    W, buyer i's a and b are over V * W * D, and c is over D.

    Every DS key is one slice at scale 1: buyer i's allocation and
    payment columns are read once, and each report's entries are
    gathered on every slice at once.  A Bayesian key sums each report's
    allocation and payment over the slices at their scales (_key_rows).
    Each utility of a true type under a report is evaluated once."""
    _check_dims(instance, mechanism)
    form = mechanism.form
    (alloc, pay), den = mechanism.scaled
    # c[j][r]: den less item j's allocations at the profile of rank r
    sold = (map(sum, zip(*row)) for row in alloc)
    c = Scaled(tuple(zip(*([den - q for q in items] for items in sold))), den)
    a, b = [], []
    for i in range(instance.n):
        scales = multiplier_keys(instance, form, i).scales
        vecs, vden = instance.supports_scaled[i]
        if form == DS:
            # buyer i's columns, read once; then per report t2, its
            # allocation per item and vden times its payment on every
            # slice s, gathered at the ranks ranks[i][s][t2]
            items = list(zip(*[row[i] for row in alloc]))
            prices = [vden * row[i] for row in pay]
            reports = [
                ([[column[r] for r in ranks] for column in items], [prices[r] for r in ranks])
                for ranks in zip(*instance.ranks[i])
            ]
            gaps, truths = [], []
            for t, vec in enumerate(vecs):
                # u[t2][s]: utility of true type t reporting t2 on slice s
                u = [_utilities(vec, *report) for report in reports]
                gap = [[truth - lie for truth, lie in zip(u[t], lies)] for lies in u]
                gaps.append(list(zip(*gap)))
                truths.append(u[t])
            positions = instance.positions[i]
            a_i = [gaps[t][s] for t, s in positions]
            b_i = [truths[t][s] for t, s in positions]
        else:
            rows = list(zip(*_key_rows(instance, alloc, pay, i, scales.nums)))
            a_i, b_i = [], []
            for t, vec in enumerate(vecs):
                # u[t2]: utility of true type t reporting t2
                u = [sum(map(mul, vec, cell)) - vden * price for cell, price in rows]
                truth = u[t]
                a_i.append(tuple([truth - lie for lie in u]))
                b_i.append(truth)
        den_i = vden * scales.den * den
        a.append(Scaled(tuple(a_i), den_i))
        b.append(Scaled(tuple(b_i), den_i))
    return SlackNumerators(tuple(a), tuple(b), c)


def _utilities(vec, items, prices) -> list[int]:
    """vec . x - price entry by entry, with items[j] the entries of x's
    item j: one item at a time, skipping the items vec values at 0."""
    total = None
    for v, column in zip(vec, items):
        if v:
            if total is None:
                total = [v * x - price for x, price in zip(column, prices)]
            else:
                total = [q + v * x for q, x in zip(total, column)]
    return [-price for price in prices] if total is None else total


def _key_rows(instance: Instance, alloc, pay, i: int, scales):
    """Buyer i's allocation and payment numerators per report (alloc
    and pay as in Mechanism.scaled), summed over its opponent slices at
    their scale numerators; zero-scale slices add nothing."""
    k, m = instance.sizes[i], instance.m
    cells = [[0] * m for _ in range(k)]
    prices = [0] * k
    for w, ranks in zip(scales, instance.ranks[i]):
        if not w:
            continue
        for t2, lr in enumerate(ranks):
            acc = cells[t2]
            for j, x in enumerate(alloc[lr][i]):
                acc[j] += w * x
            prices[t2] += w * pay[lr][i]
    return cells, prices


def mechanism_feasible(
    instance: Instance, mechanism: Mechanism, slacks: PrimalSlacks | None = None
) -> bool:
    """Bounds plus nonnegative slacks in the mechanism's own form, read
    off the numerators.  slacks, when given, are this mechanism's
    mechanism_slacks."""
    scaled = _slack_numerators(instance, mechanism) if slacks is None else slacks.scaled
    alloc, pay = mechanism.scaled.nums
    # x <= 1 follows from x >= 0 and the sup rows (den - sum of x >= 0),
    # which scaled.feasible tests
    return not (_any_negative(alloc) or _any_negative(pay)) and scaled.feasible


# ---------------------------------------------------------------------------
# Dual solutions


class DualNumerators(NamedTuple):
    """A DualSolution's families over integer numerators: zeta, eta,
    alpha, beta, phi and psi per buyer, xi for all items.  Buyer i's
    zeta, eta and psi share one denominator."""

    zeta: tuple[Scaled, ...]
    eta: tuple[Scaled, ...]
    xi: Scaled
    alpha: tuple[Scaled, ...]
    beta: tuple[Scaled, ...]
    phi: tuple[Scaled, ...]
    psi: tuple[Scaled, ...]


@dataclass(frozen=True, eq=False)
class DualSolution(_Numerators):
    """Multipliers of a dual program, keyed like the primal's rows.

    zeta[i][key][t']: weight on the constraint "true type of key, report
    t'" (0 on the diagonal); eta[i][key]: participation weight.  A key
    is a profile rank r in the dominant-strategy form and an own type t
    in the Bayesian form (see multiplier_keys).  xi[j][r]: the
    per-(item, profile) dual objective terms.  alpha[i][j][r] and
    beta[i][r] are the dual constraint slacks; phi[i][key] (per item) and
    psi[i][key] are the key's coefficients, as _dual_from_scaled, the one
    constructor, derives them.  The dual holds their numerators
    (scaled); the Fraction families are views of them.  One type serves
    both forms, and form records which program the dual is of: every
    function that takes a dual reads it there, and one that reads a
    single form refuses the other (check_form).
    """

    form: str
    scaled: DualNumerators

    _views = ("form", *DualNumerators._fields)
    zeta = _view("zeta")
    eta = _view("eta")
    xi = _view("xi", per_buyer=False)
    alpha = _view("alpha")
    beta = _view("beta")
    phi = _view("phi")
    psi = _view("psi")

    def check_form(self, form: str) -> None:
        """DimensionMismatch, naming both forms, unless the dual is of
        the given form."""
        if self.form != form:
            raise DimensionMismatch(f"a {form} dual is needed, not a {self.form} one")

    def objective(self) -> Fraction:
        return self._objective

    @cached_property
    def _objective(self) -> Fraction:
        """The sum of xi."""
        xi = self.scaled.xi
        return Fraction(sum(map(sum, xi.nums)), xi.den)

    def is_feasible(self) -> bool:
        return self._feasible

    @cached_property
    def _feasible(self) -> bool:
        """No multiplier and no dual slack is negative, read once: the
        numerators of a dual never change."""
        nums = self.scaled
        return not _negative(*nums.zeta, *nums.eta, nums.xi, *nums.alpha, *nums.beta)


class MultiplierKeys(NamedTuple):
    """Buyer i's multiplier keys in one form (multiplier_keys):

    * positions[key] = (t, s): the own type of the key and a slice it
      stands for;
    * families[s][t]: the key of type t on slice s, so that families[s]
      lists the keys whose ic rows bind each other;
    * scales[s]: the invariant that relates the forms.  The ic and ir
      rows of a key are the sum, over the slices s with
      families[s][t] == key, of scales[s] times the dominant-strategy
      rows at ranks[i][s][t];
    * weights[s]: the participation weight the zero type's key carries
      on slice s in a regular dual;
    * masses[key]: the payment coefficient a regular dual meets there.

    DS keys are profile ranks, each on one slice at scale 1, weighted by
    the opponent mass, with the profile mass as mass.  BAYES keys are own
    types: every slice shares the one family of all types, at its
    opponent mass (possibly 0) as scale, with weight 1 and the buyer's
    own mass as mass.  scales, weights and masses are Scaled."""

    positions: tuple
    families: tuple
    scales: Scaled
    weights: Scaled
    masses: Scaled


def multiplier_keys(instance: Instance, form: str, i: int) -> MultiplierKeys:
    """Buyer i's multiplier keys in the given form."""
    k = instance.sizes[i]
    ones = Scaled((1,) * (instance.profile_count // k), 1)
    if form == DS:
        return MultiplierKeys(
            instance.positions[i], instance.ranks[i], ones,
            instance.mu_minus_scaled[i], instance.mu_scaled,
        )
    return MultiplierKeys(
        tuple((t, 0) for t in range(k)), (range(k),) * len(ones.nums),
        instance.mu_minus_scaled[i], ones, instance.probs_scaled[i],
    )


def _ds_coefficients(instance: Instance, i: int, zeta_i, eta_i, vecs) -> tuple[list, list]:
    """phi_star per item and psi of every DS key of buyer i, as
    _key_coefficients computes them one key at a time: per item, phi by
    rank, and psi by rank.  At the keys of own type t, on every slice at
    once: the keys' participation weights and "true t, report t2"
    multipliers (held), less the "true t2, report t" ones (inflow,
    gathered at the keys ranks[i][s][t2]).  Diagonal entries are
    ignored."""
    table = list(zip(*instance.ranks[i]))  # table[t][s]: the key of type t on slice s
    totals = [e + sum(row) for e, row in zip(eta_i, zeta_i)]
    phis, psis = [], []
    for t, (keys, vec) in enumerate(zip(table, vecs)):
        into = [row[t] for row in zeta_i]  # into[key]: the key's "report t" multiplier
        held = [totals[key] - into[key] for key in keys]
        psi, phi = held, [[h * v for h in held] for v in vec]
        for t2, (lie_keys, lie_vec) in enumerate(zip(table, vecs)):
            if t2 == t:
                continue
            inflow = [into[key] for key in lie_keys]
            psi = [q - w for q, w in zip(psi, inflow)]
            phi = [
                [q - w * v for q, w in zip(column, inflow)] if v else column
                for column, v in zip(phi, lie_vec)
            ]
        phis.append(phi)
        psis.append(psi)
    positions = instance.positions[i]
    phi = [[phis[t][j][s] for t, s in positions] for j in range(instance.m)]
    return phi, [psis[t][s] for t, s in positions]


def _key_coefficients(zeta_i, eta_i, t, vecs):
    """phibar_star per item and psibar at the Bayesian key of type t,
    which is its own type (see multiplier_keys): the key's participation
    weight and "true t, report t2" multipliers, less the "true t2,
    report t" ones; phi weighs each by its type's vector in vecs.
    Diagonal entries are ignored.  The arithmetic is generic:
    _dual_from_scaled passes integer numerators (its DS keys go through
    _ds_coefficients, all at once)."""
    held, inflow = eta_i[t], []
    for t2, out in enumerate(zeta_i[t]):
        if t2 != t:
            if out:
                held += out
            w = zeta_i[t2][t]
            if w:
                inflow.append((w, vecs[t2]))
    psi = held
    phi = [held * v for v in vecs[t]]
    for w, vec in inflow:
        psi -= w
        for j, v in enumerate(vec):
            if v:
                phi[j] -= w * v
    return tuple(phi), psi


def dual_from_multipliers(instance: Instance, form: str, zeta, eta, xi) -> DualSolution:
    """The dual solution of the given form with these Fraction
    multipliers: each buyer's zeta and eta, and xi, split once into
    numerators for _dual_from_scaled."""
    multipliers = [_scale((zeta_i, eta_i)) for zeta_i, eta_i in zip(zeta, eta)]
    return _dual_from_scaled(instance, form, multipliers, _scale(xi))


def _dual_from_scaled(instance: Instance, form: str, multipliers, xi_scaled) -> DualSolution:
    """The dual solution of the given form with these multipliers, the
    one constructor: multipliers[i] holds buyer i's (zeta, eta) over a
    denominator Z, and xi_scaled holds xi over X.  Each key's phi_star
    and psi (Bayesian: phibar_star and psibar) are computed once, kept
    as the dual's phi and psi, and written at every rank of the key into
    the alpha/beta slacks, scaled by the slice's scale; a zero-scale
    slice gets alpha = xi and beta = 0.  With buyer i's values over V,
    its scales over W and the profile masses over M, phi is over Z * V,
    psi over Z, alpha over lcm(X, W * Z * V) and beta over
    lcm(W * Z, M)."""
    mu = instance.mu_scaled
    xi_nums, xi_den = xi_scaled
    parts = []
    for i in range(instance.n):
        scales = multiplier_keys(instance, form, i).scales
        (zeta_i, eta_i), zeta_den = multipliers[i]
        vecs, value_den = instance.supports_scaled[i]
        phi_den = zeta_den * value_den
        alpha_den = lcm(xi_den, scales.den * phi_den)
        beta_den = lcm(scales.den * zeta_den, mu.den)
        to_alpha, to_beta = alpha_den // (scales.den * phi_den), beta_den // (scales.den * zeta_den)
        to_xi, to_mu = alpha_den // xi_den, beta_den // mu.den
        if form == DS:
            # every rank is its own key, on one slice at scale 1
            phi, psis = _ds_coefficients(instance, i, zeta_i, eta_i, vecs)
            alpha_i = [
                [q * to_xi - to_alpha * p for q, p in zip(col, phi_j)]
                for col, phi_j in zip(xi_nums, phi)
            ]
            beta_i = [to_beta * p - q * to_mu for p, q in zip(psis, mu.nums)]
            phis, psis = tuple(zip(*phi)), tuple(psis)
        else:
            phis, psis = zip(*(
                _key_coefficients(zeta_i, eta_i, t, vecs) for t in range(len(vecs))
            ))
            alpha_i = [[q * to_xi for q in col] for col in xi_nums]
            beta_i = [-q * to_mu for q in mu.nums]
            for w, ranks in zip(scales.nums, instance.ranks[i]):
                if not w:
                    continue
                w_alpha, w_beta = w * to_alpha, w * to_beta
                for t, r in enumerate(ranks):
                    for col, phi_j in zip(alpha_i, phis[t]):
                        col[r] -= w_alpha * phi_j
                    beta_i[r] += w_beta * psis[t]
        parts.append((
            Scaled(zeta_i, zeta_den),
            Scaled(eta_i, zeta_den),
            Scaled(tuple(map(tuple, alpha_i)), alpha_den),
            Scaled(tuple(beta_i), beta_den),
            Scaled(phis, phi_den),
            Scaled(psis, zeta_den),
        ))
    zetas, etas, alphas, betas, phis, psis = zip(*parts)
    return DualSolution(form, DualNumerators(zetas, etas, xi_scaled, alphas, betas, phis, psis))


# ---------------------------------------------------------------------------
# Virtual values and reports


@dataclass(frozen=True, eq=False)
class VirtualValueTable(_Numerators):
    """Per (buyer, item, profile) virtual values.

    scaled[i] holds buyer i's entries over one denominator: nums[j][r]
    is the numerator of item j's virtual value at the profile of rank r,
    or None for -inf.  values[i][j][r] is its view, a Fraction or
    NEG_INF.  Bayesian-form tables are constant across opponent indices
    by construction.
    """

    form: str
    scaled: tuple[Scaled, ...]

    _views = ("form", "values")

    @cached_property
    def values(self) -> tuple:
        return tuple(
            tuple(
                tuple([NEG_INF if q is None else Fraction(q, den) if q else _ZERO for q in column])
                for column in nums
            )
            for nums, den in self.scaled
        )


@dataclass(frozen=True)
class RevenueReport:
    """The three optimal revenues; the equality flags are read off them.
    Any ordering other than brev >= drev >= srev raises NotOptimal.

    ds_optimum, when set, is the proved dominant-strategy optimum behind
    drev: a mechanism of revenue drev and its slacks.  It describes the
    optimal dual face by complementary slackness.  witness_table, when
    set, is virtual.virtual_values of ai_witness, the table the
    agent-independence check read.  Neither takes part in comparisons."""

    brev: Fraction
    drev: Fraction
    srev: Fraction
    ai_witness: DualSolution | None = None
    findings: tuple[str, ...] = field(default_factory=tuple)
    ds_optimum: tuple[Mechanism, PrimalSlacks] | None = field(
        default=None, compare=False, repr=False
    )
    witness_table: VirtualValueTable | None = field(default=None, compare=False, repr=False)

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

    @property
    def equality_split(self) -> bool:
        """Exactly one equality holds; any two of them imply the third."""
        return (self.brev_eq_drev, self.drev_eq_srev, self.srev_eq_brev).count(True) == 1
