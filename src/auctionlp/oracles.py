"""Seeded instance generation: `parse_spec` reads spec text such as
`n=3,m=1,iid=1` into a spec, the one reader of that text; `gen_instance`
draws a deterministic instance from a spec and a seed, and `gen_shape`
gives the shape it draws without drawing anything.  Both judge every
key and value of a spec through one check.

The brute-force revenue baselines that cross-check the solver live with
the test suite, in tests/baselines.py.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod
from typing import Mapping

from .errors import DimensionMismatch, ScaleLimit, echo
from .model import Instance, validate_instance

__all__ = ["gen_instance", "gen_shape", "parse_spec"]


def _draw_value(rng: random.Random, value_range: int, denominator: int) -> Fraction:
    d = rng.randint(1, denominator)
    return Fraction(rng.randint(0, value_range * d), d)


def _draw_weights(rng: random.Random, count: int, zero_index: int) -> list[int]:
    hi = min(8, max(1, 64 // count))
    weights = [rng.randint(1, hi) for _ in range(count)]
    if rng.random() >= 0.25:
        weights[zero_index] = 0
    return weights


def _distinct(rng: random.Random, m: int, support: int, value_range: int, denominator: int):
    """The zero vector and support distinct nonzero draws of m values,
    sorted, so the zero vector comes first; ScaleLimit when 64 *
    (support + 2) draws do not find them."""
    seen = {(Fraction(0),) * m}
    for _ in range(64 * (support + 2)):
        seen.add(tuple(_draw_value(rng, value_range, denominator) for _ in range(m)))
        if len(seen) > support:
            return sorted(seen)
    raise ScaleLimit(f"cannot draw {support} distinct nonzero vectors in range")


def _joint_buyer(
    rng: random.Random, m: int, support: int, value_range: int, denominator: int
):
    vectors = _distinct(rng, m, support, value_range, denominator)
    weights = _draw_weights(rng, len(vectors), 0)
    total = sum(weights)
    return vectors, [Fraction(w, total) for w in weights]


def _product_buyer(
    rng: random.Random, m: int, support: int, value_range: int, denominator: int
):
    per_item = []
    for _ in range(m):
        values = [v for (v,) in _distinct(rng, 1, support, value_range, denominator)]
        hi = max(1, 8 // len(values))
        weights = [rng.randint(1, hi) for _ in range(len(values))]
        if rng.random() >= 0.25:
            weights[0] = 0
        total = sum(weights)
        per_item.append((values, [Fraction(w, total) for w in weights]))
    # each item's values are sorted, so the vectors come in ascending order
    vectors = []
    masses = []
    for combo in itertools.product(*(range(len(v)) for v, _ in per_item)):
        vec = tuple(per_item[j][0][combo[j]] for j in range(m))
        q = Fraction(1)
        for j in range(m):
            q *= per_item[j][1][combo[j]]
        vectors.append(vec)
        masses.append(q)
    return vectors, masses


# The keys of a gen_instance spec: counts (support may be a list) and flags.
_SPEC_COUNTS = ("n", "m", "support", "value_range", "denominator")
_SPEC_FLAGS = ("iid", "correlated")
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def parse_spec(text: str) -> dict:
    """The spec in comma-separated key=value text: a flag's word (1,
    true, yes, 0, false or no, in any case) becomes a bool, another
    key's value an int where int() reads it, and any other value stays
    text, for gen_shape to refuse.  Only a part without '=' and a
    repeated key raise DimensionMismatch here."""
    spec: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DimensionMismatch(f"generator spec entry lacks '=': {echo(part)}")
        key, raw = (side.strip() for side in part.split("=", 1))
        if key in spec:
            raise DimensionMismatch(f"generator spec repeats the key {echo(key)}")
        if key in _SPEC_FLAGS:
            spec[key] = _FLAG_WORDS.get(raw.lower(), raw)
        else:
            try:
                spec[key] = int(raw)
            except ValueError:
                spec[key] = raw
    return spec


def _read_spec(spec: Mapping, cap: int):
    """Check a gen_instance spec, and its profile count against cap,
    without drawing anything.  Returns (n, m, per-buyer support sizes,
    value_range, denominator, iid, joint).  An unknown key, a count not
    an int (or a bool) or below 1, and a flag not a bool raise
    DimensionMismatch, naming the key and the value."""
    for key, value in spec.items():
        if key in _SPEC_FLAGS:
            ok, kind = type(value) is bool, "a boolean"
        elif key in _SPEC_COUNTS:
            values = value if key == "support" and isinstance(value, (list, tuple)) else [value]
            ok, kind = all(type(v) is int for v in values), "an integer"
        else:
            raise DimensionMismatch(f"unknown generator spec key {echo(key)}")
        if ok and key in _SPEC_COUNTS and any(v < 1 for v in values):
            ok, kind = False, "positive"
        if not ok:
            raise DimensionMismatch(
                f"generator spec value for {echo(key)} is not {kind}: {echo(value)}"
            )
    n = spec.get("n", 2)
    m = spec.get("m", 1)
    raw_support = spec.get("support", 2)
    value_range = spec.get("value_range", 4)
    denominator = min(64, spec.get("denominator", 4))
    iid = spec.get("iid", False)
    correlated = spec.get("correlated", True)
    # (support size, number of buyers with it)
    if isinstance(raw_support, (list, tuple)):
        counts = [(s, 1) for s in raw_support]
        if len(counts) != n:
            raise DimensionMismatch("per-buyer support list length != n")
    else:
        counts = [(raw_support, n)]
    if iid and len({s for s, _ in counts}) != 1:
        raise DimensionMismatch("iid generation needs one shared support size")
    joint = correlated or m == 1
    # a joint buyer draws support + 1 vectors, a product buyer that many
    # values per item.  The count is at least 2**low, and is formed only
    # while low is within 64 bits of the cap.
    powers = [(s + 1, c if joint else c * m) for s, c in counts]
    low = sum(e * (base.bit_length() - 1) for base, e in powers)
    if low > cap.bit_length() + 64:
        raise ScaleLimit(f"at least 2**{echo(low)} profiles exceed the cap {echo(cap)}")
    total_profiles = prod(base**e for base, e in powers)
    if total_profiles > cap:
        raise ScaleLimit(f"{echo(total_profiles)} profiles exceed the cap {echo(cap)}")
    per_buyer = [s for s, c in counts for _ in range(c)]
    return n, m, per_buyer, value_range, denominator, iid, joint


def gen_shape(spec: Mapping, cap: int = 256) -> tuple[int, tuple[int, ...]]:
    """(items, per-buyer type counts) of every instance that
    gen_instance(spec, seed, cap) draws, whatever the seed.  Raises as
    gen_instance does on a bad or over-cap spec, and draws nothing."""
    _, m, per_buyer, _, _, _, joint = _read_spec(spec, cap)
    return m, tuple(s + 1 if joint else (s + 1) ** m for s in per_buyer)


def gen_instance(spec: Mapping, seed: int, cap: int = 256) -> Instance:
    """Deterministic instance from a seed.

    spec keys, all optional: n (buyers, default 2), m (items, default 1),
    support (nonzero vectors per buyer, or per-item nonzero values when
    correlated is false; int or per-buyer list; default 2), value_range
    (max value, default 4), denominator (max value denominator, default
    4, capped at 64), iid (all buyers share one distribution), correlated
    (joint sampling across items; false gives a product distribution per
    buyer).  Masses come from small integer weights normalized exactly,
    so every denominator stays at or below 64, and the zero vector is
    always present (mass zero three times out of four).
    """
    n, m, per_buyer, value_range, denominator, iid, joint = _read_spec(spec, cap)
    rng = random.Random(seed)

    buyer = _joint_buyer if joint else _product_buyer
    if iid:
        buyers = [buyer(rng, m, per_buyer[0], value_range, denominator)] * n
    else:
        buyers = [buyer(rng, m, s, value_range, denominator) for s in per_buyer]
    return validate_instance(
        {
            "buyers": n,
            "items": m,
            "supports": [vectors for vectors, _ in buyers],
            "probs": [masses for _, masses in buyers],
        }
    )
