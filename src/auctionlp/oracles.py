"""Seeded instance generation: `gen_instance` draws a deterministic
instance from a spec and a seed, and `gen_shape` gives the shape it
draws without drawing anything.

The brute-force revenue baselines that cross-check the solver live with
the test suite, in tests/baselines.py.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod
from typing import Mapping

from .errors import DimensionMismatch, ScaleLimit
from .model import Instance, validate_instance

__all__ = ["gen_instance", "gen_shape"]


def _draw_value(rng: random.Random, value_range: int, denominator: int) -> Fraction:
    d = rng.randint(1, denominator)
    return Fraction(rng.randint(0, value_range * d), d)


def _draw_weights(rng: random.Random, count: int, zero_index: int) -> list[int]:
    hi = min(8, max(1, 64 // count))
    weights = [rng.randint(1, hi) for _ in range(count)]
    if rng.random() >= 0.25:
        weights[zero_index] = 0
    return weights


def _joint_buyer(
    rng: random.Random, m: int, support: int, value_range: int, denominator: int
):
    zero = (Fraction(0),) * m
    seen = {zero}
    tries = 0
    while len(seen) < support + 1:
        vec = tuple(_draw_value(rng, value_range, denominator) for _ in range(m))
        tries += 1
        if vec != zero:
            seen.add(vec)
        if tries > 64 * (support + 1) + 64:
            raise ScaleLimit(
                f"cannot draw {support} distinct nonzero vectors in range"
            )
    vectors = [zero] + sorted(v for v in seen if v != zero)
    weights = _draw_weights(rng, len(vectors), 0)
    total = sum(weights)
    return vectors, [Fraction(w, total) for w in weights]


def _product_buyer(
    rng: random.Random, m: int, support: int, value_range: int, denominator: int
):
    per_item = []
    for _ in range(m):
        seen = {Fraction(0)}
        tries = 0
        while len(seen) < support + 1:
            seen.add(_draw_value(rng, value_range, denominator))
            tries += 1
            if tries > 64 * (support + 1) + 64:
                raise ScaleLimit(
                    f"cannot draw {support} distinct nonzero values in range"
                )
        values = sorted(seen)
        hi = max(1, 8 // len(values))
        weights = [rng.randint(1, hi) for _ in range(len(values))]
        if rng.random() >= 0.25:
            weights[0] = 0
        total = sum(weights)
        per_item.append((values, [Fraction(w, total) for w in weights]))
    vectors = []
    masses = []
    for combo in itertools.product(*(range(len(v)) for v, _ in per_item)):
        vec = tuple(per_item[j][0][combo[j]] for j in range(m))
        q = Fraction(1)
        for j in range(m):
            q *= per_item[j][1][combo[j]]
        vectors.append(vec)
        masses.append(q)
    ranked = sorted(range(len(vectors)), key=lambda idx: vectors[idx])
    return [vectors[idx] for idx in ranked], [masses[idx] for idx in ranked]


def _read_spec(spec: Mapping, cap: int):
    """Check a gen_instance spec, and its profile count against cap,
    without drawing anything.  Returns (n, m, per-buyer support sizes,
    value_range, denominator, iid, joint)."""
    n = int(spec.get("n", 2))
    m = int(spec.get("m", 1))
    raw_support = spec.get("support", 2)
    value_range = int(spec.get("value_range", 4))
    denominator = min(64, int(spec.get("denominator", 4)))
    iid = bool(spec.get("iid", False))
    correlated = bool(spec.get("correlated", True))
    if n < 1 or m < 1 or value_range < 1 or denominator < 1:
        raise DimensionMismatch("spec sizes must be positive")
    # (support size, number of buyers with it)
    if isinstance(raw_support, (list, tuple)):
        counts = [(int(s), 1) for s in raw_support]
        if len(counts) != n:
            raise DimensionMismatch("per-buyer support list length != n")
    else:
        counts = [(int(raw_support), n)]
    if any(s < 1 for s, _ in counts):
        raise DimensionMismatch("support sizes must be positive")
    if iid and len({s for s, _ in counts}) != 1:
        raise DimensionMismatch("iid generation needs one shared support size")
    joint = correlated or m == 1
    # a joint buyer draws support + 1 vectors, a product buyer that many
    # values per item.  The count is at least 2**low, and is formed only
    # while low is within 64 bits of the cap.
    powers = [(s + 1, c if joint else c * m) for s, c in counts]
    low = sum(e * (base.bit_length() - 1) for base, e in powers)
    if low > cap.bit_length() + 64:
        raise ScaleLimit(f"at least 2**{low} profiles exceed the cap {cap}")
    total_profiles = prod(base**e for base, e in powers)
    if total_profiles > cap:
        raise ScaleLimit(f"{total_profiles} profiles exceed the cap {cap}")
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

    def one_buyer(support: int):
        if joint:
            return _joint_buyer(rng, m, support, value_range, denominator)
        return _product_buyer(rng, m, support, value_range, denominator)

    buyers = []
    if iid:
        shared = one_buyer(per_buyer[0])
        buyers = [shared] * n
    else:
        buyers = [one_buyer(s) for s in per_buyer]

    return validate_instance(
        {
            "buyers": n,
            "items": m,
            "supports": [vectors for vectors, _ in buyers],
            "probs": [masses for _, masses in buyers],
        }
    )
