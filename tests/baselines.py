"""Brute-force revenue baselines independent of the LP pipeline: posted
prices, threshold auctions and single-buyer menu grids.

The baselines never trust their own constructions: every candidate
mechanism that enters a maximization is first certified feasible (DSIC,
ex-post IR, supply, bounds) through mechanism_feasible.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from auctionlp.errors import DimensionMismatch, ScaleLimit
from auctionlp.model import DS, Instance, Mechanism, mechanism_feasible, rat


def posted_price_revenue(values: Sequence, masses: Sequence) -> Fraction:
    """Best take-it-or-leave-it price against one buyer with the given
    single-item distribution: max over support prices q of q * Pr(v >= q)."""
    vals = [rat(w) for w in values]
    ps = [rat(q) for q in masses]
    if len(vals) != len(ps):
        raise DimensionMismatch("values and masses differ in length")
    best = Fraction(0)
    for q in set(vals):
        revenue = q * sum((p for w, p in zip(vals, ps) if w >= q), Fraction(0))
        if revenue > best:
            best = revenue
    return best


def threshold_auction_revenue(instance: Instance) -> Fraction:
    """Best reserve-price second-price auction for a single item.

    For each reserve r drawn from the support values: the highest report,
    if at least r, wins (uniform split on ties) and pays its threshold
    share max(r, best competing report) / |winners|.  Candidates failing
    the feasibility enumeration are skipped, so the result is a certified
    lower bound on the dominant-strategy optimum.
    """
    if instance.m != 1:
        raise DimensionMismatch("threshold auction needs a single item")
    reserves = sorted(
        {instance.value(i, t)[0] for i in range(instance.n) for t in range(instance.sizes[i])}
    )
    best = Fraction(0)
    for r in reserves:
        alloc = []
        pay = []
        for profile in instance.profiles():
            bids = [instance.value(i, profile[i])[0] for i in range(instance.n)]
            top = max(bids)
            row_x = [[Fraction(0)] for _ in range(instance.n)]
            row_p = [Fraction(0) for _ in range(instance.n)]
            if top >= r:
                winners = [i for i, b in enumerate(bids) if b == top]
                share = Fraction(1, len(winners))
                for i in winners:
                    rival = max(
                        (b for l, b in enumerate(bids) if l != i), default=Fraction(0)
                    )
                    row_x[i][0] = share
                    row_p[i] = share * max(r, rival)
            alloc.append(tuple(tuple(xs) for xs in row_x))
            pay.append(tuple(row_p))
        mechanism = Mechanism(
            form=DS, alloc=tuple(alloc), pay=tuple(pay)
        )
        if not mechanism_feasible(instance, mechanism):
            continue
        revenue = mechanism.revenue(instance)
        if revenue > best:
            best = revenue
    return best


def _grid_vectors(m: int, k: int) -> list[tuple[Fraction, ...]]:
    steps = [Fraction(s, k) for s in range(k + 1)]
    return [tuple(g) for g in itertools.product(steps, repeat=m)]


def _menu_payments(
    assign: Sequence[int],
    dot: Sequence[Sequence[Fraction]],
    order: Sequence[int],
    zero: int,
) -> list[Fraction] | None:
    """Largest incentive-compatible utilities with u(zero) = 0, via
    longest paths over the type graph; edge s -> t carries the gain of
    type t taking type s's bundle over s's own valuation of it.
    Returns None when the assignment admits no such payments."""
    count = len(order) + 1
    nodes = [zero] + list(order)
    slot = {t: idx for idx, t in enumerate(nodes)}
    u = [Fraction(0)] * count
    # type zero's bundle is free and empty, so every u starts at >= 0
    for _ in range(count - 1):
        changed = False
        for s in nodes:
            gs = 0 if s == zero else assign[slot[s] - 1]
            base = u[slot[s]] - dot[s][gs]
            for t in nodes:
                if t == s:
                    continue
                cand = base + dot[t][gs]
                if cand > u[slot[t]]:
                    u[slot[t]] = cand
                    changed = True
        if not changed:
            break
    else:
        for s in nodes:
            gs = 0 if s == zero else assign[slot[s] - 1]
            base = u[slot[s]] - dot[s][gs]
            for t in nodes:
                if t != s and base + dot[t][gs] > u[slot[t]]:
                    return None
    return u


def menu_grid_revenue(
    instance: Instance, k: int, max_assignments: int = 20_000_000
) -> Fraction:
    """Best single-buyer menu whose bundle allocations lie on the grid
    {0, 1/k, ..., 1}^m, with payments pushed to the incentive-compatible
    maximum per assignment.  Certified lower bound on the
    dominant-strategy optimum.

    The zero type is pinned to the empty bundle at price zero; the search
    runs over bundle assignments for the remaining types, pruned by
    pairwise weak monotonicity, and any winning candidate is re-verified
    through the feasibility enumeration before it is accepted.
    """
    if instance.n != 1:
        raise DimensionMismatch("menu search needs a single buyer")
    if k < 1:
        raise DimensionMismatch("grid resolution must be at least 1")
    count = instance.sizes[0]
    if count > 64:
        raise ScaleLimit(f"menu search capped at 64 types, got {count}")
    grid = _grid_vectors(instance.m, k)
    if len(grid) ** (count - 1) > max_assignments:
        raise ScaleLimit(
            f"{len(grid)}^{count - 1} assignments exceed the cap {max_assignments}"
        )
    zero = instance.zero_index(0)
    order = [t for t in range(count) if t != zero]
    values = [instance.value(0, t) for t in range(count)]
    dot = [
        [sum((w * g for w, g in zip(values[t], bundle)), Fraction(0)) for bundle in grid]
        for t in range(count)
    ]
    mass = [instance.mu_i(0, t) for t in range(count)]
    # per type, try richer bundles first so the prune bound tightens early
    ranked_grid = [
        sorted(range(len(grid)), key=lambda g: (-dot[t][g], g)) for t in range(count)
    ]
    # payments never exceed the type's valuation of its own bundle
    tail = [Fraction(0)] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        t = order[pos]
        tail[pos] = tail[pos + 1] + mass[t] * max(dot[t])

    best = Fraction(0)
    best_mechanism = None
    assign: list[int] = []

    def monotone_with_assigned(pos: int, g: int) -> bool:
        t = order[pos]
        # against the pinned zero bundle
        if dot[t][g] - dot[zero][g] < 0:
            return False
        for prev in range(pos):
            s = order[prev]
            h = assign[prev]
            if (dot[t][g] - dot[s][g]) - (dot[t][h] - dot[s][h]) < 0:
                return False
        return True

    def leaf() -> None:
        nonlocal best, best_mechanism
        u = _menu_payments(assign, dot, order, zero)
        if u is None:
            return
        pay = [Fraction(0)] * count
        revenue = Fraction(0)
        for pos, t in enumerate(order):
            p = dot[t][assign[pos]] - u[pos + 1]
            if p < 0:
                return
            pay[t] = p
            revenue += mass[t] * p
        if revenue <= best:
            return
        alloc = tuple(
            ((Fraction(0),) * instance.m if t == zero else grid[assign[order.index(t)]],)
            for t in range(count)
        )
        mechanism = Mechanism(
            form=DS,
            alloc=alloc,
            pay=tuple((pay[t],) for t in range(count)),
        )
        if mechanism_feasible(instance, mechanism):
            best = revenue
            best_mechanism = mechanism

    def search(pos: int, prefix: Fraction) -> None:
        if pos == len(order):
            leaf()
            return
        if prefix + tail[pos] <= best:
            return
        t = order[pos]
        for g in ranked_grid[t]:
            if monotone_with_assigned(pos, g):
                assign.append(g)
                search(pos + 1, prefix + mass[t] * dot[t][g])
                assign.pop()

    search(0, Fraction(0))
    assert best == 0 or best_mechanism is not None
    return best
