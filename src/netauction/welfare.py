"""Constrained social-welfare maximization by greedy marginal-value allocation.

Because every buyer's marginals are non-increasing, the welfare objective is a
sum of independent concave unit sequences and the greedy that pops the largest
remaining marginal is exactly optimal. That greedy order, ties included, is
defined in this module only: ``sorted_marginals`` sorts by it, and
``RankedMarginals`` merges one more buyer into it. ``WelfarePool`` sorts a
problem's free marginals once; it then answers the problem itself and every
variant with a few free buyers left out by walking that sorted list, so a
mechanism that needs one optimum per buyer of a layer pays for one sort, not
one per buyer. ``RankedMarginals`` serves problems that differ only in one
outside buyer's marginals and the budget: that buyer's marginals are merged
in by binary search and the others' value read from prefix sums.
``constrained_welfare`` is the single-problem entry point over the same pool.
``brute_force_welfare`` is the independent enumeration oracle used by the
tests; it must never share code with the greedy path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping

from .errors import ContractError, FixedOutsideIncluded, OverCommitted, TooLarge
from .market import BuyerId, Market, Money, ReportedType, ValuationVector, cumulative_value

Allocation = dict[BuyerId, int]
# (-value, buyer, unit index): ascending order is the greedy order
Marginal = tuple[Money, BuyerId, int]


@dataclass(frozen=True)
class WelfareResult:
    welfare: Money
    allocation: Allocation

    def units_of(self, i: BuyerId) -> int:
        return self.allocation.get(i, 0)


def _check_problem(market: Market, included: frozenset[BuyerId] | set[BuyerId],
                   fixed: Mapping[BuyerId, int], k: int) -> int:
    committed = 0
    for i, m in fixed.items():
        if i not in included:
            raise FixedOutsideIncluded(f"fixed buyer {i} is not in the included set")
        committed += m
    if committed > k:
        raise OverCommitted(f"fixed units {committed} exceed supply {k}")
    return committed


def sorted_marginals(reports: Mapping[BuyerId, ReportedType],
                     buyers: Iterable[BuyerId]) -> list[Marginal]:
    """The buyers' marginals in the greedy order: larger value first, then
    smaller buyer id, then smaller unit index. The order is total, so it pins
    a single canonical optimum."""
    pool = [(-v, i, unit) for i in buyers for unit, v in enumerate(reports[i].values)]
    pool.sort()
    return pool


class WelfarePool:
    """The free marginals of one welfare problem, sorted once.

    The problem is: maximize total reported value over ``included`` with at
    most k units, buyers in ``fixed`` holding exactly their stated unit count
    (zero included) and the remaining supply going to the free buyers' largest
    marginals, taken in the order of `sorted_marginals`. Welfare counts the
    fixed buyers' cumulative values.
    """

    def __init__(self, market: Market, included: frozenset[BuyerId] | set[BuyerId],
                 fixed: Mapping[BuyerId, int], k: int):
        committed = _check_problem(market, included, fixed, k)
        self._budget = k - committed
        reports = market.profile.reports
        self._pool = sorted_marginals(reports, included.difference(fixed))
        self._fixed = dict(fixed)
        self._fixed_welfare = sum(
            cumulative_value(reports[i].values, m) for i, m in fixed.items())

    def best(self) -> WelfareResult:
        """The optimum of the whole problem, allocation included."""
        allocation: Allocation = {}
        welfare = self._fixed_welfare
        for neg_v, i, _unit in self._pool[:self._budget]:
            allocation[i] = allocation.get(i, 0) + 1
            welfare -= neg_v
        for i, m in self._fixed.items():
            if m:
                allocation[i] = m
        return WelfareResult(welfare=welfare, allocation=allocation)

    def welfare(self, excluded: frozenset[BuyerId] | set[BuyerId]) -> Money:
        """Optimal welfare of the same problem over ``included - excluded``.

        Walks the sorted marginals, skipping excluded buyers, until the budget
        is spent: O(budget + k * |excluded|) rather than a fresh sort.
        """
        for i in excluded:
            if i in self._fixed:
                raise FixedOutsideIncluded(f"fixed buyer {i} is not in the included set")
        welfare = self._fixed_welfare
        remaining = self._budget
        for neg_v, i, _unit in self._pool:
            if not remaining:
                break
            if i not in excluded:
                welfare -= neg_v
                remaining -= 1
        return welfare


class RankedMarginals:
    """The marginals of a fixed set of free buyers, sorted once, with prefix
    sums: for problems that differ only in the budget and in the marginals
    of one buyer outside the set.

    Merged with that buyer's marginals, the first `budget` places of the
    greedy order hold x = `units_of(i, values, budget)` of hers and this
    list's first `budget - x`, worth `top(budget - x)`. Each query is
    O(k log n); nothing is re-sorted.
    """

    def __init__(self, reports: Mapping[BuyerId, ReportedType], buyers: Iterable[BuyerId]):
        self._marginals = sorted_marginals(reports, buyers)
        self._prefix = [0, *accumulate(-neg_v for neg_v, _i, _unit in self._marginals)]

    def top(self, budget: int) -> Money:
        """Total value of the first `budget` marginals, or of all when fewer."""
        return self._prefix[min(budget, len(self._marginals))]

    def units_of(self, i: BuyerId, values: ValuationVector, budget: int) -> int:
        """How many of buyer i's marginals `values` fall in the first `budget`
        places once merged into the greedy order; i must be outside the set.

        i's unit u follows her u earlier units and the marginals that precede
        it here; values are non-increasing, so her units that fit are a prefix.
        """
        marginals = self._marginals
        for unit, v in enumerate(values):
            if unit + bisect_left(marginals, (-v, i, unit)) >= budget:
                return unit
        return len(values)


def constrained_welfare(market: Market, included: frozenset[BuyerId] | set[BuyerId],
                        fixed: Mapping[BuyerId, int], k: int) -> WelfareResult:
    """Maximize total reported value over ``included`` with at most k units.

    The optimum of ``WelfarePool(market, included, fixed, k)``, with its
    tie-break and its treatment of fixed buyers.
    """
    return WelfarePool(market, included, fixed, k).best()


def brute_force_welfare(market: Market, included: frozenset[BuyerId] | set[BuyerId],
                        fixed: Mapping[BuyerId, int], k: int) -> WelfareResult:
    """Exhaustive oracle: enumerate every split of the free units.

    Guarded to ≤ 8 free buyers and k ≤ 4; testing use only.
    """
    committed = _check_problem(market, included, fixed, k)
    free = sorted(i for i in included if i not in fixed)
    if len(free) > 8 or k > 4:
        raise TooLarge(f"{len(free)} free buyers, k={k}: beyond the oracle guard")
    reports = market.profile.reports
    budget = k - committed
    base = sum(cumulative_value(reports[i].values, m) for i, m in fixed.items())

    best_welfare = base
    best_units: tuple[int, ...] = (0,) * len(free)

    def enumerate_from(idx: int, remaining: int, units: list[int], value: int) -> None:
        nonlocal best_welfare, best_units
        if idx == len(free):
            if value > best_welfare:
                best_welfare = value
                best_units = tuple(units)
            return
        cap = min(remaining, len(reports[free[idx]].values))
        for m in range(cap + 1):
            units.append(m)
            enumerate_from(idx + 1, remaining - m,
                           units, value + cumulative_value(reports[free[idx]].values, m))
            units.pop()

    enumerate_from(0, budget, [], base)
    allocation: Allocation = {i: m for i, m in fixed.items() if m}
    for i, m in zip(free, best_units):
        if m:
            allocation[i] = m
    return WelfareResult(welfare=best_welfare, allocation=allocation)


def kth_highest_first_unit(market: Market, buyers: Iterable[BuyerId], k: int) -> Money:
    """k-th largest first-unit report among ``buyers``; 0 when fewer than k."""
    if k < 1:
        raise ContractError(f"rank k must be >= 1, got {k}")
    firsts = sorted((market.first_unit(i) for i in buyers), reverse=True)
    if len(firsts) < k:
        return 0
    return firsts[k - 1]
