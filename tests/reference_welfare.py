"""Welfare oracles: the slow, obvious versions of the library's pool.

`brute_force_welfare` enumerates every split of the free units, so it must
never share code with the greedy path in `netauction.welfare`; only the
problem's precondition check is shared. `FullSortPool` sorts every marginal
of every buyer once, by its own sort: the obvious version of the library's
pool, which sorts only a prefix of a wide pool. Testing use only.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

from netauction.errors import ContractError, NetAuctionError
from netauction.market import BuyerId, Market, Money, ValuationVector, cumulative_value
from netauction.welfare import Allocation, WelfareResult, _check_problem


class TooLarge(NetAuctionError):
    """Instance exceeds the brute-force oracle guard."""


def brute_force_welfare(market: Market, included: frozenset[BuyerId] | set[BuyerId],
                        fixed: Mapping[BuyerId, int], k: int) -> WelfareResult:
    """Exhaustive oracle: enumerate every split of the free units.

    Guarded to ≤ 8 free buyers and k ≤ 4.
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


class FullSortPool:
    """The marginals of a set of free buyers, sorted once: the problem of
    giving at most ``budget`` units to ``buyers`` for the most total reported
    value, solved by taking marginals in the greedy order (larger value
    first, then smaller buyer id, then smaller unit index)."""

    def __init__(self, market: Market, buyers: Iterable[BuyerId], budget: int):
        if budget < 0:
            raise ContractError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        reports = market.profile.reports
        self._pool = [(-v, i, unit) for i in buyers for unit, v in enumerate(reports[i].values)]
        self._pool.sort()

    def best(self, excluded: frozenset[BuyerId] | set[BuyerId] = frozenset()) -> WelfareResult:
        """The optimum of the problem without `excluded`, allocation
        included: the first `budget` marginals of the others."""
        allocation: Allocation = {}
        welfare, budget = 0, self.budget
        for neg_v, i, _unit in self._pool:
            if not budget:
                break
            if i not in excluded:
                allocation[i] = allocation.get(i, 0) + 1
                welfare -= neg_v
                budget -= 1
        return WelfareResult(welfare=welfare, allocation=allocation)

    def top_without(self, excluded: frozenset[BuyerId] | set[BuyerId]) -> Money:
        """The total value of the first `budget` marginals of the pool without
        `excluded`, or of all when fewer: a walk over the sorted marginals,
        skipping the excluded buyers', until `budget` are summed."""
        total, budget = 0, self.budget
        for neg_v, i, _unit in self._pool:
            if not budget:
                break
            if i not in excluded:
                total -= neg_v
                budget -= 1
        return total

    def tops_without(self, excluded: frozenset[BuyerId] | set[BuyerId]) -> list[Money]:
        """The total value of the first m marginals of the free buyers not in
        `excluded`, or of all when fewer, for m in 0..`budget`: a walk over
        the sorted marginals, skipping theirs, until `budget` are summed."""
        tops, budget = [0], self.budget
        for neg_v, j, _unit in self._pool:
            if len(tops) > budget:
                break
            if j not in excluded:
                tops.append(tops[-1] - neg_v)
        return tops + tops[-1:] * (budget + 1 - len(tops))

    def places_of(self, i: BuyerId, values: ValuationVector) -> list[int]:
        """The places of free buyer i's marginals in the sorted pool, in unit
        order, which is ascending; `values` are hers as the pool holds them."""
        return [bisect_left(self._pool, (-v, i, unit)) for unit, v in enumerate(values)]

    def units_of(self, i: BuyerId, values: ValuationVector, skipped: list[int]) -> int:
        """How many of buyer i's marginals `values` fall in the first `budget`
        places once merged into the greedy order in place of her own, with
        some buyers' marginals left out: `skipped` holds, ascending, the
        `places_of` hers when she is a free buyer and of every buyer left out.

        i's unit u follows her u earlier units and the others' marginals that
        precede it here: those before its place less the skipped ones,
        counted by a bisect over `skipped`. Values are non-increasing, so her
        units that fit are a prefix.
        """
        marginals, budget = self._pool, self.budget
        for unit, v in enumerate(values):
            place = bisect_left(marginals, (-v, i, unit))
            if unit + place - bisect_left(skipped, place) >= budget:
                return unit
        return len(values)
