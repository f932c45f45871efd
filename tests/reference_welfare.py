"""Exhaustive welfare oracle: the slow, obvious version of `WelfarePool`.

It enumerates every split of the free units, so it must never share code
with the greedy path in `netauction.welfare`; only the problem's
precondition check is shared. Testing use only.
"""

from __future__ import annotations

from typing import Mapping

from netauction.errors import NetAuctionError
from netauction.market import BuyerId, Market, cumulative_value
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
