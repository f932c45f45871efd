"""Constrained social-welfare maximization by greedy marginal-value allocation.

Because every buyer's marginals are non-increasing, the welfare objective is a
sum of independent concave unit sequences and the greedy that pops the largest
remaining marginal is exactly optimal. That greedy order, ties included, is
defined in this module only: ``sorted_marginals`` sorts by it. ``WelfarePool``
answers the problem itself and every variant with a few buyers left out by
walking its free buyers' marginals in that order, so a mechanism that needs
one optimum per buyer of a layer pays for one sort, not one per buyer. A
walk reads about as many marginals as the budget, so a wide pool sorts only
the marginals of its first-ranked buyers and sorts more in when a walk needs
them (the prefix argument is in notes/decisions.md). The same pool serves
problems that differ in one buyer's marginals, merged in by binary search in
place of hers (``units_of``); only ``tops_without``, the others' value for
each smaller budget, varies the budget. A pool holds no fixed buyers; the
caller that freezes some keeps their units and welfare.
``constrained_welfare`` solves one problem with fixed buyers, checking,
summing and merging them, and ``kth_highest_first_unit`` ranks first units;
nothing in the package calls either. Both stay only for the benchmark in
perfbench/, whose tracer times them by name, until ROADMAP item 1a moves
them into the tests' reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Collection, Iterable, Iterator, Mapping

from .errors import ContractError, FixedOutsideIncluded, OverCommitted
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


# A pool of at most this many buyers per unit of budget sorts all their
# marginals at once: its walks read most of them, and ranking its buyers
# first would cost more than the sort it saves.
_SORT_WHOLE = 8


class WelfarePool:
    """The marginals of a set of free buyers in the order of
    `sorted_marginals`: the problem of giving at most ``budget`` units to
    ``buyers`` for the most total reported value, solved by taking
    marginals in that order.

    A pool of more than `_SORT_WHOLE` buyers per unit of budget ranks its
    buyers by first marginal, in the greedy order, and sorts the marginals
    of the first m only. Every marginal of a buyer ranked below them comes
    after the first marginal of the (m+1)-th, the cut, so the sorted
    marginals before the cut are the first ones of the whole order. A walk
    that reaches the cut, or a place asked for past it, sorts the marginals
    of the next m buyers in, doubling m, and goes on; every answer is the
    one a sort of all the marginals gives."""

    def __init__(self, market: Market, buyers: Collection[BuyerId], budget: int):
        if budget < 0:
            raise ContractError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        reports = self._reports = market.profile.reports
        if len(buyers) <= _SORT_WHOLE * budget:
            self._pool, self._cut = sorted_marginals(reports, buyers), None
            return
        # (-first marginal, buyer): ascending order ranks in the greedy order
        self._ranked = sorted((-reports[i].values[0], i) for i in buyers)
        self._pool, self._m = [], 0
        self._sort_in(max(2 * budget, 1))

    def _sort_in(self, m: int) -> None:
        """Sort the marginals of the buyers ranked up to m in, and move the
        cut to the first marginal of the (m+1)-th; `_exact` is the count of
        sorted marginals before it, None once every buyer is in."""
        ranked, reports, pool = self._ranked, self._reports, self._pool
        pool += [(-v, i, unit) for _, i in ranked[self._m:m]
                 for unit, v in enumerate(reports[i].values)]
        pool.sort()
        self._m = m
        if m < len(ranked):
            self._cut = (*ranked[m], 0)
            self._exact = bisect_left(pool, self._cut)
        else:
            self._exact = self._cut = None

    def _greedy(self) -> Iterable[Marginal]:
        """The pool's marginals in the greedy order: the sorted list once it
        holds every buyer, else a walk that sorts more in at the cut."""
        return self._pool if self._cut is None else self._walk()

    def _walk(self) -> Iterator[Marginal]:
        at = 0
        while self._cut is not None:
            yield from islice(self._pool, at, self._exact)
            at = self._exact
            self._sort_in(2 * self._m)
        yield from islice(self._pool, at, None)

    def _sort_past(self, marginal: Marginal) -> None:
        """Sort more in until no unsorted marginal comes before `marginal`:
        then a bisect of the sorted ones finds its place."""
        while self._cut is not None and marginal > self._cut:
            self._sort_in(2 * self._m)

    def best(self, excluded: frozenset[BuyerId] | set[BuyerId] = frozenset()) -> WelfareResult:
        """The optimum of the problem without `excluded`, allocation
        included: the first `budget` marginals of the others."""
        allocation: Allocation = {}
        welfare, budget = 0, self.budget
        for neg_v, i, _unit in self._greedy():
            if not budget:
                break
            if i not in excluded:
                allocation[i] = allocation.get(i, 0) + 1
                welfare -= neg_v
                budget -= 1
        return WelfareResult(welfare=welfare, allocation=allocation)

    def top_without(self, excluded: frozenset[BuyerId] | set[BuyerId]) -> Money:
        """The total value of the first `budget` marginals of the pool without
        `excluded`, or of all when fewer: a walk over the marginals in the
        greedy order, skipping the excluded buyers', until `budget` are summed."""
        total, budget = 0, self.budget
        for neg_v, i, _unit in self._greedy():
            if not budget:
                break
            if i not in excluded:
                total -= neg_v
                budget -= 1
        return total

    def tops_without(self, excluded: frozenset[BuyerId] | set[BuyerId]) -> list[Money]:
        """The total value of the first m marginals of the free buyers not in
        `excluded`, or of all when fewer, for m in 0..`budget`: a walk over
        the marginals in the greedy order, skipping theirs, until `budget`
        are summed."""
        tops, budget = [0], self.budget
        for neg_v, j, _unit in self._greedy():
            if len(tops) > budget:
                break
            if j not in excluded:
                tops.append(tops[-1] - neg_v)
        return tops + tops[-1:] * (budget + 1 - len(tops))

    def places_of(self, i: BuyerId, values: ValuationVector) -> list[int]:
        """The places of free buyer i's marginals in the greedy order of the
        pool, in unit order, which is ascending; `values` are hers as the
        pool holds them."""
        if self._cut is not None:
            self._sort_past((-values[-1], i, len(values) - 1))
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
            marginal = (-v, i, unit)
            if self._cut is not None:
                self._sort_past(marginal)
            place = bisect_left(marginals, marginal)
            if unit + place - bisect_left(skipped, place) >= budget:
                return unit
        return len(values)


def constrained_welfare(market: Market, included: frozenset[BuyerId] | set[BuyerId],
                        fixed: Mapping[BuyerId, int], k: int) -> WelfareResult:
    """Maximize total reported value over ``included`` with at most k units,
    the buyers in ``fixed`` holding exactly their stated unit count (zero
    included) and counting their cumulative values; the others share the
    remaining supply as a `WelfarePool`, with its tie-break."""
    committed = _check_problem(market, included, fixed, k)
    free = WelfarePool(market, included.difference(fixed), k - committed).best()
    reports = market.profile.reports
    welfare = free.welfare + sum(
        cumulative_value(reports[i].values, m) for i, m in fixed.items())
    return WelfareResult(welfare=welfare,
                         allocation=free.allocation | {i: m for i, m in fixed.items() if m})


def kth_highest_first_unit(market: Market, buyers: Iterable[BuyerId], k: int) -> Money:
    """k-th largest first-unit report among ``buyers``; 0 when fewer than k."""
    if k < 1:
        raise ContractError(f"rank k must be >= 1, got {k}")
    firsts = sorted((market.first_unit(i) for i in buyers), reverse=True)
    if len(firsts) < k:
        return 0
    return firsts[k - 1]
