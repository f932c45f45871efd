"""Greedy welfare maximization against the brute-force oracle."""

import random

import pytest

from netauction.errors import ContractError, FixedOutsideIncluded, OverCommitted
from netauction.market import compute_market, cumulative_value
from netauction.removed_sets import layer_removed_sets
from netauction.welfare import (WelfarePool, WelfareResult, constrained_welfare,
                                kth_highest_first_unit)

import reference_ldm
from conftest import fig3_ids, make_profile
from reference_welfare import TooLarge, brute_force_welfare


def test_fig3_layer1_problem(fig3_profile):
    market = compute_market(fig3_profile)
    included = fig3_ids("abci")
    res = constrained_welfare(market, included, {}, 3)
    assert res.welfare == 12
    c, i = "abcdefghi".index("c"), "abcdefghi".index("i")
    assert res.allocation == {c: 2, i: 1}
    assert brute_force_welfare(market, included, {}, 3).welfare == 12


def test_empty_included_gives_zero(fig3_profile):
    market = compute_market(fig3_profile)
    res = constrained_welfare(market, frozenset(), {}, 3)
    assert res.welfare == 0 and res.allocation == {}


def test_t4_single_unit(t4_profile):
    market = compute_market(t4_profile)
    res = constrained_welfare(market, {1, 2, 5}, {}, 1)
    assert res.welfare == 7 and res.allocation == {5: 1}
    assert brute_force_welfare(market, {1, 2, 5}, {}, 1).welfare == 7


def test_t4_layer2_with_fixed_zeroes(t4_profile):
    market = compute_market(t4_profile)
    res = brute_force_welfare(market, {1, 2, 3, 4, 5}, {1: 0, 2: 0}, 1)
    assert res.welfare == 9 and res.allocation == {3: 1}


def test_fixed_buyers_kept_exactly(t4_profile):
    market = compute_market(t4_profile)
    res = constrained_welfare(market, {1, 2, 3}, {3: 1}, 1)
    assert res.allocation == {3: 1}
    assert res.welfare == 9
    res = constrained_welfare(market, {1, 2, 3}, {3: 0}, 1)
    assert res.allocation.get(3, 0) == 0
    assert res.welfare == 4


def test_errors():
    market = compute_market(make_profile(2, {1}, {1: ((5, 2), ()), 2: ((3, 1), ())}))
    with pytest.raises(OverCommitted):
        constrained_welfare(market, {1, 2}, {1: 3}, 2)
    with pytest.raises(FixedOutsideIncluded):
        constrained_welfare(market, {1}, {2: 1}, 2)
    with pytest.raises(TooLarge):
        brute_force_welfare(market, {1, 2}, {}, 5)


def test_pool_refuses_a_negative_budget(fig3_profile):
    """A slice with a negative stop drops marginals from the end, so a
    budget of -1 would answer 134, the value of 53 of fig3's 54 marginals."""
    market = compute_market(fig3_profile)
    for budget in (-1, -len(market.valid) * market.k):
        with pytest.raises(ContractError, match=f"budget must be >= 0, got {budget}"):
            WelfarePool(market, market.valid, budget)
    assert WelfarePool(market, market.valid, 0).best() == WelfareResult(0, {})


def test_zero_marginals_fill_leftover_capacity():
    market = compute_market(make_profile(3, {1}, {1: ((5, 0, 0), ())}))
    res = constrained_welfare(market, {1}, {}, 3)
    assert res.allocation == {1: 3}
    assert res.welfare == 5


def test_greedy_matches_oracle_randomized(fig3_profile):
    rng = random.Random(17)
    market = compute_market(fig3_profile)
    ids = sorted(market.valid)
    for _ in range(300):
        included = frozenset(rng.sample(ids, rng.randint(0, 8)))
        k = rng.randint(1, 4)
        fixed = {}
        remaining = k
        for i in sorted(included):
            if remaining and rng.random() < 0.3:
                m = rng.randint(0, min(remaining, 3))
                fixed[i] = m
                remaining -= m
        greedy = constrained_welfare(market, included, fixed, k)
        oracle = brute_force_welfare(market, included, fixed, k)
        assert greedy.welfare == oracle.welfare
        for i, m in fixed.items():
            assert greedy.allocation.get(i, 0) == m
        # the LDM oracle's own unit-at-a-time solve, which shares no code with the pool
        by_unit = reference_ldm.greedy_welfare(market, included, fixed, k)
        assert (by_unit.welfare, by_unit.allocation) == (greedy.welfare, greedy.allocation)


def test_pool_walk_matches_fresh_solves(fig3_profile):
    rng = random.Random(23)
    market = compute_market(fig3_profile)
    ids = sorted(market.valid)
    for _ in range(300):
        included = frozenset(rng.sample(ids, rng.randint(0, 8)))
        k = rng.randint(1, 4)
        fixed = {}
        remaining = k
        for i in sorted(included):
            if remaining and rng.random() < 0.3:
                m = rng.randint(0, min(remaining, 3))
                fixed[i] = m
                remaining -= m
        free = sorted(included - set(fixed))
        pool = WelfarePool(market, free, k - sum(fixed.values()))
        fixed_welfare = sum(cumulative_value(market.values_of(i), m) for i, m in fixed.items())
        best = pool.best()
        assert constrained_welfare(market, included, fixed, k) == WelfareResult(
            fixed_welfare + best.welfare,
            best.allocation | {i: m for i, m in fixed.items() if m})
        excluded = frozenset(rng.sample(free, rng.randint(0, len(free))))
        oracle = brute_force_welfare(market, included - excluded, fixed, k)
        assert fixed_welfare + pool.top_without(excluded) == oracle.welfare


def top_of(market, buyers, budget):
    """The total of the `budget` largest marginals of `buyers`, by a sort."""
    return sum(sorted((v for i in buyers for v in market.values_of(i)), reverse=True)[:budget])


def test_ranked_walk_matches_a_sort_without_the_excluded(fig3_profile):
    rng = random.Random(29)
    market = compute_market(fig3_profile)
    ids = sorted(fig3_profile.reports)
    for _ in range(300):
        buyers = frozenset(rng.sample(ids, rng.randint(0, 10)))
        excluded = frozenset(rng.sample(ids, rng.randint(0, 6)))
        budget = rng.randint(0, 12)
        expected = top_of(market, buyers - excluded, budget)
        assert WelfarePool(market, buyers, budget).top_without(excluded) == expected


def test_tops_without_a_buyer_match_a_sort(fig3_profile):
    """`tops_without` and `best` leave out a buyer, or a few, as a pool
    sorted without them does."""
    rng = random.Random(31)
    market = compute_market(fig3_profile)
    ids = sorted(fig3_profile.reports)
    for _ in range(300):
        buyers = frozenset(rng.sample(ids, rng.randint(1, 10)))
        i = rng.choice(sorted(buyers) + [max(ids) + 1])  # or a buyer outside
        excluded = {i, *rng.sample(ids, rng.randint(0, 3))}
        budget = rng.randint(0, 12)
        pool = WelfarePool(market, buyers, budget)
        assert pool.tops_without(excluded) == [top_of(market, buyers - excluded, m)
                                               for m in range(budget + 1)]
        assert pool.best(excluded) == WelfarePool(market, buyers - excluded, budget).best()


def test_a_free_buyers_units_are_hers_in_the_merged_order():
    """`units_of` with her pooled places left out of the count, and with an
    outside buyer, against the optimum of the pool with her report patched."""
    rng = random.Random(37)
    for _ in range(200):
        k = rng.randint(1, 4)
        buyers = {j: (sorted((rng.randint(0, 6) for _ in range(k)), reverse=True), ())
                  for j in range(rng.randint(2, 6))}
        market = compute_market(make_profile(k, set(buyers), buyers))
        i = rng.choice(sorted(buyers))
        budget = rng.randint(0, 2 * k)
        held = WelfarePool(market, buyers, budget)
        outside = WelfarePool(market, set(buyers) - {i}, budget)
        own = held.places_of(i, market.values_of(i))
        assert own == sorted(own)
        for _ in range(5):
            v = tuple(sorted((rng.randint(0, 7) for _ in range(k)), reverse=True))
            expected = WelfarePool(market.with_values(i, v), buyers, budget).best().units_of(i)
            assert held.units_of(i, v, own) == outside.units_of(i, v, []) == expected


def test_monotone_in_included_set(fig3_profile):
    market = compute_market(fig3_profile)
    r1 = next(layer_removed_sets(market, 2))
    small = market.valid - r1 - fig3_ids("i")
    big = market.valid - r1
    assert constrained_welfare(market, big, {}, 3).welfare >= \
        constrained_welfare(market, small, {}, 3).welfare


def test_determinism_of_allocation(fig3_profile):
    market = compute_market(fig3_profile)
    a = constrained_welfare(market, fig3_ids("abci"), {}, 3)
    b = constrained_welfare(market, fig3_ids("abci"), {}, 3)
    assert a.allocation == b.allocation and a.welfare == b.welfare


def test_tie_break_prefers_smaller_buyer_then_earlier_unit():
    market = compute_market(make_profile(2, {1, 2}, {
        1: ((5, 5), ()), 2: ((5, 5), ()),
    }))
    res = constrained_welfare(market, {1, 2}, {}, 2)
    assert res.allocation == {1: 2}
    assert reference_ldm.greedy_welfare(market, {1, 2}, {}, 2).allocation == {1: 2}
    # zero marginals too go to the smaller id first
    zeros = compute_market(make_profile(3, {4, 2}, {4: ((5, 5, 0), ()), 2: ((5, 0, 0), ())}))
    for solve in (constrained_welfare, reference_ldm.greedy_welfare):
        assert solve(zeros, {2, 4}, {}, 3).allocation == {2: 1, 4: 2}
        assert solve(zeros, {2, 4}, {}, 5).allocation == {2: 3, 4: 2}


def test_kth_highest_first_unit(t4_profile):
    market = compute_market(t4_profile)
    assert kth_highest_first_unit(market, {3, 4, 5}, 2) == 8
    assert kth_highest_first_unit(market, {3}, 3) == 0
    assert kth_highest_first_unit(market, set(), 1) == 0
    with pytest.raises(ContractError):
        kth_highest_first_unit(market, {3}, 0)
    # the LDM oracle's own full sort
    rng = random.Random(31)
    for _ in range(100):
        buyers = rng.sample(sorted(market.valid), rng.randint(0, len(market.valid)))
        k = rng.randint(1, 6)
        assert reference_ldm.kth_first_unit(market, buyers, k) == \
            kth_highest_first_unit(market, buyers, k)
