"""Greedy welfare maximization against the brute-force oracle."""

import random

import pytest

from netauction.errors import ContractError, FixedOutsideIncluded, OverCommitted
from netauction.market import compute_market
from netauction.removed_sets import layer_removed_set
from netauction.welfare import (RankedMarginals, WelfarePool, constrained_welfare,
                               kth_highest_first_unit)

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
        pool = WelfarePool(market, included, fixed, k)
        assert pool.best() == constrained_welfare(market, included, fixed, k)
        free = sorted(included - set(fixed))
        excluded = frozenset(rng.sample(free, rng.randint(0, len(free))))
        oracle = brute_force_welfare(market, included - excluded, fixed, k)
        assert pool.welfare(excluded) == oracle.welfare
        if fixed:
            with pytest.raises(FixedOutsideIncluded):
                pool.welfare(excluded | {min(fixed)})


def test_ranked_walk_matches_a_sort_without_the_excluded(fig3_profile):
    rng = random.Random(29)
    reports = fig3_profile.reports
    ids = sorted(reports)
    for _ in range(300):
        buyers = frozenset(rng.sample(ids, rng.randint(0, 10)))
        excluded = frozenset(rng.sample(ids, rng.randint(0, 6)))
        budget = rng.randint(0, 12)
        expected = RankedMarginals(reports, buyers - excluded).top(budget)
        assert RankedMarginals(reports, buyers).top_without(excluded, budget) == expected


def test_monotone_in_included_set(fig3_profile):
    market = compute_market(fig3_profile)
    r1 = layer_removed_set(market, 1, 2)
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


def test_kth_highest_first_unit(t4_profile):
    market = compute_market(t4_profile)
    assert kth_highest_first_unit(market, {3, 4, 5}, 2) == 8
    assert kth_highest_first_unit(market, {3}, 3) == 0
    assert kth_highest_first_unit(market, set(), 1) == 0
    with pytest.raises(ContractError):
        kth_highest_first_unit(market, {3}, 0)
