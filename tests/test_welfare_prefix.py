"""A wide `WelfarePool` sorts only its first-ranked buyers' marginals; every
read it answers is the full sort's (`reference_welfare.FullSortPool`).

The pools are random: up to 300 buyers, k 1..8, budget 0..k+2, values 0..3,
so first marginals tie at the cut, and reserve dummies in some. The
excluded and left-out sets hold the top-ranked buyers, so walks and places
run past the sorted prefix and sort more in. On the auction benchmark's
wide tree, one LDM run sorts a few buyers' marginals, not the layer's.
"""

import random

from netauction import mechanisms, welfare
from netauction.cli import _parse_gen_spec
from netauction.instance_io import random_instance
from netauction.market import compute_market
from netauction.mechanisms import inject_dummies, run_ldm
from netauction.removed_sets import min_valid_mu
from netauction.welfare import WelfarePool

from conftest import make_profile
from reference_welfare import FullSortPool


def descending(rng, k, top):
    return tuple(sorted((rng.randint(0, top) for _ in range(k)), reverse=True))


def random_market(rng):
    k = rng.randint(1, 8)
    n = rng.randint(1, 300)
    profile = make_profile(k, set(range(n)), {i: (descending(rng, k, 3), ()) for i in range(n)})
    if rng.random() < 0.3:
        profile = inject_dummies(profile, rng.randint(0, 3))
    return compute_market(profile)


def top_ranked(market, buyers, count):
    """The first `count` of `buyers` by first marginal, larger first, ties to
    the smaller id."""
    return sorted(buyers, key=lambda j: (-market.first_unit(j), j))[:count]


def left_out(rng, market, buyers, budget):
    """A set of the pool's top-ranked buyers, past the first sorted prefix,
    plus a few others, some of them outside the pool."""
    others = sorted(market.valid)
    return {*top_ranked(market, buyers, rng.randint(0, 4 * budget + 4)),
            *rng.sample(others, min(len(others), rng.randint(0, 3)))}


def test_every_read_of_a_pool_is_the_full_sorts():
    rng = random.Random(43)
    for _ in range(400):
        market = random_market(rng)
        k = market.k
        buyers = frozenset(rng.sample(sorted(market.valid), rng.randint(1, len(market.valid))))
        budget = rng.randint(0, k + 2)
        oracle = FullSortPool(market, buyers, budget)
        shared = WelfarePool(market, buyers, budget)
        for _read in range(4):
            excluded = left_out(rng, market, buyers, budget)
            for pool in (shared, WelfarePool(market, buyers, budget)):
                assert pool.best(excluded) == oracle.best(excluded)
            for pool in (shared, WelfarePool(market, buyers, budget)):
                assert pool.top_without(excluded) == oracle.top_without(excluded)
            for pool in (shared, WelfarePool(market, buyers, budget)):
                assert pool.tops_without(excluded) == oracle.tops_without(excluded)
            # `_pool_rerun`'s read: i a free buyer, X some others of the pool
            # left out, her places and theirs skipped in the merged count
            i = rng.choice(sorted(buyers))
            skipped = (excluded & buyers) | {i}
            for pool in (shared, WelfarePool(market, buyers, budget)):
                places = sorted(p for j in skipped for p in pool.places_of(j, market.values_of(j)))
                assert places == sorted(p for j in skipped
                                        for p in oracle.places_of(j, market.values_of(j)))
                for _vector in range(3):
                    v = descending(rng, k, 4)
                    assert pool.units_of(i, v, places) == oracle.units_of(i, v, places), (i, v)
        assert shared.best() == oracle.best()


def test_the_auction_tree_sorts_a_prefix_and_walks_only_for_winners(monkeypatch):
    """seed=1,n=800,k=8,depth=6,bias=0.3, LDM at the smallest valid mu: layer 1's
    pool has 252 buyers, 2,016 marginals, and one run sorts 128 of them,
    the first 16 buyers'. A member's SW_{-D_i} is walked only when a buyer
    of D_i = C_i + {i} holds a unit of the layer optimum (6 of 252)."""
    market = compute_market(random_instance(_parse_gen_spec(
        "seed=1,n=800,k=8,depth=6,bias=0.3"), 0))
    walked = []
    top_without = WelfarePool.top_without
    monkeypatch.setattr(welfare.WelfarePool, "top_without",
                        lambda pool, excluded: walked.append(excluded) or top_without(pool, excluded))
    for run_on in (market, compute_market(inject_dummies(market.profile, 5))):
        walked.clear()
        outcome = run_ldm(run_on, min_valid_mu(market))
        ran = list(walked)
        (free, pool), = outcome.trace.pools
        assert len(free) * market.k > 2_000
        assert len(pool._pool) <= 256
        # the layer record reads the SW_{-D_i} the run kept and walks nothing
        winners = outcome.trace.layers[0].tentative_units.keys()
        assert walked == ran
        holding = [i for i in run_on.layers[0]
                   if not winners.isdisjoint(run_on.children[i] | {i})]
        assert 0 < len(ran) == len(holding) <= market.k
        assert all(not winners.isdisjoint(excluded) for excluded in ran)


def test_first_layer_vcg_on_the_auction_tree_sorts_a_prefix():
    market = compute_market(random_instance(_parse_gen_spec(
        "seed=1,n=800,k=8,depth=6,bias=0.3"), 0))
    (free, pool), = mechanisms.run_vcg_first_layer(market).trace.pools
    assert len(free) * market.k > 2_000 and len(pool._pool) <= 256
