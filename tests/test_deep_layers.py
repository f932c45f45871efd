"""The deviation checks on comb trees, where LDM sells past layer 1.

The generated criterion-3 streams rarely reach a layer >= 2 with units left
(4 of 394 deeper value reruns), so their value-IC checks mostly exercise
layer-1 buyers. A comb sends units deep: the seller invites the
first spine buyer, each spine buyer invites the next one and three leaves,
and values rise with depth. With K <= 2 and mu = 1 the C^W quota
K + mu - 1 leaves at least one leaf of every spine buyer in her layer's
pool, where it outbids her, so the units pass down the spine.
"""

from collections import Counter

import pytest

from netauction import verify
from netauction.market import compute_market
from netauction.mechanisms import run_ldm
from netauction.removed_sets import robust_mu
from netauction.verify import (PROPERTY_NAMES, MechanismUnderTest, check_child_monotonicity,
                               check_invitation_ic, check_ir, check_value_ic, integer_value_grid,
                               ldm_mechanism, run_properties)

import reference_verify as ref
from conftest import counted_reruns, make_profile, outside_parent_removed_set
from test_value_rerun import first_price

DEPTHS = (3, 4, 5)
# (first value of the spine root, rise per layer)
SLOPES = ((2, 3), (1, 4), (5, 5))


def comb(depth, k, base, step):
    """Spine buyers 0..depth-1, buyer d in layer d + 1 inviting d + 1 (the
    last one none) and three leaves; a buyer in layer L bids
    base + step * (L - 1), less 1 per leaf and per further unit, floored at 0."""
    buyers = {}
    for d in range(depth):
        leaves = [depth + 3 * d + j for j in range(3)]
        buyers[d] = (bids(base + step * d, k), leaves + [d + 1] * (d + 1 < depth))
        for j, leaf in enumerate(leaves):
            buyers[leaf] = (bids(base + step * (d + 1) - j, k), [])
    return make_profile(k, {0}, buyers)


def bids(first, k):
    return tuple(max(first - unit, 0) for unit in range(k))


def combs(k):
    return [comb(depth, k, base, step) for depth in DEPTHS for base, step in SLOPES]


def sold_by_layer(profile):
    market = compute_market(profile)
    outcome = run_ldm(market, robust_mu(profile))
    sold = {}
    for i, units in outcome.units.items():
        if units:
            sold[market.layer_of[i]] = sold.get(market.layer_of[i], 0) + units
    return sold


def counted_deeper_reruns(monkeypatch, profiles):
    """Run every property on each profile; count each value rerun of a buyer
    in layer 2 or deeper by (path, whether on the truthful market, whether
    supply was left for her layer), the paths those of `counted_reruns`.
    A set-up on the truthful market is only ever for a buyer outside her
    parent's C^R."""
    reruns = counted_reruns(monkeypatch)
    deeper = Counter()
    for profile in profiles:
        results = run_properties(profile, "ldm", PROPERTY_NAMES)
        assert [r.prop for r in results if not r.ok] == []
        for path, market, i, found in reruns:
            if path == "set-up" and market.profile is profile:
                assert outside_parent_removed_set(market, robust_mu(profile), i), i
            if market.layer_of[i] >= 2:
                deeper[path, market.profile is profile, len(found.menu) > 1] += 1
        reruns.clear()
    return deeper


@pytest.mark.parametrize("k", [1, 2])
def test_combs_sell_past_layer_one_and_hold_every_property(k, monkeypatch):
    for profile in combs(k):
        assert max(sold_by_layer(profile)) >= 3
    deeper = counted_deeper_reruns(monkeypatch, combs(k))
    # 162 deeper reruns, every one with supply left at k=1 and 135 at k=2: a
    # spine buyer is certified and walks only her empty and full sets, where
    # every subset made 468. The run answers both (27 empty sets), the
    # spine's and the leaves in their parent's C^W. Only the other leaves
    # are set up, on the truthful market: the quota K + mu - 1 leaves out
    # two leaves of each spine buyer but the last (one of hers) at k=1, and
    # one (none of hers) at k=2.
    assert deeper == {
        1: {("run", True, True): 99, ("set-up", True, True): 63},
        2: {("run", True, True): 108, ("run", True, False): 27, ("set-up", True, True): 27},
    }[k]


def test_k3_combs_sell_out_in_layer_one(monkeypatch):
    """At K = 3 the quota K + mu - 1 = 3 removes all three leaves of the
    root, with the next spine buyer, so layer 1's pool is the root alone and
    she takes every unit, whatever the values: no deeper rerun has supply."""
    for profile in combs(3):
        assert sold_by_layer(profile) == {1: 3}
    deeper = counted_deeper_reruns(monkeypatch, combs(3))
    assert not any(supplied for _path, _truthful, supplied in deeper)


def grid(instance, i):
    return integer_value_grid(instance, i, cap=24)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["ldm", "first-price"])
def test_comb_reports_match_the_reference(name, k):
    found = 0
    for profile in combs(k):
        mechanism = (ldm_mechanism(robust_mu(profile)) if name == "ldm"
                     else MechanismUnderTest("first-price", first_price))
        truth = verify._Truthful(mechanism, profile)
        assert check_ir(mechanism, profile, truth=truth) == ref.check_ir(mechanism, profile)
        assert (check_invitation_ic(mechanism, profile, truth=truth)
                == ref.check_invitation_ic(mechanism, profile))
        reports = check_value_ic(mechanism, profile, grid, truth=truth)
        assert reports == ref.check_value_ic(mechanism, profile, grid)
        found += len(reports)
        assert (check_child_monotonicity(mechanism, profile, truth=truth)
                == ref.check_child_monotonicity(mechanism, profile))
    # first-layer VCG's allocation at pay-as-bid gains from shading a bid
    assert (found > 0) == (name == "first-price")
