"""The deviation checks on comb trees, where LDM sells past layer 1.

The generated criterion-3 streams rarely reach a layer >= 2 with units left
(4 of 394 deeper `ldm_value_rerun` set-ups), so their value-IC checks mostly
exercise layer-1 buyers. A comb sends units deep: the seller invites the
first spine buyer, each spine buyer invites the next one and three leaves,
and values rise with depth. With K <= 2 and mu = 1 the C^W quota
K + mu - 1 leaves at least one leaf of every spine buyer in her layer's
pool, where it outbids her, so the units pass down the spine.
"""

import pytest

from netauction import verify
from netauction.market import compute_market
from netauction.mechanisms import run_ldm
from netauction.removed_sets import robust_mu
from netauction.verify import (PROPERTY_NAMES, MechanismUnderTest, check_child_monotonicity,
                               check_invitation_ic, check_ir, check_value_ic, integer_value_grid,
                               ldm_mechanism, run_properties)

import reference_verify as ref
from conftest import make_profile
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


def counted_set_ups(monkeypatch):
    """Record each `ldm_value_rerun` set-up as (buyer's layer, supply left)."""
    set_ups = []
    rerun = verify.ldm_value_rerun

    def counting(market, mu, i):
        found = rerun(market, mu, i)
        set_ups.append((market.layer_of[i], len(found.menu) > 1))
        return found

    monkeypatch.setattr(verify, "ldm_value_rerun", counting)
    return set_ups


@pytest.mark.parametrize("k", [1, 2])
def test_combs_sell_past_layer_one_and_hold_every_property(k, monkeypatch):
    set_ups = counted_set_ups(monkeypatch)
    for profile in combs(k):
        assert max(sold_by_layer(profile)) >= 3
        results = run_properties(profile, "ldm", PROPERTY_NAMES)
        assert [r.prop for r in results if not r.ok] == []
    deeper = [supplied for layer, supplied in set_ups if layer >= 2]
    # every deeper set-up has supply left at k=1, and 135 of 162 at k=2; a
    # spine buyer is certified and walks only her empty and full sets, where
    # every subset made 468 set-ups
    assert len(deeper) == 162 and sum(deeper) == {1: 162, 2: 135}[k]


def test_k3_combs_sell_out_in_layer_one(monkeypatch):
    """At K = 3 the quota K + mu - 1 = 3 removes all three leaves of the
    root, with the next spine buyer, so layer 1's pool is the root alone and
    she takes every unit, whatever the values: no deeper set-up has supply."""
    set_ups = counted_set_ups(monkeypatch)
    for profile in combs(3):
        assert sold_by_layer(profile) == {1: 3}
        assert all(r.ok for r in run_properties(profile, "ldm", PROPERTY_NAMES))
    assert not any(supplied for layer, supplied in set_ups if layer >= 2)


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
