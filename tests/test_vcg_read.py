"""First-layer VCG read off LDM's truthful run (`ldm_run_vcg_first_layer`)
against its own run (`run_vcg_first_layer`) and the slow oracle in
`reference_ldm.py`, which solves the layer-1 problem once per layer-1 buyer.

The read prices layer 1 in the run's layer-1 pool less F_1 - layer 1; a
read that kept those layer-2 buyers would price layer 2's bids into the
Clarke pivot, and these comparisons catch it."""

import pytest

from netauction.cli import _parse_gen_spec
from netauction.instance_io import GeneratorConfig, instance_stream, random_instance
from netauction.market import compute_market
from netauction.mechanisms import (inject_dummies, ldm_run_vcg_first_layer, run_ldm,
                                   run_vcg_first_layer)
from netauction.removed_sets import min_valid_mu

import reference_ldm as ref
from conftest import make_profile

STREAMS = {
    "seed301-tree": GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10,
                                    topology="tree"),
    "seed302-graph": GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                                     topology="graph", edge_density=0.15),
}
RESERVES = (None, 0, 3)


def assert_read_matches(profile):
    """The read at every mu from `min_valid_mu` to 2 above it and every
    reserve of `RESERVES`, against both runs: units and payment of every
    valid buyer. Returns the (reserve, mu) cases compared, and those whose
    layer-1 pool holds a layer-2 buyer."""
    market = compute_market(profile)
    cases = wide = 0
    for reserve in RESERVES:
        priced = market if reserve is None else compute_market(inject_dummies(profile, reserve))
        expected = (run_vcg_first_layer(priced), ref.run_vcg_first_layer(market, reserve))
        least = min_valid_mu(priced)
        for mu in range(least, least + 3):
            trace = run_ldm(priced, mu).trace
            read = ldm_run_vcg_first_layer(trace)
            for i in market.valid:
                for outcome in expected:
                    assert read.units_of(i) == outcome.units_of(i), (reserve, mu, i)
                    assert read.payment_of(i) == outcome.payment_of(i), (reserve, mu, i)
            cases += 1
            wide += bool(trace.pools) and trace.pools[0][0] != priced.layers[0]
    return cases, wide


@pytest.mark.parametrize("stream", STREAMS)
def test_read_matches_both_runs_on_criterion_streams(stream):
    cases = wide = 0
    for profile in instance_stream(STREAMS[stream], 400):
        found = assert_read_matches(profile)
        cases, wide = cases + found[0], wide + found[1]
    # a C^W quota is at least K, so few small layer-1 pools hold a child
    assert (cases, wide) == (3_600, {"seed301-tree": 108, "seed302-graph": 204}[stream])


def test_read_matches_both_runs_on_a_wide_tree():
    # 59 layer-1 buyers over five layers; every child of one sits in her
    # parent's C^R, so F_1 is layer 1
    profile = random_instance(_parse_gen_spec("seed=7,n=200,k=8,depth=6,bias=0.3"), 0)
    assert len(compute_market(profile).layers[0]) == 59
    assert assert_read_matches(profile) == (9, 0)


def test_read_of_a_market_with_no_valid_buyer():
    # no seller neighbour: no layer and no pool, and all zeros; with a
    # reserve the dummies fill layer 1 and the read lists no one
    profile = make_profile(2, set(), {0: ((3, 1), [1]), 1: ((2, 0), [])})
    assert not compute_market(profile).valid
    assert assert_read_matches(profile) == (9, 0)
    assert ldm_run_vcg_first_layer(run_ldm(compute_market(profile), 0).trace).units == {}
