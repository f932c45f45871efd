"""The linear BFS tree, DNA-MU's on-demand subtrees and the pooled LDM/VCG
against the slow oracle in `reference_ldm.py`, and LDM's traced quantities
against the public R_l/D_i definitions. Every comparison is exact: units,
payments and the whole trace.
A reserve reaches the fast path as a priced market (`inject_dummies`) and the
oracle as its own reserve argument."""

import pytest

from netauction.cli import _parse_gen_spec
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance, random_instance
from netauction.market import SELLER, build_bfs_tree, compute_market
from netauction.mechanisms import inject_dummies, run_dna_mu, run_ldm, run_vcg_first_layer
from netauction.removed_sets import exclusion_set, layer_removed_set, removed_sets_for, robust_mu
from netauction.welfare import constrained_welfare

import reference_ldm as ref
from conftest import DATA

# The criterion-2 and criterion-3 generator streams.
SMALL_STREAMS = (
    (GeneratorConfig(seed=201, buyers=(2, 10), k=(1, 4), v_max=12), 500),
    (GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"), 500),
    (GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                     topology="graph", edge_density=0.15), 500),
)
# The auction benchmark workloads' instance shapes.
WIDE = "seed={},n=800,k=8,depth=6,bias=0.3"
DEEP = "seed={},n=3200,k=8,depth=6,topology=graph,density=0.000625"


def assert_same(fast, slow):
    assert fast.units == slow.units
    assert fast.payments == slow.payments
    assert fast.trace == slow.trace


def assert_matches_reference(profile, mu, reserve):
    market = compute_market(profile)
    tree = build_bfs_tree(market)
    slow = ref.build_bfs_tree(market)
    assert tree == slow.tree
    for i in market.valid:
        assert tree.subtree(i) == slow.descendants[i]
        if slow.parent[i] != SELLER:
            assert i in tree.children[slow.parent[i]]
    if reserve is None:
        assert removed_sets_for(tree, mu) == ref.removed_sets_for(slow.tree, mu)
        assert_same(run_dna_mu(tree), ref.run_dna_mu(slow))
    priced = market if reserve is None else compute_market(inject_dummies(profile, reserve))
    assert_same(run_ldm(priced, mu), ref.run_ldm(market, mu, reserve))
    assert_same(run_vcg_first_layer(priced), ref.run_vcg_first_layer(market, reserve))


@pytest.mark.parametrize("config,count", SMALL_STREAMS,
                         ids=[f"seed{config.seed}" for config, _ in SMALL_STREAMS])
def test_matches_reference_on_generator_streams(config, count):
    for index, profile in enumerate(instance_stream(config, count)):
        mu = robust_mu(profile)
        assert_matches_reference(profile, mu, None)
        assert_matches_reference(profile, mu, index % 6)


@pytest.mark.parametrize("spec", [WIDE.format(11), WIDE.format(12),
                                  DEEP.format(13), DEEP.format(14)])
def test_matches_reference_on_auction_workload_shapes(spec):
    profile = random_instance(_parse_gen_spec(spec), 0)
    mu = robust_mu(profile)
    assert_matches_reference(profile, mu, None)
    assert_matches_reference(profile, mu + 2, 5)


def _fixtures_and_stream():
    for name in ("fig3.json", "fig4.json", "t4.json"):
        profile = parse_instance((DATA / name).read_text())
        yield profile, profile.mu
    config = GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree")
    for profile in instance_stream(config, 500):
        yield profile, robust_mu(profile)


def test_trace_matches_public_removed_and_exclusion_sets():
    for profile, mu in _fixtures_and_stream():
        market = compute_market(profile)
        tree = build_bfs_tree(market)
        trace = run_ldm(market, mu).trace
        committed = {}
        for rec in trace.layers:
            assert rec.removed == layer_removed_set(tree, rec.layer, mu)
            for i, sw in rec.sw_minus_d.items():
                kept = market.valid - exclusion_set(tree, i, mu)
                assert sw == constrained_welfare(market, kept, committed, market.k).welfare
            for i in tree.layers[rec.layer - 1]:
                committed[i] = rec.tentative_units.get(i, 0)
