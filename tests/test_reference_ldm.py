"""The BFS tree built by `compute_market`, DNA-MU's on-demand subtrees, LDM's free sets and
the pooled LDM/VCG against the slow oracle in `reference_ldm.py`, and LDM's traced quantities
against the oracle's R_l and the D_i definition. Every comparison is exact: units,
payments and the whole trace.
A reserve reaches the fast path as a priced market (`inject_dummies`) and the
oracle as its own reserve argument."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.cli import _parse_gen_spec
from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance, random_instance
from netauction.market import SELLER, compute_market
from netauction.mechanisms import (LdmTrace, inject_dummies, run_dna_mu, run_ldm,
                                   run_vcg_first_layer)
from netauction.removed_sets import (layer_free_sets, potential_winners, removed_sets_for,
                                     robust_mu)
from netauction.welfare import constrained_welfare

import reference_ldm as ref
from conftest import DATA, make_profile, sold_out_in_layer_one
from test_deep_layers import comb, combs

# The criterion-2 and criterion-3 generator streams.
SMALL_STREAMS = (
    (GeneratorConfig(seed=201, buyers=(2, 10), k=(1, 4), v_max=12), 500),
    (GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"), 500),
    (GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                     topology="graph", edge_density=0.15), 500),
)
# The deep-layer combs (depth 3-5, k = 1-2), where LDM sells past layer 1,
# and a k = 2 comb that processes 120 layers: its spine root keeps a unit,
# so every record after the first has frozen buyers holding units.
LONG_COMB = comb(120, 2, 2, 3)
COMBS = combs(1) + combs(2) + [LONG_COMB]
COMB_RESERVE = 2
# The auction benchmark workloads' instance shapes.
WIDE = "seed={},n=800,k=8,depth=6,bias=0.3"
DEEP = "seed={},n=3200,k=8,depth=6,topology=graph,density=0.000625"


@st.composite
def invitation_digraphs(draw):
    """Invitation digraphs the generator never draws (its graphs are tree
    edges plus mutual edges): every reached buyer has one to three inviters
    among the buyers drawn before her, often the last two, so chains form;
    ids come in no order; one-way edges go anywhere (within a layer, back up
    to earlier layers); a cycle the seller does not reach; and sometimes
    reserve dummies in layer 1."""
    ids = draw(st.lists(st.integers(0, 60), min_size=2, max_size=14, unique=True))
    split = draw(st.integers(1, len(ids)))
    reached, unreached = ids[:split], ids[split:]
    invited = {i: set() for i in ids}
    for pos in range(1, len(reached)):
        for _ in range(draw(st.integers(1, 3))):
            parent = draw(st.integers(max(pos - 2, 0), pos - 1) | st.integers(0, pos - 1))
            invited[reached[parent]].add(reached[pos])
    for i, j in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=20)):
        if i != j:
            invited[i].add(j)
    for i, j in zip(unreached, unreached[1:] + unreached[:1]):
        if i != j:
            invited[i].add(j)
    seller = {reached[0]} | draw(st.sets(st.sampled_from(reached), max_size=2))
    profile = make_profile(1, seller, {i: ((draw(st.integers(0, 9)),), invited[i])
                                       for i in ids})
    reserve = draw(st.none() | st.integers(0, 9))
    return profile if reserve is None else inject_dummies(profile, reserve)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(profile=invitation_digraphs())
def test_bfs_children_match_smallest_inviter_scan_on_any_digraph(profile):
    market = compute_market(profile)
    assert market.children == ref.build_bfs_tree(market).tree.children


def assert_same(fast, slow):
    """Units, payments and the trace: DNA-MU's rows, or an LDM trace's mu,
    market and layer records, each record's R_l included."""
    assert fast.units == slow.units
    assert fast.payments == slow.payments
    if isinstance(fast.trace, LdmTrace):
        assert ((fast.trace.mu, fast.trace.market, fast.trace.layers)
                == (slow.trace.mu, slow.trace.market, slow.trace.layers))
    else:
        assert fast.trace == slow.trace


def assert_matches_reference(profile, mu, reserve):
    market = compute_market(profile)
    tree = market
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


def test_matches_reference_on_combs():
    for profile in COMBS:
        mu = robust_mu(profile)
        assert_matches_reference(profile, mu, None)
        assert_matches_reference(profile, mu, COMB_RESERVE)
    market = compute_market(LONG_COMB)
    layers = run_ldm(market, robust_mu(LONG_COMB)).trace.layers
    frozen_hold_units = [rec for rec in layers
                         if any(market.layer_of[j] < rec.layer for j in rec.tentative_units)]
    assert len(layers) >= 100 and len(frozen_hold_units) >= 100


def _fixtures_and_stream():
    for name in ("fig3.json", "fig4.json", "t4.json"):
        profile = parse_instance((DATA / name).read_text())
        yield profile, profile.mu
    config = GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree")
    for profile in instance_stream(config, 500):
        yield profile, robust_mu(profile)
    for profile in COMBS:
        yield profile, robust_mu(profile)
        yield inject_dummies(profile, COMB_RESERVE), robust_mu(profile)


def test_trace_matches_public_removed_and_exclusion_sets():
    for profile, mu in _fixtures_and_stream():
        market = compute_market(profile)
        trace = run_ldm(market, mu).trace
        slow = ref.layer_removed_sets(ref.build_bfs_tree(market).tree, mu)
        committed = {}
        for rec in trace.layers:
            assert rec.removed == slow[rec.layer - 1]
            for i, sw in rec.sw_minus_d.items():
                kept = market.valid - (rec.removed | market.children[i] | {i})
                assert sw == constrained_welfare(market, kept, committed, market.k).welfare
            for i in market.layers[rec.layer - 1]:
                committed[i] = rec.tentative_units.get(i, 0)


def free_set_mismatches(free_sets, profile, mu):
    """The layers l where `free_sets(market, mu)` does not yield
    valid - R_l - layers 1..l-1, R_l from the oracle's per-buyer C^R sets and
    suffix unions; a walk of the wrong length mismatches at layer 0."""
    market = compute_market(profile)
    slow = ref.layer_removed_sets(ref.build_bfs_tree(market).tree, mu)
    fast = list(free_sets(market, mu))
    if len(fast) != len(slow):
        return [0]
    processed = frozenset()
    bad = []
    for l, (free, r_l) in enumerate(zip(fast, slow), start=1):
        if free != market.valid - r_l - processed:
            bad.append(l)
        processed |= market.layers[l - 1]
    return bad


def _free_set_instances():
    for config, count in SMALL_STREAMS:
        for index, profile in enumerate(instance_stream(config, count)):
            mu = robust_mu(profile)
            yield profile, mu
            yield inject_dummies(profile, index % 6), mu
    for profile in COMBS:
        yield profile, robust_mu(profile)
        yield inject_dummies(profile, COMB_RESERVE), robust_mu(profile)
    for spec in (WIDE.format(11), DEEP.format(13)):
        profile = random_instance(_parse_gen_spec(spec), 0)
        yield profile, robust_mu(profile)


def keeps_a_winner(market, mu):
    """`layer_free_sets` with each layer's smallest C^W child left free."""
    for layer, free in zip(market.layers, layer_free_sets(market, mu)):
        winners = [j for i in layer for j in potential_winners(market, i, mu)]
        yield free | {min(winners)} if winners else free


def test_free_sets_are_valid_less_removed_and_processed_layers():
    for profile, mu in _free_set_instances():
        assert free_set_mismatches(layer_free_sets, profile, mu) == []
    # every comb layer but the last has a C^W, and the mutant keeps it free
    for profile in COMBS:
        market = compute_market(profile)
        assert (free_set_mismatches(keeps_a_winner, profile, robust_mu(profile))
                == list(range(1, len(market.layers))))


def dna_mu_rows(profile):
    """DNA-MU's (buyer, price, won) rows, equal on the fast and the oracle path."""
    market = compute_market(profile)
    fast = run_dna_mu(market)
    assert_same(fast, ref.run_dna_mu(ref.build_bfs_tree(market)))
    return [(row.buyer, row.price, row.won) for row in fast.trace.rows]


def test_dna_mu_walk_counts_tied_first_units():
    profile = make_profile(2, {0, 1, 2}, {i: ((5, 0), ()) for i in range(3)})
    assert dna_mu_rows(profile) == [(0, 5, True), (1, 5, True)]


def test_dna_mu_price_is_zero_when_fewer_buyers_remain_than_units():
    # 0's subtree holds the only other buyer with a value, so no one is left
    # to set her price; the same holds for every buyer down the chain
    chain = make_profile(3, {0}, {0: ((4, 0, 0), {1}), 1: ((9, 0, 0), {2}),
                                  2: ((7, 0, 0), ())})
    assert dna_mu_rows(chain) == [(0, 0, True), (1, 0, True), (2, 0, True)]
    wide = make_profile(3, {0, 1}, {0: ((4, 0, 0), {2}), 1: ((2, 0, 0), ()),
                                    2: ((9, 0, 0), ())})
    assert dna_mu_rows(wide) == [(0, 0, True), (1, 0, True), (2, 0, True)]


def test_dna_mu_walk_skips_earlier_winners():
    # 0 wins first, priced without her child 3; were 0 not skipped after
    # that, 3 would face her 10 and lose instead of winning at 6
    profile = make_profile(2, {0, 1, 2}, {0: ((10, 0), {3}), 1: ((3, 0), ()),
                                          2: ((6, 0), ()), 3: ((8, 0), ())})
    assert dna_mu_rows(profile) == [(0, 3, True), (1, 8, False), (2, 8, False),
                                    (3, 6, True)]


def test_mu_is_checked_against_a_layer_ldm_never_processes():
    market = compute_market(sold_out_in_layer_one())
    for run in (run_ldm, ref.run_ldm):
        with pytest.raises(MuTooSmall) as err:
            run(market, 1)
        assert (err.value.required, err.value.given) == (2, 1)
    out = run_ldm(market, 2)
    assert_same(out, ref.run_ldm(market, 2))
    assert [rec.layer for rec in out.trace.layers] == [1]
