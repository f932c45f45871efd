"""DNA-MU's run and its invitation menu against the oracles in
`reference_ldm`: the run that reads recursive descendant sets and prices, and
finds each processed buyer's x_K, from fresh sorts, and the menu built apart
from the run, with a sort of its own and one `Market.subtree` walk per buyer.

The library's run finds x_K in the walk that finds the price
(`mechanisms._kth_outside`), and its menu reads that floor from the run's
rows, walking only the subtrees of the buyers the run never reached, down
the run's ranking (`Market.ranked_first_units`). Outcomes, trace rows and
every valid buyer's menu must be identical, and two mutants of the shared
walk must be caught: a floor that skips the earlier winners, and a closed
subtree that leaves out the buyer herself.
"""

import dataclasses

import pytest

from netauction import mechanisms
from netauction.cli import _parse_gen_spec
from netauction.instance_io import (GeneratorConfig, instance_stream, parse_instance,
                                    random_instance)
from netauction.market import compute_market
from netauction.mechanisms import dna_mu_invitation_menu, run_dna_mu

import reference_ldm as ref
from conftest import DATA

# criterion 4's hunt, as a tree stream and as graphs: their counterexamples
# are instances 5086 and 1426
HUNT = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), max_depth=3, seller_bias=0.45)
GRAPH_HUNT = dataclasses.replace(HUNT, topology="graph", edge_density=0.15)
# twenty trees of 30 buyers, some inviting past the exhaustive bound
WIDE = GeneratorConfig(seed=9, buyers=(30, 30), k=(1, 3))
# perfbench's auction-deep graph at its default seed
AUCTION_DEEP = "seed=880894,n=3200,k=8,depth=6,topology=graph,density=0.000625"
FILES = ("dna_mu_counterexample", "dna_mu_graph_counterexample", "comb_k1")


def fixture(name):
    return parse_instance((DATA / f"{name}.json").read_text())


def compare(profile):
    """Assert the run and every valid buyer's menu equal to the oracles';
    return how many menus came from the run's rows and how many walked."""
    market = compute_market(profile)
    fast = run_dna_mu(market)
    slow = ref.run_dna_mu(ref.build_bfs_tree(market))
    assert (fast.units, fast.payments, fast.trace) == (slow.units, slow.payments, slow.trace)
    menu, expected = dna_mu_invitation_menu(market, fast), ref.dna_mu_invitation_menu(market)
    for i in market.valid:
        assert menu(i) == expected(i), i
    processed = len(fast.trace.rows)
    return processed, len(market.valid) - processed


def compare_all(profiles):
    read, walked = 0, 0
    for profile in profiles:
        r, w = compare(profile)
        read, walked = read + r, walked + w
    return read, walked


@pytest.mark.parametrize("config, count", [(HUNT, 5087), (GRAPH_HUNT, 1427), (WIDE, 20)],
                         ids=["seed113", "seed113-graphs", "seed9-n30"])
def test_run_and_menu_match_the_oracles_on_streams(config, count):
    read, walked = compare_all(instance_stream(config, count))
    # both sources of a menu are exercised: the run's rows, and a walk for
    # the buyers after supply ran out
    assert read > 100 and walked > 100


def test_run_and_menu_match_the_oracles_on_files():
    read, walked = compare_all(map(fixture, FILES))
    assert read and walked


def test_run_and_menu_match_the_oracles_on_the_deep_graph():
    config = _parse_gen_spec(AUCTION_DEEP)
    read, walked = compare(random_instance(config, 0))
    assert read >= 8 and walked > 3_000


def floor_skips_the_winners(walk):
    """x_K taken among the buyers outside the closed subtree and the winners."""
    def mutant(ranked, closed, k, winners=frozenset()):
        return walk(ranked, closed, k, winners)[0], walk(ranked, closed | winners, k)[1]
    return mutant


@pytest.mark.parametrize("mutant", ["floor skips the winners", "subtree leaves her out"])
def test_the_oracles_catch_each_mutant(monkeypatch, mutant):
    if mutant == "floor skips the winners":
        monkeypatch.setattr(mechanisms, "_kth_outside",
                            floor_skips_the_winners(mechanisms._kth_outside))
    else:
        monkeypatch.setattr(mechanisms, "_closed_subtree", lambda market, i: market.subtree(i))
    with pytest.raises(AssertionError):
        compare_all([*instance_stream(HUNT, 300), *map(fixture, FILES)])
