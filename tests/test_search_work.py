"""What an invitation-IC search pays per instance, counted on the hunt's
family (`n=5..7,k=4,depth=3,bias=0.45`) as trees and as graphs.

A DNA-MU market is ranked once (`Market.ranked_first_units`), for the run
and its invitation menu together, and each buyer's closed subtree is walked
(`mechanisms._closed_subtree`) at most once per market: the run walks every
buyer it prices, and the menu reads x_K from the run's rows and walks only
the buyers the run never reached. `_Truthful` computes each full-report
utility once, and invitation-IC reads none for a buyer without
invitations. An LDM hunt on own trees builds no deviated market or report.
`search` builds one mechanism per distinct mu.
"""

import contextlib
import dataclasses
import io
from collections import Counter

import pytest

from netauction import cli, mechanisms, verify
from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import Market
from netauction.verify import _Truthful, check_invitation_ic, dna_mu_mechanism

TREES = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), max_depth=3, seller_bias=0.45)
GRAPHS = dataclasses.replace(TREES, topology="graph", edge_density=0.15)
FAMILIES = pytest.mark.parametrize("config", [TREES, GRAPHS], ids=["trees", "graphs"])


def registered(name, instance):
    entry = verify.MECHANISMS[name]
    return entry.checked(entry.pinned_mu(instance))


@pytest.fixture
def counted(monkeypatch):
    """Every DNA-MU run's market, every run as (market, the buyers it
    priced), every market whose first units are sorted, every closed-subtree
    walk as (market, buyer), and every `utility_of` as (instance, buyer); the
    lists hold the objects, so no id is reused while a test reads them."""
    seen = {"runs": [], "priced": [], "ranked": [], "walks": [], "utilities": []}
    run, walk, utility = verify.run_dna_mu, mechanisms._closed_subtree, verify.utility_of
    rank = Market.ranked_first_units

    def ranking(market):
        if market._ranked is None:
            seen["ranked"].append(market)
        return rank(market)

    def counted_run(market):
        seen["runs"].append(market)
        outcome = run(market)
        seen["priced"].append((market, [row.buyer for row in outcome.trace.rows]))
        return outcome

    monkeypatch.setattr(verify, "run_dna_mu", counted_run)
    monkeypatch.setattr(Market, "ranked_first_units", ranking)
    monkeypatch.setattr(mechanisms, "_closed_subtree",
                        lambda market, i: seen["walks"].append((market, i)) or walk(market, i))
    monkeypatch.setattr(verify, "utility_of",
                        lambda truthful, i, out: seen["utilities"].append((truthful, i))
                        or utility(truthful, i, out))
    return seen


def keyed(pairs):
    return Counter((id(a), b) for a, b in pairs)


@FAMILIES
def test_a_dna_mu_market_is_ranked_once_and_each_subtree_walked_once(counted, config):
    """The menu adds no sort to the run's, and no walk of a buyer the run
    priced; it walks the buyers with invitations the run never reached."""
    menus_walked = 0
    for profile in instance_stream(config, 300):
        for seen in counted.values():
            seen.clear()
        truth = _Truthful(dna_mu_mechanism(), profile)
        check_invitation_ic(truth.mechanism, profile, truth=truth)
        ranked = Counter(map(id, counted["ranked"]))
        assert ranked == Counter(map(id, counted["runs"])) and set(ranked.values()) <= {1}
        walked = keyed(counted["walks"])
        assert set(walked.values()) <= {1}
        # not vacuous: every run prices a buyer, and walks each one it prices
        for market, buyers in counted["priced"]:
            assert buyers and all(walked[id(market), i] for i in buyers)
        priced = {row.buyer for row in truth.outcome.trace.rows}
        menus_walked += sum(1 for market, i in counted["walks"]
                            if market is truth.market and i not in priced)
    assert menus_walked > 0


@FAMILIES
@pytest.mark.parametrize("name", ["dna-mu", "ldm"])
def test_each_full_report_utility_is_computed_once(counted, config, name):
    """At most one `utility_of` per valid buyer of an instance, and none for
    a buyer without invitations; the truthful outcome still runs first."""
    buyers = 0
    for profile in instance_stream(config, 300):
        counted["utilities"].clear()
        truth = _Truthful(registered(name, profile), profile)
        check_invitation_ic(truth.mechanism, profile, truth=truth)
        per_buyer = keyed(counted["utilities"])
        assert set(per_buyer.values()) <= {1}
        inviters = {i for i in truth.market.valid if profile.reports[i].invited}
        assert {i for _, i in counted["utilities"]} == inviters
        assert "outcome" in vars(truth)
        buyers += len(per_buyer)
    assert buyers > 300


@pytest.mark.parametrize("name, spec", [
    ("ldm", "seed=7,n=5..7,k=4,depth=3,bias=0.45"),
    ("ldm", "seed=7,n=5..7,k=4,depth=3,bias=0.45,topology=graph,density=0.15"),
    ("dna-mu", "seed=7,n=5..7,k=4,depth=3,bias=0.45")])
def test_search_builds_one_mechanism_per_mu(monkeypatch, name, spec):
    entry = verify.MECHANISMS[name]
    built = []

    def checked(mu):
        built.append(mu)
        return entry.checked(mu)

    monkeypatch.setitem(verify.MECHANISMS, name, dataclasses.replace(entry, checked=checked))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["search", "--mechanism", name, "--gen", spec, "--budget", "200"])
    assert len(built) == len(set(built)) >= 1
    pinned = {entry.pinned_mu(p) for p in instance_stream(cli._parse_gen_spec(spec), 200)}
    assert set(built) <= pinned and (name == "dna-mu" or len(built) > 1)


def test_an_ldm_hunt_sets_up_no_deviation_it_never_reads(monkeypatch):
    """An LDM hunt's trees are their own BFS trees, so the truthful run
    answers every rerun and utility invitation-IC reads: on 1,440 instances
    with no violation, no deviated report is made and each instance's market
    is the only one built. A deviation's report is made only with its
    market."""
    made, built = [], []
    report, build = verify.ReportedType, verify.compute_market
    monkeypatch.setattr(verify, "ReportedType",
                        lambda *args: made.append(args) or report(*args))
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    instances = 0
    for seed in range(20, 28):
        for profile in instance_stream(dataclasses.replace(TREES, seed=seed), 180):
            built.clear()
            assert check_invitation_ic(registered("ldm", profile), profile) == []
            assert len(built) == 1
            instances += 1
    assert made == [] and instances == 1440
