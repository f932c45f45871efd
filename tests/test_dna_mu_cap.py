"""DNA-MU's invitation menu (`mechanisms.dna_mu_invitation_menu`).

On any instance, tree or graph, every invitation report of buyer i ends in
(0, 0) or in one unit at a price of at least x_K, the K-th highest first
unit outside her BFS subtree and herself, so the menu ((0, 0), (1, x_K))
bounds them, and no report gives her more true-value utility than
cap_i = max(0, v_i(1) - x_K) (notes/decisions.md). The menu's best entry is
checked against cap_i's definition and against every (buyer, subset)
utility of the full enumeration, it must certify exactly the full reports
that reach cap_i, and `check_invitation_ic` with it must return exactly the
report lists, and raise exactly the errors, of the same mechanism without
it, listing no subset of a buyer it certifies. Where the enumeration
refuses only a certified buyer's invitations, the check answers, and its
list is the reference's at a wider bound.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.errors import SearchBudgetExceeded
from netauction.instance_io import (GeneratorConfig, instance_stream, parse_instance,
                                    random_instance, serialize_instance)
from netauction.market import cumulative_value
from netauction.mechanisms import dna_mu_invitation_menu
from netauction.verify import (_certifies, _Truthful, check_invitation_ic, check_ir,
                               dna_mu_mechanism)

import reference_verify as ref
from conftest import DATA, make_profile

CERTIFIED = dna_mu_mechanism()
ENUMERATED = dataclasses.replace(CERTIFIED, invitation_menu=None)
# criterion 4's hunt: its counterexample is instance 5086
HUNT = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), max_depth=3, seller_bias=0.45)
TREES = tuple(GeneratorConfig(seed=400 + 10 * k + v_max, buyers=(2, 9), k=(1, k), v_max=v_max)
              for k in range(1, 7) for v_max in (2, 5, 10))
GRAPHS = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), topology="graph",
                         edge_density=0.15)
# the hunt's family as graphs: its counterexample is instance 1426
GRAPH_HUNT = dataclasses.replace(HUNT, topology="graph", edge_density=0.15)
# graphs with buyers past the exhaustive bound: the enumeration refuses some
CROWDED = GeneratorConfig(seed=5, buyers=(5, 9), k=(1, 2), topology="graph", edge_density=0.2)
FIXTURES = ("fig3", "fig4", "t4", "dna_mu_counterexample", "dna_mu_graph_counterexample")
ON_STREAMS = pytest.mark.parametrize(
    "streams, count", [((HUNT,), 600), (TREES, 40), ((GRAPHS,), 300), ((GRAPH_HUNT,), 1500)],
    ids=["seed113", "trees-k1..6", "graphs-seed302", "graphs-seed113"])


def fixture(name):
    return parse_instance((DATA / f"{name}.json").read_text())


def reference_cap(market, i):
    """cap_i from its definition: X_i's first units sorted afresh."""
    below, stack = set(), list(market.children[i])
    while stack:
        j = stack.pop()
        below.add(j)
        stack.extend(market.children[j])
    outside = sorted((market.first_unit(j) for j in market.valid - below - {i}), reverse=True)
    x_k = outside[market.k - 1] if len(outside) >= market.k else 0
    return max(0, market.first_unit(i) - x_k)


def reached_caps(profile):
    """Assert that each valid buyer's best menu entry at her true values is
    her cap by its definition, and bounds her utility under every invitation
    report of the full enumeration; return how many buyers have a report
    that reaches a positive cap."""
    truth = _Truthful(ENUMERATED, profile)
    menu = dna_mu_invitation_menu(truth.market, truth.outcome)
    reached = 0
    for i in truth.market.valid:
        values = profile.reports[i].values
        bound = max(cumulative_value(values, x) - p for x, p in menu(i))
        assert bound == reference_cap(truth.market, i)
        utilities = [truth.utility(i, sub) for sub in truth.subsets(i)]
        assert max(utilities) <= bound, (profile, i)
        reached += bound > 0 and bound in utilities
    return reached


@ON_STREAMS
def test_cap_bounds_every_invitation_report(streams, count):
    reached = sum(reached_caps(p) for config in streams for p in instance_stream(config, count))
    # the bound is met, not only respected
    assert reached > 100


@ON_STREAMS
def test_menu_certifies_exactly_the_full_reports_that_reach_the_cap(streams, count):
    checked = 0
    for profile in (p for config in streams for p in instance_stream(config, count)):
        truth = _Truthful(CERTIFIED, profile)
        menu = dna_mu_invitation_menu(truth.market, truth.outcome)
        for i in truth.market.valid:
            rep = profile.reports[i]
            u_full = truth.utility(i, rep.invited)
            assert (_certifies(menu(i), rep.values, u_full)
                    == (u_full >= reference_cap(truth.market, i))), (profile, i)
            checked += 1
    assert checked > 1_000


@st.composite
def drawn_markets(draw):
    """Up to 7 buyers on a random tree, each inviting her children, plus
    drawn mutual invitations between pairs of buyers (none: an own tree),
    k 1..6, values 0..v_max with v_max from 1."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 6))
    v_max = draw(st.integers(1, 10))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    invited = {i: {j for j, p in enumerate(parents) if p == i} for i in range(n)}
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for a, b in draw(st.lists(pair, max_size=n)):
        if a != b:
            invited[a].add(b)
            invited[b].add(a)
    values = [sorted(draw(st.lists(st.integers(0, v_max), min_size=k, max_size=k)),
                     reverse=True) for _ in range(n)]
    return make_profile(k, {i for i, p in enumerate(parents) if p == -1},
                        {i: (values[i], invited[i]) for i in range(n)})


@settings(max_examples=300, deadline=None)
@given(profile=drawn_markets())
def test_cap_bounds_every_invitation_report_on_drawn_markets(profile):
    reached_caps(profile)


def invitation_ic(mechanism, profile, check=check_invitation_ic):
    """`check`'s report list, or the message of its `SearchBudgetExceeded`."""
    try:
        return check(mechanism, profile)
    except SearchBudgetExceeded as exc:
        return str(exc)


def certified(profile):
    """The valid buyers with invitations whose menu certifies their full report."""
    truth = _Truthful(CERTIFIED, profile)
    menu = dna_mu_invitation_menu(truth.market, truth.outcome)
    reports = truth.instance.reports
    return {i for i in truth.market.valid if reports[i].invited and _certifies(
        menu(i), reports[i].values, truth.utility(i, reports[i].invited))}


def wider_reference(profile):
    """The reference's report list with its exhaustive bound raised to 8, or
    its refusal past that."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ref, "MAX_INVITES_EXHAUSTIVE", 8)
        return invitation_ic(ENUMERATED, profile, ref.check_invitation_ic)


def test_certified_reports_match_the_enumeration():
    """Where the enumeration refuses but every buyer past the bound is
    certified, the certified check answers, and its list is the reference's
    at a bound of 8."""
    checked = {"violations": 0, "refusals": 0, "certified": 0, "past the bound": 0}
    profiles = [*(p for config in TREES for p in instance_stream(config, 40)),
                *instance_stream(GRAPHS, 300), *instance_stream(HUNT, 5087),
                *instance_stream(GRAPH_HUNT, 1427), *instance_stream(CROWDED, 2000),
                *instance_stream(GeneratorConfig(seed=9, buyers=(30, 30), k=(1, 3)), 20),
                *map(fixture, FIXTURES)]
    for profile in profiles:
        found, expected = invitation_ic(CERTIFIED, profile), invitation_ic(ENUMERATED, profile)
        if isinstance(expected, str) and isinstance(found, list):
            expected = wider_reference(profile)
            checked["past the bound"] += 1
        assert found == expected
        checked["violations"] += isinstance(found, list) and len(found)
        checked["refusals"] += isinstance(found, str)
        checked["certified"] += isinstance(found, list) and len(certified(profile))
    # the graph streams add violations and certified buyers; the enumeration
    # refuses eight batches, each for a certified buyer's invitations
    assert checked["violations"] >= 15 and checked["past the bound"] >= 8
    assert checked["refusals"] == 0
    assert checked["certified"] > 26_000


@pytest.mark.parametrize("name", FIXTURES)
def test_certified_reports_match_the_reference(name):
    """fig4's g invites seven buyers: the reference answers at a bound of 8."""
    assert invitation_ic(CERTIFIED, fixture(name)) == wider_reference(fixture(name))


def test_a_certified_buyer_past_the_exhaustive_bound_verifies():
    """Buyer 0 wins at price 0 under every report, so her menu certifies her
    full report, and her seven invitations, past the bound, are never
    enumerated; IR, which has no certificate, still refuses them."""
    profile = make_profile(1, {0}, {0: ((10,), range(1, 8)),
                                    **{j: ((1,), ()) for j in range(1, 8)}})
    assert certified(profile) == {0}
    assert check_invitation_ic(CERTIFIED, profile) == []
    with pytest.raises(SearchBudgetExceeded, match="7 invites exceed the exhaustive bound 6"):
        check_ir(CERTIFIED, profile)


def test_graphs_certify():
    """On each instance of the stream that is not its own BFS tree the menu
    certifies a buyer."""
    truths = [_Truthful(CERTIFIED, p) for p in instance_stream(GRAPHS, 40)]
    graphs = [t.instance for t in truths if t.tree is not t]
    assert len(graphs) >= 20
    assert all(map(certified, graphs))


def test_graph_counterexample_goes_through_the_cap():
    """The graph hunt stops at instance 1426, which is not its own BFS tree:
    b00, b03 and b04 are certified there, and b01 gains 0 -> 1 by hiding
    b03."""
    profile = fixture("dna_mu_graph_counterexample")
    assert serialize_instance(random_instance(GRAPH_HUNT, 1426)) == \
        (DATA / "dna_mu_graph_counterexample.json").read_text()
    truth = _Truthful(CERTIFIED, profile)
    assert truth.tree is not truth
    found = check_invitation_ic(CERTIFIED, profile)
    assert found == check_invitation_ic(ENUMERATED, profile)
    assert found == ref.check_invitation_ic(ENUMERATED, profile)
    label = profile.label_of
    assert set(map(label, certified(profile))) == {"b00", "b03", "b04"}
    first = found[0]
    assert (label(first.buyer), first.truthful_utility, first.deviating_utility) == ("b01", 0, 1)
    hidden = first.truthful_report.invited - first.deviating_report.invited
    assert set(map(label, hidden)) == {"b03"}


def test_a_certified_buyer_lists_no_subsets(monkeypatch):
    """`check_invitation_ic` lists the reports of exactly the buyers with
    invitations the menu does not certify."""
    listed, subsets = [], _Truthful.subsets
    monkeypatch.setattr(_Truthful, "subsets", lambda self, i: listed.append(i) or subsets(self, i))
    skipped = 0
    for profile in [*instance_stream(HUNT, 100), *instance_stream(GRAPHS, 100)]:
        listed.clear()
        check_invitation_ic(CERTIFIED, profile)
        market = _Truthful(CERTIFIED, profile).market
        invited = {i for i in market.valid if profile.reports[i].invited}
        assert sorted(listed) == sorted(invited - certified(profile))
        skipped += len(certified(profile))
    assert skipped > 100
