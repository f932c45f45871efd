"""DNA-MU's invitation cap (`mechanisms.dna_mu_invitation_cap`).

On an instance that is its own BFS tree, no invitation report gives buyer i
more true-value utility than cap_i = max(0, v_i(1) - x_K), x_K the K-th
highest first unit outside her subtree and herself (notes/decisions.md).
The cap is checked against its definition and against every (buyer,
subset) utility of the full enumeration, and `check_invitation_ic` with it
must return exactly the report lists, and raise exactly the errors, of the
same mechanism without it.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction.errors import SearchBudgetExceeded
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.mechanisms import dna_mu_invitation_cap
from netauction.verify import _Truthful, check_invitation_ic, dna_mu_mechanism

import reference_verify as ref
from conftest import DATA, make_profile

CERTIFIED = dna_mu_mechanism()
ENUMERATED = dataclasses.replace(CERTIFIED, invitation_cap=None)
# criterion 4's hunt: its counterexample is instance 5086
HUNT = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), max_depth=3, seller_bias=0.45)
TREES = tuple(GeneratorConfig(seed=400 + 10 * k + v_max, buyers=(2, 9), k=(1, k), v_max=v_max)
              for k in range(1, 7) for v_max in (2, 5, 10))
GRAPHS = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), topology="graph",
                         edge_density=0.15)
FIXTURES = ("fig3", "fig4", "t4", "dna_mu_counterexample")


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
    """Assert that each valid buyer's cap equals its definition and bounds
    her utility under every invitation report of the full enumeration;
    return how many buyers have a report that reaches a positive cap."""
    truth = _Truthful(ENUMERATED, profile)
    assert truth.own_tree
    cap = dna_mu_invitation_cap(truth.market)
    reached = 0
    for i in truth.market.valid:
        bound = cap(i)
        assert bound == reference_cap(truth.market, i)
        utilities = [truth.utility(i, sub) for sub in truth.subsets(i)]
        assert max(utilities) <= bound, (profile, i)
        reached += bound > 0 and bound in utilities
    return reached


@pytest.mark.parametrize("streams, count", [((HUNT,), 600), (TREES, 40)],
                         ids=["seed113", "trees-k1..6"])
def test_cap_bounds_every_invitation_report(streams, count):
    reached = sum(reached_caps(p) for config in streams for p in instance_stream(config, count))
    # the bound is met, not only respected
    assert reached > 100


@st.composite
def own_trees(draw):
    """Up to 7 buyers on a random tree, each inviting exactly her children,
    k 1..6, values 0..v_max with v_max from 1."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 6))
    v_max = draw(st.integers(1, 10))
    parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
    values = [sorted(draw(st.lists(st.integers(0, v_max), min_size=k, max_size=k)),
                     reverse=True) for _ in range(n)]
    return make_profile(k, {i for i, p in enumerate(parents) if p == -1}, {
        i: (values[i], [j for j, p in enumerate(parents) if p == i]) for i in range(n)})


@settings(max_examples=300, deadline=None)
@given(profile=own_trees())
def test_cap_bounds_every_invitation_report_on_drawn_trees(profile):
    reached_caps(profile)


def invitation_ic(mechanism, profile, check=check_invitation_ic):
    """`check`'s report list, or the message of its `SearchBudgetExceeded`."""
    try:
        return check(mechanism, profile)
    except SearchBudgetExceeded as exc:
        return str(exc)


def certified_buyers(profile):
    """Valid buyers with invitations whose full report reaches the cap."""
    truth = _Truthful(CERTIFIED, profile)
    return sum(truth.invitation_certified(i, truth.utility(i, truth.instance.reports[i].invited))
               for i in truth.market.valid if truth.instance.reports[i].invited)


def test_certified_reports_match_the_enumeration():
    checked = {"violations": 0, "refusals": 0, "certified": 0}
    profiles = [*(p for config in TREES for p in instance_stream(config, 40)),
                *instance_stream(GRAPHS, 300), *instance_stream(HUNT, 5087),
                *instance_stream(GeneratorConfig(seed=9, buyers=(30, 30), k=(1, 3)), 20),
                *map(fixture, FIXTURES)]
    for profile in profiles:
        found = invitation_ic(CERTIFIED, profile)
        assert found == invitation_ic(ENUMERATED, profile)
        checked["violations"] += isinstance(found, list) and len(found)
        checked["refusals"] += isinstance(found, str)
        checked["certified"] += isinstance(found, list) and certified_buyers(profile)
    assert checked["violations"] >= 2 and checked["refusals"] >= 1
    assert checked["certified"] > 9_000


@pytest.mark.parametrize("name", FIXTURES)
def test_certified_reports_match_the_reference(name):
    profile = fixture(name)
    assert (invitation_ic(CERTIFIED, profile)
            == invitation_ic(ENUMERATED, profile, ref.check_invitation_ic))


def test_a_certified_buyer_past_the_exhaustive_bound_still_raises():
    """Buyer 0 wins at price 0 under every report, so her full report
    reaches her cap; her seven invitations still exceed the bound."""
    profile = make_profile(1, {0}, {0: ((10,), range(1, 8)),
                                    **{j: ((1,), ()) for j in range(1, 8)}})
    truth = _Truthful(CERTIFIED, profile)
    assert truth.invitation_certified(0, 10)
    with pytest.raises(SearchBudgetExceeded, match="7 invites exceed the exhaustive bound 6"):
        check_invitation_ic(CERTIFIED, profile)


def test_graphs_enumerate():
    """On an instance that is not its own BFS tree nothing is certified."""
    graphs = [p for p in instance_stream(GRAPHS, 40) if not _Truthful(CERTIFIED, p).own_tree]
    assert len(graphs) >= 20
    assert not any(map(certified_buyers, graphs))
