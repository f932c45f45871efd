"""A tree-reading mechanism's invitation deviations are keyed by class: the
proper subsets S of a buyer's invitations that keep the same children
S & C_i share one market, one value rerun, one utility and one outcome, and
a subset that keeps every child reads the truthful ones
(`verify._Truthful.class_of`, notes/decisions.md). A black box, which may
read the raw reports, keeps one of each per subset.

`reference_verify` is the oracle: a fresh market and a full run per
subset. On graphs, where a buyer invites others than her children, report
lists and raised bounds must be identical.
"""

from collections import Counter

import pytest

from netauction import verify
from netauction.errors import MuTooSmall, SearchBudgetExceeded
from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import compute_market
from netauction.mechanisms import Outcome
from netauction.removed_sets import min_valid_mu, robust_mu
from netauction.verify import (MechanismUnderTest, dna_mu_mechanism, ldm_mechanism,
                               run_properties, vcg_mechanism)

import reference_verify as ref
from conftest import ldm_walked_classes

STREAMS = {
    # criterion 3's graph stream
    "seed302-graph": (GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                                      topology="graph", edge_density=0.15), 100),
    # dense graphs, where most invitees are not children; eight of these
    # instances hold a buyer past the exhaustive bound
    "seed11-dense": (GeneratorConfig(seed=11, buyers=(6, 12), k=(1, 2), topology="graph",
                                     edge_density=0.4), 12),
    # README's invitation-IC violation of LDM on a graph, in instance 2
    "seed696179": (GeneratorConfig(seed=696179, buyers=(7, 7), k=(1, 1), topology="graph",
                                   edge_density=0.15), 3),
}
PROPERTIES = ("ir", "invite-ic", "value-ic", "child-monotonicity")
REFERENCE = (ref.check_ir, ref.check_invitation_ic, ref.check_value_ic,
             ref.check_child_monotonicity)


def answer(call):
    """`call()`, or the type and message of the exception it raises."""
    try:
        return call()
    except (MuTooSmall, SearchBudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


def graphs(stream):
    config, count = STREAMS[stream]
    for profile in instance_stream(config, count):
        market = compute_market(profile)
        if any(profile.reports[i].invited != market.children[i] for i in market.valid):
            yield profile, market


def mechanisms_of(name, profile, market):
    """The mechanisms run on `profile`: LDM at every mu from one below the
    truthful market's `min_valid_mu` to `robust_mu`, the others once."""
    if name != "ldm":
        return [(None, {"dna-mu": dna_mu_mechanism, "vcg-l1": vcg_mechanism}[name]())]
    return [(mu, ldm_mechanism(mu))
            for mu in range(max(min_valid_mu(market) - 1, 0), robust_mu(profile) + 1)]


def reference_reports(mechanism, profile):
    """The reference's report lists, or the error its first check raises."""
    return answer(lambda: [tuple(check(mechanism, profile)) for check in REFERENCE])


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1"])
@pytest.mark.parametrize("stream", STREAMS)
def test_report_lists_match_the_reference(name, stream):
    """Every deviation check's reports, or its raised bound, are the
    reference's, on graphs whose buyers invite others than their children."""
    outcomes = Counter()
    for profile, market in graphs(stream):
        for mu, mechanism in mechanisms_of(name, profile, market):
            found = answer(lambda: [r.reports for r in run_properties(profile, name, PROPERTIES,
                                                                      mu=mu)])
            assert found == reference_reports(mechanism, profile), (profile, mu)
            outcomes[found[0] if isinstance(found, tuple) else
                     "violation" if any(found) else "clean"] += 1
    if name == "ldm":
        assert outcomes["MuTooSmall"] > 0
    if stream == "seed11-dense":
        assert outcomes["SearchBudgetExceeded"] > 0
    if stream == "seed696179":  # LDM's graph violation
        assert outcomes["violation"] == (name == "ldm")


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1"])
def test_each_class_builds_one_market(name, monkeypatch):
    """On a graph that is not its own BFS tree every registered mechanism
    walks every proper subset, and builds one market for the truthful
    instance and one per class of those subsets that is not her full set
    (`ldm_walked_classes`): far fewer than the subsets."""
    built = []
    build = verify.compute_market
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    classes = 0
    for profile, market in graphs("seed302-graph"):
        built.clear()
        assert all(r.ok for r in run_properties(profile, name, PROPERTIES[:3]))
        assert len(built) == 1 + ldm_walked_classes(profile, market)
        classes += len(built) - 1
    # 766 walked subsets
    assert classes == 306


def invitation_charge(market):
    """A black box that reads the raw reports: every valid buyer wins
    nothing and pays one per invitation her report lists, child or not, so
    hiding any invitee pays her."""
    reports = market.profile.reports
    return Outcome(units=dict.fromkeys(market.valid, 0),
                   payments={i: len(reports[i].invited) for i in market.valid})


def test_a_black_box_reading_the_reports_gets_one_fact_per_subset(monkeypatch):
    """Its invitation-IC reports every hidden invitation, as the reference
    does, with one market per proper subset. Declared a tree reader, it
    would share one fact per class and miss the hidden non-children."""
    built = []
    build = verify.compute_market
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    box = MechanismUnderTest("invitation-charge", invitation_charge)
    # the same black box, wrongly declared to read only the tree
    claimed = MechanismUnderTest("invitation-charge", invitation_charge, reads_tree=True)
    subsets = differ = 0
    for profile, market in graphs("seed302-graph"):
        built.clear()
        truth = verify._Truthful(box, profile)
        found = [check(box, profile, truth=truth) for check in
                 (verify.check_ir, verify.check_invitation_ic, verify.check_value_ic)]
        walked = sum(2 ** len(profile.reports[i].invited) - 1 for i in market.valid)
        assert len(built) == 1 + walked
        expected = [ref.check_ir(box, profile), ref.check_invitation_ic(box, profile),
                    ref.check_value_ic(box, profile)]
        assert found == expected
        differ += verify.check_invitation_ic(claimed, profile) != expected[1]
        subsets += walked
    assert subsets == 766 and differ > 0
