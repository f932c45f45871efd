"""The walk is the definition of a deviation class: `_Truthful.subsets`
lists one report per class of the reports a mechanism cannot tell apart,
each proper subset of the invitees its declared read set lets it notice
(`MechanismUnderTest.reads`) with every other invitee kept
(notes/decisions.md, "A deviation class is walked once"). A tree reader
notices her BFS children, first-layer VCG none, a black box, which may
read the raw reports, every invitee.

`reference_verify` is the oracle: a fresh market and a full run per
subset, with its exhaustive bound raised to 8 where it refuses a buyer the
walk does not. On graphs, where a buyer invites others than her children,
every verdict must be the reference's, and every report list the
reference's restricted to the class representatives.
"""

from collections import Counter
from dataclasses import replace

import pytest

from netauction import verify
from netauction.errors import MuTooSmall, SearchBudgetExceeded
from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import compute_market
from netauction.mechanisms import Outcome, run_vcg_first_layer
from netauction.removed_sets import min_valid_mu, robust_mu
from netauction.verify import (MechanismUnderTest, dna_mu_mechanism, ldm_mechanism,
                               run_properties, vcg_mechanism)

import reference_verify as ref
from conftest import ldm_walked_classes

STREAMS = {
    # criterion 3's graph stream
    "seed302-graph": (GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                                      topology="graph", edge_density=0.15), 100),
    # dense graphs, where most invitees are not children; two of these
    # instances hold a valid buyer with more than 6 invitations, and none
    # one with more than 6 children
    "seed11-dense": (GeneratorConfig(seed=11, buyers=(6, 12), k=(1, 2), topology="graph",
                                     edge_density=0.4), 12),
    # README's invitation-IC violation of LDM on a graph, in instance 2
    "seed696179": (GeneratorConfig(seed=696179, buyers=(7, 7), k=(1, 1), topology="graph",
                                   edge_density=0.15), 3),
}
# criterion 3's tree stream
TREES = GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree")
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


def reference_reports(mechanism, profile, bound=6):
    """The reference's report lists restricted to the class representatives,
    or the error its first check raises, at an exhaustive bound of `bound`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ref, "MAX_INVITES_EXHAUSTIVE", bound)
        return answer(lambda: [tuple(ref.representatives(mechanism, profile,
                                                         check(mechanism, profile)))
                               for check in REFERENCE])


def oracle(mechanism, profile):
    """`reference_reports`, at a bound of 8 where it refuses at 6."""
    expected = reference_reports(mechanism, profile)
    if isinstance(expected, tuple) and expected[0] == "SearchBudgetExceeded":
        return reference_reports(mechanism, profile, 8), True
    return expected, False


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1"])
@pytest.mark.parametrize("stream", STREAMS)
def test_report_lists_match_the_reference(name, stream):
    """Every deviation check's reports, or its raised error, are the
    reference's restricted to the class representatives, on graphs whose
    buyers invite others than their children."""
    outcomes = Counter()
    for profile, market in graphs(stream):
        for mu, mechanism in mechanisms_of(name, profile, market):
            found = answer(lambda: [r.reports for r in run_properties(profile, name, PROPERTIES,
                                                                      mu=mu)])
            expected, widened = oracle(mechanism, profile)
            assert found == expected, (profile, mu)
            outcomes["widened"] += widened
            outcomes[found[0] if isinstance(found, tuple) else
                     "violation" if any(found) else "clean"] += 1
    if name == "ldm":
        assert outcomes["MuTooSmall"] > 0
    # the walk no longer refuses a buyer with more than 6 invitations but at
    # most 6 that it notices
    assert outcomes["SearchBudgetExceeded"] == 0
    assert (outcomes["widened"] > 0) == (stream == "seed11-dense")
    if stream == "seed696179":  # LDM's graph violation
        assert outcomes["violation"] == (name == "ldm")


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1"])
def test_each_class_builds_one_market(name, monkeypatch):
    """On a graph that is not its own BFS tree a tree reader walks one
    report per class, and builds one market for the truthful instance and
    one per walked report (`ldm_walked_classes`): far fewer than the
    subsets. First-layer VCG walks only the full set, so it builds only the
    truthful market."""
    built = []
    build = verify.compute_market
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    classes = 0
    for profile, market in graphs("seed302-graph"):
        built.clear()
        assert all(r.ok for r in run_properties(profile, name, PROPERTIES[:3]))
        assert len(built) == 1 + (0 if name == "vcg-l1" else ldm_walked_classes(profile, market))
        classes += len(built) - 1
    # the 306 classes of 766 proper subsets
    assert classes == (0 if name == "vcg-l1" else 306)


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
    would walk one report per class, keeping the non-children, and miss
    the hidden non-children."""
    built = []
    build = verify.compute_market
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    box = MechanismUnderTest("invitation-charge", invitation_charge)
    # the same black box, wrongly declared to read only the tree
    claimed = MechanismUnderTest("invitation-charge", invitation_charge, reads="tree")
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
    # each of the 59 graphs has an invitee who is not a child, whose hiding
    # the claimed walk never lists
    assert subsets == 766 and differ == 59


def vcg_two_layers(market):
    """First-layer VCG over layers 1 and 2, as if the seller invited every
    layer-2 buyer too: hiding a child can remove a competitor."""
    if len(market.layers) < 2:
        return run_vcg_first_layer(market)
    seller = market.layers[0] | market.layers[1]
    return run_vcg_first_layer(compute_market(replace(market.profile, seller_neighbors=seller)))


def test_a_vcg_reading_layer_two_declared_layer_one_misses_violations():
    """Declared to read only layer 1, the two-layer VCG walks only each
    buyer's full set, so its invitation-IC is empty; the reference's full
    enumeration, and the same run declared a black box, report the hidden
    competitors. The reference restricted to the class representatives is
    the walk's empty list."""
    claimed = MechanismUnderTest("vcg-two-layers", vcg_two_layers, reads="layer 1")
    box = MechanismUnderTest("vcg-two-layers", vcg_two_layers)
    missed = 0
    for profile in instance_stream(TREES, 100):
        expected = ref.check_invitation_ic(box, profile)
        assert verify.check_invitation_ic(box, profile) == expected
        assert verify.check_invitation_ic(claimed, profile) == []
        assert ref.representatives(claimed, profile, expected) == []
        missed += bool(expected)
    assert missed == 60
