"""LDM's invitation certificate on instances that are their own BFS tree.

`verify._ldm_invitation_menu` gives a buyer with two or more invitations the
menu of her full set's value rerun joined with her empty set's. When it
certifies her full report, IR, invitation-IC, value-IC and child
monotonicity walk only her empty and full sets (notes/decisions.md, "LDM's
invitation certificate on own trees"). `reference_verify` enumerates every
subset and is the oracle: every report list must be identical. Where a
buyer has 7 or 8 invitations, past the exhaustive bound, the reference runs
with its bound raised to 8.
"""

import dataclasses
import random

import pytest

from netauction import verify
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.mechanisms import Outcome, ValueRerun, run_ldm
from netauction.removed_sets import robust_mu
from netauction.verify import (PROPERTY_NAMES, MechanismUnderTest, _Truthful,
                               check_invitation_ic, dna_mu_mechanism, ldm_mechanism,
                               run_properties, vcg_mechanism)

import reference_verify as ref
from conftest import DATA, counted_reruns, make_profile, outside_parent_removed_set
from test_deep_layers import combs
from test_value_rerun import first_price

REFERENCE = {"ir": ref.check_ir, "invite-ic": ref.check_invitation_ic,
             "value-ic": ref.check_value_ic, "child-monotonicity": ref.check_child_monotonicity}
CRITERION_3 = (
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                    edge_density=0.15),
)
WIDE = GeneratorConfig(seed=7, buyers=(8, 12), k=(1, 4))
# its instance 18 has a buyer with 7 invitations
SEED_9 = GeneratorConfig(seed=9, buyers=(30, 30), k=(1, 3))


def fixture(name):
    return parse_instance((DATA / f"{name}.json").read_text())


def broom(children, k, seed):
    """Buyer 0 in layer 1 with `children` children, the first two of them
    inviting two leaves each, beside a childless layer-1 buyer; values
    drawn from `seed`."""
    rng = random.Random(seed)
    ids = range(1, children + 1)
    invited = {0: ids, 1: [children + 1, children + 2], 2: [children + 3, children + 4]}
    buyers = {i: (sorted((rng.randint(0, 9) for _ in range(k)), reverse=True), invited.get(i, ()))
              for i in range(children + 6)}
    return make_profile(k, {0, children + 5}, buyers)


def brooms():
    return [broom(children, k, seed)
            for children in (7, 8) for k in (1, 2, 3) for seed in range(4)]


def reference_reports(mechanism, profile):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ref, "MAX_INVITES_EXHAUSTIVE", 8)
        return [tuple(check(mechanism, profile)) for check in REFERENCE.values()]


def pinned(profile):
    return robust_mu(profile) if profile.mu is None else profile.mu


@pytest.mark.parametrize("source", ["criterion-3", "fixtures-and-combs", "wide-trees",
                                    "past-the-bound"])
def test_every_report_list_is_the_full_enumerations(source):
    profiles = {
        "criterion-3": lambda: [p for config in CRITERION_3 for p in instance_stream(config, 500)],
        "fixtures-and-combs": lambda: [fixture("fig3"), fixture("t4"),
                                       *(p for k in (1, 2, 3) for p in combs(k))],
        "wide-trees": lambda: list(instance_stream(WIDE, 150)),
        "past-the-bound": lambda: [*instance_stream(SEED_9, 20), *brooms()],
    }[source]()
    reports = certified = 0
    for profile in profiles:
        mechanism = ldm_mechanism(pinned(profile))
        found = [r.reports for r in run_properties(profile, "ldm", tuple(REFERENCE))]
        assert found == reference_reports(mechanism, profile), profile
        reports += sum(map(len, found))
        certified += len(_Truthful(mechanism, profile).certified)
    # the reports are child-monotonicity premise gaps, seed 301's at index
    # 186 among them
    assert (certified, reports) == {"criterion-3": (356, 1), "fixtures-and-combs": (111, 0),
                                    "wide-trees": (292, 1), "past-the-bound": (207, 3)}[source]


def test_every_buyer_with_two_invitations_on_an_own_tree_is_certified():
    """LDM is invitation-IC on its own trees, so its certificate fires for
    every buyer it can cover, and for none elsewhere."""
    for config in (*CRITERION_3, WIDE):
        for profile in instance_stream(config, 100):
            truth = _Truthful(ldm_mechanism(pinned(profile)), profile)
            coverable = {i for i in truth.market.valid
                         if len(profile.reports[i].invited) >= 2 and truth.tree is truth}
            assert truth.certified == coverable


def subsidised(mu):
    """LDM paying each childless buyer 1 more, in `run` and in the value
    rerun alike, with LDM's certificate: hiding every child gains 1, which
    only the empty set's menu shows."""
    ldm = ldm_mechanism(mu)

    def run(market):
        outcome = run_ldm(market, mu)
        payments = {i: p - (not market.children[i]) for i, p in outcome.payments.items()}
        return Outcome(outcome.units, payments)

    def value_rerun(market, i):
        rerun = ldm.value_rerun(market, i)
        if market.children[i]:
            return rerun
        return ValueRerun(lambda v: (lambda x, p: (x, p - 1))(*rerun.answer(v)),
                          tuple((x, p - 1) for x, p in rerun.menu))

    return dataclasses.replace(ldm, name="ldm-subsidy", run=run, value_rerun=value_rerun)


def test_a_certificate_without_the_empty_set_would_miss_violations():
    """Under the subsidy, hiding every child is an invitation-IC violation
    wherever LDM's own utility does not fall by more than 1. The
    certificate's empty-set menu refuses to certify those buyers, so the
    reports match the reference; a menu of the full set alone certifies
    them, and the reports go missing."""
    def full_set_only(truth):
        return lambda i: truth.rerun(i, truth.instance.reports[i].invited).menu

    found = missed = 0
    for profile in instance_stream(CRITERION_3[0], 200):
        mechanism = subsidised(robust_mu(profile))
        expected = ref.check_invitation_ic(mechanism, profile)
        assert check_invitation_ic(mechanism, profile) == expected
        mutated = dataclasses.replace(mechanism, invitation_menu=full_set_only)
        missed += check_invitation_ic(mutated, profile) != expected
        found += len(expected)
    assert found > 50 and missed > 20


def test_only_a_declared_ldm_mu_reads_the_truthful_run(monkeypatch):
    """The truthful run answers the full sets' reruns only when the record
    declares `ldm_mu` and the run's trace is LDM's at that mu: a record
    that declares no mu, declares another mu than its run's, or runs a
    mechanism whose outcome carries no LDM trace keeps the per-buyer
    set-up. Every report list is the reference's."""
    mu = 2
    ldm = ldm_mechanism(mu)
    declared = {
        "own": ldm,
        "undeclared": dataclasses.replace(ldm, ldm_mu=None),
        "other-mu": dataclasses.replace(ldm, ldm_mu=mu + 1),
        "subsidy": subsidised(mu),
    }
    assert {name: m.ldm_mu for name, m in declared.items()} == {
        "own": mu, "undeclared": None, "other-mu": mu + 1, "subsidy": mu}
    reruns = counted_reruns(monkeypatch)
    profile = fixture("fig3")
    for name, mechanism in declared.items():
        reruns.clear()
        found = check_invitation_ic(mechanism, profile)
        paths = {path for path, market, _i, _rerun in reruns if market.profile is profile}
        assert paths == ({"run"} if name == "own" else {"set-up"}), name
        assert found == ref.check_invitation_ic(mechanism, profile), name


@pytest.mark.parametrize("mechanism", [dna_mu_mechanism(), vcg_mechanism(),
                                       MechanismUnderTest("first-price", first_price)],
                         ids=["dna-mu", "vcg-l1", "black-box"])
def test_other_mechanisms_walk_every_class(mechanism):
    """Only LDM prunes by a certificate: DNA-MU's menu still certifies
    buyers, for invitation-IC alone, and every other buyer list is the
    enumeration restricted to the class representatives: every subset for
    the black box, one per kept child set for DNA-MU, the full set alone
    for first-layer VCG."""
    certified = walked = 0
    for profile in (p for config in CRITERION_3 for p in instance_stream(config, 100)):
        truth = _Truthful(mechanism, profile)
        certified += len(truth.certified)
        for i in truth.market.valid:
            assert truth.subsets(i) == [
                sub for sub in ref._subsets(profile.reports[i].invited)
                if ref.is_representative(mechanism, truth.market, i, sub)]
            walked += len(truth.subsets(i)) - 1
    assert (certified > 100) == (mechanism.name == "dna-mu")
    # the streams' 1,208 proper subsets fall into 748 classes
    assert walked == {"dna-mu": 748, "vcg-l1": 0, "first-price": 1208}[mechanism.name]


def test_work_on_a_fixed_own_tree(monkeypatch):
    """Buyer 0 invites 1..5; 1 invites 6 and 7, 2 invites 8; 9 sits in
    layer 1 beside 0. Under every property, a buyer with two or more
    invitations reruns her full and empty sets' values; 2, whose one proper
    subset is empty, reruns both sets too; a buyer who invites nobody
    reruns her values once, for value-IC; child monotonicity deletes the
    children of 0, 1 and 2, the parents with same-layer observers, once
    each. The truthful run answers all of it, on the one market built,
    but 5's rerun: mu = 2 leaves a quota of 2 in C^W_0, which 3 and 4
    outbid her for, so 5 is free in layer 1 and her rerun is set up."""
    profile = make_profile(2, {0, 9}, {
        0: ((6, 2), range(1, 6)), 1: ((5, 1), (6, 7)), 2: ((4, 4), (8,)),
        **{j: ((10 - j, 1), ()) for j in range(3, 10)},
    })
    built, runs, deletions = [], [], []
    build, run = verify.compute_market, verify.run_ldm
    read = verify.ldm_run_peer_outcomes
    reruns = counted_reruns(monkeypatch)
    monkeypatch.setattr(verify, "compute_market", lambda p: built.append(p) or build(p))
    monkeypatch.setattr(verify, "run_ldm",
                        lambda market, mu: runs.append(market) or run(market, mu))
    monkeypatch.setattr(verify, "ldm_run_peer_outcomes",
                        lambda outcome, j, kept: deletions.append((j, kept)) or read(outcome, j,
                                                                                    kept))
    results = run_properties(profile, "ldm", PROPERTY_NAMES)
    assert [r.prop for r in results if not r.ok] == []
    assert built == [profile]
    assert sorted(i for _path, _market, i, _rerun in reruns) == [0, 0, 1, 1, 2, 2, *range(3, 10)]
    by_path = {}
    for path, market, i, _rerun in sorted(reruns, key=lambda rerun: rerun[2]):
        by_path.setdefault((path, market.profile is profile), []).append(i)
    assert by_path == {("set-up", True): [5],
                       ("run", True): [0, 0, 1, 1, 2, 2, 3, 4, 6, 7, 8, 9]}
    assert outside_parent_removed_set(runs[0], 2, 5)
    # the truthful run, which answers one deletion per parent with observers
    assert runs[0].profile is profile and len(runs) == 1
    assert deletions == [(j, frozenset()) for j in (0, 1, 2)]
