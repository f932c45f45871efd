"""IR, invitation-IC and value-IC read one deviation per (buyer, invitation
subset): the deviated market is built once, and the value rerun on it
answers the invitation checks at the buyer's true values. Child
monotonicity reruns the same markets when the instance is its own BFS tree.

`reference_verify` is the oracle: a fresh market and a full run per proper
subset for the invitation table and for child monotonicity, and a second
fresh market per subset for value-IC. Report lists and errors must be
identical.
"""

import gc
import weakref
from collections import Counter

import pytest

from netauction import mechanisms, verify
from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import compute_market
from netauction.mechanisms import Outcome, ValueRerun, inject_dummies, run_vcg_first_layer
from netauction.removed_sets import robust_mu
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, MechanismUnderTest, _tree_profile,
                               check_child_monotonicity, check_invitation_ic, check_ir,
                               check_value_ic, dna_mu_mechanism, integer_value_grid,
                               ldm_mechanism, run_properties, vcg_mechanism)

import reference_verify as ref
from conftest import DATA, counted_reruns, ldm_walked_classes
from test_value_rerun import first_price

STREAMS = (
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                    edge_density=0.15),
)
FIXTURES = ("fig3", "t4", "dna_mu_counterexample")
CHECKS = ("ir", "invite-ic", "value-ic")


def fixture(name):
    return parse_instance((DATA / f"{name}.json").read_text())


def profiles():
    return [*(p for config in STREAMS for p in instance_stream(config, 12)),
            *(fixture(name) for name in FIXTURES)]


def first_price_with_own_rerun():
    """The same black box with a value rerun of its own, which patches the
    market even at the values it already holds."""

    def value_rerun(market, i):
        def rerun(v):
            outcome = first_price(market.with_values(i, v))
            return outcome.units_of(i), outcome.payment_of(i)
        return ValueRerun(rerun)

    return MechanismUnderTest("first-price", first_price, value_rerun)


def grid(instance, i):
    return integer_value_grid(instance, i, cap=24)


def shared_reports(mechanism, profile, order):
    """The three checks on one shared truthful instance, run in `order`."""
    truth = verify._Truthful(mechanism, profile)
    checks = {"ir": lambda: check_ir(mechanism, profile, truth=truth),
              "invite-ic": lambda: check_invitation_ic(mechanism, profile, truth=truth),
              "value-ic": lambda: check_value_ic(mechanism, profile, grid, truth=truth)}
    return {name: checks[name]() for name in order}


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1", "first-price",
                                  "first-price-own-rerun"])
def test_reports_match_the_reference(name):
    found = 0
    for profile in profiles():
        mechanism = {"ldm": lambda: ldm_mechanism(robust_mu(profile)),
                     "dna-mu": dna_mu_mechanism, "vcg-l1": vcg_mechanism,
                     "first-price": lambda: MechanismUnderTest("first-price", first_price),
                     "first-price-own-rerun": first_price_with_own_rerun}[name]()
        expected = {"ir": ref.check_ir(mechanism, profile),
                    "invite-ic": ref.check_invitation_ic(mechanism, profile),
                    "value-ic": ref.check_value_ic(mechanism, profile, grid)}
        for order in (CHECKS, CHECKS[::-1]):
            assert shared_reports(mechanism, profile, order) == expected
        found += sum(map(len, expected.values()))
    # DNA-MU's counterexample and first-price's overbids are found; LDM and
    # first-layer VCG are clean
    assert (found > 0) == (name in ("dna-mu", "first-price", "first-price-own-rerun"))


def test_reports_match_the_reference_with_reserve_dummies():
    profile = inject_dummies(fixture("fig3"), 4)
    for mechanism in (ldm_mechanism(robust_mu(profile)), vcg_mechanism()):
        expected = [ref.check_ir(mechanism, profile), ref.check_invitation_ic(mechanism, profile),
                    ref.check_value_ic(mechanism, profile, grid)]
        assert list(shared_reports(mechanism, profile, CHECKS).values()) == expected


def test_run_properties_matches_the_reference_at_the_default_grid():
    for profile in profiles():
        results = run_properties(profile, "ldm", CHECKS)
        mechanism = ldm_mechanism(robust_mu(profile) if profile.mu is None else profile.mu)
        assert [r.reports for r in results] == [
            tuple(ref.check_ir(mechanism, profile)),
            tuple(ref.check_invitation_ic(mechanism, profile)),
            tuple(ref.check_value_ic(mechanism, profile))]


def counted_set_ups(monkeypatch, runs: list) -> list:
    """Record each LDM value rerun set up (`ldm_value_rerun`) as the number
    of commit walks it started, after checking that it made no LDM run,
    none appended to `runs`, and that every walk is on its market with the
    buyer bidding one more than any first unit for each unit."""
    set_ups, walks = [], []
    set_up, walk = verify.ldm_value_rerun, mechanisms._commit_walk

    def setting_up(market, mu, i):
        before, ran = len(walks), len(runs)
        found = set_up(market, mu, i)
        top = (1 + max(map(market.first_unit, market.valid)),) * market.k
        assert len(runs) == ran
        assert all(walked.values_of(i) == top and walked.children is market.children
                   for walked in walks[before:])
        set_ups.append(len(walks) - before)
        return found

    monkeypatch.setattr(mechanisms, "_commit_walk",
                        lambda market, free_sets: walks.append(market) or walk(market, free_sets))
    monkeypatch.setattr(verify, "ldm_value_rerun", setting_up)
    return set_ups


def test_each_deviated_market_is_built_once_and_ldm_runs_once(monkeypatch):
    """`1 + Γ` markets, Γ the proper reports the checks walk, one per class
    (`ldm_walked_classes`), where building the table and value-IC's reruns
    apart took `1 + 2Γ`; and one LDM run, on the truthful market: each
    value rerun set-up makes one commit walk and no run, on its market at
    the buyer's top bid, and every walked report is answered by its value
    rerun. On an own tree the truthful run reads every rerun it does not
    refuse, so the truthful market is the only one built."""
    built, runs = [], []
    build, run = verify.compute_market, mechanisms.run_ldm_tree
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    monkeypatch.setattr(mechanisms, "run_ldm_tree",
                        lambda market, *args, **kw: runs.append(market) or run(market, *args, **kw))
    set_ups = counted_set_ups(monkeypatch, runs)
    checked = read = deviated = 0
    set_up = {True: 0, False: 0}
    for profile in profiles():
        built.clear()
        runs.clear()
        set_ups.clear()
        assert all(r.ok for r in run_properties(profile, "ldm", CHECKS))
        market = build(profile)
        proper = ldm_walked_classes(profile, market)
        classes = 0 if own_tree(profile) else proper
        assert len(built) == 1 + classes
        assert set(set_ups) <= {1} and len(runs) == 1
        assert [ran.profile is profile for ran in runs].count(True) == 1
        checked += proper
        read += proper if own_tree(profile) else 0
        deviated += classes
        set_up[own_tree(profile)] += len(set_ups)
    # the certificate walks one subset for each own-tree buyer with two or
    # more invitations, and the other instances one report per class, so
    # 58 where every subset walked was 259, and 113 with the certificate
    # alone; 29 of them are on own trees, and the other 29 are the classes
    # of 84 proper subsets. The value rerun of each of those classes is set
    # up, and so are 6 on own trees, of buyers the truthful run refuses
    assert (checked, read, deviated) == (58, 29, 29)
    assert set_up == {True: 6, False: 29}


def test_a_black_box_runs_once_per_market(monkeypatch):
    """DNA-MU has no value rerun of its own. The generic one runs `run` on a
    deviated market itself at the true values, and value-IC's full-set
    baseline is the truthful outcome, so every market the harness builds is
    run exactly once, as is each patched copy the grid runs on."""
    built, runs = [], []
    build, run = verify.compute_market, verify.run_dna_mu
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(build(profile)) or built[-1])
    monkeypatch.setattr(verify, "run_dna_mu", lambda market: runs.append(market) or run(market))
    for profile in profiles():
        built.clear()
        runs.clear()
        shared_reports(dna_mu_mechanism(), profile, CHECKS)
        counts = Counter(map(id, runs))
        assert max(counts.values()) == 1 and all(counts[id(market)] == 1 for market in built)


@pytest.mark.parametrize("prop", CHECKS)
def test_fig4_raises_mu_too_small_where_the_reference_does(monkeypatch, prop):
    """fig4 pins mu = 2, and a shrunk invitation set grows a C^P to 3. Each
    check raises the same error, on the same (buyer, subset), as the
    reference."""
    profile = fixture("fig4")
    mechanism = ldm_mechanism(profile.mu)
    reference = {"ir": ref.check_ir, "invite-ic": ref.check_invitation_ic,
                 "value-ic": ref.check_value_ic}[prop]
    last = {}

    def recording(module):
        build = module.compute_market
        monkeypatch.setattr(module, "compute_market",
                            lambda p: last.__setitem__(module, p.reports) or build(p))

    recording(verify)
    recording(ref)
    with pytest.raises(MuTooSmall) as raised:
        run_properties(profile, "ldm", (prop,))
    with pytest.raises(MuTooSmall) as expected:
        reference(mechanism, profile)
    assert str(raised.value) == str(expected.value) == "mu=2 is below the required bound 3"
    assert last[verify] == last[ref] != profile.reports


@pytest.mark.parametrize("prop", [*CHECKS, "child-monotonicity"])
def test_undersized_mu_raises_where_the_reference_does(prop):
    """At an undersized mu each deviated market can name its own required
    bound, so the order of the deviation walk decides the message. Each
    check must raise the reference's error, or return its reports, alone
    in `run_properties`. Walking the full set before the proper subsets
    changes value-IC's message on four of these instances at mu = 0."""
    reference = {"ir": ref.check_ir, "invite-ic": ref.check_invitation_ic,
                 "value-ic": ref.check_value_ic,
                 "child-monotonicity": ref.check_child_monotonicity}[prop]

    def answer(check):
        try:
            return tuple(check())
        except MuTooSmall as exc:
            return str(exc)

    raised = 0
    for profile in instance_stream(STREAMS[0], 80):
        for mu in (0, 1):
            expected = answer(lambda: reference(ldm_mechanism(mu), profile))
            assert answer(lambda: run_properties(profile, "ldm", (prop,), mu=mu)[0].reports
                          ) == expected
            raised += isinstance(expected, str)
    assert raised >= 40


def invitation_reader(market):
    """Deliberately reads the raw reports: every valid buyer wins nothing and
    is paid one per valid buyer of the market and one per invitation her
    report lists, reachable or not, so her utility falls whenever a
    same-layer buyer deletes a child, and the BFS-tree profile moves it."""
    reports = market.profile.reports
    return Outcome(units=dict.fromkeys(market.valid, 0),
                   payments={i: -len(market.valid) - len(reports[i].invited)
                             for i in market.valid})


def child_monotonicity_profiles():
    """The slices and fixtures above, fig4 (at robust mu, below) and the
    seed-370 instance whose LDM child-monotonicity report the CLI prints."""
    seed_370 = GeneratorConfig(seed=370, buyers=(8, 8), k=(3, 3))
    return [*profiles(), fixture("fig4"), *instance_stream(seed_370, 1)]


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1", "first-price",
                                  "invitation-reader"])
def test_child_monotonicity_matches_the_reference(name):
    found = 0
    for profile in child_monotonicity_profiles():
        mechanism = {"ldm": lambda: ldm_mechanism(robust_mu(profile)),
                     "dna-mu": dna_mu_mechanism, "vcg-l1": vcg_mechanism,
                     "first-price": lambda: MechanismUnderTest("first-price", first_price),
                     "invitation-reader": lambda: MechanismUnderTest("invitation-reader",
                                                                     invitation_reader),
                     }[name]()
        expected = ref.check_child_monotonicity(mechanism, profile)
        assert check_child_monotonicity(mechanism, profile) == expected
        # after the invitation table has built and answered every deviation
        # (fig4's g invites 7 buyers, past the exhaustive bound)
        truth = verify._Truthful(mechanism, profile)
        if all(len(rep.invited) <= MAX_INVITES_EXHAUSTIVE for rep in profile.reports.values()):
            check_invitation_ic(mechanism, profile, truth=truth)
        assert check_child_monotonicity(mechanism, profile, truth=truth) == expected
        found += len(expected)
    # LDM's literal premise gap (seed 370) and every deletion under the
    # invitation reader are reported
    assert (found > 0) == (name in ("ldm", "invitation-reader"))


def own_tree(profile):
    return _tree_profile(profile, compute_market(profile)).reports == profile.reports


def test_child_monotonicity_reruns_the_shared_markets(monkeypatch):
    """With child monotonicity added to the three checks, an instance that is
    its own BFS tree still builds one market and runs LDM once, on the
    truthful market: the run answers every proper report the checks walk
    (`ldm_walked_classes`), and the one deletion of each buyer j with
    children and same-layer observers, the empty set, as one child has no
    other proper subset, and LDM certifies a buyer with more. Any other
    instance builds `Γ` deviated markets besides, Γ the proper reports the
    checks walk, one per class (`ldm_walked_classes`), and its tree
    profile's market, whose one run
    answers those deletions. Each value rerun set-up makes one commit walk
    and no run, on its market at the buyer's top bid, and child
    monotonicity sets up none of its own."""
    built, runs, deletions = [], [], []
    build, run = verify.compute_market, mechanisms.run_ldm_tree
    read = verify.ldm_run_peer_outcomes
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    monkeypatch.setattr(mechanisms, "run_ldm_tree",
                        lambda market, *args, **kw: runs.append(market) or run(market, *args, **kw))
    monkeypatch.setattr(verify, "ldm_run_peer_outcomes",
                        lambda outcome, j, kept: deletions.append(j) or read(outcome, j, kept))
    set_ups = counted_set_ups(monkeypatch, runs)
    counted = {True: 0, False: 0}
    deviated = 0
    set_up = {True: 0, False: 0}
    for profile in profiles():
        built.clear()
        runs.clear()
        deletions.clear()
        set_ups.clear()
        run_properties(profile, "ldm", (*CHECKS, "child-monotonicity"))
        tree = build(profile)
        shrunk = sorted(j for j in tree.valid
                        if tree.children[j] and len(tree.layers[tree.layer_of[j] - 1]) > 1)
        shared = own_tree(profile)
        classes = 0 if shared else ldm_walked_classes(profile, tree)
        assert len(built) == 1 + (0 if shared else classes + 1)
        assert set(set_ups) <= {1}
        assert len(runs) == 1 + (0 if shared else 1)
        assert deletions == shrunk
        counted[shared] += 1
        deviated += classes
        set_up[shared] += len(set_ups)
    assert counted[True] >= 15 and counted[False] >= 5
    # 84 proper subsets on the other instances, 29 classes; the same 35
    # set-ups as the three checks alone make
    assert deviated == 29
    assert set_up == {True: 6, False: 29}


@pytest.mark.parametrize("name", ["ldm", "dna-mu"])
def test_either_order_of_the_checks_shares_the_same_work(monkeypatch, name):
    """Whichever of the four deviation checks comes first builds the
    markets, records and runs the others read: the checks run in either
    order build the same markets, make the same runs and value reruns,
    and return the same reports."""
    calls = Counter()

    def counting(module, attr):
        wrapped = getattr(module, attr)
        monkeypatch.setattr(module, attr,
                            lambda *args, **kw: calls.update((attr,)) or wrapped(*args, **kw))

    counting(verify, "compute_market")
    counting(verify, "run_dna_mu")
    counting(verify, "ldm_value_rerun")
    counting(mechanisms, "run_ldm_tree")
    checks = (*CHECKS, "child-monotonicity")
    for profile in profiles():
        answers = []
        for order in (checks, checks[::-1]):
            calls.clear()
            results = {r.prop: r.reports for r in run_properties(profile, name, order)}
            answers.append((dict(calls), results))
        assert answers[0] == answers[1]
        assert answers[0][0]["compute_market"] >= 1
        assert answers[0][0]["run_ldm_tree" if name == "ldm" else "run_dna_mu"] >= 1


def test_child_monotonicity_builds_only_the_certificates_reruns(monkeypatch):
    """Child monotonicity reads each deletion through
    `_Truthful.outcome_of`, which builds no value rerun. Alone, under LDM,
    it builds only the reruns of LDM's certificate on the BFS tree, the full
    and empty sets of each buyer with two or more children, once some buyer
    with children and a same-layer observer lists her subsets. Both are
    read from the run on the BFS tree, which is an own tree."""
    reruns = counted_reruns(monkeypatch)
    graphs = instance_stream(STREAMS[1], 40)
    deletions = 0
    paths = Counter()
    for profile in [*child_monotonicity_profiles(), *graphs]:
        reruns.clear()
        mu = robust_mu(profile)
        truth = verify._Truthful(ldm_mechanism(mu), profile)
        check_child_monotonicity(truth.mechanism, profile, truth=truth)
        tree = truth.tree.market
        read = sum(1 for j in tree.valid
                   if tree.children[j] and len(tree.layers[tree.layer_of[j] - 1]) > 1)
        certified = [i for i in tree.valid if len(tree.children[i]) >= 2]
        assert sorted(i for _path, _market, i, _rerun in reruns) == (
            sorted(certified * 2) if read else [])
        for path, market, _i, _rerun in reruns:
            paths[path, market is tree] += 1
        deletions += read
    # buyers with children and a same-layer observer, each read at least once
    assert deletions > 80
    # a buyer with children is in layer 1 or in her parent's C^P, so the run
    # answers her full and empty sets alike, and nothing is set up
    assert paths == {("run", True): 68}


@pytest.mark.parametrize("order", [(*CHECKS, "child-monotonicity"),
                                   ("child-monotonicity", *CHECKS[::-1]),
                                   ("child-monotonicity",)],
                         ids=["last", "first", "alone"])
def test_a_black_box_runs_once_per_market_with_child_monotonicity(monkeypatch, order):
    """Child monotonicity reads a black box's outcome on a deletion's market
    from the run that answers the invitation checks there, or makes that
    run for them: in any order, every market is run at most once."""
    built, runs = [], []
    build, run = verify.compute_market, verify.run_dna_mu
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(build(profile)) or built[-1])
    monkeypatch.setattr(verify, "run_dna_mu", lambda market: runs.append(market) or run(market))
    shared = 0
    for profile in profiles():
        built.clear()
        runs.clear()
        run_properties(profile, "dna-mu", order)
        counts = Counter(map(id, runs))
        assert max(counts.values()) == 1 and all(counts[id(market)] <= 1 for market in built)
        shared += len(runs)
    assert shared > 100


def test_a_shared_truth_goes_with_its_last_reference():
    """`_Truthful.tree` keeps no reference from a `_Truthful` to itself, so a
    shared truth, own BFS tree or not, is freed with its last reference,
    and the markets and reruns it holds do not wait for the garbage
    collector; nor does the truthful run's trace, whose layer pools the
    reruns read."""
    kinds = Counter()
    gc.disable()
    try:
        for profile in profiles():
            truth = verify._Truthful(ldm_mechanism(robust_mu(profile)), profile)
            check_ir(truth.mechanism, profile, truth=truth)
            check_child_monotonicity(truth.mechanism, profile, truth=truth)
            kinds[truth.tree is truth] += 1
            trace = truth.outcome.trace
            freed = [weakref.ref(truth), weakref.ref(trace),
                     *(weakref.ref(pool) for _free, pool in trace.pools)]
            del truth, trace
            assert [ref() for ref in freed] == [None] * len(freed)
    finally:
        gc.enable()
    assert kinds[True] >= 15 and kinds[False] >= 5


def test_generic_rerun_at_the_held_values_runs_on_the_market_itself():
    seen = []
    mechanism = MechanismUnderTest(
        "vcg-l1", lambda market: seen.append(market) or run_vcg_first_layer(market))
    market = compute_market(fixture("t4"))
    for i in sorted(market.valid):
        seen.clear()
        rerun = mechanism.rerun_on(market, i).answer
        held = market.values_of(i)
        assert rerun(held) == rerun(tuple(held))
        rerun((0,) * market.k)
        assert seen[0] is seen[1] is market and seen[2] is not market
        assert seen[2].profile.reports[i].values == (0,) * market.k


def test_a_black_box_is_never_certified(monkeypatch):
    """A mechanism with neither a value rerun nor an invitation menu of its
    own has no certificate: every deviation's rerun has no menu, and
    invitation-IC lists the reports of every valid buyer with invitations."""
    black_box = MechanismUnderTest("first-price", first_price)
    listed, subsets = [], verify._Truthful.subsets
    monkeypatch.setattr(verify._Truthful, "subsets",
                        lambda self, i: listed.append(i) or subsets(self, i))
    deviations = 0
    for profile in profiles():
        listed.clear()
        truth = verify._Truthful(black_box, profile)
        check_invitation_ic(black_box, profile, truth=truth)
        assert sorted(listed) == sorted(i for i in truth.market.valid
                                        if profile.reports[i].invited)
        for i in truth.market.valid:
            for sub in subsets(truth, i):
                assert truth.rerun(i, sub).menu is None
                deviations += 1
    assert deviations > 300
