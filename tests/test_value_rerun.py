"""LDM's value-deviation path against the rerun it replaced and the black box.

`ldm_value_rerun(tree, mu, i)(v)` must equal i's (units, payment) in
`run_ldm_tree(tree.with_values(i, v), mu)` exactly, for every buyer, every
invitation subset the harness enumerates and every grid vector; so must
`reference_ldm.ldm_value_rerun`, the layer-replaying rerun it replaced. Its
`menu` must hold every outcome of the full grid, which `check_value_ic`
falls back to where the menu does not certify.
"""

import dataclasses
import itertools
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction import mechanisms
from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import ReportedType, compute_market, cumulative_value, is_dummy
from netauction.mechanisms import (Outcome, ValueRerun, inject_dummies, ldm_run_value_rerun,
                                   ldm_value_rerun, run_dna_mu, run_ldm_tree,
                                   run_vcg_first_layer)
from netauction.removed_sets import min_valid_mu, potential_inviters, removed_set_of, robust_mu
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, MechanismUnderTest, check_value_ic,
                               dna_mu_mechanism, integer_value_grid, ldm_mechanism,
                               run_properties, vcg_mechanism)

import reference_ldm as ref
from conftest import DATA, counted_reruns, make_profile, outside_parent_removed_set

STREAMS = (
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                    topology="graph", edge_density=0.15),
)
# more units per buyer and a wider value range than the criterion-3 streams;
# wide two-layer trees, so that some runs reach layer 2 with units left
WIDE_VALUES = GeneratorConfig(seed=303, buyers=(5, 8), k=(1, 5), v_max=30, topology="tree",
                              max_depth=2)
FIGURES = ("fig3", "fig4", "t4")


def black_box(tree, mu, i, v):
    out = run_ldm_tree(tree.with_values(i, v), mu)
    return out.units_of(i), out.payment_of(i)


def subset_trees(profile, i):
    """i's BFS tree for each invitation subset; only the full set past the bound."""
    rep = profile.reports[i]
    elems = sorted(rep.invited)
    if len(elems) > MAX_INVITES_EXHAUSTIVE:
        subsets = [elems]
    else:
        subsets = [c for r in range(len(elems) + 1) for c in itertools.combinations(elems, r)]
    for sub in subsets:
        base = profile.with_report(i, ReportedType(rep.values, frozenset(sub)))
        yield compute_market(base)


def assert_reruns_match(profile, mus=None, vectors_of=None):
    """Every (buyer, subset, vector) at each mu, against the replaced rerun and
    the black box; returns the reruns compared."""
    if mus is None:
        mus = (robust_mu(profile), robust_mu(profile) + 2)
    if vectors_of is None:
        vectors_of = lambda i: integer_value_grid(profile, i)
    compared = 0
    for mu in mus:
        for i in sorted(compute_market(profile).valid):
            vectors = [profile.reports[i].values] + list(vectors_of(i))
            for tree in subset_trees(profile, i):
                rerun = ldm_value_rerun(tree, mu, i).answer
                replayed = ref.ldm_value_rerun(tree, mu, i).answer
                for v in vectors:
                    expected = black_box(tree, mu, i, v)
                    assert rerun(v) == replayed(v) == expected, (i, mu, v)
                    compared += 1
    return compared


def figure(name):
    return parse_instance((DATA / f"{name}.json").read_text())


@pytest.mark.parametrize("config", STREAMS, ids=["seed301-tree", "seed302-graph"])
def test_rerun_matches_black_box_on_criterion_streams(config):
    compared = sum(assert_reruns_match(p) for p in instance_stream(config, 25))
    assert compared > 10_000


def test_rerun_matches_black_box_on_wide_values():
    # k up to 5 with values up to 30: the grid is strided to 128 vectors
    compared = sum(assert_reruns_match(p) for p in instance_stream(WIDE_VALUES, 15))
    assert compared > 5_000


@pytest.mark.parametrize("name", FIGURES)
def test_rerun_matches_black_box_on_figures(name):
    assert assert_reruns_match(figure(name))


def test_rerun_matches_black_box_with_reserve_dummies():
    profile = inject_dummies(figure("fig3"), 4)
    assert assert_reruns_match(profile, mus=(robust_mu(profile),))


def work_of_rerun(monkeypatch, tree, mu, i, vectors):
    """Check each vector against the black box. Returns the LDM runs made,
    the commit walks started and the welfare pools built at set-up, and the
    same triple for each vector."""
    expected = [black_box(tree, mu, i, v) for v in vectors]
    work = [[0, 0, 0]]

    def counting(fn, slot):
        def counted(*args):
            work[-1][slot] += 1
            return fn(*args)
        return counted

    with monkeypatch.context() as patch:
        # the walk builds each layer's pool through the patched name too
        patch.setattr(mechanisms, "run_ldm_tree", counting(mechanisms.run_ldm_tree, 0))
        patch.setattr(mechanisms, "_commit_walk", counting(mechanisms._commit_walk, 1))
        patch.setattr(mechanisms, "WelfarePool", counting(mechanisms.WelfarePool, 2))
        rerun = ldm_value_rerun(tree, mu, i).answer
        for v, want in zip(vectors, expected):
            work.append([0, 0, 0])
            assert rerun(v) == want, (i, v)
    work = [tuple(pair) for pair in work]
    return work[0], work[1:]


def tree_of(profile):
    return compute_market(profile)


def test_supply_gone_by_layer_l_minus_2_skips_every_vector(monkeypatch):
    # k=1: buyer 0 takes the unit in layer 1 (her child 1 is in C^P_0 and 2
    # sits in layer 3, so both are removed), so buyer 2 in layer 3 gets
    # nothing whatever she reports: the set-up's one walk, which runs no
    # LDM, stops at layer 1
    tree = tree_of(make_profile(1, {0}, {0: ((5,), [1]), 1: ((3,), [2]), 2: ((1,), [])}))
    vectors = [(0,), (1,), (50,)]
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 2, vectors)
    assert setup == (0, 1, 1) and per_vector == [(0, 0, 0)] * 3
    assert [ldm_value_rerun(tree, 1, 2).answer(v) for v in vectors] == [(0, 0)] * 3


def test_supply_gone_at_layer_l_minus_1_replays_one_layer(monkeypatch):
    # k=1, mu=1: buyer 0's C^W (quota 1) removes 2, so 3 outbids 0 in layer 1
    # and 0 commits nothing; layer 2 then sells the unit to 2, before buyer
    # 4 in layer 3 (removed from layer 2 as C^W_1) is reached. Layer 2 is
    # solved once, in the set-up's one walk, not per vector.
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4]), 2: ((6,), []), 3: ((5,), []), 4: ((2,), []),
    })
    tree = tree_of(profile)
    assert potential_inviters(tree, 0) == {1}
    assert run_ldm_tree(tree, 1).units == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    vectors = [(0,), (2,), (9,)]
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 4, vectors)
    assert setup == (0, 1, 2) and per_vector == [(0, 0, 0)] * 3
    assert [ldm_value_rerun(tree, 1, 4).answer(v) for v in vectors] == [(0, 0)] * 3


def test_value_decides_whether_layer_l_minus_1_sells_out(monkeypatch):
    # k=1, mu=1. Layer 1: 3 outbids 0, so 0 commits nothing. Buyer 4 sits in
    # layer 3 under 1, whose C^W keeps her two highest children out of layer
    # 2. Truthful, 4 is among them and 6 (7) outbids every layer-2 member, so
    # layer 2 commits nothing and 4 wins in layer 3. Reporting 0 puts 4
    # outside C^W_1; then 2 (6) is the top bid of layer 2 and takes the unit.
    # The rerun's one walk solves layer 2 once, with 4 in C^W_1, and layer 3,
    # and answers (0, 0) for every vector that leaves her out of it.
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4, 5, 6]), 2: ((6,), []), 3: ((5,), []),
        4: ((9,), []), 5: ((8,), []), 6: ((7,), []),
    })
    tree = tree_of(profile)
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 4, [(9,), (0,)])
    assert setup == (0, 1, 3) and per_vector == [(0, 0, 0)] * 2
    rerun = ldm_value_rerun(tree, 1, 4).answer
    assert rerun((9,))[0] == 1 and rerun((0,)) == (0, 0)
    assert run_ldm_tree(tree.with_values(4, (0,)), 1).trace.layers[1].k_remain_after == 0


def test_rerun_solves_at_most_layers_l_minus_1_and_l(monkeypatch):
    # no vector runs LDM or builds a pool: the set-up is one commit walk and
    # no LDM run, which builds a pool for each of layers 1..L, fewer only
    # when it sells out before L, and then every report gets (0, 0)
    for profile in instance_stream(STREAMS[0], 40):
        tree = tree_of(profile)
        mu = robust_mu(profile)
        for i in sorted(tree.valid):
            vectors = integer_value_grid(profile, i, cap=8)
            (runs, walks, pools), per_vector = work_of_rerun(monkeypatch, tree, mu, i, vectors)
            layer = tree.layer_of[i]
            assert runs == 0 and walks == 1 and pools <= layer
            assert pools == layer or ldm_value_rerun(tree, mu, i).menu == ((0, 0),)
            assert set(per_vector) == {(0, 0, 0)}


def assert_matches_on(profile, mu, i, vectors):
    tree = tree_of(profile)
    rerun = ldm_value_rerun(tree, mu, i).answer
    replayed = ref.ldm_value_rerun(tree, mu, i).answer
    for v in vectors:
        assert rerun(v) == replayed(v) == black_box(tree, mu, i, v), v
    return tree, rerun


def parent_sets(tree, p, i, mu, vectors):
    """Every C^R_p that the vectors, reported by p's child i, give."""
    inviters = potential_inviters(tree, p)
    return {removed_set_of(tree.with_values(i, v), tree.children[p], inviters, mu)
            for v in vectors}


def holding_sets(tree, p, i, mu, vectors):
    """Every C^R_p that holds i, of those the vectors give."""
    return {c_r for c_r in parent_sets(tree, p, i, mu, vectors) if i in c_r}


def top_bid_set(tree, p, i, mu):
    """C^R_p when i bids one more than any first unit for every unit: the
    report `ldm_value_rerun` commits the layers before hers at."""
    top = 1 + max(map(tree.first_unit, tree.valid))
    return parent_sets(tree, p, i, mu, [(top,) * tree.k]).pop()


def test_buyer_in_parent_c_p_matches_black_box():
    # fig3: n invites q, so n is in C^P of her parent g, and g in C^P of b
    profile = figure("fig3")
    tree = tree_of(profile)
    by_label = {label: i for i, label in profile.labels.items()}
    n, g = by_label["n"], by_label["g"]
    assert n in potential_inviters(tree, g)
    for mu in (2, 4):
        vectors = integer_value_grid(profile, n, cap=10_000)
        assert parent_sets(tree, g, n, mu, vectors) == {top_bid_set(tree, g, n, mu)}
        rerun = ldm_value_rerun(tree, mu, n).answer
        for v in vectors:
            assert rerun(v) == black_box(tree, mu, n, v)


def test_buyer_in_parent_c_p_with_parent_ranking_others():
    # k=1, mu=1: 0's children 1 (inviter of 5), 2, 3, 4; quota 1 ranks 2..4,
    # so C^R_0 reads their values but never 1's
    profile = make_profile(1, {0}, {
        0: ((2,), [1, 2, 3, 4]), 1: ((3,), [5]), 2: ((7,), []), 3: ((4,), []),
        4: ((1,), []), 5: ((6,), []),
    })
    vectors = [(v,) for v in range(10)]
    tree, _ = assert_matches_on(profile, 1, 1, vectors)
    assert parent_sets(tree, 0, 1, 1, vectors) == {
        top_bid_set(tree, 0, 1, 1)} == {frozenset({1, 2})}


def test_every_child_within_the_quota():
    # k=2, mu=0, no grandchildren: quota 2 holds both of 0's children, so C^R_0
    # is all her children whatever 2 reports
    profile = make_profile(2, {0}, {
        0: ((3, 1), [1, 2]), 1: ((5, 0), []), 2: ((4, 4), []),
    })
    vectors = [(a, b) for a in range(8) for b in range(a + 1)]
    tree, _ = assert_matches_on(profile, 0, 2, vectors)
    assert parent_sets(tree, 0, 2, 0, vectors) == {
        top_bid_set(tree, 0, 2, 0)} == {frozenset({1, 2})}


@pytest.mark.parametrize("i, bar, joins_at_tie", [(1, 3, True), (4, 2, False)],
                         ids=["smaller-id-joins", "larger-id-stays-out"])
def test_quota_boundary_tie_broken_by_id(i, bar, joins_at_tie):
    # k=2, mu=0: 0's quota is 2 among four childless children. The other
    # three rank 6, 4, 1, so i's first unit 4 ties the second of them (`bar`)
    # and the smaller id takes the last place in C^W_0.
    others = [j for j in (1, 2, 3, 4) if j != i]
    values = dict(zip(others, ((6, 2), (4, 4), (1, 0))))
    values[i] = (4, 3)
    profile = make_profile(2, {0}, {0: ((5, 1), [1, 2, 3, 4]),
                                    **{j: (values[j], []) for j in (1, 2, 3, 4)}})
    assert values[bar] == (4, 4)
    vectors = [(a, b) for a in range(9) for b in range(a + 1)]
    tree, rerun = assert_matches_on(profile, 0, i, vectors)
    c_r = lambda v: removed_set_of(tree.with_values(i, v), tree.children[0], frozenset(), 0)
    with_tie = c_r((4, 0))
    assert (i in with_tie) is joins_at_tie and (bar in with_tie) is not joins_at_tie
    assert i in c_r((5, 0)) and i not in c_r((3, 0))
    assert holding_sets(tree, 0, i, 0, vectors) == {top_bid_set(tree, 0, i, 0)} == {c_r((5, 0))}
    if not joins_at_tie:
        assert rerun((4, 3)) == (0, 0)


@pytest.mark.parametrize("values", [{1: (8, 8), 2: (7, 0), 3: (9, 1)},
                                    {1: (9, 9), 2: (9, 0), 3: (9, 0)}],
                         ids=["own-first-unit-is-the-maximum", "sibling-ties-the-maximum"])
def test_first_unit_at_the_global_maximum(values):
    # k=2, mu=0: 0's quota is 2 among her four childless children. Buyer 3's
    # true first unit 9 is the largest of the market, alone or tied with
    # siblings of smaller id who win the tie, so the layers before hers are
    # committed at the top bid (10, 10). Tied, a bid of 9 would leave her
    # out of C^R_0 and buyer 2 (9, 0) in, and layer 1 would sell 0 a unit.
    profile = make_profile(2, {0}, {0: ((5, 4), [1, 2, 3, 4]), 4: ((1, 0), []),
                                    **{j: (v, []) for j, v in values.items()}})
    vectors = [(a, b) for a in range(13) for b in range(a + 1)]
    tree, rerun = assert_matches_on(profile, 0, 3, vectors)
    assert max(map(tree.first_unit, tree.valid)) == 9
    assert holding_sets(tree, 0, 3, 0, vectors) == {top_bid_set(tree, 0, 3, 0)}
    assert 3 in top_bid_set(tree, 0, 3, 0)


def test_undersized_mu_raises_for_a_deeper_buyer():
    # C^P_0 = {1, 2}, so mu must be at least 2; the rerun of a layer-2 or
    # layer-3 buyer checks it before it commits a layer, with the run's text
    tree = tree_of(make_profile(1, {0}, {
        0: ((5,), [1, 2]), 1: ((4,), [3]), 2: ((3,), [4]), 3: ((2,), []), 4: ((1,), []),
    }))
    with pytest.raises(MuTooSmall) as run_error:
        run_ldm_tree(tree, 1)
    for i in (1, 2, 3, 4):
        assert tree.layer_of[i] >= 2
        for rerun in (ldm_value_rerun, ref.ldm_value_rerun):
            with pytest.raises(MuTooSmall) as raised:
                rerun(tree, 1, i)
            assert str(raised.value) == str(run_error.value)
    assert str(run_error.value) == "mu=1 is below the required bound 2"


def test_layer_one_buyer(monkeypatch):
    # L = 1: no parent ranks i; nothing is committed before her layer
    profile = figure("t4")
    tree = tree_of(profile)
    for i in sorted(tree.layers[0]):
        vectors = integer_value_grid(profile, i, cap=10_000)
        assert_matches_on(profile, 1, i, vectors)
        setup, per_vector = work_of_rerun(monkeypatch, tree, 1, i, vectors)
        assert setup == (0, 1, 1) and set(per_vector) == {(0, 0, 0)}


def test_her_units_decide_a_layer_l_minus_1_sell_out():
    # k=1, mu=0: 0's quota is 1. Below 10, buyer 3 is outside C^W_0 (1 bids
    # 9) and free in layer 1: above 3 she outbids 0, who then commits nothing,
    # and layer 2 sells to 1; below 3, 0 takes the unit in layer 1. Either way
    # 3 gets (0, 0). From 10 up she is in C^W_0 and wins layer 2 at price 9.
    profile = make_profile(1, {0}, {0: ((3,), [1, 2, 3]), 1: ((9,), []), 2: ((1,), []),
                                    3: ((0,), [])})
    tree, rerun = assert_matches_on(profile, 0, 3, [(v,) for v in range(14)])
    left_after_layer_1 = lambda v: run_ldm_tree(tree.with_values(3, v), 0).trace.layers[0].k_remain_after
    assert left_after_layer_1((2,)) == 0 and left_after_layer_1((5,)) == 1
    assert [rerun((v,)) for v in (2, 5, 9)] == [(0, 0)] * 3
    assert rerun((10,)) == (1, 9)


def test_check_value_ic_reports_match_black_box_path():
    """The whole report list, against the generic rerun of `run`."""
    grid = lambda inst, buyer: integer_value_grid(inst, buyer, cap=24)
    profiles = [p for config in STREAMS for p in instance_stream(config, 12)]
    profiles += [figure(name) for name in ("fig3", "t4")]
    for profile in profiles:
        fast = ldm_mechanism(robust_mu(profile))
        slow = MechanismUnderTest("ldm", fast.run)
        assert check_value_ic(fast, profile, grid) == check_value_ic(slow, profile, grid)


def full_grid(profile, i):
    """Every vector of `integer_value_grid`, unstrided."""
    top = max(rep.values[0] for rep in profile.reports.values())
    return integer_value_grid(profile, i, cap=comb(top + 2 + profile.k, profile.k))


def assert_menu_holds_every_outcome(profile, mu):
    """For every (buyer, subset): the menu has at most k + 1 entries, is
    indexed by units, and answers the truthful report and every full-grid
    vector with its entry at the answer's units; returns the vectors compared."""
    compared = 0
    for i in sorted(compute_market(profile).valid):
        grid = full_grid(profile, i)
        for tree in subset_trees(profile, i):
            rerun = ldm_value_rerun(tree, mu, i)
            menu = rerun.menu
            assert len(menu) <= profile.k + 1
            assert all(menu[x][0] == x for x in range(len(menu))), (i, menu)
            for v in (profile.reports[i].values, *grid):
                answer = rerun.answer(v)
                assert answer == menu[answer[0]], (i, v, answer, menu)
            compared += len(grid)
    return compared


@pytest.mark.parametrize("config", STREAMS, ids=["seed301-tree", "seed302-graph"])
def test_menu_holds_every_outcome_on_criterion_streams(config):
    compared = sum(assert_menu_holds_every_outcome(p, robust_mu(p))
                   for p in instance_stream(config, 25))
    assert compared > 10_000


@pytest.mark.parametrize("name", FIGURES)
def test_menu_holds_every_outcome_on_figures(name):
    profile = figure(name)
    assert assert_menu_holds_every_outcome(profile, robust_mu(profile))


def test_menu_holds_every_outcome_with_reserve_dummies():
    profile = inject_dummies(figure("fig3"), 4)
    assert assert_menu_holds_every_outcome(profile, robust_mu(profile))


def first_price(market):
    """Deliberately not IC: first-layer VCG's allocation, winners paying
    their own reported value."""
    vcg = run_vcg_first_layer(market)
    return Outcome(units=vcg.units, payments={
        i: cumulative_value(market.values_of(i), u) for i, u in vcg.units.items()})


def rerun_profile(run, market, i):
    """The value rerun as first written: `run` on a fresh `compute_market` of
    the profile with i's report patched."""
    profile = market.profile
    invited = profile.reports[i].invited

    def rerun(v):
        outcome = run(compute_market(profile.with_report(i, ReportedType(v, invited))))
        return outcome.units_of(i), outcome.payment_of(i)

    return ValueRerun(rerun)


@pytest.mark.parametrize("mechanism", [
    dna_mu_mechanism(), vcg_mechanism(), MechanismUnderTest("first-price", first_price),
], ids=lambda mechanism: mechanism.name)
def test_generic_value_rerun_matches_a_fresh_market(mechanism):
    """The default rerun patches values on the market; the report lists must
    equal those of a rerun that builds each patched market anew."""
    grid = lambda inst, buyer: integer_value_grid(inst, buyer, cap=24)
    oracle = MechanismUnderTest(mechanism.name, mechanism.run,
                                partial(rerun_profile, mechanism.run))
    profiles = [p for config in STREAMS for p in instance_stream(config, 12)]
    profiles += [figure("fig3"), figure("t4")]
    if mechanism.name != "dna-mu":  # DNA-MU takes no reserve price
        profiles.append(inject_dummies(figure("fig3"), 4))
    found = 0
    for profile in profiles:
        reports = check_value_ic(mechanism, profile, grid)
        assert reports == check_value_ic(oracle, profile, grid)
        found += len(reports)
    # first-price is not IC, so its lists are not all empty
    assert (found > 0) == (mechanism.name == "first-price")


def pay_first_unit(market):
    """DNA-MU's allocation, each winner paying her own first-unit bid."""
    outcome = run_dna_mu(market)
    return Outcome(outcome.units, {i: market.first_unit(i) if units else 0
                                   for i, units in outcome.units.items()})


def test_a_replaced_run_reruns_itself():
    """A record without a value rerun of its own reruns its current `run`:
    DNA-MU's record with `dataclasses.replace`d run answers value-IC as a
    record built with that run does, not with DNA-MU's run."""
    replaced = dataclasses.replace(dna_mu_mechanism(), name="pay-bid", run=pay_first_unit,
                                   invitation_menu=None)
    built = MechanismUnderTest("pay-bid", pay_first_unit)
    found = 0
    for profile in instance_stream(STREAMS[0], 30):
        reports = check_value_ic(replaced, profile)
        assert reports == check_value_ic(built, profile)
        found += bool(reports)
    # paying her bid, a winner gains by shading it on 28 of the 30
    assert found == 28


def test_menu_that_fails_to_certify_falls_back_to_the_grid():
    black_box = MechanismUnderTest("first-price", first_price)

    def value_rerun(market, i):
        # the black box, with its outcomes over the full grid as the menu
        answer = black_box.rerun_on(market, i).answer
        return ValueRerun(answer, tuple({answer(v) for v in full_grid(market.profile, i)}))

    with_menu = MechanismUnderTest("first-price", first_price, value_rerun)
    fell_back = []

    def grid(instance, i):
        fell_back.append(i)
        return integer_value_grid(instance, i, cap=40)

    profiles = [make_profile(1, {1, 2}, {1: ((6,), ()), 2: ((4,), ())}),
                make_profile(2, {1, 2, 3}, {1: ((5, 2), [4]), 2: ((4, 1), ()),
                                            3: ((3, 3), ()), 4: ((7, 0), ())})]
    for profile in profiles:
        fell_back.clear()
        reports = check_value_ic(with_menu, profile, grid)
        assert reports and fell_back
        assert reports == check_value_ic(black_box, profile, grid)


@pytest.mark.parametrize("config", STREAMS, ids=["seed301-tree", "seed302-graph"])
def test_menu_certifies_every_pair_on_criterion_streams(config):
    # the grid is built for a buyer only once some subset of hers is not
    # certified, so no grid call means every (buyer, subset) was certified
    pairs, fell_back = [], []
    grid = lambda instance, i: fell_back.append(i) or integer_value_grid(instance, i)
    for profile in instance_stream(config, 150):
        mech = ldm_mechanism(robust_mu(profile))
        counted = MechanismUnderTest(
            mech.name, mech.run, lambda p, i: pairs.append(i) or mech.value_rerun(p, i))
        assert check_value_ic(counted, profile, grid) == []
    assert len(pairs) > 1_000 and fell_back == []


@st.composite
def small_networks(draw):
    """Up to 8 buyers on a tree or a graph, k up to 8, values up to 1,000
    drawn from a few levels so that first units tie. Small k and wide
    parents are drawn more often: a parent's C^W ranks her children only past
    K + mu of them, and LDM goes past layer 1 only when some of them win
    there."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, 2) | st.integers(1, 8))
    levels = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=4))
    buyers = {}
    for i in range(n):
        values = sorted((draw(st.sampled_from(levels)) for _ in range(k)), reverse=True)
        buyers[i] = (tuple(values), set())
    seller = {0} | draw(st.sets(st.integers(1, n - 1), max_size=2))
    graph = draw(st.booleans())
    for j in range(1, n):
        # a tree parent, often 0 or 1
        buyers[draw(st.integers(0, min(j - 1, 1)) | st.integers(0, j - 1))][1].add(j)
        if graph:
            buyers[j][1].update(draw(st.sets(st.integers(0, n - 1), max_size=2)) - {j})
    return make_profile(k, seller, buyers)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(profile=small_networks(), extra_mu=st.integers(0, 1))
def test_rerun_matches_black_box_on_drawn_networks(profile, extra_mu):
    # the grid, plus every other buyer's vector, so first units tie exactly
    reported = [rep.values for rep in profile.reports.values()]
    assert_reruns_match(
        profile, mus=(robust_mu(profile) + extra_mu,),
        vectors_of=lambda i: integer_value_grid(profile, i, cap=24) + reported)


# The truthful run's reruns: `ldm_run_value_rerun` reads every valid buyer's
# rerun on the market it ran on from its layer pools, and refuses (None) a
# buyer outside her parent's C^R, whose rerun the per-buyer set-up makes.
# (stream, instances read): criterion 3's, wider trees, and deep ones whose
# every parent's quota holds all her children
RUN_READ_STREAMS = {
    "seed301-tree": (STREAMS[0], 100),
    "seed302-graph": (STREAMS[1], 100),
    "seed7-wide": (GeneratorConfig(seed=7, buyers=(8, 12), k=(1, 4)), 40),
    "seed9-deep": (GeneratorConfig(seed=9, buyers=(20, 40), k=(1, 5), max_depth=4,
                                   seller_bias=0.3), 12),
}


def mus_of(profile):
    """Every mu from `min_valid_mu` to `robust_mu` + 2."""
    return range(min_valid_mu(compute_market(profile)), robust_mu(profile) + 3)


def refused(market, trace, i):
    """Whether the run must refuse i: she is outside her parent's C^R, and
    no layer up to L-2 sold out."""
    sold_out_at = next((rec.layer for rec in trace.layers if rec.k_remain_after == 0), None)
    layer = market.layer_of[i]
    return (outside_parent_removed_set(market, trace.mu, i)
            and (sold_out_at is None or sold_out_at >= layer - 1))


def assert_run_reads_match(profile, mus, cap=40):
    """For every valid buyer of the truthful market at each mu: the run's
    rerun, unless refused, has the set-up's menu, and the same answer as
    the set-up and the replaying reference on her values and every grid
    vector. Returns the buyers read and refused."""
    read = fell_back = 0
    market = compute_market(profile)
    for mu in mus:
        trace = run_ldm_tree(market, mu).trace
        for i in sorted(market.valid):
            found = ldm_run_value_rerun(trace, i, market.children[i])
            if refused(market, trace, i):
                assert found is None, (mu, i)
                fell_back += 1
                continue
            set_up = ldm_value_rerun(market, mu, i)
            assert found.menu == set_up.menu, (mu, i)
            replayed = ref.ldm_value_rerun(market, mu, i).answer
            for v in (profile.reports[i].values, *integer_value_grid(profile, i, cap)):
                assert found.answer(v) == set_up.answer(v) == replayed(v), (mu, i, v)
            read += 1
    return read, fell_back


@pytest.mark.parametrize("stream", RUN_READ_STREAMS)
@pytest.mark.parametrize("reserve", [None, 3], ids=["no-reserve", "reserve-3"])
def test_run_read_reruns_match_the_set_up_and_the_reference(stream, reserve):
    config, count = RUN_READ_STREAMS[stream]
    read = fell_back = 0
    for profile in instance_stream(config, count):
        if reserve is not None:
            profile = inject_dummies(profile, reserve)
        found = assert_run_reads_match(profile, mus_of(profile))
        read, fell_back = read + found[0], fell_back + found[1]
    # the dummies of a reserve are layer-1 buyers: each adds reads, no refusal
    assert (read, fell_back) == {
        ("seed301-tree", None): (1449, 12), ("seed301-tree", 3): (2019, 12),
        ("seed302-graph", None): (1970, 14), ("seed302-graph", 3): (2768, 14),
        ("seed7-wide", None): (1213, 5), ("seed7-wide", 3): (1516, 5),
        ("seed9-deep", None): (1110, 0), ("seed9-deep", 3): (1209, 0),
    }[stream, reserve]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_run_read_reruns_match_on_combs(k):
    from test_deep_layers import combs  # it imports this module

    read = fell_back = 0
    for profile in combs(k):
        found = assert_run_reads_match(profile, mus_of(profile))
        read, fell_back = read + found[0], fell_back + found[1]
    assert read > 300 and (fell_back > 0) == (k < 3)


def run_read(profile, mu, i):
    """i's rerun read from the truthful run at mu, checked against the
    set-up and the reference on a grid."""
    market = compute_market(profile)
    assert_run_reads_match(profile, (mu,))
    return ldm_run_value_rerun(run_ldm_tree(market, mu).trace, i, market.children[i])


def test_run_read_layer_one_buyer():
    profile = figure("t4")
    market = compute_market(profile)
    for i in market.layers[0]:
        found = run_read(profile, 1, i)
        assert found is not None and found.menu == ldm_value_rerun(market, 1, i).menu


def test_run_read_dummy_gets_nothing():
    profile = inject_dummies(figure("fig3"), 4)
    dummies = [i for i in compute_market(profile).layers[0] if is_dummy(i)]
    assert dummies and all(run_read(profile, robust_mu(profile), i).menu == ((0, 0),)
                           for i in dummies)


def test_run_read_refuses_a_buyer_outside_her_parents_removed_set():
    # k=1, mu=1: C^P_0 = {1} leaves a quota of 1 in C^W_0, which 2 outbids
    # 3 for; 3 is free in layer 1, outbids 0 there and leaves the unit for
    # layer 2, so only the set-up can answer her
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4, 5, 6]), 2: ((6,), []), 3: ((5,), []),
        4: ((9,), []), 5: ((8,), []), 6: ((7,), []),
    })
    market = compute_market(profile)
    assert run_ldm_tree(market, 1).trace.layers[0].k_remain_after == 1
    assert run_read(profile, 1, 3) is None
    assert outside_parent_removed_set(market, 1, 3)
    assert run_read(profile, 1, 2) is not None and run_read(profile, 1, 4) is not None


def test_set_up_top_bid_wins_a_quota_of_one(monkeypatch):
    # K = 1 and mu = |C^P_0| = 1, so 0's C^W quota is exactly 1: the least
    # the top bid needs to put a refused buyer in her parent's C^R. Buyer 3
    # ties 2's first unit and the tie goes to 2, so 3 is free in layer 1 at
    # the truth, outbids 0 there and leaves the unit for layer 2, where 2
    # wins it. The harness sets up her rerun, one run at her top bid: up to
    # 5 she stays out of C^W_0 and gets (0, 0); from 6 she wins at 2's 5.
    profile = make_profile(1, {0}, {
        0: ((2,), [1, 2, 3]), 1: ((1,), [4]), 2: ((5,), []), 3: ((5,), []), 4: ((3,), []),
    })
    tree = tree_of(profile)
    assert potential_inviters(tree, 0) == {1} and robust_mu(profile) == 1
    assert tree.first_unit(2) == tree.first_unit(3) and outside_parent_removed_set(tree, 1, 3)
    reruns = counted_reruns(monkeypatch)
    assert all(r.ok for r in run_properties(profile, "ldm", ("ir", "invite-ic", "value-ic")))
    [(path, market, _i, rerun)] = [found for found in reruns if found[2] == 3]
    assert path == "set-up" and market.profile is profile
    vectors = integer_value_grid(profile, 3)
    assert vectors == [(v,) for v in range(7, -1, -1)]  # the full grid: v_cap 7, k 1
    replayed = ref.ldm_value_rerun(tree, 1, 3).answer
    answers = [rerun.answer(v) for v in vectors]
    assert answers == [replayed(v) for v in vectors] == [black_box(tree, 1, 3, v) for v in vectors]
    assert answers == [(1, 5)] * 2 + [(0, 0)] * 6
    assert rerun.menu == ((0, 0), (1, 5))


def test_run_read_sell_out_at_layer_l_minus_2_reads_no_parent_set():
    # k=1, mu=1: 0 takes the unit in layer 1. Buyer 4 in layer 3 is outside
    # C^W_1 (quota 2, which 2 and 3 outbid her for), but no value of hers
    # reaches layer 1: she gets (0, 0) without her parent's set tested
    profile = make_profile(1, {0}, {
        0: ((9,), [1]), 1: ((0,), [2, 3, 4]), 2: ((3,), []), 3: ((2,), []), 4: ((1,), []),
    })
    market = compute_market(profile)
    assert len(run_ldm_tree(market, 1).trace.layers) == 1
    assert outside_parent_removed_set(market, 1, 4)
    assert run_read(profile, 1, 4).menu == ((0, 0),)


def test_run_read_sell_out_at_layer_l_minus_1():
    # In her parent's C^R, a buyer's rerun commits layer L-1 as the run did:
    # the sell-out there gives her (0, 0) (the k=1, mu=1 tree of
    # `test_supply_gone_at_layer_l_minus_1_replays_one_layer`, buyer 4).
    # Outside it, her values decide whether layer L-1 sells out, so the run
    # refuses her (k=1, mu=0: buyer 3 of
    # `test_her_units_decide_a_layer_l_minus_1_sell_out`, who wins from 10 up).
    inside = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4]), 2: ((6,), []), 3: ((5,), []), 4: ((2,), []),
    })
    assert [rec.k_remain_after for rec in run_ldm_tree(compute_market(inside), 1).trace.layers
            ] == [1, 0]
    assert run_read(inside, 1, 4).menu == ((0, 0),)
    outside = make_profile(1, {0}, {0: ((3,), [1, 2, 3]), 1: ((9,), []), 2: ((1,), []),
                                    3: ((0,), [])})
    market = compute_market(outside)
    assert [rec.k_remain_after for rec in run_ldm_tree(market, 0).trace.layers] == [0]
    assert run_read(outside, 0, 3) is None
    assert ldm_value_rerun(market, 0, 3).answer((10,)) == (1, 9)


# On a graph, a buyer's full report S can hold invitees that are not her BFS
# children C_i. The run's read takes S & C_i (`mechanisms._leaving`): read
# with all of S, her invitees who invite anyone once pushed her C^W quota
# below zero, and a free child dropped out of her layer's pool.
# (stream, instances): 5 of seed 11's first 1,000 hit that case
FULL_SET_STREAMS = {
    "seed11-graph": GeneratorConfig(seed=11, buyers=(6, 12), k=(1, 2), topology="graph",
                                    edge_density=0.4),
    "seed303-graph": GeneratorConfig(seed=303, topology="graph", edge_density=0.3),
}


def inviting_invitees():
    """K = 1, mu = 0: the seller's neighbours are a (0), s1 (1) and s2 (2);
    a invites s1, s2 and her childless children c1, c2, c3 (3, 4, 5), and s1
    and s2, her layer peers, invite x1 (6) and x2 (7). Two invitees of a
    invite anyone, more than K + mu."""
    return make_profile(1, {0, 1, 2}, {
        0: ((5,), [1, 2, 3, 4, 5]), 1: ((2,), [6]), 2: ((1,), [7]), 3: ((9,), []),
        4: ((8,), []), 5: ((3,), []), 6: ((4,), []), 7: ((4,), []),
    })


def assert_full_set_reads_match(profile, cap=40):
    """Every valid buyer's rerun read from the truthful run with her full
    invitation report as `kept`, unless refused, against the set-up on the
    truthful market, at every mu from `min_valid_mu` to `robust_mu`: the
    menu, and the answers on her values and the grid. Returns the reads,
    and those whose report holds a buyer outside her children."""
    market = compute_market(profile)
    reads = beyond = 0
    for mu in range(min_valid_mu(market), robust_mu(profile) + 1):
        trace = run_ldm_tree(market, mu).trace
        for i in sorted(market.valid):
            invited = profile.reports[i].invited
            found = ldm_run_value_rerun(trace, i, invited)
            if found is None:
                continue
            set_up = ldm_value_rerun(market, mu, i)
            assert found.menu == set_up.menu, (mu, i)
            for v in (profile.reports[i].values, *integer_value_grid(profile, i, cap)):
                assert found.answer(v) == set_up.answer(v), (mu, i, v)
            reads += 1
            beyond += not invited <= market.children[i]
    return reads, beyond


def test_full_set_read_takes_the_invitees_among_her_children():
    profile = inviting_invitees()
    market = compute_market(profile)
    assert market.children[0] == {3, 4, 5} and min_valid_mu(market) == 0
    found = ldm_run_value_rerun(run_ldm_tree(market, 0).trace, 0, profile.reports[0].invited)
    assert found.menu == ((0, -6), (1, 2)) and found.answer((5,)) == (0, -6)
    assert assert_full_set_reads_match(profile) == (21, 3)


@pytest.mark.parametrize("stream", FULL_SET_STREAMS)
def test_full_set_reads_match_the_set_up_on_graphs(stream):
    reads = beyond = 0
    for profile in instance_stream(FULL_SET_STREAMS[stream], 1000):
        found = assert_full_set_reads_match(profile)
        reads, beyond = reads + found[0], beyond + found[1]
    assert (reads, beyond) == {"seed11-graph": (50028, 46539),
                               "seed303-graph": (14702, 11043)}[stream]


def test_a_read_keeping_every_child_builds_no_removed_set(monkeypatch):
    # `_leaving` answers X = {} before it builds C^R_i when `kept` holds
    # every child of i, as every full-set read and every set-up's read does;
    # a read that hides a child still builds it once. The answers are the
    # replayed rerun's.
    built = []
    build = mechanisms.removed_set_of
    monkeypatch.setattr(mechanisms, "removed_set_of",
                        lambda *args: built.append(args) or build(*args))
    reads = hiding = 0
    for profile in (*instance_stream(STREAMS[0], 40), inviting_invitees()):
        market = compute_market(profile)
        mu = robust_mu(profile)
        trace = run_ldm_tree(market, mu).trace
        for i in sorted(market.valid):
            children = market.children[i]
            for kept in {children, profile.reports[i].invited}:
                built.clear()
                found = ldm_run_value_rerun(trace, i, kept)
                assert built == []
                if found is not None:
                    replayed = ref.ldm_value_rerun(market, mu, i).answer
                    for v in (profile.reports[i].values, *integer_value_grid(profile, i, cap=8)):
                        assert found.answer(v) == replayed(v), (i, v)
                    reads += 1
            if children and ldm_run_value_rerun(trace, i, children) is not None:
                built.clear()
                ldm_run_value_rerun(trace, i, frozenset())
                hiding += 1
                assert len(built) == (market.layer_of[i] <= len(trace.pools))
    assert (reads, hiding) == (175, 72)
