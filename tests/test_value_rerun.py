"""LDM's value-deviation path against the rerun it replaced and the black box.

`ldm_value_rerun(tree, mu, i)(v)` must equal i's (units, payment) in
`run_ldm_tree(tree.with_values(i, v), mu)` exactly, for every buyer, every
invitation subset the harness enumerates and every grid vector; so must
`reference_ldm.ldm_value_rerun`, the layer-replaying rerun it replaced. Its
`menu` must hold every outcome of the full grid, which `check_value_ic`
falls back to where the menu does not certify.
"""

import itertools
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction import mechanisms
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import ReportedType, compute_market, cumulative_value
from netauction.mechanisms import (Outcome, inject_dummies, ldm_value_rerun, run_ldm_tree,
                                   run_vcg_first_layer)
from netauction.removed_sets import (min_valid_mu, potential_inviters, removed_set_holding,
                                     removed_set_of, robust_mu)
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, MechanismUnderTest, check_value_ic,
                               dna_mu_mechanism, integer_value_grid, ldm_mechanism,
                               vcg_mechanism)

import reference_ldm as ref
from conftest import DATA, make_profile

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
                rerun = ldm_value_rerun(tree, mu, i)
                replayed = ref.ldm_value_rerun(tree, mu, i)
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
    """Check each vector against the black box. Returns the layers solved and
    the pools sorted at set-up, and the same pair for each vector."""
    expected = [black_box(tree, mu, i, v) for v in vectors]
    work = [[0, 0]]

    def counting(fn, slot):
        def counted(*args):
            work[-1][slot] += 1
            return fn(*args)
        return counted

    with monkeypatch.context() as patch:
        patch.setattr(mechanisms, "_ldm_layer", counting(mechanisms._ldm_layer, 0))
        patch.setattr(mechanisms, "RankedMarginals", counting(mechanisms.RankedMarginals, 1))
        rerun = ldm_value_rerun(tree, mu, i)
        for v, want in zip(vectors, expected):
            work.append([0, 0])
            assert rerun(v) == want, (i, v)
    return tuple(work[0]), [tuple(w) for w in work[1:]]


def tree_of(profile):
    return compute_market(profile)


def test_supply_gone_by_layer_l_minus_2_skips_every_vector(monkeypatch):
    # k=1: buyer 0 takes the unit in layer 1 (her child 1 is in C^P_0 and 2
    # sits in layer 3, so both are removed), so buyer 2 in layer 3 gets
    # nothing whatever she reports
    tree = tree_of(make_profile(1, {0}, {0: ((5,), [1]), 1: ((3,), [2]), 2: ((1,), [])}))
    vectors = [(0,), (1,), (50,)]
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 2, vectors)
    assert setup == (1, 0) and per_vector == [(0, 0)] * 3
    assert [ldm_value_rerun(tree, 1, 2)(v) for v in vectors] == [(0, 0)] * 3


def test_supply_gone_at_layer_l_minus_1_replays_one_layer(monkeypatch):
    # k=1, mu=1: buyer 0's C^W (quota 1) removes 2, so 3 outbids 0 in layer 1
    # and 0 commits nothing; layer 2 then sells the unit to 2, before buyer
    # 4 in layer 3 (removed from layer 2 as C^W_1) is reached. Layer 2 is
    # solved once, at set-up, not per vector.
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4]), 2: ((6,), []), 3: ((5,), []), 4: ((2,), []),
    })
    tree = tree_of(profile)
    assert potential_inviters(tree, 0) == {1}
    assert run_ldm_tree(tree, 1).units == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    vectors = [(0,), (2,), (9,)]
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 4, vectors)
    assert setup == (2, 0) and per_vector == [(0, 0)] * 3
    assert [ldm_value_rerun(tree, 1, 4)(v) for v in vectors] == [(0, 0)] * 3


def test_value_decides_whether_layer_l_minus_1_sells_out(monkeypatch):
    # k=1, mu=1. Layer 1: 3 outbids 0, so 0 commits nothing. Buyer 4 sits in
    # layer 3 under 1, whose C^W keeps her two highest children out of layer
    # 2. Truthful, 4 is among them and 6 (7) outbids every layer-2 member, so
    # layer 2 commits nothing and 4 wins in layer 3. Reporting 0 puts 4
    # outside C^W_1; then 2 (6) is the top bid of layer 2 and takes the unit.
    # The rerun solves layer 2 once, with 4 in C^W_1, and answers (0, 0) for
    # every vector that leaves her out of it.
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4, 5, 6]), 2: ((6,), []), 3: ((5,), []),
        4: ((9,), []), 5: ((8,), []), 6: ((7,), []),
    })
    tree = tree_of(profile)
    setup, per_vector = work_of_rerun(monkeypatch, tree, 1, 4, [(9,), (0,)])
    assert setup == (2, 1) and per_vector == [(0, 0)] * 2
    rerun = ldm_value_rerun(tree, 1, 4)
    assert rerun((9,))[0] == 1 and rerun((0,)) == (0, 0)
    assert run_ldm_tree(tree.with_values(4, (0,)), 1).trace.layers[1].k_remain_after == 0


def test_rerun_solves_at_most_layers_l_minus_1_and_l(monkeypatch):
    # no vector solves a layer or sorts a pool: set-up solves the layers
    # before L and sorts layer L's pool once
    for profile in instance_stream(STREAMS[0], 40):
        tree = tree_of(profile)
        mu = robust_mu(profile)
        for i in sorted(tree.valid):
            vectors = integer_value_grid(profile, i, cap=8)
            (layers, pools), per_vector = work_of_rerun(monkeypatch, tree, mu, i, vectors)
            assert layers <= tree.layer_of[i] - 1 and pools in (0, 1)
            assert set(per_vector) == {(0, 0)}


def assert_matches_on(profile, mu, i, vectors):
    tree = tree_of(profile)
    rerun, replayed = ldm_value_rerun(tree, mu, i), ref.ldm_value_rerun(tree, mu, i)
    for v in vectors:
        assert rerun(v) == replayed(v) == black_box(tree, mu, i, v), v
    return tree, rerun


def parent_sets(tree, p, i, mu, vectors):
    """Every C^R_p that the vectors, reported by p's child i, give."""
    inviters = potential_inviters(tree, p)
    return {removed_set_of(tree.with_values(i, v), p, inviters, mu) for v in vectors}


def test_buyer_in_parent_c_p_matches_black_box():
    # fig3: n invites q, so n is in C^P of her parent g, and g in C^P of b
    profile = figure("fig3")
    tree = tree_of(profile)
    by_label = {label: i for i, label in profile.labels.items()}
    n, g = by_label["n"], by_label["g"]
    assert n in potential_inviters(tree, g)
    for mu in (2, 4):
        vectors = integer_value_grid(profile, n, cap=10_000)
        assert parent_sets(tree, g, n, mu, vectors) == {removed_set_holding(
            tree, g, potential_inviters(tree, g), mu, n)}
        rerun = ldm_value_rerun(tree, mu, n)
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
        removed_set_holding(tree, 0, frozenset({1}), 1, 1)} == {frozenset({1, 2})}


def test_every_child_within_the_quota():
    # k=2, mu=0, no grandchildren: quota 2 holds both of 0's children, so C^R_0
    # is all her children whatever 2 reports
    profile = make_profile(2, {0}, {
        0: ((3, 1), [1, 2]), 1: ((5, 0), []), 2: ((4, 4), []),
    })
    vectors = [(a, b) for a in range(8) for b in range(a + 1)]
    tree, _ = assert_matches_on(profile, 0, 2, vectors)
    assert parent_sets(tree, 0, 2, 0, vectors) == {
        removed_set_holding(tree, 0, frozenset(), 0, 2)} == {frozenset({1, 2})}


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
    tree, rerun = assert_matches_on(profile, 0, i,
                                    [(a, b) for a in range(9) for b in range(a + 1)])
    c_r = lambda v: removed_set_of(tree.with_values(i, v), 0, frozenset(), 0)
    with_tie = c_r((4, 0))
    assert (i in with_tie) is joins_at_tie and (bar in with_tie) is not joins_at_tie
    assert i in c_r((5, 0)) and i not in c_r((3, 0))
    assert removed_set_holding(tree, 0, frozenset(), 0, i) == c_r((5, 0))
    if not joins_at_tie:
        assert rerun((4, 3)) == (0, 0)


def test_layer_one_buyer(monkeypatch):
    # L = 1: no parent ranks i; nothing is committed before her layer
    profile = figure("t4")
    tree = tree_of(profile)
    for i in sorted(tree.layers[0]):
        vectors = integer_value_grid(profile, i, cap=10_000)
        assert_matches_on(profile, 1, i, vectors)
        setup, per_vector = work_of_rerun(monkeypatch, tree, 1, i, vectors)
        assert setup == (0, 1) and set(per_vector) == {(0, 0)}


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


def test_ldm_mechanism_without_mu_runs_at_the_smallest_valid_mu():
    for name in ("fig3", "t4"):
        market = compute_market(figure(name))
        pinned, default = ldm_mechanism(min_valid_mu(market)), ldm_mechanism()
        assert default.run(market) == pinned.run(market)
        for i in sorted(market.valid):
            assert default.value_rerun(market, i).menu == pinned.value_rerun(market, i).menu


def full_grid(profile, i):
    """Every vector of `integer_value_grid`, unstrided."""
    top = max(rep.values[0] for rep in profile.reports.values())
    return integer_value_grid(profile, i, cap=comb(top + 2 + profile.k, profile.k))


def assert_menu_holds_every_outcome(profile, mu):
    """For every (buyer, subset): the menu has at most k + 1 entries and holds
    the truthful outcome and every full-grid vector's; returns the reruns."""
    compared = 0
    for i in sorted(compute_market(profile).valid):
        grid = full_grid(profile, i)
        for tree in subset_trees(profile, i):
            rerun = ldm_value_rerun(tree, mu, i)
            menu = set(rerun.menu)
            assert len(rerun.menu) <= profile.k + 1
            assert rerun(profile.reports[i].values) in menu, i
            outcomes = {rerun(v) for v in grid}
            assert outcomes <= menu, (i, outcomes - menu)
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

    return rerun


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


def test_menu_that_fails_to_certify_falls_back_to_the_grid():
    black_box = MechanismUnderTest("first-price", first_price)

    def value_rerun(market, i):
        # the black box, with its outcomes over the full grid as the menu
        rerun = black_box.value_rerun(market, i)
        rerun.menu = tuple({rerun(v) for v in full_grid(market.profile, i)})
        return rerun

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
