"""LDM's value-deviation path against the black box it replaces.

`ldm_value_rerun(tree, mu, i)(v)` must equal i's (units, payment) in
`run_ldm_tree(tree.with_values(i, v), mu)` exactly, for every buyer, every
invitation subset the harness enumerates and every grid vector.
"""

import itertools

import pytest

from netauction import mechanisms
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import ReportedType, build_bfs_tree, compute_market
from netauction.mechanisms import inject_dummies, ldm_value_rerun, run_ldm_tree
from netauction.removed_sets import potential_inviters, robust_mu
from netauction.verify import (MAX_INVITES_EXHAUSTIVE, MechanismUnderTest, check_value_ic,
                               integer_value_grid, ldm_mechanism)

from conftest import DATA, make_profile

STREAMS = (
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                    topology="graph", edge_density=0.15),
)
FIGURES = ("fig3", "fig4", "t4")


def black_box(tree, mu, i, v):
    out = run_ldm_tree(tree.with_values(i, v), mu, want_trace=False)
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
        yield build_bfs_tree(compute_market(base))


def assert_reruns_match(profile, mus=None):
    """Every (buyer, subset, grid vector) at each mu; returns the reruns compared."""
    if mus is None:
        mus = (robust_mu(profile), robust_mu(profile) + 2)
    compared = 0
    for mu in mus:
        for i in sorted(compute_market(profile).valid):
            vectors = [profile.reports[i].values] + integer_value_grid(profile, i)
            for tree in subset_trees(profile, i):
                rerun = ldm_value_rerun(tree, mu, i)
                for v in vectors:
                    assert rerun(v) == black_box(tree, mu, i, v), (i, mu, v)
                    compared += 1
    return compared


def figure(name):
    return parse_instance((DATA / f"{name}.json").read_text())


@pytest.mark.parametrize("config", STREAMS, ids=["seed301-tree", "seed302-graph"])
def test_rerun_matches_black_box_on_criterion_streams(config):
    compared = sum(assert_reruns_match(p) for p in instance_stream(config, 25))
    assert compared > 10_000


@pytest.mark.parametrize("name", FIGURES)
def test_rerun_matches_black_box_on_figures(name):
    assert assert_reruns_match(figure(name))


def test_rerun_matches_black_box_with_reserve_dummies():
    profile = inject_dummies(figure("fig3"), 4)
    assert assert_reruns_match(profile, mus=(robust_mu(profile),))


def layers_per_vector(monkeypatch, tree, mu, i, vectors):
    """Check each vector against the black box; list the layers each rerun solved."""
    solved = []
    step = mechanisms._ldm_layer

    def counting(*args):
        solved[-1] += 1
        return step(*args)

    rerun = ldm_value_rerun(tree, mu, i)
    for v in vectors:
        expected = black_box(tree, mu, i, v)
        with monkeypatch.context() as patch:
            patch.setattr(mechanisms, "_ldm_layer", counting)
            solved.append(0)
            assert rerun(v) == expected, (i, v)
    return solved


def test_supply_gone_by_layer_l_minus_2_skips_every_vector(monkeypatch):
    # k=1: buyer 0 takes the unit in layer 1 (her child 1 is in C^P_0 and 2
    # sits in layer 3, so both are removed), so buyer 2 in layer 3 gets
    # nothing whatever she reports
    profile = make_profile(1, {0}, {0: ((5,), [1]), 1: ((3,), [2]), 2: ((1,), [])})
    tree = build_bfs_tree(compute_market(profile))
    vectors = [(0,), (1,), (50,)]
    assert layers_per_vector(monkeypatch, tree, 1, 2, vectors) == [0, 0, 0]
    assert [ldm_value_rerun(tree, 1, 2)(v) for v in vectors] == [(0, 0)] * 3


def test_supply_gone_at_layer_l_minus_1_replays_one_layer(monkeypatch):
    # k=1, mu=1: buyer 0's C^W (quota 1) removes 2, so 3 outbids 0 in layer 1
    # and 0 commits nothing; layer 2 then sells the unit to 2, before buyer
    # 4 in layer 3 (removed from layer 2 as C^W_1) is reached
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4]), 2: ((6,), []), 3: ((5,), []), 4: ((2,), []),
    })
    tree = build_bfs_tree(compute_market(profile))
    assert potential_inviters(tree, 0) == {1}
    assert run_ldm_tree(tree, 1).units == {0: 0, 1: 0, 2: 1, 3: 0, 4: 0}
    vectors = [(0,), (2,), (9,)]
    assert layers_per_vector(monkeypatch, tree, 1, 4, vectors) == [1, 1, 1]
    assert [ldm_value_rerun(tree, 1, 4)(v) for v in vectors] == [(0, 0)] * 3


def test_value_decides_whether_layer_l_minus_1_sells_out(monkeypatch):
    # k=1, mu=1. Layer 1: 3 outbids 0, so 0 commits nothing. Buyer 4 sits in
    # layer 3 under 1, whose C^W keeps her two highest children out of layer
    # 2. Truthful, 4 is among them and 6 (7) outbids every layer-2 member, so
    # layer 2 commits nothing and 4 wins in layer 3. Reporting 0 puts 4
    # outside C^W_1; then 2 (6) is the top bid of layer 2 and takes the unit.
    profile = make_profile(1, {0}, {
        0: ((1,), [1, 2, 3]), 1: ((0,), [4, 5, 6]), 2: ((6,), []), 3: ((5,), []),
        4: ((9,), []), 5: ((8,), []), 6: ((7,), []),
    })
    tree = build_bfs_tree(compute_market(profile))
    assert layers_per_vector(monkeypatch, tree, 1, 4, [(9,), (0,)]) == [2, 1]
    rerun = ldm_value_rerun(tree, 1, 4)
    assert rerun((9,))[0] == 1 and rerun((0,)) == (0, 0)


def test_rerun_solves_at_most_layers_l_minus_1_and_l(monkeypatch):
    for profile in instance_stream(STREAMS[0], 40):
        tree = build_bfs_tree(compute_market(profile))
        mu = robust_mu(profile)
        for i in sorted(tree.valid):
            vectors = integer_value_grid(profile, i, cap=8)
            solved = layers_per_vector(monkeypatch, tree, mu, i, vectors)
            assert max(solved) <= min(tree.market.layer_of[i], 2)


def test_buyer_in_parent_c_p_matches_black_box():
    # fig3: n invites q, so n is in C^P of her parent g, and g in C^P of b
    profile = figure("fig3")
    tree = build_bfs_tree(compute_market(profile))
    by_label = {label: i for i, label in profile.labels.items()}
    n, g = by_label["n"], by_label["g"]
    assert n in potential_inviters(tree, g)
    for mu in (2, 4):
        rerun = ldm_value_rerun(tree, mu, n)
        for v in integer_value_grid(profile, n, cap=10_000):
            assert rerun(v) == black_box(tree, mu, n, v)


def test_check_value_ic_reports_match_black_box_path():
    """The whole report list, against the generic rerun of `run`."""
    grid = lambda inst, buyer: integer_value_grid(inst, buyer, cap=24)
    profiles = [p for config in STREAMS for p in instance_stream(config, 12)]
    profiles += [figure(name) for name in ("fig3", "t4")]
    for profile in profiles:
        fast = ldm_mechanism(robust_mu(profile))
        slow = MechanismUnderTest("ldm", fast.run)
        assert check_value_ic(fast, profile, grid) == check_value_ic(slow, profile, grid)
