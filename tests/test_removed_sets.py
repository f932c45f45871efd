"""Exclusion-set construction: C^P, C^W, C^R, R_l, D_i, and the mu bound."""

import itertools
import json
import random

import pytest

from netauction import removed_sets
from netauction.cli import main
from netauction.errors import ContractError, MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import ReportedType, compute_market
from netauction.removed_sets import (
    layer_removed_sets,
    min_valid_mu,
    potential_inviters,
    potential_winners,
    removed_set_of,
    removed_sets_for,
    robust_mu,
)
from netauction.verify import PROPERTY_NAMES, run_properties

from conftest import (DATA, FIG3_LABELS, fig3_ids, ldm_walked_classes, make_profile,
                      sold_out_in_layer_one)


def lid(c):
    return FIG3_LABELS.index(c)


@pytest.fixture(scope="module")
def fig3_tree(fig3_profile):
    return compute_market(fig3_profile)


@pytest.fixture(scope="module")
def t4_tree(t4_profile):
    return compute_market(t4_profile)


def test_potential_inviters_fig3(fig3_tree):
    assert potential_inviters(fig3_tree, lid("b")) == fig3_ids("fg")
    assert potential_inviters(fig3_tree, lid("g")) == fig3_ids("no")
    assert potential_inviters(fig3_tree, lid("j")) == frozenset()
    with pytest.raises(ContractError):
        potential_inviters(fig3_tree, 99)


def test_potential_inviters_all_leaf_children(t4_tree):
    assert potential_inviters(t4_tree, 1) == frozenset()


def test_potential_winners_fig3(fig3_tree):
    assert potential_winners(fig3_tree, lid("b"), 2) == fig3_ids("deh")
    assert potential_winners(fig3_tree, lid("g"), 2) == fig3_ids("klm")
    assert potential_winners(fig3_tree, lid("a"), 2) == frozenset()
    removed = removed_sets_for(fig3_tree, 2)
    assert removed[lid("b")] == fig3_ids("defgh")
    assert removed[lid("g")] == fig3_ids("klmno")
    assert removed[lid("f")] == fig3_ids("j")


def test_potential_winners_t4(t4_tree):
    assert potential_winners(t4_tree, 1, 1) == {3, 4}
    with pytest.raises(ContractError, match="buyer 99 is not a valid buyer"):
        potential_winners(t4_tree, 99, 1)


def test_potential_winners_mu_too_small(fig3_tree):
    with pytest.raises(MuTooSmall) as err:
        potential_winners(fig3_tree, lid("b"), 1)
    assert err.value.required == 2
    assert err.value.given == 1
    # mu is checked before the buyer
    with pytest.raises(MuTooSmall):
        potential_winners(fig3_tree, 99, 1)


def exclusion(market, i, mu):
    """D_i = R_l + C_i + {i} for i in layer l, R_l read from the layer walk."""
    r_l = list(layer_removed_sets(market, mu))[market.layer_of[i] - 1]
    return r_l | market.children[i] | {i}


def test_layer_removed_set_fig3(fig3_tree):
    q = fig3_tree.valid
    r = list(layer_removed_sets(fig3_tree, 2))
    assert len(r) == 4
    assert q - r[0] == fig3_ids("abci")
    assert q - r[1] == fig3_ids("abcdefghip")
    assert r[3] == frozenset()


def test_layer_removed_set_t4(t4_tree):
    assert list(layer_removed_sets(t4_tree, 1)) == [{3, 4}, frozenset()]


def test_exclusion_set(t4_tree, fig3_tree):
    assert exclusion(t4_tree, 1, 1) == {1, 3, 4, 5}
    assert exclusion(t4_tree, 3, 1) == {3}
    d_d = exclusion(fig3_tree, lid("d"), 2)
    assert fig3_tree.valid - d_d == fig3_ids("abcefghip")


def test_min_valid_mu(fig3_tree, t4_tree):
    assert min_valid_mu(fig3_tree) == 2
    assert min_valid_mu(t4_tree) == 0
    chain = make_profile(1, {1}, {1: ((5,), {2}), 2: ((4,), {3}), 3: ((3,), ())})
    assert min_valid_mu(compute_market(chain)) == 1
    star = make_profile(1, {1, 2, 3}, {i: ((i,), ()) for i in (1, 2, 3)})
    assert min_valid_mu(compute_market(star)) == 0


def test_robust_mu_equals_min_on_out_trees(fig3_profile, t4_profile):
    for profile in (fig3_profile, t4_profile):
        tree = compute_market(profile)
        assert robust_mu(profile) == min_valid_mu(tree)


def test_robust_mu_covers_reattachment_on_graphs():
    # 1 and 2 share seller's layer; both list 3; 3 has a child. If 1 hides 3,
    # it reattaches under 2 and grows |C_2^P|.
    profile = make_profile(1, {1, 2}, {
        1: ((5,), {3}), 2: ((4,), {3, 5}), 3: ((3,), {4}),
        4: ((2,), ()), 5: ((1,), {6}), 6: ((1,), ()),
    })
    assert min_valid_mu(compute_market(profile)) == 1
    assert robust_mu(profile) == 2
    hidden = profile.with_report(1, ReportedType((5,), frozenset()))
    tree = compute_market(hidden)
    assert min_valid_mu(tree) == 2  # within the robust bound


def test_partition_and_capacity_invariants():
    rng = random.Random(3)
    for trial in range(60):
        n = rng.randint(2, 9)
        k = rng.randint(1, 3)
        buyers = {}
        for i in range(n):
            invites = {j for j in range(i + 1, n) if rng.random() < 0.4}
            values = tuple(sorted((rng.randint(0, 9) for _ in range(k)), reverse=True))
            buyers[i] = (values, invites)
        profile = make_profile(k, {0}, buyers)
        tree = compute_market(profile)
        mu = min_valid_mu(tree)
        removed = removed_sets_for(tree, mu)
        for i in tree.valid:
            p = potential_inviters(tree, i)
            w = potential_winners(tree, i, mu)
            assert not (p & w)
            r = removed[i]
            assert r == p | w
            assert r <= tree.children[i]
            assert len(r) <= k + mu


def test_mu_overestimation_grows_winner_set_monotonically(fig3_tree):
    b = lid("b")
    previous = frozenset()
    for mu in range(2, 7):
        current = potential_winners(fig3_tree, b, mu)
        assert previous <= current
        previous = current
    # with a huge mu every child is removed
    assert potential_winners(fig3_tree, b, 10) == fig3_ids("dehi")


def test_observation1_value_stability():
    # membership in the parent's removed set fixed => the whole set is fixed
    base = make_profile(1, {1}, {
        1: ((5,), {2, 3, 4}), 2: ((4,), {5}), 3: ((3,), ()),
        4: ((2,), ()), 5: ((1,), ()),
    })
    tree = compute_market(base)
    mu = min_valid_mu(tree)
    for deviator in (2, 3, 4):
        truthful = removed_sets_for(tree, mu)[1]
        for value in range(0, 8):
            dev = base.with_report(
                deviator, ReportedType((value,), base.reports[deviator].invited))
            dev_tree = compute_market(dev)
            dev_set = removed_sets_for(dev_tree, mu)[1]
            if deviator in truthful and deviator in dev_set:
                assert dev_set == truthful


def test_observation2_invitation_stability():
    base = make_profile(1, {1}, {
        1: ((5,), {2, 3}), 2: ((4,), {4, 5}), 3: ((3,), ()),
        4: ((2,), ()), 5: ((1,), ()),
    })
    tree = compute_market(base)
    mu = min_valid_mu(tree)
    truthful = removed_sets_for(tree, mu)[1]
    full = base.reports[2].invited
    for r in range(len(full) + 1):
        for subset in itertools.combinations(sorted(full), r):
            dev = base.with_report(2, ReportedType((4,), frozenset(subset)))
            dev_tree = compute_market(dev)
            dev_set = removed_sets_for(dev_tree, mu)[1]
            if 2 in truthful and 2 in dev_set:
                assert dev_set == truthful


def test_winners_are_ranked_only_for_the_layers_asked_for(monkeypatch):
    # mu is checked against |C_1^P| = 2 up front, but only layer 1's C^R is
    # built while R_1 is the only set read
    tree = compute_market(sold_out_in_layer_one())
    ranked = []

    def counting(tree, children, inviters, mu):
        ranked.append(children)
        return removed_set_of(tree, children, inviters, mu)

    monkeypatch.setattr(removed_sets, "removed_set_of", counting)
    with pytest.raises(MuTooSmall):
        next(removed_sets.layer_removed_sets(tree, 1))
    assert ranked == []
    layers = removed_sets.layer_removed_sets(tree, 2)
    assert next(layers) == {1, 2, 3, 4, 5}
    assert ranked == [tree.children[0]]
    assert next(layers) == {2, 3, 4, 5} and ranked == [tree.children[0], tree.children[1]]


def test_inviter_sets_are_built_once_per_tree(monkeypatch, tmp_path, capsys):
    """C^P is read for `run`'s default mu and again by LDM's run, and by
    `run_properties` for `min_valid_mu`, the truthful run, each value
    rerun's patched copies of a market and each deviated market: it is
    built once per tree, kept on the market and carried by `with_values`."""
    built = []
    build = removed_sets._build_inviter_sets
    monkeypatch.setattr(removed_sets, "_build_inviter_sets",
                        lambda children: built.append(children) or build(children))
    doc = json.loads((DATA / "fig3.json").read_text())
    del doc["mu"]
    path = tmp_path / "fig3-no-mu.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--mechanism", "ldm"]) == 0
    assert "defaulting to min valid bound 2" in capsys.readouterr().err
    assert len(built) == 1
    # fig3 is its own BFS tree: the truthful run answers every deviation
    built.clear()
    profile = parse_instance(path.read_text())
    assert all(r.ok for r in run_properties(profile, "ldm", PROPERTY_NAMES))
    assert len(built) == 1
    # on a graph, the truthful market, and each deviated one once
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                             edge_density=0.15)
    graphs = 0
    for profile in instance_stream(config, 40):
        market = compute_market(profile)
        if all(profile.reports[i].invited == market.children[i] for i in market.valid):
            continue
        built.clear()
        run_properties(profile, "ldm", ("ir", "invite-ic", "value-ic"))
        assert len(built) == 1 + ldm_walked_classes(profile, market)
        graphs += 1
    assert graphs == 20
