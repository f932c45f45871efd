"""Report validation, valid-buyer resolution, BFS trees, cumulative value."""

import random

import pytest

from netauction.errors import ContractError, ValidationError
from netauction.market import (
    DUMMY_BASE,
    ReportProfile,
    ReportedType,
    compute_market,
    cumulative_value,
    validate_profile,
)

from conftest import fig3_ids, make_profile


def test_validate_accepts_well_formed():
    profile = make_profile(2, {1}, {1: ((10, 4), {2}), 2: ((3, 0), ())})
    assert validate_profile(profile) is profile


def test_validate_rejects_increasing_marginals():
    with pytest.raises(ValidationError) as err:
        make_profile(2, {1}, {1: ((4, 10), ())})
    assert "non-increasing" in str(err.value)
    assert err.value.buyer == 1


def test_validate_rejects_unknown_invitee():
    with pytest.raises(ValidationError):
        make_profile(2, {1}, {1: ((10, 4), {99})})


def test_validate_rejects_wrong_length_and_self_invite_and_negative():
    with pytest.raises(ValidationError):
        make_profile(2, {1}, {1: ((10,), ())})
    with pytest.raises(ValidationError):
        make_profile(1, {1}, {1: ((10,), {1})})
    with pytest.raises(ValidationError):
        make_profile(1, {1}, {1: ((-1,), ())})


def test_validate_rejects_unknown_seller_neighbor_and_bad_k():
    with pytest.raises(ValidationError):
        make_profile(1, {7}, {1: ((5,), ())})
    with pytest.raises(ValidationError):
        validate_profile(ReportProfile(k=0, seller_neighbors=frozenset(),
                                       reports={}))


@pytest.mark.parametrize("mu", ["2", 2.0, True])
def test_validate_rejects_a_mu_that_is_not_an_integer(mu):
    profile = ReportProfile(k=1, seller_neighbors=frozenset(), reports={}, mu=mu)
    with pytest.raises(ValidationError, match="mu must be an integer when present"):
        validate_profile(profile)


def test_validate_reports_first_violation_in_id_order():
    with pytest.raises(ValidationError) as err:
        make_profile(2, {1}, {1: ((1, 2), ()), 2: ((5, 9), ())})
    assert err.value.buyer == 1


def test_validate_rejects_reserved_dummy_ids():
    # such a buyer would be treated as a reserve dummy: with k=1 LDM withheld
    # the unit from her and VCG sold nothing
    with pytest.raises(ValidationError) as err:
        make_profile(1, {2, DUMMY_BASE}, {DUMMY_BASE: ((9,), ()), 2: ((4,), ())})
    assert err.value.buyer == DUMMY_BASE


def test_compute_market_layers():
    profile = make_profile(1, {1, 2}, {
        1: ((5,), {3}), 2: ((4,), ()), 3: ((2,), ()),
    })
    market = compute_market(profile)
    assert market.valid == {1, 2, 3}
    assert market.layers == (frozenset({1, 2}), frozenset({3}))
    assert market.layer_of == {1: 1, 2: 1, 3: 2}


def test_compute_market_excludes_uninvited():
    profile = make_profile(1, {1}, {1: ((5,), ()), 5: ((9,), ())})
    market = compute_market(profile)
    assert market.valid == {1}
    assert 5 in profile.reports


def test_compute_market_cycle_gets_shortest_chain():
    profile = make_profile(1, {1}, {1: ((5,), {2}), 2: ((4,), {1})})
    market = compute_market(profile)
    assert market.valid == {1, 2}
    assert market.layer_of[2] == 2


def test_compute_market_empty_seller_neighbors():
    profile = make_profile(1, set(), {1: ((5,), ())})
    market = compute_market(profile)
    assert market.valid == frozenset()
    assert market.layers == ()


def test_bfs_tree_of_tree_is_identity(fig3_profile):
    tree = compute_market(fig3_profile)
    b, f, g, q = (list(fig3_ids(c))[0] for c in "bfgq")
    assert tree.children[b] == frozenset(fig3_ids("defghi"))
    assert tree.children[f] == frozenset(fig3_ids("j"))
    assert tree.children[g] == frozenset(fig3_ids("klmnop"))
    assert all(b not in c for c in tree.children.values())  # a child of the seller
    assert tree.depth == 4
    assert tree.subtree(b) == fig3_ids("defghijklmnopqr")
    assert tree.subtree(q) == set()


def test_bfs_diamond_parent_is_smallest_id():
    profile = make_profile(1, {1, 2}, {
        1: ((5,), {3}), 2: ((4,), {3}), 3: ((2,), ()),
    })
    tree = compute_market(profile)
    assert [i for i, c in tree.children.items() if 3 in c] == [1]
    assert tree.children[1] == {3}
    assert tree.children[2] == frozenset()


def test_bfs_layers_equal_market_layers_on_random_graphs():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        buyers = {}
        for i in range(n):
            invites = {j for j in range(n) if j != i and rng.random() < 0.3}
            buyers[i] = ((rng.randint(0, 9),), invites)
        seller = {i for i in range(n) if rng.random() < 0.4}
        profile = make_profile(1, seller, buyers)
        market = compute_market(profile)
        owners = {i: [p for p, c in market.children.items() if i in c] for i in market.valid}
        for i in market.valid:
            d = market.layer_of[i]
            if d == 1:
                assert owners[i] == []
                continue
            # exactly one owner: the smallest-id inviter in the previous layer
            inviters = [p for p in market.layers[d - 2] if i in profile.reports[p].invited]
            assert owners[i] == [min(inviters)]


def test_layer_soundness_against_shortest_path_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        buyers = {
            i: ((rng.randint(0, 9),),
                {j for j in range(n) if j != i and rng.random() < 0.35})
            for i in range(n)
        }
        seller = {i for i in range(n) if rng.random() < 0.5}
        profile = make_profile(1, seller, buyers)
        market = compute_market(profile)
        # independent oracle: iterative relaxation over directed invites
        dist = {i: 1 for i in seller}
        changed = True
        while changed:
            changed = False
            for i, d in list(dist.items()):
                for j in profile.reports[i].invited:
                    if j not in dist or dist[j] > d + 1:
                        dist[j] = d + 1
                        changed = True
        assert dist == dict(market.layer_of)


def test_definition2_invalid_buyer_reports_are_inert(fig3_profile):
    from netauction.mechanisms import run_ldm, run_vcg_first_layer, run_dna_mu

    extra = dict(fig3_profile.reports)
    extra[99] = ReportedType((9, 9, 9), frozenset())
    with_ghost = ReportProfile(k=3, seller_neighbors=fig3_profile.seller_neighbors,
                               reports=extra)
    base = compute_market(fig3_profile)
    ghost = compute_market(with_ghost)
    assert ghost.valid == base.valid
    for run in (
        lambda m: run_ldm(m, 2),
        run_vcg_first_layer,
        run_dna_mu,
    ):
        a, b = run(base), run(ghost)
        assert a.units == b.units and a.payments == b.payments


def test_bfs_determinism(fig3_profile):
    t1, t2 = compute_market(fig3_profile), compute_market(fig3_profile)
    assert t1.children == t2.children


def test_cumulative_value():
    assert cumulative_value((10, 4), 2) == 14
    assert cumulative_value((10, 4), 0) == 0
    assert cumulative_value((4, 3, 1), 2) == 7
    with pytest.raises(ContractError):
        cumulative_value((10, 4), 3)
    with pytest.raises(ContractError):
        cumulative_value((10, 4), -1)
