"""Own-tree deviations read from the truthful LDM run, against the markets
they stand for.

On an own tree (every valid buyer invites exactly her BFS children), a
buyer i who invites only `kept` of her children C_i gets her value rerun
from the truthful run's layer pools (`ldm_run_value_rerun(trace, i, kept)`),
and her layer peers' outcomes too (`ldm_run_peer_outcomes`). The oracle is
the slow path: `compute_market` of the profile with her report changed,
then `ldm_value_rerun` and `run_ldm` on that market. Menus, answers and
every peer's (units, payment) must be equal, at every mu from
`min_valid_mu` to `min_valid_mu` + 2, with and without a reserve. On a
graph, only a buyer's full set is read; every other deviation is set up
on its own market.
"""

import itertools
import random
from collections import Counter

import pytest

from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import ReportedType, compute_market
from netauction.mechanisms import (inject_dummies, ldm_run_peer_outcomes, ldm_run_value_rerun,
                                   ldm_value_rerun, run_ldm, run_ldm_tree)
from netauction.removed_sets import layer_free_sets, min_valid_mu, robust_mu
from netauction.verify import _tree_profile, integer_value_grid, ldm_mechanism, run_properties

import reference_verify as ref
from conftest import (chain_profile, counted_reruns, ldm_walked_classes, make_profile,
                      sold_out_in_layer_one)
from test_deep_layers import combs

# (stream, instances): criterion 3's tree stream, its graph stream read as
# BFS trees, the crowded, wide and deep streams, and one with values <= 3,
# whose ties reach the C^W quota boundary
STREAMS = {
    "seed301-tree": (GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10), 100),
    "seed302-graph": (GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                                      topology="graph", edge_density=0.15), 100),
    "seed5-crowded": (GeneratorConfig(seed=5, buyers=(5, 9), k=(1, 2), topology="graph",
                                      edge_density=0.2), 60),
    "seed7-wide": (GeneratorConfig(seed=7, buyers=(8, 12), k=(1, 4)), 30),
    "seed9-deep": (GeneratorConfig(seed=9, buyers=(20, 40), k=(1, 5), max_depth=4,
                                   seller_bias=0.3), 8),
    "vmax3": (GeneratorConfig(seed=11, buyers=(4, 10), k=(1, 3), v_max=3), 100),
}
MAX_CHILDREN = 5  # past it, a buyer's subsets are not all walked
CHECKS = ("ir", "invite-ic", "value-ic")


def crowded_parents(count, seed=41):
    """Trees in which layer-1 buyer 0 has one to three children who invite
    and two to six who do not: the shape where a child who hides all of
    hers is ranked with the others and can lose her place in C^R_0, which
    the generated streams rarely reach."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 3)

        def values():
            return tuple(sorted((rng.randint(0, 9) for _ in range(k)), reverse=True))

        inviting = rng.randint(1, 3)
        kids = list(range(2, 4 + inviting + rng.randint(0, 4)))
        buyers = {0: (values(), kids), 1: (values(), [])}
        ids = itertools.count(kids[-1] + 1)
        for c in kids:
            below = [next(ids) for _ in range(rng.randint(1, 3))] if c < 2 + inviting else []
            buyers[c] = (values(), below)
            buyers.update((b, (values(), [])) for b in below)
        yield make_profile(k, {0, 1}, buyers)


def profiles(stream):
    if stream == "crowded-parents":
        return crowded_parents(150)
    config, count = STREAMS[stream]
    return (own_tree(profile) for profile in instance_stream(config, count))


def own_tree(profile):
    """The profile as its own BFS tree."""
    return _tree_profile(profile, compute_market(profile))


def deviations(market):
    """(i, kept) for every buyer with children and every proper subset of
    them, all of them up to `MAX_CHILDREN` children, else the empty set."""
    for i in sorted(market.valid):
        children = sorted(market.children[i])
        sizes = range(len(children)) if len(children) <= MAX_CHILDREN else (0,)
        for r in sizes:
            for kept in itertools.combinations(children, r):
                yield i, frozenset(kept)


def moved(market, deviated, mu, i):
    """Which free sets of the layers around i's the deviation moves: her
    parent's (F_{L-1}, whose C^R_p swaps her out) and her own (F_L)."""
    layer = market.layer_of[i]
    before = list(itertools.islice(layer_free_sets(market, mu), layer))
    after = list(itertools.islice(layer_free_sets(deviated, mu), layer))
    return layer > 1 and before[-2] != after[-2], before[-1] != after[-1]


def assert_reads_match(profile, mus, cap=40):
    """Every deviation's rerun and peer read against the deviated market,
    at each mu. Returns the deviations compared."""
    cases = 0
    market = compute_market(profile)
    for mu in mus:
        outcome = run_ldm_tree(market, mu)
        for i, kept in deviations(market):
            report = ReportedType(profile.reports[i].values, kept)
            deviated = compute_market(profile.with_report(i, report))
            read = ldm_run_value_rerun(outcome.trace, i, kept)
            set_up = ldm_value_rerun(deviated, mu, i)
            assert read.menu == set_up.menu, (mu, i, kept)
            for v in (report.values, *integer_value_grid(profile, i, cap)):
                assert read.answer(v) == set_up.answer(v), (mu, i, kept, v)
            peers = ldm_run_peer_outcomes(outcome, i, kept)
            run = run_ldm(deviated, mu)
            for j in market.layers[market.layer_of[i] - 1] - {i}:
                assert ((peers.units_of(j), peers.payment_of(j))
                        == (run.units_of(j), run.payment_of(j))), (mu, i, kept, j)
            cases += 1
    return cases


def mus_of(profile):
    low = min_valid_mu(compute_market(profile))
    return range(low, low + 3)


@pytest.mark.parametrize("stream", [*STREAMS, "crowded-parents"])
@pytest.mark.parametrize("reserve", [None, 3], ids=["no-reserve", "reserve-3"])
def test_reads_match_the_deviated_markets(stream, reserve):
    cases = 0
    for profile in profiles(stream):
        if reserve is not None:
            profile = inject_dummies(profile, reserve)
        cases += assert_reads_match(profile, mus_of(profile))
    assert cases > 800


def test_the_streams_move_both_free_sets():
    """The deviations above leave F_L short of some children (X), and swap
    buyers out of their parents' C^R, so that layer L - 1 is solved again:
    (moves F_{L-1}, moves F_L) -> deviations, over every stream at every
    mu, without reserve."""
    kinds = Counter()
    for stream in (*STREAMS, "crowded-parents"):
        for profile in profiles(stream):
            market = compute_market(profile)
            for mu in mus_of(profile):
                for i, kept in deviations(market):
                    deviated = compute_market(profile.with_report(
                        i, ReportedType(profile.reports[i].values, kept)))
                    kinds[moved(market, deviated, mu, i)] += 1
    assert kinds[False, True] > 1000 and kinds[True, False] > 100


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reads_match_on_combs(k):
    assert sum(assert_reads_match(profile, mus_of(profile)) for profile in combs(k)) > 1000


def swap_profile(value):
    """seller -> 0 -> {1, 2, 3, 4}, 1 -> {5, 6}, K = 1, mu = 1: C^P_0 = {1},
    and the quota of 1 gives C^W_0 = {2}, so 3 (7) outbids 0 (5) in layer
    1's pool and the unit passes to layer 2, where 2 (8) wins it. When 1,
    bidding `value`, hides both children, she is ranked with 2, 3 and 4
    for a quota of 2 and loses to 2 and 3: 3 takes her place in C^R_0,
    and 1 joins layer 1's pool."""
    return make_profile(1, {0}, {
        0: ((5,), [1, 2, 3, 4]), 1: ((value,), [5, 6]), 2: ((8,), []), 3: ((7,), []),
        4: ((4,), []), 5: ((9,), []), 6: ((3,), []),
    })


@pytest.mark.parametrize("value, sold", [(1, True), (6, False)])
def test_a_swap_re_solves_the_parents_layer(value, sold):
    """Bidding 1, buyer 1 leaves 0 the top of layer 1's pool: 0 takes the
    unit and commits it, and 2 loses it. Bidding 6, 1 outbids 0 there and
    the unit passes to layer 2 as in the run. Each is compared with the
    deviated market's run."""
    profile = swap_profile(value)
    market = compute_market(profile)
    outcome = run_ldm_tree(market, 1)
    assert outcome.units_of(2) == 1
    deviated = compute_market(profile.with_report(1, ReportedType((value,), frozenset())))
    assert moved(market, deviated, 1, 1) == (True, False)
    assert run_ldm(deviated, 1).units_of(0) == sold
    peers = ldm_run_peer_outcomes(outcome, 1, frozenset())
    assert peers is not outcome and peers.units_of(2) == (not sold)
    # 0 has 15 proper subsets, 1 has 3
    assert assert_reads_match(profile, (1,)) == 18


def test_a_deletion_that_moves_nothing_gives_back_the_run():
    """Every child of 0 fits her C^W quota, so hiding one moves no free
    set: the read is the truthful outcome itself, which child monotonicity
    skips."""
    profile = make_profile(2, {0, 1}, {0: ((5, 1), [2, 3]), 1: ((4, 4), []),
                                       2: ((3, 0), []), 3: ((2, 2), [])})
    outcome = run_ldm_tree(compute_market(profile), 0)
    assert ldm_run_peer_outcomes(outcome, 0, frozenset({2})) is outcome
    assert assert_reads_match(profile, (0,)) == 3


def answer(call):
    """`call()`, or the message of the `MuTooSmall` it raises."""
    try:
        return call()
    except MuTooSmall as exc:
        return str(exc)


def test_graph_deviations_are_set_up_and_full_sets_read(monkeypatch):
    """On a graph, the proper subsets a buyer walks that keep the same
    children share one class, keyed by S + N_i, N_i her invitees who are
    not her children: each class but her full set's is set up once, on the
    market of its first subset, and the full set's class is read from the
    truthful run unless the run refuses the buyer: at every mu from the
    truthful market's `min_valid_mu` to `robust_mu`. The reports, or the
    bound raised where a deviated market needs a larger mu, are the
    reference's."""
    reruns = counted_reruns(monkeypatch)
    deviated = read = raised = 0
    for profile in instance_stream(STREAMS["seed302-graph"][0], 100):
        market = compute_market(profile)
        if own_tree(profile).reports == profile.reports:
            continue
        for mu in range(min_valid_mu(market), robust_mu(profile) + 1):
            reruns.clear()
            found = answer(lambda: [r.reports for r in run_properties(profile, "ldm", CHECKS,
                                                                      mu=mu)])
            walked = list(reruns)  # the reference's reruns come next
            mechanism = ldm_mechanism(mu)
            assert found == answer(lambda: [tuple(ref.check_ir(mechanism, profile)),
                                            tuple(ref.check_invitation_ic(mechanism, profile)),
                                            tuple(ref.check_value_ic(mechanism, profile))])
            trace = run_ldm_tree(market, mu).trace
            subsets = Counter()
            full_sets = set()
            for path, rerun_market, i, _ in walked:
                invited = profile.reports[i].invited
                if rerun_market.profile is profile:
                    full_sets.add(i)
                    assert (path == "run") == (ldm_run_value_rerun(trace, i, invited)
                                               is not None), (mu, i)
                else:
                    assert path == "set-up", (mu, i)
                    sub = rerun_market.profile.reports[i].invited
                    assert sub < invited, (mu, i)
                    subsets[i, sub | (invited - market.children[i])] += 1
            assert all(key < profile.reports[i].invited and count == 1
                       for (i, key), count in subsets.items())
            raised += isinstance(found, str)
            if not isinstance(found, str):
                assert full_sets == market.valid
                assert sum(subsets.values()) == ldm_walked_classes(profile, market)
            deviated += sum(subsets.values())
            read += sum(path == "run" for path, *_ in walked)
    # 2,032 set-ups with one per walked subset
    assert (deviated, read, raised) == (768, 775, 16)


@pytest.mark.parametrize("profile", [sold_out_in_layer_one(), chain_profile(6, 1)],
                         ids=["sold-out-in-layer-one", "chain"])
def test_a_layer_one_sell_out_answers_two_layers_down(profile, monkeypatch):
    """The run sells its one unit in layer 1, so every buyer two or more
    layers down reads ((0, 0),) from it, under every invitation report of
    hers, as the set-up on the market that report makes does; the checks
    read her reruns with no refusal and no set-up."""
    reruns = counted_reruns(monkeypatch)
    market = compute_market(profile)
    deep = {i for i in market.valid if market.layer_of[i] >= 3}
    assert deep
    for mu in range(min_valid_mu(market), robust_mu(profile) + 2):
        trace = run_ldm_tree(market, mu).trace
        assert len(trace.pools) == 1 and trace.layers[0].k_remain_after == 0
        for i in deep:
            rep = profile.reports[i]
            for r in range(len(rep.invited) + 1):
                for kept in map(frozenset, itertools.combinations(sorted(rep.invited), r)):
                    found = ldm_run_value_rerun(trace, i, kept)
                    assert found is not None and found.menu == ((0, 0),), (mu, i, kept)
                    deviated = compute_market(profile.with_report(
                        i, ReportedType(rep.values, kept)))
                    assert ldm_value_rerun(deviated, mu, i).menu == ((0, 0),), (mu, i, kept)
        reruns.clear()
        run_properties(profile, "ldm", CHECKS, mu=mu)
        deep_reruns = [(path, rerun.menu) for path, _, i, rerun in reruns if i in deep]
        assert deep_reruns and set(deep_reruns) == {("run", ((0, 0),))}, mu
