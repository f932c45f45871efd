"""The property harness itself: checkers catch planted violations and stay
silent on the layer-based mechanism."""

import dataclasses
import itertools
import time

import pytest

from netauction import verify
from netauction.errors import ContractError, SearchBudgetExceeded, TraceMissing
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.market import compute_market, cumulative_value
from netauction.mechanisms import (Outcome, inject_dummies, is_dummy, run_dna_mu, run_ldm,
                                   run_ldm_tree, run_vcg_first_layer)
from netauction.removed_sets import robust_mu
from netauction.verify import (
    PROPERTY_NAMES,
    DecompositionRow,
    MechanismUnderTest,
    check_child_monotonicity,
    check_decomposition_inequalities,
    check_invitation_ic,
    check_ir,
    check_non_wasteful,
    check_value_ic,
    compare_vs_vcg,
    dna_mu_mechanism,
    integer_value_grid,
    ldm_mechanism,
    payment_decomposition,
    run_properties,
    search_counterexample,
    vcg_mechanism,
)

import reference_ldm
from conftest import DATA, ldm_walked_classes, make_profile
from test_deep_layers import comb


# The criterion-3 generator streams.
CRITERION_STREAMS = pytest.mark.parametrize("config", [
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                    edge_density=0.15),
], ids=["seed301-tree", "seed302-graph"])


@pytest.fixture(scope="module")
def counterexample_profile():
    return parse_instance((DATA / "dna_mu_counterexample.json").read_text())


def pay_your_bid_on_losers() -> MechanismUnderTest:
    """Deliberately broken: losers owe their first-unit report."""

    def run(market):
        vcg = run_vcg_first_layer(market)
        payments = dict(vcg.payments)
        for i in market.valid:
            if not vcg.units_of(i):
                payments[i] = market.first_unit(i)
        return Outcome(units=vcg.units, payments=payments)

    return MechanismUnderTest("pay-your-bid-on-losers", run)


def test_check_ir_passes_ldm(t4_profile, fig3_profile):
    assert check_ir(ldm_mechanism(1), t4_profile) == []
    assert check_ir(ldm_mechanism(2), fig3_profile) == []


def test_check_ir_flags_broken_mechanism(t4_profile):
    reports = check_ir(pay_your_bid_on_losers(), t4_profile)
    assert reports
    assert all(r.deviating_utility < 0 for r in reports)
    assert all(r.kind == "ir" for r in reports)
    # the full invitation set is checked too, including each childless loser's
    assert [r.buyer for r in reports if r.deviating_report == r.truthful_report] == [1, 3, 4, 5]


def test_check_ir_budget_guard():
    """Seven invitations raise where the subsets are enumerated: here 1 and
    2 invite each other, so the instance is not its own BFS tree and LDM
    certifies no buyer."""
    profile = make_profile(1, {0}, {
        0: ((9,), set(range(1, 8))),
        1: ((1,), {2}), 2: ((1,), {1}),
        **{i: ((1,), ()) for i in range(3, 8)},
    })
    with pytest.raises(SearchBudgetExceeded):
        check_ir(ldm_mechanism(0), profile)


def test_invitation_ic_ldm_t4_clean_with_known_margin(t4_profile):
    assert check_invitation_ic(ldm_mechanism(1), t4_profile) == []
    # the documented margin: full invitation earns 3, hiding buyer 5 earns 0
    from netauction.market import ReportedType
    from netauction.verify import utility_of

    mech = ldm_mechanism(1)
    full = utility_of(t4_profile, 1, mech.run(compute_market(t4_profile)))
    hidden = utility_of(
        t4_profile, 1,
        mech.run(compute_market(
            t4_profile.with_report(1, ReportedType((1,), frozenset({3, 4}))))),
    )
    assert (full, hidden) == (3, 0)


def test_invitation_ic_catches_dna_mu(counterexample_profile):
    reports = check_invitation_ic(dna_mu_mechanism(), counterexample_profile)
    assert reports
    first = reports[0]
    assert first.buyer == 4
    assert first.truthful_utility == 0
    assert first.deviating_utility == 1
    assert first.deviating_report.invited < first.truthful_report.invited


def test_invitation_ic_no_neighbors_is_vacuous():
    profile = make_profile(1, {1}, {1: ((5,), ())})
    assert check_invitation_ic(ldm_mechanism(0), profile) == []


def materialised_value_grid(instance, buyer, cap=128):
    """The grid as first written: build every vector, then stride."""
    top = max((rep.values[0] for rep in instance.reports.values() if rep.values), default=0)
    full = list(itertools.combinations_with_replacement(range(top + 2, -1, -1), instance.k))
    if len(full) <= cap:
        return full
    picked = full[::-(-len(full) // cap)]
    zero = (0,) * instance.k
    if picked[-1] != zero:
        picked.append(zero)
    return picked


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_value_grid_matches_materialised_grid(k):
    for top in range(29):  # v_cap = top + 2 up to 30
        profile = make_profile(k, {1, 2}, {1: ((top,) + (0,) * (k - 1), ()),
                                           2: ((0,) * k, ())})
        for cap in (1, 5, 40, 128, 1000):
            assert integer_value_grid(profile, 2, cap) == materialised_value_grid(profile, 2, cap)


@pytest.mark.parametrize("cap", [0, -1])
def test_value_grid_refuses_a_cap_below_one(cap):
    profile = make_profile(1, {1}, {1: ((3,), ())})
    with pytest.raises(ContractError, match=f"grid cap must be >= 1, got {cap}"):
        integer_value_grid(profile, 1, cap)


def test_value_grid_for_large_values_builds_only_the_kept_vectors():
    # the full grid would hold C(1002 + 3, 3), about 1.7e8 vectors
    profile = make_profile(3, {1}, {1: ((1000, 999, 998), ())})
    started = time.perf_counter()
    grid = integer_value_grid(profile, 1)
    assert time.perf_counter() - started < 1.0
    assert len(grid) <= 129
    assert grid[0] == (1002, 1002, 1002) and grid[-1] == (0, 0, 0)
    assert all(a >= b >= c for a, b, c in grid) and grid == sorted(set(grid), reverse=True)


def test_value_ic_ldm_t4_full_grid(t4_profile):
    grid = lambda inst, buyer: integer_value_grid(inst, buyer, cap=10_000)
    assert check_value_ic(ldm_mechanism(1), t4_profile, grid) == []


def test_value_ic_fast_path_matches_slow_path(fig3_profile):
    cfg = GeneratorConfig(seed=77, buyers=(3, 6), k=(1, 2), v_max=5)
    for profile in instance_stream(cfg, 5):
        fast = ldm_mechanism(robust_mu(profile))
        slow = MechanismUnderTest("ldm", fast.run)
        grid = lambda inst, buyer: integer_value_grid(inst, buyer, cap=40)
        assert check_value_ic(fast, profile, grid) == check_value_ic(slow, profile, grid)


def test_value_ic_catches_overreporting_exposure():
    """First-price-style rule: winners pay their own bid; overstating values
    to grab more units must surface as a value-IC violation."""

    def run(market):
        vcg = run_vcg_first_layer(market)
        payments = {
            i: cumulative_value(market.values_of(i), u) if u else 0
            for i, u in vcg.units.items()
        }
        return Outcome(units=vcg.units, payments=payments)

    mech = MechanismUnderTest("first-price", run)
    profile = make_profile(1, {1, 2}, {1: ((6,), ()), 2: ((4,), ())})
    reports = check_value_ic(mech, profile)
    assert reports
    assert all(r.kind == "value-ic" for r in reports)


def test_non_wasteful(t4_profile, fig3_profile):
    t4, fig3 = compute_market(t4_profile), compute_market(fig3_profile)
    assert check_non_wasteful(run_ldm_tree(t4, 1), t4)
    assert check_non_wasteful(run_ldm_tree(fig3, 2), fig3)
    empty = compute_market(make_profile(2, set(), {1: ((5, 1), ())}))
    from netauction.mechanisms import run_ldm
    assert check_non_wasteful(run_ldm(empty, 0), empty)


def test_compare_vs_vcg(fig3_profile, t4_profile):
    cmp3 = compare_vs_vcg(compute_market(fig3_profile), 2)
    assert (cmp3.ldm_revenue, cmp3.vcg_revenue) == (9, 3)
    assert cmp3.welfare_dominates and cmp3.revenue_dominates
    cmp4 = compare_vs_vcg(compute_market(t4_profile), 1)
    assert (cmp4.ldm_revenue, cmp4.vcg_revenue) == (5, 1)


def test_compare_degenerates_without_diffusion():
    profile = make_profile(2, {1, 2, 3}, {
        1: ((5, 2), ()), 2: ((4, 1), ()), 3: ((3, 3), ()),
    })
    cmp = compare_vs_vcg(compute_market(profile), 0)
    assert cmp.ldm_welfare == cmp.vcg_welfare
    assert cmp.ldm_revenue == cmp.vcg_revenue


def test_payment_decomposition_t4(t4_profile):
    tree = compute_market(t4_profile)
    out = run_ldm_tree(tree, 1)
    rows = payment_decomposition(out)
    by_buyer = {r.buyer: r for r in rows}
    row1 = by_buyer[1]
    assert (row1.m, row1.t, row1.q, row1.p) == (1, 7, 4, -3)
    row3 = by_buyer[3]
    assert row3.t == 0 and row3.q == row3.p == 8
    vcg = run_vcg_first_layer(compute_market(t4_profile))
    first, second = check_decomposition_inequalities(rows, vcg)
    assert first and second
    assert sum(r.q for r in rows if r.layer == 1) == 4 >= vcg.revenue


def test_payment_decomposition_requires_trace(t4_profile):
    # DNA-MU's outcome carries a trace, but not an LDM one
    out = run_dna_mu(compute_market(t4_profile))
    with pytest.raises(TraceMissing):
        payment_decomposition(out)


@CRITERION_STREAMS
def test_payment_decomposition_of_first_layer_vcg(config):
    """VCG-L1's trace is LDM's one layer at mu 0: every row is a real
    layer-1 buyer with no resale credit, whose charge is her Clarke payment,
    and the charges sum to the revenue."""
    rows_seen = charged = 0
    for index, profile in enumerate(instance_stream(config, 500)):
        for priced in (profile, inject_dummies(profile, index % 6)):
            market = compute_market(priced)
            out = run_vcg_first_layer(market)
            rows = payment_decomposition(out)
            assert sorted(r.buyer for r in rows) == sorted(
                i for i in market.layers[0] if not is_dummy(i))
            assert all(r.layer == 1 and r.t == 0 and r.q == r.p for r in rows)
            assert sum(r.q for r in rows) == out.revenue
            rows_seen += len(rows)
            charged += sum(1 for r in rows if r.p)
    # 2,194 and 2,268 rows, 1,220 and 1,277 of them with a payment
    assert rows_seen > 2_000 and charged > 1_000


def test_decomposition_single_layer_second_family_vacuous():
    profile = make_profile(1, {1, 2}, {1: ((5,), ()), 2: ((3,), ())})
    tree = compute_market(profile)
    out = run_ldm_tree(tree, 0)
    rows = payment_decomposition(out)
    vcg = run_vcg_first_layer(compute_market(profile))
    first, second = check_decomposition_inequalities(rows, vcg)
    assert first and second


def test_payment_decomposition_on_a_reserve_run_selling_past_layer_one():
    # K = 2 dummies bid 2 in layer 1. Spine root 0 keeps a unit from layer 1
    # on, so every later record has a frozen buyer holding units, while the
    # other unit goes down the spine
    profile = comb(5, 2, 2, 3)
    market = compute_market(inject_dummies(profile, 2))
    out = run_ldm(market, 1)
    assert len(out.trace.layers) == 5
    rows = payment_decomposition(out)
    processed = [i for rec in out.trace.layers for i in rec.sw_minus_d]
    assert any(is_dummy(i) for i in processed)
    assert sorted(r.buyer for r in rows) == sorted(i for i in processed if not is_dummy(i))
    oracle = reference_ldm.run_ldm(compute_market(profile), 1, 2)
    assert {r.buyer: r.p for r in rows} == {r.buyer: oracle.payment_of(r.buyer) for r in rows}
    assert {r.layer for r in rows} == {1, 2, 3, 4, 5}


def test_decomposition_inequalities_without_rows_and_with_a_failing_layer_bound():
    paid = Outcome(units={1: 1}, payments={1: 3})
    assert check_decomposition_inequalities([], paid) == (False, True)
    assert check_decomposition_inequalities([], Outcome(units={}, payments={})) == (True, True)
    # layer 2's charges (4) fall short of the resale credits layer 1 gave (5)
    rows = [DecompositionRow(buyer=1, layer=1, m=1, q=3, t=5, p=-2),
            DecompositionRow(buyer=2, layer=2, m=1, q=4, t=0, p=4),
            DecompositionRow(buyer=3, layer=3, m=0, q=0, t=0, p=0)]
    assert check_decomposition_inequalities(rows, paid) == (True, False)
    assert check_decomposition_inequalities(rows[1:], paid) == (False, True)


def test_child_monotonicity_clean_on_ldm(t4_profile, fig3_profile):
    assert check_child_monotonicity(ldm_mechanism(1), t4_profile) == []
    assert check_child_monotonicity(ldm_mechanism(2), fig3_profile) == []


def test_child_monotonicity_childless_vacuous():
    profile = make_profile(1, {1, 2}, {1: ((5,), ()), 2: ((3,), ())})
    assert check_child_monotonicity(ldm_mechanism(0), profile) == []


def test_child_monotonicity_literal_form_is_falsifiable_for_ldm(fig3_profile):
    """Deleting a buyer's LAST child moves her from the parent's
    diffuser set into the winner ranking; at a low enough value the grown
    quota absorbs a sibling instead, which can flip the lower layer's
    committed allocation and starve a same-layer observer. The deviator's
    own utility is unaffected (so IC stands), but the blanket monotonicity
    claim over all child subsets is not true of the mechanism.
    """
    from netauction.market import ReportProfile, ReportedType

    from conftest import FIG3_LABELS as L

    g, d = L.index("g"), L.index("d")
    reports = dict(fig3_profile.reports)
    reports[g] = ReportedType((2, 2, 1), reports[g].invited)
    variant = ReportProfile(k=3, seller_neighbors=fig3_profile.seller_neighbors,
                            reports=reports)
    found = check_child_monotonicity(ldm_mechanism(2), variant)
    assert found
    assert found[0].buyer == d
    assert found[0].truthful_report.invited == frozenset()  # j kept no children
    # the parent-of-g's own deviation margin is untouched: LDM invite-IC holds
    assert check_invitation_ic(ldm_mechanism(2), variant) == []


def test_child_monotonicity_catches_dna_mu(counterexample_profile):
    # b04 gaining from hiding b05 is exactly an observer-side monotonicity
    # failure once reframed, but DNA-MU also fails the direct pairwise check
    # on some instance in this family; assert the checker can fire at all.
    cfg = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), v_max=10,
                          topology="tree", max_depth=3, seller_bias=0.45)
    mech = dna_mu_mechanism()
    hit = None
    for profile in instance_stream(cfg, 6000):
        found = check_child_monotonicity(mech, profile)
        if found:
            hit = found[0]
            break
    assert hit is not None
    assert hit.deviating_utility > hit.truthful_utility


def test_search_counterexample_finds_dna_mu_violation():
    cfg = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), v_max=10,
                          topology="tree", max_depth=3, seller_bias=0.45)
    found = search_counterexample(dna_mu_mechanism(), instance_stream(cfg, 6000), 6000)
    assert found is not None
    index, report = found
    assert index == 5086
    assert report.instance == next(itertools.islice(instance_stream(cfg, 6000), index, None))
    assert report.kind == "invitation-ic"
    assert report.deviating_utility > report.truthful_utility


def test_search_counterexample_value_ic():
    # README's pay-your-bid black box: first-layer VCG's allocation, each
    # winner paying her bid; hiding an invitation never helps, shading a bid does
    def pay_your_bid(market):
        won = run_vcg_first_layer(market).units
        return Outcome(won, {i: cumulative_value(market.values_of(i), u)
                             for i, u in won.items()})

    mechanism = MechanismUnderTest("pay-your-bid", pay_your_bid)
    cfg = GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3))
    assert search_counterexample(mechanism, instance_stream(cfg, 50), 50) is None
    index, report = search_counterexample(mechanism, instance_stream(cfg, 50), 50,
                                          include_value_ic=True)
    assert (index, report.kind, report.buyer) == (1, "value-ic", 1)
    assert (report.truthful_utility, report.deviating_utility) == (0, 4)


def test_search_counterexample_ldm_clean_same_family():
    cfg = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), v_max=10,
                          topology="tree", max_depth=3, seller_bias=0.45)

    def per_instance(profile):
        return ldm_mechanism(robust_mu(profile))

    assert search_counterexample(per_instance, instance_stream(cfg, 400), 400) is None


def test_search_refuses_a_negative_budget():
    cfg = GeneratorConfig(seed=5, buyers=(1, 1), k=(1, 2), v_max=9)
    with pytest.raises(ContractError, match="budget must be >= 0, got -1"):
        search_counterexample(dna_mu_mechanism(), instance_stream(cfg, 5), -1)


def test_search_single_buyer_markets_trivially_clean():
    cfg = GeneratorConfig(seed=5, buyers=(1, 1), k=(1, 2), v_max=9)
    assert search_counterexample(dna_mu_mechanism(), instance_stream(cfg, 50), 50) is None


def test_ic_composition_chain_on_samples(t4_profile):
    """u(v, r) >= u(v, r-hat) >= u(v-hat, r-hat), each link separately."""
    from netauction.market import ReportedType
    from netauction.verify import utility_of

    mech = ldm_mechanism(1)
    full = utility_of(t4_profile, 1, mech.run(compute_market(t4_profile)))
    for sub in (frozenset(), frozenset({3}), frozenset({3, 4})):
        mid_profile = t4_profile.with_report(1, ReportedType((1,), sub))
        mid = utility_of(t4_profile, 1, mech.run(compute_market(mid_profile)))
        assert full >= mid
        for values in ((0,), (5,), (9,), (10,)):
            low = utility_of(
                t4_profile, 1,
                mech.run(compute_market(mid_profile.with_report(1, ReportedType(values, sub)))))
            assert mid >= low


def test_run_properties_all_green_on_t4(t4_profile):
    results = run_properties(t4_profile, "ldm", (
        "ir", "invite-ic", "value-ic", "non-wasteful", "dominance",
        "decomposition", "child-monotonicity", "order-independence",
    ))
    assert all(r.ok for r in results)
    assert len(results) == 8


def test_run_properties_flags_a_broken_payment_and_an_order_dependent_run(monkeypatch,
                                                                          t4_profile):
    """The LDM-only checks fail when the run they read is at fault: one payment
    off by one breaks p = q - t, and a run that reads its buyer order changes
    the outcome under a permutation."""
    run, run_tree = verify.run_ldm, verify.run_ldm_tree

    def overcharged(market, mu):
        out = run(market, mu)
        return dataclasses.replace(out, payments={**out.payments, 3: out.payments[3] + 1})

    def order_dependent(market, mu, order):
        out = run_tree(market, mu, order=order)
        first = order[0]
        return dataclasses.replace(out, payments={**out.payments, first: out.payment_of(first) + 1})

    monkeypatch.setattr(verify, "run_ldm", overcharged)
    [result] = run_properties(t4_profile, "ldm", ("decomposition",))
    assert not result.ok
    assert result.detail == "decomposition identity failed for buyer 3: p=9, q-t=8"
    monkeypatch.setattr(verify, "run_ldm", run)
    monkeypatch.setattr(verify, "run_ldm_tree", order_dependent)
    [result] = run_properties(t4_profile, "ldm", ("order-independence",))
    assert (result.ok, result.detail) == (False, "order changed outcome")


def test_run_properties_resolves_the_truthful_instance_once(monkeypatch, t4_profile):
    markets, ldm_runs = [], []
    build, run = verify.compute_market, verify.run_ldm
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: markets.append(profile) or build(profile))
    monkeypatch.setattr(verify, "run_ldm",
                        lambda market, mu: ldm_runs.append(market.profile) or run(market, mu))
    results = run_properties(t4_profile, "ldm", PROPERTY_NAMES)
    assert len(results) == 8 and all(r.ok for r in results)
    assert sum(profile is t4_profile for profile in markets) == 1
    assert sum(profile is t4_profile for profile in ldm_runs) == 1


def test_value_ic_builds_one_market_per_proper_invitation_subset(monkeypatch, fig3_profile,
                                                                t4_profile):
    """The truthful market once, then, on an instance that is not its own
    BFS tree, one per class of the proper invitation subsets each valid
    buyer walks, the subsets that keep the same children sharing one,
    except a class that keeps every child (`ldm_walked_classes`): that one
    and the full set rerun on the truthful market, and on an own tree the
    truthful run answers every subset."""
    built, build = [], verify.compute_market
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                             edge_density=0.15)
    total = 0
    for profile in [fig3_profile, t4_profile, *instance_stream(config, 30)]:
        built.clear()
        assert run_properties(profile, "ldm", ("value-ic",))[0].ok
        market = build(profile)
        own = all(profile.reports[i].invited == market.children[i] for i in market.valid)
        assert len(built) == 1 + (0 if own else ldm_walked_classes(profile, market))
        total += len(built)
    # 367 with every subset enumerated, 225 with a market per walked subset
    # on own trees too, 203 with one per walked graph subset, 105 with one
    # per class
    assert total == 105


@CRITERION_STREAMS
def test_run_properties_together_match_one_at_a_time(config):
    for profile in instance_stream(config, 25):
        assert run_properties(profile, "ldm", PROPERTY_NAMES) == [
            run_properties(profile, "ldm", (prop,))[0] for prop in PROPERTY_NAMES]


def test_run_properties_flags_dna_mu(counterexample_profile):
    results = run_properties(counterexample_profile, "dna-mu", ("invite-ic",))
    assert not results[0].ok
    assert results[0].reports


def test_registry_declarations_agree():
    """Every registered mechanism reads only the tree, and declares LDM's
    run at mu exactly when its entry is layered: `layered` and `ldm_mu`
    state the same fact, so they must not drift apart."""
    for name, entry in verify.MECHANISMS.items():
        for mu in (0, 3):
            mechanism = entry.checked(mu)
            assert mechanism.reads_tree is True, name
            assert mechanism.ldm_mu == (mu if entry.layered else None), (name, mu)


def test_run_properties_refuses_unknown_and_unlayered_mechanisms(t4_profile):
    with pytest.raises(ContractError, match="unknown mechanism"):
        run_properties(t4_profile, "vcg", ("ir",))
    for name in ("dna-mu", "vcg-l1"):
        for prop in ("dominance", "decomposition", "order-independence"):
            with pytest.raises(ContractError, match="requires the ldm mechanism"):
                run_properties(t4_profile, name, (prop,))


def test_mu_overestimation_keeps_properties():
    """Running with mu above the structural bound must not break anything."""
    cfg = GeneratorConfig(seed=55, buyers=(2, 7), k=(1, 2), v_max=8)

    for inst in instance_stream(cfg, 20):
        base = robust_mu(inst)
        for mu in (base, base + 1, base + 3):
            results = run_properties(
                inst, "ldm", ("ir", "invite-ic", "non-wasteful", "dominance"), mu=mu)
            assert all(r.ok for r in results), (inst, mu)


def test_vcg_mechanism_is_ir_and_value_ic_first_layer():
    profile = make_profile(2, {1, 2, 3}, {
        1: ((5, 2), ()), 2: ((4, 1), ()), 3: ((3, 3), ()),
    })
    assert check_ir(vcg_mechanism(), profile) == []
    assert check_value_ic(vcg_mechanism(), profile) == []


@pytest.mark.parametrize("name, runner", [("ldm", "run_ldm"), ("dna-mu", "run_dna_mu")])
def test_ir_and_invite_ic_share_one_invitation_enumeration(monkeypatch, counterexample_profile,
                                                           name, runner):
    """IR builds and runs every invitation report once, and invite-ic next to
    it, in either order, adds no run and no market. Alone, invite-ic does
    the same work as IR for LDM; for DNA-MU, whose invitation cap skips the
    subsets of the buyers it certifies on any instance, it does no more, and
    strictly less on the counterexample and on the stream's graphs."""
    calls, built = [], []
    original, build = getattr(verify, runner), verify.compute_market
    monkeypatch.setattr(verify, runner, lambda *args: calls.append(1) or original(*args))
    monkeypatch.setattr(verify, "compute_market", lambda p: built.append(1) or build(p))
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), topology="graph",
                             edge_density=0.15)
    violated, graphs = [], 0
    for profile in [counterexample_profile, *instance_stream(config, 8)]:
        work, results = {}, {}
        for props in (("ir",), ("invite-ic",), ("ir", "invite-ic"), ("invite-ic", "ir")):
            calls.clear()
            built.clear()
            results[props] = {r.prop: r for r in run_properties(profile, name, props)}
            work[props] = (len(calls), len(built))
        assert work[("ir", "invite-ic")] == work[("invite-ic", "ir")] == work[("ir",)]
        for props in (("ir", "invite-ic"), ("invite-ic", "ir")):
            assert results[props] == {**results[("ir",)], **results[("invite-ic",)]}
        violated.append(not results[("invite-ic",)]["invite-ic"].ok)
        truth = verify._Truthful(dna_mu_mechanism(), profile)
        graph = truth.tree is not truth and work[("ir",)][1] > 1
        graphs += graph
        if name == "ldm":
            assert work[("invite-ic",)] == work[("ir",)]
        elif profile is counterexample_profile or graph:
            assert all(map(int.__lt__, work[("invite-ic",)], work[("ir",)]))
        else:
            assert all(map(int.__le__, work[("invite-ic",)], work[("ir",)]))
    # the DNA-MU counterexample's reports come through the shared table too
    assert violated[0] == (name == "dna-mu")
    # four of the stream's graphs are not their own BFS tree and have
    # deviations; on one of them every deviation keeps all the buyer's
    # children, so builds no market
    assert graphs == 3
