"""Mechanism-level behavior: frozen hand traces, reserve handling, axioms."""

import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest

from netauction import mechanisms
from netauction.cli import _parse_gen_spec
from netauction.errors import ContractError, MuTooSmall, ValidationError
from netauction.instance_io import (GeneratorConfig, instance_stream, parse_instance,
                                    random_instance)
from netauction.market import (
    DUMMY_BASE,
    ReportProfile,
    ReportedType,
    compute_market,
    cumulative_value,
    validate_profile,
)
from netauction.mechanisms import (
    inject_dummies,
    ldm_run_priced,
    outcome_welfare,
    run_dna_mu,
    run_ldm,
    run_ldm_tree,
    run_vcg_first_layer,
)
from netauction.removed_sets import min_valid_mu, robust_mu
from netauction.verify import MECHANISMS, payment_decomposition
from netauction.welfare import WelfareResult

import reference_ldm
from conftest import DATA, FIG3_LABELS, chain_profile, make_profile
from reference_welfare import brute_force_welfare
from test_deep_layers import comb
from test_parse_oracle import WIDE


def lid(c):
    return FIG3_LABELS.index(c)


# ---------------------------------------------------------------- VCG


def test_vcg_fig3(fig3_profile):
    out = run_vcg_first_layer(compute_market(fig3_profile))
    assert out.payment_of(lid("b")) == 1
    assert out.payment_of(lid("c")) == 2
    assert out.revenue == 3
    assert out.units_of(lid("b")) == 1 and out.units_of(lid("c")) == 2
    assert out.units_of(lid("d")) == 0


def test_vcg_single_buyer_takes_all_for_free():
    market = compute_market(make_profile(3, {1}, {1: ((5, 2, 0), ())}))
    out = run_vcg_first_layer(market)
    assert out.units == {1: 3}
    assert out.payments == {1: 0}


def test_vcg_t4(t4_profile):
    out = run_vcg_first_layer(compute_market(t4_profile))
    assert out.units_of(2) == 1 and out.payment_of(2) == 1
    assert out.revenue == 1


def test_vcg_empty_market():
    market = compute_market(make_profile(2, set(), {1: ((5, 1), ())}))
    out = run_vcg_first_layer(market)
    assert out.units == {} and out.payments == {}


def test_vcg_reserve_blocks_below_reserve_sale(t4_profile):
    out = run_vcg_first_layer(compute_market(inject_dummies(t4_profile, 6)))
    assert sum(out.units.values()) == 0
    assert out.revenue == 0
    assert all(i < DUMMY_BASE for i in out.units)


def test_reserve_tie_sells_to_real_buyer():
    market = compute_market(inject_dummies(make_profile(1, {1}, {1: ((5,), ())}), 5))
    out = run_vcg_first_layer(market)
    assert out.units == {1: 1}
    assert out.payments == {1: 5}
    ldm = run_ldm(market, 0)
    assert ldm.units == {1: 1}
    assert ldm.payments == {1: 5}


@pytest.mark.parametrize("reserve", [-3, -1, 2.5, True, "3", None])
def test_inject_dummies_rejects_a_reserve_that_is_not_a_non_negative_integer(reserve):
    # a -3 dummy bid used to pay the lone buyer 3 under both LDM and VCG
    profile = make_profile(1, {0}, {0: ((5,), ())})
    with pytest.raises(ValidationError, match="reserve must be a non-negative integer"):
        inject_dummies(profile, reserve)


# ---------------------------------------------------------------- DNA-MU


def test_dna_mu_chain_ancestor_priced_without_descendants():
    profile = make_profile(1, {0}, {0: ((5,), {1}), 1: ((7,), ())})
    out = run_dna_mu(compute_market(profile))
    assert out.units == {0: 1, 1: 0}
    assert out.payments == {0: 0, 1: 0}


def test_dna_mu_single_buyer_wins_free():
    profile = make_profile(1, {3}, {3: ((0,), ())})
    out = run_dna_mu(compute_market(profile))
    assert out.units == {3: 1} and out.payments == {3: 0}


def test_dna_mu_two_layer_hand_trace():
    # K=2; prices: 3 wins at 6, 5 wins at 10 (tie met), 6 cut off by K'=0.
    profile = make_profile(2, {1, 2, 3}, {
        1: ((6, 0), ()), 2: ((3, 0), {4}), 3: ((8, 0), {5, 6}),
        4: ((9, 0), ()), 5: ((10, 0), ()), 6: ((10, 0), ()),
    })
    out = run_dna_mu(compute_market(profile))
    assert out.units == {1: 0, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0}
    assert out.payments == {1: 0, 2: 0, 3: 6, 4: 0, 5: 10, 6: 0}


def test_dna_mu_flat_first_layer_matches_vcg_allocation():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 7)
        k = rng.randint(1, 4)
        buyers = {
            i: ((rng.randint(0, 9),) + (0,) * (k - 1), ()) for i in range(n)
        }
        market = compute_market(make_profile(k, set(range(n)), buyers))
        dna = run_dna_mu(market)
        vcg = run_vcg_first_layer(market)
        vcg_winners = {i for i, u in vcg.units.items() if u}
        dna_winners = {i for i, u in dna.units.items() if u}
        assert dna_winners == vcg_winners


def test_dna_mu_refuses_a_priced_market(fig3_profile):
    with pytest.raises(ContractError, match="dna-mu takes no reserve price"):
        run_dna_mu(compute_market(inject_dummies(fig3_profile, 0)))


# ---------------------------------------------------------------- LDM-Tree


def test_ldm_tree_fig3_full_outcome(fig3_profile):
    tree = compute_market(fig3_profile)
    out = run_ldm_tree(tree, 2)
    expected_nonzero = {"b": -4, "c": 4, "d": 9}
    for c in FIG3_LABELS:
        assert out.payment_of(lid(c)) == expected_nonzero.get(c, 0)
    assert out.units_of(lid("c")) == 2 and out.units_of(lid("d")) == 1
    assert sum(out.units.values()) == 3
    assert out.revenue == 9
    assert set(out.payments) == set(range(18))

    layer1, layer2 = out.trace.layers
    assert layer1.sw == 12
    assert layer1.sw_minus_d == {lid("a"): 12, lid("b"): 8, lid("c"): 9}
    assert layer1.k_remain_after == 1
    assert layer2.sw == 18
    assert layer2.sw_minus_d[lid("d")] == 16
    assert all(v == 18 for i, v in layer2.sw_minus_d.items() if i != lid("d"))
    assert layer2.k_remain_after == 0
    assert len(out.trace.layers) == 2  # stopped before layers 3 and 4


def test_ldm_tree_t4_full_outcome(t4_profile):
    tree = compute_market(t4_profile)
    out = run_ldm_tree(tree, 1)
    assert out.units == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
    assert out.payments == {1: -3, 2: 0, 3: 8, 4: 0, 5: 0}
    assert out.revenue == 5
    layer1, layer2 = out.trace.layers
    assert layer1.sw == 7 and layer1.tentative_units == {5: 1}
    assert layer1.sw_minus_d == {1: 4, 2: 7}
    assert layer2.sw == 9 and layer2.sw_minus_d == {3: 8, 4: 9, 5: 9}


def test_ldm_single_first_layer_buyer_pays_nothing():
    market = compute_market(make_profile(1, {1}, {1: ((7,), ())}))
    out = run_ldm(market, 0)
    assert out.units == {1: 1} and out.payments == {1: 0}


def test_ldm_rejects_undersized_mu(fig3_profile):
    tree = compute_market(fig3_profile)
    with pytest.raises(MuTooSmall):
        run_ldm_tree(tree, 1)


def test_ldm_within_layer_order_is_immaterial(fig3_profile):
    """Each processed layer's members, priced again from the run's own pools
    in any order, give the run's outcome and SW_{-D_i}."""
    base = run_ldm_tree(compute_market(fig3_profile), 2)
    rng = random.Random(1)
    for _ in range(4):
        out = ldm_run_priced(base.trace, lambda layer: rng.sample(sorted(layer), len(layer)))
        assert out.units == base.units and out.payments == base.payments
        assert out.trace.sw_minus_d == base.trace.sw_minus_d


@pytest.fixture(scope="module")
def wide_tree():
    """The auction benchmarks' wide tree."""
    return compute_market(random_instance(_parse_gen_spec(WIDE), 0))


@pytest.mark.parametrize("shape", ["fig3", "comb_k1", "wide"])
def test_a_decomposed_run_prices_each_member_once(shape, monkeypatch, wide_tree):
    """The run keeps the SW_{-D_i} its pricing computed, and its layer
    records read them: `payment_decomposition` after `run_ldm_tree` prices
    no member again, and the run prices each processed member once."""
    market = (wide_tree if shape == "wide"
              else compute_market(parse_instance((DATA / f"{shape}.json").read_text())))
    priced = []
    pay = mechanisms._ldm_payment
    monkeypatch.setattr(mechanisms, "_ldm_payment",
                        lambda market, pool, opt, i, *rest: priced.append(i)
                        or pay(market, pool, opt, i, *rest))
    out = run_ldm_tree(market, min_valid_mu(market))
    members = sorted(itertools.chain(*market.layers[:len(out.trace.pools)]))
    assert sorted(priced) == members
    assert payment_decomposition(out) and len(priced) == len(members)


def test_an_unpriced_walk_has_no_layer_records(monkeypatch, fig3_profile):
    """A value rerun's set-up walks without pricing, so it keeps no
    SW_{-D_i} (None): reading its layer records raises instead of giving
    none or some; the same walk priced gives them all."""
    walks = []
    trace = mechanisms.LdmTrace
    monkeypatch.setattr(mechanisms, "LdmTrace",
                        lambda *walk: walks.append(trace(*walk)) or walks[-1])
    market = compute_market(fig3_profile)
    for i in market.valid:
        mechanisms.ldm_value_rerun(market, 2, i)
    assert walks and all(walk.pools for walk in walks)
    for walk in walks:
        assert walk.sw_minus_d is None
        with pytest.raises(TypeError):
            walk.layers
        assert len(ldm_run_priced(walk, sorted).trace.layers) == len(walk.pools)


def test_ldm_graph_equals_tree_on_fig4(fig3_profile):
    graph_profile = parse_instance((DATA / "fig4.json").read_text())
    tree_out = run_ldm_tree(compute_market(fig3_profile), 2)
    graph_out = run_ldm(compute_market(graph_profile), 2)
    relabel = {i: graph_profile.label_of(i) for i in graph_profile.reports}
    by_label_units = {relabel[i]: u for i, u in graph_out.units.items()}
    by_label_pay = {relabel[i]: p for i, p in graph_out.payments.items()}
    assert by_label_units == {FIG3_LABELS[i]: u for i, u in tree_out.units.items()}
    assert by_label_pay == {FIG3_LABELS[i]: p for i, p in tree_out.payments.items()}


def test_ldm_on_tree_input_equals_ldm_tree(t4_profile):
    market = compute_market(t4_profile)
    a = run_ldm(market, 1)
    b = run_ldm_tree(market, 1)
    assert a.units == b.units and a.payments == b.payments


def test_ldm_t4_reserve_six_frozen_trace(t4_profile):
    market = compute_market(inject_dummies(t4_profile, 6))
    out = run_ldm(market, 1)
    assert out.units == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
    assert out.payments == {1: -1, 2: 0, 3: 8, 4: 0, 5: 0}
    assert out.revenue == 7
    assert all(i < DUMMY_BASE for rec in out.trace.layers for i in rec.removed)


def test_ldm_empty_market_all_zero():
    market = compute_market(make_profile(2, set(), {1: ((5, 1), ())}))
    out = run_ldm(market, 0)
    assert out.units == {} and out.payments == {} and out.revenue == 0


def test_long_invitation_chain_runs():
    # deeper than the interpreter's default recursion limit
    profile = chain_profile(1500, 2)
    tracemalloc.start()
    try:
        market = compute_market(profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # layers and tree must stay linear in the buyers: about 1 MB here
    assert peak < 8 * 2**20
    assert len(market.layers) == 1500 and len(market.subtree(0)) == 1499
    ldm = run_ldm(market, 1)
    assert ldm.units == {i: 2 if i == 0 else 0 for i in range(1500)}
    assert ldm.revenue == 0
    dna = run_dna_mu(market)
    assert dna.units == {i: 1 if i < 2 else 0 for i in range(1500)}


def test_ldm_outcome_memory_is_linear_on_a_deep_comb():
    """One run over every layer of the k = 1 comb with n = 4,000 buyers
    keeps about 1.3 MiB: a trace holding each layer's R_l, every deeper layer
    included, kept 84 MiB."""
    profile = comb(1000, 1, 2, 3)
    market = compute_market(profile)
    tracemalloc.start()
    try:
        out = run_ldm_tree(market, robust_mu(profile))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out.trace.layers) == len(market.layers) == 1001
    assert held < 4 * 2**20


def test_ldm_utility_identity_from_trace(fig3_profile, t4_profile):
    for profile, mu in ((fig3_profile, 2), (t4_profile, 1)):
        out = run_ldm_tree(compute_market(profile), mu)
        for rec in out.trace.layers:
            for i in rec.sw_minus_d:
                gained = cumulative_value(profile.reports[i].values, out.units_of(i))
                assert gained - out.payment_of(i) == rec.sw - rec.sw_minus_d[i]


def test_ldm_non_wasteful_on_random_instances():
    for topology in ("tree", "graph"):
        cfg = GeneratorConfig(seed=31, buyers=(1, 8), k=(1, 3), v_max=9,
                              topology=topology, edge_density=0.2)
        for profile in instance_stream(cfg, 60):
            market = compute_market(profile)
            from netauction.removed_sets import min_valid_mu
            out = run_ldm_tree(market, min_valid_mu(market))
            if market.valid:
                assert sum(out.units.values()) == profile.k


def test_ldm_scale_covariance(fig3_profile):
    c = 3
    scaled_reports = {
        i: ReportedType(tuple(v * c for v in rep.values), rep.invited)
        for i, rep in fig3_profile.reports.items()
    }
    scaled = ReportProfile(k=3, seller_neighbors=fig3_profile.seller_neighbors,
                           reports=scaled_reports)
    base = run_ldm(compute_market(fig3_profile), 2)
    big = run_ldm(compute_market(scaled), 2)
    assert big.units == base.units
    assert big.payments == {i: p * c for i, p in base.payments.items()}
    assert outcome_welfare(compute_market(scaled), big) == \
        c * outcome_welfare(compute_market(fig3_profile), base)


def test_welfare_and_revenue_dominance_fig3_and_t4(fig3_profile, t4_profile):
    for profile, mu in ((fig3_profile, 2), (t4_profile, 1)):
        market = compute_market(profile)
        ldm = run_ldm(market, mu)
        vcg = run_vcg_first_layer(market)
        assert outcome_welfare(market, ldm) >= outcome_welfare(market, vcg)
        assert ldm.revenue >= vcg.revenue


# ---------------------------------------------------------------- unreachable buyers


def _with_unreachable_buyers(profile, rng):
    """The profile plus three buyers nobody invites, with arbitrary reports.

    They bid high, invite real buyers and each other, and are never named
    by the seller, so they stay outside the valid set.
    """
    start = max(profile.reports) + 1
    extra = range(start, start + 3)
    reports = dict(profile.reports)
    for i in extra:
        values = sorted((rng.randint(0, 50) for _ in range(profile.k)), reverse=True)
        pool = [j for j in list(profile.reports) + list(extra) if j != i]
        reports[i] = ReportedType(tuple(values), frozenset(rng.sample(pool, min(3, len(pool)))))
    return validate_profile(replace(profile, reports=reports))


def _registry_outcome(entry, profile, mu):
    try:
        out = entry.checked(mu).run(compute_market(profile))
    except ContractError as exc:
        return str(exc)
    return out.units, out.payments


def test_unreachable_buyers_move_nothing(fig3_profile, t4_profile):
    fig4 = parse_instance((DATA / "fig4.json").read_text())
    config = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                             topology="graph", edge_density=0.15)
    profiles = [fig3_profile, fig4, t4_profile] + list(instance_stream(config, 100))
    rng = random.Random(5)
    for profile in profiles:
        padded = _with_unreachable_buyers(profile, rng)
        mu = robust_mu(profile)
        for reserve in (None, 3):
            base, more = profile, padded
            if reserve is not None:
                base, more = inject_dummies(base, reserve), inject_dummies(more, reserve)
            for entry in MECHANISMS.values():
                assert _registry_outcome(entry, more, mu) == _registry_outcome(entry, base, mu)


# ---------------------------------------------------------------- metamorphic relations

TREES = GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree")
GRAPHS = GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                         topology="graph", edge_density=0.15)


def _relabel(i):
    """An order-preserving relabelling: every tie-break reads ids in the same order."""
    return 3 * i + 7


def _mapped(profile, label=lambda i: i, scale=1):
    """The profile with buyer i renamed `label(i)` and every value times
    `scale`; the display labels, which no mechanism reads, are dropped."""
    reports = {label(i): ReportedType(tuple(scale * v for v in r.values),
                                      frozenset(map(label, r.invited)))
               for i, r in profile.reports.items()}
    return validate_profile(replace(profile, reports=reports, labels=None,
                                    seller_neighbors=frozenset(map(label, profile.seller_neighbors))))


def _relabelled_record(rec):
    return replace(rec, removed=frozenset(map(_relabel, rec.removed)),
                   **{name: {_relabel(i): x for i, x in getattr(rec, name).items()}
                      for name in ("tentative_units", "tentative_value", "sw_minus_d")})


@pytest.mark.parametrize("config", [TREES, GRAPHS], ids=["seed301-tree", "seed302-graph"])
def test_metamorphic_relations(config):
    """Relabelling i -> 3i + 7 renames every outcome, and LDM's layer
    records, R_l included; every value times 3 triples every payment and
    keeps every unit; a reserve of 0 moves nothing for the mechanisms that
    take one (ROADMAP "State", items 12 and 14)."""
    for profile in instance_stream(config, 100):
        mu = robust_mu(profile)
        relabelled = _mapped(profile, label=_relabel)
        for name in ("ldm", "dna-mu", "vcg-l1"):
            entry = MECHANISMS[name]
            units, payments = _registry_outcome(entry, profile, mu)
            assert _registry_outcome(entry, relabelled, mu) == (
                {_relabel(i): u for i, u in units.items()},
                {_relabel(i): p for i, p in payments.items()})
            assert _registry_outcome(entry, _mapped(profile, scale=3), mu) == (
                units, {i: 3 * p for i, p in payments.items()})
            if name != "dna-mu":
                assert _registry_outcome(entry, inject_dummies(profile, 0), mu) == (units, payments)
        records = run_ldm(compute_market(profile), mu).trace.layers
        assert (run_ldm(compute_market(relabelled), mu).trace.layers
                == tuple(map(_relabelled_record, records)))


def test_no_mechanism_beats_the_optimum():
    """Every registered mechanism's welfare is at most the welfare optimum
    over all valid buyers (ROADMAP item 10's theorem)."""
    for profile in instance_stream(TREES, 100):
        market = compute_market(profile)
        best = brute_force_welfare(market, market.valid, {}, market.k).welfare
        for entry in MECHANISMS.values():
            out = entry.checked(robust_mu(profile)).run(market)
            assert outcome_welfare(market, out) <= best


def test_ldm_reads_each_members_units_once(monkeypatch, fig3_profile):
    """LDM's layer loop reads each processed member's units from the layer
    optimum once, for the supply, her payment and her commit alike; the
    outcome is the reference's."""
    reads = []
    units_of = WelfareResult.units_of
    monkeypatch.setattr(WelfareResult, "units_of",
                        lambda result, i: reads.append(i) or units_of(result, i))
    for profile, mu in ((fig3_profile, 2), (inject_dummies(fig3_profile, 4), 2),
                        *((p, robust_mu(p)) for p in instance_stream(GeneratorConfig(seed=3), 30))):
        market = compute_market(profile)
        reads.clear()
        outcome = run_ldm_tree(market, mu)
        processed = [i for layer in market.layers[:len(outcome.trace.pools)] for i in layer]
        assert sorted(reads) == sorted(processed)
        slow = reference_ldm.run_ldm_tree(market, mu)
        assert ((outcome.units, outcome.payments, outcome.trace.layers)
                == (slow.units, slow.payments, slow.trace.layers))
